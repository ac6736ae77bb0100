"""The tracer nests spans across the sweep's worker threads and restores tcspin.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import tcspin.cli  # noqa: E402,F401  (loads every namespace the tracer patches)
import tcspin.dynamics  # noqa: E402
import tcspin.pauli  # noqa: E402
import tcspin.spectra  # noqa: E402
import tcspin.sweep  # noqa: E402
from tcspin.dynamics import TimeGrid  # noqa: E402
from tcspin.sweep import SweepPlan  # noqa: E402

from tracer import NAMES, Tracer, _covered, layer_metrics, metric_units  # noqa: E402


def _tiny_plan() -> SweepPlan:
    return SweepPlan(n_values=(4, 6), j_values=(0.5, 1.0), grid=TimeGrid(0.0, 20.0, 32))


def test_spans_nest_across_worker_threads_and_originals_return():
    originals = {
        "sweep": tcspin.sweep.dense_spectrum,
        "spectra": tcspin.spectra.to_dense,
        "dynamics": tcspin.dynamics.to_dense,
        "matvec": tcspin.pauli.Operator.__dict__["matvec"],
    }
    tracer = Tracer().install()
    try:
        assert tcspin.sweep.dense_spectrum is not originals["sweep"]
        assert tcspin.dynamics.to_dense is not originals["dynamics"]
        tcspin.sweep.run_sweep(_tiny_plan(), workers=2)
    finally:
        tracer.uninstall()
    assert tcspin.sweep.dense_spectrum is originals["sweep"]
    assert tcspin.spectra.to_dense is originals["spectra"]
    assert tcspin.dynamics.to_dense is originals["dynamics"]
    assert tcspin.pauli.Operator.__dict__["matvec"] is originals["matvec"]
    assert tracer.missing == []

    index = {name: i for i, name in enumerate(NAMES)}
    by_id = {s[0]: s for s in tracer.spans}
    (run,) = [s for s in tracer.spans if s[1] == index["sweep.run"]]
    dense = [s for s in tracer.spans if s[1] == index["spectra.dense"]]
    assert len(dense) == 4
    # rows ran on pool threads, yet each dense call hangs under run_sweep
    assert all(s[2] == run[0] for s in dense)
    for s in tracer.spans:
        if s[1] == index["pauli.to_dense"]:
            assert by_id[s[2]][1] in (index["spectra.dense"], index["dynamics.spectral"])

    metrics = layer_metrics(tracer.spans, 32, [0.1, 0.2], 1.0, [0.9])
    assert set(metrics) == set(metric_units())
    assert metrics["spectra.dense_calls"] == 4
    assert metrics["spectra.dense_matvecs"] == (16 + 16 + 64 + 64)  # one residual matvec per eigenpair
    assert metrics["sweep.run_self_s"] < metrics["sweep.run_s"] / 2
    assert abs(metrics["trace.overhead_s"] - 0.1) < 1e-12


def test_covered_is_the_union_of_clipped_intervals():
    assert _covered([(0, 10), (5, 15), (20, 30)], 0, 25) == 20
    assert _covered([(-5, 3), (40, 50)], 0, 25) == 3
    assert _covered([], 0, 25) == 0
