"""The benchmark's three plans, run in process against their committed
reference rows: a change that moves a row past the benchmark's correctness
gate fails here first. perfbench's files are only read."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tcspin.spectra
from tcspin.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS, GATE = _perfbench_module("workloads"), _perfbench_module("gate")

# rows per plan: criterion 7's N = 6..14, the N = 12 perturbed rows, criterion 8's study
ROWS = {"persistence": 5, "perturbed": 3, "disorder": 52}


@pytest.mark.parametrize("workload", WORKLOADS.WORKLOADS)
def test_plan_matches_its_reference_rows(workload, tmp_path):
    config = tmp_path / "config.json"
    plan = WORKLOADS.WORKLOADS[workload](WORKLOADS.DEFAULT_SEED)
    config.write_text(json.dumps({"command": "sweep", "plan": plan}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = GATE.read_rows(tmp_path / "out" / "sweep.csv")
    reference = GATE.read_rows(PERFBENCH / "reference" / f"{workload}.csv")
    # float columns within gate.FLOAT_TOL = 1e-9 of the reference, the rest exactly
    assert GATE.FLOAT_TOL == 1e-9
    assert len(rows) == ROWS[workload]
    assert GATE.failed_rows(rows, reference, full_reference=True) == []
    if workload == "persistence":
        # criterion 7: the oscillator-control amplitude falls off as exactly 1/N
        summary = json.loads((tmp_path / "out" / "sweep_summary.json").read_text())
        assert GATE.control_exponent_problem(summary) is None


def test_persistence_lanczos_rows_keep_fewer_than_all_states(tmp_path, caplog):
    """The persistence plan's N = 12 and 14 rows take the Lanczos route on
    the bare chain, which solves only on the flip-span cosets that can hold
    its two lowest levels: fewer than 2^N states, read from each solve's
    info record."""
    config = tmp_path / "config.json"
    plan = WORKLOADS.WORKLOADS["persistence"](WORKLOADS.DEFAULT_SEED)
    config.write_text(json.dumps({"command": "sweep", "plan": plan}))
    with caplog.at_level("INFO", logger="tcspin.spectra"):
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    kept = {}
    for record in caplog.records:
        match = re.search(r"on (\d+) of (\d+) states", record.getMessage())
        if record.name == "tcspin.spectra" and match:
            kept[int(match[2])] = int(match[1])
    assert sorted(kept) == [1 << 12, 1 << 14]
    assert all(states < full for full, states in kept.items()), kept


def test_perturbed_lanczos_rows_solve_only_the_ground_sectors(tmp_path, caplog, monkeypatch):
    """The perturbed plan's three N = 12 rows (bare, Heisenberg-0.05, z
    field, in that order) take the Lanczos route at k = 2, one sector at a
    time. The Heisenberg row solves 2 of its 4 global-flip sectors, 2 048 of
    4 096 states, at k = 1 each: two one-pair solves of 1 024 amplitudes with
    nothing to deflate. The bare and z-field rows solve at most 4 states.
    Read from each solve's info record and from the one-pair solves."""
    solve, solves = tcspin.spectra._lowest_deflated_eigenpair, []

    def recording(matvec, v0, tol, budget, m_cap, keep, deflate, *args):
        solves.append((len(v0), len(deflate)))
        return solve(matvec, v0, tol, budget, m_cap, keep, deflate, *args)

    monkeypatch.setattr(tcspin.spectra, "_lowest_deflated_eigenpair", recording)
    config = tmp_path / "config.json"
    plan = WORKLOADS.WORKLOADS["perturbed"](WORKLOADS.DEFAULT_SEED)
    config.write_text(json.dumps({"command": "sweep", "plan": plan}))
    with caplog.at_level("INFO", logger="tcspin.spectra"):
        assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    bare, heisenberg, z_field = [record.args for record in caplog.records if record.name == "tcspin.spectra"]
    # converged, requested, ..., solved and all states, solved and all sectors
    assert heisenberg[:2] == (2, 2) and heisenberg[6:] == (2048, 4096, 2, 4)
    assert bare[:2] == z_field[:2] == (2, 2) and bare[6] <= 4 and z_field[6] <= 4
    assert solves[2:4] == [(1024, 0), (1024, 0)]
    assert all(size <= 4 for size, _ in solves[:2] + solves[4:])


def test_persistence_sweep_never_imports_numpy_random(tmp_path):
    """The persistence plan has no random field, so a sweep of it in a fresh
    interpreter leaves numpy.random unimported: numpy loads it lazily, on
    first use, and the Lanczos start vectors come from splitmix64. The test
    process cannot show it, since its own imports load numpy.random."""
    config = tmp_path / "config.json"
    plan = WORKLOADS.WORKLOADS["persistence"](WORKLOADS.DEFAULT_SEED)
    config.write_text(json.dumps({"command": "sweep", "plan": plan}))
    script = (
        "import sys\n"
        "from tcspin.cli import main\n"
        f"code = main(['sweep', '--config', {str(config)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
        "print(code, 'numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False"]
