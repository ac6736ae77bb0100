"""The benchmark's three plans, run in process against their committed
reference rows: a change that moves a row past the benchmark's correctness
gate fails here first. perfbench's files are only read."""

import csv
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


def _row_perturbations(plan):
    """The perturbations config of each row of a one-N, one-J plan, in row
    order: none for the bare chain, then one per family strength and seed."""
    yield []
    for family in plan.get("perturbations", []):
        keys = {key: family[key] for key in ("axis", "distribution") if key in family}
        for strength in family["strengths"]:
            for seed in family.get("seeds", [None]):
                spec = {"kind": family["kind"], "strength": strength, **keys}
                yield [spec if seed is None else {**spec, "seed": seed}]


def test_spectrum_and_correlate_reproduce_the_perturbed_rows(tmp_path, monkeypatch):
    """spectrum, correlate and a sweep plan read one solver section and route
    by its dense_max_sites alone. With the perturbed plan's solver section
    pasted in and no TCSPIN_DENSE_CAP set, spectrum's ground energy and
    correlate's dominant line are each row's bits, on the Lanczos route that
    the default cap of 14 once overrode with the dense one."""
    monkeypatch.delenv("TCSPIN_DENSE_CAP", raising=False)
    plan = WORKLOADS.WORKLOADS["perturbed"](WORKLOADS.DEFAULT_SEED)
    config = tmp_path / "plan.json"
    config.write_text(json.dumps({"command": "sweep", "plan": plan}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "sweep")]) == 0
    rows = list(csv.DictReader((tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]))
    (n,), (j,) = plan["n_values"], plan["j_values"]
    for i, (row, perturbations) in enumerate(zip(rows, _row_perturbations(plan), strict=True)):
        assert (row["solver"], row["pert_kind"]) == ("lanczos", perturbations[0]["kind"] if perturbations else "none")
        model = {"type": "tc", "n_sites": n, "j_coupling": j}
        common = {"model": model, "perturbations": perturbations, "solver": plan["solver"]}
        docs = {
            "spectrum": {"command": "spectrum", **common},
            "correlate": {
                "command": "correlate",
                **common,
                "observable": {"type": "magnetization", "axis": "z"},
                "initial_state": {"type": "ground"},
                "time_grid": plan["time_grid"],
                "method": "krylov",
            },
        }
        for command, doc in docs.items():
            path = tmp_path / f"{command}{i}.json"
            path.write_text(json.dumps(doc))
            assert main([command, "--config", str(path), "--out", str(tmp_path / f"{command}{i}")]) == 0
        spectrum = json.loads((tmp_path / f"spectrum{i}" / "spectrum.json").read_text())["spectrum"]
        line = json.loads((tmp_path / f"correlate{i}" / "oscillation.json").read_text())["oscillation"]
        assert [repr(spectrum["eigenvalues"][0]), repr(line["frequencies"][0]), repr(line["amplitudes"][0])] == [
            row["ground_energy"], row["dominant_frequency"], row["dominant_amplitude"]
        ]


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
