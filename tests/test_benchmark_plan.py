"""The benchmark's ``perturbed`` plan, run in process against its committed
reference rows: a correlator change that moves a row past the benchmark's
correctness gate fails here first. perfbench's files are only read."""

import importlib.util
import json
from pathlib import Path

from tcspin.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perturbed_plan_matches_its_reference_rows(tmp_path):
    workloads, gate = _perfbench_module("workloads"), _perfbench_module("gate")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "sweep", "plan": workloads.perturbed_plan(workloads.DEFAULT_SEED)}))
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    rows = gate.read_rows(tmp_path / "out" / "sweep.csv")
    reference = gate.read_rows(PERFBENCH / "reference" / "perturbed.csv")
    # float columns within gate.FLOAT_TOL = 1e-9 of the reference, the rest exactly
    assert gate.FLOAT_TOL == 1e-9
    assert len(rows) == 3
    assert gate.failed_rows(rows, reference, full_reference=True) == []
