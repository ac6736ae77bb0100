"""The correctness gate rejects a reference value shifted by 1e-6.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

from gate import FLOAT_TOL, control_exponent_problem, failed_rows, gap_inconsistent_rows, read_rows  # noqa: E402

REFERENCE = read_rows(HERE / "reference" / "persistence.csv")


def _shifted(rows, index, column, delta):
    rows = copy.deepcopy(rows)
    rows[index][column] = repr(float(rows[index][column]) + delta)
    return rows


def test_reference_passes_itself():
    assert failed_rows(REFERENCE, REFERENCE, full_reference=True) == []


def test_shift_of_1e6_fails_the_gate():
    for index, row in enumerate(REFERENCE):
        for column in ("ground_energy", "dominant_frequency", "dominant_amplitude"):
            failures = failed_rows(REFERENCE, _shifted(REFERENCE, index, column, 1e-6), full_reference=True)
            assert len(failures) == 1 and failures[0].startswith(f"row {index}:"), (index, column)
            assert column in failures[0]


def test_shift_within_tolerance_passes():
    rows = _shifted(REFERENCE, 2, "ground_energy", FLOAT_TOL / 10)
    assert failed_rows(rows, REFERENCE, full_reference=True) == []


def test_exact_columns_must_match():
    rows = copy.deepcopy(REFERENCE)
    rows[0]["status"] = "failed"
    rows[1]["solver"] = "lanczos"
    rows[4]["n_sites"] = "16"
    assert len(failed_rows(rows, REFERENCE, full_reference=True)) == 3


def test_dense_rows_keep_gap_consistency_at_any_seed():
    rows = copy.deepcopy(REFERENCE)
    rows[0]["gap_consistent"] = "false"
    for full_reference in (True, False):
        failures = failed_rows(rows, REFERENCE, full_reference=full_reference)
        assert len(failures) == 1 and "gap_consistent" in failures[0]


def test_gap_inconsistency_of_the_reference_is_counted_not_failed():
    disorder = read_rows(HERE / "reference" / "disorder.csv")
    assert failed_rows(disorder, disorder, full_reference=True) == []
    assert gap_inconsistent_rows(disorder) == 33
    assert gap_inconsistent_rows(REFERENCE) == 0
    rows = copy.deepcopy(disorder)
    flipped = next(i for i, r in enumerate(rows) if r["gap_consistent"] == "false")
    rows[flipped]["gap_consistent"] = "true"
    assert len(failed_rows(rows, disorder, full_reference=True)) == 1


def test_non_default_seed_compares_only_seed_independent_rows():
    lanczos = next(i for i, r in enumerate(REFERENCE) if r["solver"] == "lanczos")
    dense = next(i for i, r in enumerate(REFERENCE) if r["solver"] == "dense")
    assert failed_rows(_shifted(REFERENCE, lanczos, "ground_energy", 1e-6), REFERENCE, full_reference=False) == []
    assert len(failed_rows(_shifted(REFERENCE, dense, "ground_energy", 1e-6), REFERENCE, full_reference=False)) == 1
    rows = copy.deepcopy(REFERENCE)
    rows[lanczos]["n_sites"] = "16"
    assert len(failed_rows(rows, REFERENCE, full_reference=False)) == 1


def test_missing_rows_fail_every_expected_row():
    assert len(failed_rows(REFERENCE[:-1], REFERENCE, full_reference=True)) == len(REFERENCE)


def test_control_exponent():
    def summary(exponent):
        return {"summary": {"oscillator_control": {"fit": {"exponent": exponent}}}}

    assert control_exponent_problem(summary(-1.0)) is None
    assert control_exponent_problem(summary(-1.0 + 1e-9)) is not None
    assert control_exponent_problem({"summary": {}}) is not None
