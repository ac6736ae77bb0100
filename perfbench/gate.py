"""Correctness gate for the rows of one ``sweep.csv``.

Every row must have status ``ok``, and every dense row whose reference row
reports ``gap_consistent == true`` must report it too, at any seed. A row is
also compared with the committed reference row at the same position (float
columns within ``FLOAT_TOL`` absolute, every other column exactly) when the
reference applies: at the default seed every row, at any other seed only the
rows whose inputs do not depend on the seed (dense rows without a random
field). The other rows must still be the same grid point as the reference
row.

The seed code itself reports ``gap_consistent == false`` on 33 of the 52
``disorder`` rows (NOTES.md, "Known defect"). The reference records those
values, so they are compared like any other column, and
``gap_inconsistent_rows`` counts them for the report.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

FLOAT_TOL = 1e-9
CONTROL_EXPONENT_TOL = 1e-10

FLOAT_COLUMNS = frozenset(
    {
        "j_coupling",
        "pert_strength",
        "ground_energy",
        "energy_gap",
        "ghz_gap",
        "ghz_overlap_plus",
        "ghz_overlap_minus",
        "dominant_frequency",
        "dominant_amplitude",
        "residual_fraction",
    }
)
# columns that fix the grid point, whatever the seed
POINT_COLUMNS = ("n_sites", "j_coupling", "boundary", "axis", "initial_state", "pert_kind", "pert_strength", "solver")


def read_rows(path: Path) -> list[dict[str, str]]:
    """Rows of a sweep CSV, skipping its ``#`` header comment."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def seed_independent(row: dict[str, str]) -> bool:
    return row["solver"] == "dense" and row["pert_kind"] != "random_onsite_field"


def _cell_mismatch(column: str, got: str, want: str) -> str | None:
    if column in FLOAT_COLUMNS and got and want:
        try:
            if abs(float(got) - float(want)) <= FLOAT_TOL:
                return None
        except ValueError:
            return f"{column} {got!r} is not a number"
        return f"{column} {got} differs from reference {want} by more than {FLOAT_TOL:g}"
    if got != want:
        return f"{column} {got!r} != reference {want!r}"
    return None


def row_problems(row: dict[str, str], ref: dict[str, str], full_reference: bool) -> list[str]:
    """Reasons ``row`` fails the gate; empty when it passes."""
    problems = []
    if row.get("status") != "ok":
        problems.append(f"status {row.get('status')!r}: {row.get('error', '')}")
    if ref["gap_consistent"] == "true" and row.get("gap_consistent") != "true":
        problems.append(f"dense row lost gap consistency: gap_consistent {row.get('gap_consistent')!r}")
    columns = ref.keys() if full_reference or seed_independent(ref) else POINT_COLUMNS
    for column in columns:
        problem = _cell_mismatch(column, row.get(column, ""), ref[column])
        if problem:
            problems.append(problem)
    return problems


def failed_rows(rows: list[dict[str, str]], reference: list[dict[str, str]], full_reference: bool) -> list[str]:
    """One message per failing row; a row count unlike the reference fails every expected row."""
    if len(rows) != len(reference):
        return [f"{len(rows)} rows, reference has {len(reference)}"] * len(reference)
    failures = []
    for i, (row, ref) in enumerate(zip(rows, reference)):
        problems = row_problems(row, ref, full_reference)
        if problems:
            failures.append(f"row {i}: " + "; ".join(problems))
    return failures


def gap_inconsistent_rows(rows: list[dict[str, str]]) -> int:
    """Dense rows whose reported peaks are not all eigenvalue gaps."""
    return sum(1 for row in rows if row.get("solver") == "dense" and row.get("gap_consistent") != "true")


def control_exponent_problem(summary: dict) -> str | None:
    """Criterion 7: the oscillator-control amplitude falls off as exactly 1/N."""
    try:
        exponent = summary["summary"]["oscillator_control"]["fit"]["exponent"]
    except (KeyError, TypeError):
        return "sweep_summary.json has no oscillator-control fit"
    if not math.isfinite(exponent) or abs(exponent + 1.0) > CONTROL_EXPONENT_TOL:
        return f"oscillator-control exponent {exponent!r} is not -1 within {CONTROL_EXPONENT_TOL:g}"
    return None
