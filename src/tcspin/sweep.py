"""Finite-size and perturbation campaigns with deterministic, replayable output.

A sweep plan fixes a grid of (N, J) points, an observable, a time grid,
solver settings and optional perturbation families; every grid point runs
spectrum -> correlator -> oscillation report through :func:`run_point`, the
pipeline ``tcspin correlate`` shares, and lands in one record. Rows
are pure functions of their inputs, so a plan rerun reproduces the results
CSV byte for byte, and rows with the same Hamiltonian share one run. Wall
times are kept out of the deterministic outputs.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, replace
from typing import Literal

import numpy as np

from .dynamics import (
    MIN_SAMPLES,
    CorrelationSeries,
    OscillationReport,
    TimeGrid,
    correlator_krylov,
    correlator_krylov_general,
    correlator_spectral,
    eigenstate_energy,
    extract_oscillation,
    gap_frequency_consistency,
)
from .errors import ConfigError, EigenstateError, PlanError, TcspinError
from .models import (
    Axis,
    Boundary,
    Distribution,
    PerturbationKind,
    PerturbationSpec,
    TCModelConfig,
    add_perturbations,
    build_tc_hamiltonian,
    magnetization_operator,
)
from .oscillator import OscillatorControl, cm_correlator_numeric
from .pauli import Operator, StateVector, dense_cap
from .schema import dump
from .spectra import GHZReport, SpectrumResult, dense_spectrum, ghz_overlap_report, lanczos_extremal


def check_lanczos_keys(section) -> None:
    """Range checks of the ``lanczos_*`` keys, shared by every section with them."""
    if section.lanczos_k < 1:
        raise ConfigError(f"lanczos_k must be >= 1, got {section.lanczos_k}")
    if not (section.lanczos_tol > 0 and math.isfinite(section.lanczos_tol)):
        raise ConfigError(f"lanczos_tol must be finite and > 0, got {section.lanczos_tol}")
    if section.lanczos_max_iter < 1:
        raise ConfigError(f"lanczos_max_iter must be >= 1, got {section.lanczos_max_iter}")
    # the key of lanczos_extremal's splitmix64 start stream is a uint64
    if not 0 <= section.lanczos_seed < 1 << 64:
        raise ConfigError(f"lanczos_seed must be in [0, 2**64), got {section.lanczos_seed}")


@dataclass(frozen=True)
class SolverSettings:
    """Route selection and iterative-solver knobs of :func:`run_point`.

    :meth:`route` is the one routing rule (N <= dense_max_sites is dense,
    larger N Lanczos) and :meth:`check` its up-front checks, for the sweep
    and every CLI command. ``krylov_dim`` is accepted and ignored; it stays
    because perfbench plans set it and config hashes cover it (ROADMAP item
    1a drops it with the next benchmark change).
    """

    dense_max_sites: int = 10
    lanczos_k: int = 6
    lanczos_tol: float = 1e-10
    lanczos_max_iter: int = 40000
    lanczos_seed: int = 7
    krylov_dim: int = 30
    step_tol: float = 1e-12
    max_peaks: int = 8

    def __post_init__(self) -> None:
        check_lanczos_keys(self)
        if not self.step_tol > 0:
            raise PlanError(f"step_tol must be > 0, got {self.step_tol}")
        if self.max_peaks < 1:
            raise PlanError(f"max_peaks must be >= 1, got {self.max_peaks}")

    def route(self, n_sites: int) -> Literal["dense", "lanczos"]:
        return "dense" if n_sites <= self.dense_max_sites else "lanczos"

    def check(self, n_sites: int) -> None:
        """PlanError unless the route of ``n_sites`` can take its spectrum:
        dense up to :func:`dense_cap`, Lanczos for lanczos_k <= 2^N pairs."""
        if self.route(n_sites) == "dense" and n_sites > dense_cap():
            raise PlanError(f"the dense route at N={n_sites} exceeds the dense cap {dense_cap()}")
        if self.route(n_sites) == "lanczos" and self.lanczos_k > 1 << n_sites:
            raise PlanError(f"lanczos_k={self.lanczos_k} exceeds {1 << n_sites}, the Hilbert-space dimension at N={n_sites}")


@dataclass(frozen=True)
class PerturbationFamily:
    """One perturbation kind swept over strengths (and seeds, for disorder)."""

    kind: PerturbationKind
    strengths: tuple[float, ...]
    axis: Axis = "z"
    distribution: Distribution = "uniform_pm1"
    seeds: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        for name, values in (("strengths", self.strengths), ("seeds", self.seeds)):
            if not values or len(set(values)) != len(values):
                raise PlanError(f"perturbation family {self.kind} needs non-empty, distinct {name}, got {values}")
        if self.kind == "heisenberg_exchange":
            # the exchange operator reads no axis, distribution or seed: its
            # family has one row per strength, so these keys keep their defaults
            defaults = {f.name: f.default for f in fields(self)}
            for name in ("axis", "distribution", "seeds"):
                if getattr(self, name) != defaults[name]:
                    raise PlanError(
                        f"perturbation family heisenberg_exchange reads no {name}; got {getattr(self, name)!r}"
                    )
        self.specs()  # a spec validates kind, strength, axis, seed and distribution

    def specs(self) -> tuple[PerturbationSpec, ...]:
        """The spec of each of the family's sweep rows, in row order: one per
        strength and seed (an exchange family has the one default seed)."""
        return tuple(
            PerturbationSpec(self.kind, strength, self.axis, seed, self.distribution)
            for strength in self.strengths
            for seed in self.seeds
        )


@dataclass(frozen=True)
class SweepPlan:
    n_values: tuple[int, ...]
    j_values: tuple[float, ...]
    grid: TimeGrid = field(metadata={"key": "time_grid"})
    axis: Axis = "z"
    initial_state: Literal["ground", "ghz_pair"] = "ground"
    boundary: Boundary = "periodic"
    perturbations: tuple[PerturbationFamily, ...] = ()
    solver: SolverSettings = field(default_factory=SolverSettings)
    oscillator_control: OscillatorControl | None = None

    def __post_init__(self) -> None:
        if not self.n_values or not self.j_values:
            raise PlanError("plan needs non-empty N and J grids")
        if len(set(self.n_values)) != len(self.n_values):
            raise PlanError(f"duplicate N values in plan: {self.n_values}")
        if len(set(self.j_values)) != len(self.j_values):
            raise PlanError(f"duplicate J values in plan: {self.j_values}")
        if any(n < 4 for n in self.n_values):
            raise PlanError("plan N values must be >= 4")
        if self.initial_state not in ("ground", "ghz_pair"):
            raise PlanError(f"initial_state must be 'ground' or 'ghz_pair', got {self.initial_state!r}")
        if self.axis not in ("x", "y", "z"):
            raise PlanError(f"axis must be one of x/y/z, got {self.axis!r}")
        if self.grid.n_samples < MIN_SAMPLES:
            raise PlanError(
                f"time_grid.n_samples must be >= {MIN_SAMPLES} for the oscillation analysis, "
                f"got {self.grid.n_samples}"
            )
        for n in self.n_values:
            self.solver.check(n)
        if self.solver.lanczos_k < 2:
            raise PlanError("solver.lanczos_k must be >= 2 (the energy gap needs two pairs)")


@dataclass
class SweepRecord:
    """One executed grid point: all inputs plus the measured diagnostics.

    ``wall_time_s`` is informational only and excluded from the deterministic
    CSV serialization. Rows that share a point (:func:`run_sweep`) are
    computed once: the first of them carries the point's whole time, the
    copies 0.0, so the times still add up to the sweep's row work.
    """

    n_sites: int
    j_coupling: float
    boundary: str
    axis: str
    initial_state: str
    pert_kind: str  # "none" for baseline rows
    pert_strength: float
    pert_axis: str
    pert_distribution: str
    pert_seed: int | None
    solver: str
    ground_energy: float | None = None
    energy_gap: float | None = None
    ghz_gap: float | None = None
    ghz_overlap_plus: float | None = None
    ghz_overlap_minus: float | None = None
    dominant_frequency: float | None = None
    dominant_amplitude: float | None = None
    residual_fraction: float | None = None
    gap_consistent: bool | None = None
    status: str = "ok"
    error: str = ""
    wall_time_s: float = 0.0


SWEEP_COLUMNS = [f.name for f in fields(SweepRecord) if f.name != "wall_time_s"]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def records_to_csv(records: list[SweepRecord]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for rec in records:
        lines.append(",".join(_cell(getattr(rec, col)) for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"


def _enumerate_points(plan: SweepPlan) -> list[tuple[SweepRecord, tuple[PerturbationSpec, ...]]]:
    """Blank records for every grid point, in canonical row order, each with
    the perturbations its Hamiltonian adds to the chain."""
    rows: list[tuple[SweepRecord, tuple[PerturbationSpec, ...]]] = []
    for n in plan.n_values:
        solver = plan.solver.route(n)
        for j in plan.j_values:
            base = SweepRecord(
                n_sites=n,
                j_coupling=j,
                boundary=plan.boundary,
                axis=plan.axis,
                initial_state=plan.initial_state,
                pert_kind="none",
                pert_strength=0.0,
                pert_axis="",
                pert_distribution="",
                pert_seed=None,
                solver=solver,
            )
            rows.append((base, ()))
            for fam in plan.perturbations:
                for spec in fam.specs():
                    cells = {}
                    if spec.kind == "random_onsite_field":
                        cells = {"pert_axis": spec.axis, "pert_distribution": spec.distribution, "pert_seed": spec.seed}
                    rows.append((replace(base, pert_kind=spec.kind, pert_strength=spec.strength, **cells), (spec,)))
    return rows


def basis_state(op: Operator, index: int) -> tuple[StateVector, float | None]:
    """Basis state ``index`` and its energy, or None when it is not an eigenstate."""
    psi = StateVector.basis_state(op.n_sites, index)
    try:
        return psi, eigenstate_energy(op, psi)
    except EigenstateError:
        return psi, None


@dataclass
class PointResult:
    spectrum: SpectrumResult | None  # None for a basis state that needed none
    ghz: GHZReport | None  # of ``spectrum``
    psi: StateVector
    energy: float | None  # E_psi when psi is an eigenstate
    series: dict[str, CorrelationSeries]  # by correlator method, in the order asked
    report: OscillationReport  # of the first series
    gap_consistent: bool | None  # None when the gap check does not apply


def point_spectrum(op: Operator, settings: SolverSettings) -> SpectrumResult:
    """Every eigenpair on the dense route, else the ``lanczos_k`` lowest
    from Lanczos; a TcspinError if fewer converge."""
    if settings.route(op.n_sites) == "dense":
        return dense_spectrum(op)
    spectrum = lanczos_extremal(
        op, k=settings.lanczos_k, tol=settings.lanczos_tol,
        max_iter=settings.lanczos_max_iter, seed=settings.lanczos_seed,
    )
    if spectrum.n_converged < settings.lanczos_k:
        raise TcspinError(f"Lanczos converged {spectrum.n_converged}/{settings.lanczos_k} pairs")
    return spectrum


def run_point(
    op: Operator,
    observable: Operator,
    grid: TimeGrid,
    initial_state: str | int,
    settings: SolverSettings,
    methods: tuple[str, ...],
) -> PointResult:
    """Spectrum -> initial state -> correlators -> oscillation report for one H.

    ``initial_state`` is 'ground', 'ghz_pair' (the normalized sum of the two
    best-GHZ-overlap eigenstates) or a basis index; a basis state takes a
    spectrum only when it is an eigenstate on the dense route. The spectrum
    comes from :func:`point_spectrum`. ``methods`` holds 'spectral' and/or
    'krylov' (:func:`correlator_krylov` for an eigenstate,
    :func:`correlator_krylov_general` otherwise), each the autocorrelator of
    ``observable``. Peaks are checked against the gaps E_n - E_0 only when
    the spectrum is dense and psi is an eigenstate within 1e-8 of E_0: only
    then are those gaps the Lehmann frequencies. Any other state name, or an
    index outside [0, 2^N), is a ValueError.
    """
    if isinstance(initial_state, str) and initial_state not in ("ground", "ghz_pair"):
        raise ValueError(f"initial_state must be 'ground', 'ghz_pair' or a basis index, got {initial_state!r}")
    dense = settings.route(op.n_sites) == "dense"
    spectrum = ghz = None
    if isinstance(initial_state, str):
        spectrum = point_spectrum(op, settings)
        ghz = ghz_overlap_report(spectrum, op.n_sites)
        if initial_state == "ground":
            psi, energy = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        else:
            pair = spectrum.vector(ghz.best_plus_index) + spectrum.vector(ghz.best_minus_index)
            psi, energy = StateVector(op.n_sites, pair).normalized(), None
    else:
        psi, energy = basis_state(op, initial_state)
        if dense and energy is not None:
            spectrum = dense_spectrum(op)

    series: dict[str, CorrelationSeries] = {}
    for method in methods:
        if method == "spectral":
            if spectrum is None:
                raise TcspinError("the spectral correlator needs a dense spectrum and an eigenstate")
            series[method] = correlator_spectral(op, spectrum, observable, psi, grid)
        elif energy is not None:
            series[method] = correlator_krylov(op, observable, psi, energy, grid, step_tol=settings.step_tol)
        else:
            series[method] = correlator_krylov_general(op, observable, psi, grid, step_tol=settings.step_tol)
    report = extract_oscillation(series[methods[0]], max_peaks=settings.max_peaks)
    gap_consistent = None
    if dense and energy is not None and abs(energy - float(spectrum.eigenvalues[0])) <= 1e-8:
        gap_consistent = gap_frequency_consistency(spectrum, report, tol=1e-6)
    return PointResult(spectrum, ghz, psi, energy, series, report, gap_consistent)


def _failure(exc: Exception) -> dict:
    return {"status": "failed", "error": f"{type(exc).__name__}: {exc}"}


def _run_rows(op: Operator, rows: list[SweepRecord], observable: Operator, plan: SweepPlan) -> None:
    """Run the point ``op`` once, correlating ``observable``, and fill every
    row that shares it.

    The first row's ``wall_time_s`` becomes the point's time plus every
    row's operator build time (which the rows carry in); the others get 0.0.
    """
    first = rows[0]
    t0 = time.perf_counter()
    try:
        spectral = first.solver == "dense" and first.initial_state == "ground"
        point = run_point(
            op,
            observable,
            plan.grid,
            first.initial_state,
            plan.solver,
            ("spectral",) if spectral else ("krylov",),
        )
        eigenvalues = point.spectrum.eigenvalues
        result = {
            "ground_energy": float(eigenvalues[0]),
            "energy_gap": float(eigenvalues[1] - eigenvalues[0]),
            "ghz_gap": point.ghz.ghz_gap,
            "ghz_overlap_plus": float(point.ghz.overlap_plus[point.ghz.best_plus_index]),
            "ghz_overlap_minus": float(point.ghz.overlap_minus[point.ghz.best_minus_index]),
            "dominant_frequency": point.report.dominant_frequency,
            "dominant_amplitude": point.report.dominant_amplitude,
            "residual_fraction": point.report.residual_fraction,
            "gap_consistent": point.gap_consistent,
        }
    except Exception as exc:  # per-point failures are recorded, not fatal
        result = _failure(exc)
    elapsed = time.perf_counter() - t0 + sum(row.wall_time_s for row in rows)
    for row in rows:
        vars(row).update(result, wall_time_s=0.0)
    first.wall_time_s = elapsed


def _drain(points: dict) -> Iterator[tuple[Operator, list[SweepRecord], Operator]]:
    """Pop each point as it is handed out, with its observable, so no
    reference to its compiled operator outlives its run.

    Points come in row order, N by N, and consecutive points of one N and
    axis share one observable and its compiled groups; it is dropped when
    the next N begins.
    """
    built = None  # the (N, axis) of ``observable``
    while points:
        op, axis, *_ = key = next(iter(points))
        if built != (op.n_sites, axis):
            built, observable = (op.n_sites, axis), magnetization_operator(op.n_sites, axis)
        yield op, points.pop(key), observable


def run_sweep(plan: SweepPlan, workers: int = 1) -> list[SweepRecord]:
    """Execute every grid point; deterministic output order and values.

    Rows that agree exactly on the canonical Hamiltonian, ``axis``,
    ``initial_state`` and solver route form one point, which runs once and
    fills all of them; a point that raises marks each of its rows failed
    with the same error, as does an operator that fails to build its row.
    The worker pool maps over points. The sweep itself fails only if every
    row fails.
    """
    rows = []
    points: dict[tuple, list[SweepRecord]] = {}
    for row, specs in _enumerate_points(plan):
        rows.append(row)
        t0 = time.perf_counter()
        try:
            cfg = TCModelConfig(n_sites=row.n_sites, j_coupling=row.j_coupling, boundary=row.boundary)
            op = add_perturbations(build_tc_hamiltonian(cfg), specs, row.boundary)
        except Exception as exc:  # per-row failures are recorded, not fatal
            vars(row).update(_failure(exc))
        else:
            points.setdefault((op, row.axis, row.initial_state, row.solver), []).append(row)
        row.wall_time_s = time.perf_counter() - t0
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor  # a 1-worker run never loads it

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda point: _run_rows(*point, plan), _drain(points)))
    else:
        for op, members, observable in _drain(points):
            _run_rows(op, members, observable, plan)
    if rows and all(r.status == "failed" for r in rows):
        raise TcspinError("sweep failed: every row failed; first error: " + rows[0].error)
    return rows


def fit_power_law(points: list[tuple[float, float]]) -> tuple[float, float, float]:
    """Least-squares fit y = prefactor * x^exponent on log-log axes.

    Returns (exponent, prefactor, r_squared). Requires at least 3 strictly
    positive points.
    """
    if len(points) < 3:
        raise ValueError(f"need at least 3 points, got {len(points)}")
    xs = np.array([p[0] for p in points], dtype=float)
    ys = np.array([p[1] for p in points], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("power-law fit requires strictly positive x and y")
    lx = np.log(xs)
    ly = np.log(ys)
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), res, *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res <= 1e-28 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return float(slope), float(math.exp(intercept)), r2


# the oscillator control's correlator is a single line; a few peaks suffice
CONTROL_MAX_PEAKS = 4


def oscillator_control_table(control: OscillatorControl, grid: TimeGrid) -> list[tuple[int, float]]:
    """Oscillator amplitudes measured through the same extraction pipeline."""
    table = []
    for n in control.n_values:
        series = cm_correlator_numeric(control, n, grid)
        report = extract_oscillation(series, max_peaks=CONTROL_MAX_PEAKS)
        table.append((n, report.dominant_amplitude))
    return table


@dataclass
class StabilityRow:
    """A perturbed row normalized against its unperturbed reference."""

    n_sites: int
    j_coupling: float
    pert_kind: str
    pert_strength: float
    pert_seed: int | None
    statistic: str  # "row", "mean" or "std"
    rel_frequency_shift: float
    rel_amplitude_shift: float
    ghz_overlap_retention: float
    ground_gap_shift: float


def _relative(value: float, reference: float) -> float:
    if reference != 0.0:
        return (value - reference) / reference
    return value - reference


SHIFT_COLUMNS = ("rel_frequency_shift", "rel_amplitude_shift", "ghz_overlap_retention", "ground_gap_shift")


def stability_report(records: list[SweepRecord]) -> list[StabilityRow]:
    """Shift table for every perturbed row of a sweep against its unperturbed reference.

    Rows whose reference failed are left out; a reference missing from
    ``records`` is a PlanError. Disorder families additionally get mean and
    sample-std rows per strength.
    """
    references = {(r.n_sites, r.j_coupling): r for r in records if r.pert_kind == "none"}
    rows: list[StabilityRow] = []
    perturbed = [r for r in records if r.pert_kind != "none" and r.status == "ok"]
    for rec in perturbed:
        ref = references.get((rec.n_sites, rec.j_coupling))
        if ref is None:
            raise PlanError(
                f"no unperturbed reference row for N={rec.n_sites}, J={rec.j_coupling}"
            )
        if ref.status != "ok":
            continue
        ref_overlap = (ref.ghz_overlap_plus or 0.0) + (ref.ghz_overlap_minus or 0.0)
        overlap = (rec.ghz_overlap_plus or 0.0) + (rec.ghz_overlap_minus or 0.0)
        rows.append(
            StabilityRow(
                n_sites=rec.n_sites,
                j_coupling=rec.j_coupling,
                pert_kind=rec.pert_kind,
                pert_strength=rec.pert_strength,
                pert_seed=rec.pert_seed,
                statistic="row",
                rel_frequency_shift=_relative(rec.dominant_frequency, ref.dominant_frequency),
                rel_amplitude_shift=_relative(rec.dominant_amplitude, ref.dominant_amplitude),
                ghz_overlap_retention=overlap / ref_overlap if ref_overlap else 0.0,
                ground_gap_shift=rec.energy_gap - ref.energy_gap,
            )
        )
    # aggregate disorder rows (those with seeds) per (N, J, kind, strength)
    groups: dict[tuple, list[StabilityRow]] = {}
    for row in rows:
        if row.pert_seed is not None:
            key = (row.n_sites, row.j_coupling, row.pert_kind, row.pert_strength)
            groups.setdefault(key, []).append(row)
    aggregates = [
        StabilityRow(
            *key,
            pert_seed=None,
            statistic=stat,
            **{col: float(func([getattr(m, col) for m in groups[key]])) for col in SHIFT_COLUMNS},
        )
        for key in sorted(groups)
        for stat, func in (("mean", np.mean), ("std", _sample_std))
    ]
    return rows + aggregates


def _sample_std(values) -> float:
    arr = np.asarray(values, dtype=float)
    if len(arr) < 2:
        return 0.0
    return float(np.std(arr, ddof=1))


def stability_monotonicity_flags(rows: list[StabilityRow]) -> list[dict]:
    """Flag shift magnitudes that fail to grow monotonically with strength.

    A non-monotone sequence is flagged, never failed: at small strengths the
    shifts can legitimately cross through zero. Deterministic perturbations
    contribute their per-row shifts, disorder families their seed means.
    """
    groups: dict[tuple, list[StabilityRow]] = {}
    for r in rows:
        is_deterministic_row = r.statistic == "row" and r.pert_seed is None
        if is_deterministic_row or r.statistic == "mean":
            groups.setdefault((r.n_sites, r.j_coupling, r.pert_kind), []).append(r)
    flags: list[dict] = []
    for key in sorted(groups):
        members = sorted(groups[key], key=lambda r: r.pert_strength)
        if len(members) < 2:
            continue
        for metric in ("rel_frequency_shift", "rel_amplitude_shift", "ground_gap_shift"):
            seq = [abs(getattr(m, metric)) for m in members]
            monotone = all(b >= a - 1e-15 for a, b in zip(seq, seq[1:]))
            flags.append(
                {
                    "n_sites": key[0],
                    "j_coupling": key[1],
                    "kind": key[2],
                    "metric": metric,
                    "strengths": [m.pert_strength for m in members],
                    "monotone_in_strength": monotone,
                }
            )
    return flags


def summarize_sweep(plan: SweepPlan, records: list[SweepRecord]) -> dict:
    """Deterministic JSON-ready summary: amplitude table, fits, stability."""
    ok_baseline = [r for r in records if r.pert_kind == "none" and r.status == "ok"]
    amplitude_table = [
        {
            "n_sites": r.n_sites,
            "j_coupling": r.j_coupling,
            "dominant_frequency": r.dominant_frequency,
            "dominant_amplitude": r.dominant_amplitude,
        }
        for r in ok_baseline
    ]
    summary: dict = {
        "plan": dump(plan),
        "n_rows": len(records),
        "n_failed": sum(1 for r in records if r.status == "failed"),
        "amplitude_vs_n": amplitude_table,
    }
    if plan.oscillator_control is not None:
        table = oscillator_control_table(plan.oscillator_control, plan.grid)
        control: dict = {"amplitudes": [{"n": n, "amplitude": a} for n, a in table]}
        if len(table) >= 3:
            exponent, prefactor, r2 = fit_power_law([(float(n), a) for n, a in table])
            control["fit"] = {"exponent": exponent, "prefactor": prefactor, "r_squared": r2}
        summary["oscillator_control"] = control
    if plan.perturbations:
        stability = stability_report(records=records)
        summary["stability_monotonicity"] = stability_monotonicity_flags(stability)
        renamed = {"pert_kind": "kind", "pert_strength": "strength", "pert_seed": "seed"}
        summary["stability"] = [{renamed.get(k, k): v for k, v in vars(s).items()} for s in stability]
    return summary
