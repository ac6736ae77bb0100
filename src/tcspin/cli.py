"""JSON-config command line front end with reproducible, plot-ready outputs.

Subcommands: spectrum, correlate, baseline, sweep, validate. Every run
embeds the resolved configuration and its SHA-256 hash in each output file,
so a rerun with an equal hash produces byte-identical payloads. Configs are
strict at every depth: unknown keys and mistyped or out-of-range values are
rejected before anything runs, and the resolved config has every default
filled in. Wall-clock timings go to a sidecar file that is excluded from the
determinism contract.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 partial sweep (some rows failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal

import numpy as np

from . import __version__
from .dynamics import MIN_SAMPLES, TimeGrid
from .errors import ConfigError, TcspinError
from .models import (
    Axis,
    PerturbationSpec,
    TCModelConfig,
    add_perturbations,
    build_tc_hamiltonian,
    magnetization_operator,
)
from .oscillator import OscillatorControl, baseline_scaling, cm_correlator_analytic, cm_correlator_numeric
from .pauli import Operator, PauliString, dense_cap
from .schema import dump, read
from .spectra import ghz_overlap_report
from .sweep import (
    SolverSettings,
    SweepPlan,
    basis_state,
    check_lanczos_keys,
    fit_power_law,
    point_spectrum,
    records_to_csv,
    run_point,
    run_sweep,
    summarize_sweep,
)

log = logging.getLogger("tcspin")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_PARTIAL = 4


# ---------------------------------------------------------------------------
# config schema: one frozen dataclass per section, read and written by
# tcspin.schema; the sweep plan's sections live in tcspin.sweep

@dataclass(frozen=True)
class PauliTerm:
    """``{"coeff": [re, im], "letters": "..."}``, letters site 1 first."""

    coeff: tuple[float, ...]
    letters: str

    def __post_init__(self) -> None:
        if len(self.coeff) != 2:
            raise ValueError(f"coeff must be [re, im], got {list(self.coeff)}")
        self.string()  # rejects unknown letters

    def string(self) -> PauliString:
        return PauliString.from_letters(self.letters, complex(*self.coeff))


@dataclass(frozen=True)
class PauliTermsModel:
    n_sites: int
    terms: tuple[PauliTerm, ...]

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be >= 1, got {self.n_sites}")


@dataclass(frozen=True)
class Magnetization:
    axis: Axis


@dataclass(frozen=True)
class PauliTermsObservable:
    terms: tuple[PauliTerm, ...]


MODELS = {"tc": TCModelConfig, "pauli_terms": PauliTermsModel}
OBSERVABLES = {"magnetization": Magnetization, "pauli_terms": PauliTermsObservable}


@dataclass(frozen=True)
class SpectrumSolver:
    method: Literal["dense", "lanczos"]
    lanczos_k: int = 4
    lanczos_tol: float = 1e-10
    lanczos_max_iter: int = 40000
    lanczos_seed: int = 0

    def __post_init__(self) -> None:
        check_lanczos_keys(self)


@dataclass(frozen=True)
class CorrelateSolver:
    method: Literal["spectral", "krylov", "both"]
    krylov_dim: int = 30  # accepted and ignored until ROADMAP item 1a drops it, as in SolverSettings
    step_tol: float = 1e-10
    lanczos_k: int = 4
    lanczos_tol: float = 1e-10
    lanczos_max_iter: int = 40000
    lanczos_seed: int = 0

    def __post_init__(self) -> None:
        check_lanczos_keys(self)
        if not self.step_tol > 0:
            raise ValueError(f"step_tol must be > 0, got {self.step_tol}")


@dataclass(frozen=True)
class InitialState:
    type: Literal["ground", "ghz_pair", "basis"]
    index: int | None = None

    def __post_init__(self) -> None:
        if (self.type == "basis") != (self.index is not None):
            raise ValueError("index is required for type 'basis' and allowed only there")


@dataclass(frozen=True)
class Oscillation:
    max_peaks: int = 8

    def __post_init__(self) -> None:
        if self.max_peaks < 1:
            raise ValueError(f"max_peaks must be >= 1, got {self.max_peaks}")


@dataclass(frozen=True)
class SpectrumOutput:
    include_eigenvectors: bool = False


@dataclass(frozen=True)
class SpectrumConfig:
    model: TCModelConfig | PauliTermsModel = field(metadata={"tags": MODELS})
    solver: SpectrumSolver
    perturbations: tuple[PerturbationSpec, ...] = ()
    output: SpectrumOutput = field(default_factory=SpectrumOutput)


@dataclass(frozen=True)
class CorrelateConfig:
    model: TCModelConfig | PauliTermsModel = field(metadata={"tags": MODELS})
    observable: Magnetization | PauliTermsObservable = field(metadata={"tags": OBSERVABLES})
    initial_state: InitialState
    time_grid: TimeGrid
    solver: CorrelateSolver
    perturbations: tuple[PerturbationSpec, ...] = ()
    oscillation: Oscillation = field(default_factory=Oscillation)

    def __post_init__(self) -> None:
        if self.time_grid.n_samples < MIN_SAMPLES:
            raise ValueError(
                f"time_grid.n_samples must be >= {MIN_SAMPLES} for the oscillation analysis, "
                f"got {self.time_grid.n_samples}"
            )


@dataclass(frozen=True)
class BaselineConfig:
    oscillator: OscillatorControl
    time_grid: TimeGrid


@dataclass(frozen=True)
class SweepConfig:
    plan: SweepPlan


SCHEMAS = {"spectrum": SpectrumConfig, "correlate": CorrelateConfig, "baseline": BaselineConfig, "sweep": SweepConfig}


def _terms_operator(terms: tuple[PauliTerm, ...], n_sites: int, where: str) -> Operator:
    for i, term in enumerate(terms):
        if len(term.letters) != n_sites:
            raise ConfigError(f"{where}.terms[{i}] has {len(term.letters)} letters for {n_sites} sites")
    return Operator(n_sites, tuple(term.string() for term in terms))


def _hamiltonian(cfg: SpectrumConfig | CorrelateConfig) -> Operator:
    model = cfg.model
    if isinstance(model, TCModelConfig):
        op, boundary = build_tc_hamiltonian(model), model.boundary
    else:
        op, boundary = _terms_operator(model.terms, model.n_sites, "config.model").canonicalize(), "periodic"
    return add_perturbations(op, cfg.perturbations, boundary)


def _observable(cfg: CorrelateConfig, n_sites: int) -> Operator:
    if isinstance(cfg.observable, Magnetization):
        return magnetization_operator(n_sites, cfg.observable.axis)
    return _terms_operator(cfg.observable.terms, n_sites, "config.observable")


def _resolve_config(raw, command: str):
    """The ``command`` config read from ``raw``, its normalized JSON form,
    and the one SolverSettings, Hamiltonian and observable of a ``spectrum``
    or ``correlate`` run (each None where the command has none), built once.

    Sections are checked on their own while they are read; the checks that
    span sections (Hermitian H and A, :meth:`SolverSettings.check`, the
    basis index, the spectral route's need for an eigenstate) follow here.
    Every command but ``baseline`` reads ``TCSPIN_DENSE_CAP`` first, so a
    malformed value is a config error before anything runs. ``correlate``
    routes its point by that cap, so its normalized form records it as
    ``"dense_cap"``; a ``correlate`` config may state it, as any config may
    state its ``command``, and must then state the cap in force.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    stated = raw.get("command", command)
    if stated != command:
        raise ConfigError(f"config declares command {stated!r} but {command!r} was invoked")
    cap = None if command == "baseline" else dense_cap()
    declared = {"command"}
    if command == "correlate":
        declared.add("dense_cap")
        stated_cap = raw.get("dense_cap", cap)
        if type(stated_cap) is not int or stated_cap != cap:
            raise ConfigError(f"config declares dense_cap {stated_cap!r} but TCSPIN_DENSE_CAP gives {cap}")
    cfg = read(SCHEMAS[command], {k: v for k, v in raw.items() if k not in declared}, "config")
    settings = op = observable = None
    if command in ("spectrum", "correlate"):
        op = _hamiltonian(cfg)
        if not op.is_hermitian():
            raise ConfigError("the Hamiltonian (model plus perturbations) is not Hermitian: a term has a complex weight")
        n = op.n_sites
        solver = dump(cfg.solver)
        method = solver.pop("method")
        if command == "spectrum":  # the method names the route
            settings = SolverSettings(dense_max_sites=n if method == "dense" else 0, **solver)
        else:  # the cap routes a correlate point
            settings = SolverSettings(dense_max_sites=cap, max_peaks=cfg.oscillation.max_peaks, **solver)
        if command == "spectrum" or cfg.initial_state.type != "basis":  # a basis state past the cap takes no spectrum
            settings.check(n)
    if command == "correlate":
        observable = _observable(cfg, n)
        if not observable.is_hermitian():
            raise ConfigError("the observable is not Hermitian: a term has a complex weight")
        spectral = cfg.solver.method in ("spectral", "both")
        state = cfg.initial_state
        if state.type == "basis" and not 0 <= state.index < (1 << n):
            raise ConfigError(f"config.initial_state.index must be in [0, {1 << n}), got {state.index}")
        if spectral and settings.route(n) != "dense":
            raise ConfigError(
                f"the spectral route at N={n} exceeds the dense cap {cap}; "
                "use solver.method 'krylov'"
            )
        if spectral and state.type != "ground" and (state.type == "ghz_pair" or basis_state(op, state.index)[1] is None):
            raise ConfigError(
                f"the spectral route needs an eigenstate initial state and {dump(state)} is not one; "
                "use solver.method 'krylov'"
            )
    resolved = {"command": command, **dump(cfg)}
    if command == "correlate":
        resolved["dense_cap"] = cap
    return cfg, resolved, settings, op, observable


def config_hash(resolved: dict) -> str:
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ---------------------------------------------------------------------------
# output helpers

def _write_json(path: Path, resolved: dict, payload: dict) -> None:
    doc = {
        "artifact_version": __version__,
        "config_hash": config_hash(resolved),
        "config": resolved,
        **payload,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, resolved: dict, body: str) -> None:
    header = f"# artifact_version={__version__} config_hash={config_hash(resolved)}\n"
    path.write_text(header + body)


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(cfg: SpectrumConfig, settings: SolverSettings, op: Operator, resolved: dict, out_dir: Path) -> int:
    spectrum = point_spectrum(op, settings)
    ghz = ghz_overlap_report(spectrum, op.n_sites)
    _write_json(
        out_dir / "spectrum.json",
        resolved,
        {"spectrum": json.loads(spectrum.to_json(include_vectors=cfg.output.include_eigenvectors))},
    )
    _write_json(out_dir / "ghz_report.json", resolved, {"ghz_report": json.loads(ghz.to_json())})
    log.info("wrote spectrum.json and ghz_report.json to %s", out_dir)
    return EXIT_OK


def cmd_correlate(
    cfg: CorrelateConfig, settings: SolverSettings, op: Operator, observable: Operator, resolved: dict, out_dir: Path
) -> int:
    method = cfg.solver.method
    state = cfg.initial_state
    methods = ("spectral", "krylov") if method == "both" else (method,)
    point = run_point(
        op,
        observable,
        cfg.time_grid,
        state.index if state.type == "basis" else state.type,
        settings,
        methods,
    )
    primary = point.series[methods[0]]
    payload: dict = {"oscillation": json.loads(point.report.to_json()), "method": primary.method}
    if method == "both":
        payload["cross_method_max_abs_diff"] = float(
            np.max(np.abs(point.series["spectral"].values - point.series["krylov"].values))
        )
    if point.gap_consistent is not None:
        payload["gap_frequency_consistent"] = point.gap_consistent

    _write_csv(out_dir / "correlation.csv", resolved, primary.to_csv())
    if method == "both":
        _write_csv(out_dir / "correlation_krylov.csv", resolved, point.series["krylov"].to_csv())
    _write_json(out_dir / "oscillation.json", resolved, payload)
    log.info("wrote correlation.csv and oscillation.json to %s", out_dir)
    return EXIT_OK


def cmd_baseline(cfg: BaselineConfig, resolved: dict, out_dir: Path) -> int:
    control, grid = cfg.oscillator, cfg.time_grid
    scaling = baseline_scaling(control)
    max_diffs = {}
    for n in control.n_values:
        analytic = cm_correlator_analytic(control, n, grid)
        numeric = cm_correlator_numeric(control, n, grid)
        max_diffs[n] = float(np.max(np.abs(analytic.values - numeric.values)))
        _write_csv(out_dir / f"baseline_analytic_N{n}.csv", resolved, analytic.to_csv())
        _write_csv(out_dir / f"baseline_numeric_N{n}.csv", resolved, numeric.to_csv())
    payload: dict = {
        "scaling": [{"n": n, "amplitude": a} for n, a in scaling],
        "max_abs_diff_numeric_vs_analytic": {str(n): d for n, d in max_diffs.items()},
    }
    if len(scaling) >= 3:
        exponent, prefactor, r2 = fit_power_law([(float(n), a) for n, a in scaling])
        payload["fit"] = {"exponent": exponent, "prefactor": prefactor, "r_squared": r2}
    _write_json(out_dir / "baseline_summary.json", resolved, payload)
    log.info("wrote baseline series and baseline_summary.json to %s", out_dir)
    return EXIT_OK


def cmd_sweep(cfg: SweepConfig, resolved: dict, out_dir: Path, workers: int) -> int:
    plan = cfg.plan
    records = run_sweep(plan, workers=workers)
    summary = summarize_sweep(plan, records)
    _write_csv(out_dir / "sweep.csv", resolved, records_to_csv(records))
    _write_json(out_dir / "sweep_summary.json", resolved, {"summary": summary})
    # wall times are not part of the deterministic outputs
    timing_lines = ["row_index,wall_time_s"]
    timing_lines += [f"{i},{rec.wall_time_s:.6f}" for i, rec in enumerate(records)]
    (out_dir / "timings.csv").write_text("\n".join(timing_lines) + "\n")
    n_failed = sum(1 for r in records if r.status == "failed")
    log.info("wrote sweep.csv and sweep_summary.json to %s (%d rows, %d failed)", out_dir, len(records), n_failed)
    return EXIT_PARTIAL if n_failed else EXIT_OK


# ---------------------------------------------------------------------------

def _load_config(args: argparse.Namespace, command: str) -> dict:
    if args.config is None and command != "validate":
        raise ConfigError(f"--config is required for the {command} command")
    try:
        text = sys.stdin.read() if args.config is None else Path(args.config).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read the config: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcspin",
        description="Spin-chain spectra, correlators and scaling sweeps from JSON configs.",
        epilog="The TCSPIN_DENSE_CAP environment variable overrides the dense-matrix site cap.",
    )
    parser.add_argument("command", choices=["spectrum", "correlate", "baseline", "sweep", "validate"])
    parser.add_argument("--config", type=str, default=None, help="path to the JSON run config")
    parser.add_argument("--out", type=str, default=".", help="output directory (created if missing)")
    parser.add_argument("--workers", type=int, default=1, help="worker pool size for sweep rows")
    parser.add_argument(
        "--log-level", choices=["error", "warn", "info", "debug"], default="warn"
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    level = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=level[args.log_level], format="%(levelname)s %(name)s: %(message)s")

    try:
        if args.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {args.workers}")
        raw = _load_config(args, args.command)
        if args.command == "validate":
            command = raw.get("command") if isinstance(raw, dict) else None
            if command not in SCHEMAS:
                raise ConfigError(
                    "validate needs a config with a 'command' key naming one of "
                    "spectrum/correlate/baseline/sweep"
                )
            resolved = _resolve_config(raw, command)[1]
            print(f"ok {config_hash(resolved)}")
            return EXIT_OK
        cfg, resolved, settings, op, observable = _resolve_config(raw, args.command)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # e.g. --out names a file
            raise ConfigError(f"cannot create --out {args.out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        if args.command == "spectrum":
            return cmd_spectrum(cfg, settings, op, resolved, out_dir)
        if args.command == "correlate":
            return cmd_correlate(cfg, settings, op, observable, resolved, out_dir)
        if args.command == "baseline":
            return cmd_baseline(cfg, resolved, out_dir)
        return cmd_sweep(cfg, resolved, out_dir, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TcspinError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
