"""JSON-config command line front end with reproducible, plot-ready outputs.

Subcommands: spectrum, correlate, baseline, sweep, validate. Every run
embeds the resolved configuration and its SHA-256 hash in each output file,
so a rerun with an equal hash produces byte-identical payloads. Configs are
strict: unknown keys are rejected. Wall-clock timings go to a sidecar file
that is excluded from the determinism contract.

Exit codes: 0 success, 2 config/validation error, 3 numerical failure,
4 partial sweep (some rows failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import TimeGrid
from .errors import ConfigError, TcspinError
from .models import (
    PerturbationSpec,
    TCModelConfig,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from .oscillator import OscillatorConfig, baseline_scaling, cm_correlator_analytic, cm_correlator_numeric
from .pauli import Operator, dense_cap
from .spectra import dense_spectrum, ghz_overlap_report, lanczos_extremal
from .sweep import (
    SolverSettings,
    SweepPlan,
    basis_state,
    fit_power_law,
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
# strict config reading

def _check_keys(section: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}; allowed: {sorted(allowed)}")
    missing = sorted(required - set(section))
    if missing:
        raise ConfigError(f"missing required key(s) {missing} in {where}")


def _read_time_grid(section: dict, where: str) -> TimeGrid:
    _check_keys(section, {"t_start", "t_end", "n_samples"}, {"t_start", "t_end", "n_samples"}, where)
    try:
        return TimeGrid.from_dict(section)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _read_model(section: dict, where: str) -> Operator:
    """A model is either the built-in chain or an explicit Pauli-term list."""
    kind = section.get("type", "tc")
    if kind == "tc":
        _check_keys(section, {"type", "n_sites", "j_coupling", "boundary"}, {"n_sites", "j_coupling"}, where)
        cfg = TCModelConfig.from_dict(section)
        return build_tc_hamiltonian(cfg)
    if kind == "pauli_terms":
        _check_keys(section, {"type", "n_sites", "terms"}, {"n_sites", "terms"}, where)
        op = Operator.from_json(json.dumps(section["terms"]), n_sites=int(section["n_sites"]))
        return op.canonicalize()
    raise ConfigError(f"{where}.type must be 'tc' or 'pauli_terms', got {kind!r}")


def _read_perturbations(entries, n_sites: int, boundary: str, where: str) -> Operator | None:
    if not entries:
        return None
    combined: Operator | None = None
    for i, entry in enumerate(entries):
        _check_keys(
            entry,
            {"kind", "strength", "axis", "seed", "distribution"},
            {"kind", "strength"},
            f"{where}[{i}]",
        )
        spec = PerturbationSpec.from_dict(entry)
        op = build_perturbation(n_sites, spec, boundary)
        combined = op if combined is None else combined + op
    return combined


def _read_observable(section: dict, n_sites: int, where: str) -> Operator:
    kind = section.get("type", "magnetization")
    if kind == "magnetization":
        _check_keys(section, {"type", "axis"}, {"axis"}, where)
        axis = section["axis"]
        if axis not in ("x", "y", "z"):
            raise ConfigError(f"{where}.axis must be x/y/z, got {axis!r}")
        return magnetization_operator(n_sites, axis)
    if kind == "pauli_terms":
        _check_keys(section, {"type", "terms"}, {"terms"}, where)
        return Operator.from_json(json.dumps(section["terms"]), n_sites=n_sites)
    raise ConfigError(f"{where}.type must be 'magnetization' or 'pauli_terms', got {kind!r}")


def _resolve_config(raw: dict, command: str) -> dict:
    """Validate the document for ``command`` and fill in defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    stated = raw.get("command")
    if stated is not None and stated != command:
        raise ConfigError(f"config declares command {stated!r} but {command!r} was invoked")
    resolved = dict(raw)
    resolved["command"] = command
    if command == "spectrum":
        _check_keys(resolved, {"command", "model", "perturbations", "solver", "output"}, {"model", "solver"}, "config")
        solver = dict(resolved["solver"])
        _check_keys(solver, {"method", "k", "tol", "max_iter", "seed"}, {"method"}, "config.solver")
        solver.setdefault("k", 4)
        solver.setdefault("tol", 1e-10)
        solver.setdefault("max_iter", 40000)
        solver.setdefault("seed", 0)
        if solver["method"] not in ("dense", "lanczos"):
            raise ConfigError(f"config.solver.method must be 'dense' or 'lanczos', got {solver['method']!r}")
        resolved["solver"] = solver
        resolved.setdefault("perturbations", [])
        output = dict(resolved.get("output", {}))
        _check_keys(output, {"include_eigenvectors"}, set(), "config.output")
        output.setdefault("include_eigenvectors", False)
        resolved["output"] = output
        model = _read_model(resolved["model"], "config.model")
        if solver["method"] == "lanczos" and solver["k"] > (1 << model.n_sites):
            raise ConfigError(
                f"config.solver.k={solver['k']} exceeds the Hilbert-space dimension {1 << model.n_sites}"
            )
        if solver["method"] == "dense" and model.n_sites > dense_cap():
            raise ConfigError(f"dense solver at N={model.n_sites} exceeds the dense cap {dense_cap()}")
    elif command == "correlate":
        _check_keys(
            resolved,
            {"command", "model", "perturbations", "observable", "initial_state", "time_grid", "solver", "oscillation"},
            {"model", "observable", "initial_state", "time_grid", "solver"},
            "config",
        )
        solver = dict(resolved["solver"])
        _check_keys(
            solver,
            {"method", "krylov_dim", "step_tol", "lanczos_k", "lanczos_tol", "lanczos_max_iter", "lanczos_seed"},
            {"method"},
            "config.solver",
        )
        if solver["method"] not in ("spectral", "krylov", "both"):
            raise ConfigError(
                f"config.solver.method must be 'spectral', 'krylov' or 'both', got {solver['method']!r}"
            )
        solver.setdefault("krylov_dim", 30)
        solver.setdefault("step_tol", 1e-10)
        solver.setdefault("lanczos_k", 4)
        solver.setdefault("lanczos_tol", 1e-10)
        solver.setdefault("lanczos_max_iter", 40000)
        solver.setdefault("lanczos_seed", 0)
        resolved["solver"] = solver
        resolved.setdefault("perturbations", [])
        state = dict(resolved["initial_state"])
        _check_keys(state, {"type", "index"}, {"type"}, "config.initial_state")
        if state["type"] not in ("ground", "ghz_pair", "basis"):
            raise ConfigError(
                f"config.initial_state.type must be 'ground', 'ghz_pair' or 'basis', got {state['type']!r}"
            )
        if state["type"] == "basis" and "index" not in state:
            raise ConfigError("config.initial_state.index required for type 'basis'")
        if state["type"] == "ghz_pair" and solver["method"] in ("spectral", "both"):
            raise ConfigError(
                "the spectral route needs an eigenstate initial state; "
                "use solver.method 'krylov' with initial_state 'ghz_pair'"
            )
        resolved["initial_state"] = state
        osc = dict(resolved.get("oscillation", {}))
        _check_keys(osc, {"max_peaks"}, set(), "config.oscillation")
        osc.setdefault("max_peaks", 8)
        resolved["oscillation"] = osc
        _read_time_grid(resolved["time_grid"], "config.time_grid")
        model = _read_model(resolved["model"], "config.model")
        if solver["method"] in ("spectral", "both") and model.n_sites > dense_cap():
            raise ConfigError(
                f"the spectral route at N={model.n_sites} exceeds the dense cap {dense_cap()}; "
                "use solver.method 'krylov'"
            )
        if state["type"] == "basis":
            index = state["index"]
            if not isinstance(index, int) or not 0 <= index < (1 << model.n_sites):
                raise ConfigError(
                    f"config.initial_state.index must be an integer in [0, {1 << model.n_sites}), got {index!r}"
                )
            if solver["method"] in ("spectral", "both") and basis_state(_build_operator(resolved), index)[1] is None:
                raise ConfigError(
                    f"the spectral route needs an eigenstate initial state and basis state {index} "
                    "is not one; use solver.method 'krylov'"
                )
    elif command == "baseline":
        _check_keys(resolved, {"command", "oscillator", "time_grid"}, {"oscillator", "time_grid"}, "config")
        osc = dict(resolved["oscillator"])
        _check_keys(osc, {"n_values", "m0", "omega", "hbar", "cutoff"}, {"n_values"}, "config.oscillator")
        osc.setdefault("m0", 1.0)
        osc.setdefault("omega", 1.0)
        osc.setdefault("hbar", 1.0)
        osc.setdefault("cutoff", 2)
        if not osc["n_values"]:
            raise ConfigError("config.oscillator.n_values must be non-empty")
        if len(set(osc["n_values"])) != len(osc["n_values"]):
            raise ConfigError("config.oscillator.n_values contains duplicates")
        if osc["cutoff"] < 2:
            raise ConfigError(f"config.oscillator.cutoff must be >= 2, got {osc['cutoff']}")
        resolved["oscillator"] = osc
        _read_time_grid(resolved["time_grid"], "config.time_grid")
    elif command == "sweep":
        _check_keys(resolved, {"command", "plan"}, {"plan"}, "config")
        try:
            plan = SweepPlan.from_dict(resolved["plan"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"config.plan: {exc}") from exc
        resolved["plan"] = plan.to_dict()
    else:
        raise ConfigError(f"unknown command {command!r}")
    return resolved


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

def _build_operator(resolved: dict) -> Operator:
    op = _read_model(resolved["model"], "config.model")
    pert = _read_perturbations(
        resolved.get("perturbations", []),
        op.n_sites,
        resolved["model"].get("boundary", "periodic"),
        "config.perturbations",
    )
    if pert is not None:
        op = (op + pert).canonicalize()
    return op


def cmd_spectrum(resolved: dict, out_dir: Path) -> int:
    op = _build_operator(resolved)
    solver = resolved["solver"]
    if solver["method"] == "dense":
        spectrum = dense_spectrum(op)
    else:
        spectrum = lanczos_extremal(
            op, k=solver["k"], tol=solver["tol"], max_iter=solver["max_iter"], seed=solver["seed"]
        )
        if spectrum.n_converged < solver["k"]:
            log.error(
                "Lanczos converged only %d of %d pairs", spectrum.n_converged, solver["k"]
            )
            return EXIT_NUMERICAL
    ghz = ghz_overlap_report(spectrum, op.n_sites)
    _write_json(
        out_dir / "spectrum.json",
        resolved,
        {"spectrum": json.loads(spectrum.to_json(include_vectors=resolved["output"]["include_eigenvectors"]))},
    )
    _write_json(out_dir / "ghz_report.json", resolved, {"ghz_report": json.loads(ghz.to_json())})
    log.info("wrote spectrum.json and ghz_report.json to %s", out_dir)
    return EXIT_OK


def cmd_correlate(resolved: dict, out_dir: Path) -> int:
    op = _build_operator(resolved)
    solver = dict(resolved["solver"])
    method = solver.pop("method")
    settings = SolverSettings(
        dense_max_sites=dense_cap(), max_peaks=resolved["oscillation"]["max_peaks"], **solver
    )
    state = resolved["initial_state"]
    methods = ("spectral", "krylov") if method == "both" else (method,)
    point = run_point(
        op,
        _read_observable(resolved["observable"], op.n_sites, "config.observable"),
        _read_time_grid(resolved["time_grid"], "config.time_grid"),
        state["index"] if state["type"] == "basis" else state["type"],
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


def cmd_baseline(resolved: dict, out_dir: Path) -> int:
    osc = resolved["oscillator"]
    grid = _read_time_grid(resolved["time_grid"], "config.time_grid")
    n_values = [int(n) for n in osc["n_values"]]
    base = OscillatorConfig(n_particles=n_values[0], m0=osc["m0"], omega=osc["omega"], hbar=osc["hbar"])
    scaling = baseline_scaling(base, n_values)
    max_diffs = {}
    for n in n_values:
        cfg = OscillatorConfig(n_particles=n, m0=osc["m0"], omega=osc["omega"], hbar=osc["hbar"])
        analytic = cm_correlator_analytic(cfg, grid)
        numeric = cm_correlator_numeric(cfg, osc["cutoff"], grid)
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


def cmd_sweep(resolved: dict, out_dir: Path, workers: int) -> int:
    plan = SweepPlan.from_dict(resolved["plan"])
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
    if args.config is not None:
        text = Path(args.config).read_text()
    elif command == "validate":
        text = sys.stdin.read()
    else:
        raise ConfigError(f"--config is required for the {command} command")
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
        raw = _load_config(args, args.command)
        if args.command == "validate":
            command = raw.get("command")
            if command not in ("spectrum", "correlate", "baseline", "sweep"):
                raise ConfigError(
                    "validate needs a config with a 'command' key naming one of "
                    "spectrum/correlate/baseline/sweep"
                )
            resolved = _resolve_config(raw, command)
            print(f"ok {config_hash(resolved)}")
            return EXIT_OK
        resolved = _resolve_config(raw, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "spectrum":
            return cmd_spectrum(resolved, out_dir)
        if args.command == "correlate":
            return cmd_correlate(resolved, out_dir)
        if args.command == "baseline":
            return cmd_baseline(resolved, out_dir)
        return cmd_sweep(resolved, out_dir, workers=args.workers)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (TcspinError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
