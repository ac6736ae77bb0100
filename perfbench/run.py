"""Benchmark of the ``tcspin sweep`` command on three fixed plans.

Run from the root of a checkout:

    python3 perfbench/run.py --workload persistence --seed 100 --seconds 30 --trace 0

Each plan runs as a closed loop: one ``tcspin sweep`` process at a time,
started again while one more ends less than half a sweep after ``--seconds``
have passed, with one BLAS thread. Every
sweep's ``sweep.csv`` goes through the correctness gate (gate.py). Set-up is
also timed on its own in a few processes that stop at the first row.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced sweep (tracer.py) plus untraced sweeps of the same
plan for the tracing overhead. The last line of standard output is the
result as one JSON object; the lines before it repeat the metrics for
people, with sample counts and the environment fingerprint. ``--save FILE``
also writes the samples and the fingerprint for compare.py.

The program runs from the checkout's ``src``; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from gate import control_exponent_problem, failed_rows, gap_inconsistent_rows, read_rows
from tracer import layer_metrics, metric_units
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_PROBES = 4
LAUNCH_TIMEOUT_S = 150

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB", "ok_frac": "fraction"}


def fingerprint(env: dict[str, str]) -> dict:
    """What the timings and the result bits depend on besides the code."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", ""),
        "blas_version": blas.get("version", ""),
        "blas_config": blas.get("openblas configuration", ""),
        "threads": {k: env.get(k, "") for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
    }


class Runner:
    """Starts sweep processes for one plan and checks their outputs."""

    def __init__(self, root: Path, work: Path, workload: str, seed: int) -> None:
        self.plan = WORKLOADS[workload](seed)
        self.reference = read_rows(HERE / "reference" / f"{workload}.csv")
        self.full_reference = seed == DEFAULT_SEED
        self.root = root
        self.work = work
        self.config = work / "config.json"
        self.config.write_text(json.dumps({"command": "sweep", "plan": self.plan}))
        self.env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(root / "src")}
        self.launches = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.gap_inconsistent = 0
        self.dense_rows = 0

    def launch(self, setup_only: bool = False, trace: bool = False) -> dict:
        """Run one child process; return its marks, timings and output directory."""
        self.launches += 1
        out = self.work / f"run{self.launches}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "child.py"), "--config", str(self.config), "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd.append("--trace")
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=LAUNCH_TIMEOUT_S)
            stderr = proc.stderr
        except subprocess.TimeoutExpired:
            stderr = f"timed out after {LAUNCH_TIMEOUT_S} s"
        marks_path = out / "child.json"
        if not marks_path.is_file():
            return {"out": out, "error": stderr.strip()[-500:] or "child wrote no result"}
        marks = json.loads(marks_path.read_text())
        marks["out"] = out
        if "first_row" in marks:
            marks["setup_s"] = marks["first_row"] - spawned
            marks["sweep_s"] = marks["end"] - marks["first_row"]
        else:
            marks["error"] = stderr.strip()[-500:] or "sweep never reached its first row"
        return marks

    def check(self, result: dict) -> None:
        """Count the sweep's rows and the ones that fail the gate."""
        expected = len(self.reference)
        self.attempted += expected
        csv_path = result["out"] / "sweep.csv"
        if "error" in result or result.get("exit_code") not in (0, 4) or not csv_path.is_file():
            reason = result.get("error") or f"tcspin exited with code {result.get('exit_code')}"
            self.failures += [reason] * expected
            return
        rows = read_rows(csv_path)
        failures = failed_rows(rows, self.reference, self.full_reference)
        self.gap_inconsistent += gap_inconsistent_rows(rows)
        self.dense_rows += sum(1 for row in rows if row.get("solver") == "dense")
        if "oscillator_control" in self.plan:
            summary = json.loads((result["out"] / "sweep_summary.json").read_text())
            problem = control_exponent_problem(summary)
            if problem:
                failures = [problem] * expected
        self.failures += failures


class NoResult(Exception):
    """Nothing was measured, so no result line can be printed."""


def _row_seconds(out: Path) -> list[float]:
    lines = (out / "timings.csv").read_text().splitlines()[1:]
    return [float(line.split(",")[1]) for line in lines if line]


def _another_fits(sweeps: list[dict], deadline: float) -> bool:
    """Whether one more sweep should end less than half a sweep past the deadline.

    This keeps the number of sweeps in a run, and the run's length, the same
    from run to run, also when a sweep takes half the run.
    """
    durations = [r["sweep_s"] + r["setup_s"] for r in sweeps if "sweep_s" in r]
    typical = statistics.median(durations) if durations else 0.0
    return time.monotonic() + typical <= deadline + typical / 2


def measure(runner: Runner, seconds: int, trace: bool) -> tuple[dict, dict[str, list[float]]]:
    """All launches of one benchmark run; returns the metrics and their samples."""
    runner.launch(setup_only=True)  # warm-up: bytecode and page cache, not timed
    probes = [runner.launch(setup_only=True) for _ in range(SETUP_PROBES)]
    deadline = time.monotonic() + seconds
    traced = runner.launch(trace=True) if trace else None
    if traced is not None:
        runner.check(traced)
    sweeps = []
    while not sweeps or _another_fits(sweeps, deadline):
        result = runner.launch()
        runner.check(result)
        sweeps.append(result)
    ok = [r for r in sweeps if "error" not in r]
    if not ok or (traced is not None and "error" in traced):
        raise NoResult("no sweep ran to the end")
    samples = {
        "setup_s": [r["setup_s"] for r in probes + sweeps if "setup_s" in r],
        "sweep_s": [r["sweep_s"] for r in ok],
        "peak_rss_mb": [r["peak_rss_mb"] for r in ok],
    }
    if traced is None:
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "sweep_s": statistics.median(samples["sweep_s"]),
            "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
            "ok_frac": 1.0 - len(runner.failures) / runner.attempted,
        }
        units = END_TO_END_UNITS
    else:
        missing = traced.get("missing", [])
        if missing:
            print(f"not traced (no longer in tcspin): {', '.join(missing)}")
        metrics = layer_metrics(
            traced["spans"],
            runner.plan["time_grid"]["n_samples"],
            _row_seconds(traced["out"]),
            traced["sweep_s"],
            samples["sweep_s"],
        )
        units = metric_units()
    return {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}, samples


def run_workload(root: Path, workload: str, args: argparse.Namespace, save: Path | None) -> dict | None:
    """One benchmark run of one workload; prints its report and returns its result, or None."""
    (root / ".perfbench_out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=root / ".perfbench_out"))
    try:
        runner = Runner(root, work, workload, args.seed)
        metrics, samples = measure(runner, args.seconds, bool(args.trace))
    except NoResult as exc:
        print(f"{workload}: {exc}; first failures: {runner.failures[:3]}", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            work.parent.rmdir()

    env_fp = fingerprint(runner.env)
    scope = ("every row compared with the reference" if runner.full_reference
             else f"non-default seed: only seed-independent checks and rows (reference seed {DEFAULT_SEED})")
    print(f"workload {workload} seed {args.seed}: {scope}")
    print(f"fingerprint {json.dumps(env_fp, sort_keys=True)}")
    for name in ("setup_s", "sweep_s", "peak_rss_mb"):
        values = samples[name]
        print(f"  {name} median {statistics.median(values):.6g} (n={len(values)}, min {min(values):.6g}, "
              f"max {max(values):.6g})")
    failed = len(runner.failures)
    print(f"  failed_frac {failed / runner.attempted:.6g} ({failed} of {runner.attempted} rows)")
    if runner.gap_inconsistent:
        print(f"  known defect: gap_consistent false on {runner.gap_inconsistent} of {runner.dense_rows} dense rows; "
              "only rows that are gap-consistent in the reference count as failed (NOTES.md)")
    for message in runner.failures[:10]:
        print(f"  FAILED {message}")
    for name, metric in metrics.items():
        print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")

    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    if save is not None:
        save.write_text(json.dumps({
            "workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "fingerprint": env_fp, "samples": samples, "result": result,
        }, indent=1, sort_keys=True) + "\n")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="also write samples and fingerprint here, for compare.py; "
                        "with --workload all, one file per workload named <stem>.<workload><suffix>")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path.cwd()
    if not (root / "src" / "tcspin" / "__init__.py").is_file():
        print(f"no tcspin sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    if args.workload != "all":
        result = run_workload(root, args.workload, args, args.save)
        if result is None:
            return 3
        print(json.dumps(result))
        return 0

    # every workload in turn; the result line prefixes each metric with its workload
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        save = None if args.save is None else args.save.with_name(f"{args.save.stem}.{workload}{args.save.suffix}")
        result = run_workload(root, workload, args, save)
        if result is None:
            return 3
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
