"""Per-layer tracing of a tcspin process, done from outside the package.

``Tracer.install`` replaces each target function by a wrapper that records
one span per call: the function, the span that was open when it was called,
and its start and end on the monotonic clock. A module-level function is
replaced in every loaded ``tcspin`` namespace that binds it (``sweep``
imports ``dense_spectrum`` by name, ``to_dense`` is bound in both ``spectra``
and ``dynamics``), and ``Operator.matvec`` is replaced on the class.
``uninstall`` puts the originals back. Spans stay in memory until the caller
writes them out.

Each thread keeps its own stack of open spans, so rows running in the sweep
thread pool nest under their own calls. A span opened on a thread with no
open span takes as parent the innermost open span of the installing thread:
the pool threads are started by ``run_sweep``, which that thread is running.

``layer_metrics`` turns the spans into the per-layer metrics. Every time it
reports is inclusive of the numpy and LAPACK work under that call.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict

# (layer, metric name, module, attribute); "Class.method" wraps on the class
TARGETS = (
    ("models", "build", "tcspin.models", "build_tc_hamiltonian"),
    ("models", "perturbation", "tcspin.models", "build_perturbation"),
    ("models", "magnetization", "tcspin.models", "magnetization_operator"),
    ("pauli", "matvec", "tcspin.pauli", "Operator.matvec"),
    ("pauli", "to_dense", "tcspin.pauli", "to_dense"),
    ("spectra", "dense", "tcspin.spectra", "dense_spectrum"),
    ("spectra", "lanczos", "tcspin.spectra", "lanczos_extremal"),
    ("spectra", "ghz_report", "tcspin.spectra", "ghz_overlap_report"),
    ("dynamics", "spectral", "tcspin.dynamics", "correlator_spectral"),
    ("dynamics", "krylov", "tcspin.dynamics", "correlator_krylov"),
    ("dynamics", "extract", "tcspin.dynamics", "extract_oscillation"),
    ("dynamics", "gap_check", "tcspin.dynamics", "gap_frequency_consistency"),
    ("oscillator", "control", "tcspin.oscillator", "cm_correlator_numeric"),
    ("sweep", "run", "tcspin.sweep", "run_sweep"),
    ("sweep", "summarize", "tcspin.sweep", "summarize_sweep"),
    ("sweep", "stability", "tcspin.sweep", "stability_report"),
    ("cli", "main", "tcspin.cli", "main"),
    ("cli", "cmd_sweep", "tcspin.cli", "cmd_sweep"),
)

NAMES = tuple(f"{layer}.{name}" for layer, name, _, _ in TARGETS)


def _matvec_work(args) -> int:
    """Terms times amplitudes of one ``Operator.matvec(amps)`` call."""
    op = args[0]
    return op.n_terms << op.n_sites


class Tracer:
    def __init__(self) -> None:
        # span: (id, target index, parent id or -1, start ns, end ns, work)
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.missing: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._owner_stack if threading.get_ident() == self._owner else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        try:
            return self._owner_stack[-1]
        except IndexError:
            return -1

    def _wrap(self, index: int, fn, work=None):
        spans, ids, now = self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            span_id = next(ids)
            stack.append(span_id)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                end = now()
                stack.pop()
                spans.append((span_id, index, parent, start, end, work(args) if work else 0))

        return functools.wraps(fn)(traced)

    def install(self) -> "Tracer":
        namespaces = [m for name, m in list(sys.modules.items()) if name == "tcspin" or name.startswith("tcspin.")]
        for index, (_, _, module_name, attr) in enumerate(TARGETS):
            module = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = getattr(owner, "__dict__", {}).get(method)
                if original is None:
                    self.missing.append(NAMES[index])
                    continue
                self._replace(owner, method, self._wrap(index, original, _matvec_work))
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(NAMES[index])
                continue
            wrapped = self._wrap(index, original)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._replace(namespace, key, wrapped)
        return self

    def _replace(self, holder, key: str, wrapped) -> None:
        self._restore.append((holder, key, getattr(holder, "__dict__")[key]))
        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _under(spans, ancestor: int, descendant: int) -> int:
    """Number of ``descendant`` spans with an ``ancestor`` span above them."""
    by_id = {s[0]: s for s in spans}
    count = 0
    for s in spans:
        if s[1] != descendant:
            continue
        parent = s[2]
        while parent in by_id:
            if by_id[parent][1] == ancestor:
                count += 1
                break
            parent = by_id[parent][2]
    return count


PER_LAYER_EXTRA = {
    "pauli.matvec_ns_per_term_amp": "ns",
    "spectra.dense_matvecs": "count",
    "spectra.lanczos_matvecs": "count",
    "dynamics.krylov_matvecs": "count",
    "dynamics.krylov_matvecs_per_sample": "count",
    "sweep.self_s": "s",
    "sweep.rows": "count",
    "sweep.row_s_max": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {}
    for name in NAMES:
        units[f"{name}_calls"] = "count"
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


def layer_metrics(
    spans: list, n_samples: int, row_seconds: list[float], traced_s: float, untraced_s: list[float]
) -> dict[str, float]:
    """Per-layer metrics of one traced sweep.

    ``row_seconds`` are the row wall times of its ``timings.csv``;
    ``untraced_s`` the sweep times of the same plan run without tracing.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in spans:
        if s[2] >= 0:
            children[s[2]].append((s[3], s[4]))
    calls = [0] * len(NAMES)
    inclusive = [0] * len(NAMES)
    self_ns = [0] * len(NAMES)
    work = [0] * len(NAMES)
    for span_id, index, _, start, end, amount in spans:
        calls[index] += 1
        inclusive[index] += end - start
        self_ns[index] += end - start - _covered(children.get(span_id, []), start, end)
        work[index] += amount

    out: dict[str, float] = {}
    for i, name in enumerate(NAMES):
        out[f"{name}_calls"] = calls[i]
        out[f"{name}_s"] = inclusive[i] / 1e9
        out[f"{name}_self_s"] = self_ns[i] / 1e9
    idx = {name: i for i, name in enumerate(NAMES)}
    matvec = idx["pauli.matvec"]
    out["pauli.matvec_ns_per_term_amp"] = inclusive[matvec] / work[matvec] if work[matvec] else 0.0
    out["spectra.dense_matvecs"] = _under(spans, idx["spectra.dense"], matvec)
    out["spectra.lanczos_matvecs"] = _under(spans, idx["spectra.lanczos"], matvec)
    krylov_matvecs = _under(spans, idx["dynamics.krylov"], matvec)
    out["dynamics.krylov_matvecs"] = krylov_matvecs
    krylov_samples = calls[idx["dynamics.krylov"]] * n_samples
    out["dynamics.krylov_matvecs_per_sample"] = krylov_matvecs / krylov_samples if krylov_samples else 0.0
    out["sweep.self_s"] = sum(self_ns[i] for i, n in enumerate(NAMES) if n.startswith("sweep.")) / 1e9
    out["sweep.rows"] = len(row_seconds)
    out["sweep.row_s_max"] = max(row_seconds, default=0.0)
    out["cli.self_s"] = sum(self_ns[i] for i, n in enumerate(NAMES) if n.startswith("cli.")) / 1e9
    out["trace.overhead_s"] = traced_s - statistics.median(untraced_s) if untraced_s else 0.0
    return out
