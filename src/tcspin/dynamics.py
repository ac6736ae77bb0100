"""Two-time correlation functions and oscillation-content analysis.

Correlators are autocorrelators of one Hermitian observable A,
C(t) = <psi| A(t) A |psi> with A(t) = e^{iHt} A e^{-iHt} and hbar = 1, so
every frequency is an energy gap. Independent routes are provided: an exact
spectral (Lehmann) summation over the dense eigenbasis, and two matrix-free
routes for sizes the dense path cannot reach. An eigenstate correlator
(:func:`correlator_krylov`) is a Gauss rule from one short Lanczos run on
A psi, stopped by an a-posteriori bound and capped a priori, run only on
the invariant sectors of H (:attr:`~tcspin.pauli.Operator.sectors`) that
carry A psi; the parts it leaves out and the rule share one error budget.
The correlator of an arbitrary state
(:func:`correlator_krylov_general`) propagates full vectors by Lanczos
windows: short runs that each serve as much of the time path as their
a-posteriori bound allows, and restart where they stop. Both kinds of run
take their steps and checks from one loop (:func:`_krylov_checks`), and
their a-priori bounds from one closed-form Chebyshev tail (:func:`_tail_order`).
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EigenstateError, ModelError
from .pauli import Operator, StateVector, apply_groups, gershgorin_interval, to_dense  # noqa: F401  (perfbench's tracer patches to_dense here)
from .spectra import EPS, SpectrumResult, _lanczos_step, _next_check

log = logging.getLogger(__name__)
_KRYLOV_RECORD = "krylov correlator: %d amplitudes kept, %d Lanczos steps (cap %d), bound %.3g, dropped %.3g"
_GENERAL_RECORD = "krylov general correlator: %d windows, %d Lanczos steps, window bound %.3g, trajectory bound %.3g of %.3g"

EIGENSTATE_RESIDUAL_TOL = 1e-8

# The fewest samples extract_oscillation analyzes.
MIN_SAMPLES = 16

# Power fractions below this are treated as exhausted when hunting peaks.
_POWER_FLOOR = 1e-26

# The largest extent n_samples * max(|t_start|, |t_end|) of a TimeGrid. The
# Newton sums of _spectrum_objective reach 4 n^2 t^2 r^2, r^2 the mean power
# of the samples they weigh: a least-squares residual plus at most one fitted
# line, so r <= 2a for a series of peak modulus a. With the oscillator
# control's a^2 <= 2^800 (oscillator._POWER_CAP) that is at most 2^1004,
# 2^20 below float64 overflow; a chain's correlator is far smaller.
_EXTENT_CAP = 2.0**100


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples in units of inverse energy (hbar = 1)."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end)):
            raise ValueError(f"need finite times, got [{self.t_start}, {self.t_end}]")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")
        extent = self.n_samples * max(abs(self.t_start), abs(self.t_end))
        if not extent <= _EXTENT_CAP:  # which also keeps the span t_end - t_start finite
            raise ValueError(
                f"n_samples * max(|t_start|, |t_end|) must be at most 2^100 for the extraction's sums to stay "
                f"finite, got {extent:.3g}"
            )

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)


@dataclass
class CorrelationSeries:
    """Complex C(t) on a uniform grid, tagged with how it was produced."""

    grid: TimeGrid
    values: np.ndarray
    method: str = ""

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n_samples,):
            raise DimensionError(
                f"series has {vals.shape} values for a grid of {self.grid.n_samples}"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise ValueError("correlation values must be finite")
        self.values = vals

    def to_csv(self) -> str:
        """Columns t, re, im; shortest round-trip float text."""
        lines = ["t,re,im"]
        for t, v in zip(self.grid.times(), self.values):
            lines.append(f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}")
        return "\n".join(lines) + "\n"


@dataclass
class OscillationReport:
    """Dominant oscillation peaks of a complex time series.

    Frequencies are folded to be non-negative; amplitudes are peak moduli.
    ``residual_fraction`` is the power left after removing the dc component
    and the reported peaks, as a fraction of the dc-removed total.
    """

    frequencies: np.ndarray
    amplitudes: np.ndarray
    dc_component: complex
    residual_fraction: float

    @property
    def n_peaks(self) -> int:
        return len(self.frequencies)

    @property
    def dominant_frequency(self) -> float:
        return float(self.frequencies[0]) if self.n_peaks else 0.0

    @property
    def dominant_amplitude(self) -> float:
        return float(self.amplitudes[0]) if self.n_peaks else 0.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "frequencies": [float(f) for f in self.frequencies],
                "amplitudes": [float(a) for a in self.amplitudes],
                "dc_component": [self.dc_component.real, self.dc_component.imag],
                "residual_fraction": self.residual_fraction,
            }
        )


def _check_operands(op: Operator, psi: StateVector, a: Operator | None = None, hermitian: bool = True) -> None:
    """DimensionError unless psi and the observable ``a`` act on op's sites,
    then ModelError for a non-Hermitian ``a`` (the correlators read
    <psi|A as (A psi)^dag), and for a non-Hermitian op when ``hermitian``:
    e^{-iHt} is then not unitary, and every bound of this module assumes it is."""
    if a is not None and a.n_sites != op.n_sites:
        raise DimensionError("A and H must act on the same number of sites")
    if psi.n_sites != op.n_sites:
        raise DimensionError("state and operators act on different site counts")
    if a is not None and not a.is_hermitian():
        raise ModelError("the observable A must be Hermitian")
    if hermitian and not op.is_hermitian():
        raise ModelError("time evolution requires a Hermitian operator")


def eigenstate_energy(op: Operator, psi: StateVector, energy: float | None = None) -> float:
    """``energy``, by default <psi|H|psi>, once ||H psi - energy psi|| <=
    EIGENSTATE_RESIDUAL_TOL (one matvec); EigenstateError otherwise."""
    h_psi = op.matvec(psi.amplitudes)
    if energy is None:
        energy = float(np.vdot(psi.amplitudes, h_psi).real)
    resid = np.linalg.norm(h_psi - energy * psi.amplitudes)
    if resid > EIGENSTATE_RESIDUAL_TOL:
        raise EigenstateError(
            f"state is not an eigenstate at energy {energy}: residual {resid:.3e} > {EIGENSTATE_RESIDUAL_TOL:.1e}"
        )
    return energy


def correlator_spectral(
    op: Operator,
    spectrum: SpectrumResult,
    a: Operator,
    psi: StateVector,
    grid: TimeGrid,
) -> CorrelationSeries:
    """Exact Lehmann summation over the full dense spectrum of ``op``.

    C(t) = sum_n |<n|A|psi>|^2 e^{-i (E_n - E_psi) t}, with E_n and |n>
    read from ``spectrum`` (a :class:`~tcspin.spectra.SpectrumResult` holding
    every eigenpair of ``op``, as :func:`~tcspin.spectra.dense_spectrum`
    returns it). The sum runs only over the pairs whose block meets A psi,
    the others having weight zero: for m_z on the chain's ground state, the
    4 levels of its block. psi must be an eigenstate of ``op`` (checked by
    residual); E_psi = <psi|H|psi> and that residual share one matvec. The
    Hermiticity of ``op`` is left to the solver of ``spectrum``
    (:func:`~tcspin.spectra.dense_spectrum` checks it); a non-Hermitian
    ``a`` raises ModelError.
    """
    _check_operands(op, psi, a, hermitian=False)
    if spectrum.n_sites != op.n_sites or spectrum.n_pairs != 1 << op.n_sites:
        raise DimensionError("the spectral route needs every eigenpair of H")
    e_psi = eigenstate_energy(op, psi)

    # a pair outside the blocks that A psi meets has weight 0
    pairs, amps = spectrum.overlaps(a.matvec(psi.amplitudes))  # <psi|A|n>
    weights = amps * amps.conj()
    gaps = spectrum.eigenvalues[pairs] - e_psi
    times = grid.times()
    values = np.zeros(len(times), dtype=np.complex128)
    # chunk the eigenstate sum to bound the phase-matrix size
    chunk = 2048
    for lo in range(0, len(gaps), chunk):
        hi = min(lo + chunk, len(gaps))
        phases = np.exp(-1j * np.outer(gaps[lo:hi], times))
        values += weights[lo:hi] @ phases
    return CorrelationSeries(grid=grid, values=values, method="spectral")


def _tail_order(z: float, scale: float, budget: float) -> int:
    """The smallest K > z with 2 scale sum_{k>K} (z/2)^k / k! <= budget, z >= 0:
    cutting e^{-izx} = sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(x) after K errs
    by at most 2 sum_{k>K} |J_k(z)| on [-1, 1], |J_k(z)| <= (z/2)^k / k! (A&S
    9.1.62), and past z that sum is under its first term / (1 - z / (2K + 4))."""

    def meets(k: int) -> bool:
        tail = (k + 1) * math.log(0.5 * z) - math.lgamma(k + 2) - math.log1p(-z / (2.0 * (k + 2))) if z else -math.inf
        return tail <= math.log(budget / (2.0 * scale))

    lo = hi = int(z) + 1
    while not meets(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # meets(hi), and not meets(lo)
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if meets(mid) else (mid, hi)
    return hi


def _check_step_tol(step_tol: float) -> None:
    if not step_tol > 0.0:  # also rejects NaN, which no bound is ever under
        raise ValueError(f"step_tol must be positive, got {step_tol}")


def _krylov_checks(matvec, phi: np.ndarray, norm: float, h_norm: float, rounding: float, eta: float, cap: int, after=_next_check):
    """The module's one Lanczos loop: at most ``cap`` steps of
    :func:`~tcspin.spectra._lanczos_step` from q_1 = phi / ``norm`` (=
    ||phi|| > 0), orthogonal to ``eta`` (``h_norm`` bounds ||H||), give H Q_m
    = Q_m T_m + beta_m q_{m+1} e_m^T + F_m, a column of F_m at most
    ``rounding`` plus what a Gram-Schmidt pass took out. At m = 1 and each
    m' = ``after(m)`` from there (by default 4, 8, ...:
    :func:`~tcspin.spectra._next_check`), at the cap and at a breakdown
    (beta_m <= 1e-13 h) it yields (Q_m as rows, T_m, T_m's eigenpairs,
    beta_m, a squared bound on ||F_m||, whether the run is over)."""
    dim = len(phi)
    # the first step reads H phi / ||phi||, which rounds unlike H (phi / ||phi||)
    h_q, beta, again = matvec(phi) / norm, 0.0, False
    # the basis, T and the overlaps grow by doubling: memory follows m, not the cap
    basis = np.empty((min(cap, 64), dim), dtype=h_q.dtype)
    basis[0] = phi / norm
    small, omega = np.zeros((2, len(basis), len(basis)))
    omega[0, 0] = 1.0
    defect = 0.0
    check = 1
    for j in range(cap):
        w, beta, w_omega, again, unpassed = _lanczos_step(
            matvec, basis, small, omega, j, 0, beta, basis[:0], eta, h_norm, again, h_q
        )
        h_q = None
        removed = 0.0 if unpassed is w else float(np.linalg.norm(unpassed - w))
        defect += (rounding + removed) ** 2
        m = j + 1
        last = m == cap or beta <= 1e-13 * h_norm
        if m == check or last:
            check = after(m)
            yield basis[:m], small[:m, :m], *np.linalg.eigh(small[:m, :m]), beta, defect, last
            if last:
                return
        if m == len(basis):
            grow = min(m, cap - m)
            basis = np.concatenate([basis, np.empty((grow, dim), dtype=basis.dtype)])
            small, omega = (np.pad(x, (0, grow)) for x in (small, omega))
        np.divide(w, beta, out=basis[m])
        small[j, m] = small[m, j] = beta
        omega[m, :m] = omega[:m, m] = w_omega
        omega[m, m] = 1.0


_PANEL_TOL = 1e-32  # the most a unit of time adds to _served's quadrature

# A window's cap: the last check within the basis's first 64 rows, and the fastest
# window of 40 ... 127 steps on the Heisenberg ghz_pair rows (CHANGES.md)
_WINDOW_STEPS = 63

# The most phase a step between two stops of a trajectory spans (times its spread)
_PANEL_Z = 8.0


@functools.cache
def _legendre(z: float) -> tuple[np.ndarray, np.ndarray]:  # numpy.polynomial is imported on first use
    return np.polynomial.legendre.leggauss(_tail_order(z, 2.0, _PANEL_TOL) // 2 + 1)


def _served(check: tuple, stops, rate: float) -> tuple[float, tuple | None]:
    """(bound, stop): the last of ``stops`` (tuples (tau, length, ...), tau
    non-decreasing) up to which a check of :func:`_krylov_checks` keeps
    beta_m sqrt(tau int_0^tau |g|^2) + tau (||F_m|| + ||T_m - U Theta U^T||)
    within ``rate`` times the length, and that bound there (stop None if
    the first misses). The sinc sum of :func:`_gauss_rule` loses int_0^tau
    |g|^2 below EPS tau to cancellation; Gauss-Legendre of |g| + (m + 1) EPS
    on each step of length h between stops does not. Its order is fixed by
    z = (theta_m - theta_1) h / 2 rounded up to a quarter (at most
    :data:`_PANEL_Z` on the steps of :func:`_stops`), and it errs by at most
    4 h times the Chebyshev tail past 2K - 1 at z (:func:`_tail_order`): h
    _PANEL_TOL."""
    _, matrix, nodes, vectors, beta, defect, _ = check
    c = vectors[0] * vectors[-1]
    drift = math.sqrt(defect) + float(np.linalg.norm(matrix - (vectors * nodes) @ vectors.T))
    spread = float(nodes[-1] - nodes[0])
    energy, lower, bound, last = 0.0, 0.0, 0.0, None
    for stop in stops:
        upper, length = stop[:2]
        if (h := upper - lower) > 0.0:
            x, w = _legendre(math.ceil(2.0 * spread * h) / 4.0)
            g = np.abs(np.exp(-1j * np.outer(lower + 0.5 * h * (1.0 + x), nodes)) @ c) + (len(nodes) + 1) * EPS
            energy += 0.5 * h * float(w @ (g * g)) + h * _PANEL_TOL
            lower = upper
        at = beta * math.sqrt(upper * energy) + upper * drift
        if at > rate * length:
            break
        bound, last = at, stop
    return bound, last


def _stops(start: float, times: np.ndarray, stride: float):
    """(reach, length, u, times reached) at each stop u of the path start ->
    times[0] -> times[1] ...: every time, and stops between at most
    ``stride`` apart. The length is the path's up to u, the reach the
    largest |u' - start| on it."""
    here, reach, length = start, 0.0, 0.0
    for j, t in enumerate(times.tolist()):
        pieces = math.ceil(abs(t - here) / stride)
        for i in range(1, pieces):
            u = here + (t - here) * (i / pieces)
            yield max(reach, abs(u - start)), length + abs(u - here), u, j
        reach, length, here = max(reach, abs(t - start)), length + abs(t - here), t
        yield reach, length, t, j + 1


def _trajectory(op: Operator, v: np.ndarray, times: np.ndarray, budget: float, tally: Counter):
    """Yields e^{-iHt} v at each t of ``times`` (ascending) from Lanczos
    windows (Park & Light, J. Chem. Phys. 85, 5870 (1986); Hochbruck &
    Lubich, SIAM J. Numer. Anal. 34, 1911 (1997)), within ``budget`` ||v||.

    It walks the path 0 -> t_0 -> t_1 ... by the stops of :func:`_stops`,
    at most :data:`_PANEL_Z` / a apart (a H's Gershgorin half width). A
    window of :func:`_krylov_checks` from v(s), the vector at the current
    stop s, serves each later stop u whose error, at most ||v(s)|| (beta_m
    int_0^|u - s| |g| + |u - s| ||F_m||) (Duhamel as in :func:`_gauss_rule`,
    with no inner product; :func:`_served`), stays within the budget's share
    of the path from s to u (e^{-iHt} is unitary, so errors add); eta =
    min(sqrt(EPS), budget per unit length / h) keeps the passes' part of F_m
    about within it. A window ends at the first check that serves every
    time left, at a breakdown or after :data:`_WINDOW_STEPS` steps; it
    yields ||v(s)|| Q_m e^{-iT_m (t - s)} e_1 at the times it served
    (e^{-i alpha (t - s)} v(s) at m = 1), and the next starts from the last
    stop it served. Where round-off keeps the bound over the share at the
    first stop, the window serves the stops that its m steps serve in exact
    arithmetic (at least the first), as m steps err by at most 2 ||v|| times
    the best degree m - 1 approximation of e^{-ix tau} on the spectrum
    (Saad, SIAM J. Numer. Anal. 29, 209 (1992)), and its bound stays the
    a-posteriori one. ``tally`` gains the windows, steps, largest window
    bound and their sum.
    """
    lo, hi = op.gershgorin_interval()
    h_norm, half_width = max(abs(lo), abs(hi)), 0.5 * (hi - lo) * (1.0 + 1e-4)
    rounding = (len(op._groups) + 3) * EPS * h_norm
    path = abs(times[0]) + (times[-1] - times[0])
    rate = budget / path if path else math.inf
    eta = min(math.sqrt(EPS), rate / h_norm) if h_norm else math.sqrt(EPS)
    stride = _PANEL_Z / half_width if half_width else math.inf
    start, k, covered = 0.0, 0, math.inf
    while k < len(times):
        if times[k] == start:
            yield v
            k += 1
            continue
        norm = float(np.linalg.norm(v))
        if norm == 0.0:  # e^{-iHt} 0 = 0
            yield from (v for _ in times[k:])
            return
        cap = min(_WINDOW_STEPS, len(v))
        # a window short of the path left checks only at m = 1 and its cap
        after = _next_check if abs(times[k] - start) + (times[-1] - times[k]) <= covered else lambda m: cap
        for check in _krylov_checks(op.matvec, v, norm, h_norm, rounding, eta, cap, after):
            bound, stop = _served(check, _stops(start, times[k:], stride), rate)
            if stop and stop[3] == len(times) - k:
                break
        basis, _, nodes, vectors, _, _, _ = check
        if stop is None:
            exact = itertools.takewhile(
                lambda s: _tail_order(half_width * s[0], 2.0, rate * s[1]) < len(nodes), _stops(start, times[k:], stride)
            )
            bound, stop = _served(check, list(exact) or itertools.islice(_stops(start, times[k:], stride), 1), math.inf)
        tally.update(windows=1, steps=len(nodes), bound=bound)
        tally["largest"] = max(tally["largest"], bound)
        (u, served), first = stop[2:], v
        offsets = times[k:k + served] - start
        if not served or u != times[k + served - 1]:  # a stop between two times
            offsets = np.append(offsets, u - start)
        for j, tau in enumerate(offsets):
            if len(nodes) == 1:
                v = np.exp(-1j * nodes[0] * tau) * first
            else:
                v = (norm * vectors @ (np.exp(-1j * nodes * tau) * vectors[0])) @ basis
            if j < served:
                yield v
        start, k, covered = u, k + served, stop[1]


def _warn_past(bound: float, budget: float) -> None:
    if bound > budget:
        log.warning("round-off puts the Lanczos trajectory's error bound %.3g past its budget %.3g", bound, budget)


def _gauss_rule(groups, phi: np.ndarray, interval, rounding: float, t_max: float, budget: float):
    """Nodes theta_j and weights w_j, <phi|e^{-iHt}|phi> ~ sum_j w_j
    e^{-i theta_j t} within ``budget`` for |t| <= ``t_max``, from a Lanczos
    run on phi (:func:`_krylov_checks`); returns (nodes, weights, steps m,
    the cap on m, the bound). H is ``groups``, ``interval`` encloses H's
    spectrum (||H|| <= h = max |interval|), and ``rounding`` = (G + 3) EPS h
    bounds the rounding of a step of G groups and 3 subtractions (and a
    node's phase over t_max). T_m's eigenpairs (theta_j, u_j) are an m-node
    Gauss rule (Golub & Meurant, Matrices, Moments and Quadrature, 2010):
    weights ||phi||^2 u_1j^2 > 0 summing to ||phi||^2, exact to degree 2m - 1.

    A posteriori, Duhamel on both sides (Saad, SIAM J. Numer. Anal. 29, 209
    (1992)). With u(t) = e^{-iHt} q_1 and v(t) = Q_m e^{-iT_m t} e_1, v' =
    -iHv + i beta_m g(t) q_{m+1}, g = e_m^T e^{-iT_m t} e_1, so ||u - v|| <=
    eps(t) = beta_m int_0^|t| |g| (|g(-t)| = |g(t)|, T_m real). The rule's
    error q_1^H (u - v)(t) = -i beta_m int_0^t g(s) (u(s - t) - v(s -
    t))^H q_{m+1} ds, as q_{m+1} is orthogonal to Q_m, is at most ||phi||^2
    eps(t)^2, and eps(t_max) serves every sample. With g = sum_j c_j e^{-i
    theta_j t}, c_j = u_mj u_1j, Cauchy-Schwarz gives int_0^t |g| <= sqrt(t
    int_0^t |g|^2) = sqrt(t sum_jk c_j c_k sin(D_jk t) / D_jk), D_jk =
    theta_j - theta_k: m^2 sines, no time samples.

    Round-off: F_m joins that relation and the basis is orthonormal only to
    eta = min(sqrt(EPS), budget / (||phi||^2 h t_max)), which adds ||phi||^2
    (1 + eps) rho, rho = sqrt(m) eta + t_max ||F_m||; sqrt(m) eta bounds
    ||Q_m^H q_1 - e_1|| and ||Q_m^H q_{m+1}||. The run stops at the first
    check with ||phi||^2 (eps^2 + (1 + eps) rho) <= ``budget``. At m = 1, eps
    = t_max ||(H - alpha) phi|| / ||phi||: an eigenvector costs one matvec.

    A priori, the rule errs by at most 2 ||phi||^2 times the best uniform
    approximation of e^{-ixt} of degree 2m - 1 on the spectrum: m is capped
    where 2m - 1 reaches :func:`_tail_order` for budget / 2 at z = a t_max,
    within ``budget`` in exact arithmetic (reported if smaller). A
    breakdown stops the run, its beta_m in eps.
    """
    h_norm = max(abs(interval[0]), abs(interval[1]))
    scale = float(np.vdot(phi, phi).real)
    half_width = 0.5 * (interval[1] - interval[0]) * (1.0 + 1e-4)  # of the Chebyshev window, padded
    cap = min(_tail_order(half_width * t_max, scale, 0.5 * budget) // 2 + 1, len(phi))
    eta = min(math.sqrt(EPS), budget / (scale * h_norm * t_max)) if h_norm else math.sqrt(EPS)
    run = _krylov_checks(functools.partial(apply_groups, groups), phi, math.sqrt(scale), h_norm, rounding, eta, cap)
    for _, _, nodes, vectors, beta, defect, _ in run:
        c = vectors[0] * vectors[-1]
        energy = t_max * float(c @ np.sinc(np.subtract.outer(nodes, nodes) * (t_max / math.pi)) @ c)
        eps_m = beta * math.sqrt(t_max * max(energy, 0.0))
        rho = math.sqrt(len(nodes)) * eta + t_max * math.sqrt(defect)
        bound = scale * (eps_m * eps_m + (1.0 + eps_m) * rho)
        if bound <= budget:
            break
    if len(nodes) == cap:
        bound = min(bound, budget)
    return nodes, scale * vectors[0] ** 2, len(nodes), cap, bound


def _drop_light(mass: np.ndarray, allowance: float) -> tuple[np.ndarray, float]:
    """(indices kept, ascending; the mass dropped): the rows of ``mass`` are
    dropped in ascending order (ties by index) while their sum stays <=
    ``allowance``. Sums need only the sorted values of the masses that can
    go; an argsort only picks among them when some stay."""
    light = mass <= allowance
    dropped = np.cumsum(np.sort(mass[light]))
    n_dropped = int(np.searchsorted(dropped, allowance, side="right"))
    if n_dropped == len(dropped):
        return np.flatnonzero(~light), float(dropped[-1]) if n_dropped else 0.0
    by_mass = np.flatnonzero(light)
    by_mass = by_mass[np.argsort(mass[by_mass], kind="stable")]
    return np.delete(np.arange(len(mass)), by_mass[:n_dropped]), float(dropped[n_dropped - 1])


def correlator_krylov(
    op: Operator,
    a: Operator,
    psi: StateVector,
    e_psi: float,
    grid: TimeGrid,
    step_tol: float = 1e-10,
) -> CorrelationSeries:
    """C(t) = e^{+i E_psi t} <psi| A e^{-iHt} A |psi> from a Lanczos quadrature.

    The workhorse for sizes beyond the dense cap. With phi = A psi (A is
    Hermitian, so <psi|A = phi^dag), C(t) = e^{i E_psi t} <phi|e^{-iHt}|phi>
    ~ sum_j w_j e^{-i (theta_j - E_psi) t}, the Gauss rule of
    :func:`_gauss_rule` from m Lanczos steps on phi (Gagliano & Balseiro,
    Phys. Rev. Lett. 59, 2999 (1987)): m matvecs and m x n_samples
    exponentials serve every sample; a phi in a few eigenvectors takes a few.

    The error of every sample is bounded by B = (n_samples - 1) *
    ``step_tol``, spent in two parts:

    * d, on the parts left out. H is block diagonal on its invariant
      sectors (:attr:`~tcspin.pauli.Operator.sectors`): the cosets of its
      flip masks, or, where the global flip P = X...X lies in their span
      and commutes with H (the bare, Heisenberg and x-field chains), the
      two P halves of each coset. So e^{-iHt} is too, and a sector moves
      every C(t) by at most the squared norm of phi's coordinates there
      (:meth:`~tcspin.pauli.Operator.coordinates`; on a P half, (a + p b) /
      sqrt(2), with a and b phi on the coset's representatives and on their
      P partners). Those masses are dropped in ascending order while their
      sum d stays <= B / 2 (all of them when phi = 0: the series is then 0
      with no matvec past it). The rest runs on the kept sectors stacked
      into one flat vector, with H cut to them
      (:meth:`~tcspin.pauli.FlipSpan.cut`) and its spectrum enclosed by the
      Gershgorin interval of their rows alone: for m_z on the z-field
      chain's ground state that is one coset of 4 states; m_z flips P, so
      on the N = 12 Heisenberg chain it is one P half of 1024 states. When
      nothing folds and nothing is dropped, the run is on the full vectors
      and H's own compiled groups. :func:`correlator_krylov_general` does
      not cut.
    * B - d, on the kept part: the quadrature stops at the bound of
      :func:`_gauss_rule` <= B - d, or at its a-priori cap. Its first check
      is at m = 1, one matvec: if phi is an eigenvector to within B - d
      (Duhamel), C(t) = <phi|phi> e^{i (E_psi - alpha) t} with alpha =
      <phi|H|phi> / <phi|phi>, as for m_z on the bare chain.

    Each call logs one ``info`` record: the kept length, the steps m, the
    a-priori cap on m (also when m = 1), the bound on the kept part and d.
    When psi has no imaginary part and H and A are real, the basis stays
    float64.

    Raises ModelError for a non-Hermitian ``op`` or ``a``.
    """
    _check_step_tol(step_tol)
    _check_operands(op, psi, a)
    eigenstate_energy(op, psi, e_psi)

    amps = psi.amplitudes if psi.amplitudes.imag.any() else psi.amplitudes.real
    phi = a.matvec(amps)
    times = grid.times()
    t_max = float(np.max(np.abs(times)))
    budget = (grid.n_samples - 1) * step_tol
    rows, parities = op.sectors
    coordinates = op.coordinates(phi)
    kept, dropped = _drop_light(np.linalg.norm(coordinates, axis=1) ** 2, 0.5 * budget)
    if not len(kept):
        log.info(_KRYLOV_RECORD, 0, 0, 0, 0.0, dropped)
        return CorrelationSeries(grid=grid, values=np.zeros(len(times)), method="krylov")
    if parities is None and len(kept) == len(rows):
        groups = op._groups  # the whole space in natural order: nothing is copied
    else:
        groups = op.flip_span.cut(op._groups, rows[kept], None if parities is None else parities[kept])
        phi = coordinates[kept].ravel()
    budget -= dropped
    interval = gershgorin_interval(groups)
    rounding = (len(groups) + 3) * EPS * max(abs(interval[0]), abs(interval[1]))
    nodes, weights, steps, cap, bound = _gauss_rule(groups, phi, interval, rounding, t_max, budget)
    values = weights @ np.exp(-1j * np.outer(nodes - e_psi, times))
    log.info(_KRYLOV_RECORD, len(phi), steps, cap, bound, dropped)
    return CorrelationSeries(grid=grid, values=values, method="krylov")


def correlator_krylov_general(
    op: Operator,
    a: Operator,
    psi: StateVector,
    grid: TimeGrid,
    step_tol: float = 1e-10,
) -> CorrelationSeries:
    """C(t) = <psi(t)| A |chi(t)> with chi = A psi, for an arbitrary state.

    Two trajectories lift the eigenstate requirement of
    :func:`correlator_krylov` (e.g. for a superposition of the two GHZ-like
    eigenstates), each by Lanczos windows on the full vectors
    (:func:`_trajectory`) within half the budget B = (n_samples - 1) *
    ``step_tol`` relative to its norm, so |Delta C| <= B ||A|| ||psi|| ||A
    psi|| to first order. A state in a few eigenvectors, such as a
    ``ghz_pair`` of the bare chain (a coset of 4), takes one window. Each call
    logs one ``info`` record: the windows and Lanczos steps (H matvecs) of
    both, the largest window bound, and the larger trajectory bound with B /
    2, and a warning where round-off puts that bound past B / 2. Raises
    ModelError for a non-Hermitian ``op`` or ``a``.
    """
    _check_step_tol(step_tol)
    _check_operands(op, psi, a)
    half, tallies = 0.5 * (grid.n_samples - 1) * step_tol, (Counter(), Counter())
    top = _trajectory(op, psi.amplitudes, grid.times(), half, tallies[0])
    chi = _trajectory(op, a.matvec(psi.amplitudes), grid.times(), half, tallies[1])
    values = [np.vdot(a.matvec(x), y) for x, y in zip(top, chi)]
    log.info(_GENERAL_RECORD, *(sum(x[key] for x in tallies) for key in ("windows", "steps")),
             max(x["largest"] for x in tallies), max(x["bound"] for x in tallies), half)
    _warn_past(max(x["bound"] for x in tallies), half)
    return CorrelationSeries(grid=grid, values=values, method="krylov_general")


def _spectrum_objective(times: np.ndarray, moments: np.ndarray, resid: np.ndarray, omega: float, phase=None):
    """|G|^2 and its first two derivatives, G(w) = sum_k resid_k e^{-i w t_k}.

    ``moments`` is the (3, n) matrix of rows 1, -i t and -t^2, so one
    product gives G and its first two derivatives. ``phase``, when given,
    is e^{-i w t_k} already formed. The scalar arithmetic is on Python
    complex numbers, bit for bit that of numpy scalars and cheaper.
    """
    if phase is None:
        phase = np.exp(-1j * omega * times)
    g, g1, g2 = (moments @ (resid * phase)).tolist()
    f1 = 2.0 * (g.conjugate() * g1).real
    f2 = 2.0 * (abs(g1) ** 2 + (g.conjugate() * g2).real)
    return g, f1, f2


def _refine_frequency(
    times: np.ndarray, moments: np.ndarray, resid: np.ndarray, omega0: float, half_width: float, phase0=None
) -> float:
    """Newton refinement of a spectral peak, clamped to +/- half_width.

    ``phase0``, when given, is e^{-i omega0 t_k}, the phase of the first
    evaluation: the cyclic re-refinement passes the conjugate of the design
    column that :func:`_joint_solve` formed at omega0.
    """
    omega, phase = omega0, phase0
    for _ in range(60):
        _, f1, f2 = _spectrum_objective(times, moments, resid, omega, phase)
        phase = None
        if f2 >= 0.0:
            break
        step = -f1 / f2
        if abs(step) > half_width:
            step = math.copysign(half_width, step)
        omega += step
        if abs(omega - omega0) > 2.0 * half_width:
            omega = omega0
            break
        if abs(step) < 1e-15 * max(1.0, abs(omega)):
            break
    return omega


def _coarse_peak(work: np.ndarray, dt: float, bin_width: float) -> float:
    """FFT peak location with quadratic interpolation over the peak bin."""
    n = len(work)
    f = np.fft.fft(work)
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    mags = np.abs(f)
    k = int(np.argmax(mags))
    y0, y1, y2 = mags[(k - 1) % n], mags[k], mags[(k + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    # model work(t) ~ A e^{+i w t}: the FFT convention puts that at +freqs[k]
    return float(freqs[k]) + delta * bin_width


def _joint_solve(
    times: np.ndarray, values: np.ndarray, omegas: list[float]
) -> tuple[complex, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares dc + amplitudes for fixed frequencies.

    Returns dc, the amplitudes, the residual, and the design's frequency
    columns: column j is e^{i omegas[j] t}, written once into a
    preallocated design, for the caller to reuse instead of forming again.
    The design is C-ordered, as column_stack made it: a Fortran-ordered one
    changes the bits of ``design @ solution``.
    """
    design = np.empty((len(times), 1 + len(omegas)), dtype=np.complex128)
    design[:, 0] = 1.0
    for j, w in enumerate(omegas, start=1):
        np.exp(1j * w * times, out=design[:, j])
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ solution
    return complex(solution[0]), solution[1:], resid, design[:, 1:]


def extract_oscillation(series: CorrelationSeries, max_peaks: int = 8) -> OscillationReport:
    """Dominant complex-exponential content of a correlation series.

    Matching pursuit on the discrete spectrum: FFT peak location, quadratic
    interpolation, Newton refinement of each frequency, with the dc offset
    kept as a fixed zero-frequency column of a joint least-squares solve
    (subtracting the naive time average first would bias the frequencies on
    grids that do not cover an integer number of periods). Frequencies are
    folded to non-negative values, amplitudes reported as moduli.
    """
    n = series.grid.n_samples
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples to analyze, got {n}")
    values = series.values
    times = series.grid.times()
    dc = complex(np.mean(values))
    scale = float(np.max(np.abs(values))) if len(values) else 0.0
    total_power = float(np.mean(np.abs(values - dc) ** 2))
    if scale == 0.0 or total_power <= (1e-13 * scale) ** 2:
        return OscillationReport(
            frequencies=np.array([]), amplitudes=np.array([]), dc_component=dc,
            residual_fraction=0.0,
        )

    dt = series.grid.spacing
    bin_width = 2.0 * math.pi / (n * dt)
    amp_floor = 1e-9 * scale
    omegas: list[float] = []
    amps = np.array([], dtype=np.complex128)
    moments = np.array([np.ones_like(times), -1j * times, -(times**2)])  # of _spectrum_objective
    work = values - dc
    for _ in range(max_peaks):
        if float(np.mean(np.abs(work) ** 2)) <= max(_POWER_FLOOR * total_power, (3e-10 * scale) ** 2):
            break
        omega0 = _coarse_peak(work, dt, bin_width)
        omegas.append(_refine_frequency(times, moments, work, omega0, bin_width))
        # cyclic re-refinement: Newton each frequency against the residual
        # plus its own component, re-solving dc and amplitudes jointly;
        # iterate until the fit stops improving (overlapping peaks converge
        # only linearly in each other's frequency error)
        dc, amps, work, columns = _joint_solve(times, values, omegas)
        last_power = float(np.mean(np.abs(work) ** 2))
        for _ in range(24):
            for j in range(len(omegas)):  # columns[:, j] is e^{i omegas[j] t}
                partial = work + amps[j] * columns[:, j]
                omegas[j] = _refine_frequency(times, moments, partial, omegas[j], bin_width, columns[:, j].conj())
            dc, amps, work, columns = _joint_solve(times, values, omegas)
            power_now = float(np.mean(np.abs(work) ** 2))
            if power_now >= 0.9 * last_power:
                break
            last_power = power_now
        # near-dc or duplicate frequencies make the design degenerate; merge
        kept: list[float] = []
        for w in omegas:
            if abs(w) < 1e-8:
                continue
            if any(abs(w - u) < 1e-9 * max(1.0, abs(w)) for u in kept):
                continue
            kept.append(w)
        if len(kept) != len(omegas):
            omegas = kept
            if not omegas:
                break
            dc, amps, work, _ = _joint_solve(times, values, omegas)
        if abs(amps[-1]) < amp_floor:
            omegas.pop()
            if omegas:
                dc, amps, work, _ = _joint_solve(times, values, omegas)
            break
    if not omegas:  # none found, or every one merged away or fell below the floor
        dc, amps, work = complex(np.mean(values)), np.array([], dtype=np.complex128), values - np.mean(values)

    final_power = float(np.mean(np.abs(work) ** 2))
    residual_fraction = min(1.0, final_power / total_power) if total_power > 0 else 0.0
    folded = np.abs(np.array(omegas))
    moduli = np.abs(np.array(amps))
    order = np.argsort(-moduli) if len(moduli) else np.array([], dtype=int)
    return OscillationReport(
        frequencies=folded[order],
        amplitudes=moduli[order],
        dc_component=dc,
        residual_fraction=residual_fraction,
    )


def gap_frequency_consistency(spec: SpectrumResult, report: OscillationReport, tol: float) -> bool:
    """True iff every reported peak matches some eigenvalue gap E_n - E_0."""
    if report.n_peaks == 0:
        return True
    gaps = np.asarray(spec.eigenvalues) - float(spec.eigenvalues[0])
    for freq in report.frequencies:
        if float(np.min(np.abs(gaps - freq))) > tol:
            return False
    return True
