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
:func:`evolve` and the correlator of an arbitrary state
(:func:`correlator_krylov_general`) apply a Chebyshev expansion of e^{-iHt}
over a Gershgorin window of H, cut a priori by a Bessel tail bound, to full
vectors, one fixed-dt propagator per time step.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EigenstateError, ModelError
from .pauli import Operator, StateVector, apply_groups, gershgorin_interval, to_dense  # noqa: F401  (perfbench's tracer patches to_dense here)
from .spectra import EPS, SpectrumResult, _lanczos_step, _next_check

log = logging.getLogger(__name__)
_KRYLOV_RECORD = "krylov correlator: %d amplitudes kept, %d Lanczos steps (cap %d), bound %.3g, dropped %.3g"

EIGENSTATE_RESIDUAL_TOL = 1e-8

# The fewest samples extract_oscillation analyzes.
MIN_SAMPLES = 16

# Power fractions below this are treated as exhausted when hunting peaks.
_POWER_FLOOR = 1e-26


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


def _miller_start(z: np.ndarray) -> np.ndarray:
    """Start order of Miller's recurrence for J_k(z), z > 0: there J_k(z) is
    far below double precision relative to the largest J_k(z)."""
    return (z + 30.0 + 8.0 * np.cbrt(z)).astype(np.intp)


def _bessel_column(z: float) -> np.ndarray:
    """J_k(z) for k = 0 .. the start order, z >= 0.

    Miller's backward recurrence J_{k-1} = (2k/z) J_k - J_{k+1}, seeded with
    1 at the start order and normalized by J_0 + 2 sum_k J_{2k} = 1. Values
    past 2^500 scale the column by 2^-500, so nothing overflows. z <= 1e-30
    gives J_0 = 1 alone.
    """
    if z <= 1e-30:
        return np.ones(1)
    top = int(_miller_start(np.float64(z)))
    col = np.zeros(top + 2)
    col[top] = 1.0
    for k in range(top, 0, -1):
        col[k - 1] = (2.0 * k / z) * col[k] - col[k + 1]
        if abs(col[k - 1]) > 2.0**500:
            col[k - 1 :] *= 2.0**-500
    col = col[: top + 1]
    return col / (col[0] + 2.0 * col[2::2].sum())


def _chebyshev_vectors(matvec, phi: np.ndarray, h_phi: np.ndarray, centre: float, half_width: float):
    """phi_k = T_k(H~) phi for k = 0, 1, ... with H~ = (H - centre) / half_width.

    ``matvec`` applies H; ``h_phi`` = H phi gives phi_1 without a matvec;
    each later vector costs one, and only when it is asked for.
    """
    yield phi
    prev, cur = phi, (h_phi - centre * phi) / half_width
    while True:
        yield cur
        nxt = matvec(cur)
        nxt -= centre * cur
        nxt *= 2.0 / half_width
        nxt -= prev
        prev, cur = cur, nxt


def _window(interval: tuple[float, float]) -> tuple[float, float]:
    """Centre c and half-width a of the Chebyshev window [c - a, c + a].

    ``interval`` is a Gershgorin enclosure of the spectrum that the vectors
    see (:func:`~tcspin.pauli.gershgorin_interval`); its half-width is
    padded by a relative 1e-4, so ||T_k(H~)|| <= 1 for H~ = (H - c) / a.
    """
    lo, hi = interval
    return 0.5 * (lo + hi), 0.5 * (hi - lo) * (1.0 + 1e-4)


def _chebyshev_order(z: float, scale: float, budget: float) -> tuple[int, np.ndarray]:
    """Order K and J_k(z) for k = 0 .. K, z >= 0.

    K is the smallest order above z with 2 * scale * sum_{k>K} |J_k(z)| <=
    budget: cutting e^{-izx} = sum_k (2 - delta_k0) (-i)^k J_k(z) T_k(x)
    after K moves it by at most 2 sum_{k>K} |J_k(z)| on [-1, 1]. For k > z,
    J_k(z) grows with z, so K also bounds every smaller z.
    """
    col = _bessel_column(z)
    tail = np.append(np.cumsum(np.abs(col)[::-1])[::-1][1:], 0.0)  # tail[k] = sum_{j>k}
    order = min(int(z) + 1, len(col) - 1)
    order += int(np.argmax(2.0 * scale * tail[order:] <= budget))
    return order, col[: order + 1]


def _expansion_weights(order: int) -> np.ndarray:
    """(2 - delta_k0) (-i)^k for k = 0 .. order."""
    weights = np.array([2.0, -2j, -2.0, 2j])[np.arange(order + 1) % 4]
    weights[0] = 1.0
    return weights


def _check_step_tol(step_tol: float) -> None:
    if not step_tol > 0.0:  # also rejects NaN, which would cut every series at order a t + 1
        raise ValueError(f"step_tol must be positive, got {step_tol}")


def _propagator(op: Operator, dt: float, step_tol: float):
    """v, [H v] -> e^{-iH dt} v within step_tol * ||v||, for one fixed dt.

    e^{-iH dt} = e^{-ic dt} sum_k (2 - delta_k0) (-i)^k J_k(a dt) T_k(H~) on
    the window of :func:`_window` (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
    3967 (1984)), with J_k(-z) = (-1)^k J_k(z) for dt < 0. The coefficients
    are built once, cut a priori at :func:`_chebyshev_order` with budget
    ``step_tol``, and serve every call; a call costs a |dt| plus about 15
    to 20 matvecs (one fewer when H v is passed) and holds three vectors.
    """
    centre, half_width = _window(op.gershgorin_interval())
    order, col = _chebyshev_order(half_width * abs(dt), 1.0, step_tol)
    coeffs = col * _expansion_weights(order) * np.exp(-1j * centre * dt)
    if dt < 0:
        coeffs[1::2] *= -1.0

    def apply(v: np.ndarray, h_v: np.ndarray | None = None) -> np.ndarray:
        vectors = _chebyshev_vectors(op.matvec, v, op.matvec(v) if h_v is None else h_v, centre, half_width)
        out = np.zeros(len(v), dtype=np.complex128)
        for c, vec in zip(coeffs, vectors):
            out += c * vec
        return out

    return apply


def evolve(op: Operator, v: StateVector, t: float, step_tol: float = 1e-10) -> StateVector:
    """e^{-iHt} v for a normalized state, matrix-free, within ``step_tol``.

    One matvec gives alpha = <v|H|v> and r = ||(H - alpha) v||. If
    |t| r <= step_tol, v is an eigenvector to that accuracy (Duhamel) and the
    result is e^{-i alpha t} v; otherwise it is one Chebyshev propagation
    (:func:`_propagator`) of about a |t| matvecs, a the spectral half-width.
    Either way the error is bounded a priori by ``step_tol``, so the norm is
    kept to that accuracy. Raises ModelError for a non-Hermitian ``op`` and
    ValueError for a non-finite ``t``.
    """
    _check_step_tol(step_tol)
    _check_operands(op, v)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if abs(v.norm - 1.0) > 1e-10:
        raise ValueError(f"evolve expects a normalized state (norm {v.norm})")
    amps = v.amplitudes
    h_v = op.matvec(amps)
    alpha = float(np.vdot(amps, h_v).real)
    if abs(t) * float(np.linalg.norm(h_v - alpha * amps)) <= step_tol:
        return StateVector(v.n_sites, np.exp(-1j * alpha * t) * amps)
    return StateVector(v.n_sites, _propagator(op, t, step_tol)(amps, h_v))


def _gauss_rule(groups, phi: np.ndarray, interval, rounding: float, t_max: float, budget: float):
    """Nodes theta_j and weights w_j, <phi|e^{-iHt}|phi> ~ sum_j w_j
    e^{-i theta_j t} within ``budget`` for |t| <= ``t_max``, from a Lanczos
    run on phi; returns (nodes, weights, steps m, the cap on m, the bound).
    H is ``groups``, ``interval`` encloses H's spectrum
    (||H|| <= h = max |interval|), and ``rounding`` = (G + 3) EPS h bounds
    the rounding of a step of G groups summed in order and 3 subtractions.

    m steps from q_1 = phi / ||phi|| give H Q_m = Q_m T_m + beta_m q_{m+1}
    e_m^T, and T_m's eigenpairs (theta_j, u_j) are an m-node Gauss rule
    (Golub & Meurant, Matrices, Moments and Quadrature, 2010): weights
    ||phi||^2 u_1j^2 > 0 summing to ||phi||^2, exact for degree 2m - 1.

    A posteriori, Duhamel on both sides (Saad, SIAM J. Numer. Anal. 29, 209
    (1992)). With u(t) = e^{-iHt} q_1 and v(t) = Q_m e^{-iT_m t} e_1,
    v' = -iHv + i beta_m g(t) q_{m+1}, g = e_m^T e^{-iT_m t} e_1, so
    ||u - v|| <= eps(t) = beta_m int_0^|t| |g| (T_m is real: |g(-t)| =
    |g(t)|). The rule's error is
    q_1^H (u - v)(t) = -i beta_m int_0^t g(s) q_1^H e^{-iH(t-s)} q_{m+1} ds,
    where q_1^H e^{-iH tau} q_{m+1} = (u(-tau) - v(-tau))^H q_{m+1}, as
    q_{m+1} is orthogonal to Q_m. So it is at most ||phi||^2 eps(t)^2, and
    eps(t_max) serves every sample. With g = sum_j c_j e^{-i theta_j t},
    c_j = u_mj u_1j, Cauchy-Schwarz gives int_0^t |g| <= sqrt(t int_0^t
    |g|^2), where int_0^t |g|^2 = sum_jk c_j c_k sin(D_jk t) / D_jk,
    D_jk = theta_j - theta_k: m^2 sines, no time samples.

    Round-off: in floating point an F_m joins that relation and the basis
    is orthonormal only to eta. The same two steps then add
    ||phi||^2 (1 + eps) rho, rho = sqrt(m) eta + t_max ||F_m||, where
    sqrt(m) eta bounds ||Q_m^H q_1 - e_1|| and ||Q_m^H q_{m+1}||. A column
    of F_m is at most ``rounding`` (which also covers a node's phase over
    t_max) plus what a Gram-Schmidt pass took out of w, measured. The run
    stops at the first check (m = 1, 4, 8, ...:
    :func:`~tcspin.spectra._next_check`) with ||phi||^2 (eps^2 + (1 + eps) rho)
    <= ``budget``. At m = 1, eps = t_max ||(H - alpha) phi|| / ||phi||: a
    phi that is an eigenvector to that accuracy costs one matvec. Its steps
    (:func:`~tcspin.spectra._lanczos_step`) keep eta = min(sqrt(EPS),
    budget / (||phi||^2 h t_max)), the accuracy the budget asks of the
    phases (sqrt(EPS) when h = 0); a larger eta makes rarer passes take out
    more, and rho grow.

    A priori, the rule errs by at most 2 ||phi||^2 times the best uniform
    approximation of e^{-ixt} of degree 2m - 1 on the spectrum, bounded by
    the Chebyshev cut of :func:`_chebyshev_order`: m is capped where 2m - 1
    reaches that order for budget / 2, and there the error is within
    ``budget`` in exact arithmetic (reported if smaller). That order is
    above z = a t_max (a the window's half-width), so from z >= 2 dim on
    the cap is the dimension, with no Bessel column. A breakdown,
    beta_m <= 1e-13 h, stops the run, its beta_m in eps.
    """
    dim = len(phi)
    h_norm = max(abs(interval[0]), abs(interval[1]))
    scale = float(np.vdot(phi, phi).real)
    z = _window(interval)[1] * t_max
    cap = dim if z >= 2 * dim else min(_chebyshev_order(z, scale, 0.5 * budget)[0] // 2 + 1, dim)
    eta = min(math.sqrt(EPS), budget / (scale * h_norm * t_max)) if h_norm else math.sqrt(EPS)
    matvec = functools.partial(apply_groups, groups)
    norm = math.sqrt(scale)
    # the first step reads H phi / ||phi||, which rounds unlike H (phi / ||phi||)
    h_q, beta, again = matvec(phi) / norm, 0.0, False
    # the basis, T and the overlaps grow by doubling: memory follows m, not the cap
    basis = np.empty((min(cap, 64), dim), dtype=h_q.dtype)
    basis[0] = phi / norm
    small, omega = np.zeros((2, len(basis), len(basis)))
    omega[0, 0] = 1.0
    defect = 0.0  # squared bound on ||F_m||, column by column
    check = 1
    for j in range(cap):
        w, beta, w_omega, again, unpassed = _lanczos_step(
            matvec, basis, small, omega, j, 0, beta, basis[:0], eta, h_norm, again, h_q
        )
        h_q = None
        removed = 0.0 if unpassed is w else float(np.linalg.norm(unpassed - w))
        defect += (rounding + removed) ** 2
        m = j + 1
        breakdown = beta <= 1e-13 * h_norm
        if m in (check, cap) or breakdown:
            check = _next_check(m)
            nodes, vectors = np.linalg.eigh(small[:m, :m])
            c = vectors[0] * vectors[-1]
            energy = t_max * float(c @ np.sinc(np.subtract.outer(nodes, nodes) * (t_max / math.pi)) @ c)
            eps_m = beta * math.sqrt(t_max * max(energy, 0.0))
            rho = math.sqrt(m) * eta + t_max * math.sqrt(defect)
            bound = scale * (eps_m * eps_m + (1.0 + eps_m) * rho)
            if bound <= budget or m == cap or breakdown:
                break
        if m == len(basis):
            grow = min(m, cap - m)
            basis = np.concatenate([basis, np.empty((grow, dim), dtype=basis.dtype)])
            small, omega = (np.pad(x, (0, grow)) for x in (small, omega))
        np.divide(w, beta, out=basis[m])
        small[j, m] = small[m, j] = beta
        omega[m, :m] = omega[:m, m] = w_omega
        omega[m, m] = 1.0
    if m == cap:
        bound = min(bound, budget)
    return nodes, scale * vectors[0] ** 2, m, cap, bound


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
    exponentials serve every sample. A phi carried by a few eigenvectors
    takes a few steps, where a Chebyshev moment series takes about
    a max|t| / 2 matvecs whatever phi is, a the spectral half-width.

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
      and H's own compiled groups. :func:`evolve` and
      :func:`correlator_krylov_general` do not cut.
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

    Two trajectories are propagated instead of one, lifting the eigenstate
    requirement of :func:`correlator_krylov` (needed e.g. for a superposition
    of the two GHZ-like eigenstates). Both jump to ``t_start`` (unless it is
    0) and then step by the grid spacing, with one :func:`_propagator` per
    distinct dt: 2 (a dt + about 17) matvecs per sample. A state confined to
    a few eigenvectors pays that too; the propagator does not adapt to it.

    The budget B = (n_samples - 1) * ``step_tol`` of :func:`correlator_krylov`
    is split evenly over the m propagations of each trajectory: each is cut
    at B / 2m times the norm it moves. The cut is the same at every step, so
    its errors can add up coherently, but a trajectory stays within B / 2 of
    exact relative to its norm, and |Delta C| <= B ||A|| ||psi|| ||A psi||
    to first order in B.

    Raises ModelError for a non-Hermitian ``op`` or ``a``.
    """
    _check_step_tol(step_tol)
    _check_operands(op, psi, a)
    budget = (grid.n_samples - 1) * step_tol
    cut = budget / (2 * (grid.n_samples - 1 + (grid.t_start != 0.0)))
    top, chi = psi.amplitudes, a.matvec(psi.amplitudes)
    if grid.t_start != 0.0:
        jump = _propagator(op, grid.t_start, cut)
        top, chi = jump(top), jump(chi)
    step = _propagator(op, grid.spacing, cut)
    values = np.empty(grid.n_samples, dtype=np.complex128)
    values[0] = np.vdot(a.matvec(top), chi)
    for i in range(1, grid.n_samples):
        top, chi = step(top), step(chi)
        values[i] = np.vdot(a.matvec(top), chi)
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
            else:
                dc, amps, work = complex(np.mean(values)), np.array([], dtype=np.complex128), values - np.mean(values)
            break

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
