"""Two-time correlation functions and oscillation-content analysis.

Correlators are C(t) = <psi| A(t) B(0) |psi> with A(t) = e^{iHt} A e^{-iHt}
and hbar = 1, so every frequency is an energy gap. Independent routes are
provided: an exact spectral (Lehmann) summation over the dense eigenbasis,
and two matrix-free routes for sizes the dense path cannot reach. An
eigenstate correlator is a Chebyshev-moment sum with an a-priori Bessel tail
bound (:func:`correlator_krylov`); :func:`evolve` and the correlator of an
arbitrary state (:func:`correlator_krylov_general`) step with Krylov
propagation under a per-step error estimate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DimensionError, EigenstateError, ModelError
from .pauli import Operator, StateVector, to_dense  # noqa: F401  (perfbench's tracer patches to_dense here)
from .spectra import SpectrumResult

EIGENSTATE_RESIDUAL_TOL = 1e-8

# Power fractions below this are treated as exhausted when hunting peaks.
_POWER_FLOOR = 1e-26


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time samples in units of inverse energy (hbar = 1)."""

    t_start: float
    t_end: float
    n_samples: int

    def __post_init__(self) -> None:
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not self.t_end > self.t_start:
            raise ValueError(f"need t_end > t_start, got [{self.t_start}, {self.t_end}]")

    @property
    def spacing(self) -> float:
        return (self.t_end - self.t_start) / (self.n_samples - 1)

    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_samples)

    def to_dict(self) -> dict:
        return {"t_start": self.t_start, "t_end": self.t_end, "n_samples": self.n_samples}

    @classmethod
    def from_dict(cls, data: dict) -> "TimeGrid":
        return cls(float(data["t_start"]), float(data["t_end"]), int(data["n_samples"]))


@dataclass
class CorrelationSeries:
    """Complex C(t) on a uniform grid, tagged with how it was produced."""

    grid: TimeGrid
    values: np.ndarray
    state_label: str = ""
    observable_a: str = ""
    observable_b: str = ""
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


def _check_eigenstate(op: Operator, psi: StateVector, energy: float, tol: float) -> None:
    resid = np.linalg.norm(op.matvec(psi.amplitudes) - energy * psi.amplitudes)
    if resid > tol:
        raise EigenstateError(
            f"state is not an eigenstate at energy {energy}: residual {resid:.3e} > {tol:.1e}"
        )


def correlator_spectral(
    op: Operator,
    spectrum: SpectrumResult,
    a: Operator,
    b: Operator,
    psi: StateVector,
    grid: TimeGrid,
    residual_tol: float = EIGENSTATE_RESIDUAL_TOL,
) -> CorrelationSeries:
    """Exact Lehmann summation over the full dense spectrum of ``op``.

    C(t) = sum_n <psi|A|n><n|B|psi> e^{-i (E_n - E_psi) t}, with E_n and |n>
    read from ``spectrum`` (a :class:`~tcspin.spectra.SpectrumResult` holding
    every eigenpair of ``op``, as :func:`~tcspin.spectra.dense_spectrum`
    returns it). psi must be an eigenstate of ``op`` (checked by residual);
    E_psi = <psi|H|psi> comes from one matvec.
    """
    for o in (a, b):
        if o.n_sites != op.n_sites:
            raise DimensionError("A, B and H must act on the same number of sites")
    if psi.n_sites != op.n_sites:
        raise DimensionError("state and operators act on different site counts")
    if spectrum.n_sites != op.n_sites or spectrum.n_pairs != 1 << op.n_sites:
        raise DimensionError("the spectral route needs every eigenpair of H")
    e_psi = float(np.vdot(psi.amplitudes, op.matvec(psi.amplitudes)).real)
    _check_eigenstate(op, psi, e_psi, residual_tol)

    vectors = spectrum.vectors  # row n holds the amplitudes of |n>
    amp_a = vectors @ a.dagger().matvec(psi.amplitudes).conj()  # <psi|A|n>
    amp_b = (vectors @ b.matvec(psi.amplitudes).conj()).conj()  # <n|B psi>
    weights = amp_a * amp_b
    gaps = spectrum.eigenvalues - e_psi
    times = grid.times()
    values = np.zeros(len(times), dtype=np.complex128)
    # chunk the eigenstate sum to bound the phase-matrix size
    chunk = 2048
    for lo in range(0, len(gaps), chunk):
        hi = min(lo + chunk, len(gaps))
        phases = np.exp(-1j * np.outer(gaps[lo:hi], times))
        values += weights[lo:hi] @ phases
    return CorrelationSeries(
        grid=grid,
        values=values,
        state_label=f"eigenstate(E={e_psi!r})",
        method="spectral",
    )


def _lanczos_expm_step(
    op: Operator, amps: np.ndarray, dt: float, krylov_dim: int, step_tol: float
) -> tuple[np.ndarray, float]:
    """One Krylov approximation of e^{-i H dt} amps with an error estimate.

    The estimate is the coefficient-space distance to the answer one Krylov
    dimension smaller; a happy breakdown makes the result exact. A start
    vector x that is an eigenvector up to rounding stops after one matvec
    once beta * b * |dt| <= step_tol, where beta * b = ||(H - alpha) x||:
    by Duhamel's formula ||e^{-iH dt} x - e^{-i alpha dt} x|| <= |dt| ||(H - alpha) x||.
    """
    beta = float(np.linalg.norm(amps))
    if beta == 0.0:
        return amps.copy(), 0.0
    dim = amps.shape[0]
    m_cap = min(krylov_dim, dim)
    basis = np.empty((m_cap, dim), dtype=np.complex128)
    basis[0] = amps / beta
    alphas: list[float] = []
    betas: list[float] = []
    breakdown = False
    err = 0.0
    m = 0
    for j in range(m_cap):
        w = op.matvec(basis[j])
        alpha = float(np.vdot(basis[j], w).real)
        alphas.append(alpha)
        w = w - alpha * basis[j]
        if j > 0:
            w = w - betas[j - 1] * basis[j - 1]
        # full reorthogonalization; ghost modes would wreck the phase accuracy
        for _ in range(2):
            coeffs = (basis[: j + 1] @ w.conj()).conj()
            w = w - basis[: j + 1].T @ coeffs
        b = float(np.linalg.norm(w))
        m = j + 1
        if b < 1e-14 * max(1.0, abs(alpha)):
            breakdown = True
            break
        if j == 0 and beta * b * abs(dt) <= step_tol:
            breakdown = True
            err = beta * b * abs(dt)
            break
        if j == m_cap - 1:
            break
        betas.append(b)
        basis[j + 1] = w / b

    theta, s = scipy.linalg.eigh_tridiagonal(alphas[:m], betas[: m - 1])
    coeff = s @ (np.exp(-1j * theta * dt) * s[0, :])
    result = beta * (basis[:m].T @ coeff)
    if breakdown or m == 1:
        return result, err
    theta2, s2 = scipy.linalg.eigh_tridiagonal(alphas[: m - 1], betas[: m - 2])
    coeff2 = np.zeros(m, dtype=np.complex128)
    coeff2[: m - 1] = s2 @ (np.exp(-1j * theta2 * dt) * s2[0, :])
    err = beta * float(np.linalg.norm(coeff - coeff2))
    return result, err


def _propagate(
    op: Operator,
    amps: np.ndarray,
    t: float,
    krylov_dim: int,
    step_tol: float,
    max_doublings: int = 40,
) -> np.ndarray:
    """e^{-i H t} amps by Krylov steps with adaptive dyadic substepping."""
    if t == 0.0:
        return amps.copy()
    n_sub = 1
    i = 0
    cur = amps
    while i < n_sub:
        dt = t / n_sub
        stepped, err = _lanczos_expm_step(op, cur, dt, krylov_dim, step_tol)
        if err <= step_tol:
            cur = stepped
            i += 1
        else:
            if n_sub >= (1 << max_doublings):
                raise ConvergenceError(
                    f"Krylov propagation stalled: step error {err:.3e} > {step_tol:.1e} "
                    f"at dt={dt!r} after {max_doublings} halvings (krylov_dim={krylov_dim})"
                )
            n_sub *= 2
            i *= 2
    return cur


def evolve(
    op: Operator,
    v: StateVector,
    t: float,
    krylov_dim: int = 30,
    step_tol: float = 1e-10,
) -> StateVector:
    """e^{-iHt} v for a normalized state, matrix-free; norm is preserved."""
    if op.n_sites != v.n_sites:
        raise DimensionError("operator and state act on different site counts")
    if abs(v.norm - 1.0) > 1e-10:
        raise ValueError(f"evolve expects a normalized state (norm {v.norm})")
    return StateVector(v.n_sites, _propagate(op, v.amplitudes, t, krylov_dim, step_tol))


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


def _bessel_series(z: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] J_k(z_j) for every z_j, in O(len(z) + len(coeffs)) memory.

    The recurrence of :func:`_bessel_column`, vectorized over z with each
    column seeded at its own start order. The unnormalized sum and the
    normalization J_0 + 2 sum_k J_{2k} are both linear in the column, so
    they accumulate as the orders go down (and take the column's 2^-500
    rescalings) and are divided once at the end; no table of orders by
    samples is stored. Even and odd orders are summed apart, so that
    J_k(-z) = (-1)^k J_k(z) gives negative z. |z| <= 1e-30 gives coeffs[0].
    """
    x = np.abs(z)
    tiny = x <= 1e-30
    x = np.where(tiny, 1.0, x)
    starts = _miller_start(x)
    two_over_x = 2.0 / x
    sums = np.zeros((2, len(z)), dtype=np.complex128)  # even and odd orders
    norm = np.zeros(len(z))
    above = np.zeros(len(z))  # unnormalized J_{k+1}
    cur = np.zeros(len(z))  # unnormalized J_k
    for k in range(max(int(starts.max()), len(coeffs) - 1), -1, -1):
        cur[starts == k] = 1.0
        if k < len(coeffs):
            sums[k % 2] += coeffs[k] * cur
        if k % 2 == 0:
            norm += cur if k == 0 else 2.0 * cur
        if k == 0:
            break
        below = (k * two_over_x) * cur - above
        big = np.abs(below) > 2.0**500
        if big.any():
            for arr in (below, cur, sums[0], sums[1], norm):
                arr[big] *= 2.0**-500
        above, cur = cur, below
    values = (sums[0] + np.sign(z) * sums[1]) / norm
    values[tiny] = coeffs[0]
    return values


def _chebyshev_vectors(op: Operator, phi: np.ndarray, h_phi: np.ndarray, centre: float, half_width: float):
    """phi_k = T_k(H~) phi for k = 0, 1, ... with H~ = (H - centre) / half_width.

    ``h_phi`` = H phi gives phi_1 without a matvec; each later vector costs
    one, and only when it is asked for.
    """
    prev, cur = phi, (h_phi - centre * phi) / half_width
    yield prev
    while True:
        yield cur
        nxt = op.matvec(cur)
        nxt -= centre * cur
        nxt *= 2.0 / half_width
        nxt -= prev
        prev, cur = cur, nxt


def _chebyshev_moments(
    op: Operator, w: np.ndarray, phi: np.ndarray, h_phi: np.ndarray, centre: float, half_width: float, order: int
) -> np.ndarray:
    """mu_k = <w|T_k(H~)|phi> for k = 0 .. order.

    When w is phi, T_2k = 2 T_k^2 - 1 and T_2k+1 = 2 T_k+1 T_k - T_1 give two
    moments per vector (Weisse et al., Rev. Mod. Phys. 78, 275 (2006),
    Sec. II), so ceil(order / 2) matvecs do, counting the one that made
    ``h_phi``; otherwise order matvecs.
    """
    mu = np.empty(order + 1, dtype=np.complex128)
    vectors = _chebyshev_vectors(op, phi, h_phi, centre, half_width)
    if np.array_equal(w, phi):
        prev = next(vectors)
        mu[0] = np.vdot(prev, prev)
        for k in range(1, (order + 1) // 2 + 1):
            cur = next(vectors)
            overlap = np.vdot(cur, prev)
            mu[2 * k - 1] = overlap if k == 1 else 2.0 * overlap - mu[1]
            if 2 * k <= order:
                mu[2 * k] = 2.0 * np.vdot(cur, cur) - mu[0]
            prev = cur
    else:
        for k, vec in zip(range(order + 1), vectors):
            mu[k] = np.vdot(w, vec)
    return mu


def correlator_krylov(
    op: Operator,
    a: Operator,
    b: Operator,
    psi: StateVector,
    e_psi: float,
    grid: TimeGrid,
    krylov_dim: int = 30,
    step_tol: float = 1e-10,
    residual_tol: float = EIGENSTATE_RESIDUAL_TOL,
) -> CorrelationSeries:
    """C(t) = e^{+i E_psi t} <psi| A e^{-iHt} B |psi> from Chebyshev moments.

    The workhorse for sizes beyond the dense cap. With w = A^dag psi,
    phi = B psi and H~ = (H - c) / a,

        C(t) = e^{i (E_psi - c) t} sum_k (2 - delta_k0) (-i)^k J_k(a t) mu_k,
        mu_k = <w|T_k(H~)|phi>

    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967 (1984)), so one moment
    recursion serves every sample: about a * max|t| / 2 matvecs when A = B is
    Hermitian (moment doubling), a * max|t| otherwise.

    * [c - a, c + a] is the Gershgorin enclosure of H's spectrum
      (:meth:`Operator.gershgorin_interval`) with its half-width padded by a
      relative 1e-4, so |mu_k| <= ||w|| ||phi||.
    * The series stops at the smallest K > a max|t| with
      2 ||w|| ||phi|| sum_{k>K} |J_k(a max|t|)| <= B, B = (n_samples - 1) *
      ``step_tol``. For k > z, J_k(z) grows with z, so B bounds the
      truncation error of every sample.
    * Shortcut: one matvec gives alpha = <phi|H|phi> / <phi|phi> and
      r = ||(H - alpha) phi||. If ||w|| max|t| r <= B, phi is an eigenvector
      to that accuracy (Duhamel) and C(t) = <w|phi> e^{i (E_psi - alpha) t}.

    ``krylov_dim`` is only validated; it sizes the Krylov steps of
    :func:`evolve` and :func:`correlator_krylov_general`. Raises ModelError
    for a non-Hermitian ``op``.
    """
    if krylov_dim < 4:
        raise ValueError(f"krylov_dim must be >= 4, got {krylov_dim}")
    if not step_tol > 0.0:
        raise ValueError(f"step_tol must be positive, got {step_tol}")
    for o in (a, b):
        if o.n_sites != op.n_sites:
            raise DimensionError("A, B and H must act on the same number of sites")
    if psi.n_sites != op.n_sites:
        raise DimensionError("state and operators act on different site counts")
    if not op.is_hermitian():
        raise ModelError("correlator_krylov requires a Hermitian operator")
    _check_eigenstate(op, psi, e_psi, residual_tol)

    w = a.dagger().matvec(psi.amplitudes)  # <psi|A = (A^dag psi)^dag
    phi = b.matvec(psi.amplitudes)
    times = grid.times()
    t_max = float(np.max(np.abs(times)))
    budget = (grid.n_samples - 1) * step_tol
    norm_w = float(np.linalg.norm(w))
    norm_phi = float(np.linalg.norm(phi))
    h_phi = op.matvec(phi)
    alpha = float(np.vdot(phi, h_phi).real) / norm_phi**2 if norm_phi else 0.0
    if norm_w * t_max * float(np.linalg.norm(h_phi - alpha * phi)) <= budget:
        values = np.vdot(w, phi) * np.exp(1j * (e_psi - alpha) * times)
    else:
        lo, hi = op.gershgorin_interval()
        centre = 0.5 * (lo + hi)
        half_width = 0.5 * (hi - lo) * (1.0 + 1e-4)
        z_max = half_width * t_max
        col = np.abs(_bessel_column(z_max))
        tail = np.append(np.cumsum(col[::-1])[::-1][1:], 0.0)  # tail[k] = sum_{j>k}
        order = int(z_max) + 1
        order += int(np.argmax(2.0 * norm_w * norm_phi * tail[order:] <= budget))
        mu = _chebyshev_moments(op, w, phi, h_phi, centre, half_width, order)
        coeffs = mu * np.array([1.0, -1j, -1.0, 1j])[np.arange(order + 1) % 4]
        coeffs[1:] *= 2.0
        values = _bessel_series(half_width * times, coeffs) * np.exp(1j * (e_psi - centre) * times)
    return CorrelationSeries(
        grid=grid,
        values=values,
        state_label=f"eigenstate(E={e_psi!r})",
        method="krylov",
    )


def correlator_krylov_general(
    op: Operator,
    a: Operator,
    b: Operator,
    psi: StateVector,
    grid: TimeGrid,
    krylov_dim: int = 30,
    step_tol: float = 1e-10,
) -> CorrelationSeries:
    """C(t) = <psi(t)| A |chi(t)> with chi = B psi, for an arbitrary state.

    Two trajectories are propagated instead of one, lifting the eigenstate
    requirement of :func:`correlator_krylov` (needed e.g. for a superposition
    of the two GHZ-like eigenstates).
    """
    if krylov_dim < 4:
        raise ValueError(f"krylov_dim must be >= 4, got {krylov_dim}")
    times = grid.times()
    values = np.empty(len(times), dtype=np.complex128)
    a_dag = a.dagger()
    top = _propagate(op, psi.amplitudes, float(times[0]), krylov_dim, step_tol)
    chi = _propagate(op, b.matvec(psi.amplitudes), float(times[0]), krylov_dim, step_tol)
    values[0] = np.vdot(a_dag.matvec(top), chi)
    for i in range(1, len(times)):
        dt = float(times[i] - times[i - 1])
        top = _propagate(op, top, dt, krylov_dim, step_tol)
        chi = _propagate(op, chi, dt, krylov_dim, step_tol)
        values[i] = np.vdot(a_dag.matvec(top), chi)
    return CorrelationSeries(grid=grid, values=values, method="krylov_general")


def _spectrum_objective(times: np.ndarray, resid: np.ndarray, omega: float):
    """|G|^2 and its first two derivatives, G(w) = sum_k resid_k e^{-i w t_k}."""
    phases = np.exp(-1j * omega * times)
    g = np.sum(resid * phases)
    g1 = np.sum(-1j * times * resid * phases)
    g2 = np.sum(-(times**2) * resid * phases)
    f1 = 2.0 * (np.conj(g) * g1).real
    f2 = 2.0 * (abs(g1) ** 2 + (np.conj(g) * g2).real)
    return g, f1, f2


def _refine_frequency(times: np.ndarray, resid: np.ndarray, omega0: float, half_width: float) -> float:
    """Newton refinement of a spectral peak, clamped to +/- half_width."""
    omega = omega0
    for _ in range(60):
        _, f1, f2 = _spectrum_objective(times, resid, omega)
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
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Least-squares dc + amplitudes for fixed frequencies; returns residual too."""
    design = np.column_stack(
        [np.ones_like(times, dtype=np.complex128)]
        + [np.exp(1j * w * times) for w in omegas]
    )
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ solution
    return complex(solution[0]), solution[1:], resid


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
    if n < 16:
        raise ValueError(f"need at least 16 samples to analyze, got {n}")
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
    work = values - dc
    for _ in range(max_peaks):
        if float(np.mean(np.abs(work) ** 2)) <= max(_POWER_FLOOR * total_power, (3e-10 * scale) ** 2):
            break
        omega0 = _coarse_peak(work, dt, bin_width)
        omegas.append(_refine_frequency(times, work, omega0, bin_width))
        # cyclic re-refinement: Newton each frequency against the residual
        # plus its own component, re-solving dc and amplitudes jointly;
        # iterate until the fit stops improving (overlapping peaks converge
        # only linearly in each other's frequency error)
        dc, amps, work = _joint_solve(times, values, omegas)
        last_power = float(np.mean(np.abs(work) ** 2))
        for _ in range(24):
            for j in range(len(omegas)):
                partial = work + amps[j] * np.exp(1j * omegas[j] * times)
                omegas[j] = _refine_frequency(times, partial, omegas[j], bin_width)
            dc, amps, work = _joint_solve(times, values, omegas)
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
            dc, amps, work = _joint_solve(times, values, omegas)
        if abs(amps[-1]) < amp_floor:
            omegas.pop()
            if omegas:
                dc, amps, work = _joint_solve(times, values, omegas)
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
