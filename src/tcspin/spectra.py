"""Ground states and low-lying spectra: dense route, Lanczos workhorse, GHZ diagnostics."""

from __future__ import annotations

import bisect
import functools
import json
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import DenseCapError, DimensionError, ModelError
from .pauli import FlipSpan, Operator, StateVector, apply_groups, dense_cap, to_dense  # noqa: F401  (perfbench's tracer patches to_dense here)

log = logging.getLogger(__name__)
_LANCZOS_RECORD = (
    "lanczos: %d of %d pairs converged, %d matvecs, %d thick restarts, "
    "%d steps with a Gram-Schmidt pass, %d diagonalizations of T, "
    "on %d of %d states (%d of %d sectors)"
)

# Eigenvalues closer than this are treated as one degenerate cluster; dense
# solvers return an arbitrary basis inside such a cluster, so GHZ overlaps
# are measured against the cluster projector.
CLUSTER_TOL = 1e-9


@dataclass
class SpectrumResult:
    """Eigenvalues in ascending order with their eigenvectors in block form.

    Every eigenvector lies in one block, a coset of ``span``: pair i has the
    amplitudes ``coeffs[i]`` on ``span.cosets[block_of[i]]`` and is zero
    elsewhere. The dense route keeps its operator's
    :attr:`~tcspin.pauli.Operator.flip_span`, so it stores 2^N x 2^r
    numbers for blocks of 2^r rather than a 2^N x 2^N array; a Lanczos
    result keeps the full-rank span, one block in natural order. Each read
    has one method: :meth:`vector` and :meth:`state` scatter one
    eigenvector on demand, :meth:`amplitudes` reads one basis amplitude of
    every pair at the block and position that the span locates, and
    :meth:`overlaps` reads only the blocks that one state meets.

    ``residuals[i]`` is ||H v_i - E_i v_i|| computed from the compiled
    groups: on the dense route in block coordinates, for every pair at once
    (see :func:`dense_spectrum`); on the Lanczos route, over the 2^N
    amplitudes of the returned vector (see :func:`lanczos_extremal`). Both
    solvers keep only pairs that meet their tolerance, so ``n_converged``
    is ``n_pairs``. ``coeffs`` is float64 when the
    operator is real (both solvers then work in real arithmetic) and
    complex128 otherwise. Inside a degenerate cluster any orthonormal basis
    is valid; the dense solver's is confined to blocks (see
    :func:`dense_spectrum`), and so are the eigenvectors ``to_json`` writes.
    """

    eigenvalues: np.ndarray
    span: FlipSpan
    block_of: np.ndarray  # (n_pairs,) row of span.cosets holding each pair
    coeffs: np.ndarray  # (n_pairs, 2^r), row i is pair i on span.cosets[block_of[i]]
    method: str
    residuals: np.ndarray
    n_sites: int
    n_requested: int | None = None

    @property
    def n_pairs(self) -> int:
        return len(self.eigenvalues)

    @property
    def n_converged(self) -> int:
        return self.n_pairs

    def vector(self, i: int) -> np.ndarray:
        """Eigenvector i as a full amplitude array, in the dtype of ``coeffs``."""
        v = np.zeros(1 << self.n_sites, dtype=self.coeffs.dtype)
        v[self.span.cosets[self.block_of[i]]] = self.coeffs[i]
        return v

    def state(self, i: int) -> StateVector:
        return StateVector(self.n_sites, self.vector(i))

    def amplitudes(self, index: int) -> np.ndarray:
        """<index|v_i> for every pair i, in the dtype of ``coeffs``: read from
        the one block that holds basis state ``index``, 0 for the others."""
        block, position = self.span.locate(index)
        return np.where(self.block_of == block, self.coeffs[:, position], 0)

    def overlaps(self, vector: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs i whose block meets ``vector`` (ascending), and
        <vector|v_i> for each; only those blocks are read."""
        blocks = self.span.cosets
        met = np.any(vector[blocks] != 0, axis=1)
        pairs = np.flatnonzero(met[self.block_of])
        out = np.empty(len(pairs), dtype=np.result_type(self.coeffs, vector))
        for b in np.flatnonzero(met):
            members = self.block_of[pairs] == b
            out[members] = self.coeffs[pairs[members]] @ vector[blocks[b]].conj()
        return pairs, out

    def clusters(self) -> list[list[int]]:
        """Indices grouped into degenerate clusters (consecutive gap < CLUSTER_TOL)."""
        # each level opens a cluster when it lies CLUSTER_TOL or more above the
        # one before it; the first always does
        cuts = [*np.flatnonzero(np.diff(self.eigenvalues, prepend=-np.inf) >= CLUSTER_TOL).tolist(), self.n_pairs]
        levels = list(range(self.n_pairs))
        return [levels[start:end] for start, end in zip(cuts, cuts[1:])]

    def to_json(self, include_vectors: bool = False) -> str:
        doc: dict = {
            "method": self.method,
            "n_sites": self.n_sites,
            "n_converged": self.n_converged,
            "n_requested": self.n_requested,
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "residuals": [float(r) for r in self.residuals],
        }
        if include_vectors:
            doc["vectors"] = [
                [[float(a.real), float(a.imag)] for a in self.vector(i)] for i in range(self.n_pairs)
            ]
        return json.dumps(doc)


def _block_matrices(op: Operator, groups) -> np.ndarray:
    """The (n_blocks, 2^r, 2^r) matrices of op on ``blocks``, the cosets of
    its flip span.

    Filled from ``groups``, op's groups cut to them
    (:meth:`~tcspin.pauli.FlipSpan.cut`), one scatter per group: the
    first 2^r entries of a group's gather index are its columns in every
    block. Entry for entry this is
    ``to_dense(op)[blocks[:, :, None], blocks[:, None, :]]``, float64 for a
    real operator and complex128 otherwise; nothing of size 4^N is built.
    """
    n_blocks, size = op.flip_span.cosets.shape
    rows = np.arange(size)
    mats = np.zeros((n_blocks, size, size), dtype=np.float64 if op._is_real else np.complex128)
    for c, perm in groups:
        mats[:, rows, rows if perm is None else perm[:size]] = c.reshape(n_blocks, size)
    return mats


# Eigenvector columns per apply_groups call in the residual step, so that no
# temporary exceeds 2^N x RESIDUAL_SLAB entries. Where one block fills the
# space (N = 10-12), 32 columns ran as fast as one matvec per pair; 16 and
# 64 ran slower at N = 12
RESIDUAL_SLAB = 32


def _block_residuals(groups, values: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """||M_b v - lambda v|| of every block eigenpair, shaped like ``values``.

    ``columns`` is ``eigh``'s (n_blocks, 2^r, 2^r) output; viewed as one
    (2^N, 2^r) array, column j stacks eigenvector j of every block in the
    layout of ``groups`` (:meth:`~tcspin.pauli.FlipSpan.cut`), so one
    :func:`~tcspin.pauli.apply_groups` call per slab of columns applies
    every block matrix at once: G 2^N 2^r multiply-adds for G groups, and
    no pair is scattered to 2^N amplitudes.
    """
    n_blocks, size = values.shape
    stacked = columns.reshape(n_blocks * size, size)
    out = np.empty(values.shape)
    for start in range(0, size, RESIDUAL_SLAB):
        cols = slice(start, start + RESIDUAL_SLAB)
        residual = apply_groups(groups, stacked[:, cols]).reshape(n_blocks, size, -1)
        residual -= values[:, None, cols] * columns[:, :, cols]
        # each pair's entries contiguous, so the norm sums them pairwise
        out[:, cols] = np.linalg.norm(np.ascontiguousarray(residual.transpose(0, 2, 1)), axis=-1)
    return out


def dense_spectrum(op: Operator) -> SpectrumResult:
    """Full Hermitian eigendecomposition, one invariant block at a time.

    Subject to the dense site cap (:func:`~tcspin.pauli.dense_cap`; beyond
    it a DenseCapError). The matrices of the cosets of ``op.flip_span``
    (:func:`_block_matrices`) go through one batched ``eigh`` and the
    eigenvalues are merged in ascending (stable) order; each pair keeps its
    block and block eigenvector, and the result keeps that one span. So
    every eigenvector is confined to one block, also inside a degenerate
    cluster that spans several: an equally valid basis of it, which
    ``tcspin spectrum`` writes with ``include_eigenvectors``. A full-rank
    span is one block in natural order, and the result is then
    bit-identical to ``np.linalg.eigh(to_dense(op))``. A real operator is
    diagonalized in real arithmetic (float64 eigenvectors). The residuals
    come from the same cut groups, in block coordinates
    (:func:`_block_residuals`), with no matvec. Raises ModelError for a
    non-Hermitian operator.
    """
    cap = dense_cap()
    if op.n_sites > cap:
        raise DenseCapError(f"dense spectrum at N={op.n_sites} exceeds cap {cap}")
    if not op.is_hermitian():
        raise ModelError("dense_spectrum requires a Hermitian operator")
    groups = op.flip_span.cut(op._groups, op.flip_span.cosets)
    values, columns = np.linalg.eigh(_block_matrices(op, groups))
    order = np.argsort(values, axis=None, kind="stable")
    block, column = np.divmod(order, values.shape[1])
    return SpectrumResult(
        eigenvalues=values.ravel()[order],
        span=op.flip_span,
        block_of=block,
        coeffs=columns[block, :, column],
        method="dense",
        residuals=_block_residuals(groups, values, columns).ravel()[order],
        n_sites=op.n_sites,
        n_requested=len(order),
    )


# Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976): a
# Gram-Schmidt pass that leaves less than this fraction of the norm it was
# given has cancelled enough to leave round-off components along the sets
# it projected out, and is repeated once
DGKS_RATIO = 1 / np.sqrt(2)
EPS = np.finfo(np.float64).eps

# Lanczos steps between the checks of a Krylov loop's stopping test (from
# m = 40 on, m / 8): a check diagonalizes the m x m projected matrix, O(m^3),
# where a step past the stopping point costs one matvec
CHECK_EVERY = 4


def _next_check(m: int) -> int:
    """The step after a check at step m at which a Krylov loop checks next.

    From a first check at m = 1 the schedule is m = 1, 4, 8, ..., 32, 36,
    40, 45, 50, 56, ...: every :data:`CHECK_EVERY` steps, then every m / 8.
    A loop whose test would pass between two checks runs on to the next:
    at most 3 steps further while the checks are 4 apart (up to m = 40),
    and at most m / 8 - 1 past a check at m >= 40.
    """
    return m + max(CHECK_EVERY - m % CHECK_EVERY, m // 8)


def _orthogonalize(w: np.ndarray, *sets: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass of w against the rows of each set in turn.

    Locked eigenvectors and the Krylov basis must be cleaned inside the same
    pass: projecting out the locked vectors first and the basis separately
    lets the basis pass reintroduce locked components, which then amplify by
    ||H||/beta at every Lanczos step with a small beta.
    """
    for rows in sets:
        if len(rows):
            w = w - (rows @ w.conj()).conj() @ rows
    return w


def _lanczos_step(
    matvec, basis: np.ndarray, small: np.ndarray, omega: np.ndarray, j: int, kept: int, beta: float,
    deflate: np.ndarray, eta: float, h_norm: float, again: bool, h_q: np.ndarray | None = None,
) -> tuple[np.ndarray, float, np.ndarray, bool, np.ndarray]:
    """One Lanczos step from ``basis[j]``, H applied by ``matvec`` (or read
    from ``h_q``, overwritten): alpha_j into ``small[j, j]``, the three-term
    recurrence with the last ``beta`` subtracted (the arrow of a thick
    restart when j == ``kept`` > 0), ``deflate`` projected out.

    Simon's recurrence (Math. Comp. 42, 115 (1984)) estimates the new
    vector's overlaps with the basis from T = ``small``: with omega_j the
    overlaps of basis vector j, q_i^H H q_j is (T omega_j)_i, so
    omega_{j+1} = (T omega_j - alpha_j omega_j - beta_{j-1} omega_{j-1} +
    4 eps ||H||) / beta_j, the last term for rounding (``h_norm`` bounds
    ||H||). A Gram-Schmidt pass against ``deflate`` and the basis (a second
    on the DGKS test) runs only when max |omega_{j+1}| passes ``eta``, and
    again on the next step (``again``); the estimate then resets to eps.
    A w of norm 0 (H = 0) takes the pass too: its estimate would be 0 / 0.
    After a thick restart every step takes it: the kept Ritz vectors carry
    the last cycle's passes in their residuals, which T does not record.

    Returns (w, beta_j = ||w||, the estimated overlaps of w / beta_j with
    basis[:j + 1], ``again``, w before the pass or w itself); the caller
    stores the first three in ``basis``, ``small`` and ``omega``.
    """
    w = matvec(basis[j]) if h_q is None else h_q
    alpha = float(np.vdot(basis[j], w).real)
    small[j, j] = alpha
    w -= alpha * basis[j]
    if j > kept:
        w -= beta * basis[j - 1]
    elif kept:
        w -= basis[:kept].T @ small[kept, :kept]
    if len(deflate):
        w -= (deflate @ w.conj()).conj() @ deflate
    before = float(np.linalg.norm(w))
    if kept or again:
        full, again = True, False
    else:
        # Simon's estimate, times beta: q_i^H H q_j read from T, less what
        # the recurrence subtracted, plus eps ||H|| of rounding for each of
        # the matvec and the three subtractions
        t = small[: j + 1, : j + 1]
        drift = t @ omega[: j + 1, j] - omega[: j + 1, : j + 1] @ t[:, j]
        drift += np.copysign(4 * EPS * h_norm, drift)
        full = again = float(np.abs(drift).max()) >= eta * before
    if not full:
        return w, before, drift / before, again, w
    unpassed = w
    w = _orthogonalize(w, deflate, basis[: j + 1])
    beta = float(np.linalg.norm(w))
    if beta < DGKS_RATIO * before:
        w = _orthogonalize(w, deflate, basis[: j + 1])
        beta = float(np.linalg.norm(w))
    return w, beta, np.full(j + 1, EPS), again, unpassed


def _lowest_deflated_eigenpair(
    matvec,
    v0: np.ndarray,
    tol: float,
    budget: int,
    m_cap: int,
    keep: int,
    deflate: np.ndarray,
    h_norm: float,
    tally: Counter,
) -> tuple[tuple[float, np.ndarray, float] | None, int]:
    """Lowest eigenpair orthogonal to ``deflate`` by thick-restart Lanczos,
    H applied by ``matvec``.

    At every restart the ``keep`` lowest Ritz vectors are retained together
    with the next Lanczos vector, so convergence inside quasi-degenerate
    manifolds is not thrown away (a plain restart stalls there). The small
    projected matrix T is diagonal on the kept block with an arrow coupling
    to the first continuation vector, then tridiagonal.

    Each step is one :func:`_lanczos_step`: it subtracts the three-term
    recurrence (or the arrow), projects out ``deflate``, and runs a
    Gram-Schmidt pass against the locked vectors and the whole basis only
    when Simon's estimate of the overlaps passes eta = min(sqrt(eps),
    tol / ||H||), or after a thick restart. ``h_norm`` bounds ||H||.

    Convergence is tested on the schedule of :func:`_next_check`, counted
    in steps from the cycle's start (s = 1, 4, 8, ...), and always at a
    breakdown, at ``m_cap`` basis vectors and at the last step the budget
    leaves room for; each test diagonalizes T, O(j^3), where a step that
    ran past convergence costs one matvec. With the basis orthonormal to
    eta, |beta_j u[j, 0]| (the new beta times the last component of the
    lowest eigenvector of T) is the Ritz pair's residual to within tol,
    which is why eta is tied to tol. A cycle ends at the first test where
    it is <= tol, or at one of the three forced tests. The Ritz pair is
    then accepted only if ||H v - theta v||, from one more matvec, is <=
    tol as well; otherwise the cycle restarts. The returned residual is
    that check, so it lies near tol rather than at round-off.

    ``tally`` gains the solve's thick restarts (``"restarts"``), the steps
    that took a Gram-Schmidt pass (``"passes"``) and the diagonalizations
    of T (``"diagonalizations"``).

    Returns ((value, vector, residual), matvecs_used) with matvecs_used <=
    ``budget``, or (None, matvecs_used) when the budget runs out or the
    Krylov space turns invariant before a Ritz pair passes the check.
    """
    dim = v0.shape[0]
    m_cap = min(m_cap, dim)
    basis = np.empty((m_cap, dim), dtype=v0.dtype)
    basis[0] = v0
    small = np.zeros((m_cap, m_cap))  # T, filled in place
    omega = np.eye(m_cap)  # estimated overlaps among the basis vectors
    eta = min(np.sqrt(EPS), tol / h_norm)
    breakdown_tol = 1e-13 * h_norm
    kept = 0
    matvecs = 0
    again = False  # the estimate asked for the last step's pass

    # one step and the true-residual check must fit in the budget
    while matvecs + 2 <= budget:
        j = kept
        beta = 0.0
        check = 1  # the step of this cycle at which T is next diagonalized
        while True:
            w, beta, w_omega, again, unpassed = _lanczos_step(
                matvec, basis, small, omega, j, kept, beta, deflate, eta, h_norm, again
            )
            tally["passes"] += unpassed is not w
            del unpassed  # w before the pass is not held through a step
            matvecs += 1
            if beta < breakdown_tol:
                beta = 0.0
            j += 1
            # a breakdown makes the estimate 0: the Krylov space is invariant
            last = beta == 0.0 or j == m_cap or matvecs + 2 > budget
            if j - kept == check or last:
                check = _next_check(j - kept)
                theta, u = np.linalg.eigh(small[:j, :j])
                tally["diagonalizations"] += 1
                if last or beta * abs(u[-1, 0]) <= tol:
                    break
            np.divide(w, beta, out=basis[j])
            small[j - 1, j] = small[j, j - 1] = beta
            omega[j, :j] = omega[:j, j] = w_omega

        n_small = j
        ritz = basis[:n_small].T @ u[:, 0]
        ritz /= float(np.linalg.norm(ritz))
        resid = float(np.linalg.norm(matvec(ritz) - theta[0] * ritz))
        matvecs += 1
        if resid <= tol:
            return (float(theta[0]), ritz, resid), matvecs
        if beta == 0.0 or matvecs + 2 > budget:
            # invariant subspace exhausted, so no restart can improve the
            # pair, or no room left for a restarted cycle's step and check
            return None, matvecs

        tally["restarts"] += 1
        p = min(keep, n_small - 1)
        basis[:p] = u[:, :p].T @ basis[:n_small]
        np.divide(w, beta, out=basis[p])
        small.fill(0.0)
        small[np.arange(p), np.arange(p)] = theta[:p]
        small[p, :p] = small[:p, p] = beta * u[n_small - 1, :p]
        kept = p
    return None, matvecs


# splitmix64 (Steele, Lea & Flood, OOPSLA 2014, in Vigna's reference form):
# the golden-ratio state increment and the two multipliers of its finalizer
_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _splitmix64_uniform(seed: int, start: int, count: int) -> np.ndarray:
    """Positions start .. start + count - 1 of the splitmix64 stream from
    state ``seed`` (0 <= seed < 2^64), as float64 uniform on [-1, 1).

    Position i is splitmix64's output i + 1, the finalizer of
    seed + (i + 1) * gamma mod 2^64, so any stretch of the stream is read
    directly from its counter. Its top 53 bits b give b * 2^-52 - 1, exact.
    The arithmetic is on uint64 arrays, which wrap mod 2^64 without the
    overflow warning of numpy's scalar uint64 arithmetic. The stream is
    defined by these integer operations alone, so it is the same on every
    numpy version.
    """
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= _SPLITMIX_GAMMA
    z += np.uint64(seed)
    for shift, mix in zip((30, 27), _SPLITMIX_MIX):
        z ^= z >> shift
        z *= mix
    z ^= z >> 31
    return (z >> 11) * 2.0**-52 - 1.0


def _disc_components(op: Operator, k: int, slack: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(candidates, minima, starts, U) for the sectors of op
    (:attr:`~tcspin.pauli.Operator.sectors`).

    Each sector's lowest level is at most its smallest diagonal entry, the
    Rayleigh quotient of one of its basis vectors. So U, the k-th smallest
    of those sector minima, bounds E_{k-1}: k distinct sectors each hold a
    level <= U. With fewer than k sectors U is infinite.

    The Gershgorin discs of each sector's rows
    (:meth:`~tcspin.pauli.Operator.sector_discs`) are widened by ``slack``
    on both sides. At 4 G eps ||H||_1 for G groups it exceeds the rounding
    of a computed centre (one addition on a P half), radius (a sum of fewer
    than G terms), disc end and U together, so the widened discs hold the
    exact ones. By Gershgorin's counting theorem a union of connected
    components that is disjoint from the other discs holds as many levels
    as discs, also for discs larger than the rows' own, and a level <= U
    lies in a component that starts at or below U. So a sector's count at
    U, the number of its discs in components that start at or below U, is
    at least its number of levels <= U.

    ``candidates`` are the sectors with a disc that starts at or below U
    (the others count 0), in ascending order of their smallest diagonal
    entry, ties in sector order, and ``minima`` holds those entries.
    ``starts`` has one row per candidate: for each of its discs, the start
    of its component. So ``np.count_nonzero(starts <= u, axis=1)`` is the
    candidates' counts at any u <= U.
    """
    centre, radius = op.sector_discs()
    minima = centre.min(axis=1)
    bound = float(np.partition(minima, k - 1)[k - 1]) if len(minima) >= k else np.inf
    low = centre - radius - slack
    candidates = np.flatnonzero(low.min(axis=1) <= bound)
    candidates = candidates[np.argsort(minima[candidates], kind="stable")]
    # discs that start together never open a component apart, so any order
    # of equal starts will do
    order = np.argsort(low[candidates], axis=1)
    low = np.take_along_axis(low[candidates], order, axis=1)
    reach = np.maximum.accumulate(np.take_along_axis((centre + radius)[candidates], order, axis=1) + slack, axis=1)
    # a disc opens a component when it starts above every disc before it
    opens = np.ones(low.shape, dtype=bool)
    opens[:, 1:] = low[:, 1:] > reach[:, :-1]
    return candidates, minima[candidates], np.maximum.accumulate(np.where(opens, low, -np.inf), axis=1), bound


def _kth_level_bound(pairs: list[tuple[float, int, np.ndarray, float]], dim: int, slack: float) -> float:
    """An upper bound on E_{k-1} from k found pairs (value, sector,
    coordinates, accepting residual), ascending in value, in sectors of at
    most ``dim`` states.

    Let V hold the k vectors, r_j = H v_j - theta_j v_j and F = V^H V - I;
    pairs in different sectors are orthogonal exactly, so F is the Gram
    matrices of each sector's pairs less I. Then v_i^H H v_j =
    theta_j (I + F)_ij + W_ij with W = V^H R, so for x = V c and
    mu = theta_{k-1} + m, after symmetrizing,
    x^H H x - mu x^H x = c^H (Theta - mu) c + c^H [F (Theta - mu) +
    (Theta - mu) F] c / 2 + Re c^H W c
    <= ||c||^2 (-m + phi (theta_{k-1} - theta_0 + m) + ||W||_2)
    for any phi >= ||F||_2, and ||W||_2 <= sqrt(1 + phi) ||R||_F. When
    phi < 1 the span of V has dimension k, so by Courant-Fischer
    E_{k-1} <= mu once
    m >= (sqrt(1 + phi) ||R||_F + phi (theta_{k-1} - theta_0)) / (1 - phi).

    Each exact residual is at most its computed value plus ``slack``: the
    sector matvec and the subtraction round by less than
    (G + 2) eps ||H||_1 <= 4 G eps ||H||_1 for G >= 1 groups. Each Gram
    entry of vectors of norm about 1 rounds by less than 2 dim eps, so
    phi = ||F_computed||_F + 2 k dim eps. Past phi = 1/2 the bound is
    infinite.
    """
    values = [value for value, *_ in pairs]
    by_sector: dict[int, list[np.ndarray]] = {}
    for _, sector, vec, _ in pairs:
        by_sector.setdefault(sector, []).append(vec)
    drift = sum(np.sum(np.abs(u.conj() @ u.T - np.eye(len(u))) ** 2) for u in map(np.asarray, by_sector.values()))
    phi = float(np.sqrt(drift)) + 2 * len(pairs) * dim * EPS
    if phi >= 0.5:
        return np.inf
    r_norm = float(np.sqrt(sum((r + slack) ** 2 for *_, r in pairs)))
    return values[-1] + (np.sqrt(1 + phi) * r_norm + phi * (values[-1] - values[0])) / (1 - phi)


def _full_residuals(op: Operator, pairs: list[tuple[float, int, np.ndarray, float]], vectors: np.ndarray) -> np.ndarray:
    """||H v - theta v|| of each pair (theta, sector, ...) with its vector
    scattered to 2^N amplitudes (a row of ``vectors``), through op's groups
    cut to the coset of its sector, one slab per coset: the entries there
    are those of ``op.matvec(v)`` bit for bit, and the norm is taken over
    all 2^N amplitudes, as of the full-space residual."""
    rows = op.sectors[0]
    out = np.empty(len(pairs))
    by_coset: dict[int, list[int]] = {}
    for i, (_, sector, *_) in enumerate(pairs):
        by_coset.setdefault(int(rows[sector, 0]), []).append(i)
    for members in by_coset.values():
        coset = rows[pairs[members[0]][1]]
        on = vectors[members][:, coset].T
        residual = apply_groups(op.flip_span.cut(op._groups, coset[None]), on)
        residual -= np.array([pairs[i][0] for i in members]) * on
        r = np.zeros_like(vectors[0])
        for column, i in enumerate(members):
            r[coset] = residual[:, column]
            out[i] = np.linalg.norm(r)
    return out


def lanczos_extremal(
    op: Operator,
    k: int,
    tol: float = 1e-10,
    max_iter: int = 5000,
    seed: int = 0,
) -> SpectrumResult:
    """The k lowest eigenpairs by thick-restart Lanczos with explicit deflation.

    Uses only the matrix-free matvec. Eigenpairs are converged one at a time;
    every Lanczos vector is projected off all previously accepted
    eigenvectors, and reorthogonalized against the whole Krylov basis only
    when Simon's estimate says the basis is losing orthogonality (see
    :func:`_lowest_deflated_eigenpair`); the deflation makes repeated
    (degenerate) eigenvalues reachable, which plain Lanczos misses.
    Each pair stops at the step its Ritz residual reaches ``tol``, so
    ``residuals`` lie near ``tol``. Deterministic for a fixed seed.
    ``max_iter`` caps the total matvec count, the true-residual checks
    included; on exhaustion a partial result is returned with
    ``n_converged < k`` rather than failing silently. Each call logs one
    ``info`` record: the pairs converged and requested, the matvecs, the
    thick restarts, the steps that took a Gram-Schmidt pass, the
    diagonalizations of the projected matrix, and the states and sectors
    solved out of all.

    Each sector of op (:attr:`~tcspin.pauli.Operator.sectors`: a coset of
    its flip span, or a global-flip half of one) is solved on its own,
    through op's groups cut to it (:meth:`~tcspin.pauli.FlipSpan.cut`),
    for at most its count of pairs (:func:`_disc_components`), the number
    of its Gershgorin discs in components that start at or below U. U is
    first the k-th smallest sector minimum of the diagonal; once k pairs
    are in hand it falls to their bound on E_{k-1}
    (:func:`_kth_level_bound`), and a sector whose count drops to 0 is
    skipped. A sector's count is at least its number of levels <= E_{k-1}.
    Sectors are taken up in ascending order of their smallest diagonal
    entry, and each pair goes to the open sector of lowest key: its last
    value once solved (its next level lies above), else its smallest
    diagonal entry (it holds a level below). A solved sector stays open
    while its last value lies below the k-th lowest found, so once every
    sector is closed the k lowest found are the k lowest of op. They are
    scattered back to 2^N amplitudes
    (:meth:`~tcspin.pauli.Operator.scatter`), and ``residuals`` holds
    each one's full-space ||H v - theta v||, from the groups cut to its
    coset (:func:`_full_residuals`). A sole sector that is the whole basis
    in natural order is solved through ``op.matvec``, call for call, and
    its accepting checks are the residuals.

    Start vectors come from the counter-based splitmix64 stream keyed by
    ``seed`` (:func:`_splitmix64_uniform`, 0 <= seed < 2^64), entries
    uniform on [-1, 1): each candidate takes the next ``dim`` positions
    for a sector of ``dim`` states, or for a complex operator the next
    ``dim`` for its real part and the ``dim`` after them for its imaginary
    part; the sectors read the stream in the order they are solved. The
    stream is integer arithmetic only, so a seed gives the same start
    vectors on every numpy version, and the solve never imports
    ``numpy.random``.

    A real operator gets real start vectors, so the Krylov basis, the
    deflation set and the returned vectors are float64 (half the memory of
    complex128); otherwise they are complex128.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    full = 1 << op.n_sites
    if k > full:
        raise ValueError(f"k={k} exceeds the Hilbert-space dimension {full}")
    if not op.is_hermitian():
        raise ModelError("lanczos_extremal requires a Hermitian operator")

    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    real = op._is_real
    dtype = np.float64 if real else np.complex128
    h_norm = max(1.0, op.one_norm())
    rows, parities = op.sectors
    dim = rows.shape[1] if parities is None else rows.shape[1] // 2
    natural = dim == full
    slack = 4 * len(op._groups) * EPS * h_norm
    # a candidate's key is its smallest diagonal entry until solved, then
    # its last value
    candidates, keys, starts, bound = _disc_components(op, k, slack)
    counts = np.count_nonzero(starts <= bound, axis=1)
    found: list[tuple[float, int, np.ndarray, float]] = []  # (value, sector, coordinates, residual)
    matvecs = 0
    tally: Counter = Counter()
    drawn = 0  # stream position of the next start vector's first entry

    def next_start(vecs: list[np.ndarray]) -> np.ndarray | None:
        nonlocal drawn
        for _ in range(8):
            v = _splitmix64_uniform(seed, drawn, dim)
            if not real:
                v = v + 1j * _splitmix64_uniform(seed, drawn + dim, dim)
            drawn += dim if real else 2 * dim
            if vecs:
                done = np.asarray(vecs)
                v, before = _orthogonalize(v, done), np.linalg.norm(v)
                if np.linalg.norm(v) < DGKS_RATIO * before:
                    v = _orthogonalize(v, done)
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                return v / nrm
        return None

    # each pair comes from the open candidate of lowest key; a solved one is
    # open while its count allows more pairs and its last value lies below
    # the k-th lowest found
    n_found = np.zeros(len(candidates), dtype=int)
    solves: dict[int, tuple] = {}  # candidate -> (sector, matvec, vectors found)
    m_cap = min(dim, max(60, 3 * k + 10))
    keep = max(8, min(m_cap // 3, 20))
    while True:
        kth = found[k - 1][0] if len(found) >= k else np.inf
        active = np.flatnonzero((counts > n_found) & ((n_found == 0) | (keys < kth)))
        if not len(active):
            break
        c = int(active[np.argmin(keys[active])])
        if c not in solves:
            s = int(candidates[c])
            if natural:
                solves[c] = (s, op.matvec, [])
            else:
                cut = op.flip_span.cut(op._groups, rows[s : s + 1], None if parities is None else parities[s : s + 1])
                solves[c] = (s, functools.partial(apply_groups, cut), [])
        s, matvec, vecs = solves[c]
        v0 = next_start(vecs) if matvecs < max_iter else None
        pair = None
        if v0 is not None:
            deflate = np.asarray(vecs) if vecs else np.empty((0, dim), dtype)
            pair, used = _lowest_deflated_eigenpair(
                matvec, v0, tol, max_iter - matvecs, m_cap, keep, deflate, h_norm, tally
            )
            matvecs += used
        if pair is None:
            # out of budget, or no pair found: keep only the pairs below U
            # and below every level that an open sector may still hold
            floor = min([bound] + [keys[c] if n_found[c] else starts[c, 0] for c in active])
            found = [pair for pair in found if pair[0] <= floor]
            break
        val, vec, resid = pair
        keys[c] = val
        n_found[c] += 1
        vecs.append(vec)
        at = bisect.bisect(found, val, key=lambda pair: pair[0])
        found.insert(at, (val, s, vec, resid))
        if at < k <= len(found):  # the k lowest changed
            bound = min(bound, _kth_level_bound(found[:k], dim, slack))
            counts = np.count_nonzero(starts <= bound, axis=1)
    log.info(
        _LANCZOS_RECORD, min(len(found), k), k, matvecs,
        tally["restarts"], tally["passes"], tally["diagonalizations"],
        len(solves) * dim, full, len(solves), len(rows),
    )

    # the k lowest pairs, each with its full-space residual
    found = found[:k]
    coeffs = op.scatter(
        np.array([s for _, s, *_ in found], dtype=np.intp), np.array([vec for *_, vec, _ in found], dtype).reshape(-1, dim)
    )
    residuals = np.array([resid for *_, resid in found]) if natural else _full_residuals(op, found, coeffs)
    return SpectrumResult(
        eigenvalues=np.array([val for val, *_ in found]),
        span=FlipSpan.of(op.n_sites, (1 << site for site in range(op.n_sites))),
        block_of=np.zeros(len(found), dtype=np.intp),
        coeffs=coeffs,
        method="lanczos",
        residuals=residuals,
        n_sites=op.n_sites,
        n_requested=k,
    )


@dataclass
class GHZReport:
    """GHZ+/- overlaps of every eigenstate and the energy gap of the best +/- pair.

    ``overlap_plus[i]`` and ``overlap_minus[i]`` are the squared norms of
    GHZ+/- projected onto the degenerate cluster containing eigenstate i (of
    energy ``energies[i]``), so every member of a cluster reports the
    cluster total. The best-overlap state on equal overlaps is the one with
    the lowest energy; ``ghz_gap`` is reported as an absolute value.
    """

    energies: np.ndarray
    overlap_plus: np.ndarray
    overlap_minus: np.ndarray
    clusters: list[list[int]]
    best_plus_index: int
    best_minus_index: int
    ghz_gap: float

    def to_json(self) -> str:
        return json.dumps(
            {
                "entries": [
                    {"index": i, "energy": float(e), "overlap_plus": float(p), "overlap_minus": float(m)}
                    for i, (e, p, m) in enumerate(zip(self.energies, self.overlap_plus, self.overlap_minus))
                ],
                "clusters": self.clusters,
                "best_plus_index": self.best_plus_index,
                "best_minus_index": self.best_minus_index,
                "ghz_gap": self.ghz_gap,
            }
        )


def ghz_overlap_report(spec: SpectrumResult, n: int) -> GHZReport:
    """GHZ+/- overlaps for every computed eigenstate, cluster-resolved."""
    if spec.n_pairs == 0:
        raise ValueError("spectrum carries no eigenvectors")
    if spec.n_sites != n:
        raise DimensionError(f"spectrum on {spec.n_sites} sites, requested {n}")
    # GHZ+/- = h (|0...0> +/- |1...1>) with h = 1/sqrt(2), so <GHZ+/-|v_i>
    # needs only the amplitudes of v_i at index 0 and 2^N - 1
    h = 1.0 / np.sqrt(2.0)
    up, down = spec.amplitudes(0), spec.amplitudes((1 << n) - 1)
    clusters = spec.clusters()
    # clusters are runs of consecutive indices: one segmented sum each
    starts = [group[0] for group in clusters]
    sizes = [len(group) for group in clusters]
    overlap_plus, overlap_minus = (
        np.repeat(np.add.reduceat(np.abs(up * h + down * sign) ** 2, starts), sizes) for sign in (h, -h)
    )
    # max overlap wins; ties resolved toward the lowest energy, which is the
    # first index since eigenvalues are ascending.
    best_plus = int(np.argmax(overlap_plus))
    best_minus = int(np.argmax(overlap_minus))
    gap = abs(float(spec.eigenvalues[best_plus] - spec.eigenvalues[best_minus]))
    return GHZReport(
        energies=spec.eigenvalues,
        overlap_plus=overlap_plus,
        overlap_minus=overlap_minus,
        clusters=clusters,
        best_plus_index=best_plus,
        best_minus_index=best_minus,
        ghz_gap=gap,
    )
