"""Ground states and low-lying spectra: dense route, Lanczos workhorse, GHZ diagnostics."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DenseCapError, DimensionError, ModelError
from .pauli import FlipSpan, Operator, StateVector, dense_cap, to_dense  # noqa: F401  (perfbench's tracer patches to_dense here)

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

    ``residuals[i]`` is ||H v_i - E_i v_i|| computed with the matrix-free
    matvec (on the Lanczos route, the check that accepted the pair). Both
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
        groups: list[list[int]] = []
        for i, e in enumerate(self.eigenvalues):
            if groups and e - self.eigenvalues[groups[-1][-1]] < CLUSTER_TOL:
                groups[-1].append(i)
            else:
                groups.append([i])
        return groups

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


def _residuals(op: Operator, spectrum: SpectrumResult) -> np.ndarray:
    out = np.empty(spectrum.n_pairs)
    for i, e in enumerate(spectrum.eigenvalues):
        v = spectrum.vector(i)
        out[i] = np.linalg.norm(op.matvec(v) - e * v)
    return out


def _block_matrices(op: Operator) -> np.ndarray:
    """The (n_blocks, 2^r, 2^r) matrices of op on ``blocks``, the cosets of
    its flip span.

    Filled straight from the groups restricted to them, one scatter per
    group: the first 2^r entries of a group's gather index are its columns
    in every block. Entry for entry this is
    ``to_dense(op)[blocks[:, :, None], blocks[:, None, :]]``, float64 for a
    real operator and complex128 otherwise; nothing of size 4^N is built.
    """
    blocks = op.flip_span.cosets
    n_blocks, size = blocks.shape
    rows = np.arange(size)
    mats = np.zeros((n_blocks, size, size), dtype=np.float64 if op._is_real else np.complex128)
    for c, perm in op.flip_span.restrict(op._groups, blocks):
        mats[:, rows, rows if perm is None else perm[:size]] = c.reshape(n_blocks, size)
    return mats


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
    diagonalized in real arithmetic (float64 eigenvectors). Raises
    ModelError for a non-Hermitian operator.
    """
    cap = dense_cap()
    if op.n_sites > cap:
        raise DenseCapError(f"dense spectrum at N={op.n_sites} exceeds cap {cap}")
    if not op.is_hermitian():
        raise ModelError("dense_spectrum requires a Hermitian operator")
    values, columns = np.linalg.eigh(_block_matrices(op))
    order = np.argsort(values, axis=None, kind="stable")
    block, column = np.divmod(order, values.shape[1])
    spectrum = SpectrumResult(
        eigenvalues=values.ravel()[order],
        span=op.flip_span,
        block_of=block,
        coeffs=columns[block, :, column],
        method="dense",
        residuals=np.empty(0),
        n_sites=op.n_sites,
        n_requested=len(order),
    )
    spectrum.residuals = _residuals(op, spectrum)
    return spectrum


# Daniel, Gragg, Kaufman & Stewart, Math. Comp. 30, 772 (1976): a
# Gram-Schmidt pass that leaves less than this fraction of the norm it was
# given has cancelled enough to leave round-off components along the sets
# it projected out, and is repeated once
DGKS_RATIO = 1 / np.sqrt(2)
EPS = np.finfo(np.float64).eps


def _orthogonalize(w: np.ndarray, *sets: np.ndarray) -> np.ndarray:
    """One classical Gram-Schmidt pass of w against the rows of each set in turn.

    Locked eigenvectors and the Krylov basis must be cleaned inside the same
    pass: projecting out the locked vectors first and the basis separately
    lets the basis pass reintroduce locked components, which then amplify by
    ||H||/beta at every Lanczos step with a small beta.
    """
    for rows in sets:
        if len(rows):
            w = w - rows.T @ (rows @ w.conj()).conj()
    return w


def _lowest_deflated_eigenpair(
    op: Operator,
    v0: np.ndarray,
    tol: float,
    budget: int,
    m_cap: int,
    keep: int,
    deflate: np.ndarray,
    h_norm: float,
) -> tuple[tuple[float, np.ndarray, float] | None, int]:
    """Lowest eigenpair orthogonal to ``deflate`` by thick-restart Lanczos.

    At every restart the ``keep`` lowest Ritz vectors are retained together
    with the next Lanczos vector, so convergence inside quasi-degenerate
    manifolds is not thrown away (a plain restart stalls there). The small
    projected matrix T is diagonal on the kept block with an arrow coupling
    to the first continuation vector, then tridiagonal.

    Each step subtracts the three-term recurrence (or the arrow) and
    projects out ``deflate``. Simon's recurrence (Math. Comp. 42, 115
    (1984)) estimates the new vector's overlaps with the basis from T: with
    omega_j the overlaps of basis vector j, q_i^H H q_j is (T omega_j)_i,
    so omega_{j+1} = (T omega_j - alpha_j omega_j - beta_{j-1} omega_{j-1}
    + 4 eps ||H||) / beta_j, the last term for rounding. A Gram-Schmidt pass
    against the locked vectors and the whole basis (a second on the DGKS
    test) runs only when max |omega_{j+1}| passes eta = min(sqrt(eps),
    tol / ||H||), and again on the next step; the estimate then resets to
    eps. ``h_norm`` bounds ||H||. After a thick restart every step takes the
    pass: the kept Ritz vectors carry the last cycle's passes in their
    residuals, which T does not record, so the estimate does not hold for
    them.

    Convergence is tested at every step: with the basis orthonormal to eta,
    |beta_j u[j, 0]| (the new beta times the last component of the lowest
    eigenvector of T) is the Ritz pair's residual to within tol, which is
    why eta is tied to tol. A cycle ends as soon as it is <= tol, or after
    ``m_cap`` basis vectors. The Ritz pair is then accepted only if
    ||H v - theta v||, from one more matvec, is <= tol as well; otherwise
    the cycle restarts. The returned residual is that check, so it lies
    near tol rather than at round-off.

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
        while j < m_cap and matvecs + 2 <= budget:
            w = op.matvec(basis[j])
            matvecs += 1
            alpha = float(np.vdot(basis[j], w).real)
            small[j, j] = alpha
            w -= alpha * basis[j]
            if j > kept:
                w -= beta * basis[j - 1]
            elif kept:
                w -= basis[:kept].T @ small[kept, :kept]
            if len(deflate):
                w -= deflate.T @ (deflate @ w.conj()).conj()
            before = float(np.linalg.norm(w))
            if kept or again:
                full, again = True, False
            else:
                # Simon's estimate, times beta: q_i^H H q_j read from T,
                # less what the recurrence subtracted, plus eps ||H|| of
                # rounding for each of the matvec and the three subtractions
                t = small[: j + 1, : j + 1]
                drift = t @ omega[: j + 1, j] - omega[: j + 1, : j + 1] @ t[:, j]
                drift += np.copysign(4 * EPS * h_norm, drift)
                full = again = float(np.abs(drift).max()) > eta * before
            if full:
                w = _orthogonalize(w, deflate, basis[: j + 1])
                beta = float(np.linalg.norm(w))
                if beta < DGKS_RATIO * before:
                    w = _orthogonalize(w, deflate, basis[: j + 1])
                    beta = float(np.linalg.norm(w))
                w_omega = np.full(j + 1, EPS)
            else:
                beta = before
                w_omega = drift / beta
            if beta < breakdown_tol:
                beta = 0.0
            j += 1
            theta, u = np.linalg.eigh(small[:j, :j])
            # a breakdown makes the estimate 0: the Krylov space is invariant
            if beta * abs(u[-1, 0]) <= tol or j == m_cap:
                break
            np.divide(w, beta, out=basis[j])
            small[j - 1, j] = small[j, j - 1] = beta
            omega[j, :j] = omega[:j, j] = w_omega

        n_small = j
        ritz = basis[:n_small].T @ u[:, 0]
        ritz /= float(np.linalg.norm(ritz))
        resid = float(np.linalg.norm(op.matvec(ritz) - theta[0] * ritz))
        matvecs += 1
        if resid <= tol:
            return (float(theta[0]), ritz, resid), matvecs
        if beta == 0.0:
            # invariant subspace exhausted: no restart can improve the pair
            return None, matvecs

        p = min(keep, n_small - 1)
        basis[:p] = u[:, :p].T @ basis[:n_small]
        np.divide(w, beta, out=basis[p])
        small.fill(0.0)
        small[np.arange(p), np.arange(p)] = theta[:p]
        small[p, :p] = small[:p, p] = beta * u[n_small - 1, :p]
        kept = p
    return None, matvecs


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
    ``n_converged < k`` rather than failing silently.

    A real operator gets real start vectors, so the Krylov basis, the
    deflation set and the returned vectors are float64 (half the memory of
    complex128); otherwise they are complex128.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    dim = 1 << op.n_sites
    if k > dim:
        raise ValueError(f"k={k} exceeds the Hilbert-space dimension {dim}")
    if not op.is_hermitian():
        raise ModelError("lanczos_extremal requires a Hermitian operator")

    rng = np.random.default_rng(seed)
    real = op._is_real
    dtype = np.float64 if real else np.complex128
    m_cap = min(dim, max(60, 3 * k + 10))
    keep = max(8, min(m_cap // 3, 20))
    found_vals: list[float] = []
    found_vecs: list[np.ndarray] = []
    found_resids: list[float] = []
    matvecs = 0
    h_norm = max(1.0, op.one_norm())

    def next_start() -> np.ndarray | None:
        for _ in range(8):
            v = rng.standard_normal(dim)
            if not real:
                v = v + 1j * rng.standard_normal(dim)
            if found_vecs:
                found = np.asarray(found_vecs)
                v, before = _orthogonalize(v, found), np.linalg.norm(v)
                if np.linalg.norm(v) < DGKS_RATIO * before:
                    v = _orthogonalize(v, found)
            nrm = np.linalg.norm(v)
            if nrm > 1e-8:
                return v / nrm
        return None

    while len(found_vals) < k and matvecs < max_iter:
        v0 = next_start()
        if v0 is None:
            break
        deflate = np.asarray(found_vecs) if found_vecs else np.empty((0, dim), dtype)
        pair, used = _lowest_deflated_eigenpair(
            op, v0, tol, max_iter - matvecs, m_cap, keep, deflate, h_norm
        )
        matvecs += used
        if pair is None:
            break
        val, vec, resid = pair
        found_vals.append(val)
        found_vecs.append(vec)
        found_resids.append(resid)

    # only converged pairs are kept, each with the residual that accepted it
    order = np.argsort(found_vals)
    return SpectrumResult(
        eigenvalues=np.array([found_vals[i] for i in order]),
        span=FlipSpan.of(op.n_sites, (1 << site for site in range(op.n_sites))),
        block_of=np.zeros(len(order), dtype=np.intp),
        coeffs=np.array([found_vecs[i] for i in order]) if found_vals else np.empty((0, dim), dtype),
        method="lanczos",
        residuals=np.array([found_resids[i] for i in order]),
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
