"""The Chebyshev expansion of e^{-iHt} that the Krylov routes ran before
their Lanczos runs, kept bit for bit as an oracle.

The eigenstate correlator summed Chebyshev moments against Bessel
functions (:func:`_unrestricted_series`); ``evolve`` and the
arbitrary-state correlator applied the expansion to vectors
(:func:`_chebyshev_vectors` with :func:`_expansion_weights`).
``test_chebyshev_oracle.py`` checks the Bessel functions against scipy,
and the a-priori caps of ``tcspin.dynamics`` against
:func:`_chebyshev_order`.
"""

import numpy as np


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
    # the samples whose column is seeded at each start order
    by_start = np.argsort(starts, kind="stable")
    orders, first = np.unique(starts[by_start], return_index=True)
    seeded = dict(zip(orders.tolist(), np.split(by_start, first[1:])))
    two_over_x = 2.0 / x
    sums = np.zeros((2, len(z)), dtype=np.complex128)  # even and odd orders
    term = np.empty(len(z), dtype=np.complex128)
    even = np.zeros(len(z))  # unnormalized J_k over even k > 0, doubled (exactly) at the end
    above = np.zeros(len(z))  # unnormalized J_{k+1}
    cur = np.zeros(len(z))  # unnormalized J_k
    below = np.empty(len(z))
    for k in range(max(int(starts.max()), len(coeffs) - 1), -1, -1):
        if k in seeded:
            cur[seeded[k]] = 1.0
        if k < len(coeffs):
            sums[k % 2] += np.multiply(coeffs[k], cur, out=term)
        if k == 0:
            break
        if k % 2 == 0:
            even += cur
        np.multiply(k, two_over_x, out=below)
        below *= cur
        below -= above
        if np.abs(below).max() > 2.0**500:
            big = np.abs(below) > 2.0**500
            for arr in (below, cur, sums[0], sums[1], even):
                arr[big] *= 2.0**-500
        above, cur, below = cur, below, above
    values = (sums[0] + np.sign(z) * sums[1]) / (2.0 * even + cur)
    values[tiny] = coeffs[0]
    return values


def _chebyshev_moments(
    matvec, phi: np.ndarray, h_phi: np.ndarray, centre: float, half_width: float, order: int
) -> np.ndarray:
    """mu_k = <phi|T_k(H~)|phi> for k = 0 .. order.

    T_2k = 2 T_k^2 - 1 and T_2k+1 = 2 T_k+1 T_k - T_1 give two moments per
    vector (Weisse et al., Rev. Mod. Phys. 78, 275 (2006), Sec. II), so
    ceil(order / 2) matvecs do, counting the one that made ``h_phi``.
    """
    mu = np.empty(order + 1, dtype=np.complex128)
    vectors = _chebyshev_vectors(matvec, phi, h_phi, centre, half_width)
    prev = next(vectors)
    mu[0] = np.vdot(prev, prev)
    for k in range(1, (order + 1) // 2 + 1):
        cur = next(vectors)
        overlap = np.vdot(cur, prev)
        mu[2 * k - 1] = overlap if k == 1 else 2.0 * overlap - mu[1]
        if 2 * k <= order:
            mu[2 * k] = 2.0 * np.vdot(cur, cur) - mu[0]
        prev = cur
    return mu


def _bessel_series_per_order(z, coeffs):
    """The reference form of :func:`_bessel_series`: it seeds the columns by
    testing ``starts == k`` and builds the 2^-500 overflow mask at every
    order, and accumulates 2 J_k into the normalization order by order."""
    x = np.abs(z)
    tiny = x <= 1e-30
    x = np.where(tiny, 1.0, x)
    starts = _miller_start(x)
    two_over_x = 2.0 / x
    sums = np.zeros((2, len(z)), dtype=np.complex128)
    norm = np.zeros(len(z))
    above = np.zeros(len(z))
    cur = np.zeros(len(z))
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


def _unrestricted_series(op, a, psi, e_psi, grid, step_tol):
    """The Chebyshev moment series on the full space, with H's own matvec
    and window: what correlator_krylov ran before it split phi by coset and
    before its Lanczos quadrature; within B of exact."""
    amps = psi.amplitudes if psi.amplitudes.imag.any() else psi.amplitudes.real
    phi = a.matvec(amps)
    times = grid.times()
    centre, half_width = _window(op.gershgorin_interval())
    norm = np.linalg.norm(phi)
    scale = norm * norm
    order, _ = _chebyshev_order(half_width * grid.t_end, scale, (grid.n_samples - 1) * step_tol)
    mu = _chebyshev_moments(op.matvec, phi, op.matvec(phi), centre, half_width, order)
    return _bessel_series(half_width * times, mu * _expansion_weights(order)) * np.exp(1j * (e_psi - centre) * times)
