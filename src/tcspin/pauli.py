"""Bitmask Pauli strings and their matrix-free action on state vectors.

Conventions, used everywhere in this package:

* Sites are numbered 1..N; site j lives in bit j-1 of a basis index
  (site 1 is the least significant bit).
* Basis bit value 0 means spin up (sigma_z eigenvalue +1), bit value 1
  means spin down (sigma_z eigenvalue -1).
* A Pauli string is stored as two N-bit masks: ``x_mask`` marks sites with
  an X component (X or Y), ``z_mask`` marks sites with a Z component
  (Z or Y). A site with both bits set carries Y. The phase i^{#Y} is
  folded in when an operator is compiled, so the stored letter product is
  always the Hermitian matrix product of I/X/Y/Z factors.
* An :class:`Operator` is compiled once, on first use, into one coefficient
  vector per distinct ``x_mask`` (bit representation as in Sandvik, AIP
  Conf. Proc. 1297, 135 (2010), Sec. 4); ``matvec``, the dense route's
  block matrices and ``to_dense`` all read that form, and
  :func:`apply_groups` applies it to a vector, or :meth:`FlipSpan.cut` of
  it to the stacked coordinates of some invariant sectors. A sector is a
  coset of :attr:`Operator.flip_span` (read from the terms), or one
  global-flip half of it; :attr:`Operator.sectors` lists them all.

Single-site actions: Z|0> = +|0>, Z|1> = -|1>, X|b> = |1-b>,
Y|0> = i|1>, Y|1> = -i|0>.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DenseCapError, DimensionError

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_I_POWER = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

DEFAULT_DENSE_CAP = 14

# Operator.is_hermitian's bound on an imaginary part, relative to the larger of 1
# and the largest weight
HERMITIAN_TOL = 1e-12


def dense_cap() -> int:
    """Largest site count of the dense route and of :func:`to_dense`.

    :func:`~tcspin.spectra.dense_spectrum` refuses a larger operator. It
    stores 2^N x 2^r numbers for invariant blocks of 2^r, so at the default
    of 14 the chain's blocks of 4 take 0.5 MiB, and a full-rank operator
    (an x or y field: one block) 2 GiB as float64 or 4 GiB as complex128.
    :func:`to_dense`, the tests' oracle, builds a 2^N x 2^N matrix. Override
    with the TCSPIN_DENSE_CAP environment variable; a value that is not an
    integer >= 0 raises ConfigError.
    """
    raw = os.environ.get("TCSPIN_DENSE_CAP")
    if raw is None:
        return DEFAULT_DENSE_CAP
    if not raw.strip().isdecimal():
        raise ConfigError(f"TCSPIN_DENSE_CAP must be an integer >= 0, got {raw!r}")
    return int(raw)


@dataclass(frozen=True)
class PauliString:
    """One tensor product of single-site Pauli letters with a complex weight.

    Immutable; safe to share across workers.
    """

    n_sites: int
    x_mask: int
    z_mask: int
    coeff: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        full = (1 << self.n_sites) - 1
        if self.x_mask & ~full or self.z_mask & ~full:
            raise ValueError("mask does not fit in n_sites bits")
        c = complex(self.coeff)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"coefficient must be finite, got {c}")
        object.__setattr__(self, "coeff", c)

    @classmethod
    def from_letters(cls, letters: str, coeff: complex = 1.0) -> "PauliString":
        """Build from a letter string like ``"IXZY"``, site 1 first."""
        x_mask = 0
        z_mask = 0
        for pos, letter in enumerate(letters):
            try:
                x_bit, z_bit = _LETTER_TO_BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x_mask |= x_bit << pos
            z_mask |= z_bit << pos
        return cls(n_sites=len(letters), x_mask=x_mask, z_mask=z_mask, coeff=coeff)

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def phase(self) -> complex:
        """i^{#Y}, the phase relating X^x Z^z bit action to the letter product."""
        return _I_POWER[self.y_count % 4]


@dataclass(frozen=True)
class FlipSpan:
    """The GF(2) span of flip masks; a string with mask x maps s only to
    s ^ x, so an operator leaves each coset of its span invariant. ``masks``
    are the distinct masks, ascending as in :attr:`Operator._groups`;
    ``basis`` the reduced echelon basis, ascending (no member holds another's
    leading bit, its pivot). A representative has no pivot bit set."""

    n_sites: int
    masks: tuple[int, ...]
    basis: tuple[int, ...]

    @classmethod
    def of(cls, n_sites: int, masks) -> "FlipSpan":
        masks = tuple(sorted(set(masks)))
        basis: list[int] = []
        for x in masks:
            for b in basis:
                x = min(x, x ^ b)  # clears b's leading bit from x when set
            if x:
                basis = [min(b, b ^ x) for b in basis] + [x]
        return cls(n_sites, masks, tuple(sorted(basis)))

    @property
    def rank(self) -> int:
        return len(self.basis)

    @functools.cached_property
    def members(self) -> np.ndarray:
        """The 2^r members, ascending (a later basis member is 0 at every
        earlier pivot): member j XORs the basis members at j's set bits."""
        members = np.zeros(1, dtype=np.intp)
        for b in self.basis:
            members = np.concatenate([members, members ^ b])
        return members

    @functools.cached_property
    def cosets(self) -> np.ndarray:
        """The (2^(N-r), 2^r) :meth:`rows` of every representative, ascending:
        row k's representative is k with a 0 bit put in at each pivot."""
        reps = np.arange(1 << (self.n_sites - self.rank), dtype=np.intp)
        for b in self.basis:
            p = b.bit_length() - 1
            reps = reps >> p << (p + 1) | reps & ((1 << p) - 1)
        return self.rows(reps)

    def representative(self, index):
        """The representative of an index or an integer array, by O(r) reduction."""
        for b in self.basis:
            index = index ^ (index >> (b.bit_length() - 1) & 1) * b
        return index

    def rows(self, reps) -> np.ndarray:
        """Row k holds the coset of ``reps[k]``, ascending: member j at position j."""
        return np.asarray(reps)[:, None] ^ self.members

    def locate(self, index: int) -> tuple[int, int]:
        """(row of :attr:`cosets`, position in it) of one index, in O(r):
        position bit k is its bit at pivot k, and the row its representative
        with the (zero) pivot bits taken out, highest first."""
        row, position = self.representative(index), 0
        for k in reversed(range(self.rank)):
            p = self.basis[k].bit_length() - 1
            position |= (index >> p & 1) << k
            row = row >> (p + 1) << p | row & ((1 << p) - 1)
        return row, position

    @functools.cached_property
    def flip_position(self) -> int | None:
        """Member position jP of the global flip 1...1, None when the span
        lacks it. Member j ^ jP is member j XOR 1...1, so position j of a
        coset pairs with position j ^ jP; the representatives of the pairs
        are the positions with jP's top bit clear (:attr:`halves`)."""
        full = (1 << self.n_sites) - 1
        return None if self.representative(full) else self.locate(full)[1]

    @functools.cached_property
    def halves(self) -> tuple[np.ndarray, np.ndarray]:
        """(representative positions, ascending; their partners, each ^ jP):
        the two halves of every coset under the global flip."""
        j_p = self.flip_position
        positions = np.arange(1 << self.rank, dtype=np.intp)
        reps = positions[positions >> (j_p.bit_length() - 1) & 1 == 0]
        return reps, reps ^ j_p

    def cut(self, groups, rows: np.ndarray, parities: np.ndarray | None = None) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """``groups``, compiled for these masks, on the flat vector stacking
        the sectors of ``rows`` (cosets from :meth:`rows`), in the
        coordinates of :meth:`Operator.coordinates`. With no ``parities`` a
        sector is its whole coset: entry k * 2^r + j is rows[k, j]. With them
        the groups must commute with the global flip P, and sector k is the
        P = parities[k] half of rows[k] (a row may appear once per parity):
        entry k * 2^(r-1) + i is the i-th pair of :attr:`halves`.

        Group x, at member position jx (member j ^ member jx is member
        j ^ jx), gathers from position ^ jx. With parities, a target with
        jP's top bit set is a partner, read as its representative target ^ jP
        with c * p; groups whose masks differ by P then share a gather and are
        merged, in ascending order of their first mask, and x = P joins the
        diagonal group. The result is the form :func:`apply_groups` takes.
        """
        positions, at, j_p, top = np.arange(rows.shape[1]), rows, 0, 0
        if parities is not None:
            j_p = self.flip_position
            top = 1 << (j_p.bit_length() - 1)
            positions = self.halves[0]
            at = rows[:, positions]
        merged: dict[int, np.ndarray] = {}
        for x, (c, _) in zip(self.masks, groups, strict=True):
            jx = int(np.searchsorted(self.members, x))
            c = c[at]
            if jx & top:
                jx ^= j_p
                c *= parities[:, None]
            merged[jx] = merged[jx] + c if jx in merged else c
        offsets = np.arange(0, at.size, len(positions))[:, None]

        def index(jx: int) -> np.ndarray:
            # position ^ jx is a representative, and its index among them is
            # it with jP's top bit (clear in each) taken out; with no
            # parities top is 0, and the index is position ^ jx itself
            gather = positions ^ jx
            return gather >> 1 & ~(top - 1) | gather & (top - 1)

        return tuple((c.ravel(), (offsets + index(jx)).ravel() if jx else None) for jx, c in merged.items())


@functools.cache
def _parity_signs(count: int) -> np.ndarray:
    """(-1)^{popcount(j)} for j < 2^count, read-only: the entries of every
    S_z with |z_mask| = count, which :func:`_z_signs` views."""
    signs = 1.0 - 2.0 * (np.bitwise_count(np.arange(1 << count)) & 1)
    signs.flags.writeable = False
    return signs


@functools.lru_cache(maxsize=128)
def _z_signs(n_sites: int, z_mask: int) -> np.ndarray:
    """S_z[r] = (-1)^{popcount(r & z_mask)} in the shape that broadcasts
    into a (2,)*n_sites view of a 2^N vector: axis a stands for bit
    n_sites - 1 - a and has length 2 where z_mask has that bit, 1 elsewhere.
    S_z is the outer product of [1, -1] over the bits of z_mask, whose
    entry is the parity of its compact index, so it holds 2^|z_mask|
    entries. It is a read-only view of :func:`_parity_signs`, so the two
    caches hold one array per popcount: fewer than 2^(N+1) entries in all."""
    shape = tuple(2 if z_mask >> bit & 1 else 1 for bit in reversed(range(n_sites)))
    return _parity_signs(z_mask.bit_count()).reshape(shape)


@dataclass(frozen=True)
class Operator:
    """Weighted sum of Pauli strings on a fixed number of sites.

    Terms keep their construction order; :meth:`canonicalize` merges
    duplicate strings, drops zero weights and sorts lexicographically on
    (x_mask, z_mask). Immutable; safe to share across workers.
    """

    n_sites: int
    terms: tuple[PauliString, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError(f"n_sites must be positive, got {self.n_sites}")
        terms = tuple(self.terms)
        for t in terms:
            if t.n_sites != self.n_sites:
                raise DimensionError(
                    f"term on {t.n_sites} sites inside operator on {self.n_sites}"
                )
        object.__setattr__(self, "terms", terms)

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    # True on the operators canonicalize returns: a flag, not a reference to
    # self, so that reference counting alone frees a dropped operator
    _is_canonical = False

    def canonicalize(self) -> "Operator":
        """The canonical form, computed once and kept (:attr:`_canonical`);
        an operator that this returned returns itself."""
        return self if self._is_canonical else self._canonical

    @functools.cached_property
    def _canonical(self) -> "Operator":
        merged: dict[tuple[int, int], complex] = {}
        for t in self.terms:
            key = (t.x_mask, t.z_mask)
            merged[key] = merged.get(key, 0.0 + 0.0j) + t.coeff
        canon = tuple(
            PauliString(self.n_sites, x, z, c)
            for (x, z), c in sorted(merged.items())
            if c != 0
        )
        op = Operator(self.n_sites, canon)
        object.__setattr__(op, "_is_canonical", True)
        return op

    def is_hermitian(self) -> bool:
        """True iff every canonical coefficient is real (within
        :data:`HERMITIAN_TOL` of the largest weight, or of 1).

        The stored letter products are Hermitian matrices and distinct strings
        are linearly independent, so this is equivalent to comparing against
        the dense conjugate transpose.
        """
        canon = self.canonicalize()
        scale = max((abs(t.coeff) for t in canon.terms), default=1.0)
        return all(abs(t.coeff.imag) <= HERMITIAN_TOL * max(1.0, scale) for t in canon.terms)

    def one_norm(self) -> float:
        """Sum of |coeff| over canonical terms; an upper bound on the operator norm."""
        return sum(abs(t.coeff) for t in self.canonicalize().terms)

    @functools.cached_property
    def flip_span(self) -> FlipSpan:
        """The span of the terms' flip masks: no compile, built once."""
        return FlipSpan.of(self.n_sites, (t.x_mask for t in self.terms))

    @functools.cached_property
    def sectors(self) -> tuple[np.ndarray, np.ndarray | None]:
        """H's invariant sectors as (rows, parities) for :meth:`FlipSpan.cut`
        and :meth:`coordinates`: the cosets of :attr:`flip_span` with no
        parities or, where the global flip P = X...X lies in the span and
        commutes with every term (each z_mask has even weight: the bare,
        Heisenberg and x-field chains), each coset twice, all P = +1 halves
        and then all P = -1 ones. Read from the terms, with no compile."""
        span = self.flip_span
        if span.flip_position is None or any(t.z_mask.bit_count() % 2 for t in self.terms):
            return span.cosets, None
        return np.concatenate([span.cosets, span.cosets]), np.repeat([1.0, -1.0], len(span.cosets))

    def coordinates(self, v: np.ndarray) -> np.ndarray:
        """``v`` on :attr:`sectors`, one row per sector: v on the coset, or
        on a P = p half (v[a] + p v[b]) / sqrt(2) over the pairs a, b of
        :attr:`FlipSpan.halves`. On that half v[b] = p v[a], so the row
        determines v there, with its norm."""
        cosets, parities = self.flip_span.cosets, self.sectors[1]
        if parities is None:
            return v[cosets]
        reps, partners = self.flip_span.halves
        a, b = v[cosets[:, reps]], v[cosets[:, partners]]
        return np.concatenate([a + b, a - b]) / math.sqrt(2.0)

    def scatter(self, sectors: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`coordinates` for vectors on one sector each:
        row i of the (n, 2^N) result has the coordinates ``rows[i]`` on
        :attr:`sectors` row ``sectors[i]`` and 0 on every other. On a P = p
        half the pair a, b of :attr:`FlipSpan.halves` gets u / sqrt(2) and
        p u / sqrt(2), so v[b] = p v[a] bit for bit."""
        cosets, parities = self.sectors
        out = np.zeros((len(rows), 1 << self.n_sites), dtype=rows.dtype)
        at = np.arange(len(rows))[:, None]
        if parities is None:
            out[at, cosets[sectors]] = rows
            return out
        reps, partners = self.flip_span.halves
        half = rows / math.sqrt(2.0)
        out[at, cosets[sectors][:, reps]] = half
        out[at, cosets[sectors][:, partners]] = half * parities[sectors][:, None]
        return out

    def sector_discs(self) -> tuple[np.ndarray, np.ndarray]:
        """(centre, radius) of the Gershgorin disc of every row of every
        sector's matrix, shaped like :meth:`coordinates`' output, from the
        compiled groups and with no matvec.

        On a coset a row is a basis state r, with its full-space disc
        (:func:`gershgorin_discs`). On a P = p half, row (|a> + p|b>) /
        sqrt(2) has the centre c_0[a] + p c_P[a], c_P the coefficients of
        the group of the global flip, and its other entries are
        H[a, a'] + p H[a, b'] over the other pairs a', b': so its radius is
        at most the radius of row a less |c_P[a]|, the sum over the groups
        other than the diagonal and P. That bound is the radius returned."""
        cosets, parities = self.sectors
        dim = 1 << self.n_sites
        groups = dict(zip(self.flip_span.masks, self._groups))
        flip = groups.pop(dim - 1, None) if parities is not None else None
        centre, radius = (np.broadcast_to(a, dim) for a in gershgorin_discs(tuple(groups.values())))
        if parities is None:
            return centre[cosets], radius[cosets]
        at = self.flip_span.cosets[:, self.flip_span.halves[0]]
        centre, radius = centre[at], radius[at]
        flip = 0.0 if flip is None else flip[0].real[at]
        return np.concatenate([centre + flip, centre - flip]), np.concatenate([radius, radius])

    @functools.cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """The compiled form: one (coefficients, gather index) pair per x_mask.

        Groups come in ascending x_mask order, that of ``flip_span.masks``.
        Group x acts as out[r] += c[r] * amps[r ^ x], where c[r] sums coeff *
        i^{#Y} * (-1)^{popcount((r ^ x) & z_mask)} over the terms with that
        x_mask, in their stored order. The diagonal group (x = 0) has no
        gather index. The coefficients are float64 when every group is real,
        complex128 otherwise (see :attr:`_is_real`). Built on first use and
        kept for the life of the instance.

        The sign splits as (-1)^{popcount(x & z)} * S_z[r], so each term adds
        its weight w, times that scalar sign, as w * S_z (:func:`_z_signs`)
        broadcast into a (2,)*N view of its group's accumulator: 2^|z| sign
        entries per term, not 2^N index temporaries. Every added entry is
        exactly +-w, summed in stored order, so the groups are bit for bit
        those of the full-width parity sum. The accumulators are float64
        when every weight is real; otherwise complex128, cast down to
        float64 when every imaginary part cancels exactly.
        """
        n = self.n_sites
        weights = [t.coeff * t.phase for t in self.terms]
        real = all(w.imag == 0 for w in weights)
        coeffs: dict[int, np.ndarray] = {}
        for t, w in zip(self.terms, weights):
            c = coeffs.get(t.x_mask)
            if c is None:
                c = coeffs[t.x_mask] = np.zeros((2,) * n, np.float64 if real else np.complex128)
            w = w.real if real else w
            c += (-w if (t.x_mask & t.z_mask).bit_count() & 1 else w) * _z_signs(n, t.z_mask)
        groups = {x: c.reshape(-1) for x, c in sorted(coeffs.items())}
        if not real and not any(c.imag.any() for c in groups.values()):
            groups = {x: c.real.copy() for x, c in groups.items()}
        idx = np.arange(1 << n, dtype=np.intp)
        return tuple((c, idx ^ x if x else None) for x, c in groups.items())

    @functools.cached_property
    def _is_real(self) -> bool:
        """True when every compiled group is float64: real weights on strings
        with an even number of Y letters. An empty operator is real."""
        return all(c.dtype == np.float64 for c, _ in self._groups)

    def matvec(self, amps: np.ndarray) -> np.ndarray:
        """Matrix-free action on a raw amplitude array: :func:`apply_groups`
        on the compiled groups, after a shape check.

        The result is float64 when the operator is real (:attr:`_is_real`)
        and ``amps`` is float64, and complex128 otherwise. On a real input it
        equals, bit for bit, the real part of the complex128 result for the
        same amplitudes.
        """
        dim = 1 << self.n_sites
        if amps.shape != (dim,):
            raise DimensionError(f"state has shape {amps.shape}, expected ({dim},)")
        return apply_groups(self._groups, amps)

    def gershgorin_interval(self) -> tuple[float, float]:
        """An interval [lo, hi] holding every eigenvalue of a Hermitian
        operator: :func:`gershgorin_interval` of the compiled groups."""
        return gershgorin_interval(self._groups)

    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.n_sites != self.n_sites:
            raise DimensionError(f"cannot add operators on {self.n_sites} and {other.n_sites} sites")
        return Operator(self.n_sites, self.terms + other.terms)


@dataclass
class StateVector:
    """Complex amplitudes over the computational (sigma_z) basis.

    Index bit j holds the state of site j+1; bit value 0 is spin up.
    """

    n_sites: int
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        dim = 1 << self.n_sites
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (dim,):
            raise DimensionError(f"amplitudes have shape {amps.shape}, expected ({dim},)")
        self.amplitudes = amps

    @classmethod
    def basis_state(cls, n_sites: int, index: int) -> "StateVector":
        if not 0 <= index < 1 << n_sites:
            raise ValueError(f"basis index {index} is not in [0, {1 << n_sites})")
        amps = np.zeros(1 << n_sites, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_sites, amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_sites, self.amplitudes / n)


def apply_groups(groups, amps: np.ndarray) -> np.ndarray:
    """sum over groups of c * amps[perm]: a compiled operator on a vector,
    or on each column of a (dim, k) slab.

    ``groups`` is a sequence of (coefficients, gather index or None) pairs
    of one length and one coefficient dtype, as :attr:`Operator._groups`
    holds them for the whole space and :meth:`FlipSpan.cut` for a set of
    its invariant sectors. Groups are accumulated in their given order,
    so the result is bit-deterministic regardless of any outer worker pool,
    and column j of a slab's result equals, bit for bit, the result for
    column j alone. It has the shape of ``amps``, and is float64 when
    ``amps`` and the coefficients are, complex128 otherwise.
    """
    real = amps.dtype == np.float64 and (not groups or groups[0][0].dtype == np.float64)
    dtype = np.float64 if real else np.complex128
    out = np.zeros(amps.shape, dtype=dtype)
    # one contiguous copy of a strided slab, and the cast numpy makes for
    # each complex product anyway, made once
    amps = np.ascontiguousarray(amps, dtype=dtype)
    for c, perm in groups:
        c = c if amps.ndim == 1 else c[:, None]
        if perm is None:
            out += c * amps
        else:
            gathered = amps[perm]
            out += np.multiply(c, gathered, out=gathered)
    return out


def gershgorin_discs(groups) -> tuple[np.ndarray | float, np.ndarray | float]:
    """(centre, radius) of every row's Gershgorin disc, in one pass over a
    Hermitian group list.

    Row r of the matrix has the diagonal group's c[r] as centre, and the
    other groups' |c[r]| summed as radius (each group puts one entry in the
    row, in another column). Either is the float 0.0 when no group adds to
    it. Gershgorin's theorem: every eigenvalue of the matrix, or of one of
    its invariant cosets, lies in a disc of a row of it. Costs no matvec.
    """
    centre = radius = 0.0
    for c, perm in groups:
        if perm is None:
            centre = c.real
        else:
            radius = radius + np.abs(c)
    return centre, radius


def gershgorin_interval(groups) -> tuple[float, float]:
    """An interval [lo, hi] holding every eigenvalue of a Hermitian group
    list: the union of its :func:`gershgorin_discs`. On the groups of some
    invariant cosets it encloses the spectrum on those cosets only."""
    centre, radius = gershgorin_discs(groups)
    return float(np.min(centre - radius)), float(np.max(centre + radius))


def to_dense(op: Operator, cap: int | None = None) -> np.ndarray:
    """Dense 2^N x 2^N matrix of an operator: the tests' oracle.

    No runtime path builds it; the dense route reads the compiled groups
    block by block. Filled from the same compiled groups as
    :meth:`Operator.matvec`, so it is
    float64 when every group is real (real weights on strings with an even
    number of Y letters, such as the TC chain, Heisenberg exchange and x or z
    fields) and complex128 otherwise. Refuses to build beyond ``cap`` sites
    (default :func:`dense_cap`).
    """
    limit = dense_cap() if cap is None else cap
    if op.n_sites > limit:
        raise DenseCapError(f"dense matrix at N={op.n_sites} exceeds cap {limit}")
    dim = 1 << op.n_sites
    mat = np.zeros((dim, dim), dtype=np.float64 if op._is_real else np.complex128)
    idx = np.arange(dim, dtype=np.intp)
    for c, perm in op._groups:
        mat[idx, idx if perm is None else perm] = c
    return mat

