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
  Conf. Proc. 1297, 135 (2010), Sec. 4); ``matvec`` and ``to_dense`` both
  read that form.

Single-site actions: Z|0> = +|0>, Z|1> = -|1>, X|b> = |1-b>,
Y|0> = i|1>, Y|1> = -i|0>.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DenseCapError, DimensionError

_LETTER_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}
_I_POWER = (1.0 + 0.0j, 1.0j, -1.0 + 0.0j, -1.0j)

DEFAULT_DENSE_CAP = 14


def dense_cap() -> int:
    """Largest site count for which dense 2^N x 2^N matrices may be built.

    The default of 14 corresponds to a 16384 x 16384 matrix: 2 GiB as
    float64 for a real operator, 4 GiB as complex128 otherwise. Override
    with the TCSPIN_DENSE_CAP environment variable. The dense path is an
    oracle for testing, not the workhorse.
    """
    raw = os.environ.get("TCSPIN_DENSE_CAP")
    return DEFAULT_DENSE_CAP if raw is None else int(raw)


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

    def letters(self) -> str:
        """Letter string, site 1 first."""
        return "".join(
            _BITS_TO_LETTER[(self.x_mask >> pos) & 1, (self.z_mask >> pos) & 1]
            for pos in range(self.n_sites)
        )

    @property
    def y_count(self) -> int:
        return (self.x_mask & self.z_mask).bit_count()

    @property
    def weight(self) -> int:
        """Number of non-identity sites."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def phase(self) -> complex:
        """i^{#Y}, the phase relating X^x Z^z bit action to the letter product."""
        return _I_POWER[self.y_count % 4]

    def conjugated(self) -> "PauliString":
        """The Hermitian conjugate (letters are self-adjoint, so conj the weight)."""
        return PauliString(self.n_sites, self.x_mask, self.z_mask, self.coeff.conjugate())

    def __repr__(self) -> str:
        return f"PauliString({self.coeff!r} * {self.letters()})"


def strings_commute(a: PauliString, b: PauliString) -> bool:
    """Symplectic commutation test.

    Two Pauli strings commute iff the number of sites where both letters are
    non-identity and differ is even; in mask form that count is
    popcount(a.x & b.z) + popcount(a.z & b.x).
    """
    if a.n_sites != b.n_sites:
        raise DimensionError(f"strings act on {a.n_sites} vs {b.n_sites} sites")
    clashes = (a.x_mask & b.z_mask).bit_count() + (a.z_mask & b.x_mask).bit_count()
    return clashes % 2 == 0


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

    @classmethod
    def from_label_terms(cls, terms: list[tuple[complex, str]]) -> "Operator":
        """Build from (coeff, letters) pairs, e.g. ``[(-1.0, "ZZI"), (0.5, "XXX")]``."""
        if not terms:
            raise ValueError("cannot infer n_sites from an empty term list")
        strings = [PauliString.from_letters(letters, coeff) for coeff, letters in terms]
        return cls(strings[0].n_sites, tuple(strings))

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def canonicalize(self) -> "Operator":
        merged: dict[tuple[int, int], complex] = {}
        for t in self.terms:
            key = (t.x_mask, t.z_mask)
            merged[key] = merged.get(key, 0.0 + 0.0j) + t.coeff
        canon = tuple(
            PauliString(self.n_sites, x, z, c)
            for (x, z), c in sorted(merged.items())
            if c != 0
        )
        return Operator(self.n_sites, canon)

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        """True iff every canonical coefficient is real (within ``tol``).

        The stored letter products are Hermitian matrices and distinct strings
        are linearly independent, so this is equivalent to comparing against
        the dense conjugate transpose.
        """
        canon = self.canonicalize()
        scale = max((abs(t.coeff) for t in canon.terms), default=1.0)
        return all(abs(t.coeff.imag) <= tol * max(1.0, scale) for t in canon.terms)

    def dagger(self) -> "Operator":
        return Operator(self.n_sites, tuple(t.conjugated() for t in self.terms))

    def one_norm(self) -> float:
        """Sum of |coeff| over canonical terms; an upper bound on the operator norm."""
        return sum(abs(t.coeff) for t in self.canonicalize().terms)

    @functools.cached_property
    def _groups(self) -> tuple[tuple[np.ndarray, np.ndarray | None], ...]:
        """The compiled form: one (coefficients, gather index) pair per x_mask.

        Groups come in ascending x_mask order. Group x acts as
        out[r] += c[r] * amps[r ^ x], where c[r] sums coeff * i^{#Y} *
        (-1)^{popcount((r ^ x) & z_mask)} over the terms with that x_mask, in
        their stored order. The diagonal group (x = 0) has no gather index.
        The coefficients are float64 when every group is real, complex128
        otherwise. Built on first use and kept for the life of the instance.
        """
        dim = 1 << self.n_sites
        idx = np.arange(dim, dtype=np.intp)
        coeffs: dict[int, np.ndarray] = {}
        for t in self.terms:
            parity = np.bitwise_count((idx ^ t.x_mask) & t.z_mask) & 1
            c = coeffs.setdefault(t.x_mask, np.zeros(dim, dtype=np.complex128))
            c += (t.coeff * t.phase) * (1.0 - 2.0 * parity)
        real = not any(c.imag.any() for c in coeffs.values())
        return tuple(
            (c.real.copy() if real else c, idx ^ x if x else None)
            for x, c in sorted(coeffs.items())
        )

    def matvec(self, amps: np.ndarray) -> np.ndarray:
        """Matrix-free action on a raw amplitude array; always complex128.

        Groups are accumulated in ascending x_mask order, so the result is
        bit-deterministic regardless of any outer worker pool.
        """
        dim = 1 << self.n_sites
        if amps.shape != (dim,):
            raise DimensionError(f"state has shape {amps.shape}, expected ({dim},)")
        out = np.zeros(dim, dtype=np.complex128)
        for c, perm in self._groups:
            out += c * (amps if perm is None else amps[perm])
        return out

    def gershgorin_interval(self) -> tuple[float, float]:
        """An interval [lo, hi] holding every eigenvalue of a Hermitian operator.

        Gershgorin's theorem on the compiled groups: row r of the matrix has
        the diagonal group's c[r] as centre, and the other groups' |c[r]|
        summed as radius (each group puts one entry in the row). Costs no
        matvec.
        """
        dim = 1 << self.n_sites
        centre = np.zeros(dim)
        radius = np.zeros(dim)
        for c, perm in self._groups:
            if perm is None:
                centre = c.real
            else:
                radius += np.abs(c)
        return float(np.min(centre - radius)), float(np.max(centre + radius))

    def expectation(self, amps: np.ndarray) -> complex:
        return complex(np.vdot(amps, self.matvec(amps)))

    def __add__(self, other: "Operator") -> "Operator":
        if not isinstance(other, Operator):
            return NotImplemented
        if other.n_sites != self.n_sites:
            raise DimensionError(f"cannot add operators on {self.n_sites} and {other.n_sites} sites")
        return Operator(self.n_sites, self.terms + other.terms)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(
            self.n_sites,
            tuple(PauliString(t.n_sites, t.x_mask, t.z_mask, t.coeff * scalar) for t in self.terms),
        )

    __rmul__ = __mul__

    def to_json(self) -> str:
        """JSON array of terms, each ``{"coeff": [re, im], "letters": "..."}``.

        Letters are written site 1 first. Floats round-trip bit-exactly.
        """
        return json.dumps(
            [{"coeff": [t.coeff.real, t.coeff.imag], "letters": t.letters()} for t in self.terms]
        )

    @classmethod
    def from_json(cls, text: str, n_sites: int | None = None) -> "Operator":
        entries = json.loads(text)
        if not isinstance(entries, list):
            raise ValueError("operator JSON must be an array of terms")
        terms = []
        for entry in entries:
            re, im = entry["coeff"]
            terms.append(PauliString.from_letters(entry["letters"], complex(re, im)))
        if terms:
            n = terms[0].n_sites
            if n_sites is not None and n_sites != n:
                raise DimensionError(f"JSON terms have {n} sites, expected {n_sites}")
            return cls(n, tuple(terms))
        if n_sites is None:
            raise ValueError("n_sites required to deserialize an empty operator")
        return cls(n_sites, ())

    def __repr__(self) -> str:
        return f"Operator(n_sites={self.n_sites}, n_terms={self.n_terms})"


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
        amps = np.zeros(1 << n_sites, dtype=np.complex128)
        amps[index] = 1.0
        return cls(n_sites, amps)

    @property
    def dim(self) -> int:
        return 1 << self.n_sites

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, tol: float = 1e-12) -> bool:
        return abs(self.norm - 1.0) <= tol

    def normalized(self) -> "StateVector":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.n_sites, self.amplitudes / n)

    def inner(self, other: "StateVector") -> complex:
        """<self|other>."""
        if other.n_sites != self.n_sites:
            raise DimensionError(f"states on {self.n_sites} vs {other.n_sites} sites")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def copy(self) -> "StateVector":
        return StateVector(self.n_sites, self.amplitudes.copy())


def apply_string(s: PauliString, v: StateVector) -> StateVector:
    """Act with a single Pauli string; the output is not renormalized."""
    if s.n_sites != v.n_sites:
        raise DimensionError(f"string on {s.n_sites} sites, state on {v.n_sites}")
    return StateVector(v.n_sites, Operator(s.n_sites, (s,)).matvec(v.amplitudes))


def apply_operator(op: Operator, v: StateVector) -> StateVector:
    """Act with a sum of Pauli strings, never materializing a matrix."""
    if op.n_sites != v.n_sites:
        raise DimensionError(f"operator on {op.n_sites} sites, state on {v.n_sites}")
    return StateVector(v.n_sites, op.matvec(v.amplitudes))


def to_dense(op: Operator, cap: int | None = None) -> np.ndarray:
    """Dense 2^N x 2^N matrix of an operator; the test oracle path.

    Filled from the same compiled groups as :meth:`Operator.matvec`, so it is
    float64 when every group is real (real weights on strings with an even
    number of Y letters, such as the TC chain, Heisenberg exchange and x or z
    fields) and complex128 otherwise. Refuses to build beyond ``cap`` sites
    (default :func:`dense_cap`).
    """
    limit = dense_cap() if cap is None else cap
    if op.n_sites > limit:
        raise DenseCapError(f"dense matrix at N={op.n_sites} exceeds cap {limit}")
    dim = 1 << op.n_sites
    groups = op._groups
    mat = np.zeros((dim, dim), dtype=groups[0][0].dtype if groups else np.float64)
    idx = np.arange(dim, dtype=np.intp)
    for c, perm in groups:
        mat[idx, idx if perm is None else perm] = c
    return mat


def global_flip_operator(n: int) -> Operator:
    """The spin-flip parity operator: the all-X string with weight 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Operator(n, (PauliString(n, (1 << n) - 1, 0, 1.0),))


def identity_operator(n: int, coeff: complex = 1.0) -> Operator:
    return Operator(n, (PauliString(n, 0, 0, coeff),))
