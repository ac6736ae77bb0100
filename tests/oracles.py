"""Helpers that only the tests call, kept bit for bit from ``tcspin`` once no
CLI run reached them.

:func:`evolve` propagates one state by the Lanczos windows that the
arbitrary-state correlator runs (``tcspin.dynamics._trajectory``);
:func:`build_ghz`, :func:`global_flip_operator` and :func:`strings_commute`
are the GHZ pair, the spin-flip parity and the symplectic commutation test;
:func:`from_label_terms` and :func:`letters` read and write Pauli letter
strings.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Literal

import numpy as np

from tcspin.dynamics import _check_operands, _check_step_tol, _trajectory, _warn_past
from tcspin.errors import ConfigError, DimensionError
from tcspin.pauli import _LETTER_TO_BITS, Operator, PauliString, StateVector

GHZSign = Literal["plus", "minus"]

_BITS_TO_LETTER = {bits: letter for letter, bits in _LETTER_TO_BITS.items()}


def evolve(op: Operator, v: StateVector, t: float, step_tol: float = 1e-10) -> StateVector:
    """e^{-iHt} v for a normalized state within ``step_tol``, by the
    windows of ``_trajectory`` (an eigenvector to that accuracy costs one
    matvec and returns e^{-i <v|H|v> t} v; t = 0 returns v). Logs a warning
    where round-off keeps the bound past ``step_tol``. ModelError for a
    non-Hermitian ``op``, ValueError for a non-finite ``t``."""
    _check_step_tol(step_tol)
    _check_operands(op, v)
    if not math.isfinite(t):
        raise ValueError(f"t must be finite, got {t}")
    if abs(v.norm - 1.0) > 1e-10:
        raise ValueError(f"evolve expects a normalized state (norm {v.norm})")
    tally = Counter()
    (out,) = _trajectory(op, v.amplitudes, np.array([t]), step_tol, tally)
    _warn_past(tally["bound"], step_tol)
    return StateVector(v.n_sites, out.copy())  # at t = 0, out is v's own array


def build_ghz(n: int, sign: GHZSign) -> StateVector:
    """(|0...0> +/- |1...1>)/sqrt(2), normalized."""
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    if sign not in ("plus", "minus"):
        raise ConfigError(f"sign must be 'plus' or 'minus', got {sign!r}")
    amps = np.zeros(1 << n, dtype=np.complex128)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[(1 << n) - 1] = (1.0 if sign == "plus" else -1.0) / np.sqrt(2.0)
    return StateVector(n, amps)


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


def from_label_terms(terms: list[tuple[complex, str]]) -> Operator:
    """Build from (coeff, letters) pairs, e.g. ``[(-1.0, "ZZI"), (0.5, "XXX")]``."""
    if not terms:
        raise ValueError("cannot infer n_sites from an empty term list")
    strings = [PauliString.from_letters(letters, coeff) for coeff, letters in terms]
    return Operator(strings[0].n_sites, tuple(strings))


def global_flip_operator(n: int) -> Operator:
    """The spin-flip parity operator: the all-X string with weight 1."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return Operator(n, (PauliString(n, (1 << n) - 1, 0, 1.0),))


def letters(s: PauliString) -> str:
    """Letter string, site 1 first."""
    return "".join(
        _BITS_TO_LETTER[(s.x_mask >> pos) & 1, (s.z_mask >> pos) & 1]
        for pos in range(s.n_sites)
    )
