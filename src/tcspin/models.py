"""Builders for the chain Hamiltonian, perturbations, order parameters and states.

The main model couples a periodic (or open) ZZ Ising chain to two
half-chain X strings of opposite sign:

    H(J) = -sum_j sigma_z(j) sigma_z(j+1)
           + J * sigma_x(1)...sigma_x(h) - J * sigma_x(h+1)...sigma_x(N)

with h = floor(N/2). The global spin flip (all-X string) commutes with H(J),
so eigenstates carry a parity label, and for small J the two lowest states
are close to the GHZ pair (|0...0> +/- |1...1>)/sqrt(2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError
from .pauli import Operator, PauliString, StateVector

Axis = Literal["x", "y", "z"]
Boundary = Literal["periodic", "open"]
PerturbationKind = Literal["heisenberg_exchange", "random_onsite_field"]
Distribution = Literal["uniform_pm1", "gaussian_unit"]
GHZSign = Literal["plus", "minus"]

_AXIS_MASKS = {"x": (1, 0), "y": (1, 1), "z": (0, 1)}


def _single_site(n: int, site: int, axis: Axis, coeff: complex) -> PauliString:
    """Pauli letter on one site (1-based), identity elsewhere."""
    x_bit, z_bit = _AXIS_MASKS[axis]
    pos = site - 1
    return PauliString(n, x_bit << pos, z_bit << pos, coeff)


def _two_site(n: int, site_a: int, site_b: int, axis: Axis, coeff: complex) -> PauliString:
    x_bit, z_bit = _AXIS_MASKS[axis]
    xm = (x_bit << (site_a - 1)) | (x_bit << (site_b - 1))
    zm = (z_bit << (site_a - 1)) | (z_bit << (site_b - 1))
    return PauliString(n, xm, zm, coeff)


def _site_range_mask(first: int, last: int) -> int:
    """Bit mask covering sites first..last inclusive (1-based)."""
    return ((1 << last) - 1) ^ ((1 << (first - 1)) - 1)


@dataclass(frozen=True)
class TCModelConfig:
    """Parameters of the ZZ-plus-string chain.

    ``half_split`` is always floor(n_sites/2): the first X string covers
    sites 1..half_split, the second covers half_split+1..n_sites (for odd N
    the second string is one site longer, exactly as the index ranges
    dictate).
    """

    n_sites: int
    j_coupling: float
    boundary: Boundary = "periodic"

    def __post_init__(self) -> None:
        if self.n_sites < 4:
            raise ConfigError(
                f"n_sites must be >= 4 (got {self.n_sites}): at N=2 the periodic ZZ sum "
                "duplicates the single bond and at N=3 one half-string is a single site"
            )
        if self.boundary not in ("periodic", "open"):
            raise ConfigError(f"boundary must be 'periodic' or 'open', got {self.boundary!r}")

    @property
    def half_split(self) -> int:
        return self.n_sites // 2


@dataclass(frozen=True)
class PerturbationSpec:
    """A Heisenberg-exchange or seeded random-onsite-field perturbation.

    ``strength`` is the exchange coupling for ``heisenberg_exchange`` and the
    field scale for ``random_onsite_field``. The seed fully determines the
    field realization; axis and distribution apply to the random field only.
    """

    kind: PerturbationKind
    strength: float
    axis: Axis = "z"
    seed: int = 0
    distribution: Distribution = "uniform_pm1"

    def __post_init__(self) -> None:
        if self.kind not in ("heisenberg_exchange", "random_onsite_field"):
            raise ConfigError(f"unknown perturbation kind {self.kind!r}")
        if not self.strength >= 0:
            raise ConfigError(f"strength must be >= 0, got {self.strength}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.axis not in ("x", "y", "z"):
            raise ConfigError(f"axis must be one of x/y/z, got {self.axis!r}")
        if self.distribution not in ("uniform_pm1", "gaussian_unit"):
            raise ConfigError(f"unknown distribution {self.distribution!r}")


def build_tc_hamiltonian(cfg: TCModelConfig) -> Operator:
    """Assemble H(J) as a canonical Pauli-string sum.

    Term content: -1 * sigma_z(j) sigma_z(j+1) for j = 1..N (periodic,
    site N+1 = site 1) or j = 1..N-1 (open); +J on the X string over
    sites 1..floor(N/2); -J on the X string over the remaining sites.
    Hermitian by construction.
    """
    n = cfg.n_sites
    terms: list[PauliString] = []
    n_bonds = n if cfg.boundary == "periodic" else n - 1
    for j in range(1, n_bonds + 1):
        k = j % n + 1
        terms.append(_two_site(n, j, k, "z", -1.0))
    h = cfg.half_split
    j_val = float(cfg.j_coupling)
    terms.append(PauliString(n, _site_range_mask(1, h), 0, +j_val))
    terms.append(PauliString(n, _site_range_mask(h + 1, n), 0, -j_val))
    return Operator(n, tuple(terms)).canonicalize()


def build_perturbation(n: int, spec: PerturbationSpec, boundary: Boundary = "periodic") -> Operator:
    """Assemble a perturbation operator on ``n`` sites.

    Heisenberg exchange: strength * sum_j (XX + YY + ZZ) on neighboring
    bonds, with the same boundary rule as the main model. Random onsite
    field: sum_j h_j * sigma_axis(j) with h_j drawn from the seeded
    distribution scaled by strength; identical (n, spec) always yields an
    identical operator.
    """
    if n < 2:
        raise ConfigError(f"perturbations need n >= 2, got {n}")
    terms: list[PauliString] = []
    if spec.kind == "heisenberg_exchange":
        n_bonds = n if boundary == "periodic" else n - 1
        eps = float(spec.strength)
        for j in range(1, n_bonds + 1):
            k = j % n + 1
            for axis in ("x", "y", "z"):
                terms.append(_two_site(n, j, k, axis, eps))
    else:
        rng = np.random.default_rng(spec.seed)
        if spec.distribution == "uniform_pm1":
            fields = rng.uniform(-1.0, 1.0, size=n)
        else:
            fields = rng.standard_normal(n)
        fields = spec.strength * fields
        for j in range(1, n + 1):
            terms.append(_single_site(n, j, spec.axis, float(fields[j - 1])))
    return Operator(n, tuple(terms)).canonicalize()


def add_perturbations(op: Operator, specs: tuple[PerturbationSpec, ...], boundary: Boundary) -> Operator:
    """``op`` plus each perturbation of ``specs`` in order, canonicalized; ``op``
    itself when there is none."""
    for spec in specs:
        op = op + build_perturbation(op.n_sites, spec, boundary)
    return op.canonicalize() if specs else op


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


def magnetization_operator(n: int, axis: Axis) -> Operator:
    """The intensive magnetization (1/N) sum_j sigma_axis(j)."""
    if n < 1:
        raise ConfigError(f"n must be positive, got {n}")
    coeff = 1.0 / n
    return Operator(n, tuple(_single_site(n, j, axis, coeff) for j in range(1, n + 1)))

