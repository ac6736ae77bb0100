"""Center-of-mass harmonic oscillator: the 1/N-vanishing control case.

An isolated center-of-mass mode of N particles of mass m0 has
H = p^2/(2 N m0) + N m0 w^2 x^2 / 2; its ground-state two-time correlator
<0| x(t) x(0) |0> = hbar/(2 N m0 w) e^{-iwt} decays as 1/N, the baseline
against which the spin chain's persistent oscillation amplitude is
contrasted. The mode is worked in its own number basis, not shoehorned
into spin space: fidelity to the closed-form expression matters more here
than code reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import CorrelationSeries, TimeGrid
from .errors import PlanError

# Bounds on the correlator's power a^2: at least the smallest normal
# float64, and at most 2^800, which with a grid's n_samples * |t| <= 2^100
# (dynamics._EXTENT_CAP) keeps the extraction's Newton sums (4 n_samples^2
# t^2 r^2, r <= 2a) below 2^1004, 2^20 short of overflow.
_TINY = float(np.finfo(np.float64).tiny)
_POWER_CAP = 2.0**800


@dataclass(frozen=True)
class OscillatorControl:
    """The oscillator on an N grid: a ``baseline`` config's ``oscillator``
    and a sweep plan's ``oscillator_control``.

    ``m0``, ``omega`` and ``hbar`` are shared by every N. The correlator's
    power at N is a^2 with a = :meth:`amplitude`. A control whose a^2 at
    some N is subnormal or above 2^800 is rejected up front: there the
    line's extraction overflows, or its power-law fit loses the 1/N law.
    """

    n_values: tuple[int, ...]
    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if not self.n_values or len(set(self.n_values)) != len(self.n_values):
            raise PlanError(f"n_values must be non-empty and distinct, got {self.n_values}")
        for n in self.n_values:
            if n < 1:
                raise ValueError(f"n_values entries must be >= 1, got {n}")
        for name in ("m0", "omega", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        for n in self.n_values:
            try:
                a = self.amplitude(n)
            except ZeroDivisionError:  # 2 N m0 omega underflows to 0
                a = math.inf
            if not _TINY <= a * a <= _POWER_CAP:
                raise ValueError(
                    f"hbar / (2 N m0 omega) at N={n} is {a:.3g}; its square must lie in "
                    f"[{_TINY:.3g}, 2^800]"
                )

    def amplitude(self, n: int) -> float:
        """hbar / (2 N m0 w), the t=0 correlator value at N = ``n``."""
        return self.hbar / (2.0 * n * self.m0 * self.omega)


def cm_correlator_analytic(control: OscillatorControl, n: int, grid: TimeGrid) -> CorrelationSeries:
    """Closed form hbar/(2 N m0 w) e^{-iwt} on the grid."""
    values = control.amplitude(n) * np.exp(-1j * control.omega * grid.times())
    return CorrelationSeries(grid=grid, values=values, method="analytic")


def cm_correlator_numeric(control: OscillatorControl, n: int, grid: TimeGrid) -> CorrelationSeries:
    """Lehmann sum over the Fock levels.

    With x = x0 (a + a†), a|0> = 0 and a†|0> = √1|1>, so x|0> = x0 √1 |1>:
    only level k = 1 carries weight |<k|x|0>|^2, at the gap (E_1 - E_0)/hbar
    with E_k = hbar w (k + 1/2). The sum is that one line at every Fock
    cutoff >= 2; this is the check of the closed form from the ladder algebra.
    """
    x0 = np.sqrt(control.hbar / (2.0 * n * control.m0 * control.omega))
    weights = (x0 * np.sqrt([1.0])) ** 2  # |<1|x|0>|^2
    energies = control.hbar * control.omega * (np.arange(2) + 0.5)  # E_0, E_1
    gaps = (energies[1:] - energies[0]) / control.hbar
    values = weights @ np.exp(-1j * np.outer(gaps, grid.times()))
    return CorrelationSeries(grid=grid, values=values, method="truncated_fock")


def baseline_scaling(control: OscillatorControl) -> list[tuple[int, float]]:
    """(N, correlator amplitude) pairs over ``control.n_values``."""
    return [(n, control.amplitude(n)) for n in control.n_values]
