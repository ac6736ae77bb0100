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

from dataclasses import dataclass

import numpy as np

from .dynamics import CorrelationSeries, TimeGrid
from .errors import PlanError


@dataclass(frozen=True)
class OscillatorControl:
    """The oscillator on an N grid: a ``baseline`` config's ``oscillator``
    and a sweep plan's ``oscillator_control``.

    ``m0``, ``omega`` and ``hbar`` are shared by every N; ``cutoff`` is the
    number of Fock levels the numeric correlator truncates to.
    """

    n_values: tuple[int, ...]
    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    cutoff: int = 2

    def __post_init__(self) -> None:
        if not self.n_values or len(set(self.n_values)) != len(self.n_values):
            raise PlanError(f"n_values must be non-empty and distinct, got {self.n_values}")
        if self.cutoff < 2:
            raise PlanError(f"cutoff must be >= 2, got {self.cutoff}")
        for n in self.n_values:
            if n < 1:
                raise ValueError(f"n_values entries must be >= 1, got {n}")
        for name in ("m0", "omega", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    def amplitude(self, n: int) -> float:
        """hbar / (2 N m0 w), the t=0 correlator value at N = ``n``."""
        return self.hbar / (2.0 * n * self.m0 * self.omega)


def cm_correlator_analytic(control: OscillatorControl, n: int, grid: TimeGrid) -> CorrelationSeries:
    """Closed form hbar/(2 N m0 w) e^{-iwt} on the grid."""
    values = control.amplitude(n) * np.exp(-1j * control.omega * grid.times())
    return CorrelationSeries(grid=grid, values=values, method="analytic")


def cm_correlator_numeric(control: OscillatorControl, n: int, grid: TimeGrid) -> CorrelationSeries:
    """Lehmann sum over the lowest ``control.cutoff`` Fock levels.

    With x = x0 (a + a†), a|0> = 0 and a†|0> = √1|1>, so x|0> = x0 √1 |1>:
    of the levels k < cutoff only k = 1 (present since cutoff >= 2) carries
    weight |<k|x|0>|^2, at the gap (E_1 - E_0)/hbar with E_k = hbar w (k + 1/2).
    The sum is that one line, the same for every cutoff, and no array grows
    with it; this is the check of the closed form from the ladder algebra.
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
