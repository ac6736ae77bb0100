"""Center-of-mass harmonic oscillator: the 1/N-vanishing control case.

An isolated center-of-mass mode of N particles of mass m0 has
H = p^2/(2 N m0) + N m0 w^2 x^2 / 2; its ground-state two-time correlator
<0| x(t) x(0) |0> = hbar/(2 N m0 w) e^{-iwt} decays as 1/N, the baseline
against which the spin chain's persistent oscillation amplitude is
contrasted. The mode is implemented in its own truncated number basis, not
shoehorned into spin space: fidelity to the closed-form expression matters
more here than code reuse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import CorrelationSeries, TimeGrid


@dataclass(frozen=True)
class OscillatorConfig:
    """N, single-particle mass, frequency and hbar; all strictly positive."""

    n_particles: int
    m0: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0

    def __post_init__(self) -> None:
        if self.n_particles < 1:
            raise ValueError(f"n_particles must be >= 1, got {self.n_particles}")
        for name in ("m0", "omega", "hbar"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")

    @property
    def amplitude(self) -> float:
        """hbar / (2 N m0 w), the t=0 correlator value."""
        return self.hbar / (2.0 * self.n_particles * self.m0 * self.omega)


@dataclass
class TruncatedOscillator:
    """Position and Hamiltonian matrices in the lowest ``cutoff`` Fock levels."""

    cutoff: int
    x_matrix: np.ndarray
    h_matrix: np.ndarray

    @classmethod
    def build(cls, cfg: OscillatorConfig, cutoff: int) -> "TruncatedOscillator":
        if cutoff < 2:
            raise ValueError(f"cutoff must be >= 2, got {cutoff}")
        lower = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)  # annihilator
        x0 = np.sqrt(cfg.hbar / (2.0 * cfg.n_particles * cfg.m0 * cfg.omega))
        x = x0 * (lower + lower.T)
        h = np.diag(cfg.hbar * cfg.omega * (np.arange(cutoff) + 0.5))
        return cls(cutoff=cutoff, x_matrix=x, h_matrix=h)


def cm_correlator_analytic(cfg: OscillatorConfig, grid: TimeGrid) -> CorrelationSeries:
    """Closed form hbar/(2 N m0 w) e^{-iwt} on the grid."""
    values = cfg.amplitude * np.exp(-1j * cfg.omega * grid.times())
    return CorrelationSeries(grid=grid, values=values, method="analytic")


def cm_correlator_numeric(cfg: OscillatorConfig, cutoff: int, grid: TimeGrid) -> CorrelationSeries:
    """Lehmann sum in the truncated number basis.

    x|0> only reaches level 1, so any cutoff >= 2 reproduces the ground-state
    correlator exactly; this is the independent check of the closed form.
    """
    trunc = TruncatedOscillator.build(cfg, cutoff)
    energies = np.diag(trunc.h_matrix)
    weights = np.abs(trunc.x_matrix[:, 0]) ** 2  # |<n|x|0>|^2
    gaps = (energies - energies[0]) / cfg.hbar
    times = grid.times()
    values = weights @ np.exp(-1j * np.outer(gaps, times))
    return CorrelationSeries(grid=grid, values=values, method="truncated_fock")


def baseline_scaling(cfg_base: OscillatorConfig, n_values: list[int]) -> list[tuple[int, float]]:
    """(N, correlator amplitude) pairs at fixed m0, omega, hbar."""
    if not n_values:
        raise ValueError("n_values must be non-empty")
    out = []
    for n in n_values:
        cfg = OscillatorConfig(n_particles=n, m0=cfg_base.m0, omega=cfg_base.omega, hbar=cfg_base.hbar)
        out.append((n, cfg.amplitude))
    return out
