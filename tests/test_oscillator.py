"""Center-of-mass oscillator: closed form vs truncated-Fock check, 1/N scaling."""

import tracemalloc

import numpy as np
import pytest

from tcspin.dynamics import TimeGrid, extract_oscillation
from tcspin.errors import PlanError
from tcspin.oscillator import (
    OscillatorControl,
    baseline_scaling,
    cm_correlator_analytic,
    cm_correlator_numeric,
)
from tcspin.sweep import fit_power_law

UNIT_GRID = TimeGrid(0.0, 40.0, 512)


def _truncated_matrices(control: OscillatorControl, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Position and Hamiltonian matrices in the lowest ``control.cutoff`` Fock levels."""
    cutoff = control.cutoff
    lower = np.diag(np.sqrt(np.arange(1.0, cutoff)), 1)  # annihilator
    x0 = np.sqrt(control.hbar / (2.0 * n * control.m0 * control.omega))
    x = x0 * (lower + lower.T)
    h = np.diag(control.hbar * control.omega * (np.arange(cutoff) + 0.5))
    return x, h


def _matrix_oracle(control: OscillatorControl, n: int, grid: TimeGrid) -> np.ndarray:
    """The dense Lehmann sum over every truncated level, from the matrices."""
    x, h = _truncated_matrices(control, n)
    energies = np.diag(h)
    weights = np.abs(x[:, 0]) ** 2  # |<k|x|0>|^2
    gaps = (energies - energies[0]) / control.hbar
    return weights @ np.exp(-1j * np.outer(gaps, grid.times()))


class TestAnalyticCorrelator:
    def test_single_particle_value_at_zero(self):
        series = cm_correlator_analytic(OscillatorControl((1,)), 1, UNIT_GRID)
        assert series.values[0] == pytest.approx(0.5, abs=1e-15)

    def test_ten_particles_value_at_zero(self):
        series = cm_correlator_analytic(OscillatorControl((10,)), 10, UNIT_GRID)
        assert series.values[0] == pytest.approx(0.05, abs=1e-15)

    def test_doubling_n_halves_amplitude_pointwise(self):
        control = OscillatorControl((5, 10))
        a = cm_correlator_analytic(control, 5, UNIT_GRID)
        b = cm_correlator_analytic(control, 10, UNIT_GRID)
        assert np.max(np.abs(b.values - 0.5 * a.values)) < 1e-15

    def test_modulus_is_time_independent(self):
        series = cm_correlator_analytic(OscillatorControl((3,), m0=2.0, omega=0.7, hbar=1.3), 3, UNIT_GRID)
        mods = np.abs(series.values)
        assert np.max(np.abs(mods - mods[0])) < 1e-15

    def test_unit_dimensions_enter_explicitly(self):
        control = OscillatorControl((4,), m0=0.5, omega=2.0, hbar=3.0)
        assert control.amplitude(4) == pytest.approx(3.0 / (2 * 4 * 0.5 * 2.0), abs=1e-15)


class TestTruncatedOscillator:
    """The matrix oracle itself: x Hermitian, H the diagonal ladder."""

    def test_position_matrix_hermitian(self):
        x, _ = _truncated_matrices(OscillatorControl((3,), cutoff=6), 3)
        assert np.allclose(x, x.conj().T)

    def test_hamiltonian_diagonal_ladder(self):
        _, h = _truncated_matrices(OscillatorControl((2,), omega=0.8, hbar=1.5, cutoff=4), 2)
        expected = 1.5 * 0.8 * (np.arange(4) + 0.5)
        assert np.allclose(np.diag(h), expected)
        assert np.count_nonzero(h - np.diag(np.diag(h))) == 0

    def test_cutoff_floor(self):
        with pytest.raises(PlanError, match="cutoff must be >= 2"):
            OscillatorControl((1,), cutoff=1)


# (N, m0, omega, hbar)
ORACLE_PARAMETERS = [(1, 1.0, 1.0, 1.0), (3, 1.7, 0.9, 1.1), (7, 2.0, 0.7, 1.3), (100, 0.5, 2.0, 3.0), (13, 0.3, 4.1, 0.2)]
# the last grids hold t = 0 inside them and negative times, where zero signs could differ
ORACLE_GRIDS = [UNIT_GRID, TimeGrid(-40.0, 25.0, 160), TimeGrid(-20.0, 20.0, 161)]


class TestNumericCorrelator:
    @pytest.mark.parametrize("n", [1, 7])
    @pytest.mark.parametrize("cutoff", [2, 5])
    def test_matches_analytic_exactly(self, n, cutoff):
        control = OscillatorControl((n,), cutoff=cutoff)
        analytic = cm_correlator_analytic(control, n, UNIT_GRID)
        numeric = cm_correlator_numeric(control, n, UNIT_GRID)
        assert np.max(np.abs(analytic.values - numeric.values)) < 1e-12

    @pytest.mark.parametrize("cutoff", [2, 3, 4, 5, 6])
    def test_ground_correlator_saturates_at_one_ladder_step(self, cutoff):
        control = OscillatorControl((3,), m0=1.7, omega=0.9, hbar=1.1, cutoff=cutoff)
        analytic = cm_correlator_analytic(control, 3, UNIT_GRID)
        numeric = cm_correlator_numeric(control, 3, UNIT_GRID)
        assert np.max(np.abs(analytic.values - numeric.values)) < 1e-12

    def test_extracted_frequency_is_omega(self):
        control = OscillatorControl((4,), omega=1.3, cutoff=5)
        grid = TimeGrid(0.0, 60.0, 1024)
        rep = extract_oscillation(cm_correlator_numeric(control, 4, grid), 4)
        assert rep.n_peaks == 1
        assert rep.frequencies[0] == pytest.approx(1.3, abs=1e-6)
        assert rep.amplitudes[0] == pytest.approx(control.amplitude(4), rel=1e-9)

    @pytest.mark.parametrize("params", ORACLE_PARAMETERS, ids=str)
    def test_equals_the_matrix_oracle_bit_for_bit(self, params):
        n, m0, omega, hbar = params
        for grid in ORACLE_GRIDS:
            for cutoff in range(2, 65):
                control = OscillatorControl((n,), m0=m0, omega=omega, hbar=hbar, cutoff=cutoff)
                numeric = cm_correlator_numeric(control, n, grid).values
                assert numeric.tobytes() == _matrix_oracle(control, n, grid).tobytes(), (grid, cutoff)

    def test_memory_does_not_grow_with_cutoff(self):
        peaks = []
        for cutoff in (2, 2**40):
            control = OscillatorControl((5,), cutoff=cutoff)
            tracemalloc.start()
            try:
                cm_correlator_numeric(control, 5, UNIT_GRID)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1024, peaks


class TestScaling:
    def test_powers_of_two(self):
        table = baseline_scaling(OscillatorControl((2, 4, 8)))
        assert table == [(2, 0.25), (4, 0.125), (8, 0.0625)]

    def test_single_particle_amplitude(self):
        assert baseline_scaling(OscillatorControl((1,))) == [(1, 0.5)]

    def test_power_law_exponent(self):
        table = baseline_scaling(OscillatorControl((2, 3, 5, 8, 13, 21, 32)))
        exponent, prefactor, r2 = fit_power_law([(float(n), a) for n, a in table])
        assert exponent == pytest.approx(-1.0, abs=1e-12)
        assert prefactor == pytest.approx(0.5, abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-15)

    def test_strictly_decreasing(self):
        amps = [a for _, a in baseline_scaling(OscillatorControl(tuple(range(1, 20))))]
        assert all(a > b for a, b in zip(amps, amps[1:]))

    def test_empty_input_rejected(self):
        with pytest.raises(PlanError, match="n_values must be non-empty"):
            OscillatorControl(())


class TestConfigValidation:
    def test_positive_requirements(self):
        with pytest.raises(ValueError):
            OscillatorControl((0,))
        with pytest.raises(ValueError):
            OscillatorControl((1,), m0=0.0)
        with pytest.raises(ValueError):
            OscillatorControl((1,), omega=-1.0)
        with pytest.raises(ValueError):
            OscillatorControl((1,), hbar=0.0)

    def test_duplicate_n_values_rejected(self):
        with pytest.raises(PlanError, match="distinct"):
            OscillatorControl((2, 3, 2))
