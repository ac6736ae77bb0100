"""Correlators (spectral vs Krylov), Krylov propagation, oscillation analysis."""

import numpy as np
import pytest
import scipy.linalg

from tcspin.dynamics import (
    CorrelationSeries,
    TimeGrid,
    correlator_krylov,
    correlator_krylov_general,
    correlator_spectral,
    evolve,
    extract_oscillation,
    gap_frequency_consistency,
)
from tcspin.errors import EigenstateError
from tcspin.models import TCModelConfig, build_tc_hamiltonian, magnetization_operator
from tcspin.pauli import Operator, StateVector, to_dense
from tcspin.spectra import dense_spectrum

from conftest import random_state

SIGMA_Z = Operator.from_label_terms([(1.0, "Z")])
SIGMA_X = Operator.from_label_terms([(1.0, "X")])


class TestTimeGrid:
    def test_spacing(self):
        grid = TimeGrid(0.0, 10.0, 11)
        assert grid.spacing == 1.0
        assert np.array_equal(grid.times(), np.linspace(0, 10, 11))

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(5.0, 5.0, 16)


class TestSpectralCorrelator:
    def test_two_level_phase(self):
        grid = TimeGrid(0.0, 20.0, 64)
        series = correlator_spectral(SIGMA_Z, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), grid)
        assert np.max(np.abs(series.values - np.exp(-2j * grid.times()))) < 1e-12

    def test_identity_observables_give_unity(self):
        eye = Operator.from_label_terms([(1.0, "I")])
        grid = TimeGrid(0.0, 5.0, 32)
        series = correlator_spectral(SIGMA_Z, eye, eye, StateVector.basis_state(1, 0), grid)
        assert np.max(np.abs(series.values - 1.0)) < 1e-12

    def test_rejects_non_eigenstate(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(EigenstateError):
            correlator_spectral(SIGMA_Z, SIGMA_X, SIGMA_X, plus, TimeGrid(0, 1, 16))

    def test_value_at_zero_is_static_expectation(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        psi = dense_spectrum(op).state(0).normalized()
        m = magnetization_operator(6, "z")
        series = correlator_spectral(op, m, m, psi, TimeGrid(0.0, 10.0, 16))
        static = np.vdot(psi.amplitudes, m.matvec(m.matvec(psi.amplitudes)))
        assert abs(series.values[0] - static) < 1e-10

    def test_time_reversal_conjugates_hermitian_autocorrelator(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        psi = dense_spectrum(op).state(0).normalized()
        m = magnetization_operator(6, "z")
        grid = TimeGrid(-12.0, 12.0, 49)  # symmetric, includes t=0
        series = correlator_spectral(op, m, m, psi, grid)
        assert np.max(np.abs(series.values - np.conj(series.values[::-1]))) < 1e-10

    def test_bounded_by_operator_norms(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 1.0))
        psi = dense_spectrum(op).state(0).normalized()
        m = magnetization_operator(6, "x")
        series = correlator_spectral(op, m, m, psi, TimeGrid(0.0, 50.0, 128))
        assert np.max(np.abs(series.values)) <= m.one_norm() ** 2 + 1e-12


class TestKrylovCorrelator:
    def test_two_level_phase(self):
        grid = TimeGrid(0.0, 20.0, 64)
        series = correlator_krylov(
            SIGMA_Z, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), -1.0, grid,
            krylov_dim=4, step_tol=1e-12,
        )
        assert np.max(np.abs(series.values - np.exp(-2j * grid.times()))) < 1e-10

    def test_agrees_with_spectral_route(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(8, "z")
        grid = TimeGrid(0.0, 120.0, 192)
        spectral = correlator_spectral(op, m, m, psi, grid)
        krylov = correlator_krylov(
            op, m, m, psi, float(spec.eigenvalues[0]), grid, krylov_dim=30, step_tol=1e-12
        )
        assert np.max(np.abs(spectral.values - krylov.values)) < 1e-8

    def test_rejects_wrong_energy(self):
        with pytest.raises(EigenstateError):
            correlator_krylov(
                SIGMA_Z, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), +1.0,
                TimeGrid(0, 1, 16),
            )

    def test_krylov_dim_floor(self):
        with pytest.raises(ValueError):
            correlator_krylov(
                SIGMA_Z, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), -1.0,
                TimeGrid(0, 1, 16), krylov_dim=3,
            )

    def test_general_route_matches_eigenstate_route(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        grid = TimeGrid(0.0, 40.0, 64)
        one_track = correlator_krylov(
            op, m, m, psi, float(spec.eigenvalues[0]), grid, step_tol=1e-12
        )
        two_track = correlator_krylov_general(op, m, m, psi, grid, step_tol=1e-12)
        assert np.max(np.abs(one_track.values - two_track.values)) < 1e-9


class TestEvolve:
    def test_zero_time_is_identity(self):
        v = random_state(np.random.default_rng(2), 4)
        out = evolve(build_tc_hamiltonian(TCModelConfig(4, 1.0)), v, 0.0)
        assert np.array_equal(out.amplitudes, v.amplitudes)

    def test_half_turn_phase(self):
        out = evolve(SIGMA_Z, StateVector.basis_state(1, 0), np.pi)
        assert np.max(np.abs(out.amplitudes - [-1.0, 0.0])) < 1e-12

    def test_matches_dense_matrix_exponential(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 1.0))
        v = random_state(np.random.default_rng(5), 8)
        out = evolve(op, v, 5.0, krylov_dim=30, step_tol=1e-12)
        exact = scipy.linalg.expm(-5j * to_dense(op)) @ v.amplitudes
        assert np.max(np.abs(out.amplitudes - exact)) < 1e-8

    def test_norm_preserved_across_a_grid(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.7))
        v = random_state(np.random.default_rng(8), 6)
        drift = 0.0
        for _ in range(64):
            v = evolve(op, v, 0.37, krylov_dim=20, step_tol=1e-12)
            drift = max(drift, abs(v.norm - 1.0))
        assert drift < 1e-10

    def test_negative_time_inverts(self):
        op = build_tc_hamiltonian(TCModelConfig(5, 0.4))
        v = random_state(np.random.default_rng(13), 5)
        forward = evolve(op, v, 2.5, step_tol=1e-12)
        back = evolve(op, forward, -2.5, step_tol=1e-12)
        assert np.max(np.abs(back.amplitudes - v.amplitudes)) < 1e-10

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError):
            evolve(SIGMA_Z, StateVector(1, np.array([2.0, 0.0], dtype=complex)), 1.0)


class TestKrylovStepBreakdown:
    def test_rounding_level_residual_takes_one_matvec(self, monkeypatch):
        # an eigenvector carrying a rounding-level component elsewhere in the
        # spectrum: the a-priori bound |dt| * ||(H - alpha) x|| is far below
        # step_tol, so the step must not build a Krylov space from noise
        op = build_tc_hamiltonian(TCModelConfig(10, 0.5))
        energies, vecs = np.linalg.eigh(to_dense(op))
        amps = vecs[:, 0] + 3e-13 * vecs[:, -1]
        v = StateVector(10, amps / np.linalg.norm(amps))
        t = 2.0
        exact = vecs @ (np.exp(-1j * energies * t) * (vecs.conj().T @ v.amplitudes))
        calls = []
        matvec = Operator.matvec

        def counting(self, x):
            calls.append(1)
            return matvec(self, x)

        monkeypatch.setattr(Operator, "matvec", counting)
        out = evolve(op, v, t)
        monkeypatch.undo()
        assert len(calls) == 1
        assert np.max(np.abs(out.amplitudes - exact)) < 1e-12


class TestExtractOscillation:
    def test_single_mode(self):
        grid = TimeGrid(0.0, 20 * np.pi, 4096)
        rep = extract_oscillation(CorrelationSeries(grid, np.exp(-2j * grid.times())), 4)
        assert rep.n_peaks == 1
        assert rep.frequencies[0] == pytest.approx(2.0, abs=1e-9)
        assert rep.amplitudes[0] == pytest.approx(1.0, abs=1e-9)
        assert abs(rep.dc_component) < 1e-9
        assert rep.residual_fraction < 1e-15

    def test_constant_series(self):
        rep = extract_oscillation(
            CorrelationSeries(TimeGrid(0, 10, 64), np.full(64, 0.7, dtype=complex)), 4
        )
        assert rep.dc_component == pytest.approx(0.7)
        assert rep.n_peaks == 0
        assert rep.residual_fraction == 0.0

    def test_all_zero_series(self):
        rep = extract_oscillation(
            CorrelationSeries(TimeGrid(0, 10, 64), np.zeros(64, dtype=complex)), 4
        )
        assert rep.n_peaks == 0
        assert rep.dc_component == 0.0
        assert rep.residual_fraction == 0.0

    def test_oscillator_amplitude_convention(self):
        grid = TimeGrid(0.0, 40.0, 1024)
        rep = extract_oscillation(
            CorrelationSeries(grid, 0.5 * np.exp(-1j * grid.times())), 4
        )
        assert rep.frequencies[0] == pytest.approx(1.0, abs=1e-6)
        assert rep.amplitudes[0] == pytest.approx(0.5, abs=1e-9)

    def test_two_modes_with_offset(self):
        grid = TimeGrid(0.0, 300.0, 2048)
        t = grid.times()
        values = 0.2 + 0.7 * np.exp(-2.3j * t) + 0.3 * np.exp(-1.1j * t)
        rep = extract_oscillation(CorrelationSeries(grid, values), 6)
        assert rep.n_peaks == 2
        assert rep.frequencies[0] == pytest.approx(2.3, abs=1e-9)
        assert rep.amplitudes[0] == pytest.approx(0.7, abs=1e-9)
        assert rep.frequencies[1] == pytest.approx(1.1, abs=1e-9)
        assert rep.amplitudes[1] == pytest.approx(0.3, abs=1e-9)
        assert rep.dc_component == pytest.approx(0.2, abs=1e-9)

    def test_residual_fraction_decreases_with_more_peaks(self):
        grid = TimeGrid(0.0, 200.0, 1024)
        t = grid.times()
        values = 0.6 * np.exp(-1.7j * t) + 0.3 * np.exp(-0.4j * t) + 0.1 * np.exp(-3.9j * t)
        fractions = [
            extract_oscillation(CorrelationSeries(grid, values), k).residual_fraction
            for k in (1, 2, 3)
        ]
        assert fractions[0] > fractions[1] > fractions[2]

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            extract_oscillation(CorrelationSeries(TimeGrid(0, 1, 8), np.zeros(8, complex)), 2)


class TestGapConsistency:
    def test_two_level_peak_matches_gap(self):
        spec = dense_spectrum(SIGMA_Z)
        grid = TimeGrid(0.0, 40.0, 512)
        series = correlator_spectral(SIGMA_Z, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), grid)
        rep = extract_oscillation(series, 2)
        assert gap_frequency_consistency(spec, rep, tol=1e-3)
        assert gap_frequency_consistency(spec, rep, tol=1e-8)

    def test_shifted_fake_peak_fails(self):
        spec = dense_spectrum(SIGMA_Z)
        from tcspin.dynamics import OscillationReport

        fake = OscillationReport(
            frequencies=np.array([2.5]),
            amplitudes=np.array([1.0]),
            dc_component=0.0,
            residual_fraction=0.0,
        )
        assert not gap_frequency_consistency(spec, fake, tol=1e-3)

    def test_chain_correlator_peaks_match_gaps(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(8, "z")
        series = correlator_spectral(op, m, m, psi, TimeGrid(0.0, 200.0, 512))
        rep = extract_oscillation(series, 8)
        assert rep.n_peaks >= 1
        assert gap_frequency_consistency(spec, rep, tol=1e-6)
