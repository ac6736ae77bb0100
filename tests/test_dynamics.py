"""Correlators (spectral vs Krylov), Krylov propagation, oscillation analysis."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from tcspin.dynamics import (
    CorrelationSeries,
    TimeGrid,
    _bessel_column,
    _bessel_series,
    correlator_krylov,
    correlator_krylov_general,
    correlator_spectral,
    evolve,
    extract_oscillation,
    gap_frequency_consistency,
)
from tcspin.errors import DimensionError, EigenstateError, ModelError
from tcspin.models import (
    PerturbationSpec,
    TCModelConfig,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from tcspin.pauli import Operator, StateVector, to_dense
from tcspin.spectra import dense_spectrum, lanczos_extremal

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
        series = correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), grid)
        assert np.max(np.abs(series.values - np.exp(-2j * grid.times()))) < 1e-12

    def test_identity_observables_give_unity(self):
        eye = Operator.from_label_terms([(1.0, "I")])
        grid = TimeGrid(0.0, 5.0, 32)
        series = correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), eye, eye, StateVector.basis_state(1, 0), grid)
        assert np.max(np.abs(series.values - 1.0)) < 1e-12

    def test_rejects_non_eigenstate(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(EigenstateError):
            correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), SIGMA_X, SIGMA_X, plus, TimeGrid(0, 1, 16))

    def test_rejects_a_partial_spectrum(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        partial = lanczos_extremal(op, k=2, seed=0)
        m = magnetization_operator(6, "z")
        with pytest.raises(DimensionError):
            correlator_spectral(op, partial, m, m, partial.state(0).normalized(), TimeGrid(0, 1, 16))

    def test_value_at_zero_is_static_expectation(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        series = correlator_spectral(op, spec, m, m, psi, TimeGrid(0.0, 10.0, 16))
        static = np.vdot(psi.amplitudes, m.matvec(m.matvec(psi.amplitudes)))
        assert abs(series.values[0] - static) < 1e-10

    def test_time_reversal_conjugates_hermitian_autocorrelator(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        grid = TimeGrid(-12.0, 12.0, 49)  # symmetric, includes t=0
        series = correlator_spectral(op, spec, m, m, psi, grid)
        assert np.max(np.abs(series.values - np.conj(series.values[::-1]))) < 1e-10

    def test_bounded_by_operator_norms(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 1.0))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "x")
        series = correlator_spectral(op, spec, m, m, psi, TimeGrid(0.0, 50.0, 128))
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
        spectral = correlator_spectral(op, spec, m, m, psi, grid)
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


def _chain(n_sites, spec):
    op = build_tc_hamiltonian(TCModelConfig(n_sites, 0.5))
    return op if spec is None else (op + build_perturbation(n_sites, spec)).canonicalize()


def _count_matvecs_of(monkeypatch, target):
    calls = []
    matvec = Operator.matvec

    def counting(self, x):
        if self is target:
            calls.append(1)
        return matvec(self, x)

    monkeypatch.setattr(Operator, "matvec", counting)
    return calls


PERTURBATIONS = [
    None,
    PerturbationSpec("heisenberg_exchange", 0.05),
    PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3),
]


class TestChebyshevCorrelator:
    @pytest.mark.parametrize("z", [0.0, 0.3, 50.0, 780.0])
    def test_bessel_column_matches_scipy(self, z):
        column = _bessel_column(z)
        orders = np.arange(len(column))
        assert np.max(np.abs(column - scipy.special.jv(orders, z))) < 1e-13

    def test_bessel_series_matches_scipy(self):
        z = np.array([0.0, 0.3, -0.3, 50.0, -50.0, 780.0, -780.0, 1e-40])
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=900) + 1j * rng.normal(size=900)
        orders = np.arange(len(coeffs))
        expected = [np.sum(coeffs * scipy.special.jv(orders, x)) for x in z]
        # each J_k is within about 1e-14, and the 900 coefficients are O(1)
        assert np.max(np.abs(_bessel_series(z, coeffs) - expected)) < 1e-12
        for k in (0, 1, 2, 799):
            unit = np.zeros(k + 1)
            unit[k] = 1.0
            assert np.max(np.abs(_bessel_series(z, unit) - scipy.special.jv(k, z))) < 1e-13

    @pytest.mark.parametrize("spec", PERTURBATIONS)
    @pytest.mark.parametrize("observables", ["zz", "xx", "xz", "z,z+x/2"])
    @pytest.mark.parametrize("grid", [TimeGrid(-12.0, 12.0, 49), TimeGrid(5.0, 120.0, 192)])
    def test_agrees_with_spectral_route_within_budget(self, spec, observables, grid):
        op = _chain(8, spec)
        spectrum = dense_spectrum(op)
        psi = spectrum.state(0).normalized()
        m_x, m_z = magnetization_operator(8, "x"), magnetization_operator(8, "z")
        # "z,z+x/2" makes w differ from phi without a vanishing correlator
        a, b = {"zz": (m_z, m_z), "xx": (m_x, m_x), "xz": (m_x, m_z), "z,z+x/2": (m_z, m_z + 0.5 * m_x)}[observables]
        step_tol = 1e-10
        chebyshev = correlator_krylov(op, a, b, psi, float(spectrum.eigenvalues[0]), grid, step_tol=step_tol)
        spectral = correlator_spectral(op, spectrum, a, b, psi, grid)
        budget = (grid.n_samples - 1) * step_tol
        norm_w = np.linalg.norm(a.dagger().matvec(psi.amplitudes))
        assert np.max(np.abs(chebyshev.values - spectral.values)) <= budget * norm_w

    def test_long_grid_needs_no_table_of_orders_by_samples(self):
        # K is about 7 500 here: a table of K x 4001 floats would take 240 MB
        op = _chain(4, PerturbationSpec("heisenberg_exchange", 0.05))
        spectrum = dense_spectrum(op)
        psi = spectrum.state(0).normalized()
        m = magnetization_operator(4, "x")
        grid = TimeGrid(0.0, 1500.0, 4001)
        step_tol = 1e-12
        tracemalloc.start()
        try:
            chebyshev = correlator_krylov(op, m, m, psi, float(spectrum.eigenvalues[0]), grid, step_tol=step_tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        spectral = correlator_spectral(op, spectrum, m, m, psi, grid)
        norm_w = np.linalg.norm(m.matvec(psi.amplitudes))
        assert np.max(np.abs(chebyshev.values - spectral.values)) <= (grid.n_samples - 1) * step_tol * norm_w

    def test_eigenvector_takes_the_shortcut(self, monkeypatch):
        # m_z maps the chain's ground state onto an eigenvector: one matvec
        # for the eigenstate check and one for the residual of phi
        op = _chain(8, None)
        spectrum = dense_spectrum(op)
        m = magnetization_operator(8, "z")
        calls = _count_matvecs_of(monkeypatch, op)
        series = correlator_krylov(
            op, m, m, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]),
            TimeGrid(0.0, 240.0, 512), step_tol=1e-12,
        )
        assert len(calls) <= 2
        assert np.ptp(np.abs(series.values)) < 1e-12

    def test_perturbed_chain_needs_about_half_a_t_max_matvecs(self, monkeypatch):
        op = _chain(10, PerturbationSpec("heisenberg_exchange", 0.05))
        spectrum = lanczos_extremal(op, k=2)
        m = magnetization_operator(10, "z")
        lo, hi = op.gershgorin_interval()
        grid = TimeGrid(0.0, 60.0, 128)
        calls = _count_matvecs_of(monkeypatch, op)
        correlator_krylov(
            op, m, m, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]), grid, step_tol=1e-12
        )
        half_width = 0.5 * (hi - lo)
        assert len(calls) <= half_width * grid.t_end / 2 + 64

    def test_rejects_non_hermitian_hamiltonian(self):
        op = Operator.from_label_terms([(1.0, "Z"), (0.5j, "X")])
        with pytest.raises(ModelError):
            correlator_krylov(op, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), -1.0, TimeGrid(0, 1, 16))


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
        series = correlator_spectral(SIGMA_Z, spec, SIGMA_X, SIGMA_X, StateVector.basis_state(1, 1), grid)
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
        series = correlator_spectral(op, spec, m, m, psi, TimeGrid(0.0, 200.0, 512))
        rep = extract_oscillation(series, 8)
        assert rep.n_peaks >= 1
        assert gap_frequency_consistency(spec, rep, tol=1e-6)
