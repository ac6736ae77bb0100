"""Correlators (spectral vs Krylov), Krylov propagation, oscillation analysis."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from tcspin import dynamics, pauli, sweep
from tcspin.dynamics import (
    CorrelationSeries,
    TimeGrid,
    correlator_krylov,
    correlator_krylov_general,
    correlator_spectral,
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
from tcspin.oscillator import OscillatorControl, cm_correlator_numeric
from tcspin.pauli import Operator, StateVector, to_dense
from tcspin.spectra import dense_spectrum, ghz_overlap_report, lanczos_extremal

from chebyshev_oracle import _chebyshev_order, _unrestricted_series, _window
from conftest import criterion_8_plan, dense_vectors, oracle_extract_oscillation, random_state, sweep_row_operator
from oracles import evolve, from_label_terms, global_flip_operator, strings_commute

SIGMA_Z = from_label_terms([(1.0, "Z")])
SIGMA_X = from_label_terms([(1.0, "X")])


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

    @pytest.mark.parametrize(
        "t_start, t_end", [(0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0), (0.0, np.nan), (-1e308, 1e308)]
    )
    def test_rejects_non_finite_times(self, t_start, t_end):
        # (0, inf) used to pass, with times() starting [nan, inf, inf]; so did
        # (-1e308, 1e308), whose span overflows
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(t_start, t_end, 16)


class TestSpectralCorrelator:
    def test_two_level_phase(self):
        grid = TimeGrid(0.0, 20.0, 64)
        series = correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), SIGMA_X, StateVector.basis_state(1, 1), grid)
        assert np.max(np.abs(series.values - np.exp(-2j * grid.times()))) < 1e-12

    def test_identity_observables_give_unity(self):
        eye = from_label_terms([(1.0, "I")])
        grid = TimeGrid(0.0, 5.0, 32)
        series = correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), eye, StateVector.basis_state(1, 0), grid)
        assert np.max(np.abs(series.values - 1.0)) < 1e-12

    def test_rejects_non_eigenstate(self):
        plus = StateVector(1, np.array([1.0, 1.0]) / np.sqrt(2))
        with pytest.raises(EigenstateError):
            correlator_spectral(SIGMA_Z, dense_spectrum(SIGMA_Z), SIGMA_X, plus, TimeGrid(0, 1, 16))

    def test_rejects_a_partial_spectrum(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        partial = lanczos_extremal(op, k=2, seed=0)
        m = magnetization_operator(6, "z")
        with pytest.raises(DimensionError):
            correlator_spectral(op, partial, m, partial.state(0).normalized(), TimeGrid(0, 1, 16))

    def test_value_at_zero_is_static_expectation(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        series = correlator_spectral(op, spec, m, psi, TimeGrid(0.0, 10.0, 16))
        static = np.vdot(psi.amplitudes, m.matvec(m.matvec(psi.amplitudes)))
        assert abs(series.values[0] - static) < 1e-10

    def test_time_reversal_conjugates_hermitian_autocorrelator(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        grid = TimeGrid(-12.0, 12.0, 49)  # symmetric, includes t=0
        series = correlator_spectral(op, spec, m, psi, grid)
        assert np.max(np.abs(series.values - np.conj(series.values[::-1]))) < 1e-10

    def test_bounded_by_operator_norms(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 1.0))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "x")
        series = correlator_spectral(op, spec, m, psi, TimeGrid(0.0, 50.0, 128))
        assert np.max(np.abs(series.values)) <= m.one_norm() ** 2 + 1e-12

    def test_applies_h_once(self, monkeypatch):
        # E_psi and the eigenstate check read the same H psi
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        calls = _count_matvecs_of(monkeypatch, op)
        correlator_spectral(op, spec, magnetization_operator(6, "z"), spec.state(0).normalized(), TimeGrid(0.0, 10.0, 16))
        assert len(calls) == 1


class TestKrylovCorrelator:
    def test_two_level_phase(self):
        grid = TimeGrid(0.0, 20.0, 64)
        series = correlator_krylov(
            SIGMA_Z, SIGMA_X, StateVector.basis_state(1, 1), -1.0, grid,
            step_tol=1e-12,
        )
        assert np.max(np.abs(series.values - np.exp(-2j * grid.times()))) < 1e-10

    def test_agrees_with_spectral_route(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(8, "z")
        grid = TimeGrid(0.0, 120.0, 192)
        spectral = correlator_spectral(op, spec, m, psi, grid)
        krylov = correlator_krylov(
            op, m, psi, float(spec.eigenvalues[0]), grid, step_tol=1e-12
        )
        assert np.max(np.abs(spectral.values - krylov.values)) < 1e-8

    def test_rejects_wrong_energy(self):
        with pytest.raises(EigenstateError):
            correlator_krylov(
                SIGMA_Z, SIGMA_X, StateVector.basis_state(1, 1), +1.0,
                TimeGrid(0, 1, 16),
            )

    def test_general_route_matches_eigenstate_route(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(6, "z")
        grid = TimeGrid(0.0, 40.0, 64)
        one_track = correlator_krylov(
            op, m, psi, float(spec.eigenvalues[0]), grid, step_tol=1e-12
        )
        two_track = correlator_krylov_general(op, m, psi, grid, step_tol=1e-12)
        assert np.max(np.abs(one_track.values - two_track.values)) < 1e-9


def _chain(n_sites, spec, boundary="periodic"):
    op = build_tc_hamiltonian(TCModelConfig(n_sites, 0.5, boundary=boundary))
    return op if spec is None else (op + build_perturbation(n_sites, spec, boundary)).canonicalize()


def _count_matvecs_of(monkeypatch, target):
    """Spy on ``target``'s matvecs; the list holds each call's input dtype."""
    calls = []
    matvec = Operator.matvec

    def counting(self, x):
        if self is target:
            calls.append(x.dtype)
        return matvec(self, x)

    monkeypatch.setattr(Operator, "matvec", counting)
    return calls


def _count_group_applications(monkeypatch):
    """Spy on every application of a compiled group list, full-space
    matvecs and coset-restricted ones alike; the list holds each call's
    (groups, input vector)."""
    calls = []
    apply = pauli.apply_groups

    def counting(groups, x):
        calls.append((groups, x))
        return apply(groups, x)

    monkeypatch.setattr(pauli, "apply_groups", counting)
    monkeypatch.setattr(dynamics, "apply_groups", counting)
    return calls


PERTURBATIONS = [
    None,
    PerturbationSpec("heisenberg_exchange", 0.05),
    PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3),
]


def _observable(n, name):
    """m_axis for an axis name; "z+x/2" is the Hermitian sum m_z + m_x/2,
    which moves psi into its own coset and into others at once."""
    if name != "z+x/2":
        return magnetization_operator(n, name)
    m_x = magnetization_operator(n, "x")
    return magnetization_operator(n, "z") + Operator(n, tuple(replace(t, coeff=0.5 * t.coeff) for t in m_x.terms))


def _full_lehmann(op, a, psi, times):
    """C(t) from every eigenpair of the full matrix: the oracle of the block sum."""
    h = to_dense(op)
    energies, columns = np.linalg.eigh(h)
    e_psi = np.vdot(psi.amplitudes, h @ psi.amplitudes).real
    amps = columns.conj().T @ (to_dense(a) @ psi.amplitudes)  # <n|A psi>
    return np.abs(amps) ** 2 @ np.exp(-1j * np.outer(energies - e_psi, times))


def _general_lehmann(energies, columns, a_dense, psi, times):
    """<psi(t)| A |chi(t)>, chi = A psi, from every eigenpair of the full
    matrix (``energies``, ``columns``): the dense oracle of an arbitrary state."""
    start, kicked = columns.conj().T @ psi.amplitudes, columns.conj().T @ (a_dense @ psi.amplitudes)
    return np.array([
        np.vdot(a_dense @ (columns @ (phase * start)), columns @ (phase * kicked))
        for phase in np.exp(-1j * np.outer(times, energies))
    ])


class TestSpectralCorrelatorBlocks:
    """The Lehmann sum over the pairs of the touched blocks only, against the
    full matrix's eigenbasis (a different basis inside degenerate clusters
    that span blocks; the sum does not depend on it)."""

    GRID = TimeGrid(0.0, 40.0, 64)

    @pytest.mark.parametrize(
        "j, state, axis",
        [
            (0.5, "ground", "z"),  # one block of 4
            (0.5, "ground", "x"),  # m_x moves psi into other cosets
            (0.5, "ground", "y"),  # complex A psi from a real psi
            (0.5, "ground", "z+x/2"),  # A psi in psi's coset and in others
            (0.0, 0b010110, "x"),  # a basis eigenstate, degenerate clusters across blocks
        ],
    )
    def test_matches_the_full_matrix_lehmann_sum(self, j, state, axis):
        op = build_tc_hamiltonian(TCModelConfig(6, j))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized() if state == "ground" else StateVector.basis_state(6, state)
        m = _observable(6, axis)
        series = correlator_spectral(op, spec, m, psi, self.GRID)
        assert np.max(np.abs(series.values - _full_lehmann(op, m, psi, self.GRID.times()))) < 1e-12

    def test_z_field_chain_ground_state(self):
        op = _chain(8, PERTURBATIONS[2])
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(8, "z")
        series = correlator_spectral(op, spec, m, psi, self.GRID)
        assert np.max(np.abs(series.values - _full_lehmann(op, m, psi, self.GRID.times()))) < 1e-12


class TestChebyshevCorrelator:
    @pytest.mark.parametrize("spec", PERTURBATIONS)
    @pytest.mark.parametrize("axis", ["z", "x", "y", "z+x/2"])
    @pytest.mark.parametrize("grid", [TimeGrid(-12.0, 12.0, 49), TimeGrid(5.0, 120.0, 192)])
    def test_agrees_with_spectral_route_within_budget(self, spec, axis, grid):
        op = _chain(8, spec)
        spectrum = dense_spectrum(op)
        psi = spectrum.state(0).normalized()
        m = _observable(8, axis)
        step_tol = 1e-10
        chebyshev = correlator_krylov(op, m, psi, float(spectrum.eigenvalues[0]), grid, step_tol=step_tol)
        spectral = correlator_spectral(op, spectrum, m, psi, grid)
        budget = (grid.n_samples - 1) * step_tol
        norm_phi = np.linalg.norm(m.matvec(psi.amplitudes))
        assert np.max(np.abs(chebyshev.values - spectral.values)) <= budget * norm_phi

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
            chebyshev = correlator_krylov(op, m, psi, float(spectrum.eigenvalues[0]), grid, step_tol=step_tol)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6
        spectral = correlator_spectral(op, spectrum, m, psi, grid)
        norm_phi = np.linalg.norm(m.matvec(psi.amplitudes))
        assert np.max(np.abs(chebyshev.values - spectral.values)) <= (grid.n_samples - 1) * step_tol * norm_phi

    def test_eigenvector_takes_the_shortcut(self, monkeypatch):
        # m_z maps the chain's ground state onto an eigenvector: one matvec
        # for the eigenstate check and one for the residual of phi
        op = _chain(8, None)
        spectrum = dense_spectrum(op)
        m = magnetization_operator(8, "z")
        calls = _count_matvecs_of(monkeypatch, op)
        series = correlator_krylov(
            op, m, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]),
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
            op, m, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]), grid, step_tol=1e-12
        )
        half_width = 0.5 * (hi - lo)
        assert len(calls) <= half_width * grid.t_end / 2 + 64

    @pytest.mark.parametrize("spec", PERTURBATIONS[1:])
    def test_real_and_phased_states_agree_with_spectral_route(self, spec, monkeypatch):
        # a real psi runs the Lanczos quadrature in float64; e^{i theta} psi
        # forces the complex path; C(t) ignores the global phase
        op = _chain(8, spec)
        spectrum = dense_spectrum(op)
        psi = spectrum.state(0).normalized()
        phased = StateVector(8, np.exp(0.7j) * psi.amplitudes)
        m = magnetization_operator(8, "z")
        grid = TimeGrid(0.0, 60.0, 128)
        step_tol = 1e-10
        spectral = correlator_spectral(op, spectrum, m, psi, grid)
        bound = (grid.n_samples - 1) * step_tol * np.linalg.norm(m.matvec(psi.amplitudes))
        calls = _count_group_applications(monkeypatch)
        for state, dtype in ((psi, np.float64), (phased, np.complex128)):
            calls.clear()
            series = correlator_krylov(op, m, state, float(spectrum.eigenvalues[0]), grid, step_tol=step_tol)
            assert np.max(np.abs(series.values - spectral.values)) <= bound
            # calls[0] is the eigenstate check; every later call is A psi, H phi or a Lanczos step
            assert len(calls) > 3 and {x.dtype for _, x in calls[1:]} == {np.dtype(dtype)}

    def test_rejects_non_hermitian_hamiltonian(self):
        op = from_label_terms([(1.0, "Z"), (0.5j, "X")])
        with pytest.raises(ModelError):
            correlator_krylov(op, SIGMA_X, StateVector.basis_state(1, 1), -1.0, TimeGrid(0, 1, 16))


# the perturbed plan's N = 12 rows: field seed and Lanczos seed 100
ROW_PERTURBATIONS = {
    "heisenberg": PerturbationSpec("heisenberg_exchange", 0.05),
    "z_field": PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=100),
}
ROW_GRID = TimeGrid(0.0, 60.0, 128)
ROW_STEP_TOL = 1e-12


@pytest.fixture(scope="module")
def lanczos_row():
    """(op, psi0, E0, Z-parity sectors with their eigenpairs) per N = 12 row.

    Every flip mask of these Hamiltonians has even weight, so H does not
    couple the two sectors of the Z parity (-1)^popcount(s); a dense eigh
    of each sector of ``to_dense(op)`` gives the exact Lehmann sum at a
    quarter of the cost of one 4096 x 4096 eigh.
    """
    rows = {}
    for name, spec in ROW_PERTURBATIONS.items():
        op = _chain(12, spec)
        spectrum = lanczos_extremal(op, k=2, seed=100)
        dense = to_dense(op)
        odd = np.bitwise_count(np.arange(1 << 12)) % 2 == 1
        assert not dense[np.ix_(odd, ~odd)].any()
        sectors = [(rows_, *np.linalg.eigh(dense[np.ix_(rows_, rows_)])) for rows_ in (~odd, odd)]
        rows[name] = (op, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]), sectors)
    return rows


def _sector_lehmann(sectors, phi, e_psi, times):
    """Exact e^{i E_psi t} <phi| e^{-iHt} |phi> from the sectors' eigenpairs."""
    values = np.zeros(len(times), dtype=np.complex128)
    for rows, energies, vectors in sectors:
        weights = np.abs(vectors.T @ phi[rows]) ** 2
        values += weights @ np.exp(-1j * np.outer(energies - e_psi, times))
    return values


def _drop_light_by_argsort(mass, allowance):
    """The form of dynamics._drop_light that sorted every mass."""
    by_mass = np.argsort(mass, kind="stable")
    dropped = np.cumsum(mass[by_mass])
    n_dropped = int(np.searchsorted(dropped, allowance, side="right"))
    return np.sort(by_mass[n_dropped:]), float(dropped[n_dropped - 1]) if n_dropped else 0.0


class TestDropLight:
    """_drop_light sorts only the masses at or below the allowance; its kept
    indices and dropped mass are bit for bit those of a sort of every mass."""

    @pytest.mark.parametrize(
        "mass, allowance",
        [
            # ties, below and at the allowance: the stable order drops the first
            (np.array([0.1, 0.05, 0.1, 0.05, 0.3, 0.1]), 0.2),
            (np.array([0.1, 0.05, 0.1, 0.05, 0.3, 0.1]), 0.1),
            (np.array([0.25, 0.25, 0.25, 0.25]), 0.5),
            (np.array([1e-30, 0.0, 1e-30, 0.0, 2.0]), 1e-30),
            # every mass dropped, and none
            (np.array([1e-14, 3e-15, 2e-14]), 1e-13),
            (np.array([0.4, 0.2, 0.7]), 0.1),
            # phi = 0: every mass is 0, and all of them go
            (np.zeros(16), 6.35e-11),
        ],
        ids=["ties", "ties at the allowance", "all equal", "zeros and ties", "all dropped", "none dropped", "phi = 0"],
    )
    def test_bit_identical_to_the_argsort_form(self, mass, allowance):
        kept, dropped = dynamics._drop_light(mass, allowance)
        want_kept, want_dropped = _drop_light_by_argsort(mass, allowance)
        assert kept.dtype == want_kept.dtype and np.array_equal(kept, want_kept)
        assert np.float64(dropped).tobytes() == np.float64(want_dropped).tobytes()

    @pytest.mark.parametrize("axis", ["x", "z+x/2"])
    def test_bit_identical_on_coset_masses(self, lanczos_row, axis):
        # the z-field row has 1024 cosets of 4; m_x moves psi0 into a dozen
        # of them, and the rest carry round-off far below the allowance
        op, psi, _, _ = lanczos_row["z_field"]
        phi = _observable(12, axis).matvec(psi.amplitudes)
        mass = np.linalg.norm(phi[op.flip_span.cosets], axis=1) ** 2
        for allowance in (0.5 * (ROW_GRID.n_samples - 1) * ROW_STEP_TOL, 1e-3, 0.0):
            kept, dropped = dynamics._drop_light(mass, allowance)
            want_kept, want_dropped = _drop_light_by_argsort(mass, allowance)
            assert np.array_equal(kept, want_kept)
            assert np.float64(dropped).tobytes() == np.float64(want_dropped).tobytes()


class TestCosetRestriction:
    @pytest.mark.parametrize("row", ROW_PERTURBATIONS)
    @pytest.mark.parametrize("axis", ["z", "x"])
    def test_lanczos_ground_state_within_budget_of_lehmann_sum(self, lanczos_row, row, axis):
        op, psi, e_psi, sectors = lanczos_row[row]
        m = magnetization_operator(12, axis)
        series = correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        phi = m.matvec(psi.amplitudes)
        exact = _sector_lehmann(sectors, phi, e_psi, ROW_GRID.times())
        assert np.max(np.abs(series.values - exact)) <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL

    def test_no_coset_carries_a_psi(self, monkeypatch):
        # m_z annihilates a zero-magnetization basis state, an eigenstate of the J = 0 chain
        op = build_tc_hamiltonian(TCModelConfig(8, 0.0))
        psi = StateVector.basis_state(8, 0b01011001)
        e_psi = float(np.vdot(psi.amplitudes, op.matvec(psi.amplitudes)).real)
        calls = _count_group_applications(monkeypatch)
        series = correlator_krylov(op, magnetization_operator(8, "z"), psi, e_psi, ROW_GRID)
        assert not series.values.any()
        assert len(calls) == 2  # the eigenstate check and A psi

    def test_z_field_row_runs_on_the_ground_state_coset(self, lanczos_row, monkeypatch):
        op, psi, e_psi, _ = lanczos_row["z_field"]
        m = magnetization_operator(12, "z")
        expected = _unrestricted_series(op, m, psi, e_psi, ROW_GRID, ROW_STEP_TOL)
        calls = _count_group_applications(monkeypatch)
        series = correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        # past the eigenstate check and A psi: H phi and the Lanczos steps,
        # which the coset's 4 dimensions end at 4 (the first reuses H phi)
        assert {len(x) for _, x in calls[2:]} == {4}
        assert len(calls[2:]) <= 4
        assert np.max(np.abs(series.values - expected)) <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL

    def test_full_rank_span_reuses_the_compiled_groups(self, monkeypatch):
        # a y field makes the flip-mask span full rank: one coset, the
        # whole space in natural order, so nothing is dropped or copied;
        # the global flip anticommutes with its terms, so nothing is folded
        op = _chain(10, PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3))
        spectrum = lanczos_extremal(op, k=1, seed=100)
        psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        m_x, m_z = magnetization_operator(10, "x"), magnetization_operator(10, "z")
        expected = {m: _unrestricted_series(op, m, psi, e_psi, ROW_GRID, ROW_STEP_TOL) for m in (m_z, m_x)}
        calls = _count_group_applications(monkeypatch)
        for m, values in expected.items():
            calls.clear()
            series = correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
            assert np.max(np.abs(series.values - values)) <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL
            # past the eigenstate check and A psi: H phi and the Lanczos steps
            assert len(calls) > 3 and all(groups is op._groups for groups, _ in calls[2:])
            assert {len(x) for _, x in calls[2:]} == {1 << 10}


FOLD_FAMILIES = {
    "bare": None,
    "heisenberg": PerturbationSpec("heisenberg_exchange", 0.05),
    "x_field": PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3),
    "y_field": PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3),
    "z_field": PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3),
}


def _in_span(n, masks, target):
    """``target`` in the GF(2) span of ``masks``, by marking every reachable mask."""
    idx = np.arange(1 << n)
    reached = idx == 0
    for x in masks:
        reached |= reached[idx ^ x]
    return bool(reached[target])


def _flip_parity_eigenpairs(op):
    """Eigenpairs of an H that commutes with the global flip P, from
    ``to_dense(op)`` alone: (rows, p, energies, vectors) per eigh of a block
    <s|H|s'> + p <s|H|s' ^ 1...1> in the basis (|s> + p |s ^ 1...1>) / sqrt 2,
    s < 2^(N-1), split further by the Z parity when N is even and every
    flip mask has even weight."""
    n = op.n_sites
    full = (1 << n) - 1
    dense = to_dense(op)
    reps = np.arange(1 << (n - 1))
    parts = [reps]
    if n % 2 == 0 and all(t.x_mask.bit_count() % 2 == 0 for t in op.terms):
        odd = np.bitwise_count(reps) % 2 == 1
        parts = [reps[~odd], reps[odd]]
    return [
        (rows, p, *np.linalg.eigh(dense[np.ix_(rows, rows)] + p * dense[np.ix_(rows, rows ^ full)]))
        for rows in parts
        for p in (1.0, -1.0)
    ]


def _flip_parity_lehmann(eigenpairs, phi, e_psi, times):
    """Exact e^{i E_psi t} <phi| e^{-iHt} |phi> from :func:`_flip_parity_eigenpairs`."""
    full = phi.size - 1
    values = np.zeros(len(times), dtype=np.complex128)
    for rows, p, energies, vectors in eigenpairs:
        weights = np.abs(vectors.conj().T @ ((phi[rows] + p * phi[rows ^ full]) / np.sqrt(2.0))) ** 2
        values += weights @ np.exp(-1j * np.outer(energies - e_psi, times))
    return values


class TestGlobalFlipFold:
    """The Krylov correlator on the global flip's sectors: the cosets of
    the bare, Heisenberg and x-field chains split in two halves of opposite
    P = X...X parity, and the Lanczos run is on the halves that carry A psi."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("family", FOLD_FAMILIES)
    def test_fold_decision_matches_the_commutation_oracle(self, family, boundary):
        for n in range(7, 13):
            op = _chain(n, FOLD_FAMILIES[family], boundary)
            flip = global_flip_operator(n).terms[0]
            oracle = all(strings_commute(flip, t) for t in op.terms) and _in_span(
                n, [t.x_mask for t in op.terms], flip.x_mask
            )
            assert (op.sectors[1] is not None) == oracle
            assert oracle == (family in ("bare", "heisenberg", "x_field"))

    @pytest.mark.parametrize("n", [8, 10, 12])
    @pytest.mark.parametrize("family", ["bare", "heisenberg", "x_field"])
    def test_folded_series_within_budget_of_lehmann_sum(self, family, n):
        # dense ground states at N = 8 and 10, a Lanczos one at N = 12
        op = _chain(n, FOLD_FAMILIES[family])
        spectrum = dense_spectrum(op) if n < 12 else lanczos_extremal(op, k=2, seed=100)
        psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        self._check_against_lehmann(op, psi, e_psi)

    @staticmethod
    def _check_against_lehmann(op, psi, e_psi):
        eigenpairs = _flip_parity_eigenpairs(op)
        for axis in ("z", "x", "z+x/2"):  # m_z flips P, m_x keeps it, their sum does both
            m = _observable(op.n_sites, axis)
            series = correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
            exact = _flip_parity_lehmann(eigenpairs, m.matvec(psi.amplitudes), e_psi, ROW_GRID.times())
            assert np.max(np.abs(series.values - exact)) <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL, axis

    @pytest.mark.parametrize("family", ["bare", "heisenberg", "x_field"])
    def test_odd_open_chain_within_budget_of_lehmann_sum(self, family):
        # at N = 9 the half-chain strings cover 4 and 5 sites
        op = _chain(9, FOLD_FAMILIES[family], "open")
        spectrum = dense_spectrum(op)
        psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        assert op.sectors[1] is not None
        self._check_against_lehmann(op, psi, e_psi)

    @pytest.mark.parametrize("axis, length", [("z", 128), ("x", 128), ("z+x/2", 256)])
    def test_a_sum_of_both_parities_keeps_both_sectors(self, axis, length, monkeypatch):
        # the x-field chain is one coset of 256: m_z moves the ground state
        # into the other P sector, m_x keeps it in its own, their sum does both
        op = _chain(8, FOLD_FAMILIES["x_field"])
        spectrum = dense_spectrum(op)
        psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        calls = _count_group_applications(monkeypatch)
        correlator_krylov(op, _observable(8, axis), psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        # past the eigenstate check and A psi: H phi and the Lanczos steps
        assert len(calls) > 2 and {len(x) for _, x in calls[2:]} == {length}

    @pytest.mark.parametrize(
        "row, length",
        [("heisenberg", 1024), ("x_field", 512), ("z_field", 4)],
    )
    def test_recursion_runs_on_the_folded_sector(self, lanczos_row, row, length, monkeypatch):
        if row == "x_field":
            op = _chain(10, FOLD_FAMILIES["x_field"])
            spectrum = lanczos_extremal(op, k=1, seed=100)
            psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        else:
            op, psi, e_psi, _ = lanczos_row[row]
        m = magnetization_operator(op.n_sites, "z")
        calls = _count_group_applications(monkeypatch)
        correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        # past the eigenstate check and A psi: H phi and the Lanczos steps
        assert len(calls) > 2 and {len(x) for _, x in calls[2:]} == {length}

    def test_fold_merges_the_groups_that_differ_by_the_flip(self):
        # the chain's half-chain strings L and R = L ^ 1...1 share one gather
        op = _chain(8, None)
        span = op.flip_span
        rows = span.cosets[:1]
        for parity in (1.0, -1.0):
            groups = span.cut(op._groups, rows, np.array([parity]))
            assert len(groups) == len(op._groups) - 1
            assert all(len(c) == rows.shape[1] // 2 for c, _ in groups)


def _dm_chain(n):
    """The chain with complex Dzyaloshinskii-Moriya bonds 0.1 (X_i Y_i+1 -
    Y_i X_i+1): real weights on Y strings, so H is complex."""
    bonds = [(c, "I" * i + pair + "I" * (n - 2 - i)) for i in range(n - 1) for c, pair in ((0.1, "XY"), (-0.1, "YX"))]
    return (build_tc_hamiltonian(TCModelConfig(n, 0.5)) + from_label_terms(bonds)).canonicalize()


QUADRATURE_CHAINS = [*FOLD_FAMILIES, "dzyaloshinskii_moriya"]
QUADRATURE_GRIDS = {"t_start<0": TimeGrid(-30.0, 90.0, 160), "t_start=0": TimeGrid(0.0, 120.0, 192)}


@pytest.fixture(scope="module")
def quadrature_chains():
    """(op, psi0, E0, dense spectrum) per (family, N), built on first use."""
    cache = {}

    def get(family, n):
        if (family, n) not in cache:
            op = _dm_chain(n) if family == "dzyaloshinskii_moriya" else _chain(n, FOLD_FAMILIES[family])
            spectrum = dense_spectrum(op)
            cache[family, n] = (op, spectrum.state(0).normalized(), float(spectrum.eigenvalues[0]), spectrum)
        return cache[family, n]

    return get


def _krylov_record(caplog):
    """The (kept length, steps, cap, bound, dropped) of the one record a
    correlator_krylov call logs."""
    records = [r for r in caplog.records if r.name == "tcspin.dynamics"]
    assert len(records) == 1
    return records[0].args


class TestLanczosQuadrature:
    """The eigenstate correlator as a Gauss rule from a Lanczos run on A psi:
    within B of the Lehmann sum, its stated bound above the true error, its
    basis orthogonal to the eta it was given, and few matvecs."""

    @pytest.mark.parametrize("grid", QUADRATURE_GRIDS.values(), ids=QUADRATURE_GRIDS.keys())
    @pytest.mark.parametrize("axis", ["z", "x"])
    @pytest.mark.parametrize("n", [8, 10])
    @pytest.mark.parametrize("family", QUADRATURE_CHAINS)
    def test_within_budget_and_its_bound_of_lehmann_sum(self, quadrature_chains, family, n, axis, grid, caplog):
        op, psi, e_psi, spectrum = quadrature_chains(family, n)
        m = magnetization_operator(n, axis)
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov(op, m, psi, e_psi, grid, step_tol=1e-12)
        error = np.max(np.abs(series.values - correlator_spectral(op, spectrum, m, psi, grid).values))
        assert error <= (grid.n_samples - 1) * 1e-12
        _, steps, cap, bound, dropped = _krylov_record(caplog)
        assert 1 <= steps <= cap
        assert error <= bound + dropped

    @pytest.mark.parametrize(
        "family, n, axis, grid",
        [("heisenberg", 12, "z", ROW_GRID), ("heisenberg_0.3", 10, "x", TimeGrid(0.0, 240.0, 512))],
        ids=["N=12 Heisenberg-0.05 row", "N=10 Heisenberg-0.3, t <= 240"],
    )
    def test_basis_stays_orthogonal_to_eta(self, lanczos_row, family, n, axis, grid, monkeypatch, caplog):
        if family == "heisenberg":
            op, psi, e_psi, _ = lanczos_row[family]
        else:
            op = build_tc_hamiltonian(TCModelConfig(n, 1.0))
            op = (op + build_perturbation(n, PerturbationSpec("heisenberg_exchange", 0.3))).canonicalize()
            spectrum = dense_spectrum(op)
            psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        seen = []
        step = dynamics._lanczos_step

        def spying(matvec, basis, small, omega, j, kept, beta, deflate, eta, *rest):
            seen.append((basis, eta))
            return step(matvec, basis, small, omega, j, kept, beta, deflate, eta, *rest)

        monkeypatch.setattr(dynamics, "_lanczos_step", spying)
        with caplog.at_level("INFO", logger="tcspin"):
            correlator_krylov(op, magnetization_operator(n, axis), psi, e_psi, grid, step_tol=1e-12)
        _, steps, _, _, _ = _krylov_record(caplog)
        basis, eta = seen[-1]  # the buffers grow past 64 steps
        assert len(seen) == steps > 40 and len({id(b) for b, _ in seen}) == 1 + (steps > 64) + (steps > 128)
        q = basis[:steps]
        assert 0.0 < eta <= np.sqrt(np.finfo(float).eps)
        assert np.max(np.abs(q.conj() @ q.T - np.eye(steps))) <= eta

    def test_heisenberg_row_makes_at_most_64_matvecs(self, lanczos_row, monkeypatch):
        # the Chebyshev moment recursion made about 395 here (order 790)
        op, psi, e_psi, sectors = lanczos_row["heisenberg"]
        m = magnetization_operator(12, "z")
        calls = _count_group_applications(monkeypatch)
        series = correlator_krylov(op, m, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        assert len(calls) <= 64
        exact = _sector_lehmann(sectors, m.matvec(psi.amplitudes), e_psi, ROW_GRID.times())
        assert np.max(np.abs(series.values - exact)) <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL

    def test_logs_one_record_per_call(self, lanczos_row, caplog):
        op, psi, e_psi, _ = lanczos_row["heisenberg"]
        with caplog.at_level("INFO", logger="tcspin"):
            correlator_krylov(op, magnetization_operator(12, "z"), psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        kept, steps, cap, bound, dropped = _krylov_record(caplog)
        # m_z psi0 is one P sector of 1024 states; the a-priori cap is order
        # 998 / 2 from the closed-form tail (the Bessel column's 790 / 2 was 396)
        assert (kept, cap) == (1024, 500) and steps < 64
        assert bound + dropped <= (ROW_GRID.n_samples - 1) * ROW_STEP_TOL

    def test_first_check_accepts_a_near_eigenvector(self, caplog):
        # on H = Z + 5e-9 X, m_z psi0 is an eigenvector to r = 1e-8: the
        # one-sided bound ||phi|| t_max r that the one-matvec shortcut used
        # is 6e-7, over B, while the two-sided (t_max r)^2 is 3.6e-13
        op = from_label_terms([(1.0, "Z"), (5e-9, "X")])
        spectrum = dense_spectrum(op)
        psi, e_psi = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        budget = (ROW_GRID.n_samples - 1) * ROW_STEP_TOL
        phi = SIGMA_Z.matvec(psi.amplitudes)
        h_phi = op.matvec(phi)
        residual = np.linalg.norm(h_phi - np.vdot(phi, h_phi).real * phi)
        assert 5e-9 < residual < 2e-8 and ROW_GRID.t_end * residual > budget
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov(op, SIGMA_Z, psi, e_psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        kept, steps, cap, bound, _ = _krylov_record(caplog)
        # one step, and the log carries the real cap: the coset's 2 states
        assert (kept, steps, cap) == (2, 1, 2) and bound <= budget
        exact = correlator_spectral(op, spectrum, SIGMA_Z, psi, ROW_GRID)
        assert np.max(np.abs(series.values - exact.values)) <= budget

    def test_zero_hamiltonian_on_the_kept_sector(self, caplog):
        # H = ZI + IZ is 0 on basis state 0b10, the one state m_z psi keeps:
        # h = 0 there, and eta must not divide by it
        op = from_label_terms([(1.0, "ZI"), (1.0, "IZ")])
        psi = StateVector.basis_state(2, 0b10)
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov(op, from_label_terms([(1.0, "ZI")]), psi, 0.0, ROW_GRID)
        assert np.array_equal(series.values, np.ones(ROW_GRID.n_samples))
        assert _krylov_record(caplog)[:3] == (1, 1, 1)

    def test_cap_is_at_or_above_the_bessel_cap_and_the_steps_taken(self, quadrature_chains, monkeypatch, caplog):
        # the closed-form tail of (z/2)^k / k! against the Bessel column's own
        # tail (the oracle's order): never below it, and at most e/2 times it
        for z in (0.0, 1e-12, 1e-3, 0.5, 1.0, 2.5, 7.0, 20.0, 63.5, 150.0, 400.0, 1000.0, 3000.0):
            for scale in (1e-3, 1.0, 4.0):
                for budget in (1e-14, 1e-12, 1e-10, 1e-6, 1e-2):
                    order, bessel = dynamics._tail_order(z, scale, budget), _chebyshev_order(z, scale, budget)[0]
                    assert bessel <= order <= np.e / 2 * bessel + 8, (z, scale, budget)
        runs = []
        rule = dynamics._gauss_rule

        def spying(groups, phi, interval, rounding, t_max, budget):
            runs.append((len(phi), float(np.vdot(phi, phi).real), _window(interval)[1] * t_max, budget))
            return rule(groups, phi, interval, rounding, t_max, budget)

        monkeypatch.setattr(dynamics, "_gauss_rule", spying)
        for family in QUADRATURE_CHAINS:
            for n in (8, 10):
                op, psi, e_psi, _ = quadrature_chains(family, n)
                for axis in ("z", "x"):
                    for grid in QUADRATURE_GRIDS.values():
                        runs.clear()
                        caplog.clear()
                        with caplog.at_level("INFO", logger="tcspin"):
                            correlator_krylov(op, magnetization_operator(n, axis), psi, e_psi, grid, step_tol=1e-12)
                        _, steps, cap, _, _ = _krylov_record(caplog)
                        ((dim, scale, z, budget),) = runs
                        bessel_cap = min(_chebyshev_order(z, scale, 0.5 * budget)[0] // 2 + 1, dim)
                        assert cap >= bessel_cap and cap >= steps, (family, n, axis, grid)


def _ghz_pair(op, spectrum):
    ghz = ghz_overlap_report(spectrum, op.n_sites)
    pair = spectrum.vector(ghz.best_plus_index) + spectrum.vector(ghz.best_minus_index)
    return StateVector(op.n_sites, pair).normalized()


class TestGeneralCorrelator:
    GRID = TimeGrid(10.0, 130.0, 192)

    @pytest.mark.parametrize("spec", PERTURBATIONS[1:])
    @pytest.mark.parametrize("step_tol", [1e-10, 1e-12])
    def test_ghz_pair_matches_exact_propagation_within_budget(self, spec, step_tol):
        # at step_tol 1e-10 on the Heisenberg chain, cutting every step at
        # step_tol instead of splitting the budget gave 2.2e-8 > 1.9e-8
        op = _chain(8, spec)
        spectrum = dense_spectrum(op)
        psi = _ghz_pair(op, spectrum)
        m = magnetization_operator(8, "z")
        series = correlator_krylov_general(op, m, psi, self.GRID, step_tol=step_tol)
        vecs = dense_vectors(spectrum).T  # column n holds |n>
        m_dense = to_dense(m)
        start, kicked = vecs.conj().T @ psi.amplitudes, vecs.conj().T @ (m_dense @ psi.amplitudes)
        exact = [
            np.vdot(vecs @ (phase * start), m_dense @ (vecs @ (phase * kicked)))
            for phase in np.exp(-1j * np.outer(self.GRID.times(), spectrum.eigenvalues))
        ]
        # ||m_z|| = 1 and psi is normalized, so the budget bounds |Delta C| itself
        assert np.max(np.abs(series.values - exact)) <= (self.GRID.n_samples - 1) * step_tol

    def test_ghz_pair_costs_one_window_a_trajectory(self, monkeypatch, caplog):
        # the bare chain's ghz_pair and m_z of it lie in one coset of 4 states:
        # each trajectory is one window that breaks down there, at m = 2 and 3,
        # 5 H matvecs where the Chebyshev propagator made 6 096 (a dt + 17 a sample)
        op = _chain(12, None)
        psi = _ghz_pair(op, dense_spectrum(op))
        m = magnetization_operator(12, "z")
        checks = []
        run = dynamics._krylov_checks

        def spying(*args):
            for check in run(*args):
                checks.append((len(check[2]), check[-1]))  # (m, whether the run is over)
                yield check

        monkeypatch.setattr(dynamics, "_krylov_checks", spying)
        calls = _count_matvecs_of(monkeypatch, op)
        with caplog.at_level("INFO", logger="tcspin"):
            correlator_krylov_general(op, m, psi, ROW_GRID, step_tol=ROW_STEP_TOL)
        assert checks == [(1, False), (2, True), (1, False), (3, True)]
        windows, steps, _, bound, half = _general_record(caplog)
        assert (windows, steps, len(calls)) == (2, 5, 5)
        assert bound <= half == 0.5 * (ROW_GRID.n_samples - 1) * ROW_STEP_TOL

    def test_a_psi_of_zero_takes_no_window(self, monkeypatch, caplog):
        # m_z annihilates a zero-magnetization basis state, which the J = 0.5
        # chain's strings mix: chi = 0 stays 0, and only psi's trajectory runs
        op = _chain(8, None)
        psi = StateVector.basis_state(8, 0b01011001)
        with pytest.raises(EigenstateError):
            dynamics.eigenstate_energy(op, psi)
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov_general(op, magnetization_operator(8, "z"), psi, self.GRID)
        assert not series.values.any()
        windows, steps, _, _, _ = _general_record(caplog)
        assert windows >= 1 and steps >= 1

    @pytest.mark.parametrize("step_tol", [0.0, -1.0, float("nan")])
    def test_rejects_non_positive_step_tol(self, step_tol):
        op = _chain(8, PERTURBATIONS[1])
        psi = _ghz_pair(op, dense_spectrum(op))
        m = magnetization_operator(8, "z")
        with pytest.raises(ValueError, match="step_tol"):
            correlator_krylov_general(op, m, psi, self.GRID, step_tol=step_tol)


GENERAL_GRIDS = {
    "t_start=0": TimeGrid(0.0, 60.0, 128),
    "t_start>0": TimeGrid(10.0, 70.0, 128),
    "t_start<0": TimeGrid(-30.0, 30.0, 128),
}


@pytest.fixture(scope="module")
def general_chains():
    """(op, eigenvalues, eigenvectors, dense m_z, dense spectrum) per (family, N), built on first use."""
    cache = {}

    def get(family, n):
        if (family, n) not in cache:
            op = _chain(n, FOLD_FAMILIES[family])
            cache[family, n] = (op, *np.linalg.eigh(to_dense(op)), to_dense(magnetization_operator(n, "z")), dense_spectrum(op))
        return cache[family, n]

    return get


def _general_record(caplog):
    """(windows, Lanczos steps, largest window bound, trajectory bound,
    B / 2) of the one record a correlator_krylov_general call logs."""
    records = [r for r in caplog.records if r.name == "tcspin.dynamics"]
    assert len(records) == 1 and records[0].msg == dynamics._GENERAL_RECORD
    return records[0].args


class TestGeneralRouteAccuracy:
    """correlator_krylov_general against the dense oracle on every family,
    for states that are not eigenstates, on grids from t_start = 0, above
    and below it: within B ||A|| ||psi|| ||A psi||, and its logged bound
    within B / 2."""

    @pytest.mark.parametrize("grid", GENERAL_GRIDS.values(), ids=GENERAL_GRIDS.keys())
    @pytest.mark.parametrize("state", ["basis", "ghz_pair", "random"])
    @pytest.mark.parametrize("n", [6, 8])
    @pytest.mark.parametrize("family", FOLD_FAMILIES)
    def test_within_budget_of_the_dense_oracle(self, general_chains, family, n, state, grid, caplog):
        op, energies, columns, m_dense, spectrum = general_chains(family, n)
        if state == "basis":
            psi = StateVector.basis_state(n, 0b0110 << (n - 4))
            with pytest.raises(EigenstateError):
                dynamics.eigenstate_energy(op, psi)
        elif state == "ghz_pair":
            psi = _ghz_pair(op, spectrum)
        else:
            psi = random_state(np.random.default_rng(n), n)
        m = magnetization_operator(n, "z")
        step_tol = 1e-12
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov_general(op, m, psi, grid, step_tol=step_tol)
        budget = (grid.n_samples - 1) * step_tol
        error = np.max(np.abs(series.values - _general_lehmann(energies, columns, m_dense, psi, grid.times())))
        assert error <= budget * m.one_norm() * np.linalg.norm(m.matvec(psi.amplitudes))
        _, _, _, bound, half = _general_record(caplog)
        assert bound <= half == 0.5 * budget

    def test_far_first_time_keeps_every_window_short(self, general_chains, monkeypatch, caplog):
        # the path 0 -> 500 spans some 4 500 radians: windows restart between
        # stops, so none runs past _WINDOW_STEPS steps (a basis of 63 rows), and
        # no Gauss-Legendre panel spans more than _PANEL_Z radians
        op, energies, columns, m_dense, _ = general_chains("heisenberg", 8)
        psi, m, grid, step_tol = StateVector.basis_state(8, 0b01100000), magnetization_operator(8, "z"), TimeGrid(500.0, 520.0, 32), 1e-10
        steps, panels = [], []
        run, rule = dynamics._krylov_checks, dynamics._legendre

        def spying(*args):
            for check in run(*args):
                steps.append(len(check[0]))
                yield check

        def recording(z):
            panels.append(z)
            return rule(z)

        monkeypatch.setattr(dynamics, "_krylov_checks", spying)
        monkeypatch.setattr(dynamics, "_legendre", recording)
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov_general(op, m, psi, grid, step_tol=step_tol)
        budget = (grid.n_samples - 1) * step_tol
        error = np.max(np.abs(series.values - _general_lehmann(energies, columns, m_dense, psi, grid.times())))
        assert error <= budget * m.one_norm() * np.linalg.norm(m.matvec(psi.amplitudes))
        windows, _, _, bound, half = _general_record(caplog)
        assert max(steps) == dynamics._WINDOW_STEPS and windows > 50
        assert max(panels) <= dynamics._PANEL_Z
        assert bound <= half

    def test_round_off_past_the_budget_is_reported(self, general_chains, caplog):
        # at step_tol 1e-15 a window's round-off term alone outgrows its share:
        # each serves what its steps serve in exact arithmetic, the logged bound
        # still holds the error, and a warning says it passed B / 2
        op, energies, columns, m_dense, _ = general_chains("heisenberg", 6)
        psi, m, grid = StateVector.basis_state(6, 0b011000), magnetization_operator(6, "z"), GENERAL_GRIDS["t_start>0"]
        with caplog.at_level("INFO", logger="tcspin"):
            series = correlator_krylov_general(op, m, psi, grid, step_tol=1e-15)
        info, warning = (r for r in caplog.records if r.name == "tcspin.dynamics")
        _, _, _, bound, half = info.args
        assert warning.levelname == "WARNING" and warning.args == (bound, half) and bound > half
        error = np.max(np.abs(series.values - _general_lehmann(energies, columns, m_dense, psi, grid.times())))
        assert error <= 2.0 * bound * m.one_norm() * np.linalg.norm(m.matvec(psi.amplitudes))


class TestOperandChecks:
    """The four dynamics entry points check site counts, the three
    correlators a Hermitian observable, and the three matrix-free routes
    (the Gauss rule and the Lanczos windows) a Hermitian H, before any work."""

    # the 2-site H = ZI + 0.3i XX + 0.5 IX: evolve used to return a state of norm 1.08
    NON_HERMITIAN = from_label_terms([(1.0, "ZI"), (0.3j, "XX"), (0.5, "IX")])
    GRID = TimeGrid(0.0, 2.0, 16)

    def test_evolve_rejects_non_hermitian_hamiltonian(self):
        with pytest.raises(ModelError):
            evolve(self.NON_HERMITIAN, StateVector.basis_state(2, 0), 2.0)

    def test_general_correlator_rejects_non_hermitian_hamiltonian(self):
        m = magnetization_operator(2, "z")
        with pytest.raises(ModelError):
            correlator_krylov_general(self.NON_HERMITIAN, m, StateVector.basis_state(2, 0), self.GRID)

    @pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
    def test_evolve_rejects_non_finite_time(self, t):
        with pytest.raises(ValueError, match="finite"):
            evolve(SIGMA_Z, StateVector.basis_state(1, 0), t)

    @pytest.mark.parametrize("wrong", ["a_sites", "psi_sites", "a_non_hermitian"])
    @pytest.mark.parametrize("route", ["spectral", "krylov", "krylov_general"])
    def test_correlators_reject_bad_operands(self, route, wrong):
        op = build_tc_hamiltonian(TCModelConfig(4, 0.5))
        spectrum = dense_spectrum(op)
        a, psi, error = magnetization_operator(4, "z"), spectrum.state(0), DimensionError
        if wrong == "a_sites":
            a = magnetization_operator(5, "z")
        elif wrong == "psi_sites":
            psi = StateVector.basis_state(5, 0)
        else:
            a, error = from_label_terms([(1.0, "ZIII"), (0.5j, "XXII")]), ModelError
        with pytest.raises(error):
            if route == "spectral":
                correlator_spectral(op, spectrum, a, psi, self.GRID)
            elif route == "krylov":
                correlator_krylov(op, a, psi, float(spectrum.eigenvalues[0]), self.GRID)
            else:
                correlator_krylov_general(op, a, psi, self.GRID)

    @pytest.mark.parametrize("route", ["spectral", "krylov", "krylov_general"])
    def test_correlators_accept_real_weights_on_y_strings(self, route):
        # Hermitian, with a complex matrix: the observable check must not refuse it
        op = build_tc_hamiltonian(TCModelConfig(4, 0.5))
        spectrum = dense_spectrum(op)
        psi, energy = spectrum.state(0).normalized(), float(spectrum.eigenvalues[0])
        a = from_label_terms([(0.1, "XYII"), (-0.1, "YXII"), (0.1, "IXYI"), (-0.1, "IYXI")])
        if route == "spectral":
            series = correlator_spectral(op, spectrum, a, psi, self.GRID)
        elif route == "krylov":
            series = correlator_krylov(op, a, psi, energy, self.GRID, step_tol=1e-12)
        else:
            series = correlator_krylov_general(op, a, psi, self.GRID, step_tol=1e-12)
        assert np.max(np.abs(series.values - _full_lehmann(op, a, psi, self.GRID.times()))) < 1e-9

    def test_evolve_rejects_a_site_count_mismatch(self):
        with pytest.raises(DimensionError):
            evolve(SIGMA_Z, StateVector.basis_state(2, 0), 1.0)


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
        out = evolve(op, v, 5.0, step_tol=1e-12)
        exact = scipy.linalg.expm(-5j * to_dense(op)) @ v.amplitudes
        assert np.max(np.abs(out.amplitudes - exact)) < 1e-8

    def test_long_time_matches_dense_matrix_exponential(self):
        op = _chain(8, PERTURBATIONS[1])
        v = random_state(np.random.default_rng(21), 8)
        out = evolve(op, v, 50.0, step_tol=1e-12)
        exact = scipy.linalg.expm(-50j * to_dense(op)) @ v.amplitudes
        assert np.max(np.abs(out.amplitudes - exact)) < 1e-8

    def test_complex_chain_matches_dense_matrix_exponential(self):
        # a y field makes H complex: the windows run in complex arithmetic
        op = _chain(8, FOLD_FAMILIES["y_field"])
        assert np.iscomplexobj(op.matvec(np.ones(1 << 8)))
        v = random_state(np.random.default_rng(34), 8)
        out = evolve(op, v, 50.0, step_tol=1e-12)
        exact = scipy.linalg.expm(-50j * to_dense(op)) @ v.amplitudes
        assert np.max(np.abs(out.amplitudes - exact)) < 1e-8

    def test_norm_preserved_across_a_grid(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.7))
        v = random_state(np.random.default_rng(8), 6)
        drift = 0.0
        for _ in range(64):
            v = evolve(op, v, 0.37, step_tol=1e-12)
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

    @pytest.mark.parametrize("step_tol", [0.0, -1.0, float("nan")])
    @pytest.mark.parametrize("eigenvector", [True, False])
    def test_rejects_non_positive_step_tol(self, step_tol, eigenvector):
        # the one-matvec eigenvector shortcut must not skip the check
        op = SIGMA_Z if eigenvector else build_tc_hamiltonian(TCModelConfig(6, 0.5))
        with pytest.raises(ValueError, match="step_tol"):
            evolve(op, StateVector.basis_state(op.n_sites, 0), 3.0, step_tol=step_tol)


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
        series = correlator_spectral(SIGMA_Z, spec, SIGMA_X, StateVector.basis_state(1, 1), grid)
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
        series = correlator_spectral(op, spec, m, psi, TimeGrid(0.0, 200.0, 512))
        rep = extract_oscillation(series, 8)
        assert rep.n_peaks >= 1
        assert gap_frequency_consistency(spec, rep, tol=1e-6)


def _extraction_corpus():
    """(name, series, max_peaks) for the extraction oracle test: every series
    a sweep or a study extracts, and series that reach the pursuit's edges."""
    cases = []
    plan = criterion_8_plan()
    m_8 = magnetization_operator(8, "z")
    points = dict.fromkeys(sweep_row_operator(*row) for row in sweep._enumerate_points(plan))
    for i, op in enumerate(points):  # the dense route of run_point
        spec = dense_spectrum(op)
        series = correlator_spectral(op, spec, m_8, spec.state(0).normalized(), plan.grid)
        cases.append((f"criterion-8 point {i}", series, plan.solver.max_peaks))
    control, control_grid = OscillatorControl(n_values=(6, 8, 10, 12, 14)), TimeGrid(0.0, 240.0, 512)
    for n in control.n_values:
        series = cm_correlator_numeric(control, n, control_grid)
        cases.append((f"oscillator control N={n}", series, sweep.CONTROL_MAX_PEAKS))
    m_10 = magnetization_operator(10, "z")
    for pert in PERTURBATIONS[1:]:
        op = _chain(10, pert)
        ground = dense_spectrum(op)
        series = correlator_krylov(
            op, m_10, ground.state(0).normalized(), float(ground.eigenvalues[0]), TimeGrid(0.0, 60.0, 128), 1e-12
        )
        cases.append((f"Krylov N=10 {pert.kind}", series, 8))
    grid = TimeGrid(-40.0, 25.0, 160)
    t = grid.times()
    two_tones = 0.2 + 0.7 * np.exp(-2.3j * t) + 0.3 * np.exp(0.9j * t)
    cases.append(("t_start < 0", CorrelationSeries(grid, two_tones), 8))
    decaying = (0.6 * np.exp(-1.7j * t) + 0.3 * np.cos(0.4 * t)) * np.exp(-0.01 * (t - t[0]))
    for max_peaks in (1, 8):
        cases.append((f"max_peaks {max_peaks}", CorrelationSeries(grid, decaying), max_peaks))
    cases.append(("flat", CorrelationSeries(TimeGrid(0.0, 10.0, 64), np.full(64, 0.7 + 0.1j)), 8))
    spikes = np.zeros(17, dtype=np.complex128)
    spikes[[0, 2, 4]] = 1.0
    cases.append(("merge: three spikes", CorrelationSeries(TimeGrid(0.0, 16.0, 17), spikes), 8))
    grid = TimeGrid(0.0, 120.0, 192)
    noise = np.random.default_rng(5).standard_normal((2, 192))
    noisy = np.exp(1j * grid.times()) + 1e-9 * (noise[0] + 1j * noise[1])
    cases.append(("amplitude floor: a tone in 1e-9 noise", CorrelationSeries(grid, noisy), 8))
    bare_4 = build_tc_hamiltonian(TCModelConfig(4, 0.5))
    spec = dense_spectrum(bare_4)
    aliased = correlator_spectral(bare_4, spec, magnetization_operator(4, "z"), spec.state(0), TimeGrid(0.0, 1e10, 64))
    cases.append(("merge: every frequency aliased away", aliased, 8))
    return cases


def _report_bits(report):
    """The report's numbers as bytes, so that equal means bit for bit."""
    return (
        report.frequencies.tobytes(),
        report.amplitudes.tobytes(),
        np.complex128(report.dc_component).tobytes(),
        np.float64(report.residual_fraction).tobytes(),
    )


@pytest.fixture(scope="module")
def extraction_corpus():
    return _extraction_corpus()


class TestExtractionOracle:
    """extract_oscillation reuses the exponentials its solves form; its
    reports must not move by a bit from the oracle that forms them anew."""

    def test_bit_identical_to_the_oracle(self, extraction_corpus):
        differ = [
            name
            for name, series, max_peaks in extraction_corpus
            if _report_bits(extract_oscillation(series, max_peaks)) != _report_bits(oracle_extract_oscillation(series, max_peaks))
        ]
        assert len(extraction_corpus) == 35 + 5 + 2 + 7
        assert not differ

    def test_corpus_reaches_the_merge_and_amplitude_floor_branches(self, extraction_corpus):
        taken = set()
        for _, series, max_peaks in extraction_corpus:
            oracle_extract_oscillation(series, max_peaks, taken)
        assert taken == {"merge", "floor"}
