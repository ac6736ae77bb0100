"""Dense and Lanczos eigensolvers, GHZ diagnostics, parity sector labels."""

import json

import numpy as np
import pytest

import tcspin.pauli
import tcspin.spectra
from tcspin.dynamics import TimeGrid
from tcspin.errors import DenseCapError, ModelError
from tcspin.models import (
    PerturbationSpec,
    TCModelConfig,
    build_ghz,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from tcspin.pauli import Operator, PauliString, StateVector, global_flip_operator, to_dense
from tcspin.spectra import (
    _block_matrices,
    dense_spectrum,
    ghz_overlap_report,
    lanczos_extremal,
)
from tcspin.sweep import SolverSettings, run_point

from conftest import dense_vectors, first_mismatch, kron_dense, load_fixture, orbit_block_spectrum, random_operator


def half_string_difference(n: int) -> Operator:
    """X string on sites 1..floor(n/2) minus the X string on the rest."""
    h = n // 2
    first = (1 << h) - 1
    second = ((1 << n) - 1) ^ first
    return Operator(n, (PauliString(n, first, 0, 1.0), PauliString(n, second, 0, -1.0)))


class TestDenseSpectrum:
    def test_single_site_x(self):
        spec = dense_spectrum(Operator.from_label_terms([(1.0, "X")]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        assert spec.residuals.max() < 1e-10

    def test_classical_ground_space_is_polarized_pair(self):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(4, 0.0)))
        assert spec.eigenvalues[0] == pytest.approx(-4.0, abs=1e-12)
        assert len(spec.clusters()[0]) >= 2

    def test_rejects_non_hermitian(self):
        op = Operator(1, (PauliString(1, 1, 0, 1.0j),))
        with pytest.raises(ModelError):
            dense_spectrum(op)

    def test_respects_dense_cap(self, monkeypatch):
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "4")
        with pytest.raises(DenseCapError):
            dense_spectrum(build_tc_hamiltonian(TCModelConfig(6, 0.5)))

    def test_eigenvectors_orthonormal(self):
        vectors = dense_vectors(dense_spectrum(build_tc_hamiltonian(TCModelConfig(6, 0.5))))
        gram = vectors.conj() @ vectors.T
        assert np.max(np.abs(gram - np.eye(len(vectors)))) < 1e-8

    def test_full_spectrum_pinned_as_regression_fixture(self):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(8, 0.5)))
        # independent verification before pinning: the Lanczos route must
        # reproduce the low end of the spectrum
        lan = lanczos_extremal(build_tc_hamiltonian(TCModelConfig(8, 0.5)), k=4, seed=1)
        assert np.max(np.abs(lan.eigenvalues - spec.eigenvalues[:4])) < 1e-10
        payload = json.dumps([float(e) for e in spec.eigenvalues])
        mismatch = first_mismatch(load_fixture("spectrum_n8_j0.5.json"), payload)
        assert mismatch is None, f"spectrum differs from its fixture {mismatch}"


def chain_with(n: int, *specs: PerturbationSpec) -> Operator:
    op = build_tc_hamiltonian(TCModelConfig(n, 0.5))
    for spec in specs:
        op = op + build_perturbation(n, spec)
    return op.canonicalize()


def chain_n8(perturbation: PerturbationSpec | str | None) -> Operator:
    """The N = 8 chain of :func:`chain_with`, bare, with a perturbation, or
    with the complex Dzyaloshinskii-Moriya bonds."""
    if perturbation != "dzyaloshinskii_moriya":
        return chain_with(8, *([perturbation] if perturbation else []))
    bonds = [(c, "I" * i + pair + "I" * (6 - i)) for i in range(7) for c, pair in ((0.1, "XY"), (-0.1, "YX"))]
    return (build_tc_hamiltonian(TCModelConfig(8, 0.5)) + Operator.from_label_terms(bonds)).canonicalize()


HEISENBERG = PerturbationSpec("heisenberg_exchange", 0.05)
Z_FIELD = PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3)
# (operator, k): the N = 10 and 12 chains bare, with exchange and with a z
# field, the complex N = 8 chain, and a solve that goes through thick restarts
PARTIAL_REORTHOGONALIZATION_CASES = {
    **{
        f"n{n}_{name}": (chain_with(n, *specs), 4)
        for n in (10, 12)
        for name, specs in (("chain", ()), ("heisenberg", (HEISENBERG,)), ("z_field", (Z_FIELD,)))
    },
    "n8_dzyaloshinskii_moriya": (chain_n8("dzyaloshinskii_moriya"), 4),
    "n10_heisenberg_restarts": (chain_with(10, HEISENBERG), 6),
}


class TestLanczos:
    def test_matches_dense_low_end(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        dense = dense_spectrum(op)
        lan = lanczos_extremal(op, k=4, tol=1e-10, seed=3)
        assert lan.n_converged == 4
        assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:4])) < 1e-10

    def test_finds_degenerate_copies(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.0))
        lan = lanczos_extremal(op, k=2, seed=5)
        assert np.allclose(lan.eigenvalues, [-6.0, -6.0], atol=1e-10)

    def test_identity_operator(self):
        op = Operator.from_label_terms([(1.0, "III")])
        lan = lanczos_extremal(op, k=1, seed=0)
        assert lan.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)

    def test_sixteen_sites_matrix_free(self):
        op = build_tc_hamiltonian(TCModelConfig(16, 1.0))
        lan = lanczos_extremal(op, k=2, tol=1e-10, seed=7)
        assert lan.n_converged == 2
        # no dense oracle at this size: the contract is the residual check
        assert lan.residuals.max() <= 1e-10
        assert lan.eigenvalues[0] < lan.eigenvalues[1]

    def test_deterministic_for_fixed_seed(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.3))
        a = lanczos_extremal(op, k=3, seed=11)
        b = lanczos_extremal(op, k=3, seed=11)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_partial_result_flagged_on_iteration_budget(self):
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        lan = lanczos_extremal(op, k=4, tol=1e-10, max_iter=10, seed=0)
        assert lan.n_converged < 4
        assert lan.n_requested == 4

    def test_k_bounds(self):
        op = Operator.from_label_terms([(1.0, "Z")])
        with pytest.raises(ValueError):
            lanczos_extremal(op, k=0)
        with pytest.raises(ValueError):
            lanczos_extremal(op, k=3)

    def test_rejects_non_hermitian(self):
        op = Operator(2, (PauliString(2, 1, 2, 0.5j),))
        with pytest.raises(ModelError):
            lanczos_extremal(op, k=1)

    def test_eigenvectors_orthonormal(self):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.0))
        lan = lanczos_extremal(op, k=4, seed=2)
        gram = lan.coeffs.conj() @ lan.coeffs.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-8

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("j", [0.0, 1.0])
    def test_grid_agreement_with_dense(self, n, j):
        op = build_tc_hamiltonian(TCModelConfig(n, j))
        dense = dense_spectrum(op)
        lan = lanczos_extremal(op, k=4, tol=1e-10, seed=13)
        assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:4])) < 1e-10

    @pytest.mark.parametrize("seed", [3, 100])
    @pytest.mark.parametrize(
        "perturbation, dtype",
        [
            (None, np.float64),
            (PerturbationSpec("heisenberg_exchange", 0.05), np.float64),
            (PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3), np.float64),
            # real weights, but X_iY_{i+1} - Y_iX_{i+1} carries one Y per string
            ("dzyaloshinskii_moriya", np.complex128),
        ],
    )
    def test_dtype_follows_operator_and_matches_dense(self, perturbation, dtype, seed):
        op = chain_n8(perturbation)
        tol = 1e-10
        dense = dense_spectrum(op)
        lan = lanczos_extremal(op, k=4, tol=tol, seed=seed)
        assert lan.coeffs.dtype == dense.coeffs.dtype == dtype
        assert lan.n_converged == 4
        assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:4])) < tol
        # each vector lies in the dense eigenspace of its eigenvalue, up to
        # the sin-theta bound residual / (distance to the rest of the spectrum)
        dense_rows = dense_vectors(dense)
        for e, v, r in zip(lan.eigenvalues, dense_vectors(lan), lan.residuals):
            near = np.abs(dense.eigenvalues - e) < 1e-8
            space = dense_rows[near]
            leak = np.linalg.norm(v - space.T @ (space.conj() @ v))
            assert leak <= r / np.min(np.abs(dense.eigenvalues[~near] - e)) + 1e-12

    @pytest.mark.parametrize(
        "perturbation",
        [None, PerturbationSpec("heisenberg_exchange", 0.05), "dzyaloshinskii_moriya"],
        ids=["chain", "heisenberg", "dzyaloshinskii_moriya"],
    )
    def test_eigenvectors_orthonormal_to_round_off(self, perturbation):
        lan = lanczos_extremal(chain_n8(perturbation), k=4, seed=2)
        gram = lan.coeffs.conj() @ lan.coeffs.T
        assert np.max(np.abs(gram - np.eye(4))) < 1e-13

    @pytest.mark.parametrize(
        "op, k",
        [
            (build_tc_hamiltonian(TCModelConfig(6, 0.0)), 2),
            (build_tc_hamiltonian(TCModelConfig(8, 0.0)), 6),
            (Operator.from_label_terms([(1.0, "III")]), 1),
        ],
        ids=["j0_n6", "j0_n8", "identity"],
    )
    def test_breakdowns_take_the_second_pass(self, monkeypatch, op, k):
        """Where the recurrence leaves only round-off (an invariant subspace
        reached), the single pass cancels most of the norm and the DGKS test
        repeats it; the vectors stay orthonormal to round-off."""
        passes = count_repeated_passes(monkeypatch)
        tol = 1e-10
        lan = lanczos_extremal(op, k=k, tol=tol, seed=0)
        assert passes["repeated"] >= 1
        assert lan.n_converged == k
        assert lan.residuals.max() <= tol
        gram = lan.coeffs.conj() @ lan.coeffs.T
        assert np.max(np.abs(gram - np.eye(k))) < 1e-13

    def test_steps_away_from_breakdown_take_one_pass(self, monkeypatch):
        """No pass is repeated away from breakdowns, and Simon's estimate asks
        for the pass against the Krylov basis at 9 of the 57 Lanczos steps,
        where every step ran it before."""
        passes = count_repeated_passes(monkeypatch)
        lanczos_extremal(build_tc_hamiltonian(TCModelConfig(12, 0.5)), k=2, seed=100)
        assert passes["basis"] == 9 and passes["repeated"] == 0

    def test_matvec_count_is_pinned(self, monkeypatch):
        """Each pair takes the Lanczos steps until its Ritz residual estimate
        reaches tol and one true-residual matvec; the residuals are not
        recomputed afterwards."""
        counter = count_matvecs(monkeypatch)
        lan = lanczos_extremal(build_tc_hamiltonian(TCModelConfig(12, 0.5)), k=2, seed=100)
        assert lan.n_converged == 2
        assert counter["matvecs"] == 59

    def test_stops_before_a_full_cycle(self, monkeypatch):
        """The estimate |beta_j u[j, 0]| ends the cycle at the step it reaches
        tol, well before m_cap = 60 steps, and the accepted pair's true
        residual meets tol."""
        counter = count_matvecs(monkeypatch)
        op = build_tc_hamiltonian(TCModelConfig(12, 0.5))
        tol = 1e-10
        lan = lanczos_extremal(op, k=1, tol=tol, seed=100)
        assert lan.n_converged == 1
        assert counter["matvecs"] < 60
        v = lan.vector(0)
        assert np.linalg.norm(op.matvec(v) - lan.eigenvalues[0] * v) <= tol

    def test_residuals_are_the_accepting_checks(self):
        """The residual each pair was accepted on is the one _residuals
        would recompute from the returned vectors, bit for bit."""
        for op in (chain_n8(PerturbationSpec("heisenberg_exchange", 0.05)), chain_n8("dzyaloshinskii_moriya")):
            lan = lanczos_extremal(op, k=4, seed=100)
            assert np.array_equal(lan.residuals, tcspin.spectra._residuals(op, lan))

    @pytest.mark.parametrize("op, k", PARTIAL_REORTHOGONALIZATION_CASES.values(), ids=PARTIAL_REORTHOGONALIZATION_CASES)
    def test_basis_stays_orthogonal_to_eta_between_passes(self, monkeypatch, op, k):
        """Every pass against the Krylov basis finds the basis orthonormal to
        eta = min(sqrt(eps), tol / ||H||_1): the steps without a pass let it
        drift no further than Simon's estimate allows."""
        grams = record_basis_grams(monkeypatch)
        tol = 1e-10
        lan = lanczos_extremal(op, k=k, tol=tol, seed=100)
        assert lan.n_converged == k
        assert grams and max(grams) <= min(np.sqrt(np.finfo(float).eps), tol / max(1.0, op.one_norm()))

    @pytest.mark.parametrize("op", [op for op, k in PARTIAL_REORTHOGONALIZATION_CASES.values() if k == 4])
    def test_partial_reorthogonalization_matches_dense(self, op):
        tol = 1e-10
        lan = lanczos_extremal(op, k=4, tol=tol, seed=100)
        assert lan.n_converged == 4
        assert np.max(np.abs(lan.eigenvalues - dense_spectrum(op).eigenvalues[:4])) < tol

    @pytest.mark.parametrize("max_iter, matvecs, converged", [(2, 2, 0), (10, 10, 0), (31, 31, 1), (40, 40, 1), (60, 49, 2)])
    def test_max_iter_caps_the_matvecs_with_the_residual_checks(self, monkeypatch, max_iter, matvecs, converged):
        """The true-residual check of a pair counts against ``max_iter``: a
        solve that runs out of budget stops at exactly ``max_iter`` matvecs."""
        counter = count_matvecs(monkeypatch)
        lan = lanczos_extremal(build_tc_hamiltonian(TCModelConfig(10, 0.5)), k=2, max_iter=max_iter, seed=0)
        assert counter["matvecs"] == matvecs
        assert lan.n_converged == converged

    def test_thick_restart_still_converges(self, monkeypatch):
        """Above the lowest two pairs of the N = 10 Heisenberg-0.05 chain the
        estimate does not reach tol within one 60-step cycle: those pairs go
        through thick restarts and still converge, orthonormal to round-off."""
        solve = tcspin.spectra._lowest_deflated_eigenpair
        used = []

        def recording(*args):
            result = solve(*args)
            used.append(result[1])
            return result

        monkeypatch.setattr(tcspin.spectra, "_lowest_deflated_eigenpair", recording)
        op = chain_with(10, PerturbationSpec("heisenberg_exchange", 0.05))
        tol = 1e-10
        lan = lanczos_extremal(op, k=6, tol=tol, seed=100)
        assert max(used) > 60 + 1
        assert lan.n_converged == 6
        assert lan.residuals.max() <= tol
        assert np.max(np.abs(lan.eigenvalues - dense_spectrum(op).eigenvalues[:6])) < tol
        gram = lan.coeffs.conj() @ lan.coeffs.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-13


def count_matvecs(monkeypatch) -> dict:
    """Count every Operator.matvec call in ``counter["matvecs"]``."""
    counter = {"matvecs": 0}
    matvec = Operator.matvec

    def counting(self, v):
        counter["matvecs"] += 1
        return matvec(self, v)

    monkeypatch.setattr(Operator, "matvec", counting)
    return counter


def count_repeated_passes(monkeypatch) -> dict:
    """Wrap spectra's one Gram-Schmidt pass. ``calls`` counts the passes,
    ``basis`` those against the Krylov basis (the locked vectors come first,
    then the basis) and ``repeated`` those run on the output of the pass
    before, which only the DGKS test does."""
    single_pass = tcspin.spectra._orthogonalize
    passes = {"calls": 0, "basis": 0, "repeated": 0, "last": None}

    def recording(w, *sets):
        passes["calls"] += 1
        passes["basis"] += len(sets) > 1
        passes["repeated"] += w is passes["last"]
        passes["last"] = single_pass(w, *sets)
        return passes["last"]

    monkeypatch.setattr(tcspin.spectra, "_orthogonalize", recording)
    return passes


def record_basis_grams(monkeypatch) -> list:
    """Wrap spectra's Gram-Schmidt pass; the list holds max |Q^H Q - I| of
    the Krylov basis Q handed to each pass against it."""
    single_pass = tcspin.spectra._orthogonalize
    grams = []

    def recording(w, *sets):
        if len(sets) > 1:
            q = sets[-1]
            grams.append(float(np.max(np.abs(q.conj() @ q.T - np.eye(len(q))))))
        return single_pass(w, *sets)

    monkeypatch.setattr(tcspin.spectra, "_orthogonalize", recording)
    return grams


# x_masks spanning a chosen GF(2) rank on 6 sites: 0 (diagonal), 1, 2, 4 and 6
X_BASES = [
    (),
    (0b000110,),
    (0b000111, 0b111000),
    (0b000011, 0b001100, 0b110000, 0b101010),
    tuple(1 << i for i in range(6)),
]


class TestInvariantBlocks:
    """dense_spectrum's cosets of the span of the flip masks."""

    OPERATORS = {
        "chain": lambda: chain_with(8),
        "z_field": lambda: chain_with(8, PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3)),
        "x_field": lambda: chain_with(8, PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3)),
        "y_field": lambda: chain_with(8, PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3)),
        "heisenberg": lambda: chain_with(8, PerturbationSpec("heisenberg_exchange", 0.05)),
        "lone_y": lambda: Operator.from_label_terms([(0.7, "IIYIII"), (1.0, "ZZIIII"), (-0.4, "IIIZZI")]),
        # rank 0: one state per block, with binomially degenerate levels
        "uniform_z": lambda: Operator.from_label_terms([(1.0, "I" * i + "Z" + "I" * (5 - i)) for i in range(6)]),
    }

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_blocks_partition_the_basis(self, name):
        op = self.OPERATORS[name]()
        blocks = op.flip_span.cosets
        assert np.array_equal(np.sort(blocks.ravel()), np.arange(1 << op.n_sites))

    @pytest.mark.parametrize("name", sorted(OPERATORS))
    def test_every_group_maps_each_block_into_itself(self, name):
        op = self.OPERATORS[name]()
        blocks = op.flip_span.cosets
        for _, perm in op._groups:
            if perm is not None:
                assert np.array_equal(np.sort(perm[blocks], axis=1), blocks)

    @pytest.mark.parametrize(
        "name, shape",
        [
            ("chain", (64, 4)),
            ("z_field", (64, 4)),
            ("heisenberg", (2, 128)),
            ("x_field", (1, 256)),
            ("y_field", (1, 256)),
            ("lone_y", (32, 2)),
            ("uniform_z", (64, 1)),
        ],
    )
    def test_block_size_is_two_to_the_rank(self, name, shape):
        assert self.OPERATORS[name]().flip_span.cosets.shape == shape

    BLOCK_BUILDS = ["chain", "z_field", "heisenberg", "x_field", "y_field"]

    @pytest.mark.parametrize("name", BLOCK_BUILDS)
    def test_block_matrices_are_the_gathered_dense_matrix(self, name):
        op = self.OPERATORS[name]()
        blocks = op.flip_span.cosets
        gathered = to_dense(op)[blocks[:, :, None], blocks[:, None, :]]
        mats = _block_matrices(op)
        assert mats.dtype == gathered.dtype == (np.complex128 if name == "y_field" else np.float64)
        assert np.array_equal(mats, gathered)

    @pytest.mark.parametrize("name", BLOCK_BUILDS)
    def test_eigenpairs_are_those_of_the_gathered_blocks(self, name):
        """Bit for bit the eigenvalues and block eigenvectors of the blocks
        gathered from to_dense, the dense route's input before it read the
        compiled groups."""
        op = self.OPERATORS[name]()
        spec = dense_spectrum(op)
        blocks = op.flip_span.cosets
        values, columns = np.linalg.eigh(to_dense(op)[blocks[:, :, None], blocks[:, None, :]])
        order = np.argsort(values, axis=None, kind="stable")
        block, column = np.divmod(order, blocks.shape[1])
        assert np.array_equal(spec.eigenvalues, values.ravel()[order])
        assert np.array_equal(spec.span.cosets, blocks)
        assert np.array_equal(spec.block_of, block)
        assert np.array_equal(spec.coeffs, columns[block, :, column])

    def test_builds_no_dense_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the dense route built a 2^N x 2^N matrix")

        monkeypatch.setattr(tcspin.pauli, "to_dense", refuse)
        monkeypatch.setattr(tcspin.spectra, "to_dense", refuse)
        for name in self.BLOCK_BUILDS:
            spec = dense_spectrum(self.OPERATORS[name]())
            assert spec.residuals.max() < 1e-12

    def test_overlaps_read_only_the_touched_blocks(self):
        spec = dense_spectrum(self.OPERATORS["chain"]())
        phi = magnetization_operator(8, "z").matvec(spec.vector(0))
        pairs, amps = spec.overlaps(phi)
        # m_z keeps the ground state in its block: 4 of 256 levels
        assert len(set(spec.block_of[pairs])) == 1 and len(pairs) == 4
        full = dense_vectors(spec) @ phi.conj()
        assert np.array_equal(np.flatnonzero(full), pairs)
        assert np.max(np.abs(amps - full[pairs])) < 1e-15

    def test_overlaps_of_vectors_in_other_blocks_are_disjoint(self):
        # m_x moves the ground state out of its block, m_z keeps it there
        spec = dense_spectrum(self.OPERATORS["z_field"]())
        phi_z, phi_x = (magnetization_operator(8, axis).matvec(spec.vector(0)) for axis in "zx")
        pairs_z, _ = spec.overlaps(phi_z)
        pairs_x, amps_x = spec.overlaps(phi_x)
        assert len(pairs_z) == 4 and len(pairs_x) > 0
        assert not set(spec.block_of[pairs_z]) & set(spec.block_of[pairs_x])
        full = dense_vectors(spec) @ phi_x.conj()
        assert np.max(np.abs(amps_x - full[pairs_x])) < 1e-15

    @pytest.mark.parametrize("name", BLOCK_BUILDS)
    def test_amplitudes_are_the_columns_of_the_full_vectors(self, name):
        op = self.OPERATORS[name]()
        for spec in (dense_spectrum(op), lanczos_extremal(op, k=3, seed=1)):
            vectors = dense_vectors(spec)
            for index in (0, 5, 255):
                amplitudes = spec.amplitudes(index)
                assert amplitudes.dtype == spec.coeffs.dtype
                assert np.array_equal(amplitudes, vectors[:, index])

    def test_n_converged_is_the_pair_count(self):
        spec = dense_spectrum(self.OPERATORS["chain"]())
        assert spec.n_converged == spec.n_pairs == 256
        with pytest.raises(AttributeError):
            spec.n_converged = 3

    def test_full_rank_is_bit_identical_to_one_eigh(self):
        op = self.OPERATORS["x_field"]()
        spec = dense_spectrum(op)
        eigenvalues, columns = np.linalg.eigh(to_dense(op))
        assert np.array_equal(spec.eigenvalues, eigenvalues)
        assert np.array_equal(dense_vectors(spec), columns.T)

    @pytest.mark.parametrize("x_basis", X_BASES, ids=lambda basis: f"rank{len(basis)}")
    def test_random_operators_match_the_full_matrix(self, x_basis):
        op = random_operator(np.random.default_rng(len(x_basis)), 6, 16, x_basis=x_basis)
        assert op.flip_span.cosets.shape[1] == 1 << len(x_basis)
        self.assert_matches_full_matrix(op)

    @pytest.mark.parametrize("name", ["chain", "lone_y", "uniform_z"])
    def test_degenerate_operators_match_the_full_matrix(self, name):
        self.assert_matches_full_matrix(self.OPERATORS[name]())

    def test_heisenberg_chain_eigenpairs(self):
        # two of its clusters lie 2.5e-9 apart, so their separate projectors
        # are fixed only to rounding / gap (about 1e-7): check the pairs
        op = self.OPERATORS["heisenberg"]()
        spec = dense_spectrum(op)
        assert np.max(np.abs(spec.eigenvalues - np.linalg.eigvalsh(kron_dense(op)))) < 1e-12
        assert spec.residuals.max() < 1e-12
        vectors = dense_vectors(spec)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(spec.n_pairs))) < 1e-12

    @staticmethod
    def assert_matches_full_matrix(op: Operator) -> None:
        """Eigenvalues within 1e-12 of the Kronecker-built matrix's, and every
        degenerate cluster spanning the same space as its full eigenvectors."""
        spec = dense_spectrum(op)
        eigenvalues, columns = np.linalg.eigh(kron_dense(op))
        assert np.max(np.abs(spec.eigenvalues - eigenvalues)) < 1e-12
        vectors = dense_vectors(spec)
        for group in spec.clusters():
            block_vectors, full_vectors = vectors[group], columns[:, group].T
            projector = block_vectors.T @ block_vectors.conj()
            assert np.max(np.abs(projector - full_vectors.T @ full_vectors.conj())) < 1e-10


def _span_operators():
    """TestInvariantBlocks' operators, its X_BASES random operators, and
    random operators at N = 4 ... 12 whose masks span about half the sites."""
    ops = {name: build() for name, build in TestInvariantBlocks.OPERATORS.items()}
    for x_basis in X_BASES:
        ops[f"rank{len(x_basis)}"] = random_operator(np.random.default_rng(len(x_basis)), 6, 16, x_basis=x_basis)
    for n in (4, 5, 7, 9, 10, 11, 12):
        rng = np.random.default_rng(n)
        x_basis = tuple(int(x) for x in rng.integers(1, 1 << n, n // 2))
        ops[f"random{n}"] = random_operator(rng, n, 12, x_basis=x_basis)
    return ops


SPAN_OPERATORS = _span_operators()


class TestFlipSpan:
    """Operator.flip_span, read from the terms, against the compiled groups
    and against a scan of its cosets."""

    @pytest.mark.parametrize("name", sorted(SPAN_OPERATORS))
    def test_reduction_matches_the_row_scan(self, name):
        op = SPAN_OPERATORS[name]
        span = op.flip_span
        cosets = span.cosets
        dim = 1 << op.n_sites
        row_of, position_of = np.empty(dim, dtype=np.intp), np.empty(dim, dtype=np.intp)
        row_of[cosets] = np.arange(len(cosets))[:, None]
        position_of[cosets] = np.arange(cosets.shape[1])
        index = np.arange(dim)
        assert np.array_equal(span.representative(index), cosets[row_of, 0])
        for i in range(dim):
            assert span.representative(i) == cosets[row_of[i], 0]
            assert span.locate(i) == (row_of[i], position_of[i])
        assert np.array_equal(span.rows(cosets[::-1, 0]), cosets[::-1])

    @pytest.mark.parametrize("name", sorted(SPAN_OPERATORS))
    def test_masks_and_rank_are_those_of_the_compiled_groups(self, name):
        op = SPAN_OPERATORS[name]
        masks = tuple(0 if perm is None else int(perm[0]) for _, perm in op._groups)
        members = {0}
        for x in masks:
            members |= {m ^ x for m in members}
        span = op.flip_span
        assert span.masks == masks
        assert 1 << span.rank == len(members) == len(span.members)
        assert span.members.tolist() == sorted(members)

    def test_is_read_once_with_no_compile(self):
        op = chain_with(8)
        assert op.flip_span is op.flip_span
        assert "_groups" not in vars(op)
        spec = dense_spectrum(op)
        assert spec.span is op.flip_span

    def test_lanczos_result_holds_the_full_rank_span(self):
        spec = lanczos_extremal(chain_with(8), k=2, seed=1)
        assert spec.span.rank == 8
        assert np.array_equal(spec.span.cosets, np.arange(256)[None])


class TestOrbitBlockOracle:
    """The unperturbed chain's exact 4x4 orbit blocks (conftest) as an oracle."""

    @pytest.mark.parametrize(
        "n, boundary, j",
        [(n, b, j) for n in range(5, 11) for b in ("periodic", "open") for j in (0.3, 0.5, 1.0)]
        + [(11, "open", 0.3), (12, "periodic", 0.5)],
    )
    def test_matches_dense_spectrum(self, n, boundary, j):
        cfg = TCModelConfig(n, j, boundary)
        _, energies, _ = orbit_block_spectrum(cfg)
        op = build_tc_hamiltonian(cfg)
        # at N = 12 the full matrix's eigenvalues: a reference independent of
        # dense_spectrum, which diagonalizes these same orbits as its blocks
        dense = np.linalg.eigvalsh(to_dense(op)) if n == 12 else dense_spectrum(op).eigenvalues
        assert np.max(np.abs(np.sort(energies.ravel()) - dense)) < 1e-12

    @pytest.mark.parametrize("n, k", [(14, 4), (16, 4)])
    def test_lowest_lanczos_pairs_match_the_blocks(self, n, k):
        cfg = TCModelConfig(n, 0.5)
        orbits, energies, blocks = orbit_block_spectrum(cfg)
        lan = lanczos_extremal(build_tc_hamiltonian(cfg), k=k, tol=1e-10, seed=9)
        assert lan.coeffs.dtype == np.float64
        assert lan.n_converged == k
        assert np.max(np.abs(lan.eigenvalues - np.sort(energies.ravel())[:k])) < 1e-10
        for e, v, r in zip(lan.eigenvalues, dense_vectors(lan), lan.residuals):
            # v in each orbit's block eigenbasis: its weight off the eigenvalue
            # e obeys the sin-theta bound of the dense test above
            coeffs = np.einsum("rab,ra->rb", blocks, v[orbits])
            far = np.abs(energies - e) >= 1e-8
            assert np.linalg.norm(coeffs[far]) <= r / np.min(np.abs(energies[far] - e)) + 1e-12
            assert np.linalg.norm(coeffs) == pytest.approx(1.0, abs=1e-12)


class TestGHZReport:
    def test_classical_ground_cluster_carries_full_overlap(self):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(4, 0.0)))
        rep = ghz_overlap_report(spec, 4)
        ground = rep.clusters[0]
        assert len(ground) == 2
        assert rep.overlap_plus[ground[0]] == pytest.approx(1.0, abs=1e-10)
        assert rep.overlap_minus[ground[0]] == pytest.approx(1.0, abs=1e-10)

    def test_single_site_x_hosts_plus_state(self):
        spec = dense_spectrum(Operator.from_label_terms([(1.0, "X")]))
        rep = ghz_overlap_report(spec, 1)
        # GHZ+ at n=1 is |+>, the eigenvalue +1 state
        assert rep.overlap_plus[1] == pytest.approx(1.0, abs=1e-12)
        assert rep.best_plus_index == 1
        assert rep.overlap_minus[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.ghz_gap == pytest.approx(2.0, abs=1e-12)

    def test_overlaps_bounded(self):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(6, 1.0)))
        rep = ghz_overlap_report(spec, 6)
        for overlap_plus, overlap_minus in zip(rep.overlap_plus, rep.overlap_minus):
            assert -1e-12 <= overlap_plus <= 1 + 1e-12
            assert -1e-12 <= overlap_minus <= 1 + 1e-12
        assert rep.ghz_gap >= 0.0

    def test_split_pair_has_positive_gap(self):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(8, 0.5)))
        rep = ghz_overlap_report(spec, 8)
        assert rep.best_plus_index != rep.best_minus_index
        assert rep.ghz_gap > 1e-6
        assert {rep.best_plus_index, rep.best_minus_index} == {0, 1}

    @pytest.mark.parametrize("n, j", [(6, 0.0), (8, 0.5), (8, 1.0)])
    def test_cluster_sums_match_a_per_cluster_loop(self, n, j):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(n, j)))
        rep = ghz_overlap_report(spec, n)
        assert any(len(group) > 1 for group in rep.clusters) or j != 0.0
        for sign in ("plus", "minus"):
            amps = dense_vectors(spec) @ build_ghz(n, sign).amplitudes.conj()
            for group in rep.clusters:
                reference = float(np.sum(np.abs(amps[group]) ** 2))
                for i in group:
                    got = getattr(rep, f"overlap_{sign}")[i]
                    if len(group) == 1:
                        assert got == reference  # a one-term sum is exact
                    else:
                        assert got == pytest.approx(reference, rel=1e-14, abs=1e-300)

    @pytest.mark.parametrize("n, heisenberg", [(6, 0.0), (8, 0.0), (6, 0.05), (8, 0.05)])
    def test_report_and_ghz_pair_match_the_full_eigenvectors(self, n, heisenberg):
        """Overlaps and the ghz_pair state of the block form against the same
        sums over every full eigenvector."""
        op = chain_with(n, *([PerturbationSpec("heisenberg_exchange", heisenberg)] if heisenberg else []))
        spec = dense_spectrum(op)
        rep = ghz_overlap_report(spec, n)
        vectors = dense_vectors(spec)
        for sign in ("plus", "minus"):
            weights = np.abs(vectors @ build_ghz(n, sign).amplitudes.conj()) ** 2
            expected = [weights[group].sum() for group in rep.clusters for _ in group]
            got = getattr(rep, f"overlap_{sign}")
            assert np.max(np.abs(np.array(got) - expected)) < 1e-12
        point = run_point(
            op, magnetization_operator(n, "z"), TimeGrid(0.0, 2.0, 16), "ghz_pair", SolverSettings(), ("krylov",)
        )
        pair = vectors[rep.best_plus_index] + vectors[rep.best_minus_index]
        assert np.max(np.abs(point.psi.amplitudes - pair / np.linalg.norm(pair))) < 1e-12

    def test_degenerate_projector_resolves_ghz(self):
        # J=0: projecting GHZ+/- onto the two lowest eigenvectors loses nothing
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(6, 0.0)))
        basis = dense_vectors(spec)[:2]
        for sign in ("plus", "minus"):
            ghz = build_ghz(6, sign).amplitudes
            projected = basis.T @ (basis.conj() @ ghz)
            assert np.linalg.norm(projected) == pytest.approx(1.0, abs=1e-10)


def _parity(v: StateVector) -> float:
    """<v| product of all sigma_x |v>."""
    return float(np.vdot(v.amplitudes, global_flip_operator(v.n_sites).matvec(v.amplitudes)).real)


class TestParity:
    def test_ghz_states_have_definite_parity(self):
        assert _parity(build_ghz(5, "plus")) == pytest.approx(1.0, abs=1e-12)
        assert _parity(build_ghz(5, "minus")) == pytest.approx(-1.0, abs=1e-12)

    def test_polarized_state_has_zero_parity(self):
        assert _parity(StateVector.basis_state(4, 0)) == 0.0


class TestParitySectorStructure:
    """The string-difference operator annihilates the even-parity sector.

    Verified by brute force before the dependent test below is enabled.
    """

    @pytest.mark.parametrize("n", [4, 6])
    def test_annihilates_even_sector(self, n):
        s = to_dense(half_string_difference(n))
        flip = to_dense(global_flip_operator(n))
        p_even = (np.eye(1 << n) + flip) / 2.0
        assert np.linalg.norm(s @ p_even) < 1e-12

    @pytest.mark.parametrize("n", [4, 6])
    def test_even_sector_spectrum_independent_of_j(self, n):
        # consequence of the annihilation property: eigenstates carry a
        # parity label and J acts only in the odd sector
        flip = to_dense(global_flip_operator(n))
        evals, evecs = np.linalg.eigh(flip)
        basis = evecs[:, np.isclose(evals, 1.0)]
        spectra = []
        for j in (0.0, 0.7):
            h = to_dense(build_tc_hamiltonian(TCModelConfig(n, j)))
            restricted = basis.conj().T @ h @ basis
            spectra.append(np.sort(np.linalg.eigvalsh(restricted)))
        assert np.max(np.abs(spectra[0] - spectra[1])) < 1e-10
