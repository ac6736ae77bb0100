"""Dense and Lanczos eigensolvers, GHZ diagnostics, parity sector labels."""

import functools
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from tcspin.pauli import Operator, PauliString, StateVector, apply_groups, global_flip_operator, to_dense
from tcspin.spectra import (
    _block_matrices,
    _disc_components,
    dense_spectrum,
    ghz_overlap_report,
    lanczos_extremal,
)
from tcspin.sweep import SolverSettings, run_point

from conftest import (
    dense_vectors,
    first_mismatch,
    kron_dense,
    load_fixture,
    matvec_residuals,
    orbit_block_spectrum,
    random_operator,
)


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


def h_norm(op: Operator) -> float:
    """The bound on ||H|| that lanczos_extremal hands its solves."""
    return max(1.0, op.one_norm())


def slack(op: Operator) -> float:
    """lanczos_extremal's rounding margin 4 G eps ||H||_1 for G groups."""
    return 4 * len(op._groups) * np.finfo(float).eps * h_norm(op)


def sector_matrix(op: Operator, s: int) -> np.ndarray:
    """The dense matrix of op on its sector s, one column per coordinate,
    from the groups cut to it."""
    rows, parities = op.sectors
    groups = op.flip_span.cut(op._groups, rows[s : s + 1], None if parities is None else parities[s : s + 1])
    size = rows.shape[1] if parities is None else rows.shape[1] // 2
    return apply_groups(groups, np.eye(size))


def x_basis_ising_chain(n: int) -> Operator:
    """-sum X_j X_{j+1}, periodic: the J = 0 chain rotated to the x basis.
    Its flip masks span the even-weight masks, two cosets."""
    return Operator.from_label_terms(
        [(-1.0, "".join("X" if i in (j, (j + 1) % n) else "I" for i in range(n))) for j in range(n)]
    )


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
        # the bare chain's sectors hold 2 states, and 10 matvecs converge
        # its 4 lowest; the Heisenberg chain's hold 64
        op = chain_n8(HEISENBERG)
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
            (x_basis_ising_chain(6), 2),
            (x_basis_ising_chain(8), 6),
            (Operator.from_label_terms([(1.0, "XII"), (1.0, "IXI"), (1.0, "IIX")]), 1),
        ],
        ids=["j0_n6", "j0_n8", "x_field"],
    )
    def test_breakdowns_take_the_second_pass(self, monkeypatch, op, k):
        """Where the recurrence leaves only round-off (an invariant subspace
        reached), the single pass cancels most of the norm and the DGKS test
        repeats it; the vectors stay orthonormal to round-off. The J = 0
        chains run in the x basis, where the global flip splits each of their
        two cosets into halves of 2^(N-2) states; a uniform x field on three
        sites has four levels in each half of 4. (The J = 0 chain in the z
        basis and the identity are diagonal: every sector is one state, and
        no recurrence is left to break down.)"""
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
        for the pass against the Krylov basis at 8 of the 24 + 32 Lanczos
        steps of the N = 12 Heisenberg-0.05 chain, where every step ran it
        before."""
        passes = count_repeated_passes(monkeypatch)
        lanczos_extremal(chain_with(12, HEISENBERG), k=2, seed=100)
        assert passes["basis"] == 8 and passes["repeated"] == 0

    def test_matvec_count_is_pinned(self, monkeypatch):
        """Each pair takes the Lanczos steps up to the first check of the
        schedule at which its Ritz residual estimate has reached tol, and one
        true-residual matvec. The N = 12 Heisenberg-0.05 chain's two lowest
        levels lie in the two global-flip halves of one coset, 1 024 states
        each: one pair each, 25 + 33 matvecs where the whole space took 87,
        none of them Operator.matvec."""
        counter = count_matvecs(monkeypatch)
        lan = lanczos_extremal(chain_with(12, HEISENBERG), k=2, seed=100)
        assert lan.n_converged == 2
        assert counter["matvecs"] == 58 and counter["operator"] == 0

    def test_projected_matrix_is_diagonalized_on_the_check_schedule(self, monkeypatch, caplog):
        """T is diagonalized at steps 1, 4, 8, ... of each pair's cycle: 16
        times for the 24 + 32 steps of the two pairs of the N = 12
        Heisenberg-0.05 chain, where every step did it before. The call's
        one info record counts them."""
        sizes = record_diagonalizations(monkeypatch)
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(chain_with(12, HEISENBERG), k=2, seed=100)
        assert lan.n_converged == 2
        assert sizes == [1, 4, 8, 12, 16, 20, 24, 1, 4, 8, 12, 16, 20, 24, 28, 32]
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        # converged, requested, matvecs, thick restarts, steps with a pass,
        # diagonalizations, solved and all states, solved and all sectors
        assert record.args == (2, 2, 58, 0, 8, len(sizes), 2048, 4096, 2, 4)
        assert record.getMessage().endswith("on 2048 of 4096 states (2 of 4 sectors)")

    def test_check_schedule(self):
        """Every 4 steps after the first, every m / 8 past m = 40."""
        checks = [1]
        while checks[-1] < 100:
            checks.append(tcspin.spectra._next_check(checks[-1]))
        assert checks == [1, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 45, 50, 56, 63, 70, 78, 87, 97, 109]

    @pytest.mark.parametrize(
        "op, k, sizes",
        [
            # eight sectors of one state, each holding the level 1: none can
            # be left out, and each breaks down at its first step
            (Operator.from_label_terms([(1.0, "III")]), 1, [1] * 8),
            # three levels: the Krylov space is invariant after 3 steps; both
            # cosets of 4 hold the ground level -2, and both are solved
            (Operator.from_label_terms([(1.0, "XII"), (1.0, "IXI")]), 1, [1, 3, 1, 3]),
        ],
        ids=["identity", "three_levels"],
    )
    def test_breakdown_forces_a_check(self, monkeypatch, op, k, sizes):
        recorded = record_diagonalizations(monkeypatch)
        lan = lanczos_extremal(op, k=k, seed=0)
        assert recorded == sizes
        assert lan.n_converged == k and lan.residuals.max() <= 1e-10

    def test_exhausted_budget_forces_a_check(self, monkeypatch):
        """With max_iter = 10 the cycle's last step is the 9th, off the
        schedule; T is diagonalized there for the Ritz pair the last matvec
        checks, in the first global-flip half of the N = 10 Heisenberg-0.05
        chain's one coset."""
        sizes = record_diagonalizations(monkeypatch)
        counter = count_matvecs(monkeypatch)
        lan = lanczos_extremal(chain_with(10, HEISENBERG), k=2, max_iter=10, seed=0)
        assert sizes == [1, 4, 8, 9]
        assert counter["matvecs"] == 10 and lan.n_converged == 0

    def test_m_cap_forces_a_check(self, monkeypatch):
        """With m_cap = 10 and 3 kept Ritz vectors, each cycle ends at the
        10th basis vector, off the schedule counted from its start (steps 1,
        4, 8 of the first cycle, 1, 4 of the later ones). Called directly,
        the solve runs on the whole space it is handed."""
        sizes = record_diagonalizations(monkeypatch)
        op = build_tc_hamiltonian(TCModelConfig(8, 0.5))
        v0 = np.random.default_rng(0).standard_normal(256)
        tally = Counter()
        pair, _ = tcspin.spectra._lowest_deflated_eigenpair(
            op.matvec, v0 / np.linalg.norm(v0), 1e-10, 5000, 10, 3, np.empty((0, 256)), max(1.0, op.one_norm()), tally
        )
        assert pair is not None and tally["restarts"] == 4
        assert sizes == [1, 4, 8, 10] + [4, 7, 10] * 3 + [4, 7]
        assert tally["diagonalizations"] == len(sizes)

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
        """Each returned residual is the one the matvec oracle recomputes
        from the returned vector, bit for bit: H is applied on the coset of
        the pair's sector, whose entries are those of Operator.matvec, and
        the norm runs over all 2^N amplitudes."""
        for op in (chain_n8(PerturbationSpec("heisenberg_exchange", 0.05)), chain_n8("dzyaloshinskii_moriya")):
            lan = lanczos_extremal(op, k=4, seed=100)
            assert np.array_equal(lan.residuals, matvec_residuals(op, lan))

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

    @pytest.mark.parametrize(
        "max_iter, matvecs, converged",
        [(2, 2, 0), (3, 3, 0), (5, 5, 0), (10, 10, 0), (25, 25, 0), (40, 40, 0), (57, 57, 0), (58, 58, 2), (80, 58, 2)],
    )
    def test_max_iter_caps_the_matvecs_with_the_residual_checks(self, monkeypatch, caplog, max_iter, matvecs, converged):
        """The true-residual check of a pair counts against ``max_iter``: a
        solve that runs out of budget stops at exactly ``max_iter`` matvecs.
        On the N = 10 Heisenberg-0.05 chain (one coset, two global-flip
        halves of 512 states, one pair each) the first pair takes 25
        matvecs (24 steps and its residual check) and both 58. The first
        pair, -9.5, is not the ground level -9.747, which the other half
        holds: a budget that stops before that half converges returns no
        pair, since a partial result keeps only the pairs below every level
        an unfinished sector may hold. No cycle is restarted: one whose
        budget ends logs no thick restart (it logged 1 at max_iter 2, 3, 5,
        10 and 57)."""
        counter = count_matvecs(monkeypatch)
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(chain_with(10, HEISENBERG), k=2, max_iter=max_iter, seed=0)
        assert counter["matvecs"] == matvecs
        assert lan.n_converged == converged
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        assert record.args[2:4] == (matvecs, 0)  # matvecs, thick restarts

    def test_thick_restart_still_converges(self, monkeypatch):
        """Above the lowest two pairs of the N = 10 Heisenberg-0.05 chain the
        estimate does not reach tol within one 60-step cycle: those pairs go
        through thick restarts and still converge, orthonormal to round-off.
        Each cycle diagonalizes T on its own check schedule, so the solve
        makes at most 150 diagonalizations, where one per step made 536."""
        sizes = record_diagonalizations(monkeypatch)
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
        assert len(sizes) <= 150
        assert lan.n_converged == 6
        assert lan.residuals.max() <= tol
        assert np.max(np.abs(lan.eigenvalues - dense_spectrum(op).eigenvalues[:6])) < tol
        gram = lan.coeffs.conj() @ lan.coeffs.T
        assert np.max(np.abs(gram - np.eye(6))) < 1e-13


# chain families at N sites for the pruned solve against the dense route
PRUNED_FAMILIES = {
    "chain": lambda n: chain_with(n),
    "j0": lambda n: build_tc_hamiltonian(TCModelConfig(n, 0.0)),
    "open": lambda n: build_tc_hamiltonian(TCModelConfig(n, 0.5, "open")),
    "x_field": lambda n: chain_with(n, PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3)),
    "y_field": lambda n: chain_with(n, PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3)),
    "z_field": lambda n: chain_with(n, Z_FIELD),
    "heisenberg": lambda n: chain_with(n, HEISENBERG),
}


class TestPrunedLanczos:
    """lanczos_extremal on the sectors whose Gershgorin disc count lets them
    hold one of the k lowest levels (_disc_components), one at a time."""

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_bare_chain_counts_are_pinned(self, monkeypatch, caplog, n):
        """The bare chain's two lowest levels lie in the two global-flip
        halves of the coset of the all-up state, 2 states each; the count
        keeps every other sector out. Each pair takes 2 steps and its check,
        on the cut groups: Operator.matvec is not called. The full-space
        residuals take one slab on that coset of 4. Where one solve on the
        cosets kept 224, 316 and 424 states, 22 matvecs and 7
        diagonalizations of T, it is 4 states, 6 and 4."""
        counter = count_matvecs(monkeypatch)
        sizes = record_diagonalizations(monkeypatch)
        lengths = []
        apply_groups = tcspin.spectra.apply_groups

        def recording(groups, amps):
            lengths.append(len(amps))
            return apply_groups(groups, amps)

        monkeypatch.setattr(tcspin.spectra, "apply_groups", recording)
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(build_tc_hamiltonian(TCModelConfig(n, 0.5)), k=2, seed=100)
        assert lan.n_converged == 2 and lan.residuals.max() <= 1e-10
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        assert record.args == (2, 2, 6, 0, 2, 4, 4, 1 << n, 2, 1 << (n - 1))
        assert record.getMessage().endswith(f"on 4 of {1 << n} states (2 of {1 << (n - 1)} sectors)")
        assert sizes == [1, 2, 1, 2]
        assert counter == {"matvecs": 6, "operator": 0} and lengths == [2] * 6 + [4]

    @pytest.mark.parametrize("n", [7, 10])
    @pytest.mark.parametrize("name", sorted(PRUNED_FAMILIES))
    def test_matches_dense(self, name, n):
        """k = 1 ... 6 lowest levels within tol of the dense route, and each
        scattered vector's full-space residual is the accepting check up to
        the norm's summation order. The families of rank 2 (the chain and a
        z field) and 0 (J = 0, which builds no X string) drop cosets."""
        op = PRUNED_FAMILIES[name](n)
        dense = dense_spectrum(op)
        tol = 1e-10
        for k in range(1, 7):
            lan = lanczos_extremal(op, k=k, tol=tol, seed=100)
            assert lan.n_converged == k
            assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:k])) < tol
            assert np.allclose(matvec_residuals(op, lan), lan.residuals, rtol=1e-12, atol=0)
            candidates, *_ = _disc_components(op, k, slack(op))
            assert (len(candidates) < len(op.sectors[0])) == (name in ("chain", "j0", "open", "z_field"))

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 8),
        rank=st.integers(0, 4),
        n_terms=st.integers(1, 12),
        flip=st.booleans(),
    )
    def test_counts_cover_the_k_lowest_levels(self, seed, n, rank, n_terms, flip):
        """On random Hermitian Pauli sums, with and without a global flip
        that commutes with every term (even-weight z masks, the flip in the
        span): in every sector the count at the first U is at least the
        number of its dense levels <= E_{k-1}, and Lanczos finds the k lowest
        levels of the dense route, for k = 1 ... 6."""
        rng = np.random.default_rng(seed)
        x_basis = tuple(int(x) for x in rng.integers(1, 1 << n, rank)) + (((1 << n) - 1,) if flip else ())
        op = random_operator(rng, n, n_terms, x_basis=x_basis)
        if flip:
            even = tuple(replace(t, z_mask=t.z_mask ^ (t.z_mask.bit_count() & 1)) for t in op.terms)
            op = Operator(n, even + (PauliString(n, (1 << n) - 1, 0, float(rng.standard_normal())),))
            assert op.sectors[1] is not None
        dense = dense_spectrum(op)
        rows, parities = op.sectors
        levels = [
            np.linalg.eigvalsh(sector_matrix(op, s))
            for s in range(len(rows))
        ]
        for k in range(1, min(6, 1 << n) + 1):
            candidates, _, starts, bound = _disc_components(op, k, slack(op))
            counts = np.zeros(len(rows), dtype=int)
            counts[candidates] = np.count_nonzero(starts <= bound, axis=1)
            e_k = dense.eigenvalues[k - 1]
            assert all(counts[s] >= np.count_nonzero(levels[s] <= e_k + 1e-9) for s in range(len(rows)))
            lan = lanczos_extremal(op, k=k, seed=seed % 1000)
            assert lan.n_converged == k
            assert np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:k])) < 1e-8

    def test_a_disc_that_starts_at_u_is_counted(self):
        """Z_1 + a X_2 has the sectors {0, 2} (diagonal +1) and {1, 3}
        (diagonal -1), and every disc has radius a. At k = 1, U = -1, and
        both discs of {0, 2} start at 1 - a, which equals U at a = 2: that
        sector counts 2, though its levels are -1 and 3 against the ground
        level -3. Just below a = 2 its discs start above U: count 0."""
        tie = Operator.from_label_terms([(1.0, "ZI"), (2.0, "IX")])
        candidates, minima, starts, bound = _disc_components(tie, 1, slack(tie))
        assert bound == -1.0 and candidates.tolist() == [1, 0] and minima.tolist() == [-1.0, 1.0]
        assert np.count_nonzero(starts <= bound, axis=1).tolist() == [2, 2]
        above = Operator.from_label_terms([(1.0, "ZI"), (1.999, "IX")])
        candidates, _, starts, bound = _disc_components(above, 1, slack(above))
        assert candidates.tolist() == [1] and np.count_nonzero(starts <= bound, axis=1).tolist() == [2]
        for op, ground in ((tie, -3.0), (above, -2.999)):
            lan = lanczos_extremal(op, k=1, seed=0)
            assert lan.eigenvalues[0] == pytest.approx(ground, abs=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_heisenberg_halves_count_one_level_each(self, caplog, n):
        """The Heisenberg-0.05 chain's cosets split into global-flip halves.
        The ground coset's two halves each have an isolated lowest disc, so
        each counts 1 at k = 2 and is solved for one pair; the other coset's
        halves count 0 and are never solved."""
        op = chain_with(n, HEISENBERG)
        rows, parities = op.sectors
        assert parities.tolist() == [1.0, 1.0, -1.0, -1.0]
        candidates, _, starts, bound = _disc_components(op, 2, slack(op))
        assert candidates.tolist() == [0, 2] and np.count_nonzero(starts <= bound, axis=1).tolist() == [1, 1]
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(op, k=2, seed=100)
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        assert record.args[6:] == (1 << (n - 1), 1 << n, 2, 4)
        assert np.max(np.abs(lan.eigenvalues - dense_spectrum(op).eigenvalues[:2])) < 1e-10

    def test_ghz_pair_lands_in_opposite_halves_with_exact_parity(self):
        """On the N = 12 Heisenberg-0.05 chain at k = 2 the two vectors come
        from opposite global-flip halves and keep their parity bit for bit,
        v[i ^ (2^N - 1)] = p v[i]; so the GHZ overlap of the wrong parity is
        exactly 0.0, and the GHZ+ and GHZ- states are two different pairs."""
        lan = lanczos_extremal(chain_with(12, HEISENBERG), k=2, seed=100)
        flipped = np.arange(1 << 12) ^ ((1 << 12) - 1)
        parities = [1 if np.array_equal(v[flipped], v) else -1 for v in dense_vectors(lan)]
        assert sorted(parities) == [-1, 1]
        for v, p in zip(dense_vectors(lan), parities):
            assert np.array_equal(v[flipped], p * v)
        report = ghz_overlap_report(lan, 12)
        for i, p in enumerate(parities):
            right, wrong = (report.overlap_plus[i], report.overlap_minus[i])[:: p]
            assert wrong == 0.0 and right > 0.9
        assert report.best_plus_index != report.best_minus_index

    def test_a_sole_natural_sector_goes_through_operator_matvec(self, monkeypatch, caplog):
        """A y field breaks the global flip and spans every mask: one sector,
        the whole basis in natural order, solved through Operator.matvec call
        for call, with the accepting checks as its residuals."""
        op = PRUNED_FAMILIES["y_field"](8)
        assert op.sectors[1] is None and op.sectors[0].shape == (1, 256)
        counter = count_matvecs(monkeypatch)
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(op, k=2, seed=100)
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        assert counter["operator"] == counter["matvecs"] == record.args[2] > 0
        assert record.args[6:] == (256, 256, 1, 1)
        assert np.array_equal(lan.residuals, matvec_residuals(op, lan))

    def test_diagonal_operator(self, caplog):
        """Rank 0: every sector is one basis state, each disc a point, so the
        solved states are those at or below the k-th smallest diagonal entry:
        at k = 3 on sum_i Z_i, the 1 + 6 states of the levels -6 and -4 (the
        six at -4 tie, and none of them can be left out)."""
        op = TestInvariantBlocks.OPERATORS["uniform_z"]()
        with caplog.at_level("INFO", logger="tcspin"):
            lan = lanczos_extremal(op, k=3, seed=0)
        assert np.allclose(lan.eigenvalues, [-6.0, -4.0, -4.0], atol=1e-12)
        (record,) = [r for r in caplog.records if r.name == "tcspin.spectra"]
        assert record.args[6:] == (7, 64, 7, 64)
        vectors = dense_vectors(lan)
        levels = np.array([bin(i).count("1") for i in range(64)]) * -2 + 6
        assert np.all(vectors[:, levels > -4] == 0)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(3))) < 1e-13


def _splitmix64_reference(seed: int, count: int) -> list[int]:
    """splitmix64's outputs 1..count from state ``seed``, in Python integers,
    as in Vigna's reference code."""
    out, state = [], seed
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) % 2**64
        z = (state ^ state >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        out.append(z ^ z >> 31)
    return out


def record_start_vectors(monkeypatch) -> list:
    """Wrap the one-pair solve; the list holds the start vector of each call."""
    solve = tcspin.spectra._lowest_deflated_eigenpair
    starts = []

    def recording(matvec, v0, *args):
        starts.append(v0)
        return solve(matvec, v0, *args)

    monkeypatch.setattr(tcspin.spectra, "_lowest_deflated_eigenpair", recording)
    return starts


class TestStartStream:
    """lanczos_extremal's start vectors: the splitmix64 stream keyed by the seed."""

    def test_first_values_are_pinned(self):
        stream = tcspin.spectra._splitmix64_uniform
        # the first outputs from state 0 are those published with the reference code
        assert _splitmix64_reference(0, 3) == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        assert _splitmix64_reference(2**64 - 1, 3) == [0xE4D971771B652C20, 0xE99FF867DBF682C9, 0x382FF84CB27281E9]
        assert stream(0, 0, 4).tolist() == [0.7666216164272852, -0.13694400590298006, -0.9471324568148045, 0.941763956307657]
        assert stream(2**64 - 1, 0, 4).tolist() == [
            0.7878858405663689, 0.8251944071889064, -0.5610360742094649, -0.14753110110966716
        ]

    @pytest.mark.parametrize("seed", [0, 1, 7, 100, 2**63, 2**64 - 1])
    def test_top_53_bits_of_the_integer_reference(self, seed):
        """Position i is output i + 1 mapped to b * 2^-52 - 1 by its top 53
        bits b; any stretch of the stream is read from its counter."""
        stream = tcspin.spectra._splitmix64_uniform
        want = [(z >> 11) * 2.0**-52 - 1.0 for z in _splitmix64_reference(seed, 40)]
        assert stream(seed, 0, 40).tolist() == want
        assert stream(seed, 13, 27).tolist() == want[13:]

    def test_uniform_on_the_half_open_interval(self):
        u = tcspin.spectra._splitmix64_uniform(3, 0, 1 << 16)
        assert u.dtype == np.float64 and -1.0 <= u.min() and u.max() < 1.0
        # mean 0 and variance 1/3, each to about ten standard errors
        assert abs(u.mean()) < 0.025 and abs(u.var() - 1 / 3) < 0.015

    @pytest.mark.parametrize("name", ["real", "complex"])
    def test_start_vectors_read_the_stream_in_turn(self, monkeypatch, name):
        """The first start vector is the stream from position 0, normalized:
        dim entries for a sector of dim states, or for a complex operator
        dim for the real part and the next dim for the imaginary part. The
        second starts where the first ended. The real N = 8 Heisenberg chain
        takes its two pairs from two global-flip halves of 64 states, so
        nothing is projected out of the second start; the complex chain
        takes both from one coset of 128, and the first pair is projected
        out of the second."""
        op = chain_n8(HEISENBERG if name == "real" else "dzyaloshinskii_moriya")
        starts = record_start_vectors(monkeypatch)
        lan = lanczos_extremal(op, k=2, seed=5)
        dim = 64 if name == "real" else 128
        stream = functools.partial(tcspin.spectra._splitmix64_uniform, 5, count=dim)
        if name == "real":
            v0, v1 = stream(0), stream(dim)
        else:
            v0, v1 = stream(0) + 1j * stream(dim), stream(2 * dim) + 1j * stream(3 * dim)
            (coset,) = [row for row in op.sectors[0] if np.any(lan.vector(0)[row])]
            found = lan.vector(0)[coset]  # the lower pair, converged first
            v1 = v1 - found * np.vdot(found, v1)
        assert [v.dtype for v in starts] == [v0.dtype] * 2
        assert np.allclose(starts[0], v0 / np.linalg.norm(v0), rtol=0, atol=1e-15)
        assert np.allclose(starts[1], v1 / np.linalg.norm(v1), rtol=0, atol=1e-12)

    def test_seeds_give_different_vectors_and_one_seed_the_same(self, monkeypatch):
        starts = record_start_vectors(monkeypatch)
        op = chain_with(10, HEISENBERG)
        first = []
        for seed in (1, 2, 1):
            first.append(len(starts))
            lanczos_extremal(op, k=1, seed=seed)
        a, b, c = (starts[i] for i in first)
        assert not np.allclose(a, b) and np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_the_stream_rejected(self, seed):
        with pytest.raises(ValueError, match="seed must be in"):
            lanczos_extremal(chain_n8(None), k=1, seed=seed)


def count_matvecs(monkeypatch) -> dict:
    """Count in ``counter["matvecs"]`` every matvec that lanczos_extremal's
    one-pair solves make, whether it is Operator.matvec or the groups cut
    to a sector, and every Operator.matvec call in ``counter["operator"]``."""
    counter = {"matvecs": 0, "operator": 0}
    solve, matvec = tcspin.spectra._lowest_deflated_eigenpair, Operator.matvec

    def counted(apply):
        def counting(*args):
            counter["matvecs"] += 1
            return apply(*args)

        return counting

    def operator_counting(self, v):
        counter["operator"] += 1
        return matvec(self, v)

    monkeypatch.setattr(tcspin.spectra, "_lowest_deflated_eigenpair", lambda apply, *args: solve(counted(apply), *args))
    monkeypatch.setattr(Operator, "matvec", operator_counting)
    return counter


def record_diagonalizations(monkeypatch) -> list:
    """Wrap numpy's eigh; the list holds the order of each matrix it gets."""
    eigh = np.linalg.eigh
    sizes = []

    def recording(a, *args, **kwargs):
        sizes.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return sizes


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
        mats = _block_matrices(op, op.flip_span.cut(op._groups, blocks))
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


# chain families by the block count of their flip span at N sites: blocks
# of 4 for the bare chain and a z field; exchange two blocks when N is a
# multiple of 4 and one block otherwise; x and y fields one block
RESIDUAL_FAMILIES = {
    "chain": ((), lambda n: 1 << (n - 2)),
    "z_field": ((Z_FIELD,), lambda n: 1 << (n - 2)),
    "heisenberg": ((HEISENBERG,), lambda n: 2 if n % 4 == 0 else 1),
    "x_field": ((PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3),), lambda n: 1),
    "y_field": ((PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3),), lambda n: 1),
}


class TestBlockResiduals:
    """dense_spectrum's residuals, taken in block coordinates."""

    @pytest.mark.parametrize("n", range(4, 11))
    @pytest.mark.parametrize("name", sorted(RESIDUAL_FAMILIES))
    def test_match_the_matvec_oracle(self, name, n):
        """Within 1e-28 of one full-space matvec per scattered eigenvector:
        the products agree entry for entry, and only the norm's summation
        order differs (about 6e-30 at N = 10)."""
        specs, n_blocks = RESIDUAL_FAMILIES[name]
        op = chain_with(n, *specs)
        spec = dense_spectrum(op)
        assert spec.span.cosets.shape[0] == n_blocks(n)
        assert np.max(np.abs(spec.residuals - matvec_residuals(op, spec))) <= 1e-28
        assert spec.residuals.max() < 1e-13

    def test_make_no_matvec(self, monkeypatch):
        counter = count_matvecs(monkeypatch)
        for specs, _ in RESIDUAL_FAMILIES.values():
            spec = dense_spectrum(chain_with(8, *specs))
            assert len(spec.residuals) == spec.n_pairs == 256
        assert counter["matvecs"] == 0


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


def loop_clusters(eigenvalues) -> list[list[int]]:
    """The per-level loop that SpectrumResult.clusters replaced: a level
    joins the cluster of the level before it when it lies less than
    CLUSTER_TOL above it."""
    groups: list[list[int]] = []
    for i, e in enumerate(eigenvalues):
        if groups and e - eigenvalues[groups[-1][-1]] < tcspin.spectra.CLUSTER_TOL:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


class TestClusters:
    TOL = tcspin.spectra.CLUSTER_TOL

    @staticmethod
    def with_levels(eigenvalues) -> tcspin.spectra.SpectrumResult:
        return replace(dense_spectrum(Operator.from_label_terms([(1.0, "X")])), eigenvalues=np.asarray(eigenvalues))

    @pytest.mark.parametrize(
        "gap, joined",
        [(TOL, False), (np.nextafter(TOL, 0.0), True), (np.nextafter(TOL, 1.0), False)],
        ids=["at", "below", "above"],
    )
    def test_gaps_at_the_tolerance_match_the_loop(self, gap, joined):
        levels = np.array([-1.0, -1.0, 0.0, gap, gap, 1.0])
        assert levels[3] - levels[2] == gap  # gap - 0.0 is exact
        expected = [[0, 1], [2, 3, 4], [5]] if joined else [[0, 1], [2], [3, 4], [5]]
        assert self.with_levels(levels).clusters() == loop_clusters(levels) == expected

    @pytest.mark.parametrize(
        "op",
        [
            build_tc_hamiltonian(TCModelConfig(6, 0.0)),
            build_tc_hamiltonian(TCModelConfig(8, 1.0)),
            # clusters [33, 34] and [35, 36] lie 2.5e-9 apart
            chain_with(8, PerturbationSpec("heisenberg_exchange", 0.05)),
        ],
        ids=["n6_j0", "n8_j1", "n8_heisenberg"],
    )
    def test_spectra_match_the_loop(self, op):
        spec = dense_spectrum(op)
        assert spec.clusters() == loop_clusters(spec.eigenvalues)

    def test_no_levels_no_clusters(self):
        assert self.with_levels(np.empty(0)).clusters() == loop_clusters(np.empty(0)) == []


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
