"""Hamiltonian, perturbation, order-parameter and reference-state builders."""

import numpy as np
import pytest

from tcspin.errors import ConfigError
from tcspin.models import (
    PerturbationSpec,
    TCModelConfig,
    add_perturbations,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from tcspin.pauli import StateVector, to_dense

from oracles import build_ghz, global_flip_operator, letters


def _term_map(op):
    return {letters(t): t.coeff for t in op.terms}


class TestChainHamiltonian:
    def test_j_zero_periodic_has_four_zz_bonds(self):
        op = build_tc_hamiltonian(TCModelConfig(4, 0.0))
        assert op.n_terms == 4
        for t in op.terms:
            assert t.coeff == -1.0
            assert t.x_mask == 0
            assert t.z_mask.bit_count() == 2

    def test_string_terms_at_n4(self):
        terms = _term_map(build_tc_hamiltonian(TCModelConfig(4, 1.0)))
        assert terms["XXII"] == 1.0
        assert terms["IIXX"] == -1.0

    def test_odd_n_splits_at_floor(self):
        terms = _term_map(build_tc_hamiltonian(TCModelConfig(5, 2.0)))
        assert terms["XXIII"] == 2.0
        assert terms["IIXXX"] == -2.0

    def test_open_boundary_drops_wrap_bond(self):
        periodic = build_tc_hamiltonian(TCModelConfig(6, 0.0, boundary="periodic"))
        open_chain = build_tc_hamiltonian(TCModelConfig(6, 0.0, boundary="open"))
        assert periodic.n_terms == 6
        assert open_chain.n_terms == 5

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_hermitian(self, n):
        mat = to_dense(build_tc_hamiltonian(TCModelConfig(n, 0.7)))
        assert np.allclose(mat, mat.conj().T, atol=1e-12)

    @pytest.mark.parametrize("n", [4, 6, 8])
    @pytest.mark.parametrize("j", [0.0, 0.5, 2.0])
    def test_commutes_with_global_flip(self, n, j):
        h = to_dense(build_tc_hamiltonian(TCModelConfig(n, j)))
        p = to_dense(global_flip_operator(n))
        assert np.linalg.norm(h @ p - p @ h, ord="fro") < 1e-12

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_polarized_energy_is_minus_n(self, n):
        op = build_tc_hamiltonian(TCModelConfig(n, 0.0))
        up = StateVector.basis_state(n, 0)
        down = StateVector.basis_state(n, (1 << n) - 1)
        assert complex(np.vdot(up.amplitudes, op.matvec(up.amplitudes))) == -n
        assert complex(np.vdot(down.amplitudes, op.matvec(down.amplitudes))) == -n

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_sign_of_j_does_not_change_spectrum(self, n):
        plus = np.linalg.eigvalsh(to_dense(build_tc_hamiltonian(TCModelConfig(n, 0.8))))
        minus = np.linalg.eigvalsh(to_dense(build_tc_hamiltonian(TCModelConfig(n, -0.8))))
        assert np.max(np.abs(np.sort(plus) - np.sort(minus))) < 1e-10

    def test_rejects_small_chains(self):
        for n in (1, 2, 3):
            with pytest.raises(ConfigError):
                TCModelConfig(n, 1.0)

    def test_rejects_unknown_boundary(self):
        with pytest.raises(ConfigError):
            TCModelConfig(4, 1.0, boundary="twisted")

    def test_half_split(self):
        assert TCModelConfig(8, 0.0).half_split == 4
        assert TCModelConfig(9, 0.0).half_split == 4


class TestPerturbations:
    def test_zero_exchange_is_empty(self):
        spec = PerturbationSpec(kind="heisenberg_exchange", strength=0.0)
        assert build_perturbation(6, spec).n_terms == 0

    def test_two_site_open_exchange(self):
        spec = PerturbationSpec(kind="heisenberg_exchange", strength=1.0)
        op = build_perturbation(2, spec, boundary="open")
        assert _term_map(op) == {"XX": 1.0, "YY": 1.0, "ZZ": 1.0}

    def test_periodic_exchange_counts(self):
        spec = PerturbationSpec(kind="heisenberg_exchange", strength=0.3)
        assert build_perturbation(5, spec, boundary="periodic").n_terms == 15
        assert build_perturbation(5, spec, boundary="open").n_terms == 12

    def test_random_field_is_seed_deterministic(self):
        spec = PerturbationSpec(kind="random_onsite_field", strength=0.1, axis="z", seed=42)
        a = build_perturbation(6, spec)
        b = build_perturbation(6, spec)
        assert a.terms == b.terms

    def test_random_field_differs_across_seeds(self):
        make = lambda seed: build_perturbation(
            6, PerturbationSpec(kind="random_onsite_field", strength=0.1, seed=seed)
        )
        assert make(1).terms != make(2).terms

    def test_random_field_single_site_terms(self):
        spec = PerturbationSpec(kind="random_onsite_field", strength=0.5, axis="x", seed=3)
        op = build_perturbation(4, spec)
        assert op.n_terms == 4
        for t in op.terms:
            assert t.x_mask.bit_count() == 1 and t.z_mask == 0
            assert abs(t.coeff) <= 0.5

    def test_gaussian_distribution_unbounded_scale(self):
        spec = PerturbationSpec(
            kind="random_onsite_field", strength=1.0, seed=8, distribution="gaussian_unit"
        )
        op = build_perturbation(4, spec)
        assert op.n_terms == 4

    def test_zero_field_strength_is_empty_for_any_seed(self):
        for seed in (0, 1, 99):
            spec = PerturbationSpec(kind="random_onsite_field", strength=0.0, seed=seed)
            assert build_perturbation(5, spec).n_terms == 0

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            PerturbationSpec(kind="dephasing", strength=0.1)
        with pytest.raises(ConfigError):
            PerturbationSpec(kind="random_onsite_field", strength=-0.1)
        with pytest.raises(ConfigError):
            PerturbationSpec(kind="random_onsite_field", strength=0.1, axis="w")

    def test_needs_at_least_two_sites(self):
        spec = PerturbationSpec(kind="heisenberg_exchange", strength=0.1)
        with pytest.raises(ConfigError):
            build_perturbation(1, spec)

    def test_add_perturbations_sums_in_order_and_canonicalizes(self):
        h = build_tc_hamiltonian(TCModelConfig(6, 0.5, boundary="open"))
        specs = (
            PerturbationSpec(kind="heisenberg_exchange", strength=0.1),
            PerturbationSpec(kind="random_onsite_field", strength=0.2, seed=4),
        )
        expected = (h + build_perturbation(6, specs[0], "open") + build_perturbation(6, specs[1], "open")).canonicalize()
        assert add_perturbations(h, specs, "open").terms == expected.terms
        assert add_perturbations(h, (), "open") is h


class TestGHZ:
    def test_single_site_plus(self):
        v = build_ghz(1, "plus")
        assert np.max(np.abs(v.amplitudes - np.array([1.0, 1.0]) / np.sqrt(2))) < 1e-15

    def test_three_site_minus_amplitudes(self):
        v = build_ghz(3, "minus")
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1 / np.sqrt(2)
        expected[7] = -1 / np.sqrt(2)
        assert np.max(np.abs(v.amplitudes - expected)) < 1e-15

    @pytest.mark.parametrize("n", range(1, 7))
    def test_plus_minus_orthogonal(self, n):
        plus = build_ghz(n, "plus")
        minus = build_ghz(n, "minus")
        assert abs(np.vdot(plus.amplitudes, minus.amplitudes)) < 1e-15
        assert plus.norm == pytest.approx(1.0, abs=1e-12) and minus.norm == pytest.approx(1.0, abs=1e-12)


class TestMagnetization:
    def test_fully_polarized_eigenstate(self):
        m = magnetization_operator(2, "z")
        v = StateVector.basis_state(2, 0)
        assert np.array_equal(m.matvec(v.amplitudes), v.amplitudes)

    def test_balanced_state_annihilated(self):
        m = magnetization_operator(2, "z")
        v = StateVector.basis_state(2, 2)  # |01>
        assert np.max(np.abs(m.matvec(v.amplitudes))) == 0.0

    def test_term_structure(self):
        m = magnetization_operator(4, "x")
        assert m.n_terms == 4
        for t in m.terms:
            assert t.coeff == 0.25
            assert t.x_mask.bit_count() == 1 and t.z_mask == 0
