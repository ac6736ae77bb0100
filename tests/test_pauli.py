"""Pauli-string algebra against independent dense (tensor-product) oracles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcspin.errors import DenseCapError, DimensionError
from tcspin.models import PerturbationSpec, TCModelConfig, build_perturbation, build_tc_hamiltonian
from tcspin.pauli import (
    Operator,
    PauliString,
    StateVector,
    apply_operator,
    apply_string,
    global_flip_operator,
    strings_commute,
    to_dense,
)

from conftest import kron_dense, random_operator, random_state


class TestApplyString:
    def test_z_keeps_spin_up_invariant(self):
        v = StateVector.basis_state(1, 0)
        out = apply_string(PauliString.from_letters("Z"), v)
        assert np.array_equal(out.amplitudes, [1.0, 0.0])

    def test_z_negates_spin_down(self):
        v = StateVector.basis_state(1, 1)
        out = apply_string(PauliString.from_letters("Z"), v)
        assert np.array_equal(out.amplitudes, [0.0, -1.0])

    def test_xx_flips_both_bits(self):
        v = StateVector.basis_state(2, 0)  # |00>
        out = apply_string(PauliString.from_letters("XX"), v)
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1.0  # |11>
        assert np.array_equal(out.amplitudes, expected)

    def test_y_on_down_spin(self):
        v = StateVector.basis_state(1, 1)
        out = apply_string(PauliString.from_letters("Y"), v)
        assert np.array_equal(out.amplitudes, [-1.0j, 0.0])

    def test_y_on_up_spin(self):
        v = StateVector.basis_state(1, 0)
        out = apply_string(PauliString.from_letters("Y"), v)
        assert np.array_equal(out.amplitudes, [0.0, 1.0j])

    def test_size_mismatch_raises(self):
        with pytest.raises(DimensionError):
            apply_string(PauliString.from_letters("XX"), StateVector.basis_state(1, 0))

    def test_unit_modulus_coefficient_preserves_norm(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            s = PauliString(
                n,
                int(rng.integers(0, 1 << n)),
                int(rng.integers(0, 1 << n)),
                complex(phase),
            )
            v = random_state(rng, n)
            assert apply_string(s, v).norm == pytest.approx(1.0, abs=1e-13)


class TestApplyOperator:
    def test_sum_of_terms(self):
        op = Operator.from_label_terms([(1.0, "Z"), (1.0, "X")])
        out = apply_operator(op, StateVector.basis_state(1, 0))
        assert np.array_equal(out.amplitudes, [1.0, 1.0])

    def test_tc_j0_on_fully_polarized(self):
        op = build_tc_hamiltonian(TCModelConfig(4, 0.0))
        v = StateVector.basis_state(4, 0)
        out = apply_operator(op, v)
        assert np.array_equal(out.amplitudes, -4.0 * v.amplitudes)

    def test_random_six_site_operator_matches_dense(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, 6, 12, hermitian=False)
        v = random_state(rng, 6)
        direct = apply_operator(op, v).amplitudes
        via_dense = to_dense(op) @ v.amplitudes
        assert np.max(np.abs(direct - via_dense)) < 1e-12

    @pytest.mark.parametrize("n_sites", range(2, 9))
    def test_matches_dense_on_random_draws(self, n_sites):
        rng = np.random.default_rng(100 + n_sites)
        for _ in range(10):
            op = random_operator(rng, n_sites, 8, hermitian=False)
            v = random_state(rng, n_sites)
            direct = op.matvec(v.amplitudes)
            assert np.max(np.abs(direct - to_dense(op) @ v.amplitudes)) < 1e-12

    def test_linear_in_state(self):
        rng = np.random.default_rng(3)
        op = random_operator(rng, 4, 6)
        u, v = random_state(rng, 4), random_state(rng, 4)
        lhs = op.matvec(2.0 * u.amplitudes + 1j * v.amplitudes)
        rhs = 2.0 * op.matvec(u.amplitudes) + 1j * op.matvec(v.amplitudes)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestToDense:
    def test_single_site_x(self):
        mat = to_dense(Operator.from_label_terms([(1.0, "X")]))
        assert np.array_equal(mat, [[0.0, 1.0], [1.0, 0.0]])

    def test_single_site_y(self):
        mat = to_dense(Operator.from_label_terms([(1.0, "Y")]))
        assert np.array_equal(mat, [[0.0, -1.0j], [1.0j, 0.0]])

    def test_two_site_chain_matches_hand_assembly(self):
        # the N=2 degenerate chain: periodic ZZ merges to -2 ZZ, strings
        # become single-site +X(1) - X(2); built from a raw term list since
        # the model builder requires N >= 4
        op = Operator.from_label_terms([(-2.0, "ZZ"), (1.0, "XI"), (-1.0, "IX")])
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        z = np.array([[1, 0], [0, -1]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        hand = -2.0 * np.kron(z, z) + 1.0 * np.kron(eye, x) - 1.0 * np.kron(x, eye)
        assert np.array_equal(to_dense(op), hand)

    def test_matches_kron_oracle(self):
        rng = np.random.default_rng(17)
        for n in (1, 2, 3, 5):
            op = random_operator(rng, n, 7, hermitian=False)
            assert np.max(np.abs(to_dense(op) - kron_dense(op))) < 1e-13

    def test_cap_enforced(self):
        op = Operator.from_label_terms([(1.0, "XXXXX")])
        with pytest.raises(DenseCapError):
            to_dense(op, cap=4)


def _letters(n: int, placed: dict[int, str]) -> str:
    return "".join(placed.get(site, "I") for site in range(n))


def shared_group_mixes(n: int) -> dict[str, list[tuple[complex, str]]]:
    """Term lists whose strings share x_mask groups."""
    fields = [(0.3 * (j + 1), _letters(n, {j: "Z"})) for j in range(n)]
    mixes = {
        # one x_mask (all sites) holding one Y, n Ys and no Y
        "odd_and_even_y": [(1.0, "X" * n), (0.5, "Y" + "X" * (n - 1)), (-0.25, "Y" * n)] + fields,
        "complex_weights": [(0.5 + 0.25j, "X" * n), (-0.75j, "Y" * n), (1.0 - 1.0j, "Z" * n), (0.2j, "I" * n)],
    }
    if n >= 2:
        mixes["exchange_with_fields"] = [
            (0.7, _letters(n, {0: "X", 1: "X"})),
            (0.7, _letters(n, {0: "Y", 1: "Y"})),
            (-1.0, _letters(n, {0: "Z", 1: "Z"})),
        ] + fields
    return mixes


class TestCompiledGroups:
    @pytest.mark.parametrize("n_sites", range(1, 9))
    def test_shared_groups_match_kron_oracle(self, n_sites):
        rng = np.random.default_rng(200 + n_sites)
        v = random_state(rng, n_sites).amplitudes
        for name, terms in shared_group_mixes(n_sites).items():
            op = Operator.from_label_terms(terms)
            oracle = kron_dense(op)
            mat = to_dense(op)
            assert np.max(np.abs(mat - oracle)) < 1e-13, name
            assert np.max(np.abs(op.matvec(v) - oracle @ v)) < 1e-13, name
            # real storage exactly when the oracle has no imaginary entry
            assert (mat.dtype == np.float64) == (not oracle.imag.any()), name

    @pytest.mark.parametrize("n_sites", range(4, 9))
    @pytest.mark.parametrize(
        "spec",
        [
            None,
            PerturbationSpec("heisenberg_exchange", 0.05),
            PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3),
            PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3),
        ],
    )
    def test_chain_and_perturbations_are_real(self, n_sites, spec):
        op = build_tc_hamiltonian(TCModelConfig(n_sites, 0.5))
        if spec is not None:
            op = (op + build_perturbation(n_sites, spec)).canonicalize()
        mat = to_dense(op)
        assert mat.dtype == np.float64
        assert np.max(np.abs(mat - kron_dense(op))) < 1e-13

    @pytest.mark.parametrize("terms", [[(1.0, "Y")], [(1.0, "XI"), (0.5j, "ZZ")], [(1.0, "XX"), (1.0, "XY")]])
    def test_lone_y_or_complex_weight_is_complex(self, terms):
        op = Operator.from_label_terms(terms)
        mat = to_dense(op)
        assert mat.dtype == np.complex128
        assert np.max(np.abs(mat - kron_dense(op))) < 1e-13

    def test_matvec_always_returns_complex128(self):
        real_op = build_tc_hamiltonian(TCModelConfig(4, 0.5))
        complex_op = Operator.from_label_terms([(1.0, "YIII")])
        real_amps = np.linspace(-1.0, 1.0, 16)
        for op in (real_op, complex_op):
            for amps in (real_amps, real_amps.astype(np.complex128)):
                assert op.matvec(amps).dtype == np.complex128

    def test_empty_operator(self):
        op = Operator(3, ())
        assert np.array_equal(op.matvec(np.ones(8)), np.zeros(8))
        assert np.array_equal(to_dense(op), np.zeros((8, 8)))

    @pytest.mark.parametrize("seed", range(4))
    def test_gershgorin_interval_encloses_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        op = random_operator(rng, 5, 10)
        lo, hi = op.gershgorin_interval()
        energies = np.linalg.eigvalsh(kron_dense(op))
        assert lo - 1e-12 <= energies[0] and energies[-1] <= hi + 1e-12
        assert hi - lo <= 2.0 * op.one_norm() + 1e-12

    def test_gershgorin_interval_of_the_chain(self):
        # every row of the N = 12 chain sits at distance 13 from zero
        assert build_tc_hamiltonian(TCModelConfig(12, 0.5)).gershgorin_interval() == (-13.0, 13.0)


class TestStringsCommute:
    def test_one_clashing_site(self):
        a = PauliString.from_letters("XI")
        b = PauliString.from_letters("ZZ")
        assert not strings_commute(a, b)

    def test_two_clashing_sites(self):
        a = PauliString.from_letters("XX")
        b = PauliString.from_letters("ZZ")
        assert strings_commute(a, b)

    def test_size_mismatch(self):
        with pytest.raises(DimensionError):
            strings_commute(PauliString.from_letters("X"), PauliString.from_letters("XX"))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_exhaustive_against_dense_commutator(self, n):
        strings = [
            PauliString(n, x, z, 1.0)
            for x in range(1 << n)
            for z in range(1 << n)
        ]
        dense = {(s.x_mask, s.z_mask): kron_dense(Operator(n, (s,))) for s in strings}
        for a in strings:
            ma = dense[(a.x_mask, a.z_mask)]
            for b in strings:
                mb = dense[(b.x_mask, b.z_mask)]
                commutes_dense = np.linalg.norm(ma @ mb - mb @ ma) < 1e-12
                assert strings_commute(a, b) == commutes_dense


class TestGlobalFlip:
    def test_n1_is_x(self):
        op = global_flip_operator(1)
        assert op.n_terms == 1
        assert op.terms[0].letters() == "X"
        assert op.terms[0].coeff == 1.0

    def test_flips_basis_state(self):
        v = StateVector.basis_state(2, 2)  # |01>: site 1 up, site 2 down
        out = apply_operator(global_flip_operator(2), v)
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0  # |10>
        assert np.array_equal(out.amplitudes, expected)

    def test_commutes_with_chain_hamiltonian(self):
        h = to_dense(build_tc_hamiltonian(TCModelConfig(8, 0.7)))
        p = to_dense(global_flip_operator(8))
        assert np.linalg.norm(h @ p - p @ h) < 1e-12


class TestCanonicalization:
    def test_merges_duplicate_strings(self):
        op = Operator(
            2,
            (
                PauliString(2, 1, 0, 0.5),
                PauliString(2, 1, 0, 0.25),
                PauliString(2, 0, 3, 1.0),
            ),
        )
        canon = op.canonicalize()
        assert canon.n_terms == 2
        coeffs = {(t.x_mask, t.z_mask): t.coeff for t in canon.terms}
        assert coeffs[(1, 0)] == 0.75

    def test_drops_zero_coefficients(self):
        op = Operator(2, (PauliString(2, 1, 2, 1.0), PauliString(2, 1, 2, -1.0)))
        assert op.canonicalize().n_terms == 0

    def test_sorted_by_masks(self):
        op = Operator(2, (PauliString(2, 3, 0, 1.0), PauliString(2, 0, 1, 1.0)))
        canon = op.canonicalize()
        keys = [(t.x_mask, t.z_mask) for t in canon.terms]
        assert keys == sorted(keys)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=15),
                st.integers(min_value=0, max_value=15),
                st.floats(min_value=-10, max_value=10, allow_nan=False),
            ),
            min_size=0,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_idempotent(self, raw_terms):
        op = Operator(4, tuple(PauliString(4, x, z, c) for x, z, c in raw_terms))
        once = op.canonicalize()
        twice = once.canonicalize()
        assert [(t.x_mask, t.z_mask, t.coeff) for t in once.terms] == [
            (t.x_mask, t.z_mask, t.coeff) for t in twice.terms
        ]


class TestHermiticity:
    def test_real_coefficients_are_hermitian(self):
        rng = np.random.default_rng(23)
        for n in range(1, 7):
            op = random_operator(rng, n, 6, hermitian=True)
            mat = to_dense(op)
            assert op.is_hermitian() == bool(np.allclose(mat, mat.conj().T, atol=1e-12))
            assert op.is_hermitian()

    def test_complex_coefficients_match_dense_check(self):
        rng = np.random.default_rng(29)
        for n in range(1, 7):
            op = random_operator(rng, n, 6, hermitian=False)
            mat = to_dense(op)
            assert op.is_hermitian() == bool(np.allclose(mat, mat.conj().T, atol=1e-12))

    def test_imaginary_parts_cancel_after_merging(self):
        op = Operator(1, (PauliString(1, 1, 0, 1 + 2j), PauliString(1, 1, 0, 1 - 2j)))
        assert op.is_hermitian()


class TestSerialization:
    def test_documented_shape(self):
        op = Operator.from_label_terms([(-1.0, "ZZI"), (0.5, "XXY")])
        doc = json.loads(op.to_json())
        assert doc == [
            {"coeff": [-1.0, 0.0], "letters": "ZZI"},
            {"coeff": [0.5, 0.0], "letters": "XXY"},
        ]

    def test_round_trip_is_bit_exact(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            op = random_operator(rng, n, int(rng.integers(1, 9)), hermitian=False)
            back = Operator.from_json(op.to_json())
            assert back.n_sites == op.n_sites
            assert [(t.x_mask, t.z_mask, t.coeff) for t in back.terms] == [
                (t.x_mask, t.z_mask, t.coeff) for t in op.terms
            ]
            assert back.to_json() == op.to_json()

    def test_empty_operator_needs_explicit_size(self):
        empty = Operator(3, ())
        assert empty.to_json() == "[]"
        with pytest.raises(ValueError):
            Operator.from_json("[]")
        assert Operator.from_json("[]", n_sites=3).n_sites == 3

    @given(st.integers(min_value=0, max_value=63), st.integers(min_value=0, max_value=63))
    @settings(max_examples=40, deadline=None)
    def test_letters_round_trip(self, x_mask, z_mask):
        s = PauliString(6, x_mask, z_mask, 1.0)
        back = PauliString.from_letters(s.letters())
        assert (back.x_mask, back.z_mask) == (x_mask, z_mask)


class TestValidation:
    def test_masks_must_fit(self):
        with pytest.raises(ValueError):
            PauliString(2, 4, 0, 1.0)

    def test_coefficient_must_be_finite(self):
        with pytest.raises(ValueError):
            PauliString(1, 0, 0, complex(np.nan, 0.0))
        with pytest.raises(ValueError):
            PauliString(1, 0, 0, complex(np.inf, 0.0))

    def test_operator_rejects_mixed_sizes(self):
        with pytest.raises(DimensionError):
            Operator(2, (PauliString(3, 0, 0, 1.0),))

    def test_state_vector_length(self):
        with pytest.raises(DimensionError):
            StateVector(2, np.zeros(3, dtype=complex))

    def test_identity_string_scales(self):
        v = random_state(np.random.default_rng(5), 3)
        out = apply_string(PauliString(3, 0, 0, 2.5j), v)
        assert np.max(np.abs(out.amplitudes - 2.5j * v.amplitudes)) < 1e-15
