"""Pauli-string algebra against independent dense (tensor-product) oracles."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcspin.errors import ConfigError, DenseCapError, DimensionError
import tcspin.pauli
from tcspin.models import PerturbationSpec, TCModelConfig, build_perturbation, build_tc_hamiltonian, magnetization_operator
from tcspin.pauli import (
    Operator,
    PauliString,
    StateVector,
    apply_groups,
    dense_cap,
    global_flip_operator,
    strings_commute,
    to_dense,
)

from conftest import kron_dense, random_operator, random_state


def _basis_action(letters: str, index: int) -> np.ndarray:
    """One unit-weight string applied to basis state ``index``."""
    op = Operator.from_label_terms([(1.0, letters)])
    return op.matvec(StateVector.basis_state(op.n_sites, index).amplitudes)


class TestSingleStringAction:
    def test_z_keeps_spin_up_invariant(self):
        assert np.array_equal(_basis_action("Z", 0), [1.0, 0.0])

    def test_z_negates_spin_down(self):
        assert np.array_equal(_basis_action("Z", 1), [0.0, -1.0])

    def test_xx_flips_both_bits(self):
        expected = np.zeros(4, dtype=complex)
        expected[3] = 1.0  # |00> -> |11>
        assert np.array_equal(_basis_action("XX", 0), expected)

    def test_y_on_down_spin(self):
        assert np.array_equal(_basis_action("Y", 1), [-1.0j, 0.0])

    def test_y_on_up_spin(self):
        assert np.array_equal(_basis_action("Y", 0), [0.0, 1.0j])

    def test_size_mismatch_raises(self):
        with pytest.raises(DimensionError):
            Operator.from_label_terms([(1.0, "XX")]).matvec(StateVector.basis_state(1, 0).amplitudes)

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
            assert np.linalg.norm(Operator(n, (s,)).matvec(v.amplitudes)) == pytest.approx(1.0, abs=1e-13)


class TestMatvec:
    def test_sum_of_terms(self):
        op = Operator.from_label_terms([(1.0, "Z"), (1.0, "X")])
        assert np.array_equal(op.matvec(StateVector.basis_state(1, 0).amplitudes), [1.0, 1.0])

    def test_tc_j0_on_fully_polarized(self):
        op = build_tc_hamiltonian(TCModelConfig(4, 0.0))
        v = StateVector.basis_state(4, 0)
        assert np.array_equal(op.matvec(v.amplitudes), -4.0 * v.amplitudes)

    def test_random_six_site_operator_matches_dense(self):
        rng = np.random.default_rng(7)
        op = random_operator(rng, 6, 12, hermitian=False)
        v = random_state(rng, 6)
        assert np.max(np.abs(op.matvec(v.amplitudes) - to_dense(op) @ v.amplitudes)) < 1e-12

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

    @pytest.mark.parametrize(
        "terms, real",
        [
            ("chain", True),
            ([(1.0, "YIII")], False),  # a lone Y
            ([(1.0, "XIII"), (0.5j, "ZZII")], False),  # a complex weight
            ([(1.0, "XXII"), (1.0, "YYII")], True),  # two Ys: a real group
        ],
    )
    def test_matvec_dtype_follows_operator_and_input(self, terms, real):
        """float64 in gives float64 out on a real operator; complex128 otherwise."""
        op = build_tc_hamiltonian(TCModelConfig(4, 0.5)) if terms == "chain" else Operator.from_label_terms(terms)
        real_amps = np.linspace(-1.0, 1.0, 16)
        complex_amps = real_amps * np.exp(0.3j)
        out_real = op.matvec(real_amps)
        assert out_real.dtype == (np.float64 if real else np.complex128)
        assert op.matvec(complex_amps).dtype == np.complex128
        # the real path is the complex path's real part, bit for bit
        assert np.array_equal(out_real, op.matvec(real_amps.astype(np.complex128)))
        assert np.max(np.abs(op.matvec(complex_amps) - kron_dense(op) @ complex_amps)) < 1e-13

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


def _slab_operator(name: str) -> Operator:
    """The N = 6 chain with a z field (real groups, blocks of 4), with a y
    field (complex groups, one block), or a z field alone (rank 0: no group
    has a gather index)."""
    if name == "diagonal":
        return Operator.from_label_terms([(0.3 * (i + 1), "I" * i + "Z" + "I" * (5 - i)) for i in range(6)])
    spec = PerturbationSpec("random_onsite_field", 0.05, axis=name[0], seed=3)
    return (build_tc_hamiltonian(TCModelConfig(6, 0.5)) + build_perturbation(6, spec)).canonicalize()


class TestSlabs:
    """apply_groups on a (dim, k) slab of columns."""

    @pytest.mark.parametrize("name, groups_real", [("z_field", True), ("y_field", False), ("diagonal", True)])
    @pytest.mark.parametrize("slab_real", [True, False], ids=["real_slab", "complex_slab"])
    @pytest.mark.parametrize("restricted", [False, True], ids=["full", "restricted"])
    def test_columns_are_single_calls_bit_for_bit(self, name, groups_real, slab_real, restricted):
        op = _slab_operator(name)
        groups = op._groups
        if restricted:
            cosets = op.flip_span.cosets
            groups = op.flip_span.cut(groups, cosets[::3] if len(cosets) > 1 else cosets)
        assert all(c.dtype == (np.float64 if groups_real else np.complex128) for c, _ in groups)
        assert any(perm is None for _, perm in groups)
        assert any(perm is not None for _, perm in groups) == (name != "diagonal")
        rng = np.random.default_rng(7)
        dim = len(groups[0][0])
        wide = rng.standard_normal((dim, 8))
        if not slab_real:
            wide = wide + 1j * rng.standard_normal((dim, 8))
        slab = wide[:, 1:6]  # a strided view, as the dense route passes
        out = apply_groups(groups, slab)
        assert out.shape == slab.shape
        assert out.dtype == (np.float64 if groups_real and slab_real else np.complex128)
        for j in range(slab.shape[1]):
            column = apply_groups(groups, np.ascontiguousarray(slab[:, j]))
            assert column.dtype == out.dtype
            assert np.array_equal(out[:, j], column)
            # and a 1-D call is the plain sum over groups of c * amps[perm]
            reference = np.zeros(dim, dtype=out.dtype)
            for c, perm in groups:
                reference += c * (slab[:, j] if perm is None else slab[perm, j])
            assert np.array_equal(column, reference)


# FlipSpan.restrict and FlipSpan.fold, the two ways to cut compiled groups
# before FlipSpan.cut replaced both, kept bit for bit as oracles


def _restrict_oracle(span, groups, rows):
    """``groups`` on the flat vector stacking ``rows``: entry k * 2^r + i is
    rows[k, i]. Group x keeps c[rows] and gathers from k * 2^r + j, member j
    being member i ^ x in every coset."""
    offsets = np.arange(0, rows.size, rows.shape[1])[:, None]
    return tuple(
        (c[rows].ravel(), (offsets + np.searchsorted(span.members, span.members ^ x)).ravel() if x else None)
        for x, (c, _) in zip(span.masks, groups, strict=True)
    )


def _fold_oracle(span, groups, rows, parities):
    """``groups``, commuting with the global flip P, on the flat vector
    stacking the P = parities[k] sectors of ``rows``: group x at member
    position jx gathers from position ^ jx; a target with jP's top bit set
    is read as its representative target ^ jP, with c * p, and groups that
    then share a gather are merged."""
    j_p = span.flip_position
    top = 1 << (j_p.bit_length() - 1)
    reps, _ = span.halves
    at_reps = rows[:, reps]
    merged = {}
    for x, (c, _) in zip(span.masks, groups, strict=True):
        jx = int(np.searchsorted(span.members, x))
        c = c[at_reps]
        if jx & top:
            jx ^= j_p
            c *= parities[:, None]
        merged[jx] = merged[jx] + c if jx in merged else c
    offsets = np.arange(0, at_reps.size, len(reps))[:, None]
    return tuple(
        (c.ravel(), (offsets + np.searchsorted(reps, reps ^ jx)).ravel() if jx else None)
        for jx, c in merged.items()
    )


CUT_FAMILIES = {
    "bare": None,
    "heisenberg": PerturbationSpec("heisenberg_exchange", 0.05),
    "x_field": PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3),
    "y_field": PerturbationSpec("random_onsite_field", 0.05, axis="y", seed=3),
    "z_field": PerturbationSpec("random_onsite_field", 0.05, axis="z", seed=3),
}


def _family_chain(n, family, boundary):
    op = build_tc_hamiltonian(TCModelConfig(n, 0.5, boundary=boundary))
    spec = CUT_FAMILIES[family]
    return op if spec is None else (op + build_perturbation(n, spec, boundary)).canonicalize()


def _assert_same_groups(got, want):
    assert len(got) == len(want)
    for (c, perm), (want_c, want_perm) in zip(got, want):
        assert c.dtype == want_c.dtype and c.tobytes() == want_c.tobytes()
        assert (perm is None) == (want_perm is None)
        if perm is not None:
            assert perm.dtype == want_perm.dtype and np.array_equal(perm, want_perm)


class TestCut:
    """FlipSpan.cut against the restrict and fold it replaced, bit for bit,
    and with Operator.coordinates against the full-space matvec."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_bit_for_bit_the_restrict_and_fold_oracles(self, family, boundary):
        folds = family in ("bare", "heisenberg", "x_field")
        for n in range(4, 13):
            op = _family_chain(n, family, boundary)
            span, groups = op.flip_span, op._groups
            assert (op.sectors[1] is not None) == folds
            for rows in (span.cosets, span.cosets[::3]):
                _assert_same_groups(span.cut(groups, rows), _restrict_oracle(span, groups, rows))
                if folds:
                    parities = np.where(np.arange(len(rows)) % 2 == 0, 1.0, -1.0)
                    _assert_same_groups(span.cut(groups, rows, parities), _fold_oracle(span, groups, rows, parities))
            if folds:
                rows, parities = op.sectors
                _assert_same_groups(span.cut(groups, rows, parities), _fold_oracle(span, groups, rows, parities))

    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_sectors_carry_the_matvec_and_the_norm(self, family):
        op = _family_chain(8, family, "open")
        rows, parities = op.sectors
        v = np.random.default_rng(4).standard_normal(256)
        coordinates = op.coordinates(v)
        assert coordinates.shape == (len(rows), 256 // len(rows))
        # the sectors split the space orthonormally, and H acts on each alone
        assert np.sum(coordinates**2) == pytest.approx(v @ v, rel=1e-13)
        h_v = apply_groups(op.flip_span.cut(op._groups, rows, parities), coordinates.ravel())
        assert np.max(np.abs(h_v - op.coordinates(op.matvec(v)).ravel())) < 1e-12

    def test_sectors_are_read_from_the_terms_once(self):
        op = _family_chain(8, "heisenberg", "periodic")
        rows, parities = op.sectors
        assert op.sectors is op.sectors and "_groups" not in vars(op)
        cosets = op.flip_span.cosets
        assert np.array_equal(rows, np.concatenate([cosets, cosets]))
        assert parities.tolist() == [1.0] * len(cosets) + [-1.0] * len(cosets)
        y_field = _family_chain(8, "y_field", "periodic")
        assert y_field.sectors[0] is y_field.flip_span.cosets and y_field.sectors[1] is None


class TestSectorDiscsAndScatter:
    """Operator.sector_discs against each sector's matrix, and
    Operator.scatter as the inverse of Operator.coordinates."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_discs_hold_every_sector_row(self, family, boundary):
        """The centre is the sector matrix's diagonal entry bit for bit, and
        the radius at least the row's off-diagonal absolute sum."""
        op = _family_chain(8, family, boundary)
        rows, parities = op.sectors
        centre, radius = op.sector_discs()
        assert centre.shape == radius.shape == op.coordinates(np.zeros(256)).shape
        for s in range(len(rows)):
            groups = op.flip_span.cut(op._groups, rows[s : s + 1], None if parities is None else parities[s : s + 1])
            matrix = apply_groups(groups, np.eye(centre.shape[1]))
            assert np.array_equal(centre[s], np.diag(matrix).real)
            off = np.abs(matrix).sum(axis=1) - np.abs(np.diag(matrix))
            assert np.all(radius[s] >= off - 1e-12)

    def test_a_global_flip_term_moves_the_half_centres(self):
        """With a weight-w X...X term the P = +-1 halves' centres are the
        coset's diagonal +- w, and that term leaves their radii."""
        op = Operator.from_label_terms([(1.0, "ZZI"), (0.5, "IZZ"), (0.3, "XXX"), (0.2, "XXI")])
        parities = op.sectors[1]
        assert parities.tolist() == [1.0, 1.0, -1.0, -1.0]
        centre, radius = op.sector_discs()
        diagonal = np.diag(to_dense(op))[op.flip_span.cosets[:, op.flip_span.halves[0]]]
        assert np.array_equal(centre, np.concatenate([diagonal + 0.3, diagonal - 0.3]))
        assert np.array_equal(radius, np.full((4, 2), 0.2))

    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_scatter_inverts_the_coordinates(self, family):
        """Scattering each sector's coordinates of v and summing gives v
        back, and a vector scattered from one P = p half satisfies
        v[i ^ (2^N - 1)] = p v[i] bit for bit."""
        op = _family_chain(8, family, "periodic")
        rows, parities = op.sectors
        v = np.random.default_rng(5).standard_normal(256)
        coordinates = op.coordinates(v)
        scattered = op.scatter(np.arange(len(rows)), coordinates)
        assert scattered.shape == (len(rows), 256)
        assert np.allclose(scattered.sum(axis=0), v, rtol=0, atol=1e-14)
        for s, u in enumerate(scattered):
            back = op.coordinates(u)
            assert np.allclose(back[s], coordinates[s], rtol=0, atol=1e-14)
            assert np.count_nonzero(np.delete(back, s, axis=0)) == 0
            if parities is not None:
                assert np.array_equal(u[np.arange(256) ^ 255], parities[s] * u)


def _groups_oracle(op: Operator):
    """The index-arithmetic compile that :attr:`Operator._groups` replaced:
    every term adds coeff * i^{#Y} * (1 - 2 parity) over all 2^N indices,
    with parity = popcount((r ^ x) & z) & 1, into a complex128 accumulator
    per x_mask; all groups are cast to float64 when no imaginary part is left."""
    dim = 1 << op.n_sites
    idx = np.arange(dim, dtype=np.intp)
    coeffs = {}
    for t in op.terms:
        parity = np.bitwise_count((idx ^ t.x_mask) & t.z_mask) & 1
        c = coeffs.setdefault(t.x_mask, np.zeros(dim, dtype=np.complex128))
        c += (t.coeff * t.phase) * (1.0 - 2.0 * parity)
    real = not any(c.imag.any() for c in coeffs.values())
    return tuple((c.real.copy() if real else c, idx ^ x if x else None) for x, c in sorted(coeffs.items()))


# coeff = weight * conj(i^{#Y}) gives the term the weight coeff * i^{#Y}, exactly
_UNDO_PHASE = (1.0, -1.0j, -1.0, 1.0j)


@st.composite
def pauli_sums(draw):
    """(n, [(weight, letters)]): 1 to 18 strings on 1 to 10 sites, Y letters
    included, finite complex weights, some strings repeated with new weights,
    in a drawn order."""
    n = draw(st.integers(1, 10))
    letters = st.text("IXYZ", min_size=n, max_size=n)
    weight = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))
    terms = draw(st.lists(st.tuples(weight, letters), min_size=1, max_size=12))
    terms += draw(st.lists(st.tuples(weight, st.sampled_from([s for _, s in terms])), max_size=6))
    return n, draw(st.permutations(terms))


def _weighted(n, terms) -> Operator:
    """The operator whose terms have these weights coeff * i^{#Y}."""
    return Operator(n, tuple(PauliString.from_letters(s, w * _UNDO_PHASE[s.count("Y") % 4]) for w, s in terms))


class TestBroadcastCompile:
    """Operator._groups, which adds w * S_z into a (2,)*N view, against the
    index-arithmetic oracle: the dtype and the bytes of every group."""

    @pytest.mark.parametrize("boundary", ["periodic", "open"])
    @pytest.mark.parametrize("family", CUT_FAMILIES)
    def test_chain_families_bit_for_bit(self, family, boundary):
        for n in range(4, 15):
            for op in (_family_chain(n, family, boundary), magnetization_operator(n, "z")):
                _assert_same_groups(op._groups, _groups_oracle(op))

    @settings(max_examples=150, deadline=None)
    @given(pauli_sums())
    def test_random_pauli_sums_bit_for_bit(self, drawn):
        op = _weighted(*drawn)
        _assert_same_groups(op._groups, _groups_oracle(op))

    @settings(max_examples=60, deadline=None)
    @given(pauli_sums(), st.floats(-2.0, 2.0), st.floats(0.5, 2.0), st.data())
    def test_exact_imaginary_cancellation_is_float64(self, drawn, a, b, data):
        """Real weights, and on one string the weights a + bi and -bi: the
        imaginary parts cancel exactly, so every group is float64."""
        n, terms = drawn
        terms = [(complex(w.real), s) for w, s in terms]
        s = data.draw(st.sampled_from([s for _, s in terms]))
        for w in (complex(a, b), complex(0.0, -b)):
            terms.insert(data.draw(st.integers(0, len(terms))), (w, s))
        op = _weighted(n, terms)
        assert all(c.dtype == np.float64 for c, _ in op._groups)
        _assert_same_groups(op._groups, _groups_oracle(op))

    @pytest.mark.parametrize("n, z_mask", [(1, 0), (1, 1), (5, 0b10110), (6, 0b111111)])
    def test_z_signs_broadcast_to_the_parity_signs(self, n, z_mask):
        signs = tcspin.pauli._z_signs(n, z_mask)
        assert signs.size == 1 << z_mask.bit_count() and not signs.flags.writeable
        r = np.arange(1 << n)
        want = 1.0 - 2.0 * (np.bitwise_count(r & z_mask) & 1)
        assert np.array_equal(np.broadcast_to(signs, (2,) * n).ravel(), want)

    def test_z_signs_of_one_popcount_share_their_entries(self):
        """The cache's memory is one array per popcount, not one per z_mask."""
        a, b = tcspin.pauli._z_signs(7, 0b1000101), tcspin.pauli._z_signs(9, 0b011000010)
        assert a.shape != b.shape and np.shares_memory(a, b)


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
        expected = np.zeros(4, dtype=complex)
        expected[1] = 1.0  # |10>
        assert np.array_equal(global_flip_operator(2).matvec(v.amplitudes), expected)

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


class TestCanonicalFormIsKept:
    @staticmethod
    def _count_operators_built(monkeypatch):
        built = []
        post_init = Operator.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(Operator, "__post_init__", counting)
        return built

    def test_hermiticity_and_norm_canonicalize_at_most_once(self, monkeypatch):
        op = Operator.from_label_terms([(1.0, "XZ"), (0.5, "ZZ"), (1.0, "XZ")])
        built = self._count_operators_built(monkeypatch)
        for _ in range(3):
            assert op.is_hermitian() and op.one_norm() == 2.5
        assert len(built) == 1
        canon = op.canonicalize()
        assert canon is built[0] and canon.canonicalize() is canon
        for _ in range(3):
            assert canon.is_hermitian() and canon.one_norm() == 2.5
        assert len(built) == 1

    def test_a_canonical_chain_never_canonicalizes_again(self, monkeypatch):
        op = build_tc_hamiltonian(TCModelConfig(6, 0.5))
        built = self._count_operators_built(monkeypatch)
        assert op.canonicalize() is op and op.is_hermitian() and op.one_norm() > 0
        assert built == []

    def test_a_dropped_operator_is_freed_without_the_cycle_collector(self):
        # the sweep drops each point's compiled operator after its run and
        # relies on reference counting alone to free it
        rng = np.random.default_rng(41)
        gc.disable()
        try:
            op = random_operator(rng, 6, 8, hermitian=True)
            canon = op.canonicalize()
            amps = random_state(rng, 6).amplitudes
            for o in (op, canon):
                assert o.is_hermitian() and o.one_norm() > 0
                o.matvec(amps)
                o.flip_span
            refs = [weakref.ref(op), weakref.ref(canon)]
            del op, canon, o
            assert [r() for r in refs] == [None, None]
        finally:
            gc.enable()


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
        out = Operator(3, (PauliString(3, 0, 0, 2.5j),)).matvec(v.amplitudes)
        assert np.max(np.abs(out - 2.5j * v.amplitudes)) < 1e-15

    @pytest.mark.parametrize("index", [-1, 8])
    def test_basis_index_must_fit(self, index):
        # a negative index would wrap around to the last basis state
        with pytest.raises(ValueError):
            StateVector.basis_state(3, index)


class TestDenseCap:
    def test_default_and_override(self, monkeypatch):
        monkeypatch.delenv("TCSPIN_DENSE_CAP", raising=False)
        assert dense_cap() == 14
        for raw, cap in (("0", 0), ("6", 6)):
            monkeypatch.setenv("TCSPIN_DENSE_CAP", raw)
            assert dense_cap() == cap

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5", ""])
    def test_malformed_value_is_a_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("TCSPIN_DENSE_CAP", raw)
        with pytest.raises(ConfigError, match="TCSPIN_DENSE_CAP"):
            dense_cap()
