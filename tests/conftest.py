"""Shared test helpers: independent dense oracles, random generators and the
regression-fixture comparator."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: OpenBLAS threading changes result
# bits (see FIXTURE_ATOL). An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tcspin.models import TCModelConfig  # noqa: E402
from tcspin.pauli import Operator, PauliString, StateVector  # noqa: E402

FIXTURE_DIR = Path(__file__).parent / "fixtures"

# Independent of the package's mask-based dense builder: explicit 2x2
# matrices combined with np.kron, site 1 on the least significant index.
PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def kron_dense(op: Operator) -> np.ndarray:
    dim = 1 << op.n_sites
    total = np.zeros((dim, dim), dtype=complex)
    for term in op.terms:
        mat = np.array([[1.0]], dtype=complex)
        for letter in term.letters():
            mat = np.kron(PAULI_MATRICES[letter], mat)
        total += term.coeff * mat
    return total


def kron_string(letters: str, coeff: complex = 1.0) -> np.ndarray:
    return kron_dense(Operator.from_label_terms([(coeff, letters)]))


def orbit_block_spectrum(cfg: TCModelConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact eigenpairs of the unperturbed chain, one 4x4 block per orbit.

    ZZ is diagonal, and the X strings on sites 1..h and h+1..N flip the bit
    masks m1 and m2, so every orbit {s, s^m1, s^m2, s^all} is invariant
    under H(J). Representatives s have bits 0 and h clear. Indices are
    uint32 and domain-wall counts uint8; nothing of shape (2^N, N) is built.

    Returns the orbits (R, 4) as basis indices, the block eigenvalues (R, 4)
    and the block eigenvectors (R, 4, 4), one per column, in orbit order.
    """
    n, h = cfg.n_sites, cfg.half_split
    m1, full = (1 << h) - 1, (1 << n) - 1
    low = np.arange(1 << (n - 2), dtype=np.uint32) << 1
    reps = ((low >> h) << (h + 1)) | (low & m1)
    orbits = np.stack([reps, reps ^ m1, reps ^ (full ^ m1), reps ^ full], axis=1)
    if cfg.boundary == "periodic":
        walls, bonds = np.bitwise_count(orbits ^ ((orbits >> 1) | ((orbits & 1) << (n - 1)))), n
    else:
        walls, bonds = np.bitwise_count((orbits ^ (orbits >> 1)) & (full >> 1)), n - 1
    j = float(cfg.j_coupling)
    blocks = np.zeros((len(reps), 4, 4))
    blocks[:, range(4), range(4)] = 2.0 * walls - bonds  # -(aligned bonds) + walls
    # +J X_1..X_h couples s <-> s^m1; -J X_{h+1}..X_N couples s <-> s^m2
    for a, b, c in ((0, 1, j), (2, 3, j), (0, 2, -j), (1, 3, -j)):
        blocks[:, a, b] = blocks[:, b, a] = c
    energies, vectors = np.linalg.eigh(blocks)
    return orbits, energies, vectors


def dense_vectors(spec) -> np.ndarray:
    """Every eigenvector of a SpectrumResult scattered into one (n_pairs, 2^N)
    array, row i eigenvector i, in the dtype of its block coefficients."""
    return np.array([spec.vector(i) for i in range(spec.n_pairs)])


def matvec_residuals(op: Operator, spectrum) -> np.ndarray:
    """||H v_i - E_i v_i|| of every pair of a SpectrumResult, one full-space
    matvec per scattered eigenvector: the oracle for the dense route's block
    residuals and for the Lanczos route's accepting checks."""
    out = np.empty(spectrum.n_pairs)
    for i, e in enumerate(spectrum.eigenvalues):
        v = spectrum.vector(i)
        out[i] = np.linalg.norm(op.matvec(v) - e * v)
    return out


def random_operator(
    rng: np.random.Generator,
    n_sites: int,
    n_terms: int,
    hermitian: bool = True,
    x_basis: tuple[int, ...] | None = None,
) -> Operator:
    """Random Pauli strings; with ``x_basis`` every x_mask is a random XOR of
    those masks, so the flip masks span at most their GF(2) rank."""
    terms = []
    for _ in range(n_terms):
        if x_basis is None:
            x = int(rng.integers(0, 1 << n_sites))
        else:
            x = 0
            for mask, pick in zip(x_basis, rng.integers(0, 2, len(x_basis))):
                x ^= mask if pick else 0
        z = int(rng.integers(0, 1 << n_sites))
        if hermitian:
            coeff = complex(rng.standard_normal())
        else:
            coeff = complex(rng.standard_normal(), rng.standard_normal())
        terms.append(PauliString(n_sites, x, z, coeff))
    return Operator(n_sites, tuple(terms))


def random_state(rng: np.random.Generator, n_sites: int) -> StateVector:
    dim = 1 << n_sites
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return StateVector(n_sites, amps / np.linalg.norm(amps))


# Absolute tolerance for floats in regression fixtures. Neither numpy nor
# tcspin promises bit-identical floats across LAPACK builds or BLAS thread
# counts. Against the committed fixtures, numpy 2.4.6 on OpenBLAS 0.3.31
# deviates by at most 1.07e-14 with 2 threads and 1.2e-15 with 1 thread, so
# 1e-12 leaves about 100x headroom. It is absolute because stability shifts
# near 2e-5 deviate by up to 9e-11 relative.
FIXTURE_ATOL = 1e-12


def load_fixture(name: str) -> str:
    """Text of a committed regression fixture; a missing file fails the test."""
    path = FIXTURE_DIR / name
    if not path.is_file():
        pytest.fail(f"regression fixture {path} is missing")
    return path.read_text()


def first_mismatch(stored_text: str, payload_text: str) -> str | None:
    """Compare two JSON documents; None if they agree, else the first difference.

    Structure, keys, lengths, types, integers, strings, booleans and nulls must
    be equal; floats must agree within ``FIXTURE_ATOL`` absolute, and NaN never
    agrees.
    """
    return _mismatch(json.loads(stored_text), json.loads(payload_text), "$")


def _mismatch(stored, new, path: str) -> str | None:
    if type(stored) is not type(new):
        return f"at {path}: stored {stored!r} ({type(stored).__name__}), new {new!r} ({type(new).__name__})"
    if isinstance(stored, dict):
        if sorted(stored) != sorted(new):
            return f"at {path}: stored keys {sorted(stored)}, new keys {sorted(new)}"
        children = [(f"{path}.{key}", stored[key], new[key]) for key in sorted(stored)]
    elif isinstance(stored, list):
        if len(stored) != len(new):
            return f"at {path}: stored length {len(stored)}, new length {len(new)}"
        children = [(f"{path}[{i}]", a, b) for i, (a, b) in enumerate(zip(stored, new))]
    elif isinstance(stored, float):
        deviation = abs(stored - new)
        if deviation <= FIXTURE_ATOL:
            return None
        return f"at {path}: stored {stored!r}, new {new!r}, deviation {deviation:.3e} > {FIXTURE_ATOL:.0e}"
    else:
        return None if stored == new else f"at {path}: stored {stored!r}, new {new!r}"
    found = (_mismatch(a, b, child) for child, a, b in children)
    return next((m for m in found if m is not None), None)
