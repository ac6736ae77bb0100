"""Shared test helpers: independent dense oracles, the extraction oracle,
the criterion-8 plan, random generators and the regression-fixture
comparator."""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: OpenBLAS threading changes result
# bits (see FIXTURE_ATOL). An explicit setting in the environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import json  # noqa: E402
import math  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from tcspin.dynamics import CorrelationSeries, OscillationReport, TimeGrid  # noqa: E402
from tcspin.models import TCModelConfig, add_perturbations, build_tc_hamiltonian  # noqa: E402
from tcspin.pauli import Operator, PauliString, StateVector  # noqa: E402
from tcspin.sweep import PerturbationFamily, SolverSettings, SweepPlan  # noqa: E402

from oracles import from_label_terms, letters  # noqa: E402

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
        for letter in letters(term):
            mat = np.kron(PAULI_MATRICES[letter], mat)
        total += term.coeff * mat
    return total


def kron_string(letters: str, coeff: complex = 1.0) -> np.ndarray:
    return kron_dense(from_label_terms([(coeff, letters)]))


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
    residuals and for the Lanczos route's full-space residuals."""
    out = np.empty(spectrum.n_pairs)
    for i, e in enumerate(spectrum.eigenvalues):
        v = spectrum.vector(i)
        out[i] = np.linalg.norm(op.matvec(v) - e * v)
    return out


def sweep_row_operator(row, specs) -> Operator:
    """The Hamiltonian of a sweep row and its perturbation specs, built as
    ``run_sweep`` builds it."""
    cfg = TCModelConfig(n_sites=row.n_sites, j_coupling=row.j_coupling, boundary=row.boundary)
    return add_perturbations(build_tc_hamiltonian(cfg), specs, row.boundary)


def criterion_8_plan() -> SweepPlan:
    """The criterion-8 stability study: N = 8, J = 1, Heisenberg strengths
    {0, 0.01, 0.05} and z-field strengths {0, 0.01, 0.05} x seeds 100..115,
    52 dense rows over 35 distinct Hamiltonians."""
    return SweepPlan(
        n_values=(8,),
        j_values=(1.0,),
        grid=TimeGrid(0.0, 120.0, 192),
        solver=SolverSettings(dense_max_sites=10, step_tol=1e-12),
        perturbations=(
            PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0, 0.01, 0.05)),
            PerturbationFamily(
                kind="random_onsite_field", strengths=(0.0, 0.01, 0.05), axis="z", seeds=tuple(range(100, 116))
            ),
        ),
    )


# the extraction's constants, as the oracle keeps them
MIN_SAMPLES = 16
_POWER_FLOOR = 1e-26


def _oracle_spectrum_objective(times: np.ndarray, moments: np.ndarray, resid: np.ndarray, omega: float):
    """|G|^2 and its first two derivatives, G(w) = sum_k resid_k e^{-i w t_k}.

    ``moments`` is the (3, n) matrix of rows 1, -i t and -t^2, so one
    product gives G and its first two derivatives.
    """
    g, g1, g2 = moments @ (resid * np.exp(-1j * omega * times))
    f1 = 2.0 * (np.conj(g) * g1).real
    f2 = 2.0 * (abs(g1) ** 2 + (np.conj(g) * g2).real)
    return g, f1, f2


def _oracle_refine_frequency(
    times: np.ndarray, moments: np.ndarray, resid: np.ndarray, omega0: float, half_width: float
) -> float:
    """Newton refinement of a spectral peak, clamped to +/- half_width."""
    omega = omega0
    for _ in range(60):
        _, f1, f2 = _oracle_spectrum_objective(times, moments, resid, omega)
        if f2 >= 0.0:
            break
        step = -f1 / f2
        if abs(step) > half_width:
            step = math.copysign(half_width, step)
        omega += step
        if abs(omega - omega0) > 2.0 * half_width:
            omega = omega0
            break
        if abs(step) < 1e-15 * max(1.0, abs(omega)):
            break
    return omega


def _oracle_coarse_peak(work: np.ndarray, dt: float, bin_width: float) -> float:
    """FFT peak location with quadratic interpolation over the peak bin."""
    n = len(work)
    f = np.fft.fft(work)
    freqs = 2.0 * math.pi * np.fft.fftfreq(n, d=dt)
    mags = np.abs(f)
    k = int(np.argmax(mags))
    y0, y1, y2 = mags[(k - 1) % n], mags[k], mags[(k + 1) % n]
    denom = y0 - 2.0 * y1 + y2
    delta = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
    delta = float(np.clip(delta, -0.5, 0.5))
    # model work(t) ~ A e^{+i w t}: the FFT convention puts that at +freqs[k]
    return float(freqs[k]) + delta * bin_width


def _oracle_joint_solve(
    times: np.ndarray, values: np.ndarray, omegas: list[float]
) -> tuple[complex, np.ndarray, np.ndarray]:
    """Least-squares dc + amplitudes for fixed frequencies; returns residual too."""
    design = np.column_stack(
        [np.ones_like(times, dtype=np.complex128)]
        + [np.exp(1j * w * times) for w in omegas]
    )
    solution, *_ = np.linalg.lstsq(design, values, rcond=None)
    resid = values - design @ solution
    return complex(solution[0]), solution[1:], resid


def oracle_extract_oscillation(series: CorrelationSeries, max_peaks: int = 8, taken: set | None = None) -> OscillationReport:
    """Dominant complex-exponential content of a correlation series.

    The oracle of :func:`tcspin.dynamics.extract_oscillation`: the matching
    pursuit as it was before the package's copy reused its exponentials,
    kept float operation for float operation. ``taken``, when given,
    collects "merge" and "floor" as the merge and amplitude-floor branches
    run; nothing else differs.

    Matching pursuit on the discrete spectrum: FFT peak location, quadratic
    interpolation, Newton refinement of each frequency, with the dc offset
    kept as a fixed zero-frequency column of a joint least-squares solve
    (subtracting the naive time average first would bias the frequencies on
    grids that do not cover an integer number of periods). Frequencies are
    folded to non-negative values, amplitudes reported as moduli.
    """
    n = series.grid.n_samples
    if n < MIN_SAMPLES:
        raise ValueError(f"need at least {MIN_SAMPLES} samples to analyze, got {n}")
    values = series.values
    times = series.grid.times()
    dc = complex(np.mean(values))
    scale = float(np.max(np.abs(values))) if len(values) else 0.0
    total_power = float(np.mean(np.abs(values - dc) ** 2))
    if scale == 0.0 or total_power <= (1e-13 * scale) ** 2:
        return OscillationReport(
            frequencies=np.array([]), amplitudes=np.array([]), dc_component=dc,
            residual_fraction=0.0,
        )

    dt = series.grid.spacing
    bin_width = 2.0 * math.pi / (n * dt)
    amp_floor = 1e-9 * scale
    omegas: list[float] = []
    amps = np.array([], dtype=np.complex128)
    moments = np.array([np.ones_like(times), -1j * times, -(times**2)])  # of _spectrum_objective
    work = values - dc
    for _ in range(max_peaks):
        if float(np.mean(np.abs(work) ** 2)) <= max(_POWER_FLOOR * total_power, (3e-10 * scale) ** 2):
            break
        omega0 = _oracle_coarse_peak(work, dt, bin_width)
        omegas.append(_oracle_refine_frequency(times, moments, work, omega0, bin_width))
        # cyclic re-refinement: Newton each frequency against the residual
        # plus its own component, re-solving dc and amplitudes jointly;
        # iterate until the fit stops improving (overlapping peaks converge
        # only linearly in each other's frequency error)
        dc, amps, work = _oracle_joint_solve(times, values, omegas)
        last_power = float(np.mean(np.abs(work) ** 2))
        for _ in range(24):
            for j in range(len(omegas)):
                partial = work + amps[j] * np.exp(1j * omegas[j] * times)
                omegas[j] = _oracle_refine_frequency(times, moments, partial, omegas[j], bin_width)
            dc, amps, work = _oracle_joint_solve(times, values, omegas)
            power_now = float(np.mean(np.abs(work) ** 2))
            if power_now >= 0.9 * last_power:
                break
            last_power = power_now
        # near-dc or duplicate frequencies make the design degenerate; merge
        kept: list[float] = []
        for w in omegas:
            if abs(w) < 1e-8:
                continue
            if any(abs(w - u) < 1e-9 * max(1.0, abs(w)) for u in kept):
                continue
            kept.append(w)
        if len(kept) != len(omegas):
            if taken is not None:
                taken.add("merge")
            omegas = kept
            if not omegas:
                dc, amps, work = complex(np.mean(values)), np.array([], dtype=np.complex128), values - np.mean(values)
                break
            dc, amps, work = _oracle_joint_solve(times, values, omegas)
        if abs(amps[-1]) < amp_floor:
            if taken is not None:
                taken.add("floor")
            omegas.pop()
            if omegas:
                dc, amps, work = _oracle_joint_solve(times, values, omegas)
            else:
                dc, amps, work = complex(np.mean(values)), np.array([], dtype=np.complex128), values - np.mean(values)
            break

    final_power = float(np.mean(np.abs(work) ** 2))
    residual_fraction = min(1.0, final_power / total_power) if total_power > 0 else 0.0
    folded = np.abs(np.array(omegas))
    moduli = np.abs(np.array(amps))
    order = np.argsort(-moduli) if len(moduli) else np.array([], dtype=int)
    return OscillationReport(
        frequencies=folded[order],
        amplitudes=moduli[order],
        dc_component=dc,
        residual_fraction=residual_fraction,
    )


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
