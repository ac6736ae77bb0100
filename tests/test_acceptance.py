"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
Tolerances and runtime limits are fixed here, not calibrated afterwards.

Criteria 6 and 8 compare their payloads with committed regression fixtures in
``tests/fixtures/`` via ``conftest.first_mismatch``: structure, integers and
strings must be equal, floats must agree within ``FIXTURE_ATOL`` (1e-12
absolute). A failure names the first differing path, the stored and new
values and the deviation. Reruns within one process (criteria 7 and 8) must
stay byte-identical.
"""

import json
import time

import numpy as np
import scipy.linalg

from tcspin.dynamics import (
    TimeGrid,
    correlator_krylov,
    correlator_spectral,
    evolve,
    extract_oscillation,
    gap_frequency_consistency,
)
from tcspin.models import (
    PerturbationSpec,
    TCModelConfig,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from tcspin.oscillator import OscillatorControl, baseline_scaling, cm_correlator_numeric
from tcspin.pauli import Operator, PauliString, global_flip_operator, to_dense
from tcspin.spectra import dense_spectrum, ghz_overlap_report, lanczos_extremal
from tcspin.sweep import (
    PerturbationFamily,
    SolverSettings,
    SweepPlan,
    fit_power_law,
    records_to_csv,
    run_sweep,
    stability_report,
    summarize_sweep,
)

from conftest import first_mismatch, kron_dense, load_fixture, random_operator, random_state


def _finish(number: int, name: str, limit_s: float, started: float, failures: list[str]) -> None:
    elapsed = time.perf_counter() - started
    if elapsed > limit_s:
        failures.append(f"runtime {elapsed:.1f}s exceeds {limit_s:.0f}s")
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} [{name}]: {verdict} ({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_1_oscillator_baseline():
    started = time.perf_counter()
    failures = []
    grid = TimeGrid(0.0, 50.0, 1024)
    for n in (1, 7, 100):
        for cutoff in (2, 5):
            control = OscillatorControl((n,), cutoff=cutoff)
            expected = control.amplitude(n) * np.exp(-1j * control.omega * grid.times())
            numeric = cm_correlator_numeric(control, n, grid)
            diff = float(np.max(np.abs(numeric.values - expected)))
            if diff > 1e-12:
                failures.append(f"N={n} cutoff={cutoff}: formula deviation {diff:.2e}")
    table = baseline_scaling(OscillatorControl((1, 2, 4, 8, 16, 32, 64, 128)))
    exponent, _, _ = fit_power_law([(float(n), a) for n, a in table])
    if abs(exponent + 1.0) > 1e-10:
        failures.append(f"scaling exponent {exponent} not -1 within 1e-10")
    _finish(1, "oscillator baseline", 1.0, started, failures)


def test_criterion_2_pauli_oracle_equivalence():
    started = time.perf_counter()
    failures = []
    for n in range(2, 9):
        rng = np.random.default_rng(1000 + n)
        worst = 0.0
        for _ in range(100):
            op = random_operator(rng, n, 8, hermitian=False)
            v = random_state(rng, n)
            diff = float(np.max(np.abs(op.matvec(v.amplitudes) - to_dense(op) @ v.amplitudes)))
            worst = max(worst, diff)
        if worst > 1e-12:
            failures.append(f"N={n}: matrix-free vs dense max diff {worst:.2e}")
    from tcspin.pauli import strings_commute

    n = 3
    strings = [PauliString(n, x, z, 1.0) for x in range(8) for z in range(8)]
    dense = {(s.x_mask, s.z_mask): kron_dense(Operator(n, (s,))) for s in strings}
    for a in strings:
        ma = dense[(a.x_mask, a.z_mask)]
        for b in strings:
            mb = dense[(b.x_mask, b.z_mask)]
            dense_commutes = bool(np.linalg.norm(ma @ mb - mb @ ma) < 1e-12)
            if strings_commute(a, b) != dense_commutes:
                failures.append(f"symplectic mismatch at {a.letters()} vs {b.letters()}")
    _finish(2, "pauli algebra oracle", 120.0, started, failures)


def test_criterion_3_symmetry_suite():
    started = time.perf_counter()
    failures = []
    for n in range(4, 11):
        p = to_dense(global_flip_operator(n))
        for j in (0.0, 0.5, 2.0):
            h = to_dense(build_tc_hamiltonian(TCModelConfig(n, j)))
            norm = float(np.linalg.norm(h @ p - p @ h, ord="fro"))
            if norm >= 1e-12:
                failures.append(f"[H({j}), flip] at N={n}: {norm:.2e}")
    for n in range(4, 9):
        for j in (0.5, 2.0):
            plus = np.sort(np.linalg.eigvalsh(to_dense(build_tc_hamiltonian(TCModelConfig(n, j)))))
            minus = np.sort(np.linalg.eigvalsh(to_dense(build_tc_hamiltonian(TCModelConfig(n, -j)))))
            diff = float(np.max(np.abs(plus - minus)))
            if diff > 1e-10:
                failures.append(f"spectrum H({j}) vs H({-j}) at N={n}: {diff:.2e}")
    # the dependent sector test is enabled only after the brute-force
    # annihilation check passes
    annihilation_ok = True
    for n in (4, 6):
        h = n // 2
        first = (1 << h) - 1
        second = ((1 << n) - 1) ^ first
        s = to_dense(Operator(n, (PauliString(n, first, 0, 1.0), PauliString(n, second, 0, -1.0))))
        p_even = (np.eye(1 << n) + to_dense(global_flip_operator(n))) / 2.0
        norm = float(np.linalg.norm(s @ p_even))
        if norm >= 1e-12:
            annihilation_ok = False
            failures.append(f"string difference does not annihilate even sector at N={n}: {norm:.2e}")
    if annihilation_ok:
        for n in (4, 6):
            flip = to_dense(global_flip_operator(n))
            evals, evecs = np.linalg.eigh(flip)
            basis = evecs[:, np.isclose(evals, 1.0)]
            restricted = []
            for j in (0.0, 0.7):
                mat = to_dense(build_tc_hamiltonian(TCModelConfig(n, j)))
                restricted.append(np.sort(np.linalg.eigvalsh(basis.conj().T @ mat @ basis)))
            diff = float(np.max(np.abs(restricted[0] - restricted[1])))
            if diff > 1e-10:
                failures.append(f"even sector depends on J at N={n}: {diff:.2e}")
    _finish(3, "symmetry suite", 300.0, started, failures)


def test_criterion_4_solver_cross_validation():
    started = time.perf_counter()
    failures = []
    for n in range(4, 11):
        for j in (0.0, 0.3, 1.0, 3.0):
            op = build_tc_hamiltonian(TCModelConfig(n, j))
            dense = dense_spectrum(op)
            lan = lanczos_extremal(op, k=4, tol=1e-10, seed=17)
            if lan.n_converged < 4:
                failures.append(f"Lanczos N={n} J={j}: only {lan.n_converged} converged")
                continue
            diff = float(np.max(np.abs(lan.eigenvalues - dense.eigenvalues[:4])))
            if diff > 1e-10:
                failures.append(f"Lanczos N={n} J={j}: eigenvalue diff {diff:.2e}")
    for n, t in ((6, 5.0), (10, 5.0)):
        op = build_tc_hamiltonian(TCModelConfig(n, 1.0))
        v = random_state(np.random.default_rng(50 + n), n)
        krylov = evolve(op, v, t, step_tol=1e-12)
        exact = scipy.linalg.expm(-1j * t * to_dense(op)) @ v.amplitudes
        diff = float(np.max(np.abs(krylov.amplitudes - exact)))
        if diff > 1e-8:
            failures.append(f"evolve N={n}: vs expm diff {diff:.2e}")
    _finish(4, "solver cross-validation", 600.0, started, failures)


FOLDED_PERTURBATIONS = {
    "heisenberg 0.05": PerturbationSpec("heisenberg_exchange", 0.05),
    "x field 0.05": PerturbationSpec("random_onsite_field", 0.05, axis="x", seed=3),
}


def test_criterion_5_dynamics_consistency():
    started = time.perf_counter()
    failures = []
    for n in (8, 10):
        op = build_tc_hamiltonian(TCModelConfig(n, 0.5))
        spec = dense_spectrum(op)
        psi = spec.state(0).normalized()
        m = magnetization_operator(n, "z")
        grid = TimeGrid(0.0, 120.0, 128)
        spectral = correlator_spectral(op, spec, m, psi, grid)
        krylov = correlator_krylov(
            op, m, psi, float(spec.eigenvalues[0]), grid, step_tol=1e-12
        )
        diff = float(np.max(np.abs(spectral.values - krylov.values)))
        if diff > 1e-8:
            failures.append(f"N={n}: spectral vs krylov {diff:.2e}")
        # the perturbed chains whose Krylov correlator folds the global flip
        for name, pert in FOLDED_PERTURBATIONS.items():
            chain = (op + build_perturbation(n, pert)).canonicalize()
            chain_spec = dense_spectrum(chain)
            ground = chain_spec.state(0).normalized()
            chain_spectral = correlator_spectral(chain, chain_spec, m, ground, grid)
            chain_krylov = correlator_krylov(
                chain, m, ground, float(chain_spec.eigenvalues[0]), grid, step_tol=1e-12
            )
            diff = float(np.max(np.abs(chain_spectral.values - chain_krylov.values)))
            if diff > 1e-8:
                failures.append(f"N={n} {name}: spectral vs krylov {diff:.2e}")
        static = complex(np.vdot(psi.amplitudes, m.matvec(m.matvec(psi.amplitudes))))
        if abs(spectral.values[0] - static) > 1e-10:
            failures.append(f"N={n}: C(0) mismatch {abs(spectral.values[0]-static):.2e}")
        state = psi
        drift = 0.0
        for _ in range(32):
            state = evolve(op, state, grid.spacing, step_tol=1e-12)
            drift = max(drift, abs(state.norm - 1.0))
        if drift > 1e-10:
            failures.append(f"N={n}: unitarity drift {drift:.2e}")
        long_grid = TimeGrid(0.0, 300.0, 1024)
        report = extract_oscillation(correlator_spectral(op, spec, m, psi, long_grid), 8)
        if report.n_peaks == 0:
            failures.append(f"N={n}: no oscillation peaks found")
        if not gap_frequency_consistency(spec, report, tol=1e-6):
            failures.append(f"N={n}: an extracted peak matches no spectral gap at 1e-6")
    _finish(5, "dynamics consistency", 600.0, started, failures)


def test_criterion_6_ghz_diagnostics():
    started = time.perf_counter()
    failures = []
    for n in range(4, 11):
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(n, 0.0)))
        rep = ghz_overlap_report(spec, n)
        ground = rep.clusters[0]
        if len(ground) != 2:
            failures.append(f"N={n}: ground cluster size {len(ground)} != 2")
            continue
        overlap_plus, overlap_minus = rep.overlap_plus[ground[0]], rep.overlap_minus[ground[0]]
        if abs(overlap_plus - 1.0) > 1e-10 or abs(overlap_minus - 1.0) > 1e-10:
            failures.append(
                f"N={n}: ground-cluster overlaps ({overlap_plus}, {overlap_minus})"
            )
    for j in (0.3, 1.0):
        op = build_tc_hamiltonian(TCModelConfig(8, j))
        spec = dense_spectrum(op)
        rep = ghz_overlap_report(spec, 8)
        scale = op.one_norm()
        if rep.ghz_gap <= 1e-12 * scale:
            failures.append(f"J={j}: best GHZ pair degenerate (gap {rep.ghz_gap:.2e})")
        if rep.best_plus_index == rep.best_minus_index:
            failures.append(f"J={j}: best plus and minus map to the same state")
        payload = json.dumps(
            {
                "ghz_gap": rep.ghz_gap,
                "best_plus_index": rep.best_plus_index,
                "best_minus_index": rep.best_minus_index,
                "entries": [
                    [i, float(e), float(p), float(m)]
                    for i, (e, p, m) in enumerate(zip(rep.energies, rep.overlap_plus, rep.overlap_minus))
                ],
            },
            sort_keys=True,
        )
        mismatch = first_mismatch(load_fixture(f"ghz_n8_j{j}.json"), payload)
        if mismatch is not None:
            failures.append(f"J={j}: GHZ report differs from its fixture {mismatch}")
    _finish(6, "GHZ diagnostics", 300.0, started, failures)


def _chain_line(j: float) -> tuple[float, float]:
    """Frequency and amplitude of the bare chain's one m_z line at coupling J.

    For even N the ground-state m_z autocorrelator stays in the 4-state
    orbit of the all-up state, {s, s^m1, s^m2, s^all} with m1, m2 the two
    half-chain string masks, so it is one line whose frequency and
    amplitude do not depend on N.
    """
    root = np.sqrt(1.0 + j**2)
    return 2.0 * root - 2.0, (1.0 + 1.0 / root) / 2.0


def test_criterion_7_persistence_vs_baseline():
    started = time.perf_counter()
    failures = []
    plan = SweepPlan(
        n_values=(6, 8, 10, 12, 14),
        j_values=(0.5,),
        grid=TimeGrid(0.0, 240.0, 512),
        solver=SolverSettings(
            dense_max_sites=10, lanczos_k=2, lanczos_tol=1e-10, krylov_dim=30, step_tol=1e-12
        ),
        oscillator_control=OscillatorControl(n_values=(6, 8, 10, 12, 14)),
    )
    line_frequency, line_amplitude = _chain_line(plan.j_values[0])
    records = run_sweep(plan)
    for rec in records:
        if rec.status != "ok":
            failures.append(f"row N={rec.n_sites} failed: {rec.error}")
        elif rec.dominant_amplitude is None or rec.dominant_amplitude <= 0:
            failures.append(f"row N={rec.n_sites}: no oscillation amplitude measured")
        else:
            for name, value, exact in (
                ("frequency", rec.dominant_frequency, line_frequency),
                ("amplitude", rec.dominant_amplitude, line_amplitude),
            ):
                if abs(value - exact) > 1e-10:
                    failures.append(
                        f"row N={rec.n_sites} ({rec.solver}): dominant {name} {value!r} "
                        f"not {exact!r} within 1e-10"
                    )
    amplitudes = {rec.n_sites: rec.dominant_amplitude for rec in records if rec.status == "ok"}
    print(f"  chain amplitude(N): { {n: round(a, 6) for n, a in amplitudes.items()} }")
    summary = summarize_sweep(plan, records)
    exponent = summary["oscillator_control"]["fit"]["exponent"]
    print(f"  oscillator control exponent: {exponent}")
    if abs(exponent + 1.0) > 1e-10:
        failures.append(f"oscillator control exponent {exponent} not -1 within 1e-10")
    rerun = run_sweep(plan)
    if records_to_csv(records) != records_to_csv(rerun):
        failures.append("sweep CSV not byte-deterministic across reruns")
    if json.dumps(summary, sort_keys=True) != json.dumps(summarize_sweep(plan, rerun), sort_keys=True):
        failures.append("sweep summary not byte-deterministic across reruns")
    _finish(7, "persistence vs baseline", 1800.0, started, failures)


def test_criterion_7_on_the_exact_block_route():
    """Criterion 7's N = 12 and 14 rows at the default dense cap: the block
    route's spectrum and spectral correlator find the same closed-form line
    as the Lanczos rows."""
    started = time.perf_counter()
    failures = []
    plan = SweepPlan(
        n_values=(12, 14),
        j_values=(0.5,),
        grid=TimeGrid(0.0, 240.0, 512),
        solver=SolverSettings(dense_max_sites=14, step_tol=1e-12),
    )
    line_frequency, line_amplitude = _chain_line(plan.j_values[0])
    for rec in run_sweep(plan):
        if rec.status != "ok" or rec.solver != "dense":
            failures.append(f"row N={rec.n_sites}: status {rec.status}, solver {rec.solver}: {rec.error}")
            continue
        for name, value, exact in (
            ("frequency", rec.dominant_frequency, line_frequency),
            ("amplitude", rec.dominant_amplitude, line_amplitude),
        ):
            if value is None or abs(value - exact) > 1e-10:
                failures.append(f"row N={rec.n_sites}: dominant {name} {value!r} not {exact!r} within 1e-10")
    _finish(7, "persistence on the exact block route", 60.0, started, failures)


def test_criterion_8_stability_study():
    started = time.perf_counter()
    failures = []
    seeds = tuple(range(100, 116))  # 16 fixed seeds
    plan = SweepPlan(
        n_values=(8,),
        j_values=(1.0,),
        grid=TimeGrid(0.0, 120.0, 192),
        solver=SolverSettings(dense_max_sites=10, step_tol=1e-12),
        perturbations=(
            PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0, 0.01, 0.05)),
            PerturbationFamily(
                kind="random_onsite_field", strengths=(0.0, 0.01, 0.05), axis="z", seeds=seeds
            ),
        ),
    )
    records = run_sweep(plan)
    rows = stability_report(records=records)
    for row in rows:
        if row.pert_strength == 0.0 and row.statistic in ("row", "mean"):
            values = (
                row.rel_frequency_shift,
                row.rel_amplitude_shift,
                row.ground_gap_shift,
                row.ghz_overlap_retention - 1.0,
            )
            if any(v != 0.0 for v in values):
                failures.append(
                    f"zero-strength {row.pert_kind} (seed {row.pert_seed}) has nonzero shifts {values}"
                )
    payload = json.dumps(
        [
            [
                r.n_sites,
                r.j_coupling,
                r.pert_kind,
                r.pert_strength,
                -1 if r.pert_seed is None else r.pert_seed,
                r.statistic,
                r.rel_frequency_shift,
                r.rel_amplitude_shift,
                r.ghz_overlap_retention,
                r.ground_gap_shift,
            ]
            for r in rows
        ],
        sort_keys=True,
    )
    mismatch = first_mismatch(load_fixture("stability_n8_j1.json"), payload)
    if mismatch is not None:
        failures.append(f"stability table differs from its fixture {mismatch}")
    rows_again = stability_report(records=run_sweep(plan))
    means = [r for r in rows if r.statistic in ("mean", "std")]
    means_again = [r for r in rows_again if r.statistic in ("mean", "std")]
    if [(r.rel_frequency_shift, r.rel_amplitude_shift) for r in means] != [
        (r.rel_frequency_shift, r.rel_amplitude_shift) for r in means_again
    ]:
        failures.append("disorder means/spreads not bit-identical across reruns")
    _finish(8, "stability study", 1800.0, started, failures)
