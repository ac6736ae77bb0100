"""Sweep harness: determinism, dense-oracle agreement, stability normalization."""

import json
import math

import numpy as np
import pytest

from tcspin.dynamics import TimeGrid
from tcspin.errors import PlanError, TcspinError
from tcspin.models import PerturbationSpec, TCModelConfig, build_tc_hamiltonian, magnetization_operator
from tcspin.spectra import dense_spectrum
from tcspin.oscillator import OscillatorControl
from tcspin.sweep import (
    PerturbationFamily,
    SolverSettings,
    SweepPlan,
    fit_power_law,
    oscillator_control_table,
    records_to_csv,
    run_point,
    run_sweep,
    stability_report,
    summarize_sweep,
)

from conftest import criterion_8_plan, sweep_row_operator
from oracles import from_label_terms

GRID = TimeGrid(0.0, 150.0, 192)


def small_plan(**overrides) -> SweepPlan:
    kwargs = dict(n_values=(6,), j_values=(0.5,), grid=GRID)
    kwargs.update(overrides)
    return SweepPlan(**kwargs)


class TestPlanValidation:
    def test_empty_grids_rejected(self):
        with pytest.raises(PlanError):
            small_plan(n_values=())
        with pytest.raises(PlanError):
            small_plan(j_values=())

    def test_duplicate_rows_rejected(self):
        with pytest.raises(PlanError):
            small_plan(n_values=(6, 6))
        with pytest.raises(PlanError):
            small_plan(j_values=(0.5, 0.5))

    def test_small_chain_rejected(self):
        with pytest.raises(PlanError):
            small_plan(n_values=(3,))

    def test_duplicate_strengths_and_seeds_rejected(self):
        with pytest.raises(PlanError):
            small_plan(
                perturbations=(
                    PerturbationFamily(kind="heisenberg_exchange", strengths=(0.1, 0.1)),
                )
            )
        with pytest.raises(PlanError):
            small_plan(
                perturbations=(
                    PerturbationFamily(
                        kind="random_onsite_field", strengths=(0.1,), seeds=(1, 1)
                    ),
                )
            )

    @pytest.mark.parametrize(
        "keys", [{"seeds": (1, 2)}, {"seeds": (5,)}, {"axis": "y"}, {"distribution": "gaussian_unit"}],
        ids=["seeds", "one_seed", "axis", "distribution"],
    )
    def test_exchange_family_rejects_the_keys_it_ignores(self, keys):
        """An exchange family runs one row per strength with no axis,
        distribution or seed, so setting one is a plan error, not a no-op."""
        with pytest.raises(PlanError, match=next(iter(keys))):
            PerturbationFamily(kind="heisenberg_exchange", strengths=(0.1,), **keys)
        PerturbationFamily(kind="random_onsite_field", strengths=(0.1,), **keys)

    def test_dense_routing_beyond_cap_rejected(self, monkeypatch):
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "8")
        with pytest.raises(PlanError):
            small_plan(n_values=(10,), solver=SolverSettings(dense_max_sites=10))


class TestRunSweep:
    def test_single_row_against_dense_oracle(self):
        records = run_sweep(small_plan())
        assert len(records) == 1
        row = records[0]
        assert row.status == "ok"
        spec = dense_spectrum(build_tc_hamiltonian(TCModelConfig(6, 0.5)))
        assert row.ground_energy == pytest.approx(float(spec.eigenvalues[0]), abs=1e-10)
        assert row.energy_gap == pytest.approx(
            float(spec.eigenvalues[1] - spec.eigenvalues[0]), abs=1e-10
        )
        # for the ground-state z correlator the dominant frequency is the
        # splitting of the GHZ-like pair
        assert row.dominant_frequency == pytest.approx(row.ghz_gap, abs=1e-6)
        assert row.gap_consistent is True

    def test_baseline_row_has_empty_perturbation_columns(self):
        row = run_sweep(small_plan())[0]
        assert row.pert_kind == "none"
        assert row.pert_strength == 0.0
        assert row.pert_axis == "" and row.pert_distribution == ""
        assert row.pert_seed is None
        assert row.dominant_amplitude is not None

    def test_rerun_is_byte_identical(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(
                    kind="random_onsite_field", strengths=(0.02,), seeds=(5, 6)
                ),
            )
        )
        a = records_to_csv(run_sweep(plan))
        b = records_to_csv(run_sweep(plan))
        assert a == b

    def test_worker_pool_does_not_change_output(self):
        plan = small_plan(n_values=(4, 6))
        serial = records_to_csv(run_sweep(plan, workers=1))
        pooled = records_to_csv(run_sweep(plan, workers=3))
        assert serial == pooled

    def test_iterative_route_matches_dense_route(self):
        dense_rows = run_sweep(small_plan())
        iter_rows = run_sweep(
            small_plan(solver=SolverSettings(dense_max_sites=4, lanczos_k=2, step_tol=1e-12))
        )
        assert iter_rows[0].solver == "lanczos"
        assert iter_rows[0].ground_energy == pytest.approx(dense_rows[0].ground_energy, abs=1e-9)
        assert iter_rows[0].dominant_frequency == pytest.approx(
            dense_rows[0].dominant_frequency, abs=1e-6
        )
        assert iter_rows[0].dominant_amplitude == pytest.approx(
            dense_rows[0].dominant_amplitude, abs=1e-6
        )

    def test_ghz_pair_initial_state_runs(self):
        rows = run_sweep(small_plan(initial_state="ghz_pair"))
        assert rows[0].status == "ok"
        assert rows[0].dominant_amplitude is not None

    def test_dense_row_diagonalizes_once(self, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            calls.append(mat.shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        (row,) = run_sweep(small_plan())
        assert row.status == "ok" and row.solver == "dense"
        # one batched eigh over the invariant blocks, which cover all 2^6 rows
        ((n_blocks, rows, cols),) = calls
        assert rows == cols and n_blocks * rows == 64

    def test_gap_check_only_on_ground_state_rows(self):
        # the E_n - E_0 gaps are the Lehmann frequencies of the ground state
        # alone, so a GHZ-pair row reports no gap check even on the dense route
        ground = run_sweep(small_plan(n_values=(4, 6), solver=SolverSettings(dense_max_sites=4)))
        assert [r.solver for r in ground] == ["dense", "lanczos"]
        assert ground[0].gap_consistent is True
        assert ground[1].gap_consistent is None
        ghz = run_sweep(small_plan(n_values=(4, 6), initial_state="ghz_pair", solver=SolverSettings(dense_max_sites=4)))
        assert [r.status for r in ghz] == ["ok", "ok"]
        assert [r.gap_consistent for r in ghz] == [None, None]

    def test_unconverged_lanczos_fails_the_row(self):
        solver = SolverSettings(dense_max_sites=4, lanczos_k=4, lanczos_max_iter=8)
        rows = run_sweep(small_plan(n_values=(4, 6), solver=solver))
        assert rows[0].status == "ok"
        assert rows[1].status == "failed"
        assert rows[1].error.startswith("TcspinError: Lanczos converged")


    def test_all_rows_failing_raises(self, monkeypatch):
        import tcspin.sweep as sweep_mod

        def boom(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(sweep_mod, "build_tc_hamiltonian", boom)
        with pytest.raises(TcspinError):
            run_sweep(small_plan())

    def test_partial_failure_is_recorded_in_row(self, monkeypatch):
        import tcspin.sweep as sweep_mod

        real = sweep_mod.build_tc_hamiltonian

        def sometimes(cfg):
            if cfg.n_sites == 4:
                raise RuntimeError("forced failure")
            return real(cfg)

        monkeypatch.setattr(sweep_mod, "build_tc_hamiltonian", sometimes)
        rows = run_sweep(small_plan(n_values=(4, 6)))
        by_n = {r.n_sites: r for r in rows}
        assert by_n[4].status == "failed"
        assert "forced failure" in by_n[4].error
        assert by_n[6].status == "ok"


class TestDistinctPoints:
    """Rows with the same canonical Hamiltonian, axis, initial state and route
    run the pipeline once: the bare row, Heisenberg 0.0 and field 0.0 at every
    seed all build the bare chain."""

    PLAN = small_plan(
        perturbations=(
            PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0,)),
            PerturbationFamily(kind="random_onsite_field", strengths=(0.0, 0.05), seeds=(3, 4, 5)),
        )
    )
    BARE = build_tc_hamiltonian(TCModelConfig(6, 0.5))

    def _spy(self, monkeypatch, fail_on=None):
        import tcspin.sweep as sweep_mod

        ops = []
        real = sweep_mod.run_point

        def spying(op, *args):
            ops.append(op)
            if op == fail_on:
                raise RuntimeError("forced point failure")
            return real(op, *args)

        monkeypatch.setattr(sweep_mod, "run_point", spying)
        return ops

    def test_each_distinct_point_runs_once(self, monkeypatch):
        ops = self._spy(monkeypatch)
        records = run_sweep(self.PLAN)
        assert len(records) == 8  # bare, Heisenberg 0.0, field 0.0 x 3, field 0.05 x 3
        assert len(ops) == 4 and len(set(ops)) == 4
        assert ops[0] == self.BARE
        assert all(r.status == "ok" for r in records)

    def test_records_equal_rows_run_alone(self):
        import tcspin.sweep as sweep_mod

        alone = sweep_mod._enumerate_points(self.PLAN)
        for row, specs in alone:  # each with its own observable, where the sweep shares one
            observable = magnetization_operator(row.n_sites, row.axis)
            sweep_mod._run_rows(sweep_row_operator(row, specs), [row], observable, self.PLAN)
        assert records_to_csv(run_sweep(self.PLAN)) == records_to_csv([row for row, _ in alone])

    def test_rows_carry_the_specs_their_cells_name(self):
        import tcspin.sweep as sweep_mod

        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0, 0.02)),
                PerturbationFamily(
                    kind="random_onsite_field", strengths=(0.01, 0.05), axis="x",
                    distribution="gaussian_unit", seeds=(0, 3),
                ),
            )
        )
        rows = sweep_mod._enumerate_points(plan)
        assert [len(specs) for _, specs in rows] == [0] + [1] * 6
        for row, specs in rows[1:]:
            # the spec as the row's CSV cells spell it, with the spec's defaults for empty cells
            cells = PerturbationSpec(
                row.pert_kind, row.pert_strength, row.pert_axis or "z",
                row.pert_seed or 0, row.pert_distribution or "uniform_pm1",
            )
            assert specs == (cells,)
            assert sweep_row_operator(row, specs) == sweep_row_operator(row, (cells,))

    def test_worker_pool_maps_over_points(self):
        serial = records_to_csv(run_sweep(self.PLAN, workers=1))
        assert records_to_csv(run_sweep(self.PLAN, workers=2)) == serial

    def test_failing_point_fails_all_its_rows(self, monkeypatch):
        self._spy(monkeypatch, fail_on=self.BARE)
        records = run_sweep(self.PLAN)
        failed = [r for r in records if r.status == "failed"]
        assert [(r.pert_kind, r.pert_strength) for r in failed] == [
            ("none", 0.0), ("heisenberg_exchange", 0.0),
            ("random_onsite_field", 0.0), ("random_onsite_field", 0.0), ("random_onsite_field", 0.0),
        ]
        assert {r.error for r in failed} == {"RuntimeError: forced point failure"}
        assert all(r.ground_energy is None for r in failed)
        ok = [r for r in records if r.status == "ok"]
        assert [r.pert_strength for r in ok] == [0.05] * 3

    def test_compiled_operator_dropped_after_its_point(self, monkeypatch):
        import gc
        import weakref

        import tcspin.sweep as sweep_mod

        refs = []
        real = sweep_mod.run_point

        def spying(op, *args):
            gc.collect()
            assert [r() for r in refs] == [None] * len(refs)
            refs.append(weakref.ref(op))
            return real(op, *args)

        monkeypatch.setattr(sweep_mod, "run_point", spying)
        run_sweep(self.PLAN)
        assert len(refs) == 4

    def test_compiled_operator_freed_without_the_cycle_collector(self, monkeypatch):
        import gc
        import weakref

        import tcspin.sweep as sweep_mod

        refs = []
        real = sweep_mod.run_point

        def spying(op, *args):
            assert [r() for r in refs] == [None] * len(refs)
            refs.append(weakref.ref(op))
            return real(op, *args)

        monkeypatch.setattr(sweep_mod, "run_point", spying)
        gc.disable()
        try:
            run_sweep(self.PLAN)
        finally:
            gc.enable()
        assert len(refs) == 4


class TestSharedObservable:
    """Every point of one N and axis correlates one observable object, built
    once with its compiled groups, not one per point."""

    @staticmethod
    def _spy(monkeypatch):
        import tcspin.sweep as sweep_mod

        observables, built = [], []
        run, build = sweep_mod.run_point, sweep_mod.magnetization_operator

        def running(op, observable, *args):
            observables.append(observable)
            return run(op, observable, *args)

        def building(n, axis):
            built.append((n, axis))
            return build(n, axis)

        monkeypatch.setattr(sweep_mod, "run_point", running)
        monkeypatch.setattr(sweep_mod, "magnetization_operator", building)
        return observables, built

    def test_criterion_8_sweep_hands_every_point_the_same_observable(self, monkeypatch):
        observables, built = self._spy(monkeypatch)
        records = run_sweep(criterion_8_plan())
        assert len(records) == 52 and all(r.status == "ok" for r in records)
        assert len(observables) == 35 and all(o is observables[0] for o in observables)
        assert built == [(8, "z")]

    def test_one_observable_per_n(self, monkeypatch):
        observables, built = self._spy(monkeypatch)
        plan = small_plan(
            n_values=(6, 8),
            axis="x",
            perturbations=(PerturbationFamily(kind="heisenberg_exchange", strengths=(0.01, 0.05)),),
        )
        run_sweep(plan)
        assert built == [(6, "x"), (8, "x")]
        assert [o.n_sites for o in observables] == [6] * 3 + [8] * 3
        assert len({id(o) for o in observables}) == 2

    def test_copies_take_no_wall_time(self, tmp_path):
        from tcspin.cli import main

        doc = {
            "command": "sweep",
            "plan": {
                "n_values": [6],
                "j_values": [0.5],
                "time_grid": {"t_start": 0.0, "t_end": 150.0, "n_samples": 192},
                "perturbations": [
                    {"kind": "heisenberg_exchange", "strengths": [0.0]},
                    {"kind": "random_onsite_field", "strengths": [0.0, 0.05], "seeds": [3, 4, 5]},
                ],
            },
        }
        cfg = tmp_path / "plan.json"
        cfg.write_text(json.dumps(doc))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "timings.csv").read_text().splitlines()
        assert lines[0] == "row_index,wall_time_s"
        times = [float(line.split(",")[1]) for line in lines[1:]]
        assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(8))
        # rows 1-4 are copies of row 0; rows 5-7 are points of their own
        assert times[1:5] == [0.0] * 4
        assert times[0] > 0.0 and all(t > 0.0 for t in times[5:])


class TestRunPoint:
    OP = build_tc_hamiltonian(TCModelConfig(6, 0.5))
    M = magnetization_operator(6, "z")

    def test_spectral_and_krylov_share_one_spectrum(self):
        point = run_point(self.OP, self.M, GRID, "ground", SolverSettings(step_tol=1e-12), ("spectral", "krylov"))
        assert point.spectrum.method == "dense"
        assert point.energy == point.spectrum.eigenvalues[0]
        assert list(point.series) == ["spectral", "krylov"]
        diff = point.series["spectral"].values - point.series["krylov"].values
        assert np.max(np.abs(diff)) < 1e-8
        assert point.gap_consistent is True

    def test_non_eigenstate_basis_state_needs_no_spectrum(self):
        point = run_point(self.OP, self.M, GRID, 0, SolverSettings(), ("krylov",))
        assert point.spectrum is None and point.ghz is None
        assert point.energy is None
        assert point.series["krylov"].method == "krylov_general"
        assert point.gap_consistent is None
        with pytest.raises(TcspinError, match="dense spectrum"):
            run_point(self.OP, self.M, GRID, 0, SolverSettings(), ("spectral",))

    def test_excited_basis_eigenstate_gets_no_gap_check(self):
        # under H = Z the basis state |1> is the ground state, |0> the excited one
        op = from_label_terms([(1.0, "Z")])
        x = from_label_terms([(1.0, "X")])
        ground = run_point(op, x, GRID, 1, SolverSettings(), ("krylov",))
        excited = run_point(op, x, GRID, 0, SolverSettings(), ("krylov",))
        assert ground.spectrum is not None and ground.gap_consistent is True
        assert excited.spectrum is not None and excited.gap_consistent is None

    @pytest.mark.parametrize("state", ["excited", "Ground", -1, 64])
    def test_unknown_initial_state_rejected(self, state):
        # neither falls back to another state: "excited" is not the ghz_pair
        # path, and -1 is not basis state 63
        with pytest.raises(ValueError):
            run_point(self.OP, self.M, GRID, state, SolverSettings(), ("krylov",))


class TestFitPowerLaw:
    def test_exact_inverse_law(self):
        exponent, prefactor, r2 = fit_power_law([(2, 0.25), (4, 0.125), (8, 0.0625)])
        assert exponent == pytest.approx(-1.0, abs=1e-14)
        assert prefactor == pytest.approx(0.5, abs=1e-14)
        assert r2 == pytest.approx(1.0, abs=1e-15)

    def test_constant_series(self):
        exponent, prefactor, r2 = fit_power_law([(1, 3.0), (2, 3.0), (4, 3.0)])
        assert exponent == pytest.approx(0.0, abs=1e-14)
        assert prefactor == pytest.approx(3.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_power_law([(1, 1.0), (2, 0.5)])
        with pytest.raises(ValueError):
            fit_power_law([(1, 1.0), (2, -0.5), (3, 0.2)])
        with pytest.raises(ValueError):
            fit_power_law([(0.0, 1.0), (2, 0.5), (3, 0.2)])


class TestOscillatorControl:
    def test_pipeline_reproduces_inverse_scaling(self):
        control = OscillatorControl(n_values=(2, 4, 8, 16, 32))
        table = oscillator_control_table(control, TimeGrid(0.0, 60.0, 512))
        exponent, prefactor, _ = fit_power_law([(float(n), a) for n, a in table])
        assert exponent == pytest.approx(-1.0, abs=1e-10)
        assert prefactor == pytest.approx(0.5, rel=1e-8)

    # m0 that puts a^2 = (hbar / (2 N m0 omega))^2 just inside either end of
    # its range: the smallest normal float64 at N = 8, 2^800 at N = 2
    EDGES = {
        "smallest_normal": 1.0 / (16.0 * math.sqrt(1.01 * np.finfo(np.float64).tiny)),
        "two_to_the_800": 1.0 / (4.0 * math.sqrt(0.999 * 2.0**800)),
    }

    @pytest.mark.parametrize("edge", sorted(EDGES))
    def test_pipeline_reads_the_inverse_law_at_the_ends_of_the_range(self, edge):
        control = OscillatorControl(n_values=(2, 4, 8), m0=self.EDGES[edge])
        table = oscillator_control_table(control, TimeGrid(0.0, 240.0, 512))
        exponent, _, _ = fit_power_law([(float(n), a) for n, a in table])
        assert exponent == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("edge, factor", [("smallest_normal", 1.02), ("two_to_the_800", 0.998)])
    def test_a_square_past_either_end_is_rejected(self, edge, factor):
        # a scales as 1/m0, so m0 * sqrt(factor) moves a^2 by 1/factor: out of range
        with pytest.raises(ValueError, match="its square must lie in"):
            OscillatorControl(n_values=(2, 4, 8), m0=self.EDGES[edge] * math.sqrt(factor))

    def test_plan_bounds_the_control_phase_at_2_30(self):
        # omega * t_end = 2^30 reads every amplitude within 1e-10; past it the
        # phases lose digits (5e-2 at 2^53) while the fit still reads -1
        grid = TimeGrid(0.0, 128.0, 512)
        control = OscillatorControl(n_values=(2, 4, 8), omega=2.0**23)
        small_plan(grid=grid, oscillator_control=control)
        for n, amplitude in oscillator_control_table(control, grid):
            assert amplitude == pytest.approx(control.amplitude(n), rel=1e-10)
        with pytest.raises(PlanError, match="at most 2\\^30"):
            small_plan(grid=grid, oscillator_control=OscillatorControl(n_values=(2, 4, 8), omega=2.0**24))


class TestStability:
    def test_zero_strength_shifts_are_exactly_zero(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0, 0.02)),
                PerturbationFamily(
                    kind="random_onsite_field", strengths=(0.0,), axis="z", seeds=(3,)
                ),
            )
        )
        rows = stability_report(run_sweep(plan))
        zero_rows = [r for r in rows if r.pert_strength == 0.0 and r.statistic == "row"]
        assert zero_rows
        for row in zero_rows:
            assert row.rel_frequency_shift == 0.0
            assert row.rel_amplitude_shift == 0.0
            assert row.ghz_overlap_retention == 1.0
            assert row.ground_gap_shift == 0.0

    def test_nonzero_strength_produces_finite_shifts(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.05,)),
            )
        )
        rows = stability_report(run_sweep(plan))
        assert len(rows) == 1
        assert rows[0].statistic == "row"
        assert np.isfinite(rows[0].rel_frequency_shift)
        assert rows[0].ground_gap_shift != 0.0

    def test_disorder_rows_aggregate(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(
                    kind="random_onsite_field", strengths=(0.02,), seeds=(1, 2, 3)
                ),
            )
        )
        rows = stability_report(run_sweep(plan))
        stats = {r.statistic for r in rows}
        assert stats == {"row", "mean", "std"}
        means = [r for r in rows if r.statistic == "mean"]
        assert len(means) == 1
        per_seed = [r.rel_frequency_shift for r in rows if r.statistic == "row"]
        assert means[0].rel_frequency_shift == pytest.approx(np.mean(per_seed), abs=1e-15)

    def test_missing_reference_rejected(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.02,)),
            )
        )
        records = [r for r in run_sweep(plan) if r.pert_kind != "none"]
        with pytest.raises(PlanError):
            stability_report(records=records)


class TestMonotonicityFlags:
    @staticmethod
    def _row(strength, freq_shift, seed=None, statistic="row"):
        from tcspin.sweep import StabilityRow

        return StabilityRow(
            n_sites=8,
            j_coupling=1.0,
            pert_kind="heisenberg_exchange",
            pert_strength=strength,
            pert_seed=seed,
            statistic=statistic,
            rel_frequency_shift=freq_shift,
            rel_amplitude_shift=freq_shift / 2,
            ghz_overlap_retention=1.0,
            ground_gap_shift=freq_shift * 3,
        )

    def test_monotone_sequence_is_clean(self):
        from tcspin.sweep import stability_monotonicity_flags

        rows = [self._row(0.01, 0.001), self._row(0.05, 0.004)]
        flags = stability_monotonicity_flags(rows)
        assert flags and all(f["monotone_in_strength"] for f in flags)

    def test_non_monotone_sequence_is_flagged_not_failed(self):
        from tcspin.sweep import stability_monotonicity_flags

        rows = [self._row(0.01, 0.004), self._row(0.05, 0.001)]
        flags = stability_monotonicity_flags(rows)
        freq_flags = [f for f in flags if f["metric"] == "rel_frequency_shift"]
        assert freq_flags[0]["monotone_in_strength"] is False

    def test_real_fixture_grid_produces_flags(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.01, 0.05)),
            )
        )
        records = run_sweep(plan)
        summary = summarize_sweep(plan, records)
        assert "stability_monotonicity" in summary
        assert all("monotone_in_strength" in f for f in summary["stability_monotonicity"])


class TestSummary:
    def test_contains_fit_and_stability_sections(self):
        plan = small_plan(
            perturbations=(
                PerturbationFamily(kind="heisenberg_exchange", strengths=(0.02,)),
            ),
            oscillator_control=OscillatorControl(n_values=(2, 4, 8)),
        )
        records = run_sweep(plan)
        summary = summarize_sweep(plan, records)
        assert summary["n_rows"] == 2
        assert summary["n_failed"] == 0
        assert summary["oscillator_control"]["fit"]["exponent"] == pytest.approx(-1.0, abs=1e-9)
        assert len(summary["stability"]) == 1
        assert summary["amplitude_vs_n"][0]["n_sites"] == 6
