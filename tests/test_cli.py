"""Command line front end: exit codes, strict configs, byte-stable outputs."""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tcspin import sweep
from tcspin.cli import main
from tcspin.models import PerturbationSpec, TCModelConfig, add_perturbations, build_tc_hamiltonian, magnetization_operator
from tcspin.pauli import dense_cap, to_dense

TWO_LEVEL_CORRELATE = {
    "command": "correlate",
    "model": {
        "type": "pauli_terms",
        "n_sites": 1,
        "terms": [{"coeff": [1.0, 0.0], "letters": "Z"}],
    },
    "observable": {
        "type": "pauli_terms",
        "terms": [{"coeff": [1.0, 0.0], "letters": "X"}],
    },
    "initial_state": {"type": "basis", "index": 1},
    "time_grid": {"t_start": 0.0, "t_end": 20.0, "n_samples": 64},
    "method": "both",
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_series_csv(path):
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    t = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) + 1j * float(r[2]) for r in rows])
    return t, values


class TestSpectrumCommand:
    def test_dense_run_writes_both_reports(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        spec_doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert max(spec_doc["spectrum"]["residuals"]) < 1e-10
        assert len(spec_doc["spectrum"]["eigenvalues"]) == 64
        ghz_doc = json.loads((tmp_path / "out" / "ghz_report.json").read_text())
        assert ghz_doc["ghz_report"]["ghz_gap"] > 0
        assert spec_doc["config_hash"] == ghz_doc["config_hash"]

    def test_eigenvectors_are_written_block_by_block(self, tmp_path):
        field = {"kind": "random_onsite_field", "strength": 0.05, "axis": "z", "seed": 100}
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 4, "j_coupling": 0.5},
                "perturbations": [field],
                "output": {"include_eigenvectors": True},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        spec_doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())["spectrum"]
        vectors = np.array([[re + 1j * im for re, im in row] for row in spec_doc["vectors"]])
        assert vectors.shape == (16, 16)
        assert np.max(np.abs(vectors.conj() @ vectors.T - np.eye(16))) < 1e-14
        chain = build_tc_hamiltonian(TCModelConfig(4, 0.5))
        op = add_perturbations(chain, (PerturbationSpec(**field),), "periodic")
        residuals = to_dense(op) @ vectors.T - vectors.T * np.array(spec_doc["eigenvalues"])
        assert np.max(np.abs(residuals)) < 1e-14
        # the z field keeps the chain's blocks of 4: each vector lies in one
        assert all(np.count_nonzero(v) == 4 for v in vectors)

    def test_invalid_chain_size_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 3, "j_coupling": 1.0},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_sites must be >= 4" in capsys.readouterr().err

    @pytest.mark.parametrize("k", [0, 17])
    def test_k_outside_hilbert_space_is_config_error(self, tmp_path, k):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 4, "j_coupling": 1.0},
                "solver": {"dense_max_sites": 0, "lanczos_k": k},
            },
        )
        assert main(["validate", "--config", cfg]) == 2
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5, "frobnicate": 1},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_missing_config_flag(self, capsys):
        assert main(["spectrum"]) == 2
        assert "config" in capsys.readouterr().err


class TestCorrelateCommand:
    def test_two_level_demo_matches_phase(self, tmp_path):
        cfg = write_config(tmp_path, TWO_LEVEL_CORRELATE)
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        t, values = read_series_csv(out / "correlation.csv")
        assert np.max(np.abs(values - np.exp(-2j * t))) < 1e-10
        osc = json.loads((out / "oscillation.json").read_text())
        assert osc["cross_method_max_abs_diff"] < 1e-8
        assert osc["gap_frequency_consistent"] is True
        assert osc["oscillation"]["frequencies"][0] == pytest.approx(2.0, abs=1e-6)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TWO_LEVEL_CORRELATE)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["correlate", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["correlate", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("correlation.csv", "correlation_krylov.csv", "oscillation.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_chain_cross_method_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "correlate",
                "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
                "observable": {"type": "magnetization", "axis": "z"},
                "initial_state": {"type": "ground"},
                "time_grid": {"t_start": 0.0, "t_end": 120.0, "n_samples": 128},
                "method": "both",
            },
        )
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        osc = json.loads((out / "oscillation.json").read_text())
        assert osc["cross_method_max_abs_diff"] < 1e-8
        assert osc["gap_frequency_consistent"] is True

    def test_ground_state_krylov_diagonalizes_once(self, tmp_path, monkeypatch):
        # the gap check reuses the spectrum that prepared the ground state
        calls = []
        dense = sweep.dense_spectrum

        def counting(op):
            calls.append(op.n_sites)
            return dense(op)

        monkeypatch.setattr(sweep, "dense_spectrum", counting)
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": "krylov",
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        assert calls == [6]
        assert json.loads((out / "oscillation.json").read_text())["gap_frequency_consistent"] is True

    def test_dense_both_run_diagonalizes_once(self, tmp_path, monkeypatch):
        # the spectral correlator reads the spectrum that prepared the state
        calls = []
        eigh = np.linalg.eigh

        def counting(mat, *args, **kwargs):
            if mat.ndim == 3:  # the batched block solve; the quadrature's T_m are 2-D
                calls.append(mat.shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": "both",
        }
        cfg = write_config(tmp_path, doc)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        # one batched eigh over the invariant blocks, which cover all 2^6 rows
        ((n_blocks, rows, cols),) = calls
        assert rows == cols and n_blocks * rows == 64

    @pytest.mark.parametrize("max_iter", [8, 30])
    @pytest.mark.parametrize("command", ["correlate", "spectrum"])
    def test_unconverged_lanczos_is_numerical_failure(self, tmp_path, capsys, max_iter, command):
        # the chain's sectors hold 2 states: 8 matvecs leave one pair below
        # every level an unfinished sector may hold, 30 two of the four asked
        # for; both commands share run_point's spectrum step and its solver section
        model = {"type": "tc", "n_sites": 8, "j_coupling": 0.5}
        solver = {"dense_max_sites": 6, "lanczos_k": 4, "lanczos_seed": 0, "lanczos_max_iter": max_iter}
        if command == "correlate":
            doc = {
                "command": "correlate",
                "model": model,
                "observable": {"type": "magnetization", "axis": "z"},
                "initial_state": {"type": "ground"},
                "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
                "method": "krylov",
                "solver": solver,
            }
            written = "oscillation.json"
        else:
            doc = {"command": "spectrum", "model": model, "solver": solver}
            written = "spectrum.json"
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == 3
        assert "Lanczos converged" in capsys.readouterr().err
        assert not (out / written).exists()

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_spectral_route_above_dense_cap_is_config_error(self, tmp_path, monkeypatch, capsys, method):
        # N = 8 is on the dense route (dense_max_sites 10), which the cap of 6 rejects
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "6")
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": method,
        }
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "exceeds the dense cap 6" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_spectral_route_on_the_lanczos_route_is_config_error(self, tmp_path, capsys, method):
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": method,
            "solver": {"dense_max_sites": 6},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
        assert "exceeds solver.dense_max_sites 6" in capsys.readouterr().err

    def test_the_cap_changes_no_hash_and_no_byte(self, tmp_path, capsys, monkeypatch):
        # dense_max_sites routes the point, so every cap that admits the dense
        # route at N = 8 gives one hash and one output; a lower cap only rejects
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": "krylov",
        }
        cfg = write_config(tmp_path, doc)
        hashes, outputs = set(), set()
        for cap in (None, "14", "8", "30"):
            if cap is None:
                monkeypatch.delenv("TCSPIN_DENSE_CAP", raising=False)
            else:
                monkeypatch.setenv("TCSPIN_DENSE_CAP", cap)
            assert main(["validate", "--config", cfg]) == 0
            hashes.add(capsys.readouterr().out.split()[1])
            out = tmp_path / f"cap{cap}"
            assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
            written = json.loads((out / "oscillation.json").read_text())
            assert "dense_cap" not in written["config"] and "gap_frequency_consistent" in written
            outputs.add(tuple((out / name).read_bytes() for name in ("correlation.csv", "oscillation.json")))
        assert len(hashes) == 1 and len(outputs) == 1
        assert json.loads(outputs.pop()[1])["config_hash"] == hashes.pop()
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "7")
        assert main(["validate", "--config", cfg]) == 2
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "cap7")]) == 2
        assert not (tmp_path / "cap7").exists()

    def test_embedded_config_validates_as_the_run(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["correlate", "--config", write_config(tmp_path, TWO_LEVEL_CORRELATE), "--out", str(out)]) == 0
        written = json.loads((out / "oscillation.json").read_text())
        embedded = write_config(tmp_path, written["config"], "embedded.json")
        assert main(["validate", "--config", embedded]) == 0
        assert capsys.readouterr().out.split() == ["ok", written["config_hash"]]
        # a rerun from the embedded config is the same run
        rerun = tmp_path / "rerun"
        assert main(["correlate", "--config", embedded, "--out", str(rerun)]) == 0
        assert (rerun / "oscillation.json").read_text() == (out / "oscillation.json").read_text()

    def test_every_frequency_merging_away_reports_no_peak(self, tmp_path):
        # 64 samples over [0, 1e10] alias every line of the bare N = 4 chain:
        # the pursuit's frequencies all merge away, which once raised IndexError
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 4, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 1e10, "n_samples": 64},
            "method": "spectral",
        }
        out = tmp_path / "out"
        assert main(["correlate", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
        report = json.loads((out / "oscillation.json").read_text())["oscillation"]
        assert len(report["amplitudes"]) == len(report["frequencies"])

    def test_bad_basis_index_is_config_error(self, tmp_path):
        doc = dict(TWO_LEVEL_CORRELATE)
        doc["initial_state"] = {"type": "basis", "index": 5}
        cfg = write_config(tmp_path, doc)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestBaselineCommand:
    def test_scaling_and_agreement(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "baseline",
                "oscillator": {"n_values": [2, 4, 8]},
                "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 256},
            },
        )
        out = tmp_path / "out"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "baseline_summary.json").read_text())
        assert [row["amplitude"] for row in doc["scaling"]] == [0.25, 0.125, 0.0625]
        assert max(doc["max_abs_diff_numeric_vs_analytic"].values()) < 1e-12
        assert doc["fit"]["exponent"] == pytest.approx(-1.0, abs=1e-12)
        assert (out / "baseline_analytic_N2.csv").exists()
        assert (out / "baseline_numeric_N8.csv").exists()

    def test_single_particle_amplitude(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "baseline",
                "oscillator": {"n_values": [1]},
                "time_grid": {"t_start": 0.0, "t_end": 20.0, "n_samples": 64},
            },
        )
        out = tmp_path / "out"
        assert main(["baseline", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads((out / "baseline_summary.json").read_text())
        assert doc["scaling"] == [{"n": 1, "amplitude": 0.5}]

    def test_duplicate_n_values_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "baseline",
                "oscillator": {"n_values": [2, 2]},
                "time_grid": {"t_start": 0.0, "t_end": 20.0, "n_samples": 64},
            },
        )
        assert main(["baseline", "--config", cfg, "--out", str(tmp_path)]) == 2


SWEEP_DOC = {
    "command": "sweep",
    "plan": {
        "n_values": [6],
        "j_values": [0.5],
        "time_grid": {"t_start": 0.0, "t_end": 150.0, "n_samples": 192},
        "solver": {
            "dense_max_sites": 10,
            "lanczos_k": 4,
            "lanczos_tol": 1e-10,
            "lanczos_max_iter": 40000,
            "lanczos_seed": 7,
            "krylov_dim": 30,
            "step_tol": 1e-12,
            "max_peaks": 8,
        },
    },
}


class TestSweepCommand:
    def test_one_row_plan(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # comment, header, one row
        assert lines[1].startswith("n_sites,j_coupling,")
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["summary"]["n_rows"] == 1
        assert (out / "timings.csv").exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected_before_out_is_made(self, tmp_path, capsys, workers):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out), "--workers", workers]) == 2
        assert f"--workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_plan_rows_rejected(self, tmp_path):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["plan"]["n_values"] = [6, 6]
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_failed_reference_row_is_a_partial_sweep(self, tmp_path, monkeypatch):
        # the bare N = 4 point fails: its Heisenberg row leaves the stability
        # table, and every output is still written
        doc = _edited(
            SWEEP_DOC,
            lambda d: d["plan"].update(n_values=[4, 6], perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.05]}]),
        )
        bare, run_point = build_tc_hamiltonian(TCModelConfig(4, 0.5)), sweep.run_point

        def failing(op, *args):
            if op == bare:
                raise RuntimeError("forced point failure")
            return run_point(op, *args)

        monkeypatch.setattr(sweep, "run_point", failing)
        out = tmp_path / "out"
        assert main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 4
        rows = csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:])
        assert [(r["n_sites"], r["pert_kind"], r["status"]) for r in rows] == [
            ("4", "none", "failed"), ("4", "heisenberg_exchange", "ok"),
            ("6", "none", "ok"), ("6", "heisenberg_exchange", "ok"),
        ]
        summary = json.loads((out / "sweep_summary.json").read_text())["summary"]
        assert summary["n_failed"] == 1
        assert [(s["n_sites"], s["kind"], s["strength"]) for s in summary["stability"]] == [
            (6, "heisenberg_exchange", 0.05)
        ]
        assert (out / "timings.csv").exists()

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()


class TestRuntimeImports:
    # scipy is a test oracle only; importing scipy.linalg more than doubles
    # the CLI's start-up time, so neither route of a sweep may load it.
    PROBE = (
        "import json, sys\n"
        "from tcspin import cli\n"
        "code = cli.main(['sweep', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
        "loaded = sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "print(json.dumps({'exit_code': code, 'scipy_modules': loaded}))\n"
    )

    def test_sweep_never_imports_scipy(self, tmp_path):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["plan"]["n_values"] = [6, 8]
        doc["plan"]["time_grid"]["n_samples"] = 64
        doc["plan"]["solver"]["dense_max_sites"] = 6  # N=6 dense, N=8 Lanczos
        doc["plan"]["solver"]["lanczos_k"] = 2
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        proc = subprocess.run(
            [sys.executable, "-c", self.PROBE, cfg, str(out)],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["exit_code"] == 0
        rows = csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:])
        solvers = [row["solver"] for row in rows]
        assert solvers == ["dense", "lanczos"]
        assert result["scipy_modules"] == []


class TestLogLevel:
    # the Krylov correlator, and Lanczos past dense_max_sites, log how hard
    # they worked at info, and the default warn level prints none of it
    DOC = {
        "command": "correlate",
        "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
        "perturbations": [{"kind": "heisenberg_exchange", "strength": 0.05}],
        "observable": {"type": "magnetization", "axis": "z"},
        "initial_state": {"type": "ground"},
        "time_grid": {"t_start": 0.0, "t_end": 60.0, "n_samples": 128},
        "method": "krylov",
    }

    @pytest.mark.parametrize("dense_max_sites", [10, 6], ids=["dense", "lanczos"])
    @pytest.mark.parametrize("level", [None, "info"])
    def test_krylov_correlator_record(self, tmp_path, level, dense_max_sites):
        cfg = write_config(tmp_path, {**self.DOC, "solver": {"dense_max_sites": dense_max_sites, "lanczos_k": 4}})
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        env.pop("TCSPIN_DENSE_CAP", None)
        args = [sys.executable, "-m", "tcspin.cli", "correlate", "--config", cfg, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            args + (["--log-level", level] if level else []),
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        records = [line for line in proc.stderr.splitlines() if "krylov correlator" in line]
        lanczos = [line for line in proc.stderr.splitlines() if line.startswith("INFO tcspin.spectra: lanczos:")]
        if level is None:
            assert proc.stderr == ""
        else:
            # m_z psi0 is one global-flip sector of 64 states
            assert len(records) == 1 and "64 amplitudes kept" in records[0], proc.stderr
            assert len(lanczos) == (1 if dense_max_sites < 8 else 0), proc.stderr
            # k = 4 on the chain's two cosets, split in four global-flip
            # sectors of 64: all four are solved
            assert all(line.endswith("on 256 of 256 states (4 of 4 sectors)") for line in lanczos), proc.stderr

    @pytest.mark.parametrize("level", [None, "info"])
    def test_general_correlator_record(self, tmp_path, level):
        # a ghz_pair takes the arbitrary-state route: one record of its windows
        cfg = write_config(tmp_path, {**self.DOC, "initial_state": {"type": "ghz_pair"}})
        src = Path(__file__).resolve().parents[1] / "src"
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
        env.pop("TCSPIN_DENSE_CAP", None)
        args = [sys.executable, "-m", "tcspin.cli", "correlate", "--config", cfg, "--out", str(tmp_path / "out")]
        proc = subprocess.run(
            args + (["--log-level", level] if level else []),
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        records = [line for line in proc.stderr.splitlines() if "krylov general correlator" in line]
        if level is None:
            assert proc.stderr == ""
        else:
            assert len(records) == 1 and "krylov correlator" not in proc.stderr, proc.stderr
            windows, steps, _, trajectory, half = re.fullmatch(
                r"INFO tcspin\.dynamics: krylov general correlator: (\d+) windows, (\d+) Lanczos steps, "
                r"window bound (\S+), trajectory bound (\S+) of (\S+)",
                records[0],
            ).groups()
            assert 2 <= int(windows) <= int(steps) and float(trajectory) <= float(half) == 0.5 * 127 * 1e-12


class TestValidateCommand:
    def test_reports_hash(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_DOC)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.startswith("ok ")
        assert len(out.split()[1]) == 64

    def test_command_key_required(self, tmp_path):
        cfg = write_config(tmp_path, {"plan": {}})
        assert main(["validate", "--config", cfg]) == 2

    def test_command_mismatch_rejected(self, tmp_path):
        cfg = write_config(tmp_path, TWO_LEVEL_CORRELATE)
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "spectrum", "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5}},
            SWEEP_DOC,
        ],
        ids=["spectrum", "sweep"],
    )
    def test_other_commands_reject_dense_cap(self, tmp_path, capsys, doc):
        assert main(["validate", "--config", write_config(tmp_path, {**doc, "dense_cap": dense_cap()})]) == 2
        assert "unknown key(s) ['dense_cap']" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2

    def test_sweep_doc_hash_is_pinned(self, tmp_path, capsys):
        # the resolved plan, and so its hash, is the one configs had before the schema reader
        cfg = write_config(tmp_path, SWEEP_DOC)
        assert main(["validate", "--config", cfg]) == 0
        assert capsys.readouterr().out.split() == [
            "ok", "04f434339fba6df1ecdde0f25318bc28286f76d15654422e3792f4472ed1e135"
        ]

    def test_hash_embedded_in_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SWEEP_DOC)
        assert main(["validate", "--config", cfg]) == 0
        declared = capsys.readouterr().out.split()[1]
        out = tmp_path / "out"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        summary = json.loads((out / "sweep_summary.json").read_text())
        assert summary["config_hash"] == declared
        first_line = (out / "sweep.csv").read_text().splitlines()[0]
        assert declared in first_line


def _edited(doc, edit):
    doc = json.loads(json.dumps(doc))
    edit(doc)
    return doc


SPECTRUM_DOC = {"command": "spectrum", "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5}}

CORRELATE_DOC = {
    "command": "correlate",
    "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
    "observable": {"type": "magnetization", "axis": "z"},
    "initial_state": {"type": "ground"},
    "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
    "method": "krylov",
    "solver": {"step_tol": 1e-12},
}

# each config validated (or ran to exit 3, or crashed) before the schema was strict
# every check of an oscillator section, run through a baseline config and a sweep plan
OSCILLATOR_REJECTED = {
    "n_values_zero": {"n_values": [0, 2]},
    "n_values_duplicate": {"n_values": [2, 2]},
    "m0": {"n_values": [2, 4], "m0": -1.0},
    "omega": {"n_values": [2, 4], "omega": 0.0},
    "hbar": {"n_values": [2, 4], "hbar": 0.0},
    # hbar / (2 N m0 omega) whose square leaves the normal float64 range, or
    # whose denominator underflows to 0: these validated, then raised in the
    # run, or (a subnormal square) read an exponent of -0.999999999
    "amplitude_square_overflows": {"n_values": [2, 4, 8], "m0": 1e-200},
    "amplitude_square_underflows": {"n_values": [2, 4, 8], "m0": 1e140, "omega": 1e150},
    "amplitude_square_subnormal": {"n_values": [2, 4, 8], "m0": 2.5e159},
    "amplitude_denominator_underflows": {"n_values": [2, 4, 8], "m0": 1e-300, "omega": 1e-300},
}

# a span t_end - t_start that overflows: validated, then every row failed
SPAN_OVERFLOWS = {"t_start": -1e308, "t_end": 1e308, "n_samples": 64}
# finite times whose extraction sums overflow: validated, then crashed with
# OverflowError (correlate) or failed every row (a plan); a baseline ran and
# wrote phases e^{-i w t} that are rounding noise
EXTENT_PAST_2_100 = {"t_start": 0.0, "t_end": 1e300, "n_samples": 64}

REJECTED_UP_FRONT = {
    "plan_unknown_key": _edited(SWEEP_DOC, lambda d: d["plan"].update(bogus=1)),
    "time_grid_unknown_key": _edited(SWEEP_DOC, lambda d: d["plan"]["time_grid"].update(dt=0.1)),
    "family_unknown_key": _edited(
        SWEEP_DOC,
        lambda d: d["plan"].update(
            perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.1], "strenght": 0.2}]
        ),
    ),
    "oscillator_control_unknown_key": _edited(
        SWEEP_DOC, lambda d: d["plan"].update(oscillator_control={"n_values": [2, 4], "mass": 2.0})
    ),
    "plan_boundary": _edited(SWEEP_DOC, lambda d: d["plan"].update(boundary="ring")),
    "plan_n_samples": _edited(SWEEP_DOC, lambda d: d["plan"]["time_grid"].update(n_samples=8)),
    "plan_step_tol_negative": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(step_tol=-1.0)),
    "plan_step_tol_nan": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(step_tol=float("nan"))),
    # an exchange family has one row per strength and reads no seed, axis or distribution
    "family_exchange_seeds": _edited(
        SWEEP_DOC,
        lambda d: d["plan"].update(perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.1], "seeds": [1, 2]}]),
    ),
    "family_exchange_axis": _edited(
        SWEEP_DOC,
        lambda d: d["plan"].update(perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.1], "axis": "x"}]),
    ),
    "family_exchange_distribution": _edited(
        SWEEP_DOC,
        lambda d: d["plan"].update(
            perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.1], "distribution": "gaussian_unit"}]
        ),
    ),
    "family_later_strength_negative": _edited(
        SWEEP_DOC,
        lambda d: d["plan"].update(perturbations=[{"kind": "heisenberg_exchange", "strengths": [0.1, -0.1]}]),
    ),
    "correlate_n_samples": _edited(CORRELATE_DOC, lambda d: d["time_grid"].update(n_samples=8)),
    "correlate_step_tol_zero": _edited(CORRELATE_DOC, lambda d: d["solver"].update(step_tol=0.0)),
    "correlate_k_not_integer": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_k="4")),
    "correlate_index_without_basis": _edited(CORRELATE_DOC, lambda d: d["initial_state"].update(index=0)),
    "correlate_observable_letter_count": _edited(
        CORRELATE_DOC,
        lambda d: d.update(observable={"type": "pauli_terms", "terms": [{"coeff": [1.0, 0.0], "letters": "ZZ"}]}),
    ),
    "spectrum_k_not_integer": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 0, "lanczos_k": "4"},
    },
    "spectrum_unknown_pauli_letter": {
        "command": "spectrum",
        "model": {"type": "pauli_terms", "n_sites": 1, "terms": [{"coeff": [1.0, 0.0], "letters": "Q"}]},
    },
    "spectrum_non_hermitian": {
        "command": "spectrum",
        "model": {"type": "pauli_terms", "n_sites": 1, "terms": [{"coeff": [0.0, 1.0], "letters": "Z"}]},
    },
    "correlate_non_hermitian": _edited(
        CORRELATE_DOC,
        lambda d: d.update(
            model={"type": "pauli_terms", "n_sites": 6, "terms": [{"coeff": [0.5, 0.5], "letters": "XXIIII"}]}
        ),
    ),
    "spectrum_lanczos_tol_negative": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 0, "lanczos_tol": -1},
    },
    "spectrum_lanczos_k_zero": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 0, "lanczos_k": 0},
    },
    "correlate_lanczos_k_zero": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_k=0)),
    "correlate_lanczos_tol_zero": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_tol=0.0)),
    "correlate_lanczos_max_iter_zero": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_max_iter=0)),
    "plan_lanczos_tol_negative": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(lanczos_tol=-1e-10)),
    "plan_lanczos_max_iter_zero": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(lanczos_max_iter=0)),
    "spectrum_lanczos_seed_negative": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 0, "lanczos_seed": -1},
    },
    "correlate_lanczos_seed_negative": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_seed=-1)),
    "plan_lanczos_seed_negative": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(lanczos_seed=-1)),
    # the Lanczos start stream is keyed by a uint64: a seed of 2^64 once
    # validated and then failed its first Lanczos row
    "spectrum_lanczos_seed_2_64": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 0, "lanczos_seed": 1 << 64},
    },
    "correlate_lanczos_seed_2_64": _edited(CORRELATE_DOC, lambda d: d["solver"].update(lanczos_seed=1 << 64)),
    "plan_lanczos_seed_2_64": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(lanczos_seed=1 << 64)),
    "correlate_max_peaks_zero": _edited(CORRELATE_DOC, lambda d: d["solver"].update(max_peaks=0)),
    "plan_max_peaks_zero": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(max_peaks=0)),
    "correlate_observable_non_hermitian": _edited(
        CORRELATE_DOC,
        lambda d: d.update(observable={"type": "pauli_terms", "terms": [{"coeff": [0.0, 1.0], "letters": "ZIIIII"}]}),
    ),
    **{
        f"baseline_{name}": {
            "command": "baseline",
            "oscillator": section,
            "time_grid": {"t_start": 0.0, "t_end": 20.0, "n_samples": 64},
        }
        for name, section in OSCILLATOR_REJECTED.items()
    },
    **{
        f"oscillator_control_{name}": _edited(SWEEP_DOC, lambda d, s=section: d["plan"].update(oscillator_control=s))
        for name, section in OSCILLATOR_REJECTED.items()
    },
    # lanczos_k above 2^N on the Lanczos route: validated, then exited 3
    "plan_lanczos_k_above_dimension": _edited(
        SWEEP_DOC,
        lambda d: (d["plan"].update(n_values=[4]), d["plan"]["solver"].update(dense_max_sites=3, lanczos_k=17)),
    ),
    "correlate_lanczos_k_above_dimension": _edited(
        CORRELATE_DOC, lambda d: (d["model"].update(n_sites=15), d["solver"].update(lanczos_k=(1 << 15) + 1))
    ),
    # the dense route past the default cap of 14, and a plan whose Lanczos pairs give no gap
    "spectrum_dense_above_cap": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 15, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 15},
    },
    "plan_lanczos_k_one": _edited(SWEEP_DOC, lambda d: d["plan"]["solver"].update(lanczos_k=1)),
    "plan_time_grid_span_overflows": _edited(SWEEP_DOC, lambda d: d["plan"].update(time_grid=SPAN_OVERFLOWS)),
    "correlate_time_grid_span_overflows": _edited(CORRELATE_DOC, lambda d: d.update(time_grid=SPAN_OVERFLOWS)),
    "baseline_time_grid_span_overflows": {
        "command": "baseline",
        "oscillator": {"n_values": [2, 4, 8]},
        "time_grid": SPAN_OVERFLOWS,
    },
    "plan_time_grid_extent_past_2_100": _edited(SWEEP_DOC, lambda d: d["plan"].update(time_grid=EXTENT_PAST_2_100)),
    "correlate_time_grid_extent_past_2_100": _edited(CORRELATE_DOC, lambda d: d.update(time_grid=EXTENT_PAST_2_100)),
    "baseline_time_grid_extent_past_2_100": {
        "command": "baseline",
        "oscillator": {"n_values": [2, 4, 8]},
        "time_grid": EXTENT_PAST_2_100,
    },
    # omega * t_end = 2^31: the control's amplitudes lose digits while its fit still reads -1
    "oscillator_control_phase_past_2_30": _edited(
        SWEEP_DOC,
        lambda d: (
            d["plan"].update(oscillator_control={"n_values": [2, 4, 8], "omega": 2.0**24}),
            d["plan"]["time_grid"].update(t_end=128.0),
        ),
    ),
}


@pytest.mark.parametrize("name", sorted(REJECTED_UP_FRONT))
def test_config_rejected_up_front(tmp_path, capsys, name):
    doc = REJECTED_UP_FRONT[name]
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    out = tmp_path / "out"
    assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


# keys gone from the schema, by their path: a config that still sets one is
# rejected by name. A cutoff read nothing; spectrum's solver.method, correlate's
# oscillation section and its echoed dense_cap gave way to the one solver section
REMOVED_KEYS = {
    "cutoff": {
        "command": "baseline",
        "oscillator": {"n_values": [2, 4, 8], "cutoff": 2},
        "time_grid": {"t_start": 0.0, "t_end": 20.0, "n_samples": 64},
    },
    "solver.method": {**SPECTRUM_DOC, "solver": {"method": "dense"}},
    "oscillation": _edited(CORRELATE_DOC, lambda d: d.update(oscillation={"max_peaks": 8})),
    "dense_cap": _edited(CORRELATE_DOC, lambda d: d.update(dense_cap=14)),
}


@pytest.mark.parametrize("path", sorted(REMOVED_KEYS))
def test_removed_key_is_unknown(tmp_path, capsys, monkeypatch, path):
    monkeypatch.delenv("TCSPIN_DENSE_CAP", raising=False)
    doc = REMOVED_KEYS[path]
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    for command in ("validate", doc["command"]):
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert f"unknown key(s) ['{path.split('.')[-1]}']" in capsys.readouterr().err
    assert not out.exists()


# lanczos_k = 2^N at N = 4 on the Lanczos route, past dense_max_sites = 3
LANCZOS_K_AT_THE_DIMENSION = {
    "sweep": _edited(
        SWEEP_DOC,
        lambda d: (d["plan"].update(n_values=[4]), d["plan"]["solver"].update(dense_max_sites=3, lanczos_k=16)),
    ),
    "correlate": _edited(
        CORRELATE_DOC, lambda d: (d["model"].update(n_sites=4), d["solver"].update(dense_max_sites=3, lanczos_k=16))
    ),
}


@pytest.mark.parametrize("name", sorted(LANCZOS_K_AT_THE_DIMENSION))
def test_lanczos_k_at_the_dimension_runs(tmp_path, name):
    cfg = write_config(tmp_path, LANCZOS_K_AT_THE_DIMENSION[name])
    assert main(["validate", "--config", cfg]) == 0
    assert main([name, "--config", cfg, "--out", str(tmp_path / "out")]) == 0


# the largest seed of the Lanczos start stream, on a Lanczos route: N = 6 past dense_max_sites = 4
LANCZOS_SEED_AT_THE_TOP = {
    "sweep": _edited(
        SWEEP_DOC,
        lambda d: d["plan"]["solver"].update(dense_max_sites=4, lanczos_k=2, lanczos_seed=(1 << 64) - 1),
    ),
    "spectrum": {
        "command": "spectrum",
        "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
        "solver": {"dense_max_sites": 4, "lanczos_k": 2, "lanczos_seed": (1 << 64) - 1},
    },
}


@pytest.mark.parametrize("name", sorted(LANCZOS_SEED_AT_THE_TOP))
def test_lanczos_seed_2_64_minus_1_runs(tmp_path, name):
    cfg = write_config(tmp_path, LANCZOS_SEED_AT_THE_TOP[name])
    assert main(["validate", "--config", cfg]) == 0
    out = tmp_path / "out"
    assert main([name, "--config", cfg, "--out", str(out)]) == 0
    if name == "sweep":
        (row,) = csv.DictReader((out / "sweep.csv").read_text().splitlines()[1:])
        assert (row["solver"], row["status"]) == ("lanczos", "ok")


def test_unreadable_config_exits_2(tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b'{"command": "correlate", "note": "gr\xf6\xdfe"}')  # Latin-1 bytes
    for config in (tmp_path, not_utf8):
        out = tmp_path / "out"
        assert main(["validate", "--config", str(config)]) == 2
        assert main(["correlate", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()
        assert "config error" in capsys.readouterr().err


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, CORRELATE_DOC)
    out = tmp_path / "out"
    out.write_text("kept")
    assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
    assert out.read_text() == "kept"
    assert "config error" in capsys.readouterr().err


# a malformed cap once crashed (dense spectrum), passed validate and then
# exited 3 after creating --out (krylov correlate), or ran with a meaningless cap
CAP_READERS = {
    "spectrum_dense": SPECTRUM_DOC,
    "spectrum_lanczos": _edited(SPECTRUM_DOC, lambda d: d.update(solver={"dense_max_sites": 0})),
    "correlate_krylov": CORRELATE_DOC,
    "sweep": SWEEP_DOC,
}


@pytest.mark.parametrize("raw", ["abc", "-1"])
@pytest.mark.parametrize("name", sorted(CAP_READERS))
def test_malformed_dense_cap_rejected_up_front(tmp_path, capsys, monkeypatch, name, raw):
    monkeypatch.setenv("TCSPIN_DENSE_CAP", raw)
    doc = CAP_READERS[name]
    cfg = write_config(tmp_path, doc)
    assert main(["validate", "--config", cfg]) == 2
    out = tmp_path / "out"
    assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    assert "TCSPIN_DENSE_CAP" in capsys.readouterr().err


class TestInitialStateRouting:
    def test_ghz_pair_requires_krylov_route(self, tmp_path):
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ghz_pair"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": "spectral",
        }
        cfg = write_config(tmp_path, doc)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_ghz_pair_with_krylov_succeeds(self, tmp_path):
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ghz_pair"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": "krylov",
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "correlation.csv").exists()

    @staticmethod
    def _basis_doc(method):
        # basis state 0 (all spins up) is not an eigenstate of the N=6 chain at J=0.5
        return {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "basis", "index": 0},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "method": method,
            "solver": {"step_tol": 1e-12},
        }

    def test_non_eigenstate_basis_runs_on_krylov_route(self, tmp_path):
        cfg = write_config(tmp_path, self._basis_doc("krylov"))
        assert main(["validate", "--config", cfg]) == 0
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 0
        osc = json.loads((out / "oscillation.json").read_text())
        assert osc["method"] == "krylov_general"
        t, values = read_series_csv(out / "correlation.csv")
        energies, vecs = np.linalg.eigh(to_dense(build_tc_hamiltonian(TCModelConfig(6, 0.5))))
        m_z = to_dense(magnetization_operator(6, "z"))
        psi = np.zeros(64)
        psi[0] = 1.0
        exact = []
        for time in t:
            u = (vecs * np.exp(-1j * energies * time)) @ vecs.conj().T
            exact.append(np.vdot(u @ psi, m_z @ (u @ (m_z @ psi))))
        assert np.max(np.abs(values - np.array(exact))) < 1e-8

    def test_non_positive_step_tol_on_non_eigenstate_basis_is_config_error(self, tmp_path):
        doc = self._basis_doc("krylov")
        doc["solver"]["step_tol"] = -1.0
        cfg = write_config(tmp_path, doc)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_non_eigenstate_basis_rejected_up_front_on_spectral_routes(self, tmp_path, method):
        cfg = write_config(tmp_path, self._basis_doc(method))
        assert main(["validate", "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
