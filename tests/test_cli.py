"""Command line front end: exit codes, strict configs, byte-stable outputs."""

import json

import numpy as np
import pytest

from tcspin import sweep
from tcspin.cli import main
from tcspin.models import TCModelConfig, build_tc_hamiltonian, magnetization_operator
from tcspin.pauli import to_dense

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
    "solver": {"method": "both"},
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
                "solver": {"method": "dense"},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        spec_doc = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        assert max(spec_doc["spectrum"]["residuals"]) < 1e-10
        assert len(spec_doc["spectrum"]["eigenvalues"]) == 64
        ghz_doc = json.loads((tmp_path / "out" / "ghz_report.json").read_text())
        assert ghz_doc["ghz_report"]["ghz_gap"] > 0
        assert spec_doc["config_hash"] == ghz_doc["config_hash"]

    def test_invalid_chain_size_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 3, "j_coupling": 1.0},
                "solver": {"method": "dense"},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "n_sites must be >= 4" in capsys.readouterr().err

    def test_oversized_k_is_config_error(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 4, "j_coupling": 1.0},
                "solver": {"method": "lanczos", "k": 17},
            },
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_unknown_key_rejected(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "command": "spectrum",
                "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5, "frobnicate": 1},
                "solver": {"method": "dense"},
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
                "solver": {"method": "both", "step_tol": 1e-12},
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
            "solver": {"method": "krylov", "step_tol": 1e-12},
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
            calls.append(mat.shape)
            return eigh(mat, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "solver": {"method": "both", "step_tol": 1e-12},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["correlate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == [(64, 64)]

    @pytest.mark.parametrize("max_iter", [8, 30])
    def test_unconverged_lanczos_is_numerical_failure(self, tmp_path, monkeypatch, capsys, max_iter):
        # 8 matvecs converge no pair, 30 converge one of the four asked for
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "6")
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "solver": {"method": "krylov", "lanczos_max_iter": max_iter},
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 3
        assert "Lanczos converged" in capsys.readouterr().err
        assert not (out / "oscillation.json").exists()

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_spectral_route_above_dense_cap_is_config_error(self, tmp_path, monkeypatch, method):
        monkeypatch.setenv("TCSPIN_DENSE_CAP", "6")
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ground"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "solver": {"method": method},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

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

    def test_duplicate_plan_rows_rejected(self, tmp_path):
        doc = json.loads(json.dumps(SWEEP_DOC))
        doc["plan"]["n_values"] = [6, 6]
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, SWEEP_DOC)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
        assert (out1 / "sweep_summary.json").read_bytes() == (out2 / "sweep_summary.json").read_bytes()


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

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2

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


class TestInitialStateRouting:
    def test_ghz_pair_requires_krylov_route(self, tmp_path):
        doc = {
            "command": "correlate",
            "model": {"type": "tc", "n_sites": 6, "j_coupling": 0.5},
            "observable": {"type": "magnetization", "axis": "z"},
            "initial_state": {"type": "ghz_pair"},
            "time_grid": {"t_start": 0.0, "t_end": 40.0, "n_samples": 64},
            "solver": {"method": "spectral"},
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
            "solver": {"method": "krylov", "step_tol": 1e-12},
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
            "solver": {"method": method, "step_tol": 1e-12},
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

    @pytest.mark.parametrize("method", ["spectral", "both"])
    def test_non_eigenstate_basis_rejected_up_front_on_spectral_routes(self, tmp_path, method):
        cfg = write_config(tmp_path, self._basis_doc(method))
        assert main(["validate", "--config", cfg]) == 2
        out = tmp_path / "out"
        assert main(["correlate", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()
