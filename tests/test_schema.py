"""The config reader and writer: strict keys, checked types, read inverts dump."""

import json

import pytest

from tcspin.cli import (
    BaselineConfig,
    CorrelateConfig,
    InitialState,
    Magnetization,
    PauliTerm,
    PauliTermsModel,
    PauliTermsObservable,
    SpectrumConfig,
    SpectrumOutput,
    SweepConfig,
)
from tcspin.dynamics import TimeGrid
from tcspin.errors import ConfigError
from tcspin.models import PerturbationSpec, TCModelConfig
from tcspin.schema import dump, read
from tcspin.sweep import OscillatorControl, PerturbationFamily, SolverSettings, SweepPlan

GRID = TimeGrid(0.0, 150.0, 192)
FIELD = PerturbationSpec(kind="random_onsite_field", strength=0.02, axis="x", seed=7, distribution="gaussian_unit")
PLAN = SweepPlan(
    n_values=(6, 8),
    j_values=(0.5, 1.0),
    grid=GRID,
    boundary="open",
    perturbations=(
        PerturbationFamily(kind="heisenberg_exchange", strengths=(0.0, 0.05)),
        PerturbationFamily(kind="random_onsite_field", strengths=(0.01,), seeds=(1, 2)),
    ),
    solver=SolverSettings(dense_max_sites=6, lanczos_k=2),
    oscillator_control=OscillatorControl(n_values=(2, 4, 8), m0=0.5),
)
TERM = PauliTerm(coeff=(1.0, -0.5), letters="ZX")

SECTIONS = [
    GRID,
    TCModelConfig(n_sites=8, j_coupling=0.5, boundary="open"),
    FIELD,
    SolverSettings(),
    PerturbationFamily(kind="random_onsite_field", strengths=(0.01, 0.02), axis="y", seeds=(3,)),
    OscillatorControl(n_values=(2, 4, 8)),
    PLAN,
    SweepConfig(plan=PLAN),
    SpectrumConfig(
        model=PauliTermsModel(n_sites=2, terms=(TERM,)),
        solver=SolverSettings(dense_max_sites=0, lanczos_k=2),
        output=SpectrumOutput(include_eigenvectors=True),
    ),
    CorrelateConfig(
        model=TCModelConfig(n_sites=6, j_coupling=0.5),
        observable=PauliTermsObservable(terms=(PauliTerm(coeff=(1.0, 0.0), letters="ZIIIII"),)),
        initial_state=InitialState(type="basis", index=3),
        time_grid=GRID,
        method="krylov",
        solver=SolverSettings(step_tol=1e-12, max_peaks=4),
        perturbations=(FIELD,),
    ),
    CorrelateConfig(
        model=TCModelConfig(n_sites=6, j_coupling=0.5),
        observable=Magnetization(axis="x"),
        initial_state=InitialState(type="ground"),
        time_grid=GRID,
        method="both",
    ),
    BaselineConfig(oscillator=OscillatorControl(n_values=(1, 2), m0=2.0, hbar=0.5), time_grid=GRID),
]


@pytest.mark.parametrize("section", SECTIONS, ids=lambda x: type(x).__name__)
def test_read_inverts_dump(section):
    text = json.dumps(dump(section))
    assert read(type(section), json.loads(text), "config") == section


def test_dump_fills_defaults_and_tags():
    doc = dump(SpectrumConfig(model=TCModelConfig(8, 0.5)))
    assert doc == {
        "model": {"type": "tc", "n_sites": 8, "j_coupling": 0.5, "boundary": "periodic"},
        "solver": {
            "dense_max_sites": 10, "lanczos_k": 6, "lanczos_tol": 1e-10, "lanczos_max_iter": 40000,
            "lanczos_seed": 7, "krylov_dim": 30, "step_tol": 1e-12, "max_peaks": 8,
        },
        "perturbations": [],
        "output": {"include_eigenvectors": False},
    }


def test_int_is_read_as_float():
    grid = read(TimeGrid, {"t_start": 0, "t_end": 10, "n_samples": 16}, "grid")
    assert grid == TimeGrid(0.0, 10.0, 16) and isinstance(grid.t_end, float)


@pytest.mark.parametrize(
    "cls, data, message",
    [
        (TimeGrid, {"t_start": 0.0, "t_end": 1.0, "n_samples": True}, "config.n_samples must be of type int"),
        (TimeGrid, {"t_start": 0.0, "t_end": 1.0, "n_samples": 16.0}, "config.n_samples must be of type int"),
        (TimeGrid, {"t_start": 0.0, "t_end": float("nan"), "n_samples": 16}, "config.t_end must be a finite number"),
        (TimeGrid, {"t_start": 0.0, "t_end": 1.0}, "missing required key(s) ['n_samples'] in config"),
        (TimeGrid, {"t_start": 1.0, "t_end": 0.0, "n_samples": 16}, "config: need t_end > t_start"),
        (TimeGrid, [0.0, 1.0, 16], "config must be a JSON object"),
        (TCModelConfig, {"n_sites": 6, "j_coupling": 0.5, "boundary": "ring"}, "config.boundary must be one of"),
        (PerturbationFamily, {"kind": "heisenberg_exchange", "strengths": 0.1}, "config.strengths must be a JSON array"),
        (SweepConfig, {"plan": {"n_values": [6], "j_values": [0.5], "grid": {}}}, "unknown key(s) ['grid'] in config.plan"),
        (
            SweepConfig,
            {"plan": {"n_values": [6], "j_values": ["0.5"], "time_grid": GRID.__dict__}},
            "config.plan.j_values[0] must be of type float",
        ),
        (
            SpectrumConfig,
            {"model": {"type": "ising"}},
            "config.model.type must be one of ['tc', 'pauli_terms']",
        ),
    ],
)
def test_reader_rejects(cls, data, message):
    with pytest.raises(ConfigError) as info:
        read(cls, data, "config")
    assert message in str(info.value)
