"""Matrix-free spin-chain spectra, dynamics and finite-size scaling tools."""

import os

# One BLAS thread, set before numpy loads: on two cores OpenBLAS threads
# slow the small batched eigh and vector-sized BLAS calls of this package
# down, and they change result bits. An explicit setting in the
# environment wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

__version__ = "0.1.0"

from .dynamics import (  # noqa: E402
    CorrelationSeries,
    OscillationReport,
    TimeGrid,
    correlator_krylov,
    correlator_krylov_general,
    correlator_spectral,
    extract_oscillation,
    gap_frequency_consistency,
)
from .models import (  # noqa: E402
    PerturbationSpec,
    TCModelConfig,
    build_perturbation,
    build_tc_hamiltonian,
    magnetization_operator,
)
from .oscillator import (  # noqa: E402
    OscillatorControl,
    baseline_scaling,
    cm_correlator_analytic,
    cm_correlator_numeric,
)
from .pauli import (  # noqa: E402
    Operator,
    PauliString,
    StateVector,
    dense_cap,
    to_dense,
)
from .spectra import (  # noqa: E402
    GHZReport,
    SpectrumResult,
    dense_spectrum,
    ghz_overlap_report,
    lanczos_extremal,
)
from .sweep import (  # noqa: E402
    PerturbationFamily,
    SolverSettings,
    StabilityRow,
    SweepPlan,
    SweepRecord,
    fit_power_law,
    run_sweep,
    stability_monotonicity_flags,
    stability_report,
    summarize_sweep,
)

__all__ = [
    "CorrelationSeries",
    "GHZReport",
    "Operator",
    "OscillationReport",
    "OscillatorControl",
    "PauliString",
    "PerturbationFamily",
    "PerturbationSpec",
    "SolverSettings",
    "SpectrumResult",
    "StabilityRow",
    "StateVector",
    "SweepPlan",
    "SweepRecord",
    "TCModelConfig",
    "TimeGrid",
    "baseline_scaling",
    "build_perturbation",
    "build_tc_hamiltonian",
    "cm_correlator_analytic",
    "cm_correlator_numeric",
    "correlator_krylov",
    "correlator_krylov_general",
    "correlator_spectral",
    "dense_cap",
    "dense_spectrum",
    "extract_oscillation",
    "fit_power_law",
    "gap_frequency_consistency",
    "ghz_overlap_report",
    "lanczos_extremal",
    "magnetization_operator",
    "run_sweep",
    "stability_monotonicity_flags",
    "stability_report",
    "summarize_sweep",
    "to_dense",
]
