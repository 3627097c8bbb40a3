"""Simulation and estimation of local and non-local magic in small noisy
qubit registers: exact oracles, randomized Clifford measurements, readout
mitigation, erasure optimization, and benchmarking fits."""

from .qcore import (
    DensityMatrix,
    PauliString,
    all_pauli_strings,
    partial_trace,
    pauli_expectations,
    purity,
    tensor,
)
from .circuits import (
    Circuit,
    CliffordElement,
    GateSpec,
    clifford_cardinality,
    gate_matrix,
    run_circuit,
    single_qubit_clifford_group,
    state_circuit,
)
from .noise import (
    CalibrationMatrix,
    NoiseConfig,
    apply_readout_noise,
    depolarize,
    sample_shots,
    synth_calibration_matrix,
)
from .magic import (
    MagicReport,
    SchmidtSpectrum,
    check_distillation_lemma,
    local_magic,
    magic_report,
    nonlocal_magic_from_rdm_purity,
    nonlocal_magic_noisy,
    nonlocal_magic_schmidt,
    nonlocal_magic_theta,
    schmidt_spectrum,
    sre_exact,
    sre_nlm_depolarized,
    stabilizer_purity_exact,
)
from .rcm import (
    EstimateWithError,
    RcmDataset,
    collect_dataset,
    estimate_purity,
    estimate_rdm_purity,
    estimate_sre,
    estimate_stabilizer_purity,
    marginalize,
    sample_local_cliffords,
)
from .mitigation import (
    InitializationCounts,
    calibration_from_counts,
    mitigate_least_squares,
    readout_fidelity,
)
from .erasure import (
    ErasureAngles,
    ErasureResult,
    OptConfig,
    erasure_objective,
    optimize_erasure,
    sweep_landscape,
)
from .benchfit import (
    DecayCurve,
    DecayFit,
    avg_gate_fidelity,
    fit_exp_decay,
    irb_fidelity,
    mw_crosstalk,
    synth_rb_curve,
)
from .scenarios import (
    Report,
    Scenario,
    calibrate_p_dep,
    report_fig3,
    report_fig4,
    report_table1,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
