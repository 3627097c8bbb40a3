"""Simulation and estimation of local and non-local magic in small noisy
qubit registers: exact oracles, randomized Clifford measurements, readout
mitigation, the closed-form erasure floor, and benchmarking fits.

``__all__`` lists the public names, grouped by module. Every prepared
state is one ``DepolarizedState(psi, s)``, standing for
s |psi><psi| + (1 - s) I/d: ``run_circuit`` returns it for a circuit with
k CZs at s = p^k, and every oracle reads its closed form or its cached
Pauli spectrum. The non-local magic of a pure two-qubit state is
``nonlocal_magic(reduced_purity(state, {0}))``, and its local magic is
``sre_exact(state)`` minus that.
"""

from .qcore import (
    DepolarizedState,
    purity,
    reduced_purity,
)
from .circuits import (
    Circuit,
    GateSpec,
    gate_matrix,
    run_circuit,
    single_qubit_clifford_group,
    state_circuit,
)
from .noise import (
    CalibrationMatrix,
    sample_shots,
    synth_calibration_matrix,
)
from .magic import (
    nonlocal_magic,
    nonlocal_magic_noisy,
    nonlocal_magic_theta,
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
    sample_local_cliffords,
)
from .mitigation import (
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
    synth_rb_curve,
)
from .scenarios import (
    Report,
    Scenario,
    calibrate_p_dep,
    measure,
    report_fig3,
    report_fig4,
    report_table1,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "DepolarizedState", "purity", "reduced_purity",
    "Circuit", "GateSpec", "gate_matrix", "run_circuit",
    "single_qubit_clifford_group", "state_circuit",
    "CalibrationMatrix", "sample_shots", "synth_calibration_matrix",
    "nonlocal_magic", "nonlocal_magic_noisy", "nonlocal_magic_theta", "sre_exact",
    "sre_nlm_depolarized", "stabilizer_purity_exact",
    "EstimateWithError", "RcmDataset", "collect_dataset", "estimate_purity",
    "estimate_rdm_purity", "estimate_sre", "estimate_stabilizer_purity",
    "sample_local_cliffords",
    "calibration_from_counts", "mitigate_least_squares", "readout_fidelity",
    "ErasureAngles", "ErasureResult", "OptConfig", "erasure_objective", "optimize_erasure",
    "sweep_landscape",
    "DecayCurve", "DecayFit", "avg_gate_fidelity", "fit_exp_decay", "synth_rb_curve",
    "Report", "Scenario", "calibrate_p_dep", "measure", "report_fig3", "report_fig4",
    "report_table1", "run_scenario",
]
