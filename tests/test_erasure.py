import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmagic import (
    ErasureAngles,
    OptConfig,
    erasure_objective,
    nonlocal_magic_theta,
    optimize_erasure,
    report_fig4,
    run_circuit,
    schmidt_spectrum,
    state_circuit,
    sweep_landscape,
)
from nlmagic.circuits import ry_matrix, rz_matrix
from nlmagic.erasure import first_minimum, pauli_rotation
from nlmagic.magic import sre_exact
from nlmagic.qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, DensityMatrix
from nlmagic.scenarios import SWEEP_GRID_STEP_DEG, SWEEP_P_DEP

# Closed-form non-local magic of the catalogue state ``m``.
M_NONLOCAL = 0.1926451

_SIGMA = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)


def trace_rotation(u: np.ndarray) -> np.ndarray:
    """Reference: R[a, b] = Tr(sigma_b U^dag sigma_a U) / 2 from nine traces."""
    r = np.zeros((4, 4))
    r[0, 0] = 1.0
    for a in range(1, 4):
        conj = u.conj().T @ _SIGMA[a] @ u
        for b in range(1, 4):
            r[a, b] = 0.5 * np.trace(_SIGMA[b] @ conj).real
    return r


angles = st.floats(-4 * np.pi, 4 * np.pi, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(angles, angles, angles)
def test_closed_form_rotation_matches_traces(alpha, beta, gamma):
    u = rz_matrix(alpha) @ ry_matrix(beta) @ rz_matrix(gamma)
    np.testing.assert_allclose(pauli_rotation(alpha, beta, gamma), trace_rotation(u), rtol=0, atol=1e-14)


def test_rotation_broadcasts_over_angle_arrays():
    rng = np.random.default_rng(2)
    x = rng.uniform(0.0, 2 * np.pi, size=(5, 3))
    batch = pauli_rotation(*x.T)
    assert batch.shape == (5, 4, 4)
    for k in range(5):
        np.testing.assert_array_equal(batch[k], pauli_rotation(*x[k]))


def test_objective_equals_oracle_of_rotated_state():
    rho = run_circuit(state_circuit("m"))
    a = ErasureAngles(0.3, 1.1, -0.7, 2.0, 0.4, 5.5)
    u = np.kron(
        rz_matrix(a.alpha) @ ry_matrix(a.beta) @ rz_matrix(a.gamma),
        rz_matrix(a.delta) @ ry_matrix(a.eta) @ rz_matrix(a.phi),
    )
    rotated = DensityMatrix(u @ rho.matrix @ u.conj().T)
    assert abs(erasure_objective(rho, a) - sre_exact(rotated)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_optimizer_reaches_nonlocal_magic_of_m(seed):
    result = optimize_erasure(run_circuit(state_circuit("m")), OptConfig(seed=seed))
    assert result.converged
    assert abs(result.residual_m2 - M_NONLOCAL) <= 5e-8


def test_noise_free_sweep_minimum_is_nonlocal_magic():
    rho = run_circuit(state_circuit("m"))
    grid = np.deg2rad(np.arange(0.0, 360.0, 22.5))
    result = sweep_landscape(rho, grid, grid)
    expected = nonlocal_magic_theta(schmidt_spectrum(rho).theta)
    assert abs(result.residual_m2 - expected) <= 1e-10


def test_fig4_minimum_is_stable_under_one_ulp_shifts():
    grid = np.deg2rad(np.arange(0.0, 360.0, SWEEP_GRID_STEP_DEG))
    noisy = run_circuit(state_circuit("m"), SWEEP_P_DEP)
    values = sweep_landscape(noisy, grid, grid).landscape
    # Its 90-degree symmetry gives several minima that agree to rounding.
    assert np.sum(values <= values.min() + 1e-12) > 1
    index = first_minimum(values)
    rng = np.random.default_rng(0)
    for _ in range(20):
        direction = np.where(rng.random(values.shape) < 0.5, -np.inf, np.inf)
        assert first_minimum(np.nextafter(values, direction)) == index
    reported = {v.name: v.value for v in report_fig4().values}
    assert (reported["gamma_min_deg"], reported["phi_min_deg"]) == (0.0, 67.5)
    assert np.unravel_index(index, values.shape) == (0, int(67.5 / SWEEP_GRID_STEP_DEG))
