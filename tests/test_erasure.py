import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlmagic import (
    ErasureAngles,
    OptConfig,
    erasure_objective,
    nonlocal_magic,
    nonlocal_magic_theta,
    optimize_erasure,
    report_fig4,
    reduced_purity,
    run_circuit,
    sre_nlm_depolarized,
    state_circuit,
    sweep_landscape,
)
from nlmagic.circuits import GATES, STATES, rz_matrix
from nlmagic.cli import main
from nlmagic.erasure import (
    _correlation_matrix,
    _euler,
    degree_grid,
    first_minimum,
    landscape_to_csv,
    pauli_rotation,
)
from nlmagic.magic import m2_from_expectations, sre_exact
from nlmagic.qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, DepolarizedState
from nlmagic.scenarios import SWEEP_GRID_STEP_DEG, calibrate_p_dep

from helpers import (
    bfgs_erasure,
    density_matrix,
    einsum_landscape,
    expm_rotation,
    grid_candidates,
    loop_landscape_to_csv,
    m2_and_gradient,
    pair_m2,
    per_row_pair_m2,
    random_depolarized,
    random_pure,
    schmidt_state,
    stack_spectrum,
)

# Closed-form non-local magic of the catalogue state ``m``.
M_NONLOCAL = 0.1926451

_SIGMA = (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)
ry_matrix = GATES["Ry"][2]


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
    rotated = DepolarizedState(u @ rho.psi)
    assert abs(erasure_objective(rho, a) - sre_exact(rotated)) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2, 7])
def test_optimizer_reaches_nonlocal_magic_of_m(seed):
    m = run_circuit(state_circuit("m"))
    result = optimize_erasure(m, OptConfig(seed=seed))
    assert abs(result.residual_m2 - M_NONLOCAL) <= 5e-8
    assert result.evaluations == 1
    # The seed is unread: every seed returns the angles of seed 0.
    assert result.angles == optimize_erasure(m, OptConfig(seed=0)).angles


def _gradient_at(rho, angles):
    a = angles.as_array()
    return m2_and_gradient(pauli_rotation(*a[:3])[None], pauli_rotation(*a[3:])[None], _correlation_matrix(rho))[1][0]


def test_gradient_matches_central_differences():
    rho = run_circuit(state_circuit("m"), 0.9)
    t = _correlation_matrix(rho)
    x = np.random.default_rng(4).uniform(0.0, 2 * np.pi, size=(20, 6))
    ra, rb = pauli_rotation(*x[:, :3].T), pauli_rotation(*x[:, 3:].T)
    value, grad = m2_and_gradient(ra, rb, t)
    h = 1e-5
    for k in range(6):
        w = np.zeros((2, 6))
        w[:, k] = h, -h
        plus, minus = (m2_and_gradient(ra @ expm_rotation(v[:3]), rb @ expm_rotation(v[3:]), t)[0] for v in w)
        np.testing.assert_allclose(grad[:, k], (plus - minus) / (2 * h), rtol=0, atol=1e-7)
    assert abs(value[0] - erasure_objective(rho, ErasureAngles(*x[0]))) <= 1e-15


def test_exponential_map_and_euler_angles_invert_rotations():
    w = np.random.default_rng(5).normal(size=(50, 3))
    r = expm_rotation(w)
    np.testing.assert_allclose(r @ np.swapaxes(r, 1, 2), np.broadcast_to(np.eye(4), r.shape), rtol=0, atol=1e-14)
    np.testing.assert_allclose(r @ expm_rotation(-w), np.broadcast_to(np.eye(4), r.shape), rtol=0, atol=1e-14)
    np.testing.assert_array_equal(expm_rotation(np.zeros(3)), np.eye(4))
    # Rotating about z by a is Rz(a); Euler angles round-trip, also at beta = 0 or pi.
    np.testing.assert_allclose(
        expm_rotation(np.array([0.0, 0.0, 0.7])), pauli_rotation(0.7, 0.0, 0.0), rtol=0, atol=1e-15
    )
    for beta in (0.0, 1e-9, 1.3, 2.0, np.pi - 1e-9, np.pi):
        m = pauli_rotation(0.4, beta, -2.1)
        np.testing.assert_allclose(pauli_rotation(*_euler(m)), m, rtol=0, atol=1e-13)


# Pure states (U_A (x) U_B)(sqrt(lam)|00> + sqrt(1 - lam)|11>) cover every
# pure two-qubit state; lam = 1/2 is a Bell state, lam = 1 a product state.
# The numerical reference stalled up to 2.2e-8 above the floor for lam in
# [0.5, 0.51], where the landscape is flattest, so that band is drawn apart.
schmidt_weights = st.floats(0.5, 1.0) | st.floats(0.5, 0.51) | st.just(0.5) | st.just(1.0)
euler_angles = st.lists(angles, min_size=6, max_size=6)


def _schmidt_state(lam, euler, s=1.0) -> DepolarizedState:
    """s |psi><psi| + (1 - s) I/4 for psi the Schmidt state lam in the local frame ``euler``."""
    u = np.kron(
        rz_matrix(euler[0]) @ ry_matrix(euler[1]) @ rz_matrix(euler[2]),
        rz_matrix(euler[3]) @ ry_matrix(euler[4]) @ rz_matrix(euler[5]),
    )
    return DepolarizedState(u @ schmidt_state(lam).psi, s)


@settings(max_examples=40, deadline=None)
@given(schmidt_weights, euler_angles)
def test_floor_of_pure_states_is_their_nonlocal_magic(lam, euler):
    rho = _schmidt_state(lam, euler)
    result = optimize_erasure(rho)
    assert abs(result.residual_m2 - nonlocal_magic(reduced_purity(rho, {0}))) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(schmidt_weights, st.floats(0.0, 1.0), euler_angles, st.integers(0, 2**32 - 1))
@example(0.5, 1.0, [0.3, 1.1, -0.7, 2.0, 0.4, 5.5], 0)
@example(1.0, 0.9, [0.3, 1.1, -0.7, 2.0, 0.4, 5.5], 0)
@example(0.505, 0.959, [0.3, 1.1, -0.7, 2.0, 0.4, 5.5], 0)
def test_floor_of_depolarized_schmidt_states_is_closed_form(lam, s, euler, seed):
    rho = _schmidt_state(lam, euler, s)
    result = optimize_erasure(rho)
    expected = sre_nlm_depolarized(1.0 - s, 2.0 * np.arccos(np.sqrt(lam)))
    assert abs(result.residual_m2 - expected) <= 1e-12
    assert erasure_objective(rho, result.angles) == result.residual_m2
    assert result.residual_m2 <= bfgs_erasure(rho, seed=seed).residual_m2 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0) | st.just(0.0) | st.just(1.0))
def test_floor_matches_the_explicit_matrix(seed, s):
    state = random_depolarized(np.random.default_rng(seed), 2, s)
    result = optimize_erasure(state)
    a = result.angles
    u = np.kron(
        rz_matrix(a.alpha) @ ry_matrix(a.beta) @ rz_matrix(a.gamma),
        rz_matrix(a.delta) @ ry_matrix(a.eta) @ rz_matrix(a.phi),
    )
    rho = density_matrix(state)
    # M2 of the explicitly rotated matrix from its stack spectrum: measured
    # 10 eps over 2,000 states.
    rotated = float(m2_from_expectations(stack_spectrum(u @ rho @ u.conj().T), 4))
    assert abs(result.residual_m2 - rotated) <= 32 * np.finfo(float).eps
    # No point of a 30-degree Rz grid on the explicit matrix lies below the
    # floor (measured: never above the grid minimum).
    grid = degree_grid(30.0)
    assert result.residual_m2 <= einsum_landscape(rho, grid, grid).min() + 16 * np.finfo(float).eps


@pytest.mark.parametrize("p", [0.99, 0.959, 0.9, 0.7])
def test_floor_of_depolarized_m_is_closed_form(p):
    # The m circuit's Rx(pi/8) sets its Schmidt angle: lam = cos^2(pi/16).
    theta = np.pi / 8
    result = optimize_erasure(run_circuit(state_circuit("m"), p))
    assert abs(result.residual_m2 - sre_nlm_depolarized(1.0 - p, theta)) <= 1e-12


def test_converged_result_meets_the_gradient_criterion():
    rho = run_circuit(state_circuit("m"), 0.959)
    result = bfgs_erasure(rho, tol=1e-9, seed=5)
    assert result.converged
    assert np.abs(_gradient_at(rho, result.angles)).max() <= 1e-9


def test_small_budget_is_respected_and_not_converged():
    rho = run_circuit(state_circuit("m"))
    result = bfgs_erasure(rho, max_evaluations=10)
    assert result.evaluations <= len(grid_candidates()) ** 2 + 10
    assert result.converged is False
    assert np.abs(_gradient_at(rho, result.angles)).max() > 1e-8
    with pytest.raises(ValueError, match="max_evaluations"):
        bfgs_erasure(rho, max_evaluations=3)


def test_noise_free_sweep_minimum_is_nonlocal_magic():
    rho = run_circuit(state_circuit("m"))
    grid = np.deg2rad(np.arange(0.0, 360.0, 22.5))
    result = sweep_landscape(rho, grid, grid)
    expected = nonlocal_magic_theta(np.pi / 8)
    assert abs(result.residual_m2 - expected) <= 1e-10


def test_fig4_minimum_is_stable_under_one_ulp_shifts():
    grid = np.deg2rad(np.arange(0.0, 360.0, SWEEP_GRID_STEP_DEG))
    noisy = run_circuit(state_circuit("m"), calibrate_p_dep())
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


@pytest.mark.parametrize("step, gap, tol", [(7.5, 0.0, 1e-12), (7.0, 9.4e-4, 5e-6)], ids=["grid-7.5", "grid-7.0"])
def test_fig4_floor_flag_fails_when_the_grid_misses_the_floor(step, gap, tol, monkeypatch):
    # A 7-degree grid misses the minimum at phi = 67.5 degrees.
    from nlmagic import scenarios

    monkeypatch.setattr(scenarios, "SWEEP_GRID_STEP_DEG", step)
    report = report_fig4()
    flag = next(f for f in report.flags if f.name == "sweep minimum vs erasure floor")
    assert abs(flag.value - flag.target - gap) <= tol
    assert flag.passed == (step == 7.5)
    assert abs(optimize_erasure(run_circuit(state_circuit("m"), calibrate_p_dep())).residual_m2 - flag.target) <= 1e-12



# The closed form and the pair product round differently from the einsum
# references, which read the stack spectrum of the explicit matrix. Over
# 2,000 random states and grids the M2 values (of order 1) moved by at most
# 11 eps (closed form) and 10 eps (pair product); 16 eps is the stated
# tolerance.
_PAIR_TOL = 16 * np.finfo(float).eps


def _assert_sweep_matches_einsum_reference(rho, gammas, phis):
    result = sweep_landscape(rho, gammas, phis)
    reference = einsum_landscape(density_matrix(rho), gammas, phis)
    np.testing.assert_allclose(result.landscape, reference, rtol=0, atol=_PAIR_TOL)
    assert first_minimum(result.landscape) == first_minimum(reference)
    return result


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([(1, 1), (1, 7), (7, 1), (5, 9), (48, 48)]),
    st.booleans(),
)
def test_sweep_matches_einsum_reference(seed, shape, mixed):
    rng = np.random.default_rng(seed)
    rho = (random_depolarized if mixed else random_pure)(rng, 2)
    gammas, phis = (rng.uniform(-7.0, 7.0, size=n) for n in shape)
    result = _assert_sweep_matches_einsum_reference(rho, gammas, phis)
    assert result.landscape.shape == shape
    assert loop_landscape_to_csv(result) == landscape_to_csv(result)


def _vanishing_parts(t: np.ndarray) -> np.ndarray:
    """|a| and |b| of the X, Y block M = a-rotation + b-reflection, and the
    summed size of the four I/Z-X/Y vectors."""
    a = np.hypot(t[1, 1] + t[2, 2], t[2, 1] - t[1, 2]) / 2
    b = np.hypot(t[1, 1] - t[2, 2], t[1, 2] + t[2, 1]) / 2
    return np.array([a, b, np.abs(t[::3, 1:3]).sum() + np.abs(t[1:3, ::3]).sum()])


_ROOT_03, _ROOT_07 = np.sqrt([0.3, 0.7])
# States where terms of the closed form vanish, and which of
# ``_vanishing_parts`` vanish.
_DEGENERATE = {
    # Both Bloch vectors along Z: T is zero outside its I, Z block.
    "product-00": (lambda: DepolarizedState([1.0, 0.0, 0.0, 0.0], 0.9), [0, 1, 2]),
    # One Bloch vector in the X-Y plane: a zero X, Y block, but not zero vectors.
    "zero-xy-block": (lambda: DepolarizedState(np.kron([1.0, 0.0], [1.0, np.exp(0.7j)]) / np.sqrt(2), 0.8), [0, 1]),
    # sqrt(0.3) |01> + sqrt(0.7) |10>: M is a multiple of the identity.
    "pure-rotation": (lambda: DepolarizedState([0.0, _ROOT_03, _ROOT_07, 0.0]), [1, 2]),
    # sqrt(0.3) |00> + sqrt(0.7) |11>: M is a multiple of diag(1, -1).
    "pure-reflection": (lambda: DepolarizedState([_ROOT_03, 0.0, 0.0, _ROOT_07], 0.95), [0, 2]),
    "bell-psi4": (lambda: run_circuit(state_circuit("psi4")), [0, 2]),
    "s=0": (lambda: random_depolarized(np.random.default_rng(8), 2, 0.0), [0, 1, 2]),
}
_PARAMS = {"nlm": {"theta": np.pi / 5}, "m_sweep": {"gamma": 0.3, "phi": 1.1}}
_CATALOGUE = [(state_id, p) for state_id, (n, _) in STATES.items() if n == 2 for p in (1.0, 0.9)]


@pytest.mark.parametrize("name", list(_DEGENERATE))
def test_sweep_matches_einsum_reference_on_degenerate_states(name):
    build, vanishing = _DEGENERATE[name]
    rho = build()
    assert _vanishing_parts(_correlation_matrix(rho))[vanishing].max() <= 1e-15
    _assert_sweep_matches_einsum_reference(rho, degree_grid(2.0), degree_grid(2.0))
    gammas, phis = (np.random.default_rng(9).uniform(-7.0, 7.0, size=n) for n in (13, 29))
    _assert_sweep_matches_einsum_reference(rho, gammas, phis)


@pytest.mark.parametrize("state_id, p", _CATALOGUE, ids=[f"{i}-p{p}" for i, p in _CATALOGUE])
def test_sweep_matches_einsum_reference_on_catalogue_states(state_id, p):
    rho = run_circuit(state_circuit(state_id, _PARAMS.get(state_id)), p)
    _assert_sweep_matches_einsum_reference(rho, degree_grid(2.0), degree_grid(2.0))


def test_fig4_landscape_and_csv_match_references():
    grid = degree_grid(SWEEP_GRID_STEP_DEG)
    noisy = run_circuit(state_circuit("m"), calibrate_p_dep())
    result = sweep_landscape(noisy, grid, grid)
    reference = einsum_landscape(density_matrix(noisy), grid, grid)
    np.testing.assert_allclose(result.landscape, reference, rtol=0, atol=_PAIR_TOL)
    assert first_minimum(result.landscape) == first_minimum(reference)
    assert landscape_to_csv(result) == loop_landscape_to_csv(result)


@pytest.mark.parametrize("state", ["m", "lm", "random"])
def test_blocked_erasure_grid_matches_per_row_form(state):
    rng = np.random.default_rng(4)
    rho = random_depolarized(rng, 2) if state == "random" else run_circuit(state_circuit(state))
    t = _correlation_matrix(rho)
    rots = pauli_rotation(*grid_candidates().T)
    np.testing.assert_allclose(pair_m2(rots, t, rots), per_row_pair_m2(rots, t, rots), rtol=0, atol=_PAIR_TOL)
    # Blocks of 10 side-A rows with a last block of 7.
    ra, rb = (pauli_rotation(*rng.uniform(0.0, 7.0, size=(3, n))) for n in (37, 100))
    np.testing.assert_allclose(pair_m2(ra, t, rb), per_row_pair_m2(ra, t, rb), rtol=0, atol=_PAIR_TOL)


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_erasure_grids_stay_small_in_memory():
    # Peaks are about 0.003, 0.03 and 4.5 MB.
    m = run_circuit(state_circuit("m"))
    noisy = run_circuit(state_circuit("m"), calibrate_p_dep())
    grid = degree_grid(SWEEP_GRID_STEP_DEG)
    assert _peak_mb(lambda: optimize_erasure(m)) < 2.0
    assert _peak_mb(lambda: sweep_landscape(noisy, grid, grid)) < 2.0
    # A 0.5-degree sweep: its 720 x 720 landscape alone holds 4.0 MB, so
    # no temporary of that size may sit beside it.
    fine = degree_grid(0.5)
    assert _peak_mb(lambda: sweep_landscape(noisy, fine, fine)) < 8.0


@pytest.mark.parametrize("step", [0.0, -7.5, float("nan"), float("inf")])
def test_bad_step_is_a_clear_error(step, tmp_path, capsys):
    with pytest.raises(ValueError, match="step_deg must be finite and > 0"):
        degree_grid(step)
    scenario = tmp_path / "sweep.json"
    scenario.write_text('{"version": 1, "name": "sweep", "state": {"id": "m"}}')
    assert main(["erase", "sweep", "--scenario", str(scenario), "--step-deg", str(step)]) == 1
    assert "--step-deg must be finite and > 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "gammas", [[0.0, float("nan")], [float("inf")], [], [[0.0, 1.0], [2.0, 3.0]]], ids=["nan", "inf", "empty", "2d"]
)
def test_bad_angle_grid_is_a_clear_error(gammas):
    rho = run_circuit(state_circuit("m"))
    with pytest.raises(ValueError, match="non-empty, 1-D and finite"):
        sweep_landscape(rho, gammas, [0.0])
    with pytest.raises(ValueError, match="non-empty, 1-D and finite"):
        sweep_landscape(rho, [0.0], gammas)
