"""Local magic erasure: objective, angle sweeps, and optimization.

Local rotations U_A = Rz(alpha) Ry(beta) Rz(gamma) and
U_B = Rz(delta) Ry(eta) Rz(phi) are applied to a two-qubit state and the
remaining stabilizer Renyi entropy is minimized. For a noise-free pure
state the floor of this landscape is exactly the state's non-local magic.

Everything works in the Pauli-correlation picture: a local unitary acts
on the 4x4 correlation matrix T[a, b] = Tr(rho sigma_a (x) sigma_b) by an
orthogonal Pauli-transfer matrix on each side, T -> R_A T R_B^T. For
U = Rz(a) Ry(b) Rz(g) that matrix is the closed-form product
Rz4(a) Ry4(b) Rz4(g) of plane rotations by the same angles, in the (X, Y)
plane for Rz and the (Z, X) plane for Ry. A grid of A side-A and B
side-B rotations is one (4A, 4) x (4, 4B) matrix product of the stacked
R_A t with the stacked R_B, taken in blocks of side-A rows (``_pair_m2``);
``sweep_landscape`` and the 45-degree grid of ``optimize_erasure`` both
run through it, and ``optimize_erasure`` refines the grid's best points by
batched BFGS on the analytic gradient of M2 in body coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .magic import m2_from_expectations
from .qcore import DensityMatrix, expectations_from_matrix

_TWO_PI = 2.0 * np.pi
_EYE4 = np.eye(4)
# Refinement: step lengths tried along each direction, longest first; the
# Armijo constant; the rounding level of M2; the number of starts.
_LADDER = 0.5 ** np.arange(10)
_ARMIJO, _ROUNDING, _N_STARTS = 1e-4, 1e-15, 4
# Pairs per block of ``_pair_m2``: each temporary then holds 16 Ki doubles
# (128 KiB). On a 2-core Xeon VM the 45-degree grid and the fig4 sweep both
# ran fastest near this size, about twice as fast as in one product.
_PAIRS_PER_BLOCK = 1024


@dataclass(frozen=True)
class ErasureAngles:
    """Euler angles of the two local rotations, wrapped to [0, 2 pi)."""

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    delta: float = 0.0
    eta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma", "delta", "eta", "phi"):
            object.__setattr__(self, name, float(np.mod(getattr(self, name), _TWO_PI)))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta, self.eta, self.phi])


@dataclass(frozen=True)
class OptConfig:
    """``tol``: a start has converged when no component of its gradient, per
    radian of body rotation (see ``_m2_and_gradient``), exceeds it.
    ``max_evaluations``: most M2 evaluations of the refinement, its four
    starts included (the grid is not counted). ``seed``: the uniform start."""

    tol: float = 1e-8
    max_evaluations: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < _N_STARTS:
            raise ValueError(f"max_evaluations must cover the {_N_STARTS} starts")


@dataclass(frozen=True)
class ErasureResult:
    angles: ErasureAngles
    residual_m2: float
    evaluations: int
    converged: bool = True
    landscape: Optional[np.ndarray] = None
    gamma_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None


def _correlation_matrix(rho: DensityMatrix) -> np.ndarray:
    if rho.num_qubits != 2:
        raise ValueError("erasure is defined for two-qubit states")
    return expectations_from_matrix(rho.matrix, 2).reshape(4, 4)


def _plane_rotation(theta, i: int, j: int) -> np.ndarray:
    """Identity except R[i, i] = R[j, j] = cos(theta), R[j, i] = -R[i, j] = sin(theta)."""
    theta = np.asarray(theta, dtype=float)
    c, s = np.cos(theta), np.sin(theta)
    r = np.empty(theta.shape + (4, 4))
    r[...] = _EYE4
    r[..., i, i] = r[..., j, j] = c
    r[..., i, j] = -s
    r[..., j, i] = s
    return r


def pauli_rotation(alpha, beta, gamma) -> np.ndarray:
    """Pauli-transfer matrix R of U = Rz(alpha) Ry(beta) Rz(gamma).

    U^dag sigma_a U = sum_b R[a, b] sigma_b. Broadcasts over array angles,
    giving shape (..., 4, 4).
    """
    return _plane_rotation(alpha, 1, 2) @ _plane_rotation(beta, 3, 1) @ _plane_rotation(gamma, 1, 2)


def _m2_from_correlations(t: np.ndarray) -> np.ndarray:
    return m2_from_expectations(t.reshape(*t.shape[:-2], 16), 4)


def _pair_m2(ra: np.ndarray, t: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """M2 of R_A t R_B^T for every pair of rotations ra (A, 4, 4) and
    rb (B, 4, 4), shape (A, B): one matrix product per block of side-A rows."""
    rt, rb_t = ra @ t, rb.reshape(-1, 4).T
    rows = max(1, _PAIRS_PER_BLOCK // len(rb))
    out = np.empty((len(ra), len(rb)))
    for i in range(0, len(ra), rows):
        tp = rt[i : i + rows].reshape(-1, 4) @ rb_t
        out[i : i + rows] = _m2_from_correlations(tp.reshape(-1, 4, len(rb), 4).transpose(0, 2, 1, 3))
    return out


def _euler(r: np.ndarray) -> np.ndarray:
    """Angles (alpha, beta, gamma) with pauli_rotation(alpha, beta, gamma) = r:
    alpha and beta from the Z column, gamma from alpha + gamma (beta < pi/2)
    or alpha - gamma (beta >= pi/2), both read off the X-Y block."""
    total = np.arctan2(r[2, 1] - r[1, 2], r[1, 1] + r[2, 2])
    diff = np.arctan2(-r[2, 1] - r[1, 2], r[2, 2] - r[1, 1])
    alpha = np.arctan2(r[2, 3], r[1, 3])
    beta = np.arctan2(np.hypot(r[1, 3], r[2, 3]), r[3, 3])
    return np.array([alpha, beta, total - alpha if r[3, 3] >= 0 else alpha - diff])


def _expm(w: np.ndarray) -> np.ndarray:
    """Pauli-transfer matrix of the rotation by the vector w (..., 3) (Rodrigues)."""
    k = np.zeros(w.shape[:-1] + (4, 4))
    k[..., 1:, 1:] = np.cross(np.eye(3), w[..., None, :])
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    return _EYE4 + np.sinc(theta / np.pi) * k + np.sinc(theta / (2 * np.pi)) ** 2 / 2 * (k @ k)


def _m2_and_gradient(ra: np.ndarray, rb: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M2 of T' = R_A t R_B^T for rotations ra, rb (K, 4, 4) and its gradient
    (K, 6) in the body coordinates w of R_A _expm(w_A) and R_B _expm(w_B).

    Only S = sum T'^4 moves: dM2 = -dS / (S ln 2). A body turn changes R by
    R G(e_k) = G(R e_k) R, so dS/dw = 4 R^T tau with tau the axial vector of
    C - C^T, C = T'^3 T'^T on side A and (T'^3)^T T' on side B.
    """
    tp = ra @ t @ np.swapaxes(rb, 1, 2)
    cube = tp**3
    grad = []
    for r, c in ((ra, cube @ np.swapaxes(tp, 1, 2)), (rb, np.swapaxes(cube, 1, 2) @ tp)):
        tau = np.stack([c[:, 3, 2] - c[:, 2, 3], c[:, 1, 3] - c[:, 3, 1], c[:, 2, 1] - c[:, 1, 2]], axis=1)
        grad.append(np.einsum("kji,kj->ki", r[:, 1:, 1:], tau))
    s4 = (cube * tp).sum(axis=(1, 2))
    return _m2_from_correlations(tp), -4.0 * np.hstack(grad) / (s4[:, None] * np.log(2.0))


def erasure_objective(rho: DensityMatrix, angles: ErasureAngles) -> float:
    """M2 after applying the local rotations to the state."""
    a = angles.as_array()
    return float(_m2_from_correlations(pauli_rotation(*a[:3]) @ _correlation_matrix(rho) @ pauli_rotation(*a[3:]).T))


def _grid_candidates() -> np.ndarray:
    """Coarse 45-degree candidates for one side. The leading Rz angle only
    needs {0, 45} degrees: adding 90 degrees multiplies the rotation by a
    Clifford on the left, which cannot change the magic of the state."""
    lead = np.deg2rad([0.0, 45.0])
    full = np.deg2rad(np.arange(0.0, 360.0, 45.0))
    combos = np.array(np.meshgrid(lead, full, full, indexing="ij"))
    return combos.reshape(3, -1).T


def optimize_erasure(rho: DensityMatrix, cfg: OptConfig = OptConfig()) -> ErasureResult:
    """Two-stage minimization of the erasure objective.

    A 45-degree grid over both Euler triples locates candidate basins. Its
    three best pairs and one uniform draw (cfg.seed) are refined together by
    BFGS in body coordinates: each iteration tries a fixed ladder of step
    lengths along every start's quasi-Newton direction in one batch and
    takes the longest Armijo step. A start stops at a gradient within
    cfg.tol or when no step lowers M2, and all stop before an iteration
    could exceed cfg.max_evaluations. The lowest start is returned,
    converged if its gradient is within cfg.tol. For a noise-free pure
    input the floor is the state's non-local magic.
    """
    t = _correlation_matrix(rho)
    candidates = _grid_candidates()
    rots = pauli_rotation(*candidates.T)
    # All pair values: one matrix product per block of side-A candidates.
    values = _pair_m2(rots, t, rots)
    ia, ib = np.unravel_index(np.argsort(values, axis=None)[: _N_STARTS - 1], values.shape)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    x = np.vstack([np.hstack([candidates[ia], candidates[ib]]), rng.uniform(0.0, _TWO_PI, size=6)])

    ra, rb = pauli_rotation(*x[:, :3].T), pauli_rotation(*x[:, 3:].T)
    f, g = _m2_and_gradient(ra, rb, t)
    budget = cfg.max_evaluations - _N_STARTS
    h = np.tile(np.eye(6), (_N_STARTS, 1, 1))
    active = np.abs(g).max(axis=1) > cfg.tol
    while active.any() and budget >= active.sum() * (len(_LADDER) + 1):
        k = np.flatnonzero(active)
        p = -np.einsum("kij,kj->ki", h[k], g[k])
        w = _LADDER[:, None] * p[:, None]
        ta, tb = ra[k, None] @ _expm(w[..., :3]), rb[k, None] @ _expm(w[..., 3:])
        trial = _m2_from_correlations(ta @ t @ np.swapaxes(tb, -1, -2))
        armijo = trial <= f[k, None] + _ARMIJO * _LADDER * (g[k] * p).sum(axis=1)[:, None]
        # The longest Armijo step, or the full step where none passes.
        j = (np.arange(len(k)), armijo.argmax(axis=1))
        s, ta, tb = w[j], ta[j], tb[j]
        f_new, g_new = _m2_and_gradient(ta, tb, t)
        budget -= trial.size + len(k)
        # Where rounding hides M2's decrease, keep a level step that shrinks g.
        level = (f_new <= f[k] + _ROUNDING) & (np.abs(g_new).max(axis=1) < np.abs(g[k]).max(axis=1))
        keep = armijo.any(axis=1) | level
        active[k[~keep]] = False
        k, s, ta, tb, f_new, g_new = k[keep], s[keep], ta[keep], tb[keep], f_new[keep], g_new[keep]
        # BFGS inverse-Hessian update; r = 0 skips it without positive curvature.
        y = g_new - g[k]
        ys = (y * s).sum(axis=1)
        r = np.divide(1.0, ys, out=np.zeros_like(ys), where=ys > 0)[:, None, None]
        v = np.eye(6) - r * s[:, :, None] * y[:, None, :]
        h[k] = v @ h[k] @ np.swapaxes(v, 1, 2) + r * s[:, :, None] * s[:, None, :]
        ra[k], rb[k], f[k], g[k] = ta, tb, f_new, g_new
        active[k] = np.abs(g_new).max(axis=1) > cfg.tol
    best = int(np.argmin(f))
    return ErasureResult(
        angles=ErasureAngles(*_euler(ra[best]), *_euler(rb[best])),
        residual_m2=float(f[best]),
        evaluations=values.size + cfg.max_evaluations - budget,
        converged=bool(np.abs(g[best]).max() <= cfg.tol),
    )


def sweep_landscape(
    rho: DensityMatrix, gamma_grid: Sequence[float], phi_grid: Sequence[float]
) -> ErasureResult:
    """Residual M2 over Rz(gamma) (x) Rz(phi) rotations, all other angles 0.

    Returns the full landscape matrix (gamma indexing rows) along with the
    location and value of its minimum. Both grids must be non-empty, 1-D
    and finite.
    """
    t = _correlation_matrix(rho)
    gammas = np.asarray(list(gamma_grid), dtype=float)
    phis = np.asarray(list(phi_grid), dtype=float)
    for grid in (gammas, phis):
        if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
            raise ValueError("angle grids must be non-empty, 1-D and finite")
    landscape = _pair_m2(pauli_rotation(0.0, 0.0, gammas), t, pauli_rotation(0.0, 0.0, phis))
    gi, pi = np.unravel_index(first_minimum(landscape), landscape.shape)
    angles = ErasureAngles(gamma=float(gammas[gi]), phi=float(phis[pi]))
    return ErasureResult(
        angles=angles,
        residual_m2=float(landscape[gi, pi]),
        evaluations=int(landscape.size),
        converged=True,
        landscape=landscape,
        gamma_grid=gammas,
        phi_grid=phis,
    )


def degree_grid(step_deg: float, name: str = "step_deg") -> np.ndarray:
    """Angles 0, step, 2 step, ... below 360 degrees, in radians. ``name``
    is the step's name in the error for a step that is not finite and > 0."""
    if not (np.isfinite(step_deg) and step_deg > 0):
        raise ValueError(f"{name} must be finite and > 0, got {step_deg}")
    return np.deg2rad(np.arange(0.0, 360.0, step_deg))


def first_minimum(values: np.ndarray) -> int:
    """Flat index of the first entry, in row-major order, within 1e-12 of
    the minimum. Symmetric landscapes have several minima equal up to
    rounding; this picks the same one whatever the rounding."""
    flat = np.ravel(values)
    return int(np.flatnonzero(flat <= flat.min() + 1e-12)[0])


def landscape_to_csv(result: ErasureResult) -> str:
    """CSV rows (gamma_deg, phi_deg, m2) for plotting."""
    if result.landscape is None:
        raise ValueError("result carries no landscape")
    lines = ["gamma_deg,phi_deg,m2"]
    phis = [f",{f:.6f}," for f in np.degrees(result.phi_grid)]
    for g, row in zip(np.degrees(result.gamma_grid), result.landscape.tolist()):
        gamma = f"{g:.6f}"
        lines.extend(gamma + f + format(v, ".12f") for f, v in zip(phis, row))
    return "\n".join(lines) + "\n"
