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
plane for Rz and the (Z, X) plane for Ry, so a whole grid of candidate
rotations reduces to batched cos/sin and small matrix products.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .magic import m2_from_expectations
from .qcore import DensityMatrix, expectations_from_matrix

_TWO_PI = 2.0 * np.pi
_EYE4 = np.eye(4)


def _wrap(angle: float) -> float:
    return float(np.mod(angle, _TWO_PI))


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
            object.__setattr__(self, name, _wrap(getattr(self, name)))

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha, self.beta, self.gamma, self.delta, self.eta, self.phi])

    @classmethod
    def from_array(cls, values) -> "ErasureAngles":
        a = np.asarray(values, dtype=float).ravel()
        if a.size != 6:
            raise ValueError("need six angles")
        return cls(*a)


@dataclass(frozen=True)
class OptConfig:
    tol: float = 1e-8
    max_evaluations: int = 5000
    seed: int = 0


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


def _m2_at(x: np.ndarray, t: np.ndarray) -> float:
    """M2 of correlations t after the rotations with the six angles x."""
    r = pauli_rotation(*np.reshape(x, (2, 3)).T)
    return float(_m2_from_correlations(r[0] @ t @ r[1].T))


def erasure_objective(rho: DensityMatrix, angles: ErasureAngles) -> float:
    """M2 after applying the local rotations to the state."""
    if rho.num_qubits != 2:
        raise ValueError("erasure is defined for two-qubit states")
    return _m2_at(angles.as_array(), _correlation_matrix(rho))


def _grid_candidates() -> np.ndarray:
    """Coarse 45-degree candidates for one side, modulo left Clifford phases.

    The leading Rz angle only needs {0, 45} degrees: adding 90 degrees to it
    multiplies the rotation by a Clifford on the left, which cannot change
    the magic of the rotated state.
    """
    lead = np.deg2rad([0.0, 45.0])
    full = np.deg2rad(np.arange(0.0, 360.0, 45.0))
    combos = np.array(np.meshgrid(lead, full, full, indexing="ij"))
    return combos.reshape(3, -1).T


def optimize_erasure(rho: DensityMatrix, cfg: OptConfig = OptConfig()) -> ErasureResult:
    """Two-stage minimization of the erasure objective.

    A coarse 45-degree grid over both Euler triples locates candidate
    basins; simplex refinement polishes the best few within the evaluation
    budget. For a noise-free pure input the result lands on the state's
    non-local magic up to cfg.tol.
    """
    if rho.num_qubits != 2:
        raise ValueError("erasure is defined for two-qubit states")
    t = _correlation_matrix(rho)
    candidates = _grid_candidates()
    rots = pauli_rotation(*candidates.T)
    n_cand = len(candidates)

    # All pair values in chunks: rotated correlations for side A fixed.
    values = np.empty((n_cand, n_cand))
    for i in range(n_cand):
        values[i] = _m2_from_correlations(np.einsum("ij,Bbj->Bib", rots[i] @ t, rots))
    evaluations = n_cand * n_cand

    flat_order = np.argsort(values, axis=None)
    best_idx = np.unravel_index(flat_order[0], values.shape)
    best_val = float(values[best_idx])
    best_x = np.concatenate([candidates[best_idx[0]], candidates[best_idx[1]]])

    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    starts = []
    for k in range(3):
        ia, ib = np.unravel_index(flat_order[k], values.shape)
        starts.append(np.concatenate([candidates[ia], candidates[ib]]))
    starts.append(rng.uniform(0.0, _TWO_PI, size=6))

    # The refinement budget counts objective calls made by the simplex
    # stages only; the vectorized grid above is reported separately.
    refine_left = cfg.max_evaluations
    converged = False
    for x0 in starts:
        if refine_left <= 0:
            break
        res = minimize(
            _m2_at,
            x0,
            args=(t,),
            method="Nelder-Mead",
            options={
                "xatol": 1e-10,
                "fatol": cfg.tol * 1e-4,
                "maxfev": refine_left,
                "disp": False,
            },
        )
        refine_left -= res.nfev
        evaluations += res.nfev
        if res.fun < best_val:
            best_val = float(res.fun)
            best_x = res.x
        if res.success:
            converged = True
    return ErasureResult(
        angles=ErasureAngles.from_array(best_x),
        residual_m2=best_val,
        evaluations=evaluations,
        converged=converged,
    )


def sweep_landscape(
    rho: DensityMatrix, gamma_grid: Sequence[float], phi_grid: Sequence[float]
) -> ErasureResult:
    """Residual M2 over Rz(gamma) (x) Rz(phi) rotations, all other angles 0.

    Returns the full landscape matrix (gamma indexing rows) along with the
    location and value of its minimum.
    """
    if rho.num_qubits != 2:
        raise ValueError("erasure is defined for two-qubit states")
    gammas = np.asarray(list(gamma_grid), dtype=float)
    phis = np.asarray(list(phi_grid), dtype=float)
    if gammas.size == 0 or phis.size == 0:
        raise ValueError("grids must be non-empty")
    t = _correlation_matrix(rho)
    ra = pauli_rotation(0.0, 0.0, gammas)
    rb = pauli_rotation(0.0, 0.0, phis)
    landscape = _m2_from_correlations(np.einsum("Aai,ij,Bbj->ABab", ra, t, rb))
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
    for i, g in enumerate(result.gamma_grid):
        for j, f in enumerate(result.phi_grid):
            lines.append(
                f"{np.degrees(g):.6f},{np.degrees(f):.6f},{result.landscape[i, j]:.12f}"
            )
    return "\n".join(lines) + "\n"
