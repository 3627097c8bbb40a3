"""Local magic erasure: objective, angle sweeps, and the erasure floor.

Local rotations U_A = Rz(alpha) Ry(beta) Rz(gamma) and
U_B = Rz(delta) Ry(eta) Rz(phi) are applied to a two-qubit state and the
remaining stabilizer Renyi entropy is measured. Its floor over all local
rotations is the state's non-local magic.

Everything works in the Pauli-correlation picture: a local unitary acts
on the 4x4 correlation matrix T[a, b] = Tr(rho sigma_a (x) sigma_b) by an
orthogonal Pauli-transfer matrix on each side, T -> R_A T R_B^T. For
U = Rz(a) Ry(b) Rz(g) that matrix is the closed-form product
Rz4(a) Ry4(b) Rz4(g) of plane rotations by the same angles, in the (X, Y)
plane for Rz and the (Z, X) plane for Ry.

``sweep_landscape`` takes no product per pair: Rz(gamma) (x) Rz(phi) turns
only T's X, Y rows (by gamma) and columns (by phi), so sum T^2 is fixed
and M2 = log2(sum T^2 / sum T'^4). With 2-vectors as complex x + iy, sum
T'^4 is the fixed I, Z block's, plus |z|^4 (3 + cos 4 arg z') / 4 for each
I/Z-X/Y vector z' = z e^{i gamma} or z e^{i phi}, plus |a|^4 (3 + cos 4 arg
a') / 2 + |b|^4 (3 + cos 4 arg b') / 2 + 6 |ab|^2 (1 + cos 2 arg a' cos 2
arg b') for the X, Y block's rotation part a' = a e^{i(gamma - phi)} and
reflection part b' = b e^{i(gamma + phi)}: one (A, 4) x (4, B) product.

Every state is a ``DepolarizedState`` (psi, s), rho = s |psi><psi| +
(1 - s) I/4, whose cached Pauli spectrum is T. The floor needs no search:
local rotations fix T[0, 0] and the purity, so the depolarizing term does
not move the minimum, which psi reaches in Schmidt form
sqrt(lam) |00> + sqrt(1 - lam) |11> (``optimize_erasure``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .magic import m2_from_expectations, schmidt_decomposition
from .qcore import PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, DepolarizedState

_TWO_PI = 2.0 * np.pi
_EYE4 = np.eye(4)
_SIGMA = np.array([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


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
    """Unread: ``optimize_erasure`` is a closed form. ``seed`` is kept only
    because the ``oracles`` workload and the self-check of ``perfbench``
    call ``optimize_erasure(state, OptConfig(seed=...))``."""

    seed: int = 0


@dataclass(frozen=True, eq=False)
class ErasureResult:
    angles: ErasureAngles
    residual_m2: float
    evaluations: int
    landscape: Optional[np.ndarray] = None
    gamma_grid: Optional[np.ndarray] = None
    phi_grid: Optional[np.ndarray] = None


def _correlation_matrix(state: DepolarizedState) -> np.ndarray:
    if state.num_qubits != 2:
        raise ValueError("erasure is defined for two-qubit states")
    return state.pauli_spectrum.reshape(4, 4)


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


def _transfer_matrix(u: np.ndarray) -> np.ndarray:
    """Pauli-transfer matrix of a 2x2 unitary: R[a, b] = Tr(sigma_b U^dag sigma_a U) / 2."""
    return np.einsum("bij,aji->ab", _SIGMA, u.conj().T @ _SIGMA @ u).real / 2


def _m2_from_correlations(t: np.ndarray) -> np.ndarray:
    return m2_from_expectations(t.reshape(*t.shape[:-2], 16), 4)


def _rz_landscape(t: np.ndarray, gammas: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """M2 of Rz4(gamma) t Rz4(phi)^T, shape (A, B), by the module docstring's sum."""
    col, row = t[1, ::3] + 1j * t[2, ::3], t[::3, 1] + 1j * t[::3, 2]
    a = complex(t[1, 1] + t[2, 2], t[2, 1] - t[1, 2]) / 2
    b = complex(t[1, 1] - t[2, 2], t[1, 2] + t[2, 1]) / 2
    # sum T'^4 = fixed + Re(c_gamma x) + Re(c_phi y) + Re(x w(y)), x = e^{4i gamma}, y = e^{4i phi}:
    # one (A, 4) x (4, B) product. The fixed part is sum t^4 less the rest at gamma = phi = 0.
    c_gamma = (col**4).sum() / 4 + 3 * (a * b) ** 2
    c_phi = (row**4).sum() / 4 + 3 * (a.conjugate() * b) ** 2
    fixed = (t**4).sum() - (c_gamma + c_phi + (a**4 + b**4) / 2).real
    x, y = np.exp(4j * gammas), np.exp(4j * phis)
    w = (a**4 * y.conj() + b**4 * y) / 2
    s4 = np.array([fixed + (c_gamma * x).real, np.ones(len(x)), x.real, -x.imag]).T
    s4 = s4 @ np.array([np.ones(len(y)), (c_phi * y).real, w.real, w.imag])
    return np.subtract(np.log2((t**2).sum()), np.log2(s4, out=s4), out=s4)


def _euler(r: np.ndarray) -> np.ndarray:
    """Angles (alpha, beta, gamma) with pauli_rotation(alpha, beta, gamma) = r:
    alpha and beta from the Z column, gamma from alpha + gamma (beta < pi/2)
    or alpha - gamma (beta >= pi/2), both read off the X-Y block."""
    total = np.arctan2(r[2, 1] - r[1, 2], r[1, 1] + r[2, 2])
    diff = np.arctan2(-r[2, 1] - r[1, 2], r[2, 2] - r[1, 1])
    alpha = np.arctan2(r[2, 3], r[1, 3])
    beta = np.arctan2(np.hypot(r[1, 3], r[2, 3]), r[3, 3])
    return np.array([alpha, beta, total - alpha if r[3, 3] >= 0 else alpha - diff])


def erasure_objective(state: DepolarizedState, angles: ErasureAngles) -> float:
    """M2 after applying the local rotations to the state."""
    a = angles.as_array()
    return float(_m2_from_correlations(pauli_rotation(*a[:3]) @ _correlation_matrix(state) @ pauli_rotation(*a[3:]).T))


def optimize_erasure(state: DepolarizedState, cfg: OptConfig = OptConfig()) -> ErasureResult:
    """Erasure floor of the two-qubit state (psi, s) (for a pure state, its
    non-local magic) and the Euler angles of U_A = u^dag, U_B = conj(vh)
    that reach it, u sigma vh being the SVD of psi as a 2x2 matrix. Any s
    is in model: the depolarizing term does not move the minimum.
    ``cfg`` is unread.
    """
    u, _, vh = schmidt_decomposition(state)
    angles = ErasureAngles(*_euler(_transfer_matrix(u.conj().T)), *_euler(_transfer_matrix(vh.conj())))
    return ErasureResult(angles=angles, residual_m2=erasure_objective(state, angles), evaluations=1)


def sweep_landscape(
    state: DepolarizedState, gamma_grid: Sequence[float], phi_grid: Sequence[float]
) -> ErasureResult:
    """Residual M2 over Rz(gamma) (x) Rz(phi) rotations, all other angles 0.

    Returns the full landscape matrix (gamma indexing rows) along with the
    location and value of its minimum. Both grids must be non-empty, 1-D
    and finite. The landscape is the closed form of the module docstring,
    within 16 eps of M2 read off the explicitly rotated matrix (at most 11
    eps over 2,000 random states and grids).
    """
    t = _correlation_matrix(state)
    gammas = np.asarray(list(gamma_grid), dtype=float)
    phis = np.asarray(list(phi_grid), dtype=float)
    for grid in (gammas, phis):
        if grid.ndim != 1 or grid.size == 0 or not np.isfinite(grid).all():
            raise ValueError("angle grids must be non-empty, 1-D and finite")
    landscape = _rz_landscape(t, gammas, phis)
    gi, pi = np.unravel_index(first_minimum(landscape), landscape.shape)
    angles = ErasureAngles(gamma=float(gammas[gi]), phi=float(phis[pi]))
    return ErasureResult(
        angles=angles,
        residual_m2=float(landscape[gi, pi]),
        evaluations=int(landscape.size),
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
    # One %-format per landscape row: its template holds the gamma and phi
    # text, and "%.12f" formats a float exactly as format(v, ".12f") does.
    lines = ["gamma_deg,phi_deg,m2\n"]
    cells = [f",{phi:.6f},%.12f\n" for phi in np.degrees(result.phi_grid)]
    for g, row in zip(np.degrees(result.gamma_grid), result.landscape.tolist()):
        gamma = f"{g:.6f}"
        lines.append((gamma + gamma.join(cells)) % tuple(row))
    return "".join(lines)
