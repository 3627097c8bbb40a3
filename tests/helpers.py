"""Shared random-state generators and loop-form references for the test
suite."""

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from nlmagic import (
    CalibrationMatrix,
    DepolarizedState,
    ErasureAngles,
    GateSpec,
    gate_matrix,
    nonlocal_magic,
    purity,
    reduced_purity,
    sre_exact,
)
from nlmagic.circuits import H_MATRIX, canonical_phase, rz_matrix
from nlmagic.erasure import _correlation_matrix, _euler, _m2_from_correlations, pauli_rotation
from nlmagic.mitigation import ConvergenceError
from nlmagic.qcore import PAULI_X, PAULI_Y, PAULI_Z, _PAULI_MAP, apply_to_axis, kept_qubits, pauli_matrix_stack
from nlmagic.rcm import _CLIFFORD_Z_IMAGES
from nlmagic.scenarios import _JSON_TYPES


def random_pure(rng: np.random.Generator, num_qubits: int) -> DepolarizedState:
    return random_depolarized(rng, num_qubits, 1.0)


def random_depolarized(rng: np.random.Generator, num_qubits: int, survival=None) -> DepolarizedState:
    """A Haar-random psi at the given survival, or at one drawn uniformly
    from [0, 1] when none is given."""
    d = 2**num_qubits
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    return DepolarizedState(vec / np.linalg.norm(vec), rng.uniform() if survival is None else survival)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def density_matrix(state: DepolarizedState) -> np.ndarray:
    """The explicit d x d matrix s |psi><psi| + (1 - s) I/d of a state."""
    s, d = state.survival, state.dim
    return s * np.outer(state.psi, state.psi.conj()) + (1.0 - s) * np.eye(d) / d


def partial_trace(rho: np.ndarray, keep) -> np.ndarray:
    """Reference reduced density matrix of an explicit d x d matrix on the
    kept qubits, which retain their relative order: one ``np.trace`` per
    traced qubit of the (2,)*2N view."""
    n = rho.shape[0].bit_length() - 1
    kept = kept_qubits(keep, n)
    traced = [q for q in range(n) if q not in kept]
    t = np.asarray(rho).reshape((2,) * (2 * n))
    # Row axis of qubit q is q, column axis is n + q.
    for k, q in enumerate(traced):
        t = np.trace(t, axis1=q - k, axis2=q - k + n - k)
    return t.reshape(2 ** len(kept), 2 ** len(kept))


_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_IH = np.kron(np.eye(2), _H)


def _rxy(theta: float, phi: float) -> np.ndarray:
    axis = np.cos(phi) * PAULI_X + np.sin(phi) * PAULI_Y
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return c * np.eye(2) - 1j * s * axis


def _rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-1j * theta / 2), 0], [0, np.exp(1j * theta / 2)]])


# Reference for ``gate_matrix``, bit for bit: each gate kind's unitary as a
# function of its angles, evaluated one gate at a time from scalar angles.
GATEWISE_MATRICES = {
    "Rx": lambda theta: _rxy(theta, 0.0),
    "Ry": lambda theta: _rxy(theta, np.pi / 2),
    "Rz": _rz,
    "Rxy": _rxy,
    "H": lambda: _H,
    "S": lambda: _rz(np.pi / 2),
    "T": lambda: _rz(np.pi / 4),
    "X": lambda: PAULI_X,
    "Y": lambda: PAULI_Y,
    "Z": lambda: PAULI_Z,
    "CZ": lambda: _CZ,
    "CNOT": lambda: _IH @ _CZ @ _IH,
}


def _expand_cnot(g: GateSpec) -> list[GateSpec]:
    """A CNOT as its three gates H CZ H, H on the target."""
    control, target = g.qubits
    return [GateSpec("H", (target,)), GateSpec("CZ", (control, target)), GateSpec("H", (target,))]


def gatewise_run_circuit(circuit, p_dep_cz: float = 1.0) -> DepolarizedState:
    """Reference for ``run_circuit``, bit for bit: each CNOT expanded to its
    three gates, and each single-qubit gate's own ``GATEWISE_MATRICES``
    unitary applied to its axis of the (2,)*N state tensor."""
    if not 0.0 <= p_dep_cz <= 1.0:
        raise ValueError("p_dep_cz must lie in [0, 1]")
    n = circuit.num_qubits
    psi = np.zeros((2,) * n, dtype=complex)
    psi[(0,) * n] = 1.0
    n_cz = 0
    for spec in circuit.gates:
        for g in _expand_cnot(spec) if spec.kind == "CNOT" else [spec]:
            if g.kind == "CZ":
                both_one = [slice(None)] * n
                both_one[g.qubits[0]] = both_one[g.qubits[1]] = 1
                psi[tuple(both_one)] *= -1
                n_cz += 1
            else:
                psi = apply_to_axis(GATEWISE_MATRICES[g.kind](*g.angles), psi, g.qubits[0])
    return DepolarizedState(psi, p_dep_cz**n_cz)


def _fits_float(n: int) -> bool:
    try:
        float(n)
    except OverflowError:
        return False
    return True


def itemwise_read(value, schema, path: str, source: str):
    """Reference for ``scenarios._read``: every item read on its own and
    named by its path."""
    if isinstance(schema, str):
        if value is None and schema[-1] == "?":
            return None
        kind, shown = schema.rstrip("?"), None
        if isinstance(value, bool) != (kind == "boolean") or not isinstance(value, _JSON_TYPES[kind]):
            problem = f"a JSON {kind}"
        elif isinstance(value, float) and not math.isfinite(value):
            problem = "a finite JSON number"
        elif kind == "number" and isinstance(value, int) and not _fits_float(value):
            problem, shown = "a JSON number within float range", f"a {len(str(abs(value)))}-digit integer"
        else:
            return value
        where = f"{source} key {path}" if path else f"a {source} file"
        raise ValueError(f"{where} must be {problem}, not {shown or json.dumps(value)}")
    if isinstance(schema, dict):
        if not isinstance(value, dict):
            value = {} if value is None and path else itemwise_read(value, "object", path, source)
        prefix, keys = f"{path}." if path else "", {key.rstrip("!"): key for key in schema}
        if unknown := sorted(set(value) - set(keys)):
            raise ValueError(f"unknown {source} key {', '.join(prefix + k for k in unknown)}")
        return {k: itemwise_read(value.get(k), schema[s], prefix + k, source) for k, s in keys.items() if k in value or k != s}
    if isinstance(schema, tuple):
        numbers = itemwise_read(value, ["number"], path, source)
        if len(numbers) != len(schema):
            raise ValueError(f"{source} key {path} has length {len(numbers)}, not {len(schema)} ({', '.join(schema)})")
        return numbers
    if not isinstance(value, list):
        value = itemwise_read(value, "array", path, source)
    items = [itemwise_read(x, schema[0], f"{path}[{i}]", source) for i, x in enumerate(value)]
    lengths = [len(row) for row in items] if isinstance(schema[0], list) else []
    for i, n in enumerate(lengths):
        if n != lengths[0]:
            raise ValueError(f"{source} key {path}[{i}] has length {n}, {path}[0] has length {lengths[0]}")
    return items


def kron_run_circuit(circuit, p_dep_cz: float = 1.0) -> np.ndarray:
    """Reference for ``run_circuit``: the explicit d x d state, every gate a
    d x d Kronecker-built operator applied as u @ rho @ u^dag and the
    channel p rho + (1 - p) I/d applied after every CZ."""
    if not 0.0 <= p_dep_cz <= 1.0:
        raise ValueError("p_dep_cz must lie in [0, 1]")
    n = circuit.num_qubits
    d = 2**n
    state = np.zeros((d, d), dtype=complex)
    state[0, 0] = 1.0
    for spec in circuit.gates:
        for g in _expand_cnot(spec) if spec.kind == "CNOT" else [spec]:
            if g.kind == "CZ":
                bits = (np.arange(d)[:, None] >> (n - 1 - np.array(g.qubits))) & 1
                u = np.diag(np.where(bits.all(axis=1), -1.0, 1.0).astype(complex))
            else:
                factors = [np.eye(2, dtype=complex)] * n
                factors[g.qubits[0]] = gate_matrix(g)
                u = functools.reduce(np.kron, factors)
            state = u @ state @ u.conj().T
            if g.kind == "CZ" and p_dep_cz < 1.0:
                state = p_dep_cz * state + (1.0 - p_dep_cz) * (np.eye(d, dtype=complex) / d)
    return state


def loop_clifford_group() -> list[np.ndarray]:
    """Reference for ``single_qubit_clifford_group``: the breadth-first
    closure over {H, S}, testing each candidate against every element found
    so far with ``np.allclose``."""
    generators = [H_MATRIX, rz_matrix(np.pi / 2)]
    elements = [canonical_phase(np.eye(2, dtype=complex))]
    frontier = list(elements)
    while frontier:
        fresh = []
        for u in frontier:
            for g in generators:
                cand = canonical_phase(g @ u)
                if not any(np.allclose(cand, e, atol=1e-9) for e in elements):
                    elements.append(cand)
                    fresh.append(cand)
        frontier = fresh
    return elements


def all_clifford_tuples(num_qubits: int) -> np.ndarray:
    """Reference for ``rcm.signed_bases``: every one of the 24^N local
    Clifford id tuples once, in lexicographic order, shape (24^N, N)."""
    grids = np.meshgrid(*([np.arange(24)] * num_qubits), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def nonlocal_magic_schmidt(lam: float) -> float:
    """Reference two-qubit non-local magic in the Schmidt weight lam,
    -log2(4 (lam - 1) lam (1 - 2 lam)^2 + 1): the reduced-purity form with
    P_A = lam^2 + (1 - lam)^2 substituted."""
    return float(-np.log2(4.0 * (lam - 1.0) * lam * (1.0 - 2.0 * lam) ** 2 + 1.0))


def schmidt_state(lam: float, survival: float = 1.0) -> DepolarizedState:
    """sqrt(lam)|00> + sqrt(1 - lam)|11> at the given survival."""
    return DepolarizedState([np.sqrt(lam), 0.0, 0.0, np.sqrt(1.0 - lam)], survival)


def check_distillation_lemma(psi: DepolarizedState, c_factorized: np.ndarray):
    """Reference check that a factorized Clifford distills at most the local magic.

    ``psi`` is a pure two-qubit state on subsystems A (qubit 0) and
    B (qubit 1); an ancilla in |0> is appended as qubit 2 and
    ``c_factorized`` (an 8x8 Clifford of the form C_A (x) C_BC) is applied.
    If the output splits as psi' on (A, B) times phi on the ancilla, returns
    True when M2(phi) <= the local magic of psi (up to 1e-9), False when
    the bound is violated. The local magic is M2(psi) minus the non-local
    magic ``nonlocal_magic(P_A)`` of qubit 0's reduced purity P_A. Returns
    None when the output does not factorize, which makes the bound
    inapplicable rather than violated. The output is
    read as a 4x2 matrix (A B, ancilla), whose SVD sigma_0 u_0 vh_0 +
    sigma_1 u_1 vh_1 gives the ancilla's purity 1 - 2 sigma_0^2 sigma_1^2
    and, when that is 1, phi = vh_0.
    """
    if psi.num_qubits != 2:
        raise ValueError("input state must be on two qubits")
    if purity(psi) < 1.0 - 1e-9:
        raise ValueError("input state must be pure")
    c = np.asarray(c_factorized, dtype=complex)
    if c.shape != (8, 8):
        raise ValueError("Clifford must act on three qubits")
    if np.max(np.abs(c.conj().T @ c - np.eye(8))) > 1e-9:
        raise ValueError("Clifford must be unitary")
    out = c @ np.kron(psi.psi, [1.0, 0.0])
    _, sigma, vh = np.linalg.svd(out.reshape(4, 2))
    if 2.0 * (sigma[0] * sigma[1]) ** 2 > 1e-9:
        return None
    m_local = sre_exact(psi) - nonlocal_magic(reduced_purity(psi, {0}))
    return sre_exact(DepolarizedState(vh[0])) <= m_local + 1e-9


def expectations_from_matrix(mat: np.ndarray, num_qubits: int) -> np.ndarray:
    """Reference Pauli spectrum Re Tr(P mat) of an explicit d x d matrix by
    per-qubit contraction: mat as (2,)*2N, each qubit's (row, column) pair
    fused into one axis of size 4 and ``qcore._PAULI_MAP`` applied per axis."""
    n = num_qubits
    pairs = [axis for q in range(n) for axis in (q, n + q)]
    fused = np.asarray(mat).reshape((2,) * (2 * n)).transpose(pairs).reshape((4,) * n)
    for q in range(n):
        fused = apply_to_axis(_PAULI_MAP, fused, q)
    return fused.real.ravel()


def stack_spectrum(rho: np.ndarray) -> np.ndarray:
    """Reference Pauli spectrum Tr(P rho) of an explicit matrix, one trace
    per matrix of the 4^N stack (N <= 5: the stack takes 16^(N+1) bytes)."""
    return np.einsum("pij,ji->p", pauli_matrix_stack(rho.shape[0].bit_length() - 1), rho).real


def einsum_landscape(rho: np.ndarray, gammas, phis) -> np.ndarray:
    """Reference for ``sweep_landscape``'s landscape on an explicit 4 x 4
    matrix: one three-operand einsum over every (gamma, phi) pair of Rz
    rotations of its stack spectrum."""
    ra = pauli_rotation(0.0, 0.0, np.asarray(gammas, dtype=float))
    rb = pauli_rotation(0.0, 0.0, np.asarray(phis, dtype=float))
    return _m2_from_correlations(np.einsum("Aai,ij,Bbj->ABab", ra, stack_spectrum(rho).reshape(4, 4), rb))


# Pairs per block of ``pair_m2``: each temporary then holds 16 Ki doubles
# (128 KiB). On a 2-core Xeon VM a 128 x 128 rotation grid ran fastest near
# this size, about twice as fast as in one product.
_PAIRS_PER_BLOCK = 1024


def pair_m2(ra: np.ndarray, t: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """M2 of R_A t R_B^T for every pair of rotations ra (A, 4, 4) and
    rb (B, 4, 4), shape (A, B): one matrix product per block of side-A rows."""
    rt, rb_t = ra @ t, rb.reshape(-1, 4).T
    rows = max(1, _PAIRS_PER_BLOCK // len(rb))
    out = np.empty((len(ra), len(rb)))
    for i in range(0, len(ra), rows):
        tp = rt[i : i + rows].reshape(-1, 4) @ rb_t
        out[i : i + rows] = _m2_from_correlations(tp.reshape(-1, 4, len(rb), 4).transpose(0, 2, 1, 3))
    return out


def per_row_pair_m2(ra: np.ndarray, t: np.ndarray, rb: np.ndarray) -> np.ndarray:
    """Reference for ``pair_m2``: M2 of R_A t R_B^T over every pair of
    rotations, one einsum per side-A rotation."""
    return np.array([_m2_from_correlations(np.einsum("ij,Bbj->Bib", r @ t, rb)) for r in ra])


# Reference erasure optimizer. Refinement: step lengths tried along each
# direction, longest first; the Armijo constant; the rounding level of M2;
# the number of starts.
_LADDER = 0.5 ** np.arange(10)
_ARMIJO, _ROUNDING, _N_STARTS = 1e-4, 1e-15, 4


@dataclass(frozen=True)
class BfgsResult:
    angles: ErasureAngles
    residual_m2: float
    evaluations: int
    converged: bool


def expm_rotation(w: np.ndarray) -> np.ndarray:
    """Pauli-transfer matrix of the rotation by the vector w (..., 3) (Rodrigues)."""
    k = np.zeros(w.shape[:-1] + (4, 4))
    k[..., 1:, 1:] = np.cross(np.eye(3), w[..., None, :])
    theta = np.linalg.norm(w, axis=-1)[..., None, None]
    return np.eye(4) + np.sinc(theta / np.pi) * k + np.sinc(theta / (2 * np.pi)) ** 2 / 2 * (k @ k)


def m2_and_gradient(ra: np.ndarray, rb: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M2 of T' = R_A t R_B^T for rotations ra, rb (K, 4, 4) and its gradient
    (K, 6) in the body coordinates w of R_A expm_rotation(w_A) and
    R_B expm_rotation(w_B).

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


def grid_candidates() -> np.ndarray:
    """Coarse 45-degree candidates for one side. The leading Rz angle only
    needs {0, 45} degrees: adding 90 degrees multiplies the rotation by a
    Clifford on the left, which cannot change the magic of the state."""
    lead = np.deg2rad([0.0, 45.0])
    full = np.deg2rad(np.arange(0.0, 360.0, 45.0))
    combos = np.array(np.meshgrid(lead, full, full, indexing="ij"))
    return combos.reshape(3, -1).T


def bfgs_erasure(rho: DepolarizedState, tol: float = 1e-8, max_evaluations: int = 5000, seed: int = 0) -> BfgsResult:
    """Reference for ``optimize_erasure``: a numerical minimization of the
    erasure objective that assumes nothing about the state.

    A 45-degree grid over both Euler triples locates candidate basins. Its
    three best pairs and one uniform draw (``seed``) are refined together by
    BFGS in body coordinates: each iteration tries a fixed ladder of step
    lengths along every start's quasi-Newton direction in one batch and
    takes the longest Armijo step. A start stops when no component of its
    gradient, per radian of body rotation, exceeds ``tol``, or when no step
    lowers M2, and all stop before an iteration could exceed
    ``max_evaluations`` M2 evaluations (the grid not counted). The lowest
    start is returned, converged if its gradient is within ``tol``.
    """
    if max_evaluations < _N_STARTS:
        raise ValueError(f"max_evaluations must cover the {_N_STARTS} starts")
    t = _correlation_matrix(rho)
    candidates = grid_candidates()
    rots = pauli_rotation(*candidates.T)
    values = pair_m2(rots, t, rots)
    ia, ib = np.unravel_index(np.argsort(values, axis=None)[: _N_STARTS - 1], values.shape)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    x = np.vstack([np.hstack([candidates[ia], candidates[ib]]), rng.uniform(0.0, 2 * np.pi, size=6)])

    ra, rb = pauli_rotation(*x[:, :3].T), pauli_rotation(*x[:, 3:].T)
    f, g = m2_and_gradient(ra, rb, t)
    budget = max_evaluations - _N_STARTS
    h = np.tile(np.eye(6), (_N_STARTS, 1, 1))
    active = np.abs(g).max(axis=1) > tol
    while active.any() and budget >= active.sum() * (len(_LADDER) + 1):
        k = np.flatnonzero(active)
        p = -np.einsum("kij,kj->ki", h[k], g[k])
        w = _LADDER[:, None] * p[:, None]
        ta, tb = ra[k, None] @ expm_rotation(w[..., :3]), rb[k, None] @ expm_rotation(w[..., 3:])
        trial = _m2_from_correlations(ta @ t @ np.swapaxes(tb, -1, -2))
        armijo = trial <= f[k, None] + _ARMIJO * _LADDER * (g[k] * p).sum(axis=1)[:, None]
        # The longest Armijo step, or the full step where none passes.
        j = (np.arange(len(k)), armijo.argmax(axis=1))
        s, ta, tb = w[j], ta[j], tb[j]
        f_new, g_new = m2_and_gradient(ta, tb, t)
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
        active[k] = np.abs(g_new).max(axis=1) > tol
    best = int(np.argmin(f))
    return BfgsResult(
        angles=ErasureAngles(*_euler(ra[best]), *_euler(rb[best])),
        residual_m2=float(f[best]),
        evaluations=values.size + max_evaluations - budget,
        converged=bool(np.abs(g[best]).max() <= tol),
    )


def loop_landscape_to_csv(result) -> str:
    """Reference for ``landscape_to_csv``: one formatted line per element."""
    lines = ["gamma_deg,phi_deg,m2"]
    for i, g in enumerate(result.gamma_grid):
        for j, f in enumerate(result.phi_grid):
            lines.append(f"{np.degrees(g):.6f},{np.degrees(f):.6f},{result.landscape[i, j]:.12f}")
    return "\n".join(lines) + "\n"


def matmul_born_walsh(rho: DepolarizedState, ids: np.ndarray) -> np.ndarray:
    """Reference for ``rcm._born_walsh``: the Pauli index and the sign-flip
    count of every (draw, Walsh index) pair from two integer matrix
    products, the sign from the count's parity."""
    n = rho.num_qubits
    paulis, signs = _CLIFFORD_Z_IMAGES.T
    place = np.arange(n - 1, -1, -1)
    bits = (np.arange(2**n)[:, None] >> place) & 1
    index = (paulis[ids] * 4**place) @ bits.T
    flips = (signs[ids] < 0).astype(int) @ bits.T
    return np.where(flips % 2, -1.0, 1.0) * rho.pauli_spectrum[index]


def marginalize(p: np.ndarray, keep: set[int]) -> np.ndarray:
    """Marginal outcome distribution on the kept qubits, of a vector or of each row.

    Reference for ``rcm.estimate_rdm_purity``, which reads the reduced
    purity from the Walsh columns of the full outcome vectors: X_P of this
    marginal is the same number. P(s_A) = sum_{s_B} P(s_A, s_B), with kept
    qubits keeping their order; the qubit count is log2 of the vector
    length, which must be a power of two. Each traced qubit q is dropped by
    adding the two halves of a (..., 2^q, 2, rest) view, highest qubit
    first: one addition per entry and traced qubit, grouped pairwise when
    several are traced.
    """
    v = np.asarray(p, dtype=float)
    rows = v.shape[:1] if v.ndim == 2 else ()
    length = v.shape[-1] if rows else v.size
    n = length.bit_length() - 1
    if 2**n != length:
        raise ValueError(f"outcome vector length {length} is not a power of two")
    kept_qubits(keep, n)
    for q in sorted(set(range(n)).difference(keep), reverse=True):
        halves = v.reshape(rows + (2**q, 2, -1))
        v = (halves[..., 0, :] + halves[..., 1, :]).reshape(rows + (-1,))
    return v


def sum_marginalize(p: np.ndarray, keep: set[int], num_qubits: int) -> np.ndarray:
    """Reference for ``marginalize``: one ``sum`` over the traced axes of
    the (2,)*N view of a vector or of each row."""
    v = np.asarray(p, dtype=float)
    rows = v.shape[:1] if v.ndim == 2 else ()
    t = v.reshape(rows + (2,) * num_qubits)
    axes = tuple(len(rows) + q for q in range(num_qubits) if q not in keep)
    return t.sum(axis=axes).reshape(rows + (-1,))


def kron_calibration(per_qubit_eps, correlation: float = 0.0) -> np.ndarray:
    """Reference for ``synth_calibration_matrix``: the per-qubit flip
    matrices chained by ``np.kron``, then weight on the all-flipped outcome
    and renormalized columns when ``correlation`` is positive."""
    factors = [np.array([[1 - e01, e10], [e01, 1 - e10]], dtype=float) for e01, e10 in per_qubit_eps]
    lam = functools.reduce(np.kron, factors)
    if correlation > 0.0:
        d = lam.shape[0]
        lam[np.arange(d)[::-1], np.arange(d)] += correlation
        lam /= lam.sum(axis=0, keepdims=True)
    return lam


def full_kkt_mitigate(p_exp, lam: CalibrationMatrix):
    """Reference for ``mitigate_least_squares(..., full_output=True)``:
    every step assembles each moving row's face KKT with ``np.where``, even
    when nothing is pinned, prices every feasible row and runs the ratio
    step on an empty set of infeasible rows. Same iterates, same floating-point
    operations, so the same bytes."""
    b = np.asarray(p_exp, dtype=float)
    m = lam.matrix
    d = m.shape[0]
    gram = m.T @ m
    c = b.reshape(-1, d) @ m
    k = c.shape[0]
    tol = 1e-14 * (np.abs(gram).max() + np.abs(c).max(axis=1, initial=0.0))
    bordered = np.block([[gram, np.ones((d, 1))], [np.ones((1, d)), np.zeros((1, 1))]])
    rhs = np.hstack([c, np.ones((k, 1))])
    p = np.full((k, d), 1.0 / d)
    free = np.ones((k, d + 1), dtype=bool)
    mu = np.zeros(k)
    iterations = 0
    moving = np.arange(k)
    for _ in range(10 * d + 10):
        if moving.size == 0:
            break
        f = free[moving]
        kkt = np.where(f[:, :, None] & f[:, None, :], bordered, np.eye(d + 1) * ~f[:, None, :])
        sol = np.linalg.solve(kkt, np.where(f, rhs[moving], 0.0)[..., None])[..., 0]
        target = sol[:, :d]
        iterations += moving.size

        ok = (target >= 0.0).all(axis=1)
        at = moving[ok]
        p[at] = target[ok]
        mu[at] = sol[ok, d]
        mult = p[at] @ gram - c[at] + mu[at, None]
        mult[free[at, :d]] = np.inf
        enter = mult.argmin(axis=1)
        improves = mult[np.arange(at.size), enter] < -tol[at]
        free[at[improves], enter[improves]] = True

        out = moving[~ok]
        cur, tgt = p[out], target[~ok]
        neg = tgt < 0.0
        ratio = np.full(cur.shape, np.inf)
        ratio[neg] = cur[neg] / (cur[neg] - tgt[neg])
        alpha = ratio.min(axis=1, keepdims=True)
        nxt = cur + alpha * (tgt - cur)
        hit = (ratio <= alpha) | (nxt <= 0.0)
        nxt[hit] = 0.0
        p[out] = nxt
        free[out, :d] &= ~hit

        moving = np.concatenate([at[improves], out])
    if moving.size:
        raise ConvergenceError(f"{moving.size} of {k} rows still moving")
    mult = p @ gram - c + mu[:, None]
    residual = np.abs(np.c_[np.minimum(p, mult), p.sum(axis=1) - 1.0]).max(initial=0.0)
    return p.reshape(b.shape), {"iterations": iterations, "kkt_residual": float(residual)}
