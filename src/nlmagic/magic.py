"""Exact brute-force magic oracles and closed-form non-local magic.

The central quantity is the degree-2 stabilizer Renyi entropy

    M2(rho) = -log2 W(rho) + log2 P(rho) - log2 d,

with stabilizer purity W = d^-2 sum_P Tr(P rho)^4 and purity P = Tr(rho^2),
the sum running over all 4^N Pauli strings. For pure states this reduces to
the usual -log2( d^-1 sum_P Tr(P psi)^4 ); subtracting the 2-Renyi entropy
extends it to mixed states. M2 vanishes exactly on stabilizer states and on
the maximally mixed state, and is invariant under Clifford conjugation.

For two qubits the non-local part (the minimum of M2 over local unitaries)
of a pure state is a polynomial in the purity P_A of either single-qubit
reduced state,

    M_NL = -log2(4 P_A^2 - 6 P_A + 3),    P_A in [1/2, 1],

which is what makes it measurable without tomography. (With Schmidt weight
lambda, P_A = lambda^2 + (1 - lambda)^2.)
"""

from __future__ import annotations

import numpy as np

from .qcore import ATOL_STRUCT, DepolarizedState


def schmidt_decomposition(state: DepolarizedState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD u, sigma, vh of a two-qubit state's psi reshaped to 2x2:
    u^dag (x) conj(vh) takes psi to sigma_0 |00> + sigma_1 |11>, with
    sigma_0 >= sigma_1 >= 0."""
    if state.num_qubits != 2:
        raise ValueError("Schmidt decomposition is defined here for two qubits")
    return np.linalg.svd(state.psi.reshape(2, 2))


def stabilizer_purity_exact(state: DepolarizedState) -> float:
    """W(rho) = d^-2 sum_P Tr(P rho)^4 over the cached Pauli spectrum."""
    # Squared twice, as in M2: t ** 4 would call pow() per entry.
    return float(((state.pauli_spectrum**2) ** 2).sum()) / state.dim**2


def sre_exact(state: DepolarizedState) -> float:
    """Degree-2 stabilizer Renyi entropy, mixed-state convention."""
    return float(m2_from_expectations(state.pauli_spectrum, state.dim))


def m2_from_expectations(t: np.ndarray, dim: int) -> np.ndarray:
    """M2 from Pauli expectations along the last axis of ``t`` (batched)."""
    t2 = t**2
    return m2_from_purities((t2**2).sum(axis=-1) / dim**2, t2.sum(axis=-1) / dim, dim)


def m2_from_purities(w, pur, dim: int):
    """M2 = -log2 W + log2 P - log2 d from the stabilizer purity W and the
    purity P (scalars or arrays)."""
    return -np.log2(w) + np.log2(pur) - np.log2(dim)


# ---------------------------------------------------------------------------
# Closed forms for two-qubit non-local magic


def nonlocal_magic(p_a: float) -> float:
    """M_NL = -log2(4 P_A^2 - 6 P_A + 3) of a pure two-qubit state whose
    single-qubit reduced purity is P_A in [1/2, 1].

    A P_A within ATOL_STRUCT outside that interval is rounding (a Bell
    state's purity sums to 0.5 - 5.6e-16) and is clamped onto it.
    """
    if not 0.5 - ATOL_STRUCT <= p_a <= 1.0 + ATOL_STRUCT:
        raise ValueError(f"reduced purity {p_a} of a pure two-qubit state must lie in [0.5, 1]")
    p_a = min(max(p_a, 0.5), 1.0)
    # 0.0 - log2(1) is +0.0, where -log2(1) would be -0.0.
    return float(0.0 - np.log2(4.0 * p_a**2 - 6.0 * p_a + 3.0))


def nonlocal_magic_theta(theta: float) -> float:
    """M_NL(theta) = log2(8 / (7 + cos 4 theta)) with lam = cos^2(theta/2)."""
    return float(np.log2(8.0 / (7.0 + np.cos(4.0 * theta))))


class OutOfModelError(ValueError):
    """A measured value is incompatible with the assumed noise model."""


def nonlocal_magic_noisy(p_a_measured: float, p_dep: float, atol: float = 1e-9) -> float:
    """Undo global depolarizing on a measured reduced purity and evaluate M_NL.

    The channel maps the pure-state reduced purity P_A affinely,
    Tr(rho_A^2) = p^2 P_A + p(1-p) + (1-p)^2/2, so P_A follows by inverting
    that map and is clamped onto [1/2, 1]. A measured purity outside the
    attainable interval (beyond ``atol``) signals a mismatch with the
    global depolarizing model and raises.
    """
    if not 0.0 < p_dep <= 1.0:
        raise ValueError("p_dep must lie in (0, 1]")
    offset = p_dep * (1.0 - p_dep) + (1.0 - p_dep) ** 2 / 2.0
    lo, hi = p_dep**2 / 2.0 + offset, p_dep**2 + offset
    if not lo - atol <= p_a_measured <= hi + atol:
        raise OutOfModelError(
            f"reduced purity {p_a_measured} outside attainable [{lo}, {hi}]"
        )
    return nonlocal_magic(min(max((p_a_measured - offset) / p_dep**2, 0.5), 1.0))


def sre_nlm_depolarized(p_err: float, theta: float) -> float:
    """Closed-form M2 of the depolarized Schmidt-form state family.

    ``p_err`` is the error probability 1 - p_survival of the global
    depolarizing channel applied once after the entangling gate. At
    p_err = 0 this reduces to nonlocal_magic_theta(theta).
    """
    if not 0.0 <= p_err <= 1.0:
        raise ValueError("p_err must lie in [0, 1]")
    p = p_err
    inner = (p - 1.0) ** 4 * np.cos(4.0 * theta) + 5.0 * (p - 2.0) * p * ((p - 2.0) * p + 2.0) + 7.0
    return float(-np.log2(4.0 * inner) + np.log2(3.0 * (p - 2.0) * p + 4.0) + 3.0)
