"""Readout calibration estimation and constrained least-squares mitigation.

Inverting the calibration matrix can push probability vectors out of the
simplex, so the mitigated vector is the exact minimizer of
|| Lambda p - b ||^2 over the simplex, found by a primal active-set method.
Every row of a (K, d) batch starts at the uniform vector with all
coordinates free, so all rows share the first, all-free step. A step solves
the KKT system [Lambda^T Lambda, 1; 1^T, 0] of the free face, pinned
coordinates held at 0. A feasible face optimum is taken. A row with nothing
pinned stops there, so one whose Lambda^-1 b lies in the simplex stops
after one step; only the others price the multipliers g_i + mu (g the
gradient, mu the sum multiplier), free the most negative, and stop when none
is below -1e-14 of the problem's scale. An infeasible optimum is approached
until a coordinate reaches zero, which is then pinned. The rows still moving
share one batched ``np.linalg.solve`` per step, a LAPACK solve per row.
"""

from __future__ import annotations

import numpy as np

from .noise import CalibrationMatrix


class ConvergenceError(RuntimeError):
    """The solver hit its step cap before every row reached the optimum."""


def calibration_from_counts(counts, n_shot: int) -> CalibrationMatrix:
    """The calibration matrix from a square table of counts, row i the
    outcome histogram recorded after preparing computational state i; every
    row must sum to ``n_shot``. Column j of the matrix is row j over n_shot."""
    try:
        c = np.array(counts, dtype=np.int64)
    except OverflowError:
        raise ValueError("counts must each fit a 64-bit integer") from None
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError("counts must form a square table")
    if (c < 0).any():
        raise ValueError("counts must be nonnegative")
    if n_shot <= 0:
        raise ValueError("n_shot must be positive")
    if (c.sum(axis=1) != n_shot).any():
        raise ValueError("every row must sum to n_shot")
    return CalibrationMatrix(c.T.astype(float) / float(n_shot))


def readout_fidelity(lam: CalibrationMatrix) -> float:
    """Mean probability of measuring the prepared state (diagonal average)."""
    return float(np.mean(np.diag(lam.matrix)))


def mitigate_least_squares(p_exp, lam: CalibrationMatrix, *, full_output: bool = False):
    """argmin_{p >= 0, sum p = 1} || Lambda p - b ||_2^2 for one vector b or
    each row of a (K, d) array, returned in the input's shape.

    ``full_output`` adds ``{"iterations": active-set steps summed over rows,
    "kkt_residual": largest KKT violation}``. Raises ValueError on a
    dimension mismatch or a singular calibration matrix, ConvergenceError
    after 10 d + 10 steps.
    """
    b = np.asarray(p_exp, dtype=float)
    m = lam.matrix
    d = m.shape[0]
    if b.ndim not in (1, 2) or b.shape[-1] != d:
        raise ValueError("calibration matrix and vector dimensions differ")
    gram = m.T @ m
    c = b.reshape(-1, d) @ m  # row k is Lambda^T b_k
    k = c.shape[0]
    bordered = np.ones((d + 1, d + 1))
    bordered[:d, :d], bordered[d, d] = gram, 0.0
    rhs = np.hstack([c, np.ones((k, 1))])
    p = np.full((k, d), 1.0 / d)
    free = np.ones((k, d + 1), dtype=bool)  # column d: the sum constraint, always on
    mu = np.zeros(k)
    iterations = 0
    moving = np.arange(k)
    for _ in range(10 * d + 10):
        if moving.size == 0:
            break
        f = free[moving]
        pinned = ~f.all(axis=1)
        # The bordered system on the free face; a pinned coordinate solves x_i = 0.
        if pinned.any():
            kkt = np.where(f[:, :, None] & f[:, None, :], bordered, np.eye(d + 1) * ~f[:, None, :])
            r = np.where(f, rhs[moving], 0.0)
        else:
            kkt, r = np.broadcast_to(bordered, (moving.size, d + 1, d + 1)), rhs[moving]
        try:
            sol = np.linalg.solve(kkt, r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            raise ValueError(f"the {d}x{d} calibration matrix is singular") from None
        target = sol[:, :d]
        iterations += moving.size

        # Feasible rows move to the face optimum and free the pinned coordinate
        # with the most negative multiplier; a row with none below -tol, or none pinned, ends.
        ok = (target >= 0.0).all(axis=1)
        at, out = moving[ok], moving[~ok]
        p[at] = target[ok]
        mu[at] = sol[ok, d]
        moving = moving[ok & pinned]
        if moving.size:
            tol = 1e-14 * (np.abs(gram).max() + np.abs(c[moving]).max(axis=1, initial=0.0))
            mult = p[moving] @ gram - c[moving] + mu[moving, None]
            mult[free[moving, :d]] = np.inf
            enter = mult.argmin(axis=1)
            improves = mult[np.arange(moving.size), enter] < -tol
            free[moving[improves], enter[improves]] = True
            moving = moving[improves]
        if out.size == 0:
            continue

        # Infeasible rows step towards the face optimum until a coordinate
        # reaches zero, and pin it.
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
        moving = np.concatenate([moving, out])
    if moving.size:
        raise ConvergenceError(
            f"{moving.size} of {k} rows still moving after {10 * d + 10} active-set steps"
        )
    p_out = p.reshape(b.shape)
    if not full_output:
        return p_out
    mult = p @ gram - c + mu[:, None]
    residual = np.abs(np.c_[np.minimum(p, mult), p.sum(axis=1) - 1.0]).max(initial=0.0)
    return p_out, {"iterations": iterations, "kkt_residual": float(residual)}
