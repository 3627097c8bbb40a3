"""Benchmarking analytics: decay fits and fidelity formulas.

Survival curves from randomized-benchmarking style experiments follow
F(N) = A p^N + B; Gauss-Newton with an analytic Jacobian refines a
log-linear starting guess. The fidelity conversion is plain arithmetic
on the fitted decay base.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


class UnidentifiableDataError(ValueError):
    """The curve carries no decay information to fit."""


class FitFailureError(RuntimeError):
    """The decay fit left the physical parameter range."""


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Survival probability versus number of random gates."""

    n_cliffords: np.ndarray
    survival: np.ndarray

    def __post_init__(self):
        lengths = np.array(self.n_cliffords, dtype=float)
        if not (np.isfinite(lengths) & (lengths == np.round(lengths))).all():
            raise ValueError("sequence lengths must be integers")
        n = lengths.astype(int)
        y = np.array(self.survival, dtype=float)
        if n.ndim != 1 or y.ndim != 1 or n.size != y.size:
            raise ValueError("lengths and survival must be 1-d and aligned")
        if n.size < 4:
            raise ValueError("need at least four points to fit a decay")
        if (np.diff(n) <= 0).any():
            raise ValueError("sequence lengths must be strictly increasing")
        if not ((y >= 0) & (y <= 1)).all():
            raise ValueError("survival probabilities must be finite and lie in [0, 1]")
        n.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "n_cliffords", n)
        object.__setattr__(self, "survival", y)


@dataclass(frozen=True)
class DecayFit:
    a: float
    p: float
    b: float
    residual_rms: float

    def __post_init__(self):
        if not 0.0 < self.p <= 1.0:
            raise ValueError("decay base must lie in (0, 1]")
        # A + B extrapolates the curve to length 0, a probability. Noisy
        # data fitted without constraints fluctuates around the boundary,
        # so the physicality band scales with the residual level.
        slack = 1e-6 + 6.0 * max(self.residual_rms, 0.0)
        if not -slack <= self.a + self.b <= 1.0 + slack:
            raise ValueError(f"A + B = {self.a + self.b} is not a probability")


def decay_curve_from_csv(text: str) -> DecayCurve:
    """Parse a two-column CSV (sequence length, survival). Only the first
    non-blank line may be a header; any other row whose length is not a
    number, or that has no survival column, raises ``ValueError``."""
    rows = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1) if line.strip()]
    ns, ys = [], []
    for k, (number, line) in enumerate(rows):
        parts = line.split(",")
        try:
            n = float(parts[0])
        except ValueError:
            if k == 0:
                continue  # header row
            raise ValueError(f"line {number} has a length that is not a number: {line!r}") from None
        if len(parts) < 2:
            raise ValueError(f"line {number} has no survival column: {line!r}")
        ns.append(n)
        ys.append(float(parts[1]))
    return DecayCurve(np.array(ns), np.array(ys))


def _initial_guess(n: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    b0 = float(y.min())
    z = y - b0
    mask = z > 1e-12
    if mask.sum() < 2:
        return float(y.max() - b0), 0.99, b0
    coef = np.polyfit(n[mask], np.log(z[mask]), 1)
    p0 = float(np.exp(coef[0]))
    a0 = float(np.exp(coef[1]))
    p0 = min(max(p0, 1e-6), 1.0 - 1e-9)
    return a0, p0, b0


def fit_exp_decay(curve: DecayCurve) -> DecayFit:
    """Least-squares fit of A p^N + B by damped Gauss-Newton, at most 200
    steps."""
    n = curve.n_cliffords.astype(float)
    y = curve.survival
    if np.ptp(y) < 1e-12:
        raise UnidentifiableDataError("survival data is constant")
    a, p, b = _initial_guess(n, y)

    def residual(a_, p_, b_):
        return a_ * p_**n + b_ - y

    r = residual(a, p, b)
    cost = float(r @ r)
    for _ in range(200):
        pn = p**n
        jac = np.stack([pn, a * n * p ** (n - 1.0), np.ones_like(n)], axis=1)
        try:
            step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        except np.linalg.LinAlgError:  # pragma: no cover
            break
        scale = 1.0
        for _ in range(30):
            a_new = a + scale * step[0]
            p_new = min(max(p + scale * step[1], 1e-9), 1.0)
            b_new = b + scale * step[2]
            r_new = residual(a_new, p_new, b_new)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                break
            scale *= 0.5
        else:
            break  # no step length lowers the cost: keep the current point
        converged = cost - cost_new < 1e-16 and np.linalg.norm(step) * scale < 1e-12
        a, p, b, r, cost = a_new, p_new, b_new, r_new, cost_new
        if converged:
            break
    if not 0.0 < p <= 1.0:
        raise FitFailureError(f"fitted decay base {p} outside (0, 1]")
    rms = float(np.sqrt(cost / n.size))
    return DecayFit(float(a), float(p), float(b), rms)


def avg_gate_fidelity(p: float, d: int) -> tuple[float, float]:
    """Clifford and per-physical-gate fidelity from a decay base.

    f_cl = 1 - (d-1)/d * (1 - p); the per-gate value takes the 1/1.875
    root, the average number of physical gates per Clifford.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if d < 2:
        raise ValueError("dimension must be >= 2")
    f_cl = 1.0 - (d - 1) / d * (1.0 - p)
    return float(f_cl), float(f_cl ** (1.0 / 1.875))


def synth_rb_curve(
    a: float,
    p: float,
    b: float,
    points: Sequence[int],
    noise_sigma: float = 0.0,
    seed: int = 0,
) -> DecayCurve:
    """Deterministic noisy samples of the decay model, clamped to [0, 1]."""
    n = np.array(sorted(set(int(x) for x in points)), dtype=int)
    y = a * np.asarray(p, dtype=float) ** n + b
    if noise_sigma > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        y = y + rng.normal(0.0, noise_sigma, size=n.size)
    return DecayCurve(n, np.clip(y, 0.0, 1.0))
