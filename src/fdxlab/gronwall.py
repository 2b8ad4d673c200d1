"""Sublinear Gronwall envelope and its verification against direct ODE integration.

For nonnegative A1, A2, A3 and m in (0, 1), any f with
f(t) <= A1 + A2 int f^m + A3 int f is dominated by

    bound(t) = e^{A3 t} (A1^{1-m} + (1-m) A2 t)^{1/(1-m)}.

The comparison ODE g' = A2 g^m + A3 g, g(0) = A1 saturates the inequality up
to the e^{A3 t} relaxation, so an accurate integration of g must stay at or
below the bound; verify_against_ode checks exactly that with classic RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import check_finite_positive

MIN_STEPS = 100  # the fewest RK4 steps verify_against_ode accepts


@dataclass(frozen=True)
class GronwallCoeffs:
    A1: float
    A2: float
    A3: float
    m: float
    T: float

    def __post_init__(self):
        if min(self.A1, self.A2, self.A3) < 0.0:
            raise ValueError("A1, A2, A3 must be >= 0")
        if not (0.0 < self.m < 1.0):
            raise ValueError("m must lie in (0, 1)")
        check_finite_positive("T", self.T)


def gronwall_bound(c: GronwallCoeffs, t: float) -> float:
    """e^{A3 t} (A1^{1-m} + (1-m) A2 t)^{1/(1-m)} for t in (0, T)."""
    if not (0.0 < t < c.T):
        raise ValueError(f"t={t} outside (0, T={c.T})")
    return _bound_values(c.A1, c.A2, c.A3, c.m, np.asarray([t]))[0]


def _bound_values(A1, A2, A3, m, t):
    """The envelope at times t; coefficients and t broadcast (0^{1-m} = 0 for m < 1)."""
    base = A1 ** (1.0 - m) + (1.0 - m) * A2 * t
    return np.exp(A3 * t) * base ** (1.0 / (1.0 - m))


def integrate_comparison_ode(A1, A2, A3, m, T: float, n_steps: int):
    """Vectorized RK4 for g' = A2 g^m + A3 g, g(0) = A1 on [0, T].

    Coefficients may be scalars or equal-length arrays (a batch of ODEs
    advanced in lockstep).  Returns (times, g) with g of shape
    (n_steps + 1, batch).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    A1 = np.atleast_1d(np.asarray(A1, dtype=float))
    A2 = np.atleast_1d(np.asarray(A2, dtype=float))
    A3 = np.atleast_1d(np.asarray(A3, dtype=float))
    m = np.atleast_1d(np.asarray(m, dtype=float))
    h = T / n_steps
    if h <= 0.0 or not math.isfinite(h):
        raise ValueError("step size underflow")

    def rhs(g):
        return A2 * np.power(np.maximum(g, 0.0), m) + A3 * g

    g = A1.copy()
    out = np.empty((n_steps + 1, len(g)))
    out[0] = g
    for k in range(n_steps):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * h * k1)
        k3 = rhs(g + 0.5 * h * k2)
        k4 = rhs(g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = g
    times = np.linspace(0.0, T, n_steps + 1)
    return times, out


@dataclass(frozen=True)
class GronwallReport:
    max_gap: float  # max over steps of g(t) - bound(t); <= 0 means dominated
    max_rel_gap: float


def verify_against_ode(coeffs, n_steps: int = 2000):
    """Integrate the comparison ODE and report the worst excess over the bound.

    coeffs is one GronwallCoeffs (returns one GronwallReport) or a non-empty
    sequence sharing one T (returns a list of reports in input order); every
    draw is advanced in a single lockstep RK4 batch.
    """
    if n_steps < MIN_STEPS:
        raise ValueError(f"n_steps must be >= {MIN_STEPS}")
    batch = [coeffs] if isinstance(coeffs, GronwallCoeffs) else list(coeffs)
    if len({c.T for c in batch}) != 1:
        raise ValueError("need a non-empty batch of GronwallCoeffs sharing one T")
    A1, A2, A3, m = (np.array([getattr(c, k) for c in batch]) for k in ("A1", "A2", "A3", "m"))
    times, g = integrate_comparison_ode(A1, A2, A3, m, batch[0].T, n_steps)
    reports = []
    for j, c in enumerate(batch):
        # one column at a time: no second (steps x batch) envelope matrix
        bounds = _bound_values(c.A1, c.A2, c.A3, c.m, times)
        gap = g[:, j] - bounds
        rel = gap / np.maximum(1.0, bounds)
        k = int(np.argmax(rel))
        reports.append(GronwallReport(max_gap=float(gap[k]), max_rel_gap=float(rel[k])))
    return reports[0] if isinstance(coeffs, GronwallCoeffs) else reports
