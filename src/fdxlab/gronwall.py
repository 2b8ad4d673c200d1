"""Sublinear Gronwall envelope and its verification against direct ODE integration.

For nonnegative A1, A2, A3 and m in (0, 1), any f with
f(t) <= A1 + A2 int f^m + A3 int f is dominated by

    bound(t) = e^{A3 t} (A1^{1-m} + (1-m) A2 t)^{1/(1-m)}.

The comparison ODE g' = A2 g^m + A3 g, g(0) = A1 saturates the inequality up
to the e^{A3 t} relaxation, so an accurate integration of g must stay at or
below the bound; verify_against_ode checks exactly that with classic RK4.
integrate_comparison_ode rejects coefficients outside those ranges (and a T
that is not finite and > 0) with a ValueError naming the argument, so its
RK4 stages need no clamp at zero.
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
        # plain float comparisons, which NaN fails: gronwall-check builds 200 of these per pass
        for name, value in (("A1", self.A1), ("A2", self.A2), ("A3", self.A3)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
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

    Coefficients may be scalars or 1-D arrays; they broadcast to one batch of
    ODEs advanced in lockstep.  Returns (times, g) with g of shape
    (n_steps + 1, batch).  Raises a ValueError naming the argument unless
    A1, A2, A3 are finite and >= 0, m lies in (0, 1), T is finite and > 0
    and n_steps >= 1.

    Valid input keeps every stage argument >= 0 and pow(+0, m) = 0, so g^m
    needs no clamp.  A step writes its stages, stage arguments g + (h/2) k
    and weighted sum ((k1 + 2 k2) + 2 k3) + k4 into six preallocated rows
    and g + (h/6) sum into its own row of g: it allocates nothing.  With
    coefficient arrays, each draw's trajectory has the bits of its solo run.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    # views, not copies: numpy takes a sqrt fast path for a stride-0 exponent of 0.5,
    # so a broadcast scalar m keeps the bits it had when the ufunc broadcast it
    A1, A2, A3, m = np.broadcast_arrays(*(np.atleast_1d(np.asarray(a, dtype=float)) for a in (A1, A2, A3, m)))
    if A1.ndim != 1:
        raise ValueError("A1, A2, A3, m must be scalars or 1-D arrays")
    # min and max (NaN propagates), not elementwise comparisons: their boolean ufunc
    # loops are code the run touches nowhere else, about 0.2 MB of resident pages
    for name, a in (("A1", A1), ("A2", A2), ("A3", A3)):
        lo, hi = a.min(initial=0.0), a.max(initial=0.0)  # an empty batch passes
        if not (lo == 0.0 and hi < math.inf):
            raise ValueError(f"{name} must be finite and >= 0, got {float(hi if lo == 0.0 else lo)!r}")
    lo, hi = m.min(initial=0.5), m.max(initial=0.5)
    if not (0.0 < lo and hi < 1.0):
        raise ValueError(f"m must lie in (0, 1), got {float(hi if 0.0 < lo else lo)!r}")
    check_finite_positive("T", T)
    h = T / n_steps
    if h == 0.0:
        raise ValueError("step size underflow")
    # 0-d arrays: a ufunc takes them faster than Python floats, with the same bits
    half, whole, sixth, two = (np.array(v) for v in (0.5 * h, h, h / 6.0, 2.0))

    out = np.empty((n_steps + 1, len(A1)))
    out[0] = A1
    k1, k2, k3, k4, arg, tmp = np.empty((6, len(A1)))

    def rhs(x, k):  # k = A2 x^m + A3 x
        np.power(x, m, out=k)
        k *= A2
        np.multiply(A3, x, out=tmp)
        k += tmp

    for j in range(n_steps):
        g = out[j]
        rhs(g, k1)
        np.multiply(half, k1, out=arg)
        arg += g
        rhs(arg, k2)
        np.multiply(half, k2, out=arg)
        arg += g
        rhs(arg, k3)
        np.multiply(whole, k3, out=arg)
        arg += g
        rhs(arg, k4)
        k2 *= two
        k1 += k2
        k3 *= two
        k1 += k3
        k1 += k4
        k1 *= sixth
        np.add(g, k1, out=out[j + 1])
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
