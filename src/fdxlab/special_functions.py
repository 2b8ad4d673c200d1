"""The Orlicz gauge psi_alpha, the weight eta, and the implicit profile map gamma.

    psi_alpha(xi) = xi * [log(e + xi)]^alpha          (convex, increasing, 0 at 0)
    eta(xi)       = xi^N * [log(e + 1/xi)]^{N/2}      (increasing on (0, 1], 0 at 0+)

gamma is defined implicitly on [0, 1] by

    int_0^{gamma(xi)} s * eta(s)^{m-1} ds = C_eta * xi,
    C_eta = int_0^1 s * eta(s)^{m-1} ds,

so gamma(0) = 0, gamma(1) = 1, and gamma is strictly increasing.  The
integrand equals s^{kappa-1} * [log(e + 1/s)]^{N(m-1)/2}; it is integrable at
s = 0 exactly when kappa = N(m-1) + 2 > 0.  Quadrature is done after the
substitution s = exp(-tau), which turns the endpoint grading into an
exponentially decaying smooth integrand on [0, inf): the cumulative integral
at all the table points of gamma, C_eta among them, comes from one batched
G7/K15 pass of profiles._gk_panels.

scipy's interpolation and root-finding are imported inside GammaFn.build and
GammaFn.value_exact: no CLI subcommand evaluates gamma, so none pays for
loading them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exponents import ProblemParams, derive_exponents
from .profiles import _gk_panels

_E = math.e


def psi(alpha: float, xi):
    """psi_alpha(xi) = xi * log(e + xi)^alpha for xi >= 0 (scalar or array); a NaN xi gives NaN."""
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0):
        raise ValueError("psi requires xi >= 0")
    out = xi_arr * np.log(_E + xi_arr) ** alpha
    return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def _psi_newton(alpha: float, x, y, log):
    """One Newton step on psi_alpha(x) = y from x: log is math.log for a float x, np.log for an array."""
    lg = log(_E + x)
    return x - (x * lg**alpha - y) / (lg**alpha + x * alpha * lg ** (alpha - 1.0) / (_E + x))


def psi_inv(alpha: float, y: float) -> float:
    """Inverse of psi_alpha by Newton's method, exact to rounding.

    The start x0 = y / log(e + y)^alpha has psi_alpha(x0) <= y, and psi_alpha
    is increasing and convex, so the first step lands at or above the root
    and every later step decreases x monotonically onto it.  The iteration
    stops when a step no longer lowers x.
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    if not y >= 0.0:
        raise ValueError(f"y must be >= 0, got {y!r}")
    if y == 0.0 or math.isinf(y):
        return y
    x = _psi_newton(alpha, y / math.log(_E + y) ** alpha, y, math.log)
    while True:
        x_new = _psi_newton(alpha, x, y, math.log)
        if not x_new < x:
            return x
        x = x_new


def psi_inv_array(alpha: float, y) -> np.ndarray:
    """psi_inv of every element of y: the same Newton step (_psi_newton) from the same start, with np.log.

    Each element stops where a step no longer lowers it, as in psi_inv; a
    stopped element recomputes the same step and stays put, so the whole
    array steps until none moves.  0 and inf map to themselves.  np.log may
    differ from libm log in the last ulp, so an element may differ from
    psi_inv by a few ulps (about 4e-16 relative); ulmorrey rechecks the
    entries near a scan's maximum with psi_inv.
    """
    if not alpha >= 0.0:
        raise ValueError(f"alpha must be >= 0, got {alpha!r}")
    y = np.array(y, dtype=float)
    if not np.all(y >= 0.0):
        raise ValueError("y must be >= 0 in every element")
    live = (y > 0.0) & (y < math.inf)
    yl = y[live]
    x = _psi_newton(alpha, yl / np.log(_E + yl) ** alpha, yl, np.log)
    while True:
        x_new = _psi_newton(alpha, x, yl, np.log)
        down = x_new < x
        if not down.any():
            break
        x = np.where(down, x_new, x)
    y[live] = x
    return y


def eta(N: int, xi):
    """eta(xi) = xi^N * log(e + 1/xi)^{N/2}; the xi -> 0+ limit 0 is returned exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xi_arr = np.asarray(xi, dtype=float)
    if not np.all(xi_arr >= 0.0):
        raise ValueError("xi must be >= 0 in every element")
    out = np.zeros_like(xi_arr)
    pos = xi_arr > 0.0
    xp = xi_arr[pos]
    out[pos] = xp**N * np.log(_E + 1.0 / xp) ** (N / 2.0)
    return float(out) if xi_arr.ndim == 0 else out


def _eta_weight_integrand(tau: np.ndarray, N: int, m: float, kappa: float) -> np.ndarray:
    # s = exp(-tau):  s^{kappa-1} L(s)^{N(m-1)/2} ds = exp(-kappa tau) L^{...} dtau, L = log(e + e^tau)
    return np.exp(-kappa * tau) * np.logaddexp(1.0, tau) ** (N * (m - 1.0) / 2.0)


def _tau_cutoff(kappa: float) -> float:
    # exp(-kappa tau) tail beyond the cutoff is below 1e-35 of the total
    return max(80.0 / kappa, 80.0)


_TABLE_XS = np.logspace(-9, 0.0, 1023)  # the gamma table's x points; the last is 1


def _cumulative_weights(params: ProblemParams, xs) -> np.ndarray:
    """G(x) = int_0^x s * eta(s)^{m-1} ds at the increasing points xs in (0, 1].

    In tau = -log s, the far tail [tau_0, cutoff] and each gap between
    neighbouring points are integrated once, all in one G7/K15 pass to
    relative tolerance 1e-10, and summed from the far end, so G is strictly
    increasing and, its terms all positive, meets 1e-10 as well.  A gap
    that misses the tolerance raises RuntimeError (see profiles._gk_panels).
    """
    kappa = derive_exponents(params).kappa
    if kappa <= 0.0:
        raise ValueError("C_eta and gamma require kappa = N(m-1) + 2 > 0")
    xs = np.asarray(xs, dtype=float)
    taus = -np.log(xs)
    far = max(_tau_cutoff(kappa), taus[0] + 1.0)
    return np.cumsum(_gk_panels(
        lambda tau, k: _eta_weight_integrand(tau, params.N, params.m, kappa),
        taus, np.append(far, taus[:-1]), np.arange(len(xs)), xs, 1e-10, "_cumulative_weights",
    ))


def c_eta(params: ProblemParams) -> float:
    """C_eta = int_0^1 s * eta(s)^{m-1} ds, the last value of the gamma table's cumulative integral."""
    return float(_cumulative_weights(params, _TABLE_XS)[-1])


@dataclass
class GammaFn:
    """The implicit map gamma with a monotone lookup table for fast evaluation.

    __call__ uses the precomputed PCHIP table (monotone by construction);
    value_exact solves the implicit equation by bracketed root-finding on the
    cumulative integral to relative tolerance 1e-8 and is the oracle the table
    is tested against.
    """

    params: ProblemParams
    c_eta: float
    _interp: Callable[[np.ndarray], np.ndarray] = field(repr=False)  # a scipy PchipInterpolator

    @classmethod
    def build(cls, params: ProblemParams) -> "GammaFn":
        from scipy.interpolate import PchipInterpolator

        # forward map on a log-graded x grid, then interpolate the inverse
        G = _cumulative_weights(params, _TABLE_XS)
        us, xs = np.append(0.0, G / G[-1]), np.append(0.0, _TABLE_XS)
        return cls(params=params, c_eta=float(G[-1]), _interp=PchipInterpolator(us, xs, extrapolate=False))

    def __call__(self, xi):
        xi_arr = np.asarray(xi, dtype=float)
        if np.any(xi_arr < 0.0) or np.any(xi_arr > 1.0):
            raise ValueError("gamma is defined on [0, 1]")
        out = self._interp(xi_arr)
        out = np.where(xi_arr == 0.0, 0.0, out)
        out = np.where(xi_arr == 1.0, 1.0, out)
        return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out

    def value_exact(self, xi: float) -> float:
        from scipy.optimize import brentq

        if not 0.0 <= xi <= 1.0:
            raise ValueError("gamma is defined on [0, 1]")
        if xi == 0.0:
            return 0.0
        if xi == 1.0:
            return 1.0
        target = self.c_eta * xi

        def resid(x: float) -> float:
            return (_cumulative_weights(self.params, [x])[0] if x > 0.0 else 0.0) - target

        return brentq(resid, 0.0, 1.0, xtol=1e-15, rtol=1e-8)
