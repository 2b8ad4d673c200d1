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
exponentially decaying smooth integrand on [0, inf).

scipy's quadrature, interpolation and root-finding are imported inside the
functions that call them: no CLI subcommand evaluates gamma, so none pays for
loading them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exponents import ProblemParams, derive_exponents

_E = math.e


def psi(alpha: float, xi):
    """psi_alpha(xi) = xi * log(e + xi)^alpha for xi >= 0 (scalar or array)."""
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0):
        raise ValueError("psi requires xi >= 0")
    out = xi_arr * np.log(_E + xi_arr) ** alpha
    return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out


def _psi_derivative(alpha: float, x: float) -> float:
    lg = math.log(_E + x)
    return lg**alpha + x * alpha * lg ** (alpha - 1.0) / (_E + x)


def psi_inv(alpha: float, y: float) -> float:
    """Inverse of psi_alpha by Newton's method, exact to rounding.

    The start x0 = y / log(e + y)^alpha has psi_alpha(x0) <= y, and psi_alpha
    is increasing and convex, so the first step lands at or above the root
    and every later step decreases x monotonically onto it.  The iteration
    stops when a step no longer lowers x.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    if y < 0.0:
        raise ValueError("psi_inv requires y >= 0")
    if y == 0.0 or math.isinf(y):
        return y

    def newton(x: float) -> float:
        return x - (x * math.log(_E + x) ** alpha - y) / _psi_derivative(alpha, x)

    x = newton(y / math.log(_E + y) ** alpha)
    while True:
        x_new = newton(x)
        if not x_new < x:
            return x
        x = x_new


def eta(N: int, xi):
    """eta(xi) = xi^N * log(e + 1/xi)^{N/2}; the xi -> 0+ limit 0 is returned exactly."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xi_arr = np.asarray(xi, dtype=float)
    if np.any(xi_arr < 0.0):
        raise ValueError("eta requires xi >= 0")
    if xi_arr.ndim == 0:
        x = float(xi_arr)
        return x**N * math.log(_E + 1.0 / x) ** (N / 2.0) if x > 0.0 else 0.0
    out = np.zeros_like(xi_arr)
    pos = xi_arr > 0.0
    xp = xi_arr[pos]
    out[pos] = xp**N * np.log(_E + 1.0 / xp) ** (N / 2.0)
    return out


def _eta_weight_integrand(tau: np.ndarray, N: int, m: float, kappa: float) -> np.ndarray:
    # s = exp(-tau):  s^{kappa-1} L(s)^{N(m-1)/2} ds = exp(-kappa tau) L^{...} dtau
    # log(e + e^tau) written stably for large tau
    tau = np.asarray(tau, dtype=float)
    log_term = np.where(tau > 40.0, tau, np.log(_E + np.exp(np.minimum(tau, 700.0))))
    return np.exp(-kappa * tau) * log_term ** (N * (m - 1.0) / 2.0)


def _tau_cutoff(kappa: float) -> float:
    # exp(-kappa tau) tail beyond the cutoff is below 1e-35 of the total
    return max(80.0 / kappa, 80.0)


def c_eta(params: ProblemParams, rel_tol: float = 1e-10) -> float:
    """C_eta = int_0^1 s * eta(s)^{m-1} ds by adaptive quadrature (rel err <= 1e-8)."""
    from scipy.integrate import quad

    kappa = derive_exponents(params).kappa
    if kappa <= 0.0:
        raise ValueError("c_eta requires kappa = N(m-1) + 2 > 0")
    hi = _tau_cutoff(kappa)
    pts = [p for p in (1.0, 4.0, 16.0, 64.0) if p < hi]
    val, err = quad(
        _eta_weight_integrand,
        0.0,
        hi,
        args=(params.N, params.m, kappa),
        limit=200,
        epsrel=rel_tol,
        points=pts,
    )
    if not math.isfinite(val) or err > 1e-8 * max(1.0, abs(val)):
        raise RuntimeError(f"c_eta quadrature failed: value={val}, err={err}")
    return val


def _cumulative_weight(x: float, params: ProblemParams, kappa: float) -> float:
    """G(x) = int_0^x s * eta(s)^{m-1} ds for x in [0, 1]."""
    from scipy.integrate import quad

    if x <= 0.0:
        return 0.0
    lo = -math.log(x)
    hi = max(_tau_cutoff(kappa), lo + 1.0)
    val, _ = quad(
        _eta_weight_integrand, lo, hi, args=(params.N, params.m, kappa), limit=200, epsrel=1e-10
    )
    return val


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
    def build(cls, params: ProblemParams, table_size: int = 1024) -> "GammaFn":
        from scipy.interpolate import PchipInterpolator

        kappa = derive_exponents(params).kappa
        if kappa <= 0.0:
            raise ValueError("gamma requires kappa > 0")
        const = c_eta(params)
        # forward map on a log-graded x grid, then interpolate the inverse
        xs = np.concatenate([[0.0], np.logspace(-9, 0.0, table_size - 1)])
        xs[-1] = 1.0
        us = np.array([_cumulative_weight(x, params, kappa) for x in xs]) / const
        us[0], us[-1] = 0.0, 1.0
        us = np.maximum.accumulate(us)  # guard against quadrature jitter
        keep = np.concatenate([[True], np.diff(us) > 0.0])
        interp = PchipInterpolator(us[keep], xs[keep], extrapolate=False)
        return cls(params=params, c_eta=const, _interp=interp)

    def __call__(self, xi):
        xi_arr = np.asarray(xi, dtype=float)
        if np.any(xi_arr < 0.0) or np.any(xi_arr > 1.0):
            raise ValueError("gamma is defined on [0, 1]")
        out = self._interp(xi_arr)
        out = np.where(xi_arr == 0.0, 0.0, out)
        out = np.where(xi_arr == 1.0, 1.0, out)
        return float(out) if np.isscalar(xi) or xi_arr.ndim == 0 else out

    def value_exact(self, xi: float, rel_tol: float = 1e-8) -> float:
        from scipy.optimize import brentq

        if not 0.0 <= xi <= 1.0:
            raise ValueError("gamma is defined on [0, 1]")
        if xi == 0.0:
            return 0.0
        if xi == 1.0:
            return 1.0
        kappa = derive_exponents(self.params).kappa
        target = self.c_eta * xi

        def resid(x: float) -> float:
            return _cumulative_weight(x, self.params, kappa) - target

        return brentq(resid, 0.0, 1.0, xtol=1e-15, rtol=max(rel_tol, 4e-16))

