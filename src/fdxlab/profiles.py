"""Analytic radial initial-data families and their ball averages.

Profiles are radial functions on R^N (N in {1, 2, 3}):

    constant       c
    power          c * r^{-a},  0 <= a < N  (local integrability)
    critical_log   c * r^{-N} * [log(e + 1/r)]^{-N/2 - 1}
    barenblatt     source-free fast diffusion self-similar snapshot at t = t0
    gridded        wraps a solver field (piecewise constant in r)

An optional cutoff radius truncates any profile to zero outside.

Ball averages over B(z, sigma) reduce, for radial integrands, to a single
radial integral against the sphere-cap measure

    s_N(rho; d, sigma) = measure of {|x| = rho} intersected with B(z, sigma),

with d = |z|.  This is exact in the angular variable for every N, so only one
1-D adaptive quadrature remains, with breakpoints at the cap kink |sigma - d|
and at the profile cutoff.

The same cap measure gives the exact lens volume |B(0, r) intersected with
B(z, sigma)| (lens_volume), from which gridded fields weight their cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad

from .exponents import ProblemParams, Regime, classify_regime

SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^{N-1}|
BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}  # |B(0,1)|

_E = math.e


def ball_volume(N: int, sigma: float) -> float:
    return BALL_VOLUME[N] * sigma**N


def barenblatt_value(r, t: float, N: int, m: float, cb: float):
    """Closed-form source-free fast diffusion solution, valid for kappa > 0:

        U(x, t) = t^{-N/kappa} (cb + (1-m)/(2 m kappa) |x|^2 t^{-2/kappa})^{-1/(1-m)}
    """
    kappa = N * (m - 1.0) + 2.0
    if kappa <= 0.0:
        raise ValueError("Barenblatt profile requires kappa = N(m-1) + 2 > 0")
    if t <= 0.0:
        raise ValueError("Barenblatt profile requires t > 0")
    k1 = (1.0 - m) / (2.0 * m * kappa)
    r_arr = np.asarray(r, dtype=float)
    out = t ** (-N / kappa) * (cb + k1 * r_arr * r_arr * t ** (-2.0 / kappa)) ** (-1.0 / (1.0 - m))
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


@dataclass(frozen=True)
class RadialProfile:
    """One member of the analytic family; construct via the helpers below."""

    kind: str
    N: int
    c: float = 0.0
    a: float = 0.0
    cb: float = 1.0
    t0: float = 1.0
    m: float = 0.5
    field: Optional[object] = None  # gridded: any object with N, r, u, dr
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.N not in SPHERE_AREA:
            raise ValueError("profiles support N in {1, 2, 3}")
        if self.kind not in ("constant", "power", "critical_log", "barenblatt", "gridded"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("constant", "power", "critical_log") and self.c < 0.0:
            raise ValueError("amplitude c must be >= 0")
        if self.kind == "power" and not (0.0 <= self.a < self.N):
            raise ValueError(f"power exponent a={self.a} must satisfy 0 <= a < N for local integrability")
        if self.cutoff is not None and self.cutoff <= 0.0:
            raise ValueError("cutoff must be positive")

    # -- pointwise evaluation -------------------------------------------------

    def value(self, r):
        """Pointwise value; singular kinds return +inf at r = 0 (caller decides)."""
        r_arr = np.asarray(r, dtype=float)
        scalar = np.isscalar(r) or r_arr.ndim == 0
        r_arr = np.atleast_1d(r_arr)
        if np.any(r_arr < 0.0):
            raise ValueError("radius must be >= 0")
        out = self._value_raw(r_arr)
        if self.cutoff is not None:
            out = np.where(r_arr > self.cutoff, 0.0, out)
        return float(out[0]) if scalar else out

    def _value_raw(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full_like(r, self.c)
        if self.kind == "power":
            if self.a == 0.0:
                return np.full_like(r, self.c)
            with np.errstate(divide="ignore"):
                return np.where(r > 0.0, self.c * r ** (-self.a), np.inf if self.c > 0 else 0.0)
        if self.kind == "critical_log":
            out = np.full_like(r, np.inf if self.c > 0 else 0.0)
            pos = r > 0.0
            rp = r[pos]
            out[pos] = self.c * rp ** (-self.N) * np.log(_E + 1.0 / rp) ** (-self.N / 2.0 - 1.0)
            return out
        if self.kind == "barenblatt":
            return np.asarray(barenblatt_value(r, self.t0, self.N, self.m, self.cb))
        # gridded: piecewise constant on cells, floor value used beyond the grid
        f = self.field
        idx = np.minimum((r / f.dr).astype(int), len(f.u) - 1)
        return f.u[idx]

    def is_singular_at_origin(self) -> bool:
        return (self.kind == "power" and self.a > 0.0 and self.c > 0.0) or (
            self.kind == "critical_log" and self.c > 0.0
        )

    def log_value_w(self, w: float) -> float:
        """log f at rho(w), w = log(e + 1/rho); singular kinds only, stable for huge w."""
        lr = log_rho_of_w(w)
        if self.kind == "power":
            return math.log(self.c) - self.a * lr
        if self.kind == "critical_log":
            return math.log(self.c) - self.N * lr - (self.N / 2.0 + 1.0) * math.log(w)
        raise ValueError(f"log_value_w is defined for singular kinds, not {self.kind!r}")

    def power_times_vol_w(self, expo: float):
        """gw(w) = f(rho(w))^expo * rho(w)^N for the origin-slice integrator.

        Returns None for kinds that are regular at the origin; raises when
        f^expo is not locally integrable there.
        """
        if not self.is_singular_at_origin():
            return None
        N = self.N
        if self.kind == "power" and self.a * expo >= N:
            raise ValueError("power profile with a*expo >= N is not locally integrable")
        if self.kind == "critical_log" and expo > 1.0:
            raise ValueError("critical-log profile to a power > 1 is not locally integrable")

        def gw(w: float) -> float:
            return math.exp(expo * self.log_value_w(w) + N * log_rho_of_w(w))

        return gw


def constant(c: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="constant", N=N, c=c, cutoff=cutoff)


def power_law(c: float, a: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="power", N=N, c=c, a=a, cutoff=cutoff)


def critical_log(c: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="critical_log", N=N, c=c, cutoff=cutoff)


def barenblatt(cb: float, t0: float, N: int, m: float, cutoff: float | None = None) -> RadialProfile:
    if cb <= 0.0:
        raise ValueError("cb must be > 0")
    prof = RadialProfile(kind="barenblatt", N=N, cb=cb, t0=t0, m=m, cutoff=cutoff)
    barenblatt_value(0.0, t0, N, m, cb)  # validates kappa > 0, t0 > 0
    return prof


def gridded(field: object) -> RadialProfile:
    return RadialProfile(kind="gridded", N=field.N, field=field)


def critical_profile(params: ProblemParams, c: float, rel_tol: float = 1e-12) -> RadialProfile:
    """The sharp singular family: log-corrected at p = p_m, pure power for p > p_m."""
    if c < 0.0:
        raise ValueError("c must be >= 0")
    regime = classify_regime(params, rel_tol)
    if regime is Regime.SUBCRITICAL:
        raise ValueError("no sharp singular profile in the subcritical regime")
    if regime is Regime.CRITICAL:
        return critical_log(c, params.N)
    return power_law(c, 2.0 / (params.p - params.m), params.N)


# -- sphere-cap slice measure and radial quadrature ---------------------------


def cap_measure(N: int, rho: float, d: float, sigma: float) -> float:
    """Measure of the sphere {|x| = rho} inside B(z, sigma) with d = |z|."""
    if rho <= 0.0:
        return 0.0
    if d == 0.0:
        return SPHERE_AREA[N] * rho ** (N - 1) if rho < sigma else 0.0
    if rho <= sigma - d:
        return SPHERE_AREA[N] * rho ** (N - 1)
    if rho >= d + sigma or rho <= d - sigma:
        return 0.0
    if N == 1:
        # points {+rho, -rho}: +rho is inside iff |rho - d| < sigma (true here),
        # -rho inside iff rho < sigma - d (handled above)
        return 1.0
    h = _versine(rho, d, sigma)
    if N == 2:
        return 4.0 * rho * math.asin(math.sqrt(0.5 * h))  # 2 rho acos(1 - h)
    return 2.0 * math.pi * rho * rho * h


def _versine(rho: float, d: float, sigma: float) -> float:
    """1 - cos of the cap's polar angle on {|x| = rho}, in factored form (no cancellation), clipped to [0, 2]."""
    return min(2.0, max(0.0, (sigma - rho + d) * (sigma + rho - d) / (2.0 * d * rho)))


def lens_volume(N: int, r: float, d: float, sigma: float) -> float:
    """|B(0, r) intersected with B(z, sigma)| for |z| = d, in the lens case |r - sigma| < d < r + sigma.

    The divergence theorem for the field x (div x = N) over the lens boundary
    gives N V = r s_N(r; d, sigma) + sigma s_N(sigma; d, r) - d |D|: x.n = r on
    the cap of {|x| = r}, x.n = sigma + z.n on the cap of {|x - z| = sigma},
    and z.n integrates to -d |D| there, D being the flat disk spanned by the
    rim.  |D| is 1, 2a, pi a^2 for N = 1, 2, 3 with rim radius a, and
    a^2 = r^2 h (2 - h) with h = 1 - cos of the rim's polar angle.
    """
    h = _versine(r, d, sigma)
    a2 = r * r * h * (2.0 - h)
    disk = 1.0 if N == 1 else (2.0 * math.sqrt(a2) if N == 2 else math.pi * a2)
    return (r * cap_measure(N, r, d, sigma) + sigma * cap_measure(N, sigma, d, r) - d * disk) / N


def log_rho_of_w(w: float) -> float:
    """log rho for w = log(e + 1/rho), stable for all w >= 1."""
    if w > 40.0:
        return -w  # log1p(-e^{1-w}) below double precision
    return -w - math.log1p(-math.exp(1.0 - w))


def singular_slice_integral(gw, N: int, eps: float, quad_tol: float = 1e-8) -> tuple[float, float]:
    """S_{N-1} int_0^eps g(rho) rho^{N-1} drho in the variable w = log(e + 1/rho).

    gw(w) must return g(rho(w)) * rho(w)^N evaluated stably (log space), so a
    power singularity of g appears here as an exponential tail and the
    critical log-power singularity as an algebraic tail; both are resolved by
    the adaptive quadrature's infinite-interval transform.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError("singular slice requires 0 < eps <= 1")
    w_lo = math.log(_E + 1.0 / eps)

    def fw(w: float) -> float:
        jac = 1.0 if w > 40.0 else 1.0 / (1.0 - math.exp(1.0 - w))
        return gw(w) * jac

    val, err = quad(fw, w_lo, np.inf, limit=400, epsrel=quad_tol, epsabs=0.0)
    return SPHERE_AREA[N] * val, SPHERE_AREA[N] * err


def radial_ball_integral(
    g,
    N: int,
    d: float,
    sigma: float,
    quad_tol: float = 1e-8,
    breakpoints: tuple[float, ...] = (),
    gw=None,
    gw_eps_cap: float = math.inf,
) -> float:
    """integral over B(z, sigma) of g(|x|) dx via the cap-slice reduction.

    g must be integrable against the cap measure.  When g is singular at the
    origin and the ball contains it, pass gw(w) = g(rho) rho^N (with
    w = log(e + 1/rho)) and the slice [0, eps] is integrated in w-space; see
    singular_slice_integral.  gw_eps_cap bounds the slice when gw is only
    valid near the origin (e.g. inside a cutoff radius).
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    lo, hi = max(0.0, d - sigma), d + sigma

    def integrand(rho: float) -> float:
        return g(rho) * cap_measure(N, rho, d, sigma)

    val, err = 0.0, 0.0
    if gw is not None and d < sigma:
        # the ball contains a neighborhood of the origin, where the cap is the full sphere
        eps = min(0.5, 0.5 * (sigma - d), 0.5 * gw_eps_cap)
        v0, e0 = singular_slice_integral(gw, N, eps, quad_tol)
        val, err, lo = val + v0, err + e0, eps

    pts = sorted({p for p in (*breakpoints, abs(sigma - d)) if lo < p < hi})
    v1, e1 = quad(integrand, lo, hi, points=pts or None, limit=400, epsrel=quad_tol, epsabs=0.0)
    val, err = val + v1, err + e1
    if not math.isfinite(val):
        raise ValueError("ball integral diverged (non-integrable profile?)")
    if err > 10.0 * quad_tol * max(1.0, abs(val)):
        raise RuntimeError(f"ball integral did not reach tol {quad_tol}: value={val}, err={err}")
    return val


def radial_offset(z) -> float:
    """|z| for a scalar radial offset or a center vector."""
    if np.isscalar(z):
        return abs(float(z))
    return float(np.linalg.norm(np.asarray(z, dtype=float)))


def ball_average_power(
    profile: RadialProfile, expo: float, z, sigma: float, quad_tol: float = 1e-8
) -> float:
    """Average of profile^expo over B(z, sigma); closed form when possible.

    expo >= 1 in norm usage, but any expo > 0 with an integrable power works.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be > 0")
    d = radial_offset(z)
    N = profile.N
    inside_cutoff = profile.cutoff is None or d + sigma <= profile.cutoff
    if profile.kind == "constant" and inside_cutoff:
        return profile.c**expo
    if profile.kind == "power" and d == 0.0 and inside_cutoff:
        ae = profile.a * expo
        if ae >= N:
            raise ValueError(f"power profile with a*alpha = {ae} >= N = {N} is not locally integrable")
        return (profile.c**expo) * N / (N - ae) * sigma ** (-ae)
    if profile.kind == "power" and profile.a * expo >= N:
        raise ValueError(f"power profile with a*alpha >= N is not locally integrable")

    def g(rho: float) -> float:
        v = profile.value(rho)
        return v**expo if np.isfinite(v) else np.inf

    pts = (profile.cutoff,) if profile.cutoff is not None else ()
    total = radial_ball_integral(
        g,
        N,
        d,
        sigma,
        quad_tol,
        breakpoints=pts,
        gw=profile.power_times_vol_w(expo),
        gw_eps_cap=profile.cutoff if profile.cutoff is not None else math.inf,
    )
    return total / ball_volume(N, sigma)


def ball_average(profile: RadialProfile, z, sigma: float, quad_tol: float = 1e-8) -> float:
    """Average of the profile over the ball B(z, sigma)."""
    return ball_average_power(profile, 1.0, z, sigma, quad_tol)


def ball_mass(profile: RadialProfile, z, sigma: float, quad_tol: float = 1e-8) -> float:
    """integral of the profile over B(z, sigma) (full N-dimensional measure)."""
    return ball_average(profile, z, sigma, quad_tol) * ball_volume(profile.N, sigma)


# -- projection onto solver cells ---------------------------------------------


def cell_averages(profile: RadialProfile, edges: np.ndarray, N: int) -> np.ndarray:
    """Exact-volume cell averages of the profile on radial cells.

    edges is the increasing array of cell faces starting at 0.  Averages use
    the r^{N-1} metric weight; singular first cells are handled by adaptive
    quadrature, smooth cells by fixed Gauss-Legendre panels.
    """
    if profile.N != N:
        raise ValueError("profile dimension does not match the grid")
    vols = (edges[1:] ** N - edges[:-1] ** N) / N
    if profile.kind == "constant" and profile.cutoff is None:
        return np.full(len(vols), profile.c)
    if profile.kind == "power" and profile.cutoff is None:
        if profile.a >= N:
            raise ValueError("power profile not locally integrable")
        e = N - profile.a
        ints = profile.c * (edges[1:] ** e - edges[:-1] ** e) / e
        return ints / vols

    # generic path: 12-point Gauss per cell, scipy quad on cells touching a
    # singular origin or the cutoff radius
    nodes, weights = np.polynomial.legendre.leggauss(12)
    out = np.empty(len(vols))
    cut = profile.cutoff

    def integrand(rho: float) -> float:
        return profile.value(rho) * rho ** (N - 1)

    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        singular = lo == 0.0 and profile.is_singular_at_origin()
        crosses_cut = cut is not None and lo < cut < hi
        if singular:
            val = radial_ball_integral(
                profile.value,
                N,
                0.0,
                hi,
                quad_tol=1e-10,
                gw=profile.power_times_vol_w(1.0),
                gw_eps_cap=cut if cut is not None else math.inf,
            ) / SPHERE_AREA[N]
        elif crosses_cut:
            val, _ = quad(integrand, lo, hi, points=[cut], limit=200)
        else:
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            rs = mid + half * nodes
            val = half * float(np.dot(weights, profile.value(rs) * rs ** (N - 1)))
        out[i] = val / vols[i]
    return np.maximum(out, 0.0)
