"""Analytic radial initial-data families and their ball averages.

Profiles are radial functions on R^N (N in {1, 2, 3}):

    constant       c
    power          c * r^{-a},  0 <= a < N  (local integrability)
    critical_log   c * r^{-N} * [log(e + 1/r)]^{-N/2 - 1}
    barenblatt     source-free fast diffusion self-similar snapshot at t = t0

An optional cutoff radius truncates any profile to zero outside.

Ball averages over B(z, sigma) reduce, for radial integrands, to a single
radial integral against the sphere-cap measure

    s_N(rho; d, sigma) = measure of {|x| = rho} intersected with B(z, sigma),

with d = |z|.  This is exact in the angular variable for every N.  The radial
integrals of a whole scan column (one center, many radii) are taken in one
batched adaptive Gauss-Kronrod (G7/K15) pass: every active panel of every
radius sits in one flat array, and each round evaluates all 15 nodes of all
of them in one array call to the integrand.  The initial panels break at the
cap kink |sigma - d| and at the profile cutoff.  A ball that contains a
singular origin has its slice [0, eps] integrated in w = log(e + 1/rho),
where the singularity becomes an exponential or algebraic tail, mapped onto
t in (0, 1].  A radius that misses its tolerance within the panel budget
raises RuntimeError naming its radii; no other quadrature path exists.

The same cap measure gives the exact lens volume |B(0, r) intersected with
B(z, sigma)| (lens_volume), from which GridField weights its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exponents import ProblemParams, Regime, classify_regime, derive_exponents

SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}  # |S^{N-1}|
BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}  # |B(0,1)|

_E = math.e


def ball_volume(N: int, sigma):
    return BALL_VOLUME[N] * sigma**N


def as_radii(sigma) -> tuple[np.ndarray, bool]:
    """sigma as a 1-D array of ball radii, and whether it was one number; every radius must be > 0."""
    s = np.asarray(sigma, dtype=float)
    if not np.all(s > 0.0):
        raise ValueError("sigma must be > 0")
    return np.atleast_1d(s), s.ndim == 0


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


class WSlice(NamedTuple):
    """A radial integrand near a singular origin, in the variable w = log(e + 1/rho).

    log_gw(w) is log(g(rho) rho^N) at rho(w), written in closed form so that
    neither the huge g nor the tiny rho^N is formed (array in, array out);
    tail is the q of gw ~ w^{-q} as w -> inf, or inf for exponential decay.
    """

    log_gw: Callable
    tail: float


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
    cutoff: Optional[float] = None

    def __post_init__(self):
        if self.N not in SPHERE_AREA:
            raise ValueError("profiles support N in {1, 2, 3}")
        if self.kind not in ("constant", "power", "critical_log", "barenblatt"):
            raise ValueError(f"unknown profile kind {self.kind!r}")
        # each message starts with the field it rejects; NaN fails every check
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {self.c!r}")
        if self.kind == "power" and not (0.0 <= self.a < self.N):
            raise ValueError(f"a must satisfy 0 <= a < N for local integrability, got {self.a!r}")
        for name, value in (("cb", self.cb), ("t0", self.t0), ("cutoff", self.cutoff)):
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")

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
            with np.errstate(divide="ignore", over="ignore"):  # +inf at and next to r = 0
                return np.where(r > 0.0, self.c * r ** (-self.a), np.inf if self.c > 0 else 0.0)
        if self.kind == "critical_log":
            out = np.full_like(r, np.inf if self.c > 0 else 0.0)
            pos = r > 0.0
            rp = r[pos]
            with np.errstate(over="ignore"):
                out[pos] = self.c * rp ** (-self.N) * np.log(_E + 1.0 / rp) ** (-self.N / 2.0 - 1.0)
            return out
        return np.asarray(barenblatt_value(r, self.t0, self.N, self.m, self.cb))

    def is_singular_at_origin(self) -> bool:
        return (self.kind == "power" and self.a > 0.0 and self.c > 0.0) or (
            self.kind == "critical_log" and self.c > 0.0
        )

    def log_value_w(self, w):
        """log f at rho(w), w = log(e + 1/rho); singular kinds only, stable for huge w."""
        lr = log_rho_of_w(w)
        if self.kind == "power":
            return math.log(self.c) - self.a * lr
        if self.kind == "critical_log":
            return math.log(self.c) - self.N * lr - (self.N / 2.0 + 1.0) * np.log(w)
        raise ValueError(f"log_value_w is defined for singular kinds, not {self.kind!r}")

    def power_times_vol_w(self, expo: float) -> Optional[WSlice]:
        """f(rho(w))^expo rho(w)^N for the origin slice, as a WSlice.

        The log is taken per kind in closed form, so the rho^N that cancels the
        singularity never meets the singularity in floating point:
        power gives expo log c + (N - a expo) log rho (an exponential tail in w),
        critical_log gives expo log c + N (1 - expo) log rho - expo (N/2 + 1) log w
        (an algebraic tail w^{-(N/2 + 1)} at expo = 1).  Returns None for kinds
        that are regular at the origin; raises when f^expo is not locally
        integrable there.
        """
        if not self.is_singular_at_origin():
            return None
        N, log_c = self.N, math.log(self.c)
        if self.kind == "power":
            if self.a * expo >= N:
                raise ValueError("power profile with a*expo >= N is not locally integrable")
            return WSlice(lambda w: expo * log_c + (N - self.a * expo) * log_rho_of_w(w), math.inf)
        if expo > 1.0:
            raise ValueError("critical-log profile to a power > 1 is not locally integrable")
        q = expo * (N / 2.0 + 1.0)
        if expo == 1.0:
            return WSlice(lambda w: log_c - q * np.log(w), q)
        return WSlice(lambda w: expo * log_c + N * (1.0 - expo) * log_rho_of_w(w) - q * np.log(w), math.inf)


def constant(c: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="constant", N=N, c=c, cutoff=cutoff)


def power_law(c: float, a: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="power", N=N, c=c, a=a, cutoff=cutoff)


def critical_log(c: float, N: int, cutoff: float | None = None) -> RadialProfile:
    return RadialProfile(kind="critical_log", N=N, c=c, cutoff=cutoff)


def barenblatt(cb: float, t0: float, N: int, m: float, cutoff: float | None = None) -> RadialProfile:
    prof = RadialProfile(kind="barenblatt", N=N, cb=cb, t0=t0, m=m, cutoff=cutoff)  # checks cb, t0 and cutoff
    barenblatt_value(0.0, t0, N, m, cb)  # validates kappa > 0
    return prof


def critical_profile(params: ProblemParams, c: float, cutoff: float | None = None) -> RadialProfile:
    """The sharp singular family: log-corrected at p = p_m, pure power for p > p_m."""
    if not 0.0 <= c < math.inf:
        raise ValueError(f"c must be finite and >= 0, got {c!r}")
    regime = classify_regime(params)
    if regime is Regime.SUBCRITICAL:
        raise ValueError("no sharp singular profile in the subcritical regime")
    if regime is Regime.CRITICAL:
        return critical_log(c, params.N, cutoff)
    return power_law(c, derive_exponents(params).a_ss, params.N, cutoff)


# -- sphere-cap slice measure and radial quadrature ---------------------------


def cap_measure(N: int, rho, d, sigma):
    """Measure of the sphere {|x| = rho} inside B(z, sigma) with d = |z|; rho >= 0, d and sigma broadcast.

    One offset d = 0 takes the centered closed form; an array of offsets must be > 0.
    """
    rho = np.asarray(rho, dtype=float)
    if np.ndim(d) == 0 and d == 0.0:
        out = np.where((rho > 0.0) & (rho < sigma), SPHERE_AREA[N] * rho ** (N - 1), 0.0)
    elif N == 1:
        # points {+rho, -rho}: +rho is inside iff |rho - d| < sigma, -rho iff rho <= sigma - d
        out = np.where(rho > 0.0, (np.abs(rho - d) < sigma) + (rho <= sigma - d) * 1.0, 0.0)
    else:
        # 1 - cos clips to 2 on a sphere inside the ball (rho <= sigma - d) and to 0 on one outside it
        h = _versine(rho, d, sigma)
        out = 4.0 * rho * np.arcsin(np.sqrt(0.5 * h)) if N == 2 else 2.0 * math.pi * rho * rho * h
    return float(out) if out.ndim == 0 else out


def _versine(rho, d, sigma):
    """1 - cos of the cap's polar angle on {|x| = rho}, in factored form (no cancellation), clipped to [0, 2]."""
    with np.errstate(divide="ignore", invalid="ignore"):  # rho = 0 has no cap: fmax takes its nan to 0
        h = (sigma - rho + d) * (sigma + rho - d) / (2.0 * d * rho)
    return np.fmin(2.0, np.fmax(0.0, h))


def lens_volume(N: int, r, d, sigma):
    """|B(0, r) intersected with B(z, sigma)| for |z| = d, in the lens case |r - sigma| < d < r + sigma.

    r, d and sigma broadcast (so d > 0).  For N = 1 the lens is the interval [d - sigma, r].
    Otherwise the divergence theorem for the field x (div x = N) over the lens
    boundary gives
    N V = r s_N(r; d, sigma) + sigma s_N(sigma; d, r) - d |D|: x.n = r on the
    cap of {|x| = r}, x.n = sigma + z.n on the cap of {|x - z| = sigma}, and
    z.n integrates to -d |D| there, D being the flat disk spanned by the rim.
    |D| is 2a, pi a^2 for N = 2, 3 with rim radius a, and
    a^2 = r^2 h (2 - h) with h = 1 - cos of the rim's polar angle.
    """
    if N == 1:
        return r + sigma - d
    h = _versine(r, d, sigma)
    a2 = r * r * h * (2.0 - h)
    disk = 2.0 * np.sqrt(a2) if N == 2 else math.pi * a2
    return (r * cap_measure(N, r, d, sigma) + sigma * cap_measure(N, sigma, d, r) - d * disk) / N


def log_rho_of_w(w):
    """log rho for w = log(e + 1/rho), stable for all w > 1 (log1p(-e^{1-w}) vanishes below rounding past w = 40)."""
    return -w - np.log1p(-np.exp(1.0 - w))


# Gauss-Kronrod G7/K15 on [-1, 1] (the QUADPACK QK15 rule): the 15 Kronrod
# nodes, and as columns the K15 weights and the K15 - G7 weights (G7 uses
# every other node).
_GK_XK = (
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_GK_WK = (
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
)
_GK_WG = (
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
)
_GK_X = np.array([-x for x in _GK_XK] + [0.0] + list(_GK_XK[::-1]))
_K15 = np.array(_GK_WK + _GK_WK[-2::-1])
_G7 = np.zeros(15)
_G7[1::2] = _GK_WG + _GK_WG[-2::-1]
_GK_W = np.column_stack([_K15, _K15 - _G7])
QUAD_TOL = 1e-8  # relative tolerance of every analytic ball average
PANEL_BUDGET = 400  # panels per radius before the integral raises
_LOG_W_MAX = 690.0  # the origin slice is taken as 0 beyond w = e^690, i.e. rho < exp(-1e299)


def _gk_panels(f, a, b, owner, radii: np.ndarray, tol: float, where: str) -> np.ndarray:
    """Adaptive G7/K15 integrals over the panels [a, b], summed per radius owner (radii[owner]).

    Each round calls f(x, k) once, with the (P, 15) nodes x of all P active
    panels and their owners k, and accepts a panel when
    |K15 - G7| <= 0.1 tol |running total of its radius|; the others are
    bisected.  A radius whose partition grows past PANEL_BUDGET panels stops.
    This is the one tolerance check of every integral: RuntimeError, naming
    where and the radii, for a radius that stopped, whose value is not finite
    or whose summed |K15 - G7| exceeds tol |value| (a NaN integrand never
    passes a panel, so it ends at the budget).  Returns the value per radius.
    """
    n = len(radii)
    val, err = np.zeros(n), np.zeros(n)
    count = np.bincount(owner, minlength=n)
    while len(a):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        kg = half[:, None] * (f(mid[:, None] + half[:, None] * _GK_X, owner) @ _GK_W)
        k15, e = kg[:, 0], np.abs(kg[:, 1])
        total = val + np.bincount(owner, k15, n)
        done = e <= 0.1 * tol * np.abs(total[owner])
        val += np.bincount(owner[done], k15[done], n)
        err += np.bincount(owner[done], e[done], n)
        count += np.bincount(owner[~done], minlength=n)  # a bisection adds one panel
        split = ~done & (count[owner] <= PANEL_BUDGET)
        a, mid, b, owner = a[split], mid[split], b[split], owner[split]
        a, b, owner = np.concatenate([a, mid]), np.concatenate([mid, b]), np.concatenate([owner, owner])

    missed = np.flatnonzero((count > PANEL_BUDGET) | ~np.isfinite(val) | ~(err <= tol * np.abs(val)))
    if missed.size:
        raise RuntimeError(f"{where}: {missed.size} radii missed the G7/K15 tolerance {tol} within "
                           f"{PANEL_BUDGET} panels: {radii[missed].tolist()}")
    return val


def singular_slice_integral(gw: WSlice, N: int, eps: np.ndarray, quad_tol: float) -> np.ndarray:
    """S_{N-1} int_0^eps g(rho) rho^{N-1} drho for each of the slice radii eps, in w = log(e + 1/rho).

    Since drho/rho = -dw / (1 - e^{1-w}), the slice is
    int_{w_lo}^inf gw(w) / (1 - e^{1-w}) dw with gw = g rho^N and
    w_lo = log(e + 1/eps); gw is given by its closed-form log (see WSlice), so
    a power singularity of g appears as an exponential tail and the critical
    log-power singularity as an algebraic tail w^{-q}.  The map w = w_lo t^{-k}
    takes [w_lo, inf) onto t in (0, 1], with k = 1 for an exponential tail and
    k = ceil(2 / (q - 1)) for an algebraic one, so the t-integrand vanishes at
    t = 0 like t^{k (q - 1) - 1}.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e <= 1.0)):
        raise ValueError("singular slice requires 0 < eps <= 1")
    if not gw.tail > 1.0:
        raise ValueError(f"origin slice with tail w^-{gw.tail} is not integrable")
    k = 1 if math.isinf(gw.tail) else math.ceil(2.0 / (gw.tail - 1.0))
    log_w_lo, log_k = np.log(np.log(_E + 1.0 / e)), math.log(k)

    def integrand(t, j):
        log_t_far = (log_w_lo[j, None] - _LOG_W_MAX) / k  # log t at w = e^690
        log_t = np.maximum(np.log(t), log_t_far)
        log_w = log_w_lo[j, None] - k * log_t
        w = np.exp(log_w)
        f = np.exp(gw.log_gw(w) - np.log1p(-np.exp(1.0 - w)) + log_k + log_w - log_t)
        return np.where(log_t > log_t_far, f, 0.0)

    n = len(e)
    return SPHERE_AREA[N] * _gk_panels(integrand, np.zeros(n), np.ones(n), np.arange(n), e, quad_tol,
                                       "singular_slice_integral")


def radial_ball_integral(
    g,
    N: int,
    d: float,
    sigma,
    quad_tol: float = QUAD_TOL,
    gw: Optional[WSlice] = None,
    cutoff: Optional[float] = None,
):
    """integral over B(z, sigma) of g(|x|) dx via the cap-slice reduction, |z| = d.

    sigma is one radius or a 1-D array of them (a scan column); the result has
    its shape, and every radius is integrated in the same batched G7/K15 pass
    to relative tolerance quad_tol.  g maps an array of radii rho (any shape)
    to g(rho) elementwise, and must be integrable against the cap measure.
    When g is singular at the origin and a ball contains it, pass gw, the
    WSlice of g rho^N, and the slice [0, eps] is integrated in w-space; see
    singular_slice_integral.  cutoff is a radius beyond which g vanishes: it
    bounds the slice, where gw ignores it.  The initial panels break at
    |sigma - d| and at the cutoff.  A radius that misses
    the tolerance within PANEL_BUDGET panels, or whose value is not finite,
    raises RuntimeError (see _gk_panels).
    """
    s, scalar = as_radii(sigma)
    n = len(s)
    lo, hi = np.maximum(0.0, d - s), d + s
    val = np.zeros(n)
    if gw is not None:
        inner = np.flatnonzero(d < s)  # balls holding a neighborhood of the origin, where the cap is the full sphere
        if inner.size:
            eps = np.minimum(np.minimum(0.5, 0.5 * (s[inner] - d)), math.inf if cutoff is None else 0.5 * cutoff)
            val[inner] = singular_slice_integral(gw, N, eps, quad_tol)
            lo[inner] = eps

    cuts = np.column_stack([lo, hi, np.abs(s - d), hi if cutoff is None else np.full(n, cutoff)])
    pts = np.sort(np.clip(cuts, lo[:, None], hi[:, None]), axis=1)
    a, b = pts[:, :-1].ravel(), pts[:, 1:].ravel()
    owner = np.repeat(np.arange(n), pts.shape[1] - 1)
    wide = b > a

    def integrand(rho, k):
        return g(rho) * cap_measure(N, rho, d, s[k, None])

    val += _gk_panels(integrand, a[wide], b[wide], owner[wide], s, quad_tol, f"radial_ball_integral(d={d!r})")
    return float(val[0]) if scalar else val


def radial_offset(z) -> float:
    """|z| for a scalar radial offset or a center vector."""
    if np.isscalar(z):
        return abs(float(z))
    return float(np.linalg.norm(np.asarray(z, dtype=float)))


def ball_average_power(profile: RadialProfile, expo: float, z, sigma):
    """Average of profile^expo over B(z, sigma) for one radius or an array of them; closed form when possible.

    expo >= 1 in norm usage, but any expo > 0 with an integrable power works.
    """
    s, scalar = as_radii(sigma)
    d = radial_offset(z)
    N = profile.N
    ae = profile.a * expo
    if profile.kind == "power" and ae >= N:
        raise ValueError(f"power profile with a*alpha = {ae} >= N = {N} is not locally integrable")
    out = np.empty(len(s))
    inside_cutoff = np.full(len(s), True) if profile.cutoff is None else d + s <= profile.cutoff
    rest = np.full(len(s), True)
    if profile.kind == "constant":
        out[inside_cutoff], rest = profile.c**expo, ~inside_cutoff
    elif profile.kind == "power" and d == 0.0:
        # in Python floats (libm pow), so a flat column keeps the bits, and the first-max radius, of a scalar scan
        out[inside_cutoff] = [(profile.c**expo) * N / (N - ae) * x ** (-ae) for x in s[inside_cutoff].tolist()]
        rest = ~inside_cutoff
    if rest.any():
        total = radial_ball_integral(
            lambda rho: profile.value(rho) ** expo,
            N,
            d,
            s[rest],
            gw=profile.power_times_vol_w(expo),
            cutoff=profile.cutoff,
        )
        out[rest] = total / ball_volume(N, s[rest])
    return float(out[0]) if scalar else out


def ball_average(profile: RadialProfile, z, sigma):
    """Average of the profile over the ball B(z, sigma)."""
    return ball_average_power(profile, 1.0, z, sigma)


def ball_mass(profile: RadialProfile, z, sigma):
    """integral of the profile over B(z, sigma) (full N-dimensional measure)."""
    return ball_average(profile, z, sigma) * ball_volume(profile.N, sigma)


# -- projection onto solver cells ---------------------------------------------


def cell_averages(profile: RadialProfile, edges: np.ndarray) -> np.ndarray:
    """Exact-volume cell averages of the profile on radial cells in dimension profile.N.

    edges is the increasing array of cell faces starting at 0.  Averages use
    the r^{N-1} metric weight; a singular first cell goes through
    radial_ball_integral, every other cell through 12-point Gauss-Legendre up
    to the cutoff, beyond which the profile vanishes.
    """
    N = profile.N
    vols = (edges[1:] ** N - edges[:-1] ** N) / N
    if profile.kind == "constant" and profile.cutoff is None:
        return np.full(len(vols), profile.c)
    if profile.kind == "power" and profile.cutoff is None:
        if profile.a >= N:
            raise ValueError("power profile not locally integrable")
        e = N - profile.a
        ints = profile.c * (edges[1:] ** e - edges[:-1] ** e) / e
        return ints / vols

    nodes, weights = np.polynomial.legendre.leggauss(12)
    cut = profile.cutoff
    lo, hi = edges[:-1], edges[1:]
    top = hi if cut is None else np.where(cut >= hi, hi, np.maximum(lo, cut))
    mid, half = 0.5 * (lo + top), 0.5 * (top - lo)
    rs = mid[:, None] + half[:, None] * nodes  # the 12 nodes of every cell, in one profile.value call
    g = profile.value(rs) * rs ** (N - 1)
    # one dot per cell: a (n, 12) @ (12,) product may sum in another order
    out = np.array([h * float(np.dot(weights, row)) for h, row in zip(half, g)])
    if edges[0] == 0.0 and profile.is_singular_at_origin():
        out[0] = radial_ball_integral(
            profile.value,
            N,
            0.0,
            edges[1],
            quad_tol=1e-10,
            gw=profile.power_times_vol_w(1.0),
            cutoff=cut,
        ) / SPHERE_AREA[N]
    return np.maximum(out / vols, 0.0)
