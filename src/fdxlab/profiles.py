"""Analytic radial initial-data families and their ball averages.

Profiles are radial functions on R^N (N in {1, 2, 3}):

    constant       c
    power          c * r^{-a},  0 <= a < N  (local integrability)
    critical_log   c * r^{-N} * [log(e + 1/r)]^{-N/2 - 1}
    barenblatt     source-free fast diffusion self-similar snapshot at t = t0

An optional cutoff radius truncates any profile to zero outside.  The first
three are one family, c r^{-b} [log(e + 1/r)]^{-q} with (b, q) = (0, 0),
(a, 0) and (N, N/2 + 1), and every formula at the origin (the value, log f
and the origin slice of f^expo r^N with its one integrability rule) is
derived from (b, q).

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
t in (0, 1].  Cell averages take one pass of the same engine; a miss raises
RuntimeError naming the limit and the radii.  No other quadrature path exists.

The same cap measure gives the exact lens volume |B(0, r) intersected with
B(z, sigma)| (lens_volume), from which GridField weights its cells.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .exponents import ProblemParams, Regime, check_finite_positive, classify_regime, derive_exponents

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
    if not kappa > 0.0:
        raise ValueError(f"m must be > 1 - 2/N for the Barenblatt profile (kappa = N(m-1) + 2 > 0), got {m!r}")
    if not t > 0.0:
        raise ValueError(f"t must be > 0 for the Barenblatt profile, got {t!r}")
    k1 = (1.0 - m) / (2.0 * m * kappa)
    r_arr = np.asarray(r, dtype=float)
    out = t ** (-N / kappa) * (cb + k1 * r_arr * r_arr * t ** (-2.0 / kappa)) ** (-1.0 / (1.0 - m))
    return float(out) if np.isscalar(r) or r_arr.ndim == 0 else out


class WSlice(NamedTuple):
    """A radial integrand near a singular origin, in the variable w = log(e + 1/rho).

    log_gw(w) is log(g(rho) rho^N) at rho(w), written in closed form so that
    neither the huge g nor the tiny rho^N is formed (array in, array out);
    tail is the q of gw = C w^{-q} past w = e^690 (to rounding), or inf for exponential decay.
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
        # each message starts with the field it rejects; NaN fails every check
        if self.N not in SPHERE_AREA:
            raise ValueError(f"N must be 1, 2 or 3 for profiles, got {self.N!r}")
        if self.kind not in ("constant", "power", "critical_log", "barenblatt"):
            raise ValueError(f"kind must be 'constant', 'power', 'critical_log' or 'barenblatt', got {self.kind!r}")
        if not 0.0 <= self.c < math.inf:
            raise ValueError(f"c must be finite and >= 0, got {self.c!r}")
        if self.kind == "power" and not (0.0 <= self.a < self.N):
            raise ValueError(f"a must satisfy 0 <= a < N for local integrability, got {self.a!r}")
        for name, value in (("cb", self.cb), ("t0", self.t0), ("cutoff", self.cutoff)):
            if value is not None:
                check_finite_positive(name, value)

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

    def _origin_powers(self) -> tuple[float, float]:
        """(b, q) with f = c rho^-b [log(e + 1/rho)]^-q inside the cutoff; Barenblatt data have none."""
        if self.kind == "barenblatt":
            raise ValueError("barenblatt data are not of the form c rho^-b [log(e + 1/rho)]^-q")
        return {"constant": (0.0, 0.0), "power": (self.a, 0.0), "critical_log": (self.N, self.N / 2.0 + 1.0)}[self.kind]

    def _value_raw(self, r: np.ndarray) -> np.ndarray:
        if self.kind == "barenblatt":
            return np.asarray(barenblatt_value(r, self.t0, self.N, self.m, self.cb))
        b, q = self._origin_powers()
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # r = 0 is set below
            out = self.c * r ** (-b) * (np.log(_E + 1.0 / r) ** (-q) if q else 1.0)  # q = 0 takes no log
        return np.where(r > 0.0, out, np.inf if self.is_singular_at_origin() else self.c)

    def is_singular_at_origin(self) -> bool:
        return self.kind != "barenblatt" and self._origin_powers()[0] > 0.0 and self.c > 0.0

    def log_value_w(self, w):
        """log f at rho(w), w = log(e + 1/rho), stable for huge w; raises ValueError for Barenblatt data."""
        b, q = self._origin_powers()
        return math.log(self.c) - b * log_rho_of_w(w) - (q * np.log(w) if q else 0.0)

    def power_times_vol_w(self, expo: float) -> Optional[WSlice]:
        """f(rho(w))^expo rho(w)^N for the origin slice, as a WSlice.

        Its log is expo log c + (N - b expo) log rho - q expo log w, in closed
        form, so the rho^N that cancels the singularity never meets the
        singularity in floating point.  N - b expo > 0 gives an exponential
        tail in w; N - b expo = 0 with q expo > 1 the algebraic tail
        w^{-q expo} (critical_log at expo = 1).  Returns None for data that
        are regular at the origin; raises when f^expo is not locally
        integrable there.
        """
        if not self.is_singular_at_origin():
            return None
        b, q = self._origin_powers()
        k, tail = self.N - b * expo, q * expo
        if not (k > 0.0 or (k == 0.0 and tail > 1.0)):
            raise ValueError(f"{self.kind} profile to the power {expo!r} is not locally integrable at the origin")
        log_c = expo * math.log(self.c)
        return WSlice(lambda w: log_c + (k * log_rho_of_w(w) if k else 0.0) - tail * np.log(w), math.inf if k else tail)


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
        raise ValueError("kind critical_profile needs p >= p_m: no sharp singular profile in the subcritical regime")
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
        out = _cap_area(N, rho, _versine(rho, d, sigma))
    return float(out) if out.ndim == 0 else out


def _cap_area(N: int, rho, h):
    """Measure of the cap of {|x| = rho} whose polar angle has 1 - cos = h, for N = 2, 3."""
    return 4.0 * rho * np.arcsin(np.sqrt(0.5 * h)) if N == 2 else 2.0 * math.pi * rho * rho * h


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

    The lens lies inside both balls, so the result is capped at the smaller
    ball's volume: where B(z, sigma) all but fills the lens (r within
    rounding of sigma + d) the formula rounds above it by up to about
    sqrt(eps) relative.
    """
    if N == 1:
        lens = r + sigma - d
    else:
        h = _versine(r, d, sigma)
        a2 = r * r * h * (2.0 - h)
        disk = 2.0 * np.sqrt(a2) if N == 2 else math.pi * a2
        lens = (r * _cap_area(N, r, h) + sigma * cap_measure(N, sigma, d, r) - d * disk) / N
    return np.minimum(lens, BALL_VOLUME[N] * np.minimum(r, sigma) ** N)


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
_LOG_W_MAX = 690.0  # the origin slice's quadrature stops at w = e^690, i.e. rho = exp(-1e299)


class QuadratureMiss(RuntimeError):
    """Owners of a G7/K15 pass that missed its tolerance; head and missed let a caller rename them."""

    def __init__(self, head: str, missed: np.ndarray, names: np.ndarray):
        super().__init__(f"{head}: {names[missed].tolist()}")
        self.head, self.missed = head, missed


def _gk_panels(f, a, b, owner, radii: np.ndarray, tol: float, where: str, known: tuple = (0.0, 0.0)) -> np.ndarray:
    """Adaptive G7/K15 integrals over the panels [a, b], summed per owner (radii or cells), named radii[owner].

    Each round calls f(x, k) once, with the (P, 15) nodes x of all P active
    panels and their owners k, and accepts a panel when |K15 - G7| <= 0.1 tol
    |running total of its owner|; the others are bisected.  An owner whose
    partition grows past PANEL_BUDGET panels stops.  known is a part of every
    owner's integral taken in closed form, and a bound on its error: both
    start the running total and the error sum.  This is the one tolerance
    check of every integral: QuadratureMiss, naming where, the limit missed
    and the owners, for an owner past the budget, whose value is not finite
    or whose summed |K15 - G7| exceeds the error bound tol |value| (a NaN
    integrand never passes a panel, so it ends at the budget).
    """
    n = len(radii)
    val, err = np.full(n, known[0]), np.full(n, known[1])
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
        why = np.select([count[missed] > PANEL_BUDGET, ~np.isfinite(val[missed])],
                        [f"past the {PANEL_BUDGET}-panel budget", "with a non-finite value"], "over the error bound")
        limits = ", ".join(f"{k} {w}" for w, k in zip(*np.unique(why, return_counts=True)))
        head = f"{where}: {missed.size} radii missed the G7/K15 tolerance {tol} ({limits})"
        raise QuadratureMiss(head, missed, radii)
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
    t = 0 like t^{k (q - 1) - 1}.  The quadrature stops at w = e^690, where w
    is still a float.  Past it an exponential tail is 0 and an algebraic one
    is C w^{-q} to rounding, so its part gw(e^690) e^690 / (q - 1) is taken in
    closed form, and the bound on that form's rounding counts in the
    tolerance: as q nears 1 the slice raises RuntimeError instead.
    """
    e = np.asarray(eps, dtype=float)
    if not np.all((0.0 < e) & (e <= 1.0)):
        raise ValueError("singular slice requires 0 < eps <= 1")
    q = gw.tail
    if not q > 1.0:
        raise ValueError(f"origin slice with tail w^-{q} is not integrable")
    k = 1 if math.isinf(q) else math.ceil(2.0 / (q - 1.0))
    log_w_lo, log_k = np.log(np.log(_E + 1.0 / e)), math.log(k)

    def integrand(t, j):
        log_t = np.log(t)
        log_w = log_w_lo[j, None] - k * log_t
        w = np.exp(log_w)
        return np.exp(gw.log_gw(w) - np.log1p(-np.exp(1.0 - w)) + log_k + log_w - log_t)

    far = far_err = 0.0
    if math.isfinite(q):  # rounding q costs eps q / (2 (q - 1)) relative, and the exponent about 690 q eps
        far = math.exp(float(gw.log_gw(math.exp(_LOG_W_MAX))) + _LOG_W_MAX) / (q - 1.0)
        far_err = 2.0 * np.finfo(float).eps * (q / (q - 1.0) + _LOG_W_MAX * q) * far
    n = len(e)
    t_cut = np.exp((log_w_lo - _LOG_W_MAX) / k)
    return SPHERE_AREA[N] * _gk_panels(integrand, t_cut, np.ones(n), np.arange(n), e, quad_tol,
                                       "singular_slice_integral", (far, far_err))


def radial_ball_integral(g, N: int, d: float, sigma, quad_tol: float = QUAD_TOL, gw: Optional[WSlice] = None,
                         cutoff: Optional[float] = None):
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
    the tolerance, in the slice or outside it, raises QuadratureMiss naming
    its ball radius sigma (see _gk_panels).
    """
    s, scalar = as_radii(sigma)
    n = len(s)
    lo, hi = np.maximum(0.0, d - s), d + s
    val = np.zeros(n)
    if gw is not None:
        inner = np.flatnonzero(d < s)  # balls holding a neighborhood of the origin, where the cap is the full sphere
        if inner.size:
            eps = np.minimum(np.minimum(0.5, 0.5 * (s[inner] - d)), math.inf if cutoff is None else 0.5 * cutoff)
            try:
                val[inner] = singular_slice_integral(gw, N, eps, quad_tol)
            except QuadratureMiss as miss:  # it names the slice radii eps: name the balls instead
                raise QuadratureMiss(miss.head, miss.missed, s[inner]) from None
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
    Closed forms: constant data on balls inside the cutoff, power data on
    centered balls inside it, and every other N = 1 ball of power or
    constant data (an interval, see _line_power_integral); the other radii
    go through ball_average_tail.  c^expo, or a Barenblatt snapshot's peak
    f(0)^expo, is taken first in Python floats, so data whose f^expo leaves
    the floats raise OverflowError before any quadrature.
    """
    s, scalar = as_radii(sigma)
    d = radial_offset(z)
    N = profile.N
    ae = profile.a * expo
    if profile.kind == "power" and ae >= N:
        raise ValueError(f"power profile with a*alpha = {ae} >= N = {N} is not locally integrable")
    c_expo = (profile.value(0.0) if profile.kind == "barenblatt" else profile.c) ** expo
    out = np.empty(len(s))
    closed = np.full(len(s), profile.kind == "constant" or (profile.kind == "power" and d == 0.0))
    if profile.cutoff is not None:
        closed &= d + s <= profile.cutoff
    if profile.kind == "constant":
        out[closed] = c_expo
    else:
        # in Python floats (libm pow), so a flat column keeps the bits, and the first-max radius, of a scalar scan
        out[closed] = [c_expo * N / (N - ae) * x ** (-ae) for x in s[closed].tolist()]
    if N == 1 and profile.kind in ("constant", "power") and not closed.all():
        line = ~closed
        out[line] = c_expo * _line_power_integral(d, s[line], ae, profile.cutoff) / (2.0 * s[line])
        closed[:] = True
    gw = profile.power_times_vol_w(expo)
    out = ball_average_tail(profile, lambda rho: profile.value(rho) ** expo, gw, d, s, out, closed)
    return float(out[0]) if scalar else out


def _line_power_integral(d: float, s: np.ndarray, ae: float, cutoff: Optional[float]) -> np.ndarray:
    """integral of |x|^-ae over [d - s, d + s] clipped to [-cutoff, cutoff], for d >= 0 and 0 <= ae < 1.

    With F(x) = x^k / k, k = 1 - ae, and each end clipped to the cutoff, it is
    F(d + s) + F(s - d) for s >= d, where the interval holds the origin, and
    F(d + s) - F(d - s) otherwise.  That difference is taken as
    x^k expm1(k log1p(w / x)) / k with x = d - s and w the clipped width (2 s
    inside the cutoff), so a radius s << d keeps its digits.
    """
    L = math.inf if cutoff is None else cutoff
    k = 1.0 - ae
    hi = np.minimum(d + s, L)
    out = np.empty(len(s))
    across = s >= d
    out[across] = (hi[across] ** k + np.minimum(s[across] - d, L) ** k) / k
    x = np.minimum(d - s[~across], L)
    w = np.where(d + s[~across] <= L, 2.0 * s[~across], hi[~across] - x)
    out[~across] = x**k * np.expm1(k * np.log1p(w / x)) / k
    return out


def ball_average_tail(profile: RadialProfile, g, gw: Optional[WSlice], d: float, s: np.ndarray, out, closed):
    """out with every entry not closed set to the average of g(|x|) over B(z, s), |z| = d.

    A profile's ball averages take their closed-form entries first; the rest
    of the radii s go through one radial_ball_integral pass, with gw the
    origin slice of g and the profile's cutoff.
    """
    rest = ~closed
    if rest.any():
        total = radial_ball_integral(g, profile.N, d, s[rest], gw=gw, cutoff=profile.cutoff)
        out[rest] = total / ball_volume(profile.N, s[rest])
    return out


def ball_average(profile: RadialProfile, z, sigma):
    """Average of the profile over the ball B(z, sigma)."""
    return ball_average_power(profile, 1.0, z, sigma)


def ball_mass(profile: RadialProfile, z, sigma):
    """integral of the profile over B(z, sigma) (full N-dimensional measure)."""
    return ball_average(profile, z, sigma) * ball_volume(profile.N, sigma)


# -- projection onto solver cells ---------------------------------------------


def cell_averages(profile: RadialProfile, edges: np.ndarray) -> np.ndarray:
    """Exact-volume cell averages of the profile on radial cells in dimension profile.N.

    edges is the increasing array of cell faces starting at 0; averages use
    the r^{N-1} metric weight.  Uncut power and constant data are closed forms.
    A singular first cell goes through radial_ball_integral and the rest, cut
    at the cutoff, through one _gk_panels pass named by outer edges, at 1e-10.
    """
    N = profile.N
    vols = (edges[1:] ** N - edges[:-1] ** N) / N
    if profile.kind == "constant" and profile.cutoff is None:
        return np.full(len(vols), profile.c)
    if profile.kind == "power" and profile.cutoff is None:
        e = N - profile.a
        ints = profile.c * (edges[1:] ** e - edges[:-1] ** e) / e
        return ints / vols

    cut, tol = profile.cutoff, 1e-10
    lo, hi = edges[:-1], edges[1:]
    top = hi if cut is None else np.clip(cut, lo, hi)
    first = int(edges[0] == 0.0 and profile.is_singular_at_origin())
    out = np.empty(len(vols))
    out[first:] = _gk_panels(lambda r, k: profile.value(r) * r ** (N - 1), lo[first:], top[first:],
                             np.arange(len(vols) - first), hi[first:], tol, "cell_averages")
    if first:
        out[0] = radial_ball_integral(
            profile.value, N, 0.0, edges[1], quad_tol=tol, gw=profile.power_times_vol_w(1.0), cutoff=cut
        ) / SPHERE_AREA[N]
    return np.maximum(out / vols, 0.0)
