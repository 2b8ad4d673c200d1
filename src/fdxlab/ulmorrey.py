"""Uniformly local Morrey and Orlicz-Morrey norms, and the solvability conditions.

The general norm is

    |||f|||_{rho,Phi;R} = sup_z sup_{sigma in (0,R)} rho(sigma) Phi^{-1}( avg_{B(z,sigma)} Phi(f) ).

Two concrete specs are supported:

    morrey(q, alpha):   rho(sigma) = sigma^{N/q},  Phi(xi) = xi^alpha
    orlicz_eta(alpha):  rho(sigma) = eta(sigma/R), Phi = psi_alpha   (R = T^theta)

The sup over centers is approximated by a finite scan: the origin plus any
configured offsets for analytic radial profiles (the radially decreasing
structure puts the sup at the singularity, which the off-center monotonicity
property test cross-checks), and all grid nodes for gridded fields.  Radii are
scanned on a log grid.

A scan fills one (center x radius) matrix of the weighted ball quantity and
takes its first maximum in row-major order: the first center, then the first
radius.  A profile fills it one center at a time, all radii of a center in
one batched quadrature pass.  A grid field fills it with one
GridField.ball_weights call and one matmul per block of centers (at most
CENTER_BLOCK_ENTRIES weights), so memory stays bounded for dense scans.
Phi^{-1} stays a scalar call per element (libm pow for Morrey, psi_inv for
Orlicz-eta): a vectorised np.log differs from libm log in the last ulp on
some machines, which would move digits of the verdict CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ProblemParams, Regime, classify_regime, derive_exponents, validate_beta
from .profiles import (
    RadialProfile,
    WSlice,
    as_radii,
    ball_average_power,
    ball_mass,
    ball_volume,
    radial_ball_integral,
    radial_offset,
)
from .special_functions import eta, psi, psi_inv
from .solver import GridField

MORREY = "morrey"
ORLICZ_ETA = "orlicz_eta"

DEFAULT_RADIUS_CAP = 1e6  # stands in for R = infinity
DEFAULT_RADII_PER_DECADE = 64
CENTER_BLOCK_ENTRIES = 2**18  # at most this many cell weights per ball_weights call of a grid scan


@dataclass(frozen=True)
class NormSpec:
    kind: str
    R: float
    q: float = 1.0  # morrey only
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in (MORREY, ORLICZ_ETA):
            raise ValueError(f"kind must be 'morrey' or 'orlicz_eta', got {self.kind!r}")
        if not self.R > 0.0:
            raise ValueError("R must be > 0 (use math.inf for an uncapped norm)")
        if self.kind == MORREY and not self.q >= 1.0:
            raise ValueError(f"q must be >= 1 for the morrey norm, got {self.q!r}")
        if self.kind == MORREY and not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1 for the morrey norm, got {self.alpha!r}")
        if self.kind == ORLICZ_ETA and not self.alpha > 0.0:
            raise ValueError(f"alpha must be > 0 for the orlicz_eta norm, got {self.alpha!r}")
        if self.kind == ORLICZ_ETA and math.isinf(self.R):
            raise ValueError("R must be finite for the orlicz_eta norm: its weight eta(sigma/R) vanishes at R = inf")

    def radius_cap(self) -> float:
        return DEFAULT_RADIUS_CAP if math.isinf(self.R) else self.R


def morrey(q: float, alpha: float = 1.0, R: float = math.inf) -> NormSpec:
    return NormSpec(kind=MORREY, R=R, q=q, alpha=alpha)


def orlicz_eta(alpha: float, R: float) -> NormSpec:
    return NormSpec(kind=ORLICZ_ETA, R=R, alpha=alpha)


@dataclass(frozen=True)
class ScanGrid:
    """Finite (center, radius) scan; centers are radial offsets |z|."""

    centers: tuple
    radii: tuple

    @classmethod
    def build(
        cls,
        spec: NormSpec,
        r_min: float,
        centers: tuple = (0.0,),
        radii_per_decade: int = DEFAULT_RADII_PER_DECADE,
    ) -> "ScanGrid":
        r_max = spec.radius_cap() * (1.0 - 1e-9)  # sup runs over the open interval (0, R)
        if not 0.0 < r_min < r_max:
            raise ValueError(f"r_min must lie in (0, {r_max!r}) below the radius cap, got {r_min!r}")
        centers = tuple(float(c) for c in centers)
        if not all(math.isfinite(c) for c in centers):
            raise ValueError(f"centers must be finite, got {centers!r}")
        return cls(centers=centers, radii=_log_radii(r_min, r_max, radii_per_decade))

    @classmethod
    def for_field(cls, field: GridField, spec: NormSpec, radii_per_decade: int = 16) -> "ScanGrid":
        r_max = min(spec.radius_cap(), field.R_dom)
        r_min = field.dr
        if r_min >= r_max:
            raise ValueError("radius cap below the grid spacing")
        return cls(centers=tuple(field.r), radii=_log_radii(r_min, r_max, radii_per_decade))


def _log_radii(r_min: float, r_max: float, radii_per_decade: int) -> tuple:
    """Log-spaced radii from r_min to r_max, at least radii_per_decade per decade."""
    if not radii_per_decade >= 1:
        raise ValueError(f"radii_per_decade must be >= 1, got {radii_per_decade!r}")
    n = max(2, int(math.ceil(math.log10(r_max / r_min) * radii_per_decade)) + 1)
    return tuple(np.logspace(math.log10(r_min), math.log10(r_max), n))


@dataclass(frozen=True)
class NormResult:
    value: float
    arg_center: float
    arg_radius: float
    grid_resolution: str

    def __post_init__(self):
        if self.value < 0.0:
            raise ValueError("norm value must be >= 0")


@dataclass(frozen=True)
class SolvabilityVerdict:
    regime: Regime
    condition_value: float
    delta: float
    met: bool
    T_used: float


def orlicz_ball_average(f, alpha: float, z, sigma, scale: float = 1.0):
    """psi_alpha^{-1} of the ball average of psi_alpha(scale * f) over B(z, sigma).

    sigma is one radius or a 1-D array of them (a scan column, integrated in
    one batched pass); the result has its shape.
    """
    s, scalar = as_radii(sigma)
    d = radial_offset(z)
    if isinstance(f, GridField):
        out = _grid_orlicz_averages(f, alpha, np.array([d]), s, scale)[0]
        return float(out[0]) if scalar else out
    profile: RadialProfile = f
    out = np.empty(len(s))
    rest = np.full(len(s), True)
    if profile.kind == "constant":
        closed = np.full(len(s), True) if profile.cutoff is None else d + s <= profile.cutoff
        out[closed], rest = scale * profile.c, ~closed
    elif profile.kind == "critical_log" and min(profile.c, scale) > 0.0 and alpha >= profile.N / 2.0:
        # psi_alpha(scale f) rho^{N-1} d rho ~ L^{alpha-N/2-1} dL, L = log(1/rho): diverges at the origin
        out[d <= s], rest = math.inf, d > s
    if rest.any():
        total = radial_ball_integral(
            lambda rho: psi(alpha, scale * profile.value(rho)),
            profile.N,
            d,
            s[rest],
            gw=_orlicz_gw(profile, alpha, scale),
            cutoff=profile.cutoff,
        )
        out[rest] = [psi_inv(alpha, y) for y in (total / ball_volume(profile.N, s[rest])).tolist()]
    return float(out[0]) if scalar else out


def _orlicz_gw(profile: RadialProfile, alpha: float, scale: float) -> Optional[WSlice]:
    """The w-space slice of psi_alpha(scale f(rho)) rho^N for singular profiles.

    Its log is log(scale) + log(f rho^N) + alpha log log(e + y), y = scale f,
    with log(f rho^N) in closed form (power_times_vol_w), so the huge f near
    the origin never meets the tiny rho^N.  log(e + y) grows like the
    coefficient of w in log y, so the tail exponent drops by alpha.
    """
    if not profile.is_singular_at_origin() or scale <= 0.0:
        return None
    log_mass, tail = profile.power_times_vol_w(1.0)
    log_scale = math.log(scale)

    def log_gw(w):
        ly = log_scale + profile.log_value_w(w)
        return log_scale + log_mass(w) + alpha * np.log(np.logaddexp(1.0, ly))

    return WSlice(log_gw, tail - alpha)


def _weight_blocks(field: GridField, centers: np.ndarray, sigma):
    """ball_weights over blocks of the centers, each of at most CENTER_BLOCK_ENTRIES weights."""
    per_block = max(1, CENTER_BLOCK_ENTRIES // (np.size(sigma) * len(field.u)))
    for i in range(0, len(centers), per_block):
        yield field.ball_weights(centers[i : i + per_block], sigma)


def _grid_averages(field: GridField, values: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Averages of per-cell values over B(z, sigma), |z| = d, one row per center offset d and one column per radius.

    w @ values multiplies each center's (radius x cell) weights by values, so
    every row is bit for bit the single-center ball_weights(d, sigma) @ values.
    """
    vol = ball_volume(field.N, sigma)
    return np.concatenate([w @ values / vol for w in _weight_blocks(field, centers, sigma)])


def _grid_orlicz_averages(field: GridField, alpha: float, centers, sigma, scale: float) -> np.ndarray:
    """orlicz_ball_average of a grid field for every (center, radius) pair, psi_inv one element at a time."""
    avg = _grid_averages(field, psi(alpha, scale * field.u), centers, sigma)
    return _by_rows(lambda row: [psi_inv(alpha, y) for y in row], avg)


def _by_rows(fn, matrix: np.ndarray) -> np.ndarray:
    """fn of each row as a list of Python floats (libm arithmetic), one row's list alive at a time."""
    out = np.empty_like(matrix)
    for i, row in enumerate(matrix):
        out[i] = fn(row.tolist())
    return out


def _morrey_weighting(N: int, spec: NormSpec, sigma: np.ndarray):
    """avg -> sigma^{N/q} avg^{1/alpha} per radius, in libm pow as in ball_average_power's closed form."""
    xs = [x ** (N / spec.q) for x in sigma.tolist()]
    return lambda avg: [x * a ** (1.0 / spec.alpha) for x, a in zip(xs, avg)]


def _ball_quantities(f, spec: NormSpec, centers: np.ndarray, sigma: np.ndarray, scale: float) -> np.ndarray:
    """The weighted quantity whose (z, sigma)-sup defines the norm, one row per center and one column per radius."""
    if not isinstance(f, GridField):
        return np.array([_profile_column(f, spec, d, sigma, scale) for d in centers.tolist()])
    if spec.kind == ORLICZ_ETA:
        return eta(f.N, sigma / spec.R) * _grid_orlicz_averages(f, spec.alpha, np.abs(centers), sigma, scale)
    avg = _grid_averages(f, f.u**spec.alpha, np.abs(centers), sigma) * scale**spec.alpha
    return _by_rows(_morrey_weighting(f.N, spec, sigma), avg)


def _profile_column(f: RadialProfile, spec: NormSpec, d: float, sigma: np.ndarray, scale: float) -> np.ndarray:
    """The weighted ball quantity of a profile for one center and an array of radii (one batched quadrature pass)."""
    if spec.kind == MORREY:
        avg = ball_average_power(f, spec.alpha, d, sigma) * scale**spec.alpha
        return np.array(_morrey_weighting(f.N, spec, sigma)(avg.tolist()))
    # orlicz_eta: weight eta(sigma / R) with R = T^theta playing the reference scale
    w = eta(f.N, sigma / spec.R)
    return w * orlicz_ball_average(f, spec.alpha, d, sigma, scale=scale)


def norm(f, spec: NormSpec, scan: ScanGrid, scale: float = 1.0) -> NormResult:
    """Max of the spec's weighted ball quantity over the scan grid.

    For analytic power-law profiles under a Morrey norm, the origin column is
    the exact power sigma^{N/q - a} below the cutoff: a negative exponent
    diverges as sigma -> 0 under every cap and cutoff, a positive one as
    sigma -> inf when neither is set.  A genuinely divergent norm is reported
    as inf rather than a scan-edge value.
    """
    if not scan.centers or not scan.radii:
        raise ValueError("scan grid must contain at least one center and one radius")
    radii = [s for s in scan.radii if s < spec.R]
    if not radii:
        raise ValueError("scan grid has no radii below the cap R")

    if spec.kind == MORREY and isinstance(f, RadialProfile) and f.kind == "power" and f.c > 0.0:
        grow = f.N / spec.q - f.a
        # the sup over sigma in (0, R) diverges at the origin, or at infinity for uncut data under no cap
        if grow < -1e-13 or (grow > 1e-13 and f.cutoff is None and math.isinf(spec.R)):
            return NormResult(
                value=math.inf,
                arg_center=0.0,
                arg_radius=float(radii[-1] if grow > 0.0 else radii[0]),
                grid_resolution=f"analytic tail: sigma^{grow:+.3g} unbounded on (0, {spec.R:.3g})",
            )

    values = _ball_quantities(f, spec, np.array(scan.centers), np.array(radii), scale)
    i, j = divmod(int(np.argmax(values)), len(radii))  # the first of equal maxima: first center, then first radius
    res = f"{len(scan.centers)} centers x {len(radii)} radii in [{radii[0]:.3g}, {radii[-1]:.3g}]"
    return NormResult(
        value=float(values[i, j]), arg_center=float(scan.centers[i]), arg_radius=float(radii[j]), grid_resolution=res
    )


def condition_spec(params: ProblemParams, T: float, delta: float, beta_or_alpha: float) -> Optional[NormSpec]:
    """Check check_condition's inputs and return the norm its regime measures.

    None for the subcritical mass condition, the orlicz_eta norm with alpha =
    beta_or_alpha for the critical one and the Morrey norm
    |||.|||_{N(p-m)/2, beta; T^theta} for the supercritical one, each capped at
    R = T^theta.  A finite T must keep every power of T that the condition
    takes a finite float > 0.  NaN fails every check.  A ValueError's message
    starts with the argument it rejects (delta or T) or names the exponent.
    """
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta!r}")
    regime = classify_regime(params)
    if regime is not Regime.SUPERCRITICAL and math.isinf(T):
        raise ValueError("T = inf is admissible only in the supercritical regime")
    if not T > 0.0:
        raise ValueError(f"T must be > 0, got {T!r}")
    ex = derive_exponents(params)
    if math.isfinite(T):
        _check_power_of_T(T, ex.theta, "T^theta")
    if regime is Regime.SUBCRITICAL:
        _check_power_of_T(T, ex.theta * (params.N - ex.a_ss), "T^(theta (N - 2/(p-m)))")
        return None
    if regime is Regime.CRITICAL:
        _check_power_of_T(T, 1.0 / (params.p - 1.0), "T^(1/(p-1))")
        return orlicz_eta(beta_or_alpha, R=T**ex.theta)
    validate_beta(params, beta_or_alpha)
    return morrey(q=params.N * (params.p - params.m) / 2.0, alpha=beta_or_alpha, R=T**ex.theta)


def _check_power_of_T(T: float, expo: float, name: str) -> None:
    """Reject a T whose power T**expo overflows, underflows to 0 or is NaN."""
    try:
        value = T**expo
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ValueError(f"T = {T!r} gives {name} = {value!r}, not a finite float > 0")


def check_condition(
    params: ProblemParams,
    f,
    T: float,
    delta: float,
    beta_or_alpha: float,
    scan: Optional[ScanGrid] = None,
) -> SolvabilityVerdict:
    """Evaluate the regime's solvability condition left side against delta.

    subcritical:    sup_z mu(B(z, T^theta)) / T^{theta (N - 2/(p-m))}   (finite T)
    critical:       sup_{z,sigma<T^theta} eta(sigma/T^theta) psi_alpha^{-1}(avg psi_alpha(T^{1/(p-1)} mu))
    supercritical:  |||mu|||_{N(p-m)/2, beta; T^theta}                   (T = inf allowed)

    The subcritical condition is normalized by its threshold scale so that
    met == (condition_value <= delta) uniformly across regimes.  condition_spec
    checks the inputs.
    """
    spec = condition_spec(params, T, delta, beta_or_alpha)
    regime = classify_regime(params)
    ex = derive_exponents(params)
    if regime is Regime.SUBCRITICAL:
        sigma = T**ex.theta
        centers = scan.centers if scan is not None else (0.0,)
        if isinstance(f, GridField):
            offsets = np.array([radial_offset(d) for d in centers])
            # one np.dot per row, as ball_mass_at takes it
            mass = max(float(np.dot(f.u, w)) for block in _weight_blocks(f, offsets, sigma) for w in block)
        else:
            mass = max(ball_mass(f, d, sigma) for d in centers)
        threshold_scale = T ** (ex.theta * (params.N - ex.a_ss))
        value = mass / threshold_scale
    elif regime is Regime.CRITICAL:
        if scan is None:
            scan = ScanGrid.build(spec, r_min=1e-3 * spec.R)
        scale = T ** (1.0 / (params.p - 1.0))
        value = norm(f, spec, scan, scale=scale).value
    else:
        if scan is None:
            r_hi = spec.radius_cap()
            scan = ScanGrid.build(spec, r_min=1e-6 * min(r_hi, 1e3))
        value = norm(f, spec, scan).value

    return SolvabilityVerdict(
        regime=regime,
        condition_value=float(value),
        delta=delta,
        met=bool(value <= delta),
        T_used=T,
    )
