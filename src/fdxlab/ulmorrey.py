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

Both gauges take one path.  A scan fills one (center x radius) matrix of
ball averages of Phi(scale f) and takes the first maximum of the weighted
matrix in row-major order: the first center, then the first radius.  A
profile fills it one center at a time: closed forms first (centered power
balls, and every N = 1 Morrey ball of power or constant data, an interval),
then all other radii of the center in one batched quadrature pass.  An N = 1
grid field fills it from prefix sums of its cell masses (_interval_masses,
O(cells + centers x radii log cells), exact to about one rounding).  The
balls of an N = 2 or 3 grid field cut its cell shells in lenses, which no
prefix sum holds: one GridField.ball_weights call and one matmul per block
of centers (at most CENTER_BLOCK_ENTRIES weights, O(centers x radii x
cells)) fill it, so memory stays bounded.
The weight rho(sigma) and Phi^{-1} then act on the whole matrix in numpy.
Phi^{-1} has one site, _phi_inv (np.power, or psi_inv_array), which
orlicz_ball_average shares; closed-form Orlicz-eta entries (constant data,
and inf where the origin slice diverges) are final and skip it.  The
subcritical mass condition reads the same averages at its one radius, so
_averages alone picks the grid or the profile kernel.
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
    ball_average_tail,
    ball_volume,
    radial_offset,
)
from .special_functions import eta, psi, psi_inv_array
from .special_functions import psi_inv  # noqa: F401  not called here; perfbench/tests reads ulmorrey.psi_inv
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
        if math.isinf(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha!r}")
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
    one batched pass); the result has its shape.  psi_alpha^{-1} is the norm
    scan's: _phi_inv, so a column here equals the scan's row of this center.
    """
    s, scalar = as_radii(sigma)
    avg, closed = _averages(f, ORLICZ_ETA, alpha, np.array([radial_offset(z)]), s, scale)
    out = _phi_inv(ORLICZ_ETA, alpha, avg, closed)[0]
    return float(out[0]) if scalar else out


def _averages(f, kind: str, alpha: float, centers: np.ndarray, sigma: np.ndarray, scale: float) -> tuple:
    """Ball averages of Phi(scale * f), one row per center offset and one column per radius, and their closed mask.

    Phi is xi^alpha (morrey: the average of f^alpha times scale^alpha) or
    psi_alpha (orlicz_eta).  A closed entry holds Phi^{-1} of its average,
    which needs no inversion: orlicz_eta profiles only, scale c for constant
    data on balls inside the cutoff, inf on balls that reach the origin where
    the origin slice's tail w^-q has q <= 1.  A Morrey average of data whose
    f^alpha leaves the floats, or an Orlicz-eta average whose
    psi_alpha(scale f) does, is a ValueError naming alpha.  The centers are
    finite (_scan_centers); a signed center stands for its absolute value.
    """
    closed = np.full((len(centers), len(sigma)), False)
    grid = isinstance(f, GridField)
    if kind == ORLICZ_ETA and not grid:
        avg = np.array([_orlicz_row(f, alpha, abs(d), sigma, scale, c) for d, c in zip(centers.tolist(), closed)])
    else:
        try:
            with np.errstate(over="ignore", invalid="ignore"):  # an inf Phi(scale f) (and inf times 0) is rejected below
                if kind == ORLICZ_ETA:
                    avg = _grid_averages(f, psi(alpha, scale * f.u), np.abs(centers), sigma)
                else:
                    avg = _grid_averages(f, f.u**alpha, np.abs(centers), sigma) if grid else \
                        np.array([ball_average_power(f, alpha, d, sigma) for d in centers.tolist()])
                    avg = avg * scale**alpha
        except OverflowError:  # a Python float power: c^alpha or f(0)^alpha, sigma^(-a alpha) or scale^alpha
            avg = np.full(closed.shape, math.inf)
    if not np.isfinite(avg[~closed]).all():  # a closed entry is Phi^{-1} of its average, inf where it diverges
        gauge = "Morrey gauge f^alpha" if kind == MORREY else "Orlicz gauge psi_alpha(scale f)"
        raise ValueError(f"alpha = {alpha!r} takes the {gauge} of the data past the largest float")
    return avg, closed


def _scan_centers(centers: tuple) -> np.ndarray:
    """A scan's centers as an array, each finite (a signed center stands for its absolute value)."""
    c = np.array(centers, dtype=float)
    if not np.isfinite(c).all():
        raise ValueError(f"centers must be finite, got {c.tolist()!r}")
    return c


def _orlicz_row(profile: RadialProfile, alpha: float, d: float, s: np.ndarray, scale: float, closed: np.ndarray):
    """One center's orlicz_eta averages: closed forms, marked in the row closed, then ball_average_tail for the rest.

    psi_alpha(scale f) at the data's peak, or at the amplitude c of singular
    data, is taken first: where it leaves the floats, the rest is inf and
    runs no quadrature.
    """
    avg = np.empty(len(s))
    g = _orlicz_gw(profile, alpha, scale)
    if profile.kind == "constant":
        closed[:] = True if profile.cutoff is None else d + s <= profile.cutoff
        avg[closed] = scale * profile.c
    elif g is not None and g.tail <= 1.0:  # the rule singular_slice_integral enforces: w^-q, q <= 1 diverges
        closed[:] = d <= s
        avg[closed] = math.inf
    with np.errstate(over="ignore"):
        peak = psi(alpha, scale * (profile.value(0.0) if profile.kind == "barenblatt" else profile.c))
    if not math.isfinite(peak):
        avg[~closed] = math.inf
        return avg
    return ball_average_tail(profile, lambda rho: psi(alpha, scale * profile.value(rho)), g, d, s, avg, closed)


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


def _grid_averages(field: GridField, values: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Averages of per-cell values >= 0 over B(z, sigma), |z| = d, one row per center offset d and one column per radius.

    N = 1 balls are intervals: _interval_masses reads each mass off prefix
    sums of the cell masses, O(cells + centers x radii log cells) and exact
    to about one rounding.  For N = 2 and 3 the part of a ball inside a cell
    shell is a lens, which no prefix sum holds: blocks of centers (at most
    CENTER_BLOCK_ENTRIES weights) go through ball_weights, O(centers x radii x
    cells), and w @ values multiplies each center's (radius x cell) weights
    by values, so every row is bit for bit the single-center
    ball_weights(d, sigma) @ values.  A negative average can only be rounding
    of the lens weights and is taken as 0, the average's lower bound.
    """
    vol = ball_volume(field.N, sigma)
    if field.N == 1:
        return _interval_masses(field, values, centers, sigma) / vol
    n = max(1, CENTER_BLOCK_ENTRIES // (len(sigma) * len(field.u)))  # centers per block
    rows = [field.ball_weights(centers[i : i + n], sigma) @ values / vol for i in range(0, len(centers), n)]
    return np.maximum(np.concatenate(rows), 0.0)


def _interval_masses(field: GridField, values: np.ndarray, centers: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Masses of an N = 1 step field with these cell values >= 0 over B(z, sigma), |z| = d, one row per d.

    The field is even, so the ball [d - sigma, d + sigma] holds its integral
    over [a, b] = [max(d - sigma, 0), d + sigma] plus that over the reflected
    piece [0, c], c = max(sigma - d, 0), with nothing past the last edge.  The
    cell masses are summed once into TwoSum prefix pairs (hi, lo) (Ogita, Rump
    and Oishi, SIAM J. Sci. Comput. 26, 2005), the values first scaled by a
    power of two so that no prefix overflows unless a ball mass does.  A ball
    then takes three searchsorted lookups (the cells of a, b and c) and sums
    the whole cells of [a, b] (a pair difference), the prefix to c's cell and
    the partial end cells with their TwoSum errors: a mass is exact to about
    one rounding at the float ends a, b and c, and balls over the same cells
    tie.  A value past the largest float makes every mass NaN, as 0 * inf
    does in a lens-weight row.
    """
    if not np.isfinite(values).all():
        return np.full((len(centers), len(sigma)), math.nan)
    e = field.edges
    h = np.diff(e)
    n = len(h)
    k = max(0, math.frexp(values.max())[1] + math.frexp(h.max())[1] + n.bit_length() - 1023)  # sum < 2^1023
    v = np.ldexp(values, -k)
    m = v * h
    hi = np.concatenate(([0.0], np.cumsum(m)))  # sequential: hi[i + 1] = hi[i] + m[i], rounded
    lo = np.concatenate(([0.0], np.cumsum(_two_sum(hi[:-1], m)[1])))
    d, s = centers[:, None], sigma[None, :]
    a, b, c = (np.minimum(x, e[-1]) for x in (np.maximum(d - s, 0.0), d + s, np.maximum(s - d, 0.0)))
    ka, kb, kc = (np.minimum(np.searchsorted(e, x, side="right") - 1, n - 1) for x in (a, b, c))
    i, j = ka + 1, np.maximum(kb, ka + 1)  # the whole cells of [a, b] are i .. j - 1
    ends = v[ka] * (np.minimum(b, e[i]) - a) + v[kb] * np.maximum(b - e[j], 0.0) + v[kc] * (c - e[kc])
    s1, e1 = _two_sum(hi[j], -hi[i])
    s2, e2 = _two_sum(s1, hi[kc])
    s3, e3 = _two_sum(s2, ends)
    return np.ldexp(s3 + ((e1 + e2 + e3) + (lo[j] - lo[i] + lo[kc])), k)


def _two_sum(a, b) -> tuple:
    """s = a + b rounded and its error a + b - s, exact (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _phi_inv(kind: str, alpha: float, avg: np.ndarray, closed: np.ndarray) -> np.ndarray:
    """Phi^{-1} of the averages, np.power(avg, 1/alpha) or psi_inv_array; closed entries already hold it."""
    open_avg = np.where(closed, 0.0, avg)
    inv = np.power(open_avg, 1.0 / alpha) if kind == MORREY else psi_inv_array(alpha, open_avg)
    return np.where(closed, avg, inv)


def _ball_quantities(f, spec: NormSpec, centers: np.ndarray, sigma: np.ndarray, scale: float) -> np.ndarray:
    """The weighted quantity whose (z, sigma)-sup defines the norm, one row per center and one column per radius.

    The weight, one array for both paths (libm pow sigma^{N/q}, or eta(sigma/R)
    with R = T^theta as reference scale), times _phi_inv of the averages
    fills the matrix.
    """
    avg, closed = _averages(f, spec.kind, spec.alpha, centers, sigma, scale)
    if spec.kind == MORREY:
        k = f.N / spec.q
        w = np.array([s**k for s in sigma.tolist()])
    else:
        w = eta(f.N, sigma / spec.R)
    return w * _phi_inv(spec.kind, spec.alpha, avg, closed)


def norm(f, spec: NormSpec, scan: ScanGrid, scale: float = 1.0) -> NormResult:
    """Max of the spec's weighted ball quantity over the scan grid.

    For analytic power-law and constant profiles (a = 0) under a Morrey norm,
    the origin column is the exact power sigma^{N/q - a} below the cutoff: a
    negative exponent diverges as sigma -> 0 under every cap and cutoff, a
    positive one as sigma -> inf when neither is set.  A genuinely divergent
    norm is reported as inf rather than a scan-edge value.
    """
    if not scan.centers or not scan.radii:
        raise ValueError("scan grid must contain at least one center and one radius")
    radii = [s for s in scan.radii if s < spec.R]
    if not radii:
        raise ValueError("scan grid has no radii below the cap R")
    centers = _scan_centers(scan.centers)

    if spec.kind == MORREY and isinstance(f, RadialProfile) and f.kind in ("power", "constant") and f.c > 0.0:
        grow = f.N / spec.q - f.a
        # the sup over sigma in (0, R) diverges at the origin, or at infinity for uncut data under no cap
        if grow < -1e-13 or (grow > 1e-13 and f.cutoff is None and math.isinf(spec.R)):
            return NormResult(
                value=math.inf,
                arg_center=0.0,
                arg_radius=float(radii[-1] if grow > 0.0 else radii[0]),
                grid_resolution=f"analytic tail: sigma^{grow:+.3g} unbounded on (0, {spec.R:.3g})",
            )

    values = _ball_quantities(f, spec, centers, np.array(radii), scale)
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

    The subcritical mass is the largest average of mu over B(z, T^theta), z
    in the scan's centers (the origin by default), times the ball volume: one
    Morrey column of _averages, normalized by its threshold scale so that
    met == (condition_value <= delta) uniformly across regimes.
    condition_spec checks the inputs.
    """
    spec = condition_spec(params, T, delta, beta_or_alpha)
    regime = classify_regime(params)
    ex = derive_exponents(params)
    if regime is Regime.SUBCRITICAL:
        sigma = T**ex.theta
        centers = _scan_centers(scan.centers if scan is not None else (0.0,))
        avg, _ = _averages(f, MORREY, 1.0, centers, np.array([sigma]), 1.0)
        mass = avg.max() * ball_volume(f.N, sigma)
        value = mass / T ** (ex.theta * (params.N - ex.a_ss))  # normalized by the threshold scale
    else:
        critical = regime is Regime.CRITICAL
        if scan is None:
            scan = ScanGrid.build(spec, r_min=1e-3 * spec.R if critical else 1e-6 * min(spec.radius_cap(), 1e3))
        value = norm(f, spec, scan, scale=T ** (1.0 / (params.p - 1.0)) if critical else 1.0).value

    return SolvabilityVerdict(
        regime=regime,
        condition_value=float(value),
        delta=delta,
        met=bool(value <= delta),
        T_used=T,
    )
