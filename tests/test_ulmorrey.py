import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fdxlab.exponents import ProblemParams, Regime
from fdxlab.profiles import ball_volume, constant, critical_log, power_law
from fdxlab.solver import GridField
from fdxlab.special_functions import eta, psi, psi_inv
from fdxlab.ulmorrey import (
    CENTER_BLOCK_ENTRIES,
    ScanGrid,
    check_condition,
    morrey,
    norm,
    orlicz_ball_average,
    orlicz_eta,
)

SUP = ProblemParams(N=1, m=0.5, p=3.0)


# -- orlicz ball averages ----------------------------------------------------------


def test_orlicz_average_of_constant_is_identity():
    for alpha in (0.5, 1.0, 2.0):
        for sigma in (0.1, 1.0, 7.0):
            assert orlicz_ball_average(constant(2.5, 2), alpha, 0.7, sigma) == pytest.approx(2.5)
    assert orlicz_ball_average(constant(0.0, 1), 1.0, 0.0, 1.0) == 0.0


def test_orlicz_average_power_profile_oracle():
    # pinned quadrature + inversion oracle for PowerLaw(1, 0.8), N=1, alpha=1, sigma=0.1
    val = orlicz_ball_average(power_law(1.0, 0.8, 1), 1.0, 0.0, 0.1)
    assert val == pytest.approx(47.64842202132057, rel=1e-8)


def test_orlicz_average_respects_scale():
    # scale enters inside psi, not linearly; constant data still returns scale * c
    assert orlicz_ball_average(constant(0.4, 1), 1.5, 0.0, 1.0, scale=3.0) == pytest.approx(1.2)


# -- norm --------------------------------------------------------------------------


def test_norm_constant_profile_attains_cap():
    spec = morrey(q=2.0, alpha=1.0, R=4.0)
    scan = ScanGrid.build(spec, r_min=1e-2, centers=(0.0, 1.0))
    res = norm(constant(3.0, 1), spec, scan)
    # value c * sigma^{N/q} maximized at the largest scanned radius below R
    assert res.value == pytest.approx(3.0 * res.arg_radius ** (1.0 / 2.0), rel=1e-12)
    assert res.arg_radius == pytest.approx(4.0, rel=1e-6)


def test_norm_exact_power_profile_radius_independent():
    # |||c |x|^{-2/(p-m)}|||_{N(p-m)/2, 1; inf} = 5c for N=1, m=0.5, p=3
    prof = power_law(0.1, 0.8, 1)
    spec = morrey(q=1.25, alpha=1.0, R=math.inf)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=16)
    res = norm(prof, spec, scan)
    assert res.value == pytest.approx(0.5, rel=1e-10)
    assert res.arg_center == 0.0


def test_norm_beta_above_one_oracle():
    # analytic 1-D power integral oracle: value = (1/0.12)^{1/1.1} * c
    prof = power_law(0.1, 0.8, 1)
    spec = morrey(q=1.25, alpha=1.1, R=math.inf)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=16)
    res = norm(prof, spec, scan)
    assert res.value == pytest.approx(0.1 * 6.8723925464104765, rel=1e-10)


def test_norm_divergent_power_profile_reports_inf():
    prof = power_law(1.0, 0.3, 1)  # N/q - a = 0.8 - 0.3 > 0: grows with sigma
    spec = morrey(q=1.25, alpha=1.0, R=math.inf)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=4)
    assert math.isinf(norm(prof, spec, scan).value)


@pytest.mark.parametrize("R, cutoff", [(1.0, None), (math.inf, 0.5), (1.0, 0.5)])
def test_norm_diverging_at_the_origin_is_inf_under_every_cap_and_cutoff(R, cutoff):
    prof = power_law(0.001, 0.85, 1, cutoff)  # N/q - a = 0.8 - 0.85 < 0: grows as sigma -> 0
    spec = morrey(q=1.25, alpha=1.1, R=R)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=4)
    res = norm(prof, spec, scan)
    assert math.isinf(res.value)
    assert res.arg_radius == scan.radii[0]


def test_norm_empty_scan_error():
    spec = morrey(q=1.25, alpha=1.0, R=1.0)
    with pytest.raises(ValueError):
        norm(power_law(0.1, 0.8, 1), spec, ScanGrid(centers=(), radii=(0.5,)))


def test_norm_homogeneity_exact_on_same_scan():
    spec = morrey(q=2.0, alpha=1.0, R=2.0)
    scan = ScanGrid.build(spec, r_min=1e-2, centers=(0.0, 0.5))
    base = norm(power_law(1.0, 0.5, 1), spec, scan).value
    scaled = norm(power_law(3.0, 0.5, 1), spec, scan).value
    assert scaled == pytest.approx(3.0 * base, rel=1e-12)


def _random_field(rng, N=1, cells=128, R=4.0) -> GridField:
    u = rng.uniform(0.0, 1.0, size=cells) ** 2
    return GridField(N=N, dr=R / cells, u=u, R_dom=R)


def test_norm_monotone_under_domination():
    rng = np.random.default_rng(7)
    spec = morrey(q=2.0, alpha=1.0, R=1.0)
    for _ in range(10):
        f = _random_field(rng)
        g = GridField(f.N, f.dr, f.u + rng.uniform(0.0, 0.5, size=len(f.u)), f.R_dom)
        scan = ScanGrid.for_field(f, spec, radii_per_decade=8)
        assert norm(f, spec, scan).value <= norm(g, spec, scan).value * (1.0 + 1e-12)


def test_norm_radius_cap_monotone():
    prof = power_law(1.0, 0.5, 1)
    vals = []
    for R in (0.5, 1.0, 2.0, 4.0):
        spec = morrey(q=1.6, alpha=1.0, R=R)
        scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=8)
        vals.append(norm(prof, spec, scan).value)
    assert all(a <= b * (1.0 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_doubling_property_on_random_fields():
    # sup_z mass(B(z, 2R)) <= 3^N sup_z mass(B(z, R)) for N = 1
    rng = np.random.default_rng(2024)
    R = 0.5
    for _ in range(100):
        f = _random_field(rng, cells=96, R=4.0)
        m1 = max(f.ball_mass_at(d, R) for d in f.r[::2])
        m2 = max(f.ball_mass_at(d, 2 * R) for d in f.r[::2])
        assert m2 <= 3.0 * m1 * (1.0 + 1e-9)


def test_scale_equivalence_two_sided():
    # norm at cap R vs cap 1: within [1, R^{N/q} 3^{N/alpha}] on random fields
    rng = np.random.default_rng(11)
    R, q, alpha = 4.0, 2.0, 1.0
    bound = R ** (1.0 / q) * 3.0
    for _ in range(10):
        f = _random_field(rng, cells=96, R=8.0)
        spec_R = morrey(q=q, alpha=alpha, R=R)
        spec_1 = morrey(q=q, alpha=alpha, R=1.0)
        scan_R = ScanGrid.for_field(f, spec_R, radii_per_decade=8)
        scan_1 = ScanGrid.for_field(f, spec_1, radii_per_decade=8)
        v_R = norm(f, spec_R, scan_R).value
        v_1 = norm(f, spec_1, scan_1).value
        assert v_1 <= v_R * (1.0 + 1e-12)
        assert v_R <= bound * v_1 * (1.0 + 1e-12)


# -- check_condition ----------------------------------------------------------------


def test_check_condition_subcritical_constant_mass():
    params = ProblemParams(N=1, m=0.5, p=1.2)
    v = check_condition(params, constant(0.3, 1), T=1.0, delta=1.0, beta_or_alpha=1.0)
    assert v.regime is Regime.SUBCRITICAL
    assert v.condition_value == pytest.approx(0.6)  # mass of B(z, 1) in 1-D
    assert v.met
    v2 = check_condition(params, constant(0.3, 1), T=1.0, delta=0.5, beta_or_alpha=1.0)
    assert not v2.met


def test_check_condition_supercritical_power_profile():
    v = check_condition(SUP, power_law(0.1, 0.8, 1), T=math.inf, delta=1.0, beta_or_alpha=1.1)
    assert v.regime is Regime.SUPERCRITICAL
    assert v.condition_value == pytest.approx(0.1 * 6.8723925464104765, rel=1e-8)
    assert v.met
    assert math.isinf(v.T_used)


def test_check_condition_supercritical_origin_divergence_is_unmet():
    # the capped norm |||.|||_{1.25, 1.1; 1} of 0.001 |x|^-0.85 is infinite: sigma^{0.8 - 0.85} diverges as sigma -> 0
    v = check_condition(SUP, power_law(0.001, 0.85, 1), T=1.0, delta=1.0, beta_or_alpha=1.1)
    assert math.isinf(v.condition_value)
    assert not v.met


def test_check_condition_zero_data():
    v = check_condition(SUP, constant(0.0, 1), T=1.0, delta=1e-12, beta_or_alpha=1.1)
    assert v.condition_value == 0.0
    assert v.met


def test_check_condition_rejects_bad_beta():
    with pytest.raises(ValueError):
        check_condition(SUP, power_law(0.1, 0.8, 1), T=1.0, delta=1.0, beta_or_alpha=1.5)


def test_check_condition_critical_uses_orlicz():
    params = ProblemParams(N=2, m=0.5, p=1.5)
    prof = critical_log(0.02, 2)
    v = check_condition(params, prof, T=1.0, delta=10.0, beta_or_alpha=0.6)
    assert v.regime is Regime.CRITICAL
    assert 0.0 < v.condition_value < math.inf
    assert v.met


@pytest.mark.parametrize("N", [1, 2])
def test_check_condition_critical_log_alpha_above_half_n_is_infinite(N):
    # alpha = 1 >= N/2: psi_alpha of the data behaves like L^{alpha-N/2-1} dL at the origin
    params = ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N)
    prof = critical_log(0.02, N)
    v = check_condition(params, prof, T=1.0, delta=1.0, beta_or_alpha=1.0)
    assert v.regime is Regime.CRITICAL
    assert math.isinf(v.condition_value)
    assert not v.met
    # only balls reaching the origin diverge
    assert math.isinf(orlicz_ball_average(prof, 1.0, 0.1, 0.1))
    assert 0.0 < orlicz_ball_average(prof, 1.0, 0.5, 0.1) < math.inf


@pytest.mark.parametrize("N", [1, 2, 3])
def test_critical_verdicts_meet_their_tolerance_without_warning_or_fallback(N):
    # the benchmark's critical_N jobs; for N = 1 quad warned (IntegrationWarning) on the heavy w^-1.25 tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check_condition(ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N), critical_log(0.02, N), 1.0, 1.0, N / 4.0)
    assert 0.0 < v.condition_value < math.inf


@pytest.mark.parametrize("params", [ProblemParams(N=1, m=0.5, p=1.2), ProblemParams(N=1, m=0.5, p=2.5), SUP])
def test_check_condition_rejects_nan_delta_and_T(params):
    # NaN passes every `x <= 0` test: the verdict read met = True for T = nan and met = False for delta = nan
    prof = critical_log(0.02, 1) if params.p == 2.5 else power_law(0.1, 0.8, 1)
    with pytest.raises(ValueError, match="delta must be > 0, got nan"):
        check_condition(params, prof, T=1.0, delta=math.nan, beta_or_alpha=1.1)
    with pytest.raises(ValueError, match="T must be > 0, got nan"):
        check_condition(params, prof, T=math.nan, delta=1.0, beta_or_alpha=1.1)


@pytest.mark.parametrize("N, m, p, T, power", [
    # subcritical, theta = 25.5 and theta (N - 2/(p-m)) = -74.5: these T overflowed, underflowed
    # the ball radius to 0 or divided by a threshold scale of 0
    (1, 0.5, 1.01, 1e30, "T^theta = inf"),
    (1, 0.5, 1.01, 1e-30, "T^theta = 0.0"),
    (1, 0.5, 1.01, 1e5, "T^(theta (N - 2/(p-m))) = 0.0"),
    # critical, theta = 50: the data scale T^(1/(p-1)) = T^150 overflows where T^theta does not
    (3, 0.34, 0.34 + 2.0 / 3.0, 1e3, "T^(1/(p-1)) = inf"),
])
def test_check_condition_rejects_a_T_whose_powers_leave_the_floats(N, m, p, T, power):
    params = ProblemParams(N=N, m=m, p=p)
    with pytest.raises(ValueError, match=re.escape(f"T = {T!r} gives {power}")):
        check_condition(params, constant(0.5, N), T=T, delta=1.0, beta_or_alpha=0.5)


def test_norm_specs_reject_nan_exponents():
    for name in ("q", "alpha"):
        with pytest.raises(ValueError, match=f"^{name} must be >= 1 for the morrey norm, got nan"):
            morrey(**{"q": 1.25, "alpha": 1.0, name: math.nan})
    with pytest.raises(ValueError, match="^alpha must be > 0 for the orlicz_eta norm, got nan"):
        orlicz_eta(math.nan, 1.0)


def test_check_condition_infinite_T_needs_supercritical():
    params = ProblemParams(N=1, m=0.5, p=1.2)
    with pytest.raises(ValueError):
        check_condition(params, constant(0.1, 1), T=math.inf, delta=1.0, beta_or_alpha=1.0)


def test_orlicz_eta_norm_rejects_an_infinite_radius():
    # eta(sigma / inf) = 0 for every sigma, so an uncapped orlicz_eta norm would read 0 (or NaN)
    with pytest.raises(ValueError, match="R must be finite"):
        orlicz_eta(1.0, math.inf)


def test_orlicz_eta_norm_weight_maximum_inside():
    # weight eta(sigma/R) increases toward R: for constant data the sup sits at sigma -> R
    params = ProblemParams(N=2, m=0.5, p=1.5)
    spec = orlicz_eta(alpha=0.6, R=1.0)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=16)
    res = norm(constant(0.5, 2), spec, scan)
    assert res.arg_radius == pytest.approx(1.0, rel=1e-6)
    assert res.value == pytest.approx(eta(2, res.arg_radius / 1.0) * 0.5, rel=1e-9)


# -- N = 1 grid fields against an exact interval oracle -----------------------------


def _interval_integral(values, dr: float):
    """(a, b) -> the exact integral over [a, b] of the even N = 1 step field with these cell values.

    Cumulative cell sums in rational arithmetic, zero past the last cell; a
    ball B(z, sigma) with |z| = d is the interval [d - sigma, d + sigma].
    """
    v, h = [Fraction(x) for x in values], Fraction(dr)
    cum = [Fraction(0)]
    for x in v:
        cum.append(cum[-1] + x * h)

    def signed(x: Fraction) -> Fraction:  # integral from 0 to x
        k = min(int(abs(x) / h), len(v))
        inside = cum[k] + (v[k] * (abs(x) - k * h) if k < len(v) else 0)
        return inside if x >= 0 else -inside

    return lambda a, b: signed(Fraction(b)) - signed(Fraction(a))


def _psi_inv_bisect(alpha: float, y: float) -> float:
    lo, hi = 0.0, y  # psi(x) = x log(e + x)^alpha >= x
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        if mid * math.log(math.e + mid) ** alpha < y:
            lo = mid
        else:
            hi = mid


def test_grid_orlicz_eta_norm_matches_an_exact_interval_oracle():
    rng = np.random.default_rng(11)
    worst = 0.0
    R = 2.0
    for alpha, scale in ((0.5, 1.0), (1.5, 2.5)):
        f = _random_field(rng, cells=60, R=4.0)
        spec = orlicz_eta(alpha, R)
        scan = ScanGrid.for_field(f, spec)
        radii = [s for s in scan.radii if s < R]
        psi_u = [x * math.log(math.e + x) ** alpha for x in (scale * f.u).tolist()]
        integral = _interval_integral(psi_u, f.dr)
        best = 0.0
        for d in scan.centers:
            got = orlicz_ball_average(f, alpha, d, np.array(radii), scale=scale)
            for s, g in zip(radii, got):
                y = float(integral(Fraction(d) - Fraction(s), Fraction(d) + Fraction(s)) / (2 * Fraction(s)))
                avg = _psi_inv_bisect(alpha, y)
                worst = max(worst, abs(g - avg) / avg)
                best = max(best, s / R * math.sqrt(math.log(math.e + R / s)) * avg)  # eta(s/R) for N = 1
        value = norm(f, spec, scan, scale=scale).value
        worst = max(worst, abs(value - best) / best)
    print(f"grid orlicz_eta N=1: worst relative error against the interval oracle {worst:.2e}")
    assert worst <= 1e-12


def test_subcritical_grid_verdict_is_the_largest_exact_interval_mass():
    params = ProblemParams(N=1, m=0.5, p=2.0)  # p_m = 2.5
    theta = (params.p - params.m) / (2.0 * (params.p - 1.0))
    rng = np.random.default_rng(5)
    for T in (0.05, 0.5, 3.0):
        f = _random_field(rng, cells=48, R=4.0)
        scan = ScanGrid.for_field(f, morrey(q=2.0, R=2.0))
        sigma = T**theta
        mass = _interval_integral(f.u.tolist(), f.dr)
        exact = max(float(mass(Fraction(d) - Fraction(sigma), Fraction(d) + Fraction(sigma))) for d in scan.centers)
        v = check_condition(params, f, T, 1.0, 1.0, scan=scan)
        assert v.regime is Regime.SUBCRITICAL
        assert v.condition_value == pytest.approx(exact / T ** (theta * (1 - 2.0 / (params.p - params.m))), rel=1e-12)


# -- grid scans against a per-center reference --------------------------------------


def _per_center_norm(f: GridField, spec, scan: ScanGrid, scale: float) -> tuple:
    """(value, arg_center, arg_radius) of a grid norm from one ball_weights call per center.

    The same arithmetic as the scan, one center at a time: a later center wins
    only when strictly larger, and np.argmax takes the first of equal radii.
    """
    radii = np.array([s for s in scan.radii if s < spec.R])
    vol = ball_volume(f.N, radii)
    best = None
    for d in scan.centers:
        w = f.ball_weights(abs(d), radii)
        if spec.kind == "morrey":
            avg = w @ f.u**spec.alpha / vol * scale**spec.alpha
            q = np.array([x ** (f.N / spec.q) * a ** (1.0 / spec.alpha) for x, a in zip(radii.tolist(), avg.tolist())])
        else:
            avg = w @ psi(spec.alpha, scale * f.u) / vol
            q = eta(f.N, radii / spec.R) * np.array([psi_inv(spec.alpha, y) for y in avg.tolist()])
        j = int(np.argmax(q))
        if best is None or q[j] > best[0]:
            best = (float(q[j]), d, float(radii[j]))
    return best


def test_grid_norm_equals_the_per_center_reference_bit_for_bit():
    rng = np.random.default_rng(20)
    specs = [morrey(q, alpha, R) for q, alpha, R in ((1.0, 1.0, 2.0), (2.0, 1.5, math.inf), (3.5, 2.0, 0.7))]
    specs += [orlicz_eta(alpha, R=2.0) for alpha in (0.25, 0.5, 1.5)]
    cases = []
    for N in (1, 2, 3):
        for spec in specs:
            f = _random_field(rng, N=N, cells=int(rng.integers(12, 60)), R=4.0)
            f.u[rng.uniform(size=len(f.u)) < 0.3] = 0.0  # zero cells
            cases.append((f, spec, ScanGrid.for_field(f, spec), float(rng.choice([1.0, 0.3, 2.5]))))
    # more weights than one center block holds, so the scan takes several ball_weights calls
    big = _random_field(rng, N=2, cells=200, R=4.0)
    for spec in (morrey(2.0, 1.5, R=2.0), orlicz_eta(0.5, R=2.0)):
        scan = ScanGrid.for_field(big, spec)
        assert len(scan.centers) * len(scan.radii) * len(big.u) > 4 * CENTER_BLOCK_ENTRIES
        cases.append((big, spec, scan, 1.7))
    for f, spec, scan, scale in cases:
        res = norm(f, spec, scan, scale=scale)
        assert (res.value, res.arg_center, res.arg_radius) == _per_center_norm(f, spec, scan, scale), (f.N, spec)
    # ties go to the first center, then the first radius: a zero field ties every ball, and N = 1
    # unit data on binary radii and offsets tie every ball inside the domain exactly, so the
    # largest radius wins at the first such center in either order of the centers
    zero = GridField(N=2, dr=0.25, u=np.zeros(16), R_dom=4.0)
    ones = GridField(N=1, dr=0.25, u=np.ones(16), R_dom=4.0)
    radii = (0.25, 0.5, 1.0, 2.0)
    for spec in (morrey(2.0, 1.5, R=4.0), orlicz_eta(0.5, R=4.0)):
        for centers, first in (((3.5, 1.5, 0.5, 0.0), 1.5), ((0.0, 0.5, 1.5, 3.5), 0.0)):
            scan = ScanGrid(centers=centers, radii=radii)
            res = norm(zero, spec, scan, scale=2.0)
            assert (res.value, res.arg_center, res.arg_radius) == (0.0, centers[0], 0.25)
            res = norm(ones, spec, scan)
            assert (res.arg_center, res.arg_radius) == (first, 2.0)
            assert (res.value, res.arg_center, res.arg_radius) == _per_center_norm(ones, spec, scan, 1.0)
    # one unit cell [1, 1.25] ties (1, 0.25) with (1.125, 0.125) exactly: the first center wins, not the first radius
    cell = GridField(N=1, dr=0.25, u=np.eye(16)[4], R_dom=4.0)
    res = norm(cell, morrey(1.0, 1.0, R=4.0), ScanGrid(centers=(1.0, 1.125), radii=(0.125, 0.25, 0.5)))
    assert (res.value, res.arg_center, res.arg_radius) == (0.125, 1.0, 0.25)
    # the subcritical grid verdict is the largest per-center ball_mass_at, bit for bit
    params = ProblemParams(N=2, m=0.5, p=1.2)
    theta = (params.p - params.m) / (2.0 * (params.p - 1.0))
    centers = (0.0, 0.7, -1.3, *big.r[::3])
    for T in (0.05, 0.5):
        sigma = T**theta
        v = check_condition(params, big, T, 1.0, 1.0, scan=ScanGrid(centers=centers, radii=(1.0,)))
        mass = max(big.ball_mass_at(abs(d), sigma) for d in centers)
        assert v.condition_value == mass / T ** (theta * (params.N - 2.0 / (params.p - params.m)))
