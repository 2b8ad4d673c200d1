import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from fdxlab.exponents import ProblemParams
from fdxlab.profiles import (
    RadialProfile,
    WSlice,
    _gk_panels,
    ball_average,
    ball_average_power,
    ball_mass,
    ball_volume,
    barenblatt,
    barenblatt_value,
    cap_measure,
    cell_averages,
    constant,
    critical_log,
    critical_profile,
    lens_volume,
    power_law,
    radial_ball_integral,
    singular_slice_integral,
)
from fdxlab.solver import GridField
from fdxlab.ulmorrey import ScanGrid, _orlicz_gw, morrey

E = math.e


# -- construction and pointwise evaluation ---------------------------------------


def test_eval_examples():
    assert constant(2.0, 3).value(5.0) == 2.0
    assert power_law(0.1, 0.8, 1).value(1.0) == pytest.approx(0.1)
    # singular kinds return the +inf sentinel at the origin
    assert math.isinf(power_law(1.0, 0.5, 2).value(0.0))
    assert math.isinf(critical_log(1.0, 2).value(0.0))
    assert constant(2.0, 1).value(0.0) == 2.0


def test_critical_log_value_at_unit_radius():
    # c [log(e+1)]^{-N/2-1} at |x| = 1
    assert critical_log(1.0, 2).value(1.0) == pytest.approx(math.log(E + 1.0) ** (-2.0), rel=1e-14)


def test_power_law_integrability_enforced():
    with pytest.raises(ValueError):
        power_law(1.0, 1.0, 1)
    with pytest.raises(ValueError):
        power_law(1.0, 2.5, 2)
    with pytest.raises(ValueError):
        power_law(-1.0, 0.5, 2)


def test_cutoff_truncates():
    prof = power_law(1.0, 0.5, 2, cutoff=2.0)
    assert prof.value(1.9) > 0.0
    assert prof.value(2.1) == 0.0


def test_critical_profile_by_regime():
    sup = critical_profile(ProblemParams(N=1, m=0.5, p=3.0), 0.1)
    assert sup.kind == "power"
    assert sup.a == pytest.approx(0.8)
    assert sup.value(1.0) == pytest.approx(0.1)

    crit = critical_profile(ProblemParams(N=2, m=0.5, p=1.5), 1.0)
    assert crit.kind == "critical_log"
    assert crit.value(1.0) == pytest.approx(math.log(E + 1.0) ** (-2.0))

    with pytest.raises(ValueError):
        critical_profile(ProblemParams(N=2, m=0.5, p=1.2), 1.0)


# -- Barenblatt oracle validation -------------------------------------------------


@pytest.mark.parametrize("N,m", [(1, 0.5), (2, 0.5), (3, 0.7), (1, 0.3)])
def test_barenblatt_solves_source_free_equation(N, m):
    """Finite-difference residual of u_t = Laplace(u^m) on a smooth region."""
    cb = 1.0
    h = 1e-3
    worst = 0.0
    for x in (0.3, 0.7, 1.5):
        for t in (0.8, 1.3):
            ut = (
                barenblatt_value(x, t + h, N, m, cb) - barenblatt_value(x, t - h, N, m, cb)
            ) / (2 * h)

            def vm(xx):
                return barenblatt_value(xx, t, N, m, cb) ** m

            lap = (vm(x + h) - 2 * vm(x) + vm(x - h)) / h**2
            if N > 1:
                lap += (N - 1) / x * (vm(x + h) - vm(x - h)) / (2 * h)
            worst = max(worst, abs(ut - lap))
    assert worst <= 1e-4


def test_barenblatt_origin_values():
    assert barenblatt(1.0, 1.0, 1, 0.5).value(0.0) == pytest.approx(1.0)
    assert barenblatt_value(0.0, 2.0, 1, 0.5, 1.0) == pytest.approx(2.0 ** (-2.0 / 3.0), rel=1e-14)


def test_barenblatt_requires_positive_kappa():
    with pytest.raises(ValueError):
        barenblatt(1.0, 1.0, 3, 0.3)  # kappa = 3(0.3-1)+2 < 0


# -- ball averages -----------------------------------------------------------------


def test_ball_average_closed_forms():
    # 2-D: average of r^{-1} over B(0, 1/2) is 2/sigma = 4
    assert ball_average(power_law(1.0, 1.0, 2), 0.0, 0.5) == pytest.approx(4.0, rel=1e-12)
    # constant for any center
    assert ball_average(constant(2.5, 2), (1.0, 1.0), 0.7) == pytest.approx(2.5)
    # 1-D power integral: sigma^{-0.8}/0.2 at sigma=1
    assert ball_average(power_law(1.0, 0.8, 1), 0.0, 1.0) == pytest.approx(5.0, rel=1e-12)


def test_ball_average_power_requires_integrability():
    with pytest.raises(ValueError):
        ball_average_power(power_law(1.0, 0.8, 1), 1.5, 0.0, 1.0)  # a * expo = 1.2 >= 1


def test_closed_form_matches_quadrature_random():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        N = int(rng.integers(1, 4))
        a = float(rng.uniform(0.0, N - 1e-3))
        sigma = float(rng.uniform(0.05, 20.0))
        c = float(rng.uniform(0.1, 5.0))
        prof = power_law(c, a, N)
        closed = ball_average(prof, 0.0, sigma)

        numeric = radial_ball_integral(prof.value, N, 0.0, sigma, 1e-9, gw=prof.power_times_vol_w(1.0))
        numeric /= ball_volume(N, sigma)
        assert numeric == pytest.approx(closed, rel=1e-6)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_off_center_average_below_centered(N):
    """Radially decreasing profiles are averaged best at the singularity."""
    prof = power_law(1.0, 0.4 * N, N)
    sigma = 0.8
    centered = ball_average(prof, 0.0, sigma)
    previous = centered
    for d in np.linspace(0.2, 3.0, 8) * sigma:
        val = ball_average(prof, d, sigma)
        assert val <= centered * (1.0 + 1e-9)
        assert val <= previous * (1.0 + 1e-6)  # decreasing in the offset as well
        previous = val


def _n1_power_average(c, a, d, sigma):
    """Average of c |x|^-a over the interval [d - sigma, d + sigma] of the line."""
    e = 1.0 - a
    ends = (d + sigma) ** e + (sigma - d) ** e if d < sigma else (d + sigma) ** e - (d - sigma) ** e
    return c * ends / (e * 2.0 * sigma)


def test_balls_grazing_the_singular_origin_match_the_n1_closed_form():
    # the benchmark's off-center Morrey column at d = 1, where quad was silently off by 1.1% at
    # sigma = 0.9999999996666661 and by 3.6% at 0.9999999 while reporting an error near 1e-11
    scan = ScanGrid.build(morrey(q=1.25), r_min=1e-3, centers=(1.0,), radii_per_decade=16)
    radii = np.array(scan.radii + (0.9999999, 0.999999999))
    got = ball_average_power(power_law(0.1, 0.8, 1), 1.0, 1.0, radii)
    want = [_n1_power_average(0.1, 0.8, 1.0, s) for s in radii]
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=0.0)
    assert ball_average(power_law(0.1, 0.8, 1), 1.0, 0.9999999) == pytest.approx(want[-2], rel=1e-9)


def test_n1_interval_averages_match_the_ball_quadrature(monkeypatch):
    # the cap-slice quadrature called directly stays the oracle of the N = 1 closed form, which takes every
    # N = 1 ball of power or constant data: off-center ones, and centered ones past the cutoff
    quad_centers = []

    def counted_quad(g, N, d, *args, **kw):
        quad_centers.append(d)
        return radial_ball_integral(g, N, d, *args, **kw)

    monkeypatch.setattr("fdxlab.profiles.radial_ball_integral", counted_quad)
    rng = np.random.default_rng(25)
    for _ in range(60):
        a = float(rng.choice([0.0, rng.uniform(0.0, 0.95)]))
        expo = float(rng.uniform(1.0, min(2.0, 0.99 / a) if a > 0.0 else 2.0))
        c, d = float(rng.uniform(0.1, 5.0)), float(10.0 ** rng.uniform(-2.0, 1.0))
        cutoff = None if rng.random() < 0.5 else float(10.0 ** rng.uniform(-1.0, 1.0))
        sigma = 10.0 ** rng.uniform(-3.0, 2.0, 6)
        prof = constant(c, 1, cutoff) if a == 0.0 and rng.random() < 0.5 else power_law(c, a, 1, cutoff)
        for center in (d, 0.0) if cutoff is not None else (d,):
            got = ball_average_power(prof, expo, center, sigma)
            total = radial_ball_integral(lambda rho: prof.value(rho) ** expo, 1, center, sigma, 1e-12,
                                         gw=prof.power_times_vol_w(expo), cutoff=cutoff)
            np.testing.assert_allclose(got, total / (2.0 * sigma), rtol=1e-9, atol=0.0)
    assert quad_centers == []


@pytest.mark.parametrize("a, expo", [(0.8, 1.0), (0.5, 1.7), (0.1, 1.1)])
@pytest.mark.parametrize("d", [1e-3, 1.0, 5.0])
def test_n1_interval_average_of_a_tiny_ball_keeps_its_digits(a, expo, d):
    # sigma = 1e-6 d: the average of |x|^-beta is d^-beta (1 + beta (beta + 1) sigma^2 / (6 d^2)) to O(sigma^4)
    beta, sigma = a * expo, 1e-6 * d
    want = 0.3**expo * d**-beta * (1.0 + beta * (beta + 1.0) * sigma**2 / (6.0 * d**2))
    assert ball_average_power(power_law(0.3, a, 1), expo, d, sigma) == pytest.approx(want, rel=1e-13, abs=0.0)


def _clipped_line_average(c, beta, d, sigma, cutoff):
    """Average of c |x|^-beta clipped to |x| <= cutoff over [d - sigma, d + sigma], from x^k / k in 40 digits."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        k = 1 - mpmath.mpf(beta)
        lo, hi = max(mpmath.mpf(d) - sigma, -cutoff), min(mpmath.mpf(d) + sigma, cutoff)
        ends = [mpmath.sign(x) * abs(x) ** k / k for x in (lo, hi)]  # odd antiderivative of |x|^-beta
        return float(c * max(ends[1] - ends[0], 0) / (2 * mpmath.mpf(sigma)))


@pytest.mark.parametrize(
    "d, sigma",
    [(0.8, 0.1), (0.8, 0.5), (0.5, 0.7), (0.5, 2.0), (3.0, 1.0), (0.3, 0.2)],
    ids=["inside", "across-cutoff", "across-origin", "across-both", "outside", "inside-far-cutoff"],
)
@pytest.mark.parametrize("kind", ["power", "constant"])
def test_n1_interval_average_clips_to_the_cutoff(kind, d, sigma):
    cutoff = 10.0 if sigma == 0.2 else 1.0
    prof = power_law(2.0, 0.6, 1, cutoff) if kind == "power" else constant(2.0, 1, cutoff)
    want = _clipped_line_average(2.0**1.5, 1.5 * prof.a, d, sigma, cutoff)
    assert ball_average_power(prof, 1.5, d, sigma) == pytest.approx(want, rel=1e-14, abs=0.0)


def test_budget_exhaustion_raises_naming_the_radii():
    # without the w-space slice, r^-0.999 at the origin needs more bisections than the panel budget
    prof = power_law(1.0, 0.999, 1)
    radii = np.array([0.5, 1.0])
    miss = r"radial_ball_integral\(d=0\.0\): 2 radii .* \(2 past the 400-panel budget\): \[0\.5, 1\.0\]$"
    with pytest.raises(RuntimeError, match=miss):
        radial_ball_integral(prof.value, 1, 0.0, radii, 1e-9)
    val = radial_ball_integral(prof.value, 1, 0.0, radii, 1e-9, gw=prof.power_times_vol_w(1.0))
    np.testing.assert_allclose(val, [2.0 * s**0.001 / 0.001 for s in (0.5, 1.0)], rtol=1e-8)


def test_nan_integrand_raises_naming_its_radii():
    # a NaN panel never passes its check, so it bisects until the budget; the ball inside rho < 0.3 converges
    def g(rho):
        return np.where(rho < 0.3, 1.0, np.nan)

    with pytest.raises(RuntimeError, match=r": 2 radii .* \(2 past the 400-panel budget\): \[0\.5, 1\.0\]$"):
        radial_ball_integral(g, 2, 0.0, np.array([0.2, 0.5, 1.0]))
    assert radial_ball_integral(g, 2, 0.0, 0.2) == pytest.approx(math.pi * 0.2**2, rel=1e-12)


def test_overflowing_integral_raises_naming_its_radius():
    # every panel passes (|K15 - G7| <= 0.1 tol * inf), but the value 1e307 * 200 is not finite
    miss = r": 1 radii .* \(1 with a non-finite value\): \[100\.0\]$"
    with np.errstate(over="ignore"), pytest.raises(RuntimeError, match=miss):
        radial_ball_integral(lambda rho: np.full(np.shape(rho), 1e307), 1, 0.0, np.array([1.0, 100.0]))


def test_summed_error_above_tolerance_raises():
    # 1/(x + 0.5) on [0, 1] passes in the first round against a running total of -2.1, before the
    # Gaussian dip on [1, 2] is resolved; the integral is 1e-4 log 3, and at tol 1e-6 the summed
    # |K15 - G7| (1.6e-8, mostly that panel's) is 145 times tol |value|.  At tol 1e-8 the same
    # integrand converges in 21 panels, so at 1e-6 only the summed-error check raises.
    w = 0.02
    c = math.log(3.0) * (1.0 - 1e-4) / (w * math.sqrt(math.pi))

    def f(x, k):
        return np.where(x < 1.0, 1.0 / (x + 0.5), -c * np.exp(-(((x - 1.5) / w) ** 2)))

    def integral(tol):
        return _gk_panels(f, np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.zeros(2, int), np.array([2.0]), tol, "dip")

    assert integral(1e-8)[0] == pytest.approx(1e-4 * math.log(3.0), rel=1e-6)
    miss = r"^dip: 1 radii missed the G7/K15 tolerance 1e-06 \(1 over the error bound\): \[2\.0\]$"
    with pytest.raises(RuntimeError, match=miss):
        integral(1e-6)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_cutoff_critical_log_is_the_uncut_profile_inside_the_cutoff(N):
    cut, uncut = critical_log(0.02, N, cutoff=0.5), critical_log(0.02, N)
    radii = np.array([0.6, 1.0, 3.0])
    np.testing.assert_allclose(ball_mass(cut, 0.0, radii), ball_mass(uncut, 0.0, 0.5), rtol=1e-9)
    # a column mixing balls inside and across the cutoff
    inside = ball_average(cut, 0.0, np.array([0.1, 0.5, 0.7]))
    assert inside[:2] == pytest.approx(ball_average(uncut, 0.0, np.array([0.1, 0.5])), rel=1e-9)
    assert inside[2] * ball_volume(N, 0.7) == pytest.approx(ball_mass(uncut, 0.0, 0.5), rel=1e-9)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_origin_slice_integrands_are_cancellation_free(N):
    # log(f rho^N) and log(psi_alpha(scale f) rho^N) at rho(w) against values built from f itself,
    # with 40 digits beyond the log(e^w) that cancels; the difference of logs is the integrand's
    # relative error
    mpmath = pytest.importorskip("mpmath")
    c, scale, alpha = 0.02, 1.7, N / 4.0
    prof = critical_log(c, N)
    morrey_gw, orlicz_gw = prof.power_times_vol_w(1.0), _orlicz_gw(prof, alpha, scale)
    assert (morrey_gw.tail, orlicz_gw.tail) == (N / 2.0 + 1.0, N / 2.0 + 1.0 - alpha)
    ws = np.logspace(1e-3, 300.0, 61)  # w = 1 is rho = inf
    for w, lm, lo in zip(ws, morrey_gw.log_gw(ws), orlicz_gw.log_gw(ws)):
        with mpmath.workdps(40 + int(math.log10(w))):
            mw = mpmath.mpf(w)
            rho = 1 / (mpmath.exp(mw) - mpmath.e)
            f = c * rho ** (-N) * mpmath.log(mpmath.e + 1 / rho) ** (-N / 2.0 - 1.0)
            y = scale * f
            exact_m = mpmath.log(f * rho**N)
            exact_o = mpmath.log(y * mpmath.log(mpmath.e + y) ** alpha * rho**N)
            assert abs(lm - float(exact_m)) <= 1e-12, w
            assert abs(lo - float(exact_o)) <= 1e-12, w


def test_ball_mass_scales_with_volume():
    prof = constant(0.3, 1)
    assert ball_mass(prof, 0.0, 1.0) == pytest.approx(0.6)
    assert ball_mass(prof, 0.0, 2.0) == pytest.approx(1.2)


def test_cap_measure_consistency():
    # integrating the cap measure over rho recovers the ball volume
    from scipy.integrate import quad

    for N in (1, 2, 3):
        for d in (0.0, 0.4, 1.3):
            sigma = 1.0
            lo, hi = max(0.0, d - sigma), d + sigma
            vol, _ = quad(
                lambda rho: cap_measure(N, rho, d, sigma),
                lo,
                hi,
                points=[abs(sigma - d)] if lo < abs(sigma - d) < hi else None,
                limit=200,
            )
            assert vol == pytest.approx(ball_volume(N, sigma), rel=1e-9)
            rhos = np.linspace(0.0, 2.5, 26)
            np.testing.assert_array_equal(cap_measure(N, rhos, d, sigma), [cap_measure(N, r, d, sigma) for r in rhos])


def _overlap_closed_form(N, r, d, sigma):
    """|B(0, r) intersected with B(z, sigma)|, |z| = d, from the textbook lens formulas."""
    if d <= abs(r - sigma):
        return ball_volume(N, min(r, sigma))
    if d >= r + sigma:
        return 0.0
    if N == 1:
        return r + sigma - d
    if N == 2:
        # Half angles, acos(1 - h) = 2 asin(sqrt(h / 2)) with h in factored form, so tangency costs
        # no digits; the sectors and the kite share the three factors, or their cancellation would not hold.
        t_r, t_s, t_d = d - r + sigma, d + r - sigma, r + sigma - d
        half_r = math.asin(math.sqrt(min(1.0, t_r * t_d / (4.0 * d * r))))
        half_s = math.asin(math.sqrt(min(1.0, t_s * t_d / (4.0 * d * sigma))))
        kite = 0.5 * math.sqrt(t_r * t_s * t_d * (d + r + sigma))
        return 2.0 * r * r * half_r + 2.0 * sigma * sigma * half_s - kite
    return math.pi * (r + sigma - d) ** 2 * (d * d + 2.0 * d * (r + sigma) - 3.0 * (r - sigma) ** 2) / (12.0 * d)


def test_lens_volume_matches_closed_forms():
    rng = np.random.default_rng(11)
    for _ in range(500):
        r = float(rng.uniform(0.1, 3.0))
        sigma = r * math.exp(float(rng.uniform(-math.log(4.0), math.log(4.0))))
        d = float(rng.uniform(abs(r - sigma), r + sigma))
        if not abs(r - sigma) < d < r + sigma:
            continue
        for N in (1, 2, 3):
            tol = 1e-10 * ball_volume(N, min(r, sigma))
            assert abs(lens_volume(N, r, d, sigma) - _overlap_closed_form(N, r, d, sigma)) <= tol, (N, r, d, sigma)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_lens_volume_stays_inside_the_smaller_ball_near_tangency(N):
    # r a few ulps below sigma + d: B(z, sigma) all but fills the lens, which the formula
    # rounded above |B(z, sigma)| (by up to 1.2e-8 relative for N = 2) before the cap
    rng = np.random.default_rng(4)
    d, sigma = rng.uniform(0.05, 3.0, 2000), rng.uniform(0.01, 2.0, 2000)
    r = (sigma + d) * (1.0 - rng.integers(1, 64, 2000) * 2.0**-52)
    assert np.all(np.abs(r - sigma) < d)
    assert np.all(lens_volume(N, r, d, sigma) <= ball_volume(N, np.minimum(r, sigma)))


@pytest.mark.parametrize("N", [1, 2, 3])
def test_grid_ball_mass_matches_closed_form_overlaps(N):
    rng = np.random.default_rng(20 + N)
    f = GridField(N=N, dr=0.1, u=rng.uniform(0.0, 1.0, size=40), R_dom=4.0)
    e = f.edges
    # In the last two, |sigma - d| lands one ulp below the edges 12 * 0.1 and 24 * 0.1 (near tangency).
    for d, sigma in ((0.0, 1.234), (0.5, 1.3), (1.3, 0.45), (2.27, 1.05), (3.31, 0.9), (2.25, 1.05), (3.3, 0.9)):
        overlap = np.array([_overlap_closed_form(N, r, d, sigma) for r in e])
        assert f.ball_mass_at(d, sigma) == pytest.approx(float(np.dot(f.u, np.diff(overlap))), rel=1e-12), (d, sigma)


def test_ball_weights_near_tangency_are_nonnegative():
    # |sigma - d| = 0.3 sits within rounding of the edge 30 * 0.01; the N = 2 weight there was -1.8e-9
    for N in (2, 3):
        f = GridField(N=N, dr=0.01, u=np.ones(120), R_dom=1.2)
        assert f.ball_weights(0.7, 0.4).min() >= 0.0

# -- cell averages -----------------------------------------------------------------


def test_cell_averages_power_closed_form():
    edges = np.linspace(0.0, 1.0, 11)
    prof = power_law(1.0, 0.8, 1)
    avg = cell_averages(prof, edges)
    # first cell: int_0^0.1 r^{-0.8} dr / 0.1 = 0.1^{-0.8}/0.2
    assert avg[0] == pytest.approx(0.1 ** (-0.8) / 0.2, rel=1e-12)
    assert np.all(np.diff(avg) < 0.0)


def test_cell_averages_critical_log_finite():
    edges = np.linspace(0.0, 1.0, 21)
    avg = cell_averages(critical_log(1.0, 2), edges)
    assert np.all(np.isfinite(avg))
    assert np.all(avg >= 0.0)
    assert avg[0] > avg[1]


def test_cell_averages_barenblatt_match_point_values():
    edges = np.linspace(0.0, 4.0, 101)
    prof = barenblatt(1.0, 1.0, 1, 0.5)
    avg = cell_averages(prof, edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    assert np.allclose(avg, prof.value(centers), rtol=1e-3, atol=1e-6)


@pytest.mark.parametrize(
    "profile, edges",
    [
        (barenblatt(1.0, 1.0, 3, 0.8), np.arange(101) * 0.04),
        (critical_log(0.05, 2), np.arange(101) * 0.02),  # singular first cell
        (power_law(0.1, 0.8, 1, cutoff=1.23), np.arange(101) * 0.02),  # cutoff inside a cell
        (barenblatt(1.0, 1.0, 2, 0.6, cutoff=0.45), np.arange(41) * 0.1),  # cutoff below the inner edge of most cells
    ],
)
def test_cell_averages_match_per_cell_oracles(profile, edges):
    # cell integrals of f r^{N-1}: the 1e-10 G7/K15 pass against quad per cell (epsrel 1e-13), power data
    # against c x^0.2 / 0.2; a singular first cell is a ball integral at 1e-10
    N = profile.N
    got = cell_averages(profile, edges) * (edges[1:] ** N - edges[:-1] ** N) / N
    first = int(profile.is_singular_at_origin())
    if profile.kind == "power":
        want = np.diff(profile.c * np.minimum(edges, 1.23) ** 0.2 / 0.2)
    else:
        top = np.minimum(edges[1:], profile.cutoff or math.inf)
        want = np.array([quad(lambda r: profile.value(r) * r ** (N - 1), lo, hi, epsabs=0.0, epsrel=1e-13)[0]
                         if hi > lo else 0.0 for lo, hi in zip(edges[first:-1], top[first:])])
    if profile.kind == "critical_log":
        # int_0^eps c r^-1 log(e + 1/r)^-q dr in s = log(1/r): the s^-q tail in closed form, the rest by quad
        s0, q = -math.log(edges[1]), N / 2.0 + 1.0
        rest = quad(lambda s: (s + math.log1p(math.exp(1.0 - s))) ** -q - s**-q, s0, math.inf, epsabs=0.0, epsrel=1e-13)
        want = np.append(profile.c * (rest[0] + s0 ** (1.0 - q) / (q - 1.0)), want)
    np.testing.assert_allclose(got[first:], want[first:], rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got[:first], want[:first], rtol=1e-10, atol=0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ball_average(constant(1.0, 1), 0.0, 0.0), "sigma must be > 0"),
        (lambda: ball_average(constant(1.0, 1), 0.0, [1.0, -0.5]), "sigma must be > 0"),
        (lambda: RadialProfile(kind="gaussian", N=1, c=1.0), "kind must be 'constant', 'power', 'critical_log' or 'barenblatt', got 'gaussian'"),
        (lambda: power_law(1.0, 0.8, 1).value(-1.0), "radius must be >= 0"),
        (lambda: barenblatt(1.0, 1.0, 1, 0.5).log_value_w(2.0), "barenblatt data are not of the form c rho^-b [log(e + 1/rho)]^-q"),
        (lambda: power_law(1.0, 0.8, 1).power_times_vol_w(2.0), "power profile to the power 2.0 is not locally integrable at the origin"),
        (lambda: singular_slice_integral(WSlice(np.log, math.inf), 1, np.array([0.0]), 1e-8), "singular slice requires 0 < eps <= 1"),
        (lambda: singular_slice_integral(WSlice(np.log, math.inf), 1, np.array([0.5, 1.5]), 1e-8), "singular slice requires 0 < eps <= 1"),
        (lambda: singular_slice_integral(WSlice(np.log, 1.0), 1, np.array([0.5]), 1e-8), "origin slice with tail w^-1.0 is not integrable"),
    ],
    ids=["sigma-0", "sigma-negative", "kind", "radius", "log-value-barenblatt", "not-integrable", "eps-0", "eps-above-1", "tail-1"],
)
def test_profile_input_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
