import bisect
import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fdxlab import ulmorrey
from fdxlab.exponents import ProblemParams, Regime, classify_regime, derive_exponents
from fdxlab.profiles import (
    WSlice,
    ball_average_power,
    ball_mass,
    ball_volume,
    barenblatt,
    constant,
    critical_log,
    power_law,
)
from fdxlab.solver import GridField
from fdxlab.special_functions import eta, psi, psi_inv_array
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


def test_uncut_constant_data_have_the_same_infinite_norm_as_flat_power_data():
    # constant(1) and power_law(1, 0) are the same function: both grow like sigma^0.8 under no cap
    spec = morrey(q=1.25, alpha=1.0, R=math.inf)
    scan = ScanGrid.build(spec, r_min=1e-3)
    flat, const = norm(power_law(1.0, 0.0, 1), spec, scan), norm(constant(1.0, 1), spec, scan)
    assert math.isinf(const.value) and const == flat


@pytest.mark.parametrize(
    "data",
    [constant(10.0, 1), power_law(10.0, 0.001, 1), GridField(N=1, dr=0.1, u=np.full(20, 10.0), R_dom=2.0),
     GridField(N=2, dr=0.1, u=np.r_[np.ones(10), 10.0, np.ones(9)], R_dom=2.0)],
)
def test_a_morrey_gauge_past_the_largest_float_is_an_error_naming_alpha(data):
    # 10^400 passes the largest float, so no ball average of f^alpha has a float value
    spec = morrey(q=1.25, alpha=400.0, R=1.0)
    scan = ScanGrid.for_field(data, spec) if isinstance(data, GridField) else ScanGrid.build(spec, r_min=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^alpha = 400\.0 takes the Morrey gauge f\^alpha of the data past"):
            norm(data, spec, scan)


@pytest.mark.parametrize(
    "data", [barenblatt(1e-3, 1.0, 1, 0.5), power_law(10.0, 0.001, 2), power_law(10.0, 0.001, 1)],
    ids=["barenblatt", "power-N2", "power-N1"],
)
def test_an_off_center_morrey_gauge_past_the_largest_float_is_an_error_naming_alpha(data):
    # f^400 passes the largest float near the origin (10^400, or the snapshot's peak 1e6 to the 400), so the
    # quadrature (N = 2, Barenblatt) or interval (N = 1) column stops before it integrates
    spec = morrey(q=1.25, alpha=400.0, R=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^alpha = 400\.0 takes the Morrey gauge f\^alpha of the data past"):
            norm(data, spec, ScanGrid.build(spec, r_min=1e-3, centers=(0.5,)))


def test_a_grid_orlicz_gauge_past_the_largest_float_is_an_error_naming_alpha():
    # scale u = 1e310 passes the largest float, so psi_alpha(scale u) and its averages have no float value
    field = GridField(N=1, dr=0.1, u=np.full(20, 1e300), R_dom=2.0)
    spec = orlicz_eta(5.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^alpha = 5\.0 takes the Orlicz gauge psi_alpha\(scale f\) of the data"):
            norm(field, spec, ScanGrid.for_field(field, spec), scale=1e10)
    # so does one ball away from the only cell whose psi_alpha(scale u) leaves the floats, as in N = 2 and 3
    field = GridField(N=1, dr=0.1, u=np.r_[np.ones(19), 1e300], R_dom=2.0)
    with pytest.raises(ValueError, match=r"^alpha = 5\.0 takes the Orlicz gauge psi_alpha\(scale f\) of the data"):
        orlicz_ball_average(field, 5.0, 0.5, 0.1, scale=1e10)


@pytest.mark.parametrize(
    "data", [constant(1e300, 1, cutoff=0.6), power_law(1e300, 0.5, 2), barenblatt(1e-150, 1.0, 1, 0.5)],
    ids=["constant-cut", "power-N2", "barenblatt"],
)
def test_a_profile_orlicz_gauge_past_the_largest_float_is_an_error_naming_alpha(data):
    # scale f = 1e310 at the peak (the amplitude for power data): the column stops before the G7/K15
    # quadrature, which would miss its tolerance on the overflowing integrand
    spec = orlicz_eta(5.0, 1.0)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.5,), radii_per_decade=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^alpha = 5\.0 takes the Orlicz gauge psi_alpha\(scale f\) of the data"):
            norm(data, spec, scan, scale=1e10)
        # closed entries need no average: uncut constant data keep their finite norm
        assert math.isfinite(norm(constant(1e300, 1), spec, scan).value)


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


# avg over B(0, sigma) of psi_alpha(f) at sigma = 0.001, 0.01, 0.1, f = critical_log(0.02, 1), alpha = 1/2 - d
# (the floats c, alpha and sigma): an mpmath integral in s = log(1/rho) at 40 digits, with the tail past
# s = e^60 in closed form (moving the cut to e^80 changes 4e-25)
@pytest.mark.parametrize("d, oracle", [
    (1e-2, (1948.4559887605318871, 195.21192236262075911, 19.595136593453030997)),
    (1e-3, (19947.551659363949472, 1995.121977051508928, 199.58616433685492405)),
    (1e-7, (199999947.4438606208, 19999995.111251400048, 1999999.5850942468204)),
    (1e-10, None),
])
def test_orlicz_average_near_the_divergence_boundary_keeps_its_tolerance(d, oracle):
    # the slice tail w^-(1 + d) reaches far past w = e^690, where the quadrature stops: that part is a closed
    # form in the innermost of the column's nested slice pieces, and once rounding q - 1 = d costs more than
    # the tolerance every slice raises instead
    prof, alpha, sigma = critical_log(0.02, 1), 0.5 - d, np.array([0.001, 0.01, 0.1])
    if oracle is None:
        # the ball radii are named, not their slice radii
        miss = r"^singular_slice_integral: 3 radii missed .* \(3 over the error bound\): \[0\.001, 0\.01, 0\.1\]$"
        with pytest.raises(RuntimeError, match=miss):
            orlicz_ball_average(prof, alpha, 0.0, sigma)
    else:
        np.testing.assert_allclose(psi(alpha, orlicz_ball_average(prof, alpha, 0.0, sigma)), oracle, rtol=1e-8)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_critical_verdicts_meet_their_tolerance_without_warning_or_fallback(N):
    # the benchmark's critical_N jobs; for N = 1 quad warned (IntegrationWarning) on the heavy w^-1.25 tail
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v = check_condition(ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N), critical_log(0.02, N), 1.0, 1.0, N / 4.0)
    assert 0.0 < v.condition_value < math.inf


@pytest.mark.parametrize("N", [1, 3])
def test_a_dense_critical_scan_holds_the_panel_budget_per_slice_piece(N):
    # 1024 radii per decade: 3,073 nested slices, each within the budget piece by piece (their panel
    # counts summed would pass it), and the verdict within 1e-5 of the default 64 per decade, with its met
    params, data = ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N), critical_log(0.02, N)
    spec = ulmorrey.condition_spec(params, 1.0, 1.0, N / 4.0)
    dense = check_condition(params, data, 1.0, 1.0, N / 4.0, ScanGrid.build(spec, 1e-3, radii_per_decade=1024))
    default = check_condition(params, data, 1.0, 1.0, N / 4.0)
    assert 0.0 < dense.condition_value < math.inf
    assert dense.condition_value == pytest.approx(default.condition_value, abs=1e-5)
    assert dense.met == default.met


@pytest.mark.parametrize("N", [1, 2, 3])
def test_a_critical_column_integrates_its_origin_slices_once(monkeypatch, N):
    # the default verdict scans 193 radii; nested in one pass their slices take 2,955-3,135 integrand
    # nodes, where one adaptive pass per slice took 18,315-50,685
    nodes = []
    orlicz_gw = ulmorrey._orlicz_gw

    def counted(*args):
        gw = orlicz_gw(*args)
        return WSlice(lambda w: nodes.append(np.size(w)) or gw.log_gw(w), gw.tail)

    monkeypatch.setattr(ulmorrey, "_orlicz_gw", counted)
    check_condition(ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N), critical_log(0.02, N), 1.0, 1.0, N / 4.0)
    assert 0 < sum(nodes) <= 4000


_GRID = GridField(N=1, dr=0.125, u=np.random.default_rng(9).uniform(0.0, 1.0, 32) ** 2, R_dom=4.0)


@pytest.mark.parametrize("params, data, beta, T", [
    *[(ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N), critical_log(0.02, N), N / 4.0, T) for N in (1, 2, 3)
      for T in (0.5, 2.0)],
    *[(SUP, data, 1.1, T) for data in (power_law(0.1, 0.8, 1), _GRID) for T in (0.5, 2.0, math.inf)],
])
def test_default_verdict_is_the_norm_on_the_documented_scan_and_scale(params, data, beta, T):
    # critical: r_min = 1e-3 R and scale T^(1/(p-1)); supercritical: r_min = 1e-6 min(R_cap, 1e3) and scale 1
    spec = ulmorrey.condition_spec(params, T, 1.0, beta)
    if classify_regime(params) is Regime.CRITICAL:
        want = norm(data, spec, ScanGrid.build(spec, r_min=1e-3 * spec.R), scale=T ** (1.0 / (params.p - 1.0)))
    else:
        want = norm(data, spec, ScanGrid.build(spec, r_min=1e-6 * min(spec.radius_cap(), 1e3)))
    assert check_condition(params, data, T, 1.0, beta).condition_value == want.value


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
    # an infinite alpha read 0.9999999992 for the Morrey norm of constant(0.5) (exactly 0.4999999996)
    # and raised in the Orlicz-eta origin slice of power data
    with pytest.raises(ValueError, match="^alpha must be finite, got inf"):
        morrey(1.25, math.inf, R=1.0)
    with pytest.raises(ValueError, match="^alpha must be finite, got inf"):
        orlicz_eta(math.inf, 1.0)
    with pytest.raises(ValueError, match="^alpha must be finite, got inf"):
        check_condition(ProblemParams(N=1, m=0.5, p=2.5), critical_log(0.02, 1), 1.0, 1.0, math.inf)


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

    Cell k spans [k dr, (k + 1) dr] with its edges rounded to floats, as
    GridField.edges holds them.  Cumulative cell sums in rational arithmetic,
    zero past the last cell; a ball B(z, sigma) with |z| = d is the interval
    [d - sigma, d + sigma].
    """
    v = [Fraction(x) for x in values]
    e = [Fraction(k * dr) for k in range(len(v) + 1)]
    cum = [Fraction(0)]
    for x, left, right in zip(v, e, e[1:]):
        cum.append(cum[-1] + x * (right - left))

    def signed(x: Fraction) -> Fraction:  # integral from 0 to x
        k = bisect.bisect_right(e, abs(x)) - 1
        inside = cum[k] + v[k] * (abs(x) - e[k]) if k < len(v) else cum[-1]
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
    assert worst <= 2e-14  # 1.7e-14 measured: the rounding of the ball ends d -/+ s, which the oracle takes exactly


def test_n1_grid_ball_masses_match_an_exact_interval_oracle_to_rounding():
    # N = 1 balls are intervals, so the prefix-sum kernel is exact to about one rounding at its float ends a, b
    # and c, on values across 16 decades, signed centers, and centers and radii past the domain's edge
    rng = np.random.default_rng(35)
    worst = 0.0
    for _ in range(12):
        cells = int(rng.integers(5, 70))
        f = GridField(N=1, dr=4.0 / cells, u=10 ** rng.uniform(-8.0, 8.0, cells), R_dom=4.0)
        centers = np.r_[0.0, rng.uniform(-5.0, 5.0, 10)]
        radii = np.r_[10 ** rng.uniform(-4.0, 0.9, 12), 9.0]
        masses = ulmorrey._interval_masses(f, f.u, np.abs(centers), radii)
        integral = _interval_integral(f.u.tolist(), f.dr)
        for row, d in zip(masses.tolist(), np.abs(centers).tolist()):
            for got, s in zip(row, radii.tolist()):
                want = integral(Fraction(max(d - s, 0.0)), Fraction(d + s)) + integral(0, Fraction(max(s - d, 0.0)))
                if want == 0:  # a ball past the last edge
                    assert got == 0.0, (d, s)
                else:
                    worst = max(worst, float(abs(Fraction(got) - want) / want))
        # the scan's averages over the signed centers are these masses over the ball volume, bit for bit
        avg, _ = ulmorrey._averages(f, "morrey", 1.0, centers, radii, 1.0)
        assert np.array_equal(avg, masses / ball_volume(1, radii))
    print(f"grid N=1 interval kernel: worst relative mass error against the interval oracle {worst:.2e}")
    assert worst <= 1e-15
    # 40 cells of 1e307 hold more than the largest float, but a ball inside one cell does not: it takes
    # the lens weights' finite value
    big = GridField(N=1, dr=1.0, u=np.full(40, 1e307), R_dom=40.0)
    for d in (0.5, 10.5, -39.5):
        avg, _ = ulmorrey._averages(big, "morrey", 1.0, np.array([d]), np.array([0.25]), 1.0)
        dense = big.ball_weights(abs(d), [0.25]) @ big.u / ball_volume(1, np.array([0.25]))
        assert avg[0, 0] == dense[0] == 1e307


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


@pytest.mark.parametrize("N, p", [(1, 1.2), (2, 1.2), (3, 1.1)])
def test_subcritical_profile_verdict_is_the_largest_ball_mass_bit_for_bit(N, p):
    # the verdict takes the scan's ball averages: the largest times the ball volume is the largest ball_mass,
    # since rounding a product by a volume > 0 keeps the order
    params = ProblemParams(N=N, m=0.5, p=p)
    ex = derive_exponents(params)
    centers = (0.3, -1.1, 0.0, 0.7)
    data = (constant(0.4, N), power_law(0.3, 0.5, N, cutoff=0.7), critical_log(0.02, N), barenblatt(1.0, 1.0, N, 0.8))
    for f in data:
        for T in (0.05, 0.5, 2.0):
            sigma = T**ex.theta
            v = check_condition(params, f, T, 1.0, 1.0, scan=ScanGrid(centers=centers, radii=(1.0,)))
            want = max(ball_mass(f, d, sigma) for d in centers) / T ** (ex.theta * (N - ex.a_ss))
            assert v.regime is Regime.SUBCRITICAL
            assert v.condition_value == want, (f, T)


def test_subcritical_grid_verdict_takes_one_ball_weights_call_per_center_block(monkeypatch):
    # every cell center of a 400-cell field: one ball_weights call per block of at most
    # CENTER_BLOCK_ENTRIES weights, not one per center
    f = _random_field(np.random.default_rng(8), N=2, cells=400, R=4.0)
    calls = []
    weights = GridField.ball_weights
    monkeypatch.setattr(GridField, "ball_weights", lambda self, d, sigma: calls.append(d) or weights(self, d, sigma))
    v = check_condition(ProblemParams(N=2, m=0.5, p=1.2), f, 0.5, 1.0, 1.0, scan=ScanGrid(tuple(f.r), (1.0,)))
    assert 0.0 < v.condition_value < math.inf
    assert 1 <= len(calls) <= math.ceil(len(f.r) * len(f.u) / CENTER_BLOCK_ENTRIES)


def test_subcritical_verdict_of_data_past_the_largest_float_raises():
    # the ball average of 1e308 |x|^-0.8 on B(0, T^theta) overflows: the verdict raises the scan's error
    # (it read inf, not met), as the CLI's norm stage already does before any verdict
    gauge = "alpha = 1.0 takes the Morrey gauge f^alpha of the data past the largest float"
    with pytest.raises(ValueError, match=re.escape(gauge)):
        check_condition(ProblemParams(N=1, m=0.5, p=1.2), power_law(1e308, 0.8, 1), 1e-3, 1.0, 1.0)


# -- grid scans against a per-center reference --------------------------------------


def _per_center_norm(f, spec, scan: ScanGrid, scale: float) -> tuple:
    """(value, arg_center, arg_radius) of a norm scan, one center at a time.

    A grid field takes one call per center, of the interval kernel
    (_interval_masses) for N = 1 and of ball_weights for N = 2 and 3, a
    profile its ball_average_power or orlicz_ball_average column.  The weights and
    Phi^{-1} are the scan's operations on one row: libm pow sigma^{N/q} times
    np.power(avg, 1/alpha), or eta times psi_inv_array, so an exact match
    checks the batching on any CPU, whatever its numpy rounds.  A later
    center wins only when strictly larger, and np.argmax takes the first of
    equal radii.
    """
    radii = np.array([s for s in scan.radii if s < spec.R])
    vol = ball_volume(f.N, radii)
    best = None
    grid = isinstance(f, GridField)

    def masses(values, d):
        if f.N == 1:
            return ulmorrey._interval_masses(f, values, np.array([abs(d)]), radii)[0]
        return f.ball_weights(abs(d), radii) @ values

    for d in scan.centers:
        if spec.kind == "morrey":
            if grid:
                avg = masses(f.u**spec.alpha, d) / vol * scale**spec.alpha
            else:
                avg = ball_average_power(f, spec.alpha, d, radii) * scale**spec.alpha
            q = np.array([x ** (f.N / spec.q) for x in radii.tolist()]) * np.power(avg, 1.0 / spec.alpha)
        elif grid:
            avg = masses(psi(spec.alpha, scale * f.u), d) / vol
            q = eta(f.N, radii / spec.R) * psi_inv_array(spec.alpha, avg)
        else:
            q = eta(f.N, radii / spec.R) * orlicz_ball_average(f, spec.alpha, d, radii, scale=scale)
        j = int(np.argmax(q))
        if best is None or q[j] > best[0]:
            best = (float(q[j]), d, float(radii[j]))
    return best


@pytest.mark.parametrize("spec", [morrey(2.0, 1.5, R=4.0), orlicz_eta(0.5, R=4.0)], ids=["morrey", "orlicz_eta"])
def test_grid_norm_near_outer_tangency(spec):
    # balls whose edge e lies within rounding of sigma + d: the lens formula there exceeded the
    # smaller ball by about sqrt(eps), a weight went negative (-1.06e-9), and norm raised
    f = GridField(N=2, dr=0.4, u=np.eye(10)[9], R_dom=4.0)
    radii = np.logspace(math.log10(f.dr / 2.0), math.log10(2.0), 40)[:-1]
    assert f.ball_weights(f.r, radii).min() > -1e-20
    scan = ScanGrid(centers=tuple(f.r), radii=tuple(radii))
    res = norm(f, spec, scan)
    assert 0.0 < res.value < math.inf
    assert (res.value, res.arg_center, res.arg_radius) == _per_center_norm(f, spec, scan, 1.0)


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
    # analytic profiles: critical_log verdict scans at scale T^{1/(p-1)} (alpha >= N/2 has infinite
    # closed-form columns), off-center power-law Morrey columns (the N = 1 origin column is flat, so
    # every radius is a near-tie) and constant data under orlicz_eta (closed form inside the cutoff)
    for N in (1, 2, 3):
        params = ProblemParams(N=N, m=0.5, p=0.5 + 2.0 / N)
        theta = (params.p - params.m) / (2.0 * (params.p - 1.0))
        for T, alpha in ((0.5, N / 4.0), (2.0, N / 3.0), (1.0, N / 2.0)):
            spec = orlicz_eta(alpha, R=T**theta)
            scan = ScanGrid.build(spec, r_min=1e-3 * spec.R, centers=(0.0, 0.4 * spec.R), radii_per_decade=16)
            cases.append((critical_log(0.02, N), spec, scan, T ** (1.0 / (params.p - 1.0))))
    for f, spec in (
        (power_law(0.1, 0.8, 1), morrey(1.25, 1.0)),
        (power_law(0.3, 0.6, 2, cutoff=1.5), morrey(2.5, 1.5, R=3.0)),
        (power_law(0.2, 0.5, 3, cutoff=2.0), morrey(4.0, 1.2, R=1.0)),
    ):
        cases.append((f, spec, ScanGrid.build(spec, r_min=1e-3, centers=(0.0, 0.05, 0.2, 1.0), radii_per_decade=16), 1.0))
    for f in (constant(0.7, 1), constant(0.7, 2, cutoff=0.8), constant(0.7, 3, cutoff=1.1)):
        spec = orlicz_eta(0.5, R=1.5)
        cases.append((f, spec, ScanGrid.build(spec, r_min=1e-2, centers=(0.0, 0.3), radii_per_decade=16), 1.3))
    for f, spec, scan, scale in cases:
        res = norm(f, spec, scan, scale=scale)
        assert (res.value, res.arg_center, res.arg_radius) == _per_center_norm(f, spec, scan, scale), (f, spec)
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
    # the subcritical grid verdict is the largest per-center scan average times the ball volume, bit for bit
    params = ProblemParams(N=2, m=0.5, p=1.2)
    theta = (params.p - params.m) / (2.0 * (params.p - 1.0))
    centers = (0.0, 0.7, -1.3, *big.r[::3])
    for T in (0.05, 0.5):
        sigma = T**theta
        v = check_condition(params, big, T, 1.0, 1.0, scan=ScanGrid(centers=centers, radii=(1.0,)))
        vol = ball_volume(params.N, np.array([sigma]))
        avg = max(float((big.ball_weights(abs(d), [sigma]) @ big.u / vol)[0]) for d in centers)
        mass = avg * ball_volume(params.N, sigma)
        assert v.condition_value == mass / T ** (theta * (params.N - 2.0 / (params.p - params.m)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ulmorrey.NormSpec(kind="lorentz", R=1.0), "kind must be 'morrey' or 'orlicz_eta', got 'lorentz'"),
        (lambda: morrey(2.0, R=0.0), "R must be > 0 (use math.inf for an uncapped norm)"),
        (lambda: morrey(2.0, R=-1.0), "R must be > 0 (use math.inf for an uncapped norm)"),
        (lambda: ScanGrid.for_field(GridField(N=1, dr=0.5, u=np.ones(4), R_dom=2.0), morrey(2.0, R=0.25)),
         "radius cap below the grid spacing"),
        (lambda: norm(constant(1.0, 1), morrey(2.0, R=1.0), ScanGrid(centers=(0.0,), radii=(1.0, 2.0))),
         "scan grid has no radii below the cap R"),
        # a NaN center read the centered value of a grid and 0.0 of a profile, with arg_center nan
        *[(lambda f=f, spec=spec: norm(f, spec, ScanGrid(centers=(0.5, math.nan), radii=(0.5,))),
           "centers must be finite, got [0.5, nan]")
          for f in (_GRID, power_law(0.1, 0.4, 1)) for spec in (morrey(2.0, R=1.0), orlicz_eta(0.5, R=1.0))],
        # the analytic shortcut for power data that diverge at the origin returned inf at center 0.0
        (lambda: norm(power_law(0.1, 0.85, 1), morrey(1.25), ScanGrid(centers=(math.nan,), radii=(0.5,))),
         "centers must be finite, got [nan]"),
        *[(lambda f=f: check_condition(ProblemParams(N=1, m=0.5, p=1.2), f, 0.5, 1.0, 1.0,
                                       scan=ScanGrid(centers=(-math.inf,), radii=(1.0,))),
           "centers must be finite, got [-inf]") for f in (_GRID, power_law(0.1, 0.4, 1))],
    ],
    ids=["kind", "R-0", "R-negative", "cap-below-dr", "no-radius-below-R", "nan-center-grid-morrey",
         "nan-center-grid-orlicz", "nan-center-profile-morrey", "nan-center-profile-orlicz",
         "nan-center-analytic-divergence", "inf-center-grid-verdict",
         "inf-center-profile-verdict"],
)
def test_norm_input_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
