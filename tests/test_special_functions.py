import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from fdxlab.exponents import ProblemParams
from fdxlab.special_functions import _TABLE_XS, GammaFn, _cumulative_weights, c_eta, eta, psi, psi_inv

E = math.e


# -- psi ------------------------------------------------------------------------


def test_psi_examples():
    assert psi(1.0, 0.0) == 0.0
    # log(e + e^2 - e) = 2 exactly
    assert psi(2.0, E**2 - E) == pytest.approx(4.0 * (E**2 - E), rel=1e-14)
    assert psi(1.0, 1.0) == pytest.approx(math.log(E + 1.0), rel=1e-15)


def test_psi_domain_errors():
    with pytest.raises(ValueError):
        psi(1.0, -0.1)
    with pytest.raises(ValueError):
        psi(-0.5, 1.0)


def test_psi_monotone_convex_by_sampling():
    xs = np.linspace(0.0, 50.0, 2001)
    for alpha in (0.0, 0.5, 1.0, 2.0):
        ys = psi(alpha, xs)
        assert np.all(np.diff(ys) > 0.0)
        assert np.all(np.diff(ys, 2) > -1e-9)


def test_psi_inv_round_trip_examples():
    assert psi_inv(2.0, 18.683097081886412) == pytest.approx(E**2 - E, rel=1e-10)
    assert psi_inv(0.7, 0.0) == 0.0
    # oracle-pinned root of x log(e + x) = 10 (bisection oracle)
    assert psi_inv(1.0, 10.0) == pytest.approx(4.9188011248786445, rel=1e-10)


def test_psi_inv_errors():
    with pytest.raises(ValueError):
        psi_inv(1.0, -1.0)


def test_psi_inv_residual_over_the_float_range():
    for alpha in np.linspace(0.0, 4.0, 17):
        for y in [*np.logspace(-300.0, 308.0, 153), 1.5e308]:
            x = psi_inv(float(alpha), float(y))
            assert abs(x * math.log(E + x) ** alpha - y) <= 1e-12 * max(1.0, y), (alpha, y)
    assert psi_inv(1.0, math.inf) == math.inf


def test_psi_round_trip_random():
    rng = np.random.default_rng(5150)
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, 3.0))
        x = float(rng.uniform(0.0, 1e6))
        back = psi_inv(alpha, psi(alpha, x))
        assert abs(back - x) <= 1e-6 * max(1.0, x)


# -- eta ------------------------------------------------------------------------


def test_eta_examples():
    assert eta(2, 0.0) == 0.0
    assert eta(2, 1.0) == pytest.approx(math.log(E + 1.0), rel=1e-15)
    assert eta(1, 1.0) == pytest.approx(math.sqrt(math.log(E + 1.0)), rel=1e-14)


def test_eta_strictly_increasing_on_unit_interval():
    xs = np.linspace(1e-9, 1.0, 4001)
    for N in (1, 2, 3):
        ys = eta(N, xs)
        assert np.all(np.diff(ys) > 0.0)
        assert eta(N, 1e-12) < 1e-10


def test_eta_domain_error():
    with pytest.raises(ValueError):
        eta(2, -1e-9)


# -- C_eta ----------------------------------------------------------------------


def _c_eta_oracle(N: int, m: float) -> float:
    # independent route: direct quadrature in s over (0, 1]
    kappa = N * (m - 1.0) + 2.0

    def f(s):
        return s ** (kappa - 1.0) * math.log(E + 1.0 / s) ** (N * (m - 1.0) / 2.0)

    val, err = quad(f, 0.0, 1.0, limit=300)
    assert err < 1e-8 * max(1.0, val)
    return val


@pytest.mark.parametrize("N,m", [(2, 0.5), (1, 0.5), (2, 0.8)])
def test_c_eta_against_independent_quadrature(N, m):
    params = ProblemParams(N=N, m=m, p=2.0)
    assert c_eta(params) == pytest.approx(_c_eta_oracle(N, m), rel=1e-8)


def test_c_eta_value_in_unit_interval_for_flat_kappa():
    # N=2, m=0.5: integrand reduces to [log(e + 1/s)]^{-1/2} which lies in (0, 1)
    val = c_eta(ProblemParams(N=2, m=0.5, p=2.0))
    assert 0.0 < val < 1.0
    assert val == pytest.approx(0.7710231831850254, rel=1e-10)


def test_c_eta_endpoint_integrand_value():
    # at s = 1 the integrand equals 1 * eta(1)^{m-1}
    N, m = 2, 0.5
    kappa = N * (m - 1.0) + 2.0
    endpoint = 1.0 ** (kappa - 1.0) * math.log(E + 1.0) ** (N * (m - 1.0) / 2.0)
    assert endpoint == pytest.approx(1.0 * eta(N, 1.0) ** (m - 1.0), rel=1e-14)


@pytest.mark.parametrize("N,m", [(2, 0.5), (1, 0.5)])
def test_cumulative_weights_match_a_30_digit_reference(N, m):
    # in tau = -log s the weight is exp(-kappa tau) log(e + e^tau)^{N(m-1)/2}
    kappa, power = N * (m - 1.0) + 2.0, mpmath.mpf(N * (m - 1.0)) / 2
    xs = [1e-9, 1e-5]
    with mpmath.workdps(30):
        ref = [
            mpmath.quad(lambda t: mpmath.exp(-kappa * t) * mpmath.log(mpmath.e + mpmath.exp(t)) ** power,
                        [-mpmath.log(mpmath.mpf(x)), 40, 80, 200, mpmath.inf])
            for x in xs
        ]
    np.testing.assert_allclose(_cumulative_weights(ProblemParams(N=N, m=m, p=2.0), xs),
                               [float(r) for r in ref], rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("N,m", [(2, 0.5), (1, 0.5), (2, 0.8)])
def test_cumulative_weights_strictly_increasing_on_the_gamma_table(N, m):
    G = _cumulative_weights(ProblemParams(N=N, m=m, p=2.0), _TABLE_XS)
    assert G[0] > 0.0 and np.all(np.diff(G) > 0.0)
    assert G[-1] == c_eta(ProblemParams(N=N, m=m, p=2.0))


def test_c_eta_requires_positive_kappa():
    with pytest.raises(ValueError):
        c_eta(ProblemParams(N=4, m=0.5, p=2.0))  # kappa = 0


# -- gamma ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def gamma_n2_m05():
    return GammaFn.build(ProblemParams(N=2, m=0.5, p=1.5))


def test_gamma_endpoints_exact(gamma_n2_m05):
    assert gamma_n2_m05(0.0) == 0.0
    assert gamma_n2_m05(1.0) == 1.0


def test_gamma_midpoint_oracle(gamma_n2_m05):
    # quadrature + bisection oracle value
    assert gamma_n2_m05.value_exact(0.5) == pytest.approx(0.544510957693809, rel=1e-7)
    assert 0.0 < gamma_n2_m05(0.5) < 1.0


def test_gamma_table_matches_exact_rootfind(gamma_n2_m05):
    for xi in (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.7, 0.99):
        assert gamma_n2_m05(xi) == pytest.approx(gamma_n2_m05.value_exact(xi), rel=1e-6)


def test_gamma_strictly_increasing(gamma_n2_m05):
    xs = np.linspace(0.0, 1.0, 1001)
    ys = gamma_n2_m05(xs)
    assert np.all(np.diff(ys) > 0.0)


def test_gamma_domain_error(gamma_n2_m05):
    with pytest.raises(ValueError):
        gamma_n2_m05(1.0 + 1e-9)
    with pytest.raises(ValueError):
        gamma_n2_m05(-1e-9)


# -- asymptotic-equivalence finite checks ----------------------------------------


def test_inverse_asymptotic_ratio_bounded():
    # psi_alpha^{-1}(y) vs y [log(e+y)]^{-alpha}: ratio in [1, C] with modest C
    for alpha in (0.5, 1.0, 2.0):
        ys = np.logspace(-6, 8, 200)
        ratios = [psi_inv(alpha, y) / (y * math.log(E + y) ** (-alpha)) for y in ys]
        assert min(ratios) >= 1.0 - 1e-9
        assert max(ratios) <= 10.0


def test_scaling_equivalence_within_analytic_bounds():
    # psi(k xi)/psi(xi) stays within [k, k (1 + |log k|)^alpha] (and mirrored for k < 1)
    xs = np.logspace(-8, 8, 400)
    for alpha in (0.5, 1.0, 2.0):
        base = psi(alpha, xs)
        for k in (0.1, 2.0, 10.0):
            ratio = psi(alpha, k * xs) / base
            lo = min(k, k / (1.0 + abs(math.log(k))) ** alpha)
            hi = max(k, k * (1.0 + abs(math.log(k))) ** alpha)
            assert ratio.min() >= lo * (1 - 1e-12)
            assert ratio.max() <= hi * (1 + 1e-12)


def test_inverse_subadditivity_constant():
    grid = np.concatenate([[0.0], np.logspace(-3, 6, 28)])
    for alpha in (0.5, 1.0, 2.0):
        worst = 0.0
        for a in grid:
            for b in grid:
                if a == 0.0 and b == 0.0:
                    continue
                num = psi_inv(alpha, a + b)
                den = psi_inv(alpha, a) + psi_inv(alpha, b)
                worst = max(worst, num / den)
        assert worst <= 4.0


def test_gamma_squared_eta_ratio_bounded(gamma_n2_m05):
    # gamma(xi)^2 eta(gamma(xi))^{m-1} comparable to xi on [1e-6, 1]
    m = 0.5
    xs = np.logspace(-6, 0, 200)
    g = gamma_n2_m05(xs)
    ratio = g**2 * eta(2, g) ** (m - 1.0) / xs
    assert ratio.min() > 0.0
    assert ratio.max() / ratio.min() < 50.0
