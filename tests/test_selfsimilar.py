"""Self-similar threshold oracle for the family c |x|^-a, a = 2/(p-m) (ROADMAP items 1 and 3), test-only.

The family is invariant under the equation's scaling, so its minimal
solution is forward self-similar, u = t^{-1/(p-1)} f(|x| t^{-beta}) with
beta = theta = (p-m)/(2(p-1)), and f solves

    Laplace_xi f^m + beta xi f' + f/(p-1) + f^p = 0,   f(0) = s,  f'(0) = 0.

Its tail constant c(s) = lim xi^a f(xi) is the amplitude of the datum
c |x|^-a that the solution takes at t = 0.  Positive profiles exist for
c <= c*_ss = max_s c(s), so those data have global solutions, and a
blow-up bracket of the family should lie above c*_ss; one below it is a
finding about the solver, not a bound to widen.

The shooting runs in tau = log xi on (G, P) = (f^m, xi G'):

    dG/dtau = P,
    dP/dtau = -(N-2) P - xi^2 [(beta/m) f^{1-m} P + f/(p-1) + f^p],

from the series G = s^m - (s/(p-1) + s^p) xi^2/(2N) at xi0 = 1e-6, and stops
where G reaches 0 (a profile that ends has no tail).  The far tail is stiff
(the beta term grows like xi^{2 - a(1-m)}), so LSODA takes it.  xi^a f is
read at two radii a decade apart and extrapolated with the leading
correction xi^-k, k = 2 - 2(1-m)/(p-m).
"""

import functools
import math

import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import minimize_scalar

from fdxlab.experiments import threshold_sweep
from fdxlab.exponents import ProblemParams, derive_exponents
from fdxlab.profiles import power_law
from fdxlab.solver import SolverConfig

P3 = ProblemParams(N=1, m=0.5, p=3.0)
XI0 = 1e-6
C_STAR = 0.0604572  # c*_ss of (1, 0.5, 3); the unextrapolated reading at xi = 1e3 is 0.0604594


def _tail_readings(params: ProblemParams, s: float, xis: tuple) -> list:
    """xi^a f(xi) at each radius of xis (increasing) for the profile f(0) = s, or [] if G reaches 0 first."""
    N, m, p = params.N, params.m, params.p
    ex = derive_exponents(params)
    beta = ex.theta

    def rhs(tau, y):
        G, P = y
        f = max(G, 0.0) ** (1.0 / m)
        return [P, -(N - 2) * P - math.exp(2.0 * tau) * ((beta / m) * f ** (1.0 - m) * P + f / (p - 1.0) + f**p)]

    def ends(tau, y):
        return y[0]

    ends.terminal = True
    source = s / (p - 1.0) + s**p
    y0 = [s**m - source * XI0**2 / (2.0 * N), -source * XI0**2 / N]
    taus = [math.log(x) for x in xis]
    sol = solve_ivp(rhs, (math.log(XI0), taus[-1]), y0, method="LSODA", rtol=1e-12, atol=1e-14, t_eval=taus, events=ends)
    if sol.status != 0:
        return []
    return [x**ex.a_ss * G ** (1.0 / m) for x, G in zip(xis, sol.y[0].tolist())]


def _tail_constant(params: ProblemParams, s: float, xis: tuple = (1e3, 1e4)) -> float:
    """c(s): the readings at xis extrapolated with the correction xi^-k; 0 for a profile that ends."""
    got = _tail_readings(params, s, xis)
    if not got:
        return 0.0
    k = 2.0 - 2.0 * (1.0 - params.m) / (params.p - params.m)
    q = (xis[1] / xis[0]) ** -k
    return (got[1] - q * got[0]) / (1.0 - q)


@functools.lru_cache(maxsize=None)
def _critical(params: ProblemParams) -> tuple:
    """(s*, c*_ss): the largest tail constant over s in [0.05, 1], by bounded scalar search."""
    res = minimize_scalar(lambda s: -_tail_constant(params, s), bounds=(0.05, 1.0), method="bounded")
    return float(res.x), float(-res.fun)


def test_self_similar_threshold_constant_of_the_sweep_family():
    s_star, c_star = _critical(P3)
    print(f"\nself-similar oracle (N, m, p) = (1, 0.5, 3): c*_ss = {c_star:.8f} at s* = {s_star:.6f}")
    assert c_star == pytest.approx(C_STAR, rel=1e-6)
    assert s_star == pytest.approx(0.255848, abs=1e-5)
    # the correction law: pairs a decade apart at other radii extrapolate to the same limit
    for xis in ((3e2, 3e3), (3e3, 3e4)):
        assert _tail_constant(P3, s_star, xis) == pytest.approx(c_star, rel=1e-8), xis
    # without it the reading at xi = 1e3 sits 3.6e-5 high
    raw = _tail_readings(P3, s_star, (1e3,))[0]
    assert raw == pytest.approx(0.0604594, rel=1e-6) and raw / c_star - 1.0 > 3e-5


def test_tail_constant_rises_then_falls_and_large_peaks_end():
    c = [_tail_constant(P3, s) for s in (0.1, 0.2, 0.3, 0.4)]
    assert 0.0 < c[0] < c[1] and c[2] > c[3] > 0.0 and max(c) < _critical(P3)[1]
    assert _tail_readings(P3, 1.0, (1e3, 1e4)) == []  # f(0) = 1 reaches zero: no positive profile


def test_criterion_8_bracket_lies_above_the_self_similar_threshold():
    # criterion 8's configuration at 4 bisections: a horizon-limited upper estimate of the threshold
    cfg = SolverConfig(params=P3, t_end=1.0, n_cells=400, r_dom=8.0, boundary="zeroflux", u_floor=1e-4)
    res = threshold_sweep(power_law(1.0, 0.8, 1), cfg, 4)
    c_star = _critical(P3)[1]
    gap = res.c_low / c_star - 1.0
    print(f"criterion 8 bracket [{res.c_low:.5f}, {res.c_high:.5f}]: c_low is {100 * gap:.1f}% above c*_ss = {c_star:.7f}")
    assert res.c_low > c_star
