import math

import numpy as np
import pytest

from fdxlab.gronwall import (
    GronwallCoeffs,
    gronwall_bound,
    integrate_comparison_ode,
    verify_against_ode,
)


def _reference_rk4(A1, A2, A3, m, T, n_steps):
    """The allocating RK4 loop, clamp included, that integrate_comparison_ode replaced."""
    A1, A2, A3, m = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (A1, A2, A3, m))
    h = T / n_steps

    def rhs(g):
        return A2 * np.power(np.maximum(g, 0.0), m) + A3 * g

    g = A1.copy()
    out = np.empty((n_steps + 1, len(g)))
    out[0] = g
    for k in range(n_steps):
        k1 = rhs(g)
        k2 = rhs(g + 0.5 * h * k1)
        k3 = rhs(g + 0.5 * h * k2)
        k4 = rhs(g + h * k3)
        g = g + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[k + 1] = g
    return np.linspace(0.0, T, n_steps + 1), out


def _edge_batch(n=200, seed=28):
    """Seeded draws holding A1 = 0, A1 = -0.0, A2 = 0, A3 = 0 and each m in {0.3, 0.5, 0.9}."""
    rng = np.random.default_rng(seed)
    A1, A2, A3 = rng.uniform(0.0, 2.0, size=(3, n))
    ms = rng.choice([0.3, 0.5, 0.9], size=n)
    A1[:3], A1[3:6], A2[6:9], A3[9:12] = 0.0, -0.0, 0.0, 0.0
    ms[:12] = np.tile([0.3, 0.5, 0.9], 4)
    return A1, A2, A3, ms


def test_bound_examples():
    # A2 = 0 reduces to linear Gronwall
    assert gronwall_bound(GronwallCoeffs(1.0, 0.0, 1.0, 0.5, 2.0), 1.0) == pytest.approx(math.e)
    # A1 = A3 = 0: Bernoulli closed form (0 + 0.5*2)^2 = 1
    assert gronwall_bound(GronwallCoeffs(0.0, 1.0, 0.0, 0.5, 3.0), 2.0) == pytest.approx(1.0)
    # mixed: e * (1 + 0.5)^2
    assert gronwall_bound(GronwallCoeffs(1.0, 1.0, 1.0, 0.5, 2.0), 1.0) == pytest.approx(
        6.116134114032851, rel=1e-15
    )


def test_bound_domain_error():
    c = GronwallCoeffs(1.0, 1.0, 1.0, 0.5, 2.0)
    with pytest.raises(ValueError):
        gronwall_bound(c, 0.0)
    with pytest.raises(ValueError):
        gronwall_bound(c, 2.0)


def test_coeff_validation():
    with pytest.raises(ValueError):
        GronwallCoeffs(-1.0, 0.0, 0.0, 0.5, 1.0)
    with pytest.raises(ValueError):
        GronwallCoeffs(1.0, 0.0, 0.0, 1.0, 1.0)
    for T in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="T must be finite and > 0"):
            GronwallCoeffs(1.0, 0.0, 0.0, 0.5, T)


def test_linear_case_matches_exponential():
    # A2 = 0: ODE solution A1 e^{A3 t} equals the bound; gap ~ integrator accuracy
    c = GronwallCoeffs(2.0, 0.0, 0.7, 0.5, 1.0)
    report = verify_against_ode(c, n_steps=400)
    assert abs(report.max_gap) <= 1e-10


def test_bernoulli_case_matches_closed_form():
    c = GronwallCoeffs(1.5, 0.8, 0.0, 0.4, 1.0)
    times, g = integrate_comparison_ode(c.A1, c.A2, c.A3, c.m, c.T, 800)
    exact = (c.A1 ** (1 - c.m) + (1 - c.m) * c.A2 * times) ** (1.0 / (1 - c.m))
    assert np.max(np.abs(g[:, 0] - exact)) <= 1e-10


def test_dominance_random_draws():
    rng = np.random.default_rng(314)
    A = rng.uniform(0.0, 2.0, size=(3, 100))
    ms = rng.choice([0.3, 0.5, 0.9], size=100)
    times, g = integrate_comparison_ode(A[0], A[1], A[2], ms, 1.0, 1000)
    base = np.where(A[0][None, :] == 0.0, 0.0, A[0][None, :] ** (1 - ms[None, :]))
    base = base + (1 - ms[None, :]) * A[1][None, :] * times[:, None]
    bounds = np.exp(A[2][None, :] * times[:, None]) * base ** (1.0 / (1 - ms[None, :]))
    rel_gap = (g - bounds) / np.maximum(1.0, bounds)
    assert rel_gap.max() <= 1e-8


def test_zero_initial_value_handled():
    # 0^{1-m} must not produce NaN
    c = GronwallCoeffs(0.0, 1.0, 1.0, 0.7, 1.0)
    assert math.isfinite(gronwall_bound(c, 0.5))
    report = verify_against_ode(c, n_steps=200)
    assert report.max_rel_gap <= 1e-8


def test_bound_monotone_in_each_argument():
    base = dict(A1=1.0, A2=1.0, A3=1.0, m=0.5, T=10.0)
    t = 1.0
    v0 = gronwall_bound(GronwallCoeffs(**base), t)
    for key in ("A1", "A2", "A3"):
        upper = dict(base, **{key: base[key] + 0.5})
        assert gronwall_bound(GronwallCoeffs(**upper), t) > v0
    assert gronwall_bound(GronwallCoeffs(**base), 2.0) > v0


def test_verify_requires_enough_steps():
    with pytest.raises(ValueError):
        verify_against_ode(GronwallCoeffs(1.0, 1.0, 1.0, 0.5, 1.0), n_steps=10)


def test_batch_reports_equal_single_draw_reports():
    rng = np.random.default_rng(2026)
    A = rng.uniform(0.0, 2.0, size=(3, 200))
    ms = rng.choice([0.3, 0.5, 0.9], size=200)
    draws = [GronwallCoeffs(float(a1), float(a2), float(a3), float(m), 1.0) for a1, a2, a3, m in zip(*A, ms)]
    reports = verify_against_ode(draws, n_steps=100)
    assert isinstance(reports, list) and len(reports) == 200
    for c, rep in zip(draws, reports):
        assert rep == verify_against_ode(c, n_steps=100)


def test_batch_rejects_empty_and_mixed_T():
    with pytest.raises(ValueError):
        verify_against_ode([], n_steps=100)
    mixed = [GronwallCoeffs(1.0, 1.0, 1.0, 0.5, 1.0), GronwallCoeffs(1.0, 1.0, 1.0, 0.5, 2.0)]
    with pytest.raises(ValueError):
        verify_against_ode(mixed, n_steps=100)


def test_lockstep_loop_has_the_reference_bits():
    A1, A2, A3, ms = _edge_batch()
    assert np.signbit(A1[3]) and set(ms[:12]) == {0.3, 0.5, 0.9}
    for got, want in zip(integrate_comparison_ode(A1, A2, A3, ms, 1.0, 1000), _reference_rk4(A1, A2, A3, ms, 1.0, 1000)):
        assert np.array_equal(got, want)
    # scalar input: one ODE
    times, g = integrate_comparison_ode(1.5, 0.8, 0.3, 0.4, 1.0, 500)
    assert g.shape == (501, 1)
    assert np.array_equal(g, _reference_rk4(1.5, 0.8, 0.3, 0.4, 1.0, 500)[1])


def test_scalars_broadcast_against_arrays():
    times, g = integrate_comparison_ode(1.0, [0.5, 1.0, 2.0], 0.1, 0.5, 1.0, 10)
    assert g.shape == (11, 3) and len(times) == 11
    assert np.array_equal(g, _reference_rk4(*np.broadcast_arrays(1.0, [0.5, 1.0, 2.0], 0.1, 0.5), 1.0, 10)[1])
    # an array A1 with scalars elsewhere ran before too: a scalar m = 0.5 keeps numpy's
    # stride-0 sqrt path, whose bits differ from pow's on some draws
    A1, A2, A3, ms = _edge_batch()
    for m in (0.5, 0.3):
        _, g = integrate_comparison_ode(A1, 0.7, A3, m, 1.0, 100)
        assert np.array_equal(g, _reference_rk4(A1, 0.7, A3, m, 1.0, 100)[1])
    with pytest.raises(ValueError):
        integrate_comparison_ode([1.0, 2.0], [0.5, 1.0, 2.0], 0.1, 0.5, 1.0, 10)
    with pytest.raises(ValueError, match="1-D"):
        integrate_comparison_ode([[1.0, 2.0]], 0.5, 0.1, 0.5, 1.0, 10)


def test_batch_columns_equal_solo_runs():
    A1, A2, A3, ms = _edge_batch()
    _, g = integrate_comparison_ode(A1, A2, A3, ms, 1.0, 100)
    for j, draw in enumerate(zip(A1, A2, A3, ms)):
        assert np.array_equal(g[:, j], integrate_comparison_ode(*draw, 1.0, 100)[1][:, 0])


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("A1", -1.0, "A1 must be finite and >= 0"),
        ("A1", [0.5, -1e-300], "A1 must be finite and >= 0"),
        ("A2", math.nan, "A2 must be finite and >= 0"),
        ("A2", -0.5, "A2 must be finite and >= 0"),
        ("A3", math.inf, "A3 must be finite and >= 0"),
        ("A3", [1.0, -2.0], "A3 must be finite and >= 0"),
        ("m", 1.5, r"m must lie in \(0, 1\)"),
        ("m", 0.0, r"m must lie in \(0, 1\)"),
        ("m", [0.5, 1.0], r"m must lie in \(0, 1\)"),
        ("m", math.nan, r"m must lie in \(0, 1\)"),
        ("T", -1.0, "T must be finite and > 0"),
        ("T", 0.0, "T must be finite and > 0"),
        ("T", math.nan, "T must be finite and > 0"),
        ("T", math.inf, "T must be finite and > 0"),
    ],
)
def test_integrate_rejects_bad_input_naming_it(key, value, match):
    args = dict(dict(A1=1.0, A2=0.5, A3=0.3, m=0.5, T=1.0, n_steps=10), **{key: value})
    with pytest.raises(ValueError, match=match):
        integrate_comparison_ode(**args)
