import math

import numpy as np
import pytest

from fdxlab.gronwall import (
    GronwallCoeffs,
    gronwall_bound,
    integrate_comparison_ode,
    verify_against_ode,
)


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
