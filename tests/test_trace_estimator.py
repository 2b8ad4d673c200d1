import math
import re

import numpy as np
import pytest

from fdxlab.exponents import ProblemParams
from fdxlab.profiles import barenblatt, constant, power_law
from fdxlab.solver import SolverConfig, SolverTrace, simulate
from fdxlab.trace_estimator import TraceEstimate, estimate_trace, fit_trace_bounds

P3 = ProblemParams(N=1, m=0.5, p=3.0)


def _short_run(profile, probes, t_end=2e-3, **kw):
    defaults = dict(
        params=P3, t_end=t_end, n_cells=400, r_dom=4.0, boundary="zeroflux",
        u_floor=1e-4, out_interval=t_end / 16.0,
    )
    defaults.update(kw)
    cfg = SolverConfig(**defaults)
    return simulate(profile, cfg, probes)


def test_smooth_data_reproduces_initial_masses():
    trace = _short_run(constant(0.3, 1), probes=[0.5, 1.0, 2.0])
    est = estimate_trace(trace)
    for sigma, mass, flag in zip(est.radii, est.masses, est.converged):
        exact = 2.0 * sigma * 0.3
        assert mass == pytest.approx(exact, rel=0.01)
    assert est.sample_times[0] / est.sample_times[-1] >= 8.0 * (1 - 1e-9)


def test_barenblatt_data_trace_is_initial_data():
    prof = barenblatt(1.0, 1.0, 1, 0.5)
    trace = _short_run(prof, probes=[0.5, 1.0], source_on=False, u_floor=1e-8)
    est = estimate_trace(trace)
    from fdxlab.profiles import ball_mass

    for sigma, mass in zip(est.radii, est.masses):
        assert mass == pytest.approx(ball_mass(prof, 0.0, sigma), rel=0.01)


def test_floor_only_data_masses():
    # zero profile with a floor: nu_hat ~ u_floor * |B|
    trace = _short_run(constant(0.0, 1), probes=[1.0], u_floor=1e-3, source_on=False)
    est = estimate_trace(trace)
    assert est.masses[0] == pytest.approx(2.0 * 1e-3, rel=0.02)


def test_masses_monotone_in_radius():
    trace = _short_run(power_law(0.05, 0.8, 1), probes=list(np.linspace(0.2, 2.0, 8)))
    est = estimate_trace(trace)
    assert all(a <= b * (1 + 1e-9) for a, b in zip(est.masses, est.masses[1:]))


def test_insufficient_samples_error():
    ts = np.array([0.0, 1e-4, 2e-4])
    trace = SolverTrace(
        times=ts, sup_norm=np.ones(3), probe_radii=(1.0,), ball_mass=np.ones((3, 1)),
        status="completed",
    )
    with pytest.raises(ValueError):
        estimate_trace(trace)


def test_insufficient_samples_error_names_n_samples():
    ts = np.array([0.0, 2e-3, 4e-3, 8e-3])  # 3 positive times
    trace = SolverTrace(
        times=ts, sup_norm=np.ones(4), probe_radii=(1.0,), ball_mass=np.ones((4, 1)),
        status="completed",
    )
    with pytest.raises(ValueError, match="3 positive sample times, fewer than the 4 "):
        estimate_trace(trace)


def test_sample_ratio_enforced():
    # times cover barely a factor of 2: no geometric subsample with ratio >= 8 exists
    ts = np.linspace(0.5, 1.0, 9)
    trace = SolverTrace(
        times=ts, sup_norm=np.ones(9), probe_radii=(1.0,), ball_mass=np.ones((9, 1)),
        status="completed",
    )
    with pytest.raises(ValueError):
        estimate_trace(trace)


def test_nonconvergent_radius_flagged():
    # oscillating masses violate the contraction requirement but are still reported
    ts = np.array([0.0] + [2e-3 / 2**k for k in range(6)][::-1])
    mass = np.array([[0.0], [0.5], [0.1], [0.6], [0.05], [0.55], [0.2]])
    trace = SolverTrace(
        times=ts, sup_norm=np.ones(len(ts)), probe_radii=(1.0,), ball_mass=mass,
        status="completed",
    )
    est = estimate_trace(trace)
    assert est.converged == (False,)
    assert len(est.masses) == 1


# -- shape fits -----------------------------------------------------------------------


def test_fit_power_profile_slope():
    probes = list(np.logspace(math.log10(0.05), math.log10(2.0), 9))
    trace = _short_run(power_law(0.05, 0.8, 1), probes=probes)
    est = estimate_trace(trace)
    fit = fit_trace_bounds(est, P3, T=1.0)
    assert fit.expected_slope == pytest.approx(0.2)
    assert fit.slope == pytest.approx(0.2, abs=0.05)


def test_fit_constant_data_slope_is_dimension():
    probes = list(np.logspace(math.log10(0.05), math.log10(2.0), 9))
    trace = _short_run(constant(0.3, 1), probes=probes)
    est = estimate_trace(trace)
    fit = fit_trace_bounds(est, P3, T=1.0)
    assert fit.slope == pytest.approx(1.0, abs=0.05)  # mass ~ sigma^N


def test_fit_critical_shape_residual():
    params = ProblemParams(N=2, m=0.5, p=1.5)
    from fdxlab.exponents import derive_exponents

    theta = derive_exponents(params).theta
    radii = np.logspace(-2, 0, 12) * 0.9
    shape = 0.7 * np.log(math.e + 1.0**theta / radii) ** (-params.N / 2.0)
    from fdxlab.trace_estimator import TraceEstimate

    est = TraceEstimate(
        radii=tuple(radii),
        masses=tuple(shape),
        converged=tuple(True for _ in radii),
        sample_times=(1e-3, 5e-4, 2.5e-4, 1.25e-4),
    )
    fit = fit_trace_bounds(est, params, T=1.0)
    assert fit.log_shape_residual is not None
    assert fit.log_shape_residual < 1e-12  # exact shape fits exactly


@pytest.mark.parametrize("T", [math.nan, -1.0, 0.0, math.inf])
def test_fit_rejects_a_T_that_is_not_finite_and_positive(T):
    # a NaN T used to give log_shape_residual = nan, and T = -1 a ComplexWarning and a residual of 0.2857
    from fdxlab.trace_estimator import TraceEstimate

    radii = np.logspace(-2, 0, 12) * 0.9
    est = TraceEstimate(
        radii=tuple(radii), masses=tuple(0.7 * np.log(math.e + 1.0 / radii) ** -1.0),
        converged=tuple(True for _ in radii), sample_times=(1e-3, 5e-4, 2.5e-4, 1.25e-4),
    )
    with pytest.raises(ValueError, match="T must be finite and > 0"):
        fit_trace_bounds(est, ProblemParams(N=2, m=0.5, p=1.5), T=T)


def test_fit_requires_radius_span():
    est_radii = (0.5, 1.0, 2.0)
    from fdxlab.trace_estimator import TraceEstimate

    est = TraceEstimate(
        radii=est_radii, masses=(0.1, 0.2, 0.4),
        converged=(True, True, True), sample_times=(1e-3, 5e-4, 2.5e-4, 1.25e-4),
    )
    with pytest.raises(ValueError):
        fit_trace_bounds(est, P3, T=1.0)


def test_fit_rejects_subcritical():
    from fdxlab.trace_estimator import TraceEstimate

    est = TraceEstimate(
        radii=tuple(np.logspace(-2, 0, 6)), masses=tuple(np.ones(6)),
        converged=tuple(True for _ in range(6)), sample_times=(1e-3, 5e-4, 2.5e-4, 1.25e-4),
    )
    with pytest.raises(ValueError):
        fit_trace_bounds(est, ProblemParams(N=2, m=0.5, p=1.2), T=1.0)


def _trace(times):
    n = len(times)
    return SolverTrace(times=np.array(times), sup_norm=np.ones(n), probe_radii=(1.0,), ball_mass=np.ones((n, 1)),
                       status="completed")


_ESTIMATE = dict(converged=(True, True, True), sample_times=(8.0, 4.0, 2.0, 1.0))


@pytest.mark.parametrize(
    "call, message",
    [
        # the subsample t, t/2, t/4, t/8 of these times is 2, 1, 0.5, 0.4: a ratio of 5
        (lambda: estimate_trace(_trace([0.4, 0.45, 0.5, 1.0, 2.0])), "sample times must span a ratio of at least 8"),
        (lambda: fit_trace_bounds(TraceEstimate(radii=(0.01, 0.1, 1.0), masses=(0.0, 1.0, 2.0), **_ESTIMATE), P3, 1.0),
         "need at least 3 positive extrapolated masses"),
        (lambda: TraceEstimate(radii=(0.01, 0.1, 1.0), masses=(1.0, -1e-3, 2.0), **_ESTIMATE), "extrapolated masses must be >= 0"),
    ],
    ids=["span-below-8", "two-positive-masses", "negative-mass"],
)
def test_trace_input_checks_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
