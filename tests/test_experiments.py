import math

import numpy as np
import pytest

from fdxlab.exponents import ProblemParams
from fdxlab.profiles import barenblatt, constant
from fdxlab.solver import STATUS_COMPLETED, GridField, SolverConfig, SolverTrace, simulate
from fdxlab.experiments import decay_fit, decay_proxy, threshold_sweep

P2 = ProblemParams(N=1, m=0.5, p=2.0)
P3 = ProblemParams(N=1, m=0.5, p=3.0)


def _control_cfg(params, **kw):
    defaults = dict(
        t_end=1.0, n_cells=100, r_dom=4.0, boundary="zeroflux", u_floor=1e-6, dt_safety=0.15
    )
    defaults.update(kw)
    return SolverConfig(params=params, **defaults)


# -- threshold sweep -------------------------------------------------------------------


def test_threshold_constant_control_brackets_analytic_value():
    # c* = ((p-1) H)^{-1/(p-1)} = 1 for p = 2, H = 1
    cfg = _control_cfg(P2)
    res = threshold_sweep(constant(1.0, 1), cfg, 6)
    assert res.c_low <= 1.0 <= res.c_high
    assert res.c_high - res.c_low <= 1.0 * 2.0**-6 + 1e-12


def test_threshold_labels_consistent_and_monotone():
    cfg = _control_cfg(P2)
    res = threshold_sweep(constant(1.0, 1), cfg, 5)
    for s in res.history:
        if s.c <= res.c_low:
            assert s.status == STATUS_COMPLETED
        if s.c >= res.c_high:
            assert s.status != STATUS_COMPLETED
    assert res.c_low < res.c_high


def test_threshold_deterministic_rerun():
    cfg = _control_cfg(P2)
    a = threshold_sweep(constant(1.0, 1), cfg, 5)
    b = threshold_sweep(constant(1.0, 1), cfg, 5)
    assert a.c_low == b.c_low and a.c_high == b.c_high
    assert [s.c for s in a.history] == [s.c for s in b.history]


def test_threshold_records_no_ball_masses(monkeypatch):
    # a sample reads the status, t_event and sup norms only, so the runs take no probe masses
    calls = []
    ball_mass = GridField.ball_mass

    def counted(self, sigma):
        calls.append(sigma)
        return ball_mass(self, sigma)

    monkeypatch.setattr(GridField, "ball_mass", counted)
    res = threshold_sweep(constant(1.0, 1), _control_cfg(P2), 4)
    assert len(res.history) > 4 and calls == []
    simulate(constant(0.5, 1), _control_cfg(P2, t_end=0.01), [1.0])  # the counter sees a run that records
    assert calls


def test_threshold_no_bracket_raises():
    # with the source disabled nothing ever blows up, so no bracket can exist
    cfg = _control_cfg(P2, source_on=False)
    with pytest.raises(RuntimeError, match="within 40 geometric scans"):
        threshold_sweep(constant(1.0, 1), cfg, 4)


@pytest.mark.parametrize(
    "c_start, expected",
    [
        (0.3, [0.3, 0.6, 1.2, 0.8999999999999999, 1.0499999999999998, 0.9749999999999999, 1.0124999999999997]),
        (5.0, [5.0, 2.5, 1.25, 0.625, 0.9375, 1.09375, 1.015625, 0.9765625]),
    ],
)
def test_bracket_scan_run_order_is_pinned(c_start, expected):
    # the scan doubles c from a survivor and halves it from a blow-up, then bisects 4 times
    res = threshold_sweep(constant(1.0, 1), _control_cfg(P2), 4, c_start=c_start)
    assert [s.c for s in res.history] == expected


def test_threshold_requires_minimum_bisection():
    cfg = _control_cfg(P2)
    with pytest.raises(ValueError):
        threshold_sweep(constant(1.0, 1), cfg, 3)


def test_threshold_rejects_a_profile_without_amplitude(monkeypatch):
    def no_run(*args):
        raise AssertionError("simulate ran")

    monkeypatch.setattr("fdxlab.experiments.simulate", no_run)
    with pytest.raises(ValueError, match="barenblatt profile has no amplitude"):
        threshold_sweep(barenblatt(1.0, 1.0, 1, 0.5), _control_cfg(P2), 4)


# -- decay fits ------------------------------------------------------------------------


def test_decay_fit_exact_power_data():
    ts = np.logspace(-1.0, 1.5, 80)
    trace = SolverTrace(
        times=ts, sup_norm=2.0 * ts ** (-0.625), probe_radii=(1.0,),
        ball_mass=np.ones((80, 1)), status=STATUS_COMPLETED,
    )
    fit = decay_fit(trace, P3, (0.15, 30.0))
    assert fit.slope == pytest.approx(-0.625, abs=1e-6)


def test_decay_fit_window_validation():
    ts = np.logspace(-1.0, 1.0, 40)
    trace = SolverTrace(
        times=ts, sup_norm=ts, probe_radii=(1.0,), ball_mass=np.ones((40, 1)),
        status=STATUS_COMPLETED,
    )
    with pytest.raises(ValueError):
        decay_fit(trace, P3, (1.0, 5.0))  # less than a decade
    with pytest.raises(ValueError):
        decay_fit(trace, P3, (0.0, 5.0))


@pytest.mark.parametrize("T", [math.nan, -1.0, 0.0, math.inf])
def test_decay_fit_rejects_a_T_that_is_not_finite_and_positive(T):
    # critical data read T in the log-corrected quantity; a NaN T used to give log_corrected_sup = nan
    ts = np.logspace(-2, 0, 50)
    trace = SolverTrace(
        times=ts, sup_norm=ts ** (-2.0), probe_radii=(1.0,), ball_mass=np.ones((50, 1)),
        status=STATUS_COMPLETED,
    )
    with pytest.raises(ValueError, match="T must be finite and > 0"):
        decay_fit(trace, ProblemParams(N=2, m=0.5, p=1.5), (0.011, 1.0), T=T)


def test_decay_fit_pure_reaction_backwards_from_blowup():
    # u = ((p-1)(t_b - t))^{-1/(p-1)}: slope -1/(p-1) in tau = t_b - t
    t_b, p = 1.0, 2.0
    tau = np.logspace(-3, -0.5, 60)
    u = ((p - 1.0) * tau) ** (-1.0 / (p - 1.0))
    trace = SolverTrace(
        times=tau, sup_norm=u, probe_radii=(1.0,), ball_mass=np.ones((60, 1)),
        status=STATUS_COMPLETED,
    )
    fit = decay_fit(trace, P2, (2e-3, 0.3))
    assert fit.slope == pytest.approx(-1.0, abs=1e-6)


def test_decay_fit_critical_log_corrected_quantity():
    params = ProblemParams(N=2, m=0.5, p=1.5)
    ts = np.logspace(-2, 0, 50)
    sup = ts ** (-2.0)  # 1/(p-1) = 2
    trace = SolverTrace(
        times=ts, sup_norm=sup, probe_radii=(1.0,), ball_mass=np.ones((50, 1)),
        status=STATUS_COMPLETED,
    )
    fit = decay_fit(trace, params, (0.011, 1.0), T=1.0)
    assert fit.log_corrected_sup is not None
    expected = max(
        t**2.0 * math.log(math.e + 1.0 / t) ** 2.0 * t ** (-2.0) for t in ts if 0.011 <= t <= 1.0
    )
    assert fit.log_corrected_sup == pytest.approx(expected, rel=1e-12)


def test_decay_proxy_flags_growth():
    ts = np.linspace(0.01, 1.0, 200)
    flat = SolverTrace(
        times=ts, sup_norm=1.0 / np.sqrt(ts), probe_radii=(1.0,),
        ball_mass=np.ones((200, 1)), status=STATUS_COMPLETED,
    )
    ratio, ok = decay_proxy(flat, P3, 1.0)  # t^{1/2} sup = 1 flat
    assert ok and ratio == pytest.approx(1.0)

    blowing = SolverTrace(
        times=ts, sup_norm=1.0 / (1.001 - ts) ** 2, probe_radii=(1.0,),
        ball_mass=np.ones((200, 1)), status=STATUS_COMPLETED,
    )
    ratio2, ok2 = decay_proxy(blowing, P3, 1.0)
    assert not ok2 and ratio2 > 10.0


# -- labels ------------------------------------------------------------------------------


def test_stiff_underflow_is_not_a_blowup_label():
    from fdxlab.experiments import _blew
    from fdxlab.solver import STATUS_BLEW_UP, STATUS_DT_UNDERFLOW, STATUS_STIFF_UNDERFLOW

    assert _blew(STATUS_STIFF_UNDERFLOW) is False
    assert _blew(STATUS_BLEW_UP) and _blew(STATUS_DT_UNDERFLOW)


@pytest.mark.parametrize("n_inside", [0, 3])
def test_decay_fit_needs_4_samples_in_its_window(n_inside):
    ts = np.concatenate([np.linspace(0.1, 0.9, n_inside), [5.0, 6.0]]) if n_inside else np.array([5.0, 6.0])
    trace = SolverTrace(times=ts, sup_norm=np.ones(len(ts)), probe_radii=(1.0,), ball_mass=np.ones((len(ts), 1)),
                        status=STATUS_COMPLETED)
    with pytest.raises(ValueError, match="window contains fewer than 4 usable samples"):
        decay_fit(trace, P3, (0.05, 1.0))
