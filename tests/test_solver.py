import itertools
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs, dpttrf, dpttrs
from scipy.sparse import diags

from fdxlab.exponents import ProblemParams
from fdxlab.profiles import SPHERE_AREA, ball_volume, barenblatt, barenblatt_value, constant, power_law
from fdxlab.solver import (
    STATUS_BLEW_UP,
    STATUS_COMPLETED,
    STATUS_DT_UNDERFLOW,
    STATUS_STIFF_UNDERFLOW,
    ERR_TOL_CELLS2,
    GridField,
    SolverConfig,
    SolverTrace,
    _A,
    _C,
    _E,
    _GAMMA,
    _M,
    _Stepper,
    _steps,
    check_probes,
    project_initial,
    scaling_transform,
    simulate,
    stable_dt,
)

P1 = ProblemParams(N=1, m=0.5, p=2.0)
P3 = ProblemParams(N=1, m=0.5, p=3.0)


def _cfg(params=P1, **kw) -> SolverConfig:
    defaults = dict(t_end=1.0, n_cells=64, r_dom=4.0, boundary="zeroflux", u_floor=1e-6)
    defaults.update(kw)
    return SolverConfig(params=params, **defaults)


# -- grid and regularization ---------------------------------------------------------


def test_regularize_examples():
    grid = dict(n_cells=16, r_dom=1.6)  # dr = 0.1
    out = project_initial(constant(2.0, 1), _cfg(u_floor=0.1, **grid))  # n = 10
    assert np.allclose(out.u, 2.1)

    out2 = project_initial(constant(0.0, 1), _cfg(u_floor=0.25, **grid))  # n = 4
    assert np.allclose(out2.u, 0.25)

    # singular profile: first cell is the finite cell average, capped, plus 1/n
    out3 = project_initial(power_law(1.0, 0.8, 1), _cfg(u_floor=0.1, **grid))
    first_avg = 0.1 ** (-0.8) / 0.2  # ~31.5, above the cap
    assert first_avg > 10.0
    assert out3.u[0] == pytest.approx(10.0 + 0.1)
    assert np.all(out3.u > 0.0)


def test_grid_ball_mass_partial_cells():
    f = GridField(N=1, dr=0.25, u=np.ones(8), R_dom=2.0)
    assert f.ball_mass(1.0) == pytest.approx(2.0)
    assert f.ball_mass(0.625) == pytest.approx(1.25)  # splits the straddling cell exactly
    assert f.total_mass() == pytest.approx(4.0)


def test_grid_rejects_a_domain_radius_off_its_last_edge():
    # a wrong R_dom would let ScanGrid.for_field scan radii past the last cell
    with pytest.raises(ValueError, match="R_dom=5.0"):
        GridField(N=1, dr=0.1, u=np.ones(10), R_dom=5.0)
    assert GridField(N=1, dr=0.1, u=np.ones(10), R_dom=1.0).edges[-1] == 1.0


def test_grid_off_center_mass_1d_exact():
    f = GridField(N=1, dr=0.25, u=np.arange(1.0, 9.0), R_dom=2.0)
    d, sigma = 0.6, 0.3
    # interval [0.3, 0.9] hits cells 1 (0.25..0.5), 2 (0.5..0.75), 3 (0.75..1.0)
    expected = 2.0 * 0.2 + 3.0 * 0.25 + 4.0 * 0.15
    assert f.ball_mass_at(d, sigma) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_ball_weights_sum_to_the_ball_volume(N):
    f = GridField(N=N, dr=0.125, u=np.ones(32), R_dom=4.0)
    # centered, d < sigma, d > sigma, and |sigma - d| and sigma + d on cell edges
    for d, sigma in ((0.0, 1.3), (0.0, 1.25), (0.4, 1.3), (2.1, 0.7), (1.0, 0.625), (0.25, 0.75)):
        w = f.ball_weights(d, sigma)
        assert w.sum() == pytest.approx(ball_volume(N, sigma), rel=1e-12), (d, sigma)
        # one row per radius when sigma is an array (a norm-scan column)
        np.testing.assert_array_equal(f.ball_weights(d, np.array([0.5, sigma, 3.0]))[1], w)
    # an array of centers (a block of a grid norm scan) gives exactly the stacked per-center rows;
    # 1.1 - 0.6 and 0.625 + nextafter(0.625, 1) land within an ulp of the edges 0.5 and 1.25
    centers = np.array([0.0, 0.4, 2.1, 1.0, 0.25, 1.1, np.nextafter(0.625, 1.0), 0.0])
    radii = np.array([0.5, 0.6, 0.625, 0.75, 1.3, 3.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = f.ball_weights(centers, radii)
        assert block.shape == (len(centers), len(radii), len(f.u))
        np.testing.assert_array_equal(block, [f.ball_weights(d, radii) for d in centers])
        np.testing.assert_array_equal(f.ball_weights(centers, 1.3), block[:, 4])
    # the d = 0 rows are the centered rows ball_mass keeps for the solver's records
    f.u[:] = np.linspace(0.0, 1.0, len(f.u))
    assert [f.ball_mass(s) for s in radii] == [float(np.dot(f.u, w)) for w in block[0]]
    np.testing.assert_array_equal(block[-1], block[0])


@pytest.mark.parametrize("N", [1, 2, 3])
def test_centered_ball_mass_matches_the_straddling_cell_closed_form(N):
    rng = np.random.default_rng(N)
    f = GridField(N=N, dr=0.1, u=rng.uniform(0.0, 1.0, size=40), R_dom=4.0)
    e = f.edges
    for sigma in (0.05, 0.3, 1.234, 2.0, 3.999, 4.0):
        j = int(np.searchsorted(e, sigma) - 1)
        partial = f.u[j] * (sigma**N - e[j] ** N) / N if j < len(f.u) else 0.0
        closed = SPHERE_AREA[N] * (float(np.dot(f.u[:j], f.volumes[:j])) + partial)
        assert f.ball_mass(sigma) == pytest.approx(closed, rel=1e-14), sigma


@pytest.mark.parametrize("N", [1, 2, 3])
def test_centered_mass_from_kept_rows_is_ball_mass_at_the_origin(N):
    rng = np.random.default_rng(10 + N)
    f = GridField(N=N, dr=0.1, u=rng.uniform(0.0, 1.0, size=40), R_dom=4.0)
    radii = (0.05, 0.3, 1.234, 4.0)
    for _ in range(2):  # the second pass reads the kept weight rows
        assert [f.ball_mass(s) for s in radii] == [f.ball_mass_at(0.0, s) for s in radii]
    f.u[:] = rng.uniform(0.0, 1.0, size=40)  # simulate updates u in place
    assert [f.ball_mass(s) for s in radii] == [f.ball_mass_at(0.0, s) for s in radii]


# -- stepping -------------------------------------------------------------------------


def _step(field: GridField, cfg: SolverConfig, dt: float) -> np.ndarray:
    u, _ = _Stepper(field, cfg).apply(field.u, dt)
    return u


def test_step_constant_field_source_off_unchanged():
    cfg = _cfg(source_on=False)
    field = project_initial(constant(1.0, 1), cfg)
    dt = stable_dt(float(field.u.max()), cfg)
    assert np.allclose(_step(field, cfg, dt), field.u, rtol=0.0, atol=0.0)


def test_step_constant_field_source_exact():
    cfg = _cfg(source_on=True)
    field = project_initial(constant(1.0, 1), cfg)
    c = field.u[0]
    dt = stable_dt(float(field.u.max()), cfg)
    p = cfg.params.p
    exact = (c ** (1.0 - p) - (p - 1.0) * dt) ** (1.0 / (1.0 - p))
    assert np.allclose(_step(field, cfg, dt), exact, rtol=1e-14, atol=0.0)


def test_step_barenblatt_locally_consistent():
    # one step from Barenblatt data tracks the exact solution to O(dt) + O(dr^2)
    cfg = _cfg(P3, source_on=False, n_cells=256, r_dom=8.0, u_floor=0.0)
    field = project_initial(barenblatt(1.0, 1.0, 1, 0.5), cfg)
    dt = cfg.output_interval()
    u = _step(field, cfg, dt)
    exact = barenblatt_value(field.r, 1.0 + dt, 1, 0.5, 1.0)
    interior = field.r < 4.0
    assert np.max(np.abs(u[interior] - exact[interior])) <= 5e-4


def test_constant_field_matches_scalar_ode_stepper():
    # constant data see no diffusion, and the source flow is exact, so simulate
    # reproduces the closed-form solution of w' = w^p
    cfg = _cfg(t_end=0.5)
    trace = simulate(constant(1.0, 1), cfg, probes=[1.0])
    w0, p = 1.0 + cfg.u_floor, cfg.params.p  # regularized start
    w = (w0 ** (1.0 - p) - (p - 1.0) * cfg.t_end) ** (1.0 / (1.0 - p))
    assert trace.sup_norm[-1] == pytest.approx(w, rel=1e-12)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_mass_conserved_to_rounding_source_free_zeroflux(N):
    params = ProblemParams(N=N, m=0.5, p=3.0)
    cfg = _cfg(params, source_on=False, t_end=0.2, n_cells=64, r_dom=4.0, u_floor=1e-6)
    prof = power_law(0.3, 0.8, N, cutoff=2.0)
    trace = simulate(prof, cfg, probes=[1.0])
    assert trace.status == STATUS_COMPLETED
    initial = project_initial(prof, cfg)
    assert trace.final_field.total_mass() == pytest.approx(initial.total_mass(), rel=1e-12)


def test_tiny_fixed_floor_run_completes():
    # a 1e-22 floor makes the diffusivity ~1e11 outside the data; the linearly
    # implicit step takes it in stride instead of underflowing at t = 0
    cfg = _cfg(P3, t_end=1.0, n_cells=200, r_dom=8.0, boundary="fixedfloor", u_floor=1e-22)
    trace = simulate(constant(1e-3, 1, cutoff=1.0), cfg, probes=[1.0])
    assert trace.status == STATUS_COMPLETED
    assert trace.times[-1] == pytest.approx(1.0)
    assert np.all(trace.final_field.u >= 1e-22)


def test_zero_cells_end_as_stiff_underflow():
    # without a floor a zero cell has unbounded diffusivity: no step is admissible,
    # and the run says so instead of reporting a source-driven underflow
    cfg = _cfg(P3, t_end=0.5, u_floor=0.0)
    trace = simulate(constant(0.5, 1, cutoff=1.0), cfg, probes=[1.0])
    assert trace.status == STATUS_STIFF_UNDERFLOW
    assert trace.t_event == 0.0


@pytest.mark.parametrize(
    "method, value, boundary",
    [
        ("source_flow", np.nan, "zeroflux"),  # diffusion carries the NaN into the error norm
        ("source_flow", np.nan, "fixedfloor"),  # the floor clamp np.maximum passes the NaN on
        ("apply", np.inf, "zeroflux"),  # a finite error norm: only the state's max sees the cell
        ("apply", np.nan, "fixedfloor"),
    ],
)
def test_non_finite_state_raises(monkeypatch, method, value, boundary):
    original = getattr(_Stepper, method)

    def poisoned(self, u, h):
        out = original(self, u, h)
        if method == "apply":
            out, err = out
            assert math.isfinite(err)
        out = out.copy()
        out[3] = value
        return (out, err) if method == "apply" else out

    monkeypatch.setattr(_Stepper, method, poisoned)
    with pytest.raises(RuntimeError, match="non-finite state .* t=0.0"):
        simulate(constant(0.5, 1), _cfg(P3, t_end=0.1, boundary=boundary), probes=[1.0])


# ROS34PW2 as published (Rang & Angermann, BIT 45, 2005): stage k_i solves
# (I - gamma h J) k_i = h f(u + sum_j ALPHA_ij k_j) + h J sum_j GAMMAS_ij k_j over j < i;
# the step is u + sum_i B_i k_i and the embedded second-order solution u + sum_i B_HAT_i k_i
GAMMA = 0.43586652150845900
ALPHA = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.87173304301691801, 0.0, 0.0, 0.0],
    [0.84457060015369423, -0.11299064236484185, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
])
GAMMAS = np.array([
    [GAMMA, 0.0, 0.0, 0.0],
    [-0.87173304301691801, GAMMA, 0.0, 0.0],
    [-0.90338057013044082, 0.054180672388095326, GAMMA, 0.0],
    [0.24212380706095346, -1.2232505839045147, 0.54526025533510214, GAMMA],
])
B = np.array([0.24212380706095346, -1.2232505839045147, 1.5452602553351020, GAMMA])
B_HAT = np.array([0.37810903145819369, -0.096042292212423178, 0.5, 0.21793326075422950])


def _dense_ros34pw2(stepper: _Stepper, u: np.ndarray, h: float):
    """The step of _Stepper.diffuse in the untransformed form, with J assembled densely from div and solved by numpy.

    (I - gamma h J) k_i = h f(u + sum_j alpha_ij k_j) + h J sum_j gamma_ij k_j for j < i, stages clamped
    as in the solver; the error estimate is (I - gamma h J)^{-1} sum_i (b_i - b_hat_i) k_i.
    """
    m, M = stepper.m, len(u)
    ghost = stepper.div(np.zeros(M))  # the affine part of div (the fixed-floor ghost)
    A = np.column_stack([stepper.div(e) - ghost for e in np.eye(M)])
    J = A * (m * u ** (m - 1.0))  # A diag(m u^{m-1})
    W = np.eye(M) - GAMMA * h * J
    clamp = (lambda x: np.maximum(x, stepper.floor)) if stepper.floor is not None else (lambda x: x)
    k = []
    for i in range(4):
        stage = clamp(u + sum((ALPHA[i, j] * k[j] for j in range(i)), np.zeros(M)))
        coupling = sum((GAMMAS[i, j] * k[j] for j in range(i)), np.zeros(M))
        k.append(np.linalg.solve(W, h * stepper.div(stage**m) + h * (J @ coupling)))
    new = clamp(u + sum(b * kj for b, kj in zip(B, k)))
    est = np.linalg.solve(W, sum((b - bh) * kj for b, bh, kj in zip(B, B_HAT, k)))
    return new, float(np.max(np.abs(est) / (new + 1e-8 * new.max())))


@pytest.mark.parametrize("boundary", ["zeroflux", "fixedfloor"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_diffuse_matches_a_dense_ros34pw2_step(N, boundary):
    cfg = _cfg(ProblemParams(N=N, m=0.5, p=3.0), n_cells=12, r_dom=1.2, boundary=boundary, u_floor=1e-3)
    r = (np.arange(12) + 0.5) * 0.1
    u = 0.2 + np.exp(-4.0 * r**2) + 0.3 * np.sin(7.0 * r) ** 2  # non-uniform: swapping dl and du changes the matrix
    stepper = _Stepper(GridField(N, 0.1, u, 1.2), cfg)
    new, err = stepper.diffuse(u, 0.01)
    ref_new, ref_err = _dense_ros34pw2(stepper, u, 0.01)
    assert new == pytest.approx(ref_new, rel=1e-12, abs=0.0)
    assert err == pytest.approx(ref_err, rel=1e-12)
    assert err > 0.0 and not np.allclose(new, u)  # the step moves the state


# The plain Strang step, one numpy call per formula term: the solver's step reuses buffers and takes fewer
# calls, and must reproduce these bits exactly.
def _plain_div(stepper: _Stepper, v: np.ndarray) -> np.ndarray:
    g = np.empty(len(v))
    g[:-1] = v[1:] - v[:-1]
    g[-1] = stepper.ghost_v - v[-1]
    out = stepper.coef_r * g
    out[1:] -= stepper.coef_l[1:] * g[:-1]
    return out


def _plain_source_flow(stepper: _Stepper, u: np.ndarray, h: float) -> np.ndarray:
    p = stepper.p
    g = u ** (p - 1.0)
    reach = g * stepper.flow_cap
    s = np.maximum(1.0 - (p - 1.0) * h * g, reach)
    return np.where(s > reach, u * s ** (1.0 / (1.0 - p)), stepper.cfg.u_blowup)


def _plain_admissible(stepper: _Stepper, u: np.ndarray):
    if stepper.floor is not None:
        return np.maximum(u, stepper.floor, out=u)
    return None if u.min() <= 0.0 else u


def _symmetric_solve(stepper: _Stepper, d: np.ndarray, gh: float):
    """(I - gamma h J)^{-1} = D^{-1} M^{-1} V with M = V/D + gamma h S factored by dpttrf, as in the solver."""
    *ldl, info = dpttrf(stepper.vol / d + gh * stepper.s_diag, gh * stepper.s_off)
    assert info == 0
    return lambda b: dpttrs(*ldl, stepper.vol * b)[0] / d


def _pivoted_solve(stepper: _Stepper, d: np.ndarray, gh: float):
    """(I - gamma h J)^{-1} by the pivoted general tridiagonal dgttrf, the solver's solve before the symmetric one."""
    *lu, info = dgttrf(-gh * stepper.coef_l[1:] * d[:-1], 1.0 + gh * stepper.coef_c * d,
                       -gh * stepper.coef_r[:-1] * d[1:], overwrite_dl=True, overwrite_d=True, overwrite_du=True)
    assert info == 0
    return lambda b: dgttrs(*lu, b, overwrite_b=True)[0]


def _plain_diffuse(stepper: _Stepper, u: np.ndarray, h: float, factor=_symmetric_solve):
    if u.min() <= 0.0:
        return None, np.inf
    m = stepper.m
    v = u**m
    d = m * v / u
    solve = factor(stepper, d, _GAMMA * h)
    z = np.empty((4, len(u)))
    z[0] = solve(_plain_div(stepper, v))
    for i in range(1, 4):
        stage = _plain_admissible(stepper, u + (h * _A[i, :i]) @ z[:i])
        if stage is None:
            return None, np.inf
        z[i] = solve(_plain_div(stepper, stage**m) + _C[i, :i] @ z[:i])
    new = _plain_admissible(stepper, u + (h * _M) @ z)
    if new is None:
        return None, np.inf
    est = solve((h * _E) @ z)
    return new, float(np.max(np.abs(est) / (new + 1e-8 * new.max())))


def _plain_apply(stepper: _Stepper, u: np.ndarray, dt: float):
    if not stepper.cfg.source_on:
        return _plain_diffuse(stepper, u, dt)
    new, err = _plain_diffuse(stepper, _plain_source_flow(stepper, u, 0.5 * dt), dt)
    return (None if new is None else _plain_source_flow(stepper, new, 0.5 * dt)), err


def _plain_simulate(profile, cfg: SolverConfig, probes) -> SolverTrace:
    """simulate with one interpolant, one sup and one record per sample: simulate interpolates the samples of a
    step together and must reproduce these bits exactly."""
    probes = check_probes(probes, cfg.domain_radius())
    field = project_initial(profile, cfg)
    stepper = _Stepper(field, cfg)
    u = field.u.copy()
    times, sups, masses = [], [], []

    def record(t, state):
        field.u[:] = state
        times.append(t)
        sups.append(float(field.u.max()))
        masses.append([field.ball_mass(s) for s in probes])

    t_end, out_dt = cfg.t_end, cfg.output_interval()
    end_tol = 1e-12 * t_end
    out_times = (t_end if k * out_dt >= t_end - end_tol else k * out_dt for k in itertools.count(1))
    next_out = next(out_times)
    record(0.0, u)
    dense_u = None
    steps = _steps(stepper, u, cfg)
    while True:
        try:
            t, t_new, dt, new, blew = next(steps)
        except StopIteration as end:
            status, t_event = end.value
            break
        dense_new = None
        while next_out < t_new - end_tol and not blew:
            if dense_new is None:
                dense_u = stepper.dense(u) if dense_u is None else dense_u
                dense_new = stepper.dense(new)
            (w0, dw0), (w1, dw1) = dense_u, dense_new
            th = (next_out - t) / dt
            h00, h01 = (1.0 + 2.0 * th) * (1.0 - th) ** 2, th * th * (3.0 - 2.0 * th)
            h10, h11 = th * (1.0 - th) ** 2 * dt, th * th * (th - 1.0) * dt
            record(next_out, (h00 * w0 + h01 * w1 + h10 * dw0 + h11 * dw1) ** (1.0 / stepper.q))
            next_out = next(out_times)
        dense_u = dense_new
        if abs(next_out - t_new) <= end_tol:
            record(next_out, new)
            next_out = next(out_times)
    if t_event is not None and t_event > times[-1] + end_tol:
        record(t_event, u)
    return SolverTrace(np.asarray(times), np.asarray(sups), probes, np.asarray(masses), status, t_event, field)


def _assert_same_step(stepper: _Stepper, u: np.ndarray, dt: float) -> None:
    before = u.copy()
    new, err = stepper.apply(u, dt)
    ref_new, ref_err = _plain_apply(stepper, before.copy(), dt)
    np.testing.assert_array_equal(u, before)  # apply leaves its input alone
    assert err == ref_err
    if ref_new is None:
        assert new is None
    else:
        np.testing.assert_array_equal(new, ref_new)
        assert not np.shares_memory(new, u)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
@pytest.mark.parametrize("boundary", ["zeroflux", "fixedfloor"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_step_reproduces_the_plain_step_bit_for_bit(N, boundary, p):
    cfg = _cfg(ProblemParams(N=N, m=0.5, p=p), n_cells=40, r_dom=2.0, boundary=boundary, u_floor=1e-3)
    r = (np.arange(40) + 0.5) * 0.05
    stepper = _Stepper(GridField(N, 0.05, np.ones(40), 2.0), cfg)
    rng = np.random.default_rng(26 + N)
    for _ in range(3):
        u = 1e-3 + rng.uniform(0.0, 2.0) * np.exp(-rng.uniform(0.5, 4.0) * r**2) + 0.05 * rng.random(40)
        dt = 0.9 * min(0.5, 1.0 / (p - 1.0)) / u.max() ** (p - 1.0)
        for h in (dt, 1e-3 * dt, 10.0 * dt):  # a controller step, a tiny one, and one that may reject
            _assert_same_step(stepper, u, h)
    # the peak cell reaches u_blowup inside the half step: the source flow's slow path
    u[0] = 2.0 * ((p - 1.0) * 0.25 * dt) ** (1.0 / (1.0 - p))
    _assert_same_step(stepper, u, dt)
    # a source-free stepper diffuses only
    _assert_same_step(_Stepper(GridField(N, 0.05, u, 2.0), replace(cfg, source_on=False)), u, dt)


def test_workspace_reuse_keeps_the_bits(monkeypatch):
    # one stepper's workspace serves every attempt: an attempt that returns early leaves it half written, and
    # the next attempts must not read what it left; under zeroflux h = 1 leaves positivity at the first stage
    solves = []
    monkeypatch.setattr("fdxlab.solver.dpttrs", lambda *a, **kw: solves.append(1) or dpttrs(*a, **kw))
    cfg = _cfg(P3, n_cells=40, r_dom=2.0, u_floor=1e-3)
    grid = GridField(1, 0.05, np.ones(40), 2.0)
    stepper = _Stepper(grid, cfg)
    u = 1e-3 + np.exp(-20.0 * grid.r**2)
    tol = ERR_TOL_CELLS2 / 40**2
    for h, outcome in ((1.0, "early"), (1e-3, "rejected"), (1e-4, "accepted")):
        del solves[:]
        new, err = stepper.diffuse(u, h)
        ref_new, ref_err = _Stepper(grid, cfg).diffuse(u, h)
        assert err == ref_err
        if outcome == "early":
            assert new is ref_new is None and len(solves) == 2  # z_0 only, on each stepper
        else:
            np.testing.assert_array_equal(new, ref_new)
            assert (err > tol) == (outcome == "rejected")
    # each stepper has its own workspace, and the states it returns are its caller's
    other = _Stepper(grid, cfg)
    buffers = [[a for a in vars(s).values() if isinstance(a, np.ndarray)] for s in (stepper, other)]
    assert len(buffers[0]) >= 8
    assert not any(np.shares_memory(a, b) for a in buffers[0] for b in buffers[1])
    assert not any(np.shares_memory(new, a) for a in buffers[0])


def _thomas(sub: list, diag: list, sup: list, b: list) -> list:
    """The tridiagonal system with sub-diagonal sub[1:], diagonal diag and super-diagonal sup[:-1], solved by
    elimination without pivoting, one cell at a time in the scalars' own precision."""
    n = len(b)
    sup_p, b_p = [sup[0] / diag[0]], [b[0] / diag[0]]
    for i in range(1, n):
        pivot = diag[i] - sub[i] * sup_p[-1]
        sup_p.append(sup[i] / pivot)
        b_p.append((b[i] - sub[i] * b_p[-1]) / pivot)
    x = [b_p[-1]]
    for i in range(n - 2, -1, -1):
        x.append(b_p[i] - sup_p[i] * x[-1])
    return x[::-1]


def _longdouble_diffuse(field: GridField, cfg: SolverConfig, u: np.ndarray, h: float):
    """The step of _Stepper.diffuse in np.longdouble: the flux operator from the grid's edges, and every solve
    with I - gamma h J = I - gamma h A diag(m u^{m-1}) a Thomas sweep.  Returns the new state, or None where a
    zero-flux stage leaves positivity."""
    ld = np.longdouble
    n, N, m = len(u), field.N, ld(cfg.params.m)
    edges = np.arange(n + 1, dtype=ld) * ld(field.dr)
    vol = (edges[1:] ** N - edges[:-1] ** N) / N
    faces = edges ** (N - 1) / ld(field.dr)  # face area / dr; the origin face has none
    faces[0] = 0.0
    floor = ld(cfg.u_floor) if cfg.boundary == "fixedfloor" else None
    if floor is None:
        faces[-1] = 0.0
    ghost = floor**m if floor is not None else ld(0.0)

    def div(v):
        return np.diff(faces * np.diff(np.concatenate([v[:1], v, [ghost]]))) / vol

    u, h = u.astype(ld), ld(h)
    d = m * u ** (m - ld(1.0))
    gh = ld(_GAMMA) * h
    sub = list(-gh * faces[:-1] * np.concatenate([[ld(0.0)], d[:-1]]) / vol)
    diag = list(1.0 + gh * (faces[:-1] + faces[1:]) * d / vol)
    sup = list(-gh * faces[1:] * np.concatenate([d[1:], [ld(0.0)]]) / vol)

    def admissible(x):
        if floor is not None:
            return np.maximum(x, floor)
        return None if x.min() <= 0.0 else x

    z = np.empty((4, n), dtype=ld)
    z[0] = _thomas(sub, diag, sup, list(div(u**m)))
    for i in range(1, 4):
        stage = admissible(u + (h * _A[i, :i].astype(ld)) @ z[:i])
        if stage is None:
            return None
        z[i] = _thomas(sub, diag, sup, list(div(stage**m) + _C[i, :i].astype(ld) @ z[:i]))
    return admissible(u + (h * _M.astype(ld)) @ z)


def _worst_errors_against_long_double(boundary: str, u_floor: float, states, hs) -> tuple:
    """The worst relative state error of the pivoted and the symmetric step against _longdouble_diffuse over the
    states and steps h, and the number of steps all three took to a state (a zero-flux stage may leave positivity)."""
    worst, compared = [0.0, 0.0], 0
    for params, u in states:
        n = len(u)
        cfg = SolverConfig(params, t_end=1.0, n_cells=n, r_dom=8.0, boundary=boundary, u_floor=u_floor)
        field = GridField(params.N, 8.0 / n, u, 8.0)
        stepper = _Stepper(field, cfg)
        for h in hs:
            new = stepper.diffuse(u, h)[0]
            pivoted = _plain_diffuse(stepper, u, h, factor=_pivoted_solve)[0]
            ref = _longdouble_diffuse(field, cfg, u, h)
            assert (new is None) == (pivoted is None) == (ref is None)
            if ref is None:
                continue
            compared += 1
            for k, x in enumerate((pivoted, new)):
                worst[k] = max(worst[k], float(np.max(np.abs(x - ref) / ref)))
    return worst, compared


_ORACLE_STEPS = (1e-5, 1e-4, 1e-3, 1e-2, 0.1)


@pytest.mark.parametrize("boundary", ["zeroflux", "fixedfloor"])
@pytest.mark.parametrize("N", [1, 2, 3])
def test_stage_solves_match_a_long_double_reference(N, boundary):
    # seeded bumps on the floor 1e-8 with peaks 1e-2 to 1e5, 200 cells, as a half source step at the source bound
    # leaves them for p = 2, 3 and 5; the worst relative errors measured over the six cases were 1.6e-11 (pivoted)
    # and 1.35e-11 (symmetric, N = 3 fixedfloor), so the bound is about twice that
    rng = np.random.default_rng(38 + N)
    r = (np.arange(200) + 0.5) * 0.04
    states = []
    for p in (2.0, 3.0, 5.0):
        params = ProblemParams(N=N, m=0.5, p=p)
        cfg = SolverConfig(params, t_end=1.0, n_cells=200, r_dom=8.0, boundary=boundary, u_floor=1e-8)
        for _ in range(2):
            bump = 10.0 ** rng.uniform(-2.0, 5.0) * np.exp(-rng.uniform(0.5, 8.0) * r**2)
            u = 1e-8 + bump * (1.0 + 0.1 * rng.random(200))
            half_source_step = 0.5 * stable_dt(u.max(), cfg)
            states.append((params, _Stepper(GridField(N, 0.04, u, 8.0), cfg).source_flow(u, half_source_step)))
    (pivoted, symmetric), compared = _worst_errors_against_long_double(boundary, 1e-8, states, _ORACLE_STEPS)
    print(f"\n[oracle] N={N} {boundary}: worst relative error against the long-double step over {compared} steps: "
          f"pivoted dgttrf {pivoted:.2e}, symmetric dpttrf {symmetric:.2e}")
    assert compared >= len(states) * len(_ORACLE_STEPS) // 2
    assert symmetric <= 3e-11


@pytest.mark.parametrize("N", [1, 2, 3])
def test_unfloored_tails_factor_and_are_reported(N):
    # u_floor = 0: seeded bumps whose tails fall to 1e-300 are finite and positive, so M is positive definite and
    # dpttrf must factor it; the errors of these tails are reported, not bounded
    rng = np.random.default_rng(138 + N)
    r = (np.arange(200) + 0.5) * 0.04
    params = ProblemParams(N=N, m=0.5, p=3.0)
    # the tail exponent k gives u = peak 10^{-k (r/8)^2} down to 1e-300 at the edge, flat at 1e-300 where it
    # would fall below
    states = [(params, np.maximum(10.0 ** rng.uniform(-2.0, 5.0) * 10.0 ** (-k * (r / 8.0) ** 2), 1e-300))
              for k in (30.0, 150.0, 300.0, 600.0)]
    steps = _ORACLE_STEPS + (1.0,)
    (pivoted, symmetric), compared = _worst_errors_against_long_double("zeroflux", 0.0, states, steps)
    print(f"\n[oracle] N={N} zeroflux, u_floor 0, tails to 1e-300: worst relative error over {compared} steps: "
          f"pivoted dgttrf {pivoted:.2e}, symmetric dpttrf {symmetric:.2e}")
    assert compared > 0


_SAMPLED = [(power_law(0.1, 0.8, N, cutoff=2.0), N, boundary, source_on)
            for N in (1, 2, 3) for boundary in ("zeroflux", "fixedfloor") for source_on in (True, False)]


@pytest.mark.parametrize("probes", [(), (0.05, 0.5, 1.0)], ids=["no-probes", "probes"])
@pytest.mark.parametrize("prof, N, boundary, source_on", _SAMPLED,
                         ids=[f"N{N}-{b}-{'source' if s else 'nosource'}" for _, N, b, s in _SAMPLED])
def test_simulate_samples_reproduce_the_plain_sampler_bit_for_bit(prof, N, boundary, source_on, probes):
    # an output interval far below the step size: the longest step of each run holds 38 to 57 samples
    cfg = _cfg(ProblemParams(N=N, m=0.5, p=3.0), t_end=0.2, boundary=boundary, u_floor=1e-4, source_on=source_on,
               out_interval=7e-4)
    _assert_same_trace(simulate(prof, cfg, probes), _plain_simulate(prof, cfg, probes))


@pytest.mark.parametrize("values", [None, 3 * 64], ids=["default-chunk", "three-sample-chunks"])
def test_blowup_and_chunked_samples_reproduce_the_plain_sampler(monkeypatch, values):
    if values is not None:
        monkeypatch.setattr("fdxlab.solver._SAMPLE_VALUES", values)
    # flat data reach u_blowup in a step that takes no samples, after a first step that holds 2,249 samples,
    # more than the 1,024 of a default chunk at 64 cells; N = 2 power data hold up to 341 samples per step
    runs = [(constant(1.0, 1), _cfg(P3, u_floor=1e-4, out_interval=2e-4), STATUS_BLEW_UP),
            (power_law(0.1, 0.8, 2), _cfg(ProblemParams(N=2, m=0.5, p=3.0), t_end=0.2, out_interval=1e-4),
             STATUS_COMPLETED)]
    for prof, cfg, status in runs:
        trace = simulate(prof, cfg, probes=[0.5, 1.0])
        _assert_same_trace(trace, _plain_simulate(prof, cfg, [0.5, 1.0]))
        assert trace.status == status
        assert len(trace.times) > 100


def _assert_same_trace(trace: SolverTrace, ref: SolverTrace) -> None:
    for name in ("times", "sup_norm", "ball_mass"):
        a, b = getattr(trace, name), getattr(ref, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert trace.final_field.u.tobytes() == ref.final_field.u.tobytes()
    assert (trace.status, trace.t_event) == (ref.status, ref.t_event)


@pytest.mark.parametrize("p", [2.0, 3.0, 5.0])
def test_source_flow_fast_path_boundary_keeps_the_bits(p):
    # the peak's g = u^{p-1} where 1 - (p-1) h g meets g u_blowup^{1-p}, and its neighbours by a few ulps
    cfg = _cfg(ProblemParams(N=1, m=0.5, p=p))
    stepper = _Stepper(project_initial(constant(1.0, 1), cfg), cfg)
    h = 0.01
    g_edge = 1.0 / ((p - 1.0) * h + stepper.flow_cap)
    peak = g_edge ** (1.0 / (p - 1.0))
    for k in range(-4, 5):
        top = peak
        for _ in range(abs(k)):
            top = np.nextafter(top, np.inf if k > 0 else 0.0)
        u = np.array([0.5, top, 0.9 * top, top])
        np.testing.assert_array_equal(stepper.source_flow(u, h), _plain_source_flow(stepper, u, h))
    slow = np.array([0.5, peak * (1.0 + 1e-6)])
    assert stepper.source_flow(slow, h)[1] == cfg.u_blowup


def test_ros34pw2_tableau():
    g = GAMMA
    beta = np.tril(ALPHA + GAMMAS, -1)
    beta_row, alpha_row = beta.sum(axis=1), ALPHA.sum(axis=1)
    # the Rosenbrock order conditions (Hairer & Wanner, Solving ODEs II, Table IV.7.1)
    conditions = [  # (order, left side, right side)
        (1, lambda w: w.sum(), 1.0),
        (2, lambda w: w @ beta_row, 0.5 - g),
        (3, lambda w: w @ alpha_row**2, 1.0 / 3.0),
        (3, lambda w: w @ beta @ beta_row, 1.0 / 6.0 - g + g**2),
    ]
    for weights, order in ((B, 3), (B_HAT, 2)):
        for k, lhs, rhs in conditions:
            if k <= order:
                assert lhs(weights) == pytest.approx(rhs, abs=1e-15), (order, k)
    assert B_HAT @ alpha_row**2 != pytest.approx(1.0 / 3.0, abs=1e-3)  # the embedded solution is of order 2 only

    # stiffly accurate: the step is the last stage's argument plus its own increment
    np.testing.assert_allclose(B[:3], ALPHA[3, :3] + GAMMAS[3, :3], rtol=0.0, atol=1e-15)
    assert B[3] == g

    # L-stable: the stability function R(z) = 1 + z b^T (I - z (alpha + Gamma))^{-1} 1 vanishes at infinity
    z = -1e8
    R = 1.0 + z * B @ np.linalg.solve(np.eye(4) - z * (ALPHA + GAMMAS), np.ones(4))
    assert abs(R) < 1e-6

    # the solver's transformed coefficients reproduce the published tableau
    gamma_unit = np.linalg.inv(np.eye(4) - _C)  # Gamma / gamma
    np.testing.assert_allclose(gamma_unit * _GAMMA, GAMMAS, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_A @ gamma_unit, ALPHA, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(_M @ gamma_unit, B, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose((_M - _E) @ gamma_unit, B_HAT, rtol=0.0, atol=1e-15)


def test_singular_diffusion_matrix_raises(monkeypatch):
    # a valid factorization reported with a non-positive pivot (info > 0), as dpttrf does for a matrix that rounding
    # has left singular or indefinite
    def singular(*args, **kw):
        *ldl, _ = dpttrf(*args, **kw)
        return (*ldl, 2)

    monkeypatch.setattr("fdxlab.solver.dpttrf", singular)
    cfg = _cfg()
    field = project_initial(constant(1.0, 1), cfg)
    with pytest.raises(LinAlgError, match="singular"):
        _Stepper(field, cfg).diffuse(field.u, 0.01)


# -- simulate -------------------------------------------------------------------------


def test_simulate_reaction_blowup_time():
    trace = simulate(constant(1.0, 1), _cfg(t_end=1.5), probes=[1.0])
    assert trace.status in (STATUS_BLEW_UP, STATUS_DT_UNDERFLOW)
    assert trace.t_event == pytest.approx(1.0, rel=0.05)
    if trace.status == STATUS_BLEW_UP:
        assert trace.sup_norm[-1] >= _cfg().u_blowup


def test_source_flow_stops_at_blowup_threshold():
    # a flow longer than the time left to blow-up stops at u_blowup instead of leaving the reals
    params = ProblemParams(N=1, m=0.5, p=5.0)
    cfg = _cfg(params)
    u = np.array([0.5, 1.0, 2.0])  # blow-up times u^{1-p} / (p - 1): 4, 0.25 and 1/64
    out = _Stepper(project_initial(constant(1.0, 1), cfg), cfg).source_flow(u, 0.3)
    assert np.all(np.isfinite(out))
    assert out[0] == pytest.approx((0.5**-4.0 - 4.0 * 0.3) ** -0.25, rel=1e-14)
    np.testing.assert_array_equal(out[1:], cfg.u_blowup)  # the peak stops exactly at u_blowup
    # the source bound keeps every step below the peak cell's blow-up time, so no sampling moves t_event
    trace = simulate(constant(1.0, 1), _cfg(params, t_end=0.5), probes=[1.0])
    assert trace.status in (STATUS_BLEW_UP, STATUS_DT_UNDERFLOW)
    assert 0.25 * (1.0 - 1e-3) <= trace.t_event <= 0.25  # t_b = u0^{1-p} / (p - 1)
    assert np.all(np.isfinite(trace.final_field.u))
    # a step that reaches u_blowup is not interpolated across, so no sample before the end carries it
    assert np.all(trace.sup_norm[:-1] < cfg.u_blowup)


def test_simulate_zero_profile_follows_floor_ode():
    # floor-only data stays spatially constant and follows w' = w^p from w(0) = 1/n
    cfg = _cfg(P3, t_end=0.5, u_floor=0.25)
    trace = simulate(constant(0.0, 1), cfg, probes=[1.0])
    assert trace.status == STATUS_COMPLETED
    field = trace.final_field
    assert np.allclose(field.u, field.u[0])
    assert field.u[0] > 0.25  # grew from the floor


def test_simulate_mass_conservation_zeroflux():
    cfg = _cfg(P3, source_on=False, t_end=0.3, n_cells=128, r_dom=8.0, u_floor=1e-8)
    trace = simulate(barenblatt(1.0, 1.0, 1, 0.5), cfg, probes=[1.0])
    initial = project_initial(barenblatt(1.0, 1.0, 1, 0.5), cfg)
    assert trace.final_field.total_mass() == pytest.approx(initial.total_mass(), rel=1e-10)


def test_simulate_positivity_and_trace_invariants():
    cfg = _cfg(P3, t_end=0.2, boundary="fixedfloor", u_floor=1e-3)
    trace = simulate(power_law(0.1, 0.8, 1), cfg, probes=[0.5, 1.0])
    assert trace.status == STATUS_COMPLETED
    assert np.all(np.diff(trace.times) > 0.0)
    assert np.all(trace.sup_norm >= 0.0)
    assert np.all(trace.final_field.u >= 1e-3 - 1e-15)
    assert trace.ball_mass.shape == (len(trace.times), 2)


def test_output_interval_beyond_t_end_still_records_the_end_state():
    trace = simulate(constant(0.5, 1), _cfg(t_end=1.0, out_interval=1.5), probes=[1.0])
    assert trace.status == STATUS_COMPLETED
    np.testing.assert_array_equal(trace.times, [0.0, 1.0])
    assert len(trace.csv_rows()[1]) == 2


def _sweep_cfg(**kw) -> SolverConfig:
    # the threshold sweep's runs: README power profile, 400 cells, r_dom 8, horizon 1
    return SolverConfig(params=P3, t_end=1.0, n_cells=400, r_dom=8.0, **kw)


def test_samples_end_exactly_at_t_end():
    # output times are min(k * out_interval, t_end), not sums of steps, so no sliver step follows 0.9999999999999999
    trace = simulate(power_law(0.0977, 0.8, 1), _sweep_cfg(out_interval=0.1), probes=[1.0])
    assert trace.status == STATUS_COMPLETED
    assert len(trace.times) == 11
    assert trace.times[-1] == 1.0
    np.testing.assert_allclose(trace.times, np.linspace(0.0, 1.0, 11), rtol=0.0, atol=1e-15)


def _barenblatt_cfg(**kw) -> SolverConfig:
    return _cfg(P3, source_on=False, u_floor=1e-8, **kw)


def _blowup_cfg(**kw) -> SolverConfig:
    return _cfg(ProblemParams(N=1, m=0.5, p=5.0), **kw)


@pytest.mark.parametrize(
    "prof, params, grid, horizons",
    [
        # a top-hat of mass 1 and half-width 0.01: the floor cells beside the spike hold the first steps near 5e-11,
        # below 1e-14 t_end at t_end 1e4
        (constant(50.0, 1, cutoff=0.01), ProblemParams(N=1, m=0.5, p=1.5),
         dict(n_cells=1000, r_dom=10.0, u_floor=1e-8), (20.0, 1e4)),
        # the sweep family at c = 1: the source bound passes 1e-14 t_end at t_end 1 before the sup reaches 1e8
        (power_law(1.0, 0.8, 1), P3, dict(n_cells=400, r_dom=8.0), (1.0, 1e-4)),
    ],
    ids=["top-hat", "power"],
)
def test_label_and_blowup_time_do_not_depend_on_the_horizon(prof, params, grid, horizons):
    # both runs take the source bound before either horizon binds, so they take the same steps to the same end
    traces = [simulate(prof, SolverConfig(params=params, t_end=t_end, **grid), ()) for t_end in horizons]
    assert [tr.status for tr in traces] == [STATUS_BLEW_UP] * 2
    assert traces[0].t_event == traces[1].t_event < min(horizons)


def test_flat_data_blow_up_at_the_closed_form_time():
    # flat data feel no diffusion, so the floor-shifted datum 1 + u_floor blows up at (1 + u_floor)^{1-p} / (p - 1);
    # the run reaches u_blowup within the last step's rounding of the clock
    cfg = _cfg(P3, u_floor=1e-4)
    trace = simulate(constant(1.0, 1), cfg, probes=[1.0])
    assert trace.status == STATUS_BLEW_UP
    assert trace.sup_norm[-1] >= cfg.u_blowup
    assert trace.t_event == pytest.approx((1.0 + 1e-4) ** -2.0 / 2.0, rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "prof, cfg, blows",
    [
        (power_law(0.0977, 0.8, 1), _sweep_cfg, False),
        (constant(0.5, 1, cutoff=1.0), _sweep_cfg, False),
        (barenblatt(1.0, 1.0, 1, 0.5), _barenblatt_cfg, False),
        (constant(1.0, 1), _blowup_cfg, True),
    ],
    ids=["power", "step", "barenblatt", "blowup"],
)
def test_step_sequence_does_not_depend_on_output_times(prof, cfg, blows):
    # the source bound limits the first steps of the power data, the controller those of the step data and of
    # the source-off Barenblatt run; the p = 5 run reaches its blow-up time t_b = 0.25 (1 + u_floor)^{-4}
    traces = [simulate(prof, cfg(out_interval=oi), probes=[1.0]) for oi in (1 / 200, 1 / 37, 1.0)]
    for trace in traces[1:]:
        np.testing.assert_array_equal(trace.final_field.u, traces[0].final_field.u)
        assert (trace.status, trace.t_event) == (traces[0].status, traces[0].t_event)
    # and _steps alone, drained with no sampler, takes the same steps to the same end
    field = project_initial(prof, cfg())
    steps = _steps(_Stepper(field, cfg()), field.u, cfg())
    with pytest.raises(StopIteration) as end:
        while True:
            next(steps)
    assert end.value.value == (traces[0].status, traces[0].t_event)
    np.testing.assert_array_equal(field.u, traces[0].final_field.u)
    if blows:
        assert traces[0].status in (STATUS_BLEW_UP, STATUS_DT_UNDERFLOW)
        assert 0.25 * (1.0 - 1e-3) <= traces[0].t_event <= 0.25
    else:
        assert traces[0].status == STATUS_COMPLETED


@pytest.mark.parametrize(
    "prof, cfg, status",
    [
        (constant(0.5, 1, cutoff=1.0), _cfg(P3), STATUS_COMPLETED),
        (constant(0.5, 1, cutoff=1.0), _cfg(P3, t_end=0.5, u_floor=0.0), STATUS_STIFF_UNDERFLOW),
        (constant(1.0, 1), _cfg(P3, u_blowup=2.0), STATUS_BLEW_UP),
        (constant(1.0, 1), _blowup_cfg(), STATUS_DT_UNDERFLOW),
    ],
    ids=["completed", "stiff_underflow", "blew_up", "dt_underflow"],
)
def test_call_counts_that_the_benchmark_tracer_reads(monkeypatch, prof, cfg, status):
    # perfbench's tracer counts step attempts as the module-level stable_dt calls, less the bound that ends a
    # dt_underflow run, and records as GridField.ball_mass calls
    calls = {"stable_dt": 0, "ball_mass": 0}
    errs = []
    bound, apply, ball_mass = stable_dt, _Stepper.apply, GridField.ball_mass

    def counted_bound(u_max, cfg):
        calls["stable_dt"] += 1
        return bound(u_max, cfg)

    def counted_apply(self, u, dt):
        new, err = apply(self, u, dt)
        errs.append(err)
        return new, err

    def counted_ball_mass(self, sigma):
        calls["ball_mass"] += 1
        return ball_mass(self, sigma)

    monkeypatch.setattr("fdxlab.solver.stable_dt", counted_bound)
    monkeypatch.setattr(_Stepper, "apply", counted_apply)
    monkeypatch.setattr(GridField, "ball_mass", counted_ball_mass)
    probes = [0.05, 0.5, 1.0]
    trace = simulate(prof, cfg, probes)
    assert trace.status == status
    assert calls["stable_dt"] == len(errs) + (status == STATUS_DT_UNDERFLOW)
    assert calls["ball_mass"] == len(probes) * len(trace.times)
    if status == STATUS_COMPLETED:  # a rejected attempt calls stable_dt too
        assert max(errs) > ERR_TOL_CELLS2 / cfg.n_cells**2
    if status == STATUS_STIFF_UNDERFLOW:  # the zero cells end the run before any attempt
        assert errs == [] and calls["stable_dt"] == 0


@pytest.mark.parametrize("c", [0.03, 0.0625])
def test_interpolated_samples_match_a_tight_tolerance_run(monkeypatch, c):
    # samples inside a step are cubic Hermite interpolants; they stay as accurate as the steps themselves
    probes = [0.05, 0.5, 2.0]
    trace = simulate(power_law(c, 0.8, 1), _sweep_cfg(), probes=probes)
    monkeypatch.setattr("fdxlab.solver.ERR_TOL_CELLS2", ERR_TOL_CELLS2 / 100.0)
    ref = simulate(power_law(c, 0.8, 1), _sweep_cfg(), probes=probes)
    assert trace.status == ref.status == STATUS_COMPLETED
    np.testing.assert_array_equal(trace.times, ref.times)
    np.testing.assert_allclose(trace.sup_norm, ref.sup_norm, rtol=1e-4, atol=0.0)
    np.testing.assert_allclose(trace.ball_mass, ref.ball_mass, rtol=1e-4, atol=0.0)


@pytest.mark.parametrize("p", [1.001, 2.0, 3.0, 5.0])
def test_flat_data_samples_follow_the_reaction_closed_form(p):
    # flat data feel no diffusion, and w = u^{1-p} is linear in t under the reaction, so every sample before the
    # end is u0 (1 - (p-1) t u0^{p-1})^{-1/(p-1)} to rounding; mapping w back costs about eps/(p-1): 3e-13 at p = 1.001
    trace = simulate(constant(1.0, 1), _cfg(ProblemParams(N=1, m=0.5, p=p), out_interval=0.01), probes=[])
    before = trace.times < (math.inf if trace.t_event is None else trace.t_event)
    t, sup = trace.times[before], trace.sup_norm[before]
    assert len(t) >= 25
    exact = sup[0] * np.exp(-np.log1p(-(p - 1.0) * t * sup[0] ** (p - 1.0)) / (p - 1.0))
    np.testing.assert_allclose(sup, exact, rtol=1e-12, atol=0.0)
    assert np.all(np.diff(trace.sup_norm) > 0.0)


def _radau_reference(prof, cfg: SolverConfig):
    """scipy's Radau on simulate's semi-discrete system u' = A(u^m) + u^p, from the same projection.

    The Jacobian A diag(m u^{m-1}) + diag(p u^{p-1}) is tridiagonal and
    sparse; the run stops when the sup reaches u_blowup.  Returns solve_ivp's
    solution.
    """
    field = project_initial(prof, cfg)
    stepper = _Stepper(field, cfg)
    m, p = stepper.m, stepper.p
    source = 1.0 if cfg.source_on else 0.0

    def rhs(t, u):
        return stepper.div(u**m) + source * u**p

    def jac(t, u):
        d = m * u ** (m - 1.0)
        diagonal = source * p * u ** (p - 1.0) - stepper.coef_c * d
        return diags([stepper.coef_l[1:] * d[:-1], diagonal, stepper.coef_r[:-1] * d[1:]], [-1, 0, 1], format="csc")

    def blowup(t, u):
        return u.max() - cfg.u_blowup

    blowup.terminal = True
    return solve_ivp(rhs, (0.0, cfg.t_end), field.u, method="Radau", jac=jac, rtol=1e-10, atol=1e-12, events=blowup)


def _sup_error_against_radau(prof, cfg: SolverConfig) -> float:
    """Relative error of simulate's sup at t_end against the Radau reference; both runs must complete."""
    trace, ref = simulate(prof, cfg, probes=[]), _radau_reference(prof, cfg)
    assert trace.status == STATUS_COMPLETED and ref.status == 0
    return float(trace.sup_norm[-1] / ref.y[:, -1].max() - 1.0)


@pytest.mark.parametrize(
    "prof, cfg, bound",
    [
        (power_law(0.0625, 0.8, 1), _sweep_cfg(), 1e-4),
        (barenblatt(1.0, 1.0, 1, 0.5), _cfg(P3, source_on=False, n_cells=400, r_dom=16.0, u_floor=1e-8), 2e-5),
    ],
    ids=["sweep_c0.0625", "barenblatt"],
)
def test_sup_matches_a_radau_reference(prof, cfg, bound):
    # the time error of the whole step, source included: measured 6.8e-5 (sweep family) and 4.6e-6 (source off)
    assert abs(_sup_error_against_radau(prof, cfg)) <= bound


@pytest.mark.parametrize("c", [0.1003, 0.100341796875])
@pytest.mark.xfail(strict=True, reason="the step's error estimate omits the Strang splitting error: +10% and +27%")
def test_near_threshold_sup_matches_a_radau_reference(c):
    # the sweep family near its bracket, where reaction and diffusion balance; 0.100341796875 is criterion 8's survivor
    assert abs(_sup_error_against_radau(power_law(c, 0.8, 1), _sweep_cfg())) <= 1e-3


def test_trace_csv_rows_shape():
    cfg = _cfg(t_end=0.05)
    trace = simulate(constant(0.5, 1), cfg, probes=[0.5, 1.0])
    header, rows = trace.csv_rows()
    assert header == ["t", "sup_norm", "mass_sigma_0", "mass_sigma_1"]
    assert len(rows) == len(trace.times)


@pytest.mark.parametrize(
    "field, value",
    [
        ("t_end", float("nan")), ("t_end", float("inf")), ("t_end", 0.0),
        ("out_interval", 0.0), ("out_interval", -0.01), ("out_interval", float("nan")),
        ("r_dom", 0.0), ("r_dom", -1.0), ("r_dom", float("nan")),
        ("u_floor", float("nan")), ("u_floor", -1e-6),
        ("u_blowup", float("nan")), ("u_blowup", 1.0),
        ("dt_safety", float("nan")), ("dt_safety", 1.0),
        ("n_cells", 2), ("n_cells", 1), ("n_cells", 0),
        ("boundary", "fixed"),
        ("u_floor", 0.0),  # rejected under the fixedfloor boundary only
    ],
)
def test_solver_config_rejects_bad_values_by_name(field, value):
    boundary = "fixedfloor" if (field, value) == ("u_floor", 0.0) else "zeroflux"
    with pytest.raises(ValueError, match=rf"^{field} "):
        _cfg(**{"boundary": boundary, field: value})


def test_probe_beyond_the_domain_is_rejected():
    cfg = _cfg(t_end=0.05, r_dom=4.0)
    with pytest.raises(ValueError, match=r"probe radius 10\.0 .*R_dom=4\.0"):
        simulate(constant(0.5, 1), cfg, probes=[1.0, 10.0])
    assert simulate(constant(0.5, 1), cfg, probes=[4.0]).status == STATUS_COMPLETED


# -- scaling ---------------------------------------------------------------------------


def test_scaling_identity():
    cfg = _cfg(P3, t_end=0.1)
    trace = simulate(constant(0.5, 1), cfg, probes=[1.0])
    same = scaling_transform(trace, 1.0, P3)
    assert np.allclose(same.times, trace.times)
    assert np.allclose(same.sup_norm, trace.sup_norm)
    assert same.probe_radii == trace.probe_radii


def test_scaling_constant_ode_covariance():
    # no x-dependence: u_lam(t) = lam^{2/(p-m)} u(lam^{theta'} t)
    lam = 2.0
    s, tp = 0.8, 1.6  # for N=1, m=0.5, p=3
    cfg = _cfg(P3, t_end=0.4, u_floor=1e-9)
    trace = simulate(constant(0.3, 1), cfg, probes=[1.0])
    scaled = scaling_transform(trace, lam, P3)
    cfg2 = _cfg(P3, t_end=0.4 / lam**tp, u_floor=1e-9)
    direct = simulate(constant(0.3 * lam**s, 1), cfg2, probes=[1.0])
    # compare final sup values at the common final time
    assert scaled.times[-1] == pytest.approx(direct.times[-1], rel=1e-12)
    assert scaled.sup_norm[-1] == pytest.approx(direct.sup_norm[-1], rel=1e-6)


def test_scaling_rejects_bad_lambda():
    cfg = _cfg(P3, t_end=0.1)
    trace = simulate(constant(0.5, 1), cfg, probes=[1.0])
    with pytest.raises(ValueError):
        scaling_transform(trace, 0.0, P3)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GridField(4, 0.1, np.ones(10), 1.0), ValueError, "solver supports radial N in {1, 2, 3}"),
        (lambda: GridField(1, 0.1, np.array([]), 1.0), ValueError, "u must be a nonempty 1-D array"),
        (lambda: GridField(1, 0.1, np.ones((2, 5)), 0.5), ValueError, "u must be a nonempty 1-D array"),
        (lambda: GridField(1, 0.5, np.array([1.0, -1.0]), 1.0), ValueError, "field values must be finite and >= 0"),
        (lambda: GridField(1, 0.5, np.array([1.0, math.nan]), 1.0), ValueError, "field values must be finite and >= 0"),
        (lambda: GridField(1, 0.5, np.ones(2), 1.0).ball_weights(0.5, 0.0), ValueError, "sigma must be > 0"),
        (lambda: GridField(1, 0.5, np.ones(2), 1.0).ball_weights(0.0, [1.0, -1.0]), ValueError, "sigma must be > 0"),
        (lambda: SolverTrace(times=np.array([0.0, 0.0]), sup_norm=np.ones(2), probe_radii=(),
                             ball_mass=np.zeros((2, 0)), status=STATUS_COMPLETED),
         ValueError, "trace times must be strictly increasing"),
        (lambda: project_initial(constant(1.0, 2), SolverConfig(params=P3, t_end=1.0)),
         ValueError, "profile dimension does not match the grid"),
        (lambda: scaling_transform(np.ones(3), 2.0, P3), TypeError, "scaling_transform accepts a GridField or a SolverTrace"),
        # a NaN or negative offset read the centered mass
        (lambda: GridField(2, 0.25, np.ones(8), 2.0).ball_mass_at(math.nan, 0.5), ValueError,
         "d must be finite and >= 0, got nan"),
        (lambda: GridField(2, 0.25, np.ones(8), 2.0).ball_mass_at(-0.3, 0.5), ValueError,
         "d must be finite and >= 0, got -0.3"),
        (lambda: GridField(1, 0.5, np.ones(2), 1.0).ball_weights([0.5, math.inf], 0.5), ValueError,
         "d must be finite and >= 0, got [0.5, inf]"),
        # a NaN lambda returned NaN times and sups, and an infinite one raised naming dr
        (lambda: scaling_transform(SolverTrace(times=np.array([0.0, 1.0]), sup_norm=np.ones(2), probe_radii=(),
                                               ball_mass=np.zeros((2, 0)), status=STATUS_COMPLETED), math.nan, P3),
         ValueError, "lambda must be finite and > 0, got nan"),
        (lambda: scaling_transform(GridField(1, 0.5, np.ones(2), 1.0), math.inf, P3), ValueError,
         "lambda must be finite and > 0, got inf"),
        (lambda: scaling_transform(GridField(1, 0.5, np.ones(2), 1.0), -2.0, P3), ValueError,
         "lambda must be finite and > 0, got -2.0"),
    ],
    ids=["N-4", "u-empty", "u-2d", "u-negative", "u-nan", "sigma-0", "sigma-negative", "times", "profile-N", "type",
         "d-nan", "d-negative", "d-inf", "lambda-nan", "lambda-inf", "lambda-negative"],
)
def test_solver_input_checks_raise_with_their_message(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()
