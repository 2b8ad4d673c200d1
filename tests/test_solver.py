import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf

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
    _A,
    _C,
    _E,
    _GAMMA,
    _M,
    _Stepper,
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
    dt = stable_dt(field, cfg)
    assert np.allclose(_step(field, cfg, dt), field.u, rtol=0.0, atol=0.0)


def test_step_constant_field_source_exact():
    cfg = _cfg(source_on=True)
    field = project_initial(constant(1.0, 1), cfg)
    c = field.u[0]
    dt = stable_dt(field, cfg)
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


def test_non_finite_state_raises(monkeypatch):
    def poisoned(self, u, h):
        out = u.copy()
        out[3] = np.nan
        return out

    monkeypatch.setattr(_Stepper, "source_flow", poisoned)
    with pytest.raises(RuntimeError, match="non-finite state .* t=0.0"):
        simulate(constant(0.5, 1), _cfg(P3, t_end=0.1), probes=[1.0])


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
    # a valid factorization reported with a zero pivot (info > 0), as LAPACK does for a singular matrix
    def singular(*args, **kw):
        *lu, _ = dgttrf(*args, **kw)
        return (*lu, 2)

    monkeypatch.setattr("fdxlab.solver.dgttrf", singular)
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
    if blows:
        assert traces[0].status in (STATUS_BLEW_UP, STATUS_DT_UNDERFLOW)
        assert 0.25 * (1.0 - 1e-3) <= traces[0].t_event <= 0.25
    else:
        assert traces[0].status == STATUS_COMPLETED


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
