"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

A guard next to criterion 6 checks that its errors are space errors, not
time errors, so that its ratios measure the grid.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines;
quantitative controls use the analytic oracles (exact exponent algebra, the
closed-form self-similar solution, the pure-reaction ODE) and the qualitative
criteria check the dichotomy/shape claims at fixed tolerances.
"""

import math
from functools import lru_cache

import numpy as np
import pytest

import fdxlab as lab
from fdxlab.cli import main as cli_main
from fdxlab.exponents import ProblemParams, check_exponent_invariants
from fdxlab.gronwall import GronwallCoeffs, integrate_comparison_ode, verify_against_ode
from fdxlab.profiles import barenblatt, barenblatt_value, constant, power_law
from fdxlab.solver import (
    STATUS_COMPLETED,
    GridField,
    SolverConfig,
    scaling_transform,
    simulate,
)
from fdxlab.special_functions import GammaFn, eta, psi, psi_inv
from fdxlab.trace_estimator import estimate_trace, fit_trace_bounds
from fdxlab.ulmorrey import ScanGrid, morrey, norm
from fdxlab.experiments import threshold_sweep

P3 = ProblemParams(N=1, m=0.5, p=3.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- 1. exponent algebra ------------------------------------------------------------


def test_criterion_1_exponent_algebra():
    rng = np.random.default_rng(20240601)
    worst = 0.0
    for _ in range(10_000):
        params = ProblemParams(
            N=int(rng.integers(1, 9)),
            m=float(rng.uniform(0.01, 0.99)),
            p=float(rng.uniform(1.0001, 9.0)),
        )
        ex = lab.derive_exponents(params)
        worst = max(worst, abs(ex.theta * ex.theta_prime - 1.0))
        check_exponent_invariants(params)
        assert ex.kappa == params.N * (params.m - 1.0) + 2.0
    report(1, worst <= 1e-12, f"10^4 draws, worst |theta*theta' - 1| = {worst:.2e}")


# -- 2. psi machinery ----------------------------------------------------------------


def test_criterion_2_psi_roundtrip_and_constants():
    rng = np.random.default_rng(7)
    worst_rt = 0.0
    for _ in range(1000):
        alpha = float(rng.uniform(0.0, 3.0))
        x = float(rng.uniform(0.0, 1e6))
        back = psi_inv(alpha, psi(alpha, x))
        worst_rt = max(worst_rt, abs(back - x) / max(1.0, x))
    ok_rt = worst_rt <= 1e-6

    # (4.2): psi^{-1}(xi) vs xi [log(e+xi)]^{-alpha} on (0, 1e8]
    cs_42 = []
    for alpha in (0.5, 1.0, 2.0):
        xs = np.logspace(-8, 8, 300)
        ratios = np.array([psi_inv(alpha, y) / (y * math.log(math.e + y) ** (-alpha)) for y in xs])
        cs_42.append(max(ratios.max(), 1.0 / ratios.min()))
    ok_42 = max(cs_42) <= 10.0

    # (4.3): psi(k xi) / psi(xi) within the analytic envelope [k, k(1+|log k|)^alpha]
    ok_43 = True
    xs = np.logspace(-8, 8, 400)
    for alpha in (0.5, 1.0, 2.0):
        base = psi(alpha, xs)
        for k in (0.1, 2.0, 10.0):
            ratio = psi(alpha, k * xs) / base
            lo = min(k, k / (1.0 + abs(math.log(k))) ** alpha)
            hi = max(k, k * (1.0 + abs(math.log(k))) ** alpha)
            ok_43 &= bool(ratio.min() >= lo * (1 - 1e-12) and ratio.max() <= hi * (1 + 1e-12))

    # (4.4): psi^{-1}(a+b) <= C (psi^{-1}(a) + psi^{-1}(b)), measured C <= 4
    grid = np.concatenate([[0.0], np.logspace(-3, 6, 25)])
    c_44 = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for a in grid:
            for b in grid:
                if a == 0.0 and b == 0.0:
                    continue
                c_44 = max(c_44, psi_inv(alpha, a + b) / (psi_inv(alpha, a) + psi_inv(alpha, b)))
    ok_44 = c_44 <= 4.0

    ok = ok_rt and ok_42 and ok_43 and ok_44
    report(
        2,
        ok,
        f"round trip worst {worst_rt:.2e}; (4.2) C = {max(cs_42):.3f} <= 10; "
        f"(4.3) inside analytic envelope: {ok_43}; (4.4) C = {c_44:.3f} <= 4",
    )


# -- 3. gamma ------------------------------------------------------------------------


def test_criterion_3_gamma_function():
    details = []
    ok = True
    for N, m in ((1, 0.5), (2, 0.5), (2, 0.8)):
        g = GammaFn.build(ProblemParams(N=N, m=m, p=2.0))
        ok &= g(0.0) == 0.0 and g(1.0) == 1.0
        xs = np.logspace(-6, 0, 400)
        vals = g(xs)
        ok &= bool(np.all(np.diff(g(np.linspace(0, 1, 1001))) > 0.0))
        ratio = vals**2 * eta(N, vals) ** (m - 1.0) / xs
        c = max(ratio.max(), 1.0 / ratio.min())
        ok &= bool(np.all(ratio > 0.0)) and c <= 50.0
        details.append(f"(N={N}, m={m}): C = {c:.3f}")
    report(3, ok, "gamma(0)=0, gamma(1)=1 exact; (4.5) " + "; ".join(details))


# -- 4. gronwall dominance ------------------------------------------------------------


def test_criterion_4_gronwall_dominance():
    rng = np.random.default_rng(40)
    A = rng.uniform(0.0, 2.0, size=(3, 1000))
    ms = rng.choice([0.3, 0.5, 0.9], size=1000)
    times, g = integrate_comparison_ode(A[0], A[1], A[2], ms, 1.0, 2000)
    base = np.where(A[0][None, :] == 0.0, 0.0, A[0][None, :] ** (1.0 - ms[None, :]))
    base = base + (1.0 - ms[None, :]) * A[1][None, :] * times[:, None]
    bounds = np.exp(A[2][None, :] * times[:, None]) * base ** (1.0 / (1.0 - ms[None, :]))
    worst = float(((g - bounds) / np.maximum(1.0, bounds)).max())
    ok_dom = worst <= 1e-8

    # closed forms: A2 = 0 (linear) and A3 = 0 (Bernoulli) match integration to 1e-10
    closed = [
        GronwallCoeffs(1.3, 0.0, 0.9, 0.5, 1.0),
        GronwallCoeffs(0.7, 0.0, 1.7, 0.3, 1.0),
        GronwallCoeffs(1.1, 1.4, 0.0, 0.5, 1.0),
        GronwallCoeffs(0.0, 0.8, 0.0, 0.9, 1.0),
    ]
    worst_closed = max(abs(rep.max_gap) for rep in verify_against_ode(closed, n_steps=2000))
    ok_closed = worst_closed <= 1e-10
    report(
        4,
        ok_dom and ok_closed,
        f"10^3 draws worst rel excess {worst:.2e} <= 1e-8; closed-form gap {worst_closed:.2e} <= 1e-10",
    )


# -- 5. morrey norm oracle and doubling ------------------------------------------------


def test_criterion_5_morrey_norm():
    prof = power_law(0.1, 0.8, 1)
    spec = morrey(q=1.25, alpha=1.0, R=math.inf)
    scan = ScanGrid.build(spec, r_min=1e-3, centers=(0.0, 0.05, 0.2, 1.0, 5.0), radii_per_decade=16)
    res = norm(prof, spec, scan)
    ok_value = abs(res.value - 0.5) <= 1e-4 * 0.5
    ok_center = res.arg_center == 0.0 or abs(res.value - 0.5) <= 1e-6  # sup attained at the origin

    # off-center columns individually stay below the centered value
    center_only = ScanGrid.build(spec, r_min=1e-3, centers=(0.0,), radii_per_decade=16)
    v0 = norm(prof, spec, center_only).value
    ok_off = True
    for d in (0.05, 0.2, 1.0, 5.0):
        vd = norm(prof, spec, ScanGrid.build(spec, r_min=1e-3, centers=(d,), radii_per_decade=8)).value
        ok_off &= vd <= v0 * (1.0 + 1e-9)

    rng = np.random.default_rng(55)
    worst_ratio = 0.0
    for _ in range(100):
        u = rng.uniform(0.0, 1.0, size=96) ** 2
        f = GridField(N=1, dr=4.0 / 96, u=u, R_dom=4.0)
        m1 = max(f.ball_mass_at(d, 0.5) for d in f.r[::2])
        m2 = max(f.ball_mass_at(d, 1.0) for d in f.r[::2])
        if m1 > 0:
            worst_ratio = max(worst_ratio, m2 / m1)
    ok_dbl = worst_ratio <= 3.0
    report(
        5,
        ok_value and ok_center and ok_off and ok_dbl,
        f"norm {res.value:.6f} vs 5c = 0.5 (rel {abs(res.value / 0.5 - 1):.1e}); sup at center 0; "
        f"doubling worst C = {worst_ratio:.3f} <= 3",
    )


# -- 6. solver convergence order -------------------------------------------------------


def barenblatt_error(cells: int) -> tuple[float, float]:
    """(max relative error on r <= 2, relative error at the origin cell) of the Barenblatt control at t = 1."""
    cfg = SolverConfig(
        params=P3, t_end=1.0, n_cells=cells, r_dom=16.0, boundary="zeroflux",
        source_on=False, u_floor=1e-8, out_interval=1.0,
    )
    fld = simulate(barenblatt(1.0, 1.0, 1, 0.5), cfg, probes=[1.0]).final_field
    exact = barenblatt_value(fld.r, 2.0, 1, 0.5, 1.0)
    window = fld.r <= 2.0
    scale = 2.0 ** (-2.0 / 3.0)
    return float(np.max(np.abs(fld.u[window] - exact[window])) / scale), float(abs(fld.u[0] - exact[0]) / scale)


@lru_cache(maxsize=1)
def barenblatt_ladder():
    """(errors, finest_origin_rel_error) for dr halvings on the Barenblatt control."""
    errs, origin_errs = zip(*(barenblatt_error(cells) for cells in (200, 400, 800, 1600)))
    return errs, origin_errs[-1]


def test_criterion_6_solver_order():
    errs, origin_err = barenblatt_ladder()
    ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = all(r >= 3.0 for r in ratios) and origin_err <= 1e-3
    report(
        6,
        ok,
        f"errors {['%.2e' % e for e in errs]}, ratios {['%.2f' % r for r in ratios]} (all >= 3); "
        f"finest origin rel error {origin_err:.2e} <= 1e-3",
    )


def test_time_error_stays_below_space_error(monkeypatch):
    # with a 100x tighter step tolerance the error is the space error alone; the
    # shipped tolerance must leave the error within 25% of it, so that criterion 6's
    # ratios measure the grid and not a cancellation of time and space errors
    shipped = barenblatt_ladder()[0][:2]
    monkeypatch.setattr(lab.solver, "ERR_TOL_CELLS2", lab.solver.ERR_TOL_CELLS2 / 100.0)
    for cells, err in zip((200, 400), shipped):
        space = barenblatt_error(cells)[0]
        assert err == pytest.approx(space, rel=0.25), cells


# -- 7. reaction control ----------------------------------------------------------------


def test_criterion_7_reaction_control():
    details = []
    ok = True
    for u0, p, t_b in ((1.0, 2.0, 1.0), (0.5, 3.0, 2.0)):
        params = ProblemParams(N=1, m=0.5, p=p)
        cfg = SolverConfig(
            params=params, t_end=1.5 * t_b, n_cells=100, r_dom=4.0, boundary="zeroflux",
            u_floor=1e-6, dt_safety=0.15,
        )
        trace = simulate(constant(u0, 1), cfg, probes=[1.0])
        got = trace.t_event
        ok &= got is not None and abs(got - t_b) <= 0.05 * t_b
        details.append(f"(u0={u0}, p={p}): t_b = {got:.4f} vs {t_b}")

    cfg2 = SolverConfig(
        params=ProblemParams(N=1, m=0.5, p=2.0), t_end=1.0, n_cells=100, r_dom=4.0,
        boundary="zeroflux", u_floor=1e-6, dt_safety=0.15,
    )
    res = threshold_sweep(constant(1.0, 1), cfg2, 6, probes=[1.0])
    ok_bracket = res.c_low <= 1.0 <= res.c_high
    report(
        7,
        ok and ok_bracket,
        "; ".join(details) + f"; control bracket [{res.c_low:.4f}, {res.c_high:.4f}] contains 1.0",
    )


# -- 8. corollary dichotomy ---------------------------------------------------------------


def test_criterion_8_singular_profile_dichotomy():
    cfg = SolverConfig(
        params=P3, t_end=1.0, n_cells=400, r_dom=8.0, boundary="zeroflux", u_floor=1e-4
    )
    res = threshold_sweep(power_law(1.0, 0.8, 1), cfg, 8, probes=[1.0])
    ok_bracket = 0.0 < res.c_low < res.c_high < math.inf

    survivors = [s for s in res.history if s.c <= res.c_low]
    blowups = [s for s in res.history if s.c >= res.c_high]
    ok_labels = (
        all(s.status == STATUS_COMPLETED for s in survivors)
        and all(s.status != STATUS_COMPLETED for s in blowups)
        and len(survivors) >= 2
        and len(blowups) >= 2
    )
    # survivors obey the decay-shape boundedness proxy (t^{1/(p-1)} sup bounded)
    ok_bounded = all(s.proxy_bounded for s in survivors)
    worst_proxy = max(s.proxy_ratio for s in survivors)
    report(
        8,
        ok_bracket and ok_labels and ok_bounded,
        f"bracket [{res.c_low:.5f}, {res.c_high:.5f}], {len(survivors)} survivors "
        f"(worst decay proxy {worst_proxy:.2f} <= 10), {len(blowups)} blow-ups",
    )


# -- 9. trace consistency -----------------------------------------------------------------


def test_criterion_9_trace_consistency():
    base = dict(
        params=P3, t_end=2e-3, n_cells=400, r_dom=4.0, boundary="zeroflux",
        u_floor=1e-4, out_interval=1.25e-4,
    )
    trace = simulate(constant(0.3, 1), SolverConfig(**base), probes=[0.5, 1.0, 2.0])
    est = estimate_trace(trace)
    worst = max(
        abs(m - 2.0 * s * 0.3) / (2.0 * s * 0.3) for s, m in zip(est.radii, est.masses)
    )
    ok_smooth = worst <= 0.01

    probes = list(np.logspace(math.log10(0.05), math.log10(2.0), 9))
    trace2 = simulate(power_law(0.05, 0.8, 1), SolverConfig(**base), probes=probes)
    fit = fit_trace_bounds(estimate_trace(trace2), P3, T=1.0)
    ok_slope = abs(fit.slope - fit.expected_slope) <= 0.05
    report(
        9,
        ok_smooth and ok_slope,
        f"smooth-data worst mass error {worst:.2%} <= 1%; "
        f"power-profile slope {fit.slope:.4f} vs {fit.expected_slope:.4f} (+/- 0.05)",
    )


# -- 10. scaling covariance -----------------------------------------------------------------


def test_criterion_10_scaling_covariance():
    _, finest_err = barenblatt_ladder()
    tol = 2.0 * finest_err
    s_exp = 2.0 / (P3.p - P3.m)
    theta_prime = lab.derive_exponents(P3).theta_prime
    c0, a = 0.05, 0.5
    base = SolverConfig(
        params=P3, t_end=0.5, n_cells=200, r_dom=8.0, boundary="zeroflux",
        u_floor=1e-8, out_interval=0.5,
    )
    trace_a = simulate(power_law(c0, a, 1), base, probes=[1.0])
    assert trace_a.status == STATUS_COMPLETED

    details = []
    ok = True
    for lam in (2.0, 0.5):
        cfg_b = SolverConfig(
            params=P3, t_end=0.5 / lam**theta_prime, n_cells=200, r_dom=8.0 / lam,
            boundary="zeroflux", u_floor=1e-8, out_interval=0.5 / lam**theta_prime,
        )
        trace_b = simulate(power_law(c0 * lam ** (s_exp - a), a, 1), cfg_b, probes=[1.0])
        scaled_a = scaling_transform(trace_a.final_field, lam, P3)
        diff = float(
            np.max(np.abs(trace_b.final_field.u - scaled_a.u)) / np.max(trace_b.final_field.u)
        )
        ok &= diff <= tol
        details.append(f"lambda={lam}: rel diff {diff:.2e}")
    report(10, ok, "; ".join(details) + f" (tolerance 2 x {finest_err:.2e})")


# -- 11. determinism --------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    cfg_text = "gronwall.n_draws = 50\ngronwall.n_steps = 500\n"
    sim_text = (
        "N = 1\nm = 0.5\np = 3.0\nprofile.kind = power\nprofile.c = 0.05\nprofile.a = 0.8\n"
        "solver.t_end = 0.02\nsolver.n_cells = 64\nsolver.r_dom = 4\nprobes = 0.5, 1.0\n"
    )
    pairs = []
    for name, sub, text in (("gronwall-check", "gronwall-check", cfg_text), ("simulate", "simulate", sim_text)):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{name}-{run}"
            cfg_file = tmp_path / f"{name}-{run}.cfg"
            cfg_file.write_text(text)
            code = cli_main([sub, "--config", str(cfg_file), "--out", str(out), "--seed", "7"])
            assert code == 0
            blobs.append((out / f"{sub}.csv").read_bytes())
        pairs.append(blobs[0] == blobs[1])
    report(11, all(pairs), f"byte-identical CSV re-runs: gronwall-check={pairs[0]}, simulate={pairs[1]}")
