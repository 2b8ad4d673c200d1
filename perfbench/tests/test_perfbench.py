"""Tests of the benchmark itself (not of fdxlab).

    python3 -m pytest perfbench/tests -q

Most use small inputs.  The runner tests run the benchmark itself on
``converge`` for one or two passes, about 20 seconds in all.
"""

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from fdxlab import cli, gronwall, profiles, solver, special_functions, ulmorrey  # noqa: E402
from fdxlab.exponents import ProblemParams  # noqa: E402


def _bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names --------------------------------------------------------------------


def test_layer_metric_names_match_benchmark_json():
    spec = _bench_spec()
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.LAYER_METRICS)


def test_end_to_end_names_match_benchmark_json():
    spec = _bench_spec()
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_layer_metrics_of_an_empty_trace_cover_every_name():
    with tracer.Tracer() as tr:
        pass
    metrics = tracer.layer_metrics(tr.arrays())
    names = {n for n, _ in tracer.LAYER_METRICS}
    assert set(metrics) == names - {"trace.wall_s", "trace.overhead_s"}


# -- seeded inputs -------------------------------------------------------------------


def test_same_seed_gives_identical_fields(tmp_path):
    a = workloads.build("norms", 7, tmp_path).data
    b = workloads.build("norms", 7, tmp_path).data
    c = workloads.build("norms", 8, tmp_path).data
    for key in ("field1", "field2"):
        assert np.array_equal(a[key].u, b[key].u)
        assert not np.array_equal(a[key].u, c[key].u)
    assert a["oracles"] == b["oracles"]


def test_same_seed_gives_identical_draws(tmp_path):
    def draws(seed, sub):
        wl = workloads.build("gronwall", seed, tmp_path / sub)
        wl.jobs = [workloads._cli_job("gronwall-check", "gronwall-check",
                                      "gronwall.n_draws = 5\ngronwall.n_steps = 100\n", tmp_path / sub, seed)]
        times, outputs, errors = run.run_pass(wl)
        assert not errors
        return workloads.gronwall_draws(outputs)

    assert draws(3, "a") == draws(3, "b")
    assert draws(3, "a") != draws(4, "c")


# -- tracer --------------------------------------------------------------------------


def test_tracer_restores_every_wrapped_attribute():
    before = {}
    for module_name, attr, _ in tracer.TARGETS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            before[(owner, attr)] = owner.__dict__[attr]
        else:
            before[(owner, attr)] = getattr(owner, attr)
    refs = {"ulmorrey.psi_inv": ulmorrey.psi_inv, "fdxlab.simulate": sys.modules["fdxlab"].simulate}
    tr = tracer.Tracer()
    with tr:
        assert ulmorrey.psi_inv is not refs["ulmorrey.psi_inv"]
        assert solver.GridField.__dict__["ball_mass"] is not before[(solver.GridField, "ball_mass")]
    for (owner, attr), original in before.items():
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, attr
    assert ulmorrey.psi_inv is refs["ulmorrey.psi_inv"]
    assert sys.modules["fdxlab"].simulate is refs["fdxlab.simulate"]


def test_tracer_restores_after_an_exception():
    original = special_functions.psi_inv
    with pytest.raises(ValueError):
        with tracer.Tracer():
            special_functions.psi_inv(1.0, -1.0)
    assert special_functions.psi_inv is original


def test_spans_nest_and_self_time_subtracts_children():
    tr = tracer.Tracer()
    field = solver.GridField(N=2, dr=0.5, u=np.ones(4), R_dom=2.0)
    with tr:
        field.ball_mass_at(0.7, 0.4)
    spans = tr.arrays()
    outer = np.flatnonzero(spans.mask("solver.ball_mass_at"))
    caps = np.flatnonzero(spans.mask("profiles.cap_measure"))
    assert len(outer) == 1 and len(caps) > 0
    assert np.all(spans.parent[caps] == outer[0])
    self_t = spans.self_time()
    assert self_t[outer[0]] == pytest.approx(spans.duration[outer[0]] - spans.duration[caps].sum())


def test_steps_and_counts_from_spans():
    params = ProblemParams(N=1, m=0.5, p=3.0)
    cfg = solver.SolverConfig(params=params, t_end=0.05, n_cells=40, r_dom=4.0, u_floor=1e-4)
    tr = tracer.Tracer()
    with tr:
        trace = solver.simulate(profiles.constant(0.5, 1), cfg, probes=[0.5, 1.0])
        gronwall.verify_against_ode(gronwall.GronwallCoeffs(1.0, 0.5, 0.3, 0.5, 1.0), n_steps=100)
    m = tracer.layer_metrics(tr.arrays())
    assert trace.status == solver.STATUS_COMPLETED
    assert m["solver.simulate_calls"] == 1
    assert m["solver.steps"] > 0
    assert m["solver.record_calls"] == 2 * len(trace.times)  # one ball_mass per probe and sample
    assert 0.0 < m["solver.dt_min"] <= m["solver.dt_median"]
    assert m["gronwall.ode_steps"] == 100
    assert m["gronwall.verify_calls"] == m["gronwall.integrate_calls"] == 1


def test_underflow_run_does_not_count_its_last_bound_as_a_step():
    params = ProblemParams(N=1, m=0.5, p=3.0)
    cfg = solver.SolverConfig(params=params, t_end=1.0, n_cells=40, r_dom=4.0, u_floor=1e-4, u_blowup=1e300)
    tr = tracer.Tracer()
    with tr:
        trace = solver.simulate(profiles.constant(5.0, 1), cfg, probes=[1.0])
    assert trace.status == solver.STATUS_DT_UNDERFLOW
    spans = tr.arrays()
    assert tracer.layer_metrics(spans)["solver.steps"] == spans.mask("solver.stable_dt").sum() - 1


# -- checks flag corrupted outputs ---------------------------------------------------


SWEEP_CSV = """\
c,status,t_event,proxy_ratio,proxy_bounded,sup_final
1,dt_underflow,0.1,inf,false,1e7
0.5,completed,,1.0,true,0.2
0.75,dt_underflow,0.5,inf,false,1e7
0.625,completed,,1.2,true,0.9
# status: ok bracket=[0.625,0.75]
"""


def _failed(checks):
    return [c.name for c in checks if not c.ok]


def test_sweep_checks_pass_and_flag_swapped_labels():
    assert _failed(workloads.check_sweep({"threshold": (0, SWEEP_CSV)})) == []
    swapped = SWEEP_CSV.replace("0.625,completed", "0.625,dt_underflow")
    assert "threshold.survivors_completed" in _failed(workloads.check_sweep({"threshold": (0, swapped)}))
    no_status = SWEEP_CSV.rsplit("# status", 1)[0]
    assert _failed(workloads.check_sweep({"threshold": (0, no_status)}))
    inverted = SWEEP_CSV.replace("bracket=[0.625,0.75]", "bracket=[0.75,0.625]")
    assert "threshold.bracket" in _failed(workloads.check_sweep({"threshold": (0, inverted)}))
    assert "threshold.exit_code" in _failed(workloads.check_sweep({"threshold": (1, SWEEP_CSV)}))


def test_converge_checks_flag_a_missed_tolerance_and_a_low_order():
    good = [(200, 8.6e-5), (400, 2.2e-5), (800, 5.4e-6)]
    assert _failed(workloads.check_converge({"ladder": good})) == []
    assert "ladder.tolerance_reached" in _failed(workloads.check_converge({"ladder": good[:2]}))
    slow = [(200, 8.6e-5), (400, 4.0e-5), (800, 5.4e-6)]
    assert "ladder.order" in _failed(workloads.check_converge({"ladder": slow}))


def _norms_outputs(wl):
    times, outputs, errors = run.run_pass(replace(wl, jobs=[j for j in wl.jobs if j.name in FAST_NORM_JOBS]))
    assert not errors
    return outputs


FAST_NORM_JOBS = ("morrey_column_0", "morrey_column_5", "grid_morrey_N2", "grid_orlicz_N1")


@pytest.fixture(scope="module")
def norms_run(tmp_path_factory):
    wl = workloads.build("norms", 11, tmp_path_factory.mktemp("norms"))
    return wl, _norms_outputs(wl)


def test_norms_checks_pass_on_program_outputs(norms_run):
    wl, outputs = norms_run
    assert _failed(wl.check(outputs)) == []


def test_norms_checks_flag_a_perturbed_oracle(norms_run):
    wl, outputs = norms_run
    off = dict(outputs)
    off["morrey_column_0"] = replace(outputs["morrey_column_0"], value=0.5 * (1.0 + 1e-3))
    assert "morrey.oracle_5c" in _failed(wl.check(off))
    off = dict(outputs)
    off["morrey_column_5"] = replace(outputs["morrey_column_5"], value=0.6)
    assert "morrey.off_center_dominated" in _failed(wl.check(off))
    for name in ("grid_morrey_N2", "grid_orlicz_N1"):
        off = dict(outputs)
        off[name] = replace(outputs[name], value=outputs[name].value * 1.01)
        assert f"{name}.oracle" in _failed(wl.check(off))


def test_grid_oracles_match_the_program_on_a_small_scan():
    rng = np.random.default_rng(2)
    f2 = solver.GridField(N=2, dr=0.25, u=rng.uniform(0.0, 1.0, 8), R_dom=2.0)
    s2 = ulmorrey.morrey(q=2.0, alpha=1.0, R=1.0)
    scan2 = ulmorrey.ScanGrid.for_field(f2, s2, radii_per_decade=4)
    assert ulmorrey.norm(f2, s2, scan2).value == pytest.approx(workloads.grid_morrey_oracle(f2, s2, scan2), rel=1e-3)
    f1 = solver.GridField(N=1, dr=0.25, u=rng.uniform(0.0, 1.0, 8), R_dom=2.0)
    s1 = ulmorrey.orlicz_eta(alpha=0.5, R=1.0)
    scan1 = ulmorrey.ScanGrid.for_field(f1, s1, radii_per_decade=4)
    assert ulmorrey.norm(f1, s1, scan1).value == pytest.approx(workloads.grid_orlicz_oracle(f1, s1, scan1), rel=1e-9)


def test_critical_and_defect_checks():
    ok = ulmorrey.SolvabilityVerdict(ulmorrey.Regime.CRITICAL, 0.1, 1.0, True, 1.0)
    assert _failed(workloads.check_norms({"critical_N2": ok}, {})) == []
    bad = replace(ok, met=False)
    assert _failed(workloads.check_norms({"critical_N2": bad}, {})) == ["critical_N2.verdict"]
    finite = replace(ok, condition_value=3.0, met=False)
    checks = workloads.check_norms({workloads.DEFECT_JOB: finite}, {})
    assert _failed(checks) == [f"{workloads.DEFECT_JOB}.infinite"] and not checks[0].known_defect
    fixed = replace(ok, condition_value=math.inf, met=False)
    assert _failed(workloads.check_norms({workloads.DEFECT_JOB: fixed}, {})) == []


def test_gronwall_checks_flag_a_failing_draw():
    csv = "draw,A1,A2,A3,m,max_rel_gap,pass\n" + "".join(
        f"{k},1,1,1,0.5,-1e-16,true\n" for k in range(200)
    ) + "# status: pass worst_rel_gap=-1e-16\n"
    assert _failed(workloads.check_gronwall({"gronwall-check": (0, csv)})) == []
    bad = csv.replace("7,1,1,1,0.5,-1e-16,true", "7,1,1,1,0.5,1e-6,false", 1)
    assert "gronwall-check.all_pass" in _failed(workloads.check_gronwall({"gronwall-check": (0, bad)}))
    short = "\n".join(csv.splitlines()[:50] + [csv.splitlines()[-1]]) + "\n"
    assert "gronwall-check.draw_count" in _failed(workloads.check_gronwall({"gronwall-check": (0, short)}))


def test_a_raising_job_is_a_failed_check(tmp_path):
    wl = workloads.build("converge", 0, tmp_path)

    def boom():
        raise RuntimeError("boom")

    wl = replace(wl, jobs=[workloads.Job("ladder", boom)])
    times, outputs, errors = run.run_pass(wl)
    checks = run.judge(workloads, wl, outputs, errors)
    assert "ladder.raised" in _failed(checks)
    assert not any(c.known_defect for c in checks)


def test_cli_job_is_driven_through_main(tmp_path, monkeypatch):
    calls = []
    real = cli.main
    monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or real(argv))
    job = workloads._cli_job("g", "gronwall-check", "gronwall.n_draws = 2\ngronwall.n_steps = 100\n", tmp_path, 5)
    code, text = job.run()
    assert code == 0 and calls and calls[0][0] == "gronwall-check"
    assert text.rstrip().splitlines()[-1].startswith("# status: pass")


# -- the runner end to end -----------------------------------------------------------


def _run(args, cwd):
    import subprocess

    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key):
    proc = _run(["--workload", "converge", "--seed", "1", "--seconds", "0.01", "--trace", trace], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    want = [(m["name"], m["unit"]) for m in _bench_spec()[key]]
    assert [(n, v["unit"]) for n, v in result["metrics"].items()] == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
