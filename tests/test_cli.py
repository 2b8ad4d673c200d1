import re
from pathlib import Path

import pytest

from fdxlab import cli
from fdxlab.cli import (
    _KEYS,
    SUBCOMMANDS,
    ConfigError,
    fmt,
    main,
    parse_config_text,
    validate_config,
    write_csv,
)
from fdxlab.solver import GridField, SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"

MINIMAL = """
# minimal valid configuration
N = 1
m = 0.5
p = 3.0
profile.kind = power
profile.c = 0.1
profile.a = 0.8
"""


# critical_log data at p = p_m = 2.5, with a verdict, as lines that override MINIMAL's
CRITICAL = "p = 2.5\nprofile.kind = critical_log\nnorm.kind = orlicz_eta\nnorm.r_cap = 1\nnorm.delta = 1\n"


# subcritical constant data with a verdict, as lines that override MINIMAL's
P101 = "p = 1.01\nprofile.kind = constant\nnorm.delta = 1\n"

# critical power data, whose decay and trace fits read norm.T, on a domain that holds the default probe
CRITICAL_FIT = "p = 2.5\nsolver.r_dom = 4\n"

# Barenblatt data, which read profile.cb and profile.t0 but no amplitude profile.c
BARENBLATT = "N = 1\nm = 0.5\np = 3.0\nprofile.kind = barenblatt\nprofile.cb = 1\nprofile.t0 = 1\n"


def _minimal(subcommand: str) -> str:
    """MINIMAL as the subcommand reads it: gronwall-check reads none of it, threshold bisects profile.c."""
    if subcommand == "gronwall-check":
        return ""
    return MINIMAL.replace("profile.c = 0.1\n", "") if subcommand == "threshold" else MINIMAL


def _run(tmp_path, subcommand, config_text, *extra):
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(config_text)
    out = tmp_path / "out"
    return main([subcommand, "--config", str(cfg_file), "--out", str(out), *extra]), out


# -- config parsing ---------------------------------------------------------------------


def test_parse_minimal_config():
    raw = parse_config_text(MINIMAL)
    assert raw["N"] == "1"
    assert raw["profile.kind"] == "power"
    cfg = validate_config("norms", raw, Path("."), seed=0)
    assert cfg.params.N == 1
    assert cfg.profile.kind == "power"


def test_parse_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_text("N = 1\nbogus line\n", source="x.cfg")
    assert "x.cfg:2" in str(err.value)


def test_validation_names_offending_key():
    raw = parse_config_text(MINIMAL.replace("m = 0.5", "m = 1.2"))
    with pytest.raises(ConfigError) as err:
        validate_config("norms", raw, Path("."), seed=0)
    assert any("'m'" in v for v in err.value.violations)


def test_validation_collects_all_violations():
    raw = parse_config_text("N = 1\nm = 1.2\np = 0.5\nprofile.kind = power\nprofile.c = 0.1\nprofile.a = 0.8")
    with pytest.raises(ConfigError) as err:
        validate_config("norms", raw, Path("."), seed=0)
    assert len(err.value.violations) >= 1  # first params failure reported with its key


def test_key_table_is_the_documented_key_set():
    assert set(_KEYS) == {
        "N", "m", "p",
        "profile.kind", "profile.c", "profile.a", "profile.cutoff", "profile.cb", "profile.t0",
        "solver.t_end", "solver.n_cells", "solver.r_dom", "solver.dt_safety", "solver.u_floor",
        "solver.u_blowup", "solver.boundary", "solver.source_on", "solver.out_interval", "probes",
        "norm.kind", "norm.q", "norm.alpha", "norm.beta", "norm.r_cap", "norm.T", "norm.delta",
        "scan.centers", "scan.r_min", "scan.radii_per_decade",
        "threshold.horizon", "threshold.c_start", "threshold.bisect_steps",
        "decay.window_lo", "decay.window_hi", "decay.t_offset",
        "gronwall.n_draws", "gronwall.n_steps", "gronwall.T",
    }


def test_readme_config_block_validates_and_every_key_is_documented():
    text = README.read_text()
    block = re.search(r"```\n(# supercritical.*?)```", text, re.S).group(1)
    cfg = validate_config("norms", parse_config_text(block), Path("."), seed=0)
    assert cfg.profile.kind == "power"
    assert [key for key in _KEYS if f"`{key}`" not in text] == []


@pytest.mark.parametrize("subcommand, t_end", [("simulate", 1.0), ("decay", 1.0), ("threshold", 1.0), ("trace", 2e-3)])
def test_solver_defaults_come_from_the_dataclass(subcommand, t_end):
    # trace's default domain 8 T^theta = 0.16 at T = 2e-3 excludes the default probe 1.0
    text = _minimal(subcommand) + ("probes = 0.1\n" if subcommand == "trace" else "")
    cfg = validate_config(subcommand, parse_config_text(text), Path("."), seed=0)
    assert cfg.solver == SolverConfig(params=cfg.params, t_end=t_end)


def test_threshold_horizon_is_the_run_length():
    raw = parse_config_text(_minimal("threshold") + "threshold.horizon = 0.5\nsolver.n_cells = 50\n")
    cfg = validate_config("threshold", raw, Path("."), seed=0)
    assert (cfg.solver.t_end, cfg.solver.n_cells) == (0.5, 50)
    # threshold never reads solver.t_end, so setting it is an error
    with pytest.raises(ConfigError) as err:
        validate_config("threshold", parse_config_text(_minimal("threshold") + "solver.t_end = 3\n"), Path("."), seed=0)
    assert err.value.violations == ["key 'solver.t_end': not read by subcommand 'threshold'"]


@pytest.mark.parametrize("kind", ["power", "critical_log", "critical_profile"])
def test_profile_cutoff_reaches_every_singular_kind(kind):
    text = MINIMAL.replace("profile.kind = power", f"profile.kind = {kind}")
    if kind != "power":  # only power data read profile.a
        text = text.replace("profile.a = 0.8\n", "")
    raw = parse_config_text(text + "profile.cutoff = 0.5\n")
    assert validate_config("norms", raw, Path("."), seed=0).profile.cutoff == 0.5


@pytest.mark.parametrize("spelling, value", [(s, s in ("1", "true", "yes", "on")) for s in
                                             ("1", "true", "yes", "on", "0", "false", "no", "off")])
def test_bool_keys_take_exactly_eight_spellings(spelling, value):
    for written in (spelling, spelling.upper()):
        raw = parse_config_text(MINIMAL + f"solver.source_on = {written}\n")
        assert validate_config("simulate", raw, Path("."), seed=0).solver.source_on is value


@pytest.mark.parametrize(
    "subcommand, extra, named",
    [
        ("simulate", "solver.ncells = 64", "'solver.ncells': unknown key"),
        ("simulate", "solver.source_on = flase", "'solver.source_on'"),
        ("simulate", "solver.boundary = fixed", "'solver.boundary': boundary must be 'zeroflux' or 'fixedfloor'"),
        ("simulate", "solver.out_interval = 0", "'solver.out_interval': out_interval must be > 0, got 0.0"),
        ("simulate", "solver.t_end = nan", "'solver.t_end': t_end must be finite and > 0, got nan"),
        ("simulate", "solver.u_floor = nan", "'solver.u_floor': u_floor must be >= 0, got nan"),
        ("simulate", "solver.n_cells = 1", "'solver.n_cells': n_cells must be >= 3, got 1"),
        ("simulate", "solver.boundary = fixedfloor\nsolver.u_floor = 0",
         "'solver.u_floor': u_floor must be > 0 under the fixedfloor boundary, got 0.0"),
        ("simulate", "solver.n_cells = 64.0", "'solver.n_cells': expected an integer"),
        ("threshold", "threshold.horizon = inf", "'threshold.horizon': t_end must be finite"),
        ("threshold", "threshold.bisect_steps = 3", "'threshold.bisect_steps': must be >= 4, got 3"),
        ("simulate", "probes = 0.5, x", "'probes': expected comma-separated numbers"),
        ("threshold", "profile.kind = barenblatt", "'profile.kind'"),
        ("norms", "probes = 0.5, x", "'probes'"),
        ("norms", "norm.kind = orlicz", "'norm.kind': unknown kind 'orlicz'"),
        ("gronwall-check", "gronwall.n_steps = 0", "'gronwall.n_steps': must be >= 100, got 0"),
        ("gronwall-check", "gronwall.T = -1", "'gronwall.T': T must be finite and > 0, got -1.0"),
        ("simulate", "solver.r_dom = 2\nprobes = 0.5, 3", "'probes': probe radius 3.0 must lie in (0, R_dom=2.0]"),
        ("norms", "scan.radii_per_decade = 0", "'scan.radii_per_decade': radii_per_decade must be >= 1, got 0"),
        ("threshold", "threshold.c_start = 0", "'threshold.c_start': c_start must be finite and > 0, got 0.0"),
        ("threshold", "threshold.c_start = inf", "'threshold.c_start': c_start must be finite and > 0, got inf"),
        ("threshold", "threshold.c_start = nan", "'threshold.c_start': c_start must be finite and > 0, got nan"),
        ("trace", "", "'probes': probe radius 1.0 must lie in (0, R_dom=0.16452569508766235]"),  # the default probe
        ("norms", "norm.kind = orlicz_eta", "'norm.r_cap': R must be finite for the orlicz_eta norm"),
        ("norms", "norm.kind = orlicz_eta\nnorm.r_cap = inf", "'norm.r_cap': R must be finite"),
        # verdict inputs, checked before the norm CSV is written; NaN fails every check
        ("norms", "norm.delta = 1\nnorm.T = nan", "'norm.T': T must be > 0, got nan"),
        ("norms", "norm.delta = 1\nnorm.T = 0", "'norm.T': T must be > 0, got 0.0"),
        ("norms", "norm.delta = 1\nnorm.T = -2", "'norm.T': T must be > 0, got -2.0"),
        ("norms", "norm.delta = nan", "'norm.delta': delta must be > 0, got nan"),
        ("norms", "norm.delta = 0", "'norm.delta': delta must be > 0, got 0.0"),
        ("norms", "norm.delta = 1\nnorm.beta = 5", "'norm.beta': beta=5.0 outside admissible range"),
        ("norms", "norm.delta = 1\nnorm.alpha = nan", "'norm.alpha': beta=nan outside admissible range"),
        ("norms", "norm.q = nan", "'norm.q': q must be >= 1 for the morrey norm, got nan"),
        ("norms", "norm.alpha = nan", "'norm.alpha': alpha must be >= 1 for the morrey norm, got nan"),
        ("norms", "norm.kind = orlicz_eta\nnorm.r_cap = 1\nnorm.alpha = 0",
         "'norm.alpha': alpha must be > 0 for the orlicz_eta norm, got 0.0"),
        ("norms", "norm.alpha = inf", "'norm.alpha': alpha must be finite, got inf"),
        ("norms", "norm.kind = orlicz_eta\nnorm.r_cap = 1\nnorm.alpha = inf",
         "'norm.alpha': alpha must be finite, got inf"),
        ("norms", CRITICAL + "norm.T = inf", "'norm.T': T = inf is admissible only in the supercritical regime"),
        ("norms", CRITICAL + "norm.beta = 0", "'norm.beta': alpha must be > 0 for the orlicz_eta norm, got 0.0"),
        ("norms", CRITICAL + "norm.beta = nan", "'norm.beta': alpha must be > 0 for the orlicz_eta norm, got nan"),
        ("norms", CRITICAL + "norm.beta = inf", "'norm.beta': alpha must be finite, got inf"),
        ("norms", "scan.r_min = 0",
         "'scan.r_min': r_min must lie in (0, 999999.9990000001) below the radius cap, got 0.0"),
        ("norms", "scan.r_min = 1e9", "'scan.r_min': r_min must lie in (0, 999999.9990000001)"),
        ("norms", "scan.r_min = nan",
         "'scan.r_min': r_min must lie in (0, 999999.9990000001) below the radius cap, got nan"),
        ("norms", "scan.centers = 0, nan", "'scan.centers': centers must be finite, got (0.0, nan)"),
        # the decay window, checked before the simulation runs
        ("decay", "decay.window_lo = 0", "'decay.window_lo': window must satisfy 0 < lo < hi, got (0.0, 1.0)"),
        ("decay", "decay.window_lo = nan", "'decay.window_lo': window must satisfy 0 < lo < hi"),
        ("decay", "decay.window_hi = 0.5", "'decay.window_hi': window must span at least one decade"),
        ("decay", "decay.t_offset = nan", "'decay.t_offset': window must satisfy 0 < lo < hi"),
        ("decay", "decay.t_offset = -2", "'decay.t_offset': window must satisfy 0 < lo < hi, got (-0.1, -1.0)"),
        ("decay", "decay.window_lo = 0.01\ndecay.window_hi = 1\ndecay.t_offset = nan", "t_offset must be finite"),
        # profile inputs, NaN included, each named by its key
        ("norms", "profile.c = nan", "'profile.c': c must be finite and >= 0, got nan"),
        ("simulate", "profile.c = inf", "'profile.c': c must be finite and >= 0, got inf"),
        ("simulate", "profile.kind = critical_profile\nprofile.c = -1", "'profile.c': c must be finite and >= 0"),
        ("simulate", "profile.a = nan", "'profile.a': a must satisfy 0 <= a < N"),
        ("simulate", "profile.cutoff = nan", "'profile.cutoff': cutoff must be finite and > 0, got nan"),
        ("simulate", "profile.kind = barenblatt\nprofile.cb = nan", "'profile.cb': cb must be finite and > 0, got nan"),
        ("simulate", "profile.kind = barenblatt\nprofile.t0 = nan", "'profile.t0': t0 must be finite and > 0, got nan"),
        ("simulate", "profile.kind = barenblatt\nprofile.t0 = 0", "'profile.t0': t0 must be finite and > 0, got 0.0"),
        ("simulate", "profile.kind = powr", "'profile.kind': unknown kind 'powr'"),
        # profile inputs that (N, m, p) rule out, named by the key that rules them out
        ("norms", "N = 4\nprofile.kind = constant", "'N': N must be 1, 2 or 3 for profiles, got 4"),
        ("simulate", "N = 3\nm = 0.3\nprofile.kind = barenblatt",
         "'m': m must be > 1 - 2/N for the Barenblatt profile (kappa = N(m-1) + 2 > 0), got 0.3"),
        ("simulate", "p = 2\nprofile.kind = critical_profile",
         "'profile.kind': kind critical_profile needs p >= p_m: no sharp singular profile in the subcritical regime"),
        # a verdict T whose powers leave the floats (theta = 25.5 at p = 1.01)
        ("norms", P101 + "norm.T = 1e30", "'norm.T': T = 1e+30 gives T^theta = inf"),
        ("norms", P101 + "norm.T = 1e5", "'norm.T': T = 100000.0 gives T^(theta (N - 2/(p-m))) = 0.0"),
        ("norms", P101 + "norm.T = 1e-30", "'norm.T': T = 1e-30 gives T^theta = 0.0"),
        # the decay and trace fits' T, read only for critical data
        *[(sub, CRITICAL_FIT + f"norm.T = {T}", f"'norm.T': T must be finite and > 0, got {float(T)!r}")
          for sub in ("decay", "trace") for T in ("nan", "-1", "0", "inf")],
    ],
)
def test_bad_input_exits_2_before_running_and_names_the_key(tmp_path, capsys, subcommand, extra, named):
    code, out = _run(tmp_path, subcommand, _minimal(subcommand) + extra + "\n")
    assert code == 2
    assert named in capsys.readouterr().err
    assert not out.exists()  # nothing ran, so no CSV was written


def test_a_config_without_profile_kind_exits_2_and_names_it(tmp_path, capsys):
    code, out = _run(tmp_path, "simulate", "N = 1\nm = 0.5\np = 3.0\n")
    assert code == 2
    assert capsys.readouterr().err == "error: key 'profile.kind': required\n"
    assert not out.exists()


def test_a_run_that_fails_exits_1_with_one_error_line(tmp_path, capsys):
    # constant 10 to the power 400 leaves the floats: the norm run stops with a ValueError naming alpha
    config = MINIMAL + "profile.kind = constant\nprofile.c = 10\nnorm.q = 1.25\nnorm.alpha = 400\nnorm.r_cap = 1\n"
    code, _ = _run(tmp_path, "norms", config.replace("profile.a = 0.8\n", ""))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: alpha = 400.0 ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    ["profile.kind = barenblatt\nprofile.cb = 1e-3\nprofile.t0 = 1\n", "N = 2\nprofile.c = 10\nprofile.a = 0.001\n"],
    ids=["barenblatt", "power-N2"],
)
def test_a_quadrature_column_past_the_largest_float_exits_1_with_one_error_line(tmp_path, capsys, data):
    # f^400 leaves the floats on an off-center ball that the G7/K15 quadrature would take
    base = MINIMAL.replace("N = 1\n", "") if data.startswith("N") else "N = 1\nm = 0.5\np = 3.0\n"
    config = base.replace("profile.c = 0.1\nprofile.a = 0.8\n", "") + data
    config += "norm.q = 1.25\nnorm.alpha = 400\nnorm.r_cap = 1\nscan.centers = 0.5\n"
    code, out = _run(tmp_path, "norms", config)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: alpha = 400.0 takes the Morrey gauge") and err.count("\n") == 1
    assert "Traceback" not in err


def test_a_profile_orlicz_column_past_the_largest_float_exits_1_with_one_error_line(tmp_path, capsys):
    # psi_5(1e300) leaves the floats; balls of radius above 0.1 about 0.5 cross the cutoff and need quadrature
    config = "N = 1\nm = 0.5\np = 3.0\nprofile.kind = constant\nprofile.c = 1e300\nprofile.cutoff = 0.6\n"
    config += "norm.kind = orlicz_eta\nnorm.alpha = 5\nnorm.r_cap = 1\nscan.centers = 0.5\nscan.radii_per_decade = 4\n"
    code, out = _run(tmp_path, "norms", config)
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: alpha = 5.0 takes the Orlicz gauge") and err.count("\n") == 1
    assert "Traceback" not in err


def test_an_unresolvable_origin_slice_exits_1_naming_the_ball_radii_and_the_limit(tmp_path, capsys):
    # alpha within 4e-8 of N/2: the rounding bound of the slice tail past w = e^690 exceeds the tolerance on
    # every ball of the scan; the error names the ball radii 1e-3 to 1, not their slices' radii from 5e-4
    config = "N = 1\nm = 0.5\np = 2.5\nprofile.kind = critical_log\nprofile.c = 0.02\nnorm.kind = orlicz_eta\n"
    code, out = _run(tmp_path, "norms", config + "norm.alpha = 0.49999997\nnorm.r_cap = 1\nnorm.delta = 1\n")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: singular_slice_integral: 193 radii missed the G7/K15 tolerance 1e-08 "
                          "(193 over the error bound): [0.001, 0.0010366329284322994, ")
    assert err.endswith(", 0.999999999]\n") and err.count("\n") == 1


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
    assert main(["not-a-subcommand"]) == 2


def test_float_formatting_17_digits():
    assert fmt(0.1) == "0.10000000000000001"
    assert fmt(1.0 / 3.0) == "0.33333333333333331"
    assert fmt(True) == "true"


# -- dispatch ----------------------------------------------------------------------------


def test_exponents_subcommand(tmp_path, capsys):
    code, out = _run(tmp_path, "exponents", "N = 1\nm = 0.5\np = 3.0\n")
    assert code == 0
    text = (out / "exponents.csv").read_text()
    assert text.startswith("quantity,value\n")
    assert text.rstrip().endswith("# status: ok")
    assert "supercritical" in text
    printed = capsys.readouterr().out
    assert "theta = 0.625" in printed
    assert "kappa = 1.5" in printed


def test_invalid_config_exit_code(tmp_path):
    code, _ = _run(tmp_path, "exponents", "N = 1\nm = 1.2\np = 3.0\n")
    assert code == 2


def test_simulate_subcommand_writes_trace(tmp_path):
    config = MINIMAL + "\nsolver.t_end = 0.02\nsolver.n_cells = 64\nsolver.r_dom = 4\nprobes = 0.5, 1.0\n"
    code, out = _run(tmp_path, "simulate", config)
    assert code == 0
    lines = (out / "simulate.csv").read_text().splitlines()
    assert lines[0] == "t,sup_norm,mass_sigma_0,mass_sigma_1"
    assert lines[-1].startswith("# status: completed")


def test_norms_subcommand_value(tmp_path):
    config = MINIMAL + "\nnorm.kind = morrey\nnorm.q = 1.25\nnorm.alpha = 1.0\nscan.radii_per_decade = 8\n"
    code, out = _run(tmp_path, "norms", config)
    assert code == 0
    lines = (out / "norms.csv").read_text().splitlines()
    assert lines[0] == "value,center,radius"
    value = float(lines[1].split(",")[0])
    assert value == pytest.approx(0.5, rel=1e-9)


def test_norms_verdict_of_power_data_diverging_at_the_origin_is_unmet(tmp_path):
    # N/q - a = 0.8 - 0.85 < 0: the ball quantity grows like sigma^-0.05 as sigma -> 0, under every cap R = T^theta
    config = MINIMAL + "profile.c = 0.001\nprofile.a = 0.85\nnorm.q = 1.25\nnorm.alpha = 1.1\nnorm.delta = 1\nnorm.T = 1\n"
    code, out = _run(tmp_path, "norms", config)
    assert code == 0
    assert (out / "norms.csv").read_text().splitlines()[1].startswith("inf,")
    assert (out / "norms-verdict.csv").read_text().splitlines()[1] == "supercritical,inf,1,false,1"


@pytest.mark.parametrize(
    "p, status",
    [
        ("3.0", "# status: ok slope="),  # supercritical: a log-log slope against N - 2/(p-m)
        ("2.0", "# status: ok (no shape fit: trace bound shapes are defined for the critical and supercritical"),
    ],
)
def test_trace_status_reports_the_regimes_shape_fit(tmp_path, p, status):
    config = MINIMAL.replace("p = 3.0", f"p = {p}") + "solver.n_cells = 16\nsolver.r_dom = 4\nprobes = 0.01, 0.1, 1\n"
    code, out = _run(tmp_path, "trace", config)
    assert code == 0
    assert (out / "trace.csv").read_text().splitlines()[-1].startswith(status)


def test_gronwall_check_deterministic(tmp_path):
    cfg = "gronwall.n_draws = 20\ngronwall.n_steps = 300\n"
    code1, out1 = _run(tmp_path / "a", "gronwall-check", cfg, "--seed", "7")
    code2, out2 = _run(tmp_path / "b", "gronwall-check", cfg, "--seed", "7")
    assert code1 == code2 == 0
    b1 = (out1 / "gronwall-check.csv").read_bytes()
    b2 = (out2 / "gronwall-check.csv").read_bytes()
    assert b1 == b2
    assert b"# status: pass" in b1


def test_gronwall_check_rejects_zero_draws(tmp_path, capsys):
    code, out = _run(tmp_path, "gronwall-check", "gronwall.n_draws = 0\n")
    assert code == 2
    assert "'gronwall.n_draws': must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "subcommand, config, ignored",
    [
        ("exponents", "N = 1\nm = 0.5\np = 3.0\n", "profile.kind = power"),
        ("norms", MINIMAL, "probes = 1.0"),
        ("norms", MINIMAL + "norm.kind = orlicz_eta\nnorm.r_cap = 1\n", "norm.q = 1.25"),
        ("norms", MINIMAL, "norm.T = 2"),
        ("norms", MINIMAL, "norm.beta = 1.5"),
        ("norms", MINIMAL.replace("p = 3.0", "p = 2.0") + "norm.delta = 1\n", "norm.beta = 7"),  # subcritical
        ("decay", MINIMAL, "norm.T = 9"),  # supercritical
        # trace's default domain 8 T^theta excludes the default probe 1.0, so its cases set a probe inside it
        ("trace", MINIMAL.replace("p = 3.0", "p = 2.0") + "probes = 0.05\n", "norm.T = 9"),  # subcritical
        ("simulate", MINIMAL, "threshold.horizon = 0.5"),
        ("threshold", _minimal("threshold"), "solver.t_end = 3"),
        ("threshold", _minimal("threshold"), "profile.c = 5"),
        ("decay", MINIMAL, "scan.r_min = 0.01"),
        ("trace", MINIMAL + "probes = 0.05\n", "decay.t_offset = 0.1"),
        ("gronwall-check", "", "N = 1"),
        # each profile kind reads only its own keys
        ("simulate", MINIMAL.replace("kind = power", "kind = constant").replace("profile.a = 0.8\n", ""),
         "profile.a = 0.3"),
        ("simulate", MINIMAL, "profile.cb = 2"),
        ("simulate", MINIMAL, "profile.t0 = 2"),
        ("simulate", BARENBLATT, "profile.c = 0.1"),
        ("norms", MINIMAL.replace("p = 3.0", "p = 2.5").replace("kind = power", "kind = critical_log")
         .replace("profile.a = 0.8\n", ""), "profile.a = 0.3"),
        ("norms", MINIMAL.replace("kind = power", "kind = critical_profile").replace("profile.a = 0.8\n", ""),
         "profile.a = 0.3"),
    ],
)
def test_a_key_the_subcommand_never_reads_exits_2(tmp_path, capsys, subcommand, config, ignored):
    code, out = _run(tmp_path, subcommand, config + ignored + "\n")
    assert code == 2
    key = ignored.split(" = ")[0]
    assert f"key {key!r}: not read by subcommand {subcommand!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand, extra", [("decay", "norm.T = 9"), ("trace", "solver.r_dom = 4\nnorm.T = 9"),
                                               ("norms", "norm.delta = 1\nnorm.beta = 1.1")])
def test_keys_read_only_in_some_regimes_are_accepted_there(subcommand, extra):
    # critical data give norm.T a role in decay and trace; the supercritical verdict reads norm.beta
    p = "3.0" if subcommand == "norms" else "2.5"
    raw = parse_config_text(MINIMAL.replace("p = 3.0", f"p = {p}") + extra + "\n")
    validate_config(subcommand, raw, Path("."), seed=0)


# one tiny run of each subcommand; critical decay and trace data read norm.T
_CRITICAL_RUN = MINIMAL.replace("p = 3.0", "p = 2.5") + "norm.T = 9\nsolver.n_cells = 16\nsolver.r_dom = 4\n"
TINY_RUNS = {
    "exponents": "N = 1\nm = 0.5\np = 3.0\n",
    "norms": MINIMAL + "norm.delta = 1\nnorm.T = 2\nnorm.beta = 1.1\nscan.radii_per_decade = 4\n",
    "simulate": MINIMAL + "solver.t_end = 0.01\nsolver.n_cells = 16\nsolver.r_dom = 4\nprobes = 0.5, 1\n",
    "threshold": _minimal("threshold") + "threshold.horizon = 0.01\nthreshold.bisect_steps = 4\n"
                 "threshold.c_start = 2\nsolver.n_cells = 16\nsolver.r_dom = 4\n",
    "decay": _CRITICAL_RUN + "solver.t_end = 0.01\ndecay.t_offset = 0.001\n",
    "trace": _CRITICAL_RUN + "probes = 0.01, 0.1, 1\n",
    "gronwall-check": "gronwall.n_draws = 1\ngronwall.n_steps = 100\ngronwall.T = 0.5\n",
}


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_a_run_reads_no_key_its_validation_did_not_read(tmp_path, monkeypatch, subcommand):
    validated = []

    def validate(*args):
        cfg = validate_config(*args)
        validated.append((cfg, set(cfg.read)))
        return cfg

    monkeypatch.setattr(cli, "validate_config", validate)
    code, _ = _run(tmp_path, subcommand, TINY_RUNS[subcommand])
    [(cfg, read_by_validation)] = validated
    assert code == 0
    assert cfg.read == read_by_validation


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_a_runner_takes_every_input_from_the_build(tmp_path, monkeypatch, subcommand):
    def get(self, key, default=None):
        raise AssertionError(f"the {subcommand} runner read key {key!r}")

    def validate(*args):
        cfg = validate_config(*args)
        monkeypatch.setattr(cli.RunConfig, "get", get)  # from here on a read fails the run
        return cfg

    monkeypatch.setattr(cli, "validate_config", validate)
    code, out = _run(tmp_path, subcommand, TINY_RUNS[subcommand])
    assert code == 0
    assert any(out.iterdir())


def test_decay_checks_probes_but_records_no_masses(tmp_path, monkeypatch):
    # the fit reads the sample times and sup norms only, so two probe sets give the same CSV
    calls = []
    ball_mass = GridField.ball_mass

    def counted(self, sigma):
        calls.append(sigma)
        return ball_mass(self, sigma)

    monkeypatch.setattr(GridField, "ball_mass", counted)
    csvs = []
    for k, probes in enumerate(("0.05", "0.5, 1.0")):
        code, out = _run(tmp_path / str(k), "decay", TINY_RUNS["decay"] + f"probes = {probes}\n")
        assert code == 0
        csvs.append((out / "decay.csv").read_bytes())
    assert csvs[0] == csvs[1] and calls == []
    code, _ = _run(tmp_path / "simulate", "simulate", TINY_RUNS["simulate"])  # the counter sees a run that records
    assert code == 0 and calls


def test_set_overrides_config(tmp_path):
    code, out = _run(tmp_path, "exponents", "N = 1\nm = 0.5\np = 3.0\n", "--set", "p = 1.2")
    assert code == 0
    assert "subcritical" in (out / "exponents.csv").read_text()


def test_threshold_subcommand(tmp_path):
    config = (
        "N = 1\nm = 0.5\np = 2.0\nprofile.kind = constant\n"
        "threshold.horizon = 1.0\nthreshold.bisect_steps = 4\n"
        "solver.n_cells = 50\nsolver.r_dom = 4\nsolver.u_floor = 1e-6\nsolver.dt_safety = 0.2\n"
    )
    code, out = _run(tmp_path, "threshold", config)
    assert code == 0
    text = (out / "threshold.csv").read_text()
    assert text.splitlines()[0].startswith("c,status,")
    assert "# status: ok bracket=[" in text


def test_write_csv_trailing_status(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b"], [[1.5, 2]], "done")
    assert path.read_text() == "a,b\n1.5,2\n# status: done\n"


@pytest.mark.parametrize(
    "config, message",
    [
        (MINIMAL + " = 1\n", "run.cfg:9: empty key"),
        (MINIMAL.replace("N = 1\n", ""), "key 'N': required for subcommand 'norms'"),
        (None, "cannot read config: "),  # --config names a file that does not exist
    ],
    ids=["empty-key", "missing-N", "missing-file"],
)
def test_config_errors_exit_2_with_their_message(tmp_path, capsys, config, message):
    if config is None:
        code = main(["norms", "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "out")])
    else:
        code, _ = _run(tmp_path, "norms", config)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
