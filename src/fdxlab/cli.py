"""Command-line entry point: flat key=value configs, experiment dispatch, CSV output.

Subcommands: exponents, norms, simulate, threshold, decay, trace, gronwall-check.
Every CSV carries a header row and a trailing '# status: ...' comment line;
floats print with 17 significant digits so identical configs and seeds yield
byte-identical files.

Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import experiments, gronwall, profiles, trace_estimator, ulmorrey
from .exponents import ProblemParams, Regime, check_finite_positive, classify_regime, derive_exponents
from .solver import SolverConfig, check_probes, simulate

SUBCOMMANDS = ("exponents", "norms", "simulate", "threshold", "decay", "trace", "gronwall-check")


def fmt(x) -> str:
    """17-significant-digit float formatting; passthrough for non-floats."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def write_csv(path: Path, header: list, rows: list, status: str) -> None:
    lines = [",".join(str(h) for h in header)]
    lines += [",".join(fmt(v) for v in row) for row in rows]
    lines.append(f"# status: {status}")
    path.write_text("\n".join(lines) + "\n")


class ConfigError(Exception):
    """Carries the full list of validation violations."""

    def __init__(self, violations: list):
        self.violations = violations
        super().__init__("; ".join(violations))


@dataclass
class RunConfig:
    subcommand: str
    values: dict  # the parsed value of every key that is set
    out_dir: Path
    seed: int = 0
    file_stem: Optional[str] = None  # default: the subcommand name
    params: Optional[ProblemParams] = None
    profile: Optional[profiles.RadialProfile] = None
    norm: Optional[ulmorrey.NormSpec] = None
    scan: Optional[ulmorrey.ScanGrid] = None
    solver: Optional[SolverConfig] = None
    args: dict = field(default_factory=dict)  # the runner's other inputs, named as the arguments they feed
    read: set = field(default_factory=set)  # every key get was asked for

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.values.get(key, default)


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat 'key = value' lines; '#' comments; dotted keys for nesting."""
    out = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            errors.append(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
            continue
        key, value = (part.strip() for part in stripped.split("=", 1))
        if not key:
            errors.append(f"{source}:{lineno}: empty key")
            continue
        out[key] = value
    if errors:
        raise ConfigError(errors)
    return out


_BOOLS = {"1": True, "true": True, "yes": True, "on": True, "0": False, "false": False, "no": False, "off": False}


def _bool(value: str) -> bool:
    return _BOOLS[value.lower()]  # a KeyError is a parse failure


def _floats(value: str) -> tuple:
    return tuple(float(s) for s in value.split(",") if s.strip())


_EXPECTED = {float: "a number", int: "an integer", _bool: "/".join(_BOOLS), _floats: "comma-separated numbers"}

# every config key and its parser; solver.* keys are the SolverConfig fields of the same name
_KEYS = {
    "N": int, "m": float, "p": float,
    "profile.kind": str, "profile.c": float, "profile.a": float, "profile.cutoff": float,
    "profile.cb": float, "profile.t0": float,
    "solver.t_end": float, "solver.n_cells": int, "solver.r_dom": float, "solver.dt_safety": float,
    "solver.u_floor": float, "solver.u_blowup": float, "solver.boundary": str, "solver.source_on": _bool,
    "solver.out_interval": float, "probes": _floats,
    "norm.kind": str, "norm.q": float, "norm.alpha": float, "norm.beta": float, "norm.r_cap": float,
    "norm.delta": float, "norm.T": float,
    "scan.centers": _floats, "scan.r_min": float, "scan.radii_per_decade": int,
    "threshold.horizon": float, "threshold.c_start": float, "threshold.bisect_steps": int,
    "decay.window_lo": float, "decay.window_hi": float, "decay.t_offset": float,
    "gronwall.n_draws": int, "gronwall.n_steps": int, "gronwall.T": float,
}
_PROFILE_KINDS = ("constant", "power", "critical_log", "barenblatt", "critical_profile")
_NORM_KINDS = ("morrey", "orlicz_eta")


def validate_config(subcommand: str, raw: dict, out_dir: Path, seed: int) -> RunConfig:
    """Parse raw and build the run, in three stages that each report all their violations.

    Unknown keys and unparsable values come first, then out-of-range values met
    while building the run, then set keys that the build never read: the build
    makes every read the run makes, so a key it skips would have been ignored.
    """
    violations, values = [], {}
    for key in sorted(raw):
        parse = _KEYS.get(key)
        if parse is None:
            violations.append(f"key {key!r}: unknown key")
            continue
        try:
            values[key] = parse(raw[key])
        except (ValueError, KeyError):
            violations.append(f"key {key!r}: expected {_EXPECTED[parse]}, got {raw[key]!r}")
    if violations:
        raise ConfigError(violations)

    cfg = RunConfig(subcommand=subcommand, values=values, out_dir=out_dir, seed=seed)
    # a build that fails may stop short of some reads, so only a whole one can name the unread keys
    violations = _build(cfg) or [
        f"key {k!r}: not read by subcommand {subcommand!r}" for k in values if k not in cfg.read]
    if violations:
        raise ConfigError(violations)
    return cfg


def _checked(violations: list, key, build, *args, **kwargs):
    """build(*args, **kwargs), or None after adding its ValueError to violations as "key '<key>': <message>".

    key is the config key, or a function of the argument name that the
    library's message starts with; either may instead give a list of the keys
    that set that argument together.
    """
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        keys = key(str(exc).partition(" ")[0]) if callable(key) else key
        violations.append(f"key {', '.join(map(repr, [keys] if isinstance(keys, str) else keys))}: {exc}")
        return None


def _at_least(key: str, value: int, low: int) -> list:
    return [f"key {key!r}: must be >= {low}, got {value!r}"] if value < low else []


def _build(cfg: RunConfig) -> list:
    """Build the run's inputs into cfg, reading each key where its value is used; returns the violations."""
    sub = cfg.subcommand
    if sub == "gronwall-check":
        args = cfg.args = dict(n_draws=cfg.get("gronwall.n_draws", 200), n_steps=cfg.get("gronwall.n_steps", 1000),
                               T=cfg.get("gronwall.T", 1.0))
        violations = (_at_least("gronwall.n_draws", args["n_draws"], 1)
                      + _at_least("gronwall.n_steps", args["n_steps"], gronwall.MIN_STEPS))
        _checked(violations, "gronwall.T", check_finite_positive, "T", args["T"])
        return violations
    violations = [f"key {k!r}: required for subcommand {sub!r}" for k in ("N", "m", "p") if cfg.get(k) is None]
    if violations:
        return violations
    cfg.params = _checked(violations, lambda name: name, ProblemParams, N=cfg.get("N"), m=cfg.get("m"), p=cfg.get("p"))
    if violations or sub == "exponents":
        return violations

    if sub == "norms":
        _build_norm(cfg, violations)
    kind = cfg.get("profile.kind")
    if kind not in _PROFILE_KINDS:
        violations.append("key 'profile.kind': " + ("required" if kind is None else f"unknown kind {kind!r}"))
    elif sub == "threshold" and kind == "barenblatt":
        violations.append("key 'profile.kind': barenblatt has no amplitude profile.c to bisect")
    else:
        # profile messages start with the argument they reject: a profile.* field, the kind, N or m
        cfg.profile = _checked(violations, lambda name: name if name in ("N", "m") else "profile." + name,
                               build_profile, cfg)
    if sub != "norms":
        _build_solver(cfg, violations)
    return violations


def _build_norm(cfg: RunConfig, violations: list) -> None:
    """The norm, its scan grid and, given norm.delta, the verdict's (T, delta, beta) of a norms run."""
    kind, alpha, r_cap = cfg.get("norm.kind", "morrey"), cfg.get("norm.alpha", 1.0), cfg.get("norm.r_cap", math.inf)
    if kind not in _NORM_KINDS:
        violations.append(f"key 'norm.kind': unknown kind {kind!r}")
    else:
        build, args = (ulmorrey.morrey, (cfg.get("norm.q", 1.0), alpha, r_cap)) if kind == "morrey" else \
            (ulmorrey.orlicz_eta, (alpha, r_cap))
        # norm.r_cap sets the cap R
        cfg.norm = _checked(violations, lambda name: "norm.r_cap" if name == "R" else "norm." + name, build, *args)
    if cfg.norm is not None:
        cfg.scan = _checked(
            violations, lambda name: "scan." + name, ulmorrey.ScanGrid.build, cfg.norm,
            r_min=cfg.get("scan.r_min", 1e-3),
            centers=cfg.get("scan.centers", (0.0,)),
            radii_per_decade=cfg.get("scan.radii_per_decade", ulmorrey.DEFAULT_RADII_PER_DECADE),
        )
    delta = cfg.get("norm.delta")
    if delta is not None:
        # the subcritical verdict reads no norm.beta
        beta = alpha if classify_regime(cfg.params) is Regime.SUBCRITICAL else cfg.get("norm.beta", alpha)
        cfg.args = dict(T=cfg.get("norm.T", 1.0), delta=delta, beta_or_alpha=beta)
        # delta or T, else the exponent: norm.beta, which defaults to norm.alpha
        exponent = "norm.beta" if "norm.beta" in cfg.values else "norm.alpha"
        _checked(violations, lambda name: {"delta": "norm.delta", "T": "norm.T"}.get(name, exponent),
                 ulmorrey.condition_spec, cfg.params, **cfg.args)


def _build_solver(cfg: RunConfig, violations: list) -> None:
    """The SolverConfig of a solver run, and the probes and subcommand inputs checked against it."""
    sub = cfg.subcommand
    t_key = "threshold.horizon" if sub == "threshold" else "solver.t_end"
    fields = {k[len("solver."):]: cfg.get(k) for k in cfg.values if k.startswith("solver.") and k != "solver.t_end"}
    fields["t_end"] = cfg.get(t_key, 2e-3 if sub == "trace" else 1.0)
    # t_key sets the run length
    cfg.solver = _checked(violations, lambda name: t_key if name == "t_end" else "solver." + name,
                          SolverConfig, params=cfg.params, **fields)
    if cfg.solver is None:
        return
    probes = cfg.get("probes", (1.0,))
    _checked(violations, "probes", check_probes, probes, cfg.solver.domain_radius())
    # threshold and decay read only the sup norms of their runs: they check probes but record no masses
    args = cfg.args = {} if sub in ("threshold", "decay") else dict(probes=probes)
    if sub == "threshold":
        args.update(bisect_steps=cfg.get("threshold.bisect_steps", 8), c_start=cfg.get("threshold.c_start", 1.0))
        violations += _at_least("threshold.bisect_steps", args["bisect_steps"], experiments.MIN_BISECT_STEPS)
        _checked(violations, "threshold.c_start", check_finite_positive, "c_start", args["c_start"])
    if sub == "decay":
        # the window defaults to the last decade of the shifted run
        offset = cfg.get("decay.t_offset", 0.0)
        end = cfg.solver.t_end + offset
        args.update(window=(cfg.get("decay.window_lo", end / 10.0), cfg.get("decay.window_hi", end)), t_offset=offset)
        _checked(violations, [k for k in cfg.values if k.startswith("decay.")], experiments.check_window,
                 args["window"], offset)
    if sub in ("decay", "trace"):
        # the fit's T: only critical data read norm.T, whose default is the run length for trace and none for decay
        default = cfg.solver.t_end if sub == "trace" else None
        T = args["T"] = cfg.get("norm.T", default) if classify_regime(cfg.params) is Regime.CRITICAL else default
        if T is not None:
            _checked(violations, "norm.T", check_finite_positive, "T", T)


def build_profile(cfg: RunConfig) -> profiles.RadialProfile:
    """The initial data named by profile.kind, reading only the keys that kind uses."""
    kind, params, cutoff = cfg.get("profile.kind"), cfg.params, cfg.get("profile.cutoff")
    if kind == "barenblatt":
        return profiles.barenblatt(cfg.get("profile.cb", 1.0), cfg.get("profile.t0", 1.0), params.N, params.m, cutoff)
    # threshold bisects the amplitude from threshold.c_start, so its profile's own c is never run
    c = 1.0 if cfg.subcommand == "threshold" else cfg.get("profile.c", 1.0)
    if kind == "constant":
        return profiles.constant(c, params.N, cutoff)
    if kind == "power":
        return profiles.power_law(c, cfg.get("profile.a", derive_exponents(params).a_ss), params.N, cutoff)
    if kind == "critical_log":
        return profiles.critical_log(c, params.N, cutoff)
    return profiles.critical_profile(params, c, cutoff)


def _out_path(cfg: RunConfig, suffix: str = "") -> Path:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    stem = cfg.file_stem or cfg.subcommand
    return cfg.out_dir / (f"{stem}-{suffix}.csv" if suffix else f"{stem}.csv")


# -- subcommand runners --------------------------------------------------------


def run_exponents(cfg: RunConfig) -> int:
    ex = derive_exponents(cfg.params)
    regime = classify_regime(cfg.params)
    rows = [
        ["p_m", ex.p_m],
        ["theta", ex.theta],
        ["theta_prime", ex.theta_prime],
        ["kappa", ex.kappa],
        ["regime", regime.name.lower()],
    ]
    path = _out_path(cfg)
    write_csv(path, ["quantity", "value"], rows, "ok")
    for name, value in rows:
        print(f"{name} = {fmt(value)}")
    return 0


def run_norms(cfg: RunConfig) -> int:
    result = ulmorrey.norm(cfg.profile, cfg.norm, cfg.scan)
    path = _out_path(cfg)
    write_csv(
        path,
        ["value", "center", "radius"],
        [[result.value, result.arg_center, result.arg_radius]],
        f"ok ({result.grid_resolution})",
    )
    print(f"norm value = {fmt(result.value)} at center {fmt(result.arg_center)}, radius {fmt(result.arg_radius)}")

    if cfg.args:  # norm.delta asks for the verdict
        verdict = ulmorrey.check_condition(cfg.params, cfg.profile, scan=cfg.scan, **cfg.args)
        write_csv(
            _out_path(cfg, "verdict"),
            ["regime", "condition_value", "delta", "met", "T"],
            [[verdict.regime.name.lower(), verdict.condition_value, verdict.delta, verdict.met, verdict.T_used]],
            "ok",
        )
        print(f"condition value = {fmt(verdict.condition_value)}, met = {verdict.met}")
    return 0


def run_simulate(cfg: RunConfig) -> int:
    trace = simulate(cfg.profile, cfg.solver, cfg.args["probes"])
    header, rows = trace.csv_rows()
    status = trace.status if trace.t_event is None else f"{trace.status} t={fmt(trace.t_event)}"
    write_csv(_out_path(cfg), header, rows, status)
    print(f"simulate: status={trace.status}, samples={len(trace.times)}, final sup={fmt(trace.sup_norm[-1])}")
    return 0


def run_threshold(cfg: RunConfig) -> int:
    result = experiments.threshold_sweep(cfg.profile, cfg.solver, **cfg.args)
    rows = [
        [s.c, s.status, "" if s.t_event is None else s.t_event, s.proxy_ratio, s.proxy_bounded, s.sup_final]
        for s in result.history
    ]
    write_csv(
        _out_path(cfg),
        ["c", "status", "t_event", "proxy_ratio", "proxy_bounded", "sup_final"],
        rows,
        f"ok bracket=[{fmt(result.c_low)},{fmt(result.c_high)}]",
    )
    print(f"threshold bracket: [{fmt(result.c_low)}, {fmt(result.c_high)}] after {len(result.history)} runs")
    return 0


def run_decay(cfg: RunConfig) -> int:
    trace = simulate(cfg.profile, cfg.solver, ())
    fit = experiments.decay_fit(trace, cfg.params, cfg.args["window"], cfg.args["t_offset"], cfg.args["T"])
    write_csv(
        _out_path(cfg),
        ["slope", "n_points", "window_lo", "window_hi", "log_corrected_sup"],
        [[fit.slope, fit.n_points, fit.window[0], fit.window[1],
          "" if fit.log_corrected_sup is None else fit.log_corrected_sup]],
        f"ok trace={trace.status}",
    )
    print(f"decay slope = {fmt(fit.slope)} over window [{fmt(fit.window[0])}, {fmt(fit.window[1])}]")
    return 0


def run_trace(cfg: RunConfig) -> int:
    trace = simulate(cfg.profile, cfg.solver, cfg.args["probes"])
    est = trace_estimator.estimate_trace(trace)
    rows = [[s, m, flag] for s, m, flag in zip(est.radii, est.masses, est.converged)]
    status = "ok"
    try:
        fit = trace_estimator.fit_trace_bounds(est, cfg.params, cfg.args["T"])
        if fit.slope is not None:
            status = f"ok slope={fmt(fit.slope)} expected={fmt(fit.expected_slope)}"
        else:
            status = f"ok log_shape_residual={fmt(fit.log_shape_residual)}"
    except ValueError as exc:
        status = f"ok (no shape fit: {exc})"
    write_csv(_out_path(cfg), ["sigma", "nu_hat", "converged"], rows, status)
    print(f"trace estimate over {len(rows)} radii; {status}")
    return 0


def run_gronwall_check(cfg: RunConfig) -> int:
    n_draws, n_steps, T = cfg.args["n_draws"], cfg.args["n_steps"], cfg.args["T"]
    rng = np.random.default_rng(cfg.seed)
    draws = []
    for _ in range(n_draws):
        a1, a2, a3 = rng.uniform(0.0, 2.0, size=3)
        m = float(rng.choice([0.3, 0.5, 0.9]))
        draws.append(gronwall.GronwallCoeffs(A1=float(a1), A2=float(a2), A3=float(a3), m=m, T=T))
    gaps = [r.max_rel_gap for r in gronwall.verify_against_ode(draws, n_steps=n_steps)]
    rows = [[k, c.A1, c.A2, c.A3, c.m, gap, gap <= 1e-8] for k, (c, gap) in enumerate(zip(draws, gaps))]
    worst = max(gaps)
    all_ok = all(bool(r[-1]) for r in rows)
    write_csv(
        _out_path(cfg),
        ["draw", "A1", "A2", "A3", "m", "max_rel_gap", "pass"],
        rows,
        f"{'pass' if all_ok else 'fail'} worst_rel_gap={fmt(worst)}",
    )
    print(f"gronwall-check: {'pass' if all_ok else 'FAIL'} over {n_draws} draws (worst rel gap {fmt(worst)})")
    return 0 if all_ok else 1


_RUNNERS = {
    "exponents": run_exponents,
    "norms": run_norms,
    "simulate": run_simulate,
    "threshold": run_threshold,
    "decay": run_decay,
    "trace": run_trace,
    "gronwall-check": run_gronwall_check,
}


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(prog="fdxlab", description=__doc__)
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    parser.add_argument("--out", type=Path, default=None, help="output directory for CSV artifacts")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override or supply a single config entry")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.out is not None:
        out_dir, stem = args.out, None
    else:
        out_dir, stem = Path("."), f"{args.subcommand}-{int(time.time())}"

    raw = {}
    try:
        if args.config is not None:
            raw.update(parse_config_text(args.config.read_text(), source=str(args.config)))
        for item in args.set:
            raw.update(parse_config_text(item, source="--set"))
        cfg = validate_config(args.subcommand, raw, out_dir, args.seed)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2
    cfg.file_stem = stem

    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
