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
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import experiments, gronwall, profiles, trace_estimator, ulmorrey
from .exponents import ProblemParams, Regime, classify_regime, derive_exponents
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

    def get(self, key: str, default=None):
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

_SOLVER_RUNS = ("simulate", "threshold", "decay", "trace")
_PROFILE_RUNS = ("norms", *_SOLVER_RUNS)
_PARAMS_RUNS = ("exponents", *_PROFILE_RUNS)
_T_END_RUNS = ("simulate", "decay", "trace")  # threshold runs to threshold.horizon
_FIXED_DATA_RUNS = ("norms", "simulate", "decay", "trace")  # threshold bisects profile.c, rejects barenblatt

# every config key, its parser and the subcommands that read it; solver.* keys
# are the SolverConfig fields of the same name
_KEYS = {
    "N": (int, _PARAMS_RUNS), "m": (float, _PARAMS_RUNS), "p": (float, _PARAMS_RUNS),
    "profile.kind": (str, _PROFILE_RUNS), "profile.c": (float, _FIXED_DATA_RUNS), "profile.a": (float, _PROFILE_RUNS),
    "profile.cutoff": (float, _PROFILE_RUNS),
    "profile.cb": (float, _FIXED_DATA_RUNS), "profile.t0": (float, _FIXED_DATA_RUNS),
    "solver.t_end": (float, _T_END_RUNS), "solver.n_cells": (int, _SOLVER_RUNS), "solver.r_dom": (float, _SOLVER_RUNS),
    "solver.dt_safety": (float, _SOLVER_RUNS), "solver.u_floor": (float, _SOLVER_RUNS),
    "solver.u_blowup": (float, _SOLVER_RUNS), "solver.boundary": (str, _SOLVER_RUNS),
    "solver.source_on": (_bool, _SOLVER_RUNS), "solver.out_interval": (float, _SOLVER_RUNS),
    "probes": (_floats, _SOLVER_RUNS),
    "norm.kind": (str, ("norms",)), "norm.q": (float, ("norms",)), "norm.alpha": (float, ("norms",)),
    "norm.beta": (float, ("norms",)), "norm.r_cap": (float, ("norms",)), "norm.delta": (float, ("norms",)),
    "norm.T": (float, ("norms", "decay", "trace")),
    "scan.centers": (_floats, ("norms",)), "scan.r_min": (float, ("norms",)),
    "scan.radii_per_decade": (int, ("norms",)),
    "threshold.horizon": (float, ("threshold",)), "threshold.c_start": (float, ("threshold",)),
    "threshold.bisect_steps": (int, ("threshold",)),
    "decay.window_lo": (float, ("decay",)), "decay.window_hi": (float, ("decay",)),
    "decay.t_offset": (float, ("decay",)),
    "gronwall.n_draws": (int, ("gronwall-check",)), "gronwall.n_steps": (int, ("gronwall-check",)),
    "gronwall.T": (float, ("gronwall-check",)),
}
_MINIMUM = {"threshold.bisect_steps": 4, "gronwall.n_draws": 1, "gronwall.n_steps": gronwall.MIN_STEPS}  # lower bounds
_PROFILE_KINDS = ("constant", "power", "critical_log", "barenblatt", "critical_profile")
_NORM_KINDS = ("morrey", "orlicz_eta")


def validate_config(subcommand: str, raw: dict, out_dir: Path, seed: int) -> RunConfig:
    """Full validation pass; collects every violation before failing."""
    violations = []
    values = {}
    for key in sorted(raw):
        if key not in _KEYS:
            violations.append(f"key {key!r}: unknown key")
            continue
        parse, readers = _KEYS[key]
        if subcommand not in readers:
            violations.append(f"key {key!r}: not read by subcommand {subcommand!r}")
            continue
        try:
            values[key] = parse(raw[key])
        except (ValueError, KeyError):
            violations.append(f"key {key!r}: expected {_EXPECTED[parse]}, got {raw[key]!r}")
    if subcommand == "norms":  # keys that only one branch of a norms run reads
        unread = {"norm.q": "with norm.kind = orlicz_eta"} if values.get("norm.kind") == "orlicz_eta" else {}
        if "norm.delta" not in values:
            unread.update({"norm.T": "without norm.delta", "norm.beta": "without norm.delta"})
        violations += [f"key {k!r}: not read by subcommand 'norms' {why}" for k, why in unread.items() if k in values]
    if violations:
        raise ConfigError(violations)

    cfg = RunConfig(subcommand=subcommand, values=values, out_dir=out_dir, seed=seed)

    params = None
    if subcommand in _PARAMS_RUNS:
        for key in ("N", "m", "p"):
            if key not in values:
                violations.append(f"key {key!r}: required for subcommand {subcommand!r}")
        if not violations:
            try:
                params = ProblemParams(N=values["N"], m=values["m"], p=values["p"])
            except ValueError as exc:
                key = "m" if "m must" in str(exc) else ("p" if "p must" in str(exc) else "N")
                violations.append(f"key {key!r}: {exc}")
    cfg.params = params
    regime = classify_regime(params) if params is not None else None
    # keys that only some regimes read: the subcritical verdict has no beta, and only
    # critical data give norm.T a role in the decay and trace fits
    if subcommand == "norms" and regime is Regime.SUBCRITICAL and "norm.delta" in values and "norm.beta" in values:
        violations.append("key 'norm.beta': not read by subcommand 'norms' for subcritical data")
    if subcommand in ("decay", "trace") and regime not in (None, Regime.CRITICAL) and "norm.T" in values:
        violations.append(f"key 'norm.T': not read by subcommand {subcommand!r} for {regime.name.lower()} data")

    for key, low in _MINIMUM.items():
        if values.get(key, low) < low:
            violations.append(f"key {key!r}: must be >= {low}, got {values[key]!r}")
    for key, check in (("gronwall.T", gronwall.check_horizon), ("threshold.c_start", experiments.check_c_start)):
        if key in values:
            try:
                check(values[key])
            except ValueError as exc:
                violations.append(f"key {key!r}: {exc}")

    if subcommand == "norms" and values.get("norm.kind", "morrey") not in _NORM_KINDS:
        violations.append(f"key 'norm.kind': unknown kind {values['norm.kind']!r}")
    elif subcommand == "norms":
        try:
            cfg.norm = build_norm(cfg)
        except ValueError as exc:
            # a bad cap is reported under the key that set it
            violations.append(f"key 'norm.r_cap': {exc}" if str(exc).startswith("R must") else f"norm: {exc}")
        else:
            try:
                cfg.scan = ulmorrey.ScanGrid.build(
                    cfg.norm,
                    r_min=cfg.get("scan.r_min", 1e-3),
                    centers=cfg.get("scan.centers", (0.0,)),
                    radii_per_decade=cfg.get("scan.radii_per_decade", ulmorrey.DEFAULT_RADII_PER_DECADE),
                )
            except ValueError as exc:
                name, _, why = str(exc).partition(" ")  # the message starts with the argument's name
                violations.append(f"key 'scan.{name}': {why}")
    if subcommand == "norms" and params is not None and "norm.delta" in values:
        try:
            ulmorrey.condition_spec(params, *_verdict_args(cfg))
        except ValueError as exc:
            # delta, T (or R = T^theta), else the exponent: norm.beta, which defaults to norm.alpha
            exponent = "norm.beta" if "norm.beta" in values else "norm.alpha"
            key = {"delta": "norm.delta", "T": "norm.T", "R": "norm.T"}.get(str(exc).split()[0], exponent)
            violations.append(f"key {key!r}: {exc}")

    if subcommand in _PROFILE_RUNS and params is not None:
        kind = values.get("profile.kind")
        if kind is None:
            violations.append("key 'profile.kind': required")
        elif kind not in _PROFILE_KINDS:
            violations.append(f"key 'profile.kind': unknown kind {kind!r}")
        elif subcommand == "threshold" and kind == "barenblatt":
            violations.append("key 'profile.kind': barenblatt has no amplitude profile.c to bisect")
        else:
            try:
                cfg.profile = build_profile(cfg)
            except ValueError as exc:
                violations.append(f"profile: {exc}")

    if subcommand in _SOLVER_RUNS and params is not None:
        t_key = "threshold.horizon" if subcommand == "threshold" else "solver.t_end"
        fields = {k[len("solver."):]: v for k, v in values.items() if k.startswith("solver.")}
        fields["t_end"] = values.get(t_key, 2e-3 if subcommand == "trace" else 1.0)
        try:
            cfg.solver = SolverConfig(params=params, **fields)
        except ValueError as exc:
            # a bad run length is reported under the key that set it
            where = f"key {t_key!r}" if t_key != "solver.t_end" and str(exc).startswith("t_end") else "solver"
            violations.append(f"{where}: {exc}")
        else:
            try:
                check_probes(_probes(cfg), cfg.solver.domain_radius())
            except ValueError as exc:
                violations.append(f"key 'probes': {exc}")
            if subcommand == "decay":
                offset, lo, hi = _decay_window(cfg)
                try:
                    experiments.check_window((lo, hi), offset)
                except ValueError as exc:
                    keys = ", ".join(repr(k) for k in values if k.startswith("decay."))
                    violations.append(f"key {keys}: {exc}")

    if violations:
        raise ConfigError(violations)
    return cfg


def build_profile(cfg: RunConfig) -> profiles.RadialProfile:
    kind, params = cfg.get("profile.kind"), cfg.params
    c = cfg.get("profile.c", 1.0)
    cutoff = cfg.get("profile.cutoff")
    if kind == "constant":
        return profiles.constant(c, params.N, cutoff)
    if kind == "power":
        return profiles.power_law(c, cfg.get("profile.a", 2.0 / (params.p - params.m)), params.N, cutoff)
    if kind == "critical_log":
        return profiles.critical_log(c, params.N, cutoff)
    if kind == "barenblatt":
        return profiles.barenblatt(cfg.get("profile.cb", 1.0), cfg.get("profile.t0", 1.0), params.N, params.m, cutoff)
    return profiles.critical_profile(params, c, cutoff)


def build_norm(cfg: RunConfig) -> ulmorrey.NormSpec:
    """The norm named by norm.kind, capped at norm.r_cap (default: uncapped)."""
    r_cap = cfg.get("norm.r_cap", math.inf)
    if cfg.get("norm.kind", "morrey") == "morrey":
        return ulmorrey.morrey(cfg.get("norm.q", 1.0), cfg.get("norm.alpha", 1.0), r_cap)
    return ulmorrey.orlicz_eta(cfg.get("norm.alpha", 1.0), r_cap)


def _probes(cfg: RunConfig) -> tuple:
    return cfg.get("probes", (1.0,))


def _verdict_args(cfg: RunConfig) -> tuple:
    """(T, delta, beta_or_alpha) of the norms verdict; beta defaults to norm.alpha."""
    return cfg.get("norm.T", 1.0), cfg.get("norm.delta"), cfg.get("norm.beta", cfg.get("norm.alpha", 1.0))


def _decay_window(cfg: RunConfig) -> tuple:
    """(t_offset, lo, hi) of the decay fit; the window defaults to the last decade of the shifted run."""
    t_end, offset = cfg.solver.t_end, cfg.get("decay.t_offset", 0.0)
    return offset, cfg.get("decay.window_lo", (t_end + offset) / 10.0), cfg.get("decay.window_hi", t_end + offset)


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

    if "norm.delta" in cfg.values:
        verdict = ulmorrey.check_condition(cfg.params, cfg.profile, *_verdict_args(cfg), scan=cfg.scan)
        write_csv(
            _out_path(cfg, "verdict"),
            ["regime", "condition_value", "delta", "met", "T"],
            [[verdict.regime.name.lower(), verdict.condition_value, verdict.delta, verdict.met, verdict.T_used]],
            "ok",
        )
        print(f"condition value = {fmt(verdict.condition_value)}, met = {verdict.met}")
    return 0


def run_simulate(cfg: RunConfig) -> int:
    trace = simulate(cfg.profile, cfg.solver, _probes(cfg))
    header, rows = trace.csv_rows()
    status = trace.status if trace.t_event is None else f"{trace.status} t={fmt(trace.t_event)}"
    write_csv(_out_path(cfg), header, rows, status)
    print(f"simulate: status={trace.status}, samples={len(trace.times)}, final sup={fmt(trace.sup_norm[-1])}")
    return 0


def run_threshold(cfg: RunConfig) -> int:
    result = experiments.threshold_sweep(
        cfg.profile,
        cfg.solver,
        cfg.get("threshold.bisect_steps", 8),
        probes=_probes(cfg),
        c_start=cfg.get("threshold.c_start", 1.0),
    )
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
    trace = simulate(cfg.profile, cfg.solver, _probes(cfg))
    offset, lo, hi = _decay_window(cfg)
    fit = experiments.decay_fit(trace, cfg.params, (lo, hi), t_offset=offset, T=cfg.get("norm.T"))
    write_csv(
        _out_path(cfg),
        ["slope", "n_points", "window_lo", "window_hi", "log_corrected_sup"],
        [[fit.slope, fit.n_points, fit.window[0], fit.window[1],
          "" if fit.log_corrected_sup is None else fit.log_corrected_sup]],
        f"ok trace={trace.status}",
    )
    print(f"decay slope = {fmt(fit.slope)} over window [{fmt(lo)}, {fmt(hi)}]")
    return 0


def run_trace(cfg: RunConfig) -> int:
    trace = simulate(cfg.profile, cfg.solver, _probes(cfg))
    est = trace_estimator.estimate_trace(trace)
    rows = [[s, m, flag] for s, m, flag in zip(est.radii, est.masses, est.converged)]
    status = "ok"
    try:
        fit = trace_estimator.fit_trace_bounds(est, cfg.params, cfg.get("norm.T", cfg.solver.t_end))
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
    n_draws = cfg.get("gronwall.n_draws", 200)
    n_steps = cfg.get("gronwall.n_steps", 1000)
    T = cfg.get("gronwall.T", 1.0)
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

    raw = {}
    try:
        if args.config is not None:
            raw.update(parse_config_text(args.config.read_text(), source=str(args.config)))
        for item in args.set:
            raw.update(parse_config_text(item, source="--set"))
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2

    if args.out is not None:
        out_dir, stem = args.out, None
    else:
        out_dir, stem = Path("."), f"{args.subcommand}-{int(time.time())}"

    try:
        cfg = validate_config(args.subcommand, raw, out_dir, args.seed)
        cfg.file_stem = stem
    except ConfigError as exc:
        for v in exc.violations:
            print(f"error: {v}", file=sys.stderr)
        return 2

    try:
        return _RUNNERS[cfg.subcommand](cfg)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
