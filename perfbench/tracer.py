"""Spans around fdxlab's public functions, recorded from outside the package.

``Tracer`` replaces each target function (or method) by a wrapper that
records one span per call: name, start, end and the span that was open when
the call began.  Spans live in memory (parallel lists) and are written to an
``.npz`` file when the benchmark ends.  Module functions are replaced in every
``fdxlab`` module that holds a reference to them, because modules bind names
with ``from .x import f``; ``restore`` puts every original back.

``layer_metrics`` turns one pass of spans into the per-layer metrics.  Self
time is a span's duration minus the durations of its direct children.

Steps are counted from outside: ``simulate`` calls ``stable_dt`` once per
step, plus once more for the bound that ends a run as ``dt_underflow``.
"""

from __future__ import annotations

import functools
import math
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np


def _simulate_info(args, kwargs, result):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return cfg.n_cells, result.status


def _sweep_info(args, kwargs, result):
    return len(result.history), result.bisect_steps


def _norm_info(args, kwargs, result):
    scan = args[2] if len(args) > 2 else kwargs["scan"]
    shape = re.match(r"(\d+) centers x (\d+) radii", result.grid_resolution)
    quantities = int(shape.group(1)) * int(shape.group(2)) if shape else 0
    return len(scan.centers), quantities


def _integrate_info(args, kwargs, result):
    _, g = result
    return (g.shape[0] - 1) * g.shape[1]  # steps x batch


def _write_csv_info(args, kwargs, result):
    path = Path(args[0] if args else kwargs["path"])
    return path.stat().st_size


# (module, attribute, info extractor); layers are the package's modules.
# exponents and trace_estimator are left unmetered: their calls take microseconds.
TARGETS = (
    ("fdxlab.cli", "main", None),
    ("fdxlab.cli", "write_csv", _write_csv_info),
    ("fdxlab.experiments", "threshold_sweep", _sweep_info),
    ("fdxlab.solver", "simulate", _simulate_info),
    ("fdxlab.solver", "project_initial", None),
    ("fdxlab.solver", "stable_dt", lambda a, k, r: r),
    ("fdxlab.solver", "GridField.ball_mass", None),
    ("fdxlab.solver", "GridField.ball_mass_at", None),
    ("fdxlab.profiles", "cell_averages", None),
    ("fdxlab.profiles", "cap_measure", None),
    ("fdxlab.profiles", "radial_ball_integral", None),
    ("fdxlab.profiles", "singular_slice_integral", None),
    ("fdxlab.special_functions", "psi_inv", None),
    ("fdxlab.ulmorrey", "norm", _norm_info),
    ("fdxlab.ulmorrey", "check_condition", None),
    ("fdxlab.gronwall", "verify_against_ode", None),
    ("fdxlab.gronwall", "integrate_comparison_ode", _integrate_info),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.split('.')[-1]}.{attr.split('.')[-1]}"


class Tracer:
    """In-memory span recorder; ``install`` wraps the targets, ``restore`` unwraps."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.infos: list = []
        self._stack: list[int] = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Drop recorded spans (not the installed wrappers)."""
        for buf in (self.name_ids, self.starts, self.ends, self.parents, self.infos):
            buf.clear()

    def _wrap(self, fn: Callable, name: str, info: Optional[Callable]) -> Callable:
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        ids, starts, ends, parents, infos, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self.infos, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = len(starts)
            ids.append(name_id)
            parents.append(stack[-1])
            infos.append(None)
            ends.append(math.nan)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if info is not None:
                infos[k] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        fdx_modules = [m for n, m in sorted(sys.modules.items()) if n == "fdxlab" or n.startswith("fdxlab.")]
        for module_name, attr, info in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(original, span_name(module_name, attr), info))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, span_name(module_name, attr), info)
            for mod in fdx_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def restore(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def arrays(self) -> "Spans":
        return Spans(
            names=list(self.names),
            name_id=np.asarray(self.name_ids, dtype=np.int64),
            start=np.asarray(self.starts, dtype=float),
            end=np.asarray(self.ends, dtype=float),
            parent=np.asarray(self.parents, dtype=np.int64),
            info=list(self.infos),
        )

    def write(self, path: Path) -> None:
        spans = self.arrays()
        np.savez(
            path,
            names=np.asarray(spans.names),
            name_id=spans.name_id,
            start=spans.start,
            end=spans.end,
            parent=spans.parent,
        )


@dataclass
class Spans:
    names: list
    name_id: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray
    info: list

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        dur = self.duration
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return dur - child

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name_id), dtype=bool)
        return self.name_id == self.names.index(name)


# (metric name, unit); the order is the order of BENCHMARK.json's per_layer list
LAYER_METRICS = (
    ("solver.steps", "count"),
    ("solver.simulate_calls", "count"),
    ("solver.step_self_s", "s"),
    ("solver.ns_per_cell_step", "ns"),
    ("solver.stable_dt_s", "s"),
    ("solver.dt_min", "model-time"),
    ("solver.dt_median", "model-time"),
    ("solver.record_calls", "count"),
    ("solver.record_s", "s"),
    ("solver.project_s", "s"),
    ("solver.ball_mass_at_calls", "count"),
    ("solver.ball_mass_at_s", "s"),
    ("profiles.cell_averages_s", "s"),
    ("profiles.cap_measure_calls", "count"),
    ("profiles.radial_ball_integral_calls", "count"),
    ("profiles.radial_ball_integral_s", "s"),
    ("profiles.singular_slice_calls", "count"),
    ("experiments.threshold_sweep_s", "s"),
    ("experiments.runs", "count"),
    ("experiments.bracket_runs_frac", "frac"),
    ("special_functions.psi_inv_calls", "count"),
    ("special_functions.psi_inv_s", "s"),
    ("special_functions.psi_inv_us_p50", "us"),
    ("ulmorrey.norm_calls", "count"),
    ("ulmorrey.norm_s", "s"),
    ("ulmorrey.column_s", "s"),
    ("ulmorrey.quantities", "count"),
    ("ulmorrey.check_condition_s", "s"),
    ("gronwall.verify_calls", "count"),
    ("gronwall.integrate_calls", "count"),
    ("gronwall.integrate_s", "s"),
    ("gronwall.ode_steps", "count"),
    ("gronwall.ns_per_ode_step", "ns"),
    ("cli.main_s", "s"),
    ("cli.self_s", "s"),
    ("cli.write_csv_s", "s"),
    ("cli.csv_bytes", "bytes"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: Spans) -> dict:
    """Per-layer metrics of one traced pass (``trace.*`` are filled in by the runner)."""
    dur, self_t = spans.duration, spans.self_time()
    m = spans.mask
    out = {}

    def total(name: str, t=dur) -> float:
        return float(t[m(name)].sum())

    def infos(name: str) -> list:  # calls that raised have no info
        return [spans.info[i] for i in np.flatnonzero(m(name)) if spans.info[i] is not None]

    # solver: steps and accepted dt bounds, inferred per simulate span from its stable_dt children
    sim_idx = np.flatnonzero(m("solver.simulate"))
    dt_idx = np.flatnonzero(m("solver.stable_dt"))
    dt_parent = spans.parent[dt_idx]
    steps, cell_steps, accepted = 0, 0, []
    for i in sim_idx:
        if spans.info[i] is None:
            continue
        n_cells, status = spans.info[i]
        children = dt_idx[dt_parent == i]
        if status == "dt_underflow":
            children = children[:-1]  # the last bound ended the run; no step was taken
        steps += len(children)
        cell_steps += len(children) * n_cells
        accepted.extend(spans.info[j] for j in children)
    step_self = total("solver.simulate", self_t)
    out["solver.steps"] = steps
    out["solver.simulate_calls"] = len(sim_idx)
    out["solver.step_self_s"] = step_self
    out["solver.ns_per_cell_step"] = _ratio(step_self * 1e9, cell_steps)
    out["solver.stable_dt_s"] = total("solver.stable_dt")
    out["solver.dt_min"] = float(min(accepted)) if accepted else 0.0
    out["solver.dt_median"] = float(np.median(accepted)) if accepted else 0.0
    record = m("solver.ball_mass") & np.isin(spans.parent, sim_idx)
    out["solver.record_calls"] = int(record.sum())
    out["solver.record_s"] = float(dur[record].sum())
    out["solver.project_s"] = total("solver.project_initial")
    out["solver.ball_mass_at_calls"] = int(m("solver.ball_mass_at").sum())
    out["solver.ball_mass_at_s"] = total("solver.ball_mass_at")

    out["profiles.cell_averages_s"] = total("profiles.cell_averages")
    out["profiles.cap_measure_calls"] = int(m("profiles.cap_measure").sum())
    out["profiles.radial_ball_integral_calls"] = int(m("profiles.radial_ball_integral").sum())
    out["profiles.radial_ball_integral_s"] = total("profiles.radial_ball_integral")
    out["profiles.singular_slice_calls"] = int(m("profiles.singular_slice_integral").sum())

    sweeps = infos("experiments.threshold_sweep")
    runs = sum(n for n, _ in sweeps)
    out["experiments.threshold_sweep_s"] = total("experiments.threshold_sweep")
    out["experiments.runs"] = runs
    out["experiments.bracket_runs_frac"] = _ratio(sum(b for _, b in sweeps), runs)

    psi = m("special_functions.psi_inv")
    out["special_functions.psi_inv_calls"] = int(psi.sum())
    out["special_functions.psi_inv_s"] = float(dur[psi].sum())
    out["special_functions.psi_inv_us_p50"] = float(np.median(dur[psi]) * 1e6) if psi.any() else 0.0

    norms = infos("ulmorrey.norm")
    norm_s = total("ulmorrey.norm")
    out["ulmorrey.norm_calls"] = len(norms)
    out["ulmorrey.norm_s"] = norm_s
    out["ulmorrey.column_s"] = _ratio(norm_s, sum(c for c, _ in norms))
    out["ulmorrey.quantities"] = sum(q for _, q in norms)
    out["ulmorrey.check_condition_s"] = total("ulmorrey.check_condition")

    integrate_s = total("gronwall.integrate_comparison_ode")
    ode_steps = sum(infos("gronwall.integrate_comparison_ode"))
    out["gronwall.verify_calls"] = int(m("gronwall.verify_against_ode").sum())
    out["gronwall.integrate_calls"] = int(m("gronwall.integrate_comparison_ode").sum())
    out["gronwall.integrate_s"] = integrate_s
    out["gronwall.ode_steps"] = ode_steps
    out["gronwall.ns_per_ode_step"] = _ratio(integrate_s * 1e9, ode_steps)

    out["cli.main_s"] = total("cli.main")
    out["cli.self_s"] = total("cli.main", self_t)
    out["cli.write_csv_s"] = total("cli.write_csv")
    out["cli.csv_bytes"] = sum(infos("cli.write_csv"))
    out["trace.spans"] = len(spans.name_id)
    return out
