"""Scenario drivers: blow-up threshold bisection, reading every run setting from
one SolverConfig, and decay-rate fits.

Bisection labels follow the trace status: Completed counts as survival to the
horizon; BlewUp, or a dt underflow (the source bound, at most dt_safety times
the peak cell's blow-up time, shrinking below 1e-14 t_end as the sup runs
away), counts as blow-up.  A stiff underflow (the diffusion step controller
shrinking below that floor) is never a blow-up label: it says nothing about
the source.  Each sample also records the boundedness proxy
sup_{last decade} t^{1/(p-1)} sup_norm against 10x its window median; the
proxy flags slow blow-ups just past the horizon but does not flip the
bisection label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exponents import ProblemParams, Regime, check_finite_positive, classify_regime
from .profiles import RadialProfile
from .solver import (
    STATUS_BLEW_UP,
    STATUS_DT_UNDERFLOW,
    SolverConfig,
    SolverTrace,
    simulate,
)

PROXY_FACTOR = 10.0
MAX_SCANS = 40  # runs the bracket scan may take, c_start's included
MIN_BISECT_STEPS = 4  # the fewest halvings threshold_sweep accepts


@dataclass(frozen=True)
class SweepSample:
    c: float
    status: str
    t_event: Optional[float]
    proxy_ratio: float  # sup / median of t^{1/(p-1)} sup_norm over the last decade
    proxy_bounded: bool
    sup_final: float


@dataclass(frozen=True)
class ThresholdResult:
    c_low: float  # largest tested c that survived to the horizon
    c_high: float  # smallest tested c that blew up
    history: tuple  # SweepSample per simulation, in run order
    bisect_steps: int

    def __post_init__(self):
        if not self.c_low < self.c_high:
            raise ValueError("threshold bracket must satisfy c_low < c_high")


def _blew(status: str) -> bool:
    return status in (STATUS_BLEW_UP, STATUS_DT_UNDERFLOW)


def decay_proxy(trace: SolverTrace, params: ProblemParams, horizon: float) -> tuple[float, bool]:
    """Ratio of sup to median of t^{1/(p-1)} sup_norm over [horizon/10, horizon]."""
    t = trace.times
    mask = (t >= horizon / 10.0) & (t > 0.0)
    if mask.sum() < 3:
        return math.inf, False
    q = t[mask] ** (1.0 / (params.p - 1.0)) * trace.sup_norm[mask]
    med = float(np.median(q))
    if med <= 0.0:
        return 0.0, True
    ratio = float(np.max(q) / med)
    return ratio, ratio <= PROXY_FACTOR


def threshold_sweep(
    profile: RadialProfile,
    cfg: SolverConfig,
    bisect_steps: int,
    c_start: float = 1.0,
) -> ThresholdResult:
    """Bisect the profile's amplitude c between a surviving and a blowing-up sample.

    Each run is simulate(replace(profile, c=c), cfg, ()) to the horizon cfg.t_end, so the
    profile's own c is never run and, as a sample reads only the status, t_event and sup norms,
    no ball mass is recorded.  A geometric scan from c_start, halving c while runs blow up and doubling it while they survive (at most MAX_SCANS
    runs), finds the bracket; bisect_steps halvings narrow it to (initial width) * 2^{-bisect_steps}.
    A barenblatt profile has no amplitude and raises ValueError before the first run.
    """
    if bisect_steps < MIN_BISECT_STEPS:
        raise ValueError(f"bisect_steps must be >= {MIN_BISECT_STEPS}")
    check_finite_positive("c_start", c_start)
    if profile.kind == "barenblatt":
        raise ValueError("a barenblatt profile has no amplitude c to bisect")
    history: list[SweepSample] = []

    def blew(c: float) -> bool:
        trace = simulate(replace(profile, c=c), cfg, ())
        ratio, bounded = decay_proxy(trace, cfg.params, cfg.t_end)
        sample = SweepSample(
            c=c,
            status=trace.status,
            t_event=trace.t_event,
            proxy_ratio=ratio,
            proxy_bounded=bounded,
            sup_final=float(trace.sup_norm[-1]),
        )
        history.append(sample)
        return _blew(sample.status)

    first_blew = blew(c_start)
    c = c_start
    for _ in range(MAX_SCANS - 1):
        prev, c = c, c / 2.0 if first_blew else c * 2.0
        if blew(c) != first_blew:
            break
    else:
        raise RuntimeError(
            f"no initial bracket found within {MAX_SCANS} geometric scans from c_start={c_start}"
        )

    lo, hi = (c, prev) if first_blew else (prev, c)
    for _ in range(bisect_steps):
        mid = 0.5 * (lo + hi)
        if blew(mid):
            hi = mid
        else:
            lo = mid

    return ThresholdResult(c_low=lo, c_high=hi, history=tuple(history), bisect_steps=bisect_steps)


def check_window(window: tuple[float, float], t_offset: float) -> None:
    """Reject a fit window that is not 0 < lo < hi over at least one decade, or a non-finite t_offset (NaN fails)."""
    lo, hi = window
    if not 0.0 < lo < hi:
        raise ValueError(f"window must satisfy 0 < lo < hi, got ({lo!r}, {hi!r})")
    if hi / lo < 10.0 * (1.0 - 1e-9):
        raise ValueError(f"window must span at least one decade, got ({lo!r}, {hi!r})")
    if not math.isfinite(t_offset):
        raise ValueError(f"t_offset must be finite, got {t_offset!r}")


@dataclass(frozen=True)
class DecayFit:
    slope: float
    n_points: int
    window: tuple[float, float]
    log_corrected_sup: Optional[float]  # critical regime only


def decay_fit(
    trace: SolverTrace,
    params: ProblemParams,
    window: tuple[float, float],
    t_offset: float = 0.0,
    T: Optional[float] = None,
) -> DecayFit:
    """Least-squares slope of log sup_norm vs log(t + t_offset) over the window.

    The window refers to the shifted times and must span at least one decade.
    In the critical regime (and given T, which must be finite and > 0) the
    log-corrected sup_t t^{1/(p-1)} [log(e + T/t)]^{1/(p-1)} sup_norm is reported as well.
    """
    check_window(window, t_offset)
    if T is not None:
        check_finite_positive("T", T)
    lo, hi = window
    t = trace.times + t_offset
    mask = (t >= lo) & (t <= hi) & (trace.sup_norm > 0.0)
    if mask.sum() < 4:
        raise ValueError("window contains fewer than 4 usable samples")
    x = np.log(t[mask])
    y = np.log(trace.sup_norm[mask])
    slope, _ = np.polyfit(x, y, 1)

    corrected = None
    if T is not None and classify_regime(params) is Regime.CRITICAL:
        pexp = 1.0 / (params.p - 1.0)
        tw = t[mask]
        q = tw**pexp * np.log(math.e + T / tw) ** pexp * trace.sup_norm[mask]
        corrected = float(np.max(q))

    return DecayFit(
        slope=float(slope),
        n_points=int(mask.sum()),
        window=(float(lo), float(hi)),
        log_corrected_sup=corrected,
    )
