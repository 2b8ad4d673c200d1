"""Initial-trace estimation from solver output and exponent-shape fits.

The trace measure is recovered by extrapolating centered ball masses
m_sigma(t) to t = 0 with the rate-free model

    m_sigma(t) ~ a + b t^g,   g free in [0.3, 2],

fit through the three smallest sample times (the rate g is fit, not assumed,
because no ess-lim rate is available).  A radius is flagged non-convergent
when successive mass differences along the decreasing times fail to contract
by at least 1.5x; such radii are reported, never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .exponents import ProblemParams, Regime, classify_regime, derive_exponents
from .solver import SolverTrace

GAMMA_RANGE = (0.3, 2.0)
CONTRACTION = 1.5
N_SAMPLES = 4  # sample times t, t/2, t/4, t/8 per extrapolation


@dataclass(frozen=True)
class TraceEstimate:
    radii: tuple
    masses: tuple  # extrapolated nu_hat(B(0, sigma_j))
    converged: tuple  # per-radius contraction flags
    sample_times: tuple

    def __post_init__(self):
        if any(m < 0.0 for m in self.masses):
            raise ValueError("extrapolated masses must be >= 0")


def _select_sample_times(times: np.ndarray) -> np.ndarray:
    """Indices of N_SAMPLES ~geometrically spaced sample times t, t/2, t/4, ... (descending)."""
    pos = np.flatnonzero(times > 0.0)
    if len(pos) < N_SAMPLES:
        raise ValueError(f"trace has {len(pos)} positive sample times, fewer than the {N_SAMPLES} the fit needs")
    t_max = times[pos[-1]]
    idx = []
    for k in range(N_SAMPLES):
        target = t_max / 2.0**k
        j = pos[np.argmin(np.abs(times[pos] - target))]
        if idx and j >= idx[-1]:
            j = idx[-1] - 1
            if j < pos[0]:
                raise ValueError("trace times too sparse for geometric subsampling")
        idx.append(int(j))
    return np.asarray(idx)


def _fit_power_offset(ts: np.ndarray, ms: np.ndarray) -> float:
    """Extrapolate a + b t^g through three (t, m) points; returns a clamped at 0."""
    t1, t2, t3 = ts  # ascending
    m1, m2, m3 = ms
    if abs(m2 - m1) < 1e-300:
        return max(m1, 0.0)
    target = (m3 - m1) / (m2 - m1)

    def ratio(g: float) -> float:
        return (t3**g - t1**g) / (t2**g - t1**g)

    lo, hi = GAMMA_RANGE
    r_lo, r_hi = ratio(lo), ratio(hi)
    if not (min(r_lo, r_hi) <= target <= max(r_lo, r_hi)):
        g = lo if abs(target - r_lo) < abs(target - r_hi) else hi
        # least squares in (a, b) at the clamped rate
        X = np.column_stack([np.ones(3), ts**g])
        coef, *_ = np.linalg.lstsq(X, ms, rcond=None)
        return max(float(coef[0]), 0.0)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (ratio(mid) < target) == (r_lo < target):
            lo = mid
        else:
            hi = mid
    g = 0.5 * (lo + hi)
    b = (m2 - m1) / (t2**g - t1**g)
    a = m1 - b * t1**g
    return max(float(a), 0.0)


def estimate_trace(trace: SolverTrace) -> TraceEstimate:
    """Richardson-style extrapolation of centered ball masses to t = 0, at every probe radius.

    Requires N_SAMPLES descending sample times with t_1/t_4 >= 8 (automatic when
    the trace covers a full output range; a geometric subsample is selected).
    The trace records centered masses, so the estimate is for z = 0.
    """
    idx = _select_sample_times(trace.times)
    ts_desc = trace.times[idx]
    if ts_desc[0] / ts_desc[-1] < 8.0 * (1.0 - 1e-9):
        raise ValueError("sample times must span a ratio of at least 8")

    masses, flags = [], []
    for j in range(len(trace.probe_radii)):
        m_desc = trace.ball_mass[idx, j]
        diffs = np.abs(np.diff(m_desc))
        tiny = 1e-12 * max(1.0, float(np.max(m_desc)))
        ok = all(
            diffs[k + 1] <= diffs[k] / CONTRACTION or diffs[k + 1] <= tiny
            for k in range(len(diffs) - 1)
        )
        ts_asc = ts_desc[::-1][:3]
        ms_asc = m_desc[::-1][:3]
        masses.append(_fit_power_offset(np.asarray(ts_asc), np.asarray(ms_asc)))
        flags.append(bool(ok))

    return TraceEstimate(
        radii=tuple(float(s) for s in trace.probe_radii),
        masses=tuple(masses),
        converged=tuple(flags),
        sample_times=tuple(float(t) for t in ts_desc),
    )


@dataclass(frozen=True)
class TraceFitReport:
    slope: Optional[float]  # supercritical: fitted log-log slope
    expected_slope: Optional[float]
    log_shape_residual: Optional[float]  # critical: relative residual of the log-shape fit


def fit_trace_bounds(est: TraceEstimate, params: ProblemParams, T: float) -> TraceFitReport:
    """Fit the regime's expected mass-vs-radius shape to the extrapolated masses.

    supercritical: least-squares slope of log nu_hat vs log sigma, to compare
    against N - 2/(p-m).  critical: one-parameter fit of C [log(e + T^theta/sigma)]^{-N/2}
    and its relative residual.  T must be finite and > 0.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be finite and > 0, got {T!r}")
    regime = classify_regime(params)
    if regime is Regime.SUBCRITICAL:
        raise ValueError("trace bound shapes are defined for the critical and supercritical regimes")
    radii = np.asarray(est.radii)
    masses = np.asarray(est.masses)
    keep = masses > 0.0
    if keep.sum() < 3:
        raise ValueError("need at least 3 positive extrapolated masses")
    radii, masses = radii[keep], masses[keep]
    if radii.max() / radii.min() < 10**1.5 * (1.0 - 1e-9):
        raise ValueError("radius range must span at least 1.5 decades")

    if regime is Regime.SUPERCRITICAL:
        x = np.log(radii)
        y = np.log(masses)
        slope, _ = np.polyfit(x, y, 1)
        expected = params.N - derive_exponents(params).a_ss
        return TraceFitReport(slope=float(slope), expected_slope=float(expected), log_shape_residual=None)

    theta = derive_exponents(params).theta
    shape = np.log(math.e + T**theta / radii) ** (-params.N / 2.0)
    C = float(np.dot(masses, shape) / np.dot(shape, shape))
    resid = float(np.linalg.norm(masses - C * shape) / np.linalg.norm(masses))
    return TraceFitReport(slope=None, expected_slope=None, log_shape_residual=resid)
