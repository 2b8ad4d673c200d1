"""Radial finite-volume solver for u_t = Laplace(u^m) + u^p with blow-up detection.

The scheme is conservative in the radial variable: with v = u^m, the flux
through the face at radius r is r^{N-1} (v_right - v_left)/dr, cell volumes
are exact ((r_+^N - r_-^N)/N per unit solid angle), and the origin face has
zero area by symmetry.  Call the resulting flux divergence A v.

One time step is the Strang split S(dt/2) D(dt) S(dt/2):

- S(h) is the exact flow of u' = u^p per cell,
  u <- (u^{1-p} - (p-1) h)^{1/(1-p)}, stopped at u_blowup;
- D(h) is one step of ROS34PW2 (Rang & Angermann, BIT 45, 2005), a
  stiffly accurate, L-stable third-order Rosenbrock method with an embedded
  second-order solution, for u' = A(u^m) with the exact Jacobian
  J = A diag(m u^{m-1}).  It runs in the transformed form (Hairer & Wanner,
  Solving ODEs II, IV.7), which needs no J v products: one tridiagonal
  I - gamma dt J per step, factored once with LAPACK gttrf, serves the four
  stages and the error filter as five gttrs solves.  Every stage is in flux
  form, so zero-flux runs conserve mass to rounding.

Diffusion is linearly implicit and L-stable, so the singular diffusivity
m u^{m-1} sets no step bound.  The step is

    dt = min( dt_safety min(1/2, 1/(p-1)) / max_i u_i^{p-1},  controller step,  t_end - t ),

where the source bound is at most dt_safety times the peak cell's blow-up
time u^{1-p}/(p-1), and the controller keeps the filtered embedded error
of D, max |est| / (w + 1e-8 max w), below ERR_TOL_CELLS2 / n_cells^2,
small enough that the time error stays below the space error.  Under
"fixedfloor" the stages are clamped at u_floor; under "zeroflux" a stage
that leaves positivity rejects the step.  Output times only say where
samples are taken: a sample inside a step is its cubic Hermite dense
output (Hairer, Norsett & Wanner, Solving ODEs I, II.6).

Initial data are projected by exact cell averages of the profile, then
regularized as min(., n) + 1/n with n = 1/u_floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs

from .exponents import ProblemParams, derive_exponents
from .profiles import BALL_VOLUME, SPHERE_AREA, RadialProfile, cell_averages, lens_volume

STATUS_COMPLETED = "completed"
STATUS_BLEW_UP = "blew_up"
STATUS_DT_UNDERFLOW = "dt_underflow"
STATUS_STIFF_UNDERFLOW = "stiff_underflow"

_DT_UNDERFLOW_FRACTION = 1e-14
# the step controller's tolerance is ERR_TOL_CELLS2 / n_cells^2; at 2.56 criterion 6's Barenblatt errors
# stay within 25% of the space error alone (at 25.6 time and space errors cancel instead)
ERR_TOL_CELLS2 = 2.56
_FAC_MIN, _FAC_MAX = 0.2, 5.0  # bounds on the controller's step-size ratio

# ROS34PW2 (Rang & Angermann, BIT 45, 2005) in the transformed form (Hairer & Wanner, Solving ODEs II,
# IV.7): the stages z_i solve (I - gamma h J) z_i = f(u + h sum_j A_ij z_j) + sum_j C_ij z_j over j < i,
# the step is u + h sum_i M_i z_i and its embedded error h sum_i E_i z_i.  In the published stages k_i,
# z_i = sum_{j<=i} Gamma_ij k_j / (gamma h); tests/test_solver.py checks these coefficients against the
# published tableau.
_GAMMA = 0.43586652150845900
_A = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [0.871733043016918, 0.0, 0.0, 0.0],
    [0.6185893154240105, -0.11299064236484185, 0.0, 0.0],
    [1.8239969947745138, -0.12430565256672008, 1.0, 0.0],
])
_C = np.array([
    [0.0, 0.0, 0.0, 0.0],
    [-2.0, 0.0, 0.0, 0.0],
    [-1.8239969947745138, 0.12430565256672008, 0.0, 0.0],
    [-2.775676116302468, -2.961983662554789, 1.2509798950560604, 0.0],
])
_M = np.array([1.8239969947745134, -0.12430565256672005, 0.9999999999999999, 0.435866521508459])
_E = np.array([0.12106190353047645, -0.6116252919522573, 0.7726301276675509, 0.2179332607542295])  # M - M_hat


@dataclass
class GridField:
    """Nonnegative radial field on uniform cells; r holds the cell centers, and R_dom = dr * len(u) the outer edge.

    The geometry (N, dr, R_dom and the cell count) is fixed once built, while
    u may change in place: ball_mass keeps one centered weight row per radius.
    """

    N: int
    dr: float
    u: np.ndarray
    R_dom: float
    _centered_rows: dict[float, np.ndarray] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.N not in (1, 2, 3):
            raise ValueError("solver supports radial N in {1, 2, 3}")
        if self.dr <= 0.0:
            raise ValueError("dr must be > 0")
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1 or len(self.u) == 0:
            raise ValueError("u must be a nonempty 1-D array")
        if not np.all(np.isfinite(self.u)) or np.any(self.u < 0.0):
            raise ValueError("field values must be finite and >= 0")
        if not math.isclose(self.R_dom, self.dr * len(self.u), rel_tol=1e-12):
            raise ValueError(f"R_dom={self.R_dom!r} must equal dr * len(u) = {self.dr * len(self.u)!r}")

    @property
    def r(self) -> np.ndarray:
        return (np.arange(len(self.u)) + 0.5) * self.dr

    @property
    def edges(self) -> np.ndarray:
        return np.arange(len(self.u) + 1) * self.dr

    @property
    def volumes(self) -> np.ndarray:
        """Cell volumes per unit solid angle: (r_+^N - r_-^N)/N."""
        e = self.edges
        return (e[1:] ** self.N - e[:-1] ** self.N) / self.N

    def total_mass(self) -> float:
        return SPHERE_AREA[self.N] * float(np.dot(self.u, self.volumes))

    def ball_weights(self, d, sigma) -> np.ndarray:
        """Measure of each cell's shell inside B(z, sigma), |z| = d, in closed form for every N.

        The overlap |B(0, e) intersected with B(z, sigma)| at the cell edges e is
        BALL_VOLUME[N] min(e, sigma)^N where one ball holds the other, 0 where
        they are apart, and profiles.lens_volume in between, in one array call
        over the lens edges of every ball (none when d = 0); the weights are
        its differences, so nothing beyond the last edge is counted.  d is one
        offset or a 1-D array of them and sigma one radius or a 1-D array of
        them; the weights have shape d.shape + sigma.shape + (cells,), so a
        grid norm scan gets a block of centers x radii x cells in one call.
        """
        d = np.asarray(d, dtype=float)
        s = np.asarray(sigma, dtype=float)
        if not (s > 0.0).all():
            raise ValueError("sigma must be > 0")
        e = self.edges
        s = s[..., None]
        vol = BALL_VOLUME[self.N] * np.minimum(e, s) ** self.N
        if d.any():
            d = d.reshape(d.shape + (1,) * s.ndim)  # centers on the leading axis
            vol = np.where(e <= d - s, 0.0, vol)
            lens = (e > np.abs(s - d)) & (e < s + d)
            if lens.any():
                r, rs, ds = np.broadcast_arrays(e, s, d)
                vol[lens] = lens_volume(self.N, r[lens], ds[lens], rs[lens])
        elif d.ndim:  # centered rows skip the lens path, which is empty for them
            vol = np.broadcast_to(vol, d.shape + vol.shape)
        return np.diff(vol, axis=-1)

    def ball_mass(self, sigma: float) -> float:
        """Exact mass of B(0, sigma) for the piecewise-constant field, equal to ball_mass_at(0.0, sigma).

        The weight row of each radius is built on first use and kept, since
        the geometry is fixed; u is read at every call, so it may change in place.
        """
        row = self._centered_rows.get(sigma)
        if row is None:
            row = self._centered_rows[sigma] = self.ball_weights(0.0, sigma)
        return float(np.dot(self.u, row))

    def ball_mass_at(self, d: float, sigma: float) -> float:
        """Mass of B(z, sigma) for |z| = d and the piecewise-constant field (see ball_weights)."""
        return float(np.dot(self.u, self.ball_weights(d, sigma)))


@dataclass(frozen=True)
class SolverConfig:
    params: ProblemParams
    t_end: float
    dt_safety: float = 0.9
    u_blowup: float = 1e8
    u_floor: float = 1e-4  # regularization floor 1/n; 0 disables cap and shift
    boundary: str = "zeroflux"  # "zeroflux" | "fixedfloor"
    source_on: bool = True
    n_cells: int = 400
    r_dom: Optional[float] = None  # default 8 * t_end^theta
    out_interval: Optional[float] = None  # default t_end / 200

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0.0 < self.t_end < math.inf:
            raise ValueError(f"t_end must be finite and > 0, got {self.t_end!r}")
        if not 0.0 < self.dt_safety < 1.0:
            raise ValueError(f"dt_safety must lie in (0, 1), got {self.dt_safety!r}")
        if not self.u_blowup > 1.0:
            raise ValueError(f"u_blowup must be > 1, got {self.u_blowup!r}")
        if not self.u_floor >= 0.0:
            raise ValueError(f"u_floor must be >= 0, got {self.u_floor!r}")
        if not self.n_cells >= 3:  # scipy's dgttrf wrapper rejects a 2 x 2 system
            raise ValueError(f"n_cells must be >= 3, got {self.n_cells!r}")
        if self.r_dom is not None and not 0.0 < self.r_dom < math.inf:
            raise ValueError(f"r_dom must be finite and > 0, got {self.r_dom!r}")
        if self.out_interval is not None and not self.out_interval > 0.0:
            raise ValueError(f"out_interval must be > 0, got {self.out_interval!r}")
        if self.boundary not in ("zeroflux", "fixedfloor"):
            raise ValueError(f"boundary must be 'zeroflux' or 'fixedfloor', got {self.boundary!r}")
        if self.boundary == "fixedfloor" and self.u_floor <= 0.0:
            raise ValueError(f"u_floor must be > 0 under the fixedfloor boundary, got {self.u_floor!r}")

    def domain_radius(self) -> float:
        if self.r_dom is not None:
            return self.r_dom
        theta = derive_exponents(self.params).theta
        return 8.0 * self.t_end**theta

    def output_interval(self) -> float:
        return self.out_interval if self.out_interval is not None else self.t_end / 200.0


@dataclass
class SolverTrace:
    """Time series of sup norms, centered ball masses, and termination status."""

    times: np.ndarray
    sup_norm: np.ndarray
    probe_radii: tuple
    ball_mass: np.ndarray  # shape (n_times, n_probes)
    status: str
    t_event: Optional[float] = None
    final_field: Optional[GridField] = None

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0.0):
            raise ValueError("trace times must be strictly increasing")

    def csv_rows(self):
        header = ["t", "sup_norm"] + [f"mass_sigma_{j}" for j in range(len(self.probe_radii))]
        rows = [[self.times[k], self.sup_norm[k], *self.ball_mass[k]] for k in range(len(self.times))]
        return header, rows


def project_initial(profile: RadialProfile, cfg: SolverConfig) -> GridField:
    """Exact cell averages of the profile, then the cap-and-floor min(., n) + 1/n with n = 1/u_floor (u_floor > 0)."""
    N, R_dom = cfg.params.N, cfg.domain_radius()
    if profile.N != N:
        raise ValueError("profile dimension does not match the grid")
    dr = R_dom / cfg.n_cells
    u = cell_averages(profile, np.arange(cfg.n_cells + 1) * dr)
    if cfg.u_floor > 0.0:
        n = 1.0 / cfg.u_floor
        u = np.minimum(u, n) + 1.0 / n
    return GridField(N, dr, u, R_dom)


def stable_dt(field: GridField, cfg: SolverConfig) -> float:
    """The source bound dt_safety min(1/2, 1/(p-1)) / max u^{p-1}.

    For p > 3 this is dt_safety times the peak cell's blow-up time
    u^{1-p}/(p-1), so no step runs past it.  Diffusion is linearly implicit
    and sets no stability bound, so with the source off this is t_end.
    """
    if not cfg.source_on:
        return cfg.t_end
    u_max, p = float(field.u.max()), cfg.params.p
    return cfg.dt_safety * min(0.5, 1.0 / (p - 1.0)) * u_max ** (1.0 - p) if u_max > 0.0 else math.inf


class _Stepper:
    """The face-flux operator of one run and its Strang step S(dt/2) D(dt) S(dt/2)."""

    def __init__(self, field: GridField, cfg: SolverConfig):
        areas = field.edges ** (field.N - 1)
        areas[0] = 0.0  # symmetry at the origin, also forces N=1 inner face off
        scale = 1.0 / (field.dr * field.volumes)
        self.coef_r = areas[1:] * scale  # multiplies flux through the outer face of cell i
        self.coef_l = areas[:-1] * scale
        self.cfg = cfg
        self.m, self.p = cfg.params.m, cfg.params.p
        self.floor = cfg.u_floor if cfg.boundary == "fixedfloor" else None
        if self.floor is None:
            self.coef_r[-1] = 0.0  # zero flux through the domain boundary
        self.coef_c = self.coef_r + self.coef_l  # the diagonal of -A
        self.ghost_v = cfg.u_floor**self.m if self.floor is not None else 0.0
        self.g = np.empty(len(field.u))  # face differences, rewritten by every div
        self.flow_cap = cfg.u_blowup ** (1.0 - self.p)

    def div(self, v: np.ndarray) -> np.ndarray:
        """A v: the conservative flux divergence of v = u^m (fixed-floor ghost outside)."""
        g = self.g  # v_{i+1} - v_i at the outer face of cell i
        np.subtract(v[1:], v[:-1], out=g[:-1])
        g[-1] = self.ghost_v - v[-1]
        out = self.coef_r * g
        out[1:] -= self.coef_l[1:] * g[:-1]
        return out

    def rhs(self, u: np.ndarray) -> np.ndarray:
        """f(u) = A(u^m) + u^p (no u^p with the source off), the slope of the samples' Hermite interpolant."""
        f = self.div(u**self.m)
        if self.cfg.source_on:
            f += u**self.p
        return f

    def source_flow(self, u: np.ndarray, h: float) -> np.ndarray:
        """Exact flow of u' = u^p over time h per cell, stopped at u_blowup."""
        p = self.p
        g = u ** (p - 1.0)
        reach = g * self.flow_cap  # the flow hits u_blowup within h where s <= reach
        s = np.maximum(1.0 - (p - 1.0) * h * g, reach)
        return np.where(s > reach, u * s ** (1.0 / (1.0 - p)), self.cfg.u_blowup)

    def _admissible(self, u: np.ndarray) -> Optional[np.ndarray]:
        """Clamp a stage at the floor (fixedfloor); None if a cell is not positive (zeroflux)."""
        if self.floor is not None:
            return np.maximum(u, self.floor, out=u)
        return None if u.min() <= 0.0 else u

    def diffuse(self, u: np.ndarray, h: float) -> tuple[Optional[np.ndarray], float]:
        """One ROS34PW2 step for u' = A(u^m) with J = A diag(m u^{m-1}).

        Returns the new state and the error norm max |est| / (w + 1e-8 max w)
        of the filtered embedded estimate est = (I - gamma h J)^{-1} h sum_i E_i z_i,
        the difference of the third- and second-order solutions; the state is
        None and the norm inf when a stage leaves positivity.
        """
        if u.min() <= 0.0:  # the diffusivity m u^{m-1} is unbounded
            return None, math.inf
        m, gh = self.m, _GAMMA * h
        v = u**m
        d = m * v / u
        *lu, info = dgttrf(-gh * self.coef_l[1:] * d[:-1], 1.0 + gh * self.coef_c * d, -gh * self.coef_r[:-1] * d[1:],
                           overwrite_dl=True, overwrite_d=True, overwrite_du=True)
        if info != 0:
            raise LinAlgError(f"I - gamma h J is singular (dgttrf info={info})")

        def solve(b):
            return dgttrs(*lu, b, overwrite_b=True)[0]

        z = np.empty((4, len(u)))  # the transformed stages, one per row
        z[0] = solve(self.div(v))
        for i in range(1, 4):
            stage = self._admissible(u + (h * _A[i, :i]) @ z[:i])
            if stage is None:
                return None, math.inf
            z[i] = solve(self.div(stage**m) + _C[i, :i] @ z[:i])
        new = self._admissible(u + (h * _M) @ z)
        if new is None:
            return None, math.inf
        est = solve((h * _E) @ z)
        return new, float(np.max(np.abs(est) / (new + 1e-8 * new.max())))

    def apply(self, u: np.ndarray, dt: float) -> tuple[Optional[np.ndarray], float]:
        """One Strang step S(dt/2) D(dt) S(dt/2) from u (left unchanged).

        Returns the new state and the error norm of D (see diffuse).
        """
        if not self.cfg.source_on:
            return self.diffuse(u, dt)
        new, err = self.diffuse(self.source_flow(u, 0.5 * dt), dt)
        return (None if new is None else self.source_flow(new, 0.5 * dt)), err


def check_probes(probes, R_dom: float) -> tuple:
    """The probe radii as floats; ValueError unless each lies in (0, R_dom]."""
    probes = tuple(float(s) for s in probes)
    for s in probes:
        if not 0.0 < s <= R_dom:
            raise ValueError(f"probe radius {s!r} must lie in (0, R_dom={R_dom!r}]")
    return probes


def simulate(profile: RadialProfile, cfg: SolverConfig, probes: list | tuple) -> SolverTrace:
    """Integrate from the regularized projection of the profile.

    Each step is min(source bound, controller step, t_end - t).  The
    controller keeps the error norm of the third-order step D below
    ERR_TOL_CELLS2 / n_cells^2: it starts from t_end and scales the step by
    0.9 (tol / err)^{1/3}, within [0.2, 5], after every attempt; a rejected
    step is retried with the smaller dt.
    Terminates at t_end (completed), at sup >= u_blowup (blew_up), when the
    source bound underflows below 1e-14 * t_end (dt_underflow), or when the
    controller step does (stiff_underflow).  Samples are recorded at t = 0,
    at min(k * output interval, t_end) and at the end state; a time within
    1e-12 * t_end of t_end counts as t_end.  Output times never steer the
    steps: a sample inside a step is the cubic Hermite interpolant of the
    step's end states u0, u1 with slopes dt f(u0), dt f(u1) (_Stepper.rhs).
    A step that reaches u_blowup is accepted but never interpolated across;
    the end of the run records its end state at t_event.  A probe radius
    beyond R_dom raises ValueError; a non-finite state raises RuntimeError.
    """
    probes = check_probes(probes, cfg.domain_radius())
    field = project_initial(profile, cfg)
    stepper = _Stepper(field, cfg)
    u = field.u
    # every sample is recorded from this snapshot, which keeps the ball-mass weight rows
    snap = GridField(field.N, field.dr, u.copy(), field.R_dom)
    times, sups, masses = [], [], []

    def record(t: float, state: np.ndarray) -> None:
        snap.u[:] = state
        times.append(t)
        sups.append(float(snap.u.max()))
        masses.append([snap.ball_mass(s) for s in probes])

    t_end, out_dt = cfg.t_end, cfg.output_interval()
    end_tol = 1e-12 * t_end

    def out_time(k: int) -> float:
        return t_end if k * out_dt >= t_end - end_tol else k * out_dt

    t, k = 0.0, 1
    next_out = out_time(k)
    record(0.0, u)
    status, t_event = STATUS_COMPLETED, None
    dt_min = _DT_UNDERFLOW_FRACTION * t_end
    tol = ERR_TOL_CELLS2 / len(u) ** 2
    dt_ctrl = t_end
    f_u = None  # f(u), kept from the last step that interpolated a sample

    while t < t_end and float(u.max()) < cfg.u_blowup:
        dt = stable_dt(field, cfg)
        if dt < dt_min:
            status, t_event = STATUS_DT_UNDERFLOW, t
            break
        dt = min(dt, dt_ctrl, t_end - t)
        new, err = stepper.apply(u, dt)
        fac = min(_FAC_MAX, max(_FAC_MIN, 0.9 * (tol / err) ** (1.0 / 3.0))) if err > 0.0 else _FAC_MAX
        if err > tol:
            dt_ctrl = dt * fac
            if dt_ctrl < dt_min:
                status, t_event = STATUS_STIFF_UNDERFLOW, t
                break
            continue
        if math.isnan(err) or not np.isfinite(new).all():
            raise RuntimeError(f"non-finite state after the step from t={t!r} (dt={dt!r})")
        t_new = t_end if t + dt >= t_end - end_tol else t + dt
        # a step clipped by the source bound or t_end does not shrink the controller
        dt_ctrl = dt * fac if dt >= dt_ctrl else max(dt_ctrl, dt * fac)
        blew = float(new.max()) >= cfg.u_blowup
        f_new = None
        while next_out < t_new - end_tol and not blew:
            if f_new is None:
                f_u = stepper.rhs(u) if f_u is None else f_u
                f_new = stepper.rhs(new)
            th = (next_out - t) / dt
            h00, h01 = (1.0 + 2.0 * th) * (1.0 - th) ** 2, th * th * (3.0 - 2.0 * th)
            h10, h11 = th * (1.0 - th) ** 2 * dt, th * th * (th - 1.0) * dt
            record(next_out, h00 * u + h01 * new + h10 * f_u + h11 * f_new)
            k += 1
            next_out = out_time(k)
        f_u = f_new
        u[:] = new
        t = t_new
        if abs(next_out - t) <= end_tol:
            record(next_out, u)
            k += 1
            next_out = out_time(k)

    if float(u.max()) >= cfg.u_blowup:
        status, t_event = STATUS_BLEW_UP, t
    if status != STATUS_COMPLETED and t > times[-1] + end_tol:
        record(t, u)

    return SolverTrace(
        times=np.asarray(times),
        sup_norm=np.asarray(sups),
        probe_radii=probes,
        ball_mass=np.asarray(masses),
        status=status,
        t_event=t_event,
        final_field=field,
    )


def scaling_transform(obj, lam: float, params: ProblemParams):
    """Rescaling u_lam(x, t) = lam^{2/(p-m)} u(lam x, lam^{theta'} t) applied to a
    field snapshot or a full trace (grid, time axis, masses, and probe radii all
    transform accordingly)."""
    if lam <= 0.0:
        raise ValueError("lambda must be > 0")
    ex = derive_exponents(params)
    s, tp = ex.a_ss, ex.theta_prime
    if isinstance(obj, GridField):
        return GridField(obj.N, obj.dr / lam, lam**s * obj.u, obj.R_dom / lam)
    if isinstance(obj, SolverTrace):
        mass_scale = lam ** (s - params.N)
        return SolverTrace(
            times=obj.times / lam**tp,
            sup_norm=lam**s * obj.sup_norm,
            probe_radii=tuple(r / lam for r in obj.probe_radii),
            ball_mass=mass_scale * obj.ball_mass,
            status=obj.status,
            t_event=obj.t_event / lam**tp if obj.t_event is not None else None,
            final_field=scaling_transform(obj.final_field, lam, params) if obj.final_field else None,
        )
    raise TypeError("scaling_transform accepts a GridField or a SolverTrace")
