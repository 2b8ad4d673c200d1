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
  I - gamma dt J per step serves the four stages and the error filter as
  five solves.  With the cell volumes V, S = V(-A) is symmetric (its face
  weights are area / dr), and D = diag(m u^{m-1}) gives I - gamma dt J =
  V^{-1} M D with M = V D^{-1} + gamma dt S: symmetric, positive definite
  and strictly diagonally dominant, with every pivot of its LDL^T
  factorization at least V_i / D_i > 0.  LAPACK pttrf factors M once per
  step without pivoting, and each solve is z = D^{-1} M^{-1} (V r), a pttrs
  solve between the two diagonal scalings.  Every stage is in flux form, so
  zero-flux runs conserve mass to rounding.  The factors, the stages and
  the other work rows are one workspace per run, allocated when the run
  starts and rewritten in place by every attempt.

Diffusion is linearly implicit and L-stable, so the singular diffusivity
m u^{m-1} sets no step bound.  The step is

    dt = min( dt_safety min(1/2, 1/(p-1)) / max_i u_i^{p-1},  controller step,  t_end - t ),

where the source bound is at most dt_safety times the peak cell's blow-up
time u^{1-p}/(p-1), and the controller keeps the filtered embedded error
of D, max |est| / (w + 1e-8 max w), below ERR_TOL_CELLS2 / n_cells^2,
small enough that the time error stays below the space error.  D needs
u > 0, since the diffusivity is unbounded at a zero cell: _steps checks the
initial state once and ends a run with a zero cell stiff_underflow at t = 0.
After that every state stays positive: under "fixedfloor" the stages are
clamped at u_floor, under "zeroflux" a stage that leaves positivity rejects
the step, and S only raises u.  The generator _steps alone decides the
steps; simulate samples them, and output times only place the samples: a
sample inside a step is the cubic Hermite dense output (Hairer, Norsett &
Wanner, Solving ODEs I, II.6) of w = u^q, mapped back by w^{1/q}, with
q = 1 - p (source on) or 1 (off), and the samples of one step are formed in
one array pass.  The pure reaction makes w linear in t, so flat-data
samples are exact but for rounding, about eps/|q| relative.

Initial data are projected by exact cell averages of the profile, then
regularized as min(., n) + 1/n with n = 1/u_floor.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Generator, Optional

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dpttrf, dpttrs

from .exponents import ProblemParams, check_finite_positive, derive_exponents
from .profiles import BALL_VOLUME, SPHERE_AREA, RadialProfile, cell_averages, lens_volume

STATUS_COMPLETED = "completed"
STATUS_BLEW_UP = "blew_up"
STATUS_DT_UNDERFLOW = "dt_underflow"
STATUS_STIFF_UNDERFLOW = "stiff_underflow"

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
# every coefficient that the step scales by h, in one array: the rows of _A below the diagonal, _M and _E
_COEFS = np.concatenate([_A[1, :1], _A[2, :2], _A[3, :3], _M, _E])
_STAGE_ROWS = (slice(0, 1), slice(1, 3), slice(3, 6))
_M_ROW, _E_ROW = slice(6, 10), slice(10, 14)


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
        check_finite_positive("dr", self.dr)
        check_finite_positive("R_dom", self.R_dom)
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
        over the lens edges of every ball (d = 0 has none, so one path serves
        every offset); the weights are its differences, so nothing beyond the
        last edge is counted.  d is one offset or a 1-D array of them and sigma
        one radius or a 1-D array of them; the weights have shape d.shape +
        sigma.shape + (cells,), so a grid norm scan gets a block of centers x
        radii x cells in one call.  Every d must be finite and >= 0.
        """
        d = np.asarray(d, dtype=float)
        s = np.asarray(sigma, dtype=float)
        if not ((0.0 <= d) & (d < np.inf)).all():
            raise ValueError(f"d must be finite and >= 0, got {d.tolist()!r}")
        if not (s > 0.0).all():
            raise ValueError("sigma must be > 0")
        e = self.edges
        s = s[..., None]
        vol = BALL_VOLUME[self.N] * np.minimum(e, s) ** self.N
        d = d.reshape(d.shape + (1,) * s.ndim)  # centers on the leading axis
        vol = np.where(e <= d - s, 0.0, vol)
        lens = (e > np.abs(s - d)) & (e < s + d)
        if lens.any():
            r, rs, ds = np.broadcast_arrays(e, s, d)
            vol[lens] = lens_volume(self.N, r[lens], ds[lens], rs[lens])
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
        check_finite_positive("t_end", self.t_end)
        if not 0.0 < self.dt_safety < 1.0:
            raise ValueError(f"dt_safety must lie in (0, 1), got {self.dt_safety!r}")
        if not self.u_blowup > 1.0:
            raise ValueError(f"u_blowup must be > 1, got {self.u_blowup!r}")
        if not self.u_floor >= 0.0:
            raise ValueError(f"u_floor must be >= 0, got {self.u_floor!r}")
        # dpttrf takes 2 cells (it rejects 1), but a 2-cell grid has no interior cell, so no row of A carries
        # the full three-point stencil, and the pivoted dgttrf oracle of the tests rejects a 2 x 2 system
        if not self.n_cells >= 3:
            raise ValueError(f"n_cells must be >= 3, got {self.n_cells!r}")
        if self.r_dom is not None:
            check_finite_positive("r_dom", self.r_dom)
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


def stable_dt(u_max: float, cfg: SolverConfig) -> float:
    """The source bound dt_safety min(1/2, 1/(p-1)) / u_max^{p-1}, with u_max the field's max.

    For p > 3 this is dt_safety times the peak cell's blow-up time
    u^{1-p}/(p-1), so no step runs past it.  Diffusion is linearly implicit
    and sets no stability bound, so with the source off this is t_end.
    """
    if not cfg.source_on:
        return cfg.t_end
    p = cfg.params.p
    return cfg.dt_safety * min(0.5, 1.0 / (p - 1.0)) * u_max ** (1.0 - p) if u_max > 0.0 else math.inf


class _Stepper:
    """The face-flux operator of one run and its Strang step S(dt/2) D(dt) S(dt/2)."""

    def __init__(self, field: GridField, cfg: SolverConfig):
        areas = field.edges ** (field.N - 1)
        areas[0] = 0.0  # symmetry at the origin, also forces N=1 inner face off
        self.vol = field.volumes
        scale = 1.0 / (field.dr * self.vol)
        self.coef_r = areas[1:] * scale  # multiplies flux through the outer face of cell i
        self.coef_l = areas[:-1] * scale
        self.cfg = cfg
        self.m, self.p = cfg.params.m, cfg.params.p
        self.q = 1.0 - self.p if cfg.source_on else 1.0  # samples interpolate w = u^q
        self.floor = cfg.u_floor if cfg.boundary == "fixedfloor" else None
        faces = areas / field.dr  # the face weights a_{i+1/2} / dr of S = V(-A)
        if self.floor is None:
            self.coef_r[-1] = faces[-1] = 0.0  # zero flux through the domain boundary
        self.coef_c = self.coef_r + self.coef_l  # the diagonal of -A
        # S = V(-A) by diagonals, symmetric by construction: its diagonal holds both faces of each cell (the
        # fixed-floor face included), its off-diagonal the inner faces with a minus sign
        self.s_diag = faces[:-1] + faces[1:]
        self.s_off = -faces[1:-1]
        self.ghost_v = cfg.u_floor**self.m if self.floor is not None else 0.0
        self.flow_cap = cfg.u_blowup ** (1.0 - self.p)
        # the workspace, rewritten by every div and diffuse: face differences g with the view of its inner
        # faces, the inner-face fluxes, the diagonal and off-diagonal that dpttrf factors in place, the
        # transformed stages z (one per row), the step scales h _COEFS, and the stage, u^m, d and estimate
        # rows; only the new state of an attempt is allocated, since the caller keeps it
        n = len(field.u)
        self.coef_l_in = self.coef_l[1:].copy()
        self.g = np.empty(n)
        self.g_in = self.g[:-1]
        self.flux_in = np.empty(n - 1)
        self.ldl_d, self.ldl_e = np.empty(n), np.empty(n - 1)
        self.z = np.empty((4, n))
        self.hc = np.empty(len(_COEFS))
        self.stage, self.v, self.d, self.est = np.empty((4, n))
        # per stage i = 1, 2, 3: its h A_ij, the z_j (j < i), its C_ij, and its z_i
        self.stage_views = [(self.hc[a], self.z[:i], _C[i, :i], self.z[i]) for i, a in enumerate(_STAGE_ROWS, start=1)]

    def div(self, v: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """A v: the conservative flux divergence of v = u^m (fixed-floor ghost outside), into out if given."""
        g = self.g  # v_{i+1} - v_i at the outer face of cell i
        np.subtract(v[1:], v[:-1], out=self.g_in)
        g[-1] = self.ghost_v - v[-1]
        out = np.multiply(self.coef_r, g, out=out)
        out[1:] -= np.multiply(self.coef_l_in, self.g_in, out=self.flux_in)
        return out

    def dense(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """w = u^q and its slope q w f(u) / u, f(u) = A(u^m) + u^p: the Hermite data of the samples.

        With the source on, w = u / u^p and the slope q f(u) / u^p reuse the
        source term; with it off, f has no u^p, and w = u and the slope f(u).
        """
        f = self.div(u**self.m)
        if not self.cfg.source_on:
            return u, f
        up = u**self.p
        f += up
        return u / up, (self.q / up) * f

    def source_flow(self, u: np.ndarray, h: float) -> np.ndarray:
        """Exact flow of u' = u^p over time h per cell, stopped at u_blowup.

        A cell hits u_blowup within h where s = 1 - (p-1) h u^{p-1} <= reach = u^{p-1} u_blowup^{1-p}.
        When the largest g = u^{p-1} does not, no cell does, since rounding is monotone:
        g <= max g gives s >= min s > max reach >= reach.
        """
        p = self.p
        g = u ** (p - 1.0)
        g_max = g.max()
        ph = (p - 1.0) * h
        if 1.0 - ph * g_max > g_max * self.flow_cap:
            g *= ph
            s = np.subtract(1.0, g, out=g)
            out = s ** (1.0 / (1.0 - p))
            out *= u
            return out
        reach = g * self.flow_cap
        s = np.maximum(1.0 - ph * g, reach)
        return np.where(s > reach, u * s ** (1.0 / (1.0 - p)), self.cfg.u_blowup)

    def diffuse(self, u: np.ndarray, h: float) -> tuple[Optional[np.ndarray], float]:
        """One ROS34PW2 step for u' = A(u^m) with J = A diag(m u^{m-1}), from u > 0 (left unchanged).

        Returns the new state and the error norm max |est| / (w + 1e-8 max w)
        of the filtered embedded estimate est = (I - gamma h J)^{-1} h sum_i E_i z_i,
        the difference of the third- and second-order solutions; the state is
        None and the norm inf when a stage leaves positivity (zeroflux), while
        fixedfloor clamps every stage at the floor.  u must be positive, since
        the diffusivity m u^{m-1} is unbounded at a zero cell: _steps checks
        the initial state, and the stages keep it.

        With D = diag(m u^{m-1}) and the cell volumes V, I - gamma h J =
        V^{-1} M D, where M = V D^{-1} + gamma h S and S = V(-A) is symmetric.
        M is then symmetric, positive definite and strictly diagonally
        dominant, and every pivot of its LDL^T factorization is at least
        V_i / D_i > 0, so LAPACK dpttrf factors it once without pivoting, and
        each of the five solves is z = D^{-1} M^{-1} (V r): a scaling by V, a
        dpttrs solve and a division by D.  A pivot that rounding leaves at or
        below zero raises LinAlgError.  The work arrays are the stepper's
        workspace, so only the returned state is new.
        """
        m, floor, z, stage, v = self.m, self.floor, self.z, self.stage, self.v
        v[:] = u
        v **= m  # in place, as u**m would be computed
        d = np.multiply(m, v, out=self.d)
        d /= u
        gh = _GAMMA * h
        diagonal = np.divide(self.vol, d, out=self.ldl_d)  # M = V/D + gamma h S by diagonals
        diagonal += np.multiply(self.s_diag, gh, out=stage)
        *ldl, info = dpttrf(diagonal, np.multiply(self.s_off, gh, out=self.ldl_e), overwrite_d=True, overwrite_e=True)
        if info != 0:
            raise LinAlgError(f"I - gamma h J is numerically singular: pivot {info} of M is not positive (dpttrf)")
        hc = np.multiply(_COEFS, h, out=self.hc)
        self._solve(ldl, self.div(v, out=z[0]))  # every solve is in place in a contiguous row
        for ha, z_prev, c, zi in self.stage_views:
            np.dot(ha, z_prev, out=stage)
            stage += u
            if floor is not None:
                np.maximum(stage, floor, out=stage)
            elif stage.min() <= 0.0:
                return None, math.inf
            stage **= m
            self.div(stage, out=zi)
            zi += np.dot(c, z_prev, out=stage)  # div has read the stage, so its row is free
            self._solve(ldl, zi)
        new = np.dot(hc[_M_ROW], z)
        new += u
        if floor is not None:
            np.maximum(new, floor, out=new)
        elif new.min() <= 0.0:
            return None, math.inf
        est = self._solve(ldl, np.dot(hc[_E_ROW], z, out=self.est))
        np.abs(est, out=est)
        est /= np.add(new, 1e-8 * new.max(), out=stage)
        return new, float(est.max())

    def _solve(self, ldl: list, r: np.ndarray) -> np.ndarray:
        """r <- D^{-1} M^{-1} (V r) = (I - gamma h J)^{-1} r in place, with diffuse's LDL^T factors of M and D."""
        r *= self.vol
        dpttrs(*ldl, r, overwrite_b=True)
        r /= self.d
        return r

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


def _steps(stepper: _Stepper, u: np.ndarray, cfg: SolverConfig) -> Generator[tuple, None, tuple]:
    """Advance u in place by accepted steps from t = 0, yielding (t, t_new, dt, new, blew) before u takes new.

    dt is the step of the module docstring, and the controller's first guess
    is t_end; a rejected attempt is retried with the controller's smaller dt.
    t_new is t + dt, or t_end within 1e-12 t_end of it, and blew says that
    new reached u_blowup.  Returns (status, t_event): (completed, None) at
    t_end, or the time at which the sup reached u_blowup (blew_up), the source
    bound could not move the clock t (dt_underflow) or a rejection's retry step
    could not (stiff_underflow).  A non-finite state raises RuntimeError.
    The attempts need u > 0 (_Stepper.diffuse), and only the initial state
    can break that, so it alone is checked: a zero cell ends the run
    stiff_underflow at t = 0 with no attempt, since no step could be accepted.
    """
    t_end, tol = cfg.t_end, ERR_TOL_CELLS2 / len(u) ** 2
    end_tol = 1e-12 * t_end
    t, dt_ctrl, u_max = 0.0, t_end, float(u.max())
    if u_max < cfg.u_blowup and u.min() <= 0.0:  # the diffusivity m u^{m-1} is unbounded at a zero cell
        return STATUS_STIFF_UNDERFLOW, t
    while t < t_end and u_max < cfg.u_blowup:
        dt = stable_dt(u_max, cfg)
        if t + dt == t:
            return STATUS_DT_UNDERFLOW, t
        dt = min(dt, dt_ctrl, t_end - t)
        new, err = stepper.apply(u, dt)
        fac = min(_FAC_MAX, max(_FAC_MIN, 0.9 * (tol / err) ** (1.0 / 3.0))) if err > 0.0 else _FAC_MAX
        if err > tol:
            dt_ctrl = dt * fac
            if t + dt_ctrl == t:
                return STATUS_STIFF_UNDERFLOW, t
            continue
        # NaN if a cell is NaN, inf if one is inf; no cell is -inf, since stages are clamped or rejected at zero
        u_max = float(new.max())
        if math.isnan(err) or not u_max < math.inf:
            raise RuntimeError(f"non-finite state after the step from t={t!r} (dt={dt!r})")
        t_new = t_end if t + dt >= t_end - end_tol else t + dt
        # a step clipped by the source bound or t_end does not shrink the controller
        dt_ctrl = dt * fac if dt >= dt_ctrl else max(dt_ctrl, dt * fac)
        yield t, t_new, dt, new, u_max >= cfg.u_blowup
        u[:] = new
        t = t_new
    return (STATUS_BLEW_UP, t) if u_max >= cfg.u_blowup else (STATUS_COMPLETED, None)


# samples interpolated together hold at most this many values, so a tiny output interval never builds one
# (samples x cells) array
_SAMPLE_VALUES = 1 << 16


def _hermite(s: float, t: float, dt: float) -> tuple:
    """The cubic Hermite basis at time s of the step [t, t + dt], with dt on the two slope terms."""
    th = (s - t) / dt
    h00, h01 = (1.0 + 2.0 * th) * (1.0 - th) ** 2, th * th * (3.0 - 2.0 * th)
    h10, h11 = th * (1.0 - th) ** 2 * dt, th * th * (th - 1.0) * dt
    return h00, h01, h10, h11


def simulate(profile: RadialProfile, cfg: SolverConfig, probes: list | tuple) -> SolverTrace:
    """Sample the steps that _steps takes from the regularized projection of the profile.

    Samples are recorded at t = 0, at min(k * output interval, t_end), where
    a time within 1e-12 t_end of t_end counts as t_end, and at the end state.
    A sample inside a step is the dense output of the module docstring, from
    the Hermite data of the step's end states (_Stepper.dense), but never in
    a step that reaches u_blowup; a run that ends early records its end
    state at t_event.  The samples inside one step are interpolated together,
    one (samples x cells) array per at most _SAMPLE_VALUES values, with the
    Hermite weights of each sample as floats, so each sample has the bits of
    its own interpolant.  A probe radius beyond R_dom raises ValueError.
    """
    probes = check_probes(probes, cfg.domain_radius())
    field = project_initial(profile, cfg)
    stepper = _Stepper(field, cfg)
    u = field.u.copy()  # the steps advance this copy; every sample is written into field, the last being the end state
    times, sups, masses = [], [], []

    def record(ts: list, states: np.ndarray) -> None:
        """Append the samples states[j] at the times ts[j]; field keeps the last."""
        times.extend(ts)
        sups.extend(states.max(axis=1).tolist())
        if probes:
            for state in states:
                field.u[:] = state
                masses.append([field.ball_mass(s) for s in probes])
        else:
            masses.extend([] for _ in ts)
            field.u[:] = states[-1]

    t_end, out_dt = cfg.t_end, cfg.output_interval()
    end_tol = 1e-12 * t_end
    out_times = (t_end if k * out_dt >= t_end - end_tol else k * out_dt for k in itertools.count(1))
    next_out = next(out_times)
    chunk = max(1, _SAMPLE_VALUES // len(u))
    record([0.0], u[None])
    dense_u = None  # the Hermite data of u, kept from the last step that interpolated a sample
    steps = _steps(stepper, u, cfg)
    while True:
        try:
            t, t_new, dt, new, blew = next(steps)
        except StopIteration as end:
            status, t_event = end.value
            break
        inside = []
        while next_out < t_new - end_tol and not blew:
            inside.append(next_out)
            next_out = next(out_times)
        if inside:
            (w0, dw0), (w1, dw1) = dense_u or stepper.dense(u), stepper.dense(new)
            for k in range(0, len(inside), chunk):
                ts = inside[k:k + chunk]
                h = np.array([_hermite(s, t, dt) for s in ts]).T[..., None]  # (4, samples, 1)
                record(ts, (h[0] * w0 + h[1] * w1 + h[2] * dw0 + h[3] * dw1) ** (1.0 / stepper.q))
            dense_u = w1, dw1  # new is the next step's u
        else:
            dense_u = None
        if abs(next_out - t_new) <= end_tol:
            record([next_out], new[None])
            next_out = next(out_times)

    if t_event is not None and t_event > times[-1] + end_tol:
        record([t_event], u[None])

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
    check_finite_positive("lambda", lam)
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
