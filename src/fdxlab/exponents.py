"""Problem parameters, derived exponents, and the critical-exponent regime classifier.

Everything downstream (norms, solver scalings, threshold experiments) pulls its
exponent algebra from here, so this module is the single source of truth for

    p_m = m + 2/N            critical source exponent
    theta = (p - m)/(2(p - 1))   parabolic radius scale T^theta
    theta' = 1/theta
    kappa = N(m - 1) + 2     positive iff p_m > 1
    a_ss = 2/(p - m)         decay rate of the scale-invariant data |x|^{-a_ss}
    kappa_r = N(m - 1) + 2r
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


def check_finite_positive(name: str, value: float) -> None:
    """Reject a value that is not finite and > 0 (NaN included), naming it first in the message."""
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")


@dataclass(frozen=True)
class ProblemParams:
    """Dimension and the two nonlinearity exponents, validated on construction.

    Requires N >= 1 (integer), 0 < m < 1, p > 1.
    """

    N: int
    m: float
    p: float

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not (0.0 < self.m < 1.0):
            raise ValueError(f"m must lie in (0, 1), got {self.m!r}")
        if not self.p > 1.0:
            raise ValueError(f"p must be > 1, got {self.p!r}")


@dataclass(frozen=True)
class Exponents:
    p_m: float
    theta: float
    theta_prime: float
    kappa: float
    a_ss: float


CRITICAL_REL_TOL = 1e-12  # p within this of p_m, relative to max(1, p_m), is the critical exponent


class Regime(Enum):
    SUBCRITICAL = 0
    CRITICAL = 1
    SUPERCRITICAL = 2

    def __lt__(self, other: "Regime") -> bool:
        return self.value < other.value


def derive_exponents(params: ProblemParams) -> Exponents:
    """All derived exponents for (N, m, p).

    theta * theta_prime = 1 exactly up to floating point, and p_m > 1 iff
    kappa > 0 (both reduce to N(m-1) + 2 > 0).
    """
    N, m, p = params.N, params.m, params.p
    return Exponents(
        p_m=m + 2.0 / N,
        theta=(p - m) / (2.0 * (p - 1.0)),
        theta_prime=2.0 * (p - 1.0) / (p - m),
        kappa=N * (m - 1.0) + 2.0,
        a_ss=2.0 / (p - m),
    )


def classify_regime(params: ProblemParams) -> Regime:
    """Subcritical / critical / supercritical split of p against p_m.

    The critical tie uses the relative tolerance CRITICAL_REL_TOL because
    callers typically construct p = m + 2/N in floating point.
    """
    p_m = derive_exponents(params).p_m
    if abs(params.p - p_m) <= CRITICAL_REL_TOL * max(1.0, p_m):
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL if params.p > p_m else Regime.SUBCRITICAL


def kappa_r(params: ProblemParams, r: float) -> float:
    """kappa_r = N(m-1) + 2r, for r >= 1."""
    if not r >= 1.0:
        raise ValueError(f"r must be >= 1, got {r!r}")
    return params.N * (params.m - 1.0) + 2.0 * r


def admissible_beta_range(params: ProblemParams) -> tuple[float, float]:
    """Open interval of beta with 1 < beta < N(p-m)/2 and kappa_beta > 0.

    Only defined in the supercritical regime; the interval may be empty
    (lo >= hi), which callers must check.
    """
    if classify_regime(params) is not Regime.SUPERCRITICAL:
        raise ValueError("admissible beta range is defined only for p > p_m")
    lo = max(1.0, params.N * (1.0 - params.m) / 2.0)
    hi = params.N * (params.p - params.m) / 2.0
    return (lo, hi)


def validate_beta(params: ProblemParams, beta: float) -> None:
    """Raise if beta falls outside the admissible open interval."""
    lo, hi = admissible_beta_range(params)
    if not (lo < beta < hi):
        raise ValueError(f"beta={beta!r} outside admissible range ({lo}, {hi})")


def check_exponent_invariants(params: ProblemParams) -> None:
    """Assert the algebraic identities tying the derived exponents together, to 1e-12."""
    ex = derive_exponents(params)
    if abs(ex.theta * ex.theta_prime - 1.0) > 1e-12:
        raise AssertionError("theta * theta_prime != 1")
    if (ex.p_m > 1.0) != (ex.kappa > 0.0):
        raise AssertionError("p_m > 1 must be equivalent to kappa > 0")
    if not math.isclose(kappa_r(params, 1.0), ex.kappa, rel_tol=0.0, abs_tol=1e-12):
        raise AssertionError("kappa_r at r=1 must equal kappa")
