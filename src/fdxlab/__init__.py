"""fdxlab: a numerical laboratory for the fast diffusion equation with source,

    u_t = Laplace(u^m) + u^p,   0 < m < 1,  p > 1,

covering the critical-exponent trichotomy around p_m = m + 2/N, uniformly
local Morrey/Orlicz norm conditions on the initial data, sharp singular
profiles, a radial finite-volume solver with blow-up detection, initial-trace
estimation, and the threshold experiments tying them together.
"""

from .exponents import (
    Exponents,
    ProblemParams,
    Regime,
    admissible_beta_range,
    classify_regime,
    derive_exponents,
    kappa_r,
)
from .gronwall import GronwallCoeffs, gronwall_bound, verify_against_ode
from .profiles import (
    RadialProfile,
    ball_average,
    ball_mass,
    barenblatt,
    barenblatt_value,
    constant,
    critical_log,
    critical_profile,
    power_law,
)
from .solver import (
    GridField,
    SolverConfig,
    SolverTrace,
    scaling_transform,
    simulate,
)
from .special_functions import GammaFn, c_eta, eta, psi, psi_inv
from .trace_estimator import TraceEstimate, estimate_trace, fit_trace_bounds
from .experiments import decay_fit, threshold_sweep
from .ulmorrey import NormResult, NormSpec, ScanGrid, SolvabilityVerdict, check_condition, norm, orlicz_ball_average

__version__ = "0.1.0"
