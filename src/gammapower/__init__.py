"""Gamma/power combination families: evaluation, critical points, and
numerical certification of their monotonicity and convexity properties."""

from .specfun import (
    DomainError,
    EULER_GAMMA,
    PI,
    ZETA3,
    log_gamma,
    digamma,
    polygamma,
    check_polygamma_bounds,
    psi2_theta,
)
from .families import (
    Sign,
    Params,
    f_family,
    g_family,
    g1,
    g2,
    g3,
    h1,
    h2,
    h3,
    h4,
    h21,
    h31,
    h41,
    h41_prime,
    delta_n,
    log_g1_deriv,
    x_logderiv_g3,
)
from .critical import (
    A_STAR,
    BracketError,
    CriticalKind,
    CriticalPoint,
    PreconditionError,
    find_x0,
    find_x1_x2,
    find_x3,
    find_x4,
    find_t4_tilde,
    threshold_g2_increasing,
    threshold_g3_increasing,
)
from .certify import (
    ClaimReport,
    Region,
    RegionError,
    SamplePlan,
    Verdict,
    classify,
    run_claims,
)

__version__ = "0.1.0"
