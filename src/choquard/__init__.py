"""Numerical laboratory for ground states of Choquard equations.

Computes positive radial ground states of

    -Lap u + u = mu (I_alpha * |u|^p) |u|^{p-2} u + lambda |u|^{q-2} u

on R^N by Pohozaev-constrained descent, and verifies the variational
structure around them: Pohozaev and Nehari identities, fiber-map
uniqueness, sharp Sobolev/HLS constants, bubble asymptotics, and the
energy-threshold inequalities governing existence at the critical
exponents.
"""

from .errors import (
    CaseMismatchError,
    ChoquardError,
    ConfigError,
    DegenerateFieldError,
    InvalidParameterError,
    NonMonotoneMarginError,
    NumericalFailureError,
)
from .functionals import (
    EnergyBreakdown,
    Params,
    breakdown,
    dilate,
    energy_of,
    fiber_energy_of,
    nehari_of,
    pohozaev_of,
    project_tau,
    reduced_energy,
)
from .grid import (
    RadialField,
    RadialGrid,
    build_grid,
    grad_sq,
    grid_from_nodes,
    h1_inner,
    h1_norm,
    h1_solve,
    integrate,
    lp_norm,
    read_profile_csv,
    sample,
    write_profile_csv,
)
from .riesz import (
    RieszKernel,
    angular_kernel,
    hls_bilinear,
    hls_constant,
    kernel_for,
    riesz_normalization,
)
from .extremals import (
    AsymptoticTable,
    MarginReport,
    SharpConstants,
    asymptotic_suite,
    critical_parameter_search,
    cutoff_bubble,
    pekar_extremal,
    sharp_constants,
    talenti,
    threshold_check,
)
from .solver import (
    SolveOptions,
    SolveReport,
    continue_exponent,
    default_initial_guess,
    detect_dichotomy,
    ground_state,
    half_mass_radius,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_level_window,
    check_mountain_pass_consistency,
    check_pohozaev_identity,
    check_positivity_monotonicity,
    check_radial_decay_bound,
    run_verification,
)

__version__ = "0.1.0"
