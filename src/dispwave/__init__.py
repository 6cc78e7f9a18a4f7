"""dispwave: numerical laboratory for a nonlinearly dispersive wave family.

The model interpolates, through its parameter gamma, between the regularized
long wave equation (gamma = 0) and the Camassa-Holm equation (gamma = 1),
with omega >= 0 setting the linear dispersion. The package simulates the
equation in its nonlocal form, constructs its smooth solitary waves, detects
finite-time wave breaking and compares observed breaking times against the
closed-form existence bound.
"""

from .blowup import (
    BlowupFit,
    BlowupVerdict,
    ExistenceBound,
    SweepRow,
    blowup_condition,
    breaking_threshold,
    existence_bound,
    existence_time_lower_bound,
    extrapolate_blowup_time,
    gamma_regime,
    riccati_bracket,
    run_member,
    sharpness_experiment,
    slope_minimum,
    write_comparison_csv,
)
from .initial import field_from_csv, gaussian_bump, steep_bump
from .pde import (
    PdeParams,
    TraceRow,
    energy,
    gamma_utx_field,
    pde_residual,
    rhs_momentum,
    rhs_nonlocal,
    slope_sample,
)
from .solitary import (
    AdmissibilityError,
    SolitonParams,
    SolitonProfile,
    TravelReport,
    build_profile,
    check_admissible,
    first_integral_residual,
    measure_decay_rate,
    profile_equation_residual,
    recommended_grid,
    verify_traveling,
    write_profile_csv,
)
from .spectral import (
    Field,
    Grid,
    NonFiniteFieldError,
    dealias,
    differentiate,
    helmholtz_inverse,
    hs_norm,
)
from .timestep import (
    BoundaryDecayError,
    IncomparableRunsError,
    SimulationResult,
    SolverConfig,
    continuous_dependence_probe,
    rk4_step,
    simulate,
)

__version__ = "0.1.0"
