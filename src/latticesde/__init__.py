"""Dissipative SDE lattice systems on random geometric configurations.

Construction of Poisson configurations with their neighbor structure,
weighted sequence-space norms, banded-operator scale bounds with an exact
Picard solver, truncated Euler-Maruyama simulation with coupled per-site
noise streams, and Monte Carlo diagnostics for finite-volume convergence.
"""

from .geometry import (
    Configuration,
    build_neighborhoods,
    configuration_from_points,
    estimate_growth_constant,
    exhaustion_sequence,
    load_configuration,
    sample_configuration,
    save_configuration,
)
from .spaces import (
    ScaleParams,
    WeightedSeq,
    degree_summability_check,
    lp_norm,
    verify_scale_monotonicity,
)
from .ovsjannikov import (
    BandedOperator,
    GridFunction,
    comparison_check,
    identity_operator,
    norm_bound_series,
    ovs_constant,
    picard_iterate,
    random_banded_operator,
    solve_linear_evolution,
    verify_ovs_bound,
    zero_operator,
)
from .sde import (
    InteractionKernel,
    ModelSpec,
    PathEnsemble,
    Potential,
    check_dissipativity,
    diffusion,
    drift,
    exit_time_diagnostic,
    make_model,
    ou_moment_oracle,
    simulate_truncated,
    wiener_increments,
)
from .convergence import (
    MomentField,
    moment_field,
    tail_bound_check,
    uniqueness_crosscheck,
    z_norm,
)

__version__ = "0.1.0"
