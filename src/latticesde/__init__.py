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
    WeightedSeq,
    degree_summability_check,
    verify_scale_monotonicity,
)
from .ovsjannikov import (
    BandedOperator,
    GridFunction,
    comparison_check,
    norm_bound_series,
    ovs_constant,
    random_banded_operator,
    solve_linear_evolution,
    verify_ovs_bound,
)
from .sde import (
    InteractionKernel,
    ModelSpec,
    PathEnsemble,
    Potential,
    make_model,
    simulate_truncated,
)
from .convergence import (
    moment_field,
    tail_bound_check,
    z_norm,
)

__version__ = "0.1.0"
