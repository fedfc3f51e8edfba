"""Numerical laboratory for the metric space of Kahler potentials on the flat 2-torus.

Modules:
    grid           discrete torus, Monge-Ampere densities, metric primitives
    rearrangement  decreasing rearrangements, theta transfer, Hardy-Littlewood
    lagrangians    invariant convex Lagrangians and their property checks
    transport      potential paths, parallel transport, Hamiltonian flows
    geodesics      epsilon-geodesic boundary problems and weak limits
    action         path actions, least action, theorem-verification suites
    cli            the `mal` command line front end
"""

from .errors import (
    GenerationFailed,
    HomogeneityRequired,
    MalError,
    MassMismatch,
    NonConvergence,
    NotEquidistributed,
    NotKahler,
    PositivityLoss,
    StepUnstable,
)
from .grid import (
    Grid,
    Potential,
    WeightedValues,
    dx,
    dy,
    gradient,
    inner_product_du,
    integrate,
    laplacian,
    make_potential,
    poisson_bracket,
)
from .lagrangians import (
    LorentzWeak,
    Orlicz,
    Power,
    SupFamily,
    VerificationReport,
    evaluate,
)
from .rearrangement import (
    StepFunction,
    ThetaMap,
    decreasing_rearrangement,
    equidistributed,
    hardy_littlewood_sup,
    rearrange_values,
    similarly_ordered,
    theta_map,
)
from .transport import (
    PotentialPath,
    TransportMap,
    composition_scheme,
    covariant_derivative,
    linear_path,
    pullback,
    symplectic_flow,
    transport_flow,
)
from .geodesics import (
    EpsGeodesicProblem,
    GeodesicSolution,
    epsilon_continuation,
    hcma_residual,
    jacobi_field,
    jacobi_residual,
    solve_epsilon_geodesic,
    sup_distance,
    time_convexity_margin,
    weak_geodesic,
)
from .action import (
    LeastActionQuery,
    competitor_paths,
    least_action,
    midpoint_convexity_margin,
    monotone_limit_check,
    path_action,
    verify_action_convexity,
    verify_comparison_inequality,
    verify_jacobi_convexity,
    verify_least_action,
    verify_least_action_continuity,
    verify_noether,
)

__version__ = "0.1.0"
