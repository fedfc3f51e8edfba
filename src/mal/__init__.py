"""Numerical laboratory for the metric space of Kahler potentials on the flat 2-torus.

Modules, which are the API (``from mal import geodesics``):
    grid           discrete torus, Monge-Ampere densities, metric primitives
    rearrangement  decreasing rearrangements, theta transfer, Hardy-Littlewood
    lagrangians    invariant convex Lagrangians and the verification report type
    transport      potential paths, parallel transport, Hamiltonian flows
    geodesics      epsilon-geodesic boundary problems and weak limits
    action         path actions, least action, theorem-verification suites
    cli            the `mal` command line front end
"""

__version__ = "0.1.0"
