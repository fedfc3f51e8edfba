"""Path actions, least action, and the theorem-verification experiments.

The action of a path is the time integral of L(udot(t)), the Lagrangian
evaluated against the Monge-Ampere measure of u(t).  Quadrature follows the
path type: right-endpoint per segment for piecewise-linear paths, whose
velocity is constant per segment, and midpoint per interval for solver-native
paths, matching the solver's second-order accuracy.

Least action between two potentials is computed through the connecting weak
geodesic: along such a path the action realizes the infimum over piecewise C1
competitors, which turns the minimization into a solve.  Randomized
piecewise-linear competitor paths act as upper-bound witnesses in the
verification experiments, never as the estimator.

The verification operations return the VerificationReport of
mal.lagrangians for the structural facts: convexity of L along Jacobi fields,
the triangle comparison for positively homogeneous L, constancy of L(udot)
along weak geodesics, the principle of least action, convexity of
t -> least_action(u(t), v(t)) for two weak geodesics, and continuity of least
action under decreasing endpoint approximation.  Every suite pairs with a
negative control in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import GenerationFailed, HomogeneityRequired, NotKahler
from .fixtures import random_band_limited
from .geodesics import (
    EpsGeodesicProblem,
    jacobi_field,
    solve_epsilon_geodesic,
    weak_geodesic,
)
from .grid import Potential, WeightedValues, make_potential
from .lagrangians import LagrangianSpec, VerificationReport, evaluate
from .rearrangement import decreasing_rearrangement, step_l1_distance
from .transport import PotentialPath


@dataclass(frozen=True)
class ActionReport:
    """Composite-quadrature value of the action integral of one path."""

    value: float
    contributions: tuple[float, ...]
    quadrature: str

    def __post_init__(self):
        if self.quadrature not in ("right-endpoint", "midpoint"):
            raise ValueError(f"unknown quadrature {self.quadrature!r}")
        total = float(np.sum(self.contributions))
        if abs(total - self.value) > 1e-12 * max(1.0, abs(self.value)):
            raise ValueError("value must equal the sum of its contributions")


@dataclass(frozen=True, eq=False)
class LeastActionQuery:
    """Endpoints, horizon, Lagrangian, and solver knobs for a least action.

    tol is the continuation gap at which the weak-geodesic limit is accepted;
    time_steps and solver_tol are passed through to the geodesic solver.
    """

    start: Potential
    end: Potential
    duration: float
    spec: LagrangianSpec
    tol: float = 1e-6
    time_steps: int = 32
    solver_tol: float = 1e-8

    def __post_init__(self):
        if self.start.grid != self.end.grid:
            raise ValueError("endpoints must share one grid")
        if not self.duration > 0.0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")


def path_action(spec: LagrangianSpec, path: PotentialPath) -> ActionReport:
    """Composite quadrature of t -> L(udot(t)) along a path.

    Piecewise-linear paths use the right-endpoint rule on each segment;
    the segment velocity is a single field, evaluated against the measure of
    the right knot.  Solver-native paths use the midpoint rule: the interval
    difference quotient is exactly the velocity at the interval midpoint to
    second order, and the midpoint potential is the knot average.
    """
    dt = np.diff(path.times)
    if path.interpolation == "piecewise-linear":
        measures, rule = path.knots[1:], "right-endpoint"
    else:
        f = path.fields
        measures = [make_potential(0.5 * (f[i] + f[i + 1]), path.grid) for i in range(dt.size)]
        rule = "midpoint"
    quot = path.interval_velocity
    contributions = tuple(float(dt[i] * evaluate(spec, u, quot[i])) for i, u in enumerate(measures))
    return ActionReport(float(np.sum(contributions)), contributions, rule)


def connecting_geodesic(q: LeastActionQuery) -> PotentialPath:
    """Weak geodesic between the query endpoints over [0, duration]."""
    return weak_geodesic(
        q.start, q.end, (0.0, q.duration), q.tol, q.time_steps, q.solver_tol
    )


def least_action(q: LeastActionQuery, geodesic: PotentialPath | None = None) -> float:
    """Least action between two potentials, realized on the weak geodesic.

    The infimum over piecewise C1 paths is attained on the connecting weak
    geodesic, so the value is the action of that single path.  A precomputed
    connecting geodesic may be supplied to share one solve across several
    Lagrangians; it is trusted to connect the query endpoints.
    """
    path = connecting_geodesic(q) if geodesic is None else geodesic
    return path_action(q.spec, path).value


def competitor_paths(
    start: Potential,
    end: Potential,
    duration: float,
    count: int,
    seed: int,
    knot_budget: int = 4,
    amplitude: float = 0.05,
) -> list[PotentialPath]:
    """Random admissible piecewise-linear paths between fixed endpoints.

    Each path has knot_budget interior knots at jittered times; each interior
    knot perturbs the linear interpolant by a random band-limited field,
    redrawn with halved amplitude while the candidate leaves the admissible
    set.  Deterministic for a fixed seed.

    Raises:
        GenerationFailed: if a knot stays inadmissible after 50 shrinkages.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if knot_budget < 0:
        raise ValueError("knot_budget must be nonnegative")
    if not duration > 0.0:
        raise ValueError("duration must be positive")
    g = start.grid
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(count):
        times = np.linspace(0.0, duration, knot_budget + 2)
        if knot_budget:
            spacing = duration / (knot_budget + 1)
            times[1:-1] += 0.3 * spacing * rng.uniform(-1.0, 1.0, size=knot_budget)
        knots = [start]
        for t in times[1:-1]:
            s = t / duration
            base = (1.0 - s) * start.field + s * end.field
            amp = amplitude
            for shrink in range(51):
                try:
                    knots.append(make_potential(base + random_band_limited(g, rng, amp), g))
                    break
                except NotKahler:
                    amp *= 0.5
            else:
                raise GenerationFailed(
                    f"no admissible knot at t = {t:.4g} after 50 amplitude shrinkages"
                )
        knots.append(end)
        times.setflags(write=False)
        paths.append(PotentialPath(times, tuple(knots), "piecewise-linear"))
    return paths


def verify_least_action(
    q: LeastActionQuery,
    count: int = 20,
    seed: int = 0,
    tol: float = 5e-3,
    knot_budget: int = 4,
    amplitude: float = 0.05,
    geodesic: PotentialPath | None = None,
) -> VerificationReport:
    """Check that no random competitor beats the connecting weak geodesic.

    The worst violation is max(0, geodesic action - competitor action) over
    the generated competitors; the margin distribution is recorded.  The
    tolerance absorbs the first-order right-endpoint quadrature bias of
    piecewise-linear competitor actions, which scales with the competitor
    knot amplitude.
    """
    path = connecting_geodesic(q) if geodesic is None else geodesic
    g_action = path_action(q.spec, path).value
    margins = []
    for comp in competitor_paths(
        q.start, q.end, q.duration, count, seed, knot_budget, amplitude
    ):
        margins.append(path_action(q.spec, comp).value - g_action)
    worst = max(0.0, -min(margins))
    return VerificationReport(
        "least-action",
        worst,
        tol,
        {
            "seed": seed,
            "count": count,
            "knot_budget": knot_budget,
            "amplitude": amplitude,
            "n": q.start.grid.n,
            "scheme": q.start.grid.scheme,
            "time_steps": q.time_steps,
            "duration": q.duration,
            "geodesic_action": g_action,
            "margins": tuple(margins),
        },
    )


def verify_comparison_inequality(
    spec: LagrangianSpec,
    path: PotentialPath,
    apex: Potential,
    leg_duration: float = 1.0,
    tol: float = 5e-3,
    epsilon: float = 1e-2,
    time_steps: int = 16,
    solver_tol: float = 1e-8,
) -> VerificationReport:
    """Triangle comparison for positively homogeneous Lagrangians.

    Solves the two epsilon-geodesic legs from the apex to the endpoints of
    the path and checks

        action(path) / leg_duration >= L(leg_end_velocity) - L(leg_start_velocity)

    with both leg velocities taken at the apex end.  The inequality is exact
    for every epsilon > 0, so a single moderate epsilon suffices.  When the
    apex coincides with a path endpoint bitwise, that leg degenerates to the
    constant path with zero velocity.

    Raises:
        HomogeneityRequired: if spec is not positively homogeneous.
    """
    if not spec.positively_homogeneous:
        raise HomogeneityRequired(
            "the triangle comparison needs a positively homogeneous Lagrangian"
        )
    leg_values = []
    for endpoint in (path.knots[0], path.knots[-1]):
        if np.array_equal(apex.field, endpoint.field):
            leg_values.append(evaluate(spec, apex, np.zeros_like(apex.field)))
            continue
        p = EpsGeodesicProblem(
            apex, endpoint, (0.0, leg_duration), epsilon, time_steps, solver_tol
        )
        sol = solve_epsilon_geodesic(p)
        leg_values.append(evaluate(spec, apex, sol.path.knot_velocity[0]))
    lhs = path_action(spec, path).value / leg_duration
    margin = lhs - (leg_values[1] - leg_values[0])
    return VerificationReport(
        "comparison-inequality",
        max(0.0, -margin),
        tol,
        {
            "n": apex.grid.n,
            "scheme": apex.grid.scheme,
            "epsilon": epsilon,
            "leg_duration": leg_duration,
            "time_steps": time_steps,
            "margin": margin,
            "leg_values": tuple(leg_values),
        },
    )


def verify_noether(
    spec: LagrangianSpec, path: PotentialPath, tol: float = 5e-3
) -> VerificationReport:
    """Constancy of L(udot) along a weak geodesic, plus equidistribution.

    Reports the larger of the sup deviation of L(udot(t)) from its knot mean
    and the worst pairwise L1 distance between decreasing rearrangements of
    udot(t); along an exact weak geodesic the velocities at all times are
    equidistributed, which is the stronger conservation law.
    """
    vels = path.knot_velocity
    values = []
    steps = []
    for i, knot in enumerate(path.knots):
        values.append(evaluate(spec, knot, vels[i]))
        steps.append(decreasing_rearrangement(WeightedValues.from_field(vels[i], knot)))
    values = np.asarray(values)
    spread = float(np.abs(values - values.mean()).max())
    pairwise = 0.0
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            pairwise = max(pairwise, step_l1_distance(steps[i], steps[j]))
    return VerificationReport(
        "noether-constancy",
        max(spread, pairwise),
        tol,
        {
            "n": path.grid.n,
            "scheme": path.grid.scheme,
            "knots": len(path.knots),
            "value_spread": spread,
            "pairwise_l1": pairwise,
            "values": tuple(float(v) for v in values),
        },
    )


def midpoint_convexity_margin(
    spec: LagrangianSpec, path: PotentialPath, fields: np.ndarray
) -> float:
    """Worst midpoint-convexity violation of t -> L(fields(t)) along a path.

    Positive return means g(t_i) exceeds the average of its neighbors
    somewhere, i.e. the sampled function fails discrete convexity.
    """
    fields = np.asarray(fields, dtype=float)
    if fields.shape != path.fields.shape:
        raise ValueError("fields must provide one field per knot")
    return midpoint_excess([evaluate(spec, knot, fields[i]) for i, knot in enumerate(path.knots)])


def midpoint_excess(values: Sequence[float]) -> float:
    """Max over interior samples of g_i - (g_{i-1} + g_{i+1}) / 2; <= 0 for convex samples."""
    g = np.asarray(values, dtype=float)
    return float((g[1:-1] - 0.5 * (g[:-2] + g[2:])).max())


def verify_jacobi_convexity(
    spec: LagrangianSpec,
    problem: EpsGeodesicProblem,
    direction_a: np.ndarray,
    direction_b: np.ndarray,
    delta: float = 1e-3,
    tol: float = 1e-4,
    solution=None,
    field: np.ndarray | None = None,
) -> VerificationReport:
    """Convexity of L along a Jacobi field of an epsilon-geodesic.

    Computes the Jacobi field with the given endpoint directions, evaluates
    g(t_i) = L(xi(t_i)) at u(t_i), and checks discrete midpoint convexity at
    every interior knot.  A precomputed base solution and field may be
    supplied to share solves across Lagrangians.
    """
    if solution is None:
        solution = solve_epsilon_geodesic(problem)
    if field is None:
        field = jacobi_field(problem, direction_a, direction_b, delta)
    worst = max(0.0, midpoint_convexity_margin(spec, solution.path, field))
    return VerificationReport(
        "jacobi-convexity",
        worst,
        tol,
        {
            "n": problem.grid.n,
            "scheme": problem.grid.scheme,
            "epsilon": problem.epsilon,
            "time_steps": problem.time_steps,
            "delta": delta,
        },
    )


def verify_action_convexity(
    spec: LagrangianSpec,
    u_path: PotentialPath,
    v_path: PotentialPath,
    s_duration: float,
    sample_times: Sequence[float],
    tol: float = 5e-3,
    time_steps: int = 16,
    continuation_tol: float = 1e-5,
    solver_tol: float = 1e-8,
) -> VerificationReport:
    """Convexity of t -> least_action(u(t), v(t)) for two weak geodesics.

    sample_times must be uniformly spaced knot times shared by both paths;
    the least action over horizon s_duration is computed at each sample and
    checked for discrete midpoint convexity.
    """
    if u_path.grid != v_path.grid:
        raise ValueError("paths must share one grid")
    if not np.allclose(u_path.times, v_path.times, rtol=0.0, atol=1e-12):
        raise ValueError("paths must share their knot times")
    ts = np.asarray(sample_times, dtype=float)
    if ts.size < 3:
        raise ValueError("need at least three sample times")
    gaps = np.diff(ts)
    if np.any(gaps <= 0.0) or not np.allclose(gaps, gaps[0], rtol=1e-9, atol=1e-12):
        raise ValueError("sample times must be uniformly spaced and increasing")
    indices = []
    for t in ts:
        hits = np.flatnonzero(np.abs(u_path.times - t) <= 1e-9)
        if hits.size != 1:
            raise ValueError(f"sample time {t!r} is not a knot time")
        indices.append(int(hits[0]))
    vals = []
    for idx in indices:
        q = LeastActionQuery(
            u_path.knots[idx],
            v_path.knots[idx],
            s_duration,
            spec,
            tol=continuation_tol,
            time_steps=time_steps,
            solver_tol=solver_tol,
        )
        vals.append(least_action(q))
    worst = max(0.0, midpoint_excess(vals))
    return VerificationReport(
        "action-convexity",
        worst,
        tol,
        {
            "n": u_path.grid.n,
            "scheme": u_path.grid.scheme,
            "s_duration": s_duration,
            "sample_times": tuple(float(t) for t in ts),
            "time_steps": time_steps,
            "values": tuple(float(v) for v in vals),
        },
    )


def verify_least_action_continuity(
    spec: LagrangianSpec,
    start_seq: Sequence[Potential],
    end_seq: Sequence[Potential],
    start: Potential,
    end: Potential,
    duration: float = 1.0,
    tol: float = 5e-3,
    time_steps: int = 16,
    continuation_tol: float = 1e-5,
    solver_tol: float = 1e-8,
    geodesic: PotentialPath | None = None,
) -> VerificationReport:
    """Continuity of least action under decreasing endpoint approximation.

    The endpoint sequences must decrease pointwise to the limits from above.
    The violation measure is the larger of the final discrepancy
    |value_last - limit value| and the net increase of the discrepancy over
    the sequence, so a tail that grows fails even when it ends small.  A
    precomputed weak geodesic between the limits may be supplied for the
    limit value, as in least_action.
    """
    if len(start_seq) != len(end_seq) or not start_seq:
        raise ValueError("endpoint sequences must be non-empty and of equal length")
    slack = 1e-12
    for seq, limit in ((start_seq, start), (end_seq, end)):
        for prev, cur in zip(seq, seq[1:]):
            if float((cur.field - prev.field).max()) > slack:
                raise ValueError("endpoint sequences must decrease pointwise")
        if float((limit.field - seq[-1].field).max()) > slack:
            raise ValueError("endpoint sequences must dominate their limit")

    def value(w, w_prime, path=None):
        q = LeastActionQuery(
            w, w_prime, duration, spec,
            tol=continuation_tol, time_steps=time_steps, solver_tol=solver_tol,
        )
        return least_action(q, path)

    limit_value = value(start, end, geodesic)
    discrepancies = [abs(value(a, b) - limit_value) for a, b in zip(start_seq, end_seq)]
    worst = max(discrepancies[-1], discrepancies[-1] - discrepancies[0])
    return VerificationReport(
        "least-action-continuity",
        worst,
        tol,
        {
            "n": start.grid.n,
            "scheme": start.grid.scheme,
            "terms": len(start_seq),
            "duration": duration,
            "limit_value": limit_value,
            "discrepancies": tuple(discrepancies),
        },
    )
