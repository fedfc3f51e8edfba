"""Path actions, least action, and the theorem-verification experiments.

The action of a path is the time integral of L(udot(t)), the Lagrangian
evaluated against the Monge-Ampere measure of u(t).  Every path takes the
midpoint rule per interval: exact on piecewise-linear segments for Lagrangians
linear in the measure, and second order otherwise, matching the solver.

Least action between two potentials is computed through the connecting weak
geodesic: along such a path the action realizes the infimum over piecewise C1
competitors, which turns the minimization into a solve.  A LeastActionQuery
owns that solve, made on first use and shared by every Lagrangian asked of
it.  Randomized piecewise-linear competitor paths act as upper-bound witnesses
in the verification experiments, never as the estimator; one set is drawn per
endpoint pair and seed and shared by the Lagrangians checked against it.  The
set is drawn in blocks of candidate knots and kept as read-only stacks of knot
times, fields and densities, which are priced a few paths per row call without
building a path.

The verification operations return the VerificationReport of
mal.lagrangians for the structural facts: convexity of L along Jacobi fields,
the triangle comparison for positively homogeneous L, constancy of L(udot)
along weak geodesics, the principle of least action, convexity of
t -> least_action(u(t), v(t)) for two weak geodesics, continuity of least
action under decreasing endpoint approximation, and monotone weak-geodesic
limits along decreasing endpoint sequences.  The least-action sweeps take one
LeastActionQuery, which fixes the Lagrangian, the horizon and the solve
settings, and move only its endpoints.  Every suite pairs with a negative
control in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import GenerationFailed, HomogeneityRequired
from .fixtures import band_limited_rows, rewind_band_limited
from .geodesics import (
    EpsGeodesicProblem,
    jacobi_field,
    solve_epsilon_geodesic,
    sup_distance,
    weak_geodesic,
)
from .grid import Potential, WeightedValues, check_potentials
from .lagrangians import LagrangianSpec, VerificationReport, evaluate, evaluate_rows
from .rearrangement import decreasing_rearrangement, step_l1_distance
from .transport import PotentialPath, interval_quotients


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
        if not 0.0 < self.duration < np.inf:
            raise ValueError(f"duration must be finite and positive, got {self.duration}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError("tol must be finite and positive")

    @cached_property
    def geodesic(self) -> PotentialPath:
        """The weak geodesic from start to end over [0, duration], solved once."""
        return weak_geodesic(
            self.start, self.end, (0.0, self.duration), self.tol, self.time_steps, self.solver_tol
        )


def path_action(spec: LagrangianSpec, path: PotentialPath) -> float:
    """Composite midpoint quadrature of t -> L(udot(t)) along a path.

    Each interval's difference quotient is evaluated against the measure of
    the knot average, whose density is the mean of the knot densities since
    the density is affine in the field.  On a piecewise-linear segment the
    velocity is one field and the density is affine in t, so the rule is
    exact for Orlicz and Power(1), which are linear in the measure; on a
    smooth path, such as a solver's, the quotient is the midpoint velocity to
    second order.  The intervals go to the Lagrangian as one stack of rows.
    """
    return float(_actions(spec, path.times, path.interval_velocity, path.densities))


def _actions(spec: LagrangianSpec, times, velocities, densities) -> np.ndarray:
    """path_action of each path of a stack, from its knot times (..., K), its
    interval velocities (..., K - 1, n, n) and its knot densities (..., K, n, n);
    every interval of the stack goes to the Lagrangian in one row call."""
    dt = np.diff(times, axis=-1)
    n = densities.shape[-1]
    weights = 0.5 * (densities[..., :-1, :, :] + densities[..., 1:, :, :]) / n**2
    return np.sum(dt * _stack_values(spec, velocities, weights), axis=-1)


def _with_ends(first: np.ndarray, interior: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(p, K + 2, n, n) stack of p paths' knots from their (p, K, n, n) interior."""
    shape = (len(interior), 1, *first.shape)
    return np.concatenate(
        (np.broadcast_to(first, shape), interior, np.broadcast_to(last, shape)), axis=1
    )


def _stack_values(spec: LagrangianSpec, fields: np.ndarray, masses: np.ndarray) -> np.ndarray:
    """L of each field of a (..., n, n) stack against the cell masses of its slice."""
    cells = fields.shape[-2] * fields.shape[-1]
    values = evaluate_rows(spec, fields.reshape(-1, cells), masses.reshape(-1, cells))
    return values.reshape(fields.shape[:-2])


def least_action(q: LeastActionQuery) -> float:
    """Least action between two potentials, realized on the weak geodesic.

    The infimum over piecewise C1 paths is attained on the weak geodesic
    between the query endpoints over [0, duration], so the value is the
    action of that single path, q.geodesic.
    """
    return path_action(q.spec, q.geodesic)


_KNOT_BUDGET = 4  # interior knots per competitor path
_AMPLITUDE = 0.05  # first amplitude of a competitor knot draw
_MAX_MODE = 3  # highest Fourier mode of a competitor knot draw
_TRIES = 51  # candidates per knot at most: the first amplitude and 50 halvings
_BLOCK = 6  # candidates per knot judged at once, and drawn ahead per knot to come
_CHUNK = 5  # competitor paths priced per evaluate_rows call

# The last competitor set drawn: its competitor_set key and its read-only
# stacks.  One slot, so it holds one set at most.
_COMPETITORS: dict = {}


def competitor_set(
    start: Potential, end: Potential, duration: float, count: int, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Random admissible piecewise-linear paths between fixed endpoints, as stacks.

    Returns (times, fields, densities): per path its six knot times, shape
    (count, 6), and the fields and densities of its four interior knots, shape
    (count, 4, n, n); the end knots are start and end.  The inner times are
    jittered; each interior knot perturbs the linear interpolant by a random
    band-limited field, redrawn with halved amplitude while the candidate
    leaves the admissible set.  The density is affine in the field, so a draw
    at s = t / duration has density (1 - s) rho_start + s rho_end +
    (lap(draw) - its mean) / 2, from the Laplacian drawn with the field; the
    knot is admitted when that density is positive and is built from it, as
    the solver builds its knots, so no transform runs.  Every knot passes the
    checks of Potential.  Deterministic for a fixed seed.

    The last set drawn is kept in a one-slot memo keyed by the arguments,
    endpoints by identity, so the Lagrangians of one least-action check share
    one draw: every call with that key returns the same read-only stacks.  A
    different key clears the slot first.

    Raises:
        GenerationFailed: if a knot stays inadmissible after 50 shrinkages.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if not 0.0 < duration < np.inf:
        raise ValueError("duration must be finite and positive")
    key = (start, end, duration, count, seed)
    drawn = _COMPETITORS.get(key)
    if drawn is None:
        _COMPETITORS.clear()
        rng = np.random.default_rng(seed)
        n = start.grid.n
        spacing = duration / (_KNOT_BUDGET + 1)
        times = np.empty((count, _KNOT_BUDGET + 2))
        fields, densities = np.empty((2, count, _KNOT_BUDGET, n, n))
        for i in range(count):
            t = np.linspace(0.0, duration, _KNOT_BUDGET + 2)
            t[1:-1] += 0.3 * spacing * rng.uniform(-1.0, 1.0, size=_KNOT_BUDGET)
            times[i] = t
            fields[i], densities[i] = _knots(start, end, t[1:-1] / duration, rng)
        if not (np.isfinite(times).all() and np.all(np.diff(times) > 0.0)):
            raise ValueError("knot times must be finite and strictly increasing")
        check_potentials(fields, densities)
        for stack in (times, fields, densities):
            stack.setflags(write=False)
        drawn = _COMPETITORS[key] = (times, fields, densities)
    return drawn


def _knots(
    start: Potential, end: Potential, fractions: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(fields, densities) of one competitor path's interior knots at the time
    fractions, drawn as competitor_set describes.

    A knot's i-th candidate has amplitude _AMPLITUDE * 2^-i, and the knot
    judges _BLOCK candidates at once.  They come from blocks of _BLOCK per
    knot still to come, made in one call (band_limited_rows).  When a block
    is spent, and after the last knot, the normals of its unused candidates
    go back (rewind_band_limited), so the stream, and every knot, are those of
    one draw at a time.
    """
    grid = start.grid
    fields, densities = np.empty((2, len(fractions), grid.n, grid.n))
    state, used = rng.bit_generator.state, 0
    block = band_limited_rows(grid, rng, _BLOCK * len(fractions), _MAX_MODE)
    for j, s in enumerate(fractions):
        density = (1.0 - s) * start.density + s * end.density
        for first in range(0, _TRIES, _BLOCK):
            rows = min(_BLOCK, _TRIES - first)
            if used + rows > len(block[0]):
                state, used = rewind_band_limited(grid, rng, state, used, _MAX_MODE), 0
                block = band_limited_rows(grid, rng, _BLOCK * (len(fractions) - j), _MAX_MODE)
            f, lap = (b[used : used + rows] for b in block)
            sup = np.abs(f).reshape(rows, -1).max(axis=-1)
            amplitude = _AMPLITUDE * 0.5 ** np.arange(first, first + rows)
            scale = np.divide(amplitude, sup, out=np.zeros(rows), where=sup > 0.0)[:, None, None]
            lap = lap * scale
            candidates = density + 0.5 * (lap - lap.reshape(rows, -1).mean(-1)[:, None, None])
            admitted = np.flatnonzero(candidates.reshape(rows, -1).min(axis=-1) > 0.0)
            if admitted.size:
                i = admitted[0]
                fields[j] = (1.0 - s) * start.field + s * end.field + f[i] * scale[i]
                densities[j] = candidates[i]
                used += i + 1
                break
            used += rows
        else:
            raise GenerationFailed(
                f"no admissible knot at s = {s:.4g} after {_TRIES - 1} amplitude shrinkages"
            )
    rewind_band_limited(grid, rng, state, used, _MAX_MODE)
    return fields, densities


def competitor_paths(
    start: Potential, end: Potential, duration: float, count: int, seed: int
) -> list[PotentialPath]:
    """The competitor set of competitor_set as paths, its interior knots
    validated Potentials on views of the set's stacks; fresh paths every call."""
    times, fields, densities = competitor_set(start, end, duration, count, seed)
    return [
        PotentialPath(t, (start, *(Potential(start.grid, *k) for k in zip(f, d)), end))
        for t, f, d in zip(times, fields, densities)
    ]


def verify_least_action(
    q: LeastActionQuery,
    count: int = 20,
    seed: int = 0,
    tol: float = 5e-3,
    geodesic: PotentialPath | None = None,
) -> VerificationReport:
    """Check that no random competitor beats the connecting weak geodesic.

    The worst violation is max(0, geodesic action - competitor action) over
    the generated competitors, each with four interior knots first drawn at
    amplitude 0.05; the margin distribution is recorded.
    The tolerance absorbs the time discretization and continuation gap of the
    geodesic action, and the second-order quadrature error of Lagrangians
    not linear in the measure.  geodesic defaults to q.geodesic; a ValueError
    rejects a given one whose end knot fields differ from q.start and q.end.
    """
    geodesic = q.geodesic if geodesic is None else geodesic
    for knot, end in ((geodesic.knots[0], q.start), (geodesic.knots[-1], q.end)):
        if not np.array_equal(knot.field, end.field):
            raise ValueError("geodesic must join the query endpoints")
    g_action = path_action(q.spec, geodesic)
    times, fields, densities = competitor_set(q.start, q.end, q.duration, count, seed)
    # a few paths per call, so the stacks of the whole set never coexist
    margins = []
    for chunk in range(0, count, _CHUNK):
        t = times[chunk : chunk + _CHUNK]
        f = _with_ends(q.start.field, fields[chunk : chunk + _CHUNK], q.end.field)
        d = _with_ends(q.start.density, densities[chunk : chunk + _CHUNK], q.end.density)
        margins += (_actions(q.spec, t, interval_quotients(t, f), d) - g_action).tolist()
    worst = max(0.0, -min(margins))
    return VerificationReport(
        "least-action",
        worst,
        tol,
        {
            "seed": seed,
            "count": count,
            "knot_budget": _KNOT_BUDGET,
            "amplitude": _AMPLITUDE,
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
    tol: float = 5e-3,
    epsilon: float = 1e-2,
    time_steps: int = 16,
    solver_tol: float = 1e-8,
) -> VerificationReport:
    """Triangle comparison for positively homogeneous Lagrangians.

    Solves the two epsilon-geodesic legs over [0, 1] from the apex to the
    endpoints of the path and checks

        action(path) >= L(leg_end_velocity) - L(leg_start_velocity)

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
        p = EpsGeodesicProblem(apex, endpoint, (0.0, 1.0), epsilon, time_steps, solver_tol)
        sol = solve_epsilon_geodesic(p)
        leg_values.append(evaluate(spec, apex, sol.path.knot_velocity[0]))
    margin = path_action(spec, path) - (leg_values[1] - leg_values[0])
    return VerificationReport(
        "comparison-inequality",
        max(0.0, -margin),
        tol,
        {
            "n": apex.grid.n,
            "scheme": apex.grid.scheme,
            "epsilon": epsilon,
            "leg_duration": 1.0,
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
    values = _stack_values(spec, vels, path.densities / path.grid.n**2)
    steps = [
        decreasing_rearrangement(WeightedValues.from_field(vels[i], knot))
        for i, knot in enumerate(path.knots)
    ]
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
    return midpoint_excess(_stack_values(spec, fields, path.densities / path.grid.n**2))


def midpoint_excess(values: Sequence[float]) -> float:
    """Max over interior samples of g_i - (g_{i-1} + g_{i+1}) / 2; <= 0 for convex samples."""
    g = np.asarray(values, dtype=float)
    return float((g[1:-1] - 0.5 * (g[:-2] + g[2:])).max())


def verify_jacobi_convexity(
    spec: LagrangianSpec,
    problem: EpsGeodesicProblem,
    direction_a: np.ndarray,
    direction_b: np.ndarray,
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
        field = jacobi_field(problem, direction_a, direction_b)
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
        },
    )


def verify_action_convexity(
    q: LeastActionQuery,
    u_path: PotentialPath,
    v_path: PotentialPath,
    stride: int,
    tol: float = 5e-3,
) -> VerificationReport:
    """Convexity of t -> least_action(u(t), v(t)) for two weak geodesics.

    q joins the first knots of the two paths; at every stride-th knot its
    endpoints move to that knot of each path, and the sampled least actions
    are checked for discrete midpoint convexity.  Both paths must share
    uniformly spaced knot times.
    """
    if q.start is not u_path.knots[0] or q.end is not v_path.knots[0]:
        raise ValueError("q must join the first knots of the two paths")
    if not np.allclose(u_path.times, v_path.times, rtol=0.0, atol=1e-12):
        raise ValueError("paths must share their knot times")
    u_path.uniform_step  # raises ValueError unless the knots are uniformly spaced
    indices = range(0, len(u_path.knots), stride)
    if len(indices) < 3:
        raise ValueError("need at least three sample times")
    vals = [least_action(replace(q, start=u_path.knots[i], end=v_path.knots[i])) for i in indices]
    worst = max(0.0, midpoint_excess(vals))
    return VerificationReport(
        "action-convexity",
        worst,
        tol,
        {
            "n": u_path.grid.n,
            "scheme": u_path.grid.scheme,
            "s_duration": q.duration,
            "sample_times": tuple(float(u_path.times[i]) for i in indices),
            "time_steps": q.time_steps,
            "values": tuple(float(v) for v in vals),
        },
    )


def verify_least_action_continuity(
    q: LeastActionQuery,
    start_seq: Sequence[Potential],
    end_seq: Sequence[Potential],
    tol: float = 5e-3,
) -> VerificationReport:
    """Continuity of least action under decreasing endpoint approximation.

    q is the limit query; each term replaces its endpoints by one pair of the
    sequences, which must decrease pointwise to the limits from above.  The
    violation measure is the larger of the final discrepancy
    |value_last - limit value| and the net increase of the discrepancy over
    the sequence, so a tail that grows fails even when it ends small.  The
    limit value is taken on q.geodesic, so a query whose geodesic is already
    solved does not solve it again.
    """
    require_decreasing_to(start_seq, end_seq, q.start, q.end)
    limit_value = least_action(q)
    discrepancies = [
        abs(least_action(replace(q, start=a, end=b)) - limit_value)
        for a, b in zip(start_seq, end_seq)
    ]
    worst = max(discrepancies[-1], discrepancies[-1] - discrepancies[0])
    return VerificationReport(
        "least-action-continuity",
        worst,
        tol,
        {
            "n": q.start.grid.n,
            "scheme": q.start.grid.scheme,
            "terms": len(start_seq),
            "duration": q.duration,
            "limit_value": limit_value,
            "discrepancies": tuple(discrepancies),
        },
    )


def require_decreasing_to(a_seq, b_seq, a: Potential, b: Potential) -> None:
    """ValueError unless both endpoint sequences are non-empty and of equal
    length, decrease pointwise, and dominate their limits a and b."""
    if len(a_seq) != len(b_seq) or not a_seq:
        raise ValueError("endpoint sequences must be non-empty and of equal length")
    slack = 1e-12
    for seq, limit in ((a_seq, a), (b_seq, b)):
        for earlier, later in zip(seq, seq[1:]):
            if float((earlier.field - later.field).min()) < -slack:
                raise ValueError("endpoint sequences must decrease pointwise")
        if float((seq[-1].field - limit.field).min()) < -slack:
            raise ValueError("endpoint sequences must dominate their limit")


def monotone_limit_check(
    u_a_seq: list[Potential],
    u_b_seq: list[Potential],
    u_a: Potential,
    u_b: Potential,
    tol: float = 1e-6,
    time_steps: int = 32,
) -> VerificationReport:
    """Decreasing endpoint sequences should give pointwise decreasing geodesics.

    Solves the weak geodesic over [0, 1] for each endpoint pair and for the
    limit pair, then reports max(0, -min margin), the margins being the
    pointwise drops between consecutive paths and against the limit path,
    and records the violation count and the final sup-distance to the limit.
    """
    require_decreasing_to(u_a_seq, u_b_seq, u_a, u_b)
    paths = [
        weak_geodesic(a, b, (0.0, 1.0), tol, time_steps) for a, b in zip(u_a_seq, u_b_seq)
    ]
    limit_path = weak_geodesic(u_a, u_b, (0.0, 1.0), tol, time_steps)
    min_margin = np.inf
    violations = 0
    for earlier, later in zip(paths, paths[1:]):
        margin = float((earlier.fields - later.fields).min())
        min_margin = min(min_margin, margin)
        violations += int(margin < -tol)
    for path in paths:
        margin = float((path.fields - limit_path.fields).min())
        min_margin = min(min_margin, margin)
        violations += int(margin < -tol)
    return VerificationReport(
        "monotone-limit",
        max(0.0, -min_margin),
        tol,
        {
            "min_margin": min_margin,
            "violations": violations,
            "final_sup_distance": sup_distance(paths[-1], limit_path),
        },
    )
