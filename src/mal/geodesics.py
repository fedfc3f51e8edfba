"""Epsilon-geodesic boundary value problems and their vanishing-viscosity limits.

The two-point problem for a path u(t) between fixed admissible endpoints is,
per interior time knot,

    D_t^2 u = ((1/2)|grad udot|^2 + epsilon) / rho_u,

with centered time differences on a uniform knot grid.  Solutions for
epsilon > 0 are produced by a damped matrix-free Newton iteration.  Each
Newton system J s = -res is right-preconditioned by a constant-coefficient
space-time operator P that real orthonormal bases diagonalize, sine in time
and the eigenvectors of the grid's second-derivative matrix in space: a
Krylov method solves J P^-1 y = -res, each apply a chain of small dense
matrix products along one axis of the stack, and the step is s = P^-1 y.
Krylov starts at the preconditioned step y0 = -res, and its relative
tolerance loosens near the solution, so no solve is pushed far below
solver_tol.  Weak geodesics arise as continuation limits along a halving
epsilon schedule, each level warm-started by a secant predictor in epsilon.

Every iterate is admissible: a warm start needs positive interior densities,
and the line search halves the step until a trial is admissible and lowers the
sup residual.  Every density comes from grid.ma_density, and the solved path
is the last iterate with the densities computed for it, none recomputed.

Jacobi fields along an epsilon-geodesic are central differences of
endpoint-perturbed solution families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import NonConvergence, NotKahler, PositivityLoss
from .grid import (
    Grid,
    GridField,
    Potential,
    _frozen,
    axis_matrices,
    ma_density,
    make_potential,
)
from .transport import PotentialPath, centered_differences

_LINE_SEARCH_HALVINGS = 30
_MAX_LEVELS = 60
_MAX_NEWTON_STEPS = 60
# Krylov forcing term: rtol = clip(_FORCING * solver_tol / |res|_sup, _RTOL_MIN,
# _RTOL_MAX).  The factor sits below Kelley's 0.5 because the Newton stop test
# takes the sup norm of the residual and lgmres the 2-norm.
_FORCING = 0.1
_RTOL_MIN = 1e-4
_RTOL_MAX = 0.1


@dataclass(frozen=True)
class EpsGeodesicProblem:
    """Two-point boundary data for the regularized geodesic equation."""

    endpoint_a: Potential
    endpoint_b: Potential
    interval: tuple[float, float]
    epsilon: float
    time_steps: int = 32
    solver_tol: float = 1e-8

    def __post_init__(self):
        if self.endpoint_a.grid != self.endpoint_b.grid:
            raise ValueError("endpoints must share one grid")
        # written so that NaN, which fails every comparison, is rejected too
        if not -np.inf < self.interval[0] < self.interval[1] < np.inf:
            raise ValueError("interval must be finite with a < b")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and positive")
        if self.time_steps < 2:
            raise ValueError("need at least two time steps")
        if not 0 < self.solver_tol < np.inf:
            raise ValueError("solver_tol must be finite and positive")

    @property
    def grid(self) -> Grid:
        return self.endpoint_a.grid

    @property
    def times(self) -> NDArray[np.float64]:
        a, b = self.interval
        return np.linspace(a, b, self.time_steps + 1)


@dataclass(frozen=True, eq=False)
class GeodesicSolution:
    """Solved path with the attained residual and iteration count."""

    path: PotentialPath
    residual_norm: float
    epsilon: float
    iterations: int


@dataclass(frozen=True, eq=False)
class _Linearization:
    """Interior residual, its sup norm, all knot densities, grad udot and forcing."""

    res: NDArray[np.float64]
    norm: float
    rho: NDArray[np.float64]
    grad_udot: tuple[NDArray[np.float64], NDArray[np.float64]]
    forcing: NDArray[np.float64]


def _linearize(fields, rho, dt, eps, grid) -> _Linearization:
    """Linearize the interior residual at a stack with positive densities rho."""
    udot, second = centered_differences(fields, dt)
    d1 = axis_matrices(grid).d1
    gx, gy = d1 @ udot, udot @ d1.T
    forcing = 0.5 * (gx * gx + gy * gy) + eps
    res = second - forcing / rho[1:-1]
    return _Linearization(res, float(np.abs(res).max()), rho, (gx, gy), forcing)


@lru_cache(maxsize=16)
def _sine_bases(m_int: int) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Orthonormal DST-I matrix S on m_int interior knots, and S stacked on D S.

    S is symmetric and its own inverse.  D is the centred difference
    v[i+1] - v[i-1] with v = 0 at both endpoints, so one product with the
    stack maps sine coefficients to knot values and their undivided centred
    differences.
    """
    k = np.arange(1, m_int + 1)
    s = np.sqrt(2.0 / (m_int + 1)) * np.sin(np.pi * np.outer(k, k) / (m_int + 1))
    padded = np.pad(s, ((1, 1), (0, 0)))
    stacked = np.concatenate([s, padded[2:] - padded[:-2]])
    for a in (s, stacked):
        a.setflags(write=False)
    return s, stacked


def _newton_operators(dt, grid, lin: _Linearization):
    """The right-preconditioned Jacobian J P^-1 and the preconditioner solve P^-1.

    J is the directional derivative of the interior residual,

        J v = D_t^2 v + c lap v - (grad udot . grad vdot) / rho,   c = forcing / (2 rho^2),

    and P = D_t^2 + mean(c) lap is diagonal in the sine basis (time) times
    the eigenbasis of the grid's axis matrix d2 along x and along y.  Since
    P P^-1 y = y, with w = P^-1 y

        J P^-1 y = y + (c - mean(c)) lap w - (grad udot . grad wdot) / rho,

    so one apply is a chain of small dense matrix products along one axis of
    the stack at a time, with no transform.
    """
    m_int, n = lin.forcing.shape[0], grid.n
    rho_i = lin.rho[1:-1]
    d1, d2, basis, eigen = axis_matrices(grid)
    s, stacked = _sine_bases(m_int)
    c = lin.forcing / (2.0 * rho_i**2)
    c_mean = float(np.mean(c))
    lam_t = (2.0 * np.cos(np.pi * np.arange(1, m_int + 1) / (m_int + 1)) - 2.0) / dt**2
    inv_denom = 1.0 / (lam_t[:, None, None] + c_mean * (eigen[:, None] + eigen))
    c_dev = c - c_mean
    # D in _sine_bases is undivided; its 1/(2 dt) is folded in here
    ax, ay = (g / (2.0 * dt * rho_i) for g in lin.grad_udot)

    def in_time(matrix, stack):
        """matrix applied along the knot axis of a stack."""
        return (matrix @ stack.reshape(m_int, -1)).reshape(-1, n, n)

    def in_space(flat):
        """Sine coefficients in time, grid values in space, of P^-1 y."""
        coef = basis.T @ in_time(s, flat) @ basis * inv_denom
        return basis @ coef @ basis.T

    def matvec(flat):
        # w = P^-1 y and its centred time difference
        both = in_time(stacked, in_space(flat))
        w, wdot = both[:m_int], both[m_int:]
        out = flat.reshape(m_int, n, n) + c_dev * (d2 @ w + w @ d2)
        out -= ax * (d1 @ wdot) + ay * (wdot @ d1.T)
        return out.ravel()

    def solve(flat):
        return in_time(s, in_space(flat))

    size = m_int * n * n
    return LinearOperator((size, size), matvec=matvec, dtype=float), solve


def _default_initial(p: EpsGeodesicProblem) -> NDArray[np.float64]:
    """Linear endpoint interpolation plus the spatially constant sag."""
    a, b = p.interval
    tau = p.times - a
    span = b - a
    lam = (tau / span)[:, None, None]
    sag = 0.5 * p.epsilon * (tau * (tau - span))[:, None, None]
    return (1.0 - lam) * p.endpoint_a.field + lam * p.endpoint_b.field + sag


def solve_epsilon_geodesic(
    p: EpsGeodesicProblem, initial: NDArray[np.float64] | None = None
) -> GeodesicSolution:
    """Solve the two-point problem by damped Newton iteration.

    initial optionally warm-starts the iteration with a full, finite knot
    stack (endpoints are overwritten with the problem data) whose interior
    densities are positive.

    Each Newton step solves J P^-1 y = -res by lgmres started at y0 = -res,
    i.e. at the preconditioned step P^-1(-res), so no apply sees the zero
    vector.  Its relative tolerance is 1e-4 far from the solution and looser
    near it, 0.1 solver_tol / |res|_sup capped at 0.1, so the last step of a
    solve is not solved past what solver_tol asks.

    Raises:
        NotKahler: if the warm start has a non-positive interior density.
        NonConvergence: if the starting residual is not finite, 60 Newton
            steps leave the residual above tol, or a line search finds no
            admissible decrease.
        PositivityLoss: if even the shortest trial of a line search is
            inadmissible, at that trial's smallest density.
    """
    grid = p.grid
    m = p.time_steps
    dt = (p.interval[1] - p.interval[0]) / m
    fields = np.array(initial, dtype=float) if initial is not None else _default_initial(p)
    if fields.shape != (m + 1, grid.n, grid.n):
        raise ValueError("initial guess must provide one field per knot")
    if not np.isfinite(fields).all():
        raise ValueError("initial guess must be finite")
    fields[0] = p.endpoint_a.field
    fields[-1] = p.endpoint_b.field
    rho = ma_density(fields, grid)
    if not rho.min() > 0.0:
        raise NotKahler(float(rho.min()))

    lin = _linearize(fields, rho, dt, p.epsilon, grid)
    if not np.isfinite(lin.norm):
        # accepted trials only lower a finite norm, so only the start can get here
        raise NonConvergence(0, lin.norm)
    iterations = 0  # lgmres calls, one per Newton step
    while lin.norm > p.solver_tol:
        if iterations == _MAX_NEWTON_STEPS:
            raise NonConvergence(iterations, lin.norm)
        iterations += 1
        op, precondition = _newton_operators(dt, grid, lin)
        rtol = min(_RTOL_MAX, max(_RTOL_MIN, _FORCING * p.solver_tol / lin.norm))
        y, _ = lgmres(op, -lin.res.ravel(), x0="Mb", rtol=rtol, atol=0.0, maxiter=40)
        step = precondition(y)

        # rho is affine in alpha, so if the shortest trial is inadmissible all were
        alpha = 1.0
        for _ in range(_LINE_SEARCH_HALVINGS + 1):
            trial = fields.copy()
            trial[1:-1] += alpha * step
            alpha *= 0.5
            rho = ma_density(trial, grid)
            if rho.min() > 0.0:
                t_lin = _linearize(trial, rho, dt, p.epsilon, grid)
                if t_lin.norm < lin.norm:
                    fields, lin = trial, t_lin
                    break
        else:
            if not rho.min() > 0.0:
                knot, i, j = np.unravel_index(int(np.argmin(rho)), rho.shape)
                raise PositivityLoss(int(knot), (int(i), int(j)))
            raise NonConvergence(iterations, lin.norm)

    # one copy per knot: views into the stacks would keep both stacks alive
    knots = (Potential(grid, _frozen(fields[i]), _frozen(lin.rho[i])) for i in range(1, m))
    path = PotentialPath(_frozen(p.times), (p.endpoint_a, *knots, p.endpoint_b))
    return GeodesicSolution(path, lin.norm, p.epsilon, iterations)


def epsilon_continuation(
    u_a: Potential,
    u_b: Potential,
    interval: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-6,
    time_steps: int = 32,
    solver_tol: float = 1e-8,
) -> list[GeodesicSolution]:
    """Warm-started solves along the halving schedule epsilon = 1, 1/2, 1/4, ...

    Level 1 starts from level 0's path.  From level 2 on, a secant predictor
    extrapolates the last two paths linearly in epsilon, u_k + (u_k - u_{k-1})/2
    on the halving schedule, and falls back to u_k when that guess has a
    non-positive interior density.

    Stops once successive solutions differ by less than tol in sup norm;
    raises NonConvergence if 60 halvings leave the gap above tol.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    problem = EpsGeodesicProblem(u_a, u_b, interval, 1.0, time_steps, solver_tol)
    sols = [solve_epsilon_geodesic(problem)]
    for _ in range(_MAX_LEVELS):
        problem = replace(problem, epsilon=problem.epsilon / 2.0)
        nxt = solve_epsilon_geodesic(problem, initial=_secant_start(sols))
        gap = sup_distance(nxt.path, sols[-1].path)
        sols.append(nxt)
        if gap < tol:
            return sols
    raise NonConvergence(_MAX_LEVELS, gap)


def _secant_start(sols: list[GeodesicSolution]) -> NDArray[np.float64]:
    """Warm start for the next halving level: the secant guess if admissible, else u_k."""
    last = sols[-1].path.fields
    if len(sols) < 2:
        return last
    guess = last + 0.5 * (last - sols[-2].path.fields)
    if ma_density(guess[1:-1], sols[-1].path.grid).min() > 0.0:
        return guess
    return last


def weak_geodesic(
    u_a: Potential,
    u_b: Potential,
    interval: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-6,
    time_steps: int = 32,
    solver_tol: float = 1e-8,
) -> PotentialPath:
    """Vanishing-regularization limit path between two admissible potentials."""
    return epsilon_continuation(u_a, u_b, interval, tol, time_steps, solver_tol)[-1].path


def hcma_residual(path: PotentialPath) -> NDArray[np.float64]:
    """c(t, x) = udotdot rho_u - (1/2)|grad udot|^2 at interior knots.

    Vanishes for weak geodesics and equals epsilon for epsilon-geodesics.  It
    is rho_u times the solver's interior residual at epsilon = 0.
    """
    if len(path.knots) < 3:
        raise ValueError("need at least three knots")
    lin = _linearize(path.fields, path.densities, path.uniform_step, 0.0, path.grid)
    return path.densities[1:-1] * lin.res


def sup_distance(a: PotentialPath, b: PotentialPath) -> float:
    """Sup over knots and cells of the field difference."""
    return float(np.abs(a.fields - b.fields).max())


def jacobi_field(
    p: EpsGeodesicProblem,
    direction_a: GridField,
    direction_b: GridField,
    delta: float = 1e-3,
) -> NDArray[np.float64]:
    """Per-knot variation field by central differencing of a perturbed family.

    Solves the problem with endpoints shifted by +delta and -delta times the
    given directions and returns the difference quotient stack.

    Raises:
        NotKahler: if a shifted endpoint or a warm start is not admissible.
    """
    if not 0 < delta < np.inf:
        raise ValueError("delta must be finite and positive")

    def shifted(sign):
        ea = make_potential(p.endpoint_a.field + sign * delta * direction_a, p.grid)
        eb = make_potential(p.endpoint_b.field + sign * delta * direction_b, p.grid)
        return replace(p, endpoint_a=ea, endpoint_b=eb)

    base = _default_initial(p)
    lam = ((p.times - p.interval[0]) / (p.interval[1] - p.interval[0]))[:, None, None]
    ramp = (1.0 - lam) * direction_a + lam * direction_b
    plus = solve_epsilon_geodesic(shifted(+1.0), initial=base + delta * ramp)
    minus = solve_epsilon_geodesic(shifted(-1.0), initial=plus.path.fields - 2.0 * delta * ramp)
    return (plus.path.fields - minus.path.fields) / (2.0 * delta)

