"""Epsilon-geodesic boundary value problems and their vanishing-viscosity limits.

The two-point problem for a path u(t) between fixed admissible endpoints is,
per interior time knot,

    D_t^2 u = ((1/2)|grad udot|^2 + epsilon) / rho_u,

with centered time differences on a uniform knot grid.  Solutions for
epsilon > 0 are produced by a damped matrix-free Newton iteration (Krylov
linear solves preconditioned by a constant-coefficient space-time operator
diagonalized by sine and Fourier transforms).  Weak geodesics arise as
warm-started continuation limits along a halving epsilon schedule.

Jacobi fields along an epsilon-geodesic are central differences of
endpoint-perturbed solution families; the second-order Jacobi equation then
serves as an independent residual check on them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.fft
from numpy.typing import NDArray
from scipy.sparse.linalg import LinearOperator, lgmres

from .errors import NonConvergence, NotKahler, PerturbationTooLarge, PositivityLoss
from .grid import (
    Grid,
    GridField,
    Potential,
    _frozen,
    dx,
    dy,
    fourier_symbols,
    gradient,
    laplacian,
    make_potential,
    poisson_bracket,
)
from .transport import PotentialPath, centered_differences, covariant_derivative

_LINE_SEARCH_HALVINGS = 30
_MAX_LEVELS = 60
_MAX_NEWTON_STEPS = 60


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
        a, b = self.interval
        if not a < b:
            raise ValueError("interval must satisfy a < b")
        # written so that NaN, which fails every comparison, is rejected too
        if not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and >= 0")
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


def _interior_residual(fields, dt, eps, grid):
    """Residual, density, velocity gradient, and forcing at interior knots."""
    rho = 1.0 + 0.5 * laplacian(fields, grid)
    udot, second = centered_differences(fields, dt)
    gx, gy = gradient(udot, grid)
    forcing = 0.5 * (gx * gx + gy * gy) + eps
    res = second - forcing / rho[1:-1]
    return res, rho, gx, gy, forcing


def _jacobian_operator(fields, dt, grid, rho, gx, gy, forcing):
    """Matrix-free directional derivative of the interior residual."""
    m_int = fields.shape[0] - 2
    n = grid.n
    rho_i = rho[1:-1]

    def matvec(flat):
        v = np.zeros_like(fields)
        v[1:-1] = flat.reshape(m_int, n, n)
        vdot, second = centered_differences(v, dt)
        vx, vy = gradient(vdot, grid)
        out = (
            second
            - (gx * vx + gy * vy) / rho_i
            + forcing * (0.5 * laplacian(v[1:-1], grid)) / rho_i**2
        )
        return out.ravel()

    size = m_int * n * n
    return LinearOperator((size, size), matvec=matvec, dtype=float)


def _preconditioner(m_int, dt, grid, coeff):
    """Inverse of D_t^2 + coeff * Laplacian, diagonal in sine x Fourier modes."""
    lam_t = (2.0 * np.cos(np.pi * np.arange(1, m_int + 1) / (m_int + 1)) - 2.0) / dt**2
    denom = lam_t[:, None, None] + coeff * fourier_symbols(grid).lap[None, :, :]
    n = grid.n

    def solve(flat):
        w = flat.reshape(m_int, n, n)
        w = scipy.fft.dst(w, type=1, axis=0, norm="ortho")
        w = scipy.fft.rfft2(w, axes=(-2, -1))
        w = scipy.fft.irfft2(w / denom, s=(n, n), axes=(-2, -1))
        w = scipy.fft.dst(w, type=1, axis=0, norm="ortho")
        return w.ravel()

    size = m_int * n * n
    return LinearOperator((size, size), matvec=solve, dtype=float)


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
    """Solve the two-point problem for epsilon > 0 by damped Newton iteration.

    initial optionally warm-starts the iteration with a full knot stack
    (endpoints are overwritten with the problem data).

    Raises:
        NonConvergence: if 60 Newton steps leave the residual above
            tol, or a line search finds no admissible decrease.
        PositivityLoss: if damping cannot keep an iterate admissible.
    """
    if p.epsilon <= 0:
        raise ValueError("solve_epsilon_geodesic needs epsilon > 0")
    grid = p.grid
    m = p.time_steps
    a, b = p.interval
    dt = (b - a) / m
    fields = np.array(initial, dtype=float) if initial is not None else _default_initial(p)
    if fields.shape != (m + 1, grid.n, grid.n):
        raise ValueError("initial guess must provide one field per knot")
    fields[0] = p.endpoint_a.field
    fields[-1] = p.endpoint_b.field

    res, rho, gx, gy, forcing = _interior_residual(fields, dt, p.epsilon, grid)
    res_norm = float(np.abs(res).max())
    iterations = 0  # lgmres calls, one per Newton step
    while res_norm > p.solver_tol:
        if iterations == _MAX_NEWTON_STEPS:
            raise NonConvergence(iterations, res_norm)
        iterations += 1
        op = _jacobian_operator(fields, dt, grid, rho, gx, gy, forcing)
        coeff = float(np.mean(forcing / (2.0 * rho[1:-1] ** 2)))
        prec = _preconditioner(m - 1, dt, grid, coeff)
        step, _ = lgmres(op, -res.ravel(), M=prec, rtol=1e-4, atol=0.0, maxiter=40)
        step = step.reshape(m - 1, grid.n, grid.n)

        alpha = 1.0
        admissible = False
        for _ in range(_LINE_SEARCH_HALVINGS + 1):
            trial = fields.copy()
            trial[1:-1] += alpha * step
            t_res, t_rho, t_gx, t_gy, t_forcing = _interior_residual(
                trial, dt, p.epsilon, grid
            )
            alpha *= 0.5
            if float(t_rho.min()) <= 0.0:
                worst = np.unravel_index(int(np.argmin(t_rho)), t_rho.shape)
                continue
            admissible = True
            t_norm = float(np.abs(t_res).max())
            if t_norm < res_norm:
                fields = trial
                res, rho, gx, gy, forcing = t_res, t_rho, t_gx, t_gy, t_forcing
                res_norm = t_norm
                break
        else:
            if not admissible:
                raise PositivityLoss(int(worst[0]), (int(worst[1]), int(worst[2])))
            raise NonConvergence(iterations, res_norm)

    knots = [p.endpoint_a]
    knots.extend(make_potential(fields[i], grid) for i in range(1, m))
    knots.append(p.endpoint_b)
    path = PotentialPath(_frozen(p.times), tuple(knots), "solver-native")
    return GeodesicSolution(path, res_norm, p.epsilon, iterations)


def epsilon_continuation(
    u_a: Potential,
    u_b: Potential,
    interval: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-6,
    time_steps: int = 32,
    solver_tol: float = 1e-8,
) -> list[GeodesicSolution]:
    """Warm-started solves along the halving schedule epsilon = 1, 1/2, 1/4, ...

    Stops once successive solutions differ by less than tol in sup norm;
    raises NonConvergence if 60 halvings leave the gap above tol.
    """
    problem = EpsGeodesicProblem(u_a, u_b, interval, 1.0, time_steps, solver_tol)
    sols = [solve_epsilon_geodesic(problem)]
    for _ in range(_MAX_LEVELS):
        problem = replace(problem, epsilon=problem.epsilon / 2.0)
        nxt = solve_epsilon_geodesic(problem, initial=sols[-1].path.fields)
        gap = sup_distance(nxt.path, sols[-1].path)
        sols.append(nxt)
        if gap < tol:
            return sols
    raise NonConvergence(_MAX_LEVELS, gap)


def weak_geodesic(
    u_a: Potential,
    u_b: Potential,
    interval: tuple[float, float] = (0.0, 1.0),
    tol: float = 1e-6,
    time_steps: int = 32,
    solver_tol: float = 1e-8,
) -> PotentialPath:
    """Vanishing-regularization limit path between two admissible potentials."""
    sols = epsilon_continuation(u_a, u_b, interval, tol, time_steps, solver_tol)
    return sols[-1].path


def hcma_residual(path: PotentialPath) -> NDArray[np.float64]:
    """c(t, x) = udotdot rho_u - (1/2)|grad udot|^2 at interior knots.

    Vanishes for weak geodesics and equals epsilon for epsilon-geodesics.
    """
    if len(path.knots) < 3:
        raise ValueError("need at least three knots")
    udot, second = centered_differences(path.fields, path.uniform_step)
    gx, gy = gradient(udot, path.grid)
    return second * path.densities[1:-1] - 0.5 * (gx * gx + gy * gy)


def time_convexity_margin(path: PotentialPath) -> float:
    """Min over interior knots and cells of the second time difference."""
    _, second = centered_differences(path.fields, path.uniform_step)
    return float(second.min())


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
        PerturbationTooLarge: if a shifted endpoint leaves the admissible set.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    grid = p.grid

    def shifted(sign):
        try:
            ea = make_potential(p.endpoint_a.field + sign * delta * direction_a, grid)
            eb = make_potential(p.endpoint_b.field + sign * delta * direction_b, grid)
        except NotKahler as exc:
            raise PerturbationTooLarge(
                f"endpoint shift of size {delta:g} leaves the admissible set"
            ) from exc
        return replace(p, endpoint_a=ea, endpoint_b=eb)

    base = _default_initial(p)
    lam = ((p.times - p.interval[0]) / (p.interval[1] - p.interval[0]))[:, None, None]
    ramp = (1.0 - lam) * direction_a + lam * direction_b
    plus = solve_epsilon_geodesic(shifted(+1.0), initial=base + delta * ramp)
    minus = solve_epsilon_geodesic(shifted(-1.0), initial=plus.path.fields - 2.0 * delta * ramp)
    return (plus.path.fields - minus.path.fields) / (2.0 * delta)


def jacobi_residual(sol: GeodesicSolution, xi: NDArray[np.float64]) -> float:
    """Sup norm of the linearized geodesic equation applied to xi.

    The discrete equation checked is

        rho_u grad_t^2 xi = (1/4){{udot, xi}, udot} rho_u
                            - (eps/2) div(F(u) grad xi),

    with grad_t the path's covariant derivative applied twice (its interior
    quotients are centered, so knots 2 .. m-2 of grad_t^2 xi see no one-sided
    edge quotient), the Poisson brackets from the grid operations, and
    F = 1/rho_u.

    The sup runs over knots in the middle third of the interval.  Endpoint
    data is only finitely compatible with the equation, so the outermost
    knots carry a persistent layer in higher time derivatives; interior
    consistency at the nominal order holds away from it.
    """
    path = sol.path
    xi = np.asarray(xi, dtype=float)
    if xi.shape != path.fields.shape:
        raise ValueError("xi must provide one field per knot")
    m = len(path.knots) - 1
    if m < 4:
        raise ValueError("need at least four time intervals")
    g = path.grid
    second = covariant_derivative(path, covariant_derivative(path, xi))[2 : m - 1]
    udot = path.knot_velocity[2 : m - 1]
    bracket = np.empty_like(second)
    div_term = np.empty_like(second)
    for j, i in enumerate(range(2, m - 1)):
        u = path.knots[i]
        inner = poisson_bracket(u, udot[j], xi[i])
        bracket[j] = poisson_bracket(u, inner, udot[j])
        xx, xy = gradient(xi[i], g)
        f = 1.0 / u.density
        div_term[j] = dx(f * xx, g) + dy(f * xy, g)
    rho = path.densities[2 : m - 1]
    residual = rho * second - 0.25 * bracket * rho + 0.5 * sol.epsilon * div_term
    lo = max((m + 2) // 3, 2)
    hi = min((2 * m) // 3, m - 2)
    return float(np.abs(residual[lo - 2 : hi - 1]).max())
