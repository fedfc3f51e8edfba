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
solver_tol.

Krylov runs in single precision: its relative tolerance is never below 1e-4,
which float32 products resolve, so lgmres is handed a float32 system whose
right-hand side is -res scaled to unit 2-norm, and the step is scaled back in
float64.  The residual, the line search, every density and every iterate
stay float64, so the stop test |res|_sup <= solver_tol and the accuracy of
the solved path do not depend on the Krylov precision.

Weak geodesics arise as continuation limits along a halving epsilon schedule,
each level warm-started by polynomial extrapolation in epsilon through the
last (up to four) solved paths.

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
    gradient,
    ma_density,
    make_potential,
)
from .transport import PotentialPath, centered_differences

_LINE_SEARCH_HALVINGS = 30
_MAX_LEVELS = 60
_MAX_NEWTON_STEPS = 60
# Krylov forcing term: rtol = clip(_FORCING * solver_tol / |res|_sup, _RTOL_MIN,
# _RTOL_MAX).  The factor sits below Kelley's 0.5 because the Newton stop test
# takes the sup norm of the residual and lgmres the 2-norm.  _RTOL_MIN sits
# well above float32 rounding, which is why Krylov can run in float32.
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
    gx, gy = gradient(udot, grid)
    forcing = 0.5 * (gx * gx + gy * gy) + eps
    res = second - forcing / rho[1:-1]
    return _Linearization(res, float(np.abs(res).max()), rho, (gx, gy), forcing)


@lru_cache(maxsize=32)
def _axis_tables(grid: Grid, dtype: np.dtype) -> tuple[NDArray, ...]:
    """d1, d1t, d2, basis and basis^T of the grid's axis matrices in dtype.

    basis^T is a contiguous copy, as d1t is: a stacked product with a
    transposed operand runs well below the speed of one with a contiguous matrix.
    """
    d1, d1t, d2, basis, _ = axis_matrices(grid)
    tables = tuple(np.array(a, dtype=dtype) for a in (d1, d1t, d2, basis, basis.T))
    for a in tables:
        a.setflags(write=False)
    return tables


@lru_cache(maxsize=16)
def _sine_bases(m_int: int, dtype: np.dtype) -> tuple[NDArray, NDArray]:
    """Orthonormal DST-I matrix S on m_int interior knots, and S stacked on D S, in dtype.

    S is symmetric and its own inverse.  D is the centred difference
    v[i+1] - v[i-1] with v = 0 at both endpoints, so one product with the
    stack maps sine coefficients to knot values and their undivided centred
    differences.
    """
    k = np.arange(1, m_int + 1)
    s = np.sqrt(2.0 / (m_int + 1)) * np.sin(np.pi * np.outer(k, k) / (m_int + 1))
    padded = np.pad(s, ((1, 1), (0, 0)))
    stacked = np.concatenate([s, padded[2:] - padded[:-2]])
    bases = s.astype(dtype), stacked.astype(dtype)
    for a in bases:
        a.setflags(write=False)
    return bases


class _Applies:
    """J P^-1 and P^-1 of one Newton step in one precision.

    Holds the grid tables, the sine bases and the step's four stacks in that
    precision, and writes every product into two (m_int, n, n) work stacks
    and one (2 m_int, n^2) stack, so an apply allocates only its result.
    """

    def __init__(self, grid: Grid, stacks, dtype: np.dtype):
        with np.errstate(over="ignore"):
            cast = [a.astype(dtype) for a in stacks]
        if not all(np.isfinite(a).all() for a in cast):
            raise FloatingPointError(f"a Newton operator stack overflows {dtype}")
        self.inv_denom, self.c_dev, self.ax, self.ay = cast
        self.d1, self.d1t, self.d2, self.basis, self.basis_t = _axis_tables(grid, dtype)
        m_int, n = self.inv_denom.shape[0], grid.n
        self.s, self.stacked = _sine_bases(m_int, dtype)
        self.work = np.empty((2, m_int, n, n), dtype)
        self.both = np.empty((2 * m_int, n * n), dtype)

    def _in_space(self, flat):
        """Sine coefficients in time, grid values in space, of P^-1 y, in work[0]."""
        a, b = self.work
        np.matmul(self.s, flat.reshape(len(a), -1), out=a.reshape(len(a), -1))
        np.matmul(self.basis_t, a, out=b)
        np.matmul(b, self.basis, out=a)
        a *= self.inv_denom
        np.matmul(self.basis, a, out=b)
        np.matmul(b, self.basis_t, out=a)
        return a

    def matvec(self, flat):
        coef = self._in_space(flat)
        a, b = self.work
        m_int, n = a.shape[:2]
        # w = P^-1 y and its centred time difference
        np.matmul(self.stacked, coef.reshape(m_int, -1), out=self.both)
        w, wdot = self.both.reshape(2, m_int, n, n)
        np.matmul(self.d2, w, out=a)
        np.matmul(w, self.d2, out=b)
        a += b
        a *= self.c_dev
        np.matmul(self.d1, wdot, out=b)
        b *= self.ax
        a -= b
        np.matmul(wdot, self.d1t, out=b)
        b *= self.ay
        a -= b
        # a fresh result: lgmres keeps the vectors an apply returns
        return flat.ravel() + a.ravel()

    def solve(self, flat):
        coef = self._in_space(flat)
        m_int, n = coef.shape[:2]
        return (self.s @ coef.reshape(m_int, -1)).reshape(-1, n, n)


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

    Precision: both operators apply in the precision of the vector they are
    given and return a result of that dtype.  The step's four stacks (the
    spectral denominators, c - mean(c) and the two velocity-gradient weights)
    are formed in float64 and cast once per precision, on its first apply;
    float32, the dtype of the returned LinearOperator and the one lgmres
    works in, is cast here.

    Raises:
        FloatingPointError: if a stack does not fit in float32.
    """
    m_int = lin.forcing.shape[0]
    rho_i = lin.rho[1:-1]
    eigen = axis_matrices(grid).eigen
    c = lin.forcing / (2.0 * rho_i**2)
    c_mean = float(np.mean(c))
    lam_t = (2.0 * np.cos(np.pi * np.arange(1, m_int + 1) / (m_int + 1)) - 2.0) / dt**2
    stacks = (
        1.0 / (lam_t[:, None, None] + c_mean * (eigen[:, None] + eigen)),
        c - c_mean,
        # D in _sine_bases is undivided; its 1/(2 dt) is folded in here
        *(g / (2.0 * dt * rho_i) for g in lin.grad_udot),
    )
    applies = {}

    def in_precision(dtype):
        if dtype not in applies:
            applies[dtype] = _Applies(grid, stacks, dtype)
        return applies[dtype]

    # lgmres works in float32, so a stack that overflows it fails here, before any solve
    in_precision(np.dtype(np.float32))
    size = lin.forcing.size
    op = LinearOperator(
        (size, size), matvec=lambda y: in_precision(y.dtype).matvec(y), dtype=np.float32
    )
    return op, lambda y: in_precision(y.dtype).solve(y)


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
    solve is not solved past what solver_tol asks.  lgmres works in float32
    on -res scaled to unit 2-norm; the step P^-1 y is scaled back in float64.

    Raises:
        NotKahler: if the warm start has a non-positive interior density.
        NonConvergence: if the starting residual is not finite, a Newton
            operator does not fit in float32, 60 Newton steps leave the
            residual above tol, or a line search finds no admissible
            decrease.
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
        try:
            op, precondition = _newton_operators(dt, grid, lin)
        except FloatingPointError:
            raise NonConvergence(iterations, lin.norm) from None
        iterations += 1
        rtol = min(_RTOL_MAX, max(_RTOL_MIN, _FORCING * p.solver_tol / lin.norm))
        # lgmres gets -res at unit 2-norm in float32 and the step is scaled back
        # in float64; dividing by the sup norm first keeps the 2-norm finite
        b = -lin.res.ravel() / lin.norm
        b_norm = float(np.linalg.norm(b))
        y, _ = lgmres(op, (b / b_norm).astype(np.float32), x0="Mb", rtol=rtol, atol=0.0,
                      maxiter=40)
        step = lin.norm * (b_norm * precondition(y).astype(np.float64))

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

    Level 1 starts from level 0's path.  From level 2 on, the start is the
    Lagrange polynomial in epsilon through the last min(4, k + 1) paths,
    evaluated at epsilon_k / 2: the secant u_k + (u_k - u_{k-1})/2 at level 2,
    quadratic at level 3 and cubic from level 4 on.  It falls back to u_k when
    that guess is not finite, or when the solve rejects it with NotKahler for
    a non-positive interior density, which it tests before any Newton step.

    Stops once successive solutions differ by less than tol in sup norm;
    raises NonConvergence if 60 halvings leave the gap above tol.
    """
    if not 0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")
    problem = EpsGeodesicProblem(u_a, u_b, interval, 1.0, time_steps, solver_tol)
    sols = [solve_epsilon_geodesic(problem)]
    for _ in range(_MAX_LEVELS):
        problem = replace(problem, epsilon=problem.epsilon / 2.0)
        try:
            nxt = solve_epsilon_geodesic(problem, initial=_extrapolated_start(sols))
        except NotKahler:
            nxt = solve_epsilon_geodesic(problem, initial=sols[-1].path.fields)
        gap = sup_distance(nxt.path, sols[-1].path)
        sols.append(nxt)
        if gap < tol:
            return sols
    raise NonConvergence(_MAX_LEVELS, gap)


def _extrapolated_start(sols: list[GeodesicSolution]) -> NDArray[np.float64]:
    """Warm start for the next halving level: the extrapolation if finite, else u_k.

    On the halving schedule the Lagrange weights, from u_k back, are the exact
    binary fractions (1.5, -0.5), (1.75, -0.875, 0.125) and (1.875, -1.09375,
    0.234375, -0.015625).
    """
    last = sols[-1].path.fields
    nodes = sols[-4:]
    if len(nodes) < 2:
        return last
    target = 0.5 * sols[-1].epsilon
    eps = [s.epsilon for s in nodes]
    guess = np.zeros_like(last)
    for j, node in enumerate(nodes):
        others = eps[:j] + eps[j + 1 :]
        weight = np.prod([target - e for e in others]) / np.prod([eps[j] - e for e in others])
        guess += weight * node.path.fields
    return guess if np.isfinite(guess).all() else last


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
        ValueError: if a direction is not a finite (n, n) field, or delta is
            not finite and positive; checked before any solve.
        NotKahler: if a shifted endpoint or a warm start is not admissible.
    """
    if not 0 < delta < np.inf:
        raise ValueError("delta must be finite and positive")
    for direction in (direction_a, direction_b):
        if np.shape(direction) != (p.grid.n, p.grid.n) or not np.isfinite(direction).all():
            raise ValueError("each direction must be a finite field of shape (n, n)")

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

