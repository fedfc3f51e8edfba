"""Paths of potentials, parallel transport, and Hamiltonian flows.

Parallel transport along a path u(t) integrates the time-dependent vector
field -(1/2) grad_{u(t)} udot(t); the resulting maps are symplectomorphisms
(X, omega_{u(0)}) -> (X, omega_{u(t)}) up to discretization, which the
pullback-density identity rho_{u(t)}(phi(x)) J(x) = rho_{u(0)}(x) quantifies.
Hamiltonian flows integrate sgrad zeta = (-zeta_y, zeta_x)/rho_u for the
symplectic form of a fixed potential; the k-step composition scheme carries
the particles through its k frozen-time legs in one integrator pass.

Every vector field here (displacements, particle positions, velocities) is
one array whose first axis of length 2 holds the x and y components.
Trajectories are integrated with the classical 4-stage explicit scheme from
all cell centers at once, velocity fields sampled bilinearly in space and
linearly in time; positions use exact mod-1 torus arithmetic.  Displacement
fields are stored unwrapped (they are periodic functions of the seed), and
map Jacobians come from differencing the displacement with the grid scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from .errors import NonConvergence, StepUnstable
from .grid import Grid, GridField, Potential, _frozen, gradient, make_potential

_SUBSTEPS_PER_LEG = 8


def bilinear_periodic(field: NDArray, p: NDArray, n: int) -> NDArray:
    """Sample fields (..., n, n) at torus points p (2, ...) by periodic bilinear interpolation."""
    q = p * n
    i0 = np.floor(q).astype(int)
    fx, fy = q - i0
    i0 %= n
    (ia, ja), (ib, jb) = i0, (i0 + 1) % n
    return (
        field[..., ia, ja] * (1.0 - fx) * (1.0 - fy)
        + field[..., ib, ja] * fx * (1.0 - fy)
        + field[..., ia, jb] * (1.0 - fx) * fy
        + field[..., ib, jb] * fx * fy
    )


def spectral_interp(field: NDArray, p: NDArray) -> NDArray:
    """Evaluate the trigonometric interpolant of fields (..., n, n) at points p (2, ...)."""
    n = field.shape[-1]
    coef = np.fft.fft2(field) / n**2
    ex, ey = np.exp(2j * np.pi * (p.reshape(2, -1, 1) * np.fft.fftfreq(n, d=1.0 / n)))
    vals = np.einsum("pk,...kl,pl->...p", ex, coef, ey, optimize=True)
    return vals.real.reshape(field.shape[:-2] + p.shape[1:])


def interp_at(field: NDArray, p: NDArray, grid: Grid) -> NDArray:
    if grid.scheme == "spectral":
        return spectral_interp(field, p)
    return bilinear_periodic(field, p, grid.n)


@dataclass(frozen=True, eq=False)
class TransportMap:
    """Discrete map of the torus: per-cell displacement (2, n, n) plus its Jacobian.

    forward() gives target coordinates mod 1; the displacement itself is kept
    unwrapped so it stays a smooth periodic function of the seed cell.
    """

    grid: Grid
    disp: NDArray[np.float64]
    jacobian: GridField

    def __post_init__(self):
        if not ((self.jacobian > 0.0) & np.isfinite(self.jacobian)).all():
            raise ValueError("transport map must preserve orientation: finite jacobian > 0")

    def forward(self) -> NDArray[np.float64]:
        return np.mod(np.stack(self.grid.coords()) + self.disp, 1.0)

    @property
    def is_identity(self) -> bool:
        return not self.disp.any()

    @classmethod
    def identity(cls, grid: Grid) -> "TransportMap":
        n = grid.n
        return cls(grid, _frozen(np.zeros((2, n, n))), _frozen(np.ones((n, n))))

    @classmethod
    def from_displacement(cls, grid: Grid, disp: NDArray[np.float64]) -> "TransportMap":
        (ax, bx), (ay, by) = gradient(disp, grid)
        jac = (1.0 + ax) * (1.0 + by) - ay * bx
        return cls(grid, _frozen(disp), _frozen(jac))


def map_distance(a: TransportMap, b: TransportMap) -> float:
    """Sup over cells of the torus distance between the two images."""
    d = np.mod(a.disp - b.disp + 0.5, 1.0) - 0.5
    return float(np.hypot(*d).max())


def inverse(phi: TransportMap) -> TransportMap:
    """Inverse map by fixed-point iteration on d_inv(x) = -d(x + d_inv(x)).

    Converges when the displacement is a contraction (sup |grad d| < 1), which
    holds for resolved flows.

    Raises:
        NonConvergence: if 60 iterations leave the update above 1e-13.
    """
    iterations, tol = 60, 1e-13
    if phi.is_identity:
        return phi
    g = phi.grid
    x0 = np.stack(g.coords())
    q = -phi.disp
    for _ in range(iterations):
        new = -interp_at(phi.disp, np.mod(x0 + q, 1.0), g)
        change = float(np.abs(new - q).max())
        q = new
        if change < tol:
            break
    else:
        raise NonConvergence(iterations, change)
    return TransportMap.from_displacement(g, q)


@dataclass(frozen=True, eq=False)
class PotentialPath:
    """Discrete path of potentials over finite, increasing knot times.

    Competitor paths are the linear interpolants of their knots; the density
    is affine in the field, so every point of a segment between admissible
    knots is admissible too.  Solver paths sample a smooth geodesic.  Both are
    differenced by one rule, 2nd-order gradients in time, which is exact on
    paths linear in t.
    """

    times: NDArray[np.float64]
    knots: tuple[Potential, ...]

    def __post_init__(self):
        if len(self.knots) < 2:
            raise ValueError("a path needs at least two knots")
        if self.times.shape != (len(self.knots),):
            raise ValueError("need exactly one time per knot")
        if not np.isfinite(self.times).all():
            raise ValueError("knot times must be finite")
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        g = self.knots[0].grid
        if any(k.grid != g for k in self.knots):
            raise ValueError("all knots must share one grid")

    @property
    def grid(self) -> Grid:
        return self.knots[0].grid

    @cached_property
    def fields(self) -> NDArray[np.float64]:
        return np.stack([k.field for k in self.knots])

    @cached_property
    def densities(self) -> NDArray[np.float64]:
        return np.stack([k.density for k in self.knots])

    @property
    def uniform_step(self) -> float:
        """The common knot spacing; ValueError unless the knots are uniformly spaced."""
        steps = np.diff(self.times)
        if not np.allclose(steps, steps[0], rtol=1e-12, atol=0.0):
            raise ValueError("knot times must be uniformly spaced")
        return float(steps[0])

    def time_derivative(self, stack: NDArray[np.float64]) -> NDArray[np.float64]:
        """Per-knot time derivative of a knot stack by 2nd-order gradients.

        Exact on stacks quadratic in t; one-sided, the one quotient, on a
        two-knot path.
        """
        return np.gradient(stack, self.times, axis=0, edge_order=min(2, len(self.times) - 1))

    @cached_property
    def interval_velocity(self) -> NDArray[np.float64]:
        """One difference quotient (u_{i+1} - u_i) / (t_{i+1} - t_i) per interval."""
        return _frozen(np.diff(self.fields, axis=0) / np.diff(self.times)[:, None, None])

    @cached_property
    def knot_velocity(self) -> NDArray[np.float64]:
        """One velocity field per knot, by time_derivative."""
        return _frozen(self.time_derivative(self.fields))


def centered_differences(stack: NDArray[np.float64], dt: float) -> tuple[NDArray, NDArray]:
    """Centered first and second time differences at the interior knots of a uniform stack."""
    first = (stack[2:] - stack[:-2]) / (2.0 * dt)
    second = (stack[2:] - 2.0 * stack[1:-1] + stack[:-2]) / dt**2
    return first, second


def linear_path(
    u_a: Potential, u_b: Potential, t_start: float, t_end: float, intervals: int
) -> PotentialPath:
    """Linear interpolant of two potentials sampled on a uniform time grid."""
    times = np.linspace(t_start, t_end, intervals + 1)
    s = np.linspace(0.0, 1.0, intervals + 1)
    g = u_a.grid
    knots = [u_a]
    for si in s[1:-1]:
        knots.append(make_potential((1.0 - si) * u_a.field + si * u_b.field, g))
    knots.append(u_b)
    return PotentialPath(_frozen(times), tuple(knots))


def _advance_rk4(p, sample, t0, dt):
    """One 4-stage step of dX/dt = v(t, X) with sample(theta, p) -> v."""
    k1 = sample(t0, p)
    k2 = sample(t0 + 0.5 * dt, p + 0.5 * dt * k1)
    k3 = sample(t0 + 0.5 * dt, p + 0.5 * dt * k2)
    k4 = sample(t0 + dt, p + dt * k3)
    return p + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _flow_positions(grid, left, right, t_knots, substeps):
    """Integrate all cell centers through the per-interval velocity fields.

    left and right are (2, k, n, n) stacks of the field at both ends of each
    of the k knot intervals.  Yields the unwrapped displacement after each
    interval.
    """
    h = 1.0 / grid.n
    x0 = np.stack(grid.coords())
    p = x0
    for i in range(len(t_knots) - 1):
        span = t_knots[i + 1] - t_knots[i]
        dt = span / substeps

        def sample(theta, q, i=i, span=span):
            lam = theta / span
            v = (1.0 - lam) * left[:, i] + lam * right[:, i]
            s = bilinear_periodic(v, np.mod(q, 1.0), grid.n)
            if dt * float(np.hypot(*s).max()) > h:
                raise StepUnstable(
                    f"substep displacement exceeds one cell width (dt={dt:g}); increase substeps"
                )
            return s

        for s in range(substeps):
            p = _advance_rk4(p, sample, s * dt, dt)
        yield p - x0


def transport_flow(path: PotentialPath, substeps: int = 4) -> list[TransportMap]:
    """Parallel-transport maps phi(t_i) along the path; phi(t_0) is the identity.

    The field -(1/2) grad udot / rho is sampled at every knot and interpolated
    linearly in time between knots.

    Raises:
        StepUnstable: if a substep would move a particle more than one cell.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    g = path.grid
    w = -0.5 * np.stack(gradient(path.knot_velocity, g)) / path.densities
    flow = _flow_positions(g, w[:, :-1], w[:, 1:], path.times, substeps)
    return [TransportMap.identity(g)] + [TransportMap.from_displacement(g, d) for d in flow]


def pullback(xi: GridField, phi: TransportMap) -> GridField:
    """Composition xi o phi by interpolation; bit-exact for the identity map."""
    if phi.is_identity:
        return np.array(xi, dtype=float)
    return interp_at(np.asarray(xi, dtype=float), phi.forward(), phi.grid)


def _hamiltonian_velocity(zeta_frames: NDArray, u: Potential, times: NDArray) -> NDArray:
    """sgrad zeta = (-zeta_y, zeta_x)/rho_u at times, zeta read as in symplectic_flow: (2, t, n, n)."""
    z = np.asarray(zeta_frames, dtype=float)
    n = u.grid.n
    if z.ndim != 3 or not len(z) or z.shape[1:] != (n, n) or not np.isfinite(z).all():
        raise ValueError(f"zeta_frames must be a finite (k >= 1, {n}, {n}) stack")
    if len(z) > 1:
        frame_times = np.linspace(0.0, 1.0, len(z))
        j = np.minimum(np.searchsorted(frame_times, times, side="right"), len(z) - 1)
        lam = ((times - frame_times[j - 1]) / (frame_times[j] - frame_times[j - 1]))[:, None, None]
        z = (1.0 - lam) * z[j - 1] + lam * z[j]
    zx, zy = gradient(np.broadcast_to(z, (len(times), n, n)), u.grid)
    return np.stack([-zy / u.density, zx / u.density])


def symplectic_flow(zeta_frames: NDArray[np.float64], u: Potential, substeps: int = 16) -> TransportMap:
    """Time-1 map of the Hamiltonian flow of a time family zeta on (X, omega_u).

    zeta_frames has shape (k, n, n) read at equally spaced times covering
    [0, 1] (a single frame means an autonomous field), linearly interpolated
    in time; substeps counts integrator steps per frame interval.

    Raises:
        ValueError: if the frames are not a finite (k >= 1, n, n) stack on u's grid.
        StepUnstable: as in transport_flow.
    """
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    times = np.linspace(0.0, 1.0, max(len(np.atleast_1d(zeta_frames)), 2))
    v = _hamiltonian_velocity(zeta_frames, u, times)
    *_, disp = _flow_positions(u.grid, v[:, :-1], v[:, 1:], times, substeps)
    return TransportMap.from_displacement(u.grid, disp)


def composition_scheme(zeta_frames: NDArray[np.float64], k: int, u: Potential) -> TransportMap:
    """1-step composition of frozen-time Hamiltonian flows.

    Carries the cell centers through the autonomous fields sgrad zeta(j/k),
    j = 0 .. k-1, each for time 1/k in time order, in one integrator pass.
    First order in 1/k against the time-dependent flow; exact for an
    autonomous family.  Raises as symplectic_flow does, and for k < 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    v = _hamiltonian_velocity(zeta_frames, u, np.arange(k) / k)
    *_, disp = _flow_positions(u.grid, v, v, np.linspace(0.0, 1.0, k + 1), _SUBSTEPS_PER_LEG)
    return TransportMap.from_displacement(u.grid, disp)
