"""Shared generators and oracles for tests.

Generators: exact-arithmetic weighted sets, small fields, band-limited draws
assembled the long way with their own rfft2-half Laplacian symbol, competitor
knots drawn and built one candidate at a time, stand-in and recording Krylov
solvers, and a patch that makes every transform raise.
Oracles that no program path calls, each checked by its own unit tests: the
Newton operators composed from stencils, the composition of two transport maps,
transport along piecewise-linear paths segment by segment, the grid's
cometric pairing, Poisson bracket and integral, the covariant derivative
along a path, the Jacobi-equation residual and time convexity of a solved
path, the similar-ordering test, the Hardy-Littlewood pairing on a common
refinement, and the Lagrangians' property checks (invariance, fiber
convexity, Lipschitz constants, strong continuity).
"""

from typing import Sequence

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator

from mal.errors import NotKahler
from mal.fixtures import random_band_limited, random_potential
from mal.geodesics import GeodesicSolution
from mal.grid import (
    Grid,
    GridField,
    Potential,
    WeightedValues,
    dx,
    dy,
    gradient,
    laplacian,
    make_potential,
)
from mal.lagrangians import (
    LagrangianSpec,
    Orlicz,
    SupFamily,
    VerificationReport,
    evaluate,
)
from mal.rearrangement import _refinement, decreasing_rearrangement, equidistributed
from mal.transport import (
    PotentialPath,
    TransportMap,
    _flow_positions,
    centered_differences,
    interp_at,
)


def compose(after, before):
    """Map doing `before` first, then `after` (displacements interpolated)."""
    g = before.grid
    disp = before.disp + interp_at(after.disp, before.forward(), g)
    return TransportMap.from_displacement(g, disp)


def segment_transport_displacements(path, substeps):
    """Transport displacements at the knots after the first, one field per segment.

    Each segment of a piecewise-linear path carries f = -(1/2) grad of its
    difference quotient, sampled as f / rho at its start knot and at its end
    knot and interpolated linearly between them.
    """
    f = -0.5 * np.stack(gradient(path.interval_velocity, path.grid))
    dens = path.densities
    return list(_flow_positions(path.grid, f / dens[:-1], f / dens[1:], path.times, substeps))


def dyadic_weighted(rng, k, denom_pow=10, value_span=16):
    """Random weighted set with dyadic weights summing exactly to 1.

    All downstream sums and products stay exactly representable in binary
    floating point, so sort-based oracles can be compared bit-for-bit.
    """
    denom = 2**denom_pow
    if k == 1:
        parts = np.array([denom])
    else:
        cuts = np.sort(rng.choice(np.arange(1, denom), size=k - 1, replace=False))
        parts = np.diff(np.concatenate([[0], cuts, [denom]]))
    weights = parts / float(denom)
    values = rng.integers(-value_span, value_span + 1, size=k).astype(float)
    return values, weights


def equal_weighted(rng, k, value_span=16):
    """Random integer values with equal weights 1/k."""
    values = rng.integers(-value_span, value_span + 1, size=k).astype(float)
    weights = np.full(k, 1.0 / k)
    return values, weights


def sorted_merge_oracle(values, weights):
    """(bounds, levels) of the decreasing rearrangement by sorting and merging ties."""
    order = np.argsort(-values, kind="stable")
    sv, sw = values[order], weights[order]
    levels, widths = [sv[0]], [sw[0]]
    for v, w in zip(sv[1:], sw[1:]):
        if v == levels[-1]:
            widths[-1] += w
        else:
            levels.append(v)
            widths.append(w)
    return np.concatenate([[0.0], np.cumsum(widths)]), np.asarray(levels)


def hardy_littlewood_refinement(f0, eta: WeightedValues) -> float:
    """Hardy-Littlewood pairing integrated on the common refinement of the two
    rearrangements' breakpoints, up to the smaller mass."""
    eta_star = decreasing_rearrangement(eta)
    lengths, mids = _refinement(
        f0.bounds, eta_star.bounds, min(f0.total_mass, eta_star.total_mass)
    )
    return float(np.sum(lengths * f0.value(mids) * eta_star.value(mids)))


def forbid_transforms(monkeypatch):
    """Make every numpy.fft and scipy.fft transform raise AssertionError."""

    def transform(*args, **kwargs):
        raise AssertionError("FFT called")

    for module in (scipy.fft, np.fft):
        for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                     "fftn", "ifftn", "rfftn", "irfftn"):
            monkeypatch.setattr(module, name, transform)
    monkeypatch.setattr(scipy.fft, "dst", transform)


def rfft_half_laplacian_symbol(grid):
    """The grid's Laplacian symbol on the rfft2 half spectrum, rows k = fftfreq(n) and
    columns l = rfftfreq(n), written out apart from mal.grid.laplacian_symbol."""
    n = grid.n
    k, l = np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n)
    if grid.scheme == "spectral":
        return -(4.0 * np.pi**2) * (k[:, None] ** 2 + l[None, :] ** 2)
    return -4.0 * n**2 * (np.sin(np.pi * k / n)[:, None] ** 2 + np.sin(np.pi * l / n) ** 2)


def band_limited_reference(grid, rng, amplitude, max_mode):
    """sample_band_limited with the coefficient block assembled from zeros,
    masked assignments and concatenations, from the same draw."""
    n, k = grid.n, np.arange(-max_mode, max_mode + 1)
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(n), k) % n)
    cs = np.hstack((np.cos(phase), np.sin(phase)))
    keep = (k[:, None] > 0) | ((k[:, None] == 0) & (k > 0))
    sym = rfft_half_laplacian_symbol(grid)
    lap = np.tile(sym[k[:, None] % n, np.minimum(k % n, -k % n)], (2, 2))
    a, b = np.zeros((2, *keep.shape))
    a[keep], b[keep] = rng.standard_normal((np.count_nonzero(keep), 2)).T
    coef = np.concatenate((np.concatenate((a, b), 1), np.concatenate((b, -a), 1)))
    f, lap = cs @ (coef * np.stack((np.ones_like(lap), lap))) @ cs.T
    scale = amplitude / sup if (sup := float(np.abs(f).max())) else 0.0
    return f * scale, lap * scale


def draw_then_build_competitors(u_a, u_b, duration, count, seed, budget, amplitude):
    """(times, knots) per competitor path, drawn one candidate at a time and built
    through make_potential, which rejects a candidate by raising NotKahler: the
    loop whose knots mal.action.competitor_set must reproduce bit for bit."""
    g = u_a.grid
    rng = np.random.default_rng(seed)
    paths = []
    for _ in range(count):
        times = np.linspace(0.0, duration, budget + 2)
        times[1:-1] += 0.3 * duration / (budget + 1) * rng.uniform(-1.0, 1.0, size=budget)
        knots = []
        for t in times[1:-1]:
            s = t / duration
            base = (1.0 - s) * u_a.field + s * u_b.field
            amp = amplitude
            for _ in range(51):
                try:
                    knots.append(make_potential(base + random_band_limited(g, rng, amp), g))
                    break
                except NotKahler:
                    amp *= 0.5
            else:
                raise AssertionError("the reference loop found no admissible knot")
        paths.append((times, knots))
    return paths


def inadmissible_lgmres(n, amplitude=1e12):
    """Stand-in for scipy's lgmres whose full Newton step is inadmissible.

    lgmres solves for the preconditioned unknown y, and the solver's Newton
    step is P^-1 y.  This returns y = amplitude cos(2 pi x) on every interior
    knot of an n x n grid.  P^-1 keeps that single Fourier mode and scales it
    by a negative profile in time, largest in size at the middle knot, so the
    step is a positive multiple of -cos(2 pi x).  At the default amplitude,
    even the smallest step length tried, 2**-30, leaves the trial density
    negative where cos(2 pi x) < 0, deepest at x = 1/2; a small amplitude
    makes only the longer trials inadmissible.
    """
    row = amplitude * np.cos(2.0 * np.pi * np.arange(n) / n)

    def solve(op, rhs, **kwargs):
        return np.resize(np.repeat(row, n), rhs.size), 0

    return solve


def recording_lgmres(lgmres, calls):
    """Wrap lgmres so that each call appends one list of operator applies to calls.

    Each apply is recorded as the pair (its input equals the right-hand side,
    its input is nonzero), in order.
    """

    def solve(op, rhs, **kwargs):
        applies = []
        calls.append(applies)

        def matvec(x):
            applies.append((np.array_equal(np.ravel(x), rhs), bool(np.any(x))))
            return op.matvec(x)

        return lgmres(LinearOperator(op.shape, matvec=matvec, dtype=op.dtype), rhs, **kwargs)

    return solve


def jacobian_oracle(fields, dt, grid, eps):
    """The interior residual's Jacobian J and its preconditioner P, from stencils.

    J v = D_t^2 v - (grad udot . grad vdot)/rho + forcing lap(v) / (2 rho^2) at
    the interior knots of the stack `fields`, for v vanishing at both ends;
    P = D_t^2 + mean(forcing / (2 rho^2)) lap.  Returns (J, P, P^-1), each a
    function of an interior stack; P^-1 diagonalizes P by scipy's DST-I in
    time and real FFTs in space.
    """
    rho = 1.0 + 0.5 * laplacian(fields, grid)
    udot, _ = centered_differences(fields, dt)
    gx, gy = gradient(udot, grid)
    forcing = 0.5 * (gx * gx + gy * gy) + eps
    rho_i = rho[1:-1]
    c_mean = float(np.mean(forcing / (2.0 * rho_i**2)))

    def padded(v):
        return np.concatenate([np.zeros_like(v[:1]), v, np.zeros_like(v[:1])])

    def jacobian(v):
        vdot, second = centered_differences(padded(v), dt)
        vx, vy = gradient(vdot, grid)
        return second - (gx * vx + gy * vy) / rho_i + forcing * (0.5 * laplacian(v, grid)) / rho_i**2

    def precond(v):
        return centered_differences(padded(v), dt)[1] + c_mean * laplacian(v, grid)

    def precond_solve(v):
        m_int, n = v.shape[0], grid.n
        lam_t = (2.0 * np.cos(np.pi * np.arange(1, m_int + 1) / (m_int + 1)) - 2.0) / dt**2
        denom = lam_t[:, None, None] + c_mean * rfft_half_laplacian_symbol(grid)
        w = scipy.fft.dst(v, type=1, axis=0, norm="ortho")
        w = scipy.fft.irfft2(scipy.fft.rfft2(w, axes=(-2, -1)) / denom, s=(n, n), axes=(-2, -1))
        return scipy.fft.dst(w, type=1, axis=0, norm="ortho")

    return jacobian, precond, precond_solve


def inner_product_du(u: Potential, xi: GridField, eta: GridField) -> GridField:
    """Pointwise cometric pairing (d xi, d eta)_u = (xi_x eta_x + xi_y eta_y) / rho_u."""
    (xx, xy), (ex, ey) = gradient(xi, u.grid), gradient(eta, u.grid)
    return (xx * ex + xy * ey) / u.density


def poisson_bracket(u: Potential, f: GridField, g: GridField) -> GridField:
    """Poisson bracket {f, g}_u = (f_x g_y - f_y g_x) / rho_u for the symplectic form rho_u dx dy."""
    (fx, fy), (gx, gy) = gradient(f, u.grid), gradient(g, u.grid)
    return (fx * gy - fy * gx) / u.density


def integrate(f: GridField, u: Potential) -> float:
    """Integral of f against the measure of u, midpoint rule: sum f rho_u / N^2."""
    return float(np.sum(f * u.density)) / u.grid.n**2


def covariant_derivative(path: PotentialPath, fields: np.ndarray) -> np.ndarray:
    """Covariant time derivative of a field along a path, per knot.

    Returns xidot(t) - (1/2) (d udot(t), d xi(t))_{u(t)} with xidot and udot
    both by the path's time_derivative.
    """
    fields = np.asarray(fields, dtype=float)
    if fields.shape != path.fields.shape:
        raise ValueError("field stack must provide one field per knot")
    (ux, uy), (vx, vy) = gradient(path.knot_velocity, path.grid), gradient(fields, path.grid)
    pairing = (ux * vx + uy * vy) / path.densities
    return path.time_derivative(fields) - 0.5 * pairing


def time_convexity_margin(path: PotentialPath) -> float:
    """Min over interior knots and cells of the second time difference."""
    if len(path.knots) < 3:
        raise ValueError("need at least three knots")
    _, second = centered_differences(path.fields, path.uniform_step)
    return float(second.min())


def jacobi_residual(sol: GeodesicSolution, xi: np.ndarray) -> float:
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
    knots = slice(max((m + 2) // 3, 2), min((2 * m) // 3, m - 2) + 1)
    second = covariant_derivative(path, covariant_derivative(path, xi))[knots]
    udot = path.knot_velocity[knots]
    bracket = np.empty_like(second)
    div_term = np.empty_like(second)
    for j, i in enumerate(range(knots.start, knots.stop)):
        u = path.knots[i]
        inner = poisson_bracket(u, udot[j], xi[i])
        bracket[j] = poisson_bracket(u, inner, udot[j])
        xx, xy = gradient(xi[i], g)
        f = 1.0 / u.density
        div_term[j] = dx(f * xx, g) + dy(f * xy, g)
    rho = path.densities[knots]
    residual = rho * second - 0.25 * bracket * rho + 0.5 * sol.epsilon * div_term
    return float(np.abs(residual).max())


def similarly_ordered(g, h) -> bool:
    """Whether (g(x) - g(y)) (h(x) - h(y)) >= 0 for all cell pairs x, y.

    g and h are array-likes of values on the same cell set, flattened.
    Sort-based, O(k log k): after sorting by g, every h-value in a lower
    g-group must not exceed any h-value in a higher g-group.
    """
    g = np.ravel(np.asarray(g, dtype=float))
    h = np.ravel(np.asarray(h, dtype=float))
    if g.shape != h.shape:
        raise ValueError("fields must have equal size")
    order = np.argsort(g, kind="stable")
    gs = g[order]
    hs = h[order]
    starts = np.concatenate([[0], np.flatnonzero(np.diff(gs) != 0.0) + 1])
    hmax = np.maximum.reduceat(hs, starts)
    hmin = np.minimum.reduceat(hs, starts)
    return bool(np.all(hmax[:-1] <= hmin[1:]))


def lipschitz_bound(spec: LagrangianSpec, radius: float) -> float:
    """Lipschitz constant of spec in the sup norm on {sup|xi| <= radius}, unit mass.

    Orlicz: the steepest sampled slope of chi on [-radius, radius].
    LorentzWeak and Power: 1 for every radius.
    SupFamily: the largest integral of |f0*| over the members, for every radius.
    """
    if isinstance(spec, Orlicz):
        t = np.linspace(-radius, radius, 129)
        return float((np.abs(np.diff(spec.chi(t))) / np.diff(t)).max())
    if isinstance(spec, SupFamily):
        return max(float(np.dot(np.abs(f0.levels), np.diff(f0.bounds))) for _, f0 in spec.members)
    return 1.0


def check_invariance(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    v: Potential,
    eta: GridField,
) -> VerificationReport:
    """Compare evaluate on two equidistributed (field, potential) pairs.

    The pass threshold is 1e-9 amplified by the Lipschitz bound at the data's
    sup norm, since a distribution discrepancy of that size can move the value
    by at most that factor.

    Raises:
        ValueError: if the two pairs fail the equidistribution test.
    """
    tol = 1e-9
    wa = WeightedValues.from_field(xi, u)
    wb = WeightedValues.from_field(eta, v)
    if not equidistributed(wa, wb, tol):
        raise ValueError("inputs are not equidistributed within tol")
    va = spec.of_weighted(wa)
    vb = spec.of_weighted(wb)
    disc = abs(va - vb)
    radius = max(1.0, float(np.abs(xi).max()), float(np.abs(eta).max()))
    threshold = tol * max(1.0, lipschitz_bound(spec, radius))
    return VerificationReport("invariance", disc, threshold, {"value_a": va, "value_b": vb})


def check_fiber_convexity(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    eta: GridField,
    samples: int = 8,
    seed: int = 0,
) -> VerificationReport:
    """Midpoint and random convex-combination inequality on one fiber."""
    tol = 1e-12
    lx = evaluate(spec, u, xi)
    ly = evaluate(spec, u, eta)
    lambdas = [0.5, *np.random.default_rng(seed).uniform(0.0, 1.0, size=samples)]
    worst = -np.inf
    for lam in lambdas:
        mixed = evaluate(spec, u, lam * xi + (1.0 - lam) * eta)
        worst = max(worst, mixed - (lam * lx + (1.0 - lam) * ly))
    return VerificationReport("fiber-convexity", float(worst), tol, {"samples": len(lambdas)})


def estimate_lipschitz(
    spec: LagrangianSpec,
    radius: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical sup of |L(xi) - L(eta)| / sup|xi - eta| on bounded pairs.

    Random potentials and random bounded fields on a 16 x 16 spectral grid,
    deterministic for a fixed seed; pairs with xi = eta are skipped (zero
    denominator).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    grid = Grid(16, "spectral")
    rng = np.random.default_rng(seed)
    shape = (grid.n, grid.n)
    best = 0.0
    for trial in range(trials):
        u = random_potential(grid, rng, amplitude=0.02)
        c = rng.uniform(0.05, 0.5) * radius
        if trial % 3 == 0:
            xi = rng.uniform(-radius, radius, size=shape)
            eta = rng.uniform(-radius, radius, size=shape)
        elif trial % 3 == 1:
            # constant shifts of a one-signed field realize the sharp constants
            xi = rng.uniform(0.0, radius - c, size=shape)
            eta = xi + c
        else:
            xi = rng.uniform(-radius + c, radius - c, size=shape)
            eta = xi + c * (rng.uniform(size=shape) < 0.5)
        denom = float(np.abs(xi - eta).max())
        if denom == 0.0:
            continue
        ratio = abs(evaluate(spec, u, xi) - evaluate(spec, u, eta)) / denom
        best = max(best, ratio)
    return best


def check_strong_continuity(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    perturbations: Sequence[GridField],
    tol: float = 1e-3,
    tol_mass: float = 1e-3,
) -> VerificationReport:
    """Evaluate differences along a vanishing-support perturbation schedule.

    Each perturbed field differs from xi on a cell set whose mu_u-mass m_k
    should shrink along the schedule; passes when every difference with
    m_k < tol_mass stays below tol.
    """
    weights = u.density / u.grid.n**2
    base = evaluate(spec, u, xi)
    masses = []
    diffs = []
    for pert in perturbations:
        masses.append(float(weights[np.asarray(pert) != xi].sum()))
        diffs.append(abs(evaluate(spec, u, pert) - base))
    small = [d for m, d in zip(masses, diffs) if m < tol_mass]
    return VerificationReport(
        "strong-continuity",
        max(small) if small else np.inf,
        tol,
        {"masses": masses, "differences": diffs},
    )
