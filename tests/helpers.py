"""Shared generators and oracles for tests: exact-arithmetic weighted sets, small
fields, stand-in and recording Krylov solvers, the Newton operators composed
from stencils, the composition of two transport maps, and transport along
piecewise-linear paths segment by segment."""

import numpy as np
import scipy.fft
from scipy.sparse.linalg import LinearOperator

from mal.grid import fourier_symbols, gradient, laplacian
from mal.transport import TransportMap, _flow_positions, centered_differences, interp_at


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
        denom = lam_t[:, None, None] + c_mean * fourier_symbols(grid).lap
        w = scipy.fft.dst(v, type=1, axis=0, norm="ortho")
        w = scipy.fft.irfft2(scipy.fft.rfft2(w, axes=(-2, -1)) / denom, s=(n, n), axes=(-2, -1))
        return scipy.fft.dst(w, type=1, axis=0, norm="ortho")

    return jacobian, precond, precond_solve
