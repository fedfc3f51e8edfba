"""Discrete geometry of the flat 2-torus.

The torus is [0, 1)^2 with periodic wraparound, sampled on an N x N grid of
cell centers x_i = i/N, y_j = j/N.  A field is a real array of shape (N, N)
indexed [i, j] with axis 0 along x and axis 1 along y; operations broadcast
over leading axes, so a stack of time slices (m, N, N) goes through in one
call.  The reference area form is dx dy with total mass 1, and a Kahler
potential u carries the Monge-Ampere density

    rho_u = 1 + lap(u)/2 > 0,

so the measure of a cell is rho_u(center)/N^2 (midpoint rule).  Two derivative
schemes sit behind the same interface: a Fourier spectral one and 2nd-order
central differences.  Either scheme's derivatives, and so every density, are
the grid's real axis matrices applied along each axis, with no transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from .errors import NotKahler

GridField = NDArray[np.float64]

SCHEMES = ("spectral", "central")


@dataclass(frozen=True)
class Grid:
    """Uniform periodic N x N grid with a fixed derivative scheme.

    Args:
        n: number of cells per side, even and at least 4 so the schemes
            resolve the lowest modes.
        scheme: "spectral" (Fourier derivatives) or "central" (2nd-order
            central differences); either is applied as the axis matrices.
    """

    n: int
    scheme: str = "spectral"

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")

    def coords(self) -> tuple[GridField, GridField]:
        """Cell-center coordinate fields (X, Y), each of shape (n, n)."""
        t = np.arange(self.n) / self.n
        return np.meshgrid(t, t, indexing="ij")


def laplacian_symbol(grid: Grid, kx, ky) -> NDArray[np.float64]:
    """The grid's Laplacian eigenvalue on the Fourier modes of integer wavenumbers
    (kx, ky), which broadcast: each is first aliased into [-n/2, n/2), then
    -4 pi^2 (kx^2 + ky^2) for the spectral scheme and
    -4 n^2 (sin^2(pi kx/n) + sin^2(pi ky/n)) for the central one."""
    n = grid.n
    kx, ky = ((np.asarray(k) + n // 2) % n - n // 2 for k in (kx, ky))
    if grid.scheme == "spectral":
        return -(4.0 * np.pi**2) * (kx**2 + ky**2)
    return -4.0 * n**2 * (np.sin(np.pi * kx / n) ** 2 + np.sin(np.pi * ky / n) ** 2)


class AxisMatrices(NamedTuple):
    """Real n x n matrices of a grid's scheme along one axis.

    Both schemes' operators are diagonal in Fourier modes, so along one axis
    they are circulant: dx f = d1 @ f, dy f = f @ d1t and laplacian f =
    d2 @ f + f @ d2.
    d1: the first derivative; the spectral one has symbol 2 pi i k with the
    unpaired Nyquist mode zeroed, since its odd derivative has no real value.
    d1t: d1.T as a contiguous copy; a stacked product with a transposed
    operand runs at about half the speed of one with a contiguous matrix.
    d2: the symmetric second derivative, of symbol laplacian_symbol(grid, k, 0).
    basis, eigen: d2 = basis @ diag(eigen) @ basis.T with basis orthonormal,
    from numpy.linalg.eigh.
    The central d1 and d2 are the integer stencils times n/2 and n^2, so each
    row sums to exactly 0; the spectral ones are inverse transforms of their
    symbols, taken once per grid.
    """

    d1: NDArray[np.float64]
    d1t: NDArray[np.float64]
    d2: NDArray[np.float64]
    basis: NDArray[np.float64]
    eigen: NDArray[np.float64]


@lru_cache(maxsize=32)
def axis_matrices(grid: Grid) -> AxisMatrices:
    """The grid's axis matrices, built once per grid."""
    n = grid.n
    if grid.scheme == "spectral":
        k = np.fft.fftfreq(n, d=1.0 / n)
        odd = np.where(np.abs(k) == n // 2, 0.0, (2j * np.pi) * k)
        # circulant M[i, j] = c[i - j] with c the inverse transform of the symbol
        shift = (np.arange(n)[:, None] - np.arange(n)) % n
        d1, d2 = (np.fft.ifft(symbol).real[shift] for symbol in (odd, laplacian_symbol(grid, k, 0)))
        d2 = 0.5 * (d2 + d2.T)
    else:
        up = np.roll(np.eye(n), 1, axis=1)  # (up @ f)[i] = f[i + 1]
        d1 = (n / 2.0) * (up - up.T)
        d2 = float(n**2) * (up + up.T - 2.0 * np.eye(n))
    eigen, basis = np.linalg.eigh(d2)
    table = AxisMatrices(d1, np.ascontiguousarray(d1.T), d2, basis, eigen)
    for a in table:
        a.setflags(write=False)
    return table


def dx(f: GridField, grid: Grid) -> GridField:
    """Partial derivative along x (array axis -2): d1 @ f after subtracting each
    column's first value, so a field constant in x maps to exactly 0."""
    return axis_matrices(grid).d1 @ (f - f[..., :1, :])


def dy(f: GridField, grid: Grid) -> GridField:
    """Partial derivative along y (array axis -1): f @ d1t after subtracting
    each row's first value, as in dx."""
    return (f - f[..., :, :1]) @ axis_matrices(grid).d1t


def gradient(f: GridField, grid: Grid) -> tuple[GridField, GridField]:
    """(dx f, dy f)."""
    return dx(f, grid), dy(f, grid)


def laplacian(f: GridField, grid: Grid) -> GridField:
    """Periodic Laplacian d2 @ f + f @ d2, taken after subtracting each field's
    corner value, so that an exactly constant field maps to exactly 0."""
    d2 = axis_matrices(grid).d2
    f = f - f[..., :1, :1]
    return d2 @ f + f @ d2


def ma_density(f: GridField, grid: Grid) -> GridField:
    """Monge-Ampere density 1 + lap(f)/2 with the rounding drift of the mean removed."""
    lap = laplacian(f, grid)
    lap = lap - lap.mean(axis=(-2, -1), keepdims=True)
    return 1.0 + 0.5 * lap


def _frozen(a: NDArray) -> NDArray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Potential:
    """Admissible potential: field together with its positive MA density.

    Construct through make_potential, which computes the density, or from a
    density already computed: the geodesic solver's knots carry the ma_density
    of its iterate, and competitor knots the density their admissibility
    verdict read.  Fields or densities that are not finite, or densities not
    positive everywhere, are rejected here.
    """

    grid: Grid
    field: GridField
    density: GridField

    def __post_init__(self):
        n = self.grid.n
        if self.field.shape != (n, n) or self.density.shape != (n, n):
            raise ValueError("field and density must have shape (n, n)")
        if not (np.isfinite(self.field).all() and np.isfinite(self.density).all()):
            raise NotKahler(np.nan)
        m = float(self.density.min())
        if m <= 0.0:
            raise NotKahler(m)
        mean = float(self.density.mean())
        if abs(mean - 1.0) > 10 * np.finfo(float).eps:
            raise ValueError(f"density mean must be 1, got {mean!r}")


def make_potential(f: GridField, grid: Grid) -> Potential:
    """Wrap a field as a Potential.

    Raises:
        NotKahler: if f is not finite or min(1 + lap(f)/2) <= 0.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != (grid.n, grid.n):
        raise ValueError(f"field shape {f.shape} does not match grid {(grid.n, grid.n)}")
    if not np.isfinite(f).all():
        raise NotKahler(np.nan)
    return Potential(grid, _frozen(f), _frozen(ma_density(f, grid)))


def check_weighted_rows(values: NDArray, weights: NDArray) -> None:
    """ValueError unless each row (the last axis) of a stack of weighted sets is
    a WeightedValues: non-empty, finite values, finite strictly positive weights
    summing to 1 within 1e-12.  The first failing row's total is reported."""
    if values.shape != weights.shape:
        raise ValueError("values and weights must have equal shapes")
    if values.size == 0:
        raise ValueError("weighted value set must be non-empty")
    if not np.isfinite(values).all():
        raise ValueError("values must be finite")
    # written so that a NaN weight fails the comparison; an infinite one fails the sum
    if not float(weights.min()) > 0.0:
        raise ValueError("weights must be finite and strictly positive")
    totals = np.atleast_1d(weights.sum(axis=-1))
    off = ~(np.abs(totals - 1.0) <= 1e-12)
    if off.any():
        raise ValueError(f"weights must sum to 1 within 1e-12, got {float(totals[off][0])!r}")


@dataclass(frozen=True, eq=False)
class WeightedValues:
    """Finite weighted value set (v_c, w_c): the distribution data of a field.

    Values are finite; weights are cell masses, strictly positive and summing
    to 1 (normalized torus volume) within 1e-12.
    """

    values: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self):
        if self.values.ndim != 1 or self.values.shape != self.weights.shape:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        check_weighted_rows(self.values, self.weights)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    @classmethod
    def from_arrays(cls, values, weights) -> "WeightedValues":
        return cls(_frozen(np.ravel(values)), _frozen(np.ravel(weights)))

    @classmethod
    def from_field(cls, xi: GridField, u: Potential) -> "WeightedValues":
        """Distribution of a grid field against the measure of u."""
        w = u.density / u.grid.n**2
        return cls.from_arrays(xi, w)
