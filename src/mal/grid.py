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
central differences.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.fft
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
        scheme: "spectral" (FFT derivatives) or "central" (2nd-order
            central differences).
    """

    n: int
    scheme: str = "spectral"

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {self.n}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}, expected one of {SCHEMES}")

    @property
    def cell_width(self) -> float:
        return 1.0 / self.n

    def coords(self) -> tuple[GridField, GridField]:
        """Cell-center coordinate fields (X, Y), each of shape (n, n)."""
        t = np.arange(self.n) / self.n
        return np.meshgrid(t, t, indexing="ij")


class FourierSymbols(NamedTuple):
    """Fourier multipliers of a grid's scheme on the rfft2 half spectrum.

    Both schemes' operators are diagonal in Fourier modes, so each symbol is
    exact: multiplying a transform by it and transforming back gives dx, dy
    or laplacian of the field to rounding.
    ddx, ddy: first derivatives over integer wavenumbers k, 2 pi i k for the
    spectral scheme and i n sin(2 pi k/n) for the central one, with the
    unpaired Nyquist mode zeroed since its odd derivative has no real value
    (the central stencil annihilates it anyway).
    lap: the Laplacian symbol, -4 pi^2 (k^2 + l^2) for the spectral scheme
    and -4 n^2 (sin^2(pi k/n) + sin^2(pi l/n)) for the central one.
    """

    ddx: NDArray[np.complex128]
    ddy: NDArray[np.complex128]
    lap: NDArray[np.float64]


@lru_cache(maxsize=32)
def fourier_symbols(grid: Grid) -> FourierSymbols:
    """The grid's symbol table, built once per grid."""
    n = grid.n
    k, l = np.fft.fftfreq(n, d=1.0 / n), np.fft.rfftfreq(n, d=1.0 / n)
    if grid.scheme == "spectral":
        lap = -(4.0 * np.pi**2) * (k[:, None] ** 2 + l[None, :] ** 2)
        odd = (2j * np.pi) * k
    else:
        lap = -4.0 * n**2 * (np.sin(np.pi * k / n)[:, None] ** 2 + np.sin(np.pi * l / n) ** 2)
        odd = 1j * n * np.sin(2.0 * np.pi * k / n)
    odd = np.where(np.abs(k) == n // 2, 0.0, odd)
    # rfft2 keeps l = 0 .. n/2, so ddy is odd's first n/2 + 1 entries (Nyquist last, zeroed)
    table = FourierSymbols(odd[:, None], odd[None, : n // 2 + 1], lap)
    for a in table:
        a.setflags(write=False)
    return table


def _spectral(f: GridField, grid: Grid, *multipliers) -> list[GridField]:
    """One forward real transform of f, one inverse per multiplier."""
    n = grid.n
    spec = scipy.fft.rfft2(f, axes=(-2, -1))
    return [scipy.fft.irfft2(m * spec, s=(n, n), axes=(-2, -1)) for m in multipliers]


def dx(f: GridField, grid: Grid) -> GridField:
    """Partial derivative along x (array axis -2)."""
    if grid.scheme == "spectral":
        return _spectral(f, grid, fourier_symbols(grid).ddx)[0]
    return (np.roll(f, -1, axis=-2) - np.roll(f, 1, axis=-2)) * (grid.n / 2.0)


def dy(f: GridField, grid: Grid) -> GridField:
    """Partial derivative along y (array axis -1)."""
    if grid.scheme == "spectral":
        return _spectral(f, grid, fourier_symbols(grid).ddy)[0]
    return (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) * (grid.n / 2.0)


def gradient(f: GridField, grid: Grid) -> tuple[GridField, GridField]:
    """(dx f, dy f), sharing one forward transform under the spectral scheme."""
    if grid.scheme == "spectral":
        s = fourier_symbols(grid)
        return tuple(_spectral(f, grid, s.ddx, s.ddy))
    return dx(f, grid), dy(f, grid)


def laplacian(f: GridField, grid: Grid) -> GridField:
    """Periodic Laplacian; annihilates constants, so the output mean is ~0."""
    if grid.scheme == "spectral":
        return _spectral(f, grid, fourier_symbols(grid).lap)[0]
    return (
        np.roll(f, -1, axis=-2)
        + np.roll(f, 1, axis=-2)
        + np.roll(f, -1, axis=-1)
        + np.roll(f, 1, axis=-1)
        - 4.0 * f
    ) * float(grid.n**2)


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

    Construct through make_potential, which computes the density; fields or
    densities that are not finite, or densities not positive everywhere, are
    rejected here.
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


@dataclass(frozen=True, eq=False)
class WeightedValues:
    """Finite weighted value set (v_c, w_c): the distribution data of a field.

    Weights are cell masses, strictly positive and summing to 1 (normalized
    torus volume) within 1e-12.
    """

    values: NDArray[np.float64]
    weights: NDArray[np.float64]

    def __post_init__(self):
        if self.values.ndim != 1 or self.values.shape != self.weights.shape:
            raise ValueError("values and weights must be 1-d arrays of equal length")
        if self.values.size == 0:
            raise ValueError("weighted value set must be non-empty")
        if float(self.weights.min()) <= 0.0:
            raise ValueError("weights must be strictly positive")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {total!r}")

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
