"""Seeded band-limited test fields and admissible potentials.

Fields are random trigonometric sums over the low Fourier modes, drawn from a
caller-supplied generator and summed with their Laplacians through one mode
table cached per grid and band; potentials rescale them to keep the
Monge-Ampere density at least 1/2.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .grid import Grid, GridField, Potential, laplacian_symbol, make_potential


@lru_cache(maxsize=32)
def _mode_table(grid: Grid, max_mode: int) -> tuple[np.ndarray, ...]:
    """(cs, draws, idx, sw) for k = -M..M: cos and sin of 2 pi k x at the cell centres;
    the number of normals a draw takes, two per kept (kx, ky), one kept per conjugate
    pair; per entry of the [[A, B], [B, -A]] block, the index into the draw with a zero
    appended (a, b of the r-th kept mode in row-major order at 2r, 2r + 1, the zero for
    the rest); and the block's signs times 1 and the grid's Laplacian symbol, exact
    under aliasing."""
    n, k = grid.n, np.arange(-max_mode, max_mode + 1)
    phase = (2.0 * np.pi / n) * (np.outer(np.arange(n), k) % n)
    keep = (k[:, None] > 0) | ((k[:, None] == 0) & (k > 0))
    draws = 2 * np.count_nonzero(keep)
    slot = 2 * (np.cumsum(keep).reshape(keep.shape) - 1)
    a, b = np.where(keep, slot, draws), np.where(keep, slot + 1, draws)
    sign = np.ones((2 * k.size, 2 * k.size))
    sign[k.size :, k.size :] = -1.0
    lap = np.tile(laplacian_symbol(grid, k[:, None], k), (2, 2))
    cs = np.hstack((np.cos(phase), np.sin(phase)))
    return cs, np.intp(draws), np.block([[a, b], [b, a]]), sign * np.stack((np.ones_like(lap), lap))


def sample_band_limited(
    grid: Grid, rng: np.random.Generator, amplitude: float, max_mode: int
) -> tuple[GridField, GridField]:
    """(field, laplacian(field, grid)) of one random_band_limited draw: by the angle sums,
    sum a cos + b sin = cs @ [[A, B], [B, -A]] @ cs.T, and weighting the block by the
    symbol gives the Laplacian.  Raises ValueError unless 0 <= amplitude < inf."""
    if not 0.0 <= amplitude < np.inf:
        raise ValueError(f"amplitude must be finite and nonnegative, got {amplitude!r}")
    cs, draws, idx, sw = _mode_table(grid, max_mode)
    z = np.append(rng.standard_normal(draws), 0.0)
    f, lap = cs @ (z[idx] * sw) @ cs.T
    scale = amplitude / sup if (sup := float(np.abs(f).max())) else 0.0
    return f * scale, lap * scale


def random_band_limited(
    grid: Grid, rng: np.random.Generator, amplitude: float, max_mode: int = 3
) -> GridField:
    """Seeded random trigonometric field with sup norm amplitude (0 gives zero):
    a cos and a sin coefficient per mode 0 <= kx <= max_mode, |ky| <= max_mode,
    one per conjugate pair in row-major order, summed through the mode table."""
    return sample_band_limited(grid, rng, amplitude, max_mode)[0]


def random_potential(
    grid: Grid, rng: np.random.Generator, amplitude: float = 0.02, max_mode: int = 3
) -> Potential:
    """Seeded random potential, scaled so its density stays >= 1/2."""
    f, lap = sample_band_limited(grid, rng, amplitude, max_mode)
    return make_potential(f * (1.0 / max(1.0, -float(lap.min()))), grid)
