"""Seeded band-limited test fields and admissible potentials.

Fields are random trigonometric sums over the low Fourier modes, drawn from a
caller-supplied generator and synthesized by one inverse FFT; potentials
rescale them to keep the Monge-Ampere density at least 1/2.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .grid import Grid, GridField, Potential, laplacian, make_potential


def random_band_limited(
    grid: Grid, rng: np.random.Generator, amplitude: float, max_mode: int = 3
) -> GridField:
    """Seeded random trigonometric field with sup norm equal to amplitude.

    Each mode (kx, ky) with 0 <= kx <= max_mode, |ky| <= max_mode, one
    representative per conjugate pair, draws a cos and a sin coefficient
    (a, b); the sum of a cos + b sin is n^2 times the real part of the inverse
    FFT of a - ib placed at (kx mod n, ky mod n), where aliased modes add up.
    """
    n = grid.n
    kx, ky = np.meshgrid(np.arange(max_mode + 1), np.arange(-max_mode, max_mode + 1), indexing="ij")
    keep = (kx > 0) | (ky > 0)
    ab = rng.standard_normal((int(keep.sum()), 2))
    spec = np.zeros((n, n), dtype=complex)
    np.add.at(spec, (kx[keep] % n, ky[keep] % n), ab[:, 0] - 1j * ab[:, 1])
    f = n * n * scipy.fft.ifft2(spec).real
    sup = float(np.abs(f).max())
    if sup == 0.0:
        return f
    return f * (amplitude / sup)


def random_potential(
    grid: Grid, rng: np.random.Generator, amplitude: float = 0.02, max_mode: int = 3
) -> Potential:
    """Seeded random potential, scaled so its density stays >= 1/2."""
    f = random_band_limited(grid, rng, amplitude, max_mode)
    lap_min = float(laplacian(f, grid).min())
    if lap_min < -1.0:
        f = f * (1.0 / -lap_min)
    return make_potential(f, grid)
