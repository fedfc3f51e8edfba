"""Seeded band-limited test fields and admissible potentials.

Fields are random trigonometric sums over the low Fourier modes, drawn from a
caller-supplied generator; potentials rescale them to keep the Monge-Ampere
density at least 1/2.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, GridField, Potential, laplacian, make_potential


def random_band_limited(
    grid: Grid, rng: np.random.Generator, amplitude: float, max_mode: int = 3
) -> GridField:
    """Seeded random trigonometric field with sup norm equal to amplitude."""
    x, y = grid.coords()
    f = np.zeros((grid.n, grid.n))
    for kx in range(0, max_mode + 1):
        for ky in range(-max_mode, max_mode + 1):
            if kx == 0 and ky <= 0:
                continue  # one representative per conjugate mode pair
            phase = 2.0 * np.pi * (kx * x + ky * y)
            a, b = rng.standard_normal(2)
            f += a * np.cos(phase) + b * np.sin(phase)
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
