"""Tests for the seeded band-limited fields and potentials."""

import numpy as np
import pytest

from mal.fixtures import random_band_limited, random_potential
from mal.grid import Grid


def trig_sum(grid, rng, amplitude, max_mode):
    """The band-limited field summed mode by mode in real arithmetic."""
    x, y = grid.coords()
    f = np.zeros((grid.n, grid.n))
    for kx in range(0, max_mode + 1):
        for ky in range(-max_mode, max_mode + 1):
            if kx == 0 and ky <= 0:
                continue
            phase = 2.0 * np.pi * (kx * x + ky * y)
            a, b = rng.standard_normal(2)
            f += a * np.cos(phase) + b * np.sin(phase)
    sup = float(np.abs(f).max())
    return f if sup == 0.0 else f * (amplitude / sup)


class TestRandomBandLimited:
    @pytest.mark.parametrize("n", [4, 8, 32])
    @pytest.mark.parametrize("amplitude", [1.0, 0.05])
    def test_matches_trigonometric_sum(self, n, amplitude):
        """Every max_mode up to n, aliased modes included, and the same stream."""
        g = Grid(n)
        for max_mode in range(n + 1):
            ours, theirs = np.random.default_rng(max_mode), np.random.default_rng(max_mode)
            got = random_band_limited(g, ours, amplitude, max_mode)
            want = trig_sum(g, theirs, amplitude, max_mode)
            assert np.abs(got - want).max() <= 1e-13 * amplitude, max_mode
            assert ours.standard_normal() == theirs.standard_normal()

    def test_no_modes_is_zero(self):
        f = random_band_limited(Grid(8), np.random.default_rng(0), 0.3, max_mode=0)
        assert not f.any()


def test_random_potential_density_at_least_half():
    g = Grid(16)
    rng = np.random.default_rng(4)
    for amplitude in (0.02, 1.0, 50.0):
        assert random_potential(g, rng, amplitude).density.min() >= 0.5 - 1e-12
