"""Tests for the seeded band-limited fields and potentials."""

import itertools

import numpy as np
import pytest

from helpers import band_limited_reference

from mal import fixtures
from mal.fixtures import random_band_limited, random_potential
from mal.grid import SCHEMES, Grid, laplacian


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

    def test_zero_amplitude_is_zero(self):
        f = random_band_limited(Grid(8), np.random.default_rng(0), 0.0)
        assert not f.any()

    @pytest.mark.parametrize("amplitude", [np.nan, np.inf, -np.inf, -0.1])
    def test_bad_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            random_band_limited(Grid(8), np.random.default_rng(0), amplitude)


class TestSampleBandLimited:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("n", [4, 8, 32])
    def test_laplacian_matches_grid_laplacian(self, n, scheme):
        """Every max_mode up to n, so modes past Nyquist alias onto the grid's symbol."""
        g = Grid(n, scheme)
        for max_mode in range(n + 1):
            rng = np.random.default_rng(max_mode)
            field, lap = fixtures.sample_band_limited(g, rng, 1.0, max_mode)
            want = laplacian(field, g)
            assert np.abs(lap - want).max() <= 1e-13 * np.abs(want).max(), max_mode

    def test_field_is_random_band_limited(self):
        g = Grid(16, "central")
        field, _ = fixtures.sample_band_limited(g, np.random.default_rng(2), 0.4, 5)
        assert np.array_equal(field, random_band_limited(g, np.random.default_rng(2), 0.4, 5))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("max_mode", [1, 2, 3])
    def test_gathered_block_matches_assembled_block_bitwise(self, scheme, max_mode):
        """The coefficient block gathered from the draw equals the one assembled
        from zeros, masks and concatenations, bit for bit, on the same stream.
        The three cases split the bands max_mode = 1 .. n by their residue mod 3,
        so wavenumbers past n/2 alias at every size."""
        for n in (4, 6, 32):
            g = Grid(n, scheme)
            for m, seed in itertools.product(range(max_mode, n + 1, 3), range(8)):
                ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
                for _ in range(3):
                    got = fixtures.sample_band_limited(g, ours, 0.05, m)
                    want = band_limited_reference(g, theirs, 0.05, m)
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want)), (n, m)
                assert ours.standard_normal() == theirs.standard_normal()

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("max_mode", [0, 3, 5])
    def test_rows_are_consecutive_draws_and_unused_ones_go_back(self, scheme, max_mode):
        """band_limited_rows gives the unscaled trig sums of consecutive draws; after
        a rewind past `used` of them the stream is that of `used` draws alone."""
        g = Grid(16, scheme)
        for used in (0, 1, 4, 7):
            ours, theirs = np.random.default_rng(used), np.random.default_rng(used)
            state = ours.bit_generator.state
            fields, laps = fixtures.band_limited_rows(g, ours, 7, max_mode)
            for f, lap in zip(fields[:used], laps[:used]):
                want = band_limited_reference(g, theirs, 1.0, max_mode)
                sup = np.abs(f).max()
                scale = 1.0 / sup if sup else 0.0
                assert np.array_equal(f * scale, want[0]) and np.array_equal(lap * scale, want[1])
            left = fixtures.rewind_band_limited(g, ours, state, used, max_mode)
            assert left == ours.bit_generator.state == theirs.bit_generator.state

    def test_mode_table_stays_small(self):
        """Tables of n M and M^2 entries: a dense modes x n^2 table would take 69 MB here."""
        table = fixtures._mode_table(Grid(32), 32)
        assert sum(a.nbytes for a in table) < 1_000_000


def test_random_potential_density_at_least_half():
    g = Grid(16)
    rng = np.random.default_rng(4)
    for amplitude in (0.02, 1.0, 50.0):
        assert random_potential(g, rng, amplitude).density.min() >= 0.5 - 1e-12
