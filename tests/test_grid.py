import numpy as np
import pytest

from helpers import forbid_transforms, inner_product_du, integrate, poisson_bracket

from mal.errors import NotKahler
from mal.fixtures import random_potential
from mal.grid import (
    Grid,
    Potential,
    WeightedValues,
    axis_matrices,
    dx,
    dy,
    gradient,
    laplacian,
    laplacian_symbol,
    ma_density,
    make_potential,
)

EPS = np.finfo(float).eps


def cosx(grid):
    x, _ = grid.coords()
    return np.cos(2.0 * np.pi * x)


class TestGridType:
    @pytest.mark.parametrize("n", [3, 2, 7, 0, -4])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(n)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            Grid(16, "upwind")

    def test_rejects_long_scheme_name(self):
        with pytest.raises(ValueError):
            Grid(16, "central-difference-2nd-order")


class TestLaplacian:
    def test_constant_is_zero(self, scheme):
        g = Grid(16, scheme)
        assert np.all(laplacian(np.full((16, 16), 3.7), g) == pytest.approx(0.0, abs=1e-12))

    @pytest.mark.parametrize("value", [3.7, 1.0 / 3.0, 1e38, -1e38])
    def test_constant_stack_is_exactly_zero(self, scheme, value):
        g = Grid(16, scheme)
        slices = np.array([value, -value, 1.0, 0.0])[:, None, None]
        assert not laplacian(np.broadcast_to(slices, (4, 16, 16)), g).any()
        assert not laplacian(np.full((16, 16), value), g).any()

    def test_cosine_spectral(self):
        g = Grid(64, "spectral")
        f = cosx(g)
        err = np.abs(laplacian(f, g) + 4.0 * np.pi**2 * f).max()
        assert err < 1e-10

    def test_cosine_central_second_order(self):
        errors = []
        for n in (16, 32, 64, 128):
            g = Grid(n, "central")
            f = cosx(g)
            errors.append(np.abs(laplacian(f, g) + 4.0 * np.pi**2 * f).max())
        assert all(e2 < e1 for e1, e2 in zip(errors, errors[1:]))
        for e1, e2 in zip(errors, errors[1:]):
            assert e1 / e2 == pytest.approx(4.0, rel=0.2)

    def test_schemes_agree_on_smooth_data(self):
        rng = np.random.default_rng(0)
        for n in (32, 64):
            f = random_potential(Grid(n), rng, 0.05).field
            d = np.abs(laplacian(f, Grid(n, "spectral")) - laplacian(f, Grid(n, "central"))).max()
            assert d < 200.0 / n**2

    def test_mean_is_zero(self, scheme):
        rng = np.random.default_rng(1)
        g = Grid(32, scheme)
        f = rng.standard_normal((32, 32))
        assert abs(laplacian(f, g).mean()) < 1e-10


class TestPotential:
    def test_zero_field(self, scheme):
        u = make_potential(np.zeros((16, 16)), Grid(16, scheme))
        assert np.all(u.density == 1.0)

    def test_cosine_accepted(self):
        g = Grid(64, "spectral")
        a = 1.0 / (4.0 * np.pi**2)
        u = make_potential(a * cosx(g), g)
        assert np.abs(u.density - (1.0 - 0.5 * cosx(g))).max() < 1e-12
        assert u.density.min() > 0.0

    def test_cosine_rejected(self):
        g = Grid(64, "spectral")
        with pytest.raises(NotKahler) as exc:
            make_potential(cosx(g) / np.pi**2, g)
        assert exc.value.min_density == pytest.approx(-1.0, abs=1e-10)

    def test_density_mean_exact(self, scheme):
        rng = np.random.default_rng(2)
        for n in (16, 32, 64):
            u = random_potential(Grid(n, scheme), rng, 0.03)
            assert abs(u.density.mean() - 1.0) <= 10 * EPS
        with pytest.raises(ValueError, match="density mean"):
            Potential(Grid(16, scheme), np.zeros((16, 16)), np.full((16, 16), 2.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_cell_rejected(self, scheme, bad):
        g = Grid(16, scheme)
        f = np.zeros((16, 16))
        f[3, 5] = bad
        with pytest.raises(NotKahler):
            make_potential(f, g)
        with pytest.raises(NotKahler):
            Potential(g, f, np.ones((16, 16)))
        with pytest.raises(NotKahler):
            Potential(g, np.zeros((16, 16)), np.where(f == 0.0, 1.0, bad))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            make_potential(np.zeros((8, 8)), Grid(16))
        with pytest.raises(ValueError, match="shape"):
            Potential(Grid(16), np.zeros((8, 8)), np.ones((8, 8)))

    def test_fields_read_only(self, flat32):
        with pytest.raises(ValueError):
            flat32.field[0, 0] = 1.0


class TestFDensity:
    def test_flat(self, flat32):
        assert np.all(1.0 / flat32.density == 1.0)

    def test_constant_potential(self):
        g = Grid(16)
        u = make_potential(np.full((16, 16), 2.5), g)
        assert np.abs(1.0 / u.density - 1.0).max() < 1e-12

    def test_reciprocal_oracle(self):
        g = Grid(64, "spectral")
        u = make_potential(cosx(g) / (4.0 * np.pi**2), g)
        expected = 1.0 / (1.0 - 0.5 * cosx(g))
        assert np.abs(1.0 / u.density - expected).max() < 1e-11


class TestMetricGrad:
    """The gradient of xi in the metric of u is gradient(xi) / rho_u."""

    def test_constant_field(self, flat32):
        gx, gy = (d / flat32.density for d in gradient(np.full((32, 32), 4.0), flat32.grid))
        assert np.abs(gx).max() < 1e-12 and np.abs(gy).max() < 1e-12

    def test_siny_flat(self, grid32, flat32):
        _, y = grid32.coords()
        gx, gy = (d / flat32.density for d in gradient(np.sin(2.0 * np.pi * y), grid32))
        assert np.abs(gx).max() < 1e-10
        assert np.abs(gy - 2.0 * np.pi * np.cos(2.0 * np.pi * y)).max() < 1e-10

    def test_density_scaling_halves(self, grid32):
        rng = np.random.default_rng(3)
        xi = rng.standard_normal((32, 32))
        rho = 1.0 + 0.3 * np.cos(2.0 * np.pi * grid32.coords()[0])
        for d in gradient(xi, grid32):
            assert np.abs(0.5 * (d / rho) - d / (2.0 * rho)).max() < 1e-12


def reference_derivatives(f, n, scheme):
    """(dx, dy, laplacian) by complex FFTs or explicit np.roll stencils."""
    if scheme == "central":
        fx = (np.roll(f, -1, axis=-2) - np.roll(f, 1, axis=-2)) * (n / 2.0)
        fy = (np.roll(f, -1, axis=-1) - np.roll(f, 1, axis=-1)) * (n / 2.0)
        lap = (
            np.roll(f, -1, axis=-2) + np.roll(f, 1, axis=-2)
            + np.roll(f, -1, axis=-1) + np.roll(f, 1, axis=-1) - 4.0 * f
        ) * float(n**2)
        return fx, fy, lap
    k = np.fft.fftfreq(n, d=1.0 / n)
    odd = np.where(np.abs(k) == n // 2, 0.0, k)  # no real odd derivative of the Nyquist mode
    spec = np.fft.fft2(f, axes=(-2, -1))

    def apply(mult):
        return np.fft.ifft2(mult * spec, axes=(-2, -1)).real

    return (
        apply(2j * np.pi * odd[:, None]),
        apply(2j * np.pi * odd[None, :]),
        apply(-4.0 * np.pi**2 * (k[:, None] ** 2 + k[None, :] ** 2)),
    )


class TestDerivativesAgainstReference:
    @pytest.mark.parametrize("n", [16, 32, 64])
    def test_matches_reference(self, scheme, n):
        g = Grid(n, scheme)
        f = np.random.default_rng(n).standard_normal((3, n, n))  # full spectrum, Nyquist included
        ref_x, ref_y, ref_lap = reference_derivatives(f, n, scheme)
        gx, gy = gradient(f, g)
        assert np.array_equal(gx, dx(f, g)) and np.array_equal(gy, dy(f, g))
        got = {"dx": dx(f, g), "dy": dy(f, g), "lap": laplacian(f, g), "gx": gx, "gy": gy}
        want = {"dx": ref_x, "dy": ref_y, "lap": ref_lap, "gx": ref_x, "gy": ref_y}
        for name, value in got.items():
            if scheme == "central":
                # the axis matrices sum the stencil's terms in another order
                tol = 4 * EPS * np.abs(want[name]).max()
            else:
                tol = 1e-12 * np.abs(ref_lap).max()
            assert np.abs(value - want[name]).max() <= tol, name

    @pytest.mark.parametrize("n", [4, 6, 16, 32, 64])
    def test_symbols_match_reference(self, scheme, n):
        """laplacian_symbol times each mode cos 2 pi (kx x + ky y), |kx|, |ky| <= n,
        aliased ones included, is the grid's laplacian of that mode."""
        g = Grid(n, scheme)
        x, y = g.coords()
        k = np.arange(-n, n + 1)
        lam = laplacian_symbol(g, k[:, None], k)
        tol = 1e-12 * np.abs(lam).max()
        for kx, row in zip(k, lam):
            modes = np.cos(2.0 * np.pi * (kx * x + k[:, None, None] * y))
            assert np.abs(laplacian(modes, g) - row[:, None, None] * modes).max() <= tol, kx


class TestDerivativeLayer:
    @pytest.mark.parametrize("n", [4, 6, 10, 14, 32])
    def test_constants_along_the_axis_differentiate_to_zero(self, scheme, n):
        """Exactly 0, not rounding: a constant Hamiltonian must flow by the identity."""
        g = Grid(n, scheme)
        rows = np.random.default_rng(n).standard_normal((3, 1, n))
        const_in_x = np.broadcast_to(rows, (3, n, n))
        assert not dx(const_in_x, g).any()
        assert not dy(const_in_x.swapaxes(-1, -2), g).any()
        for value in (3.7, 1.0 / 3.0, -1e38):
            for d in gradient(np.full((2, n, n), value), g):
                assert not d.any()

    @pytest.mark.parametrize("n", [6, 32])
    def test_runs_no_transform(self, monkeypatch, scheme, n):
        """Once the axis matrices are built, every derivative is a matrix product."""
        g = Grid(n, scheme)
        axis_matrices(g)
        f = np.random.default_rng(n).standard_normal((2, n, n))
        forbid_transforms(monkeypatch)
        for out in (dx(f, g), dy(f, g), *gradient(f, g), laplacian(f, g), ma_density(f, g)):
            assert out.shape == f.shape and np.isfinite(out).all()


class TestAxisMatrices:
    """The per-grid axis matrices against the grid's own derivatives."""

    @pytest.mark.parametrize("n", [4, 8, 32, 64])
    def test_match_grid_derivatives(self, scheme, n):
        g = Grid(n, scheme)
        d1, d1t, d2, _, _ = axis_matrices(g)
        assert np.array_equal(d1t, d1.T) and d1t.flags.c_contiguous
        f = np.random.default_rng(n).standard_normal((3, n, n))  # full spectrum, Nyquist included
        pairs = (
            (d1 @ f, dx(f, g)),
            (f @ d1.T, dy(f, g)),
            (d2 @ f + f @ d2, laplacian(f, g)),
        )
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("n", [4, 8, 32, 64])
    def test_orthonormal_eigenbasis(self, scheme, n):
        _, _, d2, basis, eigen = axis_matrices(Grid(n, scheme))
        assert np.array_equal(d2, d2.T)
        assert np.abs(basis.T @ basis - np.eye(n)).max() <= 1e-13
        assert np.abs(basis * eigen @ basis.T - d2).max() <= 1e-13 * np.abs(d2).max()

    @pytest.mark.parametrize("n", [4, 8, 32, 64])
    def test_central_stencils_annihilate_constants_exactly(self, n):
        d1, _, d2, _, _ = axis_matrices(Grid(n, "central"))
        ones = np.ones(n)
        assert np.array_equal(d1 @ ones, np.zeros(n))
        assert np.array_equal(d2 @ ones, np.zeros(n))

    def test_read_only_and_cached(self, scheme):
        g = Grid(8, scheme)
        table = axis_matrices(g)
        assert axis_matrices(Grid(8, scheme)) is table
        for a in table:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0


class TestInnerProduct:
    def test_constant(self, flat32):
        out = inner_product_du(flat32, np.full((32, 32), 1.3), np.ones((32, 32)))
        assert np.abs(out).max() < 1e-12

    def test_sinx_self(self, grid32, flat32):
        x, _ = grid32.coords()
        xi = np.sin(2.0 * np.pi * x)
        expected = 4.0 * np.pi**2 * np.cos(2.0 * np.pi * x) ** 2
        assert np.abs(inner_product_du(flat32, xi, xi) - expected).max() < 1e-10

    def test_symmetry_bit_exact(self, flat32):
        rng = np.random.default_rng(4)
        xi, eta = rng.standard_normal((2, 32, 32))
        assert np.array_equal(
            inner_product_du(flat32, xi, eta), inner_product_du(flat32, eta, xi)
        )

    def test_bilinearity(self, flat32):
        rng = np.random.default_rng(5)
        xi, eta = rng.standard_normal((2, 32, 32))
        for a in (2.0, -0.5, 7.25):
            d = inner_product_du(flat32, a * xi, eta) - a * inner_product_du(flat32, xi, eta)
            assert np.abs(d).max() < 1e-10

    def test_nonnegative_on_diagonal(self, scheme):
        rng = np.random.default_rng(6)
        g = Grid(16, scheme)
        u = random_potential(g, rng, 0.03)
        xi = rng.standard_normal((16, 16))
        assert inner_product_du(u, xi, xi).min() >= 0.0


class TestPoissonBracket:
    def test_constant_argument(self, flat32):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((32, 32))
        assert np.abs(poisson_bracket(flat32, np.full((32, 32), 2.0), g)).max() < 1e-12

    def test_sine_pair(self, grid32, flat32):
        x, y = grid32.coords()
        f = np.sin(2.0 * np.pi * x)
        g = np.sin(2.0 * np.pi * y)
        expected = 4.0 * np.pi**2 * np.cos(2.0 * np.pi * x) * np.cos(2.0 * np.pi * y)
        assert np.abs(poisson_bracket(flat32, f, g) - expected).max() < 1e-10

    def test_antisymmetry_bit_exact(self, scheme):
        rng = np.random.default_rng(8)
        g = Grid(16, scheme)
        u = random_potential(g, rng, 0.03)
        f, h = rng.standard_normal((2, 16, 16))
        assert np.array_equal(poisson_bracket(u, f, h), -poisson_bracket(u, h, f))
        assert np.all(poisson_bracket(u, f, f) == 0.0)

    def test_integral_vanishes(self):
        rng = np.random.default_rng(9)
        for scheme, bound in (("spectral", 1e-12), ("central", 1e-2)):
            g = Grid(32, scheme)
            u = random_potential(g, rng, 0.03)
            f = random_potential(g, rng, 0.5).field
            h = random_potential(g, rng, 0.5).field
            assert abs(integrate(poisson_bracket(u, f, h), u)) < bound


class TestIntegrate:
    def test_constant(self, scheme):
        rng = np.random.default_rng(10)
        u = random_potential(Grid(32, scheme), rng, 0.03)
        assert integrate(np.full((32, 32), -2.5), u) == pytest.approx(-2.5, abs=1e-12)

    def test_cosine_flat(self, grid32, flat32):
        assert abs(integrate(cosx(grid32), flat32)) < 1e-12

    def test_unit_mass(self, scheme):
        rng = np.random.default_rng(11)
        for n in (16, 64):
            u = random_potential(Grid(n, scheme), rng, 0.03)
            assert integrate(np.ones((n, n)), u) == pytest.approx(1.0, abs=1e-12)

    def test_indicator_counting(self, flat32):
        mask = np.zeros((32, 32))
        mask[:16, :] = 1.0
        assert integrate(mask, flat32) == pytest.approx(0.5, abs=1e-12)

    def test_positive_semidefinite(self, flat32):
        rng = np.random.default_rng(12)
        f = rng.standard_normal((32, 32))
        assert integrate(f * f, flat32) >= 0.0


class TestWeightedValues:
    def test_from_field_mass(self, scheme):
        rng = np.random.default_rng(13)
        u = random_potential(Grid(32, scheme), rng, 0.03)
        wv = WeightedValues.from_field(rng.standard_normal((32, 32)), u)
        assert wv.total_mass == pytest.approx(1.0, abs=1e-12)
        assert wv.weights.min() > 0.0

    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            WeightedValues.from_arrays([1.0, 2.0], [0.5, 0.6])

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError):
            WeightedValues.from_arrays([1.0, 2.0], [1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            WeightedValues.from_arrays([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        with pytest.raises(ValueError, match="finite"):
            WeightedValues.from_arrays([1.0, bad], [0.5, 0.5])

    @pytest.mark.parametrize(
        "weights", [[np.nan, 1.0], [1.0, np.nan], [np.nan, np.nan], [np.inf, 0.5], [0.5, np.inf]]
    )
    def test_rejects_non_finite_weights(self, weights):
        with pytest.raises(ValueError):
            WeightedValues.from_arrays([1.0, 2.0], weights)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            WeightedValues.from_arrays([1.0, 2.0], [1.0])
        with pytest.raises(ValueError, match="1-d"):
            WeightedValues(np.ones((1, 1)), np.ones((1, 1)))
