"""Tests for paths, parallel transport, and Hamiltonian flows."""

import numpy as np
import pytest

from helpers import compose, covariant_derivative, segment_transport_displacements

from mal.errors import NonConvergence, StepUnstable
from mal.fixtures import random_band_limited, random_potential
from mal.grid import Grid, make_potential
from mal.transport import (
    PotentialPath,
    TransportMap,
    bilinear_periodic,
    composition_scheme,
    inverse,
    linear_path,
    map_distance,
    pullback,
    spectral_interp,
    symplectic_flow,
    transport_flow,
)


def constant_path(grid, value, times):
    u = make_potential(np.full((grid.n, grid.n), value), grid)
    return PotentialPath(np.asarray(times, dtype=float), (u,) * len(times))


def path_from_fields(grid, times, fields):
    knots = tuple(make_potential(f, grid) for f in fields)
    return PotentialPath(np.asarray(times, dtype=float), knots)


def gentle_path(grid, rng, scale=1.0, intervals=8):
    """Path whose flow stays well resolved (low modes, mild stretching)."""
    u_a = random_potential(grid, rng, amplitude=0.01, max_mode=1)
    x, y = grid.coords()
    bump = 0.01 * np.cos(2.0 * np.pi * x) + 0.0075 * np.sin(2.0 * np.pi * y)
    u_b = make_potential(u_a.field + scale * bump, grid)
    return linear_path(u_a, u_b, 0.0, 1.0, intervals)


class TestPathValidation:
    def test_needs_two_knots(self):
        g = Grid(8)
        u = make_potential(np.zeros((8, 8)), g)
        with pytest.raises(ValueError, match="two knots"):
            PotentialPath(np.array([0.0]), (u,))

    def test_times_must_match_knots(self):
        g = Grid(8)
        u = make_potential(np.zeros((8, 8)), g)
        with pytest.raises(ValueError, match="one time per knot"):
            PotentialPath(np.array([0.0, 0.5, 1.0]), (u, u))

    def test_times_must_increase(self):
        g = Grid(8)
        u = make_potential(np.zeros((8, 8)), g)
        with pytest.raises(ValueError, match="increasing"):
            PotentialPath(np.array([0.0, 0.0]), (u, u))

    @pytest.mark.parametrize("times", [[0.0, np.inf], [-np.inf, 0.0], [0.0, 1.0, np.inf]])
    def test_times_must_be_finite(self, times):
        g = Grid(8)
        u = make_potential(np.zeros((8, 8)), g)
        with pytest.raises(ValueError, match="finite"):
            PotentialPath(np.array(times), (u,) * len(times))

    def test_knots_share_grid(self):
        u = make_potential(np.zeros((8, 8)), Grid(8))
        v = make_potential(np.zeros((8, 8)), Grid(8, "central"))
        with pytest.raises(ValueError, match="grid"):
            PotentialPath(np.array([0.0, 1.0]), (u, v))

    def test_orientation_reversing_displacement_rejected(self):
        g = Grid(32)
        x, _ = g.coords()
        disp = -1.2 * np.sin(2.0 * np.pi * x) / (2.0 * np.pi)
        with pytest.raises(ValueError, match="orientation"):
            TransportMap.from_displacement(g, np.stack([disp, np.zeros_like(disp)]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_jacobian_rejected(self, bad):
        jac = np.ones((8, 8))
        jac[3, 4] = bad
        with pytest.raises(ValueError, match="orientation"):
            TransportMap(Grid(8), np.zeros((2, 8, 8)), jac)


class TestVelocity:
    def test_constant_path_zero_velocity(self):
        path = constant_path(Grid(16), 0.7, [0.0, 0.5, 1.0])
        v = path.interval_velocity
        assert v.shape == (2, 16, 16)
        assert not v.any()

    def test_linear_path_constant_quotient(self):
        g = Grid(16)
        c, big_t = 0.3, 2.0
        path = path_from_fields(
            g,
            [0.0, 0.8, big_t],
            [np.zeros((16, 16)), np.full((16, 16), c * 0.4), np.full((16, 16), c)],
        )
        assert np.max(np.abs(path.interval_velocity - c / big_t)) < 1e-14

    def test_solver_native_quadratic_in_time(self):
        g = Grid(8)
        times = np.linspace(0.0, 1.0, 6)
        path = path_from_fields(g, times, [np.full((8, 8), t * t) for t in times])
        v = path.knot_velocity
        assert v.shape == (6, 8, 8)
        expected = 2.0 * times[:, None, None]
        assert np.max(np.abs(v - expected)) < 1e-12

    def test_kinked_path_velocity_is_quadratic_derivative(self):
        """At every knot of a kinked three-knot path with uneven times the
        velocity is the derivative of the quadratic through the knots."""
        g = Grid(8)
        rng = np.random.default_rng(29)
        t0, t1, t2 = times = np.array([0.0, 0.3, 1.0])
        u0, u1, u2 = fields = [random_potential(g, rng).field for _ in times]
        path = path_from_fields(g, times, fields)

        def quadratic_derivative(t):
            return (
                u0 * (2.0 * t - t1 - t2) / ((t0 - t1) * (t0 - t2))
                + u1 * (2.0 * t - t0 - t2) / ((t1 - t0) * (t1 - t2))
                + u2 * (2.0 * t - t0 - t1) / ((t2 - t0) * (t2 - t1))
            )

        expected = np.stack([quadratic_derivative(t) for t in times])
        assert np.max(np.abs(path.knot_velocity - expected)) < 1e-13

    def test_two_knot_path_velocity_is_its_quotient(self):
        g = Grid(8)
        rng = np.random.default_rng(31)
        a, b = random_potential(g, rng).field, random_potential(g, rng).field
        path = path_from_fields(g, [0.2, 0.7], [a, b])
        quotient = (b - a) / 0.5
        for v in path.knot_velocity:
            assert np.max(np.abs(v - quotient)) < 1e-14

    def test_linear_path_knot_velocity_is_its_quotient(self, scheme):
        path = gentle_path(Grid(32, scheme), np.random.default_rng(37), intervals=8)
        v, quot = path.knot_velocity, path.interval_velocity
        assert np.max(np.abs(v[:-1] - quot)) < 1e-14
        assert np.max(np.abs(v[1:] - quot)) < 1e-14


class TestInterpolation:
    def test_bilinear_exact_at_grid_points(self):
        rng = np.random.default_rng(5)
        g = Grid(16)
        field = rng.normal(size=(2, 16, 16))
        points = np.stack(g.coords())
        assert np.array_equal(bilinear_periodic(field, points, 16), field)
        assert np.array_equal(bilinear_periodic(field[1], points, 16), field[1])

    def test_bilinear_midpoint_average(self):
        field = np.zeros((8, 8))
        field[2, 3] = 1.0
        field[3, 3] = 3.0
        val = bilinear_periodic(field, np.array([[2.5 / 8.0], [3.0 / 8.0]]), 8)
        assert val[0] == pytest.approx(2.0)

    def test_spectral_interp_matches_band_limited_function(self):
        g = Grid(16)
        x, y = g.coords()
        field = np.cos(2.0 * np.pi * x) + 0.5 * np.sin(4.0 * np.pi * y)
        rng = np.random.default_rng(11)
        p = rng.uniform(size=(2, 5, 8))
        px, py = p
        vals = spectral_interp(np.stack([field, 2.0 * field]), p)
        exact = np.cos(2.0 * np.pi * px) + 0.5 * np.sin(4.0 * np.pi * py)
        assert vals.shape == (2, 5, 8)
        assert np.max(np.abs(vals[0] - exact)) < 1e-12
        assert np.max(np.abs(vals[1] - 2.0 * exact)) < 1e-12


class TestTransportFlow:
    def test_constant_path_gives_identity_maps(self, scheme):
        path = constant_path(Grid(16, scheme), 0.25, [0.0, 0.5, 1.0])
        maps = transport_flow(path, substeps=2)
        assert len(maps) == 3
        for phi in maps:
            assert phi.is_identity
            assert np.array_equal(phi.jacobian, np.ones((16, 16)))

    def test_spatially_constant_velocity_gives_identity(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(3)
        u0 = random_potential(g, rng)
        times = np.array([0.0, 0.5, 1.0])
        path = path_from_fields(g, times, [u0.field + 0.3 * t for t in times])
        for phi in transport_flow(path, substeps=3):
            assert map_distance(phi, TransportMap.identity(g)) < 1e-13
            assert np.max(np.abs(phi.jacobian - 1.0)) < 1e-12

    def test_substeps_validated(self):
        path = constant_path(Grid(8), 0.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="substeps"):
            transport_flow(path, substeps=0)
        with pytest.raises(ValueError, match="substeps"):
            symplectic_flow(np.zeros((1, 8, 8)), path.knots[0], substeps=0)

    def test_displacement_converges_to_reference(self):
        """Flow along u(t) = t a cos(2 pi x) against a finer discretization."""
        g = Grid(32)
        a = 0.02

        def flow_at_resolution(intervals, substeps):
            times = np.linspace(0.0, 1.0, intervals + 1)
            x, _ = g.coords()
            fields = [t * a * np.cos(2.0 * np.pi * x) for t in times]
            path = path_from_fields(g, times, fields)
            return transport_flow(path, substeps=substeps)[-1]

        ref = flow_at_resolution(32, 32)
        errs = [map_distance(flow_at_resolution(m, s), ref) for m, s in [(2, 2), (4, 4), (8, 8)]]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-5

    def test_pullback_density_identity(self, scheme):
        """rho_T(phi(x)) J(x) recovers rho_0(x), improving under refinement."""
        errs = []
        for n, intervals, substeps in ((16, 4, 4), (32, 8, 8), (64, 16, 16)):
            g = Grid(n, scheme)
            rng = np.random.default_rng(17)
            path = gentle_path(g, rng, intervals=intervals)
            phi = transport_flow(path, substeps=substeps)[-1]
            lhs = pullback(path.knots[-1].density, phi) * phi.jacobian
            errs.append(float(np.abs(lhs - path.knots[0].density).max()))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3

    def test_composition_property(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(23)
        path = gentle_path(g, rng, intervals=2)
        maps = transport_flow(path, substeps=16)
        tail = PotentialPath(path.times[1:], path.knots[1:])
        second_leg = transport_flow(tail, substeps=16)[-1]
        assert map_distance(maps[2], compose(second_leg, maps[1])) < 1e-3

    def test_linear_path_matches_per_segment_reference(self, scheme):
        path = gentle_path(Grid(32, scheme), np.random.default_rng(41), intervals=8)
        maps = transport_flow(path, substeps=4)
        assert maps[0].is_identity
        for phi, disp in zip(maps[1:], segment_transport_displacements(path, substeps=4), strict=True):
            assert np.max(np.abs(phi.disp - disp)) < 1e-13

    def test_step_unstable_raised(self):
        g = Grid(32)
        x, _ = g.coords()
        fields = [np.zeros((32, 32)), 0.02 * np.cos(2.0 * np.pi * x)]
        path = path_from_fields(g, [0.0, 10.0], fields)
        with pytest.raises(StepUnstable, match="substeps"):
            transport_flow(path, substeps=1)


class TestPullback:
    def test_constant_field(self):
        g = Grid(16)
        x, _ = g.coords()
        disp = np.stack([0.1 * np.sin(2.0 * np.pi * x), np.zeros((16, 16))])
        phi = TransportMap.from_displacement(g, disp)
        out = pullback(np.full((16, 16), 4.5), phi)
        assert np.max(np.abs(out - 4.5)) < 1e-12

    def test_identity_is_bit_exact(self):
        rng = np.random.default_rng(2)
        g = Grid(16)
        xi = rng.normal(size=(16, 16))
        out = pullback(xi, TransportMap.identity(g))
        assert np.array_equal(out, xi)
        assert out is not xi

    def test_quarter_translation(self, scheme):
        g = Grid(32, scheme)
        x, _ = g.coords()
        disp = np.stack([np.full((32, 32), 0.25), np.zeros((32, 32))])
        shift = TransportMap.from_displacement(g, disp)
        out = pullback(np.cos(2.0 * np.pi * x), shift)
        assert np.max(np.abs(out + np.sin(2.0 * np.pi * x))) < 1e-12


class TestInverse:
    def test_identity_shortcut(self):
        phi = TransportMap.identity(Grid(8))
        assert inverse(phi) is phi

    def test_round_trip_is_identity(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(29)
        path = gentle_path(g, rng, scale=0.5, intervals=4)
        phi = transport_flow(path, substeps=8)[-1]
        round_trip = compose(phi, inverse(phi))
        assert map_distance(round_trip, TransportMap.identity(g)) < 1e-6

    def test_non_contracting_map_raises(self, scheme):
        """sup |grad d| = 0.99 leaves the fixed-point update far above 1e-13 after 60 steps."""
        g = Grid(32, scheme)
        x, _ = g.coords()
        disp = np.stack([0.99 * np.sin(2.0 * np.pi * x) / (2.0 * np.pi), np.zeros((32, 32))])
        with pytest.raises(NonConvergence) as err:
            inverse(TransportMap.from_displacement(g, disp))
        assert err.value.iterations == 60 and err.value.residual >= 1e-13


class TestCovariantDerivative:
    def test_metric_term_vanishes_on_constant_path(self):
        g = Grid(16)
        times = np.array([0.0, 0.4, 1.0])
        path = constant_path(g, 0.1, times)
        rng = np.random.default_rng(7)
        eta = rng.normal(size=(16, 16))
        stack = np.stack([(1.0 + 2.0 * t) * eta for t in times])
        out = covariant_derivative(path, stack)
        assert np.max(np.abs(out - 2.0 * eta)) < 1e-12

    def test_shape_mismatch(self):
        path = constant_path(Grid(8), 0.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="one field per knot"):
            covariant_derivative(path, np.zeros((3, 8, 8)))

    def test_transported_field_is_covariant_constant(self):
        """Fields riding the transport flow have small covariant derivative.

        The flow map moves seeds forward, so the advected field is the fixed
        field composed with the inverse map; its covariant derivative decays
        under joint space and time refinement.
        """
        a = 0.02

        def worst_residual(n, intervals, substeps):
            g = Grid(n)
            times = np.linspace(0.0, 1.0, intervals + 1)
            x, y = g.coords()
            fields = [t * a * np.cos(2.0 * np.pi * x) for t in times]
            path = path_from_fields(g, times, fields)
            eta = np.cos(2.0 * np.pi * y) + 0.3 * np.sin(2.0 * np.pi * x)
            maps = transport_flow(path, substeps=substeps)
            stack = np.stack([pullback(eta, inverse(phi)) for phi in maps])
            return float(np.abs(covariant_derivative(path, stack)).max())

        errs = [worst_residual(16, 8, 4), worst_residual(32, 16, 8)]
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3


class TestSymplecticFlow:
    def test_constant_hamiltonian_is_identity(self, scheme):
        """At every grid size the command line accepts."""
        for n in range(4, 66, 2):
            g = Grid(n, scheme)
            u = make_potential(np.zeros((n, n)), g)
            phi = symplectic_flow(np.full((1, n, n), 3.0), u, substeps=4)
            assert phi.is_identity, n

    def test_shear_flow_matches_analytic_solution(self, scheme):
        g = Grid(32, scheme)
        u = make_potential(np.zeros((32, 32)), g)
        _, y = g.coords()
        zeta = np.cos(2.0 * np.pi * y) / (2.0 * np.pi)
        phi = symplectic_flow(zeta[None], u, substeps=64)
        h = 1.0 / g.n
        if scheme == "spectral":
            speed = np.sin(2.0 * np.pi * y)
        else:
            speed = np.sin(2.0 * np.pi * y) * np.sin(2.0 * np.pi * h) / (2.0 * np.pi * h)
        assert np.max(np.abs(phi.disp[0] - speed)) < 1e-10
        assert not phi.disp[1].any()
        assert np.max(np.abs(phi.jacobian - 1.0)) < 1e-9

    def test_flat_background_jacobian_is_one(self):
        """Over a flat potential the flow preserves Lebesgue area."""
        def jacobian_error(n):
            g = Grid(n)
            rng = np.random.default_rng(31)
            u = make_potential(np.zeros((n, n)), g)
            zeta = random_band_limited(g, rng, 0.01, max_mode=1)
            phi = symplectic_flow(zeta[None], u, substeps=16)
            return float(np.abs(phi.jacobian - 1.0).max())

        errs = [jacobian_error(16), jacobian_error(32)]
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_weighted_measure_preserved_over_curved_background(self):
        """The flow preserves rho_u dx: rho_u(phi(x)) J(x) = rho_u(x)."""
        def weighted_error(n):
            g = Grid(n)
            rng = np.random.default_rng(31)
            u = random_potential(g, rng, amplitude=0.01, max_mode=1)
            zeta = random_band_limited(g, rng, 0.01, max_mode=1)
            phi = symplectic_flow(zeta[None], u, substeps=16)
            lhs = pullback(u.density, phi) * phi.jacobian
            return float(np.abs(lhs - u.density).max())

        errs = [weighted_error(16), weighted_error(32)]
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_step_unstable(self):
        g = Grid(32)
        u = make_potential(np.zeros((32, 32)), g)
        _, y = g.coords()
        zeta = 5.0 * np.cos(2.0 * np.pi * y) / (2.0 * np.pi)
        with pytest.raises(StepUnstable):
            symplectic_flow(zeta[None], u, substeps=1)


class TestCompositionScheme:
    @staticmethod
    def time_family(grid, rng):
        za = random_band_limited(grid, rng, 0.02, max_mode=1)
        zb = random_band_limited(grid, rng, 0.02, max_mode=1)
        s = np.linspace(0.0, 1.0, 5)[:, None, None]
        return (1.0 - s) * za + s * zb

    def test_k_one_is_single_frozen_step(self):
        g = Grid(16)
        rng = np.random.default_rng(41)
        u = random_potential(g, rng)
        frames = self.time_family(g, rng)
        direct = symplectic_flow(frames[0][None], u, substeps=8)
        comp = composition_scheme(frames, 1, u)
        assert np.array_equal(comp.disp, direct.disp)

    def test_autonomous_family_matches_single_flow(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(43)
        u = random_potential(g, rng, amplitude=0.01, max_mode=1)
        zeta = random_band_limited(g, rng, 0.02, max_mode=1)
        single = symplectic_flow(zeta[None], u, substeps=32)
        comp = composition_scheme(zeta[None], 4, u)
        assert map_distance(comp, single) <= 1e-12

    def test_error_decays_in_k(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(47)
        u = random_potential(g, rng)
        frames = self.time_family(g, rng)
        ref = symplectic_flow(frames, u, substeps=32)
        err = {k: map_distance(composition_scheme(frames, k, u), ref) for k in (8, 32)}
        assert err[32] < err[8]

    @pytest.mark.parametrize("seed", [41, 43, 47])
    def test_first_order_in_k(self, scheme, seed):
        """On check 11's fixtures doubling k halves the error: no interpolation floor."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(seed)
        u = random_potential(g, rng, 0.02)
        frames = self.time_family(g, rng)
        ref = symplectic_flow(frames, u, substeps=64)
        err = {k: map_distance(composition_scheme(frames, k, u), ref) for k in (16, 32)}
        assert err[32] <= 0.6 * err[16]

    def test_k_validated(self):
        g = Grid(8)
        u = make_potential(np.zeros((8, 8)), g)
        with pytest.raises(ValueError, match="k"):
            composition_scheme(np.zeros((1, 8, 8)), 0, u)


@pytest.mark.parametrize(
    "flow",
    [
        lambda z, u: symplectic_flow(z, u, substeps=4),
        lambda z, u: composition_scheme(z, 2, u),
    ],
    ids=["symplectic_flow", "composition_scheme"],
)
@pytest.mark.parametrize(
    "frames",
    [
        np.zeros(()),
        np.zeros((16, 16)),
        np.zeros((0, 16, 16)),
        np.zeros((2, 8, 8)),
        np.full((2, 16, 16), np.nan),
        np.full((1, 16, 16), np.inf),
    ],
    ids=["0-D", "2-D", "empty", "other-grid", "nan", "inf"],
)
def test_malformed_frames_rejected(flow, frames):
    u = make_potential(np.zeros((16, 16)), Grid(16))
    with pytest.raises(ValueError, match="zeta_frames"):
        flow(frames, u)
