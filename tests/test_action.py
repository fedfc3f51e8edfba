"""Tests for path actions, least action, and the verification experiments."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from mal import action, fixtures, geodesics
from mal.action import (
    LeastActionQuery,
    competitor_paths,
    least_action,
    midpoint_convexity_margin,
    midpoint_excess,
    path_action,
    verify_action_convexity,
    verify_comparison_inequality,
    verify_jacobi_convexity,
    verify_least_action,
    verify_least_action_continuity,
    verify_noether,
)
from mal.errors import GenerationFailed, HomogeneityRequired, NotKahler
from mal.fixtures import random_band_limited, random_potential
from mal.geodesics import EpsGeodesicProblem, solve_epsilon_geodesic, weak_geodesic
from mal.grid import SCHEMES, Grid, ma_density, make_potential
from mal.lagrangians import LorentzWeak, Orlicz, Power, SupFamily, evaluate
from mal.rearrangement import rearrange_values
from mal.transport import PotentialPath, linear_path


def constant_potential(grid, value):
    return make_potential(np.full((grid.n, grid.n), float(value)), grid)


def _counting(fn, calls):
    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    return counted


def native_scalar_path(grid, profile, intervals):
    """Path of constants u(t) = profile(t) at uniform knots on [0, 1]."""
    times = np.linspace(0.0, 1.0, intervals + 1)
    knots = tuple(constant_potential(grid, profile(t)) for t in times)
    times.setflags(write=False)
    return PotentialPath(times, knots)


def quadratic_lagrangian():
    return Orlicz(lambda t: t * t)


def joining(u_path, v_path, spec, duration=1.0, **settings):
    """Least-action query between the first knots of two paths."""
    return LeastActionQuery(u_path.knots[0], v_path.knots[0], duration, spec, **settings)


class TestQueryValidation:
    def test_grid_mismatch(self):
        a = constant_potential(Grid(8), 0.0)
        b = constant_potential(Grid(16), 1.0)
        with pytest.raises(ValueError):
            LeastActionQuery(a, b, 1.0, Power(1.0))
        central = constant_potential(Grid(8, "central"), 1.0)
        with pytest.raises(ValueError, match="one grid"):
            LeastActionQuery(a, central, 1.0, Power(1.0))

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration_positive(self, duration):
        g = Grid(8)
        with pytest.raises(ValueError):
            LeastActionQuery(
                constant_potential(g, 0.0), constant_potential(g, 1.0), duration, Power(1.0)
            )

    def test_tol_positive(self):
        g = Grid(8)
        with pytest.raises(ValueError):
            LeastActionQuery(
                constant_potential(g, 0.0), constant_potential(g, 1.0), 1.0, Power(1.0), tol=0.0
            )

    @pytest.mark.parametrize("field", ["duration", "tol"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_scalars_rejected(self, field, bad):
        g = Grid(8)
        u, v = constant_potential(g, 0.0), constant_potential(g, 1.0)
        q = LeastActionQuery(u, v, 1.0, Power(1.0))
        with pytest.raises(ValueError, match=field):
            replace(q, **{field: bad})


class TestPathAction:
    def test_constant_path_vanishes(self):
        g = Grid(8)
        c = constant_potential(g, 0.4)
        path = linear_path(c, c, 0.0, 2.0, 3)
        assert path_action(quadratic_lagrangian(), path) == 0.0

    def test_linear_constants_power_two(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 0.7), 0.0, 1.0, 4)
        assert path_action(Power(2.0), path) == pytest.approx(0.7, abs=1e-12)

    def test_linear_constants_quadratic_orlicz(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 0.7), 0.0, 1.0, 4)
        assert path_action(quadratic_lagrangian(), path) == pytest.approx(0.49, abs=1e-12)

    def test_piecewise_linear_right_endpoint_exact(self):
        """Per-segment constant speeds make the composite rule a finite sum."""
        g = Grid(8)
        times = np.array([0.0, 0.25, 1.0])
        knots = (
            constant_potential(g, 0.0),
            constant_potential(g, 0.6),
            constant_potential(g, 0.2),
        )
        times.setflags(write=False)
        path = PotentialPath(times, knots)
        expected = 0.25 * (0.6 / 0.25) + 0.75 * (0.4 / 0.75)
        assert path_action(Power(1.0), path) == pytest.approx(expected, abs=1e-12)

    def test_native_quadratic_scalar_path_exact(self):
        """Interval quotients hit the midpoint velocity of a quadratic exactly."""
        g = Grid(8)
        path = native_scalar_path(g, lambda t: t * t, 8)
        assert path_action(Power(1.0), path) == pytest.approx(1.0, abs=1e-12)

    def test_native_cubic_path_second_order(self):
        g = Grid(8)
        spec = quadratic_lagrangian()
        errs = [
            abs(path_action(spec, native_scalar_path(g, lambda t: t**3, m)) - 9.0 / 5.0)
            for m in (4, 8, 16)
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)


    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    def test_native_matches_knot_average_potentials(self, scheme):
        """Interval measures from knot densities equal those of the knot-average potentials,
        on a solver-native geodesic and on piecewise-linear competitors alike."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(8)
        u_a, u_b = random_potential(g, rng), random_potential(g, rng)
        geodesic = weak_geodesic(u_a, u_b, (0.0, 1.0), 1e-4, 8)
        for path in (geodesic, *competitor_paths(u_a, u_b, 1.0, 2, seed=4)):
            dt, f, quot = np.diff(path.times), path.fields, path.interval_velocity
            for spec in (Power(1.0), Power(2.0), LorentzWeak(0.5), quadratic_lagrangian()):
                want = np.sum([
                    dt[i] * evaluate(spec, make_potential(0.5 * (f[i] + f[i + 1]), g), quot[i])
                    for i in range(dt.size)
                ])
                assert path_action(spec, path) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    def test_competitor_action_matches_gauss_legendre(self, scheme):
        """For forms linear in the measure the integrand is affine on each segment."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(9)
        u_a, u_b = random_potential(g, rng), random_potential(g, rng)
        nodes, weights = np.polynomial.legendre.leggauss(16)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights
        for path in competitor_paths(u_a, u_b, 1.0, 3, seed=4):
            dt, f, quot = np.diff(path.times), path.fields, path.interval_velocity
            for spec in (Power(1.0), quadratic_lagrangian()):
                want = 0.0
                for i in range(dt.size):
                    for s, w in zip(nodes, weights):
                        u = make_potential((1.0 - s) * f[i] + s * f[i + 1], g)
                        want += dt[i] * w * evaluate(spec, u, quot[i])
                assert path_action(spec, path) == pytest.approx(want, rel=1e-13, abs=0.0)


class TestLeastAction:
    def test_equal_endpoints_zero(self):
        g = Grid(8)
        u = constant_potential(g, 0.3)
        q = LeastActionQuery(u, u, 2.0, Power(1.0), tol=1e-7, time_steps=8)
        assert least_action(q) == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    def test_constants_power_one(self, scheme):
        g = Grid(8, scheme)
        q = LeastActionQuery(
            constant_potential(g, -0.2), constant_potential(g, 0.5), 2.0, Power(1.0), time_steps=8
        )
        assert least_action(q) == pytest.approx(0.7, abs=1e-6)

    def test_constants_quadratic_orlicz(self):
        g = Grid(8)
        q = LeastActionQuery(
            constant_potential(g, 0.0),
            constant_potential(g, 0.6),
            2.0,
            quadratic_lagrangian(),
            time_steps=8,
        )
        assert least_action(q) == pytest.approx(0.36 / 2.0, abs=1e-6)

    def test_homogeneous_duration_invariance(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        vals = [
            least_action(LeastActionQuery(u_a, u_b, T, Power(1.0), time_steps=16))
            for T in (0.5, 1.0, 2.0)
        ]
        assert max(vals) - min(vals) < 1e-7

    def test_never_beats_linear_path(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        spec = quadratic_lagrangian()
        q = LeastActionQuery(u_a, u_b, 1.0, spec, time_steps=16)
        linear = path_action(spec, linear_path(u_a, u_b, 0.0, 1.0, 8))
        assert least_action(q) <= linear + 1e-8

    def test_concatenation_superadditivity_constants(self):
        g = Grid(8)
        spec = quadratic_lagrangian()
        w, w_mid, w_end = (constant_potential(g, v) for v in (0.0, 0.7, 0.3))
        l_first = least_action(LeastActionQuery(w, w_mid, 1.0, spec, time_steps=8))
        l_second = least_action(LeastActionQuery(w_mid, w_end, 0.5, spec, time_steps=8))
        l_joined = least_action(LeastActionQuery(w, w_end, 1.5, spec, time_steps=8))
        assert l_first + l_second >= l_joined - 1e-8
        assert l_first + l_second == pytest.approx(0.49 + 0.16 / 0.5, abs=1e-6)

    def test_concatenation_superadditivity_generic(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a, u_b, u_c = (random_potential(g, rng) for _ in range(3))
        spec = quadratic_lagrangian()
        l_first = least_action(LeastActionQuery(u_a, u_b, 1.0, spec, time_steps=16))
        l_second = least_action(LeastActionQuery(u_b, u_c, 0.5, spec, time_steps=16))
        l_joined = least_action(LeastActionQuery(u_a, u_c, 1.5, spec, time_steps=16))
        assert l_first + l_second >= l_joined - 1e-8

    def test_even_spec_symmetry(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        forward = least_action(LeastActionQuery(u_a, u_b, 1.0, Power(2.0), time_steps=16))
        backward = least_action(LeastActionQuery(u_b, u_a, 1.0, Power(2.0), time_steps=16))
        assert forward == pytest.approx(backward, abs=2e-6)

    def test_precomputed_geodesic_reused(self):
        g = Grid(8)
        q = LeastActionQuery(
            constant_potential(g, 0.0), constant_potential(g, 0.5), 1.0, Power(1.0), time_steps=8
        )
        geo = weak_geodesic(q.start, q.end, (0.0, q.duration), q.tol, q.time_steps)
        assert q.geodesic is q.geodesic
        assert np.array_equal(q.geodesic.fields, geo.fields)
        assert least_action(q) == path_action(q.spec, geo)


class TestCompetitorPaths:
    def test_interior_knot_count_and_endpoints(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        for p in competitor_paths(u_a, u_b, 1.0, 4, seed=1):
            assert len(p.knots) == 6
            assert p.knots[0] is u_a and p.knots[-1] is u_b

    def test_seed_determinism(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        first = competitor_paths(u_a, u_b, 1.0, 3, seed=5)
        # equal endpoints that are new objects miss the memo, so this redraws
        v_a, v_b = make_potential(u_a.field, g), make_potential(u_b.field, g)
        second = competitor_paths(v_a, v_b, 1.0, 3, seed=5)
        other = competitor_paths(u_a, u_b, 1.0, 3, seed=6)
        for a, b in zip(first, second):
            assert a.knots[1] is not b.knots[1]
            assert np.array_equal(a.times, b.times)
            assert np.array_equal(a.fields, b.fields)
        assert not np.array_equal(first[0].fields, other[0].fields)

    def test_repeat_call_wraps_memoized_knots_in_fresh_paths(self):
        g = Grid(16)
        rng = np.random.default_rng(3)
        u_a, u_b = random_potential(g, rng), random_potential(g, rng)
        first = competitor_paths(u_a, u_b, 1.0, 2, seed=5)
        again = competitor_paths(u_a, u_b, 1.0, 2, seed=5)
        for a, b in zip(first, again):
            assert a is not b
            assert a.times is b.times
            assert all(k is l for k, l in zip(a.knots, b.knots))

    def test_affine_verdict_matches_make_potential(self):
        """The draw's own Laplacian judges it as make_potential would, on 400 draws per
        scheme at n = 32 and at n = 4, where modes up to 3 alias."""
        for (n, max_mode), scheme in itertools.product(((32, 3), (4, 3)), SCHEMES):
            g = Grid(n, scheme)
            rng = np.random.default_rng(5)
            u_a, u_b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
            verdicts = []
            for _ in range(400):
                s = rng.uniform()
                amplitude = 10.0 ** rng.uniform(-3.0, -1.0)
                draw, lap = fixtures.sample_band_limited(g, rng, amplitude, max_mode)
                density = (1.0 - s) * u_a.density + s * u_b.density
                try:
                    make_potential((1.0 - s) * u_a.field + s * u_b.field + draw, g)
                    built = True
                except NotKahler:
                    built = False
                assert bool((density + 0.5 * lap).min() > 0.0) == built
                verdicts.append(built)
            assert 50 < sum(verdicts) < 350, (n, scheme)

    def test_knots_match_draw_then_build_loop(self):
        g = Grid(32)
        rng = np.random.default_rng(11)
        u_a, u_b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
        count, budget, amplitude, duration = 8, action._KNOT_BUDGET, action._AMPLITUDE, 1.0
        # the loop the affine test replaced: build a Potential for every draw
        rng = np.random.default_rng(21)
        expected = []
        for _ in range(count):
            times = np.linspace(0.0, duration, budget + 2)
            times[1:-1] += 0.3 * duration / (budget + 1) * rng.uniform(-1.0, 1.0, size=budget)
            knots = []
            for t in times[1:-1]:
                s = t / duration
                base = (1.0 - s) * u_a.field + s * u_b.field
                amp = amplitude
                for _ in range(51):
                    try:
                        knots.append(make_potential(base + random_band_limited(g, rng, amp), g))
                        break
                    except NotKahler:
                        amp *= 0.5
                else:
                    pytest.fail("the reference loop found no admissible knot")
            expected.append((times, knots))
        paths = competitor_paths(u_a, u_b, duration, count, 21)
        for (times, knots), path in zip(expected, paths, strict=True):
            assert np.array_equal(path.times, times)
            for want, got in zip(knots, path.knots[1:-1], strict=True):
                assert np.array_equal(got.field, want.field)
                # the knot carries the density its verdict read
                assert np.abs(got.density - want.density).max() <= 1e-13

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_knot_density_is_ma_density(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(11)
        u_a, u_b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
        for path in competitor_paths(u_a, u_b, 1.0, 8, seed=21):
            for knot in path.knots[1:-1]:
                assert np.abs(knot.density - ma_density(knot.field, g)).max() <= 1e-13

    def test_forms_of_one_check_share_one_draw(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(1)
            return fixtures.sample_band_limited(*args)

        monkeypatch.setattr(action, "sample_band_limited", counting)
        g = Grid(16)
        rng = np.random.default_rng(8)
        u_a, u_b = random_potential(g, rng, 0.02), random_potential(g, rng, 0.02)
        geod = weak_geodesic(u_a, u_b, (0.0, 1.0), tol=1e-4, time_steps=8)
        draws = []
        for spec in (Power(1.0), Power(2.0), LorentzWeak(0.5)):
            q = LeastActionQuery(u_a, u_b, 1.0, spec, tol=1e-4, time_steps=8)
            verify_least_action(q, count=5, seed=3, geodesic=geod)
            draws.append(len(calls))
        assert draws[0] >= 5 * 4 and draws == [draws[0]] * 3

    def test_draws_run_no_transform(self, monkeypatch):
        """No transform runs and no density is recomputed: make_potential would
        compute its knot's density through grid.ma_density."""
        import scipy.fft

        g = Grid(16)
        u = constant_potential(g, 0.0)
        transforms, densities = [], []
        for module in (np.fft, scipy.fft):
            for name in ("fft2", "ifft2", "rfft2", "irfft2"):
                monkeypatch.setattr(module, name, _counting(getattr(module, name), transforms))
        monkeypatch.setattr("mal.grid.ma_density", _counting(ma_density, densities))
        paths = competitor_paths(u, u, 1.0, 3, seed=6)
        assert sum(len(p.knots) - 2 for p in paths) == 3 * 4
        assert transforms == [] and densities == []

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_validation(self, count):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        with pytest.raises(ValueError):
            competitor_paths(u, u, 1.0, count, seed=0)

    def test_budget_validation(self):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        for duration in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="duration"):
                competitor_paths(u, u, duration, 1, seed=0)

    def test_generation_failure_on_hopeless_amplitude(self, monkeypatch):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        competitor_paths(u, u, 1.0, 1, seed=0)
        assert len(action._COMPETITORS) == 1
        monkeypatch.setattr(action, "_AMPLITUDE", 1e18)
        with pytest.raises(GenerationFailed):
            competitor_paths(u, u, 1.0, 1, seed=1)
        assert not action._COMPETITORS


class TestVerifyLeastAction:
    def test_constants_report_passes(self):
        """A coarse grid passes with the default competitor knot amplitude."""
        g = Grid(8)
        q = LeastActionQuery(
            constant_potential(g, 0.0),
            constant_potential(g, 1.0),
            1.0,
            quadratic_lagrangian(),
            time_steps=16,
        )
        report = verify_least_action(q, count=6, seed=2, tol=5e-3)
        assert report.passed
        assert len(report.provenance["margins"]) == 6

    def test_reparametrized_competitor_jensen(self):
        """Non-constant speed raises the quadratic action above the geodesic's."""
        g = Grid(8)
        spec = quadratic_lagrangian()
        u_a = constant_potential(g, 0.0)
        u_b = constant_potential(g, 1.0)
        times = np.array([0.0, 0.3, 1.0])
        times.setflags(write=False)
        competitor = PotentialPath(times, (u_a, constant_potential(g, 0.7), u_b))
        hand = 0.3 * (0.7 / 0.3) ** 2 + 0.7 * (0.3 / 0.7) ** 2
        assert path_action(spec, competitor) == pytest.approx(hand, abs=1e-12)
        q = LeastActionQuery(u_a, u_b, 1.0, spec, time_steps=8)
        assert least_action(q) <= path_action(spec, competitor)

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    def test_generic_fixture_passes(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(17)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), time_steps=16, tol=1e-6)
        report = verify_least_action(q, count=10, seed=17, tol=5e-3)
        assert report.passed
        assert min(report.provenance["margins"]) > -5e-3

    def test_geodesic_reuse_matches(self):
        g = Grid(16)
        rng = np.random.default_rng(17)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), time_steps=16)
        geo = weak_geodesic(q.start, q.end, (0.0, q.duration), q.tol, q.time_steps)
        direct = verify_least_action(q, count=4, seed=0)
        reused = verify_least_action(q, count=4, seed=0, geodesic=geo)
        assert direct.worst == reused.worst
        assert direct.provenance["margins"] == reused.provenance["margins"]

    def test_geodesic_between_other_endpoints_rejected(self):
        g = Grid(8)
        u_a, u_b, u_c = (constant_potential(g, v) for v in (0.0, 1.0, 0.5))
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), time_steps=8)
        for wrong in (linear_path(u_a, u_c, 0.0, 1.0, 4), linear_path(u_c, u_b, 0.0, 1.0, 4)):
            with pytest.raises(ValueError, match="endpoints"):
                verify_least_action(q, count=2, geodesic=wrong)

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    @pytest.mark.parametrize("n", [4, 8])
    def test_no_competitor_beats_constants_geodesic(self, n, scheme):
        """Between constants the geodesic is least: every margin is nonnegative to rounding."""
        g = Grid(n, scheme)
        u_a, u_b = constant_potential(g, 0.0), constant_potential(g, 1.0)
        geo = weak_geodesic(u_a, u_b, (0.0, 1.0), 1e-5, 8)
        for seed in range(3):
            for spec in (Power(1.0), Power(2.0), quadratic_lagrangian(), LorentzWeak(0.5)):
                q = LeastActionQuery(u_a, u_b, 1.0, spec, tol=1e-5, time_steps=8)
                report = verify_least_action(q, count=50, seed=seed, geodesic=geo)
                assert min(report.provenance["margins"]) >= -1e-12


class TestVerifyComparison:
    def test_homogeneity_required(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 1.0), 0.0, 1.0, 2)
        with pytest.raises(HomogeneityRequired):
            verify_comparison_inequality(quadratic_lagrangian(), path, constant_potential(g, 0.0))

    def test_constants_triangle_power_one(self):
        """Scalar legs: apex sag cancels in the difference of leg values."""
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.2), constant_potential(g, 0.9), 0.0, 1.0, 2)
        report = verify_comparison_inequality(Power(1.0), path, constant_potential(g, 0.0))
        assert report.passed
        assert report.provenance["margin"] == pytest.approx(0.0, abs=1e-6)

    def test_degenerate_apex_uses_constant_leg(self):
        g = Grid(16)
        rng = np.random.default_rng(23)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        path = linear_path(u_a, u_b, 0.0, 1.0, 4)
        report = verify_comparison_inequality(Power(1.0), path, u_a)
        assert report.passed
        assert report.provenance["leg_values"][0] == 0.0

    @pytest.mark.parametrize("spec", [Power(1.0), LorentzWeak(0.5)], ids=["power", "lorentz"])
    def test_generic_triangle(self, spec):
        g = Grid(16)
        rng = np.random.default_rng(29)
        apex = random_potential(g, rng)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        path = linear_path(u_a, u_b, 0.0, 1.0, 4)
        report = verify_comparison_inequality(spec, path, apex, tol=5e-3)
        assert report.passed

    def test_all_vertices_equal(self):
        g = Grid(8)
        u = constant_potential(g, 0.2)
        path = linear_path(u, u, 0.0, 1.0, 2)
        report = verify_comparison_inequality(Power(1.0), path, u)
        assert report.passed
        assert report.worst == 0.0


class TestVerifyNoether:
    def test_linear_constants_exactly_constant(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 0.8), 0.0, 1.0, 6)
        report = verify_noether(Power(1.0), path, tol=1e-12)
        assert report.passed
        assert report.worst < 1e-14

    @pytest.mark.parametrize("scheme", ["spectral", "central"])
    @pytest.mark.parametrize("spec", [Power(1.0), LorentzWeak(0.5)], ids=["power", "lorentz"])
    def test_weak_geodesic_conserves(self, scheme, spec):
        g = Grid(16, scheme)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        path = weak_geodesic(u_a, u_b, (0.0, 1.0), tol=1e-6, time_steps=16)
        report = verify_noether(spec, path, tol=5e-3)
        assert report.passed
        assert report.provenance["pairwise_l1"] <= 5e-3

    def test_deviation_shrinks_under_refinement(self):
        worsts = []
        for n, steps in ((16, 16), (32, 32)):
            g = Grid(n)
            rng = np.random.default_rng(40)
            u_a = random_potential(g, rng)
            u_b = random_potential(g, rng)
            path = weak_geodesic(u_a, u_b, (0.0, 1.0), tol=1e-6, time_steps=steps)
            worsts.append(verify_noether(Power(1.0), path).worst)
        assert worsts[1] < worsts[0]
        assert worsts[1] < 5e-3

    def test_non_geodesic_violates(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        report = verify_noether(Power(1.0), linear_path(u_a, u_b, 0.0, 1.0, 8), tol=1e-6)
        assert not report.passed
        assert report.worst > 1e-4


@pytest.mark.parametrize("scheme", SCHEMES)
def test_knot_values_match_per_knot_evaluations(scheme):
    """The margin and Noether rows price each knot as evaluate does at that knot."""
    g = Grid(16, scheme)
    rng = np.random.default_rng(23)
    path = linear_path(random_potential(g, rng), random_potential(g, rng), 0.0, 1.0, 6)
    field = rng.standard_normal(path.fields.shape)
    supfam = SupFamily(((0.1, rearrange_values([1.5, 0.5], [0.25, 0.75])),))
    for spec in (Power(1.0), Power(2.0), LorentzWeak(0.5), quadratic_lagrangian(), supfam):
        per_knot = [evaluate(spec, knot, field[i]) for i, knot in enumerate(path.knots)]
        margin = midpoint_convexity_margin(spec, path, field)
        assert margin == pytest.approx(midpoint_excess(per_knot), rel=1e-13, abs=1e-15)
        vels = path.knot_velocity
        want = [evaluate(spec, knot, vels[i]) for i, knot in enumerate(path.knots)]
        got = verify_noether(spec, path).provenance["values"]
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


class TestJacobiConvexity:
    def test_constant_directions_flat(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 0.5), (0.0, 1.0), 0.5, time_steps=8
        )
        shape = (g.n, g.n)
        report = verify_jacobi_convexity(
            Power(1.0), p, np.full(shape, 0.2), np.full(shape, 0.6)
        )
        assert report.passed

    def test_zero_directions_flat(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 0.5), (0.0, 1.0), 0.5, time_steps=8
        )
        zero = np.zeros((g.n, g.n))
        report = verify_jacobi_convexity(Power(1.0), p, zero, zero)
        assert report.passed
        assert report.worst == 0.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_field_rejected(self, bad):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 0.5), (0.0, 1.0), 0.5, time_steps=8
        )
        zero = np.zeros((g.n, g.n))
        field = np.full((len(p.times), g.n, g.n), bad)
        sol = solve_epsilon_geodesic(p)
        with pytest.raises(ValueError, match="finite"):
            verify_jacobi_convexity(Power(1.0), p, zero, zero, solution=sol, field=field)
        with pytest.raises(ValueError, match="finite"):
            midpoint_convexity_margin(Power(2.0), sol.path, field)

    @pytest.mark.parametrize("eps", [1.0, 0.1, 0.01])
    def test_generic_directions_all_specs(self, eps):
        g = Grid(16)
        rng = np.random.default_rng(11)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        xs, ys = g.coords()
        d_a = 0.02 * np.cos(2.0 * np.pi * xs)
        d_b = 0.02 * np.sin(2.0 * np.pi * ys)
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), eps, time_steps=16, solver_tol=1e-10)
        sol = solve_epsilon_geodesic(p)
        from mal.geodesics import jacobi_field

        xi = jacobi_field(p, d_a, d_b, delta=1e-3)
        for spec in (Power(1.0), Power(2.0), LorentzWeak(0.5), quadratic_lagrangian()):
            report = verify_jacobi_convexity(
                spec, p, d_a, d_b, tol=1e-4, solution=sol, field=xi
            )
            assert report.passed, spec

    def test_concave_family_negative_control(self):
        g = Grid(16)
        rng = np.random.default_rng(11)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 0.1, time_steps=16)
        sol = solve_epsilon_geodesic(p)
        xs, _ = g.coords()
        bump = np.sin(np.pi * (p.times - p.times[0]) / (p.times[-1] - p.times[0]))
        family = bump[:, None, None] * (1.0 + 0.1 * np.cos(2.0 * np.pi * xs))[None]
        assert midpoint_convexity_margin(Power(1.0), sol.path, family) > 1e-2

    def test_field_shape_mismatch(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 0.5), (0.0, 1.0), 0.5, time_steps=8
        )
        sol = solve_epsilon_geodesic(p)
        with pytest.raises(ValueError):
            midpoint_convexity_margin(Power(1.0), sol.path, np.zeros((3, g.n, g.n)))


class TestActionConvexity:
    def test_identical_geodesics_flat(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 1.0), 0.0, 1.0, 4)
        q = joining(path, path, Power(1.0), tol=1e-5, time_steps=8)
        report = verify_action_convexity(q, path, path, 1, tol=1e-6)
        assert report.passed
        assert max(abs(v) for v in report.provenance["values"]) < 1e-4

    def test_linear_constant_geodesics_closed_form(self):
        """Quadratic Lagrangian between affine families: squared gap over S."""
        g = Grid(8)
        u_path = linear_path(constant_potential(g, 0.0), constant_potential(g, 1.0), 0.0, 1.0, 8)
        v_path = linear_path(constant_potential(g, 0.5), constant_potential(g, -0.3), 0.0, 1.0, 8)
        s_duration = 2.0
        q = joining(u_path, v_path, quadratic_lagrangian(), s_duration, tol=1e-6, time_steps=8)
        report = verify_action_convexity(q, u_path, v_path, 2, tol=1e-6)
        assert report.passed
        gap = lambda t: (0.5 - 0.8 * t) - t
        for t, value in zip(u_path.times[::2], report.provenance["values"]):
            assert value == pytest.approx(gap(t) ** 2 / s_duration, abs=1e-6)

    def test_generic_weak_geodesics(self):
        g = Grid(16)
        rng = np.random.default_rng(21)
        u_path = weak_geodesic(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1e-5, 16
        )
        v_path = weak_geodesic(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1e-5, 16
        )
        q = joining(u_path, v_path, Power(2.0), tol=1e-5, time_steps=16)
        report = verify_action_convexity(q, u_path, v_path, 4, tol=5e-3)
        assert report.passed

    def test_sample_validation(self):
        g = Grid(8)
        path = linear_path(constant_potential(g, 0.0), constant_potential(g, 1.0), 0.0, 1.0, 4)
        other = linear_path(constant_potential(g, 0.0), constant_potential(g, 1.0), 0.0, 2.0, 4)
        times = np.array([0.0, 0.25, 0.5, 1.0])
        times.setflags(write=False)
        uneven = PotentialPath(times, tuple(constant_potential(g, t) for t in times))
        with pytest.raises(ValueError, match="share their knot times"):
            verify_action_convexity(joining(path, other, Power(1.0)), path, other, 1)
        with pytest.raises(ValueError, match="three sample times"):
            verify_action_convexity(joining(path, path, Power(1.0)), path, path, 3)
        with pytest.raises(ValueError, match="uniformly"):
            verify_action_convexity(joining(uneven, uneven, Power(1.0)), uneven, uneven, 1)
        with pytest.raises(ValueError, match="first knots"):
            verify_action_convexity(joining(path, other, Power(1.0)), path, path, 1)


class TestLeastActionContinuity:
    def test_stationary_sequences(self):
        g = Grid(8)
        u_a = constant_potential(g, 0.0)
        u_b = constant_potential(g, 0.6)
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), tol=1e-5, time_steps=8)
        report = verify_least_action_continuity(q, [u_a, u_a], [u_b, u_b])
        assert report.passed
        assert report.worst < 1e-9

    def test_equal_shifts_leave_action_invariant(self):
        """Shifting both endpoints by one constant leaves the velocity alone."""
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        shifts = [0.2, 0.1, 0.05]
        seq_a = [make_potential(u_a.field + s, g) for s in shifts]
        seq_b = [make_potential(u_b.field + s, g) for s in shifts]
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), tol=1e-5, time_steps=16)
        report = verify_least_action_continuity(q, seq_a, seq_b)
        assert report.passed
        assert report.worst < 1e-9

    def test_decreasing_shifts_converge(self):
        g = Grid(16)
        rng = np.random.default_rng(40)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        shifts = [0.04, 0.01, 0.0025]
        seq_a = [make_potential(u_a.field + s, g) for s in shifts]
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), tol=1e-5, time_steps=16)
        report = verify_least_action_continuity(q, seq_a, [u_b] * 3, tol=5e-3)
        assert report.passed
        disc = report.provenance["discrepancies"]
        assert disc[0] > disc[1] > disc[2]

    def test_limit_geodesic_solved_once(self, monkeypatch):
        g = Grid(8)
        u_a = constant_potential(g, 0.0)
        u_b = constant_potential(g, 0.6)
        continuation = geodesics.epsilon_continuation
        limit_solves = []

        def spy(a, b, *args, **kwargs):
            if a is u_a and b is u_b:
                limit_solves.append(args)
            return continuation(a, b, *args, **kwargs)

        monkeypatch.setattr(geodesics, "epsilon_continuation", spy)
        q = LeastActionQuery(u_a, u_b, 1.0, Power(1.0), tol=1e-5, time_steps=8)
        value = least_action(q)
        assert least_action(q) == value
        seq_a = [make_potential(u_a.field + s, g) for s in (0.1, 0.05)]
        report = verify_least_action_continuity(q, seq_a, [u_b] * 2)
        assert report.provenance["limit_value"] == value
        assert len(limit_solves) == 1

    def test_non_decreasing_sequence_rejected(self):
        g = Grid(8)
        u_a = constant_potential(g, 0.0)
        u_b = constant_potential(g, 0.6)
        rising = [make_potential(u_a.field + s, g) for s in (0.1, 0.2)]
        with pytest.raises(ValueError):
            verify_least_action_continuity(
                LeastActionQuery(u_a, u_b, 1.0, Power(1.0)), rising, [u_b] * 2
            )

    def test_sequence_below_limit_rejected(self):
        g = Grid(8)
        u_a = constant_potential(g, 0.0)
        u_b = constant_potential(g, 0.6)
        below = [make_potential(u_a.field - 0.1, g)]
        with pytest.raises(ValueError):
            verify_least_action_continuity(LeastActionQuery(u_a, u_b, 1.0, Power(1.0)), below, [u_b])

    def test_length_mismatch_rejected(self):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        with pytest.raises(ValueError):
            verify_least_action_continuity(LeastActionQuery(u, u, 1.0, Power(1.0)), [u], [])
