"""Tests for the regularized geodesic solver and its vanishing limit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from helpers import inadmissible_lgmres, jacobian_oracle

from mal import geodesics
from mal.action import monotone_limit_check
from mal.errors import NonConvergence, NotKahler, PositivityLoss
from mal.fixtures import random_potential
from mal.geodesics import (
    EpsGeodesicProblem,
    epsilon_continuation,
    hcma_residual,
    jacobi_field,
    jacobi_residual,
    solve_epsilon_geodesic,
    sup_distance,
    time_convexity_margin,
    weak_geodesic,
)
from mal.grid import Grid, dx, dy, laplacian, make_potential
from mal.transport import PotentialPath, covariant_derivative


def constant_potential(grid, value):
    return make_potential(np.full((grid.n, grid.n), value), grid)


def no_krylov(op, rhs, **kwargs):
    raise AssertionError("lgmres called")


def scalar_epsilon_solution(lo, hi, times, eps):
    """u(t) = lo + (hi-lo) t/T + (eps/2)(t^2 - T t) for interval [0, T]."""
    big_t = times[-1] - times[0]
    tau = times - times[0]
    return lo + (hi - lo) * tau / big_t + 0.5 * eps * tau * (tau - big_t)


class TestProblemValidation:
    def test_grid_mismatch(self):
        u = constant_potential(Grid(8), 0.0)
        v = constant_potential(Grid(8, "central"), 0.0)
        with pytest.raises(ValueError, match="grid"):
            EpsGeodesicProblem(u, v, (0.0, 1.0), 1.0)

    def test_interval_ordering(self):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="interval"):
            EpsGeodesicProblem(u, u, (1.0, 1.0), 1.0)

    @pytest.mark.parametrize("interval", [(0.0, np.inf), (-np.inf, 1.0), (0.0, np.nan)])
    def test_non_finite_interval_rejected(self, interval):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="interval"):
            EpsGeodesicProblem(u, u, interval, 1.0)

    def test_negative_epsilon(self):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            EpsGeodesicProblem(u, u, (0.0, 1.0), -0.5)

    @pytest.mark.parametrize("field", ["epsilon", "solver_tol"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scalars_rejected(self, field, bad):
        # NaN fails every comparison, so a bare `x <= 0` test let it through
        u = constant_potential(Grid(8), 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0)
        with pytest.raises(ValueError, match=field):
            replace(p, **{field: bad})

    def test_time_steps_minimum(self):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="time steps"):
            EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=1)

    def test_zero_epsilon_rejected(self):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            EpsGeodesicProblem(u, u, (0.0, 1.0), 0.0)

    def test_initial_guess_shape_validated(self):
        u = constant_potential(Grid(8), 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=4)
        with pytest.raises(ValueError, match="one field per knot"):
            solve_epsilon_geodesic(p, initial=np.zeros((4, 8, 8)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_rejected(self, bad):
        u = constant_potential(Grid(8), 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=4)
        initial = np.zeros((5, 8, 8))
        initial[2, 3, 5] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_epsilon_geodesic(p, initial=initial)

    @pytest.mark.parametrize("amplitude", [0.2, 1e200])
    def test_inadmissible_warm_start_rejected_before_krylov(self, monkeypatch, amplitude):
        # interior densities 1 - 2 pi^2 amplitude cos(2 pi x) dip below zero
        monkeypatch.setattr(geodesics, "lgmres", no_krylov)
        g = Grid(8)
        u = constant_potential(g, 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=4)
        x, _ = g.coords()
        initial = np.broadcast_to(amplitude * np.cos(2.0 * np.pi * x), (5, 8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotKahler) as err:
                solve_epsilon_geodesic(p, initial=initial)
        want = 1.0 - 2.0 * np.pi**2 * amplitude
        assert err.value.min_density == pytest.approx(want, rel=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_residual_raises_before_krylov(self, monkeypatch):
        # admissible (spatially constant) but so large that the second time
        # difference overflows
        monkeypatch.setattr(geodesics, "lgmres", no_krylov)
        g = Grid(8, "central")
        u = constant_potential(g, 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=16)
        signs = np.resize([1.0, -1.0], 17)[:, None, None]
        initial = np.broadcast_to(1e306 * signs, (17, 8, 8))
        with pytest.raises(NonConvergence) as err:
            solve_epsilon_geodesic(p, initial=initial)
        assert err.value.iterations == 0 and not np.isfinite(err.value.residual)


class TestNewtonOperators:
    """The right-preconditioned operator against the stencil composition J(P^-1 y)."""

    @pytest.mark.parametrize("n", [4, 32])
    @pytest.mark.parametrize("time_steps", [2, 3, 16])
    def test_matches_stencil_composition(self, scheme, n, time_steps):
        # time_steps = 2 leaves one interior knot, whose centred difference
        # must see zeros on both sides
        g = Grid(n, scheme)
        rng = np.random.default_rng(100 * n + time_steps)
        a, b, c = (random_potential(g, rng) for _ in range(3))
        lam = np.linspace(0.0, 1.0, time_steps + 1)[:, None, None]
        fields = (1.0 - lam) * a.field + lam * b.field + np.sin(np.pi * lam) * c.field
        dt, eps = 1.0 / time_steps, 0.3
        rho = 1.0 + 0.5 * laplacian(fields, g)
        lin = geodesics._linearize(fields, rho, dt, eps, g)
        op, precondition = geodesics._newton_operators(dt, g, lin)
        jacobian, precond, precond_solve = jacobian_oracle(fields, dt, g, eps)
        y = rng.standard_normal((time_steps - 1, n, n))
        want = jacobian(precond_solve(y))
        got = op.matvec(y.ravel()).reshape(y.shape)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
        w = precondition(y.ravel())
        assert np.abs(precond(w) - y).max() <= 1e-12 * np.abs(y).max()


class TestConstantEndpoints:
    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_matches_scalar_closed_form(self, scheme, eps):
        g = Grid(16, scheme)
        lo, hi = -0.3, 0.5
        p = EpsGeodesicProblem(
            constant_potential(g, lo), constant_potential(g, hi), (0.0, 2.0), eps, time_steps=16
        )
        sol = solve_epsilon_geodesic(p)
        exact = scalar_epsilon_solution(lo, hi, p.times, eps)[:, None, None]
        dt = 2.0 / 16
        assert np.max(np.abs(sol.path.fields - exact)) < max(p.solver_tol, dt**2 * eps)
        assert sol.residual_norm <= p.solver_tol

    def test_equal_zero_endpoints_tiny_epsilon(self):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1e-6, time_steps=8)
        sol = solve_epsilon_geodesic(p)
        exact = scalar_epsilon_solution(0.0, 0.0, p.times, 1e-6)[:, None, None]
        assert np.max(np.abs(sol.path.fields - exact)) < 1e-12
        spread = sol.path.fields.max(axis=(1, 2)) - sol.path.fields.min(axis=(1, 2))
        assert np.max(spread) < 1e-12

    def test_endpoints_stored_bit_exactly(self):
        g = Grid(16)
        rng = np.random.default_rng(1)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 1.0, time_steps=8)
        sol = solve_epsilon_geodesic(p)
        assert sol.path.knots[0] is u_a
        assert sol.path.knots[-1] is u_b


class TestGenericSolves:
    def test_residual_meets_tolerance(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(5)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=16
        )
        sol = solve_epsilon_geodesic(p)
        assert sol.residual_norm <= p.solver_tol
        assert sol.iterations >= 1

    def test_hcma_residual_equals_epsilon(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(7)
        eps = 0.25
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), eps, time_steps=16
        )
        sol = solve_epsilon_geodesic(p)
        c = hcma_residual(sol.path)
        rho_max = max(float(k.density.max()) for k in sol.path.knots)
        assert np.max(np.abs(c - eps)) <= p.solver_tol * (1.0 + rho_max)

    def test_time_reversal_symmetry(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(9)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 0.5, time_steps=16)
        q = EpsGeodesicProblem(u_b, u_a, (0.0, 1.0), 0.5, time_steps=16)
        fwd = solve_epsilon_geodesic(p).path.fields
        bwd = solve_epsilon_geodesic(q).path.fields
        assert np.max(np.abs(fwd - bwd[::-1])) <= 2.0 * p.solver_tol

    def test_time_convexity(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(11)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 0.5, time_steps=16
        )
        sol = solve_epsilon_geodesic(p)
        assert time_convexity_margin(sol.path) >= -1e-10

    def test_deterministic(self):
        g = Grid(16)
        rng = np.random.default_rng(13)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 1.0, time_steps=8)
        first = solve_epsilon_geodesic(p).path.fields
        second = solve_epsilon_geodesic(p).path.fields
        assert np.array_equal(first, second)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(geodesics, "_MAX_NEWTON_STEPS", 2)
        g = Grid(16)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng),
            random_potential(g, rng),
            (0.0, 1.0),
            1.0,
            time_steps=16,
            solver_tol=1e-15,
        )
        with pytest.raises(NonConvergence) as err:
            solve_epsilon_geodesic(p)
        assert err.value.residual > 0.0

    def test_converges_on_the_last_allowed_step(self, monkeypatch):
        """A solve needing k Newton steps succeeds with a budget of k, not only k + 1."""
        g = Grid(16)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=16
        )
        k = solve_epsilon_geodesic(p).iterations
        assert k >= 2
        monkeypatch.setattr(geodesics, "_MAX_NEWTON_STEPS", k)
        sol = solve_epsilon_geodesic(p)
        assert sol.iterations == k and sol.residual_norm <= p.solver_tol
        monkeypatch.setattr(geodesics, "_MAX_NEWTON_STEPS", k - 1)
        with pytest.raises(NonConvergence) as err:
            solve_epsilon_geodesic(p)
        assert err.value.iterations == k - 1

    def test_line_search_without_decrease_raises(self, monkeypatch):
        def zero_step(op, rhs, **kwargs):
            return np.zeros_like(rhs), 0

        monkeypatch.setattr(geodesics, "lgmres", zero_step)
        g = Grid(16)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        with pytest.raises(NonConvergence) as err:
            solve_epsilon_geodesic(p)
        assert err.value.iterations == 1 and err.value.residual > p.solver_tol

    def test_inadmissible_long_steps_without_decrease_raise_nonconvergence(self, monkeypatch):
        # the step is inadmissible at alpha = 1 and admissible once halved
        # far enough, where it only adds a cos(2 pi x) mode to the constant
        # residual -epsilon of the zero warm start
        monkeypatch.setattr(geodesics, "lgmres", inadmissible_lgmres(8, amplitude=1e3))
        g = Grid(8)
        u = constant_potential(g, 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=8)
        with pytest.raises(NonConvergence) as err:
            solve_epsilon_geodesic(p, initial=np.zeros((9, 8, 8)))
        assert err.value.iterations == 1 and err.value.residual == 1.0

    def test_positivity_loss_when_no_halving_is_admissible(self, monkeypatch):
        monkeypatch.setattr(geodesics, "lgmres", inadmissible_lgmres(16))
        g = Grid(16)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        with pytest.raises(PositivityLoss) as err:
            solve_epsilon_geodesic(p)
        # the step P^-1 y dips the density deepest at the middle knot, x = 1/2
        assert err.value.time_index == 4
        assert err.value.cell[0] == 8 and 0 <= err.value.cell[1] < 16

    def test_native_stencil_velocity_identity(self, scheme):
        """With the solver's own stencils, grad_t udot = eps F(u) to solver tol."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(17)
        u_a = random_potential(g, rng, amplitude=0.01)
        u_b = random_potential(g, rng, amplitude=0.01)
        eps = 0.5
        p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), eps, time_steps=16)
        sol = solve_epsilon_geodesic(p)
        f = sol.path.fields
        dt = 1.0 / 16
        udot = (f[2:] - f[:-2]) / (2.0 * dt)
        second = (f[2:] - 2.0 * f[1:-1] + f[:-2]) / dt**2
        rho = sol.path.densities[1:-1]
        gxu, gyu = dx(udot, g), dy(udot, g)
        lhs = second - 0.5 * (gxu * gxu + gyu * gyu) / rho
        rhs = eps / rho
        assert np.max(np.abs(lhs - rhs)) <= 2.0 * p.solver_tol

    def test_covariant_derivative_of_velocity_is_eps_f(self, scheme):
        """grad_t udot = eps F(u) away from the time boundary layer.

        Endpoint data is not infinitely compatible with the equation, so the
        wide gradient stencil sees a persistent layer at the first and last
        knots; the middle third refines at the nominal rate.
        """
        g = Grid(16, scheme)
        rng = np.random.default_rng(17)
        u_a = random_potential(g, rng, amplitude=0.01)
        u_b = random_potential(g, rng, amplitude=0.01)
        eps = 0.5

        def deviation(steps):
            p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), eps, time_steps=steps)
            sol = solve_epsilon_geodesic(p)
            udot = np.gradient(sol.path.fields, p.times, axis=0, edge_order=2)
            lhs = covariant_derivative(sol.path, udot)
            rhs = eps / sol.path.densities
            middle = slice(steps // 3, -(steps // 3))
            return float(np.abs(lhs - rhs)[middle].max())

        errs = [deviation(8), deviation(16)]
        assert errs[1] < errs[0]
        assert errs[1] < 2e-3


class TestHcmaResidual:
    def test_linear_constant_path_is_zero(self):
        g = Grid(8)
        times = np.linspace(0.0, 1.0, 5)
        knots = tuple(constant_potential(g, 0.2 * t) for t in times)
        path = PotentialPath(times, knots, "solver-native")
        assert np.max(np.abs(hcma_residual(path))) < 1e-12

    def test_scalar_epsilon_path(self):
        g = Grid(8)
        eps = 0.3
        times = np.linspace(0.0, 1.0, 9)
        vals = scalar_epsilon_solution(0.0, 1.0, times, eps)
        knots = tuple(constant_potential(g, v) for v in vals)
        path = PotentialPath(times, knots, "solver-native")
        assert np.max(np.abs(hcma_residual(path) - eps)) < 1e-10

    def test_non_geodesic_path_reports_honestly(self):
        g = Grid(8)
        times = np.linspace(0.0, 1.0, 5)
        vals = np.sin(np.pi * times)
        knots = tuple(constant_potential(g, v) for v in vals)
        path = PotentialPath(times, knots, "solver-native")
        assert np.max(np.abs(hcma_residual(path))) > 0.1

    def test_needs_three_knots(self):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        path = PotentialPath(np.array([0.0, 1.0]), (u, u), "solver-native")
        with pytest.raises(ValueError, match="three knots"):
            hcma_residual(path)


class TestContinuation:
    def test_constants_limit_to_linear_path(self):
        g = Grid(8)
        lo, hi = 0.0, 1.0
        path = weak_geodesic(
            constant_potential(g, lo), constant_potential(g, hi), (0.0, 1.0), tol=1e-7,
            time_steps=8,
        )
        times = path.times
        linear = (lo + (hi - lo) * times)[:, None, None]
        assert np.max(np.abs(path.fields - linear)) < 1e-5

    def test_equal_endpoints_give_constant_path(self):
        g = Grid(16)
        rng = np.random.default_rng(19)
        w = random_potential(g, rng)
        path = weak_geodesic(w, w, (0.0, 1.0), tol=1e-7, time_steps=8)
        assert np.max(np.abs(path.fields - w.field[None])) < 1e-5

    def test_cauchy_in_epsilon(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(21)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        sols = epsilon_continuation(u_a, u_b, (0.0, 1.0), tol=1e-6, time_steps=16)
        gaps = [
            float(np.abs(a.path.fields - b.path.fields).max())
            for a, b in zip(sols, sols[1:])
        ]
        assert gaps[-1] < 1e-6
        drops = sum(1 for a, b in zip(gaps, gaps[1:]) if b < a)
        assert drops >= len(gaps) - 2

    def test_weak_geodesic_contract(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(23)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        path = weak_geodesic(u_a, u_b, (0.0, 1.0), tol=1e-6, time_steps=16)
        assert path.knots[0] is u_a
        assert path.knots[-1] is u_b
        assert time_convexity_margin(path) >= -1e-6
        assert np.max(np.abs(hcma_residual(path))) < 1e-3

    @pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0])
    def test_tol_validated(self, tol):
        g = Grid(8)
        with pytest.raises(ValueError, match="tol"):
            epsilon_continuation(
                constant_potential(g, 0.0), constant_potential(g, 1.0), tol=tol, time_steps=4
            )

    def test_running_out_of_levels_reported(self, monkeypatch):
        monkeypatch.setattr(geodesics, "_MAX_LEVELS", 1)
        g = Grid(8)
        with pytest.raises(NonConvergence) as err:
            epsilon_continuation(
                constant_potential(g, 0.0), constant_potential(g, 1.0), tol=1e-12, time_steps=4
            )
        assert err.value.iterations == 1 and err.value.residual >= 1e-12


class TestJacobiFields:
    def test_constant_directions_give_constant_field(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 1.0), (0.0, 1.0), 1.0, time_steps=8
        )
        ones = np.ones((8, 8))
        xi = jacobi_field(p, 0.5 * ones, 0.5 * ones, delta=1e-3)
        assert np.max(np.abs(xi - 0.5)) < 1e-8

    def test_zero_directions_give_zero_field(self):
        g = Grid(16)
        rng = np.random.default_rng(25)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        zeros = np.zeros((16, 16))
        xi = jacobi_field(p, zeros, zeros, delta=1e-3)
        assert np.max(np.abs(xi)) < 1e-6

    def test_endpoint_values_match_directions(self, scheme):
        g = Grid(16, scheme)
        rng = np.random.default_rng(27)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        da = np.cos(2.0 * np.pi * g.coords()[0])
        db = np.sin(2.0 * np.pi * g.coords()[1])
        xi = jacobi_field(p, da, db, delta=1e-3)
        assert np.max(np.abs(xi[0] - da)) < 1e-9
        assert np.max(np.abs(xi[-1] - db)) < 1e-9

    def test_delta_refinement_consistency(self):
        """Successive halvings of delta differ at the quadratic rate."""
        g = Grid(16)
        rng = np.random.default_rng(29)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        da = np.cos(2.0 * np.pi * g.coords()[0])
        db = np.zeros((16, 16))
        fields = [jacobi_field(p, da, db, delta=d) for d in (4e-3, 2e-3, 1e-3)]
        gap_coarse = np.max(np.abs(fields[0] - fields[1]))
        gap_fine = np.max(np.abs(fields[1] - fields[2]))
        assert gap_fine < 2e-4
        assert 2.5 < gap_coarse / gap_fine < 6.0

    def test_oversized_perturbation_rejected(self):
        g = Grid(16)
        rng = np.random.default_rng(31)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        x, _ = g.coords()
        rough = np.cos(2.0 * np.pi * 3 * x)
        with pytest.raises(NotKahler):
            jacobi_field(p, rough, rough, delta=0.5)

    @pytest.mark.parametrize("delta", [0.0, -1e-3, np.nan, np.inf])
    def test_delta_validated(self, delta):
        u = constant_potential(Grid(8), 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=4)
        with pytest.raises(ValueError, match="delta"):
            jacobi_field(p, np.zeros((8, 8)), np.zeros((8, 8)), delta=delta)


class TestJacobiResidual:
    def test_zero_field_zero_residual(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 1.0), (0.0, 1.0), 1.0, time_steps=8
        )
        sol = solve_epsilon_geodesic(p)
        assert jacobi_residual(sol, np.zeros((9, 8, 8))) == 0.0
        with pytest.raises(ValueError, match="one field per knot"):
            jacobi_residual(sol, np.zeros((8, 8, 8)))

    def test_needs_four_intervals(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 1.0), (0.0, 1.0), 1.0, time_steps=3
        )
        with pytest.raises(ValueError, match="four time intervals"):
            jacobi_residual(solve_epsilon_geodesic(p), np.zeros((4, 8, 8)))

    def test_constant_family_small_residual(self):
        g = Grid(8)
        p = EpsGeodesicProblem(
            constant_potential(g, 0.0), constant_potential(g, 1.0), (0.0, 1.0), 1.0, time_steps=16
        )
        sol = solve_epsilon_geodesic(p)
        xi = np.ones((17, 8, 8))
        assert jacobi_residual(sol, xi) < 1e-6

    def test_velocity_is_a_jacobi_field(self, scheme):
        """udot satisfies the linearized equation under joint refinement."""

        def residual_at(n, steps):
            g = Grid(n, scheme)
            rng = np.random.default_rng(33)
            u_a = random_potential(g, rng, amplitude=0.01)
            u_b = random_potential(g, rng, amplitude=0.01)
            p = EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 0.5, time_steps=steps)
            sol = solve_epsilon_geodesic(p)
            udot = np.gradient(sol.path.fields, p.times, axis=0, edge_order=2)
            return jacobi_residual(sol, udot)

        errs = [residual_at(16, 8), residual_at(32, 16), residual_at(64, 32)]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-3

    def test_differenced_family_residual_decays(self, scheme):
        def residual_at(n, steps, delta):
            g = Grid(n, scheme)
            rng = np.random.default_rng(35)
            u_a = random_potential(g, rng, amplitude=0.01)
            u_b = random_potential(g, rng, amplitude=0.01)
            da = 0.01 * np.cos(2.0 * np.pi * g.coords()[0])
            db = 0.01 * np.sin(2.0 * np.pi * g.coords()[1])
            p = EpsGeodesicProblem(
                u_a, u_b, (0.0, 1.0), 0.5, time_steps=steps, solver_tol=1e-10
            )
            sol = solve_epsilon_geodesic(p)
            xi = jacobi_field(p, da, db, delta=delta)
            return jacobi_residual(sol, xi)

        errs = [
            residual_at(16, 8, 2e-3),
            residual_at(32, 16, 1e-3),
            residual_at(64, 32, 5e-4),
        ]
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 5e-4


class TestMonotoneLimit:
    def test_constant_sequences(self):
        g = Grid(8)
        seq_a = [constant_potential(g, 0.2 / (j + 1.0)) for j in range(3)]
        seq_b = [constant_potential(g, 1.0 + 0.3 / (j + 1.0)) for j in range(3)]
        report = monotone_limit_check(
            seq_a, seq_b, constant_potential(g, 0.0), constant_potential(g, 1.0),
            tol=1e-5, time_steps=8,
        )
        assert report.passed
        assert report.provenance["final_sup_distance"] < 0.2

    def test_stationary_sequences(self):
        g = Grid(16)
        rng = np.random.default_rng(37)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        report = monotone_limit_check([u_a, u_a], [u_b, u_b], u_a, u_b, tol=1e-5, time_steps=8)
        assert report.passed
        assert report.provenance["violations"] == 0
        assert report.provenance["final_sup_distance"] < 1e-10

    def test_band_limited_with_vanishing_constants(self):
        g = Grid(16)
        rng = np.random.default_rng(39)
        u_a = random_potential(g, rng)
        u_b = random_potential(g, rng)
        seq_a = [make_potential(u_a.field + 0.2 / 2**j, g) for j in range(3)]
        seq_b = [make_potential(u_b.field + 0.1 / 2**j, g) for j in range(3)]
        report = monotone_limit_check(seq_a, seq_b, u_a, u_b, tol=1e-4, time_steps=8)
        assert report.passed

    def test_non_monotone_sequence_rejected(self):
        g = Grid(8)
        with pytest.raises(ValueError, match="decrease"):
            monotone_limit_check(
                [constant_potential(g, 0.1), constant_potential(g, 0.2)],
                [constant_potential(g, 1.0), constant_potential(g, 1.0)],
                constant_potential(g, 0.0),
                constant_potential(g, 1.0),
            )


class TestSupDistance:
    def test_known_value(self):
        g = Grid(8)
        times = np.linspace(0.0, 1.0, 3)
        a = PotentialPath(times, tuple(constant_potential(g, 0.0) for _ in times), "solver-native")
        b = PotentialPath(
            times, tuple(constant_potential(g, v) for v in (0.0, 0.25, 0.1)), "solver-native"
        )
        assert sup_distance(a, b) == pytest.approx(0.25)
