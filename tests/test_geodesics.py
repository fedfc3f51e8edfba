"""Tests for the regularized geodesic solver and its vanishing limit."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

import helpers
from helpers import (
    covariant_derivative,
    forbid_transforms,
    inadmissible_lgmres,
    jacobi_residual,
    jacobian_oracle,
    poisson_bracket,
    recording_lgmres,
    time_convexity_margin,
)

from mal import geodesics
from mal.action import monotone_limit_check
from mal.errors import NonConvergence, NotKahler, PositivityLoss
from mal.fixtures import random_potential
from mal.geodesics import (
    EpsGeodesicProblem,
    GeodesicSolution,
    epsilon_continuation,
    hcma_residual,
    jacobi_field,
    solve_epsilon_geodesic,
    sup_distance,
    weak_geodesic,
)
from mal.grid import Grid, dx, dy, gradient, laplacian, ma_density, make_potential
from mal.transport import PotentialPath, linear_path


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

    def test_krylov_starts_at_the_preconditioned_step(self, monkeypatch):
        """Each lgmres call first applies J P^-1 to b = -res, and no apply sees zero."""
        calls = []
        monkeypatch.setattr(geodesics, "lgmres", recording_lgmres(geodesics.lgmres, calls))
        g = Grid(16)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        sol = solve_epsilon_geodesic(p)
        assert len(calls) == sol.iterations >= 2
        for applies in calls:
            assert applies[0][0]
            assert all(nonzero for _, nonzero in applies)


class TestSinglePrecisionKrylov:
    """lgmres works in float32 on a unit right-hand side; residuals and iterates stay float64."""

    def test_float32_apply_matches_float64(self, scheme):
        g = Grid(32, scheme)
        rng = np.random.default_rng(32)
        a, b, c = (random_potential(g, rng) for _ in range(3))
        lam = np.linspace(0.0, 1.0, 17)[:, None, None]
        fields = (1.0 - lam) * a.field + lam * b.field + np.sin(np.pi * lam) * c.field
        rho = 1.0 + 0.5 * laplacian(fields, g)
        lin = geodesics._linearize(fields, rho, 1.0 / 16, 0.3, g)
        op, precondition = geodesics._newton_operators(1.0 / 16, g, lin)
        y = rng.standard_normal(15 * 32 * 32).astype(np.float32)
        # each output entry passes through about ten chained products of
        # length n, so its rounding error stays within n float32 epsilons
        bound = g.n * np.finfo(np.float32).eps
        for apply in (op.matvec, precondition):
            single, double = apply(y), apply(y.astype(np.float64))
            assert single.dtype == np.float32 and double.dtype == np.float64
            assert np.abs(single - double).max() <= bound * np.abs(double).max()

    def test_krylov_sees_a_unit_float32_right_hand_side(self, monkeypatch):
        seen, lgmres = [], geodesics.lgmres

        def recording(op, rhs, **kwargs):
            seen.append((op.dtype, rhs.dtype, float(np.linalg.norm(rhs.astype(np.float64)))))
            return lgmres(op, rhs, **kwargs)

        monkeypatch.setattr(geodesics, "lgmres", recording)
        g = Grid(16)
        rng = np.random.default_rng(33)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 1.0, time_steps=8
        )
        sol = solve_epsilon_geodesic(p)
        assert sol.residual_norm <= p.solver_tol
        assert sol.path.fields.dtype == np.float64
        assert len(seen) == sol.iterations >= 2
        eps32 = np.finfo(np.float32).eps
        for op_dtype, rhs_dtype, norm in seen:
            assert op_dtype == rhs_dtype == np.float32
            assert abs(norm - 1.0) <= 16 * eps32

    def test_huge_warm_start_fails_cleanly(self):
        """A spatially constant warm start alternating +-1e36 between knots
        has a residual above the float32 range: the solve reports a solver
        failure instead of overflowing in a cast."""
        g = Grid(8, "central")
        u = constant_potential(g, 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=16)
        signs = np.resize([1.0, -1.0], 17)[:, None, None]
        initial = np.broadcast_to(1e36 * signs, (17, 8, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((NonConvergence, PositivityLoss)):
                solve_epsilon_geodesic(p, initial=initial)

    def test_operator_beyond_float32_raises_before_krylov(self, monkeypatch):
        """A horizon of 1e-20 puts the velocity-gradient weights
        grad udot / (2 dt rho), about 1e39, beyond the float32 range, while
        the float64 residual (about 1e37) stays finite."""
        monkeypatch.setattr(geodesics, "lgmres", no_krylov)
        g = Grid(8)
        rng = np.random.default_rng(34)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1e-20), 1.0, time_steps=4
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonConvergence) as err:
                solve_epsilon_geodesic(p)
        assert err.value.iterations == 0 and np.isfinite(err.value.residual)


class TestNewtonKernels:
    def test_applies_run_no_transform(self, monkeypatch, scheme):
        """One J P^-1 apply and one P^-1 solve are matrix products only."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(16)
        a, b = random_potential(g, rng), random_potential(g, rng)
        lam = np.linspace(0.0, 1.0, 9)[:, None, None]
        fields = (1.0 - lam) * a.field + lam * b.field
        rho = 1.0 + 0.5 * laplacian(fields, g)
        lin = geodesics._linearize(fields, rho, 0.125, 0.3, g)
        op, precondition = geodesics._newton_operators(0.125, g, lin)
        forbid_transforms(monkeypatch)
        y = rng.standard_normal(7 * 16 * 16)
        assert np.isfinite(op.matvec(y)).all()
        assert np.isfinite(precondition(y)).all()

    def test_constant_stack_has_zero_velocity_gradient(self, scheme):
        """The residual's grad udot is grid.gradient: exactly 0 on a path constant in space."""
        s = np.linspace(0.0, 1.0, 9)
        slices = (np.linspace(-0.3, 0.5, 9) + 0.1 * s**2)[:, None, None]
        for n in range(4, 65, 2):
            g = Grid(n, scheme)
            fields = np.broadcast_to(slices, (9, n, n))
            lin = geodesics._linearize(fields, ma_density(fields, g), 0.125, 0.3, g)
            for d in lin.grad_udot:
                assert not d.any(), n

    def test_continuation_runs_no_transform(self, monkeypatch, scheme):
        """Densities, residuals, applies and warm starts of a continuation are matrix products."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(17)
        u_a, u_b = random_potential(g, rng), random_potential(g, rng)
        forbid_transforms(monkeypatch)
        sols = epsilon_continuation(u_a, u_b, (0.0, 1.0), tol=1e-5, time_steps=8)
        assert len(sols) > 3 and all(s.residual_norm <= 1e-8 for s in sols)


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

    def test_knots_keep_the_solver_densities(self, monkeypatch, scheme):
        """Interior knots carry the last iterate's densities, each in its own frozen copy."""
        g = Grid(16, scheme)
        rng = np.random.default_rng(15)
        p = EpsGeodesicProblem(
            random_potential(g, rng), random_potential(g, rng), (0.0, 1.0), 0.5, time_steps=8
        )
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return make_potential(*args, **kwargs)

        monkeypatch.setattr(geodesics, "make_potential", counting)
        sol = solve_epsilon_geodesic(p)
        assert not calls
        for knot in sol.path.knots[1:-1]:
            assert np.array_equal(knot.density, make_potential(knot.field, g).density)
            assert knot.field.base is None and knot.density.base is None
            assert not knot.density.flags.writeable

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

    def test_time_convexity_needs_three_knots(self):
        u = constant_potential(Grid(8), 0.0)
        with pytest.raises(ValueError, match="need at least three knots"):
            time_convexity_margin(linear_path(u, u, 0.0, 1.0, 1))

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
        path = PotentialPath(times, knots)
        assert np.max(np.abs(hcma_residual(path))) < 1e-12

    def test_scalar_epsilon_path(self):
        g = Grid(8)
        eps = 0.3
        times = np.linspace(0.0, 1.0, 9)
        vals = scalar_epsilon_solution(0.0, 1.0, times, eps)
        knots = tuple(constant_potential(g, v) for v in vals)
        path = PotentialPath(times, knots)
        assert np.max(np.abs(hcma_residual(path) - eps)) < 1e-10

    def test_non_geodesic_path_reports_honestly(self):
        g = Grid(8)
        times = np.linspace(0.0, 1.0, 5)
        vals = np.sin(np.pi * times)
        knots = tuple(constant_potential(g, v) for v in vals)
        path = PotentialPath(times, knots)
        assert np.max(np.abs(hcma_residual(path))) > 0.1

    def test_needs_three_knots(self):
        g = Grid(8)
        u = constant_potential(g, 0.0)
        path = PotentialPath(np.array([0.0, 1.0]), (u, u))
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

    # J P^-1 applies of the README continuation, measured on a 2-core x86 host;
    # the bound allows 10 % more (the secant predictor made 243 and 218)
    README_MATVECS = {"spectral": 221, "central": 199}

    def test_readme_work_budget(self, monkeypatch, scheme):
        calls = []
        monkeypatch.setattr(geodesics, "lgmres", recording_lgmres(geodesics.lgmres, calls))
        g = Grid(32, scheme)
        rng = np.random.default_rng(5)
        u_a, u_b = (random_potential(g, rng, amplitude=0.02, max_mode=2) for _ in range(2))
        sols = epsilon_continuation(u_a, u_b, (0.0, 1.0), tol=1e-5, time_steps=32)
        assert len(sols) == 16
        assert sum(s.iterations for s in sols) <= 32
        assert all(s.residual_norm <= 1e-8 for s in sols)
        assert sum(map(len, calls)) <= 1.1 * self.README_MATVECS[scheme]

    # Lagrange weights in epsilon at epsilon_k / 2 on the halving schedule, oldest path first
    EXTRAPOLATION_WEIGHTS = (
        (-0.5, 1.5),
        (0.125, -0.875, 1.75),
        (-0.015625, 0.234375, -1.09375, 1.875),
    )

    @pytest.mark.parametrize("amplitude, lead", [(0.01, 1.5), (0.04, 1.0)])
    def test_secant_warm_start(self, monkeypatch, amplitude, lead):
        """Level k + 1 starts from the extrapolation through the last min(4, k + 1) paths.

        Levels 2, 3 and 4 start from the secant, quadratic and cubic Lagrange
        extrapolations in epsilon when admissible, else from u_k; lead is the
        weight of u_1 in level 2's start.  Scripted level j is
        a cos(2 pi x) on interior knot j + 1 only, so each knot of a guess is
        one weight w times a cos(2 pi x), with density 1 - 2 pi^2 w a cos(2 pi x):
        at a = 0.01 every guess is admissible, and at a = 0.04 each has a
        knot with |w| >= 1.5 and a negative density.  The scripted solve
        rejects such a start with NotKahler, as the real one does, and only
        the start it accepts is recorded.
        """
        g = Grid(8)
        zero = constant_potential(g, 0.0)
        levels = np.zeros((4, 9, 8, 8))
        for j in range(4):
            levels[j, j + 1] = amplitude * np.cos(2.0 * np.pi * np.arange(8) / 8)[:, None]
        initials = []

        def scripted(p, initial=None):
            low = np.inf if initial is None else float(ma_density(initial[1:-1], g).min())
            if not low > 0.0:
                raise NotKahler(low)
            initials.append(initial)
            # the fifth level repeats the fourth, so the gap closes there
            fields = levels[min(len(initials), 4) - 1]
            knots = tuple(make_potential(f, g) for f in fields)
            return GeodesicSolution(PotentialPath(p.times, knots), 0.0, p.epsilon, 0)

        monkeypatch.setattr(geodesics, "solve_epsilon_geodesic", scripted)
        sols = epsilon_continuation(zero, zero, tol=1e-6, time_steps=8)
        assert [s.epsilon for s in sols] == [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert initials[0] is None
        assert np.array_equal(initials[1], levels[0])
        for k, weights in enumerate(self.EXTRAPOLATION_WEIGHTS, start=2):
            guess = sum(w * u for w, u in zip(weights, levels[k - len(weights) : k]))
            expected = guess if lead == 1.5 else levels[k - 1]
            assert np.array_equal(initials[k], expected)
        assert np.array_equal(initials[2][2], lead * levels[1, 2])

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

    @pytest.mark.parametrize(
        "bad",
        [np.full((8, 8), np.nan), np.full((8, 8), np.inf), np.zeros((4, 4))],
        ids=["nan", "inf", "shape"],
    )
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_directions_validated_before_any_solve(self, monkeypatch, bad, side):
        monkeypatch.setattr(geodesics, "lgmres", no_krylov)
        u = constant_potential(Grid(8), 0.0)
        p = EpsGeodesicProblem(u, u, (0.0, 1.0), 1.0, time_steps=4)
        good = np.zeros((8, 8))
        directions = (bad, good) if side == "a" else (good, bad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="direction"):
                jacobi_field(p, *directions)

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

    def test_only_reported_knots_computed(self, scheme, monkeypatch):
        """Brackets are built for the middle-third knots only; the sup is unchanged."""

        def all_interior_reference(sol, xi):
            path, m = sol.path, len(sol.path.knots) - 1
            second = covariant_derivative(path, covariant_derivative(path, xi))[2 : m - 1]
            udot = path.knot_velocity[2 : m - 1]
            bracket, div_term = np.empty_like(second), np.empty_like(second)
            for j, i in enumerate(range(2, m - 1)):
                u = path.knots[i]
                inner = poisson_bracket(u, udot[j], xi[i])
                bracket[j] = poisson_bracket(u, inner, udot[j])
                xx, xy = gradient(xi[i], path.grid)
                f = 1.0 / u.density
                div_term[j] = dx(f * xx, path.grid) + dy(f * xy, path.grid)
            rho = path.densities[2 : m - 1]
            residual = rho * second - 0.25 * bracket * rho + 0.5 * sol.epsilon * div_term
            lo, hi = max((m + 2) // 3, 2), min((2 * m) // 3, m - 2)
            return float(np.abs(residual[lo - 2 : hi - 1]).max())

        g = Grid(16, scheme)
        rng = np.random.default_rng(33)
        u_a = random_potential(g, rng, amplitude=0.01)
        u_b = random_potential(g, rng, amplitude=0.01)
        sol = solve_epsilon_geodesic(EpsGeodesicProblem(u_a, u_b, (0.0, 1.0), 0.5, time_steps=16))
        xi = 0.01 * rng.standard_normal(sol.path.fields.shape)
        expected = all_interior_reference(sol, xi)
        calls = []
        real = helpers.poisson_bracket
        monkeypatch.setattr(helpers, "poisson_bracket", lambda *a: calls.append(a) or real(*a))
        assert jacobi_residual(sol, xi) == expected
        assert len(calls) == 2 * 5

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
        a = PotentialPath(times, tuple(constant_potential(g, 0.0) for _ in times))
        b = PotentialPath(times, tuple(constant_potential(g, v) for v in (0.0, 0.25, 0.1)))
        assert sup_distance(a, b) == pytest.approx(0.25)
