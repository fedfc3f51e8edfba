import numpy as np
import pytest

from helpers import dyadic_weighted

from mal.errors import NotEquidistributed
from mal.fixtures import random_potential
from mal.grid import Grid, WeightedValues, integrate, make_potential
from mal.lagrangians import (
    LorentzWeak,
    Orlicz,
    Power,
    SupFamily,
    check_fiber_convexity,
    check_invariance,
    check_strong_continuity,
    estimate_lipschitz,
    evaluate,
)
from mal.rearrangement import StepFunction, decreasing_rearrangement, theta_map

CHI_SQUARE = Orlicz(lambda t: t**2, label="orlicz:p2")


def flat(n, scheme="spectral"):
    return make_potential(np.zeros((n, n)), Grid(n, scheme))


def lorentz_subset_bruteforce(values, alpha):
    """Max over all nonempty equal-weight cell subsets of sum|v| / mass^alpha."""
    v = np.abs(np.ravel(values))
    k = v.size
    sums = np.zeros(2**k)
    for mask in range(1, 2**k):
        low = mask & -mask
        sums[mask] = sums[mask ^ low] + v[low.bit_length() - 1]
    counts = np.array([bin(m).count("1") for m in range(2**k)])
    masses = counts[1:] / k
    return float(np.max((sums[1:] / k) / masses**alpha))


class TestSpecValidation:
    def test_orlicz_rejects_concave(self):
        with pytest.raises(ValueError):
            Orlicz(lambda t: -(t**2))

    def test_orlicz_accepts_nonsmooth(self):
        Orlicz(np.abs)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_lorentz_alpha_range(self, alpha):
        with pytest.raises(ValueError):
            LorentzWeak(alpha)

    def test_power_range(self):
        for p in (0.5, np.nan, np.inf):
            with pytest.raises(ValueError):
                Power(p)

    def test_supfamily_needs_members(self):
        with pytest.raises(ValueError):
            SupFamily(())

    def test_supfamily_mass_gate(self):
        short = StepFunction(np.array([0.0, 0.5]), np.array([1.0]))
        with pytest.raises(ValueError):
            SupFamily(((0.0, short),))

    def test_homogeneity_flags(self):
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        assert LorentzWeak(0.5).positively_homogeneous
        assert Power(2.0).positively_homogeneous
        assert SupFamily(((0.0, ones),)).positively_homogeneous
        assert not SupFamily(((0.5, ones),)).positively_homogeneous
        assert not CHI_SQUARE.positively_homogeneous


class TestEvaluate:
    def test_lorentz_constant_one(self):
        u = flat(8)
        assert evaluate(LorentzWeak(0.5), u, np.ones((8, 8))) == pytest.approx(1.0, abs=1e-12)

    def test_lorentz_indicator_quarter_mass(self):
        u = flat(4)
        xi = np.zeros((4, 4))
        xi[:2, :2] = 1.0  # 4 of 16 cells
        assert evaluate(LorentzWeak(0.5), u, xi) == pytest.approx(0.5, abs=1e-12)
        assert lorentz_subset_bruteforce(xi, 0.5) == pytest.approx(0.5, abs=1e-12)

    def test_lorentz_subset_bruteforce_random(self):
        rng = np.random.default_rng(0)
        u = flat(4)
        for alpha in (0.3, 0.5, 0.7):
            xi = rng.integers(-4, 5, size=(4, 4)).astype(float)
            assert evaluate(LorentzWeak(alpha), u, xi) == pytest.approx(
                lorentz_subset_bruteforce(xi, alpha), rel=1e-12
            )

    def test_orlicz_constant(self):
        rng = np.random.default_rng(1)
        u = random_potential(Grid(16), rng, 0.03)
        c = 1.75
        assert evaluate(CHI_SQUARE, u, np.full((16, 16), c)) == pytest.approx(c * c, rel=1e-12)

    def test_orlicz_equals_step_integral(self):
        # rearrangement regroups equal values, so the two sums agree exactly
        rng = np.random.default_rng(2)
        for _ in range(50):
            values, weights = dyadic_weighted(rng, int(rng.integers(1, 10)), value_span=8)
            wv = WeightedValues.from_arrays(values, weights)
            direct = CHI_SQUARE.of_weighted(wv)
            r = decreasing_rearrangement(wv)
            by_steps = float(np.dot(r.levels**2, np.diff(r.bounds)))
            assert direct == by_steps

    def test_supfamily_linear_functional(self):
        rng = np.random.default_rng(3)
        u = random_potential(Grid(16), rng, 0.03)
        xi = rng.standard_normal((16, 16))
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        spec = SupFamily(((0.0, ones),))
        assert evaluate(spec, u, xi) == pytest.approx(integrate(xi, u), abs=1e-12)

    def test_supfamily_monotone_in_inclusion(self):
        rng = np.random.default_rng(4)
        u = random_potential(Grid(8), rng, 0.03)
        xi = rng.standard_normal((8, 8))
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        two_level = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, -1.0]))
        small = SupFamily(((0.0, ones),))
        large = SupFamily(((0.0, ones), (0.3, two_level)))
        assert evaluate(large, u, xi) >= evaluate(small, u, xi)

    def test_power_one_is_l1(self):
        rng = np.random.default_rng(5)
        u = random_potential(Grid(16), rng, 0.03)
        xi = rng.standard_normal((16, 16))
        assert evaluate(Power(1.0), u, xi) == pytest.approx(integrate(np.abs(xi), u), abs=1e-14)

    def test_positive_homogeneity_exact(self):
        rng = np.random.default_rng(6)
        u = flat(8)
        xi = rng.standard_normal((8, 8))
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        specs = [LorentzWeak(0.5), Power(1.0), Power(2.0), SupFamily(((0.0, ones),))]
        for spec in specs:
            base = evaluate(spec, u, xi)
            for c in (2.0, 0.5, 8.0):
                assert evaluate(spec, u, c * xi) == pytest.approx(c * base, rel=2e-14)


class TestInvariance:
    def test_identity_pair(self):
        rng = np.random.default_rng(7)
        u = random_potential(Grid(16), rng, 0.03)
        xi = rng.standard_normal((16, 16))
        rep = check_invariance(CHI_SQUARE, u, xi, u, xi)
        assert rep.passed and rep.worst == 0.0

    def test_permutation_equal_weights(self):
        rng = np.random.default_rng(8)
        u = flat(16)
        xi = rng.standard_normal((16, 16))
        eta = rng.permutation(xi.ravel()).reshape(16, 16)
        for spec in (CHI_SQUARE, LorentzWeak(0.5), Power(2.0)):
            rep = check_invariance(spec, u, xi, u, eta)
            assert rep.passed
            assert rep.worst <= 1e-12 * max(1.0, abs(rep.provenance["value_a"]))

    def test_theta_transfer_between_potentials(self):
        rng = np.random.default_rng(9)
        g = Grid(16)
        u = flat(16)
        v = random_potential(g, rng, 0.03)
        xi = rng.standard_normal((16, 16))
        wa = WeightedValues.from_field(xi, u)
        # lay out v's cells on (0,1] and pull back the rearrangement of xi
        theta_v = theta_map(WeightedValues.from_field(np.zeros((16, 16)), v))
        wb = theta_v.pullback(decreasing_rearrangement(wa))
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        for spec in (CHI_SQUARE, LorentzWeak(0.5), Power(2.0), SupFamily(((0.0, ones),))):
            disc = abs(spec.of_weighted(wa) - spec.of_weighted(wb))
            assert disc <= 1e-9

    def test_not_equidistributed_raises(self):
        rng = np.random.default_rng(10)
        u = flat(16)
        xi = rng.standard_normal((16, 16))
        with pytest.raises(NotEquidistributed):
            check_invariance(CHI_SQUARE, u, xi, u, xi + 1.0)


class TestFiberConvexity:
    def test_equal_fields(self):
        rng = np.random.default_rng(11)
        u = random_potential(Grid(16), rng, 0.03)
        xi = rng.standard_normal((16, 16))
        rep = check_fiber_convexity(CHI_SQUARE, u, xi, xi)
        assert rep.passed and abs(rep.worst) <= 1e-15

    def test_quadratic_random(self):
        rng = np.random.default_rng(12)
        u = random_potential(Grid(16), rng, 0.03)
        xi, eta = rng.standard_normal((2, 16, 16))
        assert check_fiber_convexity(CHI_SQUARE, u, xi, eta).passed

    def test_lorentz_disjoint_indicators_strict(self):
        u = flat(4)
        xi = np.zeros((4, 4))
        eta = np.zeros((4, 4))
        xi[0, :2] = 1.0
        eta[2, :3] = 1.0
        rep = check_fiber_convexity(LorentzWeak(0.5), u, xi, eta, samples=0)
        assert rep.passed and rep.worst < -1e-3

    def test_all_variants_battery(self):
        rng = np.random.default_rng(13)
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        two_level = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([3.0, -0.5]))
        specs = [
            CHI_SQUARE,
            Orlicz(np.abs),
            LorentzWeak(0.3),
            Power(1.0),
            Power(3.0),
            SupFamily(((0.0, ones), (-0.2, two_level))),
        ]
        u = random_potential(Grid(16), rng, 0.03)
        for spec in specs:
            xi, eta = rng.standard_normal((2, 16, 16))
            rep = check_fiber_convexity(spec, u, xi, eta, samples=6, seed=14)
            scale = max(1.0, abs(evaluate(spec, u, xi)), abs(evaluate(spec, u, eta)))
            assert rep.worst <= 1e-10 * scale


class TestLipschitz:
    def test_power_one_bound(self):
        est = estimate_lipschitz(Power(1.0), R := 2.0, trials=20, seed=0)
        assert est <= 1.0 + 1e-9
        assert est > 0.5

    def test_orlicz_square_bound(self):
        est = estimate_lipschitz(CHI_SQUARE, 1.0, trials=20, seed=1)
        assert est <= 2.0 + 1e-9

    def test_deterministic(self):
        a = estimate_lipschitz(LorentzWeak(0.5), 1.0, trials=10, seed=2)
        b = estimate_lipschitz(LorentzWeak(0.5), 1.0, trials=10, seed=2)
        assert a == b

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            estimate_lipschitz(Power(1.0), 0.0, trials=1, seed=0)

    def test_analytic_bounds_dominate_estimates(self):
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        for spec in (CHI_SQUARE, LorentzWeak(0.4), Power(2.0), SupFamily(((0.1, ones),))):
            est = estimate_lipschitz(spec, 1.5, trials=15, seed=3)
            assert est <= spec.lipschitz_bound(1.5) + 1e-9


class TestStrongContinuity:
    def test_unperturbed_schedule(self):
        rng = np.random.default_rng(15)
        u = random_potential(Grid(16), rng, 0.03)
        xi = rng.standard_normal((16, 16))
        rep = check_strong_continuity(CHI_SQUARE, u, xi, [xi, xi, xi], tol=1e-12, tol_mass=1.0)
        assert rep.passed and rep.worst == 0.0

    def test_single_cell_bump_shrinks(self):
        diffs = []
        for n in (8, 16, 32):
            u = flat(n)
            xi = np.zeros((n, n))
            pert = xi.copy()
            pert[0, 0] = 1.0
            rep = check_strong_continuity(
                CHI_SQUARE, u, xi, [pert], tol=1.0, tol_mass=1.0
            )
            diffs.append(rep.provenance["differences"][0])
            assert rep.provenance["masses"][0] == pytest.approx(1.0 / n**2, rel=1e-12)
        assert diffs[0] > diffs[1] > diffs[2]

    def test_lorentz_mass_power_bound(self):
        for n in (8, 16, 32):
            alpha = 0.5
            u = flat(n)
            xi = np.zeros((n, n))
            pert = xi.copy()
            pert[0, 0] = 1.0
            rep = check_strong_continuity(
                LorentzWeak(alpha), u, xi, [pert], tol=1.0, tol_mass=1.0
            )
            mass = rep.provenance["masses"][0]
            assert rep.provenance["differences"][0] <= mass ** (1.0 - alpha) + 1e-12
