import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    check_fiber_convexity,
    check_invariance,
    check_strong_continuity,
    dyadic_weighted,
    estimate_lipschitz,
    hardy_littlewood_refinement,
    integrate,
    lipschitz_bound,
    sorted_merge_oracle,
)

from mal.fixtures import random_potential
from mal.grid import Grid, WeightedValues, make_potential
from mal.lagrangians import LorentzWeak, Orlicz, Power, SupFamily, evaluate, evaluate_rows
from mal.rearrangement import (
    StepFunction,
    decreasing_rearrangement,
    rearrange_values,
    theta_map,
)

CHI_SQUARE = Orlicz(lambda t: t**2)


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

    def test_orlicz_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            Orlicz(lambda t: np.where(t > 0.0, np.inf, t**2))

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

    @pytest.mark.parametrize("offset", [np.nan, np.inf, -np.inf])
    def test_supfamily_rejects_non_finite_offset(self, offset):
        ones = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError, match="finite"):
            SupFamily(((offset, ones),))

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


def lorentz_per_level(alpha, wv):
    """Weak-Lorentz value with the critical-point probe looped level by level.

    Returns the value and how many segments held their critical point inside.
    """
    step = rearrange_values(np.abs(wv.values), wv.weights)
    prefix = step.prefix_integrals()
    s = step.bounds
    best = float(np.max(prefix[1:] / s[1:] ** alpha))
    inside = 0
    for j in range(step.levels.size):
        v = float(step.levels[j])
        if v <= 0.0:
            continue
        a = float(prefix[j]) - v * float(s[j])
        if a <= 0.0:
            continue
        s_crit = alpha * a / ((1.0 - alpha) * v)
        if s[j] < s_crit < s[j + 1]:
            inside += 1
            best = max(best, (a + v * s_crit) / s_crit**alpha)
    return best, inside


class TestLorentzSegmentEnds:
    def test_matches_per_level_probe_bitwise(self):
        """The interior critical points the old probe visited never raise the value."""
        rng = np.random.default_rng(12)
        probed = 0
        for i in range(400):
            k = int(rng.integers(1, 3)) if i % 4 == 0 else int(rng.integers(3, 40))
            values = 2.0 * rng.standard_normal(k)
            if i % 5 == 1:
                values = np.round(values)  # ties and zeros
            elif i % 5 == 2:
                values = -np.abs(values)
            elif i % 5 == 3:
                values[rng.uniform(size=k) < 0.5] = 0.0
            weights = dyadic_weighted(rng, k)[1] if i % 2 else rng.dirichlet(np.ones(k))
            wv = WeightedValues.from_arrays(values, weights)
            alpha = float(rng.uniform(0.0, 1.0))
            want, inside = lorentz_per_level(alpha, wv)
            assert LorentzWeak(alpha).of_weighted(wv) == want
            probed += inside > 0
        assert probed >= 80


# every form, the sup family with the members of acceptance check 04
FORMS = (
    Power(1.0),
    Power(2.0),
    CHI_SQUARE,
    LorentzWeak(0.5),
    SupFamily((
        (0.0, rearrange_values([2.0, 1.0], [0.5, 0.5])),
        (0.1, rearrange_values([1.5, 0.5], [0.25, 0.75])),
    )),
)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    cuts=st.sets(st.integers(1, 63), max_size=7),
    values=st.lists(st.integers(-16, 16).map(float), min_size=8, max_size=8),
    splits=st.lists(st.booleans(), min_size=8, max_size=8),
    data=st.data(),
)
def test_forms_invariant_under_permutation_and_tie_splitting(cuts, values, splits, data):
    """Dyadic weights keep every sum exact, so the values agree bit for bit.

    A split cell becomes two cells of its value with half its weight each.
    Both sets must evaluate as the sort-and-merge oracle's rearrangement does.
    """
    weights = np.diff([0, *sorted(cuts), 64]) / 64.0
    values = np.array(values[: weights.size])
    halves = np.array(splits[: weights.size])
    split_values = np.concatenate([values, values[halves]])
    split_weights = np.concatenate([np.where(halves, 0.5, 1.0) * weights, 0.5 * weights[halves]])
    order = np.array(data.draw(st.permutations(range(split_values.size))), dtype=int)
    bounds, levels = sorted_merge_oracle(values, weights)
    oracle = WeightedValues.from_arrays(levels, np.diff(bounds))
    plain = WeightedValues.from_arrays(values, weights)
    moved = WeightedValues.from_arrays(split_values[order], split_weights[order])
    for form in FORMS:
        want = form.of_weighted(oracle)
        assert form.of_weighted(plain) == want
        assert form.of_weighted(moved) == want


ROW_FORMS = (
    Power(1.0),
    Power(2.0),
    Power(3.5),
    CHI_SQUARE,
    LorentzWeak(0.3),
    LorentzWeak(0.5),
    LorentzWeak(0.9),
    FORMS[-1],
)
ROW_FORM_IDS = ("p1", "p2", "p3.5", "chi-square", "a0.3", "a0.5", "a0.9", "supfam")


def per_set_oracle(form, wv):
    """The form on one set, computed without its row kernel."""
    v, w = wv.values, wv.weights
    if isinstance(form, Power):
        return float(np.dot(np.abs(v) ** form.p, w)) ** (1.0 / form.p)
    if isinstance(form, Orlicz):
        return float(np.dot(form.chi(v), w))
    if isinstance(form, LorentzWeak):
        return lorentz_per_level(form.alpha, wv)[0]
    return max(a + hardy_littlewood_refinement(f0, wv) for a, f0 in form.members)


def row_stacks():
    """(name, values, weights): ties, a constant row, one row, one cell, generic."""
    rng = np.random.default_rng(21)
    generic = rng.standard_normal((5, 40))
    weights = rng.dirichlet(np.ones(40), size=5)
    ties = np.round(2.0 * generic)
    constant = generic.copy()
    constant[2] = -0.75
    yield "generic", generic, weights
    yield "ties", ties, weights
    yield "constant row", constant, weights
    yield "one row", generic[:1], weights[:1]
    yield "one cell", generic[:, :1], np.ones((5, 1))


class TestRowKernels:
    @pytest.mark.parametrize("form", ROW_FORMS, ids=ROW_FORM_IDS)
    def test_rows_equal_single_sets(self, form):
        for name, values, weights in row_stacks():
            got = evaluate_rows(form, values, weights)
            assert got.shape == (len(values),), name
            for i in range(len(values)):
                wv = WeightedValues.from_arrays(values[i], weights[i])
                assert got[i] == pytest.approx(form.of_weighted(wv), rel=1e-14), (name, i)
                # the oracles sum in another order
                scale = (1.0 + float(np.abs(values[i]).max())) ** 2
                assert got[i] == pytest.approx(per_set_oracle(form, wv), abs=1e-12 * scale)

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("nan value", "values must be finite"),
            ("zero weight", "weights must be finite and strictly positive"),
            ("heavy row", "weights must sum to 1 within 1e-12, got 1.0000000001"),
        ],
    )
    def test_rows_validated_like_weighted_values(self, fault, message):
        """A fault in row 2 raises what WeightedValues raises for that row alone."""
        values = np.random.default_rng(22).standard_normal((4, 6))
        weights = np.full((4, 6), 1.0 / 6.0)
        if fault == "nan value":
            values[2, 3] = np.nan
        elif fault == "zero weight":
            weights[2, 0] = 0.0
        else:
            weights[2] *= 1.0 + 1e-10
        with pytest.raises(ValueError, match=message) as from_set:
            WeightedValues.from_arrays(values[2], weights[2])
        for form in ROW_FORMS:
            with pytest.raises(ValueError) as from_rows:
                evaluate_rows(form, values, weights)
            assert str(from_rows.value) == str(from_set.value)

    def test_rows_need_a_stack(self):
        with pytest.raises(ValueError, match="stack"):
            evaluate_rows(Power(1.0), np.ones(4), np.full(4, 0.25))

    def test_rows_need_matching_weights(self):
        with pytest.raises(ValueError, match="equal shapes"):
            evaluate_rows(Power(1.0), np.ones((2, 4)), np.full((2, 5), 0.2))


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
        with pytest.raises(ValueError, match="not equidistributed"):
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
            assert est <= lipschitz_bound(spec, 1.5) + 1e-9


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
