import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import dyadic_weighted, equal_weighted, hardy_littlewood_refinement, similarly_ordered

from mal.errors import MassMismatch
from mal.grid import WeightedValues
from mal.rearrangement import (
    StepFunction,
    ThetaMap,
    decreasing_rearrangement,
    equidistributed,
    hardy_littlewood_sup,
    rearrange_values,
    step_l1_distance,
    theta_map,
)


def wv(values, weights):
    return WeightedValues.from_arrays(values, weights)


class TestStepFunction:
    def test_validation(self):
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 1.0]), np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.1, 1.0]), np.array([1.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5, 0.4]), np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            StepFunction(np.array([0.0, 0.5, 1.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="1-d"):
            StepFunction(np.array([[0.0, 1.0]]), np.array([1.0]))
        # neighbours whose difference overflows are rejected without a warning
        with pytest.raises(ValueError, match="increasing"):
            StepFunction(np.array([0.0, -1e308, 1e308]), np.array([2.0, 1.0]))

    @pytest.mark.parametrize("bounds, levels", [
        ([0.0, np.inf], [1.0]),
        ([0.0, 0.5, np.inf], [2.0, 1.0]),
        ([0.0, np.nan], [1.0]),
        ([0.0, 1.0], [np.nan]),
        ([0.0, 1.0], [np.inf]),
        ([0.0, 0.5, 1.0], [np.inf, 0.0]),
        ([0.0, 0.5, 1.0], [1.0, -np.inf]),
    ])
    def test_non_finite_rejected(self, bounds, levels):
        with pytest.raises(ValueError):
            StepFunction(np.array(bounds), np.array(levels))

    def test_left_continuity_at_breakpoints(self):
        s = StepFunction(np.array([0.0, 0.3, 1.0]), np.array([5.0, 2.0]))
        assert s.value(0.3) == 5.0
        assert s.value(np.nextafter(0.3, 1.0)) == 2.0
        assert s.value(1.0) == 2.0

    def test_integral_and_prefix(self):
        s = StepFunction(np.array([0.0, 0.25, 1.0]), np.array([4.0, 1.0]))
        assert s.prefix_integrals() == pytest.approx([0.0, 1.0, 1.75])


class TestDecreasingRearrangement:
    def test_constant(self):
        r = decreasing_rearrangement(wv([2.0, 2.0, 2.0], [0.25, 0.5, 0.25]))
        assert r.levels.tolist() == [2.0]
        assert r.bounds.tolist() == [0.0, 1.0]

    def test_sorted_oracle(self):
        r = decreasing_rearrangement(wv([1.0, 3.0, 2.0], [0.5, 0.3, 0.2]))
        assert r.levels.tolist() == [3.0, 2.0, 1.0]
        assert r.bounds == pytest.approx([0.0, 0.3, 0.5, 1.0])

    @pytest.mark.parametrize("weights", [[1e308, 1e308], [np.finfo(float).max, 2.0**969, 2.0**969]])
    def test_overflowing_total_weight_rejected(self, weights):
        # the second set sums to the largest float in input order but
        # overflows in the descending-value order the rearrangement sums in
        with pytest.raises(ValueError, match="total weight"):
            rearrange_values(np.arange(1.0, len(weights) + 1.0), weights)

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            values, weights = equal_weighted(rng, int(rng.integers(1, 12)))
            perm = rng.permutation(values.size)
            a = decreasing_rearrangement(wv(values, weights))
            b = decreasing_rearrangement(wv(values[perm], weights))
            assert np.array_equal(a.bounds, b.bounds)
            assert np.array_equal(a.levels, b.levels)

    def test_distribution_function_identity(self):
        # mass of {value >= t} equals length of {xi* >= t}, exactly, all dyadic
        rng = np.random.default_rng(1)
        for _ in range(100):
            values, weights = dyadic_weighted(rng, int(rng.integers(1, 9)))
            r = rearrange_values(values, weights)
            for t in np.unique(values):
                mass = weights[values >= t].sum()
                idx = np.flatnonzero(r.levels >= t)
                length = r.bounds[idx[-1] + 1] if idx.size else 0.0
                assert mass == length

    def test_level_set_implications(self):
        # mu(xi >= t) <= tau implies xi*(tau) <= t, and >= likewise
        rng = np.random.default_rng(2)
        for _ in range(50):
            values, weights = dyadic_weighted(rng, int(rng.integers(1, 9)))
            r = rearrange_values(values, weights)
            for t in np.unique(values):
                mass = weights[values >= t].sum()
                for tau in (0.25, 0.5, 0.75, 1.0):
                    if mass <= tau and tau > 0:
                        assert r.value(tau) <= t
                    if mass >= tau and tau > 0:
                        assert r.value(tau) >= t

    def test_rearrange_values_validation(self):
        for values, weights in (([], []), ([1.0, 2.0], [1.0])):
            with pytest.raises(ValueError, match="non-empty and of equal length"):
                rearrange_values(values, weights)
        with pytest.raises(ValueError, match="strictly positive"):
            rearrange_values([1.0, 2.0], [1.0, 0.0])

    def test_merges_ties(self):
        r = rearrange_values([1.0, 2.0, 1.0, 2.0], [0.25, 0.25, 0.25, 0.25])
        assert r.levels.tolist() == [2.0, 1.0]
        assert r.bounds.tolist() == [0.0, 0.5, 1.0]

    def test_opposite_extremes_do_not_overflow(self):
        # their difference is not finite, yet both are finite distinct levels
        r = rearrange_values([1e308, -1e308, 1e308], [0.25, 0.5, 0.25])
        assert r.levels.tolist() == [1e308, -1e308]
        assert r.bounds.tolist() == [0.0, 0.5, 1.0]

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        # few distinct values, so ties are common
        cells=st.lists(
            st.tuples(st.integers(-3, 3).map(float), st.floats(1e-3, 1e3)), min_size=1, max_size=12
        ),
        at=st.integers(0, 11),
        share=st.floats(0.01, 0.99),
    )
    def test_properties(self, cells, at, share):
        values, weights = (np.array(column) for column in zip(*cells))
        r = rearrange_values(values, weights)
        assert np.all(np.diff(r.levels) < 0)
        assert r.bounds[-1] == pytest.approx(weights.sum(), rel=1e-12)
        # splitting one cell into two of the same value, its weight shared, is a tie
        i = at % values.size
        w = weights[i]
        split = rearrange_values(
            np.insert(values, i, values[i]),
            np.concatenate([weights[:i], [share * w, (1.0 - share) * w], weights[i + 1:]]),
        )
        assert np.array_equal(split.levels, r.levels)
        np.testing.assert_allclose(split.bounds, r.bounds, rtol=1e-12, atol=1e-12 * r.bounds[-1])


class TestEquidistributed:
    def test_reflexive(self):
        a = wv([1.0, 2.0, 0.5], [0.2, 0.3, 0.5])
        assert equidistributed(a, a)

    def test_permuted_equal_weights(self):
        a = wv([1.0, 2.0], [0.5, 0.5])
        b = wv([2.0, 1.0], [0.5, 0.5])
        assert equidistributed(a, b)

    @pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf])
    def test_tolerance_validated(self, tol):
        a = wv([0.0, 1.0], [0.5, 0.5])
        b = wv([5.0, -3.0], [0.25, 0.75])
        with pytest.raises(ValueError, match="tol"):
            equidistributed(a, b, tol=tol)

    def test_weight_shift_fails(self):
        a = wv([1.0, 2.0], [0.7, 0.3])
        b = wv([1.0, 2.0], [0.5, 0.5])
        assert not equidistributed(a, b)

    def test_mass_mismatch_raises(self):
        # bypass the WeightedValues mass gate with a direct rearrangement pair
        class Fake:
            def __init__(self, values, weights):
                self.values = np.asarray(values, dtype=float)
                self.weights = np.asarray(weights, dtype=float)
                self.total_mass = float(self.weights.sum())

        with pytest.raises(MassMismatch):
            equidistributed(Fake([1.0], [1.0]), Fake([1.0], [0.5]))

    def test_symmetric_and_transitive_on_exact_fixture(self):
        rng = np.random.default_rng(3)
        values, weights = dyadic_weighted(rng, 8)
        perm1, perm2 = rng.permutation(8), rng.permutation(8)
        # equal-weight copies so permutations preserve the distribution
        weights = np.full(8, 1.0 / 8)
        a = wv(values, weights)
        b = wv(values[perm1], weights)
        c = wv(values[perm1][perm2], weights)
        assert equidistributed(a, b) and equidistributed(b, a)
        assert equidistributed(b, c) and equidistributed(a, c)


class TestThetaMap:
    def test_single_cell(self):
        t = theta_map(wv([3.0], [1.0]))
        assert t.ordering.tolist() == [0]
        assert t.interval_bounds.tolist() == [0.0, 1.0]

    def test_pullback_reproduces_distribution(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            values, weights = dyadic_weighted(rng, int(rng.integers(1, 10)))
            a = wv(values, weights)
            t = theta_map(a)
            back = t.pullback(decreasing_rearrangement(a))
            assert equidistributed(a, back, tol=1e-12)

    def test_deterministic(self):
        a = wv([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        t1, t2 = theta_map(a), theta_map(a)
        assert np.array_equal(t1.ordering, t2.ordering)
        assert np.array_equal(t1.interval_bounds, t2.interval_bounds)
        # value-descending with row-major tie-break
        assert t1.ordering.tolist() == [2, 0, 1]

    def test_custom_tie_break(self):
        a = wv([1.0, 1.0, 2.0], [0.25, 0.25, 0.5])
        t = theta_map(a, tie_break=[5, 1, 0])
        assert t.ordering.tolist() == [2, 1, 0]
        with pytest.raises(ValueError, match="one key per cell"):
            theta_map(a, tie_break=[5, 1])

    def test_bounds_validated(self):
        order = np.array([1, 0])
        with pytest.raises(ValueError, match="one more interval bound"):
            ThetaMap(order, np.array([0.0, 1.0]))
        for bounds in ([0.1, 0.5, 1.0], [0.0, 0.5, 0.5]):
            with pytest.raises(ValueError, match="increase strictly from 0"):
                ThetaMap(order, np.array(bounds))

    def test_interval_lengths_are_weights(self):
        a = wv([4.0, 1.0, 2.0], [0.25, 0.5, 0.25])
        t = theta_map(a)
        lengths = np.diff(t.interval_bounds)
        assert np.array_equal(lengths, a.weights[t.ordering])


class TestSimilarlyOrdered:
    def test_constant_always(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal(20)
        assert similarly_ordered(g, np.full(20, 3.0))

    def test_spec_examples(self):
        assert similarly_ordered([1.0, 2.0, 3.0], [5.0, 5.0, 7.0])
        assert not similarly_ordered([1.0, 2.0], [2.0, 1.0])
        with pytest.raises(ValueError, match="equal size"):
            similarly_ordered([1.0, 2.0], [1.0])

    def test_against_pairwise_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            k = int(rng.integers(2, 8))
            g = rng.integers(-3, 4, size=k).astype(float)
            h = rng.integers(-3, 4, size=k).astype(float)
            oracle = all(
                (g[i] - g[j]) * (h[i] - h[j]) >= 0.0
                for i in range(k)
                for j in range(k)
            )
            assert similarly_ordered(g, h) == oracle


class TestHardyLittlewood:
    def test_constant_f0(self):
        f0 = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        eta = wv([5.0, -1.0], [0.5, 0.5])
        assert hardy_littlewood_sup(f0, eta) == pytest.approx(2.0)

    def test_equal_weight_example(self):
        f0 = decreasing_rearrangement(wv([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3]))
        eta = wv([5.0, 4.0, 6.0], [1 / 3, 1 / 3, 1 / 3])
        assert hardy_littlewood_sup(f0, eta) == pytest.approx(17.0 / 3.0, rel=1e-12)

    def test_constant_eta(self):
        rng = np.random.default_rng(7)
        values, weights = dyadic_weighted(rng, 6)
        f0 = rearrange_values(values, weights)
        eta = wv(np.ones(4), np.full(4, 0.25))
        assert hardy_littlewood_sup(f0, eta) == pytest.approx(f0.prefix_integrals()[-1], abs=1e-12)

    def test_mass_mismatch(self):
        f0 = StepFunction(np.array([0.0, 0.5]), np.array([1.0]))
        with pytest.raises(MassMismatch):
            hardy_littlewood_sup(f0, wv([1.0], [1.0]))

    def test_dominates_sampled_rearrangements(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            f_vals, weights = equal_weighted(rng, k)
            e_vals, _ = equal_weighted(rng, k)
            f0 = rearrange_values(f_vals, weights)
            eta = wv(e_vals, weights)
            sup = hardy_littlewood_sup(f0, eta)
            for _ in range(20):
                perm = rng.permutation(k)
                assert np.dot(f_vals[perm], e_vals) / k <= sup + 1e-12

    def test_exact_against_permutation_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            k = int(rng.integers(2, 7))
            f_vals, weights = equal_weighted(rng, k)
            e_vals, _ = equal_weighted(rng, k)
            f0 = rearrange_values(f_vals, weights)
            eta = wv(e_vals, weights)
            oracle = max(
                np.dot(f_vals[list(p)], e_vals) / k
                for p in itertools.permutations(range(k))
            )
            assert hardy_littlewood_sup(f0, eta) == pytest.approx(oracle, rel=1e-13)

    def test_exact_against_expansion_oracle(self):
        # split dyadic cells into equal quanta; the pairing becomes a plain
        # sorted dot product, exact in binary arithmetic
        rng = np.random.default_rng(10)
        for _ in range(50):
            kf = int(rng.integers(1, 8))
            ke = int(rng.integers(1, 8))
            f_vals, f_w = dyadic_weighted(rng, kf, denom_pow=6)
            e_vals, e_w = dyadic_weighted(rng, ke, denom_pow=6)
            f0 = rearrange_values(f_vals, f_w)
            eta = wv(e_vals, e_w)
            denom = 64
            f_exp = np.sort(np.repeat(f_vals, (f_w * denom).astype(int)))[::-1]
            e_exp = np.sort(np.repeat(e_vals, (e_w * denom).astype(int)))[::-1]
            oracle = np.dot(f_exp, e_exp) / denom
            assert hardy_littlewood_sup(f0, eta) == oracle

    @staticmethod
    def misaligned(rng, mass=1.0):
        """A random f0 of the given mass and a random eta, with ties, whose
        breakpoints do not line up."""
        kf, ke = int(rng.integers(1, 9)), int(rng.integers(1, 30))
        f0 = rearrange_values(rng.standard_normal(kf), mass * rng.dirichlet(np.ones(kf)))
        e_vals = np.round(2.0 * rng.standard_normal(ke), int(rng.integers(0, 3)))
        return f0, wv(e_vals, rng.dirichlet(np.ones(ke)))

    def test_matches_refinement_oracle_on_misaligned_breakpoints(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            f0, eta = self.misaligned(rng)
            assert hardy_littlewood_sup(f0, eta) == pytest.approx(
                hardy_littlewood_refinement(f0, eta), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("gap", [-9e-10, -1e-12, 1e-12, 9e-10])
    def test_matches_refinement_oracle_on_nearly_equal_masses(self, gap):
        rng = np.random.default_rng(12)
        for _ in range(50):
            f0, eta = self.misaligned(rng, 1.0 + gap)
            assert hardy_littlewood_sup(f0, eta) == pytest.approx(
                hardy_littlewood_refinement(f0, eta), rel=1e-12, abs=1e-14
            )

    @pytest.mark.parametrize("gap", [-2e-9, 2e-9])
    def test_mass_gap_above_tolerance_raises(self, gap):
        f0, eta = self.misaligned(np.random.default_rng(13), 1.0 + gap)
        with pytest.raises(MassMismatch):
            hardy_littlewood_sup(f0, eta)


class TestStepL1Distance:
    def test_identical(self):
        s = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 1.0]))
        assert step_l1_distance(s, s) == 0.0

    def test_known_gap(self):
        a = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
        b = StepFunction(np.array([0.0, 0.5, 1.0]), np.array([2.0, 0.0]))
        assert step_l1_distance(a, b) == pytest.approx(1.0)
