"""Shared generators for tests: exact-arithmetic weighted sets and small fields."""

import numpy as np


def dyadic_weighted(rng, k, denom_pow=10, value_span=16):
    """Random weighted set with dyadic weights summing exactly to 1.

    All downstream sums and products stay exactly representable in binary
    floating point, so sort-based oracles can be compared bit-for-bit.
    """
    denom = 2**denom_pow
    if k == 1:
        parts = np.array([denom])
    else:
        cuts = np.sort(rng.choice(np.arange(1, denom), size=k - 1, replace=False))
        parts = np.diff(np.concatenate([[0], cuts, [denom]]))
    weights = parts / float(denom)
    values = rng.integers(-value_span, value_span + 1, size=k).astype(float)
    return values, weights


def equal_weighted(rng, k, value_span=16):
    """Random integer values with equal weights 1/k."""
    values = rng.integers(-value_span, value_span + 1, size=k).astype(float)
    weights = np.full(k, 1.0 / k)
    return values, weights


def sorted_merge_oracle(values, weights):
    """(bounds, levels) of the decreasing rearrangement by sorting and merging ties."""
    order = np.argsort(-values, kind="stable")
    sv, sw = values[order], weights[order]
    levels, widths = [sv[0]], [sw[0]]
    for v, w in zip(sv[1:], sw[1:]):
        if v == levels[-1]:
            widths[-1] += w
        else:
            levels.append(v)
            widths.append(w)
    return np.concatenate([[0.0], np.cumsum(widths)]), np.asarray(levels)


def inadmissible_lgmres(n):
    """Stand-in for scipy's lgmres whose Newton step no line-search halving makes admissible.

    It returns 1e12 cos(2 pi x) on every interior knot of an n x n grid; even
    at the smallest step length tried, 2**-30, the trial density goes
    negative where cos(2 pi x) > 0.
    """
    row = 1e12 * np.cos(2.0 * np.pi * np.arange(n) / n)

    def solve(op, rhs, **kwargs):
        return np.resize(np.repeat(row, n), rhs.size), 0

    return solve
