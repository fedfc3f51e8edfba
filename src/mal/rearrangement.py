"""Decreasing rearrangements of weighted value sets.

The decreasing rearrangement of a field xi against a measure mu is the
left-continuous decreasing step function xi* on (0, M], M the total mass, with
xi*(s) = the smallest level t such that mu(xi >= t) >= s.  For a finite
weighted set this is: sort values descending, accumulate weights, merge ties.
Equality of rearrangements is exactly equidistribution (equality of weighted
distributions), which is what the invariant Lagrangians see.

The theta map realizes the classical transfer: order the cells, lay their
masses end to end on (0, M], and pull a step function back through interval
membership.  Pulling xi* back through xi's own value-descending theta map
reproduces the distribution of xi exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import MassMismatch
from .grid import WeightedValues, _frozen


@dataclass(frozen=True, eq=False)
class StepFunction:
    """Left-continuous decreasing step function on (0, M].

    bounds: 0 = s_0 < s_1 < ... < s_k = M, all finite
    levels: v_1 > v_2 > ... > v_k, all finite, with value v_j on (s_{j-1}, s_j].
    """

    bounds: NDArray[np.float64]
    levels: NDArray[np.float64]

    def __post_init__(self):
        if self.bounds.ndim != 1 or self.levels.ndim != 1:
            raise ValueError("bounds and levels must be 1-d")
        if self.bounds.size != self.levels.size + 1:
            raise ValueError("need exactly one more bound than levels")
        if self.bounds[0] != 0.0:
            raise ValueError("first bound must be 0")
        # neighbours are compared, not subtracted: finite ends can differ by inf
        if not np.all(self.bounds[1:] > self.bounds[:-1]):
            raise ValueError("bounds must be strictly increasing")
        if not np.all(self.levels[1:] < self.levels[:-1]):
            raise ValueError("levels must be strictly decreasing")
        # with the order checks above, finite ends make every entry finite
        if not np.isfinite([self.bounds[-1], self.levels[0], self.levels[-1]]).all():
            raise ValueError("bounds and levels must be finite")

    @property
    def total_mass(self) -> float:
        return float(self.bounds[-1])

    def value(self, s):
        """Evaluate at s in (0, M]; arrays accepted.  Left-continuous."""
        idx = np.searchsorted(self.bounds, s, side="left") - 1
        idx = np.clip(idx, 0, self.levels.size - 1)
        return self.levels[idx]

    def prefix_integrals(self) -> NDArray[np.float64]:
        """Cumulative integral at each bound; starts at 0, length k + 1."""
        out = np.empty(self.bounds.size)
        out[0] = 0.0
        np.cumsum(self.levels * np.diff(self.bounds), out=out[1:])
        return out


def rearrange_values(values, weights) -> StepFunction:
    """Decreasing rearrangement of an arbitrary positive-mass weighted set.

    Sort-based; ties between equal values merge into a single step so the
    levels are strictly decreasing.  Weights whose running sum in that order
    overflows are rejected.
    """
    values = np.ravel(np.asarray(values, dtype=float))
    weights = np.ravel(np.asarray(weights, dtype=float))
    if values.shape != weights.shape or values.size == 0:
        raise ValueError("values and weights must be non-empty and of equal length")
    if float(weights.min()) <= 0.0:
        raise ValueError("weights must be strictly positive")
    order = np.argsort(-values, kind="stable")
    v = values[order]
    w = weights[order]
    # last index of each run of equal values
    last = np.flatnonzero(v[1:] != v[:-1])
    ends = np.concatenate([last, [v.size - 1]])
    with np.errstate(over="ignore"):
        cum = np.cumsum(w)
    if not np.isfinite(cum[-1]):
        raise ValueError("total weight overflows")
    bounds = np.concatenate([[0.0], cum[ends]])
    return StepFunction(_frozen(bounds), _frozen(v[ends]))


def _refinement(a, b, upper: float):
    """Lengths and midpoints of the common refinement of two breakpoint arrays up
    to upper; union1d sorts and deduplicates, so every length is positive."""
    grid = np.union1d(a, b)
    grid = grid[grid <= upper]
    return np.diff(grid), 0.5 * (grid[:-1] + grid[1:])


def decreasing_rearrangement(wv: WeightedValues) -> StepFunction:
    """Decreasing rearrangement of a weighted value set (mass 1)."""
    return rearrange_values(wv.values, wv.weights)


def equidistributed(a: WeightedValues, b: WeightedValues, tol: float = 1e-9) -> bool:
    """Whether two weighted sets share their distribution within tol.

    Compares the decreasing rearrangements on the union of their breakpoints;
    level discrepancies above tol on pieces of mass above tol fail.  Pieces
    narrower than tol are slivers from breakpoint misalignment and are ignored.

    Raises:
        ValueError: unless 0 <= tol < inf.
        MassMismatch: if the total masses differ by more than tol.
    """
    # written so that a NaN tol, which fails every comparison, is rejected too
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if abs(a.total_mass - b.total_mass) > tol:
        raise MassMismatch(
            f"total masses {a.total_mass!r} and {b.total_mass!r} differ by more than {tol}"
        )
    ra = decreasing_rearrangement(a)
    rb = decreasing_rearrangement(b)
    lengths, mids = _refinement(ra.bounds, rb.bounds, np.inf)
    gap = np.abs(ra.value(mids) - rb.value(mids))
    bad = (gap > tol) & (lengths > tol)
    return not bool(bad.any())


def step_l1_distance(a: StepFunction, b: StepFunction) -> float:
    """Integral of |a - b| over the common domain (masses assumed comparable)."""
    lengths, mids = _refinement(a.bounds, b.bounds, min(a.total_mass, b.total_mass))
    return float(np.sum(lengths * np.abs(a.value(mids) - b.value(mids))))


@dataclass(frozen=True, eq=False)
class ThetaMap:
    """Measure-preserving identification of cells with subintervals of (0, M].

    ordering: permutation of cell indices; cell ordering[j] owns the interval
    (interval_bounds[j], interval_bounds[j+1]] whose length is its weight.
    """

    ordering: NDArray[np.intp]
    interval_bounds: NDArray[np.float64]

    def __post_init__(self):
        if self.interval_bounds.size != self.ordering.size + 1:
            raise ValueError("need one more interval bound than cells")
        if self.interval_bounds[0] != 0.0 or not np.all(np.diff(self.interval_bounds) > 0):
            raise ValueError("interval bounds must increase strictly from 0")

    def pullback(self, step: StepFunction) -> WeightedValues:
        """Pull a step function back through interval membership.

        Cells whose interval straddles a breakpoint of the step function are
        split on the common refinement, so the result has exactly the weighted
        distribution of the step function (up to rounding).
        """
        lengths, mids = _refinement(self.interval_bounds, step.bounds, self.interval_bounds[-1])
        return WeightedValues.from_arrays(step.value(mids), lengths)


def theta_map(wv: WeightedValues, tie_break=None) -> ThetaMap:
    """Theta map of a weighted set: cells sorted by value descending.

    Ties are broken by tie_break (per-cell sort keys, ascending) or by cell
    index (row-major) when omitted.  Pulling decreasing_rearrangement(wv) back
    through this map reproduces the distribution of wv exactly.
    """
    if tie_break is None:
        order = np.argsort(-wv.values, kind="stable")
    else:
        keys = np.ravel(np.asarray(tie_break))
        if keys.shape != wv.values.shape:
            raise ValueError("tie_break must assign one key per cell")
        order = np.lexsort((keys, -wv.values))
    bounds = np.concatenate([[0.0], np.cumsum(wv.weights[order])])
    order = np.array(order, dtype=np.intp)
    order.setflags(write=False)
    return ThetaMap(order, _frozen(bounds))


def descending_rows(values, weights) -> tuple[NDArray, NDArray]:
    """Each row (the last axis) of a stack of weighted sets ordered by value
    descending, ties by cell index: (values, weights) in that order."""
    order = np.argsort(-values, axis=-1)
    levels = np.take_along_axis(values, order, -1)
    # the default sort is several times faster than the stable one, and when
    # no two values of a row tie the order is the same
    if (levels[..., 1:] == levels[..., :-1]).any():
        order = np.argsort(-values, axis=-1, kind="stable")
        levels = np.take_along_axis(values, order, -1)
    return levels, np.take_along_axis(weights, order, -1)


def sorted_pairing(f0: StepFunction, levels, running) -> NDArray:
    """Hardy-Littlewood pairing of f0 with rows already in descending order.

    levels are a row's values in that order and running its running weights
    S_1 <= ... <= S_N; the pairing is sum_j v_j (F0(S_j) - F0(S_{j-1})) with
    F0 the prefix integral of f0, linear between its bounds and constant past
    its mass.  A run of equal values telescopes, so ties need no merging.
    """
    prefix = np.interp(running, f0.bounds, f0.prefix_integrals())
    return np.sum(levels * np.diff(prefix, axis=-1, prepend=0.0), axis=-1)


def hardy_littlewood_sup(f0: StepFunction, eta: WeightedValues) -> float:
    """Largest integral of f eta d mu over f equidistributed with f0.

    Equals the similarly-ordered pairing of the two decreasing rearrangements,
    taken exactly through the prefix integral of f0 (sorted_pairing).

    Raises:
        MassMismatch: if the masses of f0 and eta differ by more than 1e-9.
    """
    if abs(f0.total_mass - eta.total_mass) > 1e-9:
        raise MassMismatch(
            f"masses {f0.total_mass!r} and {eta.total_mass!r} differ by more than 1e-9"
        )
    levels, weights = descending_rows(eta.values, eta.weights)
    return float(sorted_pairing(f0, levels, np.cumsum(weights)))
