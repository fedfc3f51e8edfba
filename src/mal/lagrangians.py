"""Invariant convex Lagrangians on tangent fields at a potential.

A Lagrangian L assigns a real to a tangent field xi at u and, by construction,
depends on (xi, mu_u) only through the weighted distribution: every form
evaluates rows of weighted sets, values and cell masses with the cells on the
last axis, so invariance under strict rearrangement is structural rather than
asserted.  One set (a WeightedValues) is the one-row case, and a path is
priced in one call over the stack of its intervals (evaluate_rows).  Forms:

    Orlicz(chi)      integral of chi(xi) d mu_u, chi a convex weight
    LorentzWeak(a)   sup over super-level masses s of (prefix integral of
                     |xi|*)/s^a, the weak L^{1/a} functional
    Power(p)         (integral of |xi|^p d mu_u)^{1/p}
    SupFamily        max over pairs (a, f0) of a + the Hardy-Littlewood
                     pairing of f0 with xi

VerificationReport is the one report type of every verification experiment in
mal: a worst value, its tolerance and the inputs that reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .grid import GridField, Potential, WeightedValues, check_weighted_rows
from .rearrangement import StepFunction, descending_rows, sorted_pairing

_CONVEXITY_PROBES = np.linspace(-4.0, 4.0, 33)


class _RowForm:
    """A form's one-set value from its row kernel _rows(values, weights),
    which maps (..., N) stacks of already validated sets to (...) values."""

    def of_weighted(self, wv: WeightedValues) -> float:
        return float(self._rows(wv.values, wv.weights))


@dataclass(frozen=True, eq=False)
class Orlicz(_RowForm):
    """Integral Lagrangian with a fixed convex weight: L(xi) = sum chi(xi) w.

    chi must accept ndarrays.  Convexity is spot-checked on a probe grid at
    construction; no derivative of chi is ever taken.
    """

    chi: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        probes = self.chi(_CONVEXITY_PROBES)
        if not np.all(np.isfinite(probes)):
            raise ValueError("chi must be finite on the probe range")
        mid = self.chi(0.5 * (_CONVEXITY_PROBES[:-1] + _CONVEXITY_PROBES[1:]))
        gap = mid - 0.5 * (probes[:-1] + probes[1:])
        if float(gap.max()) > 1e-9 * (1.0 + float(np.abs(probes).max())):
            raise ValueError("chi failed the sampled convexity check")

    @property
    def positively_homogeneous(self) -> bool:
        return False

    def _rows(self, values, weights):
        return np.sum(self.chi(values) * weights, axis=-1)


@dataclass(frozen=True, eq=False)
class LorentzWeak(_RowForm):
    """Weak Lorentz functional: sup_s (integral_0^s |xi|* d sigma) / s^alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0,1), got {self.alpha}")

    @property
    def positively_homogeneous(self) -> bool:
        return True

    def _rows(self, values, weights):
        # on the segment after mass s_j the ratio is (a + v s) / s^alpha with
        # v > 0 and a = prefix_j - v s_j >= 0 (the levels decrease); its only
        # critical point is a minimum, so the sup sits on a segment end.  A run
        # of equal levels is one segment, charged at its last cell, so the
        # prefixes are those of the merged rearrangement bit for bit; inside a
        # run the ratio only falls, since the prefix stays while s grows
        levels, w = descending_rows(np.abs(values), weights)
        running = np.cumsum(w, axis=-1)
        last = np.ones(levels.shape, dtype=bool)
        last[..., :-1] = levels[..., 1:] != levels[..., :-1]
        run_end = np.maximum.accumulate(np.where(last, running, 0.0), axis=-1)
        start = np.zeros_like(running)
        start[..., 1:] = run_end[..., :-1]
        prefix = np.cumsum(np.where(last, levels * (running - start), 0.0), axis=-1)
        return np.max(prefix / running**self.alpha, axis=-1)


@dataclass(frozen=True, eq=False)
class Power(_RowForm):
    """Norm Lagrangian L(xi) = (integral |xi|^p d mu_u)^{1/p}."""

    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    @property
    def positively_homogeneous(self) -> bool:
        return True

    def _rows(self, values, weights):
        return np.sum(np.abs(values) ** self.p * weights, axis=-1) ** (1.0 / self.p)


@dataclass(frozen=True, eq=False)
class SupFamily(_RowForm):
    """Sup of affine functionals xi -> a + sup of rearranged-f0 pairings.

    members: pairs (a, f0) of a finite offset a and a mass-1 StepFunction f0
    (a rearrangement class, not a raw field).
    """

    members: tuple[tuple[float, StepFunction], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("SupFamily needs at least one member")
        for a, f0 in self.members:
            if not np.isfinite(a):
                raise ValueError(f"member offsets must be finite, got {a!r}")
            if abs(f0.total_mass - 1.0) > 1e-9:
                raise ValueError("every member step function must have mass 1")

    @property
    def positively_homogeneous(self) -> bool:
        return all(a == 0.0 for a, _ in self.members)

    def _rows(self, values, weights):
        # every member pairs with the same descending order, sorted once per row
        levels, w = descending_rows(values, weights)
        running = np.cumsum(w, axis=-1)
        return np.max([a + sorted_pairing(f0, levels, running) for a, f0 in self.members], axis=0)


LagrangianSpec = Orlicz | LorentzWeak | Power | SupFamily


def evaluate(spec: LagrangianSpec, u: Potential, xi: GridField) -> float:
    """Evaluate a Lagrangian on a tangent field at u."""
    return spec.of_weighted(WeightedValues.from_field(np.asarray(xi, dtype=float), u))


def evaluate_rows(spec: LagrangianSpec, values, weights) -> NDArray[np.float64]:
    """L of each row of a (k, N) stack of weighted sets, cells on the last axis.

    Each row must pass the checks of WeightedValues (check_weighted_rows), with
    its messages; the values equal k one-set evaluations up to rounding.
    """
    values = np.asarray(values, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if values.ndim != 2:
        raise ValueError(f"values must be a (k, N) stack, got shape {values.shape}")
    check_weighted_rows(values, weights)
    return spec._rows(values, weights)


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one theorem-verification experiment.

    passed is exactly (worst <= tolerance); provenance records the inputs
    (seeds, resolutions, solver knobs) needed to reproduce the run.
    """

    experiment: str
    worst: float
    tolerance: float
    provenance: dict

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

