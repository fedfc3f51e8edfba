"""Invariant convex Lagrangians on tangent fields at a potential.

A Lagrangian L assigns a real to a tangent field xi at u and, by construction,
depends on (xi, mu_u) only through the weighted distribution: every variant
here evaluates on WeightedValues, so invariance under strict rearrangement is
structural rather than asserted.  Variants:

    Orlicz(chi)      integral of chi(xi) d mu_u, chi a convex weight
    LorentzWeak(a)   sup over super-level masses s of (prefix integral of
                     |xi|*)/s^a, the weak L^{1/a} functional
    Power(p)         (integral of |xi|^p d mu_u)^{1/p}
    SupFamily        max over pairs (a, f0) of a + the Hardy-Littlewood
                     pairing of f0 with xi

The property checks (invariance, fiber convexity, an empirical Lipschitz
constant on bounded sets, strong continuity under vanishing-mass perturbation)
are the testable surface for the structural facts the Lagrangians must obey.
They return VerificationReport, the one report type of every check in mal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NotEquidistributed
from .fixtures import random_potential
from .grid import Grid, GridField, Potential, WeightedValues
from .rearrangement import (
    StepFunction,
    equidistributed,
    hardy_littlewood_sup,
    rearrange_values,
)

_CONVEXITY_PROBES = np.linspace(-4.0, 4.0, 33)


@dataclass(frozen=True, eq=False)
class Orlicz:
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

    def lipschitz_bound(self, radius: float) -> float:
        """Lipschitz constant in the sup norm on {sup|xi| <= radius}.

        The steepest sampled slope of chi on [-radius, radius].
        """
        t = np.linspace(-radius, radius, 129)
        return float((np.abs(np.diff(self.chi(t))) / np.diff(t)).max())

    def of_weighted(self, wv: WeightedValues) -> float:
        return float(np.dot(self.chi(wv.values), wv.weights))


@dataclass(frozen=True, eq=False)
class LorentzWeak:
    """Weak Lorentz functional: sup_s (integral_0^s |xi|* d sigma) / s^alpha."""

    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie strictly inside (0,1), got {self.alpha}")

    @property
    def positively_homogeneous(self) -> bool:
        return True

    def lipschitz_bound(self, radius: float) -> float:
        """1 for every radius: 1-Lipschitz in the sup norm on unit mass."""
        return 1.0

    def of_weighted(self, wv: WeightedValues) -> float:
        step = rearrange_values(np.abs(wv.values), wv.weights)
        # on the segment after bound s_j the ratio is (a + v s) / s^alpha with
        # v > 0 and a = prefix_j - v s_j >= 0 (the levels decrease); its only
        # critical point is a minimum, so the sup sits on a segment end
        return float(np.max(step.prefix_integrals()[1:] / step.bounds[1:] ** self.alpha))


@dataclass(frozen=True, eq=False)
class Power:
    """Norm Lagrangian L(xi) = (integral |xi|^p d mu_u)^{1/p}."""

    p: float

    def __post_init__(self):
        if not 1.0 <= self.p < np.inf:
            raise ValueError(f"p must be finite and >= 1, got {self.p}")

    @property
    def positively_homogeneous(self) -> bool:
        return True

    def lipschitz_bound(self, radius: float) -> float:
        """1 for every radius: 1-Lipschitz in the sup norm on unit mass."""
        return 1.0

    def of_weighted(self, wv: WeightedValues) -> float:
        s = float(np.dot(np.abs(wv.values) ** self.p, wv.weights))
        return s ** (1.0 / self.p)


@dataclass(frozen=True, eq=False)
class SupFamily:
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

    def lipschitz_bound(self, radius: float) -> float:
        """The largest integral of |f0*| over the members, for every radius."""
        return max(float(np.dot(np.abs(f0.levels), np.diff(f0.bounds))) for _, f0 in self.members)

    def of_weighted(self, wv: WeightedValues) -> float:
        return max(a + hardy_littlewood_sup(f0, wv) for a, f0 in self.members)


LagrangianSpec = Orlicz | LorentzWeak | Power | SupFamily


def evaluate(spec: LagrangianSpec, u: Potential, xi: GridField) -> float:
    """Evaluate a Lagrangian on a tangent field at u."""
    return spec.of_weighted(WeightedValues.from_field(np.asarray(xi, dtype=float), u))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one property check or theorem-verification experiment.

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


def check_invariance(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    v: Potential,
    eta: GridField,
) -> VerificationReport:
    """Compare evaluate on two equidistributed (field, potential) pairs.

    The pass threshold is 1e-9 amplified by the Lipschitz bound at the data's
    sup norm, since a distribution discrepancy of that size can move the value
    by at most that factor.

    Raises:
        NotEquidistributed: if the two pairs fail the equidistribution test.
    """
    tol = 1e-9
    wa = WeightedValues.from_field(xi, u)
    wb = WeightedValues.from_field(eta, v)
    if not equidistributed(wa, wb, tol):
        raise NotEquidistributed("inputs are not equidistributed within tol")
    va = spec.of_weighted(wa)
    vb = spec.of_weighted(wb)
    disc = abs(va - vb)
    radius = max(1.0, float(np.abs(xi).max()), float(np.abs(eta).max()))
    threshold = tol * max(1.0, spec.lipschitz_bound(radius))
    return VerificationReport("invariance", disc, threshold, {"value_a": va, "value_b": vb})


def check_fiber_convexity(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    eta: GridField,
    samples: int = 8,
    seed: int = 0,
) -> VerificationReport:
    """Midpoint and random convex-combination inequality on one fiber."""
    tol = 1e-12
    lx = evaluate(spec, u, xi)
    ly = evaluate(spec, u, eta)
    lambdas = [0.5, *np.random.default_rng(seed).uniform(0.0, 1.0, size=samples)]
    worst = -np.inf
    for lam in lambdas:
        mixed = evaluate(spec, u, lam * xi + (1.0 - lam) * eta)
        worst = max(worst, mixed - (lam * lx + (1.0 - lam) * ly))
    return VerificationReport("fiber-convexity", float(worst), tol, {"samples": len(lambdas)})


def estimate_lipschitz(
    spec: LagrangianSpec,
    radius: float,
    trials: int,
    seed: int,
) -> float:
    """Empirical sup of |L(xi) - L(eta)| / sup|xi - eta| on bounded pairs.

    Random potentials and random bounded fields on a 16 x 16 spectral grid,
    deterministic for a fixed seed; pairs with xi = eta are skipped (zero
    denominator).
    """
    if radius <= 0.0:
        raise ValueError("radius must be positive")
    grid = Grid(16, "spectral")
    rng = np.random.default_rng(seed)
    shape = (grid.n, grid.n)
    best = 0.0
    for trial in range(trials):
        u = random_potential(grid, rng, amplitude=0.02)
        c = rng.uniform(0.05, 0.5) * radius
        if trial % 3 == 0:
            xi = rng.uniform(-radius, radius, size=shape)
            eta = rng.uniform(-radius, radius, size=shape)
        elif trial % 3 == 1:
            # constant shifts of a one-signed field realize the sharp constants
            xi = rng.uniform(0.0, radius - c, size=shape)
            eta = xi + c
        else:
            xi = rng.uniform(-radius + c, radius - c, size=shape)
            eta = xi + c * (rng.uniform(size=shape) < 0.5)
        denom = float(np.abs(xi - eta).max())
        if denom == 0.0:
            continue
        ratio = abs(evaluate(spec, u, xi) - evaluate(spec, u, eta)) / denom
        best = max(best, ratio)
    return best


def check_strong_continuity(
    spec: LagrangianSpec,
    u: Potential,
    xi: GridField,
    perturbations: Sequence[GridField],
    tol: float = 1e-3,
    tol_mass: float = 1e-3,
) -> VerificationReport:
    """Evaluate differences along a vanishing-support perturbation schedule.

    Each perturbed field differs from xi on a cell set whose mu_u-mass m_k
    should shrink along the schedule; passes when every difference with
    m_k < tol_mass stays below tol.
    """
    weights = u.density / u.grid.n**2
    base = evaluate(spec, u, xi)
    masses = []
    diffs = []
    for pert in perturbations:
        masses.append(float(weights[np.asarray(pert) != xi].sum()))
        diffs.append(abs(evaluate(spec, u, pert) - base))
    small = [d for m, d in zip(masses, diffs) if m < tol_mass]
    return VerificationReport(
        "strong-continuity",
        max(small) if small else np.inf,
        tol,
        {"masses": masses, "differences": diffs},
    )
