"""Exception types shared across the laboratory modules."""

from __future__ import annotations


class MalError(Exception):
    """Base class for all domain errors raised by this package."""


class NotKahler(MalError):
    """Candidate potential is not finite or has a non-positive Monge-Ampere density somewhere."""

    def __init__(self, min_density: float):
        self.min_density = float(min_density)
        super().__init__(
            f"density 1 + lap(u)/2 must be positive everywhere, min = {min_density:.6g}"
        )


class MassMismatch(MalError):
    """Two weighted value sets that must carry equal total mass do not."""


class NotEquidistributed(MalError):
    """Inputs were required to share a weighted distribution but do not."""


class StepUnstable(MalError):
    """A flow substep moved a particle farther than one grid cell."""


class NonConvergence(MalError):
    """Iterative solver exhausted its iteration budget."""

    def __init__(self, iterations: int, residual: float):
        self.iterations = int(iterations)
        self.residual = float(residual)
        super().__init__(
            f"no convergence after {iterations} iterations, sup residual = {residual:.6g}"
        )


class PositivityLoss(MalError):
    """Solver iterate left the space of admissible potentials and damping could not restore it."""

    def __init__(self, time_index: int, cell: tuple[int, int]):
        self.time_index = int(time_index)
        self.cell = (int(cell[0]), int(cell[1]))
        super().__init__(
            f"density became non-positive at time knot {time_index}, cell {cell}"
        )


class GenerationFailed(MalError):
    """Randomized path generation failed to produce an admissible sample."""


class HomogeneityRequired(MalError):
    """Operation is only meaningful for positively homogeneous Lagrangians."""
