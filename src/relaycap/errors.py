"""Semantic exception hierarchy shared across the package."""

from __future__ import annotations

__all__ = [
    "RelaycapError",
    "DomainError",
    "ValidationError",
    "UsageError",
    "SolverError",
]


class RelaycapError(Exception):
    """Base class for every error raised by this package."""


class DomainError(RelaycapError, ValueError):
    """A scalar argument lies outside the mathematical domain of an operation."""


class ValidationError(RelaycapError, ValueError):
    """A probability object or model description violates its invariants."""


class UsageError(RelaycapError, ValueError):
    """An operation was invoked with structurally incompatible arguments."""


class SolverError(RelaycapError, RuntimeError):
    """An iterative solver failed to converge or found no feasible point.

    ``gap`` carries the last duality gap (bits) when the failure came from a
    capacity iteration that ran out of its iteration budget.
    """

    def __init__(self, message: str, *, gap: float | None = None):
        super().__init__(message)
        self.gap = gap
