"""Exception types shared across the package.

Every error raised on purpose derives from NplsError so callers can
distinguish misuse of this library from ordinary Python failures.  Each
type names a check that some input can fail; what validation settles
is not checked again downstream, so it has no type here.
"""

from __future__ import annotations


class NplsError(Exception):
    """Base class for all errors raised by this package."""


class FormatError(NplsError):
    """A JSON document does not match the expected file format."""


# Term and formula evaluation


class OpenTermError(NplsError):
    """A term or literal still contains a free variable at evaluation time."""


class ValueOverflow(NplsError):
    """An intermediate value exceeded the configured bit width."""


# Derivation trees


class NoSuchNode(NplsError):
    """A node path does not occur in the derivation."""


class OmittedSequent(NplsError):
    """A node leaves out a sequent that does not follow; ``path`` names the node."""

    def __init__(self, path: tuple[int, ...], message: str) -> None:
        super().__init__(message)
        self.path = path


class ValidationFailed(NplsError):
    """A derivation or template failed validation.

    Carries the report so callers can show which nodes are broken.
    """

    def __init__(self, message: str, report: object | None = None) -> None:
        super().__init__(message)
        self.report = report


class ModeError(NplsError):
    """The derivation uses formulas or rules outside the requested mode."""


# Search

class InvariantViolation(NplsError):
    """An instance component broke one of its declared conditions mid-search."""


class StepBudgetExceeded(NplsError):
    """The solver ran out of steps; the instance cannot be cost-decreasing."""


class RankViolation(NplsError):
    """A generated subproblem failed to strictly decrease the rank."""


class CostViolation(NplsError):
    """A search step failed to strictly decrease the cost."""


class EmptyTargetSpace(NplsError):
    """A source row has no target at all; such instances have no solutions."""


class DomainTooLarge(NplsError):
    """The point space is too large for exhaustive enumeration."""


# Graphs


class CostConditionViolated(NplsError):
    """An edge between distinct nodes fails to decrease the cost."""


class TotalityViolated(NplsError):
    """A node has no outgoing edge, not even a trivial cycle."""


# Witness extraction


class GoalNotFound(NplsError):
    """The rightmost walk above a node found no witnessing rule."""


class NotASolution(NplsError):
    """The node handed back by a sub-search does not solve its row."""
