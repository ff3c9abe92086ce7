"""Exception hierarchy shared across the library and the CLI.

The CLI maps these onto exit codes: NotAMatroidAt -> 2, ParseError -> 3,
every other library error -> 4.
"""

from __future__ import annotations


class WeylretError(Exception):
    """Base class for all library errors."""


class ParseError(WeylretError):
    """Malformed textual input (JSON windows, rationals, group strings)."""


class PreconditionError(WeylretError, ValueError):
    """An operation was called outside its contract (also a ValueError, so
    callers that catch ValueError keep working)."""


class DescriptorMismatch(PreconditionError):
    """Operands belong to different groups."""


class BoundaryPoint(PreconditionError):
    """The point lies on a reflection wall, so no chamber is selected."""


class EnumerationCapExceeded(PreconditionError):
    """Group order exceeds the enumeration cap."""


class NotAProduct(PreconditionError):
    """Subset of a product group does not factor through the product."""


class NotAMatroidAt(WeylretError):
    """Uniqueness of the extremal element fails at a particular chamber."""

    def __init__(self, u, minimals):
        self.u = u
        self.minimals = tuple(minimals)
        super().__init__(
            f"no unique extremal element at u={list(u.window)}: "
            f"{[list(m.window) for m in self.minimals]}"
        )


class TieDetected(WeylretError):
    """Two admissible index tuples have equal weight; re-sample the weight."""


class SingularMatrix(PreconditionError):
    """The matrix has zero determinant."""


class GiveUp(WeylretError):
    """A best-effort sampler exhausted its retry budget."""


class AmbiguousBoundary(WeylretError):
    """The query point lies on a wall separating cones with different images."""


class InconsistentLineality(WeylretError):
    """Maximal cones of the would-be fan disagree on their lineality space."""
