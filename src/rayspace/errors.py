"""Exception types shared across the package.

Everything raised deliberately by this package derives from RaySpaceError, so
callers (and the command line driver) can distinguish numerical/geometric
failures from programming errors.

Batches.  A routine that takes a batch of items (rays, parameters, segments,
nodes, samples) runs it in stages, each over all its items, in the order its
docstring states.  A failing batch raises, at its first failing stage, the
error of the lowest item failing there, with that item's index in the batch
as the error's `row`, and no item is evaluated again: an earlier item that
would fail only at a later stage is not looked for.  A stage that takes
its items in several calls (a family's `eval`, at most `_CHUNK` rows a
call) runs the calls in turn, and the first failing call ends it.  Each
error keeps the type and message it has for its item alone.
"""

from __future__ import annotations


class RaySpaceError(Exception):
    """Base class for all errors raised by this package.

    `row` is the index of the failing item in the batch the error was raised
    for, 0 for a single item; each batched layer maps it to its own items.
    """

    row = 0

    def at(self, row):
        """The error, naming item `row` of its batch."""
        self.row = int(row)
        return self


class ZeroDirectionError(RaySpaceError):
    """A direction vector was numerically zero."""


class ChartDomainError(RaySpaceError):
    """A direction fell outside the validity region of the requested chart."""


class NoIntersectionError(RaySpaceError):
    """The ray does not meet the surface within the search horizon."""


class TangentialError(RaySpaceError):
    """The ray meets the surface but nearly tangentially."""


class GrazingError(RaySpaceError):
    """Incidence too close to grazing for a stable reflection/refraction."""


class TotalInternalReflectionError(RaySpaceError):
    """Refraction impossible: the incidence angle exceeds the critical angle."""


class OffSurfaceError(RaySpaceError):
    """A point claimed to lie on a surface does not."""


class DegenerateGradientError(RaySpaceError):
    """The level-function gradient vanishes where a normal is needed."""


class BadMediaChainError(RaySpaceError):
    """Refractive indices of consecutive interfaces do not chain consistently."""

    def __init__(self, index=None, message="inconsistent media chain"):
        self.index = index
        if index is not None:
            message = f"interface {index}: {message}"
        super().__init__(message)


class TraceError(RaySpaceError):
    """A per-interface failure during propagation, annotated with its index."""

    def __init__(self, interface_index, cause):
        self.interface_index = interface_index
        self.cause = cause
        self.row = cause.row
        super().__init__(f"interface {interface_index}: {cause}")


class FamilyTraceError(RaySpaceError):
    """A trace failure inside a transformed family, annotated with k."""

    def __init__(self, k, cause):
        self.k = tuple(map(float, k))
        self.cause = cause
        self.row = cause.row
        super().__init__(f"at k={self.k}: {cause}")


class DomainBoundaryError(RaySpaceError):
    """A finite-difference stencil would leave the parameter domain."""


class ImmersionError(RaySpaceError):
    """The family fails to be an immersion at some parameter value."""


class NotRectangularError(RaySpaceError):
    """An operation requiring a rectangular family met a nonzero defect."""


class NonRegularError(RaySpaceError):
    """A reconstructed wavefront point is not a regular point of the family."""


class NoConvergenceError(RaySpaceError):
    """An iteration failed to reach its tolerance within the step budget."""


class NoRootError(RaySpaceError):
    """A level-set root finder found no root along a ray."""

    def __init__(self, k=None, message="no root along the ray"):
        self.k = None if k is None else tuple(map(float, k))
        if self.k is not None:
            message = f"{message} at k={self.k}"
        super().__init__(message)


class IllConditionedFitError(RaySpaceError):
    """A local surface fit was too poorly conditioned to trust."""


class SceneSyntaxError(RaySpaceError):
    """A scene file failed to parse; carries line and column (1-based)."""

    def __init__(self, line, col, message):
        self.line = line
        self.col = col
        self.message = message
        super().__init__(f"line {line}, col {col}: {message}")


class UnknownSurfaceError(RaySpaceError):
    """A scene referenced a surface name that was never declared."""

    def __init__(self, name):
        self.name = name
        super().__init__(f"unknown surface {name!r}")
