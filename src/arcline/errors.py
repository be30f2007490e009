"""Exception hierarchy shared by all arcline modules."""


class ArclineError(Exception):
    """Base class for all arcline errors."""


class InvalidInput(ArclineError, ValueError):
    """Caller supplied a value outside the documented domain."""


class DegenerateInput(InvalidInput):
    """Geometric data collapses (coincident points, impossible tangency)."""


class IllPosedAngle(InvalidInput):
    """Tangent directions are parallel or anti-parallel, or so nearly
    that the scene's position tolerance swallows the turn (kappa above
    KAPPA_MAX)."""


class NoAdmissibleCurve(InvalidInput):
    """Boundary data admits no positive-curvature connecting curve
    (a tangent points away from the tangent-line intersection)."""


class OutOfRange(InvalidInput):
    """Arc-length parameter outside [0, L] beyond the allowed slack."""


class RadiusNotAdmissible(InvalidInput):
    """Requested turn radius exceeds the largest admissible value."""


class HypothesisViolated(InvalidInput):
    """A certificate was requested for a curve that does not satisfy the
    certificate's hypothesis (max curvature or length bound)."""


class UndefinedHeading(InvalidInput):
    """Tangent-intercept functions are undefined where the heading is 0
    (inside an initial straight run)."""


class InternalError(ArclineError, RuntimeError):
    """A self-check failed; indicates a bug, not bad input."""
