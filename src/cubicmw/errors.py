"""Exception hierarchy shared by all modules."""


class CubicError(Exception):
    """Base class for all domain errors raised by this package."""


# projective arithmetic
class ZeroVector(CubicError):
    pass


class DimensionMismatch(CubicError):
    pass


class CoincidentPoints(CubicError):
    pass


class CoincidentLines(CubicError):
    pass


# composition law
class EqualPoints(CubicError):
    pass


class LineOnSurface(CubicError):
    pass


class LineOnCurve(CubicError):
    pass


class SingularPoint(CubicError):
    pass


# enumeration / registry I/O
class InvalidCoefficients(CubicError):
    pass


class BoundTooLarge(CubicError):
    pass


class ParseError(CubicError):
    pass


class NotOnSurface(CubicError):
    pass


class UnsortedInput(CubicError):
    pass


class EmptyRegistry(CubicError):
    pass


# split-surface model
class DegeneratePosition(CubicError):
    pass


class BasePoint(CubicError):
    pass


class BasePointResult(CubicError):
    pass


class AmbiguousKernel(CubicError):
    pass


class NotOnSection(CubicError):
    pass


class DegenerateSample(CubicError):
    pass


class DegenerateSeeds(CubicError):
    pass


class InvalidBound(CubicError):
    pass
