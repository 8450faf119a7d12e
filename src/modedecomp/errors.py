"""Exception types shared across the toolkit.

Every contract violation raises a subclass of :class:`DecompositionError`,
which itself subclasses ``ValueError`` so callers can catch broadly.
"""

import numbers


class DecompositionError(ValueError):
    """Base class for all validation and contract errors."""


class LengthMismatch(DecompositionError):
    """Sequences that must be aligned have different lengths (or are too short)."""


class NonFinite(DecompositionError):
    """An input contains NaN or infinity."""


class DuplicateTime(DecompositionError):
    """Two samples share the same time instant."""


class OutOfDomain(DecompositionError):
    """A value lies outside its documented domain."""


class NonMonotonePhase(DecompositionError):
    """A phase sequence is not strictly increasing."""


class GridMismatch(DecompositionError):
    """Two objects refer to different sampling grids."""


class AmplitudeTooSmall(DecompositionError):
    """An amplitude sequence violates its positive lower bound."""


class SinZeroBand(DecompositionError):
    """The sine demodulator was requested for band 0, where it vanishes."""


class EmptyInput(DecompositionError):
    """An operation received no samples."""


class InvalidPartition(DecompositionError):
    """Component groups do not partition the component index set."""


class BandOutOfRange(DecompositionError):
    """A band index exceeds the estimate's bandwidth."""


class InvalidStep(DecompositionError):
    """The partition step does not evenly divide the unit interval."""


class LagTooLarge(DecompositionError):
    """An autocorrelation lag is not smaller than the sample count."""


class TraceTooShort(DecompositionError):
    """A residual trace has too few informative points to fit a rate."""


class NonPositiveVariance(DecompositionError):
    """A noise variance must be strictly positive."""


class ParseError(DecompositionError):
    """A CSV or JSON input file is malformed."""


class IoError(DecompositionError):
    """A file could not be read or written."""


def integer(value, name: str, least=None, too_small=OutOfDomain) -> int:
    """A count as an ``int``, numpy's included: a non-integer or ``bool`` is
    :class:`OutOfDomain`, one below ``least`` is ``too_small``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise OutOfDomain(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise too_small(f"{name} must be at least {least}, got {value!r}")
    return int(value)
