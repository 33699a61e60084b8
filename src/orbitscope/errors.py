"""Exception hierarchy shared across the toolkit.

Domain errors (bad mathematical input, violated hypotheses) derive from
:class:`DomainError`; the CLI maps them to exit status 2.  File and JSON
problems derive from :class:`InputError` and map to exit status 1.
"""

from __future__ import annotations


class OrbitscopeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(OrbitscopeError):
    """Unreadable or malformed input (I/O, JSON syntax, schema)."""


class SpecParseError(InputError):
    """JSON for a group spec failed to parse.  Carries the byte offset."""

    def __init__(self, message: str, byte_offset: int | None = None):
        if byte_offset is not None:
            message = f"{message} (byte offset {byte_offset})"
        super().__init__(message)
        self.byte_offset = byte_offset


class InvalidSignal(InputError):
    """A cwt signal with a non-finite sample, or one that is zero everywhere."""


class DomainError(OrbitscopeError):
    """A named mathematical precondition failed."""


class NonCommuting(DomainError):
    """Generators do not commute within tolerance."""


class NotNilpotent(DomainError):
    pass


class NotDiagonalizable(DomainError):
    pass


class IllConditioned(DomainError):
    """No grouping of the generic combination's eigenvalues passes the root
    checks: two distinct joint roots are closer than the tolerance, or differ
    by a vector orthogonal to the combination, so they share its eigenvalues."""


class MatrixOverflow(DomainError):
    """The norm of M exceeds the bound mat_exp accepts."""


class UnclassifiedFamily(DomainError):
    """No decision procedure covers the family (raised by classify.classify_dispatch)."""


class NotDiagonalizableFamily(DomainError):
    """Exact meeting systems need semisimple block action."""


class InfeasibleSystem(DomainError):
    """Meeting set is empty; vacuously compact, reported distinctly."""


class CoverageUnverified(DomainError):
    """H^T C = U could not be confirmed on the sample set."""


class SetsNotNested(DomainError):
    """Bump construction requires closure(C) inside the interior of W."""


class ZeroSigma(DomainError):
    """sigma vanished at a point that should be covered, or the box's orbits
    are not open, so sigma is not one constant and no wavelet is built."""


class QuasiSectionRefused(DomainError):
    """Wavelet synthesis refused: the probe box has an unbounded meeting set."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class SupportUnbounded(DomainError):
    """Meeting set of (W, W) is unbounded; the L1 bound does not exist."""


class BandLimitViolation(DomainError):
    """Input signal is not band-limited to the grid's Nyquist box."""


class DegenerateParameter(UserWarning):
    """A classification parameter sits within tolerance of a case boundary."""
