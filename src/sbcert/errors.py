"""Exception types raised across the package."""


class SbcertError(Exception):
    """Base class for every error this package raises deliberately."""


class BadInput(SbcertError):
    """A value the user supplied is out of range; the CLI exits 2 on every one."""


class NotPrime(BadInput):
    pass


class WrongResidue(BadInput):
    pass


class PrimeTooLarge(BadInput):
    """p above the largest prime with pinned results; rejected before any work on it."""


class BadResidue(SbcertError):
    pass


class DivisionByZero(SbcertError, ZeroDivisionError):
    pass


class SingularMatrix(SbcertError):
    pass


class SingularBasis(SbcertError):
    """The fixed-field basis matrix is not unimodular; internal invariant violation."""


class ParamMismatch(SbcertError):
    pass


class NotInvertible(SbcertError):
    pass


class ZeroElement(SbcertError):
    pass


class CapExceeded(SbcertError):
    pass


class BoundTooLarge(BadInput):
    pass


class RejectedOverride(BadInput):
    pass


class BadTrialCount(BadInput):
    """Fewer than one sample requested: a PASS would rest on no evidence."""


class BadSearchBound(BadInput):
    """A negative norm-search height bound: there is no such search to run."""


class BadSeed(BadInput):
    """A seed that is not a plain int: the certificate could not reproduce the run."""
