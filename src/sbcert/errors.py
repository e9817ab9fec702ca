"""Exception types raised across the package."""


class SbcertError(Exception):
    """Base class for every error this package raises deliberately."""


class NotPrime(SbcertError):
    pass


class WrongResidue(SbcertError):
    pass


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


class BoundTooLarge(SbcertError):
    pass


class RejectedOverride(SbcertError):
    pass


class BadTrialCount(SbcertError):
    """Fewer than one sample requested: a PASS would rest on no evidence."""


class BadSearchBound(SbcertError):
    """A negative norm-search height bound: there is no such search to run."""
