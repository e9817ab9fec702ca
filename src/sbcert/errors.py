"""Exception types raised across the package: one class per way a caller handles it.

BadInput is a value the user supplied out of range; the CLI exits 2 on it.
Any other SbcertError is a check that failed inside a stage; the CLI exits 3.
NotInvertible is the one a trial catches: a zero-divisor draw fails the trial.
TypeError and ValueError mark misuse of the library, such as mixed fields.
"""


class SbcertError(Exception):
    """Base class for every error this package raises deliberately."""


class BadInput(SbcertError):
    """A value the user supplied is out of range; the CLI exits 2 on every one."""


class DivisionByZero(SbcertError, ZeroDivisionError):
    """The inverse of zero: a field, fixed-field, algebra or projective zero."""


class NotInvertible(SbcertError):
    """A non-zero element with no inverse; a trial counts it as a failure."""
