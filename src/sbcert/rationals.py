"""Exact rational scalars at the package boundary.

Field arithmetic and K-coordinates are integers over one denominator
(see cyclotomic.py), and linalg.py takes integer matrices only, so
rationals only appear where values enter or leave: coordinates given to or
read from a field element, a determinant and the certificate.  Rat is
fractions.Fraction, always in lowest terms with a positive denominator.
No floating point enters anywhere.
"""

from fractions import Fraction as Rat
from math import lcm

# The package has one scalar backend, the standard library's; the flag is
# kept for tools that record which backend a run used.
HAVE_GMPY2 = False


def as_rat(value) -> Rat:
    """Coerce an int, string ("3", "-1/2") or rational type to Rat; a float raises TypeError."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, float):
        raise TypeError(f"{value!r} is a float; give an exact int, string or fraction")
    return Rat(value)


def ints_over_den(values):
    """Python integers and one positive denominator d with values = ints / d."""
    qs = [v if isinstance(v, int) else as_rat(v) for v in values]
    # a list, not a generator: a tuple unpacked from a generator is built by
    # resizing, and CPython's free lists then hoard up to 2000 short tuples
    den = lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den
