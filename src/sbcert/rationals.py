"""Exact rational scalars at the package boundary.

Field arithmetic and K-coordinates are integers over one denominator
(see cyclotomic.py), and linalg.py takes integer matrices only, so
rationals only appear where values enter or leave: coordinates given to or
read from a field element, a determinant and the certificate.  Every value
entering a field element passes ints_over_den, the one coercion: an int, a
string ("-1/2") or a rational, never a float.  Rat is fractions.Fraction,
always in lowest terms with a positive denominator.
"""

from fractions import Fraction as Rat
from math import lcm

# The package has one scalar backend, the standard library's; the flag is
# kept for tools that record which backend a run used.
HAVE_GMPY2 = False


def ints_over_den(values):
    """Integers and one positive denominator d with values = ints / d; a float raises TypeError."""
    qs = []
    for v in values:
        if isinstance(v, float):
            raise TypeError(f"{v!r} is a float; give an exact int, string or fraction")
        qs.append(v if isinstance(v, (int, Rat)) else Rat(v))
    # a list, not a generator: a tuple unpacked from a generator is built by
    # resizing, and CPython's free lists then hoard up to 2000 short tuples
    den = lcm(*[q.denominator for q in qs])
    return [q.numerator * (den // q.denominator) for q in qs], den
