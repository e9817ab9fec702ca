"""Exact rational scalars at the package boundary.

Field arithmetic and K-coordinates are integers over one denominator
(see cyclotomic.py), and linalg.py takes integer matrices only, so
rationals only appear where values enter or leave: coordinates given to or
read from a field element, a determinant and the certificate.  Every value
entering a field element passes CycloField.element, the one coercion: an
int, a string ("-1/2") or a rational, never a float.  Rat is
fractions.Fraction, always in lowest terms with a positive denominator.
"""

from fractions import Fraction as Rat

# The package has one scalar backend, the standard library's; the flag is
# kept for tools that record which backend a run used.
HAVE_GMPY2 = False
