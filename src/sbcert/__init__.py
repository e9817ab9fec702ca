"""Exact cyclic-division-algebra construction and group certification.

For a prime p = 1 (mod 3) the package builds, entirely in exact rational
arithmetic, the degree-3 cyclic algebra over the cubic-index subfield of
Q(zeta_p) whose parameter is certified to be a non-norm, checks that the
algebra is division, and verifies that the classes of zeta and alpha in
the projective unit group generate the non-abelian semidirect product of
orders p and 3.  The run_pipeline entry point emits a deterministic JSON
certificate of every verified claim.
"""

from .algebra import CyclicAlgebra
from .cyclotomic import make_field
from .obstruction import choose_a, is_cube_mod_p
from .pipeline import PipelineOptions, certificate_to_json, run_algebra_checks, run_pipeline
from .projective import group_report

__version__ = "0.1.0"
