"""Exact cyclic-division-algebra construction and group certification.

For a prime p = 1 (mod 3) the package builds, entirely in exact rational
arithmetic, the degree-3 cyclic algebra over the cubic-index subfield of
Q(zeta_p) whose parameter is certified to be a non-norm, checks that the
algebra is division, and verifies that the classes of zeta and alpha in
the projective unit group generate the non-abelian semidirect product of
orders p and 3.  The run_pipeline entry point emits a deterministic JSON
certificate of every verified claim.
"""

from .algebra import AlgebraElem, CyclicAlgebra
from .certificate import (
    IMPORTED_LEMMA_NOTE,
    SCHEMA_VERSION,
    Certificate,
    certificate_to_dict,
    certificate_to_json,
)
from .cyclotomic import CycloField, FieldElem, is_prime, make_field
from .errors import (
    BadInput,
    BadResidue,
    BadSearchBound,
    BadTrialCount,
    BoundTooLarge,
    CapExceeded,
    DivisionByZero,
    NotInvertible,
    NotPrime,
    ParamMismatch,
    RejectedOverride,
    SbcertError,
    SingularBasis,
    WrongResidue,
    ZeroElement,
)
from .obstruction import (
    ObstructionReport,
    brute_force_norm_search,
    choose_a,
    cubes_mod_p,
    is_cube_mod_p,
    obstruction_report,
)
from .pipeline import PipelineOptions, run_algebra_checks, run_pipeline
from .projective import (
    GroupReport,
    ProjClass,
    alpha_hat,
    canonicalize,
    cayley_table,
    check_isomorphism,
    generate_subgroup,
    group_report,
    identity_class,
    is_group,
    jordan_index_check,
    semidirect_table,
    verify_relations,
    xi_hat,
)
from .rationals import Rat

__version__ = "0.1.0"
