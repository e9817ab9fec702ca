"""Certificate record and its canonical JSON serialization.

Key order is fixed (documented in docs/certificate_schema.md), rationals
are decimal strings in lowest terms, and any integer field that could
exceed 64 bits is emitted as a decimal string, so certificates for equal
(p, options, seed) are byte-identical apart from the wall-clock
timings_ms block, which consumers must ignore when diffing.
"""

import json
from dataclasses import dataclass
from typing import Optional

from .obstruction import ObstructionReport
from .projective import ISO_CONVENTION, GroupReport
from .rationals import rat_str

SCHEMA_VERSION = "1.0"

IMPORTED_LEMMA_NOTE = (
    "One mathematical step is imported rather than verified by computation: "
    "in the degree-3 cyclic extension L/K (L the p-th cyclotomic field, K its "
    "index-3 subfield), the unique prime above p is totally and tamely "
    "ramified with residue field F_p, so a unit of K can be a norm from the "
    "completion of L only if its residue modulo p is a cube in F_p. A "
    "rational integer a coprime to p whose residue is a non-cube therefore "
    "fails to be a local norm at that prime, hence is not a global norm from "
    "L, and the cyclic algebra of degree 3 built from it is a division "
    "algebra. The program verifies the congruence a^((p-1)/3) != 1 (mod p) "
    "against the exhaustively enumerated cube set; the ramification lemma "
    "itself is taken from standard local field theory."
)

_INT64_MAX = 2**63 - 1


def _int_field(n: int):
    n = int(n)
    return n if -_INT64_MAX <= n <= _INT64_MAX else str(n)


@dataclass
class Certificate:
    """The machine-checkable record of one full pipeline run."""

    schema_version: str
    p: int
    d: int
    k: int
    a: int
    seed: int
    trials: int
    overall: str
    failed_stage: Optional[str]
    obstruction: ObstructionReport
    algebra_checks: dict
    group: Optional[GroupReport]
    timings_ms: dict

    @property
    def passed(self) -> bool:
        return self.overall == "PASS"


def _obstruction_dict(rep: ObstructionReport) -> dict:
    witness = None
    if rep.witness is not None:
        witness = [rat_str(c) for c in rep.witness.coords]
    return {
        "p": _int_field(rep.p),
        "a": _int_field(rep.a),
        "cubes_mod_p": [_int_field(c) for c in rep.cubes],
        "is_cube": rep.is_cube,
        "search_bound": rep.search_bound,
        "search_performed": rep.search_performed,
        "search_candidates": _int_field(rep.search_candidates),
        "witness_found": witness,
    }


def _group_dict(rep: Optional[GroupReport]) -> Optional[dict]:
    if rep is None:
        return None
    counterexample = rep.counterexample
    if counterexample is not None:
        counterexample = [list(pair) for pair in counterexample]
    return {
        "order": rep.order,
        "order_histogram": {str(k): v for k, v in sorted(rep.order_histogram.items())},
        "relations": dict(rep.relations_ok),
        "generator_orders": dict(rep.generator_orders),
        "isomorphism": {
            "ok": rep.iso_ok,
            "pairs_checked": rep.iso_pairs_checked,
            "convention": ISO_CONVENTION,
            "counterexample": counterexample,
        },
        "abstract_axioms_ok": rep.abstract_axioms_ok,
        "order_histograms_match": rep.histograms_match,
        "jordan_index": rep.jordan_index,
        "non_abelian": rep.non_abelian,
    }


def certificate_to_dict(cert: Certificate, include_timings: bool = True) -> dict:
    out = {
        "schema_version": cert.schema_version,
        "p": _int_field(cert.p),
        "d": _int_field(cert.d),
        "k": _int_field(cert.k),
        "a": _int_field(cert.a),
        "seed": _int_field(cert.seed),
        "trials": cert.trials,
        "overall": cert.overall,
        "failed_stage": cert.failed_stage,
        "obstruction": _obstruction_dict(cert.obstruction),
        "algebra_checks": cert.algebra_checks,
        "group": _group_dict(cert.group),
        "imported_lemma_note": IMPORTED_LEMMA_NOTE,
    }
    if include_timings:
        out["timings_ms"] = {k: int(v) for k, v in cert.timings_ms.items()}
    return out


def certificate_to_json(cert: Certificate, include_timings: bool = True) -> str:
    return json.dumps(
        certificate_to_dict(cert, include_timings=include_timings), indent=2
    )
