"""Certificate record and its canonical JSON serialization.

Key order is fixed (documented in docs/certificate_schema.md) by the
field order of the report dataclasses, rationals are decimal strings in
lowest terms, and every integer wider than 64 bits is emitted as a
decimal string, so certificates for equal (p, options, seed) are
byte-identical apart from the wall-clock timings_ms block, which
consumers must ignore when diffing.
"""

import json
from dataclasses import dataclass, fields, is_dataclass
from typing import Optional

from .cyclotomic import FieldElem
from .obstruction import ObstructionReport
from .projective import GroupReport

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
    """The machine-checkable record of one full pipeline run.

    The fields, and those of the reports they hold, are the certificate's
    keys in order; certificate_to_dict adds the two constants,
    schema_version first and imported_lemma_note before timings_ms.
    """

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


def _encode(value):
    """The JSON value of a report field, by one rule per type, at every depth."""
    if is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, FieldElem):
        return [str(c) for c in value.coords]  # a Fraction prints as "n" or "n/d"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return value  # a str, a bool or None
    return _int_field(value)  # an int, or a float of wall-clock ms, truncated


def certificate_to_dict(cert: Certificate) -> dict:
    out = {"schema_version": SCHEMA_VERSION, **_encode(cert)}
    out["imported_lemma_note"] = IMPORTED_LEMMA_NOTE
    out["timings_ms"] = out.pop("timings_ms")  # the one wall-clock block goes last
    return out


def certificate_to_json(cert: Certificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2)
