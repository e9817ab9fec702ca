"""The golden files' claims re-derived from p alone.

test_golden.py pins the goldens byte for byte against the program; this
module checks that what they pin is what the mathematics says, so a golden
regenerated from a wrong program does not pass here.  For Z/p x| Z/3 the
elements of order p are the p - 1 non-trivial elements of Z/p, and every
element outside Z/p has order 3: 2p of them.  At the primes up to the cap
that have no golden, the program's encoded group report is held to the
same claims, and an independent split model over a finite field reads the
same order and histogram at every p = 1 (mod 3) up to the cap.
"""

import json
from pathlib import Path

import pytest
from oracles import split_model_group

from sbcert.algebra import CyclicAlgebra
from sbcert.cyclotomic import make_field
from sbcert.obstruction import choose_a
from sbcert.pipeline import _encode
from sbcert.projective import group_report

GOLDEN = Path(__file__).parent / "golden"
PRIMES = [7, 13, 19, 31, 37, 43, 61, 67, 73, 79, 97, 103]  # every p = 1 (mod 3) up to the cap


def _load(name):
    return json.loads((GOLDEN / name).read_text())


def _assert_group_claims(p, block):
    assert block["order"] == 3 * p
    assert block["order_histogram"] == {"1": 1, "3": 2 * p, str(p): p - 1}
    assert block["generator_orders"] == {"xi_hat": p, "alpha_hat": 3}
    assert block["isomorphism"]["pairs_checked"] == (3 * p) ** 2
    assert block["isomorphism"]["counterexample"] is None
    assert block["jordan_index"] == 3
    flags = [
        *block["relations"].values(),
        block["isomorphism"]["ok"],
        block["abstract_axioms_ok"],
        block["order_histograms_match"],
        block["non_abelian"],
    ]
    assert flags and all(flag is True for flag in flags)


@pytest.mark.parametrize("p", [19, 31, 43, 61, 103])
def test_group_golden_claims(p):
    _assert_group_claims(p, _load(f"group_p{p}.json"))


# with the goldens' 7, 13, 19, 31, 43, 61 and 103, every p = 1 (mod 3) up to the cap
@pytest.mark.parametrize("p", [37, 67, 73, 79, 97])
def test_group_claims_at_the_primes_without_a_golden(p):
    report = group_report(CyclicAlgebra(make_field(p), choose_a(p)))
    _assert_group_claims(p, _encode(report))


@pytest.mark.parametrize("p", [7, 13, 31])
def test_certificate_golden_parameters(p):
    cert = _load(f"cert_p{p}.json")
    cubes = sorted({t**3 % p for t in range(1, p)})
    assert cert["p"] == p
    assert cert["d"] == min(t for t in range(2, p) if t**3 % p == 1)
    assert cert["k"] == (p - 1) // 3
    assert cert["a"] == next(a for a in range(2, p) if a not in cubes)
    assert cert["obstruction"]["a"] == cert["a"]
    assert cert["obstruction"]["cubes_mod_p"] == cubes
    assert cert["obstruction"]["is_cube"] is False
    _assert_group_claims(p, cert["group"])


def _non_cube(p):
    return next(a for a in range(2, p) if pow(a, (p - 1) // 3, p) != 1)


@pytest.mark.parametrize("p", PRIMES)
def test_split_model_reads_the_claimed_group(p):
    order, histogram = split_model_group(p, _non_cube(p))
    assert order == 3 * p
    assert histogram == {1: 1, 3: 2 * p, p: p - 1}
    for name in (f"group_p{p}.json", f"cert_p{p}.json"):
        if (GOLDEN / name).exists():
            block = _load(name)
            block = block.get("group", block)
            assert block["order"] == order
            assert block["order_histogram"] == {str(m): c for m, c in histogram.items()}


def test_split_model_with_a_scalar_zeta_reads_only_alpha():
    # the negative control: zeta -> diag(w, w, w) is trivial in PGL_3, so the
    # model must not read 3p, and reads <alpha> of order 3
    for p in PRIMES:
        assert split_model_group(p, _non_cube(p), d=1) == (3, {1: 1, 3: 2})
