"""The golden files' claims re-derived from p alone, without importing sbcert.

test_golden.py pins the goldens byte for byte against the program; this
module checks that what they pin is what the mathematics says, so a golden
regenerated from a wrong program does not pass here.  For Z/p x| Z/3 the
elements of order p are the p - 1 non-trivial elements of Z/p, and every
element outside Z/p has order 3: 2p of them.
"""

import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"


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
