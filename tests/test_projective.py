"""Projective classes, group generation, isomorphism, Jordan index."""

import json
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path
from types import SimpleNamespace

import pytest
from draws import random_k_star_elem
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    check_isomorphism_by_entries,
    class_eq,
    generate_subgroup_by_class_products,
    is_group_by_entries,
    iso_images,
    table_orders_by_bounded_walk,
)

import sbcert.cyclotomic as cyclotomic
import sbcert.projective as projective
from sbcert.algebra import AlgebraElem, CyclicAlgebra
from sbcert.cyclotomic import FieldElem, k_coordinate_vector, make_field
from sbcert.errors import DivisionByZero, SbcertError
from sbcert.obstruction import choose_a
from sbcert.pipeline import _encode, random_nonzero_algebra_elem
from sbcert.projective import (
    ISO_CONVENTION,
    _orders,
    canonicalize,
    cayley_table,
    check_isomorphism,
    generate_subgroup,
    group_report,
    is_abelian,
    is_group,
    jordan_index_check,
    semidirect_table,
    verify_relations,
)
from sbcert.rationals import Rat

GOLDEN = Path(__file__).parent / "golden"


def _classes(elements):
    return [g for g, _ in elements]


def _brute_force_table(elements):
    """Reference table: every product multiplied out and looked up."""
    classes = _classes(elements)
    index = {g: i for i, g in enumerate(classes)}
    return [[index[canonicalize(g * h)] for h in classes] for g in classes]


def _algebra(p):
    return CyclicAlgebra(make_field(p), choose_a(p))


def _gens(algebra):
    """zeta and alpha, which are the canonical elements of xi-hat and alpha-hat."""
    return [algebra.embed(algebra.field.zeta()), algebra.alpha()]


def _tabulated(algebra):
    """The full group's table and the table indices of xi-hat and alpha-hat."""
    full = generate_subgroup(_gens(algebra))
    classes = _classes(full)
    return cayley_table(full), *map(classes.index, _gens(algebra))


def _swapped(table, row, a, b):
    """A copy of table with entries a and b of one row exchanged."""
    out = [list(r) for r in table]
    out[row][a], out[row][b] = out[row][b], out[row][a]
    return out


def _counting(monkeypatch, name):
    """Route projective.<name> through a counter; returns the counts."""
    counts = {"calls": 0}
    real = getattr(projective, name)

    def counting(*args):
        counts["calls"] += 1
        return real(*args)

    monkeypatch.setattr(projective, name, counting)
    return counts


def _leading_block(x):
    """The first nonzero K-block of x and its denominator, comp.den."""
    field = x.algebra.field
    k = field.k
    for comp in x.components:
        if comp:
            vec = k_coordinate_vector(field, comp.coords)
            for j in range(3):
                block = vec[j * k : (j + 1) * k]
                if any(block):
                    return block, comp.den
    raise AssertionError("zero element")


def _primitive_part(block):
    """block over its gcd, signed so that its first nonzero entry is positive."""
    g = gcd(*block)
    if next(filter(None, block)) < 0:
        g = -g
    return tuple(c // g for c in block)


def _first_k_coordinate_is_one(x):
    field = x.algebra.field
    one_coords = k_coordinate_vector(field, field.one().coords)[: field.k]
    block, den = _leading_block(x)
    return block == tuple(den * c for c in one_coords)


def test_canonical_rep_normalization(alg7, rng):
    assert canonicalize(alg7.one()) == alg7.one()
    for _ in range(25):
        x = random_nonzero_algebra_elem(alg7, rng)
        assert _first_k_coordinate_is_one(canonicalize(x))


def test_canonicalize_constant_on_K_star_orbits(alg7, field7, rng):
    for _ in range(50):
        x = random_nonzero_algebra_elem(alg7, rng)
        c = random_k_star_elem(field7, rng)
        assert canonicalize(x.scale(c)) == canonicalize(x)


@pytest.mark.parametrize("p", [7, 13])
def test_canonicalize_inverse_memo_is_transparent(p, rng):
    # a shared memo changes no class: K*-multiples and an element that keeps
    # x's leading block under other components reuse or add entries, keyed
    # by the primitive part of the block, whatever its den
    algebra = _algebra(p)
    xs = []
    for _ in range(15):
        x = random_nonzero_algebra_elem(algebra, rng)
        y = random_nonzero_algebra_elem(algebra, rng)
        c = random_k_star_elem(algebra.field, rng)
        xs += [x, x.scale(c), AlgebraElem(algebra, x.components[0], *y.components[1:]), x]
    inverses = {}
    for x in xs:
        assert canonicalize(x, inverses) == canonicalize(x)
    assert set(inverses) == {_primitive_part(_leading_block(x)[0]) for x in xs}
    assert len(inverses) < len(xs)


@pytest.mark.parametrize("p", [7, 13])
def test_rational_multiples_share_one_memo_entry(p, rng):
    # the leading block of a rational multiple is a rational multiple of the
    # block, with the sign and the den it brings: one solve serves them all
    algebra = _algebra(p)
    for _ in range(5):
        x = random_nonzero_algebra_elem(algebra, rng)
        inverses = {}
        reps = {canonicalize(x.scale(q), inverses) for q in (1, -1, 2, Rat(-3, 2))}
        assert reps == {canonicalize(x)}
        assert list(inverses) == [_primitive_part(_leading_block(x)[0])]


def test_canonicalize_builds_no_fraction(monkeypatch, rng):
    # K-coordinates and the period solve stay integers over one denominator
    algebra = _algebra(13)
    xs = [random_nonzero_algebra_elem(algebra, rng) for _ in range(20)]
    canonicalize(xs[0])  # warm the field's caches outside the count
    counts = {"Fraction": 0, "element": 0}
    real_new, real_element = Fraction.__new__, cyclotomic.CycloField.element

    def counting_new(cls, *args, **kwargs):
        counts["Fraction"] += 1
        return real_new(cls, *args, **kwargs)

    def counting_element(field, coords):
        counts["element"] += 1
        return real_element(field, coords)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    monkeypatch.setattr(cyclotomic.CycloField, "element", counting_element)
    reps = [canonicalize(x) for x in xs]
    monkeypatch.undo()
    assert counts == {"Fraction": 0, "element": 0}
    assert all(_first_k_coordinate_is_one(c) for c in reps)


@pytest.mark.parametrize("p", [7, 13, 19])
def test_generators_are_canonical(p):
    # group_report hands zeta and alpha to the expansion without canonicalizing
    # them: the leading K-coordinate of each is already 1
    algebra = _algebra(p)
    for g in _gens(algebra):
        assert _first_k_coordinate_is_one(g)
        assert canonicalize(g) == g


def test_canonicalize_detects_xi_scaling(alg7, field7, rng):
    x = random_nonzero_algebra_elem(alg7, rng)
    assert canonicalize(x.scale(field7.zeta())) != canonicalize(x)


def test_canonicalize_zero_rejected(alg7):
    with pytest.raises(DivisionByZero, match="the zero element has no projective class"):
        canonicalize(alg7.zero())


def test_class_eq_basics(alg7, field7, rng):
    x = random_nonzero_algebra_elem(alg7, rng)
    assert class_eq(x, x)
    assert class_eq(x.scale(2), x)
    assert not class_eq(alg7.embed(field7.zeta()), alg7.one())
    with pytest.raises(DivisionByZero, match="projective comparison of the zero element"):
        class_eq(alg7.zero(), x)


def test_class_eq_agrees_with_canonical_equality(alg7, field7, rng):
    for _ in range(50):
        x = random_nonzero_algebra_elem(alg7, rng)
        y = random_nonzero_algebra_elem(alg7, rng)
        c = random_k_star_elem(field7, rng)
        assert class_eq(x.scale(c), x)
        assert (canonicalize(x) == canonicalize(y)) == class_eq(x, y)


def test_element_orders(alg7):
    table, xi, al = _tabulated(alg7)
    orders = _orders(table)
    assert (orders[0], orders[al], orders[xi]) == (1, 3, 7)


def test_element_orders_return_on_a_broken_table():
    # after the swap the powers of element 2 never reach the identity; the
    # walk stops at their first repeat and reports order 0, not looping for ever
    broken = _swapped(semidirect_table(7, 2), 1, 1, 2)
    orders = _orders(broken)
    assert orders[2] == 0
    assert Counter(_orders(broken)) != Counter(_orders(semidirect_table(7, 2)))
    assert jordan_index_check(broken) in range(1, 22)  # its closure walks return too


def _tables(n):
    row = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return st.lists(row, min_size=n, max_size=n)


# derandomized: the suite draws the same examples on every run
@settings(deadline=None, derandomize=True)
@given(st.integers(1, 12).flatmap(_tables))
def test_element_orders_match_the_bounded_walk_on_any_table(table):
    # square with entries in range, as _orders needs; most such tables are not
    # groups: walks that repeat before 0 give 0
    assert _orders(table) == table_orders_by_bounded_walk(table)


def test_xi_powers_nontrivial_below_p(alg7):
    e = alg7.one()
    xi = _gens(alg7)[0]
    acc = xi
    for _ in range(6):
        assert acc != e
        acc = canonicalize(acc * xi)
    assert acc == e


def test_generate_subgroup(alg7, field7):
    e = alg7.one()
    assert generate_subgroup([e]) == [(e, (0,))]
    with pytest.raises(ValueError, match="at least one generator"):
        generate_subgroup([])
    xi_cyclic = generate_subgroup([_gens(alg7)[0]])
    assert len(xi_cyclic) == 7
    gens = _gens(alg7)
    full = generate_subgroup(gens)
    assert len(full) == 21
    assert full[0][0] == e
    # the recorded successors are the products with the generators
    classes = _classes(full)
    for g, successors in full:
        assert [classes[i] for i in successors] == [canonicalize(g * s) for s in gens]
    # (1 + zeta^d) / (1 + zeta) is not a root of unity, so the class of
    # 1 + zeta has infinite order and the 10p cap stops the closure
    one_plus_zeta = canonicalize(alg7.embed(field7.one() + field7.zeta()))
    with pytest.raises(SbcertError, match="subgroup generation exceeded cap 70"):
        generate_subgroup([one_plus_zeta])


class _Power(int):
    """g^e in a cyclic group, held as e; canonicalize is patched to reduce e mod the order."""

    algebra = SimpleNamespace(field=SimpleNamespace(p=7), one=lambda: _Power(0))

    def __mul__(self, other):
        return _Power(int(self) + int(other))


@pytest.mark.parametrize("order", [70, 71])
def test_generation_cap_admits_exactly_10p_classes(order, monkeypatch):
    # at p = 7 the cap is 70 classes: a cyclic group of order 70 closes, 71 raises
    monkeypatch.setattr(projective, "canonicalize", lambda y, inverses: y % order)
    if order > 70:
        with pytest.raises(SbcertError, match="subgroup generation exceeded cap 70"):
            generate_subgroup([_Power(1)])
    else:
        assert len(generate_subgroup([_Power(1)])) == order


def test_generation_deterministic(alg7):
    first = generate_subgroup(_gens(alg7))
    second = generate_subgroup(_gens(alg7))
    assert first == second


@pytest.mark.parametrize("p", [7, 13, 19])
def test_generate_subgroup_matches_class_product_bfs(p):
    algebra = _algebra(p)
    gens = _gens(algebra)
    expected = generate_subgroup_by_class_products(gens)
    assert generate_subgroup(gens) == expected


@pytest.mark.parametrize("p, a", [(19, 2), (19, 10), (31, None)])
def test_generate_subgroup_multiplies_small_monomials(p, a, monkeypatch):
    # every left factor is the product that found a class, c * zeta^u * alpha^w
    # with an integer |c| <= |a|; canonical representatives would reach
    # denominator 11 at p = 19
    field = make_field(p)
    algebra = CyclicAlgebra(field, choose_a(p) if a is None else a)
    gens = _gens(algebra)
    factors = []
    real_mul = AlgebraElem.__mul__

    def recording(x, y):
        factors.append(x)
        return real_mul(x, y)

    monkeypatch.setattr(AlgebraElem, "__mul__", recording)
    full = generate_subgroup(gens)
    monkeypatch.undo()
    assert len(full) == 3 * p
    assert len(factors) == 2 * 3 * p
    for x in factors:
        nonzero = [c for c in x.components if c]
        assert len(nonzero) == 1
        assert nonzero[0].den == 1
        assert max(map(abs, nonzero[0].num)) <= abs(algebra.a)


def test_verify_relations(alg7):
    table, xi, al = _tabulated(alg7)
    results = verify_relations(table, xi, al, 7, 2)
    assert results == {
        "xi_power_p_trivial": True,
        "alpha_cubed_trivial": True,
        "commutation_twist": True,
    }
    assert _gens(alg7)[1] != alg7.one()
    # the same relations multiplied out directly in the algebra
    xi_c, al_c = _gens(alg7)
    assert canonicalize(al_c * al_c * al_c) == alg7.one()
    assert canonicalize(xi_c * al_c) == canonicalize(al_c * xi_c * xi_c)


def test_verify_relations_swapped_generators(alg7):
    # alpha-hat in the xi slot: its 7th power is alpha-hat itself, not 1
    table, xi, al = _tabulated(alg7)
    results = verify_relations(table, al, xi, 7, 2)
    assert not results["xi_power_p_trivial"]
    assert not all(results.values())
    # the wrong twist d = 4 breaks only the commutation relation
    wrong = verify_relations(table, xi, al, 7, 4)
    assert wrong["xi_power_p_trivial"] and wrong["alpha_cubed_trivial"]
    assert not wrong["commutation_twist"]


def test_abstract_group_p7():
    abstract = semidirect_table(7, 2)
    assert len(abstract) == 21
    # (u, v) sits at index 3u + v
    assert abstract[0][3 * 3 + 1] == 3 * 3 + 1  # (0,0)*(3,1) = (3,1)
    assert abstract[3 * 1 + 1][3 * 1 + 0] == 3 * 3 + 1  # (1,1)*(1,0) = (1+2, 1)
    assert Counter(_orders(abstract)) == {1: 1, 3: 14, 7: 6}
    assert is_group(abstract, (3, 1))
    with pytest.raises(ValueError):
        semidirect_table(7, 3)  # 3 does not have order 3 mod 7


def test_is_group_rejects_every_swap_within_a_row():
    abstract = semidirect_table(7, 2)
    n = len(abstract)
    for row in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                assert not is_group(_swapped(abstract, row, a, b), (3, 1)), (row, a, b)


def test_is_group_rejects_non_generating_gens():
    # (1, 0) alone generates only the normal Z/7
    assert not is_group(semidirect_table(7, 2), (3,))


def test_is_group_rejects_a_monoid_without_inverses():
    # {1, x} with x * x = x: identity, associative, generated by x; row x has no 0
    assert not is_group([[0, 1], [1, 1]], (1,))


def test_is_group_rejects_identity_off_index_0():
    # exchange the labels 0 and 5 (r is its own inverse): still a group, identity at 5
    abstract = semidirect_table(7, 2)
    n = len(abstract)
    r = [5, 1, 2, 3, 4, 0] + list(range(6, n))
    moved = [[r[abstract[r[a]][r[b]]] for b in range(n)] for a in range(n)]
    assert moved[5][7] == 7 and moved[7][5] == 7
    assert not is_group(moved, (r[3], r[1]))


@pytest.mark.parametrize("junk", [21, -1])
def test_table_checks_return_a_verdict_on_an_entry_out_of_range(junk):
    # 21 used to raise IndexError, and -1 wrapped round to the last row
    abstract = semidirect_table(7, 2)
    for i, j in ((4, 5), (1, 1)):
        broken = [row[:] for row in abstract]
        broken[i][j] = junk
        assert not is_group(broken, (3, 1))
        assert check_isomorphism(broken, 3, 1, abstract) == {
            "ok": False, "pairs_checked": 0, "convention": ISO_CONVENTION, "counterexample": None,
        }
        # unguarded, these readers raise IndexError on 21 at (1, 1), and on -1
        # the Jordan index wraps round to 3, the passing value
        assert not any(verify_relations(broken, 3, 1, 7, 2).values())
        assert jordan_index_check(broken) == 0
        assert is_abelian(broken)  # the failing verdict for non_abelian
    # so does a generator index out of range
    assert not is_group(abstract, (3, junk))
    assert not check_isomorphism(abstract, 3, junk, abstract)["ok"]
    assert not check_isomorphism(abstract, junk, 1, abstract)["ok"]
    assert not any(verify_relations(abstract, 3, junk, 7, 2).values())
    assert not any(verify_relations(abstract, junk, 1, 7, 2).values())


@pytest.mark.parametrize("table", [[], [[]], [[0], []], [[0, 1], [1]]])
def test_table_checks_return_a_verdict_on_an_empty_or_short_row(table):
    assert not is_group(table, (0,))
    assert not check_isomorphism(table, 0, 0, [[0] * len(table)] * len(table))["ok"]
    assert not any(verify_relations(table, 0, 0, 7, 2).values())
    assert jordan_index_check(table) == 0
    assert is_abelian(table)  # unguarded, [[0], []] raises IndexError


def _moved(draw, table):
    """A copy of table with up to two entries overwritten by any index."""
    index = st.integers(0, len(table) - 1)
    table = [row[:] for row in table]
    for _ in range(draw(st.integers(0, 2))):
        table[draw(index)][draw(index)] = draw(index)
    return table


@st.composite
def _table_checks(draw):
    """(table, gens, xi, al, abstract) over range(n), n <= 12, groups and near misses."""
    n = draw(st.one_of(st.sampled_from([3, 6, 9, 12]), st.integers(1, 12)))
    index = st.integers(0, n - 1)
    if draw(st.booleans()):
        # Z/n, its labels permuted with 0 kept; at the labels of 3 and 2,
        # phi(u, v) = 3u + 4v is a bijection whenever 3 divides n
        labels = [0] + draw(st.permutations(range(1, n)))
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[labels[a]][labels[b]] = labels[(a + b) % n]
        xi, al = labels[3 % n], labels[2 % n]
    else:
        table = draw(st.lists(st.lists(index, min_size=n, max_size=n), min_size=n, max_size=n))
        xi, al = draw(index), draw(index)
    if draw(st.booleans()):
        xi, al = draw(index), draw(index)
    table = _moved(draw, table)
    phi = iso_images(table, xi, al, n)
    if sorted(phi) == list(range(n)) and draw(st.booleans()):
        # the reference that phi maps onto table exactly: ok until an entry moves
        back = {v: i for i, v in enumerate(phi)}
        abstract = [[back[table[phi[g]][phi[h]]] for h in range(n)] for g in range(n)]
    else:
        abstract = draw(st.lists(st.lists(index, min_size=n, max_size=n),
                                 min_size=n, max_size=n))
    gens = draw(st.lists(index, max_size=3))
    return table, gens, xi, al, _moved(draw, abstract)


# derandomized: the suite draws the same examples on every run
@settings(deadline=None, derandomize=True, max_examples=300)
@given(_table_checks())
def test_table_checks_match_the_entry_by_entry_oracles(case):
    # most of these tables are not groups, and most phi are not bijective;
    # the row comparisons must find what the entry scans find, where they find it
    table, gens, xi, al, abstract = case
    assert is_group(table, gens) == is_group_by_entries(table, gens)
    assert check_isomorphism(table, xi, al, abstract) == check_isomorphism_by_entries(
        table, xi, al, abstract)


@pytest.mark.parametrize("p", [7, 13])
def test_concrete_table_is_a_group(p):
    table, xi, al = _tabulated(_algebra(p))
    assert is_group(table, (xi, al))


def test_isomorphism_p7(alg7):
    table, xi, al = _tabulated(alg7)
    abstract = semidirect_table(7, 2)
    result = check_isomorphism(table, xi, al, abstract)
    assert result["ok"]
    assert result["pairs_checked"] == 441
    assert result["counterexample"] is None
    assert Counter(_orders(table)) == Counter(_orders(abstract))


def test_isomorphism_rejects_wrong_twist(alg7):
    table, xi, al = _tabulated(alg7)
    # d = 4 = 2^2 also has order 3 mod 7 but is the inverse action: the
    # fixed pairing cannot be a homomorphism onto that table
    result = check_isomorphism(table, xi, al, semidirect_table(7, 4))
    assert not result["ok"]
    assert 0 < result["pairs_checked"] < 441
    assert result["counterexample"] is not None


def test_isomorphism_counterexample_is_the_first_broken_pair():
    # on the reference table, xi = (1, 0) at index 3 and alpha-hat = (0, 2) at
    # index 2 make phi the identity; one moved entry is found in scan order
    table = semidirect_table(7, 2)
    assert check_isomorphism(table, 3, 2, table)["ok"]
    broken = [row[:] for row in table]
    broken[4][5] = table[4][6]
    assert check_isomorphism(broken, 3, 2, table) == {
        "ok": False,
        "pairs_checked": 4 * 21 + 6,
        "convention": ISO_CONVENTION,
        "counterexample": ((1, 1), (1, 2)),
    }


def test_isomorphism_rejects_non_bijective_phi(alg7):
    table, xi, al = _tabulated(alg7)
    # xi == al: phi(u, v) = al^(u + 2v) takes only three values
    result = check_isomorphism(table, al, al, semidirect_table(7, 2))
    assert not result["ok"]
    assert result["pairs_checked"] == 0
    assert result["counterexample"] is None
    # a table of the wrong order is rejected before phi is built
    cyclic = cayley_table(generate_subgroup([_gens(alg7)[0]]))
    short = check_isomorphism(cyclic, 1, 0, semidirect_table(7, 2))
    assert not short["ok"] and short["pairs_checked"] == 0


def test_jordan_index(alg7):
    full = generate_subgroup(_gens(alg7))
    assert jordan_index_check(cayley_table(full)) == 3
    # degenerate guard: an abelian input reports index 1
    cyclic = generate_subgroup([_gens(alg7)[0]])
    assert jordan_index_check(cayley_table(cyclic)) == 1


def test_jordan_index_of_a_table_that_is_not_a_group():
    # row 1 lacks the identity 0
    assert jordan_index_check([[0, 1, 2], [1, 1, 1], [2, 1, 0]]) == 0
    # every row holds 0, but no subgroup is normal and abelian
    assert jordan_index_check([[0, 0, 0], [0, 0, 2], [1, 1, 0]]) == 0
    # the empty table has no identity; its whole-group entry is the empty set
    assert jordan_index_check([]) == 0


def test_group_table_structure(alg7):
    full = generate_subgroup(_gens(alg7))
    table = cayley_table(full)
    n = len(table)
    assert not is_abelian(table)
    # latin square: every row and column is a permutation
    for i in range(n):
        assert sorted(table[i]) == list(range(n))
        assert sorted(table[j][i] for j in range(n)) == list(range(n))
    # <xi-hat> is normal abelian of index 3
    e = 0
    gen = _classes(full).index(_gens(alg7)[0])
    xi_sub = {e}
    cur = gen
    while cur != e:
        xi_sub.add(cur)
        cur = table[cur][gen]
    assert len(xi_sub) == 7
    inv = [row.index(e) for row in table]
    assert all(table[table[h][s]][inv[h]] in xi_sub for h in range(n) for s in xi_sub)
    assert all(table[s][t] == table[t][s] for s in xi_sub for t in xi_sub)
    assert n // len(xi_sub) == 3


def test_group_report_p7(alg7):
    report = group_report(alg7)
    assert report.failed_substage is None
    assert report.order == 21
    assert report.order_histogram == {1: 1, 3: 14, 7: 6}
    assert report.generator_orders == {"xi_hat": 7, "alpha_hat": 3}
    assert report.isomorphism["pairs_checked"] == 441
    assert report.jordan_index == 3
    assert report.non_abelian


def test_is_abelian_on_cyclic_and_non_abelian_tables():
    for n in (1, 2, 7, 21):
        assert is_abelian([[(i + j) % n for j in range(n)] for i in range(n)])
    assert not is_abelian(semidirect_table(7, 2))


def test_group_report_reads_the_generators_at_the_classes_of_zeta_and_alpha(alg7, monkeypatch):
    # the classes of zeta^2 and zeta * alpha would pass every check as well
    seen = []

    def recording(real):
        def record(table, xi, al, *rest):
            seen.append((xi, al))
            return real(table, xi, al, *rest)

        return record

    for name in ("verify_relations", "check_isomorphism"):
        monkeypatch.setattr(projective, name, recording(getattr(projective, name)))
    report = group_report(alg7)
    classes = _classes(generate_subgroup(_gens(alg7)))
    expected = tuple(classes.index(canonicalize(g)) for g in _gens(alg7))
    assert seen == [expected, expected]
    assert report.generator_orders == {"xi_hat": 7, "alpha_hat": 3}


def test_non_abelian_witness(alg7):
    xi, al = _gens(alg7)
    assert canonicalize(xi * al) != canonicalize(al * xi)


@pytest.mark.parametrize("p", [7, 13])
def test_cayley_table_matches_brute_force(p):
    algebra = _algebra(p)
    xi, al = _gens(algebra)
    for gens in ([xi, al], [al, xi], [xi]):
        elements = generate_subgroup(gens)
        assert cayley_table(elements) == _brute_force_table(elements)


def test_cayley_table_work_bound(monkeypatch):
    algebra = _algebra(19)
    full = generate_subgroup(_gens(algebra))
    assert len(full) == 57
    counts = _counting(monkeypatch, "canonicalize")
    cayley_table(full)
    assert counts["calls"] == 0


def test_group_report_work_bound(monkeypatch):
    # the 2 * 57 closure products; the generators are already canonical, and
    # the table, the relations, the orders and the isomorphism make none
    counts = _counting(monkeypatch, "canonicalize")
    assert group_report(_algebra(19)).failed_substage is None
    assert counts["calls"] == 2 * 57


@pytest.mark.parametrize("p", [7, 13, 19, 31])
def test_group_report_solves_each_leading_block_once(p, monkeypatch):
    # 6p class products, but only p - 5 leading K-blocks distinct up to a
    # rational factor for 13 <= p <= 103 (2p - 6 distinct blocks as they are)
    counts = _counting(monkeypatch, "k_inverse_from_period_coords")
    assert group_report(_algebra(p)).failed_substage is None
    assert counts["calls"] == {7: 3, 13: 8, 19: 14, 31: 26}[p]


def test_group_report_conjugates_each_generator_once(monkeypatch):
    # rows 1 and 2 of the splitting matrix are built once per element: zeta
    # and alpha, the right factor of every closure product, take 2 * 3 each
    counts = {"calls": 0}
    real = FieldElem.sigma

    def counting(self, *args):
        counts["calls"] += 1
        return real(self, *args)

    monkeypatch.setattr(FieldElem, "sigma", counting)
    assert group_report(_algebra(19)).failed_substage is None
    assert counts["calls"] == 12


@pytest.mark.parametrize("p", [19, 31, 43, 61, 103])
def test_group_report_matches_golden(p):
    expected = json.loads((GOLDEN / f"group_p{p}.json").read_text())
    report = group_report(_algebra(p))
    assert _encode(report) == expected
