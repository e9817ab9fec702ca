"""The unit-class group A*/K* at desk scale.

A class {c*x : c in K*} is its canonical element, an AlgebraElem: scale x
so that the first nonzero of its nine K-coordinates (component index i,
then power j in the K-basis {1, zeta, zeta^2}) equals 1.  Scaling by K*
multiplies every K-coordinate by the same element of K, so the canonical
element is a complete class invariant, and element equality and hashing
are class equality and hashing.

The subgroup generated by the classes of zeta and alpha is expanded
breadth-first, tabulated, and compared with the reference table of
Z/p x| Z/3 whose twist is the order-3 residue d.  Both tables keep the
identity at index 0.  Conjugation by alpha acts on <zeta-hat> as d^-1, so
the pairing that matches the reference table as written is
phi(u, v) = xi-hat^u * (alpha-hat^2)^v.  The expansion is the only place
classes are multiplied: it multiplies the product that found each class (a
monomial c * zeta^u * alpha^w), keys classes by canonical element and records
each element's products with the generators.  The table is built from
those edges by index, and the relations, the element orders and phi are
read off it, so a group stage makes 6p + 2 class products (the two
generators and the 2 * 3p expansion products).  Every product is
canonicalized, but the expansion keeps one dict of leading K-blocks and
their inverses for the length of the call, so only the 2p - 4 distinct
leading blocks are solved (34 of the 116 products at p = 19).
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraElem, CyclicAlgebra
from .cyclotomic import k_coordinate_vector, k_inverse_from_period_coords
from .errors import CapExceeded, ZeroElement

ISO_CONVENTION = "phi(u, v) = xi_hat^u * (alpha_hat^2)^v"


def canonicalize(x: AlgebraElem, inverses: Optional[dict] = None) -> AlgebraElem:
    """The canonical representative of the class of a nonzero algebra element.

    inverses maps a leading K-block (block, den) to its inverse: a block
    found there is not solved again, and a solved one is added.
    """
    if inverses is None:
        inverses = {}
    if not x:
        raise ZeroElement("the zero element has no projective class")
    field = x.algebra.field
    k = field.k
    for comp in x.components:
        if comp:
            vec = k_coordinate_vector(field, comp)
            for j in range(3):
                block = vec[j * k : (j + 1) * k]
                if any(block):
                    key = (block, comp.den)
                    scale = inverses.get(key)
                    if scale is None:
                        scale = k_inverse_from_period_coords(field, block, comp.den)
                        inverses[key] = scale
                    return x.scale(scale)
    raise AssertionError("unreachable: nonzero element with zero K-coordinates")


def generate_subgroup(gens) -> list:
    """Closure under multiplication, breadth-first from the identity.

    Returns one (class, successors) pair per element, in BFS layer then
    discovery order: the class is its canonical element and successors[k]
    is the index of the class of class * gens[k].
    These are the only class products; cayley_table reads the rest of the
    table off these edges.  They multiply the product that found each class,
    not its canonical representative, whose inverse-K-coordinate scale grows.
    For a finite group, closure under multiplication alone suffices; more
    than 10p classes (the group has 3p) raises.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator (or an explicit identity) required")
    algebra = gens[0].algebra
    cap = 10 * algebra.field.p
    inverses = {}  # leading K-block -> its inverse, for this call only
    found_by = [algebra.one()]  # the product that found each class
    index = {found_by[0]: 0}  # canonical element -> index, in discovery order
    edges = []
    for x in found_by:  # grows while it is walked: a BFS queue
        successors = []
        for s in gens:
            y = x * s
            h = canonicalize(y, inverses)
            i = index.get(h)
            if i is None:
                i = index[h] = len(index)
                found_by.append(y)
                if len(index) > cap:
                    raise CapExceeded(
                        f"subgroup generation exceeded cap {cap}; expected order 3p"
                    )
            successors.append(i)
        edges.append(tuple(successors))
    return list(zip(index, edges))


def cayley_table(elements) -> list:
    """Index-based multiplication table, from generate_subgroup's edges alone.

    Column j holds the indices of elements[i] * elements[j].  The BFS
    starts at the identity, so row and column 0 are the identity
    permutation.  A later element is h * s for its BFS parent h, which comes
    earlier, and a generator s, so its column is the column of s (the
    successor indices) composed with the column of h (exact: the algebra is
    associative and K* is central).  Integer lookups only, no class products.
    """
    n = len(elements)
    gen_columns = list(zip(*(successors for _, successors in elements)))
    columns = [list(range(n))] + [None] * (n - 1)
    for h, (_, successors) in enumerate(elements):
        for gen_column, j in zip(gen_columns, successors):
            if columns[j] is None:
                columns[j] = [gen_column[x] for x in columns[h]]
    return [list(row) for row in zip(*columns)]


def table_orders(table) -> list:
    """The order of every element, by walking its powers back to the identity 0.

    A walk stops after n steps: an element whose powers have not reached 0
    by then (only possible when the table is not a group) gets order 0.
    """
    n = len(table)
    orders = []
    for i in range(n):
        x, m = i, 1
        while x and m < n:
            x = table[x][i]
            m += 1
        orders.append(0 if x else m)
    return orders


def _histogram(orders) -> dict:
    return dict(sorted(Counter(orders).items()))


def order_histogram(table) -> dict:
    return _histogram(table_orders(table))


def _walk(table, x: int, g: int, steps: int) -> int:
    """Index of elements[x] * elements[g]^steps, read down column g."""
    for _ in range(steps):
        x = table[x][g]
    return x


def is_abelian(table) -> bool:
    n = len(table)
    return all(table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n))


def xi_hat(algebra: CyclicAlgebra) -> AlgebraElem:
    return canonicalize(algebra.embed(algebra.field.zeta()))


def alpha_hat(algebra: CyclicAlgebra) -> AlgebraElem:
    return canonicalize(algebra.alpha())


def verify_relations(table, xi: int, al: int, p: int, d: int) -> dict:
    """The three defining relations of the target group, read off the table.

    xi and al index the generator classes; the walks follow their columns,
    which cayley_table copies from the breadth-first edges.
    The returned booleans let a caller assemble a complete failure
    certificate.
    """
    return {
        "xi_power_p_trivial": _walk(table, 0, xi, p) == 0,
        "alpha_cubed_trivial": _walk(table, 0, al, 3) == 0,
        "commutation_twist": table[xi][al] == _walk(table, al, xi, d),
    }


def semidirect_table(p: int, d: int) -> list:
    """The reference group Z/p x| Z/3 with twist d, as a multiplication table.

    (u, v) sits at index 3u + v, so the identity (0, 0) is index 0, and
    (u1, v1) * (u2, v2) = (u1 + d^v1 * u2 mod p, v1 + v2 mod 3).
    """
    if d % p in (0, 1) or pow(d, 3, p) != 1:
        raise ValueError(f"d = {d} does not have order 3 modulo {p}")
    pairs = [(u, v) for u in range(p) for v in range(3)]
    twist = [pow(d, v, p) for v in range(3)]
    return [
        [3 * ((u1 + twist[v1] * u2) % p) + (v1 + v2) % 3 for u2, v2 in pairs]
        for u1, v1 in pairs
    ]


def is_group(table, gens) -> bool:
    """Whether table is a group with identity 0 that the indices gens generate.

    0 must be a two-sided identity and every row must hold 0 (right
    inverses).  One breadth-first walk from 0, right-multiplying by gens,
    must reach all n elements, and Light's test must hold: (x s) y == x (s y)
    for every s in gens and all x, y.  The elements that satisfy that law
    are closed under products, so once gens generate, it is associativity
    of the whole table (Clifford-Preston I, 1.2): n^2 comparisons per
    generator instead of n^3.
    """
    n = len(table)
    if any(table[0][j] != j or table[j][0] != j or 0 not in table[j] for j in range(n)):
        return False
    reached = [0]
    seen = {0}
    for x in reached:  # grows while it is walked: a BFS queue
        for s in gens:
            y = table[x][s]
            if y not in seen:
                seen.add(y)
                reached.append(y)
    if len(reached) != n:
        return False
    return all(
        table[table[x][s]][y] == table[x][table[s][y]]
        for s in gens
        for x in range(n)
        for y in range(n)
    )


def _iso_result(ok: bool, pairs_checked: int = 0, counterexample=None) -> dict:
    return {
        "ok": ok,
        "pairs_checked": pairs_checked,
        "convention": ISO_CONVENTION,
        "counterexample": counterexample,
    }


def check_isomorphism(table, xi: int, al: int, abstract) -> dict:
    """Exhaustive bijective-homomorphism check of phi against both tables.

    abstract is semidirect_table(p, d).  phi(u, v) = xi^u * (al^2)^v, the
    image of abstract index 3u + v, is built by walking the generator
    columns of the concrete table (xi and al are indices into it).  A
    counterexample is the abstract pair ((u, v), (u', v')) where phi broke.
    The answer is the certificate's isomorphism block, convention included.
    """
    n = len(abstract)
    if len(table) != n:
        return _iso_result(False)
    phi = []
    x = 0
    for _ in range(n // 3):
        phi.extend(_walk(table, x, al, 2 * v) for v in range(3))
        x = table[x][xi]
    if sorted(phi) != list(range(n)):
        return _iso_result(False)
    pairs = 0
    for gi in range(n):
        prow = table[phi[gi]]
        arow = abstract[gi]
        for hi in range(n):
            pairs += 1
            if prow[phi[hi]] != phi[arow[hi]]:
                return _iso_result(False, pairs, (divmod(gi, 3), divmod(hi, 3)))
    return _iso_result(True, pairs)


def jordan_index_check(table) -> int:
    """Minimal index of a normal abelian subgroup, by full enumeration.

    For groups of order 3p (and the degenerate prime-order guard inputs)
    every proper nontrivial subgroup has prime order, hence is cyclic, so
    the trivial group, the cyclic closures of single elements, and the
    whole group exhaust all subgroups.  A table that is not a group (a row
    without the identity 0, or no normal abelian subgroup found) gets 0,
    as in table_orders.
    """
    n = len(table)
    if any(0 not in row for row in table):
        return 0
    inv = [row.index(0) for row in table]

    subgroups = {frozenset([0]), frozenset(range(n))}
    for i in range(n):
        closure = {0}
        x = i
        while x not in closure:  # at most n steps, even on a broken table
            closure.add(x)
            x = table[x][i]
        subgroups.add(frozenset(closure))

    def normal_abelian(sub) -> bool:
        return all(table[s][t] == table[t][s] for s in sub for t in sub if s < t) and all(
            table[table[h][s]][inv[h]] in sub for h in range(n) for s in sub
        )

    return min((n // len(sub) for sub in subgroups if normal_abelian(sub)), default=0)


@dataclass
class GroupReport:
    """Everything the certificate records about the realized group, in key order."""

    order: int
    order_histogram: dict
    relations: dict
    generator_orders: dict
    isomorphism: dict
    abstract_axioms_ok: bool
    order_histograms_match: bool
    jordan_index: int
    non_abelian: bool

    @property
    def failed_substage(self) -> Optional[str]:
        """The first failing check as "group:<name>", or None."""
        checks = (
            ("relations", all(self.relations.values())),
            ("abstract_axioms", self.abstract_axioms_ok),
            ("isomorphism", self.isomorphism["ok"]),
            ("order_histogram", self.order_histograms_match),
            ("jordan_index", self.jordan_index == 3),
            ("non_abelian", self.non_abelian),
        )
        return next((f"group:{name}" for name, ok in checks if not ok), None)


def group_report(algebra: CyclicAlgebra) -> GroupReport:
    """Generate the group, tabulate it, and read every check off the table."""
    p = algebra.field.p
    d = algebra.field.d
    elements = generate_subgroup([xi_hat(algebra), alpha_hat(algebra)])
    table = cayley_table(elements)
    xi_i, al_i = elements[0][1]  # identity * generator is the generator
    orders = table_orders(table)
    hist = _histogram(orders)
    abstract = semidirect_table(p, d)
    return GroupReport(
        order=len(elements),
        order_histogram=hist,
        relations=verify_relations(table, xi_i, al_i, p, d),
        generator_orders={"xi_hat": orders[xi_i], "alpha_hat": orders[al_i]},
        isomorphism=check_isomorphism(table, xi_i, al_i, abstract),
        # (1, 0) and (0, 1), at indices 3 and 1, generate the reference group
        abstract_axioms_ok=is_group(abstract, (3, 1)),
        order_histograms_match=hist == order_histogram(abstract),
        jordan_index=jordan_index_check(table),
        non_abelian=not is_abelian(table),
    )
