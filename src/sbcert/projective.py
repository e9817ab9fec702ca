"""The unit-class group A*/K* at desk scale.

A class {c*x : c in K*} is stored by its canonical representative: scale x
so that the first nonzero of its nine K-coordinates (component index i,
then power j in the K-basis {1, zeta, zeta^2}) equals 1.  Scaling by K*
multiplies every K-coordinate by the same element of K, so the canonical
representative is a complete class invariant.

The subgroup generated by the classes of zeta and alpha is expanded
breadth-first with canonical-form deduplication, tabulated, and compared
against the abstract semidirect product Z/p x| Z/3 whose twist is the
order-3 residue d.  Conjugation by alpha acts on <zeta-hat> as d^-1, so
the pairing that matches the abstract table as written is
phi(u, v) = xi-hat^u * (alpha-hat^2)^v.  The breadth-first expansion is the
only place classes are multiplied: it records each element's products with
the generators, the table is built from those edges by index, and the
relations, the element orders and phi are read off the one table, so a
group stage makes 6p + 2 class products (the two generators and the 2 * 3p
expansion products).
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .algebra import AlgebraElem, CyclicAlgebra
from .cyclotomic import k_coordinate_vector, k_inverse_from_period_coords
from .errors import CapExceeded, SbcertError, ZeroElement

ISO_CONVENTION = "phi(u, v) = xi_hat^u * (alpha_hat^2)^v"


class ProjClass:
    """Canonical representative of an algebra unit modulo K*-scaling."""

    __slots__ = ("rep", "_key")

    def __init__(self, rep: AlgebraElem):
        self.rep = rep
        self._key = None

    @property
    def algebra(self) -> CyclicAlgebra:
        return self.rep.algebra

    @property
    def key(self):
        k = self._key
        if k is None:
            rep = self.rep
            k = (rep.algebra.field.p, rep.algebra.a, rep.x0, rep.x1, rep.x2)
            self._key = k
        return k

    def __mul__(self, other: "ProjClass") -> "ProjClass":
        return canonicalize(self.rep * other.rep)

    def __eq__(self, other):
        if not isinstance(other, ProjClass):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"ProjClass({self.rep!r})"


def canonicalize(x: AlgebraElem) -> ProjClass:
    """The canonical class representative of a nonzero algebra element."""
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
                    scale = k_inverse_from_period_coords(field, block, comp.den)
                    return ProjClass(x.scale(scale))
    raise AssertionError("unreachable: nonzero element with zero K-coordinates")


def identity_class(algebra: CyclicAlgebra) -> ProjClass:
    return ProjClass(algebra.one())


def generate_subgroup(gens) -> list:
    """Closure under multiplication, breadth-first from the identity.

    Returns one (class, successors) pair per element, in BFS layer then
    discovery order, where successors[k] is the index of class * gens[k].
    These are the only class products; cayley_table reads the rest of the
    table off these edges.  For a finite group, closure under multiplication
    alone suffices; more than 10p classes (the group has 3p) raises.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("at least one generator (or an explicit identity) required")
    algebra = gens[0].algebra
    cap = 10 * algebra.field.p
    e = identity_class(algebra)
    index = {e.key: 0}
    classes = [e]
    edges = []
    for g in classes:  # grows while it is walked: a BFS queue
        successors = []
        for s in gens:
            h = g * s
            i = index.get(h.key)
            if i is None:
                i = index[h.key] = len(classes)
                classes.append(h)
                if len(classes) > cap:
                    raise CapExceeded(
                        f"subgroup generation exceeded cap {cap}; expected order 3p"
                    )
            successors.append(i)
        edges.append(tuple(successors))
    return list(zip(classes, edges))


def cayley_table(elements) -> list:
    """Index-based multiplication table, from generate_subgroup's edges alone.

    Column j holds the indices of elements[i] * elements[j].  Column 0 (the
    identity) is the identity permutation; a later element is h * s for its
    BFS parent h, which comes earlier, and a generator s, so its column is
    the column of s (the successor indices) composed with the column of h
    (exact: the algebra is associative and K* is central).  Integer lookups
    only, no class products.
    """
    n = len(elements)
    gen_columns = list(zip(*(successors for _, successors in elements)))
    columns = [list(range(n))] + [None] * (n - 1)
    for h, (_, successors) in enumerate(elements):
        for gen_column, j in zip(gen_columns, successors):
            if columns[j] is None:
                columns[j] = [gen_column[x] for x in columns[h]]
    return [list(row) for row in zip(*columns)]


def table_identity(table) -> int:
    n = len(table)
    for e in range(n):
        if all(table[e][j] == j for j in range(n)) and all(
            table[j][e] == j for j in range(n)
        ):
            return e
    raise SbcertError("table has no two-sided identity")


def table_orders(table, e: int) -> list:
    orders = []
    for i in range(len(table)):
        x = i
        m = 1
        while x != e:
            x = table[x][i]
            m += 1
        orders.append(m)
    return orders


def _histogram(orders) -> dict:
    return dict(sorted(Counter(orders).items()))


def order_histogram(table) -> dict:
    return _histogram(table_orders(table, table_identity(table)))


def _walk(table, x: int, g: int, steps: int) -> int:
    """Index of elements[x] * elements[g]^steps, read down column g."""
    for _ in range(steps):
        x = table[x][g]
    return x


def is_abelian(table) -> bool:
    n = len(table)
    return all(table[i][j] == table[j][i] for i in range(n) for j in range(i + 1, n))


def xi_hat(algebra: CyclicAlgebra) -> ProjClass:
    return canonicalize(algebra.embed(algebra.field.xi()))


def alpha_hat(algebra: CyclicAlgebra) -> ProjClass:
    return canonicalize(algebra.alpha())


def verify_relations(table, xi: int, al: int, p: int, d: int) -> dict:
    """The three defining relations of the target group, read off the table.

    xi and al index the generator classes; the walks follow their columns,
    which cayley_table copies from the breadth-first edges.
    The returned booleans let a caller assemble a complete failure
    certificate.
    """
    e = table_identity(table)
    return {
        "xi_power_p_trivial": _walk(table, e, xi, p) == e,
        "alpha_cubed_trivial": _walk(table, e, al, 3) == e,
        "commutation_twist": table[xi][al] == _walk(table, al, xi, d),
    }


class AbstractGp:
    """The reference semidirect product Z/p x| Z/3 with twist d.

    Elements are pairs (u, v); multiplication is
    (u1, v1) * (u2, v2) = (u1 + d^v1 * u2 mod p, v1 + v2 mod 3).
    """

    __slots__ = ("p", "d", "elements", "_table")

    def __init__(self, p: int, d: int):
        if d % p in (0, 1) or pow(d, 3, p) != 1:
            raise ValueError(f"d = {d} does not have order 3 modulo {p}")
        self.p = p
        self.d = d
        self.elements = [(u, v) for u in range(p) for v in range(3)]
        self._table = None

    @property
    def order(self) -> int:
        return 3 * self.p

    def index(self, el) -> int:
        u, v = el
        return u * 3 + v

    def mul(self, g, h):
        u1, v1 = g
        u2, v2 = h
        return ((u1 + pow(self.d, v1, self.p) * u2) % self.p, (v1 + v2) % 3)

    def table(self) -> list:
        if self._table is None:
            idx = self.index
            self._table = [
                [idx(self.mul(g, h)) for h in self.elements] for g in self.elements
            ]
        return self._table

    def order_histogram(self) -> dict:
        return order_histogram(self.table())

    def verify_axioms(self) -> bool:
        """Identity, inverses, and associativity over the full table."""
        t = self.table()
        n = len(t)
        e = self.index((0, 0))
        if any(t[e][j] != j or t[j][e] != j for j in range(n)):
            return False
        for i in range(n):
            if e not in t[i]:
                return False
        for i in range(n):
            ti = t[i]
            for j in range(n):
                row_ij = t[ti[j]]
                tj = t[j]
                for l in range(n):
                    if row_ij[l] != ti[tj[l]]:
                        return False
        return True


def _iso_result(ok: bool, pairs_checked: int = 0, counterexample=None) -> dict:
    return {
        "ok": ok,
        "pairs_checked": pairs_checked,
        "counterexample": counterexample,
        "convention": ISO_CONVENTION,
    }


def check_isomorphism(table, xi: int, al: int, abstract: AbstractGp) -> dict:
    """Exhaustive bijective-homomorphism check of phi against both tables.

    phi(u, v) = xi^u * (al^2)^v is built by walking the generator columns
    of the concrete table (xi and al are indices into it).
    """
    n = abstract.order
    if len(table) != n:
        return _iso_result(False)
    phi = [None] * n
    x = table_identity(table)
    for u in range(abstract.p):
        for v in range(3):
            phi[abstract.index((u, v))] = _walk(table, x, al, 2 * v)
        x = table[x][xi]
    if sorted(phi) != list(range(n)):
        return _iso_result(False)
    atable = abstract.table()
    pairs = 0
    for gi in range(n):
        prow = table[phi[gi]]
        arow = atable[gi]
        for hi in range(n):
            pairs += 1
            if prow[phi[hi]] != phi[arow[hi]]:
                counterexample = (abstract.elements[gi], abstract.elements[hi])
                return _iso_result(False, pairs, counterexample)
    return _iso_result(True, pairs)


def jordan_index_check(table) -> int:
    """Minimal index of a normal abelian subgroup, by full enumeration.

    For groups of order 3p (and the degenerate prime-order guard inputs)
    every proper nontrivial subgroup has prime order, hence is cyclic, so
    the trivial group, the cyclic closures of single elements, and the
    whole group exhaust all subgroups.
    """
    n = len(table)
    e = table_identity(table)
    inv = [row.index(e) for row in table]

    subgroups = {frozenset([e]), frozenset(range(n))}
    for i in range(n):
        closure = {e}
        x = i
        while x != e:
            closure.add(x)
            x = table[x][i]
        subgroups.add(frozenset(closure))

    best = None
    for sub in subgroups:
        abelian = all(
            table[s][t] == table[t][s] for s in sub for t in sub if s < t
        )
        if not abelian:
            continue
        normal = all(
            table[table[h][s]][inv[h]] in sub for h in range(n) for s in sub
        )
        if not normal:
            continue
        idx = n // len(sub)
        if best is None or idx < best:
            best = idx
    assert best is not None  # the trivial subgroup is always normal abelian
    return best


@dataclass
class GroupReport:
    """Everything the certificate records about the realized group."""

    order: int
    order_histogram: dict
    relations_ok: dict
    generator_orders: dict
    iso_ok: bool
    iso_pairs_checked: int
    iso_convention: str
    abstract_axioms_ok: bool
    histograms_match: bool
    jordan_index: int
    non_abelian: bool
    counterexample: Optional[tuple] = None

    @property
    def failed_substage(self) -> Optional[str]:
        """The first failing check as "group:<name>", or None."""
        checks = (
            ("relations", all(self.relations_ok.values())),
            ("abstract_axioms", self.abstract_axioms_ok),
            ("isomorphism", self.iso_ok),
            ("order_histogram", self.histograms_match),
            ("jordan_index", self.jordan_index == 3),
            ("non_abelian", self.non_abelian),
        )
        return next((f"group:{name}" for name, ok in checks if not ok), None)

    @property
    def all_ok(self) -> bool:
        return self.failed_substage is None


def group_report(algebra: CyclicAlgebra) -> GroupReport:
    """Generate the group, tabulate it, and read every check off the table."""
    p = algebra.field.p
    d = algebra.field.d
    elements = generate_subgroup([xi_hat(algebra), alpha_hat(algebra)])
    table = cayley_table(elements)
    xi_i, al_i = elements[0][1]  # identity * generator is the generator
    orders = table_orders(table, table_identity(table))
    hist = _histogram(orders)
    relations = verify_relations(table, xi_i, al_i, p, d)
    abstract = AbstractGp(p, d)
    axioms_ok = abstract.verify_axioms()
    iso = check_isomorphism(table, xi_i, al_i, abstract)
    jordan = jordan_index_check(table)
    return GroupReport(
        order=len(elements),
        order_histogram=hist,
        relations_ok=relations,
        generator_orders={"xi_hat": orders[xi_i], "alpha_hat": orders[al_i]},
        iso_ok=iso["ok"],
        iso_pairs_checked=iso["pairs_checked"],
        iso_convention=iso["convention"],
        abstract_axioms_ok=axioms_ok,
        histograms_match=hist == abstract.order_histogram(),
        jordan_index=jordan,
        non_abelian=not is_abelian(table),
        counterexample=iso["counterexample"],
    )
