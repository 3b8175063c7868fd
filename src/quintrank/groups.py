"""Finite groups on dense multiplication tables.

A group is built once, by closure from generators or directly from a
table, and is afterwards handled through integer labels: label 0 is the
two-sided identity and ``table[a][b]`` is the label of ``a * b``.  A
table is a tuple of rows, each a tuple of Python ints, and a map over
the labels (``inv``, ``CosetSystem.coset_of``,
``AbelianQuotient.coset_index``) is a tuple indexed by label, so groups
can be shared freely and this module needs no numpy.  All structure is
exact integer arithmetic.

Permutations compose by right action: ``(p * q)(i) = q(p(i))``, p acts
first.  Coset systems use right cosets ``Q g_i`` acted on by right
multiplication, with the subgroup part collected on the left:

    g_i * g = q_i(g) * g_{i pi(g)}

which makes both ``pi`` and ``g -> (q_1(g), .., q_n(g), pi(g))`` honest
homomorphisms (the latter into the wreath product of Q by S_n).
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import itemgetter
from typing import Optional, Sequence

from . import CheckedRecord, InternalCheckFailed

DEFAULT_CAP = 10_000


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


def _picker(labels: Sequence[int]):
    """A function from a table row to the tuple of its entries at
    ``labels``, in that order."""
    if len(labels) == 1:
        only = labels[0]
        return lambda row: (row[only],)
    return itemgetter(*labels)


_PermutationFields = namedtuple("_PermutationFields", "images")


class Permutation(CheckedRecord, _PermutationFields):
    """Permutation of {0, .., n-1}; ``images[i]`` is the image of i."""

    __slots__ = ()

    def _check(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..n-1: {self.images!r}")

    @staticmethod
    def from_cycles(n: int, *cycles: Sequence[int]) -> "Permutation":
        # cycles must be disjoint
        images = list(range(n))
        for cyc in cycles:
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        return Permutation(tuple(images))

    @staticmethod
    def transposition(n: int, i: int, j: int) -> "Permutation":
        return Permutation.from_cycles(n, (i, j))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        # right action: self first, then other
        return Permutation(tuple(map(other.images.__getitem__, self.images)))

    def cycles(self) -> list[tuple[int, ...]]:
        seen, out = set(), []
        for start in range(len(self.images)):
            if start in seen:
                continue
            cyc, x = [], start
            while x not in seen:
                seen.add(x)
                cyc.append(x)
                x = self.images[x]
            out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def fixed_points(self) -> int:
        return sum(1 for i, img in enumerate(self.images) if i == img)

    def is_even(self) -> bool:
        return sum(len(c) - 1 for c in self.cycles()) % 2 == 0

    def is_transposition(self) -> bool:
        return self.cycle_type()[:1] == (2,) and self.fixed_points() == self.degree - 2


class FiniteGroup:
    """A finite group given by its dense multiplication table.

    ``elems`` holds the original payload objects (permutations, pairs,
    quaternion coordinates, ..) purely for inspection; all computation
    goes through ``table``, given as rows of ints.  Identity is validated
    to sit at label 0.
    """

    def __init__(self, elems: Sequence, table, generators=None, name: str = ""):
        table = tuple(map(tuple, table))
        n = len(elems)
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError("table shape does not match element count")
        ar = tuple(range(n))
        if table[0] != ar or tuple(row[0] for row in table) != ar:
            raise ValueError("label 0 is not a two-sided identity")
        self.elems = tuple(elems)
        self.table = table
        self.name = name
        try:
            self.inv = tuple(row.index(0) for row in table)
        except ValueError:
            raise ValueError("a row of the table misses the identity") from None
        self._orders = None
        if generators is None:
            generators = _greedy_generators(self.table, self.element_orders())
        self.generators = tuple(int(g) for g in generators)
        if 1 + sum(new for *_, new in _bfs(self.table, self.generators)) != n:
            raise ValueError("declared generators do not generate the group")
        self._classes = None

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elems)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse(a), -k
        t = self.table
        acc, base = 0, a
        while k:
            if k & 1:
                acc = t[acc][base]
            base = t[base][base]
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        t = self.table
        k, x = 1, a
        while x != 0:
            x = t[x][a]
            k += 1
        return k

    def element_orders(self) -> tuple[int, ...]:
        if self._orders is None:
            self._orders = tuple(map(self.order_of, range(self.order)))
        return self._orders

    def order_census(self) -> dict[int, int]:
        orders = self.element_orders()
        return {v: orders.count(v) for v in sorted(set(orders))}

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            t, inv = self.table, self.inv
            seen: set[int] = set()
            classes = []
            for x in range(self.order):
                if x in seen:
                    continue
                # g^-1 x g for every g
                orb = sorted({t[t[ig][x]][g] for g, ig in enumerate(inv)})
                seen.update(orb)
                classes.append(tuple(orb))
            self._classes = tuple(classes)
        return self._classes

    # -- subgroups and quotients ----------------------------------------

    def subgroup_closure(self, seeds) -> tuple[int, ...]:
        seeds = sorted({int(s) for s in seeds})
        return tuple(sorted({0}.union(y for _, _, y, _ in _bfs(self.table, seeds))))

    def is_subgroup(self, labels) -> bool:
        S = sorted({int(x) for x in labels})
        if not S or S[0] != 0:
            return False
        members, pick, t = set(S), _picker(S), self.table
        return all(members.issuperset(pick(t[a])) for a in S)

    def derived_subgroup(self) -> tuple[int, ...]:
        t, inv = self.table, self.inv
        # a^-1 b^-1 a b for every a and b
        return self.subgroup_closure(
            {t[t[ia][ib]][t[a][b]] for a, ia in enumerate(inv)
             for b, ib in enumerate(inv)})

    def subgroup(self, labels, name: str = ""):
        """Return (H, inclusion) where inclusion[i] is the parent label of i."""
        S = sorted({int(x) for x in labels})
        pos = {l: i for i, l in enumerate(S)}
        pick, t = _picker(S), self.table
        try:
            table = [list(map(pos.__getitem__, pick(t[a]))) for a in S]
        except KeyError:
            raise ValueError("label set is not multiplicatively closed") from None
        H = FiniteGroup([self.elems[l] for l in S], table, name=name)
        return H, tuple(S)

    def quotient_by(self, normal_labels, name: str = ""):
        """Return (Q, coset_index) for a normal subgroup given by labels."""
        cosets = CosetSystem.build(self, normal_labels)
        reps, qidx = cosets.reps, cosets.coset_of
        pick, t = _picker(reps), self.table
        qtable = [list(map(qidx.__getitem__, pick(t[a]))) for a in reps]
        # well-definedness (fails iff the subgroup is not normal)
        for a, row in enumerate(t):
            qrow = qtable[qidx[a]]
            if list(map(qidx.__getitem__, row)) != list(map(qrow.__getitem__, qidx)):
                raise ValueError("subgroup is not normal")
        gens = [qidx[g] for g in self.generators if qidx[g] != 0]
        gens = list(dict.fromkeys(gens)) or None
        Q = FiniteGroup(list(reps), qtable, generators=gens, name=name)
        return Q, qidx


def _greedy_generators(table, orders) -> tuple[int, ...]:
    n = len(table)
    if n == 1:
        return ()
    cands = sorted(range(1, n), key=lambda a: (-orders[a], a))
    gens: list[int] = []
    closure = {0}
    for a in cands:
        if a in closure:
            continue
        gens.append(a)
        closure = {0}.union(y for _, _, y, _ in _bfs(table, gens))
        if len(closure) == n:
            break
    return tuple(gens)


def _bfs(table, gens: Sequence[int]):
    """Walk the labels reachable from the identity by right multiplication
    by ``gens``, in breadth-first discovery order.  Yields every edge as
    ``(x, g, x*g, new)``; ``new`` is true where x*g is first reached."""
    seen = {0}
    queue = [0]
    for x in queue:  # grows while it is walked
        row = table[x]
        for g in gens:
            y = row[g]
            new = y not in seen
            if new:
                seen.add(y)
                queue.append(y)
            yield x, g, y, new


def close_generators(generators: Sequence, name: str = "",
                     members: Optional[Sequence] = None) -> FiniteGroup:
    """Close hashable elements under their ``*`` product.

    BFS discovery order is deterministic in the given generator order;
    after closure the identity is found and moved to label 0.  Given
    ``members``, the closure is labelled in their order instead, and
    ValueError is raised unless it is exactly those distinct elements;
    the members are then the group's elements.  Raises CapExceeded if
    more than DEFAULT_CAP elements appear; the cap is read at call time.

    Only the products x * g_j by the generators are formed.  They are
    the generators' columns of the table, and every other element y was
    first reached as y = x * g_j, so its column follows by associativity:
    a * y = (a * x) * g_j, i.e. column y is right[j] read at column x.
    """
    if not generators:
        raise ValueError("need at least one generator")
    elems: list = []
    index: dict = {}
    for g in generators:
        if g not in index:
            index[g] = len(elems)
            elems.append(g)
    gens = list(elems)
    right = [[] for _ in gens]  # right[j][x] = label of x * g_j
    parent = []  # (x, j) with elems[y] = elems[x] * g_j, for y >= len(gens)
    for x, xe in enumerate(elems):  # grows while it is walked
        for j, g in enumerate(gens):
            y = xe * g
            if y not in index:
                if len(elems) >= DEFAULT_CAP:
                    raise CapExceeded(f"closure exceeded cap={DEFAULT_CAP}")
                index[y] = len(elems)
                elems.append(y)
                parent.append((x, j))
            right[j].append(index[y])
    n = len(elems)
    cols = list(right)  # cols[y][a] = label of a * y
    for x, j in parent:
        cols.append(list(map(right[j].__getitem__, cols[x])))
    if members is None:
        ar = list(range(n))
        ids = [e for e in range(n) if cols[e] == ar
               and all(col[e] == y for y, col in enumerate(cols))]
        if len(ids) != 1:
            raise ValueError("closure has no unique two-sided identity")
        e = ids[0]
        order = [e] + [i for i in range(n) if i != e]
        members = [elems[i] for i in order]
    else:
        order = [index.get(m) for m in members]
        if len(order) != n or set(order) != set(range(n)):
            raise ValueError("the closure is not exactly the given members")
    newlab = [0] * n
    for new, old in enumerate(order):
        newlab[old] = new
    rows = list(zip(*[cols[y] for y in order]))  # rows[a][k] = a * order[k]
    table = [tuple(map(newlab.__getitem__, rows[a])) for a in order]
    gen_labels = list(dict.fromkeys(newlab[i] for i in range(len(gens)) if newlab[i] != 0))
    return FiniteGroup(members, table, generators=gen_labels or None, name=name)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> FiniteGroup:
    gens = [Permutation.transposition(n, 0, 1),
            Permutation.from_cycles(n, tuple(range(n)))]
    return close_generators(gens, name=f"S{n}")


@lru_cache(maxsize=None)
def alternating_group(n: int) -> FiniteGroup:
    if n == 3:
        gens = [Permutation.from_cycles(3, (0, 1, 2))]
    elif n % 2 == 1:
        gens = [Permutation.from_cycles(n, (0, 1, 2)),
                Permutation.from_cycles(n, tuple(range(n)))]
    else:
        gens = [Permutation.from_cycles(n, (0, 1, 2)),
                Permutation.from_cycles(n, (0, 1), (2, 3))] if n == 4 else [
            Permutation.from_cycles(n, (0, 1, 2)),
            Permutation.from_cycles(n, tuple(range(1, n)))]
    return close_generators(gens, name=f"A{n}")


# -- coset systems ------------------------------------------------------


_CosetFields = namedtuple("_CosetFields", "group subgroup reps coset_of")


class CosetSystem(_CosetFields):
    """Right cosets Q g_i of a subgroup, with chosen representatives.

    ``reps[i]`` is the representative of coset i and ``coset_of[g]`` the
    coset of label g; by default coset 0 is the subgroup itself
    represented by the identity, and every other coset is represented
    by its smallest label.
    """

    __slots__ = ()

    @staticmethod
    def build(group: FiniteGroup, subgroup_labels, reps: Optional[Sequence[int]] = None
              ) -> "CosetSystem":
        S = tuple(sorted({int(x) for x in subgroup_labels}))
        if not group.is_subgroup(S):
            raise ValueError("labels do not form a subgroup")
        t = group.table
        # cosets numbered by their least labels, ascending, so the
        # identity coset comes first: the first label not yet placed
        # is the least of the right coset S g it starts
        coset_of: list = [None] * group.order
        canon = []
        for g in range(group.order):
            if coset_of[g] is None:
                for s in S:
                    coset_of[t[s][g]] = len(canon)
                canon.append(g)
        coset_of = tuple(coset_of)
        if reps is None:
            chosen = tuple(canon)
        else:
            chosen = tuple(int(r) for r in reps)
            if len(chosen) != len(canon):
                raise ValueError("wrong number of representatives")
            for i, r in enumerate(chosen):
                if coset_of[r] != i:
                    raise ValueError(f"element {r} does not represent coset {i}")
        return CosetSystem(group, S, chosen, coset_of)

    @property
    def n(self) -> int:
        return len(self.reps)


def coset_factorization(cs: CosetSystem, g: int):
    """Factor g through the coset system: g_i * g = q_i(g) * g_{i pi(g)}.

    Returns (pi, q) with pi a Permutation of the coset indices and q the
    tuple of subgroup element labels q_i(g).
    """
    G = cs.group
    t, inv = G.table, G.inv
    moved = [t[r][g] for r in cs.reps]                 # g_i * g
    j = tuple(map(cs.coset_of.__getitem__, moved))     # target cosets
    q = tuple(t[x][inv[cs.reps[k]]] for x, k in zip(moved, j))  # (g_i g) g_j^-1
    return Permutation(j), q


# -- abelianization -----------------------------------------------------


_AbelianFields = namedtuple("_AbelianFields", "factors coset_index tuples")


class AbelianQuotient(_AbelianFields):
    """G/[G,G] as an explicit product of cyclic factors, orders ascending.

    ``project(label)`` maps a G label to its exponent tuple; the trivial
    quotient has ``factors == ()`` and projects everything to ``()``.
    """

    __slots__ = ()

    def project(self, label: int) -> tuple[int, ...]:
        return self.tuples[self.coset_index[label]]

    def add(self, t1: tuple[int, ...], t2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(t1, t2, self.factors))

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.factors)


def _decompose_abelian(Q: FiniteGroup) -> tuple[list[int], list[int]]:
    """Invariant factors (descending) and matching generator labels."""
    if Q.order == 1:
        return [], []
    orders = Q.element_orders()
    m = max(orders)
    x = orders.index(m)
    H = Q.subgroup_closure([x])
    Qq, qidx = Q.quotient_by(H)
    sub_factors, sub_gens = _decompose_abelian(Qq)
    lifts = []
    for fac, gq in zip(sub_factors, sub_gens):
        members = [c for c, q in enumerate(qidx) if q == gq]
        lift = next((c for c in members if Q.order_of(c) == fac), None)
        if lift is None:
            raise InternalCheckFailed(
                "no order-preserving lift; group is not abelian?")
        lifts.append(lift)
    return [m] + sub_factors, [x] + lifts


def abelianization(G: FiniteGroup) -> AbelianQuotient:
    derived = G.derived_subgroup()
    Q, qidx = G.quotient_by(derived)
    factors_desc, gens_desc = _decompose_abelian(Q)
    pairs = sorted(zip(factors_desc, gens_desc), key=lambda p: p[0])
    factors = tuple(p[0] for p in pairs)
    gens = [p[1] for p in pairs]
    # exponent tuple per quotient label, by exhaustive products
    label_of: dict[int, tuple[int, ...]] = {}
    for exps in itertools.product(*(range(d) for d in factors)):
        lab = 0
        for g, e in zip(gens, exps):
            lab = Q.mul(lab, Q.power(g, e))
        if lab in label_of:
            raise InternalCheckFailed(
                "cyclic decomposition is not a bijection")
        label_of[lab] = exps
    if len(label_of) != Q.order:
        raise InternalCheckFailed(
            "cyclic decomposition does not cover the quotient")
    tuples = tuple(label_of[l] for l in range(Q.order))
    return AbelianQuotient(factors, qidx, tuples)


# -- transfer -----------------------------------------------------------


_TransferFields = namedtuple("_TransferFields", "target_ab values")


class TransferMap(_TransferFields):
    """The transfer V(g) = image of prod_i q_i(g) in the abelianization
    of the subgroup.  Well-definedness on the source abelianization is
    checked at construction; values are exponent tuples of target_ab."""

    __slots__ = ()


def transfer(cs: CosetSystem) -> TransferMap:
    G = cs.group
    Qgrp, incl = G.subgroup(cs.subgroup)
    pos = {old: new for new, old in enumerate(incl)}
    tab = abelianization(Qgrp)
    sab = abelianization(G)
    values = []
    for g in range(G.order):
        _, qs = coset_factorization(cs, g)
        acc = tab.zero
        for q in qs:
            acc = tab.add(acc, tab.project(pos[q]))
        values.append(acc)
    ab_map: dict[tuple[int, ...], tuple[int, ...]] = {}
    for g in range(G.order):
        key = sab.project(g)
        if key in ab_map and ab_map[key] != values[g]:
            raise InternalCheckFailed(
                "transfer is not constant on abelianization fibers")
        ab_map[key] = values[g]
    return TransferMap(tab, tuple(values))
