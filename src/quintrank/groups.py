"""Finite groups on dense multiplication tables.

A group is built once, by closure from generators or directly from a
table, and is afterwards handled through integer labels: label 0 is the
two-sided identity and ``table[a, b]`` is the label of ``a * b``.  All
structure is exact integer arithmetic; tables are marked read-only so
groups can be shared freely.

Permutations compose by right action: ``(p * q)(i) = q(p(i))``, p acts
first.  Coset systems use right cosets ``Q g_i`` acted on by right
multiplication, with the subgroup part collected on the left:

    g_i * g = q_i(g) * g_{i pi(g)}

which makes both ``pi`` and ``g -> (q_1(g), .., q_n(g), pi(g))`` honest
homomorphisms (the latter into the wreath product of Q by S_n).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from . import InternalCheckFailed

DEFAULT_CAP = 10_000


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


@dataclass(frozen=True)
class Permutation:
    """Permutation of {0, .., n-1}; ``images[i]`` is the image of i."""

    images: tuple[int, ...]

    def __post_init__(self):
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
        return Permutation(tuple(other.images[i] for i in self.images))

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
    goes through ``table``.  Identity is validated to sit at label 0.
    """

    def __init__(self, elems: Sequence, table: np.ndarray, generators=None, name: str = ""):
        table = np.asarray(table, dtype=np.int32)
        n = len(elems)
        if table.shape != (n, n):
            raise ValueError("table shape does not match element count")
        ar = np.arange(n, dtype=np.int32)
        if not ((table[0] == ar).all() and (table[:, 0] == ar).all()):
            raise ValueError("label 0 is not a two-sided identity")
        self.elems = tuple(elems)
        self.table = table
        self.table.flags.writeable = False
        self.name = name
        self.inv = self._build_inverses()
        self._orders = None
        if generators is None:
            generators = _greedy_generators(self.table, self.element_orders())
        self.generators = tuple(int(g) for g in generators)
        if 1 + sum(new for *_, new in _bfs(self.table, self.generators)) != n:
            raise ValueError("declared generators do not generate the group")
        self._classes = None

    # -- construction -------------------------------------------------

    def _build_inverses(self) -> np.ndarray:
        rows, cols = np.nonzero(self.table == 0)
        inv = np.empty(self.order, dtype=np.int32)
        inv[rows] = cols
        inv.flags.writeable = False
        return inv

    # -- basic queries -------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elems)

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inverse(a), -k
        acc, base = 0, a
        while k:
            if k & 1:
                acc = int(self.table[acc, base])
            base = int(self.table[base, base])
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = int(self.table[x, a])
            k += 1
        return k

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.array([self.order_of(a) for a in range(self.order)],
                              dtype=np.int32)
            orders.flags.writeable = False
            self._orders = orders
        return self._orders

    def order_census(self) -> dict[int, int]:
        vals, counts = np.unique(self.element_orders(), return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}

    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        if self._classes is None:
            n = self.order
            allg = np.arange(n)
            seen = np.zeros(n, dtype=bool)
            classes = []
            for x in range(n):
                if seen[x]:
                    continue
                t1 = self.table[self.inv, x]
                orb = np.unique(self.table[t1, allg])
                seen[orb] = True
                classes.append(tuple(int(v) for v in orb))
            self._classes = tuple(classes)
        return self._classes

    # -- subgroups and quotients ----------------------------------------

    def subgroup_closure(self, seeds) -> tuple[int, ...]:
        seeds = sorted({int(s) for s in seeds})
        return tuple(sorted({0}.union(y for _, _, y, _ in _bfs(self.table, seeds))))

    def is_subgroup(self, labels) -> bool:
        S = np.asarray(sorted({int(x) for x in labels}), dtype=np.int32)
        if len(S) == 0 or S[0] != 0:
            return False
        return bool(np.isin(self.table[np.ix_(S, S)], S).all())

    def derived_subgroup(self) -> tuple[int, ...]:
        ia = self.inv
        left = self.table[np.ix_(ia, ia)]  # a^-1 b^-1
        right = self.table  # a b
        comms = np.unique(self.table[left, right])
        return self.subgroup_closure(comms)

    def subgroup(self, labels, name: str = ""):
        """Return (H, inclusion) where inclusion[i] is the parent label of i."""
        S = sorted({int(x) for x in labels})
        pos = {l: i for i, l in enumerate(S)}
        sub = self.table[np.ix_(S, S)]
        try:
            table = np.vectorize(pos.__getitem__, otypes=[np.int32])(sub)
        except KeyError:
            raise ValueError("label set is not multiplicatively closed") from None
        H = FiniteGroup([self.elems[l] for l in S], table, name=name)
        return H, tuple(S)

    def quotient_by(self, normal_labels, name: str = ""):
        """Return (Q, coset_index) for a normal subgroup given by labels."""
        cosets = CosetSystem.build(self, normal_labels)
        reps, qidx = cosets.reps, cosets.coset_of
        qtable = qidx[self.table[np.ix_(reps, reps)]]
        # well-definedness (fails iff the subgroup is not normal)
        full = qtable[qidx[:, None], qidx[None, :]]
        if not (qidx[self.table] == full).all():
            raise ValueError("subgroup is not normal")
        gens = [int(qidx[g]) for g in self.generators if qidx[g] != 0]
        gens = list(dict.fromkeys(gens)) or None
        Q = FiniteGroup(list(reps), qtable, generators=gens, name=name)
        return Q, qidx


def _greedy_generators(table: np.ndarray, orders: np.ndarray) -> tuple[int, ...]:
    n = len(table)
    if n == 1:
        return ()
    cands = sorted(range(1, n), key=lambda a: (-int(orders[a]), a))
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


def _bfs(table: np.ndarray, gens: Sequence[int]):
    """Walk the labels reachable from the identity by right multiplication
    by ``gens``, in breadth-first discovery order.  Yields every edge as
    ``(x, g, x*g, new)``; ``new`` is true where x*g is first reached."""
    seen = {0}
    queue = [0]
    for x in queue:  # grows while it is walked
        for g in gens:
            y = int(table[x, g])
            new = y not in seen
            if new:
                seen.add(y)
                queue.append(y)
            yield x, g, y, new


def close_generators(generators: Sequence, name: str = "") -> FiniteGroup:
    """Close hashable elements under their ``*`` product.

    BFS discovery order is deterministic in the given generator order;
    after closure the identity is found and moved to label 0.  Raises
    CapExceeded if more than DEFAULT_CAP elements appear; the cap is read
    at call time.
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
    for x in elems:  # grows while it is walked
        for g in gens:
            y = x * g
            if y not in index:
                if len(elems) >= DEFAULT_CAP:
                    raise CapExceeded(f"closure exceeded cap={DEFAULT_CAP}")
                index[y] = len(elems)
                elems.append(y)
    n = len(elems)
    table = np.empty((n, n), dtype=np.int32)
    for a in range(n):
        xa = elems[a]
        row = table[a]
        for b in range(n):
            row[b] = index[xa * elems[b]]
    ar = np.arange(n, dtype=np.int32)
    two_sided = (table == ar[None, :]).all(axis=1) & (table.T == ar[None, :]).all(axis=1)
    ids = np.nonzero(two_sided)[0]
    if len(ids) != 1:
        raise ValueError("closure has no unique two-sided identity")
    e = int(ids[0])
    order = [e] + [i for i in range(n) if i != e]
    newlab = np.empty(n, dtype=np.int32)
    newlab[order] = np.arange(n, dtype=np.int32)
    table2 = newlab[table[np.ix_(order, order)]]
    elems2 = [elems[i] for i in order]
    gen_labels = list(dict.fromkeys(int(newlab[i]) for i in range(len(gens)) if newlab[i] != 0))
    return FiniteGroup(elems2, table2, generators=gen_labels or None, name=name)


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


@dataclass(frozen=True)
class CosetSystem:
    """Right cosets Q g_i of a subgroup, with chosen representatives.

    ``reps[i]`` is the representative of coset i; by default coset 0 is
    the subgroup itself represented by the identity, and every other
    coset is represented by its smallest label.
    """

    group: FiniteGroup
    subgroup: tuple[int, ...]
    reps: tuple[int, ...]
    coset_of: np.ndarray

    @staticmethod
    def build(group: FiniteGroup, subgroup_labels, reps: Optional[Sequence[int]] = None
              ) -> "CosetSystem":
        S = tuple(sorted({int(x) for x in subgroup_labels}))
        if not group.is_subgroup(S):
            raise ValueError("labels do not form a subgroup")
        n = group.order
        Sarr = np.asarray(S, dtype=np.int32)
        coset_min = group.table[np.ix_(Sarr, np.arange(n))].min(axis=0)
        canon = np.unique(coset_min)  # ascending, so identity coset (min 0) first
        pos = {int(r): i for i, r in enumerate(canon)}
        coset_of = np.vectorize(pos.__getitem__, otypes=[np.int32])(coset_min)
        coset_of.flags.writeable = False
        if reps is None:
            chosen = tuple(int(r) for r in canon)
        else:
            chosen = tuple(int(r) for r in reps)
            if len(chosen) != len(canon):
                raise ValueError("wrong number of representatives")
            for i, r in enumerate(chosen):
                if int(coset_of[r]) != i:
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
    reps = np.asarray(cs.reps, dtype=np.int32)
    t = G.table[reps, g]                      # g_i * g
    j = cs.coset_of[t]                        # target coset indices
    q = G.table[t, G.inv[reps[j]]]            # (g_i g) g_j^-1
    pi = Permutation(tuple(int(x) for x in j))
    return pi, tuple(int(x) for x in q)


# -- abelianization -----------------------------------------------------


@dataclass(frozen=True)
class AbelianQuotient:
    """G/[G,G] as an explicit product of cyclic factors, orders ascending.

    ``project(label)`` maps a G label to its exponent tuple; the trivial
    quotient has ``factors == ()`` and projects everything to ``()``.
    """

    factors: tuple[int, ...]
    coset_index: np.ndarray
    tuples: tuple[tuple[int, ...], ...]

    def project(self, label: int) -> tuple[int, ...]:
        return self.tuples[int(self.coset_index[label])]

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
    m = int(orders.max())
    x = int(np.nonzero(orders == m)[0][0])
    H = Q.subgroup_closure([x])
    Qq, qidx = Q.quotient_by(H)
    sub_factors, sub_gens = _decompose_abelian(Qq)
    lifts = []
    for fac, gq in zip(sub_factors, sub_gens):
        members = sorted(int(c) for c in np.nonzero(qidx == gq)[0])
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


@dataclass(frozen=True)
class TransferMap:
    """The transfer V(g) = image of prod_i q_i(g) in the abelianization
    of the subgroup.  Well-definedness on the source abelianization is
    checked at construction; values are exponent tuples of target_ab."""

    target_ab: AbelianQuotient
    values: tuple[tuple[int, ...], ...]


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
