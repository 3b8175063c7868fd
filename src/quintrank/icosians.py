"""The icosian and Hurwitz unit groups, the isomorphism search that
identifies them with the preimages of A5 and A4 in the double covers of
S5 and S4, and the standard-representation checks, in exact arithmetic
over Z[phi].

A golden pair (a, b) stands for a + b*phi, with phi = (1 + sqrt 5)/2
and phi^2 = phi + 1.  The coordinates of icosian and Hurwitz units lie
in (1/2)Z[phi], so a unit is the 4-tuple of golden pairs of twice its
coordinates, written down exactly: 1 is (2, 0), 1/2 is (1, 0), phi/2
is (0, 1) and 1/(2 phi) = (phi - 1)/2 is (-1, 1).  The groups are
closed from two generators each by ``groups.close_generators``, and
closure, tables, isomorphisms and characters are computed on the pairs
alone; ``reps`` maps them to floats for its matrices.

``standard_rep_checks`` decides that the tensor induction of the
icosian 2-dimensional representation rho up the double cover of S5 is
the pullback of the 4-dimensional standard representation.  It reads
only the character: with g_i * g = q_i(g) * g_{i pi(g)},

    chi(g) = prod over the cycles (i, i pi, i pi^2, ..) of pi(g)
             of chi_rho(q_i q_{i pi} q_{i pi^2} ..)

(Curtis and Reiner, *Methods of Representation Theory I*, §13), where
chi_rho(q) = 2 Re q is the first golden pair of the unit q.  The
characteristic polynomial of a transposition lift theta follows from
the power sums p_k = chi(theta^k), k = 1..4, by Newton's identities
k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i.  This module needs no
numpy.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

from . import InternalCheckFailed
from .cocycles import central_extension, pin_cocycle_sn
from .groups import (CosetSystem, FiniteGroup, _bfs, _picker,
                     close_generators, coset_factorization, symmetric_group)


class ClosureFailure(InternalCheckFailed):
    """A set of unit quaternions failed to close under products."""


# -- golden pairs -----------------------------------------------------------

# a quaternion as the golden pairs (a, b), 2x = a + b*phi, of its four
# coordinates x
GoldenQuaternion = tuple[tuple[int, int], ...]


def _golden_mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    """(a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1."""
    bb = x[1] * y[1]
    return (x[0] * y[0] + bb, x[0] * y[1] + x[1] * y[0] + bb)


def _hamilton(a1, b1, c1, d1, a2, b2, c2, d2) -> tuple[int, ...]:
    """Hamilton product of integer quaternions."""
    return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)


def _golden_hamilton(p, q) -> GoldenQuaternion:
    """Exact Hamilton product of quaternions of golden pairs; the
    denominators multiply.  With p = P + P' phi and q = Q + Q' phi for
    integer quaternions P, P', Q, Q', and phi^2 = phi + 1,
    pq = (PQ + P'Q') + ((P + P')(Q + Q') - PQ) phi."""
    (a1, e1), (b1, f1), (c1, g1), (d1, h1) = p
    (a2, e2), (b2, f2), (c2, g2), (d2, h2) = q
    x0, x1, x2, x3 = _hamilton(a1, b1, c1, d1, a2, b2, c2, d2)
    y0, y1, y2, y3 = _hamilton(e1, f1, g1, h1, e2, f2, g2, h2)
    s0, s1, s2, s3 = _hamilton(a1 + e1, b1 + f1, c1 + g1, d1 + h1,
                               a2 + e2, b2 + f2, c2 + g2, d2 + h2)
    return ((x0 + y0, s0 - x0), (x1 + y1, s1 - x1),
            (x2 + y2, s2 - x2), (x3 + y3, s3 - x3))


class _Unit(tuple):
    """A GoldenQuaternion whose ``*`` is the Hamilton product, for
    ``close_generators``: the product of twice p and twice q is four
    times pq, so it is halved, and ClosureFailure is raised where a
    pair is odd, as pq then does not lie in (1/2)Z[phi]."""

    __slots__ = ()

    def __mul__(self, other):
        four = _golden_hamilton(self, other)
        if any(a % 2 or b % 2 for a, b in four):
            raise ClosureFailure("a product does not lie in (1/2)Z[phi]")
        return _Unit((a // 2, b // 2) for a, b in four)


# -- the unit groups --------------------------------------------------------

def hurwitz_units() -> list[GoldenQuaternion]:
    """The 24 Hurwitz units: +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2."""
    out = []
    for i in range(4):
        for s in (2, -2):
            q = [(0, 0)] * 4
            q[i] = (s, 0)
            out.append(tuple(q))
    out.extend(itertools.product(((1, 0), (-1, 0)), repeat=4))
    return out


def icosian_units() -> list[GoldenQuaternion]:
    """Hurwitz units plus the 96 quaternions with coordinates
    {0, +-1/2, +-phi/2, +-1/(2 phi)} in even coordinate permutations."""
    # 0 at perm[0], and +-1/2, +-phi/2, +-1/(2 phi) at perm[1], .., perm[3]
    base = ((1, 0), (0, 1), (-1, 1))
    even_perms = [p.images for p in symmetric_group(4).elems if p.is_even()]
    extra = []
    for perm in even_perms:
        for signs in itertools.product((1, -1), repeat=3):
            q = [(0, 0)] * 4
            for k, (s, (a, b)) in enumerate(zip(signs, base), 1):
                q[perm[k]] = (s * a, s * b)
            extra.append(tuple(q))
    return hurwitz_units() + extra


# two units that generate each group: (1 + i + j +- k)/2 and
# -1/(2 phi) + i/2 +- (phi/2) k
HURWITZ_GENERATORS = (((1, 0), (1, 0), (1, 0), (1, 0)),
                      ((1, 0), (1, 0), (1, 0), (-1, 0)))
ICOSIAN_GENERATORS = (((1, -1), (1, 0), (0, 0), (0, 1)),
                      ((1, -1), (1, 0), (0, 0), (0, -1)))


def quaternion_group(units, generators, name: str) -> FiniteGroup:
    """The group of the exact unit quaternions ``units``, labelled in
    their order, which must start with the identity: ``generators``,
    units themselves, are closed by ``groups.close_generators`` and
    become the group's generators.  The elements are the units.

    ClosureFailure means a generator is not an exact unit, a product
    does not lie in (1/2)Z[phi], or the closure is not exactly
    ``units`` (a member missing, added or repeated)."""
    for g in generators:
        norm = [sum(c) for c in zip(*(_golden_mul(x, x) for x in g))]
        if norm != [4, 0]:
            raise ClosureFailure("a generator is not an exact unit quaternion")
    try:
        return close_generators([_Unit(g) for g in generators], name=name,
                                members=units)
    except ValueError as exc:
        raise ClosureFailure(str(exc)) from None


@lru_cache(maxsize=None)
def hurwitz_unit_group() -> FiniteGroup:
    """The 24 Hurwitz units, the binary tetrahedral group."""
    return quaternion_group(hurwitz_units(), HURWITZ_GENERATORS, "hurwitz")


@lru_cache(maxsize=None)
def icosian_group() -> FiniteGroup:
    """The 120 unit icosians, the binary icosahedral group."""
    return quaternion_group(icosian_units(), ICOSIAN_GENERATORS, "icosian")


# -- isomorphism search ------------------------------------------------------

ISO_GROUP_CAP = 240


def _class_size_by_label(G: FiniteGroup) -> list[int]:
    sizes = [0] * G.order
    for cls in G.conjugacy_classes():
        for label in cls:
            sizes[label] = len(cls)
    return sizes


def _extend_partial(G1, G2, gens, imgs):
    """Grow <gens> by right multiplication, carrying the candidate map;
    None on a single-valuedness collision."""
    image_of = dict(zip(gens, imgs))
    phi = {0: 0}
    t2 = G2.table
    for x, g, y, new in _bfs(G1.table, gens):
        img = t2[phi[x]][image_of[g]]
        if new:
            phi[y] = img
        elif phi[y] != img:
            return None
    return phi


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup
                     ) -> tuple[int, ...] | None:
    """A multiplication-preserving bijection as a tuple (G1 label ->
    G2 label), or None.  Generator images are searched in deterministic
    order, pruned by element order and conjugacy class size; a candidate
    map is accepted only after all |G1|^2 products are checked."""
    if max(G1.order, G2.order) > ISO_GROUP_CAP:
        raise ValueError(f"isomorphism search capped at {ISO_GROUP_CAP}")
    if G1.order != G2.order or G1.order_census() != G2.order_census():
        return None
    gens = list(G1.generators)
    sizes1, sizes2 = _class_size_by_label(G1), _class_size_by_label(G2)
    orders1, orders2 = G1.element_orders(), G2.element_orders()
    candidates = []
    for g in gens:
        cand = [h for h in range(G2.order)
                if orders2[h] == orders1[g] and sizes2[h] == sizes1[g]]
        if not cand:
            return None
        candidates.append(cand)

    def is_isomorphism(phi):
        # phi(a b) = phi(a) phi(b), row by row
        t2, at, pick = G2.table, phi.__getitem__, _picker(phi)
        return len(set(phi)) == G1.order and all(
            tuple(map(at, row)) == pick(t2[phi[a]])
            for a, row in enumerate(G1.table))

    def search(level, imgs):
        if level == len(gens):
            phi_map = _extend_partial(G1, G2, gens, imgs)
            if phi_map is None or len(phi_map) != G1.order:
                return None
            phi = tuple(phi_map[x] for x in range(G1.order))
            return phi if is_isomorphism(phi) else None
        for h in candidates[level]:
            imgs.append(h)
            if _extend_partial(G1, G2, gens[:level + 1], imgs) is not None:
                found = search(level + 1, imgs)
                if found is not None:
                    return found
            imgs.pop()
        return None

    return search(0, [])


# -- the double covers ------------------------------------------------------

_DoubleCoverFields = namedtuple(
    "_DoubleCoverFields", "extension coset_system subgroup_group units "
    "phi transposition_lifts")


class DoubleCover(_DoubleCoverFields):
    """A double cover of S_n with its index-2 preimage of A_n identified
    with a group of quaternion units: ``phi[q]`` is the unit label of
    subgroup label q, and ``units.elems`` holds the units' exact
    coordinates."""

    __slots__ = ()


@lru_cache(maxsize=None)
def double_cover(n: int) -> DoubleCover:
    """The double cover of S_n from the Pin cocycle, n = 4 or 5, with
    the preimage of A_n identified with the Hurwitz units (n = 4) or the
    icosian group (n = 5)."""
    units, name = ((hurwitz_unit_group, "Hurwitz unit group") if n == 4
                   else (icosian_group, "icosian group"))
    Sn = symmetric_group(n)
    ext = central_extension(Sn, pin_cocycle_sn(n))
    E = ext.group
    evens = [l for l in range(E.order)
             if Sn.elems[ext.projection[l]].is_even()]
    Q, _ = E.subgroup(evens, name=f"2A{n}")
    unit_g = units()
    phi = find_isomorphism(Q, unit_g)
    if phi is None:
        raise InternalCheckFailed(f"preimage of A{n} is not the {name}")
    cs = CosetSystem.build(E, evens)
    lifts = tuple(l for l in range(E.order)
                  if Sn.elems[ext.projection[l]].is_transposition())
    return DoubleCover(ext, cs, Q, unit_g, phi, lifts)


def induced_character(cover: DoubleCover) -> tuple[tuple[int, int], ...]:
    """The character of the tensor induction of the units' tautological
    representation up the cover, as a golden pair per label: one coset
    factorization per element, and chi_rho = 2 Re of each cycle's
    product (the module docstring's formula)."""
    cs = cover.coset_system
    t = cs.group.table
    coords, phi = cover.units.elems, cover.phi
    chi_rho = {lab: coords[phi[i]][0] for i, lab in enumerate(cs.subgroup)}
    out = []
    for g in range(cs.group.order):
        pi, q = coset_factorization(cs, g)
        value = (1, 0)
        for cycle in pi.cycles():
            prod = q[cycle[0]]
            for i in cycle[1:]:
                prod = t[prod][q[i]]
            value = _golden_mul(value, chi_rho[prod])
        out.append(value)
    return tuple(out)


# -- the standard representation ---------------------------------------------

CHARPOLY = ((1, 0), (-2, 0), (0, 0), (2, 0), (-1, 0))

_ChecksFields = namedtuple("_ChecksFields", "passed matched total")


class StandardRepChecks(_ChecksFields):
    """``passed`` holds the outcomes of the four checks of
    ``standard_rep_checks`` in order; on ``matched`` of the ``total``
    labels chi = fix - 1."""

    __slots__ = ()


def _charpoly(power_sums) -> tuple[tuple[int, int], ...] | None:
    """Coefficients [1, -e_1, e_2, -e_3, ..] from the power sums p_1, ..,
    p_d in Z[phi] by Newton's identities, or None when some e_k is not
    in Z[phi]."""
    e = [(1, 0)]
    for k in range(1, len(power_sums) + 1):
        a = b = 0
        for i in range(1, k + 1):
            ta, tb = _golden_mul(e[k - i], power_sums[i - 1])
            s = 1 if i % 2 else -1
            a, b = a + s * ta, b + s * tb
        if a % k or b % k:
            return None
        e.append((a // k, b // k))
    return tuple((a, b) if k % 2 == 0 else (-a, -b)
                 for k, (a, b) in enumerate(e))


def standard_rep_checks(chi=None) -> StandardRepChecks:
    """Decide, exactly, that chi (by default the induced character of the
    icosian representation up the double cover of S5) is the pullback of
    the 4-dimensional standard representation: (a) chi(z) = 4 at the
    central element z, so z acts trivially; (b) chi(g) = fix(g) - 1 on
    every label; (c) chi = 2 at every transposition lift; (d) a
    transposition lift theta has characteristic polynomial
    (x-1)^3 (x+1), from chi(theta^k), k = 1..4.  A character is a golden
    pair per label of the cover."""
    cover = double_cover(5)
    if chi is None:
        chi = induced_character(cover)
    ext = cover.extension
    E = ext.group
    S5 = symmetric_group(5)
    matched = sum(chi[l] == (S5.elems[ext.projection[l]].fixed_points() - 1, 0)
                  for l in range(E.order))
    theta = cover.transposition_lifts[0]
    power_sums = [chi[E.power(theta, k)] for k in range(1, 5)]
    passed = (chi[ext.central[1]] == (4, 0),
              matched == E.order,
              all(chi[l] == (2, 0) for l in cover.transposition_lifts),
              _charpoly(power_sums) == CHARPOLY)
    return StandardRepChecks(passed, matched, E.order)
