"""The icosian and Hurwitz unit groups, the isomorphism search that
identifies them with the preimages of A5 and A4 in the double covers of
S5 and S4, and the standard-representation checks, in exact arithmetic
over Z[phi].

A golden pair (a, b) stands for a + b*phi, with phi = (1 + sqrt 5)/2
and phi^2 = phi + 1.  The coordinates of icosian and Hurwitz units lie
in (1/2)Z[phi], so each float coordinate x snaps to the golden pair of
2x, and a unit is a 4-tuple of such pairs.  Closure, tables,
isomorphisms and characters are computed on the pairs alone; the float
coordinates stay the group elements only so that ``reps`` can display
float matrices built from them.

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
import math
from collections import namedtuple
from functools import lru_cache

from . import InternalCheckFailed
from .cocycles import central_extension, pin_cocycle_sn
from .groups import (CosetSystem, FiniteGroup, _bfs, _picker,
                     coset_factorization, symmetric_group)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
_SNAP_TOL = 1e-9
_SNAP_B = 4


class ClosureFailure(InternalCheckFailed):
    """A candidate quaternion set failed to close under products."""


# -- float coordinates ------------------------------------------------------

def hurwitz_quaternions() -> list[tuple[float, ...]]:
    """The 24 Hurwitz units: +-1, +-i, +-j, +-k and (+-1 +-i +-j +-k)/2."""
    out = []
    for i in range(4):
        for s in (1.0, -1.0):
            q = [0.0] * 4
            q[i] = s
            out.append(tuple(q))
    out.extend(itertools.product((0.5, -0.5), repeat=4))
    return out


def icosian_quaternions() -> list[tuple[float, ...]]:
    """Hurwitz units plus the 96 quaternions with components
    {0, +-1/2, +-phi/2, +-1/(2 phi)} in even coordinate permutations."""
    base = (0.0, 0.5, GOLDEN / 2.0, 0.5 / GOLDEN)
    even_perms = [p.images for p in symmetric_group(4).elems if p.is_even()]
    extra = []
    for perm in even_perms:
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = [0.0] * 4
            for k in range(4):
                v = base[k]
                q[perm[k]] = v if k == 0 else signs[k - 1] * v
            extra.append(tuple(q))
    return hurwitz_quaternions() + extra


# -- golden pairs -----------------------------------------------------------

# a quaternion as the golden pairs of its four coordinates
GoldenQuaternion = tuple[tuple[int, int], ...]


def _snap_golden(quats) -> list[GoldenQuaternion]:
    """Each quaternion as the golden pairs (a, b) with 2x = a + b*phi of
    its float coordinates x; x snaps only when |2x - a - b*phi| <
    _SNAP_TOL for some |b| <= _SNAP_B, b tried in ascending order.
    Distinct values a + b*phi in that range lie more than 0.05 apart,
    so the pair is unique."""
    out = []
    for q in quats:
        pairs = []
        for x in q:
            two_x = 2.0 * x
            for b in range(-_SNAP_B, _SNAP_B + 1):
                rest = two_x - b * GOLDEN
                a = round(rest)
                if abs(rest - a) < _SNAP_TOL and abs(two_x) <= 2.0 + _SNAP_TOL:
                    pairs.append((a, b))
                    break
            else:
                raise ClosureFailure(
                    "a coordinate does not lie in (1/2)Z[phi]")
        out.append(tuple(pairs))
    return out


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


# -- quaternion groups ------------------------------------------------------

def quaternion_group(quats, name: str
                     ) -> tuple[FiniteGroup, tuple[GoldenQuaternion, ...]]:
    """Close a finite set of float unit quaternions into a FiniteGroup,
    returned with the exact golden pairs of twice each member's
    coordinates, by label.

    Each coordinate is snapped to an exact pair (a + b*phi)/2 in
    (1/2)Z[phi], where icosian and Hurwitz coordinates lie, and each
    snapped quaternion must have norm exactly 1.  Exact Hamilton
    products (denominator 4) are taken only by generators, picked
    greedily: the smallest label not yet reached becomes the next one
    until a breadth-first walk from the identity reaches every member.
    Each product is looked up among the members, so ClosureFailure
    means a coordinate does not snap, two members coincide, or a
    product is not in the set.  The set is then closed under right
    multiplication by generators of it, hence a group, and the other
    columns of the table follow by associativity, as in
    ``groups.close_generators``: a * y = (a * x) * g when y = x * g was
    first reached.  The floats stay the element values, with the
    identity moved to label 0."""
    quats = [tuple(q) for q in quats]
    exact = _snap_golden(quats)
    for q in exact:
        norm = [sum(c) for c in zip(*(_golden_mul(x, x) for x in q))]
        if norm != [4, 0]:
            raise ClosureFailure("a member is not an exact unit quaternion")
    # keys hold four times each coordinate, as the products of two
    # members do
    keys = [tuple((2 * a, 2 * b) for a, b in q) for q in exact]
    ident = ((4, 0), (0, 0), (0, 0), (0, 0))
    if len(set(keys)) != len(keys) or ident not in keys:
        raise ClosureFailure("members repeat or miss the identity")
    i0 = keys.index(ident)
    order = [i0] + [i for i in range(len(keys)) if i != i0]
    label = {keys[i]: lab for lab, i in enumerate(order)}
    exact = [exact[i] for i in order]
    n = len(order)
    gens: list[int] = []
    right: list[list[int]] = []  # right[j][x] = label of x * gens[j]
    done: list[int] = []  # right[j] holds the products of found[:done[j]]
    parent = {0: None}  # y -> (x, j) with y = x * gens[j] first reached
    found = [0]  # labels in the order they were reached
    while len(found) < n:
        gens.append(next(y for y in range(n) if y not in parent))
        right.append([0] * n)
        done.append(0)
        grew = True
        while grew:
            grew = False
            for j, g in enumerate(gens):
                xs = found[done[j]:]
                done[j] = len(found)
                rj, qg = right[j], exact[g]
                for x in xs:
                    y = label.get(_golden_hamilton(exact[x], qg))
                    if y is None:
                        raise ClosureFailure("a product is not in the set")
                    rj[x] = y
                    if y not in parent:
                        parent[y] = (x, j)
                        found.append(y)
                        grew = True
    cols = [None] * n  # cols[y][a] = label of a * y
    cols[0] = list(range(n))
    for y in found[1:]:
        x, j = parent[y]
        cols[y] = list(map(right[j].__getitem__, cols[x]))
    G = FiniteGroup([quats[i] for i in order], list(zip(*cols)), name=name)
    return G, tuple(exact)


@lru_cache(maxsize=None)
def hurwitz_unit_group():
    """The 24 Hurwitz units, the binary tetrahedral group, with their
    exact coordinates."""
    return quaternion_group(hurwitz_quaternions(), "hurwitz")


@lru_cache(maxsize=None)
def icosian_group():
    """The 120 unit icosians, the binary icosahedral group, with their
    exact coordinates."""
    return quaternion_group(icosian_quaternions(), "icosian")


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
    "unit_coords phi transposition_lifts")


class DoubleCover(_DoubleCoverFields):
    """A double cover of S_n with its index-2 preimage of A_n identified
    with a group of quaternion units: ``phi[q]`` is the unit label of
    subgroup label q, and ``unit_coords`` holds the units' exact
    coordinates, as ``quaternion_group`` returns them."""

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
    unit_g, coords = units()
    phi = find_isomorphism(Q, unit_g)
    if phi is None:
        raise InternalCheckFailed(f"preimage of A{n} is not the {name}")
    cs = CosetSystem.build(E, evens)
    lifts = tuple(l for l in range(E.order)
                  if Sn.elems[ext.projection[l]].is_transposition())
    return DoubleCover(ext, cs, Q, unit_g, coords, phi, lifts)


def induced_character(cover: DoubleCover) -> tuple[tuple[int, int], ...]:
    """The character of the tensor induction of the units' tautological
    representation up the cover, as a golden pair per label: one coset
    factorization per element, and chi_rho = 2 Re of each cycle's
    product (the module docstring's formula)."""
    cs = cover.coset_system
    t = cs.group.table
    coords, phi = cover.unit_coords, cover.phi
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
