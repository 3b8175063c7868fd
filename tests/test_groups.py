"""Group layer tests.

Expected values are either structural identities checked exhaustively or
frozen numbers computed by the independent oracles in this file (plain
dict/set closures and permutation-object arithmetic, no table reuse).
"""

import hashlib
import math
import random

import numpy as np
import pytest

from oracles import cyclic_group, direct_product
from quintrank.groups import (
    CapExceeded,
    CosetSystem,
    FiniteGroup,
    Permutation,
    abelianization,
    alternating_group,
    close_generators,
    coset_factorization,
    symmetric_group,
    transfer,
)
from quintrank.reps import hurwitz_unit_group, icosian_group, omega5_data


def brute_closure(gens):
    """Independent BFS closure over raw permutation tuples."""
    seen = set(gens)
    queue = list(seen)
    while queue:
        x = queue.pop()
        for g in gens:
            y = tuple(g[i] for i in x)  # right action, x first
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


# -- permutations -------------------------------------------------------


def test_permutation_composition_is_right_action():
    p = Permutation.from_cycles(4, (0, 1, 2))
    q = Permutation.transposition(4, 0, 1)
    # (p*q)(i) = q(p(i))
    assert (p * q).images == tuple(q.images[p.images[i]] for i in range(4))


def test_permutation_basics():
    p = Permutation.from_cycles(5, (0, 1, 2, 3, 4))
    assert p.cycle_type() == (5,)
    assert p.fixed_points() == 0
    t = Permutation.transposition(5, 1, 3)
    assert t.is_transposition() and not p.is_transposition()
    assert t.cycles() == [(0,), (1, 3), (2,), (4,)]
    assert Permutation.from_cycles(6, (0, 1, 2), (3, 4)).cycle_type() == (3, 2, 1)
    assert Permutation.from_cycles(5, (0, 1), (2, 3)).is_even()
    assert not t.is_even()
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_random_properties():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(2, 8)
        a = list(range(n))
        rng.shuffle(a)
        b = list(range(n))
        rng.shuffle(b)
        p, q = Permutation(tuple(a)), Permutation(tuple(b))
        # parity is a homomorphism, and the cycles rebuild the permutation
        assert (p * q).is_even() == (p.is_even() == q.is_even())
        assert Permutation.from_cycles(n, *p.cycles()) == p
        assert p.fixed_points() == p.cycle_type().count(1)
        # the lcm of the cycle lengths is the least k with p^k = 1
        identity = tuple(range(n))
        assert math.lcm(*p.cycle_type()) == next(
            k for k in range(1, 1000) if _power(p, k).images == identity)


def _power(p, k):
    out = Permutation(tuple(range(p.degree)))
    for _ in range(k):
        out = out * p
    return out


# -- closure and tables ---------------------------------------------------


def test_close_generators_s5_order():
    gens = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]
    oracle = brute_closure(gens)
    assert len(oracle) == 120  # independent closure
    S5 = symmetric_group(5)
    assert S5.order == 120
    assert set(p.images for p in S5.elems) == oracle


def test_identity_at_label_zero():
    for G in (symmetric_group(4), alternating_group(5), cyclic_group(6)):
        n = G.order
        assert (G.table[0] == np.arange(n)).all()
        assert (G.table[:, 0] == np.arange(n)).all()
        assert (G.table[np.arange(n), G.inv] == 0).all()


def test_table_associativity_exhaustive_s4():
    G = symmetric_group(4)
    t = G.table
    lhs = t[t, :]  # lhs[a,b,c] = (ab)c
    rhs = t[:, t]  # rhs[a,b,c] = a(bc)
    assert (lhs == rhs).all()


def test_cap_exceeded(monkeypatch):
    gens = [Permutation.transposition(5, 0, 1),
            Permutation.from_cycles(5, (0, 1, 2, 3, 4))]
    monkeypatch.setattr("quintrank.groups.DEFAULT_CAP", 100)
    with pytest.raises(CapExceeded, match="cap=100"):
        close_generators(gens)


def test_order_census_s5_against_permutation_orders():
    S5 = symmetric_group(5)
    oracle = {}
    for p in S5.elems:
        k = math.lcm(*p.cycle_type())
        oracle[k] = oracle.get(k, 0) + 1
    assert S5.order_census() == oracle
    assert oracle == {1: 1, 2: 25, 3: 20, 4: 30, 5: 24, 6: 20}


def test_conjugacy_classes_s5_match_cycle_types():
    S5 = symmetric_group(5)
    classes = S5.conjugacy_classes()
    assert sorted(len(c) for c in classes) == [1, 10, 15, 20, 20, 24, 30]
    for cls in classes:
        types = {S5.elems[l].cycle_type() for l in cls}
        assert len(types) == 1  # class = cycle type in S_n


def _v4_labels():
    S4 = symmetric_group(4)
    return [l for l in range(24)
            if S4.elems[l].cycle_type() in ((2, 2), (1, 1, 1, 1))]


def _digest(G):
    """SHA-256 of the generator labels and the int32 table bytes."""
    h = hashlib.sha256(repr(G.generators).encode())
    h.update(G.table.tobytes())
    return h.hexdigest()


# Groups built without declared generators get greedy ones, and closures
# label their elements in breadth-first discovery order; the digests of
# the generators and the table freeze both, so a change of either order
# shows here.
@pytest.mark.parametrize("build, gens, digest", [
    pytest.param(lambda: symmetric_group(3), (1, 2),
                 "485d0e131f30142670a680556007633b4447b57705c3e3612b50fb6f5a1291ad",
                 id="S3"),
    pytest.param(lambda: icosian_group()[0], (33, 35),
                 "8c609ef42e7e855dde6a28011b40ea52232fff96a2959469ad5b2c1fa3d9e10c",
                 id="icosian"),
    pytest.param(lambda: hurwitz_unit_group()[0], (8, 9),
                 "7378dcb65da219b46676894c83d0ef5f35beea2a2b73c54fa95b1b82d5529d4d",
                 id="hurwitz"),
    pytest.param(lambda: omega5_data().subgroup_group, (1, 6),
                 "6db5062d745188ff396f20938215c160f9f8aaf4a8dc113abe0f9ed62557008a",
                 id="2A5"),
    pytest.param(lambda: symmetric_group(4).subgroup(_v4_labels())[0], (1, 2),
                 "b7b0452dfc60793389f318f02e0f56e603f4b264c7f25eef37829c2e30d85e55",
                 id="V4"),
    pytest.param(lambda: symmetric_group(4).quotient_by(_v4_labels())[0], (1, 2),
                 "d0b7040f74f03f098b1e7eb3acbdcad3e89bf8bad4468b69a1e86fbeaf195571",
                 id="S4_over_V4"),
])
def test_dump_roundtrip(build, gens, digest):
    G = build()
    assert G.generators == gens
    assert _digest(G) == digest
    # the generators reach every label, by a closure that never calls _bfs
    reached = frontier = {0}
    while frontier:
        frontier = {G.mul(x, g) for x in frontier for g in gens} - reached
        reached = reached | frontier
    assert reached == set(range(G.order))


# -- subgroups, quotients ---------------------------------------------------


def test_subgroup_closure_and_subgroup():
    S4 = symmetric_group(4)
    v4 = _v4_labels()
    assert len(v4) == 4
    assert S4.is_subgroup(v4)
    H, incl = S4.subgroup(v4)
    assert H.order == 4 and (H.table == H.table.T).all()
    for i in range(4):
        for j in range(4):
            assert incl[H.mul(i, j)] == S4.mul(incl[i], incl[j])


def test_quotient_s4_by_v4_is_s3():
    S4 = symmetric_group(4)
    v4 = _v4_labels()
    Q, qidx = S4.quotient_by(v4)
    assert Q.order == 6 and not (Q.table == Q.table.T).all()
    # projection is a homomorphism
    assert (qidx[S4.table] == Q.table[qidx[:, None], qidx[None, :]]).all()


def test_quotient_rejects_non_normal():
    S3 = symmetric_group(3)
    t = next(l for l in range(6) if S3.elems[l].is_transposition())
    with pytest.raises(ValueError):
        S3.quotient_by(S3.subgroup_closure([t]))


# -- coset systems ----------------------------------------------------------


def test_s3_coset_triple_defining_identity():
    S3 = symmetric_group(3)
    evens = [l for l in range(6) if S3.elems[l].is_even()]
    cs = CosetSystem.build(S3, evens)
    assert cs.n == 2 and cs.reps[0] == 0
    for g in range(6):
        pi, q = coset_factorization(cs, g)
        for i in range(cs.n):
            assert S3.mul(cs.reps[i], g) == S3.mul(q[i], cs.reps[pi.images[i]])
            assert q[i] in cs.subgroup


@pytest.mark.parametrize("sub_order", [2, 3])
def test_coset_factorization_is_wreath_homomorphism(sub_order):
    S4 = symmetric_group(4)
    seed = next(l for l in range(1, 24) if S4.order_of(l) == sub_order)
    cs = CosetSystem.build(S4, S4.subgroup_closure([seed]))
    facts = [coset_factorization(cs, g) for g in range(24)]
    for g in range(24):
        for h in range(24):
            pig, qg = facts[g]
            pih, qh = facts[h]
            pigh, qgh = facts[S4.mul(g, h)]
            assert pigh.images == (pig * pih).images
            for i in range(cs.n):
                assert qgh[i] == S4.mul(qg[i], qh[pig.images[i]])


def test_coset_representative_validation():
    S3 = symmetric_group(3)
    evens = [l for l in range(6) if S3.elems[l].is_even()]
    cs = CosetSystem.build(S3, evens)
    odd = [l for l in range(6) if not S3.elems[l].is_even()]
    # any-member reps accepted, wrong-coset reps rejected
    CosetSystem.build(S3, evens, reps=[evens[1], odd[1]])
    with pytest.raises(ValueError):
        CosetSystem.build(S3, evens, reps=[odd[0], odd[1]])
    with pytest.raises(ValueError):
        CosetSystem.build(S3, evens, reps=[0])


# -- abelianization ----------------------------------------------------------


def brute_derived(G):
    comms = set()
    for a in range(G.order):
        for b in range(G.order):
            comms.add(G.mul(G.mul(G.inverse(a), G.inverse(b)), G.mul(a, b)))
    grown = True
    members = set(comms) | {0}
    while grown:
        grown = False
        for x in list(members):
            for y in list(members):
                z = G.mul(x, y)
                if z not in members:
                    members.add(z)
                    grown = True
    return members


def test_abelianization_s5_is_c2():
    S5 = symmetric_group(5)
    assert brute_derived(S5) == set(alternating_labels(S5))
    ab = abelianization(S5)
    assert ab.factors == (2,)
    for g in range(120):
        expect = (0,) if S5.elems[g].is_even() else (1,)
        assert ab.project(g) == expect


def alternating_labels(G):
    return [l for l in range(G.order) if G.elems[l].is_even()]


def test_abelianization_various():
    assert abelianization(cyclic_group(6)).factors == (6,)
    assert abelianization(alternating_group(5)).factors == ()
    assert abelianization(alternating_group(4)).factors == (3,)
    assert abelianization(symmetric_group(4)).factors == (2,)
    d4 = close_generators([Permutation.from_cycles(4, (0, 1, 2, 3)),
                           Permutation.from_cycles(4, (1, 3))])
    assert d4.order == 8
    assert abelianization(d4).factors == (2, 2)
    klein = direct_product(cyclic_group(2), cyclic_group(2))
    assert abelianization(klein).factors == (2, 2)
    c12 = direct_product(cyclic_group(4), cyclic_group(3))
    assert abelianization(c12).factors == (12,)


def test_abelianization_projection_is_homomorphism():
    for G in (symmetric_group(4), cyclic_group(6),
              direct_product(cyclic_group(2), cyclic_group(4))):
        ab = abelianization(G)
        for a in range(G.order):
            for b in range(G.order):
                assert ab.project(G.mul(a, b)) == ab.add(ab.project(a), ab.project(b))


# -- transfer ----------------------------------------------------------------


def test_transfer_on_whole_group_is_projection():
    S4 = symmetric_group(4)
    cs = CosetSystem.build(S4, range(24))
    V = transfer(cs)
    ab = abelianization(S4)
    for g in range(24):
        assert V.values[g] == ab.project(g)


def test_transfer_dihedral_two_ways_and_rep_independence():
    d4 = close_generators([Permutation.from_cycles(4, (0, 1, 2, 3)),
                           Permutation.from_cycles(4, (1, 3))])
    rot = next(l for l in range(8) if d4.order_of(l) == 4)
    C4 = d4.subgroup_closure([rot])
    cs = CosetSystem.build(d4, C4)
    V = transfer(cs)
    # direct product over the 2 cosets, hand formula
    Qgrp, incl = d4.subgroup(C4)
    pos = {old: new for new, old in enumerate(incl)}
    tab = abelianization(Qgrp)
    for g in range(8):
        _, qs = coset_factorization(cs, g)
        acc = tab.zero
        for q in qs:
            acc = tab.add(acc, tab.project(pos[q]))
        assert V.values[g] == acc
    # transfer is a homomorphism
    for a in range(8):
        for b in range(8):
            assert V.values[d4.mul(a, b)] == V.target_ab.add(V.values[a],
                                                             V.values[b])
    # independence from representative choice
    rng = random.Random(3)
    for _ in range(5):
        reps = []
        for i in range(cs.n):
            members = [l for l in range(8) if cs.coset_of[l] == i]
            reps.append(rng.choice(members))
        V2 = transfer(CosetSystem.build(d4, C4, reps=reps))
        assert V2.values == V.values


def test_transfer_index_two_rep_independence_s4():
    S4 = symmetric_group(4)
    a4 = [l for l in range(24) if S4.elems[l].is_even()]
    cs = CosetSystem.build(S4, a4)
    V = transfer(cs)
    rng = random.Random(11)
    for _ in range(4):
        reps = []
        for i in range(cs.n):
            members = [l for l in range(24) if cs.coset_of[l] == i]
            reps.append(rng.choice(members))
        assert transfer(CosetSystem.build(S4, a4, reps=reps)).values == V.values


# -- misc -------------------------------------------------------------------


def test_direct_product():
    G = direct_product(symmetric_group(3), cyclic_group(2))
    assert G.order == 12
    assert abelianization(G).factors == (2, 2)


def test_center():
    # the center is the union of the one-element conjugacy classes
    def center(G):
        return sorted(c[0] for c in G.conjugacy_classes() if len(c) == 1)
    assert center(symmetric_group(4)) == [0]
    assert center(cyclic_group(5)) == [0, 1, 2, 3, 4]
    E = omega5_data().extension
    assert center(E.group) == sorted(E.central)


def test_from_table_rejects_bad_identity():
    t = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([0, 1], t)


def test_declared_generators_must_generate():
    table = cyclic_group(4).table
    FiniteGroup(list(range(4)), table, generators=[3])
    with pytest.raises(ValueError, match="do not generate"):
        FiniteGroup(list(range(4)), table, generators=[2])
