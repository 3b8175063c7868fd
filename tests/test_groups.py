"""Group layer tests.

Expected values are either structural identities checked exhaustively or
frozen numbers computed by the independent oracles in this file (plain
dict/set closures and permutation-object arithmetic, no table reuse).
"""

import hashlib
import random

import numpy as np
import pytest

from quintrank.groups import (
    CapExceeded,
    CosetSystem,
    FiniteGroup,
    Permutation,
    abelianization,
    alternating_group,
    close_generators,
    coset_factorization,
    cyclic_group,
    direct_product,
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
    assert (p * q).images == tuple(q(p(i)) for i in range(4))


def test_permutation_basics():
    p = Permutation.from_cycles(5, (0, 1, 2, 3, 4))
    assert p.order() == 5
    assert p.cycle_type() == (5,)
    assert (p * p.inverse()).images == Permutation.identity(5).images
    t = Permutation.transposition(5, 1, 3)
    assert t.is_transposition() and not p.is_transposition()
    assert Permutation.from_cycles(6, (0, 1, 2), (3, 4)).order() == 6
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
        assert (p * q).inverse().images == (q.inverse() * p.inverse()).images
        assert p.order() == next(
            k for k in range(1, 1000)
            if _power(p, k).images == Permutation.identity(n).images)


def _power(p, k):
    out = Permutation.identity(p.degree)
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


def test_cap_exceeded():
    gens = [Permutation.transposition(5, 0, 1),
            Permutation.from_cycles(5, (0, 1, 2, 3, 4))]
    with pytest.raises(CapExceeded):
        close_generators(gens, cap=100)


def test_order_census_s5_against_permutation_orders():
    S5 = symmetric_group(5)
    oracle = {}
    for p in S5.elems:
        oracle[p.order()] = oracle.get(p.order(), 0) + 1
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


# Groups built without declared generators get greedy ones, and every
# group's words come from breadth-first discovery order; the digests of
# dump() freeze both, so a change of either order shows here.
@pytest.mark.parametrize("build, gens, digest", [
    pytest.param(lambda: symmetric_group(3), (1, 2),
                 "675e40651babd6477764566bd3374f922d59c926b01f4b7094347e5dd997fd6c",
                 id="S3"),
    pytest.param(lambda: icosian_group()[0], (33, 35),
                 "ca97dd90bd431566d0c1e84dd4b058de2193eac19529785572b700f14a90f117",
                 id="icosian"),
    pytest.param(lambda: hurwitz_unit_group()[0], (8, 9),
                 "ab61fc57c7278811aa81e2225f39108d731690c1ff2cf849671fc949ffb26975",
                 id="hurwitz"),
    pytest.param(lambda: omega5_data().subgroup_group, (1, 6),
                 "c0b0d1662924d145aad3ef153f4ecfa9fe6e44dc90f98aad1b21d82f3d91470c",
                 id="2A5"),
    pytest.param(lambda: symmetric_group(4).subgroup(_v4_labels())[0], (1, 2),
                 "169b188cda0d966d993be09098ba8e46369ae1fca9818d622f9ba66c615da697",
                 id="V4"),
    pytest.param(lambda: symmetric_group(4).quotient_by(_v4_labels())[0], (1, 2),
                 "9dfd916f473a1eb89eb0bcf7ff90d3146358d33494a454db8127edf343447024",
                 id="S4_over_V4"),
])
def test_dump_roundtrip(build, gens, digest):
    G = build()
    assert G.generators == gens
    text = G.dump()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    lines = text.strip().split("\n")
    assert lines[0] == "0: e"
    words, rows = lines[: G.order], lines[G.order:]
    # words evaluate back to their labels
    for line in words:
        lab, word = line.split(": ")
        val = 0
        if word != "e":
            for tok in word.split("*"):
                val = G.mul(val, G.generators[int(tok[1:])])
        assert val == int(lab)
    table = np.array([[int(v) for v in r.split()] for r in rows])
    assert (table == G.table).all()


# -- subgroups, quotients ---------------------------------------------------


def test_subgroup_closure_and_subgroup():
    S4 = symmetric_group(4)
    v4 = _v4_labels()
    assert len(v4) == 4
    assert S4.is_subgroup(v4)
    H, incl = S4.subgroup(v4)
    assert H.order == 4 and H.is_abelian()
    for i in range(4):
        for j in range(4):
            assert incl[H.mul(i, j)] == S4.mul(incl[i], incl[j])


def test_quotient_s4_by_v4_is_s3():
    S4 = symmetric_group(4)
    v4 = _v4_labels()
    Q, qidx = S4.quotient_by(v4)
    assert Q.order == 6 and not Q.is_abelian()
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
            assert S3.mul(cs.reps[i], g) == S3.mul(q[i], cs.reps[pi(i)])
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
                assert qgh[i] == S4.mul(qg[i], qh[pig(i)])


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
        assert V.of(g) == ab.project(g)


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
        assert V.of(g) == acc
    # transfer is a homomorphism
    for a in range(8):
        for b in range(8):
            assert V.of(d4.mul(a, b)) == V.target_ab.add(V.of(a), V.of(b))
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
    assert symmetric_group(4).center() == (0,)
    assert cyclic_group(5).center() == (0, 1, 2, 3, 4)


def test_from_table_rejects_bad_identity():
    t = np.array([[1, 0], [0, 1]])
    with pytest.raises(ValueError):
        FiniteGroup([0, 1], t)


def test_declared_generators_must_generate():
    table = cyclic_group(4).table
    FiniteGroup(list(range(4)), table, generators=[3])
    with pytest.raises(ValueError, match="do not generate"):
        FiniteGroup(list(range(4)), table, generators=[2])
