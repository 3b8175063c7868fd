"""Cocycle and double-cover tests.

The Pin-lift table for S4 is checked against an independent oracle that
represents Clifford generators as signed permutation matrices acting on
the blade basis, with the sign rule derived separately from the blade
arithmetic used by the implementation.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from oracles import (cocycle_defect_labels, cyclic_group, delta1_matrix,
                     delta2_matrix, direct_product, pack_rows_gf2)
from quintrank import InternalCheckFailed
from quintrank.groups import (FiniteGroup, Permutation, abelianization,
                              alternating_group, symmetric_group)
from quintrank import cocycles as cz
from quintrank.cocycles import (Cocycle2, Gf2Solver, TooLarge,
                                central_extension, coboundary,
                                coboundary_witness, h1_dimension,
                                h2_dimension, pin_cocycle_sn, pin_lift,
                                restrict_cocycle, transposition_factorization,
                                verify_cocycle)


# -- independent Clifford oracle: integer matrices on the blade basis ------

def _gen_matrix(n, i):
    # e_i * e_A = (-1)^{#{j in A : j < i}} e_{A xor {i}}, as a matrix
    # acting on the 2^n blade basis by left multiplication.
    size = 1 << n
    M = np.zeros((size, size), dtype=np.int64)
    for a in range(size):
        below = a & ((1 << i) - 1)
        M[a ^ (1 << i), a] = -1 if below.bit_count() % 2 else 1
    return M


def _matrix_lifts(n):
    G = symmetric_group(n)
    gens = [_gen_matrix(n, i) for i in range(n)]
    lifts, lengths = [], []
    for p in G.elems:
        M = np.eye(1 << n, dtype=np.int64)
        fac = transposition_factorization(p)
        for i, j in fac:
            M = M @ (gens[i] - gens[j])
        lifts.append(M)
        lengths.append(len(fac))
    return G, np.stack(lifts), np.array(lengths)


def _oracle_pin_table(n):
    G, L, k = _matrix_lifts(n)
    order = G.order
    w = np.zeros((order, order), dtype=np.int8)
    t = G.table
    for a in range(order):
        prod = L[a][None] @ L            # raw products lift(a) lift(b)
        c = t[a]
        e = k[a] + k - k[c]              # raw scales: subadditive lengths
        assert (e >= 0).all() and not (e % 2).any()
        target = L[c] * (1 << (e // 2))[:, None, None]
        plus = (prod == target).all(axis=(1, 2))
        minus = (prod == -target).all(axis=(1, 2))
        assert (plus ^ minus).all()
        w[a] = np.where(minus, 1, 0)
    return w


def test_pin_table_s4_matches_matrix_oracle():
    assert (_oracle_pin_table(4) == pin_cocycle_sn(4).values).all()


def test_pin_table_s5_matches_matrix_oracle():
    assert (_oracle_pin_table(5) == pin_cocycle_sn(5).values).all()


# -- blade arithmetic on dense vectors ------------------------------------

def _vec(n, coeffs):
    v = np.zeros(1 << n, dtype=np.int64)
    for m, c in coeffs.items():
        v[m] = c
    return v


def _mul(a, b):
    return a @ cz._right_mul(b)


def _reflection(n, i, j):
    return _vec(n, {1 << i: 1, 1 << j: -1})


def test_blade_products_by_hand():
    e0, e1, e01 = _vec(2, {1: 1}), _vec(2, {2: 1}), _vec(2, {3: 1})
    assert (_mul(e0, e1) == e01).all()
    assert (_mul(e1, e0) == -e01).all()
    assert (_mul(e0, e0) == _vec(2, {0: 1})).all()


def test_reflection_braid_relation_by_hand():
    # (e0-e1)(e0-e2)(e0-e1) = -2(e1-e2), computed by hand
    v01, v02, v12 = (_reflection(3, 0, 1), _reflection(3, 0, 2),
                     _reflection(3, 1, 2))
    assert (_mul(_mul(v01, v02), v01) == -2 * v12).all()


def test_reflection_squares_to_one():
    # (e_i - e_j)^2 = 2, so the lift (e_i - e_j) / sqrt(2) squares to 1
    for i, j in itertools.combinations(range(5), 2):
        v = _reflection(5, i, j)
        assert (_mul(v, v) == _vec(5, {0: 2})).all()


def test_right_mul_matches_left_regular_oracle():
    # a @ R(b) against the left-regular matrix of a built from the
    # generator matrices: e_A = e_i1 e_i2 ... for the bits i1 < i2 < ...
    rng = np.random.default_rng(17)
    for n in range(1, 6):
        gens = [_gen_matrix(n, i) for i in range(n)]
        blade_mats = []
        for A in range(1 << n):
            M = np.eye(1 << n, dtype=np.int64)
            for i in range(n):
                if A >> i & 1:
                    M = M @ gens[i]
            blade_mats.append(M)
        for _ in range(20):
            a, b = rng.integers(-9, 10, size=(2, 1 << n))
            left = np.tensordot(a, np.stack(blade_mats), axes=1)
            assert (a @ cz._right_mul(b) == left @ b).all()


def test_factorization_reconstructs_permutation():
    rng = np.random.default_rng(11)
    for _ in range(100):
        images = tuple(rng.permutation(6).tolist())
        p = Permutation(images)
        prod = Permutation(tuple(range(6)))
        for i, j in transposition_factorization(p):
            prod = prod * Permutation.transposition(6, i, j)
        assert prod == p
        assert len(transposition_factorization(p)) == 6 - len(p.cycles())


def test_pin_lift_multiplicative_up_to_sign():
    G = symmetric_group(4)
    rng = np.random.default_rng(3)
    for _ in range(60):
        a, b = rng.integers(0, G.order, size=2)
        pa, pb = G.elems[a], G.elems[b]
        (va, ka), (vb, kb) = pin_lift(pa), pin_lift(pb)
        vc, kc = pin_lift(pa * pb)
        # lift(a) lift(b) = +-lift(ab) with lift = v / 2^(k/2)
        d = ka + kb - kc
        assert d >= 0 and d % 2 == 0
        prod, target = _mul(va, vb), vc * 2 ** (d // 2)
        assert (prod == target).all() or (prod == -target).all()


# -- cocycle core ----------------------------------------------------------

def test_pin5_is_a_cocycle_with_involutive_transposition_lifts():
    c = pin_cocycle_sn(5)
    assert verify_cocycle(c)
    G = symmetric_group(5)
    transpositions = [l for l, p in enumerate(G.elems) if p.is_transposition()]
    assert len(transpositions) == 10
    assert all(c.values[l, l] == 0 for l in transpositions)
    assert not c.values[0].any() and not c.values[:, 0].any()


def test_verify_rejects_single_flipped_entry():
    c = pin_cocycle_sn(4)
    vals = c.values.copy()
    vals[3, 5] ^= 1
    assert not verify_cocycle(Cocycle2(c.group, vals))


def test_row_chunks_tile_the_labels():
    for n, per_row in [(120, 120 * 120), (120, 120 * 32), (7, 1),
                       (1, 1 << 30)]:
        chunks = cz._row_chunks(n, per_row)
        assert chunks[0][0] == 0 and chunks[-1][1] == n
        assert all(hi == lo for (_, hi), (lo, _) in zip(chunks, chunks[1:]))
        assert all((hi - lo) * per_row <= cz._CHUNK_ENTRIES or hi - lo == 1
                   for lo, hi in chunks)


@pytest.mark.parametrize("where", ["second_chunk", "last_chunk"])
def test_verify_rejects_flips_at_chunk_edges(where):
    c = pin_cocycle_sn(5)
    chunks = cz._row_chunks(120, 120 * 120)
    assert len(chunks) > 2
    g = chunks[1][0] if where == "second_chunk" else 119
    vals = c.values.copy()
    vals[g, 7] ^= 1
    bad = Cocycle2(c.group, vals)
    assert not verify_cocycle(bad)
    # a flip shows at every g but the identity; a slice skipped or
    # checked twice by the chunk loop would change this list
    want = cocycle_defect_labels(c.group, vals)
    assert want == list(range(1, 120))
    assert cz._defect_labels(bad) == want


def test_pin5_table_does_not_depend_on_the_chunk_size(monkeypatch):
    # 7-row slices end inside the default ones, so a row dropped or
    # written twice at a slice edge changes the table
    want = pin_cocycle_sn(5).values
    monkeypatch.setattr(cz, "_CHUNK_ENTRIES", 7 * 120 * 32)
    assert len(cz._row_chunks(120, 120 * 32)) == 18
    assert (cz.pin_cocycle_sn.__wrapped__(5).values == want).all()


def test_pin5_sign_check_rejects_a_wrong_last_lift(monkeypatch):
    last = symmetric_group(5).elems[119]
    bivector = _vec(5, {0b11: 1})
    real = cz.pin_lift

    def wrong_last(p):
        v, k = real(p)
        return (_mul(v, bivector), k) if p == last else (v, k)
    monkeypatch.setattr(cz, "pin_lift", wrong_last)
    with pytest.raises(InternalCheckFailed, match="up to sign"):
        cz.pin_cocycle_sn.__wrapped__(5)


def _traced_peak_mb(fn) -> float:
    """Peak traced allocation of fn() in MB; numpy reports its buffers
    to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


# The dense versions of these (a full n^3 check chunk and a dense delta2
# matrix mod 2) peaked at 66 MB and 17 MB.
PEAK_BOUND_MB = 12


def test_pin5_build_and_verify_stay_in_bounded_memory():
    peak = _traced_peak_mb(
        lambda: verify_cocycle(cz.pin_cocycle_sn.__wrapped__(5)))
    assert peak < PEAK_BOUND_MB


def test_h2_s4_stays_in_bounded_memory():
    S4 = symmetric_group(4)
    peak = _traced_peak_mb(lambda: h2_dimension(S4))
    assert peak < PEAK_BOUND_MB


def test_zero_cochain_is_a_cocycle():
    G = symmetric_group(4)
    z = Cocycle2(G, np.zeros((G.order, G.order), dtype=np.int8))
    assert verify_cocycle(z)
    w = coboundary_witness(z)
    assert w is not None and not coboundary(G, w).any()


def test_coboundaries_are_cocycles():
    # delta2 after delta1 vanishes
    G = symmetric_group(3)
    rng = np.random.default_rng(5)
    for _ in range(10):
        c = rng.integers(0, 2, size=G.order)
        c[0] = 0
        coc = Cocycle2(G, coboundary(G, c))
        assert verify_cocycle(coc)
        w = coboundary_witness(coc)
        assert w is not None
        assert (coboundary(G, w) == coc.values).all()


def test_pin5_class_is_nonzero_and_stays_nonzero_on_a5():
    c = pin_cocycle_sn(5)
    assert coboundary_witness(c) is None
    G = symmetric_group(5)
    a5 = [l for l, p in enumerate(G.elems) if p.is_even()]
    ca5, incl = restrict_cocycle(c, a5)
    assert verify_cocycle(ca5)
    assert coboundary_witness(ca5) is None
    # the restricted table agrees with the parent through the inclusion
    sub = np.array(incl)
    assert (ca5.values == c.values[np.ix_(sub, sub)]).all()


def test_pin5_splits_on_a_transposition_subgroup():
    c = pin_cocycle_sn(5)
    G = symmetric_group(5)
    t = next(l for l, p in enumerate(G.elems) if p.is_transposition())
    sub = G.subgroup_closure([t])
    csub, _ = restrict_cocycle(c, sub)
    w = coboundary_witness(csub)
    assert w is not None
    assert (coboundary(csub.group, w) == csub.values).all()


# -- GF(2) solver ----------------------------------------------------------

def test_gf2_solver_against_random_systems():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m, n = rng.integers(2, 12), rng.integers(2, 10)
        A = rng.integers(0, 2, size=(m, n))
        x0 = rng.integers(0, 2, size=n)
        b = (A @ x0) % 2
        solver = Gf2Solver()
        for i in range(m):
            row = int(b[i])
            for j in range(n):
                if A[i, j]:
                    row |= 1 << (j + 1)
            solver.add(row)
        sol = solver.solve()
        assert sol is not None
        x = np.array([(sol >> j) & 1 for j in range(n)])
        assert ((A @ x) % 2 == b).all()


def test_gf2_solver_detects_inconsistency():
    solver = Gf2Solver()
    solver.add(0b010 | 0)   # x0 = 0
    solver.add(0b010 | 1)   # x0 = 1
    assert solver.inconsistent and solver.solve() is None


# -- cohomology dimensions -------------------------------------------------

def _enum_h2(G):
    # direct enumeration over normalized 2-cochains; independent oracle
    n, t = G.order, G.table
    free = [(g, h) for g in range(1, n) for h in range(1, n)]
    count_z = 0
    for flat in itertools.product(range(2), repeat=len(free)):
        w = np.zeros((n, n), dtype=np.int64)
        for (g, h), v in zip(free, flat):
            w[g, h] = v
        ok = all(
            (w[h, k] - w[t[g, h], k] + w[g, t[h, k]] - w[g, h]) % 2 == 0
            for g in range(n) for h in range(n) for k in range(n))
        if ok:
            count_z += 1
    borders = set()
    for cf in itertools.product(range(2), repeat=n - 1):
        c = np.array((0,) + cf)
        borders.add(tuple(coboundary(G, c).ravel().tolist()))
    q, rem = divmod(count_z, len(borders))
    assert rem == 0
    return q.bit_length() - 1


def test_h2_small_groups_match_enumeration():
    for G in (cyclic_group(2), cyclic_group(3)):
        assert h2_dimension(G) == _enum_h2(G)


def test_h2_classical_values():
    S4, A4, C2 = symmetric_group(4), alternating_group(4), cyclic_group(2)
    assert h2_dimension(S4) == 2
    assert h2_dimension(A4) == 1
    assert h2_dimension(C2) == 1


def test_h2_invariant_under_relabeling():
    S4 = symmetric_group(4)
    rng = np.random.default_rng(23)
    g = int(rng.integers(1, S4.order))
    gi = S4.inverse(g)
    pi = np.array([S4.mul(S4.mul(gi, x), g) for x in range(S4.order)])
    inv_pi = np.argsort(pi)
    table = inv_pi[S4.table[np.ix_(pi, pi)]]
    relabeled = FiniteGroup([S4.elems[p] for p in pi], table)
    assert h2_dimension(relabeled) == 2


def test_h1_values():
    S5, A5, A4 = symmetric_group(5), alternating_group(5), alternating_group(4)
    C2 = cyclic_group(2)
    assert h1_dimension(S5) == 1
    assert h1_dimension(A5) == 0
    assert h1_dimension(A4) == 0
    assert h1_dimension(C2) == 1


@pytest.mark.parametrize("build", [lambda: symmetric_group(3),
                                   lambda: alternating_group(4),
                                   lambda: symmetric_group(4)],
                         ids=["S3", "A4", "S4"])
def test_sparse_coboundary_rows_match_dense_matrices(build):
    G = build()
    n = G.order
    d2, d1 = cz._delta2_rows_gf2(G), cz._delta1_rows_gf2(G)
    assert (len(d2), len(d1)) == (n ** 3, n ** 2)
    assert set(d2) - {0} == pack_rows_gf2(delta2_matrix(G))
    assert set(d1) - {0} == pack_rows_gf2(delta1_matrix(G))


def test_h1_sparse_rows_match_dense_rank():
    for G in (symmetric_group(5), alternating_group(5)):
        dense = pack_rows_gf2(delta1_matrix(G))
        assert h1_dimension(G) == G.order - cz._gf2_rank_of_rows(dense)


def test_pack_rows_gf2_matches_bit_loop():
    rng = np.random.default_rng(5)
    A = rng.integers(0, 4, size=(200, 77)).astype(np.int8)
    A[:3] = 2  # even rows pack to zero and are dropped
    want = {sum(1 << j for j in np.nonzero(row % 2)[0].tolist())
            for row in A} - {0}
    assert pack_rows_gf2(A) == want


def test_h2_cap_raises():
    big = central_extension(symmetric_group(4), pin_cocycle_sn(4)).group
    assert big.order == 48
    with pytest.raises(TooLarge):
        h2_dimension(big)
    huge = direct_product(symmetric_group(5), cyclic_group(3))
    with pytest.raises(TooLarge):
        h1_dimension(huge)


# -- central extensions ----------------------------------------------------

def test_extension_projection_is_a_homomorphism():
    G = symmetric_group(4)
    ext = central_extension(G, pin_cocycle_sn(4))
    E, proj = ext.group, ext.projection
    assert E.order == 48
    assert (proj[E.table] == G.table[np.ix_(proj, proj)]).all()
    # (c, g) has label c * n + g
    n = G.order
    for g in range(n):
        assert proj[g] == g
        assert proj[n + g] == g
    center = [c[0] for c in E.conjugacy_classes() if len(c) == 1]
    assert set(ext.central) <= set(center)
    assert E.order_of(ext.central[1]) == 2


def test_double_cover_s5_transposition_lifts_have_order_two():
    G = symmetric_group(5)
    ext = central_extension(G, pin_cocycle_sn(5))
    assert ext.group.order == 240
    for l, p in enumerate(G.elems):
        if p.is_transposition():
            # the lifts (0, l) and (1, l), labels l and n + l
            assert ext.group.order_of(l) == 2
            assert ext.group.order_of(G.order + l) == 2


def test_double_cover_s5_four_cycle_lifts():
    # order 8, or the square is a noncentral involution
    G = symmetric_group(5)
    ext = central_extension(G, pin_cocycle_sn(5))
    E = ext.group
    central = set(ext.central)
    seen = False
    for l, p in enumerate(G.elems):
        if p.cycle_type() == (4, 1):
            e = l  # the lift (0, l)
            o = E.order_of(e)
            sq = E.mul(e, e)
            assert o == 8 or (sq not in central and E.order_of(sq) == 2)
            seen = True
    assert seen


def test_extension_order_census_from_cocycle_sums():
    # order of (0, g), label g: k if the cocycle sums to 0 along the cyclic
    # subgroup, else 2k; independent of the table-power route
    G = symmetric_group(5)
    c = pin_cocycle_sn(5)
    ext = central_extension(G, c)
    E = ext.group
    for l in range(G.order):
        k = G.order_of(l)
        acc, x = 0, l
        for _ in range(k - 1):
            acc ^= int(c.values[x, l])
            x = G.mul(x, l)
        expected = k if acc == 0 else 2 * k
        assert E.order_of(l) == expected


def test_binary_icosahedral_from_a5_restriction():
    G = symmetric_group(5)
    a5 = [l for l, p in enumerate(G.elems) if p.is_even()]
    ca5, _ = restrict_cocycle(pin_cocycle_sn(5), a5)
    ext = central_extension(ca5.group, ca5)
    E = ext.group
    assert E.order == 120
    census = E.order_census()
    assert census[2] == 1                      # unique involution
    assert abelianization(E).factors == ()     # perfect
    for l in range(E.order):
        if E.order_of(l) == 4:
            assert E.mul(l, l) == ext.central[1]


def test_sl23_from_a4_restriction():
    G = symmetric_group(4)
    a4 = [l for l, p in enumerate(G.elems) if p.is_even()]
    ca4, _ = restrict_cocycle(pin_cocycle_sn(4), a4)
    ext = central_extension(ca4.group, ca4)
    E = ext.group
    assert E.order == 24
    assert E.order_census()[2] == 1
    Q, _ = E.quotient_by(ext.central)
    assert Q.order == 12 and abelianization(Q).factors == (3,)


def test_zero_cocycle_gives_split_extension():
    G = symmetric_group(4)
    z = Cocycle2(G, np.zeros((G.order, G.order), dtype=np.int8))
    ext = central_extension(G, z)
    ref = direct_product(cyclic_group(2), G)
    assert ext.group.order_census() == ref.order_census()
    assert ext.group.order_census()[2] > 1


def test_cohomologous_cocycles_give_isomorphic_extensions():
    # (x, g) -> (x + c(g), g) maps the shifted extension onto the original
    rng = np.random.default_rng(29)
    G = symmetric_group(4)
    base = pin_cocycle_sn(4)
    c = rng.integers(0, 2, size=G.order)
    c[0] = 0
    shifted = Cocycle2(G, base.values ^ coboundary(G, c))
    assert verify_cocycle(shifted)
    e1 = central_extension(G, base)
    e2 = central_extension(G, shifted)
    n = G.order
    labels = np.arange(2 * n)
    cs, gs = labels // n, labels % n
    phi = ((cs + c[gs]) % 2) * n + gs  # e2 -> e1
    assert (phi[e2.group.table] == e1.group.table[np.ix_(phi, phi)]).all()
    assert len(set(phi.tolist())) == 2 * n


def test_extension_is_deterministic():
    census1 = central_extension(symmetric_group(5),
                                pin_cocycle_sn(5)).group.order_census()
    pin_cocycle_sn.cache_clear()
    census2 = central_extension(symmetric_group(5),
                                pin_cocycle_sn(5)).group.order_census()
    assert census1 == census2


def test_cocycle_rejects_unnormalized_table():
    G = cyclic_group(2)
    bad = np.array([[0, 1], [0, 0]], dtype=np.int8)
    with pytest.raises(ValueError):
        Cocycle2(G, bad)
