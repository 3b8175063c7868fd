"""Representation layer tests: quaternion groups, isomorphism search,
tensor induction, the index-2 reducibility criterion, and the exact
standard-representation checks."""

import math

import numpy as np
import pytest

from oracles import (M16, cyclic_group, direct_product,
                     find_isomorphism_by_arrays, is_homomorphism,
                     quaternion_group_by_arrays,
                     quaternion_table_by_all_products,
                     quaternion_table_by_nearest_neighbour,
                     tensor_induction_by_kron)
from test_cocycles import PEAK_BOUND_MB, _traced_peak_mb
from quintrank import icosians
from quintrank.groups import (CosetSystem, Permutation, abelianization,
                              close_generators, coset_factorization,
                              symmetric_group, transfer)
from quintrank.icosians import (CHARPOLY, GOLDEN, double_cover,
                                find_isomorphism, hurwitz_quaternions, icosian_quaternions,
                                induced_character, quaternion_group,
                                standard_rep_checks)
from quintrank.reps import (Character, ClosureFailure, DimensionOverflow,
                            NonIntegral, PreconditionViolated, Representation,
                            binary_octahedral_data, criterion_catalog,
                            decomposition_profile, dual_twist_reducibility,
                            hurwitz_unit_group, icosian_group, inner_product,
                            linear_characters, omega5_data, tensor_induction,
                            verify_standard_rep)

PHI = (1 + np.sqrt(5)) / 2


# -- quaternion groups -------------------------------------------------------

def test_icosian_group_structure():
    G, rep = icosian_group()
    assert G.order == 120
    center = [c[0] for c in G.conjugacy_classes() if len(c) == 1]
    assert len(center) == 2 and 0 in center
    z = next(c for c in center if c != 0)
    assert G.order_of(z) == 2
    Q, _ = G.quotient_by(center)
    assert Q.order == 60
    assert abelianization(Q).factors == ()
    assert abelianization(G).factors == ()


def test_icosian_traces_land_in_golden_set():
    _, rep = icosian_group()
    traces = np.trace(rep.images, axis1=1, axis2=2)
    assert np.abs(traces.imag).max() < 1e-9
    allowed = np.array([2, -2, 1, -1, 0, PHI, -PHI, PHI - 1, 1 - PHI])
    for t in traces.real:
        assert np.abs(allowed - t).min() < 1e-9


def test_icosian_rep_is_an_irreducible_homomorphism():
    G, rep = icosian_group()
    assert is_homomorphism(rep)
    dets = np.linalg.det(rep.images)
    assert np.abs(dets - 1).max() < 1e-9
    chi = rep.character()
    assert abs(inner_product(chi, chi) - 1) < 1e-9


def test_hurwitz_group_is_binary_tetrahedral():
    G, rep = hurwitz_unit_group()
    assert G.order == 24
    assert is_homomorphism(rep)
    assert G.order_census()[2] == 1
    assert abelianization(G).factors == (3,)


def test_closure_failure_on_alien_quaternion():
    alien = (math.cos(0.3), math.sin(0.3), 0.0, 0.0)
    quats = hurwitz_quaternions() + [alien]
    with pytest.raises(ClosureFailure):
        quaternion_group(quats, "broken")


def test_closure_failure_on_tiny_separation():
    quats = hurwitz_quaternions()
    near_dup = tuple(x + 1e-5 for x in quats[3])
    with pytest.raises(ClosureFailure):
        quaternion_group(quats + [near_dup], "broken")


QUATERNION_SETS = pytest.mark.parametrize(
    "quats", [hurwitz_quaternions, icosian_quaternions],
    ids=["hurwitz", "icosian"])


@QUATERNION_SETS
def test_exact_table_matches_nearest_neighbour_oracle(quats):
    floats = np.array(quats())
    G, _ = quaternion_group(quats(), "x")
    order, table = quaternion_table_by_nearest_neighbour(floats)
    assert (np.asarray(G.table) == table).all()
    assert list(G.elems) == [tuple(q) for q in floats[order]]


@QUATERNION_SETS
def test_table_from_generator_columns_matches_all_products(quats):
    floats = np.array(quats())
    G, _ = quaternion_group(quats(), "x")
    order, table = quaternion_table_by_all_products(floats)
    assert (np.asarray(G.table) == table).all()
    assert list(G.elems) == [tuple(q) for q in floats[order]]


@QUATERNION_SETS
def test_pure_closure_matches_the_numpy_closure(quats):
    G, exact = quaternion_group(quats(), "x")
    H, exact_arrays = quaternion_group_by_arrays(np.array(quats()))
    assert G.table == H.table
    assert G.elems == H.elems
    assert all(type(x) is float for q in G.elems for x in q)
    assert np.array(exact).tolist() == exact_arrays.tolist()


@pytest.mark.parametrize("floats, exact", [
    (hurwitz_unit_group, icosians.hurwitz_unit_group),
    (icosian_group, icosians.icosian_group)], ids=["hurwitz", "icosian"])
def test_float_layer_keeps_the_exact_closure(floats, exact):
    # the float view wraps the cached exact group, without a closure of
    # its own, and its images are the tautological matrices of the floats
    G, rep = floats()
    assert G is exact()[0]
    a, b, c, d = np.array(G.elems).T
    want = np.stack([a + 1j * b, c + 1j * d, -c + 1j * d, a - 1j * b],
                    axis=-1).reshape(-1, 2, 2)
    assert np.array_equal(rep.images, want)


@QUATERNION_SETS
def test_closure_failure_on_a_dropped_member(quats):
    floats = quats()
    for drop in (1, 2, len(floats) // 2, len(floats) - 1):
        with pytest.raises(ClosureFailure, match="not in the set"):
            quaternion_group(floats[:drop] + floats[drop + 1:], "broken")


def test_closure_failure_on_repeat_and_non_unit():
    quats = hurwitz_quaternions()
    with pytest.raises(ClosureFailure, match="repeat"):
        quaternion_group(quats + [quats[3]], "broken")
    half = (0.5, 0.5, 0.0, 0.0)  # snaps, but has norm 1/2
    with pytest.raises(ClosureFailure, match="unit"):
        quaternion_group(quats + [half], "broken")


@pytest.mark.parametrize("bad, message", [
    ((1.5, 0.0, 0.0, 0.0), "does not lie"),  # |x| > 1
    ((0.5, 0.5, 0.5, 0.5 + 1e-7), "does not lie"),
])
def test_pure_and_numpy_snaps_fail_alike(bad, message):
    quats = hurwitz_quaternions() + [bad]
    with pytest.raises(ClosureFailure, match=message):
        quaternion_group(quats, "broken")
    with pytest.raises(ClosureFailure, match=message):
        quaternion_group_by_arrays(np.array(quats))


def test_icosian_table_stays_in_bounded_memory():
    floats = icosian_quaternions()
    peak = _traced_peak_mb(lambda: quaternion_group(floats, "x"))
    assert peak < PEAK_BOUND_MB


# -- isomorphism search ------------------------------------------------------

def test_find_isomorphism_census_mismatch():
    assert find_isomorphism(
        cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))
    ) is None


def test_find_isomorphism_identity_case():
    S4 = symmetric_group(4)
    phi = find_isomorphism(S4, S4)
    assert phi is not None
    phi = np.asarray(phi)
    t = np.asarray(S4.table)
    assert (phi[t] == t[np.ix_(phi, phi)]).all()


def test_find_isomorphism_cyclic_product():
    C6 = cyclic_group(6)
    C2xC3 = direct_product(cyclic_group(2), cyclic_group(3))
    phi = find_isomorphism(C6, C2xC3)
    assert phi is not None
    phi = np.asarray(phi)
    assert (phi[np.asarray(C6.table)]
            == np.asarray(C2xC3.table)[np.ix_(phi, phi)]).all()
    assert len(set(phi.tolist())) == 6


def test_find_isomorphism_same_census_different_groups():
    # modular group of order 16 vs C8 x C2: identical order censuses,
    # not isomorphic (one is abelian), so the search must exhaust
    m16 = close_generators([M16((1, 0)), M16((0, 1))], name="m16")
    c8xc2 = direct_product(cyclic_group(8), cyclic_group(2))
    t = np.asarray(m16.table)
    assert m16.order == 16 and not (t == t.T).all()
    assert m16.order_census() == c8xc2.order_census()
    assert find_isomorphism(m16, c8xc2) is None


def test_extend_partial_carries_homomorphisms_and_rejects_collisions():
    C4, C2, C3 = cyclic_group(4), cyclic_group(2), cyclic_group(3)
    assert icosians._extend_partial(C4, C2, [1], [1]) == {0: 0, 1: 1, 2: 0, 3: 1}
    # 1 -> 1 in C3 breaks 1^4 = 1: the edge 3 * 1 = 0 lands on 1, not 0
    assert icosians._extend_partial(C4, C3, [1], [1]) is None


ISOMORPHISM_CASES = {
    "S4": lambda: (symmetric_group(4), symmetric_group(4)),
    "C6": lambda: (cyclic_group(6),
                   direct_product(cyclic_group(2), cyclic_group(3))),
    "m16": lambda: (close_generators([M16((1, 0)), M16((0, 1))]),
                    direct_product(cyclic_group(8), cyclic_group(2))),
    "C4-V4": lambda: (cyclic_group(4),
                      direct_product(cyclic_group(2), cyclic_group(2))),
    "2A4": lambda: (double_cover(4).subgroup_group, double_cover(4).units),
    "2A5": lambda: (double_cover(5).subgroup_group, double_cover(5).units),
}


@pytest.mark.parametrize("case", list(ISOMORPHISM_CASES))
def test_find_isomorphism_matches_the_numpy_search(case):
    G1, G2 = ISOMORPHISM_CASES[case]()
    phi = find_isomorphism(G1, G2)
    want = find_isomorphism_by_arrays(G1, G2)
    if want is None:
        assert phi is None
    else:
        assert isinstance(phi, tuple) and list(phi) == want.tolist()


def test_find_isomorphism_cap():
    big = direct_product(symmetric_group(5), cyclic_group(3))
    with pytest.raises(ValueError):
        find_isomorphism(big, big)


# -- tensor induction --------------------------------------------------------

def _closed_form_index2(cs, theta, rho):
    # with representatives (identity, theta):
    #   g in Q:     rho(g) (x) rho(theta g theta^-1)
    #   g not in Q: (rho(g theta^-1) (x) rho(theta g)) . swap
    G = cs.group
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    th_inv = G.inverse(theta)
    d = rho.dim
    swap = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    images = np.empty((G.order, d * d, d * d), dtype=np.complex128)
    for g in range(G.order):
        if cs.coset_of[g] == 0:
            a = rho.images[pos[g]]
            b = rho.images[pos[G.mul(G.mul(theta, g), th_inv)]]
            images[g] = np.kron(a, b)
        else:
            a = rho.images[pos[G.mul(g, th_inv)]]
            b = rho.images[pos[G.mul(theta, g)]]
            images[g] = np.kron(a, b) @ swap
    return images


@pytest.mark.parametrize("data_fn", [binary_octahedral_data, omega5_data])
def test_index2_closed_form_matches_general(data_fn):
    data = data_fn()
    G = data.extension.group
    theta = data.transposition_lifts[0]
    cs = CosetSystem.build(G, data.coset_system.subgroup, reps=(0, theta))
    induced = tensor_induction(cs, data.rho)
    closed = _closed_form_index2(cs, theta, data.rho)
    assert np.abs(induced.images - closed).max() <= 1e-8


@pytest.mark.parametrize("data_fn", [binary_octahedral_data, omega5_data])
def test_off_subgroup_trace_is_chi_of_square(data_fn):
    data = data_fn()
    G = data.extension.group
    cs = data.coset_system
    induced = tensor_induction(cs, data.rho)
    chi = data.rho.character().values
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    for g in range(G.order):
        if cs.coset_of[g] != 0:
            sq = G.mul(g, g)
            expect = chi[pos[sq]]
            assert abs(np.trace(induced.images[g]) - expect) <= 1e-8


def test_tensor_induction_identity_and_dimension():
    data = omega5_data()
    induced = tensor_induction(data.coset_system, data.rho)
    assert induced.dim == 4
    assert np.abs(induced.images[0] - np.eye(4)).max() <= 1e-12


def test_tensor_induction_homomorphism_binary_octahedral():
    data = binary_octahedral_data()
    induced = tensor_induction(data.coset_system, data.rho)
    assert is_homomorphism(induced)


def test_tensor_induction_homomorphism_omega5_sampled():
    data = omega5_data()
    induced = tensor_induction(data.coset_system, data.rho)
    G = data.extension.group
    rng = np.random.default_rng(41)
    for _ in range(1500):
        a, b = rng.integers(0, G.order, size=2)
        prod = induced.images[a] @ induced.images[b]
        assert np.abs(prod - induced.images[G.mul(a, b)]).max() <= 1e-8


def test_character_independent_of_representatives():
    data = omega5_data()
    G = data.extension.group
    cs1 = data.coset_system
    other = next(g for g in range(G.order)
                 if cs1.coset_of[g] == 1 and g != cs1.reps[1])
    cs2 = CosetSystem.build(G, cs1.subgroup, reps=(0, other))
    chi1 = tensor_induction(cs1, data.rho).character().values
    chi2 = tensor_induction(cs2, data.rho).character().values
    assert np.abs(chi1 - chi2).max() <= 1e-8


def test_tensor_induction_index_four():
    # S4 over the point stabilizer of 3, with the 2-dim sum-zero rep of S3
    S4 = symmetric_group(4)
    stab = [l for l, p in enumerate(S4.elems) if p.images[3] == 3]
    Sub, incl = S4.subgroup(stab)
    basis = np.array([[1.0, 1.0], [-1.0, 1.0], [0.0, -2.0]])
    basis /= np.linalg.norm(basis, axis=0)
    images = []
    for p in Sub.elems:
        # group elements compose by right action, so the matrix model
        # sends p to the permutation matrix of p^-1
        P = np.zeros((3, 3))
        for i in range(3):
            P[i, p.images[i]] = 1.0
        images.append(basis.T @ P @ basis)
    rho = Representation(Sub, np.stack(images), 2)
    assert is_homomorphism(rho)
    cs = CosetSystem.build(S4, stab)
    induced = tensor_induction(cs, rho)
    assert induced.dim == 16
    assert is_homomorphism(induced)
    want = tensor_induction_by_kron(cs, rho)
    assert induced.images.tobytes() == want.tobytes()


@pytest.mark.parametrize("data_fn", [binary_octahedral_data, omega5_data])
def test_tensor_induction_bytes_match_kron_oracle(data_fn):
    data = data_fn()
    induced = tensor_induction(data.coset_system, data.rho)
    want = tensor_induction_by_kron(data.coset_system, data.rho)
    assert induced.images.tobytes() == want.tobytes()


def test_tensor_induction_dimension_overflow():
    C4 = cyclic_group(4)
    sub = [0, 2]
    Sub, _ = C4.subgroup(sub)
    images = np.stack([np.eye(9), np.eye(9)]).astype(complex)
    rho = Representation(Sub, images, 9)
    with pytest.raises(DimensionOverflow):
        tensor_induction(CosetSystem.build(C4, sub), rho)


# -- characters and decomposition --------------------------------------------

def test_inner_product_basics():
    S5 = symmetric_group(5)
    triv = Character(S5, np.ones(S5.order))
    assert abs(inner_product(triv, triv) - 1) < 1e-12
    std = Character(S5, np.array([p.fixed_points() - 1 for p in S5.elems],
                                 dtype=complex))
    assert abs(inner_product(std, std) - 1) < 1e-9


def test_decomposition_profile_examples():
    S4 = symmetric_group(4)
    std3 = Character(S4, np.array([p.fixed_points() - 1 for p in S4.elems],
                                  dtype=complex))
    triv = Character(S4, np.ones(S4.order))
    prof = decomposition_profile(S4, Character(S4, std3.values + triv.values))
    assert prof["selfnorm"] == 2
    assert sum(prof["linear_multiplicities"]) == 1
    prof16 = decomposition_profile(S4, Character(S4, 4 * triv.values))
    assert prof16["selfnorm"] == 16
    with pytest.raises(NonIntegral):
        decomposition_profile(S4, Character(S4, triv.values + 0.5))


def test_linear_characters_s4_and_perfect_groups():
    S4 = symmetric_group(4)
    lams = linear_characters(S4)
    assert len(lams) == 2
    assert np.abs(lams[0].values - 1).max() < 1e-12
    parity = np.array([1.0 if p.is_even() else -1.0 for p in S4.elems])
    assert np.abs(lams[1].values - parity).max() < 1e-9
    ico, _ = icosian_group()
    assert len(linear_characters(ico)) == 1
    hw, _ = hurwitz_unit_group()
    cube = linear_characters(hw)
    assert len(cube) == 3
    for lam in cube:
        assert np.abs(lam.values ** 3 - 1).max() < 1e-9


# -- reducibility criterion ---------------------------------------------------

def test_criterion_catalog_agreement():
    for inst in criterion_catalog():
        res = dual_twist_reducibility(inst["cs"], inst["theta"], inst["rho"])
        assert res["criterion_holds"] == res["reducible"], inst["name"]
        if res["reducible"]:
            assert res["selfnorm"] == 2, inst["name"]
            assert sum(res["linear_multiplicities"]) == 1, inst["name"]
        else:
            assert res["selfnorm"] == 1, inst["name"]
            assert sum(res["linear_multiplicities"]) == 0, inst["name"]


def test_icosian_induction_is_irreducible():
    ico = omega5_data()
    res = dual_twist_reducibility(ico.coset_system,
                                  ico.transposition_lifts[0], ico.rho)
    assert not res["criterion_holds"] and not res["reducible"]


def test_binary_octahedral_inductions_are_reducible():
    data = binary_octahedral_data()
    res = dual_twist_reducibility(data.coset_system,
                                  data.transposition_lifts[0], data.rho)
    assert res["criterion_holds"] and res["reducible"]


def test_criterion_rejects_cyclic_projective_image():
    r = Permutation.from_cycles(4, (0, 1, 2, 3))
    s = Permutation.from_cycles(4, (1, 3))
    D4 = close_generators([r, s], name="d4")
    assert D4.order == 8
    rot_labels = D4.subgroup_closure([next(
        l for l, p in enumerate(D4.elems) if p == r)])
    Sub, incl = D4.subgroup(rot_labels)
    # diag(i^k, (-i)^k) on the rotation subgroup: projective image C2
    images = []
    for p in Sub.elems:
        k = next(j for j in range(4) if _cycle_power(r, j) == p)
        images.append(np.diag([1j ** k, (-1j) ** k]))
    rho = Representation(Sub, np.stack(images), 2)
    cs = CosetSystem.build(D4, rot_labels)
    theta = next(l for l in range(8) if cs.coset_of[l] == 1)
    with pytest.raises(PreconditionViolated):
        dual_twist_reducibility(cs, theta, rho)


def _cycle_power(r, j):
    out = Permutation(tuple(range(r.degree)))
    for _ in range(j):
        out = out * r
    return out


def test_criterion_rejects_theta_inside_subgroup():
    data = binary_octahedral_data()
    with pytest.raises(ValueError):
        dual_twist_reducibility(data.coset_system, 0, data.rho)


# -- the standard representation pipeline ------------------------------------

@pytest.mark.parametrize("n, data_fn", [(4, binary_octahedral_data),
                                        (5, omega5_data)])
def test_exact_character_matches_the_float_trace(n, data_fn):
    cover = double_cover(n)
    chi = induced_character(cover)
    assert len(chi) == cover.extension.group.order == 2 * math.factorial(n)
    exact = np.array([a + b * GOLDEN for a, b in chi])
    data = data_fn()
    induced = tensor_induction(data.coset_system, data.rho)
    traces = np.trace(induced.images, axis1=1, axis2=2)
    assert np.abs(traces - exact).max() <= 1e-12


def test_standard_rep_checks_pass_exactly():
    checks = standard_rep_checks()
    assert checks.passed == (True, True, True, True)
    assert checks.matched == checks.total == 240


def test_standard_rep_checks_fail_on_twice_the_trivial_character():
    # 2 = fix - 1 only on the 20 transposition lifts, so (c) alone holds
    checks = standard_rep_checks([(2, 0)] * 240)
    assert checks.passed == (False, False, True, False)
    assert checks.matched == 20 < checks.total


def test_standard_rep_checks_fail_where_newton_leaves_z_phi():
    # p_1 = chi(theta) = 1 and p_2 = chi(1) = 0 give e_2 = 1/2
    theta = double_cover(5).transposition_lifts[0]
    chi = [(0, 0)] * 240
    chi[theta] = (1, 0)
    checks = standard_rep_checks(chi)
    assert checks.passed == (False, False, False, False)
    # 0 = fix - 1 on the lifts of the 15 double transpositions and the
    # 30 four-cycles
    assert checks.matched == 90


def test_charpoly_from_power_sums():
    assert icosians._charpoly([(2, 0), (4, 0), (2, 0), (4, 0)]) == CHARPOLY
    # roots phi and 1: p_1 = 1 + phi, p_2 = phi^2 + 1 = 2 + phi
    assert icosians._charpoly([(1, 1), (2, 1)]) == ((1, 0), (-1, -1), (0, 1))
    assert icosians._charpoly([(1, 0), (0, 0)]) is None


def test_verify_standard_rep_all_checks_pass():
    report = verify_standard_rep()
    assert report["all_pass"]
    assert len(report["checks"]) == 4
    for check in report["checks"]:
        assert {"name", "expected", "computed", "passed"} <= set(check)
        assert check["passed"]


def test_transported_icosian_rep_is_homomorphism():
    data = omega5_data()
    assert is_homomorphism(data.rho)
    assert data.subgroup_group.order == 120


def test_det_of_transfer_is_trivial():
    # transfer lands in the abelianization of the perfect subgroup, and
    # the direct product of det(rho) over coset factors is 1 everywhere
    data = omega5_data()
    cs = data.coset_system
    G = data.extension.group
    tm = transfer(cs)
    assert all(v == () for v in tm.values)
    dets = np.linalg.det(data.rho.images)
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    for g in range(G.order):
        _, qs = coset_factorization(cs, g)
        prod = np.prod([dets[pos[q]] for q in qs])
        assert abs(prod - 1) <= 1e-8


def test_transfer_invariant_under_representative_choice():
    data = omega5_data()
    G = data.extension.group
    cs1 = data.coset_system
    other = next(g for g in range(G.order)
                 if cs1.coset_of[g] == 1 and g != cs1.reps[1])
    cs2 = CosetSystem.build(G, cs1.subgroup, reps=(0, other))
    assert transfer(cs1).values == transfer(cs2).values
