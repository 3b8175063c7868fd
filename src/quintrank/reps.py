"""Complex representations of finite groups at desk scale.

Group and cocycle layers are exact; this layer uses double-precision
complex matrices with two tolerances: 1e-8 for entrywise matrix
comparisons and 1e-6 for character values that must round to integers.

The main constructions: the icosian group (120 unit quaternions with
golden-ratio coordinates) with its tautological 2-dimensional
representation, tensor induction along a coset system, and the
reducibility criterion for an index-2 tensor induction of a
2-dimensional representation via dual-twist character matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import InternalCheckFailed
from .cocycles import central_extension, pin_cocycle_sn
from .groups import (CosetSystem, FiniteGroup, Permutation, _bfs,
                     abelianization, coset_factorization, symmetric_group)

TOL_ENTRY = 1e-8
TOL_CHAR = 1e-6

MAX_TENSOR_DIM = 64
ISO_GROUP_CAP = 240

# Representation images are plain complex ndarrays; for genuine
# representation images |det| = 1 within TOL_ENTRY.
RepMatrix = np.ndarray


class ClosureFailure(InternalCheckFailed):
    """A candidate matrix/quaternion set failed to close under products."""


class DimensionOverflow(RuntimeError):
    """Tensor induction would exceed the dimension budget."""


class PreconditionViolated(RuntimeError):
    """The projective image is cyclic or dihedral, outside the criterion."""


class NonIntegral(InternalCheckFailed):
    """A character inner product failed to round to an integer."""


@dataclass(frozen=True)
class Representation:
    """images[g] is the matrix of group label g; images[0] must be the
    identity and products must match the group table within TOL_ENTRY.
    Only the identity is checked here; the test suite checks every
    product of the representations it builds."""

    group: FiniteGroup
    images: np.ndarray
    dim: int

    def __post_init__(self):
        imgs = np.ascontiguousarray(self.images, dtype=np.complex128)
        if imgs.shape != (self.group.order, self.dim, self.dim):
            raise ValueError("image stack shape mismatch")
        if np.abs(imgs[0] - np.eye(self.dim)).max() > TOL_ENTRY:
            raise ValueError("identity does not map to the identity matrix")
        imgs.flags.writeable = False
        object.__setattr__(self, "images", imgs)

    def character(self) -> "Character":
        return Character(self.group, np.trace(self.images, axis1=1, axis2=2))

    def twist(self, scalars) -> "Representation":
        """Multiply by a linear character's values, elementwise."""
        vals = np.asarray(scalars, dtype=np.complex128)
        return Representation(self.group, self.images * vals[:, None, None],
                              self.dim)


@dataclass(frozen=True)
class Character:
    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=np.complex128)
        if v.shape != (self.group.order,):
            raise ValueError("character length mismatch")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def inner_product(chi1: Character, chi2: Character) -> complex:
    if chi1.group.order != chi2.group.order:
        raise ValueError("characters live on different groups")
    return complex(np.sum(chi1.values * np.conj(chi2.values))
                   / chi1.group.order)


def _round_integral(value: complex, tol: float = TOL_CHAR) -> int:
    r = round(value.real)
    if abs(value.real - r) > tol or abs(value.imag) > tol:
        raise NonIntegral(f"inner product {value} is not integral")
    return r


def linear_characters(G: FiniteGroup) -> list[Character]:
    """Degree-1 characters, pulled back from the abelianization.  The
    trivial character comes first; order is deterministic."""
    ab = abelianization(G)
    exps = [np.array([ab.project(g)[j] for g in range(G.order)])
            for j in range(len(ab.factors))]
    out = []
    for m in itertools.product(*[range(d) for d in ab.factors]):
        phase = np.zeros(G.order)
        for j, d in enumerate(ab.factors):
            phase = phase + m[j] * exps[j] / d
        out.append(Character(G, np.exp(2j * np.pi * phase)))
    return out


# -- quaternion groups ------------------------------------------------------

_GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
_SNAP_TOL = 1e-9
_SNAP_B = 4


def _snap_golden(quats: np.ndarray) -> np.ndarray:
    """Integer pairs (a, b) with 2x = a + b*phi, shape (n, 4, 2), for the
    float coordinates x; x snaps only when |2x - a - b*phi| < _SNAP_TOL
    for some |b| <= _SNAP_B.  Distinct values a + b*phi in that range lie
    more than 0.05 apart, so the pair is unique."""
    two_x = 2.0 * np.asarray(quats, dtype=np.float64)
    bs = np.arange(-_SNAP_B, _SNAP_B + 1)
    rest = two_x[..., None] - bs * _GOLDEN
    a = np.rint(rest)
    hit = np.abs(rest - a) < _SNAP_TOL
    hit &= (np.abs(two_x) <= 2.0 + _SNAP_TOL)[..., None]  # |x| <= 1
    if not hit.any(axis=-1).all():
        raise ClosureFailure("a coordinate does not lie in (1/2)Z[phi]")
    j = hit.argmax(axis=-1)
    a = np.take_along_axis(a, j[..., None], axis=-1)[..., 0]
    return np.stack([a.astype(np.int64), bs[j]], axis=-1)


def _golden_mul(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1, on (..., 2) pairs."""
    bb = x[..., 1] * y[..., 1]
    return np.stack([x[..., 0] * y[..., 0] + bb,
                     x[..., 0] * y[..., 1] + x[..., 1] * y[..., 0] + bb],
                    axis=-1)


def _golden_hamilton(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Exact Hamilton product of (..., 4, 2) golden-pair quaternions; the
    denominators multiply."""
    a1, b1, c1, d1 = (q1[..., i, :] for i in range(4))
    a2, b2, c2, d2 = (q2[..., i, :] for i in range(4))
    m = _golden_mul
    return np.stack([
        m(a1, a2) - m(b1, b2) - m(c1, c2) - m(d1, d2),
        m(a1, b2) + m(b1, a2) + m(c1, d2) - m(d1, c2),
        m(a1, c2) - m(b1, d2) + m(c1, a2) + m(d1, b2),
        m(a1, d2) + m(b1, c2) - m(c1, b2) + m(d1, a2),
    ], axis=-2)


def _tautological_matrix(q) -> np.ndarray:
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]])


def _quaternion_group(quats: np.ndarray, name: str
                      ) -> tuple[FiniteGroup, Representation]:
    """Close a finite set of unit quaternions into a FiniteGroup with its
    tautological 2-dimensional representation.

    Each coordinate is snapped to an exact pair (a + b*phi)/2 in
    (1/2)Z[phi], where icosian and Hurwitz coordinates lie, and each
    snapped quaternion must have norm exactly 1.  The table comes from
    exact Hamilton products (denominator 4) looked up among the members,
    so ClosureFailure means a coordinate does not snap, two members
    coincide, or a product is not in the set.  The floats stay the
    element values, with the identity moved to label 0."""
    exact = _snap_golden(quats)
    if not (_golden_mul(exact, exact).sum(axis=1) == (4, 0)).all():
        raise ClosureFailure("a member is not an exact unit quaternion")
    keys = [tuple(k) for k in (2 * exact).reshape(-1, 8).tolist()]
    ident = (4, 0, 0, 0, 0, 0, 0, 0)
    if len(set(keys)) != len(keys) or ident not in keys:
        raise ClosureFailure("members repeat or miss the identity")
    i0 = keys.index(ident)
    order = [i0] + [i for i in range(len(keys)) if i != i0]
    label = {keys[i]: lab for lab, i in enumerate(order)}
    exact = exact[order]
    prods = _golden_hamilton(exact[:, None], exact[None, :])
    flat = [label.get(tuple(k)) for k in prods.reshape(-1, 8).tolist()]
    if None in flat:
        raise ClosureFailure("a product is not in the set")
    table = np.array(flat, dtype=np.int32).reshape(len(order), len(order))
    quats = np.asarray(quats)[order]
    G = FiniteGroup([tuple(q) for q in quats], table, name=name)
    images = np.stack([_tautological_matrix(q) for q in quats])
    return G, Representation(G, images, 2)


def _hurwitz_quaternions() -> np.ndarray:
    out = []
    for i in range(4):
        for s in (1.0, -1.0):
            q = [0.0] * 4
            q[i] = s
            out.append(q)
    for signs in itertools.product((0.5, -0.5), repeat=4):
        out.append(list(signs))
    return np.array(out)


@lru_cache(maxsize=None)
def hurwitz_unit_group() -> tuple[FiniteGroup, Representation]:
    """The 24 Hurwitz units: the binary tetrahedral group."""
    return _quaternion_group(_hurwitz_quaternions(), "hurwitz")


def _icosian_quaternions() -> np.ndarray:
    """Hurwitz units plus the 96 quaternions with components
    {0, +-1/2, +-phi/2, +-1/(2 phi)} in even coordinate permutations."""
    base = (0.0, 0.5, _GOLDEN / 2.0, 0.5 / _GOLDEN)
    even_perms = [p.images for p in symmetric_group(4).elems if p.is_even()]
    extra = []
    for perm in even_perms:
        for signs in itertools.product((1.0, -1.0), repeat=3):
            q = [0.0] * 4
            for k in range(4):
                v = base[k]
                q[perm[k]] = v if k == 0 else signs[k - 1] * v
            extra.append(q)
    return np.concatenate([_hurwitz_quaternions(), np.array(extra)])


@lru_cache(maxsize=None)
def icosian_group() -> tuple[FiniteGroup, Representation]:
    """The 120 unit icosians: the binary icosahedral group."""
    return _quaternion_group(_icosian_quaternions(), "icosian")


# -- isomorphism search ------------------------------------------------------

def _class_size_by_label(G: FiniteGroup) -> np.ndarray:
    sizes = np.empty(G.order, dtype=np.int32)
    for cls in G.conjugacy_classes():
        sizes[list(cls)] = len(cls)
    return sizes


def _extend_partial(G1, G2, gens, imgs):
    """Grow <gens> by right multiplication, carrying the candidate map;
    None on a single-valuedness collision."""
    image_of = dict(zip(gens, imgs))
    phi = {0: 0}
    for x, g, y, new in _bfs(G1.table, gens):
        img = int(G2.table[phi[x], image_of[g]])
        if new:
            phi[y] = img
        elif phi[y] != img:
            return None
    return phi


def find_isomorphism(G1: FiniteGroup, G2: FiniteGroup
                     ) -> Optional[np.ndarray]:
    """A multiplication-preserving bijection as an array (G1 label ->
    G2 label), or None.  Generator images are searched in deterministic
    order, pruned by element order and conjugacy class size."""
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

    def search(level, imgs):
        if level == len(gens):
            phi_map = _extend_partial(G1, G2, gens, imgs)
            if phi_map is None or len(phi_map) != G1.order:
                return None
            phi = np.array([phi_map[x] for x in range(G1.order)],
                           dtype=np.int32)
            if len(set(phi.tolist())) != G1.order:
                return None
            if (phi[G1.table] == G2.table[np.ix_(phi, phi)]).all():
                return phi
            return None
        for h in candidates[level]:
            imgs.append(h)
            if _extend_partial(G1, G2, gens[:level + 1], imgs) is not None:
                found = search(level + 1, imgs)
                if found is not None:
                    return found
            imgs.pop()
        return None

    return search(0, [])


# -- tensor induction --------------------------------------------------------

def _factor_permutation_matrix(pi: Permutation, dim: int) -> np.ndarray:
    """psi(pi) sending e_{I_1} x .. x e_{I_n} to the basis vector with
    digits J_k = I_{pi(k)}, in kron (big-endian digit) convention."""
    n = pi.degree
    D = dim ** n
    weights = np.array([dim ** (n - 1 - k) for k in range(n)])
    flat = np.arange(D)
    digits = (flat[:, None] // weights[None, :]) % dim
    flat_j = digits[:, pi.images] @ weights
    psi = np.zeros((D, D))
    psi[flat_j, flat] = 1.0
    return psi


def tensor_induction(cs: CosetSystem, rho: Representation) -> Representation:
    """Induce a representation of the subgroup of cs up to the full group
    on the n-fold tensor power: g maps to
    (rho(q_1(g)) x .. x rho(q_n(g))) . psi(pi(g))."""
    if rho.group.order != len(cs.subgroup):
        raise ValueError("representation does not match the coset subgroup")
    n = cs.n
    D = rho.dim ** n
    if D > MAX_TENSOR_DIM:
        raise DimensionOverflow(f"tensor power dimension {D} > {MAX_TENSOR_DIM}")
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    G = cs.group
    psis: dict[tuple, np.ndarray] = {}
    images = np.empty((G.order, D, D), dtype=np.complex128)
    for g in range(G.order):
        pi, q = coset_factorization(cs, g)
        M = rho.images[pos[q[0]]]
        for qi in q[1:]:
            M = np.kron(M, rho.images[pos[qi]])
        psi = psis.get(pi.images)
        if psi is None:
            psi = psis.setdefault(pi.images,
                                  _factor_permutation_matrix(pi, rho.dim))
        images[g] = M @ psi
    return Representation(G, images, D)


# -- decomposition -----------------------------------------------------------

def decomposition_profile(G: FiniteGroup, chi: Character) -> dict:
    """selfnorm plus the multiplicity of each linear character (in the
    deterministic linear_characters order)."""
    selfnorm = _round_integral(inner_product(chi, chi))
    mults = [_round_integral(inner_product(chi, lam))
             for lam in linear_characters(G)]
    return {"selfnorm": selfnorm, "linear_multiplicities": mults}


def projective_image_type(rho: Representation) -> str:
    """Classify the image of a 2-dim representation in PGL2: one of
    "A4", "S4", "A5"; cyclic or dihedral images raise."""
    scalars = []
    eye = np.eye(rho.dim)
    for g in range(rho.group.order):
        A = rho.images[g]
        s = np.trace(A) / rho.dim
        if np.abs(A - s * eye).max() <= TOL_ENTRY:
            scalars.append(g)
    PQ, _ = rho.group.quotient_by(scalars)
    pab = abelianization(PQ).factors
    if PQ.order == 12 and pab == (3,):
        return "A4"
    if PQ.order == 24 and pab == (2,):
        return "S4"
    if PQ.order == 60 and pab == ():
        return "A5"
    raise PreconditionViolated(
        f"projective image of order {PQ.order} is not A4/S4/A5")


def dual_twist_reducibility(cs: CosetSystem, theta: int,
                            rho: Representation) -> dict:
    """For an index-2 subgroup Q and a 2-dim rho with exceptional
    projective image: the induced tensor square is reducible iff the
    conjugate character chi(theta q theta^-1) matches conj(chi) twisted
    by some linear character of Q.  Returns both routes."""
    if cs.n != 2:
        raise ValueError("criterion requires an index-2 coset system")
    if rho.dim != 2:
        raise ValueError("criterion requires a 2-dimensional representation")
    G = cs.group
    if cs.coset_of[theta] == 0:
        raise ValueError("theta must lie outside the subgroup")
    projective_image_type(rho)  # raises PreconditionViolated if unsuitable
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    chi = rho.character().values
    theta_inv = G.inverse(theta)
    conj = np.empty_like(chi)
    for lab in cs.subgroup:
        c = G.mul(G.mul(theta, lab), theta_inv)
        conj[pos[lab]] = chi[pos[c]]
    criterion = any(
        np.abs(np.conj(chi) * lam.values - conj).max() <= TOL_CHAR
        for lam in linear_characters(rho.group))
    induced = tensor_induction(cs, rho)
    profile = decomposition_profile(G, induced.character())
    return {
        "criterion_holds": criterion,
        "reducible": profile["selfnorm"] >= 2,
        "selfnorm": profile["selfnorm"],
        "linear_multiplicities": profile["linear_multiplicities"],
    }


# -- the quintic double-cover pipeline ---------------------------------------

@dataclass(frozen=True)
class DoubleCoverData:
    """A double cover of S_n with its index-2 preimage of A_n
    identified with a group of quaternion units."""

    extension: object            # cocycles.CentralExtension
    coset_system: CosetSystem
    subgroup_group: FiniteGroup
    rho: Representation          # transported tautological icosian rep
    transposition_lifts: tuple[int, ...]


@lru_cache(maxsize=None)
def _double_cover(n: int) -> DoubleCoverData:
    """The double cover of S_n from the Pin cocycle, n = 4 or 5, with
    the preimage of A_n identified with the Hurwitz units (n = 4) or the
    icosian group (n = 5)."""
    units, name = ((hurwitz_unit_group, "Hurwitz unit group") if n == 4
                   else (icosian_group, "icosian group"))
    Sn = symmetric_group(n)
    ext = central_extension(Sn, pin_cocycle_sn(n))
    E = ext.group
    evens = [l for l in range(E.order)
             if Sn.elems[int(ext.projection[l])].is_even()]
    Q, _ = E.subgroup(evens, name=f"2A{n}")
    unit_g, unit_rep = units()
    phi = find_isomorphism(Q, unit_g)
    if phi is None:
        raise InternalCheckFailed(f"preimage of A{n} is not the {name}")
    rho = Representation(Q, unit_rep.images[phi], 2)
    cs = CosetSystem.build(E, evens)
    lifts = tuple(l for l in range(E.order)
                  if Sn.elems[int(ext.projection[l])].is_transposition())
    return DoubleCoverData(ext, cs, Q, rho, lifts)


def omega5_data() -> DoubleCoverData:
    """The order-240 double cover of S5 with its preimage of A5
    identified with the icosian group."""
    return _double_cover(5)


def binary_octahedral_data() -> DoubleCoverData:
    """The order-48 double cover of S4 with its preimage of A4 identified
    with the Hurwitz units."""
    return _double_cover(4)


def criterion_catalog() -> list[dict]:
    """Named (coset system, theta, rho) instances with exceptional
    projective image, for exercising the reducibility criterion."""
    out = []
    oct_data = binary_octahedral_data()
    theta4 = oct_data.transposition_lifts[0]
    for i, lam in enumerate(linear_characters(oct_data.subgroup_group)):
        out.append({
            "name": f"binary-octahedral-twist{i}",
            "cs": oct_data.coset_system,
            "theta": theta4,
            "rho": oct_data.rho.twist(lam.values),
        })
    ico = omega5_data()
    out.append({
        "name": "icosian",
        "cs": ico.coset_system,
        "theta": ico.transposition_lifts[0],
        "rho": ico.rho,
    })
    return out


def verify_standard_rep() -> dict:
    """Build the double cover of S5, tensor-induce the icosian
    representation along the index-2 preimage of A5, and check that the
    result is the pullback of the 4-dimensional standard representation:
    (a) the central element acts trivially, (b) the character equals
    fix(g) - 1 pointwise, (c) every transposition lift has trace 2,
    (d) a transposition lift has characteristic polynomial
    (x-1)^3 (x+1).  Returns a structured report."""
    data = omega5_data()
    ext, cs = data.extension, data.coset_system
    E = ext.group
    S5 = symmetric_group(5)
    induced = tensor_induction(cs, data.rho)

    checks = []

    z = ext.central[1]
    dev = float(np.abs(induced.images[z] - np.eye(4)).max())
    checks.append({"name": "central element acts trivially",
                   "expected": "identity matrix",
                   "computed": f"max deviation {dev:.3e}",
                   "passed": dev <= TOL_ENTRY})

    traces = np.trace(induced.images, axis1=1, axis2=2)
    fixm1 = np.array([S5.elems[int(ext.projection[l])].fixed_points() - 1
                      for l in range(E.order)])
    cdev = float(np.abs(traces - fixm1).max())
    matched = int(np.count_nonzero(np.abs(traces - fixm1) <= TOL_CHAR))
    checks.append({"name": "character equals fix - 1 on all 240 elements",
                   "expected": "0",
                   "computed": f"max deviation {cdev:.3e}",
                   "matched": matched,
                   "total": E.order,
                   "passed": cdev <= TOL_CHAR})

    tdev = float(max(abs(traces[l] - 2) for l in data.transposition_lifts))
    checks.append({"name": "trace 2 at all transposition lifts",
                   "expected": "2",
                   "computed": f"max deviation {tdev:.3e} over "
                               f"{len(data.transposition_lifts)} lifts",
                   "passed": tdev <= TOL_CHAR})

    theta = data.transposition_lifts[0]
    coeffs = np.poly(induced.images[theta])
    target = np.array([1.0, -2.0, 0.0, 2.0, -1.0])
    pdev = float(np.abs(coeffs - target).max())
    checks.append({"name": "transposition lift has charpoly (x-1)^3 (x+1)",
                   "expected": "coefficients [1, -2, 0, 2, -1]",
                   "computed": f"max deviation {pdev:.3e}",
                   "passed": pdev <= TOL_CHAR})

    return {"checks": checks, "all_pass": all(c["passed"] for c in checks)}
