"""Complex representations of finite groups at desk scale.

The decisions of the standard-representation pipeline are exact: they
come from ``icosians``, which computes the induced character in Z[phi]
by the tensor-induction character formula (Curtis and Reiner,
*Methods of Representation Theory I*, §13) and the characteristic
polynomial of a transposition lift by Newton's identities.  This layer
is the float view over the same groups: double-precision complex
matrices built from the quaternions' float coordinates, with two
tolerances, 1e-8 for entrywise matrix comparisons and 1e-6 for
character values that must round to integers.  In
``verify_standard_rep`` the floats only display deviations.

The main constructions: the tautological 2-dimensional representation
of the icosian and Hurwitz unit groups, tensor induction along a coset
system, and the reducibility criterion for an index-2 tensor induction
of a 2-dimensional representation via dual-twist character matching.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import InternalCheckFailed, cocycles, icosians
from .groups import (CosetSystem, FiniteGroup, Permutation, abelianization,
                     coset_factorization, symmetric_group)

TOL_ENTRY = 1e-8
TOL_CHAR = 1e-6

MAX_TENSOR_DIM = 64

# Public names that the double-cover pipeline no longer calls from here,
# kept so that callers and the benchmark's tracer still find them.
ClosureFailure = icosians.ClosureFailure
find_isomorphism = icosians.find_isomorphism
pin_cocycle_sn = cocycles.pin_cocycle_sn

# Representation images are plain complex ndarrays; for genuine
# representation images |det| = 1 within TOL_ENTRY.
RepMatrix = np.ndarray


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

def _tautological_matrix(q) -> np.ndarray:
    a, b, c, d = q
    return np.array([[a + 1j * b, c + 1j * d],
                     [-c + 1j * d, a - 1j * b]])


def _tautological_rep(G: FiniteGroup) -> Representation:
    """The 2-dimensional representation of a group of unit quaternions,
    from the float coordinates that are its elements."""
    return Representation(
        G, np.stack([_tautological_matrix(q) for q in G.elems]), 2)


@lru_cache(maxsize=None)
def hurwitz_unit_group() -> tuple[FiniteGroup, Representation]:
    """The 24 Hurwitz units: the binary tetrahedral group."""
    G, _ = icosians.hurwitz_unit_group()
    return G, _tautological_rep(G)


@lru_cache(maxsize=None)
def icosian_group() -> tuple[FiniteGroup, Representation]:
    """The 120 unit icosians: the binary icosahedral group."""
    G, _ = icosians.icosian_group()
    return G, _tautological_rep(G)


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
    (rho(q_1(g)) x .. x rho(q_n(g))) . psi(pi(g)).

    The Kronecker products of all images are formed together, one
    broadcast multiply per factor, in np.kron's left-to-right order, so
    every entry is the same float product np.kron gives."""
    if rho.group.order != len(cs.subgroup):
        raise ValueError("representation does not match the coset subgroup")
    n = cs.n
    D = rho.dim ** n
    if D > MAX_TENSOR_DIM:
        raise DimensionOverflow(f"tensor power dimension {D} > {MAX_TENSOR_DIM}")
    pos = {lab: i for i, lab in enumerate(cs.subgroup)}
    G = cs.group
    perms, labels = [], []
    for g in range(G.order):
        pi, q = coset_factorization(cs, g)
        perms.append(pi)
        labels.append([pos[qi] for qi in q])
    factors = rho.images[np.array(labels)]  # (order, n, dim, dim)
    M = factors[:, 0]
    for k in range(1, n):
        d = M.shape[-1]
        M = (M[:, :, None, :, None] * factors[:, k, None, :, None, :]
             ).reshape(G.order, d * rho.dim, d * rho.dim)
    psis: dict[tuple, np.ndarray] = {}
    images = np.empty((G.order, D, D), dtype=np.complex128)
    for g, pi in enumerate(perms):
        psi = psis.get(pi.images)
        if psi is None:
            psi = psis.setdefault(pi.images,
                                  _factor_permutation_matrix(pi, rho.dim))
        images[g] = M[g] @ psi
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
    icosian group (n = 5): ``icosians.double_cover``, with the units'
    float representation transported along its isomorphism."""
    cover = icosians.double_cover(n)
    _, unit_rep = hurwitz_unit_group() if n == 4 else icosian_group()
    rho = Representation(cover.subgroup_group,
                         unit_rep.images[list(cover.phi)], 2)
    return DoubleCoverData(cover.extension, cover.coset_system,
                           cover.subgroup_group, rho,
                           cover.transposition_lifts)


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
    (x-1)^3 (x+1).  Returns a structured report.

    ``passed`` and ``matched`` come from the exact checks of
    ``icosians.standard_rep_checks``; the "computed" strings show the
    deviations of the float matrices."""
    exact = icosians.standard_rep_checks()
    data = omega5_data()
    ext, cs = data.extension, data.coset_system
    E = ext.group
    S5 = symmetric_group(5)
    induced = tensor_induction(cs, data.rho)

    z = ext.central[1]
    dev = float(np.abs(induced.images[z] - np.eye(4)).max())
    traces = np.trace(induced.images, axis1=1, axis2=2)
    fixm1 = np.array([S5.elems[ext.projection[l]].fixed_points() - 1
                      for l in range(E.order)])
    cdev = float(np.abs(traces - fixm1).max())
    tdev = float(max(abs(traces[l] - 2) for l in data.transposition_lifts))
    coeffs = np.poly(induced.images[data.transposition_lifts[0]])
    pdev = float(np.abs(coeffs - [1.0, -2.0, 0.0, 2.0, -1.0]).max())

    checks = [
        {"name": "central element acts trivially",
         "expected": "identity matrix",
         "computed": f"max deviation {dev:.3e}"},
        {"name": "character equals fix - 1 on all 240 elements",
         "expected": "0",
         "computed": f"max deviation {cdev:.3e}",
         "matched": exact.matched,
         "total": exact.total},
        {"name": "trace 2 at all transposition lifts",
         "expected": "2",
         "computed": f"max deviation {tdev:.3e} over "
                     f"{len(data.transposition_lifts)} lifts"},
        {"name": "transposition lift has charpoly (x-1)^3 (x+1)",
         "expected": "coefficients [1, -2, 0, 2, -1]",
         "computed": f"max deviation {pdev:.3e}"},
    ]
    for check, passed in zip(checks, exact.passed):
        check["passed"] = passed
    return {"checks": checks, "all_pass": all(exact.passed)}
