"""Complex representations of finite groups at desk scale.

The decisions of the standard-representation pipeline are exact: they
come from ``icosians``, which computes the induced character in Z[phi]
by the tensor-induction character formula (Curtis and Reiner,
*Methods of Representation Theory I*, §13) and the characteristic
polynomial of a transposition lift by Newton's identities.  This layer
is the float view over the same groups: double-precision complex
matrices built from floats of the units' exact coordinates, each the
float that the units' definition names (``FLOAT_COORDINATE``), with two
tolerances, 1e-8 for entrywise matrix comparisons and 1e-6 for
character values that must round to integers.  In
``verify_standard_rep`` the floats only display deviations.

The main constructions: ``cover_rep``, the tautological 2-dimensional
representation of the preimage of A_n in ``icosians.double_cover(n)``
(this module keeps no group or double cover of its own), tensor
induction along a coset system, and the reducibility criterion for an
index-2 tensor induction via dual-twist character matching.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import InternalCheckFailed, cocycles, icosians
from .groups import (CosetSystem, FiniteGroup, Permutation, abelianization,
                     coset_factorization, symmetric_group)

TOL_ENTRY = 1e-8
TOL_CHAR = 1e-6

MAX_TENSOR_DIM = 64

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# the float of each coordinate of an icosian or Hurwitz unit, keyed by
# the golden pair (a, b) of twice it, 2x = a + b*phi: 0, +-1/2, +-1,
# +-phi/2 and +-1/(2 phi), computed as written here
FLOAT_COORDINATE = {
    (0, 0): 0.0, (1, 0): 0.5, (-1, 0): -0.5, (2, 0): 1.0, (-2, 0): -1.0,
    (0, 1): GOLDEN / 2.0, (0, -1): -GOLDEN / 2.0,
    (-1, 1): 0.5 / GOLDEN, (1, -1): -0.5 / GOLDEN,
}

# Public names that the double-cover pipeline no longer calls from here,
# kept so that callers and the benchmark's tracer still find them.
ClosureFailure = icosians.ClosureFailure
find_isomorphism = icosians.find_isomorphism
icosian_group = icosians.icosian_group
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


def float_quaternion(q) -> tuple[float, ...]:
    """The float coordinates of an exact unit of ``icosians``."""
    return tuple(FLOAT_COORDINATE[x] for x in q)


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

@lru_cache(maxsize=None)
def cover_rep(n: int) -> Representation:
    """The 2-dimensional representation of the preimage of A_n in
    ``icosians.double_cover(n)``, n = 4 or 5: subgroup label q maps to
    the tautological matrix of the floats of its unit ``phi[q]``."""
    cover = icosians.double_cover(n)
    units = cover.units.elems
    return Representation(cover.subgroup_group, np.stack(
        [_tautological_matrix(float_quaternion(units[i]))
         for i in cover.phi]), 2)


def criterion_catalog() -> list[dict]:
    """Named (coset system, theta, rho) instances with exceptional
    projective image, for exercising the reducibility criterion."""
    out = []
    octa, octa_rep = icosians.double_cover(4), cover_rep(4)
    for i, lam in enumerate(linear_characters(octa.subgroup_group)):
        out.append({
            "name": f"binary-octahedral-twist{i}",
            "cs": octa.coset_system,
            "theta": octa.transposition_lifts[0],
            "rho": octa_rep.twist(lam.values),
        })
    ico = icosians.double_cover(5)
    out.append({
        "name": "icosian",
        "cs": ico.coset_system,
        "theta": ico.transposition_lifts[0],
        "rho": cover_rep(5),
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
    cover = icosians.double_cover(5)
    ext, lifts = cover.extension, cover.transposition_lifts
    E = ext.group
    S5 = symmetric_group(5)
    induced = tensor_induction(cover.coset_system, cover_rep(5))

    z = ext.central[1]
    dev = float(np.abs(induced.images[z] - np.eye(4)).max())
    traces = np.trace(induced.images, axis1=1, axis2=2)
    fixm1 = np.array([S5.elems[ext.projection[l]].fixed_points() - 1
                      for l in range(E.order)])
    cdev = float(np.abs(traces - fixm1).max())
    tdev = float(max(abs(traces[l] - 2) for l in lifts))
    coeffs = np.poly(induced.images[lifts[0]])
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
                     f"{len(lifts)} lifts"},
        {"name": "transposition lift has charpoly (x-1)^3 (x+1)",
         "expected": "coefficients [1, -2, 0, 2, -1]",
         "computed": f"max deviation {pdev:.3e}"},
    ]
    for check, passed in zip(checks, exact.passed):
        check["passed"] = passed
    return {"checks": checks, "all_pass": all(exact.passed)}
