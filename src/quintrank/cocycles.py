"""Two-cocycles on finite groups and the Clifford-algebra Pin lift.

Coefficients live in Z/2^r (r <= 2), optionally twisted by a sign
action of the group.  The central construction is ``pin_cocycle_sn``:
lift each transposition (i j) of S_n to the Clifford vector
(e_i - e_j) / sqrt(2) with e_i^2 = +1, multiply lifts along a fixed
deterministic transposition factorization, and read the 2-cocycle off
the sign defect  lift(s) lift(t) = (-1)^w(s,t) lift(st).  Transposition
lifts square to +1, so the resulting double cover of S_n is the one in
which transpositions lift to involutions.

Everything is exact: blade coefficients are integers and the 2^(-1/2)
scale is tracked as a separate half-integer exponent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import InternalCheckFailed
from .groups import FiniteGroup, Permutation, symmetric_group

H2_GROUP_CAP = 30
H1_GROUP_CAP = 240


class TooLarge(RuntimeError):
    """Group is past the cap for a full cohomology computation."""


# -- coefficient modules -------------------------------------------------


@dataclass(frozen=True)
class CoefficientModule:
    """Z/2^r with a (possibly trivial) sign action of the group.

    ``signs[g]`` is +1 or -1; the action of g sends m to signs[g] * m.
    """

    group: FiniteGroup
    r: int
    signs: np.ndarray

    def __post_init__(self):
        if self.r not in (1, 2):
            raise ValueError("only r <= 2 coefficient modules are supported")
        s = np.asarray(self.signs, dtype=np.int8)
        if s.shape != (self.group.order,) or not np.isin(s, (-1, 1)).all():
            raise ValueError("signs must be a +-1 vector over the group")
        t = self.group.table
        if not (s[t] == s[:, None] * s[None, :]).all():
            raise ValueError("sign action is not a homomorphism")
        s.flags.writeable = False
        object.__setattr__(self, "signs", s)

    @staticmethod
    def trivial(group: FiniteGroup, r: int = 1) -> "CoefficientModule":
        return CoefficientModule(group, r, np.ones(group.order, dtype=np.int8))

    @staticmethod
    def sign_twisted(group: FiniteGroup, r: int, signs) -> "CoefficientModule":
        return CoefficientModule(group, r, np.asarray(signs, dtype=np.int8))

    @property
    def order(self) -> int:
        return 1 << self.r

    @property
    def is_trivial_action(self) -> bool:
        return bool((self.signs == 1).all())


@dataclass(frozen=True)
class Cocycle2:
    """A normalized 2-cochain; run verify_cocycle for the cocycle law."""

    group: FiniteGroup
    module: CoefficientModule
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int8) % self.module.order
        n = self.group.order
        if v.shape != (n, n):
            raise ValueError("cocycle table shape mismatch")
        if v[0].any() or v[:, 0].any():
            raise ValueError("cocycle is not normalized")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def r(self) -> int:
        return self.module.r

    @staticmethod
    def normalized(group: FiniteGroup, module: CoefficientModule,
                   raw) -> "Cocycle2":
        """Shift a raw cocycle by the canonical constant coboundary
        c(g) = w(1,1), which forces w(1,.) = w(.,1) = 0."""
        w = np.asarray(raw, dtype=np.int64)
        shift = module.signs.astype(np.int64) * int(w[0, 0])
        return Cocycle2(group, module, (w - shift[:, None]) % module.order)


def verify_cocycle(c: Cocycle2) -> bool:
    """Exhaustively check the twisted cocycle identity over all |G|^3 triples:

        a_g w(h,k) - w(gh,k) + w(g,hk) - w(g,h) = 0  (mod 2^r)
    """
    t = c.group.table
    w = c.values.astype(np.int64)
    signs = c.module.signs.astype(np.int64)
    mod = c.module.order
    n = c.group.order
    chunk = max(1, (1 << 22) // max(1, n * n))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        g = np.arange(lo, hi)
        term1 = signs[g][:, None, None] * w[None, :, :]
        term2 = w[t[g]]                    # w[gh, k]
        term3 = w[g][:, t]                 # w[g, hk]
        term4 = w[g][:, :, None]
        if ((term1 - term2 + term3 - term4) % mod).any():
            return False
    return True


def coboundary(module: CoefficientModule, c) -> np.ndarray:
    """delta c (g,h) = a_g c(h) - c(gh) + c(g), reduced mod 2^r."""
    c = np.asarray(c, dtype=np.int64)
    t = module.group.table
    signs = module.signs.astype(np.int64)
    return (signs[:, None] * c[None, :] - c[t] + c[:, None]) % module.order


# -- exact Clifford elements ----------------------------------------------


def _blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b for blade bitmasks in a +1 metric."""
    count = 0
    t = a >> 1
    while t:
        count += (t & b).bit_count()
        t >>= 1
    return -1 if count & 1 else 1


@dataclass(frozen=True)
class CliffordElement:
    """Element of Cl(n) with +1 metric: integer blade coefficients plus a
    separately tracked power of sqrt(2); the value is
    sum_b coeff[b] e_b * 2^(scale_exp / 2).  Canonical form keeps at
    least one odd coefficient, so equality is plain field equality."""

    n: int
    blades: tuple[tuple[int, int], ...]
    scale_exp: int

    @staticmethod
    def make(n: int, coeffs: dict[int, int], scale_exp: int) -> "CliffordElement":
        coeffs = {m: c for m, c in coeffs.items() if c}
        if not coeffs:
            return CliffordElement(n, (), 0)
        while all(c % 2 == 0 for c in coeffs.values()):
            coeffs = {m: c // 2 for m, c in coeffs.items()}
            scale_exp += 2
        return CliffordElement(n, tuple(sorted(coeffs.items())), scale_exp)

    @staticmethod
    def scalar(n: int, value: int = 1) -> "CliffordElement":
        return CliffordElement.make(n, {0: value}, 0)

    @staticmethod
    def reflection_vector(n: int, i: int, j: int) -> "CliffordElement":
        """(e_i - e_j) / sqrt(2), the Pin lift of the transposition (i j)."""
        if not (0 <= i < n and 0 <= j < n and i != j):
            raise ValueError("bad reflection indices")
        return CliffordElement.make(n, {1 << i: 1, 1 << j: -1}, -1)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        acc: dict[int, int] = {}
        for ma, ca in self.blades:
            for mb, cb in other.blades:
                m = ma ^ mb
                acc[m] = acc.get(m, 0) + ca * cb * _blade_sign(ma, mb)
        return CliffordElement.make(self.n, acc, self.scale_exp + other.scale_exp)

    def __neg__(self) -> "CliffordElement":
        return CliffordElement(self.n, tuple((m, -c) for m, c in self.blades),
                               self.scale_exp)

    @property
    def is_zero(self) -> bool:
        return not self.blades


def transposition_factorization(p: Permutation) -> list[tuple[int, int]]:
    """Deterministic factorization by selection sort of the image array.

    Returns transpositions t_1, .., t_k with p = t_1 * t_2 * .. * t_k in
    right-action order (t_1 applied first); k = degree - #cycles.
    """
    b = list(p.images)
    swaps = []
    for i in range(len(b)):
        if b[i] != i:
            j = b.index(i, i + 1)
            b[i], b[j] = b[j], b[i]
            swaps.append((i, j))
    return swaps


def pin_lift(p: Permutation) -> CliffordElement:
    """Product of reflection vectors along the deterministic factorization."""
    out = CliffordElement.scalar(p.degree)
    for i, j in transposition_factorization(p):
        out = out * CliffordElement.reflection_vector(p.degree, i, j)
    return out


@lru_cache(maxsize=None)
def _blade_product_tables(n: int):
    """IDX[i,k] = i xor k and S2[i,k] = sign(e_i * e_{i xor k}), so a dense
    product is out[k] = sum_i a[i] * S2[i,k] * b[i xor k]."""
    size = 1 << n
    idx = np.arange(size)[:, None] ^ np.arange(size)[None, :]
    s2 = np.empty((size, size), dtype=np.int64)
    for i in range(size):
        for k in range(size):
            s2[i, k] = _blade_sign(i, i ^ k)
    idx.flags.writeable = False
    s2.flags.writeable = False
    return idx, s2


def _dense(e: CliffordElement) -> np.ndarray:
    v = np.zeros(1 << e.n, dtype=np.int64)
    for m, c in e.blades:
        v[m] = c
    return v


@lru_cache(maxsize=None)
def pin_cocycle_sn(n: int) -> Cocycle2:
    """The 2-cocycle of the Pin double cover of S_n (n in {4, 5}) over
    Z/2 with trivial action, on the shared symmetric_group(n) labels."""
    if n not in (4, 5):
        raise ValueError("pin cocycle is provided for n in {4, 5}")
    G = symmetric_group(n)
    idx, s2 = _blade_product_tables(n)
    lifts = [pin_lift(p) for p in G.elems]
    L = np.stack([_dense(e) for e in lifts])
    scale = np.array([e.scale_exp for e in lifts], dtype=np.int64)
    # B2[b][i, k] = S2[i,k] * L[b][i xor k]; then (L[a] @ B2[b])[k] is the
    # dense product of lifts a and b.
    t = G.table
    order = G.order
    w = np.zeros((order, order), dtype=np.int8)
    chunk = max(1, (1 << 24) // (order * L.shape[1] ** 2))
    B2 = s2[None, :, :] * L[:, idx]
    for lo in range(0, order, chunk):
        hi = min(order, lo + chunk)
        prod = np.einsum("ai,bik->abk", L[lo:hi], B2)
        c = t[lo:hi]
        target = L[c]
        # raw product scale is sa+sb; canonical targets satisfy sc >= sa+sb
        d = scale[c] - scale[lo:hi, None] - scale[None, :]
        if (d < 0).any() or (d % 2).any():
            raise InternalCheckFailed("pin lift scale mismatch")
        target = target * (1 << (d // 2))[:, :, None]
        plus = (prod == target).all(axis=2)
        minus = (prod == -target).all(axis=2)
        if not (plus ^ minus).all():
            raise InternalCheckFailed(
                "pin lift products do not match up to sign")
        w[lo:hi] = np.where(minus, 1, 0)
    return Cocycle2(G, CoefficientModule.trivial(G, 1), w)


def restrict_cocycle(c: Cocycle2, labels) -> tuple[Cocycle2, tuple[int, ...]]:
    """Restrict to a subgroup; returns the cocycle on the relabeled
    subgroup together with the inclusion (new label -> old label)."""
    H, incl = c.group.subgroup(labels)
    sub = np.asarray(incl, dtype=np.int32)
    mod = CoefficientModule(H, c.module.r, c.module.signs[sub])
    vals = c.values[np.ix_(sub, sub)]
    return Cocycle2(H, mod, vals), incl


# -- GF(2) linear algebra (bit-packed rows) --------------------------------


class Gf2Solver:
    """Row reduction over GF(2) with Python-int rows.

    Bit 0 holds the right-hand side; variable j lives at bit j + 1.
    """

    def __init__(self, nvars: int):
        self.nvars = nvars
        self.pivots: dict[int, int] = {}
        self.inconsistent = False

    def add(self, row: int) -> None:
        while row:
            b = row.bit_length() - 1
            if b == 0:
                self.inconsistent = True
                return
            p = self.pivots.get(b)
            if p is None:
                self.pivots[b] = row
                return
            row ^= p

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce_up(self) -> None:
        for b in sorted(self.pivots):
            row = self.pivots[b]
            for b2 in self.pivots:
                if b2 > b and (self.pivots[b2] >> b) & 1:
                    self.pivots[b2] ^= row

    def solve(self) -> Optional[int]:
        """A particular solution as a bitmask (bit j = variable j), with
        free variables set to 0; None if the system is inconsistent."""
        if self.inconsistent:
            return None
        self._reduce_up()
        sol = 0
        for b, row in self.pivots.items():
            if row & 1:
                sol |= 1 << (b - 1)
        return sol

    def kernel_basis(self) -> list[int]:
        """Basis of the homogeneous kernel, one bitmask per free variable."""
        self._reduce_up()
        piv_vars = {b - 1: row for b, row in self.pivots.items()}
        basis = []
        for f in range(self.nvars):
            if f in piv_vars:
                continue
            vec = 1 << f
            for pv, row in piv_vars.items():
                if (row >> (f + 1)) & 1:
                    vec |= 1 << pv
            basis.append(vec)
        return basis


def _bits_to_array(mask: int, nvars: int) -> np.ndarray:
    return np.array([(mask >> j) & 1 for j in range(nvars)], dtype=np.int64)


def _delta1_row_bits(t: np.ndarray, g: int, h: int) -> int:
    # mod-2 coefficients of a_g c(h) - c(gh) + c(g)
    row = 0
    for v in (h, int(t[g, h]), g):
        row ^= 1 << (v + 1)
    return row


def coboundary_witness(c: Cocycle2) -> Optional[np.ndarray]:
    """A 1-cochain with delta(witness) == c.values, or None when the class
    of the cocycle is nonzero.  Solved over GF(2); for r = 2 the mod-2
    solution space is lifted with a second GF(2) stage."""
    G, mod = c.group, c.module.order
    n = G.order
    t = G.table
    w = c.values.astype(np.int64)
    solver = Gf2Solver(n)
    rows = set()
    for g in range(n):
        for h in range(n):
            rows.add(_delta1_row_bits(t, g, h) | int(w[g, h] & 1))
    for row in rows:
        solver.add(row)
    base = solver.solve()
    if base is None:
        return None
    c0 = _bits_to_array(base, n)
    if c.module.r == 1:
        return _checked_witness(c, (c0 % 2).astype(np.int8))
    # r = 2: parametrize all mod-2 solutions as c0 + sum k_i B_i, write the
    # candidate as that plus 2*c1, and solve for (k, c1) over GF(2).
    kbasis = [_bits_to_array(b, n) for b in solver.kernel_basis()]
    R0 = (w - coboundary(c.module, c0)) % 4
    D = [coboundary(c.module, b) % 4 for b in kbasis]
    if (R0 % 2).any() or any((d % 2).any() for d in D):
        raise InternalCheckFailed("mod-2 stage left an odd residual")
    R0h = (R0 // 2) % 2
    Dh = [(d // 2) % 2 for d in D]
    K = len(kbasis)
    solver2 = Gf2Solver(K + n)
    rows2 = set()
    for g in range(n):
        for h in range(n):
            row = _delta1_row_bits(t, g, h) << K  # c1 variables after the k's
            for i in range(K):
                if Dh[i][g, h]:
                    row ^= 1 << (i + 1)
            rows2.add(row | int(R0h[g, h]))
    for row in rows2:
        solver2.add(row)
    sol = solver2.solve()
    if sol is None:
        return None
    kvec = _bits_to_array(sol, K)
    c1 = _bits_to_array(sol >> K, n)
    witness = c0.copy()
    for i in range(K):
        if kvec[i]:
            witness += kbasis[i]
    return _checked_witness(c, ((witness + 2 * c1) % 4).astype(np.int8))


def _checked_witness(c: Cocycle2, witness: np.ndarray) -> np.ndarray:
    if not (coboundary(c.module, witness) == c.values).all():
        raise InternalCheckFailed(
            "coboundary witness does not reproduce the cocycle")
    return witness


# -- cohomology dimensions -------------------------------------------------


def _gf2_rank_of_rows(rows) -> int:
    solver = Gf2Solver(0)
    for row in rows:
        solver.add(row << 1)  # shift into variable area, rhs 0
    return solver.rank


def _mod4_image_profile(A: np.ndarray) -> tuple[int, int]:
    """(rho1, rho2): counts of elementary divisors 1 and 2 of a Z/4 matrix,
    so |im| = 4^rho1 * 2^rho2 and |ker| = 4^(ncols-rho1-rho2) * 2^rho2."""
    A = np.unique(A % 4, axis=0)
    ncols = A.shape[1]
    solver = Gf2Solver(ncols)
    for row in _pack_rows_gf2(A):
        solver.add(row << 1)
    rho1 = solver.rank
    kb = solver.kernel_basis()
    if not kb:
        return rho1, 0
    X = np.stack([_bits_to_array(b, ncols) for b in kb], axis=1)
    C = (A.astype(np.int64) @ X) % 4
    if (C % 2).any():
        raise InternalCheckFailed("kernel lift produced odd entries")
    # A kernel lift is only defined mod 2, so C's columns are contaminated
    # by im(A mod 2); count the 2-divisors in the quotient by that image.
    combined = np.concatenate([A % 2, (C // 2) % 2], axis=1)
    return rho1, _gf2_rank_of_rows(_pack_rows_gf2(combined)) - rho1


def _delta2_matrix(G: FiniteGroup, module: CoefficientModule) -> np.ndarray:
    """Matrix of the 2-coboundary operator, one row per (g,h,k) triple."""
    n = G.order
    t = G.table
    signs = module.signs.astype(np.int64)
    A = np.zeros((n * n * n, n * n), dtype=np.int8)
    g, h, k = np.meshgrid(np.arange(n), np.arange(n), np.arange(n), indexing="ij")
    g, h, k = g.ravel(), h.ravel(), k.ravel()
    rows = np.arange(n * n * n)
    np.add.at(A, (rows, h * n + k), signs[g].astype(np.int8))
    np.add.at(A, (rows, t[g, h] * n + k), -1)
    np.add.at(A, (rows, g * n + t[h, k]), 1)
    np.add.at(A, (rows, g * n + h), -1)
    return A % 4 if module.r == 2 else A % 2


def _delta1_matrix(G: FiniteGroup, module: CoefficientModule) -> np.ndarray:
    n = G.order
    t = G.table
    A = np.zeros((n * n, n), dtype=np.int8)
    g, h = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    g, h = g.ravel(), h.ravel()
    rows = np.arange(n * n)
    np.add.at(A, (rows, h), module.signs[g].astype(np.int8))
    np.add.at(A, (rows, t[g, h]), -1)
    np.add.at(A, (rows, g), 1)
    return A % 4 if module.r == 2 else A % 2


def _pack_rows_gf2(A: np.ndarray) -> set[int]:
    out = set()
    for row in A % 2:
        mask = 0
        for j in np.nonzero(row)[0]:
            mask |= 1 << int(j)
        if mask:
            out.add(mask)
    return out


def h2_dimension(G: FiniteGroup, module: CoefficientModule) -> int:
    """log2 of |H^2(G, M)| = |ker delta2| / |im delta1|; for r = 1 this is
    the GF(2) dimension.  Capped at |G| <= 30."""
    if G.order > H2_GROUP_CAP:
        raise TooLarge(f"h2_dimension is capped at |G| <= {H2_GROUP_CAP}")
    n = G.order
    d2 = _delta2_matrix(G, module)
    d1 = _delta1_matrix(G, module)
    if module.r == 1:
        rank2 = _gf2_rank_of_rows(_pack_rows_gf2(d2))
        rank1 = _gf2_rank_of_rows(_pack_rows_gf2(d1.T))
        return (n * n - rank2) - rank1
    r1a, r2a = _mod4_image_profile(d2)
    r1b, r2b = _mod4_image_profile(d1.T)
    log_ker = 2 * (n * n - r1a - r2a) + r2a
    log_im = 2 * r1b + r2b
    return log_ker - log_im


def h1_dimension(G: FiniteGroup, module: CoefficientModule) -> int:
    """log2 of |H^1(G, M)| = |ker delta1| / |im delta0|.  Capped at
    |G| <= 240."""
    if G.order > H1_GROUP_CAP:
        raise TooLarge(f"h1_dimension is capped at |G| <= {H1_GROUP_CAP}")
    n = G.order
    d1 = _delta1_matrix(G, module)
    d0 = (module.signs.astype(np.int64) - 1).reshape(n, 1)
    if module.r == 1:
        rank1 = _gf2_rank_of_rows(_pack_rows_gf2(d1))
        log_ker = n - rank1
        log_im = 0  # delta0 is even, hence zero mod 2
        return log_ker - log_im
    r1a, r2a = _mod4_image_profile(d1)
    r1b, r2b = _mod4_image_profile(d0 % 4)
    log_ker = 2 * (n - r1a - r2a) + r2a
    log_im = 2 * r1b + r2b
    return log_ker - log_im


# -- central extensions ----------------------------------------------------


@dataclass(frozen=True)
class CentralExtension:
    """The extension 1 -> Z/2^r -> E -> G -> 1 defined by a cocycle.

    Elements are pairs (c, g) with label c * |G| + g and product
    (c1, g1)(c2, g2) = (c1 + a_{g1} c2 + w(g1, g2), g1 g2).
    """

    group: FiniteGroup
    base: FiniteGroup
    cocycle: Cocycle2
    projection: np.ndarray
    central: tuple[int, ...]

    def lift(self, g: int, c: int = 0) -> int:
        return c * self.base.order + g


def central_extension(G: FiniteGroup, c: Cocycle2) -> CentralExtension:
    if c.group is not G and not np.array_equal(c.group.table, G.table):
        raise ValueError("cocycle is not on the given group")
    m = c.module.order
    n = G.order
    labels = np.arange(m * n)
    c1, g1 = labels // n, labels % n
    signs = c.module.signs.astype(np.int64)
    w = c.values.astype(np.int64)
    newc = (c1[:, None] + signs[g1][:, None] * c1[None, :]
            + w[np.ix_(g1, g1)]) % m
    newg = G.table[np.ix_(g1, g1)]
    table = (newc * n + newg).astype(np.int32)
    elems = [(int(cc), G.elems[int(gg)]) for cc, gg in zip(c1, g1)]
    gens = list(G.generators) + [n]  # lifts of base generators plus (1, id)
    E = FiniteGroup(elems, table, generators=gens,
                    name=f"ext{m}({G.name})" if G.name else "ext")
    proj = (labels % n).astype(np.int32)
    proj.flags.writeable = False
    central = tuple(int(cc) * n for cc in range(m))
    return CentralExtension(E, G, c, proj, central)


# -- serialization ---------------------------------------------------------


def serialize_cocycle(c: Cocycle2) -> str:
    """Header `group_order r`, then order^2 integers row-major."""
    lines = [f"{c.group.order} {c.module.r}"]
    for row in c.values:
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def parse_cocycle(text: str, group: FiniteGroup,
                  module: Optional[CoefficientModule] = None) -> Cocycle2:
    lines = [ln for ln in text.strip().split("\n") if ln.strip()]
    order, r = (int(v) for v in lines[0].split())
    if order != group.order:
        raise ValueError("serialized order does not match the group")
    if module is None:
        module = CoefficientModule.trivial(group, r)
    elif module.r != r:
        raise ValueError("module r does not match the header")
    vals = np.array([[int(v) for v in ln.split()] for ln in lines[1:]],
                    dtype=np.int8)
    if vals.shape != (order, order):
        raise ValueError("serialized table has wrong shape")
    return Cocycle2(group, module, vals)
