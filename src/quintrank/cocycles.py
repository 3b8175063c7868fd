"""Two-cocycles on finite groups and the Clifford-algebra Pin lift.

Coefficients live in Z/2^r (r <= 2), optionally twisted by a sign
action of the group.  The central construction is ``pin_cocycle_sn``:
lift each transposition (i j) of S_n to the Clifford vector
(e_i - e_j) / sqrt(2) with e_i^2 = +1, multiply lifts along a fixed
deterministic transposition factorization, and read the 2-cocycle off
the sign defect  lift(s) lift(t) = (-1)^w(s,t) lift(st).  Transposition
lifts square to +1, so the resulting double cover of S_n is the one in
which transpositions lift to involutions.

Everything is exact: the lift of a permutation of length k is an
integer blade vector v, standing for v / 2^(k/2), and every product of
blade vectors goes through one right-multiplication matrix read off
the blade sign table.

Cohomology dimensions and coboundary witnesses work on sparse mod-2
coboundary rows (Python-int bit rows read off the group table); for
Z/4 the rows are lifted along a mod-2 kernel basis, so no dense
coboundary matrix is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from . import InternalCheckFailed
from .groups import FiniteGroup, Permutation, symmetric_group

H2_GROUP_CAP = 30
H1_GROUP_CAP = 240

# Entry budget for every n^3-sized temporary: checks over triples and
# products of lift tables run in slices of at most this many entries.
_CHUNK_ENTRIES = 1 << 18


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


def _row_chunks(n: int, per_row: int) -> list[tuple[int, int]]:
    """[lo, hi) slices of range(n), each holding at most _CHUNK_ENTRIES
    entries of a per_row-wide temporary (but one row at least)."""
    step = max(1, _CHUNK_ENTRIES // max(1, per_row))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _coboundary2(module: CoefficientModule, w: np.ndarray, lo: int,
                 hi: int) -> np.ndarray:
    """delta w (g,h,k) = a_g w(h,k) - w(gh,k) + w(g,hk) - w(g,h) mod 2^r
    for lo <= g < hi, as a (hi - lo) x n x n array.  An int8 w is wide
    enough: each of the four terms lies in [-3, 3]."""
    t, s = module.group.table, module.signs
    g = np.arange(lo, hi)
    return (s[g][:, None, None] * w - w[t[g]] + w[g][:, t]
            - w[g][:, :, None]) % module.order


def _defect_labels(c: Cocycle2) -> list[int]:
    """Labels g at which the cocycle identity fails for some (h, k)."""
    n = c.group.order
    bad = []
    for lo, hi in _row_chunks(n, n * n):
        defect = _coboundary2(c.module, c.values, lo, hi)
        bad += (lo + np.flatnonzero(defect.any(axis=(1, 2)))).tolist()
    return bad


def verify_cocycle(c: Cocycle2) -> bool:
    """Exhaustively check the twisted cocycle identity over all |G|^3 triples:

        a_g w(h,k) - w(gh,k) + w(g,hk) - w(g,h) = 0  (mod 2^r)

    in slices of consecutive g holding at most _CHUNK_ENTRIES (2^18)
    triples; S5 takes 7 slices with int8 temporaries near 256 KB each.
    """
    return not _defect_labels(c)


def coboundary(module: CoefficientModule, c) -> np.ndarray:
    """delta c (g,h) = a_g c(h) - c(gh) + c(g), reduced mod 2^r."""
    c = np.asarray(c, dtype=np.int64)
    t = module.group.table
    signs = module.signs.astype(np.int64)
    return (signs[:, None] * c[None, :] - c[t] + c[:, None]) % module.order


# -- the Pin lift on dense blade vectors ------------------------------------


def _blade_sign(a: int, b: int) -> int:
    """Sign of e_a * e_b for blade bitmasks in a +1 metric."""
    count = 0
    t = a >> 1
    while t:
        count += (t & b).bit_count()
        t >>= 1
    return -1 if count & 1 else 1


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


def _right_mul(b: np.ndarray) -> np.ndarray:
    """R[..., i, k] = S2[i, k] * b[..., i xor k] for dense blade vectors b
    of Cl(n), so that a @ R is the Clifford product a * b; batched over
    the leading axes of b."""
    idx, s2 = _blade_product_tables(b.shape[-1].bit_length() - 1)
    return s2 * b[..., idx]


def pin_lift(p: Permutation) -> tuple[np.ndarray, int]:
    """(v, k): v is the integer blade vector of the product of the k
    reflection vectors e_i - e_j along the deterministic factorization,
    and the lift of p is v / 2^(k/2)."""
    fac = transposition_factorization(p)
    v = np.zeros(1 << p.degree, dtype=np.int64)
    v[0] = 1
    for i, j in fac:
        r = np.zeros_like(v)
        r[1 << i], r[1 << j] = 1, -1
        v = v @ _right_mul(r)
    return v, len(fac)


@lru_cache(maxsize=None)
def pin_cocycle_sn(n: int) -> Cocycle2:
    """The 2-cocycle of the Pin double cover of S_n (n in {4, 5}) over
    Z/2 with trivial action, on the shared symmetric_group(n) labels."""
    if n not in (4, 5):
        raise ValueError("pin cocycle is provided for n in {4, 5}")
    G = symmetric_group(n)
    lifts = [pin_lift(p) for p in G.elems]
    L = np.stack([v for v, _ in lifts])
    scale = -np.array([k for _, k in lifts], dtype=np.int64)
    # (L[a] @ B2[b])[k] is the dense product of lifts a and b
    B2 = _right_mul(L)
    t = G.table
    order = G.order
    w = np.zeros((order, order), dtype=np.int8)
    for lo, hi in _row_chunks(order, order * L.shape[1]):
        prod = np.einsum("ai,bik->abk", L[lo:hi], B2)
        c = t[lo:hi]
        target = L[c]
        # the raw product has scale sa+sb; lengths are subadditive and
        # keep parity, so d = ka+kb-kc is even and >= 0
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


def _delta1_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta1 mod 2 in (g, h) order: row (g,h) has bits h, gh and
    g, column x at bit x.  The sign action vanishes mod 2."""
    return [(1 << h) ^ (1 << gh) ^ (1 << g)
            for g, row in enumerate(G.table.tolist())
            for h, gh in enumerate(row)]


def _delta2_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta2 mod 2 in (g, h, k) order, read off the table: row
    (g,h,k) has bits (h,k), (gh,k), (g,hk) and (g,h), column (x,y) at
    bit x*n + y.  The sign action vanishes mod 2."""
    n, t = G.order, G.table.astype(np.int64)
    g, h, k = np.indices((n, n, n)).reshape(3, -1)
    cols = (h * n + k, t[g, h] * n + k, g * n + t[h, k], g * n + h)
    return [(1 << a) ^ (1 << b) ^ (1 << c) ^ (1 << d)
            for a, b, c, d in zip(*(col.tolist() for col in cols))]


def _lift_rows(rows: list[int], width: int, apply,
               kernel: list[int]) -> list[int]:
    """Append to each mod-2 row of a Z/4 operator A (columns below bit
    width) bit j of (A k_j) / 2, for the mod-2 kernel basis k_j; apply(x)
    is A x mod 4, flattened in row order."""
    lifts = [0] * len(rows)
    for j, k in enumerate(kernel):
        image = apply(_bits_to_array(k, width))
        if (image % 2).any():
            raise InternalCheckFailed("kernel lift produced odd entries")
        for i in np.flatnonzero(image // 2 % 2).tolist():
            lifts[i] |= 1 << j
    return [row | lift << width for row, lift in zip(rows, lifts)]


def coboundary_witness(c: Cocycle2) -> Optional[np.ndarray]:
    """A 1-cochain with delta(witness) == c.values, or None when the class
    of the cocycle is nonzero.  Solved over GF(2); for r = 2 the mod-2
    solution space is lifted with a second GF(2) stage."""
    n = c.group.order
    w = c.values.astype(np.int64).ravel()
    rows = _delta1_rows_gf2(c.group)
    solver = Gf2Solver(n)
    for row in {row << 1 | int(v & 1) for row, v in zip(rows, w)}:
        solver.add(row)
    base = solver.solve()
    if base is None:
        return None
    c0 = _bits_to_array(base, n)
    if c.module.r == 1:
        return _checked_witness(c, c0.astype(np.int8))
    # r = 2: parametrize all mod-2 solutions as c0 + sum k_i B_i, write the
    # candidate as that plus 2*c1, and solve for (c1, k) over GF(2), with
    # c1 in the first n variables and the k's after them.
    residual = (w - coboundary(c.module, c0).ravel()) % 4
    if (residual % 2).any():
        raise InternalCheckFailed("mod-2 stage left an odd residual")
    kernel = solver.kernel_basis()
    lifted = _lift_rows(rows, n, lambda x: coboundary(c.module, x).ravel(),
                        kernel)
    solver2 = Gf2Solver(n + len(kernel))
    for row in {row << 1 | int(v // 2) for row, v in zip(lifted, residual)}:
        solver2.add(row)
    sol = solver2.solve()
    if sol is None:
        return None
    witness = c0 + 2 * _bits_to_array(sol, n)
    for i, k in enumerate(kernel):
        if (sol >> (n + i)) & 1:
            witness += _bits_to_array(k, n)
    return _checked_witness(c, (witness % 4).astype(np.int8))


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


def _image_log2(module: CoefficientModule, rows: list[int], width: int,
                apply) -> int:
    """log2 |im A| for a Z/2^r operator A given by its mod-2 rows (column
    j at bit j) and apply(x) = A x mod 2^r in the same row order.  Over
    Z/4, |im A| = 4^rho1 * 2^rho2 with rho1, rho2 the counts of
    elementary divisors 1 and 2: rho1 is the rank of the rows and
    rho1 + rho2 that of the rows lifted along a mod-2 kernel basis (the
    lift is only defined mod 2, hence mod the image of the rows)."""
    solver = Gf2Solver(width)
    for row in set(rows):
        solver.add(row << 1)
    if module.r == 1:
        return solver.rank
    lifted = _lift_rows(rows, width, apply, solver.kernel_basis())
    return solver.rank + _gf2_rank_of_rows(set(lifted))


def _delta1_image_log2(G: FiniteGroup, module: CoefficientModule) -> int:
    if module.group is not G and not np.array_equal(module.group.table,
                                                    G.table):
        raise ValueError("module is not over the given group")
    return _image_log2(module, _delta1_rows_gf2(G), G.order,
                       lambda x: coboundary(module, x).ravel())


def h2_dimension(G: FiniteGroup, module: CoefficientModule) -> int:
    """log2 of |H^2(G, M)| = |ker delta2| / |im delta1|, that is
    r n^2 - log2 |im delta2| - log2 |im delta1|.  Both images are sized
    from sparse mod-2 coboundary rows read off the table, lifted to Z/4
    when r = 2; no dense operator matrix is built.  Capped at |G| <= 30."""
    if G.order > H2_GROUP_CAP:
        raise TooLarge(f"h2_dimension is capped at |G| <= {H2_GROUP_CAP}")
    n = G.order
    log_im1 = _delta1_image_log2(G, module)
    # n^3 <= 27000 triples under the cap, so delta2 is applied in one go
    log_im2 = _image_log2(
        module, _delta2_rows_gf2(G), n * n,
        lambda x: _coboundary2(module, x.reshape(n, n).astype(np.int8),
                               0, n).ravel())
    return module.r * n * n - log_im2 - log_im1


def h1_dimension(G: FiniteGroup, module: CoefficientModule) -> int:
    """log2 of |H^1(G, M)| = |ker delta1| / |im delta0|, that is
    r n - log2 |im delta1| - log2 |im delta0|.  delta0 m = (a_g m - m)_g
    takes values in {0, -2}, so its image has two elements when r = 2 and
    the action is not trivial, and one otherwise.  Capped at |G| <= 240."""
    if G.order > H1_GROUP_CAP:
        raise TooLarge(f"h1_dimension is capped at |G| <= {H1_GROUP_CAP}")
    log_im0 = int(module.r == 2 and not module.is_trivial_action)
    return module.r * G.order - _delta1_image_log2(G, module) - log_im0


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
