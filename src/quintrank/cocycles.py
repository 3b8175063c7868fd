"""Two-cocycles on finite groups and the Clifford-algebra Pin lift.

Coefficients are Z/2 with trivial action (over Z/2 a sign twist acts
trivially too, since -1 = 1).  The central construction is
``pin_cocycle_sn``: lift each transposition (i j) of S_n to the
Clifford vector (e_i - e_j) / sqrt(2) with e_i^2 = +1, multiply lifts
along a fixed deterministic transposition factorization, and read the
2-cocycle off the sign defect  lift(s) lift(t) = (-1)^w(s,t) lift(st).
Transposition lifts square to +1, so the resulting double cover of S_n
is the one in which transpositions lift to involutions.

Everything is exact: the lift of a permutation of length k is an
integer blade vector v, standing for v / 2^(k/2), and every product of
blade vectors goes through one right-multiplication matrix read off
the blade sign table.

Cohomology dimensions and coboundary witnesses work on sparse mod-2
coboundary rows (Python-int bit rows read off the group table), so no
dense coboundary matrix is ever built.
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


@dataclass(frozen=True)
class Cocycle2:
    """A normalized Z/2-valued 2-cochain on G (trivial action); run
    verify_cocycle for the cocycle law."""

    group: FiniteGroup
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.int8) % 2
        n = self.group.order
        if v.shape != (n, n):
            raise ValueError("cocycle table shape mismatch")
        if v[0].any() or v[:, 0].any():
            raise ValueError("cocycle is not normalized")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _row_chunks(n: int, per_row: int) -> list[tuple[int, int]]:
    """[lo, hi) slices of range(n), each holding at most _CHUNK_ENTRIES
    entries of a per_row-wide temporary (but one row at least)."""
    step = max(1, _CHUNK_ENTRIES // max(1, per_row))
    return [(lo, min(n, lo + step)) for lo in range(0, n, step)]


def _coboundary2(G: FiniteGroup, w: np.ndarray, lo: int,
                 hi: int) -> np.ndarray:
    """delta w (g,h,k) = w(h,k) + w(gh,k) + w(g,hk) + w(g,h) mod 2 for
    lo <= g < hi, as a (hi - lo) x n x n array; w holds 0/1 entries, as
    Cocycle2 values do."""
    t = G.table
    g = np.arange(lo, hi)
    return w[None] ^ w[t[g]] ^ w[g][:, t] ^ w[g][:, :, None]


def _defect_labels(c: Cocycle2) -> list[int]:
    """Labels g at which the cocycle identity fails for some (h, k)."""
    n = c.group.order
    bad = []
    for lo, hi in _row_chunks(n, n * n):
        defect = _coboundary2(c.group, c.values, lo, hi)
        bad += (lo + np.flatnonzero(defect.any(axis=(1, 2)))).tolist()
    return bad


def verify_cocycle(c: Cocycle2) -> bool:
    """Exhaustively check the cocycle identity over all |G|^3 triples:

        w(h,k) + w(gh,k) + w(g,hk) + w(g,h) = 0  (mod 2)

    in slices of consecutive g holding at most _CHUNK_ENTRIES (2^18)
    triples; S5 takes 7 slices with int8 temporaries near 256 KB each.
    """
    return not _defect_labels(c)


def coboundary(G: FiniteGroup, c) -> np.ndarray:
    """delta c (g,h) = c(h) + c(gh) + c(g) mod 2."""
    c = np.asarray(c, dtype=np.int64) % 2
    return c[None, :] ^ c[G.table] ^ c[:, None]


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
    return Cocycle2(G, w)


def restrict_cocycle(c: Cocycle2, labels) -> tuple[Cocycle2, tuple[int, ...]]:
    """Restrict to a subgroup; returns the cocycle on the relabeled
    subgroup together with the inclusion (new label -> old label)."""
    H, incl = c.group.subgroup(labels)
    sub = np.asarray(incl, dtype=np.int32)
    return Cocycle2(H, c.values[np.ix_(sub, sub)]), incl


# -- GF(2) linear algebra (bit-packed rows) --------------------------------


class Gf2Solver:
    """Row reduction over GF(2) with Python-int rows.

    Bit 0 holds the right-hand side; variable j lives at bit j + 1.
    """

    def __init__(self):
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

    def solve(self) -> Optional[int]:
        """A particular solution as a bitmask (bit j = variable j), with
        free variables set to 0; None if the system is inconsistent."""
        if self.inconsistent:
            return None
        for b in sorted(self.pivots):
            row = self.pivots[b]
            for b2 in self.pivots:
                if b2 > b and (self.pivots[b2] >> b) & 1:
                    self.pivots[b2] ^= row
        sol = 0
        for b, row in self.pivots.items():
            if row & 1:
                sol |= 1 << (b - 1)
        return sol


def _gf2_rank_of_rows(rows) -> int:
    """Rank over GF(2) of Python-int rows, column j at bit j."""
    solver = Gf2Solver()
    for row in set(rows):
        solver.add(row << 1)  # shift into variable area, rhs 0
    return solver.rank


def _delta1_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta1 in (g, h) order: row (g,h) has bits h, gh and g,
    column x at bit x."""
    return [(1 << h) ^ (1 << gh) ^ (1 << g)
            for g, row in enumerate(G.table.tolist())
            for h, gh in enumerate(row)]


def _delta2_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta2 in (g, h, k) order, read off the table: row
    (g,h,k) has bits (h,k), (gh,k), (g,hk) and (g,h), column (x,y) at
    bit x*n + y."""
    n, t = G.order, G.table.astype(np.int64)
    g, h, k = np.indices((n, n, n)).reshape(3, -1)
    cols = (h * n + k, t[g, h] * n + k, g * n + t[h, k], g * n + h)
    return [(1 << a) ^ (1 << b) ^ (1 << c) ^ (1 << d)
            for a, b, c, d in zip(*(col.tolist() for col in cols))]


def coboundary_witness(c: Cocycle2) -> Optional[np.ndarray]:
    """A 1-cochain with delta(witness) == c.values, or None when the class
    of the cocycle is nonzero.  Solved over GF(2)."""
    n = c.group.order
    solver = Gf2Solver()
    rhs = c.values.ravel().tolist()
    for row in {row << 1 | v for row, v in zip(_delta1_rows_gf2(c.group), rhs)}:
        solver.add(row)
    sol = solver.solve()
    if sol is None:
        return None
    witness = np.array([(sol >> j) & 1 for j in range(n)], dtype=np.int8)
    if not (coboundary(c.group, witness) == c.values).all():
        raise InternalCheckFailed(
            "coboundary witness does not reproduce the cocycle")
    return witness


# -- cohomology dimensions -------------------------------------------------


def h2_dimension(G: FiniteGroup) -> int:
    """dim H^2(G, Z/2) = n^2 - rank delta2 - rank delta1 over GF(2), from
    sparse coboundary rows read off the table; no dense operator matrix
    is built.  Capped at |G| <= 30."""
    if G.order > H2_GROUP_CAP:
        raise TooLarge(f"h2_dimension is capped at |G| <= {H2_GROUP_CAP}")
    return (G.order ** 2 - _gf2_rank_of_rows(_delta2_rows_gf2(G))
            - _gf2_rank_of_rows(_delta1_rows_gf2(G)))


def h1_dimension(G: FiniteGroup) -> int:
    """dim H^1(G, Z/2) = n - rank delta1 over GF(2); delta0 vanishes under
    the trivial action.  Capped at |G| <= 240."""
    if G.order > H1_GROUP_CAP:
        raise TooLarge(f"h1_dimension is capped at |G| <= {H1_GROUP_CAP}")
    return G.order - _gf2_rank_of_rows(_delta1_rows_gf2(G))


# -- central extensions ----------------------------------------------------


@dataclass(frozen=True)
class CentralExtension:
    """The extension 1 -> Z/2 -> E -> G -> 1 defined by a cocycle.

    Elements are pairs (c, g) with label c * |G| + g and product
    (c1, g1)(c2, g2) = (c1 + c2 + w(g1, g2), g1 g2).
    """

    group: FiniteGroup
    projection: np.ndarray
    central: tuple[int, ...]


def central_extension(G: FiniteGroup, c: Cocycle2) -> CentralExtension:
    if c.group is not G and not np.array_equal(c.group.table, G.table):
        raise ValueError("cocycle is not on the given group")
    n = G.order
    labels = np.arange(2 * n)
    c1, g1 = labels // n, labels % n
    newc = c1[:, None] ^ c1[None, :] ^ c.values[np.ix_(g1, g1)]
    newg = G.table[np.ix_(g1, g1)]
    table = (newc * n + newg).astype(np.int32)
    elems = [(int(cc), G.elems[int(gg)]) for cc, gg in zip(c1, g1)]
    gens = list(G.generators) + [n]  # lifts of base generators plus (1, id)
    E = FiniteGroup(elems, table, generators=gens,
                    name=f"ext2({G.name})" if G.name else "ext")
    proj = g1.astype(np.int32)
    proj.flags.writeable = False
    return CentralExtension(E, proj, (0, n))
