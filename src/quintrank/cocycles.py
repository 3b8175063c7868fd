"""Two-cocycles on finite groups and the Clifford-algebra Pin lift.

Coefficients are Z/2 with trivial action (over Z/2 a sign twist acts
trivially too, since -1 = 1).  The central construction is
``pin_cocycle_sn``: lift each transposition (i j) of S_n to the
Clifford vector (e_i - e_j) / sqrt(2) with e_i^2 = +1, multiply lifts
along a fixed deterministic transposition factorization, and read the
2-cocycle off the sign defect  lift(s) lift(t) = (-1)^w(s,t) lift(st).
Transposition lifts square to +1, so the resulting double cover of S_n
is the one in which transpositions lift to involutions.

Everything is exact and in Python ints, laid out as in ``groups``: a
cochain table is a tuple of rows, ``values[g][h]`` = w(g, h) in {0, 1},
and a 1-cochain is a tuple indexed by label.  The lift of a permutation
of length k is a list of 2^n integer blade coefficients v, standing for
v / 2^(k/2).

Only the generators s of the group index the checks and equations:

* the Pin table is formed from lift products at the columns (g, s) and
  filled in along ``groups._bfs`` (see ``pin_cocycle_sn``);
* ``verify_cocycle`` checks the cocycle identity at (g, h, s), which for
  a normalized cochain is the identity at all |G|^3 triples (the
  induction in ``_delta2_rows_gf2``);
* cohomology dimensions and coboundary witnesses work on sparse mod-2
  coboundary rows (Python-int bit rows) taken at (g, s) and (g, h, s),
  which have the kernel, and so the rank, of the full operators (see
  ``_delta1_rows_gf2`` and ``_delta2_rows_gf2``); no dense coboundary
  matrix is ever built.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from operator import xor
from typing import Optional

from . import CheckedRecord, InternalCheckFailed
from .groups import FiniteGroup, Permutation, _bfs, _picker, symmetric_group

H2_GROUP_CAP = 30
H1_GROUP_CAP = 240


class TooLarge(RuntimeError):
    """Group is past the cap for a full cohomology computation."""


_Cocycle2Fields = namedtuple("_Cocycle2Fields", "group values")
_BITS = frozenset((0, 1))


class Cocycle2(CheckedRecord, _Cocycle2Fields):
    """A normalized Z/2-valued 2-cochain on G (trivial action); run
    verify_cocycle for the cocycle law.  ``values`` are rows of ints,
    each 0 or 1."""

    __slots__ = ()

    def __new__(cls, group: FiniteGroup, values):
        return super().__new__(cls, group, tuple(map(tuple, values)))

    def _check(self):
        n = self.group.order
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise ValueError("cocycle table shape mismatch")
        if not all(map(_BITS.issuperset, self.values)):
            raise ValueError("cocycle entries must be 0 or 1")
        if any(self.values[0]) or any(row[0] for row in self.values):
            raise ValueError("cocycle is not normalized")


def verify_cocycle(c: Cocycle2) -> bool:
    """Check the cocycle identity

        w(h,k) + w(gh,k) + w(g,hk) + w(g,h) = 0  (mod 2)

    at every (g, h, s) with s a generator, 2 |G|^2 triples for S5.  For
    a normalized cochain, as every Cocycle2 is, that is the identity at
    all |G|^3 triples: ``_delta2_rows_gf2`` shows by induction on the
    word length of k that a normalized w whose coboundary vanishes at
    every (g, h, s) has zero coboundary."""
    G, w = c.group, c.values
    t = G.table
    for s in _row_generators(G):
        ws = [row[s] for row in w]        # w(h, s) for every h
        ts = [row[s] for row in t]        # hs for every h
        for wg, tg in zip(w, t):
            # w(h,s) + w(g,h) against w(gh,s) + w(g,hs), for every h
            if (list(map(xor, ws, wg))
                    != list(map(xor, map(ws.__getitem__, tg),
                                map(wg.__getitem__, ts)))):
                return False
    return True


def coboundary(G: FiniteGroup, c) -> tuple[tuple[int, ...], ...]:
    """delta c (g,h) = c(h) + c(gh) + c(g) mod 2, as rows."""
    c = [int(x) & 1 for x in c]
    return tuple(tuple([ch ^ c[gh] ^ cg for ch, gh in zip(c, row)])
                 for cg, row in zip(c, G.table))


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
def _blade_signs(n: int) -> tuple[tuple[int, ...], ...]:
    """S[a][b] = sign of e_a * e_b over the 2^n blades of Cl(n)."""
    size = 1 << n
    return tuple(tuple(_blade_sign(a, b) for b in range(size))
                 for a in range(size))


def _clifford_product(a: list[int], b: list[int]) -> list[int]:
    """The Clifford product a * b of dense blade vectors of Cl(n):
    e_i * e_j = S[i][j] e_(i xor j)."""
    signs = _blade_signs(len(a).bit_length() - 1)
    out = [0] * len(a)
    terms = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            row = signs[i]
            for j, y in terms:
                out[i ^ j] += row[j] * x * y
    return out


def pin_lift(p: Permutation) -> tuple[list[int], int]:
    """(v, k): v is the integer blade vector of the product of the k
    reflection vectors e_i - e_j along the deterministic factorization,
    and the lift of p is v / 2^(k/2)."""
    fac = transposition_factorization(p)
    v = [0] * (1 << p.degree)
    v[0] = 1
    for i, j in fac:
        r = [0] * len(v)
        r[1 << i], r[1 << j] = 1, -1
        v = _clifford_product(v, r)
    return v, len(fac)


@lru_cache(maxsize=None)
def pin_cocycle_sn(n: int) -> Cocycle2:
    """The 2-cocycle of the Pin double cover of S_n (n in {4, 5}) over
    Z/2 with trivial action, on the shared symmetric_group(n) labels.

    Lift products are formed only at the generator columns (g, s), 240
    of them for S5, each checked for its scale and sign.  Every other
    column follows along ``groups._bfs``: lift(x) lift(s) = +-lift(xs)
    for all x gives, by associativity,

        w(g, xs) = w(g, x) + w(gx, s) + w(x, s),

    so, by induction on the word length of x, every product of lifts is
    +-lift of the product and the table is the one all n!^2 products
    would give."""
    if n not in (4, 5):
        raise ValueError("pin cocycle is provided for n in {4, 5}")
    G = symmetric_group(n)
    lifts = [pin_lift(p) for p in G.elems]
    gens = G.generators
    t = G.table
    # the raw product lift(g) lift(s) has scale kg+ks; lengths are
    # subadditive and keep parity, so d = kg+ks-k(gs) is even and >= 0
    halves = []
    for s in gens:
        ks = lifts[s][1]
        d = [kg + ks - lifts[row[s]][1] for row, (_, kg) in zip(t, lifts)]
        if any(e < 0 or e & 1 for e in d):
            raise InternalCheckFailed("pin lift scale mismatch")
        halves.append([e >> 1 for e in d])
    cols: list = [None] * G.order  # cols[y][g] = w(g, y)
    cols[0] = [0] * G.order
    for s, half in zip(gens, halves):
        vs = lifts[s][0]
        col = []
        for row, (vg, _), h in zip(t, lifts, half):
            prod = _clifford_product(vg, vs)
            target = [x << h for x in lifts[row[s]][0]]
            if prod == target:
                col.append(0)
            elif prod == [-x for x in target]:
                col.append(1)
            else:
                raise InternalCheckFailed(
                    "pin lift products do not match up to sign")
        cols[s] = col
    tcols = list(zip(*t))  # tcols[x][g] = gx
    for x, s, y, new in _bfs(t, gens):
        if new:
            ws = cols[s]
            col = list(map(xor, cols[x], map(ws.__getitem__, tcols[x])))
            cols[y] = [v ^ 1 for v in col] if ws[x] else col
    return Cocycle2(G, zip(*cols))


def restrict_cocycle(c: Cocycle2, labels) -> tuple[Cocycle2, tuple[int, ...]]:
    """Restrict to a subgroup; returns the cocycle on the relabeled
    subgroup together with the inclusion (new label -> old label)."""
    H, incl = c.group.subgroup(labels)
    pick, w = _picker(incl), c.values
    return Cocycle2(H, [pick(w[a]) for a in incl]), incl


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


def _row_generators(G: FiniteGroup) -> tuple[int, ...]:
    """The generators s that index the coboundary rows; the trivial
    group, which has none, is generated by its identity."""
    return G.generators or (0,)


def _delta1_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta1 at (g, s) for every g and generator s, in that
    order: row (g, s) has bits s, gs and g, column x at bit x.

    They have the kernel of the full operator.  If dc(g, s) = 0 for all
    g and s, then c(e) = dc(e, s) = 0 and c(us) = c(u) + c(s) for every
    u, so c(gh) = c(g) + c(h) by induction on the word length of h:
    c is a homomorphism, i.e. dc = 0.
    """
    gens = _row_generators(G)
    return [(1 << s) ^ (1 << row[s]) ^ (1 << g)
            for g, row in enumerate(G.table) for s in gens]


def _delta2_rows_gf2(G: FiniteGroup) -> list[int]:
    """Rows of delta2 at (g, h, s) for all g, h and generators s, in
    that order: row (g,h,s) has bits (h,s), (gh,s), (g,hs) and (g,h),
    column (x,y) at bit x*n + y.

    They have the kernel of the full operator.  Let dw vanish at every
    (g, h, s).  The cocycle identity of dw at (g, h, u, s),

        dw(h,u,s) + dw(gh,u,s) + dw(g,hu,s) + dw(g,h,us) + dw(g,h,u) = 0,

    gives dw(g,h,us) = dw(g,h,u) for every u.  At u = e,
    dw(g,h,e) = w(h,e) + w(gh,e), and w(g,e) = w(e,s) for every g
    because dw(g,e,s) = w(e,s) + w(g,e) = 0; so dw(g,h,e) = 0, and
    dw = 0 at every (g, h, u) by induction on the word length of u.
    """
    n, t = G.order, G.table
    gens = _row_generators(G)
    return [(1 << (h * n + s)) ^ (1 << (gh * n + s))
            ^ (1 << (g * n + t[h][s])) ^ (1 << (g * n + h))
            for g, row in enumerate(t) for h, gh in enumerate(row)
            for s in gens]


def coboundary_witness(c: Cocycle2) -> Optional[tuple[int, ...]]:
    """A 1-cochain with delta(witness) == c.values, or None when there is
    none: the class of the cocycle is nonzero, or c is not a cocycle.

    Solved over GF(2) on the equations at (g, s) for generators s only,
    then checked on all n^2 entries.  Two solutions of the generator
    equations differ by a homomorphism (see ``_delta1_rows_gf2``), which
    has zero coboundary, so if one of them misses an entry off the
    generator columns, every 1-cochain does.  For a cocycle c that
    cannot happen: z = delta(witness) - c is a normalized cocycle that
    vanishes at every (g, s), its cocycle identity at (g, u, s) gives
    z(g, us) = z(g, u), and so z = 0 by induction from z(g, e) = 0.
    """
    G = c.group
    gens = _row_generators(G)
    solver = Gf2Solver()
    rhs = [row[s] for row in c.values for s in gens]
    for row in {row << 1 | v for row, v in zip(_delta1_rows_gf2(G), rhs)}:
        solver.add(row)
    sol = solver.solve()
    if sol is None:
        return None
    witness = tuple((sol >> j) & 1 for j in range(G.order))
    image = coboundary(G, witness)
    if [row[s] for row in image for s in gens] != rhs:
        raise InternalCheckFailed(
            "coboundary witness does not solve the generator equations")
    if image != c.values:
        return None
    return witness


# -- cohomology dimensions -------------------------------------------------


def h2_dimension(G: FiniteGroup) -> int:
    """dim H^2(G, Z/2) = n^2 - rank delta2 - rank delta1 over GF(2), from
    the sparse coboundary rows at the generators, which have the ranks
    of the full operators; no dense operator matrix is built.  Capped
    at |G| <= 30."""
    if G.order > H2_GROUP_CAP:
        raise TooLarge(f"h2_dimension is capped at |G| <= {H2_GROUP_CAP}")
    return (G.order ** 2 - _gf2_rank_of_rows(_delta2_rows_gf2(G))
            - _gf2_rank_of_rows(_delta1_rows_gf2(G)))


def h1_dimension(G: FiniteGroup) -> int:
    """dim H^1(G, Z/2) = n - rank delta1 over GF(2), from the rows at the
    generators; delta0 vanishes under the trivial action.  Capped at
    |G| <= 240."""
    if G.order > H1_GROUP_CAP:
        raise TooLarge(f"h1_dimension is capped at |G| <= {H1_GROUP_CAP}")
    return G.order - _gf2_rank_of_rows(_delta1_rows_gf2(G))


# -- central extensions ----------------------------------------------------


_ExtensionFields = namedtuple("_ExtensionFields", "group projection central")


class CentralExtension(_ExtensionFields):
    """The extension 1 -> Z/2 -> E -> G -> 1 defined by a cocycle.

    Elements are pairs (c, g) with label c * |G| + g and product
    (c1, g1)(c2, g2) = (c1 + c2 + w(g1, g2), g1 g2); ``projection[l]``
    is the G label of E label l.
    """

    __slots__ = ()


def central_extension(G: FiniteGroup, c: Cocycle2) -> CentralExtension:
    if c.group is not G and c.group.table != G.table:
        raise ValueError("cocycle is not on the given group")
    n = G.order
    # row (c1, g1) is the labels of (c1 + w(g1, g2), g1 g2) over g2,
    # then those of (c1 + 1 + w(g1, g2), g1 g2)
    upper, lower = [], []
    for wrow, trow in zip(c.values, G.table):
        r0 = tuple([w * n + gh for w, gh in zip(wrow, trow)])
        r1 = tuple([x - n if x >= n else x + n for x in r0])
        upper.append(r0 + r1)
        lower.append(r1 + r0)
    elems = [(cc, g) for cc in (0, 1) for g in G.elems]
    gens = list(G.generators) + [n]  # lifts of base generators plus (1, id)
    E = FiniteGroup(elems, upper + lower, generators=gens,
                    name=f"ext2({G.name})" if G.name else "ext")
    return CentralExtension(E, tuple(range(n)) * 2, (0, n))
