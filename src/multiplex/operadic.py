"""Coderivation oracle: twisted-complex homotopy theory through cofree
comodules over the polynomial coalgebra on one generator x of bidegree
(-1,-1).

A family f = (f_n) of overall bidegree (u, v) lifts to the truncated
comodule R[x]_{<=N} (x) A by

    F(x^n (x) a) = sum_i (-1)^{i(u+v)} x^i (x) f_{n-i}(a),

extraction reads the x^0 rows back; lifts never raise the x-degree, so
the truncation is closed under everything used here.

Offset layout: R[x]_{<=N} (x) A at (i, j) is the sum over slots t of
x^t (x) A_{(i+t, j+t)}; one table per (A, N) (``_slot_table``) gives the
slot offsets at every (i, j).  A lift writes each nonzero block of f_m at
(a, b), for n = m..N, from slot n of (a - n, b - n) into slot n - m of
its target as one signed block, and extraction reads back the slot-0 row
block.  The signed sums of both oracles are accumulated term by term in
one ``MapSum`` and reduced once.

The oracle statements verified against their direct counterparts:

  * lift(d)^2 = 0  iff  the twisting axioms hold for m <= N;
  * (-1)^r d~^B H~ + H~ d~^A = S^r G~ - S^r F~  iff  h is an r-homotopy,
    where S f = f shifted one step up, realized as F~ o d_x.
"""

from __future__ import annotations

from functools import cache

from .bigraded import BigradedMap, BigradedModule, MapSum, compose as bcompose
from .linalg import Matrix
from .twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_r_homotopy,
)


@cache
def _slot_table(mod: BigradedModule, n_max: int) -> dict:
    """The expansion R[x]_{<=N} (x) mod as one table: (i, j) -> the slot
    offsets (o_0, ..., o_N, dim), slot t of (i, j) being x^t (x)
    mod_{(i+t, j+t)} at coordinates o_t .. o_{t+1} - 1, for every (i, j)
    of nonzero dimension, ascending.  A constant of (mod, N): the table is
    shared by every caller and must not be changed."""
    bids = {(i - t, j - t) for (i, j) in mod.dims for t in range(n_max + 1)}
    table = {}
    for (i, j) in sorted(bids):
        offs, off = [0], 0
        for t in range(n_max + 1):
            off += mod.dim(i + t, j + t)
            offs.append(off)
        table[(i, j)] = tuple(offs)
    return table


@cache
def expand_module(mod: BigradedModule, n_max: int) -> BigradedModule:
    """R[x]_{<=N} (x) mod: the slot x^t shifts bidegrees by (-t, -t)."""
    return BigradedModule(mod.field, {bid: offs[-1] for bid, offs
                                      in _slot_table(mod, n_max).items()})


class TruncatedCoalgebraMap:
    """Map R[x]_{<=N} (x) src -> R[x]_{<=N} (x) dst determined by a family."""

    __slots__ = ("n_max", "src", "dst", "bidegree", "map")

    def __init__(self, n_max: int, src: BigradedModule, dst: BigradedModule,
                 bidegree, mp: BigradedMap):
        self.n_max = n_max
        self.src = src
        self.dst = dst
        self.bidegree = bidegree
        self.map = mp

    def compose(self, other: "TruncatedCoalgebraMap") -> "TruncatedCoalgebraMap":
        if other.dst != self.src or other.n_max != self.n_max:
            raise ValueError("truncation or module mismatch")
        return TruncatedCoalgebraMap(
            self.n_max, other.src, self.dst,
            (self.bidegree[0] + other.bidegree[0],
             self.bidegree[1] + other.bidegree[1]),
            bcompose(self.map, other.map))

    def is_zero(self):
        return self.map.is_zero()

    def __eq__(self, other):
        return (isinstance(other, TruncatedCoalgebraMap)
                and self.n_max == other.n_max and self.src == other.src
                and self.dst == other.dst and self.map == other.map)


def lift(family: dict[int, BigradedMap], u: int, v: int,
         src: BigradedModule, dst: BigradedModule,
         n_max: int) -> TruncatedCoalgebraMap:
    """F(x^n (x) a) = sum_i (-1)^{i(u+v)} x^i (x) f_{n-i}(a): each nonzero
    block of f_m at (a, b) is written, for n = m..N, from slot n of
    (a - n, b - n) into slot n - m of its target, so distinct m never
    overlap and only the family's blocks are visited."""
    field = src.field
    stab, dtab = _slot_table(src, n_max), _slot_table(dst, n_max)
    blocks: dict = {}
    for m, fm in family.items():
        for (a, b), blk in fm.blocks.items():
            for n in range(m, n_max + 1):
                ij = (a - n, b - n)
                soffs, doffs = stab[ij], dtab[(ij[0] + u, ij[1] + v)]
                mat = blocks.get(ij)
                if mat is None:
                    mat = blocks[ij] = Matrix.zero(field, doffs[-1],
                                                   soffs[-1])
                # slot n of the source column block, slot n - m of the
                # target row block, signed (-1)^{(n-m)(u+v)}
                mat.set_block(doffs[n - m], soffs[n], blk,
                              (n - m) * (u + v) % 2)
    blocks = {ij: blocks[ij] for ij in sorted(blocks)}
    mp = BigradedMap(expand_module(src, n_max), expand_module(dst, n_max),
                     (u, v), blocks)
    return TruncatedCoalgebraMap(n_max, src, dst, (u, v), mp)


def extract(t: TruncatedCoalgebraMap) -> dict[int, BigradedMap]:
    """Read the family back: f_n(a) = x^0-component of F(x^n (x) a), the
    top row block (slot 0) of each matrix."""
    u, v = t.bidegree
    stab = _slot_table(t.src, t.n_max)
    per_n: dict[int, dict] = {}
    for (i, j), mat in t.map.blocks.items():
        rows = t.dst.dim(i + u, j + v)
        offs = stab[(i, j)]
        for n in range(t.n_max + 1):
            c0 = offs[n]
            blk = mat.get_block(0, c0, rows, offs[n + 1] - c0)
            if not blk.is_zero():
                per_n.setdefault(n, {})[(i + n, j + n)] = blk
    return {n: BigradedMap(t.src, t.dst, (u - n, v - n), blocks)
            for n, blocks in per_n.items()}


def x_lowering(mod: BigradedModule, n_max: int) -> TruncatedCoalgebraMap:
    """d_x: x^n (x) a -> x^{n-1} (x) a, bidegree (1, 1): slot n of (i, j)
    and slot n - 1 of (i + 1, j + 1) are both mod_{(i+n, j+n)}."""
    field, table = mod.field, _slot_table(mod, n_max)
    blocks = {}
    for (i, j), offs in table.items():
        doffs = table.get((i + 1, j + 1))
        if doffs is None:
            continue
        mat = blocks[(i, j)] = Matrix.zero(field, doffs[-1], offs[-1])
        for n in range(1, n_max + 1):
            mat.set_block(doffs[n - 1], offs[n],
                          Matrix.identity(field, offs[n + 1] - offs[n]))
    emod = expand_module(mod, n_max)
    return TruncatedCoalgebraMap(n_max, mod, mod, (1, 1),
                                 BigradedMap(emod, emod, (1, 1), blocks))


def shift(t: TruncatedCoalgebraMap) -> TruncatedCoalgebraMap:
    """S f, realized as F~ o d_x (extracted family is the index shift)."""
    return t.compose(x_lowering(t.src, t.n_max))


def lift_twisted(a: TwistedComplex, n_max: int) -> TruncatedCoalgebraMap:
    return lift(a.d, 0, 1, a.module, a.module, n_max)


def lift_morphism(f: TwistedMorphism, n_max: int) -> TruncatedCoalgebraMap:
    return lift(f.f, 0, 0, f.src.module, f.dst.module, n_max)


def lift_homotopy(h: RHomotopy, n_max: int) -> TruncatedCoalgebraMap:
    return lift(h.h, h.r, h.r - 1, h.src.module, h.dst.module, n_max)


def check_square_zero_coderivation(a: TwistedComplex, n_max: int) -> bool:
    """lift(d)^2 = 0 on the truncation, cross-checked against the twisting
    axioms restricted to m <= N; the verdicts must agree."""
    da = lift_twisted(a, n_max)
    oracle = da.compose(da).is_zero()
    direct = _twisted_axioms_up_to(a, n_max)
    if oracle != direct:
        raise AssertionError(
            f"coderivation oracle disagrees with the direct axiom check "
            f"(oracle {oracle}, direct {direct}) at truncation {n_max}")
    return oracle


def _twisted_axioms_up_to(a: TwistedComplex, m_max: int) -> bool:
    acc = MapSum()
    for i, di in a.d.items():
        for j, dj in a.d.items():
            if i + j <= m_max:
                acc.add_compose(i + j, di, dj, i)
    return not any(sm.blocks for sm in acc.sparse_maps().values())


def default_truncation(h: RHomotopy) -> int:
    """Horizontal support width + r + 2."""
    cols = [i for (i, _) in h.src.module.dims] + \
        [i for (i, _) in h.dst.module.dims]
    width = (max(cols) - min(cols)) if cols else 0
    return width + h.r + 2


def check_coderh(h: RHomotopy, n_max: int | None = None) -> bool:
    """(-1)^r d~^B H~ + H~ d~^A = S^r G~ - S^r F~ on R[x]_{<=N} (x) A,
    cross-checked against the direct (H_m) checker, which also decides f
    and g, once; the verdicts must agree.  Raises ValueError when f or g
    is not a morphism, or when N is too small to see all conditions.
    (A_m) on the target is a precondition, which `oracle coderh` decides.  S^r F~ is F~ composed r times with d_x
    (``shift``); the test suite asserts that it is the lift of the
    index-shifted family."""
    req = default_truncation(h)
    if n_max is None:
        n_max = req
    if n_max < req:
        raise ValueError(f"truncation {n_max} too small; need at least {req}")
    direct = check_r_homotopy(h)
    if any(loc == "inputs" for loc, _ in direct.failures):
        raise ValueError("f and g must be valid morphisms of twisted complexes")
    r = h.r
    da = lift_twisted(h.src, n_max)
    db = lift_twisted(h.dst, n_max)
    sf = lift_morphism(h.f, n_max)
    sg = lift_morphism(h.g, n_max)
    hl = lift_homotopy(h, n_max)
    for _ in range(r):
        sf = shift(sf)
        sg = shift(sg)
    # (-1)^r d~^B H~ + H~ d~^A - S^r G~ + S^r F~, reduced once
    acc = MapSum()
    acc.add_compose(0, db.map, hl.map, r)
    acc.add_compose(0, hl.map, da.map)
    acc.add(0, sg.map, 1)
    acc.add(0, sf.map)
    oracle = not acc.sparse_maps()[0].blocks
    if oracle != direct.ok:
        raise AssertionError(
            f"coderivation homotopy oracle disagrees with the direct "
            f"checker (oracle {oracle}, direct {direct.ok}) at truncation "
            f"{n_max}")
    return oracle
