"""Coderivation oracle: twisted-complex homotopy theory through cofree
comodules over the polynomial coalgebra on one generator x of bidegree
(-1,-1).

A family f = (f_n) of overall bidegree (u, v) lifts to the truncated
comodule R[x]_{<=N} (x) A by

    F(x^n (x) a) = sum_i (-1)^{i(u+v)} x^i (x) f_{n-i}(a),

extraction reads the x^0 rows back; lifts never raise the x-degree, so
the truncation is closed under everything used here.

Offset layout: R[x]_{<=N} (x) A at (i, j) is the sum over slots t of
x^t (x) A_{(i+t, j+t)}, with table t -> (offset, dim) (``expand_layout``).
A lift writes f_m from slot n into slot n - m as one signed block, and
extraction reads back the slot-0 row block.

The oracle statements verified against their direct counterparts:

  * lift(d)^2 = 0  iff  the twisting axioms hold for m <= N;
  * (-1)^r d~^B H~ + H~ d~^A = S^r G~ - S^r F~  iff  h is an r-homotopy,
    where S f = f shifted one step up, realized as F~ o d_x.
"""

from __future__ import annotations

from .bigraded import BigradedMap, BigradedModule, compose as bcompose, zero_map
from .linalg import Matrix
from .twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_r_homotopy,
)


def expand_module(mod: BigradedModule, n_max: int) -> BigradedModule:
    """R[x]_{<=N} (x) mod: the slot x^t shifts bidegrees by (-t, -t)."""
    dims: dict = {}
    for t in range(n_max + 1):
        for (i, j), n in mod.dims.items():
            k = (i - t, j - t)
            dims[k] = dims.get(k, 0) + n
    return BigradedModule(mod.field, dims)


def expand_layout(mod: BigradedModule, n_max: int, i: int,
                  j: int) -> list[tuple[int, int]]:
    """The expansion at (i, j) as one table: slot t -> (offset, dim) of
    x^t (x) mod_{(i+t, j+t)}, slots ascending."""
    out, off = [], 0
    for t in range(n_max + 1):
        dim = mod.dim(i + t, j + t)
        out.append((off, dim))
        off += dim
    return out


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

    def __add__(self, other):
        return TruncatedCoalgebraMap(self.n_max, self.src, self.dst,
                                     self.bidegree, self.map + other.map)

    def __sub__(self, other):
        return TruncatedCoalgebraMap(self.n_max, self.src, self.dst,
                                     self.bidegree, self.map - other.map)

    def scale(self, c):
        return TruncatedCoalgebraMap(self.n_max, self.src, self.dst,
                                     self.bidegree, self.map.scale(c))

    def is_zero(self):
        return self.map.is_zero()

    def __eq__(self, other):
        return (isinstance(other, TruncatedCoalgebraMap)
                and self.n_max == other.n_max and self.src == other.src
                and self.dst == other.dst and self.map == other.map)


def lift(family: dict[int, BigradedMap], u: int, v: int,
         src: BigradedModule, dst: BigradedModule,
         n_max: int) -> TruncatedCoalgebraMap:
    """F(x^n (x) a) = sum_i (-1)^{i(u+v)} x^i (x) f_{n-i}(a): f_m from slot
    n is written at slot n - m, so distinct m never overlap."""
    field = src.field
    esrc = expand_module(src, n_max)
    edst = expand_module(dst, n_max)
    blocks: dict = {}
    for (i, j) in esrc.support():
        dslots = expand_layout(dst, n_max, i + u, j + v)
        mat = Matrix.zero(field, edst.dim(i + u, j + v), esrc.dim(i, j))
        for n, (c0, _) in enumerate(expand_layout(src, n_max, i, j)):
            for m, fm in family.items():
                blk = fm.blocks.get((i + n, j + n))
                if m > n or blk is None:
                    continue
                slot = n - m
                mat.set_block(dslots[slot][0], c0,
                              -blk if slot * (u + v) % 2 else blk)
        blocks[(i, j)] = mat
    mp = BigradedMap(esrc, edst, (u, v), blocks)
    return TruncatedCoalgebraMap(n_max, src, dst, (u, v), mp)


def extract(t: TruncatedCoalgebraMap) -> dict[int, BigradedMap]:
    """Read the family back: f_n(a) = x^0-component of F(x^n (x) a), the
    top row block (slot 0) of each matrix."""
    u, v = t.bidegree
    per_n: dict[int, dict] = {}
    for (i, j), mat in t.map.blocks.items():
        rows = t.dst.dim(i + u, j + v)
        for n, (c0, cols) in enumerate(expand_layout(t.src, t.n_max, i, j)):
            blk = mat.get_block(0, c0, rows, cols)
            if not blk.is_zero():
                per_n.setdefault(n, {})[(i + n, j + n)] = blk
    return {n: BigradedMap(t.src, t.dst, (u - n, v - n), blocks)
            for n, blocks in per_n.items()}


def x_lowering(mod: BigradedModule, n_max: int) -> TruncatedCoalgebraMap:
    """d_x: x^n (x) a -> x^{n-1} (x) a, bidegree (1, 1): slot n of (i, j)
    and slot n - 1 of (i + 1, j + 1) are both mod_{(i+n, j+n)}."""
    field = mod.field
    emod = expand_module(mod, n_max)
    blocks = {}
    for (i, j) in emod.support():
        dslots = expand_layout(mod, n_max, i + 1, j + 1)
        mat = Matrix.zero(field, emod.dim(i + 1, j + 1), emod.dim(i, j))
        for n, (c0, dim) in enumerate(expand_layout(mod, n_max, i, j)):
            if n:
                mat.set_block(dslots[n - 1][0], c0,
                              Matrix.identity(field, dim))
        blocks[(i, j)] = mat
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
    keys = sorted(a.d)
    for m in range(0, m_max + 1):
        acc = zero_map(a.module, a.module, (-m, -m + 2))
        for i in keys:
            j = m - i
            if j in a.d:
                term = bcompose(a.d[i], a.d[j])
                acc = acc + (term if i % 2 == 0 else -term)
        if not acc.is_zero():
            return False
    return True


def default_truncation(h: RHomotopy) -> int:
    """Horizontal support width + r + 2."""
    cols = [i for (i, _) in h.src.module.dims] + \
        [i for (i, _) in h.dst.module.dims]
    width = (max(cols) - min(cols)) if cols else 0
    return width + h.r + 2


def check_coderh(h: RHomotopy, n_max: int | None = None) -> bool:
    """(-1)^r d~^B H~ + H~ d~^A = S^r G~ - S^r F~ on R[x]_{<=N} (x) A,
    cross-checked against the direct (H_m) checker; the verdicts must
    agree.  Raises when N is too small to see all conditions."""
    req = default_truncation(h)
    if n_max is None:
        n_max = req
    if n_max < req:
        raise ValueError(f"truncation {n_max} too small; need at least {req}")
    from .twisted import check_morphism
    if not (check_morphism(h.f).ok and check_morphism(h.g).ok):
        raise ValueError("f and g must be valid morphisms of twisted complexes")
    r = h.r
    da = lift_twisted(h.src, n_max)
    db = lift_twisted(h.dst, n_max)
    fl = lift_morphism(h.f, n_max)
    gl = lift_morphism(h.g, n_max)
    hl = lift_homotopy(h, n_max)
    lhs = db.compose(hl).scale(h.src.field.of_int(-1 if r % 2 else 1)) \
        + hl.compose(da)
    sf, sg = fl, gl
    for _ in range(r):
        sf = shift(sf)
        sg = shift(sg)
    # cross-check the shift against the lifted index-shifted family
    shifted_family = {m + r: fm for m, fm in h.f.f.items()}
    if sf != lift(shifted_family, r, r, h.src.module, h.dst.module, n_max):
        raise AssertionError("composition with d_x disagrees with the "
                             "index-shifted lift")
    oracle = (lhs - (sg - sf)).is_zero()
    direct = check_r_homotopy(h).ok
    if oracle != direct:
        raise AssertionError(
            f"coderivation homotopy oracle disagrees with the direct "
            f"checker (oracle {oracle}, direct {direct}) at truncation "
            f"{n_max}")
    return oracle