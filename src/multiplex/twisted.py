"""Twisted complexes (multicomplexes) and their homotopy theory.

A twisted complex is a bigraded module with maps d_m of bidegree
(-m, -m+1) satisfying, for every m,

    sum_{i+j=m} (-1)^i d_i d_j = 0.                              (A_m)

Morphisms carry families f_m of bidegree (-m, -m) with

    sum_{i+j=m} d_i^B f_j = sum_{i+j=m} (-1)^i f_i d_j^A,       (B_m)

and an r-homotopy between f and g is a family hhat_m of bidegree
(-m+r, -m+r-1) with

    sum_{i+j=m} (-1)^{i+r} d_i^B hhat_j + (-1)^i hhat_i d_j^A
        = 0 (m < r),  g_{m-r} - f_{m-r} (m >= r).               (H_m)

(A_m) and (B_m) are decided for all m at once on the totalization.  Tot
puts the sign (-1)^{mn} on the d_m (or f_m) block applied in degree n, so
the block of D^{n+1} D^n from column i to column i - m is (-1)^{mn} times
the (A_m) defect at (i, n + i), and the same block of D_B Tot(f) -
Tot(f) D_A is (-1)^{mn} times the (B_m) defect: each condition is one
matrix identity per degree, and the nonzero blocks of a failing product
are read back as the failure locations (m, i, n + i).

The homotopy checker computes (H_m) directly, block by block.  The
equivalent route, the candidate map x -> (f x, hhat x, g x) into the
r-path of the target run through the morphism checker, is the test
suite's reference for it.

The signed sums of the tensor differential, of (H_m) and of the homotopy
solver's right sides g_{m-r} - f_{m-r} are accumulated term by term in
a ``MapSum`` and reduced once when read, so no dense map is added or
negated per term; the tensor differential and the (H_m) defects are
summed and read one m at a time, so only one sum is held at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import TYPE_CHECKING

from .bigraded import (
    BigradedMap, BigradedModule, MapSum, compose as bcompose, degrees_of,
    direct_sum, identity_map, invert_blocks, place, relabel, restrict,
    shift_into, sprod, sum_module, tensor_maps, tensor_modules, tot_blocks,
    tot_layout, tot_matrix, unit_module, zero_map,
)
from .linalg import BlockLinearSystem, Matrix
from .reports import Report

if TYPE_CHECKING:
    from .filtration import FilteredComplex


class TwistedComplex:
    """Bigraded module with a finitely supported family of twisting maps."""

    __slots__ = ("module", "d")

    def __init__(self, module: BigradedModule, d: dict[int, BigradedMap] | None = None):
        self.module = module
        self.d = {}
        for m, dm in (d or {}).items():
            if m < 0:
                raise ValueError("negative twisting index")
            if dm.src != module or dm.dst != module:
                raise ValueError(f"d_{m} is not an endomorphism of the module")
            if dm.bidegree != (-m, -m + 1):
                raise ValueError(f"d_{m} has bidegree {dm.bidegree}, "
                                 f"expected {(-m, -m + 1)}")
            if not dm.is_zero():
                self.d[m] = dm

    @property
    def field(self):
        return self.module.field

    def d_map(self, m: int) -> BigradedMap:
        dm = self.d.get(m)
        if dm is None:
            dm = zero_map(self.module, self.module, (-m, -m + 1))
        return dm

    def __eq__(self, other):
        if not isinstance(other, TwistedComplex):
            return NotImplemented
        if self.module != other.module:
            return False
        keys = set(self.d) | set(other.d)
        return all(self.d_map(m) == other.d_map(m) for m in keys)

    def __repr__(self):
        return f"TwistedComplex(dims={dict(sorted(self.module.dims.items()))}, " \
               f"d_support={sorted(self.d)})"


class TwistedMorphism:
    __slots__ = ("src", "dst", "f")

    def __init__(self, src: TwistedComplex, dst: TwistedComplex,
                 f: dict[int, BigradedMap] | None = None):
        self.src = src
        self.dst = dst
        self.f = {}
        for m, fm in (f or {}).items():
            if m < 0:
                raise ValueError("negative morphism index")
            if fm.src != src.module or fm.dst != dst.module:
                raise ValueError(f"f_{m} modules do not match src/dst")
            if fm.bidegree != (-m, -m):
                raise ValueError(f"f_{m} has bidegree {fm.bidegree}, "
                                 f"expected {(-m, -m)}")
            if not fm.is_zero():
                self.f[m] = fm

    @property
    def field(self):
        return self.src.field

    def f_map(self, m: int) -> BigradedMap:
        fm = self.f.get(m)
        if fm is None:
            fm = zero_map(self.src.module, self.dst.module, (-m, -m))
        return fm

    def __eq__(self, other):
        if not isinstance(other, TwistedMorphism):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        keys = set(self.f) | set(other.f)
        return all(self.f_map(m) == other.f_map(m) for m in keys)

    def __add__(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("morphism mismatch")
        keys = set(self.f) | set(other.f)
        return TwistedMorphism(self.src, self.dst,
                               {m: self.f_map(m) + other.f_map(m) for m in keys})

    def __sub__(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("morphism mismatch")
        keys = set(self.f) | set(other.f)
        return TwistedMorphism(self.src, self.dst,
                               {m: self.f_map(m) - other.f_map(m) for m in keys})

    def __repr__(self):
        return f"TwistedMorphism(support={sorted(self.f)})"


class RHomotopy:
    """Witness for f ~_r g: family hhat_m of bidegree (-m+r, -m+r-1)."""

    __slots__ = ("r", "f", "g", "h")

    def __init__(self, r: int, f: TwistedMorphism, g: TwistedMorphism,
                 h: dict[int, BigradedMap] | None = None):
        if r < 0:
            raise ValueError("r must be non-negative")
        if f.src != g.src or f.dst != g.dst:
            raise ValueError("f and g must share source and target")
        self.r = r
        self.f = f
        self.g = g
        self.h = {}
        for m, hm in (h or {}).items():
            if m < 0:
                raise ValueError("negative homotopy index")
            if hm.src != f.src.module or hm.dst != f.dst.module:
                raise ValueError(f"hhat_{m} modules do not match")
            if hm.bidegree != (-m + r, -m + r - 1):
                raise ValueError(f"hhat_{m} has bidegree {hm.bidegree}, "
                                 f"expected {(-m + r, -m + r - 1)}")
            if not hm.is_zero():
                self.h[m] = hm

    @property
    def src(self):
        return self.f.src

    @property
    def dst(self):
        return self.f.dst

    def h_map(self, m: int) -> BigradedMap:
        hm = self.h.get(m)
        if hm is None:
            hm = zero_map(self.src.module, self.dst.module,
                          (-m + self.r, -m + self.r - 1))
        return hm


def identity_morphism(a: TwistedComplex) -> TwistedMorphism:
    return TwistedMorphism(a, a, {0: identity_map(a.module)})


def zero_morphism(a: TwistedComplex, b: TwistedComplex) -> TwistedMorphism:
    return TwistedMorphism(a, b, {})


def unit_complex(field) -> TwistedComplex:
    return TwistedComplex(unit_module(field), {})


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _fail_on_tot(rep: Report, name: str, defects: dict, src: dict,
                 dst: dict):
    """Record the failures of a condition decided on Tot: defects[n] is a
    matrix from the layout src[n] to the layout dst[n] whose block from
    column i to column i2 is (-1)^{mn} times the (name_m) defect at source
    bidegree (i, n + i), m = i - i2.  Recorded in ascending (m, i, j)."""
    locs = sorted((i - i2, i, n + i) for n, mat in defects.items()
                  if not mat.is_zero()
                  for i, i2, _ in tot_blocks(mat, src[n], dst[n]))
    for m, i, j in locs:
        rep.fail((m, i, j), f"({name}_{m}) fails on the block at {(i, j)}")


def check_twisted(a: TwistedComplex,
                  k: FilteredComplex | None = None) -> Report:
    """(A_m) for all m at once: with the sign (-1)^{mn} that Tot puts on
    d_m in degree n, the block of D^{n+1} D^n from column i to column
    i - m is (-1)^{mn} times the (A_m) defect at (i, n + i).  The D^n are
    read off k = tot(a), built here unless the caller passes the one it
    has; a D^n that is absent there is zero, and so is its product."""
    from .filtration import tot
    if k is None:
        k = tot(a)
    elif k.module is not a.module:
        raise ValueError("k is not the totalization of a")
    rep = Report("twisted complex axioms (A_m)")
    rep.tick(len({i + j for i in a.d for j in a.d}))
    degs, d = degrees_of(a.module), k.d
    _fail_on_tot(rep, "A", {n: d[n + 1] * d[n] for n in degs
                            if n in d and n + 1 in d},
                 {n: k.layout(n) for n in degs},
                 {n: k.layout(n + 2) for n in degs})
    return rep


def check_morphism(f: TwistedMorphism) -> Report:
    """(B_m) for all m at once: the block of D_B^n F^n - F^{n+1} D_A^n on
    Tot from column i to column i - m is (-1)^{mn} times the (B_m) defect
    at (i, n + i).  An endomorphism reads both sides off one D^n."""
    rep = Report("twisted morphism conditions (B_m)")
    rep.tick(len({i + j for i in f.dst.d for j in f.f}
                 | {i + j for i in f.f for j in f.src.d}))
    ma, mb, field = f.src.module, f.dst.module, f.field
    degs = degrees_of(ma)
    ns = set(degs) | {n + 1 for n in degs}
    endo = f.src is f.dst
    la = {n: tot_layout(ma, n) for n in ns}
    lb = la if endo else {n: tot_layout(mb, n) for n in ns}
    tf = {n: tot_matrix(f.f, 0, n, la[n], lb[n], field) for n in ns}
    defects = {}
    for n in degs:
        da = tot_matrix(f.src.d, 0, n, la[n], la[n + 1], field)
        db = da if endo else tot_matrix(f.dst.d, 0, n, lb[n], lb[n + 1],
                                        field)
        defects[n] = db * tf[n] - tf[n + 1] * da
    _fail_on_tot(rep, "B", defects, la, {n: lb[n + 1] for n in degs})
    return rep


# ---------------------------------------------------------------------------
# category structure
# ---------------------------------------------------------------------------

def compose(g: TwistedMorphism, f: TwistedMorphism) -> TwistedMorphism:
    """g after f, (g o f)_m = sum_{i+j=m} g_i f_j.  A morphism when f and
    g are: on Tot, D G F - G F D = (D G - G D) F + G (D F - F D)."""
    if f.dst != g.src:
        raise ValueError("source/target mismatch in composition")
    comps: dict[int, BigradedMap] = {}
    for i, gi in g.f.items():
        for j, fj in f.f.items():
            m = i + j
            term = bcompose(gi, fj)
            comps[m] = comps[m] + term if m in comps else term
    return TwistedMorphism(f.src, g.dst, comps)


def invert(f: TwistedMorphism) -> TwistedMorphism | None:
    """Two-sided inverse, or None when some block of f_0 is not invertible;
    a morphism, since on Tot D G = G F D G = G D F G = G D."""
    a, b = f.src, f.dst
    g0 = invert_blocks(f.f_map(0))
    if g0 is None:
        return None
    g = {0: g0}
    # g_m = -f_0^{-1} (sum_{i+j=m, i>0} f_i g_j), a triangular recursion;
    # g_m can only be nonzero where a bidegree-(-m,-m) map B -> A exists
    max_m = max(((ib - ia) for (ib, jb) in b.module.dims
                 for (ia, ja) in a.module.dims
                 if ib - ia == jb - ja and ib - ia > 0), default=0)
    for m in range(1, max_m + 1):
        acc = zero_map(b.module, a.module, (-m, -m))
        for i, fi in f.f.items():
            if i == 0:
                continue
            j = m - i
            if j in g:
                acc = acc + bcompose(fi, g[j])
        gm = -bcompose(g0, acc)
        if not gm.is_zero():
            g[m] = gm
    ginv = TwistedMorphism(b, a, g)
    if compose(ginv, f) != identity_morphism(a) or \
       compose(f, ginv) != identity_morphism(b):
        raise AssertionError("triangular inversion failed to produce an inverse")
    return ginv


# ---------------------------------------------------------------------------
# monoidal structure and internal hom
# ---------------------------------------------------------------------------

def tensor(a: TwistedComplex, b: TwistedComplex) -> TwistedComplex:
    """(A (x) B, d_m^A (x) 1 + 1 (x) d_m^B), a twisted complex when A and B
    are: with Koszul signs, D^2 = D_A^2 (x) 1 + 1 (x) D_B^2."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    ida, idb = identity_map(a.module), identity_map(b.module)
    d = {}
    for m in sorted(set(a.d) | set(b.d)):
        acc = MapSum()
        if m in a.d:
            acc.add(m, tensor_maps(a.d[m], idb))
        if m in b.d:
            acc.add(m, tensor_maps(ida, b.d[m]))
        d[m] = acc.maps()[m]
    return TwistedComplex(tensor_modules(a.module, b.module), d)


def tensor_morphisms(f: TwistedMorphism, g: TwistedMorphism) -> TwistedMorphism:
    """(f (x) g)_m = sum_{i+j=m} f_i (x) g_j, a morphism when f and g are:
    then f (x) g commutes with D (x) 1 + 1 (x) D."""
    src = tensor(f.src, g.src)
    dst = tensor(f.dst, g.dst)
    comps: dict[int, BigradedMap] = {}
    for i, fi in f.f.items():
        for j, gj in g.f.items():
            m = i + j
            term = tensor_maps(fi, gj)
            comps[m] = comps[m] + term if m in comps else term
    return TwistedMorphism(src, dst, comps)


def internal_hom(a: TwistedComplex, b: TwistedComplex) -> TwistedComplex:
    """[A,B] with (d_i f) = d_i^B f - (-1)^{<(-i, 1-i), (u, v)>} f d_i^A
    on f of bidegree (u, v): the Koszul sign of moving d_i past f, so that
    evaluation [A,B] (x) A -> B, f (x) a -> f(a), is a strict morphism.

    The (u,v) piece is the space of bigraded maps of bidegree (u,v),
    truncated to the finite window spanned by the supports: the summands
    Hom(A_i^j, B_{i+u}^{j+v}) in ascending (i, j), each with its elementary
    maps indexed row-major by (source index, target index).  On such a
    summand d_i^B o - is 1 (x) d_i^B, landing in the summand of the same
    source, and - o d_i^A is (d_i^A)^T (x) 1, landing in the summand of
    the source of d_i^A: each is written as a Kronecker block at offsets.
    A twisted complex when A and B are: d f = D_B f - (-1)^{|f|} f D_A
    squares to D_B^2 f - f D_A^2.
    """
    field = a.field
    offsets: dict[tuple[int, int], dict] = {}
    hom_dims: dict[tuple[int, int], int] = {}
    for (i, j) in a.module.support():
        n = a.module.dims[(i, j)]
        for (i2, j2), n2 in b.module.dims.items():
            k = (i2 - i, j2 - j)
            offsets.setdefault(k, {})[(i, j)] = hom_dims.get(k, 0)
            hom_dims[k] = hom_dims.get(k, 0) + n * n2
    mod = BigradedModule(field, hom_dims)

    d: dict[int, BigradedMap] = {}
    for m in sorted(set(a.d) | set(b.d)):
        dmb, dma = b.d.get(m), a.d.get(m)
        blocks = {}
        for (u, v), src_offs in offsets.items():
            dst_offs = offsets.get((u - m, v - m + 1))
            if dst_offs is None:
                continue
            mat = blocks[(u, v)] = Matrix.zero(
                field, hom_dims[(u - m, v - m + 1)], hom_dims[(u, v)])
            for (i, j), c0 in src_offs.items():
                na, nb = a.module.dims[(i, j)], b.module.dim(i + u, j + v)
                blk = dmb.blocks.get((i + u, j + v)) if dmb else None
                if blk is not None:
                    r0 = dst_offs[(i, j)]
                    for s in range(na):
                        mat.set_block(r0 + s * blk.rows, c0 + s * nb, blk)
                blk = dma.blocks.get((i + m, j + m - 1)) if dma else None
                if blk is not None:
                    mat.set_block(dst_offs[(i + m, j + m - 1)], c0,
                                  _transpose_kron_identity(blk, nb),
                                  sprod((-m, 1 - m), (u, v)) % 2 == 0)
        d[m] = BigradedMap(mod, mod, (-m, -m + 1), blocks)
    return TwistedComplex(mod, d)


def _transpose_kron_identity(x: Matrix, n: int) -> Matrix:
    """x^T (x) 1_n: entry x[r, c] on the diagonal of the n x n block at
    block row c and block column r."""
    out = Matrix.zero(x.field, x.cols * n, x.rows * n)
    for r, row in enumerate(x.to_rows()):
        for c, val in enumerate(row):
            if val:
                for t in range(n):
                    out[c * n + t, r * n + t] = val
    return out


# ---------------------------------------------------------------------------
# paths, translations, cones
# ---------------------------------------------------------------------------

@dataclass
class PathObject:
    complex: TwistedComplex
    iota: TwistedMorphism          # A -> P_r(A), x -> (x, 0, x)
    p_minus: TwistedMorphism       # (x,y,z) -> x
    p_plus: TwistedMorphism        # (x,y,z) -> z
    p_zero: BigradedMap            # (x,y,z) -> y, bidegree (r, r-1)
    r: int


def path_summands(mod: BigradedModule, r: int) -> tuple:
    """The summands A, A[mid], A of P_r(A), with A[mid]_i^j = A_{i+r}^{j+r-1}."""
    return (mod, mod.shifted((-r, 1 - r)), mod)


def path_diagonal(x: BigradedMap, r: int, negate_mid) -> dict:
    """The pieces of (x, +-x[mid], x) between the path summands of the
    source and the target of x, the middle copy negated if negate_mid."""
    return {(0, 0): (x, False), (1, 1): (x.shifted((-r, 1 - r)), negate_mid),
            (2, 2): (x, False)}


def path_differential(mod: BigradedModule, d: dict[int, BigradedMap],
                      r: int) -> dict[int, BigradedMap]:
    """d_m of P_r(A) from the twisting maps d of A: (d_m, (-1)^{m+r+1}
    d_m[mid], d_m) on the diagonal, and at m = r the shift A -> A[mid]
    from the third summand minus the same from the first."""
    parts = path_summands(mod, r)
    into_mid = shift_into(mod, (-r, 1 - r))
    out = {}
    for m in sorted(set(d) | {r}):
        pieces = path_diagonal(d[m], r, (m + r + 1) % 2) if m in d else {}
        if m == r:
            pieces[(1, 0)] = (into_mid, True)
            pieces[(1, 2)] = (into_mid, False)
        out[m] = place(parts, parts, (-m, -m + 1), pieces)
    return out


@cache
def path_structure_maps(mod: BigradedModule, r: int) -> tuple:
    """iota, p_minus, p_plus and p_zero of P_r(A) as maps of modules.

    A constant of (mod, r), built once: the result is shared by every
    caller and must not be changed."""
    parts = path_summands(mod, r)
    one = identity_map(mod)
    return (place([mod], parts, (0, 0), {(0, 0): (one, False),
                                         (2, 0): (one, False)}),
            place(parts, [mod], (0, 0), {(0, 0): (one, False)}),
            place(parts, [mod], (0, 0), {(0, 2): (one, False)}),
            place(parts, [mod], (r, r - 1),
                  {(0, 1): (relabel(one, (-r, 1 - r), (0, 0)), False)}))


def path(a: TwistedComplex, r: int) -> PathObject:
    """The r-path P_r(A)_i^j = A_i^j (+) A_{i+r}^{j+r-1} (+) A_i^j, with
    iota and p+- morphisms when A is twisted: (A_m) on each summand is
    +-(A_m) of A, a shift at m = r and d_{m-r} cancel in pairs, and the
    shifts send (x, 0, x) to 0."""
    p = TwistedComplex(sum_module(path_summands(a.module, r)),
                       path_differential(a.module, a.d, r))
    iota0, minus0, plus0, p_zero = path_structure_maps(a.module, r)
    return PathObject(p, TwistedMorphism(a, p, {0: iota0}),
                      TwistedMorphism(p, a, {0: minus0}),
                      TwistedMorphism(p, a, {0: plus0}), p_zero, r)


def path_morphism(f: TwistedMorphism, r: int,
                  src_path: PathObject | None = None,
                  dst_path: PathObject | None = None) -> TwistedMorphism:
    """P_r(f)_m = (f_m, (-1)^m f_m, f_m), a morphism when f is: (B_m) on
    each diagonal summand is (B_m) of f, and the shifts at m = r commute
    with the diagonal."""
    pa = src_path or path(f.src, r)
    pb = dst_path or path(f.dst, r)
    src, dst = path_summands(f.src.module, r), path_summands(f.dst.module, r)
    return TwistedMorphism(pa.complex, pb.complex, {
        m: place(src, dst, (-m, -m), path_diagonal(fm, r, m % 2))
        for m, fm in f.f.items()})


def translation(a: TwistedComplex, r: int) -> TwistedComplex:
    """T_r(A)_i^j = A_{i-r}^{j-r+1} with T_r(d_m) = (-1)^{m+r+1} d_m, a
    twisted complex when A is: T_r(d_i) T_r(d_j) is (-1)^m d_i d_j, so
    (A_m) of T_r(A) is (-1)^m times (A_m) of A."""
    shift = (r, r - 1)
    mod = a.module.shifted(shift)
    d = {}
    for m, dm in a.d.items():
        t = dm.shifted(shift)
        if (m + r + 1) % 2:
            t = -t
        d[m] = t
    return TwistedComplex(mod, d)


@dataclass
class ConeObject:
    complex: TwistedComplex
    inclusion: TwistedMorphism    # B -> C_r(f)
    projection: TwistedMorphism   # C_r(f) -> T_r(A)
    w: TwistedMorphism            # the morphism the cone was built from
    r: int


def cone_summands(f: TwistedMorphism, r: int) -> tuple:
    """The summands T_r(A), B of C_r(f) as modules, for f: A -> B."""
    return (f.src.module.shifted((r, r - 1)), f.dst.module)


def cone_complex(f: TwistedMorphism, r: int) -> TwistedComplex:
    """C_r(f)_i^j = A_{i-r}^{j-r+1} (+) B_i^j with
    D_m(a,b) = ((-1)^{m+r+1} d_m a, (-1)^{m+r+1} f_{m-r}(a) + d_m b).
    (A_m) on it holds exactly when it holds on A and on B and f satisfies
    (B_m)."""
    a, b = f.src, f.dst
    shift = (r, r - 1)
    parts = cone_summands(f, r)
    d: dict[int, BigradedMap] = {}
    for m in sorted(set(a.d) | set(b.d) | {m + r for m in f.f}):
        negate = (m + r + 1) % 2
        pieces = {}
        if m in a.d:
            pieces[(0, 0)] = (a.d[m].shifted(shift), negate)
        if m in b.d:
            pieces[(1, 1)] = (b.d[m], False)
        if m - r in f.f:  # convention f_{<0} = 0
            pieces[(1, 0)] = (relabel(f.f[m - r], shift, (0, 0)), negate)
        d[m] = place(parts, parts, (-m, -m + 1), pieces)
    return TwistedComplex(sum_module(parts), d)


def cone(f: TwistedMorphism, r: int) -> ConeObject:
    """C_r(f) with its inclusion of B and its projection onto T_r(A),
    morphisms when f is one between twisted complexes (``cone_complex``):
    D_m has no block from B to T_r(A), and its T_r(A) row is T_r(d_m)."""
    c = cone_complex(f, r)
    _, (_, inc_b), (pr_a, _) = direct_sum(cone_summands(f, r))
    return ConeObject(c, TwistedMorphism(f.dst, c, {0: inc_b}),
                      TwistedMorphism(c, translation(f.src, r), {0: pr_a}),
                      f, r)


# ---------------------------------------------------------------------------
# r-homotopies
# ---------------------------------------------------------------------------

def _add_homotopy_lhs(acc: MapSum, h: RHomotopy, m: int) -> None:
    """acc[m] += sum_{i+j=m} (-1)^{i+r} d_i^B hhat_j + (-1)^i hhat_i d_j^A;
    acc[m] exists afterwards, zero or not."""
    a, b, r = h.src, h.dst, h.r
    acc.add(m, zero_map(a.module, b.module, (-m + r, -m + r)))
    for i, di in b.d.items():
        if m - i in h.h:
            acc.add_compose(m, di, h.h[m - i], i + r)
    for i, hi in h.h.items():
        if m - i in a.d:
            acc.add_compose(m, hi, a.d[m - i], i)


def homotopy_lhs(h: RHomotopy, m: int) -> BigradedMap:
    """sum_{i+j=m} (-1)^{i+r} d_i^B hhat_j + (-1)^i hhat_i d_j^A."""
    acc = MapSum()
    _add_homotopy_lhs(acc, h, m)
    return acc.maps()[m]


def check_r_homotopy(h: RHomotopy) -> Report:
    """Verify (H_m) for all m, after (B_m) on f and g.  (A_m) on the
    target is not decided here; `homotopy check` and `oracle coderh`
    decide it first."""
    rep = Report(f"{h.r}-homotopy conditions (H_m)")
    fr = check_morphism(h.f)
    gr = check_morphism(h.g)
    if not fr.ok or not gr.ok:
        rep.fail("inputs", "f or g is not a morphism of twisted complexes")
        return rep
    r = h.r
    ms = set()
    for i in h.dst.d:
        for j in h.h:
            ms.add(i + j)
    for i in h.h:
        for j in h.src.d:
            ms.add(i + j)
    ms |= {m + r for m in set(h.f.f) | set(h.g.f)}
    for m in sorted(ms):
        # the (H_m) defect lhs - (g_{m-r} - f_{m-r}), summed in one bucket
        acc = MapSum()
        _add_homotopy_lhs(acc, h, m)
        if m - r in h.g.f:
            acc.add(m, h.g.f[m - r], 1)
        if m - r in h.f.f:
            acc.add(m, h.f.f[m - r])
        rep.tick()
        for loc in sorted(acc.sparse_maps()[m].blocks):
            rep.fail((m,) + loc, f"(H_{m}) fails on the block at {loc}")
    return rep


def solve_r_homotopy(f: TwistedMorphism, g: TwistedMorphism, r: int) \
        -> RHomotopy | None:
    """Find hhat with f ~_r g, or None when the linear system is insoluble.
    Its equations are every (H_m) block that can be nonzero, so a
    solution satisfies (H_m)."""
    if f.src != g.src or f.dst != g.dst:
        raise ValueError("f and g must share source and target")
    a, b = f.src, f.dst
    field = f.field
    sys = BlockLinearSystem(field)
    # variables: blocks of hhat_m at source bidegree (i,j)
    hvars = []
    supp_a = a.module.support()
    supp_b = set(b.module.support())
    i_min_b = min((i for (i, _) in supp_b), default=0)
    i_max_a = max((i for (i, _) in supp_a), default=0)
    m_hi = r + i_max_a - i_min_b
    for m in range(0, max(0, m_hi) + 1):
        for (i, j) in supp_a:
            tgt = (i - m + r, j - m + r - 1)
            if tgt in supp_b:
                key = ("h", m, i, j)
                sys.variable(key, b.module.dims[tgt], a.module.dims[(i, j)])
                hvars.append((m, (i, j)))
    # equations: (H_m) blocks, right sides g_{m-r} - f_{m-r}
    d_keys_b = sorted(b.d)
    d_keys_a = sorted(a.d)
    acc = MapSum()
    for m, gm in g.f.items():
        acc.add(m + r, gm)
    for m, fm in f.f.items():
        acc.add(m + r, fm, 1)
    rhs = acc.maps()
    m_eq_hi = m_hi + max(d_keys_a + d_keys_b, default=0) \
        + r + max(set(f.f) | set(g.f), default=0) + 1
    for m in range(0, m_eq_hi + 1):
        diff = rhs.get(m)
        for (i, j) in supp_a:
            tgt = (i - m + r, j - m + r)
            if tgt not in supp_b:
                continue
            eq = ("H", m, i, j)
            rows = b.module.dims[tgt]
            cols = a.module.dims[(i, j)]
            sys.equation(eq, rows, cols)
            for di in d_keys_b:
                jm = m - di
                vk = ("h", jm, i, j)
                if jm >= 0 and vk in sys._vars:
                    blk = b.d[di].blocks.get((i - jm + r, j - jm + r - 1))
                    if blk is not None:
                        sys.add_term(eq, vk, blk, None,
                                     1 if (di + r) % 2 == 0 else -1)
            for dj in d_keys_a:
                hi = m - dj
                if hi < 0:
                    continue
                dblk = a.d[dj].blocks.get((i, j))
                if dblk is None:
                    continue
                vk = ("h", hi, i - dj, j - dj + 1)
                if vk in sys._vars:
                    sys.add_term(eq, vk, None, dblk,
                                 1 if hi % 2 == 0 else -1)
            if diff is not None and (i, j) in diff.blocks:
                sys.add_rhs(eq, diff.blocks[(i, j)])
    sol = sys.solve()
    if sol is None:
        return None
    per_m: dict[int, dict] = {}
    for (m, (i, j)) in hvars:
        blk = sol[("h", m, i, j)]
        if not blk.is_zero():
            per_m.setdefault(m, {})[(i, j)] = blk
    h = {m: BigradedMap(a.module, b.module, (-m + r, -m + r - 1), blocks)
         for m, blocks in per_m.items()}
    return RHomotopy(r, f, g, h)


def shift_homotopy(h: RHomotopy) -> RHomotopy:
    """An (r+1)-homotopy from the same f to g: hhat'_0 = 0, hhat'_m = -hhat_{m-1}.

    Reindexing m -> m-1 flips the parity of every sign in (H_m), so the
    bare index shift witnesses g ~ f; negating the family keeps the
    direction f ~ g: (H_m) of the result is (H_{m-1}) of h, decided here.
    """
    check_r_homotopy(h).raise_if_failed()
    return RHomotopy(h.r + 1, h.f, h.g, {m + 1: -hm for m, hm in h.h.items()})


def negate_homotopy(h: RHomotopy) -> RHomotopy:
    """Witness for the symmetric relation g ~_r f."""
    return RHomotopy(h.r, h.g, h.f, {m: -hm for m, hm in h.h.items()})


def add_homotopies(h1: RHomotopy, h2: RHomotopy) -> RHomotopy:
    """Transitivity witness: f ~ f' and f' ~ f'' give hhat + hhat'."""
    if h1.g != h2.f or h1.r != h2.r:
        raise ValueError("homotopies are not composable")
    keys = set(h1.h) | set(h2.h)
    return RHomotopy(h1.r, h1.f, h2.g,
                     {m: h1.h_map(m) + h2.h_map(m) for m in keys})


# ---------------------------------------------------------------------------
# cones vs homotopies (Lemma-level translation)
# ---------------------------------------------------------------------------

def cone_to_pair(tau: TwistedMorphism, cone_obj: ConeObject):
    """From tau: C_r(w) -> X recover (f, h) with f = tau o incl and
    h: f o w ~_r 0 given by hhat_m(a) = (-1)^m tau_m(a, 0).  tau is decided
    here; f is its restriction to the subcomplex B, and h satisfies (H_m)
    by the identity of ``pair_to_cone``."""
    check_morphism(tau).raise_if_failed()
    if tau.src != cone_obj.complex:
        raise ValueError("tau does not start at the given cone")
    w, r = cone_obj.w, cone_obj.r
    a, b = w.src, w.dst
    x_cx = tau.dst
    parts = cone_summands(w, r)
    f = TwistedMorphism(b, x_cx,
                        {m: restrict(tm, parts, 1) for m, tm in tau.f.items()})
    hmaps = {}
    for m, tm in tau.f.items():
        hm = relabel(restrict(tm, parts, 0), (-r, 1 - r), (0, 0))
        hmaps[m] = -hm if m % 2 else hm
    return f, RHomotopy(r, compose(f, w), zero_morphism(a, x_cx), hmaps)


def pair_to_cone(f: TwistedMorphism, h: RHomotopy,
                 cone_obj: ConeObject) -> TwistedMorphism:
    """tau_m(a, b) = (-1)^m hhat_m(a) + f_m(b), for h: f o w ~_r 0.

    On the T_r(A) summand, the (B_m) defect of tau is (-1)^{m+r} times
    the (H_m) defect of h as a homotopy f o w ~_r 0, and on B it is that
    of f; both are decided here."""
    w, r = cone_obj.w, cone_obj.r
    if h.f != compose(f, w) or h.g != zero_morphism(w.src, f.dst):
        raise ValueError("h must witness f o w ~_r 0")
    check_morphism(f).raise_if_failed()
    check_r_homotopy(h).raise_if_failed()
    shift = (r, r - 1)
    parts = cone_summands(w, r)
    comps = {}
    for m in sorted(set(h.h) | set(f.f)):
        pieces = {}
        if m in h.h:
            pieces[(0, 0)] = (relabel(h.h[m], shift, (0, 0)), m % 2)
        if m in f.f:
            pieces[(0, 1)] = (f.f[m], False)
        comps[m] = place(parts, [f.dst.module], (-m, -m), pieces)
    return TwistedMorphism(cone_obj.complex, f.dst, comps)
