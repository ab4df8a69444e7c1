"""Shared helpers for the test suite and the acceptance gate."""

import random
from fractions import Fraction

from multiplex.bigraded import (
    BigradedMap, BigradedModule, compose as bcompose, identity_map, leaf,
    nary_tensor_maps, node, power_module, power_tree, tree_iso, zero_map,
)
from multiplex.dainf import (
    DAInfAlgebra, DAInfHomotopy, DAInfMorphism, check_dainf_morphism,
    check_r_homotopy_dainf, lambda_r_dga, path_dainf,
)
from multiplex.linalg import Matrix
from multiplex.reports import Report
from multiplex.twisted import (
    RHomotopy, TwistedMorphism, check_morphism, check_r_homotopy, compose,
    identity_morphism, path,
)

# random_twisted_complex options filling most of the spots (i, i + k),
# i = 0..3, k = 0..2, so that the complexes, maps and homotopies drawn on
# them are nonzero (the tests that use it assert so); with spots=3 most
# draws have at most one twisting map and zero homotopies
SHAPE = dict(cols=(0, 3), verts=(0, 2), max_rank=2, spots=12)

# random_twisted_complex options with nonzero differentials on spectral
# pages 0-4, the last the benchmark's shape
REF_SHAPES = [dict(cols=(0, 5), verts=(-1, 3), max_rank=2, spots=12),
              dict(cols=(0, 8), verts=(-1, 2), max_rank=1, spots=40),
              dict(cols=(0, 6), verts=(-2, 3), max_rank=3, spots=15),
              dict(cols=(0, 13), verts=(-1, 2), max_rank=1, spots=200)]


def assert_canonical(field, data):
    """Every entry is in the one canonical form of its field: over F_p an
    int in [0, p); over QQ an int (not a bool) when the value is integral,
    otherwise a Fraction with denominator > 1, and never a float."""
    if field.p:
        assert all(type(v) is int and 0 <= v < field.p for v in data)
    else:
        assert all(type(v) is int
                   or (type(v) is Fraction and v.denominator > 1)
                   for v in data)


def subpower_tree(mod, arities):
    """The tree Pow(mod, q_1) (x) ... (x) Pow(mod, q_l), left-associated
    over the left powers of the arities."""
    t = power_tree(mod, arities[0])
    for q in arities[1:]:
        t = node(t, power_tree(mod, q))
    return t


def hom_one_map_one(m, base, r, t, q):
    """Reference for 1^r (x) m (x) 1^t between left powers of base, by the
    tree route: the left-associated tensor of the identities and m, between
    the tree_iso regroupings out of Pow(base, r+q+t) and into
    Pow(base, r+1+t).  m maps Pow(base, q) -> base."""
    if not r and not t:
        return m
    parts, src_shape, dst_shape = [], [], []
    if r:
        parts.append(identity_map(power_module(base, r)))
        src_shape.append(power_tree(base, r))
        dst_shape.append(power_tree(base, r))
    parts.append(m)
    src_shape.append(power_tree(base, q))
    dst_shape.append(leaf(base))
    if t:
        parts.append(identity_map(power_module(base, t)))
        src_shape.append(power_tree(base, t))
        dst_shape.append(power_tree(base, t))
    src_tree, dst_tree = src_shape[0], dst_shape[0]
    for s in src_shape[1:]:
        src_tree = node(src_tree, s)
    for s in dst_shape[1:]:
        dst_tree = node(dst_tree, s)
    pre = tree_iso(power_tree(base, r + q + t), src_tree)
    post = tree_iso(dst_tree, power_tree(base, r + 1 + t))
    return bcompose(post, bcompose(nary_tensor_maps(parts), pre))


def invert_strict_iso(f):
    """Reference inverse of a bidegree (0, 0) iso: each block inverted by
    elimination."""
    if f.bidegree != (0, 0):
        raise ValueError("only bidegree (0,0) isos are inverted here")
    blocks = {}
    for (i, j), blk in f.blocks.items():
        inv = blk.inverse()
        if inv is None:
            raise ValueError("not blockwise invertible")
        blocks[(i, j)] = inv
    return BigradedMap(f.dst, f.src, (0, 0), blocks)


class AmbientSubquotient:
    """Reference subquotient Z/B in ambient coordinates, for any spanning
    columns Z and B: the rep columns are the pivot columns in the Z part of
    one echelon of [B | Z], and each reduction is a solve."""

    def __init__(self, Z, B):
        _, pivots = B.hstack(Z)._echelon()
        if len(pivots) != Z.rank():
            raise ValueError("boundary span not contained in cycle span")
        keep = [c - B.cols for c in pivots if c >= B.cols]
        self.cycle_basis, self.boundary_basis = Z, B
        self.rep_basis, self.dim = Z.take_cols(keep), len(keep)

    def reduce(self, v):
        x = self.rep_basis.hstack(self.boundary_basis).solve(v)
        if x is None:
            raise ValueError("vector not in the cycle span")
        return x.get_block(0, 0, self.dim, v.cols)


def ambient_induced_map(f, src, dst):
    """Reference induced map between AmbientSubquotients: containment
    checked by solves, the matrix by reducing f on the rep basis."""
    if dst.cycle_basis.solve(f * src.cycle_basis) is None:
        raise ValueError("map does not send cycles to cycles")
    if dst.boundary_basis.solve(f * src.boundary_basis) is None:
        raise ValueError("map does not send boundaries to boundaries")
    if src.dim == 0:
        return Matrix.zero(f.field, dst.dim, 0)
    return dst.reduce(f * src.rep_basis)


def column_subquotient(a, p, q):
    """H^q(A_p^*, d_0) computed directly with exact linear algebra."""
    d0 = a.d_map(0)
    ker = d0.block(p, q).kernel_basis()
    img = d0.block(p, q - 1)
    return AmbientSubquotient(ker, img)


def page_to_column_coords(page, p, q, sq):
    """Change of basis from page-1 rep coordinates at (p, q) to the
    canonical ker/im coordinates of the column subquotient sq."""
    k = page.complex
    n = q - p
    col_rows = [idx for idx, (i, _) in enumerate(k.basis(n)) if i == p]
    e = page.entry(p, q)
    field = k.field
    chg = Matrix.zero(field, sq.dim, e.dim)
    for c in range(e.dim):
        v = e.rep_basis.take_cols([c])
        colv = Matrix.zero(field, len(col_rows), 1)
        for out_r, rr in enumerate(col_rows):
            colv[out_r, 0] = v[rr, 0]
        red = sq.reduce(colv)
        for rr in range(sq.dim):
            chg[rr, c] = red[rr, 0]
    return chg


def iota_pminus_witness(a, p):
    """hhat_0: P_r(A) -> P_r(A), (x, y, z) -> (0, 0, y)."""
    field = a.field
    r = p.r
    pm = p.complex.module
    blocks = {}
    for (i, j) in pm.support():
        n0 = a.module.dim(i, j)
        n1 = a.module.dim(i + r, j + r - 1)
        cols = pm.dim(i, j)
        t0 = a.module.dim(i + r, j + r - 1)
        t1 = a.module.dim(i + 2 * r, j + 2 * r - 2)
        rows = pm.dim(i + r, j + r - 1)
        if not rows or not n1:
            continue
        mat = Matrix.zero(field, rows, cols)
        for y in range(n1):
            mat[t0 + t1 + y, n0 + y] = field.one()
        blocks[(i, j)] = mat
    return BigradedMap(pm, pm, (r, r - 1), blocks)


def lemma_path_homotopy(a, r):
    """The explicit witness iota o p_minus ~_r id on P_r(A)."""
    p = path(a, r)
    f = compose(p.iota, p.p_minus)
    g = identity_morphism(p.complex)
    return RHomotopy(r, f, g, {0: iota_pminus_witness(a, p)})


def corrupt_homotopy(h, bump=1):
    """The witness with one entry raised by bump where (H_m) then fails, or
    None when no entry of a nonzero hhat_m has that.

    Raising an entry of hhat_m by delta changes the (H_{m+t}) sum by
    (-1)^{t+r} d_t^B delta + (-1)^m delta d_t^A, t >= 0.  The two terms
    have their sources in different bidegrees, so this is nonzero exactly
    when one of them is.  It is computed here from the d_t alone, d_0
    first, for the entries of each hhat_m in order of m, of the source
    bidegree and of row and column, and the first entry where some t
    gives a nonzero change is raised.  A d_0 that is zero, as on some
    REF_SHAPES[1] draws, leaves that to a d_t with t >= 1."""
    field = h.src.module.field

    def sign(e):
        return field.of_int(-1 if e % 2 else 1)

    ds = [(t, h.dst.d_map(t), h.src.d_map(t))
          for t in sorted(set(h.src.d) | set(h.dst.d))]
    for m, hm in sorted(h.h.items()):
        for loc in hm.src.support():
            blk = hm.block(*loc)
            for i in range(blk.rows):
                for j in range(blk.cols):
                    unit = Matrix.zero(field, blk.rows, blk.cols)
                    unit[i, j] = field.of_int(bump)
                    delta = BigradedMap(hm.src, hm.dst, hm.bidegree,
                                        {loc: unit})
                    if any(not (bcompose(db, delta).scale(sign(t + h.r))
                                + bcompose(delta, da).scale(sign(m)))
                           .is_zero() for t, db, da in ds):
                        return RHomotopy(h.r, h.f, h.g, {
                            **h.h, m: hm + delta})
    return None


# ---------------------------------------------------------------------------
# the r-path route of the homotopy checkers: f ~_r g exactly when the
# candidate x -> (f x, hhat x, g x) is a morphism into P_r(B), built here
# through dense 0/1 injections and decided by the morphism checker
# ---------------------------------------------------------------------------

def path_parts(mod, r):
    """The summands A, A[mid] = A shifted by (-r, 1 - r), A of P_r(A)."""
    return [mod, mod.shifted((-r, 1 - r)), mod]


def dense_sum(parts):
    """The direct sum with per-entry 0/1 injections and projections."""
    field = parts[0].field
    dims = {}
    for p in parts:
        for k, n in p.dims.items():
            dims[k] = dims.get(k, 0) + n
    total = BigradedModule(field, dims)
    injections, projections = [], []
    for s, p in enumerate(parts):
        inj_blocks, proj_blocks = {}, {}
        for (i, j), n in p.dims.items():
            off = sum(parts[t].dim(i, j) for t in range(s))
            inj = Matrix.zero(field, total.dim(i, j), n)
            proj = Matrix.zero(field, n, total.dim(i, j))
            for a in range(n):
                inj[off + a, a] = field.one()
                proj[a, off + a] = field.one()
            inj_blocks[(i, j)] = inj
            proj_blocks[(i, j)] = proj
        injections.append(BigradedMap(p, total, (0, 0), inj_blocks))
        projections.append(BigradedMap(total, p, (0, 0), proj_blocks))
    return total, injections, projections


def shift_iso(mod, shift, into):
    """mod -> mod.shifted(shift) (into) or back, with identity blocks."""
    u, v = shift
    ones = {(i, j): Matrix.identity(mod.field, n)
            for (i, j), n in mod.dims.items()}
    if into:
        return BigradedMap(mod, mod.shifted(shift), (u, v), ones)
    return BigradedMap(mod.shifted(shift), mod, (-u, -v),
                       {(i + u, j + v): blk for (i, j), blk in ones.items()})


def _ref_into_path(f, h, g, dst, r):
    """inc_0 f + inc_1 shift hhat + inc_2 g, key by key, from the component
    dicts f, hhat and g of maps into dst."""
    _, (inc0, inc1, inc2), _ = dense_sum(path_parts(dst, r))
    inc_mid = bcompose(inc1, shift_iso(dst, (-r, 1 - r), True))
    out = {}
    for key in sorted(set(f) | set(h) | set(g)):
        terms = [bcompose(inc, x[key])
                 for inc, x in ((inc0, f), (inc_mid, h), (inc2, g))
                 if key in x]
        out[key] = sum(terms[1:], terms[0])
    return out


def assemble_into_path(h, dst_path=None):
    """The candidate morphism A -> P_r(B) with components
    (f_m, hhat_m, g_m)."""
    pb = dst_path or path(h.dst, h.r)
    return TwistedMorphism(h.src, pb.complex, _ref_into_path(
        h.f.f, h.h, h.g.f, h.dst.module, h.r))


def assemble_into_path_dainf(h, dst_path=None):
    """The candidate morphism A -> P_r(B) with components
    (f_{ik}, h_{ik}, g_{ik})."""
    pb = dst_path or path_dainf(h.dst, h.r)
    return DAInfMorphism(h.src, pb.algebra, _ref_into_path(
        h.f.f, h.h, h.g.f, h.dst.module, h.r))


def homotopy_verdict(h):
    """check_r_homotopy(h).ok, asserted equal to the r-path route's
    verdict."""
    ok = check_r_homotopy(h).ok
    assert check_morphism(assemble_into_path(h)).ok is ok, \
        f"(H_m) says {ok}, the assembled map into P_r says {not ok}"
    return ok


def corrupt_dainf_homotopy(h):
    """The witness with entry (0, 0) of the first block of its first
    component raised by 1, or None when it has no component."""
    if not h.h:
        return None
    field = h.src.module.field
    key = sorted(h.h)[0]
    hk = h.h[key]
    loc = sorted(hk.blocks)[0]
    blk = hk.blocks[loc].copy()
    blk[0, 0] = field.add(blk[0, 0], field.one())
    return DAInfHomotopy(h.r, h.f, h.g, {**h.h, key: BigradedMap(
        hk.src, hk.dst, hk.bidegree, {**hk.blocks, loc: blk})})


def dainf_homotopy_verdict(h):
    """check_r_homotopy_dainf(h).ok, asserted equal to the r-path route's
    verdict."""
    ok = check_r_homotopy_dainf(h).ok
    assert check_dainf_morphism(assemble_into_path_dainf(h)).ok is ok, \
        f"(H_mk) says {ok}, the assembled map into P_r says {not ok}"
    return ok


def check_twisted_blockwise(a):
    """Reference for check_twisted: (A_m) summed block by block, m by m."""
    rep = Report("twisted complex axioms (A_m)")
    keys = sorted(a.d)
    ms = sorted({i + j for i in keys for j in keys})
    for m in ms:
        acc = zero_map(a.module, a.module, (-m, -m + 2))
        for i in keys:
            j = m - i
            if j in a.d:
                term = bcompose(a.d[i], a.d[j])
                acc = acc + (term if i % 2 == 0 else -term)
        rep.tick()
        for loc in sorted(acc.blocks):
            rep.fail((m,) + loc, f"(A_{m}) fails on the block at {loc}")
    return rep


def check_morphism_blockwise(f):
    """Reference for check_morphism: (B_m) summed block by block, m by m."""
    rep = Report("twisted morphism conditions (B_m)")
    dk_a = sorted(f.src.d)
    dk_b = sorted(f.dst.d)
    fk = sorted(f.f)
    ms = sorted({i + j for i in dk_b for j in fk}
                | {i + j for i in fk for j in dk_a})
    for m in ms:
        acc = zero_map(f.src.module, f.dst.module, (-m, -m + 1))
        for i in dk_b:
            j = m - i
            if j in f.f:
                acc = acc + bcompose(f.dst.d[i], f.f[j])
        for i in fk:
            j = m - i
            if j in f.src.d:
                term = bcompose(f.f[i], f.src.d[j])
                acc = acc - (term if i % 2 == 0 else -term)
        rep.tick()
        for loc in sorted(acc.blocks):
            rep.fail((m,) + loc, f"(B_{m}) fails on the block at {loc}")
    return rep


def bumped_identity(a):
    """The identity of a with 1 added to the diagonal entry (r, r) of f_0
    on the block at the first source bidegree of the lowest nonzero d_m,
    r its first nonzero column: not a morphism.  With delta that unit,
    the (B) defect D delta - delta D is d_t delta at that source for
    every t, and d_m delta = d_m e_r != 0, so (B_m) fails there."""
    m = min(a.d)
    loc = min(a.d[m].blocks)
    blk = a.d[m].blocks[loc]
    r = next(c for c in range(blk.cols)
             if any(blk[i, c] for i in range(blk.rows)))
    one = identity_map(a.module)
    bumped = one.block(*loc).copy()
    bumped[r, r] = a.field.add(bumped[r, r], a.field.one())
    f = TwistedMorphism(a, a, {0: BigradedMap(
        one.src, one.dst, one.bidegree, {**one.blocks, loc: bumped})})
    assert not check_morphism(f).ok
    return f


def corrupt_lambda(field):
    """Lambda_1 with the product e_- e_- -> e_+ added: one m_{02} entry
    changed, which breaks (A_uv)."""
    lam = lambda_r_dga(1, field).algebra
    m02 = lam.m[(0, 2)]
    blocks = {k: blk.copy() for k, blk in m02.blocks.items()}
    blocks[(0, 0)][1, 0] = field.one()
    return DAInfAlgebra(lam.module, {**lam.m, (0, 2): BigradedMap(
        m02.src, m02.dst, m02.bidegree, blocks)})


def d0_not_square_zero(field):
    """A zero-product algebra whose m_{01} = d_0 has d_0 d_0 != 0."""
    mod = BigradedModule(field, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    one = Matrix.identity(field, 1)
    return DAInfAlgebra(mod, {(0, 1): BigradedMap(
        mod, mod, (0, 1), {(0, 0): one, (0, 1): one})})


# dA-infinity algebras that fail (A_uv), by name
BAD_ALGEBRAS = {"lambda1-m02": corrupt_lambda,
                "d0-squared": d0_not_square_zero}
