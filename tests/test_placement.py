"""Direct-sum maps written by ``place`` against the dense route they
replaced: explicit 0/1 injections and projections, inc o X o pr products
and sums of the terms.  The two are compared block by block, including
which blocks are present."""

import random

import pytest

from conftest import REF_SHAPES, SHAPE, dense_sum, path_parts, shift_iso
from multiplex.bigraded import (
    BigradedMap, BigradedModule, compose as bcompose, direct_sum,
    identity_map, place, power_module, power_tree, sum_module,
    tensor_modules, tensor_summands, tree_basis, zero_map,
)
from multiplex.dainf import (
    _path_tj, lambda_r_dga, path_dainf, path_dainf_morphism,
)
from multiplex.generators import (
    dainf_morphism_space, random_dainf_morphism, random_endo_morphism,
    random_null_homotopic_map, random_twisted_complex,
    random_zero_product_dainf,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.twisted import (
    compose, cone, cone_to_pair, pair_to_cone, path, path_morphism,
    path_summands, solve_r_homotopy, zero_morphism,
)

FIELDS = [GF(), GF(2), QQ]
FIELD_IDS = ["F32003", "F2", "QQ"]


# ---------------------------------------------------------------------------
# the dense reference route
# ---------------------------------------------------------------------------

def _ref_diagonal(x, r, negate_mid):
    """inc_0 x pr_0 + inc_1 (+-x[mid]) pr_1 + inc_2 x pr_2."""
    _, incs, _ = dense_sum(path_parts(x.dst, r))
    _, _, prs = dense_sum(path_parts(x.src, r))
    middle = x.shifted((-r, 1 - r))
    if negate_mid:
        middle = -middle
    return bcompose(incs[0], bcompose(x, prs[0])) \
        + bcompose(incs[1], bcompose(middle, prs[1])) \
        + bcompose(incs[2], bcompose(x, prs[2]))


def _ref_path(mod, d, r):
    """d, iota, p_minus, p_plus and p_zero of P_r through dense maps."""
    mid_shift = (-r, 1 - r)
    total, (inc0, inc1, inc2), (pr0, pr1, pr2) = \
        dense_sum(path_parts(mod, r))
    into_mid = shift_iso(mod, mid_shift, True)
    out = {}
    for m in sorted(set(d) | {r}):
        dm = zero_map(total, total, (-m, -m + 1))
        if m in d:
            dm = dm + _ref_diagonal(d[m], r, (m + r + 1) % 2)
        if m == r:
            dm = dm - bcompose(inc1, bcompose(into_mid, pr0))
            dm = dm + bcompose(inc1, bcompose(into_mid, pr2))
        out[m] = dm
    p_zero = bcompose(shift_iso(mod, mid_shift, False), pr1)
    return out, inc0 + inc2, pr0, pr2, p_zero


def _ref_cone(w, r):
    """d, inclusion and projection of C_r(w) through dense maps."""
    a, b = w.src, w.dst
    shift = (r, r - 1)
    total, (inc_a, inc_b), (pr_a, pr_b) = \
        dense_sum([a.module.shifted(shift), b.module])
    out_shift = shift_iso(a.module, shift, False)
    d = {}
    for m in sorted(set(a.d) | set(b.d) | {m + r for m in w.f}):
        dm = zero_map(total, total, (-m, -m + 1))
        sgn = 1 if (m + r + 1) % 2 == 0 else -1
        if m in a.d:
            t = a.d[m].shifted(shift)
            dm = dm + bcompose(inc_a, bcompose(t if sgn > 0 else -t, pr_a))
        if m in b.d:
            dm = dm + bcompose(inc_b, bcompose(b.d[m], pr_b))
        if m - r in w.f:
            cross = bcompose(w.f[m - r], out_shift)
            dm = dm + bcompose(inc_b, bcompose(cross if sgn > 0 else -cross,
                                               pr_a))
        d[m] = dm
    return d, inc_b, pr_a


def _ref_pair_to_cone(f, h, w, r):
    a, b = w.src, w.dst
    shift = (r, r - 1)
    total, _, (pr_a, pr_b) = dense_sum([a.module.shifted(shift), b.module])
    out_ta = shift_iso(a.module, shift, False)
    comps = {}
    for m in sorted(set(h.h) | set(f.f)):
        c = zero_map(total, f.dst.module, (-m, -m))
        if m in h.h:
            t = bcompose(h.h[m], bcompose(out_ta, pr_a))
            c = c + (t if m % 2 == 0 else -t)
        if m in f.f:
            c = c + bcompose(f.f[m], pr_b)
        comps[m] = c
    return comps


def _ref_cone_to_pair(tau, w, r):
    a, b = w.src, w.dst
    shift = (r, r - 1)
    into_ta = shift_iso(a.module, shift, True)
    _, (inc_a, inc_b), _ = dense_sum([a.module.shifted(shift), b.module])
    f = {m: bcompose(tm, inc_b) for m, tm in tau.f.items()}
    h = {}
    for m, tm in tau.f.items():
        hm = bcompose(tm, bcompose(inc_a, into_ta))
        h[m] = -hm if m % 2 else hm
    return f, h


def _ref_lambda_ident(a_mod, path_mod, r):
    """Lambda_r (x) A -> P_r(A) entry by entry over the tensor summands."""
    field = a_mod.field
    lam_mod = lambda_r_dga(r, field).algebra.module
    src = tensor_modules(lam_mod, a_mod)
    blocks = {}
    for (i, j) in src.support():
        n0 = a_mod.dim(i, j)
        n1 = a_mod.dim(i + r, j + r - 1)
        mat = Matrix.zero(field, path_mod.dim(i, j), src.dim(i, j))
        cc = 0
        for (p, q, dl, da) in tensor_summands(lam_mod, a_mod, i, j):
            for l_idx in range(dl):
                for a_idx in range(da):
                    if (p, q) == (0, 0) and l_idx == 0:
                        mat[a_idx, cc] = field.one()
                    elif (p, q) == (0, 0) and l_idx == 1:
                        mat[n0 + n1 + a_idx, cc] = field.one()
                    else:
                        mat[n0 + a_idx, cc] = field.one()
                    cc += 1
        blocks[(i, j)] = mat
    return BigradedMap(src, path_mod, (0, 0), blocks)


def _ref_path_tj(a_mod, path_mod, r, j):
    """t_j: P_r(A)^{(x) j} -> P_r(A^{(x) j}) entry by entry: each basis
    tuple is decoded into its x/y/z parts and written where x..x, z..z or
    x..x y z..z lands, with the sign xbar = (-1)^{r x_1 + (1-r) x_2} on
    every x left of the y."""
    field = a_mod.field
    pw_a = power_module(a_mod, j)
    target = sum_module(path_summands(pw_a, r))
    src = power_module(path_mod, j)
    ptree = power_tree(path_mod, j)
    atree = power_tree(a_mod, j)
    blocks = {}
    for (i, jj) in src.support():
        basis = tree_basis(ptree, i, jj)
        rows = target.dim(i, jj)
        if not rows:
            continue
        n_first = pw_a.dim(i, jj)
        n_mid = pw_a.dim(i + r, jj + r - 1)
        xz_index = {t: k for k, t in enumerate(tree_basis(atree, i, jj))}
        y_index = {t: k for k, t in
                   enumerate(tree_basis(atree, i + r, jj + r - 1))}
        mat = Matrix.zero(field, rows, len(basis))
        for cc, items in enumerate(basis):
            # decode each slot into its part and its A-basis element
            parts, elems = [], []
            for (bi, bj, idx) in items:
                n0 = a_mod.dim(bi, bj)
                n1 = a_mod.dim(bi + r, bj + r - 1)
                if idx < n0:
                    part, elem = "x", (bi, bj, idx)
                elif idx < n0 + n1:
                    part, elem = "y", (bi + r, bj + r - 1, idx - n0)
                else:
                    part, elem = "z", (bi, bj, idx - n0 - n1)
                parts.append(part)
                elems.append(elem)
            tup = tuple(elems)
            # x..x, z..z and x..x y z..z land in disjoint row ranges, so a
            # column gets at most one entry
            if all(p == "x" for p in parts):
                rr = xz_index.get(tup)
                if rr is not None:
                    mat[rr, cc] = field.one()
            if all(p == "z" for p in parts):
                rr = xz_index.get(tup)
                if rr is not None:
                    mat[n_first + n_mid + rr, cc] = field.one()
            ys = [s for s, p in enumerate(parts) if p == "y"]
            if len(ys) == 1:
                s0 = ys[0]
                if all(p == "x" for p in parts[:s0]) and \
                   all(p == "z" for p in parts[s0 + 1:]):
                    sgn = sum(r * e[0] + (1 - r) * e[1] for e in elems[:s0])
                    rr = y_index.get(tup)
                    if rr is not None:
                        mat[n_first + rr, cc] = field.one() if sgn % 2 == 0 \
                            else field.of_int(-1)
        if not mat.is_zero():
            blocks[(i, jj)] = mat
    return BigradedMap(src, target, (0, 0), blocks)


def _same(new, old):
    assert (new.src, new.dst, new.bidegree) == (old.src, old.dst, old.bidegree)
    assert sorted(new.blocks) == sorted(old.blocks)
    for k, blk in old.blocks.items():
        assert new.blocks[k] == blk


def _same_family(new, old):
    old = {k: v for k, v in old.items() if not v.is_zero()}
    assert sorted(new) == sorted(old)
    for k, v in old.items():
        _same(new[k], v)


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_direct_sum_matches_dense_injections(field):
    rng = random.Random(7)
    parts = [random_twisted_complex(field, rng, spots=3).module
             for _ in range(3)]
    total, incs, prs = direct_sum(parts)
    ref_total, ref_incs, ref_prs = dense_sum(parts)
    assert total == ref_total
    for new, old in zip(incs + prs, ref_incs + ref_prs):
        _same(new, old)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_path_maps_match_dense_route(field, r):
    rng = random.Random(10 + r)
    a = random_twisted_complex(field, rng, **SHAPE)
    f = random_endo_morphism(a, rng)
    assert a.d and f.f
    p = path(a, r)
    d, iota, p_minus, p_plus, p_zero = _ref_path(a.module, a.d, r)
    _same_family(p.complex.d, d)
    _same(p.iota.f[0], iota)
    _same(p.p_minus.f[0], p_minus)
    _same(p.p_plus.f[0], p_plus)
    _same(p.p_zero, p_zero)
    _same_family(path_morphism(f, r, p, p).f,
                 {m: _ref_diagonal(fm, r, m % 2) for m, fm in f.f.items()})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_cone_maps_match_dense_route(field, r):
    rng = random.Random(25)
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    b = random_twisted_complex(field, rng, **REF_SHAPES[1])
    w = random_null_homotopic_map(a, b, rng)
    assert any(m >= 1 for m in a.d) and any(m >= 1 for m in b.d) and w.f
    c = cone(w, r)
    d, inclusion, projection = _ref_cone(w, r)
    _same_family(c.complex.d, d)
    _same(c.inclusion.f[0], inclusion)
    _same(c.projection.f[0], projection)
    # a pair (f, h) with h: f o w ~_r 0, and back
    f = random_endo_morphism(b, rng)
    h = solve_r_homotopy(compose(f, w), zero_morphism(a, b), r)
    assert h.h
    tau = pair_to_cone(f, h, c)
    _same_family(tau.f, _ref_pair_to_cone(f, h, w, r))
    f2, h2 = cone_to_pair(tau, c)
    ref_f, ref_h = _ref_cone_to_pair(tau, w, r)
    _same_family(f2.f, ref_f)
    _same_family(h2.h, ref_h)
    assert f2 == f and pair_to_cone(f2, h2, c) == tau


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_dainf_path_maps_match_dense_route(field, r):
    rng = random.Random(30 + r)
    # Lambda_1 has a product, so its path has arity-2 diagonal blocks; the
    # zero-product algebra of seed 1 has arity-2 morphisms
    for alg in (lambda_r_dga(1, field).algebra,
                random_zero_product_dainf(field, random.Random(1),
                                          cols=(0, 2), verts=(0, 2),
                                          spots=3)):
        pd = path_dainf(alg, r)
        _same(pd.ident, _ref_lambda_ident(alg.module, pd.algebra.module, r))
        ones, _, _, _, _ = _ref_path(
            alg.module, {i: m for (i, j), m in alg.m.items() if j == 1}, r)
        direct = {(i, 1): dm for i, dm in ones.items()}
        for (i, j), mij in alg.m.items():
            if j > 1:
                direct[(i, j)] = bcompose(
                    _ref_diagonal(mij, r, (r * j + i + j) % 2),
                    _path_tj(alg.module, r, j))
        _same_family(pd.algebra.m, direct)
    a = alg
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    assert any(j == 2 for (_, j) in f.f)
    _same_family(path_dainf_morphism(f, r, pd, pd).f, {
        (i, j): bcompose(_ref_diagonal(fij, r, ((r + 1) * (j - 1) + i) % 2),
                         _path_tj(a.module, r, j))
        for (i, j), fij in f.f.items()})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_path_tj_matches_entrywise_route(field, r):
    # Lambda_1 has a product, so m_02 feeds t_2; the zero-product algebra
    # has odd bidegrees for every r, so some xbar signs are -1
    minus_one = field.of_int(-1)
    for a_mod, signed in (
            (lambda_r_dga(1, field).algebra.module, False),
            (random_zero_product_dainf(field, random.Random(1), cols=(0, 2),
                                       verts=(0, 2), spots=3).module, True)):
        path_mod = sum_module(path_summands(a_mod, r))
        for j in (1, 2, 3):
            ref = _ref_path_tj(a_mod, path_mod, r, j)
            if j > 1:
                assert not ref.is_zero()
                if signed and minus_one != field.one():
                    assert any(v == minus_one for blk in ref.blocks.values()
                               for v in blk.data)
            _same(_path_tj(a_mod, r, j), ref)


def test_place_rejects_a_piece_off_its_summands():
    field = GF()
    x = BigradedModule(field, {(0, 0): 1})
    y = BigradedModule(field, {(0, 0): 2, (1, 0): 1})
    one = identity_map(x)
    parts = [x, y]
    assert place(parts, parts, (0, 0), {(0, 0): (one, True)}).blocks[
        (0, 0)].to_rows() == [[field.of_int(-1), 0, 0], [0, 0, 0], [0, 0, 0]]
    for src, dst, bidegree, key in [
            (parts, parts, (0, 0), (1, 0)),   # wrong target summand
            (parts, parts, (0, 0), (0, 1)),   # wrong source summand
            (parts, parts, (1, 0), (0, 0)),   # wrong bidegree
            (parts, parts, (0, 0), (2, 0)),   # no such target summand
            (parts, parts, (0, 0), (0, -2))]:  # no such source summand
        with pytest.raises(ValueError, match="is not a map of bidegree"):
            place(src, dst, bidegree, {key: (one, False)})
