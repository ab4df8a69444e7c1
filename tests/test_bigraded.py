import random

import pytest

from conftest import assert_canonical, hom_one_map_one, subpower_tree

from multiplex.bigraded import (
    BigradedModule, BigradedMap, MapSum, _pairs_tree, compose,
    identity_map, interleave_iso, leaf, left_tree, nary_tensor_maps, node,
    power_module, power_tree, sprod, symmetry_iso, tensor_maps,
    tensor_index, tensor_modules, tensor_summands, tree_basis, tree_iso,
    unit_module, zero_map,
)
from multiplex.dainf import component_tensor
from multiplex.linalg import GF, QQ, Matrix, SignedPerm

F = GF()
ISO_FIELDS = [GF(32003), GF(2), QQ]


def rand_module(field, rng, spots=3, maxdim=2, irange=(-1, 2), jrange=(-1, 2)):
    dims = {}
    for _ in range(spots):
        key = (rng.randint(*irange), rng.randint(*jrange))
        dims[key] = rng.randint(1, maxdim)
    return BigradedModule(field, dims)


def rand_map(src, dst, bidegree, rng, bound=3):
    p, q = bidegree
    blocks = {}
    for (i, j), n in src.dims.items():
        m = dst.dim(i + p, j + q)
        if m:
            blocks[(i, j)] = Matrix(
                src.field, m, n,
                [src.field.of_int(rng.randint(-bound, bound)) for _ in range(m * n)])
    return BigradedMap(src, dst, bidegree, blocks)


def test_compose_with_identity_and_zero():
    rng = random.Random(0)
    a = rand_module(F, rng)
    b = rand_module(F, rng)
    f = rand_map(a, b, (1, 0), rng)
    assert compose(f, identity_map(a)) == f
    assert compose(identity_map(b), f) == f
    z = compose(zero_map(b, b, (0, 0)), f)
    assert z.is_zero()


def test_compose_scalar_blocks():
    a = BigradedModule(QQ, {(0, 0): 1})
    f = BigradedMap(a, a, (0, 0), {(0, 0): Matrix.from_rows(QQ, [[2]])})
    g = BigradedMap(a, a, (0, 0), {(0, 0): Matrix.from_rows(QQ, [[3]])})
    assert compose(f, g).block(0, 0)[0, 0] == 6


def test_add_scale_equal():
    rng = random.Random(1)
    a = rand_module(F, rng)
    b = rand_module(F, rng)
    f = rand_map(a, b, (0, 1), rng)
    zero = zero_map(a, b, (0, 1))
    assert f + zero == f
    assert (f + f.scale(F.of_int(-1))).is_zero()
    g = rand_map(a, b, (1, 1), rng)
    with pytest.raises(ValueError):
        f == g  # differing bidegrees


def test_tensor_modules_unit_and_dims():
    rng = random.Random(2)
    a = rand_module(F, rng)
    assert tensor_modules(a, unit_module(F)).dims == a.dims
    assert tensor_modules(unit_module(F), a).dims == a.dims

    x = BigradedModule(F, {(0, 0): 1, (1, 1): 1})
    y = BigradedModule(F, {(0, 0): 1})
    assert tensor_modules(x, y).dims == {(0, 0): 1, (1, 1): 1}

    z = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    assert tensor_modules(z, z).dims == {(0, 0): 1, (0, 1): 2, (0, 2): 1}


def test_tensor_maps_identity_and_no_sign():
    rng = random.Random(3)
    a = rand_module(F, rng)
    b = rand_module(F, rng)
    assert tensor_maps(identity_map(a), identity_map(b)) == \
        identity_map(tensor_modules(a, b))
    # bidegree (0,0) second factor: no sign anywhere
    f = rand_map(a, a, (0, 1), rng)
    g = rand_map(b, b, (0, 0), rng)
    fg = tensor_maps(f, g)
    # compare against hand-assembled Kronecker with no signs
    for (i, j) in tensor_modules(a, b).support():
        blk = fg.block(i, j)
        assert blk == _kron_sum(a, b, f, g, i, j, sign_with=None)


def test_tensor_maps_koszul_sign():
    # <(0,1),(0,1)> = 1: a vertical-degree-1 map past a vertical-degree-1
    # element of the first factor picks up -1
    a = BigradedModule(F, {(0, 1): 1})
    b = BigradedModule(F, {(0, 0): 1})
    f = identity_map(a)
    g = BigradedMap(b, b.shifted((0, 1)), (0, 1),
                    {(0, 0): Matrix.identity(F, 1)})
    fg = tensor_maps(f, g)
    assert fg.block(0, 1)[0, 0] == F.of_int(-1)


def _kron_sum(a, b, f, g, i, j, sign_with):
    """Reference implementation of the (i,j) block of f (x) g."""
    from multiplex.bigraded import tensor_summands
    field = a.field
    src_sum = tensor_summands(f.src, g.src, i, j)
    dst_i, dst_j = i + f.bidegree[0] + g.bidegree[0], j + f.bidegree[1] + g.bidegree[1]
    dst_sum = tensor_summands(f.dst, g.dst, dst_i, dst_j)
    offs, off = {}, 0
    for (p, q, da, db) in dst_sum:
        offs[(p, q)] = off
        off += da * db
    rows = sum(da * db for (_, _, da, db) in dst_sum)
    cols = sum(da * db for (_, _, da, db) in src_sum)
    out = Matrix.zero(field, rows, cols)
    coff = 0
    for (p, q, da, db) in src_sum:
        fb, gb = f.block(p, q), g.block(i - p, j - q)
        sgn = 1
        if sign_with is not None and sign_with((p, q)) % 2:
            sgn = -1
        roff = offs.get((p + f.bidegree[0], q + f.bidegree[1]))
        if roff is not None:
            for ra in range(fb.rows):
                for ca in range(fb.cols):
                    for rb in range(gb.rows):
                        for cb in range(gb.cols):
                            v = field.mul(fb[ra, ca], gb[rb, cb])
                            if sgn < 0:
                                v = field.neg(v)
                            out[roff + ra * gb.rows + rb, coff + ca * gb.cols + cb] = v
        coff += da * db
    return out


@pytest.mark.parametrize("seed", range(5))
def test_koszul_interchange(seed):
    # (f (x) g) o (f' (x) g') = (-1)^{<g, f'>} (f o f') (x) (g o g')
    rng = random.Random(10 + seed)
    a, b, c = (rand_module(F, rng) for _ in range(3))
    d, e, h = (rand_module(F, rng) for _ in range(3))
    bidf, bidf2 = (rng.randint(-1, 1), rng.randint(-1, 1)), (rng.randint(-1, 1), rng.randint(-1, 1))
    bidg, bidg2 = (rng.randint(-1, 1), rng.randint(-1, 1)), (rng.randint(-1, 1), rng.randint(-1, 1))
    f2 = rand_map(a, b, bidf2, rng)
    f = rand_map(b, c, bidf, rng)
    g2 = rand_map(d, e, bidg2, rng)
    g = rand_map(e, h, bidg, rng)
    lhs = compose(tensor_maps(f, g), tensor_maps(f2, g2))
    rhs = tensor_maps(compose(f, f2), compose(g, g2))
    if sprod(bidg, bidf2) % 2:
        rhs = rhs.scale(F.of_int(-1))
    assert lhs == rhs


def test_symmetry_unit_and_sign():
    rng = random.Random(4)
    a = rand_module(F, rng)
    tau = symmetry_iso(a, unit_module(F))
    assert tau == identity_map(tensor_modules(a, unit_module(F)))

    x = BigradedModule(F, {(1, 0): 1})
    t = symmetry_iso(x, x)
    assert t.block(2, 0)[0, 0] == F.of_int(-1)  # <(1,0),(1,0)> = 1


@pytest.mark.parametrize("seed", range(5))
def test_symmetry_involutive(seed):
    rng = random.Random(20 + seed)
    a, b = rand_module(F, rng), rand_module(F, rng)
    tab = symmetry_iso(a, b)
    tba = symmetry_iso(b, a)
    assert compose(tba, tab) == identity_map(tensor_modules(a, b))


@pytest.mark.parametrize("seed", range(4))
def test_tensor_associative_up_to_regrouping(seed):
    rng = random.Random(30 + seed)
    a, b, c = (rand_module(F, rng, spots=2) for _ in range(3))
    lt = node(node(leaf(a), leaf(b)), leaf(c))
    rt = node(leaf(a), node(leaf(b), leaf(c)))
    assert lt.module.dims == rt.module.dims
    iso = tree_iso(lt, rt)
    inv = tree_iso(rt, lt)
    assert compose(inv, iso) == identity_map(lt.module)
    # regrouping intertwines triple tensor maps built with both groupings
    f = rand_map(a, a, (0, 0), rng)
    g = rand_map(b, b, (0, 1), rng)
    h = rand_map(c, c, (-1, 0), rng)
    lhs = tensor_maps(tensor_maps(f, g), h)
    rhs = tensor_maps(f, tensor_maps(g, h))
    # they agree after regrouping source and target
    lt_dst = node(node(leaf(f.dst), leaf(g.dst)), leaf(h.dst))
    rt_dst = node(leaf(f.dst), node(leaf(g.dst), leaf(h.dst)))
    assert compose(tree_iso(lt_dst, rt_dst), lhs) == compose(rhs, iso)


def test_interleave_iso_is_iso_and_matches_composed_swaps():
    rng = random.Random(42)
    a = rand_module(F, rng, spots=2)
    b = rand_module(F, rng, spots=2)
    tau2 = interleave_iso(a, b, 2)
    # hand route: (ab)(ab) -> regroup -> a(b a)b ... easier: permutation map directly
    flat = left_tree([a, b, a, b])
    direct = compose(tree_iso(flat, node(power_tree(a, 2), power_tree(b, 2)),
                              [0, 2, 1, 3]),
                     tree_iso(_pairs_tree(a, b, 2), flat))
    assert tau2 == direct
    # invertibility blockwise
    for (i, j), blk in tau2.blocks.items():
        assert blk.is_invertible()


def test_power_module_dims():
    a = BigradedModule(F, {(0, 0): 1, (1, 1): 2})
    p3 = power_module(a, 3)
    assert p3.total_dim() == a.total_dim() ** 3
    assert power_module(a, 0) == unit_module(F)


def test_module_dims_are_read_only():
    a = BigradedModule(F, {(0, 0): 1, (1, 1): 2, (2, 0): 0})
    assert a.dims == {(0, 0): 1, (1, 1): 2}
    with pytest.raises(TypeError):
        a.dims[(0, 0)] = 3
    with pytest.raises(TypeError):
        del a.dims[(1, 1)]
    assert hash(a) == hash(BigradedModule(F, {(1, 1): 2, (0, 0): 1}))


# -- structural isomorphisms against the dense reference ----------------------

def _ref_tree_iso(src, dst, perm=None):
    """The dense 0/+-1 construction of a structural isomorphism, entry by
    entry, as tree_iso built it before its blocks became SignedPerm."""
    n = len(src.leaves())
    if perm is None:
        perm = list(range(n))
    field = src.module.field
    blocks = {}
    for (i, j) in src.module.support():
        sbasis = tree_basis(src, i, j)
        dbasis = tree_basis(dst, i, j)
        dindex = {t: k for k, t in enumerate(dbasis)}
        m = Matrix.zero(field, len(dbasis), len(sbasis))
        for cidx, items in enumerate(sbasis):
            target = [None] * n
            for s, item in enumerate(items):
                target[perm[s]] = item
            sign = 0
            for s in range(n):
                for t in range(s + 1, n):
                    if perm[s] > perm[t]:
                        sign += sprod(items[s][:2], items[t][:2])
            m[dindex[tuple(target)], cidx] = (field.one() if sign % 2 == 0
                                              else field.of_int(-1))
        blocks[(i, j)] = m
    return BigradedMap(src.module, dst.module, (0, 0), blocks)


def _assert_same_blocks(got, ref):
    """Same modules, same block keys and the same entries everywhere."""
    assert got.src == ref.src and got.dst == ref.dst
    assert got.bidegree == ref.bidegree
    assert sorted(got.blocks) == sorted(ref.blocks)
    for k, blk in got.blocks.items():
        assert blk.to_rows() == ref.blocks[k].to_rows()


def _ref_dense_compose(f, g):
    """compose with every SignedPerm block densified first."""
    def dense(m):
        return BigradedMap(m.src, m.dst, m.bidegree,
                           {k: b.copy() for k, b in m.blocks.items()})
    return compose(dense(f), dense(g))


def _rand_tree(mods, rng):
    if len(mods) == 1:
        return leaf(mods[0])
    cut = rng.randint(1, len(mods) - 1)
    return node(_rand_tree(mods[:cut], rng), _rand_tree(mods[cut:], rng))


@pytest.mark.parametrize("field", ISO_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_tree_iso_blocks_match_dense_reference(field, seed):
    rng = random.Random(700 + seed)
    mods = [rand_module(field, rng, spots=2) for _ in range(4)]
    # regroupings and genuine permutations between random shapes
    for _ in range(3):
        k = rng.randint(2, 4)
        word = mods[:k]
        perm = list(range(k))
        rng.shuffle(perm)
        src = _rand_tree(word, rng)
        dst = _rand_tree([word[perm.index(t)] for t in range(k)], rng)
        iso = tree_iso(src, dst, perm)
        assert all(isinstance(b, SignedPerm) for b in iso.blocks.values())
        _assert_same_blocks(iso, _ref_tree_iso(src, dst, perm))
        src2 = _rand_tree(word, rng)
        _assert_same_blocks(tree_iso(src, src2), _ref_tree_iso(src, src2))
    a, b = mods[0], mods[1]
    _assert_same_blocks(symmetry_iso(a, b),
                        _ref_tree_iso(node(leaf(a), leaf(b)),
                                      node(leaf(b), leaf(a)), [1, 0]))
    for k in (2, 3):
        flat = left_tree([a, b] * k)
        perm = []
        for s in range(k):
            perm.extend([s, k + s])
        ref = _ref_dense_compose(
            _ref_tree_iso(flat, node(power_tree(a, k), power_tree(b, k)),
                          perm),
            _ref_tree_iso(_pairs_tree(a, b, k), flat))
        tau = interleave_iso(a, b, k)
        assert all(isinstance(blk, SignedPerm) for blk in tau.blocks.values())
        _assert_same_blocks(tau, ref)


def _insertion(m, base, r, t, q):
    """1^r (x) m (x) 1^t, read off MapSum.add_insertion with the identity
    as the outer map."""
    acc = MapSum()
    acc.add_insertion(0, identity_map(power_module(base, r + 1 + t)), m,
                      base, r, t, q)
    return acc.maps()[0]


def _rand_nonzero_map(src, dst, rng):
    """A random map of a bidegree that joins some bidegree of src to dst."""
    (i, j), (k, l) = rng.choice(src.support()), rng.choice(dst.support())
    return rand_map(src, dst, (k - i, l - j), rng)


@pytest.mark.parametrize("field", ISO_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_component_tensor_and_hom_one_map_one_match_dense(field, seed):
    rng = random.Random(800 + seed)
    base = rand_module(field, rng, spots=2, irange=(0, 1), jrange=(0, 1))
    # component_tensor shape: Pow(base, 3) -> Pow(base, 2) ((x) Pow(base, 1))
    arities = [2, 1]
    maps = [_rand_nonzero_map(power_module(base, q), base, rng)
            for q in arities]
    pre = _ref_tree_iso(power_tree(base, 3), subpower_tree(base, arities))
    _assert_same_blocks(
        tree_iso(power_tree(base, 3), subpower_tree(base, arities)), pre)
    _assert_same_blocks(component_tensor(maps, arities, base),
                        _ref_dense_compose(nary_tensor_maps(maps), pre))
    # the insertion 1^r (x) m (x) 1^t with m of arity q
    r, q, t = 1, 2, 1
    m = _rand_nonzero_map(power_module(base, q), base, rng)
    mid = nary_tensor_maps([identity_map(power_module(base, r)), m,
                            identity_map(power_module(base, t))])
    src_tree = node(node(power_tree(base, r), power_tree(base, q)),
                    power_tree(base, t))
    dst_tree = node(node(power_tree(base, r), leaf(base)),
                    power_tree(base, t))
    pre = _ref_tree_iso(power_tree(base, r + q + t), src_tree)
    post = _ref_tree_iso(dst_tree, power_tree(base, r + 1 + t))
    _assert_same_blocks(_insertion(m, base, r, t, q),
                        _ref_dense_compose(post,
                                           _ref_dense_compose(mid, pre)))


def test_trees_are_equal_and_hash_alike_by_shape():
    a = BigradedModule(F, {(0, 0): 1, (1, 2): 2})
    b = BigradedModule(F, {(0, 1): 1})
    c = BigradedModule(F, {(-1, 0): 2})
    t = node(node(leaf(a), leaf(b)), leaf(c))
    # equal modules built anew give an equal tree of the same hash
    same = node(node(leaf(BigradedModule(F, {(1, 2): 2, (0, 0): 1})),
                     leaf(b)), leaf(c))
    assert same is not t and same == t and hash(same) == hash(t)
    assert power_tree(a, 3) == left_tree([a, a, a])
    assert hash(power_tree(a, 3)) == hash(left_tree([a, a, a]))
    # so they share one memo entry
    assert tree_basis(same, 0, 3) is tree_basis(t, 0, 3)
    others = [node(leaf(a), node(leaf(b), leaf(c))),    # other grouping
              node(node(leaf(b), leaf(a)), leaf(c)),    # other order
              node(leaf(a), leaf(b)),                   # fewer leaves
              node(node(leaf(a), leaf(b)), leaf(b)),    # other module
              node(node(leaf(a), leaf(b)),
                   leaf(BigradedModule(F, {(-1, 0): 1}))),  # other rank
              node(node(*(leaf(BigradedModule(GF(5), dict(m.dims)))
                          for m in (a, b))),
                   leaf(BigradedModule(GF(5), dict(c.dims))))]  # other field
    for other in others:
        assert other != t and t != other
    assert leaf(a) != a and leaf(a) == leaf(a)
    assert len({t, same, *others}) == len(others) + 1


def test_structurally_equal_trees_give_equal_maps():
    rng = random.Random(9)
    a, b, c = (rand_module(F, rng, spots=2) for _ in range(3))
    first = tree_iso(node(node(leaf(a), leaf(b)), leaf(c)),
                     node(leaf(a), node(leaf(b), leaf(c))))
    again = tree_iso(node(node(leaf(a), leaf(b)), leaf(c)),
                     node(leaf(a), node(leaf(b), leaf(c))))
    assert again == first
    assert again is first  # memoized on the shapes, not the Tree objects
    other = tree_iso(node(leaf(a), node(leaf(b), leaf(c))),
                     node(node(leaf(a), leaf(b)), leaf(c)))
    assert other is not first


# -- tensor_maps and map negation against the per-entry reference -------------

def _ref_tensor_maps(f, g):
    """The Kronecker loop as it was before the per-field kernel: every entry
    read and written through Matrix indexing, multiplied and negated through
    Field.mul and Field.neg."""
    src = tensor_modules(f.src, g.src)
    dst = tensor_modules(f.dst, g.dst)
    fb, fq = f.bidegree
    gb, gq = g.bidegree
    bid = (fb + gb, fq + gq)
    field = f.field
    blocks = {}
    for (i, j) in src.support():
        dst_off, off = {}, 0
        for (p, q, da, db) in tensor_summands(f.dst, g.dst, i + bid[0],
                                              j + bid[1]):
            dst_off[(p, q)] = off
            off += da * db
        out = Matrix.zero(field, dst.dim(i + bid[0], j + bid[1]),
                          src.dim(i, j))
        coff = 0
        for (p, q, da, db) in tensor_summands(f.src, g.src, i, j):
            fblk = f.blocks.get((p, q))
            gblk = g.blocks.get((i - p, j - q))
            if fblk is not None and gblk is not None:
                sign = -1 if sprod((gb, gq), (p, q)) % 2 else 1
                roff = dst_off[(p + fb, q + fq)]
                gr, gc = gblk.rows, gblk.cols
                for ra in range(fblk.rows):
                    for ca in range(fblk.cols):
                        fv = fblk[ra, ca]
                        if not fv:
                            continue
                        if sign < 0:
                            fv = field.neg(fv)
                        for rb in range(gr):
                            for cb in range(gc):
                                gv = gblk[rb, cb]
                                if gv:
                                    out[roff + ra * gr + rb,
                                        coff + ca * gc + cb] = field.mul(fv, gv)
            coff += da * db
        blocks[(i, j)] = out
    return BigradedMap(src, dst, bid, blocks)


def _assert_canonical_map(m):
    for blk in m.blocks.values():
        assert_canonical(m.field, blk.data)


def _rand_sparse_map(src, dst, bidegree, rng, density):
    """rand_map with entries nonzero with the given probability."""
    field = src.field
    values = [-7, -2, -1, 1, 2, 5, 11]
    if not field.p:
        # over QQ, products such as 2 * 1/2 are integral and must be ints
        values += ["1/2", "-3/2", "2/3"]
    p, q = bidegree
    blocks = {}
    for (i, j), n in src.dims.items():
        m = dst.dim(i + p, j + q)
        if m:
            blocks[(i, j)] = Matrix(field, m, n, [
                field.parse(rng.choice(values))
                if rng.random() < density else field.zero()
                for _ in range(m * n)])
    return BigradedMap(src, dst, bidegree, blocks)


KERNEL_FIELDS = [GF(32003), GF(5), GF(2), QQ]


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_tensor_maps_and_negation_match_reference(field, seed):
    rng = random.Random(900 + seed)
    a, b, c = (rand_module(field, rng, maxdim=3) for _ in range(3))
    maps = []
    for density in (0.15, 1.0):
        maps.append(_rand_sparse_map(a, b, (rng.randint(-1, 1),
                                            rng.randint(-1, 1)), rng, density))
        maps.append(_rand_sparse_map(b, c, (rng.randint(-1, 1),
                                            rng.randint(-1, 1)), rng, density))
    maps += [zero_map(a, c, (1, 0)), identity_map(b),
             symmetry_iso(a, b)]          # SignedPerm blocks, with signs
    for f in maps:
        for g in maps:
            got = tensor_maps(f, g)
            _assert_canonical_map(got)
            _assert_same_blocks(got, _ref_tensor_maps(f, g))
    for f in maps:
        minus = f.scale(f.field.of_int(-1))
        for got in (-f, zero_map(f.src, f.dst, f.bidegree) - f):
            _assert_canonical_map(got)
            _assert_same_blocks(got, minus)
        assert (f - f).is_zero() and (f + (-f)).is_zero()
        g = _rand_sparse_map(f.src, f.dst, f.bidegree, rng, 0.5)
        _assert_same_blocks(f - g, f + g.scale(f.field.of_int(-1)))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_map_sum_matches_dense_sums(field, seed):
    # signed products, tensors and maps summed in buckets, against the
    # dense sum of each term formed on its own
    rng = random.Random(1000 + seed)
    bid_g, bid_f = ((rng.randint(-1, 1), rng.randint(-1, 1))
                    for _ in range(2))
    # each map has a block at every bidegree of its source
    a = rand_module(field, rng, maxdim=3)
    b = a.shifted(bid_g)
    c = b.shifted(bid_f)
    gs = [_rand_sparse_map(a, b, bid_g, rng, d) for d in (0.15, 0.5, 1.0)]
    fs = [_rand_sparse_map(b, c, bid_f, rng, d) for d in (0.15, 0.5, 1.0)]
    acc, want = MapSum(), {}

    def add(key, term, odd):
        term = -term if odd % 2 else term
        want[key] = want[key] + term if key in want else term

    for f in fs:
        for g in gs:
            odd = rng.randint(-2, 3)
            acc.add_compose("fg", f, g, odd)
            add("fg", compose(f, g), odd)
            acc.add_tensor("gf", g, f, odd)
            add("gf", _ref_tensor_maps(g, f), odd)
    h = _rand_sparse_map(a, c, compose(fs[0], gs[0]).bidegree, rng, 0.5)
    acc.add("fg", h, 1)
    add("fg", h, 1)
    # terms that cancel, and a product with no pair of blocks to multiply,
    # leave zero maps under their keys
    acc.add_tensor("zero", gs[2], fs[2])
    acc.add_tensor("zero", gs[2], fs[2], 1)
    acc.add_compose("empty", fs[0], zero_map(a, b, bid_g))
    got = acc.maps()
    assert sorted(got) == ["empty", "fg", "gf", "zero"]
    assert got["zero"].is_zero() and got["empty"].is_zero()
    assert got["zero"].src == tensor_modules(a, b)
    for key, ref in want.items():
        assert not ref.is_zero()
        _assert_canonical_map(got[key])
        _assert_same_blocks(got[key], ref)
        assert list(got[key].blocks) == sorted(got[key].blocks)
    with pytest.raises(ValueError):
        acc.add("fg", gs[0])
    with pytest.raises(ValueError):
        acc.add_compose("fg", gs[0], fs[0])


def _ref_tensor_summands(a, b, i, j):
    """The summand list as it was built per bidegree before the per-pair
    memo."""
    out = []
    for (p, q) in a.support():
        db = b.dim(i - p, j - q)
        if db:
            out.append((p, q, a.dims[(p, q)], db))
    return out


@pytest.mark.parametrize("seed", range(8))
def test_tensor_summands_match_reference(seed):
    rng = random.Random(1200 + seed)
    a, b = (rand_module(F, rng, spots=4, maxdim=3) for _ in range(2))
    ab = tensor_modules(a, b)
    for i in range(-3, 6):
        for j in range(-3, 6):
            got = tensor_summands(a, b, i, j)
            assert got == _ref_tensor_summands(a, b, i, j)
            assert sum(da * db for *_, da, db in got) == ab.dim(i, j)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_index_is_position_in_tree_basis(seed):
    rng = random.Random(1300 + seed)
    a, b = (rand_module(F, rng, spots=4, maxdim=3) for _ in range(2))
    pair = node(leaf(a), leaf(b))
    for (i, j) in tensor_modules(a, b).support():
        basis = tree_basis(pair, i, j)
        assert [tensor_index(a, b, x, y) for x, y in basis] == \
            list(range(len(basis)))


# -- fused n-ary tensors against nary tensor, then regroupings -----------------

def _ref_nary_tensor(maps):
    out = maps[0]
    for m in maps[1:]:
        out = _ref_tensor_maps(out, m)
    return out


def _ref_component_tensor(maps, arities, src_mod):
    """component_tensor as it was before the fused regroup: the dense
    left-associated tensor, then the column regrouping as a composite."""
    if len(maps) == 1:
        return maps[0]
    pre = tree_iso(power_tree(src_mod, sum(arities)),
                   subpower_tree(src_mod, arities))
    return compose(_ref_nary_tensor(maps), pre)


def _rand_component(src, dst, rng):
    """A map src -> dst of a random bidegree joining their supports: dense,
    sparse, with most blocks dropped, or zero."""
    (i, j), (k, l) = rng.choice(src.support()), rng.choice(dst.support())
    bid = (k - i, l - j)
    kind = rng.choice(["dense", "sparse", "few blocks", "zero"])
    if kind == "zero":
        return zero_map(src, dst, bid)
    m = _rand_sparse_map(src, dst, bid, rng,
                         0.3 if kind == "sparse" else 1.0)
    if kind == "few blocks":
        keep = {key: blk for key, blk in m.blocks.items()
                if rng.random() < 0.3}
        m = BigradedMap(src, dst, bid, keep)
    return m


def _has_odd_koszul_sign(maps):
    """Some pair of nonzero blocks in the left-associated tensor carries
    the sign (-1)^{<bideg g, (p,q)>} = -1."""
    left = maps[0]
    for g in maps[1:]:
        gb = g.bidegree
        if g.blocks and any(sprod(gb, pq) % 2 for pq in left.blocks):
            return True
        left = _ref_tensor_maps(left, g)
    return False


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_component_tensor_matches_nary_tensor_then_regroup(field, seed):
    rng = random.Random(1000 + seed)
    base = rand_module(field, rng, spots=3, irange=(0, 1), jrange=(-1, 1))
    dst = rand_module(field, rng, spots=2, irange=(0, 1), jrange=(-1, 1))
    odd = 0
    for arities in ([1, 2], [2, 1], [2, 1, 1], [1, 1, 2], [2, 2], [1, 1]):
        # three draws, then more until one carries an odd Koszul sign
        for n in range(100):
            maps = [_rand_component(power_module(base, q), dst, rng)
                    for q in arities]
            if n >= 3 and not _has_odd_koszul_sign(maps):
                continue
            got = component_tensor(maps, arities, base)
            _assert_canonical_map(got)
            _assert_same_blocks(got, _ref_component_tensor(maps, arities,
                                                           base))
            assert got.src == power_module(base, sum(arities))
            assert got.dst == power_module(dst, len(arities))
            assert list(got.blocks) == sorted(got.blocks)
            if _has_odd_koszul_sign(maps):
                odd += 1
                if n >= 3:
                    break
    assert odd  # odd Koszul signs are reached on every seed


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_hom_one_map_one_matches_nary_tensor_then_regroup(field, seed):
    rng = random.Random(1100 + seed)
    base = rand_module(field, rng, spots=3, irange=(0, 1), jrange=(-1, 1))
    for (r, q, t) in [(0, 1, 0), (0, 2, 0), (0, 2, 1), (1, 2, 0),
                      (1, 1, 1), (2, 1, 0), (0, 1, 2), (1, 2, 1)]:
        m = _rand_component(power_module(base, q), base, rng)
        got = _insertion(m, base, r, t, q)
        _assert_canonical_map(got)
        _assert_same_blocks(got, hom_one_map_one(m, base, r, t, q))
        assert got.src == power_module(base, r + q + t)
        assert got.dst == power_module(base, r + 1 + t)
        assert list(got.blocks) == sorted(got.blocks)


def test_nary_tensor_of_one_map_and_identity_regroup():
    rng = random.Random(12)
    a, b = (rand_module(F, rng, spots=2) for _ in range(2))
    f, g = identity_map(a), identity_map(b)
    assert nary_tensor_maps([f]) is f
    # a (x) a is the left power a^{(x) 2}: placing the columns there by
    # left-power coordinates changes nothing
    fa = _rand_nonzero_map(a, b, rng)
    ga = _rand_nonzero_map(a, a, rng)
    _assert_same_blocks(tensor_maps(fa, ga, (a, 1, 1)), tensor_maps(fa, ga))
    with pytest.raises(ValueError):
        tensor_maps(f, g, (a, 1, 1))
