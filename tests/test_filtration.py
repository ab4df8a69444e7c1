import random

import pytest

from conftest import REF_SHAPES, tot_matrix_per_degree
from multiplex.bigraded import (
    BigradedModule, symmetry_iso, tot_layout,
)
from multiplex.dainf import lambda_r_dga, tensor_twisted_dga
from multiplex.filtered_ainf import check_filtered_ainf, tot_dainf
from multiplex.filtration import (
    FilteredComplex, FilteredMap, check_filtered_complex,
    check_order_homotopy, degrees_of, graded_map_tensor, graded_tensor,
    homotopy_to_tot, identity_filtered, mu, tot, tot_basis, tot_cone,
    tot_family, tot_inverse, tot_inverse_morphism, tot_morphism,
    tot_to_homotopy,
)
from multiplex.generators import (
    random_endo_morphism, random_filtered_complex, random_homotopic_pair,
    random_homotopy_family, random_null_homotopic_map, random_twisted_complex,
    random_zero_product_dainf,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.twisted import (
    TwistedComplex, TwistedMorphism, check_morphism, check_r_homotopy,
    compose, cone_complex, identity_morphism, path, tensor, tensor_morphisms,
)

F = GF()


def _draw(rng):
    """A complex of REF_SHAPES[1] with a nonzero d_m for some m >= 1,
    which is asserted: a complex whose only map is d_0 leaves every
    filtration shift and Tot sign of m >= 1 untested.  conftest.SHAPE
    gives only d_0 on about one draw in fourteen."""
    a = random_twisted_complex(F, rng, **REF_SHAPES[1])
    assert any(m >= 1 for m in a.d)
    return a


def test_tot_trivial_and_single_column():
    mod = BigradedModule(F, {(0, 0): 2, (1, 2): 1, (2, 2): 1})
    a = TwistedComplex(mod, {})
    k = tot(a)
    assert not k.d
    for n in k.degrees():
        assert k.dim(n) == sum(mod.dim(i, n + i) for i in range(0, 4))

    # single column: Tot is the column complex with no signs
    col = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    from multiplex.bigraded import BigradedMap
    d0 = BigradedMap(col, col, (0, 1), {(0, 0): Matrix.identity(F, 1)})
    a2 = TwistedComplex(col, {0: d0})
    k2 = tot(a2)
    assert k2.d_mat(0)[0, 0] == F.one()


def test_tot_sign_on_d1():
    # an element of A_1^{n+1} inside Tot^n hit by d_1 lands with (-1)^{1*n}
    from multiplex.bigraded import BigradedMap
    for n in (0, 1, 2, 3):
        mod = BigradedModule(F, {(1, n + 1): 1, (0, n + 1): 1})
        d1 = BigradedMap(mod, mod, (-1, 0), {(1, n + 1): Matrix.identity(F, 1)})
        a = TwistedComplex(mod, {1: d1})
        k = tot(a)
        expected = F.one() if (n % 2 == 0) else F.of_int(-1)
        assert k.d_mat(n)[0, 0] == expected


@pytest.mark.parametrize("seed", range(10))
def test_roundtrip_both_ways(seed):
    rng = random.Random(600 + seed)
    a = random_twisted_complex(F, rng)
    assert tot_inverse(tot(a)) == a
    k = random_filtered_complex(F, rng)
    assert check_filtered_complex(k).ok
    assert tot(tot_inverse(k)) == k


@pytest.mark.parametrize("seed", range(5))
def test_tot_morphism_functorial(seed):
    rng = random.Random(700 + seed)
    a = _draw(rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(a, rng)
    ka = tot(a)
    tf = tot_morphism(f, ka, ka)
    tg = tot_morphism(g, ka, ka)
    assert tg.compose(tf) == tot_morphism(compose(g, f), ka, ka)
    assert tot_morphism(identity_morphism(a), ka, ka) == identity_filtered(ka)
    # and back
    assert tot_inverse_morphism(tf, a, a) == f


@pytest.mark.parametrize("seed", range(4))
def test_mu_unit_and_chain_map(seed):
    rng = random.Random(800 + seed)
    a = _draw(rng)
    from multiplex.twisted import unit_complex
    r = unit_complex(F)
    m = mu(a, r)
    # B = unit: identity identification on every degree
    for n in m.src.degrees():
        blk = m.block(n)
        assert blk == Matrix.identity(F, blk.rows)
    b = _draw(rng)
    m2 = mu(a, b)
    assert m2.check_chain_map().ok
    # bounded case: iso degreewise
    for n in m2.src.degrees():
        assert m2.block(n).is_invertible() or m2.src.dim(n) == 0


@pytest.mark.parametrize("seed", range(3))
def test_mu_symmetry_square(seed):
    # Tot(tau_tc) o mu_{A,B} = mu_{B,A} o tau_fc elementwise
    rng = random.Random(900 + seed)
    a = _draw(rng)
    b = _draw(rng)
    ka, kb = tot(a), tot(b)
    m_ab = mu(a, b, ka, kb)
    m_ba = mu(b, a, kb, ka)
    tau_tc = TwistedMorphism(tensor(a, b), tensor(b, a),
                             {0: symmetry_iso(a.module, b.module)})
    check_morphism(tau_tc).raise_if_failed()
    tot_tau = tot_morphism(tau_tc)
    # the filtered-complex symmetry on Tot(A) (x) Tot(B): Koszul by total degree
    tau_fc = _graded_symmetry(ka, kb)
    lhs = tot_tau.compose(m_ab)
    rhs = m_ba.compose(tau_fc)
    assert lhs == rhs


def _graded_symmetry(ka, kb):
    """Tot(A) (x) Tot(B) -> Tot(B) (x) Tot(A), x (x) y -> (-1)^{n1 n2} y (x) x."""
    from multiplex.filtration import FilteredMap, _pair_decode, _pair_index
    src = graded_tensor(ka, kb)
    dst = graded_tensor(kb, ka)
    blocks = {}
    for n in src.degrees():
        sdec = _pair_decode(ka.module, kb.module, n)
        didx = _pair_index(kb.module, ka.module, n)
        if not sdec:
            continue
        mat = Matrix.zero(F, len(didx), len(sdec))
        for cc, (p, q, aa, s, t, bb) in enumerate(sdec):
            n1, n2 = q - p, n - (q - p)
            rr = didx[(s, t, bb, p, q, aa)]
            mat[rr, cc] = F.one() if (n1 * n2) % 2 == 0 else F.of_int(-1)
        blocks[n] = mat
    return FilteredMap(src, dst, 0, 0, blocks)


@pytest.mark.parametrize("seed", range(3))
def test_mu_naturality_square(seed):
    rng = random.Random(1000 + seed)
    a = _draw(rng)
    b = _draw(rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(b, rng)
    ka, kb = tot(a), tot(b)
    m1 = mu(a, b, ka, kb)
    fg = tensor_morphisms(f, g)
    lhs = tot_morphism(fg).compose(m1)
    rhs = m1.compose(graded_map_tensor(tot_morphism(f, ka, ka),
                                       tot_morphism(g, kb, kb)))
    assert lhs == rhs


def test_graded_tensor_differential_squares_to_zero():
    rng = random.Random(1100)
    a = _draw(rng)
    b = _draw(rng)
    k = graded_tensor(tot(a), tot(b))
    assert check_filtered_complex(k).ok


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_homotopy_tot_roundtrip(r, seed):
    rng = random.Random(1200 + 10 * seed + r)
    a = _draw(rng)
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, r, rng)
    oh = homotopy_to_tot(h)
    # defining identity holds exactly
    assert check_order_homotopy(oh).ok
    # filtration allowance r
    assert oh.h.shift <= r
    back = tot_to_homotopy(oh, f, g)
    assert back.h.keys() == h.h.keys()
    for m in h.h:
        assert back.h[m] == h.h[m]
    # zero homotopy round-trips to zero
    from multiplex.twisted import RHomotopy
    z = RHomotopy(r, f, f, {})
    oz = homotopy_to_tot(z)
    assert oz.h.is_zero()
    assert not tot_to_homotopy(oz, f, f).h


FIELDS = [GF(), GF(5), GF(2), QQ]
FIELD_IDS = ["F32003", "F5", "F2", "QQ"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_constructions_keep_the_axioms(field):
    """The bridge decides nothing about what it builds from inputs that
    satisfy their axioms; this test decides it.  On REF_SHAPES[1] draws A
    and B with a nonzero d_m, m >= 1: tot_inverse_morphism of filtered
    chain maps (an endomorphism e of A and a null-homotopic w: A -> B,
    through the generators) are morphisms, mu_{A,B} is a chain map, and
    for r = 0..2 and a nonzero r-homotopy h from e, homotopy_to_tot(h)
    satisfies dH + Hd = g - f and tot_to_homotopy of it (H_m); tot_dainf
    of a zero-product algebra with a nonzero m_{i1}, i >= 1, of Lambda_r,
    r = 0..2, and of Lambda_0 (x) Lambda_1 passes the filtered
    A-infinity checker."""
    rng = random.Random(7600)
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    b = random_twisted_complex(field, rng, **REF_SHAPES[1])
    assert all(any(m >= 1 for m in x.d) for x in (a, b))
    ka, kb = tot(a), tot(b)
    e = random_endo_morphism(a, rng, ka)
    w = random_null_homotopic_map(a, b, rng, ka, kb)
    assert e.f and w.f
    assert check_morphism(e).ok and check_morphism(w).ok
    assert mu(a, b, ka, kb).check_chain_map().ok
    for r in range(3):
        g, h = random_homotopic_pair(e, r, rng)
        assert h.h
        oh = homotopy_to_tot(h, ka, ka)
        assert check_order_homotopy(oh).ok
        assert check_r_homotopy(tot_to_homotopy(oh, e, g)).ok
    z = random_zero_product_dainf(field, rng, **REF_SHAPES[1])
    assert any(i >= 1 for (i, _) in z.m)
    lam = [lambda_r_dga(r, field).algebra for r in range(3)]
    for x in (z, *lam, tensor_twisted_dga(lam[0], lam[1])):
        assert check_filtered_ainf(tot_dainf(x)).ok


# ---------------------------------------------------------------------------
# reference route: Tot, its family form and the three inverse readings one
# entry at a time over (column, index) bases, as they were written before
# the offset layout; the block code must agree entry by entry
# ---------------------------------------------------------------------------

FIELDS = [GF(), GF(5), GF(2), QQ]
FIELD_IDS = ["F32003", "F5", "F2", "QQ"]


def _ref_basis(module, n):
    out = []
    for i in sorted({i for (i, j) in module.dims if j - i == n}):
        for a in range(module.dims[(i, n + i)]):
            out.append((i, a))
    return out


def _ref_tot(a):
    module, field = a.module, a.field
    d = {}
    for n in degrees_of(module):
        src = _ref_basis(module, n)
        dst = _ref_basis(module, n + 1)
        if not src or not dst:
            continue
        dindex = {key: k for k, key in enumerate(dst)}
        mat = Matrix.zero(field, len(dst), len(src))
        for cc, (i, aa) in enumerate(src):
            for m, dm in a.d.items():
                blk = dm.blocks.get((i, n + i))
                if blk is None:
                    continue
                sgn = -1 if (m * n) % 2 else 1
                for b in range(blk.rows):
                    v = blk[b, aa]
                    if v:
                        rr = dindex[(i - m, b)]
                        mat[rr, cc] = field.add(
                            mat[rr, cc], v if sgn > 0 else field.neg(v))
        if not mat.is_zero():
            d[n] = mat
    return d


def _ref_tot_family(family, u, v, src, dst, extra_sign=1):
    field = src.field
    blocks = {}
    deg = v - u
    for n in src.degrees():
        sb = _ref_basis(src.module, n)
        db = _ref_basis(dst.module, n + deg)
        if not sb or not db:
            continue
        dindex = {key: k for k, key in enumerate(db)}
        mat = Matrix.zero(field, len(db), len(sb))
        nonzero = False
        for cc, (i, aa) in enumerate(sb):
            for m, fm in family.items():
                blk = fm.blocks.get((i, n + i))
                if blk is None:
                    continue
                sgn = extra_sign * (-1 if ((m + u) * n) % 2 else 1)
                for b in range(blk.rows):
                    val = blk[b, aa]
                    if val:
                        rr = dindex[(i - m + u, b)]
                        mat[rr, cc] = field.add(
                            mat[rr, cc], val if sgn > 0 else field.neg(val))
                        nonzero = True
        if nonzero:
            blocks[n] = mat
    return blocks


def _ref_split(blocks, src, dst, deg, u, extra, src_mod, dst_mod, bid, msg):
    """The three inverse readings share this loop: the entry from column i
    to column i2 belongs to f_m, m = i - i2 + u, with sign
    (-1)^{(m+u)n + extra}; bid(m) is the bidegree of f_m."""
    field = src.field
    per_m = {}
    for n in src.degrees():
        mat = blocks.get(n)
        if mat is None:
            continue
        sb = _ref_basis(src.module, n)
        db = _ref_basis(dst.module, n + deg)
        for cc, (i, aa) in enumerate(sb):
            for rr, (i2, bb) in enumerate(db):
                v = mat[rr, cc]
                if not v:
                    continue
                m = i - i2 + u
                if m < 0:
                    raise ValueError(msg)
                if ((m + u) * n + extra) % 2:
                    v = field.neg(v)
                p, q = bid(m)
                blk = per_m.setdefault(m, {}).setdefault(
                    (i, n + i),
                    Matrix.zero(field, dst_mod.dim(i + p, n + i + q),
                                src_mod.dim(i, n + i)))
                blk[bb, aa] = field.add(blk[bb, aa], v)
    return per_m


def _ref_tot_inverse(k):
    return _ref_split(k.d, k, k, 1, 0, 0, k.module, k.module,
                      lambda m: (-m, -m + 1),
                      "filtration violated by the differential")


def _ref_tot_inverse_morphism(fmap, src, dst):
    return _ref_split(fmap.blocks, fmap.src, fmap.dst, 0, 0, 0, src.module,
                      dst.module, lambda m: (-m, -m),
                      "filtration violated by the map")


def _ref_tot_to_homotopy(oh, f):
    r = oh.r
    return _ref_split(oh.h.blocks, oh.h.src, oh.h.dst, -1, r, r,
                      f.src.module, f.dst.module,
                      lambda m: (-m + r, -m + r - 1),
                      "homotopy exceeds its filtration allowance")


def _same(m1, m2):
    """Equal shape, values and entry types."""
    return (m1.rows, m1.cols) == (m2.rows, m2.cols) and m1.data == m2.data \
        and [type(x) for x in m1.data] == [type(x) for x in m2.data]


def _same_blocks(got: dict, ref: dict):
    assert got.keys() == ref.keys()
    for key in ref:
        assert _same(got[key], ref[key]), key


def _same_family(got: dict, ref: dict):
    """got: {m: BigradedMap}, ref: {m: {bidegree: Matrix}} with only
    nonzero blocks on both sides."""
    assert got.keys() == ref.keys()
    for m in ref:
        _same_blocks(got[m].blocks, ref[m])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_and_inverse_match_reference(field):
    rng = random.Random(5100)
    seen = set()
    for _ in range(8):
        a = random_twisted_complex(field, rng, spots=6, mix=3)
        seen |= set(a.d)
        k = tot(a)
        _same_blocks(k.d, _ref_tot(a))
        for n in range(-6, 8):
            assert tot_basis(a.module, n) == _ref_basis(a.module, n)
            assert k.dim(n) == len(_ref_basis(a.module, n))
        _same_family(tot_inverse(k).d, _ref_tot_inverse(k))
        kf = random_filtered_complex(field, rng, spots=6)
        back = tot_inverse(kf)
        _same_family(back.d, _ref_tot_inverse(kf))
        _same_blocks(kf.d, _ref_tot(back))
        seen |= set(back.d)
    # d_m with odd and even m > 0 both occurred, so every sign was compared
    assert {1, 2} <= seen


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_tot_family_and_readings_match_reference(field, r):
    rng = random.Random(5200 + r)
    fam_blocks = shifted = homotopy_blocks = 0
    for _ in range(4):
        a = random_twisted_complex(field, rng, spots=6)
        b = random_twisted_complex(field, rng, spots=6)
        ka, kb = tot(a), tot(b)
        # families of overall bidegree (r, r - 1), so u = r, both signs
        fam = random_homotopy_family(a, b, r, rng, density=0.7)
        fam_blocks += sum(len(fm.blocks) for fm in fam.values())
        for extra_sign in (1, -1):
            got = tot_family(fam, r, r - 1, ka, kb, extra_sign=extra_sign)
            _same_blocks(got.blocks,
                         _ref_tot_family(fam, r, r - 1, ka, kb, extra_sign))
        # morphisms: Tot and back
        f = random_endo_morphism(a, rng, ka)
        shifted += any(f.f)
        tf = tot_morphism(f, ka, ka)
        _same_blocks(tf.blocks, _ref_tot_family(f.f, 0, 0, ka, ka))
        _same_family(tot_inverse_morphism(tf, a, a).f,
                     _ref_tot_inverse_morphism(tf, a, a))
        # order-r homotopies: H = (-1)^r Tot(hhat) and back
        g, h = random_homotopic_pair(f, r, rng)
        homotopy_blocks += sum(len(hm.blocks) for hm in h.h.values())
        oh = homotopy_to_tot(h, ka, ka)
        _same_blocks(oh.h.blocks, _ref_tot_family(
            h.h, r, r - 1, ka, ka, -1 if r % 2 else 1))
        _same_family(tot_to_homotopy(oh, f, g).h,
                     _ref_tot_to_homotopy(oh, f))
    assert fam_blocks and shifted and homotopy_blocks


# d^0 of Tot on dims {(0,0): 1, (1,1): 1, (1,2): 1, (2,3): 2}: Tot^0 has
# columns 0 and 1 (one vector each), Tot^1 has column 1 (row 0) and
# column 2 (rows 1, 2)
_VIOLATION_MOD = BigradedModule(F, {(0, 0): 1, (1, 1): 1, (1, 2): 1,
                                    (2, 3): 2})


def _kernel_reference(k, n, s, t):
    """FilteredComplex.kernel(n, s, t) built as it first was: the identity
    of Tot^n cut to the kernel's columns, with the kernel of the window
    block of d^n written over its rows from F_s to F_t."""
    top = k.cut(n, t)
    low = min(k.cut(n, s), top)
    r0 = k.cut(n + 1, s)
    rows = k.cut(n + 1, t) - r0
    if rows > 0 and top > low:
        ker, ker_free = k.d_mat(n).get_block(r0, low, rows,
                                             top - low).kernel()
    else:
        ker, ker_free = Matrix.identity(k.field, top - low), range(top - low)
    free = list(range(low)) + [low + c for c in ker_free]
    K = Matrix.identity(k.field, k.dim(n)).get_block(0, 0, k.dim(n),
                                                     len(free))
    K.set_block(low, low, ker)
    return K, free


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", range(4))
def test_tot_cone_matches_tot_of_the_bigraded_cone(field, r):
    """tot_cone(f, r) equals tot(cone_complex(f, r)) in its module and in
    every D^n, for an endomorphism of A, for the r-path inclusion
    A -> P_r(A) and for a map A -> B into another complex, on REF_SHAPES[1]
    draws with a nonzero d_m, m >= 1, and nonzero maps, and D^2 = 0 on it,
    which the cone detector takes from its inputs; Tots of other
    complexes are refused."""
    rng = random.Random(5300 + r)
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    b = random_twisted_complex(field, rng, **REF_SHAPES[1])
    assert any(m >= 1 for m in a.d) and any(m >= 1 for m in b.d)
    ka = tot(a)
    for f in (random_endo_morphism(a, rng), path(a, r).iota,
              random_null_homotopic_map(a, b, rng)):
        assert f.f
        kb = ka if f.dst is a else tot(f.dst)
        got, ref = tot_cone(f, r, ka, kb), tot(cone_complex(f, r))
        assert check_filtered_complex(got).ok
        assert got.module == ref.module
        assert sorted(got.d) == sorted(ref.d)
        for n in ref.degrees():
            assert got.d_mat(n) == ref.d_mat(n), n
    with pytest.raises(ValueError, match="not the totalizations"):
        tot_cone(f, r, kb, ka)


def _per_degree(family, u, deg, ns, src_mod, dst_mod, field, extra=0):
    """{n: Tot^n of the family} through conftest.tot_matrix_per_degree."""
    return {n: tot_matrix_per_degree(family, u, n, tot_layout(src_mod, n),
                                     tot_layout(dst_mod, n + deg), field,
                                     extra)
            for n in ns}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", range(len(REF_SHAPES)))
def test_one_pass_tot_matches_per_degree_reference(field, shape):
    """The one-pass tot_matrix equals the per-degree scan it replaced
    (conftest.tot_matrix_per_degree) entry by entry: in the D^n of tot,
    in the Tot(f)^n that a morphism holds (an endomorphism and a map into
    another complex) and in tot_morphism, in tot_family at the homotopy
    shift u = r with both extra signs, and in the D^n of tot_cone.  The
    draws are REF_SHAPES draws with a nonzero d_m, m >= 1, and nonzero
    maps."""
    rng = random.Random(5400 + shape)
    a = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    b = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    assert any(m >= 1 for m in a.d) and any(m >= 1 for m in b.d)
    ka, kb = tot(a), tot(b)
    for c, k in ((a, ka), (b, kb)):
        ref = _per_degree(c.d, 0, 1, k.degrees(), c.module, c.module, field)
        assert all(k.d_mat(n) == ref[n] for n in k.degrees())
    degs = ka.degrees()
    ns = sorted({*degs, *(n + 1 for n in degs)})
    for f, kf in ((random_endo_morphism(a, rng, ka), ka),
                  (random_null_homotopic_map(a, b, rng), kb)):
        assert f.f
        held = f.tot(ka, kf)
        assert f.tot(ka, kf) is held
        # once held, a Tot of an equal module that is not f's source or
        # target is still refused, not answered with the held matrices
        twin = tot(TwistedComplex(BigradedModule(field, dict(a.module.dims))))
        assert twin.module == ka.module
        with pytest.raises(ValueError, match="not the totalizations"):
            f.tot(twin, kf)
        with pytest.raises(ValueError, match="not the totalizations"):
            check_morphism(f, twin, kf)
        ref = _per_degree(f.f, 0, 0, ns, a.module, f.dst.module, field)
        assert sorted(held) == ns
        assert all(held[n] == ref[n] for n in ns)
        tf = tot_morphism(f, ka, kf)
        assert all(tf.block(n) == ref[n] for n in degs)
        for r in range(3):
            got = tot_cone(f, r, ka, kf)
            c = cone_complex(f, r)
            want = _per_degree(c.d, 0, 1, got.degrees(), c.module, c.module,
                               field)
            assert got.module == c.module
            assert all(got.d_mat(n) == want[n] for n in got.degrees())
    for r in range(3):
        fam = random_homotopy_family(a, b, r, rng, density=0.7)
        assert fam
        for extra_sign in (1, -1):
            got = tot_family(fam, r, r - 1, ka, kb, extra_sign=extra_sign)
            want = _per_degree(fam, r, -1, degs, a.module, b.module, field,
                               1 if extra_sign < 0 else 0)
            assert all(got.block(n) == want[n] for n in degs)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_writes_differentials_that_keep_the_filtration(field):
    """tot adopts the D^n it writes without the filtration check of
    FilteredComplex, since tot_matrix writes d_m from column i to column
    i - m with m >= 0.  The checked constructor accepts every such D^n:
    on REF_SHAPES draws with a nonzero d_m, m >= 1, on their r-paths and
    r-cones (which have d_m up to m = r + 1 and more), it rebuilds the
    same complex; a differential that leaves the filtration is still
    refused there, as for a filtered_complex document."""
    rng = random.Random(5500)
    for shape in REF_SHAPES:
        a = random_twisted_complex(field, rng, **shape)
        assert any(m >= 1 for m in a.d)
        for r in range(3):
            for c in (a, path(a, r).complex,
                      cone_complex(random_endo_morphism(a, rng), r)):
                k = tot(c)
                assert FilteredComplex(k.module, k.d) == k
    up = Matrix.zero(field, 3, 2)
    up[0, 0] = field.one()
    with pytest.raises(ValueError, match="violates the filtration"):
        FilteredComplex(_VIOLATION_MOD, {0: up})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", range(len(REF_SHAPES)))
def test_kernel_matches_identity_then_overwrite(field, shape):
    """FilteredComplex.kernel, written directly, equals the reference
    entry by entry for every degree, s and t = s + r, r <= 3, on a
    REF_SHAPES complex; some of those kernels have unit columns, window
    columns and zero rows beyond F_t all at once."""
    rng = random.Random(7100 + shape)
    k = tot(random_twisted_complex(field, rng, **REF_SHAPES[shape]))
    cols = sorted({i for i, _ in k.module.dims})
    mixed = 0
    for n in k.degrees():
        for s in range(cols[0] - 2, cols[-1] + 1):
            for r in range(4):
                got = k.kernel(n, s, s + r)
                assert got == _kernel_reference(k, n, s, s + r), (n, s, r)
                low, top = k.cut(n, s), k.cut(n, s + r)
                mixed += 0 < low < len(got[1]) and top < k.dim(n) \
                    and not got[0].get_block(low, low, top - low,
                                             len(got[1]) - low).is_zero()
    assert mixed


@pytest.mark.parametrize("rows, message", [
    # row 1 hits column 2 from column 1 before row 2 does from column 0
    ([[0, 1], [0, 1], [1, 0]], "column 1 hits column 2"),
    ([[0, 1], [0, 0], [1, 0]], "column 0 hits column 2"),
    ([[1, 0], [0, 0], [0, 1]], "column 0 hits column 1"),
], ids=["row-major-first", "second-row", "first-block"])
def test_filtered_complex_violation_message(rows, message):
    mat = Matrix.from_rows(F, rows)
    with pytest.raises(ValueError) as exc:
        FilteredComplex(_VIOLATION_MOD, {0: mat})
    assert str(exc.value) == \
        f"differential violates the filtration in degree 0: {message}"


def test_filtered_complex_shape_message():
    with pytest.raises(ValueError) as exc:
        FilteredComplex(_VIOLATION_MOD, {0: Matrix.zero(F, 2, 2)})
    assert str(exc.value) == \
        "differential in degree 0 has shape 2x2, expected 3x2"


def test_filtered_map_violation_messages():
    k = FilteredComplex(_VIOLATION_MOD, {})
    # allowance -1: column i may only reach columns <= i - 1
    mat = Matrix.from_rows(F, [[0, 1], [5, 1]])
    with pytest.raises(ValueError) as exc:
        FilteredMap(k, k, 0, -1, {0: mat})
    assert str(exc.value) == ("map violates its filtration allowance -1 in "
                              "degree 0: column 0 hits column 1")
    # allowance 1 accepts the same matrix; degree 1 maps Tot^0 -> Tot^1
    assert FilteredMap(k, k, 0, 1, {0: mat}).blocks[0] == mat
    up = Matrix.from_rows(F, [[0, 0], [0, 1], [0, 1]])
    with pytest.raises(ValueError) as exc:
        FilteredMap(k, k, 1, 0, {0: up})
    assert str(exc.value) == ("map violates its filtration allowance 0 in "
                              "degree 0: column 1 hits column 2")
    assert FilteredMap(k, k, 1, 1, {0: up}).shift == 1
    with pytest.raises(ValueError) as exc:
        FilteredMap(k, k, 1, 1, {0: mat})
    assert str(exc.value) == \
        "map block in degree 0 has shape 2x2, expected 3x2"


def _ref_violation(mat, sb, db, shift):
    """The per-entry filtration scan: first (i, i2) in row-major order."""
    for rr, (i2, _) in enumerate(db):
        for cc, (i, _) in enumerate(sb):
            if i2 > i + shift and mat[rr, cc]:
                return f"column {i} hits column {i2}"
    return None


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_filtration_checks_match_reference_scan(field):
    rng = random.Random(5300)
    for trial in range(60):
        k = random_filtered_complex(field, rng, spots=5)
        for n in k.degrees():
            sb, db = k.basis(n), k.basis(n + 1)
            if not sb or not db:
                continue
            mat = Matrix.from_rows(field, [
                [rng.choice([0, 0, 0, 1, 2]) for _ in sb] for _ in db])
            expect = _ref_violation(mat, sb, db, 0)
            if expect is None:
                assert FilteredComplex(k.module, {n: mat}).d_mat(n) == mat
            else:
                with pytest.raises(ValueError) as exc:
                    FilteredComplex(k.module, {n: mat})
                assert str(exc.value).endswith(expect)
            shift = rng.randint(-2, 1)
            expect = _ref_violation(mat, sb, db, shift)
            if expect is None:
                FilteredMap(k, k, 1, shift, {n: mat})
            else:
                with pytest.raises(ValueError) as exc:
                    FilteredMap(k, k, 1, shift, {n: mat})
                assert str(exc.value) == (
                    f"map violates its filtration allowance {shift} in "
                    f"degree {n}: {expect}")


def test_inverse_readings_reject_a_rising_component():
    k = FilteredComplex(_VIOLATION_MOD, {})
    # written past the constructor's check: the differential and the map
    # send column 1 into column 2
    k.d[0] = Matrix.from_rows(F, [[0, 0], [0, 1], [0, 0]])
    with pytest.raises(ValueError,
                       match="^filtration violated by the differential$"):
        tot_inverse(k)
    a = TwistedComplex(_VIOLATION_MOD, {})
    ka = tot(a)
    fmap = identity_filtered(ka)
    fmap.blocks[0] = Matrix.from_rows(F, [[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="^filtration violated by the map$"):
        tot_inverse_morphism(fmap, a, a)
