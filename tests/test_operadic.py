import random

import pytest

from conftest import REF_SHAPES, corrupt_homotopy, homotopy_verdict

from multiplex.bigraded import BigradedMap, BigradedModule, identity_map
from multiplex.generators import (
    random_endo_morphism, random_homotopic_pair, random_homotopy_family,
    random_null_homotopic_map, random_twisted_complex,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.operadic import (
    check_coderh, check_square_zero_coderivation, default_truncation,
    expand_module, extract, lift, lift_morphism, lift_twisted, shift,
    x_lowering,
)
from multiplex import twisted
from multiplex.twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_twisted, compose,
    identity_morphism,
)

F = GF()


def _ref_shape_draw(field, rng):
    """A REF_SHAPES[1] draw with a nonzero d_m for some m >= 1, asserted."""
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    assert any(m >= 1 for m in a.d)
    return a


def test_expand_module_dims():
    mod = BigradedModule(F, {(0, 0): 2, (1, 2): 1})
    e = expand_module(mod, 2)
    assert e.dim(0, 0) == 2
    assert e.dim(-1, -1) == 2
    assert e.dim(-1, 0) == 1
    assert e.total_dim() == 3 * mod.total_dim()


def test_lift_identity_family():
    mod = BigradedModule(F, {(0, 0): 2, (1, 2): 1})
    lifted = lift({0: identity_map(mod)}, 0, 0, mod, mod, 3)
    assert lifted.map == identity_map(expand_module(mod, 3))


def test_lift_sign_on_degree_one_family():
    # a (0,1) family places (-1)^i on the x^i row
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    d0 = BigradedMap(mod, mod, (0, 1), {(0, 0): Matrix.identity(F, 1)})
    lifted = lift({0: d0}, 0, 1, mod, mod, 2)
    # x^1 (x) a sits at (-1, -1); its image x^1 (x) d0(a) at (-1, 0)
    blk = lifted.map.block(-1, -1)
    assert blk.rows == 1 and blk.cols == 1
    assert blk[0, 0] == F.of_int(-1)
    blk0 = lifted.map.block(0, 0)
    assert blk0[0, 0] == F.one()


@pytest.mark.parametrize("seed", range(4))
def test_lift_extract_roundtrip(seed):
    rng = random.Random(2200 + seed)
    a = _ref_shape_draw(F, rng)
    b = _ref_shape_draw(F, rng)
    fam = random_homotopy_family(a, b, rng.choice([0, 1, 2]), rng)
    assert a.d and b.d and len(fam) >= 3
    # the family's own overall bidegree
    m0 = sorted(fam)[0]
    p, q = fam[m0].bidegree
    u, v = p + m0, q + m0
    # a truncation that keeps every index of the family
    lifted = lift(fam, u, v, a.module, b.module, max(fam) + 2)
    back = extract(lifted)
    assert back.keys() == fam.keys()
    for m in fam:
        assert back[m] == fam[m]


def test_shift_matches_index_shift():
    rng = random.Random(2300)
    a = _ref_shape_draw(F, rng)
    f = random_endo_morphism(a, rng)
    assert a.d and len(f.f) >= 2
    # a truncation that keeps every index of the family, shifted twice
    lf = lift_morphism(f, max(f.f) + 2)
    shifted = shift(lf)
    fam = extract(shifted)
    expect = {m + 1: fm for m, fm in f.f.items()}
    assert fam.keys() == expect.keys()
    for m in fam:
        assert fam[m] == expect[m]
    # double shift = two index shifts
    fam2 = extract(shift(shifted))
    assert fam2.keys() == {m + 2 for m in f.f}


def test_lift_respects_composition():
    rng = random.Random(2400)
    a = _ref_shape_draw(F, rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(a, rng)
    assert a.d and len(f.f) >= 2 and len(g.f) >= 2
    n = 8
    assert lift_morphism(compose(g, f), n) == \
        lift_morphism(g, n).compose(lift_morphism(f, n))


def test_square_zero_oracle_verdicts():
    # zero family
    mod = BigradedModule(F, {(0, 0): 1, (1, 2): 2})
    assert check_square_zero_coderivation(TwistedComplex(mod, {}), 5)
    # valid random fixtures
    rng = random.Random(2500)
    for _ in range(3):
        a = random_twisted_complex(F, rng)
        assert check_square_zero_coderivation(a, 6)
    # broken commutation: the same fixture as the twisted tests
    mod = BigradedModule(F, {(1, 0): 1, (1, 1): 1, (0, 0): 1, (0, 1): 1})
    d0 = BigradedMap(mod, mod, (0, 1), {(1, 0): Matrix.identity(F, 1)})
    d1 = BigradedMap(mod, mod, (-1, 0), {(1, 1): Matrix.identity(F, 1)})
    broken = TwistedComplex(mod, {0: d0, 1: d1})
    assert not check_square_zero_coderivation(broken, 6)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("r", [0, 1, 2])
def test_coderh_oracle(seed, r):
    rng = random.Random(2639 + 10 * seed + r)
    a = _ref_shape_draw(F, rng)
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, r, rng)
    assert a.d and h.h
    assert homotopy_verdict(h) and check_coderh(h)
    # trivial homotopy
    triv = RHomotopy(r, f, f, {})
    assert homotopy_verdict(triv) and check_coderh(triv)
    # one entry raised by 1 where it breaks (H_m), found from the d_t
    bad = corrupt_homotopy(h)
    assert not homotopy_verdict(bad)
    assert not check_coderh(bad)
    # one entry raised in every block of every hhat_m
    worse = RHomotopy(r, f, g, {m: _bump_every_block(hm)
                                for m, hm in h.h.items()})
    assert not homotopy_verdict(worse)
    assert not check_coderh(worse)


def _bump_every_block(hm):
    blocks = {}
    for loc, blk in hm.blocks.items():
        blocks[loc] = blk.copy()
        blocks[loc][0, 0] = F.add(blk[0, 0], F.one())
    return BigradedMap(hm.src, hm.dst, hm.bidegree, blocks)


def test_truncation_floor_and_stability():
    rng = random.Random(2700)
    a = _ref_shape_draw(F, rng)
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, 1, rng)
    assert a.d and h.h
    n0 = default_truncation(h)
    with pytest.raises(ValueError):
        check_coderh(h, n0 - 1)
    assert check_coderh(h, n0) == check_coderh(h, n0 + 3)

# ---------------------------------------------------------------------------
# reference route: lift, extract and d_x one entry at a time over (slot,
# index) bases, as they were written before the slot table; the block code
# must agree entry by entry
# ---------------------------------------------------------------------------

FIELDS = [GF(), GF(5), GF(2), QQ]
FIELD_IDS = ["F32003", "F5", "F2", "QQ"]


def _ref_expand_basis(mod, n_max, i, j):
    return [(t, a) for t in range(n_max + 1)
            for a in range(mod.dim(i + t, j + t))]


def _ref_lift(family, u, v, src, dst, n_max):
    """{(i, j): Matrix} of the lift, nonzero blocks only."""
    field = src.field
    esrc = expand_module(src, n_max)
    blocks = {}
    for (i, j) in esrc.support():
        sbasis = _ref_expand_basis(src, n_max, i, j)
        dbasis = _ref_expand_basis(dst, n_max, i + u, j + v)
        dindex = {key: k for k, key in enumerate(dbasis)}
        if not sbasis or not dbasis:
            continue
        mat = Matrix.zero(field, len(dbasis), len(sbasis))
        for cc, (n, aa) in enumerate(sbasis):
            for m, fm in family.items():
                blk = fm.blocks.get((i + n, j + n))
                if m > n or blk is None:
                    continue
                slot = n - m
                sgn = -1 if ((u + v) % 2 and slot % 2) else 1
                for bb in range(blk.rows):
                    val = blk[bb, aa]
                    if val:
                        rr = dindex[(slot, bb)]
                        mat[rr, cc] = field.add(
                            mat[rr, cc], val if sgn > 0 else field.neg(val))
        if not mat.is_zero():
            blocks[(i, j)] = mat
    return blocks


def _ref_extract(t):
    """{n: {bidegree: Matrix}} of the extracted family."""
    u, v = t.bidegree
    field = t.src.field
    per_n = {}
    for (i, j), mat in t.map.blocks.items():
        sbasis = _ref_expand_basis(t.src, t.n_max, i, j)
        dbasis = _ref_expand_basis(t.dst, t.n_max, i + u, j + v)
        for cc, (n, aa) in enumerate(sbasis):
            src_bid = (i + n, j + n)
            for rr, (slot, bb) in enumerate(dbasis):
                val = mat[rr, cc]
                if slot != 0 or not val:
                    continue
                blk = per_n.setdefault(n, {}).setdefault(
                    src_bid, Matrix.zero(field, t.dst.dim(i + u, j + v),
                                         t.src.dim(*src_bid)))
                blk[bb, aa] = field.add(blk[bb, aa], val)
    return per_n


def _ref_x_lowering(mod, n_max):
    field = mod.field
    blocks = {}
    for (i, j) in expand_module(mod, n_max).support():
        sbasis = _ref_expand_basis(mod, n_max, i, j)
        dbasis = _ref_expand_basis(mod, n_max, i + 1, j + 1)
        dindex = {key: k for k, key in enumerate(dbasis)}
        if not sbasis or not dbasis:
            continue
        mat = Matrix.zero(field, len(dbasis), len(sbasis))
        for cc, (n, aa) in enumerate(sbasis):
            if n and (n - 1, aa) in dindex:
                mat[dindex[(n - 1, aa)], cc] = field.one()
        if not mat.is_zero():
            blocks[(i, j)] = mat
    return blocks


def _same_blocks(got: dict, ref: dict):
    """Equal keys, shapes, values and entry types."""
    assert got.keys() == ref.keys()
    for key, m in ref.items():
        g = got[key]
        assert (g.rows, g.cols, g.data) == (m.rows, m.cols, m.data), key
        assert [type(x) for x in g.data] == [type(x) for x in m.data], key


def _match_reference(a, b, f, h):
    """Lifts of d^A, d^B, f and hhat, d_x on both modules and extractions
    of lifts and composites (which fill slots > 0) equal the reference
    route at truncations from 0 to past the default; returns the number of
    lifted blocks compared."""
    r, lifted = h.r, 0
    ma, mb = a.module, b.module
    for n_max in (0, 1, 3, default_truncation(h)):
        cases = [(a.d, 0, 1, ma, ma), (b.d, 0, 1, mb, mb),
                 (f.f, 0, 0, ma, mb), (h.h, r, r - 1, ma, mb)]
        lifts = []
        for fam, u, v, src, dst in cases:
            t = lift(fam, u, v, src, dst, n_max)
            _same_blocks(t.map.blocks, _ref_lift(fam, u, v, src, dst, n_max))
            lifted += len(t.map.blocks)
            lifts.append(t)
        dx = x_lowering(ma, n_max)
        _same_blocks(dx.map.blocks, _ref_x_lowering(ma, n_max))
        _same_blocks(x_lowering(mb, n_max).map.blocks,
                     _ref_x_lowering(mb, n_max))
        da, db, fl, hl = lifts
        for t in lifts + [db.compose(hl), hl.compose(da), fl.compose(dx)]:
            got = extract(t)
            ref = _ref_extract(t)
            assert got.keys() == ref.keys()
            for n in ref:
                _same_blocks(got[n].blocks, ref[n])
    return lifted


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_lift_extract_x_lowering_match_reference(field, r):
    """Three small endomorphism draws, then a morphism between two
    REF_SHAPES[1] draws (each asserted to have a nonzero d_m, m >= 1)."""
    rng = random.Random(5400 + r)
    lifted = 0
    for trial in range(3):
        a = random_twisted_complex(field, rng, spots=5, mix=3)
        f = random_endo_morphism(a, rng)
        g, h = random_homotopic_pair(f, r, rng)
        lifted += _match_reference(a, a, f, h)
    a, b = _ref_shape_draw(field, rng), _ref_shape_draw(field, rng)
    f = random_null_homotopic_map(a, b, rng)
    g, h = random_homotopic_pair(f, r, rng)
    assert len(f.f) >= 2 and h.h
    lifted += _match_reference(a, b, f, h)
    assert lifted


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_coderh_verdicts_on_ref_draws(field, r):
    """check_coderh, whose verdict is cross-checked against the direct
    (H_m) checker on every call, decides valid witnesses between
    REF_SHAPES[1] draws and corrupted ones as both routes of the (H_m)
    checker do, at the default truncation and past it; both verdicts
    occur."""
    rng = random.Random(7400 + r)
    verdicts = []
    for f_of in (lambda a, b: random_endo_morphism(a, rng),
                 lambda a, b: random_null_homotopic_map(a, b, rng)):
        a, b = _ref_shape_draw(field, rng), _ref_shape_draw(field, rng)
        f = f_of(a, b)
        g, h = random_homotopic_pair(f, r, rng)
        assert h.h
        for cand in (h, corrupt_homotopy(h)):
            expected = homotopy_verdict(cand)
            n0 = default_truncation(cand)
            for n_max in (n0, n0 + 2):
                verdicts.append(check_coderh(cand, n_max))
                assert verdicts[-1] is expected
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_shift_is_the_lifted_index_shift(field):
    """S^r F~, the lift composed r times with d_x as check_coderh builds
    it, is the lift of the family shifted r steps up in index, (f_{m-r})_m
    of bidegree (r, r): for f and a g homotopic to it between two
    REF_SHAPES[1] draws, r = 0..3, at the default truncation and past it;
    each shifted lift is nonzero."""
    rng = random.Random(7600)
    a, b = _ref_shape_draw(field, rng), _ref_shape_draw(field, rng)
    f = random_null_homotopic_map(a, b, rng)
    assert len(f.f) >= 2
    compared = 0
    for r in range(4):
        g, h = random_homotopic_pair(f, r, rng)
        n0 = default_truncation(h)
        for n_max in (n0, n0 + 2):
            for mor in (f, g):
                sf = lift_morphism(mor, n_max)
                for _ in range(r):
                    sf = shift(sf)
                ref = lift({m + r: fm for m, fm in mor.f.items()}, r, r,
                           a.module, b.module, n_max)
                assert not ref.is_zero() and sf == ref
                compared += 1
    assert compared == 16


def test_coderh_decides_f_and_g_once(monkeypatch):
    """check_coderh runs check_morphism once on f and once on g, inside
    the (H_m) checker whose verdict it is compared with, on a valid and on
    a corrupted witness; when f is not a morphism it raises the ValueError
    that `oracle coderh` reports."""
    rng = random.Random(7700)
    a = _ref_shape_draw(F, rng)
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, 1, rng)
    calls = []
    real = twisted.check_morphism
    monkeypatch.setattr(twisted, "check_morphism",
                        lambda mor: calls.append(mor) or real(mor))
    for cand, verdict in ((h, True), (corrupt_homotopy(h), False)):
        calls.clear()
        assert check_coderh(cand) is verdict
        assert len(calls) == 2 and calls[0] is f and calls[1] is g
    # f_0 = 1 on A^{0,1} only does not commute with d_0: A^{0,0} -> A^{0,1}
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    one = Matrix.identity(F, 1)
    c = TwistedComplex(mod, {0: BigradedMap(mod, mod, (0, 1), {(0, 0): one})})
    broken = TwistedMorphism(c, c, {0: BigradedMap(mod, mod, (0, 0),
                                                   {(0, 1): one})})
    assert not real(broken).ok
    calls.clear()
    with pytest.raises(ValueError, match="^f and g must be valid morphisms "
                       "of twisted complexes$"):
        check_coderh(RHomotopy(0, broken, broken, {}))
    assert len(calls) == 2


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_square_zero_oracle_on_ref_draws(field):
    """lift(d)^2 = 0 and the (A_m) sum it is cross-checked against decide
    as check_twisted does, on REF_SHAPES[1] draws and on each with one
    entry of one d_m raised by 1."""
    rng = random.Random(7500)
    verdicts = []
    for _ in range(3):
        a = _ref_shape_draw(field, rng)
        m = rng.choice(sorted(m for m in a.d if m >= 1))
        dm = a.d[m]
        loc = rng.choice(sorted(dm.blocks))
        blk = dm.blocks[loc].copy()
        blk[0, 0] = field.add(blk[0, 0], field.one())
        bad = TwistedComplex(a.module, {**a.d, m: BigradedMap(
            dm.src, dm.dst, dm.bidegree, {**dm.blocks, loc: blk})})
        for cx in (a, bad):
            n_max = 2 * max(cx.d)
            verdict = check_square_zero_coderivation(cx, n_max)
            assert verdict is check_twisted(cx).ok
            verdicts.append(verdict)
    assert False in verdicts and verdicts.count(True) >= 3
