import random

import pytest

from conftest import (
    REF_SHAPES, SHAPE, assert_canonical, bumped_identity,
    check_morphism_blockwise, check_twisted_blockwise, corrupt_homotopy,
    homotopy_verdict,
)
from multiplex.bigraded import (
    BigradedMap, BigradedModule, compose as bcompose, identity_map,
    symmetry_iso, tensor_maps, tensor_modules, tensor_summands, zero_map,
)
from multiplex.filtration import tot, tot_inverse, tot_morphism
from multiplex.generators import (
    random_automorphism, random_endo_morphism, random_filtered_complex,
    random_homotopic_pair, random_null_homotopic_map, random_twisted_complex,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.reports import Report
from multiplex.twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, add_homotopies,
    check_morphism, check_r_homotopy, check_twisted, compose, cone,
    cone_to_pair, homotopy_lhs, identity_morphism, internal_hom, invert,
    negate_homotopy,
    pair_to_cone, path, path_morphism, shift_homotopy, solve_r_homotopy,
    tensor, tensor_morphisms, translation, unit_complex, zero_morphism,
)

F = GF()


def _draw(rng, field=F, shape=1):
    """A complex of REF_SHAPES[shape] with a nonzero d_m for some m >= 1,
    which is asserted: on a complex whose only map is d_0, every sign and
    shift that the paths, cones and tensor products give d_m, m >= 1,
    goes untested."""
    a = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    assert any(m >= 1 for m in a.d)
    return a


def two_by_two_complex(field=F):
    """Two columns with nonzero d_0 and d_1 (axioms hold by inspection)."""
    mod = BigradedModule(field, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 2): 1})
    one = Matrix.identity(field, 1)
    d0 = BigradedMap(mod, mod, (0, 1), {(0, 0): one, (1, 1): one})
    d1 = BigradedMap(mod, mod, (-1, 0), {(1, 1): one})
    a = TwistedComplex(mod, {0: d0, 1: d1})
    assert check_twisted(a).ok
    return a


def test_check_twisted_trivial_and_broken():
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    assert check_twisted(TwistedComplex(mod, {})).ok
    # d_0 with d_0^2 != 0: (0,0) -> (0,1) -> fails only if composable twice;
    # use a 3-step column instead
    mod3 = BigradedModule(F, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    d0 = BigradedMap(mod3, mod3, (0, 1), {
        (0, 0): Matrix.identity(F, 1), (0, 1): Matrix.identity(F, 1)})
    rep = check_twisted(TwistedComplex(mod3, {0: d0}))
    assert not rep.ok
    assert rep.failures[0][0][0] == 0  # failure located at m = 0
    # the D^n it reads come from tot of the complex itself, or from none
    broken = TwistedComplex(mod3, {0: d0})
    assert check_twisted(broken, tot(broken)).to_dict() == rep.to_dict()
    with pytest.raises(ValueError, match="not the totalization"):
        check_twisted(broken, tot(TwistedComplex(
            BigradedModule(F, {(0, 0): 1, (0, 1): 1, (0, 2): 1}), {})))


def test_check_twisted_commutation_failure():
    # d_0 and d_1 each square to zero but do not commute: (A_11) must fail,
    # verified by hand: (A_11) reads d_0 d_1 - d_1 d_0 = 0
    mod = BigradedModule(F, {(1, 0): 1, (1, 1): 1, (0, 0): 1, (0, 1): 1})
    d0 = BigradedMap(mod, mod, (0, 1), {(1, 0): Matrix.identity(F, 1)})
    d1 = BigradedMap(mod, mod, (-1, 0), {(1, 1): Matrix.identity(F, 1)})
    a = TwistedComplex(mod, {0: d0, 1: d1})
    rep = check_twisted(a)
    assert not rep.ok
    assert all(loc[0] == 1 for loc, _ in rep.failures)


def test_wrong_bidegree_rejected():
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    d_bad = BigradedMap(mod, mod, (0, 1), {(0, 0): Matrix.identity(F, 1)})
    with pytest.raises(ValueError):
        TwistedComplex(mod, {1: d_bad})


def test_identity_and_zero_morphisms_valid():
    a = two_by_two_complex()
    assert check_morphism(identity_morphism(a)).ok
    assert check_morphism(zero_morphism(a, a)).ok


def test_nonchain_strict_map_fails_at_zero():
    rng = random.Random(3)
    a = two_by_two_complex()
    blocks = {k: Matrix(F, n, n, [F.of_int(rng.randint(1, 4))
                                  for _ in range(n * n)])
              for k, n in a.module.dims.items()}
    f0 = BigradedMap(a.module, a.module, (0, 0), blocks)
    rep = check_morphism(TwistedMorphism(a, a, {0: f0}))
    assert not rep.ok


@pytest.mark.parametrize("seed", range(5))
def test_compose_associative_and_unital(seed):
    rng = random.Random(40 + seed)
    a = random_twisted_complex(F, rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(a, rng)
    h = random_endo_morphism(a, rng)
    assert compose(g, identity_morphism(a)) == g
    assert compose(identity_morphism(a), g) == g
    assert compose(h, compose(g, f)) == compose(compose(h, g), f)


def test_strict_composition_is_blockwise():
    a = two_by_two_complex()
    i = identity_morphism(a)
    two = TwistedMorphism(a, a, {0: i.f_map(0).scale(F.of_int(2))})
    three = TwistedMorphism(a, a, {0: i.f_map(0).scale(F.of_int(3))})
    assert compose(two, three).f_map(0) == i.f_map(0).scale(F.of_int(6))


@pytest.mark.parametrize("seed", range(4))
def test_invert(seed):
    rng = random.Random(60 + seed)
    a = random_twisted_complex(F, rng)
    assert invert(identity_morphism(a)) == identity_morphism(a)
    two = TwistedMorphism(a, a, {0: identity_map(a.module).scale(F.of_int(2))})
    halves = invert(two)
    inv2 = F.inv(F.of_int(2))
    assert_canonical(F, [inv2])  # never a float
    assert halves.f_map(0) == identity_map(a.module).scale(inv2)
    phi = random_automorphism(a, rng)
    psi = invert(phi)
    assert psi is not None and check_morphism(psi).ok
    assert compose(psi, phi) == identity_morphism(a)
    assert compose(phi, psi) == identity_morphism(a)
    # non-invertible: zero morphism on a nonzero module
    if not a.module.is_zero():
        assert invert(zero_morphism(a, a)) is None


def test_invert_order_one_correction():
    # f_0 = id with a single nonzero f_1 on a complex with zero twisting:
    # the triangular recursion gives exactly g_1 = -f_1
    mod = BigradedModule(F, {(0, 0): 1, (1, 1): 2})
    a = TwistedComplex(mod, {})
    f1 = BigradedMap(mod, mod, (-1, -1),
                     {(1, 1): Matrix.from_rows(F, [[2, -1]])})
    f = TwistedMorphism(a, a, {0: identity_map(mod), 1: f1})
    assert check_morphism(f).ok
    g = invert(f)
    assert g is not None
    assert g.f_map(0) == identity_map(mod)
    assert g.f_map(1) == -f1
    assert compose(g, f) == identity_morphism(a)
    assert compose(f, g) == identity_morphism(a)


def test_tensor_unit_and_units():
    a = two_by_two_complex()
    r = unit_complex(F)
    ta = tensor(a, r)
    assert ta.module.dims == a.module.dims
    for m in a.d:
        assert ta.d_map(m) == a.d[m]
    assert check_twisted(tensor(a, a)).ok


@pytest.mark.parametrize("seed", range(3))
def test_tensor_morphisms_valid(seed):
    rng = random.Random(80 + seed)
    a = _draw(rng)
    b = _draw(rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(b, rng)
    fg = tensor_morphisms(f, g)
    assert check_morphism(fg).ok


def test_internal_hom_unit_and_axioms():
    a = two_by_two_complex()
    r = unit_complex(F)
    h = internal_hom(r, a)
    assert h.module.dims == a.module.dims
    assert check_twisted(h).ok
    rng = random.Random(11)
    b = random_twisted_complex(F, rng, **SHAPE)
    assert b.d
    hom_ab = internal_hom(a, b)
    assert check_twisted(hom_ab).ok  # sum_i (-1)^i d_i d_{m-i} = 0


HOM_SHAPE = dict(cols=(0, 3), verts=(0, 2), max_rank=2, spots=8)


def _ref_internal_hom_d(a, b, mod):
    """d of [A,B] entry by entry over the elementary maps
    ((i, j), source index, target index), the route Kronecker blocks
    replaced, with the Koszul sign of d_m f = d_m^B f - (-1)^{<d_m, f>}
    f d_m^A."""
    field = a.field

    def basis_enum(u, v):
        out = []
        for (i, j) in a.module.support():
            nb = b.module.dim(i + u, j + v)
            if nb:
                for sa in range(a.module.dims[(i, j)]):
                    for tb in range(nb):
                        out.append(((i, j), sa, tb))
        return out

    enums = {uv: basis_enum(*uv) for uv in mod.support()}
    index = {uv: {e: k for k, e in enumerate(enums[uv])} for uv in enums}
    d = {}
    for m in sorted(set(a.d) | set(b.d)):
        blocks = {}
        for (u, v) in mod.support():
            tgt = (u - m, v - m + 1)
            rows, cols = mod.dim(*tgt), mod.dim(u, v)
            if not rows or not cols:
                continue
            mat = Matrix.zero(field, rows, cols)
            s2 = -1 if (m * (u + v) + v) % 2 else 1
            dmb, dma = b.d.get(m), a.d.get(m)
            for cidx, ((i, j), sa, tb) in enumerate(enums[(u, v)]):
                blk = dmb.blocks.get((i + u, j + v)) if dmb else None
                if blk is not None:
                    for tb2 in range(blk.rows):
                        val = blk[tb2, tb]
                        ridx = index[tgt].get(((i, j), sa, tb2))
                        if val and ridx is not None:
                            mat[ridx, cidx] = field.add(mat[ridx, cidx], val)
                i2, j2 = i + m, j + m - 1
                blk = dma.blocks.get((i2, j2)) if dma else None
                if blk is not None:
                    for sa2 in range(blk.cols):
                        val = blk[sa, sa2]
                        ridx = index[tgt].get(((i2, j2), sa2, tb))
                        if val and ridx is not None:
                            sub = val if s2 > 0 else field.neg(val)
                            mat[ridx, cidx] = field.sub(mat[ridx, cidx], sub)
            blocks[(u, v)] = mat
        d[m] = BigradedMap(mod, mod, (-m, -m + 1), blocks)
    return d


@pytest.mark.parametrize("field", [GF(), GF(2), QQ], ids=["F32003", "F2", "QQ"])
@pytest.mark.parametrize("seed", range(3))
def test_internal_hom_matches_entrywise_reference(field, seed):
    rng = random.Random(600 + seed)
    a = random_twisted_complex(field, rng, **HOM_SHAPE)
    b = random_twisted_complex(field, rng, **HOM_SHAPE)
    assert a.d and b.d
    hom = internal_hom(a, b)
    ref = {m: dm for m, dm in _ref_internal_hom_d(a, b, hom.module).items()
           if not dm.is_zero()}
    assert sorted(hom.d) == sorted(ref)
    for m, dm in ref.items():
        assert sorted(hom.d[m].blocks) == sorted(dm.blocks)
        for k, blk in dm.blocks.items():
            assert hom.d[m].blocks[k].data == blk.data


@pytest.mark.parametrize("field", [GF(), GF(2), QQ], ids=["F32003", "F2", "QQ"])
def test_internal_hom_evaluation_is_a_morphism(field):
    """ev: [A,B] (x) A -> B, f (x) a -> f(a), is a strict morphism: this
    pins the Koszul sign of the differential of [A,B]."""
    rng = random.Random(701)
    a = random_twisted_complex(field, rng, **HOM_SHAPE)
    b = random_twisted_complex(field, rng, **HOM_SHAPE)
    assert a.d and b.d
    hom = internal_hom(a, b)
    t = tensor(hom, a)
    blocks = {}
    for (i, j) in t.module.support():
        nb = b.module.dim(i, j)
        mat = Matrix.zero(field, nb, t.module.dim(i, j))
        off = 0
        for (u, v, dl, na) in tensor_summands(hom.module, a.module, i, j):
            # the elementary maps out of A at (p, q), in the row-major
            # order of internal_hom, after those out of lower bidegrees
            p, q = i - u, j - v
            e0 = sum(n * b.module.dim(k[0] + u, k[1] + v)
                     for k, n in a.module.dims.items() if k < (p, q))
            for sa in range(na):
                for tb in range(nb):
                    mat[tb, off + (e0 + sa * nb + tb) * na + sa] = field.one()
            off += dl * na
        blocks[(i, j)] = mat
    ev = BigradedMap(t.module, b.module, (0, 0), blocks)
    assert check_morphism(TwistedMorphism(t, b, {0: ev})).ok


def test_path_r0_trivial_matrix():
    # A = R at (0,0), trivial d: P_0 has (x, z) at (0,0) and y at (0,1);
    # D_0 realizes the matrix [[0,0,0],[-1,0,1],[0,0,0]]: the only block
    # sends (x, z) at (0,0) to -x + z in the middle summand at (0,1)
    mod = BigradedModule(F, {(0, 0): 1})
    a = TwistedComplex(mod, {})
    p = path(a, 0)
    assert p.complex.module.dims == {(0, 0): 2, (0, 1): 1}
    d0 = p.complex.d_map(0)
    assert sorted(d0.blocks) == [(0, 0)]
    blk = d0.block(0, 0)
    assert blk.rows == 1 and blk.cols == 2
    assert blk[0, 0] == F.of_int(-1) and blk[0, 1] == F.of_int(1)


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("seed", range(3))
def test_path_and_its_maps(r, seed):
    rng = random.Random(100 + seed)
    a = _draw(rng)
    p = path(a, r)
    assert check_twisted(p.complex).ok
    for mor in (p.iota, p.p_minus, p.p_plus):
        assert check_morphism(mor).ok
    assert compose(p.p_minus, p.iota) == identity_morphism(a)
    assert compose(p.p_plus, p.iota) == identity_morphism(a)
    assert p.p_zero.bidegree == (r, r - 1)


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("seed", range(3))
def test_path_morphism_functorial(r, seed):
    rng = random.Random(120 + seed)
    a = _draw(rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(a, rng)
    assert path_morphism(identity_morphism(a), r) == \
        identity_morphism(path(a, r).complex)
    assert path_morphism(compose(g, f), r) == \
        compose(path_morphism(g, r), path_morphism(f, r))


def test_path_tensor_lambda_identification():
    # Lambda_r (x) A agrees with P_r(A) under (x,y,z) -> e_- x + u y + e_+ z
    rng = random.Random(13)
    for r in (0, 1, 2):
        a = _draw(rng)
        lam_mod = BigradedModule(F, {(0, 0): 2, (-r, 1 - r): 1})
        # basis order in (0,0): e_-, e_+; u alone in (-r, 1-r)
        dr = BigradedMap(lam_mod, lam_mod, (-r, -r + 1), {
            (0, 0): Matrix.from_rows(F, [[-1, 1]])})
        lam = TwistedComplex(lam_mod, {r: dr})
        assert check_twisted(lam).ok
        la = tensor(lam, a)
        p = path(a, r)
        # the identification is a strict isomorphism: match dims and the
        # twisted axioms transported through it
        assert sorted(la.module.dims.items()) == sorted(p.complex.module.dims.items())
        iso = _lambda_path_iso(lam, a, p)
        for m in sorted(set(la.d) | set(p.complex.d)):
            from multiplex.bigraded import compose as bcompose
            lhs = bcompose(iso, la.d_map(m))
            rhs = bcompose(p.complex.d_map(m), iso)
            assert lhs == rhs


def _lambda_path_iso(lam, a, p):
    """Strict iso Lambda_r (x) A -> P_r(A) matching e_-*x, u*y, e_+*z."""
    from multiplex.bigraded import tensor_summands
    la_mod = tensor_modules(lam.module, a.module)
    field = a.field
    r = p.r
    blocks = {}
    for (i, j) in la_mod.support():
        # target basis: part 0 = A_i^j, part 1 = A_{i+r}^{j+r-1}, part 2 = A_i^j
        n0 = a.module.dim(i, j)
        n1 = a.module.dim(i + r, j + r - 1)
        rows = 2 * n0 + n1
        cols = la_mod.dim(i, j)
        mat = Matrix.zero(field, rows, cols)
        cc = 0
        for (p_, q_, dl, da) in tensor_summands(lam.module, a.module, i, j):
            for l_idx in range(dl):
                for a_idx in range(da):
                    if (p_, q_) == (0, 0) and l_idx == 0:    # e_- (x) x
                        mat[a_idx, cc] = field.one()
                    elif (p_, q_) == (0, 0) and l_idx == 1:  # e_+ (x) z
                        mat[n0 + n1 + a_idx, cc] = field.one()
                    else:                                    # u (x) y
                        mat[n0 + a_idx, cc] = field.one()
                    cc += 1
        blocks[(i, j)] = mat
    return BigradedMap(la_mod, p.complex.module, (0, 0), blocks)


def test_translation():
    rng = random.Random(17)
    a = random_twisted_complex(F, rng)
    for r in (0, 1, 2):
        t = translation(a, r)
        assert check_twisted(t).ok
        for (i, j), n in a.module.dims.items():
            assert t.module.dim(i + r, j + r - 1) == n
    # applying T_0 twice restores the signs of the d_m (module moves by (0,-2))
    t00 = translation(translation(a, 0), 0)
    for m in a.d:
        assert t00.d_map(m) == a.d[m].shifted((0, -2))


@pytest.mark.parametrize("r", [0, 1])
def test_cone_structure(r):
    rng = random.Random(19)
    a = _draw(rng)
    b = _draw(rng)
    z = zero_morphism(a, b)
    c0 = cone(z, r)
    assert check_twisted(c0.complex).ok
    # no cross terms for the zero morphism: block structure is a direct sum
    t = translation(a, r)
    for m in c0.complex.d:
        dm = c0.complex.d_map(m)
        for (i, j), blk in dm.blocks.items():
            na = t.module.dim(i, j)
            nb = b.module.dim(i, j)
            ra = t.module.dim(i - m, j - m + 1)
            for rr in range(ra, ra + b.module.dim(i - m, j - m + 1)):
                for cc in range(na):
                    assert blk[rr, cc] == 0

    f = random_endo_morphism(a, rng)
    c = cone(f, r)
    assert check_twisted(c.complex).ok
    assert check_morphism(c.inclusion).ok
    assert check_morphism(c.projection).ok
    # degreewise exactness of 0 -> A -> C -> T_r(A) -> 0: dims add
    for (i, j) in c.complex.module.support():
        assert c.complex.module.dim(i, j) == \
            a.module.dim(i, j) + t.module.dim(i, j)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_lemma_iota_homotopy(r):
    """iota o p_minus ~_r id on P_r(A) via hhat_0(x,y,z) = (0,0,y)."""
    rng = random.Random(23)
    a = _draw(rng)
    p = path(a, r)
    pc = p.complex
    f = compose(p.iota, p.p_minus)
    g = identity_morphism(pc)
    h0 = _iota_witness(a, p)
    h = RHomotopy(r, f, g, {0: h0})
    assert homotopy_verdict(h)
    # and the shifted witness passes at r+1
    assert homotopy_verdict(shift_homotopy(h))
    # one entry raised where it breaks (H_m) fails on both routes
    assert not homotopy_verdict(corrupt_homotopy(h))


def _iota_witness(a, p):
    """hhat_0: P_r(A) -> P_r(A), (x,y,z) -> (0,0,y), bidegree (r, r-1)."""
    field = a.field
    r = p.r
    pm = p.complex.module
    blocks = {}
    for (i, j) in pm.support():
        n0 = a.module.dim(i, j)
        n1 = a.module.dim(i + r, j + r - 1)
        cols = pm.dim(i, j)
        # target bidegree (i + r, j + r - 1)
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


@pytest.mark.parametrize("r", [0, 1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_solve_r_homotopy_recovers_perturbation(r, seed):
    rng = random.Random(200 + 10 * seed + r)
    a = _draw(rng)
    f = random_endo_morphism(a, rng)
    g, drawn = random_homotopic_pair(f, r, rng)
    assert a.d and drawn.h
    h = solve_r_homotopy(f, g, r)
    assert h is not None
    assert homotopy_verdict(h)
    assert not homotopy_verdict(corrupt_homotopy(drawn))


def test_solve_r_homotopy_reflexive_and_obstructed():
    rng = random.Random(31)
    a = random_twisted_complex(F, rng)
    f = random_endo_morphism(a, rng)
    h = solve_r_homotopy(f, f, 0)
    assert h is not None  # f ~ f via hhat = 0 is always soluble
    # id ~_r 0 forces E_{r+1} = 0; a complex with zero differential and a
    # nonzero module gives an obstruction at every r
    mod = BigradedModule(F, {(0, 0): 1})
    rigid = TwistedComplex(mod, {})
    assert solve_r_homotopy(identity_morphism(rigid),
                            zero_morphism(rigid, rigid), 1) is None


@pytest.mark.parametrize("seed", range(3))
def test_homotopy_equivalence_relation_witnesses(seed):
    rng = random.Random(300 + seed)
    a = _draw(rng)
    f = random_endo_morphism(a, rng)
    r = rng.choice([0, 1, 2])
    g, h = random_homotopic_pair(f, r, rng)
    assert a.d and h.h
    # reflexive
    assert homotopy_verdict(RHomotopy(r, f, f, {}))
    # symmetric: negate the witness
    assert homotopy_verdict(negate_homotopy(h))
    # transitive: add witnesses
    g2, h2 = random_homotopic_pair(g, r, rng)
    assert h2.h
    assert homotopy_verdict(add_homotopies(h, h2))
    # a corrupted witness of the sum fails on both routes
    assert not homotopy_verdict(corrupt_homotopy(add_homotopies(h, h2)))


@pytest.mark.parametrize("seed", range(3))
def test_homotopies_compose_with_morphisms(seed):
    rng = random.Random(400 + seed)
    a = _draw(rng)
    r = rng.choice([0, 1])
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, r, rng)
    f2 = random_endo_morphism(a, rng)
    g2, h2 = random_homotopic_pair(f2, r, rng)
    assert a.d and h.h and h2.h
    assert solve_r_homotopy(compose(f2, f), compose(g2, g), r) is not None


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("seed", range(3))
def test_cone_pair_roundtrip(r, seed):
    rng = random.Random(500 + seed)
    a = _draw(rng)
    w = random_null_homotopic_map(a, a, rng)
    assert a.d and w.f
    c = cone(w, r)
    # build tau from a pair: f with f o w null-homotopic; simplest is f with
    # f o w = 0 via f = 0, plus a nonzero one from dU + Ud structure
    x = a
    f = zero_morphism(a, x)
    h = RHomotopy(r, compose(f, w), zero_morphism(a, x), {})
    tau = pair_to_cone(f, h, c)
    f2, h2 = cone_to_pair(tau, c)
    assert f2 == f
    tau2 = pair_to_cone(f2, h2, c)
    assert tau2 == tau
    # a nontrivial tau: project to B then map by any morphism B -> X
    g = random_endo_morphism(a, rng)
    tau3 = compose(g, _cone_proj_b(c))
    f3, h3 = cone_to_pair(tau3, c)
    assert homotopy_verdict(h3)
    assert pair_to_cone(f3, h3, c) == tau3
    # sign check: hhat_m(a) = (-1)^m tau_m(a, 0)
    for m, tm in tau3.f.items():
        from multiplex.bigraded import compose as bcompose
        from multiplex.bigraded import direct_sum, shift_into
        into_ta = shift_into(a.module, (r, r - 1))
        _, (inc_a, _), _ = direct_sum([a.module.shifted((r, r - 1)), a.module])
        expect = bcompose(tm, bcompose(inc_a, into_ta))
        if m % 2:
            expect = -expect
        assert h3.h_map(m) == expect


def test_pair_to_cone_decides_f():
    """pair_to_cone decides (B_m) of f: for a non-morphism g, the identity
    of a REF_SHAPES[1] draw with one entry of a block under a nonzero d_0
    raised, and the zero witness of g o 0 ~_1 0 (which used to give a tau
    failing (B_m), with no error), it raises ValueError."""
    a = random_twisted_complex(F, random.Random(2500), **REF_SHAPES[1])
    assert 0 in a.d
    g = bumped_identity(a)
    w = zero_morphism(a, a)
    h = RHomotopy(1, compose(g, w), zero_morphism(a, a), {})
    with pytest.raises(ValueError, match=r"^twisted morphism conditions "
                                         r"\(B_m\): FAILED"):
        pair_to_cone(g, h, cone(w, 1))


def _cone_proj_b(c):
    """tau = pair_to_cone(id_B, h): C_r(w) -> B with h: w ~_r 0 solved
    for; skips the test when w is not r-null-homotopic."""
    from multiplex.twisted import identity_morphism as idm
    from multiplex.twisted import solve_r_homotopy as solve
    b = c.w.dst
    f = idm(b)
    h = solve(compose(f, c.w), zero_morphism(c.w.src, b), c.r)
    if h is None:
        import pytest as _pytest
        _pytest.skip("w is not null-homotopic on this instance")
    return pair_to_cone(f, h, c)


# ---------------------------------------------------------------------------
# the checkers decide on Tot; the block-by-block sums are the reference
# ---------------------------------------------------------------------------

FIELDS = [GF(), GF(5), GF(2), QQ]
FIELD_IDS = ["F32003", "F5", "F2", "QQ"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", [0, 1])
def test_constructions_keep_the_axioms(field, shape):
    """The constructions decide nothing about what they build from inputs
    that satisfy their axioms; this test decides it.  On REF_SHAPES draws
    A and B with a nonzero d_m, m >= 1, an endomorphism e and an
    automorphism of A, a null-homotopic w: A -> B and r = 0..2: [A,B],
    T_r(A), P_r(A) and C_r(w) are twisted complexes; composites, inverses,
    tensor products, iota, p+-, P_r(w), the cone's inclusion and
    projection, pair_to_cone's tau and cone_to_pair's f are morphisms;
    shift_homotopy's and cone_to_pair's witnesses satisfy (H_m); Tot of a
    morphism is a chain map, and tot_inverse of a split filtered complex
    with d^2 = 0 satisfies (A_m).  (tensor and solve_r_homotopy are
    decided in test_tensor_matches_dense_sum and
    test_homotopy_sums_match_dense_route, the cone Tot of the detector in
    test_tot_cone_matches_tot_of_the_bigraded_cone.)"""
    rng = random.Random(7300 + shape)
    a, b = _draw(rng, field, shape), _draw(rng, field, shape)
    ka, kb = tot(a), tot(b)
    e = random_endo_morphism(a, rng, ka)
    w = random_null_homotopic_map(a, b, rng, ka, kb)
    assert e.f and w.f
    complexes = [internal_hom(a, b)]
    morphisms = [compose(w, e), invert(random_automorphism(a, rng, ka)),
                 tensor_morphisms(e, w)]
    homotopies = []
    for r in range(3):
        p, c = path(a, r), cone(w, r)
        complexes += [translation(a, r), p.complex, c.complex]
        morphisms += [p.iota, p.p_minus, p.p_plus, path_morphism(w, r),
                      c.inclusion, c.projection]
        homotopies.append(shift_homotopy(random_homotopic_pair(e, r, rng)[1]))
        # h: v ~_r 0 makes (1_B, h) a pair for the cone of v
        v, h0 = random_homotopic_pair(zero_morphism(a, b), r, rng)
        assert v.f and h0.h
        cv = cone(v, r)
        tau = pair_to_cone(identity_morphism(b), negate_homotopy(h0), cv)
        f2, h2 = cone_to_pair(compose(random_endo_morphism(b, rng), tau), cv)
        morphisms += [tau, f2]
        homotopies.append(h2)
    for x in complexes:
        assert check_twisted(x).ok
    for x in morphisms:
        assert check_morphism(x).ok
    for h in homotopies:
        assert check_r_homotopy(h).ok
    assert tot_morphism(e, ka, ka).check_chain_map().ok
    assert tot_morphism(w, ka, kb).check_chain_map().ok
    back = tot_inverse(random_filtered_complex(field, rng,
                                               **REF_SHAPES[shape]))
    assert any(m >= 1 for m in back.d) and check_twisted(back).ok


def _same_report(obj):
    """The Tot-route report of obj, asserted equal to the block route's;
    for a complex, also when check_twisted reads the D^n off tot(obj)."""
    if isinstance(obj, TwistedComplex):
        rep, ref = check_twisted(obj), check_twisted_blockwise(obj)
        assert check_twisted(obj, tot(obj)).to_dict() == ref.to_dict()
    else:
        rep, ref = check_morphism(obj), check_morphism_blockwise(obj)
    assert rep.to_dict() == ref.to_dict()
    return rep


def _spots(src, dst, bidegree):
    """Source bidegrees where a map of this bidegree has a nonempty block."""
    p, q = bidegree
    return [(i, j) for (i, j) in sorted(src.dims) if dst.dim(i + p, j + q)]


def _bumped(bmap, locs, rng):
    """bmap with one entry raised by 1 in the block at each source bidegree
    of locs (the entry drawn by rng)."""
    field = bmap.field
    p, q = bmap.bidegree
    blocks = dict(bmap.blocks)
    for (i, j) in locs:
        blk = bmap.block(i, j).copy()
        r, c = rng.randrange(blk.rows), rng.randrange(blk.cols)
        blk[r, c] = field.add(blk[r, c], field.one())
        blocks[(i, j)] = blk
    return BigradedMap(bmap.src, bmap.dst, bmap.bidegree, blocks)


def _bump_d(a, m, locs, rng):
    d = dict(a.d)
    d[m] = _bumped(a.d_map(m), locs, rng)
    return TwistedComplex(a.module, d)


def _bump_f(f, m, locs, rng):
    comps = dict(f.f)
    comps[m] = _bumped(f.f_map(m), locs, rng)
    return TwistedMorphism(f.src, f.dst, comps)


def _complex(field, seed):
    """A random complex on most of the spots (i, i + k), i = 0..4, k = 0..2,
    with d_m for m = 0..4."""
    return random_twisted_complex(field, random.Random(seed), cols=(0, 4),
                                  verts=(0, 2), max_rank=2, spots=30)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("seed", range(3))
def test_tot_checkers_match_blockwise_random(field, seed):
    rng = random.Random(100 + seed)
    a = _complex(field, seed)
    assert _same_report(a).ok
    f = random_endo_morphism(a, rng)
    assert _same_report(f).ok
    assert _same_report(random_automorphism(a, rng)).ok
    b = _complex(field, seed + 10)
    assert _same_report(random_null_homotopic_map(a, b, rng)).ok
    assert _same_report(compose(f, f)).ok


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_tot_checkers_match_blockwise_between_modules(field, r):
    rng = random.Random(r)
    a = _complex(field, 3)
    f = random_endo_morphism(a, rng)
    c = cone(f, r)
    p = path(a, r)
    maps = [c.inclusion, c.projection, p.iota, p.p_minus, p.p_plus,
            path_morphism(f, r)]
    assert _same_report(c.complex).ok and _same_report(p.complex).ok
    failed = 0
    for g in maps:
        assert _same_report(g).ok
        # a perturbed f_m of a map between different modules
        for m in range(3):
            spots = _spots(g.src.module, g.dst.module, (-m, -m))
            if spots:
                failed += not _same_report(
                    _bump_f(g, m, [spots[rng.randrange(len(spots))]],
                            rng)).ok
    assert failed


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_checkers_match_blockwise_empty(field):
    zero = TwistedComplex(BigradedModule(field, {}), {})
    mod = BigradedModule(field, {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    bare = TwistedComplex(mod, {})
    a = _complex(field, 4)
    for x in (zero, bare):
        assert str(_same_report(x)) == \
            "twisted complex axioms (A_m): ok (0 conditions)"
    for g in (identity_morphism(zero), zero_morphism(zero, a),
              zero_morphism(a, zero), identity_morphism(bare),
              zero_morphism(a, a)):
        assert _same_report(g).ok
    # f_0 and f_1 with no d on either side: no condition to check
    rng = random.Random(4)
    g = _bump_f(_bump_f(identity_morphism(bare), 0, [(0, 1)], rng), 1,
                [(1, 1)], rng)
    assert str(_same_report(g)) == \
        "twisted morphism conditions (B_m): ok (0 conditions)"
    # d on one side only: (B_m) is -(-1)^i f_i d_j^A, or d_i^B f_j
    spots = _spots(a.module, mod, (0, 0))
    assert spots
    _same_report(_bump_f(zero_morphism(a, bare), 0, spots, rng))
    _same_report(_bump_f(zero_morphism(bare, a), 0, spots, rng))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_checkers_single_block_perturbations(field):
    a = _complex(field, 5)
    f = random_endo_morphism(a, random.Random(5))
    rng = random.Random(6)
    failed_at = {"A": set(), "B": set()}
    for m in range(5):
        for loc in _spots(a.module, a.module, (-m, -m + 1)):
            rep = _same_report(_bump_d(a, m, [loc], rng))
            failed_at["A"] |= {loc[0] for loc, _ in rep.failures}
        for loc in _spots(a.module, a.module, (-m, -m)):
            rep = _same_report(_bump_f(f, m, [loc], rng))
            failed_at["B"] |= {loc[0] for loc, _ in rep.failures}
    assert failed_at["A"] >= {0, 1, 2, 3, 4}
    assert failed_at["B"] >= {0, 1, 2, 3, 4}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_tot_checkers_record_cap_and_order(field):
    # eight columns, so that (m, i, j) has room for more than 16 failures
    a = random_twisted_complex(field, random.Random(1), cols=(0, 7),
                               verts=(0, 2), max_rank=2, spots=60)
    f = random_endo_morphism(a, random.Random(7))
    rng = random.Random(8)
    bad_a, bad_f = a, f
    for m in range(5):
        bad_a = _bump_d(bad_a, m, _spots(a.module, a.module, (-m, -m + 1)),
                        rng)
        bad_f = _bump_f(bad_f, m, _spots(a.module, a.module, (-m, -m)), rng)
    for rep in (_same_report(bad_a), _same_report(bad_f)):
        assert rep.failure_count > 16 and len(rep.failures) == 16
        locs = [loc for loc, _ in rep.failures]
        assert locs == sorted(locs)
        # more failing blocks than conditions: the summary counts the
        # failures in the conditions, not out of them
        assert rep.failure_count > rep.checked
        lines = str(rep).splitlines()
        assert lines[0] == (f"{rep.subject}: FAILED ({rep.failure_count} "
                            f"failures in {rep.checked} conditions)")
        assert lines[-1] == f"  ... {rep.failure_count - 16} more"
    if field == GF():
        assert str(_same_report(bad_a)).splitlines()[0] == (
            "twisted complex axioms (A_m): FAILED "
            "(28 failures in 15 conditions)")


def test_report_summary_line():
    rep = Report("axioms")
    rep.tick(3)
    assert str(rep) == "axioms: ok (3 conditions)"
    rep.fail((1, 0, 0), "broken")
    assert str(rep) == ("axioms: FAILED (1 failure in 3 conditions)\n"
                        "  at (1, 0, 0): broken")
    assert rep.to_dict()["failure_count"] == 1


# ---------------------------------------------------------------------------
# tensor, (H_m) and the homotopy solver sum in MapSum; the dense sums they
# replaced are the reference, entry by entry
# ---------------------------------------------------------------------------

def _dense_tensor(a, b):
    """The differential of A (x) B, added densely m by m."""
    mod = tensor_modules(a.module, b.module)
    ida, idb = identity_map(a.module), identity_map(b.module)
    d = {}
    for m in sorted(set(a.d) | set(b.d)):
        dm = zero_map(mod, mod, (-m, -m + 1))
        if m in a.d:
            dm = dm + tensor_maps(a.d[m], idb)
        if m in b.d:
            dm = dm + tensor_maps(ida, b.d[m])
        if not dm.is_zero():
            d[m] = dm
    return d


def _dense_homotopy_lhs(h, m):
    a, b, r = h.src, h.dst, h.r
    acc = zero_map(a.module, b.module, (-m + r, -m + r))
    for i, di in b.d.items():
        if m - i in h.h:
            term = bcompose(di, h.h[m - i])
            acc = acc + (term if (i + r) % 2 == 0 else -term)
    for i, hi in h.h.items():
        if m - i in a.d:
            term = bcompose(hi, a.d[m - i])
            acc = acc + (term if i % 2 == 0 else -term)
    return acc


def _dense_hm_report(h):
    """The (H_m) part of check_r_homotopy, each defect a dense sum."""
    rep = Report(f"{h.r}-homotopy conditions (H_m)")
    r = h.r
    ms = {i + j for i in h.dst.d for j in h.h} \
        | {i + j for i in h.h for j in h.src.d} \
        | {m + r for m in set(h.f.f) | set(h.g.f)}
    for m in sorted(ms):
        lhs = _dense_homotopy_lhs(h, m)
        if m >= r:
            lhs = lhs - (h.g.f_map(m - r) - h.f.f_map(m - r))
        rep.tick()
        for loc in sorted(lhs.blocks):
            rep.fail((m,) + loc, f"(H_{m}) fails on the block at {loc}")
    return rep


def _same_map(got, ref):
    """Equal modules, bidegree, block keys, entries and entry types."""
    assert (got.src, got.dst, got.bidegree) == (ref.src, ref.dst, ref.bidegree)
    assert got.blocks.keys() == ref.blocks.keys()
    for key, m in ref.blocks.items():
        g = got.blocks[key]
        assert (g.rows, g.cols, g.data) == (m.rows, m.cols, m.data), key
        assert [type(x) for x in g.data] == [type(x) for x in m.data], key


def _bump_h(h, rng):
    """h with one entry raised by 1 in every block of every hhat_m."""
    return RHomotopy(h.r, h.f, h.g, {
        m: _bumped(hm, sorted(hm.blocks), rng) for m, hm in h.h.items()})


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("shape", [0, 1])
def test_tensor_matches_dense_sum(field, shape):
    rng = random.Random(7100 + shape)
    a, b = _draw(rng, field, shape), _draw(rng, field, shape)
    for x, y in ((a, b), (b, a), (a, a)):
        t, ref = tensor(x, y), _dense_tensor(x, y)
        assert t.d.keys() == ref.keys() and any(m >= 1 for m in ref)
        assert check_twisted(t).ok
        for m in ref:
            _same_map(t.d[m], ref[m])


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_homotopy_sums_match_dense_route(field, r):
    """homotopy_lhs and the (H_m) report of check_r_homotopy against the
    dense sums, on valid witnesses f ~_r g between REF_SHAPES draws, the
    endomorphism case and the case A != B, and on witnesses corrupted in
    one entry or in every block: the failures, their locations and their
    order are the same, and the r-path route gives each verdict too.
    solve_r_homotopy finds a witness for each valid pair, which both
    routes accept."""
    rng = random.Random(7200 + r)
    compared = failed = 0
    for shape in (0, 1):
        a, b = _draw(rng, field, shape), _draw(rng, field, shape)
        for f in (random_endo_morphism(a, rng),
                  random_null_homotopic_map(a, b, rng)):
            g, h = random_homotopic_pair(f, r, rng)
            assert h.h and any(m >= 1 for m in f.dst.d)
            for cand in (h, corrupt_homotopy(h), _bump_h(h, rng)):
                ms = {i + j for i in cand.dst.d for j in cand.h} \
                    | {i + j for i in cand.h for j in cand.src.d}
                for m in sorted(ms):
                    _same_map(homotopy_lhs(cand, m),
                              _dense_homotopy_lhs(cand, m))
                rep = check_r_homotopy(cand)
                assert rep.to_dict() == _dense_hm_report(cand).to_dict()
                assert homotopy_verdict(cand) is rep.ok
                compared += 1
                failed += not rep.ok
            solved = solve_r_homotopy(f, g, r)
            assert solved is not None and homotopy_verdict(solved)
    assert compared == 12 and 4 <= failed < compared
