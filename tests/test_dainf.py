import json
import random
from itertools import product as iproduct

import pytest

from conftest import (
    BAD_ALGEBRAS, assemble_into_path_dainf, assert_canonical,
    corrupt_dainf_homotopy, dainf_homotopy_verdict,
    hom_one_map_one, homotopy_verdict, invert_strict_iso, subpower_tree,
)

from multiplex import io as mio
from multiplex.bigraded import (
    BigradedMap, BigradedModule, MapSum, SparseMap, _concat_tables,
    _summand_table, compose as bcompose, identity_map, node, power_module, power_tree,
    tensor_maps, tensor_modules, tree_basis, tree_iso,
)
from multiplex.cli import main
from multiplex.dainf import (
    DAInfAlgebra, DAInfHomotopy, DAInfMorphism, TwistedDga, _hmk_buckets,
    _reachable_u, _sumset, bar_power, check_dainf,
    check_dainf_morphism, collapse_after,
    component_tensor, compose_dainf, diagonal_delta, identity_dainf,
    invert_dainf, is_er_quasi_iso_dainf, iterated_mu, lambda_ident_inverse,
    lambda_ident_iso, lambda_r_dga, path_dainf, path_dainf_morphism, tensor_dga_morphism, tensor_twisted_dga,
    underlying_twisted, underlying_twisted_morphism, unit_dga,
    zero_dainf_morphism,
)
from multiplex.generators import (
    dainf_morphism_space, random_dainf_morphism, random_twisted_complex,
    random_zero_product_dainf,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.reports import Report
from multiplex.signs import (
    compose_sign, compose_sign_step, homotopy_beta, homotopy_sum1_sign,
    structure_sign,
)
from multiplex.twisted import check_morphism as check_twisted_morphism
from multiplex.twisted import check_twisted
from multiplex.twisted import compose as twisted_compose
from multiplex.twisted import path as twisted_path

F = GF()


def small_zero_product(seed=5, **kw):
    rng = random.Random(seed)
    kw.setdefault("cols", (0, 2))
    kw.setdefault("verts", (0, 2))
    kw.setdefault("max_rank", 2)
    kw.setdefault("spots", 3)
    return random_zero_product_dainf(F, rng, **kw)


# ---------------------------------------------------------------------------
# axioms
# ---------------------------------------------------------------------------

def test_zero_structure_valid():
    mod = BigradedModule(F, {(0, 0): 2, (1, 2): 1})
    assert check_dainf(DAInfAlgebra(mod, {})).ok


def test_m01_square_detected():
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1, (0, 2): 1})
    m01 = BigradedMap(mod, mod, (0, 1), {
        (0, 0): Matrix.identity(F, 1), (0, 1): Matrix.identity(F, 1)})
    rep = check_dainf(DAInfAlgebra(mod, {(0, 1): m01}))
    assert not rep.ok
    assert rep.failures[0][0][:2] == (0, 1)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_lambda_r(r):
    lam = lambda_r_dga(r, F)
    assert check_dainf(lam.algebra).ok
    assert lam.algebra.module.dims == {(0, 0): 2, (-r, 1 - r): 1}
    # product table: e_-e_- = e_-, e_-u = u = ue_+, ue_- = 0 = e_+u
    m02 = lam.algebra.m_map(0, 2)
    mod = lam.algebra.module
    e_bid, u_bid = (0, 0), (-r, 1 - r)
    vals = _dga_product_table(mod, m02, r)
    assert vals[("e-", "e-")] == {"e-": 1}
    assert vals[("e+", "e+")] == {"e+": 1}
    assert vals[("e-", "e+")] == {}
    assert vals[("e+", "e-")] == {}
    assert vals[("e-", "u")] == {"u": 1}
    assert vals[("u", "e+")] == {"u": 1}
    assert vals[("u", "e-")] == {}
    assert vals[("e+", "u")] == {}
    # differential: e_- -> -u, e_+ -> u
    mr1 = lam.algebra.m_map(r, 1).block(0, 0)
    assert mr1.to_rows() == [[F.of_int(-1), F.one()]]
    # boundary morphisms
    assert compose_dainf(lam.p_minus, lam.iota) == identity_dainf(unit_dga(F))
    assert compose_dainf(lam.p_plus, lam.iota) == identity_dainf(unit_dga(F))


def _dga_product_table(mod, m02, r):
    e_bid, u_bid = (0, 0), (-r, 1 - r)

    def label(bid, idx):
        if bid == e_bid:
            return "e-" if idx == 0 else "e+"
        return "u"

    t2 = power_tree(mod, 2)
    out = {}
    for (i, j) in m02.src.support():
        basis = tree_basis(t2, i, j)
        blk = m02.block(i, j)
        for cc, (lf, rt) in enumerate(basis):
            key = (label(lf[:2], lf[2]), label(rt[:2], rt[2]))
            entry = {}
            for rr in range(blk.rows):
                v = blk[rr, cc]
                if v:
                    entry[label((i, j), rr)] = v
            out[key] = entry
    return out


def test_iterated_mu_lambda0():
    lam = lambda_r_dga(0, F)
    mu3 = iterated_mu(lam.algebra, 3)
    # mu_3(e_-, e_-, u) = u
    mod = lam.algebra.module
    t3 = power_tree(mod, 3)
    basis = tree_basis(t3, 0, 1)
    target = ((0, 0, 0), (0, 0, 0), (0, 1, 0))  # e_-, e_-, u
    cc = basis.index(target)
    blk = mu3.block(0, 1)
    col = [blk[rr, cc] for rr in range(blk.rows)]
    assert col == [F.one()]


@pytest.mark.parametrize("r", [0, 1, 2])
def test_iterated_mu_leibniz(r):
    # m_{r1}(mu_3) = sum mu_3(1^s (x) m_{r1} (x) 1^t)
    lam = lambda_r_dga(r, F)
    alg = lam.algebra
    mu3 = iterated_mu(alg, 3)
    lhs = bcompose(alg.m_map(r, 1), mu3)
    rhs = None
    for s in range(3):
        term = bcompose(mu3, hom_one_map_one(alg.m_map(r, 1), alg.module,
                                             s, 2 - s, 1))
        rhs = term if rhs is None else rhs + term
    assert lhs == rhs


# ---------------------------------------------------------------------------
# morphisms: linear sampling, composition, inversion
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(3))
def test_random_morphisms_are_valid(seed):
    a = small_zero_product(seed)
    rng = random.Random(40 + seed)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    assert check_dainf_morphism(f).ok
    g = random_dainf_morphism(a, a, rng, space=space, with_identity=True)
    assert check_dainf_morphism(g).ok


def test_identity_and_strict_composition():
    a = small_zero_product(1)
    i = identity_dainf(a)
    assert check_dainf_morphism(i).ok
    assert compose_dainf(i, i) == i
    two = DAInfMorphism(a, a, {(0, 1): identity_map(a.module).scale(F.of_int(2))})
    three = DAInfMorphism(a, a, {(0, 1): identity_map(a.module).scale(F.of_int(3))})
    assert compose_dainf(two, three).f_map(0, 1) == \
        identity_map(a.module).scale(F.of_int(6))


# rank-1 and rank-2 spots for every seed; rank-2 seed 0 (arity-8 double
# composites) takes about 0.4 s: 5.5 s while its bar powers regrouped their
# columns through cold _tree_iso builds over every word of the left powers
# and its classes were written out densely for add_compose to scan
@pytest.mark.parametrize("seed, max_rank", [
    (0, 1), (1, 1), (2, 1), (3, 1), (0, 2), (1, 2), (2, 2), (3, 2),
], ids=["0", "1", "2", "3", "0-rank2", "1-rank2", "2-rank2", "3-rank2"])
def test_compose_associative_and_unital(seed, max_rank):
    a = small_zero_product(seed + 10, max_rank=max_rank)
    rng = random.Random(50 + seed)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    g = random_dainf_morphism(a, a, rng, space=space)
    h = random_dainf_morphism(a, a, rng, space=space)
    i = identity_dainf(a)
    assert compose_dainf(f, i) == f
    assert compose_dainf(i, f) == f
    # the double composites reach arity 8; compare them without re-running
    # the axiom checker (single compositions above stay fully checked)
    lhs = compose_dainf(h, compose_dainf(g, f), check=False)
    rhs = compose_dainf(compose_dainf(h, g), f, check=False)
    assert lhs == rhs
    # U intertwines composition
    uf = underlying_twisted_morphism(f)
    ug = underlying_twisted_morphism(g)
    assert underlying_twisted_morphism(compose_dainf(g, f)) == \
        twisted_compose(ug, uf)


@pytest.mark.parametrize("seed", range(8))
def test_compose_associative_rank2(seed):
    # rank-2 spots; g of arity 1 keeps the double composites at arity 4
    a = small_zero_product(seed + 10, max_rank=2)
    rng = random.Random(80 + seed)
    space2 = dainf_morphism_space(a, a, max_arity=2)
    space1 = dainf_morphism_space(a, a, max_arity=1)
    f = random_dainf_morphism(a, a, rng, space=space2, density=1.0)
    g = random_dainf_morphism(a, a, rng, space=space1, density=1.0)
    h = random_dainf_morphism(a, a, rng, space=space2, density=1.0)
    gf = compose_dainf(g, f, check=False)
    hg = compose_dainf(h, g, check=False)
    assert check_dainf_morphism(gf).ok
    assert check_dainf_morphism(hg).ok
    lhs = compose_dainf(h, gf, check=False)
    assert lhs == compose_dainf(hg, f, check=False)
    assert lhs.f


@pytest.mark.parametrize("seed", range(3))
def test_invert(seed):
    # total degrees in [-1, 0] kill every arity >= 3 (the vertical window
    # closes), so triangular inverses stay finite; the base seed gives
    # draws whose f and inverse have arity-2 components
    a = small_zero_product(seed + 45, max_rank=1, verts=(-1, 0), spots=8)
    rng = random.Random(60 + seed)
    assert invert_dainf(identity_dainf(a)) == identity_dainf(a)
    two = DAInfMorphism(a, a, {(0, 1): identity_map(a.module).scale(F.of_int(2))})
    half = invert_dainf(two)
    assert half.f_map(0, 1) == identity_map(a.module).scale(F.inv(F.of_int(2)))
    space = dainf_morphism_space(a, a, max_arity=2)
    # keep f_{01} = id so the morphism is invertible by the block criterion
    perturb = [el for el in space if (0, 1) not in el]
    f = random_dainf_morphism(a, a, rng, space=perturb, with_identity=True)
    g = invert_dainf(f)
    assert g is not None
    assert any(j >= 2 for (_, j) in f.f) and any(j >= 2 for (_, j) in g.f)
    assert compose_dainf(f, g, check=False) == identity_dainf(a)
    assert compose_dainf(g, f, check=False) == identity_dainf(a)
    if not a.module.is_zero():
        assert invert_dainf(zero_dainf_morphism(a, a)) is None


def _memo_infos():
    """cache_info() of every functools.cache memo in the package."""
    import multiplex.bigraded
    import multiplex.cli
    import multiplex.twisted
    return {f"{mod.__name__}.{name}": fn.cache_info()
            for mod in (multiplex.bigraded, multiplex.cli, multiplex.dainf,
                        multiplex.twisted)
            for name, fn in vars(mod).items() if hasattr(fn, "cache_info")}


# the constants of P_r(A), built once per (module, r[, j])
PATH_MEMOS = ("multiplex.dainf._path_tj", "multiplex.dainf.lambda_ident_iso",
              "multiplex.dainf._ident_inverse_power",
              "multiplex.twisted.path_structure_maps")


def test_repeated_dainf_calls_add_no_memo_entries():
    # the memos are keyed by module, left-power shape and tree shape, and
    # Lambda_r by (r, field), so a second identical composition, inversion
    # or r-path finds everything it needs in them
    rng = random.Random(51)
    a = random_zero_product_dainf(F, rng, cols=(0, 1), verts=(0, 2),
                                  max_rank=1, spots=60)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space, density=1.0)
    g = random_dainf_morphism(a, a, rng, space=space, density=1.0)
    b = random_zero_product_dainf(F, rng, cols=(0, 0), verts=(-1, 0),
                                  max_rank=3, spots=20)
    perturb = [el for el in dainf_morphism_space(b, b, max_arity=2)
               if (0, 1) not in el]
    e = random_dainf_morphism(b, b, rng, space=perturb, density=1.0,
                              with_identity=True)
    lam = lambda_r_dga(1, F).algebra
    path_hits = dict.fromkeys(PATH_MEMOS, 0)
    for run in (lambda: compose_dainf(g, f), lambda: invert_dainf(e),
                lambda: path_dainf(lam, 1), lambda: path_dainf(a, 2)):
        first = run()
        before = _memo_infos()
        assert run() == first
        after = _memo_infos()
        assert {k: (i.misses, i.currsize) for k, i in after.items()} == \
            {k: (i.misses, i.currsize) for k, i in before.items()}
        assert sum(i.hits for i in after.values()) > \
            sum(i.hits for i in before.values())
        for name in PATH_MEMOS:
            path_hits[name] += after[name].hits - before[name].hits
    # the second r-path of Lambda_1 (which has a product, so t_2) and of
    # a reads every constant of the path from the memos
    assert all(path_hits.values()), path_hits
    assert {"multiplex.bigraded._tree_iso", "multiplex.bigraded.tree_basis",
            "multiplex.bigraded._insertion_table",
            "multiplex.bigraded._concat_tables",
            "multiplex.bigraded._power_profiles",
            "multiplex.bigraded.power_module",
            "multiplex.dainf.lambda_r_dga",
            "multiplex.dainf.lambda_ident_inverse", *PATH_MEMOS} <= set(before)
    # each of them was read: the runs above insert, regroup and build powers
    assert all(before[name].hits > 0 for name in (
        "multiplex.bigraded._insertion_table",
        "multiplex.bigraded._concat_tables",
        "multiplex.bigraded._power_profiles"))
    assert before["multiplex.dainf.lambda_r_dga"].hits > 0


# ---------------------------------------------------------------------------
# tensor with a twisted dga, paths
# ---------------------------------------------------------------------------

def test_tensor_with_unit_is_identity():
    a = small_zero_product(3)
    t = tensor_twisted_dga(unit_dga(F), a)
    assert t.module.dims == a.module.dims
    for key in a.m:
        assert t.m_map(*key) == a.m[key]


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_path_dainf_matches_tensor_construction(r):
    # path_dainf itself builds both routes and compares them blockwise
    a = small_zero_product(4)
    p = path_dainf(a, r)
    assert check_dainf(p.algebra).ok
    # decided on the path algebra only, and implied for Lambda_r (x) A
    assert check_dainf(p.tensor_algebra).ok
    assert compose_dainf(p.p_minus, p.iota) == identity_dainf(a)
    assert compose_dainf(p.p_plus, p.iota) == identity_dainf(a)
    # underlying twisted complex is the twisted path
    tp = twisted_path(underlying_twisted(a), r)
    up = underlying_twisted(p.algebra)
    assert up == tp.complex


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_lambda_ident_inverse_matches_reference(field, r):
    """The placed inverse of Lambda_r (x) A = A (+) A[mid] (+) A is the
    inverse by elimination, and both composites are identities.  The shift
    of A[mid] lands on bidegrees of A, so blocks mix summands."""
    a_mod = BigradedModule(field, {(0, 0): 2, (1, 0): 1, (1, 1): 3,
                                   (2, 1): 1, (2, 2): 2, (3, 3): 1})
    iso = lambda_ident_iso(a_mod, r)
    inv = lambda_ident_inverse(a_mod, r)
    assert inv == invert_strict_iso(iso)
    assert bcompose(inv, iso) == identity_map(iso.src)
    assert bcompose(iso, inv) == identity_map(iso.dst)


@pytest.mark.parametrize("r", [0, 1])
def test_path_dainf_with_products(r):
    # Lambda_s is itself a dA-infinity algebra with a product; its path
    # exercises the arity-2 middle sign (-1)^{rj+i+j} and t_j
    lam1 = lambda_r_dga(1, F)
    p = path_dainf(lam1.algebra, r)
    assert check_dainf(p.algebra).ok


def _path_argv(tmp_path, field, a, r):
    """The argv of `path --dainf` on a written as "A", and its -o path."""
    doc = tmp_path / "a.json"
    doc.write_text(mio.document_json(field, {"A": mio.dump_dainf(field, a)}))
    out = tmp_path / "out.json"
    return ["path", str(doc), "-r", str(r), "--dainf", "-o", str(out)], out


@pytest.mark.parametrize("bad", sorted(BAD_ALGEBRAS))
@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_path_dainf_rejects_failing_relations(bad, field, r, tmp_path,
                                              capsys):
    # the routes agree on a structure that fails (A_uv), and P_r(A) and
    # Lambda_r (x) A fail it with A; `path --dainf` decides it on A and
    # refuses, with the report on stdout and no document written
    a = BAD_ALGEBRAS[bad](field)
    rep = check_dainf(a)
    assert not rep.ok
    assert not check_dainf(tensor_twisted_dga(lambda_r_dga(r, field).algebra,
                                              a)).ok
    assert not check_dainf(path_dainf(a, r).algebra).ok
    argv, out = _path_argv(tmp_path, field, a, r)
    assert main(argv) == 1
    assert capsys.readouterr() == (f"{rep}\n", "")
    assert not out.exists()


@pytest.mark.parametrize("r", [0, 1, 2])
def test_path_dainf_decides_relations_once(r, tmp_path, monkeypatch):
    """`path --dainf` decides (A_uv) once, on the algebra it reads, and no
    axiom of the path it writes."""
    import multiplex.cli as cli
    import multiplex.dainf as dainf
    calls = []

    def counting(checker):
        def run(obj):
            calls.append((checker.__name__, obj))
            return checker(obj)
        return run

    for owner in (cli, dainf):
        for checker in (check_dainf, check_dainf_morphism):
            monkeypatch.setattr(owner, checker.__name__, counting(checker))
    for a in (lambda_r_dga(1, F).algebra, small_zero_product(4)):
        calls.clear()
        argv, out = _path_argv(tmp_path, F, a, r)
        assert main(argv) == 0 and out.exists()
        assert [(name, obj.module) for name, obj in calls] == \
            [("check_dainf", a.module)]


@pytest.mark.parametrize("field", [F, QQ], ids=str)
def test_path_dainf_equal_for_a_loaded_copy(field):
    # the path constants are memoized by module equality: the r-path of
    # an equal algebra read back from the document is built from the
    # entries the first call made, and must equal the first
    lam = lambda_r_dga(0, field).algebra
    a = tensor_twisted_dga(lam, lambda_r_dga(1, field).algebra)
    text = mio.document_json(field, {"A": mio.dump_dainf(field, a)})
    _, b = mio.load_document(json.loads(text)).select("A", DAInfAlgebra)
    assert b == a and b.module is not a.module
    for r in range(3):
        pa = path_dainf(a, r)
        pb = path_dainf(b, r)
        assert pb == pa
        assert check_dainf(pb.algebra).ok


@pytest.mark.parametrize("r", [0, 1, 2])
def test_path_dainf_morphism(r):
    a = small_zero_product(6)
    rng = random.Random(70 + r)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    g = random_dainf_morphism(a, a, rng, space=space)
    pa = path_dainf(a, r)
    pf = path_dainf_morphism(f, r, pa, pa)
    assert check_dainf_morphism(pf).ok
    assert path_dainf_morphism(identity_dainf(a), r, pa, pa) == \
        identity_dainf(pa.algebra)
    lhs = path_dainf_morphism(compose_dainf(g, f), r, pa, pa)
    rhs = compose_dainf(path_dainf_morphism(g, r, pa, pa), pf)
    assert lhs == rhs
    # specialization of the Lambda-tensor functor
    lam = lambda_r_dga(r, F)
    tf = tensor_dga_morphism(lam.algebra, f, pa.tensor_algebra, pa.tensor_algebra)
    transported = {}
    from multiplex.bigraded import nary_tensor_maps
    ident_inv = invert_strict_iso(pa.ident)
    for (i, j), comp in tf.f.items():
        pre = nary_tensor_maps([ident_inv] * j) if j > 1 else ident_inv
        transported[(i, j)] = bcompose(pa.ident, bcompose(comp, pre))
    for key, val in transported.items():
        assert pf.f_map(*key) == val


@pytest.mark.parametrize("r", [0, 1])
def test_tensor_dga_morphism_functorial(r):
    lam = lambda_r_dga(r, F)
    a = small_zero_product(11)
    rng = random.Random(75 + r)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    g = random_dainf_morphism(a, a, rng, space=space)
    la = tensor_twisted_dga(lam.algebra, a)
    tf = tensor_dga_morphism(lam.algebra, f, la, la)
    tg = tensor_dga_morphism(lam.algebra, g, la, la)
    tgf = tensor_dga_morphism(lam.algebra, compose_dainf(g, f), la, la)
    assert tgf == compose_dainf(tg, tf, check=False)
    assert tensor_dga_morphism(lam.algebra, identity_dainf(a), la, la) == \
        identity_dainf(la)


@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_diagonal_delta(r):
    delta, lam, square = diagonal_delta(r, F)
    assert check_dainf_morphism(delta).ok
    # (p^+ (x) 1) Delta = id and (p^- (x) 1) Delta = iota o p^-
    plus = collapse_after(delta, lam, "+")
    assert plus == identity_dainf(lam.algebra)
    minus = collapse_after(delta, lam, "-")
    assert minus == compose_dainf(lam.iota, lam.p_minus)


FIELDS = [GF(), GF(5), GF(2), QQ]
FIELD_IDS = ["F32003", "F5", "F2", "QQ"]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_dainf_constructions_keep_the_axioms(field):
    """The constructions decide nothing about what they build from inputs
    that satisfy their axioms; this test decides it.  On a zero-product
    algebra A with a nonzero m_{i1}, i >= 1, an arity-2 morphism f of it,
    Lambda_1 (which has a product), and an automorphism e of another
    algebra whose inverse has an arity-2 component, for r = 0..2:
    Lambda_r, Lambda_r (x) A, P_r(A), P_r(Lambda_1) and Lambda_r (x)
    Lambda_r satisfy (A_uv), and their underlying complexes (A_m); the
    boundary maps of Lambda_r and of each path, 1 (x) f, P_r(f), the
    diagonal, both collapse maps p^+- (x) 1 and their composites with it,
    and the inverse of e are morphisms."""
    rng = random.Random(7406)
    a = random_zero_product_dainf(field, rng, cols=(0, 2), verts=(0, 2),
                                  max_rank=1, spots=60)
    f = random_dainf_morphism(a, a, rng, density=1.0,
                              space=dainf_morphism_space(a, a, 2))
    b = random_zero_product_dainf(field, rng, cols=(0, 2), verts=(-1, 0),
                                  max_rank=2, spots=12)
    e = random_dainf_morphism(
        b, b, rng, density=1.0, with_identity=True,
        space=[el for el in dainf_morphism_space(b, b, 2) if (0, 1) not in el])
    inverse = invert_dainf(e)
    assert any(i >= 1 for (i, _) in a.m)
    assert all(any(j >= 2 for (_, j) in mor.f) for mor in (f, e, inverse))
    lam1 = lambda_r_dga(1, field).algebra
    algebras, morphisms = [], [inverse]
    for r in range(3):
        lam = lambda_r_dga(r, field)
        la = tensor_twisted_dga(lam.algebra, a)
        delta, _, square = diagonal_delta(r, field)
        algebras += [lam.algebra, la, square]
        morphisms += [lam.iota, lam.p_minus, lam.p_plus, delta,
                      tensor_dga_morphism(lam.algebra, f, la, la)]
        for x in (a, lam1):
            p = path_dainf(x, r)
            algebras.append(p.algebra)
            morphisms += [p.iota, p.p_minus, p.p_plus]
        pa = path_dainf(a, r)
        morphisms.append(path_dainf_morphism(f, r, pa, pa))
        for proj in (lam.p_plus, lam.p_minus):
            morphisms.append(DAInfMorphism(square, lam.algebra, {
                (0, 1): tensor_maps(proj.f_map(0, 1),
                                    identity_map(lam.algebra.module))}))
        morphisms += [collapse_after(delta, lam, side) for side in "+-"]
    for x in algebras:
        assert check_dainf(x).ok
        assert check_twisted(underlying_twisted(x)).ok
    for mor in morphisms:
        assert check_dainf_morphism(mor).ok


# ---------------------------------------------------------------------------
# r-homotopies
# ---------------------------------------------------------------------------

def test_homotopy_reflexive():
    a = small_zero_product(7)
    rng = random.Random(80)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space)
    for r in (0, 1, 2):
        h = DAInfHomotopy(r, f, f, {})
        assert dainf_homotopy_verdict(h)


@pytest.mark.parametrize("r", [0, 1])
def test_iota_pminus_homotopic_to_identity(r):
    """Delta (x) 1_A realizes iota o p^- ~_r id on P_r(A)."""
    a = small_zero_product(8)
    pa = path_dainf(a, r)
    h = _delta_tensor_homotopy(a, pa, r)
    assert dainf_homotopy_verdict(h)
    assert not dainf_homotopy_verdict(corrupt_dainf_homotopy(h))


def _delta_tensor_homotopy(a, pa, r):
    """Extract the homotopy components of Delta (x) 1_A: P_r(A) -> P_r(P_r(A))."""
    delta, lam, square = diagonal_delta(r, F)
    ppa = path_dainf(pa.algebra, r)
    # strict morphism P_r(A) -> P_r(P_r(A)) as the composite of
    # identifications around Delta_{01} (x) 1_A
    from multiplex.bigraded import leaf, node, tree_iso
    lam_mod = lam.algebra.module
    a_mod = a.module
    # Lambda (x) A --Delta (x) 1--> (Lambda (x) Lambda) (x) A
    d01 = delta.f_map(0, 1)
    from multiplex.bigraded import tensor_maps
    step1 = tensor_maps(d01, identity_map(a_mod))
    # reassociate to Lambda (x) (Lambda (x) A)
    lt = node(node(leaf(lam_mod), leaf(lam_mod)), leaf(a_mod))
    rt = node(leaf(lam_mod), node(leaf(lam_mod), leaf(a_mod)))
    assoc = tree_iso(lt, rt)
    # transport the inner Lambda (x) A to P_r(A), then the outer pair to
    # P_r(P_r(A))
    inner = pa.ident
    outer_src = tensor_maps(identity_map(lam_mod), inner)
    ident2 = ppa.ident
    f01 = bcompose(ident2,
                   bcompose(outer_src,
                            bcompose(assoc,
                                     bcompose(step1,
                                              invert_strict_iso(pa.ident)))))
    mor = DAInfMorphism(pa.algebra, ppa.algebra, {(0, 1): f01})
    check_dainf_morphism(mor).raise_if_failed()
    # boundary checks and homotopy extraction
    f = compose_dainf(pa.iota, pa.p_minus)
    g = identity_dainf(pa.algebra)
    assert compose_dainf(ppa.p_minus, mor) == f
    assert compose_dainf(ppa.p_plus, mor) == g
    h01 = bcompose(ppa.p_zero, f01)
    return DAInfHomotopy(r, f, g, {(0, 1): h01})


@pytest.mark.parametrize("r", [0, 1])
def test_homotopy_composes_with_morphisms(r):
    """Post-composing an r-homotopy with a morphism stays an r-homotopy,
    with the witness transported through the functorial path.  The algebra
    fills 12 spots of four columns, so that the witness and its transport
    are nonzero, which is asserted."""
    from multiplex.bigraded import compose as bcompose
    a = small_zero_product(12, cols=(0, 3), spots=12)
    ua = underlying_twisted(a)
    rng = random.Random(95 + r)
    from multiplex.generators import random_endo_morphism, random_homotopic_pair
    tf = random_endo_morphism(ua, rng)
    tg, th = random_homotopic_pair(tf, r, rng)
    f = DAInfMorphism(a, a, {(i, 1): m for i, m in tf.f.items()})
    g = DAInfMorphism(a, a, {(i, 1): m for i, m in tg.f.items()})
    h = DAInfHomotopy(r, f, g, {(i, 1): m for i, m in th.h.items()})
    space = dainf_morphism_space(a, a, max_arity=1)
    e = random_dainf_morphism(a, a, rng, space=space, max_arity=1)
    assert dainf_homotopy_verdict(h)
    pa = path_dainf(a, r)
    assembled = assemble_into_path_dainf(h, pa)
    pe = path_dainf_morphism(e, r, pa, pa)
    composite = compose_dainf(pe, assembled)
    hafter = DAInfHomotopy(
        r, compose_dainf(e, f), compose_dainf(e, g),
        {key: bcompose(pa.p_zero, comp)
         for key, comp in composite.f.items()
         if not bcompose(pa.p_zero, comp).is_zero()})
    # hafter keeps only its nonzero components
    assert any(not m.is_zero() for m in h.h.values()) and hafter.h
    assert dainf_homotopy_verdict(hafter)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("r", [0, 1])
def test_hmk_reduces_to_twisted_at_k1(seed, r):
    """Between zero-product algebras with arity-1 data only, the dA-infinity
    homotopy checker and the twisted homotopy checker agree, and each
    agrees with its r-path route."""
    from multiplex.generators import random_homotopic_pair
    a = small_zero_product(seed + 30)
    ua = underlying_twisted(a)
    rng = random.Random(90 + seed)
    from multiplex.generators import random_endo_morphism
    tf = random_endo_morphism(ua, rng)
    tg, th = random_homotopic_pair(tf, r, rng)
    assert homotopy_verdict(th)
    f = DAInfMorphism(a, a, {(i, 1): m for i, m in tf.f.items()})
    g = DAInfMorphism(a, a, {(i, 1): m for i, m in tg.f.items()})
    h = DAInfHomotopy(r, f, g, {(i, 1): m for i, m in th.h.items()})
    assert dainf_homotopy_verdict(h)
    # corrupt one entry: both checkers must reject
    if th.h:
        m0 = sorted(th.h)[0]
        bad_map = th.h[m0]
        loc = sorted(bad_map.blocks)[0]
        blk = bad_map.blocks[loc].copy()
        blk[0, 0] = F.add(blk[0, 0], F.one())
        bad_blocks = dict(bad_map.blocks)
        bad_blocks[loc] = blk
        bad = BigradedMap(bad_map.src, bad_map.dst, bad_map.bidegree, bad_blocks)
        bad_h = dict(th.h)
        bad_h[m0] = bad
        from multiplex.twisted import RHomotopy
        assert not homotopy_verdict(RHomotopy(r, tf, tg, bad_h))
        bad_dh = {(i, 1): m for i, m in bad_h.items()}
        assert not dainf_homotopy_verdict(DAInfHomotopy(r, f, g, bad_dh))


@pytest.mark.parametrize("r", [0, 1])
def test_is_er_quasi_iso_dainf(r):
    a = small_zero_product(9)
    assert is_er_quasi_iso_dainf(identity_dainf(a), r)
    pa = path_dainf(a, r)
    assert is_er_quasi_iso_dainf(pa.iota, r)
    from multiplex.spectral import spectral_page
    if spectral_page(underlying_twisted(a), r + 1).dims():
        assert not is_er_quasi_iso_dainf(zero_dainf_morphism(a, a), r)


def test_endomorphism_builds_one_page(monkeypatch):
    """The identity of Lambda_1 stays an endomorphism of one twisted
    complex, so is_er_quasi_iso builds page r + 1 once; a morphism between
    two algebras still builds one page per side."""
    import multiplex.spectral as spectral
    calls = []
    build = spectral.spectral_page

    def counted(*args, **kwargs):
        calls.append(args[1])
        return build(*args, **kwargs)

    monkeypatch.setattr(spectral, "spectral_page", counted)
    lam = lambda_r_dga(1, F).algebra
    tf = underlying_twisted_morphism(identity_dainf(lam))
    assert tf.src is tf.dst
    assert is_er_quasi_iso_dainf(identity_dainf(lam), 1)
    assert calls == [2]
    calls.clear()
    p = path_dainf(lam, 1)
    assert is_er_quasi_iso_dainf(p.iota, 1)
    assert calls == [2, 2]


# ---------------------------------------------------------------------------
# the bar route against the per-tuple reference
# ---------------------------------------------------------------------------

BAR_FIELDS = [GF(32003), GF(5), GF(2), QQ]


def _ref_tuple_terms(outer, g, src_mod):
    """(key, (-1)^compose_sign o_{ij}(g_{p_1q_1} (x) ... (x) g_{p_jq_j}),
    i + sum p) for every outer map o_{ij} and every tuple of components
    of g, one tensor per tuple: the route before the bar powers."""
    for (i, j), oij in sorted(outer.items()):
        for parts in iproduct(sorted(g), repeat=j):
            u = i + sum(p for (p, _) in parts)
            k = sum(q for (_, q) in parts)
            tens = component_tensor([g[pt] for pt in parts],
                                    [q for (_, q) in parts], src_mod)
            term = bcompose(oij, tens)
            if compose_sign(list(parts)):
                term = -term
            yield (u, k), term, u


def _ref_compose(f, g):
    comps = {}
    for key, term, _ in _ref_tuple_terms(f.f, g.f, g.src.module):
        comps[key] = comps[key] + term if key in comps else term
    return DAInfMorphism(g.src, f.dst, comps)


def _ref_check_morphism(f):
    """(B_uv) with the right side summed tuple by tuple."""
    a, b = f.src, f.dst
    buckets = {}

    def add(key, term):
        buckets[key] = buckets[key] + term if key in buckets else term

    for (i, j), fij in sorted(f.f.items()):
        for (p, q), mpq in sorted(a.m.items()):
            for r in range(j):
                t = j - 1 - r
                term = bcompose(fij, hom_one_map_one(mpq, a.module, r, t, q))
                add((i + p, j + q - 1),
                    -term if structure_sign(r, q, t, p, j) else term)
    for key, term, u in _ref_tuple_terms(b.m, f.f, a.module):
        add(key, term if u % 2 else -term)
    rep = Report("dA-infinity morphism relations (B_uv)")
    for (u, v) in sorted(buckets):
        rep.tick()
        for loc in sorted(buckets[(u, v)].blocks):
            rep.fail((u, v) + loc, f"(B_{{{u}{v}}}) fails on the block at {loc}")
    return rep


def _ref_invert(f, arity_cap=8):
    """The components invert_dainf solves for, with the top term
    f_{01} g_{uk} skipped by hand."""
    a, b = f.src, f.dst
    g01 = BigradedMap(b.module, a.module, (0, 0),
                      {k: f.f_map(0, 1).block(*k).inverse()
                       for k in b.module.dims})
    g = {(0, 1): g01}
    for k in range(1, arity_cap + 1):
        for u in sorted(_reachable_u(b.module, a.module, k)):
            if (u, k) == (0, 1):
                continue
            acc = None
            for (i, j), fij in sorted(f.f.items()):
                for parts in iproduct(sorted(g), repeat=j):
                    if sum(q for (_, q) in parts) != k or \
                       i + sum(p for (p, _) in parts) != u or \
                       ((i, j) == (0, 1) and parts == ((u, k),)):
                        continue
                    tens = component_tensor([g[pt] for pt in parts],
                                            [q for (_, q) in parts],
                                            b.module)
                    term = bcompose(fij, tens)
                    if compose_sign(list(parts)):
                        term = -term
                    acc = term if acc is None else acc + term
            if acc is not None and not bcompose(g01, acc).is_zero():
                g[(u, k)] = -bcompose(g01, acc)
    return DAInfMorphism(b, a, g)


def _assert_same_morphism(got, want):
    assert sorted(got.f) == sorted(want.f)
    for key, comp in want.f.items():
        assert sorted(got.f[key].blocks) == sorted(comp.blocks)
        for loc, blk in comp.blocks.items():
            # entry by entry, F_p ints and QQ Fractions alike
            assert [(type(x), x) for x in got.f[key].blocks[loc].data] == \
                [(type(x), x) for x in blk.data]


def _rand_map(src, dst, bidegree, rng):
    """A map src -> dst with every block its bidegree allows, random
    entries and a 1 in each top-left corner, so no block is zero."""
    blocks = {}
    for (s, t), n in src.dims.items():
        rows = dst.dim(s + bidegree[0], t + bidegree[1])
        if rows:
            entries = [[rng.choice((0, 1, -1, 2, 3)) for _ in range(n)]
                       for _ in range(rows)]
            entries[0][0] = 1
            blocks[(s, t)] = Matrix.from_rows(src.field, entries)
    return BigradedMap(src, dst, bidegree, blocks)


def _perturbed(f, rng, keys):
    """f plus random components at keys: not a morphism in general."""
    comps = dict(f.f)
    for (i, j) in keys:
        c = _rand_map(power_module(f.src.module, j), f.dst.module,
                      (-i, 1 - i - j), rng)
        comps[(i, j)] = comps[(i, j)] + c if (i, j) in comps else c
    return DAInfMorphism(f.src, f.dst, comps)


def _bar_corpus(field, seed):
    """Morphisms of a zero-product algebra on (0,0), (0,1), (1,1), (1,2)
    (as many of them as the draw fills): f and g valid, bad a perturbed
    f with arity-2 components, low a perturbed zero map of arity 1."""
    rng = random.Random(300 + seed)
    a = random_zero_product_dainf(field, rng, cols=(0, 1), verts=(0, 1),
                                  max_rank=1, spots=8)
    space = dainf_morphism_space(a, a, max_arity=2)
    f = random_dainf_morphism(a, a, rng, space=space, density=1.0)
    g = random_dainf_morphism(a, a, rng, space=space, density=1.0)
    bad = _perturbed(f, rng, [(0, 1), (0, 2), (1, 1), (1, 2)])
    low = _perturbed(zero_dainf_morphism(a, a), rng, [(0, 1), (1, 1)])
    return f, g, bad, low


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_compose_matches_tuple_reference(field, seed):
    f, g, bad, low = _bar_corpus(field, seed)
    bb = compose_dainf(bad, bad, check=False)
    # bb has components of arity 3 and 4, so bb o low sums words of up to
    # four letters of low, with several words per class
    assert max(j for (_, j) in bb.f) >= 3 and len(low.f) >= 2
    for outer, inner in [(g, f), (f, g), (g, bad), (bad, g), (bad, bad),
                         (bb, low), (low, bb)]:
        got = compose_dainf(outer, inner, check=False)
        _assert_same_morphism(got, _ref_compose(outer, inner))


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_invert_matches_tuple_reference(field, seed):
    rng = random.Random(400 + seed)
    # the benchmark's shape: a differential, arity <= 2
    b = random_zero_product_dainf(field, rng, cols=(0, 0), verts=(-1, 0),
                                  max_rank=2, spots=20)
    perturb = [el for el in dainf_morphism_space(b, b, 2)
               if (0, 1) not in el]
    e = random_dainf_morphism(b, b, rng, space=perturb, density=1.0,
                              with_identity=True)
    _assert_same_morphism(invert_dainf(e), _ref_invert(e))
    # with no structure maps every family of components is a morphism, so
    # a perturbed identity is one too; total degrees in [-2, 0] close the
    # window above arity 3, and the inverse reaches it
    rng = random.Random(450 + seed)
    a = DAInfAlgebra(BigradedModule(field, {
        (i, i + d): 1 for i in (0, 1) for d in (-2, -1, 0)}), {})
    e = _perturbed(identity_dainf(a), rng, [(1, 1), (2, 1), (0, 2), (1, 2)])
    got = invert_dainf(e)
    _assert_same_morphism(got, _ref_invert(e))
    assert max(j for (_, j) in got.f) == 3


def _product_targets(field, rng):
    """Morphisms into algebras with products, so the (B_uv) right side
    meets words of length >= 2: the r-path of Lambda_1, the diagonal of
    Lambda_r into Lambda_r (x) Lambda_r, and each of them perturbed."""
    lam1 = lambda_r_dga(1, field).algebra
    out = []
    for r in (0, 1):
        p = path_dainf(lam1, r)
        delta, lam, square = diagonal_delta(r, field)
        assert square == tensor_twisted_dga(lam.algebra, lam.algebra)
        out += [p.iota, p.p_minus, p.p_plus, delta]
    bad = [_perturbed(m, rng, [(0, 1), (0, 2), (1, 1), (1, 2)])
           for m in out]
    return out + bad


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
def test_check_morphism_matches_tuple_reference(field):
    rng = random.Random(500)
    mors = _product_targets(field, rng)
    f, g, bad, low = _bar_corpus(field, 0)
    mors += [f, bad, low, compose_dainf(g, f, check=False)]
    failing = 0
    for mor in mors:
        got = check_dainf_morphism(mor).to_dict()
        assert got == _ref_check_morphism(mor).to_dict()
        failing += not got["ok"]
    assert failing >= 8
    # words of length >= 2 reach the right side
    assert any(j >= 2 for mor in mors for (_, j) in mor.dst.m)


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
def test_check_morphism_three_letter_words(field):
    # random, unchecked structure maps of arity 3 in the target make the
    # right side sum words of three components
    rng = random.Random(600)
    f, _, bad, low = _bar_corpus(field, 1)
    mod = f.dst.module
    m = {(i, j): _rand_map(power_module(mod, j), mod, (-i, 2 - i - j), rng)
         for (i, j) in [(0, 2), (0, 3), (1, 3)]}
    tgt = DAInfAlgebra(mod, {**f.dst.m, **m})
    assert any(j == 3 for (_, j) in tgt.m)
    for mor in (f, bad, low):
        mor = DAInfMorphism(mor.src, tgt, mor.f)
        assert check_dainf_morphism(mor).to_dict() == \
            _ref_check_morphism(mor).to_dict()


# ---------------------------------------------------------------------------
# the accumulated sums against the dense per-term route
# ---------------------------------------------------------------------------

def _dense_accumulate(acc, key, term, odd):
    """acc[key] += (-1)^odd term with dense map +, - and negation, where an
    absent or None entry is zero: how every dA-infinity sum was formed
    before the sparse accumulator."""
    old = acc.get(key)
    if old is None:
        acc[key] = -term if odd % 2 else term
    else:
        acc[key] = old - term if odd % 2 else old + term


def _dense_bar_power(g, mod, n, U, K, memo):
    if n == 1:
        return g.get((U, K))
    key = (n, U, K)
    if key not in memo:
        memo[key] = None
        for (p, q), gpq in sorted(g.items()):
            hu, hk = U - p, K - q
            if hu < 0 or hk < n - 1:
                continue
            head = _dense_bar_power(g, mod, n - 1, hu, hk, memo)
            if head is None:
                continue
            # the tree route: the tensor, then its columns regrouped into
            # the left power
            cols = tree_iso(power_tree(mod, K),
                            node(power_tree(mod, hk), power_tree(mod, q)))
            _dense_accumulate(memo, key,
                              bcompose(tensor_maps(head, gpq), cols),
                              compose_sign_step(hu, hk, p, q))
    return memo[key]


def _dense_insertions(buckets, outer, a):
    for (i, j), oij in sorted(outer.items()):
        for (p, q), mpq in sorted(a.m.items()):
            for r in range(j):
                t = j - 1 - r
                _dense_accumulate(
                    buckets, (i + p, j + q - 1),
                    bcompose(oij, hom_one_map_one(mpq, a.module, r, t, q)),
                    structure_sign(r, q, t, p, j))


def _dense_report(name, buckets, letter):
    rep = Report(name)
    for (u, v) in sorted(buckets):
        rep.tick()
        for loc in sorted(buckets[(u, v)].blocks):
            rep.fail((u, v) + loc,
                     f"({letter}_{{{u}{v}}}) fails on the block at {loc}")
    return rep


def _dense_check_dainf(a):
    buckets = {}
    _dense_insertions(buckets, a.m, a)
    return _dense_report("derived A-infinity relations (A_uv)", buckets, "A")


def _dense_check_morphism(f):
    buckets, memo = {}, {}
    _dense_insertions(buckets, f.f, f.src)
    for (i, j), mij in sorted(f.dst.m.items()):
        for (U, K) in sorted(_sumset(f.f, j)):
            tens = _dense_bar_power(f.f, f.src.module, j, U, K, memo)
            _dense_accumulate(buckets, (i + U, K), bcompose(mij, tens),
                              i + U + 1)
    return _dense_report("dA-infinity morphism relations (B_uv)", buckets,
                         "B")


def _dense_compose(f, g):
    comps, memo = {}, {}
    for (i, j), fij in sorted(f.f.items()):
        for (U, K) in sorted(_sumset(g.f, j)):
            tens = _dense_bar_power(g.f, g.src.module, j, U, K, memo)
            _dense_accumulate(comps, (i + U, K), bcompose(fij, tens), 0)
    return DAInfMorphism(g.src, f.dst, comps)


def _dense_invert(f, arity_cap=8):
    a, b = f.src, f.dst
    g01 = BigradedMap(b.module, a.module, (0, 0),
                      {k: f.f_map(0, 1).block(*k).inverse()
                       for k in b.module.dims})
    g, memo = {(0, 1): g01}, {}
    for k in range(1, arity_cap + 1):
        for u in sorted(_reachable_u(b.module, a.module, k)):
            if (u, k) == (0, 1):
                continue
            terms = [bcompose(fij, tens) for (i, j), fij in sorted(f.f.items())
                     if (tens := _dense_bar_power(g, b.module, j, u - i, k,
                                                  memo)) is not None]
            if terms:
                guk = -bcompose(g01, sum(terms[1:], terms[0]))
                if not guk.is_zero():
                    g[(u, k)] = guk
    return DAInfMorphism(b, a, g)


def _dense_hmk_buckets(h):
    a, b, r = h.src, h.dst, h.r
    gk, fk, hk = sorted(h.g.f), sorted(h.f.f), sorted(h.h)
    buckets = {}
    for (i, l), mil in sorted(b.m.items()):
        for s in range(l):
            for parts in iproduct(*([gk] * s + [hk] + [fk] * (l - s - 1))):
                p = sum(pp for (pp, _) in parts)
                k = sum(qq for (_, qq) in parts)
                comps = ([h.g.f[pt] for pt in parts[:s]] + [h.h[parts[s]]]
                         + [h.f.f[pt] for pt in parts[s + 1:]])
                tens = component_tensor(comps, [q for (_, q) in parts],
                                        a.module)
                _dense_accumulate(buckets, (i + p, k), bcompose(mil, tens),
                                  homotopy_sum1_sign(r, p, s, list(parts))
                                  + i + p - r)
    for (i, l) in hk:
        for (p, q), mpq in sorted(a.m.items()):
            for s in range(l):
                t = l - 1 - s
                _dense_accumulate(
                    buckets, (i + p, s + q + t),
                    bcompose(h.h[(i, l)],
                             hom_one_map_one(mpq, a.module, s, t, q)),
                    homotopy_beta(r, s, q, t, p, l) + i + p - r)
    for (i, k) in sorted(set(fk) | set(gk)):
        _dense_accumulate(buckets, (i + r, k),
                          h.g.f_map(i, k) - h.f.f_map(i, k), 1)
    return buckets


def _assert_same_map(got, want):
    """Same modules and bidegree, same blocks, the same entries of the
    same types, and every entry canonical."""
    assert (got.src, got.dst, got.bidegree) == \
        (want.src, want.dst, want.bidegree)
    assert sorted(got.blocks) == sorted(want.blocks)
    for loc, blk in got.blocks.items():
        assert_canonical(got.field, blk.data)
        assert [(type(x), x) for x in blk.data] == \
            [(type(x), x) for x in want.blocks[loc].data]


def _assert_same_components(got, want):
    assert sorted(got.f) == sorted(want.f)
    for key, comp in want.f.items():
        _assert_same_map(got.f[key], comp)


def _densified(m):
    """A SparseMap written out as the BigradedMap it stands for, after
    checking that each block lists nonzero entries, row-major and each
    place once; a BigradedMap as is."""
    if not isinstance(m, SparseMap):
        return m
    p, q = m.bidegree
    blocks = {}
    for (i, j), nz in m.blocks.items():
        places = [(r, c) for r, c, _ in nz]
        assert nz and places == sorted(set(places)) and all(v for *_, v in nz)
        rows, cols = m.dst.dim(i + p, j + q), m.src.dim(i, j)
        data = [0] * (rows * cols)
        for r, c, v in nz:
            data[r * cols + c] = v
        blocks[(i, j)] = Matrix._of(m.src.field, rows, cols, data)
    return BigradedMap(m.src, m.dst, m.bidegree, blocks)


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_compose_and_bar_powers_match_dense_route(field, seed):
    f, g, bad, low = _bar_corpus(field, seed)
    bb = compose_dainf(bad, bad, check=False)
    for outer, inner in [(g, f), (bad, g), (bad, bad), (bb, low), (low, bb)]:
        _assert_same_components(compose_dainf(outer, inner, check=False),
                                _dense_compose(outer, inner))
    # every class of up to three letters, zero sums included
    classes = 0
    for mor in (f, bad, low):
        memo, ref = {}, {}
        for n in range(1, 4):
            for (U, K) in sorted(_sumset(mor.f, n)):
                got = bar_power(mor.f, mor.src.module, n, U, K, memo)
                want = _dense_bar_power(mor.f, mor.src.module, n, U, K, ref)
                assert (got is None) == (want is None)
                if got is not None:
                    assert isinstance(got, SparseMap) == (n > 1)
                    _assert_same_map(_densified(got), want)
                    classes += 1
    assert classes >= 40


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
def test_checkers_match_dense_route(field):
    rng = random.Random(700)
    mors = _product_targets(field, rng)
    f, g, bad, low = _bar_corpus(field, 2)
    mors += [f, bad, low, compose_dainf(g, f, check=False)]
    # unchecked structure maps of arity 2 and 3: (A_uv) fails, and the
    # (B_uv) right side sums words of three letters
    mod = f.dst.module
    tgt = DAInfAlgebra(mod, {**f.dst.m, **{
        (i, j): _rand_map(power_module(mod, j), mod, (-i, 2 - i - j), rng)
        for (i, j) in [(0, 2), (1, 2), (0, 3)]}})
    mors += [DAInfMorphism(m.src, tgt, m.f) for m in (f, bad, low)]
    algebras = {id(x): x for m in mors for x in (m.src, m.dst)}.values()
    failing = 0
    for alg in algebras:
        got = check_dainf(alg).to_dict()
        assert got == _dense_check_dainf(alg).to_dict()
        failing += not got["ok"]
    for mor in mors:
        got = check_dainf_morphism(mor).to_dict()
        assert got == _dense_check_morphism(mor).to_dict()
        failing += not got["ok"]
    assert failing >= 10 and not check_dainf(tgt).ok


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
@pytest.mark.parametrize("seed", [14, 15])
def test_invert_matches_dense_route(field, seed):
    # seeds whose draws have arity-2 components over every field
    rng = random.Random(800 + seed)
    b = random_zero_product_dainf(field, rng, cols=(0, 2), verts=(-1, 0),
                                  max_rank=1, spots=8)
    perturb = [el for el in dainf_morphism_space(b, b, 2)
               if (0, 1) not in el]
    e = random_dainf_morphism(b, b, rng, space=perturb, density=1.0,
                              with_identity=True)
    a = DAInfAlgebra(BigradedModule(field, {
        (i, i + d): 1 for i in (0, 1) for d in (-2, -1, 0)}), {})
    e2 = _perturbed(identity_dainf(a), rng, [(1, 1), (2, 1), (0, 2), (1, 2)])
    for mor in (e, e2):
        got = invert_dainf(mor)
        assert any(j >= 2 for (_, j) in got.f)
        _assert_same_components(got, _dense_invert(mor))


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
@pytest.mark.parametrize("r", [0, 1])
def test_hmk_buckets_match_dense_route(field, r):
    rng = random.Random(900 + r)
    f, g, bad, _ = _bar_corpus(field, r)
    mod = f.src.module
    # random witnesses of arity 1 and 2 make most buckets nonzero; the
    # trivial homotopy of f with itself leaves every bucket zero
    hs = [DAInfHomotopy(r, f, g, {
              (i, k): _rand_map(power_module(mod, k), mod, (r - i, r - i - k),
                                rng)
              for (i, k) in [(0, 1), (1, 1), (0, 2), (1, 2)]}),
          DAInfHomotopy(r, bad, g, {
              (0, 1): _rand_map(mod, mod, (r, r - 1), rng)}),
          DAInfHomotopy(r, f, f, {})]
    nonzero = 0
    for h in hs:
        got = _hmk_buckets(h).maps()
        want = _dense_hmk_buckets(h)
        assert sorted(got) == sorted(want)
        for key, m in want.items():
            _assert_same_map(got[key], m)
            nonzero += not m.is_zero()
    assert nonzero >= 4
    assert all(m.is_zero() for m in _hmk_buckets(hs[2]).maps().values())


# ---------------------------------------------------------------------------
# insertions and left-power regroupings against the tree route
# ---------------------------------------------------------------------------

def _insertion_terms(outer, a):
    """(key, o, m, r, t, q, odd) of every term of the (A_uv) / (B_uv) left
    side: o_{ij}(1^r (x) m_{pq} (x) 1^t) with its structure sign."""
    for (i, j), oij in sorted(outer.items()):
        for (p, q), mpq in sorted(a.m.items()):
            for r in range(j):
                t = j - 1 - r
                yield ((i + p, j + q - 1), oij, mpq, r, t, q,
                       structure_sign(r, q, t, p, j))


def _assert_insertions_match(terms, base):
    """Each term alone and all of them summed: MapSum.add_insertion equals
    o composed with the tree route's 1^r (x) m (x) 1^t, entry by entry and
    type by type.  Returns the number of nonzero buckets."""
    total, ref_total = MapSum(), MapSum()
    nonzero = 0
    for key, o, m, r, t, q, odd in terms:
        got, want = MapSum(), MapSum()
        inner = hom_one_map_one(m, base, r, t, q)
        for acc, ref in ((got, want), (total, ref_total)):
            acc.add_insertion(key, o, m, base, r, t, q, odd)
            ref.add_compose(key, o, inner, odd)
        _assert_same_map(got.maps()[key], want.maps()[key])
    got, want = total.maps(), ref_total.maps()
    assert sorted(got) == sorted(want)
    for key, m in want.items():
        _assert_same_map(got[key], m)
        nonzero += not m.is_zero()
    return nonzero


def _word_coordinate(base, word):
    """(bidegree, coordinate) of a word of letters (p, q, idx) in the left
    power of base, read off the tree route's basis enumeration."""
    bid = (sum(x[0] for x in word), sum(x[1] for x in word))
    return bid, tree_basis(power_tree(base, len(word)), *bid).index(word)


@pytest.mark.parametrize("field", BAR_FIELDS, ids=str)
def test_add_insertion_matches_tree_route(field):
    rng = random.Random(1300)
    f, g, bad, low = _bar_corpus(field, 1)
    mors = _product_targets(field, rng)[:4] + [f, bad, low]
    # algebras with structure maps of arity 1 to 3; (A_uv) fails on the
    # random ones, so their buckets are nonzero
    mod = f.src.module
    rand_alg = DAInfAlgebra(mod, {**f.src.m, **{
        (i, j): _rand_map(power_module(mod, j), mod, (-i, 2 - i - j), rng)
        for (i, j) in [(0, 2), (1, 2), (0, 3)]}})
    algebras = {id(x): x for m in mors for x in (m.src, m.dst)}
    algebras[id(rand_alg)] = rand_alg
    nonzero = 0
    for alg in algebras.values():
        nonzero += _assert_insertions_match(_insertion_terms(alg.m, alg),
                                            alg.module)
    # morphism left sides, into the random algebra too
    for mor in mors + [DAInfMorphism(m.src, rand_alg, m.f) for m in
                       (f, bad)]:
        nonzero += _assert_insertions_match(_insertion_terms(mor.f, mor.src),
                                            mor.src.module)
    # random outer maps o and m with q <= 3 and r + t <= 3 on a base with
    # a rank-2 letter, so words have several letters of one bidegree
    base = BigradedModule(field, {(0, 0): 1, (0, 1): 2, (1, 1): 1})
    for q in (1, 2, 3):
        for r in range(4):
            for t in range(4 - r):
                src = power_module(base, q)
                beta = rng.choice(src.support())
                xi = rng.choice(base.support())
                m = _rand_map(src, base, (xi[0] - beta[0], xi[1] - beta[1]),
                              rng)
                osrc = power_module(base, r + 1 + t)
                tau = rng.choice(osrc.support())
                dst = rng.choice(base.support())
                o = _rand_map(osrc, base, (dst[0] - tau[0], dst[1] - tau[1]),
                              rng)
                nonzero += _assert_insertions_match(
                    [((0, 0), o, m, r, t, q, r + t)], base)
    assert nonzero >= 40
    # the column regroupings of bar powers and component_tensor:
    # base^{(x) k} (x) base^{(x) l} -> base^{(x) k+l} as tree_iso builds it
    for n in range(2, 6):
        for k in range(1, n):
            iso = tree_iso(node(power_tree(base, k), power_tree(base, n - k)),
                           power_tree(base, n))
            left, right = power_module(base, k), power_module(base, n - k)
            for x in left.support():
                tables = _concat_tables(base, k, x, n - k)
                assert sorted(tables) == right.support()
                for y, table in tables.items():
                    ij = (x[0] + y[0], x[1] + y[1])
                    off = _summand_table(left, right)[ij][1][x]
                    assert table == tuple(
                        iso.blocks[ij].targets[off:off + len(table)])
    # component_tensor places the word of its parts step by step
    for arities in ([1, 2], [2, 1], [2, 1, 1], [1, 1, 2], [2, 2], [1, 1, 1]):
        tree = subpower_tree(base, arities)
        for ij in tree.module.support():
            for word in tree_basis(tree, *ij):
                bid, c = _word_coordinate(base, word[:arities[0]])
                k, at = arities[0], arities[0]
                for q in arities[1:]:
                    y, cv = _word_coordinate(base, word[at:at + q])
                    dy = power_module(base, q).dim(*y)
                    c = _concat_tables(base, k, bid, q)[y][c * dy + cv]
                    bid, k, at = (bid[0] + y[0], bid[1] + y[1]), k + q, at + q
                assert (bid, c) == _word_coordinate(base, word)
