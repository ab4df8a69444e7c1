"""Acceptance gate: every exit criterion, one pass/fail line each.

Property-based at desk scale: random instances with bidegree ranks <= 4,
horizontal support inside [0, 5], over F_32003 with rational spot checks.
Run with `pytest tests/test_acceptance.py -s` to see the summary lines.
"""

import random

import pytest

from conftest import (
    REF_SHAPES, SHAPE, ambient_induced_map, column_subquotient,
    corrupt_dainf_homotopy, corrupt_homotopy, dainf_homotopy_verdict,
    homotopy_verdict, invert_strict_iso, lemma_path_homotopy,
    page_to_column_coords,
)
from multiplex.dainf import (
    DAInfAlgebra, DAInfHomotopy, DAInfMorphism, check_dainf,
    check_dainf_morphism, collapse_after,
    compose_dainf, diagonal_delta, identity_dainf, lambda_r_dga, path_dainf,
    tensor_twisted_dga, underlying_twisted,
)
from multiplex.filtered_ainf import check_filtered_ainf, tot_dainf
from multiplex.filtration import tot, tot_inverse
from multiplex.generators import (
    dainf_morphism_space, random_dainf_morphism, random_endo_morphism,
    random_filtered_complex, random_homotopic_pair, random_null_homotopic_map,
    random_twisted_complex, random_zero_product_dainf,
)
from multiplex.linalg import GF, QQ, Matrix
from multiplex.operadic import check_coderh, default_truncation
from multiplex.spectral import (
    check_page_recursion, is_er_quasi_iso, is_er_quasi_iso_via_cone,
    page_of_morphism, spectral_page,
)
from multiplex.twisted import (
    RHomotopy, check_morphism, check_twisted, compose, identity_morphism,
    path, shift_homotopy, solve_r_homotopy, zero_morphism,
)

F = GF()
N_INSTANCES = 50


def _announce(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"\n[PASS] {name}{suffix}")


@pytest.fixture(scope="module")
def twisted_corpus():
    out = []
    for seed in range(N_INSTANCES):
        rng = random.Random(10_000 + seed)
        out.append(random_twisted_complex(F, rng, cols=(0, 3), verts=(-1, 3),
                                          max_rank=2, spots=4))
    return out


@pytest.fixture(scope="module")
def ref_corpus():
    """REF_SHAPES[1] draws, each with a nonzero d_m for some m >= 1,
    which is asserted (on spots=3 draws of cols (0, 2), verts (0, 2) and
    rank 2, 9 of 50 have one)."""
    out = []
    for seed in range(N_INSTANCES):
        rng = random.Random(20_000 + seed)
        a = random_twisted_complex(F, rng, **REF_SHAPES[1])
        assert any(m >= 1 for m in a.d), seed
        out.append(a)
    return out


def test_roundtrip_isomorphism(twisted_corpus):
    """Tot and its inverse are mutually inverse, bit-exact, both ways."""
    count_t = count_k = 0
    for a in twisted_corpus:
        assert tot_inverse(tot(a)) == a
        count_t += 1
    for seed in range(N_INSTANCES):
        rng = random.Random(30_000 + seed)
        k = random_filtered_complex(F, rng)
        assert tot(tot_inverse(k)) == k
        count_k += 1
    for seed in range(5):  # rational spot check
        rng = random.Random(40_000 + seed)
        a = random_twisted_complex(QQ, rng, **REF_SHAPES[1])
        assert any(m >= 1 for m in a.d), seed
        assert tot_inverse(tot(a)) == a
        k = random_filtered_complex(QQ, rng, **REF_SHAPES[1])
        assert any(m >= 1 for m in tot_inverse(k).d), seed
        assert tot(tot_inverse(k)) == k
    _announce("round-trip isomorphism",
              f"{count_t} twisted ({_nondegenerate(twisted_corpus)} with "
              f"d_m != 0 for some m >= 1) + {count_k} filtered + 10 "
              f"rational with d_m != 0 for some m >= 1")


def _nondegenerate(corpus):
    """How many complexes of corpus have d_m != 0 for some m >= 1."""
    return sum(any(m >= 1 for m in a.d) for a in corpus)


def _assert_page_conformance(a):
    """E_0 = A with delta_0 = d_0; E_1 = H(A_p, d_0) with delta_1 = H(d_1)
    on independent column subquotients."""
    p0 = spectral_page(a, 0)
    assert p0.dims() == {k: v for k, v in a.module.dims.items()}
    d0 = a.d_map(0)
    for (p, q) in a.module.support():
        assert p0.delta_mat(p, q) == d0.block(p, q)
    p1 = spectral_page(a, 1)
    d1 = a.d_map(1)
    for (p, q) in a.module.support():
        sq = column_subquotient(a, p, q)
        assert p1.dim(p, q) == sq.dim
        if sq.dim and p1.dim(p - 1, q):
            tsq = column_subquotient(a, p - 1, q)
            chg = page_to_column_coords(p1, p, q, sq)
            tchg = page_to_column_coords(p1, p - 1, q, tsq)
            inv = chg.inverse()
            assert inv is not None
            got = tchg * p1.delta_mat(p, q) * inv
            assert got == ambient_induced_map(d1.block(p, q), sq, tsq)


def test_page_conformance(twisted_corpus):
    """E_0 = A with delta_0 = d_0; E_1 = H(A_p, d_0) with delta_1 = H(d_1),
    the page-1 data checked against independent column subquotients, over
    F_32003 and on a rational REF_SHAPES[1] draw with d_m != 0 for some
    m >= 1."""
    checked = 0
    for a in twisted_corpus:
        _assert_page_conformance(a)
        checked += 1
    rng = random.Random(41_000)
    a = random_twisted_complex(QQ, rng, **REF_SHAPES[1])
    assert any(m >= 1 for m in a.d)
    _assert_page_conformance(a)
    _announce("page conformance at r <= 1",
              f"{checked} instances ({_nondegenerate(twisted_corpus)} with "
              f"d_m != 0 for some m >= 1) + 1 rational with d_m != 0")


def test_page_recursion(twisted_corpus):
    """Dims and differentials of page r+1 match the homology of page r."""
    checked = 0
    for a in twisted_corpus:
        pages = {0: spectral_page(a, 0)}
        for r in range(5):
            pages[r + 1] = spectral_page(a, r + 1, pages[0].complex)
            ok, detail = check_page_recursion(a, r, pages[r], pages[r + 1])
            assert ok, f"instance {checked}, r={r}: {detail}"
        checked += 1
    _announce("page recursion r <= 4", f"{checked} instances")


def test_cone_detection():
    """is_er_quasi_iso agrees with the cone acyclicity criterion, on
    REF_SHAPES[1] complexes that each have a nonzero d_m with m >= 1."""
    agreements = accepted = morphisms = nondegenerate = 0
    for idx in range(18):
        rng = random.Random(50_000 + idx)
        a = random_twisted_complex(F, rng, **REF_SHAPES[1])
        assert any(m >= 1 for m in a.d), idx
        nondegenerate += 1
        p = path(a, idx % 3)
        candidates = [
            identity_morphism(a),
            zero_morphism(a, a),
            random_endo_morphism(a, rng),
            random_null_homotopic_map(a, a, rng),
            p.iota,
            compose(p.iota, p.p_minus),
        ]
        morphisms += len(candidates)
        for f in candidates:
            for r in (0, 1, 2):
                direct = is_er_quasi_iso(f, r)
                via = is_er_quasi_iso_via_cone(f, r)
                assert direct == via
                agreements += 1
                accepted += direct
    assert morphisms >= 100
    # both verdicts occur, so the two detectors are compared on each
    assert 0 < accepted < agreements
    _announce("cone detection", f"{morphisms} morphisms on {nondegenerate} "
              f"complexes with d_m != 0 for some m >= 1, "
              f"{agreements} agreements ({accepted} E_r-quasi-isomorphisms), "
              f"r in {{0,1,2}}")


@pytest.fixture(scope="module")
def solved_homotopies(ref_corpus):
    out = []
    for idx, a in enumerate(ref_corpus):
        rng = random.Random(60_000 + idx)
        r = idx % 3
        f = random_endo_morphism(a, rng)
        g, _ = random_homotopic_pair(f, r, rng)
        h = solve_r_homotopy(f, g, r)
        assert h is not None, f"solver failed on instance {idx}"
        out.append(h)
    return out


def test_homotopy_implies_page_equality(solved_homotopies):
    """A solved r-homotopy forces E_{r+1}(f) = E_{r+1}(g) as matrices."""
    for h in solved_homotopies:
        a = h.src
        page = spectral_page(a, h.r + 1)
        pf = page_of_morphism(h.f, h.r + 1, page, page)
        pg = page_of_morphism(h.g, h.r + 1, page, page)
        assert pf.keys() == pg.keys()
        for key in pf:
            assert pf[key] == pg[key]
    _announce("homotopy implies page equality",
              f"{len(solved_homotopies)} solved instances on complexes with "
              f"d_m != 0 for some m >= 1, r in {{0,1,2}}")


def test_path_equivalence_witness(ref_corpus):
    """P_r(A) is a twisted complex with morphisms iota and p+-, which path()
    does not decide, and hhat_0(x,y,z) = (0,0,y) witnesses iota o p_minus
    ~_r id on it."""
    checked = 0
    for r in range(4):
        for a in ref_corpus[:8]:
            p = path(a, r)
            assert check_twisted(p.complex).ok
            for mor in (p.iota, p.p_minus, p.p_plus):
                assert check_morphism(mor).ok
            h = lemma_path_homotopy(a, r)
            assert homotopy_verdict(h)
            checked += 1
    _announce("path equivalence witness (explicit hhat_0)",
              f"{checked} fixtures, each with d_m != 0 for some m >= 1, "
              f"r in {{0..3}}")


def test_shift_inclusion(solved_homotopies):
    """Shifting every solved r-homotopy passes the (r+1)-check."""
    for h in solved_homotopies:
        shifted = shift_homotopy(h)
        assert homotopy_verdict(shifted)
        assert shifted.r == h.r + 1
    _announce("shift inclusion S_r into S_{r+1}",
              f"{len(solved_homotopies)} witnesses on complexes with d_m != 0 "
              f"for some m >= 1 shifted")


def test_lambda_and_path_coherence():
    """Lambda_r axioms; path = Lambda_r tensor blockwise; boundary maps;
    the diagonal satisfies its two collapse identities."""
    rng = random.Random(70_000)
    fixtures = [random_zero_product_dainf(F, rng, **SHAPE) for _ in range(4)]
    # the products of Lambda_1 and of Lambda_0 (x) Lambda_1 reach the
    # arity >= 2 route of the path and its t_j
    fixtures.append(lambda_r_dga(1, F).algebra)
    fixtures.append(tensor_twisted_dga(lambda_r_dga(0, F).algebra,
                                       lambda_r_dga(1, F).algebra))
    # a nonzero m_{i1}, i >= 1, puts the signed d_m[mid] on the diagonal
    # of the path; a draw whose only map is m_{01} has none
    nondegenerate = sum(any(i >= 1 and j == 1 for (i, j) in a.m)
                        for a in fixtures)
    assert nondegenerate == len(fixtures)
    for r in range(4):
        lam = lambda_r_dga(r, F)
        assert check_dainf(lam.algebra).ok
        for mor in (lam.iota, lam.p_minus, lam.p_plus):
            assert check_dainf_morphism(mor).ok
        delta, lam2, _ = diagonal_delta(r, F)
        assert collapse_after(delta, lam2, "+") == identity_dainf(lam2.algebra)
        assert collapse_after(delta, lam2, "-") == \
            compose_dainf(lam2.iota, lam2.p_minus)
        for a in fixtures:
            # path_dainf itself raises unless the two constructions agree
            p = path_dainf(a, r)
            assert check_dainf(p.algebra).ok
            for mor in (p.iota, p.p_minus, p.p_plus):
                assert check_dainf_morphism(mor).ok
            assert compose_dainf(p.p_minus, p.iota) == identity_dainf(a)
            assert compose_dainf(p.p_plus, p.iota) == identity_dainf(a)
    _announce("Lambda_r and path coherence",
              f"r in {{0..3}}, {len(fixtures)} fixtures, {nondegenerate} "
              f"with a nonzero m_i1 (i >= 1), both constructions compared")


def test_dainf_composition_algebra():
    """Associativity and unit laws for the composition of dA-infinity
    morphisms sampled from the linear solution spaces.  Most instances
    use a closed vertical window (arities die early, composites stay
    small); a few rank-one instances keep the full arity growth."""
    triples = 0
    recipes = [dict(verts=(-1, 0), max_rank=2)] * 8 + \
        [dict(verts=(0, 2), max_rank=1)] * 3
    for seed, recipe in enumerate(recipes):
        rng = random.Random(80_000 + seed)
        a = random_zero_product_dainf(F, rng, cols=(0, 2), spots=3, **recipe)
        space = dainf_morphism_space(a, a, max_arity=2)
        ident = identity_dainf(a)
        for _ in range(5 if seed < 8 else 4):
            f = random_dainf_morphism(a, a, rng, space=space)
            g = random_dainf_morphism(a, a, rng, space=space)
            h = random_dainf_morphism(a, a, rng, space=space)
            assert compose_dainf(f, ident) == f
            assert compose_dainf(ident, f) == f
            lhs = compose_dainf(h, compose_dainf(g, f), check=False)
            rhs = compose_dainf(compose_dainf(h, g), f, check=False)
            assert lhs == rhs
            triples += 1
    assert triples >= 50
    _announce("dA-infinity composition algebra", f"{triples} triples")


def test_tot_bridge():
    """tot_dainf output passes the filtered A-infinity checker, including
    every filtration containment.  tot_dainf decides nothing about it, so
    this is where its output is decided, with
    test_filtration.py::test_tot_constructions_keep_the_axioms."""
    fixtures = []
    for r in range(4):
        fixtures.append(lambda_r_dga(r, F).algebra)
    fixtures.append(tensor_twisted_dga(lambda_r_dga(0, F).algebra,
                                       lambda_r_dga(1, F).algebra))
    # a nonzero m_{i1}, i >= 1, puts the Tot sign (-1)^{mn} and a
    # filtration shift into m_1; a draw whose only map is m_{01} has none
    for seed in range(10):
        rng = random.Random(90_000 + seed)
        a = random_zero_product_dainf(F, rng, **REF_SHAPES[1])
        assert any(i >= 1 for (i, _) in a.m)
        fixtures.append(a)
    nondegenerate = sum(any(i >= 1 and j == 1 for (i, j) in a.m)
                        for a in fixtures)
    for a in fixtures:
        fa = tot_dainf(a)
        rep = check_filtered_ainf(fa)
        assert rep.ok, str(rep)
    _announce("Tot bridge to filtered A-infinity",
              f"{len(fixtures)} fixtures incl. products, {nondegenerate} "
              f"with a nonzero m_i1 (i >= 1)")


def test_operadic_oracle(ref_corpus):
    """Coderivation identity verdict == direct homotopy verdict == r-path
    verdict on valid and corrupted witnesses, stable under enlarging the
    truncation."""
    agree = 0
    valid = invalid = 0
    for idx, a in enumerate(ref_corpus):
        rng = random.Random(100_000 + idx)
        r = idx % 3
        f = random_endo_morphism(a, rng)
        g, h = random_homotopic_pair(f, r, rng)
        n0 = default_truncation(h)
        assert homotopy_verdict(h) is True
        assert check_coderh(h, n0) is True
        assert check_coderh(h, n0 + 3) is True
        agree += 2
        valid += 1
        bad = corrupt_homotopy(h)
        if bad is not None:
            expected = homotopy_verdict(bad)
            assert expected is False
            assert check_coderh(bad, n0) is expected
            assert check_coderh(bad, n0 + 3) is expected
            agree += 2
            invalid += 0 if expected else 1
        triv = RHomotopy(r, f, f, {})
        assert homotopy_verdict(triv) is True
        assert check_coderh(triv, default_truncation(triv)) is True
        agree += 1
        valid += 1
    assert valid and invalid and valid + invalid >= 100
    _announce("operadic coderivation oracle",
              f"{valid} valid + {invalid} corrupted-invalid witnesses on "
              f"{len(ref_corpus)} complexes with d_m != 0 for some m >= 1, "
              f"{agree} verdict agreements incl. N+3 stability")


def test_hmk_consistency(ref_corpus):
    """Direct (H_mk) evaluation agrees with the assembled-morphism route
    (conftest.dainf_homotopy_verdict) on valid and corrupted dA-infinity
    homotopy candidates, and on the arity-one ones with both routes of
    the twisted checker."""
    checked = 0
    outcomes = {True: 0, False: 0}
    # arity-one candidates lifted from twisted witnesses
    for idx, a_tc in enumerate(ref_corpus[:32]):
        rng = random.Random(110_000 + idx)
        r = idx % 2
        alg = DAInfAlgebra(a_tc.module, {(i, 1): dm for i, dm in a_tc.d.items()})
        tf = random_endo_morphism(a_tc, rng)
        tg, th = random_homotopic_pair(tf, r, rng)
        f = DAInfMorphism(alg, alg, {(i, 1): m for i, m in tf.f.items()})
        g = DAInfMorphism(alg, alg, {(i, 1): m for i, m in tg.f.items()})
        h = DAInfHomotopy(r, f, g, {(i, 1): m for i, m in th.h.items()})
        ok = dainf_homotopy_verdict(h)
        assert ok and homotopy_verdict(th)
        outcomes[ok] += 1
        checked += 1
        bad_tw = corrupt_homotopy(th)
        if bad_tw is not None:
            bad = DAInfHomotopy(r, f, g, {(i, 1): m
                                          for i, m in bad_tw.h.items()})
            verdict = dainf_homotopy_verdict(bad)
            assert verdict == homotopy_verdict(bad_tw)
            assert not verdict
            outcomes[verdict] += 1
            checked += 1
    # candidates with genuine products: the diagonal homotopy on paths of
    # algebras drawn in the dainf-fp compose shape, every one of which has
    # a nonzero structure map (spots=3 drew none on these seeds)
    nondegenerate = 0
    for idx in range(6):
        rng = random.Random(120_000 + idx)
        r = idx % 2
        a = random_zero_product_dainf(F, rng, cols=(0, 1), verts=(0, 2),
                                      max_rank=1, spots=60)
        assert a.m
        nondegenerate += 1
        h = _diagonal_homotopy(a, r)
        assert dainf_homotopy_verdict(h)
        outcomes[True] += 1
        checked += 1
        bad = corrupt_dainf_homotopy(h)
        if bad is not None:
            verdict = dainf_homotopy_verdict(bad)
            assert not verdict
            outcomes[verdict] += 1
            checked += 1
    assert checked >= 50 and outcomes[True] and outcomes[False]
    _announce("(H_mk) route consistency",
              f"{checked} candidates ({outcomes[True]} valid, "
              f"{outcomes[False]} invalid), 100% route agreement; the "
              f"arity-one ones on 32 complexes with d_m != 0 for some "
              f"m >= 1; {nondegenerate} of 6 diagonal homotopies on algebras "
              f"with nonzero structure maps")


def _diagonal_homotopy(a, r):
    """iota o p_minus ~_r id on P_r(a) through Delta (x) 1."""
    from multiplex.bigraded import (
        compose as bcompose, identity_map, leaf, node, tensor_maps, tree_iso,
    )
    pa = path_dainf(a, r)
    ppa = path_dainf(pa.algebra, r)
    delta, lam, _ = diagonal_delta(r, F)
    lam_mod = lam.algebra.module
    a_mod = a.module
    d01 = delta.f_map(0, 1)
    step1 = tensor_maps(d01, identity_map(a_mod))
    lt = node(node(leaf(lam_mod), leaf(lam_mod)), leaf(a_mod))
    rt = node(leaf(lam_mod), node(leaf(lam_mod), leaf(a_mod)))
    assoc = tree_iso(lt, rt)
    outer_src = tensor_maps(identity_map(lam_mod), pa.ident)
    f01 = bcompose(ppa.ident,
                   bcompose(outer_src,
                            bcompose(assoc,
                                     bcompose(step1,
                                              invert_strict_iso(pa.ident)))))
    f = compose_dainf(pa.iota, pa.p_minus)
    g = identity_dainf(pa.algebra)
    h01 = bcompose(ppa.p_zero, f01)
    return DAInfHomotopy(r, f, g, {(0, 1): h01})
