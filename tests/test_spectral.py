import random

import pytest

from conftest import (
    REF_SHAPES, AmbientSubquotient, ambient_induced_map, column_subquotient,
    page_to_column_coords,
)
from multiplex import io as mio
from multiplex import spectral
from multiplex.bigraded import BigradedMap, BigradedModule
from multiplex.cli import main
from multiplex.filtration import tot
from multiplex.generators import (
    random_endo_morphism, random_homotopic_pair, random_null_homotopic_map,
    random_twisted_complex,
)
from multiplex.linalg import GF, QQ, Matrix, Subquotient
from multiplex.spectral import (
    SpectralPage, check_page_recursion, is_er_quasi_iso,
    is_er_quasi_iso_via_cone, page_of_morphism, spectral_page,
)
from multiplex.twisted import (
    TwistedComplex, TwistedMorphism, check_morphism, check_twisted, compose,
    cone, cone_complex, identity_morphism, path, zero_morphism,
)

F = GF()


def test_trivial_differential_pages_constant():
    rng = random.Random(1)
    mod = BigradedModule(F, {(0, 0): 2, (1, 3): 1, (2, 1): 3})
    a = TwistedComplex(mod, {})
    for r in range(4):
        page = spectral_page(a, r)
        assert page.dims() == {k: v for k, v in mod.dims.items()}
        assert not page.delta


def test_acyclic_column():
    # A_0^0 -> A_0^1 via d_0 = 1: E_1 = 0
    mod = BigradedModule(F, {(0, 0): 1, (0, 1): 1})
    d0 = BigradedMap(mod, mod, (0, 1), {(0, 0): Matrix.identity(F, 1)})
    a = TwistedComplex(mod, {0: d0})
    assert spectral_page(a, 0).dims() == {(0, 0): 1, (0, 1): 1}
    assert not spectral_page(a, 1).dims()


def test_one_bigraded_complex_pages():
    # d_0 = 0, single nonzero d_1 (bidegree (-1, 0)): E_1 = E_0 with
    # delta_1 = d_1 blockwise, E_2 = homology of d_1
    mod = BigradedModule(F, {(0, 1): 1, (1, 1): 2, (2, 1): 1})
    d1 = BigradedMap(mod, mod, (-1, 0), {
        (1, 1): Matrix.from_rows(F, [[1, 0]]),
        (2, 1): Matrix.from_rows(F, [[0], [1]])})
    a = TwistedComplex(mod, {1: d1})
    assert check_twisted(a).ok
    p0 = spectral_page(a, 0)
    assert p0.dims() == dict(mod.dims)
    assert not p0.delta
    p1 = spectral_page(a, 1)
    assert p1.dims() == dict(mod.dims)
    # delta_1 matrices literally equal the d_1 blocks
    assert p1.delta_mat(1, 1) == Matrix.from_rows(F, [[1, 0]])
    assert p1.delta_mat(2, 1) == Matrix.from_rows(F, [[0], [1]])
    p2 = spectral_page(a, 2)
    # d_1 chain 0 -> R -> R^2 -> R -> 0 with these blocks is exact
    assert not p2.dims()


@pytest.mark.parametrize("seed", range(6))
def test_page_zero_and_one_closed_forms(seed):
    """E_0 = A with delta_0 = d_0; E_1 = H(A_p, d_0) with delta_1 = H(d_1)."""
    rng = random.Random(1300 + seed)
    a = random_twisted_complex(F, rng)
    p0 = spectral_page(a, 0)
    assert p0.dims() == {k: v for k, v in a.module.dims.items()}
    # page-0 rep bases are the column basis vectors in declaration order,
    # so delta_0 equals the d_0 blocks on the nose
    d0 = a.d_map(0)
    for (p, q) in a.module.support():
        assert p0.delta_mat(p, q) == d0.block(p, q)
    p1 = spectral_page(a, 1)
    d1 = a.d_map(1)
    for (p, q), n in a.module.dims.items():
        # independent oracle: H^q(A_p^*, d_0) via exact-linalg subquotients
        sq = column_subquotient(a, p, q)
        assert p1.dim(p, q) == sq.dim
        if sq.dim and p1.dim(p - 1, q):
            tsq = column_subquotient(a, p - 1, q)
            # H_{d_0}(d_1) on the same deterministic rep bases
            expected = ambient_induced_map(d1.block(p, q), sq, tsq)
            got = _page1_delta_in_column_coords(p1, p, q, sq, tsq)
            assert got == expected


def _page1_delta_in_column_coords(p1, p, q, sq, tsq):
    """Rewrite the computed delta_1 block through the canonical
    identification of E_1^{p,q} with ker/im inside the single column."""
    chg = page_to_column_coords(p1, p, q, sq)
    tchg = page_to_column_coords(p1, p - 1, q, tsq)
    inv = chg.inverse()
    assert inv is not None
    return tchg * p1.delta_mat(p, q) * inv


def _nondegenerate_draw(rng):
    """A complex of REF_SHAPES[1] with nonzero d_1 and d_2 and a nonzero
    page differential on some page r >= 1, which is asserted: a complex
    whose only nonzero map is d_0 has E_1 = E_infinity, and the page
    properties hold trivially on it."""
    a = random_twisted_complex(F, rng, **REF_SHAPES[1])
    assert not a.d_map(1).is_zero() and not a.d_map(2).is_zero()
    k = tot(a)
    assert any(spectral_page(k, r).delta for r in (1, 2, 3))
    return a


@pytest.mark.parametrize("seed", range(5))
def test_e1_of_morphism_closed_form(seed):
    """E_1(f) = H_{d_0}(f_0) on the canonical column coordinates."""
    rng = random.Random(2100 + seed)
    a = _nondegenerate_draw(rng)
    f = random_endo_morphism(a, rng)
    p1 = spectral_page(a, 1)
    blocks = page_of_morphism(f, 1, p1, p1)
    for (p, q) in a.module.support():
        sq = column_subquotient(a, p, q)
        if sq.dim == 0:
            continue
        chg = page_to_column_coords(p1, p, q, sq)
        inv = chg.inverse()
        assert inv is not None
        got = chg * blocks[(p, q)] * inv
        expected = ambient_induced_map(f.f_map(0).block(p, q), sq, sq)
        assert got == expected


@pytest.mark.parametrize("seed", range(5))
def test_delta_bidegree_and_square_zero(seed):
    rng = random.Random(1400 + seed)
    a = random_twisted_complex(F, rng)
    for r in range(4):
        page = spectral_page(a, r)
        for (p, q), m in page.delta.items():
            assert m.rows == page.dim(p - r, q - r + 1)
            nxt = page.delta_mat(p - r, q - r + 1) * m
            assert nxt.is_zero()


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("r", range(5))
def test_page_recursion(seed, r):
    rng = random.Random(1500 + seed)
    a = random_twisted_complex(F, rng)
    ok, detail = check_page_recursion(a, r)
    assert ok, detail


def _altered(page, dims=(), entries=(), delta=()):
    """A copy of page with some counts, built entries or deltas replaced."""
    bad = SpectralPage(page.r, page.complex)
    bad._dims = {**page._dims, **dict(dims)}
    bad._entries = {**page._entries, **dict(entries)}
    bad._delta = {**page.delta, **dict(delta)}
    return bad


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("seed", range(len(REF_SHAPES)))
def test_page_recursion_rejects_altered_pages(field, seed):
    """check_page_recursion accepts the true page r + 1 and rejects one
    with a nonzero delta entry scaled by 2, or with an entry that lost a
    rep column to its boundaries and is counted so."""
    rng = random.Random(2300 + seed)
    k = tot(random_twisted_complex(field, rng, **REF_SHAPES[seed]))
    scaled = 0
    for r in range(4):
        page, nxt = spectral_page(k, r), spectral_page(k, r + 1)
        assert check_page_recursion(k, r, page, nxt) == (True, "")
        for pq, m in sorted(nxt.delta.items())[:1]:
            bad = _altered(nxt, delta={pq: m.scale(field.of_int(2))})
            assert check_page_recursion(k, r, page, bad) == \
                (False, f"delta mismatch at {pq}")
            scaled += 1
        pq = next(iter(nxt.dims()))
        e = nxt.entry(*pq)
        lost = Subquotient(
            e.cycle_basis,
            e.boundary_basis.hstack(e.rep_basis.take_cols([0])),
            e.free_rows)
        assert lost.dim == e.dim - 1
        bad = _altered(nxt, dims={pq: lost.dim}, entries={pq: lost})
        assert check_page_recursion(k, r, page, bad) == \
            (False, f"dim mismatch at {pq}: homology {e.dim}, "
                    f"page {e.dim - 1}")
    assert scaled


@pytest.mark.parametrize("seed", range(4))
def test_page_of_morphism_identity_and_e0_e1(seed):
    rng = random.Random(1600 + seed)
    a = random_twisted_complex(F, rng)
    ident = identity_morphism(a)
    for r in (0, 1, 2):
        blocks = page_of_morphism(ident, r)
        page = spectral_page(a, r)
        for (p, q), m in blocks.items():
            assert m == Matrix.identity(F, page.dim(p, q))
    f = random_endo_morphism(a, rng)
    # E_0(f) = f_0 blockwise: page-0 coordinates are the column bases
    p0 = spectral_page(a, 0)
    blocks = page_of_morphism(f, 0, p0, p0)
    f0 = f.f_map(0)
    for (p, q) in a.module.support():
        assert blocks[(p, q)] == f0.block(p, q)


@pytest.mark.parametrize("seed", range(4))
def test_chain_map_property_of_induced_pages(seed):
    rng = random.Random(1700 + seed)
    a = _nondegenerate_draw(rng)
    f = random_endo_morphism(a, rng)
    for r in (0, 1, 2):
        page = spectral_page(a, r)
        blocks = page_of_morphism(f, r, page, page)
        for (p, q) in page.support:
            lhs = page.delta_mat(p, q) * blocks.get(
                (p, q), Matrix.zero(F, page.dim(p, q), page.dim(p, q)))
            tgt = (p - r, q - r + 1)
            rhs = blocks.get(tgt, Matrix.zero(F, page.dim(*tgt), page.dim(*tgt))) \
                * page.delta_mat(p, q)
            assert lhs == rhs


@pytest.mark.parametrize("r", [0, 1, 2])
def test_qis_basic_cases(r):
    rng = random.Random(1800 + r)
    a = random_twisted_complex(F, rng)
    assert is_er_quasi_iso(identity_morphism(a), r)
    if spectral_page(a, r + 1).dims():
        assert not is_er_quasi_iso(zero_morphism(a, a), r)
    # the path inclusion is an r-homotopy equivalence, hence an E_r-qis
    p = path(a, r)
    assert is_er_quasi_iso(p.iota, r)


@pytest.mark.parametrize("seed", range(3))
def test_er_qis_endomorphism_reads_one_page(seed, monkeypatch):
    # f: A -> A computes E_{r+1}(A) once; the same f into an equal copy of
    # A computes it twice, and both give the same blocks and verdict
    rng = random.Random(2000 + seed)
    a = random_twisted_complex(F, rng, spots=5)
    twin = TwistedComplex(a.module, dict(a.d))
    candidates = [random_endo_morphism(a, rng), identity_morphism(a),
                  zero_morphism(a, a), random_null_homotopic_map(a, a, rng)]
    calls = []
    page = spectral.spectral_page
    monkeypatch.setattr(spectral, "spectral_page",
                        lambda *args: calls.append(args[0]) or page(*args))
    for f in candidates:
        g = TwistedMorphism(a, twin, f.f)
        for r in (0, 1, 2):
            calls.clear()
            assert is_er_quasi_iso(f, r) == is_er_quasi_iso(g, r)
            assert [c is a for c in calls] == [True, True, False]
            pa, pb = page(a, r + 1), page(twin, r + 1)
            assert page_of_morphism(f, r + 1, pa, pa) == \
                page_of_morphism(g, r + 1, pa, pb)


@pytest.mark.parametrize("seed", range(6))
def test_cone_detection_agreement(seed):
    rng = random.Random(1900 + seed)
    a = _nondegenerate_draw(rng)
    candidates = [identity_morphism(a),
                  zero_morphism(a, a),
                  random_endo_morphism(a, rng),
                  random_null_homotopic_map(a, a, rng)]
    p = path(a, seed % 3)
    candidates.append(p.iota)
    candidates.append(compose(p.iota, p.p_minus))
    for f in candidates:
        for r in (0, 1, 2):
            assert is_er_quasi_iso(f, r) == is_er_quasi_iso_via_cone(f, r)


@pytest.mark.parametrize("field", [F, GF(5), GF(2), QQ], ids=str)
@pytest.mark.parametrize("shape", range(len(REF_SHAPES)))
def test_page_dim_counts_every_entry(field, shape):
    """page_dim equals the dimension of the page_entry subquotient at every
    bidegree of the support, zero entries included, on pages 0-4 of a
    REF_SHAPES draw with a nonzero d_m, m >= 1, and a nonzero page
    differential on some page r >= 1."""
    rng = random.Random(2400 + shape)
    a = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    assert any(m >= 1 for m in a.d)
    k = tot(a)
    support = sorted(k.module.dims)
    zeros = moving = 0
    for r in range(5):
        page = spectral_page(k, r)
        dims = [spectral.page_dim(k, r, p, q) for p, q in support]
        assert dims == [spectral.page_entry(k, r, p, q).dim
                        for p, q in support], r
        zeros += dims.count(0)
        moving += r >= 1 and bool(page.delta)
    assert zeros and moving


@pytest.mark.parametrize("r", [0, 1, 2])
def test_a_non_morphism_has_a_failing_cone_that_the_cli_refuses(r, tmp_path,
                                                                capsys):
    """An f failing (B_m) makes its cone fail (A_m), and the report names
    (A_m) blocks.  Neither the cone detector nor cone() decides that:
    `er-qis --via-cone` and `cone` decide (B_m) on f first, and exit 1
    with its report on stdout, writing nothing."""
    rng = random.Random(2500 + r)
    a = _nondegenerate_draw(rng)
    f0 = identity_morphism(a).f[0]
    (i, j), blk = next((key, blk) for key, blk in sorted(f0.blocks.items())
                       if any(a.d_map(0).block(*key).data))
    blk = blk.copy()
    blk[0, 0] = F.add(blk[0, 0], 1)
    g = TwistedMorphism(a, a, {0: BigradedMap(
        f0.src, f0.dst, (0, 0), {**f0.blocks, (i, j): blk})})
    morphism = check_morphism(g)
    assert not morphism.ok
    rep = check_twisted(cone_complex(g, r))
    assert str(rep).startswith("twisted complex axioms (A_m): FAILED")
    assert all(detail.startswith("(A_") for _, detail in rep.failures)
    path = tmp_path / "g.json"
    path.write_text(mio.document_json(F, {
        "A": mio.dump_twisted(F, a),
        "g": mio.dump_twisted_morphism(F, g, "A", "A")}))
    out = tmp_path / "cone.json"
    for argv in (["er-qis", "--via-cone"], ["cone", "-o", str(out)]):
        code = main([argv[0], str(path), "--name", "g", "-r", str(r)]
                    + argv[1:])
        assert (code, *capsys.readouterr()) == (1, f"{morphism}\n", "")
    assert not out.exists()


@pytest.mark.parametrize("seed", range(3))
def test_page_functorial(seed):
    rng = random.Random(2050 + seed)
    a = _nondegenerate_draw(rng)
    f = random_endo_morphism(a, rng)
    g = random_endo_morphism(a, rng)
    for r in (0, 1, 2):
        page = spectral_page(a, r)
        bf = page_of_morphism(f, r, page, page)
        bg = page_of_morphism(g, r, page, page)
        bgf = page_of_morphism(compose(g, f), r, page, page)
        for key in bgf:
            assert bgf[key] == bg[key] * bf[key]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("r", [0, 1, 2])
def test_homotopic_maps_same_next_page(seed, r):
    rng = random.Random(2000 + seed)
    a = _nondegenerate_draw(rng)
    f = random_endo_morphism(a, rng)
    g, h = random_homotopic_pair(f, r, rng)
    pf = page_of_morphism(f, r + 1)
    pg = page_of_morphism(g, r + 1)
    assert pf.keys() == pg.keys()
    for k in pf:
        assert pf[k] == pg[k]


# -- cross-check against the per-entry route ---------------------------------
# The reference builds every cycle basis with its own kernel_basis on the
# column prefix F_p and every entry as an AmbientSubquotient, which picks
# the rep columns by one echelon of [B | Z] and reduces by solving;
# spectral_page shares one kernel per (n, s, t) and reads the rep columns
# off in cycle coordinates.

def _ref_cut(k, n, p):
    return next((off for i, (off, _) in k.layout(n).items() if i > p),
                k.dim(n))


def _ref_z_basis(k, r, p, n):
    total = k.dim(n)
    fp = _ref_cut(k, n, p)
    f_p = Matrix.identity(k.field, total).get_block(0, 0, total, fp)
    first_bad = _ref_cut(k, n + 1, p - r)
    bad = k.dim(n + 1) - first_bad
    if r < 0 or not fp or not bad:
        return f_p
    return f_p * k.d_mat(n).get_block(first_bad, 0, bad, fp).kernel_basis()


def _ref_page(k, r):
    entries = {}
    for p, q in sorted(k.module.dims):
        n = q - p
        b = _ref_z_basis(k, r - 1, p - 1, n).hstack(
            k.d_mat(n - 1) * _ref_z_basis(k, r - 1, p + r - 1, n - 1))
        entries[(p, q)] = AmbientSubquotient(_ref_z_basis(k, r, p, n), b)
    delta = {}
    for (p, q), e in entries.items():
        tgt = entries.get((p - r, q - r + 1))
        if e.dim and tgt is not None and tgt.dim:
            mat = tgt.reduce(k.d_mat(q - p) * e.rep_basis)
            mat = -mat if (r * (q - p)) % 2 else mat
            if not mat.is_zero():
                delta[(p, q)] = mat
    return entries, delta


def _assert_pages_match_reference(k, pages):
    for r in pages:
        page = spectral_page(k, r)
        entries, delta = _ref_page(k, r)
        assert page.support == sorted(entries)
        for pq, ref in entries.items():
            got = page.entry(*pq)
            assert got.dim == ref.dim, (r, pq)
            assert got.rep_basis == ref.rep_basis, (r, pq)
            assert got.cycle_basis == ref.cycle_basis, (r, pq)
            assert got.boundary_basis == ref.boundary_basis, (r, pq)
        assert page.delta == delta, r
    # z_basis also serves the zig-zag of check_page_recursion, at r - 1
    for n in k.degrees():
        for p in range(min(k.layout(n), default=0) - 1,
                       max(k.layout(n), default=0) + 2):
            for r in range(-1, max(pages) + 1):
                assert spectral.z_basis(k, r, p, n) == \
                    _ref_z_basis(k, r, p, n), (r, p, n)


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("seed", range(len(REF_SHAPES)))
def test_pages_match_per_entry_reference(field, seed):
    rng = random.Random(2100 + seed)
    a = random_twisted_complex(field, rng, **REF_SHAPES[seed])
    _assert_pages_match_reference(tot(a), range(5))


@pytest.mark.parametrize("field", [F, QQ], ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_cone_page_matches_per_entry_reference(field, seed):
    rng = random.Random(2200 + seed)
    a = random_twisted_complex(field, rng, **REF_SHAPES[1])
    for f in (zero_morphism(a, a), random_null_homotopic_map(a, a, rng),
              random_endo_morphism(a, rng)):
        _assert_pages_match_reference(tot(cone(f, 1).complex), [2])


def test_seed7_instance_pages_match_per_entry_reference():
    """A seed-7 instance of total dimension 194 (Tot^n up to 29), pages
    0-3 over F_32003."""
    a = random_twisted_complex(F, random.Random(7), cols=(0, 8),
                               verts=(-3, 4), max_rank=5, spots=120)
    assert a.module.total_dim() == 194
    _assert_pages_match_reference(tot(a), range(4))


# -- lazy pages against an eager reference ------------------------------------
# SpectralPage counts its dims and builds entries and deltas on read.  The
# reference builds every entry of the support with page_entry and every
# delta when it is made, and reads its dims off the built entries.

class EagerPage:
    """Page r of k with every entry built up front, read as SpectralPage is."""

    def __init__(self, r, k):
        self.r, self.complex = r, k
        self.support = sorted(k.module.dims)
        self.entries = {pq: spectral.page_entry(k, r, *pq)
                        for pq in self.support}
        self.delta = {}
        for (p, q), e in self.entries.items():
            tgt = self.entries.get((p - r, q - r + 1))
            if e.dim and tgt is not None and tgt.dim:
                n = q - p
                mat = tgt.reduce(k.d_mat(n) * e.rep_basis)
                mat = -mat if (r * n) % 2 else mat
                if not mat.is_zero():
                    self.delta[(p, q)] = mat

    def dim(self, p, q):
        e = self.entries.get((p, q))
        return e.dim if e is not None else 0

    def dims(self):
        return {pq: e.dim for pq, e in self.entries.items() if e.dim}

    def entry(self, p, q):
        return self.entries[(p, q)]

    delta_mat = SpectralPage.delta_mat


def _bases(e):
    return e.rep_basis, e.cycle_basis, e.boundary_basis


@pytest.mark.parametrize("field", [F, GF(5), GF(2), QQ], ids=str)
@pytest.mark.parametrize("shape", range(len(REF_SHAPES)))
def test_lazy_pages_match_eager_reference(field, shape, monkeypatch):
    """On pages 0-4 of a REF_SHAPES draw with a nonzero d_m, m >= 1, and a
    nonzero page differential on some page r >= 1, the lazy page and the
    eager reference agree on the dims at every bidegree of the support, on
    delta, on the bases of every entry the lazy page built, on the blocks
    of a random endomorphism, on the page recursion check and on the
    E_r-quasi-isomorphism verdicts of four endomorphisms."""
    rng = random.Random(2600 + shape)
    a = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    b = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    assert any(m >= 1 for m in a.d) and any(m >= 1 for m in b.d)
    f = random_endo_morphism(a, rng)
    g = random_null_homotopic_map(a, b, rng)
    k, k_ref = tot(a), tot(a)
    moving = 0
    for r in range(5):
        page, ref = spectral_page(k, r), EagerPage(r, k_ref)
        assert page.support == ref.support
        assert [page.dim(*pq) for pq in page.support] == \
            [ref.dim(*pq) for pq in ref.support], r
        assert page.dims() == ref.dims()
        assert page.delta == ref.delta, r
        moving += r >= 1 and bool(ref.delta)
        assert page_of_morphism(f, r, page, page) == \
            page_of_morphism(f, r, ref, ref), r
        page_b = spectral_page(b, r)
        assert page_of_morphism(g, r, page, page_b) == \
            page_of_morphism(g, r, ref, EagerPage(r, tot(b))), r
        # induced_map ran, with its containment checks, wherever the
        # source is nonzero, also where the target is zero
        assert set(page.dims()) <= set(page._entries)
        assert set(page.dims()) & set(page_b.support) <= set(page_b._entries)
        assert check_page_recursion(k, r, page, spectral_page(k, r + 1)) == \
            check_page_recursion(k_ref, r, ref, EagerPage(r + 1, k_ref)), r
        assert page._entries
        for pq, e in page._entries.items():
            assert _bases(e) == _bases(ref.entry(*pq)), (r, pq)
    assert moving
    candidates = [f, identity_morphism(a), zero_morphism(a, a),
                  random_null_homotopic_map(a, a, rng)]
    lazy = [is_er_quasi_iso(g, r) for g in candidates for r in range(4)]
    monkeypatch.setattr(spectral, "spectral_page",
                        lambda a, r, k=None: EagerPage(r, k or tot(a)))
    assert lazy == [is_er_quasi_iso(g, r) for g in candidates
                    for r in range(4)]
    assert True in lazy and False in lazy


@pytest.mark.parametrize("r", range(5))
def test_page_builds_fewer_entries_than_its_support(r, monkeypatch):
    """Reading the dims and the deltas of page r of a REF_SHAPES[3] draw
    builds fewer subquotients than the page has bidegrees: none on page 0,
    which reads delta_0 off D^n, and on later pages once each the entries
    of the pairs whose source and target are both nonzero."""
    a = random_twisted_complex(F, random.Random(2700 + r), **REF_SHAPES[3])
    k = tot(a)
    built = []
    entry = spectral.page_entry
    monkeypatch.setattr(spectral, "page_entry",
                        lambda *args: built.append(args[2:]) or entry(*args))
    page = spectral_page(k, r)
    assert page.dims() and page.delta
    pairs = [((p, q), (p - r, q - r + 1)) for p, q in page.support
             if page.dim(p, q) and page.dim(p - r, q - r + 1)]
    assert sorted(built) == (
        sorted({pq for pair in pairs for pq in pair}) if r else [])
    assert len(built) < len(page.support)


@pytest.mark.parametrize("field", [F, GF(5), GF(2), QQ], ids=str)
@pytest.mark.parametrize("shape", range(len(REF_SHAPES)))
def test_delta_0_matches_the_page_entry_route(field, shape):
    """delta_0, read off D^n, equals the page_entry route, d applied to
    the rep lifts and reduced in the target entry, at every pair whose
    source and target are both nonzero, on a REF_SHAPES draw with a
    nonzero d_m, m >= 1, and a nonzero delta_0."""
    rng = random.Random(2930 + shape)
    a = random_twisted_complex(field, rng, **REF_SHAPES[shape])
    assert any(m >= 1 for m in a.d)
    k = tot(a)
    page = spectral_page(k, 0)
    assert page.delta
    for p, q in page.support:
        if page.dim(p, q) and page.dim(p, q + 1):
            src = spectral.page_entry(k, 0, p, q)
            tgt = spectral.page_entry(k, 0, p, q + 1)
            assert page.delta_mat(p, q) == \
                tgt.reduce(k.d_mat(q - p) * src.rep_basis), (p, q)


def test_entry_that_disagrees_with_its_count_raises(tmp_path, capsys,
                                                    monkeypatch):
    """A built entry whose dim is not the counted one raises AssertionError,
    and the CLI exits 1 with it as a failed internal check."""
    a = random_twisted_complex(F, random.Random(2800), **REF_SHAPES[1])
    path = tmp_path / "a.json"
    path.write_text(mio.document_json(F, {"A": mio.dump_twisted(F, a)}))
    k = tot(a)
    page = spectral_page(k, 1)
    pq = next(iter(page.dims()))
    page._dims[pq] += 1
    with pytest.raises(AssertionError, match="counted"):
        page.entry(*pq)
    count = spectral.page_dim
    monkeypatch.setattr(spectral, "page_dim",
                        lambda *args: count(*args) + 1)
    assert main(["spectral", str(path), "--page", "1"]) == 1
    assert capsys.readouterr().err.startswith(
        "failed: internal check: E_1 entry at ")
