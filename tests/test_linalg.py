import random
import time
from bisect import bisect_left
from fractions import Fraction

import pytest

from conftest import (
    REF_SHAPES, AmbientSubquotient, ambient_induced_map, assert_canonical,
)

from multiplex.filtration import tot, tot_morphism
from multiplex.generators import random_endo_morphism, random_twisted_complex
from multiplex.linalg import (
    GF, QQ, Field, Matrix, SignedPerm, Subquotient, induced_map,
)
from multiplex.twisted import cone

FIELDS = [GF(), GF(5), QQ]
REF_FIELDS = [GF(32003), GF(5), GF(2), QQ]
PERM_FIELDS = [GF(32003), GF(2), QQ]


def rand_matrix(field, rows, cols, rng, bound=5):
    return Matrix(field, rows, cols,
                  [field.of_int(rng.randint(-bound, bound)) for _ in range(rows * cols)])


def test_rank_empty_and_identity():
    for f in FIELDS:
        assert Matrix.zero(f, 0, 0).rank() == 0
        assert Matrix.identity(f, 2).rank() == 2


def test_rank_dependent_rows_over_qq():
    m = Matrix.from_rows(QQ, [[1, 2], [2, 4]])
    # hand row reduction: second row is twice the first
    assert m.rank() == 1


def test_kernel_identity_and_zero():
    for f in FIELDS:
        assert Matrix.identity(f, 3).kernel_basis().cols == 0
        k = Matrix.zero(f, 3, 3).kernel_basis()
        assert k.cols == 3 and k.rank() == 3


def test_kernel_of_1x2_over_f5():
    # enumerate F_5^2 by brute force: kernel of [1 1] is {(t, -t)}
    f = GF(5)
    m = Matrix.from_rows(f, [[1, 1]])
    k = m.kernel_basis()
    assert k.cols == 1
    members = {(a, b) for a in range(5) for b in range(5)
               if (a + b) % 5 == 0 and (a, b) != (0, 0)}
    v = (k[0, 0], k[1, 0])
    assert v in members
    assert (m * k).is_zero()


def test_solve_cases():
    for f in FIELDS:
        b = Matrix.column(f, [f.of_int(3), f.of_int(-1)])
        assert Matrix.identity(f, 2).solve(b) == b
        assert Matrix.zero(f, 2, 2).solve(b) is None
    x = Matrix.from_rows(QQ, [[2]]).solve(Matrix.column(QQ, [QQ.of_int(1)]))
    assert x[0, 0] == QQ.parse("1/2")


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("seed", range(8))
def test_rank_nullity_and_solve_consistency(field, seed):
    rng = random.Random(seed)
    m = rand_matrix(field, rng.randint(0, 5), rng.randint(0, 5), rng)
    k = m.kernel_basis()
    assert m.rank() + k.cols == m.cols
    if k.cols:
        assert (m * k).is_zero()
    if m.rows and m.cols:
        b = rand_matrix(field, m.rows, 1, rng)
        x = m.solve(b)
        if x is None:
            assert m.hstack(b).rank() == m.rank() + 1
        else:
            assert m * x == b


def test_subquotient_dims():
    f = GF()
    i2, free = Matrix.identity(f, 2), [0, 1]
    for b, dim in ((Matrix.zero(f, 2, 0), 2), (i2, 0),
                   (Matrix.from_rows(f, [[1], [1]]), 1)):
        sq = Subquotient(i2, b, free)
        assert sq.dim == dim
        assert (sq.rep_basis, sq.dim) == _ref_subquotient(i2, b)


def test_subquotient_requires_inclusion():
    f = QQ
    z = Matrix.from_rows(f, [[1], [0]])
    b = Matrix.from_rows(f, [[0], [1]])
    for build in (lambda: Subquotient(z, b, [0]),
                  lambda: _ref_subquotient(z, b)):
        with pytest.raises(ValueError,
                           match="boundary span not contained in cycle span"):
            build()


def test_induced_map_identity_zero_and_collapse():
    f = GF()
    i2 = Matrix.identity(f, 2)
    b = Matrix.from_rows(f, [[1], [1]])
    sq = Subquotient(i2, b, [0, 1])
    assert (sq.rep_basis, sq.dim) == _ref_subquotient(i2, b)
    assert induced_map(i2, sq, sq) == Matrix.identity(f, 1)
    assert induced_map(Matrix.zero(f, 2, 2), sq, sq).is_zero()
    # collapsing everything into the boundary of the target induces zero
    collapse = Matrix.from_rows(f, [[1, 1], [1, 1]])
    # direct coset computation: image of both rep candidates is (2,2) = 2*(1,1), a boundary
    assert induced_map(collapse, sq, sq).is_zero()


@pytest.mark.parametrize("seed", range(6))
def test_induced_map_composes(seed):
    rng = random.Random(100 + seed)
    f = GF(7)
    n = 4
    amb = Matrix.identity(f, n)
    b = rand_matrix(f, n, 1, rng)
    sq = Subquotient(amb, b, list(range(n)))
    assert (sq.rep_basis, sq.dim) == _ref_subquotient(amb, b)
    # endomorphisms preserving everything trivially (Z = ambient)
    g1 = rand_matrix(f, n, n, rng)
    g2 = rand_matrix(f, n, n, rng)
    # force boundary preservation: conjugate-free trick, use maps sending b to a multiple
    g1 = g1 - (g1 * b - b.scale(f.of_int(2))) * _dual_row(f, b, n)
    g2 = g2 - (g2 * b - b.scale(f.of_int(3))) * _dual_row(f, b, n)
    m1 = induced_map(g1, sq, sq)
    m2 = induced_map(g2, sq, sq)
    m21 = induced_map(g2 * g1, sq, sq)
    assert m21 == m2 * m1


def _dual_row(f, b, n):
    """A row r with r*b = 1, for the rank-one correction in the test above."""
    for i in range(n):
        if b[i, 0]:
            row = Matrix.zero(f, 1, n)
            row[0, i] = f.inv(b[i, 0])
            assert_canonical(f, row.data)  # never a float
            return row
    raise AssertionError("zero column")


# -- reference implementations -------------------------------------------
# Element-by-element Gauss-Jordan through Field.add/mul/sub, and the greedy
# one-rank-per-column Subquotient construction.  The fast paths in linalg
# must agree with these entry by entry (reduced row echelon form is
# canonical, and so is "first columns of Z independent mod B").

def _ref_echelon(self):
    f = self.field
    m = self.copy()
    pivots = []
    r = 0
    for c in range(m.cols):
        pr = None
        for rr in range(r, m.rows):
            if m.data[rr * m.cols + c]:
                pr = rr
                break
        if pr is None:
            continue
        if pr != r:
            for j in range(m.cols):
                m.data[r * m.cols + j], m.data[pr * m.cols + j] = \
                    m.data[pr * m.cols + j], m.data[r * m.cols + j]
        piv = f.inv(m.data[r * m.cols + c])
        assert_canonical(f, [piv])  # never a float
        for j in range(c, m.cols):
            m.data[r * m.cols + j] = f.mul(piv, m.data[r * m.cols + j])
        for rr in range(m.rows):
            if rr == r:
                continue
            factor = m.data[rr * m.cols + c]
            if factor:
                for j in range(c, m.cols):
                    m.data[rr * m.cols + j] = f.sub(
                        m.data[rr * m.cols + j],
                        f.mul(factor, m.data[r * m.cols + j]))
        pivots.append(c)
        r += 1
        if r == m.rows:
            break
    return m, pivots


def _ref_rank(m):
    return len(_ref_echelon(m)[1])


def _ref_subquotient(Z, B):
    """(rep_basis, dim) by the greedy per-column rank test."""
    rkZ = _ref_rank(Z)
    if _ref_rank(Z.hstack(B)) != rkZ:
        raise ValueError("boundary span not contained in cycle span")
    rkB = _ref_rank(B)
    keep, base, rk = [], B, rkB
    for c in range(Z.cols):
        cand = base.hstack(Z.take_cols([c]))
        r2 = _ref_rank(cand)
        if r2 > rk:
            keep.append(c)
            base, rk = cand, r2
    assert len(keep) == rkZ - rkB
    return Z.take_cols(keep), rkZ - rkB


def _with_ref_echelon(monkeypatch, fn):
    with monkeypatch.context() as mp:
        mp.setattr(Matrix, "_echelon", _ref_echelon)
        return fn()


def _rand_low_rank(field, rows, cols, rank, rng):
    """rows x cols of rank <= rank, with repeated and dependent columns."""
    if rank == 0 or rows == 0 or cols == 0:
        return Matrix.zero(field, rows, cols)
    m = rand_matrix(field, rows, rank, rng) * rand_matrix(field, rank, cols, rng)
    for c in range(1, cols):
        if rng.random() < 0.25:           # a repeated column
            src = rng.randrange(c)
            for r in range(rows):
                m[r, c] = m[r, src]
    return m


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_echelon_kernel_solve_match_reference(field, seed, monkeypatch):
    rng = random.Random(7000 + seed)
    rows, cols = rng.randint(0, 7), rng.randint(0, 7)
    shapes = [rand_matrix(field, rows, cols, rng),
              _rand_low_rank(field, rows, cols, rng.randint(0, 3), rng)]
    for m in shapes:
        b = rand_matrix(field, rows, rng.randint(0, 2), rng)
        b_in_image = m * rand_matrix(field, cols, 1, rng)
        got = (m._echelon(), m.kernel_basis(), m.solve(b), m.solve(b_in_image))
        ref = _with_ref_echelon(monkeypatch, lambda: (
            m._echelon(), m.kernel_basis(), m.solve(b), m.solve(b_in_image)))
        (ech, piv), *rest = got
        (ref_ech, ref_piv), *ref_rest = ref
        assert piv == ref_piv
        assert ech.data == ref_ech.data
        assert rest == ref_rest
        assert got[3] is not None


def _rand_rational_matrix(rows, cols, rng, big, zero_row=False):
    """A QQ matrix with zeros, denominators up to 50 and numerators of up
    to 40 digits if big, with one zero row if zero_row is set."""
    bound = 10 ** 40 if big else 60
    m = Matrix(QQ, rows, cols,
               [Fraction(rng.randint(-bound, bound), rng.randint(1, 50))
                if rng.random() < 0.7 else Fraction(0)
                for _ in range(rows * cols)])
    if zero_row and rows:
        r = rng.randrange(rows)
        m.data[r * cols:(r + 1) * cols] = [Fraction(0)] * cols
    return m


@pytest.mark.parametrize("seed", range(16))
def test_qq_elimination_with_fractions_matches_reference(seed, monkeypatch):
    rng = random.Random(7500 + seed)
    rows, cols, big = rng.randint(2, 8), rng.randint(1, 8), seed % 2 == 1
    full = _rand_rational_matrix(rows, cols, rng, big, zero_row=True)
    low = _rand_rational_matrix(rows, 2, rng, big, zero_row=True) * \
        _rand_rational_matrix(2, cols, rng, big)
    square = Matrix.identity(QQ, cols).scale(Fraction(7, 3)) + \
        _rand_rational_matrix(cols, cols, rng, big)
    assert any(v.denominator > 1 for v in full.data)
    for m in (full, low, square):
        b = _rand_rational_matrix(m.rows, 2, rng, big)
        b_in_image = m * _rand_rational_matrix(m.cols, 1, rng, big)

        def run():
            return (m._echelon(), m.kernel_basis(), m.solve(b),
                    m.solve(b_in_image), m.inverse())
        got = run()
        ref = _with_ref_echelon(monkeypatch, run)
        (ech, piv), *rest = got
        (ref_ech, ref_piv), *ref_rest = ref
        assert piv == ref_piv
        assert ech.data == ref_ech.data
        assert rest == ref_rest
        for mat in [ech] + [x for x in rest if x is not None]:
            _assert_canonical(mat)
        z, free = m.kernel()
        sq = Subquotient(z, z * _rand_rational_matrix(z.cols, 2, rng, big),
                         free)
        rep, dim = _ref_subquotient(sq.cycle_basis, sq.boundary_basis)
        assert (sq.rep_basis, sq.dim) == (rep, dim)
        _assert_canonical(sq.reduction)


def test_qq_entries_are_exact_and_canonical():
    """Field.inv divides exactly (1 / 2 would be the float 0.5, and
    Fraction(1, 2) == 0.5), and integral values are ints."""
    half = QQ.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    for got, want in ((QQ.inv(Fraction(1, 3)), 3), (QQ.inv(-1), -1),
                      (QQ.add(half, half), 1), (QQ.mul(half, 4), 2),
                      (QQ.sub(Fraction(5, 2), half), 2), (QQ.parse("6/2"), 3),
                      (QQ.mul(QQ.parse("-0.25"), 4), -1), (QQ.of_int(True), 1),
                      (QQ.zero(), 0), (QQ.one(), 1)):
        assert got == want and type(got) is int
    m = Matrix(QQ, 1, 3, [Fraction(3), Fraction(1, 2), Fraction(0)])
    assert m.data == [3, Fraction(1, 2), 0]
    assert [type(v) for v in m.data] == [int, Fraction, int]


def _unimodular(n, rng):
    """An integer n x n matrix of determinant +-1, so its inverse is
    integral too."""
    u = Matrix.identity(QQ, n)
    for _ in range(3 * n):
        e = Matrix.identity(QQ, n)
        if n > 1:
            i, j = rng.sample(range(n), 2)
            e[i, j] = rng.choice([-3, -2, -1, 1, 2, 3])
        if rng.random() < 0.2:
            e[0, 0] = -e[0, 0]
        u = u * e
    return u


@pytest.mark.parametrize("seed", range(8))
def test_qq_integral_results_of_fraction_inputs_are_ints(seed):
    """Rows of a unimodular matrix divided by 2..9 hold Fractions, but its
    RREF, inverse, kernel, a solution and products are integral: those
    entries are ints."""
    rng = random.Random(7700 + seed)
    n = rng.randint(1, 6)
    u = _unimodular(n, rng)
    d = Matrix(QQ, n, n)
    for i in range(n):
        d[i, i] = Fraction(1, rng.randint(2, 9))
    a = d * u
    assert all(any(type(v) is Fraction for v in a.row(r)) for r in range(n))
    x = rand_matrix(QQ, n, 2, rng)
    c = rand_matrix(QQ, n, 1, rng)
    ech, piv = a._echelon()
    inv = a.inverse()
    results = [ech, inv, a.solve(a * x), a * inv, inv * a,
               a.hstack(a * c).kernel_basis()]
    assert (ech, piv) == (Matrix.identity(QQ, n), list(range(n)))
    assert results[2] == x
    assert results[3] == results[4] == Matrix.identity(QQ, n)
    assert results[5] == Matrix(QQ, n + 1, 1, [-v for v in c.data] + [1])
    for m in results:
        assert all(type(v) is int for v in m.data)


def _subquotient_cases(field, rng):
    """(Z, B, free) with Z in kernel form: the kernel of a random low-rank
    matrix, with B in its span, and edge cases."""
    n = rng.randint(1, 7)
    z, free = _rand_low_rank(field, rng.randint(0, 4), n, rng.randint(0, 3),
                             rng).kernel()
    yield z, z * _rand_low_rank(field, z.cols, rng.randint(0, 5),
                                rng.randint(0, 3), rng), free
    yield z, Matrix.zero(field, n, 0), free                # empty B
    yield z, Matrix.zero(field, n, 2), free                # zero columns
    yield Matrix.zero(field, n, 0), Matrix.zero(field, n, 1), []  # empty Z
    yield Matrix.zero(field, 0, 0), Matrix.zero(field, 0, 2), []  # zero-row ambient
    yield z, z, free                                       # B = Z


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_subquotient_matches_reference(field, seed):
    rng = random.Random(8000 + seed)
    for z, b, free in _subquotient_cases(field, rng):
        sq = Subquotient(z, b, free)
        rep, dim = _ref_subquotient(z, b)
        assert sq.dim == dim
        assert sq.rep_basis == rep
        assert sq.rep_basis.rows == z.rows and sq.rep_basis.cols == dim


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_subquotient_rejects_boundary_outside_cycles(field, seed):
    rng = random.Random(9000 + seed)
    n = rng.randint(2, 6)
    # Z spans the first n-1 coordinates, B has a column off that span
    z = Matrix.identity(field, n).get_block(0, 0, n, n - 1)
    b = z * rand_matrix(field, n - 1, 2, rng)
    b[n - 1, rng.randrange(2)] = field.one()
    with pytest.raises(ValueError):
        _ref_subquotient(z, b)
    with pytest.raises(ValueError, match="boundary span not contained"):
        Subquotient(z, b, list(range(n - 1)))


def _kernel_form(field, rng):
    """(Z, free): Z is n x j with random entries, except that its rows
    free are the identity."""
    n = rng.randint(0, 8)
    j = rng.randint(0, n)
    free = sorted(rng.sample(range(n), j))
    z = rand_matrix(field, n, j, rng)
    for k, i in enumerate(free):
        z.data[i * j:(i + 1) * j] = [int(c == k) for c in range(j)]
    return z, free


def _boundary_in(z, rng):
    """Columns in span Z: unit coordinate columns (Z's own columns),
    repeated columns and low-rank combinations, shuffled."""
    field, j = z.field, z.cols
    coords = _rand_low_rank(field, j, rng.randint(0, 5), rng.randint(0, 3),
                            rng)
    units = [c for c in range(j) if rng.random() < 0.4]
    b = z.take_cols(units).hstack(z * coords)
    order = list(range(b.cols)) * 2
    rng.shuffle(order)
    return b.take_cols(order[:rng.randint(0, len(order))])


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(12))
def test_identity_row_subquotient_matches_reference(field, seed):
    """Z given with the rows on which it is the identity: the rep basis is
    read off in coordinates, and equals the reference, and reduce agrees
    with the ambient route."""
    rng = random.Random(8500 + seed)
    for _ in range(4):
        z, free = _kernel_form(field, rng)
        b = _boundary_in(z, rng)
        sq = Subquotient(z, b, free)
        rep, dim = _ref_subquotient(z, b)
        assert (sq.rep_basis, sq.dim) == (rep, dim)
        assert sq.cycle_basis is z and sq.boundary_basis == b
        v = z * rand_matrix(field, z.cols, 2, rng)
        assert sq.reduce(v) == AmbientSubquotient(z, b).reduce(v)


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(6))
def test_identity_row_subquotient_rejects_bad_input(field, seed):
    rng = random.Random(8700 + seed)
    z, free = _kernel_form(field, rng)
    while not z.cols or len(free) == z.rows:
        z, free = _kernel_form(field, rng)
    # a boundary column off span Z: the same error as the ambient route
    b = _boundary_in(z, rng)
    off = Matrix.zero(field, z.rows, 1)
    off[next(i for i in range(z.rows) if i not in free), 0] = field.one()
    off = off + z * rand_matrix(field, z.cols, 1, rng)
    for build in (lambda: Subquotient(z, b.hstack(off), free),
                  lambda: AmbientSubquotient(z, b.hstack(off))):
        with pytest.raises(ValueError, match="boundary span not contained"):
            build()
    with pytest.raises(ValueError):
        _ref_subquotient(z, b.hstack(off))
    # rows on which Z is not the identity
    other = next(i for i in range(z.rows) if i not in free)
    zero_row, scaled = z.copy(), z.copy()
    zero_row.data[other * z.cols:(other + 1) * z.cols] = [0] * z.cols
    scaled[free[0], 0] = field.of_int(2) if field.p != 2 else 0
    for bad_z, bad_free in ((zero_row, sorted([other] + free[1:])),
                            (z, free[1:]), (scaled, free)):
        with pytest.raises(ValueError, match="not the identity"):
            Subquotient(bad_z, Matrix.zero(field, z.rows, 0), bad_free)


# -- cycle coordinates against the ambient route ------------------------------
# Spectral page entries are kernel-form subquotients: Z from
# FilteredComplex.kernel, the boundaries its leading columns and d Z' for
# another kernel Z'.  They reduce and induce maps in cycle coordinates.  The
# reference is the ambient route (conftest.AmbientSubquotient): one echelon
# of [B | Z] for the rep columns, and a solve per reduction and per
# containment check.

def _page_entry_pairs(k, r):
    """((p, q), n, kernel-form E_r^{p,q}, its ambient reference) for each
    entry of page r of the filtered complex k."""
    for p, q in sorted(k.module.dims):
        n = q - p
        z, free = k.kernel(n, p - r, p)
        lead = bisect_left(free, k.cut(n, p - 1))
        z2, free2 = k.kernel(n - 1, p, p + r)
        b2 = k.d_mat(n - 1) * z2.get_block(
            0, 0, z2.rows, bisect_left(free2, k.cut(n - 1, p + r - 1)))
        yield ((p, q), n, Subquotient(z, b2, free, lead),
               AmbientSubquotient(z, z.get_block(0, 0, z.rows, lead)
                                  .hstack(b2)))


def _error_text(fn):
    with pytest.raises(ValueError) as exc:
        fn()
    return str(exc.value)


def _assert_same_failures(sq, ref, free, rng):
    """Each failure path gives the same ValueError text on both routes,
    for Z that is the identity on the rows free; returns the number of
    paths checked."""
    field, z = sq.field, sq.cycle_basis
    other = next((i for i in range(z.rows) if i not in set(free)), None)
    if other is None or not z.cols:
        return 0
    unit = Matrix.zero(field, z.rows, 1)
    unit[other, 0] = field.one()
    v = z * rand_matrix(field, z.cols, 1, rng) + unit
    off = Matrix.zero(field, z.rows, z.rows)
    off[other, free[0]] = field.one()      # sends column 0 of Z to e_other
    checks = [(lambda: sq.reduce(v), lambda: ref.reduce(v),
               "vector not in the cycle span"),
              (lambda: induced_map(off, sq, sq),
               lambda: ambient_induced_map(off, ref, ref),
               "map does not send cycles to cycles")]
    if sq.dim < z.cols:
        # the identity into Z / 0 sends the nonzero boundaries outside
        none = Matrix.zero(field, z.rows, 0)
        bare = Subquotient(z, none, sq.free_rows)
        bare_ref = AmbientSubquotient(z, none)
        one = Matrix.identity(field, z.rows)
        checks.append((lambda: induced_map(one, sq, bare),
                       lambda: ambient_induced_map(one, ref, bare_ref),
                       "map does not send boundaries to boundaries"))
    for got, want, text in checks:
        assert _error_text(got) == _error_text(want) == text
    return len(checks)


def _no_elimination(*args):
    raise AssertionError("kernel-form route eliminated")


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_cycle_coordinates_match_ambient_route(field, seed, monkeypatch):
    """Kernel-form page entries of REF_SHAPES complexes and of their
    1-cones agree with the ambient route on dim, rep_basis,
    boundary_basis, reduce(Z x) and the maps induced by a chain
    endomorphism, and fail with the same text.  Kernel-form reduce and
    induced_map neither solve nor eliminate."""
    rng = random.Random(9500 + seed)
    a = random_twisted_complex(field, rng, **REF_SHAPES[seed])
    complexes = [a, cone(random_endo_morphism(a, rng), 1).complex]
    failures = 0
    for c in complexes:
        k = tot(c)
        endo = tot_morphism(random_endo_morphism(c, rng, k), k, k)
        for r in range(3):
            for pq, n, sq, ref in _page_entry_pairs(k, r):
                z, f = sq.cycle_basis, endo.block(n)
                v = z * rand_matrix(field, z.cols, 2, rng)
                want = (ref.dim, ref.rep_basis, ref.boundary_basis,
                        ref.reduce(v), ambient_induced_map(f, ref, ref))
                with monkeypatch.context() as mp:
                    mp.setattr(Matrix, "solve", _no_elimination)
                    mp.setattr(Matrix, "_echelon", _no_elimination)
                    got = (sq.dim, sq.rep_basis, sq.boundary_basis,
                           sq.reduce(v), induced_map(f, sq, sq))
                assert got == want, (r, pq)
                failures += _assert_same_failures(sq, ref, sq.free_rows, rng)
    assert failures


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
def test_membership_refuses_rows_in_and_beyond_the_window(field):
    """A vector of span Z plus a unit on one non-free row is refused, as a
    boundary and by reduce, with the same texts, whether that row lies in
    the window of a page kernel (where Z has entries, when a kernel has
    such a row) or beyond F_t (where Z is zero); the unchanged vector is
    accepted.  Over the REF_SHAPES complexes, all three cases occur."""
    found = {"window": 0, "window with entries": 0, "beyond": 0}
    for shape in range(len(REF_SHAPES)):
        rng = random.Random(9900 + shape)
        k = tot(random_twisted_complex(field, rng, **REF_SHAPES[shape]))
        for p, q in sorted(k.module.dims):
            n = q - p
            for r in range(4):
                z, free = k.kernel(n, p - r, p)
                if not z.cols:
                    continue
                taken = set(free)
                window = [i for i in range(k.cut(n, p)) if i not in taken]
                entries = [i for i in window if any(z.row(i))]
                sq = Subquotient(z, Matrix.zero(field, z.rows, 0), free)
                for where, rows in (("window", entries or window),
                                    ("beyond", range(k.cut(n, p), z.rows))):
                    if not rows:
                        continue
                    v = z * rand_matrix(field, z.cols, 2, rng)
                    assert sq.reduce(v) == v.take_rows(free)
                    i = rng.choice(rows)
                    v[i, 1] = field.add(v[i, 1], field.one())
                    with pytest.raises(ValueError) as exc:
                        sq.reduce(v)
                    assert str(exc.value) == "vector not in the cycle span"
                    with pytest.raises(ValueError) as exc:
                        Subquotient(z, v, free)
                    assert str(exc.value) == \
                        "boundary span not contained in cycle span"
                    found[where] += 1
                    found["window with entries"] += i in entries
    assert all(found.values()), found


# -- primality of the modulus ----------------------------------------------

def test_large_prime_modulus_accepted_quickly():
    t0 = time.perf_counter()
    f = GF(2 ** 61 - 1)
    assert time.perf_counter() - t0 < 1.0
    assert f.mul(f.inv(f.of_int(3)), f.of_int(3)) == 1


@pytest.mark.parametrize("p", [0, 1, 4, 561, 3215031751, 2 ** 61 + 1,
                               2 ** 64 + 13, -7])
def test_non_prime_or_oversized_modulus_rejected(p):
    with pytest.raises(ValueError):
        GF(p)


def test_primality_agrees_with_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))
    for n in range(2000):
        ok = trial(n)
        if ok:
            assert Field("prime_field", n).p == n
        else:
            with pytest.raises(ValueError):
                Field("prime_field", n)


# -- signed permutations -------------------------------------------------------

def _rand_signed_perm(field, n, rng):
    targets = list(range(n))
    rng.shuffle(targets)
    return SignedPerm(field, targets, [rng.random() < 0.5 for _ in range(n)])


def _ref_dense(p):
    """The 0/+-1 matrix of a signed permutation, built entry by entry."""
    f = p.field
    m = Matrix.zero(f, p.rows, p.cols)
    for c in range(p.cols):
        m[p.targets[c], c] = f.of_int(-1) if p.neg[c] else f.one()
    return m


def _ref_mul(a, b):
    f = a.field
    out = Matrix.zero(f, a.rows, b.cols)
    for i in range(a.rows):
        for j in range(b.cols):
            acc = f.zero()
            for k in range(a.cols):
                acc = f.add(acc, f.mul(a[i, k], b[k, j]))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("field", PERM_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_signed_perm_products_match_dense(field, seed):
    rng = random.Random(500 + seed)
    n = rng.randint(0, 6)
    p = _rand_signed_perm(field, n, rng)
    q = _rand_signed_perm(field, n, rng)
    assert p.copy() == _ref_dense(p)
    m = rand_matrix(field, rng.randint(0, 4), n, rng)
    mt = rand_matrix(field, n, rng.randint(0, 4), rng)
    assert (m * p).to_rows() == _ref_mul(m, _ref_dense(p)).to_rows()
    assert (p * mt).to_rows() == _ref_mul(_ref_dense(p), mt).to_rows()
    pq = p * q
    assert isinstance(pq, SignedPerm)
    assert pq.copy() == _ref_mul(_ref_dense(p), _ref_dense(q))
    assert p.rank() == n
    assert p.is_zero() == (n == 0)


def test_signed_perm_is_immutable_and_copies_dense():
    f = GF(32003)
    p = SignedPerm(f, [2, 0, 1], [False, True, False])
    assert p._dense is None  # nothing dense until an entry is read
    with pytest.raises(TypeError):
        p[0, 0] = 1
    c = p.copy()
    assert type(c) is Matrix
    c[0, 0] = f.of_int(7)
    assert c[0, 0] == 7 and p[0, 0] == 0
    assert p[0, 1] == f.of_int(-1) and p[2, 0] == 1


# -- matrix arithmetic kernels against the per-entry reference ----------------
# The element-by-element Field-dispatch arithmetic that Matrix used before it
# had one kernel per field.  The kernels must agree with it entry by entry
# and keep every entry canonical.

def _ref_add(a, b):
    f = a.field
    return Matrix(f, a.rows, a.cols,
                  [f.add(x, y) for x, y in zip(a.data, b.data)])


def _ref_sub(a, b):
    f = a.field
    return Matrix(f, a.rows, a.cols,
                  [f.sub(x, y) for x, y in zip(a.data, b.data)])


def _ref_neg(a):
    f = a.field
    return Matrix(f, a.rows, a.cols, [f.neg(x) for x in a.data])


def _ref_scale(a, c):
    f = a.field
    return Matrix(f, a.rows, a.cols, [f.mul(c, x) for x in a.data])


def _ref_is_zero(a):
    z = a.field.zero()
    return all(v == z for v in a.data)


def _ref_gather(p, m):
    """m * p, column c = +-(column targets[c] of m), negating through Field."""
    f, n = m.field, m.cols
    out = []
    for r in range(m.rows):
        row = m.row(r)
        out.extend(f.neg(row[k]) if ng else row[k]
                   for k, ng in zip(p.targets, p.neg))
    return Matrix(f, m.rows, n, out)


def _ref_scatter(p, m):
    """p * m, row targets[c] = +-(row c of m), negating through Field."""
    f = m.field
    rows = [None] * p.rows
    for c, (r, ng) in enumerate(zip(p.targets, p.neg)):
        rows[r] = [f.neg(a) for a in m.row(c)] if ng else m.row(c)
    return Matrix(f, p.rows, m.cols, [v for row in rows for v in row])


def _assert_canonical(m):
    assert_canonical(m.field, m.data)


def _rand_entry(field, rng):
    if field.p:
        return rng.randrange(1, field.p)
    return Fraction(rng.randint(-40, 40) or 1, rng.randint(1, 9))


def _rand_density(field, rows, cols, density, rng):
    return Matrix(field, rows, cols,
                  [_rand_entry(field, rng) if rng.random() < density
                   else field.zero() for _ in range(rows * cols)])


def _kernel_operands(field, rng, rows, cols):
    """Zero-heavy, dense and all-zero matrices of one shape, plus operands
    that cancel them: the negation and, over F_p, entries summing to p."""
    ms = [_rand_density(field, rows, cols, d, rng) for d in (0.0, 0.2, 1.0)]
    a = ms[1]
    ms.append(_ref_neg(a))
    if field.p:
        ms.append(Matrix(field, rows, cols,
                         [field.p - v if v else v for v in a.data]))
    return ms


def _shapes(rng):
    n = rng.randint(1, 5)
    return [(rng.randint(1, 6), rng.randint(1, 6)), (0, n), (n, 0), (0, 0)]


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_arithmetic_kernels_match_reference(field, seed):
    rng = random.Random(6000 + seed)
    scalars = [field.zero(), field.one(), field.of_int(-1),
               _rand_entry(field, rng)]
    for rows, cols in _shapes(rng):
        ops = _kernel_operands(field, rng, rows, cols)
        for a in ops:
            assert a.is_zero() == _ref_is_zero(a)
            neg = -a
            _assert_canonical(neg)
            assert neg == _ref_neg(a)
            assert (a + neg).is_zero()
            for c in scalars:
                got = a.scale(c)
                _assert_canonical(got)
                assert got == _ref_scale(a, c)
            for b in ops:
                for got, ref in ((a + b, _ref_add(a, b)),
                                 (a - b, _ref_sub(a, b))):
                    _assert_canonical(got)
                    assert got == ref
                    assert got.is_zero() == _ref_is_zero(ref)
    if field.p:
        a = _rand_density(field, 3, 3, 1.0, rng)
        comp = Matrix(field, 3, 3, [field.p - v for v in a.data])
        assert (a + comp).data == [0] * 9   # every sum reaches p exactly


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_matmul_kernel_matches_reference(field, seed):
    rng = random.Random(6100 + seed)
    dims = [rng.randint(1, 6) for _ in range(3)] + [0]
    for r in dims:
        for k in dims:
            c = rng.choice(dims)
            for da in (0.0, 0.25, 1.0):
                a = _rand_density(field, r, k, da, rng)
                b = _rand_density(field, k, c, rng.choice((0.0, 0.3, 1.0)), rng)
                got = a * b
                _assert_canonical(got)
                assert (got.rows, got.cols) == (r, c)
                assert got == _ref_mul(a, b)
    # products whose terms cancel: a * [x; -x] summed over k
    a = Matrix(field, 1, 2, [field.one(), field.one()])
    x = _rand_density(field, 1, 3, 1.0, rng)
    b = Matrix(field, 2, 3, x.data + _ref_neg(x).data)
    got = a * b
    _assert_canonical(got)
    assert got.is_zero() and got == _ref_mul(a, b)


@pytest.mark.parametrize("field", REF_FIELDS, ids=str)
@pytest.mark.parametrize("seed", range(8))
def test_signed_perm_negation_matches_reference(field, seed):
    rng = random.Random(6200 + seed)
    n = rng.randint(1, 6)
    for neg in ([True] * n, [rng.random() < 0.5 for _ in range(n)]):
        targets = list(range(n))
        rng.shuffle(targets)
        p = SignedPerm(field, targets, neg)
        for other in (rng.randint(1, 4), 0):
            for d in (0.0, 0.2, 1.0):
                m = _rand_density(field, other, n, d, rng)
                got = m * p
                _assert_canonical(got)
                assert got == _ref_gather(p, m)
                mt = _rand_density(field, n, other, d, rng)
                got = p * mt
                _assert_canonical(got)
                assert got == _ref_scatter(p, mt)
