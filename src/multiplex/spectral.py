"""Column-filtration spectral sequence of a twisted complex.

Pages are computed from honest cycle subquotients of the totalization:

    Z_r^{p,n} = { x in F_p Tot^n : dx in F_{p-r} }
    E_r^{p,q} = Z_r^{p,q-p} / ( Z_{r-1}^{p-1} + d Z_{r-1}^{p+r-1} ),

with Z_{-1}^{s} = F_s.  Every entry keeps its representative lifts in
Tot coordinates, so the page differential is literally "apply d to a
lift and project"; the reported matrix carries the normalization
(-1)^{r n} (n = q - p), which is what makes the r <= 1 closed forms
come out on the nose (delta_0 = d_0 and delta_1 = H_{d_0}(d_1)).

Entries are indexed by (p, q) over the support of the underlying
bigraded module; everything else is zero (E_0 = A_p^q already vanishes
off the support and later pages are subquotients).

Kernels are shared between entries.  With s = p - r, Z_r^{p,n} is
{x in F_p Tot^n : dx in F_s}, the kernel of d^n from F_p Tot^n to
Tot^{n+1} / F_s, and the RREF kernel basis of a column prefix is a
column prefix of the RREF kernel basis of a wider one.  The complex
keeps one kernel per (n, s, t), ``FilteredComplex.kernel(n, s, t)``,
and on page r each entry reads its three cycle spaces off two of them,
both with t = s + r:

    Z_r^{p,n}           = kernel(n, p - r, p)
    Z_{r-1}^{p-1,n}     = kernel(n, p - r, p) cut to F_{p-1}
    Z_{r-1}^{p+r-1,n-1} = kernel(n - 1, p, p + r) cut to F_{p+r-1}

where kernel(n - 1, p, p + r) is Z_r^{p+r,n-1}, the cycles of another
entry.  For r = 0 both cuts are the F_{p-1} and F_{p+r-1} that Z_{-1}
stands for.  Since d^n keeps the filtration, only the columns in (s, t]
reach rows outside F_s, and each kernel eliminates that band alone.

A kernel basis is the identity on its free rows, so every entry works in
the coordinates of its cycle basis from construction to its last read.
The first boundary part is the leading columns of Z, with unit
coordinates; the second, d Z_{r-1}^{p+r-1}, has its free rows as
coordinates, checked by Z C == d Z_{r-1}^{p+r-1} on the other rows.  The
entry's ``Subquotient`` keeps one reduction matrix R, so reducing a page
differential, an induced map or a zig-zag class is a check on the
non-free rows and one product with R, with no solve (the zig-zag
adjustment itself still solves in Tot).  An induced map applies R once,
to the coordinates x of f Z, and reads the boundary check off R x.  The homology of a page is a
subquotient of the same kind, on the free rows of the kernel of the page
differential.

A question about dimensions alone needs no subquotient.  With
z_r^{s,n} = dim Z_r^{s,n} and n = q - p,

    dim E_r^{p,q} = z_r^{p,n} - z_{r-1}^{p-1,n}
                    - (z_{r-1}^{p+r-1,n-1} - z_r^{p+r-1,n-1}).

The two parts of the denominator meet in Z_{r-1}^{p-1} cap
d Z_{r-1}^{p+r-1} = d Z_r^{p+r-1}, and Z_{r-1}^{p+r-1} and Z_r^{p+r-1}
hold the same d-cycles, so the two images of d differ in dimension by
exactly z_{r-1}^{p+r-1} - z_r^{p+r-1}.  ``page_dim`` reads the first
three terms off the two kernels of ``page_entry`` (one column count and
two cuts) and the last as the column count of kernel(n - 1, p - 1,
p + r - 1), the cycles of the entry (p + r - 1, q + r - 2) of the same
page.

A ``SpectralPage`` is lazy on that count.  It counts every dimension when
it is made (at r = 0 it reads the module's, since E_0 = A), and builds an
entry's subquotient only when a reader asks for it, and the page
differentials only when they are read, at the pairs whose source and
target are both nonzero.  A built entry keeps every ``Subquotient`` check,
and its dimension is checked against the count.

Page 0 needs no entry for its differential.  E_0 is the associated graded,
E_0^{p,q} = F_p Tot^n / F_{p-1} Tot^n = A_p^q, and since d F_{p-1} lies in
F_{p-1}, the rep basis of page_entry there is the unit vectors of column
p.  So delta_0 from (p, q) is the block of D^n from column p to column p,
which is d_0 at (p, q), and ``delta`` reads it off D^n at r = 0.  The
entries of page 0 are still built on read, for the readers that ask
(``check_page_recursion`` and ``page_of_morphism``).

The cone detector counts E_{r+1} on Tot(C_r(f)), the mapping cone of
Tot(f) with the filtration of Tot(A) moved up by r.  ``tot_cone``
assembles it from the Tots of the source and target, which
``multiplex er-qis`` has already built and checked, with no bigraded cone,
and from Tot(f), which f holds (``TwistedMorphism.tot``).  ``er-qis``
decides (B_m) on those same Tots, and that check writes Tot(f), in one
pass over the blocks of f; the pages route reads the same Tot(f) through
``tot_morphism``.  So neither detector totalizes anything again.

Both the count and an unbuilt entry assume D^2 = 0 on Tot, which the
caller decides: ``multiplex spectral`` runs ``check_twisted`` on the Tot
its page reads (or ``check_filtered_complex`` on filtered input), and
``multiplex er-qis`` runs ``check_twisted`` on the Tot of the source and
of the target, then ``check_morphism`` on f, on those same Tots.  Both detectors take those
three facts as their precondition.  On the cone they give D^2 = 0: (A_m)
on C_r(f) holds exactly when it holds on A and on B and f satisfies
(B_m), so the cone detector forms no product D^{n+1} D^n.

An entry that no reader builds needs no B in Z
check: Z_{r-1}^{p-1,n} lies in Z_r^{p,n} because F_{p-1} lies in F_p,
and d Z_{r-1}^{p+r-1,n-1} does because d y lies in F_p for y in
Z_{r-1}^{p+r-1} and d d y = 0 lies in F_{p-r}.  The first is the
filtration, the second D^2 = 0, and ``page_dim``'s derivation already
assumes both.
"""

from __future__ import annotations

from bisect import bisect_left

from .filtration import FilteredComplex, tot, tot_cone, tot_morphism
from .linalg import Matrix, Subquotient, induced_map
from .twisted import TwistedComplex, TwistedMorphism

class SpectralPage:
    """The r-th page of the spectral sequence of the filtered complex k.

    Every dimension is counted when the page is made: by ``page_dim`` from
    kernel dimensions, or, at r = 0, read off the module, since E_0 = A.
    The rest is built on read and kept on the page.  ``entry(p, q)``
    builds the subquotient E_r^{p,q} with its lifts (``page_entry``) the
    first time it is asked for, and checks that its dimension is the
    counted one.  ``delta`` builds the page differentials the first time
    it is read, each only where its source and target are both nonzero,
    and so builds exactly the entries that meet such a pair; at r = 0 it
    reads delta_0 off D^n and builds none.

    Precondition: D^2 = 0 on k.  The counts and the unbuilt entries rest
    on it (module docstring); a built entry that disagrees with its count
    raises AssertionError.
    """

    __slots__ = ("r", "complex", "support", "_dims", "_entries", "_delta")

    def __init__(self, r: int, complex: FilteredComplex):
        self.r = r
        self.complex = complex
        self.support = sorted(complex.module.dims)
        self._dims = complex.module.dims if r == 0 else {
            (p, q): page_dim(complex, r, p, q) for p, q in self.support}
        self._entries = {}              # (p, q) -> Subquotient of Tot^{q-p}
        self._delta = None              # (p, q) -> nonzero Matrix

    def dim(self, p: int, q: int) -> int:
        return self._dims.get((p, q), 0)

    def dims(self) -> dict:
        return {pq: d for pq, d in sorted(self._dims.items()) if d}

    def entry(self, p: int, q: int) -> Subquotient:
        """E_r^{p,q} as a subquotient of Tot^{q-p} with representative
        lifts, built on the first call."""
        e = self._entries.get((p, q))
        if e is None:
            e = page_entry(self.complex, self.r, p, q)
            if e.dim != self.dim(p, q):
                raise AssertionError(
                    f"E_{self.r} entry at {(p, q)} has dimension {e.dim}, "
                    f"counted {self.dim(p, q)}")
            self._entries[(p, q)] = e
        return e

    @property
    def delta(self) -> dict:
        """(p, q) -> the nonzero matrix of delta_r from E_r^{p,q} to
        E_r^{p-r,q-r+1}, on the rep bases, built on the first read."""
        if self._delta is None:
            k, r = self.complex, self.r
            self._delta = {}
            for p, q in self.support:
                tgt = (p - r, q - r + 1)
                if not (self.dim(p, q) and self.dim(*tgt)):
                    continue
                n = q - p
                if r == 0:
                    # the rep basis of E_0^{p,q} = A_p^q is the unit
                    # vectors of column p, so delta_0 is the diagonal
                    # block of D^n there
                    r0, rows = k.layout(n + 1)[p]
                    c0, cols = k.layout(n)[p]
                    mat = k.d_mat(n).get_block(r0, c0, rows, cols)
                else:
                    mat = self.entry(*tgt).reduce(
                        k.d_mat(n) * self.entry(p, q).rep_basis)
                if (r * n) % 2:
                    mat = -mat
                if not mat.is_zero():
                    self._delta[(p, q)] = mat
        return self._delta

    def delta_mat(self, p: int, q: int) -> Matrix:
        m = self.delta.get((p, q))
        if m is None:
            m = Matrix.zero(self.complex.field,
                            self.dim(p - self.r, q - self.r + 1), self.dim(p, q))
        return m


def _leading(k: FilteredComplex, kernel: tuple, n: int, p: int) -> Matrix:
    """The columns of a kernel from FilteredComplex.kernel(n, s, t) that
    lie in F_p Tot^n, p <= t."""
    K, free = kernel
    return K.get_block(0, 0, K.rows, bisect_left(free, k.cut(n, p)))


def z_basis(k: FilteredComplex, r: int, p: int, n: int) -> Matrix:
    """Columns span Z_r^{p,n} in Tot^n coordinates (Z_{-1}^p = F_p)."""
    return k.kernel(n, p - r, p)[0]


def page_entry(k: FilteredComplex, r: int, p: int, q: int) -> Subquotient:
    """E_r^{p,q} as a subquotient of Tot^{q-p} with representative lifts."""
    n = q - p
    z, free = k.kernel(n, p - r, p)
    # Z_{r-1}^{p-1,n} = Z_r^{p,n} cut to F_{p-1}, the leading columns of z,
    # and Z_{r-1}^{p+r-1,n-1} = Z_r^{p+r,n-1} cut to F_{p+r-1}
    zb2 = _leading(k, k.kernel(n - 1, p, p + r), n - 1, p + r - 1)
    return Subquotient(z, k.d_mat(n - 1) * zb2, free,
                       bisect_left(free, k.cut(n, p - 1)))


def page_dim(k: FilteredComplex, r: int, p: int, q: int) -> int:
    """dim E_r^{p,q} from kernel dimensions alone (module docstring)."""
    n = q - p
    # the columns of a kernel number len(free); its cuts are bisections
    free = k.kernel(n, p - r, p)[1]
    top = k.kernel(n - 1, p, p + r)[1]
    return (len(free) - bisect_left(free, k.cut(n, p - 1))
            - bisect_left(top, k.cut(n - 1, p + r - 1))
            + len(k.kernel(n - 1, p - 1, p + r - 1)[1]))


def spectral_page(a: TwistedComplex | FilteredComplex, r: int,
                  k: FilteredComplex | None = None) -> SpectralPage:
    """Page r of a, on k = tot(a) where the caller has it.  D^2 = 0 is the
    caller's to decide (``SpectralPage``)."""
    if isinstance(a, FilteredComplex):
        k = a
    else:
        k = k or tot(a)
    return SpectralPage(r, k)


def page_of_morphism(f: TwistedMorphism, r: int,
                     src_page: SpectralPage | None = None,
                     dst_page: SpectralPage | None = None) -> dict:
    """Blocks of E_r(f) on the computed rep bases, indexed by (p, q)."""
    pa = src_page or spectral_page(f.src, r)
    pb = dst_page or spectral_page(f.dst, r)
    tf = tot_morphism(f, pa.complex, pb.complex)
    out = {}
    dst_support = set(pb.support)
    field = pa.complex.field
    for (p, q) in sorted(set(pa.support) | dst_support):
        sdim = pa.dim(p, q)
        if sdim == 0:
            out[(p, q)] = Matrix.zero(field, pb.dim(p, q), 0)
        elif (p, q) not in dst_support:
            # target page vanishes there; the induced map must be zero
            out[(p, q)] = Matrix.zero(field, 0, sdim)
        else:
            # built on both sides, also where the target is zero, so that
            # induced_map checks the containments
            out[(p, q)] = induced_map(tf.block(q - p), pa.entry(p, q),
                                      pb.entry(p, q))
    return out


def is_er_quasi_iso(f: TwistedMorphism, r: int,
                    src_k: FilteredComplex | None = None,
                    dst_k: FilteredComplex | None = None) -> bool:
    """True iff E_{r+1}(f) is blockwise invertible.  The pages are built
    on src_k = tot(f.src) and dst_k = tot(f.dst) where the caller has
    them.

    Precondition: f.src and f.dst satisfy (A_m) and f satisfies (B_m),
    which ``multiplex er-qis`` decides first."""
    pa = spectral_page(f.src, r + 1, src_k)
    # an endomorphism reads both sides off the one page
    pb = pa if f.dst is f.src else spectral_page(f.dst, r + 1, dst_k)
    blocks = page_of_morphism(f, r + 1, pa, pb)
    for (p, q), m in blocks.items():
        if m.rows != m.cols:
            return False
        if m.rows and not m.is_invertible():
            return False
    # entries outside the common support must be zero-dimensional on both sides
    for (p, q) in set(pa.support) ^ set(pb.support):
        if pa.dim(p, q) or pb.dim(p, q):
            return False
    return True


def is_er_quasi_iso_via_cone(f: TwistedMorphism, r: int,
                             src_k: FilteredComplex | None = None,
                             dst_k: FilteredComplex | None = None) -> bool:
    """True iff the r-cone is E_r-acyclic: E_{r+1}(C_r(f)) = 0, counted
    entry by entry on Tot(C_r(f)), which ``tot_cone`` assembles from
    src_k = tot(f.src) and dst_k = tot(f.dst) where the caller has them.

    Precondition: that of ``is_er_quasi_iso``, which makes D^2 = 0 on
    Tot(C_r(f)) (module docstring)."""
    src_k = src_k or tot(f.src)
    dst_k = dst_k or (src_k if f.dst is f.src else tot(f.dst))
    k = tot_cone(f, r, src_k, dst_k)
    return not any(page_dim(k, r + 1, p, q) for p, q in sorted(k.module.dims))


# ---------------------------------------------------------------------------
# page recursion: homology of page r vs page r+1
# ---------------------------------------------------------------------------

def page_homology(page: SpectralPage) -> dict:
    """Homology of (E_r, delta_r) at each (p, q), in page coordinates."""
    out = {}
    r = page.r
    for (p, q) in page.dims():
        ker, free = page.delta_mat(p, q).kernel()
        img_src = page.delta_mat(p + r, q + r - 1)
        out[(p, q)] = Subquotient(ker, img_src, free)
    return out


def check_page_recursion(a: TwistedComplex | FilteredComplex, r: int,
                         page_r: SpectralPage | None = None,
                         page_r1: SpectralPage | None = None):
    """Exact comparison of page r+1 against the homology of page r.

    Returns (ok, detail).  Verifies: dimensions agree; the canonical
    zig-zag map phi: H(E_r) -> E_{r+1} is invertible blockwise; and the
    page-(r+1) differential corresponds under phi to the differential
    computed through page-r reductions.
    """
    page = page_r or spectral_page(a, r)
    nxt = page_r1 or spectral_page(a, r + 1, page.complex)
    k = page.complex
    field = k.field
    hom = page_homology(page)
    keys = sorted(set(hom) | set(nxt.dims()))
    phi: dict = {}
    # (p, q) -> Tot lifts of the rep classes of H(E_r), adjusted into
    # Z_{r+1}: one zig-zag solve per entry, read by both loops
    lifts: dict = {}
    for (p, q) in keys:
        h = hom.get((p, q))
        hdim = h.dim if h else 0
        if hdim != nxt.dim(p, q):
            return False, f"dim mismatch at {(p, q)}: homology {hdim}, " \
                          f"page {nxt.dim(p, q)}"
        if hdim == 0:
            continue
        x = page.entry(p, q).rep_basis * h.rep_basis
        lifts[(p, q)] = _zigzag_adjust(k, page, p, q, x)
        mat = nxt.entry(p, q).reduce(lifts[(p, q)])
        if not mat.is_invertible():
            return False, f"zig-zag comparison map not invertible at {(p, q)}"
        phi[(p, q)] = mat
    # differential comparison: delta_{r+1} o phi = phi o delta~ where delta~
    # is computed from page-r data along the same zig-zag lifts
    for (p, q), x2 in lifts.items():
        n = q - p
        tgt_pq = (p - r - 1, q - r)
        tgt_h = hom.get(tgt_pq)
        tdim = tgt_h.dim if tgt_h else 0
        if tdim:
            wr = page.entry(*tgt_pq).reduce(k.d_mat(n) * x2)   # in E_r
            delta_t = tgt_h.reduce(wr)                         # in H(E_r)
        else:
            # where H(E_r) vanishes at the target, delta~ has no rows
            delta_t = Matrix.zero(field, 0, x2.cols)
        if ((r + 1) * n) % 2:
            delta_t = -delta_t
        lhs = nxt.delta_mat(p, q) * phi[(p, q)]
        rhs = (phi.get(tgt_pq, Matrix.zero(field, nxt.dim(*tgt_pq), tdim))
               * delta_t)
        if lhs != rhs:
            return False, f"delta mismatch at {(p, q)}"
    return True, ""


def _zigzag_adjust(k: FilteredComplex, page: SpectralPage, p: int, q: int,
                   x: Matrix) -> Matrix:
    """Given the columns x in Z_r^{p,n} whose delta_r classes vanish,
    return x - z2 in Z_{r+1}^{p,n} representing the same page-r classes.
    One solve serves every column: its particular solution is read off one
    reduced echelon form, column by column."""
    r = page.r
    n = q - p
    dx = k.d_mat(n) * x
    if dx.is_zero():
        return x
    # dx = z1 + d z2 with z1 in Z_{r-1}^{p-r-1, n+1}, z2 in Z_{r-1}^{p-1, n}
    zb1 = z_basis(k, r - 1, p - r - 1, n + 1)
    zb2 = z_basis(k, r - 1, p - 1, n)
    stacked = zb1.hstack(k.d_mat(n) * zb2)
    sol = stacked.solve(dx)
    if sol is None:
        raise AssertionError("zig-zag decomposition failed; class not closed")
    return x - zb2 * sol.get_block(zb1.cols, 0, zb2.cols, x.cols)
