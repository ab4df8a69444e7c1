"""Totalization: split filtered complexes and the bridge to twisted complexes.

Tot(A)^n collects the A_i^{n+i} with the column filtration
F_p Tot^n = (+)_{i<=p} A_i^{n+i}; everything here assumes finite support,
so products and sums coincide.  The differential of Tot carries the sign
(-1)^{mn} on the d_m-component applied in degree n, and the inverse
reading peels those signs off again:

    d(a)_j = sum_m (-1)^{mn} d_m(a_{j+m}),    d_m(a) = (-1)^{nm} d(a)_{i-m}.

Basis convention: Tot^n is ordered by ascending column index i, then by
the basis order inside A_i^{n+i}.  The same convention is reused for
tensor products of totalizations, where the column of a (x) b is the sum
of columns; with that ordering the lax-monoidal comparison map mu is
diagonal with entries (-1)^{k_1 n_2}.

Offset layout: ``tot_layout(module, n)`` is the table
i -> (offset, dim A_i^{n+i}) of Tot^n, so a matrix between totalizations
is a grid of blocks, column i to column i2.  Tot writes each d_m (or f_m)
as one signed block (``tot_matrix``), the inverse readings read the
nonzero blocks back (``tot_blocks``), and since columns ascend, F_p Tot^n
is a column prefix, so filtration checks are zero tests on prefixes.  The
layout, the block writer and the block reader live in ``bigraded``, since
the twisted-complex checkers decide their conditions on Tot too.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import compress

from .bigraded import (
    BigradedMap, BigradedModule, degrees_of, sum_module, tensor_modules,
    tensor_summands, tot_blocks, tot_layout, tot_matrix,
)
from .linalg import Matrix
from .reports import Report
from .twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_r_homotopy,
    cone_summands,
)


def tot_dim(module: BigradedModule, n: int) -> int:
    return sum(dim for _, dim in tot_layout(module, n).values())


def tot_basis(module: BigradedModule, n: int) -> list[tuple[int, int]]:
    """Ordered basis of Tot^n: (column i, index inside A_i^{n+i})."""
    return [(i, a) for i, (_, dim) in tot_layout(module, n).items()
            for a in range(dim)]


def _check_filtered(mat: Matrix, src: dict, dst: dict, shift: int,
                    what: str, violates: str):
    """ValueError unless mat has the shape of a map from the layout src to
    the layout dst and sends column i into columns <= i + shift.  The
    message names the first offending (i, i2) in row-major order: source
    columns ascend, so row block i2 is tested, row by row in place, on the
    column prefix of the columns i < i2 - shift, which ends at the offset
    of the first column i >= i2 - shift."""
    rows = sum(dim for _, dim in dst.values())
    cols = sum(dim for _, dim in src.values())
    if mat.rows != rows or mat.cols != cols:
        raise ValueError(f"{what} has shape {mat.rows}x{mat.cols}, "
                         f"expected {rows}x{cols}")
    keys, data = list(src), mat.data
    ends = [c0 for c0, _ in src.values()] + [cols]
    for i2, (r0, height) in dst.items():
        width = ends[bisect_left(keys, i2 - shift)]
        for r in range(r0 * cols, (r0 + height) * cols, cols):
            if any(data[r:r + width]):
                t = next(t for t in range(width) if data[r + t])
                i = next(i for i, (c0, dim) in src.items()
                         if c0 <= t < c0 + dim)
                raise ValueError(f"{violates}: column {i} hits column {i2}")


class FilteredComplex:
    """Split filtered cochain complex: splitting module + total differential."""

    __slots__ = ("module", "d", "_tots", "_kernels")

    def __init__(self, module: BigradedModule, d: dict[int, Matrix]):
        self.module = module
        self._tots = {}
        self._kernels = {}
        self.d = {}
        for n, mat in d.items():
            _check_filtered(
                mat, self.layout(n), self.layout(n + 1), 0,
                f"differential in degree {n}",
                f"differential violates the filtration in degree {n}")
            if not mat.is_zero():
                self.d[n] = mat

    @property
    def field(self):
        return self.module.field

    def layout(self, n: int) -> dict[int, tuple[int, int]]:
        return self._tot(n)[0]

    def dim(self, n: int) -> int:
        return self._tot(n)[1]

    def cut(self, n: int, p: int) -> int:
        """dim F_p Tot^n: the number of leading basis vectors of Tot^n in
        F_p, i.e. the offset of the first column beyond p."""
        _, _, cols, starts = self._tot(n)
        return starts[bisect_right(cols, p)]

    def _tot(self, n: int) -> tuple[dict, int, list, list]:
        """(tot_layout(module, n), dim Tot^n, its columns, their offsets
        followed by dim Tot^n), computed once per degree."""
        t = self._tots.get(n)
        if t is None:
            lay = tot_layout(self.module, n)
            starts = [off for off, _ in lay.values()]
            dim = sum(dim for _, dim in lay.values())
            t = self._tots[n] = (lay, dim, list(lay), starts + [dim])
        return t

    def kernel(self, n: int, s: int, t: int) -> tuple[Matrix, list[int]]:
        """(K, free): the columns of K are the RREF kernel basis of d^n
        from F_t Tot^n to Tot^{n+1} / F_s, so they span
        {x in F_t Tot^n : dx in F_s}, and K is the identity on the rows
        listed in free.  Computed once per (n, s, t).

        d^n keeps every F_i, so only its block from the columns in (s, t]
        to the rows in (s, t] can be nonzero: F_s is free.  K is written
        directly, as unit columns on F_s and, below them, the kernel of
        that window block; its rows beyond F_t are zero.

        Column c of K has its last nonzero entry on row free[c], so for
        t' <= t the kernel for (n, s, t') is the leading columns of K, those
        with free[c] < dim F_t' Tot^n."""
        key = (n, s, t)
        got = self._kernels.get(key)
        if got is None:
            top = self.cut(n, t)
            low = min(self.cut(n, s), top)
            r0 = self.cut(n + 1, s)
            rows = self.cut(n + 1, t) - r0
            if rows <= 0:
                # nothing of F_t leaves F_s: all of F_t is free
                low = top
            free = list(range(low))
            if top > low:
                ker, ker_free = self.d_mat(n).get_block(
                    r0, low, rows, top - low).kernel()
                free += [low + c for c in ker_free]
            j = len(free)
            data = [0] * (self.dim(n) * j)
            data[:low * (j + 1):j + 1] = [self.field.one()] * low
            if top > low:
                w, kd = ker.cols, ker.data
                for r in range(top - low):
                    base = (low + r) * j + low
                    data[base:base + w] = kd[r * w:(r + 1) * w]
            got = self._kernels[key] = Matrix._of(
                self.field, self.dim(n), j, data), free
        return got

    def basis(self, n: int) -> list[tuple[int, int]]:
        return tot_basis(self.module, n)

    def degrees(self) -> list[int]:
        return degrees_of(self.module)

    def d_mat(self, n: int) -> Matrix:
        m = self.d.get(n)
        if m is None:
            m = Matrix.zero(self.field, self.dim(n + 1), self.dim(n))
        return m

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        if self.module != other.module:
            return False
        ns = set(self.d) | set(other.d)
        return all(self.d_mat(n) == other.d_mat(n) for n in ns)

    def __repr__(self):
        return f"FilteredComplex(dims={dict(sorted(self.module.dims.items()))})"


def check_filtered_complex(k: FilteredComplex) -> Report:
    rep = Report("split filtered complex (d^2 = 0)")
    for n in k.degrees():
        rep.tick()
        if not (k.d_mat(n + 1) * k.d_mat(n)).is_zero():
            rep.fail(("degree", n), "d o d != 0")
    return rep


class FilteredMap:
    """Graded map between split filtered complexes.

    degree: shift of the total degree; shift: filtration allowance
    (image of column i lies in columns <= i + shift).
    """

    __slots__ = ("src", "dst", "degree", "shift", "blocks")

    def __init__(self, src: FilteredComplex, dst: FilteredComplex,
                 degree: int, shift: int, blocks: dict[int, Matrix]):
        self.src = src
        self.dst = dst
        self.degree = degree
        self.shift = shift
        self.blocks = {}
        for n, mat in blocks.items():
            _check_filtered(
                mat, src.layout(n), dst.layout(n + degree), shift,
                f"map block in degree {n}",
                f"map violates its filtration allowance {shift} "
                f"in degree {n}")
            if not mat.is_zero():
                self.blocks[n] = mat

    @property
    def field(self):
        return self.src.field

    def block(self, n: int) -> Matrix:
        m = self.blocks.get(n)
        if m is None:
            m = Matrix.zero(self.field, self.dst.dim(n + self.degree),
                            self.src.dim(n))
        return m

    def __eq__(self, other):
        if not isinstance(other, FilteredMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst \
                or self.degree != other.degree:
            return False
        ns = set(self.blocks) | set(other.blocks)
        return all(self.block(n) == other.block(n) for n in ns)

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        ns = set(self.blocks) | set(other.blocks)
        return FilteredMap(self.src, self.dst, self.degree,
                           max(self.shift, other.shift),
                           {n: self.block(n) + other.block(n) for n in ns})

    def __sub__(self, other):
        return self + other.scale(self.field.of_int(-1))

    def scale(self, c):
        return FilteredMap(self.src, self.dst, self.degree, self.shift,
                           {n: m.scale(c) for n, m in self.blocks.items()})

    def is_zero(self):
        return not self.blocks

    def compose(self, other: "FilteredMap") -> "FilteredMap":
        """self after other."""
        if other.dst != self.src:
            raise ValueError("source/target mismatch")
        blocks = {}
        for n, m in other.blocks.items():
            s = self.blocks.get(n + other.degree)
            if s is not None:
                blocks[n] = s * m
        return FilteredMap(other.src, self.dst, self.degree + other.degree,
                           self.shift + other.shift, blocks)

    def chain_defect(self) -> "FilteredMap":
        """d o F - (-1)^{degree} F o d (zero exactly for maps of complexes)."""
        sgn = -1 if self.degree % 2 else 1
        ns = set(self.src.degrees()) | set(self.blocks)
        blocks = {}
        for n in ns:
            a = self.dst.d_mat(n + self.degree) * self.block(n)
            b = self.block(n + 1) * self.src.d_mat(n)
            m = a - b if sgn > 0 else a + b
            if not m.is_zero():
                blocks[n] = m
        return FilteredMap(self.src, self.dst, self.degree + 1,
                           self.shift, blocks)

    def check_chain_map(self) -> Report:
        rep = Report("filtered chain map")
        defect = self.chain_defect()
        for n in sorted(set(self.src.degrees()) | set(self.blocks)):
            rep.tick()
            if n in defect.blocks:
                rep.fail(("degree", n), "does not commute with the differentials")
        return rep


def identity_filtered(k: FilteredComplex) -> FilteredMap:
    return FilteredMap(k, k, 0, 0,
                       {n: Matrix.identity(k.field, k.dim(n))
                        for n in k.degrees() if k.dim(n)})


# ---------------------------------------------------------------------------
# Tot and its inverse
# ---------------------------------------------------------------------------

def tot(a: TwistedComplex) -> FilteredComplex:
    """d(x)_j = sum_m (-1)^{mn} d_m(x_{j+m}) on Tot^n."""
    module = a.module
    return FilteredComplex(module, {
        n: tot_matrix(a.d, 0, n, tot_layout(module, n),
                       tot_layout(module, n + 1), a.field)
        for n in degrees_of(module)})


def tot_family(family: dict[int, BigradedMap], u: int, v: int,
               src: FilteredComplex, dst: FilteredComplex,
               extra_sign: int = 1) -> FilteredMap:
    """Enriched Tot of a map family of overall bidegree (u, v):
    (Tot(f)(a))_{j+u} = sum_m (-1)^{(m+u)n} f_m(a_{j+m}) for a in Tot^n.

    extra_sign multiplies every block (used for homotopy normalization).
    """
    deg = v - u
    return FilteredMap(src, dst, deg, u, {
        n: tot_matrix(family, u, n, src.layout(n), dst.layout(n + deg),
                       src.field, 1 if extra_sign < 0 else 0)
        for n in src.degrees()})


def _tot_split(blocks: dict[int, Matrix], src: FilteredComplex,
               dst: FilteredComplex, u: int, v: int, extra: int,
               below: str) -> dict[int, BigradedMap]:
    """Inverse reading of Tot for a family of overall bidegree (u, v): the
    block from column i to column i2 of the degree-n matrix is
    (-1)^{(m+u)n + extra} times the block of f_m at (i, n + i), with
    m = i - i2 + u; m < 0 raises ValueError(below)."""
    per_m: dict[int, dict] = {}
    for n, mat in sorted(blocks.items()):
        for i, i2, blk in tot_blocks(mat, src.layout(n),
                                     dst.layout(n + v - u)):
            m = i - i2 + u
            if m < 0:
                raise ValueError(below)
            per_m.setdefault(m, {})[(i, n + i)] = \
                -blk if ((m + u) * n + extra) % 2 else blk
    return {m: BigradedMap(src.module, dst.module, (u - m, v - m), blocks)
            for m, blocks in per_m.items()}


def tot_morphism(f: TwistedMorphism, src_k: FilteredComplex | None = None,
                 dst_k: FilteredComplex | None = None) -> FilteredMap:
    """Tot(f), a chain map when f is a morphism: D_B Tot(f) - Tot(f) D_A
    is the (B_m) defect of f, block by block (``twisted.check_morphism``)."""
    src_k = src_k or tot(f.src)
    dst_k = dst_k or tot(f.dst)
    return tot_family(f.f, 0, 0, src_k, dst_k)


def tot_cone(f: TwistedMorphism, r: int, ka: FilteredComplex,
             kb: FilteredComplex) -> FilteredComplex:
    """Tot(C_r(f)) assembled from ka = tot(f.src) and kb = tot(f.dst): it
    equals tot(cone_complex(f, r)), and is as unchecked for D^2 = 0.

    C_r(f)_i^j = A_{i-r}^{j-r+1} (+) B_i^j puts A first, so column i of
    Tot(C)^n is column i - r of Tot(A)^{n+1} followed by column i of
    Tot(B)^n, and the signs (-1)^{mn} that Tot puts on the D_m of the cone
    make

        D_C^n = [[(-1)^{r+1} D_A^{n+1},       0    ],
                 [(-1)^{rn+1} Tot(f)^{n+1}, D_B^n]].

    Each block is scattered into D_C^n through those index maps, over its
    nonzero rows and entries only."""
    if ka.module is not f.src.module or kb.module is not f.dst.module:
        raise ValueError("ka and kb are not the totalizations of the "
                         "source and target of f")
    module = sum_module(cone_summands(f, r))
    field, p = module.field, module.field.p

    def index_maps(n):
        """(Tot(A)^{n+1} -> Tot(C)^n, Tot(B)^n -> Tot(C)^n, dim Tot(C)^n),
        the maps as lists of positions."""
        la, lb = ka.layout(n + 1), kb.layout(n)
        ia, ib, off = [0] * ka.dim(n + 1), [0] * kb.dim(n), 0
        for i in sorted({i + r for i in la} | set(lb)):
            a0, da = la.get(i - r, (0, 0))
            ia[a0:a0 + da] = range(off, off + da)
            b0, db = lb.get(i, (0, 0))
            ib[b0:b0 + db] = range(off + da, off + da + db)
            off += da + db
        return ia, ib, off

    def scatter(data, width, mat, rows, cols, negate):
        vals, c = mat.data, mat.cols
        for i, at in enumerate(rows):
            row = vals[i * c:(i + 1) * c]
            if any(row):
                base = at * width
                for j in compress(range(c), row):
                    v = row[j]
                    if negate:
                        v = -v % p if p else -v
                    data[base + cols[j]] = v

    degs = degrees_of(module)
    index = {n: index_maps(n) for n in {*degs, *(n + 1 for n in degs)}}
    d = {}
    for n in degs:
        ia0, ib0, w = index[n]
        ia1, ib1, h = index[n + 1]
        data = [field.zero()] * (h * w)
        if n + 1 in ka.d:
            scatter(data, w, ka.d[n + 1], ia1, ia0, r % 2 == 0)
        scatter(data, w, tot_matrix(f.f, 0, n + 1, ka.layout(n + 1),
                                    kb.layout(n + 1), field),
                ib1, ia0, (r * n) % 2 == 0)
        if n in kb.d:
            scatter(data, w, kb.d[n], ib1, ib0, False)
        d[n] = Matrix._of(field, h, w, data)
    return FilteredComplex(module, d)


def tot_inverse(k: FilteredComplex) -> TwistedComplex:
    """d_m(a) = (-1)^{nm} d(a)_{i-m} for a in A_i^{n+i}.  A twisted
    complex when k passes ``check_filtered_complex``: tot of the result is
    k, and (A_m) is D^2 = 0 on it (``twisted.check_twisted``)."""
    return TwistedComplex(k.module, _tot_split(
        k.d, k, k, 0, 1, 0, "filtration violated by the differential"))


def tot_inverse_morphism(fmap: FilteredMap, src: TwistedComplex,
                         dst: TwistedComplex) -> TwistedMorphism:
    """f_m(a) = (-1)^{nm} f(a)_{i-m}; fmap must be a degree-0 filtered map
    from tot(src) to tot(dst).  A morphism when fmap is a chain map: Tot of
    the result is fmap, and its (B_m) defect is the chain-map defect of
    fmap, block by block (``tot_morphism``)."""
    if fmap.degree != 0 or fmap.shift > 0:
        raise ValueError("not a filtration-preserving degree-0 map")
    return TwistedMorphism(src, dst, _tot_split(
        fmap.blocks, fmap.src, fmap.dst, 0, 0, 0,
        "filtration violated by the map"))


# ---------------------------------------------------------------------------
# graded tensor of totalizations and the comparison map mu
# ---------------------------------------------------------------------------

def graded_tensor(k: FilteredComplex, l: FilteredComplex) -> FilteredComplex:
    """Tot(A) (x) Tot(B) with differential d (x) 1 + 1 (x) d (Koszul by
    total degree), presented as a split filtered complex over the tensor
    module (the basis orderings coincide, see module docstring)."""
    module = tensor_modules(k.module, l.module)
    field = module.field
    d = {}
    for n in degrees_of(module):
        src = tot_basis(module, n)
        dst = tot_basis(module, n + 1)
        if not src or not dst:
            continue
        sdec = _pair_decode(k.module, l.module, n)
        ddec_index = _pair_index(k.module, l.module, n + 1)
        kb = {m: k.basis(m) for m in set(degrees_of(k.module))}
        lb = {m: l.basis(m) for m in set(degrees_of(l.module))}
        kbi = {m: {key: idx for idx, key in enumerate(b)} for m, b in kb.items()}
        lbi = {m: {key: idx for idx, key in enumerate(b)} for m, b in lb.items()}
        mat = Matrix.zero(field, len(dst), len(src))
        for cc, (p, q, axi, s, t, bxi) in enumerate(sdec):
            n1 = q - p
            n2 = n - n1
            dk = k.d.get(n1)
            if dk is not None:
                col = kbi[n1][(p, axi)]
                for rr2, (p2, a2) in enumerate(kb.get(n1 + 1, [])):
                    v = dk[rr2, col]
                    if v:
                        tgt = ddec_index.get((p2, p2 + n1 + 1, a2, s, t, bxi))
                        if tgt is not None:
                            mat[tgt, cc] = field.add(mat[tgt, cc], v)
            dl = l.d.get(n2)
            if dl is not None:
                col = lbi[n2][(s, bxi)]
                sgn = -1 if n1 % 2 else 1
                for rr2, (s2, b2) in enumerate(lb.get(n2 + 1, [])):
                    v = dl[rr2, col]
                    if v:
                        if sgn < 0:
                            v = field.neg(v)
                        tgt = ddec_index.get((p, q, axi, s2, s2 + n2 + 1, b2))
                        if tgt is not None:
                            mat[tgt, cc] = field.add(mat[tgt, cc], v)
        if not mat.is_zero():
            d[n] = mat
    return FilteredComplex(module, d)


def _pair_decode(ma: BigradedModule, mb: BigradedModule, n: int):
    """Tot^n basis of the tensor module as (p, q, a, s, t, b) tuples."""
    out = []
    module = tensor_modules(ma, mb)
    for i in sorted({i for (i, j) in module.dims if j - i == n}):
        j = n + i
        for (p, q, da, db) in tensor_summands(ma, mb, i, j):
            for a in range(da):
                for b in range(db):
                    out.append((p, q, a, i - p, j - q, b))
    return out


def _pair_index(ma: BigradedModule, mb: BigradedModule, n: int):
    return {key: idx for idx, key in enumerate(_pair_decode(ma, mb, n))}


def graded_map_tensor(f: FilteredMap, g: FilteredMap) -> FilteredMap:
    """f (x) g with the total-degree Koszul rule:
    (f (x) g)(x (x) y) = (-1)^{deg(g)·deg(x)} f(x) (x) g(y)."""
    src = graded_tensor(f.src, g.src)
    dst = graded_tensor(f.dst, g.dst)
    field = src.field
    blocks = {}
    deg = f.degree + g.degree
    for n in src.degrees():
        sdec = _pair_decode(f.src.module, g.src.module, n)
        didx = _pair_index(f.dst.module, g.dst.module, n + deg)
        if not sdec or not didx:
            continue
        gsrc_bi = {m: {key: idx for idx, key in enumerate(g.src.basis(m))}
                   for m in set(degrees_of(g.src.module))}
        fsrc_bi = {m: {key: idx for idx, key in enumerate(f.src.basis(m))}
                   for m in set(degrees_of(f.src.module))}
        mat = Matrix.zero(field, len(didx), len(sdec))
        nonzero = False
        for cc, (p, q, a, s, t, b) in enumerate(sdec):
            n1 = q - p
            n2 = n - n1
            fb = f.blocks.get(n1)
            gb = g.blocks.get(n2)
            if fb is None or gb is None:
                continue
            sgn0 = -1 if (g.degree * n1) % 2 else 1
            fcol = fsrc_bi[n1][(p, a)]
            gcol = gsrc_bi[n2][(s, b)]
            for rr1, (p2, a2) in enumerate(f.dst.basis(n1 + f.degree)):
                v1 = fb[rr1, fcol]
                if not v1:
                    continue
                for rr2, (s2, b2) in enumerate(g.dst.basis(n2 + g.degree)):
                    v2 = gb[rr2, gcol]
                    if not v2:
                        continue
                    tgt = didx.get((p2, p2 + n1 + f.degree, a2,
                                    s2, s2 + n2 + g.degree, b2))
                    if tgt is None:
                        raise AssertionError("tensor image off basis")
                    v = field.mul(v1, v2)
                    if sgn0 < 0:
                        v = field.neg(v)
                    mat[tgt, cc] = field.add(mat[tgt, cc], v)
                    nonzero = True
        if nonzero:
            blocks[n] = mat
    return FilteredMap(src, dst, deg, f.shift + g.shift, blocks)


def mu(a: TwistedComplex, b: TwistedComplex,
       tot_a: FilteredComplex | None = None,
       tot_b: FilteredComplex | None = None) -> FilteredMap:
    """mu_{A,B}: Tot(A) (x) Tot(B) -> Tot(A (x) B),
    (a (x) b)_{k_1,k_2} -> (-1)^{k_1 n_2} a_{k_1} (x) b_{k_2}.

    With the shared basis ordering the map is diagonal; in the bounded
    (finite support) case it is an isomorphism of complexes when A and B
    are twisted (Tot is lax monoidal).
    """
    from .twisted import tensor
    ka = tot_a or tot(a)
    kb = tot_b or tot(b)
    src = graded_tensor(ka, kb)
    dst = tot(tensor(a, b))
    field = src.field
    blocks = {}
    for n in src.degrees():
        sdec = _pair_decode(a.module, b.module, n)
        if not sdec:
            continue
        mat = Matrix.zero(field, len(sdec), len(sdec))
        for cc, (p, q, _a, s, t, _b) in enumerate(sdec):
            n1 = q - p
            n2 = n - n1
            mat[cc, cc] = field.one() if (p * n2) % 2 == 0 else field.of_int(-1)
        blocks[n] = mat
    return FilteredMap(src, dst, 0, 0, blocks)


# ---------------------------------------------------------------------------
# order-r homotopies on totalizations
# ---------------------------------------------------------------------------

class OrderRHomotopy:
    """Cartan-Eilenberg homotopy of order r: degree -1, H(F_p) <= F_{p+r},
    with dH + Hd = g - f."""

    __slots__ = ("r", "f", "g", "h")

    def __init__(self, r: int, f: FilteredMap, g: FilteredMap, h: FilteredMap):
        if f.src != g.src or f.dst != g.dst:
            raise ValueError("f and g must be parallel")
        if h.degree != -1 or h.shift > r:
            raise ValueError("not an order-r homotopy candidate")
        self.r = r
        self.f = f
        self.g = g
        self.h = h


def check_order_homotopy(oh: OrderRHomotopy) -> Report:
    rep = Report(f"order-{oh.r} homotopy (dH + Hd = g - f)")
    h, f, g = oh.h, oh.f, oh.g
    for n in sorted(set(h.src.degrees()) | set(h.blocks)):
        lhs = h.dst.d_mat(n - 1) * h.block(n) + h.block(n + 1) * h.src.d_mat(n)
        rhs = g.block(n) - f.block(n)
        rep.tick()
        if lhs != rhs:
            rep.fail(("degree", n), "dH + Hd != g - f")
    return rep


def homotopy_to_tot(h: RHomotopy,
                    src_k: FilteredComplex | None = None,
                    dst_k: FilteredComplex | None = None) -> OrderRHomotopy:
    """Exact Cartan-Eilenberg form: H = (-1)^r Tot(hhat) (enriched Tot at
    bidegree (r, r-1)).  h is decided here; then dH + Hd = Tot(g) - Tot(f)
    holds on the nose, block by block the (H_m) of h."""
    check_r_homotopy(h).raise_if_failed()
    src_k = src_k or tot(h.src)
    dst_k = dst_k or tot(h.dst)
    hmap = tot_family(h.h, h.r, h.r - 1, src_k, dst_k,
                      extra_sign=-1 if h.r % 2 else 1)
    return OrderRHomotopy(h.r, tot_morphism(h.f, src_k, dst_k),
                          tot_morphism(h.g, src_k, dst_k), hmap)


def tot_to_homotopy(oh: OrderRHomotopy, f: TwistedMorphism,
                    g: TwistedMorphism) -> RHomotopy:
    """Inverse reading: hhat_m(a) = (-1)^{(m+r)n + r} H(a)_{i-m+r}.  oh is
    decided here; for morphisms f and g with Tot(f) and Tot(g) the ends of
    oh, (H_m) of the result is dH + Hd = Tot(g) - Tot(f) read block by
    block (``homotopy_to_tot``)."""
    check_order_homotopy(oh).raise_if_failed()
    r = oh.r
    return RHomotopy(r, f, g, _tot_split(
        oh.h.blocks, oh.h.src, oh.h.dst, r, r - 1, r,
        "homotopy exceeds its filtration allowance"))
