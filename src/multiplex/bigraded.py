"""Bigraded modules and bidegree-graded maps with Koszul sign bookkeeping.

A bigraded module is a finite family of free summands A_i^j; a map of
bidegree (p,q) sends A_i^j to A_{i+p}^{j+q} and is stored as one matrix
block per populated source bidegree.  The scalar product of bidegrees
<x,y> = x1*y1 + x2*y2 drives every Koszul sign: moving a map g past an
element a costs (-1)^{<g,a>}.

Tensor products fix a deterministic summand ordering (lexicographic in the
bidegree of the left factor, then basis order); the summands and their
coordinate offsets are computed once per module pair, and a tensor of maps
visits only pairs of nonzero blocks.  Signed sums of maps, products,
tensors and insertions o (1^r (x) m (x) 1^t) of maps are accumulated in a
``MapSum``: sparse, unreduced entries per (key, source bidegree), reduced
once when the sums are read; ``tensor_maps`` is its one-term sum.

Left powers base^{(x) k} = (base^{(x) k-1}) (x) base have coordinates by
index arithmetic: the words of one letter-bidegree profile fill one
contiguous range, from the offset of the profile (one ``tensor_index`` per
letter) by the mixed-radix index of the letters.  The n-ary tensors of the
dA-infinity formulas and the insertions write each entry at its place in
the left powers from these offsets, with no regrouping isomorphism and no
word enumeration.  Regrouping / permutation isomorphisms between other
iterated tensor products are signed permutations, computed once per pair of
tree shapes through basis enumerations of tensor trees.

Every memo here is ``functools.cache`` on the function itself, keyed by
modules (hashed by field and dims) and tensor trees (hashed by shape), so
equal shapes share one entry whichever objects they are; ``cache_info()``
on each memoized function gives its hits, misses and size.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from types import MappingProxyType

from .linalg import Field, Matrix, SignedPerm, _qq_canonical, _qq_entry

Bidegree = tuple[int, int]


def sprod(x: Bidegree, y: Bidegree) -> int:
    """Scalar product of bidegrees driving the Koszul rule."""
    return x[0] * y[0] + x[1] * y[1]


class BigradedModule:
    """Free bigraded module with finitely many nonzero ranks.

    Modules are hashable and used as cache keys, so ``dims`` is a
    read-only view of the private ``_dims``, which ``dim`` reads directly
    because a lookup through the view costs an extra method call.
    """

    __slots__ = ("field", "dims", "_dims", "_hash")

    def __init__(self, field: Field, dims: dict[Bidegree, int]):
        self.field = field
        self._dims = {k: v for k, v in dims.items() if v}
        self.dims = MappingProxyType(self._dims)
        self._hash = None
        for (i, j), n in self.dims.items():
            if n < 0:
                raise ValueError(f"negative rank at {(i, j)}")

    def dim(self, i: int, j: int) -> int:
        return self._dims.get((i, j), 0)

    def support(self) -> list[Bidegree]:
        return sorted(self.dims)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def is_zero(self) -> bool:
        return not self.dims

    def __eq__(self, other):
        # the modulus p names the field (0 for QQ); modules are memo keys,
        # so this runs on every lookup of an equal module that is another
        # object
        return self is other or (isinstance(other, BigradedModule)
                                 and self._dims == other._dims
                                 and self.field.p == other.field.p)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.field, tuple(sorted(self.dims.items()))))
        return self._hash

    def __repr__(self):
        return f"BigradedModule({self.field}, {dict(sorted(self.dims.items()))})"

    def shifted(self, shift: Bidegree) -> "BigradedModule":
        """Module moved by +shift: result_(i,j) = self_(i-shift)."""
        u, v = shift
        return BigradedModule(self.field,
                              {(i + u, j + v): n for (i, j), n in self.dims.items()})


class BigradedMap:
    """Map of a fixed bidegree, stored as per-source-bidegree matrix blocks."""

    __slots__ = ("src", "dst", "bidegree", "blocks")

    def __init__(self, src: BigradedModule, dst: BigradedModule,
                 bidegree: Bidegree, blocks: dict[Bidegree, Matrix] | None = None):
        if src.field != dst.field:
            raise ValueError("field mismatch")
        self.src = src
        self.dst = dst
        self.bidegree = bidegree
        self.blocks = {}
        if blocks:
            p, q = bidegree
            for (i, j), m in blocks.items():
                if m.is_zero():
                    continue
                if m.cols != src.dim(i, j) or m.rows != dst.dim(i + p, j + q):
                    raise ValueError(
                        f"block at {(i, j)} has shape {m.rows}x{m.cols}, expected "
                        f"{dst.dim(i + p, j + q)}x{src.dim(i, j)}")
                self.blocks[(i, j)] = m

    @classmethod
    def _of(cls, src, dst, bidegree, blocks: dict) -> "BigradedMap":
        """Map that adopts blocks, nonzero and of the right shapes, as is."""
        m = object.__new__(cls)
        m.src, m.dst, m.bidegree, m.blocks = src, dst, bidegree, blocks
        return m

    @property
    def field(self):
        return self.src.field

    def block(self, i: int, j: int) -> Matrix:
        b = self.blocks.get((i, j))
        if b is None:
            p, q = self.bidegree
            b = Matrix.zero(self.field, self.dst.dim(i + p, j + q), self.src.dim(i, j))
        return b

    def is_zero(self) -> bool:
        return not self.blocks

    def __eq__(self, other):
        if not isinstance(other, BigradedMap):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        if self.bidegree != other.bidegree:
            raise ValueError("comparing maps of different bidegrees")
        keys = set(self.blocks) | set(other.blocks)
        return all(self.block(*k) == other.block(*k) for k in keys)

    def __hash__(self):
        raise TypeError("maps are not hashable")

    def __repr__(self):
        return f"BigradedMap(bidegree={self.bidegree}, blocks={sorted(self.blocks)})"

    # -- linear structure -------------------------------------------------
    def __add__(self, other):
        self._compatible(other)
        keys = set(self.blocks) | set(other.blocks)
        return BigradedMap(self.src, self.dst, self.bidegree,
                           {k: self.block(*k) + other.block(*k) for k in keys})

    def __sub__(self, other):
        self._compatible(other)
        keys = set(self.blocks) | set(other.blocks)
        return BigradedMap(self.src, self.dst, self.bidegree,
                           {k: self.block(*k) - other.block(*k) for k in keys})

    def __neg__(self):
        return BigradedMap(self.src, self.dst, self.bidegree,
                           {k: -m for k, m in self.blocks.items()})

    def scale(self, c) -> "BigradedMap":
        return BigradedMap(self.src, self.dst, self.bidegree,
                           {k: m.scale(c) for k, m in self.blocks.items()})

    def _compatible(self, other):
        if self.src != other.src or self.dst != other.dst:
            raise ValueError("module mismatch")
        if self.bidegree != other.bidegree:
            raise ValueError("bidegree mismatch")

    def shifted(self, shift: Bidegree) -> "BigradedMap":
        """Same matrices, viewed between shifted modules, same bidegree."""
        return relabel(self, shift, shift)


def zero_map(src: BigradedModule, dst: BigradedModule, bidegree: Bidegree) -> BigradedMap:
    return BigradedMap(src, dst, bidegree)


@cache
def identity_map(mod: BigradedModule) -> BigradedMap:
    return BigradedMap(mod, mod, (0, 0),
                       {k: Matrix.identity(mod.field, n)
                        for k, n in mod.dims.items()})


def compose(f: BigradedMap, g: BigradedMap) -> BigradedMap:
    """f after g; bidegrees add, blocks multiply."""
    if g.dst != f.src:
        raise ValueError("module mismatch in composition")
    p, q = g.bidegree
    bid = (f.bidegree[0] + p, f.bidegree[1] + q)
    blocks = {}
    for (i, j), m in g.blocks.items():
        fb = f.blocks.get((i + p, j + q))
        if fb is not None:
            blocks[(i, j)] = fb * m
    return BigradedMap(g.src, f.dst, bid, blocks)


def invert_blocks(f: BigradedMap) -> BigradedMap | None:
    """The inverse of a bidegree (0, 0) map, block by block, or None when
    its source and target differ in some dimension or a block is not
    invertible."""
    if f.src.dims != f.dst.dims:
        return None
    blocks = {}
    for (i, j) in f.dst.dims:
        blk = f.block(i, j).inverse()
        if blk is None:
            return None
        blocks[(i, j)] = blk
    return BigradedMap(f.dst, f.src, (0, 0), blocks)


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------

@cache
def _summand_table(a: BigradedModule, b: BigradedModule) -> dict:
    """Per bidegree (i, j) of A (x) B: its ordered summands
    (p, q, dimA(p,q), dimB(i-p,j-q)), the coordinate offset of each keyed
    by the left bidegree (p, q), and the total dimension."""
    table = {}
    for (p, q) in a.support():
        da = a.dims[(p, q)]
        for (s, t), db in b.dims.items():
            entry = table.get((p + s, q + t))
            if entry is None:
                entry = table[(p + s, q + t)] = [[], {}, 0]
            entry[0].append((p, q, da, db))
            entry[1][(p, q)] = entry[2]
            entry[2] += da * db
    return {k: tuple(v) for k, v in table.items()}


def tensor_summands(a: BigradedModule, b: BigradedModule, i: int, j: int):
    """Ordered summands of (A (x) B)_i^j: (p, q, dimA(p,q), dimB(i-p,j-q))."""
    entry = _summand_table(a, b).get((i, j))
    return entry[0] if entry else []


def tensor_index(a: BigradedModule, b: BigradedModule, x: tuple,
                 y: tuple) -> int:
    """Coordinate of x (x) y in A (x) B for basis elements x = (p, q, i) of
    A and y = (s, t, k) of B: the offset of the (p, q) summand, plus
    i * dim B_s^t, plus k."""
    (p, q, i), (s, t, k) = x, y
    return _summand_table(a, b)[(p + s, q + t)][1][(p, q)] \
        + i * b.dims[(s, t)] + k


@cache
def tensor_modules(a: BigradedModule, b: BigradedModule) -> BigradedModule:
    if a.field != b.field:
        raise ValueError("field mismatch")
    dims: dict[Bidegree, int] = {}
    for (p, q), da in a.dims.items():
        for (s, t), db in b.dims.items():
            k = (p + s, q + t)
            dims[k] = dims.get(k, 0) + da * db
    return BigradedModule(a.field, dims)


def unit_module(field: Field) -> BigradedModule:
    return BigradedModule(field, {(0, 0): 1})


def _nonzero_entries(m: Matrix) -> list:
    """(row, col, value) of every nonzero entry of m, row-major."""
    d, c = m.data, m.cols
    return [(t // c, t % c, d[t]) for t in compress(range(len(d)), d)]


# ---------------------------------------------------------------------------
# left powers: coordinates by index arithmetic
# ---------------------------------------------------------------------------

@cache
def power_module(mod: BigradedModule, k: int) -> BigradedModule:
    """The left power mod^{(x) k} = (mod^{(x) k-1}) (x) mod; the unit
    module for k = 0."""
    if k == 0:
        return unit_module(mod.field)
    if k == 1:
        return mod
    return tensor_modules(power_module(mod, k - 1), mod)


@cache
def _power_profiles(base: BigradedModule, k: int, bid: Bidegree) -> tuple:
    """The letter-bidegree profiles of base^{(x) k} at bid, in coordinate
    order, as (profile, offset, size): the words whose l-th letter lies at
    profile[l] fill the coordinates offset .. offset + size - 1, in the
    mixed-radix order of their letters' indices (radices dim base at each
    letter, the last letter fastest).  The empty word is the one profile
    of k = 0."""
    if k == 0:
        return (((), 0, 1),) if bid == (0, 0) else ()
    head = power_module(base, k - 1)
    out = []
    for (p, q, _, db) in tensor_summands(head, base, *bid):
        letter = (bid[0] - p, bid[1] - q)
        for prof, off, n in _power_profiles(base, k - 1, (p, q)):
            out.append((prof + (letter,),
                        tensor_index(head, base, (p, q, off), (*letter, 0)),
                        n * db))
    return tuple(out)


def _profile_offset(base: BigradedModule, k: int, bid: Bidegree,
                    letters) -> int:
    """The offset P of the words u w of base^{(x) k+len(letters)}, for u
    in base^{(x) k} at bid and w of the profile letters: u w is at
    P + cu * n + iw, for u at coordinate cu, n the number of words of the
    profile and iw the mixed-radix index of w, whatever the profile of u.
    Appending a letter is one ``tensor_index``, affine in the coordinate
    it extends, so P is what cu = 0 becomes."""
    off = 0
    for letter in letters:
        off = tensor_index(power_module(base, k), base, (*bid, off),
                           (*letter, 0))
        bid = (bid[0] + letter[0], bid[1] + letter[1])
        k += 1
    return off


@cache
def _concat_tables(base: BigradedModule, k: int, x: Bidegree,
                   l: int) -> dict:
    """The regrouping base^{(x) k} (x) base^{(x) l} -> base^{(x) k+l},
    u (x) v -> uv, for u at x: per bidegree y of v, a flat table whose
    entry cu * dim_y + cv is the coordinate of uv, for u at coordinate cu
    and v at cv.  Shared by every caller: read it, never change it."""
    tables = {}
    dx = power_module(base, k).dim(*x)
    for y in power_module(base, l).support():
        # v at cv, of profile pv and index iv in it: uv is at
        # _profile_offset(pv) + iv + cu * (size of pv)
        at_v = [(_profile_offset(base, k, x, pv) + iv, nv)
                for pv, _, nv in _power_profiles(base, l, y)
                for iv in range(nv)]
        tables[y] = tuple(start + cu * nv for cu in range(dx)
                          for start, nv in at_v)
    return tables


@cache
def _insertion_table(base: BigradedModule, r: int, q: int, t: int,
                     beta: Bidegree, xi: Bidegree) -> tuple:
    """Where 1^r (x) m (x) 1^t sends the words a b c of base^{(x) r+q+t}
    (a of r letters, b of q, c of t) with b at beta, for a map
    m: base^{(x) q} -> base that sends beta to xi.

    One group (sigma, tau, odd, by_col) per bidegree alpha of a and gamma
    of c: the words a b c lie at sigma = alpha + beta + gamma, the words
    a x c at tau = alpha + xi + gamma in base^{(x) r+1+t}, odd is the
    parity of the Koszul sign <xi - beta, alpha> of m moving past a, and
    by_col[col] is a flat tuple of triples (s, row0, stride), one per word
    a b c with b at column col of m's block: a b c is at s, and a e c, for
    e the basis element of row row of that block, at row0 + row * stride.
    """
    dxi = base.dim(*xi)
    ncols = power_module(base, q).dim(*beta)
    odd_of = (xi[0] - beta[0], xi[1] - beta[1])
    groups = []
    prefixes = power_module(base, r)
    for alpha in prefixes.support():
        da = prefixes.dim(*alpha)
        for gamma in power_module(base, t).support():
            by_col = [[] for _ in range(ncols)]
            for pc, _, nc in _power_profiles(base, t, gamma):
                # a x c is at row0 + (ca * dxi + row) * nc + ic
                row0 = _profile_offset(base, r, alpha, (xi,) + pc)
                for pb, ob, nb in _power_profiles(base, q, beta):
                    s0 = _profile_offset(base, r, alpha, pb + pc)
                    for ca in range(da):
                        e = row0 + ca * dxi * nc
                        for ib in range(nb):
                            out = by_col[ob + ib]
                            s = s0 + (ca * nb + ib) * nc
                            for ic in range(nc):
                                out += (s + ic, e + ic, nc)
            groups.append(((alpha[0] + beta[0] + gamma[0],
                            alpha[1] + beta[1] + gamma[1]),
                           (alpha[0] + xi[0] + gamma[0],
                            alpha[1] + xi[1] + gamma[1]),
                           sprod(odd_of, alpha) % 2,
                           tuple(map(tuple, by_col))))
    return tuple(groups)


class SparseMap:
    """A reduced map of a fixed bidegree kept as its nonzero entries: blocks
    maps each nonzero source bidegree to the (row, col, value) of its
    nonzero entries, row-major.  ``MapSum.sparse_maps`` reads sums in this
    form when only further sums read them (the bar power classes):
    ``MapSum.add_compose`` takes it as g and ``MapSum.add_tensor`` as f."""

    __slots__ = ("src", "dst", "bidegree", "blocks")

    def __init__(self, src: BigradedModule, dst: BigradedModule,
                 bidegree: Bidegree, blocks: dict):
        self.src, self.dst, self.bidegree, self.blocks = \
            src, dst, bidegree, blocks


def _entries(m, bid: Bidegree) -> list:
    """The nonzero (row, col, value) of the block of m at bid, row-major,
    for m a BigradedMap or a SparseMap."""
    blk = m.blocks[bid]
    return blk if type(blk) is list else _nonzero_entries(blk)


class MapSum:
    """Signed sums of bigraded maps, one sum per bucket key.

    Terms go straight into sparse, unreduced entries per (key, source
    bidegree), a dict {row * cols + col: value} whose values are plain int
    (or, over QQ, Fraction) sums of products: ``add`` takes a map,
    ``add_compose`` a product f o g, ``add_tensor`` the Koszul-signed
    f (x) g and ``add_insertion`` an insertion o (1^r (x) m (x) 1^t) between
    left powers, each times (-1)^odd, so a term costs its nonzero products
    and no dense matrix is formed per term: the tensor words and the
    insertions find their coordinates in the left powers by index
    arithmetic (``_concat_tables``, ``_insertion_table``), never through a
    regrouping isomorphism.  ``maps`` reduces each entry once
    (% p, or to a canonical QQ entry) and drops the blocks that come out
    zero; every key that a term was added to has a map, zero or not.
    """

    __slots__ = ("_buckets",)

    def __init__(self):
        # key -> (src, dst, bidegree, {source bidegree: entries})
        self._buckets: dict = {}

    def _blocks(self, key, src, dst, bidegree) -> dict:
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = (src, dst, bidegree, {})
        elif bucket[0] != src or bucket[1] != dst or bucket[2] != bidegree:
            raise ValueError(f"term at {key!r} does not match the sum's "
                             f"modules and bidegree")
        return bucket[3]

    def add(self, key, m: BigradedMap, odd: int = 0) -> None:
        """sum[key] += (-1)^odd m."""
        negate = odd % 2
        blocks = self._blocks(key, m.src, m.dst, m.bidegree)
        for bid, blk in m.blocks.items():
            d = blocks.get(bid)
            if d is None:
                d = blocks[bid] = {}
            get, data = d.get, blk.data
            for t in compress(range(len(data)), data):
                d[t] = get(t, 0) + (-data[t] if negate else data[t])

    def add_compose(self, key, f: BigradedMap, g, odd: int = 0) -> None:
        """sum[key] += (-1)^odd f o g, for g a BigradedMap or a SparseMap:
        the products of nonzero entries only, those of each block of g
        grouped by row."""
        negate = odd % 2
        if g.dst != f.src:
            raise ValueError("module mismatch in composition")
        p, q = g.bidegree
        blocks = self._blocks(key, g.src, f.dst,
                              (f.bidegree[0] + p, f.bidegree[1] + q))
        for (i, j) in g.blocks:
            fb = f.blocks.get((i + p, j + q))
            if fb is None:
                continue
            d = blocks.get((i, j))
            if d is None:
                d = blocks[(i, j)] = {}
            oc = g.src.dim(i, j)
            right = [[] for _ in range(fb.cols)]
            for r, c, y in _entries(g, (i, j)):
                right[r].append((c, y))
            get, fd, n = d.get, fb.data, fb.cols
            for t in compress(range(len(fd)), fd):
                row = right[t % n]
                if row:
                    x, base = -fd[t] if negate else fd[t], t // n * oc
                    for c, y in row:
                        d[base + c] = get(base + c, 0) + x * y

    def add_tensor(self, key, f, g: BigradedMap, odd: int = 0,
                   power=None) -> None:
        """sum[key] += (-1)^odd f (x) g, for f a BigradedMap or a SparseMap,
        which on the (p,q) summand is (-1)^{<bideg g, (p,q)>} f_block (x)
        g_block.

        Only pairs of nonzero blocks of f and g are visited.  power, used
        by the n-ary tensors, is a triple (base, k, l) for f out of
        base^{(x) k} and g out of base^{(x) l}: the term then maps out of
        base^{(x) k+l}, the column of u (x) v written at the coordinate of
        the word uv (``_concat_tables``).
        """
        fb, fq = f.bidegree
        gb, gq = g.bidegree
        if power is None:
            src = tensor_modules(f.src, g.src)
        else:
            base, k, l = power
            if f.src != power_module(base, k) or g.src != power_module(base, l):
                raise ValueError("tensor factors are not maps out of the "
                                 "stated left powers")
            src = power_module(base, k + l)
        blocks = self._blocks(key, src, tensor_modules(f.dst, g.dst),
                              (fb + gb, fq + gq))
        src_table = _summand_table(f.src, g.src)
        dst_table = _summand_table(f.dst, g.dst)
        gparts = [((s, t), gblk.rows, gblk.cols, _nonzero_entries(gblk))
                  for (s, t), gblk in g.blocks.items()]
        # per result bidegree: entries, cols and the target summand offsets
        outs: dict[Bidegree, tuple] = {}
        for (p, q) in f.blocks:
            fnz = _entries(f, (p, q))
            if (sprod((gb, gq), (p, q)) + odd) % 2:
                fnz = [(ra, ca, -fv) for ra, ca, fv in fnz]
            fdst = (p + fb, q + fq)
            if power is not None:
                tables = _concat_tables(base, k, (p, q), l)
            for gsrc, gr, gc, gnz in gparts:
                ij = (p + gsrc[0], q + gsrc[1])
                out = outs.get(ij)
                if out is None:
                    dentry = dst_table.get((ij[0] + fb + gb, ij[1] + fq + gq))
                    if dentry is None:
                        raise AssertionError(
                            "tensor block landed outside target")
                    d = blocks.get(ij)
                    if d is None:
                        d = blocks[ij] = {}
                    out = outs[ij] = (d, src.dim(*ij), dentry[1])
                d, cols, doffs = out
                roff = doffs.get(fdst)
                if roff is None:
                    raise AssertionError("tensor block landed outside target")
                if power is None:
                    coff = src_table[ij][1][(p, q)]
                    cmap = range(coff, coff + f.src.dim(p, q) * gc)
                else:
                    cmap = tables[gsrc]
                get = d.get
                # f[ra, ca] scales the copy of g whose top-left corner is
                # at row r0, and cmap sends column ca * gc + cb to its place
                for ra, ca, fv in fnz:
                    r0, c0 = (roff + ra * gr) * cols, ca * gc
                    for rb, cb, gv in gnz:
                        at = r0 + rb * cols + cmap[c0 + cb]
                        d[at] = get(at, 0) + fv * gv

    def add_insertion(self, key, o: BigradedMap, m: BigradedMap,
                      base: BigradedModule, r: int, t: int, q: int,
                      odd: int = 0) -> None:
        """sum[key] += (-1)^odd o (1^r (x) m (x) 1^t), for m out of
        base^{(x) q} into base and o out of base^{(x) r+1+t}.

        1^r (x) m (x) 1^t sends a b c to (-1)^{<bideg m, bideg a>} a m(b) c;
        it is never formed.  Each nonzero entry of m is read once per word
        a b c of its column (``_insertion_table``) and multiplied into the
        nonzero entries of o's column at a e c, so a term costs the
        products it adds.
        """
        negate = odd % 2
        if m.src != power_module(base, q) or m.dst != base \
                or o.src != power_module(base, r + 1 + t):
            raise ValueError("insertion does not match the stated arities")
        (mp, mq), (op, oq) = m.bidegree, o.bidegree
        src = power_module(base, r + q + t)
        blocks = self._blocks(key, src, o.dst, (op + mp, oq + mq))
        # o's nonzero entries by column, per source bidegree, built on use
        ocols: dict[Bidegree, list] = {}
        for beta, mblk in m.blocks.items():
            by_m_col = [[] for _ in range(mblk.cols)]
            for row, col, v in _nonzero_entries(mblk):
                by_m_col[col].append((row, v))
            mcols = [(col, ent) for col, ent in enumerate(by_m_col) if ent]
            for sigma, tau, sign, by_col in _insertion_table(
                    base, r, q, t, beta, (beta[0] + mp, beta[1] + mq)):
                oblk = o.blocks.get(tau)
                if oblk is None:
                    continue
                oc = ocols.get(tau)
                if oc is None:
                    oc = ocols[tau] = [[] for _ in range(oblk.cols)]
                    for orow, ocol, v in _nonzero_entries(oblk):
                        oc[ocol].append((orow, v))
                d = blocks.get(sigma)
                if d is None:
                    d = blocks[sigma] = {}
                get, cols, neg = d.get, src.dim(*sigma), (sign + negate) % 2
                for col, ent in mcols:
                    words = iter(by_col[col])
                    for s, row0, stride in zip(words, words, words):
                        for row, v in ent:
                            hits = oc[row0 + row * stride]
                            if hits:
                                x = -v if neg else v
                                for orow, ov in hits:
                                    k = orow * cols + s
                                    d[k] = get(k, 0) + ov * x

    def sparse_maps(self) -> dict:
        """{key: the reduced sum as a SparseMap}: maps with the entries
        reduced as ``maps`` reduces them, never written out densely."""
        out = {}
        for key, (src, dst, bidegree, blocks) in self._buckets.items():
            modulus, done = src.field.p, {}
            for (i, j) in sorted(blocks):
                cols = src.dim(i, j)
                if modulus:
                    nz = [(k // cols, k % cols, v % modulus)
                          for k, v in sorted(blocks[(i, j)].items())
                          if v % modulus]
                else:
                    nz = [(k // cols, k % cols, _qq_entry(v))
                          for k, v in sorted(blocks[(i, j)].items()) if v]
                if nz:
                    done[(i, j)] = nz
            out[key] = SparseMap(src, dst, bidegree, done)
        return out

    def maps(self) -> dict:
        """{key: the reduced sum}, blocks in ascending source bidegree."""
        out = {}
        for key, (src, dst, (p, q), blocks) in self._buckets.items():
            field = src.field
            modulus, done = field.p, {}
            for (i, j) in sorted(blocks):
                rows, cols = dst.dim(i + p, j + q), src.dim(i, j)
                data = [0] * (rows * cols)
                if modulus:
                    for k, v in blocks[(i, j)].items():
                        data[k] = v % modulus
                else:
                    for k, v in blocks[(i, j)].items():
                        data[k] = v
                    data = _qq_canonical(data)
                if any(data):
                    done[(i, j)] = Matrix._of(field, rows, cols, data)
            out[key] = BigradedMap._of(src, dst, (p, q), done)
        return out


def tensor_maps(f: BigradedMap, g: BigradedMap, power=None) -> BigradedMap:
    """The Koszul-signed f (x) g, its columns in a left power as power
    says: the one-term ``MapSum.add_tensor``."""
    acc = MapSum()
    acc.add_tensor(0, f, g, power=power)
    return acc.maps()[0]


# ---------------------------------------------------------------------------
# tensor trees: enumerations and structural isomorphisms
# ---------------------------------------------------------------------------

class Tree:
    """Parenthesized tensor word; leaves are bigraded modules.

    ``key`` is the structural key: a leaf's module, or the pair of the
    children's keys.  Trees compare and hash by ``key``, so trees of the
    same shape over the same modules are equal whichever objects they
    are, and serve as one cache key.
    """

    __slots__ = ("left", "right", "module", "key", "_leaves", "_hash")

    def __init__(self, left=None, right=None, module: BigradedModule | None = None):
        if module is not None:
            self.left = self.right = None
            self.module = module
            self.key = module
            self._leaves = [module]
            self._hash = hash(module)
        else:
            self.left = left
            self.right = right
            self.module = tensor_modules(left.module, right.module)
            self.key = (left.key, right.key)
            self._leaves = left._leaves + right._leaves
            # from the children's hashes: hashing the nested key would
            # walk the whole tree on every call
            self._hash = hash((left._hash, right._hash))

    def __eq__(self, other):
        return self is other or (isinstance(other, Tree)
                                 and self._hash == other._hash
                                 and self.key == other.key)

    def __hash__(self):
        return self._hash

    @property
    def is_leaf(self):
        return self.left is None

    def leaves(self) -> list[BigradedModule]:
        return self._leaves


def leaf(mod: BigradedModule) -> Tree:
    return Tree(module=mod)


def node(left: Tree, right: Tree) -> Tree:
    return Tree(left, right)


def left_tree(mods: list[BigradedModule]) -> Tree:
    t = leaf(mods[0])
    for m in mods[1:]:
        t = node(t, leaf(m))
    return t


@cache
def power_tree(mod: BigradedModule, k: int) -> Tree:
    return left_tree([mod] * k)


@cache
def tree_basis(tree: Tree, i: int, j: int) -> tuple:
    """Ordered basis of tree.module at (i,j): tuples of (p, q, idx) per leaf.

    The order coincides with the summand ordering produced by the binary
    tensor constructions, so flat index in this tuple = coordinate index.
    """
    if tree.is_leaf:
        return tuple(((i, j, a),) for a in range(tree.module.dim(i, j)))
    out = []
    for (p, q, _, _) in tensor_summands(tree.left.module,
                                        tree.right.module, i, j):
        rights = tree_basis(tree.right, i - p, j - q)
        for lt in tree_basis(tree.left, p, q):
            out.extend(lt + rt for rt in rights)
    return tuple(out)


def tree_iso(src: Tree, dst: Tree, perm: list[int] | None = None) -> BigradedMap:
    """Structural isomorphism src.module -> dst.module.

    perm sends source leaf position s to target leaf position perm[s]
    (identity if omitted: a pure regrouping, which carries no signs).
    For genuine permutations the Koszul sign is the product over inverted
    pairs of (-1)^{<bideg_s, bideg_t>}.  Every block is a SignedPerm.  The
    map is memoized with functools.cache on the shapes of the two trees
    (trees hash by structure) and the permutation; ``_tree_iso.cache_info()``
    counts the hits and misses.
    """
    return _tree_iso(src, dst, None if perm is None else tuple(perm))


@cache
def _tree_iso(src: Tree, dst: Tree, perm: tuple[int, ...] | None) -> BigradedMap:
    n = len(src.leaves())
    if perm is None:
        perm = tuple(range(n))
    if sorted(perm) != list(range(n)) or len(dst.leaves()) != n:
        raise ValueError("bad permutation")
    for s in range(n):
        if src.leaves()[s] != dst.leaves()[perm[s]]:
            raise ValueError("leaf modules do not match under permutation")
    inversions = [(s, t) for s in range(n) for t in range(s + 1, n)
                  if perm[s] > perm[t]]
    blocks = {}
    for (i, j) in src.module.support():
        dindex = {t: k for k, t in enumerate(tree_basis(dst, i, j))}
        targets, neg = [], []
        for items in tree_basis(src, i, j):
            target = [None] * n
            for s, item in enumerate(items):
                target[perm[s]] = item
            sign = sum(sprod(items[s][:2], items[t][:2]) for s, t in inversions)
            targets.append(dindex[tuple(target)])
            neg.append(sign % 2 == 1)
        blocks[(i, j)] = SignedPerm(src.module.field, targets, neg)
    return BigradedMap(src.module, dst.module, (0, 0), blocks)


def symmetry_iso(a: BigradedModule, b: BigradedModule) -> BigradedMap:
    """tau_{A,B}: A (x) B -> B (x) A, a (x) b -> (-1)^{<a,b>} b (x) a."""
    return tree_iso(node(leaf(a), leaf(b)), node(leaf(b), leaf(a)), [1, 0])


def interleave_iso(a: BigradedModule, b: BigradedModule, k: int) -> BigradedMap:
    """(A (x) B)^{(x) k} -> A^{(x) k} (x) B^{(x) k}, the Koszul shuffle tau_k.

    The source coordinates are those of the canonical left power of
    tensor_modules(a, b); for k = 1 this is the identity.
    """
    if k < 1:
        raise ValueError("k must be positive")
    pair = tensor_modules(a, b)
    if k == 1:
        return identity_map(pair)
    pairs = _pairs_tree(a, b, k)  # same module and coordinates as pair^{(x) k}
    flat = left_tree([a, b] * k)
    regroup = tree_iso(pairs, flat)
    perm = []
    for s in range(k):
        perm.extend([s, k + s])
    shuffle = tree_iso(flat, node(power_tree(a, k), power_tree(b, k)), perm)
    return compose(shuffle, regroup)


def _pairs_tree(a: BigradedModule, b: BigradedModule, k: int) -> Tree:
    t = node(leaf(a), leaf(b))
    for _ in range(k - 1):
        t = node(t, node(leaf(a), leaf(b)))
    return t


@cache
def _sum_table(parts: tuple) -> tuple:
    """The direct sum of parts and, per bidegree, the offset of each part
    there: basis order per bidegree is all of parts[0], then parts[1], ...
    A single part is its own direct sum."""
    if not parts:
        raise ValueError("empty direct sum")
    field = parts[0].field
    if any(p.field != field for p in parts):
        raise ValueError("field mismatch")
    offsets, dims = {}, {}
    for k in sorted({k for p in parts for k in p.dims}):
        offs, n = [], 0
        for p in parts:
            offs.append(n)
            n += p.dim(*k)
        offsets[k], dims[k] = tuple(offs), n
    total = parts[0] if len(parts) == 1 else BigradedModule(field, dims)
    return total, offsets


def sum_module(parts) -> BigradedModule:
    """The direct sum of the modules parts."""
    return _sum_table(tuple(parts))[0]


def place(src, dst, bidegree: Bidegree, pieces: dict) -> BigradedMap:
    """The map of the given bidegree from the direct sum of the modules src
    to that of the modules dst whose piece from src[l] to dst[k] is m, or
    -m where negate is set, for pieces {(k, l): (m, negate)}, and zero
    elsewhere.  Each block of m is written at the offsets of its summands
    in the source and target bidegrees; distinct pieces land in disjoint
    ranges, and blocks that come out all zero are dropped."""
    stotal, soffs = _sum_table(tuple(src))
    dtotal, doffs = _sum_table(tuple(dst))
    p, q = bidegree
    blocks = {}
    for (k, l), (m, negate) in pieces.items():
        if not (0 <= k < len(dst) and 0 <= l < len(src)) \
                or m.src != src[l] or m.dst != dst[k] or m.bidegree != bidegree:
            raise ValueError(f"piece {(k, l)} is not a map of bidegree "
                             f"{bidegree} from summand {l} to summand {k}")
        for (i, j), blk in m.blocks.items():
            out = blocks.get((i, j))
            if out is None:
                out = blocks[(i, j)] = Matrix.zero(
                    stotal.field, dtotal.dim(i + p, j + q), stotal.dim(i, j))
            out.set_block(doffs[(i + p, j + q)][k], soffs[(i, j)][l], blk,
                          negate)
    return BigradedMap(stotal, dtotal, bidegree,
                       {key: blocks[key] for key in sorted(blocks)})


def restrict(m: BigradedMap, parts, l: int) -> BigradedMap:
    """m after the injection of parts[l], for m out of the direct sum of
    parts: the columns of each block at the offset of summand l."""
    total, offsets = _sum_table(tuple(parts))
    if m.src != total:
        raise ValueError("map does not start at the direct sum")
    part = parts[l]
    return BigradedMap(part, m.dst, m.bidegree, {
        (i, j): blk.get_block(0, offsets[(i, j)][l], blk.rows, part.dim(i, j))
        for (i, j), blk in m.blocks.items() if part.dim(i, j)})


def direct_sum(parts: list[BigradedModule]):
    """Direct sum with its injections and projections, each placed as an
    identity piece.  Basis order per bidegree: all of parts[0], then
    parts[1], ..."""
    parts = tuple(parts)
    total = sum_module(parts)
    injections = [place([p], parts, (0, 0), {(s, 0): (identity_map(p), False)})
                  for s, p in enumerate(parts)]
    projections = [place(parts, [p], (0, 0), {(0, s): (identity_map(p), False)})
                   for s, p in enumerate(parts)]
    return total, injections, projections


def relabel(m: BigradedMap, src_shift: Bidegree,
            dst_shift: Bidegree) -> BigradedMap:
    """m as a map m.src.shifted(src_shift) -> m.dst.shifted(dst_shift):
    the same blocks keyed by the shifted source bidegrees, that is m
    between the two shift isomorphisms, with no products."""
    (u, v), (s, t) = src_shift, dst_shift
    p, q = m.bidegree
    return BigradedMap._of(m.src.shifted(src_shift), m.dst.shifted(dst_shift),
                           (p + s - u, q + t - v),
                           {(i + u, j + v): blk
                            for (i, j), blk in m.blocks.items()})


def shift_into(mod: BigradedModule, shift: Bidegree) -> BigradedMap:
    """Canonical iso mod -> mod.shifted(shift), identity blocks, bidegree = shift."""
    return relabel(identity_map(mod), (0, 0), shift)


def nary_tensor_maps(maps: list[BigradedMap]) -> BigradedMap:
    """Left-associated Koszul tensor of several maps.

    Source and target are the left-associated tensor products of the
    sources / targets.
    """
    out = maps[0]
    for m in maps[1:]:
        out = tensor_maps(out, m)
    return out


# ---------------------------------------------------------------------------
# totalization layout
# ---------------------------------------------------------------------------

def degrees_of(module: BigradedModule) -> list[int]:
    """The total degrees n = j - i of the support, ascending."""
    return sorted({j - i for (i, j) in module.dims})


def tot_layout(module: BigradedModule, n: int) -> dict[int, tuple[int, int]]:
    """Tot^n as one table: column i -> (offset, dim A_i^{n+i}), ascending."""
    out, off = {}, 0
    for i in sorted(i for (i, j) in module.dims if j - i == n):
        dim = module.dims[(i, n + i)]
        out[i] = (off, dim)
        off += dim
    return out


def tot_matrix(family: dict[int, BigradedMap], u: int, n: int,
               src: dict, dst: dict, field: Field, extra: int = 0) -> Matrix:
    """Tot^n block of a family of overall bidegree (u, v): f_m from column
    i is written at row block i - m + u, times (-1)^{(m+u)n + extra}.
    Distinct m land in distinct row blocks, so no two writes overlap."""
    mat = Matrix.zero(field, sum(dim for _, dim in dst.values()),
                      sum(dim for _, dim in src.values()))
    for m, fm in family.items():
        negate = ((m + u) * n + extra) % 2
        for (i, j), blk in fm.blocks.items():
            if j - i != n or i not in src:
                continue
            if i - m + u not in dst:
                raise AssertionError("component landed off basis")
            mat.set_block(dst[i - m + u][0], src[i][0], blk, negate)
    return mat


def tot_blocks(mat: Matrix, src: dict, dst: dict):
    """The nonzero blocks of a matrix from the layout src to the layout dst,
    as (i, i2, block) for column i to column i2, ascending in (i, i2)."""
    for i, (c0, cols) in src.items():
        for i2, (r0, rows) in dst.items():
            blk = mat.get_block(r0, c0, rows, cols)
            if not blk.is_zero():
                yield i, i2, blk
