"""Bigraded modules and bidegree-graded maps with Koszul sign bookkeeping.

A bigraded module is a finite family of free summands A_i^j; a map of
bidegree (p,q) sends A_i^j to A_{i+p}^{j+q} and is stored as one matrix
block per populated source bidegree.  The scalar product of bidegrees
<x,y> = x1*y1 + x2*y2 drives every Koszul sign: moving a map g past an
element a costs (-1)^{<g,a>}.

Tensor products fix a deterministic summand ordering (lexicographic in the
bidegree of the left factor, then basis order); the summands and their
coordinate offsets are computed once per module pair, and a tensor of maps
visits only pairs of nonzero blocks.  Signed sums of maps, products and
tensors of maps are accumulated in a ``MapSum``: sparse, unreduced entries
per (key, source bidegree), reduced once when the sums are read;
``tensor_maps`` is its one-term sum.  Regrouping / permutation
isomorphisms between iterated tensor products are signed permutations,
computed once per pair of tree shapes through basis enumerations of
tensor trees.  The n-ary tensors of the dA-infinity formulas do not apply
their regroupings as products: the last tensor step writes each entry at
its regrouped row and column, read off those permutations.

Every memo here is ``functools.cache`` on the function itself, keyed by
modules (hashed by field and dims) and tensor trees (hashed by shape), so
equal shapes share one entry whichever objects they are; ``cache_info()``
on each memoized function gives its hits, misses and size.
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from types import MappingProxyType

from .linalg import Field, Matrix, SignedPerm, _qq_canonical

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
        return self is other or (isinstance(other, BigradedModule)
                and self.field == other.field and self.dims == other.dims)

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


class MapSum:
    """Signed sums of bigraded maps, one sum per bucket key.

    Terms go straight into sparse, unreduced entries per (key, source
    bidegree), a dict {row * cols + col: value} whose values are plain int
    (or, over QQ, Fraction) sums of products: ``add`` takes a map,
    ``add_compose`` a product f o g and ``add_tensor`` the Koszul-signed
    f (x) g, each times (-1)^odd, so a term costs its nonzero products and
    no dense matrix is formed per term.  ``maps`` reduces each entry once
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

    def add_compose(self, key, f: BigradedMap, g: BigradedMap,
                    odd: int = 0) -> None:
        """sum[key] += (-1)^odd f o g: the products of nonzero entries
        only, those of each block of g grouped by row."""
        negate = odd % 2
        if g.dst != f.src:
            raise ValueError("module mismatch in composition")
        p, q = g.bidegree
        blocks = self._blocks(key, g.src, f.dst,
                              (f.bidegree[0] + p, f.bidegree[1] + q))
        for (i, j), gb in g.blocks.items():
            fb = f.blocks.get((i + p, j + q))
            if fb is None:
                continue
            d = blocks.get((i, j))
            if d is None:
                d = blocks[(i, j)] = {}
            gd, oc = gb.data, gb.cols
            right = [[] for _ in range(gb.rows)]
            for t in compress(range(len(gd)), gd):
                right[t // oc].append((t % oc, gd[t]))
            get, fd, n = d.get, fb.data, fb.cols
            for t in compress(range(len(fd)), fd):
                row = right[t % n]
                if row:
                    x, base = -fd[t] if negate else fd[t], t // n * oc
                    for c, y in row:
                        d[base + c] = get(base + c, 0) + x * y

    def add_tensor(self, key, f: BigradedMap, g: BigradedMap, odd: int = 0,
                   regroup=None) -> None:
        """sum[key] += (-1)^odd f (x) g, which on the (p,q) summand is
        (-1)^{<bideg g, (p,q)>} f_block (x) g_block.

        Only pairs of nonzero blocks of f and g are visited.  regroup, used
        by the n-ary tensors, is a pair (src_iso, dst_iso) of sign-free
        regroupings (``tree_iso`` without a permutation) out of the source
        and the target of f (x) g, either one None for no regrouping; the
        term is then dst_iso o (f (x) g) o src_iso^{-1}, each product
        written straight at its regrouped row and column.  The isos are not
        checked: the callers build them with ``tree_iso`` from the tensor's
        own tree shapes.
        """
        src_iso, dst_iso = regroup if regroup is not None else (None, None)
        fb, fq = f.bidegree
        gb, gq = g.bidegree
        bb, bq = fb + gb, fq + gq
        blocks = self._blocks(
            key,
            tensor_modules(f.src, g.src) if src_iso is None else src_iso.dst,
            tensor_modules(f.dst, g.dst) if dst_iso is None else dst_iso.dst,
            (bb, bq))
        src_table = _summand_table(f.src, g.src)
        dst_table = _summand_table(f.dst, g.dst)
        gparts = [(s, t, gblk.rows, gblk.cols, _nonzero_entries(gblk))
                  for (s, t), gblk in g.blocks.items()]
        # per result bidegree: entries, cols, the source and target summand
        # offsets, and the column and row each tensor coordinate goes to
        outs: dict[Bidegree, tuple] = {}
        for (p, q), fblk in f.blocks.items():
            fnz = _nonzero_entries(fblk)
            if (sprod((gb, gq), (p, q)) + odd) % 2:
                fnz = [(ra, ca, -fv) for ra, ca, fv in fnz]
            fsrc, fdst = (p, q), (p + fb, q + fq)
            for s, t, gr, gc, gnz in gparts:
                ij = (p + s, q + t)
                out = outs.get(ij)
                if out is None:
                    dij = (ij[0] + bb, ij[1] + bq)
                    dentry = dst_table.get(dij)
                    if dentry is None:
                        raise AssertionError(
                            "tensor block landed outside target")
                    sentry = src_table[ij]
                    d = blocks.get(ij)
                    if d is None:
                        d = blocks[ij] = {}
                    out = outs[ij] = (
                        d, sentry[2], sentry[1], dentry[1],
                        range(sentry[2]) if src_iso is None
                        else src_iso.blocks[ij].targets,
                        range(dentry[2]) if dst_iso is None
                        else dst_iso.blocks[dij].targets)
                d, cols, soffs, doffs, cmap, rmap = out
                coff, roff = soffs[fsrc], doffs.get(fdst)
                if roff is None:
                    raise AssertionError("tensor block landed outside target")
                get = d.get
                # f[ra, ca] scales the copy of g whose top-left corner is
                # at (r0, c0); rmap and cmap send each coordinate to its
                # place
                for ra, ca, fv in fnz:
                    r0, c0 = roff + ra * gr, coff + ca * gc
                    for rb, cb, gv in gnz:
                        k = rmap[r0 + rb] * cols + cmap[c0 + cb]
                        d[k] = get(k, 0) + fv * gv

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


def tensor_maps(f: BigradedMap, g: BigradedMap, regroup=None) -> BigradedMap:
    """The Koszul-signed f (x) g, regrouped as regroup says: the one-term
    ``MapSum.add_tensor``."""
    acc = MapSum()
    acc.add_tensor(0, f, g, regroup=regroup)
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


def power_module(mod: BigradedModule, k: int) -> BigradedModule:
    if k == 0:
        return unit_module(mod.field)
    return power_tree(mod, k).module


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


def nary_tensor_maps(maps: list[BigradedMap], regroup=None) -> BigradedMap:
    """Left-associated Koszul tensor of several maps.

    Source and target are the left-associated tensor products of the
    sources / targets.  regroup, as in tensor_maps, regroups them: the
    last tensor step writes its products at the regrouped coordinates.
    """
    if len(maps) == 1:
        if regroup is not None:
            raise ValueError("regroup needs at least two maps")
        return maps[0]
    out = maps[0]
    for m in maps[1:-1]:
        out = tensor_maps(out, m)
    return tensor_maps(out, maps[-1], regroup)


def hom_one_map_one(m: BigradedMap, base: BigradedModule, r: int, t: int,
                    q: int) -> BigradedMap:
    """1^{(x) r} (x) m (x) 1^{(x) t} between canonical powers of base.

    m maps power_module(base, q) -> base (arity q passed explicitly).
    """
    if m.src != power_module(base, q) or m.dst != base:
        raise ValueError("map shape does not match the stated arity")
    if not r and not t:
        return m
    parts = []
    src_shape = []
    dst_shape = []
    if r:
        parts.append(identity_map(power_module(base, r)))
        src_shape.append(power_tree(base, r))
        dst_shape.append(power_tree(base, r))
    parts.append(m)
    src_shape.append(power_tree(base, q))
    dst_shape.append(leaf(base))
    if t:
        parts.append(identity_map(power_module(base, t)))
        src_shape.append(power_tree(base, t))
        dst_shape.append(power_tree(base, t))
    src_tree = src_shape[0]
    for s in src_shape[1:]:
        src_tree = node(src_tree, s)
    dst_tree = dst_shape[0]
    for s in dst_shape[1:]:
        dst_tree = node(dst_tree, s)
    # the tensor is built straight into canonical left-power coordinates
    return nary_tensor_maps(parts, (
        tree_iso(src_tree, power_tree(base, r + q + t)),
        tree_iso(dst_tree, power_tree(base, r + 1 + t))))


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
