"""Derived A-infinity algebras: structure maps m_{ij}: A^{(x) j} -> A of
bidegree (-i, 2-i-j) satisfying the signed Stasheff relations

    sum (-1)^{rq+t+pj} m_{ij}(1^r (x) m_{pq} (x) 1^t) = 0,        (A_uv)

morphisms f_{ij} of bidegree (-i, 1-i-j) with relations (B_uv), twisted
dgas and their tensor products, the three-dimensional path dga Lambda_r,
functorial r-paths, and r-homotopies via the explicit (H_mk) conditions.

A morphism is a map of bar coalgebras (Lefevre-Hasegawa 2003; Sagave
2010), so composition, inversion and the right side of (B_uv) apply maps
to bar powers: the signed sums of all tensor words of components in one
class (sum p, sum q), each built from the class one letter shorter.

Every such signed sum (a bar power class, the components of a composite
or an inverse, the buckets of (A_uv), (B_uv) and (H_mk)) is accumulated
term by term in a ``MapSum``, products and tensor words written straight
into its sparse entries, and reduced once when it is read.  An insertion
o_{ij}(1^r (x) m_{pq} (x) 1^t) is added from m's nonzero entries and o's
columns (``MapSum.add_insertion``), and the tensor words of bar powers and
of ``component_tensor`` write their columns at left-power coordinates:
both find those coordinates by index arithmetic over the summand offsets,
so no 1^r (x) m (x) 1^t and no regrouping isomorphism is formed.

The r-path P_r(A) is built by two routes, Lambda_r (x) A moved across
the strict identification with A (+) A[mid] (+) A and the printed block
matrices, compared entry by entry.  The maps that depend only on (A's
module, r[, j]) are built once per key.

No construction decides an axiom of what it builds from inputs that
satisfy theirs (each docstring names the implication); the command line
decides its inputs, and the tests decide the implications.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import product as iproduct

from .bigraded import (
    BigradedMap, BigradedModule, MapSum, compose as bcompose, identity_map,
    interleave_iso, invert_blocks, nary_tensor_maps, power_module, place,
    relabel, sum_module, tensor_index, tensor_maps, tensor_modules,
    unit_module, zero_map,
)
from .linalg import Field, Matrix
from .reports import Report
from .signs import (
    compose_sign_step, homotopy_beta, homotopy_sum1_sign, structure_sign,
)
from .twisted import (
    TwistedComplex, TwistedMorphism, path_diagonal, path_differential,
    path_structure_maps, path_summands,
)

class DAInfAlgebra:
    """Bigraded module with finitely many structure maps m_{ij}."""

    __slots__ = ("module", "m")

    def __init__(self, module: BigradedModule,
                 m: dict[tuple[int, int], BigradedMap] | None = None):
        self.module = module
        self.m = {}
        for (i, j), mij in (m or {}).items():
            if i < 0 or j < 1:
                raise ValueError(f"bad structure index {(i, j)}")
            if mij.src != power_module(module, j) or mij.dst != module:
                raise ValueError(f"m_{(i, j)} has wrong source or target")
            if mij.bidegree != (-i, 2 - i - j):
                raise ValueError(f"m_{(i, j)} has bidegree {mij.bidegree}, "
                                 f"expected {(-i, 2 - i - j)}")
            if not mij.is_zero():
                self.m[(i, j)] = mij

    @property
    def field(self):
        return self.module.field

    def m_map(self, i: int, j: int) -> BigradedMap:
        mij = self.m.get((i, j))
        if mij is None:
            mij = zero_map(power_module(self.module, j), self.module,
                           (-i, 2 - i - j))
        return mij

    def max_arity(self) -> int:
        return max((j for (_, j) in self.m), default=1)

    def __eq__(self, other):
        if not isinstance(other, DAInfAlgebra):
            return NotImplemented
        if self.module != other.module:
            return False
        keys = set(self.m) | set(other.m)
        return all(self.m_map(*k) == other.m_map(*k) for k in keys)

    def __repr__(self):
        return f"DAInfAlgebra(dims={dict(sorted(self.module.dims.items()))}, " \
               f"ops={sorted(self.m)})"


class TwistedDga(DAInfAlgebra):
    """dA-infinity algebra whose only operations are m_{i1} and m_{02}."""

    def __init__(self, module, m=None):
        super().__init__(module, m)
        for (i, j) in self.m:
            if j == 1:
                continue
            if (i, j) != (0, 2):
                raise ValueError(f"twisted dga cannot carry m_{(i, j)}")


class DAInfMorphism:
    __slots__ = ("src", "dst", "f")

    def __init__(self, src: DAInfAlgebra, dst: DAInfAlgebra,
                 f: dict[tuple[int, int], BigradedMap] | None = None):
        self.src = src
        self.dst = dst
        self.f = {}
        for (i, j), fij in (f or {}).items():
            if i < 0 or j < 1:
                raise ValueError(f"bad morphism index {(i, j)}")
            if fij.src != power_module(src.module, j) or fij.dst != dst.module:
                raise ValueError(f"f_{(i, j)} has wrong source or target")
            if fij.bidegree != (-i, 1 - i - j):
                raise ValueError(f"f_{(i, j)} has bidegree {fij.bidegree}, "
                                 f"expected {(-i, 1 - i - j)}")
            if not fij.is_zero():
                self.f[(i, j)] = fij

    @property
    def field(self):
        return self.src.field

    def f_map(self, i: int, j: int) -> BigradedMap:
        fij = self.f.get((i, j))
        if fij is None:
            fij = zero_map(power_module(self.src.module, j), self.dst.module,
                           (-i, 1 - i - j))
        return fij

    def __eq__(self, other):
        if not isinstance(other, DAInfMorphism):
            return NotImplemented
        if self.src != other.src or self.dst != other.dst:
            return False
        keys = set(self.f) | set(other.f)
        return all(self.f_map(*k) == other.f_map(*k) for k in keys)

    def __repr__(self):
        return f"DAInfMorphism(support={sorted(self.f)})"


class DAInfHomotopy:
    """Candidate r-homotopy: components h_{ik} of bidegree (r-i, r-i-k)."""

    __slots__ = ("r", "f", "g", "h")

    def __init__(self, r: int, f: DAInfMorphism, g: DAInfMorphism,
                 h: dict[tuple[int, int], BigradedMap] | None = None):
        if r < 0:
            raise ValueError("r must be non-negative")
        if f.src != g.src or f.dst != g.dst:
            raise ValueError("f and g must be parallel")
        self.r = r
        self.f = f
        self.g = g
        self.h = {}
        for (i, k), hik in (h or {}).items():
            if i < 0 or k < 1:
                raise ValueError(f"bad homotopy index {(i, k)}")
            if hik.src != power_module(f.src.module, k) or hik.dst != f.dst.module:
                raise ValueError(f"h_{(i, k)} has wrong source or target")
            if hik.bidegree != (r - i, r - i - k):
                raise ValueError(f"h_{(i, k)} has bidegree {hik.bidegree}, "
                                 f"expected {(r - i, r - i - k)}")
            if not hik.is_zero():
                self.h[(i, k)] = hik

    @property
    def src(self):
        return self.f.src

    @property
    def dst(self):
        return self.f.dst

    def h_map(self, i: int, k: int) -> BigradedMap:
        hik = self.h.get((i, k))
        if hik is None:
            hik = zero_map(power_module(self.f.src.module, k), self.f.dst.module,
                           (self.r - i, self.r - i - k))
        return hik


def identity_dainf(a: DAInfAlgebra) -> DAInfMorphism:
    return DAInfMorphism(a, a, {(0, 1): identity_map(a.module)})


def zero_dainf_morphism(a: DAInfAlgebra, b: DAInfAlgebra) -> DAInfMorphism:
    return DAInfMorphism(a, b, {})


# ---------------------------------------------------------------------------
# n-ary tensor of morphism components and bar powers
# ---------------------------------------------------------------------------

def component_tensor(maps: list[BigradedMap], arities: list[int],
                     src_mod: BigradedModule) -> BigradedMap:
    """f_1 (x) ... (x) f_l: Pow(src, sum q_t) -> Pow(dst, l) with Koszul
    signs; f_t maps Pow(src, arities[t]) -> dst.  Each tensor step writes
    its columns at their left-power coordinates."""
    out, k = maps[0], arities[0]
    for m, q in zip(maps[1:], arities[1:]):
        out = tensor_maps(out, m, (src_mod, k, q))
        k += q
    return out


def _sumset(points, k: int) -> set[tuple[int, int]]:
    """All sums of k pairs drawn from points, with repetition: the
    bidegrees of a k-fold tensor power of a module supported on points,
    or the classes (sum p, sum q) of the words of k components."""
    acc = set(points)
    for _ in range(k - 1):
        acc = {(a + c, b + d) for (a, b) in acc for (c, d) in points}
    return acc


def bar_power(g: dict[tuple[int, int], BigradedMap], mod: BigradedModule,
              n: int, U: int, K: int, memo: dict):
    """T_n(g)[(U, K)]: Pow(mod, K) -> Pow(dst, n), the sum of
    (-1)^compose_sign g_{p_1q_1} (x) ... (x) g_{p_nq_n} over all words of
    n components with sum p = U and sum q = K; None if there is no word.

    Each class is built from the classes one letter shorter,
    T_n[(U, K)] = sum_{(p,q)} (-1)^e T_{n-1}[(U-p, K-q)] (x) g_{pq} with
    e = compose_sign_step.  T_1 reads g itself; memo holds the classes
    with n >= 2, which only read components of arity below K.  Those are
    read only by further sums, so they stay sparse: a SparseMap, where T_1
    is the component, a BigradedMap.
    """
    if n == 1:
        return g.get((U, K))
    key = (n, U, K)
    if key not in memo:
        acc = MapSum()
        for (p, q), gpq in sorted(g.items()):
            hu, hk = U - p, K - q
            if hu < 0 or hk < n - 1:
                continue
            head = bar_power(g, mod, n - 1, hu, hk, memo)
            if head is None:
                continue
            acc.add_tensor(key, head, gpq, compose_sign_step(hu, hk, p, q),
                           (mod, hk, q))
        memo[key] = acc.sparse_maps().get(key)
    return memo[key]


# ---------------------------------------------------------------------------
# axiom checkers
# ---------------------------------------------------------------------------

def _add_insertions(acc: MapSum, outer: dict, a: DAInfAlgebra):
    """acc[(i+p, j+q-1)] += (-1)^{rq+t+pj} o_{ij}(1^r (x) m_{pq} (x) 1^t)
    for every map o_{ij} out of Pow(A, j) in outer and every m_{pq} of a."""
    for (i, j), oij in sorted(outer.items()):
        for (p, q), mpq in sorted(a.m.items()):
            for r in range(j):
                t = j - 1 - r
                acc.add_insertion((i + p, j + q - 1), oij, mpq, a.module,
                                  r, t, q, structure_sign(r, q, t, p, j))


def _report(rep: Report, acc: MapSum, name: str) -> Report:
    """One condition per bucket, failing on each nonzero block."""
    buckets = acc.maps()
    for (u, v) in sorted(buckets):
        rep.tick()
        for loc in sorted(buckets[(u, v)].blocks):
            rep.fail((u, v) + loc,
                     f"({name}_{{{u}{v}}}) fails on the block at {loc}")
    return rep


def check_dainf(a: DAInfAlgebra) -> Report:
    acc = MapSum()
    _add_insertions(acc, a.m, a)
    return _report(Report("derived A-infinity relations (A_uv)"), acc, "A")


def check_dainf_morphism(f: DAInfMorphism) -> Report:
    """(B_uv): the left side inserts m^A into f, the right side applies
    (-1)^u m^B_{ij} to the bar power T_j(f)[(u - i, v)]."""
    acc = MapSum()
    _add_insertions(acc, f.f, f.src)
    memo: dict = {}
    for (i, j), mij in sorted(f.dst.m.items()):
        for (U, K) in sorted(_sumset(f.f, j)):
            tens = bar_power(f.f, f.src.module, j, U, K, memo)
            acc.add_compose((i + U, K), mij, tens, i + U + 1)
    return _report(Report("dA-infinity morphism relations (B_uv)"),
                   acc, "B")


# ---------------------------------------------------------------------------
# composition and inversion
# ---------------------------------------------------------------------------

def compose_dainf(f: DAInfMorphism, g: DAInfMorphism,
                  check: bool = True) -> DAInfMorphism:
    """f after g as bar coalgebra maps: (fg)_{uk} = sum f_{ij} o
    T_j(g)[(u - i, k)], a morphism when f and g are; check decides (B_uv)
    on it anyway, raising ValueError when it fails."""
    if g.dst != f.src:
        raise ValueError("source/target mismatch")
    acc = MapSum()
    memo: dict = {}
    for (i, j), fij in sorted(f.f.items()):
        for (U, K) in sorted(_sumset(g.f, j)):
            tens = bar_power(g.f, g.src.module, j, U, K, memo)
            acc.add_compose((i + U, K), fij, tens)
    out = DAInfMorphism(g.src, f.dst, acc.maps())
    if check:
        check_dainf_morphism(out).raise_if_failed()
    return out


def invert_dainf(f: DAInfMorphism, arity_cap: int = 8) -> DAInfMorphism | None:
    """Two-sided inverse when f_{01} is blockwise invertible, else None; a
    morphism when f is, since g D = g D f g = g f D g = D g on the bar
    constructions once both composites are confirmed identities."""
    a, b = f.src, f.dst
    g01 = invert_blocks(f.f_map(0, 1))
    if g01 is None:
        return None
    g: dict[tuple[int, int], BigradedMap] = {(0, 1): g01}
    # solve (f o g)_{uk} = (1)_{uk} by recursion on (k, u):
    # g_{uk} = -sum g_{01} f_{ij} T_j(g)[(u - i, k)].  g_{uk} is not in g
    # while its equation is summed, so the top term f_{01} g_{uk} drops
    # out, and every other term reads components set before it
    gf = {key: bcompose(g01, fij) for key, fij in sorted(f.f.items())}
    memo: dict = {}
    for k in range(1, arity_cap + 1):
        # u values where the map space is nonzero, from bidegree sumsets
        for u in sorted(_reachable_u(b.module, a.module, k)):
            if (u, k) == (0, 1):
                continue
            acc = MapSum()
            for (i, j), gfij in gf.items():
                tens = bar_power(g, b.module, j, u - i, k, memo)
                if tens is not None:
                    acc.add_compose((u, k), gfij, tens, 1)
            guk = acc.maps().get((u, k))
            if guk is not None and not guk.is_zero():
                g[(u, k)] = guk
    ginv = DAInfMorphism(b, a, g)
    if compose_dainf(f, ginv, check=False) != identity_dainf(b) or \
       compose_dainf(ginv, f, check=False) != identity_dainf(a):
        raise RuntimeError(f"inverse not confirmed within arity cap {arity_cap}")
    return ginv


def _reachable_u(src_mod: BigradedModule, dst_mod: BigradedModule,
                 k: int) -> set[int]:
    """u >= 0 for which a map Pow(src,k) -> dst of bidegree (-u, 1-u-k)
    has a nonzero block."""
    out = set()
    for (si, sj) in _sumset(src_mod.dims, k):
        for (ti, tj) in dst_mod.dims:
            u = si - ti
            if u >= 0 and sj + 1 - u - k == tj:
                out.add(u)
    return out


# ---------------------------------------------------------------------------
# underlying twisted complex
# ---------------------------------------------------------------------------

def underlying_twisted(a: DAInfAlgebra) -> TwistedComplex:
    """The twisting maps d_i = m_{i1}, a twisted complex when a satisfies
    (A_uv): its arity-one relations are (A_m) of the d_i."""
    return TwistedComplex(a.module,
                          {i: mij for (i, j), mij in a.m.items() if j == 1})


def underlying_twisted_morphism(f: DAInfMorphism) -> TwistedMorphism:
    """The arity-one components between the underlying twisted complexes;
    an endomorphism stays one, on one complex."""
    comps = {i: fij for (i, j), fij in f.f.items() if j == 1}
    src = underlying_twisted(f.src)
    dst = src if f.dst is f.src else underlying_twisted(f.dst)
    return TwistedMorphism(src, dst, comps)


def is_er_quasi_iso_dainf(f: DAInfMorphism, r: int) -> bool:
    from .spectral import is_er_quasi_iso
    return is_er_quasi_iso(underlying_twisted_morphism(f), r)


# ---------------------------------------------------------------------------
# twisted dgas: iterated products and tensor with a dA-infinity algebra
# ---------------------------------------------------------------------------

def unit_dga(field: Field) -> TwistedDga:
    mod = unit_module(field)
    m02 = BigradedMap(power_module(mod, 2), mod, (0, 0),
                      {(0, 0): Matrix.identity(field, 1)})
    return TwistedDga(mod, {(0, 2): m02})


def iterated_mu(dga: TwistedDga, n: int) -> BigradedMap:
    """mu_2 = m_{02}, mu_n = m_{02} o (mu_{n-1} (x) 1)."""
    if n < 2:
        raise ValueError("iterated product needs n >= 2")
    mu = dga.m_map(0, 2)
    for _ in range(3, n + 1):
        mu = bcompose(dga.m_map(0, 2), tensor_maps(mu, identity_map(dga.module)))
    return mu


def tensor_twisted_dga(dga: TwistedDga, a: DAInfAlgebra) -> DAInfAlgebra:
    """Lambda (x) A with mhat_{i1} = mu_{i1} (x) 1 + 1 (x) m_{i1} and
    mhat_{ij} = (mu_j (x) m_{ij}) o tau_j for j >= 2, a dA-infinity
    algebra when dga is a twisted dga and A a dA-infinity algebra."""
    if dga.field != a.field:
        raise ValueError("field mismatch")
    mod = tensor_modules(dga.module, a.module)
    id_l = identity_map(dga.module)
    id_a = identity_map(a.module)
    acc, m = MapSum(), {}
    for (i, j), mu in sorted(dga.m.items()):
        if j == 1:
            acc.add_tensor((i, 1), mu, id_a)
    for (i, j), mij in sorted(a.m.items()):
        if j == 1:
            acc.add_tensor((i, 1), id_l, mij)
        else:
            tau = interleave_iso(dga.module, a.module, j)
            m[(i, j)] = bcompose(tensor_maps(iterated_mu(dga, j), mij), tau)
    # DAInfAlgebra drops the maps that came out zero
    return DAInfAlgebra(mod, {**acc.maps(), **m})


def tensor_dga_morphism(dga: TwistedDga, f: DAInfMorphism,
                        src: DAInfAlgebra | None = None,
                        dst: DAInfAlgebra | None = None) -> DAInfMorphism:
    """1_Lambda (x) f on Lambda (x) -: fhat_{i1} = 1 (x) f_{i1},
    fhat_{ij} = (mu_j (x) f_{ij}) o tau_j, a morphism when f is."""
    src = src or tensor_twisted_dga(dga, f.src)
    dst = dst or tensor_twisted_dga(dga, f.dst)
    id_l = identity_map(dga.module)
    comps: dict[tuple[int, int], BigradedMap] = {}
    for (i, j), fij in sorted(f.f.items()):
        if j == 1:
            comps[(i, 1)] = tensor_maps(id_l, fij)
        else:
            tau = interleave_iso(dga.module, f.src.module, j)
            comps[(i, j)] = bcompose(tensor_maps(iterated_mu(dga, j), fij), tau)
    return DAInfMorphism(src, dst, comps)


# ---------------------------------------------------------------------------
# Lambda_r and the functorial r-path
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LambdaObject:
    algebra: TwistedDga
    iota: DAInfMorphism       # R -> Lambda_r, 1 -> e_- + e_+
    p_minus: DAInfMorphism    # e_- -> 1, else 0
    p_plus: DAInfMorphism     # e_+ -> 1, else 0
    r: int


def _ones_map(src: BigradedModule, dst: BigradedModule,
              entries) -> BigradedMap:
    """The bidegree (0, 0) map src -> dst with a 1 at each (source
    bidegree, row, column) of entries and 0 elsewhere."""
    blocks = {}
    for bid, row, col in entries:
        if bid not in blocks:
            blocks[bid] = Matrix.zero(src.field, dst.dim(*bid), src.dim(*bid))
        blocks[bid][row, col] = src.field.one()
    return BigradedMap(src, dst, (0, 0), dict(sorted(blocks.items())))


@cache
def lambda_r_dga(r: int, field: Field | None = None) -> LambdaObject:
    """Generators e_-, e_+ at (0,0) and u at (-r, 1-r);
    mu_{r1}(e_-) = -u, mu_{r1}(e_+) = u;
    mu_{02}: e_-e_- = e_-, e_+e_+ = e_+, e_-u = u = ue_+, 0 elsewhere.

    A constant of (r, field), built once: the result is shared by every
    caller and must not be changed."""
    from .linalg import GF
    field = field or GF()
    e_bid = (0, 0)
    u_bid = (-r, 1 - r)
    mod = BigradedModule(field, {e_bid: 2, u_bid: 1})
    m_r1 = BigradedMap(mod, mod, (-r, 1 - r),
                       {e_bid: Matrix.from_rows(field, [[-1, 1]])})

    # mu_{02} from its four products x (x) y -> z
    e_minus, e_plus, u = (*e_bid, 0), (*e_bid, 1), (*u_bid, 0)
    m02 = _ones_map(power_module(mod, 2), mod, [
        (z[:2], z[2], tensor_index(mod, mod, x, y))
        for x, y, z in [(e_minus, e_minus, e_minus), (e_plus, e_plus, e_plus),
                        (e_minus, u, u), (u, e_plus, u)]])
    lam = TwistedDga(mod, {(r, 1): m_r1, (0, 2): m02})

    unit = unit_dga(field)
    iota01 = BigradedMap(unit.module, mod, (0, 0),
                         {(0, 0): Matrix.from_rows(field, [[1], [1]])})
    pm01 = BigradedMap(mod, unit.module, (0, 0),
                       {e_bid: Matrix.from_rows(field, [[1, 0]])})
    pp01 = BigradedMap(mod, unit.module, (0, 0),
                       {e_bid: Matrix.from_rows(field, [[0, 1]])})
    return LambdaObject(lam, DAInfMorphism(unit, lam, {(0, 1): iota01}),
                        DAInfMorphism(lam, unit, {(0, 1): pm01}),
                        DAInfMorphism(lam, unit, {(0, 1): pp01}), r)


@dataclass
class PathDainf:
    """The functorial r-path P_r(A) with its boundary maps.

    tensor_algebra is Lambda_r (x) A, which the strict isomorphism ident
    of bidegree (0, 0) carries onto algebra, entry by entry."""

    algebra: DAInfAlgebra          # on the direct-sum module x/y/z
    iota: DAInfMorphism
    p_minus: DAInfMorphism
    p_plus: DAInfMorphism
    p_zero: BigradedMap            # bidegree (r, r-1)
    tensor_algebra: DAInfAlgebra   # Lambda_r (x) A presentation
    ident: BigradedMap             # Lambda_r (x) A -> direct-sum module
    r: int


def _lambda_ident_pieces(a_mod: BigradedModule, r: int):
    """(summands of Lambda_r (x) A, pieces) of lambda_ident_iso."""
    mid = a_mod.shifted((-r, 1 - r))
    one, one_mid = identity_map(a_mod), identity_map(mid)
    if r:  # u (x) A comes first
        return [mid, a_mod, a_mod], {(1, 0): (one_mid, False),
                                     (0, 1): (one, False),
                                     (2, 2): (one, False)}
    return [a_mod, a_mod, mid], {(0, 0): (one, False), (2, 1): (one, False),
                                 (1, 2): (one_mid, False)}


@cache
def lambda_ident_iso(a_mod: BigradedModule, r: int) -> BigradedMap:
    """Strict iso Lambda_r (x) A -> A (+) A[mid] (+) A matching
    e_- (x) x + u (x) y + e_+ (x) z <-> (x, y, z).  Lambda_r (x) A is the
    direct sum of its summands by left bidegree, u (x) A = A[mid] at
    (-r, 1-r) and (e_-, e_+) (x) A at (0, 0), in ascending order.

    A constant of (a_mod, r), built once: the result is shared by every
    caller and must not be changed."""
    parts, pieces = _lambda_ident_pieces(a_mod, r)
    return place(parts, path_summands(a_mod, r), (0, 0), pieces)


@cache
def lambda_ident_inverse(a_mod: BigradedModule, r: int) -> BigradedMap:
    """The inverse of lambda_ident_iso: its identity pieces placed from the
    path summands back, so no block is eliminated.

    A constant of (a_mod, r), built once: the result is shared by every
    caller and must not be changed."""
    parts, pieces = _lambda_ident_pieces(a_mod, r)
    return place(path_summands(a_mod, r), parts, (0, 0),
                 {(l, k): piece for (k, l), piece in pieces.items()})


@cache
def _ident_inverse_power(a_mod: BigradedModule, r: int,
                         j: int) -> BigradedMap:
    """(ident^{-1})^{(x) j}: P_r(A)^{(x) j} -> (Lambda_r (x) A)^{(x) j}, the
    right factor of the transported m_{ij}.

    A constant of (a_mod, r, j), built once: the result is shared by every
    caller and must not be changed."""
    inv = lambda_ident_inverse(a_mod, r)
    return nary_tensor_maps([inv] * j) if j > 1 else inv


@cache
def _path_tj(a_mod: BigradedModule, r: int, j: int) -> BigradedMap:
    """t_j: P_r(A)^{(x) j} -> P_r(A^{(x) j}), the tensor words of the path
    projections: p_-^{(x) j} into the first summand, p_+^{(x) j} into the
    third, and into the middle the sum over s of
    p_-^{(x) s} (x) p_0 (x) p_+^{(x) j-1-s}.  So only the patterns x..x,
    x..x y z..z and z..z survive, and the sign xbar = (-1)^{r x_1 + (1-r) x_2}
    on every x left of the y is the Koszul sign of moving p_0, of bidegree
    (r, r-1), past them.

    A constant of (a_mod, r, j), built once: the result is shared by every
    caller and must not be changed."""
    _, minus, plus, zero = path_structure_maps(a_mod, r)
    words = [nary_tensor_maps([minus] * s + [zero] + [plus] * (j - 1 - s))
             for s in range(j)]
    src = power_module(sum_module(path_summands(a_mod, r)), j)
    return place([src], path_summands(power_module(a_mod, j), r), (0, 0),
                 {(0, 0): (nary_tensor_maps([minus] * j), False),
                  (1, 0): (relabel(sum(words[1:], words[0]), (0, 0),
                                   (-r, 1 - r)), False),
                  (2, 0): (nary_tensor_maps([plus] * j), False)})


def path_dainf(a: DAInfAlgebra, r: int) -> PathDainf:
    """Functorial r-path built twice: as Lambda_r (x) A transported through
    the identification, and directly from the printed block matrices;
    the two constructions are compared entry by entry.  A dA-infinity
    algebra with morphisms iota, p_minus and p_plus when a is one: the
    comparison makes it Lambda_r (x) A (``tensor_twisted_dga``) conjugated
    by the strict isomorphism ident, and the maps those of Lambda_r
    tensored with 1_A."""
    lam = lambda_r_dga(r, a.field)
    tensor_alg = tensor_twisted_dga(lam.algebra, a)

    parts = path_summands(a.module, r)
    path_mod = sum_module(parts)
    ident = lambda_ident_iso(a.module, r)

    # transported structure maps
    transported: dict[tuple[int, int], BigradedMap] = {}
    for (i, j), mij in sorted(tensor_alg.m.items()):
        transported[(i, j)] = bcompose(
            ident, bcompose(mij, _ident_inverse_power(a.module, r, j)))

    # direct construction: arity 1 is the twisted path, arity >= 2 the
    # diagonal matrices composed with t_j
    direct = {(i, 1): dm for i, dm in path_differential(
        a.module, {i: mij for (i, j), mij in a.m.items() if j == 1}, r).items()}
    for (i, j), mij in sorted(a.m.items()):
        if j < 2:
            continue
        block = place(path_summands(power_module(a.module, j), r), parts,
                      mij.bidegree, path_diagonal(mij, r, (r * j + i + j) % 2))
        direct[(i, j)] = bcompose(block, _path_tj(a.module, r, j))

    keys = sorted(set(transported) | set(direct))
    for key in keys:
        i, j = key
        t = transported.get(key, zero_map(power_module(path_mod, j), path_mod,
                                          (-i, 2 - i - j)))
        d = direct.get(key, zero_map(power_module(path_mod, j), path_mod,
                                     (-i, 2 - i - j)))
        if t != d:
            raise AssertionError(
                f"path constructions disagree at m_{key}: tensor route vs "
                f"printed block matrices")

    algebra = DAInfAlgebra(path_mod, direct)
    iota0, minus0, plus0, p_zero = path_structure_maps(a.module, r)
    return PathDainf(algebra, DAInfMorphism(a, algebra, {(0, 1): iota0}),
                     DAInfMorphism(algebra, a, {(0, 1): minus0}),
                     DAInfMorphism(algebra, a, {(0, 1): plus0}), p_zero,
                     tensor_alg, ident, r)


def path_dainf_morphism(f: DAInfMorphism, r: int,
                        src_path: PathDainf | None = None,
                        dst_path: PathDainf | None = None) -> DAInfMorphism:
    """P_r(f)_{ij} = (f_{ij}, (-1)^{(r+1)(j-1)+i} f_{ij}, f_{ij}) o t_j, a
    morphism when f is: 1 (x) f across the identifications of path_dainf."""
    pa = src_path or path_dainf(f.src, r)
    pb = dst_path or path_dainf(f.dst, r)
    dst = path_summands(f.dst.module, r)
    comps = {}
    for (i, j), fij in sorted(f.f.items()):
        block = place(path_summands(power_module(f.src.module, j), r), dst,
                      fij.bidegree,
                      path_diagonal(fij, r, ((r + 1) * (j - 1) + i) % 2))
        comps[(i, j)] = bcompose(block, _path_tj(f.src.module, r, j))
    return DAInfMorphism(pa.algebra, pb.algebra, comps)


def diagonal_delta(r: int, field: Field | None = None):
    """The strict comultiplication Delta: Lambda_r -> Lambda_r (x) Lambda_r
    with Delta(e_-) = e_- (x) (e_- + e_+) + e_+ (x) e_-,
    Delta(e_+) = e_+ (x) e_+, Delta(u) = u (x) e_+ + e_+ (x) u.

    Returns (delta, lam, square) where square = Lambda_r (x) Lambda_r; Delta
    is multiplicative and commutes with the differentials."""
    from .linalg import GF
    field = field or GF()
    lam = lambda_r_dga(r, field)
    square = tensor_twisted_dga(lam.algebra, lam.algebra)
    mod = lam.algebra.module
    e_minus, e_plus, u = (0, 0, 0), (0, 0, 1), (-r, 1 - r, 0)
    images = [(e_minus, [(e_minus, e_minus), (e_minus, e_plus),
                         (e_plus, e_minus)]),
              (e_plus, [(e_plus, e_plus)]),
              (u, [(u, e_plus), (e_plus, u)])]
    d01 = _ones_map(mod, square.module, [
        (x[:2], tensor_index(mod, mod, a, b), x[2])
        for x, words in images for a, b in words])
    return DAInfMorphism(lam.algebra, square, {(0, 1): d01}), lam, square


def collapse_after(delta: DAInfMorphism, lam: LambdaObject, side: str) \
        -> DAInfMorphism:
    """(p^{side} (x) 1) o Delta, a composite of strict morphisms
    Lambda_r -> Lambda_r."""
    proj = lam.p_plus if side == "+" else lam.p_minus
    mod = lam.algebra.module
    # R (x) Lambda_r is Lambda_r itself: same bidegrees, same coordinates
    mixed = tensor_maps(proj.f_map(0, 1), identity_map(mod))
    mor = DAInfMorphism(delta.dst, lam.algebra, {(0, 1): mixed})
    return compose_dainf(mor, delta, check=False)


# ---------------------------------------------------------------------------
# r-homotopies for dA-infinity morphisms
# ---------------------------------------------------------------------------

def _hmk_buckets(h: DAInfHomotopy) -> MapSum:
    """Left side of (H_mk) minus right side, bucketed by (m, k)."""
    a, b, r = h.src, h.dst, h.r
    gk = sorted(h.g.f)
    fk = sorted(h.f.f)
    hk = sorted(h.h)
    acc = MapSum()
    # sum 1: m^B_{il} applied to g .. g h f .. f, one tensor per word, so
    # this route stays independent of the bar powers that the test suite's
    # reference, the morphism check of the map assembled into P_r(B), runs
    # through
    for (i, l), mil in sorted(b.m.items()):
        for s in range(l):
            slot_choices = [gk] * s + [hk] + [fk] * (l - s - 1)
            for parts in iproduct(*slot_choices):
                p = sum(pp for (pp, _) in parts)
                k = sum(qq for (_, qq) in parts)
                comps = ([h.g.f[pt] for pt in parts[:s]]
                         + [h.h[parts[s]]]
                         + [h.f.f[pt] for pt in parts[s + 1:]])
                tens = component_tensor(comps, [q for (_, q) in parts],
                                        a.module)
                acc.add_compose((i + p, k), mil, tens,
                                homotopy_sum1_sign(r, p, s, list(parts))
                                + i + p - r)
    # sum 2: h_{il} applied to 1^s (x) m^A_{pq} (x) 1^t
    for (i, l) in hk:
        hil = h.h[(i, l)]
        for (p, q), mpq in sorted(a.m.items()):
            for s in range(l):
                t = l - 1 - s
                acc.add_insertion((i + p, s + q + t), hil, mpq, a.module,
                                  s, t, q,
                                  homotopy_beta(r, s, q, t, p, l) + i + p - r)
    # right side
    for (i, k) in sorted(set(fk) | set(gk)):
        acc.add((i + r, k), h.g.f_map(i, k), 1)
        acc.add((i + r, k), h.f.f_map(i, k))
    return acc


def check_r_homotopy_dainf(h: DAInfHomotopy) -> Report:
    """(H_mk) evaluated directly.  (A_uv) on the source and the target is
    not decided here; `homotopy check --dainf` decides it first."""
    rep = Report(f"dA-infinity {h.r}-homotopy conditions (H_mk)")
    fr = check_dainf_morphism(h.f)
    gr = check_dainf_morphism(h.g)
    if not fr.ok or not gr.ok:
        rep.fail("inputs", "f or g is not a morphism")
        return rep
    _report(rep, _hmk_buckets(h), "H")
    return rep
