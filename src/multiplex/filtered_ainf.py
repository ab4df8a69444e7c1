"""Split filtered A-infinity algebras and the totalization bridge.

A filtered A-infinity algebra here is a split non-negatively filtered
complex Tot(A) with k-ary operations m_k of degree 2-k that preserve the
column filtration in the strong sense

    m_k(F_{p_1} (x) ... (x) F_{p_k}) <= F_{p_1 + ... + p_k},

satisfying the ordinary A-infinity relations with total-degree Koszul
signs:

    sum_{r+q+t=v} (-1)^{rq+t} m_{r+1+t} (1^r (x) m_q (x) 1^t) = 0.

tot_dainf realizes the bridge: m_k := Tot(M_k) o mu_k where mu_k is the
iterated lax-monoidal comparison map and M_k is the structure family in
enriched coordinates (see the decisions notes for the sign convention
(M_k)_u = (-1)^{u(k+1)} m_{uk}, which makes m_1 the differential of
Tot(U(A)) on the nose).
"""

from __future__ import annotations

from .bigraded import BigradedModule, power_tree, tree_basis
from .dainf import DAInfAlgebra, underlying_twisted
from .filtration import (
    FilteredComplex, FilteredMap, graded_map_tensor, graded_tensor,
    identity_filtered, mu, tot, tot_family,
)
from .linalg import Matrix
from .reports import Report
from .signs import ainf_sign
from .twisted import tensor as twisted_tensor


class FilteredAInf:
    """Splitting module + per-arity, per-degree operation matrices.

    ms[k][n] is the matrix of m_k from degree n of the k-th tensor power
    of the underlying complex to degree n + 2 - k; ms[1] is the
    differential.
    """

    __slots__ = ("module", "ms")

    def __init__(self, module: BigradedModule, ms: dict[int, dict[int, Matrix]]):
        self.module = module
        self.ms = {k: {n: m for n, m in per.items() if not m.is_zero()}
                   for k, per in ms.items() if k >= 1}

    @property
    def field(self):
        return self.module.field

    def arities(self):
        return sorted(self.ms)


def power_basis(module: BigradedModule, k: int, n: int):
    """Tot^n basis of the k-th tensor power as tuples of (i, j, idx)."""
    tree = power_tree(module, k)
    pw = tree.module
    out = []
    for i in sorted({i for (i, j) in pw.dims if j - i == n}):
        out.extend(tree_basis(tree, i, n + i))
    return out


def power_complex(k_complex: FilteredComplex, k: int) -> FilteredComplex:
    out = k_complex
    for _ in range(k - 1):
        out = graded_tensor(out, k_complex)
    return out


def check_filtered_ainf(fa: FilteredAInf) -> Report:
    rep = Report("filtered A-infinity structure")
    module = fa.module
    # the underlying complex: m_1 must be a filtered differential
    try:
        base = FilteredComplex(module, fa.ms.get(1, {}))
    except ValueError as exc:
        rep.fail(("m_1",), str(exc))
        return rep
    rep.tick()
    for n in base.degrees():
        if not (base.d_mat(n + 1) * base.d_mat(n)).is_zero():
            rep.fail(("m_1", "degree", n), "m_1 squared is nonzero")
    if not rep.ok:
        return rep

    # shape and filtration containments, reported per arity and degree
    powers = {1: base}
    for k in fa.arities():
        if k > 1:
            powers[k] = power_complex(base, k)
    ops: dict[int, FilteredMap] = {}
    for k in fa.arities():
        pw = powers[k]
        blocks = {}
        bad = False
        for n, mat in fa.ms[k].items():
            src = power_basis(module, k, n)
            dst = base.basis(n + 2 - k)
            rep.tick()
            if mat.rows != len(dst) or mat.cols != len(src):
                rep.fail(("m_k shape", k, n),
                         f"expected {len(dst)}x{len(src)}, got "
                         f"{mat.rows}x{mat.cols}")
                bad = True
                continue
            for cc, tup in enumerate(src):
                src_col = sum(i for (i, _, _) in tup)
                for rr, (i2, _) in enumerate(dst):
                    if mat[rr, cc] and i2 > src_col:
                        rep.fail(("containment", k, n),
                                 f"m_{k} sends filtration {src_col} into "
                                 f"column {i2}")
                        bad = True
                        break
                else:
                    continue
                break
            blocks[n] = mat
        if not bad:
            try:
                ops[k] = FilteredMap(pw, base, 2 - k, 0, blocks)
            except ValueError as exc:
                rep.fail(("m_k", k), str(exc))
    if not rep.ok:
        return rep

    # A-infinity relations
    vs = sorted({r + q + t
                 for q in fa.arities() for j in fa.arities()
                 for r in range(j) for t in [j - 1 - r]})
    for v in vs:
        if v < 1:
            continue
        pw_v = powers.get(v)
        if pw_v is None:
            pw_v = power_complex(base, v)
            powers[v] = pw_v
        acc: dict[int, Matrix] = {}
        any_term = False
        for q in fa.arities():
            for r in range(0, v - q + 1):
                t = v - q - r
                k = r + 1 + t
                if k not in ops:
                    continue
                inner = _one_m_one_filtered(base, powers, fa, module,
                                            r, q, t)
                term = ops[k].compose(inner)
                sgn = -1 if ainf_sign(r, q, t) else 1
                for n, mat in term.blocks.items():
                    mat = mat if sgn > 0 else -mat
                    acc[n] = acc[n] + mat if n in acc else mat
                any_term = True
        rep.tick()
        if any_term:
            for n in sorted(acc):
                if not acc[n].is_zero():
                    rep.fail(("relation", v, "degree", n),
                             f"A-infinity relation at arity {v} fails")
    return rep


def _one_m_one_filtered(base: FilteredComplex, powers: dict,
                        fa: FilteredAInf, module: BigradedModule,
                        r: int, q: int, t: int) -> FilteredMap:
    """1^{(x) r} (x) m_q (x) 1^{(x) t} with total-degree Koszul signs,
    assembled directly on power bases."""
    field = base.field
    v = r + q + t
    k_out = r + 1 + t
    src = powers.get(v) or power_complex(base, v)
    powers[v] = src
    dst = powers.get(k_out) or power_complex(base, k_out)
    powers[k_out] = dst
    mq = fa.ms[q]
    blocks: dict[int, Matrix] = {}
    dst_index: dict[int, dict] = {}

    def didx(n):
        if n not in dst_index:
            dst_index[n] = {tup: c for c, tup in
                            enumerate(power_basis(module, k_out, n))}
        return dst_index[n]

    q_index: dict[int, dict] = {}

    def qidx(n):
        if n not in q_index:
            q_index[n] = {tup: c for c, tup in
                          enumerate(power_basis(module, q, n))}
        return q_index[n]

    for n in src.degrees():
        sb = power_basis(module, v, n)
        rows = dst.dim(n + 2 - q)
        if not sb or not rows:
            continue
        mat = Matrix.zero(field, rows, len(sb))
        nonzero = False
        for cc, tup in enumerate(sb):
            head, mid, tail = tup[:r], tup[r:r + q], tup[r + q:]
            n_head = sum(j - i for (i, j, _) in head)
            n_mid = sum(j - i for (i, j, _) in mid)
            col = qidx(n_mid).get(mid)
            if col is None:
                raise AssertionError("power basis decode failed")
            mmat = mq.get(n_mid)
            if mmat is None:
                continue
            sgn = -1 if (q * n_head) % 2 else 1
            tgt_deg = n_mid + 2 - q
            tbasis = base.basis(tgt_deg)
            for rr, (i2, b2) in enumerate(tbasis):
                val = mmat[rr, col]
                if not val:
                    continue
                new_tup = head + ((i2, tgt_deg + i2, b2),) + tail
                out_r = didx(n + 2 - q).get(new_tup)
                if out_r is None:
                    raise AssertionError("composite lands off the basis")
                mat[out_r, cc] = field.add(
                    mat[out_r, cc], val if sgn > 0 else field.neg(val))
                nonzero = True
        if nonzero:
            blocks[n] = mat
    return FilteredMap(src, dst, 2 - q, 0, blocks)


def tot_dainf(a: DAInfAlgebra) -> FilteredAInf:
    """m_k := Tot(M_k) o mu_k with (M_k)_u = (-1)^{u(k+1)} m_{uk}, a split
    filtered A-infinity algebra when a satisfies (A_uv)."""
    u_twisted = underlying_twisted(a)
    base = tot(u_twisted)
    ms: dict[int, dict[int, Matrix]] = {1: dict(base.d)}
    arities = sorted({k for (_, k) in a.m if k >= 2})
    if arities:
        # mu_k: Tot(U)^{(x) k} -> Tot(U^{(x) k}), iterated left to right
        pow_tc = {1: u_twisted}
        pow_tot = {1: base}
        mu_maps: dict[int, FilteredMap] = {1: identity_filtered(base)}
        for k in range(2, max(arities) + 1):
            pow_tc[k] = twisted_tensor(pow_tc[k - 1], u_twisted)
            pow_tot[k] = tot(pow_tc[k])
            step = mu(pow_tc[k - 1], u_twisted, pow_tot[k - 1], base)
            mu_maps[k] = step.compose(
                graded_map_tensor(mu_maps[k - 1], identity_filtered(base)))
        for k in arities:
            family = {}
            for (u, kk), muk in a.m.items():
                if kk != k:
                    continue
                family[u] = muk if (u * (k + 1)) % 2 == 0 else -muk
            tot_mk = tot_family(family, 0, 2 - k, pow_tot[k], base)
            mk = tot_mk.compose(mu_maps[k])
            ms[k] = dict(mk.blocks)
    return FilteredAInf(a.module, ms)
