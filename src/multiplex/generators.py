"""Seeded random instances for tests, acceptance runs and the CLI.

Twisted complexes are generated through their totalizations: a direct sum
of elementary square-zero filtered blocks N (a partial matching pairing a
basis vector with one of equal-or-lower column in the next degree) is
conjugated by a unipotent filtered automorphism P = 1 + (strictly
column-decreasing), and the result is read back through the inverse of
Tot.  This guarantees the twisting axioms exactly without ever solving a
quadratic equation.
"""

from __future__ import annotations

import random

from .bigraded import BigradedMap, BigradedModule
from .filtration import (
    FilteredComplex, FilteredMap, tot, tot_inverse, tot_inverse_morphism,
)
from .linalg import Field, Matrix
from .twisted import (
    RHomotopy, TwistedComplex, TwistedMorphism, check_r_homotopy, homotopy_lhs,
)


def random_module(field: Field, rng: random.Random, cols=(0, 3), verts=(-1, 3),
                  max_rank=2, spots=4) -> BigradedModule:
    dims = {}
    for _ in range(spots):
        i = rng.randint(*cols)
        j = rng.randint(i + verts[0], i + verts[1])
        dims[(i, j)] = rng.randint(1, max_rank)
    return BigradedModule(field, dims)


def _rand_scalar(field: Field, rng: random.Random, nonzero=False):
    while True:
        v = field.of_int(rng.randint(-4, 4))
        if v or not nonzero:
            return v


def random_filtered_complex(field: Field, rng: random.Random, cols=(0, 3),
                            verts=(-1, 3), max_rank=2, spots=4,
                            pair_prob=0.7, mix=2) -> FilteredComplex:
    module = random_module(field, rng, cols, verts, max_rank, spots)
    from .filtration import degrees_of, tot_basis
    ns = degrees_of(module)
    d: dict[int, Matrix] = {}
    used_targets: dict[int, set[int]] = {}
    for n in ns:
        src = tot_basis(module, n)
        dst = tot_basis(module, n + 1)
        if not src or not dst:
            continue
        mat = Matrix.zero(field, len(dst), len(src))
        taken = set(used_targets.get(n + 1, set()))
        for cc, (i, _) in enumerate(src):
            if cc in used_targets.get(n, set()):
                continue  # already a target: keep N squared zero
            if rng.random() > pair_prob:
                continue
            cands = [rr for rr, (i2, _) in enumerate(dst)
                     if i2 <= i and rr not in taken]
            if not cands:
                continue
            rr = rng.choice(cands)
            taken.add(rr)
            mat[rr, cc] = _rand_scalar(field, rng, nonzero=True)
        used_targets[n + 1] = taken
        if not mat.is_zero():
            d[n] = mat
    plain = FilteredComplex(module, d)
    p = random_unipotent(plain, rng, density=0.4, rounds=mix)
    conj = {}
    for n in ns:
        dn = plain.d_mat(n)
        if plain.dim(n) and plain.dim(n + 1):
            pinv = p[n + 1].inverse()
            m = pinv * dn * p[n]
            if not m.is_zero():
                conj[n] = m
    return FilteredComplex(module, conj)


def random_unipotent(k: FilteredComplex, rng: random.Random, density=0.4,
                     rounds=1) -> dict[int, Matrix]:
    """Per-degree matrices of a filtered automorphism 1 + strictly-lowering."""
    field = k.field
    out = {}
    for n in k.degrees():
        basis = k.basis(n)
        m = Matrix.identity(field, len(basis))
        for _ in range(rounds):
            for rr, (i2, _) in enumerate(basis):
                for cc, (i, _) in enumerate(basis):
                    if i2 < i and rng.random() < density:
                        m[rr, cc] = field.add(m[rr, cc], _rand_scalar(field, rng))
        out[n] = m
    return out


def random_twisted_complex(field: Field, rng: random.Random, **kw) -> TwistedComplex:
    return tot_inverse(random_filtered_complex(field, rng, **kw))


def random_filtered_map(k: FilteredComplex, l: FilteredComplex,
                        rng: random.Random, degree: int, shift: int,
                        density=0.5) -> FilteredMap:
    """Random map of the stated degree and filtration allowance (no chain
    condition)."""
    field = k.field
    blocks = {}
    for n in k.degrees():
        src = k.basis(n)
        dst = l.basis(n + degree)
        if not src or not dst:
            continue
        m = Matrix.zero(field, len(dst), len(src))
        nonzero = False
        for rr, (i2, _) in enumerate(dst):
            for cc, (i, _) in enumerate(src):
                if i2 <= i + shift and rng.random() < density:
                    v = _rand_scalar(field, rng)
                    if v:
                        m[rr, cc] = v
                        nonzero = True
        if nonzero:
            blocks[n] = m
    return FilteredMap(k, l, degree, shift, blocks)


def random_null_homotopic_map(a: TwistedComplex, b: TwistedComplex,
                              rng: random.Random,
                              ka: FilteredComplex | None = None,
                              kb: FilteredComplex | None = None) -> TwistedMorphism:
    """dU + Ud for a random filtered U of degree -1: always a valid morphism."""
    ka = ka or tot(a)
    kb = kb or tot(b)
    u = random_filtered_map(ka, kb, rng, degree=-1, shift=0)
    blocks = {}
    for n in ka.degrees():
        m = kb.d_mat(n - 1) * u.block(n) + u.block(n + 1) * ka.d_mat(n)
        if not m.is_zero():
            blocks[n] = m
    fmap = FilteredMap(ka, kb, 0, 0, blocks)
    return tot_inverse_morphism(fmap, a, b)


def random_automorphism(a: TwistedComplex, rng: random.Random,
                        ka: FilteredComplex | None = None) -> TwistedMorphism:
    """1 + dU + Ud with U strictly filtration-decreasing: an isomorphism."""
    ka = ka or tot(a)
    u = random_filtered_map(ka, ka, rng, degree=-1, shift=-1)
    blocks = {}
    for n in ka.degrees():
        m = Matrix.identity(ka.field, ka.dim(n)) \
            + ka.d_mat(n - 1) * u.block(n) + u.block(n + 1) * ka.d_mat(n)
        blocks[n] = m
    fmap = FilteredMap(ka, ka, 0, 0, blocks)
    return tot_inverse_morphism(fmap, a, a)


def random_endo_morphism(a: TwistedComplex, rng: random.Random,
                         ka: FilteredComplex | None = None) -> TwistedMorphism:
    """lambda * id + dU + Ud: chain map with a tunable page-level behaviour."""
    ka = ka or tot(a)
    lam = _rand_scalar(a.field, rng)
    u = random_filtered_map(ka, ka, rng, degree=-1, shift=0)
    blocks = {}
    for n in ka.degrees():
        m = Matrix.identity(ka.field, ka.dim(n)).scale(lam) \
            + ka.d_mat(n - 1) * u.block(n) + u.block(n + 1) * ka.d_mat(n)
        if not m.is_zero():
            blocks[n] = m
    fmap = FilteredMap(ka, ka, 0, 0, blocks)
    return tot_inverse_morphism(fmap, a, a)


def random_homotopy_family(a: TwistedComplex, b: TwistedComplex, r: int,
                           rng: random.Random, density=0.5) \
        -> dict[int, BigradedMap]:
    """Random hhat with components only in degrees >= r, so the m < r
    conditions hold vacuously."""
    field = a.field
    supp_a = a.module.support()
    i_min_b = min((i for (i, _) in b.module.dims), default=0)
    i_max_a = max((i for (i, _) in supp_a), default=0)
    out = {}
    for m in range(r, max(r, r + i_max_a - i_min_b) + 1):
        blocks = {}
        for (i, j) in supp_a:
            rows = b.module.dim(i - m + r, j - m + r - 1)
            cols = a.module.dims[(i, j)]
            if rows and cols:
                mat = Matrix.zero(field, rows, cols)
                nonzero = False
                for rr in range(rows):
                    for cc in range(cols):
                        if rng.random() < density:
                            v = _rand_scalar(field, rng)
                            if v:
                                mat[rr, cc] = v
                                nonzero = True
                if nonzero:
                    blocks[(i, j)] = mat
        if blocks:
            out[m] = BigradedMap(a.module, b.module, (-m + r, -m + r - 1), blocks)
    return out


def random_zero_product_dainf(field: Field, rng: random.Random, **kw):
    """A dA-infinity algebra with zero products: just a twisted complex
    carried by its m_{i1}."""
    from .dainf import DAInfAlgebra
    a = random_twisted_complex(field, rng, **kw)
    return DAInfAlgebra(a.module, {(i, 1): dm for i, dm in a.d.items()})


def dainf_morphism_space(a, b, max_arity: int = 2):
    """Kernel basis of the (B_uv) constraints between zero-product
    algebras, where the conditions are linear in f; returns a list of
    component dictionaries {(i, j): BigradedMap}.

    The system decouples by arity: for each j the family {f_{ij}} must
    intertwine the tensor-power differential of the source with the
    differential of the target.
    """
    from .bigraded import power_module
    from .dainf import DAInfAlgebra, underlying_twisted
    from .linalg import BlockLinearSystem
    from .twisted import tensor as twisted_tensor

    if any(j > 1 for (_, j) in a.m) or any(j > 1 for (_, j) in b.m):
        raise ValueError("linear sampling needs zero-product algebras")
    field = a.field
    ua, ub = underlying_twisted(a), underlying_twisted(b)
    out_elements: list[dict] = []
    for v in range(1, max_arity + 1):
        pw = power_module(a.module, v)
        pw_tc = ua
        for _ in range(v - 1):
            pw_tc = twisted_tensor(pw_tc, ua)
        sys = BlockLinearSystem(field)
        u_vals = sorted({si - ti for (si, sj) in pw.dims
                         for (ti, tj) in b.module.dims
                         if si - ti >= 0 and sj + 1 - (si - ti) - v == tj})
        for u in u_vals:
            for beta in pw.support():
                tgt = (beta[0] - u, beta[1] + 1 - u - v)
                if b.module.dim(*tgt):
                    sys.variable(("f", u, beta), b.module.dim(*tgt),
                                 pw.dims[beta])
        for u in range(0, (max(u_vals, default=0)
                           + max(list(ub.d) + [0]) + 1) + 1):
            for beta in pw.support():
                tgt = (beta[0] - u, beta[1] + 2 - u - v)
                rows = b.module.dim(*tgt)
                cols = pw.dims[beta]
                if not rows or not cols:
                    continue
                eq = ("B", u, beta)
                sys.equation(eq, rows, cols)
                # (-1)^{v-1+pv} f_{i v} o D_p at beta
                for p, dp in pw_tc.d.items():
                    blk = dp.blocks.get(beta)
                    if blk is None:
                        continue
                    i = u - p
                    beta2 = (beta[0] - p, beta[1] - p + 1)
                    vk = ("f", i, beta2)
                    if i >= 0 and vk in sys._vars:
                        sys.add_term(eq, vk, None, blk,
                                     1 if (v - 1 + p * v) % 2 == 0 else -1)
                # -(-1)^u d_i^B o f_{u-i, v} at beta
                for i, di in ub.d.items():
                    fu = u - i
                    vk = ("f", fu, beta)
                    if fu >= 0 and vk in sys._vars:
                        fb_tgt = (beta[0] - fu, beta[1] + 1 - fu - v)
                        blk = di.blocks.get(fb_tgt)
                        if blk is not None:
                            sys.add_term(eq, vk, blk, None,
                                         -1 if u % 2 == 0 else 1)
        space = sys.solution_space()
        if space is None:
            raise AssertionError("homogeneous system reported insoluble")
        _, kernel = space
        for col in kernel:
            comp: dict = {}
            for key, mat in col.items():
                if mat.is_zero():
                    continue
                _, u, beta = key
                comp.setdefault((u, v), {})[beta] = mat
            element = {}
            for (u, vv), blocks in comp.items():
                element[(u, vv)] = BigradedMap(
                    pw, b.module, (-u, 1 - u - vv), blocks)
            if element:
                out_elements.append(element)
    return out_elements


def random_dainf_morphism(a, b, rng: random.Random, max_arity: int = 2,
                          space=None, density: float = 0.6,
                          with_identity: bool = False):
    """Random element of the linear morphism space between zero-product
    algebras (optionally shifted by the identity when a is b)."""
    from .dainf import DAInfMorphism, check_dainf_morphism, identity_dainf
    if space is None:
        space = dainf_morphism_space(a, b, max_arity)
    comps: dict = {}
    for element in space:
        if rng.random() > density:
            continue
        c = _rand_scalar(a.field, rng)
        if not c:
            continue
        for key, mp in element.items():
            scaled = mp.scale(c)
            comps[key] = comps[key] + scaled if key in comps else scaled
    out = DAInfMorphism(a, b, {k: v for k, v in comps.items()
                               if not v.is_zero()})
    if with_identity:
        if a is not b and a != b:
            raise ValueError("identity shift needs an endomorphism space")
        ident = identity_dainf(a)
        merged = dict(out.f)
        key = (0, 1)
        merged[key] = merged[key] + ident.f_map(0, 1) if key in merged \
            else ident.f_map(0, 1)
        out = DAInfMorphism(a, b, merged)
    check_dainf_morphism(out).raise_if_failed()
    return out


def random_homotopic_pair(f: TwistedMorphism, r: int, rng: random.Random) \
        -> tuple[TwistedMorphism, RHomotopy]:
    """Perturb f by the boundary of a random witness: returns (g, h) with
    h: f ~_r g valid by construction."""
    a, b = f.src, f.dst
    hfam = random_homotopy_family(a, b, r, rng)
    # g_k = f_k + the left side of (H_{k+r}) for hhat, read off f ~_r f
    witness = RHomotopy(r, f, f, hfam)
    g_comp = dict(f.f)
    ms = {i + j for i in b.d for j in hfam} | {i + j for i in hfam for j in a.d}
    for m in sorted(ms):
        val = homotopy_lhs(witness, m)
        if val.is_zero():
            continue
        k = m - r
        if k < 0:
            raise AssertionError("family has components below r")
        g_comp[k] = g_comp[k] + val if k in g_comp else val
    g = TwistedMorphism(a, b, {m: v for m, v in g_comp.items() if not v.is_zero()})
    h = RHomotopy(r, f, g, hfam)
    check_r_homotopy(h).raise_if_failed()
    return g, h
