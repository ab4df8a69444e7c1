"""Shared sign calculator for the derived A-infinity relations.

Every exponent printed in the defining equations lives here, pinned by
unit tests, so the algebra/morphism/homotopy checkers and the composition
formula all draw their signs from one place.

Conventions (parts = [(p_1, q_1), ..., (p_l, q_l)], 1-based positions,
U = p_1+..+p_l and K = q_1+..+q_l):

  structure relation term  m_{ij}(1^r (x) m_{pq} (x) 1^t):   rq + t + pj
  bar power word           g_{p_1 q_1} (x) ... (x) g_{p_l q_l}:  compose_sign
  composition              f_{ij} o T_j(g)[(U, K)]:          none beyond T_j
  morphism right side      m_{ij} o T_j(f)[(U, K)]:          u = i + U
  homotopy sum 1           m_{il}(g .. g h f .. f):          p + alpha + p_1+..+p_s
  homotopy sum 2           h_{il}(1^s (x) m_{pq} (x) 1^t):   beta = sq + t + pl + r

with
  compose_sign = sum_t (p_t+q_t)(l+t) + q_t * sum_{w>t} (p_w+q_w)
  alpha = compose_sign + (r-1)(l+1+s+q_1+..+q_s)

The bar power T_j(g)[(U, K)] is the sum of the signed words of j
components with sums (U, K), built one letter at a time with

  compose_sign(parts + [(p, q)]) = compose_sign(parts) + U + K + K(p+q),

compose_sign_step: the new letter raises l by one, which shifts each
(p_t+q_t)(l+t) by p_t+q_t; each earlier q_t meets its p+q; and its own
term (p+q)(2l+2) is even.
"""

from __future__ import annotations


def structure_sign(r: int, q: int, t: int, p: int, j: int) -> int:
    """Exponent of the (A_uv)/(B_uv) left-hand term with inner map at
    position r+1 (r units before, t after)."""
    return (r * q + t + p * j) % 2


def compose_sign(parts: list[tuple[int, int]]) -> int:
    """Exponent in the composition formula f_{il}(g_{p_1q_1} (x) ...)."""
    l = len(parts)
    s = 0
    for t1, (pt, qt) in enumerate(parts):
        t = t1 + 1
        s += (pt + qt) * (l + t)
        s += qt * sum(pw + qw for (pw, qw) in parts[t1 + 1:])
    return s % 2


def compose_sign_step(U: int, K: int, p: int, q: int) -> int:
    """compose_sign(parts + [(p, q)]) - compose_sign(parts) for parts with
    sums (U, K)."""
    return (U + K + K * (p + q)) % 2


def homotopy_alpha(r: int, s: int, parts: list[tuple[int, int]]) -> int:
    """alpha in (H_mk): the h-slot sits at position s+1 of l slots."""
    l = len(parts)
    a = compose_sign(parts)
    a += (r - 1) * (l + 1 + s + sum(q for (_, q) in parts[:s]))
    return a % 2


def homotopy_sum1_sign(r: int, p: int, s: int,
                       parts: list[tuple[int, int]]) -> int:
    """Full exponent of a first-sum term: p + alpha + p_1 + ... + p_s."""
    return (p + homotopy_alpha(r, s, parts)
            + sum(pp for (pp, _) in parts[:s])) % 2


def homotopy_beta(r: int, s: int, q: int, t: int, p: int, l: int) -> int:
    """beta in (H_mk) for h_{il}(1^s (x) m_{pq} (x) 1^t), l = s+1+t."""
    return (s * q + t + p * l + r) % 2


def ainf_sign(r: int, q: int, t: int) -> int:
    """Exponent rq + t of the plain A-infinity relation on totalizations."""
    return (r * q + t) % 2
