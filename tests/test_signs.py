"""Sign exponents of the derived A-infinity relations, pinned on cases
worked by hand from the formulas in the signs module docstring."""

from itertools import product

import pytest

from multiplex.signs import (
    ainf_sign, compose_sign, compose_sign_step, homotopy_alpha,
    homotopy_beta, homotopy_sum1_sign, structure_sign,
)


@pytest.mark.parametrize("r, q, t, p, j, want", [
    (0, 1, 0, 0, 1, 0),   # m_{01} m_{01}: no units, nothing odd
    (0, 1, 1, 0, 2, 1),   # m_{02}(m_{01} (x) 1): t = 1
    (1, 1, 0, 0, 2, 1),   # m_{02}(1 (x) m_{01}): rq = 1
    (1, 2, 0, 0, 2, 0),   # m_{02}(1 (x) m_{02}): rq = 2
    (0, 2, 1, 1, 2, 1),   # m_{12}(m_{12} (x) 1): t + pj = 1 + 2
    (2, 3, 1, 1, 4, 1),   # 6 + 1 + 4
    (1, 1, 1, 1, 3, 1),   # 1 + 1 + 3
])
def test_structure_sign(r, q, t, p, j, want):
    assert structure_sign(r, q, t, p, j) == want


@pytest.mark.parametrize("r, q, t, want", [
    (0, 1, 0, 0), (0, 1, 1, 1), (1, 1, 0, 1), (1, 2, 1, 1), (2, 3, 0, 0),
])
def test_ainf_sign(r, q, t, want):
    assert ainf_sign(r, q, t) == want


# compose_sign = sum_t (p_t+q_t)(l+t) + q_t * sum_{w>t} (p_w+q_w)
@pytest.mark.parametrize("parts, want", [
    ([(0, 1)], 0),                  # 1*2
    ([(3, 4)], 0),                  # 7*2
    ([(0, 1), (0, 1)], 0),          # 1*3 + 1*1 + 1*4 = 8
    ([(1, 1), (0, 1)], 1),          # 2*3 + 1*1 + 1*4 = 11
    ([(1, 0), (0, 1)], 1),          # 1*3 + 0 + 1*4 = 7
    ([(0, 1), (1, 0)], 0),          # 1*3 + 1*1 + 1*4 = 8: order matters
    ([(0, 2), (1, 0)], 0),          # 2*3 + 2*1 + 1*4 = 12
    ([(0, 1), (0, 1), (0, 1)], 0),  # 1*4 + 1*2 + 1*5 + 1*1 + 1*6 = 18
    ([(1, 2), (0, 1), (2, 1)], 0),  # 3*4 + 2*4 + 1*5 + 1*3 + 3*6 = 46
    ([(1, 0), (0, 1), (0, 1)], 0),  # 1*4 + 1*5 + 1*1 + 1*6 = 16
    ([(0, 1), (1, 0), (0, 1)], 1),  # 1*4 + 1*2 + 1*5 + 1*6 = 17
])
def test_compose_sign(parts, want):
    assert compose_sign(parts) == want


def test_compose_sign_step_is_the_bar_increment():
    # every word of length 0..3 over letters with p, q in 0..2, extended
    # by one more letter: the increment the bar power adds per letter
    letters = list(product(range(3), range(3)))
    checked = 0
    for n in range(4):
        for word in product(letters, repeat=n):
            word = list(word)
            U = sum(p for (p, _) in word)
            K = sum(q for (_, q) in word)
            base = compose_sign(word)
            for (p, q) in letters:
                step = compose_sign_step(U, K, p, q)
                assert step == (U + K + K * (p + q)) % 2
                assert compose_sign(word + [(p, q)]) == (base + step) % 2
                checked += 1
    assert checked == sum(9 ** (n + 1) for n in range(4))


# alpha = compose_sign + (r-1)(l+1+s+q_1+..+q_s)
@pytest.mark.parametrize("r, s, parts, want", [
    (1, 0, [(0, 1)], 0),                 # 0 + 0
    (0, 0, [(0, 1)], 0),                 # 0 - (1+1)
    (0, 1, [(0, 1), (0, 1)], 1),         # 0 - (2+1+1+1)
    (2, 1, [(0, 1), (0, 1)], 1),         # 0 + (2+1+1+1)
    (0, 0, [(1, 0), (0, 1)], 0),         # 1 - (2+1)
    (3, 2, [(1, 1), (0, 1)], 1),         # 1 + 2*(2+1+2+2)
])
def test_homotopy_alpha(r, s, parts, want):
    assert homotopy_alpha(r, s, parts) == want


# p + alpha + p_1 + .. + p_s
@pytest.mark.parametrize("r, p, s, parts, want", [
    (0, 0, 0, [(0, 1)], 0),                # 0 + 0
    (0, 1, 0, [(0, 1)], 1),                # 1 + 0
    (0, 1, 1, [(1, 1), (0, 1)], 0),        # 1 + (1 - 5) + 1
    (1, 2, 1, [(2, 1), (0, 1)], 0),        # 2 + (0 + 0) + 2
    (0, 0, 1, [(0, 1), (0, 1)], 1),        # 0 + 1 + 0
    (2, 1, 1, [(1, 0), (0, 1)], 1),        # 1 + (1 + 4) + 1
    (0, 0, 2, [(0, 1), (0, 1), (0, 1)], 0),  # 0 + (0 - 8) + 0
])
def test_homotopy_sum1_sign(r, p, s, parts, want):
    assert homotopy_sum1_sign(r, p, s, parts) == want


# beta = sq + t + pl + r
@pytest.mark.parametrize("r, s, q, t, p, l, want", [
    (0, 0, 1, 0, 0, 1, 0),   # all zero
    (1, 0, 1, 0, 0, 1, 1),   # r alone
    (0, 1, 1, 0, 0, 2, 1),   # sq = 1
    (0, 0, 2, 1, 1, 2, 1),   # t + pl = 1 + 2
    (2, 2, 3, 1, 1, 4, 1),   # 6 + 1 + 4 + 2 = 13
])
def test_homotopy_beta(r, s, q, t, p, l, want):
    assert homotopy_beta(r, s, q, t, p, l) == want
    # beta is the structure sign of the inserted m_{pq} plus r
    assert homotopy_beta(r, s, q, t, p, l) == \
        (structure_sign(s, q, t, p, l) + r) % 2
