from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelines import fixtures
from freelines.arrangement import (
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    intersection_summary,
)
from freelines.saito import saito_functional
from freelines.scores import (
    RewardWeights,
    ScoreConfig,
    reward,
    sigma_alg,
    sigma_comb,
)


def sigma_comb_oracle(n, b2, delta_max):
    """Reference closed form, implemented independently of the module."""
    delta = (n - 1) ** 2 - 4 * (b2 - n + 1)
    if b2 < n - 1:
        return -1.0
    if delta >= 0 and isqrt(delta) ** 2 == delta:
        return 1.0
    if delta < 0:
        dist = -delta
    else:
        r = isqrt(delta)
        dist = min(delta - r * r, (r + 1) ** 2 - delta)
    return max(-1.0, min(1.0, 1.0 - 2.0 * dist / delta_max))


def test_sigma_comb_perfect_square(boolean, free13):
    assert sigma_comb(boolean) == 1.0
    assert sigma_comb(free13) == 1.0


def test_sigma_comb_generic_four(generic4):
    # delta = -3, delta_max = 9: 1 - 2*3/9 = 1/3
    assert sigma_comb(generic4) == pytest.approx(1 / 3)
    assert sigma_comb(generic4) == pytest.approx(
        sigma_comb_oracle(4, intersection_summary(generic4).b2, 9.0)
    )


def test_sigma_alg_tiers(boolean, generic4, free20):
    assert sigma_alg(boolean) == pytest.approx(1.0, abs=1e-9)
    tier1 = sigma_alg(generic4)
    assert -1.0 <= tier1 < 0.0
    assert tier1 == pytest.approx(-3 / 9)
    assert sigma_alg(free20) >= 1 - 1e-6


def test_sigma_alg_with_target():
    cfg = ScoreConfig(target_exponents=(1, 3))
    arr = build_arrangement(
        [canonicalize_line(*t) for t in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]]
    )
    # b2 = 6, b2* = 3 + 3 = 6... exponents absent, b2 matches target: falls
    # back to the admissible-square distance
    got = sigma_alg(arr, cfg)
    assert -1.0 <= got < 0.0


@st.composite
def pool_arrangements(draw):
    from freelines.search import candidate_pool

    pool = candidate_pool(1).lines
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=7, unique=True))
    return build_arrangement([pool[i] for i in idx])


@given(pool_arrangements())
@settings(max_examples=30, deadline=None)
def test_score_ranges_and_tier_boundary(arr):
    comb_score = sigma_comb(arr)
    alg_score = sigma_alg(arr)
    assert -1.0 <= comb_score <= 1.0
    assert -1.0 <= alg_score <= 1.0
    oracle = sigma_comb_oracle(arr.n, intersection_summary(arr).b2, (arr.n - 1) ** 2)
    assert comb_score == pytest.approx(oracle)
    # tier boundary is exactly the existence of candidate exponents
    assert (alg_score >= 0.0) == (candidate_exponents(arr) is not None)


def test_reward_weights_hierarchy_enforced():
    with pytest.raises(ValueError):
        RewardWeights(w_alg=0.1, w_comb=0.5)


def test_reward_triple_point_creation():
    x = canonicalize_line(1, 0, 0)
    y = canonicalize_line(0, 1, 0)
    xy = canonicalize_line(1, 1, 0)
    prev = build_arrangement([x, y])
    cur = build_arrangement([x, y, xy])
    r = reward(cur, intersection_summary(prev), terminal=False)
    assert r.mult_gain == 1.0
    assert r.comb == 1.0  # concurrent triple: delta = 4, a perfect square


def test_reward_feasibility_indicator(boolean):
    r = reward(boolean, None, terminal=False)
    assert r.feasible == 1.0


def test_reward_pencil_penalty(near_pencil5):
    r = reward(near_pencil5, None, terminal=False)
    assert r.pencil_penalty == 1.0


def test_terminal_bonus_is_exact_freeness(boolean, free19):
    w = RewardWeights()
    # free19 has n = 19: the bonus is exact at every n
    for arr in (boolean, free19):
        assert reward(arr, None, weights=w, terminal=True).terminal_bonus == w.w_free
        assert reward(arr, None, weights=w, terminal=False).terminal_bonus == 0.0
    mutant = fixtures.disjoint_pencils(5, 2)
    assert candidate_exponents(mutant) is not None
    assert reward(mutant, None, weights=w, terminal=True).terminal_bonus == 0.0


def test_sigma_alg_is_the_saito_functional(boolean, near_pencil5, free13):
    mutant = fixtures.disjoint_pencils(5, 2)
    for arr in (boolean, near_pencil5, free13, mutant):
        exps = candidate_exponents(arr)
        loss = saito_functional(arr, exps.d1, exps.d2).loss
        assert sigma_alg(arr) == pytest.approx(1.0 - loss, abs=1e-9)
    assert sigma_alg(mutant) == 0.0


def test_reward_boolean_episode_trace():
    """Unit-weight episode x, then y, then z against a hand-rolled trace."""
    w = RewardWeights(w_comb=1, w_alg=1, w_feas=1, w_b2=1, w_int=1, w_pen=1, w_mult=1, w_free=1)
    x = canonicalize_line(1, 0, 0)
    y = canonicalize_line(0, 1, 0)
    z = canonicalize_line(0, 0, 1)
    a1 = build_arrangement([x])
    a2 = build_arrangement([x, y])
    a3 = build_arrangement([x, y, z])
    r1 = reward(a1, None, weights=w, terminal=False)
    # n=1: no scores apply, no points
    assert r1.total == 0.0
    r2 = reward(a2, intersection_summary(a1), weights=w, terminal=False)
    # n=2: only interior/pencil/mult terms apply; one double point, no rich points
    assert r2.total == 0.0
    r3 = reward(a3, intersection_summary(a2), weights=w, terminal=True)
    # n=3: comb=1, alg=1, feas=1, b2 undefined (0), int=0, pen=0, mult=0, bonus=1
    assert r3.comb == 1.0
    assert r3.alg == pytest.approx(1.0, abs=1e-9)
    assert r3.feasible == 1.0
    assert r3.terminal_bonus == 1.0
    assert r3.total == pytest.approx(4.0, abs=1e-9)
