"""Combinatorial and algebraic shaping scores and the per-step reward.

The closed forms for the interpolating scores are reference stand-ins: the
three-regime combinatorial score, the b2 term, the interior share of rich
(m >= 3) points and the pencil penalty are each defined here (and
cross-checked by scripts/score_reference.py). Every lattice answer they use,
the discriminant, the candidate exponents, b2 and the multiplicity counts t,
is read off the arrangement's one LatticeSummary.
With candidate exponents the algebraic score is the exact freeness verdict:
on exact spaces of tangent fields every nonzero Saito determinant is c*Q, so
the angular loss is 0 or 1, and saito_functional reads it off verify_free.
1 - loss is that verdict, taken here from verify_free directly, without a
tensor or ALS.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from math import isqrt
from numbers import Real

from .arrangement import Arrangement, LatticeSummary, intersection_summary
from .certify import Certified, VerificationOutcome, verify_free


@dataclass(frozen=True)
class ScoreConfig:
    """Targets for the shaping scores.

    Target exponents switch the no-exponent tier of the algebraic score to
    b2 targeting and define b2_target = (n-1) + d1*d2.
    """

    target_exponents: tuple[int, int] | None = None

    def b2_target(self, n: int) -> int | None:
        if self.target_exponents is None:
            return None
        d1, d2 = self.target_exponents
        return (n - 1) + d1 * d2


def _delta_max(n: int) -> float:
    """Normalizer of the discriminant distances: (n-1)^2, the magnitude of a pencil's discriminant."""
    return float(max((n - 1) ** 2, 1))


def _clamp(v: float, lo: float = -1.0, hi: float = 1.0) -> float:
    return max(lo, min(hi, v))


def _square_distance(delta: int, s_max: int) -> int:
    """Distance from delta to the nearest square s^2 with 0 <= s <= s_max.

    Candidate exponents need delta = (d2-d1)^2 with roots ((n-1) -+ s)/2 of
    the reduced quadratic, so d1 >= 1 needs s <= n-3; sigma_alg bounds s
    there, which keeps pencils (s = n-1) strictly in the negative tier.
    sigma_comb passes n, which never binds: its delta is at most (n-1)^2.
    """
    if delta < 0:
        return -delta
    r = isqrt(delta)
    return min(abs(delta - s * s) for s in (min(r, s_max), min(r + 1, s_max)))


def sigma_comb(arr: Arrangement) -> float:
    """1 on a perfect-square discriminant, interpolating toward -1 otherwise.

    Three regimes: b2 < n-1 scores -1 outright, negative discriminants use
    |delta| as the distance, nonsquare nonnegative discriminants use the
    distance to the nearest square.
    """
    s = intersection_summary(arr)
    n = arr.n
    delta = s.discriminant
    if s.b2 < n - 1:
        return -1.0
    dist = _square_distance(delta, n)
    return _clamp(1.0 - 2.0 * dist / _delta_max(n))


def sigma_alg(
    arr: Arrangement, config: ScoreConfig = ScoreConfig(), outcome: VerificationOutcome | None = None
) -> float:
    """1.0 if certified free, 0.0 if not, when candidate exponents exist; else a negative tier-1 value.

    outcome, when given, is the verification outcome at those exponents and
    spares verifying again. Tier 1 measures how far the discriminant is from a
    nonnegative perfect square, or, when target exponents are set, the b2
    distance to the target normalized by the target itself.
    """
    s = intersection_summary(arr)
    exps = s.exponents
    if exps is not None:
        if outcome is None:
            outcome = verify_free(arr, exps.d1, exps.d2)
        return 1.0 if isinstance(outcome, Certified) else 0.0
    n = arr.n
    target = config.b2_target(n)
    if target is not None and target > 0:
        if s.b2 != target:
            return -_clamp(abs(s.b2 - target) / target, 0.0, 1.0)
        # b2 on target but exponents still missing (pencil): fall through
    dist = _square_distance(s.discriminant, max(n - 3, 0))
    return max(-1.0, -dist / _delta_max(n))


@dataclass(frozen=True)
class RewardWeights:
    w_comb: float = 0.5
    w_alg: float = 1.0
    w_feas: float = 0.25
    w_b2: float = 0.25
    w_int: float = 0.1
    w_pen: float = 0.1
    w_mult: float = 0.1
    w_free: float = 5.0

    def __post_init__(self):
        # rewards are floats, so a weight must be a real number a float can hold
        for f in fields(self):
            w = getattr(self, f.name)
            if isinstance(w, bool) or not isinstance(w, Real) or not abs(w) <= sys.float_info.max:
                raise ValueError(f"{f.name}: weight must be a finite real number, got {w!r}")
        largest = sorted(
            (self.w_comb, self.w_feas, self.w_b2, self.w_int, self.w_pen, self.w_mult)
        )[-1]
        if self.w_alg < largest or self.w_free < largest:
            raise ValueError("w_alg and w_free must dominate the shaping weights")


@dataclass(frozen=True)
class RewardBreakdown:
    comb: float
    alg: float
    feasible: float
    b2_term: float
    interior: float
    pencil_penalty: float
    mult_gain: float
    terminal_bonus: float
    total: float


def _sigma_b2(s: LatticeSummary, config: ScoreConfig) -> float:
    target = config.b2_target(s.n)
    if target is None or target <= 0:
        return 0.0
    return _clamp(1.0 - abs(s.b2 - target) / target)


def _count_rich(s: LatticeSummary) -> int:
    """Points of multiplicity at least 3."""
    return sum(cnt for m, cnt in s.t.items() if m >= 3)


def reward(
    arr: Arrangement,
    prev_summary,
    weights: RewardWeights = RewardWeights(),
    config: ScoreConfig = ScoreConfig(),
    terminal: bool = False,
    outcome: VerificationOutcome | None = None,
) -> RewardBreakdown:
    """Per-step shaping reward for the arrangement reached at this step.

    prev_summary is the LatticeSummary of the previous partial arrangement
    (None at the first step). outcome, when given, is passed on to sigma_alg.
    The terminal bonus is w_free where sigma_alg is 1, i.e. on a certified
    free arrangement, and 0 otherwise.
    """
    n = arr.n
    summary = intersection_summary(arr)
    if n >= 3:
        comb = sigma_comb(arr)
        alg = sigma_alg(arr, config, outcome)
        feas = 1.0 if summary.exponents is not None else 0.0
    else:
        comb, alg, feas = 0.0, 0.0, 0.0
    b2_term = _sigma_b2(summary, config) if n >= 2 else 0.0
    rich = _count_rich(summary)
    interior = rich / len(summary.points) if summary.points else 0.0
    pen = 1.0 if n >= 4 and summary.max_multiplicity >= n - 1 else 0.0
    prev_rich = _count_rich(prev_summary) if prev_summary is not None else 0
    mult_gain = float(rich - prev_rich)
    bonus = weights.w_free if terminal and alg == 1.0 else 0.0
    total = (
        weights.w_comb * comb
        + weights.w_alg * alg
        + weights.w_feas * feas
        + weights.w_b2 * b2_term
        + weights.w_int * interior
        - weights.w_pen * pen
        + weights.w_mult * mult_gain
        + bonus
    )
    return RewardBreakdown(
        comb=comb,
        alg=alg,
        feasible=feas,
        b2_term=b2_term,
        interior=interior,
        pencil_penalty=pen,
        mult_gain=mult_gain,
        terminal_bonus=bonus,
        total=total,
    )
