#!/usr/bin/env python3
"""Standalone re-implementation of the shaping-score closed forms.

Cross-checks the interpolating scores against one-file reference formulas on
a batch of pool arrangements, so the formulas documented in the scores module
stay pinned by something outside it.

Usage: python scripts/score_reference.py [pool_bound] [samples]
"""

import argparse
import random
import sys
from math import isqrt

from freelines.arrangement import (
    build_arrangement,
    candidate_exponents,
    discriminant,
    intersection_summary,
)
from freelines.scores import ScoreConfig, sigma_alg, sigma_comb
from freelines.search import candidate_pool


def comb_reference(n, b2, delta, delta_max):
    if b2 < n - 1:
        return -1.0
    if delta >= 0 and isqrt(delta) ** 2 == delta:
        return 1.0
    dist = -delta if delta < 0 else min(delta - isqrt(delta) ** 2, (isqrt(delta) + 1) ** 2 - delta)
    return max(-1.0, min(1.0, 1.0 - 2.0 * dist / delta_max))


def alg_tier1_reference(n, delta, delta_max):
    s_max = max(n - 3, 0)
    if delta < 0:
        dist = -delta
    else:
        r = isqrt(delta)
        dist = min(abs(delta - min(r, s_max) ** 2), abs(delta - min(r + 1, s_max) ** 2))
    return max(-1.0, -dist / delta_max)


def main(bound: int = 2, samples: int = 300) -> int:
    rng = random.Random(1)
    pool = candidate_pool(bound).lines
    mismatches = 0
    for _ in range(samples):
        size = rng.randint(3, 8)
        arr = build_arrangement(rng.sample(pool, size))
        n = arr.n
        s = intersection_summary(arr)
        delta = discriminant(arr)
        delta_max = float((n - 1) ** 2)
        ref_comb = comb_reference(n, s.b2, delta, delta_max)
        got_comb = sigma_comb(arr)
        ok_comb = abs(ref_comb - got_comb) < 1e-12
        ok_alg = True
        if candidate_exponents(arr) is None:
            ref_alg = alg_tier1_reference(n, delta, delta_max)
            got_alg = sigma_alg(arr, ScoreConfig())
            ok_alg = abs(ref_alg - got_alg) < 1e-12
        if not (ok_comb and ok_alg):
            mismatches += 1
            print(f"MISMATCH n={n} b2={s.b2} delta={delta}")
    print(f"{samples} samples, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("pool_bound", nargs="?", type=int, default=2,
                        help="coefficient bound of the line pool (default 2)")
    parser.add_argument("samples", nargs="?", type=int, default=300, help="arrangements to check (default 300)")
    args = parser.parse_args()
    sys.exit(main(args.pool_bound, args.samples))
