#!/usr/bin/env python3
"""Produce arrangements with candidate exponents that are provably not free.

Two strategies, both preserving b2 so candidate exponents survive:

1. Mutate the 7-line two-pencil into two disjoint pencils (drop the shared
   line's role): same n, same b2 = 15, still candidate exponents (3, 3), but
   the exact basis-pair scan is all-zero. disjoint_pencils(k, m) has
   n = k + m and b2 = k*m + k + m - 2, so candidate exponents need
   d1 + d2 = n - 1 and d1 * d2 = k*m - 1: the discriminant
   (k+m-1)^2 - 4(k*m - 1) = (k-m)^2 - 2(k+m) + 5 must be a square. It is
   (m-2)^2 for every k = 2m + 1; the script checks (5, 2), (7, 3) and (9, 4).

2. Swap one line of the 13-line reference fixture for a pool or join
   candidate with the same incidence count. Exhausted without a hit at pool
   bound 2: every b2-preserving single-line swap of that fixture stayed free.

Usage: python scripts/find_refutation.py [--search-fixture]
"""

import argparse
import sys

from freelines import (
    ExtensionConfig,
    NotFreeAtExponents,
    build_arrangement,
    candidate_exponents,
    enumerate_extension_candidates,
    intersection_summary,
    verify_free,
)
from freelines.fixtures import disjoint_pencils, free_13
from freelines.search import delta_b2


def check_mutants() -> int:
    hits = 0
    # k+m lines; candidate exponents need (k+m-1)^2 - 4(k*m - 1) square: 0, 1 and 4 here
    for k, m in [(5, 2), (7, 3), (9, 4)]:
        arr = disjoint_pencils(k, m)
        s = intersection_summary(arr)
        exps = candidate_exponents(arr)
        if exps is None:
            print(f"pencils {k}+{m}: no candidate exponents (b2={s.b2}), skipping")
            continue
        outcome = verify_free(arr, exps.d1, exps.d2)
        refuted = isinstance(outcome, NotFreeAtExponents)
        loss = 1.0 if refuted else 0.0  # saito_functional's loss, read off the same verdict
        print(f"pencils {k}+{m}: n={arr.n} b2={s.b2} exps=({exps.d1},{exps.d2}) "
              f"-> {type(outcome).__name__}, loss={loss:.4f}")
        if refuted:
            hits += 1
    return hits


def search_fixture_swaps() -> int:
    base = free_13()
    b2 = intersection_summary(base).b2
    hits = 0
    for drop in range(base.n):
        reduced = build_arrangement([l for i, l in enumerate(base.lines) if i != drop])
        need = b2 - intersection_summary(reduced).b2
        for cand in enumerate_extension_candidates(reduced, ExtensionConfig(pool_bound=2)):
            if cand == base.lines[drop] or delta_b2(reduced, cand) != need:
                continue
            mutant = reduced.extended(cand)
            exps = candidate_exponents(mutant)
            if exps is None or (exps.d1, exps.d2) != (6, 6):
                continue
            if isinstance(verify_free(mutant, 6, 6), NotFreeAtExponents):
                print(f"drop={drop} add={cand}: refuted, loss=1.0000")
                hits += 1
    print(f"fixture swap search: {hits} hits")
    return hits


def main(search_fixture: bool = False) -> int:
    hits = check_mutants()
    if search_fixture:
        hits += search_fixture_swaps()
    return 0 if hits else 1


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--search-fixture", action="store_true",
                        help="also try every b2-preserving single-line swap of free_13")
    args = parser.parse_args()
    sys.exit(main(args.search_fixture))
