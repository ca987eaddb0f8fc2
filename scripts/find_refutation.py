#!/usr/bin/env python3
"""Produce arrangements with candidate exponents that are provably not free.

Mutate the 7-line two-pencil into two disjoint pencils (drop the shared
line's role): same n, same b2 = 15, still candidate exponents (3, 3), but
the exact basis-pair scan is all-zero. disjoint_pencils(k, m) has
n = k + m and b2 = k*m + k + m - 2, so candidate exponents need
d1 + d2 = n - 1 and d1 * d2 = k*m - 1: the discriminant
(k+m-1)^2 - 4(k*m - 1) = (k-m)^2 - 2(k+m) + 5 must be a square. It is
(m-2)^2 for every k = 2m + 1; the script checks (5, 2), (7, 3) and (9, 4).

Swapping one line of free_13 for a pool or join candidate with the same
incidence count gives no refutation: at pool bound 2 every b2-preserving
single-line swap of that fixture stayed free.

Usage: python scripts/find_refutation.py
"""

import argparse
import sys

from freelines import NotFreeAtExponents, candidate_exponents, intersection_summary, verify_free
from freelines.fixtures import disjoint_pencils


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


if __name__ == "__main__":
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args()
    sys.exit(0 if check_mutants() else 1)
