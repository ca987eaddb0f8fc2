#!/usr/bin/env python3
"""Cold timings of the exact kernel path: derivation matrix, then exact kernel.

For each input at each candidate degree it prints the best and the worst of
REPEATS cold times of derivation_matrix and of null_space_exact on that
matrix (caches cleared before every call), the matrix shape, its share of
nonzero entries and the nullity. Each repeat takes the input in a fresh line
order, seeded by the input's name and the repeat's number, as the benchmark
takes each pass, so the worst time shows the spread across line orders.
Inputs are the five disjoint-pencil mutants that the verify-refute benchmark
refutes and the fixtures whose kernels the test suite pins.

Usage: python scripts/kernel_timing.py [REPEATS [NAME ...]]
       e.g. python scripts/kernel_timing.py 1 pencils_9_4
"""

import argparse
import random
import sys
from time import perf_counter

from freelines import fixtures
from freelines.arrangement import build_arrangement, candidate_exponents
from freelines.derivations import derivation_matrix, null_space_exact

MUTANTS = ((9, 4), (10, 5), (11, 5), (13, 6), (13, 7))
PINNED = (("free_13", (6,)), ("free_19", (7, 11)), ("free_20", (9, 10)))


def inputs():
    for k, m in MUTANTS:
        arr = fixtures.disjoint_pencils(k, m)
        exps = candidate_exponents(arr)
        yield f"pencils_{k}_{m}", arr, sorted({exps.d1, exps.d2})
    for name, degrees in PINNED:
        yield name, getattr(fixtures, name)(), list(degrees)


def timed_orders(name, arr, d, repeats):
    """Cold (matrix, kernel) times over seeded line orders, with the last order's matrix and kernel."""
    times = []
    for k in range(repeats):
        lines = list(arr.lines)
        random.Random(f"{name}:{k}").shuffle(lines)
        ordered = build_arrangement(lines)
        derivation_matrix.cache_clear()
        null_space_exact.cache_clear()
        t0 = perf_counter()
        dm = derivation_matrix(ordered, d)
        t1 = perf_counter()
        basis = null_space_exact(dm)
        times.append((t1 - t0, perf_counter() - t1))
    return times, dm, basis


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("repeats", nargs="?", type=int, default=5)
    parser.add_argument("names", nargs="*", help="inputs to time (default: all)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("REPEATS must be at least 1")
    known = [name for name, _, _ in inputs()]
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown inputs {unknown}; choose from {known}")
    print(f"{'input':<14} {'d':>3} {'shape':>10} {'nonzero':>8} {'nullity':>8} "
          f"{'matrix_ms':>10} {'worst':>7} {'kernel_ms':>10} {'worst':>7}")
    total_matrix = total_kernel = 0.0
    for name, arr, degrees in inputs():
        if args.names and name not in args.names:
            continue
        for d in degrees:
            times, dm, basis = timed_orders(name, arr, d, args.repeats)
            (t_matrix, w_matrix), (t_kernel, w_kernel) = ((min(t), max(t)) for t in zip(*times))
            nrows, ncols = dm.shape
            nonzero = sum(1 for row in dm.rows for x in row if x) / (nrows * ncols)
            total_matrix += t_matrix
            total_kernel += t_kernel
            print(f"{name:<14} {d:>3} {nrows:>4}x{ncols:<5} {nonzero:>8.1%} {basis.nullity:>8} "
                  f"{1e3 * t_matrix:>10.1f} {1e3 * w_matrix:>7.1f} {1e3 * t_kernel:>10.1f} {1e3 * w_kernel:>7.1f}")
    print(f"{'total (best)':<48} {1e3 * total_matrix:>10.1f} {'':>7} {1e3 * total_kernel:>10.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
