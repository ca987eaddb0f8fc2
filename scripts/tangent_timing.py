#!/usr/bin/env python3
"""In-process timings of certificate checking: tangency, the Saito scalar and the full re-check.

For each input it prints the best of REPEATS times of the two
is_tangent_field calls (theta1 at d1, theta2 at d2), of _saito_scalar (the
constant c of det(E, theta1, theta2) = c * Q, read at one point) and of
check_certificate on the same certificate, so a check splits into tangency,
scalar and the rest. The inputs are the chain certificates of free_13,
free_19 and free_20, and two_pencil: the certified two-pencils of every
exponent cell (d1, d2) with n = d1 + d2 + 1 <= 26, 156 cells timed together.
The certificates are built once, before any timing.

Usage: python scripts/tangent_timing.py [REPEATS [NAME ...]]
       e.g. python scripts/tangent_timing.py 1 free_13
"""

import argparse
import sys
from time import perf_counter

from freelines import fixtures
from freelines.arrangement import candidate_exponents
from freelines.certify import _saito_scalar, chain_certificate, check_certificate, is_tangent_field
from freelines.search import construct_certified

FIXTURES = ("free_13", "free_19", "free_20")
TWO_PENCIL_N_MAX = 26


def certified(name):
    """(arrangement, certificate) pairs of one input."""
    if name == "two_pencil":
        cells = [(d1, n - 1 - d1) for n in range(3, TWO_PENCIL_N_MAX + 1)
                 for d1 in range(1, (n - 1) // 2 + 1)]
        discoveries = [construct_certified(d1, d2) for d1, d2 in cells]
        return [(disc.arrangement, disc.certificate) for disc in discoveries]
    arr = getattr(fixtures, name)()
    exps = candidate_exponents(arr)
    return [(arr, chain_certificate(arr, exps.d1, exps.d2))]


def best_of(repeats, fn):
    best = float("inf")
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def tangency(pairs):
    for arr, cert in pairs:
        if not (is_tangent_field(arr, cert.theta1, cert.d1) and is_tangent_field(arr, cert.theta2, cert.d2)):
            raise RuntimeError(f"a certificate of {arr.n} lines is not tangent")


def scalar(pairs):
    for arr, cert in pairs:
        if _saito_scalar(arr, cert.theta1, cert.theta2) != cert.c:
            raise RuntimeError(f"a certificate of {arr.n} lines has the wrong scalar")


def recheck(pairs):
    for arr, cert in pairs:
        ok, failing = check_certificate(arr, cert)
        if not ok:
            raise RuntimeError(f"a certificate of {arr.n} lines fails its re-check: {failing}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("repeats", nargs="?", type=int, default=7)
    parser.add_argument("names", nargs="*", help="inputs to time (default: all)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("REPEATS must be at least 1")
    known = [*FIXTURES, "two_pencil"]
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown inputs {unknown}; choose from {known}")
    print(f"{'input':<12} {'certs':>6} {'max_d':>6} {'tangent_ms':>11} {'scalar_ms':>10} {'check_ms':>9}")
    for name in known:
        if args.names and name not in args.names:
            continue
        pairs = certified(name)
        t_tangent = best_of(args.repeats, lambda: tangency(pairs))
        t_scalar = best_of(args.repeats, lambda: scalar(pairs))
        t_check = best_of(args.repeats, lambda: recheck(pairs))
        max_d = max(cert.d2 for _, cert in pairs)
        print(f"{name:<12} {len(pairs):>6} {max_d:>6} {1e3 * t_tangent:>11.2f} {1e3 * t_scalar:>10.2f} "
              f"{1e3 * t_check:>9.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
