#!/usr/bin/env python3
"""In-process timings of one stage of freelines, input by input.

STAGE is one of:
- kernel: best and worst of REPEATS (default 5) cold times of
  derivation_matrix and of null_space_exact on that matrix at each
  candidate degree, with the matrix shape, its nonzero share and the
  nullity. Each repeat takes the input in a line order seeded by its name
  and the repeat's number, as the benchmark takes each pass. Inputs: the
  five disjoint-pencil mutants of verify-refute and the pinned fixtures.
- tangent: best of REPEATS (default 7) times of the two is_tangent_field
  calls, of _saito_scalar and of check_certificate. Inputs: the chain
  certificates of free_13, free_19 and free_20, and two_pencil: the
  certified two-pencils of all 156 exponent cells with n <= 26, together.
- verify: best of REPEATS (default 7) times of each step of a verify-free
  operation and of the whole operation (op), on free_13, free_19 and
  free_20. The chain and op are cold, as a new input is; the other steps
  reuse the chain's certificate.
A cold call starts with the lattice, derivation-matrix and kernel caches cleared.

Usage: python scripts/stage_timing.py STAGE [REPEATS [NAME ...]]
       e.g. python scripts/stage_timing.py kernel 1 pencils_9_4
"""

import argparse
import os
import random
import sys
import tempfile
from functools import partial
from time import perf_counter

from freelines import arrangement, derivations, fixtures
from freelines.arrangement import build_arrangement, candidate_exponents, read_arrangement, write_arrangement
from freelines.certify import Certified, _saito_scalar, chain_certificate, check_certificate, is_tangent_field
from freelines.certify import read_certificate, verify_free, write_certificate
from freelines.derivations import derivation_matrix, null_space_exact
from freelines.saito import saito_functional
from freelines.search import construct_certified

MUTANTS = ((9, 4), (10, 5), (11, 5), (13, 6), (13, 7))
PENCILS = [f"pencils_{k}_{m}" for k, m in MUTANTS]
FIXTURES = ("free_13", "free_19", "free_20")
TWO_PENCIL_N_MAX = 26
VERIFY_STEPS = ("chain", "witness", "write", "read", "check", "op")


def two_pencils():
    """The certified two-pencil of every exponent cell (d1, d2) with n = d1 + d2 + 1 <= TWO_PENCIL_N_MAX."""
    cells = [(d1, n - 1 - d1) for n in range(3, TWO_PENCIL_N_MAX + 1) for d1 in range(1, (n - 1) // 2 + 1)]
    return [construct_certified(d1, d2) for d1, d2 in cells]


# name -> builder of the input: an arrangement, or for two_pencil a list of discoveries
INPUTS = {
    **{name: partial(fixtures.disjoint_pencils, k, m) for name, (k, m) in zip(PENCILS, MUTANTS)},
    **{name: getattr(fixtures, name) for name in FIXTURES},
    "two_pencil": two_pencils,
}


def clear_caches():
    arrangement.intersection_summary.cache_clear()
    derivations.derivation_matrix.cache_clear()
    derivations.null_space_exact.cache_clear()


def timed(repeats, fn, cold=False):
    """Seconds and result of fn(k) for each repeat k; a cold call starts with every cache cleared."""
    times, results = [], []
    for k in range(repeats):
        if cold:
            clear_caches()
        t0 = perf_counter()
        results.append(fn(k))
        times.append(perf_counter() - t0)
    return times, results


def kernel_stage(names, repeats):
    print(f"{'input':<14} {'d':>3} {'shape':>10} {'nonzero':>8} {'nullity':>8} "
          f"{'matrix_ms':>10} {'worst':>7} {'kernel_ms':>10} {'worst':>7}")
    total_matrix = total_kernel = 0.0
    for name in names:
        arr = INPUTS[name]()
        orders = []
        for k in range(repeats):
            lines = list(arr.lines)
            random.Random(f"{name}:{k}").shuffle(lines)
            orders.append(build_arrangement(lines))
        exps = candidate_exponents(arr)
        for d in sorted({exps.d1, exps.d2}):
            t_matrix, matrices = timed(repeats, lambda k: derivation_matrix(orders[k], d), cold=True)
            t_kernel, bases = timed(repeats, lambda k: null_space_exact(matrices[k]), cold=True)
            dm, basis = matrices[-1], bases[-1]
            nrows, ncols = dm.shape
            nonzero = sum(1 for row in dm.rows for x in row if x) / (nrows * ncols)
            total_matrix += min(t_matrix)
            total_kernel += min(t_kernel)
            print(f"{name:<14} {d:>3} {nrows:>4}x{ncols:<5} {nonzero:>8.1%} {basis.nullity:>8} "
                  f"{1e3 * min(t_matrix):>10.1f} {1e3 * max(t_matrix):>7.1f} "
                  f"{1e3 * min(t_kernel):>10.1f} {1e3 * max(t_kernel):>7.1f}")
    print(f"{'total (best)':<48} {1e3 * total_matrix:>10.1f} {'':>7} {1e3 * total_kernel:>10.1f}")


CHECKS = {  # tangent column -> test of one (arrangement, certificate) pair
    "tangent": lambda arr, c: is_tangent_field(arr, c.theta1, c.d1) and is_tangent_field(arr, c.theta2, c.d2),
    "scalar": lambda arr, c: _saito_scalar(arr, c.theta1, c.theta2) == c.c,
    "check": lambda arr, c: check_certificate(arr, c)[0],
}


def check_all(pairs, column):
    for arr, cert in pairs:
        if not CHECKS[column](arr, cert):
            raise RuntimeError(f"a certificate of {arr.n} lines fails the {column} check")


def tangent_stage(names, repeats):
    print(f"{'input':<12} {'certs':>6} {'max_d':>6} {'tangent_ms':>11} {'scalar_ms':>10} {'check_ms':>9}")
    for name in names:
        if name == "two_pencil":
            pairs = [(disc.arrangement, disc.certificate) for disc in INPUTS[name]()]
        else:
            arr = INPUTS[name]()
            exps = candidate_exponents(arr)
            pairs = [(arr, chain_certificate(arr, exps.d1, exps.d2))]
        best = {column: min(timed(repeats, lambda _: check_all(pairs, column))[0]) for column in CHECKS}
        max_d = max(cert.d2 for _, cert in pairs)
        print(f"{name:<12} {len(pairs):>6} {max_d:>6} {1e3 * best['tangent']:>11.2f} {1e3 * best['scalar']:>10.2f} "
              f"{1e3 * best['check']:>9.2f}")


def operation(arr, workdir):
    """The verify-free operation, as one call."""
    path, cert_path = os.path.join(workdir, "arr.json"), os.path.join(workdir, "cert.json")
    write_arrangement(path, arr)
    back = read_arrangement(path)
    exps = candidate_exponents(back)
    ev = saito_functional(back, exps.d1, exps.d2)
    outcome = verify_free(back, exps.d1, exps.d2, als=ev)
    write_certificate(cert_path, outcome.certificate)
    ok, failing = check_certificate(back, read_certificate(cert_path))
    if not ok:
        raise RuntimeError(f"a certificate of {arr.n} lines fails its re-check: {failing}")


def verify_stage(names, repeats):
    print(f"{'input':<8} {'exps':>6} " + " ".join(f"{s + '_ms':>10}" for s in VERIFY_STEPS))
    with tempfile.TemporaryDirectory() as workdir:
        cert_path = os.path.join(workdir, "cert.json")
        for name in names:
            arr = INPUTS[name]()
            exps = candidate_exponents(arr)
            d1, d2 = exps.d1, exps.d2
            cert = chain_certificate(arr, d1, d2)
            ev = saito_functional(arr, d1, d2)
            if not isinstance(verify_free(arr, d1, d2, als=ev), Certified):
                raise RuntimeError(f"{arr.n} lines are not certified")
            write_certificate(cert_path, cert)
            steps = {  # step -> (call, whether it is timed cold), in VERIFY_STEPS order
                "chain": (lambda _: chain_certificate(arr, d1, d2), True),
                "witness": (lambda _: verify_free(arr, d1, d2, als=ev), False),
                "write": (lambda _: write_certificate(cert_path, cert), False),
                "read": (lambda _: read_certificate(cert_path), False),
                "check": (lambda _: check_certificate(arr, cert), False),
                "op": (lambda _: operation(arr, workdir), True),
            }
            best = [min(timed(repeats, call, cold)[0]) for call, cold in steps.values()]
            print(f"{name:<8} {f'{d1},{d2}':>6} " + " ".join(f"{1e3 * t:>10.2f}" for t in best))


# stage -> (its function, its inputs in print order, its default REPEATS)
STAGES = {
    "kernel": (kernel_stage, [*PENCILS, *FIXTURES], 5),
    "tangent": (tangent_stage, [*FIXTURES, "two_pencil"], 7),
    "verify": (verify_stage, list(FIXTURES), 7),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("repeats", nargs="?", type=int, help="default: 5 for kernel, 7 otherwise")
    parser.add_argument("names", nargs="*", help="inputs to time (default: all of the stage's)")
    args = parser.parse_args(argv)
    run, known, default_repeats = STAGES[args.stage]
    repeats = default_repeats if args.repeats is None else args.repeats
    if repeats < 1:
        parser.error("REPEATS must be at least 1")
    unknown = sorted(set(args.names) - set(known))
    if unknown:
        parser.error(f"unknown inputs {unknown} for stage {args.stage}; choose from {known}")
    run([name for name in known if not args.names or name in args.names], repeats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
