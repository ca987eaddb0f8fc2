#!/usr/bin/env python3
"""In-process timings of each stage of one verify-free operation.

A verify-free operation writes and reads an arrangement, evaluates the loss
(saito_functional: deletion chain and lifts, the loss read off the
certificate), hands the evaluation to verify_free, which re-checks its
certificate as a witness, and round-trips the certificate file through
check_certificate. For each input this prints the best of REPEATS times of
every stage on its own, and of the whole operation (op). The chain and the
whole operation start with cold lattice and kernel caches, as a new input
does; the other stages reuse the chain's certificate. The inputs are
free_13, free_19 and free_20.

Usage: python scripts/verify_timing.py [REPEATS [NAME ...]]
       e.g. python scripts/verify_timing.py 1 free_13
"""

import argparse
import os
import sys
import tempfile
from time import perf_counter

from freelines import arrangement, derivations, fixtures
from freelines.arrangement import candidate_exponents, read_arrangement, write_arrangement
from freelines.certify import (
    Certified,
    chain_certificate,
    check_certificate,
    read_certificate,
    verify_free,
    write_certificate,
)
from freelines.saito import saito_functional

FIXTURES = ("free_13", "free_19", "free_20")
STAGES = ("chain", "witness", "write", "read", "check", "op")


def clear_caches():
    arrangement.intersection_summary.cache_clear()
    derivations.derivation_matrix.cache_clear()
    derivations.null_space_exact.cache_clear()


def best_of(repeats, fn, cold=False):
    best = float("inf")
    for _ in range(repeats):
        if cold:
            clear_caches()
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


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


def stage_times(arr, repeats, workdir):
    """Best-of-repeats seconds of every stage in STAGES."""
    exps = candidate_exponents(arr)
    d1, d2 = exps.d1, exps.d2
    cert = chain_certificate(arr, d1, d2)
    ev = saito_functional(arr, d1, d2)
    if not isinstance(verify_free(arr, d1, d2, als=ev), Certified):
        raise RuntimeError(f"{arr.n} lines are not certified")
    cert_path = os.path.join(workdir, "cert.json")
    write_certificate(cert_path, cert)
    return {
        "chain": best_of(repeats, lambda: chain_certificate(arr, d1, d2), cold=True),
        "witness": best_of(repeats, lambda: verify_free(arr, d1, d2, als=ev)),
        "write": best_of(repeats, lambda: write_certificate(cert_path, cert)),
        "read": best_of(repeats, lambda: read_certificate(cert_path)),
        "check": best_of(repeats, lambda: check_certificate(arr, cert)),
        "op": best_of(repeats, lambda: operation(arr, workdir), cold=True),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("repeats", nargs="?", type=int, default=7)
    parser.add_argument("names", nargs="*", help="inputs to time (default: all)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("REPEATS must be at least 1")
    unknown = sorted(set(args.names) - set(FIXTURES))
    if unknown:
        parser.error(f"unknown inputs {unknown}; choose from {list(FIXTURES)}")
    print(f"{'input':<8} {'exps':>6} " + " ".join(f"{s + '_ms':>10}" for s in STAGES))
    with tempfile.TemporaryDirectory() as workdir:
        for name in FIXTURES:
            if args.names and name not in args.names:
                continue
            arr = getattr(fixtures, name)()
            exps = candidate_exponents(arr)
            times = stage_times(arr, args.repeats, workdir)
            print(f"{name:<8} {f'{exps.d1},{exps.d2}':>6} " + " ".join(f"{1e3 * times[s]:>10.2f}" for s in STAGES))
    return 0


if __name__ == "__main__":
    sys.exit(main())
