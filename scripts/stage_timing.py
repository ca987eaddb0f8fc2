#!/usr/bin/env python3
"""Timings of one stage of freelines, input by input, in process or (startup) in fresh processes.

STAGE is one of:
- kernel: best and worst of REPEATS (default 5) cold times of
  null_space_exact at each candidate degree, with the system it solves:
  k, the lines through the pencil's point, gens, the pencil generators it
  solves for (1, the point alone, when d < k - 1, so eta_p is never built;
  otherwise 2), the shape (n - k)(d + 1) x (N_d + N_{d-k+1}) and the
  nullity of D(A)_d, and the best cold time of pencil_system alone
  (rows_ms), which builds that system's rows. The full derivation matrix
  is never built. Each repeat takes the input in a line order seeded by
  its name and the repeat's number, as the benchmark takes each pass.
  Inputs: the five disjoint-pencil mutants of verify-refute and the
  pinned fixtures.
- tangent: best of REPEATS (default 7) times of the two is_tangent_field
  calls, of _saito_scalar and of check_certificate. Inputs: the chain
  certificates of free_13, free_19 and free_20, and two_pencil: the
  certified two-pencils of all 156 exponent cells with n <= 26, together.
- verify: best of REPEATS (default 7) times of each step of a verify-free
  operation and of the whole operation (op), on free_13, free_16, free_19
  and free_20. The chain and op are cold, as a new input is; the other steps
  reuse the chain's certificate.
- construct: best of REPEATS (default 7) times of each step of a
  construct-sweep operation and of the whole operation (op), each summed
  over the 156 exponent cells with n <= 26 (input two_pencil): the two-pencil
  arrangement, its witness, and the certificate write, read and
  check_certificate, the gate construct_certified also passes its
  closed-form certificate through. op is cold; the other steps reuse the
  arrangement and the certificate construct_certified built before timing.
- startup: best and median of REPEATS (default 10) wall times of a fresh
  Python process, from spawn to exit, that imports freelines (import) or
  runs one freelines command: construct 4 7, check of free_13's chain
  certificate, verify on free_13 and verify on the mutant
  disjoint_pencils(9, 4). The numpy column says whether numpy's code ran in
  that process: the package binds numpy lazily, so only a command that
  reaches an exact kernel or the float evaluator loads it.
A cold call starts with the lattice, derivation-matrix and kernel caches cleared.

Usage: python scripts/stage_timing.py STAGE [REPEATS [NAME ...]]
       e.g. python scripts/stage_timing.py kernel 1 pencils_9_4
            python scripts/stage_timing.py startup 10
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
from functools import partial
from time import perf_counter

import freelines
from freelines import arrangement, derivations, fixtures
from freelines.arrangement import build_arrangement, candidate_exponents, read_arrangement, write_arrangement
from freelines.certify import Certified, _saito_scalar, chain_certificate, check_certificate, is_tangent_field
from freelines.certify import read_certificate, verify_free, write_certificate
from freelines.derivations import derivation_matrix, null_space_exact, pencil_system
from freelines.saito import saito_functional
from freelines.search import construct_certified, supersolvable_two_pencil, two_pencil_witness

MUTANTS = ((9, 4), (10, 5), (11, 5), (13, 6), (13, 7))
PENCILS = [f"pencils_{k}_{m}" for k, m in MUTANTS]
FIXTURES = ("free_13", "free_19", "free_20")
VERIFY_FIXTURES = ("free_13", "free_16", "free_19", "free_20")
TWO_PENCIL_N_MAX = 26
TWO_PENCIL_CELLS = [(d1, n - 1 - d1) for n in range(3, TWO_PENCIL_N_MAX + 1) for d1 in range(1, (n - 1) // 2 + 1)]
VERIFY_STEPS = ("chain", "witness", "write", "read", "check", "op")
CONSTRUCT_STEPS = ("arrangement", "witness", "write", "read", "check", "op")


def two_pencils():
    """The certified two-pencil of every exponent cell (d1, d2) with n = d1 + d2 + 1 <= TWO_PENCIL_N_MAX."""
    return [construct_certified(d1, d2) for d1, d2 in TWO_PENCIL_CELLS]


# name -> builder of the input: an arrangement, or for two_pencil a list of discoveries
INPUTS = {
    **{name: partial(fixtures.disjoint_pencils, k, m) for name, (k, m) in zip(PENCILS, MUTANTS)},
    **{name: getattr(fixtures, name) for name in VERIFY_FIXTURES},
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
    print(f"{'input':<14} {'d':>3} {'k':>3} {'gens':>4} {'shape':>10} {'nullity':>8} {'kernel_ms':>10} {'worst':>7} "
          f"{'rows_ms':>8}")
    total = 0.0
    for name in names:
        arr = INPUTS[name]()
        orders = []
        for k in range(repeats):
            lines = list(arr.lines)
            random.Random(f"{name}:{k}").shuffle(lines)
            orders.append(build_arrangement(lines))
        exps = candidate_exponents(arr)
        for d in sorted({exps.d1, exps.d2}):
            times, bases = timed(repeats, lambda k: null_space_exact(derivation_matrix(orders[k], d)), cold=True)
            rows_times, systems = timed(repeats, lambda k: pencil_system(orders[k], d), cold=True)
            system = systems[-1]
            total += min(times)
            print(f"{name:<14} {d:>3} {system.k:>3} {len(system.fields):>4} {len(system.rows):>4}x{system.ncols:<5} "
                  f"{bases[-1].nullity:>8} {1e3 * min(times):>10.1f} {1e3 * max(times):>7.1f} "
                  f"{1e3 * min(rows_times):>8.2f}")
    print(f"{'total (best)':<46} {1e3 * total:>10.1f}")


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


def construct_operation(d1, d2, cert_path):
    """The construct-sweep operation on one cell, as one call."""
    disc = construct_certified(d1, d2)
    write_certificate(cert_path, disc.certificate)
    ok, failing = check_certificate(disc.arrangement, read_certificate(cert_path))
    if not ok:
        raise RuntimeError(f"the two-pencil certificate at ({d1}, {d2}) fails its re-check: {failing}")


def construct_stage(names, repeats):
    print(f"{'input':<12} {'cells':>6} " + " ".join(f"{s + '_ms':>14}" for s in CONSTRUCT_STEPS))
    cells = TWO_PENCIL_CELLS
    with tempfile.TemporaryDirectory() as workdir:
        paths = {cell: os.path.join(workdir, "%d_%d.cert.json" % cell) for cell in cells}
        discs = {cell: construct_certified(*cell) for cell in cells}
        for cell in cells:
            write_certificate(paths[cell], discs[cell].certificate)
        steps = {  # step -> (call on one cell, whether it is timed cold), in CONSTRUCT_STEPS order
            "arrangement": (lambda cell: supersolvable_two_pencil(*cell), False),
            "witness": (lambda cell: two_pencil_witness(*cell), False),
            "write": (lambda cell: write_certificate(paths[cell], discs[cell].certificate), False),
            "read": (lambda cell: read_certificate(paths[cell]), False),
            "check": (lambda cell: check_certificate(discs[cell].arrangement, discs[cell].certificate), False),
            "op": (lambda cell: construct_operation(*cell, paths[cell]), True),
        }
        best = [min(timed(repeats, lambda _: [call(cell) for cell in cells], cold)[0]) for call, cold in steps.values()]
    print(f"{names[0]:<12} {len(cells):>6} " + " ".join(f"{1e3 * t:>14.2f}" for t in best))


# a startup process: import freelines, run the CLI on the process's arguments
# if it has any, then report on stderr whether any numpy module ran
STARTUP_PROGRAM = """import sys
import freelines
code = 0
if sys.argv[1:]:
    from freelines.cli import main
    code = main(sys.argv[1:])
sys.stderr.write("numpy_ran=%d" % any(name.startswith("numpy.") for name in sys.modules))
sys.exit(code)
"""
# row -> (CLI arguments, on files startup_stage writes; the exit code they give)
STARTUP_COMMANDS = {
    "import": ([], 0),
    "construct": (["construct", "4", "7"], 0),
    "check": (["check", "free_13.json", "free_13.cert.json"], 0),
    "verify_free_13": (["verify", "free_13.json"], 0),
    "verify_pencils_9_4": (["verify", "pencils_9_4.json"], 1),  # not free
}


def startup_stage(names, repeats):
    print(f"{'command':<20} {'numpy':>6} {'best_ms':>9} {'median_ms':>10}")
    env = dict(os.environ)  # the children import the freelines this script imported
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(freelines.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    with tempfile.TemporaryDirectory() as workdir:
        free13 = fixtures.free_13()
        write_arrangement(os.path.join(workdir, "free_13.json"), free13)
        write_certificate(os.path.join(workdir, "free_13.cert.json"), chain_certificate(free13, 6, 6))
        write_arrangement(os.path.join(workdir, "pencils_9_4.json"), fixtures.disjoint_pencils(9, 4))
        for name in names:
            args, expected = STARTUP_COMMANDS[name]
            times, ran = [], set()
            for _ in range(repeats):
                t0 = perf_counter()
                done = subprocess.run([sys.executable, "-c", STARTUP_PROGRAM, *args], cwd=workdir, env=env,
                                      stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
                times.append(perf_counter() - t0)
                _, marker, flag = done.stderr.rpartition("numpy_ran=")
                if done.returncode != expected or not marker:
                    raise RuntimeError(f"the {name} process exited with {done.returncode}: {done.stderr}")
                ran.add(flag)
            print(f"{name:<20} {'yes' if '1' in ran else 'no':>6} {1e3 * min(times):>9.1f} {1e3 * statistics.median(times):>10.1f}")


# stage -> (its function, its inputs in print order, its default REPEATS)
STAGES = {
    "kernel": (kernel_stage, [*PENCILS, *FIXTURES], 5),
    "tangent": (tangent_stage, [*FIXTURES, "two_pencil"], 7),
    "verify": (verify_stage, list(VERIFY_FIXTURES), 7),
    "construct": (construct_stage, ["two_pencil"], 7),
    "startup": (startup_stage, list(STARTUP_COMMANDS), 10),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("stage", choices=STAGES)
    parser.add_argument("repeats", nargs="?", type=int, help="default: 5 for kernel, 10 for startup, 7 otherwise")
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
