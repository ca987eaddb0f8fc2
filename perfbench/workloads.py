"""Workload inputs, the timed operation on each input, and its exact checks.

Every workload is a list of inputs that one pass runs in order, one operation
at a time. Pass k of a run gets its inputs from (workload, seed, k) alone: the
seed permutes the line order of every arrangement, shuffles the sweep cells
and feeds the beam search's seed. Verdicts and arrangement hashes do not
depend on line order, but the package's per-input caches (derivation matrices,
exact kernels, lattice summaries) key on it, so every pass starts cold on its
own inputs without touching library state.

Only the library chain sits inside the timer. The checks that follow it are
the benchmark's own and are not timed. A failed check or an exception is
recorded against the operation instead of aborting the run.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter

from freelines import arrangement, certify, derivations, fixtures, saito, search

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# (k, m) of the disjoint-pencil mutants: k lines through [0:0:1] and m through
# [1:0:0]. Each has candidate exponents and none is free.
REFUTE_PENCILS = ((9, 4), (10, 5), (11, 5), (13, 6), (13, 7))
# Cost depends on line order (up to 1.5x between orders of one mutant), so
# the small mutants run this many times a pass, each in its own order: their
# medians then rest on as many samples as the run has time for.
REFUTE_SMALL_LINES, REFUTE_SMALL_REPEATS = 16, 3
SWEEP_N_MAX = 26
BEAM_CERTIFIED = 4  # certified entries the (4, 4) beam search returns
CERTIFIED_LOSS = 1e-6  # ALS loss at or below which a certified input agrees
PREFILTER_LOSS = 0.05  # bootstrap prefilter: a refuted input agrees above it


@dataclass
class OpResult:
    """One timed operation: its time, its exact verdicts and what went wrong."""

    name: str
    seconds: float = 0.0
    verdicts: int = 0
    problems: list[str] = field(default_factory=list)
    loss_agrees: bool | None = None


class Stopwatch:
    """Timer used when tracing is off; a tracer offers the same interface."""

    def op(self, name: str) -> "Stopwatch":
        return self

    def __enter__(self) -> "Stopwatch":
        self.elapsed = 0.0
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.elapsed = perf_counter() - self._t0
        return False


def _permuted(arr: arrangement.Arrangement, rng: random.Random) -> arrangement.Arrangement:
    lines = list(arr.lines)
    rng.shuffle(lines)
    return arrangement.build_arrangement(lines)


def disjoint_pencils(k: int, m: int) -> arrangement.Arrangement:
    """k lines through [0:0:1] plus m through [1:0:0], sharing no line."""
    rows = [(1, 0, 0)] + [(1, -i, 0) for i in range(1, k)] + [(0, 1, -j) for j in range(1, m + 1)]
    return arrangement.build_arrangement([arrangement.canonicalize_line(*r) for r in rows])


def _complement_pairs(arr: arrangement.Arrangement, d1: int, d2: int) -> int:
    k1 = len(derivations.null_space_exact(derivations.derivation_matrix(arr, d1)).complement)
    if d1 == d2:
        return k1 * (k1 - 1) // 2
    k2 = len(derivations.null_space_exact(derivations.derivation_matrix(arr, d2)).complement)
    return k1 * k2


def _recheck_problems(pairs) -> list[str]:
    """Re-check (arrangement, certificate) pairs; name each one that fails."""
    problems = []
    for i, (arr, cert) in enumerate(pairs):
        ok, why = certify.check_certificate(arr, cert)
        if not ok:
            problems.append(f"certificate {i} fails re-check: {why}")
    return problems


@dataclass
class VerifyInput:
    """Exact verdict on one arrangement, read back from its own file.

    The chain is write_arrangement, read_arrangement, candidate_exponents,
    saito_functional, verify_free(als=...) and, for certified inputs, the
    certificate file round trip and check_certificate.
    """

    name: str
    arrangement: arrangement.Arrangement
    expect: type
    cert_files: bool

    def run(self, workdir: str, timer, tamper=None) -> OpResult:
        res = OpResult(self.name)
        path = os.path.join(workdir, f"{self.name}.json")
        cert_path = os.path.join(workdir, f"{self.name}.cert.json")
        outcome = ev = recheck = arr = exps = None
        stopwatch = timer.op(self.name)
        try:
            with stopwatch:
                arrangement.write_arrangement(path, self.arrangement)
                arr = arrangement.read_arrangement(path)
                exps = arrangement.candidate_exponents(arr)
                if exps is not None:
                    ev = saito.saito_functional(arr, exps.d1, exps.d2)
                    outcome = certify.verify_free(arr, exps.d1, exps.d2, als=ev)
                    if self.cert_files and isinstance(outcome, certify.Certified):
                        certify.write_certificate(cert_path, outcome.certificate)
                        if tamper is not None:
                            tamper(cert_path)
                        recheck = certify.check_certificate(arr, certify.read_certificate(cert_path))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            res.problems.append(f"exception {type(exc).__name__}: {exc}")
        res.seconds = stopwatch.elapsed
        if res.problems:
            return res
        if exps is None:
            res.problems.append("no candidate exponents")
            return res
        if not isinstance(outcome, self.expect):
            res.problems.append(f"verdict {type(outcome).__name__}, expected {self.expect.__name__}")
            return res
        if isinstance(outcome, certify.Certified):
            res.loss_agrees = ev.loss <= CERTIFIED_LOSS
            if self.cert_files and not recheck[0]:
                res.problems.append(f"certificate fails re-check: {recheck[1]}")
                return res
        else:
            res.loss_agrees = ev.loss > PREFILTER_LOSS
            want = _complement_pairs(arr, exps.d1, exps.d2)
            if outcome.pairs_scanned != want:
                res.problems.append(f"pairs_scanned {outcome.pairs_scanned}, expected {want}")
                return res
        res.verdicts = 1
        return res


@dataclass
class CascadeInput:
    """Cascade from a permuted 5-line near-pencil up to 7 lines, every target."""

    name: str
    seed_arrangement: arrangement.Arrangement
    reference: dict

    def run(self, workdir: str, timer) -> OpResult:
        res = OpResult(self.name)
        catalog = None
        stopwatch = timer.op(self.name)
        try:
            with stopwatch:
                catalog = search.cascade(
                    [self.seed_arrangement], 7, targets=None,
                    config=search.ExtensionConfig(pool_bound=2),
                )
        except Exception as exc:  # a crash is a failed operation, not a failed run
            res.problems.append(f"exception {type(exc).__name__}: {exc}")
        res.seconds = stopwatch.elapsed
        if catalog is None:
            return res
        res.problems = catalog_problems(catalog, self.reference)
        if not res.problems:
            res.verdicts = catalog.size
        return res


def catalog_problems(catalog: search.Catalog, reference: dict) -> list[str]:
    """Compare a cascade catalog with the reference and re-check every entry."""
    problems = []
    counts = {",".join(map(str, key)): len(discs) for key, discs in catalog.entries.items()}
    if counts != reference["level_counts"]:
        problems.append(f"level counts {counts}")
    hashes = {d.certificate.arrangement_hash for ds in catalog.entries.values() for d in ds}
    if hashes != set(reference["hashes"]):
        problems.append(f"{len(hashes ^ set(reference['hashes']))} catalog hashes differ from the reference")
    problems += _recheck_problems(
        (d.arrangement, d.certificate) for ds in catalog.entries.values() for d in ds
    )
    return problems


@dataclass
class BeamInput:
    """Beam construction of a 9-line arrangement at exponents (4, 4)."""

    name: str
    beam_seed: int
    pool: search.CandidatePool

    def run(self, workdir: str, timer) -> OpResult:
        res = OpResult(self.name)
        entries = None
        stopwatch = timer.op(self.name)
        try:
            with stopwatch:
                entries = search.beam_search_build(
                    9, 4, 4, pool=self.pool, beam_width=4, seed=self.beam_seed
                )
        except Exception as exc:  # a crash is a failed operation, not a failed run
            res.problems.append(f"exception {type(exc).__name__}: {exc}")
        res.seconds = stopwatch.elapsed
        if entries is None:
            return res
        certified = [e for e in entries if isinstance(e.outcome, certify.Certified)]
        if len(certified) != BEAM_CERTIFIED:
            res.problems.append(f"{len(certified)} of {len(entries)} beam entries certified")
        res.problems += _recheck_problems((e.arrangement, e.outcome.certificate) for e in certified)
        if not res.problems:
            res.verdicts = len(certified)
        return res


@dataclass
class ConstructInput:
    """Two-pencil witness for one exponent cell and its certificate round trip."""

    name: str
    d1: int
    d2: int

    def run(self, workdir: str, timer, tamper=None) -> OpResult:
        res = OpResult(self.name)
        cert_path = os.path.join(workdir, f"{self.name}.cert.json")
        disc = recheck = None
        stopwatch = timer.op(self.name)
        try:
            with stopwatch:
                disc = search.construct_certified(self.d1, self.d2)
                certify.write_certificate(cert_path, disc.certificate)
                if tamper is not None:
                    tamper(cert_path)
                recheck = certify.check_certificate(disc.arrangement, certify.read_certificate(cert_path))
        except Exception as exc:  # a crash is a failed operation, not a failed run
            res.problems.append(f"exception {type(exc).__name__}: {exc}")
        res.seconds = stopwatch.elapsed
        if res.problems:
            return res
        if not recheck[0]:
            res.problems.append(f"certificate fails re-check: {recheck[1]}")
            return res
        b2 = arrangement.intersection_summary(disc.arrangement).b2
        want = (disc.arrangement.n - 1) + self.d1 * self.d2
        if b2 != want:
            res.problems.append(f"b2 {b2}, expected {want}")
            return res
        res.verdicts = 1
        return res


# ---------------------------------------------------------------------------
# Workloads: base inputs are built once in set-up, passes derive from them
# ---------------------------------------------------------------------------


def _pass_rng(workload: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{k}")


class VerifyFree:
    discovers = False
    name = "verify-free"

    def __init__(self):
        self.base = [("free_13", fixtures.free_13()), ("free_19", fixtures.free_19()),
                     ("free_20", fixtures.free_20())]

    def pass_inputs(self, seed: int, k: int) -> list:
        rng = _pass_rng(self.name, seed, k)
        return [VerifyInput(name, _permuted(arr, rng), certify.Certified, True) for name, arr in self.base]


class VerifyRefute:
    discovers = False
    name = "verify-refute"

    def __init__(self):
        self.base = [(f"pencils_{k}_{m}", disjoint_pencils(k, m)) for k, m in REFUTE_PENCILS]

    def pass_inputs(self, seed: int, k: int) -> list:
        rng = _pass_rng(self.name, seed, k)
        return [VerifyInput(name, _permuted(arr, rng), certify.NotFreeAtExponents, False)
                for name, arr in self.base
                for _ in range(REFUTE_SMALL_REPEATS if arr.n <= REFUTE_SMALL_LINES else 1)]


class Search:
    discovers = True  # every verdict it returns is a certified discovery
    name = "search"

    def __init__(self):
        with open(REFERENCE_PATH) as fh:
            self.reference = json.load(fh)["cascade"]
        self.seed_arrangement = fixtures.near_pencil(5)
        self.pool = search.candidate_pool(2)
        self._orders: dict[tuple, int] = {}

    def pass_inputs(self, seed: int, k: int) -> list:
        rng = _pass_rng(self.name, seed, k)
        # the 5-line seed has only 120 orders: a run never reuses one, so no
        # pass finds the lattice summaries of an earlier pass in the cache
        seed_arr = _permuted(self.seed_arrangement, rng)
        while self._orders.setdefault(seed_arr.lines, k) != k:
            seed_arr = _permuted(self.seed_arrangement, rng)
        return [
            CascadeInput("cascade", seed_arr, self.reference),
            BeamInput("beam", rng.randrange(2**32), self.pool),
        ]


class ConstructSweep:
    discovers = False
    name = "construct-sweep"

    def __init__(self):
        self.cells = [(d1, n - 1 - d1) for n in range(3, SWEEP_N_MAX + 1)
                      for d1 in range(1, (n - 1) // 2 + 1)]

    def pass_inputs(self, seed: int, k: int) -> list:
        cells = list(self.cells)
        _pass_rng(self.name, seed, k).shuffle(cells)
        return [ConstructInput(f"cell_{d1}x{d2}", d1, d2) for d1, d2 in cells]


WORKLOADS = {w.name: w for w in (VerifyFree, VerifyRefute, Search, ConstructSweep)}


def warm_up() -> None:
    """One verdict on near_pencil(6), which no workload uses as an input."""
    arr = fixtures.near_pencil(6)
    exps = arrangement.candidate_exponents(arr)
    ev = saito.saito_functional(arr, exps.d1, exps.d2)
    outcome = certify.verify_free(arr, exps.d1, exps.d2, als=ev)
    if not isinstance(outcome, certify.Certified):
        raise RuntimeError("warm-up verdict on near_pencil(6) is not Certified")
