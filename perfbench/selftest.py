"""Self-test of the benchmark's output checks: injected faults must be caught.

Usage, from the root of a source checkout:

    python3 perfbench/selftest.py

Runs small operations of every workload kind once as is and once with a
fault: a tampered certificate file, a wrong expected verdict, a catalog that
misses a reference hash, and a catalog entry whose certificate belongs to
another arrangement. Every clean case must pass its checks and every faulty
case must fail, so that the fail_ratio of a pass holding it is above 0.
Exits 0 when all of that holds, 1 otherwise.
"""

import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from freelines import certify, fixtures, search  # noqa: E402

import workloads  # noqa: E402


def double_scalar(path: str) -> None:
    with open(path) as fh:
        data = json.load(fh)
    data["c"] = str(2 * Fraction(data["c"]))
    with open(path, "w") as fh:
        json.dump(data, fh)


def fail_ratio(results) -> float:
    return sum(1 for r in results if r.problems) / len(results)


def main() -> int:
    timer = workloads.Stopwatch()
    mutant = workloads.disjoint_pencils(9, 4)
    cells = [search.construct_certified(d1, d2) for d1, d2 in ((1, 2), (2, 3), (3, 3))]
    swapped = search.Discovery(cells[0].arrangement, cells[1].certificate, {})

    def catalog(discs) -> search.Catalog:
        cat = search.Catalog()
        for d in discs:
            cat.add(d)
        return cat

    def reference_of(cat: search.Catalog) -> dict:
        return {
            "level_counts": {",".join(map(str, k)): len(v) for k, v in cat.entries.items()},
            "hashes": [d.certificate.arrangement_hash for v in cat.entries.values() for d in v],
        }

    def cascade_result(discs, reference) -> workloads.OpResult:
        return workloads.OpResult("catalog", problems=workloads.catalog_problems(catalog(discs), reference))

    reference = reference_of(catalog(cells))
    os.makedirs(os.path.join(ROOT, ".bench_build"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="perfbench-selftest-", dir=os.path.join(ROOT, ".bench_build"))
    try:
        free = workloads.VerifyInput("free_13", fixtures.free_13(), certify.Certified, True)
        refute = workloads.VerifyInput("pencils_9_4", mutant, certify.NotFreeAtExponents, False)
        wrong = workloads.VerifyInput("pencils_9_4", mutant, certify.Certified, False)
        cell = workloads.ConstructInput("cell_3x4", 3, 4)
        clean = [
            free.run(workdir, timer), refute.run(workdir, timer), cell.run(workdir, timer),
            cascade_result(cells, reference),
        ]
        faults = {
            "tampered verify-free certificate": free.run(workdir, timer, tamper=double_scalar),
            "wrong expected verdict": wrong.run(workdir, timer),
            "tampered construct-sweep certificate": cell.run(workdir, timer, tamper=double_scalar),
            "catalog misses a reference hash": cascade_result(cells[:2], reference),
            # counts and hashes agree with the reference; only the re-check can catch it
            "catalog certificate of another arrangement": cascade_result(
                [swapped, cells[2]], reference_of(catalog([swapped, cells[2]]))),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = True
    for r in clean:
        status = "FAIL" if r.problems else "ok"
        ok &= not r.problems
        print(f"clean  {r.name:<12} {status} {'; '.join(r.problems)}")
    for what, r in faults.items():
        ratio = fail_ratio(clean + [r])
        caught = bool(r.problems) and ratio > 0
        ok &= caught
        print(f"fault  {what:<44} {'caught' if caught else 'MISSED'}  fail_ratio {ratio:.3f}  {'; '.join(r.problems)}")
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
