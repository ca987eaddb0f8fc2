"""Run the benchmark over several seeds and summarise its spread.

Usage, from the root of a source checkout:

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 1,2,...] [--trace-seed N] [--write]

Each run is its own process, one at a time. For every end-to-end metric the
summary gives the median, the quartiles (statistics.quantiles, n=4) and the
spread, the quartile distance as a share of the median, next to the metric's
bound in BENCHMARK.json. It also keeps how long each run's process took. --trace-seed adds one traced run per workload.
--write stores everything in perfbench/baseline.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(run description, result) of one benchmark process."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-2000:]}")
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def summarise(values: list[float], bound: float) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "steady": spread < bound / 3, "values": values}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    doc = {"run_seconds": bench["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        entry = doc["workloads"].setdefault(workload, {})
        values: dict[str, list[float]] = {m: [] for m in bounds}
        unbounded: dict[str, list] = {}
        for seed in seeds:
            t0 = time.perf_counter()
            info, result = run(workload, seed, bench["run_seconds"], 0)
            entry.setdefault("process_s", []).append(time.perf_counter() - t0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            for m, v in info.get("unbounded", {}).items():
                unbounded.setdefault(m, []).append(v["value"])
            entry["environment"] = {k: info[k] for k in ("nproc", "cpu", "blas", "numpy", "python", "git_commit")}
            entry.setdefault("failed", []).append(result["failed"])
        entry["end_to_end"] = {m: summarise(v, bounds[m]) for m, v in values.items()}
        entry["unbounded"] = unbounded
        for m, s in entry["end_to_end"].items():
            flag = "ok" if s["steady"] or m == "setup_s" else "SPREAD"
            print(f"{workload:>16} {m:>15} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f} / bound {s['bound']}  {flag}")
        if args.trace_seed is not None:
            info, result = run(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["traced"] = {"seed": args.trace_seed, "failed": result["failed"],
                               "per_layer": {k: v["value"] for k, v in result["metrics"].items()},
                               "op_breakdown": info.get("op_breakdown", {})}
            print(f"{workload:>16} traced overhead {result['metrics']['trace.overhead_ratio']['value']:.4f}")
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
