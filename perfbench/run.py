"""freelines benchmark: exact verdicts and searches, timed end to end.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (closed loop, one client: one process pinned to one CPU, one BLAS
thread, one operation at a time):

  verify-free      certify free_13, free_19, free_20; exact-kernel bound
  verify-refute    refute five disjoint-pencil mutants (n = 13..20); kernel,
                   dense Saito tensor and the full pair scan
  search           cascade from near_pencil(5) to n = 7 (287 certified) and a
                   9-line beam search (4 certified); ALS and small kernels
  construct-sweep  two-pencil witness, certificate round trip and re-check for
                   every exponent cell with n <= 26; bypasses kernel, tensor
                   and ALS

A run repeats passes over the workload's inputs for about --seconds seconds.
Every pass gets fresh line orders from the seed, so the package's per-input
caches start cold. Every verdict is checked exactly; a wrong verdict, a failed
re-check, a reference mismatch or an exception counts as a failed operation.

With --trace 0 the last line of standard output is one JSON object with the
end-to-end metrics, all measured with tracing off. The host's vCPUs drift in
speed by 10-30% over minutes, so every time is scaled to a reference host
speed by a probe of fixed work that the run times between its operations
(calibrate.py); the unscaled figures are printed on the lines before.

  setup_s             median over 5 fresh processes of the time from spawn to
                      the first timed operation (imports, inputs, one warm-up
                      verdict on near_pencil(6)), scaled
  wall_ref_s          a typical pass: the sum over inputs of each input's
                      median operation time, scaled
  verdicts_per_ref_s  exact verdicts a typical pass returns per scaled second;
                      on search each is a certified discovery (catalog + beam)
  op_p50_ref_ms       median operation time: per input, then across inputs,
                      scaled
  op_tail_ref_ms      p95 of all operations on workloads with at least 20 a
                      pass, else the slowest input's median, scaled
  peak_rss_mb         peak resident memory of the process

With --trace 1 every operation runs twice, untraced and traced, with the
per-input caches cleared before each twin, and the last line holds the
per-layer metrics plus the tracing overhead against the untraced twins. The
lines before the last describe the run: seed, nproc, BLAS library and
threads, numpy and Python versions, git commit, and metrics that have no
bound (fail_ratio, discoveries_per_s, loss_agreement, ...).

Scratch files go to .bench_build/ in the checkout and are removed at exit;
the spans of a traced run are kept there as a gzip JSON file.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("verify-free", "verify-refute", "search", "construct-sweep")
SETUP_PROBES = 5
NPROC = len(os.sched_getaffinity(0))


def one_client() -> int:
    """Pin the process to one CPU with one BLAS thread; return that CPU.

    One client on one core: the process, and the set-up probes it starts, run
    on the highest-numbered allowed CPU (away from CPU 0) with one BLAS
    thread. On a shared 2-vCPU host the worst ten-seed spread of a timing
    metric was 0.25 with the process floating and two BLAS threads, and 0.20
    pinned. Must run before numpy loads.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return cpu


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def setup(workload: str):
    """Import the package from the checkout, build the inputs, warm up once."""
    if not os.path.isfile(os.path.join(SRC, "freelines", "__init__.py")):
        fail(f"no freelines sources under {SRC}; run from a source checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import freelines

    if os.path.dirname(os.path.abspath(freelines.__file__)) != os.path.join(SRC, "freelines"):
        fail(f"imported freelines from {freelines.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]()
    workloads.warm_up()
    return workloads, wl


def probe_setup_s(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes, from spawn to the first timed operation."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or code != 0:
            fail(f"set-up probe exited with {code}")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# Run description
# ---------------------------------------------------------------------------


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"library": "unknown", "version": "unknown", "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}"
    return info


def describe(args, cpu: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": NPROC, "cpu": cpu, "blas": blas_info(), "numpy": np.__version__,
        "python": platform.python_version(), "git_commit": git_commit(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def run_pass(inputs, workdir, timer, probe) -> list:
    results = []
    for inp in inputs:
        probe.maybe_sample()
        results.append(inp.run(workdir, timer))
    return results


def keep_going(t_start: float, rounds: int, seconds: float) -> bool:
    """Start another round while the run is expected to end within half a round of the deadline."""
    elapsed = time.perf_counter() - t_start
    return elapsed + 0.5 * elapsed / rounds <= seconds


def tail(ops: list, by_input: dict[str, list[float]], ops_per_pass: int) -> tuple[float, str]:
    """Tail latency in ms and the rule that gave it.

    On a workload with at least 20 operations a pass (construct-sweep), the
    95th percentile of every operation of the run: two passes put at least ten
    samples beyond it, and it is set by the costliest inputs, not by the few
    operations a host hiccup hit. A workload with fewer operations a pass
    (verify-*, search) has no such percentile worth the name in one run, so
    the median time of its slowest input stands in. The rule depends on the
    workload, never on how many passes a run managed.
    """
    if ops_per_pass < 20:
        name, times = max(by_input.items(), key=lambda kv: statistics.median(kv[1]))
        return statistics.median(times), f"median of the slowest input, {name}, over {len(times)} runs"
    s = [1e3 * r.seconds for r in ops]
    return statistics.quantiles(s, n=20)[-1], f"p95 of {len(s)} operations"


def e2e_metrics(wl, passes: list[list], setup_probes: list[float], scale: float) -> tuple[dict, dict]:
    """Bounded metrics (times scaled to the reference host speed) and unbounded ones.

    A typical pass runs every input once and takes the sum over inputs of each
    input's median time: unlike the median of whole passes, it uses every
    operation of the run, and a run of three or four passes still gives a
    steady figure. It returns the sum of each input's median verdict count.
    """
    ops = [r for p in passes for r in p]
    by_input: dict[str, list[float]] = {}
    verdicts: dict[str, list[int]] = {}
    for r in ops:
        by_input.setdefault(r.name, []).append(1e3 * r.seconds)
        verdicts.setdefault(r.name, []).append(r.verdicts)
    input_ms = [statistics.median(t) for t in by_input.values()]
    wall_s = 1e-3 * sum(input_ms)
    per_s = sum(statistics.median(v) for v in verdicts.values()) / wall_s
    p50_ms = statistics.median(input_ms)
    tail_ms, tail_rule = tail(ops, by_input, len(passes[0]))
    metrics = {
        "setup_s": (statistics.median(setup_probes) * scale, "s"),
        "wall_ref_s": (wall_s * scale, "s"),
        "verdicts_per_ref_s": (per_s / scale, "1/s"),
        "op_p50_ref_ms": (p50_ms * scale, "ms"),
        "op_tail_ref_ms": (tail_ms * scale, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    agree = [r.loss_agrees for r in ops if r.loss_agrees is not None]
    failed = sum(1 for r in ops if r.problems)
    extra = {
        "setup_raw_s": (statistics.median(setup_probes), "s"),
        "wall_s": (wall_s, "s"),
        "verdicts_per_s": (per_s, "1/s"),
        "op_p50_ms": (p50_ms, "ms"),
        "op_tail_ms": (tail_ms, "ms"),
        "host_scale": (scale, "ratio"),
        "fail_ratio": (failed / len(ops), "ratio"),
        "op_tail_rule": (tail_rule, ""),
        "op_samples": (len(ops), "count"),
        "passes": (len(passes), "count"),
        "discoveries_per_s": (per_s, "1/s") if wl.discovers else None,
        "loss_agreement": (sum(agree) / len(agree), "ratio") if agree else None,
        "setup_probes_s": (setup_probes, "s"),
    }
    return metrics, {k: v for k, v in extra.items() if v is not None}


def report_problems(passes: list[list]) -> tuple[int, int]:
    ops = [r for p in passes for r in p]
    failed = [r for r in ops if r.problems]
    for r in failed[:20]:
        print(f"perfbench: FAILED {r.name}: {'; '.join(r.problems)}", file=sys.stderr)
    return len(ops), len(failed)


def as_metrics(pairs: dict) -> dict:
    return {k: {"value": v, "unit": u} for k, (v, u) in pairs.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    cpu = one_client()
    workloads, wl = setup(args.workload)
    if args.probe_setup:
        wl.pass_inputs(args.seed, 0)
        print("ready", flush=True)
        return 0
    setup_inprocess = time.perf_counter() - _T0
    info = describe(args, cpu)

    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace:
            result = traced_run(args, workloads, wl, workdir, info)
        else:
            result = untraced_run(args, workloads, wl, workdir, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["setup_inprocess_s"] = setup_inprocess
    print(json.dumps({"run": info}))
    print(json.dumps(result))
    return 0


def untraced_run(args, workloads, wl, workdir, info) -> dict:
    import calibrate

    host = calibrate.Calibrator()
    host.sample()
    probes = probe_setup_s(args.workload, args.seed)
    host.sample()
    timer = workloads.Stopwatch()
    passes = []
    t_start = time.perf_counter()
    while not passes or keep_going(t_start, len(passes), args.seconds):
        passes.append(run_pass(wl.pass_inputs(args.seed, len(passes)), workdir, timer, host))
    host.sample()
    attempted, failed = report_problems(passes)
    metrics, extra = e2e_metrics(wl, passes, probes, host.scale())
    extra["host_probe_s"] = (host.samples, "s")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"{name:>20} {value} {unit}")
    info["unbounded"] = as_metrics(extra)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": as_metrics(metrics)}


def traced_run(args, workloads, wl, workdir, info) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    tr.install()
    stopwatch = workloads.Stopwatch()
    results = []
    untraced_s = traced_s = 0.0
    pairs = 0
    t_start = time.perf_counter()
    try:
        while not pairs or keep_going(t_start, pairs, args.seconds):
            for i, inp in enumerate(wl.pass_inputs(args.seed, pairs)):
                # twins seconds apart see the same machine; alternating their
                # order cancels what the first one leaves warm for the second
                twins = {}
                for timer in (stopwatch, tr) if i % 2 == 0 else (tr, stopwatch):
                    tracing.clear_input_caches()
                    twins[timer] = inp.run(workdir, timer)
                untraced_s += twins[stopwatch].seconds
                traced_s += twins[tr].seconds
                results += twins.values()
            pairs += 1
    finally:
        tr.uninstall()
    attempted, failed = report_problems([results])
    metrics = tracing.layer_metrics(tr, pairs, traced_s, untraced_s)
    for name, m in metrics.items():
        print(f"{name:>36} {m['value']:.6g} {m['unit']}")
    info["op_breakdown"] = tracing.op_breakdown(tr)
    spans_path = os.path.join(ROOT, ".bench_build", f"perfbench-spans-{args.workload}-seed{args.seed}.json.gz")
    tr.write(spans_path, {"workload": args.workload, "seed": args.seed, "traced_passes": pairs})
    info["spans_file"] = os.path.relpath(spans_path, ROOT)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
