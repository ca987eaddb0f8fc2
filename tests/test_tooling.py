import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def test_traced_names_resolve():
    # the benchmark tracer wraps these functions by name; a rename or a
    # deletion in the package would otherwise only show up in a traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"freelines.{layer}"), name, None))
    ]
    assert missing == []


def test_traced_caches_keep_their_interface():
    # the tracer reads cache hit ratios from cache_info() deltas and clears
    # the caches between runs; a cache that lost either would only show up
    # as a failed traced run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    broken = [
        name for name, cached in tracer.CACHES.items()
        if not (callable(getattr(cached, "cache_info", None)) and callable(getattr(cached, "cache_clear", None)))
    ]
    assert tracer.CACHES and broken == []


@pytest.mark.parametrize(
    "script,args",
    [("score_reference.py", ["2", "100"]), ("coverage_sweep.py", ["6"]), ("find_refutation.py", []),
     ("stage_timing.py", ["kernel", "1", "pencils_9_4", "free_13"]), ("stage_timing.py", ["tangent", "1", "free_13"]),
     ("stage_timing.py", ["verify", "1", "free_13"])],
)
def test_scripts_run(script, args):
    # score_reference.py is the outside oracle for the score closed forms;
    # coverage_sweep.py certifies one two-pencil per exponent cell;
    # find_refutation.py runs verify_free's kernel pair scan on non-free inputs;
    # stage_timing.py times the exact kernel path (kernel), is_tangent_field
    # and check_certificate on chain certificates (tangent), and each step of
    # a verify-free operation (verify)
    done = _run_script(script, args)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize("args", [["bogus"], ["verify", "1", "two_pencil"], ["kernel", "1", "two_pencil"]])
def test_stage_timing_refuses_what_the_stage_lacks(args):
    # an unknown stage, or an input that the chosen stage does not time, is a
    # usage error caught before any header is printed
    done = _run_script("stage_timing.py", args)
    assert done.returncode == 2 and done.stdout == "", done.stdout + done.stderr


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_benchmark_selftest_passes():
    # the benchmark's own library calls (verify_free(als=...), pairs_scanned,
    # the certificate file round trip) and its fault checks, run as it runs them
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_library_code_has_no_assert():
    # python -O strips assert statements, so validation in the package must
    # be an explicit raise
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((ROOT / "src" / "freelines").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
