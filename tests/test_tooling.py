import ast
import importlib
import importlib.util
import os
import re
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
     ("stage_timing.py", ["verify", "1", "free_13"]), ("stage_timing.py", ["construct", "1"]),
     ("stage_timing.py", ["startup", "1"])],
)
def test_scripts_run(script, args):
    # score_reference.py is the outside oracle for the score closed forms;
    # coverage_sweep.py certifies one two-pencil per exponent cell;
    # find_refutation.py runs verify_free's kernel pair scan on non-free inputs;
    # stage_timing.py times the exact kernel path (kernel), is_tangent_field
    # and check_certificate on chain certificates (tangent), and each step of
    # a verify-free operation (verify) and of a construct-sweep one (construct),
    # and fresh processes of an import and of four CLI commands (startup)
    done = _run_script(script, args)
    assert done.returncode == 0, done.stdout + done.stderr


@pytest.mark.parametrize(
    "args", [["bogus"], ["verify", "1", "two_pencil"], ["kernel", "1", "two_pencil"], ["construct", "1", "free_13"]]
)
def test_stage_timing_refuses_what_the_stage_lacks(args):
    # an unknown stage, or an input that the chosen stage does not time, is a
    # usage error caught before any header is printed
    done = _run_script("stage_timing.py", args)
    assert done.returncode == 2 and done.stdout == "", done.stdout + done.stderr


def test_coverage_sweep_refuses_a_non_integer_n_max():
    done = _run_script("coverage_sweep.py", ["six"])
    assert done.returncode == 2 and done.stdout == "", done.stdout + done.stderr
    assert done.stderr.startswith("usage:") and "Traceback" not in done.stderr


@pytest.mark.parametrize("script,args", [("score_reference.py", ["two"]), ("find_refutation.py", ["--bogus"])])
def test_scripts_refuse_bad_arguments(script, args):
    # a non-integer count and an unknown flag are usage errors, caught before any work
    done = _run_script(script, args)
    assert done.returncode == 2 and done.stdout == "", done.stdout + done.stderr
    assert done.stderr.startswith("usage:") and "Traceback" not in done.stderr


def test_coverage_sweep_writes_each_cell_whole_or_not_at_all(tmp_path, monkeypatch):
    # the arrangement and certificate of a cell are rendered before either
    # file is opened, so a certificate that cannot be written leaves neither
    spec = importlib.util.spec_from_file_location("coverage_sweep", ROOT / "scripts" / "coverage_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(4, str(tmp_path / "ok")) == 0
    assert sorted(p.name for p in (tmp_path / "ok").iterdir()) == [
        "two_pencil_1x1.cert.json", "two_pencil_1x1.json", "two_pencil_1x2.cert.json", "two_pencil_1x2.json"]

    def refuse(cert):
        raise ValueError("theta1.f: a coefficient has more than 4000 digits")

    monkeypatch.setattr(sweep, "certificate_to_json", refuse)
    with pytest.raises(ValueError, match="4000 digits"):
        sweep.main(4, str(tmp_path / "bad"))
    assert list((tmp_path / "bad").iterdir()) == []


def _run_script(script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_readme_library_tour_runs():
    # the README's python block is the code a reader copies; it must run as
    # written and reach what its comments claim
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    tour = {}
    exec(compile(blocks[0], "README.md", "exec"), tour)
    assert tour["ev"].loss == 0.0 and tour["ok"] and tour["found"]


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
