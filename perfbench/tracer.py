"""Spans around the calls into each layer of freelines, taken from outside.

The tracer replaces selected public functions of every layer module with a
wrapper at every binding its callers use: the defining module, the package
namespace and every module that imported the function by name (for example
freelines.certify.null_space_exact as well as
freelines.derivations.null_space_exact). Each call inside a timed operation
becomes a span with a name, a start, an end and its parent span. Spans stay in
memory and are written out once the run ends.

Small helpers (basis_size, canonicalize_line, intersection_point, ...) get no
span: their cost is close to a span's own and no metric needs them.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

from freelines import derivations, arrangement

# layer module -> public functions that get spans (those the per-layer metrics read)
TRACED = {
    "arrangement": ("intersection_summary", "read_arrangement"),
    "monomials": ("poly_mul",),
    "exactlinalg": ("echelon_form", "kernel_basis"),
    "derivations": ("derivation_matrix", "null_space_exact", "null_space_float", "assemble_saito_tensor",
                    "contract", "contract_matrix"),
    "saito": ("saito_functional", "als_minimize", "homogeneous_lsq"),
    "certify": ("verify_free", "is_tangent_field", "exact_determinant_from_parts", "check_certificate",
                "write_certificate", "read_certificate"),
    "scores": ("reward", "sigma_alg"),
    "search": ("bootstrap_extend", "enumerate_extension_candidates", "beam_search_build", "construct_certified"),
}

# lru caches keyed on line order; their hit ratios come from cache_info() deltas
CACHES = {
    "derivations.derivation_matrix": derivations.derivation_matrix,
    "derivations.null_space_exact": derivations.null_space_exact,
    "arrangement.intersection_summary": arrangement.intersection_summary,
}


def clear_input_caches() -> None:
    for cached in CACHES.values():
        cached.cache_clear()


def _echelon_cells(counters, args, kwargs, result):
    counters["exactlinalg.cells"] += len(args[0]) * result.ncols


def _kernel_bits(counters, args, kwargs, result):
    bits = max((max(max(v), -min(v)).bit_length() for v in result if v), default=0)
    counters["exactlinalg.max_bits"] = max(counters["exactlinalg.max_bits"], bits)


def _tensor_size(counters, args, kwargs, result):
    counters["derivations.tensor_entries"] += result.out_size * result.k1 * result.k2
    if result.tensor is not None:
        counters["derivations.tensor_bytes_computed"] += result.tensor.nbytes


def _pairs(counters, args, kwargs, result):
    counters["certify.pairs_scanned"] += getattr(result, "pairs_scanned", 0)


def _cert_bytes(counters, args, kwargs, result):
    counters["certify.cert_bytes"] += os.path.getsize(args[0])


def _candidates(counters, args, kwargs, result):
    counters["search.candidates"] += len(result)


def _discoveries(counters, args, kwargs, result):
    counters["search.discoveries"] += len(result)


HOOKS = {
    "exactlinalg.echelon_form": _echelon_cells,
    "exactlinalg.kernel_basis": _kernel_bits,
    "derivations.assemble_saito_tensor": _tensor_size,
    "certify.verify_free": _pairs,
    "certify.write_certificate": _cert_bytes,
    "search.enumerate_extension_candidates": _candidates,
    "search.bootstrap_extend": _discoveries,
}


class Tracer:
    """Records spans while an operation is open; passes calls through otherwise."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.raised: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(float)
        self.cache_hits: dict[str, int] = defaultdict(int)
        self.cache_misses: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._active = False
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "freelines" or name.startswith("freelines.")]
        for layer, fnames in TRACED.items():
            defining = sys.modules[f"freelines.{layer}"]
            for fname in fnames:
                orig = getattr(defining, fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[name] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    # -- the timer interface used by workload inputs ------------------------

    def op(self, name: str) -> "_OpSpan":
        return _OpSpan(self, name)

    def write(self, path: str, meta: dict) -> None:
        with gzip.open(path, "wt") as fh:
            json.dump({"meta": meta, "names": self.names, "starts": self.starts,
                       "ends": self.ends, "parents": self.parents}, fh)


class _OpSpan:
    """Root span of one timed operation; also turns recording on and off."""

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = f"op:{name}"

    def __enter__(self):
        tr = self.tracer
        self._info = {k: c.cache_info() for k, c in CACHES.items()}
        tr._active = True
        self._idx = tr._open(self.name)
        self.elapsed = 0.0
        return self

    def __exit__(self, *exc) -> bool:
        tr = self.tracer
        tr._close(self._idx)
        tr._active = False
        self.elapsed = tr.ends[self._idx] - tr.starts[self._idx]
        for k, c in CACHES.items():
            now, before = c.cache_info(), self._info[k]
            tr.cache_hits[k] += now.hits - before.hits
            tr.cache_misses[k] += now.misses - before.misses
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# (metric, unit) in the order they are reported; values are per traced pass
LAYER_METRICS = (
    ("exactlinalg.kernel_calls", "count"), ("exactlinalg.kernel_s", "s"),
    ("exactlinalg.echelon_s", "s"), ("exactlinalg.backsub_s", "s"),
    ("exactlinalg.cells", "count"), ("exactlinalg.max_bits", "bits"),
    ("derivations.matrix_calls", "count"), ("derivations.matrix_s", "s"),
    ("derivations.matrix_hit_ratio", "ratio"), ("derivations.exact_kernel_hit_ratio", "ratio"),
    ("derivations.svd_calls", "count"), ("derivations.svd_s", "s"),
    ("derivations.svd_fallback_ratio", "ratio"), ("derivations.tensor_calls", "count"),
    ("derivations.tensor_s", "s"), ("derivations.tensor_entries", "count"),
    ("derivations.tensor_bytes_computed", "bytes"),
    ("saito.loss_calls", "count"), ("saito.loss_s", "s"), ("saito.als_s", "s"),
    ("saito.als_self_s", "s"), ("saito.contract_calls", "count"), ("saito.contract_s", "s"),
    ("saito.lsq_calls", "count"), ("saito.lsq_s", "s"),
    ("certify.verify_calls", "count"), ("certify.verify_self_s", "s"),
    ("certify.pairs_scanned", "count"), ("certify.determinant_calls", "count"),
    ("certify.determinant_s", "s"), ("certify.tangent_calls", "count"), ("certify.tangent_s", "s"),
    ("certify.check_s", "s"), ("certify.io_s", "s"), ("certify.cert_bytes", "bytes"),
    ("monomials.poly_mul_calls", "count"), ("monomials.poly_mul_s", "s"),
    ("arrangement.summary_calls", "count"), ("arrangement.summary_s", "s"),
    ("arrangement.summary_hit_ratio", "ratio"), ("arrangement.read_s", "s"),
    ("search.extend_calls", "count"), ("search.extend_self_s", "s"), ("search.candidates", "count"),
    ("search.enumerate_s", "s"), ("search.prefilter_pass_ratio", "ratio"),
    ("search.certified_ratio", "ratio"), ("search.construct_s", "s"), ("search.beam_s", "s"),
    ("scores.reward_calls", "count"), ("scores.reward_s", "s"), ("scores.sigma_alg_s", "s"),
    ("trace.spans", "count"), ("trace.traced_wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_ratio", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class SpanTable:
    """Durations, self times and call counts per span name."""

    def __init__(self, tr: Tracer):
        n = len(tr.names)
        self.dur = [tr.ends[i] - tr.starts[i] for i in range(n)]
        child = [0.0] * n
        in_extend = [False] * n
        for i, p in enumerate(tr.parents):
            if p >= 0:
                child[p] += self.dur[i]
                in_extend[i] = in_extend[p] or tr.names[p] == "search.bootstrap_extend"
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls_in_extend: dict[str, int] = defaultdict(int)
        for i, name in enumerate(tr.names):
            self.calls[name] += 1
            self.total[name] += self.dur[i]
            self.self_time[name] += self.dur[i] - child[i]
            if in_extend[i]:
                self.calls_in_extend[name] += 1


def layer_metrics(tr: Tracer, passes: int, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics averaged over the traced passes (max_bits is a maximum)."""
    t = SpanTable(tr)
    c = tr.counters

    def hit_ratio(key):
        return _ratio(tr.cache_hits[key], tr.cache_hits[key] + tr.cache_misses[key])

    per_run = {
        "exactlinalg.kernel_calls": t.calls["exactlinalg.kernel_basis"],
        "exactlinalg.kernel_s": t.total["exactlinalg.kernel_basis"],
        "exactlinalg.echelon_s": t.total["exactlinalg.echelon_form"],
        "exactlinalg.backsub_s": t.self_time["exactlinalg.kernel_basis"],
        "exactlinalg.cells": c["exactlinalg.cells"],
        "derivations.matrix_calls": t.calls["derivations.derivation_matrix"],
        "derivations.matrix_s": t.total["derivations.derivation_matrix"],
        "derivations.svd_calls": t.calls["derivations.null_space_float"],
        "derivations.svd_s": t.total["derivations.null_space_float"],
        "derivations.tensor_calls": t.calls["derivations.assemble_saito_tensor"],
        "derivations.tensor_s": t.total["derivations.assemble_saito_tensor"],
        "derivations.tensor_entries": c["derivations.tensor_entries"],
        "derivations.tensor_bytes_computed": c["derivations.tensor_bytes_computed"],
        "saito.loss_calls": t.calls["saito.saito_functional"],
        "saito.loss_s": t.total["saito.saito_functional"],
        "saito.als_s": t.total["saito.als_minimize"],
        "saito.als_self_s": t.self_time["saito.als_minimize"],
        "saito.contract_calls": t.calls["derivations.contract"] + t.calls["derivations.contract_matrix"],
        "saito.contract_s": t.total["derivations.contract"] + t.total["derivations.contract_matrix"],
        "saito.lsq_calls": t.calls["saito.homogeneous_lsq"],
        "saito.lsq_s": t.total["saito.homogeneous_lsq"],
        "certify.verify_calls": t.calls["certify.verify_free"],
        "certify.verify_self_s": t.self_time["certify.verify_free"],
        "certify.pairs_scanned": c["certify.pairs_scanned"],
        "certify.determinant_calls": t.calls["certify.exact_determinant_from_parts"],
        "certify.determinant_s": t.total["certify.exact_determinant_from_parts"],
        "certify.tangent_calls": t.calls["certify.is_tangent_field"],
        "certify.tangent_s": t.total["certify.is_tangent_field"],
        "certify.check_s": t.total["certify.check_certificate"],
        "certify.io_s": t.total["certify.write_certificate"] + t.total["certify.read_certificate"],
        "certify.cert_bytes": c["certify.cert_bytes"],
        "monomials.poly_mul_calls": t.calls["monomials.poly_mul"],
        "monomials.poly_mul_s": t.total["monomials.poly_mul"],
        "arrangement.summary_calls": t.calls["arrangement.intersection_summary"],
        "arrangement.summary_s": t.total["arrangement.intersection_summary"],
        "arrangement.read_s": t.total["arrangement.read_arrangement"],
        "search.extend_calls": t.calls["search.bootstrap_extend"],
        "search.extend_self_s": t.self_time["search.bootstrap_extend"],
        "search.candidates": c["search.candidates"],
        "search.enumerate_s": t.total["search.enumerate_extension_candidates"],
        "search.construct_s": t.total["search.construct_certified"],
        "search.beam_s": t.total["search.beam_search_build"],
        "scores.reward_calls": t.calls["scores.reward"],
        "scores.reward_s": t.total["scores.reward"],
        "scores.sigma_alg_s": t.total["scores.sigma_alg"],
        "trace.spans": len(tr.names),
    }
    out = {k: v / passes for k, v in per_run.items()}
    verify_in_extend = t.calls_in_extend["certify.verify_free"]
    out.update({
        "exactlinalg.max_bits": c["exactlinalg.max_bits"],
        "derivations.matrix_hit_ratio": hit_ratio("derivations.derivation_matrix"),
        "derivations.exact_kernel_hit_ratio": hit_ratio("derivations.null_space_exact"),
        "derivations.svd_fallback_ratio": _ratio(tr.raised["derivations.null_space_float"],
                                                 t.calls["derivations.null_space_float"]),
        "arrangement.summary_hit_ratio": hit_ratio("arrangement.intersection_summary"),
        "search.prefilter_pass_ratio": _ratio(verify_in_extend, t.calls_in_extend["saito.saito_functional"]),
        "search.certified_ratio": _ratio(c["search.discoveries"], verify_in_extend),
        "trace.traced_wall_s": traced_wall / passes,
        "trace.untraced_wall_s": untraced_wall / passes,
        "trace.overhead_s": (traced_wall - untraced_wall) / passes,
        "trace.overhead_ratio": _ratio(traced_wall - untraced_wall, untraced_wall),
    })
    return {name: {"value": out[name], "unit": unit} for name, unit in LAYER_METRICS}


def op_breakdown(tr: Tracer) -> dict:
    """Median split of each input's operation into kernel, tensor and ALS time.

    Inputs that run none of the three are left out.
    """
    t = SpanTable(tr)
    root = list(range(len(tr.names)))
    for i, p in enumerate(tr.parents):
        if p >= 0:
            root[i] = root[p]
    parts = {"exactlinalg.kernel_basis": "kernel_s", "derivations.assemble_saito_tensor": "tensor_s",
             "saito.als_minimize": "als_s"}
    rows: dict[str, list[dict]] = defaultdict(list)
    by_root: dict[int, dict] = {}
    for i, name in enumerate(tr.names):
        if tr.parents[i] < 0:
            by_root[i] = {"op_s": t.dur[i], "kernel_s": 0.0, "tensor_s": 0.0, "als_s": 0.0}
            rows[name[3:]].append(by_root[i])
        elif name in parts:
            by_root[root[i]][parts[name]] += t.dur[i]
    return {name: {k: sorted(r[k] for r in rs)[len(rs) // 2] for k in rs[0]}
            for name, rs in rows.items() if any(r["kernel_s"] + r["tensor_s"] + r["als_s"] for r in rs)}
