"""Construction search: candidate pools, extension, two-pencils, beam, cascade.

Everything here is deterministic given its configuration: candidates are
iterated in canonical order and ties break on canonical keys. Extension and
cascade are exact throughout: every candidate goes to exact verification, with
no float filter in front. Randomness enters only through the seeded ALS
evaluations that score the beam search.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace

from .arrangement import (
    Arrangement,
    DuplicateLine,
    Line,
    arrangement_from_json,
    arrangement_hash,
    arrangement_to_json,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    intersection_summary,
)
from .certify import (
    Certified,
    FreenessCertificate,
    VerificationOutcome,
    certificate_from_json,
    certificate_to_json,
    verify_arrangement,
    verify_free,
)
from .monomials import Poly
from .saito import ALSConfig
from .scores import RewardWeights, ScoreConfig, reward, sigma_alg


@dataclass(frozen=True)
class CandidatePool:
    bound: int
    lines: tuple[Line, ...]

    @property
    def size(self) -> int:
        return len(self.lines)


def candidate_pool(bound: int) -> CandidatePool:
    """All projectively distinct integer lines with max |coefficient| <= bound."""
    if bound < 1:
        raise ValueError("pool bound must be at least 1")
    seen: set[Line] = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if a == 0 and b == 0 and c == 0:
                    continue
                seen.add(canonicalize_line(a, b, c))
    return CandidatePool(bound, tuple(sorted(seen)))


def delta_b2(arr: Arrangement, line: Line) -> int:
    """Exact change of b2 when line is added, from incidences alone.

    Each existing intersection point on the line raises its multiplicity by
    one (+1 each); every line not met at such a point contributes one fresh
    double point (+1 each).
    """
    if arr.contains(line):
        raise DuplicateLine(arr.lines.index(line), arr.n)
    s = intersection_summary(arr)
    covered: set[int] = set()
    on_points = 0
    for p in s.points:
        if line.evaluate(p.coords) == 0:
            on_points += 1
            covered.update(p.incident_lines)
    return on_points + (arr.n - len(covered))


@dataclass(frozen=True)
class ExtensionConfig:
    sources: tuple[str, ...] = ("pairs", "pool", "multi")
    pool_bound: int = 2
    delta_b2_target: int | None = None

    def __post_init__(self):
        unknown = set(self.sources) - {"pairs", "pool", "multi"}
        if unknown:
            raise ValueError(f"unknown candidate sources {sorted(unknown)}")
        if not isinstance(self.pool_bound, int) or self.pool_bound < 1:
            raise ValueError(f"pool bound must be a positive integer, got {self.pool_bound!r}")


def _join(p: tuple[int, int, int], q: tuple[int, int, int]) -> Line | None:
    cx = (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )
    if cx == (0, 0, 0):
        return None
    return canonicalize_line(*cx)


def enumerate_extension_candidates(arr: Arrangement, config: ExtensionConfig) -> list[Line]:
    """Deduplicated new-line candidates from the enabled sources.

    Sources: joins of pairs of intersection points, the integer pool, and
    joins through rich points (both endpoints of multiplicity >= 3) or
    through at least three existing points. A delta_b2 target filters the
    final list to the lines achieving it exactly.
    """
    s = intersection_summary(arr)
    existing = set(arr.lines)
    found: set[Line] = set()
    pts = [p.coords for p in s.points]
    mult = {p.coords: p.multiplicity for p in s.points}
    if "pairs" in config.sources or "multi" in config.sources:
        want_pairs = "pairs" in config.sources
        want_multi = "multi" in config.sources
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                line = _join(pts[i], pts[j])
                if line is None or line in existing:
                    continue
                if want_pairs:
                    found.add(line)
                    continue
                if want_multi:
                    rich = mult[pts[i]] >= 3 and mult[pts[j]] >= 3
                    through = sum(1 for p in pts if line.evaluate(p) == 0)
                    if rich or through >= 3:
                        found.add(line)
    if "pool" in config.sources:
        for line in candidate_pool(config.pool_bound).lines:
            if line not in existing:
                found.add(line)
    candidates = sorted(found)
    if config.delta_b2_target is not None:
        candidates = [l for l in candidates if delta_b2(arr, l) == config.delta_b2_target]
    return candidates


@dataclass(frozen=True)
class Discovery:
    arrangement: Arrangement
    certificate: FreenessCertificate
    provenance: dict


def bootstrap_extend(
    seed: Arrangement,
    d1p: int,
    d2p: int,
    config: ExtensionConfig = ExtensionConfig(),
) -> list[Discovery]:
    """Extend a certified free seed by one line toward exponents (d1p, d2p).

    Only candidates moving b2 exactly to (n - 1) + d1p*d2p for the extended
    arrangement are kept, and each of them goes to verify_free. When the
    target raises one seed exponent by one, every such candidate is free by
    Terao's addition theorem; on other targets the exact check refutes them.
    Returns the certified extensions in candidate order.
    """
    n = seed.n
    if d1p + d2p != n:
        raise ValueError(f"target exponents must sum to n = {n} for an (n+1)-line extension")
    b2 = intersection_summary(seed).b2
    # an explicit target in the config overrides the derived one
    target = config.delta_b2_target
    if target is None:
        target = (n + d1p * d2p) - b2
    cfg = replace(config, delta_b2_target=target)
    out: list[Discovery] = []
    for line in enumerate_extension_candidates(seed, cfg):
        extended = seed.extended(line)
        outcome = verify_free(extended, d1p, d2p)
        if isinstance(outcome, Certified):
            out.append(
                Discovery(
                    arrangement=extended,
                    certificate=outcome.certificate,
                    provenance={
                        "source": "bootstrap",
                        "seed_hash": arrangement_hash(seed),
                        "added_line": [str(line.a), str(line.b), str(line.c)],
                        "delta_b2_target": str(target),
                    },
                )
            )
    return out


# ---------------------------------------------------------------------------
# Supersolvable two-pencil construction
# ---------------------------------------------------------------------------


def two_pencil_witness(d1: int, d2: int) -> tuple:
    """Explicit tangent-field basis for the standard two-pencil arrangement.

    With B1 = prod (x - i*y) and B2 = prod (x - j*z), the fields B1 d/dy and
    B2 d/dz are tangent to every line and their determinant against the Euler
    field is exactly x*B1*B2 = Q.
    """
    b1: Poly = {(0, 0, 0): 1}
    for i in range(1, d1 + 1):
        b1 = _mul_linear(b1, 1, -i, 0)
    b2: Poly = {(0, 0, 0): 1}
    for j in range(1, d2 + 1):
        b2 = _mul_linear(b2, 1, 0, -j)
    theta1 = ({}, b1, {})
    theta2 = ({}, {}, b2)
    return theta1, theta2


def _mul_linear(p: Poly, a: int, b: int, c: int) -> Poly:
    out: Poly = {}
    for (e1, e2, e3), v in p.items():
        for coeff, key in ((a, (e1 + 1, e2, e3)), (b, (e1, e2 + 1, e3)), (c, (e1, e2, e3 + 1))):
            if coeff:
                w = out.get(key, 0) + coeff * v
                if w:
                    out[key] = w
                else:
                    out.pop(key, None)
    return out


def supersolvable_two_pencil(d1: int, d2: int) -> Arrangement:
    """Two pencils sharing the line x = 0: free with exponents (d1, d2).

    The shared line passes through both pencil apexes [0:0:1] and [0:1:0];
    d1 further lines x = i*y run through the first apex and d2 further lines
    x = j*z through the second. Distinct nonzero integer slopes guarantee the
    intended lattice: cross-pencil meets [i*j : j : i] are automatically
    pairwise distinct and avoid every other line.
    """
    if not 1 <= d1 <= d2:
        raise ValueError("need 1 <= d1 <= d2")
    lines = [canonicalize_line(1, 0, 0)]
    lines += [canonicalize_line(1, -i, 0) for i in range(1, d1 + 1)]
    lines += [canonicalize_line(1, 0, -j) for j in range(1, d2 + 1)]
    return build_arrangement(lines)


def construct_certified(d1: int, d2: int) -> Discovery:
    """Two-pencil arrangement together with its exact freeness certificate."""
    arr = supersolvable_two_pencil(d1, d2)
    outcome = verify_free(arr, d1, d2, witness=two_pencil_witness(d1, d2))
    if not isinstance(outcome, Certified):  # pragma: no cover - construction theorem
        raise RuntimeError(f"two-pencil construction failed certification at ({d1}, {d2})")
    return Discovery(
        arrangement=arr,
        certificate=outcome.certificate,
        provenance={"source": "two-pencil", "exponents": [str(d1), str(d2)]},
    )


# ---------------------------------------------------------------------------
# Deterministic beam search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BeamEntry:
    arrangement: Arrangement
    cumulative_reward: float
    sigma_alg: float
    outcome: VerificationOutcome | None


def _beam_key(lines: tuple[Line, ...]) -> tuple:
    return tuple(sorted((l.a, l.b, l.c) for l in lines))


def beam_search_build(
    n: int,
    d1: int,
    d2: int,
    weights: RewardWeights = RewardWeights(),
    pool: CandidatePool | None = None,
    beam_width: int = 4,
    seed: int = 0,
    exact_cutoff: int = 13,
) -> list[BeamEntry]:
    """Grow arrangements line by line, keeping the best partial prefixes.

    Candidates are taken from the pool in canonical order; the beam keeps the
    top beam_width states by cumulative reward with canonical-key tie-breaks,
    so runs are reproducible for a fixed seed (which only feeds the ALS).
    The final beam is sorted by algebraic score, then verification status.
    """
    if beam_width < 1:
        raise ValueError("beam width must be at least 1")
    if d1 + d2 != n - 1:
        raise ValueError("target exponents must sum to n - 1")
    pool = pool or candidate_pool(1)
    score_cfg = ScoreConfig(
        target_exponents=(d1, d2),
        als=ALSConfig(rng_seed=seed),
        exact_bonus_cutoff=exact_cutoff,
    )
    # beam states: (lines, cumulative reward, summary of current prefix)
    beam: list[tuple[tuple[Line, ...], float]] = [((), 0.0)]
    for step in range(1, n + 1):
        expanded: dict[tuple, tuple[tuple[Line, ...], float]] = {}
        terminal = step == n
        for lines, cum in beam:
            prev_summary = intersection_summary(build_arrangement(lines)) if len(lines) >= 2 else None
            for line in pool.lines:
                if line in lines:
                    continue
                new_lines = lines + (line,)
                arr = build_arrangement(new_lines)
                is_free = None
                if terminal and n <= exact_cutoff:
                    if candidate_exponents(arr) is None:
                        is_free = False
                    else:
                        is_free = isinstance(verify_arrangement(arr), Certified)
                r = reward(
                    arr,
                    prev_summary,
                    weights=weights,
                    config=score_cfg,
                    terminal=terminal,
                    is_free=is_free,
                )
                key = _beam_key(new_lines)
                cand = (new_lines, cum + r.total)
                best = expanded.get(key)
                if best is None or cand[1] > best[1]:
                    expanded[key] = cand
        ranked = sorted(expanded.items(), key=lambda kv: (-kv[1][1], kv[0]))
        beam = [state for _, state in ranked[:beam_width]]
        if not beam:
            return []
    out = []
    for lines, cum in beam:
        arr = build_arrangement(lines)
        alg = sigma_alg(arr, score_cfg)
        outcome = verify_arrangement(arr) if candidate_exponents(arr) is not None else None
        out.append(BeamEntry(arr, cum, alg, outcome))
    out.sort(
        key=lambda e: (
            -e.sigma_alg,
            not isinstance(e.outcome, Certified),
            _beam_key(e.arrangement.lines),
        )
    )
    return out


# ---------------------------------------------------------------------------
# Cascade and catalog persistence
# ---------------------------------------------------------------------------


@dataclass
class Catalog:
    """Certified arrangements keyed by (n, d1, d2), deduplicated by hash."""

    entries: dict[tuple[int, int, int], list[Discovery]] = field(default_factory=dict)
    _hashes: set[str] = field(default_factory=set)

    def add(self, disc: Discovery) -> bool:
        h = disc.certificate.arrangement_hash
        if h in self._hashes:
            return False
        key = (disc.arrangement.n, disc.certificate.d1, disc.certificate.d2)
        self.entries.setdefault(key, []).append(disc)
        self._hashes.add(h)
        return True

    @property
    def size(self) -> int:
        return len(self._hashes)

    def at_level(self, n: int) -> list[Discovery]:
        return [d for key, ds in self.entries.items() if key[0] == n for d in ds]


def cascade(
    seeds: list[Arrangement],
    n_max: int,
    targets: list[tuple[int, int]] | None = None,
    config: ExtensionConfig = ExtensionConfig(),
) -> Catalog:
    """Iterate bootstrap extension level by level up to n_max.

    Discoveries at one level feed the next. Targets restrict the exponent
    pairs attempted at each level; by default every admissible pair is tried.
    Seeds are certified before use and enter the catalog themselves.
    """
    catalog = Catalog()
    frontier: list[Discovery] = []
    for arr in seeds:
        outcome = verify_arrangement(arr)
        if isinstance(outcome, Certified):
            disc = Discovery(arr, outcome.certificate, {"source": "seed"})
            if catalog.add(disc):
                frontier.append(disc)
    while frontier:
        frontier.sort(key=lambda d: (d.arrangement.n, d.certificate.arrangement_hash))
        next_frontier: list[Discovery] = []
        for disc in frontier:
            m = disc.arrangement.n
            if m >= n_max:
                continue
            level_targets = (
                [(a, b) for a, b in (targets or []) if a + b == m]
                if targets is not None
                else [(a, m - a) for a in range(1, m // 2 + 1)]
            )
            for d1p, d2p in level_targets:
                for found in bootstrap_extend(disc.arrangement, d1p, d2p, config):
                    if catalog.add(found):
                        next_frontier.append(found)
        frontier = next_frontier
    return catalog


def save_catalog(catalog: Catalog, out_dir: str) -> str:
    """One JSON file per certified arrangement plus an index; returns index path."""
    os.makedirs(out_dir, exist_ok=True)
    index: dict[str, list[str]] = {}
    for (n, d1, d2), discs in sorted(catalog.entries.items()):
        for disc in discs:
            h = disc.certificate.arrangement_hash
            name = f"n{n}_d{d1}x{d2}_{h[:12]}.json"
            path = os.path.join(out_dir, name)
            with open(path, "w") as fh:
                json.dump(
                    {
                        "arrangement": arrangement_to_json(disc.arrangement),
                        "certificate": certificate_to_json(disc.certificate),
                        "provenance": disc.provenance,
                    },
                    fh,
                    indent=2,
                )
                fh.write("\n")
            index.setdefault(f"{n},{d1},{d2}", []).append(name)
    index_path = os.path.join(out_dir, "index.json")
    with open(index_path, "w") as fh:
        json.dump(index, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return index_path


def load_catalog(out_dir: str) -> Catalog:
    catalog = Catalog()
    index_path = os.path.join(out_dir, "index.json")
    with open(index_path) as fh:
        index = json.load(fh)
    for key, names in index.items():
        for name in names:
            with open(os.path.join(out_dir, name)) as fh:
                data = json.load(fh)
            catalog.add(
                Discovery(
                    arrangement=arrangement_from_json(data["arrangement"]),
                    certificate=certificate_from_json(data["certificate"]),
                    provenance=data.get("provenance", {}),
                )
            )
    return catalog
