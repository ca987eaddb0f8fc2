"""Construction search: candidate pools, extension, two-pencils, beam, cascade.

Everything here is deterministic given its configuration: candidates are
iterated in canonical order and ties break on canonical keys. Extension is
exact and runs no kernel at all: Terao's addition theorem and Abe's deletion
theorem decide which candidates are free, and each child's certificate is
lifted from its seed's by one exact division on the new line and re-checked.
A cascade computes kernels only to certify a seed that is not inductively
free (one with no deletion chain, in any line order). The beam search is
scored by exact freeness verdicts, so nothing here is random.
"""

from __future__ import annotations

import os
from collections.abc import Container
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .arrangement import (
    Arrangement,
    DuplicateLine,
    Line,
    _cross,
    arrangement_from_json,
    arrangement_hash,
    arrangement_to_json,
    build_arrangement,
    canonicalize_line,
    intersection_summary,
    json_entry,
    json_object,
    read_json,
    write_json,
)
from .certify import (
    Certified,
    FreenessCertificate,
    InternalInconsistency,
    VerificationOutcome,
    _checked,
    certificate_from_json,
    certificate_to_json,
    lift_certificate,
    verify_arrangement,
)
from .monomials import Poly
from .scores import RewardWeights, ScoreConfig, reward


@dataclass(frozen=True)
class CandidatePool:
    bound: int
    lines: tuple[Line, ...]

    @property
    def size(self) -> int:
        return len(self.lines)


@lru_cache(maxsize=None)
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
    covered = 0  # bit k set when line k meets the new line at an existing point
    on_points = 0
    for p in s.points:
        if line.evaluate(p.coords) == 0:
            on_points += 1
            covered |= p.mask
    return on_points + (arr.n - covered.bit_count())


@dataclass(frozen=True)
class ExtensionConfig:
    pool_bound: int = 2

    def __post_init__(self):
        if not isinstance(self.pool_bound, int) or self.pool_bound < 1:
            raise ValueError(f"pool bound must be a positive integer, got {self.pool_bound!r}")


def _join(p: tuple[int, int, int], q: tuple[int, int, int]) -> Line | None:
    cx = _cross(p, q)
    if cx == (0, 0, 0):
        return None
    return canonicalize_line(*cx)


def enumerate_extension_candidates(arr: Arrangement, config: ExtensionConfig) -> list[Line]:
    """New-line candidates in canonical order, without duplicates.

    The joins of pairs of intersection points and the integer lines of the
    pool, minus the lines already in the arrangement.
    """
    s = intersection_summary(arr)
    pts = [p.coords for p in s.points]
    found = {
        line
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if (line := _join(pts[i], pts[j])) is not None
    }
    found.update(candidate_pool(config.pool_bound).lines)
    return sorted(found - set(arr.lines))


@dataclass(frozen=True)
class Discovery:
    arrangement: Arrangement
    certificate: FreenessCertificate
    provenance: dict


def discovery_to_json(disc: Discovery) -> dict:
    """The JSON form of a discovery, as catalog files and `freelines extend` write it."""
    return {
        "arrangement": arrangement_to_json(disc.arrangement),
        "certificate": certificate_to_json(disc.certificate),
        "provenance": disc.provenance,
    }


def _lift_routes(a: int, b: int) -> list[tuple[tuple[int, int], int]]:
    """(exponents, |A''|) of the free one-line extensions of a free (a, b) seed.

    By Terao's addition theorem a free (a, b) seed plus a line H meeting it
    in |A''| points is free with these exponents; by Abe's deletion theorem
    no other one-line extension is free. When a = b both routes reach
    (a, a + 1).
    """
    return [(tuple(sorted((a + 1, b))), b + 1), ((a, b + 1), a + 1)]


def bootstrap_extend(
    seed: Arrangement,
    certificate: FreenessCertificate,
    d1p: int,
    d2p: int,
    config: ExtensionConfig = ExtensionConfig(),
    *,
    known: Container[str] = frozenset(),
) -> list[Discovery]:
    """Extend a certified free seed by one line toward exponents (d1p, d2p).

    The seed is free with the exponents (a, b) of its certificate, and a new
    line H meets it in |A''| = delta_b2 points. The extension is free exactly
    when |A''| = b + 1, with exponents (a + 1, b), or |A''| = a + 1, with
    exponents (a, b + 1) (Terao's addition theorem; Abe's deletion theorem
    rules out every other free extension). So a target not adjacent to (a, b)
    returns [] at once, and on an adjacent target every candidate with the
    matching |A''| is free. Its certificate is lifted from the seed's by
    lift_certificate, whose division picks the seed field; the |A''| filter
    has already fixed the route, and b2 = n + d1' * d2' with d1' + d2' = n
    fixes the exponents of any certificate of the extension. Each lift is
    re-checked exactly; a lift that fails raises InternalInconsistency.
    Extensions whose arrangement hash is in known are skipped before the
    lift. Returns the certified extensions in candidate order. A seed
    certificate that fails check_certificate raises ValueError naming the
    failed check.
    """
    n = seed.n
    if d1p + d2p != n:
        raise ValueError(f"target exponents must sum to n = {n} for an (n+1)-line extension")
    _checked(seed, certificate, "the seed certificate", ValueError)
    seed_hash = certificate.arrangement_hash
    a, b = certificate.d1, certificate.d2
    points = next((p for exps, p in _lift_routes(a, b) if exps == (d1p, d2p)), None)
    if points is None:
        return []
    out: list[Discovery] = []
    for line in enumerate_extension_candidates(seed, config):
        if delta_b2(seed, line) != points:
            continue
        extended = seed.extended(line)
        if arrangement_hash(extended) in known:
            continue
        lifted = lift_certificate(certificate, extended, line)
        if lifted is None:
            raise InternalInconsistency(
                f"no lift of the ({a}, {b}) seed certificate across {line.coeffs}"
            )
        out.append(
            Discovery(
                arrangement=extended,
                certificate=_checked(extended, lifted, "lifted certificate"),
                provenance={
                    "source": "bootstrap",
                    "seed_hash": seed_hash,
                    "added_line": [str(line.a), str(line.b), str(line.c)],
                    "delta_b2_target": str(points),
                    "witness": "lifted",
                },
            )
        )
    return out


# ---------------------------------------------------------------------------
# Supersolvable two-pencil construction
# ---------------------------------------------------------------------------


def _elementary_symmetric(d: int) -> list[int]:
    """[e_0, ..., e_d], the elementary symmetric numbers of 1, ..., d.

    Adding m to the set takes e_k to e_k + m * e_(k-1).
    """
    e = [1]
    for m in range(1, d + 1):
        e = [a + m * b for a, b in zip(e + [0], [0] + e)]
    return e


def two_pencil_witness(d1: int, d2: int) -> tuple:
    """Explicit tangent-field basis for the standard two-pencil arrangement.

    With B1 = prod (x - i*y) and B2 = prod (x - j*z), the fields B1 d/dy and
    B2 d/dz are tangent to every line and their determinant against the Euler
    field is exactly x*B1*B2 = Q. Each product is written out as
    prod_{i=1..d} (x - i*v) = sum_k (-1)^k e_k(1..d) x^(d-k) v^k, with the
    elementary symmetric numbers e_k(1..d) of _elementary_symmetric.
    """
    b1: Poly = {(d1 - k, k, 0): (-1) ** k * e for k, e in enumerate(_elementary_symmetric(d1))}
    b2: Poly = {(d2 - k, 0, k): (-1) ** k * e for k, e in enumerate(_elementary_symmetric(d2))}
    theta1 = ({}, b1, {})
    theta2 = ({}, {}, b2)
    return theta1, theta2


def supersolvable_two_pencil(d1: int, d2: int) -> Arrangement:
    """Two pencils sharing the line x = 0: free with exponents (d1, d2).

    The shared line passes through both pencil apexes [0:0:1] and [0:1:0];
    d1 further lines x = i*y run through the first apex and d2 further lines
    x = j*z through the second. Distinct nonzero integer slopes guarantee the
    intended lattice: cross-pencil meets [i*j : j : i] are automatically
    pairwise distinct and avoid every other line.
    """
    if not 1 <= d1 <= d2:
        raise ValueError(f"need 1 <= d1 <= d2, got {d1},{d2}")
    # each form is already canonical: coprime, first coefficient 1
    lines = [Line(1, 0, 0)]
    lines += [Line(1, -i, 0) for i in range(1, d1 + 1)]
    lines += [Line(1, 0, -j) for j in range(1, d2 + 1)]
    return build_arrangement(lines)


def construct_certified(d1: int, d2: int) -> Discovery:
    """Two-pencil arrangement with its certificate in closed form: two_pencil_witness's fields.

    c = 1, since det(E, B1 d/dy, B2 d/dz) = x * B1 * B2 = Q. The certificate
    must pass check_certificate; a failure raises InternalInconsistency.
    """
    arr = supersolvable_two_pencil(d1, d2)
    cert = FreenessCertificate(d1, d2, *two_pencil_witness(d1, d2), Fraction(1), arrangement_hash(arr))
    return Discovery(
        arrangement=arr,
        certificate=_checked(arr, cert, f"the two-pencil certificate at ({d1}, {d2})"),
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
    outcome: VerificationOutcome


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
) -> list[BeamEntry]:
    """Grow arrangements line by line, keeping the best partial prefixes.

    Candidates are taken from the pool in canonical order; the beam keeps the
    top beam_width states by cumulative reward with canonical-key tie-breaks,
    so runs are reproducible. Each line set is verified once, however many
    states reach it, and its outcome goes to the reward and, at the terminal
    step, to the final entry. seed has no effect and is kept only for
    existing callers. The final beam is sorted by algebraic score.
    """
    if beam_width < 1:
        raise ValueError(f"beam width must be at least 1, got {beam_width}")
    if n < 3:
        raise ValueError(f"beam search needs at least 3 lines, got {n}")
    if d1 + d2 != n - 1:
        raise ValueError(f"exponents {d1},{d2} do not sum to n - 1 = {n - 1}")
    pool = pool or candidate_pool(1)
    score_cfg = ScoreConfig(target_exponents=(d1, d2))
    # beam states: (lines, cumulative reward, last sigma_alg, last outcome)
    beam: list[tuple[tuple[Line, ...], float, float, VerificationOutcome | None]] = [((), 0.0, 0.0, None)]
    for step in range(1, n + 1):
        expanded: dict[tuple, tuple] = {}
        terminal = step == n
        for lines, cum, _, _ in beam:
            prev_summary = intersection_summary(build_arrangement(lines)) if len(lines) >= 2 else None
            for line in pool.lines:
                if line in lines:
                    continue
                new_lines = lines + (line,)
                arr = build_arrangement(new_lines)
                key = _beam_key(new_lines)
                best = expanded.get(key)
                outcome = verify_arrangement(arr) if best is None else best[3]
                r = reward(arr, prev_summary, weights, score_cfg, terminal=terminal, outcome=outcome)
                cand = (new_lines, cum + r.total, r.alg, outcome)
                if best is None or cand[1] > best[1]:
                    expanded[key] = cand
        ranked = sorted(expanded.items(), key=lambda kv: (-kv[1][1], kv[0]))
        beam = [state for _, state in ranked[:beam_width]]
        if not beam:
            return []
    # sigma_alg is 1 exactly on the certified entries, so it also orders by verdict
    out = [BeamEntry(build_arrangement(lines), cum, alg, outcome) for lines, cum, alg, outcome in beam]
    return sorted(out, key=lambda e: (-e.sigma_alg, _beam_key(e.arrangement.lines)))


# ---------------------------------------------------------------------------
# Cascade and catalog persistence
# ---------------------------------------------------------------------------


@dataclass
class Catalog:
    """Certified arrangements by (n, d1, d2), one per hash; cascade and load_catalog add only checked ones."""

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


def cascade(
    seeds: list[Arrangement],
    n_max: int,
    targets: list[tuple[int, int]] | None = None,
    config: ExtensionConfig = ExtensionConfig(),
) -> Catalog:
    """Iterate bootstrap extension level by level up to n_max.

    Discoveries at one level feed the next. Each discovery is extended toward
    the exponents adjacent to its own, the only ones a one-line extension can
    be free with; targets, when given, restrict these further. Seeds are
    certified by verify_arrangement before use and enter the catalog
    themselves; every later certificate is lifted, once per arrangement:
    the catalog keeps the first discovery of each hash, so a child already
    in it is not lifted again.
    """
    wanted = None if targets is None else {(a, b) for a, b in targets}
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
            if disc.arrangement.n >= n_max:
                continue
            adjacent = {exps for exps, _ in _lift_routes(disc.certificate.d1, disc.certificate.d2)}
            for d1p, d2p in sorted(adjacent):
                if wanted is not None and (d1p, d2p) not in wanted:
                    continue
                children = bootstrap_extend(
                    disc.arrangement, disc.certificate, d1p, d2p, config, known=catalog._hashes
                )
                for found in children:
                    if catalog.add(found):
                        next_frontier.append(found)
        frontier = next_frontier
    return catalog


def save_catalog(catalog: Catalog, out_dir: str) -> str:
    """One JSON file per certified arrangement plus an index; returns index path.

    out_dir is made only once every file's content is built, so a catalog
    that cannot be written leaves nothing behind.
    """
    files: dict[str, dict] = {}
    index: dict[str, list[str]] = {}
    for (n, d1, d2), discs in sorted(catalog.entries.items()):
        for disc in discs:
            h = disc.certificate.arrangement_hash
            name = f"n{n}_d{d1}x{d2}_{h[:12]}.json"
            files[os.path.join(out_dir, name)] = discovery_to_json(disc)
            index.setdefault(f"{n},{d1},{d2}", []).append(name)
    index_path = os.path.join(out_dir, "index.json")
    files[index_path] = dict(sorted(index.items()))
    os.makedirs(out_dir, exist_ok=True)
    write_json(files)
    return index_path


def _index_from_json(data) -> list[str]:
    """The entry file names of a catalog index, cell by cell."""
    cells = json_object(data, "index").values()
    if not all(isinstance(names, list) and all(isinstance(x, str) for x in names) for names in cells):
        raise ValueError("index: each cell must list entry file names")
    return [name for names in cells for name in names]


def _discovery_from_json(data) -> Discovery:
    json_object(data, "catalog entry")
    arr = arrangement_from_json(json_entry(data, "arrangement", "catalog entry"))
    cert = certificate_from_json(json_entry(data, "certificate", "catalog entry"))
    return Discovery(arr, _checked(arr, cert, "catalog certificate", ValueError), data.get("provenance", {}))


def load_catalog(out_dir: str) -> Catalog:
    """The catalog save_catalog wrote to out_dir; a bad index or entry raises ValueError naming its file.

    A certificate that fails check_certificate is a bad entry, and the error names the failed check.
    """
    catalog = Catalog()
    for name in read_json(os.path.join(out_dir, "index.json"), _index_from_json):
        catalog.add(read_json(os.path.join(out_dir, name), _discovery_from_json))
    return catalog
