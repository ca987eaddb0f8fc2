import dataclasses
import hashlib
import json
import sys
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelines import certify, exactlinalg, fixtures
from freelines.arrangement import (
    DuplicateLine,
    arrangement_hash,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    intersection_summary,
    write_arrangement,
    write_json,
)
from freelines import search
from freelines.certify import (
    Certified,
    InternalInconsistency,
    NotFreeAtExponents,
    certificate_to_json,
    check_certificate,
    lift_certificate,
    verify_arrangement,
    verify_free,
)
from freelines.derivations import line_kernel_basis
from freelines.fixtures import near_pencil
from freelines.monomials import poly_from_line, poly_mul
from freelines.scores import RewardWeights
from freelines.search import (
    Catalog,
    ExtensionConfig,
    _lift_routes,
    beam_search_build,
    bootstrap_extend,
    candidate_pool,
    cascade,
    construct_certified,
    delta_b2,
    enumerate_extension_candidates,
    load_catalog,
    save_catalog,
    supersolvable_two_pencil,
    two_pencil_witness,
)


def normalize_oracle(a, b, c):
    """Independent canonical form for the pool-completeness oracle."""
    g = gcd(gcd(abs(a), abs(b)), abs(c))
    t = (a // g, b // g, c // g)
    for v in t:
        if v:
            return t if v > 0 else (-t[0], -t[1], -t[2])
    raise AssertionError


def test_pool_r1_has_thirteen_lines():
    pool = candidate_pool(1)
    assert pool.size == 13
    coords = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    assert coords <= {l.coeffs for l in pool.lines}


@pytest.mark.parametrize("bound", [1, 2])
def test_pool_completeness(bound):
    classes = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                if (a, b, c) != (0, 0, 0):
                    classes.add(normalize_oracle(a, b, c))
    pool = candidate_pool(bound)
    assert {l.coeffs for l in pool.lines} == classes
    assert pool.size == len(classes)


def test_delta_b2_examples(boolean):
    assert delta_b2(boolean, canonicalize_line(1, 1, 1)) == 3
    assert delta_b2(boolean, canonicalize_line(1, 1, 0)) == 2
    # a line through no existing point adds n fresh double points
    assert delta_b2(boolean, canonicalize_line(1, 2, 3)) == 3


def test_delta_b2_rejects_duplicates(boolean):
    with pytest.raises(DuplicateLine):
        delta_b2(boolean, boolean.lines[0])


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_delta_b2_matches_recompute(data):
    pool = candidate_pool(2).lines
    idx = data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=6, unique=True)
    )
    arr = build_arrangement([pool[i] for i in idx])
    extra = data.draw(st.integers(0, len(pool) - 1))
    if pool[extra] in arr.lines:
        return
    incremental = delta_b2(arr, pool[extra])
    recomputed = (
        intersection_summary(arr.extended(pool[extra])).b2 - intersection_summary(arr).b2
    )
    assert incremental == recomputed


def point_joins(arr):
    """Oracle: every line through two intersection points, by cross product."""
    pts = [p.coords for p in intersection_summary(arr).points]
    joins = set()
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            cx = (p[1] * q[2] - p[2] * q[1], p[2] * q[0] - p[0] * q[2], p[0] * q[1] - p[1] * q[0])
            joins.add(canonicalize_line(*cx))
    return joins


def seed_certificate(arr):
    return verify_arrangement(arr).certificate


def test_pair_source_empty_on_boolean(boolean):
    # the three points are joined by the arrangement lines themselves
    cands = enumerate_extension_candidates(boolean, ExtensionConfig(pool_bound=2))
    assert point_joins(boolean) <= set(boolean.lines)
    assert cands == sorted(set(candidate_pool(2).lines) - set(boolean.lines))


def test_pair_source_empty_on_near_pencils():
    # oracle: every join of two intersection points of a near-pencil is
    # already an arrangement line (apex joins are pencil lines; the other
    # points are collinear on the extra line)
    for n in (4, 5, 6):
        arr = near_pencil(n)
        cands = enumerate_extension_candidates(arr, ExtensionConfig(pool_bound=2))
        assert point_joins(arr) <= set(arr.lines)
        assert cands == sorted(set(candidate_pool(2).lines) - set(arr.lines))


def test_pair_source_two_pencil():
    arr = supersolvable_two_pencil(2, 2)
    cands = set(enumerate_extension_candidates(arr, ExtensionConfig(pool_bound=1)))
    new_joins = point_joins(arr) - set(arr.lines)
    assert new_joins  # crossing points span joins outside the arrangement
    assert new_joins <= cands
    assert not cands & set(arr.lines)
    assert cands == new_joins | (set(candidate_pool(1).lines) - set(arr.lines))


def test_delta_target_filters_to_point_avoiding_lines(boolean):
    cands = [
        line
        for line in enumerate_extension_candidates(boolean, ExtensionConfig(pool_bound=2))
        if delta_b2(boolean, line) == 3
    ]
    assert cands
    s = intersection_summary(boolean)
    for line in cands:
        assert all(line.evaluate(p.coords) != 0 for p in s.points)


def test_bootstrap_extends_near_pencil(near_pencil5):
    discs = bootstrap_extend(near_pencil5, seed_certificate(near_pencil5), 1, 4, ExtensionConfig(pool_bound=2))
    assert discs
    profiles = [intersection_summary(d.arrangement).t for d in discs]
    assert {2: 5, 5: 1} in profiles  # the 6-line near-pencil is among them
    for d in discs:
        assert check_certificate(d.arrangement, d.certificate) == (True, None)
        assert d.provenance["source"] == "bootstrap"
        assert d.provenance["witness"] == "lifted"


def test_bootstrap_requires_matching_sum(near_pencil5):
    with pytest.raises(ValueError):
        bootstrap_extend(near_pencil5, seed_certificate(near_pencil5), 1, 3)


def test_bootstrap_unreachable_target_is_empty():
    # from the (2,2) two-pencil toward (1,4): delta b2 = 5 + 4 - 8 = 1, but a
    # new line meets all five lines and no point covers more than three
    seed = supersolvable_two_pencil(2, 2)
    assert bootstrap_extend(seed, seed_certificate(seed), 1, 4) == []


def test_two_pencil_small():
    tri = supersolvable_two_pencil(1, 1)
    assert tri.n == 3
    assert intersection_summary(tri).t == {2: 3}
    np5 = supersolvable_two_pencil(1, 3)
    assert intersection_summary(np5).t == {2: 4, 4: 1}


def test_two_pencil_witness_is_exact():
    for d1, d2 in [(1, 1), (2, 3), (4, 4)]:
        arr = supersolvable_two_pencil(d1, d2)
        out = verify_free(arr, d1, d2, witness=two_pencil_witness(d1, d2))
        assert isinstance(out, Certified)
        assert out.certificate.c == 1


def test_two_pencil_witness_is_the_product_of_its_lines():
    # the closed form sum_k (-1)^k e_k(1..d) x^(d-k) v^k against the product
    # of the pencil's lines, one poly_mul at a time
    for n in range(3, 27):
        for d1 in range(1, (n - 1) // 2 + 1):
            d2 = n - 1 - d1
            b1 = {(0, 0, 0): 1}
            for i in range(1, d1 + 1):
                b1 = poly_mul(b1, poly_from_line((1, -i, 0)))
            b2 = {(0, 0, 0): 1}
            for j in range(1, d2 + 1):
                b2 = poly_mul(b2, poly_from_line((1, 0, -j)))
            assert two_pencil_witness(d1, d2) == (({}, b1, {}), ({}, {}, b2))


@pytest.mark.parametrize("d1,d2", [(1, 1), (1, 4), (2, 2), (3, 4)])
def test_two_pencil_b2_law(d1, d2):
    arr = supersolvable_two_pencil(d1, d2)
    n = d1 + d2 + 1
    assert arr.n == n
    assert intersection_summary(arr).b2 == (n - 1) + d1 * d2
    exps = candidate_exponents(arr)
    assert (exps.d1, exps.d2) == (d1, d2)


def test_construct_certified_roundtrip():
    disc = construct_certified(2, 2)
    assert check_certificate(disc.arrangement, disc.certificate) == (True, None)
    assert disc.provenance["source"] == "two-pencil"


@pytest.mark.parametrize(
    "wrong,failing",
    [(lambda d1, d2: two_pencil_witness(d1, d2)[::-1], "determinant-mismatch"),
     (lambda d1, d2: (({}, {}, two_pencil_witness(d1, d2)[0][1]), two_pencil_witness(d1, d2)[1]), "theta1-kernel")],
    ids=["swapped", "not-tangent"],
)
def test_construct_certified_gates_its_closed_form(monkeypatch, wrong, failing):
    # the two-pencil certificate is built in closed form with c = 1 and must
    # pass check_certificate: a wrong pair is a bug in the construction, not
    # something for the deletion chain to certify in its place. Swapped at
    # (3, 3) the fields give det = -Q; B1 d/dz is not tangent to x = y
    monkeypatch.setattr(search, "two_pencil_witness", wrong)
    with pytest.raises(InternalInconsistency, match=f"two-pencil certificate at \\(3, 3\\) fails its check: {failing}"):
        construct_certified(3, 3)


def test_beam_n3_finds_certified_triangle():
    entries = beam_search_build(3, 1, 1, pool=candidate_pool(1), beam_width=4, seed=0)
    assert entries
    top = entries[0]
    assert isinstance(top.outcome, Certified)
    assert intersection_summary(top.arrangement).t == {2: 3}
    # oracle: exhaustive scan of all triples over the R=1 pool
    from itertools import combinations

    certified_sets = set()
    for triple in combinations(candidate_pool(1).lines, 3):
        arr = build_arrangement(list(triple))
        if candidate_exponents(arr) is None:
            continue
        if isinstance(verify_free(arr, 1, 1), Certified):
            certified_sets.add(frozenset(triple))
    assert frozenset(top.arrangement.lines) in certified_sets


def test_beam_deterministic():
    kw = dict(pool=candidate_pool(1), beam_width=3, seed=123)
    e1 = beam_search_build(3, 1, 1, **kw)
    e2 = beam_search_build(3, 1, 1, **kw)
    assert [e.arrangement for e in e1] == [e.arrangement for e in e2]
    assert [e.cumulative_reward for e in e1] == [e.cumulative_reward for e in e2]


def test_beam_width_one_is_greedy():
    entries = beam_search_build(4, 1, 2, pool=candidate_pool(1), beam_width=1, seed=7)
    assert len(entries) == 1


def test_beam_finds_near_pencil_for_unbalanced_target():
    weights = RewardWeights(w_b2=1.0, w_int=0.0, w_mult=0.0, w_pen=0.0)
    entries = beam_search_build(
        5, 1, 3, weights=weights, pool=candidate_pool(2), beam_width=6, seed=0
    )
    assert any(
        intersection_summary(e.arrangement).t == {2: 4, 4: 1}
        and isinstance(e.outcome, Certified)
        for e in entries
    )


# the (9, 4, 4) beam of the search benchmark, pool bound 2, width 4: entries
# in order with their cumulative rewards, as the ALS-scored beam found them
NINE_LINE_BEAM = [
    ([(0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0), (0, 1, 1), (1, -2, -2), (1, -2, -1), (1, -1, -2), (1, -1, -1)],
     19.03085991901041),
    ([(0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0), (1, -2, -2), (1, -2, -1), (1, -2, 0), (1, -1, -2), (1, -1, -1)],
     19.152233545384036),
    ([(0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0), (1, -2, -2), (1, -2, 0), (1, -2, 2), (1, 0, -2), (1, 0, 0)],
     19.152233545384036),
    ([(0, 0, 1), (0, 1, -2), (0, 1, -1), (0, 1, 0), (1, -2, -2), (1, -2, 0), (1, -1, -2), (1, -1, 0), (1, 0, -2)],
     19.152233545384036),
]


def test_nine_line_beam_is_pinned():
    entries = beam_search_build(9, 4, 4, pool=candidate_pool(2), beam_width=4)
    assert [sorted(l.coeffs for l in e.arrangement.lines) for e in entries] == [
        lines for lines, _ in NINE_LINE_BEAM
    ]
    assert [e.cumulative_reward for e in entries] == pytest.approx(
        [cum for _, cum in NINE_LINE_BEAM], abs=1e-9
    )
    assert all(isinstance(e.outcome, Certified) and e.sigma_alg == 1.0 for e in entries)


def test_beam_decides_freeness_once_without_the_functional(monkeypatch):
    from freelines import certify, saito, scores

    def refuse(*args, **kwargs):
        raise AssertionError("the beam evaluated the Saito functional")

    patch_everywhere(monkeypatch, "saito_functional", saito.saito_functional, refuse)
    log = counted(monkeypatch, {"verify_free": certify.verify_free, "reward": scores.reward})
    entries = beam_search_build(5, 1, 3, pool=candidate_pool(1), beam_width=3)
    assert entries and all(isinstance(e.outcome, Certified) for e in entries)
    verified = [arrangement_hash(args[0]) for name, args in log if name == "verify_free"]
    scored = {
        arrangement_hash(args[0])
        for name, args in log
        if name == "reward" and candidate_exponents(args[0]) is not None
    }
    # one verdict per distinct line set, however many beam states reach it
    assert verified and len(verified) == len(scored) and set(verified) == scored


def test_cascade_near_pencil_chain(near_pencil5):
    catalog = cascade(
        [near_pencil5], 7, targets=[(1, 4), (1, 5)], config=ExtensionConfig(pool_bound=2)
    )
    assert (5, 1, 3) in catalog.entries  # the seed itself
    assert catalog.entries.get((6, 1, 4))
    assert catalog.entries.get((7, 1, 5))


def test_cascade_empty_seeds():
    assert cascade([], 6).size == 0


def test_cascade_nmax_below_seed(near_pencil5):
    catalog = cascade([near_pencil5], 5)
    assert catalog.size == 1  # just the certified seed


def test_cascade_deterministic(near_pencil5):
    c1 = cascade([near_pencil5], 7, targets=[(1, 4), (1, 5)], config=ExtensionConfig(pool_bound=2))
    c2 = cascade([near_pencil5], 7, targets=[(1, 4), (1, 5)], config=ExtensionConfig(pool_bound=2))
    k1 = {key: [d.certificate.arrangement_hash for d in ds] for key, ds in c1.entries.items()}
    k2 = {key: [d.certificate.arrangement_hash for d in ds] for key, ds in c2.entries.items()}
    assert k1 == k2


def test_catalog_save_load(tmp_path, near_pencil5):
    catalog = cascade([near_pencil5], 6, targets=[(1, 4)], config=ExtensionConfig(pool_bound=2))
    out = tmp_path / "catalog"
    save_catalog(catalog, str(out))
    back = load_catalog(str(out))
    assert back.size == catalog.size
    assert set(back.entries) == set(catalog.entries)
    for key, ds in back.entries.items():
        for d in ds:
            assert check_certificate(d.arrangement, d.certificate) == (True, None)


def test_load_catalog_refuses_an_entry_that_fails_its_check(tmp_path, near_pencil5):
    # a Catalog holds certified arrangements: an entry whose c was changed
    # is refused when it is read, naming its file and the failed check
    out = tmp_path / "catalog"
    save_catalog(cascade([near_pencil5], 6, config=ExtensionConfig(pool_bound=2)), str(out))
    name = json.loads((out / "index.json").read_text())["6,2,3"][0]
    entry = json.loads((out / name).read_text())
    entry["certificate"]["c"] = str(Fraction(entry["certificate"]["c"]) + 1)
    (out / name).write_text(json.dumps(entry))
    with pytest.raises(ValueError, match=f"{name}: catalog certificate fails its check: determinant-mismatch"):
        load_catalog(str(out))


def test_load_catalog_names_the_bad_file(tmp_path):
    # a nesting too deep for the decoder and an entry without its keys are
    # ValueErrors naming the file, not a RecursionError or a KeyError
    index = tmp_path / "index.json"
    index.write_text("[" * 100000)
    with pytest.raises(ValueError, match="index.json"):
        load_catalog(str(tmp_path))
    index.write_text(json.dumps({"5,1,3": ["entry.json"]}))
    (tmp_path / "entry.json").write_text("{}")
    with pytest.raises(ValueError, match="entry.json.*'arrangement'"):
        load_catalog(str(tmp_path))


def test_unwritable_files_leave_nothing_behind(tmp_path):
    # each writer renders every text before it opens a file: a line past
    # Python's 4300-digit int-to-str limit and a certificate scalar past the
    # readers' 4000 digits both raise, and leave no empty file or directory
    wide = build_arrangement([canonicalize_line(10**4400 + 1, 1, 0), *fixtures.free_13().lines[:3]])
    arr_path = tmp_path / "wide.json"
    with pytest.raises(ValueError):
        write_arrangement(str(arr_path), wide)
    assert not arr_path.exists()
    disc = construct_certified(1, 2)
    catalog = Catalog()
    catalog.add(dataclasses.replace(disc, certificate=dataclasses.replace(disc.certificate, c=10**4001)))
    out = tmp_path / "catalog"
    with pytest.raises(ValueError, match="c: a coefficient has more than 4000 digits"):
        save_catalog(catalog, str(out))
    assert not out.exists()


def test_a_file_that_cannot_be_opened_removes_the_files_before_it(tmp_path):
    # a directory at the second path fails its open with an OSError; the
    # first file, already written, is unlinked before the error propagates
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    second.mkdir()
    with pytest.raises(IsADirectoryError):
        write_json({str(first): {"a": 1}, str(second): {"b": 2}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["second.json"]
    # save_catalog writes the entries first and index.json last
    catalog = Catalog()
    catalog.add(construct_certified(1, 2))
    out = tmp_path / "catalog"
    (out / "index.json").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        save_catalog(catalog, str(out))
    assert sorted(p.name for p in out.iterdir()) == ["index.json"]


def test_bootstrap_returns_exactly_the_certified_candidates():
    # from the (1, 4) near-pencil, the adjacent target (2, 4) certifies every
    # delta-b2 candidate and the non-adjacent (3, 3) refutes every one
    seed = near_pencil(6)
    b2 = intersection_summary(seed).b2
    cfg = ExtensionConfig(pool_bound=2)
    refuted = 0
    for d1, d2 in [(2, 4), (3, 3)]:
        target = (seed.n + d1 * d2) - b2
        certified = []
        for line in enumerate_extension_candidates(seed, cfg):
            if delta_b2(seed, line) != target:
                continue
            outcome = verify_free(seed.extended(line), d1, d2)
            if isinstance(outcome, Certified):
                certified.append(seed.extended(line))
            else:
                assert isinstance(outcome, NotFreeAtExponents)
                refuted += 1
        found = bootstrap_extend(seed, seed_certificate(seed), d1, d2, cfg)
        assert [d.arrangement for d in found] == certified
    assert refuted > 0


def test_cascade_to_7_matches_reference(near_pencil5):
    # the search benchmark's cascade; the reference file is read, never written
    path = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())["cascade"]
    catalog = cascade([near_pencil5], 7, targets=None, config=ExtensionConfig(pool_bound=2))
    counts = {",".join(map(str, key)): len(ds) for key, ds in catalog.entries.items()}
    assert counts == reference["level_counts"]
    hashes = {d.certificate.arrangement_hash for ds in catalog.entries.values() for d in ds}
    assert hashes == set(reference["hashes"])


def catalog_digest(catalog):
    """sha256 of every certificate's sorted-key JSON, in sorted key order, then list order."""
    digest = hashlib.sha256()
    count = 0
    for key in sorted(catalog.entries):
        for d in catalog.entries[key]:
            digest.update(json.dumps(certificate_to_json(d.certificate), sort_keys=True).encode())
            count += 1
    return count, digest.hexdigest()


def test_cascade_certificates_are_pinned():
    # every lifted certificate, byte for byte; the same recipe to n <= 8 gives
    # 1867 certificates and 7abcfedd7b1883d3bcfe039dc925a0cb265d065f295f3a538592241930397a01
    catalog = cascade([near_pencil(5)], 7, config=ExtensionConfig(pool_bound=2))
    assert catalog_digest(catalog) == (287, "53b1c5cdc805d91ca8ffa5872923b5bcafc5597f5f9e2de496593fa60881bb2f")


def test_cascade_to_eight_lines_is_pinned():
    catalog = cascade([near_pencil(5)], 8, config=ExtensionConfig(pool_bound=2))
    assert catalog_digest(catalog) == (1867, "7abcfedd7b1883d3bcfe039dc925a0cb265d065f295f3a538592241930397a01")


def children_hashes(discoveries):
    return {d.certificate.arrangement_hash for d in discoveries}


def assert_lifted_children_check(discoveries):
    for d in discoveries:
        assert d.provenance["witness"] == "lifted"
        assert check_certificate(d.arrangement, d.certificate) == (True, None)


def test_lift_equal_exponents_free13(free13):
    # a = b = 6: both seed fields can take the factor alpha_H
    cert = seed_certificate(free13)
    assert (cert.d1, cert.d2) == (6, 6)
    cfg = ExtensionConfig(pool_bound=2)
    lines = [l for l in enumerate_extension_candidates(free13, cfg) if delta_b2(free13, l) == 7]
    found = bootstrap_extend(free13, cert, 6, 7, cfg)
    assert len(lines) == len(found) == 6
    assert [d.arrangement for d in found] == [free13.extended(l) for l in lines]
    assert_lifted_children_check(found)


# the (3, 3) seed needs the second route for some lines: alpha_H * theta_2
@pytest.mark.parametrize("a,b,d1,d2", [(2, 4, 3, 4), (2, 4, 2, 5), (3, 3, 3, 4)])
def test_lift_agrees_with_verify_free_two_pencil(monkeypatch, a, b, d1, d2):
    # the oracle is the kernel path alone, independent of the addition theorem
    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    disc = construct_certified(a, b)
    seed = disc.arrangement
    cfg = ExtensionConfig(pool_bound=2)
    need = (seed.n + d1 * d2) - intersection_summary(seed).b2
    lines = [l for l in enumerate_extension_candidates(seed, cfg) if delta_b2(seed, l) == need]
    found = bootstrap_extend(seed, disc.certificate, d1, d2, cfg)
    assert lines
    lifted = {d.arrangement for d in found}
    for line in lines:
        child = seed.extended(line)
        verified = isinstance(verify_free(child, d1, d2), Certified)
        assert verified == (child in lifted)
    assert_lifted_children_check(found)


def test_lift_past_twenty_lines(free20):
    cert = seed_certificate(free20)
    assert (cert.d1, cert.d2) == (9, 10)
    cfg = ExtensionConfig(pool_bound=2)
    found = bootstrap_extend(free20, cert, 9, 11, cfg) + bootstrap_extend(free20, cert, 10, 10, cfg)
    assert len(found) == 3
    assert all(d.arrangement.n == 21 for d in found)
    assert_lifted_children_check(found)
    first = found[0]
    outcome = verify_free(first.arrangement, first.certificate.d1, first.certificate.d2)
    assert isinstance(outcome, Certified)


def test_lift_from_fraction_certificate():
    seed = near_pencil(6)
    cert = seed_certificate(seed)
    third = Fraction(1, 3)
    scaled = dataclasses.replace(
        cert,
        theta1=tuple({e: v * third for e, v in comp.items()} for comp in cert.theta1),
        c=cert.c * third,
    )
    assert check_certificate(seed, scaled) == (True, None)
    cfg = ExtensionConfig(pool_bound=2)
    for d1, d2 in [(1, 5), (2, 4)]:
        found = bootstrap_extend(seed, scaled, d1, d2, cfg)
        assert found
        assert children_hashes(found) == children_hashes(bootstrap_extend(seed, cert, d1, d2, cfg))
        assert_lifted_children_check(found)


def test_non_adjacent_target_runs_no_lift(monkeypatch):
    seed = near_pencil(6)  # (1, 4): adjacent targets are (2, 4) and (1, 5)
    from freelines import search

    cert = seed_certificate(seed)
    calls = []
    original = search.lift_certificate
    monkeypatch.setattr(search, "lift_certificate", lambda *a: calls.append(a) or original(*a))
    assert bootstrap_extend(seed, cert, 3, 3) == []
    assert calls == []
    assert bootstrap_extend(seed, cert, 2, 4)
    assert calls


@pytest.mark.parametrize(
    "seed,cert",
    [(near_pencil(6), None), (fixtures.free_13(), None),
     (construct_certified(2, 4).arrangement, construct_certified(2, 4).certificate)],
    ids=["near_pencil6", "free13", "two_pencil_2x4"],
)
def test_lift_exists_exactly_on_the_addition_theorem_count(seed, cert):
    # the addition theorem, candidate by candidate: the division finds a
    # lift exactly when H meets the seed in a route's |A''| points, at that
    # route's exponents, and every lift passes the exact check
    cert = cert or seed_certificate(seed)
    routes = {points: exps for exps, points in _lift_routes(cert.d1, cert.d2)}
    lifted = set()
    for line in enumerate_extension_candidates(seed, ExtensionConfig(pool_bound=2)):
        extended = seed.extended(line)
        lift = lift_certificate(cert, extended, line)
        exps = routes.get(delta_b2(seed, line))
        assert (lift is not None) == (exps is not None), line
        if lift is not None:
            assert (lift.d1, lift.d2) == exps
            assert check_certificate(extended, lift) == (True, None)
            lifted.add(exps)
    assert lifted == set(routes.values())


def test_lift_packs_one_point_for_both_fields(monkeypatch, boolean):
    # on the (1, 1) triangle theta_1 does not divide for this line, so
    # theta_2 is tried too, on restrictions read at the same K = 2^bits
    cert = seed_certificate(boolean)
    line = canonicalize_line(0, 1, -2)
    unpacked, quotients = [], []
    unpack, quotient = certify._unpack, certify._exact_quotient
    monkeypatch.setattr(certify, "_unpack", lambda *a: unpacked.append(a) or unpack(*a))
    monkeypatch.setattr(certify, "_exact_quotient", lambda *a: quotients.append(quotient(*a)) or quotients[-1])
    extended = boolean.extended(line)
    lift = lift_certificate(cert, extended, line)
    assert [q is None for q in quotients] == [True, False]
    assert len(unpacked) == 2 and len({bits for _, bits, _ in unpacked}) == 1
    assert (lift.d1, lift.d2) == (1, 2) and check_certificate(extended, lift) == (True, None)


def kernel_basis_lift(seed, extended, line):
    """lift_certificate as built on derivations.line_kernel_basis, an independent reference.

    The restrictions are expanded on the points u + k*w of the line, and
    f_p = -lam * q_p / (u_s^(e-p) * w_t^p), where x_s = u_s and x_t = k*w_t.
    """
    thetas, scales = zip(*(certify._integral(t) for t in (seed.theta1, seed.theta2)))
    degs = (seed.d1, seed.d2)
    u, w = line_kernel_basis(line)
    r = []
    for theta, d in zip(thetas, degs):
        total = [0] * (d + 1)
        for comp, a in zip(theta, line.coeffs):
            for mon, v in comp.items():
                term = [a * v]
                for c, power in enumerate(mon):
                    for _ in range(power):
                        term = [u[c] * x + w[c] * y for x, y in zip(term + [0], [0] + term)]
                total = [x + y for x, y in zip(total, term + [0] * (d + 1 - len(term)))]
        r.append(total)
    for j, i in ((0, 1), (1, 0)):
        e = degs[i] - degs[j]
        q = certify._exact_quotient(r[i], r[j], e)
        if q is not None:
            break
    else:
        return None
    s = next(k for k in range(3) if u[k] and not w[k])
    t = next(k for k in range(3) if w[k] and not u[k])
    terms = [-qp / (u[s] ** (e - p) * w[t] ** p) for p, qp in enumerate(q)]
    lam = lcm(*(v.denominator for v in terms))
    f = {}
    for p, v in enumerate(terms):
        if v:
            mon = [0, 0, 0]
            mon[s], mon[t] = e - p, p
            f[tuple(mon)] = int(v * lam)
    phi = tuple(poly_mul(poly_from_line(line.coeffs), comp) for comp in thetas[j])
    psi = []
    for comp_i, comp_j in zip(thetas[i], thetas[j]):
        comp = {m: lam * v for m, v in comp_i.items()}
        for m, v in poly_mul(f, comp_j).items():
            comp[m] = comp.get(m, 0) + v
        psi.append({m: v for m, v in comp.items() if v})
    c = Fraction(seed.c) * lam * scales[0] * scales[1] * (1 if j == 0 else -1)
    if e >= 1:
        return certify.FreenessCertificate(degs[j] + 1, degs[i], phi, tuple(psi), c, arrangement_hash(extended))
    return certify.FreenessCertificate(degs[i], degs[j] + 1, tuple(psi), phi, -c, arrangement_hash(extended))


def test_lift_on_the_chart_matches_the_kernel_basis_lift_on_every_support_pattern():
    # the chart's lift writes f in the same two coordinates as the reference
    # built on line_kernel_basis, so the certificates agree exactly; the
    # pencil through [1:0:0] with x + y = 0 lifts across x = 0
    pencil = build_arrangement([canonicalize_line(*row) for row in ((0, 1, 0), (0, 0, 1), (0, 1, -1),
                                                                    (0, 1, 1), (1, 1, 0))])
    two_pencil = construct_certified(2, 4)
    seeds = [(near_pencil(6), None), (fixtures.free_13(), None), (pencil, None),
             (two_pencil.arrangement, two_pencil.certificate)]
    lifted = set()
    for seed, cert in seeds:
        cert = cert or seed_certificate(seed)
        for line in enumerate_extension_candidates(seed, ExtensionConfig(pool_bound=2)):
            extended = seed.extended(line)
            lift = lift_certificate(cert, extended, line)
            assert lift == kernel_basis_lift(cert, extended, line), line
            if lift is not None:
                lifted.add(tuple(bool(v) for v in line.coeffs))
    assert len(lifted) == 7


def test_cascade_runs_no_kernel(monkeypatch, near_pencil5):
    # the seed is certified by its deletion chain and every child by a lift,
    # so no exact kernel is computed; cold caches keep the count honest
    from freelines import derivations

    derivations.derivation_matrix.cache_clear()
    derivations.null_space_exact.cache_clear()
    log = counted(monkeypatch, {"kernel_basis": exactlinalg.kernel_basis})
    catalog = cascade([near_pencil5], 7, config=ExtensionConfig(pool_bound=2))
    assert catalog.size == 287
    assert log == []


def test_seed_certificate_must_match(near_pencil5, boolean):
    with pytest.raises(ValueError):
        bootstrap_extend(near_pencil5, seed_certificate(near_pencil(6)), 1, 4)
    cert = seed_certificate(near_pencil5)
    wrong_sum = dataclasses.replace(cert, d2=4)
    with pytest.raises(ValueError):
        bootstrap_extend(near_pencil5, wrong_sum, 1, 4)
    # exponents out of order, or a zero one, fail check_certificate and so
    # cannot seed an extension toward either adjacent target
    swapped = dataclasses.replace(cert, d1=cert.d2, d2=cert.d1, theta1=cert.theta2, theta2=cert.theta1)
    zero = dataclasses.replace(cert, d1=0, d2=4)
    for bad in (swapped, zero):
        assert check_certificate(near_pencil5, bad) == (False, "exponent-order")
        for target in ((3, 2), (2, 3), (1, 4)):
            with pytest.raises(ValueError):
                bootstrap_extend(near_pencil5, bad, *target)
    # a wrong scalar, or the two fields swapped while d1 < d2 stays, fails
    # the same check_certificate as a certificate file, naming the check
    wrong_c = dataclasses.replace(cert, c=cert.c + 1)
    swapped_fields = dataclasses.replace(cert, theta1=cert.theta2, theta2=cert.theta1)
    for bad, failing in ((wrong_c, "determinant-mismatch"), (swapped_fields, "theta1-kernel")):
        for target in ((2, 3), (1, 4)):
            with pytest.raises(ValueError, match=f"seed certificate fails its check: {failing}"):
                bootstrap_extend(near_pencil5, bad, *target)


def patch_everywhere(monkeypatch, name, original, replacement):
    """Replace original at every freelines binding of name."""
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("freelines") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


def counted(monkeypatch, names):
    """Wrap each named function at every freelines binding; returns the call log."""
    log = []
    for name, original in names.items():
        def wrapper(*args, _name=name, _original=original, **kwargs):
            log.append((_name, args))
            return _original(*args, **kwargs)

        patch_everywhere(monkeypatch, name, original, wrapper)
    return log


def test_extension_runs_no_verification_of_children(monkeypatch, near_pencil5):
    from freelines import certify, derivations, saito

    seed_cert = seed_certificate(near_pencil5)
    log = counted(monkeypatch, {
        "verify_free": certify.verify_free,
        "null_space_exact": derivations.null_space_exact,
        "saito_functional": saito.saito_functional,
    })
    found = bootstrap_extend(near_pencil5, seed_cert, 1, 4)
    assert found and log == []
    catalog = cascade([near_pencil5], 7, config=ExtensionConfig(pool_bound=2))
    assert catalog.size > 1
    # the one seed is certified by verify_arrangement; nothing after it
    assert [name for name, _ in log if name == "verify_free"] == ["verify_free"]
    assert "saito_functional" not in {name for name, _ in log}
    for name, args in log:
        arr = args[0] if name == "verify_free" else args[0].arrangement
        assert arr == near_pencil5
    for ds in catalog.entries.values():
        for d in ds:
            assert check_certificate(d.arrangement, d.certificate) == (True, None)


def test_cascade_lifts_each_child_once(monkeypatch, near_pencil5):
    # the catalog keeps the first discovery of each hash, so a child reached
    # again from another seed is skipped before its lift
    from freelines import search

    lifts = []
    original = search.lift_certificate
    monkeypatch.setattr(search, "lift_certificate", lambda *a: lifts.append(a) or original(*a))
    catalog = cascade([near_pencil5], 7, config=ExtensionConfig(pool_bound=2))
    assert catalog.size == 287
    assert len(lifts) == catalog.size - 1
