"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
every tolerance is pinned here and nothing is deferred to calibration.
"""

import time
from itertools import combinations

import numpy as np
import pytest

from freelines import fixtures
from freelines.arrangement import (
    build_arrangement,
    candidate_exponents,
    intersection_summary,
    read_arrangement,
    write_arrangement,
)
from freelines.certify import (
    Certified,
    NotFreeAtExponents,
    check_certificate,
    exact_determinant,
    read_certificate,
    vector_to_derivation,
    verify_free,
)
from freelines.cli import main
from freelines.derivations import (
    assemble_saito_tensor,
    contract,
    derivation_matrix,
    euler_multiples,
    null_space_exact,
    null_space_float,
)
from freelines.monomials import basis_size
from freelines.saito import ALSConfig, als_minimize, saito_functional
from freelines.search import (
    ExtensionConfig,
    beam_search_build,
    candidate_pool,
    cascade,
    delta_b2,
)

LOSS_TOL = 1e-6
PREFILTER = 0.05


def _fixture_table():
    return [
        ("n13", fixtures.free_13(), {2: 14, 3: 6, 4: 6, 5: 1}, (6, 6)),
        ("n19", fixtures.free_19(), {2: 24, 3: 12, 4: 6, 5: 6, 6: 1}, (7, 11)),
        ("n20", fixtures.free_20(), {2: 38, 3: 14, 4: 5, 5: 2, 6: 4}, (9, 10)),
    ]


def test_criterion_1_fixture_certification(tmp_path):
    """Published fixtures parse, reproduce their profiles, and certify."""
    t0 = time.time()
    for name, arr, profile, exps in _fixture_table():
        path = tmp_path / f"{name}.json"
        write_arrangement(path, arr)
        parsed = read_arrangement(path)
        assert parsed == arr
        s = intersection_summary(parsed)
        assert s.t == profile
        assert s.pair_count_check
        got = candidate_exponents(parsed)
        assert (got.d1, got.d2) == exps
        outcome = verify_free(parsed, *exps)
        assert isinstance(outcome, Certified)
        ok, failing = check_certificate(parsed, outcome.certificate)
        assert ok, failing
    elapsed = time.time() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 1 PASS: three fixtures parsed, profiles exact, "
          f"certified and rechecked in {elapsed:.1f}s")


def test_criterion_2_loss_on_free_fixtures():
    """Loss at most 1e-6 on the three fixtures and the coordinate triangle."""
    cases = [("boolean", fixtures.boolean_arrangement(), (1, 1))] + [
        (name, arr, exps) for name, arr, _, exps in _fixture_table()
    ]
    worst = 0.0
    for name, arr, (d1, d2) in cases:
        loss = saito_functional(arr, d1, d2).loss
        worst = max(worst, loss)
        assert loss <= LOSS_TOL, f"{name}: loss {loss}"
    print(f"\nACCEPTANCE 2 PASS: loss <= {LOSS_TOL} on all free fixtures "
          f"(worst {worst:.2e})")


def test_criterion_3_timing_envelope():
    """Single evaluations inside 10x of the reference timing bands."""
    from freelines.search import supersolvable_two_pencil

    six = fixtures.near_pencil(6)
    fifteen = supersolvable_two_pencil(7, 7)
    twenty = fixtures.free_20()
    # warm every cache (monomial tables, kernels, BLAS)
    saito_functional(six, 1, 4)
    saito_functional(fifteen, 7, 7)
    saito_functional(twenty, 9, 10)

    def best_ms(arr, d1, d2, reps=3):
        return min(saito_functional(arr, d1, d2).elapsed_ms for _ in range(reps))

    t6 = best_ms(six, 1, 4)
    t15 = best_ms(fifteen, 7, 7)
    t20 = best_ms(twenty, 9, 10)
    assert t6 <= 40.0, f"6-line evaluation took {t6:.1f}ms"
    assert t15 <= 1000.0, f"15-line evaluation took {t15:.1f}ms"
    assert t20 <= 7000.0, f"20-line evaluation took {t20:.1f}ms"
    print(f"\nACCEPTANCE 3 PASS: timings {t6:.1f}ms (<=40), {t15:.1f}ms (<=1000), "
          f"{t20:.0f}ms (<=7000)")


def test_criterion_4_two_pencil_coverage(tmp_path, capsys):
    """Every admissible exponent cell up to n = 20 gets a certified arrangement."""
    out = tmp_path / "cells"
    t0 = time.time()
    cells = 0
    for n in range(3, 21):
        for d1 in range(1, (n - 1) // 2 + 1):
            d2 = n - 1 - d1
            rc = main(["construct", str(d1), str(d2), "--out", str(out)])
            assert rc == 0, f"construct failed at ({d1}, {d2})"
            base = out / f"two_pencil_{d1}x{d2}"
            arr = read_arrangement(f"{base}.json")
            cert = read_certificate(f"{base}.cert.json")
            assert arr.n == n
            ok, failing = check_certificate(arr, cert)
            assert ok, f"({d1},{d2}): {failing}"
            assert intersection_summary(arr).b2 == (n - 1) + d1 * d2
            cells += 1
    elapsed = time.time() - t0
    capsys.readouterr()  # drop the accumulated CLI JSON
    # the admissible set {3<=n<=20, d1+d2=n-1, 1<=d1<=d2} has sum floor((n-1)/2)
    # = 90 cells; every one must be covered
    assert cells == sum((n - 1) // 2 for n in range(3, 21)) == 90
    assert elapsed < 1800.0
    with capsys.disabled():
        print(f"\nACCEPTANCE 4 PASS: 90/90 admissible cells certified and "
              f"rechecked in {elapsed:.1f}s")


def test_criterion_5_cascade_smoke():
    """Near-pencil seed cascades to n = 9 with a certified discovery per level."""
    seed = fixtures.near_pencil(5)
    targets = [(1, 4), (1, 5), (1, 6), (1, 7)]
    catalog = cascade([seed], 9, targets=targets, config=ExtensionConfig(pool_bound=2))
    per_level = {}
    for n in range(6, 10):
        discs = catalog.entries.get((n, 1, n - 2), [])
        assert discs, f"no discovery at level {n}"
        for d in discs:
            ok, failing = check_certificate(d.arrangement, d.certificate)
            assert ok, failing
        per_level[n] = len(discs)
    print(f"\nACCEPTANCE 5 PASS: cascade reached n=9, discoveries per level "
          f"{per_level}")


def test_criterion_6_property_suite():
    """Bulk randomized properties at their stated tolerances."""
    rng = np.random.default_rng(20260809)
    pool = candidate_pool(2).lines

    # (a) double counting on 500 random pool arrangements
    from math import comb as binom

    for _ in range(500):
        size = int(rng.integers(2, 8))
        idx = rng.choice(len(pool), size=size, replace=False)
        arr = build_arrangement([pool[i] for i in sorted(idx)])
        s = intersection_summary(arr)
        assert sum(binom(m, 2) * c for m, c in s.t.items()) == binom(arr.n, 2)
        assert s.pair_count_check

    # (b) ALS half-step monotonicity on 100 random tensors
    from freelines.derivations import SaitoTensor

    for _ in range(100):
        n_out = int(rng.integers(5, 12))
        k1, k2 = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        q = rng.standard_normal(n_out)
        q /= np.linalg.norm(q)
        t = SaitoTensor(
            n=1, d1=0, d2=0,
            v1=np.eye(k1), v2=np.eye(k2),
            q=q, q_exact=tuple(q),
            tensor=rng.standard_normal((n_out, k1, k2)),
        )
        res = als_minimize(t, ALSConfig(iterations=5, restarts=2, rng_seed=int(rng.integers(2**31))))
        assert np.all(np.diff(np.array(res.history)) >= -1e-12)

    # (c) bilinearity and Euler annihilation of the contraction
    boolean = fixtures.boolean_arrangement()
    np5 = fixtures.near_pencil(5)
    for arr, d1, d2 in [(boolean, 1, 1), (np5, 1, 3)]:
        t = assemble_saito_tensor(
            arr, null_space_float(derivation_matrix(arr, d1)), null_space_float(derivation_matrix(arr, d2))
        )
        for _ in range(10):
            a1 = rng.standard_normal(t.k1)
            b1 = rng.standard_normal(t.k1)
            a2 = rng.standard_normal(t.k2)
            s = float(rng.standard_normal())
            lhs = contract(t, s * a1 + b1, a2)
            rhs = s * contract(t, a1, a2) + contract(t, b1, a2)
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))
            assert np.linalg.norm(contract(t, a1, np.zeros(t.k2))) == 0.0
        for d, side_k, basis in ((d1, t.k1, t.v1), (d2, t.k2, t.v2)):
            for vec in euler_multiples(d)[:3]:
                coords = basis.T @ np.array([float(v) for v in vec])
                other = rng.standard_normal(t.k2 if side_k == t.k1 else t.k1)
                if side_k == t.k1:
                    assert np.linalg.norm(contract(t, coords, other)) <= 1e-9
                else:
                    assert np.linalg.norm(contract(t, other, coords)) <= 1e-9

    # (d) float/exact nullity agreement on all fixtures at their exponents
    agreement_cases = [
        (boolean, 1), (boolean, 1), (np5, 1), (np5, 3),
        (fixtures.free_13(), 6),
        (fixtures.free_19(), 7), (fixtures.free_19(), 11),
        (fixtures.free_20(), 9), (fixtures.free_20(), 10),
    ]
    for arr, d in agreement_cases:
        nb = null_space_float(derivation_matrix(arr, d))
        assert nb.nullity == null_space_exact(derivation_matrix(arr, d)).nullity

    # (e) incremental delta-b2 equals recomputation on 100 random cases
    checked = 0
    while checked < 100:
        size = int(rng.integers(2, 7))
        idx = rng.choice(len(pool), size=size + 1, replace=False)
        arr = build_arrangement([pool[i] for i in sorted(idx[:-1])])
        line = pool[idx[-1]]
        if line in arr.lines:
            continue
        inc = delta_b2(arr, line)
        full = intersection_summary(arr.extended(line)).b2 - intersection_summary(arr).b2
        assert inc == full
        checked += 1

    # (f) determinism of beam and cascade under a fixed seed
    beam_kw = dict(pool=candidate_pool(1), beam_width=3, seed=2024)
    b1 = beam_search_build(3, 1, 1, **beam_kw)
    b2_ = beam_search_build(3, 1, 1, **beam_kw)
    assert [e.arrangement for e in b1] == [e.arrangement for e in b2_]
    assert [e.cumulative_reward for e in b1] == [e.cumulative_reward for e in b2_]
    cas_kw = dict(targets=[(1, 4)], config=ExtensionConfig(pool_bound=2))
    c1 = cascade([np5], 6, **cas_kw)
    c2 = cascade([np5], 6, **cas_kw)
    key = lambda c: {k: [d.certificate.arrangement_hash for d in v] for k, v in c.entries.items()}
    assert key(c1) == key(c2)

    print("\nACCEPTANCE 6 PASS: double counting x500, ALS monotonicity x100, "
          "bilinearity/Euler annihilation, nullity agreement on all fixtures, "
          "delta-b2 x100, beam+cascade determinism")


def test_criterion_7_refutation_path():
    """A b2-preserving mutant is refuted exactly and sits above the prefilter."""
    # the 7-line two-pencil mutated into two disjoint pencils: same n, same
    # b2 = 15, same candidate exponents (3, 3), but no shared line
    mutant = fixtures.disjoint_pencils(5, 2)
    assert intersection_summary(mutant).b2 == 15
    exps = candidate_exponents(mutant)
    assert (exps.d1, exps.d2) == (3, 3)

    outcome = verify_free(mutant, 3, 3)
    assert isinstance(outcome, NotFreeAtExponents)

    loss = saito_functional(mutant, 3, 3).loss
    assert loss > PREFILTER

    # completeness: no rational pair among 10^4 random exact kernel
    # combinations produces a nonzero determinant
    rng = np.random.default_rng(7)
    basis = null_space_exact(derivation_matrix(mutant, 3))
    comp = basis.complement
    nd = 3 * basis_size(3)
    for _ in range(10_000):
        c1 = [int(c) for c in rng.integers(-9, 10, size=len(comp))]
        c2 = [int(c) for c in rng.integers(-9, 10, size=len(comp))]
        v1 = [sum(c * vec[k] for c, vec in zip(c1, comp)) for k in range(nd)]
        v2 = [sum(c * vec[k] for c, vec in zip(c2, comp)) for k in range(nd)]
        det = exact_determinant(
            mutant, vector_to_derivation(v1, 3), vector_to_derivation(v2, 3)
        )
        assert det == {}
    print(f"\nACCEPTANCE 7 PASS: mutant refuted at (3,3) by the exact scan, "
          f"loss {loss:.3f} > {PREFILTER}, and 10^4 random exact pairs all vanish")
