import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import freelines
from freelines.arrangement import (
    CandidateExponents,
    DuplicateLine,
    Line,
    ZeroForm,
    arrangement_from_json,
    arrangement_hash,
    arrangement_to_json,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    characteristic_polynomial,
    discriminant,
    intersection_point,
    intersection_summary,
    no_exponent_reason,
    read_arrangement,
    tjurina,
    write_arrangement,
)


def test_canonicalize_rational_scaling():
    assert canonicalize_line(Fraction(2, 3), Fraction(-4, 3), 2) == Line(1, -2, 3)


def test_canonicalize_single_coordinate():
    assert canonicalize_line(0, 0, 5) == Line(0, 0, 1)


def test_canonicalize_sign_rule():
    assert canonicalize_line(-1, 5, -3) == Line(1, -5, 3)


def test_canonicalize_accepts_strings():
    assert canonicalize_line("2/3", "-4/3", "2") == Line(1, -2, 3)


def test_zero_form_rejected():
    with pytest.raises(ZeroForm):
        canonicalize_line(0, 0, 0)


def test_line_must_be_canonical():
    with pytest.raises(ValueError):
        Line(2, 4, 6)


rationals = st.fractions(
    min_value=-30, max_value=30, max_denominator=12
)


@given(rationals, rationals, rationals)
def test_canonicalize_idempotent(a, b, c):
    if a == 0 and b == 0 and c == 0:
        return
    line = canonicalize_line(a, b, c)
    again = canonicalize_line(line.a, line.b, line.c)
    assert line == again


@given(rationals, rationals, rationals, st.fractions(max_denominator=7, min_value=-9, max_value=9))
def test_canonicalize_collapses_proportional(a, b, c, s):
    if (a == 0 and b == 0 and c == 0) or s == 0:
        return
    assert canonicalize_line(a, b, c) == canonicalize_line(s * a, s * b, s * c)


def test_build_preserves_order_and_counts(boolean):
    assert boolean.n == 3
    assert boolean.lines[0] == Line(1, 0, 0)


def test_build_rejects_proportional_duplicates():
    with pytest.raises(DuplicateLine) as exc:
        build_arrangement([canonicalize_line(1, 0, 0), canonicalize_line(2, 0, 0)])
    assert (exc.value.i, exc.value.j) == (0, 1)


def test_build_thirteen_line_fixture(free13):
    assert free13.n == 13


def test_boolean_summary(boolean):
    s = intersection_summary(boolean)
    assert s.t == {2: 3}
    assert s.b2 == 3
    assert s.pair_count_check


def test_fixture_profiles(free13, free19, free20):
    assert intersection_summary(free13).t == {2: 14, 3: 6, 4: 6, 5: 1}
    assert intersection_summary(free13).b2 == 48
    assert intersection_summary(free19).t == {2: 24, 3: 12, 4: 6, 5: 6, 6: 1}
    assert intersection_summary(free20).t == {2: 38, 3: 14, 4: 5, 5: 2, 6: 4}
    assert intersection_summary(free20).b2 == 109


def test_intersection_points_are_slotted(free13):
    # the summary cache holds thousands of points; slots keep each one small
    point = intersection_summary(free13).points[0]
    assert not hasattr(point, "__dict__")
    assert point.multiplicity == len(point.incident_lines)


def test_candidate_exponents_fixtures(free13, free19):
    e13 = candidate_exponents(free13)
    assert (e13.d1, e13.d2, e13.discriminant) == (6, 6, 0)
    e19 = candidate_exponents(free19)
    assert (e19.d1, e19.d2, e19.discriminant) == (7, 11, 16)


def test_candidate_exponents_generic_four(generic4):
    assert intersection_summary(generic4).b2 == 6
    assert discriminant(generic4) == -3
    assert candidate_exponents(generic4) is None
    assert no_exponent_reason(generic4) == "delta-negative"


def test_candidate_exponents_pencil():
    pencil = build_arrangement(
        [canonicalize_line(1, -k, 0) for k in range(4)] + [canonicalize_line(0, 1, 0)]
    )
    assert intersection_summary(pencil).b2 == pencil.n - 1
    assert candidate_exponents(pencil) is None
    assert no_exponent_reason(pencil) == "nonpositive-root"


def test_characteristic_polynomial_boolean(boolean):
    chi = characteristic_polynomial(boolean)
    assert chi.cubic == (1, -3, 3, -1)
    assert chi.eval_cubic(1) == 0


def test_characteristic_polynomial_fixture_values(free13, free20):
    assert characteristic_polynomial(free13).cubic == (1, -13, 48, -36)
    # reduced quadratic factors as (t-9)(t-10)
    assert characteristic_polynomial(free20).quadratic == (1, -19, 90)


def test_tjurina_values(boolean, free13, free20):
    assert tjurina(boolean) == 3
    # oracle: sum (m-1)^2 t_m over the published profiles
    assert tjurina(free13) == 1 * 14 + 4 * 6 + 9 * 6 + 16 * 1 == 108
    oracle20 = sum((m - 1) ** 2 * c for m, c in intersection_summary(free20).t.items())
    assert tjurina(free20) == oracle20 == 20 * 19 - 109 == 271


@st.composite
def pool_arrangements(draw, max_size=7):
    from freelines.search import candidate_pool

    pool = candidate_pool(2).lines
    idx = draw(st.lists(st.integers(0, len(pool) - 1), min_size=2, max_size=max_size, unique=True))
    return build_arrangement([pool[i] for i in idx])


@given(pool_arrangements())
@settings(max_examples=60, deadline=None)
def test_lattice_invariants_random(arr):
    s = intersection_summary(arr)
    n = arr.n
    assert sum(comb(m, 2) * c for m, c in s.t.items()) == comb(n, 2)
    assert s.pair_count_check
    assert s.b2 == sum((m - 1) * c for m, c in s.t.items())
    chi = characteristic_polynomial(arr)
    assert chi.eval_cubic(1) == 0
    # cubic = (t-1) * quadratic
    q2, q1, q0 = chi.quadratic
    assert chi.cubic == (q2, q1 - q2, q0 - q1, -q0)
    assert n * (n - 1) - s.b2 == sum((p.multiplicity - 1) ** 2 for p in s.points)
    exps = candidate_exponents(arr)
    if exps is not None:
        assert exps.d1 + exps.d2 == n - 1
        assert exps.d1 * exps.d2 == s.b2 - n + 1
    # per-line incidences: the points a line vanishes at, and one point per
    # distinct meet with the other lines
    on = s.line_points()
    for k, line in enumerate(arr.lines):
        assert on[k] == [p.mask for p in s.points if line.evaluate(p.coords) == 0]
        assert len(on[k]) == len({intersection_point(line, other) for other in arr.lines if other != line})
    assert sum(map(len, on)) == sum(p.multiplicity for p in s.points)
    # the stored answers against the closed form: integer roots 1 <= d1 <= d2
    # of t^2 - (n-1)t + (b2 - n + 1), found by trying every d1
    delta = (n - 1) ** 2 - 4 * (s.b2 - n + 1)
    assert s.discriminant == discriminant(arr) == delta
    roots = [(d1, n - 1 - d1) for d1 in range(1, n) if d1 <= n - 1 - d1 and d1 * (n - 1 - d1) == s.b2 - n + 1]
    assert s.exponents == exps == (CandidateExponents(*roots[0], delta) if roots else None)
    if roots:
        assert s.no_exponent_reason is None
    elif delta < 0:
        assert s.no_exponent_reason == "delta-negative"
    elif isqrt(delta) ** 2 != delta:
        assert s.no_exponent_reason == "delta-not-square"
    else:
        assert s.no_exponent_reason == "nonpositive-root"
    assert no_exponent_reason(arr) == s.no_exponent_reason


@given(pool_arrangements(max_size=12))
@settings(max_examples=60, deadline=None)
def test_points_match_a_set_grouping_of_the_pairwise_meets(arr):
    # the oracle groups every pairwise meet into a set of line indices
    groups: dict[tuple[int, int, int], set[int]] = {}
    for i in range(arr.n):
        for j in range(i + 1, arr.n):
            groups.setdefault(intersection_point(arr.lines[i], arr.lines[j]), set()).update((i, j))
    points = intersection_summary(arr).points
    assert [p.coords for p in points] == sorted(groups)
    for p in points:
        assert p.incident_lines == tuple(sorted(groups[p.coords]))
        assert p.multiplicity == len(groups[p.coords])


def test_json_round_trip(tmp_path, free13):
    path = tmp_path / "arr.json"
    write_arrangement(path, free13)
    back = read_arrangement(path)
    assert back == free13
    assert arrangement_hash(back) == arrangement_hash(free13)


def test_json_reader_canonicalizes(tmp_path):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({"lines": [["2/3", "-4/3", "2"], ["0", "0", "5"]]}))
    arr = read_arrangement(path)
    assert arr.lines == (Line(1, -2, 3), Line(0, 0, 1))
    # writer emits canonical integer strings
    assert arrangement_to_json(arr)["lines"][0] == ["1", "-2", "3"]


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        arrangement_from_json({"lines": [["1", "2"]]})
    with pytest.raises(ValueError):
        arrangement_from_json({"nope": []})


def test_json_rejects_boolean_coefficients():
    # Fraction(True) == 1, so a boolean would otherwise pass as a coefficient
    for bad in (True, False):
        with pytest.raises(ValueError):
            arrangement_from_json({"lines": [[bad, 0, 0], [0, 1, 0], [0, 0, 1]]})


@pytest.mark.parametrize(
    "data,error",
    [
        ({"lines": [[None, 0, 1], [0, 1, 0], [1, 0, 0]]}, "lines[0]: coefficient: None is not a rational number"),
        ({"lines": [[1, 0, 0], [0, 0, 0], [0, 1, 0]]}, "lines[1]: the zero form does not define a line"),
        ({"lines": [[1, 0, 0], [0, 1, 0], [1, 2]]}, "lines[2]: expected a list of three coefficients, got a list of 2"),
        ({"lines": [[1, 0, 0], "0,1,0"]}, "lines[1]: expected a list of three coefficients, got str"),
        ({"lines": [[1, 0, 0], [True, 1, 0]]}, "lines[1]: coefficient: True is a boolean, not a number"),
        ({"lines": []}, "lines: expected a nonempty list"),
        ({"lines": {"0": [1, 0, 0]}}, "lines: expected a nonempty list"),
        ([], "arrangement: expected a JSON object, got list"),
        ({"line": []}, "arrangement: missing key 'lines'"),
    ],
    ids=["null", "zero-form", "pair", "text", "boolean", "empty", "lines-object", "list", "no-lines"],
)
def test_json_reader_names_the_refused_entry(tmp_path, data, error):
    # a refusal names the file and the entry, whatever refuses it
    path = tmp_path / "arr.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValueError) as info:
        read_arrangement(path)
    assert str(info.value).startswith(f"{path}: {error}")


def test_json_reader_refuses_a_canonical_form_past_the_digit_bound(tmp_path):
    # each coefficient reads, but clearing the denominators of 1/A and 1/B
    # gives [B : A : AB], whose last entry has 5001 digits: more than the
    # writer and arrangement_hash can take, so the reader refuses the line
    a, b = 10**2500 + 1, 10**2500 + 3
    path = tmp_path / "arr.json"
    path.write_text(json.dumps({"lines": [[1, 0, 0], [f"1/{a}", f"1/{b}", "1"], [0, 1, 0]]}))
    with pytest.raises(ValueError) as info:
        read_arrangement(path)
    assert str(info.value) == f"{path}: lines[1]: the canonical form has a coefficient of more than 4000 digits"
    # 4000 digits, the longest the bound takes, read, hash and write back
    a, b = 3 * 10**1999 + 1, 4 * 10**1999 + 1
    path.write_text(json.dumps({"lines": [[1, 0, 0], [f"1/{a}", f"1/{b}", "1"], [0, 1, 0]]}))
    arr = read_arrangement(path)
    assert arr.lines[1] == Line(b, a, a * b) and len(str(a * b)) == 4000
    write_arrangement(path, arr)
    assert arrangement_hash(read_arrangement(path)) == arrangement_hash(arr)


@pytest.mark.parametrize("digits", [4001, 4101, 4301, 5000])
def test_json_writer_refuses_a_coefficient_past_the_digit_bound(tmp_path, digits):
    # the writer writes only what the reader takes: past 4000 digits it
    # raises naming the line and leaves no file, past 4300 too, where str()
    # itself would fail; 4000 digits write and read back
    arr = build_arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 10 ** (digits - 1))])
    path = tmp_path / "arr.json"
    with pytest.raises(ValueError) as info:
        write_arrangement(path, arr)
    assert str(info.value) == "lines[2]: a coefficient has more than 4000 digits"
    assert not path.exists()
    top = build_arrangement([Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 10**3999)])
    write_arrangement(path, top)
    assert read_arrangement(path) == top


def test_hash_is_order_independent(boolean):
    reordered = build_arrangement(list(reversed(boolean.lines)))
    assert arrangement_hash(reordered) == arrangement_hash(boolean)


def test_candidate_exponents_validation_raises():
    with pytest.raises(ValueError):
        CandidateExponents(3, 2, 1)
    with pytest.raises(ValueError):
        CandidateExponents(1, 3, 1)


def test_candidate_exponents_validation_survives_optimize():
    # python -O strips assert statements; the checks must still raise
    code = (
        "assert False, 'asserts are on'\n"
        "from freelines.arrangement import CandidateExponents\n"
        "try:\n"
        "    CandidateExponents(3, 2, 1)\n"
        "except ValueError:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(freelines.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "raised"
