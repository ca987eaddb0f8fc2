import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelines import arrangement, certify, derivations, exactlinalg, fixtures
from freelines.arrangement import (
    Arrangement,
    DuplicateLine,
    Line,
    arrangement_from_json,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    intersection_summary,
)
from freelines.certify import (
    Certified,
    NoCandidateExponents,
    NotFreeAtExponents,
    certificate_from_json,
    certificate_to_json,
    check_certificate,
    exact_determinant,
    is_tangent_field,
    read_certificate,
    vector_to_derivation,
    verify_arrangement,
    verify_free,
    write_certificate,
)
from freelines.derivations import DegreeMismatch, derivation_matrix, null_space_exact
from freelines.monomials import monomial_basis, poly_from_line, poly_mul, poly_to_vector, product_of_lines
from freelines.saito import saito_functional
from freelines.search import (
    ExtensionConfig,
    candidate_pool,
    cascade,
    construct_certified,
    supersolvable_two_pencil,
    two_pencil_witness,
)


def test_exact_determinant_boolean(boolean):
    x_dx = ({(1, 0, 0): 1}, {}, {})
    y_dy = ({}, {(0, 1, 0): 1}, {})
    det = exact_determinant(boolean, x_dx, y_dy)
    assert det == {(1, 1, 1): 1}


def test_exact_determinant_euler_multiple_vanishes(boolean):
    euler = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    x_dx = ({(1, 0, 0): 1}, {}, {})
    assert exact_determinant(boolean, euler, x_dx) == {}


def test_exact_determinant_degree_mismatch(boolean):
    theta_deg2 = ({(2, 0, 0): 1}, {}, {})
    x_dx = ({(1, 0, 0): 1}, {}, {})
    with pytest.raises(DegreeMismatch):
        exact_determinant(boolean, theta_deg2, x_dx)


def test_boolean_certificate(boolean):
    out = verify_free(boolean, 1, 1)
    assert isinstance(out, Certified)
    cert = out.certificate
    assert cert.c != 0
    # determinant is c * xyz
    assert exact_determinant(boolean, cert.theta1, cert.theta2) == {(1, 1, 1): cert.c}
    ok, failing = check_certificate(boolean, cert)
    assert ok and failing is None


def test_near_pencil_certificate(near_pencil5):
    out = verify_free(near_pencil5, 1, 3)
    assert isinstance(out, Certified)
    assert check_certificate(near_pencil5, out.certificate) == (True, None)


def test_near_pencil_hand_witness(near_pencil5):
    # theta1 = x d/dx + y d/dy, theta2 = x y^2 d/dx + x^2 y d/dy:
    # det against the Euler field is z(x g - y f) = x y (x^2 - y^2) z = Q
    theta1 = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {})
    theta2 = ({(1, 2, 0): 1}, {(2, 1, 0): 1}, {})
    assert is_tangent_field(near_pencil5, theta1, 1)
    assert is_tangent_field(near_pencil5, theta2, 3)
    det = exact_determinant(near_pencil5, theta1, theta2)
    assert det == product_of_lines(near_pencil5.lines)
    out = verify_free(near_pencil5, 1, 3, witness=(theta1, theta2))
    assert isinstance(out, Certified)
    assert out.certificate.c == 1


def test_is_tangent_field_rejects_non_tangent(boolean):
    y_dx = ({(0, 1, 0): 1}, {}, {})
    assert not is_tangent_field(boolean, y_dx, 1)


def points_off_the_line(s):
    """z = 0, s lines L_t = y - (t - 1) x + t z meeting it at (1, t - 1, 0), and lines through [0:0:1].

    The lines through [0:0:1] include one through every meet of two lines
    off it, and s + 2 of them at least, so the arrangement is supersolvable
    with that modular point and free with smaller exponent s + 1.
    """
    off = [canonicalize_line(0, 0, 1)] + [canonicalize_line(-(t - 1), 1, t) for t in range(1, s + 1)]
    through = set()
    for i, l1 in enumerate(off):
        for l2 in off[i + 1:]:
            p = certify._cross(l1.coeffs, l2.coeffs)
            through.add(canonicalize_line(p[1], -p[0], 0))
    k = 1
    while len(through) < s + 2:
        through.add(canonicalize_line(1, -k, 0))
        k += 1
    return off, sorted(through, key=lambda line: line.coeffs)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_tangency_rejects_a_field_vanishing_at_d_points_of_one_line(d):
    # delta = (0, 0, L_1 ... L_s (y - s x)) is tangent to every line except
    # z = 0, where it restricts to r(k) = k (k - 1) ... (k - d + 1) at the
    # points (1, k, 0): zero at d of the d + 1 points k = 0..d
    off, through = points_off_the_line(d - 1)
    arr = build_arrangement(off + through)
    exps = candidate_exponents(arr)
    assert exps.d1 == d
    cert = verify_free(arr, exps.d1, exps.d2).certificate
    h = poly_from_line((-(d - 1), 1, 0))
    for line in off[1:]:
        h = poly_mul(h, poly_from_line(line.coeffs))
    delta = ({}, {}, h)
    restriction = [sum(v * k**b for (a, b, c), v in h.items() if c == 0) for k in range(d + 1)]
    assert restriction[:d] == [0] * d and restriction[d] != 0
    assert is_tangent_field(build_arrangement(off[1:] + through), delta, d)
    assert not is_tangent_field(arr, delta, d)
    theta1 = tuple({e: comp.get(e, 0) + extra.get(e, 0) for e in comp.keys() | extra.keys()}
                   for comp, extra in zip(cert.theta1, delta))
    assert not is_tangent_field(arr, theta1, d)
    bad = dataclasses.replace(cert, theta1=theta1)
    assert check_certificate(arr, bad) == (False, "theta1-kernel")


def test_unpack_reads_signed_digits_and_refuses_a_remainder():
    coeffs = [3, -8, 0, 7]  # digits of 4 bits lie in [-8, 8)
    value = sum(c << (4 * k) for k, c in enumerate(coeffs))
    assert certify._unpack(value, 4, 4) == coeffs
    with pytest.raises(certify.InternalInconsistency):
        certify._unpack(value, 4, 3)


def convolve(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for k, b in enumerate(q):
            out[i + k] += a * b
    return out


nonzero = st.integers(-99, 99).filter(bool)


@given(
    q=st.lists(st.fractions(max_denominator=50).filter(lambda v: abs(v) < 100), max_size=5).filter(
        lambda q: not q or q[-1]
    ),
    den=st.tuples(st.lists(st.integers(-99, 99), max_size=4), nonzero).map(lambda t: t[0] + [t[1]]),
    slack=st.integers(0, 2),
    pad=st.integers(0, 2),
    bump=st.tuples(st.integers(0, 3), nonzero),
)
@settings(max_examples=200, deadline=None)
def test_exact_quotient_divides_exactly(q, den, slack, pad, bump):
    num = convolve(q, den) if q else []
    e = len(q) - 1 + slack
    # lists read off _unpack end in zeros when the top coefficients vanish
    assert certify._exact_quotient(num + [0] * pad, den + [0] * pad, e) == q
    assert certify._exact_quotient([0] * pad, den, e) == []
    assert certify._exact_quotient([0] * pad, [0] * pad, -1) == []
    if q:
        assert certify._exact_quotient(num, den, len(q) - 2) is None
        assert certify._exact_quotient(num, [0] * pad, e) is None
    if len(den) > 1:
        # a nonzero remainder of degree below den's makes a non-multiple
        k, delta = bump[0] % (len(den) - 1), bump[1]
        off = (num or [0] * len(den))[:]
        off[k] += delta
        assert certify._exact_quotient(off, den, e + len(den)) is None


def tangency_oracle(arr, theta, d):
    """Exact product of the derivation matrix with theta's stacked coefficient vector."""
    vec = [v for comp in theta for v in poly_to_vector(comp, d)]
    return not any(sum(r * v for r, v in zip(row, vec) if r) for row in derivation_matrix(arr, d).rows)


def perturbed_fields(theta, d, rng):
    """theta plus random Euler multiples, monomial fields and rescalings, at three sizes."""
    euler = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
    for size in ("int", "fraction", "huge"):
        def scalar():
            if size == "int":
                return rng.choice([-1, 1]) * rng.randint(1, 9)
            if size == "fraction":
                return Fraction(rng.randint(-99, 99) or 1, rng.randint(2, 99))
            return rng.choice([-1, 1]) * 10**30 + rng.randint(-999, 999)

        for _ in range(3):
            out = [dict(comp) for comp in theta]
            if rng.random() < 0.5:
                t = scalar()
                out = [{e: t * v for e, v in comp.items()} for comp in out]
            if rng.random() < 0.7:
                m = {rng.choice(monomial_basis(d - 1).monomials): scalar()}
                for comp, e in zip(out, euler):
                    for k, v in poly_mul(m, e).items():
                        comp[k] = comp.get(k, 0) + v
            if rng.random() < 0.5:
                comp = out[rng.randrange(3)]
                k = rng.choice(monomial_basis(d).monomials)
                comp[k] = comp.get(k, 0) + scalar()
            yield tuple({e: v for e, v in comp.items() if v} for comp in out)


def test_is_tangent_field_matches_the_derivation_matrix(free13, free19, free20):
    rng = random.Random(20261018)
    certified = [(arr, verify_arrangement(arr).certificate) for arr in (free13, free19, free20)]
    certified += [(disc.arrangement, disc.certificate) for disc in
                  (construct_certified(2, 5), construct_certified(4, 4), construct_certified(3, 7))]
    verdicts = []
    for arr, cert in certified:
        for _ in range(3):
            sub = build_arrangement(rng.sample(arr.lines, rng.randint(3, arr.n)))
            for theta, d in ((cert.theta1, cert.d1), (cert.theta2, cert.d2)):
                for field in perturbed_fields(theta, d, rng):
                    verdict = is_tangent_field(sub, field, d)
                    assert verdict == tangency_oracle(sub, field, d)
                    verdicts.append(verdict)
    assert len(verdicts) == 324 and 0 < sum(verdicts) < len(verdicts)
    # fields with one or two zero components, whose lines on zero components
    # only are skipped, on coordinate-aligned inputs and on their images
    sparse = []
    for disc in (construct_certified(2, 5), construct_certified(4, 4), construct_certified(3, 7)):
        cert = disc.certificate
        fields = [(cert.theta1, cert.d1), (cert.theta2, cert.d2)]
        if cert.d1 == cert.d2:  # (0, B1, B2): one zero component
            fields.append((tuple({**a, **b} for a, b in zip(cert.theta1, cert.theta2)), cert.d1))
        sparse.append((disc.arrangement, fields))
    mutant = fixtures.disjoint_pencils(5, 2)
    d = candidate_exponents(mutant).d1
    kernel = [vector_to_derivation(vec, d) for vec in null_space_exact(derivation_matrix(mutant, d)).vectors]
    sparse.append((mutant, [(theta, d) for theta in kernel if not all(theta)]))
    cert = verify_arrangement(fixtures.boolean_arrangement()).certificate
    sparse.append((fixtures.boolean_arrangement(), [(cert.theta1, 1), (cert.theta2, 1)]))
    sparse += [(image_under(arr, g), [(transported(theta, g), d) for theta, d in fields])
               for arr, fields in list(sparse) for g in SPARSE_IMAGE_G]
    verdicts, zero_counts = [], set()
    for arr, fields in sparse:
        for theta, d in fields:
            assert is_tangent_field(arr, theta, d)
            for sub in (arr, build_arrangement(rng.sample(arr.lines, rng.randint(3, arr.n)))):
                for field in one_component_changes(theta, d, rng):
                    zero_counts.add(sum(not comp for comp in field))
                    verdict = is_tangent_field(sub, field, d)
                    assert verdict == tangency_oracle(sub, field, d)
                    verdicts.append(verdict)
    assert {1, 2} <= zero_counts
    assert 0 < sum(verdicts) < len(verdicts)


def one_component_changes(theta, d, rng):
    """theta changed on one component only: a term added at three sizes, the component rescaled, or dropped."""
    for c in range(3):
        terms = [rng.choice([-1, 1]) * rng.randint(1, 9), Fraction(rng.randint(1, 99), rng.randint(2, 99)),
                 rng.choice([-1, 1]) * 10**30 + rng.randint(-999, 999)]
        changed = []
        for t in terms:
            comp = dict(theta[c])
            k = rng.choice(monomial_basis(d).monomials)
            comp[k] = comp.get(k, 0) + t
            changed.append(comp)
        changed += [{e: -3 * v for e, v in theta[c].items()}, {}]
        for comp in changed:
            yield tuple({e: v for e, v in (comp if i == c else theta[i]).items() if v} for i in range(3))


def permute_coordinates(arr, fields, perm):
    """The arrangement and fields in the coordinates y_i = x_perm[i].

    Line a*x gets the coefficients a_perm[i], and component perm[i] of a field,
    its exponents permuted the same way, becomes component i; theta(alpha) is
    the same polynomial in the new coordinates, so tangency is preserved.
    """
    lines = [canonicalize_line(*(line.coeffs[p] for p in perm)) for line in arr.lines]
    moved = [tuple({tuple(m[p] for p in perm): v for m, v in theta[p].items()} for p in perm)
             for theta in fields]
    return build_arrangement(lines), moved


PERMUTATIONS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def test_is_tangent_field_matches_the_derivation_matrix_in_every_chart(free19):
    # is_tangent_field evaluates each line on a chart picked by its first
    # nonzero coefficient; the permuted free_19 puts its line (0, 4, 11) in
    # every position, and the permuted disjoint-pencil mutants bring the
    # coordinate lines, z = 0 among them
    rng = random.Random(20261019)
    cert = verify_arrangement(free19).certificate
    inputs = [(free19, [(cert.theta1, cert.d1), (cert.theta2, cert.d2)])]
    for k, m in ((5, 2), (9, 4)):
        mutant = fixtures.disjoint_pencils(k, m)
        d = candidate_exponents(mutant).d1
        kernel = null_space_exact(derivation_matrix(mutant, d)).vectors
        inputs.append((mutant, [(vector_to_derivation(vec, d), d) for vec in kernel]))
    charts, verdicts = set(), []
    for arr, fields in inputs:
        for perm in PERMUTATIONS:
            moved_arr, moved = permute_coordinates(arr, [theta for theta, _ in fields], perm)
            charts |= {certify._chart(line.coeffs)[0] for line in moved_arr.lines}
            for theta, (_, d) in zip(moved, fields):
                assert is_tangent_field(moved_arr, theta, d)
                for field in perturbed_fields(theta, d, rng):
                    verdict = is_tangent_field(moved_arr, field, d)
                    assert verdict == tangency_oracle(moved_arr, field, d)
                    verdicts.append(verdict)
    assert charts == {0, 1, 2}
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("scalar", [10**30 + 7, Fraction(10**30 + 7, 3)], ids=["int", "fraction"])
@pytest.mark.parametrize("restriction", ["bottom", "top", "cancelling"])
@pytest.mark.parametrize("e", [0, 1, 2])
def test_tangency_reads_the_edge_digits_of_the_packing(e, restriction, scalar):
    # the field scalar * F * d/dx_e is tangent to every line through the
    # coordinate point p_e (a_e = 0) and not to x_e = 0, where it restricts to
    # r(k) = F(1, k) with M = 1, so r's coefficient sum is the bound itself:
    # "bottom" is the single term scalar * k^0, "top" the single term
    # scalar * k^d, and "cancelling" is k^4 - 2^m * k^3 (over 3 for the
    # Fraction case), whose bound is 2^m + 1: K = 2^m would be a root
    d = 5
    s, t = (k for k in range(3) if k != e)

    def mon(j, k):
        out = [0, 0, 0]
        out[s], out[t] = j, k
        return tuple(out)

    if restriction == "bottom":
        form = {mon(d, 0): scalar}
    elif restriction == "top":
        form = {mon(0, d): scalar}
    else:
        unit = scalar / scalar.numerator if isinstance(scalar, Fraction) else 1
        power = 1 << (scalar.numerator.bit_length() - 1)
        form = {mon(d - 4, 4): unit, mon(d - 3, 3): -power * unit}
    theta = tuple(form if k == e else {} for k in range(3))
    through = []
    for r in ((1, 0), (0, 1), (1, -1), (1, 2), (3, -5)):
        coeffs = [0, 0, 0]
        coeffs[s], coeffs[t] = r
        through.append(canonicalize_line(*coeffs))
    axis = canonicalize_line(*(int(k == e) for k in range(3)))
    assert is_tangent_field(build_arrangement(through), theta, d)
    for lines in (through + [axis], [axis] + through):
        arr = build_arrangement(lines)
        assert not is_tangent_field(arr, theta, d)
        assert not tangency_oracle(arr, theta, d)


def test_refutation_disjoint_pencils():
    arr = fixtures.disjoint_pencils(5, 2)
    out = verify_free(arr, 3, 3)
    assert isinstance(out, NotFreeAtExponents)
    assert out.pairs_scanned >= 1
    loss = saito_functional(arr, 3, 3).loss
    assert loss > 0.05


def test_verify_arrangement_no_exponents(generic4):
    out = verify_arrangement(generic4)
    assert isinstance(out, NoCandidateExponents)
    assert out.reason == "delta-negative"


def euler_multiple(m):
    """The field m * E for a monomial m: tangent to every line, determinant 0 against anything."""
    return tuple({tuple(a + b for a, b in zip(m, e)): 1} for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


TAMPERS = [
    ("scalar doubled", lambda cert: dataclasses.replace(cert, c=cert.c * 2)),
    ("scalar plus a third", lambda cert: dataclasses.replace(cert, c=cert.c + Fraction(1, 3))),
    # tangent, so only the determinant (identically 0) can refuse it
    ("theta2 an Euler multiple", lambda cert: dataclasses.replace(cert, theta2=euler_multiple((cert.d2 - 1, 0, 0)))),
]


def test_tampered_scalar_detected(boolean, near_pencil5):
    for arr in (boolean, near_pencil5):
        exps = candidate_exponents(arr)
        cert = verify_free(arr, exps.d1, exps.d2).certificate
        for name, tamper in TAMPERS:
            bad = tamper(cert)
            assert is_tangent_field(arr, bad.theta2, bad.d2), name
            assert check_certificate(arr, bad) == (False, "determinant-mismatch"), name


def test_perturbed_theta_detected(boolean):
    cert = verify_free(boolean, 1, 1).certificate
    f, g, h = cert.theta1
    f2 = dict(f)
    f2[(0, 1, 0)] = f2.get((0, 1, 0), 0) + 1  # push theta1 out of the kernel
    bad = dataclasses.replace(cert, theta1=(f2, g, h))
    ok, failing = check_certificate(boolean, bad)
    assert not ok and failing == "theta1-kernel"


def test_hash_mismatch_detected(boolean, near_pencil5):
    cert = verify_free(boolean, 1, 1).certificate
    ok, failing = check_certificate(near_pencil5, cert)
    assert not ok and failing == "hash-mismatch"


def test_certificate_file_round_trip(tmp_path, near_pencil5):
    cert = verify_free(near_pencil5, 1, 3).certificate
    path = tmp_path / "c.json"
    write_certificate(path, cert)
    back = read_certificate(path)
    assert back.theta1 == cert.theta1
    assert back.theta2 == cert.theta2
    assert Fraction(back.c) == Fraction(cert.c)
    assert back.arrangement_hash == cert.arrangement_hash
    assert check_certificate(near_pencil5, back) == (True, None)


def test_certificate_json_uses_rational_strings(boolean):
    cert = verify_free(boolean, 1, 1).certificate
    data = certificate_to_json(cert)
    assert isinstance(data["c"], str)
    for comp in data["theta1"].values():
        for v in comp.values():
            assert isinstance(v, str)
    rebuilt = certificate_from_json(data)
    assert check_certificate(boolean, rebuilt) == (True, None)


def _parse(parse, text):
    """(value, None) from parse(text), or (None, exception type) when it raises."""
    try:
        return parse(text), None
    except Exception as exc:
        return None, type(exc)


INTEGER_LIKE = st.one_of(
    st.integers().map(str),
    st.from_regex(r"[-+ ]?[0-9_\u0663\u0967]{0,8}[\n ]?", fullmatch=True),
    st.sampled_from(["-0", "007", "+5", " 5", "5_000", "\u0663\u0663", "-\u0967", "--5", "-", "", "0x5", "5.0"]),
    st.integers(4295, 4400).map(lambda k: "7" * k),
    st.integers(4295, 4400).map(lambda k: "-" + "7" * k),
)


@settings(max_examples=300, deadline=None)
@given(text=INTEGER_LIKE)
def test_coefficient_reader_agrees_with_fraction(text):
    # plain integers take int(); every text reads to Fraction(text)'s value
    # or raises the same exception type
    got, got_exc = _parse(lambda t: arrangement._as_fraction(t, "c"), text)
    want, want_exc = _parse(Fraction, text)
    assert got_exc is want_exc
    assert got == want
    assert type(got) in (int, Fraction, type(None))


def _read_as_coefficient(scalar):
    # [s : 0 : 1] is canonical as [p : 0 : q] for s = p/q > 0
    line = arrangement_from_json({"lines": [[scalar, 0, 1], [0, 1, 0], [1, 0, 0]]}).lines[0]
    return Fraction(line.a, line.c)


@pytest.mark.parametrize(
    "text,want",
    [
        ("0.1", Fraction(1, 10)), ("1e-5", Fraction(1, 100000)), ("3", Fraction(3)),
        ('"3/4"', Fraction(3, 4)), ('"1e5"', Fraction(100000)),
        ("1e400", None), ("true", None), ("null", None), ("{}", None), ("[]", None), ('"1/0"', None),
    ],
)
def test_arrangement_and_certificate_readers_agree(boolean, text, want):
    # one JSON scalar as a line coefficient and as a certificate's c
    scalar = json.loads(text)
    data = {**certificate_to_json(verify_free(boolean, 1, 1).certificate), "c": scalar}
    got = []
    for read in (_read_as_coefficient, lambda s: certificate_from_json(data).c):
        try:
            got.append(read(scalar))
        except ValueError:
            got.append(None)
    assert got == [want, want]


def test_certificate_reader_keeps_its_result_types(near_pencil5):
    data = certificate_to_json(verify_free(near_pencil5, 1, 3).certificate)
    data["c"] = "007"
    back = certificate_from_json(data)
    assert type(back.c) is Fraction and back.c == 7
    assert all(type(v) is int for theta in (back.theta1, back.theta2) for comp in theta for v in comp.values())


# sha256 of the write_certificate bytes of construct_certified(d1, n - 1 - d1)
# for n = 3..26 and d1 = 1..(n - 1) // 2, then of the chain certificates of
# free_13, free_16, free_19 and free_20 at their candidate exponents
CERTIFICATE_FILES_SHA256 = "ab5fd94d5373187cc568b558e9dcb632ee58f0a7174c7b2056f8e73b105adbe6"


def test_certificate_files_are_pinned(tmp_path):
    certs = [construct_certified(d1, n - 1 - d1).certificate for n in range(3, 27) for d1 in range(1, (n - 1) // 2 + 1)]
    for arr in (fixtures.free_13(), fixtures.free_16(), fixtures.free_19(), fixtures.free_20()):
        exps = candidate_exponents(arr)
        certs.append(certify.chain_certificate(arr, exps.d1, exps.d2))
    path, digest = tmp_path / "c.json", hashlib.sha256()
    for cert in certs:
        write_certificate(path, cert)
        digest.update(path.read_bytes())
    assert len(certs) == 160
    assert digest.hexdigest() == CERTIFICATE_FILES_SHA256


@pytest.mark.parametrize(
    "value,want",
    [
        ("1/3", Fraction(1, 3)), ("2.5e1", 25), (" 7", 7), ("1_0", 10), ("007", 7), ("-0", None),
        (7, 7), (2.5, Fraction(5, 2)),
        (True, "theta1.f['1,0,0']: True is a boolean, not a number"),
        ("7" * 5000, "Exceeds the limit (4300 digits) for integer string conversion"),
    ],
    ids=["third", "exponent", "space", "underscore", "zeros", "minus-zero", "number", "float", "true", "5000-digits"],
)
def test_certificate_reader_reads_each_coefficient_form(tmp_path, near_pencil5, value, want):
    # a value, or a ValueError naming the file, for each form a coefficient
    # may take, all read by arrangement._as_fraction
    data = certificate_to_json(verify_free(near_pencil5, 1, 3).certificate)
    data["theta1"]["f"] = {"1,0,0": value}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(data))
    if isinstance(want, str):
        with pytest.raises(ValueError) as info:
            read_certificate(path)
        assert str(info.value).startswith(f"{path}: {want}")
    else:
        got = read_certificate(path).theta1[0].get((1, 0, 0))
        assert got == want and type(got) is type(want)


def test_certificate_writer_refuses_an_overlong_integer(tmp_path, near_pencil5):
    # an int coefficient is written by str() only inside the digit bound; at
    # 10**4000 the writer raises naming the component and leaves no file
    cert = verify_free(near_pencil5, 1, 3).certificate
    f, g, h = cert.theta1
    path = tmp_path / "c.json"
    for v in (10**4000, -(10**4000)):
        bad = dataclasses.replace(cert, theta1=({**f, (1, 0, 0): v}, g, h))
        with pytest.raises(ValueError, match=r"^theta1\.f: a coefficient has more than 4000 digits$"):
            write_certificate(path, bad)
        assert not path.exists()
    for v in (0, -1, True, Fraction(6, 2), 10**4000 - 1, 1 - 10**4000):
        assert certify._rational_to_json(v, "c") == str(Fraction(v))
    write_certificate(path, dataclasses.replace(cert, theta1=({**f, (1, 0, 0): 10**4000 - 1}, g, h)))
    assert read_certificate(path).theta1[0][(1, 0, 0)] == 10**4000 - 1


def test_verify_free_validates_exponents(boolean):
    with pytest.raises(DegreeMismatch):
        verify_free(boolean, 1, 2)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name so that every call is recorded; returns the list of recorded calls."""
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or original(*args))
    return calls


def _cold_kernels(monkeypatch):
    """Record kernel_basis calls with the kernel caches cleared, so no cached kernel hides one."""
    derivations.derivation_matrix.cache_clear()
    derivations.null_space_exact.cache_clear()
    return _count_calls(monkeypatch, exactlinalg, "kernel_basis")


def test_verify_accepts_als_rationalization(near_pencil5, free19, monkeypatch):
    # the evaluation's certificate is re-checked as a witness: the same
    # Certified as a fresh verify_free, with no second deletion chain, at
    # either exponent order of the functional
    cases = []
    for arr in (near_pencil5, free19):
        exps = candidate_exponents(arr)
        evs = [saito_functional(arr, exps.d1, exps.d2), saito_functional(arr, exps.d2, exps.d1)]
        cases.append((arr, exps, verify_free(arr, exps.d1, exps.d2), evs))
    chains = _count_calls(monkeypatch, certify, "_deletion_chain")
    for arr, exps, fresh, evs in cases:
        for ev in evs:
            assert ev.certificate == fresh.certificate
            assert verify_free(arr, exps.d1, exps.d2, als=ev) == fresh
    assert chains == []


def test_verify_accepts_the_certificate_of_a_permuted_copy(free19, monkeypatch):
    exps = candidate_exponents(free19)
    ev = saito_functional(free19, exps.d1, exps.d2)
    lines = list(free19.lines)
    random.Random(19).shuffle(lines)
    copy = build_arrangement(lines)
    chains = _count_calls(monkeypatch, certify, "_deletion_chain")
    out = verify_free(copy, exps.d1, exps.d2, als=ev)
    assert chains == []
    assert out.certificate.arrangement_hash == certify.arrangement_hash(copy)
    assert check_certificate(copy, out.certificate) == (True, None)


def test_verify_rechecks_a_foreign_or_tampered_evaluation(free13, monkeypatch):
    # a certificate of another 13-line free set at (6, 6), or one with a
    # coefficient of theta1 changed, fails the witness check; the chain
    # then certifies, with no kernel
    ev = saito_functional(free13, 6, 6)
    foreign = saito_functional(supersolvable_two_pencil(6, 6), 6, 6)
    f, g, h = ev.certificate.theta1
    mon = next(iter(f))
    tampered_theta1 = ({**f, mon: f[mon] + 1}, g, h)
    tampered = dataclasses.replace(ev, certificate=dataclasses.replace(ev.certificate, theta1=tampered_theta1))
    fresh = verify_free(free13, 6, 6)
    kernels = _cold_kernels(monkeypatch)
    chains = _count_calls(monkeypatch, certify, "_deletion_chain")
    for other in (foreign, tampered):
        out = verify_free(free13, 6, 6, als=other)
        assert out == fresh
        assert check_certificate(free13, out.certificate) == (True, None)
    assert len(chains) == 2
    assert kernels == []


def test_verify_ignores_the_evaluation_of_a_refutation():
    mutant = fixtures.disjoint_pencils(5, 2)
    ev = saito_functional(mutant, 3, 3)
    assert ev.certificate is None
    assert verify_free(mutant, 3, 3, als=ev) == verify_free(mutant, 3, 3)


def test_failing_witness_falls_through_to_the_chain(free19, monkeypatch):
    # the chain runs before any kernel, witness or not: a wrong witness costs
    # its check, not the kernel pair scan at d = 7 and 11
    exps = candidate_exponents(free19)
    fresh = verify_free(free19, exps.d1, exps.d2)
    theta1, theta2 = fresh.certificate.theta1, fresh.certificate.theta2
    kernels = _cold_kernels(monkeypatch)
    for witness in [(theta2, theta1), (theta1, theta1), two_pencil_witness(exps.d1, exps.d2)]:
        assert verify_free(free19, exps.d1, exps.d2, witness=witness) == fresh
    assert kernels == []


# ---------------------------------------------------------------------------
# Deletion chains: verify_free before any kernel
# ---------------------------------------------------------------------------


def random_pool_arrangements(count, seed=20261018):
    """count random 6-10-line arrangements of the R = 1 pool with candidate exponents."""
    rng = random.Random(seed)
    lines = candidate_pool(1).lines
    out = []
    while len(out) < count:
        arr = build_arrangement(rng.sample(lines, rng.randint(6, 10)))
        if candidate_exponents(arr) is not None:
            out.append(arr)
    return out


def chain_cases():
    named = [
        ("np5", fixtures.near_pencil(5)),
        ("np6", fixtures.near_pencil(6)),
        ("two_pencil_7x7", supersolvable_two_pencil(7, 7)),
        ("free13", fixtures.free_13()),
        ("free19", fixtures.free_19()),
        ("free20", fixtures.free_20()),
    ]
    named += [(f"pencils_{k}_{m}", fixtures.disjoint_pencils(k, m)) for k, m in
              [(9, 4), (10, 5), (11, 5), (13, 6), (13, 7), (5, 2), (7, 3)]]
    named += [(f"pool1_{i}", arr) for i, arr in enumerate(random_pool_arrangements(64))]
    return named


def kernel_verdict(monkeypatch, arr, d1, d2):
    """verify_free with no deletion chain: the kernel path alone."""
    with monkeypatch.context() as m:
        m.setattr(certify, "_deletion_chain", lambda *args: None)
        return verify_free(arr, d1, d2)


def test_chain_verdicts_match_the_kernel_path(monkeypatch):
    free = refuted = 0
    for name, arr in chain_cases():
        exps = candidate_exponents(arr)
        assert exps is not None, name
        oracle = kernel_verdict(monkeypatch, arr, exps.d1, exps.d2)
        outcome = verify_free(arr, exps.d1, exps.d2)
        assert type(outcome) is type(oracle), name
        if isinstance(outcome, Certified):
            free += 1
            assert check_certificate(arr, outcome.certificate) == (True, None), name
        else:
            refuted += 1
            assert outcome == oracle, name  # the same full pair scan
    assert free >= 6 and refuted >= 7


def test_chain_steps_match_the_lattice():
    # every set along a chain has candidate exponents, each deletion lowers
    # exactly one of them by one, and the chain ends in a triangle
    for name, arr in chain_cases():
        exps = candidate_exponents(arr)
        chain = certify._deletion_chain(arr, exps.d1, exps.d2)
        if chain is None:
            continue
        kept = list(range(arr.n))
        before = (exps.d1, exps.d2)
        for k in chain:
            kept.remove(k)
            sub_exps = candidate_exponents(build_arrangement([arr.lines[i] for i in kept]))
            assert sub_exps is not None, name
            after = (sub_exps.d1, sub_exps.d2)
            assert sorted(b - a for b, a in zip(before, after)) == [0, 1], name
            before = after
        assert len(kept) == 3 and before == (1, 1)
        tri = build_arrangement([arr.lines[i] for i in kept])
        assert check_certificate(tri, certify._triangle_certificate(tri)) == (True, None)


@st.composite
def unimodular(draw):
    """An integral g of determinant 1, drawn as a product of elementary matrices I + c*E_ij."""
    g = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(3)))[:2]
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        for row in g:  # g <- g * (I + c*E_ij): column j gains c times column i
            row[j] += c * row[i]
    return g


def image_under(arr, g):
    """g*A: the arrangement whose line rows are a*g for the rows a of arr."""
    return build_arrangement([
        canonicalize_line(*(sum(a[i] * g[i][j] for i in range(3)) for j in range(3)))
        for a in (line.coeffs for line in arr.lines)
    ])


def transported(theta, g):
    """g^-1 * theta(g x): the field of g*A that theta, a field of A, becomes; g must be unimodular.

    On a line a*g of g*A it gives sum_j (a g)_j (g^-1 theta(g x))_j =
    (a * theta)(g x) = theta(alpha)(g x), a multiple of alpha(g x), which is
    that line's form.
    """
    forms = [poly_from_line(tuple(row)) for row in g]
    powers = [[{(0, 0, 0): 1}] for _ in forms]
    at_gx = []
    for comp in theta:  # comp(g x): x_i becomes sum_j g[i][j] x_j
        out = {}
        for mon, v in comp.items():
            term = {(0, 0, 0): v}
            for i, k in enumerate(mon):
                while len(powers[i]) <= k:
                    powers[i].append(poly_mul(powers[i][-1], forms[i]))
                term = poly_mul(term, powers[i][k])
            for e, w in term.items():
                out[e] = out.get(e, 0) + w
        at_gx.append(out)
    cof = [[g[(j + 1) % 3][(i + 1) % 3] * g[(j + 2) % 3][(i + 2) % 3]
            - g[(j + 1) % 3][(i + 2) % 3] * g[(j + 2) % 3][(i + 1) % 3] for j in range(3)] for i in range(3)]
    det = sum(g[0][j] * cof[j][0] for j in range(3))
    assert det in (1, -1)
    inverse = [[det * cof[i][j] for j in range(3)] for i in range(3)]
    out = []
    for row in inverse:
        comp = {}
        for coef, part in zip(row, at_gx):
            for e, w in part.items():
                comp[e] = comp.get(e, 0) + coef * w
        out.append({e: w for e, w in comp.items() if w})
    return tuple(out)


# whose inverses keep zeros in some columns, so a field with zero components
# keeps one or two of them on a moved arrangement
SPARSE_IMAGE_G = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 1], [0, 0, 1]]]


IMAGE_INPUTS = [
    fixtures.boolean_arrangement(), fixtures.near_pencil(5), fixtures.generic_four(),
    fixtures.free_13(), fixtures.free_19(), fixtures.free_20(),
] + [fixtures.disjoint_pencils(k, m) for k, m in [(5, 2), (9, 4), (10, 5), (11, 5), (13, 6), (13, 7)]]


@st.composite
def pool_sets(draw):
    lines = candidate_pool(1).lines
    idx = draw(st.lists(st.integers(0, len(lines) - 1), min_size=5, max_size=10, unique=True))
    return build_arrangement([lines[i] for i in idx])


def lattice_answers(arr):
    """What a change of coordinates must keep: t, b2, the exponents and the multiset of |A^H|."""
    s = intersection_summary(arr)
    return s.t, s.b2, s.exponents, s.no_exponent_reason, sorted(map(len, s.line_points()))


@given(st.one_of(st.sampled_from(IMAGE_INPUTS), pool_sets()), unimodular())
@settings(max_examples=50, deadline=None)
def test_lattice_and_verdict_survive_a_unimodular_change_of_coordinates(arr, g):
    # GL3(Q) acts on the lattice and on D(A), so every lattice answer and the
    # verdict of the chain path (and its kernel fallback) are invariants of g
    image = image_under(arr, g)
    assert lattice_answers(image) == lattice_answers(arr)
    assert type(verify_arrangement(image)) is type(verify_arrangement(arr))


def test_chain_certifies_without_derivation_matrices(monkeypatch):
    def refuse(*args):
        raise AssertionError("the chain path built a derivation matrix")

    monkeypatch.setattr(certify, "derivation_matrix", refuse)
    for arr in [fixtures.near_pencil(6), supersolvable_two_pencil(7, 7), fixtures.free_13(),
                fixtures.free_16(), fixtures.free_19(), fixtures.free_20()]:
        exps = candidate_exponents(arr)
        outcome = verify_free(arr, exps.d1, exps.d2)
        assert isinstance(outcome, Certified)
        assert check_certificate(arr, outcome.certificate) == (True, None)


KERNEL_IMAGE_G = [[1, 1, 0], [0, 1, 1], [1, 1, 1]]  # determinant 1


def test_kernel_path_alone_decides_unimodular_images(monkeypatch):
    # with no deletion chain, the kernel pair scan must certify the image of
    # each free input, with a certificate that passes the file check, and
    # must keep refuting the images of refuted pool sets
    free = [fixtures.near_pencil(6), supersolvable_two_pencil(7, 7), fixtures.free_13(), fixtures.free_16()]
    rng, pool, refuted = random.Random(26), candidate_pool(2).lines, []
    while len(refuted) < 3:  # 7-10-line sets of the R = 2 pool that the kernels refute
        arr = build_arrangement(rng.sample(pool, rng.randint(7, 10)))
        if isinstance(verify_arrangement(arr), NotFreeAtExponents):
            refuted.append(arr)
    scans = _count_calls(monkeypatch, certify, "null_space_exact")
    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    for arr in free + refuted:
        image = image_under(arr, KERNEL_IMAGE_G)
        exps = candidate_exponents(image)
        assert exps == candidate_exponents(arr)
        before = len(scans)
        outcome = verify_free(image, exps.d1, exps.d2)
        assert len(scans) > before
        if arr in free:
            assert isinstance(outcome, Certified)
            assert outcome.certificate.arrangement_hash == certify.arrangement_hash(image)
            assert check_certificate(image, outcome.certificate) == (True, None)
        else:
            assert isinstance(outcome, NotFreeAtExponents)


def test_transported_certificates_certify_the_image_without_a_chain(monkeypatch):
    # D(A) moves to D(g*A) by theta -> g^-1 theta(g x): the two-pencil
    # certificates of every cell with n <= 26 and free_16's chain certificate,
    # moved off the coordinate axes, are witnesses that certify on their own
    inputs = [(disc.arrangement, disc.certificate) for disc in
              (construct_certified(d1, n - 1 - d1) for n in range(3, 27) for d1 in range(1, (n - 1) // 2 + 1))]
    free16 = fixtures.free_16()
    exps = candidate_exponents(free16)
    inputs.append((free16, certify.chain_certificate(free16, exps.d1, exps.d2)))

    def refuse(*args):
        raise AssertionError("a transported witness fell through to the chain")

    monkeypatch.setattr(certify, "chain_certificate", refuse)
    for arr, cert in inputs:
        image = image_under(arr, KERNEL_IMAGE_G)
        witness = (transported(cert.theta1, KERNEL_IMAGE_G), transported(cert.theta2, KERNEL_IMAGE_G))
        outcome = verify_free(image, cert.d1, cert.d2, witness=witness)
        assert isinstance(outcome, Certified)
        assert (outcome.certificate.theta1, outcome.certificate.theta2) == witness
        assert check_certificate(image, outcome.certificate) == (True, None)


def test_kernel_path_certifies_with_no_chain_budget(monkeypatch, free13):
    calls = []
    original = certify.derivation_matrix
    monkeypatch.setattr(certify, "derivation_matrix", lambda *a: calls.append(a) or original(*a))
    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    outcome = verify_free(free13, 6, 6)
    assert isinstance(outcome, Certified) and calls
    assert check_certificate(free13, outcome.certificate) == (True, None)


def test_concurrent_lines_are_not_free():
    pencil = build_arrangement([canonicalize_line(*r) for r in [(1, 0, 0), (0, 1, 0), (1, 1, 0)]])
    # the closed form has c = det(M) = 0, which the gate refuses
    assert check_certificate(pencil, certify._triangle_certificate(pencil)) == (False, "scalar-zero")
    out = verify_free(pencil, 1, 1)
    assert isinstance(out, NotFreeAtExponents)


def test_closed_form_triangle_certifies_random_triangles(monkeypatch):
    def refuse(*args):
        raise AssertionError("a triangle went to the kernel path")

    monkeypatch.setattr(certify, "derivation_matrix", refuse)
    rng = random.Random(7)
    done = 0
    while done < 40:
        rows = [[rng.randint(-9, 9) for _ in range(3)] for _ in range(3)]
        if any(r == [0, 0, 0] for r in rows):
            continue
        lines = [canonicalize_line(*r) for r in rows]
        if len(set(lines)) < 3:
            continue
        tri = build_arrangement(lines)
        cert = certify._triangle_certificate(tri)
        if cert.c == 0:  # concurrent
            continue
        assert is_tangent_field(tri, cert.theta1, 1) and is_tangent_field(tri, cert.theta2, 1)
        assert exact_determinant(tri, cert.theta1, cert.theta2) == {
            e: cert.c * v for e, v in product_of_lines(tri.lines).items()
        }
        out = verify_free(tri, 1, 1)
        assert out == Certified(cert)
        assert check_certificate(tri, out.certificate) == (True, None)
        done += 1


@pytest.mark.parametrize(
    "name,build",
    [("free13", fixtures.free_13), ("free16", fixtures.free_16), ("free19", fixtures.free_19),
     ("free20", fixtures.free_20), ("two_pencil_7x7", lambda: supersolvable_two_pencil(7, 7))],
)
def test_greedy_descent_reaches_a_triangle_in_any_line_order(name, build):
    # these inputs are inductively free, so the descent must find a chain in
    # every line order; one it missed would silently send them to the kernels
    # (free16 needs a step undone in its listed order and in some shuffles)
    arr = build()
    exps = candidate_exponents(arr)
    rng = random.Random(name)
    for _ in range(50):
        lines = list(arr.lines)
        rng.shuffle(lines)
        chain = certify._deletion_chain(build_arrangement(lines), exps.d1, exps.d2)
        assert chain is not None and len(chain) == arr.n - 3, name


@pytest.mark.parametrize("arr", [fixtures.boolean_arrangement(), fixtures.near_pencil(6), fixtures.free_13()])
def test_chain_certificate_is_gated_once(monkeypatch, arr):
    calls = []
    original = certify.check_certificate
    monkeypatch.setattr(certify, "check_certificate", lambda *a: calls.append(a) or original(*a))
    exps = candidate_exponents(arr)
    cert = certify.chain_certificate(arr, exps.d1, exps.d2)
    assert cert is not None and len(calls) == 1
    assert calls[0][0] is arr and calls[0][1] == cert


@pytest.mark.parametrize("arr", [fixtures.boolean_arrangement(), fixtures.near_pencil(6)])
def test_tampered_triangle_certificate_fails_the_gate(monkeypatch, arr):
    # a wrong c at the bottom of the chain, the bare triangle's included,
    # reaches check_certificate and is refused there
    closed_form = certify._triangle_certificate

    def tampered(tri):
        cert = closed_form(tri)
        return dataclasses.replace(cert, c=cert.c + 1)

    monkeypatch.setattr(certify, "_triangle_certificate", tampered)
    exps = candidate_exponents(arr)
    with pytest.raises(certify.InternalInconsistency, match="determinant-mismatch"):
        certify.chain_certificate(arr, exps.d1, exps.d2)


# ---------------------------------------------------------------------------
# det(E, theta1, theta2) = c * Q decided at one point
# ---------------------------------------------------------------------------


def expanded_ratio(arr, theta1, theta2):
    """det(E, theta1, theta2) / Q from both expansions, or None when it is no constant."""
    det = exact_determinant(arr, theta1, theta2)
    q = product_of_lines(arr.lines)
    e, q0 = next(iter(q.items()))
    c = Fraction(det.get(e, 0), q0)
    return c if det == {k: c * v for k, v in q.items() if c} else None


def certified_inputs():
    out = [(arr, verify_arrangement(arr).certificate)
           for arr in (fixtures.free_13(), fixtures.free_19(), fixtures.free_20())]
    for d1 in range(1, 7):
        for d2 in range(d1, 14 - d1):
            disc = construct_certified(d1, d2)
            out.append((disc.arrangement, disc.certificate))
    catalog = cascade([fixtures.near_pencil(5)], 7, config=ExtensionConfig(pool_bound=2))
    out += [(d.arrangement, d.certificate) for ds in catalog.entries.values() for d in ds]
    return out


def test_saito_scalar_matches_the_expanded_ratio():
    rng = random.Random(12)
    cases = certified_inputs()
    assert len(cases) == 3 + 42 + 287
    for arr, cert in cases:
        assert certify._saito_scalar(arr, cert.theta1, cert.theta2) == expanded_ratio(arr, cert.theta1, cert.theta2)
        s1, s2 = (Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 10**12)) for _ in range(2))
        theta1 = tuple({e: s1 * v for e, v in comp.items()} for comp in cert.theta1)
        theta2 = tuple({e: s2 * v for e, v in comp.items()} for comp in cert.theta2)
        c = certify._saito_scalar(arr, theta1, theta2)
        assert c == expanded_ratio(arr, theta1, theta2) == s1 * s2 * cert.c


@pytest.mark.parametrize("k,m", [(9, 4), (10, 5)])
def test_saito_scalar_vanishes_with_the_expansion_on_mutants(k, m):
    arr = fixtures.disjoint_pencils(k, m)
    exps = candidate_exponents(arr)
    fields = [[vector_to_derivation(vec, d) for vec in null_space_exact(derivation_matrix(arr, d)).complement]
              for d in (exps.d1, exps.d2)]
    count = 0
    for theta1 in fields[0]:
        for theta2 in fields[1]:
            c = certify._saito_scalar(arr, theta1, theta2)
            assert (c == 0) == (exact_determinant(arr, theta1, theta2) == {})
            count += 1
    assert count >= 15


def test_saito_point_lies_on_no_line():
    rng = random.Random(6)
    bound = 10**6
    extremes = [canonicalize_line(a, b, c) for a in (-bound, 0, bound) for b in (-bound, bound - 1, bound)
                for c in (-bound, 1, bound)]
    for trial in range(200):
        lines = set(extremes if trial == 0 else ())
        size = rng.randint(3, 30)
        while len(lines) < size:
            row = [rng.randint(-bound, bound) for _ in range(3)]
            if any(row):
                lines.add(canonicalize_line(*row))
        arr = build_arrangement(sorted(lines))
        point = certify._saito_point(arr)
        assert all(line.evaluate(point) for line in arr.lines)


def random_field(rng, d, size=10**6):
    """An integral field of degree d with random, often negative, coefficients on random monomials."""
    mons = monomial_basis(d).monomials
    return tuple({m: rng.randint(-size, size) or 1 for m in rng.sample(mons, rng.randint(0, len(mons)))}
                 for _ in range(3))


def test_value_at_the_saito_point_matches_powers_of_the_point():
    # theta(P) and det(P, v1, v2) by shifts equal plain evaluation at
    # P = (1, K, K^2), on random fields and on the mutant's kernel vectors
    rng = random.Random(2026)
    mutant = fixtures.disjoint_pencils(9, 4)
    exps = candidate_exponents(mutant)
    kernel = [vector_to_derivation(vec, d) for d in (exps.d1, exps.d2)
              for vec in null_space_exact(derivation_matrix(mutant, d)).complement]
    assert kernel
    cases = [(certify._saito_point(mutant), kernel)]
    cases += [((1, 1 << b, 1 << 2 * b), [random_field(rng, rng.randint(0, 7)) for _ in range(8)])
              for b in (1, 2, 5, 13, 64)]
    for point, fields in cases:
        bits = point[1].bit_length() - 1
        assert point == (1, 1 << bits, 1 << 2 * bits)
        values = []
        for theta in fields:
            direct = tuple(sum(v * point[0] ** i * point[1] ** j * point[2] ** k
                               for (i, j, k), v in comp.items()) for comp in theta)
            assert certify._value_at(theta, bits) == direct
            values.append(direct)
        for v1, v2 in zip(values, values[1:]):
            (p0, p1, p2), (f1, g1, h1), (f2, g2, h2) = point, v1, v2
            det = p0 * (g1 * h2 - h1 * g2) - p1 * (f1 * h2 - h1 * f2) + p2 * (f1 * g2 - g1 * f2)
            assert certify._det_at(bits, v1, v2) == det


def test_restriction_digits_match_the_expanded_restriction_in_every_chart():
    # r(k) = theta(alpha)(U + k*W) expanded term by term against the digits
    # of r(K), on random lines whose zero coefficients pick every chart
    rng = random.Random(20261019)
    charts = set()
    for _ in range(300):
        a = tuple(rng.choice((0, rng.randint(-50, 50))) for _ in range(3))
        if not any(a):
            continue
        d = rng.randint(0, 6)
        theta = random_field(rng, d)
        chart = e, s, t = certify._chart(a)
        charts.add(e)
        assert a[e] and s < t and {e, s, t} == {0, 1, 2}
        u, w = [0, 0, 0], [0, 0, 0]
        u[e], u[s], w[e], w[t] = -a[s], a[e], -a[t], a[e]
        assert sum(x * y for x, y in zip(a, u)) == sum(x * y for x, y in zip(a, w)) == 0
        expanded = [0] * (d + 1)
        for comp, a_c in zip(theta, a):
            for mon, v in comp.items():
                term = [a_c * v]
                for c, power in enumerate(mon):
                    for _ in range(power):
                        term = convolve(term, [u[c], w[c]])
                for p, x in enumerate(term):
                    expanded[p] += x
        bits = certify._line_bound([a], theta, d).bit_length() + 1
        groups = certify._packed_groups(theta, d, chart, bits)
        assert certify._unpack(certify._restriction_at(groups, a, chart, bits, d), bits, d + 1) == expanded
    assert charts == {0, 1, 2}


def test_repeated_lines_are_no_arrangement():
    # on x, x, y the fields x d/dx and z d/dz are tangent, of degrees summing
    # to n - 1, and det(P)/Q(P) is a nonzero number; but det = -xyz is no
    # multiple of Q = x^2 y, since Q is not squarefree: the one-point test
    # needs distinct lines, and Arrangement refuses repeated ones
    x, y = Line(1, 0, 0), Line(0, 1, 0)
    with pytest.raises(DuplicateLine) as exc:
        Arrangement((x, x, y))
    assert (exc.value.i, exc.value.j) == (0, 1)
    x_dx, z_dz = ({(1, 0, 0): 1}, {}, {}), ({}, {}, {(0, 0, 1): 1})
    repeated = SimpleNamespace(lines=(x, x, y))
    _, k, _ = certify._saito_point(repeated)  # det(P) / Q(P) = -K^3 / K
    assert certify._saito_scalar(repeated, x_dx, z_dz) == -k * k != 0
    assert certify.exact_determinant_from_parts(x_dx, z_dz) == {(1, 1, 1): -1}
    assert product_of_lines((x, x, y)) == {(2, 1, 0): 1}


def test_verify_and_check_expand_no_determinant(monkeypatch):
    # the determinant is read at one point on every verify and check path
    def refuse(*args):
        raise AssertionError("a determinant was expanded")

    mutant = fixtures.disjoint_pencils(9, 4)
    exps = candidate_exponents(mutant)
    comp = [null_space_exact(derivation_matrix(mutant, d)).complement[0] for d in (exps.d1, exps.d2)]
    fake = certify.FreenessCertificate(exps.d1, exps.d2, vector_to_derivation(comp[0], exps.d1),
                                       vector_to_derivation(comp[1], exps.d2), Fraction(1),
                                       certify.arrangement_hash(mutant))
    monkeypatch.setattr(certify, "exact_determinant_from_parts", refuse)
    free13 = fixtures.free_13()
    out = verify_free(free13, 6, 6)
    assert check_certificate(free13, out.certificate) == (True, None)
    arr = supersolvable_two_pencil(3, 5)
    out = verify_free(arr, 3, 5, witness=two_pencil_witness(3, 5))
    assert check_certificate(arr, out.certificate) == (True, None)
    assert isinstance(verify_free(mutant, exps.d1, exps.d2), NotFreeAtExponents)
    assert check_certificate(mutant, fake) == (False, "determinant-mismatch")
    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    out = verify_free(free13, 6, 6)
    assert check_certificate(free13, out.certificate) == (True, None)


def test_kernel_pair_certificate_is_gated(monkeypatch, boolean):
    # a kernel holding y d/dx, which is not tangent to x = 0, as a wrong
    # derivation matrix would: its pair with z d/dz is nonzero at P, and the
    # gate re-derives tangency without the matrix
    y_dx = (0, 1, 0, 0, 0, 0, 0, 0, 0)
    z_dz = (0, 0, 0, 0, 0, 0, 0, 0, 1)
    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    monkeypatch.setattr(certify, "null_space_exact", lambda matrix: SimpleNamespace(complement=[y_dx, z_dz]))
    with pytest.raises(certify.InternalInconsistency, match="theta1-kernel"):
        verify_free(boolean, 1, 1)
