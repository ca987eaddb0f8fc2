"""Fuzz the arrangement and certificate readers through the CLI, and the file boundary.

One value of a valid file is replaced by arbitrary JSON. Whatever the value,
the CLI must answer with an exit code (0, 1 or 2) and never a traceback; a
usage error (2) prints nothing to stdout and a JSON error to stderr. A
certificate with one number changed must get the verdict of an oracle that
expands the determinant. At the file boundary, numbers are drawn around the
codec's digit bound: whatever a writer writes reads back equal, a writer that
refuses names the entry and leaves no file, and whatever a reader accepts can
be hashed and written back.
"""

import contextlib
import dataclasses
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from freelines import fixtures
from freelines.arrangement import (
    arrangement_hash,
    arrangement_to_json,
    build_arrangement,
    canonicalize_line,
    read_arrangement,
    write_arrangement,
)
from freelines.certify import (
    certificate_to_json,
    exact_determinant,
    read_certificate,
    verify_free,
    write_certificate,
)
from freelines.cli import main
from freelines.derivations import derivation_matrix
from freelines.monomials import monomial_basis, poly_to_vector, product_of_lines

NEAR_PENCIL = arrangement_to_json(fixtures.near_pencil(5))
NEAR_PENCIL_CERT = verify_free(fixtures.near_pencil(5), 1, 3).certificate
CERTIFICATE = certificate_to_json(NEAR_PENCIL_CERT)

# values that parse as JSON but not as a finite rational: half of all draws
hostile = st.one_of(
    st.from_regex(r"-?[0-9]{1,3}/0", fullmatch=True),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 10**300, -(2**127), "inf", "1e400"]),
    st.from_regex(r"-?[0-9]{1,3}(\.[0-9]{1,3})?[eE][-+]?[0-9_]{4,12}", fullmatch=True),
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**60), max_value=10**60),
    st.floats(),
    st.from_regex(r"-?[0-9]{1,4}(/[0-9]{1,3})?", fullmatch=True),
    st.text(max_size=6),
)
json_values = hostile | st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def value_paths(data, prefix=()):
    """Paths to every value below the root: dict keys and list indices."""
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from value_paths(value, prefix + (key,))


def replaced(data, path, value):
    data = json.loads(json.dumps(data))
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return data


def run_cli(argv):
    """Exit code, stdout and stderr of one CLI call; any exception but SystemExit propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_answered(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code, out, err)
    if code == 2:
        assert out == ""
        assert json.loads(err)["error"]
    return code, out, err


FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(path=st.sampled_from(list(value_paths(NEAR_PENCIL))), value=json_values)
def test_arrangement_reader_never_raises(path, value):
    data = replaced(NEAR_PENCIL, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        arr_path = Path(tmp) / "arr.json"
        arr_path.write_text(json.dumps(data))
        cert_path = Path(tmp) / "arr.cert.json"
        cert_path.write_text(json.dumps(CERTIFICATE))
        assert_answered(["invariants", str(arr_path)])
        assert_answered(["verify", str(arr_path), "--certificate-out", str(Path(tmp) / "out.json")])
        assert_answered(["check", str(arr_path), str(cert_path)])


@FUZZ
@given(path=st.sampled_from(list(value_paths(CERTIFICATE))), value=json_values)
def test_certificate_reader_never_raises(path, value):
    data = replaced(CERTIFICATE, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        arr_path = Path(tmp) / "near_pencil5.json"
        arr_path.write_text(json.dumps(NEAR_PENCIL))
        cert_path = Path(tmp) / "near_pencil5.cert.json"
        cert_path.write_text(json.dumps(data))
        assert_answered(["check", str(arr_path), str(cert_path)])


def test_exponent_overrides_in_both_orders_are_answered():
    # every --exponents d1,d2 with small entries, each pair in both orders:
    # only sums other than n - 1 = 4 and nonpositive entries are usage errors
    with tempfile.TemporaryDirectory() as tmp:
        arr_path = Path(tmp) / "arr.json"
        arr_path.write_text(json.dumps(NEAR_PENCIL))
        out = str(Path(tmp) / "out.json")
        for d1 in range(-1, 6):
            for d2 in range(-1, 6):
                pair = f"{d1},{d2}"
                valid = min(d1, d2) >= 1 and d1 + d2 == 4
                for argv in (
                    ["verify", str(arr_path), "--exponents", pair, "--certificate-out", out],
                    ["saito", str(arr_path), "--exponents", pair],
                ):
                    code, _, _ = assert_answered(argv)
                    assert (code != 2) == valid, (argv, code)


# every number of the certificate: c, and each coefficient slot of theta1 and theta2
SLOTS = [("c", None, None)] + [
    (field, comp, mon)
    for field, d in (("theta1", NEAR_PENCIL_CERT.d1), ("theta2", NEAR_PENCIL_CERT.d2))
    for comp in range(3)
    for mon in monomial_basis(d).monomials
]


def perturbed(cert, slot, delta):
    field, comp, mon = slot
    if field == "c":
        return dataclasses.replace(cert, c=cert.c + delta)
    theta = [dict(p) for p in getattr(cert, field)]
    theta[comp][mon] = theta[comp].get(mon, 0) + delta
    theta[comp] = {e: v for e, v in theta[comp].items() if v}
    return dataclasses.replace(cert, **{field: tuple(theta)})


def oracle_accepts(arr, cert):
    """Tangency by the derivation matrix and det(E, theta1, theta2) = c * Q by expansion."""
    for theta, d in ((cert.theta1, cert.d1), (cert.theta2, cert.d2)):
        vec = [v for comp in theta for v in poly_to_vector(comp, d)]
        if any(sum(r * v for r, v in zip(row, vec)) for row in derivation_matrix(arr, d).rows):
            return False
    q = product_of_lines(arr.lines)
    return cert.c != 0 and exact_determinant(arr, cert.theta1, cert.theta2) == {e: cert.c * v for e, v in q.items()}


@FUZZ
@given(
    slot=st.sampled_from(SLOTS),
    delta=st.integers(-3, 3) | st.fractions(min_value=-5, max_value=5, max_denominator=50),
)
def test_check_agrees_with_the_expanded_determinant(slot, delta):
    cert = perturbed(NEAR_PENCIL_CERT, slot, Fraction(delta))
    with tempfile.TemporaryDirectory() as tmp:
        arr_path = Path(tmp) / "near_pencil5.json"
        arr_path.write_text(json.dumps(NEAR_PENCIL))
        cert_path = Path(tmp) / "near_pencil5.cert.json"
        cert_path.write_text(json.dumps(certificate_to_json(cert)))
        code, _, _ = assert_answered(["check", str(arr_path), str(cert_path)])
    assert code == (0 if oracle_accepts(fixtures.near_pencil(5), cert) else 1), (slot, delta)


# ---------------------------------------------------------------------------
# The file boundary: numbers around the digit bound of 10**4000
# ---------------------------------------------------------------------------

BOUND = 10**4000


def digits_long(sizes):
    """Integers with each of these numbers of digits."""
    return st.builds(lambda digits, offset: 10 ** (digits - 1) + offset, st.sampled_from(sizes), st.integers(1, 99))


# up to the bound, which a file may hold (two 2501-digit denominators clear
# to a 5001-digit canonical coefficient), and past it, past Python's 4300
# conversion digits too, only in memory
big = digits_long([1, 2, 1000, 2001, 2501, 3999, 4000])
huge = digits_long([4001, 4101, 4301, 4400])
signed = st.builds(lambda sign, v: sign * v, st.sampled_from([1, -1]), big)
rational_text = st.one_of(
    signed.map(str),
    st.builds(lambda p, q: f"{p}/{q}", signed, big),
    st.sampled_from(["0", "1", "-1", "1e3999", "-5e3999", "1e-3999", "1/3"]),
)


def fits(line):
    return all(abs(v) < BOUND for v in line.coeffs)


def lines_of(triples):
    """The canonical lines of the triples, or None when one is the zero form or two coincide."""
    try:
        return build_arrangement([canonicalize_line(*t) for t in triples])
    except ValueError:  # ZeroForm or DuplicateLine
        return None


@FUZZ
@given(triples=st.lists(st.tuples(*[st.builds(Fraction, signed | huge, big) | st.just(0)] * 3), min_size=1,
                        max_size=4))
def test_a_written_arrangement_reads_back_or_is_refused_by_name(triples):
    arr = lines_of(triples)
    if arr is None:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arr.json"
        try:
            write_arrangement(path, arr)
        except ValueError as exc:
            m = re.fullmatch(r"lines\[(\d+)\]: a coefficient has more than 4000 digits", str(exc))
            assert m, str(exc)
            i = int(m.group(1))
            assert not fits(arr.lines[i]) and all(fits(line) for line in arr.lines[:i])
            assert not path.exists()
            return
        back = read_arrangement(path)
    assert back == arr and arrangement_hash(back) == arrangement_hash(arr)


@FUZZ
@given(triples=st.lists(st.tuples(rational_text, rational_text, rational_text), min_size=1, max_size=4))
def test_an_arrangement_file_read_can_be_hashed_and_written_back(triples):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "arr.json"
        path.write_text(json.dumps({"lines": [list(t) for t in triples]}))
        try:
            arr = read_arrangement(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: "), str(exc)
            return
        digest = arrangement_hash(arr)
        write_arrangement(path, arr)
        back = read_arrangement(path)
    assert back == arr and arrangement_hash(back) == digest


@FUZZ
@given(slot=st.sampled_from([0, 1]), value=big | huge)
def test_a_written_certificate_reads_back_or_is_refused_by_name(slot, value):
    cert = dataclasses.replace(NEAR_PENCIL_CERT, **{("d1", "d2")[slot]: value})
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        try:
            write_certificate(path, cert)
        except ValueError as exc:
            assert str(exc) == f"exponents[{slot}]: a coefficient has more than 4000 digits"
            assert value >= BOUND and not path.exists()
            return
        assert read_certificate(path) == cert


# every number of CERTIFICATE: the exponents, c and each coefficient
NUMBER_PATHS = [("exponents", 0), ("exponents", 1), ("c",)] + [
    path for path in value_paths(CERTIFICATE) if path[0] in ("theta1", "theta2") and len(path) == 3
]


@FUZZ
@given(path=st.sampled_from(NUMBER_PATHS), value=rational_text | big | st.sampled_from([BOUND + 1, -(10**4100)]))
def test_a_certificate_file_read_can_be_written_back(path, value):
    with tempfile.TemporaryDirectory() as tmp:
        cert_path = Path(tmp) / "c.json"
        cert_path.write_text(json.dumps(replaced(CERTIFICATE, path, value)))
        try:
            cert = read_certificate(cert_path)
        except ValueError as exc:
            assert str(exc).startswith(f"{cert_path}: "), str(exc)
            return
        write_certificate(cert_path, cert)
        assert read_certificate(cert_path) == cert
