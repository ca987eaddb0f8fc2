import dataclasses
from fractions import Fraction

import pytest

from freelines.arrangement import build_arrangement, canonicalize_line
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
    verify_arrangement,
    verify_free,
    write_certificate,
)
from freelines.derivations import DegreeMismatch
from freelines.monomials import product_of_lines
from freelines.saito import saito_functional


def disjoint_pencils():
    """Five lines through [0:0:1] plus two through [1:0:0]; not free at (3,3).

    A b2-preserving mutation of the 7-line two-pencil: same n, same b2 = 15,
    same candidate exponents, but no shared line between the pencils.
    """
    rows = [(1, 0, 0), (1, -1, 0), (1, -2, 0), (1, -3, 0), (1, -4, 0), (0, 1, -1), (0, 1, -2)]
    return build_arrangement([canonicalize_line(*r) for r in rows])


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


def test_refutation_disjoint_pencils():
    arr = disjoint_pencils()
    out = verify_free(arr, 3, 3)
    assert isinstance(out, NotFreeAtExponents)
    assert out.pairs_scanned >= 1
    loss = saito_functional(arr, 3, 3).loss
    assert loss > 0.05


def test_verify_arrangement_no_exponents(generic4):
    out = verify_arrangement(generic4)
    assert isinstance(out, NoCandidateExponents)
    assert out.reason == "delta-negative"


def test_tampered_scalar_detected(boolean):
    cert = verify_free(boolean, 1, 1).certificate
    bad = dataclasses.replace(cert, c=cert.c * 2)
    ok, failing = check_certificate(boolean, bad)
    assert not ok and failing == "determinant-mismatch"


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


def test_verify_free_validates_exponents(boolean):
    with pytest.raises(DegreeMismatch):
        verify_free(boolean, 1, 2)


def test_verify_accepts_als_rationalization(near_pencil5):
    # als is accepted and ignored: the certificate is the pair scan's
    ev = saito_functional(near_pencil5, 1, 3)
    out = verify_free(near_pencil5, 1, 3, als=ev)
    assert isinstance(out, Certified)
    assert out == verify_free(near_pencil5, 1, 3)
    assert check_certificate(near_pencil5, out.certificate) == (True, None)
