"""Exact freeness certification over the rationals.

An arrangement of n lines is free with exponents (d1, d2) exactly when some
pair of tangent fields theta1, theta2 of those degrees satisfies
det(euler, theta1, theta2) = c * Q with c != 0. The determinant of tangent
fields is always divisible by Q, and the degrees match, so any nonzero
determinant over the kernels is automatically proportional to Q: scanning
basis pairs of the kernels modulo Euler multiples therefore either produces a
certificate or proves that the bilinear map vanishes identically at these
exponents, refuting freeness at (d1, d2).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from . import exactlinalg
from .arrangement import (
    Arrangement,
    Line,
    arrangement_hash,
    candidate_exponents,
    no_exponent_reason,
)
from .derivations import (
    DegreeMismatch,
    _binary_form_power,
    _conv,
    derivation_matrix,
    line_kernel_basis,
    null_space_exact,
)
from .monomials import (
    Poly,
    monomial_basis,
    poly_equal_upto_scalar,
    poly_from_line,
    poly_mul,
    product_of_lines,
)

ExactDerivation = tuple[Poly, Poly, Poly]


class InternalInconsistency(RuntimeError):
    """A nonzero kernel-pair determinant failed to be proportional to Q.

    This contradicts the divisibility of Saito determinants by the defining
    polynomial and signals a bug, never a property of the input.
    """


@dataclass(frozen=True)
class FreenessCertificate:
    d1: int
    d2: int
    theta1: ExactDerivation
    theta2: ExactDerivation
    c: Fraction
    arrangement_hash: str


@dataclass(frozen=True)
class Certified:
    certificate: FreenessCertificate


@dataclass(frozen=True)
class NotFreeAtExponents:
    """All kernel basis pairs had zero determinant at these exponents.

    By bilinearity the determinant map is then identically zero on the
    kernels, so no free basis of these degrees exists. Nothing is claimed
    about other exponent pairs.
    """

    d1: int
    d2: int
    pairs_scanned: int


@dataclass(frozen=True)
class NoCandidateExponents:
    reason: str


VerificationOutcome = Certified | NotFreeAtExponents | NoCandidateExponents


def vector_to_derivation(vec, d: int) -> ExactDerivation:
    """Split a stacked coefficient vector into (f, g, h) polynomial dicts."""
    mons = monomial_basis(d).monomials
    nd = len(mons)
    f = {m: v for m, v in zip(mons, vec[:nd]) if v}
    g = {m: v for m, v in zip(mons, vec[nd : 2 * nd]) if v}
    h = {m: v for m, v in zip(mons, vec[2 * nd :]) if v}
    return f, g, h


def _derivation_degree_ok(theta: ExactDerivation, d: int) -> bool:
    return all(sum(e) == d for comp in theta for e in comp)


def exact_determinant(arr: Arrangement, theta1: ExactDerivation, theta2: ExactDerivation) -> Poly:
    """x(g1 h2 - g2 h1) - y(f1 h2 - f2 h1) + z(f1 g2 - f2 g1), exactly.

    The inputs must be homogeneous with degrees summing to n - 1 so the
    result lives in degree n.
    """
    d1 = next((sum(e) for comp in theta1 for e in comp), None)
    d2 = next((sum(e) for comp in theta2 for e in comp), None)
    if d1 is not None and d2 is not None and d1 + d2 != arr.n - 1:
        raise DegreeMismatch(f"derivation degrees {d1} + {d2} != n - 1 = {arr.n - 1}")
    return exact_determinant_from_parts(theta1, theta2)


def is_tangent_field(arr: Arrangement, theta: ExactDerivation, d: int) -> bool:
    """Exact check that alpha | theta(alpha) for every line of the arrangement.

    Restricts theta(alpha) to a parameterization s*u + t*w of each line and
    requires the resulting binary form to vanish identically; equivalent to
    membership in the kernel of the derivation matrix, derived independently.
    """
    if not _derivation_degree_ok(theta, d):
        return False
    theta, _ = _integral(theta)
    return not any(any(_restricted_form(theta, line, d)) for line in arr.lines)


def _integral(theta: ExactDerivation) -> tuple[ExactDerivation, int]:
    """theta times the lcm of its coefficient denominators, and that lcm."""
    if all(type(v) is int for comp in theta for v in comp.values()):
        return theta, 1
    den = lcm(*(Fraction(v).denominator for comp in theta for v in comp.values()))
    return tuple({e: int(v * den) for e, v in comp.items()} for comp in theta), den


def _restricted_form(theta: ExactDerivation, line: Line, d: int) -> list[int]:
    """theta(alpha) at s*u + t*w on the line alpha = 0, by the power of s.

    theta has degree d and integer coefficients; it is tangent to the line
    exactly when every one of the d + 1 coefficients is zero.
    """
    combined: dict = {}
    for comp, weight in zip(theta, line.coeffs):
        if weight:
            for e, v in comp.items():
                combined[e] = combined.get(e, 0) + weight * v
    u, w = line_kernel_basis(line)
    out = [0] * (d + 1)
    for e, v in combined.items():
        if v:
            for p, fv in enumerate(_binary_monomial(u, w, e)):
                if fv:
                    out[p] += v * fv
    return out


def _binary_monomial(u, w, exps) -> list[int]:
    """Coefficients of the monomial x^e1 y^e2 z^e3 at s*u + t*w, by the power of s."""
    p = _conv(_binary_form_power(u[0], w[0], exps[0]), _binary_form_power(u[1], w[1], exps[1]))
    return _conv(p, _binary_form_power(u[2], w[2], exps[2]))


def _check_pair(
    arr: Arrangement,
    q_poly: Poly,
    d1: int,
    d2: int,
    theta1: ExactDerivation,
    theta2: ExactDerivation,
) -> FreenessCertificate | None:
    det = exact_determinant(arr, theta1, theta2)
    if not det:
        return None
    c = poly_equal_upto_scalar(det, q_poly)
    if c is None:
        raise InternalInconsistency(
            "nonzero determinant of tangent fields is not proportional to the "
            "defining polynomial"
        )
    return FreenessCertificate(
        d1=d1,
        d2=d2,
        theta1=theta1,
        theta2=theta2,
        c=c,
        arrangement_hash=arrangement_hash(arr),
    )


def _bit_size(vec) -> int:
    return sum(abs(v).bit_length() for v in vec)


def verify_free(
    arr: Arrangement,
    d1: int,
    d2: int,
    witness: tuple[ExactDerivation, ExactDerivation] | None = None,
    als=None,
) -> VerificationOutcome:
    """Certify or refute freeness of the arrangement at exponents (d1, d2).

    A caller-supplied witness pair (from a known construction) is tried
    first and re-checked exactly, so it can only speed things up. Otherwise
    the exact kernels at both degrees are computed, quotiented by the Euler
    multiples, and basis pairs are scanned in order of increasing coefficient
    size. The first nonzero determinant yields the certificate; if every pair
    vanishes the bilinear map is identically zero on the kernels and
    NotFreeAtExponents is returned. als has no effect; it is accepted only
    for existing callers.
    """
    if d1 + d2 != arr.n - 1:
        raise DegreeMismatch(f"exponents ({d1}, {d2}) do not sum to n - 1 = {arr.n - 1}")
    if not 1 <= d1 <= d2:
        raise ValueError("exponents must satisfy 1 <= d1 <= d2")
    q_poly = product_of_lines(arr.lines)
    if witness is not None:
        theta1, theta2 = witness
        if is_tangent_field(arr, theta1, d1) and is_tangent_field(arr, theta2, d2):
            cert = _check_pair(arr, q_poly, d1, d2, theta1, theta2)
            if cert is not None:
                return Certified(cert)
    basis1 = null_space_exact(derivation_matrix(arr, d1))
    basis2 = basis1 if d2 == d1 else null_space_exact(derivation_matrix(arr, d2))
    comp1 = basis1.complement
    comp2 = basis2.complement
    order1 = sorted(range(len(comp1)), key=lambda i: _bit_size(comp1[i]))
    order2 = sorted(range(len(comp2)), key=lambda j: _bit_size(comp2[j]))
    pairs_scanned = 0
    for i in order1:
        for j in order2:
            if d1 == d2 and i >= j:
                continue  # antisymmetric in the equal-degree case
            pairs_scanned += 1
            theta1 = vector_to_derivation(comp1[i], d1)
            theta2 = vector_to_derivation(comp2[j], d2)
            cert = _check_pair(arr, q_poly, d1, d2, theta1, theta2)
            if cert is not None:
                return Certified(cert)
    return NotFreeAtExponents(d1=d1, d2=d2, pairs_scanned=pairs_scanned)


def verify_arrangement(arr: Arrangement, witness=None) -> VerificationOutcome:
    """verify_free at the arrangement's own candidate exponents."""
    exps = candidate_exponents(arr)
    if exps is None:
        return NoCandidateExponents(no_exponent_reason(arr))
    return verify_free(arr, exps.d1, exps.d2, witness=witness)


# ---------------------------------------------------------------------------
# Certificate re-checking
# ---------------------------------------------------------------------------


def check_certificate(arr: Arrangement, cert: FreenessCertificate) -> tuple[bool, str | None]:
    """Re-derive every certificate claim from scratch with exact arithmetic.

    Returns (True, None) or (False, name-of-first-failing-check).
    """
    if cert.arrangement_hash != arrangement_hash(arr):
        return False, "hash-mismatch"
    if cert.d1 + cert.d2 != arr.n - 1:
        return False, "exponent-sum"
    if not 1 <= cert.d1 <= cert.d2:
        return False, "exponent-order"
    if not is_tangent_field(arr, cert.theta1, cert.d1):
        return False, "theta1-kernel"
    if not is_tangent_field(arr, cert.theta2, cert.d2):
        return False, "theta2-kernel"
    if cert.c == 0:
        return False, "scalar-zero"
    det = exact_determinant(arr, cert.theta1, cert.theta2)
    q_poly = product_of_lines(arr.lines)
    c = Fraction(cert.c)
    for e in det.keys() | q_poly.keys():
        if det.get(e, 0) * c.denominator != c.numerator * q_poly.get(e, 0):
            return False, "determinant-mismatch"
    return True, None


# ---------------------------------------------------------------------------
# Certificates lifted across one added line
# ---------------------------------------------------------------------------


def lift_certificate(
    seed: FreenessCertificate, extended: Arrangement, line: Line, multiplied: int
) -> FreenessCertificate | None:
    """Certificate of a seed arrangement plus one line, built from the seed's.

    Let theta_j be the seed field with index multiplied (0 or 1) and theta_i
    the other, so det(E, theta_1, theta_2) = c * Q' over the seed. Then
    phi = alpha * theta_j is tangent to every line of the extension, and
    psi = lam * theta_i + f * theta_j, with f of degree d_i - d_j, is tangent
    to the new line alpha = 0 exactly when (lam, f) lies in the kernel of a
    (d_i + 1)-row integer system. det(E, phi, psi) = +-lam * c * Q, so a
    kernel vector with lam != 0 gives the certificate; None means there is
    none. The result must pass check_certificate, or InternalInconsistency
    is raised.
    """
    thetas, scales = zip(*(_integral(t) for t in (seed.theta1, seed.theta2)))
    j, i = multiplied, 1 - multiplied
    degs = (seed.d1, seed.d2)
    dj, di = degs[j], degs[i]
    mons = monomial_basis(di - dj).monomials if di >= dj else ()
    u, w = line_kernel_basis(line)
    r_j = _restricted_form(thetas[j], line, dj)
    cols = [_restricted_form(thetas[i], line, di)]
    cols += [_conv(_binary_monomial(u, w, m), r_j) for m in mons]
    kernel = exactlinalg.kernel_basis([list(r) for r in zip(*cols)], len(cols))
    vec = next((v for v in kernel if v[0]), None)
    if vec is None:
        return None
    lam, f = vec[0], dict(zip(mons, vec[1:]))
    alpha = poly_from_line(line.coeffs)
    phi = tuple(poly_mul(alpha, comp) for comp in thetas[j])
    psi = []
    for comp_i, comp_j in zip(thetas[i], thetas[j]):
        comp = {e: lam * v for e, v in comp_i.items()}
        for e, v in poly_mul(f, comp_j).items():
            comp[e] = comp.get(e, 0) + v
        psi.append({e: v for e, v in comp.items() if v})
    # det(E, phi, psi) = alpha * lam * det(E, theta_j, theta_i)
    c = Fraction(seed.c) * lam * scales[0] * scales[1] * (1 if j == 0 else -1)
    if dj + 1 <= di:
        d1, d2, theta1, theta2 = dj + 1, di, phi, tuple(psi)
    else:
        d1, d2, theta1, theta2, c = di, dj + 1, tuple(psi), phi, -c
    cert = FreenessCertificate(d1, d2, theta1, theta2, c, arrangement_hash(extended))
    ok, failing = check_certificate(extended, cert)
    if not ok:
        raise InternalInconsistency(f"lifted certificate fails its re-check: {failing}")
    return cert


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------


def _poly_to_json(p: Poly) -> dict[str, str]:
    return {
        ",".join(str(x) for x in e): str(Fraction(v))
        for e, v in sorted(p.items(), reverse=True)
    }


def _json_object(data, what: str) -> dict:
    if not isinstance(data, dict):
        raise ValueError(f"{what}: expected a JSON object, got {type(data).__name__}")
    return data


def _rational_from_json(val, what: str) -> Fraction:
    try:
        return Fraction(str(val))
    except ZeroDivisionError as exc:
        raise ValueError(f"{what}: {val!r} has a zero denominator") from exc


def _poly_from_json(data: dict, what: str) -> Poly:
    out: Poly = {}
    for key, val in _json_object(data, what).items():
        e = tuple(int(x) for x in key.split(","))
        if len(e) != 3 or min(e) < 0:
            raise ValueError(f"{what}: monomial {key!r} is not three nonnegative exponents")
        v = _rational_from_json(val, f"{what}[{key!r}]")
        if v:
            out[e] = v if v.denominator != 1 else int(v)
    return out


def _theta_from_json(data: dict, key: str) -> ExactDerivation:
    theta = _json_object(data[key], key)
    return tuple(_poly_from_json(theta[name], f"{key}.{name}") for name in "fgh")


def certificate_to_json(cert: FreenessCertificate) -> dict:
    return {
        "exponents": [str(cert.d1), str(cert.d2)],
        "theta1": {
            name: _poly_to_json(comp)
            for name, comp in zip("fgh", cert.theta1)
        },
        "theta2": {
            name: _poly_to_json(comp)
            for name, comp in zip("fgh", cert.theta2)
        },
        "c": str(Fraction(cert.c)),
        "arrangement_hash": cert.arrangement_hash,
    }


def certificate_from_json(data: dict) -> FreenessCertificate:
    """Certificate from its JSON form; a malformed shape raises ValueError."""
    _json_object(data, "certificate")
    exponents = data["exponents"]
    if not isinstance(exponents, list) or len(exponents) != 2:
        raise ValueError(f"exponents: expected a list of two, got {exponents!r}")
    d1, d2 = (int(str(x)) for x in exponents)
    theta1 = _theta_from_json(data, "theta1")
    theta2 = _theta_from_json(data, "theta2")
    c = _rational_from_json(data["c"], "c")
    return FreenessCertificate(
        d1=d1, d2=d2, theta1=theta1, theta2=theta2, c=c,
        arrangement_hash=str(data["arrangement_hash"]),
    )


def exact_determinant_from_parts(theta1: ExactDerivation, theta2: ExactDerivation) -> Poly:
    """Determinant expansion without an arrangement degree check."""
    f1, g1, h1 = theta1
    f2, g2, h2 = theta2
    out: Poly = {}
    for var, terms, sign in (
        ((1, 0, 0), (g1, h2, h1, g2), 1),
        ((0, 1, 0), (f1, h2, h1, f2), -1),
        ((0, 0, 1), (f1, g2, g1, f2), 1),
    ):
        p1, q1, p2, q2 = terms
        bracket = poly_mul(p1, q1)
        for e, v in poly_mul(p2, q2).items():
            w = bracket.get(e, 0) - v
            if w:
                bracket[e] = w
            else:
                bracket.pop(e, None)
        for e, v in bracket.items():
            key = (e[0] + var[0], e[1] + var[1], e[2] + var[2])
            w = out.get(key, 0) + sign * v
            if w:
                out[key] = w
            else:
                out.pop(key, None)
    return out


def write_certificate(path, cert: FreenessCertificate) -> None:
    with open(path, "w") as fh:
        json.dump(certificate_to_json(cert), fh, indent=2)
        fh.write("\n")


def read_certificate(path) -> FreenessCertificate:
    with open(path) as fh:
        return certificate_from_json(json.load(fh))
