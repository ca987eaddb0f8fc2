"""Exact freeness certification over the rationals.

An arrangement of n lines is free with exponents (d1, d2) exactly when some
pair of tangent fields theta1, theta2 of those degrees satisfies
det(euler, theta1, theta2) = c * Q with c != 0. The lines are distinct, so Q
is squarefree, and the determinant of tangent fields is then divisible by Q
(Saito's lemma); the degrees match, so it is c * Q for a constant c, and c is
read at one point P off the arrangement (_saito_scalar). No polynomial is
expanded to decide it. Scanning basis pairs of the kernels modulo Euler
multiples therefore either produces a certificate or proves that the
bilinear map vanishes identically at these exponents, refuting freeness at
(d1, d2).

check_certificate is the one gate: a certificate file, every certificate
verify_free is given or builds, the two-pencil's, a cascade seed and a
catalog entry are accepted only when it accepts them.

Certificate files are written and read through the file codec that the
arrangement module owns (_rational_to_json, _rational_from_json,
_integer_from_json, json_object, json_entry, read_json, write_json); this
module defines no number reader, number writer or digit bound of its own, so
a certificate file holds only numbers its reader takes, exponents included.

Before any kernel, the lattice alone may already prove freeness. If the
line set minus a line H is free with exponents (a, b - 1) (or (a - 1, b))
and H meets the rest in |A^H| = a + 1 (or b + 1) points, the set is free
with exponents (a, b) by Terao's addition theorem; his deletion theorem
gives the converse. A chain of such deletions down to a triangle therefore
proves freeness (inductive freeness). The chain is found by a depth-first
descent that tries the lines in line order and undoes a step at a dead end.
In rank 3 it finds a chain exactly when the input is inductively free, so
the lattice alone decides whether an input takes the chain or the kernels,
whatever its line order. The certificate is the triangle's closed-form
one, lifted back up the chain one line at a time, and every chain
certificate, a bare triangle's included, passes one check_certificate, so
no verdict rests on the descent. Refutations always come from the kernels.

Every exact field evaluation is a Kronecker substitution: integers are
packed at a power of two K = 2^b and read off by shifts. On the line
alpha = 0 the chart (e, s, t) takes e = 0 when all three coefficients are
nonzero and otherwise the last nonzero one, with s < t the other two
coordinates (_chart); the points U + k*W with U = (x_e = -a_s, x_s = a_e,
x_t = 0) and W = (x_e = -a_t, x_s = 0, x_t = a_e) run along the line, and
theta(alpha) restricts to r(k) of degree at most d with coefficients
bounded by B = (sum_c |a_c| * |theta_c|_1) * M^d, M = max(|a_e|, |a_s| +
|a_t|) (_line_bound). With 2^(b - 1) > B, r(K) is zero exactly when r is,
and r's coefficients are the signed base-K digits of r(K). At k = K a
component F of degree d takes the value sum_i x_e^i * a_e^(d-i) * G_i,
where G_i packs F's coefficients of x_e^i x_s^j x_t^k at K^k and depends
on the line only through its chart (_packed_groups, _restriction_at).
is_tangent_field skips every line whose nonzero coefficients a_c all
meet zero components theta_c, since theta(alpha) = sum_c a_c * theta_c is
then identically zero; on the other lines it builds the groups once per
chart and spends O(d) big-integer steps on each line. A lift reads both
fields' restrictions to its one line at one K. A lift across an added
line is then one exact division of the two fields' restrictions, as the
addition theorem prescribes; no kernel is solved for it. The division tries theta1, then
theta2, and the first that divides fixes the lifted exponents, which are
unique for a free arrangement. The Saito point P = (1, K, K^2) also has
K = 2^b, so an integral field's value there is a sum of shifted
coefficients. All of it is exact integer and rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm, prod

from .arrangement import (
    Arrangement,
    Line,
    _cross,
    _integer_from_json,
    _rational_from_json,
    _rational_to_json,
    arrangement_hash,
    build_arrangement,
    intersection_summary,
    json_entry,
    json_kind,
    json_object,
    read_json,
    write_json,
)
from .derivations import (
    DegreeMismatch,
    derivation_matrix,
    null_space_exact,
)
from .monomials import Poly, basis_size, poly_from_line, poly_mul, vector_to_poly

ExactDerivation = tuple[Poly, Poly, Poly]


class InternalInconsistency(RuntimeError):
    """An exact claim that a theorem guarantees failed its exact check.

    For example, a kernel-pair, chain, lifted or two-pencil certificate
    that does not pass check_certificate (which re-derives tangency without
    the derivation matrix), or a lift that the addition theorem guarantees
    but whose division leaves a remainder. Raised only for the library's own
    outputs, it signals a bug, never a property of the input: a caller's
    certificate that fails the check gets a ValueError or a fallback.
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
    nd = basis_size(d)
    return tuple(vector_to_poly(vec[k * nd : (k + 1) * nd], d) for k in range(3))


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

    Each line alpha = (a_0, a_1, a_2) is read on its chart (e, s, t)
    (_chart), where a_e != 0: the points U + k*W, with U = (x_e = -a_s,
    x_s = a_e, x_t = 0) and W = (x_e = -a_t, x_s = 0, x_t = a_e), run along
    the line, and theta(alpha) restricts to a polynomial r(k) of degree at
    most d, zero exactly when theta is tangent to the line. One value
    decides it: at k = K = 2^bits, r(K) is zero exactly when r is, since
    2^(bits - 1) exceeds every coefficient of every line's r (_line_bound).
    _restriction_at computes r(K) from groups that depend on the chart
    only (_packed_groups), so they are built once per chart, at most three
    times a call, and each line costs 3(d + 1) small-by-packed products and
    a d-step Horner evaluation. A line whose nonzero coefficients all sit
    on zero components of theta is skipped before any of this: there
    theta(alpha) = sum_c a_c * theta_c is the zero polynomial, so theta is
    tangent to it. The field B1 d/dy of a two-pencil is thus read on its d1
    lines with a_y != 0 only. Equivalent to membership in the kernel of the
    derivation matrix, derived independently.
    """
    if not _derivation_degree_ok(theta, d):
        return False
    theta, _ = _integral(theta)
    lines = [a for a in (line.coeffs for line in arr.lines) if any(c and comp for c, comp in zip(a, theta))]
    bits = _line_bound(lines, theta, d).bit_length() + 1
    groups: dict[tuple[int, int, int], list[tuple[int, int, int]]] = {}
    for a in lines:
        chart = _chart(a)
        if chart not in groups:
            groups[chart] = _packed_groups(theta, d, chart, bits)
        if _restriction_at(groups[chart], a, chart, bits, d):
            return False
    return True


_CHARTS = ((0, 1, 2), (1, 0, 2), (2, 0, 1))


def _chart(coeffs: tuple[int, int, int]) -> tuple[int, int, int]:
    """(e, s, t), the one chart on which certify reads the line: s < t the coordinates other than e.

    e is 0 when all three coefficients are nonzero and otherwise the last
    coordinate with a nonzero coefficient, so a_e != 0 and x_s, x_t are
    coordinates on the line.
    """
    return _CHARTS[0 if all(coeffs) else 2 if coeffs[2] else 1 if coeffs[1] else 0]


def _line_bound(lines: list[tuple[int, int, int]], theta: ExactDerivation, d: int) -> int:
    """max over the lines of (sum_c |a_c| * |theta_c|_1) * M^d, M = max(|a_e|, |a_s| + |a_t|).

    On a line's chart the coordinates of U + k*W are linear in k with
    coefficient sums at most M, and the integral field theta(alpha) has
    coefficient sum at most sum_c |a_c| * |theta_c|_1, so this bounds every
    coefficient of r(k) = theta(alpha)(U + k*W) on every one of the lines.
    """
    w0, w1, w2 = (sum(abs(v) for v in comp.values()) for comp in theta)
    bound = 0
    for a in lines:
        e, s, t = _chart(a)
        m = max(abs(a[e]), abs(a[s]) + abs(a[t]))
        bound = max(bound, (abs(a[0]) * w0 + abs(a[1]) * w1 + abs(a[2]) * w2) * m**d)
    return bound


def _packed_groups(
    theta: ExactDerivation, d: int, chart: tuple[int, int, int], bits: int
) -> list[tuple[int, int, int]]:
    """(G_i of f, G_i of g, G_i of h) for i = 0..d on the chart (e, s, t).

    G_i sums v * 2^(bits * k) over a component's terms v * x_e^i x_s^j x_t^k.
    """
    e, _, t = chart
    out = [[0] * (d + 1) for _ in theta]
    for g, comp in zip(out, theta):
        for mon, v in comp.items():
            g[mon[e]] += v << (bits * mon[t])
    return list(zip(*out))


def _restriction_at(
    groups: list[tuple[int, int, int]], a: tuple[int, int, int], chart: tuple[int, int, int], bits: int, d: int
) -> int:
    """r(K) = theta(alpha)(U + K*W), K = 2^bits, for the line a on its chart, from theta's _packed_groups.

    At that point x_e = -(a_s + a_t*K), x_s = a_e and x_t = a_e*K, so a
    component F of degree d takes the value sum_i x_e^i * a_e^(d-i) * G_i,
    evaluated by Horner in x_e. When 2^(bits - 1) exceeds every coefficient
    of r (_line_bound), r(K) is zero exactly when r is, and _unpack reads
    r's coefficients off its signed base-K digits.
    """
    e, s, t = chart
    a0, a1, a2 = a
    sums = [a0 * gf + a1 * gg + a2 * gh for gf, gg, gh in groups]
    if not any(sums):
        return 0
    x_e, a_e = -(a[s] + (a[t] << bits)), a[e]
    acc, scale = sums[d], 1
    for i in reversed(range(d)):
        scale *= a_e
        acc = acc * x_e + scale * sums[i]
    return acc


def _integral(theta: ExactDerivation) -> tuple[ExactDerivation, int]:
    """theta times the lcm of its coefficient denominators, and that lcm."""
    if all(type(v) is int for comp in theta for v in comp.values()):
        return theta, 1
    den = lcm(*(Fraction(v).denominator for comp in theta for v in comp.values()))
    return tuple({e: int(v * den) for e, v in comp.items()} for comp in theta), den


def _saito_point(arr: Arrangement) -> tuple[int, int, int]:
    """P = (1, K, K^2), K = 2^b with 2^(b - 1) > max|line coefficient|: a point on no line.

    alpha(P) = a + b*K + c*K^2 has the signed base-K digits a, b, c, each of
    absolute value below K / 2 and not all zero, so it is not zero.
    """
    k = 1 << (max(abs(v) for line in arr.lines for v in line.coeffs).bit_length() + 1)
    return (1, k, k * k)


def _value_at(theta: ExactDerivation, bits: int) -> tuple[int, int, int]:
    """theta(P) at P = (1, 2^bits, 2^(2*bits)) of an integral field: sum v << bits*(j + 2k) per component."""
    return tuple(sum(v << bits * (j + 2 * k) for (_, j, k), v in comp.items()) for comp in theta)


def _det_at(bits: int, v1: tuple[int, int, int], v2: tuple[int, int, int]) -> int:
    """det(P, v1, v2) for rows P = (1, 2^bits, 2^(2*bits)), v1, v2."""
    c0, c1, c2 = _cross(v1, v2)
    return c0 + (c1 << bits) + (c2 << 2 * bits)


def _saito_scalar(arr: Arrangement, theta1: ExactDerivation, theta2: ExactDerivation) -> Fraction:
    """c = det(P, theta1(P), theta2(P)) / Q(P) at the point P of _saito_point.

    For fields tangent to every line, of degrees summing to n - 1, Saito's
    lemma gives det(E, theta1, theta2) = c * Q with c constant, Q squarefree
    because the lines are distinct, and Q(P) != 0; so this is that c, and
    the determinant is zero exactly when c is. Both fields are scaled to
    integers and read at P by shifts (_value_at). Meaningless for other
    fields: callers check tangency and degrees first.
    """
    point = _saito_point(arr)
    bits = point[1].bit_length() - 1
    (t1, s1), (t2, s2) = _integral(theta1), _integral(theta2)
    det = _det_at(bits, _value_at(t1, bits), _value_at(t2, bits))
    return Fraction(det, prod(line.evaluate(point) for line in arr.lines) * s1 * s2)


def _unpack(value: int, bits: int, count: int) -> list[int]:
    """The count signed base-2^bits digits of value, lowest first, each in [-2^(bits-1), 2^(bits-1))."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    digits = []
    for _ in range(count):
        digit = value & mask
        if digit >= half:
            digit -= 1 << bits
        digits.append(digit)
        value = (value - digit) >> bits
    if value:
        raise InternalInconsistency(f"a packed line restriction has more than {count} digits")
    return digits


def _triangle_certificate(arr: Arrangement) -> FreenessCertificate:
    """Certificate at (1, 1) of three lines with coefficient rows M, in closed form.

    The fields are theta_i = l_i * adj(M)[:, i], i = 0, 1. l_k . adj(M)[:, i]
    = det(M) when k = i and 0 otherwise, so theta_i(l_i) = det(M) l_i and
    theta_i(l_k) = 0: both fields are tangent to all three lines, and
    det(E, theta_0, theta_1) = det(M) l_0 l_1 l_2, so c = det(M). Concurrent
    lines have det(M) = 0, which check_certificate rejects.
    """
    rows = [line.coeffs for line in arr.lines]
    cols = [_cross(rows[1], rows[2]), _cross(rows[2], rows[0])]
    fields = []
    for line, col in zip(arr.lines, cols):
        alpha = poly_from_line(line.coeffs)
        fields.append(tuple({e: v * c for e, v in alpha.items()} if c else {} for c in col))
    det = sum(r * c for r, c in zip(rows[0], cols[0]))
    return FreenessCertificate(1, 1, fields[0], fields[1], Fraction(det), arrangement_hash(arr))


def verify_free(
    arr: Arrangement,
    d1: int,
    d2: int,
    witness: tuple[ExactDerivation, ExactDerivation] | None = None,
    als=None,
) -> VerificationOutcome:
    """Certify or refute freeness of the arrangement at exponents (d1, d2).

    A caller may supply a certificate to try first: a witness pair (from a
    known construction), which gets c = _saito_scalar and this arrangement's
    hash, or, without one, the certificate that als (a saito_functional
    evaluation) carries at (d1, d2), if any, taken as it is, its c and hash
    included. Either is accepted exactly when check_certificate accepts it,
    as `freelines check` accepts a file, and is then returned as given; so a
    wrong, foreign or tampered certificate can only cost its check. When
    there is none, or it fails, a descent on the lattice looks for a
    deletion chain down to a triangle, with no budget, and a chain found is
    lifted into a certificate that passes check_certificate (see
    chain_certificate). When there is no chain, the exact kernels at both
    degrees are computed, quotiented by the Euler multiples, and basis
    pairs are scanned in the kernels' RREF order, each pair once when
    d1 = d2 (det is antisymmetric). Each basis vector is integral and is
    evaluated once at the point P of _saito_point, by shifts (_value_at),
    so a pair's determinant at P is one 3x3 integer determinant; it is
    nonzero exactly when det(E, theta1, theta2) is. The first nonzero pair
    yields the certificate, with c = _saito_scalar, and it must pass
    check_certificate (InternalInconsistency otherwise); if every pair
    vanishes the bilinear map is identically zero on the kernels and
    NotFreeAtExponents is returned. So every Certified passes the same
    exact test as a certificate file.
    """
    if d1 + d2 != arr.n - 1:
        raise DegreeMismatch(f"exponents ({d1}, {d2}) do not sum to n - 1 = {arr.n - 1}")
    if not 1 <= d1 <= d2:
        raise ValueError("exponents must satisfy 1 <= d1 <= d2")
    cert = getattr(als, "certificate", None)
    if witness is not None:
        theta1, theta2 = witness
        cert = FreenessCertificate(d1, d2, theta1, theta2, _saito_scalar(arr, theta1, theta2), arrangement_hash(arr))
    supplied = isinstance(cert, FreenessCertificate) and (cert.d1, cert.d2) == (d1, d2)
    if not (supplied and check_certificate(arr, cert)[0]):
        cert = chain_certificate(arr, d1, d2)
    if cert is not None:
        return Certified(cert)
    point = _saito_point(arr)
    bits = point[1].bit_length() - 1

    def fields_at_point(d):
        fields = [vector_to_derivation(vec, d) for vec in null_space_exact(derivation_matrix(arr, d)).complement]
        return fields, [_value_at(theta, bits) for theta in fields]

    fields1, values1 = fields_at_point(d1)
    fields2, values2 = (fields1, values1) if d2 == d1 else fields_at_point(d2)
    indices = range(len(fields1)), range(len(fields2))
    pairs = list(combinations(indices[0], 2) if d1 == d2 else product(*indices))
    for i, j in pairs:
        if _det_at(bits, values1[i], values2[j]):
            c = _saito_scalar(arr, fields1[i], fields2[j])
            cert = FreenessCertificate(d1, d2, fields1[i], fields2[j], c, arrangement_hash(arr))
            return Certified(_checked(arr, cert, "kernel-pair certificate"))
    return NotFreeAtExponents(d1=d1, d2=d2, pairs_scanned=len(pairs))


def verify_arrangement(arr: Arrangement) -> VerificationOutcome:
    """verify_free at the arrangement's own candidate exponents."""
    s = intersection_summary(arr)
    if s.exponents is None:
        return NoCandidateExponents(s.no_exponent_reason)
    return verify_free(arr, s.exponents.d1, s.exponents.d2)


# ---------------------------------------------------------------------------
# Certificate re-checking
# ---------------------------------------------------------------------------


def check_certificate(arr: Arrangement, cert: FreenessCertificate) -> tuple[bool, str | None]:
    """Re-derive every certificate claim from scratch with exact arithmetic.

    Once both fields are tangent at degrees summing to n - 1 and c != 0,
    det(E, theta1, theta2) = c * Q is decided at one point by _saito_scalar.
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
    if _saito_scalar(arr, cert.theta1, cert.theta2) != cert.c:
        return False, "determinant-mismatch"
    return True, None


def _checked(arr: Arrangement, cert: FreenessCertificate, what: str, error=InternalInconsistency):
    """cert when check_certificate accepts it; otherwise raises error naming what and the failed check."""
    ok, failing = check_certificate(arr, cert)
    if not ok:
        raise error(f"{what} fails its check: {failing}")
    return cert


# ---------------------------------------------------------------------------
# Certificates lifted across one added line
# ---------------------------------------------------------------------------


def lift_certificate(
    seed: FreenessCertificate, extended: Arrangement, line: Line
) -> FreenessCertificate | None:
    """Certificate of a seed arrangement plus one line, built from the seed's by one exact division.

    Let theta_j be one seed field and theta_i the other, so det(E, theta_1,
    theta_2) = c * Q' over the seed. Then phi = alpha * theta_j is tangent
    to every line of the extension, and psi = lam * theta_i + f * theta_j,
    with f of degree e = d_i - d_j, is tangent to the new line alpha = 0
    exactly when lam * r_i + f|_H * r_j = 0, r_i and r_j the restrictions
    of theta_i(alpha) and theta_j(alpha) to the line, both taken on the
    line's chart (e, s, t) (_chart) as polynomials in k at the points
    U + k*W. Both are read at k = K = 2^bits, with one bits for both fields
    (_line_bound, _restriction_at), and _unpack reads their coefficients
    off the signed base-K digits. So a lift through theta_j exists exactly
    when r_j divides r_i with a quotient q of degree at most
    e = d_i - d_j (_exact_quotient; r_i = 0 gives f = 0). On the chart
    x_s = a_e and x_t = a_e * k, so f = sum_p f_p * x_s^(e-p) * x_t^p
    restricts to a_e^e * sum_p f_p * k^p, and f_p = -lam * q_p / a_e^e,
    with lam the lcm of the denominators of the q_p / a_e^e.
    det(E, phi, psi) = +-lam * c * Q, so for a valid seed a division that
    succeeds always gives a valid certificate, at exponents (d_j + 1, d_i).

    theta_1 is tried first, then theta_2. The exponents of a free
    arrangement are unique, so when d_1 < d_2 at most one of the two
    divides: the one Terao's addition theorem names by |A''|, which
    guarantees that it does when the extension is free. When d_1 = d_2 both
    reach (d_1, d_1 + 1). None means neither divides. The result is not
    re-checked: callers gate it with check_certificate.
    """
    thetas, scales = zip(*(_integral(t) for t in (seed.theta1, seed.theta2)))
    degs = (seed.d1, seed.d2)
    a = line.coeffs
    chart = _chart(a)
    bits = max(_line_bound([a], theta, d) for theta, d in zip(thetas, degs)).bit_length() + 1
    r = [_unpack(_restriction_at(_packed_groups(theta, d, chart, bits), a, chart, bits, d), bits, d + 1)
         for theta, d in zip(thetas, degs)]
    for j, i in ((0, 1), (1, 0)):
        dj, di = degs[j], degs[i]
        e = di - dj
        q = _exact_quotient(r[i], r[j], e)
        if q is not None:
            break
    else:
        return None
    _, s, t = chart
    terms = [-qp / a[chart[0]] ** e for qp in q]
    lam = lcm(*(v.denominator for v in terms))
    f: Poly = {}
    for p, v in enumerate(terms):
        if v:
            mon = [0, 0, 0]
            mon[s], mon[t] = e - p, p
            f[tuple(mon)] = int(v * lam)
    alpha = poly_from_line(line.coeffs)
    phi = tuple(poly_mul(alpha, comp) for comp in thetas[j])
    psi = []
    for comp_i, comp_j in zip(thetas[i], thetas[j]):
        comp = {m: lam * v for m, v in comp_i.items()}
        for m, v in poly_mul(f, comp_j).items():
            comp[m] = comp.get(m, 0) + v
        psi.append({m: v for m, v in comp.items() if v})
    # det(E, phi, psi) = alpha * lam * det(E, theta_j, theta_i)
    c = Fraction(seed.c) * lam * scales[0] * scales[1] * (1 if j == 0 else -1)
    if dj + 1 <= di:
        return FreenessCertificate(dj + 1, di, phi, tuple(psi), c, arrangement_hash(extended))
    return FreenessCertificate(di, dj + 1, tuple(psi), phi, -c, arrangement_hash(extended))


def _exact_quotient(num: list, den: list, e: int) -> list[Fraction] | None:
    """q with num = q * den and deg q <= e, lowest coefficient first; None when there is none.

    Coefficient lists are lowest first and may end in zeros; the quotient
    has no trailing zero, so a zero numerator gives []. A zero denominator
    divides only a zero numerator.
    """
    while num and not num[-1]:
        num = num[:-1]
    while den and not den[-1]:
        den = den[:-1]
    if not num:
        return []
    if not den or len(num) < len(den) or len(num) - len(den) > e:
        return None
    rem = [Fraction(v) for v in num]
    q = [Fraction(0)] * (len(num) - len(den) + 1)
    for p in reversed(range(len(q))):
        q[p] = rem[p + len(den) - 1] / den[-1]
        for k, v in enumerate(den):
            rem[p + k] -= q[p] * v
    return None if any(rem) else q


# ---------------------------------------------------------------------------
# Deletion chains (inductive freeness)
# ---------------------------------------------------------------------------


def _deletion_chain(arr: Arrangement, d1: int, d2: int) -> list[int] | None:
    """Indices of the lines to delete, first to last, down to a triangle, read off the lattice.

    From a line set with exponents (a, b), a line meeting the others in
    a + 1 points may go, leaving (a, b - 1), and one meeting them in b + 1
    points leaves (a - 1, b); the smaller exponent stays at least 1. The
    exponents are tracked only to decide which lines qualify: the lift
    back up reads them off its divisions. |A^H| is counted on the points
    of each line that LatticeSummary.line_points gives. The search is
    depth-first in line order and undoes a step only at a dead end, so
    where deleting the first qualifying line each time reaches a triangle
    it returns that chain. In rank 3 every restriction is free, so the
    |A^H| count is the whole condition of the addition theorem, and None
    means exactly that the input is not inductively free (Orlik-Terao, ch. 4).
    """
    s = intersection_summary(arr)
    # Deleting H lowers b2 by |A^H|, so every set on the way keeps
    # b2 = |set| - 1 + a*b with a + b = |set| - 1, so a set fixes (a, b) and
    # one that failed once fails on every path; three lines at (1, 1) have
    # b2 = 3, a triangle.
    if s.b2 != arr.n - 1 + d1 * d2:
        return None
    on = s.line_points()
    failed: set[int] = set()  # bitmasks of line sets with no chain

    def descend(mask: int, a: int, b: int) -> list[int] | None:
        if mask.bit_count() == 3:
            return []
        if mask in failed:
            return None
        for k in range(arr.n):
            rest = mask & ~(1 << k)
            if rest == mask:
                continue
            m = sum(1 for p in on[k] if p & rest)  # |A^H| within the set
            if m not in (a + 1, b + 1):
                continue
            lo, hi = sorted((a, b - 1) if m == a + 1 else (a - 1, b))
            if lo >= 1 and (chain := descend(rest, lo, hi)) is not None:
                return [k, *chain]
        failed.add(mask)
        return None

    return descend((1 << arr.n) - 1, d1, d2)


def chain_certificate(arr: Arrangement, d1: int, d2: int) -> FreenessCertificate | None:
    """A certificate at exponents 1 <= d1 <= d2 from a deletion chain, or None when there is none.

    The triangle at the bottom of the chain gets its closed-form
    certificate; each deleted line is then added back, last deleted first,
    by lift_certificate, whose division the addition theorem guarantees to
    succeed and which reads each step's exponents off that division. The
    final certificate, a bare triangle's included, passes one
    check_certificate; a failure raises InternalInconsistency. None means the
    input is not inductively free (_deletion_chain) or 1 <= d1 <= d2 fails.
    """
    if not 1 <= d1 <= d2:
        return None
    chain = _deletion_chain(arr, d1, d2)
    if chain is None:
        return None
    lines = [line for k, line in enumerate(arr.lines) if k not in chain]
    cert = _triangle_certificate(build_arrangement(lines))
    for k in reversed(chain):
        lines.append(arr.lines[k])
        cert = lift_certificate(cert, build_arrangement(lines), arr.lines[k])
        if cert is None:
            raise InternalInconsistency(f"no lift across {arr.lines[k].coeffs} on a deletion chain")
    return _checked(arr, cert, "certificate built on a deletion chain")


# ---------------------------------------------------------------------------
# Certificate files
# ---------------------------------------------------------------------------


def _poly_to_json(p: Poly, what: str) -> dict[str, str]:
    return {
        "%d,%d,%d" % e: _rational_to_json(v, what)
        for e, v in sorted(p.items(), reverse=True)
    }


def _poly_from_json(data: dict, what: str) -> Poly:
    out: Poly = {}
    for key, val in json_object(data, what).items():
        try:
            e = tuple(int(x) for x in key.split(","))
        except ValueError:
            e = ()
        if len(e) != 3 or min(e) < 0:
            raise ValueError(f"{what}: monomial {key!r} is not three nonnegative exponents")
        try:
            v = _rational_from_json(val, what)
        except ValueError:
            # the entry is named only on refusal, by the same read again
            _rational_from_json(val, f"{what}[{key!r}]")
            raise
        if v:
            out[e] = v if v.denominator != 1 else int(v)
    return out


def _theta_from_json(data: dict, key: str) -> ExactDerivation:
    theta = json_object(json_entry(data, key, "certificate"), key)
    return tuple(_poly_from_json(json_entry(theta, name, key), f"{key}.{name}") for name in "fgh")


def certificate_to_json(cert: FreenessCertificate) -> dict:
    """JSON form of a certificate, every number by _rational_to_json; ValueError naming a number too long to read."""
    return {
        "exponents": [_rational_to_json(cert.d1, "exponents[0]"), _rational_to_json(cert.d2, "exponents[1]")],
        "theta1": {
            name: _poly_to_json(comp, f"theta1.{name}")
            for name, comp in zip("fgh", cert.theta1)
        },
        "theta2": {
            name: _poly_to_json(comp, f"theta2.{name}")
            for name, comp in zip("fgh", cert.theta2)
        },
        "c": _rational_to_json(cert.c, "c"),
        "arrangement_hash": cert.arrangement_hash,
    }


def certificate_from_json(data: dict) -> FreenessCertificate:
    """Certificate from its JSON form; a malformed shape raises ValueError naming the entry and its json_kind."""
    json_object(data, "certificate")
    exponents = json_entry(data, "exponents", "certificate")
    if not isinstance(exponents, list) or len(exponents) != 2:
        raise ValueError(f"exponents: expected a list of two, got {json_kind(exponents)}")
    d1, d2 = (_integer_from_json(x, f"exponents[{i}]") for i, x in enumerate(exponents))
    theta1 = _theta_from_json(data, "theta1")
    theta2 = _theta_from_json(data, "theta2")
    c = Fraction(_rational_from_json(json_entry(data, "c", "certificate"), "c"))
    digest = json_entry(data, "arrangement_hash", "certificate")
    if not isinstance(digest, str):
        raise ValueError(f"arrangement_hash: expected a JSON string, got {json_kind(digest)}")
    return FreenessCertificate(d1=d1, d2=d2, theta1=theta1, theta2=theta2, c=c, arrangement_hash=digest)


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
    """Write the certificate's JSON; a certificate that cannot be written leaves no file."""
    write_json({path: certificate_to_json(cert)})


def read_certificate(path) -> FreenessCertificate:
    """The certificate in the JSON file at path; a bad file raises ValueError naming path."""
    return read_json(path, certificate_from_json)
