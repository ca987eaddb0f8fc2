"""Derivation matrices, their null spaces, and the bilinear determinant tensor.

A degree-d polynomial vector field theta = f dx + g dy + h dz is encoded by the
stacked coefficient vector (f, g, h) of length 3*N_d in the graded-lex monomial
basis. theta is tangent to every line of an arrangement exactly when its
coefficient vector lies in the kernel of the integer derivation matrix built
here: for each line, restricting theta(alpha) to a parameterization of the line
must give the identically-zero binary form, one linear constraint per
coefficient. The matrix's rows are built only when read, by the tests, which
keep them as the oracle of every kernel.

Every space is built from generator fields (theta_j, e_j), theta_j of degree
e_j, by one rule: its vectors are the multiples m * theta_j over the monomials
m of degree d - e_j (_multiples), and its rows are, for each line, the d + 1
coefficients of alpha(sum g_j theta_j) restricted to the line
(_constraint_rows). The Euler field E gives the Euler multiples; the point p
and eta_p the pencil's vectors and rows (null_space_exact); theta1 and theta2
a certificate's basis (null_space_from_fields); dx, dy and dz the derivation
matrix.

Float code never decides a nullity. A null space comes from one of two exact
sources, both by Saito's criterion. null_space_exact solves D(A)_d inside
the free pencil of lines through a point of top multiplicity, whose basis
is explicit, so only the lines off that point are eliminated, on about a
third of the matrix's columns. For a free arrangement with a checked
certificate (theta1, theta2, c != 0), the criterion gives D(A)_d =
S_{d-1} E (+) S_{d-d1} theta1 (+) S_{d-d2} theta2 with no elimination at
all (null_space_from_fields). The loss needs no basis: it is read off
verify_free's verdict. The exact kernel serves verify_free's pair scan,
and the float bases (null_space_float on the kernel,
null_space_from_fields on a certificate) feed the float evaluator that the
tests keep as an independent oracle. Either way one routine
(_orthonormal_basis) orthonormalizes exact spanning vectors, Euler multiples
first, so the trailing columns span the kernel modulo Euler multiples.
det(E, E', theta) = 0 for every Euler multiple E', so the Saito tensor loses
nothing when it is built on those columns alone.

The Saito tensor expands det(E, theta_1, theta_2) over every pair of columns
of two null bases in one pass: with z = 1 each block becomes a bivariate
polynomial on an (n+1) x (n+1) grid, and the determinant is a triple product
of 2-D FFT spectra at each frequency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import exactlinalg
from .arrangement import Arrangement, Line, _normalize_triple, intersection_summary, mask_point
from .exactlinalg import np
from .monomials import Poly, basis_size, monomial_basis, poly_to_vector, product_of_lines


class DegreeMismatch(ValueError):
    pass


def line_kernel_basis(line: Line) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Two primitive integer vectors spanning the plane alpha = 0.

    Deterministic rule: u = (-b, a, 0), w = (-c, 0, a) when a != 0, axis-based
    choices otherwise, each gcd-reduced and sign-normalized.
    """
    a, b, c = line.coeffs
    if a != 0:
        u = _normalize_triple(-b, a, 0)
        w = _normalize_triple(-c, 0, a)
    elif b != 0:
        u = (1, 0, 0)
        w = _normalize_triple(0, -c, b)
    else:
        u = (1, 0, 0)
        w = (0, 1, 0)
    return u, w


@dataclass(frozen=True)
class DerivationMatrix:
    """Integer constraint matrix whose kernel is D(A)_d; shape n(d+1) x 3*N_d.

    Its identity is (arrangement, degree), which determine the rows: equality
    and hashing, and so every cached lookup keyed by the matrix, never touch
    the rows. null_space_exact needs only that identity, so the rows are
    built on first access, as an oracle for the tests.
    """

    arrangement: Arrangement
    degree: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.arrangement.n * (self.degree + 1), 3 * basis_size(self.degree))

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """d + 1 rows a line, in line order: the restriction rows (_constraint_rows) of dx, dy, dz.

        With the line alpha = a x + b y + c z parametrized as s*u + t*w by
        its line_kernel_basis, row p holds the s^p coefficients of
        alpha(f, g, h) restricted to the line, so column (block, m) carries
        the block's coefficient of alpha times that of m(s*u + t*w).
        """
        return tuple(map(tuple, _constraint_rows(self.arrangement, self.degree, COORDINATE_FIELDS)[0]))


def _binary_form_powers(u: int, w: int, d: int) -> list[tuple[int, list[int]]]:
    """(s*u + t*w)^e for e = 0..d, each as (low, coeffs): coeffs[i] is the coefficient of s^(low + i).

    When u or w is zero the power is the single term u^e s^e or w^e t^e.
    """
    if u and w:
        return [(0, [math.comb(e, r) * u**r * w ** (e - r) for r in range(e + 1)]) for e in range(d + 1)]
    return [(e, [u**e]) if u else (0, [w**e]) for e in range(d + 1)]


def _restrictions(line: Line, e: int) -> list[tuple[int, list[int]]]:
    """m(s*u + t*w) for each monomial m of basis(e), in basis order, with (u, w) the line_kernel_basis.

    Each is (low, coeffs): coeffs[i] is the coefficient of s^(low + i).
    The restriction has a closed form. At most one coordinate of s*u + t*w
    has both an s term and a t term (x, when a != 0); every other one is a
    single term, c*s or c*t, or zero. So x^e1 y^e2 z^e3 restricts to a
    monomial, the product of the single-term powers, times one binomial
    power, read off the line's _binary_form_powers table of the two-term
    coordinate; a zero product gives an empty coeffs. On a line through a
    coordinate point (a coefficient zero) every coordinate is a single term,
    and so is every restriction.
    """
    u, w = line_kernel_basis(line)
    # the coordinate with both an s and a t term, if any, is the only one expanded
    two = next((i for i in range(3) if u[i] and w[i]), 0)
    one, other = (i for i in range(3) if i != two)
    binomial = _binary_form_powers(u[two], w[two], e)
    # a single-term coordinate to the power k: (power of s, coefficient)
    first, second = ([(k, u[i] ** k) if u[i] else (0, w[i] ** k) for k in range(e + 1)] for i in (one, other))
    out = []
    for m in monomial_basis(e).monomials:
        k1, c1 = first[m[one]]
        k2, c2 = second[m[other]]
        low, coeffs = binomial[m[two]]
        scale = c1 * c2
        out.append((k1 + k2 + low, [scale * v for v in coeffs] if scale else []))
    return out


def _constant_field(v) -> tuple[Poly, Poly, Poly]:
    """The degree-0 field v[0] dx + v[1] dy + v[2] dz."""
    return tuple({(0, 0, 0): c} if c else {} for c in v)


# generator fields, as (f, g, h) polynomial dicts: the Euler field, of degree 1,
# and dx, dy, dz, of degree 0, whose multiples are the unit stacked vectors
EULER = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})
COORDINATE_FIELDS = tuple((_constant_field(v), 0) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def _multiples(theta, e: int, d: int) -> list[list[tuple[int, object]]]:
    """m * theta for each monomial m of basis(d - e), in basis order; none when e > d.

    theta is a field of degree e. Each multiple is given by the nonzero
    entries of its stacked vector at degree d, as (position, coefficient).
    """
    if e > d:
        return []
    nd = basis_size(d)
    index = monomial_basis(d).index
    terms = [(block * nd, x, v) for block, comp in enumerate(theta) for x, v in comp.items() if v]
    return [[(offset + index((x[0] + m[0], x[1] + m[1], x[2] + m[2])), v) for offset, x, v in terms]
            for m in monomial_basis(d - e).monomials]


def _dense(vec, size: int) -> tuple:
    """The vector of the given size whose nonzero entries are the (position, coefficient) pairs of vec."""
    out = [0] * size
    for i, v in vec:
        out[i] = v
    return tuple(out)


def _constraint_rows(arr: Arrangement, d: int, fields, skip: int = 0) -> tuple[list[list[int]], int]:
    """Rows whose kernel is every (g_1, g_2, ...) with sum g_j theta_j tangent to the lines off skip.

    fields is ((theta_j, e_j), ...) with every e_j <= d, as pencil_system
    builds eta only then: g_j runs over basis(d - e_j), and the columns are
    g_1's, then g_2's, and so on. skip is a mask of lines that give no rows.
    Each other line alpha gives d + 1 rows, the s^p coefficients of
    alpha(sum g_j theta_j) restricted to the line: sum_j of g_j restricted
    (_restrictions) times the binary form theta_j(alpha) restricted, of
    degree e_j. Returns (rows, ncols).
    """
    live, ncols = [], 0
    for theta, e in fields:
        # theta's monomials, by index in basis(e), each with its f, g and h
        # coefficients, so that theta(alpha) is restricted once a monomial
        terms: dict = {}
        for block, comp in enumerate(theta):
            for x, v in comp.items():
                terms.setdefault(monomial_basis(e).index(x), [0, 0, 0])[block] = v
        live.append((e, ncols, terms.items()))
        ncols += basis_size(d - e)
    rows: list[list[int]] = []
    for i, line in enumerate(arr.lines):
        if skip >> i & 1:
            continue
        a, b, c = line.coeffs
        line_rows = [[0] * ncols for _ in range(d + 1)]
        tables = {0: [(0, [1])]}  # degree -> the line's _restrictions at that degree
        for e, offset, terms in live:
            for degree in (e, d - e):
                if degree not in tables:
                    tables[degree] = _restrictions(line, degree)
            # theta(alpha) restricted to the line, a binary form of degree e
            form = [0] * (e + 1)
            for mi, (f, g, h) in terms:
                v = a * f + b * g + c * h
                if v:
                    low, coeffs = tables[e][mi]
                    for p, w in enumerate(coeffs, low):
                        form[p] += v * w
            for q, w in enumerate(form):
                if w:
                    for mj, (low, coeffs) in enumerate(tables[d - e], offset):
                        for p, v in enumerate(coeffs, low + q):
                            if v:
                                line_rows[p][mj] += v * w
        rows.extend(line_rows)
    return rows, ncols


@lru_cache(maxsize=16)
def derivation_matrix(arr: Arrangement, d: int) -> DerivationMatrix:
    """Constraint matrix for degree-d tangent fields; its rows are built on first access."""
    if d < 1:
        raise ValueError("degree must be at least 1")
    return DerivationMatrix(arr, d)


def euler_multiples(d: int) -> list[tuple[int, ...]]:
    """Stacked coefficient vectors of m*(x dx + y dy + z dz), m over basis(d-1).

    These fields are tangent to every arrangement, so they span an
    N_{d-1}-dimensional subspace of every kernel at degree d.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    return [_dense(vec, 3 * basis_size(d)) for vec in _multiples(EULER, 1, d)]


def q_coefficient_vector(arr: Arrangement) -> list[int]:
    """Exact coefficients of the defining polynomial prod alpha_i, degree n."""
    return poly_to_vector(product_of_lines(arr.lines), arr.n)


# ---------------------------------------------------------------------------
# Null spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullBasisExact:
    """Primitive integer basis of D(A)_d: the Euler multiples, then the complement.

    Only what null_space_exact solves is stored, the complement: one
    representative a class of D(A)_d modulo the Euler multiples. The Euler
    head is fixed by the degree, so it, euler_dim and nullity are derived.
    """

    degree: int
    complement: tuple[tuple[int, ...], ...]

    @property
    def euler_dim(self) -> int:
        return basis_size(self.degree - 1)

    @property
    def nullity(self) -> int:
        return self.euler_dim + len(self.complement)

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        return (*euler_multiples(self.degree), *self.complement)


class PencilSystem(NamedTuple):
    """What is left of D(A)_d to solve once the pencil through point is solved.

    k lines pass through point, and fields holds the pencil's generators
    with their degrees: point, as a constant field of degree 0, and, only
    when it has columns (d >= k - 1), eta = p x grad Q_p of their product
    Q_p, of degree k - 1. Each row constrains (g1, g2), g1 over basis(d)
    and g2 over basis(d - k + 1), so that g1 * point + g2 * eta is tangent
    to one line off the point; see null_space_exact.
    """

    point: tuple[int, int, int]
    k: int
    fields: tuple
    rows: list[list[int]]
    ncols: int


def pencil_system(arr: Arrangement, d: int) -> PencilSystem:
    """The reduced system of null_space_exact at degree d: (n - k)(d + 1) rows.

    The point is the first of top multiplicity in intersection_summary's
    coordinate order, so it, the field eta and the rows (up to their order)
    depend on the line set alone. A single line has no point; any point on
    it serves, with k = 1. Below d = k - 1 eta has no columns and is not
    built: the point is the one generator.
    """
    s = intersection_summary(arr)
    if s.masks:
        through = max(s.masks, key=int.bit_count)  # the first of top multiplicity
        point = mask_point(arr.lines, through)
    else:
        through, point = 1, line_kernel_basis(arr.lines[0])[0]
    pencil = [line for i, line in enumerate(arr.lines) if through >> i & 1]
    k = len(pencil)
    fields = ((_constant_field(point), 0),)
    if d >= k - 1:
        # eta = p x grad Q_p: the term of d(Q_p)/dx_i at m adds p[i + 2] times
        # itself to component i + 1 and -p[i + 1] times itself to component i + 2
        eta = ({}, {}, {})
        for e, v in product_of_lines(pencil).items():
            for i in range(3):
                if e[i]:
                    m = e[:i] + (e[i] - 1,) + e[i + 1:]
                    for j, c in (((i + 1) % 3, point[(i + 2) % 3]), ((i + 2) % 3, -point[(i + 1) % 3])):
                        eta[j][m] = eta[j].get(m, 0) + c * e[i] * v
        fields += ((tuple({m: v for m, v in comp.items() if v} for comp in eta), k - 1),)
    rows, ncols = _constraint_rows(arr, d, fields, through)
    return PencilSystem(point, k, fields, rows, ncols)


@lru_cache(maxsize=16)
def null_space_exact(matrix: DerivationMatrix) -> NullBasisExact:
    """Exact basis of D(A)_d: one complement vector per free column of a reduced system, after the Euler multiples.

    Only matrix.arrangement and matrix.degree are read; the rows are never built.

    Theorem, as used (K. Saito, J. Fac. Sci. Univ. Tokyo 27 (1980);
    Orlik and Terao, Arrangements of Hyperplanes, ch. 4). Let p be a point
    of A, A_p the k lines through it and Q_p their product. The constant
    field d_p = p (its components are those of p) and eta_p = p x grad Q_p
    are tangent to every line through p, and det(E, d_p, eta_p) =
    -(p . p) * k * Q_p, since p . grad Q_p = 0 (Q_p does not change along
    p) and Euler's formula gives x . grad Q_p = k * Q_p. That is a nonzero
    multiple of Q_p, so by Saito's criterion E, d_p, eta_p is a basis of
    the free module D(A_p), of degrees 1, 0 and k - 1. D(A) lies in
    D(A_p), and E is tangent to every line, so
        D(A)_d = S_{d-1} E (+) {g1 d_p + g2 eta_p : g1 in S_d,
                 g2 in S_{d-k+1}, alpha_H divides g1 * alpha_H(p) +
                 g2 * eta_p(alpha_H) for every line H off p},
    with no g2 when d < k - 1, where pencil_system builds no eta_p.
    The divisibility is the vanishing of the restriction to H, d + 1
    linear conditions a line (pencil_system). So the kernel eliminated is
    (n - k)(d + 1) x (N_d + N_{d-k+1}), against n(d + 1) x 3 N_d for the
    derivation matrix; p has the top multiplicity, which makes n - k
    smallest. Each kernel vector (g1, g2) gives g1 d_p + g2 eta_p, in
    exactlinalg's primitive normal form. The map is injective (E, d_p,
    eta_p is a basis), so these vectors are independent, and the RREF
    kernel (exactlinalg.kernel_basis) makes them the same for every line
    order. They are the complement; NullBasisExact derives the Euler head.
    """
    d = matrix.degree
    system = pencil_system(matrix.arrangement, d)
    columns = [vec for theta, e in system.fields for vec in _multiples(theta, e, d)]
    complement = []
    for kv in exactlinalg.kernel_basis(system.rows, system.ncols):
        full = [0] * (3 * basis_size(d))
        for g, vec in zip(kv, columns):
            if g:
                for i, v in vec:
                    full[i] += g * v
        complement.append(exactlinalg.primitive(full))
    return NullBasisExact(degree=d, complement=tuple(complement))


@dataclass(frozen=True)
class NullBasisFloat:
    """Orthonormal float basis of D(A)_d, from the exact kernel or from Saito's criterion.

    The first euler_dim columns span the Euler-multiple subspace and the rest
    are orthogonal to it, so the trailing columns are an orthonormal basis of
    the kernel modulo Euler multiples.
    """

    degree: int
    basis: np.ndarray  # shape 3*N_d x k, orthonormal columns
    euler_dim: int

    @property
    def nullity(self) -> int:
        return self.basis.shape[1]

    @property
    def quotient(self) -> NullBasisFloat:
        """The trailing columns alone, as a basis with no Euler part."""
        return NullBasisFloat(self.degree, self.basis[:, self.euler_dim:], 0)


def _orthonormal_basis(d: int, vectors, euler_dim: int) -> NullBasisFloat:
    """Orthonormal columns spanning exact vectors, in their order, Euler multiples first.

    Exact vectors can be hundreds of digits long, so each is scaled to unit
    max entry before it is converted to float.
    """
    cols = []
    for vec in vectors:
        scale = max(abs(v) for v in vec)
        cols.append([v / scale for v in vec])
    x = np.array(cols, dtype=np.float64).T
    q, _ = np.linalg.qr(x)
    return NullBasisFloat(d, q, euler_dim)


def null_space_float(matrix: DerivationMatrix) -> NullBasisFloat:
    """Orthonormal float basis spanning the exact kernel."""
    exact = null_space_exact(matrix)
    return _orthonormal_basis(matrix.degree, exact.vectors, exact.euler_dim)


def null_space_from_fields(d: int, fields) -> NullBasisFloat:
    """Orthonormal float basis of D(A)_d from a free basis of D(A), by Saito's criterion.

    fields is ((theta1, d1), (theta2, d2)): exact tangent fields, given as
    (f, g, h) polynomial dicts, with det(E, theta1, theta2) = c * Q and c != 0.
    E, theta1 and theta2 are then a basis of the module D(A), so the columns
    are the Euler multiples at degree d, then m * theta1 for m over
    basis(d - d1), then m * theta2 for m over basis(d - d2). No derivation
    matrix and no kernel is built; the basis is only as sound as the check
    of the certificate.
    """
    vectors = euler_multiples(d)
    for theta, degree in fields:
        vectors += [_dense(vec, 3 * basis_size(d)) for vec in _multiples(theta, degree, d)]
    return _orthonormal_basis(d, vectors, basis_size(d - 1))


# ---------------------------------------------------------------------------
# The bilinear determinant tensor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaitoTensor:
    """Bilinear map sending null-space coordinates to determinant coefficients.

    tensor[beta, i, j] is the beta-th degree-n coefficient of the determinant
    det(euler, theta_i, theta_j) over columns theta_i of V1 and theta_j of V2.
    """

    n: int
    d1: int
    d2: int
    v1: np.ndarray
    v2: np.ndarray
    q: np.ndarray  # float coefficient vector of the defining polynomial, unit norm
    q_exact: tuple
    tensor: np.ndarray = field(repr=False)

    @property
    def k1(self) -> int:
        return self.v1.shape[1]

    @property
    def k2(self) -> int:
        return self.v2.shape[1]

    @property
    def out_size(self) -> int:
        return basis_size(self.n)


@lru_cache(maxsize=None)
def _xy_exponents(d: int) -> tuple[np.ndarray, np.ndarray]:
    """x and y exponents of basis(d), in basis order."""
    exps = np.array(monomial_basis(d).monomials).T
    return exps[0], exps[1]


@lru_cache(maxsize=None)
def _xy_phases(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectra of x and y on the (n+1) x (n+1) grid, shaped to broadcast over rfft2 output."""
    w = np.exp(-2j * np.pi * np.arange(n + 1) / (n + 1))
    return w[:, None, None], w[None, : (n + 1) // 2 + 1, None]


def _spectrum(v: np.ndarray, d: int, n: int) -> np.ndarray:
    """rfft2 of the f, g, h blocks of each column of v, with z = 1.

    Coefficients sit on an (n+1) x (n+1) grid indexed by their x and y
    exponents; the result has shape (3, n+1, (n+1)//2 + 1, columns).
    """
    xs, ys = _xy_exponents(d)
    grid = np.zeros((3, n + 1, n + 1, v.shape[1]))
    grid[:, xs, ys] = v.reshape(3, len(xs), -1)
    return np.fft.rfft2(grid, axes=(1, 2))


def _det_blocks(v1: np.ndarray, d1: int, v2: np.ndarray, d2: int, n: int) -> np.ndarray:
    """Coefficients over basis(n) of det(E, theta_i, theta_j), shape (N_n, k1, k2).

    theta_i and theta_j run over the columns of v1 (degree d1) and v2 (degree
    d2), with d1 + d2 + 1 = n. With z = 1 a degree-n product fits the
    (n+1) x (n+1) grid without wrapping, so products of polynomials are
    pointwise products of their spectra, and at each frequency the
    determinant is the triple product (x, y, 1) . (theta_i x theta_j).
    """
    f1, g1, h1 = _spectrum(v1, d1, n)
    f2, g2, h2 = (f1, g1, h1) if v2 is v1 else _spectrum(v2, d2, n)
    x, y = _xy_phases(n)
    # (x, y, 1) . (theta_i x theta_j) = theta_i . (theta_j x (x, y, 1))
    spec = f1[..., :, None] * (g2 - y * h2)[..., None, :]
    spec += g1[..., :, None] * (x * h2 - f2)[..., None, :]
    spec += h1[..., :, None] * (y * f2 - x * g2)[..., None, :]
    grid = np.fft.irfft2(spec, s=(n + 1, n + 1), axes=(0, 1))
    xs, ys = _xy_exponents(n)
    return grid[xs, ys]


def assemble_saito_tensor(arr: Arrangement, v1: NullBasisFloat, v2: NullBasisFloat) -> SaitoTensor:
    """Build the determinant tensor for a pair of float null bases.

    Raises DegreeMismatch unless the degrees sum to n - 1.
    """
    n = arr.n
    d1, d2 = v1.degree, v2.degree
    if d1 + d2 != n - 1:
        raise DegreeMismatch(f"degrees {d1} + {d2} != n - 1 = {n - 1}")
    q_exact = tuple(q_coefficient_vector(arr))
    q = np.array([float(v) for v in q_exact])
    q /= np.linalg.norm(q)
    tensor = _det_blocks(v1.basis, d1, v2.basis, d2, n)
    return SaitoTensor(n=n, d1=d1, d2=d2, v1=v1.basis, v2=v2.basis, q=q, q_exact=q_exact, tensor=tensor)


def contract(t: SaitoTensor, alpha1: np.ndarray, alpha2: np.ndarray) -> np.ndarray:
    """T(alpha1, alpha2): degree-n coefficient vector of the Saito determinant."""
    alpha1 = np.asarray(alpha1, dtype=np.float64)
    alpha2 = np.asarray(alpha2, dtype=np.float64)
    if alpha1.shape != (t.k1,) or alpha2.shape != (t.k2,):
        raise DegreeMismatch("parameter vector lengths do not match the null bases")
    return np.einsum("bij,i,j->b", t.tensor, alpha1, alpha2)


def contract_matrix(t: SaitoTensor, alpha: np.ndarray, side: int) -> np.ndarray:
    """Linear map of the remaining argument once one side is fixed.

    side=2 fixes alpha2 and returns A1 with A1 @ alpha1 = T(alpha1, alpha2);
    side=1 fixes alpha1 and returns A2.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if side == 2:
        return np.einsum("bij,j->bi", t.tensor, alpha)
    return np.einsum("bij,i->bj", t.tensor, alpha)
