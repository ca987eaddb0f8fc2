"""Derivation matrices, their null spaces, and the bilinear determinant tensor.

A degree-d polynomial vector field theta = f dx + g dy + h dz is encoded by the
stacked coefficient vector (f, g, h) of length 3*N_d in the graded-lex monomial
basis. theta is tangent to every line of an arrangement exactly when its
coefficient vector lies in the kernel of the integer derivation matrix built
here: for each line, restricting theta(alpha) to a parameterization of the line
must give the identically-zero binary form, one linear constraint per
coefficient.

Float code never decides a nullity. A null space comes from one of two exact
sources: the exact kernel of the derivation matrix, or, for a free
arrangement with a checked certificate (theta1, theta2, c != 0), Saito's
criterion, which gives D(A)_d = S_{d-1} E (+) S_{d-d1} theta1 (+) S_{d-d2}
theta2 with no matrix at all (null_space_from_fields). The loss needs no
basis: it is read off verify_free's verdict. The exact kernel serves
verify_free's pair scan, and the float bases (null_space_float on the
kernel, null_space_from_fields on a certificate) feed the float evaluator
that the tests keep as an independent oracle. Either way the float basis is
orthonormalized with the Euler multiples first, so its trailing columns span
the kernel modulo Euler multiples. det(E, E', theta) = 0 for every Euler
multiple E', so the Saito tensor loses nothing when it is built on those
columns alone.

The Saito tensor expands det(E, theta_1, theta_2) over every pair of columns
of two null bases in one pass: with z = 1 each block becomes a bivariate
polynomial on an (n+1) x (n+1) grid, and the determinant is a triple product
of 2-D FFT spectra at each frequency.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import exactlinalg
from .arrangement import Arrangement, Line, _normalize_triple
from .monomials import (
    basis_size,
    monomial_basis,
    poly_to_vector,
    product_of_lines,
    variable_shift_indices,
)


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
    the rows.
    """

    arrangement: Arrangement
    degree: int
    rows: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), 3 * basis_size(self.degree))


def _binary_form_powers(u: int, w: int, d: int) -> list[list[int]]:
    """Coefficients of (s*u + t*w)^e for e = 0..d, each indexed by the power of s."""
    return [[math.comb(e, r) * u**r * w ** (e - r) for r in range(e + 1)] for e in range(d + 1)]


@lru_cache(maxsize=16)
def derivation_matrix(arr: Arrangement, d: int) -> DerivationMatrix:
    """Constraint matrix for degree-d tangent fields; entries are integers.

    Line alpha = a x + b y + c z, parametrized as s*u + t*w by its
    line_kernel_basis, gives d + 1 rows: row p holds the s^p coefficients of
    alpha(f, g, h) restricted to the line, so column (block, m) carries the
    block's coefficient of alpha times that of m(s*u + t*w).

    The restriction has a closed form. At most one coordinate of s*u + t*w
    has both an s term and a t term (x, when a != 0); every other one is a
    single term, c*s or c*t, or zero. So x^e1 y^e2 z^e3 restricts to a
    monomial, the product of the single-term powers, times one binomial
    power, read off the line's _binary_form_powers table of the two-term
    coordinate. Each entry is such a product, written straight into the
    line's rows, and zero terms are skipped. On a line through a coordinate
    point (a coefficient zero) every coordinate is a single term, and each
    column has at most one nonzero entry in the line's rows.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    mons = monomial_basis(d).monomials
    nd = len(mons)
    rows: list[tuple[int, ...]] = []
    for line in arr.lines:
        u, w = line_kernel_basis(line)
        # the coordinate with both an s and a t term, if any, is the only one expanded
        two = next((i for i in range(3) if u[i] and w[i]), 0)
        one, other = (i for i in range(3) if i != two)
        binomial = _binary_form_powers(u[two], w[two], d)
        # a single-term coordinate to the power e: (power of s, coefficient)
        first, second = (
            [(e, u[i] ** e) if u[i] else (0, w[i] ** e) for e in range(d + 1)] for i in (one, other)
        )
        blocks = [(block * nd, a) for block, a in enumerate(line.coeffs) if a]
        line_rows = [[0] * (3 * nd) for _ in range(d + 1)]
        for mi, m in enumerate(mons):
            k1, c1 = first[m[one]]
            k2, c2 = second[m[other]]
            scale = c1 * c2
            if not scale:
                continue
            for p, v in enumerate(binomial[m[two]], k1 + k2):
                if v:
                    row, lam = line_rows[p], scale * v
                    for offset, a in blocks:
                        row[offset + mi] = a * lam
        rows.extend(tuple(row) for row in line_rows)
    return DerivationMatrix(arr, d, tuple(rows))


def euler_multiples(d: int) -> list[tuple[int, ...]]:
    """Stacked coefficient vectors of m*(x dx + y dy + z dz), m over basis(d-1).

    These fields are tangent to every arrangement, so they span an
    N_{d-1}-dimensional subspace of every kernel at degree d.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    nd = basis_size(d)
    xs, ys, zs = variable_shift_indices(d - 1)
    out = []
    for k in range(basis_size(d - 1)):
        vec = [0] * (3 * nd)
        vec[xs[k]] = 1
        vec[nd + ys[k]] = 1
        vec[2 * nd + zs[k]] = 1
        out.append(tuple(vec))
    return out


def q_coefficient_vector(arr: Arrangement) -> list[int]:
    """Exact coefficients of the defining polynomial prod alpha_i, degree n."""
    return poly_to_vector(product_of_lines(arr.lines), arr.n)


# ---------------------------------------------------------------------------
# Null spaces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NullBasisExact:
    """Primitive integer basis of the rational kernel of a derivation matrix.

    The first euler_dim vectors span the Euler-multiple subspace; the rest are
    coordinate-complement representatives, so slicing off the head implements
    the quotient by Euler multiples.
    """

    degree: int
    vectors: tuple[tuple[int, ...], ...]
    euler_dim: int

    @property
    def nullity(self) -> int:
        return len(self.vectors)

    @property
    def complement(self) -> tuple[tuple[int, ...], ...]:
        return self.vectors[self.euler_dim:]


@lru_cache(maxsize=16)
def null_space_exact(matrix: DerivationMatrix) -> NullBasisExact:
    """Exact kernel basis: explicit Euler multiples plus a complement kernel.

    The Euler-multiple subspace E always sits inside the kernel, and the
    coefficient space splits as E (+) W where W drops the f-block columns of
    monomials divisible by x. Eliminating only the W columns gives
    ker = E (+) (ker cap W) exactly, at a third fewer columns.
    """
    d = matrix.degree
    mons = monomial_basis(d).monomials
    nd = len(mons)
    keep_f = [i for i, m in enumerate(mons) if m[0] == 0]
    col_ids = keep_f + [nd + i for i in range(nd)] + [2 * nd + i for i in range(nd)]
    sub = list(map(operator.itemgetter(*col_ids), matrix.rows))
    sub_kernel = exactlinalg.kernel_basis(sub, len(col_ids))
    vectors = [tuple(v) for v in euler_multiples(d)]
    for kv in sub_kernel:
        full = [0] * (3 * nd)
        for cid, v in zip(col_ids, kv):
            full[cid] = v
        vectors.append(tuple(full))
    return NullBasisExact(degree=d, vectors=tuple(vectors), euler_dim=basis_size(d - 1))


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

    The columns are the floats _orthonormal_basis would convert, built
    without it: m * theta has theta's coefficients, so its scale max|v| is
    theta's own, and each coefficient is divided by it once per field, not
    once per column. The graded-lex index of x^i y^j z^k is
    (j + k)(j + k + 1)/2 + k, so every shifted coefficient is placed at once.
    """
    nd = basis_size(d)
    euler_dim = basis_size(d - 1)
    shifted = [(theta, degree) for theta, degree in fields if degree <= d]
    rows = np.zeros((euler_dim + sum(basis_size(d - deg) for _, deg in shifted), 3 * nd))
    euler = np.arange(euler_dim)
    for block, idx in enumerate(variable_shift_indices(d - 1)):
        rows[euler, block * nd + np.array(idx)] = 1.0
    start = euler_dim
    for theta, degree in shifted:
        scale = max(abs(v) for comp in theta for v in comp.values())
        offsets, exps, vals = [], [], []
        for block, comp in enumerate(theta):
            for e, v in comp.items():
                offsets.append(block * nd)
                exps.append(e)
                vals.append(float(v / scale))
        mons = np.array(monomial_basis(d - degree).monomials)
        exps = np.array(exps).reshape(-1, 3)
        j = mons[:, 1:2] + exps[:, 1]
        k = mons[:, 2:3] + exps[:, 2]
        cols = np.array(offsets) + (j + k) * (j + k + 1) // 2 + k
        rows[start + np.arange(len(mons))[:, None], cols] = vals
        start += len(mons)
    q, _ = np.linalg.qr(rows.T)
    return NullBasisFloat(d, q, euler_dim)


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
