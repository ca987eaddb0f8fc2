"""Monomial bases of S_d = C[x,y,z]_d and exact trivariate polynomial helpers.

The global monomial order is graded-lex with x > y > z; every coefficient
vector in the package is written in this order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

Exponent = tuple[int, int, int]
# polynomials are dicts exponent-triple -> coefficient (int or Fraction)
Poly = dict[Exponent, object]


@dataclass(frozen=True)
class MonomialBasis:
    degree: int
    monomials: tuple[Exponent, ...]

    @property
    def size(self) -> int:
        return len(self.monomials)

    def index(self, mon: Exponent) -> int:
        return _index_map(self.degree)[mon]


@lru_cache(maxsize=None)
def monomial_basis(d: int) -> MonomialBasis:
    """Graded-lex ordered basis of S_d; size C(d+2, 2)."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    mons = tuple(
        (i, j, d - i - j)
        for i in range(d, -1, -1)
        for j in range(d - i, -1, -1)
    )
    if len(mons) != comb(d + 2, 2):
        raise RuntimeError(f"degree {d} basis has {len(mons)} monomials, expected {comb(d + 2, 2)}")
    return MonomialBasis(d, mons)


@lru_cache(maxsize=None)
def _index_map(d: int) -> dict[Exponent, int]:
    return {m: i for i, m in enumerate(monomial_basis(d).monomials)}


def basis_size(d: int) -> int:
    return comb(d + 2, 2)


def poly_mul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for e1, a in p.items():
        if not a:
            continue
        for e2, b in q.items():
            if not b:
                continue
            e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
            v = out.get(e, 0) + a * b
            if v:
                out[e] = v
            else:
                out.pop(e, None)
    return out


def poly_from_line(coeffs: tuple[int, int, int]) -> Poly:
    a, b, c = coeffs
    out: Poly = {}
    if a:
        out[(1, 0, 0)] = a
    if b:
        out[(0, 1, 0)] = b
    if c:
        out[(0, 0, 1)] = c
    return out


def product_of_lines(lines) -> Poly:
    """Exact expansion of the product of linear forms."""
    out: Poly = {(0, 0, 0): 1}
    for line in lines:
        out = poly_mul(out, poly_from_line(line.coeffs))
    return out


def poly_to_vector(p: Poly, d: int) -> list:
    """Dense coefficient vector of a degree-d polynomial in graded-lex order."""
    idx = _index_map(d)
    vec = [0] * basis_size(d)
    for e, v in p.items():
        vec[idx[e]] = v
    return vec


def vector_to_poly(vec, d: int) -> Poly:
    mons = monomial_basis(d).monomials
    return {m: v for m, v in zip(mons, vec) if v}


@lru_cache(maxsize=None)
def variable_shift_indices(d: int) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Index maps for multiplication by x, y, z from S_d into S_{d+1}.

    Entry k of the first tuple is the index in basis(d+1) of x * basis(d)[k],
    and similarly for y and z.
    """
    src = monomial_basis(d).monomials
    dst = _index_map(d + 1)
    xs = tuple(dst[(e[0] + 1, e[1], e[2])] for e in src)
    ys = tuple(dst[(e[0], e[1] + 1, e[2])] for e in src)
    zs = tuple(dst[(e[0], e[1], e[2] + 1)] for e in src)
    return xs, ys, zs
