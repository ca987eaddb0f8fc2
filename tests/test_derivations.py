import dataclasses
import random
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelines import derivations, fixtures
from freelines.arrangement import (
    Line,
    arrangement_hash,
    build_arrangement,
    candidate_exponents,
    canonicalize_line,
    intersection_summary,
)
from freelines.certify import NotFreeAtExponents, chain_certificate, exact_determinant, verify_free
from freelines.derivations import (
    DegreeMismatch,
    assemble_saito_tensor,
    contract,
    contract_matrix,
    derivation_matrix,
    euler_multiples,
    line_kernel_basis,
    null_space_exact,
    null_space_float,
    null_space_from_fields,
    pencil_system,
    q_coefficient_vector,
)
from freelines.exactlinalg import kernel_basis
from freelines.monomials import (
    monomial_basis,
    poly_mul,
    poly_to_vector,
    vector_to_poly,
)
from freelines.search import candidate_pool, supersolvable_two_pencil, two_pencil_witness


def in_kernel(matrix, vec):
    """Exact A v = 0; vec entries may be int or Fraction."""
    return all(sum(a * v for a, v in zip(row, vec) if a) == 0 for row in matrix)


def test_monomial_basis_small():
    assert monomial_basis(0).monomials == ((0, 0, 0),)
    assert monomial_basis(1).monomials == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert monomial_basis(2).monomials == (
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2),
    )


@pytest.mark.parametrize("d", range(8))
def test_monomial_basis_size(d):
    assert monomial_basis(d).size == comb(d + 2, 2)


def test_line_kernel_examples():
    assert line_kernel_basis(Line(1, 0, 0)) == ((0, 1, 0), (0, 0, 1))
    assert line_kernel_basis(Line(0, 0, 1)) == ((1, 0, 0), (0, 1, 0))
    assert line_kernel_basis(Line(1, 1, 1)) == ((1, -1, 0), (1, 0, -1))


def test_line_kernel_annihilates():
    for coeffs in [(1, 0, 0), (0, 1, 0), (1, 1, 1), (3, -5, 7), (0, 2, -9)]:
        line = canonicalize_line(*coeffs)
        u, w = line_kernel_basis(line)
        assert line.evaluate(u) == 0
        assert line.evaluate(w) == 0


def test_derivation_matrix_shapes(boolean, free13):
    m = derivation_matrix(boolean, 1)
    assert m.shape == (6, 9)
    assert len(m.rows) == 6
    m13 = derivation_matrix(free13, 6)
    assert m13.shape == (13 * 7, 3 * comb(8, 2))
    assert m13.shape == (91, 84)


def restricted_monomial(m, u, w):
    """Coefficients of m(s*u + t*w) by the power of s, one linear factor at a time."""
    poly = [1]
    for i, e in enumerate(m):
        for _ in range(e):
            nxt = [0] * (len(poly) + 1)
            for p, v in enumerate(poly):
                nxt[p] += v * w[i]
                nxt[p + 1] += v * u[i]
            poly = nxt
    return poly


coefficient = st.integers(-(10**6), 10**6)
nonzero = coefficient.filter(bool)
# the three branches of line_kernel_basis: a != 0; a = 0 != b; a = b = 0
line_a = st.tuples(nonzero, coefficient, coefficient)
line_b = st.tuples(st.just(0), nonzero, coefficient)


@given(st.lists(line_a, min_size=1, max_size=4), st.lists(line_b, min_size=1, max_size=3),
       st.integers(1, 7), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_derivation_matrix_matches_expanded_restrictions(lines_a, lines_b, d, rng):
    lines = list(dict.fromkeys(canonicalize_line(*t) for t in lines_a + lines_b + [(0, 0, 1)]))
    rng.shuffle(lines)
    arr = build_arrangement(lines)
    mons = monomial_basis(d).monomials
    nd = len(mons)
    expected = []
    for line in arr.lines:
        u, w = line_kernel_basis(line)
        assert line.evaluate(u) == line.evaluate(w) == 0
        assert np.cross(u, w).any()  # u and w span the line's plane
        restricted = [restricted_monomial(m, u, w) for m in mons]
        for p in range(d + 1):
            expected.append(tuple(
                coeff * restricted[mi][p] for coeff in line.coeffs for mi in range(nd)
            ))
    assert derivation_matrix(arr, d).rows == tuple(expected)


# det 1, and a * UNIMODULAR has no zero entry for any line a of a
# disjoint-pencil mutant: (1, 0, 0), (1, -i, 0) and (0, 1, -j) with i, j >= 1
UNIMODULAR = ((1, 1, 1), (2, -1, 3), (0, 2, -1))


def unimodular_image(arr):
    """The arrangement whose line rows are a * UNIMODULAR for the rows a of arr."""
    return build_arrangement([
        canonicalize_line(*(sum(a[i] * UNIMODULAR[i][j] for i in range(3)) for j in range(3)))
        for a in (line.coeffs for line in arr.lines)
    ])


@pytest.mark.parametrize("km", [(9, 4), (10, 5)], ids=["pencils_9_4", "pencils_10_5"])
def test_mutant_images_off_the_coordinate_axes(km):
    # every coefficient nonzero: each line's x coordinate has an s and a t
    # term, the closed form's one binomial case, and the matrices are dense
    arr = fixtures.disjoint_pencils(*km)
    image = unimodular_image(arr)
    assert all(all(line.coeffs) for line in image.lines)
    exps = candidate_exponents(arr)
    assert candidate_exponents(image) == exps
    outcome = verify_free(arr, exps.d1, exps.d2)
    moved = verify_free(image, exps.d1, exps.d2)
    assert isinstance(outcome, NotFreeAtExponents) and moved == outcome
    for d in (exps.d1, exps.d2):
        assert null_space_exact(derivation_matrix(image, d)).nullity == \
            null_space_exact(derivation_matrix(arr, d)).nullity
        mons = monomial_basis(d).monomials
        expected = []
        for line in image.lines:
            restricted = [restricted_monomial(m, *line_kernel_basis(line)) for m in mons]
            for p in range(d + 1):
                expected.append(tuple(coeff * r[p] for coeff in line.coeffs for r in restricted))
        assert derivation_matrix(image, d).rows == tuple(expected)


def _pencil_kernel_inputs():
    """(name, arrangement, degree): fixtures, the mutants, R = 2 pool sets, and the image of each."""
    inputs = [(name, getattr(fixtures, name)()) for name in ("free_13", "free_19", "free_20")]
    inputs += [(f"pencils_{k}_{m}", fixtures.disjoint_pencils(k, m)) for k, m in [(9, 4), (10, 5), (11, 5), (13, 6), (13, 7)]]
    rng, pool = random.Random(28), candidate_pool(2).lines
    inputs += [(f"pool_{i}", build_arrangement(rng.sample(pool, rng.randint(6, 10)))) for i in range(8)]
    inputs += [(f"{name}_image", unimodular_image(arr)) for name, arr in inputs]
    cases = []
    for name, arr in inputs:
        exps = candidate_exponents(arr)
        degrees = sorted({exps.d1, exps.d2}) if exps else [2, 4]
        cases += [(f"{name}-{d}", arr, d) for d in degrees]
    # d = k - 1, the first degree at which eta_p has columns (one, of degree
    # d), and d = k, on inputs whose top multiplicity k puts both in reach
    edges = [(f"near_pencil_{n}", fixtures.near_pencil(n)) for n in range(4, 8)]
    edges += [(f"two_pencil_{d1}x{d2}", supersolvable_two_pencil(d1, d2)) for d1, d2 in [(2, 3), (3, 5)]]
    for name, arr in edges:
        k = intersection_summary(arr).max_multiplicity
        cases += [(f"{name}-{d}", arr, d) for d in (k - 1, k)]
    return cases


PENCIL_KERNEL_CASES = _pencil_kernel_inputs()


@pytest.mark.parametrize("arr,d", [case[1:] for case in PENCIL_KERNEL_CASES],
                         ids=[case[0] for case in PENCIL_KERNEL_CASES])
def test_pencil_kernel_is_the_kernel_of_the_derivation_matrix(arr, d):
    # the basis solved in the pencil spans the kernel of the full matrix: the
    # same nullity, every vector annihilated by every row, the lines through
    # the pencil's point included, and no vector dependent on the others
    matrix = derivation_matrix(arr, d)
    basis = null_space_exact(matrix)
    assert basis.nullity == len(kernel_basis(list(matrix.rows), matrix.shape[1]))
    support = [[(j, a) for j, a in enumerate(row) if a] for row in matrix.rows]
    for vec in basis.vectors:
        assert all(sum(a * vec[j] for j, a in row) == 0 for row in support)
    assert kernel_basis([list(column) for column in zip(*basis.vectors)], basis.nullity) == []
    assert basis.vectors[: basis.euler_dim] == tuple(euler_multiples(d))


@pytest.mark.parametrize("arr,d", [case[1:] for case in PENCIL_KERNEL_CASES[::3]],
                         ids=[case[0] for case in PENCIL_KERNEL_CASES[::3]])
def test_pencil_kernel_does_not_depend_on_line_order(arr, d):
    # the point, its pencil and the RREF kernel are read off the line set
    # alone, so every order of the lines gives the same integers
    basis = null_space_exact(derivation_matrix(arr, d))
    rng = random.Random(f"{arrangement_hash(arr)}:{d}")
    for _ in range(4):
        lines = list(arr.lines)
        rng.shuffle(lines)
        assert null_space_exact(derivation_matrix(build_arrangement(lines), d)) == basis


@pytest.mark.parametrize("arr,d", [case[1:] for case in PENCIL_KERNEL_CASES],
                         ids=[case[0] for case in PENCIL_KERNEL_CASES])
def test_pencil_system_constrains_only_the_lines_off_its_point(arr, d):
    # the point is the first of top multiplicity in coordinate order, and each
    # line off it gives d + 1 rows over N_d + N_{d-k+1} columns, none zero;
    # eta, of degree k - 1, is a generator only when it has columns
    s = intersection_summary(arr)
    system = pencil_system(arr, d)
    k = s.max_multiplicity
    assert system.k == k
    assert [e for _, e in system.fields] == ([0, k - 1] if d >= k - 1 else [0])
    assert system.point == next(p.coords for p in s.points if p.multiplicity == k)
    assert len(system.rows) == (arr.n - k) * (d + 1)
    assert system.ncols == len(system.rows[0]) == comb(d + 2, 2) + (comb(d - k + 3, 2) if d >= k - 1 else 0)
    assert all(any(row) for row in system.rows)


# the nullity of D(A)_d at d = 1, 2, 3 of one line and of two lines
FEW_LINES = {
    "one_line": ([Line(1, 2, 3)], [7, 15, 26]),
    "two_lines": ([Line(1, 0, 0), Line(1, 1, 1)], [5, 12, 22]),
}


@pytest.mark.parametrize("name", list(FEW_LINES))
def test_pencil_kernel_of_one_or_two_lines_is_the_kernel_of_the_derivation_matrix(name):
    # one line has no point, so pencil_system takes a point on it with k = 1;
    # two lines meet in one point that holds both. Neither leaves a line off
    # the point, so the system has no rows, and the kernel is what the pencil
    # generators span: the derivation-matrix oracle must agree
    lines, nullities = FEW_LINES[name]
    arr = build_arrangement(lines)
    for d, nullity in zip((1, 2, 3), nullities):
        test_pencil_kernel_is_the_kernel_of_the_derivation_matrix(arr, d)
        assert null_space_exact(derivation_matrix(arr, d)).nullity == nullity
        system = pencil_system(arr, d)
        assert (system.k, system.rows, [e for _, e in system.fields]) == (arr.n, [], [0, arr.n - 1])
        assert all(line.evaluate(system.point) == 0 for line in arr.lines) and any(system.point)


def test_null_space_exact_stores_only_what_it_solves(monkeypatch):
    # the Euler head is fixed by the degree, so no solve builds it: the basis
    # holds the degree and the complement, and derives the rest
    def refuse(d):
        raise AssertionError("null_space_exact built the Euler multiples")

    arr = fixtures.disjoint_pencils(9, 4)
    bases = {}
    monkeypatch.setattr(derivations, "euler_multiples", refuse)
    null_space_exact.cache_clear()
    for d in (5, 7):
        bases[d] = null_space_exact(derivation_matrix(arr, d))
    monkeypatch.undo()
    for d, basis in bases.items():
        assert [f.name for f in dataclasses.fields(basis)] == ["degree", "complement"]
        assert basis.euler_dim == comb(d + 1, 2) == len(euler_multiples(d))
        assert basis.vectors == tuple(euler_multiples(d)) + basis.complement
        assert basis.nullity == len(basis.vectors)


def test_boolean_degree1_kernel_members(boolean):
    # x d/dx, y d/dy, z d/dz satisfy the divisibility conditions directly
    m = derivation_matrix(boolean, 1)
    x_dx = [0] * 9
    x_dx[0] = 1  # f = x
    y_dy = [0] * 9
    y_dy[4] = 1  # g = y
    z_dz = [0] * 9
    z_dz[8] = 1  # h = z
    for vec in (x_dx, y_dy, z_dz):
        assert in_kernel(list(m.rows), vec)
    assert null_space_exact(m).nullity == 3
    assert null_space_float(m).nullity == 3


def test_boolean_degree2_nullity_matches_bruteforce(boolean):
    # oracle: {(f,g,h) : x|f, y|g, z|h} in degree 2 has dim 3+3+3
    mons = monomial_basis(2).monomials
    dim_f = sum(1 for e in mons if e[0] >= 1)
    assert 3 * dim_f == 9
    m = derivation_matrix(boolean, 2)
    assert null_space_exact(m).nullity == 9
    assert null_space_float(m).nullity == 9


def test_exact_kernel_vectors_are_exact(boolean, near_pencil5):
    for arr, d in [(boolean, 1), (boolean, 2), (near_pencil5, 1), (near_pencil5, 3)]:
        m = derivation_matrix(arr, d)
        basis = null_space_exact(m)
        for v in basis.vectors:
            assert in_kernel(list(m.rows), v)


def test_rank_nullity(near_pencil5):
    from freelines.exactlinalg import rank

    m = derivation_matrix(near_pencil5, 2)
    ncols = m.shape[1]
    assert null_space_exact(m).nullity == ncols - rank([list(r) for r in m.rows], ncols)


def test_null_space_float_orthonormal_and_annihilating(near_pencil5):
    m = derivation_matrix(near_pencil5, 3)
    basis = null_space_float(m)
    assert basis.nullity == 13
    v = basis.basis
    assert np.linalg.norm(v.T @ v - np.eye(basis.nullity)) < 1e-10
    a = np.array(m.rows, dtype=np.float64)
    a /= np.linalg.norm(a)
    assert np.linalg.norm(a @ v) < 1e-9


def test_float_exact_nullity_agreement_clean_gap(boolean, near_pencil5):
    for arr, d in [(boolean, 1), (near_pencil5, 1), (near_pencil5, 3)]:
        m = derivation_matrix(arr, d)
        assert null_space_float(m).nullity == null_space_exact(m).nullity


def test_robust_basis_agreement_all_fixtures(boolean, near_pencil5, free13):
    for arr, d in [(boolean, 1), (near_pencil5, 3), (free13, 6)]:
        m = derivation_matrix(arr, d)
        assert null_space_float(m).nullity == null_space_exact(m).nullity
    assert null_space_float(derivation_matrix(free13, 6)).nullity == 23


def test_float_basis_from_exact_spans_kernel(free13):
    m = derivation_matrix(free13, 6)
    exact = null_space_exact(m)
    fb = null_space_float(m)
    assert fb.nullity == exact.nullity
    assert np.linalg.norm(fb.basis.T @ fb.basis - np.eye(fb.nullity)) < 1e-10


def test_null_space_float_spans_exact_kernel(free13, free19):
    # entries up to ~1e25 at these degrees: the float basis must still have
    # the exact nullity and contain every exact kernel vector
    for arr, d in [(free13, 6), (free19, 7)]:
        m = derivation_matrix(arr, d)
        exact = null_space_exact(m)
        v = null_space_float(m).basis
        assert v.shape == (m.shape[1], exact.nullity)
        assert np.linalg.norm(v.T @ v - np.eye(exact.nullity)) < 1e-10
        for vec in exact.vectors:
            scale = max(abs(x) for x in vec)
            unit = np.array([x / scale for x in vec])
            assert np.linalg.norm(unit - v @ (v.T @ unit)) < 1e-9


def test_euler_multiples_dimensions():
    assert len(euler_multiples(1)) == 1
    assert len(euler_multiples(2)) == 3
    assert len(euler_multiples(6)) == 21


def test_euler_multiples_in_every_kernel(boolean, near_pencil5):
    for arr in (boolean, near_pencil5):
        for d in (1, 2, 3):
            m = derivation_matrix(arr, d)
            for v in euler_multiples(d):
                assert in_kernel(list(m.rows), v)


EULER_FIELD = ({(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1})


def expanded_multiples(theta, e, d):
    """m * theta for m over basis(d - e), each stacked at degree d, expanded by poly_mul."""
    if e > d:
        return []
    return [tuple(v for comp in theta for v in poly_to_vector(poly_mul({m: 1}, comp), d))
            for m in monomial_basis(d - e).monomials]


@pytest.mark.parametrize("d", range(1, 9))
def test_euler_multiples_are_the_expanded_multiples_of_euler(d):
    assert euler_multiples(d) == expanded_multiples(EULER_FIELD, 1, d)


def _certificate_fields():
    """(name, ((theta1, d1), (theta2, d2))): free_16's chain certificate and one two-pencil witness."""
    free16 = fixtures.free_16()
    exps = candidate_exponents(free16)
    cert = chain_certificate(free16, exps.d1, exps.d2)
    theta1, theta2 = two_pencil_witness(2, 3)
    return [("free_16", ((cert.theta1, cert.d1), (cert.theta2, cert.d2))),
            ("two_pencil_2x3", ((theta1, 2), (theta2, 3)))]


CERTIFICATE_FIELDS = _certificate_fields()


@pytest.mark.parametrize("fields", [case[1] for case in CERTIFICATE_FIELDS],
                         ids=[case[0] for case in CERTIFICATE_FIELDS])
def test_null_space_from_fields_spans_the_expanded_multiples(fields, monkeypatch):
    # the exact columns handed to the orthonormalization are the Euler
    # multiples, then m * theta1, then m * theta2, each in basis order; at
    # d = d1 < d2 theta2 has no multiples
    seen = []
    orthonormal = derivations._orthonormal_basis

    def recording(d, vectors, euler_dim):
        seen.append([tuple(v) for v in vectors])
        return orthonormal(d, vectors, euler_dim)

    monkeypatch.setattr(derivations, "_orthonormal_basis", recording)
    (_, d1), (_, d2) = fields
    for d in (d1, d2, d2 + 1):
        seen.clear()
        basis = null_space_from_fields(d, fields)
        expected = expanded_multiples(EULER_FIELD, 1, d)
        expected += [vec for theta, e in fields for vec in expanded_multiples(theta, e, d)]
        assert seen == [expected]
        assert basis.nullity == len(expected) and basis.euler_dim == comb(d + 1, 2)


def test_q_vector_boolean(boolean):
    q = q_coefficient_vector(boolean)
    poly = vector_to_poly(q, 3)
    assert poly == {(1, 1, 1): 1}


def test_q_vector_two_lines():
    arr = build_arrangement([canonicalize_line(1, 0, 0), canonicalize_line(0, 1, 0)])
    assert vector_to_poly(q_coefficient_vector(arr), 2) == {(1, 1, 0): 1}


def test_q_vector_difference_of_squares():
    arr = build_arrangement([canonicalize_line(1, 1, 0), canonicalize_line(1, -1, 0)])
    assert vector_to_poly(q_coefficient_vector(arr), 2) == {(2, 0, 0): 1, (0, 2, 0): -1}


def _coordinates(basis, vec):
    return basis.basis.T @ np.asarray(vec, dtype=np.float64)


def test_tensor_boolean_basis_pair(boolean):
    m = derivation_matrix(boolean, 1)
    nb = null_space_float(m)
    t = assemble_saito_tensor(boolean, nb, nb)
    x_dx = [0.0] * 9
    x_dx[0] = 1.0
    y_dy = [0.0] * 9
    y_dy[4] = 1.0
    a1 = _coordinates(nb, x_dx)
    a2 = _coordinates(nb, y_dy)
    out = contract(t, a1, a2)
    expected = np.zeros(10)
    xyz = monomial_basis(3).index((1, 1, 1))
    expected[xyz] = 1.0
    assert np.allclose(out, expected, atol=1e-12)


def test_tensor_euler_annihilation(boolean):
    m = derivation_matrix(boolean, 1)
    nb = null_space_float(m)
    t = assemble_saito_tensor(boolean, nb, nb)
    euler = _coordinates(nb, [float(v) for v in euler_multiples(1)[0]])
    rng = np.random.default_rng(7)
    for _ in range(5):
        a2 = rng.standard_normal(t.k2)
        assert np.linalg.norm(contract(t, euler, a2)) < 1e-9
        assert np.linalg.norm(contract(t, a2, euler)) < 1e-9


def test_contract_bilinearity(boolean):
    m = derivation_matrix(boolean, 1)
    nb = null_space_float(m)
    t = assemble_saito_tensor(boolean, nb, nb)
    rng = np.random.default_rng(3)
    a1, b1, a2 = (rng.standard_normal(3) for _ in range(3))
    assert np.allclose(
        contract(t, 2.5 * a1 + b1, a2),
        2.5 * contract(t, a1, a2) + contract(t, b1, a2),
        atol=1e-12,
    )
    assert np.allclose(contract(t, np.zeros(3), a2), 0.0)


def test_contract_matrix_consistency(near_pencil5):
    m1 = derivation_matrix(near_pencil5, 1)
    m3 = derivation_matrix(near_pencil5, 3)
    t = assemble_saito_tensor(near_pencil5, null_space_float(m1), null_space_float(m3))
    rng = np.random.default_rng(11)
    a1 = rng.standard_normal(t.k1)
    a2 = rng.standard_normal(t.k2)
    assert np.allclose(contract_matrix(t, a2, 2) @ a1, contract(t, a1, a2), atol=1e-12)
    assert np.allclose(contract_matrix(t, a1, 1) @ a2, contract(t, a1, a2), atol=1e-12)


def test_assemble_degree_mismatch(boolean):
    nb = null_space_float(derivation_matrix(boolean, 1))
    nb2 = null_space_float(derivation_matrix(boolean, 2))
    with pytest.raises(DegreeMismatch):
        assemble_saito_tensor(boolean, nb, nb2)


def _unit(vec):
    nv = np.linalg.norm(vec)
    assert nv > 0
    return vec / nv


def _random_kernel_combo(rng, vectors, nd):
    coeffs = [int(c) for c in rng.integers(-3, 4, size=len(vectors))]
    vec = [sum(c * v[k] for c, v in zip(coeffs, vectors)) for k in range(nd)]
    scale = max(abs(x) for x in vec)
    return vec, ([x / scale for x in vec] if scale else [0.0] * nd)


def test_contraction_matches_exact_determinant(free13, free19, free20):
    """Float contraction vs exact symbolic expansion on random kernel pairs.

    Kernel coordinates and determinant coefficients span hundreds of digits
    on the large fixtures, so both sides are compared as unit vectors, with
    the sign of the contraction aligned to the exact side by their dot
    product. The small cases cover the low end of the FFT grid.
    """
    from freelines.certify import vector_to_derivation
    from freelines.fixtures import near_pencil
    from freelines.monomials import basis_size
    from freelines.search import supersolvable_two_pencil

    rng = np.random.default_rng(17)
    cases = [
        (near_pencil(6), 1, 4),
        (supersolvable_two_pencil(3, 3), 3, 3),
        (free13, 6, 6),
        (free19, 7, 11),
        (free20, 9, 10),
    ]
    for arr, d1, d2 in cases:
        m1 = derivation_matrix(arr, d1)
        m2 = m1 if d2 == d1 else derivation_matrix(arr, d2)
        e1 = null_space_exact(m1)
        e2 = e1 if d2 == d1 else null_space_exact(m2)
        nb1 = null_space_float(m1)
        nb2 = nb1 if d2 == d1 else null_space_float(m2)
        t = assemble_saito_tensor(arr, nb1, nb2)
        checked = 0
        while checked < 10:
            v1, v1f = _random_kernel_combo(rng, e1.vectors, 3 * basis_size(d1))
            v2, v2f = _random_kernel_combo(rng, e2.vectors, 3 * basis_size(d2))
            if not any(v1) or not any(v2):
                continue
            det = exact_determinant(
                arr, vector_to_derivation(v1, d1), vector_to_derivation(v2, d2)
            )
            ints = poly_to_vector(det, arr.n)
            top = max(abs(x) for x in ints)
            if top == 0:
                continue  # combination landed in the determinant's kernel
            expected = _unit(np.array([x / top for x in ints]))
            a1 = _coordinates(nb1, v1f)
            a2 = _coordinates(nb2, v2f)
            got = _unit(contract(t, a1, a2))
            if got @ expected < 0:
                got = -got
            assert np.linalg.norm(got - expected) < 1e-8
            checked += 1
