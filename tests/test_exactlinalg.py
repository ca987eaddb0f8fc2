import hashlib
import random
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freelines import exactlinalg, fixtures
from freelines.arrangement import build_arrangement, candidate_exponents
from freelines.derivations import derivation_matrix, euler_multiples, null_space_exact
from freelines.exactlinalg import echelon_form, kernel_basis, rank
from freelines.monomials import monomial_basis


def matvec(matrix, vec):
    """Exact matrix-vector product; vec entries may be int or Fraction."""
    return [sum(a * v for a, v in zip(row, vec) if a) for row in matrix]


def in_kernel(matrix, vec):
    return all(s == 0 for s in matvec(matrix, vec))


def rref_oracle(matrix, ncols):
    """Plain Fraction reduced row echelon form, independent of the production code."""
    rows = [[Fraction(x) for x in r] for r in matrix]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rref_rank_oracle(matrix, ncols):
    return len(rref_oracle(matrix, ncols)[1])


def rref_kernel_oracle(matrix, ncols):
    """One kernel vector per free column from the Fraction RREF: primitive, first nonzero positive."""
    rows, pivots = rref_oracle(matrix, ncols)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for i, c in enumerate(pivots):
            x[c] = -rows[i][f]
        den = lcm(*(v.denominator for v in x))
        ints = [int(v * den) for v in x]
        g = gcd(*ints)
        sign = -1 if next(v for v in ints if v) < 0 else 1
        basis.append(tuple(sign * v // g for v in ints))
    return basis


def test_known_kernel():
    # x + y + z = 0 has a two-dimensional kernel
    basis = kernel_basis([[1, 1, 1]], 3)
    assert len(basis) == 2
    for v in basis:
        assert sum(v) == 0


def test_zero_matrix_kernel():
    basis = kernel_basis([[0, 0, 0], [0, 0, 0]], 3)
    assert len(basis) == 3


def test_rank_of_identity():
    assert rank([[1, 0], [0, 1]], 2) == 2


matrices = st.lists(
    st.lists(st.integers(-9, 9), min_size=4, max_size=4),
    min_size=1,
    max_size=6,
)


@given(matrices)
@settings(max_examples=150, deadline=None)
def test_kernel_against_rref_oracle(m):
    ncols = 4
    r_oracle = rref_rank_oracle(m, ncols)
    basis = kernel_basis(m, ncols)
    assert basis == rref_kernel_oracle(m, ncols)
    assert rank(m, ncols) == r_oracle
    assert len(basis) == ncols - r_oracle
    for v in basis:
        assert in_kernel(m, v)
        assert any(v)  # primitive nonzero vectors
    # linear independence: stacking the kernel vectors keeps full rank
    if basis:
        assert rref_rank_oracle([list(v) for v in basis], ncols) == len(basis)


def test_matvec_exact():
    assert matvec([[1, 2], [3, 4]], [Fraction(1, 2), 1]) == [Fraction(5, 2), Fraction(11, 2)]


wide = st.integers(-(2**90), 2**90) | st.just(0)
wide_matrices = st.integers(1, 6).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(wide, min_size=ncols, max_size=ncols), min_size=1, max_size=5),
        st.just(ncols),
    )
)


@given(wide_matrices)
@settings(max_examples=60, deadline=None)
def test_kernel_matches_fraction_oracle_on_wide_entries(case):
    # minors of 90-bit entries need hundreds of bits: several prime batches
    m, ncols = case
    assert kernel_basis(m, ncols) == rref_kernel_oracle(m, ncols)


def test_wide_entries_retry_with_more_primes(monkeypatch):
    batches = []
    real = exactlinalg._echelon_mod

    def counted(a, primes):
        batches.append(len(primes))
        return real(a, primes)

    monkeypatch.setattr(exactlinalg, "_echelon_mod", counted)
    m = [[(7 * i + 3 * j + 1) ** 19 - (i + 1) * 2**80 for j in range(6)] for i in range(4)]
    assert kernel_basis(m, 6) == rref_kernel_oracle(m, 6)
    assert len(batches) >= 3 and sum(batches) > 3 * exactlinalg.FIRST_BATCH


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_block_reduction_every_few_steps(monkeypatch, steps):
    # real matrices never reach LAZY_STEPS pivots; a small value runs the
    # whole-block reduction of elimination and back-substitution
    monkeypatch.setattr(exactlinalg, "LAZY_STEPS", steps)
    rng = random.Random(steps)
    m = [[rng.randint(-(2**40), 2**40) for _ in range(9)] for _ in range(6)]
    m.append([x + y for x, y in zip(m[0], m[1])])
    assert kernel_basis(m, 9) == rref_kernel_oracle(m, 9)


def test_unlucky_first_prime_is_dropped():
    p = exactlinalg.word_primes(1)[0]
    # column 0 vanishes mod p, so p sees pivots (1, 2) where Q has (0, 1)
    m = [[p, 1, 2, 3], [2 * p, 3, 5, 7]]
    assert kernel_basis(m, 4) == rref_kernel_oracle(m, 4)
    # every entry a multiple of p: p sees rank 0
    m = [[p * x for x in row] for row in ([1, 2, 3], [4, 5, 7])]
    assert kernel_basis(m, 3) == rref_kernel_oracle(m, 3)


def test_unlucky_first_batch_is_dropped():
    # Every first-batch prime sees row 0 as zero, so its pivot profile is
    # (1,) where Q has (0, 1); the kernel comes from the batches after it.
    q = prod(exactlinalg.word_primes(exactlinalg.FIRST_BATCH))
    b, c = 3**70, 2**112 + 1
    m = [[q, 0, 0], [0, b, c]]
    assert kernel_basis(m, 3) == rref_kernel_oracle(m, 3) == [(0, c, -b)]


def test_int64_minimum_entry():
    # abs(-2^63) wraps in int64; the entry bound must still count 64 bits
    low = -(2**63)
    m = [[low, 3, 1], [5, low + 1, 2**62]]
    assert exactlinalg._Residues(m, 3).bits == 64
    assert kernel_basis(m, 3) == rref_kernel_oracle(m, 3)


def test_word_primes_are_descending_primes_below_2_26():
    ps = exactlinalg.word_primes(40)
    assert ps == sorted(set(ps), reverse=True) and ps[0] < 2**26
    assert all(all(p % d for d in range(2, 8200)) for p in ps)
    assert exactlinalg.word_primes(3) == ps[:3]


def _vectors_digest(vectors) -> str:
    h = hashlib.sha256()
    for v in vectors:
        h.update((",".join(map(str, v)) + ";").encode())
    return h.hexdigest()


def w_column_kernel(matrix):
    """Euler multiples, then the kernel of the derivation matrix on the columns W.

    W drops the f-block columns of monomials divisible by x. The coefficient
    space splits as E (+) W, with E the Euler multiples, so the kernel is
    E (+) (kernel cap W), and eliminating the W columns alone finds it.
    """
    d = matrix.degree
    mons = monomial_basis(d).monomials
    nd = len(mons)
    col_ids = [i for i, m in enumerate(mons) if m[0] == 0] + list(range(nd, 3 * nd))
    vectors = list(euler_multiples(d))
    for kv in kernel_basis([[row[c] for c in col_ids] for row in matrix.rows], len(col_ids)):
        full = [0] * (3 * nd)
        for c, v in zip(col_ids, kv):
            full[c] = v
        vectors.append(tuple(full))
    return vectors


# sha256 of the W-column kernel vectors (w_column_kernel) that fraction-free
# elimination with Fraction back-substitution produced at each fixture's
# candidate exponents
PINNED_KERNELS = [
    ("free_13", 6, "92e89b0d58527228b9410fb6dd5976b0e5e452a2cb5e1fe77ddb3f0e00d1cb7e"),
    ("free_19", 7, "d2b27d9d1ed38132b5ab62f74c819efe51066ff2b44274e948f997abbfb50210"),
    ("free_19", 11, "ccf665200201673481cd203c648fa01e272b7e40ec656a982031ecba956fa2cd"),
    ("free_20", 9, "ce046a344c8b4bb0f80859aec6f1966c9348abda7fbbfec5d9191ba19203fedb"),
    ("free_20", 10, "7eddcdc75d14e920d846d5e0c885a337bcb3ea7957d888daf6063ef0a79e5b86"),
]


@pytest.mark.parametrize("name,d,digest", PINNED_KERNELS)
def test_exact_kernels_are_pinned(name, d, digest):
    arr = getattr(fixtures, name)()
    exps = candidate_exponents(arr)
    assert d in (exps.d1, exps.d2)
    assert _vectors_digest(w_column_kernel(derivation_matrix(arr, d))) == digest


# sha256 of the null_space_exact vectors, solved in the pencil of the first
# top-multiplicity point, at the same fixtures and degrees
PINNED_PENCIL_KERNELS = [
    ("free_13", 6, "aed88471d5166303e66bf78e515fc4cdd1eaa8930508d56216b5c2d276b38b57"),
    ("free_19", 7, "a07042bc6239ce7bcddba892e001ffafff2e60d46e5a428c716326a266523f0b"),
    ("free_19", 11, "f9370229a763ace3009db03e6a0cf3869d925200ad692b928e2dde670d66a253"),
    ("free_20", 9, "82e66a667cdaeb5742898b89d3ba28c35185dfc421e7f0e392b30dae4aadcd1f"),
    ("free_20", 10, "138216d96c5158919679c1c2b5b7c55e95f213e09c68b9eb579bdf83be221539"),
]


@pytest.mark.parametrize("name,d,digest", PINNED_PENCIL_KERNELS)
def test_pencil_kernels_are_pinned(name, d, digest):
    arr = getattr(fixtures, name)()
    assert _vectors_digest(null_space_exact(derivation_matrix(arr, d)).vectors) == digest


# sha256 of the null_space_exact vectors and of the derivation_matrix rows of
# the verify-refute benchmark's disjoint-pencil mutants at both candidate
# degrees, as dense elimination and per-monomial restriction produced them
PINNED_MUTANTS = [
    ((9, 4), 5,
     "d0164227b4402a024825ba85e8b2649c648d9f7d1888aa79c7c6be184d0da6bf",
     "62bdae9668cb82698f20c9ab35a07b409de23411e67635ad1ace6820664757da"),
    ((9, 4), 7,
     "c56ca57710303ff1b17669768bc2867430e32fe5177050ee95aa9156a3c6a636",
     "3776a25f7e3a0de03c844f7de1eb52c104f193f74339d76b51404875feaa4d6b"),
    ((10, 5), 7,
     "b64c9c3fd5527aadb6a4b23ce1590a9238cbc9bef3b7e84f8c4301308846c655",
     "32fe3e69a5a076d354b5b1c9df021145a281579fa8754942f7beabf12eb19e95"),
    ((11, 5), 6,
     "ce2dcb8de693880675ca4d9bcffb0495888cc76e58757bd64519f81df815d842",
     "af390e37433b97e955c71bdd49dd9b9f9b1e87b2be6b31c26288f24c2d21d9dd"),
    ((11, 5), 9,
     "664983e68f1483d3ce2311bacc889aca62b2487aff43aab5f4396a56517a11fc",
     "ad37963518615a3f257c349ccd4afd8be141ddce7f8027d5d83b653cd21af7b9"),
    ((13, 6), 7,
     "1b7270b577755e89e2dcf6e23fe9897d70d8c8a52754aa9424521af4d9188ed1",
     "8013948b974afd9536cc361ff875566b39e1bf54e7cae214df9184a82dccd578"),
    ((13, 6), 11,
     "72703af15e20f8453e7462a7ae996dcc3c1a6abae5af3289a8e0b89b32d1817c",
     "56009eb0ecd05ac084b0d003bc49de4cae5dbf2cada83c1109631d34f620af0a"),
    ((13, 7), 9,
     "0aa66f29d2bb3c689374cb4d7a7ce4d44b76fe8f21bcf5dfd90527cb63d3bff0",
     "cb23d57eeaea070618ed4a1616b794613f12e0b06f2b21371e0751c8147e066f"),
    ((13, 7), 10,
     "d62d075ee8b5eade7af5c3530583eb7f4ed1297a48c8f109455b41c6bacd74b2",
     "371c80002da93b3c3b6c2378ea635ffd51a1f83928cf47b3a9c3ad6e57e93074"),
]


@pytest.mark.parametrize("km,d,kernel_digest,matrix_digest", PINNED_MUTANTS,
                         ids=[f"pencils_{k}_{m}-{d}" for (k, m), d, _, _ in PINNED_MUTANTS])
def test_mutant_kernels_are_pinned(km, d, kernel_digest, matrix_digest):
    arr = fixtures.disjoint_pencils(*km)
    exps = candidate_exponents(arr)
    assert d in (exps.d1, exps.d2)
    matrix = derivation_matrix(arr, d)
    assert _vectors_digest(matrix.rows) == matrix_digest
    assert _vectors_digest(null_space_exact(matrix).vectors) == kernel_digest


@st.composite
def sparse_tall(draw):
    """6-30 rows, 3-14 columns, 5-30% nonzero entries up to 2^40, some rows zero or repeated."""
    ncols = draw(st.integers(3, 14))
    nrows = draw(st.integers(max(6, ncols), 30))
    cells = nrows * ncols
    count = draw(st.integers(-(-cells // 20), cells * 3 // 10))
    where = draw(st.lists(st.integers(0, cells - 1), min_size=count, max_size=count, unique=True))
    entry = st.integers(-(2**40), 2**40).filter(bool)
    values = draw(st.lists(entry, min_size=count, max_size=count))
    m = [[0] * ncols for _ in range(nrows)]
    for cell, v in zip(where, values):
        m[cell // ncols][cell % ncols] = v
    for i in range(1, nrows):
        kind = draw(st.sampled_from(["keep"] * 4 + ["zero", "repeat"]))
        if kind == "zero":
            m[i] = [0] * ncols
        elif kind == "repeat":
            m[i] = list(m[draw(st.integers(0, i - 1))])
    return m, ncols


@pytest.mark.parametrize("steps", [1, 3, exactlinalg.LAZY_STEPS])
@given(sparse_tall())
@settings(max_examples=60, deadline=None)
def test_kernel_of_sparse_tall_matrices(steps, case):
    # elimination and back-substitution subtract only from rows with a
    # nonzero residue in the pivot column; sparse inputs leave most rows out
    m, ncols = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "LAZY_STEPS", steps)
        basis = kernel_basis(m, ncols)
    assert basis == rref_kernel_oracle(m, ncols)
    assert len(basis) == ncols - rref_rank_oracle(m, ncols)


@given(st.one_of(matrices.map(lambda m: (m, 4)), sparse_tall(), wide_matrices))
@settings(max_examples=120, deadline=None)
def test_echelon_row_space_rank(case):
    # the pivot columns are read off the kernel's RREF vectors, each of
    # which ends at its free column
    m, ncols = case
    ech = echelon_form(m, ncols)
    assert ech.rank == rref_rank_oracle(m, ncols)
    assert ech.pivot_columns == rref_oracle(m, ncols)[1]
    assert ech.ncols == ncols


@given(sparse_tall(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_kernel_does_not_depend_on_row_order(case, rng):
    m, ncols = case
    shuffled = list(m)
    rng.shuffle(shuffled)
    assert kernel_basis(shuffled, ncols) == kernel_basis(m, ncols)


@lru_cache(maxsize=None)
def _mutant_rows_and_kernel(km, d):
    rows = derivation_matrix(fixtures.disjoint_pencils(*km), d).rows
    return rows, kernel_basis(rows, len(rows[0]))


@pytest.mark.parametrize("km,d", [(km, d) for km, d, _, _ in PINNED_MUTANTS],
                         ids=[f"pencils_{k}_{m}-{d}" for (k, m), d, _, _ in PINNED_MUTANTS])
@given(rng=st.randoms(use_true_random=False))
@settings(max_examples=4, deadline=None)
def test_mutant_kernel_does_not_depend_on_row_order(km, d, rng):
    rows, kernel = _mutant_rows_and_kernel(km, d)
    shuffled = list(rows)
    rng.shuffle(shuffled)
    assert kernel_basis(shuffled, len(rows[0])) == kernel


def test_line_orders_give_equal_residues(monkeypatch):
    # the rows are eliminated in a canonical order, so two line orders of
    # one arrangement hand _echelon_mod the same array
    seen = []
    echelon_mod = exactlinalg._echelon_mod

    def recording(a, primes):
        seen.append(a.copy())
        return echelon_mod(a, primes)

    monkeypatch.setattr(exactlinalg, "_echelon_mod", recording)
    arr = fixtures.disjoint_pencils(13, 6)
    lines = list(arr.lines)
    random.Random(0).shuffle(lines)
    matrices = [derivation_matrix(a, 11) for a in (arr, build_arrangement(lines))]
    assert matrices[0].rows != matrices[1].rows
    null_space_exact.cache_clear()
    firsts = []
    for matrix in matrices:
        seen.clear()
        null_space_exact(matrix)
        firsts.append(seen[0])
    assert np.array_equal(firsts[0], firsts[1])


def echelon_mod_oracle(m, ncols, p):
    """Row echelon form mod p, first nonzero residue as pivot, one row at a time."""
    rows = [[x % p for x in r] for r in m]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


@pytest.mark.parametrize("steps", [1, 2, exactlinalg.LAZY_STEPS])
@given(sparse_tall(), st.lists(st.sampled_from([3, 5, 7, 11, 13, 67108859, 67108837]),
                               min_size=1, max_size=5, unique=True))
@settings(max_examples=60, deadline=None)
def test_restricted_updates_match_row_by_row_elimination(steps, case, primes):
    # every residue of the echelon forms and of the RREF entries at the free
    # columns, for the primes of smallest pivot profile: small primes make
    # some primes unlucky, so the batch drops them mid-elimination
    m, ncols = case
    oracle = {p: echelon_mod_oracle(m, ncols, p) for p in primes}
    best = min(tuple(piv) + (ncols,) for _, piv in oracle.values())
    lucky = [p for p in primes if tuple(oracle[p][1]) + (ncols,) == best]
    batch = np.array(primes, dtype=np.int64)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactlinalg, "LAZY_STEPS", steps)
        a, kept, pivots = exactlinalg._echelon_mod(exactlinalg._Residues(m, ncols)(batch), batch)
        free = [c for c in range(ncols) if c not in pivots]
        w = exactlinalg._rref_at_free(a, kept, pivots, free)
    assert kept.tolist() == lucky and tuple(pivots) + (ncols,) == best
    for k, p in enumerate(lucky):
        rows, _ = oracle[p]
        assert a[k].tolist() == rows
        for i in range(len(pivots) - 1, -1, -1):
            for j in range(i):
                f = rows[j][pivots[i]]
                rows[j] = [(x - f * y) % p for x, y in zip(rows[j], rows[i])]
        assert w[k].tolist() == [[rows[i][f] for f in free] for i in range(len(pivots))]
