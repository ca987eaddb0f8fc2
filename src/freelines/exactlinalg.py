"""Exact kernels of integer matrices over the rationals.

kernel_basis is multimodular and Las Vegas: never wrong, only retried.

- Row order: the nonzero rows are sorted by leading column, ties broken by
  the row itself, before anything else. The RREF, and so the basis, does not
  depend on the order of the rows, but the work does: two orders of the same
  rows (two line orders of one arrangement, say) are eliminated as one
  array, and the sorted order puts sparse rows with early leading columns
  first, which cuts fill-in on the sparse derivation matrices.
- Per prime: the matrix is reduced modulo a batch of primes below 2^26 and
  brought to row echelon form for all of them at once, in one int64 array of
  shape (primes, rows, cols), with lazy reduction (only the pivot row and the
  pivot column are reduced at each step, the whole block at least every
  LAZY_STEPS steps). Back-substitution mod p then gives the reduced row echelon
  (RREF) entries at the free columns. Each rank-1 update, in elimination and
  in back-substitution alike, goes only to the rows with a nonzero residue in
  the pivot column for some prime of the batch: the other rows would subtract
  zero. Derivation matrices are sparse (5-10% nonzero on the disjoint-pencil
  mutants, about 30% on generic arrangements), so most rows are left out.
- Across primes: a prime whose pivot columns are not the lexicographically
  smallest seen is unlucky and dropped; within a batch that happens at the
  first column where another prime finds a pivot and it finds none, so the
  primes left in a batch share one pivot profile. The residues of the lucky
  primes are combined by CRT and lifted to rationals by reconstruction with
  a common denominator, one held-out prime screening the lift. Primes are
  added until the lifted vectors satisfy A x = 0 exactly over the integers,
  a check that multiplies only the nonzero entries of each row.

A vector that passes is the RREF kernel vector of its free column: its support
is that column and the pivot columns before it, so it is unique. It is
returned in primitive normal form (primitive).

References: Dixon, Numer. Math. 40 (1982); von zur Gathen and Gerhard, Modern
Computer Algebra, section 5.10 (rational reconstruction).

echelon_form and rank read the pivot columns off that RREF: the last nonzero
entry of an RREF kernel vector is its free column, and every other column is
a pivot column. So the module has one elimination engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from math import gcd, isqrt, log2, prod
from operator import lshift, mul

import numpy as np

# A product of two residues is below 2^52, so int64 has room for sums of them.
PRIME_LIMIT = 1 << 26
# Each lazy step subtracts one such product from an entry that started in
# [0, p): 2^11 - 1 steps stay above -2^63.
LAZY_STEPS = (1 << 11) - 1
FIRST_BATCH = 4
PRIME_BLOCK = 32


# ---------------------------------------------------------------------------
# Word primes
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases 2, 3, 5, 7: deterministic below 3.2e9."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _prime_block(i: int) -> tuple[int, ...]:
    """Primes PRIME_BLOCK*i .. PRIME_BLOCK*(i+1)-1 below PRIME_LIMIT, largest first."""
    n = _prime_block(i - 1)[-1] - 2 if i else PRIME_LIMIT - 1
    block = []
    while len(block) < PRIME_BLOCK:
        if _is_prime(n):
            block.append(n)
        n -= 2
    return tuple(block)


def word_primes(count: int) -> list[int]:
    """The `count` largest primes below 2^26, largest first, made on first use."""
    blocks = -(-count // PRIME_BLOCK)
    return [p for i in range(blocks) for p in _prime_block(i)][:count]


# ---------------------------------------------------------------------------
# Elimination modulo a batch of primes
# ---------------------------------------------------------------------------


class _Residues:
    """The matrix modulo any batch of primes, as int64 (primes, rows, cols)."""

    def __init__(self, rows: list, ncols: int):
        try:
            self.small = np.array(rows, dtype=np.int64).reshape(len(rows), ncols)
            # both ends: abs(-2^63) wraps in int64
            self.bits = max(int(self.small.max()).bit_length(), int(self.small.min()).bit_length())
        except OverflowError:
            self.small = None
            self.bits = max(abs(x).bit_length() for r in rows for x in r)
            # two's complement bytes, little end first; value = sum b_i 256^i - top * 256^nbytes
            nbytes = self.nbytes = self.bits // 8 + 1
            raw = b"".join(x.to_bytes(nbytes, "little", signed=True) for r in rows for x in r)
            self.bytes = np.frombuffer(raw, dtype=np.uint8).reshape(len(rows), ncols, nbytes).astype(np.int64)

    def __call__(self, primes: np.ndarray) -> np.ndarray:
        pc = primes[:, None, None]
        if self.small is not None:
            return self.small[None] % pc
        weights = np.array([[pow(256, i, int(p)) for i in range(self.nbytes)] for p in primes], dtype=np.int64)
        top = np.array([pow(256, self.nbytes, int(p)) for p in primes], dtype=np.int64)
        # each byte times its weight is below 2^34, so the sum over bytes stays small
        res = (self.bytes @ weights.T) - (self.bytes[:, :, -1:] >= 128) * top
        return np.ascontiguousarray(np.moveaxis(res, 2, 0)) % pc


def _echelon_mod(a: np.ndarray, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Row echelon form of a[k] modulo primes[k], for the primes of smallest pivot profile.

    At a column where some prime finds a pivot, a prime that finds none has
    the larger pivot profile, so it is unlucky and dropped there. Returns the
    echelon forms of the primes that remain (residues in [0, p), each pivot
    entry 1 with zeros below it), those primes and their common pivot
    columns. a is reduced in place until a prime is dropped. The pivot row is
    the first with a nonzero residue.

    After the pivot row is normalized, only the rows below it with a nonzero
    residue in the pivot column for some prime are updated; for all other
    rows the product to subtract is zero, so the result is the same residue
    for residue. Every entry still receives at most one product below 2^52
    per step, so the LAZY_STEPS bound on an unreduced entry holds as before.
    When the first row with a nonzero residue is the same for every prime,
    as it almost always is, the step swaps that row in for all primes at
    once and reads the rows to update off the same column scan.
    """
    nrows, ncols = a.shape[1:]
    pc = primes[:, None]
    plist = primes.tolist()
    pivots: list[int] = []
    r, lazy = 0, 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[:, r:, c] % pc
        a[:, r:, c] = col
        nz = col != 0
        rows = nz.any(axis=0).nonzero()[0]  # offsets from r of the rows to pivot or update
        if not rows.size:
            continue
        if nz[:, rows[0]].all():
            # one pivot row for every prime; the row it swaps with is zero at c
            if rows[0]:
                held = a[:, r].copy()
                a[:, r] = a[:, r + rows[0]]
                a[:, r + rows[0]] = held
            hit = rows[1:] + r
        else:
            has = nz.any(axis=1)
            if not has.all():
                a, primes, nz = a[has], primes[has], nz[has]
                pc, plist = primes[:, None], primes.tolist()
            piv = nz.argmax(axis=1) + r
            moved = np.flatnonzero(piv != r)
            held = a[moved, r].copy()
            a[moved, r] = a[moved, piv[moved]]
            a[moved, piv[moved]] = held
            hit = np.flatnonzero((a[:, r + 1:, c] != 0).any(axis=0)) + (r + 1)
        prow = a[:, r, c:] % pc
        inv = [pow(v, -1, q) for v, q in zip(prow[:, 0].tolist(), plist)]
        prow = prow * np.array(inv, dtype=np.int64)[:, None] % pc
        a[:, r, c:] = prow
        if hit.size:
            a[:, hit, c:] -= a[:, hit, c, None] * prow[:, None, :]
        pivots.append(c)
        r += 1
        lazy += 1
        if lazy == LAZY_STEPS:
            a %= pc[:, :, None]
            lazy = 0
    a %= pc[:, :, None]
    return a, primes, pivots


def _rref_at_free(u: np.ndarray, primes: np.ndarray, pivots: list[int], free: list[int]) -> np.ndarray:
    """RREF entries of pivot row i at free column free[j] modulo primes[k]: (primes, rank, free).

    u holds echelon forms that share the pivot columns `pivots`, pivot entries 1.
    Pivot row i is subtracted only from the rows above it whose entry in
    column pivots[i] is nonzero for some prime, the others would subtract
    zero; at most one product per step reaches an entry, as in _echelon_mod.
    """
    r = len(pivots)
    upper = u[:, :r][:, :, pivots]
    w = u[:, :r][:, :, free]
    pc = primes[:, None]
    hits = (upper != 0).any(axis=0)  # hits[j, i]: row j takes a multiple of row i
    lazy = 0
    for i in range(r - 1, -1, -1):
        xi = w[:, i] % pc
        w[:, i] = xi
        hit = hits[:i, i].nonzero()[0]
        if hit.size:
            w[:, hit] -= upper[:, hit, i, None] * xi[:, None, :]
        lazy += 1
        if lazy == LAZY_STEPS:
            w %= primes[:, None, None]
            lazy = 0
    return w


# ---------------------------------------------------------------------------
# Lifting to Q and the exact check
# ---------------------------------------------------------------------------


def _reconstruct(t: int, modulus: int, num_bound: int, den_bound: int) -> tuple[int, int] | None:
    """(a, b) with a = b t mod modulus, |a| <= num_bound, 0 < b <= den_bound, gcd 1."""
    r0, r1 = modulus, t % modulus
    s0, s1 = 0, 1
    while r1 > num_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > den_bound:
        return None
    a, b = (r1, s1) if s1 > 0 else (-r1, -s1)
    if gcd(a, b) != 1:
        return None
    return a, b


def _lift(residues: np.ndarray, primes: list[int], pivots: list[int], free: list[int],
          ncols: int) -> list[tuple[int, ...]] | None:
    """Primitive kernel vectors from RREF residues, or None while primes are too few.

    The last prime is held out of the CRT and screens each lifted entry.
    An entry whose residues are 0 for every prime, the held-out one
    included, lifts to 0 and passes that screen, so only the others are
    lifted.
    """
    check = primes[-1]
    modulus = prod(primes[:-1])
    half = modulus // 2
    bound = isqrt(half)  # numerators and the common denominator alike
    crt = np.array([(modulus // p) * pow(modulus // p % p, -1, p) for p in primes[:-1]], dtype=object)
    den = 1
    basis = []
    for j, f in enumerate(free):
        rows = int(np.searchsorted(pivots, f))  # pivots after f have zero entries here
        live = residues[:, :rows, j].any(axis=0).nonzero()[0]
        values = residues[:-1, live, j].T.astype(object).dot(crt) if live.size else []
        nums = [0] * rows
        for i, v in zip(live.tolist(), values):
            t = v % modulus * den % modulus
            if t > half:
                t -= modulus
            if abs(t) > bound:
                ab = _reconstruct(t, modulus, bound, bound // den)
                if ab is None:
                    return None
                t, b = ab
                nums = [x * b for x in nums]
                den *= b
            if (t - den * int(residues[-1, i, j])) % check:
                return None
            nums[i] = t
        vec = [0] * ncols
        vec[f] = den
        for c, t in zip(pivots, nums):
            vec[c] = -t
        basis.append(primitive(vec))
    return basis


def primitive(vec: list[int]) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries, its first nonzero entry made positive."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _annihilates(rows: list, abits: int, vectors: list[tuple[int, ...]], ncols: int) -> bool:
    """A v = 0 exactly for every v, by one packed integer product per row.

    abits bounds the bit length of the entries of A.
    Column j carries sum_k v_k[j] 2^(slot*k); a row's dot product with the
    packed columns is then sum_k (A v_k)_row 2^(slot*k), and slot bits hold
    each term, so the sum is 0 only when every term is. Every row is checked
    against every vector, but only a row's nonzero entries are multiplied.
    """
    if not vectors:
        return True
    vbits = max(map(int.bit_length, chain.from_iterable(vectors)))
    slot = abits + vbits + ncols.bit_length() + 2
    shifts = [slot * k for k in range(len(vectors))]
    packed = [sum(map(lshift, column, shifts)) for column in zip(*vectors)]
    # compress passes on the nonzero entries of a row and the packed columns they meet
    return all(sum(map(mul, compress(r, r), compress(packed, r))) == 0 for r in rows)


def _prime_limit(rows: list, ncols: int) -> int:
    """Primes after which a failed kernel can only be a bug.

    Every RREF entry is a ratio of two minors of at most min(rows, cols)
    rows, bounded by the product of the largest row norms (Hadamard). Three
    times the primes that reconstruction then needs covers the unlucky ones,
    which divide such minors.
    """
    k = min(len(rows), ncols)
    norms = sorted((log2(sum(x * x for x in r)) / 2 for r in rows), reverse=True)
    bits = 2 * sum(norms[:k]) + 2
    return 3 * int(bits / log2(PRIME_LIMIT / 2) + 2) + 16


def _canonical(row: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sort key of a nonzero row: its leading column, then the row itself."""
    return next(j for j, x in enumerate(row) if x), row


def kernel_basis(matrix: list[list[int]], ncols: int | None = None) -> list[tuple[int, ...]]:
    """Primitive integer basis of the rational kernel, one RREF vector per free column.

    The nonzero rows are eliminated in canonical order (_canonical), so the
    work, like the basis, is the same for every order of the rows.
    """
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    rows = sorted((tuple(r) for r in matrix if any(r)), key=_canonical)
    if not rows:
        return [tuple(int(c == f) for c in range(ncols)) for f in range(ncols)]
    residues = _Residues(rows, ncols)
    best = None  # smallest padded pivot profile seen
    kept_primes: list[int] = []
    kept: list[np.ndarray] = []
    used, limit = 0, None
    while True:
        count = FIRST_BATCH if not used else max(FIRST_BATCH, used // 4)
        primes = np.array(word_primes(used + count)[used:], dtype=np.int64)
        used += count
        a, primes, piv = _echelon_mod(residues(primes), primes)
        # ncols ends the profile: one that stops early compares as larger
        profile = tuple(piv) + (ncols,)
        if best is None or profile < best:
            best, kept_primes, kept = profile, [], []
        if profile == best:
            free = sorted(set(range(ncols)) - set(piv))
            kept.append(_rref_at_free(a, primes, piv, free))
            kept_primes += primes.tolist()
            if len(kept_primes) > 1:
                basis = _lift(np.concatenate(kept), kept_primes, piv, free, ncols)
                if basis is not None and _annihilates(rows, residues.bits, basis, ncols):
                    return basis
        if used > 64:
            limit = limit or _prime_limit(rows, ncols)
            if used > limit:
                raise RuntimeError(f"kernel_basis: no verified kernel after {used} primes")


@dataclass
class Echelon:
    """The pivot columns of the RREF of a matrix with ncols columns."""

    pivot_columns: list[int]
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)


def echelon_form(matrix: list[list[int]], ncols: int | None = None) -> Echelon:
    """The RREF's pivot columns: all but the free ones, each the last nonzero entry of a kernel_basis vector."""
    if ncols is None:
        ncols = len(matrix[0]) if matrix else 0
    free = {max(j for j, x in enumerate(v) if x) for v in kernel_basis(matrix, ncols)}
    return Echelon([c for c in range(ncols) if c not in free], ncols)


def rank(matrix: list[list[int]], ncols: int | None = None) -> int:
    return echelon_form(matrix, ncols).rank
