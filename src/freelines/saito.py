"""Angular freeness loss: its exact value, and its float minimization by ALS.

The loss of an arrangement at exponents (d1, d2) is one minus the best squared
cosine between an achievable Saito determinant T(alpha1, alpha2) and the
defining polynomial's coefficient vector q.

saito_functional reads the loss off verify_free alone. On exact spaces of
tangent fields every nonzero Saito determinant is c*Q (Saito's criterion,
K. Saito, J. Fac. Sci. Univ. Tokyo 27, 1980), so the loss is 0 or 1: 0 when
verify_free certifies, and 1 when it refutes. Neither branch builds a float
basis, a tensor or ALS. On a certificate, k1 and k2 follow from the
exponents in closed form by the same criterion, and the evaluation carries
that certificate: verify_free(..., als=evaluation) re-checks it as a
witness rather than deriving it again.

als_minimize is the float evaluator of the paper's angular minimization, on
a tensor from assemble_saito_tensor. Fixing either parameter vector makes
the problem a homogeneous least squares solve, so the two sides are
alternated; each half-step is accepted only if it does not lower the squared
cosine, which keeps the recorded history monotone within a restart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .arrangement import Arrangement
from .certify import FreenessCertificate, NotFreeAtExponents, verify_free
from .derivations import SaitoTensor, contract_matrix, derivation_matrix, null_space_exact
from .exactlinalg import np
from .monomials import basis_size

# a contraction whose norm is at most this counts as zero
ZERO_GUARD = 1e-12


@dataclass(frozen=True)
class ALSConfig:
    iterations: int = 10
    restarts: int = 3
    rng_seed: int = 0

    def __post_init__(self):
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be at least 1")


@dataclass(frozen=True)
class ALSResult:
    loss: float
    alpha1: np.ndarray
    alpha2: np.ndarray
    c: float
    history: tuple[float, ...]  # squared cosine after each accepted half-step
    restart_losses: tuple[float, ...]


def homogeneous_lsq(a_mat: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, float]:
    """Unit (alpha, c) minimizing ||a_mat @ alpha - c q||, alpha renormalized.

    The minimizer is the smallest right singular vector of [a_mat | -q],
    computed from the (k+1) x (k+1) Gram matrix since rows vastly outnumber
    columns here. When a_mat is rank deficient, every alpha in its null space
    with c = 0 is a minimizer with zero residual too; among the minimizers
    whose residual is zero to rounding, the one with the largest c is taken,
    so a solution with a_mat @ alpha = c q, c != 0, wins over those.
    """
    a_mat = np.atleast_2d(np.asarray(a_mat, dtype=np.float64))
    q = np.asarray(q, dtype=np.float64)
    b = np.hstack([a_mat, -q[:, None]])
    gram = b.T @ b
    vals, vecs = np.linalg.eigh(gram)
    zero = vecs[:, vals <= vals[-1] * len(vals) * np.finfo(np.float64).eps]
    w = zero @ zero[-1]  # the c axis projected onto the zero-residual minimizers
    w = w / np.linalg.norm(w) if np.any(w) else vecs[:, 0]
    alpha, c = w[:-1], float(w[-1])
    norm = np.linalg.norm(alpha)
    if norm > 0:
        alpha = alpha / norm
        c = c / norm
    return alpha, c


def _cos2(vec: np.ndarray, q: np.ndarray) -> float:
    nv = np.linalg.norm(vec)
    if nv <= ZERO_GUARD:
        return 0.0
    r = float(np.dot(vec, q)) ** 2 / (nv * nv * float(np.dot(q, q)))
    return min(r, 1.0)


def als_minimize(t: SaitoTensor, config: ALSConfig = ALSConfig()) -> ALSResult:
    """Best result over independent restarts; deterministic given the config.

    Within a restart, alpha1 and alpha2 are alternately re-solved through
    homogeneous_lsq; a candidate that would lower the squared cosine is
    discarded (the previous iterate is kept), so history is non-decreasing.
    A contraction of norm at most ZERO_GUARD has squared cosine 0, so a zero
    or rounding-noise tensor keeps the loss at 1.
    """
    q = t.q
    runs: list[ALSResult] = []
    for r in range(config.restarts):
        rng = np.random.default_rng(np.random.SeedSequence([config.rng_seed & (2**64 - 1), r]))
        alpha2 = rng.standard_normal(t.k2)
        alpha2 /= np.linalg.norm(alpha2)
        alpha1 = np.zeros(t.k1)
        c = 0.0
        cur = 0.0
        hist: list[float] = []
        for _ in range(config.iterations):
            for side in (2, 1):
                a_mat = contract_matrix(t, alpha2 if side == 2 else alpha1, side)
                cand, c_cand = homogeneous_lsq(a_mat, q)
                cand_cos = _cos2(a_mat @ cand, q)
                if cand_cos >= cur:
                    c = c_cand
                    if side == 2:
                        alpha1 = cand
                    else:
                        alpha2 = cand
                    cur = cand_cos
                hist.append(cur)
        runs.append(ALSResult(
            loss=1.0 - cur, alpha1=alpha1, alpha2=alpha2, c=c, history=tuple(hist), restart_losses=()
        ))
    best = min(runs, key=lambda run: run.loss)  # the first restart wins a tie
    return replace(best, restart_losses=tuple(run.loss for run in runs))


@dataclass(frozen=True)
class SaitoEvaluation:
    """Exact loss, dimensions, timing and the certificate the loss was read from.

    certificate is the one verify_free returned; None on a refutation.
    Passed back as verify_free(..., als=evaluation), it is re-checked there
    as a witness instead of building the certificate a second time.
    """

    loss: float  # 0.0 when verify_free certifies, 1.0 when it refutes
    d1: int
    d2: int
    k1: int  # exact nullity of D(A)_d1, Euler multiples included
    k2: int
    elapsed_ms: float
    certificate: FreenessCertificate | None = field(repr=False)  # None when verify_free refutes
    reason: str | None = None  # "not-free-at-exponents" when verify_free refutes


def _free_dimension(d: int, e1: int, e2: int) -> int:
    """dim D(A)_d of a free arrangement with exponents (e1, e2), by Saito's criterion.

    D(A) is then the free module on E, theta1 and theta2 of degrees 1, e1
    and e2, so D(A)_d = S_(d-1) E + S_(d-e1) theta1 + S_(d-e2) theta2, and
    S_m has dimension C(m + 2, 2) for m >= 0 and 0 below.
    """
    return sum(basis_size(m) for m in (d - 1, d - e1, d - e2) if m >= 0)


def saito_functional(arr: Arrangement, d1: int, d2: int) -> SaitoEvaluation:
    """Evaluate the angular freeness loss of an arrangement at (d1, d2).

    verify_free decides freeness at the exponents, in either order. On a
    refutation the loss is 1, and k1 and k2 are the nullities of the exact
    kernels its pair scan has just built (cached). On a certificate, chain,
    witness or kernel scan alike, the loss is 0, k1 and k2 are the
    dimensions of D(A)_d1 and D(A)_d2 by Saito's criterion
    (_free_dimension), and the certificate is returned with the loss.

    elapsed_ms is the wall time of the call. numpy loads at the first exact
    kernel of a process (exactlinalg binds it lazily), so the first
    evaluation that runs a kernel includes that load, about 55 ms on a
    2-core Xeon; a chain or witness certificate runs no numpy.
    """
    t0 = time.perf_counter()
    outcome = verify_free(arr, *sorted((d1, d2)))
    if isinstance(outcome, NotFreeAtExponents):
        k1, k2 = (null_space_exact(derivation_matrix(arr, d)).nullity for d in (d1, d2))
        return SaitoEvaluation(
            loss=1.0, d1=d1, d2=d2, k1=k1, k2=k2, elapsed_ms=(time.perf_counter() - t0) * 1e3,
            certificate=None, reason="not-free-at-exponents",
        )
    cert = outcome.certificate
    k1, k2 = (_free_dimension(d, cert.d1, cert.d2) for d in (d1, d2))
    return SaitoEvaluation(
        loss=0.0, d1=d1, d2=d2, k1=k1, k2=k2, elapsed_ms=(time.perf_counter() - t0) * 1e3,
        certificate=cert,
    )
