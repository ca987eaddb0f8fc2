"""Angular freeness loss, minimized by alternating least squares with restarts.

The loss of an arrangement at exponents (d1, d2) is one minus the best squared
cosine between an achievable Saito determinant T(alpha1, alpha2) and the
defining polynomial's coefficient vector q. Fixing either parameter vector
makes the problem a homogeneous least squares solve, so the two sides are
alternated; each half-step is accepted only if it does not lower the squared
cosine, which keeps the recorded history monotone within a restart.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .arrangement import Arrangement
from .certify import chain_certificate
from .derivations import (
    SaitoTensor,
    assemble_saito_tensor,
    contract,
    contract_matrix,
    derivation_matrix,
    null_space_float,
    null_space_from_fields,
)

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
    all_contractions_zero: bool = False


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
    """
    q = t.q
    best: ALSResult | None = None
    restart_losses: list[float] = []
    zero_flags: list[bool] = []
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
        restart_losses.append(1.0 - cur)
        zero_flags.append(
            np.linalg.norm(contract(t, alpha1, alpha2)) <= ZERO_GUARD
        )
        if best is None or 1.0 - cur < best.loss:
            best = ALSResult(
                loss=1.0 - cur,
                alpha1=alpha1,
                alpha2=alpha2,
                c=c,
                history=tuple(hist),
                restart_losses=(),
            )
    if best is None:
        raise ValueError("ALS needs at least one restart")
    all_zero = all(zero_flags)
    return ALSResult(
        loss=1.0 if all_zero else best.loss,
        alpha1=best.alpha1,
        alpha2=best.alpha2,
        c=best.c,
        history=best.history,
        restart_losses=tuple(restart_losses),
        all_contractions_zero=all_zero,
    )


@dataclass(frozen=True)
class SaitoEvaluation:
    """Full pipeline output: loss, ALS diagnostics, dimensions and timing."""

    loss: float
    d1: int
    d2: int
    k1: int
    k2: int
    result: ALSResult
    elapsed_ms: float
    tensor: SaitoTensor = field(repr=False)
    reason: str | None = None  # "all-contractions-zero" when ALS forced the loss to 1


def saito_functional(
    arr: Arrangement,
    d1: int,
    d2: int,
    config: ALSConfig = ALSConfig(),
) -> SaitoEvaluation:
    """Evaluate the angular freeness loss of an arrangement at (d1, d2).

    The tensor is built on orthonormal bases of D(A)_d1 and D(A)_d2 modulo
    Euler multiples, which the Saito determinant sends to zero; k1 and k2
    report the full nullities. When the lattice gives a deletion chain, both
    bases come from its checked certificate by Saito's criterion (see
    null_space_from_fields) and no derivation matrix is built; otherwise
    they are the orthonormalized exact kernels. A quotient can be empty, and
    then every contraction is zero and the loss is 1.
    """
    t0 = time.perf_counter()
    if d1 + d2 != arr.n - 1:
        raise ValueError(f"exponents ({d1}, {d2}) do not sum to n - 1 = {arr.n - 1}")
    cert = chain_certificate(arr, *sorted((d1, d2)))
    if cert is not None:
        fields = ((cert.theta1, cert.d1), (cert.theta2, cert.d2))
        v1 = null_space_from_fields(d1, fields)
        v2 = null_space_from_fields(d2, fields) if d2 != d1 else v1
    else:
        v1 = null_space_float(derivation_matrix(arr, d1))
        v2 = null_space_float(derivation_matrix(arr, d2)) if d2 != d1 else v1
    w1 = v1.quotient
    tensor = assemble_saito_tensor(arr, w1, v2.quotient if d2 != d1 else w1)
    result = als_minimize(tensor, config)
    elapsed = (time.perf_counter() - t0) * 1e3
    reason = "all-contractions-zero" if result.all_contractions_zero else None
    return SaitoEvaluation(
        loss=result.loss, d1=d1, d2=d2, k1=v1.nullity, k2=v2.nullity,
        result=result, elapsed_ms=elapsed, reason=reason, tensor=tensor,
    )
