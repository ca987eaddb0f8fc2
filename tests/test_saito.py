import warnings

import numpy as np
import pytest

from freelines.arrangement import build_arrangement, candidate_exponents, canonicalize_line
from freelines.derivations import (
    SaitoTensor,
    derivation_matrix,
    euler_multiples,
    null_space_float,
)
from freelines.saito import (
    ALSConfig,
    als_minimize,
    homogeneous_lsq,
    saito_functional,
)


def _random_tensor(rng, n_out=None, k1=None, k2=None):
    n_out = n_out or int(rng.integers(5, 12))
    k1 = k1 or int(rng.integers(1, 5))
    k2 = k2 or int(rng.integers(1, 5))
    dense = rng.standard_normal((n_out, k1, k2))
    q = rng.standard_normal(n_out)
    q /= np.linalg.norm(q)
    v1 = np.linalg.qr(rng.standard_normal((3 * n_out, k1)))[0]
    v2 = np.linalg.qr(rng.standard_normal((3 * n_out, k2)))[0]
    return SaitoTensor(
        n=1, d1=0, d2=0, v1=v1, v2=v2, q=q, q_exact=tuple(q), tensor=dense
    )


def test_homogeneous_lsq_q_in_span():
    q = np.array([1.0, 2.0, 2.0])
    alpha, c = homogeneous_lsq(q[:, None], q)
    assert abs(abs(alpha[0]) - 1.0) < 1e-12
    residual = np.linalg.norm(q[:, None] @ alpha - c * q)
    assert residual < 1e-12


def test_homogeneous_lsq_orthogonal_column():
    a = np.array([[1.0], [0.0], [0.0]])
    q = np.array([0.0, 1.0, 0.0])
    alpha, c = homogeneous_lsq(a, q)
    v = a @ alpha
    cos2 = (v @ q) ** 2 / (v @ v * (q @ q))
    assert cos2 < 1e-20


def test_homogeneous_lsq_matches_grid_oracle():
    rng = np.random.default_rng(42)
    a = rng.standard_normal((6, 2))
    q = rng.standard_normal(6)
    alpha, c = homogeneous_lsq(a, q)
    w = np.concatenate([alpha, [c]])
    w /= np.linalg.norm(w)
    achieved = np.linalg.norm(np.hstack([a, -q[:, None]]) @ w)
    # brute-force minimization over a fine spherical grid of unit w
    best = np.inf
    b = np.hstack([a, -q[:, None]])
    thetas = np.linspace(0, np.pi, 180)
    phis = np.linspace(0, 2 * np.pi, 360, endpoint=False)
    for th in thetas:
        sin_th = np.sin(th)
        ws = np.stack(
            [sin_th * np.cos(phis), sin_th * np.sin(phis), np.full_like(phis, np.cos(th))],
            axis=0,
        )
        best = min(best, np.min(np.linalg.norm(b @ ws, axis=0)))
    assert achieved <= best + 1e-6


def test_als_history_monotone_on_random_tensors():
    rng = np.random.default_rng(0)
    for _ in range(100):
        t = _random_tensor(rng)
        result = als_minimize(t, ALSConfig(iterations=6, restarts=2, rng_seed=int(rng.integers(2**31))))
        h = np.array(result.history)
        assert np.all(np.diff(h) >= -1e-12)
        assert 0.0 <= result.loss <= 1.0


def test_als_restart_determinism():
    rng = np.random.default_rng(12)
    t = _random_tensor(rng)
    cfg = ALSConfig(iterations=8, restarts=4, rng_seed=99)
    r1 = als_minimize(t, cfg)
    r2 = als_minimize(t, cfg)
    assert r1.restart_losses == r2.restart_losses
    assert r1.loss == r2.loss


def test_als_zero_tensor_reports_all_contractions_zero():
    rng = np.random.default_rng(5)
    t = _random_tensor(rng)
    zero = SaitoTensor(
        n=t.n, d1=t.d1, d2=t.d2, v1=t.v1, v2=t.v2, q=t.q, q_exact=t.q_exact,
        tensor=np.zeros_like(t.tensor),
    )
    result = als_minimize(zero, ALSConfig(restarts=2))
    assert result.all_contractions_zero
    assert result.loss == 1.0


@pytest.mark.parametrize("name", ["boolean", "free13", "free19", "free20"])
def test_tensor_is_built_modulo_euler_multiples(name, request):
    arr = request.getfixturevalue(name)
    exps = candidate_exponents(arr)
    ev = saito_functional(arr, exps.d1, exps.d2, config=ALSConfig(iterations=1, restarts=1))
    for d, nullity, v in ((ev.d1, ev.k1, ev.tensor.v1), (ev.d2, ev.k2, ev.tensor.v2)):
        full = null_space_float(derivation_matrix(arr, d))
        assert full.nullity == nullity
        assert v.shape[1] == nullity - full.euler_dim == nullity - len(euler_multiples(d))
        euler = np.array(euler_multiples(d), dtype=np.float64)
        euler /= np.linalg.norm(euler, axis=1, keepdims=True)
        assert np.max(np.abs(euler @ v)) <= 1e-12
    assert ev.tensor.tensor.shape == (ev.tensor.out_size, ev.tensor.k1, ev.tensor.k2)


@pytest.mark.parametrize("d1,d2", [(1, 4), (2, 3)])
def test_empty_euler_quotient_gives_loss_one(d1, d2):
    # six lines tangent to a conic: no three concurrent, and no tangent field
    # below degree 4 besides the Euler multiples
    generic6 = build_arrangement([canonicalize_line(1, t, t * t) for t in range(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = saito_functional(generic6, d1, d2)
    assert ev.tensor.k1 == 0
    assert ev.k1 == len(euler_multiples(d1))
    assert ev.loss == 1.0
    assert ev.reason == "all-contractions-zero"


def test_boolean_loss_tiny(boolean):
    ev = saito_functional(boolean, 1, 1)
    assert ev.loss <= 1e-9
    assert (ev.k1, ev.k2) == (3, 3)


def test_fixture13_loss(free13):
    ev = saito_functional(free13, 6, 6)
    assert ev.loss < 1e-6


def test_saito_functional_rejects_bad_exponents(boolean):
    with pytest.raises(ValueError):
        saito_functional(boolean, 1, 3)


def test_scale_invariance_through_canonicalization():
    from fractions import Fraction

    base = build_arrangement(
        [canonicalize_line(1, 2, 3), canonicalize_line(1, -1, 0), canonicalize_line(0, 1, 1)]
    )
    scaled = build_arrangement(
        [
            canonicalize_line(Fraction(2, 7), Fraction(4, 7), Fraction(6, 7)),
            canonicalize_line(-5, 5, 0),
            canonicalize_line(0, Fraction(1, 3), Fraction(1, 3)),
        ]
    )
    assert base == scaled
    e1 = saito_functional(base, 1, 1)
    e2 = saito_functional(scaled, 1, 1)
    assert e1.loss == e2.loss  # identical canonical input, bit-identical run


def test_history_records_every_half_step(boolean):
    ev = saito_functional(boolean, 1, 1, config=ALSConfig(iterations=4, restarts=1))
    assert len(ev.result.history) == 8
