import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from freelines import certify, derivations, exactlinalg, fixtures, saito
from freelines.arrangement import build_arrangement, candidate_exponents, canonicalize_line
from freelines.derivations import (
    SaitoTensor,
    assemble_saito_tensor,
    derivation_matrix,
    euler_multiples,
    null_space_exact,
    null_space_float,
    null_space_from_fields,
)
from freelines.saito import (
    ALSConfig,
    als_minimize,
    homogeneous_lsq,
    saito_functional,
)
from freelines.search import candidate_pool, supersolvable_two_pencil


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


def test_homogeneous_lsq_skips_the_null_space_of_a_rank_deficient_map():
    # alpha = e1 with c = 0 also has zero residual; the solution with c != 0 is taken
    a = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    q = np.array([1.0, 0.0, 0.0])
    alpha, c = homogeneous_lsq(a, q)
    assert abs(c) > 0.5
    assert np.allclose(a @ alpha, c * q)


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


def test_als_zero_tensor_gives_loss_one():
    # a zero map, or one of rounding noise, never passes ZERO_GUARD
    rng = np.random.default_rng(5)
    t = _random_tensor(rng)
    for tensor in (np.zeros_like(t.tensor), 1e-15 * rng.standard_normal(t.tensor.shape)):
        vanishing = SaitoTensor(
            n=t.n, d1=t.d1, d2=t.d2, v1=t.v1, v2=t.v2, q=t.q, q_exact=t.q_exact, tensor=tensor,
        )
        result = als_minimize(vanishing, ALSConfig(restarts=2))
        assert result.loss == 1.0
        assert result.restart_losses == (1.0, 1.0)


def _certificate_tensor(arr, ev):
    """The Saito tensor on the Euler quotients of the bases of D(A)_d1 and D(A)_d2 from ev's certificate."""
    cert = ev.certificate
    fields = ((cert.theta1, cert.d1), (cert.theta2, cert.d2))
    v1 = null_space_from_fields(ev.d1, fields)
    v2 = null_space_from_fields(ev.d2, fields) if ev.d2 != ev.d1 else v1
    return assemble_saito_tensor(arr, v1.quotient, v2.quotient)


@pytest.mark.parametrize("name", ["boolean", "free13", "free19", "free20"])
def test_tensor_is_built_modulo_euler_multiples(name, request):
    arr = request.getfixturevalue(name)
    exps = candidate_exponents(arr)
    ev = saito_functional(arr, exps.d1, exps.d2)
    tensor = _certificate_tensor(arr, ev)
    for d, nullity, v in ((ev.d1, ev.k1, tensor.v1), (ev.d2, ev.k2, tensor.v2)):
        full = null_space_float(derivation_matrix(arr, d))
        assert full.nullity == nullity
        assert v.shape[1] == nullity - full.euler_dim == nullity - len(euler_multiples(d))
        euler = np.array(euler_multiples(d), dtype=np.float64)
        euler /= np.linalg.norm(euler, axis=1, keepdims=True)
        assert np.max(np.abs(euler @ v)) <= 1e-12
    assert tensor.tensor.shape == (tensor.out_size, tensor.k1, tensor.k2)


def _generic6():
    return build_arrangement([canonicalize_line(1, t, t * t) for t in range(6)])


@pytest.mark.parametrize("d1,d2", [(1, 4), (2, 3)])
def test_empty_euler_quotient_gives_loss_one(d1, d2):
    # six lines tangent to a conic: no three concurrent, and no tangent field
    # below degree 4 besides the Euler multiples
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ev = saito_functional(_generic6(), d1, d2)
    assert ev.certificate is None
    assert ev.k1 == len(euler_multiples(d1))
    assert ev.loss == 1.0
    assert ev.reason == "not-free-at-exponents"


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
    tensor = _certificate_tensor(boolean, saito_functional(boolean, 1, 1))
    assert len(als_minimize(tensor, ALSConfig(iterations=4, restarts=1)).history) == 8


# ---------------------------------------------------------------------------
# Null spaces from Saito's criterion on inputs with a deletion chain
# ---------------------------------------------------------------------------


def _row_normalized(arr, d):
    m = np.array([[float(v) for v in row] for row in derivation_matrix(arr, d).rows])
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _max_angle(a, b):
    """Largest principal angle between the spans of two orthonormal bases of equal size."""
    if a.shape[1] == 0:
        return 0.0
    return float(np.arcsin(min(1.0, np.linalg.norm(b - a @ (a.T @ b), 2))))


@pytest.mark.parametrize("name", ["free13", "free19", "free20"])
def test_chain_bases_annihilate_the_derivation_matrix(name, request):
    # the exact kernel of free_19 at degree 11 has columns of condition ~1e11,
    # so its orthonormalized float basis leaves residuals near 1e-7
    arr = request.getfixturevalue(name)
    exps = candidate_exponents(arr)
    ev = saito_functional(arr, exps.d1, exps.d2)
    tensor = _certificate_tensor(arr, ev)
    for d, v in ((ev.d1, tensor.v1), (ev.d2, tensor.v2)):
        assert np.max(np.abs(_row_normalized(arr, d) @ v)) <= 1e-12


def _basis_cases():
    from test_certify import random_pool_arrangements

    named = [
        ("boolean", fixtures.boolean_arrangement()),
        ("np5", fixtures.near_pencil(5)),
        ("np6", fixtures.near_pencil(6)),
        ("two_pencil_7x7", supersolvable_two_pencil(7, 7)),
        ("free13", fixtures.free_13()),
        ("free19", fixtures.free_19()),
        ("free20", fixtures.free_20()),
    ]
    return named + [(f"pool1_{i}", arr) for i, arr in enumerate(random_pool_arrangements(40, seed=9))]


def _kernel_path(arr, d1, d2, config):
    """Orthonormalized exact kernels, their tensor and ALS: the oracle of saito_functional."""
    v1 = null_space_float(derivation_matrix(arr, d1))
    v2 = null_space_float(derivation_matrix(arr, d2)) if d2 != d1 else v1
    w1 = v1.quotient
    tensor = assemble_saito_tensor(arr, w1, v2.quotient if d2 != d1 else w1)
    return v1.nullity, v2.nullity, tensor, als_minimize(tensor, config)


def test_certificate_bases_match_the_kernel_path():
    # every basis case is free, so saito_functional returns a certificate,
    # and its closed-form nullities, the tensor on its bases and ALS there
    # are checked against the exact kernels
    config = ALSConfig(iterations=2, restarts=1)
    for name, arr in _basis_cases():
        exps = candidate_exponents(arr)
        ev = saito_functional(arr, exps.d1, exps.d2)
        cert_tensor = _certificate_tensor(arr, ev)
        k1, k2, tensor, ref = _kernel_path(arr, exps.d1, exps.d2, config)
        assert (ev.k1, ev.k2) == (k1, k2), name
        assert cert_tensor.tensor.shape == tensor.tensor.shape, name
        assert abs(ev.loss - ref.loss) <= 1e-12, name
        assert abs(als_minimize(cert_tensor, config).loss - ref.loss) <= 1e-12, name
        # the kernel path's own float basis of free_19 at degree 11 is only
        # about 1e-6 from the kernel (see the test above)
        tol = 1e-5 if name == "free19" else 1e-9
        assert _max_angle(cert_tensor.v1, tensor.v1) <= tol, name
        assert _max_angle(cert_tensor.v2, tensor.v2) <= tol, name


@pytest.mark.parametrize("name", ["free13", "free19", "free20"])
def test_fields_basis_ignores_the_scale_of_a_field(name, request):
    # each spanning vector is scaled to unit max entry before it is converted,
    # so theta1 / 3, with Fraction coefficients, gives the same floats and
    # the same basis bit for bit
    arr = request.getfixturevalue(name)
    exps = candidate_exponents(arr)
    cert = certify.chain_certificate(arr, exps.d1, exps.d2)
    third = tuple({e: Fraction(v, 3) for e, v in comp.items()} for comp in cert.theta1)
    for d in sorted({cert.d1, cert.d2, cert.d2 + 1}):
        got = null_space_from_fields(d, ((third, cert.d1), (cert.theta2, cert.d2)))
        want = null_space_from_fields(d, ((cert.theta1, cert.d1), (cert.theta2, cert.d2)))
        assert got.euler_dim == want.euler_dim
        assert np.array_equal(got.basis, want.basis), d


# disjoint_pencils(5, 2) and the verify-refute benchmark's five mutants
PENCILS = ((5, 2), (9, 4), (10, 5), (11, 5), (13, 6), (13, 7))


def _refuted_cases(pool_sets=12, seed=16):
    """Inputs verify_free refutes: generic6, the disjoint-pencil mutants and random pool sets.

    The pool sets are random 7-10-line sets of the R = 2 pool with candidate
    exponents, about a third of which are not free, drawn until pool_sets
    are refuted.
    """
    cases = [(f"generic6_{d1}_{d2}", _generic6(), d1, d2) for d1, d2 in ((1, 4), (2, 3))]
    for k, m in PENCILS:
        arr = fixtures.disjoint_pencils(k, m)
        exps = candidate_exponents(arr)
        cases.append((f"pencils_{k}_{m}", arr, exps.d1, exps.d2))
    rng = random.Random(seed)
    lines = candidate_pool(2).lines
    refuted = 0
    while refuted < pool_sets:
        arr = build_arrangement(rng.sample(lines, rng.randint(7, 10)))
        exps = candidate_exponents(arr)
        if exps is not None and isinstance(certify.verify_free(arr, exps.d1, exps.d2), certify.NotFreeAtExponents):
            cases.append((f"pool2_{refuted}", arr, exps.d1, exps.d2))
            refuted += 1
    return cases


def test_refuted_inputs_have_a_zero_kernel_tensor():
    # the kernel path stays an oracle: on a refuted input every determinant
    # of exact kernel vectors is 0 * Q, so the float tensor is rounding
    # noise and ALS leaves the loss at 1, as saito_functional reports
    config = ALSConfig(iterations=2, restarts=2)
    for name, arr, d1, d2 in _refuted_cases():
        _, _, tensor, ref = _kernel_path(arr, d1, d2, config)
        assert np.max(np.abs(tensor.tensor), initial=0.0) <= 1e-12, name
        assert ref.loss == 1.0, name
        assert saito_functional(arr, d1, d2).loss == ref.loss, name


def test_free_inputs_lose_nothing_at_reversed_exponents():
    # at (d2, d1) the first half-step is rank deficient, with trivial minimizers c = 0
    for name, arr in _basis_cases():
        exps = candidate_exponents(arr)
        if exps.d1 != exps.d2 and certify.chain_certificate(arr, exps.d1, exps.d2) is not None:
            assert saito_functional(arr, exps.d2, exps.d1).loss <= 1e-12, name


def test_chain_bases_build_no_derivation_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("saito_functional built a derivation matrix")

    monkeypatch.setattr(saito, "derivation_matrix", refuse)
    monkeypatch.setattr(certify, "derivation_matrix", refuse)
    for arr in [fixtures.free_13(), fixtures.free_19(), fixtures.free_20()]:
        exps = candidate_exponents(arr)
        assert saito_functional(arr, exps.d1, exps.d2).loss <= 1e-12


def test_refutation_builds_no_basis_tensor_or_als(monkeypatch):
    # neither verdict builds a float basis, a tensor or ALS: a refutation
    # reads loss 1 and a certificate, chain or kernel scan alike, loss 0
    calls = []
    kernel_basis = exactlinalg.kernel_basis
    monkeypatch.setattr(exactlinalg, "kernel_basis", lambda *a: calls.append(a) or kernel_basis(*a))

    def kernel_calls_cold(run) -> int:
        derivations.derivation_matrix.cache_clear()
        derivations.null_space_exact.cache_clear()
        calls.clear()
        run()
        return len(calls)

    def refuse(*args):
        raise AssertionError("saito_functional built a float basis, tensor or ALS")

    mutant, big_mutant = fixtures.disjoint_pencils(5, 2), fixtures.disjoint_pencils(9, 4)
    exps, exps19 = candidate_exponents(big_mutant), candidate_exponents(fixtures.free_19())
    refuted = [(mutant, 3, 3, 1.0), (big_mutant, exps.d2, exps.d1, 1.0), (_generic6(), 4, 1, 1.0)]
    certified = [(fixtures.free_13(), 6, 6, 0.0), (fixtures.free_19(), exps19.d2, exps19.d1, 0.0),
                 (supersolvable_two_pencil(3, 5), 3, 5, 0.0)]
    for chain, cases in ((True, refuted + certified), (False, certified)):
        for arr, d1, d2, loss in cases:
            evs = []
            with monkeypatch.context() as m:
                if not chain:  # certificates from the kernel pair scan
                    m.setattr(certify, "_deletion_chain", lambda *args: None)
                alone = kernel_calls_cold(lambda: certify.verify_free(arr, *sorted((d1, d2))))
                for name in ("_orthonormal_basis", "null_space_float", "null_space_from_fields",
                             "assemble_saito_tensor"):
                    m.setattr(derivations, name, refuse)
                m.setattr(saito, "als_minimize", refuse)
                assert kernel_calls_cold(lambda: evs.append(saito_functional(arr, d1, d2))) == alone
            ev = evs[0]
            assert ev.loss == loss
            if loss:
                assert (ev.reason, ev.certificate) == ("not-free-at-exponents", None)
            else:
                assert ev.reason is None
                assert isinstance(ev.certificate, certify.FreenessCertificate)
            assert (ev.k1, ev.k2) == tuple(null_space_exact(derivation_matrix(arr, d)).nullity for d in (d1, d2))


@pytest.mark.parametrize("name", ["np6", "two_pencil_7x7", "free13", "free19", "free20"])
def test_chainless_free_inputs_take_certificate_bases(name, monkeypatch):
    # with no deletion chain, the certificate comes from the kernel pair scan,
    # and the bases still come from it by Saito's criterion, not from the
    # kernel's float basis
    arr = dict(_basis_cases())[name]
    exps = candidate_exponents(arr)

    def refuse(*args):
        raise AssertionError("saito_functional orthonormalized an exact kernel")

    monkeypatch.setattr(certify, "_deletion_chain", lambda *args: None)
    for module in (derivations, saito):
        monkeypatch.setattr(module, "null_space_float", refuse, raising=False)
    ev = saito_functional(arr, exps.d1, exps.d2)
    assert ev.loss == 0.0
    tensor = _certificate_tensor(arr, ev)
    assert als_minimize(tensor, ALSConfig(iterations=2, restarts=1)).loss <= 1e-12
    for d, v in ((ev.d1, tensor.v1), (ev.d2, tensor.v2)):
        assert np.max(np.abs(_row_normalized(arr, d) @ v)) <= 1e-9
