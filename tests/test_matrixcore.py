import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopvertex import matrixcore, trees
from loopvertex.errors import NonHermitianError, NotPSDError, OutOfRangeError
from loopvertex.scalarmaps import Coupling
from loopvertex.matrixcore import (
    HERMITICITY_TOL,
    EnsembleSpec,
    covariances,
    eigh,
    interpolation_factor,
    sample_gaussian_batch,
    sample_replicas,
    sample_tridiagonal_batch,
    spawn_streams,
)
from loopvertex.partition import gaussian_moment_exact


def test_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec(N=0)
    with pytest.raises(ValueError):
        EnsembleSpec(N=2, beta=4)


def test_eigh_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # batch-first: one bad matrix in a stack fails the whole stack
    with pytest.raises(NonHermitianError):
        eigh(np.array([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
    with pytest.raises(NonHermitianError):
        eigh(np.ones(3))


@pytest.mark.parametrize("n", [2, 3])
def test_eigh_guard_names_the_worst_matrix(n):
    stack = np.zeros((2, 3, n, n), dtype=complex)
    stack[1, 2, 0, 1] = 1e-9  # worst: defect 1e-9 against the allowance 1e-12
    stack[0, 1, 1, 0] = 1e-11
    with pytest.raises(NonHermitianError, match=r"matrix \(1, 2\) of the stack") as exc:
        matrixcore.eigh(stack)
    msg = str(exc.value)
    assert "max|m - m^H| = 1e-09" in msg
    assert f"{HERMITICITY_TOL:g} * max(1, ||m||_F) = 1e-12" in msg
    # a lone matrix has no stack index; the allowance scales with its norm
    big = 10.0 * np.eye(n)
    big[0, n - 1] = 1e-9
    with pytest.raises(NonHermitianError, match=r"^matrix violates") as exc:
        matrixcore.eigh(big)
    assert f"= {HERMITICITY_TOL * np.linalg.norm(big):.3g}" in str(exc.value)


def test_eigh_guard_holds_past_norm_overflow():
    # past about 1e154 the plain Frobenius norm overflows to inf, which
    # once made the allowance inf and let this matrix through
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonHermitianError, match=re.escape("max|m - m^H| = 5e+199")) as exc:
            eigh(np.array([[1e200, 5e199], [0.0, 1e200]]))
        assert "= 1.5e+188" in str(exc.value)
        stack = np.array([np.eye(2), [[1e200, 5e199], [0.0, 1e200]]])
        with pytest.raises(NonHermitianError, match=r"matrix \(1,\) of the stack"):
            eigh(stack)


@pytest.mark.parametrize("n", [2, 3])
def test_eigh_decomposes_huge_hermitian_matrices(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    unit = (a + a.conj().T) / 2.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = eigh(1e200 * unit)
    assert np.allclose(s.eigenvalues / 1e200, np.linalg.eigvalsh(unit), rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3])
def test_eigh_overflow_raises_naming_the_matrix(n):
    # a Hermitian matrix whose largest eigenvalue exceeds the float range:
    # the 2 x 2 closed form once returned inf with only a RuntimeWarning
    big = np.full((n, n), 1e308, dtype=complex)
    big[0, 1], big[1, 0] = 1e308j, -1e308j
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRangeError, match=r"^matrix has an eigenvalue beyond"):
            eigh(big)
        with pytest.raises(OutOfRangeError, match=r"^matrix \(1,\) of the stack"):
            eigh(np.array([np.eye(n), big]))


_ENTRY = st.floats(-1.0, 1.0, allow_subnormal=False)


@settings(max_examples=400, deadline=None)
@given(
    a=_ENTRY, d=_ENTRY, b_re=_ENTRY, b_im=_ENTRY,
    b_scale=st.integers(-12, 0), scale=st.integers(-30, 30), complex_input=st.booleans(),
)
@example(a=0.5, d=-0.25, b_re=0.0, b_im=0.0, b_scale=0, scale=0, complex_input=False)
@example(a=-0.25, d=0.5, b_re=0.0, b_im=0.0, b_scale=0, scale=0, complex_input=True)
@example(a=0.3, d=0.3, b_re=0.0, b_im=0.0, b_scale=0, scale=0, complex_input=True)
@example(a=0.9, d=-0.9, b_re=0.7, b_im=-0.4, b_scale=-12, scale=0, complex_input=True)
@example(a=0.9, d=-0.9, b_re=-0.7, b_im=0.0, b_scale=-12, scale=30, complex_input=False)
@example(a=1.0, d=1e-6, b_re=1e-3, b_im=1e-3, b_scale=0, scale=-30, complex_input=True)
# subnormal |b|, alone and beside a diagonal of order one
@example(a=0.0, d=0.0, b_re=0.0, b_im=1.7648263912391071e-298, b_scale=0, scale=-11,
         complex_input=True)
@example(a=0.0, d=0.0, b_re=1.7648263912391071e-298, b_im=0.0, b_scale=0, scale=-12,
         complex_input=False)
@example(a=1.0, d=1.0, b_re=3e-300, b_im=-2e-300, b_scale=-12, scale=0, complex_input=True)
def test_eigh_2x2_closed_form_matches_lapack(a, d, b_re, b_im, b_scale, scale, complex_input):
    b = (b_re + 1j * b_im if complex_input else b_re) * 10.0**b_scale
    m = np.array([[a, b], [np.conj(b), d]]) * 10.0**scale
    assert m.dtype == (complex if complex_input else float)
    s = matrixcore.eigh(m[None])
    w_ref, v_ref = np.linalg.eigh(m[None])
    assert s.eigenvalues.dtype == w_ref.dtype and s.eigenvectors.dtype == v_ref.dtype
    w, v = s.eigenvalues[0], s.eigenvectors[0]
    # entry-wise scale: np.linalg.norm underflows once entries reach 1e-160
    tol = 16 * np.finfo(float).eps * np.max(np.abs(m)) + 1e-300
    assert w[0] <= w[1]
    assert np.max(np.abs(w - w_ref[0])) <= tol
    assert np.max(np.abs(s.reconstruct()[0] - m)) <= tol
    assert np.max(np.abs(v.conj().T @ v - np.eye(2))) <= 8 * np.finfo(float).eps


def test_eigh_batch_matches_single_matrices():
    rng = np.random.default_rng(1)
    for n in (4, 2):  # LAPACK and the closed form
        a = rng.standard_normal((2, 3, n, n)) + 1j * rng.standard_normal((2, 3, n, n))
        k = (a + np.swapaxes(a.conj(), -1, -2)) / 2
        s = eigh(k)
        assert s.eigenvalues.shape == (2, 3, n) and s.dim == n
        assert np.max(np.abs(s.reconstruct() - k)) <= 1e-12
        single = eigh(k[1, 2])
        assert np.allclose(s.eigenvalues[1, 2], single.eigenvalues, rtol=0, atol=1e-14)


def test_eigh_roundtrip():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    k = (a + a.conj().T) / 2
    s = eigh(k)
    assert np.max(np.abs(s.reconstruct() - k)) <= 1e-12
    assert np.all(np.diff(s.eigenvalues) >= 0)


@pytest.mark.parametrize("beta", [1, 2])
def test_entry_covariances_match_declared(beta):
    n = 3
    spec = EnsembleSpec(N=n, beta=beta)
    rng = np.random.default_rng(1)
    h = sample_gaussian_batch(spec, rng, 200000)
    straight, twist = covariances(spec)
    # E[H_ab H_cd] = straight * d_ad d_bc + twist * d_ac d_bd
    got_diag = np.mean(h[:, 0, 0] * h[:, 0, 0]).real
    assert got_diag == pytest.approx(straight + twist, rel=0.02)
    got_pair = np.mean(h[:, 0, 1] * h[:, 1, 0]).real
    assert got_pair == pytest.approx(straight, rel=0.02)
    got_sq = np.mean(h[:, 0, 1] * h[:, 0, 1]).real
    # 4 sigma at this sample count
    assert got_sq == pytest.approx(twist, abs=1.5e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_beta2_draw_equals_complex_expression_bitwise(n):
    # the real-arithmetic draw against the complex expression it rounds as
    spec = EnsembleSpec(N=n, beta=2)
    h = sample_gaussian_batch(spec, np.random.default_rng(40 + n), 3000)
    rng = np.random.default_rng(40 + n)
    a = rng.standard_normal((3000, n, n))
    b = rng.standard_normal((3000, n, n))
    g = (a + 1j * b) / 2.0
    want = (g + np.conj(np.swapaxes(g, -1, -2))) / np.sqrt(2 * n)
    assert h.dtype == want.dtype and h.flags.c_contiguous
    assert h.tobytes() == want.tobytes()


def test_first_moment_trace_square():
    # E[Tr H^2] = N^2 * straight + N * twist by one Wick contraction
    for beta in (1, 2):
        spec = EnsembleSpec(N=3, beta=beta)
        rng = np.random.default_rng(2)
        h = sample_gaussian_batch(spec, rng, 100000)
        tr2 = np.einsum("bij,bji->b", h, h).real.mean()
        straight, twist = covariances(spec)
        n = spec.N
        expected = n * n * straight + n * twist
        assert tr2 == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_tridiagonal_draws_are_real_symmetric_tridiagonal(n, beta):
    t = sample_tridiagonal_batch(EnsembleSpec(N=n, beta=beta), np.random.default_rng(n), 50)
    assert t.shape == (50, n, n) and t.dtype == np.float64
    assert np.array_equal(t, np.swapaxes(t, -1, -2))
    band = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) <= 1
    assert np.all(t[:, ~band] == 0)
    assert np.all(np.diagonal(t, offset=1, axis1=-2, axis2=-1) >= 0)


def test_tridiagonal_draws_normals_then_gammas():
    # 2N - 1 variates per matrix: N normals, then N - 1 gammas of shape
    # beta k / 2 for k = N - 1, ..., 1; no gamma draw at N = 1
    rng = np.random.default_rng(4)
    t = sample_tridiagonal_batch(EnsembleSpec(N=3, beta=1), rng, 6)
    ref = np.random.default_rng(4)
    diag = ref.standard_normal((6, 3)) / np.sqrt(6)
    off = np.sqrt(ref.standard_gamma([1.0, 0.5], (6, 2)) / 6)
    assert np.array_equal(np.diagonal(t, axis1=-2, axis2=-1), diag)
    assert np.array_equal(np.diagonal(t, offset=-1, axis1=-2, axis2=-1), off)
    one = sample_tridiagonal_batch(EnsembleSpec(N=1), rng, 6)
    assert np.array_equal(one[:, 0, 0], ref.standard_normal(6) / np.sqrt(2))
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 3, 6])
def test_tridiagonal_trace_square_is_chi_square(n, beta):
    # 2N Tr T^2 sums N chi^2_1 diagonal terms and a chi^2_(beta k) per
    # off-diagonal: chi^2 with N + beta N (N - 1) / 2 degrees of freedom
    size = 40000
    t = sample_tridiagonal_batch(EnsembleSpec(N=n, beta=beta), np.random.default_rng(7), size)
    x = 2 * n * np.einsum("bij,bji->b", t, t)
    dof = n + beta * n * (n - 1) / 2
    assert abs(x.mean() - dof) <= 4 * np.sqrt(2 * dof / size)
    # the sample variance of chi^2_dof has variance (8 dof^2 + 48 dof) / size
    assert abs(x.var() - 2 * dof) <= 4 * np.sqrt((8 * dof**2 + 48 * dof) / size)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_tridiagonal_moments_match_wick(n, beta):
    spec = EnsembleSpec(N=n, beta=beta)
    t = sample_tridiagonal_batch(spec, np.random.default_rng(10 * n + beta), 40000)
    t2 = t @ t
    for k, tr in ((2, np.einsum("bij,bji->b", t2, t2)),
                  (3, np.einsum("bij,bjk,bki->b", t2, t2, t2))):
        exact = float(gaussian_moment_exact(n, k, beta))
        assert abs(tr.mean() - exact) <= 4 * tr.std() / np.sqrt(len(tr)), (k, exact)


@pytest.mark.parametrize("beta", [1, 2])
def test_tridiagonal_largest_eigenvalue_matches_dense(beta):
    spec = EnsembleSpec(N=4, beta=beta)
    rng = np.random.default_rng(20 + beta)
    tri = np.linalg.eigvalsh(sample_tridiagonal_batch(spec, rng, 40000))[:, -1]
    dense = np.linalg.eigvalsh(sample_gaussian_batch(spec, rng, 40000))[:, -1]
    se = np.hypot(tri.std(), dense.std()) / np.sqrt(40000)
    assert abs(tri.mean() - dense.mean()) <= 4 * se


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 10),
    beta=st.sampled_from([1, 2]),
    p=st.integers(2, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_tridiagonal_trace_power_equals_eigenvalue_sum(n, beta, p, seed):
    t = sample_tridiagonal_batch(EnsembleSpec(N=n, beta=beta), np.random.default_rng(seed), 8)
    tp = np.linalg.matrix_power(t, p)
    direct = np.einsum("bij,bji->b", tp, tp)
    spectral = np.sum(np.linalg.eigvalsh(t) ** (2 * p), axis=-1)
    np.testing.assert_allclose(direct, spectral, rtol=1e-12)


def test_interpolation_factor_and_psd_guard():
    x = np.array([[1.0, 0.5], [0.5, 1.0]])
    ell = interpolation_factor(x)
    assert np.allclose(ell @ ell.T, x)
    with pytest.raises(NotPSDError):
        interpolation_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
    # batch-first: the PSD check covers every matrix of a stack, and a
    # singular member sends the stack to the eigenvalue square root
    with pytest.raises(NotPSDError):
        interpolation_factor(np.array([x, [[1.0, 2.0], [2.0, 1.0]]]))
    stack = np.array([x, np.ones((2, 2))])
    ell = interpolation_factor(stack)
    assert np.allclose(ell @ np.swapaxes(ell, -1, -2), stack)


def _eigh_first_factor(x):
    """The factor as once computed: an eigh PSD check before every Cholesky."""
    x = np.asarray(x, dtype=float)
    w, v = np.linalg.eigh((x + np.swapaxes(x, -1, -2)) / 2.0)
    if np.min(w) < -matrixcore.PSD_TOL:
        raise NotPSDError(f"interpolation matrix has eigenvalue {np.min(w)}")
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def test_interpolation_factor_cholesky_first():
    # positive definite: the Cholesky factor, byte for byte as before
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 3, 5))
    cov = a @ np.swapaxes(a, -1, -2)
    d = 1.0 / np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    x = cov * d[..., :, None] * d[..., None, :]
    assert interpolation_factor(x).tobytes() == _eigh_first_factor(x).tobytes()
    # indefinite: Cholesky fails and the eigenvalue check names the defect
    bad = x.copy()
    bad[7] = [[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]]
    with pytest.raises(NotPSDError, match="eigenvalue -"):
        interpolation_factor(bad)
    # singular PSD: the eigenvalue square root
    ones = np.ones((3, 3))
    ell = interpolation_factor(ones)
    w, v = np.linalg.eigh(ones)
    assert np.array_equal(ell, v * np.sqrt(np.clip(w, 0.0, None))[None, :])
    assert np.allclose(ell @ ell.T, ones, atol=1e-14)


@pytest.mark.parametrize("edges", [((1, 2),), ((1, 2), (2, 3))])
def test_tree_amplitude_unchanged_by_cholesky_first(edges, monkeypatch):
    t = trees.LabeledTree(len(edges) + 1, edges)
    c, spec = Coupling(lam=0.05, p=2), EnsembleSpec(N=2, beta=2)
    params = {"n_w": 40, "n_mc": 25, "seed": 19}
    now = trees.tree_amplitude(c, spec, t, params)
    monkeypatch.setattr(matrixcore, "interpolation_factor", _eigh_first_factor)
    before = trees.tree_amplitude(c, spec, t, params)
    assert now.value == before.value and now.stderr == before.stderr


def test_sample_replicas_batch_shape_and_stream():
    spec = EnsembleSpec(N=3, beta=2)
    x = np.array([[[1.0, 0.3], [0.3, 1.0]]] * 4)
    ks = sample_replicas(spec, x, np.random.default_rng(2))
    assert ks.shape == (4, 2, 3, 3)
    assert np.max(np.abs(ks - np.swapaxes(ks.conj(), -1, -2))) == 0.0
    # a batch of one draws what the unbatched call draws
    batch_of_one = sample_replicas(spec, x[:1], np.random.default_rng(2))
    one = sample_replicas(spec, x[0], np.random.default_rng(2))
    assert np.array_equal(batch_of_one[0], one)


def test_sample_replicas_rejects_diagonal_off_by_more_than_atol():
    spec = EnsembleSpec(N=2, beta=2)
    for off in (9e-6, 1e-11):
        with pytest.raises(ValueError, match="unit diagonal"):
            sample_replicas(spec, [[1.0 + off, 0.5], [0.5, 1.0]], np.random.default_rng(0))
    k = sample_replicas(spec, [[1.0 + 1e-13, 0.5], [0.5, 1.0]], np.random.default_rng(0))
    assert k.shape == (2, 2, 2)


def test_sample_replicas_draws_replica_major():
    spec = EnsembleSpec(N=3, beta=2)
    m = 5
    w = np.random.default_rng(4).uniform(size=m)
    x = np.ones((m, 2, 2))
    x[:, 0, 1] = x[:, 1, 0] = w
    k = sample_replicas(spec, x, np.random.default_rng(8))
    g = sample_gaussian_batch(spec, np.random.default_rng(8), 2 * m)
    w = w[:, None, None]
    assert np.array_equal(k[:, 0], g[:m])
    assert np.array_equal(k[:, 1], w * g[:m] + np.sqrt(1.0 - w * w) * g[m:])
    # three replicas: block j of the draw is g_j, and K = L @ blocks
    x3 = np.array([[1.0, 0.5, 0.2], [0.5, 1.0, 0.2], [0.2, 0.2, 1.0]])
    k3 = sample_replicas(spec, np.stack([x3] * m), np.random.default_rng(8))
    blocks = sample_gaussian_batch(spec, np.random.default_rng(8), 3 * m).reshape(3, m, 3, 3)
    want = np.einsum("ij,jbkl->bikl", interpolation_factor(x3), blocks)
    assert np.max(np.abs(k3 - want)) <= 1e-15


def test_replica_correlations():
    spec = EnsembleSpec(N=2, beta=2)
    x = np.array([[1.0, 0.6], [0.6, 1.0]])
    rng = np.random.default_rng(3)
    acc = []
    for _ in range(40000):
        k1, k2 = sample_replicas(spec, x, rng)
        acc.append((k1[0, 1] * k2[1, 0]).real)
    straight, _ = covariances(spec)
    assert np.mean(acc) == pytest.approx(0.6 * straight, rel=0.05)


def test_spawn_streams_deterministic_and_distinct():
    a = spawn_streams(7, 3)
    b = spawn_streams(7, 3)
    va = [g.standard_normal(4) for g in a]
    vb = [g.standard_normal(4) for g in b]
    for x, y in zip(va, vb):
        assert np.array_equal(x, y)
    assert not np.array_equal(va[0], va[1])
