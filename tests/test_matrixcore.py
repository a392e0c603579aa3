import numpy as np
import pytest

from loopvertex.errors import NonHermitianError, NotPSDError
from loopvertex.matrixcore import (
    EnsembleSpec,
    covariances,
    eigh,
    interpolation_factor,
    sample_gaussian_batch,
    sample_replicas,
    spawn_streams,
    vandermonde,
)


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


def test_eigh_batch_matches_single_matrices():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    k = (a + np.swapaxes(a.conj(), -1, -2)) / 2
    s = eigh(k)
    assert s.eigenvalues.shape == (2, 3, 4) and s.dim == 4
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


def test_vandermonde():
    assert vandermonde([1.0, 3.0], beta=2) == pytest.approx(4.0)
    assert vandermonde([0.0, 1.0, 2.0], beta=1) == pytest.approx(2.0)


def test_spawn_streams_deterministic_and_distinct():
    a = spawn_streams(7, 3)
    b = spawn_streams(7, 3)
    va = [g.standard_normal(4) for g in a]
    vb = [g.standard_normal(4) for g in b]
    for x, y in zip(va, vb):
        assert np.array_equal(x, y)
    assert not np.array_equal(va[0], va[1])
