"""Dense Hermitian/symmetric linear algebra and Gaussian ensemble sampling.

Convention: the ensemble weight is exp(-N Tr H^2) for both beta = 2
(Hermitian/GUE) and beta = 1 (real symmetric/GOE).  The element
covariances that follow are

    beta = 2:  E[H_ij H_kl] = delta_il delta_jk / (2N)
    beta = 1:  E[H_ii^2] = 1/(2N),  E[H_ij^2] = 1/(4N)  (i != j)

This single weight makes the change of variables K^2 = H^2 + lam H^(2p)
telescope exactly; see the convention ledger emitted by the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonHermitianError, NotPSDError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleSpec:
    """Matrix size and symmetry class under the exp(-N Tr H^2) weight."""

    N: int
    beta: int = 2

    weight_convention = "exp(-N Tr H^2)"

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.beta not in (1, 2):
            raise ValueError("beta must be 1 or 2")


@dataclass(frozen=True)
class SpectralData:
    """Ascending eigenvalues and orthonormal eigenvectors of a Hermitian matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ _adjoint(v)


def _adjoint(m: np.ndarray) -> np.ndarray:
    return np.swapaxes(m.conj(), -1, -2)


def is_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> bool:
    """True when every matrix of the (..., N, N) stack m is Hermitian.

    Each matrix is held to tol times max(1, its Frobenius norm).
    """
    m = np.asarray(m)
    scale = np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1)))
    return bool(np.all(np.abs(m - _adjoint(m)) <= tol * scale[..., None, None]))


def eigh(m: np.ndarray) -> SpectralData:
    """Spectral decomposition with the hermiticity invariant enforced.

    Batch-first: m is a (..., N, N) stack, checked in one vectorized
    pass and decomposed by one call; the result holds (..., N)
    eigenvalues and (..., N, N) eigenvectors.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    if not is_hermitian(m):
        raise NonHermitianError("matrix violates the hermiticity invariant")
    w, v = np.linalg.eigh(m)
    return SpectralData(eigenvalues=w, eigenvectors=v)


def covariances(spec: EnsembleSpec) -> tuple[float, float]:
    """Wick coefficients (c_straight, c_twist) of E[H_ab H_cd].

    E[H_ab H_cd] = c_straight * d_ad d_bc + c_twist * d_ac d_bd.
    """
    if spec.beta == 2:
        return 1.0 / (2 * spec.N), 0.0
    return 1.0 / (4 * spec.N), 1.0 / (4 * spec.N)


def sample_gaussian_batch(
    spec: EnsembleSpec, rng: np.random.Generator, size: int
) -> np.ndarray:
    """size x N x N stack of independent ensemble draws."""
    n = spec.N
    if spec.beta == 2:
        a = rng.standard_normal((size, n, n))
        b = rng.standard_normal((size, n, n))
        g = (a + 1j * b) / 2.0  # entry variance 1/2 per complex component pair
        h = (g + np.conj(np.swapaxes(g, -1, -2))) / np.sqrt(2 * n)
    else:
        a = rng.standard_normal((size, n, n))
        h = (a + np.swapaxes(a, -1, -2)) / np.sqrt(8 * n)
        idx = np.arange(n)
        h[:, idx, idx] = a[:, idx, idx] / np.sqrt(2 * n)
    return h


def sample_gaussian(spec: EnsembleSpec, rng: np.random.Generator) -> np.ndarray:
    """One draw from the ensemble; deterministic given the generator state."""
    return sample_gaussian_batch(spec, rng, 1)[0]


def interpolation_factor(x: np.ndarray) -> np.ndarray:
    """Lower-triangular-style factor L with L @ L.T = x, PSD-validated.

    Plain Cholesky when x is strictly positive definite; otherwise an
    eigenvalue square root with negative eigenvalues above -PSD_TOL
    clipped to zero.  Batch-first: x is (..., n, n), and one matrix of
    the stack that is not strictly positive definite sends the whole
    stack to the eigenvalue square root.
    """
    x = np.asarray(x, dtype=float)
    w, v = np.linalg.eigh((x + np.swapaxes(x, -1, -2)) / 2.0)
    if np.min(w) < -PSD_TOL:
        raise NotPSDError(f"interpolation matrix has eigenvalue {np.min(w)}")
    try:
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def sample_replicas(
    spec: EnsembleSpec, x: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """n correlated replicas with Cov((K_i)_ab, (K_j)_cd) = x_ij * (single cov).

    Batch-first: x is (..., n, n) and the result is (..., n, N, N), one
    independent replica family per matrix of the stack.
    """
    x = np.asarray(x, dtype=float)
    n_rep = x.shape[-1]
    if x.ndim < 2 or x.shape[-2] != n_rep:
        raise ValueError("x must be square")
    if not np.allclose(np.diagonal(x, axis1=-2, axis2=-1), 1.0, atol=1e-12):
        raise ValueError("x must have unit diagonal")
    ell = interpolation_factor(x)
    lead = x.shape[:-2]
    n = spec.N
    g = sample_gaussian_batch(spec, rng, int(np.prod(lead)) * n_rep)
    return (ell @ g.reshape(lead + (n_rep, n * n))).reshape(lead + (n_rep, n, n))


def vandermonde(eigs, beta: int) -> float:
    """Product over i<j of |mu_i - mu_j|^beta."""
    eigs = np.asarray(eigs, dtype=float)
    n = len(eigs)
    out = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            out *= abs(eigs[i] - eigs[j]) ** beta
    return out


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Deterministic worker streams derived from a master seed."""
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        for k in range(count)
    ]
