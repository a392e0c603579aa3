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

from .errors import NonHermitianError, NotPSDError, OutOfRangeError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-12
_TINY = np.finfo(float).tiny


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


def _eigh_2x2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form spectral decomposition of a (..., 2, 2) Hermitian stack.

    With b = |b| e^(i phi) read from the lower entry (as LAPACK reads it)
    and D = diag(1, e^(i phi)), [[a, b], [conj b, d]] = D^H M D with M
    real symmetric, and one Jacobi rotation, tan 2 theta = 2|b| / (a - d),
    diagonalizes M.  The angle is taken from (a - d)/2 and |b| divided by
    the larger of the two, and the larger of cos theta and sin theta from
    its half-angle form, the other from cos theta sin theta = |b| / 2r, so
    neither loses digits, not even to subnormal entries.  Eigenvalues
    ascend; real input gives real eigenvectors.
    """
    a, d, lower = m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0]
    mod = np.abs(lower)
    half_gap = 0.5 * a - 0.5 * d
    k = np.maximum(np.abs(half_gap), mod)
    live = k > 0
    k_safe = np.where(live, k, 1.0)
    gap1 = np.where(live, np.abs(half_gap) / k_safe, 1.0)  # a = d, b = 0: no rotation
    mod1 = mod / k_safe
    r1 = np.sqrt(gap1 * gap1 + mod1 * mod1)  # in [1, sqrt 2]: no overflow
    big = np.sqrt(0.5 + 0.5 * gap1 / r1)
    small = mod1 / (2.0 * r1 * big)
    ahead = half_gap >= 0
    c, s = np.where(ahead, big, small), np.where(ahead, small, big)
    # e^(-i phi) = lower / |b|, real +-1 for real input
    mod_safe = np.where(mod > 0, mod, 1.0)
    if np.iscomplexobj(lower) and np.any(mod_safe < _TINY):
        # a subnormal |b| rounds to its grid, and complex division by it
        # overflows: divide the parts apart and renormalize
        re, im = lower.real / mod_safe + (mod == 0), lower.imag / mod_safe
        phase = (re + 1j * im) / np.sqrt(re * re + im * im)
    else:
        phase = lower / mod_safe + (mod == 0)
    with np.errstate(over="ignore"):  # eigh raises on a non-finite eigenvalue
        mean, r = 0.5 * a + 0.5 * d, k * r1
        w = np.stack([mean - r, mean + r], axis=-1)
    v = np.empty(m.shape, dtype=np.result_type(m.dtype, w.dtype))
    v[..., 0, 0], v[..., 0, 1] = -s, c
    v[..., 1, 0], v[..., 1, 1] = c * phase, s * phase
    return w, v


def eigh(m: np.ndarray) -> SpectralData:
    """Spectral decomposition with the hermiticity invariant enforced.

    Batch-first: m is a (..., N, N) stack, checked in one vectorized
    pass and decomposed by one call; the result holds (..., N)
    eigenvalues and (..., N, N) eigenvectors.  A 2 x 2 stack takes the
    closed form of _eigh_2x2, larger matrices LAPACK.  A matrix whose
    eigenvalue overflows the float range raises OutOfRangeError naming
    its place in the stack.
    """
    m = np.asarray(m)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise NonHermitianError(f"expected a square matrix, got shape {m.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        defect = np.max(np.abs(m - _adjoint(m)), axis=(-2, -1), initial=0.0)
        allowed = np.asarray(HERMITICITY_TOL * np.maximum(1.0, np.linalg.norm(m, axis=(-2, -1))))
        huge = ~np.isfinite(allowed)
        if np.any(huge):
            # past about 1e154 the plain norm overflows: scale it by max|m|
            scale = np.max(np.abs(m[huge]), axis=(-2, -1))
            allowed[huge] = HERMITICITY_TOL * scale * np.linalg.norm(
                m[huge] / scale[..., None, None], axis=(-2, -1))
    if not np.all(defect <= allowed):
        worst = np.unravel_index(np.argmax(defect / allowed), defect.shape)  # a NaN defect wins
        raise NonHermitianError(
            f"{_stack_place(worst)} violates the hermiticity invariant: max|m - m^H| = "
            f"{defect[worst]:.3g} exceeds {HERMITICITY_TOL:g} * max(1, ||m||_F) "
            f"= {allowed[worst]:.3g}"
        )
    if m.shape[-1] == 2:
        w, v = _eigh_2x2(m)
    else:
        w, v = np.linalg.eigh(m)
    finite = np.all(np.isfinite(w), axis=-1)
    if not np.all(finite):
        worst = np.unravel_index(np.argmin(finite), finite.shape)
        raise OutOfRangeError(
            f"{_stack_place(worst)} has an eigenvalue beyond the float range: "
            f"max|m| = {np.max(np.abs(m[worst])):.3g}, eigenvalues {w[worst]}"
        )
    return SpectralData(eigenvalues=w, eigenvectors=v)


def _stack_place(index: tuple) -> str:
    """Name a matrix of a (..., N, N) stack by its stack index."""
    return f"matrix {tuple(int(i) for i in index)} of the stack" if index else "matrix"


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
    try:
        # a stack Cholesky accepts is positive definite: nothing to check
        return np.linalg.cholesky(x)
    except np.linalg.LinAlgError:
        pass
    w, v = np.linalg.eigh((x + np.swapaxes(x, -1, -2)) / 2.0)
    if np.min(w) < -PSD_TOL:
        raise NotPSDError(f"interpolation matrix has eigenvalue {np.min(w)}")
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


def spawn_streams(seed: int, count: int) -> list[np.random.Generator]:
    """Deterministic worker streams derived from a master seed."""
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        for k in range(count)
    ]
