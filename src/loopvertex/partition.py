"""Ground-truth partition function Z and free energy F.

Z(lambda, N) is computed two independent ways and must agree:

  * directly, as E[exp(-N lam Tr H^(2p))] over the Gaussian ensemble,
  * through the change of variables, as E[exp(S(lam, K))].

Both reduce to eigenvalue integrals with the Vandermonde repulsion
factor.  One deterministic quadrature engine turns the N-fold integral
into 1-D integrals along the line exp(i zeta) t, at every N: for
beta = 2 the Andreief identity gives the determinant of a Gram matrix,
for beta = 1 de Bruijn's identity gives the Pfaffian of the ordered pair
integrals (bordered by the moment vector when N is odd), reduced by
Parlett-Reid elimination (Wimmer, ACM TOMS 38, 2012).  The functions are
the orthonormal Hermite polynomials of exp(-N mu^2), so the Gram matrix
stays near the identity whatever N is.  The change of variables always
runs on the real axis (zeta = 0): its weight is the Gaussian exp(-N mu^2)
whatever lam is.  Only the direct weight tilts its line, once Re(lam) < 0
makes it diverge on the real axis.  Composite 16-node Gauss-Legendre
panels cover the bulk edge sqrt(2) plus 8.5 Gaussian scales and double
until the ratio settles; the rule and its spectral integration matrix
(the running integral of each panel's interpolant at its nodes) are
built once at import, so a panel integral is one matrix product.  The
Gaussian side of a panel level (nodes, weights and the Gaussian's own
determinant or Pfaffian) does not depend on lam and is built once per
layout; the first doubling step evaluates the numerator's scalar map on
both of its levels in one call.  The panels are mirror-symmetric and
both integrands have a parity, so the map is evaluated on the right half
of the nodes only.  The single-vertex amplitude (trees.py) uses the same
panels and Hermite recurrence.

Each level is kept as a log, so F = N^-2 log Z needs no engine of its
own: log Z is the principal log of z_direct's accepted level, moved by
whole sheets 2 pi i onto the one topological_free_energy picks (the
large-N expansion of F through T_p, which uses no quadrature of Z and
so is also an oracle of F).  Monte Carlo estimates of Z remain as an
independent oracle.  Both integrands depend on the spectrum alone, so
each draw is the real tridiagonal matrix of the Dumitriu-Edelman model
(matrixcore.sample_tridiagonal_batch), whose eigenvalues follow the
ensemble's law from 2N - 1 real variates: the direct integrand takes
Tr H^2p = Tr(T^p T^p) from p - 1 real matrix products, and only the
change of variables diagonalizes T.  An estimate from fewer than 2
draws has no standard error and raises.  Exact Gaussian moments by Wick
pairing enumeration provide the perturbative anchor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .action import action_S, map_derivatives
from .errors import (
    LogBranchAmbiguityError,
    OutOfRangeError,
    QuadratureUnderResolvedError,
    VarianceBlowupError,
)
from .fusscatalan import fc_eval_many
from .matrixcore import EnsembleSpec, sample_tridiagonal_batch, spawn_streams
from .scalarmaps import Coupling

QUAD_REL_TOL = 1e-6
#: integration half-width beyond the bulk edge sqrt(2), in units of the
#: Gaussian scale 1/sqrt(N env)
HALF_WIDTH_SIGMAS = 8.5
#: rotate the eigenvalue line once |arg lambda| exceeds pi/2 minus this
TILT_MARGIN = 0.15

#: panel rule of the determinantal engine: Gauss-Legendre on [-1, 1]
GL_ORDER = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
#: spectral integration matrix, _GL_S[j, k] = integral from -1 to _GL_X[j]
#: of the k-th Lagrange basis polynomial on the nodes: node values to
#: Legendre coefficients, then each P_n's antiderivative at the nodes
_GL_S = np.polynomial.legendre.legval(
    _GL_X, np.polynomial.legendre.legint(np.eye(GL_ORDER), lbnd=-1)
).T @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GL_ORDER - 1))

#: composite-panel schedule of the determinantal engine
PANELS_START = 16
PANELS_CAP = 512
#: Gaussian panel levels kept by _gaussian_level, one per
#: (N, beta, zeta, panel count, half-width)
GAUSS_LEVEL_CACHE_SIZE = 128
#: Gauss-Chebyshev nodes of the beta = 1 entropy term of the planar density
ENTROPY_NODES = 200

MC_MAX_REL_SE = 0.10
MC_DEFAULT_SAMPLES = 20000

WICK_MAX_K = 6
WICK_MAX_N = 8


@dataclass(frozen=True)
class PartitionEstimate:
    value: complex
    method: str  # "quadrature" | "monte_carlo"
    error: float
    n_points: int
    log_value: complex  # principal log of value


# ---------------------------------------------------------------------------
# contour placement


def _tilt_angle(lam: complex, p: int) -> float:
    """Rotation of the eigenvalue line making the direct integral converge.

    The real-line integral diverges once Re(lam) < 0; rotating each
    eigenvalue as mu = exp(i phi) t with phi = -arg(lam)/(2p) makes the
    interaction term exactly |lam| t^(2p), real and decaying, while
    |2 phi| = |arg lam|/p stays below pi/2 so the Gaussian factor keeps
    decaying too.  Returns 0 when the real line converges comfortably.
    """
    alpha = float(np.angle(lam))
    if abs(alpha) <= np.pi / 2 - TILT_MARGIN:
        return 0.0
    return -alpha / (2 * p)


def _doubling(
    eval_at, start: int, cap: int, stage: str, c: Coupling, spec: EnsembleSpec
) -> tuple[complex, float, int]:
    """Double the node count until the value stabilizes.

    A non-finite or zero level never settles: Z has no zero in the pacman
    domain, so a zero level is an underflow.  A stall raises
    QuadratureUnderResolvedError naming the stage, the coupling, N, beta
    and the last gap measured between two levels.
    """
    m = start
    prev = eval_at(m)
    last = "none (cap reached before the first doubling)"
    while m < cap:
        m *= 2
        cur = eval_at(m)
        # Python's complex abs of a nan can raise OverflowError (stale errno)
        if np.isfinite(cur) and np.isfinite(prev) and cur != 0:
            gap = abs(cur - prev)
            if gap <= QUAD_REL_TOL * abs(cur):
                return cur, gap, m
            last = f"{gap:.3e} against |value| {abs(cur):.3e}"
        else:
            last = f"none, a level is not finite or is zero ({complex(cur):.6g})"
        prev = cur
    raise QuadratureUnderResolvedError(
        f"{stage}: doubling stalled at resolution {m} (cap {cap}) for "
        f"lam={complex(c.lam):.6g}, p={c.p}, N={spec.N}, beta={spec.beta}; "
        f"last gap {last}, relative tolerance {QUAD_REL_TOL:g}"
    )


def _half_width(big_n: int, zeta: float) -> float:
    """Half-width of the panels on the line exp(i zeta) t: bulk plus margin."""
    return np.sqrt(2.0) + HALF_WIDTH_SIGMAS / np.sqrt(big_n * np.cos(2 * zeta))


def _panel_layout(half: float, n_panels: int):
    """Nodes, weights (both (P, GL_ORDER)) and half-width of P equal panels,
    P even; the left half is the exact negation of the right half."""
    edges = np.linspace(0.0, half, n_panels // 2 + 1)
    hw = 0.5 * (edges[1] - edges[0])
    right = (edges[:-1, None] + hw) + hw * _GL_X
    nodes = np.concatenate([-right[::-1, ::-1], right])
    return nodes, np.broadcast_to(hw * _GL_W, nodes.shape), hw


def _hermite_rows(x: np.ndarray, big_n: int, scale: np.ndarray) -> np.ndarray:
    """(N, m) orthonormal polynomials of exp(-N mu^2) at x, times scale.

    Row k is p_k(x) scale.  The three-term recurrence runs on the scaled
    rows, which stay bounded like Hermite functions when scale carries
    the Gaussian factor.
    """
    rows = [np.zeros_like(scale), (big_n / np.pi) ** 0.25 * scale]
    for k in range(big_n - 1):
        rows.append(
            np.sqrt(2.0 * big_n / (k + 1)) * x * rows[-1]
            - np.sqrt(k / (k + 1)) * rows[-2]
        )
    return np.array(rows[1:])


def _moment_blocks(fvals: np.ndarray, hw: float):
    """1-D and ordered-pair integrals of a function family on the panels.

    fvals (K, P * GL_ORDER) holds the K functions at the panel nodes.
    Returns (m, M): m_i = integral of phi_i, and the antisymmetric
    M_ij = integral over x < y of phi_i(x) phi_j(y) - phi_j(x) phi_i(y),
    both to spectral accuracy: _GL_S gives the running integral of each
    panel's interpolant at its own nodes.
    """
    big_k = len(fvals)
    panels = fvals.reshape(big_k, -1, GL_ORDER)
    partials = hw * (panels @ _GL_S.T)
    totals = hw * (panels @ _GL_W)
    prefix = np.concatenate(
        [np.zeros((big_k, 1), dtype=complex), np.cumsum(totals, axis=1)[:, :-1]],
        axis=1,
    )
    cum = partials + prefix[:, :, None]  # Phi_i at every node
    big_m = (cum * (hw * _GL_W)).reshape(big_k, -1) @ fvals.T
    return totals.sum(axis=1), big_m - big_m.T


def _bordered(big_m: np.ndarray, m_vec: np.ndarray) -> np.ndarray:
    """de Bruijn's skew matrix: M itself for even N, bordered by m for odd N."""
    n = len(m_vec)
    if n % 2 == 0:
        return big_m
    out = np.zeros((n + 1, n + 1), dtype=complex)
    out[:n, :n] = big_m
    out[:n, n] = m_vec
    out[n, :n] = -m_vec
    return out


def _pfaffian(a: np.ndarray) -> tuple[complex, float]:
    """(sign, log|Pf|) of an even-order skew-symmetric matrix (Parlett-Reid).

    Gaussian elimination two columns at a time with a skew-symmetric
    rank-2 update, pivoting on the largest entry below the diagonal.  The
    product of the pivots is kept as a unit phase and a log modulus, like
    np.linalg.slogdet, so it cannot overflow at large N.
    """
    a = np.array(a, dtype=complex)
    n = len(a)
    sign, log_abs = 1.0 + 0.0j, 0.0
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.argmax(np.abs(a[k + 1 :, k])))
        if kp != k + 1:
            a[[k + 1, kp], k:] = a[[kp, k + 1], k:]
            a[k:, [k + 1, kp]] = a[k:, [kp, k + 1]]
            sign = -sign
        if a[k + 1, k] == 0:
            return 0.0j, -np.inf
        pivot = a[k, k + 1]
        sign *= pivot / abs(pivot)
        log_abs += np.log(abs(pivot))
        tau = a[k, k + 2 :] / pivot
        col = a[k + 2 :, k + 1]
        a[k + 2 :, k + 2 :] += np.outer(tau, col) - np.outer(col, tau)
    return sign, log_abs


def _engine_matrix(spec: EnsembleSpec, rows, site, weights, hw) -> np.ndarray:
    """Gram matrix (beta = 2) or de Bruijn skew matrix (beta = 1).

    rows are _hermite_rows at the panel nodes, site the per-eigenvalue
    weight beyond the Gaussian factor that rows carry: each row holds
    exp(-N mu^2 / beta), so a Gram entry and a single-site beta = 1
    function both carry exp(-N mu^2) once.
    """
    if spec.beta == 2:
        return (rows * (weights * site)) @ rows.T
    m_vec, big_m = _moment_blocks(rows * site, hw)
    return _bordered(big_m, m_vec)


def _log_norm(spec: EnsembleSpec, a: np.ndarray) -> tuple:
    """(sign, log|det a|) at beta = 2, (sign, log|Pf a|) at beta = 1.

    The log form keeps the Z ratio finite where det and Pf overflow alone.
    """
    return tuple(np.linalg.slogdet(a) if spec.beta == 2 else _pfaffian(a))


class _GaussLevel(NamedTuple):
    """The Gaussian side of one panel level on the line exp(i zeta) t."""

    mu: np.ndarray  # panel nodes on the line, read-only
    weights: np.ndarray  # dt weights, read-only
    hw: float  # panel half-width
    gauss: np.ndarray  # exp(-N mu^2 / beta), the factor each row carries
    log_norm: tuple  # (sign, log|det|) or (sign, log|Pf|) of the Gaussian
    defect: float | None  # beta = 2: max|exp(i zeta) G_gauss - I|


@functools.lru_cache(maxsize=GAUSS_LEVEL_CACHE_SIZE)
def _gaussian_level(spec: EnsembleSpec, zeta: float, n_panels: int, half: float):
    """Layout and Gaussian determinant or Pfaffian of one panel level.

    None of it depends on lam, so it is built once per key; half, the
    panel half-width, carries HALF_WIDTH_SIGMAS.  The Hermite rows are
    not kept: they grow as N times the node count.  With dt weights the
    Gaussian's Gram matrix is exp(-i zeta) I on an exact basis, so
    defect measures how far the rotated rows are from one.
    """
    t, weights, hw = _panel_layout(half, n_panels)
    mu = np.exp(1j * zeta) * t.ravel()
    weights = weights.ravel()
    gauss = np.exp(-spec.N * mu**2 / spec.beta)
    den = _engine_matrix(spec, _hermite_rows(mu, spec.N, gauss), 1.0, weights, hw)
    defect = None
    if spec.beta == 2:
        defect = float(np.max(np.abs(np.exp(1j * zeta) * den - np.eye(spec.N))))
    for a in (mu, weights, gauss):
        a.flags.writeable = False
    return _GaussLevel(mu, weights, hw, gauss, _log_norm(spec, den), defect)


def _line_level(spec: EnsembleSpec, zeta: float, n_panels: int) -> _GaussLevel:
    """The cached Gaussian level at the current HALF_WIDTH_SIGMAS."""
    return _gaussian_level(spec, zeta, n_panels, _half_width(spec.N, zeta))


def _line_estimate(
    c: Coupling, spec: EnsembleSpec, zeta: float, family, stage: str
) -> PartitionEstimate:
    """Z ratio on the line exp(i zeta) t via determinant/Pfaffian identities.

    family(mu) returns (x, site): the point where the numerator's
    polynomials are evaluated and its site weight; the denominator is the
    Gaussian itself (x = mu, site 1), read from _gaussian_level.  The
    panels are mirror-symmetric and both families have a parity (x odd,
    site even), so family sees the right half of the nodes and the left
    half is mirrored.  All contour phases are common factors of numerator
    and denominator and cancel in the ratio.  _doubling always evaluates
    the first two levels, so one family call covers both.  A stall at
    beta = 2 also names the last level's Gaussian basis defect.
    """
    big_n = spec.N
    levels, ahead, logs = {}, {}, {}

    def eval_at(n_panels):
        level = levels[n_panels] = _line_level(spec, zeta, n_panels)
        k = len(level.mu) // 2
        if n_panels in ahead:
            x, site = ahead.pop(n_panels)
        elif n_panels == PANELS_START < PANELS_CAP:
            mu_next = _line_level(spec, zeta, 2 * n_panels).mu
            x, site = family(np.concatenate([level.mu[k:], mu_next[2 * k:]]))
            ahead[2 * n_panels] = x[k:], site[k:]
            x, site = x[:k], site[:k]
        else:
            x, site = family(level.mu[k:])
        x, site = np.concatenate([-x[::-1], x]), np.concatenate([site[::-1], site])
        rows = _hermite_rows(x, big_n, level.gauss)
        num = _engine_matrix(spec, rows, site, level.weights, level.hw)
        (s_num, l_num), (s_den, l_den) = _log_norm(spec, num), level.log_norm
        # a zero or overflowing ratio becomes a zero or non-finite level,
        # which _doubling names
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            logs[n_panels] = complex(np.log(s_num / s_den) + (l_num - l_den))
            return complex(np.exp(logs[n_panels]))

    try:
        value, gap, n_panels = _doubling(
            eval_at, PANELS_START, PANELS_CAP, stage, c, spec
        )
    except QuadratureUnderResolvedError as exc:
        last = max(levels)
        if levels[last].defect is None:
            raise
        raise QuadratureUnderResolvedError(
            f"{exc}; Gaussian basis defect max|exp(i zeta) G - I| = "
            f"{levels[last].defect:.3e} at {last} panels (zeta={zeta:.6g})"
        ) from None
    return PartitionEstimate(value, "quadrature", gap, GL_ORDER * n_panels,
                             logs[n_panels])


# ---------------------------------------------------------------------------
# Monte Carlo


def _mc_estimate(
    c: Coupling,
    spec: EnsembleSpec,
    log_integrand,
    n_samples: int,
    seed: int,
) -> PartitionEstimate:
    """Monte Carlo mean of exp(log_integrand(t)) over n_samples draws.

    t is an (n_samples, N, N) real tridiagonal stack whose spectra follow
    the ensemble's eigenvalue law.
    """
    lam = complex(c.lam)
    if lam.imag != 0 or lam.real < 0:
        raise OutOfRangeError(f"Monte Carlo requires real lambda >= 0, got lam={lam:.6g}")
    if n_samples < 2:
        raise OutOfRangeError(
            f"Monte Carlo needs at least 2 samples for a standard error, got "
            f"n_samples={n_samples} (lam={lam:.6g}, p={c.p}, N={spec.N}, "
            f"beta={spec.beta})"
        )
    rng = spawn_streams(seed, 1)[0]
    vals = np.exp(log_integrand(sample_tridiagonal_batch(spec, rng, n_samples)))
    mean = complex(np.mean(vals))
    se = float(np.std(vals.real) / np.sqrt(len(vals)))
    if se > MC_MAX_REL_SE * abs(mean):
        raise VarianceBlowupError(
            f"relative standard error {se / abs(mean):.2%} exceeds "
            f"{MC_MAX_REL_SE:.0%} (lam={lam:.6g}, p={c.p}, N={spec.N}, "
            f"beta={spec.beta}, n_samples={n_samples})"
        )
    return PartitionEstimate(mean, "monte_carlo", se, len(vals), np.log(mean))


# ---------------------------------------------------------------------------
# public estimators


def z_direct(
    c: Coupling,
    spec: EnsembleSpec,
    method: str = "quadrature",
    n_samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
) -> PartitionEstimate:
    """Z(lambda, N)/Z(0, N) from the interaction weight exp(-N lam Tr H^2p)."""
    lam = complex(c.lam)
    p = c.p
    big_n = spec.N
    if method == "monte_carlo":
        def log_integrand(t):
            # Tr T^2p = Tr(T^p T^p): p - 1 matmuls, no diagonalization
            tp = t
            for _ in range(p - 1):
                tp = tp @ t
            return -big_n * lam.real * np.einsum("...ij,...ji->...", tp, tp)

        return _mc_estimate(c, spec, log_integrand, n_samples, seed)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    def family(mu):
        return mu, np.exp(-big_n * lam * mu ** (2 * p))

    return _line_estimate(
        c, spec, _tilt_angle(lam, p), family, "z_direct quadrature"
    )


def z_lvr(
    c: Coupling,
    spec: EnsembleSpec,
    method: str = "quadrature",
    n_samples: int = MC_DEFAULT_SAMPLES,
    seed: int = 0,
) -> PartitionEstimate:
    """Z(lambda, N)/Z(0, N) as the Gaussian average of exp(S(lambda, K))."""
    lam = complex(c.lam)
    if method == "monte_carlo":
        def log_integrand(t):
            # real lambda: S is real on real spectra
            return action_S(c, spec, np.linalg.eigvalsh(t)).total.real

        return _mc_estimate(c, spec, log_integrand, n_samples, seed)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")

    def family(mu):
        md = map_derivatives(c, mu)
        return md["h"], md["hp"]

    return _line_estimate(c, spec, 0.0, family, "z_lvr quadrature")


def _planar_factor(p: int, lam, a2) -> np.ndarray:
    """(..., p) coefficients M_n of x^2n in the planar density's factor
    M(x) = 2 + 2 p lam sum_(k<p) C(2k, k) (a^2/4)^k x^(2p-2-2k)."""
    k = np.arange(p - 1, -1, -1)
    central = np.array([math.comb(2 * j, j) for j in k], dtype=float)
    m = 2 * p * np.asarray(lam)[..., None] * central * (np.asarray(a2)[..., None] / 4) ** k
    m[..., 0] += 2
    return m


def topological_free_energy(c: Coupling, spec: EnsembleSpec) -> complex:
    """F to its first correction in 1/N, from the planar density.

    At beta = 2 this is F_0 + F_1/N^2.  The planar density is
    M(x) sqrt(a^2 - x^2)/(2 pi) on [-a, a], a^2 = 2u, u = T_p(-c_p lam),
    c_p = p C(2p, p)/2^p; its moments are
    m_2j = sum_n M_n a^(2(n+j+1)) Cat(n+j)/4^(n+j+1).  F_0 = -integral of
    m_2p d lam, taken in v = u(lam), lam = (1 - v)/(c_p v^p): one panel of
    the engine's rule on [1, u].  F_1 = -log(a^2 M(a)/4)/12
    (Ambjorn-Chekhov-Kristjansen-Makeenko, Nucl. Phys. B 404, 1993).  At
    beta = 1 it is F_0/2 - (Sigma - Sigma(0))/(2N) at coupling 2^(1-p) lam,
    with Sigma = integral of rho log rho (Borot-Guionnet, CMP 317, 2013) on
    Gauss-Chebyshev nodes in x = a cos t.
    """
    p = c.p
    cp = p * math.comb(2 * p, p) / 2**p
    lam = complex(c.lam) * (1.0 if spec.beta == 2 else 2.0 ** (1 - p))
    u = complex(fc_eval_many(c.params, -cp * lam)[0])
    v = 1 + 0.5 * (u - 1) * (_GL_X + 1)
    j = np.arange(p) + p
    catalan = np.array([math.comb(2 * i, i) / (i + 1) for i in j]) / 4.0 ** (j + 1)
    m_2p = np.sum(_planar_factor(p, (1 - v) / (cp * v**p), 2 * v)
                  * (2 * v[:, None]) ** (j + 1) * catalan, axis=-1)
    f0 = 0.5 * (u - 1) * np.sum(_GL_W * m_2p * (p - (p - 1) * v) / (cp * v ** (p + 1)))
    big_m, powers = _planar_factor(p, lam, 2 * u), np.arange(p)
    if spec.beta == 2:
        return complex(f0 - np.log(u * np.sum(big_m * (2 * u) ** powers) / 2) / (12 * spec.N**2))
    t = np.pi * np.arange(1, ENTROPY_NODES + 1) / (ENTROPY_NODES + 1)
    m_x = np.sum(big_m * (2 * u * np.cos(t)[:, None] ** 2) ** powers, axis=-1)
    log_rho = np.log(m_x) + 0.5 * np.log(2 * u) + np.log(np.sin(t) / (2 * np.pi))
    sigma = u / (ENTROPY_NODES + 1) * np.sum(np.sin(t) ** 2 * m_x * log_rho)
    # Sigma(0) = 1/2 - log(pi sqrt 2), the semicircle of radius sqrt 2
    return complex(0.5 * f0 - (sigma - 0.5 + np.log(np.pi * np.sqrt(2))) / (2 * spec.N))


def free_energy(c: Coupling, spec: EnsembleSpec) -> complex:
    """F = N^(-2) (log Z + 2 pi i m).

    log Z is the principal log of z_direct's accepted level, and m the
    integer that brings it nearest to N^2 topological_free_energy.  A
    residual N^2 |F - F_topo| above pi/2 leaves the sheet undecided.
    """
    n2 = spec.N**2
    topo = n2 * topological_free_energy(c, spec)
    log_z = z_direct(c, spec).log_value
    log_z += 2j * np.pi * round((topo - log_z).imag / (2 * np.pi))
    if abs(log_z - topo) > np.pi / 2:
        raise LogBranchAmbiguityError(
            f"free_energy: N^2 |F - F_topo| = {abs(log_z - topo):.3e} exceeds pi/2 "
            f"for lam={complex(c.lam):.6g}, p={c.p}, N={spec.N}, beta={spec.beta}"
        )
    return complex(log_z / n2)


# ---------------------------------------------------------------------------
# exact Gaussian moments


def _pairings(slots: list[int]):
    if not slots:
        yield []
        return
    a = slots[0]
    for i in range(1, len(slots)):
        b = slots[i]
        rest = slots[1:i] + slots[i + 1 :]
        for tail in _pairings(rest):
            yield [(a, b)] + tail


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def gaussian_moment_exact(N: int, k: int, beta: int = 2) -> Fraction:
    """E[Tr H^(2k)] exactly, by enumerating Wick pairings of 2k slots.

    Slot m of the trace carries H_{v_m, v_{m+1 mod 2k}}.  Each pair
    contributes the straight contraction (and, for beta = 1, also the
    transposed one); every term identifies vertex labels, and the
    surviving free labels each contribute a factor N.
    """
    if not 0 <= k <= WICK_MAX_K:
        raise OutOfRangeError(f"k must be in [0, {WICK_MAX_K}]")
    if not 1 <= N <= WICK_MAX_N:
        raise OutOfRangeError(f"N must be in [1, {WICK_MAX_N}]")
    if beta not in (1, 2):
        raise ValueError("beta must be 1 or 2")
    if k == 0:
        return Fraction(N)
    n_slots = 2 * k
    coeff = Fraction(1, 2 * N) if beta == 2 else Fraction(1, 4 * N)
    total = Fraction(0)
    terms_per_pair = (0,) if beta == 2 else (0, 1)
    for pairing in _pairings(list(range(n_slots))):
        for choice in range(len(terms_per_pair) ** k):
            uf = _UnionFind(n_slots)
            ch = choice
            for m, n in pairing:
                twist = terms_per_pair[ch % len(terms_per_pair)]
                ch //= len(terms_per_pair)
                if twist:
                    # E[H_ab H_cd] term delta_ac delta_bd
                    uf.union(m, n)
                    uf.union((m + 1) % n_slots, (n + 1) % n_slots)
                else:
                    # term delta_ad delta_bc
                    uf.union(m, (n + 1) % n_slots)
                    uf.union((m + 1) % n_slots, n)
            roots = {uf.find(a) for a in range(n_slots)}
            total += coeff**k * Fraction(N) ** len(roots)
    return total
