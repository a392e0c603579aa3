"""Ground-truth partition function Z and free energy F.

Z(lambda, N) is computed two independent ways and must agree:

  * directly, as E[exp(-N lam Tr H^(2p))] over the Gaussian ensemble,
  * through the change of variables, as E[exp(S(lam, K))].

Both reduce to eigenvalue integrals with the Vandermonde repulsion
factor.  Small N uses one deterministic quadrature engine that turns
the N-fold integral into 1-D integrals along the line exp(i zeta) t:
for beta = 2 the Andreief identity gives the determinant of a Gram
matrix, for beta = 1 de Bruijn's identity gives a Pfaffian of ordered
pair integrals.  The line is the real axis (zeta = 0) unless the
coupling needs it rotated: Re(lam) < 0 for the direct weight, a cut ray
of the scalar maps near the real axis for the change of variables.
Composite 16-node Gauss-Legendre panels double until the ratio settles;
the rule and its spectral integration matrix (the running integral of
each panel's interpolant at its nodes) are built once at import, so a
panel integral is one matrix product.  Larger N at real lam >= 0 uses
Monte Carlo.  Exact Gaussian moments by Wick pairing enumeration
provide the perturbative anchor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .action import divided_difference, map_derivatives
from .errors import (
    OutOfRangeError,
    QuadratureUnderResolvedError,
    VarianceBlowupError,
)
from .matrixcore import EnsembleSpec, sample_gaussian_batch, spawn_streams
from .scalarmaps import Coupling

QUAD_MAX_N = 3
QUAD_REL_TOL = 1e-6
#: integration half-width in units of the Gaussian scale 1/sqrt(N env)
HALF_WIDTH_SIGMAS = 8.5
#: rotate the eigenvalue line once |arg lambda| exceeds pi/2 minus this
TILT_MARGIN = 0.15
#: largest allowed |2 zeta| below pi/2, keeping Gaussian decay on the line
MAX_DOUBLE_ANGLE = np.pi / 2 - 0.3

#: panel rule of the determinantal engine: Gauss-Legendre on [-1, 1]
GL_ORDER = 16
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)
#: spectral integration matrix, _GL_S[j, k] = integral from -1 to _GL_X[j]
#: of the k-th Lagrange basis polynomial on the nodes: node values to
#: Legendre coefficients, then each P_n's antiderivative at the nodes
_GL_S = np.polynomial.legendre.legval(
    _GL_X, np.polynomial.legendre.legint(np.eye(GL_ORDER), lbnd=-1)
).T @ np.linalg.inv(np.polynomial.legendre.legvander(_GL_X, GL_ORDER - 1))

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


def _map_rotation(c: Coupling) -> float:
    """Eigenvalue-line rotation keeping the scalar maps well-converged.

    The cut rays of h sit at angles base + k pi/(p-1); quadrature on the
    real line converges slowly when a ray hugs it.  Rotating to the
    bisector of the two rays bracketing the real axis maximizes the
    analyticity strip, clipped so the Gaussian factor still decays.
    """
    lam = complex(c.lam)
    alpha = float(np.angle(lam))
    if alpha == 0.0:
        return 0.0
    spacing = np.pi / (c.p - 1)
    base = (np.pi - alpha) / (2 * c.p - 2)
    delta = base % spacing
    psi = delta - spacing / 2.0
    limit = MAX_DOUBLE_ANGLE / 2.0
    return float(np.clip(psi, -limit, limit))


def _doubling(
    eval_at, start: int, cap: int, stage: str, c: Coupling, spec: EnsembleSpec
) -> tuple[complex, float, int]:
    """Double the node count until the value stabilizes.

    A stall raises QuadratureUnderResolvedError naming the stage, the
    coupling, N, beta and the last gap measured between two levels.
    """
    m = start
    prev = eval_at(m)
    last = "none (cap reached before the first doubling)"
    while m < cap:
        m *= 2
        cur = eval_at(m)
        gap = abs(cur - prev)
        if gap <= QUAD_REL_TOL * abs(cur):
            return cur, gap, m
        last = f"{gap:.3e} against |value| {abs(cur):.3e}"
        prev = cur
    raise QuadratureUnderResolvedError(
        f"{stage}: doubling stalled at resolution {m} (cap {cap}) for "
        f"lam={complex(c.lam):.6g}, p={c.p}, N={spec.N}, beta={spec.beta}; "
        f"last gap {last}, relative tolerance {QUAD_REL_TOL:g}"
    )


def _panel_layout(half: float, n_panels: int):
    """Nodes, weights (both (P, GL_ORDER)) and half-width of P equal panels."""
    edges = np.linspace(-half, half, n_panels + 1)
    hw = 0.5 * (edges[1] - edges[0])
    nodes = (edges[:-1, None] + hw) + hw * _GL_X
    return nodes, np.broadcast_to(hw * _GL_W, nodes.shape), hw


def _moment_blocks(phi, big_n: int, half: float, n_panels: int):
    """1-D and ordered-pair integrals of a function family on [-half, half].

    phi(t) returns shape (K, len(t)) with K = big_n function values.
    Returns (m, M): m_i = integral of phi_i, and the antisymmetric
    M_ij = integral over x < y of phi_i(x) phi_j(y) - phi_j(x) phi_i(y),
    both to spectral accuracy: _GL_S gives the running integral of each
    panel's interpolant at its own nodes.
    """
    nodes, weights, hw = _panel_layout(half, n_panels)
    fvals = phi(nodes.ravel()).reshape(big_n, n_panels, GL_ORDER)
    partials = hw * (fvals @ _GL_S.T)
    totals = hw * (fvals @ _GL_W)
    prefix = np.concatenate(
        [np.zeros((big_n, 1), dtype=complex), np.cumsum(totals, axis=1)[:, :-1]],
        axis=1,
    )
    cum = partials + prefix[:, :, None]  # Phi_i at every node
    m_vec = totals.sum(axis=1)
    wf = weights.ravel()
    fv = fvals.reshape(big_n, -1)
    cv = cum.reshape(big_n, -1)
    big_m = np.einsum("q,iq,jq->ij", wf, cv, fv)
    big_m = big_m - big_m.T
    return m_vec, big_m


def _ordered_value(phi, big_n: int, half: float, n_panels: int) -> complex:
    """Integral of det[phi_i(x_j)] over the ordered sector x_1 < ... < x_N.

    Single-site determinant integrals reduce to the moment vector and
    pair blocks: for N = 1 the plain integral, N = 2 the antisymmetric
    pair integral, N = 3 its Pfaffian combination with the moments.
    """
    m_vec, big_m = _moment_blocks(phi, big_n, half, n_panels)
    if big_n == 1:
        return complex(m_vec[0])
    if big_n == 2:
        return complex(big_m[0, 1])
    return complex(
        big_m[0, 1] * m_vec[2] - big_m[0, 2] * m_vec[1] + big_m[1, 2] * m_vec[0]
    )


def _hankel_value(pair_fn, big_n: int, half: float, n_panels: int) -> complex:
    """det of the Gram matrix G_ij = integral f_i f_j w for beta = 2 cubes.

    pair_fn(t) returns (vals, weight) with vals shape (N, len(t)); the
    Gram entries are 1-D integrals, so the N-fold cube collapses.
    """
    nodes, weights, _ = _panel_layout(half, n_panels)
    vals, w_site = pair_fn(nodes.ravel())
    gram = np.einsum("q,iq,jq->ij", weights.ravel() * w_site, vals, vals)
    if big_n == 1:
        return complex(gram[0, 0])
    return complex(np.linalg.det(gram))


#: composite-panel schedule of the determinantal engine
PANELS_START = 16
PANELS_CAP = 512


def _line_estimate(
    c: Coupling, spec: EnsembleSpec, zeta: float, family_num, family_den, stage: str
) -> PartitionEstimate:
    """Z ratio on the line exp(i zeta) t via determinant/Pfaffian identities.

    family_num/family_den(t) return, for beta = 2, (vals, site_weight)
    Gram inputs; for beta = 1, the K function values of the ordered
    determinant.  All contour phases are common factors of numerator
    and denominator and cancel in the ratio.
    """
    env = float(np.cos(2 * zeta))
    half = HALF_WIDTH_SIGMAS / np.sqrt(spec.N * env)
    if spec.beta == 1 and spec.N > 1:
        num_fn = lambda P: _ordered_value(family_num, spec.N, half, P)
        den_fn = lambda P: _ordered_value(family_den, spec.N, half, P)
    else:
        num_fn = lambda P: _hankel_value(family_num, spec.N, half, P)
        den_fn = lambda P: _hankel_value(family_den, spec.N, half, P)

    def eval_at(n_panels):
        return num_fn(n_panels) / den_fn(n_panels)

    value, gap, n_panels = _doubling(
        eval_at, PANELS_START, PANELS_CAP, stage, c, spec
    )
    return PartitionEstimate(value, "quadrature", gap, GL_ORDER * n_panels)


# ---------------------------------------------------------------------------
# Monte Carlo


def _mc_estimate(
    c: Coupling,
    spec: EnsembleSpec,
    log_integrand,
    n_samples: int,
    seed: int,
) -> PartitionEstimate:
    """MC driver; log_integrand(spectra batch) -> per-sample log values."""
    lam = complex(c.lam)
    if lam.imag != 0 or lam.real < 0:
        raise OutOfRangeError("Monte Carlo requires real lambda >= 0")
    rng = spawn_streams(seed, 1)[0]
    eigs = np.linalg.eigvalsh(sample_gaussian_batch(spec, rng, n_samples))
    vals = np.exp(log_integrand(eigs))
    mean = complex(np.mean(vals))
    se = float(np.std(vals.real) / np.sqrt(len(vals)))
    if se > MC_MAX_REL_SE * abs(mean):
        raise VarianceBlowupError(
            f"relative standard error {se / abs(mean):.2%} exceeds 10%"
        )
    return PartitionEstimate(mean, "monte_carlo", se, len(vals))


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
    if lam == 0:
        return PartitionEstimate(1.0 + 0.0j, method, 0.0, 0)
    p = c.p
    big_n = spec.N
    if method == "monte_carlo":
        def log_integrand(eigs):
            return -big_n * lam.real * np.sum(eigs ** (2 * p), axis=-1)

        return _mc_estimate(c, spec, log_integrand, n_samples, seed)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if big_n > QUAD_MAX_N:
        raise OutOfRangeError(f"quadrature supports N <= {QUAD_MAX_N}")

    zeta = _tilt_angle(lam, p)
    rot = np.exp(1j * zeta)
    powers = np.arange(big_n)

    def monomials(mu):
        return mu[None, :] ** powers[:, None]

    if spec.beta == 1 and big_n >= 2:
        def family_num(t):
            mu = rot * t
            w = np.exp(-big_n * (mu**2 + lam * mu ** (2 * p)))
            return monomials(mu) * w[None, :]

        def family_den(t):
            mu = rot * t
            return monomials(mu) * np.exp(-big_n * mu**2)[None, :]
    else:
        def family_num(t):
            mu = rot * t
            return monomials(mu), np.exp(-big_n * (mu**2 + lam * mu ** (2 * p)))

        def family_den(t):
            mu = rot * t
            return monomials(mu), np.exp(-big_n * mu**2)

    return _line_estimate(
        c, spec, zeta, family_num, family_den, "z_direct quadrature"
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
    if lam == 0:
        return PartitionEstimate(1.0 + 0.0j, method, 0.0, 0)
    big_n = spec.N
    if method == "monte_carlo":
        def log_integrand(eigs):
            md = map_derivatives(c, eigs)
            ratio = divided_difference(eigs, md["h"], md["hp"])
            iu = np.triu_indices(spec.N, k=1)
            pair = np.sum(np.log(ratio[..., iu[0], iu[1]]), axis=-1)
            s = np.sum(np.log(md["hp"]), axis=-1) + spec.beta * pair
            return s.real  # real lambda: S is real on real spectra

        return _mc_estimate(c, spec, log_integrand, n_samples, seed)
    if method != "quadrature":
        raise ValueError(f"unknown method {method!r}")
    if big_n > QUAD_MAX_N:
        raise OutOfRangeError(f"quadrature supports N <= {QUAD_MAX_N}")

    zeta = _map_rotation(c)
    rot = np.exp(1j * zeta)
    powers = np.arange(big_n)

    def monomials(v):
        return v[None, :] ** powers[:, None]

    if spec.beta == 1 and big_n >= 2:
        def family_num(t):
            mu = rot * t
            md = map_derivatives(c, mu)
            w = md["hp"] * np.exp(-big_n * mu**2)
            return monomials(md["h"]) * w[None, :]

        def family_den(t):
            mu = rot * t
            return monomials(mu) * np.exp(-big_n * mu**2)[None, :]
    else:
        def family_num(t):
            mu = rot * t
            md = map_derivatives(c, mu)
            return monomials(md["h"]), md["hp"] * np.exp(-big_n * mu**2)

        def family_den(t):
            mu = rot * t
            return monomials(mu), np.exp(-big_n * mu**2)

    return _line_estimate(c, spec, zeta, family_num, family_den, "z_lvr quadrature")


def free_energy(
    c: Coupling, spec: EnsembleSpec, method: str = "quadrature", **kwargs
) -> complex:
    """F = N^(-2) log Z, principal log (Z stays near 1 at desk scale)."""
    est = z_direct(c, spec, method, **kwargs)
    if est.error > 0.5 * abs(est.value):
        raise VarianceBlowupError("Z estimate too noisy for a log")
    return complex(np.log(est.value) / spec.N**2)


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
