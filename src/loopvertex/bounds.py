"""Quantitative bound suites with fitted constants.

Each suite sweeps the relevant sample set (pacman couplings, random
spectra, keyhole contour nodes), fits the single constant C that makes
the inequality hold with equality at the worst sample, and reports it.
The constants are fitted, never asserted a priori; where a power-law
exponent is claimed, the suite also measures the log-log slope so the
claim can be regression-tested.

The suites batch their samples: the resolvent suite makes one
resolvent call per pacman coupling on the whole (n_spectra, N) block of
sorted spectra, and the corner suite one corner-operator call per
coupling over all spectra and node pairs.  Only the worst sample is
turned into a ``worst_sample`` record.

The contour-resolvent suite scans candidates, not the whole
(nodes, eigenvalues) ratio matrix.  For a node u = a + ib and a real
eigenvalue mu the ratio r(mu) = max(1+|u|, 1+|mu|) / |u - mu| is
continuous, and on mu >= a it is monotone piece by piece:

- on a <= mu <= |u| the numerator is constant, so r falls;
- on mu >= |u|, r' has the sign of b^2 - (mu - a)(1 + a): r rises while
  mu < mu_+ = a + b^2/(1 + a) and falls after, or rises throughout when
  1 + a <= 0.

So over the eigenvalues >= a, r peaks at the smallest of them, at a
sorted neighbour of mu_+ or at the largest; on mu <= a likewise with
a -> -a, the turning point being mu_- = a - b^2/(1 - a).  The largest
ratio over a sorted spectrum is therefore at one of 8 candidates per
node: the two sorted neighbours of each of a, mu_+ and mu_-, and the
smallest and largest mu.  The suite's formula is evaluated on those
only, O(nodes log eigenvalues) instead of O(nodes eigenvalues).
The maximum equals the full matrix's up to rounding: at a flat turning
point, eigenvalues within about 1e-8 of each other differ in the ratio by
less than one rounding error, and one that is not a candidate can round
an ulp or two higher.  Suites given no samples raise OutOfRangeError.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import corner_operator, resolvent_entries
from .contour import build_keyhole
from .errors import OutOfRangeError
from .fusscatalan import FussCatalanParams, fc_eval_many, fc_log_deriv_many
from .matrixcore import EnsembleSpec
from .scalarmaps import Coupling, eval_map
from .trees import single_vertex_amplitude

#: pacman sweep used by every lambda-dependent suite
PACMAN_MODULI = (1e-3, 1e-2, 1e-1)
FACTOR_SWEEP_MODULI = tuple(np.logspace(-4, -1, 7))
DEFAULT_EPSILON = 0.2
#: spectral radius of every keyhole the suites build
DEFAULT_SPECTRAL_RADIUS = 1.0


def pacman_args(epsilon: float) -> tuple[float, ...]:
    return (0.0, np.pi / 2, -np.pi / 2, np.pi - 2 * epsilon, -(np.pi - 2 * epsilon))


@dataclass
class BoundReport:
    """One fitted inequality: lhs <= fitted_constant * envelope."""

    name: str
    fitted_constant: float
    n_samples: int
    exponent_target: float | None = None
    exponent_measured: float | None = None
    worst_sample: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return np.isfinite(self.fitted_constant)

    def envelope_exponent_holds(self, rel: float = 0.15) -> bool:
        """Whether the measured slope is compatible with the envelope exponent.

        The suites state ``|Q(lambda)| <= C |lambda|^a`` for
        ``0 < |lambda| <= eta``: Q vanishes *at least* as fast as
        ``|lambda|^a``.  For a power law that is ``slope >= a``, not
        ``slope == a``, so the check is one-sided with a relative
        margin ``rel`` below the target.

        At fixed N and on a bounded contour every checked quantity is
        analytic at ``lambda = 0`` and zero there, so its measured slope
        is its Taylor order, 1:

        - contour factor: ``build_keyhole`` fixes
          ``R = max(2*spectral_radius, 2r)`` and
          ``g(u) = u (sqrt(T_p(-lambda u^(2p-2))) - 1)
          = -lambda u^(2p-1) / 2 + O(lambda^2)``;
        - ``A_empty = N^-2 E[S]`` with ``S = 0`` at ``lambda = 0``; its
          first-order coefficient is the one criterion 07 pins for F;
        - ``A1 = N^-2 E[(N/2) sum log T_p]`` with ``log T_p = O(lambda)``.

        The fractional exponents come from uniformity in u and N, not
        from fixed-N asymptotics.  A slope of 1 therefore satisfies every
        envelope, while a quantity that does not vanish as
        ``lambda -> 0`` (slope about 0) fails.  Vacuously true when
        either exponent is missing.
        """
        if self.exponent_target is None or self.exponent_measured is None:
            return True
        return self.exponent_measured >= (1.0 - rel) * self.exponent_target


def _fit_constant(ratios: np.ndarray, sample, name: str) -> BoundReport:
    """Report the largest ratio; sample(k) describes the k-th sample."""
    ratios = np.asarray(ratios, dtype=float)
    worst = int(np.argmax(ratios))
    return BoundReport(
        name=name,
        fitted_constant=float(ratios[worst]),
        n_samples=len(ratios),
        worst_sample=sample(worst),
    )


def _require_samples(suite: str, **counts: int) -> None:
    """OutOfRangeError naming suite and count unless every count is >= 1."""
    for name, n in counts.items():
        if n < 1:
            raise OutOfRangeError(f"{suite} needs {name} >= 1, got {name}={n}")


def loglog_slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def _pacman_couplings(p: int, epsilon: float, moduli=PACMAN_MODULI):
    out = []
    for mod in moduli:
        for arg in pacman_args(epsilon):
            out.append(Coupling(lam=mod * np.exp(1j * arg), epsilon=epsilon, p=p))
    return out


def fc_decay_suite(p: int, epsilon: float = DEFAULT_EPSILON, n_points: int = 10000,
                   seed: int = 0) -> tuple[BoundReport, BoundReport]:
    """|T_p(z)| <= C (1+|z|)^(-1/p) and |E_p(z)| <= C' / (1+|z|).

    Sampled on log-radial grids avoiding an epsilon-sector around the
    positive-real cut.
    """
    _require_samples("fc_decay_suite", n_points=n_points)
    params = FussCatalanParams(p)
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-2, 3, n_points)
    # keep an epsilon wedge of clearance around the cut direction arg z = 0
    angles = rng.uniform(epsilon, 2 * np.pi - epsilon, n_points)
    z = radii * np.exp(1j * angles)
    t = fc_eval_many(params, z)
    e = fc_log_deriv_many(params, z)
    rt = np.abs(t) * (1.0 + np.abs(z)) ** (1.0 / p)
    re = np.abs(e) * (1.0 + np.abs(z))

    def sample(k):
        return {"z": complex(z[k])}

    return (
        _fit_constant(rt, sample, f"fc-decay-T p={p}"),
        _fit_constant(re, sample, f"fc-decay-E p={p}"),
    )


def g_bound_suite(p: int, epsilon: float = DEFAULT_EPSILON) -> BoundReport:
    """|g(u)| <= C |lambda|^(1/4p^2) |u|^(1 + 1/2p - 1/2p^2) on keyholes."""
    ratios, samples = [], []
    expo_lam = 1.0 / (4 * p * p)
    expo_u = 1.0 + 1.0 / (2 * p) - 1.0 / (2 * p * p)
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(DEFAULT_SPECTRAL_RADIUS, c)
        u = gamma.nodes
        g = np.asarray(eval_map("g", c, u))
        envelope = abs(c.lam) ** expo_lam * np.abs(u) ** expo_u
        r = np.abs(g) / envelope
        k = int(np.argmax(r))
        ratios.append(float(r[k]))
        samples.append({"lam": complex(c.lam), "u": complex(u[k])})
    return _fit_constant(np.array(ratios), samples.__getitem__, f"g-bound p={p}")


def _random_spectra(rng: np.random.Generator, n_spectra: int, big_n: int,
                    radius: float) -> np.ndarray:
    return rng.uniform(-radius, radius, (n_spectra, big_n))


def resolvent_bound_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                          n_spectra: int = 1000, big_n: int = 3,
                          seed: int = 0) -> BoundReport:
    """Lemma-style resolvent entries: |value_ij| <= C Lambda_ij.

    One batched resolvent call per pacman coupling on the ascending
    (n_spectra, big_n) eigenvalue block.
    """
    _require_samples("resolvent_bound_suite", n_spectra=n_spectra)
    rng = np.random.default_rng(seed)
    spectra = _random_spectra(rng, n_spectra, big_n, 2.0)
    eigs = np.sort(spectra, axis=-1)
    couplings = _pacman_couplings(p, epsilon)
    ratios = []
    for c in couplings:
        res = resolvent_entries(c, eigs)
        ratios.append(np.max(np.abs(res.values) / res.lambda_bounds, axis=(-2, -1)))

    def sample(k):
        c_idx, s_idx = divmod(k, n_spectra)
        return {"lam": complex(couplings[c_idx].lam), "spectrum": spectra[s_idx].tolist()}

    return _fit_constant(np.concatenate(ratios), sample, f"resolvent-bound p={p}")


def corner_bound_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                       n_spectra: int = 40, n_node_pairs: int = 60,
                       big_n: int = 3, seed: int = 0) -> BoundReport:
    """max_ij |O_ij(u_k, u_k1)| <= C (1+|u_k|)^(-1-1/p) (1+|u_k1|)^(-1).

    Per pacman coupling, one corner-operator call over all spectra and
    node pairs, shape (n_spectra, n_node_pairs, big_n, big_n).
    """
    _require_samples("corner_bound_suite", n_spectra=n_spectra, n_node_pairs=n_node_pairs)
    rng = np.random.default_rng(seed)
    spectra = _random_spectra(rng, n_spectra, big_n, 0.45 * DEFAULT_SPECTRAL_RADIUS)
    eigs = np.sort(spectra, axis=-1)
    ratios, pairs = [], []
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(DEFAULT_SPECTRAL_RADIUS, c)
        idx = rng.integers(0, len(gamma.nodes), (n_node_pairs, 2))
        u_k, u_k1 = gamma.nodes[idx[:, 0]], gamma.nodes[idx[:, 1]]
        o = corner_operator(c, eigs, u_k, u_k1)
        # Python-float envelope per node pair, as the scalar formula reads
        env = np.array([(1.0 + abs(a)) ** (-1.0 - 1.0 / p) / (1.0 + abs(b))
                        for a, b in zip(u_k.tolist(), u_k1.tolist())])
        ratios.append((np.max(np.abs(o), axis=(-2, -1)) / env).ravel())
        pairs += [(complex(c.lam), a, b) for a, b in zip(u_k.tolist(), u_k1.tolist())]

    def sample(k):
        c_idx, rest = divmod(k, n_spectra * n_node_pairs)
        lam, u_k, u_k1 = pairs[c_idx * n_node_pairs + rest % n_node_pairs]
        return {"lam": lam, "u_k": u_k, "u_k1": u_k1}

    return _fit_constant(np.concatenate(ratios), sample, f"corner-bound p={p}")


def _contour_resolvent_worst(u: np.ndarray, mu: np.ndarray) -> tuple[float, int, int]:
    """(ratio, node index, eigenvalue index) of the largest contour-resolvent ratio.

    The ratio is 1/|u - mu| / min(1/(1+|u|), 1/(1+|mu|)) over nodes u and
    eigenvalues mu, evaluated on the 8 candidates per node of the module
    docstring, so it equals the full matrix's maximum up to rounding at a
    flat turning point.  Ties go to the first node, as np.argmax on the
    whole matrix breaks them, then to the first eigenvalue among the tied
    candidates.
    """
    order = np.argsort(mu, kind="stable")
    a, b, s = u.real, u.imag, np.abs(u)
    up, down = 1.0 + a > 0, 1.0 - a > 0
    mu_plus = np.where(up, a + b * b / np.where(up, 1.0 + a, 1.0), a)
    mu_minus = np.where(down, a - b * b / np.where(down, 1.0 - a, 1.0), a)
    at = np.searchsorted(mu[order], np.stack([a, mu_plus, mu_minus], axis=-1))
    ends = np.broadcast_to([0, len(mu) - 1], (len(u), 2))
    idx = order[np.clip(np.concatenate([at - 1, at, ends], axis=-1), 0, len(mu) - 1)]
    cand = mu[idx]
    env = np.minimum(1.0 / (1.0 + s[:, None]), 1.0 / (1.0 + np.abs(cand)))
    r = 1.0 / np.abs(u[:, None] - cand) / env
    best = r.max(axis=-1)
    k = int(np.argmax(best))
    return float(best[k]), k, int(idx[k][r[k] == best[k]].min())


def contour_resolvent_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                            n_eigs: int = 200, seed: int = 0) -> BoundReport:
    """|1/(u - mu)| <= C min(1/(1+|u|), 1/(1+|mu|)) on nodes x spectra.

    Per pacman coupling, n_eigs uniform eigenvalues in +-R/2 of its
    keyhole; the worst (node, eigenvalue) pair is found by the candidate
    scan of the module docstring (_contour_resolvent_worst), which sorts
    the eigenvalues once and evaluates 8 of them per node, so no
    (nodes, n_eigs) matrix is built.
    """
    _require_samples("contour_resolvent_suite", n_eigs=n_eigs)
    rng = np.random.default_rng(seed)
    ratios, samples = [], []
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(DEFAULT_SPECTRAL_RADIUS, c)
        mu = rng.uniform(-gamma.R / 2, gamma.R / 2, n_eigs)
        ratio, k, j = _contour_resolvent_worst(gamma.nodes, mu)
        ratios.append(ratio)
        samples.append({"lam": complex(c.lam), "u": complex(gamma.nodes[k]), "mu": float(mu[j])})
    return _fit_constant(np.array(ratios), samples.__getitem__, f"contour-resolvent p={p}")


def contour_factor_values(p: int, arg_lam: float, epsilon: float = DEFAULT_EPSILON,
                          moduli=FACTOR_SWEEP_MODULI):
    """Quadrature values of the contour factor integral along one ray.

    I(lambda) = closed-contour integral of |g(u)| (1+|u|)^(-2-1/p) |du|.
    """
    values = []
    for mod in moduli:
        c = Coupling(lam=mod * np.exp(1j * arg_lam), epsilon=epsilon, p=p)
        gamma = build_keyhole(DEFAULT_SPECTRAL_RADIUS, c)
        g = np.asarray(eval_map("g", c, gamma.nodes))
        integrand = np.abs(g) * (1.0 + np.abs(gamma.nodes)) ** (-2.0 - 1.0 / p)
        values.append(float(np.sum(integrand * np.abs(gamma.dnodes))))
    return np.asarray(moduli, dtype=float), np.asarray(values)


def contour_factor_suite(p: int, epsilon: float = DEFAULT_EPSILON) -> BoundReport:
    """I(lambda) <= C |lambda|^(1/4p^2) across moduli on each pacman ray."""
    expo = 1.0 / (4 * p * p)
    ratios, samples, slopes = [], [], []
    for arg in pacman_args(epsilon):
        moduli, values = contour_factor_values(p, arg, epsilon)
        r = values / moduli**expo
        k = int(np.argmax(r))
        ratios.append(float(r[k]))
        samples.append({"arg": float(arg), "lam_modulus": float(moduli[k])})
        slopes.append(loglog_slope(moduli, values))
    report = _fit_constant(np.array(ratios), samples.__getitem__, f"contour-factor p={p}")
    report.exponent_target = expo
    report.exponent_measured = float(np.mean(slopes))
    return report


def single_vertex_scaling_suite(p: int, big_n: int = 2,
                                moduli=FACTOR_SWEEP_MODULI) -> tuple[BoundReport, BoundReport]:
    """|A_empty| <= C |lambda|^(1/(2p(2p-2))) and |A1| <= C' |lambda|^(1/(2p-2)).

    Real-lambda sweep with quadrature amplitudes, fitted constants plus
    measured log-log slopes against the claimed envelope exponents.
    """
    spec = EnsembleSpec(N=big_n, beta=2)
    expo_total = 1.0 / (2 * p * (2 * p - 2))
    expo_a1 = 1.0 / (2 * p - 2)
    a_tot, a_one = [], []
    for mod in moduli:
        est = single_vertex_amplitude(Coupling(lam=mod, p=p), spec)
        a_tot.append(abs(est.value))
        a_one.append(abs(est.a1))
    a_tot = np.asarray(a_tot)
    a_one = np.asarray(a_one)
    moduli = np.asarray(moduli, dtype=float)

    def sample(k):
        return {"lam_modulus": float(moduli[k])}

    rep_tot = _fit_constant(a_tot / moduli**expo_total, sample, f"single-vertex p={p}")
    rep_tot.exponent_target = expo_total
    rep_tot.exponent_measured = loglog_slope(moduli, a_tot)
    rep_one = _fit_constant(a_one / moduli**expo_a1, sample, f"single-vertex-A1 p={p}")
    rep_one.exponent_target = expo_a1
    rep_one.exponent_measured = loglog_slope(moduli, a_one)
    return rep_tot, rep_one


def all_bound_suites(p: int, epsilon: float = DEFAULT_EPSILON,
                     seed: int = 0) -> list[BoundReport]:
    """The full fitted-constant battery for one (p, epsilon)."""
    t_rep, e_rep = fc_decay_suite(p, epsilon, seed=seed)
    sv_rep, a1_rep = single_vertex_scaling_suite(p)
    return [
        t_rep,
        e_rep,
        g_bound_suite(p, epsilon),
        resolvent_bound_suite(p, epsilon, seed=seed),
        corner_bound_suite(p, epsilon, seed=seed),
        contour_resolvent_suite(p, epsilon, seed=seed),
        contour_factor_suite(p, epsilon),
        sv_rep,
        a1_rep,
    ]
