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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .action import corner_operator, resolvent_entries
from .contour import build_keyhole
from .fusscatalan import FussCatalanParams, fc_eval_many, fc_log_deriv_many
from .matrixcore import EnsembleSpec
from .scalarmaps import Coupling, eval_map
from .trees import single_vertex_amplitude

#: pacman sweep used by every lambda-dependent suite
PACMAN_MODULI = (1e-3, 1e-2, 1e-1)
FACTOR_SWEEP_MODULI = tuple(np.logspace(-4, -1, 7))
DEFAULT_EPSILON = 0.2
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


def g_bound_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                  spectral_radius: float = DEFAULT_SPECTRAL_RADIUS) -> BoundReport:
    """|g(u)| <= C |lambda|^(1/4p^2) |u|^(1 + 1/2p - 1/2p^2) on keyholes."""
    ratios, samples = [], []
    expo_lam = 1.0 / (4 * p * p)
    expo_u = 1.0 + 1.0 / (2 * p) - 1.0 / (2 * p * p)
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(spectral_radius, c)
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
                       big_n: int = 3, seed: int = 0,
                       spectral_radius: float = DEFAULT_SPECTRAL_RADIUS) -> BoundReport:
    """max_ij |O_ij(u_k, u_k1)| <= C (1+|u_k|)^(-1-1/p) (1+|u_k1|)^(-1).

    Per pacman coupling, one corner-operator call over all spectra and
    node pairs, shape (n_spectra, n_node_pairs, big_n, big_n).
    """
    rng = np.random.default_rng(seed)
    spectra = _random_spectra(rng, n_spectra, big_n, 0.45 * spectral_radius)
    eigs = np.sort(spectra, axis=-1)
    ratios, pairs = [], []
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(spectral_radius, c)
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


def contour_resolvent_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                            spectral_radius: float = DEFAULT_SPECTRAL_RADIUS,
                            n_eigs: int = 200, seed: int = 0) -> BoundReport:
    """|1/(u - mu)| <= C min(1/(1+|u|), 1/(1+|mu|)) on nodes x spectra."""
    rng = np.random.default_rng(seed)
    ratios, samples = [], []
    for c in _pacman_couplings(p, epsilon):
        gamma = build_keyhole(spectral_radius, c)
        mu = rng.uniform(-gamma.R / 2, gamma.R / 2, n_eigs)
        u = gamma.nodes[:, None]
        env = np.minimum(1.0 / (1.0 + np.abs(u)), 1.0 / (1.0 + np.abs(mu[None, :])))
        r = 1.0 / np.abs(u - mu[None, :]) / env
        k = np.unravel_index(np.argmax(r), r.shape)
        ratios.append(float(r[k]))
        samples.append(
            {"lam": complex(c.lam), "u": complex(gamma.nodes[k[0]]), "mu": float(mu[k[1]])}
        )
    return _fit_constant(np.array(ratios), samples.__getitem__, f"contour-resolvent p={p}")


def contour_factor_values(p: int, arg_lam: float, epsilon: float = DEFAULT_EPSILON,
                          moduli=FACTOR_SWEEP_MODULI,
                          spectral_radius: float = DEFAULT_SPECTRAL_RADIUS):
    """Quadrature values of the contour factor integral along one ray.

    I(lambda) = closed-contour integral of |g(u)| (1+|u|)^(-2-1/p) |du|.
    """
    values = []
    for mod in moduli:
        c = Coupling(lam=mod * np.exp(1j * arg_lam), epsilon=epsilon, p=p)
        gamma = build_keyhole(spectral_radius, c)
        g = np.asarray(eval_map("g", c, gamma.nodes))
        integrand = np.abs(g) * (1.0 + np.abs(gamma.nodes)) ** (-2.0 - 1.0 / p)
        values.append(float(np.sum(integrand * np.abs(gamma.dnodes))))
    return np.asarray(moduli, dtype=float), np.asarray(values)


def contour_factor_suite(p: int, epsilon: float = DEFAULT_EPSILON,
                         spectral_radius: float = DEFAULT_SPECTRAL_RADIUS) -> BoundReport:
    """I(lambda) <= C |lambda|^(1/4p^2) across moduli on each pacman ray."""
    expo = 1.0 / (4 * p * p)
    ratios, samples, slopes = [], [], []
    for arg in pacman_args(epsilon):
        moduli, values = contour_factor_values(
            p, arg, epsilon, spectral_radius=spectral_radius
        )
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
