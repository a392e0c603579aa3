"""The three benchmark workloads: seeded inputs, timed operations, checks.

A workload builds its inputs from the seed in ``setup``, which also
makes the first call into each layer it uses for each p (filling the
program's one-time caches).  ``ops`` are the timed operations of one
round, each a call through a public loopvertex function.  ``oracles``
computes the reference values apart from the program, outside the
timed region, and ``check`` compares one round's outputs against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import oracles
from loopvertex import (
    action,
    bounds,
    contour,
    fusscatalan,
    matrixcore,
    partition,
    scalarmaps,
    trees,
)

#: multiple of the combined standard error allowed between Monte Carlo
#: estimates of one quantity (two-sided normal tail about 6e-7)
MC_SIGMAS = 5.0
#: relative gap allowed between quadrature z_direct and z_lvr (criterion 06)
Z_PAIR_TOL = 1e-4
#: relative gap allowed between quadrature z_direct and the moment oracle
Z_ORACLE_TOL = 1e-8
#: relative gap allowed between F/lambda (or A/lambda) and -E[Tr H^2p]/N
SLOPE_TOL = 0.01
#: relative gap allowed between fc_eval_many and the series / p=2 closed form
FC_TOL = 1e-10
#: relative gap above which a near-cut value is on the wrong branch
NEAR_CUT_TOL = 1e-8
#: entrywise |(1 + sigma_contour) * resolvent_entries - 1| allowed
SIGMA_TOL = 1e-5
#: |slope - 1| allowed for the contour factor over its lowest decade
LOW_DECADE_SLOPE_TOL = 0.05
#: relative margin of the one-sided exponent envelope (criterion 08)
ENVELOPE_REL = 0.15


@dataclass
class Op:
    """One timed operation; ``may_fail`` marks the known near-cut points."""

    name: str
    call: Callable[[], Any]
    may_fail: bool = False


def rel_gap(a, b) -> float:
    return float(abs(a - b) / abs(b))


def mc_agree(a: complex, se_a: float, b: complex, se_b: float) -> bool:
    return abs(a - b) <= MC_SIGMAS * float(np.hypot(se_a, se_b))


def slope_ok(value: complex, lam: float, moment_over_n: float) -> bool:
    """value/lam against its first-order coefficient -E[Tr H^2p]/N."""
    return rel_gap(complex(value).real / lam, -moment_over_n) <= SLOPE_TOL


def report_constant_ok(report) -> bool:
    c = report.fitted_constant
    return bool(np.isfinite(c) and c > 0)


def log_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x, float)), np.log(np.asarray(y, float)), 1)[0])


def warm_layers(ps, keyhole: bool = False, ensemble: bool = False) -> None:
    """First call into each layer for each p; fills one-time caches."""
    for p in ps:
        fusscatalan.fc_eval_many(fusscatalan.FussCatalanParams(p),
                                 np.array([0.01, 2.0j]))
        c = scalarmaps.Coupling(lam=0.05, p=p)
        scalarmaps.eval_map("g", c, np.array([0.3 + 0.1j]))
        action.map_derivatives(c, np.array([0.3]))
        if keyhole:
            contour.build_keyhole(1.0, c)
    if ensemble:
        rng = np.random.default_rng(0)
        matrixcore.eigh(matrixcore.sample_gaussian(matrixcore.EnsembleSpec(N=2), rng))


def check_round(ops: list, results: dict, verdict_fn) -> tuple[list, list]:
    """Failed operations and the problems the workload's checks report."""
    failed, problems = [], []
    for op in ops:
        value = results[op.name]
        if isinstance(value, Exception):
            failed.append(op.name)
            if not op.may_fail:
                problems.append(f"{op.name}: raised {type(value).__name__}: {value}")
    ok = {k: v for k, v in results.items() if not isinstance(v, Exception)}
    more_failed, more_problems = verdict_fn(ok)
    return failed + more_failed, problems + more_problems


# ---------------------------------------------------------------------------
# quad-oracle


class QuadOracle:
    """Criterion-06 grid by quadrature plus F at small real lambda."""

    name = "quad-oracle"
    ps = (2, 3)
    betas = (1, 2)
    sizes = (1, 2, 3)
    moduli = (0.02, 0.1)
    angles = (0.0, 3 * np.pi / 4, -3 * np.pi / 4)
    #: free energy at lambda = 10^u, u uniform in this range, per (p, N)
    free_energy_log10 = (-4.3, -3.7)
    free_energy_sizes = (1, 2)

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        grid = [(p, b, n, m, a) for p in self.ps for b in self.betas
                for n in self.sizes for m in self.moduli for a in self.angles]
        self.grid = [grid[i] for i in rng.permutation(len(grid))]
        self.free = [(p, n, float(10 ** rng.uniform(*self.free_energy_log10)))
                     for p in self.ps for n in self.free_energy_sizes]
        warm_layers(self.ps)

    @staticmethod
    def coupling(p, mod, arg):
        return scalarmaps.Coupling(lam=mod * np.exp(1j * arg), p=p)

    def ops(self) -> list:
        out = []
        for p, b, n, m, a in self.grid:
            c = self.coupling(p, m, a)
            spec = matrixcore.EnsembleSpec(N=n, beta=b)
            key = f"p={p} beta={b} N={n} mod={m} arg={a:.4f}"
            out.append(Op(f"z_direct {key}",
                          lambda c=c, s=spec: partition.z_direct(c, s)))
            out.append(Op(f"z_lvr {key}", lambda c=c, s=spec: partition.z_lvr(c, s)))
        for p, n, lam in self.free:
            c = scalarmaps.Coupling(lam=lam, p=p)
            spec = matrixcore.EnsembleSpec(N=n, beta=2)
            out.append(Op(f"free_energy p={p} N={n}",
                          lambda c=c, s=spec: partition.free_energy(c, s)))
        return out

    def oracles(self) -> None:
        # N = 1 needs no beta; beta = 1 at N >= 2 has no moment oracle
        cases = {(p, n, m, a) for p, b, n, m, a in self.grid if n == 1 or b == 2}
        self.z_ref = {
            (p, n, m, a): oracles.z_ratio_moments(p, complex(self.coupling(p, m, a).lam), n)
            for p, n, m, a in cases
        }
        self.moment_ref = {
            (p, n): (oracles.gaussian_moment_n1(p) if n == 1
                     else float(partition.gaussian_moment_exact(n, p, 2)) / n)
            for p, n, _ in self.free
        }

    def verdict(self, results: dict):
        problems = []
        for p, b, n, m, a in self.grid:
            key = f"p={p} beta={b} N={n} mod={m} arg={a:.4f}"
            zd = results.get(f"z_direct {key}")
            zl = results.get(f"z_lvr {key}")
            if zd is None or zl is None:
                continue
            if rel_gap(zl.value, zd.value) > Z_PAIR_TOL:
                problems.append(f"{key}: z_lvr/z_direct gap {rel_gap(zl.value, zd.value):.2e}")
            ref = self.z_ref.get((p, n, m, a)) if n == 1 or b == 2 else None
            if ref is not None and rel_gap(zd.value, ref) > Z_ORACLE_TOL:
                problems.append(f"{key}: z_direct vs moment oracle {rel_gap(zd.value, ref):.2e}")
        for p, n, lam in self.free:
            f = results.get(f"free_energy p={p} N={n}")
            if f is not None and not slope_ok(f, lam, self.moment_ref[(p, n)]):
                problems.append(f"free_energy p={p} N={n}: F/lam = {complex(f).real / lam:.6g}")
        return [], problems


# ---------------------------------------------------------------------------
# bound-battery


def near_cut_points(p: int, count: int) -> np.ndarray:
    """Fixed points hugging the cut: |z| in 1..1e5, |arg z| in 1e-4..1e-1.

    Drawn from a generator of its own, independent of the run's seed, so
    every run evaluates the same points and fails on the same ones.
    """
    rng = np.random.default_rng([20191, p])
    radius = 10.0 ** rng.uniform(0.0, 5.0, count)
    angle = 10.0 ** rng.uniform(-4.0, -1.0, count) * rng.choice([-1.0, 1.0], count)
    return radius * np.exp(1j * angle)


class BoundBattery:
    """Each bound suite for p = 2, 3, one call at a time, plus near-cut points."""

    name = "bound-battery"
    ps = (2, 3)
    near_cut_ps = (2, 3, 4, 5, 6)
    near_cut_count = 20
    fc_decay_points = 10000
    resolvent_spectra = 20
    corner_spectra = 4
    corner_node_pairs = 12
    contour_resolvent_eigs = 200
    #: spectra per pacman coupling in the sigma check, uniform in
    #: +-spectral radius of the keyhole suites
    sigma_spectra = 2
    fc_sample_points = 4096

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng(self.seed)
        eps = bounds.DEFAULT_EPSILON
        self.args = tuple(bounds.pacman_args(eps))
        moduli = np.asarray(bounds.FACTOR_SWEEP_MODULI, dtype=float)
        self.low_decade = tuple(moduli[moduli <= 10.0 * moduli[0] * (1 + 1e-9)])
        self.small_lam = float(moduli[0])
        radius = bounds.DEFAULT_SPECTRAL_RADIUS
        self.sigma_cases = [
            (p, m, a, rng.uniform(-radius, radius, (self.sigma_spectra, 3)))
            for p in self.ps for m in bounds.PACMAN_MODULI for a in self.args
        ]
        self.fc_sample = {}
        for p in self.ps:
            radius = 10.0 ** rng.uniform(-2.0, 3.0, self.fc_sample_points)
            angle = rng.uniform(eps, 2 * np.pi - eps, self.fc_sample_points)
            self.fc_sample[p] = radius * np.exp(1j * angle)
        self.near_cut = {p: near_cut_points(p, self.near_cut_count)
                         for p in self.near_cut_ps}
        warm_layers(self.near_cut_ps, keyhole=True)

    def ops(self) -> list:
        s = self.seed
        out = []
        for p in self.ps:
            suites = [
                ("fc_decay_suite", lambda p=p: bounds.fc_decay_suite(
                    p, n_points=self.fc_decay_points, seed=s)),
                ("g_bound_suite", lambda p=p: bounds.g_bound_suite(p)),
                ("resolvent_bound_suite", lambda p=p: bounds.resolvent_bound_suite(
                    p, n_spectra=self.resolvent_spectra, seed=s)),
                ("corner_bound_suite", lambda p=p: bounds.corner_bound_suite(
                    p, n_spectra=self.corner_spectra,
                    n_node_pairs=self.corner_node_pairs, seed=s)),
                ("contour_resolvent_suite", lambda p=p: bounds.contour_resolvent_suite(
                    p, n_eigs=self.contour_resolvent_eigs, seed=s)),
                ("contour_factor_suite", lambda p=p: bounds.contour_factor_suite(p)),
                ("single_vertex_scaling_suite",
                 lambda p=p: bounds.single_vertex_scaling_suite(p)),
            ]
            out += [Op(f"{name} p={p}", fn) for name, fn in suites]
            out.append(Op(f"single_vertex_amplitude p={p}", lambda p=p: trees.single_vertex_amplitude(
                scalarmaps.Coupling(lam=self.small_lam, p=p), matrixcore.EnsembleSpec(N=2), 0)))
            for a in self.args:
                out.append(Op(f"contour_factor_values p={p} arg={a:.4f}",
                              lambda p=p, a=a: bounds.contour_factor_values(
                                  p, a, moduli=self.low_decade)))
            out.append(Op(f"fc_eval_many sample p={p}", lambda p=p: fusscatalan.fc_eval_many(
                fusscatalan.FussCatalanParams(p), self.fc_sample[p])))
        for p, m, a, spectra in self.sigma_cases:
            out.append(Op(f"sigma_resolvent p={p} mod={m} arg={a:.4f}",
                          lambda p=p, m=m, a=a, sp=spectra: self._sigma_resolvent(p, m, a, sp)))
        for p in self.near_cut_ps:
            params = fusscatalan.FussCatalanParams(p)
            for i, z in enumerate(self.near_cut[p]):
                out.append(Op(f"near_cut p={p} #{i}",
                              lambda params=params, z=z: fusscatalan.fc_eval_many(
                                  params, np.array([z])), may_fail=True))
        return out

    @staticmethod
    def _sigma_resolvent(p, mod, arg, spectra):
        """(1 + sigma_contour) * resolvent_entries for each spectrum."""
        c = scalarmaps.Coupling(lam=mod * np.exp(1j * arg), p=p)
        gamma = contour.build_keyhole(bounds.DEFAULT_SPECTRAL_RADIUS, c)
        out = []
        for mu in spectra:
            s_k = matrixcore.eigh(np.diag(mu))
            out.append((1.0 + action.sigma_contour(c, gamma, s_k))
                       * action.resolvent_entries(c, s_k).values)
        return out

    def oracles(self) -> None:
        self.near_cut_ref = {
            p: (oracles.fc_hyp2f1(p, z) if p in (2, 3)
                else oracles.fc_dense_continuation(p, z))
            for p, z in self.near_cut.items()
        }
        self.moment_ref = {p: float(partition.gaussian_moment_exact(2, p, 2)) / 2
                           for p in self.ps}
        self.series_ref = {}
        for p, z in self.fc_sample.items():
            inside = np.abs(z) <= 0.5 * oracles.branch_point(p)
            self.series_ref[p] = (inside, oracles.fc_series(p, z[inside]))
        self.catalan_ref = oracles.catalan_closed_form(self.fc_sample[2])

    def verdict(self, results: dict):
        failed, problems = [], []
        for name, value in results.items():
            reports = value if isinstance(value, tuple) else (value,)
            if not isinstance(reports[0], bounds.BoundReport):
                continue
            for rep in reports:
                if not report_constant_ok(rep):
                    problems.append(f"{name}: {rep.name} constant {rep.fitted_constant}")
                if not rep.envelope_exponent_holds(ENVELOPE_REL):
                    problems.append(f"{name}: {rep.name} slope {rep.exponent_measured:.3f} "
                                    f"below envelope {rep.exponent_target:.4f}")
        for p in self.ps:
            est = results.get(f"single_vertex_amplitude p={p}")
            if est is not None and not slope_ok(est.value, self.small_lam, self.moment_ref[p]):
                problems.append(f"single_vertex_amplitude p={p}: A/lam = "
                                f"{complex(est.value).real / self.small_lam:.6g}")
            for a in self.args:
                cf = results.get(f"contour_factor_values p={p} arg={a:.4f}")
                if cf is not None and abs(log_slope(*cf) - 1.0) > LOW_DECADE_SLOPE_TOL:
                    problems.append(f"contour factor p={p} arg={a:.4f}: lowest-decade "
                                    f"slope {log_slope(*cf):.3f}")
            t = results.get(f"fc_eval_many sample p={p}")
            if t is not None:
                inside, ref = self.series_ref[p]
                gap = np.max(np.abs(t[inside] - ref) / np.abs(ref), initial=0.0)
                if gap > FC_TOL:
                    problems.append(f"fc_eval_many p={p}: series gap {gap:.2e}")
                if p == 2:
                    gap = np.max(np.abs(t - self.catalan_ref) / np.abs(self.catalan_ref))
                    if gap > FC_TOL:
                        problems.append(f"fc_eval_many p=2: closed-form gap {gap:.2e}")
        for p, m, a, _ in self.sigma_cases:
            name = f"sigma_resolvent p={p} mod={m} arg={a:.4f}"
            products = results.get(name)
            if products is not None:
                defect = max(np.max(np.abs(x - 1.0)) for x in products)
                if defect > SIGMA_TOL:
                    problems.append(f"{name}: (1 + sigma) * resolvent defect {defect:.2e}")
        for p in self.near_cut_ps:
            for i, ref in enumerate(self.near_cut_ref[p]):
                name = f"near_cut p={p} #{i}"
                t = results.get(name)
                if t is not None and rel_gap(t[0], ref) > NEAR_CUT_TOL:
                    failed.append(name)
        return failed, problems


# ---------------------------------------------------------------------------
# mc-trees


class McTrees:
    """Monte Carlo Z at N = 3..6 and the tree expansion at N = 2 (p = 2)."""

    name = "mc-trees"
    p = 2
    mc_lam = 0.05
    mc_cases = ((3, 2), (4, 2), (5, 2), (6, 2), (4, 1))  # (N, beta)
    mc_direct_samples = 7_500
    mc_lvr_samples = 3_750
    tree_lam = 0.0125
    tree_n = 2
    amp2_params = {"n_w": 125, "n_mc": 100}
    amp3_params = {"n_w": 5, "n_mc": 10}

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        ss = np.random.SeedSequence(self.seed)
        self.seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(16)]
        self.trees3 = list(trees.enumerate_trees(3))
        self.tree2 = next(iter(trees.enumerate_trees(2)))
        warm_layers((self.p,), ensemble=True)

    def ops(self) -> list:
        c_mc = scalarmaps.Coupling(lam=self.mc_lam, p=self.p)
        c_t = scalarmaps.Coupling(lam=self.tree_lam, p=self.p)
        spec_t = matrixcore.EnsembleSpec(N=self.tree_n, beta=2)
        seeds = iter(self.seeds)
        out = []
        for n, b in self.mc_cases:
            spec = matrixcore.EnsembleSpec(N=n, beta=b)
            sd, sl = next(seeds), next(seeds)
            out.append(Op(f"mc z_direct N={n} beta={b}", lambda s=spec, sd=sd: partition.z_direct(
                c_mc, s, method="monte_carlo", n_samples=self.mc_direct_samples, seed=sd)))
            out.append(Op(f"mc z_lvr N={n} beta={b}", lambda s=spec, sl=sl: partition.z_lvr(
                c_mc, s, method="monte_carlo", n_samples=self.mc_lvr_samples, seed=sl)))
        out.append(Op("quad z_direct N=3", lambda: partition.z_direct(
            c_mc, matrixcore.EnsembleSpec(N=3, beta=2))))
        s2 = next(seeds)
        out.append(Op("tree_amplitude n=2", lambda: trees.tree_amplitude(
            c_t, spec_t, self.tree2, {**self.amp2_params, "seed": s2})))
        for t in self.trees3:
            s3 = next(seeds)
            out.append(Op(f"tree_amplitude n=3 {t.edges}", lambda t=t, s3=s3: trees.tree_amplitude(
                c_t, spec_t, t, {**self.amp3_params, "seed": s3})))
        sl = next(seeds)
        out.append(Op("lve_truncated_F n_max=2", lambda: trees.lve_truncated_F(
            c_t, spec_t, 2, {**self.amp2_params, "seed": sl})))
        out.append(Op("single_vertex_amplitude", lambda: trees.single_vertex_amplitude(
            c_t, spec_t, 0)))
        out.append(Op("free_energy", lambda: partition.free_energy(c_t, spec_t)))
        return out

    def oracles(self) -> None:
        """Every mc-trees check compares program outputs with each other."""

    def verdict(self, results: dict):
        problems = []
        for n, b in self.mc_cases:
            d = results.get(f"mc z_direct N={n} beta={b}")
            l = results.get(f"mc z_lvr N={n} beta={b}")
            if d is not None and l is not None and not mc_agree(d.value, d.error, l.value, l.error):
                problems.append(f"mc N={n} beta={b}: z_direct {d.value:.6f} "
                                f"vs z_lvr {l.value:.6f}")
        d = results.get("mc z_direct N=3 beta=2")
        q = results.get("quad z_direct N=3")
        if d is not None and q is not None and not mc_agree(d.value, d.error, q.value, 0.0):
            problems.append(f"N=3: mc z_direct {d.value:.6f} vs quadrature {q.value:.6f}")
        amp3 = [results.get(f"tree_amplitude n=3 {t.edges}") for t in self.trees3]
        if all(a is not None for a in amp3):
            for i in range(len(amp3)):
                for j in range(i + 1, len(amp3)):
                    a, b = amp3[i], amp3[j]
                    if not mc_agree(a.value, a.stderr, b.value, b.stderr):
                        problems.append(f"n=3 paths {i} and {j} disagree: "
                                        f"{a.value:.4g} vs {b.value:.4g}")
        lve = results.get("lve_truncated_F n_max=2")
        f = results.get("free_energy")
        a_empty = results.get("single_vertex_amplitude")
        amp2 = results.get("tree_amplitude n=2")
        if lve is not None and f is not None and all(a is not None for a in amp3):
            # the n = 3 term, (1/3!) times the sum over the three labeled
            # paths, is about -4e-7 here: 0.75 standard errors of lve at
            # 1.25e4 samples and 3 at criterion 10's 2e5, so the check adds it
            third = sum(a.value for a in amp3) / 6.0
            third_se = float(np.sqrt(sum(a.stderr**2 for a in amp3))) / 6.0
            if not mc_agree(f, 0.0, lve[0] + third, float(np.hypot(lve[1], third_se))):
                problems.append(f"F = {complex(f).real:.9f} vs lve + n=3 term "
                                f"{complex(lve[0] + third).real:.9f}")
        if lve is not None and a_empty is not None and amp2 is not None:
            implied = 2.0 * (lve[0] - a_empty.value)
            if not mc_agree(amp2.value, amp2.stderr, implied, 2.0 * lve[1]):
                problems.append(f"n=2 amplitude {amp2.value:.6g} vs lve-implied {implied:.6g}")
        return [], problems


WORKLOADS = {w.name: w for w in (QuadOracle, BoundBattery, McTrees)}
