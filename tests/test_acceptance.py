"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints one pass/fail line under pytest -v.  The bound-exponent
check is split out from the fitted-constant check.  It reads each claimed
exponent as the envelope inequality |Q| <= C |lambda|^a, so the measured
small-coupling slope must reach at least a; the measured slopes (about 1,
the Taylor order at fixed N) are recorded in ROADMAP.md.
"""

import numpy as np
import pytest

from loopvertex.action import (
    action_S,
    action_gradient,
    jacobian_check,
    sigma_contour,
    sigma_direct,
)
from loopvertex.contour import build_keyhole
from loopvertex.fusscatalan import (
    FussCatalanParams,
    fc_cut_distance,
    fc_eval_many,
)
from loopvertex.matrixcore import EnsembleSpec, eigh
from loopvertex.partition import free_energy, gaussian_moment_exact, z_direct, z_lvr
from loopvertex.scalarmaps import Coupling, eval_map, inverse_residual
from loopvertex.trees import (
    WeakeningVector,
    bkar_x_matrix,
    enumerate_trees,
    lve_truncated_F,
    tree_amplitude,
)

EPS = 0.2


def random_hermitian(n, beta, rng, scale=0.6):
    a = rng.standard_normal((n, n))
    if beta == 2:
        a = a + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def hermitian_basis(n, beta):
    basis = []
    for i in range(n):
        b = np.zeros((n, n), dtype=complex)
        b[i, i] = 1.0
        basis.append(b)
    for i in range(n):
        for j in range(i + 1, n):
            b = np.zeros((n, n), dtype=complex)
            b[i, j] = b[j, i] = 1.0 / np.sqrt(2)
            basis.append(b)
            if beta == 2:
                b = np.zeros((n, n), dtype=complex)
                b[i, j] = 1j / np.sqrt(2)
                b[j, i] = -1j / np.sqrt(2)
                basis.append(b)
    return basis


def test_criterion_01_generating_function_correctness():
    rng = np.random.default_rng(1)
    for p in range(2, 7):
        params = FussCatalanParams(p)
        radii = 10.0 ** rng.uniform(-2, 2, 10000)
        angles = rng.uniform(0.05, 2 * np.pi - 0.05, 10000)
        z = radii * np.exp(1j * angles)
        t = fc_eval_many(params, z)
        resid = np.abs(z * t**p - t + 1.0) / (1.0 + np.abs(z * t**p))
        assert np.max(resid) <= 1e-10, p
    z2 = 10.0 ** rng.uniform(-2, 2, 10000) * np.exp(
        1j * rng.uniform(0.05, 2 * np.pi - 0.05, 10000)
    )
    ref = (1.0 - np.sqrt(1.0 - 4.0 * z2)) / (2.0 * z2)
    assert np.max(np.abs(fc_eval_many(FussCatalanParams(2), z2) - ref)) <= 1e-10


def _on_principal_sheet(c, z, margin=0.05, n_path=400):
    # radial homotopy of the composed-map branch argument stays off the cut
    w = complex(c.lam) * complex(z) ** (2 * c.p - 2)
    bp = c.params.branch_point
    tw = np.linspace(0.0, 1.0, n_path) * w
    zp = -tw * (1.0 + tw) ** (c.p - 1)
    on_right = zp.real >= bp
    d_cut = np.where(on_right, np.abs(zp.imag), np.abs(zp - bp))
    return bool(np.min(d_cut) > margin and np.min(np.abs(1.0 + tw)) > margin)


def test_criterion_02_inverse_pair_identity():
    rng = np.random.default_rng(0)
    pts = 2.0 * (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
    pts = pts[np.abs(pts) <= 2.0]
    args = (0.0, np.pi / 2, -np.pi / 2, np.pi - 2 * EPS, -(np.pi - 2 * EPS))
    n_checked = 0
    for p in (2, 3):
        for mod in (1e-3, 1e-2, 1e-1):
            for arg in args:
                c = Coupling(lam=mod * np.exp(1j * arg), epsilon=EPS, p=p)
                clear = fc_cut_distance(c.params, complex(c.lam), pts) > 0.3
                kept = [z for z in pts[clear] if _on_principal_sheet(c, z)]
                for z in kept[:30]:
                    assert inverse_residual(c, complex(z)) <= 1e-9, (p, c.lam, z)
                    n_checked += 1
    assert n_checked > 500


def test_criterion_03_holomorphic_calculus():
    c = Coupling(lam=0.05, p=2)
    g = build_keyhole(2.0, c, n_nodes=2048)
    rng = np.random.default_rng(2)
    for a in rng.uniform(-0.4, 0.4, 50) * g.r:
        assert abs(g.cauchy(complex(a)) - 1.0) <= 1e-8
    for a in 2.0 * g.R * np.exp(1j * rng.uniform(0, 2 * np.pi, 50)):
        assert abs(g.cauchy(complex(a))) <= 1e-8
    from loopvertex.contour import holo_apply

    k = np.diag([0.5, -0.2])
    s = eigh(k)
    for m in (1, 2, 3):
        got = holo_apply(lambda u: u**m, g, s)
        assert np.max(np.abs(got - np.diag([0.5**m, (-0.2) ** m]))) <= 1e-8
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 4))
        s = eigh(random_hermitian(n, 2, rng))
        num = sigma_contour(c, g, s)
        ref = sigma_direct(c, s)
        assert np.max(np.abs(num - ref)) <= 1e-6
        checked += 1


def _matrix_h(c, k):
    s = eigh(k)
    vals = np.asarray(eval_map("h", c, s.eigenvalues.astype(complex)))
    v = s.eigenvectors
    return (v * vals[None, :]) @ v.conj().T


def _fd_jacobian_determinant(c, k, beta, step=1e-6):
    basis = hermitian_basis(k.shape[0], beta)
    cols = []
    for b in basis:
        d = (_matrix_h(c, k + step * b) - _matrix_h(c, k - step * b)) / (2 * step)
        cols.append([np.real(np.trace(d @ bb.conj().T)) for bb in basis])
    return np.linalg.det(np.array(cols).T)


def test_criterion_04_jacobian_determinant_identity():
    rng = np.random.default_rng(3)
    for p in (2, 3):
        for beta in (1, 2):
            c = Coupling(lam=0.15, p=p)
            for n in (1, 2, 3):
                k = random_hermitian(n, beta, rng)
                s = eigh(k)
                lhs = np.exp(action_S(c, EnsembleSpec(N=n, beta=beta), s).total)
                rhs = _fd_jacobian_determinant(c, k, beta)
                assert abs(lhs - rhs) / abs(rhs) <= 1e-5, (p, beta, n)


def test_criterion_05_pair_factor_positivity():
    rng = np.random.default_rng(4)
    total = 0
    for p in (2, 3, 4, 5):
        for _ in range(25):
            lam = float(10.0 ** rng.uniform(-3, 1))
            s_i = 3.0 * rng.standard_normal(1000)
            s_j = 3.0 * rng.standard_normal(1000)
            ok = jacobian_check(p, lam, np.stack([s_i, s_j], axis=-1))["overall_positive"]
            assert bool(np.all(ok)), (p, lam)
            total += ok.size
    assert total == 100000


def test_criterion_06_change_of_variables_identity():
    for p in (2, 3):
        for beta in (1, 2):
            for n in (1, 2, 3):
                for mod in (0.02, 0.1):
                    for theta in (0.0, 3 * np.pi / 4, -3 * np.pi / 4):
                        c = Coupling(lam=mod * np.exp(1j * theta), p=p)
                        spec = EnsembleSpec(N=n, beta=beta)
                        a = z_direct(c, spec)
                        b = z_lvr(c, spec)
                        rel = abs(a.value - b.value) / abs(a.value)
                        assert rel <= 1e-4, (p, beta, n, mod, theta)
    # Monte Carlo agreement at N = 4, real coupling
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=4, beta=2)
    a = z_direct(c, spec, method="monte_carlo", n_samples=100000, seed=6)
    b = z_lvr(c, spec, method="monte_carlo", n_samples=40000, seed=7)
    comb = np.hypot(a.error, b.error)
    assert abs(a.value - b.value) <= 3 * comb


def test_criterion_07_perturbative_slope():
    lams = np.array([1e-3, 5e-4, 2.5e-4])
    for p in (2, 3):
        for n in (1, 2):
            spec = EnsembleSpec(N=n, beta=2)
            ratios = [
                complex(free_energy(Coupling(lam=l, p=p), spec)).real / l
                for l in lams
            ]
            # quadratic fit in lambda; intercept extrapolates to 0
            slope = np.polyfit(lams, ratios, 2)[2]
            target = -float(gaussian_moment_exact(n, p, 2)) / n
            assert abs(slope - target) / abs(target) <= 0.01, (p, n)


@pytest.fixture(scope="module")
def bound_reports():
    from loopvertex.bounds import all_bound_suites

    return {p: all_bound_suites(p) for p in (2, 3)}


def test_criterion_08_bound_constants(bound_reports):
    for p, reports in bound_reports.items():
        assert len(reports) == 9
        for rep in reports:
            assert rep.holds, (p, rep.name)
            assert np.isfinite(rep.fitted_constant), (p, rep.name)


def test_criterion_08_bound_exponents(bound_reports):
    # measured log-log slopes against the small-coupling envelope
    # exponents: |Q| <= C |lambda|^a asks for slope >= a, not slope == a
    checks = [
        (p, rep) for p, reports in bound_reports.items()
        for rep in reports if rep.exponent_target is not None
    ]
    assert len(checks) == 6
    misses = [
        (p, rep.name, rep.exponent_target, rep.exponent_measured)
        for p, rep in checks
        if not rep.envelope_exponent_holds(0.15)
    ]
    assert not misses, misses


def _slope_with_stderr(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    dof = max(len(x) - 2, 1)
    se = np.sqrt(np.sum(resid**2) / dof / np.sum((x - x.mean()) ** 2))
    return float(coeffs[0]), float(se)


def test_criterion_09_pacman_boundedness_scan():
    mod = 0.05
    rows = []
    for arg in (0.0, np.pi / 2, -np.pi / 2, np.pi - 2 * EPS, -(np.pi - 2 * EPS)):
        c = Coupling(lam=mod * np.exp(1j * arg), epsilon=EPS, p=2)
        ns = range(1, 7)
        fs = []
        for n in ns:
            f = free_energy(c, EnsembleSpec(N=n, beta=2))
            fs.append(abs(f))
            rows.append((arg, n, abs(f)))
        slope, se = _slope_with_stderr(list(ns), fs)
        assert slope <= 2 * se, (arg, slope, se, fs)
    assert len(rows) == 5 * 6


def test_criterion_10_truncation_convergence():
    # the n = 3 term, (1/3!) times the three labeled 3-paths, gets its own
    # 2e4 samples per path: its error is about 1/40 of the n <= 2 sum's
    spec = EnsembleSpec(N=2, beta=2)
    gaps, gaps3, errs3 = [], [], []
    for i, lam in enumerate((0.05, 0.025, 0.0125)):
        c = Coupling(lam=lam, p=2)
        f = free_energy(c, spec)
        total, err = lve_truncated_F(
            c, spec, 2, {"n_w": 1000, "n_mc": 200, "seed": 20 + i}
        )
        paths = [
            tree_amplitude(c, spec, t, {"n_w": 1000, "n_mc": 20, "seed": 30 + 3 * i + k})
            for k, t in enumerate(enumerate_trees(3))
        ]
        third = sum(a.value for a in paths) / 6.0
        third_se = float(np.sqrt(sum(a.stderr**2 for a in paths))) / 6.0
        gaps.append(abs(f - total))
        gaps3.append(abs(f - total - third))
        errs3.append(float(np.hypot(err, third_se)))
    assert gaps[0] > gaps[1] > gaps[2], gaps
    # where the omitted n = 3 term stands well above the noise (about 10
    # and 6 standard errors at the two larger couplings), adding it shrinks
    # the gap; at the smallest it is about 3 and the n <= 3 sum closes F
    assert gaps3[0] < gaps[0] and gaps3[1] < gaps[1], (gaps3, gaps)
    assert gaps3[2] <= 3 * errs3[2], (gaps3[2], errs3[2])


def test_criterion_11_combinatorial_exactness():
    for n in range(1, 8):
        assert sum(1 for _ in enumerate_trees(n)) == n ** max(n - 2, 0)
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        for t in enumerate_trees(n):
            n_w = max(1000 // n**max(n - 2, 0), 1) + 2
            for _ in range(n_w):
                w = WeakeningVector({e: rng.uniform() for e in t.edges})
                x = bkar_x_matrix(t, w)
                assert np.linalg.eigvalsh(x).min() >= -1e-12


def test_criterion_12_gradient_check():
    rng = np.random.default_rng(9)
    step = 1e-5
    for _ in range(100):
        beta = int(rng.integers(1, 3))
        p = int(rng.integers(2, 4))
        n = 2
        spec = EnsembleSpec(N=n, beta=beta)
        c = Coupling(lam=float(rng.uniform(0.01, 0.15)), p=p)
        k = random_hermitian(n, beta, rng)
        g = action_gradient(c, spec, eigh(k))
        fd, an = [], []
        for b in hermitian_basis(n, beta):
            sp = action_S(c, spec, eigh(k + step * b)).total
            sm = action_S(c, spec, eigh(k - step * b)).total
            fd.append((sp - sm) / (2 * step))
            an.append(np.trace(g @ b))
        fd = np.array(fd)
        an = np.array(an)
        assert np.linalg.norm(fd - an) / np.linalg.norm(an) <= 1e-5
