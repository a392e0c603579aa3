import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopvertex import action, partition
from loopvertex.bounds import PACMAN_MODULI, pacman_args
from loopvertex.fusscatalan import fc_eval_many
from loopvertex.errors import (
    LogBranchAmbiguityError,
    OutOfRangeError,
    QuadratureUnderResolvedError,
    VarianceBlowupError,
)
from loopvertex.matrixcore import (
    EnsembleSpec,
    covariances,
    sample_tridiagonal_batch,
    spawn_streams,
)
from loopvertex.partition import (
    free_energy,
    gaussian_moment_exact,
    topological_free_energy,
    z_direct,
    z_lvr,
)
from loopvertex.scalarmaps import Coupling


def test_moment_oracle_trivial_cases():
    for beta in (1, 2):
        for n in (1, 2, 3):
            assert gaussian_moment_exact(n, 0, beta) == n


def test_moment_oracle_matches_covariance_wick():
    # E[Tr H^2] = N^2 * straight + N * twist, one Wick pair
    for beta in (1, 2):
        for n in (1, 2, 4):
            straight, twist = covariances(EnsembleSpec(N=n, beta=beta))
            got = gaussian_moment_exact(n, 1, beta)
            assert got == Fraction(n * n * Fraction(straight).limit_denominator()
                                   + n * Fraction(twist).limit_denominator())


def test_moment_oracle_frozen_values():
    assert gaussian_moment_exact(1, 2, 2) == Fraction(3, 4)
    assert gaussian_moment_exact(2, 2, 2) == Fraction(9, 8)
    assert gaussian_moment_exact(3, 2, 2) == Fraction(19, 12)
    assert gaussian_moment_exact(2, 2, 1) == Fraction(23, 32)
    assert gaussian_moment_exact(3, 3, 2) == Fraction(55, 24)


def test_moment_oracle_matches_mc():
    from loopvertex.matrixcore import sample_gaussian_batch

    rng = np.random.default_rng(9)
    for beta in (1, 2):
        spec = EnsembleSpec(N=3, beta=beta)
        h = sample_gaussian_batch(spec, rng, 200000)
        h2 = np.einsum("bij,bjk->bik", h, h)
        tr4 = np.einsum("bij,bji->b", h2, h2).real.mean()
        assert tr4 == pytest.approx(float(gaussian_moment_exact(3, 2, beta)), rel=0.03)


def test_moment_oracle_range_guard():
    with pytest.raises(OutOfRangeError):
        gaussian_moment_exact(1, 99)
    with pytest.raises(OutOfRangeError):
        gaussian_moment_exact(99, 1)


def test_z_direct_scalar_reference():
    # N = 1: a single one-dimensional integral
    c = Coupling(lam=0.2, p=2)
    spec = EnsembleSpec(N=1, beta=2)
    est = z_direct(c, spec)
    straight, twist = covariances(spec)
    nodes, wts = np.polynomial.hermite_e.hermegauss(201)
    xs = nodes * np.sqrt(straight + twist)
    ref = np.sum(wts * np.exp(-0.2 * xs**4)) / np.sum(wts)
    assert est.value == pytest.approx(ref, rel=1e-8)
    assert est.error <= 1e-6


def test_z_zero_coupling():
    spec = EnsembleSpec(N=2, beta=2)
    assert z_direct(Coupling(lam=0.0, p=2), spec).value == 1.0
    assert z_lvr(Coupling(lam=0.0, p=2), spec).value == 1.0


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_change_of_variables_identity_quadrature(beta, n):
    c = Coupling(lam=0.08, p=2)
    spec = EnsembleSpec(N=n, beta=beta)
    a = z_direct(c, spec)
    b = z_lvr(c, spec)
    assert abs(a.value - b.value) / abs(a.value) <= 1e-4


def test_change_of_variables_identity_complex_coupling():
    c = Coupling(lam=0.05 * np.exp(1.8j), p=3)
    spec = EnsembleSpec(N=2, beta=2)
    a = z_direct(c, spec)
    b = z_lvr(c, spec)
    assert abs(a.value - b.value) / abs(a.value) <= 1e-4


def test_real_line_identity_to_roundoff():
    # real-coupling rows of the criterion-06 grid, all on the zeta = 0 line
    for p in (2, 3):
        for beta in (1, 2):
            for n in (1, 2, 3):
                for mod in (0.02, 0.1):
                    c = Coupling(lam=mod, p=p)
                    spec = EnsembleSpec(N=n, beta=beta)
                    a = z_direct(c, spec).value
                    b = z_lvr(c, spec).value
                    assert abs(a - b) / abs(a) <= 1e-10, (p, beta, n, mod)


@settings(max_examples=25, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    beta=st.sampled_from([1, 2]),
    n=st.sampled_from([1, 2, 3]),
    mod=st.floats(1e-3, 0.2),
    arg=st.one_of(st.just(0.0), st.floats(-(np.pi - 0.3), np.pi - 0.3)),
)
def test_change_of_variables_identity_property(p, beta, n, mod, arg):
    c = Coupling(lam=mod * np.exp(1j * arg), p=p)
    spec = EnsembleSpec(N=n, beta=beta)
    a = z_direct(c, spec).value
    b = z_lvr(c, spec).value
    assert abs(a - b) / abs(a) <= 1e-9


def test_z_direct_against_hermite_tensor_sum():
    # beta = 2, N = 2: Z(lam)/Z(0) as a 2-D Gauss-Hermite sum against
    # exp(-2 (mu1^2 + mu2^2)) with the Vandermonde weight (mu1 - mu2)^2
    x, w = np.polynomial.hermite.hermgauss(200)
    mu1, mu2 = x[:, None] / np.sqrt(2.0), x[None, :] / np.sqrt(2.0)
    dens = w[:, None] * w[None, :] * (mu1 - mu2) ** 2
    for p in (2, 3):
        lam = 0.1
        boltz = np.exp(-2.0 * lam * (mu1 ** (2 * p) + mu2 ** (2 * p)))
        ref = np.sum(dens * boltz) / np.sum(dens)
        est = z_direct(Coupling(lam=lam, p=p), EnsembleSpec(N=2, beta=2))
        assert est.value == pytest.approx(ref, rel=1e-10), p


def test_panel_rule_and_integration_matrix():
    x, w = np.polynomial.legendre.leggauss(16)
    assert partition.GL_ORDER == 16
    assert np.array_equal(partition._GL_X, x)
    assert np.array_equal(partition._GL_W, w)
    s = partition._GL_S
    assert s.shape == (16, 16)
    # S integrates every degree-15 polynomial from -1 to each node
    for k in range(16):
        exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
        assert np.max(np.abs(s @ x**k - exact)) <= 1e-14, k
    # integrals over [-1, x_j] and the mirrored [x_j, 1] add up to the
    # weights: integral_{-1}^{1} l_k = w_k
    assert np.max(np.abs(s + s[::-1, ::-1] - w)) <= 1e-15


# (p, beta, N, |lam|, arg lam / pi, z_direct, z_lvr) from the former
# legfit/legint/legval panel integrals; beta = 1, N >= 2 is the Pfaffian
# path; z_lvr runs on the real line, z_direct on a rotated line at arg 0.75
# and -0.75
_Z_PINNED = [
    (2, 1, 2, 0.1, 0.0, 0.8877973530465473 + 0j, 0.8877973530465468 + 0j),
    (2, 1, 3, 0.1, 0.0, 0.8164895016965388 + 0j, 0.8164895016965379 + 0j),
    (2, 1, 2, 0.1, 0.75, 1.0744544902799729 - 0.14889909699741083j,
     1.0744544902799742 - 0.14889909699741127j),
    (2, 1, 3, 0.1, 0.75, 1.130121947452236 - 0.25161834754711826j,
     1.1301219474522328 - 0.2516183475471207j),
    (2, 2, 2, 0.1, 0.0, 0.8336197815989318 + 0j, 0.8336197815989312 + 0j),
    (2, 2, 3, 0.1, 0.75, 1.1693510310004755 - 0.5803984919943375j,
     1.1693510310004702 - 0.5803984919943199j),
    (3, 1, 3, 0.02, -0.75, 1.034019594060766 + 0.049778382562002677j,
     1.0340195940607657 + 0.04977838256200252j),
    (3, 2, 2, 0.02, 0.0, 0.9419478686664093 + 0j, 0.9419478686664088 + 0j),
]


@pytest.mark.parametrize("p, beta, n, mod, turn, direct, lvr", _Z_PINNED)
def test_z_quadrature_values_pinned(p, beta, n, mod, turn, direct, lvr):
    c = Coupling(lam=mod * np.exp(1j * np.pi * turn), p=p)
    spec = EnsembleSpec(N=n, beta=beta)
    for est, ref in ((z_direct(c, spec), direct), (z_lvr(c, spec), lvr)):
        assert abs(est.value - ref) <= 1e-12 * abs(ref)
        assert est.n_points == partition.GL_ORDER * 32


def test_stall_error_names_stage_input_and_gap(monkeypatch):
    c = Coupling(lam=0.1, p=3)
    spec = EnsembleSpec(N=2, beta=1)
    monkeypatch.setattr(partition, "PANELS_CAP", partition.PANELS_START)
    with pytest.raises(QuadratureUnderResolvedError) as exc:
        z_direct(c, spec)
    msg = str(exc.value)
    for field in ("z_direct quadrature", "lam=0.1+0j", "p=3", "N=2", "beta=1",
                  "last gap none"):
        assert field in msg, (field, msg)
    # one doubling that does not settle reports the gap it measured
    with pytest.raises(QuadratureUnderResolvedError, match=r"last gap 1\.000e\+00"):
        partition._doubling(float, 1, 2, "probe", c, spec)
    # a non-finite level never settles and is named as such
    with pytest.raises(QuadratureUnderResolvedError, match="a level is not finite"):
        partition._doubling(lambda m: complex("nan"), 1, 2, "probe", c, spec)


@pytest.mark.parametrize("estimator, lam, n, beta", [
    # det overflowed, every level was nan, and complex abs raised OverflowError
    (z_direct, 0.05 * np.exp(1j * (np.pi - 0.4)), 48, 2),
    # the Pfaffian ratio overflowed with RuntimeWarnings before the stall
    (z_direct, 0.05, 64, 1),
    # the ratio underflowed to 0 at every level, and two zeros "agreed"
    (z_direct, 0.05 * np.exp(1j * (np.pi - 0.4)), 64, 2),
    (z_direct, 0.05 * np.exp(-1j * (np.pi - 0.4)), 64, 2),
    (z_direct, 0.05 * np.exp(1j * (np.pi - 0.4)), 96, 2),
    (z_direct, 0.05 * np.exp(-1j * (np.pi - 0.4)), 96, 2),
    # exp of the log ratio overflowed with a RuntimeWarning before the stall
    (z_lvr, 0.2 * np.exp(1j * (np.pi - 0.4)), 96, 2),
    (z_lvr, 0.5 * np.exp(1j * (np.pi - 0.4)), 96, 2),
], ids=["beta2-N48-rotated", "beta1-N64-real", "beta2-N64-zero+",
        "beta2-N64-zero-", "beta2-N96-zero+", "beta2-N96-zero-",
        "lvr-beta2-N96-0.2", "lvr-beta2-N96-0.5"])
def test_large_n_stall_raises_typed_error_without_warnings(estimator, lam, n, beta):
    c = Coupling(lam=lam, p=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureUnderResolvedError) as exc:
            estimator(c, EnsembleSpec(N=n, beta=beta))
    msg = str(exc.value)
    for field in (f"lam={complex(c.lam):.6g}", f"N={n}", f"beta={beta}"):
        assert field in msg, (field, msg)


@pytest.mark.parametrize("arg", [np.pi - 0.4, -(np.pi - 0.4)])
def test_stall_names_the_gaussian_basis_defect(arg):
    # the rotated Hermite rows are far from orthonormal here: the stall
    # reports max|exp(i zeta) G_gauss - I| of its last level
    c = Coupling(lam=0.05 * np.exp(1j * arg), p=2)
    with pytest.raises(QuadratureUnderResolvedError) as exc:
        z_direct(c, EnsembleSpec(N=64, beta=2))
    found = re.search(r"Gaussian basis defect max\|exp\(i zeta\) G - I\| = (\S+) at 512 panels",
                      str(exc.value))
    assert found, str(exc.value)
    assert float(found.group(1)) > 1.0


def test_gaussian_level_defect_small_where_the_engine_converges():
    # tilted lines of the criterion-06 grid: the basis is exact to round-off
    for n in (1, 2, 3):
        for zeta in (3 * np.pi / 16, -3 * np.pi / 16, np.pi / 8):
            for n_panels in (16, 32):
                level = partition._line_level(EnsembleSpec(N=n), zeta, n_panels)
                assert level.defect <= 1e-12, (n, zeta, n_panels)
    assert partition._line_level(EnsembleSpec(N=2, beta=1), 0.3, 16).defect is None


def test_first_two_levels_share_one_map_call(monkeypatch):
    calls = []
    fc_eval_many = action.fc_eval_many

    def spy(params, z):
        calls.append(np.size(z))
        return fc_eval_many(params, z)

    monkeypatch.setattr(action, "fc_eval_many", spy)
    c = Coupling(lam=0.1 * np.exp(0.75j * np.pi), p=2)
    est = z_lvr(c, EnsembleSpec(N=3, beta=2))
    assert est.n_points == partition.GL_ORDER * 32
    assert calls == [partition.GL_ORDER * (16 + 32)]
    # a level beyond the second is one call of its own
    calls.clear()
    monkeypatch.setattr(partition, "QUAD_REL_TOL", 1e-300)
    with pytest.raises(QuadratureUnderResolvedError):
        z_lvr(c, EnsembleSpec(N=3, beta=2))
    assert calls == [partition.GL_ORDER * m for m in (16 + 32, 64, 128, 256, 512)]


def test_gaussian_level_cached_read_only(monkeypatch):
    spec = EnsembleSpec(N=3, beta=2)
    partition._gaussian_level.cache_clear()
    first = partition._line_level(spec, 0.0, 16)
    for a in (first.mu, first.weights, first.gauss):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0.0
    assert partition._line_level(spec, 0.0, 16) is first
    assert partition._gaussian_level.cache_info().hits == 1
    monkeypatch.setattr(partition, "HALF_WIDTH_SIGMAS", 10.0)
    wider = partition._line_level(spec, 0.0, 16)
    assert partition._gaussian_level.cache_info().misses == 2
    assert wider.mu[-1].real > first.mu[-1].real


def test_mc_values_pinned_at_fixed_seeds():
    # one tridiagonal sampling stream per call; these are the values it
    # gives.  The dense sampler gave the old pins on the same seeds: a new
    # stream of the same law stays within 3 combined standard errors of
    # them, and within 3 of the quadrature Z
    cases = [
        (z_direct, EnsembleSpec(N=3, beta=2), 20000, 11,
         (0.6760555620527732, 0.0015431247910404039),
         (0.6738932327531165, 0.0015515693460670908)),
        (z_lvr, EnsembleSpec(N=3, beta=1), 5000, 12,
         (0.8167165930434701, 0.0012003533192562574),
         (0.8167604119847671, 0.0012012372452311056)),
    ]
    c = Coupling(lam=0.1, p=2)
    for estimator, spec, n_samples, seed, (value, error), (old, old_error) in cases:
        est = estimator(c, spec, method="monte_carlo", n_samples=n_samples, seed=seed)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.error == pytest.approx(error, rel=1e-9)
        assert abs(est.value - old) <= 3 * np.hypot(est.error, old_error)
        assert abs(est.value - z_direct(c, spec).value) <= 3 * est.error


def test_mc_agrees_with_quadrature():
    c = Coupling(lam=0.1, p=2)
    spec = EnsembleSpec(N=2, beta=2)
    ref = z_direct(c, spec).value
    est = z_direct(c, spec, method="monte_carlo", n_samples=200000, seed=1)
    assert abs(est.value - ref) <= 4 * est.error
    est_l = z_lvr(c, spec, method="monte_carlo", n_samples=50000, seed=2)
    assert abs(est_l.value - ref) <= 4 * est_l.error


@pytest.mark.parametrize("n, beta", [(16, 2), (24, 2), (8, 1)])
def test_mc_meets_quadrature_at_large_n(n, beta):
    # the tridiagonal draws keep Monte Carlo an independent witness at
    # the N where the determinantal engine works
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=n, beta=beta)
    est = z_direct(c, spec, method="monte_carlo", n_samples=20000, seed=n)
    assert abs(est.value - z_direct(c, spec).value) <= 4 * est.error


@pytest.mark.parametrize("estimator", [z_direct, z_lvr])
@pytest.mark.parametrize("n_samples", [0, 1, -3])
def test_mc_needs_two_samples(estimator, n_samples):
    with pytest.raises(
        OutOfRangeError,
        match=rf"got n_samples={n_samples} \(lam=0\.05\+0j, p=2, N=3, beta=1\)$",
    ):
        estimator(Coupling(lam=0.05, p=2), EnsembleSpec(N=3, beta=1),
                  method="monte_carlo", n_samples=n_samples, seed=0)


def test_mc_large_n_runs():
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=6, beta=2)
    est = z_direct(c, spec, method="monte_carlo", n_samples=40000, seed=3)
    assert est.error < 0.05 * abs(est.value)


def test_small_coupling_slope_matches_moment():
    # Z = 1 - lam * N * E[Tr H^2p] + O(lam^2)
    spec = EnsembleSpec(N=1, beta=2)
    moment = float(gaussian_moment_exact(1, 2, 2))  # 3/4
    lam = 1e-5
    z = z_direct(Coupling(lam=lam, p=2), spec).value
    assert (1.0 - z.real) / lam == pytest.approx(moment, rel=1e-3)
    spec3 = EnsembleSpec(N=2, beta=1)
    m3 = float(gaussian_moment_exact(2, 3, 1))
    z3 = z_direct(Coupling(lam=lam, p=3), spec3).value
    assert (1.0 - z3.real) / lam == pytest.approx(2 * m3, rel=1e-3)


def test_free_energy_value_and_guard():
    c = Coupling(lam=0.2, p=2)
    spec = EnsembleSpec(N=1, beta=2)
    f = free_energy(c, spec)
    assert f == pytest.approx(complex(np.log(z_direct(c, spec).value)), rel=1e-10)
    with pytest.raises(
        VarianceBlowupError,
        match=r"relative standard error \d+\.\d+% exceeds 10% \(lam=0\.45\+0j, "
        r"p=3, N=5, beta=2, n_samples=200\)",
    ):
        z_direct(
            Coupling(lam=0.45, p=3), EnsembleSpec(N=5, beta=2),
            method="monte_carlo", n_samples=200, seed=0,
        )


@pytest.mark.parametrize("estimator", [z_direct, z_lvr])
def test_mc_rejects_complex_coupling(estimator):
    with pytest.raises(OutOfRangeError, match=r"got lam=0\.05\+0\.02j$"):
        estimator(Coupling(lam=0.05 + 0.02j, p=2), EnsembleSpec(N=2, beta=2),
                  method="monte_carlo", n_samples=100, seed=0)


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_mc_direct_integrand_equals_eigenvalue_sum(beta, p):
    # Tr(T^p T^p) from matmuls against sum(lambda^2p) on the same draws
    lam, n, n_samples, seed = 0.05, 3, 4000, 40 + p
    spec = EnsembleSpec(N=n, beta=beta)
    est = z_direct(Coupling(lam=lam, p=p), spec, method="monte_carlo",
                   n_samples=n_samples, seed=seed)
    rng = spawn_streams(seed, 1)[0]
    eigs = np.linalg.eigvalsh(sample_tridiagonal_batch(spec, rng, n_samples))
    vals = np.exp(-n * lam * np.sum(eigs ** (2 * p), axis=-1))
    assert est.value.real == pytest.approx(np.mean(vals), rel=1e-13)
    assert est.error == pytest.approx(np.std(vals) / np.sqrt(n_samples), rel=1e-11)


@pytest.mark.parametrize("beta, sizes", [(2, range(1, 9)), (1, (4, 5, 8))])
def test_change_of_variables_identity_beyond_n3(beta, sizes):
    # every pacman coupling at p = 2, and |lam| = 0.05 on the same arguments
    couplings = [
        Coupling(lam=mod * np.exp(1j * arg), p=2)
        for mod in PACMAN_MODULI + (0.05,)
        for arg in pacman_args(0.2)
    ]
    for n in sizes:
        spec = EnsembleSpec(N=n, beta=beta)
        for c in couplings:
            a = z_direct(c, spec).value
            b = z_lvr(c, spec).value
            assert abs(a - b) / abs(a) <= 1e-4, (n, c.lam)


def test_unresolved_lines_raise_naming_their_input():
    # beyond the engine's reach a doubling stalls; it never returns a value
    cases = [
        (z_direct, Coupling(lam=0.05 * np.exp(1j * (np.pi - 0.4)), p=2), 16, 2),
        (z_lvr, Coupling(lam=0.2 * np.exp(1j * (np.pi - 0.4)), p=2), 64, 2),
        (z_direct, Coupling(lam=0.05, p=2), 32, 1),
    ]
    for fn, c, n, beta in cases:
        with pytest.raises(QuadratureUnderResolvedError, match=f"N={n}, beta={beta}"):
            fn(c, EnsembleSpec(N=n, beta=beta))


@pytest.mark.parametrize("arg", [1.2, np.pi / 2, np.pi - 0.4])
def test_lvr_real_line_reaches_n96_off_the_axis(arg):
    # the change of variables keeps the Gaussian weight whatever lam is;
    # at arg 1.2 z_direct is on the real line too
    c = Coupling(lam=0.05 * np.exp(1j * arg), p=2)
    for n in (16, 32, 64, 96):
        b = z_lvr(c, EnsembleSpec(N=n, beta=2)).value
        if arg == 1.2 and n <= 64:
            a = z_direct(c, EnsembleSpec(N=n, beta=2)).value
            assert abs(a - b) / abs(a) <= 1e-8, n


def _hankel_z_ratio(lam, n):
    """Z(lam, N)/Z(0, N) at p = 2, beta = 2 in mpmath at 30 + 2N digits.

    Andreief's identity makes Z a Hankel determinant of the moments of
    exp(-N x^2 - b x^4), b = N lam; the 2k-th moment is
    integral_0^inf s^(nu-1) exp(-N s - b s^2) ds, nu = k + 1/2, which is
    (2b)^(-nu/2) Gamma(nu) exp(N^2/(8b)) D_(-nu)(N/sqrt(2b)) (DLMF 12.5.1),
    analytic in b off the negative axis, so it continues Z to the sector.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30 + 2 * n):
        big_n = mpmath.mpf(n)

        def moment(k, b):
            nu = k + mpmath.mpf(1) / 2
            if b == 0:
                return mpmath.gamma(nu) / big_n**nu
            return ((2 * b) ** (-nu / 2) * mpmath.gamma(nu)
                    * mpmath.exp(big_n**2 / (8 * b))
                    * mpmath.pcfd(-nu, big_n / mpmath.sqrt(2 * b)))

        def hankel_det(b):
            m = [moment(k // 2, b) if k % 2 == 0 else 0 for k in range(2 * n - 1)]
            return mpmath.det(mpmath.matrix(
                [[m[i + j] for j in range(n)] for i in range(n)]))

        return complex(hankel_det(big_n * mpmath.mpc(lam.real, lam.imag))
                       / hankel_det(0))


@pytest.mark.parametrize("n", [16, 24])
def test_lvr_real_line_meets_hankel_oracle_near_sector_edge(n):
    lam = 0.05 * np.exp(1j * (np.pi - 0.4))
    ref = _hankel_z_ratio(lam, n)
    got = z_lvr(Coupling(lam=lam, p=2), EnsembleSpec(N=n, beta=2)).value
    assert abs(got - ref) <= 1e-9 * abs(ref)


def _planar_free_energy(lam):
    # Brezin-Itzykson-Parisi-Zuber (1978) for exp(-N Tr(H^2 + lam H^4)):
    # a^2 = T_2(-3 lam), F = -[(a^2 - 1)(9 - a^2)/24 - log(a^2)/2]
    a2 = (np.sqrt(1 + 12 * lam + 0j) - 1) / (6 * lam)
    return -((a2 - 1) * (9 - a2) / 24 - 0.5 * np.log(a2))


def test_free_energy_meets_planar_limit_real_coupling():
    lam = 0.05
    scaled = {
        n: n**2 * (free_energy(Coupling(lam=lam, p=2), EnsembleSpec(N=n))
                   - _planar_free_energy(lam))
        for n in (8, 16, 32)
    }
    for n in (8, 32):
        assert abs(scaled[n] - scaled[16]) <= 0.05 * abs(scaled[16]), scaled


def test_free_energy_meets_planar_limit_complex_coupling():
    # the principal log of Z puts Im F on the wrong sheet here (+0.0032
    # instead of -0.0213 at N = 16); the log-derivative integral does not
    lam = 0.05 * np.exp(1.2j)
    scaled = {
        n: n**2 * abs(free_energy(Coupling(lam=lam, p=2), EnsembleSpec(N=n))
                      - _planar_free_energy(lam))
        for n in (16, 32, 48)
    }
    for n in (32, 48):
        assert abs(scaled[n] - scaled[16]) <= 0.05 * scaled[16], scaled


@pytest.mark.parametrize("n", [6, 8])
def test_free_energy_continuous_along_the_coupling_ray(n):
    # F must stay on one sheet as |lambda| grows along a fixed direction:
    # a jump of 2 pi / N^2 is a wrong branch.  Summing the principal logs
    # of the per-k ratios h_k(lam)/h_k(0) jumps by about that much here
    # (largest steps 0.165 at N = 6 and 0.087 at N = 8).
    direction = 0.5 * np.exp(1j * (np.pi - 0.4))
    f = np.array([
        free_energy(Coupling(lam=t * direction, p=2), EnsembleSpec(N=n, beta=2))
        for t in np.linspace(0.05, 1.0, 20)
    ])
    assert np.max(np.abs(np.diff(f))) < np.pi / n**2


def _z_on_tilted_line(lam, p):
    """Z(lam, 1)/Z(0, 1) in mpmath, on the line z_direct integrates along."""
    mpmath = pytest.importorskip("mpmath")
    phi = partition._tilt_angle(lam, p)
    rot = mpmath.exp(1j * phi)
    lam = mpmath.mpc(lam.real, lam.imag)
    val = mpmath.quad(lambda t: mpmath.exp(-(rot * t) ** 2 - lam * (rot * t) ** (2 * p)),
                      [-mpmath.inf, 0, mpmath.inf])
    return complex(rot * val / mpmath.sqrt(mpmath.pi))


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("p, lam", [
    (4, 0.5 * np.exp(2.5j)),
    (4, 0.5 * np.exp(1j * (np.pi - 0.2))),
    (5, 0.1),
    (6, 0.01),
])
def test_free_energy_is_log_z_at_n1_up_to_p6(p, lam, beta):
    # an integral of the log-derivative over the coupling ray stalled on
    # each of these inputs, while z_direct converged
    c, spec = Coupling(lam=lam, p=p), EnsembleSpec(N=1, beta=beta)
    f = free_energy(c, spec)
    sheets = (f - np.log(z_direct(c, spec).value)) / (2j * np.pi)
    assert abs(sheets - round(sheets.real)) <= 1e-10
    if beta == 2:
        assert abs(f - np.log(_z_on_tilted_line(lam, p))) <= 1e-8


@pytest.mark.parametrize("lam", [0.05, 0.3, 0.05 * np.exp(1.2j), 0.5 * np.exp(2.5j),
                                 0.5 * np.exp(1j * (np.pi - 0.2))])
def test_planar_term_meets_bipz_and_normalizes_the_density(lam):
    # at N = 1e8 the genus-one term F_1/N^2 is below 1e-16
    f0 = topological_free_energy(Coupling(lam=lam, p=2), EnsembleSpec(N=10**8))
    assert abs(f0 - _planar_free_energy(lam)) <= 1e-13
    # the planar edge solves u + c_p lam u^p = 1, the Fuss-Catalan equation
    # at z = -c_p lam, which is the density's normalization m_0 = 1
    for p in range(2, 7):
        cp = p * math.comb(2 * p, p) / 2**p
        u = complex(fc_eval_many(Coupling(lam=lam, p=p).params, -cp * lam)[0])
        assert abs(u + cp * lam * u**p - 1) <= 1e-13, p
        big_m = partition._planar_factor(p, lam, 2 * u)
        m0 = 0.25 * sum(big_m[n] * (2 * u) ** (n + 1) * math.comb(2 * n, n) / (n + 1) / 4**n
                        for n in range(p))
        assert abs(m0 - 1) <= 1e-13, p


@pytest.mark.parametrize("beta, bound", [(2, 0.05), (1, 0.25)])
def test_free_energy_meets_topological_expansion_at_small_n(beta, bound):
    worst = 0.0
    for p in range(2, 7):
        for n in range(1, 5):
            spec = EnsembleSpec(N=n, beta=beta)
            for mod in (0.05, 0.5):
                for arg in (0.0, 1.2, 2.5, np.pi - 0.2):
                    c = Coupling(lam=mod * np.exp(1j * arg), p=p)
                    resid = n**2 * abs(free_energy(c, spec) - topological_free_energy(c, spec))
                    worst = max(worst, resid)
                    assert resid <= bound, (p, n, mod, arg)
    assert worst > 0.1 * bound


@pytest.mark.parametrize("p, lam", [(2, 0.05), (3, 0.05 * np.exp(1.2j))])
def test_genus_one_remainder_is_order_n_minus_4(p, lam):
    c = Coupling(lam=lam, p=p)
    rem = {
        n: n**4 * (free_energy(c, EnsembleSpec(N=n)) - topological_free_energy(c, EnsembleSpec(N=n)))
        for n in (12, 24)
    }
    assert abs(rem[24] - rem[12]) <= 0.1 * abs(rem[12]), rem


def test_sheet_certificate_refuses_a_shifted_topological_value(monkeypatch):
    # moved by 0.75 of a sheet, the nearest sheet lies a quarter turn away,
    # plus the true residual, which is real at a real coupling: beyond pi/2
    c, spec = Coupling(lam=0.5, p=3), EnsembleSpec(N=2, beta=1)
    free_energy(c, spec)
    exact = topological_free_energy
    monkeypatch.setattr(partition, "topological_free_energy",
                        lambda c, s: exact(c, s) + 0.75 * 2j * np.pi / s.N**2)
    with pytest.raises(LogBranchAmbiguityError) as exc:
        free_energy(c, spec)
    for field in ("lam=0.5+0j", "p=3", "N=2", "beta=1"):
        assert field in str(exc.value), (field, str(exc.value))


@pytest.mark.parametrize("n", [4, 5])
def test_real_symmetric_z_matches_monte_carlo(n):
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=n, beta=1)
    exact = z_direct(c, spec).value
    mc = z_direct(c, spec, method="monte_carlo", n_samples=400000, seed=n)
    assert abs(exact - mc.value) <= 3 * mc.error


def test_real_symmetric_free_energy_first_order():
    # F = -lam E[Tr H^4] / N + O(lam^2) for the GOE weight exp(-N Tr H^2)
    lam = 1e-4
    for n in range(2, 7):
        f = free_energy(Coupling(lam=lam, p=2), EnsembleSpec(N=n, beta=1))
        target = -float(gaussian_moment_exact(n, 2, beta=1)) / n
        assert f.real / lam == pytest.approx(target, rel=1e-3), n


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_pfaffian_squares_to_determinant(n, seed):
    # odd n is bordered by a moment vector, as de Bruijn's identity asks
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    a = partition._bordered(g - g.T, m)
    assert a.shape[0] % 2 == 0
    hadamard = np.prod(np.linalg.norm(a, axis=1))
    sign, log_abs = partition._pfaffian(a)
    assert abs(sign) == pytest.approx(1.0, abs=1e-12)
    assert abs(sign**2 * np.exp(2 * log_abs) - np.linalg.det(a)) <= 1e-12 * hadamard
