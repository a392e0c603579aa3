from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopvertex import partition
from loopvertex.errors import (
    OutOfRangeError,
    QuadratureUnderResolvedError,
    VarianceBlowupError,
)
from loopvertex.matrixcore import EnsembleSpec, covariances
from loopvertex.partition import (
    free_energy,
    gaussian_moment_exact,
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


def test_mc_values_pinned_at_fixed_seeds():
    # one sampling stream per call; these are the values it gives
    a = z_direct(Coupling(lam=0.1, p=2), EnsembleSpec(N=3, beta=2),
                 method="monte_carlo", n_samples=20000, seed=11)
    assert a.value == pytest.approx(0.6738932327531165, rel=1e-12)
    assert a.error == pytest.approx(0.0015515693460670908, rel=1e-9)
    b = z_lvr(Coupling(lam=0.1, p=2), EnsembleSpec(N=3, beta=1),
              method="monte_carlo", n_samples=5000, seed=12)
    assert b.value == pytest.approx(0.8167604119847671, rel=1e-12)
    assert b.error == pytest.approx(0.0012012372452311056, rel=1e-9)


def test_mc_agrees_with_quadrature():
    c = Coupling(lam=0.1, p=2)
    spec = EnsembleSpec(N=2, beta=2)
    ref = z_direct(c, spec).value
    est = z_direct(c, spec, method="monte_carlo", n_samples=200000, seed=1)
    assert abs(est.value - ref) <= 4 * est.error
    est_l = z_lvr(c, spec, method="monte_carlo", n_samples=50000, seed=2)
    assert abs(est_l.value - ref) <= 4 * est_l.error


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
    with pytest.raises(VarianceBlowupError):
        free_energy(
            Coupling(lam=0.45, p=3), EnsembleSpec(N=5, beta=2),
            method="monte_carlo", n_samples=200, seed=0,
        )
