import numpy as np
import pytest

from loopvertex.bounds import (
    DEFAULT_EPSILON,
    FACTOR_SWEEP_MODULI,
    BoundReport,
    contour_factor_values,
    corner_bound_suite,
    fc_decay_suite,
    g_bound_suite,
    loglog_slope,
    pacman_args,
    resolvent_bound_suite,
)


def test_loglog_slope_recovers_power_law():
    x = np.logspace(-3, 0, 20)
    assert loglog_slope(x, 3.0 * x**1.7) == pytest.approx(1.7, abs=1e-10)


def test_pacman_args_geometry():
    eps = 0.2
    args = pacman_args(eps)
    assert 0.0 in args
    assert max(np.abs(args)) == pytest.approx(np.pi - 2 * eps)


def test_bound_report_flags():
    rep = BoundReport("x", 2.0, 10, exponent_target=1.0, exponent_measured=1.05)
    assert rep.holds and rep.exponent_within()
    rep2 = BoundReport("x", np.inf, 10)
    assert not rep2.holds
    rep3 = BoundReport("x", 1.0, 10, exponent_target=1.0, exponent_measured=2.0)
    assert not rep3.exponent_within()


def test_envelope_exponent_is_one_sided():
    def rep(target, measured):
        return BoundReport("x", 1.0, 10, exponent_target=target,
                           exponent_measured=measured)

    # a Taylor-order slope of 1 sits inside the envelope |lambda|^(1/16)
    assert rep(0.0625, 1.0).envelope_exponent_holds(0.15)
    # a quantity that does not vanish as lambda -> 0 breaks it
    assert not rep(0.0625, 0.0).envelope_exponent_holds(0.15)
    assert rep(0.0625, 0.85 * 0.0625).envelope_exponent_holds(0.15)
    assert not rep(0.0625, 0.84 * 0.0625).envelope_exponent_holds(0.15)
    assert rep(None, 0.0).envelope_exponent_holds()
    assert rep(0.0625, None).envelope_exponent_holds()
    assert BoundReport("x", 1.0, 10).envelope_exponent_holds()


@pytest.mark.parametrize("p", [2, 3])
def test_fc_decay_constants_finite_and_modest(p):
    rep_t, rep_e = fc_decay_suite(p, n_points=4000)
    assert rep_t.holds and rep_t.fitted_constant < 10.0
    assert rep_e.holds and rep_e.fitted_constant < 10.0
    assert rep_t.n_samples > 0


def test_g_bound_constant_finite():
    rep = g_bound_suite(2)
    assert rep.holds
    assert rep.fitted_constant < 10.0
    assert rep.worst_sample


def test_resolvent_bound_constant_finite():
    rep = resolvent_bound_suite(2, n_spectra=100)
    assert rep.holds
    assert rep.fitted_constant < 100.0


def test_corner_bound_constant_finite():
    rep = corner_bound_suite(2, n_spectra=50)
    assert rep.holds
    assert np.isfinite(rep.fitted_constant)


def test_contour_factor_is_first_order_over_lowest_decade():
    # The contour factor vanishes like |lambda| (Taylor order 1), so its
    # slope over 1e-4..1e-3 is 1.  The envelope check of criterion 08 fits
    # 1e-4..1e-1 against exponents near 0.05 and misses a constant floor
    # of 0.1 (slope 0.11); this slope reads below 0.01 for that floor.
    moduli = np.asarray(FACTOR_SWEEP_MODULI)
    lowest = moduli[moduli <= 10.0 * moduli[0] * (1 + 1e-9)]
    assert lowest[0] == pytest.approx(1e-4) and lowest[-1] == pytest.approx(1e-3)
    for p in (2, 3):
        for arg in pacman_args(DEFAULT_EPSILON):
            slope = loglog_slope(*contour_factor_values(p, arg, moduli=lowest))
            assert slope == pytest.approx(1.0, abs=0.05), (p, arg, slope)
