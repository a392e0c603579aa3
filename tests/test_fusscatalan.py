import numpy as np
import pytest

from loopvertex.errors import CutProximityError
from loopvertex.fusscatalan import (
    CutGeometry,
    FussCatalanParams,
    fc_cut_distance,
    fc_eval,
    fc_eval_many,
    fc_log_deriv,
    fc_log_deriv_many,
    fc_series_coeffs,
    _series_coeffs_float,
)


def catalan_closed_form(z):
    # principal branch of (1 - sqrt(1 - 4z)) / (2z)
    z = np.asarray(z, dtype=complex)
    return (1.0 - np.sqrt(1.0 - 4.0 * z)) / (2.0 * z)


def off_cut_grid(params, n, seed=0):
    rng = np.random.default_rng(seed)
    radii = 10.0 ** rng.uniform(-2, 2, n)
    angles = rng.uniform(0.05, 2 * np.pi - 0.05, n)
    return radii * np.exp(1j * angles)


def test_series_coefficients_are_fuss_catalan_numbers():
    from math import comb

    for p in (2, 3, 4):
        coeffs = fc_series_coeffs(FussCatalanParams(p), 8)
        for n, c in enumerate(coeffs):
            expected = comb(n * p, n) // ((p - 1) * n + 1)
            assert c == expected, (p, n)


def test_series_seed_equals_exact_series():
    # closed-form float seed of fc_eval_many against the exact iteration
    for p in range(2, 7):
        params = FussCatalanParams(p)
        exact = [float(c) for c in fc_series_coeffs(params, 40)]
        assert _series_coeffs_float(params, 40).tolist() == exact, p


def test_functional_equation_residual():
    for p in range(2, 7):
        params = FussCatalanParams(p)
        z = off_cut_grid(params, 2000, seed=p)
        t = fc_eval_many(params, z)
        resid = np.abs(z * t**p - t + 1.0) / (1.0 + np.abs(z * t**p))
        assert np.max(resid) <= 1e-12


def test_catalan_closed_form_agreement():
    params = FussCatalanParams(2)
    z = off_cut_grid(params, 4000, seed=42)
    t = fc_eval_many(params, z)
    ref = catalan_closed_form(z)
    assert np.max(np.abs(t - ref)) <= 1e-10


def test_series_newton_consistency_inside_disk():
    for p in (2, 3):
        params = FussCatalanParams(p)
        coeffs = [float(c) for c in fc_series_coeffs(params, 40)]
        rng = np.random.default_rng(p)
        z = (
            0.5
            * params.branch_point
            * rng.uniform(0.1, 1.0, 200)
            * np.exp(1j * rng.uniform(0, 2 * np.pi, 200))
        )
        series = np.polynomial.polynomial.polyval(z, coeffs)
        assert np.max(np.abs(fc_eval_many(params, z) - series)) <= 1e-10


def test_value_at_origin_and_branch_point_location():
    assert fc_eval(FussCatalanParams(2), 0.0) == pytest.approx(1.0)
    assert FussCatalanParams(2).branch_point == pytest.approx(0.25)
    assert FussCatalanParams(3).branch_point == pytest.approx(4.0 / 27.0)


def test_conjugation_symmetry():
    params = FussCatalanParams(3)
    z = off_cut_grid(params, 500, seed=7)
    t = fc_eval_many(params, z)
    tbar = fc_eval_many(params, np.conj(z))
    assert np.max(np.abs(np.conj(t) - tbar)) <= 1e-12


def test_cut_rejection():
    params = FussCatalanParams(2)
    with pytest.raises(CutProximityError):
        fc_eval(params, 0.3)  # on the cut [1/4, inf)


def test_log_deriv_values():
    assert fc_log_deriv(FussCatalanParams(2), 0.0) == pytest.approx(1.0)
    assert fc_log_deriv(FussCatalanParams(3), 0.0) == pytest.approx(1.0)
    # z = 0.1 below the p=2 branch point 0.25
    t = catalan_closed_form(0.1 + 0j)
    expected = t / (1.0 - 2 * 0.1 * t)
    got = fc_log_deriv(FussCatalanParams(2), 0.1)
    assert got == pytest.approx(complex(expected), rel=1e-10)
    assert got.real == pytest.approx(1.4550, abs=5e-4)


def test_log_deriv_matches_finite_difference():
    params = FussCatalanParams(3)
    for z in (0.05 + 0.02j, -0.3 + 0.1j, 1.0j):
        step = 1e-6
        tp = (fc_eval(params, z + step) - fc_eval(params, z - step)) / (2 * step)
        e_fd = tp / fc_eval(params, z)
        e = fc_log_deriv(params, z)
        assert abs(e - e_fd) / abs(e) <= 1e-6


def test_cut_geometry():
    geom = CutGeometry(2)
    assert geom.ray_start_radius(1.0) == pytest.approx(0.5)
    # p=2, lam=1: two rays at +-pi/2
    angles = np.sort(geom.ray_angles(1.0) % (2 * np.pi))
    assert angles == pytest.approx([np.pi / 2, 3 * np.pi / 2])
    params = FussCatalanParams(2)
    assert float(fc_cut_distance(params, 1.0, 0.0)) == pytest.approx(0.5)
    assert float(fc_cut_distance(params, 1.0, 2.0j)) == pytest.approx(0.0, abs=1e-14)
    params3 = FussCatalanParams(3)
    u = np.linspace(-1, 1, 41)
    assert np.all(fc_cut_distance(params3, 1.0, u.astype(complex)) > 0)


def test_decay_envelopes_hold_with_fitted_constant():
    from loopvertex.bounds import fc_decay_suite

    for p in (2, 3):
        rep_t, rep_e = fc_decay_suite(p, n_points=10000)
        assert rep_t.fitted_constant >= 1.0
        assert rep_t.fitted_constant < 10.0
        assert rep_e.fitted_constant < 10.0
