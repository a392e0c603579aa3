import cmath
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopvertex import fusscatalan
from loopvertex.errors import CutProximityError, NonConvergenceError, OutOfRangeError
from loopvertex.fusscatalan import (
    FussCatalanParams,
    fc_cut_distance,
    fc_eval_many,
    fc_log_deriv_many,
    fc_series_coeffs,
    cut_distance_to_positive_ray,
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
    assert fc_eval_many(FussCatalanParams(2), 0.0)[0] == pytest.approx(1.0)
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
        fc_eval_many(params, 0.3)[0]  # on the cut [1/4, inf)


def test_log_deriv_values():
    assert fc_log_deriv_many(FussCatalanParams(2), 0.0)[0] == pytest.approx(1.0)
    assert fc_log_deriv_many(FussCatalanParams(3), 0.0)[0] == pytest.approx(1.0)
    # z = 0.1 below the p=2 branch point 0.25
    t = catalan_closed_form(0.1 + 0j)
    expected = t / (1.0 - 2 * 0.1 * t)
    got = fc_log_deriv_many(FussCatalanParams(2), 0.1)[0]
    assert got == pytest.approx(complex(expected), rel=1e-10)
    assert got.real == pytest.approx(1.4550, abs=5e-4)


def test_log_deriv_matches_finite_difference():
    params = FussCatalanParams(3)
    for z in (0.05 + 0.02j, -0.3 + 0.1j, 1.0j):
        step = 1e-6
        t_plus, t_minus = fc_eval_many(params, z + step)[0], fc_eval_many(params, z - step)[0]
        tp = (t_plus - t_minus) / (2 * step)
        e_fd = tp / fc_eval_many(params, z)[0]
        e = fc_log_deriv_many(params, z)[0]
        assert abs(e - e_fd) / abs(e) <= 1e-6


def test_cut_geometry():
    geom = FussCatalanParams(2)
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


# ---------------------------------------------------------------------------
# principal branch near the cut, against references computed apart from
# fc_eval_many


def hyp2f1_reference(p, z):
    """T_2 = 2F1(1/2, 1; 2; 4z) and T_3 = 2F1(1/3, 2/3; 3/2; 27z/4), by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    a, b, c, scale = {2: (0.5, 1, 2, 4), 3: (mpmath.mpf(1) / 3, mpmath.mpf(2) / 3, 1.5,
                                           mpmath.mpf(27) / 4)}[p]
    with mpmath.workdps(30):
        return complex(mpmath.hyp2f1(a, b, c, scale * mpmath.mpc(z)))


def dense_reference(p, z, steps=2000):
    """T_p by dense continuation from the series at 0.01*bp*i*side.

    The root is followed up the imaginary axis to |z| and then along
    |w| = |z| to arg z in uniform angle steps, 4 Newton steps each; no
    step may move it by 5% (the p roots are much farther apart).
    """
    bp = FussCatalanParams(p).branch_point
    z = complex(z)
    radius, theta = abs(z), cmath.phase(z)
    side = 1.0 if theta >= 0 else -1.0
    r0 = 0.01 * bp
    # at 0.01 * bp twelve terms of the series leave a tail below 1e-20
    coeffs = [float(c) for c in fc_series_coeffs(FussCatalanParams(p), 12)]
    t = complex(np.polynomial.polynomial.polyval(1j * side * r0, coeffs))
    path = [1j * side * r0 * (radius / r0) ** (k / steps) for k in range(1, steps + 1)]
    path += [cmath.rect(radius, side * math.pi / 2 + (theta - side * math.pi / 2) * k / steps)
             for k in range(1, steps + 1)]
    for w in path + [z] * 4:
        prev = t
        for _ in range(4):
            t = t - (w * t**p - t + 1.0) / (p * w * t ** (p - 1) - 1.0)
        assert abs(t - prev) <= 0.05 * abs(prev)
    assert abs(z * t**p - t + 1.0) <= 1e-12 * (1.0 + abs(z * t**p))
    return t


def reference(p, z):
    return hyp2f1_reference(p, z) if p in (2, 3) else dense_reference(p, z)


def assert_principal(p, z, t):
    """Both branch conditions: p |arg T| < pi and Im T has the sign of Im z.

    The sign test allows round-off (1e-12 |T|) for z on or next to the
    real axis.
    """
    assert p * abs(np.angle(t)) < np.pi, (p, z, t)
    assert np.sign(z.imag) * t.imag >= -1e-12 * abs(t), (p, z, t)


#: points where the fixed 64-step continuation returned a non-principal
#: root that passed the residual check; the third is the second such p=5
#: point drawn by default_rng([20191, 5]) (|z| in 1..1e5, |arg z| in
#: 1e-4..1e-1)
NEAR_CUT_MISSES = (
    (3, 4.8553900618812404 - 0.0011348500010837617j),
    (5, 3270.851693451676 + 1.3312174011928193j),
    (5, 93.87571809207905 - 0.06377256003121913j),
)


@pytest.mark.parametrize("p, z", NEAR_CUT_MISSES + (
    # a radial continuation with step-halving returned 1.00350 - 0.32376i
    # here, where dense continuation gives 1.00344 + 0.32359i
    (5, 0.248399 + 1.0723e-4j),
))
def test_near_cut_points_land_on_principal_branch(p, z):
    t = fc_eval_many(FussCatalanParams(p), z)[0]
    ref = reference(p, z)
    assert abs(t - ref) <= 1e-8 * abs(ref)
    assert_principal(p, z, t)


@settings(max_examples=150)
@given(
    p=st.integers(2, 6),
    log_modulus=st.floats(-3.0, 5.0),
    log_angle=st.floats(-6.0, np.log10(np.pi)),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_principal_branch_property(p, log_modulus, log_angle, side):
    z = 10.0**log_modulus * np.exp(1j * side * 10.0**log_angle)
    bp = FussCatalanParams(p).branch_point
    # the uniform-step reference needs room around the branch point
    assume(abs(z - bp) > 1e-3 * bp)
    assume(cut_distance_to_positive_ray(FussCatalanParams(p), z) >= 1e-7)
    t = fc_eval_many(FussCatalanParams(p), z)[0]
    ref = reference(p, z)
    assert abs(t - ref) <= 1e-8 * abs(ref), (p, z, t, ref)
    assert_principal(p, z, t)


@settings(max_examples=200)
@given(
    p=st.integers(2, 6),
    log_ratio=st.floats(np.log10(0.5), 5.0),
    log_angle=st.floats(-9.0, np.log10(np.pi)),
    side=st.sampled_from([-1.0, 1.0]),
)
def test_seeded_newton_certifies_without_the_dense_fallback(p, log_ratio, log_angle, side):
    # every point off the inner disk, |z| from bp/2 to 1e5 bp, is seeded by
    # a series and certified after SEED_NEWTON steps; only points next to
    # the branch point may need the dense continuation
    params = FussCatalanParams(p)
    bp = params.branch_point
    z = bp * 10.0**log_ratio * np.exp(1j * side * 10.0**log_angle)
    assume(abs(z - bp) >= 1e-2 * bp)
    assume(cut_distance_to_positive_ray(params, z) >= 1e-6)
    calls = []
    continue_ = fusscatalan._continue

    def counted(params, z, steps):
        calls.append(steps)
        return continue_(params, z, steps)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fusscatalan, "_continue", counted)
        t = fc_eval_many(params, z)[0]
    assert fusscatalan.DENSE_STEPS not in calls, (p, z)
    ref = reference(p, z)
    assert abs(t - ref) <= 1e-12 * abs(ref), (p, z, t, ref)


def test_near_branch_point_matches_catalan_closed_form():
    # p = 2: T = 2 / (1 + sqrt(1 - 4z)) at |z - bp| from 1e-7 bp to bp, at
    # every argument but the cut's own
    params = FussCatalanParams(2)
    bp = params.branch_point
    dist = bp * np.geomspace(1e-7, 1.0, 57)
    angle = np.pi * ((np.arange(64) + 0.5) / 32 - 1.0)
    z = (bp + dist[:, None] * np.exp(1j * angle)).ravel()
    z = z[cut_distance_to_positive_ray(params, z) >= fusscatalan.CUT_TOL]
    t = fc_eval_many(params, z)
    closed = 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * z))
    assert np.max(np.abs(t - closed) / np.abs(closed)) <= 1e-9


@pytest.mark.parametrize("p", range(2, 7))
def test_outer_coeffs_equal_rounded_fractions(p, monkeypatch):
    # int / int true division rounds correctly, as float(Fraction) does
    monkeypatch.setattr(fusscatalan, "_OUTER_CACHE", {})
    oracle = [
        float(Fraction((-1) ** m * math.prod(m + 1 - j * p for j in range(1, m)),
                       p**m * math.factorial(m)))
        for m in range(fusscatalan.OUTER_TERMS + 1)
    ]
    assert fusscatalan._outer_coeffs(p, fusscatalan.OUTER_TERMS).tolist() == oracle


def test_dense_fallback_repairs_uncertified_seeds(monkeypatch):
    # one term of the series at infinity and no Newton polish leave the
    # seed w, whose residual is |w|/2, so every outer point must be
    # repaired by the dense continuation
    monkeypatch.setattr(fusscatalan, "OUTER_TERMS", 1)
    monkeypatch.setattr(fusscatalan, "SEED_NEWTON", 0)
    calls = []
    continue_ = fusscatalan._continue

    def counted(params, z, steps):
        calls.append((steps, z.size))
        return continue_(params, z, steps)

    monkeypatch.setattr(fusscatalan, "_continue", counted)
    for p, z in NEAR_CUT_MISSES + ((2, -40.0 + 3.0j), (4, 7.0j)):
        calls.clear()
        t = fc_eval_many(FussCatalanParams(p), z)[0]
        assert calls == [(fusscatalan.DENSE_STEPS, 1)], (p, z, calls)
        ref = reference(p, z)
        assert abs(t - ref) <= 1e-8 * abs(ref)
        assert_principal(p, z, t)


def test_cut_proximity_error_names_p_point_and_distance():
    z = np.array([0.01, -1.0, 0.3 + 5e-9j, 0.4])
    with pytest.raises(CutProximityError,
                       match=r"p=2: z=\(0\.3\+5e-09j\) lies 5\.000e-09 from the cut"):
        fc_eval_many(FussCatalanParams(2), z)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf + 1j, complex(0.1, np.nan)])
def test_non_finite_point_raises_out_of_range(bad):
    # checked before any continuation: no numpy warning, no cut verdict
    with pytest.raises(OutOfRangeError, match=r"p=3: z=.* is not finite"):
        fc_eval_many(FussCatalanParams(3), np.array([0.01, 5.0 + 1j, bad]))


def test_non_convergence_error_names_p_point_and_residual(monkeypatch):
    # an unpolished seed fails the certificate, and a continuation with no
    # Newton steps cannot reach the root
    monkeypatch.setattr(fusscatalan, "SEED_NEWTON", 0)
    monkeypatch.setattr(fusscatalan, "STEP_NEWTON", 0)
    monkeypatch.setattr(fusscatalan, "END_NEWTON", 0)
    with pytest.raises(NonConvergenceError,
                       match=r"p=3: .* at z=\(0\.2\+0\.1j\) .*residual \d\.\d{3}e[-+]\d+"):
        fc_eval_many(FussCatalanParams(3), 0.2 + 0.1j)[0]


def test_certificate_accepts_exactly_the_principal_root():
    # every root of z T^p - T + 1, polished; only the principal one passes
    rng = np.random.default_rng(5)
    for p in range(2, 7):
        params = FussCatalanParams(p)
        bp = params.branch_point
        z = np.concatenate([
            10.0 ** rng.uniform(-2, 4, 40) * np.exp(1j * rng.uniform(-np.pi, np.pi, 40)),
            10.0 ** rng.uniform(-1, 4, 20) * np.exp(1j * rng.choice([-1, 1], 20) * 1e-5),
            [-0.5 * bp, -30.0, 0.6 * bp, 0.95 * bp],
        ])
        for zz in z:
            roots = np.roots(np.r_[zz, np.zeros(p - 2), -1.0, 1.0])
            roots = fusscatalan._newton(p, np.full(p, zz), roots, 2)
            passed = roots[fusscatalan._certified(params, np.full(p, zz), roots)]
            assert passed.size == 1, (p, zz, roots)
            assert abs(passed[0] - fc_eval_many(params, zz)[0]) <= 1e-10 * abs(passed[0])


def test_shape_kept_across_zones():
    # inner, annulus and outer points in a 2-D array
    params = FussCatalanParams(4)
    z = off_cut_grid(params, 2000, seed=9)
    grid = z.reshape(1, -1)
    t = fc_eval_many(params, grid)
    assert t.shape == grid.shape
    assert np.array_equal(t.ravel(), fc_eval_many(params, z))
    head = fc_eval_many(params, z[:7])
    assert np.max(np.abs(head - t[0, :7])) <= 1e-14 * np.max(np.abs(head))


#: sha1 of fc_eval_many's output bytes on _pin_grid(p), one call per p
FC_EVAL_SHA1 = {
    2: "3d09636faebf37bda6ff83889febbf4cebd1fcfc",
    3: "087c768966fc80519bdd3848dbbb757921be4b85",
    4: "2bdaba55d75c7fb0f0864ba3ffdc84b6e6c47cab",
    5: "6db09feeafea0ff92c4316e68b9fbb6bb0af0385",
    6: "f81f3c0938d4818d6ee671ea21e12cc8c70fa93a",
}


def _pin_grid(p):
    # |z| from 0.03 to 30 branch points: inner disk, annulus and outer
    # zone; both half-planes and both real half-axes, kept off the cut
    params = FussCatalanParams(p)
    bp = params.branch_point
    rng = np.random.default_rng(1900 + p)
    radii = bp * 10.0 ** rng.uniform(-1.5, 1.5, 3000)
    z = radii * np.exp(1j * rng.uniform(-np.pi, np.pi, 3000))
    z = z[cut_distance_to_positive_ray(params, z) > 1e-3 * bp]
    real = bp * np.array([0.1, 0.4, 0.6, 0.9, 2.0, 5.0])
    return np.concatenate([z, -real, real[:4], 1j * real, -1j * real])


@pytest.mark.parametrize("p", range(2, 7))
def test_fc_eval_many_pinned(p):
    params = FussCatalanParams(p)
    z = _pin_grid(p)
    radius = np.abs(z) / params.branch_point
    zones = ((radius <= 0.5).sum(), ((radius > 0.5) & (radius < 3)).sum(), (radius >= 3).sum())
    assert min(zones) > 500, zones
    t = fc_eval_many(params, z)
    assert hashlib.sha1(t.tobytes()).hexdigest() == FC_EVAL_SHA1[p]


@pytest.mark.parametrize("p", range(2, 7))
def test_batched_call_equals_point_by_point_calls_bitwise(p):
    # a point's value does not depend on the size of its call, in any zone
    params = FussCatalanParams(p)
    z = _pin_grid(p)
    t = fc_eval_many(params, z)
    one = np.array([fc_eval_many(params, z[i : i + 1])[0] for i in range(z.size)])
    assert t.tobytes() == one.tobytes()


@pytest.mark.parametrize("p", range(2, 7))
def test_real_points_give_float64_equal_to_the_complex_real_part(p):
    params = FussCatalanParams(p)
    bp = params.branch_point
    mag = bp * np.geomspace(1e-4, 1e4, 4000)
    z = np.concatenate([-mag, [0.0], mag[mag <= 0.99 * bp]])
    radius = np.abs(z) / bp
    assert min((radius <= 0.5).sum(), ((radius > 0.5) & (radius < 3)).sum(),
               (radius >= 3).sum()) > 500
    inner = z[radius <= 0.5]
    for pts in (z, inner):  # a mixed call and an all-inner-disk call
        t = fc_eval_many(params, pts)
        assert t.dtype == np.float64 and t.shape == pts.shape
        assert t.tobytes() == fc_eval_many(params, pts + 0j).real.tobytes()
    if p == 2:
        t = fc_eval_many(params, z)
        closed = 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * z))
        assert np.max(np.abs(t - closed) / closed) <= 1e-14


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_real_points_on_the_cut_raise(factor):
    params = FussCatalanParams(3)
    with pytest.raises(CutProximityError):
        fc_eval_many(params, np.array([-0.01, factor * params.branch_point]))
