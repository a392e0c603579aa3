import hashlib

import numpy as np
import pytest

from loopvertex.bounds import (
    DEFAULT_EPSILON,
    DEFAULT_SPECTRAL_RADIUS,
    FACTOR_SWEEP_MODULI,
    BoundReport,
    contour_factor_values,
    corner_bound_suite,
    fc_decay_suite,
    g_bound_suite,
    loglog_slope,
    pacman_args,
    _pacman_couplings,
    resolvent_bound_suite,
    single_vertex_scaling_suite,
)
from loopvertex.contour import build_keyhole


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
    assert rep.holds
    rep2 = BoundReport("x", np.inf, 10)
    assert not rep2.holds


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


# Fitted constants (float.hex) and worst samples of the batched suites;
# the per-spectrum loops they replaced gave these same bits.
RESOLVENT_PINS = {
    # (p, seed, n_spectra): (constant, worst lam, worst spectrum)
    (2, 0, 1000): ("0x1.691dd0ceae196p+0", 0.1 + 0j,
                   [-1.999239993570626, 0.5284808457545496, -0.7959040760775378]),
    (3, 5, 1000): ("0x1.32f131258ad60p+1", -0.09210609940028852 + 0.03894183423086506j,
                   [-1.9999945594970323, -1.758289966205286, -1.141394167187332]),
    (2, 5, 20): ("0x1.68ebf26f0778dp+0", 0.1 + 0j,
                 [1.9967044602602857, 0.6094764463519509, -1.0619591933207042]),
    (3, 0, 20): ("0x1.30f15d86432a9p+1", -0.09210609940028852 + 0.03894183423086506j,
                 [1.740289695151073, 1.2634142164861286, -1.9890459993194076]),
}
CORNER_PINS = {
    # (p, seed, n_spectra, n_node_pairs): (constant, worst lam, u_k, u_k1)
    (2, 5, 40, 60): ("0x1.05d93507a8f4ap+6", 6.123233995736766e-19 - 0.01j,
                     0.9982968117937541 + 0.10016378325527706j,
                     0.9932082234254207 - 0.11635044013719777j),
    (3, 0, 40, 60): ("0x1.35a8e1ac50516p+8", -0.09210609940028852 + 0.03894183423086506j,
                     -0.6544017515011565 - 0.09968146084579346j,
                     -0.8992743340969837 + 0.04500122397648804j),
    (2, 0, 4, 12): ("0x1.baea8be8f7717p+5", 0.1 + 0j,
                    -0.9696973815900533 - 0.24430920600213699j,
                    -0.8935466019145809 + 0.44897045582856066j),
    (3, 5, 4, 12): ("0x1.91f101e861a4cp+7", -0.09210609940028852 + 0.03894183423086506j,
                    -0.6050219547477677 + 0.26856373596843486j,
                    -0.6351758233427263 - 0.18635911419896456j),
}


@pytest.mark.parametrize("key", sorted(RESOLVENT_PINS))
def test_resolvent_suite_pinned_bitwise(key):
    p, seed, n_spectra = key
    const, lam, spectrum = RESOLVENT_PINS[key]
    rep = resolvent_bound_suite(p, n_spectra=n_spectra, seed=seed)
    assert rep.fitted_constant.hex() == const
    assert rep.n_samples == 15 * n_spectra
    assert rep.worst_sample == {"lam": lam, "spectrum": spectrum}


@pytest.mark.parametrize("key", sorted(CORNER_PINS))
def test_corner_suite_pinned_bitwise(key):
    p, seed, n_spectra, n_pairs = key
    const, lam, u_k, u_k1 = CORNER_PINS[key]
    rep = corner_bound_suite(p, n_spectra=n_spectra, n_node_pairs=n_pairs, seed=seed)
    assert rep.fitted_constant.hex() == const
    assert rep.n_samples == 15 * n_spectra * n_pairs
    assert rep.worst_sample == {"lam": lam, "u_k": u_k, "u_k1": u_k1}


_A, _B, _C = ("ccb8f9855c1fe5b07b6ceb90eeb48f92fa822075",
              "df63e3215d63e3c2aef25364b5a51f5e00ff2d59",
              "9dd0de761c9302448a022ac253ffccd170360250")
_D, _E, _F, _G = ("02830ff4451c537bf56d073e678ed2873f6184eb",
                  "e66be66225b669fae387f3093d067b0974cf8db3",
                  "1c0a81ba85546d148edff5044b1319e1c8f0a47f",
                  "a9082d489428eea8add9c33d172240db1361e4f7")
#: sha1 of nodes and dnodes bytes per pacman coupling, in sweep order
KEYHOLE_SHA1 = {
    2: [_A, _A, _A, _B, _A, _A, _A, _A, _B, _A, _A, _A, _A, _B, _A],
    3: [_A, _A, _A, _C, _D, _A, _A, _A, _C, _D, _E, _E, _E, _F, _G],
}


@pytest.mark.parametrize("p", [2, 3])
def test_keyhole_nodes_pinned(p):
    # the broadcast panel grid lays nodes out in the per-panel loop's order
    couplings = _pacman_couplings(p, DEFAULT_EPSILON)
    got = []
    for c in couplings:
        g = build_keyhole(DEFAULT_SPECTRAL_RADIUS, c)
        got.append(hashlib.sha1(g.nodes.tobytes() + g.dnodes.tobytes()).hexdigest())
    assert got == KEYHOLE_SHA1[p]


@pytest.mark.parametrize("p", [2, 3])
def test_single_vertex_constants_uniform_in_n(p):
    # the fitted constants of |A_empty| and |A1| settle as N grows
    base = single_vertex_scaling_suite(p, big_n=2)
    for big_n in (8, 32):
        reports = single_vertex_scaling_suite(p, big_n=big_n)
        for rep, ref in zip(reports, base):
            assert rep.fitted_constant == pytest.approx(ref.fitted_constant, rel=0.25), (
                rep.name, big_n, rep.fitted_constant, ref.fitted_constant)
            assert rep.envelope_exponent_holds(), (rep.name, big_n, rep.exponent_measured)
