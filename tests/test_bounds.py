import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    _contour_resolvent_worst,
    _pacman_couplings,
    contour_resolvent_suite,
    resolvent_bound_suite,
    single_vertex_scaling_suite,
)
from loopvertex.contour import build_keyhole
from loopvertex.errors import OutOfRangeError


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


#: taken from the full (nodes, n_eigs) ratio matrix before the candidate scan
CONTOUR_RESOLVENT_PINS = {
    # (p, seed, n_eigs): (constant, worst lam, u, mu)
    (2, 0, 1): ("0x1.3fc749c172c12p+4", 6.123233995736766e-18 + 0.1j,
                -0.9982968117937541 - 0.10016378325527701j, -0.9945229996597038),
    (3, 0, 1): ("0x1.4b85ded87ae39p+5", -0.09210609940028852 + 0.03894183423086506j,
                -0.9322803013747154 - 0.046652898965652646j, -0.9328288493890713),
    (2, 7, 1): ("0x1.3ec513461fb83p+4", 6.123233995736766e-19 + 0.01j,
                -0.9982968117937541 - 0.10016378325527701j, -0.9894693908688506),
    (2, 0, 200): ("0x1.4000acfa4afe4p+4", -0.09210609940028852 + 0.03894183423086506j,
                  0.9982968117937541 - 0.10016378325527694j, 0.9978842851848462),
    (3, 0, 200): ("0x1.918a05c78498bp+5", -0.09210609940028852 + 0.03894183423086506j,
                  -0.6618810292302117 - 0.03312165744403954j, -0.6624600023621006),
    (3, 3, 200): ("0x1.904e88869f1bdp+5", -0.09210609940028852 + 0.03894183423086506j,
                  0.6650047809303206 + 0.03327797531565414j, 0.666135066430116),
    (2, 5, 5000): ("0x1.40015ed334838p+4", 6.123233995736766e-19 - 0.01j,
                   -0.9982968117937541 - 0.10016378325527701j, -0.9983006110836428),
    (3, 5, 5000): ("0x1.919916faf2437p+5", -0.09210609940028852 + 0.03894183423086506j,
                   0.6618810292302117 + 0.03312165744403972j, 0.6617644939234077),
}


@pytest.mark.parametrize("key", sorted(CONTOUR_RESOLVENT_PINS))
def test_contour_resolvent_suite_pinned_bitwise(key):
    p, seed, n_eigs = key
    const, lam, u, mu = CONTOUR_RESOLVENT_PINS[key]
    rep = contour_resolvent_suite(p, n_eigs=n_eigs, seed=seed)
    assert rep.fitted_constant.hex() == const
    assert rep.n_samples == 15
    assert rep.worst_sample == {"lam": lam, "u": u, "mu": mu}


def _contour_resolvent_matrix(u, mu):
    """The oracle: the whole (nodes, eigenvalues) ratio matrix."""
    env = np.minimum(1.0 / (1.0 + np.abs(u[:, None])), 1.0 / (1.0 + np.abs(mu[None, :])))
    return 1.0 / np.abs(u[:, None] - mu[None, :]) / env


# Re u includes -1 and 1 exactly, where the turning points mu_+ and mu_-
# have no finite value; Im u stays off the axis, |u| reaches 5
_re_u = st.one_of(st.sampled_from([-1.0, 1.0, 0.0]), st.floats(-5.0, 5.0))
_im_u = st.one_of(st.just(1.0), st.floats(1e-3, 5.0)).flatmap(lambda b: st.sampled_from([b, -b]))
#: the scan evaluates the full matrix's formula, so it can only miss the
#: maximum by rounding among eigenvalues at a flat turning point (measured
#: at most 1.8 eps relative in 20 000 trials with such clusters)
SCAN_RTOL = 4 * np.finfo(float).eps


@st.composite
def _scan_case(draw):
    """Nodes, and eigenvalues spread over +-6 plus a cluster of width 1e-12
    to 1 around a, mu_+ or mu_- of the first node.  u = +-i has a flat
    peak at mu_+ = 1, where a narrow cluster differs in the ratio by less
    than rounding."""
    u = np.array([complex(a, b) for a, b in
                  draw(st.lists(st.tuples(_re_u, _im_u), min_size=1, max_size=40))])
    a, b = u[0].real, u[0].imag
    centre = draw(st.sampled_from([
        a,
        a + b * b / (1.0 + a) if 1.0 + a > 0 else a,
        a - b * b / (1.0 - a) if 1.0 - a > 0 else a,
    ]))
    width = 10.0 ** draw(st.floats(-12.0, 0.0))
    cluster = centre + width * np.array(draw(st.lists(st.floats(-1.0, 1.0), max_size=40)))
    spread = draw(st.lists(st.floats(-6.0, 6.0), max_size=400))
    mu = np.unique(np.concatenate([cluster, spread]))
    assume(len(mu) >= 1)
    return u, mu


@settings(max_examples=300, deadline=None)
@given(case=_scan_case())
def test_candidate_scan_matches_full_matrix(case):
    u, mu = case
    r = _contour_resolvent_matrix(u, mu)
    # the chosen entry is the returned ratio, and it is the maximum up to
    # rounding (exactly so on the pins above), over all nodes and per node
    for i, row in [(slice(None), r)] + [(slice(i, i + 1), r[i:i + 1]) for i in range(len(u))]:
        ratio, k, j = _contour_resolvent_worst(u[i], mu)
        assert row[k, j] == ratio
        assert ratio >= row.max() * (1.0 - SCAN_RTOL)


@pytest.mark.parametrize("suite, kwargs, name", [
    (fc_decay_suite, {"n_points": 0}, "n_points"),
    (resolvent_bound_suite, {"n_spectra": 0}, "n_spectra"),
    (corner_bound_suite, {"n_spectra": 0}, "n_spectra"),
    (corner_bound_suite, {"n_node_pairs": 0}, "n_node_pairs"),
    (contour_resolvent_suite, {"n_eigs": 0}, "n_eigs"),
])
def test_empty_sample_raises_out_of_range(suite, kwargs, name):
    with pytest.raises(OutOfRangeError, match=rf"{suite.__name__} needs {name} >= 1, got {name}=0"):
        suite(2, **kwargs)


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
