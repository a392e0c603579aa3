import dataclasses

import numpy as np
import pytest

from loopvertex import contour
from loopvertex.contour import build_keyhole, holo_apply, min_spectrum_distance
from loopvertex.errors import (
    ContourClearanceError,
    CutCollisionError,
    QuadratureDivergenceError,
    SpectrumTooLargeError,
)
from loopvertex.fusscatalan import fc_cut_distance
from loopvertex.matrixcore import eigh
from loopvertex.scalarmaps import Coupling, eval_map


@pytest.fixture(scope="module")
def gamma_real():
    return build_keyhole(2.0, Coupling(lam=0.05, p=2))


def test_cauchy_identity_interior_exterior(gamma_real):
    g = gamma_real
    rng = np.random.default_rng(0)
    for a in rng.uniform(-0.4, 0.4, 100) * g.r:
        assert abs(g.cauchy(complex(a)) - 1.0) <= 1e-8
    for a in 2.0 * g.R * np.exp(1j * rng.uniform(0, 2 * np.pi, 100)):
        assert abs(g.cauchy(complex(a))) <= 1e-8
    assert abs(g.cauchy(0.3) - 1.0) <= 1e-8
    assert abs(g.cauchy(g.R + 1.0)) <= 1e-8


def test_nodes_clear_of_cut_rays():
    for arg in (0.0, np.pi / 2, np.pi - 0.4):
        c = Coupling(lam=0.05 * np.exp(1j * arg), p=2)
        g = build_keyhole(1.5, c)
        assert np.all(fc_cut_distance(c.params, complex(c.lam), g.nodes) > 0)


def test_spectrum_distance_floor():
    g = build_keyhole(2.0, Coupling(lam=0.05, p=2))
    d = min_spectrum_distance(g, [0.0])
    assert d >= g.r * np.sin(g.psi) * (1 - 1e-12)
    d2 = min_spectrum_distance(g, [-1.5, 1.5])
    assert d2 > 0
    with pytest.raises(SpectrumTooLargeError):
        min_spectrum_distance(g, [g.R])


def test_holo_apply_identity_and_cube(gamma_real):
    k = np.diag([0.5, -0.2])
    s = eigh(k)
    ident = holo_apply(lambda u: u, gamma_real, s)
    assert np.max(np.abs(ident - k)) <= 1e-10
    cube = holo_apply(lambda u: u**3, gamma_real, s)
    assert np.max(np.abs(cube - np.diag([0.125, -0.008]))) <= 1e-8


def test_holo_apply_scalar_map(gamma_real):
    c = Coupling(lam=0.05, p=2)
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 3))
    k = (a + a.T) / 4.0
    s = eigh(k)
    got = holo_apply(lambda u: eval_map("h", c, u), gamma_real, s)
    v = s.eigenvectors
    expected = (v * np.asarray(eval_map("h", c, s.eigenvalues.astype(complex)))[None, :]) @ v.conj().T
    assert np.max(np.abs(got - expected)) <= 1e-8


def test_geometry_parameters():
    g = build_keyhole(2.0, Coupling(lam=0.0, p=2))
    assert g.R == pytest.approx(4.0)
    assert g.r == pytest.approx(1.0)
    assert g.psi <= 0.1 + 1e-12


def test_clearance_error_names_spectrum_and_defect():
    g = build_keyhole(2.0, Coupling(lam=0.05, p=2))
    # a contour record whose cap radius claims more clearance than its pieces have
    bad = dataclasses.replace(g, r=3.0 * g.r)
    with pytest.raises(ContourClearanceError) as err:
        min_spectrum_distance(bad, [g.r])
    msg = str(err.value)
    assert msg.startswith("min_spectrum_distance: spectrum [1.0] lies ")
    assert "clearance floor r sin(psi)" in msg


def test_divergence_error_names_coupling_probe_and_gap(monkeypatch):
    monkeypatch.setattr(contour, "CAUCHY_TOL", 0.0)
    monkeypatch.setattr(contour, "MAX_DOUBLINGS", 0)
    with pytest.raises(QuadratureDivergenceError) as err:
        build_keyhole(1.0, Coupling(lam=0.05j, p=3))
    msg = str(err.value)
    assert msg.startswith("build_keyhole: Cauchy self-test failed")
    assert "p=3, lam=0+0.05j" in msg
    assert "worst probe" in msg and "Cauchy gap" in msg


def test_cut_collision_error_names_coupling():
    # arg lam = pi puts a cut ray of h on the real axis: no opening angle
    c = Coupling(lam=-0.05 + 0j, epsilon=1e-13, p=2)
    with pytest.raises(CutCollisionError) as err:
        build_keyhole(1.0, c)
    msg = str(err.value)
    assert "p=2, lam=-0.05+0j" in msg and "psi=" in msg


def test_cut_collision_error_names_node(monkeypatch):
    monkeypatch.setattr(contour, "fc_cut_distance",
                        lambda params, lam, u: np.where(np.arange(len(u)) == 7, 0.0, 1.0))
    with pytest.raises(CutCollisionError) as err:
        build_keyhole(1.0, Coupling(lam=0.05, p=2))
    msg = str(err.value)
    assert "lies on a cut ray for p=2, lam=0.05+0j" in msg
    assert "clearance 0.000e+00" in msg


def _counting_quadrature(monkeypatch):
    calls = []
    quadrature = contour._quadrature

    def counted(pieces, n_panels):
        calls.append(n_panels)
        return quadrature(pieces, n_panels)

    monkeypatch.setattr(contour, "_quadrature", counted)
    return calls


def test_couplings_with_one_geometry_share_one_layout(monkeypatch):
    contour._certified_layout.cache_clear()
    calls = _counting_quadrature(monkeypatch)
    a = build_keyhole(1.0, Coupling(lam=1e-3, p=2))
    built = len(calls)
    b = build_keyhole(1.0, Coupling(lam=1e-2j, p=2))
    assert built >= 1 and len(calls) == built
    assert (a.R, a.r, a.psi) == (b.R, b.r, b.psi)
    assert a.nodes is b.nodes and a.dnodes is b.dnodes
    assert not a.nodes.flags.writeable and not a.dnodes.flags.writeable
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0


def test_clearance_checked_on_a_cached_layout(monkeypatch):
    c = Coupling(lam=0.05, p=2)
    build_keyhole(1.0, c)
    hits = contour._certified_layout.cache_info().hits
    monkeypatch.setattr(contour, "fc_cut_distance",
                        lambda params, lam, u: np.where(np.arange(len(u)) == 3, 0.0, 1.0))
    with pytest.raises(CutCollisionError, match="lies on a cut ray for p=2"):
        build_keyhole(1.0, c)
    assert contour._certified_layout.cache_info().hits == hits + 1


def test_divergence_error_raised_after_the_keyhole_is_warm(monkeypatch):
    # the tolerances are part of the layout key: a warm layout certified
    # at CAUCHY_TOL is not served when the tolerance is tightened
    build_keyhole(1.0, Coupling(lam=0.05j, p=3))
    test_divergence_error_names_coupling_probe_and_gap(monkeypatch)


def test_probe_radius_is_part_of_the_layout_key(monkeypatch):
    contour._certified_layout.cache_clear()
    calls = _counting_quadrature(monkeypatch)
    c = Coupling(lam=0.05, p=2)
    a = build_keyhole(1.0, c)
    built = len(calls)
    b = build_keyhole(0.5, c)  # the same R = 2r = 2, a different probe
    assert (a.R, a.r, a.psi) == (b.R, b.r, b.psi)
    assert len(calls) > built and a.nodes is not b.nodes
    assert contour._certified_layout.cache_info().misses == 2
