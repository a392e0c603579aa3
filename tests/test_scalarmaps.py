import numpy as np
import pytest

from loopvertex.scalarmaps import (
    Coupling,
    eval_map,
    g_integral_rep,
    inverse_residual,
)

EPS = 0.2
PACMAN_MODULI = (1e-3, 1e-2, 1e-1)
PACMAN_ARGS = (0.0, np.pi / 2, -np.pi / 2, np.pi - 2 * EPS, -(np.pi - 2 * EPS))


def pacman_couplings(p):
    return [
        Coupling(lam=m * np.exp(1j * a), epsilon=EPS, p=p)
        for m in PACMAN_MODULI
        for a in PACMAN_ARGS
    ]


def test_coupling_validation():
    with pytest.raises(ValueError):
        Coupling(lam=1.0, eta=0.5)  # exceeds eta
    with pytest.raises(ValueError):
        Coupling(lam=0.1 * np.exp(1j * (np.pi - 0.05)), epsilon=0.2)
    Coupling(lam=0.0)  # degenerate flag allowed


@pytest.mark.parametrize(
    "lam", [float("nan"), complex(0.01, float("nan")), float("inf"), complex(float("inf"), 0.0)]
)
def test_coupling_rejects_non_finite_lambda(lam):
    # every sector and modulus comparison is False for NaN, so it must be caught first
    with pytest.raises(ValueError, match="lambda"):
        Coupling(lam=lam)
    with pytest.raises(ValueError, match="eta"):
        Coupling(lam=0.01, eta=float("nan"))


def test_k_map_value():
    c = Coupling(lam=0.1, p=2)
    assert eval_map("k", c, 1.0) == pytest.approx(np.sqrt(1.1), rel=1e-12)


def test_lambda_zero_identities():
    c = Coupling(lam=0.0, p=2)
    for z in (0.3, -1.2 + 0.4j, 2.0j):
        assert eval_map("h", c, z) == z
        assert eval_map("k", c, z) == z
        assert eval_map("g", c, z) == 0.0
        assert inverse_residual(c, z) == 0.0


def test_inverse_pair_identity_point():
    c = Coupling(lam=0.1, p=2)
    assert inverse_residual(c, 0.7) <= 1e-12


def on_principal_sheet(c, z, margin=0.05, n_path=400):
    """True when h(k(z)) continues from the identity at z=0 without the
    intermediate branch argument crossing the cut [branch_point, inf).

    Along the radial homotopy t -> t*w with w = lam * z^(2p-2), the argument
    fed to the generating function is -tw (1 + tw)^(p-1); the composed map
    stays on the sheet of the series branch iff that path clears the cut and
    1 + tw stays away from the square-root cut of k.
    """
    w = complex(c.lam) * complex(z) ** (2 * c.p - 2)
    bp = c.params.branch_point
    tw = np.linspace(0.0, 1.0, n_path) * w
    zp = -tw * (1.0 + tw) ** (c.p - 1)
    on_right = zp.real >= bp
    d_cut = np.where(on_right, np.abs(zp.imag), np.abs(zp - bp))
    return bool(np.min(d_cut) > margin and np.min(np.abs(1.0 + tw)) > margin)


def test_inverse_pair_identity_grid():
    from loopvertex.fusscatalan import fc_cut_distance

    rng = np.random.default_rng(0)
    pts = 2.0 * (rng.uniform(-1, 1, 60) + 1j * rng.uniform(-1, 1, 60))
    pts = pts[np.abs(pts) <= 2.0]
    n_checked = 0
    for p in (2, 3):
        for c in pacman_couplings(p):
            # h(z) itself needs clearance from its cut rays; h(k(z)) needs the
            # intermediate branch argument to stay on the principal sheet
            clear = fc_cut_distance(c.params, complex(c.lam), pts) > 0.3
            kept = [z for z in pts[clear] if on_principal_sheet(c, z)]
            for z in kept[:30]:
                assert inverse_residual(c, complex(z)) <= 1e-9, (p, c.lam, z)
                n_checked += 1
    assert n_checked > 500


def test_inverse_pair_complex_coupling_point():
    c = Coupling(lam=0.05 * np.exp(2j), p=3)
    assert inverse_residual(c, 0.3 - 0.2j) <= 1e-10


def test_g_integral_representation():
    c = Coupling(lam=0.05, p=2)
    assert abs(g_integral_rep(c, 2.0) - eval_map("g", c, 2.0)) <= 1e-8
    c2 = Coupling(lam=0.05j, p=2)
    u = 1.0 + 0.5j
    assert abs(g_integral_rep(c2, u) - eval_map("g", c2, u)) <= 1e-8
    assert g_integral_rep(Coupling(lam=0.0, p=2), 1.3) == 0.0


def test_conjugation_symmetry_real_lambda():
    c = Coupling(lam=0.07, p=3)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
    for kind in ("f", "h", "k", "g"):
        v = np.asarray(eval_map(kind, c, pts))
        vbar = np.asarray(eval_map(kind, c, np.conj(pts)))
        assert np.max(np.abs(np.conj(v) - vbar)) <= 1e-12


def test_h_is_u_times_f():
    c = Coupling(lam=0.02 * np.exp(0.5j), p=2)
    u = 0.8 - 0.3j
    assert eval_map("h", c, u) == pytest.approx(u * eval_map("f", c, u), rel=1e-14)
    assert eval_map("g", c, u) == pytest.approx(
        eval_map("h", c, u) - u, rel=1e-12
    )
