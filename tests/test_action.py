import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopvertex.action import (
    COINCIDENCE_TOL,
    _h_third,
    _log_ratio_pairs,
    action_S,
    action_gradient,
    action_gradient_eigenvalues,
    action_hessian,
    action_split,
    corner_operator,
    divided_difference,
    jacobian_check,
    map_derivatives,
    resolvent_entries,
    sigma_contour,
    sigma_direct,
)
from loopvertex.contour import build_keyhole, holo_apply, min_spectrum_distance
from loopvertex.errors import LogBranchAmbiguityError, PoleCollisionError
from loopvertex.matrixcore import EnsembleSpec, SpectralData, eigh, sample_gaussian_batch
from loopvertex.scalarmaps import Coupling, eval_map, g_integral_rep, inverse_residual


def random_hermitian(n, beta, rng, scale=0.6):
    a = rng.standard_normal((n, n))
    if beta == 2:
        a = a + 1j * rng.standard_normal((n, n))
    return scale * (a + a.conj().T) / 2


def hermitian_basis(n, beta):
    """Orthonormal coordinate basis under <A, B> = Re Tr(A B)."""
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


def matrix_h(c, k):
    s = eigh(k)
    vals = np.asarray(eval_map("h", c, s.eigenvalues.astype(complex)))
    v = s.eigenvectors
    return (v * vals[None, :]) @ v.conj().T


def fd_jacobian_determinant(c, k, beta, step=1e-6):
    basis = hermitian_basis(k.shape[0], beta)
    cols = []
    for b in basis:
        hp = matrix_h(c, k + step * b)
        hm = matrix_h(c, k - step * b)
        d = (hp - hm) / (2 * step)
        cols.append([np.real(np.trace(d @ bb.conj().T)) for bb in basis])
    return np.linalg.det(np.array(cols).T)


def test_action_zero_coupling():
    s = eigh(np.diag([0.3, -0.7]))
    val = action_S(Coupling(lam=0.0, p=2), EnsembleSpec(N=2, beta=2), s)
    assert val.total == 0.0


def test_action_scalar_case_is_log_hp():
    c = Coupling(lam=0.08, p=2)
    s = eigh(np.array([[0.4]]))
    md = map_derivatives(c, np.array([0.4 + 0j]))
    for beta in (1, 2):
        val = action_S(c, EnsembleSpec(N=1, beta=beta), s)
        assert val.total == pytest.approx(complex(np.log(md["hp"][0])), rel=1e-12)


def test_beta2_single_trace_part_vanishes():
    c = Coupling(lam=0.05, p=3)
    s = eigh(np.diag([0.2, -0.5, 0.9]))
    val = action_S(c, EnsembleSpec(N=3, beta=2), s)
    assert val.single_trace_part == 0.0


@pytest.mark.parametrize("beta", [1, 2])
@pytest.mark.parametrize("p", [2, 3])
def test_exp_action_equals_jacobian_determinant(beta, p):
    rng = np.random.default_rng(p * 10 + beta)
    c = Coupling(lam=0.15, p=p)
    for n in (1, 2):
        k = random_hermitian(n, beta, rng)
        s = eigh(k)
        lhs = np.exp(action_S(c, EnsembleSpec(N=n, beta=beta), s).total)
        rhs = fd_jacobian_determinant(c, k, beta)
        assert abs(lhs - rhs) / abs(rhs) <= 1e-5


def test_action_split_consistency():
    c = Coupling(lam=0.05, p=2)
    rng = np.random.default_rng(4)
    k = random_hermitian(3, 2, rng)
    s = eigh(k)
    s1, s2 = action_split(c, s)
    total = action_S(c, EnsembleSpec(N=3, beta=2), s).total
    assert s1 + s2 == pytest.approx(total, rel=1e-12)
    # scalar case: S1 = (1/2) log T
    s1_scalar, s2_scalar = action_split(c, eigh(np.array([[0.6]])))
    md = map_derivatives(c, np.array([0.6 + 0j]))
    assert s1_scalar == pytest.approx(0.5 * md["logt"][0], rel=1e-12)
    assert s2_scalar == pytest.approx(
        np.log(md["hp"][0]) - 0.5 * md["logt"][0], rel=1e-10
    )


def test_resolvent_entries_values():
    c0 = Coupling(lam=0.0, p=2)
    s = eigh(np.diag([0.1, -0.4]))
    res = resolvent_entries(c0, s)
    assert np.allclose(res.values, 1.0)
    c = Coupling(lam=0.1, p=2)
    s3 = eigh(np.diag([-2.0, 0.0, 2.0]))
    res3 = resolvent_entries(c, s3)
    # identity (1 + Sigma) entrywise-inverse: values * (1 + sigma) = 1
    sig = sigma_direct(c, s3)
    assert np.max(np.abs(res3.values * (1.0 + sig) - 1.0)) <= 1e-10
    assert np.all(res3.lambda_bounds >= 1.0)


def test_sigma_contour_matches_direct():
    c = Coupling(lam=0.05, p=2)
    gamma = build_keyhole(2.0, c, n_nodes=2048)
    rng = np.random.default_rng(5)
    for _ in range(5):
        s = eigh(random_hermitian(2, 2, rng))
        num = sigma_contour(c, gamma, s)
        ref = sigma_direct(c, s)
        assert np.max(np.abs(num - ref)) <= 1e-6


def test_sigma_zero_coupling_and_diagonal():
    c = Coupling(lam=0.05, p=2)
    s = eigh(np.diag([0.3, -0.2]))
    sig = sigma_direct(c, s)
    md = map_derivatives(c, s.eigenvalues.astype(complex))
    assert sig[0, 0] == pytest.approx(md["hp"][0] - 1.0, rel=1e-12)
    c0 = Coupling(lam=0.0, p=2)
    assert np.all(sigma_direct(c0, s) == 0)


def test_corner_operator():
    c = Coupling(lam=0.05, p=2)
    s = eigh(np.diag([0.3, -0.2]))
    o = corner_operator(c, s, 1.0 + 1.0j, -1.0 + 0.5j)
    assert np.all(np.isfinite(o))
    with pytest.raises(PoleCollisionError):
        corner_operator(c, s, 0.3 + 0j, 1.0j)
    # zero coupling: pure resolvent products
    c0 = Coupling(lam=0.0, p=2)
    u, v = 1.0 + 1.0j, -0.5 + 0.8j
    o0 = corner_operator(c0, s, u, v)
    kappa = s.eigenvalues
    ru = 1.0 / (u - kappa)
    rv = 1.0 / (v - kappa)
    expected = ru[:, None] * rv[:, None] * ru[None, :] + ru[:, None] * ru[None, :] * rv[None, :]
    assert np.max(np.abs(o0 - expected)) <= 1e-12


def test_gradient_fd_agreement():
    rng = np.random.default_rng(6)
    step = 1e-5
    for beta in (1, 2):
        for p in (2, 3):
            spec = EnsembleSpec(N=2, beta=beta)
            c = Coupling(lam=0.05, p=p)
            k = random_hermitian(2, beta, rng)
            s = eigh(k)
            g = action_gradient(c, spec, s)
            for b in hermitian_basis(2, beta):
                sp = action_S(c, spec, eigh(k + step * b)).total
                sm = action_S(c, spec, eigh(k - step * b)).total
                fd = (sp - sm) / (2 * step)
                analytic = np.trace(g @ b)
                assert abs(fd - analytic) <= 1e-5 * max(1.0, abs(analytic))


def test_gradient_zero_coupling_and_scalar():
    spec = EnsembleSpec(N=2, beta=2)
    s = eigh(np.diag([0.1, 0.7]))
    assert np.all(action_gradient(Coupling(lam=0.0, p=2), spec, s) == 0)
    c = Coupling(lam=0.05, p=2)
    s1 = eigh(np.array([[0.4]]))
    md = map_derivatives(c, np.array([0.4 + 0j]))
    g = action_gradient(c, EnsembleSpec(N=1, beta=2), s1)
    assert g[0, 0] == pytest.approx(md["hpp"][0] / md["hp"][0], rel=1e-10)


def test_jacobian_check_positive():
    rep = jacobian_check(2, 1.0, [-1.0, 2.0])
    assert rep["overall_positive"]
    rep2 = jacobian_check(3, 10.0, [0.5, 0.5])
    assert rep2["overall_positive"]


@pytest.mark.parametrize("lam", [0.0, -1.0, float("nan"), float("inf")])
def test_jacobian_check_rejects_lambda_outside_zero_to_inf(lam):
    with pytest.raises(ValueError, match=f"lambda < inf, got {lam}"):
        jacobian_check(2, lam, [-1.0, 2.0])


def _reference_divided_difference(x, fx, dfx):
    """Per-spectrum loop: (fx_i - fx_j)/(x_i - x_j), mean derivative if coincident."""
    n = len(x)
    out = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            if abs(x[i] - x[j]) < COINCIDENCE_TOL:
                out[i, j] = 0.5 * (dfx[i] + dfx[j])
            else:
                out[i, j] = (fx[i] - fx[j]) / (x[i] - x[j])
    return out


@st.composite
def _coincident_spectra(draw):
    """(B, N) spectra where some entries repeat exactly or within 1e-9."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(1, 4))
    real = st.floats(-2.0, 2.0, allow_nan=False)
    eigs = np.array(draw(st.lists(st.lists(real, min_size=n, max_size=n),
                                  min_size=b, max_size=b)))
    for row in eigs:
        if n >= 2:
            i, j = draw(st.permutations(range(n)))[:2]
            kind = draw(st.sampled_from(["exact", "near", "none"]))
            if kind == "exact":
                row[j] = row[i]
            elif kind == "near":
                row[j] = row[i] + draw(st.floats(-9e-10, 9e-10))
    return eigs


@given(_coincident_spectra(), st.sampled_from([2, 3]),
       st.sampled_from([0.05, 0.05j, -0.04 + 0.02j]))
@settings(max_examples=40)
def test_divided_difference_kernel_matches_per_spectrum_reference(eigs, p, lam):
    md = map_derivatives(Coupling(lam=lam, p=p), eigs)
    got = divided_difference(eigs, md["h"], md["hp"])
    assert got.shape == eigs.shape + eigs.shape[-1:]
    for b in range(eigs.shape[0]):
        ref = _reference_divided_difference(eigs[b], md["h"][b], md["hp"][b])
        assert np.array_equal(got[b], ref)


def test_batched_resolvent_and_corner_match_single_spectra():
    c = Coupling(lam=0.05 * np.exp(1.2j), p=3)
    eigs = np.sort(np.random.default_rng(3).uniform(-0.4, 0.4, (5, 3)), axis=1)
    u = np.array([1.0 + 0.3j, -0.7 + 0.9j])
    v = np.array([0.2 - 1.1j, 1.3 + 0.1j])
    res = resolvent_entries(c, eigs)
    corner = corner_operator(c, eigs, u, v)
    assert corner.shape == (5, 2, 3, 3)
    for b, row in enumerate(eigs):
        s = eigh(np.diag(row))
        single = resolvent_entries(c, s)
        assert np.array_equal(res.values[b], single.values)
        assert np.array_equal(res.lambda_bounds[b], single.lambda_bounds)
        for k in range(2):
            assert np.array_equal(corner[b, k], corner_operator(c, s, u[k], v[k]))


def test_batched_corner_operator_pole_collision():
    c = Coupling(lam=0.05, p=2)
    eigs = np.array([[0.1, 0.2, 0.3], [-0.3, 0.0, 0.25]])
    nodes = np.array([1.0 + 1.0j, 0.25 + 0.0j])
    with pytest.raises(PoleCollisionError, match=r"contour point \(?0\.25"):
        corner_operator(c, eigs, nodes, np.array([0.5j, -0.5j]))
    with pytest.raises(PoleCollisionError, match="eigenvalue"):
        corner_operator(c, eigs, np.array([0.5j, -0.5j]), nodes)


def test_log_branch_error_names_pair_and_ratio():
    kappa = np.array([0.0, 1.0, 2.0]) + 0j
    h = np.array([0.0, -1.0, 2.0]) + 0j  # (h_0 - h_1)/(k_0 - k_1) = -1
    with pytest.raises(LogBranchAmbiguityError) as err:
        _log_ratio_pairs(kappa, h, np.ones(3, dtype=complex))
    msg = str(err.value)
    assert "action log-ratio" in msg
    assert "pair (0, 1)" in msg and "(0+0j, 1+0j)" in msg
    assert "divided difference -1" in msg


def test_gradient_eigenvalues_batch_first():
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=3, beta=1)
    eigs = np.sort(np.random.default_rng(8).uniform(-1, 1, (4, 3)), axis=1)
    got = action_gradient_eigenvalues(c, spec, eigs)
    for b, row in enumerate(eigs):
        single = action_gradient_eigenvalues(c, spec, eigh(np.diag(row)))
        assert np.array_equal(got[b], single)


def test_action_S_batch_first():
    c = Coupling(lam=0.05 * np.exp(0.8j), p=3)
    eigs = np.sort(np.random.default_rng(5).uniform(-1, 1, (4, 3)), axis=1)
    for beta in (1, 2):
        spec = EnsembleSpec(N=3, beta=beta)
        got = action_S(c, spec, eigs)
        assert got.total.shape == (4,)
        for b, row in enumerate(eigs):
            single = action_S(c, spec, eigh(np.diag(row)))
            assert got.total[b] == single.total
            assert got.single_trace_part[b] == single.single_trace_part
    # the log-branch check reaches every spectrum of a batch
    kappa = np.array([[0.1, 0.2, 0.3], [0.0, 1.0, 2.0]])
    h = np.array([[0.1, 0.2, 0.3], [0.0, -1.0, 2.0]]) + 0j
    with pytest.raises(LogBranchAmbiguityError, match=r"pair \(0, 1\)"):
        _log_ratio_pairs(kappa, h, np.ones((2, 3), dtype=complex))


def _central_difference_hessian(c, spec, k, x, step=1e-5):
    """d/d eps action_gradient(K + eps X), X split into Hermitian parts."""
    out = 0.0
    for coeff, d in ((1.0, (x + x.conj().T) / 2), (1j, (x - x.conj().T) / 2j)):
        gp = action_gradient(c, spec, eigh(k + step * d))
        gm = action_gradient(c, spec, eigh(k - step * d))
        out = out + coeff * (gp - gm) / (2 * step)
    return out


@settings(max_examples=40, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.sampled_from([2, 3]),
    mod=st.floats(1e-3, 0.2),
    arg=st.one_of(st.just(0.0), st.floats(-(np.pi - 0.3), np.pi - 0.3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_action_hessian_matches_central_difference_property(p, n, mod, arg, seed):
    rng = np.random.default_rng(seed)
    c = Coupling(lam=mod * np.exp(1j * arg), p=p)
    spec = EnsembleSpec(N=n, beta=2)
    k = random_hermitian(n, 2, rng)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    exact = action_hessian(c, spec, eigh(k), x)
    fd = _central_difference_hessian(c, spec, k, x)
    assert np.linalg.norm(exact - fd) <= 1e-6 * np.linalg.norm(fd)
    # batch-first: a stack of the same problem gives the same matrices
    stack = action_hessian(c, spec, eigh(np.stack([k, k])), np.stack([x, x]))
    assert np.allclose(stack, exact, rtol=1e-13, atol=0)


@pytest.mark.parametrize("p", [2, 3])
def test_action_hessian_coincidence_limit_is_continuous(p):
    # at a repeated eigenvalue the quotients take their per-index limits;
    # the limit is right when spectra approaching it converge to first order
    rng = np.random.default_rng(p)
    c = Coupling(lam=0.1 * np.exp(0.7j), p=p)
    spec = EnsembleSpec(N=3, beta=2)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))

    def at_gap(gap):
        k = q @ np.diag([0.3 + gap, 0.3, -0.5]) @ q.conj().T
        return action_hessian(c, spec, eigh((k + k.conj().T) / 2), x)

    limit = at_gap(0.0)
    far, near = (np.linalg.norm(at_gap(g) - limit) for g in (1e-2, 1e-3))
    assert near <= 0.15 * far and near <= 1e-2 * np.linalg.norm(limit)


def test_action_hessian_zero_coupling():
    s = eigh(np.diag([0.1, 0.7]))
    x = np.array([[1.0, 2.0j], [0.5, -1.0]])
    assert np.all(action_hessian(Coupling(lam=0.0, p=2), EnsembleSpec(N=2), s, x) == 0)


@settings(max_examples=40, deadline=None)
@given(
    p=st.integers(2, 6),
    beta=st.sampled_from([1, 2]),
    size=st.integers(1, 4),
    n=st.integers(1, 6),
    u=st.lists(
        st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
        min_size=1, max_size=5,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_zero_coupling_general_path_property(p, beta, size, n, u, seed):
    # lam = 0 takes the general path: T_p(0) = 1 makes every map the identity
    c = Coupling(lam=0.0, p=p)
    u = np.array(u, dtype=complex)
    assert np.all(eval_map("f", c, u) == 1.0)
    assert np.all(eval_map("h", c, u) == u)
    assert np.all(eval_map("k", c, u) == u)
    assert np.all(eval_map("g", c, u) == 0.0)
    assert np.all(inverse_residual(c, u) == 0.0)
    assert all(g_integral_rep(c, ui) == 0.0 for ui in u)
    md = map_derivatives(c, u)
    assert np.all(md["h"] == u) and np.all(md["hp"] == 1.0) and np.all(md["hpp"] == 0.0)

    rng = np.random.default_rng(seed)
    spec = EnsembleSpec(N=n, beta=beta)
    s = eigh(sample_gaussian_batch(spec, rng, size))
    x = rng.standard_normal((size, n, n)) + 1j * rng.standard_normal((size, n, n))
    val = action_S(c, spec, s)
    for part in (val.total, val.single_trace_part, val.double_trace_part):
        assert np.max(np.abs(part)) <= 1e-13
    assert np.max(np.abs(sigma_direct(c, s))) <= 1e-13
    assert np.max(np.abs(resolvent_entries(c, s).values - 1.0)) <= 1e-13
    # the resolvent's divided difference is 1 up to one rounding, which the
    # gradient's gap quotients amplify by 1/gap and the Hessian's by 1/gap^2
    gap = np.min(np.diff(s.eigenvalues, axis=-1), initial=np.inf)
    assert np.max(np.abs(action_gradient(c, spec, s))) <= 1e-13 * (1 + 1 / gap)
    assert np.max(np.abs(action_hessian(c, spec, s, x))) <= 1e-13 * (1 + 1 / gap**2)


def test_h_third_matches_mpmath_closed_form():
    mpmath = pytest.importorskip("mpmath")

    def h(u, lam):  # p = 2: h(u) = u sqrt(T_2(-lam u^2)), T_2(z) = (1 - sqrt(1 - 4z))/2z
        z = -lam * u**2
        return u * mpmath.sqrt((1 - mpmath.sqrt(1 - 4 * z)) / (2 * z))

    u = np.array([0.3, -0.8, 1.2, 0.05 + 0.1j])
    for lam in (0.1, 0.07 * np.exp(1.1j), 0.15 * np.exp(-2.5j)):
        c = Coupling(lam=lam, p=2)
        got = _h_third(c, map_derivatives(c, u))
        with mpmath.workdps(40):
            for ui, gi in zip(u, got):
                lam_mp = mpmath.mpc(lam)
                ref = complex(mpmath.diff(lambda v: h(v, lam_mp), mpmath.mpc(ui), 3))
                assert abs(gi - ref) <= 1e-10 * abs(ref), (lam, ui, gi, ref)


_BATCH_COUPLINGS = (Coupling(lam=0.05, p=2), Coupling(lam=0.05 * np.exp(1.2j), p=3))


@pytest.fixture(scope="module")
def batch_keyholes():
    return [build_keyhole(2.0, c) for c in _BATCH_COUPLINGS]


def _batch_first_values(c, spec, gamma, s):
    return {
        "action_gradient": action_gradient(c, spec, s),
        "action_split": np.stack(action_split(c, s), axis=-1),
        "sigma_contour": sigma_contour(c, gamma, s),
        "holo_apply": holo_apply(lambda u: eval_map("h", c, u), gamma, s),
        "cauchy": gamma.cauchy(s.eigenvalues),
        "min_spectrum_distance": min_spectrum_distance(gamma, s.eigenvalues),
        "jacobian_check": jacobian_check(c.p, abs(complex(c.lam)), s.eigenvalues)["positive"],
    }


@settings(max_examples=30, deadline=None)
@given(
    beta=st.sampled_from([1, 2]),
    size=st.integers(1, 4),
    n=st.integers(1, 4),
    which=st.integers(0, len(_BATCH_COUPLINGS) - 1),
    seed=st.integers(0, 2**32 - 1),
)
def test_batch_first_equals_row_by_row(batch_keyholes, beta, size, n, which, seed):
    c, gamma = _BATCH_COUPLINGS[which], batch_keyholes[which]
    spec = EnsembleSpec(N=n, beta=beta)
    s = eigh(0.3 * sample_gaussian_batch(spec, np.random.default_rng(seed), size))
    # on these radius-2 keyholes holo_apply's Cauchy self-test passes for
    # |mu| < 0.93 only, and fails in bands from there to 1.86
    assume(np.all(np.abs(s.eigenvalues) < 0.9))
    batch = _batch_first_values(c, spec, gamma, s)
    for k in range(size):
        row = SpectralData(s.eigenvalues[k], s.eigenvectors[k])
        for name, value in _batch_first_values(c, spec, gamma, row).items():
            np.testing.assert_allclose(
                batch[name][k], value, rtol=1e-13, atol=1e-15, err_msg=name
            )
