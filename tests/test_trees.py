import numpy as np
import pytest

from loopvertex.errors import BudgetExceededError, OutOfRangeError
from loopvertex.action import action_S, map_derivatives
from loopvertex.matrixcore import EnsembleSpec, sample_gaussian_batch
from loopvertex.partition import free_energy, gaussian_moment_exact
from loopvertex import matrixcore, trees
from loopvertex.scalarmaps import Coupling
from loopvertex.trees import (
    LabeledTree,
    WeakeningVector,
    bkar_x_matrix,
    enumerate_trees,
    lve_truncated_F,
    prufer_decode,
    prufer_encode,
    single_vertex_amplitude,
    tree_amplitude,
)


def test_cayley_counts():
    expected = {1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296, 7: 16807}
    for n, count in expected.items():
        trees = list(enumerate_trees(n))
        assert len(trees) == count
        assert len({tuple(sorted(t.edges)) for t in trees}) == count


def test_enumerate_range_guard():
    with pytest.raises(OutOfRangeError):
        list(enumerate_trees(0))
    with pytest.raises(OutOfRangeError):
        list(enumerate_trees(8))


def test_prufer_roundtrip():
    for n in (3, 5, 7):
        for t in enumerate_trees(n):
            assert prufer_decode(prufer_encode(t), n).edges == t.edges


def test_tree_degrees():
    t = LabeledTree(4, ((1, 2), (2, 3), (3, 4)))
    assert t.degrees() == {1: 1, 2: 2, 3: 2, 4: 1}


def test_bkar_path_minimum_rule():
    # path 1-2-3: x_13 = min(w_12, w_23)
    t = LabeledTree(3, ((1, 2), (2, 3)))
    w = WeakeningVector({(1, 2): 0.7, (2, 3): 0.2})
    x = bkar_x_matrix(t, w)
    assert np.allclose(np.diag(x), 1.0)
    assert x[0, 1] == pytest.approx(0.7)
    assert x[1, 2] == pytest.approx(0.2)
    assert x[0, 2] == pytest.approx(0.2)
    assert np.allclose(x, x.T)


def test_bkar_forest_and_saturation():
    t = LabeledTree(3, ((1, 2), (2, 3)))
    x0 = bkar_x_matrix(t, WeakeningVector({(1, 2): 0.5, (2, 3): 0.0}))
    assert x0[0, 2] == 0.0 and x0[1, 2] == 0.0
    x1 = bkar_x_matrix(t, WeakeningVector({(1, 2): 1.0, (2, 3): 1.0}))
    assert np.allclose(x1, 1.0)


def test_bkar_matrices_positive_semidefinite():
    rng = np.random.default_rng(0)
    for n in (2, 4, 6):
        for t in [prufer_decode(tuple(int(v) for v in rng.integers(1, n + 1, max(n - 2, 0))), n)
                  for _ in range(20)]:
            for _ in range(20):
                w = WeakeningVector({e: rng.uniform() for e in t.edges})
                x = bkar_x_matrix(t, w)
                eigs = np.linalg.eigvalsh(x)
                assert eigs.min() >= -1e-12


def test_bkar_rejects_bad_weights():
    t = LabeledTree(2, ((1, 2),))
    with pytest.raises(ValueError):
        bkar_x_matrix(t, WeakeningVector({(1, 2): 1.5}))
    with pytest.raises(ValueError):
        bkar_x_matrix(t, WeakeningVector({(1, 2): np.array([0.5, -0.1])}))
    triangle = LabeledTree(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="forest"):
        bkar_x_matrix(triangle, WeakeningVector({(1, 2): 0.5, (2, 3): 0.5, (1, 3): 0.5}))


def _widest_path_reference(t, w):
    """Per-vector loop: a widest-path search from every vertex."""
    x = np.zeros((t.n, t.n))
    np.fill_diagonal(x, 1.0)
    adj = {v: [] for v in range(1, t.n + 1)}
    for (i, j), val in w.w.items():
        adj[i].append((j, val))
        adj[j].append((i, val))
    for start in range(1, t.n + 1):
        best = {start: np.inf}
        stack = [start]
        while stack:
            v = stack.pop()
            for u, val in adj[v]:
                cand = min(best[v], val)
                if cand > best.get(u, -1.0):
                    best[u] = cand
                    stack.append(u)
        for u, val in best.items():
            if u != start:
                x[start - 1, u - 1] = val
    return x


def test_bkar_batch_matches_per_vector_reference_on_criterion_11_grid():
    rng = np.random.default_rng(8)
    for n in range(2, 7):
        for t in enumerate_trees(n):
            n_w = max(1000 // n ** max(n - 2, 0), 1) + 2
            cols = rng.uniform(size=(len(t.edges), n_w))
            batch = bkar_x_matrix(t, WeakeningVector(dict(zip(t.edges, cols))))
            assert batch.shape == (n_w, n, n)
            for s in range(n_w):
                w = WeakeningVector({e: float(col[s]) for e, col in zip(t.edges, cols)})
                ref = _widest_path_reference(t, w)
                assert np.array_equal(bkar_x_matrix(t, w), ref)
                assert np.array_equal(batch[s], ref)


def test_zero_coupling_amplitudes_vanish():
    spec = EnsembleSpec(N=2, beta=2)
    c0 = Coupling(lam=0.0, p=2)
    a = single_vertex_amplitude(c0, spec, 100)
    assert a.value == 0.0
    t = LabeledTree(2, ((1, 2),))
    est = tree_amplitude(c0, spec, t, {"n_w": 4, "n_mc": 4, "seed": 0})
    assert est.value == 0.0


def test_single_vertex_quadrature_value():
    # frozen by an independent high-node quadrature run
    spec = EnsembleSpec(N=2, beta=2)
    a = single_vertex_amplitude(Coupling(lam=0.005, p=2), spec, 100)
    assert a.value.real == pytest.approx(-0.0027815360, abs=1e-8)
    assert a.stderr <= 1e-10


def test_single_vertex_grid_levels_visited_once(monkeypatch):
    visited = []
    layout = trees._panel_layout

    def spy(half, n_panels):
        visited.append(n_panels)
        return layout(half, n_panels)

    monkeypatch.setattr(trees, "_panel_layout", spy)
    a = single_vertex_amplitude(Coupling(lam=0.05, p=2), EnsembleSpec(N=2, beta=2), 0)
    assert visited == [4, 8]
    # one evaluation per level keeps A, A1 and A2 at their pinned values,
    # up to summation order in the last bits
    pinned = [
        ("-0x1.a1be15fc168c9p-6", "-0x1.0e49e1522f6e1p-209"),
        ("-0x1.7c17899f7576fp-7", "-0x1.99b5ffe92274bp-210"),
        ("-0x1.c764a258b7a23p-7", "-0x1.05bb857678ceep-211"),
    ]
    for v, (re, im) in zip((a.value, a.a1, a.a2), pinned):
        assert v == pytest.approx(complex(float.fromhex(re), float.fromhex(im)), rel=1e-14)


@pytest.mark.parametrize("c", [
    Coupling(lam=0.05, p=2),
    Coupling(lam=0.1 * np.exp(2.5j), p=2),
    Coupling(lam=0.1 * np.exp(-1.2j), p=3),
    Coupling(lam=1e-4 * np.exp(0.3j), p=6),
    Coupling(lam=1e-4, p=4),
    Coupling(lam=0.05, p=6),
])
@pytest.mark.parametrize("n_panels", [4, 8, 64])
def test_mirrored_maps_match_full_map_derivatives(c, n_panels):
    # the left half of the layout is the exact negation of the right half;
    # complex maps are exactly odd (h) and even (h', t) there, so mirroring
    # loses no bit.  numpy's real u ** (2p - 2) is not exactly even in u for
    # 2p - 2 > 2 (a few ulp on some nodes), so a float lambda at p >= 3 is
    # held to 1e-14 (measured at most 2e-15 for p = 2..6)
    nodes, _, _ = trees._panel_layout(trees._half_width(3, 0.0), n_panels)
    mu = nodes.ravel()
    md = map_derivatives(c, mu)
    for got, key in zip(trees._mirrored_maps(c, mu), ("h", "hp", "t")):
        assert got.dtype == md[key].dtype
        if np.iscomplexobj(got) or c.p == 2:
            assert got.tobytes() == md[key].tobytes(), key
        else:
            np.testing.assert_allclose(got, md[key], rtol=1e-14, atol=0, err_msg=key)


@pytest.mark.parametrize("p", [2, 3])
def test_float_coupling_single_vertex_matches_complex_path(p):
    # a float lambda keeps the maps and the pair logs real
    spec = EnsembleSpec(N=3, beta=2)
    for lam in (1e-4, 1e-2, 0.1):
        real = single_vertex_amplitude(Coupling(lam=lam, p=p), spec)
        cplx = single_vertex_amplitude(Coupling(lam=complex(lam), p=p), spec)
        assert real.n_mc_samples == cplx.n_mc_samples
        for a, b in ((real.value, cplx.value), (real.a1, cplx.a1), (real.a2, cplx.a2)):
            assert a.imag == 0.0
            assert a == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize(
    "c, pinned",
    [
        (Coupling(lam=0.05, p=2), (
            -0.024155204999173747 - 1.2836789994930845e-66j,
            -0.011640448691656882 - 8.020807410099706e-67j,
            -0.012514756307516865 - 4.815982584831139e-67j,
        )),
        (Coupling(lam=0.1 * np.exp(2.5j), p=2), (
            0.04116020705553604 - 0.04483178326714184j,
            0.01988830647514383 - 0.019873776862278012j,
            0.021271900580392213 - 0.02495800640486383j,
        )),
        (Coupling(lam=0.1 * np.exp(-1.2j), p=3), (
            -0.03443577584231635 + 0.04251746032254168j,
            -0.011933299784944848 + 0.016315066821665402j,
            -0.022502476057371504 + 0.02620239350087628j,
        )),
    ],
)
def test_single_vertex_pinned_at_n3(c, pinned):
    # A, A1, A2 from the former 128^3-point tensor grid at N = 3
    a = single_vertex_amplitude(c, EnsembleSpec(N=3, beta=2), 0)
    for v, ref in zip((a.value, a.a1, a.a2), pinned):
        assert v == pytest.approx(ref, rel=1e-13)


@pytest.mark.parametrize(
    "c",
    [
        Coupling(lam=0.05, p=2),
        Coupling(lam=0.05 * np.exp(2.5j), p=2),
        Coupling(lam=0.05 * np.exp(1.5j), p=3),
    ],
    ids=["p2-real", "p2-arg2.5", "p3-arg1.5"],
)
def test_single_vertex_converges_like_inverse_n_squared(c):
    # A_empty = A_planar + O(1/N^2): doubling N quarters the step
    values = [
        single_vertex_amplitude(c, EnsembleSpec(N=n, beta=2)).value
        for n in (6, 12, 24, 48)
    ]
    steps = np.abs(np.diff(values))
    ratios = steps[:-1] / steps[1:]
    assert np.all((ratios >= 3.5) & (ratios <= 4.5)), ratios


def test_single_vertex_matches_monte_carlo_oracle():
    # the mean of action_S over GUE draws, independent of the kernel sums
    spec = EnsembleSpec(N=4, beta=2)
    c = Coupling(lam=0.05, p=2)
    rng = np.random.default_rng(4)
    draws = np.linalg.eigvalsh(sample_gaussian_batch(spec, rng, 20000))
    s_vals = action_S(c, spec, draws).total.real / spec.N**2
    se = s_vals.std() / np.sqrt(len(s_vals))
    exact = single_vertex_amplitude(c, spec)
    assert abs(exact.value.real - s_vals.mean()) <= 4 * se
    assert exact.stderr <= 1e-12


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_single_vertex_amplitude_is_first_order_in_lambda(p, n):
    # A_empty = -lambda m_2p / N + O(lambda^2): the first-order free-energy
    # coefficient, so the amplitude's small-coupling log-log slope is 1
    lam = 1e-4
    a = single_vertex_amplitude(Coupling(lam=lam, p=p), EnsembleSpec(N=n, beta=2), 0)
    target = -float(gaussian_moment_exact(n, p, 2)) / n
    assert a.value.real / lam == pytest.approx(target, rel=0.01)


def test_budget_guards():
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.01, p=2)
    star = LabeledTree(4, ((1, 2), (1, 3), (1, 4)))
    with pytest.raises(BudgetExceededError):
        tree_amplitude(c, spec, star, {"n_w": 2, "n_mc": 2, "seed": 0})
    # no N cap: sampled trees run at N = 5, chunked by replica-matrix entries
    big = EnsembleSpec(N=5, beta=2)
    pair = LabeledTree(2, ((1, 2),))
    est = tree_amplitude(c, big, pair, {"n_w": 2, "n_mc": 2, "seed": 0})
    assert np.isfinite(est.value) and np.isfinite(est.stderr)
    single = tree_amplitude(c, big, LabeledTree(1, ()))
    assert single.value == single_vertex_amplitude(c, big).value


@pytest.mark.parametrize("n_w, n_mc", [(0, 64), (1, 1), (-1, 4), (-1, -4)])
def test_sampled_tree_needs_two_samples(n_w, n_mc):
    with pytest.raises(
        OutOfRangeError,
        match=rf"got n_w={n_w}, n_mc={n_mc} \(lam=0\.01\+0j, p=2, N=2, beta=2\)$",
    ):
        tree_amplitude(Coupling(lam=0.01, p=2), EnsembleSpec(N=2, beta=2),
                       LabeledTree(2, ((1, 2),)), {"n_w": n_w, "n_mc": n_mc, "seed": 0})


def test_two_vertex_stderr_scaling():
    # pooled error should shrink like 1/sqrt(n)
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.01, p=2)
    t = LabeledTree(2, ((1, 2),))
    ns = [400, 1600, 6400]
    errs = []
    for n in ns:
        est = tree_amplitude(c, spec, t, {"n_w": n, "n_mc": 1, "seed": 5})
        errs.append(est.stderr)
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert slope == pytest.approx(-0.5, abs=0.15)


def test_two_vertex_seed_reproducibility():
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.01, p=2)
    t = LabeledTree(2, ((1, 2),))
    a = tree_amplitude(c, spec, t, {"n_w": 500, "n_mc": 2, "seed": 11})
    b = tree_amplitude(c, spec, t, {"n_w": 500, "n_mc": 2, "seed": 11})
    assert a.value == b.value and a.stderr == b.stderr


def test_two_vertex_value_pinned_at_fixed_seed():
    # one sampling stream per call; this is the value it gives
    t = LabeledTree(2, ((1, 2),))
    est = tree_amplitude(Coupling(lam=0.05, p=2), EnsembleSpec(N=2, beta=2), t,
                         {"n_w": 50, "n_mc": 40, "seed": 13})
    assert est.value.real == pytest.approx(0.00105000186542636, rel=1e-12)
    assert est.stderr == pytest.approx(3.112328130705778e-05, rel=1e-9)


@pytest.mark.parametrize("edges", [((1, 2),), ((1, 2), (2, 3))])
def test_amplitude_same_with_lapack_2x2(edges, monkeypatch):
    # the closed-form 2 x 2 eigh against LAPACK on the same draws
    t = LabeledTree(len(edges) + 1, edges)
    c, spec = Coupling(lam=0.05, p=2), EnsembleSpec(N=2, beta=2)
    params = {"n_w": 40, "n_mc": 25, "seed": 17}
    closed = tree_amplitude(c, spec, t, params)
    monkeypatch.setattr(matrixcore, "_eigh_2x2", np.linalg.eigh)
    lapack = tree_amplitude(c, spec, t, params)
    assert closed.value == pytest.approx(lapack.value, rel=1e-12)
    assert closed.stderr == pytest.approx(lapack.stderr, rel=1e-12)


def test_three_vertex_seed_reproducibility():
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.01 * np.exp(1.5j), p=3)
    t = LabeledTree(3, ((1, 3), (2, 3)))
    a = tree_amplitude(c, spec, t, {"n_w": 30, "n_mc": 5, "seed": 11})
    b = tree_amplitude(c, spec, t, {"n_w": 30, "n_mc": 5, "seed": 11})
    assert a.value == b.value and a.stderr == b.stderr
    other = tree_amplitude(c, spec, t, {"n_w": 30, "n_mc": 5, "seed": 12})
    assert other.value != a.value


def test_three_vertex_value_pinned_at_fixed_seed():
    # one sampling stream per call, replicas drawn replica-major; this is
    # the value it gives
    t = LabeledTree(3, ((1, 2), (2, 3)))
    est = tree_amplitude(Coupling(lam=0.05, p=2), EnsembleSpec(N=2, beta=2), t,
                         {"n_w": 50, "n_mc": 40, "seed": 13})
    assert est.value.real == pytest.approx(-3.099690948188302e-05, rel=1e-12)
    assert est.stderr == pytest.approx(1.3586440920840302e-06, rel=1e-9)


def test_single_vertex_settles_at_n128():
    # the former 256-node Gauss-Hermite rule stalled here; the panels
    # settle at 64 and the value sits on the 1/N^2 trend of N = 32 and 96
    c = Coupling(lam=0.05, p=2)
    a = {n: single_vertex_amplitude(c, EnsembleSpec(N=n, beta=2)) for n in (32, 96, 128)}
    assert a[128].n_mc_samples == 64 * 16
    b = (a[32].value - a[96].value) / (32.0**-2 - 96.0**-2)
    trend = a[96].value + b * (128.0**-2 - 96.0**-2)
    assert abs(a[128].value - trend) <= 1e-4 * abs(a[32].value - a[96].value)


def _mean_log_hp_n1(c):
    """E[log h'(mu)] under exp(-mu^2)/sqrt(pi) by mpmath: the N = 1 amplitude.

    h solves h^2 + lam h^(2p) = mu^2 (polished from the package's root),
    and h'(mu) = (mu / h) / (1 + p lam h^(2p-2)).
    """
    import mpmath as mp

    from loopvertex.action import map_derivatives

    p, lam = c.p, mp.mpc(complex(c.lam))

    def integrand(mu):
        start = complex(map_derivatives(c, np.array([complex(mu)]))["h"][0])
        h = mp.findroot(lambda v: v**2 + lam * v ** (2 * p) - mu**2, mp.mpc(start))
        hp = (mu / h) / (1 + p * lam * h ** (2 * p - 2))
        return mp.log(hp) * mp.exp(-(mu**2)) / mp.sqrt(mp.pi)

    with mp.workdps(20):
        return complex(mp.quad(integrand, [-9, -4, -2, 0, 2, 4, 9]))


def test_single_vertex_p3_near_sector_edge_converges():
    # p = 3, arg lam = 2.5 stalled the Gauss-Hermite rule at N = 1, 2, 3
    c = Coupling(lam=0.05 * np.exp(2.5j), p=3)
    for n in (1, 2, 3):
        a = single_vertex_amplitude(c, EnsembleSpec(N=n, beta=2))
        assert np.isfinite(a.value) and a.stderr <= 1e-6 * abs(a.value), n
        if n == 1:
            ref = _mean_log_hp_n1(c)
            assert abs(a.value - ref) <= 1e-10 * abs(ref), (a.value, ref)


def test_truncated_sum_matches_free_energy_difference():
    # order-2 truncation closes the free energy up to the third-order term
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.005, p=2)
    f = free_energy(c, spec)
    total, err = lve_truncated_F(c, spec, 2, {"n_w": 2000, "n_mc": 25, "seed": 3})
    gap = abs(f - total)
    assert gap <= 1e-7 + 4 * err


def test_truncated_sum_first_order_only():
    spec = EnsembleSpec(N=2, beta=2)
    c = Coupling(lam=0.005, p=2)
    total, err = lve_truncated_F(c, spec, 1, {"n_w": 1, "n_mc": 1, "seed": 0})
    a1 = single_vertex_amplitude(c, spec, 1)
    assert total == pytest.approx(a1.value, rel=1e-10)


def test_truncated_sum_gives_every_sampled_tree_its_own_seed(monkeypatch):
    seeds = []
    amplitude = trees.tree_amplitude

    def spy(c, spec, t, params=None):
        if t.n >= 2:
            seeds.append(params["seed"])
        return amplitude(c, spec, t, params)

    monkeypatch.setattr(trees, "tree_amplitude", spy)
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=2, beta=2)
    params = {"n_w": 10, "n_mc": 2, "seed": 13}
    lve_truncated_F(c, spec, 3, params)
    assert len(seeds) == 4 and len(set(seeds)) == 4 and seeds[0] == 13
    # n_max <= 2 keeps the given seed on the n = 2 tree: these are the
    # values of the shared-seed sum
    total, err = lve_truncated_F(c, spec, 2, {"n_w": 50, "n_mc": 40, "seed": 13})
    assert total.real.hex() == "-0x1.992412868f6bdp-6"
    assert err.hex() == "0x1.0514bcd8889c1p-16"


def test_truncated_sum_meets_exact_free_energy_at_n4():
    # the n <= 3 expansion against the exact F above the former N <= 3 cap
    c = Coupling(lam=0.05, p=2)
    spec = EnsembleSpec(N=4, beta=2)
    f = free_energy(c, spec)
    total, err = lve_truncated_F(c, spec, 3, {"n_w": 200, "n_mc": 100, "seed": 4})
    assert abs(f - total) <= 3 * err, (f, total, err)
