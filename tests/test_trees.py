import numpy as np
import pytest

from loopvertex.errors import BudgetExceededError, OutOfRangeError
from loopvertex.matrixcore import EnsembleSpec
from loopvertex.partition import gaussian_moment_exact
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


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("n", [1, 2])
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
    big = EnsembleSpec(N=5, beta=2)
    pair = LabeledTree(2, ((1, 2),))
    with pytest.raises(BudgetExceededError):
        tree_amplitude(c, big, pair, {"n_w": 2, "n_mc": 2, "seed": 0})


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


def test_truncated_sum_matches_free_energy_difference():
    # order-2 truncation closes the free energy up to the third-order term
    from loopvertex.partition import free_energy

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
