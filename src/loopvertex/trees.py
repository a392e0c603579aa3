"""Labeled-tree expansion of the free energy.

F(lambda, N) expands as sum over n >= 1 of (1/n!) sum over labeled
trees on n vertices of tree amplitudes: replica fields K_1..K_n with
interpolated covariance, one action factor per vertex, one derivative
contraction per tree edge.  Trees are enumerated via Prufer sequences;
the interpolation weights come from the min-over-path forest rule.

Amplitudes are Monte Carlo averages drawn as arrays: every sample has
its own weakening vector, bkar_x_matrix turns the batch of vectors into
a stack of interpolation matrices, sample_replicas draws one replica
family per matrix, and one eigh (with its hermiticity guard) serves the
whole replica stack.  A degree-1 vertex carries the action gradient
G(K); the middle vertex of a 3-path carries the exact directional
Hessian D G(K)[X] (action.action_hessian), so n <= 3 needs no finite
differences.

Amplitude normalization under the exp(-N Tr H^2) weight: each edge
contraction carries the covariance scale 1/(2N), and the overall free
energy prefactor is N^(-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .action import (
    action_S,
    action_gradient_eigenvalues,
    action_hessian,
    divided_difference,
    map_derivatives,
)
from .errors import (
    BudgetExceededError,
    OutOfRangeError,
    QuadratureUnderResolvedError,
)
from .matrixcore import (
    EnsembleSpec,
    SpectralData,
    eigh,
    sample_gaussian_batch,
    sample_replicas,
    spawn_streams,
)
from .partition import _doubling
from .scalarmaps import Coupling

MAX_TREE_ORDER = 7
MAX_AMPLITUDE_VERTICES = 3
MAX_AMPLITUDE_N = 3
MAX_VERTEX_DEGREE = 2
#: Gauss-Hermite mean-action grid: start nodes and per-dimension caps
#: (numpy's hermgauss overflows to NaN weights by 400 nodes)
GH_START_NODES = 64
GH_NODE_CAP = {1: 256, 2: 256, 3: 128}
#: log-density floor standing in for -inf at coincident grid nodes
LOG_FLOOR = -1e300


@dataclass(frozen=True)
class LabeledTree:
    """Labeled tree on vertices 1..n with edges as sorted pairs."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if len(self.edges) != max(self.n - 1, 0):
            raise ValueError("a tree on n vertices has n-1 edges")

    def degrees(self) -> dict[int, int]:
        d = {v: 0 for v in range(1, self.n + 1)}
        for i, j in self.edges:
            d[i] += 1
            d[j] += 1
        return d


@dataclass(frozen=True)
class WeakeningVector:
    """Edge weights in [0, 1]: floats, or (...) arrays of one shape for a batch."""

    w: dict[tuple[int, int], float | np.ndarray]


@dataclass(frozen=True)
class AmplitudeEstimate:
    value: complex
    stderr: float
    n_w_samples: int
    n_mc_samples: int
    tree: LabeledTree
    a1: complex | None = None
    a2: complex | None = None


def prufer_decode(seq: tuple[int, ...], n: int) -> LabeledTree:
    """The classical bijection from sequences in {1..n}^(n-2) to trees."""
    if n == 1:
        return LabeledTree(n=1, edges=())
    if n == 2:
        return LabeledTree(n=2, edges=((1, 2),))
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
    import heapq

    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return LabeledTree(n=n, edges=tuple(sorted(edges)))


def prufer_encode(t: LabeledTree) -> tuple[int, ...]:
    """Inverse of prufer_decode: repeatedly strip the smallest leaf."""
    n = t.n
    if n <= 2:
        return ()
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in t.edges:
        adj[i].add(j)
        adj[j].add(i)
    import heapq

    leaves = [v for v in adj if len(adj[v]) == 1]
    heapq.heapify(leaves)
    seq = []
    for _ in range(n - 2):
        leaf = heapq.heappop(leaves)
        (nbr,) = adj[leaf]
        seq.append(nbr)
        adj[nbr].remove(leaf)
        del adj[leaf]
        if len(adj[nbr]) == 1:
            heapq.heappush(leaves, nbr)
    return tuple(seq)


def enumerate_trees(n: int):
    """All labeled trees on n vertices, once each (Cayley count n^(n-2))."""
    if not 1 <= n <= MAX_TREE_ORDER:
        raise OutOfRangeError(f"n must be in [1, {MAX_TREE_ORDER}]")
    if n == 1:
        yield LabeledTree(n=1, edges=())
        return
    if n == 2:
        yield LabeledTree(n=2, edges=((1, 2),))
        return
    for seq in _iproduct(range(1, n + 1), repeat=n - 2):
        yield prufer_decode(seq, n)


def _forest_paths(n: int, edges) -> dict[tuple[int, int], list[int]]:
    """Indices into edges along the path between each connected pair i < j."""
    adj = {v: [] for v in range(1, n + 1)}
    for k, (i, j) in enumerate(edges):
        adj[i].append((j, k))
        adj[j].append((i, k))
    paths = {}
    components = 0
    for start in range(1, n + 1):
        route = {start: []}
        stack = [start]
        while stack:
            v = stack.pop()
            for u, k in adj[v]:
                if u not in route:
                    route[u] = route[v] + [k]
                    stack.append(u)
        components += min(route) == start
        paths.update({(start, u): r for u, r in route.items() if u > start})
    if len(edges) != n - components:
        raise ValueError("weakening edges must form a forest")
    return paths


def bkar_x_matrix(t: LabeledTree, w: WeakeningVector) -> np.ndarray:
    """x_ij = min of w over the forest path i to j, 0 if disconnected.

    Accepts forests too: only the edges present in w participate, so
    dropping an edge from w disconnects the corresponding pair.
    Batch-first: each weight is a float or a (...) array of samples, all
    of one shape; the paths are found once, each entry is a min over its
    path's weight columns, and x is (..., n, n).
    """
    n = t.n
    weights = np.moveaxis(np.array(list(w.w.values()), dtype=float), 0, -1)
    if not np.all((weights >= 0.0) & (weights <= 1.0)):
        raise ValueError("weakening parameters must lie in [0, 1]")
    x = np.zeros(weights.shape[:-1] + (n, n))
    diag = np.arange(n)
    x[..., diag, diag] = 1.0
    for (i, j), path in _forest_paths(n, list(w.w)).items():
        x[..., i - 1, j - 1] = x[..., j - 1, i - 1] = weights[..., path].min(axis=-1)
    return x


# ---------------------------------------------------------------------------
# batched gradient machinery (beta = 2)


def _gradient_batch(c: Coupling, s: SpectralData) -> np.ndarray:
    """action_gradient matrices for a batch of (..., N) beta = 2 spectra."""
    g = action_gradient_eigenvalues(c, EnsembleSpec(N=s.dim, beta=2), s)
    v = s.eigenvectors
    return np.einsum("...ik,...k,...jk->...ij", v, g, v.conj())


# ---------------------------------------------------------------------------
# amplitudes


def _check_budget(spec: EnsembleSpec, t: LabeledTree):
    if t.n > MAX_AMPLITUDE_VERTICES:
        raise BudgetExceededError(f"amplitudes support n <= {MAX_AMPLITUDE_VERTICES}")
    if spec.N > MAX_AMPLITUDE_N:
        raise BudgetExceededError(f"amplitudes support N <= {MAX_AMPLITUDE_N}")
    if t.n >= 2 and max(t.degrees().values()) > MAX_VERTEX_DEGREE:
        raise BudgetExceededError(
            f"vertex degree above {MAX_VERTEX_DEGREE} needs third derivatives"
        )
    if spec.beta != 2:
        raise BudgetExceededError("tree amplitudes are implemented for beta = 2")


def _hermite_rule(n_nodes: int, big_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights for integrals against exp(-N mu^2) d mu."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
    if not np.all(np.isfinite(w)):
        raise QuadratureUnderResolvedError(
            f"Gauss-Hermite rule with {n_nodes} nodes (mean-action grid, "
            f"N={big_n}) has {int(np.sum(~np.isfinite(w)))} non-finite weights"
        )
    s = np.sqrt(float(big_n))
    return x / s, w / s


def _action_log_tables(beta: int, mu: np.ndarray, md: dict):
    """(e1, e2) grid tables of the effective action on real nodes.

    md is map_derivatives at the nodes.  S for a spectrum drawn from the
    grid decomposes as sum_k log h'(mu_k) plus
    beta * sum_{k<l} log[(h(mu_k) - h(mu_l))/(mu_k - mu_l)], which is
    exactly the (e1, e2) split summed over the tensor grid.
    """
    # diagonal entries are the limit h'; the grid density vanishes there
    ratio = divided_difference(mu, md["h"], md["hp"])
    return np.log(md["hp"]), beta * np.log(ratio)


def _quadrature_mean_action(c: Coupling, spec: EnsembleSpec):
    """(E[S], E[S1]) over the Gaussian ensemble by tensor-grid quadrature.

    Each grid level is evaluated once; the accepted level's pair is kept.
    """
    big_n = spec.N
    pairs = {}

    def eval_at(m):
        mu, w = _hermite_rule(m, big_n)
        md = map_derivatives(c, mu.astype(complex))
        e1, e2 = _action_log_tables(spec.beta, mu, md)
        e1_s1 = 0.5 * big_n * md["logt"]
        with np.errstate(divide="ignore"):
            logw = np.clip(np.log(w), LOG_FLOOR, None)
        lv = spec.beta * np.log(np.abs(mu[:, None] - mu[None, :]) + np.eye(m))
        np.fill_diagonal(lv, LOG_FLOOR)

        def shape(axes):
            return tuple(m if a in axes else 1 for a in range(big_n))

        base = np.zeros((m,) * big_n)
        s_val = np.zeros((m,) * big_n, dtype=complex)
        s1_val = np.zeros((m,) * big_n, dtype=complex)
        for k in range(big_n):
            base = base + logw.reshape(shape({k}))
            s_val = s_val + e1.reshape(shape({k}))
            s1_val = s1_val + e1_s1.reshape(shape({k}))
        for k in range(big_n):
            for l in range(k + 1, big_n):
                base = base + lv.reshape(shape({k, l}))
                s_val = s_val + e2.reshape(shape({k, l}))
        base = np.clip(base, LOG_FLOOR, None)
        with np.errstate(under="ignore"):
            rho = np.exp(base)
            den = np.sum(rho)
            pairs[m] = (
                complex(np.sum(rho * s_val) / den),
                complex(np.sum(rho * s1_val) / den),
            )
        return pairs[m][0]

    value, gap, m = _doubling(
        eval_at, GH_START_NODES, GH_NODE_CAP[big_n], "mean-action grid", c, spec
    )
    return value, pairs[m][1], gap, m**big_n


def single_vertex_amplitude(
    c: Coupling, spec: EnsembleSpec, n_mc: int, seed: int = 0
) -> AmplitudeEstimate:
    """A for the empty tree: N^(-2) E[S(lambda, K)], with the A1/A2 split.

    Deterministic eigenvalue quadrature for N <= 3; Monte Carlo with the
    action evaluated per draw otherwise (real lambda only).
    """
    tree = LabeledTree(n=1, edges=())
    if spec.beta != 2:
        raise BudgetExceededError("single-vertex amplitude assumes beta = 2")
    pref = 1.0 / spec.N**2
    if complex(c.lam) == 0:
        return AmplitudeEstimate(0.0, 0.0, 0, 0, tree, 0.0, 0.0)
    if spec.N <= MAX_AMPLITUDE_N:
        mean_s, mean_s1, gap, n_points = _quadrature_mean_action(c, spec)
        return AmplitudeEstimate(
            value=pref * mean_s,
            stderr=pref * gap,
            n_w_samples=0,
            n_mc_samples=n_points,
            tree=tree,
            a1=pref * mean_s1,
            a2=pref * (mean_s - mean_s1),
        )
    lam = complex(c.lam)
    if lam.imag != 0 or lam.real < 0:
        raise OutOfRangeError("MC single-vertex amplitude needs real lambda >= 0")
    rng = spawn_streams(seed, 1)[0]
    k_batch = sample_gaussian_batch(spec, rng, n_mc)
    eigs = np.linalg.eigvalsh(k_batch)
    s_vals = action_S(c, spec, eigs).total
    s1_vals = 0.5 * spec.N * np.sum(map_derivatives(c, eigs)["logt"], axis=1)
    value = pref * np.mean(s_vals)
    stderr = pref * float(np.std(s_vals.real) / np.sqrt(n_mc))
    return AmplitudeEstimate(
        value=complex(value),
        stderr=stderr,
        n_w_samples=0,
        n_mc_samples=n_mc,
        tree=tree,
        a1=complex(pref * np.mean(s1_vals)),
        a2=complex(pref * np.mean(s_vals - s1_vals)),
    )


def tree_amplitude(
    c: Coupling,
    spec: EnsembleSpec,
    t: LabeledTree,
    params: dict | None = None,
) -> AmplitudeEstimate:
    """Monte Carlo estimate of one tree amplitude.

    params: n_w and n_mc (their product is the sample count; every
    sample draws its own weakening vector) and seed.  Degree-1 vertices
    carry the analytic action gradient, the degree-2 vertex of a 3-path
    the exact directional Hessian (action_hessian).  All samples are
    drawn as arrays, in chunks of _BATCH_CHUNK.
    """
    _check_budget(spec, t)
    params = dict(params or {})
    n_w = int(params.get("n_w", 64))
    n_mc = int(params.get("n_mc", 64))
    seed = int(params.get("seed", 0))

    if t.n == 1:
        return single_vertex_amplitude(c, spec, n_w * n_mc, seed=seed)
    if complex(c.lam) == 0:
        return AmplitudeEstimate(0.0, 0.0, n_w, n_mc, t)
    rng = spawn_streams(seed, 1)[0]
    if t.n == 2:
        pref = 1.0 / (spec.N**2 * 2 * spec.N)
        mean, stderr = _sample_mean(
            lambda m: _two_vertex_values(c, spec, rng, m), n_w * n_mc
        )
    else:
        pref = 1.0 / (spec.N**2 * (2 * spec.N) ** 2)
        mean, stderr = _sample_mean(
            lambda m: _three_vertex_values(c, spec, t, rng, m), n_w * n_mc
        )
    return AmplitudeEstimate(pref * mean, pref * stderr, n_w, n_mc, t)


_BATCH_CHUNK = 65536


def _sample_mean(draw, count: int) -> tuple[complex, float]:
    """Mean and standard error of count i.i.d. values, drawn in chunks.

    draw(m) returns m values; every value comes with its own uniform w,
    so the (w, replica) samples are jointly i.i.d. and the pooled
    standard error is unbiased.
    """
    acc = 0.0 + 0.0j
    acc2 = 0.0
    left = count
    while left > 0:
        m = min(left, _BATCH_CHUNK)
        left -= m
        vals = draw(m)
        acc += vals.sum()
        acc2 += float(np.sum(np.abs(vals) ** 2))
    mean = acc / count
    var = max(acc2 / count - abs(mean) ** 2, 0.0)
    return complex(mean), float(np.sqrt(var / count))


def _two_vertex_values(c, spec, rng, m) -> np.ndarray:
    """m samples of Tr(G(K1) G(K2)), K2 = w K1 + sqrt(1 - w^2) K'."""
    w = rng.uniform(size=m)[:, None, None]
    g = sample_gaussian_batch(spec, rng, 2 * m)
    g1, g2 = g[:m], g[m:]
    k2 = w * g1 + np.sqrt(1.0 - w * w) * g2
    grad1 = _gradient_batch(c, eigh(g1))
    grad2 = _gradient_batch(c, eigh(k2))
    return np.einsum("bij,bji->b", grad1, grad2)


def _three_vertex_values(c, spec, t, rng, m) -> np.ndarray:
    """m samples of Tr(G(K_a) D G(K_mid)[G(K_b)]) on the 3-path a - mid - b."""
    degrees = t.degrees()
    mid = next(v for v, d in degrees.items() if d == 2) - 1
    outer = [v - 1 for v in degrees if v - 1 != mid]
    w = rng.uniform(size=(len(t.edges), m))
    x = bkar_x_matrix(t, WeakeningVector(dict(zip(t.edges, w))))
    s = eigh(sample_replicas(spec, x, rng))  # (m, 3, N) spectra
    grads = _gradient_batch(
        c, SpectralData(s.eigenvalues[:, outer], s.eigenvectors[:, outer])
    )
    s_mid = SpectralData(s.eigenvalues[:, mid], s.eigenvectors[:, mid])
    dg = action_hessian(c, spec, s_mid, grads[:, 1])
    return np.einsum("bij,bji->b", grads[:, 0], dg)


def lve_truncated_F(
    c: Coupling,
    spec: EnsembleSpec,
    n_max: int,
    params: dict | None = None,
) -> tuple[complex, float]:
    """Sum over n <= n_max of (1/n!) sum over trees of tree amplitudes."""
    if not 1 <= n_max <= MAX_AMPLITUDE_VERTICES:
        raise OutOfRangeError(f"n_max must be in [1, {MAX_AMPLITUDE_VERTICES}]")
    total = 0.0 + 0.0j
    var = 0.0
    fact = 1
    for n in range(1, n_max + 1):
        fact *= n
        for tree in enumerate_trees(n):
            est = tree_amplitude(c, spec, tree, params)
            total += est.value / fact
            var += (est.stderr / fact) ** 2
    return total, float(np.sqrt(var))
