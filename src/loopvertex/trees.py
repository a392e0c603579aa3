"""Labeled-tree expansion of the free energy.

F(lambda, N) expands as sum over n >= 1 of (1/n!) sum over labeled
trees on n vertices of tree amplitudes: replica fields K_1..K_n with
interpolated covariance, one action factor per vertex, one derivative
contraction per tree edge.  Trees are enumerated via Prufer sequences;
the interpolation weights come from the min-over-path forest rule.

The single-vertex amplitude N^(-2) E[S] is exact at every N: S is a sum
of one- and two-eigenvalue terms, so the GUE densities rho1 = K(x, x)
and rho2 = K(x, x) K(y, y) - K(x, y)^2 of the Christoffel-Darboux
(Hermite) kernel K reduce E[S] to a 1-D and a 2-D sum on the panel
nodes of the partition-function engine (Mehta, Random Matrices, ch. 6).

Amplitudes of trees with n >= 2 are Monte Carlo averages from one
sampler, drawn as arrays: every sample has its own weakening vector,
bkar_x_matrix turns the batch of vectors into a stack of interpolation
matrices, sample_replicas draws one replica family per matrix, and one
eigh per vertex (with its hermiticity guard; a closed form at N = 2,
LAPACK above) gives the spectra.  A degree-1 vertex carries the action
gradient G(K); the middle vertex of a 3-path carries the exact
directional Hessian D G(K)[X] (action.action_hessian), so n <= 3 needs
no finite differences.

Amplitude normalization under the exp(-N Tr H^2) weight: each edge
contraction carries the covariance scale 1/(2N), and the overall free
energy prefactor is N^(-2).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .action import (
    _log_ratio_pairs,
    action_gradient,
    action_hessian,
    map_derivatives,
)
from .errors import BudgetExceededError, OutOfRangeError
from .matrixcore import (
    EnsembleSpec,
    eigh,
    sample_replicas,
    spawn_streams,
)
from .partition import (
    GL_ORDER,
    _doubling,
    _half_width,
    _hermite_rows,
    _panel_layout,
)
from .scalarmaps import Coupling

MAX_TREE_ORDER = 7
MAX_AMPLITUDE_VERTICES = 3
#: panel schedule of the single-vertex densities (16 nodes per panel):
#: the start doubles each time N quadruples, from 4 panels at N <= 3
SV_PANELS_START = 4
SV_PANELS_CAP = 128


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
    degree = [1] * (n + 1)
    for v in seq:
        degree[v] += 1
    edges = []
    seq = list(seq)
    leaves = sorted(v for v in range(1, n + 1) if degree[v] == 1)
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
    adj = {v: set() for v in range(1, n + 1)}
    for i, j in t.edges:
        adj[i].add(j)
        adj[j].add(i)
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
    for seq in _iproduct(range(1, n + 1), repeat=max(n - 2, 0)):
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
# amplitudes


def _hermite_kernel(mu: np.ndarray, w: np.ndarray, big_n: int) -> np.ndarray:
    """(m, m) Christoffel-Darboux kernel K = Phi^T Phi on the rule's nodes.

    Row k of Phi is the k-th orthonormal polynomial for exp(-N mu^2)
    times sqrt(w), w the nodes' weights against exp(-N mu^2) d mu.
    """
    phi = _hermite_rows(mu, big_n, np.sqrt(w))
    return phi.T @ phi


def _mirrored_maps(c: Coupling, mu: np.ndarray):
    """(h, h', t) at mu, whose left half is the exact negation of its right half.

    map_derivatives sees the right half only; h is odd, h' and t are even.
    """
    md = map_derivatives(c, mu[len(mu) // 2:])
    return (np.concatenate([-md["h"][::-1], md["h"]]),
            np.concatenate([md["hp"][::-1], md["hp"]]),
            np.concatenate([md["t"][::-1], md["t"]]))


def _quadrature_mean_action(c: Coupling, spec: EnsembleSpec):
    """(E[S], E[S1]) over the Gaussian ensemble from its correlation functions.

    On the engine's panels over the bulk (exact on the kernel's
    polynomials once resolved) the GUE densities are rho1_a = K_aa and
    rho2_ab = K_aa K_bb - K_ab^2, so E[S] = sum_a rho1_a log h'(mu_a) +
    beta sum_{a<b} rho2_ab log D_ab.  The panels are mirror-symmetric, so
    the maps are evaluated on the right half of the nodes and mirrored (h
    odd, h' and t even); a float lambda keeps them real.  Each level is
    evaluated once; the accepted level's pair is kept.
    """
    big_n = spec.N
    half = _half_width(big_n, 0.0)
    pairs = {}

    def eval_at(n_panels):
        nodes, weights, _ = _panel_layout(half, n_panels)
        mu = nodes.ravel()
        kern = _hermite_kernel(mu, weights.ravel() * np.exp(-big_n * mu**2), big_n)
        rho1 = np.diag(kern)
        a, b = np.triu_indices(len(mu), k=1)
        rho2 = rho1[a] * rho1[b] - kern[a, b] ** 2
        h, hp, t = _mirrored_maps(c, mu)
        log_d = _log_ratio_pairs(mu, h, hp)
        pairs[n_panels] = (
            complex(rho1 @ np.log(hp) + spec.beta * (rho2 @ log_d)),
            complex(0.5 * big_n * (rho1 @ np.log(t))),
        )
        return pairs[n_panels][0]

    start = SV_PANELS_START * 2 ** ((big_n.bit_length() - 1) // 2)
    value, gap, n_panels = _doubling(
        eval_at, start, SV_PANELS_CAP, "mean-action grid", c, spec
    )
    return value, pairs[n_panels][1], gap, GL_ORDER * n_panels


def single_vertex_amplitude(
    c: Coupling, spec: EnsembleSpec, n_mc: int = 0
) -> AmplitudeEstimate:
    """A for the empty tree: N^(-2) E[S(lambda, K)], with the A1/A2 split.

    Deterministic at every N and every coupling: E[S] and E[S1] are one-
    and two-point sums on the engine's panels (_quadrature_mean_action);
    stderr is the gap between the last two rule levels and n_mc_samples
    the accepted node count.  n_mc is ignored.
    """
    tree = LabeledTree(n=1, edges=())
    if spec.beta != 2:
        raise BudgetExceededError("single-vertex amplitude assumes beta = 2")
    pref = 1.0 / spec.N**2
    if complex(c.lam) == 0:
        return AmplitudeEstimate(0.0, 0.0, 0, 0, tree, 0.0, 0.0)
    mean_s, mean_s1, gap, n_nodes = _quadrature_mean_action(c, spec)
    return AmplitudeEstimate(
        value=pref * mean_s,
        stderr=pref * gap,
        n_w_samples=0,
        n_mc_samples=n_nodes,
        tree=tree,
        a1=pref * mean_s1,
        a2=pref * (mean_s - mean_s1),
    )


def tree_amplitude(
    c: Coupling,
    spec: EnsembleSpec,
    t: LabeledTree,
    params: dict | None = None,
) -> AmplitudeEstimate:
    """Estimate of one tree amplitude: exact for n = 1, Monte Carlo above.

    params (ignored for n = 1): n_w and n_mc (their product is the sample count; every
    sample draws its own weakening vector; fewer than 2 samples raise
    OutOfRangeError) and seed.  Degree-1 vertices
    carry the analytic action gradient, the degree-2 vertex of a 3-path
    the exact directional Hessian (action_hessian).  All samples are
    drawn as arrays, in chunks of at most _BATCH_CHUNK samples and
    _CHUNK_ELEMENTS replica-matrix entries.
    """
    if t.n == 1:
        return single_vertex_amplitude(c, spec)
    if t.n > MAX_AMPLITUDE_VERTICES:
        raise BudgetExceededError(f"amplitudes support n <= {MAX_AMPLITUDE_VERTICES}")
    if spec.beta != 2:
        raise BudgetExceededError("tree amplitudes are implemented for beta = 2")
    params = dict(params or {})
    n_w = int(params.get("n_w", 64))
    n_mc = int(params.get("n_mc", 64))
    seed = int(params.get("seed", 0))
    if complex(c.lam) == 0:
        return AmplitudeEstimate(0.0, 0.0, n_w, n_mc, t)
    if min(n_w, n_mc) < 1 or n_w * n_mc < 2:
        raise OutOfRangeError(
            f"tree amplitude needs n_w, n_mc >= 1 and at least 2 samples for a "
            f"standard error, got n_w={n_w}, n_mc={n_mc} (lam={complex(c.lam):.6g}, "
            f"p={c.p}, N={spec.N}, beta={spec.beta})"
        )
    rng = spawn_streams(seed, 1)[0]
    chunk = max(1, min(_BATCH_CHUNK, _CHUNK_ELEMENTS // (t.n * spec.N**2)))
    pref = 1.0 / (spec.N**2 * (2 * spec.N) ** (t.n - 1))
    mean, stderr = _sample_mean(
        lambda m: _path_values(c, spec, t, rng, m), n_w * n_mc, chunk
    )
    return AmplitudeEstimate(pref * mean, pref * stderr, n_w, n_mc, t)


#: samples per chunk, and replica-matrix entries (samples x n x N^2) per
#: chunk: the sample cap binds up to N = 3, the entry budget above
_BATCH_CHUNK = 65536
_CHUNK_ELEMENTS = _BATCH_CHUNK * MAX_AMPLITUDE_VERTICES * 3**2


def _sample_mean(draw, count: int, chunk: int) -> tuple[complex, float]:
    """Mean and standard error of count i.i.d. values, drawn in chunks.

    draw(m) returns m values; every value comes with its own uniform w,
    so the (w, replica) samples are jointly i.i.d. and the pooled
    standard error is unbiased.
    """
    acc = 0.0 + 0.0j
    acc2 = 0.0
    left = count
    while left > 0:
        m = min(left, chunk)
        left -= m
        vals = draw(m)
        acc += vals.sum()
        acc2 += float(np.sum(np.abs(vals) ** 2))
    mean = acc / count
    var = max(acc2 / count - abs(mean) ** 2, 0.0)
    return complex(mean), float(np.sqrt(var / count))


def _path_values(c, spec, t, rng, m) -> np.ndarray:
    """m samples of the path amplitude's trace, one weakening vector each.

    Tr(G(K_a) G(K_b)) on the 2-path a - b and Tr(G(K_a) D G(K_mid)[G(K_b)])
    on the 3-path a - mid - b, with the replicas' covariance x from the
    forest rule.
    """
    w = rng.uniform(size=(t.n - 1, m))
    x = bkar_x_matrix(t, WeakeningVector(dict(zip(t.edges, w))))
    k = sample_replicas(spec, x, rng)  # (m, n, N, N)
    degrees = t.degrees().items()
    a, b = (action_gradient(c, spec, eigh(k[:, v - 1])) for v, d in degrees if d == 1)
    for v, d in degrees:
        if d == 2:  # the middle vertex of a 3-path
            b = action_hessian(c, spec, eigh(k[:, v - 1]), b)
    return np.einsum("bij,bji->b", a, b)


def lve_truncated_F(
    c: Coupling,
    spec: EnsembleSpec,
    n_max: int,
    params: dict | None = None,
) -> tuple[complex, float]:
    """Sum over n <= n_max of (1/n!) sum over trees of tree amplitudes.

    Every sampled tree draws from its own seed, so the per-tree errors
    add as independent: the n = 2 tree keeps params' seed and the 3-paths
    take the next ones.
    """
    if not 1 <= n_max <= MAX_AMPLITUDE_VERTICES:
        raise OutOfRangeError(f"n_max must be in [1, {MAX_AMPLITUDE_VERTICES}]")
    params = params or {}
    seed = int(params.get("seed", 0))
    total = 0.0 + 0.0j
    var = 0.0
    fact = 1
    for n in range(1, n_max + 1):
        fact *= n
        for tree in enumerate_trees(n):
            est = tree_amplitude(c, spec, tree, {**params, "seed": seed})
            if n >= 2:
                seed += 1
            total += est.value / fact
            var += (est.stderr / fact) ** 2
    return total, float(np.sqrt(var))
