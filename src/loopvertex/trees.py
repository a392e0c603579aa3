"""Labeled-tree expansion of the free energy.

F(lambda, N) expands as sum over n >= 1 of (1/n!) sum over labeled
trees on n vertices of tree amplitudes: replica fields K_1..K_n with
interpolated covariance, one action factor per vertex, one derivative
contraction per tree edge.  Trees are enumerated via Prufer sequences;
the interpolation weights come from the min-over-path forest rule.

Amplitude normalization under the exp(-N Tr H^2) weight: each edge
contraction carries the covariance scale 1/(2N), and the overall free
energy prefactor is N^(-2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _iproduct

import numpy as np

from .action import (
    action_gradient,
    action_gradient_eigenvalues,
    action_split,
    divided_difference,
    map_derivatives,
)
from .errors import (
    BudgetExceededError,
    OutOfRangeError,
    StepInstabilityError,
)
from .matrixcore import (
    EnsembleSpec,
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
DEFAULT_FD_STEP = 1e-4
#: Richardson halving agreement demanded of the finite-difference Hessian
FD_CHECK_RTOL = 1e-3
#: Gauss-Hermite mean-action grid: start nodes and per-dimension caps
GH_START_NODES = 64
GH_NODE_CAP = {1: 512, 2: 256, 3: 128}
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
    w: dict[tuple[int, int], float]


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


def bkar_x_matrix(t: LabeledTree, w: WeakeningVector) -> np.ndarray:
    """x_ij = min of w over the forest path i to j, 0 if disconnected.

    Accepts forests too: only the edges present in w participate, so
    dropping an edge from w disconnects the corresponding pair.
    """
    n = t.n
    for val in w.w.values():
        if not 0.0 <= val <= 1.0:
            raise ValueError("weakening parameters must lie in [0, 1]")
    x = np.zeros((n, n))
    np.fill_diagonal(x, 1.0)
    adj = {v: [] for v in range(1, n + 1)}
    for (i, j), val in w.w.items():
        adj[i].append((j, val))
        adj[j].append((i, val))
    for start in range(1, n + 1):
        # widest-path search from start (trivial on a forest)
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


# ---------------------------------------------------------------------------
# batched gradient machinery (beta = 2)


def _gradient_batch(c: Coupling, k_batch: np.ndarray) -> np.ndarray:
    """action_gradient for a (B, N, N) Hermitian batch, beta = 2."""
    eigs, vecs = np.linalg.eigh(k_batch)
    g = action_gradient_eigenvalues(c, EnsembleSpec(N=eigs.shape[-1], beta=2), eigs)
    return np.einsum("bik,bk,bjk->bij", vecs, g, vecs.conj())


def _directional_gradient_fd(
    c: Coupling, spec: EnsembleSpec, k: np.ndarray, x: np.ndarray, step: float
) -> np.ndarray:
    """d/d eps action_gradient(K + eps X) at eps = 0 for matrix direction X.

    X need not be Hermitian: it is decomposed over the Hermitian basis
    with complex coefficients and the derivative extended by linearity.
    """
    n = k.shape[0]
    herm_defect = np.max(np.abs(x - x.conj().T))
    if herm_defect < 1e-13 * (1.0 + np.max(np.abs(x))):
        xh = (x + x.conj().T) / 2.0
        gp = action_gradient(c, spec, eigh(k + step * xh))
        gm = action_gradient(c, spec, eigh(k - step * xh))
        return (gp - gm) / (2.0 * step)
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                basis = [(np.eye(1, n, i).T @ np.eye(1, n, i), x[i, i])]
            else:
                b1 = np.zeros((n, n), dtype=complex)
                b1[i, j] = b1[j, i] = 1.0
                b2 = np.zeros((n, n), dtype=complex)
                b2[i, j] = 1j
                b2[j, i] = -1j
                basis = [
                    (b1, 0.5 * (x[i, j] + x[j, i])),
                    (b2, 0.5j * (x[j, i] - x[i, j])),
                ]
            for bmat, coeff in basis:
                if coeff == 0:
                    continue
                gp = action_gradient(c, spec, eigh(k + step * bmat))
                gm = action_gradient(c, spec, eigh(k - step * bmat))
                out = out + coeff * (gp - gm) / (2.0 * step)
    return out


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
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
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
    md = map_derivatives(c, eigs)
    ratio = divided_difference(eigs, md["h"], md["hp"])
    iu = np.triu_indices(spec.N, k=1)
    s_vals = np.sum(np.log(md["hp"]), axis=1) + spec.beta * np.sum(
        np.log(ratio[:, iu[0], iu[1]]), axis=1
    )
    s1_vals = 0.5 * spec.N * np.sum(md["logt"], axis=1)
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

    Degree-1 vertices use the analytic action gradient; the degree-2
    vertex of a 3-path uses a central finite difference of the gradient
    (directional Hessian) with a Richardson step check.
    """
    _check_budget(spec, t)
    params = dict(params or {})
    n_w = int(params.get("n_w", 64))
    n_mc = int(params.get("n_mc", 64))
    fd_step = float(params.get("fd_step", DEFAULT_FD_STEP))
    seed = int(params.get("seed", 0))

    if t.n == 1:
        return single_vertex_amplitude(c, spec, n_w * n_mc, seed=seed)
    if complex(c.lam) == 0:
        return AmplitudeEstimate(0.0, 0.0, n_w, n_mc, t)
    if t.n == 2:
        return _two_vertex_amplitude(c, spec, t, n_w, n_mc, seed)
    return _three_vertex_amplitude(c, spec, t, n_w, n_mc, fd_step, seed)


_BATCH_CHUNK = 65536


def _two_vertex_amplitude(c, spec, t, n_w, n_mc, seed):
    """Vectorized n = 2 amplitude: prefactor * E_w E_K[Tr(G(K1) G(K2))].

    Every sample draws its own uniform w, so the (w, replica) samples are
    jointly i.i.d. and the pooled standard error is unbiased.
    """
    pref = 1.0 / (spec.N**2 * 2 * spec.N)
    rng = spawn_streams(seed, 1)[0]
    left = n_w * n_mc
    count = 0
    acc = 0.0 + 0.0j
    acc2 = 0.0
    while left > 0:
        m = min(left, _BATCH_CHUNK)
        left -= m
        w = rng.uniform(size=m)[:, None, None]
        g = sample_gaussian_batch(spec, rng, 2 * m)
        g1, g2 = g[:m], g[m:]
        k1 = g1
        k2 = w * g1 + np.sqrt(1.0 - w * w) * g2
        grad1 = _gradient_batch(c, k1)
        grad2 = _gradient_batch(c, k2)
        vals = np.einsum("bij,bji->b", grad1, grad2)
        acc += vals.sum()
        acc2 += float(np.sum(np.abs(vals) ** 2))
        count += m
    mean = acc / count
    var = max(acc2 / count - abs(mean) ** 2, 0.0)
    stderr = float(np.sqrt(var / count))
    return AmplitudeEstimate(
        pref * complex(mean), pref * stderr, n_w, n_mc, t
    )


def _three_vertex_amplitude(c, spec, t, n_w, n_mc, fd_step, seed):
    """n = 3 path amplitude with an FD directional Hessian at the middle."""
    degrees = t.degrees()
    middle = next(v for v, d in degrees.items() if d == 2)
    outer = [v for v in degrees if v != middle]
    pref = 1.0 / (spec.N**2 * (2 * spec.N) ** 2)
    rng = spawn_streams(seed, 1)[0]
    vals = np.empty(n_w * n_mc, dtype=complex)
    checked = False
    for s in range(n_w * n_mc):
        # fresh uniform w per sample keeps all samples jointly i.i.d.
        wvec = WeakeningVector({e: float(rng.uniform()) for e in t.edges})
        x = bkar_x_matrix(t, wvec)
        ks = sample_replicas(spec, x, rng)
        k = {v: ks[v - 1] for v in degrees}
        g_a = action_gradient(c, spec, eigh(k[outer[0]]))
        g_b = action_gradient(c, spec, eigh(k[outer[1]]))
        dg = _directional_gradient_fd(c, spec, k[middle], g_b, fd_step)
        if not checked:
            dg_half = _directional_gradient_fd(
                c, spec, k[middle], g_b, fd_step / 2.0
            )
            defect = np.max(np.abs(dg - dg_half))
            scale = max(np.max(np.abs(dg_half)), 1e-12)
            if defect > max(FD_CHECK_RTOL * scale, 1e-9):
                raise StepInstabilityError(
                    f"Richardson check failed: step {fd_step}, defect {defect}"
                )
            checked = True
        vals[s] = np.einsum("ij,ji->", g_a, dg)
    vals = pref * vals
    mean = complex(np.mean(vals))
    stderr = float(
        np.sqrt(np.var(vals.real) + np.var(vals.imag)) / np.sqrt(len(vals))
    )
    return AmplitudeEstimate(mean, stderr, n_w, n_mc, t)


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
