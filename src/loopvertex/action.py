"""Effective action of the change of variables and its derivative machinery.

With kappa_i the (real) eigenvalues of K and h the scalar map, the
action for symmetry class beta is

    S = (1 - beta/2) * sum_i log h'(kappa_i)
      + (beta/2) * sum_{i,j} log[(h(kappa_i) - h(kappa_j)) / (kappa_i - kappa_j)]

(diagonal ratios are the derivative limit h').  exp(S) is the Jacobian
determinant of the map K -> H(K) restricted to the Hermitian (beta = 2)
or real symmetric (beta = 1) coordinates.

Everything tensorial (Sigma, its inverse, corner operators) is kept as
an N x N array of eigenbasis entries; these operators are diagonal on
the tensor basis e_i (x) e_j, so dense N^2 x N^2 matrices never appear.

Every such array is a divided difference, and one kernel,
``divided_difference``, builds them all: it maps (..., N) points,
values and derivatives to the (..., N, N) ratio matrix and takes the
derivative limit wherever two points lie closer than COINCIDENCE_TOL.
The action, Sigma, the resolvent, the gradient, the Jacobian positivity
check, the tree amplitudes and the Monte Carlo integrands all go through
it.  Every function of a spectrum is batch-first: the action and its
split, Sigma (by quadrature or directly), the resolvent, corner,
gradient and Hessian take a SpectralData or a (..., N) stack of
eigenvalues (the gradient and the Hessian need the eigenvectors too),
the Jacobian check a (..., N) stack, and a single spectrum is a batch of
one.  action_hessian, the derivative of the gradient along a matrix
direction, builds its second-order quotients from the same kernel; the
third derivative of h it needs is computed there only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import KeyholeContour
from .errors import LogBranchAmbiguityError, PoleCollisionError
from .fusscatalan import fc_eval_many
from .matrixcore import EnsembleSpec, SpectralData
from .scalarmaps import Coupling, eval_map

#: below this eigenvalue gap divided differences switch to derivative limits
COINCIDENCE_TOL = 1e-9


@dataclass(frozen=True)
class ActionValue:
    """S and its split; complex for one spectrum, (...) arrays for a batch."""

    total: complex | np.ndarray
    single_trace_part: complex | np.ndarray
    double_trace_part: complex | np.ndarray


@dataclass(frozen=True)
class ResolventEntries:
    """Eigenbasis entries of (1 + Sigma)^(-1) and their growth envelopes."""

    values: np.ndarray
    lambda_bounds: np.ndarray


def map_derivatives(c: Coupling, u) -> dict[str, np.ndarray]:
    """h, h', h'' and friends at u (array), via implicit differentiation.

    Returned keys: t, logt, f, h, hp, hpp.  All derivatives are exact
    consequences of the functional equation z T^p - T + 1 = 0.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    p = c.p
    lam = complex(c.lam)
    z = -lam * u ** (2 * p - 2)
    z_over_u = -lam * u ** (2 * p - 3)  # z/u, finite at u = 0
    t = fc_eval_many(c.params, z)
    d = 1.0 - p * z * t ** (p - 1)
    tp = t**p / d
    e = t ** (p - 1) / d
    dp = -p * (t ** (p - 1) + z * (p - 1) * t ** (p - 2) * tp)
    tpp = (p * t ** (p - 1) * tp * d - t**p * dp) / d**2
    ep = tpp / t - e**2

    f = np.sqrt(t)
    fp = f * (p - 1) * e * z_over_u
    hp = f * (1.0 + (p - 1) * z * e)
    zp = (2 * p - 2) * z_over_u
    hpp = fp * (1.0 + (p - 1) * z * e) + f * (p - 1) * zp * (e + z * ep)
    return {"t": t, "logt": np.log(t), "f": f, "h": u * f, "hp": hp, "hpp": hpp}


def _gap_quotient(x: np.ndarray, num: np.ndarray, dnum: np.ndarray) -> np.ndarray:
    """num_ij / (x_i - x_j) over the last axis of x, with its coincidence limit.

    The one coincidence rule of the package: wherever
    |x_i - x_j| < COINCIDENCE_TOL the quotient is replaced by the
    derivative limit (dnum_i + dnum_j) / 2.  The diagonal always
    coincides and takes dnum_i; other coincidences are rare, so the limit
    is formed at their entries only.
    """
    diag = np.arange(x.shape[-1])
    dx = x[..., :, None] - x[..., None, :]
    dx[..., diag, diag] = 1.0
    near = np.abs(dx) < COINCIDENCE_TOL
    dx[near] = 1.0
    out = num / dx
    out[..., diag, diag] = dnum
    if near.any():  # np.nonzero is slow on large batches; look first
        at = np.nonzero(near)
        out[at] = 0.5 * (dnum[at[:-1]] + dnum[at[:-2] + at[-1:]])
    return out


def divided_difference(x, fx, dfx) -> np.ndarray:
    """Batched divided differences (fx_i - fx_j) / (x_i - x_j).

    x, fx and dfx are (..., N) points, values and derivatives; the
    result is (..., N, N).  At coincident points (|x_i - x_j| below
    COINCIDENCE_TOL, the diagonal included) the entry is the derivative
    limit (dfx_i + dfx_j) / 2.
    """
    fx = np.asarray(fx)
    return _gap_quotient(np.asarray(x), fx[..., :, None] - fx[..., None, :], np.asarray(dfx))


def _eigenvalues(s_k) -> np.ndarray:
    """(..., N) eigenvalues of a SpectralData or an eigenvalue array."""
    if isinstance(s_k, SpectralData):
        s_k = s_k.eigenvalues
    return np.asarray(s_k, dtype=complex if np.iscomplexobj(s_k) else float)


def _log_ratio_pairs(kappa: np.ndarray, h: np.ndarray, hp: np.ndarray) -> np.ndarray:
    """(..., N(N-1)/2) logs of the divided differences of h over pairs i < j.

    The whole ratio matrix, its diagonal h' included, must keep off the
    negative real axis, where the log branch is undecided.
    """
    ratio = divided_difference(kappa, h, hp)
    on_branch_cut = ratio.real <= 0
    if on_branch_cut.any():  # the |Im| test only once a real part qualifies
        on_branch_cut &= np.abs(ratio.imag) <= 1e-12 * (1.0 + np.abs(ratio))
    if on_branch_cut.any():
        at = np.unravel_index(np.argmax(on_branch_cut), on_branch_cut.shape)
        i, j = at[-2:]
        row = kappa[at[:-2]]
        raise LogBranchAmbiguityError(
            f"action log-ratio: divided difference {complex(ratio[at]):.6g} of h "
            f"at eigenvalue pair ({i}, {j}) = ({complex(row[i]):.6g}, "
            f"{complex(row[j]):.6g}) lies on the negative real axis "
            f"(|Im| <= 1e-12 (1 + |ratio|)); the log branch is undecided"
        )
    iu = np.triu_indices(kappa.shape[-1], k=1)
    return np.log(ratio[..., iu[0], iu[1]])


def _action_sums(kappa: np.ndarray, md: dict, beta: int):
    """(S, sum_i log h'(kappa_i)) over the last axis, given md = map_derivatives."""
    log_hp = np.sum(np.log(md["hp"]), axis=-1)
    pairs = np.sum(_log_ratio_pairs(kappa, md["h"], md["hp"]), axis=-1)
    return log_hp + beta * pairs, log_hp


def action_S(c: Coupling, spec: EnsembleSpec, s_k) -> ActionValue:
    """Effective action S(lambda, K) from the spectrum of K.

    Summed as S = sum_i log h'(kappa_i) + beta sum_{i<j} log D_ij, D the
    divided differences of h, with the log-branch check on every D_ij.
    Batch-first: s_k is a SpectralData or (..., N) eigenvalues; a single
    spectrum gives complex parts, a batch (...) arrays of them.
    """
    kappa = _eigenvalues(s_k)
    total, log_hp = _action_sums(kappa, map_derivatives(c, kappa), spec.beta)
    single = (1.0 - spec.beta / 2.0) * log_hp
    parts = (total, single, total - single)
    if kappa.ndim == 1:
        parts = tuple(complex(v) for v in parts)
    return ActionValue(*parts)


def action_split(c: Coupling, s_k) -> tuple:
    """(S1, S2) with S1 = (N/2) sum_i log T and S2 the remainder (beta = 2).

    Batch-first like action_S: complex values for one spectrum, (...)
    arrays for a (..., N) stack.
    """
    kappa = _eigenvalues(s_k)
    md = map_derivatives(c, kappa)  # the identity maps at lam = 0, so S1 = S2 = 0
    s1 = 0.5 * kappa.shape[-1] * np.sum(md["logt"], axis=-1)
    s2 = _action_sums(kappa, md, 2)[0] - s1
    return (complex(s1), complex(s2)) if kappa.ndim == 1 else (s1, s2)


def _resolvent_values(kappa: np.ndarray, md: dict) -> np.ndarray:
    # k(eta_i) = kappa_i exactly, since k inverts h, and k'(eta) = 1/h'(kappa)
    return divided_difference(md["h"], kappa, 1.0 / md["hp"])


def resolvent_entries(c: Coupling, s_k) -> ResolventEntries:
    """Entries (1 + Sigma)^(-1)_ij = (k(eta_i) - k(eta_j))/(eta_i - eta_j).

    eta_i = h(kappa_i); the diagonal/coincident limit is k'(eta_i) =
    1/h'(kappa_i).  lambda_bounds carries the growth envelope
    max(1, |lam|^(1/2p) |eta|^(1-1/p)) per index pair.  Batch-first:
    s_k is a SpectralData or (..., N) eigenvalues, and both arrays are
    (..., N, N).
    """
    kappa = _eigenvalues(s_k)
    md = map_derivatives(c, kappa)
    envelope = np.abs(c.lam) ** (1.0 / (2 * c.p)) * np.abs(md["h"]) ** (1.0 - 1.0 / c.p)
    bounds = np.maximum(
        1.0, np.maximum(envelope[..., :, None], envelope[..., None, :])
    )
    return ResolventEntries(values=_resolvent_values(kappa, md), lambda_bounds=bounds)


def corner_operator(c: Coupling, s_k, u_k, u_k1) -> np.ndarray:
    """Eigenbasis entries of the contour-corner operator at (u_k, u_k1).

    Batch-first: s_k is a SpectralData or (..., N) eigenvalues, and the
    nodes u_k, u_k1 broadcast to a shape U of node pairs.  The resolvent
    is computed once per spectrum and the result is (..., *U, N, N).
    """
    kappa = _eigenvalues(s_k)
    u_k, u_k1 = np.broadcast_arrays(
        np.asarray(u_k, dtype=complex), np.asarray(u_k1, dtype=complex)
    )
    lead = kappa.shape[:-1]
    n = kappa.shape[-1]
    kap = kappa.reshape(lead + (1,) * u_k.ndim + (n,))
    for u in (u_k, u_k1):
        gap = np.abs(u[..., None] - kap)
        if np.any(gap < 1e-12):
            at = np.unravel_index(np.argmin(gap), gap.shape)
            raise PoleCollisionError(
                f"corner operator at lam={complex(c.lam):.6g}: contour point "
                f"{complex(u[at[len(lead):-1]]):.6g} lies {gap[at]:.3e} from "
                f"eigenvalue {complex(kappa[at[:len(lead)] + at[-1:]]):.6g}, "
                f"inside the pole guard 1e-12"
            )
    res = resolvent_entries(c, kappa).values.reshape(lead + (1,) * u_k.ndim + (n, n))
    ri_k = 1.0 / (u_k[..., None] - kap)
    ri_k1 = 1.0 / (u_k1[..., None] - kap)
    left = ri_k[..., :, None] * ri_k1[..., :, None] * ri_k[..., None, :]
    right = ri_k[..., :, None] * ri_k[..., None, :] * ri_k1[..., None, :]
    return res * (left + right)


def sigma_contour(c: Coupling, gamma: KeyholeContour, s_k) -> np.ndarray:
    """Sigma entries by contour quadrature of g(u) resolvent pairs.

    Batch-first: s_k is a SpectralData or (..., N) eigenvalues, and the
    result is (..., N, N).
    """
    kappa = _eigenvalues(s_k)
    g = eval_map("g", c, gamma.nodes)
    ri = 1.0 / (gamma.nodes - kappa[..., None])  # (..., i, node)
    weighted = g * gamma.dnodes
    return np.einsum("...im,...jm,m->...ij", ri, ri, weighted) / (2j * np.pi)


def sigma_direct(c: Coupling, s_k) -> np.ndarray:
    """Divided-difference oracle (h(k_i) - h(k_j))/(k_i - k_j) - 1."""
    kappa = _eigenvalues(s_k)
    md = map_derivatives(c, kappa)
    return divided_difference(kappa, md["h"], md["hp"]) - 1.0


def action_gradient_eigenvalues(c: Coupling, spec: EnsembleSpec, s_k) -> np.ndarray:
    """Diagonal eigenbasis entries g_a = dS/d kappa_a of the gradient.

    Batch-first: s_k is a SpectralData or (..., N) eigenvalues.
    """
    kappa = _eigenvalues(s_k)
    md = map_derivatives(c, kappa)
    hp, hpp = md["hp"], md["hpp"]
    res = _resolvent_values(kappa, md)
    # d/d kappa_i of log[(h_i - h_j)/(kappa_i - kappa_j)], limit h''/2h'
    off = _gap_quotient(kappa, res * hp[..., :, None] - 1.0, 0.5 * hpp / hp)
    diag = np.arange(kappa.shape[-1])
    off[..., diag, diag] = 0.0
    dbl = res[..., diag, diag] * hpp + 2.0 * off.sum(axis=-1)
    single = hpp / hp
    return (1.0 - spec.beta / 2.0) * single + (spec.beta / 2.0) * dbl


def action_gradient(c: Coupling, spec: EnsembleSpec, s_k: SpectralData) -> np.ndarray:
    """Matrix G with G_ab = dS/dK_ba, i.e. dS = Tr(G dK).

    Batch-first: s_k holds (..., N) spectra and G is (..., N, N).
    """
    g = action_gradient_eigenvalues(c, spec, s_k)
    v = s_k.eigenvectors
    return np.einsum("...ik,...k,...jk->...ij", v, g, v.conj())


def _h_third(c: Coupling, md: dict) -> np.ndarray:
    """Third derivative h''' at the points of md = map_derivatives(c, u).

    One more implicit differentiation of z T^p - T + 1 = 0, taken in the
    form k(h(u)) = u with k(v) = v s(v), s(v)^2 = 1 + lam v^(2p-2) and
    s(h) = 1/f on the branch of h:  h''' = 3 h''^2/h' - k'''(h) h'^4.
    Only action_hessian needs it; map_derivatives, which every node of
    the quadratures and bound suites calls, does not pay for it.
    """
    lam, m = complex(c.lam), 2 * c.p - 2
    v, hp = md["h"], md["hp"]
    s = 1.0 / md["f"]
    # derivatives of w = s^2 = 1 + lam v^m, then of s from 2 s s' = w' etc.
    w1 = lam * m * v ** (m - 1)
    w2 = lam * m * (m - 1) * v ** (m - 2)
    w3 = lam * m * (m - 1) * (m - 2) * v ** (m - 3) if m > 2 else 0.0
    s1 = w1 / (2.0 * s)
    s2 = (w2 - 2.0 * s1**2) / (2.0 * s)
    s3 = (w3 - 6.0 * s1 * s2) / (2.0 * s)
    return 3.0 * md["hpp"] ** 2 / hp - (3.0 * s2 + v * s3) * hp**4


def action_hessian(
    c: Coupling, spec: EnsembleSpec, s_k: SpectralData, x
) -> np.ndarray:
    """D G[X]: the derivative of action_gradient at K along the matrix X.

    With K = V diag(kappa) V^H, X~ = V^H X V and g the gradient entries
    (Daleckii-Krein for the eigenvectors, Lewis-Sendov for a spectral
    function):

        (D G[X])~_ij = (g_i - g_j) / (kappa_i - kappa_j) X~_ij   (i != j)
        (D G[X])~_ii = sum_j H_ij X~_jj,   H = d^2 S / d kappa d kappa

    The quotient takes its coincidence limit H_ii - H_ij through the
    package's one rule.  S = sum_i log h'_i + beta sum_{i<j} log D_ij, so
    with psi_ij = d log D_ij / d kappa_i (psi_ii = h''/2h'),
    H_ij = beta d psi_ij / d kappa_j and H_ii = (h''/h')' + beta
    sum_{j != i} d psi_ij / d kappa_i; both pair derivatives are divided
    differences with per-index limits h'''/6h' and h'''/3h'.  The result
    is complex-linear in X, so X need not be Hermitian.  Batch-first:
    s_k holds (..., N) spectra and x is (..., N, N).
    """
    kappa, v = s_k.eigenvalues, s_k.eigenvectors
    v_adj = np.swapaxes(v.conj(), -1, -2)
    xt = v_adj @ x @ v
    md = map_derivatives(c, kappa)
    hp, hpp = md["hp"], md["hpp"]
    h3 = _h_third(c, md)
    beta = spec.beta
    diag = np.arange(kappa.shape[-1])
    res = _resolvent_values(kappa, md)
    psi = _gap_quotient(kappa, res * hp[..., :, None] - 1.0, 0.5 * hpp / hp)
    psi_t = np.swapaxes(psi, -1, -2)
    cross = _gap_quotient(kappa, psi - psi_t, h3 / (6.0 * hp)) - psi * psi_t
    own = _gap_quotient(kappa, hpp[..., :, None] * res - 2.0 * psi, h3 / (3.0 * hp))
    own = own - psi**2
    own[..., diag, diag] = 0.0
    r = hpp / hp
    hess = beta * cross
    hess[..., diag, diag] = h3 / hp - r**2 + beta * own.sum(axis=-1)
    g = r + beta * (psi.sum(axis=-1) - psi[..., diag, diag])
    # H_ij at kappa_i = kappa_j: beta (h'''/6h' - (h''/2h')^2)
    pair_limit = beta * (h3 / (6.0 * hp) - 0.25 * r**2)
    dgt = xt * _gap_quotient(
        kappa, g[..., :, None] - g[..., None, :], hess[..., diag, diag] - pair_limit
    )
    dgt[..., diag, diag] = np.einsum("...ij,...j->...i", hess, xt[..., diag, diag])
    return v @ dgt @ v_adj


def jacobian_check(p: int, lam: float, eigs) -> dict:
    """Positivity of the Jacobian pair factors of spectra at real 0 < lam < inf.

    The factors are the divided differences (h(s_i) - h(s_j))/(s_i - s_j)
    of h, h' on the diagonal.  They are positive for every real lam > 0,
    beyond the pacman radius too, so the coupling's eta is lam itself.
    Batch-first: eigs is (N,) or (..., N); "positive" is (..., N, N) and
    "overall_positive" a bool for one spectrum, a (...) array for a stack.
    """
    if not 0 < lam < np.inf:
        raise ValueError(f"the Jacobian check needs real 0 < lambda < inf, got {lam}")
    eigs = np.asarray(eigs, dtype=float)
    md = map_derivatives(Coupling(lam, eta=lam, p=p), eigs)
    positive = divided_difference(eigs, md["h"], md["hp"]).real > 0
    overall = positive.all(axis=(-2, -1))
    return {"overall_positive": overall if eigs.ndim > 1 else bool(overall),
            "positive": positive}


def jacobian_pair_scan(p: int, lam: float, s_i, s_j) -> dict:
    """jacobian_check on the 2 x 2 pair spectra (s_i, s_j), broadcast together."""
    pairs = np.stack(np.broadcast_arrays(np.atleast_1d(s_i), np.atleast_1d(s_j)), axis=-1)
    ok = jacobian_check(p, lam, pairs)["overall_positive"]
    return {"positive": ok, "n_pairs": int(ok.size), "n_failures": int(np.sum(~ok))}
