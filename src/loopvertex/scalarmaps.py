"""Scalar maps of the matrix-model change of variables.

For a coupling lam and half-order p the maps are

    f(u) = sqrt(T_p(-lam u^(2p-2)))      (principal square root)
    h(u) = u f(u)
    k(v) = v sqrt(1 + lam v^(2p-2))
    g(u) = h(u) - u

h and k are mutually inverse on the cut plane; g admits an equivalent
integral representation over the coupling segment [0, lam].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BranchViolationError, CutCrossingError, CutProximityError
from .fusscatalan import (
    FussCatalanParams,
    fc_eval_many,
    fc_log_deriv_many,
)

#: square-root arguments this close to the negative real axis are rejected
BRANCH_TOL = 1e-12

MAP_KINDS = ("f", "h", "k", "g")

#: Gauss-Legendre nodes of g_integral_rep on the coupling segment
G_NODES = 64


@dataclass(frozen=True)
class Coupling:
    """Complex coupling with its pacman-domain parameters.

    ``lam = 0`` needs no flag: T_p(0) = 1, so every map is then the
    identity (or zero, for g) by plain arithmetic.  A non-finite lam is
    rejected.
    """

    lam: complex
    epsilon: float = 0.2
    eta: float = 0.5
    p: int = 2

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("p must be >= 2")
        if not 0.0 < self.epsilon < np.pi:
            raise ValueError("epsilon must lie in (0, pi)")
        if not self.eta > 0.0:
            raise ValueError("eta must be positive")
        lam = complex(self.lam)
        if not np.isfinite(lam):
            raise ValueError(f"lambda = {lam} is not finite")
        if lam != 0:
            if abs(lam) > self.eta * (1 + 1e-12):
                raise ValueError(f"|lambda|={abs(lam)} exceeds eta={self.eta}")
            if abs(np.angle(lam)) > np.pi - self.epsilon + 1e-12:
                raise ValueError(
                    f"arg lambda = {np.angle(lam)} outside the pacman sector"
                )

    @property
    def params(self) -> FussCatalanParams:
        return FussCatalanParams(self.p)


def _principal_sqrt(w: np.ndarray, what: str) -> np.ndarray:
    w = np.asarray(w, dtype=complex)
    near_cut = (w.real <= 0) & (np.abs(w.imag) <= BRANCH_TOL * (1.0 + np.abs(w)))
    if np.any(near_cut):
        raise BranchViolationError(
            f"square-root argument of {what} on the negative real axis"
        )
    return np.sqrt(w)


def eval_map(kind: str, c: Coupling, u) -> np.ndarray | complex:
    """Evaluate one of the scalar maps f, h, k, g at u (scalar or array)."""
    if kind not in MAP_KINDS:
        raise ValueError(f"unknown map kind {kind!r}")
    scalar = np.isscalar(u) or np.asarray(u).ndim == 0
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    lam = complex(c.lam)
    p = c.p
    if kind == "k":
        w = 1.0 + lam * u ** (2 * p - 2)
        out = u * _principal_sqrt(w, "k")
    else:
        z = -lam * u ** (2 * p - 2)
        t = fc_eval_many(c.params, z)
        f = _principal_sqrt(t, "f")
        if kind == "f":
            out = f
        elif kind == "h":
            out = u * f
        else:  # g
            out = u * (f - 1.0)
    return complex(out[0]) if scalar else out


def g_integral_rep(c: Coupling, u: complex) -> complex:
    """g(u) as the quadrature of -(1/2) * u^(2p-1) * e_t(u) f_t(u) dt.

    The integration path is the straight segment from 0 to lam, which
    stays inside the pacman domain (star-shaped about the origin).
    """
    lam = complex(c.lam)
    u = complex(u)
    s, w = np.polynomial.legendre.leggauss(G_NODES)
    s = 0.5 * (s + 1.0)  # nodes on (0, 1)
    w = 0.5 * w
    ts = s * lam
    z = -ts * u ** (2 * c.p - 2)
    try:
        e = fc_log_deriv_many(c.params, z)
        f = _principal_sqrt(fc_eval_many(c.params, z), "f")
    except CutProximityError as exc:
        raise CutCrossingError(
            f"quadrature node on the segment [0, {lam}] hits the cut"
        ) from exc
    integrand = u ** (2 * c.p - 1) * e * f
    return complex(-0.5 * lam * np.sum(w * integrand))


def inverse_residual(c: Coupling, z) -> np.ndarray | float:
    """max(|h(k(z)) - z|, |k(h(z)) - z|), the inverse-pair defect.

    Elementwise for an array z; a float for a scalar.
    """
    scalar = np.isscalar(z) or np.asarray(z).ndim == 0
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    hk = eval_map("h", c, eval_map("k", c, z))
    kh = eval_map("k", c, eval_map("h", c, z))
    out = np.maximum(np.abs(hk - z), np.abs(kh - z))
    return float(out[0]) if scalar else out
