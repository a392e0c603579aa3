"""Fuss-Catalan generating function T_p in the cut complex plane.

T_p is the unique power-series solution of ``z*T^p - T + 1 = 0`` with
``T_p(0) = 1``.  For p = 2 this is the Catalan generating function.  The
principal branch is analytic off the cut ``[branch_point, +inf)`` on the
positive real axis and is evaluated here by Newton iteration seeded from
the series near the origin and continued stepwise along the ray 0 -> z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BranchPointProximityError,
    CutProximityError,
    NonConvergenceError,
)

#: number of series terms used to seed Newton near the origin
SERIES_TERMS = 40
#: series is trusted inside |z| <= SERIES_RADIUS_FACTOR * branch_point
SERIES_RADIUS_FACTOR = 0.5
#: points closer than this to the cut are rejected
CUT_TOL = 1e-8
#: functional-equation residual target, relative to 1 + |z T^p|
RESIDUAL_TOL = 1e-12
MAX_CONTINUATION_STEPS = 64
NEWTON_MAX_ITER = 60


@dataclass(frozen=True)
class FussCatalanParams:
    """Interaction half-order p >= 2 of the ``lambda Tr H^(2p)`` model."""

    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")

    @property
    def branch_point(self) -> float:
        """Radius of convergence (p-1)^(p-1)/p^p of the series."""
        p = self.p
        return (p - 1) ** (p - 1) / p**p


@dataclass(frozen=True)
class CutGeometry:
    """Cut locus of the scalar map u -> u*sqrt(T_p(-lambda u^(2p-2))).

    The map inherits 2p-2 radial cuts from T_p, one per solution of
    ``-lambda u^(2p-2) in [branch_point, +inf)``.
    """

    p: int

    def __post_init__(self):
        if self.p < 2:
            raise ValueError(f"p must be >= 2, got {self.p}")

    @property
    def branch_point(self) -> float:
        p = self.p
        return (p - 1) ** (p - 1) / p**p

    def ray_angles(self, lam: complex) -> np.ndarray:
        """The 2p-2 ray angles for coupling lam != 0."""
        if lam == 0:
            raise ValueError("cut rays are undefined for lambda = 0")
        p = self.p
        base = (np.pi - np.angle(lam)) / (2 * p - 2)
        ks = np.arange(-p + 2, p)
        return base + ks * np.pi / (p - 1)

    def ray_start_radius(self, lam: complex) -> float:
        """Distance from the origin at which each cut ray starts."""
        if lam == 0:
            raise ValueError("cut rays are undefined for lambda = 0")
        p = self.p
        return abs(lam) ** (-1.0 / (2 * p - 2)) * np.sqrt(p - 1) / p ** (
            p / (2 * p - 2)
        )


def fc_series_coeffs(params: FussCatalanParams, n_max: int) -> list[Fraction]:
    """Exact series coefficients c_0..c_n of T_p via T <- 1 + z*T^p.

    The truncated fixed-point iteration stabilizes coefficient k after k
    rounds; this is the independent oracle for :func:`fc_eval`.
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    p = params.p
    coeffs = [Fraction(1)]
    for _ in range(n_max):
        power = [Fraction(1)]
        for _ in range(p):
            power = _poly_mul(power, coeffs, n_max)
        coeffs = [Fraction(1)] + power[: n_max]
    return coeffs + [Fraction(0)] * (n_max + 1 - len(coeffs))


_COEFF_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _series_coeffs_float(params: FussCatalanParams, n_max: int) -> np.ndarray:
    """Series seed c_k = C(pk, k)/((p-1)k + 1), the Fuss-Catalan numbers.

    The closed form replaces the exact fixed-point iteration of
    :func:`fc_series_coeffs`, which stays as its independent oracle.
    """
    key = (params.p, n_max)
    if key not in _COEFF_CACHE:
        p = params.p
        _COEFF_CACHE[key] = np.array(
            [math.comb(p * k, k) // ((p - 1) * k + 1) for k in range(n_max + 1)],
            dtype=float,
        )
    return _COEFF_CACHE[key]


def _poly_mul(a: list[Fraction], b: list[Fraction], n_max: int) -> list[Fraction]:
    out = [Fraction(0)] * min(len(a) + len(b) - 1, n_max + 1)
    for i, ai in enumerate(a):
        if i > n_max or ai == 0:
            continue
        for j, bj in enumerate(b):
            if i + j > n_max:
                break
            out[i + j] += ai * bj
    return out


def cut_distance_to_positive_ray(params: FussCatalanParams, z) -> np.ndarray:
    """Euclidean distance from z to the T_p cut [branch_point, +inf)."""
    z = np.asarray(z, dtype=complex)
    bp = params.branch_point
    on_side = z.real >= bp
    return np.where(on_side, np.abs(z.imag), np.abs(z - bp))


def fc_eval_many(params: FussCatalanParams, z) -> np.ndarray:
    """Vectorized principal-branch evaluation of T_p.

    Raises
    ------
    CutProximityError
        if any point is within CUT_TOL of the cut.
    NonConvergenceError
        if Newton fails after the continuation budget.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if np.any(cut_distance_to_positive_ray(params, z) < CUT_TOL):
        raise CutProximityError(
            f"point within {CUT_TOL} of the cut [{params.branch_point}, inf)"
        )
    p = params.p
    bp = params.branch_point
    coeffs = _series_coeffs_float(params, SERIES_TERMS)
    out = np.empty_like(z)

    small = np.abs(z) <= SERIES_RADIUS_FACTOR * bp
    if np.any(small):
        out[small] = np.polynomial.polynomial.polyval(z[small], coeffs)

    big = ~small
    if np.any(big):
        zb = z[big]
        direction = zb / np.abs(zb)
        s0 = SERIES_RADIUS_FACTOR * bp * 0.8
        t = np.polynomial.polynomial.polyval(s0 * direction, coeffs)
        # geometric radius schedule shared by all points
        n_steps = MAX_CONTINUATION_STEPS
        ratio = (np.abs(zb) / s0) ** (1.0 / n_steps)
        radius = np.full(zb.shape, s0)
        for _ in range(n_steps):
            radius = radius * ratio
            t = _newton(p, direction * radius, t)
        t = _newton(p, zb, t)
        out[big] = t

    resid = np.abs(z * out**p - out + 1.0)
    bad = resid > RESIDUAL_TOL * (1.0 + np.abs(z * out**p))
    if np.any(bad):
        # per-point retry with a denser schedule before giving up
        for idx in np.flatnonzero(bad):
            out[idx] = _fc_eval_slow(params, complex(z[idx]), coeffs)
    return out


def _newton(p: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    for _ in range(NEWTON_MAX_ITER):
        tp1 = t ** (p - 1)
        f = z * tp1 * t - t + 1.0
        df = p * z * tp1 - 1.0
        df = np.where(np.abs(df) < 1e-300, 1e-300, df)
        step = f / df
        t = t - step
        if np.all(np.abs(f) <= 1e-14 * (1.0 + np.abs(z * tp1 * t))):
            break
    return t


def _fc_eval_slow(
    params: FussCatalanParams, z: complex, coeffs: np.ndarray
) -> complex:
    """Scalar fallback: denser geometric continuation with step-halving."""
    p = params.p
    s0 = SERIES_RADIUS_FACTOR * params.branch_point * 0.5
    direction = z / abs(z)
    t = complex(np.polynomial.polynomial.polyval(s0 * direction, coeffs))
    radius = s0
    target = abs(z)
    step_factor = 1.2
    budget = 4000
    while radius < target and budget > 0:
        budget -= 1
        trial_radius = min(radius * step_factor, target)
        trial = _newton(p, np.array([direction * trial_radius]), np.array([t]))[0]
        resid = abs(trial_radius * direction * trial**p - trial + 1.0)
        if resid <= RESIDUAL_TOL * (1.0 + abs(trial_radius * direction * trial**p)):
            radius = trial_radius
            t = trial
            step_factor = min(step_factor * 1.1, 1.5)
        else:
            step_factor = 1.0 + (step_factor - 1.0) / 2.0
            if step_factor - 1.0 < 1e-6:
                break
    t = complex(_newton(p, np.array([z]), np.array([t]))[0])
    resid = abs(z * t**p - t + 1.0)
    if resid > RESIDUAL_TOL * (1.0 + abs(z * t**p)):
        raise NonConvergenceError(
            f"Newton continuation failed at z={z} (residual {resid:.3e})"
        )
    return t


def fc_eval(params: FussCatalanParams, z: complex) -> complex:
    """Principal branch of T_p at a single point off the cut."""
    return complex(fc_eval_many(params, np.array([z]))[0])


def fc_log_deriv_many(params: FussCatalanParams, z) -> np.ndarray:
    """Vectorized E_p(z) = T_p'(z)/T_p(z) via implicit differentiation."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    t = fc_eval_many(params, z)
    p = params.p
    denom = 1.0 - p * z * t ** (p - 1)
    if np.any(np.abs(denom) < 1e-8):
        raise BranchPointProximityError(
            "implicit-derivative denominator 1 - p*z*T^(p-1) is nearly zero"
        )
    return t ** (p - 1) / denom


def fc_log_deriv(params: FussCatalanParams, z: complex) -> complex:
    """E_p(z) = T_p'(z)/T_p(z) at a single point."""
    return complex(fc_log_deriv_many(params, np.array([z]))[0])


def fc_cut_distance(params: FussCatalanParams, lam: complex, u) -> np.ndarray:
    """Distance from u to the union of the 2p-2 cut rays of the scalar map."""
    if lam == 0:
        raise ValueError("cut rays are undefined for lambda = 0")
    u = np.asarray(u, dtype=complex)
    geom = CutGeometry(params.p)
    r0 = geom.ray_start_radius(lam)
    best = None
    for theta in geom.ray_angles(lam):
        v = u * np.exp(-1j * theta)
        s = np.clip(v.real, r0, None)
        d = np.abs(v - s)
        best = d if best is None else np.minimum(best, d)
    return best
