"""Fuss-Catalan generating function T_p in the cut complex plane.

T_p is the unique power-series solution of ``z*T^p - T + 1 = 0`` with
``T_p(0) = 1``.  For p = 2 this is the Catalan generating function.  The
principal branch is analytic off the cut ``[branch_point, +inf)`` on the
positive real axis.  :func:`fc_eval_many` evaluates it in three zones
(``bp`` the branch point):

* ``|z| <= bp/2``: the Fuss-Catalan series, summed and returned as is;
* ``|z| >= 3 bp``: the series at infinity, ``T_p(z) = w S(w)`` with
  ``w = (-z)^(-1/p)`` on the principal root and ``S`` the root of
  ``s^p + w s - 1 = 0`` with ``S(0) = 1``, then a Newton polish;
* the annulus between: a short continuation from the inner disk up the
  imaginary axis and along ``|w| = |z|``.

Every value outside the inner disk must pass a branch certificate
(residual, ``p |arg T| < pi``, ``Im T`` with the sign of ``Im z``, and
``|T| < p/(p-1)`` when ``|z| < bp``); a point that fails is recomputed by
a dense continuation along the same path, which must pass it too.

The scalar map ``u -> u*sqrt(T_p(-lambda u^(2p-2)))`` inherits 2p-2
radial cuts from T_p; :meth:`FussCatalanParams.ray_angles` and
:meth:`FussCatalanParams.ray_start_radius` locate them and
:func:`fc_cut_distance` measures the distance to them.
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
    OutOfRangeError,
)

#: terms of the Fuss-Catalan series summed inside the inner disk
SERIES_TERMS = 40
#: series is trusted inside |z| <= SERIES_RADIUS_FACTOR * branch_point
SERIES_RADIUS_FACTOR = 0.5
#: points closer than this to the cut are rejected
CUT_TOL = 1e-8
#: functional-equation residual target, relative to 1 + |z T^p|
RESIDUAL_TOL = 1e-12
#: the series at infinity seeds every point with |z| >= this * branch_point
OUTER_RADIUS_FACTOR = 3.0
#: terms of the series at infinity; its seed error is below 1e-6 at p <= 6
OUTER_TERMS = 48
#: Newton steps after the outer seed, per continuation step, and at the
#: end of a continuation
OUTER_NEWTON = 3
STEP_NEWTON = 2
END_NEWTON = 6
#: steps per leg of the continuation, in the annulus and in the fallback
SHORT_STEPS = 4
DENSE_STEPS = 400
#: round-off allowance of the Im-sign test, relative to |T|
BRANCH_TOL = 1e-12


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

    def ray_angles(self, lam: complex) -> np.ndarray:
        """Angles of the 2p-2 cut rays of u -> u*sqrt(T_p(-lam u^(2p-2))).

        One ray per solution of ``-lam u^(2p-2) in [branch_point, +inf)``;
        there are none at lam = 0.
        """
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
    rounds; this is the independent oracle for :func:`fc_eval_many`.
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
_OUTER_CACHE: dict[tuple[int, int], np.ndarray] = {}
_SEED_CACHE: dict[tuple[int, int, float], complex] = {}


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

    Calls whose points all lie in the inner disk take the series and
    nothing else.  Every other point gets a seed (outer series or short
    continuation), a Newton polish and the branch certificate; points
    that fail it are recomputed by the dense continuation.

    Raises
    ------
    OutOfRangeError
        if any point is not finite.
    CutProximityError
        if any point is within CUT_TOL of the cut.
    NonConvergenceError
        if a point fails the branch certificate after dense continuation.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    shape, z = z.shape, z.ravel()
    p = params.p
    bp = params.branch_point
    coeffs = _series_coeffs_float(params, SERIES_TERMS)
    radius = np.abs(z)
    inner = radius <= SERIES_RADIUS_FACTOR * bp
    if inner.all():
        return _power_series(z, coeffs).reshape(shape)
    finite = np.isfinite(z)
    if not finite.all():
        raise OutOfRangeError(f"p={p}: z={complex(z[np.argmin(finite)])} is not finite")

    dist = cut_distance_to_positive_ray(params, z)
    near = dist < CUT_TOL
    if near.any():
        i = int(np.argmax(near))
        raise CutProximityError(
            f"p={p}: z={complex(z[i])} lies {dist[i]:.3e} from the cut "
            f"[{bp:.6g}, inf), closer than CUT_TOL={CUT_TOL:g}"
        )
    out = np.empty_like(z)
    if inner.any():
        out[inner] = _power_series(z[inner], coeffs)
    outer = radius >= OUTER_RADIUS_FACTOR * bp
    if outer.any():
        zo = z[outer]
        w = (-zo) ** (-1.0 / p)
        seed = w * _power_series(w, _outer_coeffs(p, OUTER_TERMS))
        out[outer] = _newton(p, zo, seed, OUTER_NEWTON)
    mid = ~inner & ~outer
    if mid.any():
        out[mid] = _continue(params, z[mid], SHORT_STEPS)

    rest = np.flatnonzero(~inner)
    failed = rest[~_certified(params, z[rest], out[rest])]
    if failed.size:
        zf = z[failed]
        t = _continue(params, zf, DENSE_STEPS)
        ok = _certified(params, zf, t)
        if not ok.all():
            i = int(np.argmin(ok))
            raise NonConvergenceError(
                f"p={p}: no certified principal root at z={complex(zf[i])} "
                f"after dense continuation (residual {_residual(p, zf, t)[i]:.3e})"
            )
        out[failed] = t
    return out.reshape(shape)


def _power_series(x: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] x^k by Horner's rule, in place."""
    out = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        out *= x
        out += c
    return out


def _outer_coeffs(p: int, n_max: int) -> np.ndarray:
    """Coefficients a_0..a_n of S(w), the root of s^p + w s - 1 with S(0) = 1.

    Lagrange inversion gives
    ``a_m = (-1)^m prod_{j=1}^{m-1} (m + 1 - j p) / (p^m m!)``, and
    ``T_p(z) = w S(w)`` with ``w = (-z)^(-1/p)``; the series converges
    for ``|z| > branch_point``.  Python's int / int true division is
    correctly rounded, so each float equals float(Fraction(...)).
    """
    key = (p, n_max)
    if key not in _OUTER_CACHE:
        _OUTER_CACHE[key] = np.array(
            [
                (-1) ** m * math.prod(m + 1 - j * p for j in range(1, m))
                / (p**m * math.factorial(m))
                for m in range(n_max + 1)
            ]
        )
    return _OUTER_CACHE[key]


def _newton(p: int, z: np.ndarray, t: np.ndarray, steps: int) -> np.ndarray:
    for _ in range(steps):
        ztp1 = z * t ** (p - 1)
        t = t - (ztp1 * t - t + 1.0) / (p * ztp1 - 1.0)
    return t


def _continue(params: FussCatalanParams, z: np.ndarray, steps: int) -> np.ndarray:
    """Follow the root from the inner disk to z, keeping off the branch point.

    The path starts from the series at ``i*side*r0`` (``r0`` the inner
    radius, ``side`` the sign of Im z), climbs the imaginary axis
    geometrically to ``|z|`` and then follows the circle ``|w| = |z|`` to
    arg z, with the distance to the branch point changing geometrically,
    so each step is a fixed fraction of that distance.  ``steps`` per leg.
    The seed ``T_p(i*r0)`` is summed once per p and kept; ``Im z < 0``
    starts from its conjugate, ``T_p(-i*r0)``, since the series has real
    coefficients.
    """
    p = params.p
    bp = params.branch_point
    r0 = SERIES_RADIUS_FACTOR * bp
    side = np.where(z.imag < 0, -1.0, 1.0)
    radius = np.abs(z)
    key = (p, SERIES_TERMS, r0)
    if key not in _SEED_CACHE:
        coeffs = _series_coeffs_float(params, SERIES_TERMS)
        _SEED_CACHE[key] = complex(_power_series(np.array([1j * r0]), coeffs)[0])
    seed = _SEED_CACHE[key]
    t = np.where(side < 0, seed.conjugate(), seed)
    for k in range(1, steps + 1):
        t = _newton(p, 1j * side * r0 * (radius / r0) ** (k / steps), t, STEP_NEWTON)
    d0 = np.hypot(radius, bp)
    d1 = np.abs(z - bp)
    for k in range(1, steps):
        d = d0 * (d1 / d0) ** (k / steps)
        # |r e^(ia) - bp|^2 = (r - bp)^2 + 4 r bp sin^2(a/2)
        half = np.sqrt(np.clip((d * d - (radius - bp) ** 2) / (4 * radius * bp), 0.0, 1.0))
        t = _newton(p, radius * np.exp(2j * side * np.arcsin(half)), t, STEP_NEWTON)
    return _newton(p, z, t, END_NEWTON)


def _residual(p: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """|z T^p - T + 1| relative to 1 + |z T^p|."""
    ztp = z * t**p
    return np.abs(ztp - t + 1.0) / (1.0 + np.abs(ztp))


def _certified(params: FussCatalanParams, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Branch certificate: True where t is the principal root at z.

    A root passes when its residual is within RESIDUAL_TOL, when
    ``p |arg t| < pi``, and when ``Im t`` has the sign of ``Im z`` (up to
    BRANCH_TOL on the real axis).  The principal branch passes the last
    test because ``T_p(z) = int dmu_p(x) / (1 - z x)`` with a positive
    measure mu_p.  When Im z > 0 the argument principle, applied to
    ``z = (t - 1) / t^p`` on the sector ``0 < arg t < pi/p``, leaves one
    root there, so the tests pick one root (Im z < 0 by conjugation).  On
    (0, branch_point) two positive roots pass them; the principal one has
    ``|t| < p/(p-1) = T_p(branch_point)`` (Rouche on ``|t| = p/(p-1)``),
    which is checked for every ``|z| < branch_point``.
    """
    p = params.p
    allowance = BRANCH_TOL * np.abs(t)
    side = ((z.imag < 0) | (t.imag >= -allowance)) & ((z.imag > 0) | (t.imag <= allowance))
    disk = (np.abs(z) >= params.branch_point) | (np.abs(t) < p / (p - 1))
    sector = p * np.abs(np.angle(t)) < np.pi
    return (_residual(p, z, t) <= RESIDUAL_TOL) & sector & side & disk


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


def fc_cut_distance(params: FussCatalanParams, lam: complex, u) -> np.ndarray:
    """Distance from u to the union of the 2p-2 cut rays of the scalar map."""
    r0 = params.ray_start_radius(lam)
    u = np.asarray(u, dtype=complex)
    best = None
    for theta in params.ray_angles(lam):
        v = u * np.exp(-1j * theta)
        s = np.clip(v.real, r0, None)
        d = np.abs(v - s)
        best = d if best is None else np.minimum(best, d)
    return best
