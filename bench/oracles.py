"""Reference values computed apart from the loopvertex package.

Nothing here imports loopvertex.  Each oracle reaches its value by a
route the package does not take:

* ``fc_series`` sums the Fuss-Catalan series from its closed-form
  coefficients ``C(pk, k) / ((p-1)k + 1)`` in exact integer arithmetic;
* ``catalan_closed_form`` is the p = 2 formula ``2 / (1 + sqrt(1 - 4z))``;
* ``fc_hyp2f1`` writes T_2 and T_3 as Gauss hypergeometric functions
  and evaluates their principal branch with mpmath;
* ``fc_dense_continuation`` follows the root of ``z T^p - T + 1 = 0``
  along a path that keeps away from the branch point: up the imaginary
  axis, then along the circle |w| = |z| down to arg z;
* ``z_ratio_moments`` computes Z(lambda)/Z(0) for N = 1, and for beta = 2
  at any N, as the Andreief Gram determinant of mpmath 1-D moments;
* ``gaussian_moment_n1`` is the closed form E[x^(2p)] = (2p-1)!!/2^p
  under the weight exp(-x^2).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, prod

import mpmath
import numpy as np

#: working precision of the mpmath oracles, in decimal digits
MP_DPS = 30
#: series terms; inside half the branch radius the tail is below 2^-90
SERIES_TERMS = 90


def branch_point(p: int) -> float:
    """Radius of convergence (p-1)^(p-1)/p^p of the Fuss-Catalan series."""
    return (p - 1) ** (p - 1) / p**p


def fc_series(p: int, z) -> np.ndarray:
    """Partial sum of sum_k C(pk, k)/((p-1)k+1) z^k (Horner, float)."""
    coeffs = [
        float(Fraction(comb(p * k, k), (p - 1) * k + 1)) for k in range(SERIES_TERMS)
    ]
    z = np.asarray(z, dtype=complex)
    out = np.zeros_like(z)
    for c in reversed(coeffs):
        out = out * z + c
    return out


def catalan_closed_form(z) -> np.ndarray:
    """Principal branch of T_2, written without cancellation near z = 0."""
    z = np.asarray(z, dtype=complex)
    return 2.0 / (1.0 + np.sqrt(1.0 - 4.0 * z))


#: T_p = 2F1(a, b; c; scale * z) for the two orders with such a form
_HYP2F1 = {
    2: (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)),
    3: (Fraction(1, 3), Fraction(2, 3), Fraction(3, 2), Fraction(27, 4)),
}


def fc_hyp2f1(p: int, z) -> np.ndarray:
    """Principal branch of T_p for p = 2, 3 by mpmath's hyp2f1."""
    a, b, c, scale = (mpmath.mpf(x.numerator) / x.denominator for x in _HYP2F1[p])
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    with mpmath.workdps(MP_DPS):
        vals = [complex(mpmath.hyp2f1(a, b, c, scale * mpmath.mpc(w))) for w in z]
    return np.asarray(vals, dtype=complex)


def _newton(p: int, w: np.ndarray, t: np.ndarray, iters: int) -> np.ndarray:
    for _ in range(iters):
        tp1 = t ** (p - 1)
        t = t - (w * tp1 * t - t + 1.0) / (p * w * tp1 - 1.0)
    return t


def fc_dense_continuation(p: int, z, steps: int = 2000) -> np.ndarray:
    """Principal branch of T_p by dense continuation around the branch point.

    Points inside half the branch radius take the series.  Every other
    point starts from the series at ``0.01 * branch_point`` on the
    imaginary axis (on the side of arg z), climbs that axis
    geometrically to |z|, then follows the circle |w| = |z| to arg z.
    The path never comes nearer the branch point than ``branch_point``
    itself and never crosses the cut.  Each step must move the root by
    less than 5% of its modulus, far below the relative spacing of the
    p roots, so no step can jump to another root; the final residual of
    the functional equation is checked.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    bp = branch_point(p)
    out = np.empty_like(z)
    inside = np.abs(z) <= 0.5 * bp
    out[inside] = fc_series(p, z[inside])
    zo = z[~inside]
    if zo.size == 0:
        return out
    if np.any((zo.imag == 0) & (zo.real >= bp)):
        raise ValueError("dense continuation needs points off the cut")
    radius = np.abs(zo)
    theta = np.angle(zo)
    side = np.where(theta >= 0, 1.0, -1.0)
    r0 = 0.01 * bp
    t = fc_series(p, 1j * side * r0)
    worst_jump = 0.0
    for k in range(1, steps + 1):
        w = 1j * side * r0 * (radius / r0) ** (k / steps)
        t_new = _newton(p, w, t, 4)
        worst_jump = max(worst_jump, float(np.max(np.abs(t_new - t) / np.abs(t))))
        t = t_new
    for k in range(1, steps + 1):
        ang = side * np.pi / 2 + (theta - side * np.pi / 2) * (k / steps)
        w = radius * np.exp(1j * ang)
        t_new = _newton(p, w, t, 4)
        worst_jump = max(worst_jump, float(np.max(np.abs(t_new - t) / np.abs(t))))
        t = t_new
    t = _newton(p, zo, t, 8)
    resid = np.abs(zo * t**p - t + 1.0) / (1.0 + np.abs(zo * t**p))
    if worst_jump > 0.05 or np.max(resid) > 1e-12:
        raise ArithmeticError(
            f"dense continuation not certified: step {worst_jump:.3g}, "
            f"residual {np.max(resid):.3g}"
        )
    out[~inside] = t
    return out


def gaussian_moment_n1(p: int) -> float:
    """E[x^(2p)] = (2p-1)!!/2^p under the density exp(-x^2)/sqrt(pi)."""
    return prod(range(1, 2 * p, 2)) / 2.0**p


def line_angle(lam: complex, p: int) -> float:
    """Rotation phi of the eigenvalue line for the direct integral.

    Zero when Re(lam) >= 0; otherwise ``-arg(lam)/(2p)``, which makes
    ``lam * (exp(i phi) t)^(2p) = |lam| t^(2p)`` real and positive.
    """
    lam = complex(lam)
    if lam.real >= 0:
        return 0.0
    return -float(np.angle(lam)) / (2 * p)


def z_ratio_moments(p: int, lam: complex, n: int) -> complex:
    """Z(lam, N)/Z(0, N) under exp(-N (x^2 + lam x^(2p))) per eigenvalue.

    N = 1 is the 1-D integral itself; N >= 2 with beta = 2 is, by
    Andreief's identity, the ratio of Gram (Hankel) determinants
    ``det[m_(i+j)(lam)] / det[m_(i+j)(0)]`` of 1-D moments.  The moments
    at lam are integrated along ``x = exp(i phi) t`` (see ``line_angle``),
    where the real-line integral diverges, and vanish for odd orders by
    symmetry.  The moments at 0 are ``Gamma(m + 1/2) / N^(m + 1/2)``.
    """
    with mpmath.workdps(MP_DPS):
        phi = line_angle(lam, p)
        rot = mpmath.expjpi(mpmath.mpf(phi) / mpmath.pi)
        lam_mp = mpmath.mpc(lam.real, lam.imag)

        def moment(k: int):
            if k % 2:
                return mpmath.mpc(0)

            def integrand(t):
                x = rot * t
                return x**k * mpmath.exp(-n * (x**2 + lam_mp * x ** (2 * p)))

            return 2 * rot * mpmath.quad(integrand, [0, 1, mpmath.inf])

        def moment0(k: int):
            if k % 2:
                return mpmath.mpf(0)
            return mpmath.gamma(k / 2 + mpmath.mpf(1) / 2) / mpmath.mpf(n) ** (
                k / 2 + mpmath.mpf(1) / 2
            )

        m = [moment(k) for k in range(2 * n - 1)]
        m0 = [moment0(k) for k in range(2 * n - 1)]
        gram = mpmath.matrix(n, n)
        gram0 = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                gram[i, j] = m[i + j]
                gram0[i, j] = m0[i + j]
        return complex(mpmath.det(gram) / mpmath.det(gram0))
