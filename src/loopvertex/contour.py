"""Keyhole contour construction and holomorphic functional calculus.

The contour is the positively oriented boundary of

    D = {|u| < r}  union  {|u| < R, min(|arg u|, |pi - arg u|) < psi}

i.e. a central disk joined to two symmetric sectors hugging the real
axis, which encloses any real spectrum with |mu| <= R/2 while staying
clear of the radial cuts of the scalar map h.  Quadrature nodes carry
their du weights, so ``sum(f(u) * du)`` approximates the contour
integral; the 1/(2*pi*i) of the functional calculus is applied by the
consumers.  A panel layout and its Cauchy self-test depend only on the
geometry (R, r, psi) and the probe radius, so each geometry is certified
once and its read-only nodes are shared by every coupling that has it;
the clearance of the nodes from a coupling's own cut rays is checked on
every build.  The Cauchy sum takes an array of points, and holo_apply and
min_spectrum_distance take (..., N) stacks of spectra: each is one array
pass over the nodes or the contour pieces.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ContourClearanceError,
    CutCollisionError,
    QuadratureDivergenceError,
    SpectrumTooLargeError,
)
from .fusscatalan import fc_cut_distance
from .matrixcore import SpectralData
from .scalarmaps import Coupling

#: default total Gauss-Legendre panel budget
DEFAULT_PANELS = 512
GL_ORDER = 8
CAUCHY_TOL = 1e-8
MAX_DOUBLINGS = 5
#: certified layouts kept, one per keyhole geometry (a bound battery needs 8)
LAYOUT_CACHE_SIZE = 64
#: Gauss-Legendre nodes and weights on [-1, 1], shared by every panel
_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_ORDER)


@dataclass(frozen=True)
class _Arc:
    radius: float
    a0: float
    a1: float  # traversed a0 -> a1

    def length(self) -> float:
        return self.radius * abs(self.a1 - self.a0)

    def point_distance(self, x: np.ndarray) -> np.ndarray:
        lo, hi = min(self.a0, self.a1), max(self.a0, self.a1)
        # an angle is on the arc when its turn past lo, taken mod 2 pi, is
        # at most the arc's span
        on_arc = (np.angle(x) - lo) % (2 * np.pi) <= hi - lo
        ends = self.radius * np.exp(1j * np.array([self.a0, self.a1]))
        to_ends = np.min(np.abs(x[..., None] - ends), axis=-1)
        return np.where(on_arc, np.abs(np.abs(x) - self.radius), to_ends)


@dataclass(frozen=True)
class _Segment:
    z0: complex
    z1: complex

    def length(self) -> float:
        return abs(self.z1 - self.z0)

    def point_distance(self, x: np.ndarray) -> np.ndarray:
        d = self.z1 - self.z0
        t = np.clip(((x - self.z0) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
        return np.abs(x - (self.z0 + t * d))


@dataclass
class KeyholeContour:
    """Quadrature-ready keyhole contour.

    ``nodes`` and ``dnodes`` satisfy ``contour integral of f ~
    sum(f(nodes) * dnodes)`` with counterclockwise orientation.
    """

    R: float
    r: float
    psi: float
    nodes: np.ndarray
    dnodes: np.ndarray
    pieces: list = field(default_factory=list, repr=False)

    def cauchy(self, a) -> np.ndarray:
        """Quadrature values of (1/2 pi i) * contour du/(u - a), a of any shape."""
        a = np.asarray(a, dtype=complex)
        return np.sum(self.dnodes / (self.nodes - a[..., None]), axis=-1) / (2j * np.pi)


def _pieces(R: float, r: float, psi: float) -> list:
    e = lambda a: np.exp(1j * a)
    return [
        _Arc(R, -psi, psi),
        _Segment(R * e(psi), r * e(psi)),
        _Arc(r, psi, np.pi - psi),
        _Segment(r * e(np.pi - psi), R * e(np.pi - psi)),
        _Arc(R, np.pi - psi, np.pi + psi),
        _Segment(R * e(np.pi + psi), r * e(np.pi + psi)),
        _Arc(r, np.pi + psi, 2 * np.pi - psi),
        _Segment(r * e(2 * np.pi - psi), R * e(2 * np.pi - psi)),
    ]


def _quadrature(pieces: list, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    lengths = np.array([p.length() for p in pieces])
    shares = np.maximum(
        2, np.rint(n_panels * lengths / lengths.sum()).astype(int)
    )
    nodes, dnodes = [], []
    for piece, m in zip(pieces, shares):
        # (panel, node) grids of the parameter t on [0, 1] and its weights
        edges = np.linspace(0.0, 1.0, m + 1)
        lo, hi = edges[:-1, None], edges[1:, None]
        t = 0.5 * (hi - lo) * (_GL_X + 1.0) + lo
        wt = 0.5 * (hi - lo) * _GL_W
        if isinstance(piece, _Arc):
            ang = piece.a0 + t * (piece.a1 - piece.a0)
            u = piece.radius * np.exp(1j * ang)
            du = 1j * u * (piece.a1 - piece.a0) * wt
        else:
            d = piece.z1 - piece.z0
            u = piece.z0 + t * d
            du = d * wt
        nodes.append(u.ravel())
        dnodes.append(du.ravel())
    return np.concatenate(nodes), np.concatenate(dnodes)


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _certified_layout(R, r, psi, probe, n_panels, tol, max_doublings):
    """(pieces, read-only nodes, dnodes, None) once every Cauchy probe gap is <= tol.

    After max_doublings failed panel doublings: the last layout with the
    worst (probe, gap) in place of None.
    """
    probes_in = [0.0, 0.3 * r, -0.3 * r, 0.45j * r, probe]
    probes_out = [R + 1.0, 1j * R, 2 * r * np.exp(1j * (psi + 0.5 * (np.pi - 2 * psi)))]
    probes = np.array(probes_in + probes_out, dtype=complex)
    targets = np.array([1.0] * len(probes_in) + [0.0] * len(probes_out))
    pieces = tuple(_pieces(R, r, psi))
    for _ in range(max_doublings + 1):
        nodes, dnodes = _quadrature(pieces, n_panels)
        gamma = KeyholeContour(R=R, r=r, psi=psi, nodes=nodes, dnodes=dnodes)
        gaps = np.abs(gamma.cauchy(probes) - targets)
        if np.all(gaps <= tol):
            nodes.flags.writeable = dnodes.flags.writeable = False
            return pieces, nodes, dnodes, None
        n_panels *= 2
    k = int(np.argmax(gaps))
    return pieces, nodes, dnodes, (complex(probes[k]), float(gaps[k]))


def build_keyhole(
    spectral_radius: float, c: Coupling, n_nodes: int = DEFAULT_PANELS
) -> KeyholeContour:
    """Build the keyhole for a coupling and a real spectrum radius.

    Geometry recipe: r = 1 (shrunk if a cut ray starts inside the unit
    disk), R = max(2*spectral_radius, 2r), psi = min(epsilon/2, half the
    angular gap between the real axis and the nearest cut ray).  Panels
    are doubled until the Cauchy self-test reaches 1e-8, once per
    geometry: couplings with the same (R, r, psi) share read-only nodes,
    and each call checks their clearance from its own cut rays.
    """
    if spectral_radius < 0:
        raise ValueError("spectral_radius must be >= 0")
    if n_nodes < 64:
        raise ValueError("n_nodes must be >= 64")
    lam = complex(c.lam)
    r = 1.0
    if lam != 0:
        angles = c.params.ray_angles(lam) % np.pi
        gap = float(np.min(np.minimum(angles, np.pi - angles)))
        psi = min(c.epsilon / 2.0, gap / 2.0)
        start = c.params.ray_start_radius(lam)
        if start <= 1.25 * r:
            # cut ray would pierce the central disk; shrink the cap
            r = 0.6 * start
        if psi <= 0 or r <= 0:
            raise CutCollisionError(
                f"build_keyhole: no keyhole with positive cut clearance exists "
                f"for p={c.p}, lam={lam:.6g} (opening angle psi={psi:.3e}, "
                f"cap radius r={r:.3e})"
            )
    else:
        psi = c.epsilon / 2.0
    R = max(2.0 * spectral_radius, 2.0 * r)
    pieces, nodes, dnodes, worst = _certified_layout(
        R, r, psi, float(min(spectral_radius, R / 2)), max(64, n_nodes // GL_ORDER),
        CAUCHY_TOL, MAX_DOUBLINGS,
    )
    if worst is not None:
        raise QuadratureDivergenceError(
            f"build_keyhole: Cauchy self-test failed after {MAX_DOUBLINGS} panel "
            f"doublings ({len(nodes)} nodes) for p={c.p}, lam={lam:.6g}; worst probe "
            f"{worst[0]:.6g} has Cauchy gap {worst[1]:.3e} > {CAUCHY_TOL:g}"
        )
    if lam != 0:
        clearance = fc_cut_distance(c.params, lam, nodes)
        if np.any(clearance <= 0):
            k = int(np.argmin(clearance))
            raise CutCollisionError(
                f"build_keyhole: contour node {complex(nodes[k]):.6g} lies on "
                f"a cut ray for p={c.p}, lam={lam:.6g} (clearance {clearance[k]:.3e})"
            )
    return KeyholeContour(R=R, r=r, psi=psi, nodes=nodes, dnodes=dnodes, pieces=list(pieces))


def min_spectrum_distance(gamma: KeyholeContour, eigenvalues):
    """Exact minimum distance from a real spectrum to the contour.

    Batch-first: eigenvalues is one (N,) spectrum, giving a float, or a
    (..., N) stack, giving a (...) array of per-spectrum distances.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    if np.any(np.abs(eigenvalues) > gamma.R / 2):
        raise SpectrumTooLargeError(
            f"|eigenvalue| exceeds R/2 = {gamma.R / 2}"
        )
    x = eigenvalues.astype(complex)
    d = np.min([piece.point_distance(x) for piece in gamma.pieces], axis=(0, -1))
    floor = gamma.r * np.sin(gamma.psi)
    close = d < floor * (1.0 - 1e-12)
    if np.any(close):
        at = np.unravel_index(np.argmax(close), close.shape)
        raise ContourClearanceError(
            f"min_spectrum_distance: spectrum {eigenvalues[at].tolist()} lies "
            f"{d[at]:.6e} from the keyhole (R={gamma.R:.6g}, r={gamma.r:.6g}, "
            f"psi={gamma.psi:.6g}), below the clearance floor r sin(psi) = {floor:.6e}"
        )
    return float(d) if d.ndim == 0 else d


def holo_apply(scalar_fn, gamma: KeyholeContour, spectral: SpectralData) -> np.ndarray:
    """(1/2 pi i) * contour of scalar_fn(u) (u-K)^(-1) du in the eigenbasis.

    The normalization reproduces scalar_fn applied eigenvalue-wise, so
    holo_apply(identity) returns K itself.  Batch-first: spectral holds
    (..., N) spectra and the result is (..., N, N).
    """
    mu = spectral.eigenvalues
    failed = np.abs(gamma.cauchy(mu) - 1.0) > CAUCHY_TOL
    if np.any(failed):
        bad = mu[np.unravel_index(np.argmax(failed), failed.shape)]
        raise QuadratureDivergenceError(f"Cauchy self-test fails at eigenvalue {bad}")
    values = np.asarray(scalar_fn(gamma.nodes), dtype=complex)
    phi = values * gamma.dnodes / (gamma.nodes - mu[..., None])
    phi = phi.sum(axis=-1) / (2j * np.pi)
    v = spectral.eigenvectors
    return (v * phi[..., None, :]) @ np.swapaxes(v.conj(), -1, -2)
