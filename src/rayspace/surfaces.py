"""Implicit surfaces used as mirrors and refracting interfaces.

Each surface kind stores the data of an exact level function f and provides
its analytic gradient; normals are never finite-differenced.  The orientation
flag `incoming_sign` declares on which side of the surface incident light
lives: the oriented normal points into the region where sign(f) equals
incoming_sign.

Supported kinds: Plane (n . x = d), Sphere, Quadric (x^T A x + b . x + c = 0)
and Sinusoid (the graph z = amplitude * sin(wavevector . (x, y))).  Every
kind implements the same protocol:

    value(p)                  the level function f at p
    gradient(p)               its analytic gradient
    roots(line, t_min, t_max) candidate ray parameters where f vanishes
    chart(reference_point)    a SurfaceChart valid around the point

Ray intersection is closed-form for Plane/Sphere/Quadric and uses dense
bracketing plus a bisection-safeguarded Newton refinement for Sinusoid
(tolerance 1e-12 in the ray parameter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DegenerateGradientError,
    IllConditionedFitError,
    NoIntersectionError,
    NoRootError,
    OffSurfaceError,
    TangentialError,
)
from .lines import OrientedLine, _as_vec3, _frame

TRANSVERSE_TOL = 1e-6
DEFAULT_T_MAX = 1e6
_GRAD_MIN = 1e-10
_ROOT_TOL = 1e-12
# span scanned for roots when a ray runs parallel to a sinusoid's mean plane
_FLAT_SCAN_SPAN = 1e4


def _freeze(obj, name, value):
    value = np.asarray(value, dtype=float).copy()
    value.flags.writeable = False
    object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class SurfaceChart:
    """A local smooth parametrization xi -> point of one surface."""

    embed: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]  # 3x2, analytic
    invert: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Plane:
    normal: np.ndarray
    offset: float = 0.0
    incoming_sign: int = 1

    def __post_init__(self):
        n = _as_vec3(self.normal)
        norm = np.linalg.norm(n)
        if norm < 1e-12:
            raise ValueError("plane normal must be nonzero")
        _freeze(self, "normal", n / norm)
        object.__setattr__(self, "offset", float(self.offset))

    def value(self, p) -> float:
        return float(_as_vec3(p) @ self.normal - self.offset)

    def gradient(self, p) -> np.ndarray:
        return self.normal.copy()

    def roots(self, line: OrientedLine, t_min: float, t_max: float):
        denom = line.u @ self.normal
        if abs(denom) < 1e-15:
            return []
        return [(self.offset - line.q @ self.normal) / denom]

    def chart(self, reference_point=None) -> SurfaceChart:
        origin = self.offset * self.normal
        _, e1, e2 = _frame(self.normal)
        jac = np.stack([e1, e2], axis=1)
        return SurfaceChart(
            embed=lambda xi: origin + xi[0] * e1 + xi[1] * e2,
            jacobian=lambda xi: jac,
            invert=lambda p: np.array([(p - origin) @ e1, (p - origin) @ e2]),
        )


@dataclass(frozen=True)
class Sphere:
    center: np.ndarray
    radius: float
    incoming_sign: int = 1

    def __post_init__(self):
        _freeze(self, "center", _as_vec3(self.center))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def value(self, p) -> float:
        return float(np.linalg.norm(_as_vec3(p) - self.center) - self.radius)

    def gradient(self, p) -> np.ndarray:
        r = _as_vec3(p) - self.center
        n = np.linalg.norm(r)
        if n == 0.0:
            return np.zeros(3)
        return r / n

    def roots(self, line: OrientedLine, t_min: float, t_max: float):
        m = line.q - self.center
        b = line.u @ m
        disc = b * b - (m @ m - self.radius**2)
        if disc < 0.0:
            return []
        s = np.sqrt(disc)
        return [-b - s, -b + s]

    def chart(self, reference_point=None) -> SurfaceChart:
        center = self.center
        radius = self.radius
        # spherical angles in a frame whose poles are far from the working
        # region: the reference point sits on the chart equator
        if reference_point is not None:
            rhat = _as_vec3(reference_point) - center
            rhat = rhat / np.linalg.norm(rhat)
            _, pole, _ = _frame(rhat)
            e1 = rhat
            e2 = np.cross(pole, rhat)
        else:
            pole = np.array([0.0, 0.0, 1.0])
            e1 = np.array([1.0, 0.0, 0.0])
            e2 = np.array([0.0, 1.0, 0.0])

        def embed(xi):
            th, ph = float(xi[0]), float(xi[1])
            st = np.sin(th)
            return center + radius * (
                st * np.cos(ph) * e1 + st * np.sin(ph) * e2 + np.cos(th) * pole
            )

        def jac(xi):
            th, ph = float(xi[0]), float(xi[1])
            st, ct = np.sin(th), np.cos(th)
            sp, cp = np.sin(ph), np.cos(ph)
            d_th = ct * cp * e1 + ct * sp * e2 - st * pole
            d_ph = -st * sp * e1 + st * cp * e2
            return radius * np.stack([d_th, d_ph], axis=1)

        def invert(p):
            d = (p - center) / radius
            return np.array(
                [np.arccos(np.clip(d @ pole, -1.0, 1.0)), np.arctan2(d @ e2, d @ e1)]
            )

        return SurfaceChart(embed, jac, invert)


@dataclass(frozen=True)
class Quadric:
    matrix: np.ndarray
    linear: np.ndarray
    constant: float
    incoming_sign: int = 1

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("quadric matrix must be 3x3")
        _freeze(self, "matrix", 0.5 * (m + m.T))
        _freeze(self, "linear", _as_vec3(self.linear))
        object.__setattr__(self, "constant", float(self.constant))

    def value(self, p) -> float:
        p = _as_vec3(p)
        return float(p @ self.matrix @ p + self.linear @ p + self.constant)

    def gradient(self, p) -> np.ndarray:
        return 2.0 * (self.matrix @ _as_vec3(p)) + self.linear

    def roots(self, line: OrientedLine, t_min: float, t_max: float):
        au = self.matrix @ line.u
        alpha = line.u @ au
        beta = 2.0 * (line.q @ au) + self.linear @ line.u
        gamma = self.value(line.q)
        scale = 1.0 + abs(beta) + abs(gamma)
        if abs(alpha) < 1e-14 * scale:
            if abs(beta) < 1e-15 * scale:
                return []
            return [-gamma / beta]
        disc = beta * beta - 4.0 * alpha * gamma
        if disc < 0.0:
            return []
        s = np.sqrt(disc)
        # numerically stable pair of quadratic roots
        qq = -0.5 * (beta + np.copysign(s, beta))
        roots = [qq / alpha]
        if qq != 0.0:
            roots.append(gamma / qq)
        else:
            roots.append(0.0)
        return roots

    def chart(self, reference_point=None) -> SurfaceChart:
        if reference_point is None:
            raise ValueError("quadric charts need a reference point")
        ref = _as_vec3(reference_point)
        grad = self.gradient(ref)
        axis = int(np.argmax(np.abs(grad)))
        others = [i for i in range(3) if i != axis]
        mat = self.matrix
        lin = self.linear

        a2 = mat[axis, axis]

        def _solve_height(xi, branch):
            a1 = 2.0 * (mat[axis, others[0]] * xi[0] + mat[axis, others[1]] * xi[1]) + lin[axis]
            a0 = (
                mat[others[0], others[0]] * xi[0] * xi[0]
                + 2.0 * mat[others[0], others[1]] * xi[0] * xi[1]
                + mat[others[1], others[1]] * xi[1] * xi[1]
                + lin[others[0]] * xi[0]
                + lin[others[1]] * xi[1]
                + self.constant
            )
            if abs(a2) < 1e-14:
                if abs(a1) < 1e-14:
                    raise IllConditionedFitError("quadric chart degenerate along its axis")
                return -a0 / a1
            disc = a1 * a1 - 4.0 * a2 * a0
            if disc < 0.0:
                raise NoRootError(message="quadric chart left the surface sheet")
            return (-a1 + branch * np.sqrt(disc)) / (2.0 * a2)

        # pick the branch that reproduces the reference point
        xi_ref = np.array([ref[others[0]], ref[others[1]]])
        if abs(a2) < 1e-14:
            branch = 1.0
        else:
            z_plus = _solve_height(xi_ref, +1.0)
            z_minus = _solve_height(xi_ref, -1.0)
            branch = 1.0 if abs(z_plus - ref[axis]) <= abs(z_minus - ref[axis]) else -1.0

        def embed(xi):
            x = np.zeros(3)
            x[others[0]], x[others[1]] = float(xi[0]), float(xi[1])
            x[axis] = _solve_height(xi, branch)
            return x

        def jac(xi):
            p = embed(xi)
            g = self.gradient(p)
            col1 = np.zeros(3)
            col2 = np.zeros(3)
            col1[others[0]] = 1.0
            col2[others[1]] = 1.0
            col1[axis] = -g[others[0]] / g[axis]
            col2[axis] = -g[others[1]] / g[axis]
            return np.stack([col1, col2], axis=1)

        def invert(p):
            return np.array([p[others[0]], p[others[1]]])

        return SurfaceChart(embed, jac, invert)


@dataclass(frozen=True)
class Sinusoid:
    amplitude: float
    wavevector: np.ndarray
    incoming_sign: int = 1

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        w = np.asarray(self.wavevector, dtype=float)
        if w.shape != (2,):
            raise ValueError("wavevector must be a 2-vector")
        _freeze(self, "wavevector", w)

    def value(self, p) -> float:
        p = _as_vec3(p)
        return float(p[2] - self.amplitude * np.sin(self.wavevector @ p[:2]))

    def gradient(self, p) -> np.ndarray:
        p = _as_vec3(p)
        c = self.amplitude * np.cos(self.wavevector @ p[:2])
        return np.array([-c * self.wavevector[0], -c * self.wavevector[1], 1.0])

    def roots(self, line: OrientedLine, t_min: float, t_max: float):
        """The first root beyond t_min, or none; dense bracketing plus Newton."""
        amp = self.amplitude
        w = self.wavevector
        uz = float(line.u[2])
        qz = float(line.q[2])
        om = float(w @ line.u[:2])
        phi0 = float(w @ line.q[:2])

        def g(t):
            return qz + t * uz - amp * np.sin(phi0 + om * t)

        def dg(t):
            return uz - amp * om * np.cos(phi0 + om * t)

        # roots can only live where the linear part stays inside the amplitude band
        band = abs(amp) + 1e-12
        if abs(uz) > 1e-12:
            lo = (-band - qz) / uz
            hi = (band - qz) / uz
            if lo > hi:
                lo, hi = hi, lo
            window_lo = max(t_min, lo)
            window_hi = min(t_max, hi)
        else:
            if abs(qz) > band:
                return []
            window_lo = t_min
            window_hi = min(t_max, t_min + _FLAT_SCAN_SPAN)
        if window_hi <= window_lo:
            return []

        step = (np.pi / 4.0) / max(abs(om), 1e-9)
        step = min(step, max(1.0, abs(amp)))
        count = int(np.ceil((window_hi - window_lo) / step)) + 1
        if count > 10_000_000:
            raise NoIntersectionError("sinusoid root search budget exceeded")
        ts = np.linspace(window_lo, window_hi, count + 1)
        gs = qz + ts * uz - amp * np.sin(phi0 + om * ts)
        zero_hits = np.nonzero(gs == 0.0)[0]
        changes = np.nonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0.0)[0]
        candidates = sorted(
            [(ts[i], "zero") for i in zero_hits] + [(ts[i], i) for i in changes]
        )
        for t_at, tag in candidates:
            if tag == "zero":
                root = t_at
            else:
                i = tag
                root = _newton_bisect(g, dg, ts[i], ts[i + 1], gs[i], gs[i + 1])
            if root > t_min:
                return [root]
        return []

    def chart(self, reference_point=None) -> SurfaceChart:
        amp = self.amplitude
        w = self.wavevector

        def embed(xi):
            return np.array([xi[0], xi[1], amp * np.sin(w[0] * xi[0] + w[1] * xi[1])])

        def jac(xi):
            c = amp * np.cos(w[0] * xi[0] + w[1] * xi[1])
            return np.array([[1.0, 0.0], [0.0, 1.0], [c * w[0], c * w[1]]])

        def invert(p):
            return np.array([p[0], p[1]])

        return SurfaceChart(embed, jac, invert)


SURFACE_KINDS = (Plane, Sphere, Quadric, Sinusoid)


@dataclass(frozen=True)
class Intersection:
    """Ray/surface hit: point, ray parameter, oriented unit normal, u . n.

    The normal points toward the incoming side at the hit, so u . n < 0.
    """

    point: np.ndarray
    t: float
    normal: np.ndarray
    cos_incidence: float


def _unit_gradient(surface, p) -> np.ndarray:
    g = surface.gradient(p)
    n = np.linalg.norm(g)
    if n < _GRAD_MIN:
        raise DegenerateGradientError("level-function gradient vanishes at the point")
    return g / n


def normal_at(surface, point) -> np.ndarray:
    """Oriented unit normal at a point already on the surface.

    Raises OffSurfaceError if f(point) is not ~0, DegenerateGradientError if
    the gradient vanishes there.
    """
    p = _as_vec3(point)
    scale = max(1.0, float(np.linalg.norm(p)))
    if abs(surface.value(p)) > 1e-8 * scale:
        raise OffSurfaceError("point does not lie on the surface")
    return float(surface.incoming_sign) * _unit_gradient(surface, p)


def _newton_bisect(g, dg, lo, hi, glo, ghi, tol=_ROOT_TOL):
    """Root of g inside a sign-changing bracket; Newton with bisection fallback."""
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    t = 0.5 * (lo + hi)
    for _ in range(200):
        gt = g(t)
        if gt == 0.0:
            return t
        if (gt > 0.0) == (glo > 0.0):
            lo, glo = t, gt
        else:
            hi, ghi = t, gt
        d = dg(t)
        t_new = t - gt / d if d != 0.0 else 0.5 * (lo + hi)
        if not (lo < t_new < hi):
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= tol:
            return t_new
        t = t_new
    return t


def intersect(line: OrientedLine, surface, t_min: float = 0.0, t_max: float = DEFAULT_T_MAX) -> Intersection:
    """First intersection of the ray with the surface at parameter t > t_min.

    Raises NoIntersectionError when the ray misses within [t_min, t_max] and
    TangentialError when it meets the surface at near-tangent incidence
    (|u . n| < 1e-6).  The returned normal is oriented against the ray.
    """
    hits = sorted(t for t in surface.roots(line, t_min, t_max) if t_min < t <= t_max)
    if not hits:
        raise NoIntersectionError(
            f"ray misses {type(surface).__name__} in ({t_min:g}, {t_max:g}]"
        )
    t = float(hits[0])
    p = line.point_at(t)
    n = float(surface.incoming_sign) * _unit_gradient(surface, p)
    cos = float(line.u @ n)
    if cos > 0.0:
        n = -n
        cos = -cos
    if abs(cos) < TRANSVERSE_TOL:
        raise TangentialError("ray meets the surface nearly tangentially")
    return Intersection(point=p, t=t, normal=n, cos_incidence=cos)
