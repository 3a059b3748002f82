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
    roots(line, t_min, t_max) candidate ray parameters where f vanishes,
                              NaN where there is none
    chart(reference_point)    a SurfaceChart valid around the point

and Plane, Sphere and Sinusoid also the optional

    _normal_rays(axis, outward)
                              the rays of a patch of their normals: the
                              function k1, k2 -> (anchors on the surface,
                              directions) that normal_congruence builds
                              its family from; a surface without it has
                              no normal congruence

Ray intersection is closed-form for Plane/Sphere/Quadric and uses dense
bracketing plus a bisection-safeguarded Newton refinement for Sinusoid
(tolerance 1e-12 in the ray parameter), then two guarded Newton steps that
take the root to round-off.  That refinement, `_newton_bisect`, is the
package's one Newton–bisection: it refines the brackets of many rows at
once, dropping each row as it converges, and its one caller is the
sinusoid's root search.

Shapes: internal routines, `roots` among them, take batches only: (N, 3)
points, an OrientedLine batch, (N,) masks; `roots` gives (N, k) candidates
(k = 1 for Plane and Sinusoid, 2 for Sphere and Quadric).  A single point
or line, (3,), exists only at the public entry points `value`, `gradient`,
`intersect` and `normal_at`: each takes it as the batch of one and gives
back row 0, a float value or t and (3,) arrays.  A batch gives bit for bit
the per-ray results and fails as `errors` sets out; `intersect` runs in two
stages, the root search, then the hit checks.  A chart's
`embed` and `jacobian` take one coordinate pair, (2,), or a batch, (N, 2),
and give (3,) or (N, 3) points and (3, 2) or (N, 3, 2) Jacobians, a batch
bit for bit the per-point results; its `evaluate` gives both from one
evaluation, bit for bit the same.  A quadric chart leaving its sheet raises
for the lowest failing point, with its index as `row`.  `invert` and
`normal_at` work on one point at a time.

A chart is its kind's formulas and its own parameters.  Each kind's
formulas are written once, over a stack of m charts whose parameters carry a
leading axis of length m (sphere: centre, radius, e1, e2, pole; plane:
origin, e1, e2 and the constant Jacobian; sinusoid: amplitude and
wavevector; quadric: matrix, linear part, constant and branch), and a single
chart is the stack of one.  Charts of the same kind stack; a quadric's kind
holds its chart axis and whether its height solves a linear equation, so
only quadrics charted alike stack.  A stack of m charts maps (N, m, 2)
coordinates to (N, m, 3) points and (N, m, 3, 2) Jacobians, bit for bit
what each chart gives alone, in one evaluation of the kind's formulas.
"""

from __future__ import annotations

import math
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
from .lines import OrientedLine, _any, _as_vec3, _as_vecs, _beam, _col, _cross, _first, _frame, _norm, _ray

TRANSVERSE_TOL = 1e-6
DEFAULT_T_MAX = 1e6
_GRAD_MIN = 1e-10
_ROOT_TOL = 1e-12
# span scanned for roots when a ray runs parallel to a sinusoid's mean plane
_FLAT_SCAN_SPAN = 1e4
# samples per pass of the sinusoid root search over a batch, which bound its memory
_SCAN_SAMPLES = 1 << 16


def _nan_where_negative(x):
    """x with negative entries replaced by NaN, so their square root is NaN."""
    if _any(x < 0.0):
        return np.where(x < 0.0, np.nan, x)
    return x


def _freeze(obj, name, value):
    """Set the field `name` of obj to `value`, a float array no one else
    holds, made read-only."""
    value.flags.writeable = False
    object.__setattr__(obj, name, value)


@dataclass(frozen=True, eq=False)
class _ChartKind:
    """The formulas of one kind of chart, written over a stack of m charts.

    Each parameter of a stack has a leading axis of length m, one entry per
    chart, and coordinates xi have shape (..., m, 2).  `shared(params, xi)`
    is the work a kind's points and Jacobians share (the sphere's sines and
    cosines, the quadric's height, the sinusoid's phase, the plane's
    coordinates as they are), and `to_points` and `to_jacobians` finish
    (..., m, 3) points and (..., m, 3, 2) Jacobians from it, so each formula
    exists once.  `invert(params, p)` maps one point of a stack of one back
    to its (2,) coordinates.
    """

    shared: Callable
    to_points: Callable
    to_jacobians: Callable
    invert: Callable

    def evaluate(self, params, xi, points=True, jacobians=True):
        """(points, Jacobians) of the stack at xi, (..., m, 2), each None
        where it is not asked for, from one evaluation of `shared`.  A
        quadric stack leaving its sheet raises for the lowest failing row,
        and the first failing chart in it, with the flat index of that entry
        of (..., m) as `row`."""
        work = self.shared(params, xi)
        return (
            self.to_points(params, work) if points else None,
            self.to_jacobians(params, work) if jacobians else None,
        )


@dataclass(frozen=True, eq=False)
class SurfaceChart:
    """A local smooth parametrization xi -> point of one surface: its kind's
    formulas and its own parameters, a stack of one chart.

    `embed` maps coordinates xi, (2,) or (N, 2), to points, (3,) or (N, 3);
    `jacobian` gives the analytic d point / d xi, (3, 2) or (N, 3, 2);
    `evaluate` gives both, (points, Jacobians), from one evaluation;
    `invert` maps one point back to its (2,) coordinates.

    Charts stack when they have the same `kind`, the stacking key: there is
    one kind for planes, one for spheres, one for sinusoids, and one for
    each chart axis of a quadric, with and without a vanishing coefficient
    of the height's square (|a2| < 1e-14).  `_stack_charts` stacks the
    charts of a path by kind, and a stack's evaluation gives bit for bit
    what each of its charts gives alone.
    """

    kind: _ChartKind
    params: tuple

    def embed(self, xi) -> np.ndarray:
        return self.kind.evaluate(self.params, xi[..., None, :], jacobians=False)[0][..., 0, :]

    def jacobian(self, xi) -> np.ndarray:
        return self.kind.evaluate(self.params, xi[..., None, :], points=False)[1][..., 0, :, :]

    def evaluate(self, xi):
        points, jacobians = self.kind.evaluate(self.params, xi[..., None, :])
        return points[..., 0, :], jacobians[..., 0, :, :]

    def invert(self, p) -> np.ndarray:
        return self.kind.invert(self.params, p)


@dataclass(frozen=True, eq=False)
class _ChartStack:
    """The charts of one kind at `positions` in a sequence of charts, their
    parameters stacked along a leading axis; `index` picks their entries
    from an axis over the whole sequence (a slice when they are adjacent)."""

    kind: _ChartKind
    params: tuple
    positions: tuple
    index: object


def _stack_charts(charts) -> tuple:
    """The _ChartStacks of a sequence of charts, one per kind, in the order
    each kind first appears."""
    positions = {}
    for i, chart in enumerate(charts):
        positions.setdefault(chart.kind, []).append(i)
    stacks = []
    for kind, at in positions.items():
        if len(at) == 1:
            params = charts[at[0]].params
        else:
            params = tuple(np.concatenate(p) for p in zip(*(charts[i].params for i in at)))
        adjacent = at[-1] - at[0] + 1 == len(at)
        index = slice(at[0], at[-1] + 1) if adjacent else np.array(at)
        stacks.append(_ChartStack(kind, params, tuple(at), index))
    return tuple(stacks)


def _plane_points(params, xi):
    origin, e1, e2, _ = params
    return origin + xi[..., 0, None] * e1 + xi[..., 1, None] * e2


def _plane_jacobians(params, xi):
    return np.broadcast_to(params[3], xi.shape[:-1] + (3, 2))


def _plane_invert(params, p):
    origin, e1, e2 = (a[0] for a in params[:3])
    return np.array([(p - origin) @ e1, (p - origin) @ e2])


_PLANE_CHART = _ChartKind(lambda params, xi: xi, _plane_points, _plane_jacobians, _plane_invert)


def _sphere_trig(params, xi):
    s, c = np.sin(xi), np.cos(xi)  # both angles at once
    st, sp, ct, cp = s[..., 0, None], s[..., 1, None], c[..., 0, None], c[..., 1, None]
    return st, ct, sp, cp, st * cp, st * sp


def _sphere_points(params, work):
    center, radius, e1, e2, pole = params
    st, ct, sp, cp, stcp, stsp = work
    return center + radius * (stcp * e1 + stsp * e2 + ct * pole)


def _sphere_jacobians(params, work):
    _, radius, e1, e2, pole = params
    st, ct, sp, cp, stcp, stsp = work
    out = np.empty(st.shape[:-1] + (3, 2))
    out[..., 0] = ct * cp * e1 + ct * sp * e2 - st * pole  # d / d theta
    out[..., 1] = stcp * e2 - stsp * e1  # d / d phi
    out *= radius[..., None]
    return out


def _sphere_invert(params, p):
    center, radius, e1, e2, pole = (a[0] for a in params)
    d = (p - center) / radius[0]
    return np.array([np.arccos(np.clip(d @ pole, -1.0, 1.0)), np.arctan2(d @ e2, d @ e1)])


_SPHERE_CHART = _ChartKind(_sphere_trig, _sphere_points, _sphere_jacobians, _sphere_invert)


def _quadric_chart_kind(axis, flat):
    """The chart kind of quadric graphs over the coordinate plane normal to
    `axis`: flat when the height's square has no coefficient, so the height
    solves a linear equation.  Parameters: matrix (m, 3, 3), linear part
    (m, 3), constant (m,) and branch (m,), the sign of the root taken."""
    i, j = [k for k in range(3) if k != axis]

    def height(params, xi):
        mat, lin, const, branch = params
        x0, x1 = xi[..., 0], xi[..., 1]
        a1 = 2.0 * (mat[:, axis, i] * x0 + mat[:, axis, j] * x1) + lin[:, axis]
        a0 = (
            mat[:, i, i] * x0 * x0
            + 2.0 * mat[:, i, j] * x0 * x1
            + mat[:, j, j] * x1 * x1
            + lin[:, i] * x0
            + lin[:, j] * x1
            + const
        )
        if flat:
            row = _first(abs(a1) < 1e-14)
            if row is not None:
                raise IllConditionedFitError("quadric chart degenerate along its axis").at(row)
            return -a0 / a1
        a2 = mat[:, axis, axis]
        disc = a1 * a1 - 4.0 * a2 * a0
        row = _first(disc < 0.0)
        if row is not None:
            raise NoRootError(message="quadric chart left the surface sheet").at(row)
        return (-a1 + branch * np.sqrt(disc)) / (2.0 * a2)

    def on_sheet(params, xi):
        x = np.empty(xi.shape[:-1] + (3,))
        x[..., i], x[..., j] = xi[..., 0], xi[..., 1]
        x[..., axis] = height(params, xi)
        return x

    def to_jacobians(params, x):
        mat, lin = params[:2]
        g = 2.0 * (mat @ x[..., None])[..., 0] + lin
        out = np.zeros(g.shape + (2,))
        out[..., i, 0] = 1.0
        out[..., j, 1] = 1.0
        out[..., axis, 0] = -g[..., i] / g[..., axis]
        out[..., axis, 1] = -g[..., j] / g[..., axis]
        return out

    def invert(params, p):
        return np.array([p[i], p[j]])

    return _ChartKind(on_sheet, lambda params, x: x, to_jacobians, invert)


# the chart kinds of each chart axis, without and with a flat height
_QUADRIC_CHARTS = tuple(
    (_quadric_chart_kind(axis, False), _quadric_chart_kind(axis, True)) for axis in range(3)
)


def _sinusoid_phase(params, xi):
    w = params[1]
    return xi, w[:, 0] * xi[..., 0] + w[:, 1] * xi[..., 1]


def _sinusoid_points(params, work):
    xi, ph = work
    return np.stack([xi[..., 0], xi[..., 1], params[0] * np.sin(ph)], axis=-1)


def _sinusoid_jacobians(params, work):
    amp, w = params
    c = amp * np.cos(work[1])
    out = np.zeros(c.shape + (3, 2))
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = 1.0
    out[..., 2, 0] = c * w[:, 0]
    out[..., 2, 1] = c * w[:, 1]
    return out


_SINUSOID_CHART = _ChartKind(
    _sinusoid_phase, _sinusoid_points, _sinusoid_jacobians, lambda params, p: np.array([p[0], p[1]])
)


class _LevelFunction:
    """Every surface kind's `value` and `gradient`, from its `_value` and
    `_gradient` of (N, 3) points; one (3,) point is the batch of one.
    `_gradient` also takes its `_stacked` parameters with a leading axis
    over the points (`_stacked_gradients`)."""

    def value(self, p):
        p = _as_vecs(p)
        return self._value(p) if p.ndim == 2 else float(self._value(p[None])[0])

    def gradient(self, p) -> np.ndarray:
        p = _as_vecs(p)
        return self._gradient(p) if p.ndim == 2 else self._gradient(p[None])[0]


@dataclass(frozen=True, eq=False)
class Plane(_LevelFunction):
    normal: np.ndarray
    offset: float = 0.0
    incoming_sign: int = 1
    _stacked = ("normal",)  # the parameters `_gradient` reads

    def __post_init__(self):
        n = _as_vec3(self.normal).tolist()
        if not all(map(math.isfinite, n)):
            raise ValueError("plane normal must be finite")
        big = max(map(abs, n))
        if big < 1e-12 and _norm(np.array(n)) < 1e-12:
            raise ValueError("plane normal must be nonzero")
        # scaled by the power of two next to max |n|: exact, so n / |n| is as
        # it was, and |n| can no longer overflow
        n = np.array([math.ldexp(x, -math.frexp(big)[1]) for x in n])
        _freeze(self, "normal", n / _norm(n))
        object.__setattr__(self, "offset", float(self.offset))

    def _value(self, p):
        return np.vecdot(p, self.normal) - self.offset

    def _gradient(self, p):
        return np.broadcast_to(self.normal, p.shape).copy()

    def roots(self, line: OrientedLine, t_min, t_max: float) -> np.ndarray:
        denom = np.vecdot(line.u, self.normal)
        parallel = abs(denom) < 1e-15
        if _any(parallel):
            denom = np.where(parallel, np.nan, denom)
        return ((self.offset - np.vecdot(line.q, self.normal)) / denom)[..., None]

    def chart(self, reference_point=None) -> SurfaceChart:
        _, e1, e2 = _frame(self.normal)
        params = (self.offset * self.normal, e1, e2, np.stack([e1, e2], axis=1))
        return SurfaceChart(_PLANE_CHART, tuple(a[None] for a in params))

    def _normal_rays(self, axis, outward: bool):
        """A beam along the oriented normal (-normal unless outward) from a
        lattice of the plane; `axis` is not read."""
        return _beam(self.normal if outward else -self.normal, self.offset * self.normal)


@dataclass(frozen=True, eq=False)
class Sphere(_LevelFunction):
    center: np.ndarray
    radius: float
    incoming_sign: int = 1
    _stacked = ("center",)  # the parameters `_gradient` reads

    def __post_init__(self):
        _freeze(self, "center", _as_vec3(self.center).copy())
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError("sphere radius must be positive")

    def _value(self, p):
        return _norm(p - self.center) - self.radius

    def _gradient(self, p):
        r = p - self.center
        n = _norm(r)
        if _any(n == 0.0):  # no direction at the centre itself
            n = n[:, None]
            return np.divide(r, n, out=np.zeros_like(r), where=n != 0.0)
        return r / n[:, None]

    def roots(self, line: OrientedLine, t_min, t_max: float) -> np.ndarray:
        m = line.q - self.center
        b = np.vecdot(line.u, m)
        disc = b * b - (np.vecdot(m, m) - self.radius**2)
        s = np.sqrt(_nan_where_negative(disc))
        return np.array([-b - s, -b + s]).T

    def chart(self, reference_point=None) -> SurfaceChart:
        # spherical angles in a frame whose poles are far from the working
        # region: the reference point sits on the chart equator
        if reference_point is not None:
            rhat = _as_vec3(reference_point) - self.center
            rhat = rhat / np.linalg.norm(rhat)
            _, pole, _ = _frame(rhat)
            e1 = rhat
            e2 = _cross(pole, rhat)
        else:
            pole = np.array([0.0, 0.0, 1.0])
            e1 = np.array([1.0, 0.0, 0.0])
            e2 = np.array([0.0, 1.0, 0.0])
        params = (self.center, np.array([self.radius]), e1, e2, pole)
        return SurfaceChart(_SPHERE_CHART, tuple(a[None] for a in params))

    def _normal_rays(self, axis, outward: bool):
        """Radial rays from the points centre + radius s, s the unit of
        axis + k1 e1 + k2 e2 (e1, e2 of _frame(axis)), outward or inward."""
        a, e1, e2 = _frame(axis)
        sign = 1.0 if outward else -1.0

        def rays(k1, k2):
            s = a + _col(k1) * e1 + _col(k2) * e2
            s = s / _norm(s)[..., None]
            return self.center + self.radius * s, sign * s

        return rays


@dataclass(frozen=True, eq=False)
class Quadric(_LevelFunction):
    matrix: np.ndarray
    linear: np.ndarray
    constant: float
    incoming_sign: int = 1
    _stacked = ("matrix", "linear")  # the parameters `_gradient` reads

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (3, 3):
            raise ValueError("quadric matrix must be 3x3")
        _freeze(self, "matrix", 0.5 * (m + m.T))
        _freeze(self, "linear", _as_vec3(self.linear).copy())
        object.__setattr__(self, "constant", float(self.constant))

    def _value(self, p):
        # (p[:, None, :] @ A)[:, 0, :] and vecdot reproduce p @ A @ p bit for bit
        pa = (p[:, None, :] @ self.matrix)[:, 0, :]
        return np.vecdot(pa, p) + np.vecdot(self.linear, p) + self.constant

    def _gradient(self, p):
        return 2.0 * (self.matrix @ p[..., None])[..., 0] + self.linear

    def roots(self, line: OrientedLine, t_min, t_max: float) -> np.ndarray:
        au = (self.matrix @ line.u[..., None])[..., 0]
        alpha = np.vecdot(line.u, au)
        beta = 2.0 * np.vecdot(line.q, au) + np.vecdot(self.linear, line.u)
        gamma = self._value(line.q)
        scale = 1.0 + abs(beta) + abs(gamma)
        disc = beta * beta - 4.0 * alpha * gamma
        s = np.sqrt(_nan_where_negative(disc))
        # numerically stable pair of quadratic roots
        qq = -0.5 * (beta + np.copysign(s, beta))
        # alpha ~ 0: the ray runs along an asymptotic direction, one root at most
        asymptotic = abs(alpha) < 1e-14 * scale
        if _any(asymptotic | (qq == 0.0)):
            flat = abs(beta) < 1e-15 * scale
            single = np.where(flat, np.nan, -gamma / np.where(flat, 1.0, beta))
            first = np.where(asymptotic, single, qq / np.where(asymptotic, 1.0, alpha))
            second = np.where(qq != 0.0, gamma / np.where(qq != 0.0, qq, 1.0), 0.0)
            return np.array([first, np.where(asymptotic, np.nan, second)]).T
        return np.array([qq / alpha, gamma / qq]).T

    def chart(self, reference_point=None) -> SurfaceChart:
        if reference_point is None:
            raise ValueError("quadric charts need a reference point")
        ref = _as_vec3(reference_point)
        axis = int(np.argmax(np.abs(self.gradient(ref))))
        flat = bool(abs(self.matrix[axis, axis]) < 1e-14)
        kind = _QUADRIC_CHARTS[axis][flat]
        params = (self.matrix[None], self.linear[None], np.array([self.constant]))
        branch = 1.0
        if not flat:  # pick the branch that reproduces the reference point
            xi_ref = np.delete(ref, axis)[None]
            z_plus, z_minus = (
                kind.shared(params + (np.array([b]),), xi_ref)[0, axis] for b in (1.0, -1.0)
            )
            branch = 1.0 if abs(z_plus - ref[axis]) <= abs(z_minus - ref[axis]) else -1.0
        return SurfaceChart(kind, params + (np.array([branch]),))


@dataclass(frozen=True, eq=False)
class Sinusoid(_LevelFunction):
    amplitude: float
    wavevector: np.ndarray
    incoming_sign: int = 1
    _stacked = ("amplitude", "wavevector")  # the parameters `_gradient` reads

    def __post_init__(self):
        object.__setattr__(self, "amplitude", float(self.amplitude))
        w = np.asarray(self.wavevector, dtype=float)
        if w.shape != (2,):
            raise ValueError("wavevector must be a 2-vector")
        _freeze(self, "wavevector", w.copy())

    def _value(self, p):
        return p[:, 2] - self.amplitude * np.sin(np.vecdot(self.wavevector, p[:, :2]))

    def _gradient(self, p):
        c = self.amplitude * np.cos(np.vecdot(self.wavevector, p[:, :2]))
        w = self.wavevector
        return np.stack([-c * w[..., 0], -c * w[..., 1], np.ones_like(c)], axis=-1)

    def roots(self, line: OrientedLine, t_min, t_max: float) -> np.ndarray:
        """The first root beyond t_min, or NaN, of every ray at once.

        Along each ray q + t u, the window where the linear part stays inside
        the amplitude band is sampled densely; its brackets are taken in
        order, each refined by a bisection-safeguarded Newton iteration
        and two guarded Newton steps, until one gives a root beyond t_min.
        """
        t_min = np.broadcast_to(np.asarray(t_min, dtype=float), line.u.shape[:1])
        amp = self.amplitude
        uz, qz = line.u[:, 2], line.q[:, 2]
        om = np.vecdot(line.u[:, :2], self.wavevector)
        phi0 = np.vecdot(line.q[:, :2], self.wavevector)
        # roots can only live where the linear part stays inside the amplitude band
        band = abs(amp) + 1e-12
        steep = abs(uz) > 1e-12
        slope = np.where(steep, uz, 1.0)
        lo = (-band - qz) / slope
        hi = (band - qz) / slope
        # the window [max(t_min, lo), min(hi, t_max)], ties and zero signs
        # as Python's max and min give them; a flat ray scans a fixed span
        lo, hi = np.where(lo > hi, hi, lo), np.where(lo > hi, lo, hi)
        start = np.where(steep & (lo > t_min), lo, t_min)
        stop = np.where(steep, hi, t_min + _FLAT_SCAN_SPAN)
        stop = np.where(stop < t_max, stop, t_max)
        live = np.flatnonzero((steep | ~(abs(qz) > band)) & ~(stop <= start))
        roots = np.full(len(uz), np.nan)
        if len(live):
            step = (np.pi / 4.0) / np.maximum(abs(om[live]), 1e-9)
            step = np.minimum(step, max(1.0, abs(amp)))
            counts = np.ceil((stop[live] - start[live]) / step) + 1.0
            over = _first(counts > 10_000_000)
            if over is not None:
                raise NoIntersectionError("sinusoid root search budget exceeded").at(live[over])
            roots[live] = self._scan(
                t_min[live], uz[live], qz[live], om[live], phi0[live],
                start[live], stop[live], counts.astype(np.int64),
            )
        return roots[:, None]

    def _scan(self, t_min, uz, qz, om, phi0, start, stop, counts):
        """The first root beyond t_min of each ray, NaN if none, among its
        samples 0..count of [start, stop], where np.linspace puts count + 1.

        Each pass samples the next block of every ray still searching and
        takes its first bracket (a zero sample, or a sign change to the next
        sample) in order.  Blocks double in length, to about _SCAN_SAMPLES
        samples per pass in all, so a ray whose first bracket comes early
        samples little of its window.
        """
        amp = self.amplitude

        def g(t, rays):  # the level function along the rays `rays`
            return qz[rays] + t * uz[rays] - amp * np.sin(phi0[rays] + om[rays] * t)

        def dg(t, rays):
            return uz[rays] - amp * om[rays] * np.cos(phi0[rays] + om[rays] * t)

        spacing = (stop - start) / counts
        roots = np.full(len(counts), np.nan)
        todo = np.arange(len(counts))  # rays still searching
        at = np.zeros(len(counts), dtype=np.int64)  # their next sample
        block = 8
        while len(todo):
            block = max(8, min(2 * block, _SCAN_SAMPLES // len(todo)))
            count = counts[todo]
            end = np.minimum(at + block, count)
            sizes = end - at + 1
            ray = np.repeat(np.arange(len(todo)), sizes)
            first = np.cumsum(sizes) - sizes
            last = first + sizes - 1
            index = np.arange(len(ray)) - first[ray] + at[ray]
            r = todo[ray]
            ts = index * spacing[r] + start[r]
            tail = end == count  # the block ends the ray's window
            ts[last[tail]] = stop[todo[tail]]
            gs = g(ts, r)
            zero = gs == 0.0
            sign = np.sign(gs)
            bracket = zero.copy()
            bracket[:-1] |= sign[:-1] * sign[1:] < 0.0
            # a block's last sample brackets with the next block's first
            bracket[last] = zero[last] & tail
            i = np.minimum.reduceat(np.where(bracket, np.arange(len(ray)), len(ray)), first)
            found = i < len(ray)
            pick = np.minimum(i, len(ray) - 1)  # any sample where none is found
            root = np.where(found, ts[pick], np.nan)
            newton = found & ~zero[pick]
            if _any(newton):
                j = i[newton]
                k = todo[newton]
                t = _newton_bisect(
                    lambda t, rows: g(t, k[rows]), lambda t, rows: dg(t, k[rows]),
                    ts[j], ts[j + 1], gs[j],
                )
                # two more Newton steps take the root from _ROOT_TOL to
                # round-off; a step that leaves the bracket or meets dg = 0
                # keeps the root it started from
                for _ in range(2):
                    d = dg(t, k)
                    step = t - g(t, k) / np.where(d != 0.0, d, 1.0)
                    t = np.where((d != 0.0) & (ts[j] < step) & (step < ts[j + 1]), step, t)
                root[newton] = t
            ahead = root > t_min[todo]
            roots[todo[ahead]] = root[ahead]
            # past a bracket at or below t_min, or on from the block's end
            at = np.where(found, index[pick] + 1, end)
            going = ~ahead & np.where(found, at <= count, ~tail)
            todo, at = todo[going], at[going]
        return roots

    def chart(self, reference_point=None) -> SurfaceChart:
        return SurfaceChart(_SINUSOID_CHART, (np.array([self.amplitude]), self.wavevector[None]))

    def _normal_rays(self, axis, outward: bool):
        """The normals from the graph points over (k1, k2), on the +z side
        unless not outward; `axis` is not read."""
        amp, w = self.amplitude, self.wavevector
        sign = 1.0 if outward else -1.0

        def rays(k1, k2):
            k1, k2 = np.broadcast_arrays(k1, k2)
            phase = w[0] * k1 + w[1] * k2
            c = amp * np.cos(phase)
            normals = np.stack([-c * w[0], -c * w[1], np.ones_like(c)], axis=-1)
            return np.stack([k1, k2, amp * np.sin(phase)], axis=-1), sign * normals

        return rays


SURFACE_KINDS = (Plane, Sphere, Quadric, Sinusoid)


@dataclass(frozen=True, eq=False)
class Intersection:
    """Ray/surface hit: point, ray parameter, oriented unit normal, u . n.

    The normal points toward the incoming side at the hit, so u . n < 0.
    For a batch of lines, t and cos_incidence are (N,) and point and normal
    (N, 3) arrays; for a single line, floats and (3,) arrays.
    """

    point: np.ndarray
    t: float
    normal: np.ndarray
    cos_incidence: float

    def _row(self, i) -> Intersection:
        """Hit i of a batch, as a single hit."""
        return Intersection(self.point[i], float(self.t[i]), self.normal[i], float(self.cos_incidence[i]))


def _stacked_gradients(surfaces, points) -> np.ndarray:
    """The gradients (m, 3) of m surfaces, each at its own point of points
    (m, 3), bit for bit what each surface's `gradient` gives: one
    `_gradient` per surface class, of its surfaces stacked into one, their
    `_stacked` parameters along a leading axis."""
    at = {}
    for i, surface in enumerate(surfaces):
        at.setdefault(type(surface), []).append(i)
    out = np.empty(points.shape)
    for kind, rows in at.items():
        stack = object.__new__(kind)
        for name in kind._stacked:
            object.__setattr__(stack, name, np.array([getattr(surfaces[i], name) for i in rows]))
        if len(rows) == len(surfaces):  # one class: its rows are all of them
            return stack._gradient(points)
        out[rows] = stack._gradient(points[rows])
    return out


def _unit_gradient(surface, p) -> np.ndarray:
    """Unit gradients (N, 3) of the level function at the points p (N, 3)."""
    g = surface.gradient(p)
    n = _norm(g)
    row = _first(n < _GRAD_MIN)
    if row is not None:
        raise DegenerateGradientError("level-function gradient vanishes at the point").at(row)
    return g / n[:, None]


def normal_at(surface, point) -> np.ndarray:
    """Oriented unit normal at a point already on the surface.

    Raises OffSurfaceError if f(point) is not ~0, DegenerateGradientError if
    the gradient vanishes there.
    """
    p = _as_vec3(point)
    scale = max(1.0, float(np.linalg.norm(p)))
    if abs(surface.value(p)) > 1e-8 * scale:
        raise OffSurfaceError("point does not lie on the surface")
    return float(surface.incoming_sign) * _unit_gradient(surface, p[None])[0]


def _newton_bisect(g, dg, lo, hi, glo):
    """Roots of g in the sign-changing brackets [lo, hi] of many rows at
    once, glo = g(lo) != 0: Newton steps, bisecting where a step would leave
    the bracket, until a step moves by at most _ROOT_TOL.

    g(t, rows) and dg(t, rows) give g and its derivative at t for the rows
    `rows` of the problem; only the rows still iterating are evaluated.
    """
    out = np.empty(len(lo))
    rows = np.arange(len(lo))
    t = 0.5 * (lo + hi)
    for _ in range(200):
        gt = g(t, rows)
        same = (gt > 0.0) == (glo > 0.0)
        lo = np.where(same, t, lo)
        glo = np.where(same, gt, glo)
        hi = np.where(same, hi, t)
        d = dg(t, rows)
        mid = 0.5 * (lo + hi)
        t_new = np.where(d != 0.0, t - gt / np.where(d != 0.0, d, 1.0), mid)
        t_new = np.where((lo < t_new) & (t_new < hi), t_new, mid)
        zero = gt == 0.0
        done = zero | (abs(t_new - t) <= _ROOT_TOL)
        out[rows[done]] = np.where(zero, t, t_new)[done]
        going = ~done
        rows, t = rows[going], t_new[going]
        lo, hi, glo = lo[going], hi[going], glo[going]
        if not len(rows):
            return out
    out[rows] = t
    return out


def intersect(line: OrientedLine, surface, t_min: float = 0.0) -> Intersection:
    """First intersection of the ray with the surface at parameter t > t_min.

    Raises NoIntersectionError when the ray misses within [t_min,
    DEFAULT_T_MAX] and TangentialError when it meets the surface at
    near-tangent incidence (|u . n| < 1e-6).  The returned normal is
    oriented against the ray.  `line` may be a batch, with one t_min per
    line or one for all.
    """
    single = line.u.ndim == 1
    if single:
        line = _ray(line, None)
    ts = surface.roots(line, t_min, DEFAULT_T_MAX)
    t_min = np.asarray(t_min, dtype=float)
    ts[ts <= t_min[..., None]] = np.nan  # candidates at or behind the start
    t = np.fmin.reduce(ts, axis=-1)  # the nearest one ahead, NaN if none
    miss = ~(t <= DEFAULT_T_MAX)
    if _any(miss):
        t = np.where(miss, 0.0, t)  # a placeholder, so the other rays can be checked
    p = line.q + t[:, None] * line.u
    g = surface.gradient(p)
    gn = _norm(g)
    degenerate = gn < _GRAD_MIN
    if _any(degenerate):
        gn = np.where(degenerate, 1.0, gn)
    n = g / gn[:, None]
    if surface.incoming_sign != 1:
        n = float(surface.incoming_sign) * n
    cos = np.vecdot(line.u, n)
    along = cos > 0.0
    if _any(along):  # turn the normal against the ray: an exact sign change
        sign = 1.0 - 2.0 * along
        n = n * sign[:, None]
        cos = cos * sign
    i = _first(miss | degenerate | (abs(cos) < TRANSVERSE_TOL))
    if i is not None:
        if miss[i]:
            lo = float(np.broadcast_to(t_min, miss.shape)[i])
            raise NoIntersectionError(
                f"ray misses {type(surface).__name__} in ({lo:g}, {DEFAULT_T_MAX:g}]"
            ).at(i)
        if degenerate[i]:
            raise DegenerateGradientError("level-function gradient vanishes at the point").at(i)
        raise TangentialError("ray meets the surface nearly tangentially").at(i)
    hit = Intersection(point=p, t=t, normal=n, cos_incidence=cos)
    return hit._row(0) if single else hit
