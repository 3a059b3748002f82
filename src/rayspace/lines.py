"""Oriented lines in Euclidean 3-space and the symplectic geometry of the
4-manifold they form.

A line is stored canonically as a pair (u, q): the unit direction u and the
foot point q, the point of the line closest to the origin, so q . u = 0.
Identifying a line with the covector w -> q . w on the sphere of directions
makes the space of oriented lines a cotangent bundle, and the canonical
two-form of that bundle is the structure everything else in this package is
measured against.

Charts are stereographic.  The NORTH chart projects from the pole +e3 and is
valid away from it (u3 < 1 - 1e-6); SOUTH projects from -e3 and is valid for
u3 > -1 + 1e-6.  Base coordinates are a = (a1, a2); fiber coordinates are
b_i = q . (du/da_i).  In every chart the two-form has the constant Darboux
matrix returned by chart_symplectic_matrix().

Sign convention, used consistently everywhere in the package:

    omega(v1, v2) = dq1 . du2 - dq2 . du1

which is the exterior derivative of theta = q . du, i.e. of b . da in chart
coordinates.  The value is unchanged if the foot point is replaced by any
other smoothly chosen point on the line.

Shapes: `OrientedLine` and `line_through` take either single 3-vectors,
shape (3,), or batches of N lines as (N, 3) arrays (a (3,) point or direction
broadcasts against an (N, 3) one).  A batch gives, row by row, bit for bit
the lines that the rows give one at a time.  Everything else here (charts,
variations, Jacobians) works on one line at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartDomainError, ZeroDirectionError

NORTH = "north"
SOUTH = "south"

# Directions closer than this to the projection pole are rejected.
CHART_MARGIN = 1e-6


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    return v


def _as_vecs(x) -> np.ndarray:
    """A 3-vector, shape (3,), or a batch of them, shape (N, 3)."""
    v = np.asarray(x, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] != 3:
        raise ValueError(f"expected a 3-vector or an (N, 3) array, got shape {v.shape}")
    return v


def _norm(v):
    """Euclidean norm over the last axis, equal bit for bit to np.linalg.norm
    of each 3-vector (and cheaper for a single one)."""
    return np.sqrt(np.vecdot(v, v))


def _out(x):
    """A Python float for a single ray (a numpy scalar), the array for a batch."""
    return float(x) if x.ndim == 0 else x


def _any(mask) -> bool:
    """Whether any ray is flagged; cheap on the 0-d mask of a single ray."""
    return bool(mask) if mask.ndim == 0 else bool(mask.any())


def _first(mask):
    """Index of the first ray flagged in a per-ray mask, None if none is.

    The index is () for a single ray (a 0-d mask), so `values[_first(mask)]`
    picks the flagged ray's value either way.
    """
    if not _any(mask):
        return None
    return () if mask.ndim == 0 else int(np.argmax(mask))


def _ray(line: OrientedLine, i) -> OrientedLine:
    """Line i of a batch, as a single line."""
    return OrientedLine(line.u[i], line.q[i])


def _frame(axis):
    """Unit axis plus an orthonormal pair spanning its orthogonal plane.

    An (N, 3) batch of axes gives the N frames row by row."""
    a = _as_vecs(axis)
    n = _norm(a)
    if _any(n < 1e-12):
        raise ValueError("axis must be nonzero")
    a = a / n[..., None]
    ref = np.zeros_like(a)
    np.put_along_axis(ref, np.argmin(np.abs(a), axis=-1)[..., None], 1.0, axis=-1)
    e1 = np.cross(ref, a)
    e1 /= _norm(e1)[..., None]
    e2 = np.cross(a, e1)
    return a, e1, e2


@dataclass(frozen=True, eq=False)
class OrientedLine:
    """An oriented straight line, canonically represented by (u, q).

    u is a unit vector, q the foot point (q . u = 0).  Reversing the
    orientation gives a distinct line: (u, q) != (-u, q).  With u and q of
    shape (N, 3) the object is a batch of N lines, row by row.
    """

    u: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        u = _as_vecs(self.u).copy()
        q = _as_vecs(self.q).copy()
        if u.shape != q.shape:
            raise ValueError(f"direction shape {u.shape} != foot point shape {q.shape}")
        if _any(abs(_norm(u) - 1.0) > 1e-12):
            raise ValueError("direction must be a unit vector")
        qu = abs(np.vecdot(q, u))  # must not exceed 1e-12 * max(1, |q|)
        if _any((qu > 1e-12) & (qu > 1e-12 * _norm(q))):
            raise ValueError("foot point must satisfy q . u = 0")
        self._set(u, q)

    def _set(self, u, q):
        u.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "q", q)

    @classmethod
    def _exact(cls, u, q) -> OrientedLine:
        """A line from fresh arrays that are canonical by construction (unit u,
        q . u = 0 to round-off), skipping the checks and copies."""
        line = object.__new__(cls)
        line._set(u, q)
        return line

    def point_at(self, t) -> np.ndarray:
        """The point at ray parameter t (one t per line of a batch)."""
        return self.q + np.asarray(t)[..., None] * self.u

    def __eq__(self, other):
        if not isinstance(other, OrientedLine):
            return NotImplemented
        return np.array_equal(self.u, other.u) and np.array_equal(self.q, other.q)

    def __repr__(self):
        return f"OrientedLine(u={tuple(self.u)}, q={tuple(self.q)})"


def line_through(point, direction) -> OrientedLine:
    """The oriented line through `point` in the sense of `direction`.

    The direction need not be normalized; a numerically zero direction raises
    ZeroDirectionError.  Either argument may be an (N, 3) batch.
    """
    p = _as_vecs(point)
    d = _as_vecs(direction)
    n = _norm(d)
    if _any(n < 1e-12):
        raise ZeroDirectionError("direction vector is numerically zero")
    u = d / n[..., None]
    q = p - np.vecdot(p, u)[..., None] * u
    q -= np.vecdot(q, u)[..., None] * u  # second projection removes the O(eps) residual
    if u.shape != q.shape:
        u = np.broadcast_to(u, q.shape).copy()
    return OrientedLine._exact(u, q)


def reverse(line: OrientedLine) -> OrientedLine:
    """The same support with the opposite orientation."""
    return OrientedLine(-line.u, line.q)


@dataclass(frozen=True)
class LineVariation:
    """A tangent vector (du, dq) to the line manifold at some line.

    At a line (u, q) a valid variation of the canonical representation
    satisfies u . du = 0 and q . du + u . dq = 0.  The pairing below also
    accepts variations of non-foot representatives (same du, dq shifted along
    the line); its value does not depend on that choice.
    """

    du: np.ndarray
    dq: np.ndarray

    def __post_init__(self):
        du = _as_vec3(self.du).copy()
        dq = _as_vec3(self.dq).copy()
        du.flags.writeable = False
        dq.flags.writeable = False
        object.__setattr__(self, "du", du)
        object.__setattr__(self, "dq", dq)

    def is_tangent_at(self, line: OrientedLine, tol: float = 1e-10) -> bool:
        a = abs(line.u @ self.du)
        b = abs(line.q @ self.du + line.u @ self.dq)
        return a <= tol and b <= tol


def tangent_variation(line: OrientedLine, du_raw, dq_raw) -> LineVariation:
    """Project an arbitrary (du, dq) pair onto the tangent space at `line`."""
    du = _as_vec3(du_raw)
    dq = _as_vec3(dq_raw)
    du = du - (line.u @ du) * line.u
    dq = dq - (line.u @ dq + line.q @ du) * line.u
    return LineVariation(du, dq)


def curve_variation(curve: Callable[[float], OrientedLine], h: float = 1e-6) -> LineVariation:
    """Central-difference tangent of a smooth curve of lines at parameter 0."""
    plus = curve(h)
    minus = curve(-h)
    return LineVariation((plus.u - minus.u) / (2.0 * h), (plus.q - minus.q) / (2.0 * h))


def symplectic_pairing(line: OrientedLine, v1: LineVariation, v2: LineVariation) -> float:
    """omega(v1, v2) = dq1 . du2 - dq2 . du1 at the given line."""
    return float(v1.dq @ v2.du - v2.dq @ v1.du)


# ---------------------------------------------------------------------------
# stereographic charts


@dataclass(frozen=True)
class ChartPoint:
    """Coordinates (a, b) of a line in one stereographic chart."""

    chart_id: str
    a: np.ndarray
    b: np.ndarray

    def coords(self) -> np.ndarray:
        return np.concatenate([self.a, self.b])


def chart_for(u) -> str:
    """The chart whose projection pole is farthest from u."""
    return SOUTH if u[2] >= 0.0 else NORTH


def _check_chart(chart_id: str, u3: float) -> None:
    if chart_id == NORTH:
        if u3 >= 1.0 - CHART_MARGIN:
            raise ChartDomainError("direction too close to the north pole for chart NORTH")
    elif chart_id == SOUTH:
        if u3 <= -1.0 + CHART_MARGIN:
            raise ChartDomainError("direction too close to the south pole for chart SOUTH")
    else:
        raise ValueError(f"unknown chart {chart_id!r}")


def _project(chart_id: str, u: np.ndarray) -> np.ndarray:
    denom = (1.0 - u[2]) if chart_id == NORTH else (1.0 + u[2])
    return np.array([u[0] / denom, u[1] / denom])


def _unproject(chart_id: str, a: np.ndarray):
    """Direction u(a) and the analytic 3x2 Jacobian du/da."""
    a1, a2 = float(a[0]), float(a[1])
    r2 = a1 * a1 + a2 * a2
    s = 1.0 + r2
    s2 = s * s
    if chart_id == NORTH:
        u3 = (r2 - 1.0) / s
        g3 = 4.0 / s2
    else:
        u3 = (1.0 - r2) / s
        g3 = -4.0 / s2
    u = np.array([2.0 * a1 / s, 2.0 * a2 / s, u3])
    jac = np.array(
        [
            [2.0 / s - 4.0 * a1 * a1 / s2, -4.0 * a1 * a2 / s2],
            [-4.0 * a1 * a2 / s2, 2.0 / s - 4.0 * a2 * a2 / s2],
            [g3 * a1, g3 * a2],
        ]
    )
    return u, jac


def to_chart(line: OrientedLine, chart_id: str | None = None) -> ChartPoint:
    """Chart coordinates of a line; raises ChartDomainError near the pole."""
    if chart_id is None:
        chart_id = chart_for(line.u)
    _check_chart(chart_id, line.u[2])
    a = _project(chart_id, line.u)
    _, jac = _unproject(chart_id, a)
    b = jac.T @ line.q
    return ChartPoint(chart_id, a, b)


def from_chart(c: ChartPoint) -> OrientedLine:
    """Inverse of to_chart.  Exact up to round-off on the chart domain."""
    u, jac = _unproject(c.chart_id, np.asarray(c.a, dtype=float))
    gram = jac.T @ jac
    coeff = np.linalg.solve(gram, np.asarray(c.b, dtype=float))
    q = jac @ coeff
    q -= (q @ u) * u
    u = u / np.linalg.norm(u)
    return OrientedLine(u, q)


def chart_coords(line: OrientedLine, chart_id: str | None = None):
    """(a1, a2, b1, b2) as a flat array, together with the chart used."""
    c = to_chart(line, chart_id)
    return c.coords(), c.chart_id


def line_from_coords(x, chart_id: str) -> OrientedLine:
    x = np.asarray(x, dtype=float)
    return from_chart(ChartPoint(chart_id, x[:2], x[2:]))


def chart_symplectic_matrix() -> np.ndarray:
    """Constant matrix of omega in chart coordinates (a1, a2, b1, b2)."""
    omega = np.zeros((4, 4))
    omega[:2, 2:] = -np.eye(2)
    omega[2:, :2] = np.eye(2)
    return omega


# ---------------------------------------------------------------------------
# finite-difference verification helpers


def chart_jacobian(
    transform: Callable[[OrientedLine], OrientedLine],
    line: OrientedLine,
    h: float | None = None,
    chart_in: str | None = None,
    chart_out: str | None = None,
):
    """4x4 central-difference Jacobian of a line map in chart coordinates.

    The input chart defaults to the best chart for `line`, the output chart
    to the best chart for its image.  Returns (J, chart_in, chart_out).
    """
    if chart_in is None:
        chart_in = chart_for(line.u)
    image = transform(line)
    if chart_out is None:
        chart_out = chart_for(image.u)
    x0, _ = chart_coords(line, chart_in)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(line.q)))
    jac = np.empty((4, 4))
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        plus, _ = chart_coords(transform(line_from_coords(x0 + step, chart_in)), chart_out)
        minus, _ = chart_coords(transform(line_from_coords(x0 - step, chart_in)), chart_out)
        jac[:, j] = (plus - minus) / (2.0 * h)
    return jac, chart_in, chart_out


def symplectic_residual(jacobian: np.ndarray, scale: float = 1.0) -> float:
    """max |J^T Omega J - scale * Omega| entrywise."""
    omega = chart_symplectic_matrix()
    return float(np.max(np.abs(jacobian.T @ omega @ jacobian - scale * omega)))
