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

Shapes: internal routines take batches only, (N, 3) lines and (N,) masks.
A single line, (3,), exists only at the public entry points (`OrientedLine`,
`line_through`, `chart_for`, `chart_coords`, `line_from_coords`,
`chart_jacobian`, `symplectic_residual`): each takes it as the batch of one
and gives back row 0, a (3,) or (4,) array, a str or a float.  A batch gives
row by row, bit for bit, what its rows give alone; the chart routines take
one chart for all lines or one per line.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ChartDomainError, RaySpaceError, ZeroDirectionError

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


def _col(k) -> np.ndarray:
    """Parameters as a column, so k * vector broadcasts one row per k."""
    return np.asarray(k, dtype=float)[..., None]


def _norm(v):
    """Euclidean norm over the last axis, equal bit for bit to np.linalg.norm
    of each 3-vector (and cheaper for a single one)."""
    return np.sqrt(np.vecdot(v, v))


def _any(mask) -> bool:
    """Whether any ray of a batch is flagged: guards work only flagged rays need."""
    return bool(mask.any())


def _first(mask):
    """Index of the first ray flagged in a per-ray mask (N,), None if none is."""
    if not mask.any():
        return None
    return int(np.argmax(mask))


def _ray(line: OrientedLine, i) -> OrientedLine:
    """Line i of a batch, as a single line; a slice gives those lines, and
    i = None makes a single line the batch of one."""
    return OrientedLine._exact(line.u[i], line.q[i])


def _cross(a, b):
    """Cross product over the last axis of (..., 3) arrays that broadcast,
    bit for bit np.cross: the same three differences of products, without
    its axis handling."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _cross3(a, b):
    """The cross product of two 3-sequences of Python floats, as a tuple:
    the same three differences of rounded products as _cross."""
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _frame(axis):
    """Unit axis plus an orthonormal pair spanning its orthogonal plane, for
    one axis (3,): e1 is the unit of e_i x a, e_i the basis vector of the
    smallest |a_i| (the first on ties), and e2 = a x e1."""
    a = _as_vec3(axis)
    n = _norm(a)
    if n < 1e-12:
        raise ValueError("axis must be nonzero")
    a = a / n
    u = a.tolist()
    x, y, z = map(abs, u)
    ref = (1.0, 0.0, 0.0) if x <= y and x <= z else (0.0, 1.0, 0.0) if y <= z else (0.0, 0.0, 1.0)
    e1 = np.array(_cross3(ref, u))
    e1 /= _norm(e1)
    return a, e1, np.array(_cross3(u, e1.tolist()))


def _beam(direction, origin):
    """The rays of a parallel beam, k1, k2 -> (anchors, direction): the
    anchors origin + k1 e1 + k2 e2 on the plane through origin orthogonal
    to `direction` (e1, e2 of its _frame), and its unit vector."""
    a, e1, e2 = _frame(direction)
    return lambda k1, k2: (origin + _col(k1) * e1 + _col(k2) * e2, a)


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
    i = _first(n < 1e-12)
    if i is not None:
        raise ZeroDirectionError("direction vector is numerically zero").at(i)
    u = d / n[..., None]
    q = p - np.vecdot(p, u)[..., None] * u
    q -= np.vecdot(q, u)[..., None] * u  # second projection removes the O(eps) residual
    if u.shape != q.shape:
        u = np.broadcast_to(u, q.shape).copy()
    return OrientedLine._exact(u, q)


def reverse(line: OrientedLine) -> OrientedLine:
    """The same support with the opposite orientation."""
    return OrientedLine(-line.u, line.q)


def _omega(du1, dq1, du2, dq2):
    """omega(v1, v2) = dq1 . du2 - dq2 . du1, row by row over (..., 3) arrays."""
    return np.vecdot(dq1, du2) - np.vecdot(dq2, du1)


# ---------------------------------------------------------------------------
# stereographic charts


def chart_for(u):
    """The chart whose projection pole is farthest from u (3,); for an
    (N, 3) batch, an array of one chart per direction."""
    u = np.asarray(u)
    if u.ndim == 1:
        return str(chart_for(u[None])[0])
    return np.where(u[:, 2] >= 0.0, SOUTH, NORTH)


_POLE_SIGNS = {NORTH: 1.0, SOUTH: -1.0}


def _pole_sign(chart_id):
    """The e3 component of the projection pole: +1 for NORTH, -1 for SOUTH;
    elementwise for an array of chart ids."""
    if isinstance(chart_id, str) and chart_id in _POLE_SIGNS:  # one line: no array work
        return _POLE_SIGNS[chart_id]
    ids = np.asarray(chart_id)
    north = ids == NORTH
    if not np.all(north | (ids == SOUTH)):
        raise ValueError(f"unknown chart {chart_id!r}")
    return np.where(north, 1.0, -1.0)


def _check_chart(chart_id, u3) -> None:
    """Raise for the first direction too close to its chart's pole, naming
    its index along the leading axis as `row`: u3 is (N,) or (N, k), and
    chart_id may hold one chart per u3."""
    sign = _pole_sign(chart_id)
    near = sign * u3 >= 1.0 - CHART_MARGIN
    if _any(near):
        first = np.unravel_index(np.argmax(near), near.shape)
        if np.broadcast_to(sign, near.shape)[first] > 0.0:
            raise ChartDomainError("direction too close to the north pole for chart NORTH").at(first[0])
        raise ChartDomainError("direction too close to the south pole for chart SOUTH").at(first[0])


def _project(chart_id, u) -> np.ndarray:
    """Stereographic coordinates a (..., 2) of directions u (..., 3)."""
    u = np.asarray(u)
    return u[..., :2] / (1.0 - _pole_sign(chart_id) * u[..., 2])[..., None]


def _unproject(chart_id, a):
    """Direction u(a) (N, ..., 3) and the analytic Jacobian du/da (N, ...,
    3, 2) of coordinates a (N, ..., 2); chart_id may hold one chart per row."""
    a1, a2 = a[..., 0], a[..., 1]
    r2 = a1 * a1 + a2 * a2
    s = 1.0 + r2
    s2 = s * s
    sign = _pole_sign(chart_id)
    g3 = sign * 4.0 / s2
    u = np.empty(a.shape[:-1] + (3,))
    u[..., 0] = 2.0 * a1 / s
    u[..., 1] = 2.0 * a2 / s
    u[..., 2] = sign * (r2 - 1.0) / s
    jac = np.empty(a.shape[:-1] + (3, 2))
    jac[..., 0, 0] = 2.0 / s - 4.0 * a1 * a1 / s2
    jac[..., 0, 1] = jac[..., 1, 0] = -4.0 * a1 * a2 / s2
    jac[..., 1, 1] = 2.0 / s - 4.0 * a2 * a2 / s2
    jac[..., 2, 0] = g3 * a1
    jac[..., 2, 1] = g3 * a2
    return u, jac


def _chart_ab(chart_id, u, q):
    """Chart coordinates a and b, (N, ..., 2) each, of the lines (u, q); one
    chart for all or one per line.  Raises ChartDomainError for the first
    line too close to its chart's pole."""
    _check_chart(chart_id, u[..., 2])
    a = _project(chart_id, u)
    _, jac = _unproject(chart_id, a)
    return a, (jac.swapaxes(-1, -2) @ q[..., None])[..., 0]


def chart_coords(line: OrientedLine, chart_id=None):
    """Chart coordinates (a1, a2, b1, b2) of a line, shape (4,), or of a
    batch, shape (N, 4), together with the chart used: by default the best
    chart of each line (an array of charts for a batch).  Raises
    ChartDomainError for the first line too close to its chart's pole."""
    if chart_id is None:
        chart_id = chart_for(line.u)
    if line.u.ndim == 1:
        return chart_coords(_ray(line, None), chart_id)[0][0], chart_id
    a, b = _chart_ab(chart_id, line.u, line.q)
    return np.concatenate([a, b], axis=-1), chart_id


def line_from_coords(x, chart_id) -> OrientedLine:
    """The line with chart coordinates x (4,), or the batch of an (N, 4) x,
    row by row bit for bit; chart_id may hold one chart per row.  Inverse
    of chart_coords, exact up to round-off on the chart domain.  Raises
    ChartDomainError for the first x whose line is not finite (its base
    coordinates are too far out for the chart metric), with `row` set."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return _ray(line_from_coords(x[None], chart_id), 0)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # refused below
        u, jac = _unproject(chart_id, x[:, :2])
        gram = jac.swapaxes(-1, -2) @ jac
        gram[np.linalg.det(gram) == 0.0] = np.nan  # solves to NaN, not LinAlgError
        coeff = np.linalg.solve(gram, x[:, 2:, None])
        q = (jac @ coeff)[..., 0]
        q -= np.vecdot(q, u)[:, None] * u
    row = _first(~np.isfinite(q).all(axis=-1))  # a non-finite u makes q so too
    if row is not None:
        raise ChartDomainError("chart coordinates too far out: no finite line").at(row)
    return OrientedLine(u / _norm(u)[:, None], q)


def chart_symplectic_matrix() -> np.ndarray:
    """Constant matrix of omega in chart coordinates (a1, a2, b1, b2)."""
    omega = np.zeros((4, 4))
    omega[:2, 2:] = -np.eye(2)
    omega[2:, :2] = np.eye(2)
    return omega


# ---------------------------------------------------------------------------
# finite-difference verification helpers


def _stencil(dim: int, h: float) -> np.ndarray:
    """The central-difference stencil (2*dim, dim): rows +h e_0, -h e_0,
    +h e_1, ...; x plus each gives x + step and x - step bit for bit."""
    steps = np.empty((2 * dim, dim))
    steps[0::2] = h * np.eye(dim)
    steps[1::2] = -steps[0::2]
    return steps


def chart_jacobian(
    transform: Callable[[OrientedLine], OrientedLine],
    line: OrientedLine,
    h: float | None = None,
    chart_in: str | None = None,
    chart_out: str | None = None,
):
    """Central-difference Jacobian of a line map in chart coordinates: 4x4
    at one line, (N, 4, 4) at each line of a batch of N.

    `transform` maps a batch of lines row by row and is called once, on N
    blocks of nine rows: each line followed by its eight stencil lines
    x0 + h e_0, x0 - h e_0, x0 + h e_1, ... in chart coordinates.  The
    input chart defaults to the best chart for each line, the output chart
    to the best chart for its image; a chart given serves every line.  h
    defaults to 1e-5 * max(1, |q|) of each line.  Returns (J, chart_in,
    chart_out), with an array of one chart per line for a batch.

    A batch gives bit for bit the Jacobians of its lines taken one at a
    time.  Its stages: the input charts, the stencil lines, the map (an
    error of the transform names its row of the nine-row blocks), then the
    output charts.  A failing batch raises the error of the lowest line
    failing at the first of them, with the line's index as `row` (see
    `errors`).
    """
    single = line.u.ndim == 1
    if single:
        line = _ray(line, None)
    n = len(line.u)
    chart_in = np.broadcast_to(chart_for(line.u) if chart_in is None else chart_in, (n,))
    x0, _ = chart_coords(line, chart_in)
    if h is None:
        h = 1e-5 * np.maximum(1.0, _norm(line.q))
    h = np.reshape(h, (-1, 1, 1))
    try:
        steps = line_from_coords(
            (x0[:, None] + _stencil(4, 1.0) * h).reshape(-1, 4), np.repeat(chart_in, 8)
        )
    except RaySpaceError as exc:
        exc.row //= 8
        raise
    u = np.concatenate([line.u[:, None], steps.u.reshape(n, 8, 3)], axis=1)
    q = np.concatenate([line.q[:, None], steps.q.reshape(n, 8, 3)], axis=1)
    try:
        images = transform(OrientedLine._exact(u.reshape(-1, 3), q.reshape(-1, 3)))
    except RaySpaceError as exc:
        exc.row //= 9
        raise
    u, q = images.u.reshape(n, 9, 3), images.q.reshape(n, 9, 3)
    chart_out = np.broadcast_to(chart_for(u[:, 0]) if chart_out is None else chart_out, (n,))
    try:
        xs, _ = chart_coords(
            OrientedLine._exact(u[:, 1:].reshape(-1, 3), q[:, 1:].reshape(-1, 3)),
            np.repeat(chart_out, 8),
        )
    except RaySpaceError as exc:
        exc.row //= 8
        raise
    xs = xs.reshape(n, 8, 4)
    jac = ((xs[:, 0::2] - xs[:, 1::2]) / (2.0 * h)).swapaxes(-1, -2)
    if single:
        return jac[0], str(chart_in[0]), str(chart_out[0])
    return jac, chart_in, chart_out


def symplectic_residual(jacobian: np.ndarray, scale: float = 1.0):
    """max |J^T Omega J - scale * Omega| entrywise: a float for one 4x4 J,
    an array for a stack (N, 4, 4), each entry bit for bit the residual of
    its J alone."""
    if jacobian.ndim == 2:
        return float(symplectic_residual(jacobian[None], scale)[0])
    omega = chart_symplectic_matrix()
    product = jacobian.swapaxes(-1, -2) @ omega @ jacobian
    return np.max(np.abs(product - scale * omega), axis=(-2, -1))
