"""Two-parameter ray families: construction, the rectangularity defect,
regular points, wavefront reconstruction, and transport through systems.

A family is a smooth map (k1, k2) -> OrientedLine on a rectangular parameter
domain.  The central quantity is the defect: the symplectic two-form of the
line manifold evaluated on the two coordinate tangent fields,

    defect(k) = dP/dk1 . du/dk2 - dP/dk2 . du/dk1,

computed here with P(k) the foot point (the value does not depend on which
smoothly chosen point of the line is used).  A family admits surfaces crossed
orthogonally by every nearby ray exactly when the defect vanishes
identically; `is_rectangular` tests that numerically on a grid, and
`reconstruct_wavefront` actually builds such a surface by integrating the
one-form u . dP, checking path independence as it goes.

Finite differences are central throughout; the default step is
1e-5 * (parameter domain diameter).  Grids are inset from the domain edges by
the step so every stencil stays inside the domain.

Shapes: the `eval` and `anchor` of every family the builders here return
(and of `transform_family` applied to one) also take equal-length arrays k1,
k2 of N parameters and return a batch of N lines, (N, 3) anchors; such a
family has `vectorized=True`.  Its rows equal the single evaluations bit for
bit, and a failing batch raises what its lowest-index failing parameter
raises alone.

`one_form_integral` takes one segment or a batch of them and refines the
batch level by level, each level in one evaluation of the new midpoints of
every segment not yet converged; `is_regular_point` takes one point or a
batch.  `reconstruct_wavefront` evaluates its grid lines, integrates all its
segments and checks the regularity of all its nodes in one batch each;
`orthogonality_residual` does the same with its centre lines, its +-h probe
integrals and their end lines.  Batches are evaluated at most _CHUNK rays
per call, which bounds their memory.  A batched step that fails is re-run
item by item in the order of the single calls, so it raises exactly what
they raise: the first failing segment, node or probe.  `defect` and
`defect_grid` evaluate one parameter at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    DomainBoundaryError,
    FamilyTraceError,
    ImmersionError,
    NoConvergenceError,
    NonRegularError,
    NotRectangularError,
    RaySpaceError,
)
from .lines import (
    OrientedLine,
    _as_vec3,
    _first,
    _frame,
    _norm,
    chart_coords,
    chart_for,
    line_through,
)
from .optics import OpticalSystem, propagate_system
from .surfaces import Plane, Sinusoid, Sphere

# Rays per eval call in batched routines: one segment's deepest refinement
# level (max_points / 2 = 2048 new midpoints) still fits in one call, and a
# wavefront's batches keep their memory bounded.
_CHUNK = 2048


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid_csv(header: str, k1, k2, nodes) -> str:
    """CSV with one row per grid node: k1, k2, then the node's values.

    nodes[i, j] holds the values at (k1[i], k2[j]), as an array of shape
    (len(k1), len(k2), columns); k1 varies slowest.
    """
    rows = [header + "\n"]
    for i, a in enumerate(k1):
        for j, b in enumerate(k2):
            rows.append(",".join(map(_fmt, (a, b, *nodes[i, j]))) + "\n")
    return "".join(rows)


@dataclass(frozen=True)
class RayFamily:
    """A smooth two-parameter family of oriented lines on a rectangle.

    `anchor`, when set, gives the point on each ray where propagation
    physically begins (source apex, emitting surface point, ...); systems
    intersect each ray strictly downstream of it.  None means the foot point.
    `vectorized` declares that `eval` and `anchor` also accept arrays of
    parameters and return the batch of their lines, row by row.
    """

    eval: Callable[[float, float], OrientedLine]
    domain: tuple
    kind: str = "custom"
    anchor: Callable[[float, float], np.ndarray] | None = None
    vectorized: bool = False

    def line(self, k1: float, k2: float) -> OrientedLine:
        return self.eval(k1, k2)

    def start_point(self, k1: float, k2: float) -> np.ndarray:
        if self.anchor is None:
            return self.eval(k1, k2).q
        return self.anchor(k1, k2)

    @property
    def diameter(self) -> float:
        (a1, b1), (a2, b2) = self.domain
        return float(np.hypot(b1 - a1, b2 - a2))

    def default_step(self) -> float:
        return 1e-5 * self.diameter

    def contains(self, k1, k2, pad: float = 0.0):
        """Whether (k1, k2) lies in the domain shrunk by pad; elementwise for
        arrays of parameters."""
        (a1, b1), (a2, b2) = self.domain
        return (a1 + pad <= k1) & (k1 <= b1 - pad) & (a2 + pad <= k2) & (k2 <= b2 - pad)


# ---------------------------------------------------------------------------
# builders


def _col(k) -> np.ndarray:
    """Parameters as a column, so k * vector broadcasts one row per k."""
    return np.asarray(k, dtype=float)[..., None]


def _rows(v, k) -> np.ndarray:
    """The 3-vector v once per parameter in k: (3,) for one, (N, 3) for N."""
    out = np.empty(np.shape(k) + (3,))
    out[...] = v
    return out


def point_source(apex, axis, domain=((-0.3, 0.3), (-0.3, 0.3))) -> RayFamily:
    """All rays leaving one point, parametrized around a central axis."""
    apex = _as_vec3(apex)
    a, e1, e2 = _frame(axis)

    def _eval(k1, k2):
        return line_through(apex, a + _col(k1) * e1 + _col(k2) * e2)

    return RayFamily(
        _eval,
        tuple(map(tuple, domain)),
        kind="point_source",
        anchor=lambda k1, k2: _rows(apex, k1),
        vectorized=True,
    )


def collimated(direction, origin=(0.0, 0.0, 0.0), domain=((-0.5, 0.5), (-0.5, 0.5))) -> RayFamily:
    """A parallel beam: fixed direction, foot points on an orthogonal lattice."""
    origin = _as_vec3(origin)
    a, e1, e2 = _frame(direction)

    def _anchor(k1, k2):
        return origin + _col(k1) * e1 + _col(k2) * e2

    return RayFamily(
        lambda k1, k2: line_through(_anchor(k1, k2), a),
        tuple(map(tuple, domain)),
        kind="collimated",
        anchor=_anchor,
        vectorized=True,
    )


def two_skew_lines(point1, dir1, point2, dir2, domain=((-0.25, 0.25), (-0.25, 0.25))) -> RayFamily:
    """Lines meeting two skew lines, oriented from the first to the second.

    eval(k1, k2) joins point1 + k1 * unit(dir1) to point2 + k2 * unit(dir2).
    This family is the classic non-rectangular example.
    """
    p1 = _as_vec3(point1)
    p2 = _as_vec3(point2)
    d1 = _as_vec3(dir1)
    d2 = _as_vec3(dir2)
    d1 = d1 / np.linalg.norm(d1)
    d2 = d2 / np.linalg.norm(d2)

    def _eval(k1, k2):
        a = p1 + _col(k1) * d1
        b = p2 + _col(k2) * d2
        return line_through(a, b - a)

    return RayFamily(
        _eval,
        tuple(map(tuple, domain)),
        kind="two_skew_lines",
        anchor=lambda k1, k2: p1 + _col(k1) * d1,
        vectorized=True,
    )


def normal_congruence(surface, domain, axis=(0.0, 0.0, 1.0), outward: bool = True) -> RayFamily:
    """Rays normal to a surface patch (spheres, planes, sinusoid graphs).

    For a Sphere the patch is parametrized by direction offsets around
    `axis`; `outward` picks the radial sense.  For a Sinusoid the parameters
    are the (x, y) graph coordinates and `outward` means the +z side.  For a
    Plane the family is a collimated beam along the oriented normal.
    """
    if isinstance(surface, Sphere):
        a, e1, e2 = _frame(axis)
        center = surface.center
        radius = surface.radius
        sgn = 1.0 if outward else -1.0

        def _radial(k1, k2):
            s = a + _col(k1) * e1 + _col(k2) * e2
            return s / _norm(s)[..., None]

        def _eval(k1, k2):
            s = _radial(k1, k2)
            return line_through(center + radius * s, sgn * s)

        return RayFamily(
            _eval,
            tuple(map(tuple, domain)),
            kind="normal_congruence",
            anchor=lambda k1, k2: center + radius * _radial(k1, k2),
            vectorized=True,
        )
    if isinstance(surface, Sinusoid):
        amp = surface.amplitude
        w = surface.wavevector
        sgn = 1.0 if outward else -1.0

        def _anchor(k1, k2):
            k1, k2 = np.broadcast_arrays(k1, k2)
            return np.stack([k1, k2, amp * np.sin(w[0] * k1 + w[1] * k2)], axis=-1)

        def _eval(k1, k2):
            k1, k2 = np.broadcast_arrays(k1, k2)
            c = amp * np.cos(w[0] * k1 + w[1] * k2)
            n = np.stack([-c * w[0], -c * w[1], np.ones_like(c)], axis=-1)
            return line_through(_anchor(k1, k2), sgn * n)

        return RayFamily(
            _eval,
            tuple(map(tuple, domain)),
            kind="normal_congruence",
            anchor=_anchor,
            vectorized=True,
        )
    if isinstance(surface, Plane):
        n = surface.normal if outward else -surface.normal
        origin = surface.offset * surface.normal
        return collimated(n, origin, domain)
    raise ValueError(f"normal congruence not supported for {type(surface).__name__}")


def transform_family(family: RayFamily, system: OpticalSystem) -> RayFamily:
    """The family of output lines of `system` applied ray by ray.

    Evaluation is pure (nothing cached); per-interface failures re-raise as
    FamilyTraceError carrying the parameter value.  A vectorized family
    stays vectorized: a batch of parameters is traced as one batch.
    """

    def _trace_as_given(k1, k2):
        base = family.eval(k1, k2)
        try:
            return propagate_system(base, system, start=family.start_point(k1, k2))
        except RaySpaceError as exc:
            raise FamilyTraceError((k1, k2), exc) from exc

    def _trace(k1, k2):
        try:
            return _trace_as_given(k1, k2)
        except RaySpaceError:
            if np.ndim(k1) == 0:
                raise
            # a failing batch raises what its first failing parameter raises alone
            for a, b in zip(*np.broadcast_arrays(k1, k2)):
                _trace_as_given(a, b)
            raise

    def _eval(k1, k2):
        return _trace(k1, k2).line_out

    def _anchor(k1, k2):
        result = _trace(k1, k2)
        if result.hits:
            return result.hits[-1].point
        return family.start_point(k1, k2)

    return RayFamily(
        _eval,
        family.domain,
        kind=f"transformed({family.kind})",
        anchor=_anchor,
        vectorized=family.vectorized,
    )


# ---------------------------------------------------------------------------
# defect and rectangularity


def _require_inside(family: RayFamily, k, h: float) -> None:
    """Raise for the first k (one (2,) point or the rows of an (N, 2) batch)
    whose stencil of half-width h leaves the domain."""
    ks = np.asarray(k, dtype=float)
    bad = _first(~family.contains(ks[..., 0], ks[..., 1], pad=h))
    if bad is not None:
        where = k if ks.ndim == 1 else k[bad]
        raise DomainBoundaryError(
            f"stencil of half-width {h:g} at k={tuple(where)} leaves the domain"
        )


def _neighbors(family: RayFamily, k, h: float):
    k1, k2 = float(k[0]), float(k[1])
    return (
        family.eval(k1 + h, k2),
        family.eval(k1 - h, k2),
        family.eval(k1, k2 + h),
        family.eval(k1, k2 - h),
    )


def _stencil_defect(neighbors, h: float) -> float:
    """Central-difference defect from the four neighbours of _neighbors."""
    p1, m1, p2, m2 = neighbors
    du1 = (p1.u - m1.u) / (2.0 * h)
    dq1 = (p1.q - m1.q) / (2.0 * h)
    du2 = (p2.u - m2.u) / (2.0 * h)
    dq2 = (p2.q - m2.q) / (2.0 * h)
    return float(dq1 @ du2 - dq2 @ du1)


def defect(family: RayFamily, k, h: float | None = None) -> float:
    """The symplectic two-form on the coordinate tangent fields at k."""
    if h is None:
        h = family.default_step()
    _require_inside(family, k, h)
    return _stencil_defect(_neighbors(family, k, h), h)


def defect_refined(family: RayFamily, k, h: float | None = None):
    """Defect at steps h and h/2: a step-halving convergence diagnostic."""
    if h is None:
        h = family.default_step()
    return defect(family, k, h), defect(family, k, 0.5 * h)


def _grid_axes(family: RayFamily, grid, inset: float):
    if isinstance(grid, int):
        n1 = n2 = grid
    else:
        n1, n2 = grid
    if n1 < 3 or n2 < 3:
        raise ValueError("grid must be at least 3x3")
    (a1, b1), (a2, b2) = family.domain
    k1 = np.linspace(a1 + inset, b1 - inset, n1)
    k2 = np.linspace(a2 + inset, b2 - inset, n2)
    return k1, k2


@dataclass(frozen=True)
class DefectGrid:
    """Defect sampled on a parameter grid, k1 varying along rows."""

    k1: np.ndarray
    k2: np.ndarray
    values: np.ndarray
    step: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))

    def to_csv(self) -> str:
        return _grid_csv("k1,k2,value", self.k1, self.k2, self.values[..., None])


def _immersion_ok(center_line: OrientedLine, neighbors, h: float) -> bool:
    chart = chart_for(center_line.u)
    p1, m1, p2, m2 = neighbors
    col1 = (chart_coords(p1, chart)[0] - chart_coords(m1, chart)[0]) / (2.0 * h)
    col2 = (chart_coords(p2, chart)[0] - chart_coords(m2, chart)[0]) / (2.0 * h)
    jac = np.stack([col1, col2], axis=1)
    svals = np.linalg.svd(jac, compute_uv=False)
    return svals[0] > 0.0 and (svals[-1] / svals[0]) > 1e-8


def defect_grid(
    family: RayFamily,
    grid=9,
    h: float | None = None,
    check_immersion: bool = True,
) -> DefectGrid:
    """Defect on a grid inset by h; optionally verifies rank-2 immersion."""
    if h is None:
        h = family.default_step()
    k1s, k2s = _grid_axes(family, grid, inset=h)
    values = np.empty((len(k1s), len(k2s)))
    for i, k1 in enumerate(k1s):
        for j, k2 in enumerate(k2s):
            neigh = _neighbors(family, (k1, k2), h)
            if check_immersion:
                center = family.eval(k1, k2)
                if not _immersion_ok(center, neigh, h):
                    raise ImmersionError(f"family is not an immersion at k=({k1:g}, {k2:g})")
            values[i, j] = _stencil_defect(neigh, h)
    return DefectGrid(k1=k1s, k2=k2s, values=values, step=h)


def is_rectangular(family: RayFamily, grid=9, tol: float | None = None, h: float | None = None):
    """(verdict, DefectGrid): verdict is max |defect| < tol on the grid.

    The default tolerance is 1e-6 times the larger domain span.  The verdict
    is invariant under reparametrization (the defect itself rescales by the
    Jacobian determinant of the reparametrization).
    """
    if tol is None:
        (a1, b1), (a2, b2) = family.domain
        tol = 1e-6 * max(b1 - a1, b2 - a2)
    dg = defect_grid(family, grid=grid, h=h)
    return dg.max_abs < tol, dg


def is_regular_point(family: RayFamily, k, t, h: float | None = None):
    """Whether nearby rays spread out transversally at parameter t on L(k).

    Rays L(k') near L(k) are sliced by the plane through the point at
    parameter t orthogonal to u(k); the point of L(k') nearest the anchor
    gives two in-plane coordinates, and the 2x2 Jacobian of that map must
    have |det| > 1e-8.  False e.g. at the apex of a point source.

    k of shape (2,) and a scalar t give a bool.  k of shape (N, 2) and t of
    shape (N,) give N bools, each the single point's, from one evaluation of
    the centre lines and one of the stencil lines.
    """
    if h is None:
        h = family.default_step()
    if np.ndim(k) == 1:
        _require_inside(family, k, h)
        line0 = family.eval(float(k[0]), float(k[1]))
        stencil = _neighbors(family, k, h)
        return _spreads(
            line0.u,
            line0.point_at(float(t)),
            np.array([line.u for line in stencil]),
            np.array([line.q for line in stencil]),
            h,
        )
    ks = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    try:
        _require_inside(family, k, h)
        return _regular(family, ks, t, h, *_eval_rows(family, ks))
    except RaySpaceError:
        # a failing batch raises what its first failing point raises alone
        for kk, tt in zip(k, t):
            is_regular_point(family, kk, tt, h)
        raise


def _regular(family: RayFamily, ks, t, h: float, u0, q0):
    """is_regular_point at the rows of ks (N, 2) and t (N,), whose centre
    lines (u0, q0) are given, without the domain check."""
    stencil = np.repeat(ks[:, None], 4, axis=1)  # in the order of _neighbors
    stencil[:, 0, 0] += h
    stencil[:, 1, 0] -= h
    stencil[:, 2, 1] += h
    stencil[:, 3, 1] -= h
    us, qs = _eval_rows(family, stencil.reshape(-1, 2))
    shape = (len(ks), 4, 3)
    return _spreads(u0, q0 + t[:, None] * u0, us.reshape(shape), qs.reshape(shape), h)


def _spreads(u0, anchor, us, qs, h: float):
    """The |det| > 1e-8 test of is_regular_point: centre directions u0 and
    anchors (..., 3), the four stencil lines of _neighbors (..., 4, 3)."""
    _, w1, w2 = _frame(u0)
    rel = anchor[..., None, :] - qs
    d = qs + np.vecdot(rel, us)[..., None] * us - anchor[..., None, :]
    coords = np.stack([np.vecdot(d, w1[..., None, :]), np.vecdot(d, w2[..., None, :])], axis=-1)
    col1 = (coords[..., 0, :] - coords[..., 1, :]) / (2.0 * h)
    col2 = (coords[..., 2, :] - coords[..., 3, :]) / (2.0 * h)
    det = col1[..., 0] * col2[..., 1] - col1[..., 1] * col2[..., 0]
    return abs(det) > 1e-8


# ---------------------------------------------------------------------------
# wavefront reconstruction


def one_form_integral(family: RayFamily, ka, kb, tol: float = 1e-9, max_points: int = 4096):
    """Integral of u . dP along the straight parameter segment ka -> kb.

    Trapezoid sums on the polyline of exactly evaluated lines, doubling the
    subdivision until successive refinements agree within tol.  Each
    refinement evaluates only the new midpoints (the other nodes coincide
    exactly with the previous level's).

    ka and kb of shape (2,) give one segment and a float; shape (S, 2) gives
    S segments and an (S,) array.  The segments refine together: each level
    evaluates the new midpoints of every segment not yet converged in one
    call (of at most _CHUNK rays) for a vectorized family.  Each segment keeps
    its own nodes, sums and stopping test, so each value equals the single
    segment's bit for bit, and a failing batch raises what its first failing
    segment raises alone.
    """
    ka, kb = np.broadcast_arrays(np.asarray(ka, dtype=float), np.asarray(kb, dtype=float))
    if ka.ndim == 1:
        return float(_one_form_levels(family, ka[None], kb[None], tol, max_points)[0])
    try:
        return _one_form_levels(family, ka, kb, tol, max_points)
    except RaySpaceError:
        # a failing batch raises what its first failing segment raises alone
        for a, b in zip(ka, kb):
            _one_form_levels(family, a[None], b[None], tol, max_points)
        raise


def _one_form_levels(family: RayFamily, ka, kb, tol: float, max_points: int):
    """one_form_integral of the segments ka[s] -> kb[s], refined together.

    A level evaluates its new midpoints in calls of whole segments (at most
    _CHUNK rays unless one segment alone has more) and builds those
    segments' nodes and sums call by call, dropping each segment's previous
    nodes as it goes, so it holds little more than one copy of the nodes of
    the live segments.
    """
    values = np.empty(len(ka))
    span = kb - ka
    live = np.arange(len(ka))  # the segments not yet converged
    kept = None  # per live segment, the directions and foot points of its nodes
    prev = None
    m = 4
    while m <= max_points:
        ts = np.linspace(0.0, 1.0, m + 1)
        fresh = ts if kept is None else ts[1::2]
        at = slice(None) if kept is None else slice(1, None, 2)
        val = np.empty(len(live))
        grown = []
        per_call = max(1, _CHUNK // len(fresh))
        for a in range(0, len(live), per_call):
            seg = live[a : a + per_call]
            ks = ka[seg, None] + fresh[:, None] * span[seg, None]
            u, q = _eval_rows(family, ks.reshape(-1, 2))
            us = np.empty((len(seg), m + 1, 3))
            qs = np.empty((len(seg), m + 1, 3))
            us[:, at] = u.reshape(len(seg), len(fresh), 3)
            qs[:, at] = q.reshape(len(seg), len(fresh), 3)
            if kept is not None:
                for b in range(len(seg)):
                    us[b, 0::2], qs[b, 0::2] = kept[a + b]
                    kept[a + b] = None
            terms = (us[:, :-1] + us[:, 1:]) * (qs[:, 1:] - qs[:, :-1])
            val[a : a + len(seg)] = 0.5 * terms.reshape(len(seg), -1).sum(axis=1)
            grown.extend(zip(us, qs))
        kept = grown
        if prev is not None:
            going = ~(abs(val - prev) <= tol)  # a NaN sum keeps refining
            values[live[~going]] = val[~going]
            live, val = live[going], val[going]
            kept = [nodes for nodes, g in zip(kept, going) if g]
            if not len(live):
                return values
        prev = val
        m *= 2
    raise NoConvergenceError("one-form integral did not converge under refinement")


def _eval_rows(family: RayFamily, ks):
    """Directions and foot points, (N, 3) each, of the lines at the rows of ks.

    A vectorized family is evaluated in calls of at most _CHUNK rows, in
    order, so a failing batch still raises its first failing row's error.
    """
    if not family.vectorized:
        lines = [family.eval(*k) for k in ks]
        return np.array([line.u for line in lines]), np.array([line.q for line in lines])
    parts = np.split(ks, range(_CHUNK, len(ks), _CHUNK))
    lines = [family.eval(part[:, 0], part[:, 1]) for part in parts]
    if len(lines) == 1:
        return lines[0].u, lines[0].q
    return np.concatenate([line.u for line in lines]), np.concatenate([line.q for line in lines])


def _grid_lines(family: RayFamily, k1, k2):
    """The nodes (n1, n2, 2) of the grid k1 x k2 and their lines' directions
    and foot points (n1, n2, 3), from one batch in (i, j) order."""
    nodes = np.stack(np.meshgrid(k1, k2, indexing="ij"), axis=-1)
    shape = (len(k1), len(k2), 3)
    u, q = _eval_rows(family, nodes.reshape(-1, 2))
    return nodes, u.reshape(shape), q.reshape(shape)


@dataclass(frozen=True)
class Wavefront:
    """An orthogonal surface of a rectangular family, sampled on a grid.

    values[i, j] is the primitive F of u . dP with F = 0 at the base node;
    points[i, j] = P(k) - (F(k) + c) u(k).
    """

    k1: np.ndarray
    k2: np.ndarray
    values: np.ndarray
    points: np.ndarray
    c: float
    base_index: tuple
    path_discrepancy: float

    def to_csv(self) -> str:
        nodes = np.concatenate([self.points, self.values[..., None]], axis=2)
        return _grid_csv("k1,k2,qx,qy,qz,F", self.k1, self.k2, nodes)


def reconstruct_wavefront(
    family: RayFamily,
    k0,
    c: float = 0.0,
    grid=9,
    h: float | None = None,
    path_tol: float = 1e-7,
    integral_tol: float = 1e-9,
    check_regular: bool = True,
) -> Wavefront:
    """Integrate u . dP from k0 and drop the points P - (F + c) u.

    F is accumulated along grid-aligned paths; for every node the row-first
    and column-first L-paths must agree within path_tol, otherwise the family
    is not rectangular and NotRectangularError is raised.  k0 snaps to the
    nearest grid node (F is only defined up to a constant anyway; c selects
    the member of the orthogonal-surface pencil).
    """
    if h is None:
        h = family.default_step()
    k1s, k2s = _grid_axes(family, grid, inset=h)
    k0 = np.asarray(k0, dtype=float)
    i0 = int(np.argmin(np.abs(k1s - k0[0])))
    j0 = int(np.argmin(np.abs(k2s - k0[1])))

    n1, n2 = len(k1s), len(k2s)
    nodes, us, qs = _grid_lines(family, k1s, k2s)

    # adjacent-node segment integrals in one batch: horizontal (along k1)
    # column by column, then vertical row by row
    rows = nodes.transpose(1, 0, 2)
    starts = np.concatenate([rows[:, :-1].reshape(-1, 2), nodes[:, :-1].reshape(-1, 2)])
    ends = np.concatenate([rows[:, 1:].reshape(-1, 2), nodes[:, 1:].reshape(-1, 2)])
    seg = one_form_integral(family, starts, ends, tol=integral_tol)
    horiz = seg[: (n1 - 1) * n2].reshape(n2, n1 - 1).T.copy()
    vert = seg[(n1 - 1) * n2 :].reshape(n1, n2 - 1)

    def cum(segments, start, stop):
        # signed sum of consecutive segments from index start to stop
        if stop >= start:
            return float(np.sum(segments[start:stop]))
        return -float(np.sum(segments[stop:start]))

    f_rc = np.zeros((n1, n2))  # along row j0 first, then up/down the column
    f_cr = np.zeros((n1, n2))  # along column i0 first, then across the row
    for i in range(n1):
        row_leg = cum(horiz[:, j0], i0, i)
        for j in range(n2):
            f_rc[i, j] = row_leg + cum(vert[i, :], j0, j)
    for j in range(n2):
        col_leg = cum(vert[i0, :], j0, j)
        for i in range(n1):
            f_cr[i, j] = col_leg + cum(horiz[:, j], i0, i)

    discrepancy = float(np.max(np.abs(f_rc - f_cr)))
    if discrepancy > path_tol:
        raise NotRectangularError(
            f"path-dependent primitive: L-path discrepancy {discrepancy:.3e} > {path_tol:g}"
        )

    values = f_rc
    points = qs - (values + c)[..., None] * us

    if check_regular:
        t_q = -(values + c)
        try:
            _require_inside(family, nodes.reshape(-1, 2), h)
            regular = _regular(
                family, nodes.reshape(-1, 2), t_q.ravel(), h, us.reshape(-1, 3), qs.reshape(-1, 3)
            )
        except RaySpaceError:
            # a failing batch raises what the node by node check raises
            for i, j in np.ndindex(n1, n2):
                if not is_regular_point(family, (k1s[i], k2s[j]), t_q[i, j], h=h):
                    raise _not_regular(k1s[i], k2s[j])
            raise
        bad = _first(~regular)
        if bad is not None:
            raise _not_regular(*nodes.reshape(-1, 2)[bad])

    return Wavefront(
        k1=k1s,
        k2=k2s,
        values=values,
        points=points,
        c=c,
        base_index=(i0, j0),
        path_discrepancy=discrepancy,
    )


def _not_regular(k1, k2) -> NonRegularError:
    return NonRegularError(f"wavefront point at k=({k1:g}, {k2:g}) is not regular")


def orthogonality_residual(family: RayFamily, wavefront: Wavefront, h: float | None = None) -> float:
    """max over nodes and directions of |u . dQ| / |dQ|, dQ by small steps.

    Uses the family's default step (not the grid spacing), continuing F to
    the probe parameters by short one-form integrals, so the residual
    measures genuine non-orthogonality rather than grid truncation.  The
    centre lines, the 4 probe integrals per node and the probe end lines
    are each evaluated in one batch.
    """
    if h is None:
        h = family.default_step()
    # probes k + sgn * step, per node in the order +k1, -k1, +k2, -k2
    offsets = np.array([sgn * step for step in np.diag([h, h]) for sgn in (+1.0, -1.0)])
    nodes = np.stack(np.meshgrid(wavefront.k1, wavefront.k2, indexing="ij"), axis=-1).reshape(-1, 2)
    ends = nodes[:, None] + offsets
    try:
        u0, _ = _eval_rows(family, nodes)
        f_side = one_form_integral(
            family, np.repeat(nodes, 4, axis=0), ends.reshape(-1, 2), tol=1e-12
        ).reshape(-1, 4)
        side_u, side_q = (a.reshape(-1, 4, 3) for a in _eval_rows(family, ends.reshape(-1, 2)))
    except RaySpaceError:
        # a failing batch raises what the first failing evaluation raises
        # in node order: centre line, then each probe's integral and end
        for k, probes in zip(nodes, ends):
            family.eval(*k)
            for kk in probes:
                one_form_integral(family, k, kk, tol=1e-12)
                family.eval(*kk)
        raise
    f_side += wavefront.values.reshape(-1, 1)
    q_side = side_q - (f_side + wavefront.c)[..., None] * side_u
    d = q_side[:, 0::2] - q_side[:, 1::2]  # (nodes, axes, 3)
    norm = _norm(d)
    moved = norm > 0.0
    ratios = abs(np.vecdot(u0[:, None], d)[moved]) / norm[moved]
    return float(np.fmax.reduce(ratios, initial=0.0))
