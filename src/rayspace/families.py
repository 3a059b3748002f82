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
family has `vectorized=True`, and `one_form_integral` evaluates each
refinement level of it in one call.  Its rows equal the single evaluations
bit for bit, and a failing batch raises what its lowest-index failing
parameter raises alone.  The defect, regularity and grid routines evaluate
one parameter at a time.
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
from .lines import OrientedLine, _as_vec3, _frame, _norm, chart_coords, chart_for, line_through
from .optics import OpticalSystem, propagate_system
from .surfaces import Plane, Sinusoid, Sphere


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

    def contains(self, k1: float, k2: float, pad: float = 0.0) -> bool:
        (a1, b1), (a2, b2) = self.domain
        return (a1 + pad <= k1 <= b1 - pad) and (a2 + pad <= k2 <= b2 - pad)


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
    if not family.contains(k[0], k[1], pad=0.0) or not family.contains(
        k[0], k[1], pad=h
    ):
        raise DomainBoundaryError(
            f"stencil of half-width {h:g} at k={tuple(k)} leaves the domain"
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


def is_regular_point(family: RayFamily, k, t: float, h: float | None = None) -> bool:
    """Whether nearby rays spread out transversally at parameter t on L(k).

    Rays L(k') near L(k) are sliced by the plane through the point at
    parameter t orthogonal to u(k); the point of L(k') nearest the anchor
    gives two in-plane coordinates, and the 2x2 Jacobian of that map must
    have |det| > 1e-8.  False e.g. at the apex of a point source.
    """
    if h is None:
        h = family.default_step()
    _require_inside(family, k, h)
    line0 = family.eval(float(k[0]), float(k[1]))
    anchor = line0.point_at(float(t))
    _, w1, w2 = _frame(line0.u)

    def coords(line: OrientedLine):
        rel = anchor - line.q
        nearest = line.q + (rel @ line.u) * line.u
        d = nearest - anchor
        return np.array([d @ w1, d @ w2])

    p1, m1, p2, m2 = _neighbors(family, k, h)
    col1 = (coords(p1) - coords(m1)) / (2.0 * h)
    col2 = (coords(p2) - coords(m2)) / (2.0 * h)
    det = col1[0] * col2[1] - col1[1] * col2[0]
    return abs(det) > 1e-8


# ---------------------------------------------------------------------------
# wavefront reconstruction


def one_form_integral(
    family: RayFamily, ka, kb, tol: float = 1e-9, max_points: int = 4096
) -> float:
    """Integral of u . dP along the straight parameter segment ka -> kb.

    Trapezoid sums on the polyline of exactly evaluated lines, doubling the
    subdivision until successive refinements agree within tol.  Each
    refinement evaluates only the new midpoints (the other nodes coincide
    exactly with the previous level's), in one call for a vectorized family.
    """
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    prev = None
    us = qs = None
    m = 4
    while m <= max_points:
        ts = np.linspace(0.0, 1.0, m + 1)
        fresh = ts if us is None else ts[1::2]
        u_new, q_new = _eval_rows(family, ka + fresh[:, None] * (kb - ka))
        if us is None:
            us, qs = u_new, q_new
        else:
            us, qs = _interleave(us, u_new), _interleave(qs, q_new)
        val = 0.5 * float(np.sum((us[:-1] + us[1:]) * (qs[1:] - qs[:-1])))
        if prev is not None and abs(val - prev) <= tol:
            return val
        prev = val
        m *= 2
    raise NoConvergenceError("one-form integral did not converge under refinement")


def _eval_rows(family: RayFamily, ks):
    """Directions and foot points, (N, 3) each, of the lines at the rows of ks."""
    if family.vectorized:
        line = family.eval(ks[:, 0], ks[:, 1])
        return line.u, line.q
    lines = [family.eval(*k) for k in ks]
    return np.array([line.u for line in lines]), np.array([line.q for line in lines])


def _interleave(even, odd):
    """Rows even[0], odd[0], even[1], ..., even[-1]."""
    out = np.empty((len(even) + len(odd), *even.shape[1:]))
    out[0::2] = even
    out[1::2] = odd
    return out


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
    lines = [[family.eval(k1s[i], k2s[j]) for j in range(n2)] for i in range(n1)]

    # adjacent-node segment integrals, horizontal (along k1) and vertical
    horiz = np.zeros((n1 - 1, n2))
    vert = np.zeros((n1, n2 - 1))
    for j in range(n2):
        for i in range(n1 - 1):
            horiz[i, j] = one_form_integral(
                family, (k1s[i], k2s[j]), (k1s[i + 1], k2s[j]), tol=integral_tol
            )
    for i in range(n1):
        for j in range(n2 - 1):
            vert[i, j] = one_form_integral(
                family, (k1s[i], k2s[j]), (k1s[i], k2s[j + 1]), tol=integral_tol
            )

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
    points = np.empty((n1, n2, 3))
    for i in range(n1):
        for j in range(n2):
            line = lines[i][j]
            points[i, j] = line.q - (values[i, j] + c) * line.u

    if check_regular:
        for i in range(n1):
            for j in range(n2):
                t_q = -(values[i, j] + c)
                if not is_regular_point(family, (k1s[i], k2s[j]), t_q, h=h):
                    raise NonRegularError(
                        f"wavefront point at k=({k1s[i]:g}, {k2s[j]:g}) is not regular"
                    )

    return Wavefront(
        k1=k1s,
        k2=k2s,
        values=values,
        points=points,
        c=c,
        base_index=(i0, j0),
        path_discrepancy=discrepancy,
    )


def orthogonality_residual(family: RayFamily, wavefront: Wavefront, h: float | None = None) -> float:
    """max over nodes and directions of |u . dQ| / |dQ|, dQ by small steps.

    Uses the family's default step (not the grid spacing), continuing F to
    the probe parameters by short one-form integrals, so the residual
    measures genuine non-orthogonality rather than grid truncation.
    """
    if h is None:
        h = family.default_step()
    worst = 0.0
    for i, k1 in enumerate(wavefront.k1):
        for j, k2 in enumerate(wavefront.k2):
            base = np.array([k1, k2])
            line0 = family.eval(k1, k2)
            f0 = wavefront.values[i, j]
            for axis in range(2):
                step = np.zeros(2)
                step[axis] = h
                q_side = []
                for sgn in (+1.0, -1.0):
                    kk = base + sgn * step
                    f_side = f0 + one_form_integral(family, base, kk, tol=1e-12)
                    side = family.eval(*kk)
                    q_side.append(side.q - (f_side + wavefront.c) * side.u)
                d = q_side[0] - q_side[1]
                norm = float(np.linalg.norm(d))
                if norm > 0.0:
                    worst = max(worst, abs(float(line0.u @ d)) / norm)
    return worst
