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

Every builder is one constructor, `_pencil(rays, domain, kind)`: rays(k1,
k2) gives (anchors, directions), and the family's lines pass through the
anchors along the directions and start there.  A normal congruence takes
its rays from its surface's `_normal_rays`, so no surface kind is named
here.  One `eval` gives a batch of lines together with where their rays
start and their optical length l from the source wavefront, as a
TracedLine; `transform_family` traces each batch once and carries both on.

Finite differences are central throughout; the default step is
1e-5 * (parameter domain diameter).  Grids are inset from the domain edges by
the step so every stencil stays inside the domain.  One routine,
`_differences`, gives the tangents (du, dq) of a batch of nodes from their
stencil lines +k1, -k1, +k2, -k2, which `_tangents` evaluates; a wavefront
takes its nodes' tangents from its one-form levels instead, and evaluates no
stencil line.  The defect is omega of the pair, the immersion test its rank
and the regularity test its determinant across the ray.

Shapes: internal routines take batches only, (N, 2) parameters and (N, 3)
lines.  A family's `eval` takes arrays k1, k2 of N parameters and returns N
lines, with (N, 3) starts and (N,) lengths if they are TracedLines;
routines here call it only so, at most _CHUNK rows a call, and a custom
`eval` names its lowest failing row with `.at(row)`.  The builders'
families also take one parameter pair.  A single pair, segment or point
exists only at the public entry points `defect`, `one_form_integral` and
`is_regular_point`, as the batch of one.

`one_form_integral` takes one segment or a batch of them and refines the
batch level by level, by nested Clenshaw-Curtis quadrature on
Chebyshev-Lobatto nodes: the nodes of the segments not yet converged are
one array.  Every integral starts from one batch of the lines at level 8's
nodes of its segments (no segment stops before level 8, and level 4's
nodes are among them), and each later level evaluates all new nodes as
one batch; a converged segment's interpolant also gives the derivatives
of u and q at its ends.  `reconstruct_wavefront` evaluates one batch per
job, the grid lines and level 8's interior nodes of all segments, for its
stages to read, takes each node's tangents from the ends of the segments
next to it, and keeps the grid lines with their optical lengths on the
Wavefront, where `orthogonality_residual` reads them.  `defect_grid`
evaluates the stencil lines of all its nodes and their immersion tests in
one batch.  `_defect_grids` runs that stage for the grid before a system
and traces the lines it evaluated on through the system for the grid
after; the mirror design's immersion and rectangularity tests read the
node tangents of its wavefront's one-form levels.  Batches fail as
`errors` sets out, the error's `row` naming the parameter, segment or
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
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
    _beam,
    _col,
    _cross,
    _first,
    _frame,
    _norm,
    _omega,
    _stencil,
    line_through,
)
from .optics import OpticalSystem, propagate_system

# Rays per eval call in batched routines, which bounds the memory of one call.
_CHUNK = 2048
_MAX_POINTS = 512  # the finest one-form level
_INTEGRAL_TOL = 1e-9  # one-form refinements stop once successive sums agree within it
_PATH_TOL = 1e-7  # the default largest L-path discrepancy of a wavefront
_PAIRS = np.triu_indices(6, 1)  # the index pairs i < j of a row of [du | dq]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _grid_csv(header: str, k1, k2, nodes) -> str:
    """CSV with one row per grid node: k1, k2, then the node's values.

    nodes[i, j] holds the values at (k1[i], k2[j]), as an array of shape
    (len(k1), len(k2), columns); k1 varies slowest.
    """
    # "%.17g" % x is format(x, ".17g"): each field reads as _fmt writes it;
    # each k is formatted once, into the "k1,k2" prefix of its rows
    first = ["%.17g," % x for x in np.asarray(k1, dtype=float).tolist()]
    second = ["%.17g" % x for x in np.asarray(k2, dtype=float).tolist()]
    prefixes = [a + b for a in first for b in second]
    nodes = np.asarray(nodes, dtype=float)
    row = ",%.17g" * nodes.shape[-1] + "\n"
    values = nodes.reshape(len(prefixes), nodes.shape[-1]).tolist()
    return header + "\n" + "".join(p + row % tuple(v) for p, v in zip(prefixes, values))


@dataclass(frozen=True, eq=False)
class TracedLine(OrientedLine):
    """A batch of lines (or one line) with where their rays start and how far
    they have come: `length` is l, the optical length from the source
    wavefront to the foot points over the index of the lines' medium (None
    if the lines have no source wavefront), and `start` the points (N, 3)
    where propagation physically begins (source apex, emitting surface
    point, last hit, ...; None means the foot points): systems intersect
    each ray strictly downstream of its start.
    """

    length: np.ndarray | float | None = None
    start: np.ndarray | None = None

    @classmethod
    def _of(cls, line: OrientedLine, length, start) -> TracedLine:
        traced = cls._exact(line.u, line.q)
        object.__setattr__(traced, "length", length)
        object.__setattr__(traced, "start", start)
        return traced


def _starts(line: OrientedLine):
    """Where the rays of the lines start: a TracedLine's `start`, else the
    foot points."""
    start = getattr(line, "start", None)
    return line.q if start is None else start


@dataclass(frozen=True)
class RayFamily:
    """A smooth two-parameter family of oriented lines on a rectangle.

    `eval` takes arrays k1, k2 of N parameters and returns the batch of
    their lines, row by row; a failing batch fails as `errors` sets out.
    Lines that carry where their rays start and their l are TracedLines
    (every builder's and every `transform_family`'s); a family without a
    source wavefront returns plain OrientedLines, whose rays start at their
    foot points.
    """

    eval: Callable[[np.ndarray, np.ndarray], OrientedLine]
    domain: tuple
    kind: str = "custom"

    def start_point(self, k1: float, k2: float) -> np.ndarray:
        """Where the rays at (k1, k2) start, from one `eval`."""
        return _starts(self.eval(k1, k2))

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


def _pencil(rays, domain, kind: str) -> RayFamily:
    """The family of lines through the points along the directions of
    rays(k1, k2) = (anchors, directions), starting at the points, which lie
    on the source wavefront: l = (q - anchor) . u."""

    def _eval(k1, k2):
        anchors, directions = rays(k1, k2)
        line = line_through(anchors, directions)
        return TracedLine._of(line, np.vecdot(line.q - anchors, line.u), anchors)

    return RayFamily(_eval, tuple(map(tuple, domain)), kind=kind)


def point_source(apex, axis, domain=((-0.3, 0.3), (-0.3, 0.3))) -> RayFamily:
    """All rays leaving one point, parametrized around a central axis."""
    apex = _as_vec3(apex)
    a, e1, e2 = _frame(axis)

    def rays(k1, k2):
        return np.broadcast_to(apex, np.shape(k1) + (3,)).copy(), a + _col(k1) * e1 + _col(k2) * e2

    return _pencil(rays, domain, "point_source")


def collimated(direction, origin=(0.0, 0.0, 0.0), domain=((-0.5, 0.5), (-0.5, 0.5))) -> RayFamily:
    """A parallel beam: fixed direction, foot points on an orthogonal lattice."""
    return _pencil(_beam(direction, _as_vec3(origin)), domain, "collimated")


def two_skew_lines(point1, dir1, point2, dir2, domain=((-0.25, 0.25), (-0.25, 0.25))) -> RayFamily:
    """Lines meeting two skew lines, oriented from the first to the second.

    eval(k1, k2) joins point1 + k1 * unit(dir1) to point2 + k2 * unit(dir2).
    This family is the classic non-rectangular example.
    """
    p1 = _as_vec3(point1)
    p2 = _as_vec3(point2)
    d1 = _as_vec3(dir1)
    d2 = _as_vec3(dir2)
    n1, n2 = _norm(d1), _norm(d2)
    if min(n1, n2) < 1e-12:
        raise ValueError("dir1 and dir2 must be nonzero")
    d1, d2 = d1 / n1, d2 / n2

    def rays(k1, k2):
        a = p1 + _col(k1) * d1
        return a, p2 + _col(k2) * d2 - a

    return _pencil(rays, domain, "two_skew_lines")


def normal_congruence(surface, domain, axis=(0.0, 0.0, 1.0), outward: bool = True) -> RayFamily:
    """Rays normal to a surface patch, anchored on it: the patch and its
    parameters are the surface's `_normal_rays(axis, outward)`.

    For a Sphere the patch is parametrized by direction offsets around
    `axis`; `outward` picks the radial sense.  For a Sinusoid the parameters
    are the (x, y) graph coordinates and `outward` means the +z side.  For a
    Plane the family is a beam along the oriented normal, on a lattice of
    the plane.  `axis` is read for a Sphere only.  A surface without
    `_normal_rays` raises ValueError.
    """
    normal_rays = getattr(surface, "_normal_rays", None)
    if normal_rays is None:
        raise ValueError(f"normal congruence not supported for {type(surface).__name__}")
    return _pencil(normal_rays(axis, outward), domain, "normal_congruence")


def transform_family(family: RayFamily, system: OpticalSystem) -> RayFamily:
    """The family of output lines of `system` applied ray by ray.

    Its lines are TracedLines that start at each ray's last hit.  Their l is
    the source line's l carried to its start, times the ambient index, plus
    the optical length of the trace, over the exit index, carried on to the
    foot point; None if the source lines carry none.
    Evaluation is pure (nothing cached); per-interface failures re-raise as
    FamilyTraceError carrying the parameter value.  A batch of parameters
    is traced as one batch.
    """

    def _eval(k1, k2):
        try:
            base = family.eval(k1, k2)
            start = _starts(base)
            result = propagate_system(base, system, start=start)
        except RaySpaceError as exc:
            ks = np.column_stack(np.broadcast_arrays(k1, k2))  # one pair is the batch of one
            raise FamilyTraceError(ks[exc.row], exc) from exc
        out = result.line_out
        last = result.hits[-1].point if result.hits else start
        length = getattr(base, "length", None)
        if length is not None:
            carried = length + np.vecdot(start - base.q, base.u)
            length = system.ambient_index * carried + result.optical_length
            length = length / system.exit_index + np.vecdot(out.q - last, out.u)
        return TracedLine._of(out, length, last)

    return RayFamily(_eval, family.domain, kind=f"transformed({family.kind})")


# ---------------------------------------------------------------------------
# defect and rectangularity


def _require_inside(family: RayFamily, ks, h: float) -> None:
    """Raise for the first row of ks (N, 2) whose stencil of half-width h
    leaves the domain."""
    bad = _first(~family.contains(ks[:, 0], ks[:, 1], pad=h))
    if bad is not None:
        where = tuple(map(float, ks[bad]))
        raise DomainBoundaryError(
            f"stencil of half-width {h:g} at k={where} leaves the domain"
        ).at(bad)


def _tangents(family: RayFamily, ks, h: float):
    """The central-difference tangents du, dq (N, 2, 3) of the lines at the
    rows of ks (N, 2), [:, i] along k_(i+1), from one evaluation of the four
    stencil lines +k1, -k1, +k2, -k2 of every node; an error's row is the
    node.  The stencils must lie inside the domain."""
    try:
        u, q, _ = _eval_rows(family, _stencil_rows(ks, h))
    except RaySpaceError as exc:
        raise exc.at(exc.row // 4)
    return _differences(u, q, h)


def _stencil_rows(ks, h: float):
    """The stencil rows (4N, 2) of the nodes ks (N, 2): +k1, -k1, +k2, -k2."""
    return (ks[:, None] + _stencil(2, h)).reshape(-1, 2)


def _differences(u, q, h: float):
    """The central-difference tangents du, dq (N, 2, 3) from the directions
    and foot points (4N, 3) of the lines at _stencil_rows."""
    u, q = u.reshape(-1, 2, 2, 3), q.reshape(-1, 2, 2, 3)
    return (u[:, :, 0] - u[:, :, 1]) / (2.0 * h), (q[:, :, 0] - q[:, :, 1]) / (2.0 * h)


def _immersion_ratio(du, dq):
    """The ratio s_min / s_max (N,) of the singular values of each node's
    2x6 matrix [du | dq], from its tangents (N, 2, 3); the node is immersed
    (rank 2) where it exceeds 1e-8.  0 where the matrix is 0 or not finite.

    In closed form from the rows r0, r1 and their Gram entries a, b, c:
    s_max^2 = (a + c)/2 + hypot((a - c)/2, b), and s_min s_max = |r0 ^ r1|,
    the root of the sum of (r0_i r1_j - r0_j r1_i)^2 over i < j (Lagrange's
    identity, free of the cancellation in a c - b^2).  Each matrix is first
    scaled by a power of two, exactly, so no finite one overflows.
    """
    m = np.concatenate([du, dq], axis=-1)
    big = np.max(np.abs(m), axis=(1, 2))
    m[~np.isfinite(big)] = 0.0
    m = np.ldexp(m, -np.frexp(big)[1][:, None, None])
    r0, r1 = m[:, 0], m[:, 1]
    a, b, c = np.vecdot(r0, r0), np.vecdot(r0, r1), np.vecdot(r1, r1)
    top = 0.5 * (a + c) + np.hypot(0.5 * (a - c), b)  # s_max^2
    i, j = _PAIRS
    # contiguous rows: vecdot then sums each node's terms as it does for the node alone
    wedge = np.ascontiguousarray(r0[:, i] * r1[:, j] - r0[:, j] * r1[:, i])
    return np.sqrt(np.vecdot(wedge, wedge)) / np.where(top > 0.0, top, 1.0)


def defect(family: RayFamily, k, h: float | None = None) -> float:
    """The symplectic two-form on the coordinate tangent fields at k."""
    if h is None:
        h = family.default_step()
    ks = np.asarray(k, dtype=float)[None]
    _require_inside(family, ks, h)
    du, dq = _tangents(family, ks, h)
    return float(_omega(du[:, 0], dq[:, 0], du[:, 1], dq[:, 1])[0])


def _grid_axes(family: RayFamily, grid, inset: float):
    """The axes k1, k2 of a grid inset from the domain edges by `inset`, the
    half-width of the stencils at its nodes, which must stay inside."""
    if isinstance(grid, int):
        n1 = n2 = grid
    else:
        n1, n2 = grid
    if n1 < 3 or n2 < 3:
        raise ValueError("grid must be at least 3x3")
    (a1, b1), (a2, b2) = family.domain
    k1 = np.linspace(a1 + inset, b1 - inset, n1)
    k2 = np.linspace(a2 + inset, b2 - inset, n2)
    # the nodes run from a + inset to b - inset on each axis, so every
    # node's stencil fits if the first node's does
    _require_inside(family, np.array([[k1[0], k2[0]]]), inset)
    return k1, k2


@dataclass(frozen=True, eq=False)
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


def defect_grid(family: RayFamily, grid=9, h: float | None = None) -> DefectGrid:
    """Defect on a grid inset by h, after a rank-2 immersion test of every
    node: ImmersionError names the first node that fails it.

    All nodes are computed from one batch of stencil lines (at most _CHUNK
    rays per eval call).
    """
    if h is None:
        h = family.default_step()
    k1s, k2s = _grid_axes(family, grid, inset=h)
    values, _ = _grid_defects(family, _nodes(k1s, k2s).reshape(-1, 2), h)
    return DefectGrid(k1=k1s, k2=k2s, values=values.reshape(len(k1s), len(k2s)), step=h)


def _grid_defects(family: RayFamily, ks, h: float):
    """The defects (N,) at the rows of ks (N, 2), whose stencils lie inside
    the domain, and the (rows, lines) chunks of the stencil lines
    (_stencil_rows) they come from, as `_eval_chunks` gives them.  The
    stages: the stencil lines, then the immersion tests; the error's row is
    the node."""
    try:
        chunks = list(_eval_chunks(family, _stencil_rows(ks, h)))
    except RaySpaceError as exc:
        raise exc.at(exc.row // 4)
    return _node_defects(ks, *_differences(*_joined([line for _, line in chunks]), h)), chunks


def _joined(batches):
    """The directions and foot points (N, 3) of a list of batches of lines,
    one after another."""
    return (np.concatenate([getattr(line, a) for line in batches]) for a in "uq")


def _node_defects(ks, du, dq):
    """The defects (N,) at the rows of ks (N, 2) from their tangents du, dq
    (N, 2, 3): the immersion test of every node (ImmersionError names the
    first that fails it), then omega."""
    bad = _first(_immersion_ratio(du, dq) <= 1e-8)
    if bad is not None:
        k = tuple(map(float, ks[bad]))
        raise ImmersionError(f"family is not an immersion at k={k}").at(bad)
    return _omega(du[:, 0], dq[:, 0], du[:, 1], dq[:, 1])


def _defect_grids(family: RayFamily, system: OpticalSystem, grid=9, h: float | None = None):
    """defect_grid of the family and of transform_family(family, system), in
    turn: the stencil lines of the first (_grid_defects) are traced on
    through the system from their starts, at most _CHUNK rays a call.
    Fails as the two defect_grid calls in turn do: a trace error is a
    FamilyTraceError naming the stencil row's k."""
    if h is None:
        h = family.default_step()
    k1s, k2s = _grid_axes(family, grid, inset=h)
    ks = _nodes(k1s, k2s).reshape(-1, 2)
    before, chunks = _grid_defects(family, ks, h)
    out = []
    for part, line in chunks:
        try:
            out.append(propagate_system(line, system, start=_starts(line)).line_out)
        except RaySpaceError as exc:
            row = part.start + exc.row
            raise FamilyTraceError(_stencil_rows(ks, h)[row], exc).at(row // 4) from exc
    after = _node_defects(ks, *_differences(*_joined(out), h))
    shape = (len(k1s), len(k2s))
    return tuple(DefectGrid(k1=k1s, k2=k2s, values=v.reshape(shape), step=h) for v in (before, after))


def _default_tol(family: RayFamily) -> float:
    """The default tolerance of is_rectangular: 1e-6 times the larger domain span."""
    (a1, b1), (a2, b2) = family.domain
    return 1e-6 * max(b1 - a1, b2 - a2)


def is_rectangular(family: RayFamily, grid=9, tol: float | None = None, h: float | None = None):
    """(verdict, DefectGrid): verdict is max |defect| < tol on the grid.

    The default tolerance is 1e-6 times the larger domain span.  The verdict
    is invariant under reparametrization (the defect itself rescales by the
    Jacobian determinant of the reparametrization).
    """
    if tol is None:
        tol = _default_tol(family)
    dg = defect_grid(family, grid=grid, h=h)
    return dg.max_abs < tol, dg


def is_regular_point(family: RayFamily, k, t, h: float | None = None):
    """Whether nearby rays spread out transversally at parameter t on L(k).

    Rays L(k') near L(k) are sliced by the plane through the point at
    parameter t orthogonal to u(k); the point of L(k') nearest that point
    gives two in-plane coordinates, and the 2x2 Jacobian of that map must
    have |det| > 1e-8.  To first order in the tangents du, dq of the lines
    at k, det = u(k) . (v1 x v2) with v_i = dq/dk_i + t du/dk_i, which is
    how it is computed.  False e.g. at the apex of a point source.

    k of shape (2,) and a scalar t give a bool.  k of shape (N, 2) and t of
    shape (N,) give N bools, each the single point's, from one evaluation of
    the centre lines and one of the stencil lines.
    """
    if h is None:
        h = family.default_step()
    if np.ndim(k) == 1:
        return bool(is_regular_point(family, [k], [t], h)[0])
    ks = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    _require_inside(family, ks, h)
    u0, _, _ = _eval_rows(family, ks)
    return abs(_spread(u0, t, *_tangents(family, ks, h))) > 1e-8


def _spread(u0, t, du, dq):
    """The determinant (N,) of is_regular_point: u0 . (v1 x v2), v_i the
    motion dq_i + t du_i of the point at t along the tangents du, dq
    (N, 2, 3), for centre directions u0 (N, 3)."""
    v = dq + t[:, None, None] * du
    return np.vecdot(u0, _cross(v[:, 0], v[:, 1]))


# ---------------------------------------------------------------------------
# wavefront reconstruction


def one_form_integral(family: RayFamily, ka, kb, tol: float = _INTEGRAL_TOL):
    """Integral of u . dP along the straight parameter segment ka -> kb.

    Nested Clenshaw-Curtis quadrature on Chebyshev-Lobatto nodes: level
    m = 4, 8, 16, ... evaluates the lines at t_j = (1 - cos(pi j / m)) / 2,
    j = 0 .. m, of the segment ka + t (kb - ka) (t = 0 and 1 are ka and kb
    themselves), and applies the Clenshaw-Curtis rule of those nodes to
    u . q', where q' is the exact derivative of the degree-m polynomial
    interpolating q - q_0 at them (Trefethen, Spectral Methods in MATLAB,
    ch. 6 and 12).  The nodes of level 2m with even index are level m's, bit
    for bit, so each refinement evaluates only the m new nodes.  Refinement
    stops when two successive levels agree within tol, and the finer value
    is the integral.  A segment whose sum is NaN or infinite at a level
    raises NoConvergenceError there, and so does one still refining past
    the budget of 512 nodes (_MAX_POINTS); both errors name the segment.

    ka and kb of shape (2,) give one segment and a float; shape (S, 2) gives
    S segments and an (S,) array.  The segments refine together: the first
    batch holds the lines at level 8's nodes of every segment, and each
    later level evaluates the new nodes of every segment not yet converged
    as one batch (in calls of at most _CHUNK rays).  Each segment keeps its
    own nodes, sums and stopping test, all computed segment by segment, so
    each value equals the single segment's bit for bit.  The stages: the first batch,
    its rows in t order segment by segment, which levels 4 and 8 read;
    level 4's sums; level 8's sums and the first stopping test; then each
    level from 16, its new nodes and then its sums.
    """
    ka, kb = np.broadcast_arrays(np.asarray(ka, dtype=float), np.asarray(kb, dtype=float))
    single = ka.ndim == 1
    ka, kb = np.atleast_2d(ka, kb)
    try:
        nodes = np.concatenate([ka[:, None], _level8(ka, kb), kb[:, None]], axis=1)
        u, q, _ = _eval_rows(family, nodes.reshape(-1, 2))
    except RaySpaceError as exc:
        raise exc.at(exc.row // 9)
    values = _one_form_levels(family, ka, kb, np.concatenate([u, q], axis=1).reshape(-1, 9, 6), tol)[0]
    return float(values[0]) if single else values


def _level8(ka, kb):
    """The 7 interior nodes (S, 7, 2) of level 8 of the segments
    ka[s] -> kb[s], in t order; ka and kb are the level's end nodes."""
    return ka[:, None] + _cc_level(8)[0][1:-1, None] * (kb - ka)[:, None]


@lru_cache(maxsize=None)
def _cc_level(m: int):
    """Level m (even) of the nested rules on [0, 1], read-only: the nodes
    t_j = (1 - cos(pi j / m)) / 2, their Clenshaw-Curtis weights w
    (Trefethen's clencurt, halved for [0, 1]), G = diag(w) D with D the
    differentiation matrix of the nodes: D_ij = (b_j / b_i) / (t_i - t_j)
    off the diagonal, with the barycentric weights b_j = (-1)^j halved at
    both ends, and minus the sum of its row on it; and D's end rows (2,
    m + 1), at t = 0 and t = 1.  pi * 2j / 2m rounds as pi * j / m does, so
    level 2m's nodes of even index are level m's, bit for bit."""
    j = np.arange(m + 1)
    nodes = (1.0 - np.cos(np.pi * j / m)) / 2.0
    inner = np.ones(m - 1)
    for k in range(1, m // 2):
        inner -= 2.0 * np.cos(np.pi * (2 * k * j[1:-1] % (2 * m)) / m) / (4 * k * k - 1)
    inner -= np.cos(np.pi * j[1:-1]) / (m * m - 1)
    weights = np.full(m + 1, 0.5 / (m * m - 1))
    weights[1:-1] = inner / m
    bary = np.where(j % 2, -1.0, 1.0)
    bary[[0, -1]] = 0.5
    gap = nodes[:, None] - nodes
    np.fill_diagonal(gap, np.inf)
    g = (weights / bary)[:, None] * bary / gap
    np.fill_diagonal(g, -g.sum(axis=1))
    ends = (bary / bary[[0, -1], None]) / gap[[0, -1]]
    ends[[0, 1], [0, -1]] = -ends.sum(axis=1)
    level = nodes, weights, g, ends
    for a in level:
        a.flags.writeable = False
    return level


def _cc_sums(us, qs):
    """The Clenshaw-Curtis sums (S,) of u . q' over the nodes (S, m + 1, 3)
    of level m of S segments: u . G (q - q_0) with G of _cc_level.  Each
    segment's product is its own matrix product of the same shape, so each
    sum is the single segment's bit for bit.
    """
    g = _cc_level(us.shape[1] - 1)[2]
    dq = qs - qs[:, :1]
    # 0.0 + reads a sum of -0.0 as +0.0
    return 0.0 + np.vecdot(us.reshape(len(us), -1), (g @ dq).reshape(len(us), -1))


def _one_form_levels(family: RayFamily, ka, kb, lines, tol: float):
    """one_form_integral of the segments ka[s] -> kb[s], refined together,
    from the directions and foot points [u | q] (S, 9, 6) of the lines at
    level 8's nodes of every segment in t order (its ends and _level8);
    level 4's are their even nodes, so no segment stops before level 8.
    Returns the values (S,) and the derivatives [du/dt | dq/dt] (S, 2, 6)
    at t = 0 and t = 1 of the interpolants of u and q at the level where
    each segment converged: D's end rows (_cc_level) applied to
    [u - u_0 | q - q_0], each segment's its own matrix product, so each is
    the single segment's bit for bit.

    The nodes of the live segments are one array (live, m + 1, 6).  Each
    level from 16 on evaluates the new nodes of all live segments in one
    batch and interleaves them with the kept nodes; each level takes every
    segment's sum.  The nodes and previous sum of a segment are dropped when
    it converges.
    """
    def failure(message, s):  # the error of live segment s, naming it
        seg = live[s]
        where = f"k={tuple(map(float, ka[seg]))} -> {tuple(map(float, kb[seg]))}"
        return NoConvergenceError(f"{message} on {where}").at(seg)

    values = np.empty(len(ka))
    tangents = np.empty((len(ka), 2, 6))
    span = kb - ka
    live = np.arange(len(ka))  # the segments not yet converged
    prev = None  # per live segment, its previous sum
    m = 4
    while len(live):
        if m > _MAX_POINTS:
            raise failure("one-form integral did not converge under refinement", 0)
        if m > 8:
            ks = ka[live, None] + _cc_level(m)[0][1::2, None] * span[live, None]
            try:
                u, q, _ = _eval_rows(family, ks.reshape(-1, 2))
            except RaySpaceError as exc:
                raise exc.at(live[exc.row // ks.shape[1]])
            grown = np.empty((len(live), m + 1, 6))
            grown[:, 0::2] = lines
            grown[:, 1::2, :3], grown[:, 1::2, 3:] = u.reshape(len(live), -1, 3), q.reshape(len(live), -1, 3)
            lines = grown
        every = 2 if m == 4 else 1  # level 4's nodes are level 8's even ones
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite sum raises below
            val = _cc_sums(lines[:, ::every, :3], lines[:, ::every, 3:])
        bad = _first(~np.isfinite(val))
        if bad is not None:
            raise failure(f"one-form sum over {m} pieces is not finite", bad)
        if prev is not None:
            done = abs(val - prev) <= tol
            values[live[done]] = val[done]
            ends, kept = _cc_level(m)[3], lines[done]
            with np.errstate(invalid="ignore", over="ignore"):  # a non-finite tangent fails its test
                tangents[live[done]] = ends @ (kept - kept[:, :1])
            going = ~done
            live, val, lines = live[going], val[going], lines[going]
        prev = val
        m *= 2
    return values, tangents


def _eval_rows(family: RayFamily, ks):
    """Directions and foot points (N, 3) of the lines at the rows of ks, and
    their l (N,), None unless every call's lines carry it, from calls of at
    most _CHUNK rows; an error's row is its row in ks."""
    u, q, length = np.empty((len(ks), 3)), np.empty((len(ks), 3)), np.empty(len(ks))
    for rows, line in _eval_chunks(family, ks):
        u[rows], q[rows] = line.u, line.q
        l = getattr(line, "length", None)
        if l is None:
            length = None
        elif length is not None:
            length[rows] = l
    return u, q, length


def _eval_chunks(family: RayFamily, ks):
    """(rows, lines) of the slices of ks that `eval` takes in turn, in calls
    of at most _CHUNK rows; an error's row is its row in ks."""
    for a in range(0, len(ks), _CHUNK):
        rows = slice(a, a + _CHUNK)
        try:
            line = family.eval(*ks[rows].T)
        except RaySpaceError as exc:
            exc.row += a
            raise
        yield rows, line


def _nodes(k1, k2) -> np.ndarray:
    """The nodes (n1, n2, 2) of the grid k1 x k2."""
    return np.stack(np.meshgrid(k1, k2, indexing="ij"), axis=-1)


def _largest_at(k1, k2, values) -> tuple:
    """k, as floats, of the first node of the grid k1 x k2 where |values| peaks."""
    i, j = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    return float(k1[i]), float(k2[j])


def _grid_lines(family: RayFamily, k1, k2):
    """The nodes (n1, n2, 2) of the grid k1 x k2, their lines' directions
    and foot points (n1, n2, 3) and l (n1, n2), or None for lines with no
    source wavefront, from one batch in (i, j) order."""
    nodes = _nodes(k1, k2)
    u, q, length = _eval_rows(family, nodes.reshape(-1, 2))
    shape = (len(k1), len(k2))
    length = None if length is None else length.reshape(shape)
    return nodes, u.reshape(shape + (3,)), q.reshape(shape + (3,)), length


@dataclass(frozen=True, eq=False)
class Wavefront:
    """An orthogonal surface of a rectangular family, sampled on a grid.

    values[i, j] is the primitive F of u . dP with F = 0 at the base node;
    points[i, j] = P(k) - (F(k) + c) u(k).  u, q and length keep the grid
    lines: direction, foot point P and l, the optical length from the
    family's source wavefront (None for a family with no source wavefront).
    """

    k1: np.ndarray
    k2: np.ndarray
    values: np.ndarray
    points: np.ndarray
    c: float
    base_index: tuple
    path_discrepancy: float
    u: np.ndarray
    q: np.ndarray
    length: np.ndarray | None

    def to_csv(self) -> str:
        nodes = np.concatenate([self.points, self.values[..., None]], axis=2)
        return _grid_csv("k1,k2,qx,qy,qz,F", self.k1, self.k2, nodes)


def _l_paths(horiz, vert, i0: int, j0: int):
    """The primitives (n1, n2) at every node of a grid from the base node
    (i0, j0), summed along its L-paths: along row j0 first, then along the
    node's column, and along column i0 first, then along the node's row.
    horiz[i, j] (n1 - 1, n2) is the integral from node (i, j) to (i + 1, j),
    vert[i, j] (n1, n2 - 1) the one from (i, j) to (i, j + 1)."""
    across = _leg_sums(horiz, i0)  # along k1 from row i0
    along = _leg_sums(vert.T, j0).T  # along k2 from column j0
    return across[:, j0, None] + along, along[i0] + across


def _leg_sums(segments, start: int) -> np.ndarray:
    """The signed sums out[i, k] of segments[:, k] from index start to i,
    (n, K) for segments (n - 1, K): the sum of segments[start:i, k], or minus
    that of segments[i:start, k].

    Each sum is bit for bit np.sum of its 1-D slice: the legs of one length
    are summed along the rows of one C-contiguous copy, which numpy sums
    pairwise row by row as it sums a 1-D array (a strided 2-D view need
    not be).
    """
    n = len(segments) + 1
    out = np.zeros((n, segments.shape[1]))
    for length in range(1, max(start, n - 1 - start) + 1):
        if start + length < n:
            leg = segments[start : start + length]
            out[start + length] = np.ascontiguousarray(leg.T).sum(axis=-1)
        if start >= length:
            leg = segments[start - length : start]
            out[start - length] = -np.ascontiguousarray(leg.T).sum(axis=-1)
    return out


def reconstruct_wavefront(
    family: RayFamily,
    k0,
    c: float = 0.0,
    grid=9,
    h: float | None = None,
    path_tol: float = _PATH_TOL,
) -> Wavefront:
    """Integrate u . dP from k0 and drop the points P - (F + c) u.

    F is accumulated along grid-aligned paths; for every node the row-first
    and column-first L-paths must agree within path_tol, otherwise the family
    is not rectangular and NotRectangularError is raised.  k0 snaps to the
    nearest grid node (F is only defined up to a constant anyway; c selects
    the member of the orthogonal-surface pencil).  The grid is inset from
    the domain edges by h.  Every node must be a regular point of the family
    at its wavefront point (NonRegularError), tested on the node's tangents
    from the one-form levels (_wavefront_levels): no stencil line is
    evaluated.  One batch per job evaluates the lines of the grid and of
    every segment's first two levels.  The stages: that batch, the one-form
    levels, the L-path test, then the regularity test.
    """
    if h is None:
        h = family.default_step()
    return _wavefront_stages(_wavefront_levels(family, grid, h), k0, c, path_tol)


@lru_cache(maxsize=16)
def _grid_segments(n1: int, n2: int):
    """The segments between adjacent nodes of an n1 x n2 grid, along k1
    column by column, then along k2 row by row, read-only: their first and
    last nodes (S,), as indices of the nodes in (i, j) order; the rows
    (S, 9) of their level 8 lines in a batch of the N nodes' lines followed
    by the 7 interior nodes of each segment in turn; and for each node, the
    segment (N, 2) along k1 and along k2 whose derivative it takes and which
    end (N, 2) of it: t = 0 of the segment that starts at the node, or, at
    the last node on a grid line, t = 1 of the one that ends there."""
    index = np.arange(n1 * n2).reshape(n1, n2)
    starts = np.concatenate([index[:-1].T.ravel(), index[:, :-1].ravel()])
    stops = starts + np.repeat([n2, 1], [(n1 - 1) * n2, n1 * (n2 - 1)])
    level8 = np.column_stack([starts, n1 * n2 + np.arange(7 * len(starts)).reshape(-1, 7), stops])
    i, j = np.divmod(index.ravel(), n2)
    cut = (n1 - 1) * n2  # the first segment along k2
    along = np.column_stack([j * (n1 - 1) + np.minimum(i, n1 - 2), cut + i * (n2 - 1) + np.minimum(j, n2 - 2)])
    end = np.column_stack([i == n1 - 1, j == n2 - 1]).astype(np.intp)
    segments = starts, stops, level8, along, end
    for a in segments:
        a.flags.writeable = False
    return segments


def _wavefront_levels(family: RayFamily, grid, h: float):
    """The first two stages of reconstruct_wavefront: its one batch, then
    its one-form levels.  Returns the grid axes k1s, k2s, inset by h, the
    nodes ks (N, 2), the (u, q, l) of the nodes' lines, the integrals (S,)
    of the segments between adjacent nodes (_grid_segments), and the
    tangents du, dq (N, 2, 3) of the nodes, [:, i] along k_(i+1).

    The batch holds the nodes' lines and the 7 interior nodes of level 8 of
    every segment (_level8; its end nodes are grid nodes), and fails with
    `row` naming the node of a grid line or the segment of a level 8 line.
    A node's tangent along an axis is the derivative at the end of a
    segment next to it that _grid_segments names (_one_form_levels), over
    the segment's step in k.  Where an inset of half the domain's span
    makes the nodes of an axis coincide, that step is 0 and the tangents
    are not finite, so no node passes the regularity or immersion test."""
    k1s, k2s = _grid_axes(family, grid, inset=h)
    ks = _nodes(k1s, k2s).reshape(-1, 2)
    starts, stops, level8, along, end = _grid_segments(len(k1s), len(k2s))
    ka, kb = ks[starts], ks[stops]
    n = len(ks)
    try:
        u, q, length = _eval_rows(family, np.concatenate([ks, _level8(ka, kb).reshape(-1, 2)]))
    except RaySpaceError as exc:  # past the nodes' lines, the row names a segment
        if exc.row >= n:
            exc.at((exc.row - n) // 7)
        raise
    seg, ends = _one_form_levels(family, ka, kb, np.concatenate([u, q], axis=1)[level8], _INTEGRAL_TOL)
    with np.errstate(divide="ignore", invalid="ignore"):
        tangents = ends[along, end] / (kb - ka)[along, [0, 1]][..., None]
    lines = u[:n], q[:n], None if length is None else length[:n]
    return k1s, k2s, ks, lines, seg, tangents[..., :3], tangents[..., 3:]


def _wavefront_stages(levels, k0, c: float, path_tol: float) -> Wavefront:
    """reconstruct_wavefront from its batch and one-form levels
    (_wavefront_levels): the L-path test, then the regularity test."""
    k1s, k2s, ks, (u, q, length), seg, du, dq = levels
    k0 = np.asarray(k0, dtype=float)
    i0 = int(np.argmin(np.abs(k1s - k0[0])))
    j0 = int(np.argmin(np.abs(k2s - k0[1])))

    n1, n2 = len(k1s), len(k2s)
    us, qs = u.reshape(n1, n2, 3), q.reshape(n1, n2, 3)
    lengths = None if length is None else length.reshape(n1, n2)
    horiz = seg[: (n1 - 1) * n2].reshape(n2, n1 - 1).T
    vert = seg[(n1 - 1) * n2 :].reshape(n1, n2 - 1)

    f_rc, f_cr = _l_paths(horiz, vert, i0, j0)
    discrepancy = float(np.max(np.abs(f_rc - f_cr)))
    if discrepancy > path_tol:
        k = _largest_at(k1s, k2s, f_rc - f_cr)
        raise NotRectangularError(
            f"path-dependent primitive at k={k}: L-path discrepancy {discrepancy:.3e} > {path_tol:g}"
        )

    values = f_rc
    points = qs - (values + c)[..., None] * us

    det = _spread(u, -(values + c).ravel(), du, dq)
    bad = _first(~(abs(det) > 1e-8))  # a NaN determinant is not regular
    if bad is not None:
        k = tuple(map(float, ks[bad]))
        raise NonRegularError(f"wavefront point at k={k} is not regular").at(bad)

    return Wavefront(
        k1=k1s,
        k2=k2s,
        values=values,
        points=points,
        c=c,
        base_index=(i0, j0),
        path_discrepancy=discrepancy,
        u=us,
        q=qs,
        length=lengths,
    )


def orthogonality_residual(family: RayFamily, wavefront: Wavefront) -> float:
    """max over the grid's edges of |delta (l - F)| / |delta Q|, skipping
    edges whose points coincide: l, the optical length of the family's grid
    lines (kept on the wavefront; no ray is evaluated), changes as F does
    along a wavefront, and delta (l - F) is the integral of u . dQ along the
    surface.  A wavefront whose lines carry no l raises ValueError."""
    if wavefront.length is None:
        raise ValueError(f"{family.kind} family has no source wavefront: its lines carry no length")
    excess = wavefront.length - wavefront.values
    worst = 0.0
    for axis in (0, 1):
        norm = _norm(np.diff(wavefront.points, axis=axis))
        moved = norm > 0.0
        worst = np.fmax.reduce(abs(np.diff(excess, axis=axis))[moved] / norm[moved], initial=worst)
    return float(worst)
