"""Shared harness code: randomized-but-seeded geometry generators and the
closed-form oracles used across the test modules."""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from typing import Callable

import numpy as np

import rayspace as rs
from rayspace.errors import (
    ChartDomainError,
    DegenerateGradientError,
    DomainBoundaryError,
    FamilyTraceError,
    GrazingError,
    IllConditionedFitError,
    ImmersionError,
    NoConvergenceError,
    NoIntersectionError,
    NonRegularError,
    NoRootError,
    NotRectangularError,
    RaySpaceError,
    TangentialError,
    TotalInternalReflectionError,
    TraceError,
)
from rayspace.families import _CHUNK, _grid_axes, _grid_lines, _l_paths, _largest_at
from rayspace.lines import _as_vec3, _frame, _norm
from rayspace.optics import _cursor_past
from rayspace.surfaces import _FLAT_SCAN_SPAN, _ROOT_TOL


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def random_unit(rng):
    while True:
        v = rng.normal(size=3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def line_tangent(curve, h=1e-6):
    """The central-difference tangent (du, dq) at s = 0 of a smooth curve
    s -> OrientedLine, for pairing with lines._omega."""
    plus, minus = curve(h), curve(-h)
    return (plus.u - minus.u) / (2.0 * h), (plus.q - minus.q) / (2.0 * h)


def random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_surface(rng, kind):
    """A bounded-curvature surface of the requested kind near the origin."""
    if kind == "plane":
        return rs.Plane(random_unit(rng), rng.uniform(-1.0, 1.0))
    if kind == "sphere":
        return rs.Sphere(rng.uniform(-0.5, 0.5, 3), rng.uniform(1.0, 3.0))
    if kind == "quadric":
        # random ellipsoid (x-c)^T A (x-c) = 1
        rot = random_rotation(rng)
        axes = rng.uniform(0.8, 2.5, 3)
        mat = rot @ np.diag(1.0 / axes**2) @ rot.T
        center = rng.uniform(-0.4, 0.4, 3)
        linear = -2.0 * mat @ center
        constant = float(center @ mat @ center) - 1.0
        return rs.Quadric(mat, linear, constant)
    if kind == "sinusoid":
        return rs.Sinusoid(rng.uniform(0.05, 0.25), rng.uniform(-1.2, 1.2, 2))
    raise ValueError(kind)


def aimed_line(rng, surface, max_tries=200):
    """A random line whose first hit on `surface` is cleanly transversal."""
    for _ in range(max_tries):
        if isinstance(surface, rs.Sinusoid):
            start = np.array(
                [rng.uniform(-2, 2), rng.uniform(-2, 2), abs(surface.amplitude) + rng.uniform(1, 3)]
            )
            direction = unit([rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8), -1.0])
        else:
            start = 6.0 * random_unit(rng)
            target = rng.uniform(-0.5, 0.5, 3)
            direction = unit(target - start)
        line = rs.line_through(start, direction)
        t0 = float((start - line.q) @ line.u)
        try:
            hit = rs.intersect(line, surface, t_min=t0)
        except (NoIntersectionError, TangentialError):
            continue
        if abs(hit.cos_incidence) > 0.1:
            return line, hit, t0
    raise RuntimeError(f"could not aim at {type(surface).__name__}")


def make_device():
    """The four-interface test device: sphere refraction into glass, a
    sinusoidal mirror, a paraboloidal bowl mirror, plane exit into water."""
    lens = rs.Sphere(center=[0, 0, 0], radius=2.0)
    wavy = rs.Sinusoid(amplitude=0.15, wavevector=[0.9, 0.7])
    bowl = rs.Quadric(
        matrix=np.diag([0.125, 0.125, 0.0]),
        linear=[0, 0, 1],
        constant=-4.0,
        incoming_sign=-1,
    )
    exit_window = rs.Plane(normal=[0, 0, 1], offset=-1.0)
    return rs.OpticalSystem(
        (
            rs.Interface(lens, rs.REFRACT, n_in=1.0, n_out=1.5),
            rs.Interface(wavy, rs.REFLECT, n_in=1.5),
            rs.Interface(bowl, rs.REFLECT, n_in=1.5),
            rs.Interface(exit_window, rs.REFRACT, n_in=1.5, n_out=1.33),
        )
    )


def device_source(domain=((-0.12, 0.12), (-0.12, 0.12))):
    return rs.point_source([0, 0, 5], [0, 0, -1], domain=domain)


def nested_sphere_system(rng, n_interfaces):
    """Concentric-ish sphere shells with random reflect/refract actions.

    Every line from near the origin crosses each shell transversally, and
    refractions always go into a denser medium, so traces never fail.
    """
    interfaces = []
    n_current = 1.0
    for i in range(n_interfaces):
        shell = rs.Sphere(rng.uniform(-0.3, 0.3, 3), 3.0 + 2.0 * i)
        if rng.random() < 0.5:
            interfaces.append(rs.Interface(shell, rs.REFLECT, n_in=n_current))
        else:
            n_next = n_current + rng.uniform(0.2, 0.8)
            interfaces.append(
                rs.Interface(shell, rs.REFRACT, n_in=n_current, n_out=n_next)
            )
            n_current = n_next
    return rs.OpticalSystem(tuple(interfaces))


def ellipsoid_oracle_point(line, focal_sum, focus):
    """Intersection of a ray from the origin with the spheroid
    |X| + |X - focus| = focal_sum, in closed form (apex at the origin)."""
    u = line.u
    t = (focal_sum**2 - float(focus @ focus)) / (2.0 * (focal_sum - float(u @ focus)))
    return line.q + t * u


def paraboloid_oracle_point(line, level, focus):
    """Intersection of a collimated ray with the paraboloid
    (signed offset along u from the foot plane) + |X - focus| = level."""
    w = line.q - focus
    t = (level**2 - float(w @ w)) / (2.0 * (level + float(line.u @ w)))
    return line.point_at(t)


def snell_sine(n1, n2, sin_in):
    return n1 * sin_in / n2


# ---------------------------------------------------------------------------
# one node and one ray at a time: the oracles of the batched routines


def staged_oracle(count, run, stage):
    """A batch of `count` items by the failure rule of `errors`, from its
    items run one at a time: run(i) gives item i's result or raises, and
    stage(i, error) is the stage where item i fails alone, a key that sorts
    as the batched routine orders its stages.  Returns the items' outcomes,
    a result or an error each, and the index of the item whose error the
    batch raises, the least by (stage, index), or None if none fails."""
    singles = []
    for i in range(count):
        try:
            singles.append(run(i))
        except (RaySpaceError, ValueError) as exc:
            singles.append(exc)
    failed = [(stage(i, s), i) for i, s in enumerate(singles) if isinstance(s, Exception)]
    return singles, min(failed)[1] if failed else None


def trace_stage(error):
    """The stage where one ray fails alone, as a key that sorts in the
    order of the stages of a trace: a FamilyTraceError fails in the family
    it transforms, then in its system; a TraceError at its interface, in
    the root search, the hit checks, then the new direction.  () for any
    other error."""
    if isinstance(error, FamilyTraceError):
        return (int(isinstance(error.cause, TraceError)), trace_stage(error.cause))
    if not isinstance(error, TraceError):
        return ()
    cause = error.cause
    if "root search budget" in str(cause):
        step = 0
    elif isinstance(cause, (NoIntersectionError, DegenerateGradientError, TangentialError)):
        step = 1
    else:
        step = 2
    return (error.interface_index, step)


def row_stage(error):
    """The stage of an error of a row_by_row family's eval: one stage,
    whatever fails."""
    return ()


def row_by_row(line_at, domain, kind="custom"):
    """A family whose eval calls line_at(k1, k2) once per parameter pair, in
    order, with Python floats: the row-by-row reference of a batched family.

    eval(k1, k2) of one pair gives line_at's line; of arrays k1, k2 it gives
    the batch of the rows' lines (a TracedLine batch, with their lengths and
    starts, if the rows are TracedLines).  An error of row r is raised with
    `.at(r)`, and no row after it is evaluated.
    """

    def _eval(k1, k2):
        if np.ndim(k1) == np.ndim(k2) == 0:
            return line_at(k1, k2)
        lines = []
        for row, (a, b) in enumerate(zip(*(k.tolist() for k in np.broadcast_arrays(k1, k2)))):
            try:
                lines.append(line_at(a, b))
            except RaySpaceError as exc:
                raise exc.at(row)
        batch = rs.OrientedLine._exact(
            np.array([line.u for line in lines]).reshape(-1, 3),
            np.array([line.q for line in lines]).reshape(-1, 3),
        )
        if lines and isinstance(lines[0], rs.TracedLine):
            lengths = None if lines[0].length is None else np.array([line.length for line in lines])
            batch = rs.TracedLine._of(batch, lengths, np.array([line.start for line in lines]))
        return batch

    return rs.RayFamily(_eval, domain, kind=kind)


def flat_for_negative_k1(family):
    """The family with k2 frozen at 0 where k1 < 0: not an immersion there."""

    def _eval(k1, k2):
        return family.eval(k1, np.where(np.asarray(k1) < 0.0, 0.0, k2)[()])

    return dataclasses.replace(family, eval=_eval)


def plain(family):
    """The family evaluated row by row (row_by_row on its own eval), as plain
    OrientedLines: its rays start at their foot points, and carry no l."""

    def line_at(k1, k2):
        line = family.eval(k1, k2)
        return rs.OrientedLine._exact(line.u, line.q)

    return row_by_row(line_at, family.domain)


# ---------------------------------------------------------------------------
# ray families as they were before each eval carried its starts and lengths:
# two callables, the lines and their anchors


@dataclass(frozen=True)
class AnchoredFamily:
    """A ray family given by separate callables: `eval` gives its lines,
    plain or TracedLines, and `anchor`, when set, the points where their
    rays start (None means the foot points).  A family anchored on its
    source wavefront has l = (q - anchor) . u."""

    eval: Callable
    domain: tuple
    kind: str = "custom"
    anchor: Callable | None = None

    def start_point(self, k1, k2):
        if self.anchor is None:
            return self.eval(k1, k2).q
        return self.anchor(k1, k2)

    def traced(self, k1, k2):
        """The lines at (k1, k2) as one TracedLine: u and q of `eval`, the
        start of `start_point`, and l carried by a TracedLine, else read off
        the anchors, else None."""
        line, start = self.eval(k1, k2), self.start_point(k1, k2)
        if isinstance(line, rs.TracedLine):
            length = line.length
        elif self.anchor is None:
            length = None
        else:
            length = np.vecdot(line.q - start, line.u)
        return rs.TracedLine._of(line, length, start)


def transform_family_oracle(family, system):
    """transform_family of an AnchoredFamily: the anchor traces the system
    again, and each kind of source line has its own length branch."""

    def _trace(k1, k2):
        try:
            base = family.eval(k1, k2)
            start = family.start_point(k1, k2)
            result = rs.propagate_system(base, system, start=start)
        except RaySpaceError as exc:
            ks = np.column_stack(np.broadcast_arrays(k1, k2))  # one pair is the batch of one
            raise FamilyTraceError(ks[exc.row], exc) from exc
        return base, start, result, result.hits[-1].point if result.hits else start

    def _eval(k1, k2):
        base, start, result, last = _trace(k1, k2)
        out, length = result.line_out, None
        if isinstance(base, rs.TracedLine):
            if base.length is not None:
                carried = base.length + np.vecdot(start - base.q, base.u)
                length = system.ambient_index * carried + result.optical_length
        elif family.anchor is not None:  # the start point is on the source wavefront
            length = result.optical_length
        if length is not None:
            length = length / system.exit_index + np.vecdot(out.q - last, out.u)
        return rs.TracedLine._of(out, length, None)

    return AnchoredFamily(
        _eval,
        family.domain,
        kind=f"transformed({family.kind})",
        anchor=lambda k1, k2: _trace(k1, k2)[3],
    )


# the builders as each spelled out its own family, and normal_congruence as
# one branch per surface kind: the oracles of the builders' lines and anchors


def _col(k):
    return np.asarray(k, dtype=float)[..., None]


def point_source_oracle(apex, axis, domain=((-0.3, 0.3), (-0.3, 0.3))):
    apex = _as_vec3(apex)
    a, e1, e2 = _frame(axis)

    def _eval(k1, k2):
        return rs.line_through(apex, a + _col(k1) * e1 + _col(k2) * e2)

    return AnchoredFamily(
        _eval,
        tuple(map(tuple, domain)),
        kind="point_source",
        anchor=lambda k1, k2: np.broadcast_to(apex, np.shape(k1) + (3,)).copy(),
    )


def collimated_oracle(direction, origin=(0.0, 0.0, 0.0), domain=((-0.5, 0.5), (-0.5, 0.5))):
    origin = _as_vec3(origin)
    a, e1, e2 = _frame(direction)

    def _anchor(k1, k2):
        return origin + _col(k1) * e1 + _col(k2) * e2

    return AnchoredFamily(
        lambda k1, k2: rs.line_through(_anchor(k1, k2), a),
        tuple(map(tuple, domain)),
        kind="collimated",
        anchor=_anchor,
    )


def two_skew_lines_oracle(point1, dir1, point2, dir2, domain=((-0.25, 0.25), (-0.25, 0.25))):
    p1, p2 = _as_vec3(point1), _as_vec3(point2)
    d1, d2 = _as_vec3(dir1), _as_vec3(dir2)
    d1 = d1 / np.linalg.norm(d1)
    d2 = d2 / np.linalg.norm(d2)

    def _eval(k1, k2):
        a = p1 + _col(k1) * d1
        b = p2 + _col(k2) * d2
        return rs.line_through(a, b - a)

    return AnchoredFamily(
        _eval,
        tuple(map(tuple, domain)),
        kind="two_skew_lines",
        anchor=lambda k1, k2: p1 + _col(k1) * d1,
    )


def normal_congruence_oracle(surface, domain, axis=(0.0, 0.0, 1.0), outward=True):
    sgn = 1.0 if outward else -1.0
    if isinstance(surface, rs.Sphere):
        a, e1, e2 = _frame(axis)
        center, radius = surface.center, surface.radius

        def _radial(k1, k2):
            s = a + _col(k1) * e1 + _col(k2) * e2
            return s / _norm(s)[..., None]

        def _eval(k1, k2):
            s = _radial(k1, k2)
            return rs.line_through(center + radius * s, sgn * s)

        return AnchoredFamily(
            _eval,
            tuple(map(tuple, domain)),
            kind="normal_congruence",
            anchor=lambda k1, k2: center + radius * _radial(k1, k2),
        )
    if isinstance(surface, rs.Sinusoid):
        amp, w = surface.amplitude, surface.wavevector

        def _anchor(k1, k2):
            k1, k2 = np.broadcast_arrays(k1, k2)
            return np.stack([k1, k2, amp * np.sin(w[0] * k1 + w[1] * k2)], axis=-1)

        def _eval(k1, k2):
            k1, k2 = np.broadcast_arrays(k1, k2)
            c = amp * np.cos(w[0] * k1 + w[1] * k2)
            n = np.stack([-c * w[0], -c * w[1], np.ones_like(c)], axis=-1)
            return rs.line_through(_anchor(k1, k2), sgn * n)

        return AnchoredFamily(
            _eval,
            tuple(map(tuple, domain)),
            kind="normal_congruence",
            anchor=_anchor,
        )
    if isinstance(surface, rs.Plane):
        n = surface.normal if outward else -surface.normal
        return collimated_oracle(n, surface.offset * surface.normal, domain)
    raise ValueError(f"normal congruence not supported for {type(surface).__name__}")


def node_neighbors(family, k, h, eval_stage=trace_stage):
    """The lines at k +- h along each parameter, one evaluation each, in the
    order +k1, -k1, +k2, -k2; if some fail, the error of the first by
    (eval_stage, order) (staged_oracle)."""
    k1, k2 = float(k[0]), float(k[1])
    ks = ((k1 + h, k2), (k1 - h, k2), (k1, k2 + h), (k1, k2 - h))
    lines, first = staged_oracle(4, lambda i: family.eval(*ks[i]), lambda i, error: eval_stage(error))
    if first is not None:
        raise lines[first]
    return tuple(lines)


def stencil_defect(neighbors, h):
    """Central-difference defect from the four lines of node_neighbors."""
    p1, m1, p2, m2 = neighbors
    du1 = (p1.u - m1.u) / (2.0 * h)
    dq1 = (p1.q - m1.q) / (2.0 * h)
    du2 = (p2.u - m2.u) / (2.0 * h)
    dq2 = (p2.q - m2.q) / (2.0 * h)
    return float(dq1 @ du2 - dq2 @ du1)


def immersion_ok(neighbors, h):
    """Rank-2 test of the chart Jacobian of the four neighbours, in the chart
    of the first (any chart that holds all four gives the same rank)."""
    p1, m1, p2, m2 = neighbors
    chart = rs.chart_for(p1.u)
    col1 = (rs.chart_coords(p1, chart)[0] - rs.chart_coords(m1, chart)[0]) / (2.0 * h)
    col2 = (rs.chart_coords(p2, chart)[0] - rs.chart_coords(m2, chart)[0]) / (2.0 * h)
    svals = np.linalg.svd(np.stack([col1, col2], axis=1), compute_uv=False)
    return svals[0] > 0.0 and (svals[-1] / svals[0]) > 1e-8


def svd_immersion_ratio(du, dq):
    """families._immersion_ratio by one stacked SVD of the 2x6 matrices
    [du | dq] of the tangents (N, 2, 3): s_min / s_max, 0 where s_max is 0."""
    svals = np.linalg.svd(np.concatenate([du, dq], axis=-1), compute_uv=False)
    top = svals[:, 0]
    return np.where(top > 0.0, svals[:, -1] / np.where(top > 0.0, top, 1.0), 0.0)


def svd_immersed(du, dq):
    """The immersion test of a defect grid by the stacked SVD: rank 2 where
    the singular values are in a ratio above 1e-8."""
    return svd_immersion_ratio(du, dq) > 1e-8


def nearest_point_spread(u0, anchor, us, qs, h):
    """The determinant of is_regular_point's map by central differences of
    nearest points: the lines (..., 4, 3) at +k1, -k1, +k2, -k2 are sliced
    by the plane through the anchors (..., 3) orthogonal to the centre
    directions u0 (..., 3), each at its point nearest the anchor, whose
    in-plane coordinates are differenced."""
    _, w1, w2 = _frame(u0)
    rel = anchor[..., None, :] - qs
    d = qs + np.vecdot(rel, us)[..., None] * us - anchor[..., None, :]
    coords = np.stack([np.vecdot(d, w1[..., None, :]), np.vecdot(d, w2[..., None, :])], axis=-1)
    col1 = (coords[..., 0, :] - coords[..., 1, :]) / (2.0 * h)
    col2 = (coords[..., 2, :] - coords[..., 3, :]) / (2.0 * h)
    return col1[..., 0] * col2[..., 1] - col1[..., 1] * col2[..., 0]


def chart_jacobian_oracle(transform, line, h=None, chart_in=None, chart_out=None):
    """chart_jacobian column by column: transform maps one line at a time,
    first `line`, then x0 + h e_j and x0 - h e_j for each j."""
    if chart_in is None:
        chart_in = rs.chart_for(line.u)
    image = transform(line)
    if chart_out is None:
        chart_out = rs.chart_for(image.u)
    x0, _ = rs.chart_coords(line, chart_in)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(line.q)))
    jac = np.empty((4, 4))
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        plus, _ = rs.chart_coords(transform(rs.line_from_coords(x0 + step, chart_in)), chart_out)
        minus, _ = rs.chart_coords(transform(rs.line_from_coords(x0 - step, chart_in)), chart_out)
        jac[:, j] = (plus - minus) / (2.0 * h)
    return jac, chart_in, chart_out


def check_symplectic_oracle(family, system, ks, step):
    """The chart Jacobians and worst residuals of `check-symplectic`,
    sample by sample: the sampled lines, then interface by interface a
    nine-row chart_jacobian call per sample, and the failure rule of
    `errors` over the samples (staged_oracle, check_symplectic_stage); the
    Jacobian comes from chart_jacobian_oracle, whose first line places the
    next start.  Returns (one (N, 4, 4) stack per interface, the (chart_in,
    chart_out) of each sample per interface, each interface's worst
    residual, Python's max in sample order), or raises what the batch
    raises."""
    interfaces = system.interfaces
    scales = [itf.n_in / itf.n_after for itf in interfaces]
    samples = [(float(k1), float(k2)) for k1, k2 in ks]
    lines = [family.eval(*k) for k in samples]
    starts = [family.start_point(*k) for k in samples]
    jacobians = [[] for _ in interfaces]
    charts = [[] for _ in interfaces]
    worst = [0.0] * len(interfaces)
    for i, itf in enumerate(interfaces):
        single = rs.OpticalSystem((itf,), ambient_index=itf.n_in)
        traced = []

        def mapper(l, s):
            on_l = l.q + np.vecdot(starts[s] - l.q, l.u)[..., None] * l.u
            traced.append(rs.propagate_system(l, single, start=on_l))
            return traced[-1].line_out

        def run(s):
            traced.clear()
            try:
                return rs.chart_jacobian(lambda l: mapper(l, s), lines[s], h=step)
            except RaySpaceError as exc:
                if traced:  # the output charts fail as they are
                    raise
                cause = exc.cause if isinstance(exc, TraceError) else exc  # the map's or a stencil line's
                raise FamilyTraceError(samples[s], TraceError(i, cause)) from exc

        outcomes, first = staged_oracle(len(samples), run, lambda s, error: check_symplectic_stage(error))
        if first is not None:
            raise outcomes[first].at(first)
        for s in range(len(samples)):
            traced.clear()
            jac, chart_in, chart_out = chart_jacobian_oracle(lambda l: mapper(l, s), lines[s], h=step)
            jacobians[i].append(jac)
            charts[i].append((chart_in, chart_out))
            worst[i] = max(worst[i], rs.symplectic_residual(jac, scale=scales[i]))
            result = traced[0]  # the sampled line alone
            lines[s] = result.line_out
            starts[s] = lines[s].point_at(_cursor_past(lines[s], result.hits[0].point))
    return [np.array(stack).reshape(-1, 4, 4) for stack in jacobians], charts, worst


def check_symplectic_stage(error):
    """The stage of chart_jacobian where one sample fails an interface of
    `check-symplectic` alone: its stencil lines, the map (trace_stage
    orders its errors), then the output charts, whose errors are not
    wrapped."""
    if not isinstance(error, FamilyTraceError):
        return (3, ())
    cause = error.cause.cause
    if isinstance(cause, ChartDomainError):
        return (1, ())
    return (2, trace_stage(error.cause))


def grid_csv_oracle(header, k1, k2, nodes):
    """families._grid_csv value by value: one format(float(x), ".17g") call
    per field."""
    rows = [header + "\n"]
    for i, a in enumerate(k1):
        for j, b in enumerate(k2):
            rows.append(",".join(format(float(x), ".17g") for x in (a, b, *nodes[i, j])) + "\n")
    return "".join(rows)


def l_paths_oracle(horiz, vert, i0, j0):
    """families._l_paths node by node: each leg one scalar np.sum of its
    1-D slice, row leg plus column leg as Python floats."""

    def cum(segments, start, stop):
        # signed sum of consecutive segments from index start to stop
        if stop >= start:
            return float(np.sum(segments[start:stop]))
        return -float(np.sum(segments[stop:start]))

    n1, n2 = vert.shape[0], horiz.shape[1]
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
    return f_rc, f_cr


def naive_orthogonality_residual(family, wavefront):
    """Reference for orthogonality_residual: the optical length l node by
    node, one evaluation at a time, then |delta (l - F)| / |delta Q| edge by
    edge over the grid, skipping edges whose points coincide."""
    n1, n2 = wavefront.values.shape
    excess = np.empty((n1, n2))
    for i, k1 in enumerate(wavefront.k1):
        for j, k2 in enumerate(wavefront.k2):
            excess[i, j] = family.eval(k1, k2).length - wavefront.values[i, j]
    worst = 0.0
    for i in range(n1):
        for j in range(n2):
            for a, b in ((i + 1, j), (i, j + 1)):
                if a < n1 and b < n2:
                    norm = float(np.linalg.norm(wavefront.points[a, b] - wavefront.points[i, j]))
                    if norm > 0.0:
                        worst = max(worst, abs(excess[a, b] - excess[i, j]) / norm)
    return worst


def naive_one_form(family, ka, kb, tol, max_points=4096):
    """Romberg reference for the values of one_form_integral, a rule
    independent of its Clenshaw-Curtis quadrature: returns the value, the
    subdivision it stopped at and the Romberg column that stopped it.  Each
    level re-evaluates all its nodes, in one call.

    Level j sums the trapezoids of m = 4 * 2**j pieces into R[j][0] and
    raises NoConvergenceError if that sum is not finite; it extrapolates
    R[j][c] = R[j][c-1] + (R[j][c-1] - R[j-1][c-1]) / (4**c - 1) for
    c = 1 .. min(j, 2) and stops when R[j][c] - R[j-1][c] is within tol for
    c = min(j - 1, 2), the highest column of both rows.
    """
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    prev = None
    m = 4
    while m <= max_points:
        ks = ka + np.linspace(0.0, 1.0, m + 1)[:, None] * (kb - ka)
        lines = family.eval(*ks.T)
        us, qs = lines.u, lines.q
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives a NaN sum
            row = [0.5 * float(np.sum((us[:-1] + us[1:]) * (qs[1:] - qs[:-1])))]
        if not np.isfinite(row[0]):
            raise NoConvergenceError(f"one-form sum over {m} pieces is not finite")
        if prev is not None:
            for c in range(1, min(len(prev) + 1, 3)):
                row.append(row[c - 1] + (row[c - 1] - prev[c - 1]) / (4**c - 1))
            c = len(prev) - 1
            if abs(row[c] - prev[c]) <= tol:
                return row[c], m, c
        prev = row
        m *= 2
    raise NoConvergenceError("reference did not converge")


def clenshaw_curtis_oracle(m):
    """Level m of the nested Chebyshev-Lobatto rule on [0, 1], entry by
    entry: the nodes t_j = (1 - cos(pi j / m)) / 2, the Clenshaw-Curtis
    weights w_j (Trefethen's clencurt for even m, halved for [0, 1]), and
    G = diag(w) D with D the differentiation matrix of the nodes:
    D_ij = (b_j / b_i) / (t_i - t_j) for i != j, b_j = (-1)^j halved at
    both ends, and D_ii minus the sum of the rest of row i."""
    j = np.arange(m + 1)
    t = (1.0 - np.cos(np.pi * j / m)) / 2.0
    w = np.empty(m + 1)
    w[0] = w[m] = 0.5 / (m * m - 1)
    sums = np.ones(m - 1)
    for k in range(1, m // 2):
        angle = np.pi * ((2 * k * j[1:-1]) % (2 * m)) / m
        sums = sums - 2.0 * np.cos(angle) / (4 * k * k - 1)
    sums = sums - np.cos(np.pi * j[1:-1]) / (m * m - 1)
    w[1:-1] = sums / m
    b = np.array([0.5] + [(-1.0) ** i for i in range(1, m)] + [0.5])
    g = np.zeros((m + 1, m + 1))
    for row in range(m + 1):
        for col in range(m + 1):
            if col != row:
                g[row, col] = (w[row] / b[row]) * b[col] / (t[row] - t[col])
        g[row, row] = -np.sum(g[row])
    return t, w, g


def naive_cc_one_form(family, ka, kb, tol, max_points=512):
    """Reference nested Clenshaw-Curtis integral that re-evaluates every
    node of every level one at a time; returns the value and the level m it
    stopped at.

    Level m evaluates the lines at ka + t_j (kb - ka), with ka and kb
    themselves at j = 0 and m, and sums w_j u_j . q'_j with q' = D (q - q_0)
    (see clenshaw_curtis_oracle); a sum that is not finite raises
    NoConvergenceError, and so does a segment still refining past
    max_points, both naming the segment.  It stops at the first level within
    tol of the previous one.
    """
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    where = f"on k={tuple(map(float, ka))} -> {tuple(map(float, kb))}"
    prev = None
    m = 4
    while m <= max_points:
        t, _, g = clenshaw_curtis_oracle(m)
        ks = [ka] + [ka + tj * (kb - ka) for tj in t[1:-1]] + [kb]
        lines = [family.eval(*k) for k in ks]
        us = np.array([np.ravel(line.u) for line in lines])
        qs = np.array([np.ravel(line.q) for line in lines])
        with np.errstate(invalid="ignore", over="ignore"):  # inf - inf gives a NaN sum
            value = float(np.dot(us.ravel(), (g @ (qs - qs[0])).ravel()))
        if not np.isfinite(value):
            raise NoConvergenceError(f"one-form sum over {m} pieces is not finite {where}")
        if prev is not None and abs(value - prev) <= tol:
            return value, m
        prev = value
        m *= 2
    raise NoConvergenceError(f"one-form integral did not converge under refinement {where}")


def segment_oracle(family, ka, kb, tol, eval_stage=trace_stage):
    """one_form_integral of the segments ka[s] -> kb[s] by the failure rule
    of `errors` (staged_oracle), each segment alone: the stages are one
    evaluation of level 8's nodes, the sum of level 4, the sum of level 8,
    then each level m = 16, 32, ..., evaluating its new nodes, then testing
    its sum.  eval_stage orders the errors of one evaluation, and a sum's
    stage follows the evaluation before it, level by level; a segment past
    the budget fails at the stage of the level after its last."""
    calls = {}

    def run(s):
        def counting(k1, k2):
            calls[s] += 1
            return family.eval(k1, k2)

        calls[s] = 0
        return rs.one_form_integral(dataclasses.replace(family, eval=counting), ka[s], kb[s], tol=tol)

    def stage(s, error):
        if isinstance(error, NoConvergenceError):
            if "did not converge" in str(error):
                return (calls[s] + 1, -1, ())
            # levels 4 and 8 both follow the first evaluation
            return (calls[s], 1, int(re.search(r"over (\d+) pieces", str(error))[1]))
        return (calls[s], 0, eval_stage(error))

    return staged_oracle(len(ka), run, stage)


def regular_oracle(family, k, t, h=None):
    """is_regular_point of the points (k[i], t[i]) by the failure rule of
    `errors` (staged_oracle), each point alone: the stages are the domain
    test, the centre lines, then the stencil lines, whose errors name
    another k than the point's; trace_stage orders the errors of each."""

    def stage(i, error):
        if isinstance(error, DomainBoundaryError):
            return (0, ())
        centre = getattr(error, "k", None) == tuple(map(float, k[i]))
        return (1 if centre else 2, trace_stage(error))

    return staged_oracle(len(k), lambda i: rs.is_regular_point(family, k[i], t[i], h), stage)


def wavefront_segments(k1, k2):
    """The segments (start, end) of reconstruct_wavefront on the grid
    k1 x k2, in its order: along k1 column by column, then along k2 row by
    row."""
    across = [((k1[i], k2[j]), (k1[i + 1], k2[j])) for j in range(len(k2)) for i in range(len(k1) - 1)]
    along = [((k1[i], k2[j]), (k1[i], k2[j + 1])) for i in range(len(k1)) for j in range(len(k2) - 1)]
    return across + along


def wavefront_rows(family, grid, h):
    """The one batch of lines reconstruct_wavefront evaluates first: the
    grid nodes, level 8's interior nodes of every segment
    (clenshaw_curtis_oracle) and the stencil lines of every node, in calls
    of at most _CHUNK rows.  An error's `row` names the node, the segment
    or the node.  Returns the grid axes and the segments' (starts, stops)."""
    k1s, k2s = _grid_axes(family, grid, inset=h)
    ks = np.stack(np.meshgrid(k1s, k2s, indexing="ij"), axis=-1).reshape(-1, 2)
    starts, stops = np.array(wavefront_segments(k1s, k2s)).transpose(1, 0, 2)
    t = clenshaw_curtis_oracle(8)[0][1:-1]
    inner = (starts[:, None] + t[:, None] * (stops - starts)[:, None]).reshape(-1, 2)
    stencil = (ks[:, None] + np.array([[h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])).reshape(-1, 2)
    rows = np.concatenate([ks, inner, stencil])
    parts = ((0, 1), (len(ks), 7), (len(ks) + len(inner), 4))  # each part's first row, rows per item
    for a in range(0, len(rows), _CHUNK):
        try:
            family.eval(*rows[a : a + _CHUNK].T)
        except RaySpaceError as exc:
            row = a + exc.row
            first, per = [part for part in parts if part[0] <= row][-1]
            raise exc.at((row - first) // per)
    return k1s, k2s, (starts, stops)


def staged_wavefront(family, k0, c=0.0, grid=9, h=None, path_tol=1e-7):
    """reconstruct_wavefront stage by stage, one call each: the batch of
    wavefront_rows, the grid lines (_grid_lines), the integrals of all
    segments (one_form_integral, which evaluates their ends and first
    levels again), the L-paths (_l_paths) and the regularity of all nodes
    (is_regular_point).  The job fails at its first failing stage."""
    if h is None:
        h = family.default_step()
    k1s, k2s, (starts, stops) = wavefront_rows(family, grid, h)
    i0 = int(np.argmin(np.abs(k1s - k0[0])))
    j0 = int(np.argmin(np.abs(k2s - k0[1])))
    n1, n2 = len(k1s), len(k2s)
    nodes, us, qs, lengths = _grid_lines(family, k1s, k2s)
    seg = rs.one_form_integral(family, starts, stops)
    horiz = seg[: (n1 - 1) * n2].reshape(n2, n1 - 1).T
    vert = seg[(n1 - 1) * n2 :].reshape(n1, n2 - 1)
    f_rc, f_cr = _l_paths(horiz, vert, i0, j0)
    discrepancy = float(np.max(np.abs(f_rc - f_cr)))
    if discrepancy > path_tol:
        k = _largest_at(k1s, k2s, f_rc - f_cr)
        raise NotRectangularError(
            f"path-dependent primitive at k={k}: L-path discrepancy {discrepancy:.3e} > {path_tol:g}"
        )
    points = qs - (f_rc + c)[..., None] * us
    ks, t = nodes.reshape(-1, 2), -(f_rc + c).ravel()
    regular = rs.is_regular_point(family, ks, t, h)
    if not np.all(regular):
        bad = int(np.argmin(regular))
        raise NonRegularError(f"wavefront point at k={tuple(map(float, ks[bad]))} is not regular").at(bad)
    return rs.Wavefront(
        k1=k1s,
        k2=k2s,
        values=f_rc,
        points=points,
        c=c,
        base_index=(i0, j0),
        path_discrepancy=discrepancy,
        u=us,
        q=qs,
        length=lengths,
    )


def node_defect_grid(family, grid=9, h=None, eval_stage=trace_stage):
    """defect_grid node by node in (i, j) order, by the failure rule of
    `errors` (staged_oracle): each node alone evaluates its stencil lines
    (node_neighbors), then takes its immersion test and its defect.  The
    stages: the stencil lines, whose errors eval_stage orders, then the
    immersion tests.  Returns the values, or raises the batch's error with
    its node as `row`."""
    if h is None:
        h = family.default_step()
    k1s, k2s = _grid_axes(family, grid, inset=h)
    nodes = [(float(k1), float(k2)) for k1 in k1s for k2 in k2s]

    def run(i):
        neigh = node_neighbors(family, nodes[i], h, eval_stage)
        if not immersion_ok(neigh, h):
            raise ImmersionError(f"family is not an immersion at k={nodes[i]}")
        return stencil_defect(neigh, h)

    def stage(i, error):
        return (1, ()) if isinstance(error, ImmersionError) else (0, eval_stage(error))

    values, first = staged_oracle(len(nodes), run, stage)
    if first is not None:
        raise values[first].at(first)
    return np.array(values).reshape(len(k1s), len(k2s))


def newton_bisect(g, dg, lo, hi, glo, ghi):
    """Root of g inside one sign-changing bracket; Newton with bisection
    fallback, to _ROOT_TOL: the scalar form of surfaces._newton_bisect."""
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
        if abs(t_new - t) <= _ROOT_TOL:
            return t_new
        t = t_new
    return t


def sinusoid_first_root(surface, u, q, t_min, t_max):
    """The first root beyond t_min of one ray against a Sinusoid, or NaN:
    dense bracketing plus Newton along the ray q + t u, one ray at a time,
    each bracketed root polished by two Newton steps that stay inside its
    bracket."""
    amp = surface.amplitude
    w = surface.wavevector
    uz = float(u[2])
    qz = float(q[2])
    om = float(w @ u[:2])
    phi0 = float(w @ q[:2])

    def g(t):
        return qz + t * uz - amp * np.sin(phi0 + om * t)

    def dg(t):
        return uz - amp * om * np.cos(phi0 + om * t)

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
            return np.nan
        window_lo = t_min
        window_hi = min(t_max, t_min + _FLAT_SCAN_SPAN)
    if window_hi <= window_lo:
        return np.nan

    step = (np.pi / 4.0) / max(abs(om), 1e-9)
    step = min(step, max(1.0, abs(amp)))
    count = int(np.ceil((window_hi - window_lo) / step)) + 1
    if count > 10_000_000:
        raise NoIntersectionError("sinusoid root search budget exceeded")
    ts = np.linspace(window_lo, window_hi, count + 1)
    gs = qz + ts * uz - amp * np.sin(phi0 + om * ts)
    zero_hits = np.nonzero(gs == 0.0)[0]
    changes = np.nonzero(np.sign(gs[:-1]) * np.sign(gs[1:]) < 0.0)[0]
    candidates = sorted([(ts[i], "zero") for i in zero_hits] + [(ts[i], i) for i in changes])
    for t_at, tag in candidates:
        if tag == "zero":
            root = t_at
        else:
            i = tag
            root = newton_bisect(g, dg, ts[i], ts[i + 1], gs[i], gs[i + 1])
            for _ in range(2):  # polish the root to round-off
                d = dg(root)
                if d == 0.0:
                    break
                step = root - g(root) / d
                if not (ts[i] < step < ts[i + 1]):
                    break
                root = step
        if root > t_min:
            return root
    return np.nan


# ---------------------------------------------------------------------------
# one path configuration at a time: the oracles of the batched Newton solve


def path_length(pc):
    """optical_length summed segment by segment along pc.polyline()."""
    pts = pc.polyline()
    media = pc.system.media()
    total = 0.0
    for i in range(len(pts) - 1):
        total += media[i] * float(np.linalg.norm(pts[i + 1] - pts[i]))
    return total


def path_gradient(pc):
    """Analytic gradient of the optical length in the stacked chart
    coordinates of one configuration, interface by interface."""
    pts = pc.polyline()
    media = pc.system.media()
    parts = []
    for i, (chart, xi) in enumerate(zip(pc.charts, pc.coords)):
        u_in = pts[i + 1] - pts[i]
        u_in /= np.linalg.norm(u_in)
        u_out = pts[i + 2] - pts[i + 1]
        u_out /= np.linalg.norm(u_out)
        grad_point = media[i] * u_in - media[i + 1] * u_out
        parts.append(chart.jacobian(xi).T @ grad_point)
    return np.concatenate(parts) if parts else np.zeros(0)


def polylines_oracle(pc, xs, jacobians=False):
    """variational._polylines evaluating one chart at a time, in system
    order, with the Jacobians as a list of each chart's (N, 3, 2) ones.
    The stages: the charts, all of them one stage, then the coincidence
    check; of the charts' errors, the lowest row's, and of its charts the
    first's, is raised, its message prefixed with the chart's interface."""
    paths = np.empty((len(xs), len(pc.charts) + 2, 3))
    paths[:, 0] = pc.m1
    paths[:, -1] = pc.m2
    jacs = []
    failures = []
    for i, chart in enumerate(pc.charts):
        xi = xs[:, 2 * i : 2 * i + 2]
        try:
            if jacobians:
                paths[:, i + 1], jac = chart.evaluate(xi)
                jacs.append(jac)
            else:
                paths[:, i + 1] = chart.embed(xi)
        except RaySpaceError as exc:
            failures.append((exc.row, i, exc))
    if failures:
        _, i, exc = min(failures, key=lambda failure: failure[:2])
        exc.args = (f"interface {i}: {exc}",)
        raise exc
    segments = paths[:, 1:] - paths[:, :-1]
    lengths = _norm(segments)
    bad = np.flatnonzero(np.any(lengths < 1e-9, axis=1))
    if len(bad):
        err = ValueError("consecutive path points coincide")
        err.row = int(bad[0])
        raise err
    return paths, segments, lengths, jacs if jacobians else None


def gradients_oracle(pc, xs):
    """variational._gradients on polylines_oracle, one interface at a time."""
    paths, units, lengths, jacs = polylines_oracle(pc, xs, jacobians=True)
    units /= lengths[..., None]
    media = pc.system.media()
    parts = [np.zeros((len(xs), 0))]
    for i, jac in enumerate(jacs):
        grad_point = media[i] * units[:, i] - media[i + 1] * units[:, i + 1]
        parts.append((grad_point[:, None, :] @ jac)[:, 0])
    return np.concatenate(parts, axis=1), (paths[0], units[0], lengths[0])


def stationarity_residual_oracle(pc, h=1e-6):
    """max |dV/dxi| by central differences, one configuration per side."""
    x0 = pc.flat()
    worst = 0.0
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        plus = path_length(pc.with_coords(x0 + step))
        minus = path_length(pc.with_coords(x0 - step))
        worst = max(worst, abs(plus - minus) / (2.0 * h))
    return worst


def law_residual_oracle(system, points, units):
    """variational._law_residual interface by interface: one public unit
    gradient and one Interface.bend of a single 3-vector each, raising what
    the first failing interface raises; the list of the residuals."""
    residuals = []
    for i, itf in enumerate(system.interfaces):
        g = itf.surface.gradient(points[i + 1])
        gn = float(np.linalg.norm(g))
        if gn < 1e-10:
            raise DegenerateGradientError("level-function gradient vanishes at the point")
        n = g / gn
        if units[i] @ n > 0.0:
            n = -n
        residuals.append(float(np.max(np.abs(units[i + 1] - itf.bend(units[i], n)))))
    return residuals


def characteristic_function_oracle(
    m1, m2, system, initial=None, grad_tol=1e-10, law_tol=1e-8, max_iter=100
):
    """characteristic_function with one gradient per configuration: the
    Hessian column by column, the line search trial by trial."""
    if initial is None:
        pc = rs.initial_path(m1, m2, system)
    else:
        pc = rs.PathConfiguration(m1, m2, system, initial.coords, initial.charts)
    if not pc.charts:
        return path_length(pc), pc

    x = pc.flat()
    fd_h = 1e-6

    def grad_at(xv):
        return path_gradient(pc.with_coords(xv))

    g = grad_at(x)
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            break
        dim = x.size
        hess = np.empty((dim, dim))
        for j in range(dim):
            step = np.zeros(dim)
            step[j] = fd_h
            hess[:, j] = (grad_at(x + step) - grad_at(x - step)) / (2.0 * fd_h)
        hess = 0.5 * (hess + hess.T)
        lam = 0.0
        while True:
            try:
                delta = np.linalg.solve(hess + lam * np.eye(dim), -g)
                break
            except np.linalg.LinAlgError:
                lam = 10.0 * lam if lam > 0.0 else 1e-8
                if lam > 1e6:
                    raise NoConvergenceError("singular Hessian in Newton iteration")
        alpha = 1.0
        best = None
        while alpha >= 2.0**-20:
            x_try = x + alpha * delta
            try:
                g_try = grad_at(x_try)
            except (ValueError, NoRootError, IllConditionedFitError):
                alpha *= 0.5
                continue
            n_try = float(np.max(np.abs(g_try)))
            if best is None or n_try < best[0]:
                best = (n_try, x_try, g_try)
            if n_try < (1.0 - 1e-4 * alpha) * gnorm or n_try < grad_tol:
                break
            alpha *= 0.5
        if best is None or best[0] >= gnorm:
            raise NoConvergenceError("line search failed to reduce the gradient")
        _, x, g = best
    else:
        raise NoConvergenceError(
            f"Newton did not reach |grad| < {grad_tol:g} in {max_iter} iterations"
        )

    pc = pc.with_coords(x)
    pts = pc.polyline()
    units = [(b - a) / np.linalg.norm(b - a) for a, b in zip(pts[:-1], pts[1:])]
    residuals = law_residual_oracle(system, pts, units)
    worst = int(np.argmax(residuals))
    if residuals[worst] > law_tol:
        raise NoConvergenceError(
            f"interface {worst}: stationary point violates the local laws: residual {residuals[worst]:.3e}"
        )
    return path_length(pc), pc


__all__ = [
    "unit",
    "random_unit",
    "random_rotation",
    "random_surface",
    "aimed_line",
    "make_device",
    "device_source",
    "nested_sphere_system",
    "ellipsoid_oracle_point",
    "paraboloid_oracle_point",
    "snell_sine",
    "node_neighbors",
    "stencil_defect",
    "immersion_ok",
    "svd_immersion_ratio",
    "svd_immersed",
    "flat_for_negative_k1",
    "nearest_point_spread",
    "node_defect_grid",
    "l_paths_oracle",
    "sinusoid_first_root",
    "path_length",
    "path_gradient",
    "polylines_oracle",
    "gradients_oracle",
    "stationarity_residual_oracle",
    "law_residual_oracle",
    "characteristic_function_oracle",
    "GrazingError",
    "TotalInternalReflectionError",
]


# ---------------------------------------------------------------------------
# one grid node at a time: the oracles of the batched mirror design and check


def design_focusing_mirror_oracle(
    family, k0, focus, epsilon, level, grid=9, wavefront_c=0.0, h=None
):
    """design_focusing_mirror solving its level equation node by node: two
    closures per node, a bracket grown by doubling, newton_bisect.

    g and its slope are taken without the cancellation of their two terms,
    so a bracket end where g changes sign is a root beyond round-off, also
    far out on g's asymptote.  The bracket grows to 1 + 2 + ... + 2**28 =
    2**29 - 1 on either side of the wavefront and no further, which is the
    program's reach rule.  The stages: the wavefront's first batch
    (wavefront_rows), the rectangularity test (is_rectangular), the
    wavefront (reconstruct_wavefront), then the level equation."""
    focus = _as_vec3(focus)
    eps = float(epsilon)
    if eps not in (-1.0, 1.0):
        raise ValueError("epsilon must be +1 or -1")

    wavefront_rows(family, grid, family.default_step() if h is None else h)
    ok, defects = rs.is_rectangular(family, grid=grid, h=h)
    if not ok:
        worst, k = -1.0, None  # the first node of the largest |defect|, in (i, j) order
        for i, k1 in enumerate(defects.k1):
            for j, k2 in enumerate(defects.k2):
                if abs(defects.values[i, j]) > worst:
                    worst, k = abs(defects.values[i, j]), (float(k1), float(k2))
        raise NotRectangularError(f"mirror design requires a rectangular family: |defect| {worst:.3e} at k={k}")
    wf = rs.reconstruct_wavefront(family, k0, c=wavefront_c, grid=grid, h=h)

    n1, n2 = len(wf.k1), len(wf.k2)
    _, us, qs, _ = _grid_lines(family, wf.k1, wf.k2)
    points = np.empty((n1, n2, 3))
    for i in range(n1):
        for j in range(n2):
            k = (wf.k1[i], wf.k2[j])
            line = rs.OrientedLine._exact(us[i, j], qs[i, j])
            t_front = -(wf.values[i, j] + wavefront_c)
            along = float(line.u @ (focus - line.q))
            finite_limit = -t_front + along - level
            off = line.q + along * line.u - focus  # focus to its nearest point on the line
            off2 = float(off @ off)

            def g(t):
                # a + eps * b with a = t - t_front - level, b = |X - focus|;
                # where the terms have opposite signs, (a^2 - b^2) / (a - eps * b)
                # with b^2 = off2 + (t - along)^2
                a = t - t_front - level
                b = float(np.linalg.norm(line.point_at(t) - focus))
                if a * eps * b >= 0.0:
                    return a + eps * b
                return (finite_limit * (2.0 * t - t_front - level - along) - off2) / (a - eps * b)

            def dg(t):
                # 1 + eps * s / b with s = u . (X - focus); where the terms
                # have opposite signs, (b^2 - s^2) / (b (b + |s|))
                s = t - along
                b = float(np.linalg.norm(line.point_at(t) - focus))
                if b == 0.0:
                    return 1.0
                if eps * s >= 0.0:
                    return 1.0 + eps * s / b
                return off2 / (b * (b + abs(s)))

            roundoff = 4.0 * np.finfo(float).eps * (1.0 + abs(t_front) + abs(level) + abs(along))
            if abs(finite_limit) <= roundoff:
                raise NoRootError(k)
            if eps > 0.0:
                if finite_limit >= 0.0:
                    raise NoRootError(k)
            else:
                if finite_limit <= 0.0:
                    raise NoRootError(k)

            lo = hi = t_front
            glo = ghi = g(t_front)
            span = 1.0
            while glo > 0.0:
                lo -= span
                glo = g(lo)
                span *= 2.0
                if span > 1e9:
                    raise NoRootError(k)
            span = 1.0
            while ghi < 0.0:
                hi += span
                ghi = g(hi)
                span *= 2.0
                if span > 1e9:
                    raise NoRootError(k)
            root = newton_bisect(g, dg, lo, hi, glo, ghi)
            points[i, j] = line.point_at(root)

    return rs.MirrorDesign(
        k1=wf.k1,
        k2=wf.k2,
        points=points,
        focus=focus,
        epsilon=int(epsilon),
        level=float(level),
        wavefront_c=float(wavefront_c),
    )


def verify_focus_oracle(design, family, tol=1e-6):
    """verify_focus node by node in (i, j) order, by the failure rule of
    `errors` (staged_oracle): one family line, one frame and one lstsq fit
    per interior node, and its reflection.  The stages: the lines, whose
    errors trace_stage orders, the fits, then the reflections.  An error
    names its node as `row`, the node's index among the interior nodes."""
    n1, n2 = design.points.shape[:2]
    if n1 < 3 or n2 < 3:
        raise ValueError("verify_focus needs at least a 3x3 design grid")
    nodes = [(i, j) for i in range(1, n1 - 1) for j in range(1, n2 - 1)]

    def run(node):
        i, j = nodes[node]
        return _node_miss(design, family, i, j, f" at k={(float(design.k1[i]), float(design.k2[j]))}")

    def stage(node, error):
        if isinstance(error, IllConditionedFitError):
            return (1, ())
        return (2, ()) if isinstance(error, GrazingError) else (0, trace_stage(error))

    misses, first = staged_oracle(len(nodes), run, stage)
    if first is not None:
        raise misses[first].at(first)
    worst = max([0.0, *misses])  # Python's max in node order passes over a NaN miss
    return worst < tol, worst


def _node_miss(design, family, i, j, k):
    """The distance from the focus to the ray of node (i, j) reflected off
    the quadric fitted through its 3x3 stencil: the node's line, the fit
    (k ends each fit error), then the reflection."""
    line = family.eval(design.k1[i], design.k2[j])
    x0 = design.points[i, j]
    t1 = design.points[i + 1, j] - design.points[i - 1, j]
    t2 = design.points[i, j + 1] - design.points[i, j - 1]
    w = np.cross(t1, t2)
    wn = float(np.linalg.norm(w))
    if wn < 1e-14:
        raise IllConditionedFitError("degenerate stencil around a mirror node" + k)
    w /= wn
    if float(w @ line.u) > 0.0:
        w = -w
    e1 = t1 - (t1 @ w) * w
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(w, e1)

    stencil = [design.points[i + di, j + dj] - x0 for di in (-1, 0, 1) for dj in (-1, 0, 1)]
    xi = np.array([[d @ e1, d @ e2] for d in stencil])
    zeta = np.array([d @ w for d in stencil])
    scale = float(np.max(np.abs(xi)))
    if scale <= 0.0:
        raise IllConditionedFitError("collapsed stencil around a mirror node" + k)
    xs = xi / scale
    cols = np.stack(
        [np.ones(len(xs)), xs[:, 0], xs[:, 1], xs[:, 0] ** 2, xs[:, 0] * xs[:, 1], xs[:, 1] ** 2],
        axis=1,
    )
    coeff, _, rank, _ = np.linalg.lstsq(cols, zeta, rcond=None)
    if rank < 6:
        raise IllConditionedFitError("rank-deficient quadratic fit" + k)
    normal = w - (coeff[1] / scale) * e1 - (coeff[2] / scale) * e2
    normal /= np.linalg.norm(normal)
    u_refl = rs.reflect_direction(line.u, normal)
    rel = design.focus - x0
    return float(np.linalg.norm(rel - (rel @ u_refl) * u_refl))
