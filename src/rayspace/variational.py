"""Fermat stationarity machinery: optical length of broken paths, the
two-point characteristic function, and level-set design of focusing mirrors.

A broken path runs from an endpoint M1 through one point on each interface
surface to an endpoint M2; surface points are held in the local
two-coordinate chart each surface provides through its `chart` method
(in-plane coordinates for planes, spherical angles for spheres, graph
coordinates for quadrics and sinusoids) so stationarity is unconstrained.
The characteristic function V(M1, M2) is the stationary value of the optical
length; at a stationary configuration the discrete directions satisfy the
local reflection/refraction law at every interface, and conversely a traced
ray is a stationary configuration.  Both directions are enforced and tested.
Each Newton trial point of characteristic_function is one checked gradient
batch (the point, its Hessian stencil, the path check and the analytic
gradient); V and the final law check reuse the unit segments and lengths
of the last batch, so the solve embeds and checks no path a second time,
and the default seed is checked by the first batch alone.  A
PathConfiguration stacks its charts by kind and builds the medium column of
its system once, when it is built, and a solve seeded with a configuration
keeps that configuration's stacks.  What a batch still computes depends on
its rows: one evaluation per chart stack, for the points and Jacobians of
all rows, the segments and their lengths, the coincidence check (one
`any`, and the failing row only when a point coincides), the unit segments
weighted by their media, and the gradient of all interfaces in one stacked
product.
The law check takes the gradients of its surfaces one surface class at a
time.  With M1 = M2 there is no chord, and the default seed takes each
surface's point nearest M1.

Mirror design follows the classical focusing construction: given a
rectangular family with a reconstructed reference wavefront, the mirror is
the level set

    (signed distance from the wavefront along the ray) + eps * |X M2| = C

solved on the rays of all grid nodes at once and in closed form (squared, the
equation is linear in the ray parameter); eps = +1 focuses the rays through M2
in front of the mirror (real focus), eps = -1 makes the reflected rays
diverge from M2 (virtual focus, required when M2 sits beyond the mirror
point on the ray).  verify_focus checks a design with one batch of lines and
one stacked SVD of the quadric fits around all interior nodes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateGradientError,
    IllConditionedFitError,
    NoConvergenceError,
    NoIntersectionError,
    NoRootError,
    NotRectangularError,
    RaySpaceError,
    TangentialError,
)
from .families import RayFamily, _grid_csv, _grid_lines, _largest_at
from .families import _PATH_TOL, _default_tol, _stencil_defects, _wavefront_batch, _wavefront_stages
from .lines import _as_vec3, _cross, _first, _norm, _stencil, line_through
from .optics import REFLECT, OpticalSystem, _bend, reflect_direction
from .surfaces import _GRAD_MIN, _stack_charts, _stacked_gradients, intersect

_FD_H = 1e-6  # central-difference step of the Newton Hessian and of stationarity_residual
_GRAD_TOL = 1e-10  # max |grad| at which the Newton iteration of V stops
_LAW_TOL = 1e-8  # largest local-law residual accepted at a stationary path
_MAX_ITER = 100  # Newton steps of characteristic_function
_MIRROR_REACH = 2.0**29 - 1.0  # farthest mirror root from the wavefront, 1 + 2 + ... + 2**28


@dataclass(frozen=True)
class PathConfiguration:
    """Endpoints, an optical system, and one chart point per interface.

    The charts are stacked by kind once, when the configuration is built,
    and every broken path of it is evaluated one stack at a time."""

    m1: np.ndarray
    m2: np.ndarray
    system: OpticalSystem
    coords: tuple
    charts: tuple

    def __post_init__(self):
        self._convert()
        _polylines(self, self.flat()[None])

    def _convert(self, stacks=None):
        object.__setattr__(self, "m1", _as_vec3(self.m1))
        object.__setattr__(self, "m2", _as_vec3(self.m2))
        object.__setattr__(
            self, "coords", tuple(np.asarray(x, dtype=float).copy() for x in self.coords)
        )
        if len(self.coords) != len(self.system.interfaces):
            raise ValueError("need exactly one chart point per interface")
        object.__setattr__(self, "_stacks", _stack_charts(self.charts) if stacks is None else stacks)
        # the medium of each segment, an (m + 1, 1) column
        object.__setattr__(self, "_media", np.array(self.system.media())[:, None])

    @classmethod
    def _unchecked(cls, m1, m2, system, coords, charts, stacks=None) -> "PathConfiguration":
        """The configuration without the check of its broken path, for a
        caller whose gradient batch checks that path anyway; the interface
        count is still checked.  `stacks` are the charts' stacks, when the
        caller has them."""
        pc = object.__new__(cls)
        pc.__dict__.update(m1=m1, m2=m2, system=system, coords=coords, charts=charts)
        pc._convert(stacks)
        return pc

    def _moved(self, coords) -> "PathConfiguration":
        """This configuration at other chart coordinates, unchecked, its
        chart stacks taken as they are."""
        pc = object.__new__(type(self))
        pc.__dict__.update(self.__dict__, coords=coords)
        return pc

    def points(self):
        return [chart.embed(xi) for chart, xi in zip(self.charts, self.coords)]

    def polyline(self):
        return [self.m1, *self.points(), self.m2]

    def with_coords(self, coords_flat: np.ndarray) -> "PathConfiguration":
        xs = tuple(coords_flat[2 * i : 2 * i + 2] for i in range(len(self.charts)))
        return PathConfiguration(self.m1, self.m2, self.system, xs, self.charts)

    def flat(self) -> np.ndarray:
        return np.concatenate(self.coords) if self.coords else np.zeros(0)


def _charted(system: OpticalSystem, points):
    """The chart coordinates and charts of one 3-space point per interface."""
    charts = tuple(
        itf.surface.chart(reference_point=p) for itf, p in zip(system.interfaces, points)
    )
    coords = tuple(chart.invert(_as_vec3(p)) for chart, p in zip(charts, points))
    return coords, charts


def path_through(m1, m2, system: OpticalSystem, points) -> PathConfiguration:
    """Configuration with surface points given as 3-space points."""
    return PathConfiguration(m1, m2, system, *_charted(system, points))


def _drop_to_surface(x0, surface, index: int):
    """Nearest surface point along the gradient line through x0; a failure
    names the surface as interface `index`."""
    if abs(surface.value(x0)) < 1e-12 * max(1.0, float(np.linalg.norm(x0))):
        return x0
    grad = surface.gradient(x0)
    gn = float(np.linalg.norm(grad))
    if gn < 1e-12:
        raise NoIntersectionError(f"interface {index}: degenerate gradient while seeding a path")
    best = None
    for direction in (grad / gn, -grad / gn):
        probe = line_through(x0, direction)
        t0 = float((x0 - probe.q) @ probe.u)
        try:
            hit = intersect(probe, surface, t_min=t0)
        except (NoIntersectionError, TangentialError):
            continue
        if best is None or hit.t - t0 < best[0]:
            best = (hit.t - t0, hit.point)
    if best is None:
        raise NoIntersectionError(f"interface {index}: no surface point near the chord midpoint")
    return best[1]


def initial_path(m1, m2, system: OpticalSystem) -> PathConfiguration:
    """Default initial guess: chord intersections with each surface, falling
    back to the surface point nearest the chord midpoint when the straight
    chord misses a surface (a heuristic; callers may supply their own).
    When M1 and M2 coincide (closer than 1e-12, line_through's rule), there
    is no chord, and every surface gives its point nearest M1."""
    return PathConfiguration(m1, m2, system, *_seed(m1, m2, system))


def _seed(m1, m2, system: OpticalSystem):
    """The chart coordinates and charts of initial_path, its path unchecked."""
    m1 = _as_vec3(m1)
    m2 = _as_vec3(m2)
    if _norm(m2 - m1) < 1e-12:  # no chord
        itfs = system.interfaces
        return _charted(system, [_drop_to_surface(m1, itf.surface, i) for i, itf in enumerate(itfs)])
    chord = line_through(m1, m2 - m1)
    t_cursor = float((m1 - chord.q) @ chord.u)
    midpoint = 0.5 * (m1 + m2)
    points = []
    for i, itf in enumerate(system.interfaces):
        try:
            hit = intersect(chord, itf.surface, t_min=t_cursor)
            points.append(hit.point)
            t_cursor = hit.t
        except (NoIntersectionError, TangentialError):
            points.append(_drop_to_surface(midpoint, itf.surface, i))
    return _charted(system, points)


def _polylines(pc: PathConfiguration, xs: np.ndarray, jacobians: bool = False):
    """The broken paths of pc's endpoints and charts at a stack of flat
    coordinate rows xs, (N, 2m): their points, (N, m + 2, 3), segment
    vectors, later minus earlier point, (N, m + 1, 3), and segment lengths,
    (N, m + 1), and the charts' (N, m, 3, 2) Jacobians with `jacobians`
    (None without), from one evaluation of each of pc's chart stacks.

    Every row is checked for consecutive points closer than 1e-9, the
    check of every PathConfiguration; its ValueError names the row and the
    row's first such segment, j from point j to point j + 1, as `segment`.
    The stages: the chart stacks, then that check; a row failing in several
    stacks raises the error of its first failing chart, in system order,
    its message prefixed with that chart's interface, `interface <i>: `.
    """
    n, m = xs.shape[0], len(pc.charts)
    paths = np.empty((n, m + 2, 3))
    paths[:, 0] = pc.m1
    paths[:, -1] = pc.m2
    inner = paths[:, 1:-1]
    jacs = np.empty((n, m, 3, 2)) if jacobians else None
    coords = xs.reshape(n, m, 2)
    failures = []
    for stack in pc._stacks:
        try:
            xi = coords[:, stack.index]
            points, jac = stack.kind.evaluate(stack.params, xi, jacobians=jacobians)
        except RaySpaceError as exc:
            row, entry = divmod(exc.row, len(stack.positions))
            failures.append((row, stack.positions[entry], exc))
            continue
        inner[:, stack.index] = points
        if jacobians:
            jacs[:, stack.index] = jac
    if failures:
        row, interface, exc = min(failures, key=lambda failure: failure[:2])
        exc.args = (f"interface {interface}: {exc}",)
        raise exc.at(row)
    segments = paths[:, 1:] - paths[:, :-1]
    lengths = _norm(segments)
    short = lengths < 1e-9
    if short.any():  # the row is located only when a point coincides
        row = _first(short.any(axis=1))
        err = ValueError("consecutive path points coincide")
        err.row, err.segment = row, _first(short[row])
        raise err
    return paths, segments, lengths, jacs


def _optical_lengths(system: OpticalSystem, lengths: np.ndarray):
    """The optical lengths of broken paths through system from their
    segment lengths, (..., m + 1), as (...)."""
    total = 0.0
    for i, n in enumerate(system.media()):
        total = total + n * lengths[..., i]
    return total


def _lengths(pc: PathConfiguration, xs: np.ndarray) -> np.ndarray:
    """optical_length at each flat coordinate row of xs, (N,)."""
    return _optical_lengths(pc.system, _polylines(pc, xs)[2])


def _gradients(pc: PathConfiguration, xs: np.ndarray):
    """Analytic gradient of optical_length at each flat coordinate row of
    xs, (N, 2m), and the broken path of row 0 as (points, unit segment
    vectors, segment lengths), (m + 2, 3), (m + 1, 3) and (m + 1,); checked
    and failing as _polylines."""
    paths, units, lengths, jacs = _polylines(pc, xs, jacobians=True)
    units /= lengths[..., None]
    weighted = pc._media * units
    grad_points = weighted[:, :-1] - weighted[:, 1:]
    # row @ J gives J.T @ row of each point bit for bit
    grads = (grad_points[..., None, :] @ jacs)[..., 0, :]
    return grads.reshape(xs.shape), (paths[0], units[0], lengths[0])


def optical_length(pc: PathConfiguration) -> float:
    """Sum of n_i * |segment| along the broken path M1 -> surfaces -> M2."""
    return float(_lengths(pc, pc.flat()[None])[0])


def stationarity_residual(pc: PathConfiguration) -> float:
    """max |dV/dxi| by central differences of step _FD_H of the optical
    length, all of them from one batch of lengths."""
    x0 = pc.flat()
    lengths = _lengths(pc, x0 + _stencil(x0.size, _FD_H))
    return float(np.max(abs(lengths[0::2] - lengths[1::2]) / (2.0 * _FD_H), initial=0.0))


def law_residual(pc: PathConfiguration) -> float:
    """max deviation of the discrete directions from the local optics laws."""
    paths, segments, lengths, _ = _polylines(pc, pc.flat()[None])
    return float(_law_residual(pc.system, paths[0], segments[0] / lengths[0, :, None]).max(initial=0.0))


def _law_residual(system: OpticalSystem, points, units) -> np.ndarray:
    """The law residual (m,) at each of the m interfaces of a broken path
    through system, from its points, M1, one per interface and M2, and its
    unit segment vectors; law_residual is their maximum.  The interfaces
    are bent as one batch, their gradients taken one surface class at a
    time; the check fails as they would one by one, at the first interface
    whose gradient vanishes or whose bend fails, with the row of this one
    path, 0."""
    itfs = system.interfaces
    g = _stacked_gradients([itf.surface for itf in itfs], points[1:-1])
    reflect = np.array([itf.action == REFLECT for itf in itfs], dtype=bool)
    mu = np.array([0.0 if r else itf.n_in / itf.n_out for r, itf in zip(reflect, itfs)])
    gn = _norm(g)
    stop = _first(gn < _GRAD_MIN)  # the interfaces before it are bent first
    u_in, n = units[:-1][:stop], g[:stop] / gn[:stop, None]
    n *= np.where(np.vecdot(u_in, n) > 0.0, -1.0, 1.0)[:, None]  # against the incoming ray
    try:
        bent = _bend(u_in, n, reflect[:stop], mu[:stop])
    except RaySpaceError as exc:
        raise exc.at(0)
    if stop is not None:
        raise DegenerateGradientError("level-function gradient vanishes at the point")
    return abs(units[1:] - bent).max(axis=1)


@functools.cache
def _hessian_stencil(dim: int) -> np.ndarray:
    """The read-only central-difference stencil (2 dim, dim) of the Newton
    Hessian."""
    steps = _stencil(dim, _FD_H)
    steps.flags.writeable = False
    return steps


def _gradient_and_hessian(pc: PathConfiguration, x: np.ndarray):
    """The gradient at x, the symmetrized central-difference Hessian of it
    and the broken path of x as _gradients gives it, from one gradient
    batch of x and its stencil rows.

    An error of x itself is raised.  If only a stencil row fails, the
    gradient and path at x are taken alone, and the Hessian is the error of
    the first failing stencil row, which a Newton step from x raises: the
    column by column Hessian would have raised it there.
    """
    rows = np.empty((1 + 2 * x.size, x.size))
    rows[0] = x
    np.add(x, _hessian_stencil(x.size), out=rows[1:])
    try:
        gs, path = _gradients(pc, rows)
    except (ValueError, RaySpaceError) as exc:
        if not getattr(exc, "row", 0):
            raise
        exc.row = 0  # the error of this one solve
        g, path = _gradients(pc, x[None])
        return g[0], exc, path
    hess = ((gs[1::2] - gs[2::2]) / (2.0 * _FD_H)).T
    return gs[0], 0.5 * (hess + hess.T), path


def characteristic_function(
    m1,
    m2,
    system: OpticalSystem,
    initial: PathConfiguration | None = None,
):
    """Stationary optical length between M1 and M2 through the system.

    Damped Newton iteration on the analytic gradient over the stacked surface
    coordinates until max |grad| < 1e-10 (_GRAD_TOL), in at most 100 steps
    (_MAX_ITER).  Each point tried, the seed
    included, is one checked gradient batch that also holds the
    central-difference Hessian stencil around it, so an accepted step
    carries the next Hessian, and nothing is evaluated again afterwards.
    The configuration must then satisfy the local reflection/refraction law
    at every interface within 1e-8 (_LAW_TOL; stationarity and the laws are
    equivalent, and the check closes the loop), or NoConvergenceError names
    the interface with the largest residual.  V and the law check reuse the
    unit segments and lengths of the last batch's row 0.  Returns (V,
    stationary configuration).

    `initial` seeds the surface points: only its coords and charts are
    used, on the endpoints and system given here (ValueError when its
    interface count differs from the system's).  The seed's path is
    checked by the first gradient batch, which raises what a
    PathConfiguration of it would.
    """
    # the first gradient batch checks the seed's path
    if initial is None:
        pc = PathConfiguration._unchecked(m1, m2, system, *_seed(m1, m2, system))
    else:  # its charts are stacked already
        pc = PathConfiguration._unchecked(m1, m2, system, initial.coords, initial.charts, initial._stacks)
    if not pc.charts:
        return optical_length(pc), pc

    x = pc.flat()
    g, hess, path = _gradient_and_hessian(pc, x)
    for _ in range(_MAX_ITER):
        gnorm = float(abs(g).max())
        if gnorm < _GRAD_TOL:
            break
        if isinstance(hess, Exception):
            raise hess
        lam = 0.0
        while True:
            try:
                damped = hess + lam * np.eye(x.size) if lam > 0.0 else hess
                delta = np.linalg.solve(damped, -g)
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
                g_try, hess_try, path_try = _gradient_and_hessian(pc, x_try)
            except (ValueError, NoRootError, IllConditionedFitError):
                alpha *= 0.5
                continue
            n_try = float(abs(g_try).max())
            if best is None or n_try < best[0]:
                best = (n_try, x_try, g_try, hess_try, path_try)
            if n_try < (1.0 - 1e-4 * alpha) * gnorm or n_try < _GRAD_TOL:
                break
            alpha *= 0.5
        if best is None or best[0] >= gnorm:
            raise NoConvergenceError("line search failed to reduce the gradient")
        _, x, g, hess, path = best
    else:
        raise NoConvergenceError(
            f"Newton did not reach |grad| < {_GRAD_TOL:g} in {_MAX_ITER} iterations"
        )

    points, units, lengths = path
    laws = _law_residual(system, points, units)
    worst = int(np.argmax(laws))
    if laws[worst] > _LAW_TOL:
        message = f"stationary point violates the local laws: residual {laws[worst]:.3e}"
        raise NoConvergenceError(f"interface {worst}: {message}")
    coords = tuple(x[2 * i : 2 * i + 2] for i in range(len(pc.charts)))
    return float(_optical_lengths(system, lengths)), pc._moved(coords)


# ---------------------------------------------------------------------------
# focusing-mirror design


@dataclass(frozen=True)
class MirrorDesign:
    """Mirror points X(k) on the rays of a family, one per grid node."""

    k1: np.ndarray
    k2: np.ndarray
    points: np.ndarray
    focus: np.ndarray
    epsilon: int
    level: float
    wavefront_c: float

    def to_csv(self) -> str:
        return _grid_csv("k1,k2,x,y,z", self.k1, self.k2, self.points)


def design_focusing_mirror(
    family: RayFamily,
    k0,
    focus,
    epsilon: int,
    level: float,
    grid=9,
    wavefront_c: float = 0.0,
    h: float | None = None,
) -> MirrorDesign:
    """Mirror surface F_eps(X) = level carved out of the rays of a family.

    F_eps(X) = (signed distance from the reference wavefront along the ray
    through X) + eps * |X - focus|.  The family must be rectangular; the
    reference wavefront is reconstructed with constant `wavefront_c`.  The
    stages: the wavefront's one batch, whose error is raised as it is; the
    rectangularity test (is_rectangular's, at the default tolerance), which
    reads the stencil lines of that batch; the rest of the wavefront
    reconstruction; then the level equation.  The
    level equation is solved along the ray of every grid node at once, in
    closed form (squared, it is linear in the ray parameter), exact to
    round-off.  NoRootError marks the first node in (i, j) order whose level
    set is empty, which is exactly what happens with eps = +1 when the focus
    lies beyond the sought mirror point on its ray; or whose root is out of
    reach of round-off (its finite limit within 4 eps of 0, relative to the
    terms that make it up); or whose root lies farther than 2**29 - 1 from
    the reference wavefront along its ray.
    """
    focus = _as_vec3(focus)
    eps = float(epsilon)
    if eps not in (-1.0, 1.0):
        raise ValueError("epsilon must be +1 or -1")

    if h is None:
        h = family.default_step()
    batch = _wavefront_batch(family, grid, h)
    k1s, k2s, ks, *_, stencil = batch
    defects = _stencil_defects(ks, *stencil, h).reshape(len(k1s), len(k2s))
    worst = float(np.max(np.abs(defects)))
    if not worst < _default_tol(family):
        k = _largest_at(k1s, k2s, defects)
        raise NotRectangularError(f"mirror design requires a rectangular family: |defect| {worst:.3e} at k={k}")
    wf = _wavefront_stages(family, batch, k0, wavefront_c, h, _PATH_TOL)

    n1, n2 = len(wf.k1), len(wf.k2)
    u, q = wf.u.reshape(-1, 3), wf.q.reshape(-1, 3)
    t_front = -(wf.values + wavefront_c).reshape(-1)

    # Along the ray, g(t) = (t - t_front) + eps * |r + t u| - level with
    # r = q - focus is monotone, and its finite limit (at -inf for eps=+1,
    # at +inf for eps=-1) is finite_limit = -(C + u . r), C = level + t_front.
    # A limit on the wrong side of 0 leaves g without a root, and one within
    # round-off of 0 puts the root out of reach of round-off.  Otherwise
    # g(t) = 0, squared, is linear in t, as |u| = 1 cancels the t^2 terms:
    # 2 t (C + u . r) = C^2 - |r|^2.  Its root is g's, since
    # C - t = |C u + r|^2 / (2 (C + u . r)) then has the sign of eps.
    r = q - focus
    along = -np.vecdot(u, r)
    finite_limit = -t_front + along - level
    failed = finite_limit >= 0.0 if eps > 0.0 else finite_limit <= 0.0
    roundoff = 4.0 * np.finfo(float).eps * (1.0 + abs(t_front) + abs(level) + abs(along))
    failed |= abs(finite_limit) <= roundoff
    c = level + t_front
    with np.errstate(all="ignore"):  # only a failed row can divide by 0 or overflow
        root = (c * c - np.vecdot(r, r)) / (-2.0 * finite_limit)
    failed |= abs(root - t_front) > _MIRROR_REACH
    node = _first(failed)
    if node is not None:
        raise NoRootError((wf.k1[node // n2], wf.k2[node % n2]))
    # one Newton step on g takes the root from the rounding of the squared
    # equation to that of g itself; |X - focus| has slope 0 where it is 0,
    # and where g's slope is 0 there is no step
    x = r + root[:, None] * u
    dist = _norm(x)
    slope = 1.0 + eps * np.vecdot(u, x) / np.where(dist > 0.0, dist, np.inf)
    root -= (root - t_front + eps * dist - level) / np.where(slope != 0.0, slope, np.inf)

    return MirrorDesign(
        k1=wf.k1,
        k2=wf.k2,
        points=(q + root[:, None] * u).reshape(n1, n2, 3),
        focus=focus,
        epsilon=int(epsilon),
        level=float(level),
        wavefront_c=float(wavefront_c),
    )


def verify_focus(design: MirrorDesign, family: RayFamily, tol: float = 1e-6):
    """Reflect every interior ray off the designed mirror and measure the
    worst distance from the focus to the reflected line.

    Mirror normals come from quadratic fits through the 3x3 point stencils
    of all interior nodes, one stacked SVD with lstsq's rank rule.  The
    stages: the lines of the interior nodes, in one batch, their fits, then
    their reflections; a failing stage raises for its first failing
    interior node in (i, j) order, with its index among the interior nodes
    as `row`.  Returns (worst < tol, worst).
    """
    return _verify_focus(design, family, tol)[:2]


def _verify_focus(design: MirrorDesign, family: RayFamily, tol: float):
    """verify_focus's (worst < tol, worst), then k, as floats, of the first
    interior node whose miss is the worst."""
    p = design.points
    n1, n2 = p.shape[:2]
    if n1 < 3 or n2 < 3:
        raise ValueError("verify_focus needs at least a 3x3 design grid")
    k1, k2 = design.k1[1:-1], design.k2[1:-1]
    u = _grid_lines(family, k1, k2)[1].reshape(-1, 3)
    # the stencils (N, 9, 3) of the interior nodes, in (di, dj) order
    stencils = np.stack(
        [p[1 + a : n1 - 1 + a, 1 + b : n2 - 1 + b] for a in (-1, 0, 1) for b in (-1, 0, 1)], axis=2
    ).reshape(-1, 9, 3)
    x0, t1 = stencils[:, 4], stencils[:, 7] - stencils[:, 1]
    w = _cross(t1, stencils[:, 5] - stencils[:, 3])
    degenerate = _norm(w) < 1e-14
    w /= np.where(degenerate, 1.0, _norm(w))[:, None]  # a failing node divides by 1, not 0
    w[np.vecdot(w, u) > 0.0] *= -1.0
    e1 = t1 - np.vecdot(t1, w)[:, None] * w
    e1 /= np.where(degenerate, 1.0, _norm(e1))[:, None]
    e2 = _cross(w, e1)

    d = stencils - x0[:, None]
    xi = np.stack([np.vecdot(d, e1[:, None]), np.vecdot(d, e2[:, None])], axis=-1)
    scale = np.max(np.abs(xi), axis=(1, 2))
    scale[scale <= 0.0] = 1.0  # a degenerate node divides by 1, not 0
    x, y = np.moveaxis(xi / scale[:, None, None], -1, 0)
    cols = np.stack([np.ones_like(x), x, y, x**2, x * y, y**2], axis=-1)
    left, s, vt = np.linalg.svd(cols, full_matrices=False)
    # lstsq's rank rule (rcond=None): rank 6 needs s_min > eps * max(9, 6) * s_max
    deficient = ~(s[:, -1] > np.finfo(float).eps * 9 * s[:, 0])
    s[deficient] = 1.0
    # coefficients 1 and 2 (the slopes) of the solution V diag(1/s) U^T zeta
    proj = (np.vecdot(d, w[:, None])[:, None] @ left)[:, 0] / s
    slope = (proj[:, None] @ vt[:, :, 1:3])[:, 0] / scale[:, None]

    node = _first(degenerate | deficient)
    if node is not None:
        if degenerate[node]:
            message = "degenerate stencil around a mirror node"
        else:
            message = "rank-deficient quadratic fit"
        k = (float(k1[node // len(k2)]), float(k2[node % len(k2)]))
        raise IllConditionedFitError(f"{message} at k={k}").at(node)
    normal = w - slope[:, :1] * e1 - slope[:, 1:] * e2
    u_refl = reflect_direction(u, normal / _norm(normal)[:, None])
    rel = design.focus - x0
    misses = _norm(rel - np.vecdot(rel, u_refl)[:, None] * u_refl)
    worst = float(np.max(misses))
    return worst < tol, worst, _largest_at(k1, k2, misses.reshape(len(k1), len(k2)))
