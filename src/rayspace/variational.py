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

Mirror design follows the classical focusing construction: given a
rectangular family with a reconstructed reference wavefront, the mirror is
the level set

    (signed distance from the wavefront along the ray) + eps * |X M2| = C

solved ray by ray; eps = +1 focuses the rays through M2 in front of the
mirror (real focus), eps = -1 makes the reflected rays diverge from M2
(virtual focus, required when M2 sits beyond the mirror point on the ray).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IllConditionedFitError,
    NoConvergenceError,
    NoIntersectionError,
    NoRootError,
    NotRectangularError,
    TangentialError,
)
from .families import RayFamily, _grid_csv, _grid_lines, is_rectangular, reconstruct_wavefront
from .lines import OrientedLine, _as_vec3, line_through
from .optics import REFLECT, OpticalSystem, reflect_direction, refract_direction
from .surfaces import _newton_bisect, _unit_gradient, intersect


@dataclass(frozen=True)
class PathConfiguration:
    """Endpoints, an optical system, and one chart point per interface."""

    m1: np.ndarray
    m2: np.ndarray
    system: OpticalSystem
    coords: tuple
    charts: tuple

    def __post_init__(self):
        object.__setattr__(self, "m1", _as_vec3(self.m1))
        object.__setattr__(self, "m2", _as_vec3(self.m2))
        object.__setattr__(
            self, "coords", tuple(np.asarray(x, dtype=float).copy() for x in self.coords)
        )
        if len(self.coords) != len(self.system.interfaces):
            raise ValueError("need exactly one chart point per interface")
        pts = self.polyline()
        for a, b in zip(pts[:-1], pts[1:]):
            if np.linalg.norm(b - a) < 1e-9:
                raise ValueError("consecutive path points coincide")

    def points(self):
        return [chart.embed(xi) for chart, xi in zip(self.charts, self.coords)]

    def polyline(self):
        return [self.m1, *self.points(), self.m2]

    def with_coords(self, coords_flat: np.ndarray) -> "PathConfiguration":
        xs = tuple(coords_flat[2 * i : 2 * i + 2] for i in range(len(self.charts)))
        return PathConfiguration(self.m1, self.m2, self.system, xs, self.charts)

    def flat(self) -> np.ndarray:
        return np.concatenate(self.coords) if self.coords else np.zeros(0)


def path_through(m1, m2, system: OpticalSystem, points) -> PathConfiguration:
    """Configuration with surface points given as 3-space points."""
    charts = tuple(
        itf.surface.chart(reference_point=p) for itf, p in zip(system.interfaces, points)
    )
    coords = tuple(chart.invert(_as_vec3(p)) for chart, p in zip(charts, points))
    return PathConfiguration(m1, m2, system, coords, charts)


def _drop_to_surface(x0, surface):
    """Nearest surface point along the gradient line through x0."""
    if abs(surface.value(x0)) < 1e-12 * max(1.0, float(np.linalg.norm(x0))):
        return x0
    grad = surface.gradient(x0)
    gn = float(np.linalg.norm(grad))
    if gn < 1e-12:
        raise NoIntersectionError("degenerate gradient while seeding a path")
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
        raise NoIntersectionError("no surface point near the chord midpoint")
    return best[1]


def initial_path(m1, m2, system: OpticalSystem) -> PathConfiguration:
    """Default initial guess: chord intersections with each surface, falling
    back to the surface point nearest the chord midpoint when the straight
    chord misses a surface (a heuristic; callers may supply their own)."""
    m1 = _as_vec3(m1)
    m2 = _as_vec3(m2)
    chord = line_through(m1, m2 - m1)
    t_cursor = float((m1 - chord.q) @ chord.u)
    midpoint = 0.5 * (m1 + m2)
    points = []
    for itf in system.interfaces:
        try:
            hit = intersect(chord, itf.surface, t_min=t_cursor)
            points.append(hit.point)
            t_cursor = hit.t
        except (NoIntersectionError, TangentialError):
            points.append(_drop_to_surface(midpoint, itf.surface))
    return path_through(m1, m2, system, points)


def optical_length(pc: PathConfiguration) -> float:
    """Sum of n_i * |segment| along the broken path M1 -> surfaces -> M2."""
    pts = pc.polyline()
    media = pc.system.media()
    total = 0.0
    for i in range(len(pts) - 1):
        total += media[i] * float(np.linalg.norm(pts[i + 1] - pts[i]))
    return total


def _gradient(pc: PathConfiguration) -> np.ndarray:
    """Analytic gradient of optical_length in the stacked chart coordinates."""
    pts = pc.polyline()
    media = pc.system.media()
    parts = []
    for i, (chart, xi) in enumerate(zip(pc.charts, pc.coords)):
        before = pts[i]
        here = pts[i + 1]
        after = pts[i + 2]
        u_in = here - before
        u_in /= np.linalg.norm(u_in)
        u_out = after - here
        u_out /= np.linalg.norm(u_out)
        grad_point = media[i] * u_in - media[i + 1] * u_out
        parts.append(chart.jacobian(xi).T @ grad_point)
    return np.concatenate(parts) if parts else np.zeros(0)


def stationarity_residual(pc: PathConfiguration, h: float = 1e-6) -> float:
    """max |dV/dxi| by central differences of the optical length."""
    x0 = pc.flat()
    worst = 0.0
    for j in range(x0.size):
        step = np.zeros_like(x0)
        step[j] = h
        plus = optical_length(pc.with_coords(x0 + step))
        minus = optical_length(pc.with_coords(x0 - step))
        worst = max(worst, abs(plus - minus) / (2.0 * h))
    return worst


def law_residual(pc: PathConfiguration) -> float:
    """max deviation of the discrete directions from the local optics laws."""
    pts = pc.polyline()
    worst = 0.0
    for i, itf in enumerate(pc.system.interfaces):
        here = pts[i + 1]
        u_in = here - pts[i]
        u_in /= np.linalg.norm(u_in)
        u_out = pts[i + 2] - here
        u_out /= np.linalg.norm(u_out)
        n = _unit_gradient(itf.surface, here)
        if u_in @ n > 0.0:
            n = -n
        if itf.action == REFLECT:
            expected = reflect_direction(u_in, n)
        else:
            expected = refract_direction(u_in, n, itf.n_in, itf.n_out)
        worst = max(worst, float(np.max(np.abs(u_out - expected))))
    return worst


def characteristic_function(
    m1,
    m2,
    system: OpticalSystem,
    initial: PathConfiguration | None = None,
    grad_tol: float = 1e-10,
    law_tol: float = 1e-8,
    max_iter: int = 100,
):
    """Stationary optical length between M1 and M2 through the system.

    Damped Newton iteration on the analytic gradient over the stacked surface
    coordinates until max |grad| < grad_tol; afterwards the configuration
    must satisfy the local reflection/refraction law at every interface
    within law_tol (stationarity and the laws are equivalent; the check closes
    the loop).  Returns (V, stationary configuration).
    """
    pc = initial if initial is not None else initial_path(m1, m2, system)
    if not pc.charts:
        return optical_length(pc), pc

    x = pc.flat()
    fd_h = 1e-6

    def grad_at(xv):
        return _gradient(pc.with_coords(xv))

    g = grad_at(x)
    for _ in range(max_iter):
        gnorm = float(np.max(np.abs(g)))
        if gnorm < grad_tol:
            break
        # Hessian by central differences of the analytic gradient
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
    residual = law_residual(pc)
    if residual > law_tol:
        raise NoConvergenceError(
            f"stationary point violates the local laws: residual {residual:.3e}"
        )
    return optical_length(pc), pc


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
    rect_tol: float | None = None,
    root_tol: float = 1e-12,
) -> MirrorDesign:
    """Mirror surface F_eps(X) = level carved out of the rays of a family.

    F_eps(X) = (signed distance from the reference wavefront along the ray
    through X) + eps * |X - focus|.  The family must be rectangular; the
    reference wavefront is reconstructed with constant `wavefront_c`.  For
    each grid node the level equation is solved along the ray (monotone in
    the ray parameter for either eps; tolerance root_tol).  NoRootError marks
    rays whose level set is empty, which is exactly what happens with
    eps = +1 when the focus lies beyond the sought mirror point on its ray.
    """
    focus = _as_vec3(focus)
    eps = float(epsilon)
    if eps not in (-1.0, 1.0):
        raise ValueError("epsilon must be +1 or -1")

    ok, _ = is_rectangular(family, grid=grid, tol=rect_tol, h=h)
    if not ok:
        raise NotRectangularError("mirror design requires a rectangular family")
    wf = reconstruct_wavefront(family, k0, c=wavefront_c, grid=grid, h=h)

    n1, n2 = len(wf.k1), len(wf.k2)
    _, us, qs = _grid_lines(family, wf.k1, wf.k2)
    points = np.empty((n1, n2, 3))
    for i in range(n1):
        for j in range(n2):
            k = (wf.k1[i], wf.k2[j])
            line = OrientedLine._exact(us[i, j], qs[i, j])
            t_front = -(wf.values[i, j] + wavefront_c)

            def g(t):
                x = line.point_at(t)
                return (t - t_front) + eps * float(np.linalg.norm(x - focus)) - level

            def dg(t):
                x = line.point_at(t)
                r = x - focus
                dist = float(np.linalg.norm(r))
                if dist == 0.0:
                    return 1.0
                return 1.0 + eps * float(line.u @ r) / dist

            # g is nondecreasing with g(-inf) finite for eps=+1 and g(+inf)
            # finite for eps=-1; both finite limits equal this expression
            finite_limit = -t_front + float(line.u @ (focus - line.q)) - level
            if eps > 0.0:
                if finite_limit >= 0.0:  # g >= g(-inf) >= 0 everywhere
                    raise NoRootError(k)
            else:
                if finite_limit <= 0.0:  # g <= g(+inf) <= 0 everywhere
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
            root = _newton_bisect(g, dg, lo, hi, glo, ghi, tol=root_tol)
            points[i, j] = line.point_at(root)

    return MirrorDesign(
        k1=wf.k1,
        k2=wf.k2,
        points=points,
        focus=focus,
        epsilon=int(epsilon),
        level=float(level),
        wavefront_c=float(wavefront_c),
    )


def verify_focus(design: MirrorDesign, family: RayFamily, tol: float = 1e-6):
    """Reflect every interior ray off the designed mirror and measure the
    worst distance from the focus to the reflected line.

    Mirror normals come from local quadratic fits through the 3x3 point
    stencil around each interior node.  Returns (worst < tol, worst).
    """
    n1, n2 = design.points.shape[:2]
    if n1 < 3 or n2 < 3:
        raise ValueError("verify_focus needs at least a 3x3 design grid")
    worst = 0.0
    for i in range(1, n1 - 1):
        for j in range(1, n2 - 1):
            x0 = design.points[i, j]
            t1 = design.points[i + 1, j] - design.points[i - 1, j]
            t2 = design.points[i, j + 1] - design.points[i, j - 1]
            w = np.cross(t1, t2)
            wn = float(np.linalg.norm(w))
            if wn < 1e-14:
                raise IllConditionedFitError("degenerate stencil around a mirror node")
            w /= wn
            line = family.eval(design.k1[i], design.k2[j])
            if float(w @ line.u) > 0.0:
                w = -w
            e1 = t1 - (t1 @ w) * w
            e1 /= np.linalg.norm(e1)
            e2 = np.cross(w, e1)

            stencil = [
                design.points[i + di, j + dj] - x0
                for di in (-1, 0, 1)
                for dj in (-1, 0, 1)
            ]
            xi = np.array([[d @ e1, d @ e2] for d in stencil])
            zeta = np.array([d @ w for d in stencil])
            scale = float(np.max(np.abs(xi)))
            if scale <= 0.0:
                raise IllConditionedFitError("collapsed stencil around a mirror node")
            xs = xi / scale
            cols = np.stack(
                [
                    np.ones(len(xs)),
                    xs[:, 0],
                    xs[:, 1],
                    xs[:, 0] ** 2,
                    xs[:, 0] * xs[:, 1],
                    xs[:, 1] ** 2,
                ],
                axis=1,
            )
            coeff, _, rank, _ = np.linalg.lstsq(cols, zeta, rcond=None)
            if rank < 6:
                raise IllConditionedFitError("rank-deficient quadratic fit")
            normal = w - (coeff[1] / scale) * e1 - (coeff[2] / scale) * e2
            normal /= np.linalg.norm(normal)
            u_refl = reflect_direction(line.u, normal)
            rel = design.focus - x0
            miss = float(np.linalg.norm(rel - (rel @ u_refl) * u_refl))
            worst = max(worst, miss)
    return worst < tol, worst
