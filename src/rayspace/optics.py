"""Reflection and refraction of directions and oriented lines, and ordered
multi-surface optical systems with optical-length accounting.

Conventions: at a hit the unit normal n points toward the incoming side, so
u . n < 0 for the incident direction u.  Reflection keeps the medium;
refraction uses the vector form of Snell's law and fails with
TotalInternalReflectionError when (n1/n2) sin(angle_in) >= 1, i.e. when the
usual condition sin(angle_in) < n2/n1 is violated.

Shapes: the tracing inside takes batches only, (N, 3) rays.  A single ray
exists only at the public entry points (`reflect_direction`,
`refract_direction`, `Interface.bend`, `reflect_line`, `refract_line`,
`propagate_system`): each takes it as the batch of one and gives back row 0,
(3,) directions, single lines and hits and a float optical length.  For a
batch, `start` may be one point per line, and hit fields and
`optical_length` gain a leading axis of length N.  A batch gives bit for bit
the per-ray results and fails as `errors` sets out (for `propagate_system`,
with the same TraceError and interface index); its stages are the hit, then
the new direction, interface by interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMediaChainError,
    GrazingError,
    RaySpaceError,
    TotalInternalReflectionError,
    TraceError,
)
from .lines import OrientedLine, _any, _as_vecs, _first, _norm, _ray, line_through
from .surfaces import TRANSVERSE_TOL, Intersection, intersect

REFLECT = "reflect"
REFRACT = "refract"


def _unit(v) -> np.ndarray:
    return v / _norm(v)[..., None]


def reflect_direction(u, n) -> np.ndarray:
    single = np.ndim(u) == np.ndim(n) == 1  # then each is the batch of one
    u, n = np.atleast_2d(_as_vecs(u), _as_vecs(n))
    c = np.vecdot(u, n)
    i = _first(abs(c) < TRANSVERSE_TOL)
    if i is not None:
        raise GrazingError("incidence too close to grazing").at(i)
    out = _unit(u - (2.0 * c)[:, None] * n)
    return out[0] if single else out


def refract_direction(u, n, n_in: float, n_out: float) -> np.ndarray:
    if n_in <= 0.0 or n_out <= 0.0:
        raise ValueError("refractive indices must be positive")
    single = np.ndim(u) == np.ndim(n) == 1  # then each is the batch of one
    u, n = np.atleast_2d(_as_vecs(u), _as_vecs(n))
    c = np.vecdot(u, n)
    mu = n_in / n_out
    tangential = u - c[:, None] * n
    s = mu * _norm(tangential)  # (n_in/n_out) sin(angle_in)
    _check_incidence(c, s)
    out = _unit(mu * tangential + np.copysign(np.sqrt(1.0 - s * s), c)[:, None] * n)
    return out[0] if single else out


def _check_incidence(c, s) -> None:
    """Raise for the first row whose incidence cosine c (N,) grazes or whose
    (n_in/n_out) sin(angle_in) s (N,) reaches 1."""
    grazing = abs(c) < TRANSVERSE_TOL
    i = _first(grazing | (s >= 1.0))
    if i is not None:
        if grazing[i]:
            raise GrazingError("incidence too close to grazing").at(i)
        raise TotalInternalReflectionError(
            f"total internal reflection: (n1/n2) sin(a1) = {float(s[i]):.6g} >= 1"
        ).at(i)


def _bend(u, n, reflect, mu) -> np.ndarray:
    """Interface.bend row by row, bit for bit, for unit directions u and unit
    normals n (N, 3) that face the incoming side: rows where reflect (N,) is
    set reflect, the others refract with the index ratio mu (N,) = n_in /
    n_out.  mu is 0 on a reflecting row, whose s is then 0: it can only
    graze.  Fails at the first failing row, with the error its interface
    raises."""
    c = np.vecdot(u, n)
    tangential = u - c[:, None] * n
    s = mu * _norm(tangential)
    _check_incidence(c, s)
    reflected = u - (2.0 * c)[:, None] * n
    refracted = mu[:, None] * tangential + np.copysign(np.sqrt(1.0 - s * s), c)[:, None] * n
    return _unit(np.where(reflect[:, None], reflected, refracted))


def reflect_line(line: OrientedLine, surface, t_min: float = 0.0):
    """Reflect a line off a surface; returns (reflected line, Intersection)."""
    hit = intersect(line, surface, t_min=t_min)
    u2 = reflect_direction(line.u, hit.normal)
    return line_through(hit.point, u2), hit


def refract_line(line: OrientedLine, surface, n_in: float, n_out: float, t_min: float = 0.0):
    """Refract a line through a surface; returns (refracted line, Intersection)."""
    hit = intersect(line, surface, t_min=t_min)
    u2 = refract_direction(line.u, hit.normal, n_in, n_out)
    return line_through(hit.point, u2), hit


@dataclass(frozen=True)
class Interface:
    """One surface together with its action and the media on either side.

    For REFLECT, n_out is ignored and the medium n_in is kept.  For REFRACT,
    n_out must be given and differ from n_in.
    """

    surface: object
    action: str
    n_in: float
    n_out: float | None = None

    def __post_init__(self):
        if self.action not in (REFLECT, REFRACT):
            raise ValueError(f"unknown action {self.action!r}")
        if self.n_in <= 0.0:
            raise BadMediaChainError(None, "n_in must be positive")
        if self.action == REFRACT:
            if self.n_out is None or self.n_out <= 0.0:
                raise BadMediaChainError(None, "refraction requires positive n_out")
            if self.n_out == self.n_in:
                raise BadMediaChainError(None, "refraction requires n_in != n_out")

    @property
    def n_after(self) -> float:
        return self.n_out if self.action == REFRACT else self.n_in

    def bend(self, u, n) -> np.ndarray:
        """The direction u leaves in, where the unit normal n faces the incoming side."""
        if self.action == REFLECT:
            return reflect_direction(u, n)
        return refract_direction(u, n, self.n_in, self.n_out)


@dataclass(frozen=True)
class OpticalSystem:
    """An ordered chain of interfaces traversed strictly in sequence."""

    interfaces: tuple
    ambient_index: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "interfaces", tuple(self.interfaces))
        if self.ambient_index <= 0.0:
            raise BadMediaChainError(None, "ambient index must be positive")
        n = self.ambient_index
        for i, itf in enumerate(self.interfaces):
            if itf.n_in != n:
                raise BadMediaChainError(i, f"expected n_in={n:g}, got {itf.n_in:g}")
            n = itf.n_after

    @property
    def exit_index(self) -> float:
        return self.media()[-1]

    def media(self):
        """Refractive index of each segment: before interface 0, 1, ..., after the last."""
        ns = [self.ambient_index]
        for itf in self.interfaces:
            ns.append(itf.n_after)
        return ns


@dataclass(frozen=True)
class TraceResult:
    line_out: OrientedLine
    hits: tuple
    optical_length: float


def _cursor_past(line: OrientedLine, point):
    """Ray parameters (N,) just beyond the points (N, 3) on the lines, so
    that the search for the next hit cannot return the surface just left."""
    t_hit = np.vecdot(point - line.q, line.u)
    return t_hit + 1e-9 * np.maximum(1.0, abs(t_hit))


def propagate_system(line: OrientedLine, system: OpticalSystem, start=None) -> TraceResult:
    """Fold a line through every interface of the system, in order.

    `start` must lie on the input line (defaults to its foot point); the
    optical length accumulates n_i * segment length from `start` to the last
    hit.  Per-interface failures re-raise as TraceError with the index.
    """
    single = line.u.ndim == 1  # then the batch of one
    start = line.q if start is None else _as_vecs(start)
    if single:
        line, start = _ray(line, None), start[None]
    rel = start - line.q
    along = np.vecdot(rel, line.u)
    off = rel - along[:, None] * line.u
    dist = _norm(off)  # must not exceed 1e-9 * max(1, |start|)
    if _any((dist > 1e-9) & (dist > 1e-9 * _norm(start))):
        raise ValueError("start point does not lie on the line")
    current, prev_point, hits = line, start, []
    optical_length, t_cursor = np.zeros(len(line.u)), along
    for i, itf in enumerate(system.interfaces):
        if i:  # just past the previous hit; none is needed past the last
            t_cursor = _cursor_past(current, prev_point)
        try:
            hit = intersect(current, itf.surface, t_min=t_cursor)
            current = line_through(hit.point, itf.bend(current.u, hit.normal))
        except RaySpaceError as exc:
            raise TraceError(i, exc) from exc
        optical_length += itf.n_in * _norm(hit.point - prev_point)
        prev_point = hit.point
        hits.append(hit)
    if single:
        return TraceResult(_ray(current, 0), tuple(hit._row(0) for hit in hits), float(optical_length[0]))
    return TraceResult(line_out=current, hits=tuple(hits), optical_length=optical_length)
