"""Batches of rays against the same rays one at a time.

Every function of the ray core that takes (N, 3) arrays must give, row by
row, bit for bit what the rows give alone, and a failing batch must raise
what the failure rule of `errors` picks from its rays alone
(helpers.staged_oracle): of the rays failing at the first failing stage,
the lowest-index one's error.  One-form integration evaluates each
refinement level in one call, over the new nodes only; a batch of segments,
of regularity points or of wavefront nodes gives what its items give one at
a time, and fails by the same rule.  So do a defect grid against the node
by node loop and the sinusoid root search against one ray at a time.
"""

import dataclasses
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace as rs
from rayspace.errors import (
    ChartDomainError,
    DomainBoundaryError,
    FamilyTraceError,
    GrazingError,
    ImmersionError,
    NoConvergenceError,
    NoIntersectionError,
    NonRegularError,
    NotRectangularError,
    RaySpaceError,
    TangentialError,
    TotalInternalReflectionError,
    TraceError,
)
import rayspace.families as families
from rayspace.families import _CHUNK, _eval_rows, _immersion_ratio, _require_inside, _spread, _tangents
from rayspace.lines import _col, _frame, _norm, _omega, _ray, _stencil
from rayspace.scene import load_scene
from rayspace.surfaces import _SCAN_SAMPLES, _unit_gradient

from helpers import (
    aimed_line,
    chart_jacobian_oracle,
    clenshaw_curtis_oracle,
    collimated_oracle,
    device_source,
    flat_for_negative_k1,
    immersion_ok,
    l_paths_oracle,
    make_device,
    naive_cc_one_form,
    naive_one_form,
    naive_orthogonality_residual,
    nearest_point_spread,
    nested_sphere_system,
    node_defect_grid,
    node_neighbors,
    node_tangents_oracle,
    normal_congruence_oracle,
    plain,
    point_source_oracle,
    random_surface,
    random_unit,
    regular_oracle,
    row_by_row,
    row_stage,
    segment_oracle,
    sinusoid_first_root,
    staged_wavefront,
    staged_oracle,
    stencil_defect,
    svd_immersion_ratio,
    svd_immersed,
    trace_stage,
    transform_family_oracle,
    two_skew_lines_oracle,
    wavefront_segments,
)

KINDS = ("plane", "sphere", "quadric", "sinusoid")


def random_system(rng, kinds):
    """Interfaces of the given kinds with random actions; refractions may go
    into a rarer medium, so total internal reflection can occur."""
    interfaces = []
    n = 1.0
    for kind in kinds:
        surface = random_surface(rng, kind)
        if rng.random() < 0.4:
            interfaces.append(rs.Interface(surface, rs.REFLECT, n_in=n))
        else:
            n_out = float(rng.choice([x for x in (1.0, 1.33, 1.5, 1.9) if x != n]))
            interfaces.append(rs.Interface(surface, rs.REFRACT, n_in=n, n_out=n_out))
            n = n_out
    return rs.OpticalSystem(tuple(interfaces))


def random_rays(rng, count):
    """Start points 6 units out, aimed through the unit cube about the origin."""
    starts = np.array([6.0 * random_unit(rng) for _ in range(count)])
    dirs = rng.uniform(-0.5, 0.5, (count, 3)) - starts
    return starts, dirs


def outcome(fn):
    try:
        return fn()
    except RaySpaceError as exc:
        return exc


def assert_same_error(batch_exc, single_exc):
    assert type(batch_exc) is type(single_exc)
    assert str(batch_exc) == str(single_exc)
    assert getattr(batch_exc, "k", None) == getattr(single_exc, "k", None)
    assert getattr(batch_exc, "interface_index", None) == getattr(single_exc, "interface_index", None)
    assert type(getattr(batch_exc, "cause", None)) is type(getattr(single_exc, "cause", None))


def assert_row_equal(batch, i, single):
    """Trace results: row i of the batch equals the single trace, bit for bit."""
    assert np.array_equal(batch.line_out.u[i], single.line_out.u)
    assert np.array_equal(batch.line_out.q[i], single.line_out.q)
    assert len(batch.hits) == len(single.hits)
    for hb, hs in zip(batch.hits, single.hits):
        assert np.array_equal(hb.point[i], hs.point)
        assert np.array_equal(hb.t[i], hs.t)
        assert np.array_equal(hb.normal[i], hs.normal)
        assert np.array_equal(hb.cos_incidence[i], hs.cos_incidence)
    assert np.array_equal(batch.optical_length[i], single.optical_length)


def check_batch_against_singles(system, starts, dirs):
    """Trace the rays as one batch and one by one and compare the two: the
    batch's error is the one staged_oracle picks by trace_stage."""
    lines = rs.line_through(starts, dirs)

    def alone(i):
        line = rs.line_through(starts[i], dirs[i])
        assert np.array_equal(line.u, lines.u[i]) and np.array_equal(line.q, lines.q[i])
        return rs.propagate_system(line, system, start=starts[i])

    singles, first = staged_oracle(len(starts), alone, lambda i, error: trace_stage(error))
    batch = outcome(lambda: rs.propagate_system(lines, system, start=starts))
    if first is not None:
        assert isinstance(batch, RaySpaceError)
        assert_same_error(batch, singles[first])
        assert batch.row == first
        good = [i for i, s in enumerate(singles) if not isinstance(s, RaySpaceError)]
        if good:  # the rays that pass alone also pass together
            sub = rs.propagate_system(
                rs.OrientedLine(lines.u[good], lines.q[good]), system, start=starts[good]
            )
            for row, i in enumerate(good):
                assert_row_equal(sub, row, singles[i])
        return len(good)
    assert not isinstance(batch, RaySpaceError), batch
    for i, single in enumerate(singles):
        assert_row_equal(batch, i, single)
    return len(singles)


class TestPropagateBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        st.integers(1, 12),
    )
    def test_random_systems(self, seed, kinds, count):
        rng = np.random.default_rng(seed)
        system = random_system(rng, kinds)
        starts, dirs = random_rays(rng, count)
        check_batch_against_singles(system, starts, dirs)

    def test_device_all_rays_pass(self):
        fam = device_source()
        k = np.linspace(-0.1, 0.1, 5)
        k1, k2 = (a.ravel() for a in np.meshgrid(k, k))
        base = fam.eval(k1, k2)
        assert check_batch_against_singles(make_device(), fam.start_point(k1, k2), base.u) == 25

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_nested_spheres(self, rng, depth):
        system = nested_sphere_system(rng, depth)
        starts = rng.uniform(-0.2, 0.2, (16, 3))
        dirs = np.array([random_unit(rng) for _ in range(16)])
        assert check_batch_against_singles(system, starts, dirs) == 16


def _glass_and_mirror():
    """Glass to air across z = 0 (total internal reflection beyond about 41.8
    degrees), then a unit sphere mirror about (0, 0, -3)."""
    return rs.OpticalSystem(
        (
            rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, n_in=1.5, n_out=1.0),
            rs.Interface(rs.Sphere([0, 0, -3.0], 1.0), rs.REFLECT, n_in=1.0),
        ),
        ambient_index=1.5,
    )


# rays starting at z = 2 that pass, reflect totally, miss the sphere, or graze it
_RAYS = {
    "pass": ([0.0, 0.0, 2.0], [0.0, 0.0, -1.0]),
    "tir": ([0.0, 0.0, 2.0], [np.sin(1.1), 0.0, -np.cos(1.1)]),
    "miss": ([1.5, 0.0, 2.0], [0.0, 0.0, -1.0]),
    "graze": ([np.sqrt(1.0 - 1e-13), 0.0, 2.0], [0.0, 0.0, -1.0]),
}


class TestLowestIndexFailure:
    """The lowest failing ray at the first failing stage: a ray that fails
    at interface 0 wins over a lower one that fails only at interface 1,
    and at one interface a failing hit wins over a lower failing bend."""

    @pytest.mark.parametrize(
        "names, expected",
        [
            # the miss at interface 1 loses to row 2's bend at interface 0
            (("pass", "miss", "tir"), (0, TotalInternalReflectionError, 2)),
            (("pass", "tir", "miss"), (0, TotalInternalReflectionError, 1)),
            (("pass", "graze", "tir", "miss"), (0, TotalInternalReflectionError, 2)),
            (("miss", "pass", "graze"), (1, NoIntersectionError, 0)),
            (("pass", "pass", "tir"), (0, TotalInternalReflectionError, 2)),
            # row 1 fails at interface 0, row 0 only at interface 1
            (("miss", "tir"), (0, TotalInternalReflectionError, 1)),
        ],
    )
    def test_trace_error_of_first_failing_ray(self, names, expected):
        system = _glass_and_mirror()
        starts = np.array([_RAYS[n][0] for n in names])
        dirs = np.array([_RAYS[n][1] for n in names])
        check_batch_against_singles(system, starts, dirs)
        with pytest.raises(TraceError) as err:
            rs.propagate_system(rs.line_through(starts, dirs), system, start=starts)
        assert (err.value.interface_index, type(err.value.cause), err.value.row) == expected

    def test_each_interface_searches_its_roots_once(self, monkeypatch):
        # row 1 grazes the mirror at interface 1: the batch raises its
        # error, and each surface searches the roots of its rays once
        calls = []
        for kind in (rs.Plane, rs.Sphere):
            real = kind.roots

            def counted(surface, line, t_min, t_max, real=real):
                calls.append(type(surface).__name__)
                return real(surface, line, t_min, t_max)

            monkeypatch.setattr(kind, "roots", counted)
        names = ("pass", "graze", "miss")
        starts = np.array([_RAYS[n][0] for n in names])
        dirs = np.array([_RAYS[n][1] for n in names])
        with pytest.raises(TraceError) as err:
            rs.propagate_system(rs.line_through(starts, dirs), _glass_and_mirror(), start=starts)
        assert (err.value.interface_index, type(err.value.cause), err.value.row) == (1, TangentialError, 1)
        assert calls == ["Plane", "Sphere"]

    def test_intersect_names_the_failing_rays_t_min(self):
        sphere = rs.Sphere([0, 0, -3.0], 1.0)
        names = ("pass", "pass", "miss", "graze")
        starts = np.array([_RAYS[n][0] for n in names])
        lines = rs.line_through(starts, np.array([_RAYS[n][1] for n in names]))
        t_min = np.array([-0.5, -1.0, -2.0, -3.0])
        with pytest.raises(NoIntersectionError, match=r"ray misses Sphere in \(-2, 1e\+06\]"):
            rs.intersect(lines, sphere, t_min=t_min)
        with pytest.raises(TangentialError):
            rs.intersect(rs.OrientedLine(lines.u[[0, 3, 2]], lines.q[[0, 3, 2]]), sphere, t_min=-1.0)
        hits = rs.intersect(rs.OrientedLine(lines.u[:2], lines.q[:2]), sphere, t_min=t_min[:2])
        for i in range(2):
            single = rs.intersect(rs.OrientedLine(lines.u[i], lines.q[i]), sphere, t_min=t_min[i])
            assert hits.t[i] == single.t and np.array_equal(hits.point[i], single.point)

    def test_direction_laws(self):
        n = np.array([[0.0, 0.0, 1.0]] * 3)
        steep = [np.sin(1.1), 0.0, -np.cos(1.1)]
        grazing = [1.0, 0.0, -1e-8]
        with pytest.raises(GrazingError):
            rs.refract_direction(np.array([[0.0, 0.0, -1.0], grazing, steep]), n, 1.5, 1.0)
        with pytest.raises(TotalInternalReflectionError) as err:
            rs.refract_direction(np.array([[0.0, 0.0, -1.0], steep, grazing]), n, 1.5, 1.0)
        with pytest.raises(TotalInternalReflectionError) as alone:
            rs.refract_direction(steep, n[0], 1.5, 1.0)
        assert str(err.value) == str(alone.value)
        with pytest.raises(GrazingError):
            rs.reflect_direction(np.array([[0.0, 0.0, -1.0], grazing]), n[:2])


def _families():
    sphere = rs.Sphere([0.1, -0.2, 0.3], 2.0)
    wavy = rs.Sinusoid(0.15, [0.9, 0.7])
    yield rs.point_source([0.3, -0.2, 1.0], [0.1, 0.2, -1.0])
    yield rs.collimated([0.2, 0.1, -1.0], origin=[0.5, 0.0, 2.0])
    yield rs.two_skew_lines([0, 0, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0])
    yield rs.normal_congruence(sphere, ((-0.3, 0.3), (-0.3, 0.3)), axis=[0.2, 0.0, 1.0])
    yield rs.normal_congruence(wavy, ((-0.5, 0.5), (-0.5, 0.5)), outward=False)
    yield rs.normal_congruence(rs.Plane([0, 1, 1], 0.5), ((-0.5, 0.5), (-0.5, 0.5)))
    yield rs.transform_family(device_source(), make_device())


def _boundary_scene(kind):
    """A surface of the kind, a line aimed at it from t0 and its hit, a
    refraction into glass there, the chart Jacobian of that refraction at
    the line, and a narrow point source about the line sent through it."""
    rng = np.random.default_rng(20261019)
    surface = random_surface(rng, kind)
    line, hit, t0 = aimed_line(rng, surface)
    system = rs.OpticalSystem((rs.Interface(surface, rs.REFRACT, 1.0, 1.5),))

    def refracted(lines):
        return rs.refract_line(lines, surface, 1.0, 1.5, t_min=t0)[0]

    source = rs.point_source(line.point_at(t0), line.u, domain=((-0.01, 0.01), (-0.01, 0.01)))
    return dict(
        surface=surface, line=line, hit=hit, t0=t0, system=system, refracted=refracted,
        jacobian=rs.chart_jacobian(refracted, line)[0], family=rs.transform_family(source, system),
    )


# each public entry point called on one ray, or on the batch of one that
# `v` (an array) and `l` (a line) make of it; normal_at and defect take one
# ray only, and their batch is the internal routine they call
_ENTRY_POINTS = {
    "line_through": lambda s, v, l: rs.line_through(v(s["hit"].point), v(s["line"].u)),
    "OrientedLine": lambda s, v, l: rs.OrientedLine(v(s["line"].u), v(s["line"].q)),
    "chart_for": lambda s, v, l: rs.chart_for(v(s["line"].u)),
    "chart_coords": lambda s, v, l: rs.chart_coords(l(s["line"])),
    "line_from_coords": lambda s, v, l: rs.line_from_coords(
        v(rs.chart_coords(s["line"])[0]), v(rs.chart_for(s["line"].u))
    ),
    "chart_jacobian": lambda s, v, l: rs.chart_jacobian(s["refracted"], l(s["line"])),
    "symplectic_residual": lambda s, v, l: rs.symplectic_residual(v(s["jacobian"]), scale=1.0 / 1.5),
    "value": lambda s, v, l: s["surface"].value(v(s["hit"].point)),
    "gradient": lambda s, v, l: s["surface"].gradient(v(s["hit"].point)),
    "intersect": lambda s, v, l: rs.intersect(l(s["line"]), s["surface"], t_min=v(s["t0"])),
    "normal_at": lambda s, v, l: (
        rs.normal_at(s["surface"], s["hit"].point)
        if v is _single
        else s["surface"].incoming_sign * _unit_gradient(s["surface"], s["hit"].point[None])
    ),
    "reflect_direction": lambda s, v, l: rs.reflect_direction(v(s["line"].u), v(s["hit"].normal)),
    "refract_direction": lambda s, v, l: rs.refract_direction(v(s["line"].u), v(s["hit"].normal), 1.0, 1.5),
    "Interface.bend": lambda s, v, l: s["system"].interfaces[0].bend(v(s["line"].u), v(s["hit"].normal)),
    "reflect_line": lambda s, v, l: rs.reflect_line(l(s["line"]), s["surface"], t_min=v(s["t0"])),
    "refract_line": lambda s, v, l: rs.refract_line(l(s["line"]), s["surface"], 1.0, 1.5, t_min=v(s["t0"])),
    "propagate_system": lambda s, v, l: rs.propagate_system(
        l(s["line"]), s["system"], start=v(s["line"].point_at(s["t0"]))
    ),
    "one_form_integral": lambda s, v, l: rs.one_form_integral(s["family"], v((0.0, 0.0)), v((0.004, -0.003))),
    "is_regular_point": lambda s, v, l: rs.is_regular_point(s["family"], v((0.002, 0.001)), v(1.0)),
    "defect": lambda s, v, l: (
        rs.defect(s["family"], (0.002, 0.001))
        if v is _single
        else tangent_defects(s["family"], np.array([[0.002, 0.001]]), s["family"].default_step())
    ),
}


def _single(x):
    return x


def tangent_defects(family, ks, h):
    """The defects of the tangents of a batch of nodes, as `defect` pairs
    them."""
    du, dq = _tangents(family, ks, h)
    return _omega(du[:, 0], dq[:, 0], du[:, 1], dq[:, 1])


def assert_row_0(single, batch):
    """single is row 0 of the batch of one, bit for bit: a float, str or
    bool where the batch has a (1,) array, an array of the row's shape where
    it has more axes; lines, hits and traces field by field."""
    if isinstance(batch, tuple):
        assert type(single) is tuple and len(single) == len(batch)
        for a, b in zip(single, batch):
            assert_row_0(a, b)
    elif isinstance(batch, (rs.OrientedLine, rs.Intersection, rs.TraceResult)):
        assert type(single) is type(batch)
        for field in dataclasses.fields(batch):
            assert_row_0(getattr(single, field.name), getattr(batch, field.name))
    elif batch.shape == (1,):
        assert type(single) is {"f": float, "U": str, "b": bool}[batch.dtype.kind]
        assert np.array([single], dtype=batch.dtype).tobytes() == batch.tobytes()
    else:
        assert type(single) is np.ndarray and single.shape == batch.shape[1:]
        assert single.tobytes() == batch[0].tobytes()


class TestPublicBoundary:
    """A single ray exists only at the public entry points: each takes it as
    the batch of one and gives back row 0, as Python floats, strs and bools
    and (3,) points, normals, u and q."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("entry", list(_ENTRY_POINTS))
    def test_single_ray_is_row_0_of_the_batch_of_one(self, entry, kind):
        scene = _boundary_scene(kind)
        call = _ENTRY_POINTS[entry]
        single = call(scene, _single, _single)
        batch = call(scene, lambda x: np.asarray(x)[None], lambda line: _ray(line, None))
        assert_row_0(single, batch)


class TestFamilyBatch:
    @pytest.mark.parametrize("family", list(_families()), ids=lambda f: f.kind)
    def test_eval_and_anchor_rows(self, family, rng):
        (a1, b1), (a2, b2) = family.domain
        k1 = rng.uniform(a1, b1, 7) * 0.8
        k2 = rng.uniform(a2, b2, 7) * 0.8
        batch = family.eval(k1, k2)
        anchors = family.start_point(k1, k2)
        assert batch.u.shape == anchors.shape == (7, 3)
        for i in range(7):
            single = family.eval(k1[i], k2[i])
            assert np.array_equal(batch.u[i], single.u)
            assert np.array_equal(batch.q[i], single.q)
            assert np.array_equal(anchors[i], family.start_point(k1[i], k2[i]))


BUILDER_ORACLES = ("point_source", "collimated", "two_skew_lines", "sphere", "sinusoid", "plane")


def random_builder_pair(rng, which):
    """A builder's family and its oracle's, from the same random arguments:
    `which` names a builder, or the surface kind of a normal congruence."""
    center = rng.uniform(-0.5, 0.5, 2)
    half = rng.uniform(0.05, 0.4, 2)
    domain = tuple((float(c - h), float(c + h)) for c, h in zip(center, half))
    if which == "point_source":
        args = (rng.uniform(-1, 1, 3), random_unit(rng), domain)
        return rs.point_source(*args), point_source_oracle(*args)
    if which == "collimated":
        args = (random_unit(rng), rng.uniform(-1, 1, 3), domain)
        return rs.collimated(*args), collimated_oracle(*args)
    if which == "two_skew_lines":
        args = (rng.uniform(-1, 1, 3), rng.normal(size=3), rng.uniform(-1, 1, 3), rng.normal(size=3), domain)
        return rs.two_skew_lines(*args), two_skew_lines_oracle(*args)
    args = (random_surface(rng, which), domain, random_unit(rng), bool(rng.random() < 0.5))
    return rs.normal_congruence(*args), normal_congruence_oracle(*args)


def assert_same_lines(line, oracle):
    """A family's TracedLines equal the oracle's bit for bit: u, q, l
    (or both None) and start."""
    assert type(line) is type(oracle) is rs.TracedLine
    assert np.array_equal(line.u, oracle.u) and np.array_equal(line.q, oracle.q)
    assert (line.length is None) == (oracle.length is None)
    assert np.array_equal(line.length, oracle.length)
    assert np.array_equal(line.start, oracle.start)


class TestBuilderOracles:
    """Every builder's lines, their starts and lengths, and what one or two
    systems in turn make of them, are bit for bit those of the builders as
    each spelled out its own family with a separate anchor, and of
    normal_congruence as one branch per surface kind, transformed by
    transform_family as it was with a separate anchor that traced again."""

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(BUILDER_ORACLES),
        st.integers(1, 257),
        st.lists(st.lists(st.sampled_from(KINDS), min_size=1, max_size=2), min_size=1, max_size=2),
    )
    def test_builders_match_their_oracles(self, seed, which, count, systems):
        rng = np.random.default_rng(seed)
        fam, oracle = random_builder_pair(rng, which)
        assert fam.domain == oracle.domain
        ks = random_params(rng, fam, count)
        pairs = [(fam, oracle)]
        for kinds in systems:  # each system takes the lines of the one before
            system = random_system(rng, kinds)
            fam, oracle = rs.transform_family(fam, system), transform_family_oracle(oracle, system)
            pairs.append((fam, oracle))
        for k1, k2 in ((ks[:, 0], ks[:, 1]), tuple(map(float, ks[0]))):  # the batch, then one pair
            for fam, oracle in pairs:
                lines = outcome(lambda: fam.eval(k1, k2))
                expected = outcome(lambda: oracle.traced(k1, k2))
                if isinstance(expected, RaySpaceError):
                    assert_same_error(lines, expected)
                    assert lines.row == expected.row
                else:
                    assert_same_lines(lines, expected)
                    assert np.array_equal(fam.start_point(k1, k2), expected.start)

    @pytest.mark.parametrize("outward", [True, False])
    def test_unsupported_surface_fails_alike(self, outward):
        quadric = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        for build in (rs.normal_congruence, normal_congruence_oracle):
            with pytest.raises(ValueError, match="^normal congruence not supported for Quadric$"):
                build(quadric, ((-0.1, 0.1), (-0.1, 0.1)), outward=outward)


class _CountedPatch:
    """The normal patch of the unit sphere, whose rays count their calls."""

    def __init__(self):
        self.calls = 0

    def _normal_rays(self, axis, outward):
        rays = rs.Sphere([0, 0, 0], 1.0)._normal_rays(axis, outward)

        def counted(k1, k2):
            self.calls += 1
            return rays(k1, k2)

        return counted


class TestOneCallPerBatch:
    """A traced batch evaluates its source family once, and traces each
    system once: the lines carry their starts and lengths."""

    k1, k2 = np.linspace(-0.1, 0.1, 5), np.zeros(5)

    def test_a_builder_runs_its_rays_once_per_traced_batch(self):
        patch = _CountedPatch()
        fam = rs.normal_congruence(patch, ((-0.2, 0.2), (-0.2, 0.2)))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 3.0), rs.REFLECT, 1.0),))
        traced = rs.transform_family(fam, mirror)
        for batch in (traced.eval, traced.start_point, fam.start_point):
            patch.calls = 0
            batch(self.k1, self.k2)
            assert patch.calls == 1

    def test_a_twice_transformed_batch_traces_each_system_once(self, monkeypatch):
        source = rs.point_source([0.1, 0, 0], [0, 0.2, 1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        lens = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, 4.0], 2.0), rs.REFRACT, 1.0, 1.5),))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 8.0), rs.REFLECT, 1.5),), ambient_index=1.5)
        once = rs.transform_family(source, lens)
        twice = rs.transform_family(once, mirror)
        rows = TestLateFailingBatch.traced_rows(monkeypatch)
        for batch, traces in ((twice.eval, 2), (twice.start_point, 2), (once.start_point, 1)):
            rows.clear()
            batch(self.k1, self.k2)
            assert rows == [5] * traces


def _blemished(family, bad, bad_line):
    """The family evaluated one parameter at a time, as plain lines, with
    the line at the parameter bad replaced by bad_line(line)."""

    def line_at(k1, k2):
        line = family.eval(k1, k2)
        return rs.OrientedLine._exact(*(bad_line(line) if (k1, k2) == tuple(bad) else (line.u, line.q)))

    return row_by_row(line_at, family.domain)


class TestOneFormNodes:
    @staticmethod
    def check(ka, kb, tol):
        """The integral against the Clenshaw-Curtis oracle, with its ray and
        call counts; returns the level it stopped at."""
        fam = rs.point_source([0.3, -0.2, 1.0], [0.1, 0.2, -1.0])
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        value = rs.one_form_integral(dataclasses.replace(fam, eval=counting), ka, kb, tol=tol)
        reference, m = naive_cc_one_form(fam, ka, kb, tol)
        assert value == reference
        assert sum(calls) == m + 1  # every node of the final level, once
        assert len(calls) == int(np.log2(m)) - 2  # one call for levels 4 and 8, then one per level
        assert rs.one_form_integral(plain(fam), ka, kb, tol=tol) == value
        return m

    @pytest.mark.parametrize(
        "ka, kb, tol",
        [
            ((-0.2, -0.1), (0.25, 0.2), 1e-6),
            ((0.0, 0.0), (0.05, -0.05), 1e-9),
            ((-0.3, 0.3), (-0.3, 0.25), 1e-11),
        ],
    )
    def test_each_node_traced_once(self, ka, kb, tol):
        assert self.check(ka, kb, tol) == 8  # the first two levels agree

    def test_refines_to_a_tight_tolerance(self):
        assert self.check((-0.3, -0.3), (0.3, 0.3), 1e-13) == 32

    def test_levels_nest(self):
        # level 2m's nodes of even index are level m's, bit for bit, up to
        # the budget of 512, and every level is the rule written out entry
        # by entry: its nodes, weights and G = diag(w) D
        assert families._MAX_POINTS == 512
        for m in 4 * 2 ** np.arange(7):
            level = families._cc_level(int(m))
            nodes = level[0]
            assert nodes.tobytes() == families._cc_level(int(2 * m))[0][::2].tobytes()
            assert nodes[0] == 0.0 and nodes[-1] == 1.0
            assert not any(a.flags.writeable for a in level)
            if m <= 64:
                oracle = clenshaw_curtis_oracle(int(m))
                assert [a.tobytes() for a in level] == [a.tobytes() for a in oracle]

    @pytest.mark.parametrize("max_points", [512, 8, 2])
    def test_empty_batch(self, max_points, monkeypatch):
        # no segment, no ray and no error, at any budget (below 4, no level)
        monkeypatch.setattr(families, "_MAX_POINTS", max_points)
        fam = rs.point_source([0.3, -0.2, 1.0], [1.0, 0.1, 0.2])
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        counted = dataclasses.replace(fam, eval=counting)
        values = rs.one_form_integral(counted, np.empty((0, 2)), np.empty((0, 2)))
        assert values.shape == (0,) and values.dtype == float
        assert sum(calls) == 0

    @pytest.mark.parametrize("m", [4, 8, 64, 256, 512])
    def test_rule_is_exact_on_polynomials(self, m, rng):
        # u of degree m // 2 and q of degree m // 2 + 1: u . q' has degree m,
        # which Clenshaw-Curtis integrates exactly
        t = families._cc_level(m)[0]
        us = [np.polynomial.Polynomial(rng.normal(size=m // 2 + 1)) for _ in range(3)]
        qs = [np.polynomial.Polynomial(rng.normal(size=m // 2 + 2)) for _ in range(3)]
        u = np.stack([p(t) for p in us], axis=-1)
        q = np.stack([p(t) for p in qs], axis=-1)
        exact = sum((a * b.deriv()).integ()(1.0) for a, b in zip(us, qs))
        got = families._cc_sums(u[None], q[None])
        assert got.shape == (1,)
        assert abs(got[0] - exact) <= 1e-12 * max(1.0, abs(exact))
        # a stack of segments gives each segment's sum, bit for bit
        stack = families._cc_sums(np.stack([u, 2.0 * u, u]), np.stack([q, q, -q]))
        alone = [families._cc_sums(x[None], y[None])[0] for x, y in ((u, q), (2.0 * u, q), (u, -q))]
        assert alone == list(stack)

    @pytest.mark.parametrize(
        "node, bad_line, level",
        [  # node (m, j): node j of level m
            ((8, 1), lambda line: (line.u, line.q * np.nan), 8),  # NaN from the second level on
            ((4, 4), lambda line: (line.u, line.q + [np.inf, 0.0, 0.0]), 4),  # +inf at every level
            ((4, 2), lambda line: (line.u, line.q + [np.inf, 0.0, 0.0]), 4),  # inf - inf: NaN
        ],
        ids=["nan", "inf", "inf_inside"],
    )
    def test_a_non_finite_sum_stops_at_its_level(self, node, bad_line, level):
        fam = rs.point_source([0.3, -0.2, 1.0], [1.0, 0.1, 0.2])  # u_x > 0 on every ray
        # ka + (kb - ka) is not kb for the second segment: its end node is kb
        ka, kb = np.array([[0.0, -0.1], [-0.1, 0.05]]), np.array([[0.05, 0.0], [0.1, 0.21]])
        assert (ka[1] + (kb[1] - ka[1]) != kb[1]).any()
        t = families._cc_level(node[0])[0][node[1]]
        blemished = _blemished(fam, kb[1] if t == 1.0 else ka[1] + t * (kb[1] - ka[1]), bad_line)
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return blemished.eval(k1, k2)

        counted = dataclasses.replace(blemished, eval=counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # inf - inf in the sums stays quiet
            with pytest.raises(NoConvergenceError) as alone:
                naive_cc_one_form(blemished, ka[1], kb[1], 1e-12)
            with pytest.raises(NoConvergenceError) as err:
                rs.one_form_integral(counted, ka, kb, tol=1e-12)
        assert err.value.row == 1
        assert str(err.value) == str(alone.value) == (
            f"one-form sum over {level} pieces is not finite on k=(-0.1, 0.05) -> (0.1, 0.21)"
        )
        _, m = naive_cc_one_form(fam, ka[0], kb[0], 1e-12)
        assert m > level
        # one eval call, level 8's nodes of both segments, and no segment again
        assert calls == [2 * 9]

    def test_level_4_sums_come_before_level_8_sums(self):
        # segment 0's sum is first NaN at level 8, segment 1's at level 4:
        # both levels read the first batch, and the batch raises at level 4
        fam = rs.point_source([0.3, -0.2, 1.0], [1.0, 0.1, 0.2])
        ka, kb = np.array([[0.0, -0.1], [-0.1, 0.05]]), np.array([[0.05, 0.0], [0.1, 0.21]])
        nodes = families._cc_level(8)[0]

        def nan(line):
            return line.u, line.q * np.nan

        fam = _blemished(fam, ka[0] + nodes[1] * (kb[0] - ka[0]), nan)
        fam = _blemished(fam, ka[1] + nodes[2] * (kb[1] - ka[1]), nan)
        singles, first = segment_oracle(fam, ka, kb, families._INTEGRAL_TOL, row_stage)
        assert [str(s).split(" on ")[0] for s in singles] == [
            "one-form sum over 8 pieces is not finite",
            "one-form sum over 4 pieces is not finite",
        ]
        assert first == 1
        check_against_items(outcome(lambda: rs.one_form_integral(fam, ka, kb)), singles, first)


def _jump_family():
    """Two point sources, one for k1 <= 0.02 and one beyond: u and q jump,
    and no level of a segment across the jump comes within 1e-9 of the
    last (its sums still move by about 1.5e-5 from m = 256 to 512)."""
    left = rs.point_source([0.3, -0.2, 1.0], [0.1, 0.2, -1.0])
    right = rs.point_source([0.3, -0.2, 1.5], [0.3, 0.2, -1.0])

    def _eval(k1, k2):
        a, b = left.eval(k1, k2), right.eval(k1, k2)
        beyond = _col(np.asarray(k1) > 0.02)
        return rs.OrientedLine._exact(np.where(beyond, b.u, a.u), np.where(beyond, b.q, a.q))

    return dataclasses.replace(left, eval=_eval)


class TestOneFormFailure:
    def test_a_segment_that_never_converges_stays_bounded(self):
        fam = _jump_family()
        ka = np.array([[-0.1, 0.0], [-0.1, 0.05], [-0.05, -0.1]])
        kb = np.array([[-0.05, 0.0], [0.1, 0.05], [0.2, 0.1]])
        with pytest.raises(NoConvergenceError) as alone:
            naive_cc_one_form(fam, ka[1], kb[1], 1e-9, max_points=64)
        assert str(alone.value) == (
            "one-form integral did not converge under refinement on k=(-0.1, 0.05) -> (0.1, 0.05)"
        )
        tracemalloc.start()
        try:
            with pytest.raises(NoConvergenceError) as err:
                rs.one_form_integral(fam, ka, kb)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == str(alone.value)
        assert err.value.row == 1
        # two segments of 513 nodes, held about twice, and the matrices G
        # of the levels up to m = 512, about 2.8 MB, built once; the matrix
        # of m = 4096 alone would take 134 MB, hence the budget of 512
        assert peak < 16 * 2**20


def _staircase_family():
    """_jump_family, failing in three windows: where k2 = 0.05 and
    -0.075 < k1 < -0.065, where k2 = -0.1 and -0.055 < k1 < -0.045, and
    where k2 = 0.1 and -0.06 < k1 < -0.05; and the list of the number of
    rays of each eval call."""
    jump = _jump_family()
    rays = []

    def _eval(k1, k2):
        rays.append(np.size(k1))
        k1, k2 = np.asarray(k1), np.asarray(k2)
        late = (k2 == 0.05) & (-0.075 < k1) & (k1 < -0.065)
        early = (k2 == -0.1) & (-0.055 < k1) & (k1 < -0.045)
        latest = (k2 == 0.1) & (-0.06 < k1) & (k1 < -0.05)
        bad = np.flatnonzero(late | early | latest)
        if len(bad):
            raise NoIntersectionError(f"window at k1={float(np.ravel(k1)[bad[0]])!r}").at(bad[0])
        return jump.eval(k1, k2)

    return dataclasses.replace(jump, eval=_eval), rays


class TestFailureStaircase:
    def test_each_earlier_segment_failing_later(self, monkeypatch):
        # segment 0 crosses the jump and never converges (within a budget
        # of 256 nodes); segment 1 has a node of level 8, and not of level
        # 4, in its window; segment 2's midpoint, a node of level 4, lies in
        # its window.  Levels 4 and 8 are one batch, so segments 1 and 2
        # fail at the same stage, before segment 0
        monkeypatch.setattr(families, "_MAX_POINTS", 256)
        fam, rays = _staircase_family()
        ka = np.array([[-0.1, 0.0], [-0.1, 0.05], [-0.1, -0.1]])
        kb = np.array([[0.1, 0.0], [0.0, 0.05], [0.0, -0.1]])
        singles, counts = [], []
        for a, b in zip(ka, kb):
            rays.clear()
            singles.append(outcome(lambda: rs.one_form_integral(fam, a, b)))
            counts.append(sum(rays))
        assert [type(s) for s in singles] == [NoConvergenceError, NoIntersectionError, NoIntersectionError]
        # 9 + 8 + 16 + ... + 128 rays up to m = 256; 9; 9
        assert counts == [257, 9, 9]
        # segment 1 fails in the first batch, the first failing stage, and
        # its rows come before segment 2's
        singles, first = segment_oracle(fam, ka, kb, families._INTEGRAL_TOL)
        assert first == 1
        rays.clear()
        batch = outcome(lambda: rs.one_form_integral(fam, ka, kb))
        check_against_items(batch, singles, first)
        # level 8's nodes of all three segments, and no ray again
        assert rays == [27]

    def test_a_segment_failing_after_an_earlier_one_converged(self):
        # segment 0 converges at m = 8; segment 1 crosses the jump, and its
        # window holds a node of level 16 and none of levels 4 and 8
        fam, rays = _staircase_family()
        ka = np.array([[-0.1, -0.2], [-0.1, 0.1]])
        kb = np.array([[0.0, -0.2], [0.1, 0.1]])
        singles, first = segment_oracle(fam, ka, kb, families._INTEGRAL_TOL)
        assert isinstance(singles[0], float) and isinstance(singles[1], NoIntersectionError)
        rays.clear()
        batch = outcome(lambda: rs.one_form_integral(fam, ka, kb))
        check_against_items(batch, singles, first)
        # level 8's nodes of both segments, then level 16's new nodes of
        # segment 1 alone, and no ray again
        assert rays == [18, 8]


def _small_sphere_family():
    # the family of TestTransformFamily.test_trace_error_carries_parameter
    fam = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.3, 0.3), (-0.3, 0.3)))
    small = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),))
    return rs.transform_family(fam, small)


class TestErrorOrder:
    """The k and message of the first failing node, as the Clenshaw-Curtis
    oracle (or, for the grid, node by node evaluation) finds them."""

    @pytest.mark.parametrize(
        "ka, kb, k",
        [((0.0, 0.0), (0.3, 0.3), 0.14999999999999997), ((0.3, 0.3), (0.0, 0.0), 0.3)],
    )
    def test_one_form_integral(self, ka, kb, k):
        reference = outcome(lambda: naive_cc_one_form(_small_sphere_family(), ka, kb, 1e-9))
        with pytest.raises(FamilyTraceError) as err:
            rs.one_form_integral(_small_sphere_family(), ka, kb)
        assert_same_error(err.value, reference)
        assert err.value.k == (k, k)
        assert str(err.value) == (
            f"at k=({k}, {k}): interface 0: "
            "ray misses Sphere in (0, 1e+06]"
        )

    def test_reconstruct_wavefront(self):
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(_small_sphere_family(), (0.0, 0.0), grid=5)
        k = -0.29999151471862573
        assert err.value.k == (k, k)
        assert str(err.value) == (
            f"at k=({k}, {k}): interface 0: "
            "ray misses Sphere in (0, 1e+06]"
        )


class TestLateFailingBatch:
    """A batch whose failing items come late is not re-run item by item,
    and a failure at a batch's last stage is not re-run at all."""

    @staticmethod
    def counted():
        # rays with k1 above about 0.17 miss the mirror
        source = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.1, 0.3), (-0.1, 0.1)))
        small = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),))
        fam = rs.transform_family(source, small)
        calls = []

        def counting(k1, k2):
            calls.append(np.ndim(k1))
            return fam.eval(k1, k2)

        return dataclasses.replace(fam, eval=counting), calls

    @staticmethod
    def traced_rows(monkeypatch):
        """The list of the rows of each batch that transform_family traces."""
        rows, real = [], families.propagate_system

        def counting(line, system, start=None):
            rows.append(len(line.u))
            return real(line, system, start=start)

        monkeypatch.setattr(families, "propagate_system", counting)
        return rows

    def test_defect_grid(self, monkeypatch):
        fam, calls = self.counted()
        rows = self.traced_rows(monkeypatch)
        with pytest.raises(FamilyTraceError) as err:
            rs.defect_grid(fam)
        assert err.value.k == (0.15000335410196627, -0.099995527864045)
        # node by node re-runs made 48 calls, one of them with scalar k
        assert len(calls) <= 3 and 0 not in calls
        # the 324 stencil lines, traced once
        assert rows == [324]

    def test_reconstruct_wavefront(self, monkeypatch):
        fam, _ = self.counted()
        want = outcome(lambda: staged_wavefront(fam, (0.0, 0.0)))
        rows = self.traced_rows(monkeypatch)
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(fam, (0.0, 0.0))
        assert (str(err.value), err.value.row, err.value.k) == (str(want), want.row, want.k)
        assert err.value.k == (0.14999888196601127, -0.099995527864045) and err.value.row == 45
        # the job's batch of 81 grid lines and 7 * 144 level 8 nodes fails at
        # a grid line, whose error is the grid stage's, and is traced once
        assert rows == [1089]

    def test_is_regular_point(self):
        fam, calls = self.counted()
        k = np.column_stack([np.linspace(-0.05, 0.25, 9), np.zeros(9)])
        with pytest.raises(FamilyTraceError) as err:
            rs.is_regular_point(fam, k, np.ones(9))
        assert err.value.k == (0.175, 0.0) and err.value.row == 6
        # point by point re-runs made 32 calls, 31 of them with scalar k
        assert len(calls) <= 3 and 0 not in calls

    @pytest.mark.parametrize("stage", ["eval", "propagate_system"])
    def test_rows_before_a_failing_stage(self, stage, monkeypatch):
        # rays with k1 above about 0.17 miss the mirror, from row 6 on; the
        # source's eval fails past k1 = 0.22, at row 7: that is the first
        # failing stage, so row 7 names it, and no row is traced; a failure
        # in the system is that of its lowest failing row
        source = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.1, 0.3), (-0.1, 0.1)))
        if stage == "eval":
            source = _past_edge(source, 0.22)
        small = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),))
        fam = rs.transform_family(source, small)
        k1, k2 = np.linspace(-0.1, 0.3, 9), np.zeros(9)
        singles, first = staged_oracle(9, lambda i: fam.eval(k1[i], k2[i]), lambda i, error: trace_stage(error))
        assert first == (7 if stage == "eval" else 6)
        rows = self.traced_rows(monkeypatch)
        with pytest.raises(FamilyTraceError) as err:
            fam.eval(k1, k2)
        assert_same_error(err.value, singles[first])
        assert err.value.row == first
        if stage == "eval":
            assert str(err.value).endswith("k1=0.25 is past the edge") and rows == []
        else:
            assert str(err.value).endswith("interface 0: ray misses Sphere in (0, 1e+06]") and rows == [9]


def _tir_band_family():
    """A collimated beam leaving glass through a corrugated face whose slope
    exceeds the critical angle in narrow bands about y = 0, +-pi/2, ...: the
    grid nodes pass, but refinement nodes fall into the band."""
    wavy = rs.Sinusoid(0.45, [0.0, 2.0])
    system = rs.OpticalSystem(
        (rs.Interface(wavy, rs.REFRACT, n_in=1.5, n_out=1.0),), ambient_index=1.5
    )
    fam = rs.collimated([0, 0, -1], origin=[0, 0, 2], domain=((-0.56, 0.44), (-0.5, 0.5)))
    return rs.transform_family(fam, system)


class TestErrorOrderInsideTheBatch:
    """Several rays of one refinement level fail; the first one is named."""

    def test_one_form_level_two(self):
        # the first level's nodes pass; the second level's node 3 fails
        fam = _tir_band_family()
        reference = outcome(lambda: naive_cc_one_form(fam, (-0.22, 0.1), (0.38, 0.1), 1e-9))
        with pytest.raises(FamilyTraceError) as err:
            rs.one_form_integral(fam, (-0.22, 0.1), (0.38, 0.1))
        assert_same_error(err.value, reference)
        assert err.value.k == (-0.22 + families._cc_level(8)[0][3] * 0.6, 0.1) == (-0.03480502970952695, 0.1)
        assert str(err.value) == (
            "at k=(-0.03480502970952695, 0.1): interface 0: "
            "total internal reflection: (n1/n2) sin(a1) = 1.0021 >= 1"
        )

    def test_reconstruct_wavefront(self):
        # the grid nodes pass; the first segment whose refinement fails alone
        # is named, by the first failing of its level 8 nodes, which the
        # job's one batch evaluates (its level 4 node at k1 = -0.0417 fails
        # too, and the level by level oracle names that one)
        fam = _tir_band_family()
        k1, k2 = families._grid_axes(fam, 9, fam.default_step())
        failing = [isinstance(outcome(lambda: naive_cc_one_form(fam, ka, kb, 1e-9)), RaySpaceError)
                   for ka, kb in wavefront_segments(k1, k2)]
        want = outcome(lambda: staged_wavefront(fam, (-0.06, 0.0)))
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(fam, (-0.06, 0.0))
        assert_same_error(err.value, want)
        assert err.value.row == want.row == failing.index(True) == 4
        k = (-0.05524260534520229, -0.49998585786437627)
        assert err.value.k == k
        assert str(err.value) == (
            f"at k={k}: interface 0: "
            "total internal reflection: (n1/n2) sin(a1) = 1.00005 >= 1"
        )


SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

FAMILY_KINDS = ("point_source", "collimated", "two_skew_lines", "transformed")
BUILDER_KINDS = FAMILY_KINDS + ("normal_congruence",)


def random_family(rng, kind, kinds):
    """A vectorized family of the given kind; "transformed" sends a point
    source aimed at the origin through a random system of the given kinds,
    "normal_congruence" takes the normals of a surface of the first kind
    (a sphere for a quadric)."""
    if kind == "normal_congruence":
        surface = random_surface(rng, "sphere" if kinds[0] == "quadric" else kinds[0])
        return rs.normal_congruence(
            surface, ((-0.2, 0.2), (-0.2, 0.2)), axis=random_unit(rng), outward=rng.random() < 0.5
        )
    if kind == "point_source":
        return rs.point_source(rng.uniform(-1, 1, 3), random_unit(rng))
    if kind == "collimated":
        return rs.collimated(random_unit(rng), origin=rng.uniform(-1, 1, 3))
    if kind == "two_skew_lines":
        return rs.two_skew_lines([0, 0, 0], random_unit(rng), [0, 0, 1], random_unit(rng))
    apex = 6.0 * random_unit(rng)
    source = rs.point_source(apex, -apex, domain=((-0.1, 0.1), (-0.1, 0.1)))
    return rs.transform_family(source, random_system(rng, kinds))


def random_params(rng, family, count, spill=0.0):
    """count parameters in the domain, widened by the fraction spill."""
    (a1, b1), (a2, b2) = family.domain
    w1, w2 = spill * (b1 - a1), spill * (b2 - a2)
    return np.column_stack(
        [rng.uniform(a1 - w1, b1 + w1, count), rng.uniform(a2 - w2, b2 + w2, count)]
    )


def check_against_items(batch, singles, first):
    """A batch outcome against its items' outcomes taken one at a time and
    the index of the item whose error it raises (staged_oracle)."""
    if first is not None:
        assert isinstance(batch, RaySpaceError), batch
        assert_same_error(batch, singles[first])
        assert batch.row == first
    else:
        assert not isinstance(batch, RaySpaceError), batch
        assert isinstance(batch, np.ndarray) and batch.shape == (len(singles),)
        assert all(b == s for b, s in zip(batch, singles))


class TestSegmentBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(FAMILY_KINDS),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        st.integers(1, 6),
    )
    def test_batch_equals_its_segments(self, seed, kind, kinds, count):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, kind, kinds)
        ka = random_params(rng, fam, count)
        kb = random_params(rng, fam, count)

        with pytest.MonkeyPatch.context() as patch:  # a budget of 128 nodes
            patch.setattr(families, "_MAX_POINTS", 128)
            # a plain family evaluates its rows one by one: its eval is one stage
            for family, stage in ((fam, trace_stage), (plain(fam), row_stage)):
                singles, first = segment_oracle(family, ka, kb, 1e-8, stage)
                assert all(isinstance(s, (float, RaySpaceError)) for s in singles)
                batch = outcome(lambda: rs.one_form_integral(family, ka, kb, tol=1e-8))
                check_against_items(batch, singles, first)

    def test_batch_beyond_the_chunk_cap(self, rng):
        lens = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, 0], 2.0), rs.REFRACT, 1.0, 1.5),))
        source = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.15, 0.15), (-0.15, 0.15)))
        fam = rs.transform_family(source, lens)
        ka = random_params(rng, fam, 450)
        kb = ka + rng.uniform(-0.01, 0.01, ka.shape)
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        batch = rs.one_form_integral(dataclasses.replace(fam, eval=counting), ka, kb, tol=1e-7)
        # the first batch holds level 8's 9 nodes per segment, split at _CHUNK rays
        assert calls[:2] == [_CHUNK, 9 * 450 - _CHUNK]
        assert max(calls) <= _CHUNK
        singles = [rs.one_form_integral(fam, a, b, tol=1e-7) for a, b in zip(ka, kb)]
        check_against_items(batch, singles, None)

    def test_single_segment_gives_a_float(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1])
        value = rs.one_form_integral(fam, (0.0, 0.0), (0.1, 0.2))
        assert type(value) is float
        batch = rs.one_form_integral(fam, [(0.0, 0.0)], [(0.1, 0.2)])
        assert batch.shape == (1,) and batch.tobytes() == np.array([value]).tobytes()


class TestAgainstRomberg:
    """The Clenshaw-Curtis integrals at the default tol against the former
    Romberg rule run to tol 1e-14: within 1e-9 per segment."""

    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "mixed_device"])
    def test_bundled_scenes(self, name):
        scene = load_scene(str(SCENES / f"{name}.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        segments = wavefront_segments(*families._grid_axes(fam, 9, fam.default_step()))
        assert len(segments) == 144
        starts, ends = np.array(segments).transpose(1, 0, 2)
        values = rs.one_form_integral(fam, starts, ends)
        for value, (ka, kb) in zip(values, segments):
            assert abs(value - naive_one_form(fam, ka, kb, 1e-14)[0]) <= 1e-9

    @pytest.mark.parametrize("surface", KINDS)
    def test_random_families(self, surface):
        # point sources traced through a surface of the given kind, and
        # through a second random one at odd seeds; segments that fail alone
        # (a ray misses, total internal reflection) are not compared, nor are
        # those where Romberg's round-off stays above 1e-14
        compared = 0
        for seed in range(12):
            rng = np.random.default_rng(seed)
            kinds = [surface] + ([str(rng.choice(KINDS))] if seed % 2 else [])
            fam = random_family(rng, "transformed", kinds)
            for ka, kb in zip(random_params(rng, fam, 4), random_params(rng, fam, 4)):
                value = outcome(lambda: rs.one_form_integral(fam, ka, kb))
                reference = outcome(lambda: naive_one_form(fam, ka, kb, 1e-14))
                if not isinstance(value, RaySpaceError) and not isinstance(reference, RaySpaceError):
                    assert abs(value - reference[0]) <= 1e-9
                    compared += 1
        assert compared >= 20


def node_spread(family, k, t, h):
    """is_regular_point's determinant at (k, t) with step h by the
    nearest-point oracle, one evaluation at a time: the centre line, then
    the four stencil lines."""
    line0 = family.eval(float(k[0]), float(k[1]))
    stencil = node_neighbors(family, k, h)
    us = np.array([line.u for line in stencil])
    qs = np.array([line.q for line in stencil])
    return nearest_point_spread(line0.u, line0.point_at(float(t)), us, qs, h)


def tangent_spread(family, k, t, h):
    """is_regular_point's tangent determinant at (k, t) with step h, as the
    batch of one."""
    ks = np.asarray(k, dtype=float)[None]
    u0, _, _ = _eval_rows(family, ks)
    return _spread(u0, np.array([float(t)]), *_tangents(family, ks, h))[0]


def node_is_regular(family, k, t):
    """is_regular_point one evaluation at a time, by the nearest-point
    oracle."""
    h = family.default_step()
    _require_inside(family, np.asarray(k, dtype=float)[None], h)
    return abs(node_spread(family, k, t, h)) > 1e-8


class TestRegularBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(FAMILY_KINDS),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        st.integers(1, 8),
        st.sampled_from([0.0, 0.1]),
    )
    def test_batch_equals_its_points(self, seed, kind, kinds, count, spill):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, kind, kinds)
        k = random_params(rng, fam, count, spill)
        t = rng.uniform(-8.0, 8.0, count)
        singles, first = regular_oracle(fam, k, t)
        for kk, tt, single in zip(k, t, singles):
            node = outcome(lambda: node_is_regular(fam, kk, tt))
            if isinstance(node, RaySpaceError):
                assert_same_error(single, node)
            else:
                assert single == node
        batch = outcome(lambda: rs.is_regular_point(fam, k, t))
        check_against_items(batch, singles, first)
        if not isinstance(batch, RaySpaceError):
            assert batch.dtype == bool

    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(BUILDER_KINDS),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
    )
    def test_tangent_determinant_against_nearest_points(self, seed, kind, kinds):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, kind, kinds)
        k = 0.9 * random_params(rng, fam, 1)[0]  # inside, with room for a doubled step
        t = rng.uniform(-8.0, 8.0)
        h = fam.default_step()
        both = outcome(lambda: [(node_spread(fam, k, t, s), tangent_spread(fam, k, t, s)) for s in (h, 2.0 * h)])
        if isinstance(both, RaySpaceError):  # a stencil ray fails in the system
            return
        (oracle, det), (oracle2, det2) = both
        # 1e-6 relative, plus each determinant's own truncation error, its
        # change when the step doubles: both are O(h^2) from the exact
        # Jacobian, and on a few draws through strongly curved systems
        # that error exceeds 1e-6 relative (2.4e-5 on one of 3,686 draws)
        margin = 1e-6 * abs(oracle) + abs(det2 - det) + abs(oracle2 - oracle)
        assert abs(det - oracle) <= margin
        if abs(abs(oracle) - 1e-8) > margin:
            assert rs.is_regular_point(fam, k, t) == (abs(oracle) > 1e-8)

    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "two_skew", "mixed_device", "mirror_design"])
    def test_bundled_determinants_within_1e_6(self, name):
        # the source and traced families of each bundled scene on a 9x9
        # grid at random t: the tangent determinant is the nearest-point
        # one within 1e-6 relative, and so is the verdict
        scene = load_scene(str(SCENES / f"{name}.scene"))
        rng = np.random.default_rng(20261020)
        for fam in (scene.family, rs.transform_family(scene.family, scene.system)):
            h = fam.default_step()
            ks = families._nodes(*families._grid_axes(fam, 9, inset=h)).reshape(-1, 2)
            t = rng.uniform(-8.0, 8.0, len(ks))
            u0, q0, _ = _eval_rows(fam, ks)
            us, qs, _ = _eval_rows(fam, (ks[:, None] + _stencil(2, h)).reshape(-1, 2))
            oracle = nearest_point_spread(u0, q0 + t[:, None] * u0, us.reshape(-1, 4, 3), qs.reshape(-1, 4, 3), h)
            det = _spread(u0, t, *_tangents(fam, ks, h))
            assert np.all(abs(det - oracle) <= 1e-6 * abs(oracle))
            assert np.array_equal(rs.is_regular_point(fam, ks, t), abs(oracle) > 1e-8)

    def test_names_the_first_point_outside(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        k = [(0.0, 0.0), (0.1, 0.25), (0.3, 0.0)]
        with pytest.raises(DomainBoundaryError) as err:
            rs.is_regular_point(fam, k, [1.0, 1.0, 1.0])
        assert str(err.value) == "stencil of half-width 5.65685e-06 at k=(0.1, 0.25) leaves the domain"
        assert list(fam.contains(np.array([0.0, 0.1, 0.3]), np.array([0.0, 0.25, 0.0]))) == [
            True,
            False,
            False,
        ]


def tangent_rows(rng, count):
    """Tangents du, dq (count, 2, 3) whose 2x6 matrices [du | dq] mix generic
    rows, rows near rank 1 (singular-value ratios 1e-10 to 1e-6, a fifth of
    them within 1e-5 relative of 1e-8), exactly rank-1 rows and zero rows,
    at scales from 1e-100 to 1e100."""
    m = np.empty((count, 2, 6))
    for row in m:
        kind = rng.integers(4)
        x, y = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
        scale = 10.0 ** rng.uniform(-100.0, 100.0)
        if kind == 0:
            row[:] = rng.normal(size=(2, 6)) * scale
        elif kind == 1:
            ratio = 1e-8 * (1.0 + rng.uniform(-1e-5, 1e-5)) if rng.random() < 0.2 else 10.0 ** rng.uniform(-10, -6)
            turn = np.linalg.qr(rng.normal(size=(2, 2)))[0]
            row[:] = turn @ np.stack([x, ratio * y]) * scale
        elif kind == 2:  # one row a power-of-two multiple of the other, or zero
            row[0] = x * scale
            row[1] = row[0] * rng.choice([0.0, 0.5, -2.0, 1.0])
            row[:] = row[rng.permutation(2)]
        else:
            row[:] = 0.0
    return m[..., :3], m[..., 3:]


class TestImmersionRatio:
    """The closed-form singular-value ratio of the immersion test against the
    stacked SVD (`svd_immersed`)."""

    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_verdicts_against_the_svd(self, seed, count):
        rng = np.random.default_rng(seed)
        du, dq = tangent_rows(rng, count)
        oracle = svd_immersion_ratio(du, dq)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = _immersion_ratio(du.copy(), dq.copy())
        rows = [_immersion_ratio(du[k : k + 1], dq[k : k + 1])[0] for k in range(count)]
        assert ratio.tobytes() == np.array(rows).tobytes()  # bit for bit its rows alone
        clear = abs(oracle / 1e-8 - 1.0) > 1e-6  # outside the band where rounding decides
        assert np.array_equal((ratio > 1e-8)[clear], svd_immersed(du, dq)[clear])
        assert np.all(abs(ratio - oracle) <= 1e-6 * oracle + 1e-14)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_non_finite_tangents_fail_without_a_warning(self, seed, count):
        rng = np.random.default_rng(seed)
        du, dq = tangent_rows(rng, count)
        bad = rng.random(count) < 0.5
        for i in np.flatnonzero(bad):
            (du, dq)[rng.integers(2)][i, rng.integers(2), rng.integers(3)] = rng.choice([np.nan, np.inf, -np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratio = _immersion_ratio(du, dq)
        assert np.all(ratio[bad] == 0.0)
        good = ~bad
        assert np.array_equal(ratio[good], _immersion_ratio(du[good], dq[good]))

    def test_empty_batch(self):
        assert _immersion_ratio(np.zeros((0, 2, 3)), np.zeros((0, 2, 3))).shape == (0,)

    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "two_skew", "mixed_device", "mirror_design"])
    def test_bundled_families(self, name):
        # the source and traced families of each bundled scene on the 9x9
        # grid of their defect grids: the same verdicts and ratios as the SVD
        scene = load_scene(str(SCENES / f"{name}.scene"))
        for fam in (scene.family, rs.transform_family(scene.family, scene.system)):
            h = fam.default_step()
            ks = families._nodes(*families._grid_axes(fam, 9, inset=h)).reshape(-1, 2)
            du, dq = _tangents(fam, ks, h)
            oracle = svd_immersion_ratio(du, dq)
            ratio = _immersion_ratio(du, dq)
            assert np.all(abs(ratio - oracle) <= 1e-12 * oracle)
            assert np.array_equal(ratio > 1e-8, svd_immersed(du, dq))


def _counted(family, calls):
    """The family, its evaluations appending their row counts to calls."""

    def counting(k1, k2):
        calls.append(np.size(k1))
        return family.eval(k1, k2)

    return dataclasses.replace(family, eval=counting)


class TestWavefrontCalls:
    def test_point_plane_eval_calls(self):
        scene = load_scene(str(SCENES / "point_plane.scene"))
        calls = []
        counted = _counted(rs.transform_family(scene.family, scene.system), calls)
        wf = rs.reconstruct_wavefront(
            counted, scene.options["k0"], c=scene.options["wavefront_c"], grid=9
        )
        # one call for the grid lines and the 7 interior nodes of the 144
        # segments' second level (the 3 of their first among them), where
        # all converge; the regularity test reads the node tangents of the
        # one-form levels and evaluates no line
        assert calls == [81 + 7 * 144]
        # the residual reads the grid lines' optical lengths off the
        # wavefront and evaluates no ray
        residual = rs.orthogonality_residual(counted, wf)
        assert len(calls) == 1
        assert residual < 1e-12

    @pytest.mark.parametrize("name", ["point_plane", "mixed_device"])
    def test_segments_reuse_the_grid_lines(self, name, monkeypatch):
        # each segment integral equals one_form_integral of the segment,
        # which evaluates its ends again, bit for bit
        scene = load_scene(str(SCENES / f"{name}.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        legs = []
        real = families._l_paths

        def kept(horiz, vert, i0, j0):
            legs.append((horiz, vert))
            return real(horiz, vert, i0, j0)

        monkeypatch.setattr(families, "_l_paths", kept)
        wf = rs.reconstruct_wavefront(fam, (0.03, -0.02), c=1.5, grid=5)
        (horiz, vert), = legs
        segments = wavefront_segments(wf.k1, wf.k2)
        starts, ends = np.array(segments).transpose(1, 0, 2)
        alone = rs.one_form_integral(fam, starts, ends)
        assert alone.tobytes() == np.concatenate([horiz.T.ravel(), vert.ravel()]).tobytes()
        # the wavefront keeps the grid lines it integrated from
        lines = fam.eval(*families._nodes(wf.k1, wf.k2).reshape(-1, 2).T)
        assert wf.u.tobytes() == lines.u.tobytes() and wf.q.tobytes() == lines.q.tobytes()
        assert wf.length.tobytes() == lines.length.tobytes()

    def test_custom_family_gives_the_same_wavefront(self):
        fam = rs.point_source([0, 0, 5], [0.1, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        wf = rs.reconstruct_wavefront(fam, (0.05, -0.03), c=2.0, grid=5)
        custom = row_by_row(fam.eval, fam.domain)
        wf_custom = rs.reconstruct_wavefront(custom, (0.05, -0.03), c=2.0, grid=5)
        assert np.array_equal(wf_custom.values, wf.values)
        assert np.array_equal(wf_custom.points, wf.points)
        assert rs.orthogonality_residual(custom, wf_custom) == rs.orthogonality_residual(fam, wf)


def _past_edge(family, k1_max):
    """The family with its lines past k1 = k1_max failing, each batch at its
    lowest such row; on a wavefront grid whose last k1 is k1_max, only the
    +k1 stencil lines of the last row's nodes lie there."""

    def _eval(k1, k2):
        past = np.flatnonzero(np.ravel(k1) > k1_max)
        if past.size:
            raise NoIntersectionError(f"k1={float(np.ravel(k1)[past[0]])!r} is past the edge").at(past[0])
        return family.eval(k1, k2)

    return dataclasses.replace(family, eval=_eval)


class TestWavefrontBatch:
    """reconstruct_wavefront, from one batch of lines, gives what its stages
    give one call each (helpers.staged_wavefront): every field byte for
    byte, or an error of the same type, message, row and k."""

    @staticmethod
    def assert_staged(family, k0, **options):
        got = outcome(lambda: rs.reconstruct_wavefront(family, k0, **options))
        want = outcome(lambda: staged_wavefront(family, k0, **options))
        if isinstance(want, RaySpaceError):
            assert type(got) is type(want)
            assert (str(got), got.row) == (str(want), want.row)
            assert getattr(got, "k", None) == getattr(want, "k", None)
            return got
        assert isinstance(got, rs.Wavefront)
        for field in dataclasses.fields(want):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
            else:
                assert a == b, field.name
        return got

    @pytest.mark.parametrize("grid", [3, 5, 9, 13])
    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "mixed_device", "mirror_design", "two_skew"])
    def test_bundled_scenes(self, name, grid):
        # at grid 3 most segments refine past level 8; at grid 13 the batch
        # holds 169 + 7 * 312 + 4 * 169 = 3,029 rows, more than one call of
        # _CHUNK
        scene = load_scene(str(SCENES / f"{name}.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        options = dict(c=scene.options.get("wavefront_c", 0.0), grid=grid)
        got = self.assert_staged(fam, scene.options.get("k0", (0.0, 0.0)), **options)
        assert isinstance(got, NotRectangularError if name == "two_skew" else rs.Wavefront)

    def test_segments_refining_past_level_8(self):
        # the 12 segments of a 3x3 grid are long enough that 11 refine on
        scene = load_scene(str(SCENES / "mixed_device.scene"))
        calls = []
        fam = _counted(rs.transform_family(scene.family, scene.system), calls)
        self.assert_staged(fam, (0.0, 0.0), grid=3)
        # the job's batch, then level 16's 8 new nodes of each segment still
        # refining; then the oracle's stages
        assert calls[:2] == [9 + 7 * 12, 8 * 11]

    @pytest.mark.parametrize("grid", [5, 9])
    def test_grid_lines_miss(self, grid):
        err = self.assert_staged(_small_sphere_family(), (0.0, 0.0), grid=grid)
        assert isinstance(err, FamilyTraceError)

    def test_only_stencil_lines_fail(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        k1 = families._grid_axes(fam, 9, fam.default_step())[0]
        calls = []
        edge = _counted(_past_edge(fam, k1[-1]), calls)
        # only the +k1 stencil lines of the last row's nodes would lie past
        # the edge, and the job evaluates no stencil line: it succeeds
        got = self.assert_staged(edge, (0.0, 0.0), c=2.0, grid=9)
        assert isinstance(got, rs.Wavefront)
        # the job's batch, and no line again; then the oracle's batch
        assert calls[:2] == [1089, 1089]
        # a node that is not regular fails the regularity test, edge or not
        err = self.assert_staged(edge, (0.0, 0.0), c=5.0, grid=9)
        assert isinstance(err, NonRegularError) and err.row == 0
        err = self.assert_staged(fam, (0.0, 0.0), c=5.0, grid=9)
        assert isinstance(err, NonRegularError) and err.row == 0

    def test_not_regular(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        err = self.assert_staged(fam, (0.0, 0.0), c=5.0)
        assert isinstance(err, NonRegularError)

    def test_not_rectangular_wins_over_failing_stencil_lines(self):
        # only stencil lines would lie past the last grid line, and the job
        # evaluates none: the L-path test fails as without the edge
        scene = load_scene(str(SCENES / "two_skew.scene"))
        k1 = families._grid_axes(scene.family, 9, scene.family.default_step())[0]
        err = self.assert_staged(_past_edge(scene.family, k1[-1]), (0.0, 0.0))
        assert isinstance(err, NotRectangularError)
        want = self.assert_staged(scene.family, (0.0, 0.0))
        assert isinstance(want, NotRectangularError) and str(err) == str(want)


def _point_source_tangents(apex, axis, ks):
    """The tangents du, dq (N, 2, 3) of point_source(apex, axis) at the
    rows of ks (N, 2), in closed form: with d = a + k1 e1 + k2 e2 and
    u = d / |d|, du_i = (e_i - (u . e_i) u) / |d|, and the foot point
    q = apex - (apex . u) u gives dq_i = -(apex . du_i) u - (apex . u) du_i."""
    apex = np.asarray(apex, dtype=float)
    a, e1, e2 = _frame(axis)
    d = a + ks[:, :1] * e1 + ks[:, 1:] * e2
    size = np.linalg.norm(d, axis=1)[:, None]
    u = d / size
    du = np.stack([(e - (u @ e)[:, None] * u) / size for e in (e1, e2)], axis=1)
    dq = -(du @ apex)[..., None] * u[:, None] - (u @ apex)[:, None, None] * du
    return du, dq


class TestNodeTangents:
    """The node tangents of a wavefront's one-form levels
    (families._wavefront_levels) are each segment's alone, bit for bit
    (helpers.node_tangents_oracle), and the derivatives of the family
    within 1e-8 (closed form) or 1e-7 (central differences) relative, plus
    their own truncation error, the interpolant's Chebyshev tail, and that
    of the central differences, their change when the step doubles.  The
    one-form stopping rule bounds the integral, not the end derivatives, so
    a steep family can leave them off by more than the relative bound alone
    (9.2e-7 relative on one of 1,287 random families, bare or through
    1-3 interfaces)."""

    @staticmethod
    def check(family, grid):
        """The nodes and the node tangents of the wavefront batch of
        `family`, checked against the oracle bit for bit, and the oracle's
        truncation estimate (N, 2)."""
        k1, k2, ks, *_, du, dq = families._wavefront_levels(family, grid, family.default_step())
        want_u, want_q, tail = node_tangents_oracle(family, k1, k2)
        assert du.tobytes() == want_u.tobytes() and dq.tobytes() == want_q.tobytes()
        return ks, du, dq, tail

    @staticmethod
    def misses(du, dq, want_u, want_q):
        """The distances (N, 2) from each tangent [du | dq] to the wanted
        one, and the sizes of the wanted ones."""
        return (
            np.sqrt(_norm(du - want_u) ** 2 + _norm(dq - want_q) ** 2),
            np.sqrt(_norm(want_u) ** 2 + _norm(want_q) ** 2),
        )

    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.01, 0.8),
        st.tuples(st.sampled_from([3, 5, 9]), st.sampled_from([3, 5, 9])),
    )
    def test_point_source_closed_form(self, seed, half_width, grid):
        rng = np.random.default_rng(seed)
        apex, axis = rng.uniform(-3.0, 3.0, 3), random_unit(rng)
        fam = rs.point_source(apex, axis, domain=((-half_width, half_width),) * 2)
        ks, du, dq, tail = self.check(fam, grid)
        miss, size = self.misses(du, dq, *_point_source_tangents(apex, axis, ks))
        assert (miss <= 1e-8 * size + tail).all()

    @pytest.mark.parametrize("grid, half_width", [(3, 0.5), (5, 0.4), (9, 0.8)])
    def test_bundled_point_source_within_1e_8(self, grid, half_width):
        # the source of point_plane: on these grids every segment converges
        # where its end derivatives are within 1e-8 relative
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-half_width, half_width),) * 2)
        ks, du, dq, _ = self.check(fam, grid)
        miss, size = self.misses(du, dq, *_point_source_tangents([0, 0, 5], [0, 0, -1], ks))
        assert (miss <= 1e-8 * size).all()

    @settings(max_examples=60)  # about two in three draws miss or fail in the system
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=3),
        st.tuples(st.sampled_from([3, 5, 9]), st.sampled_from([3, 5, 9])),
    )
    def test_through_systems_against_central_differences(self, seed, kinds, grid):
        fam = random_family(np.random.default_rng(seed), "transformed", kinds)
        h = fam.default_step()
        try:
            ks, du, dq, tail = self.check(fam, grid)
            fd, fd2 = families._tangents(fam, ks, h), families._tangents(fam, ks, 2.0 * h)
        except RaySpaceError:  # a line of the batch or a stencil line fails in the system
            return
        miss, size = self.misses(du, dq, *fd)
        own = self.misses(*fd2, *fd)[0]
        assert (miss <= 1e-7 * size + tail + own).all()


class TestEvalRows:
    def test_chunks_fill_one_pair_of_arrays(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1])
        ks = np.random.default_rng(5).uniform(-0.3, 0.3, (64 * _CHUNK, 2))
        tracemalloc.start()
        try:
            u, q, _ = _eval_rows(fam, ks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one copy of the result, plus one call's working arrays
        assert peak <= 1.25 * (u.nbytes + q.nbytes)
        for a in (0, 17 * _CHUNK, len(ks) - _CHUNK):
            line = fam.eval(*ks[a : a + _CHUNK].T)
            assert u[a : a + _CHUNK].tobytes() == line.u.tobytes()
            assert q[a : a + _CHUNK].tobytes() == line.q.tobytes()

    def test_one_call_and_row_by_row(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1])
        ks = np.random.default_rng(6).uniform(-0.3, 0.3, (3, 2))
        u, q, length = _eval_rows(fam, ks)
        line = fam.eval(*ks.T)
        assert u.shape == q.shape == (3, 3)
        assert u.tobytes() == line.u.tobytes() and q.tobytes() == line.q.tobytes()
        assert length.tobytes() == line.length.tobytes()
        u1, q1, length1 = _eval_rows(plain(fam), ks)
        assert u1.tobytes() == u.tobytes() and q1.tobytes() == q.tobytes()
        assert length1 is None
        u0, q0, _ = _eval_rows(plain(fam), ks[:1])
        assert u0.shape == (1, 3) and u0.tobytes() == u[:1].tobytes()


class TestLPaths:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 29),
        st.integers(2, 29),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    def test_equal_to_the_scalar_sums(self, seed, n1, n2, a, b):
        rng = np.random.default_rng(seed)
        # magnitudes spread over decades, so that the order of the sums shows
        horiz = rng.normal(size=(n1 - 1, n2)) * 10.0 ** rng.uniform(-8, 2, (n1 - 1, n2))
        vert = rng.normal(size=(n1, n2 - 1)) * 10.0 ** rng.uniform(-8, 2, (n1, n2 - 1))
        i0, j0 = int(a * (n1 - 1)), int(b * (n2 - 1))
        got = families._l_paths(horiz, vert, i0, j0)
        want = l_paths_oracle(horiz, vert, i0, j0)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_mirror_wavefront(self, monkeypatch):
        # the 13 x 13 grid of the bundled mirror design, and its strided
        # views of the segment integrals
        scene = load_scene(str(SCENES / "mirror_design.scene"))
        calls = []
        real = families._l_paths

        def checked(horiz, vert, i0, j0):
            got = real(horiz, vert, i0, j0)
            want = l_paths_oracle(horiz, vert, i0, j0)
            calls.append(horiz.shape)
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
            return got

        monkeypatch.setattr(families, "_l_paths", checked)
        rs.reconstruct_wavefront(scene.family, (0.01, -0.02), c=0.5, grid=13)
        assert calls == [(12, 13)]


class TestOrthogonalityReference:
    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "mixed_device"])
    def test_equals_node_by_node(self, name):
        scene = load_scene(str(SCENES / f"{name}.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        wf = rs.reconstruct_wavefront(fam, (0.03, -0.02), c=1.5, grid=5)
        residual = rs.orthogonality_residual(fam, wf)
        assert 0.0 < residual < 1e-8
        assert residual == naive_orthogonality_residual(fam, wf)


class TestErrorOrderOfWavefrontBatches:
    """The errors that node by node evaluation raises."""

    def test_first_non_regular_node(self):
        # the family of TestWavefront.test_wavefront_through_apex_rejected
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        with pytest.raises(NonRegularError) as err:
            rs.reconstruct_wavefront(fam, k0=(0, 0), c=5.0)
        k = -0.1999943431457505
        assert str(err.value) == f"wavefront point at k=({k}, {k}) is not regular"

    def test_lowest_node_off_the_mirror_raises(self):
        # the rays of the grid nodes with k1 >= 0 may miss the mirror; the
        # grid lines are evaluated in one batch, before any segment
        fam = _sphere_edge_family()
        k1, k2 = families._grid_axes(fam, 5, fam.default_step())
        reference = outcome(lambda: [fam.eval(a, b) for a in k1 for b in k2])
        assert isinstance(reference, FamilyTraceError)
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(fam, (0.0, 0.0), grid=5)
        assert_same_error(err.value, reference)
        # the lowest failing node is the first of the centre column, k1 = 0
        assert err.value.k == (0.0, k2[0])
        assert err.value.row == 2 * len(k2)

    def test_failing_line_names_its_node(self):
        # a family evaluated at the nodes row by row
        fam = rs.point_source([0, 0, 5], [0.1, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        wf = rs.reconstruct_wavefront(fam, (0.05, -0.03), c=2.0, grid=5)
        bad = [(wf.k1[1], wf.k2[3]), (wf.k1[3], wf.k2[0])]

        def line_at(k1, k2):
            if (k1, k2) in bad:
                raise FamilyTraceError((k1, k2), TraceError(0, NoIntersectionError("ray misses Sphere")))
            return fam.eval(k1, k2)

        failing = row_by_row(line_at, fam.domain)
        reference = outcome(lambda: [failing.eval(a, b) for a in wf.k1 for b in wf.k2])
        assert isinstance(reference, FamilyTraceError)
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(failing, (0.05, -0.03), c=2.0, grid=5)
        assert_same_error(err.value, reference)
        assert err.value.k == bad[0]
        assert err.value.row == 1 * len(wf.k2) + 3


def _sphere_edge_family():
    """A point source whose rays with k1 > 0 miss a sphere mirror; the nodes
    of a grid with k1 < 0 trace."""
    source = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.3, 0.3), (-0.3, 0.3)))
    mirror = rs.OpticalSystem((rs.Interface(rs.Sphere([0, -0.9, -3.0], 1.2), rs.REFLECT, 1.0),))
    return rs.transform_family(source, mirror)


def check_defect_grid(family, grid):
    """defect_grid of the family and of its plain wrapper, whose eval is
    one stage, against the node by node loop: equal values under ==, or the
    same error, naming the same node.  Returns the family's loop's values or
    error."""
    references = []
    for fam, stage in ((family, trace_stage), (plain(family), row_stage)):
        reference = outcome(lambda: node_defect_grid(fam, grid, eval_stage=stage))
        batch = outcome(lambda: rs.defect_grid(fam, grid))
        if isinstance(reference, RaySpaceError):
            assert isinstance(batch, RaySpaceError), batch
            assert_same_error(batch, reference)
            assert batch.row == reference.row
        else:
            assert not isinstance(batch, RaySpaceError), batch
            assert np.array_equal(batch.values, reference)
        references.append(reference)
    return references[0]


class TestDefectGridBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(BUILDER_KINDS),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        st.integers(3, 6),
    )
    def test_grid_equals_node_by_node(self, seed, kind, kinds, grid):
        rng = np.random.default_rng(seed)
        fam = random_family(rng, kind, kinds)
        check_defect_grid(fam, grid)
        k = 0.9 * random_params(rng, fam, 1)[0]  # inside the domain of these families
        h = fam.default_step()
        reference = outcome(lambda: stencil_defect(node_neighbors(fam, k, h), h))
        single = outcome(lambda: rs.defect(fam, k))
        if isinstance(reference, RaySpaceError):
            assert_same_error(single, reference)
        else:
            assert type(single) is float and single == reference

    def test_device_grid_in_one_eval_call(self):
        fam = rs.transform_family(device_source(), make_device())
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        grid = rs.defect_grid(dataclasses.replace(fam, eval=counting), grid=9)
        # node by node evaluation made 324 calls of one ray
        assert len(calls) <= -(-4 * 81 // _CHUNK) == 1
        assert sum(calls) == 4 * 81
        assert np.array_equal(grid.values, node_defect_grid(fam, 9))

    def test_grid_beyond_the_chunk_cap(self):
        fam = rs.point_source([0.3, -0.2, 1.0], [0.1, 0.2, -1.0])
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        grid = rs.defect_grid(dataclasses.replace(fam, eval=counting), grid=23)
        assert calls == [_CHUNK, 4 * 23 * 23 - _CHUNK]
        assert np.array_equal(grid.values, node_defect_grid(fam, 23))

    def test_trace_failure_names_the_first_node(self):
        err = check_defect_grid(_sphere_edge_family(), 5)
        # the +k1 neighbour of the first node with k1 > 0, at float parameters
        assert isinstance(err, FamilyTraceError)
        assert err.k == (8.485281374238571e-06, -0.29999151471862573)
        with pytest.raises(FamilyTraceError) as single:
            rs.defect(_sphere_edge_family(), (0.0, -0.29))
        assert single.value.k == (8.485281374238571e-06, -0.29)

    def test_immersion_failure_before_a_later_trace_failure(self):
        # the first node is not an immersion, but the stencil lines, the
        # first stage, fail at a later node: the trace failure is raised
        fam = flat_for_negative_k1(_sphere_edge_family())
        k, h = -0.29999151471862573, fam.default_step()
        assert not immersion_ok(node_neighbors(fam, (k, k), h), h)
        err = check_defect_grid(fam, 5)
        assert isinstance(err, FamilyTraceError)
        # the +k1 stencil line of the first node with k1 = 0, node 10
        assert err.k == (8.485281374238571e-06, k) and err.row == 10
        later = outcome(lambda: rs.defect(fam, (0.0, k)))
        assert isinstance(later, FamilyTraceError) and later.k == err.k

    def test_chart_coordinates_of_a_batch(self, rng):
        u = np.array([random_unit(rng) for _ in range(40)])
        lines = rs.line_through(rng.normal(size=(40, 3)), u)
        charts = np.where(rng.random(40) < 0.5, rs.NORTH, rs.SOUTH)
        near_pole = np.where(charts == rs.NORTH, lines.u[:, 2] > 0.9, lines.u[:, 2] < -0.9)
        charts[near_pole] = rs.chart_for(lines.u[near_pole])
        xs, _ = rs.chart_coords(lines, charts)
        for i in range(40):
            x, _ = rs.chart_coords(_ray(lines, i), str(charts[i]))
            assert np.array_equal(xs[i], x)
        pole = rs.line_through([0, 0, 0], [[1.0, 0, 0], [0, 0, -1.0], [0, 0, 1.0]])
        with pytest.raises(ChartDomainError, match="south pole for chart SOUTH"):
            rs.chart_coords(pole, np.array([rs.NORTH, rs.SOUTH, rs.NORTH]))


class TestChartJacobianBatch:
    """chart_jacobian maps the line and its eight stencil lines in one call
    and gives, bit for bit, the column-by-column Jacobian of one line at a
    time (chart_jacobian_oracle), or raises what the oracle raises."""

    def test_lines_from_chart_coordinates_of_a_batch(self, rng):
        lines = rs.line_through(rng.normal(size=(40, 3)), rng.normal(size=(40, 3)))
        xs, charts = rs.chart_coords(lines)
        for chart_id in (charts, rs.NORTH, rs.SOUTH):
            back = rs.line_from_coords(xs, chart_id)
            for i in range(40):
                one = rs.line_from_coords(xs[i], str(np.broadcast_to(chart_id, 40)[i]))
                assert np.array_equal(back.u[i], one.u) and np.array_equal(back.q[i], one.q)

    # at 1e100 the metric underflows to zero; at 1e80 it is about 1e-320
    # and the solved line is not finite
    @pytest.mark.parametrize("far", [1e80, 1e100])
    def test_far_out_coordinates_name_their_row(self, rng, far):
        lines = rs.line_through(rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
        xs, charts = rs.chart_coords(lines)
        xs[[1, 3], 0] += far
        with pytest.raises(ChartDomainError) as alone:
            rs.line_from_coords(xs[1], str(charts[1]))
        with pytest.raises(ChartDomainError) as err:
            rs.line_from_coords(xs, charts)
        assert str(err.value) == str(alone.value) == "chart coordinates too far out: no finite line"
        assert err.value.row == 1

    def assert_same_jacobian(self, transform, line, **kw):
        calls = []

        def counted(lines):
            calls.append(lines.u.shape)
            return transform(lines)

        jac, chart_in, chart_out = rs.chart_jacobian(counted, line, **kw)
        assert calls == [(9, 3)]
        want, want_in, want_out = chart_jacobian_oracle(transform, line, **kw)
        assert jac.tobytes() == want.tobytes()
        assert (chart_in, chart_out) == (want_in, want_out)

    @pytest.mark.parametrize("kind", KINDS)
    def test_reflection_and_refraction(self, rng, kind):
        for _ in range(3):
            surface = random_surface(rng, kind)
            line, _, t0 = aimed_line(rng, surface)
            self.assert_same_jacobian(lambda l: rs.reflect_line(l, surface, t_min=t0)[0], line)
            self.assert_same_jacobian(
                lambda l: rs.refract_line(l, surface, 1.0, 1.5, t_min=t0)[0], line
            )

    def test_identity_with_forced_charts_and_a_translation(self, rng):
        shift = np.array([0.7, -1.3, 2.1])
        for _ in range(5):
            u = [rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5)]
            line = rs.line_through(rng.normal(size=3), u)
            for chart_in, chart_out in ((rs.NORTH, rs.SOUTH), (rs.SOUTH, rs.NORTH)):
                self.assert_same_jacobian(
                    lambda l: l, line, chart_in=chart_in, chart_out=chart_out
                )
            self.assert_same_jacobian(lambda l: rs.line_through(l.q + shift, l.u), line, h=1e-4)

    def test_failing_stencil_line_raises_like_the_oracle(self):
        # refraction out of glass just below the critical angle: some
        # stencil lines are totally reflected, the line itself is not
        sin_in = 1.0 / 1.5 - 1e-8
        line = rs.line_through([0.0, 0.0, 1.0], [sin_in, 0.0, -np.sqrt(1.0 - sin_in**2)])

        def transform(l):
            return rs.refract_line(l, rs.Plane([0, 0, 1], 0.0), 1.5, 1.0)[0]

        transform(line)
        got = outcome(lambda: rs.chart_jacobian(transform, line))
        want = outcome(lambda: chart_jacobian_oracle(transform, line))
        assert isinstance(want, TotalInternalReflectionError)
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == 0

    def assert_same_batch(self, transform, lines, **kw):
        calls = []

        def counted(batch):
            calls.append(batch.u.shape)
            return transform(batch)

        jac, chart_in, chart_out = rs.chart_jacobian(counted, lines, **kw)
        n = len(lines.u)
        assert calls == [(9 * n, 3)] and jac.shape == (n, 4, 4)
        for j in range(n):
            want, want_in, want_out = chart_jacobian_oracle(transform, _ray(lines, j), **kw)
            assert jac[j].tobytes() == want.tobytes()
            assert (chart_in[j], chart_out[j]) == (want_in, want_out)
        return chart_in, chart_out

    def test_batches_mixing_north_and_south_charts(self, rng):
        # reflection and refraction inside a large sphere; the feet spread
        # over |q| < 1 and |q| > 1, so the default step differs by line
        sphere = rs.Sphere([0.1, -0.2, 0.3], 10.0)
        lines = rs.line_through(rng.normal(size=(12, 3)), rng.normal(size=(12, 3)))
        for transform in (
            lambda l: rs.reflect_line(l, sphere)[0],
            lambda l: rs.refract_line(l, sphere, 1.0, 1.3)[0],
        ):
            chart_in, chart_out = self.assert_same_batch(transform, lines)
            assert set(chart_in) == set(chart_out) == {rs.NORTH, rs.SOUTH}
            self.assert_same_batch(transform, lines, h=1e-4)
        across = [1.0, 0.5, 0.0] + rng.uniform(-0.4, 0.4, (6, 3))  # both charts serve
        flat = rs.line_through(rng.normal(size=(6, 3)), across)
        for chart_in, chart_out in ((rs.NORTH, rs.SOUTH), (rs.SOUTH, rs.NORTH)):
            self.assert_same_batch(lambda l: l, flat, chart_in=chart_in, chart_out=chart_out)

    @staticmethod
    def steep_batch(n, j, u_j):
        """n lines down onto the plane z = -1, steep but for line j, which
        goes along u_j."""
        rng = np.random.default_rng(j)
        u = np.column_stack([rng.uniform(-0.2, 0.2, (n, 2)), -np.ones(n)])
        u[j] = u_j
        points = np.column_stack([rng.uniform(-0.5, 0.5, (n, 2)), np.ones(n)])
        return rs.line_through(points, u)

    def critical_batch(self, n, j):
        """Line j leaves glass just below the critical angle: some of its
        stencil lines are totally reflected, the line itself is not."""
        sin_in = 1.0 / 1.5 - 1e-8
        return self.steep_batch(n, j, [sin_in, 0.0, -np.sqrt(1.0 - sin_in**2)])

    @staticmethod
    def leave_glass(l):
        return rs.refract_line(l, rs.Plane([0, 0, 1], -1.0), 1.5, 1.0)[0]

    @pytest.mark.parametrize("j", [0, 2, 4])
    def test_a_failing_line_raises_the_oracles_error_with_its_row(self, j):
        lines = self.critical_batch(5, j)
        got = outcome(lambda: rs.chart_jacobian(self.leave_glass, lines))
        want = outcome(lambda: chart_jacobian_oracle(self.leave_glass, _ray(lines, j)))
        assert isinstance(want, TotalInternalReflectionError)
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == j
        if j:  # the lines before it map
            self.assert_same_batch(self.leave_glass, _ray(lines, slice(j)))

    @pytest.mark.parametrize("j", [0, 3])
    def test_a_line_failing_at_the_output_charts_names_its_row(self, j):
        # line j goes straight down, so its images lie at the pole of chart
        # SOUTH
        lines = self.steep_batch(5, j, [0.0, 0.0, -1.0])
        got = outcome(lambda: rs.chart_jacobian(self.leave_glass, lines, chart_out=rs.SOUTH))
        want = outcome(
            lambda: chart_jacobian_oracle(self.leave_glass, _ray(lines, j), chart_out=rs.SOUTH)
        )
        assert isinstance(want, ChartDomainError)
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == j
        if j:  # the lines before it map
            self.assert_same_batch(self.leave_glass, _ray(lines, slice(j)), chart_out=rs.SOUTH)

    def test_the_first_failing_stage_decides(self):
        # line 0 goes straight down and fails at the output charts, line 2
        # at the map, which comes first: the batch raises line 2's error
        lines = self.critical_batch(5, 2)
        lines = rs.line_through(lines.q, np.vstack([[0.0, 0.0, -1.0], lines.u[1:]]))
        got = outcome(lambda: rs.chart_jacobian(self.leave_glass, lines, chart_out=rs.SOUTH))
        want = outcome(
            lambda: chart_jacobian_oracle(self.leave_glass, _ray(lines, 2), chart_out=rs.SOUTH)
        )
        assert isinstance(want, TotalInternalReflectionError)
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == 2


class TestSymplecticResidualStack:
    def test_a_stack_gives_each_matrix_residual(self, rng):
        jacs = rng.normal(size=(2, 3, 4, 4)) * 10.0 ** rng.uniform(-3, 3, (2, 3, 1, 1))
        for stack in (jacs, jacs.swapaxes(-1, -2)):  # chart_jacobian gives transposed views
            for scale in (1.0, 1.0 / 1.5):
                got = rs.symplectic_residual(stack, scale=scale)
                want = [[rs.symplectic_residual(j, scale=scale) for j in row] for row in stack]
                assert got.shape == (2, 3)
                assert got.tobytes() == np.array(want).tobytes()
                assert all(type(x) is float for row in want for x in row)


def check_roots(surface, lines, t_min, t_max):
    """Sinusoid.roots of a batch against the per-ray search, bit for bit, and
    each ray's roots alone (the batch of one) against it too; returns the
    roots or the error."""
    singles, first = staged_oracle(  # the search is one stage
        len(t_min),
        lambda i: sinusoid_first_root(surface, lines.u[i], lines.q[i], t_min[i], t_max),
        lambda i, error: (),
    )
    batch = outcome(lambda: surface.roots(lines, t_min, t_max))
    if first is not None:
        assert_same_error(batch, singles[first])
        assert batch.row == first
        return batch
    assert batch.shape == (len(t_min), 1)
    assert batch[:, 0].tobytes() == np.array(singles, dtype=float).tobytes()
    for i in range(len(t_min)):
        alone = surface.roots(_ray(lines, slice(i, i + 1)), t_min[i : i + 1], t_max)
        assert alone.shape == (1, 1) and alone.tobytes() == batch[i].tobytes()
    return batch[:, 0]


def sinusoid_rays(rng, amplitude, count):
    """Rays of the cases the search treats apart, and one t_min per ray
    (counted from the ray's start point, some beyond every root): steep,
    shallow (long windows), flat (|u_z| <= 1e-12) inside and outside the
    amplitude band, of any direction, and vertical through the origin, where
    g(t) = -t vanishes exactly at the sample t = 0, with t_min at or below
    that root."""
    band = abs(amplitude)
    starts, dirs, t_min = [], [], []
    for _ in range(count):
        case = rng.integers(5)
        if case == 0:  # vertical through the origin
            starts.append([0.0, 0.0, 0.0])
            dirs.append([0.0, 0.0, -1.0])
            t_min.append(rng.choice([-1.0, 0.0, -band]))
            continue
        if case == 1:  # any direction
            starts.append(rng.uniform(-2.0, 2.0, 3))
            dirs.append(rng.normal(size=3))
        else:
            uz = {
                2: rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 1.0),
                3: rng.choice([-1.0, 1.0]) * rng.uniform(1e-3, 1e-2),
                4: rng.choice([0.0, 1e-13, -8e-13]),
            }[case]
            inside = rng.uniform(-band, band)
            outside = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0) * band
            azimuth = rng.uniform(0.0, 2.0 * np.pi)
            starts.append([rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.choice([inside, outside])])
            dirs.append([np.cos(azimuth), np.sin(azimuth), uz])
        t_min.append(rng.choice([rng.uniform(-5.0, 1.0), 1e3]))
    starts = np.array(starts)
    lines = rs.line_through(starts, np.array(dirs))
    return lines, np.vecdot(starts - lines.q, lines.u) + np.array(t_min)


class TestSinusoidRootsBatch:
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.sampled_from([1.0, 30.0]),
        st.sampled_from([1e6, 40.0, 0.5]),
    )
    def test_batch_equals_its_rays(self, seed, count, scale, t_max):
        rng = np.random.default_rng(seed)
        amplitude = rng.choice([-1.0, 1.0]) * rng.uniform(0.01, 0.5)
        surface = rs.Sinusoid(amplitude, scale * rng.uniform(-1.5, 1.5, 2))
        if scale > 1.0:
            t_max = min(t_max, 40.0)  # flat rays of many samples: a shorter window
        lines, t_min = sinusoid_rays(rng, amplitude, count)
        check_roots(surface, lines, t_min, t_max)

    def test_zero_sample_and_candidate_at_t_min(self):
        surface = rs.Sinusoid(0.2, [0.7, -0.4])
        dirs = np.array([[0.0, 0.0, -1.0]] * 3 + [[1.0, 0.0, 0.0]])
        lines = rs.line_through(np.zeros((4, 3)), dirs)
        roots = check_roots(surface, lines, np.array([-1.0, 0.0, -0.1, 0.0]), 1e6)
        # the vertical rays have g(t) = -t: the sample t = 0 is the root, and
        # at t_min it is skipped; the flat one, g(t) = -0.2 sin(0.7 t), has
        # its next root at pi / 0.7
        assert roots[0] == 0.0 and np.isnan(roots[1]) and roots[2] == 0.0
        assert abs(roots[3] - np.pi / 0.7) < 1e-12
        # the root as the last sample of the window, which np.linspace sets to
        # the window's end: 3 * ((0 - start) / 3) + start falls below 0 here
        first = rs.OrientedLine(lines.u[:1], lines.q[:1])
        assert check_roots(surface, first, np.array([-1.0]), 0.0).tolist() == [0.0]
        wide = rs.Sinusoid(1.55, [0.7, -0.4])
        start = -(1.55 + 1e-12)
        assert 3 * ((0.0 - start) / 3) + start < 0.0
        assert check_roots(wide, first, np.array([-5.0]), 0.0).tolist() == [0.0]

    def test_batch_beyond_the_sample_cap(self, rng):
        surface = rs.Sinusoid(0.3, [25.0, 10.0])
        starts = np.column_stack([rng.uniform(-2, 2, 100), rng.uniform(-2, 2, 100), np.full(100, 0.5)])
        dirs = np.column_stack([rng.normal(size=(100, 2)), np.full(100, -0.01)])
        lines = rs.line_through(starts, dirs)
        t_min = np.vecdot(starts - lines.q, lines.u)
        roots = check_roots(surface, lines, t_min, 1e6)
        assert not np.isnan(roots).any()
        assert 100 * 2 * 0.3 / 0.01 / (np.pi / 4.0 / 27.0) > 2 * _SCAN_SAMPLES  # three groups or more

    def test_budget_error_of_the_first_offending_ray(self):
        surface = rs.Sinusoid(0.2, [1e6, 0.0])
        starts = np.array([[0.0, 0.0, 3.0], [0.0, 0.0, 0.1], [0.0, 0.0, 9.0], [0.0, 0.0, 0.1]])
        dirs = np.array([[0.0, 0.0, -1.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        lines = rs.line_through(starts, dirs)
        t_min = np.vecdot(starts - lines.q, lines.u)
        err = check_roots(surface, lines, t_min, 1e6)
        assert isinstance(err, NoIntersectionError)
        assert str(err) == "sinusoid root search budget exceeded"
        # the root search is intersect's first stage: its budget error wins
        # over the miss of the lower ray 2 in the hit checks
        with pytest.raises(NoIntersectionError, match=r"ray misses Sinusoid in \(9, 1e\+06\]"):
            rs.intersect(_ray(lines, 2), surface, t_min[2])
        with pytest.raises(NoIntersectionError, match="^sinusoid root search budget exceeded$") as budget:
            rs.intersect(rs.OrientedLine(lines.u[[0, 2, 3]], lines.q[[0, 2, 3]]), surface, t_min[[0, 2, 3]])
        assert budget.value.row == 2
