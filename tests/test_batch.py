"""Batches of rays against the same rays one at a time.

Every function of the ray core that takes (N, 3) arrays must give, row by
row, bit for bit what the rows give alone, and a failing batch must raise
exactly what its lowest-index failing ray raises alone.  One-form
integration of a vectorized family evaluates each refinement level in one
call, over the new midpoints only.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rayspace as rs
from rayspace.errors import (
    FamilyTraceError,
    GrazingError,
    NoIntersectionError,
    RaySpaceError,
    TangentialError,
    TotalInternalReflectionError,
    TraceError,
)

from helpers import (
    device_source,
    make_device,
    nested_sphere_system,
    random_surface,
    random_unit,
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
    """Trace the rays as one batch and one by one and compare the two."""
    lines = rs.line_through(starts, dirs)
    singles = []
    for i in range(len(starts)):
        line = rs.line_through(starts[i], dirs[i])
        assert np.array_equal(line.u, lines.u[i]) and np.array_equal(line.q, lines.q[i])
        singles.append(outcome(lambda: rs.propagate_system(line, system, start=starts[i])))
    batch = outcome(lambda: rs.propagate_system(lines, system, start=starts))
    failures = [s for s in singles if isinstance(s, RaySpaceError)]
    if failures:
        assert isinstance(batch, RaySpaceError)
        assert_same_error(batch, failures[0])
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


def _lowest_failure_system():
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
    @pytest.mark.parametrize(
        "names, expected",
        [
            (("pass", "miss", "tir"), (1, NoIntersectionError)),
            (("pass", "tir", "miss"), (0, TotalInternalReflectionError)),
            (("pass", "graze", "tir", "miss"), (1, TangentialError)),
            (("miss", "pass", "graze"), (1, NoIntersectionError)),
            (("pass", "pass", "tir"), (0, TotalInternalReflectionError)),
        ],
    )
    def test_trace_error_of_first_failing_ray(self, names, expected):
        system = _lowest_failure_system()
        starts = np.array([_RAYS[n][0] for n in names])
        dirs = np.array([_RAYS[n][1] for n in names])
        check_batch_against_singles(system, starts, dirs)
        with pytest.raises(TraceError) as err:
            rs.propagate_system(rs.line_through(starts, dirs), system, start=starts)
        assert (err.value.interface_index, type(err.value.cause)) == expected

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


class TestFamilyBatch:
    @pytest.mark.parametrize("family", list(_families()), ids=lambda f: f.kind)
    def test_eval_and_anchor_rows(self, family, rng):
        assert family.vectorized
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

    def test_custom_family_is_not_vectorized(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        assert not rs.RayFamily(fam.eval, fam.domain).vectorized


def naive_one_form(family, ka, kb, tol, max_points=4096):
    """Reference integral that re-evaluates every node of every level one at
    a time; returns the value and the subdivision it converged at."""
    ka = np.asarray(ka, dtype=float)
    kb = np.asarray(kb, dtype=float)
    prev = None
    m = 4
    while m <= max_points:
        lines = [family.eval(*(ka + t * (kb - ka))) for t in np.linspace(0.0, 1.0, m + 1)]
        us = np.array([line.u for line in lines])
        qs = np.array([line.q for line in lines])
        val = 0.5 * float(np.sum((us[:-1] + us[1:]) * (qs[1:] - qs[:-1])))
        if prev is not None and abs(val - prev) <= tol:
            return val, m
        prev = val
        m *= 2
    raise AssertionError("reference did not converge")


class TestOneFormNodes:
    @pytest.mark.parametrize(
        "ka, kb, tol",
        [
            ((-0.2, -0.1), (0.25, 0.2), 1e-6),
            ((0.0, 0.0), (0.05, -0.05), 1e-9),
            ((-0.3, 0.3), (-0.3, 0.25), 1e-11),
        ],
    )
    def test_each_node_traced_once(self, ka, kb, tol):
        fam = rs.point_source([0.3, -0.2, 1.0], [0.1, 0.2, -1.0])
        calls = []

        def counting(k1, k2):
            calls.append(np.size(k1))
            return fam.eval(k1, k2)

        value = rs.one_form_integral(dataclasses.replace(fam, eval=counting), ka, kb, tol=tol)
        reference, m = naive_one_form(fam, ka, kb, tol)
        assert value == reference
        assert sum(calls) == m + 1  # every node of the final polyline, once
        assert len(calls) == int(np.log2(m)) - 1  # one call per level
        plain = rs.RayFamily(lambda k1, k2: fam.eval(k1, k2), fam.domain)
        assert rs.one_form_integral(plain, ka, kb, tol=tol) == value


def _small_sphere_family():
    # the family of TestTransformFamily.test_trace_error_carries_parameter
    fam = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.3, 0.3), (-0.3, 0.3)))
    small = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),))
    return rs.transform_family(fam, small)


class TestErrorOrder:
    """The k and message that per-node evaluation gave before batching."""

    @pytest.mark.parametrize(
        "ka, kb, k",
        [((0.0, 0.0), (0.3, 0.3), 0.15), ((0.3, 0.3), (0.0, 0.0), 0.3)],
    )
    def test_one_form_integral(self, ka, kb, k):
        with pytest.raises(FamilyTraceError) as err:
            rs.one_form_integral(_small_sphere_family(), ka, kb)
        assert err.value.k == (k, k)
        assert str(err.value) == (
            f"at k=(np.float64({k}), np.float64({k})): interface 0: "
            "ray misses Sphere in (0, 1e+06]"
        )

    def test_reconstruct_wavefront(self):
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(_small_sphere_family(), (0.0, 0.0), grid=5)
        k = -0.29999151471862573
        assert err.value.k == (k, k)
        assert str(err.value) == (
            f"at k=(np.float64({k}), np.float64({k})): interface 0: "
            "ray misses Sphere in (0, 1e+06]"
        )


def _tir_band_family():
    """A collimated beam leaving glass through a corrugated face whose slope
    exceeds the critical angle in narrow bands about y = 0, +-pi/2, ...: the
    grid nodes pass, but refinement midpoints fall into the band."""
    wavy = rs.Sinusoid(0.45, [0.0, 2.0])
    system = rs.OpticalSystem(
        (rs.Interface(wavy, rs.REFRACT, n_in=1.5, n_out=1.0),), ambient_index=1.5
    )
    fam = rs.collimated([0, 0, -1], origin=[0, 0, 2], domain=((-0.56, 0.44), (-0.5, 0.5)))
    return rs.transform_family(fam, system)


class TestErrorOrderInsideTheBatch:
    """Several rays of one refinement level fail; the first one is named."""

    def test_one_form_level_two(self):
        # the first level's nodes pass; the second level's midpoint 0.005 fails
        with pytest.raises(FamilyTraceError) as err:
            rs.one_form_integral(_tir_band_family(), (-0.22, 0.1), (0.38, 0.1))
        assert err.value.k == (0.004999999999999977, 0.1)
        assert str(err.value) == (
            "at k=(np.float64(0.004999999999999977), np.float64(0.1)): interface 0: "
            "total internal reflection: (n1/n2) sin(a1) = 1.00342 >= 1"
        )

    def test_reconstruct_wavefront(self):
        with pytest.raises(FamilyTraceError) as err:
            rs.reconstruct_wavefront(_tir_band_family(), (-0.06, 0.0), check_regular=False)
        k = (-0.028750883883476477, -0.49998585786437627)
        assert err.value.k == k
        assert str(err.value) == (
            f"at k=(np.float64({k[0]}), np.float64({k[1]})): interface 0: "
            "total internal reflection: (n1/n2) sin(a1) = 1.00253 >= 1"
        )
