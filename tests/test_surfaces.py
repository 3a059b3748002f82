import numpy as np
import pytest

import rayspace as rs
from rayspace.errors import (
    DegenerateGradientError,
    NoIntersectionError,
    OffSurfaceError,
    TangentialError,
)

from helpers import aimed_line, random_surface, unit

KINDS = ("plane", "sphere", "quadric", "sinusoid")


def fd_gradient(surface, p, h=1e-6):
    g = np.zeros(3)
    for i in range(3):
        dp = np.zeros(3)
        dp[i] = h
        g[i] = (surface.value(p + dp) - surface.value(p - dp)) / (2 * h)
    return g


class TestSurfaceEvaluation:
    def test_gradients_match_finite_differences(self, rng):
        for kind in KINDS:
            for _ in range(5):
                surface = random_surface(rng, kind)
                p = rng.uniform(-2, 2, 3)
                if kind == "sphere":
                    # keep clear of the center singularity
                    p = surface.center + rng.uniform(0.5, 2.0) * unit(rng.normal(size=3))
                assert np.allclose(
                    surface.gradient(p), fd_gradient(surface, p), atol=1e-6
                ), kind

    def test_plane_value(self):
        plane = rs.Plane([0, 0, 2], 3.0)  # normal normalized on construction
        assert abs(plane.value([0, 0, 3]) - 0.0) < 1e-12
        assert abs(plane.value([5, -2, 4]) - 1.0) < 1e-12

    def test_sphere_value_is_radial_distance(self):
        sphere = rs.Sphere([1, 0, 0], 2.0)
        assert abs(sphere.value([4, 0, 0]) - 1.0) < 1e-12
        assert abs(sphere.value([1, 0, 0]) + 2.0) < 1e-12

    def test_quadric_symmetrizes_matrix(self):
        q = rs.Quadric([[1, 2, 0], [0, 1, 0], [0, 0, 1]], [0, 0, 0], -1.0)
        assert np.allclose(q.matrix, q.matrix.T)
        x = np.array([0.3, -0.7, 0.2])
        assert abs(q.value(x) - (x @ q.matrix @ x - 1.0)) < 1e-12

    def test_sinusoid_graph(self):
        s = rs.Sinusoid(0.5, [2.0, 0.0])
        p = np.array([0.25 * np.pi, 3.0, 0.5])
        assert abs(s.value(p)) < 1e-12

    def test_bad_constructions(self):
        with pytest.raises(ValueError):
            rs.Plane([0, 0, 0], 1.0)
        with pytest.raises(ValueError):
            rs.Sphere([0, 0, 0], -1.0)
        with pytest.raises(ValueError):
            rs.Quadric(np.eye(2), [0, 0, 0], 0.0)
        with pytest.raises(ValueError):
            rs.Sinusoid(0.1, [1.0, 0.0, 0.0])


class TestNormals:
    def test_plane_normal(self):
        plane = rs.Plane([0, 0, 1], 0.0)
        assert np.allclose(rs.normal_at(plane, [3, 1, 0]), [0, 0, 1])

    def test_plane_normal_of_huge_vectors(self, rng):
        # |n| of these overflows; n / |n| of the others stays bit for bit
        # what it was
        assert rs.Plane([1e300, 0, 0]).normal.tolist() == [1.0, 0.0, 0.0]
        assert rs.Plane([-1.7e308, 0, 1.7e308]).normal.tolist() == [-(0.5**0.5), 0.0, 0.5**0.5]
        for _ in range(200):
            n = rng.normal(size=3) * 10.0 ** rng.uniform(-6, 100)
            assert rs.Plane(n).normal.tobytes() == (n / np.linalg.norm(n)).tobytes()
        for bad in ([1e-13, 0, 0], [np.inf, 0, 1], [np.nan, 0, 1]):
            with pytest.raises(ValueError, match="plane normal must be"):
                rs.Plane(bad)

    def test_sphere_normal_outward(self):
        sphere = rs.Sphere([0, 0, 0], 2.0)
        assert np.allclose(rs.normal_at(sphere, [0, 0, 2]), [0, 0, 1])

    def test_quadric_orientation_flag(self):
        mat = np.diag([1.0, 1.0, 0.0])
        up = rs.Quadric(mat, [0, 0, -1], 0.0, incoming_sign=1)
        down = rs.Quadric(mat, [0, 0, -1], 0.0, incoming_sign=-1)
        assert np.allclose(rs.normal_at(up, [0, 0, 0]), [0, 0, -1])
        assert np.allclose(rs.normal_at(down, [0, 0, 0]), [0, 0, 1])

    def test_off_surface_rejected(self):
        sphere = rs.Sphere([0, 0, 0], 1.0)
        with pytest.raises(OffSurfaceError):
            rs.normal_at(sphere, [0, 0, 1.5])

    def test_degenerate_gradient_rejected(self):
        # f = |x|^2 has zero gradient at the origin, which lies on f = 0
        cone_tip = rs.Quadric(np.eye(3), [0, 0, 0], 0.0)
        with pytest.raises(DegenerateGradientError):
            rs.normal_at(cone_tip, [0, 0, 0])

    def test_normals_are_unit(self, rng):
        for kind in KINDS:
            surface = random_surface(rng, kind)
            _, hit, _ = aimed_line(rng, surface)
            assert abs(np.linalg.norm(hit.normal) - 1.0) < 1e-12


class TestIntersect:
    def test_axial_sphere_hit(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        start_t = float((np.array([0, 0, 5.0]) - line.q) @ line.u)
        hit = rs.intersect(line, rs.Sphere([0, 0, 0], 1.0), t_min=start_t)
        assert np.allclose(hit.point, [0, 0, 1])
        assert abs((hit.t - start_t) - 4.0) < 1e-12  # distance from the start point

    def test_axial_plane_hit(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        start_t = float((np.array([0, 0, 5.0]) - line.q) @ line.u)
        hit = rs.intersect(line, rs.Plane([0, 0, 1], 0.0), t_min=start_t)
        assert np.allclose(hit.point, [0, 0, 0])
        assert abs((hit.t - start_t) - 5.0) < 1e-12

    def test_miss_raises(self):
        line = rs.line_through([5, 0, 5], [0, 0, -1])
        with pytest.raises(NoIntersectionError):
            rs.intersect(line, rs.Sphere([0, 0, 0], 1.0))

    def test_parallel_plane_misses(self):
        line = rs.line_through([0, 0, 1], [1, 0, 0])
        with pytest.raises(NoIntersectionError):
            rs.intersect(line, rs.Plane([0, 0, 1], 0.0))

    def test_tangential_hit_rejected(self):
        # line grazing the unit sphere at (0, 0, 1)
        line = rs.line_through([5, 0, 1], [-1, 0, 0])
        with pytest.raises(TangentialError):
            rs.intersect(line, rs.Sphere([0, 0, 0], 1.0), t_min=-5.0)

    def test_t_min_skips_first_root(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        sphere = rs.Sphere([0, 0, 0], 1.0)
        first = rs.intersect(line, sphere, t_min=-5.0)
        second = rs.intersect(line, sphere, t_min=first.t + 1e-9)
        assert np.allclose(first.point, [0, 0, 1])
        assert np.allclose(second.point, [0, 0, -1])

    def test_t_max_cuts_off(self):
        # the search horizon is DEFAULT_T_MAX = 1e6 along the ray
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        assert rs.intersect(line, rs.Sphere([0, 0, -0.9e6], 1.0)).t == 0.9e6 - 1.0  # from the foot point
        with pytest.raises(NoIntersectionError, match=r"^ray misses Sphere in \(0, 1e\+06\]$"):
            rs.intersect(line, rs.Sphere([0, 0, -2e6], 1.0))

    @pytest.mark.parametrize("kind", ["plane", "quadric", "sinusoid"])
    def test_every_kind_searches_to_the_same_horizon(self, kind):
        # a surface met at t = d from the foot point: found at d = 9e5,
        # past the horizon at d = 2e6; the sinusoid, whose roots scan a
        # window cut at the horizon, is crossed by a ray at 45 degrees
        def hit(d):
            if kind == "plane":
                return rs.intersect(rs.line_through([0, 0, 5], [0, 0, -1]), rs.Plane([0, 0, 1], -d))
            if kind == "quadric":
                ball = rs.Quadric(np.eye(3), [0, 0, 2.0 * (d + 1.0)], (d + 1.0) ** 2 - 1.0)
                return rs.intersect(rs.line_through([0, 0, 5], [0, 0, -1]), ball)
            z = d * np.sqrt(2.0)  # the ray meets z = 0 at x = z, t = d
            return rs.intersect(rs.line_through([0, 0, z], [1, 0, -1]), rs.Sinusoid(0.1, [0.3, 0.0]))

        assert abs(hit(9e5).t - 9e5) <= 0.2
        with pytest.raises(NoIntersectionError, match=rf"^ray misses {kind.capitalize()} in \(0, 1e\+06\]$"):
            hit(2e6)

    def test_normal_faces_incoming_ray(self, rng):
        for kind in KINDS:
            for _ in range(5):
                surface = random_surface(rng, kind)
                line, hit, _ = aimed_line(rng, surface)
                assert hit.cos_incidence < 0.0
                assert abs(hit.cos_incidence - float(line.u @ hit.normal)) < 1e-12

    def test_hit_points_satisfy_f(self, rng):
        for kind in KINDS:
            for _ in range(10):
                surface = random_surface(rng, kind)
                _, hit, _ = aimed_line(rng, surface)
                assert abs(surface.value(hit.point)) < 1e-9 * max(
                    1.0, float(np.linalg.norm(hit.point))
                )

    def test_quadric_closed_form_matches_sphere(self, rng):
        """A sphere rewritten as a quadric intersects identically."""
        center = np.array([0.3, -0.2, 0.1])
        r = 1.7
        sphere = rs.Sphere(center, r)
        quad = rs.Quadric(np.eye(3), -2.0 * center, float(center @ center) - r * r)
        for _ in range(20):
            line, hit, t0 = aimed_line(rng, sphere)
            hit_q = rs.intersect(line, quad, t_min=t0)
            assert abs(hit.t - hit_q.t) < 1e-9
            assert np.allclose(hit.point, hit_q.point, atol=1e-9)


def sinusoid_scan_root(line, surface, t_start, step=1e-3, span=40.0):
    """Independent first-root finder: dense scan for a sign change, then
    plain bisection.  Exploits nothing about the library's root logic."""
    ts = t_start + np.arange(0.0, span, step)
    pts = line.q[None, :] + ts[:, None] * line.u[None, :]
    vals = pts[:, 2] - surface.amplitude * np.sin(pts[:, :2] @ surface.wavevector)
    change = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
    assert change.size > 0, "scan found no crossing"
    lo, hi = ts[change[0]], ts[change[0] + 1]
    flo = surface.value(line.point_at(lo))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fmid = surface.value(line.point_at(mid))
        if flo * fmid <= 0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


class TestSinusoidRoots:
    def test_newton_roots_match_dense_scan(self, rng):
        surface = rs.Sinusoid(0.2, [1.1, -0.6])
        for _ in range(200):
            line, hit, t0 = aimed_line(rng, surface)
            t_scan = sinusoid_scan_root(line, surface, t0)
            assert abs(hit.t - t_scan) < 1e-8

    def test_random_sinusoids(self, rng):
        for _ in range(40):
            surface = random_surface(rng, "sinusoid")
            line, hit, t0 = aimed_line(rng, surface)
            t_scan = sinusoid_scan_root(line, surface, t0)
            assert abs(hit.t - t_scan) < 1e-8

    def test_steep_ray_finds_nearest_root(self):
        surface = rs.Sinusoid(0.3, [2.0, 0.0])
        line = rs.line_through([0.1, 0.0, 5.0], [0.02, 0.0, -1.0])
        t0 = float((np.array([0.1, 0.0, 5.0]) - line.q) @ line.u)
        hit = rs.intersect(line, surface, t_min=t0)
        t_scan = sinusoid_scan_root(line, surface, t0, step=1e-4)
        assert abs(hit.t - t_scan) < 1e-8

    def test_shallow_ray_first_of_many_crossings(self):
        """A nearly horizontal ray inside the corrugation band crosses the
        graph many times; the nearest crossing must win."""
        surface = rs.Sinusoid(0.25, [1.5, 0.0])
        start = np.array([-8.0, 0.0, 0.2])
        line = rs.line_through(start, unit([1.0, 0.0, -0.02]))
        t0 = float((start - line.q) @ line.u)
        hit = rs.intersect(line, surface, t_min=t0)
        t_scan = sinusoid_scan_root(line, surface, t0, step=1e-4)
        assert abs(hit.t - t_scan) < 1e-8
