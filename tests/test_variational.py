import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rayspace as rs
from rayspace import variational
from rayspace.errors import (
    IllConditionedFitError,
    NoConvergenceError,
    NoRootError,
    NotRectangularError,
)
from rayspace.scene import load_scene

from helpers import (
    _node_miss,
    characteristic_function_oracle,
    ellipsoid_oracle_point,
    nested_sphere_system,
    paraboloid_oracle_point,
    row_by_row,
    unit,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def plane_mirror_system():
    return rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))


def chart_jacobian_fd(chart, x, h=1e-6):
    cols = []
    for i in range(2):
        dx = np.zeros(2)
        dx[i] = h
        cols.append((chart.embed(x + dx) - chart.embed(x - dx)) / (2 * h))
    return np.stack(cols, axis=1)


class TestSurfaceCharts:
    def roundtrip(self, surface, point):
        chart = surface.chart(reference_point=point)
        x = chart.invert(np.asarray(point, dtype=float))
        assert np.allclose(chart.embed(x), point, atol=1e-9)
        # chart stays on the surface and jacobians match finite differences
        for dx in (np.zeros(2), np.array([0.05, -0.03]), np.array([-0.04, 0.06])):
            p = chart.embed(x + dx)
            assert abs(surface.value(p)) < 1e-9
            assert np.allclose(chart.jacobian(x + dx), chart_jacobian_fd(chart, x + dx), atol=1e-6)
        # invert is a left inverse near the reference
        y = x + np.array([0.02, 0.03])
        assert np.allclose(chart.invert(chart.embed(y)), y, atol=1e-9)

    def test_plane(self):
        self.roundtrip(rs.Plane([0.1, -0.3, 1.0], 0.7), None or rs.Plane([0.1, -0.3, 1.0], 0.7).normal * 0.7)

    def test_sphere(self):
        sphere = rs.Sphere([1.0, -1.0, 0.5], 2.0)
        point = sphere.center + sphere.radius * unit([0.3, 0.9, 0.2])
        self.roundtrip(sphere, point)

    def test_sinusoid(self):
        surface = rs.Sinusoid(0.2, [1.1, -0.7])
        point = np.array([0.3, -0.2, surface.amplitude * np.sin(1.1 * 0.3 - 0.7 * -0.2)])
        self.roundtrip(surface, point)

    def test_quadric_branches(self):
        ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        for pole in ([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]):
            self.roundtrip(ball, np.array(pole))

    def test_quadric_branch_separation(self):
        # charts anchored at opposite poles must not leak across the equator
        ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        north = ball.chart(reference_point=[0, 0, 1])
        south = ball.chart(reference_point=[0, 0, -1])
        x = np.array([0.1, -0.2])
        assert north.embed(x)[2] > 0
        assert south.embed(x)[2] < 0


class TestPathConfiguration:
    def test_point_count_checked(self):
        sys = plane_mirror_system()
        with pytest.raises(ValueError):
            rs.path_through([0, 0, 1], [1, 0, 1], sys, [])

    def test_coincident_points_rejected(self):
        sys = plane_mirror_system()
        with pytest.raises(ValueError):
            rs.path_through([0.5, 0, 0], [1, 0, 1], sys, [[0.5, 0, 0]])

    def test_polyline_order(self):
        sys = plane_mirror_system()
        pc = rs.path_through([0, 0, 1], [1, 0, 1], sys, [[0.5, 0, 0]])
        pts = pc.polyline()
        assert np.allclose(pts[0], [0, 0, 1])
        assert np.allclose(pts[1], [0.5, 0, 0])
        assert np.allclose(pts[2], [1, 0, 1])

    def test_initial_path_uses_chord(self):
        sys = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, 1.0, 1.5),))
        pc = rs.initial_path([0, 0, 1], [1, 0, -1], sys)
        assert np.allclose(pc.points()[0], [0.5, 0, 0], atol=1e-12)

    def test_initial_path_chord_miss_fallback(self):
        # the chord between the endpoints is parallel to the mirror; the seed
        # point drops to the surface instead of failing
        pc = rs.initial_path([0, 0, 1], [1, 0, 1], plane_mirror_system())
        assert abs(pc.points()[0][2]) < 1e-9


class TestOpticalLength:
    def test_straight_segment(self):
        pc = rs.path_through([0, 0, 0], [3, 4, 0], rs.OpticalSystem(()), [])
        assert abs(rs.optical_length(pc) - 5.0) < 1e-12

    def test_folded_mirror_path(self):
        pc = rs.path_through([0, 0, 1], [1, 0, 1], plane_mirror_system(), [[0.5, 0, 0]])
        assert abs(rs.optical_length(pc) - np.sqrt(5.0)) < 1e-12

    def test_two_media_normal_path(self):
        sys = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, 1.0, 2.0),))
        pc = rs.path_through([0, 0, 1], [0, 0, -1], sys, [[0, 0, 0]])
        assert abs(rs.optical_length(pc) - 3.0) < 1e-12

    def test_ambient_index_scales(self):
        pc = rs.path_through([0, 0, 0], [3, 4, 0], rs.OpticalSystem((), ambient_index=1.3), [])
        assert abs(rs.optical_length(pc) - 6.5) < 1e-12


class TestCharacteristicFunction:
    def test_free_space(self):
        v, pc = rs.characteristic_function([0, 0, 0], [3, 4, 0], rs.OpticalSystem((), 1.3))
        assert abs(v - 6.5) < 1e-12
        assert pc.coords == ()

    def test_plane_mirror_image_oracle(self):
        # unfolding across the mirror: straight distance (0,0,-1) -> (1,0,1)
        v, pc = rs.characteristic_function([0, 0, 1], [1, 0, 1], plane_mirror_system())
        assert abs(v - np.sqrt(5.0)) < 1e-9
        assert np.allclose(pc.points()[0], [0.5, 0, 0], atol=1e-9)
        assert rs.stationarity_residual(pc) < 1e-8
        assert rs.law_residual(pc) < 1e-8

    def test_initial_path_seeds_only_the_surface_points(self):
        # the path found for B = (1, 0, 1) seeds the solve for B = (3, 0, 1)
        _, seed = rs.characteristic_function([0, 0, 1], [1, 0, 1], plane_mirror_system())
        for solve in (rs.characteristic_function, characteristic_function_oracle):
            v, pc = solve([0, 0, 1], [3, 0, 1], plane_mirror_system(), initial=seed)
            assert abs(v - np.sqrt(13.0)) < 1e-9  # not sqrt(5), the seed's own value
            assert np.array_equal(pc.m2, [3.0, 0.0, 1.0])
            assert np.allclose(pc.points()[0], [1.5, 0, 0], atol=1e-9)
            two_mirrors = rs.OpticalSystem(plane_mirror_system().interfaces * 2)
            with pytest.raises(ValueError, match="one chart point per interface"):
                solve([0, 0, 1], [3, 0, 1], two_mirrors, initial=seed)

    def test_refraction_against_grid_search(self):
        n1, n2 = 1.0, 1.5
        m1 = np.array([0.0, 0.0, 1.0])
        m2 = np.array([1.2, 0.0, -1.0])
        sys = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, n1, n2),))
        v, pc = rs.characteristic_function(m1, m2, sys)

        xs = np.arange(0.0, 1.2, 1e-6)
        lengths = n1 * np.sqrt(xs**2 + 1.0) + n2 * np.sqrt((1.2 - xs) ** 2 + 1.0)
        i_best = int(np.argmin(lengths))
        hit = pc.points()[0]
        assert abs(hit[0] - xs[i_best]) < 2e-6
        assert abs(hit[1]) < 1e-9
        assert abs(v - lengths[i_best]) < 1e-9

        sin1 = hit[0] / np.sqrt(hit[0] ** 2 + 1.0)
        sin2 = (1.2 - hit[0]) / np.sqrt((1.2 - hit[0]) ** 2 + 1.0)
        assert abs(n1 * sin1 - n2 * sin2) < 1e-10

    def test_value_matches_traced_ray(self):
        # the stationary path must coincide with an actual traced ray
        m1 = np.array([0.0, 0.0, 1.0])
        m2 = np.array([1.0, 0.0, 1.0])
        sys = plane_mirror_system()
        v, pc = rs.characteristic_function(m1, m2, sys)
        hit0 = pc.points()[0]
        line = rs.line_through(m1, hit0 - m1)
        trace = rs.propagate_system(line, sys, start=m1)
        out = trace.line_out
        rel = m2 - out.q
        assert np.linalg.norm(rel - (rel @ out.u) * out.u) < 1e-9
        v_trace = trace.optical_length + sys.exit_index * float(
            np.linalg.norm(m2 - trace.hits[-1].point)
        )
        assert abs(v - v_trace) < 1e-9

    def test_sphere_mirror(self):
        # interior reflection off a sphere: solver result satisfies the laws
        sys = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, 0], 3.0), rs.REFLECT, 1.0),))
        v, pc = rs.characteristic_function([0.5, 0.2, 0.0], [-0.4, 0.6, 0.3], sys)
        assert rs.stationarity_residual(pc) < 1e-8
        assert rs.law_residual(pc) < 1e-8
        assert v > 0.0

    def test_iteration_budget_enforced(self, monkeypatch):
        # the budget is read at the call, as the oracle's max_iter
        monkeypatch.setattr(variational, "_MAX_ITER", 0)
        with pytest.raises(NoConvergenceError, match=r"^Newton did not reach \|grad\| < 1e-10 in 0 iterations$") as err:
            rs.characteristic_function([0, 0, 1], [1, 0, 1], plane_mirror_system())
        with pytest.raises(NoConvergenceError) as want:
            characteristic_function_oracle([0, 0, 1], [1, 0, 1], plane_mirror_system(), max_iter=0)
        assert str(err.value) == str(want.value)


class TestStationarityAndLaws:
    def test_perturbed_configuration_not_stationary(self):
        _, pc = rs.characteristic_function([0, 0, 1], [1, 0, 1], plane_mirror_system())
        bumped = pc.with_coords(pc.flat() + np.array([1e-3, 0.0]))
        res = rs.stationarity_residual(bumped)
        assert res > 1e-5
        assert res < 1e-2

    def test_straight_path_through_refractor(self):
        # an unbent oblique path violates stationarity by |n1 - n2| sin(45 deg)
        n1, n2 = 1.0, 1.5
        sys = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, n1, n2),))
        pc = rs.path_through([-1, 0, 1], [1, 0, -1], sys, [[0, 0, 0]])
        expected = abs(n1 - n2) * np.sin(np.pi / 4)
        assert abs(rs.stationarity_residual(pc) - expected) < 1e-5
        assert rs.law_residual(pc) > 0.1

    def test_traced_rays_are_stationary(self, rng):
        # equivalence, traced direction: a physically propagated path is a
        # stationary configuration of the optical length
        for _ in range(3):
            sys = nested_sphere_system(rng, 2)
            start = rng.uniform(-0.3, 0.3, 3)
            line = rs.line_through(start, rng.normal(size=3))
            trace = rs.propagate_system(line, sys, start=start)
            m2 = trace.hits[-1].point + trace.line_out.u
            pc = rs.path_through(start, m2, sys, [h.point for h in trace.hits])
            assert rs.stationarity_residual(pc) < 1e-8
            assert rs.law_residual(pc) < 1e-8

    def test_newton_recovers_traced_path(self, rng):
        # equivalence, solved direction: Newton from a perturbed seed lands on
        # a configuration satisfying the local laws, with the traced value
        sys = nested_sphere_system(rng, 2)
        start = rng.uniform(-0.2, 0.2, 3)
        line = rs.line_through(start, rng.normal(size=3))
        trace = rs.propagate_system(line, sys, start=start)
        m2 = trace.hits[-1].point + trace.line_out.u
        pc0 = rs.path_through(start, m2, sys, [h.point for h in trace.hits])
        seed = pc0.with_coords(pc0.flat() + rng.uniform(-0.01, 0.01, pc0.flat().size))
        v, pc = rs.characteristic_function(start, m2, sys, initial=seed)
        assert rs.law_residual(pc) < 1e-8
        v_trace = trace.optical_length + sys.exit_index * 1.0
        assert abs(v - v_trace) < 1e-9


class TestHamiltonGradient:
    """The defining identities of Hamilton's characteristic function along
    the stationary path from M1 to M2: dV/dM2 = n_exit u_out and
    dV/dM1 = -n_0 u_in."""

    @settings(max_examples=20)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3))
    def test_endpoint_gradients(self, seed, shells):
        rng = np.random.default_rng(seed)
        system = nested_sphere_system(rng, shells)
        m1 = rng.uniform(-0.3, 0.3, 3)
        trace = rs.propagate_system(rs.line_through(m1, rng.normal(size=3)), system, start=m1)
        m2 = trace.hits[-1].point + trace.line_out.u
        traced = rs.path_through(m1, m2, system, [hit.point for hit in trace.hits])
        _, pc = rs.characteristic_function(m1, m2, system, initial=traced)
        pts = pc.polyline()
        h = 1e-6

        def central(a1, a2, b1, b2):
            # each perturbed solve is seeded with the stationary surface points
            plus = rs.characteristic_function(a1, a2, system, initial=pc)[0]
            minus = rs.characteristic_function(b1, b2, system, initial=pc)[0]
            return (plus - minus) / (2.0 * h)

        steps = h * np.eye(3)
        grad_m1 = np.array([central(m1 + s, m2, m1 - s, m2) for s in steps])
        grad_m2 = np.array([central(m1, m2 + s, m1, m2 - s) for s in steps])
        media = system.media()
        assert np.max(abs(grad_m1 + media[0] * unit(pts[1] - pts[0]))) <= 1e-7
        assert np.max(abs(grad_m2 - media[-1] * unit(pts[-1] - pts[-2]))) <= 1e-7


def traced_lengths(source, system, wf):
    """The optical length from the source's anchor along each traced ray to
    its wavefront point, and the points (n1 * n2, 3)."""
    k1, k2 = (k.reshape(-1) for k in np.meshgrid(wf.k1, wf.k2, indexing="ij"))
    trace = rs.propagate_system(source.eval(k1, k2), system, start=source.start_point(k1, k2))
    w = wf.points.reshape(-1, 3)
    beyond = np.vecdot(w - trace.hits[-1].point, trace.line_out.u)  # along the exit ray
    return trace.optical_length + system.exit_index * beyond, w


class TestPathLengths:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.floats(-1.0, 1.0))
    def test_wavefront_is_a_level_set_of_the_traced_length(self, seed, shells, c):
        """Through 1-3 random sphere shells, reflecting or refracting, every
        wavefront node lies at one optical length from the apex along its
        ray, and orthogonality_residual, which reads the family's own
        length, stays within the same bound."""
        rng = np.random.default_rng(seed)
        system = nested_sphere_system(rng, shells)
        apex = rng.uniform(-0.2, 0.2, 3)
        source = rs.point_source(apex, unit(rng.normal(size=3)), domain=((-0.2, 0.2), (-0.2, 0.2)))
        family = rs.transform_family(source, system)
        wf = rs.reconstruct_wavefront(family, (0, 0), c=c, grid=5)
        lengths, _ = traced_lengths(source, system, wf)
        assert np.ptp(lengths) < 1e-7
        assert rs.orthogonality_residual(family, wf) < 1e-7

    # c puts every wavefront point beyond its ray's last hit, where the
    # traced path is the stationary one from the apex
    @pytest.mark.parametrize("name, c", [("point_plane", -1.0), ("sphere_refract", 0.5), ("mixed_device", -2.0)])
    def test_wavefront_is_a_level_set_of_v(self, name, c):
        """The one-form, the traced optical length and V agree: every node W
        of a reconstructed output wavefront lies at one optical length from
        the apex along its ray, and V(apex, W) is that length.  Each V solve
        is seeded with the hits of the node's traced ray, through every
        surface kind between the three scenes."""
        scene = load_scene(ROOT / "scenes" / f"{name}.scene")
        source, system = scene.family, scene.system
        wf = rs.reconstruct_wavefront(rs.transform_family(source, system), (0, 0), c=c, grid=5)
        lengths, w = traced_lengths(source, system, wf)
        assert np.ptp(lengths) < 1e-7
        k1, k2 = (k.reshape(-1) for k in np.meshgrid(wf.k1, wf.k2, indexing="ij"))
        hits = rs.propagate_system(source.eval(k1, k2), system, start=source.start_point(k1, k2)).hits
        apex = source.start_point(0.0, 0.0)
        for node, (point, length) in enumerate(zip(w, lengths)):
            traced = rs.path_through(apex, point, system, [hit.point[node] for hit in hits])
            value, _ = rs.characteristic_function(apex, point, system, initial=traced)
            assert abs(value - length) < 1e-7


class TestMirrorDesign:
    def setup_ellipsoid(self, domain=0.2, grid=9):
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-domain, domain), (-domain, domain)))
        focus = np.array([0.3, 0.2, 1.2])
        design = rs.design_focusing_mirror(
            fam, k0=(0, 0), focus=focus, epsilon=1, level=3.2, grid=grid, wavefront_c=-1.0
        )
        return fam, focus, design

    def test_point_source_gives_prolate_spheroid(self):
        fam, focus, design = self.setup_ellipsoid()
        # wavefront offset -1 puts the reference sphere at unit radius, so
        # the two focal distances add up to level - wavefront_c = 4.2
        for i, k1 in enumerate(design.k1):
            for j, k2 in enumerate(design.k2):
                x = design.points[i, j]
                focal_sum = np.linalg.norm(x) + np.linalg.norm(x - focus)
                assert abs(focal_sum - 4.2) < 1e-9
                oracle = ellipsoid_oracle_point(fam.eval(k1, k2), 4.2, focus)
                assert np.allclose(x, oracle, atol=1e-9)

    def test_ellipsoid_exact_normals_focus(self):
        fam, focus, design = self.setup_ellipsoid()
        for i, k1 in enumerate(design.k1):
            for j, k2 in enumerate(design.k2):
                line = fam.eval(k1, k2)
                x = design.points[i, j]
                w = unit(x - focus)
                u2 = rs.reflect_direction(line.u, unit(line.u + w))
                # the reflected direction points straight at the focus
                assert np.allclose(u2, -w, atol=1e-12)

    def test_verify_focus_ellipsoid(self):
        _, _, design = self.setup_ellipsoid(domain=0.002, grid=9)
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.002, 0.002), (-0.002, 0.002)))
        ok, worst = rs.verify_focus(design, fam)
        assert ok
        assert worst < 1e-6

    def test_collimated_gives_paraboloid(self):
        fam = rs.collimated([0, 0, 1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        focus = np.array([0.1, -0.2, 1.5])
        design = rs.design_focusing_mirror(
            fam, k0=(0, 0), focus=focus, epsilon=1, level=2.5, grid=9
        )
        for i, k1 in enumerate(design.k1):
            for j, k2 in enumerate(design.k2):
                x = design.points[i, j]
                assert abs(x[2] + np.linalg.norm(x - focus) - 2.5) < 1e-9
                oracle = paraboloid_oracle_point(fam.eval(k1, k2), 2.5, focus)
                assert np.allclose(x, oracle, atol=1e-9)

    def test_verify_focus_paraboloid(self):
        fam = rs.collimated([0, 0, 1], domain=((-0.002, 0.002), (-0.002, 0.002)))
        design = rs.design_focusing_mirror(
            fam, k0=(0, 0), focus=[0.1, -0.2, 1.5], epsilon=1, level=2.5, grid=9
        )
        ok, worst = rs.verify_focus(design, fam)
        assert ok
        assert worst < 1e-6

    def test_focus_on_ray_needs_virtual_sign(self):
        # the focus sits downstream on the axial ray: the additive branch has
        # no root, the subtractive (virtual) branch succeeds
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))
        focus = np.array([0.0, 0.0, 2.0])
        with pytest.raises(NoRootError):
            rs.design_focusing_mirror(
                fam, k0=(0, 0), focus=focus, epsilon=1, level=0.5, grid=5, wavefront_c=-1.0
            )
        design = rs.design_focusing_mirror(
            fam, k0=(0, 0), focus=focus, epsilon=-1, level=0.5, grid=5, wavefront_c=-1.0
        )
        x0 = design.points[2, 2]
        assert np.allclose(x0, [0, 0, 1.75], atol=1e-9)
        for i in range(5):
            for j in range(5):
                x = design.points[i, j]
                diff = np.linalg.norm(x) - np.linalg.norm(x - focus)
                assert abs(diff - 1.5) < 1e-9


    def test_no_root_error_names_k_as_floats(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))
        with pytest.raises(NoRootError) as err:
            rs.design_focusing_mirror(
                fam, k0=(0, 0), focus=[0, 0, 2.0], epsilon=1, level=0.5, grid=5, wavefront_c=-1.0
            )
        k = -0.09999717157287526
        assert err.value.k == (k, k) and all(type(x) is float for x in err.value.k)
        assert str(err.value) == f"no root along the ray at k=({k}, {k})"

    def test_not_rectangular_error_names_k_of_the_largest_defect(self):
        # two skew lines: the defect s t / (s^2 + t^2 + 1)^(3/2), s = 1 + k1,
        # t = 1 + k2, is largest at the centre node, 1 / (3 sqrt 3)
        fam = rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0])
        _, grid = rs.is_rectangular(fam, grid=5)
        assert abs(grid.values[2, 2]) == grid.max_abs
        k = (float(grid.k1[2]), float(grid.k2[2]))
        assert all(type(x) is float for x in k)
        with pytest.raises(NotRectangularError) as err:
            rs.design_focusing_mirror(fam, k0=(0, 0), focus=[0, 0, 2.0], epsilon=1, level=0.5, grid=5)
        assert str(err.value) == f"mirror design requires a rectangular family: |defect| 1.925e-01 at k={k}"
    def test_virtual_focus_verifies(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.002, 0.002), (-0.002, 0.002)))
        design = rs.design_focusing_mirror(
            fam, k0=(0, 0), focus=[0, 0, 2.0], epsilon=-1, level=0.5, grid=9, wavefront_c=-1.0
        )
        ok, worst = rs.verify_focus(design, fam)
        assert ok
        assert worst < 1e-6

    def test_non_rectangular_family_rejected(self):
        skew = rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0])
        with pytest.raises(NotRectangularError):
            rs.design_focusing_mirror(skew, k0=(0, 0), focus=[0, 0, 5], epsilon=1, level=9.0)

    def test_traced_non_rectangular_family_rejected(self):
        # the "only if" half after an optical system: a sphere refraction
        # into glass keeps the skew family's defect, scaled by 1 / 1.5
        skew = rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0])
        axis = np.array([-1.0, 1.0, 1.0]) / np.sqrt(3.0)  # the line of k = (0, 0)
        lens = rs.Sphere(np.array([1.0, 0.0, 0.0]) + 5.0 * axis, 2.0)
        system = rs.OpticalSystem((rs.Interface(lens, rs.REFRACT, 1.0, 1.5),))
        traced = rs.transform_family(skew, system)
        ratio = rs.defect(traced, (0, 0)) / rs.defect(skew, (0, 0))
        assert abs(ratio * 1.5 - 1.0) < 1e-6
        with pytest.raises(NotRectangularError):
            rs.design_focusing_mirror(traced, k0=(0, 0), focus=[0, 0, 5], epsilon=1, level=9.0)

    def test_perturbed_mirror_fails_verification(self, rng):
        fam, focus, design = self.setup_ellipsoid(domain=0.002, grid=9)
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.002, 0.002), (-0.002, 0.002)))
        noisy = rs.MirrorDesign(
            k1=design.k1,
            k2=design.k2,
            points=design.points + 1e-3 * rng.standard_normal(design.points.shape),
            focus=design.focus,
            epsilon=design.epsilon,
            level=design.level,
            wavefront_c=design.wavefront_c,
        )
        ok, worst = rs.verify_focus(noisy, fam)
        assert not ok
        assert worst > 1e-4
        # the check the command line reads also names the interior node
        # whose reflected ray misses the focus most, as the node by node
        # fits find it
        *check, k = variational._verify_focus(noisy, fam, 1e-6)
        assert tuple(check) == (ok, worst)
        misses = {
            (float(noisy.k1[i]), float(noisy.k2[j])): _node_miss(noisy, fam, i, j, "")
            for i in range(1, 8)
            for j in range(1, 8)
        }
        first, second = sorted(misses.values())[-2:][::-1]
        assert first - second > 1e-6 * first  # a clear worst node
        assert k == max(misses, key=misses.get)

    def test_degenerate_stencil_rejected(self):
        _, _, design = self.setup_ellipsoid(domain=0.002, grid=9)
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.002, 0.002), (-0.002, 0.002)))
        flat = rs.MirrorDesign(
            k1=design.k1,
            k2=design.k2,
            points=np.broadcast_to(design.points[4, 4], design.points.shape).copy(),
            focus=design.focus,
            epsilon=design.epsilon,
            level=design.level,
            wavefront_c=design.wavefront_c,
        )
        with pytest.raises(IllConditionedFitError):
            rs.verify_focus(flat, fam)

    def test_focused_family_is_rectangular(self):
        # reverse the designed rays through the focus and check the defect:
        # focusing forces the reflected family to be rectangular
        fam, focus, _ = self.setup_ellipsoid()

        def reversed_eval(k1, k2):
            line = fam.eval(k1, k2)
            x = ellipsoid_oracle_point(line, 4.2, focus)
            return rs.line_through(x, focus - x)

        reflected = row_by_row(reversed_eval, ((-0.15, 0.15), (-0.15, 0.15)), kind="reflected")
        ok, grid = rs.is_rectangular(reflected)
        assert ok
        assert grid.max_abs < 1e-6

    def test_csv_header(self):
        _, _, design = self.setup_ellipsoid(grid=3)
        lines = design.to_csv().strip().split("\n")
        assert lines[0] == "k1,k2,x,y,z"
        assert len(lines) == 1 + 9


class TestLevelFieldGradient:
    """The scalar field (distance along the ray from the reference wavefront)
    + eps * (distance to the focus), evaluated off the mirror, for a point
    source at the origin with unit-sphere reference wavefront."""

    @staticmethod
    def field(x, focus, eps):
        return (np.linalg.norm(x) - 1.0) + eps * np.linalg.norm(x - focus)

    @staticmethod
    def fd_grad(f, x, h=1e-5):
        g = np.zeros(3)
        for i in range(3):
            dx = np.zeros(3)
            dx[i] = h
            g[i] = (f(x + dx) - f(x - dx)) / (2 * h)
        return g

    def test_gradient_is_eikonal_sum(self):
        focus = np.array([0.3, 0.2, 1.2])
        x = np.array([0.4, 0.1, 0.9])
        grad = self.fd_grad(lambda p: self.field(p, focus, +1), x)
        expected = unit(x) + unit(x - focus)
        assert np.allclose(grad, expected, atol=1e-8)
        assert np.linalg.norm(grad) > 0.1

    def test_gradient_vanishes_between_source_and_focus(self):
        # on the segment from the source to the focus the two unit vectors
        # cancel and the field is locally flat
        focus = np.array([0.0, 0.0, 2.0])
        x = np.array([0.0, 0.0, 1.2])
        grad = self.fd_grad(lambda p: self.field(p, focus, +1), x)
        assert np.linalg.norm(grad) < 1e-6

    def test_virtual_branch_gradient(self):
        focus = np.array([0.0, 0.0, 2.0])
        x = np.array([0.0, 0.0, 3.0])  # beyond the focus
        grad = self.fd_grad(lambda p: self.field(p, focus, -1), x)
        assert np.linalg.norm(grad) < 1e-6
