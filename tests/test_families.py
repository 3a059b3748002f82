import dataclasses
import pathlib

import numpy as np
import pytest

import rayspace as rs
from rayspace.errors import (
    DomainBoundaryError,
    FamilyTraceError,
    ImmersionError,
    NonRegularError,
    NotRectangularError,
)
from rayspace.lines import _omega
from rayspace.scene import load_scene

from helpers import line_tangent, make_device, naive_cc_one_form, plain, row_by_row, unit

ROOT = pathlib.Path(__file__).resolve().parent.parent


def skew_family():
    """Lines joining (1 + k1, 0, 0) on the x-axis to (0, 1 + k2, 1).

    Writing s = 1 + k1, t = 1 + k2 and differentiating the joining line by
    hand gives defect(k) = s t / (s^2 + t^2 + 1)^(3/2); at k = 0 that is
    1/(3 sqrt 3) ~ 0.1925.
    """
    return rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0])


def skew_defect_oracle(k1, k2):
    s, t = 1.0 + k1, 1.0 + k2
    return s * t / (s * s + t * t + 1.0) ** 1.5


class TestDefect:
    def test_point_source_defect_vanishes(self, rng):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        for _ in range(10):
            k = rng.uniform(-0.25, 0.25, 2)
            assert abs(rs.defect(fam, k)) < 1e-8

    def test_collimated_defect_vanishes(self, rng):
        fam = rs.collimated([0.2, -0.1, 1.0])
        for _ in range(10):
            k = rng.uniform(-0.4, 0.4, 2)
            assert abs(rs.defect(fam, k)) < 1e-10

    def test_two_skew_lines_closed_form(self, rng):
        fam = skew_family()
        assert abs(rs.defect(fam, (0, 0))) > 0.1
        for _ in range(10):
            k = rng.uniform(-0.2, 0.2, 2)
            assert abs(rs.defect(fam, k) - skew_defect_oracle(*k)) < 1e-9

    def test_defect_step_convergence(self):
        # second-order central differences: error drops ~100x per decade of h
        fam = skew_family()
        exact = skew_defect_oracle(0.0, 0.0)
        errs = [abs(rs.defect(fam, (0, 0), h=h) - exact) for h in (1e-3, 1e-4, 1e-5)]
        assert errs[0] < 1e-6
        assert errs[1] < 1e-8
        assert errs[2] < 1e-10

    def test_matches_chart_symplectic_pairing(self):
        # the defect is omega on the coordinate tangents
        fam = skew_family()
        k = (0.07, -0.04)
        v1 = line_tangent(lambda s: fam.eval(k[0] + s, k[1]))
        v2 = line_tangent(lambda s: fam.eval(k[0], k[1] + s))
        assert abs(_omega(*v1, *v2) - rs.defect(fam, k)) < 1e-8

    def test_translation_invariance(self):
        fam = skew_family()
        shift = np.array([3.0, -2.0, 7.0])

        def shifted_eval(k1, k2):
            line = fam.eval(k1, k2)
            return rs.line_through(line.q + shift, line.u)

        shifted = row_by_row(shifted_eval, fam.domain, kind="shifted")
        for k in [(0.0, 0.0), (0.1, -0.05), (-0.15, 0.2)]:
            assert abs(rs.defect(fam, k) - rs.defect(shifted, k)) < 1e-10

    def test_boundary_stencil_rejected(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        with pytest.raises(DomainBoundaryError):
            rs.defect(fam, (0.3, 0.0))

    def test_boundary_error_names_k_as_floats(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        for k in ((0.3, 0.0), np.array([0.3, 0.0])):
            with pytest.raises(DomainBoundaryError) as err:
                rs.defect(fam, k)
            assert str(err.value) == (
                "stencil of half-width 8.48528e-06 at k=(0.3, 0.0) leaves the domain"
            )

    def test_grid_stencils_wider_than_half_the_domain_rejected(self):
        # a grid inset by h > half the span runs backwards, outside the domain
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.15, 0.15), (-0.15, 0.15)))
        with pytest.raises(DomainBoundaryError) as alone:
            rs.defect(fam, (0.85, 0.85), h=1.0)
        assert str(alone.value) == "stencil of half-width 1 at k=(0.85, 0.85) leaves the domain"
        calls = (
            lambda: rs.defect_grid(fam, grid=3, h=1.0),
            lambda: rs.is_rectangular(fam, grid=3, h=1.0),
            lambda: rs.reconstruct_wavefront(fam, (0, 0), grid=3, h=1.0),
        )
        for call in calls:
            with pytest.raises(DomainBoundaryError) as err:
                call()
            assert str(err.value) == str(alone.value) and err.value.row == 0

    def test_wavefront_on_coincident_nodes_is_not_regular(self):
        # an inset of half the span puts every node at the centre: the
        # segments between nodes have length 0 and give no tangent, so the
        # first node fails the regularity test, with no RuntimeWarning
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.15, 0.15), (-0.15, 0.15)))
        with pytest.raises(NonRegularError) as err:
            rs.reconstruct_wavefront(fam, (0, 0), grid=3, h=0.15)
        assert str(err.value) == "wavefront point at k=(0.0, 0.0) is not regular" and err.value.row == 0

    def test_two_skew_lines_need_nonzero_directions(self):
        with pytest.raises(ValueError, match="dir1 and dir2 must be nonzero"):
            rs.two_skew_lines([1, 0, 0], [0, 0, 0], [0, 1, 1], [0, 1, 0])

    def test_refined_diagnostic(self):
        fam = skew_family()
        d1, d2 = rs.defect(fam, (0, 0), h=1e-3), rs.defect(fam, (0, 0), h=0.5e-3)
        exact = skew_defect_oracle(0.0, 0.0)
        assert abs(d2 - exact) < abs(d1 - exact)


class TestIsRectangular:
    def test_point_source(self):
        ok, grid = rs.is_rectangular(rs.point_source([1, 2, 3], [0, 1, 0]))
        assert ok
        assert grid.max_abs < 1e-8

    def test_two_skew_lines(self):
        ok, grid = rs.is_rectangular(skew_family())
        assert not ok
        assert np.min(np.abs(grid.values)) > 0.1

    def test_sphere_normal_congruence(self):
        fam = rs.normal_congruence(
            rs.Sphere([0.5, -0.5, 2.0], 1.5), ((-0.3, 0.3), (-0.3, 0.3))
        )
        ok, _ = rs.is_rectangular(fam)
        assert ok

    def test_sinusoid_normal_congruence(self):
        fam = rs.normal_congruence(
            rs.Sinusoid(0.2, [1.0, 0.7]), ((-0.4, 0.4), (-0.4, 0.4))
        )
        ok, _ = rs.is_rectangular(fam)
        assert ok

    def test_plane_normal_congruence_is_collimated(self):
        plane = rs.Plane([0, 0, 1], 2.0)
        k1, k2 = (k.ravel() for k in np.meshgrid(np.linspace(-0.3, 0.3, 5), np.linspace(-0.3, 0.3, 5)))
        for outward, sign in ((True, 1.0), (False, -1.0)):
            fam = rs.normal_congruence(plane, ((-0.3, 0.3), (-0.3, 0.3)), outward=outward)
            u = fam.eval(k1, k2).u
            assert np.array_equal(u, np.broadcast_to(sign * plane.normal, u.shape))
            ok, _ = rs.is_rectangular(fam)
            assert ok

    def test_degenerate_family_fails_immersion(self):
        frozen = rs.line_through([0, 0, 0], [0, 0, 1])
        fam = row_by_row(lambda k1, k2: frozen, ((-0.1, 0.1), (-0.1, 0.1)), kind="stuck")
        with pytest.raises(ImmersionError):
            rs.is_rectangular(fam)

    def test_reparametrization_keeps_verdict(self):
        mat = np.array([[1.1, 0.2], [-0.1, 0.9]])

        def warp(base):
            def _eval(k1, k2):
                m1, m2 = mat @ np.array([k1, k2]) + 0.05 * np.array([k1 * k1, k2 * k1])
                return base.eval(m1, m2)

            return row_by_row(_eval, ((-0.1, 0.1), (-0.1, 0.1)), kind="warped")

        ok, _ = rs.is_rectangular(warp(rs.point_source([0, 0, 0], [0, 0, 1])))
        assert ok
        ok, _ = rs.is_rectangular(warp(skew_family()))
        assert not ok

    def test_grid_csv_shape(self):
        _, grid = rs.is_rectangular(rs.collimated([0, 0, 1]), grid=(3, 4))
        lines = grid.to_csv().strip().split("\n")
        assert lines[0] == "k1,k2,value"
        assert len(lines) == 1 + 3 * 4


class TestRegularPoints:
    def test_point_source_regular_away_from_apex(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        assert rs.is_regular_point(fam, (0.05, -0.02), t=1.0)
        assert rs.is_regular_point(fam, (0.0, 0.0), t=-2.0)
        assert not rs.is_regular_point(fam, (0.0, 0.0), t=0.0)

    def test_collimated_regular_everywhere(self):
        fam = rs.collimated([0, 1, 0])
        for t in (-3.0, 0.0, 4.0):
            assert rs.is_regular_point(fam, (0.1, 0.1), t=t)

    def test_focus_of_converging_family_is_singular(self):
        # run a point source backward: all lines meet at the image point
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        out = rs.transform_family(fam, mirror)
        # image point (0,0,-5) sits at parameter t with |t| = 5 along each line
        line0 = out.eval(0.0, 0.0)
        t_img = float((np.array([0, 0, -5.0]) - line0.q) @ line0.u)
        assert not rs.is_regular_point(out, (0.0, 0.0), t=t_img)
        assert rs.is_regular_point(out, (0.0, 0.0), t=t_img + 2.0)


class TestOneFormIntegral:
    def test_point_source_closed_form(self, rng):
        apex = np.array([0.0, 0.0, 5.0])
        fam = rs.point_source(apex, [0, 0, -1])
        for _ in range(5):
            ka = rng.uniform(-0.2, 0.2, 2)
            kb = rng.uniform(-0.2, 0.2, 2)
            # P(k) = apex - (apex . u) u, so u . dP = -d(apex . u)
            expected = float(apex @ fam.eval(*ka).u) - float(apex @ fam.eval(*kb).u)
            got = rs.one_form_integral(fam, ka, kb)
            assert abs(got - expected) < 1e-9

    def test_collimated_integral_vanishes(self):
        fam = rs.collimated([0, 0, 1])
        assert abs(rs.one_form_integral(fam, (-0.3, -0.1), (0.4, 0.2))) < 1e-12

    @pytest.mark.parametrize("grid", [3, 5, 9])
    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract", "mixed_device"])
    def test_agrees_with_the_wavefront(self, name, grid):
        # F one edge away from the base node is that edge's integral alone,
        # bit for bit, along k1 and along k2; on a 3x3 grid the edges refine
        # past level 8, on the finer grids they stop there
        scene = load_scene(str(ROOT / "scenes" / f"{name}.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        wf = rs.reconstruct_wavefront(fam, (0.0, 0.0), grid=grid)
        i0, j0 = wf.base_index
        ka = (wf.k1[i0], wf.k2[j0])
        for i, j in ((i0 + 1, j0), (i0, j0 + 1)):
            kb = (wf.k1[i], wf.k2[j])
            assert rs.one_form_integral(fam, ka, kb) == wf.values[i, j]
            assert (naive_cc_one_form(fam, ka, kb, 1e-9)[1] > 8) == (grid == 3)


class TestWavefront:
    def test_point_source_sphere(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1])
        wf = rs.reconstruct_wavefront(fam, k0=(0, 0), c=-1.0)
        radii = np.linalg.norm(wf.points, axis=2)
        assert np.max(np.abs(radii - 1.0)) < 1e-7
        assert wf.path_discrepancy < 1e-7

    def test_offset_point_source_sphere(self):
        apex = np.array([0.0, 0.0, 5.0])
        fam = rs.point_source(apex, [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        wf = rs.reconstruct_wavefront(fam, k0=(0, 0), c=2.0)
        # F + c = 2 at the base node; the foot there is the origin, distance
        # 5 from the apex, so every wavefront point is 3 from the apex
        radii = np.linalg.norm(wf.points - apex, axis=2)
        assert np.max(np.abs(radii - 3.0)) < 1e-7

    def test_collimated_plane(self):
        fam = rs.collimated([0, 0, 1])
        wf = rs.reconstruct_wavefront(fam, k0=(0, 0), c=0.75)
        assert np.max(np.abs(wf.points[:, :, 2] + 0.75)) < 1e-9

    def test_two_skew_lines_rejected(self):
        with pytest.raises(NotRectangularError, match=r"^path-dependent primitive at k=\(.+, .+\): L-path"):
            rs.reconstruct_wavefront(skew_family(), k0=(0, 0))

    def test_wavefront_through_apex_rejected(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        with pytest.raises(NonRegularError):
            rs.reconstruct_wavefront(fam, k0=(0, 0), c=5.0)

    def test_base_point_shifts_f_by_constant(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        wa = rs.reconstruct_wavefront(fam, k0=(-0.1, -0.1), c=2.0)
        wb = rs.reconstruct_wavefront(fam, k0=(0.1, 0.05), c=2.0)
        diff = wa.values - wb.values
        assert np.max(diff) - np.min(diff) < 1e-7

    def test_orthogonality(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        wf = rs.reconstruct_wavefront(fam, k0=(0, 0), c=2.0)
        assert rs.orthogonality_residual(fam, wf) < 1e-6

    def test_csv_header(self):
        fam = rs.collimated([0, 0, 1])
        wf = rs.reconstruct_wavefront(fam, k0=(0, 0), grid=3)
        lines = wf.to_csv().strip().split("\n")
        assert lines[0] == "k1,k2,qx,qy,qz,F"
        assert len(lines) == 1 + 9


class TestOrthogonalityWitness:
    """orthogonality_residual checks F against the family's optical length,
    so a surface that the rays do not cross at right angles fails it."""

    def test_two_skew_lines_fail(self):
        wf = rs.reconstruct_wavefront(skew_family(), k0=(0, 0), path_tol=1e9)
        assert rs.orthogonality_residual(skew_family(), wf) > 1e-6

    def test_f_shifted_at_one_node_fails(self):
        scene = load_scene(str(ROOT / "scenes" / "point_plane.scene"))
        fam = rs.transform_family(scene.family, scene.system)
        wf = rs.reconstruct_wavefront(fam, scene.options["k0"], c=scene.options["wavefront_c"])
        assert rs.orthogonality_residual(fam, wf) < 1e-9
        i, j = 3, 5
        values, points = wf.values.copy(), wf.points.copy()
        values[i, j] += 1e-6
        points[i, j] -= 1e-6 * fam.eval(wf.k1[i], wf.k2[j]).u
        shifted = dataclasses.replace(wf, values=values, points=points)
        assert rs.orthogonality_residual(fam, shifted) > 1e-6

    def test_a_family_without_a_source_raises(self):
        source = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        custom = plain(source)
        wf = rs.reconstruct_wavefront(custom, k0=(0, 0), c=2.0)
        with pytest.raises(ValueError, match="custom family has no source wavefront"):
            rs.orthogonality_residual(custom, wf)
        # nor does its image through a mirror have one
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], -1.0), rs.REFLECT, 1.0),))
        image = rs.transform_family(custom, mirror)
        wf = rs.reconstruct_wavefront(image, k0=(0, 0), c=2.0)
        with pytest.raises(ValueError, match=r"^transformed\(custom\) family has no source wavefront"):
            rs.orthogonality_residual(image, wf)


class TestTransformFamily:
    def test_empty_system_keeps_lines(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1])
        out = rs.transform_family(fam, rs.OpticalSystem(()))
        for k in [(0.0, 0.0), (0.12, -0.2)]:
            assert out.eval(*k) == fam.eval(*k)

    def test_length_through_two_systems_in_turn(self, rng):
        fam = rs.point_source([0.1, 0, 0], [0, 0.2, 1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        lens = rs.Interface(rs.Sphere([0, 0, 4.0], 2.0), rs.REFRACT, 1.0, 1.5)
        mirror = rs.Interface(rs.Plane([0, 0, 1], 8.0), rs.REFLECT, 1.5)
        k1, k2 = rng.uniform(-0.2, 0.2, (2, 7))
        whole = rs.transform_family(fam, rs.OpticalSystem((lens, mirror)))
        inner = rs.transform_family(fam, rs.OpticalSystem((lens,)))
        in_turn = rs.transform_family(inner, rs.OpticalSystem((mirror,), ambient_index=1.5))
        assert np.allclose(in_turn.eval(k1, k2).length, whole.eval(k1, k2).length, rtol=0, atol=1e-12)
        # an empty system keeps the source's length, (q - apex) . u
        line = fam.eval(k1, k2)
        empty = rs.transform_family(fam, rs.OpticalSystem(()))
        assert np.array_equal(empty.eval(k1, k2).length, np.vecdot(line.q - fam.start_point(k1, k2), line.u))
        # a source family whose lines carry no length gives none
        custom = rs.transform_family(plain(fam), rs.OpticalSystem((lens,)))
        assert custom.eval(k1, k2).length is None

    def test_plane_mirror_keeps_rectangular(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        out = rs.transform_family(fam, mirror)
        ok, grid = rs.is_rectangular(out)
        assert ok
        assert grid.max_abs < 1e-6

    def test_mirror_image_is_point_source(self):
        # reflected rays all pass through the image point (0, 0, -5)
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        out = rs.transform_family(fam, mirror)
        image = np.array([0.0, 0.0, -5.0])
        for k in [(0.0, 0.0), (0.15, -0.1), (-0.2, 0.2)]:
            line = out.eval(*k)
            rel = image - line.q
            assert np.linalg.norm(rel - (rel @ line.u) * line.u) < 1e-10

    def test_defect_scaling_under_refraction(self):
        fam = skew_family()
        n_in, n_out = 1.0, 1.6
        # skew-family lines climb in z, so the interface sits above them
        glass = rs.OpticalSystem(
            (rs.Interface(rs.Plane([0, 0, 1], 2.0), rs.REFRACT, n_in, n_out),)
        )
        out = rs.transform_family(fam, glass)
        for k in [(0.0, 0.0), (0.1, -0.08), (-0.12, 0.15)]:
            before = rs.defect(fam, k, h=1e-5)
            after = rs.defect(out, k, h=1e-5)
            assert abs(n_out * after - n_in * before) < 1e-6

    def test_defect_preserved_under_reflection(self):
        fam = skew_family()
        mirror = rs.OpticalSystem(
            (rs.Interface(rs.Plane([0, 0, 1], 2.0), rs.REFLECT, 1.0),)
        )
        out = rs.transform_family(fam, mirror)
        for k in [(0.0, 0.0), (-0.1, 0.07)]:
            assert abs(rs.defect(out, k, h=1e-5) - rs.defect(fam, k, h=1e-5)) < 1e-6

    def test_device_chain_stays_rectangular(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.1, 0.1), (-0.1, 0.1)))
        out = rs.transform_family(fam, make_device())
        ok, grid = rs.is_rectangular(out, grid=5, tol=1e-5)
        assert ok
        assert grid.max_abs < 1e-5

    def test_trace_error_carries_parameter(self):
        fam = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.3, 0.3), (-0.3, 0.3)))
        # small sphere below: the axial ray hits, wide-angle rays miss
        small = rs.OpticalSystem(
            (rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),)
        )
        out = rs.transform_family(fam, small)
        out.eval(0.0, 0.0)  # fine
        with pytest.raises(FamilyTraceError) as err:
            out.eval(0.3, 0.3)
        assert err.value.k == (0.3, 0.3)

    def test_anchor_tracks_last_hit(self):
        fam = rs.point_source([0, 0, 5], [0, 0, -1], domain=((-0.2, 0.2), (-0.2, 0.2)))
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        out = rs.transform_family(fam, mirror)
        assert abs(out.start_point(0.0, 0.0)[2]) < 1e-12
        assert np.allclose(fam.start_point(0.1, 0.1), [0, 0, 5])


class TestBuilders:
    def test_point_source_lines_pass_through_apex(self, rng):
        apex = np.array([1.0, -2.0, 0.5])
        fam = rs.point_source(apex, [0, 1, 0])
        for _ in range(5):
            line = fam.eval(*rng.uniform(-0.25, 0.25, 2))
            rel = apex - line.q
            assert np.linalg.norm(rel - (rel @ line.u) * line.u) < 1e-12

    def test_collimated_direction_fixed(self, rng):
        d = unit([0.3, 0.4, 0.8])
        fam = rs.collimated(d)
        for _ in range(5):
            assert np.allclose(fam.eval(*rng.uniform(-0.4, 0.4, 2)).u, d)

    def test_normal_congruence_hits_surface_orthogonally(self):
        sphere = rs.Sphere([0, 0, 0], 2.0)
        fam = rs.normal_congruence(sphere, ((-0.3, 0.3), (-0.3, 0.3)))
        for k in [(0.0, 0.0), (0.2, -0.1)]:
            p = fam.start_point(*k)
            assert abs(sphere.value(p)) < 1e-12
            line = fam.eval(*k)
            assert np.allclose(np.cross(line.u, rs.normal_at(sphere, p)), 0, atol=1e-12)

    def test_normal_congruence_quadric_unsupported(self):
        with pytest.raises(ValueError):
            rs.normal_congruence(
                rs.Quadric(np.eye(3), [0, 0, 0], -1.0), ((-0.1, 0.1), (-0.1, 0.1))
            )

    def test_object_without_normal_rays_fails_at_construction(self):
        # the builder raises, before any eval
        with pytest.raises(ValueError, match="^normal congruence not supported for object$"):
            rs.normal_congruence(object(), ((-0.1, 0.1), (-0.1, 0.1)))

    def test_domain_containment(self):
        fam = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.1, 0.2), (-0.3, 0.4)))
        assert fam.contains(0.0, 0.0)
        assert fam.contains(-0.1, 0.4)
        assert not fam.contains(0.21, 0.0)
        assert not fam.contains(0.0, 0.0, pad=0.5)
        assert abs(fam.diameter - np.hypot(0.3, 0.7)) < 1e-12
