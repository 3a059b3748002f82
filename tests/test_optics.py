import numpy as np
import pytest

import rayspace as rs
from rayspace.errors import (
    BadMediaChainError,
    GrazingError,
    TotalInternalReflectionError,
    TraceError,
)

from helpers import aimed_line, random_surface, random_unit, snell_sine, unit

SQ2 = np.sqrt(2.0)


class TestReflectDirection:
    def test_retroreflection(self):
        assert np.allclose(rs.reflect_direction([0, 0, -1], [0, 0, 1]), [0, 0, 1])

    def test_mirror_symmetry(self):
        u = np.array([1, 0, -1]) / SQ2
        assert np.allclose(rs.reflect_direction(u, [0, 0, 1]), [1 / SQ2, 0, 1 / SQ2])

    def test_grazing_rejected(self):
        with pytest.raises(GrazingError):
            rs.reflect_direction([1, 0, 0], [0, 0, 1])

    def test_preserves_angle_and_span(self, rng):
        for _ in range(50):
            n = random_unit(rng)
            u = random_unit(rng)
            if abs(u @ n) < 1e-3:
                continue
            u2 = rs.reflect_direction(u, n)
            assert abs(np.linalg.norm(u2) - 1.0) < 1e-12
            assert abs(abs(u2 @ n) - abs(u @ n)) < 1e-12
            # u2 stays in span{u, n}
            assert abs(u2 @ np.cross(u, n)) < 1e-12
            # tangential component unchanged
            assert np.allclose(u2 - (u2 @ n) * n, u - (u @ n) * n, atol=1e-12)

    def test_involution(self, rng):
        for _ in range(20):
            n = random_unit(rng)
            u = random_unit(rng)
            if abs(u @ n) < 1e-3:
                continue
            assert np.allclose(rs.reflect_direction(rs.reflect_direction(u, n), n), u)


class TestRefractDirection:
    def test_equal_indices_identity(self, rng):
        u = unit([0.3, -0.2, -0.9])
        assert np.allclose(rs.refract_direction(u, [0, 0, 1], 1.4, 1.4), u)

    def test_normal_incidence_any_indices(self):
        u = np.array([0.0, 0.0, -1.0])
        assert np.allclose(rs.refract_direction(u, [0, 0, 1], 1.0, 1.7), u)
        assert np.allclose(rs.refract_direction(u, [0, 0, 1], 1.7, 1.0), u)

    def test_thirty_degrees_doubling_index(self):
        # n1 sin(30 deg) = 0.5, so sin(theta_2) = 0.25 when n2 = 2
        u = np.array([0.5, 0.0, -np.sqrt(3) / 2])
        u2 = rs.refract_direction(u, [0, 0, 1], 1.0, 2.0)
        sin_out = np.linalg.norm(u2 - (u2 @ np.array([0, 0, 1.0])) * np.array([0, 0, 1.0]))
        assert abs(sin_out - 0.25) < 1e-12
        assert u2[2] < 0  # keeps going through

    def test_total_internal_reflection(self):
        u = np.array([0.8, 0.0, -0.6])
        with pytest.raises(TotalInternalReflectionError):
            rs.refract_direction(u, [0, 0, 1], 1.5, 1.0)

    def test_tir_threshold(self):
        # critical sine for 1.5 -> 1.0 is 2/3
        for s in (0.66, 0.666):
            u = np.array([s, 0.0, -np.sqrt(1 - s * s)])
            rs.refract_direction(u, [0, 0, 1], 1.5, 1.0)  # must not raise
        for s in (0.667, 0.67):
            u = np.array([s, 0.0, -np.sqrt(1 - s * s)])
            with pytest.raises(TotalInternalReflectionError):
                rs.refract_direction(u, [0, 0, 1], 1.5, 1.0)

    def test_grazing_rejected(self):
        with pytest.raises(GrazingError):
            rs.refract_direction([1, 0, 0], [0, 0, 1], 1.0, 1.5)

    def test_tangential_momentum_conserved(self, rng):
        for _ in range(100):
            n = random_unit(rng)
            u = random_unit(rng)
            if u @ n > 0:
                u = -u
            if u @ n > -1e-3:
                continue
            n1, n2 = rng.uniform(1.0, 2.0, 2)
            try:
                u2 = rs.refract_direction(u, n, n1, n2)
            except TotalInternalReflectionError:
                assert (n1 / n2) * np.linalg.norm(u - (u @ n) * n) >= 1.0
                continue
            assert abs(np.linalg.norm(u2) - 1.0) < 1e-12
            t1 = n1 * (u - (u @ n) * n)
            t2 = n2 * (u2 - (u2 @ n) * n)
            assert np.allclose(t1, t2, atol=1e-12)
            # ray continues to the far side
            assert np.sign(u2 @ n) == np.sign(u @ n)


class TestLineMaps:
    def test_reflect_axial_plane(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        out, hit = rs.reflect_line(line, rs.Plane([0, 0, 1], 0.0), t_min=-5.0)
        assert np.allclose(hit.point, [0, 0, 0])
        assert np.allclose(out.u, [0, 0, 1])
        assert np.allclose(out.q, [0, 0, 0])

    def test_reflect_offset_plane_foot(self):
        line = rs.line_through([0, 1, 5], [0, 0, -1])
        out, hit = rs.reflect_line(line, rs.Plane([0, 0, 1], 0.0), t_min=-5.0)
        assert np.allclose(hit.point, [0, 1, 0])
        assert np.allclose(out.u, [0, 0, 1])
        assert np.allclose(out.q, [0, 1, 0])

    def test_reflected_line_contains_hit(self, rng):
        sphere = rs.Sphere([0.1, -0.2, 0.3], 1.8)
        for _ in range(20):
            line, _, t0 = aimed_line(rng, sphere)
            out, hit = rs.reflect_line(line, sphere, t_min=t0)
            d = hit.point - out.q
            assert np.linalg.norm(d - (d @ out.u) * out.u) < 1e-10

    def test_refract_normal_incidence(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        out, hit = rs.refract_line(line, rs.Plane([0, 0, 1], 0.0), 1.0, 1.5, t_min=-5.0)
        assert np.allclose(out.u, [0, 0, -1])
        assert np.allclose(hit.point, [0, 0, 0])

    def test_refract_thirty_degrees(self):
        u = unit([0.5, 0.0, -np.sqrt(3) / 2])
        line = rs.line_through([0, 0, 0] + 5.0 * -u, u)
        t0 = float((-5.0 * u - line.q) @ line.u)
        out, _ = rs.refract_line(line, rs.Plane([0, 0, 1], 0.0), 1.0, 1.5, t_min=t0)
        angle_out = np.arccos(np.clip(out.u @ np.array([0, 0, -1.0]), -1, 1))
        assert abs(angle_out - np.arcsin(1.0 / 3.0)) < 1e-12

    def test_refract_sixty_degrees_tir(self):
        u = unit([np.sqrt(3) / 2, 0.0, -0.5])
        line = rs.line_through(-5.0 * u, u)
        t0 = float((-5.0 * u - line.q) @ line.u)
        with pytest.raises(TotalInternalReflectionError):
            rs.refract_line(line, rs.Plane([0, 0, 1], 0.0), 1.5, 1.0, t_min=t0)

    def test_snell_oracle_on_curved_surface(self, rng):
        sphere = rs.Sphere([0, 0, 0], 2.0)
        for _ in range(20):
            line, _, t0 = aimed_line(rng, sphere)
            n1, n2 = 1.0, rng.uniform(1.2, 1.8)
            out, hit = rs.refract_line(line, sphere, n1, n2, t_min=t0)
            sin_in = np.sqrt(max(0.0, 1.0 - hit.cos_incidence**2))
            sin_out = np.linalg.norm(out.u - (out.u @ hit.normal) * hit.normal)
            assert abs(sin_out - snell_sine(n1, n2, sin_in)) < 1e-12


class TestSystemTypes:
    def test_interface_validation(self):
        plane = rs.Plane([0, 0, 1], 0.0)
        with pytest.raises(ValueError):
            rs.Interface(plane, "absorb", 1.0)
        with pytest.raises(BadMediaChainError):
            rs.Interface(plane, rs.REFLECT, -1.0)
        with pytest.raises(BadMediaChainError):
            rs.Interface(plane, rs.REFRACT, 1.0)  # missing n_out
        with pytest.raises(BadMediaChainError):
            rs.Interface(plane, rs.REFRACT, 1.5, 1.5)

    def test_media_chain_checked(self):
        plane = rs.Plane([0, 0, 1], 0.0)
        glass = rs.Interface(plane, rs.REFRACT, 1.0, 1.5)
        bad = rs.Interface(rs.Plane([0, 0, 1], -1.0), rs.REFLECT, 1.0)
        with pytest.raises(BadMediaChainError) as err:
            rs.OpticalSystem((glass, bad), ambient_index=1.0)
        assert err.value.index == 1

    def test_media_list(self):
        p1 = rs.Plane([0, 0, 1], 0.0)
        p2 = rs.Plane([0, 0, 1], -1.0)
        sys = rs.OpticalSystem(
            (
                rs.Interface(p1, rs.REFRACT, 1.0, 1.5),
                rs.Interface(p2, rs.REFLECT, 1.5),
            ),
            ambient_index=1.0,
        )
        assert sys.media() == [1.0, 1.5, 1.5]
        assert sys.exit_index == 1.5

    def test_bend_is_the_interface_law(self, rng):
        plane = rs.Plane([0, 0, 1], 0.0)
        n = np.tile([0.0, 0.0, 1.0], (20, 1))
        u = rng.normal(size=(20, 3))
        u[:, 2] = -abs(u[:, 2]) - 0.3
        u /= np.linalg.norm(u, axis=1)[:, None]
        mirror = rs.Interface(plane, rs.REFLECT, 1.5)
        glass = rs.Interface(plane, rs.REFRACT, 1.0, 1.5)
        assert mirror.bend(u, n).tobytes() == rs.reflect_direction(u, n).tobytes()
        assert glass.bend(u, n).tobytes() == rs.refract_direction(u, n, 1.0, 1.5).tobytes()
        with pytest.raises(TotalInternalReflectionError):
            rs.Interface(plane, rs.REFRACT, 1.5, 1.0).bend([0.8, 0.0, -0.6], [0, 0, 1])


class TestPropagateSystem:
    def test_empty_system(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        result = rs.propagate_system(line, rs.OpticalSystem(()))
        assert result.line_out == line
        assert result.optical_length == 0.0
        assert result.hits == ()

    def test_single_mirror_length(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        sys = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        result = rs.propagate_system(line, sys, start=[0, 0, 5])
        assert abs(result.optical_length - 5.0) < 1e-12
        assert np.allclose(result.line_out.u, [0, 0, 1])

    def test_two_parallel_mirrors(self):
        line = rs.line_through([0, 0, 2], [0, 0, -1])
        sys = rs.OpticalSystem(
            (
                rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),
                rs.Interface(rs.Plane([0, 0, 1], 1.0), rs.REFLECT, 1.0),
            )
        )
        result = rs.propagate_system(line, sys, start=[0, 0, 2])
        assert abs(result.optical_length - 3.0) < 1e-12
        assert len(result.hits) == 2
        assert np.allclose(result.hits[0].point, [0, 0, 0])
        assert np.allclose(result.hits[1].point, [0, 0, 1])
        assert np.allclose(result.line_out.u, [0, 0, -1])

    def test_refraction_weights_length(self):
        # 1 unit in air + 1 unit in glass, measured to the second hit
        line = rs.line_through([0, 0, 1], [0, 0, -1])
        sys = rs.OpticalSystem(
            (
                rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, 1.0, 1.5),
                rs.Interface(rs.Plane([0, 0, 1], -1.0), rs.REFRACT, 1.5, 1.0),
            )
        )
        result = rs.propagate_system(line, sys, start=[0, 0, 1])
        assert abs(result.optical_length - (1.0 + 1.5)) < 1e-12

    def test_start_must_lie_on_line(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        with pytest.raises(ValueError):
            rs.propagate_system(line, rs.OpticalSystem(()), start=[1, 0, 0])

    def test_trace_error_carries_index(self):
        line = rs.line_through([0, 0, 5], [0, 0, -1])
        sys = rs.OpticalSystem(
            (
                rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),
                rs.Interface(rs.Sphere([10, 0, 10], 0.5), rs.REFLECT, 1.0),
            )
        )
        with pytest.raises(TraceError) as err:
            rs.propagate_system(line, sys, start=[0, 0, 5])
        assert err.value.interface_index == 1

    def test_does_not_rehit_same_surface(self):
        # after reflecting off the sphere's near side the ray must not be
        # blocked by the root it just left
        sphere = rs.Sphere([0, 0, 0], 1.0)
        line = rs.line_through([0.3, 0.1, 5], [0, 0, -1])
        sys = rs.OpticalSystem((rs.Interface(sphere, rs.REFLECT, 1.0),))
        result = rs.propagate_system(line, sys, start=[0.3, 0.1, 5])
        assert result.hits[0].point[2] > 0


def perturbed_incident(s, base_start, base_dir):
    start = base_start + s * np.array([0.13, -0.27, 0.05])
    direction = unit(base_dir + s * np.array([-0.04, 0.08, 0.02]))
    return rs.line_through(start, direction), start


class TestDifferentialIdentities:
    """Finite-difference checks of the two variational identities tying hit
    points, sliding endpoints, and optical length along a 1-parameter family."""

    def setup_case(self, action, n1=1.0, n2=1.5):
        surface = rs.Sphere([0.0, 0.0, 0.0], 2.0)
        base_start = np.array([0.4, -0.3, 5.0])
        base_dir = unit([-0.05, 0.08, -1.0])

        def trace(s):
            line, start = perturbed_incident(s, base_start, base_dir)
            t0 = float((start - line.q) @ line.u)
            if action == rs.REFLECT:
                out, hit = rs.reflect_line(line, surface, t_min=t0)
            else:
                out, hit = rs.refract_line(line, surface, n1, n2, t_min=t0)
            return line, out, hit

        return trace

    def test_momentum_dotted_with_hit_drift_reflection(self):
        trace = self.setup_case(rs.REFLECT)
        h = 1e-5
        _, _, hit_p = trace(h)
        _, _, hit_m = trace(-h)
        line0, out0, _ = trace(0.0)
        dP = (hit_p.point - hit_m.point) / (2 * h)
        assert abs((line0.u - out0.u) @ dP) < 1e-7

    def test_momentum_dotted_with_hit_drift_refraction(self):
        n1, n2 = 1.0, 1.5
        trace = self.setup_case(rs.REFRACT, n1, n2)
        h = 1e-5
        _, _, hit_p = trace(h)
        _, _, hit_m = trace(-h)
        line0, out0, _ = trace(0.0)
        dP = (hit_p.point - hit_m.point) / (2 * h)
        assert abs((n1 * line0.u - n2 * out0.u) @ dP) < 1e-7

    def path_data(self, trace, s, n1, n2):
        line, out, hit = trace(s)
        tau1 = 1.3 + 0.4 * s
        tau2 = 0.9 - 0.2 * s
        m1 = hit.point - tau1 * line.u
        m2 = hit.point + tau2 * out.u
        length = n1 * np.linalg.norm(hit.point - m1) + n2 * np.linalg.norm(m2 - hit.point)
        return m1, m2, length

    def check_length_differential(self, action, n1, n2):
        trace = self.setup_case(action, n1, n2)
        h = 1e-5
        m1p, m2p, lp = self.path_data(trace, h, n1, n2)
        m1m, m2m, lm = self.path_data(trace, -h, n1, n2)
        line0, out0, _ = trace(0.0)
        d_length = (lp - lm) / (2 * h)
        dm1 = (m1p - m1m) / (2 * h)
        dm2 = (m2p - m2m) / (2 * h)
        rhs = n2 * float(out0.u @ dm2) - n1 * float(line0.u @ dm1)
        assert abs(d_length - rhs) < 1e-6

    def test_length_differential_reflection(self):
        self.check_length_differential(rs.REFLECT, 1.0, 1.0)

    def test_length_differential_refraction(self):
        self.check_length_differential(rs.REFRACT, 1.0, 1.5)


class TestSymplecticity:
    def residual_for(self, rng, surface, action, n1=1.0, n2=1.5):
        line, _, t0 = aimed_line(rng, surface)

        if action == rs.REFLECT:
            def xform(l):
                return rs.reflect_line(l, surface, t_min=t0)[0]
            scale = 1.0
        else:
            def xform(l):
                return rs.refract_line(l, surface, n1, n2, t_min=t0)[0]
            scale = n1 / n2

        jac, _, _ = rs.chart_jacobian(xform, line)
        return rs.symplectic_residual(jac, scale=scale)

    def test_reflection_is_symplectic(self, rng):
        for kind in ("plane", "sphere", "quadric", "sinusoid"):
            for _ in range(3):
                surface = random_surface(rng, kind)
                assert self.residual_for(rng, surface, rs.REFLECT) < 1e-6

    def test_refraction_scales_the_form(self, rng):
        for kind in ("sphere", "sinusoid"):
            for _ in range(3):
                surface = random_surface(rng, kind)
                assert self.residual_for(rng, surface, rs.REFRACT) < 1e-6

    def test_wrong_scale_fails(self, rng):
        sphere = rs.Sphere([0, 0, 0], 2.0)
        line, _, t0 = aimed_line(rng, sphere)

        def xform(l):
            return rs.refract_line(l, sphere, 1.0, 1.5, t_min=t0)[0]

        jac, _, _ = rs.chart_jacobian(xform, line)
        assert rs.symplectic_residual(jac, scale=1.0) > 1e-3
