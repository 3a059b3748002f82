import ast
import pathlib
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rayspace as rs
from rayspace.errors import ChartDomainError, ZeroDirectionError
from rayspace.lines import CHART_MARGIN, _cross, _omega, _unproject

from helpers import line_tangent, random_unit, unit

finite = st.floats(-10.0, 10.0, allow_nan=False)
vec3 = st.tuples(finite, finite, finite)
direction3 = vec3.filter(lambda v: np.linalg.norm(v) > 1e-3)
PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "rayspace"
SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-300, 1e300, -1.5]
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL))


class TestOrientedLine:
    def test_foot_point_is_orthogonal(self):
        line = rs.line_through([3.0, -1.0, 2.0], [1.0, 2.0, -2.0])
        assert abs(line.q @ line.u) < 1e-12
        assert abs(np.linalg.norm(line.u) - 1.0) < 1e-12

    def test_point_recovery(self):
        p = np.array([3.0, -1.0, 2.0])
        line = rs.line_through(p, [0.0, 1.0, 1.0])
        t = float((p - line.q) @ line.u)
        assert np.allclose(line.point_at(t), p, atol=1e-12)

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirectionError):
            rs.line_through([0, 0, 0], [0, 0, 1e-13])

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            rs.OrientedLine(np.array([0.0, 0.0, 2.0]), np.zeros(3))
        with pytest.raises(ValueError):
            rs.OrientedLine(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]))

    def test_equality_is_exact_and_oriented(self):
        a = rs.line_through([0, 0, 0], [0, 0, 1])
        b = rs.line_through([0, 0, 5], [0, 0, 2])
        assert a == b
        assert rs.reverse(a) != a
        assert rs.reverse(rs.reverse(a)) == a

    def test_opposite_orientations_share_support(self):
        a = rs.line_through([1, 2, 3], [3, -1, 2])
        r = rs.reverse(a)
        assert np.allclose(r.q, a.q)
        assert np.allclose(r.u, -a.u)

    @given(vec3, direction3)
    def test_line_through_normalizes(self, p, d):
        line = rs.line_through(p, d)
        assert abs(np.linalg.norm(line.u) - 1.0) < 1e-9
        assert abs(line.q @ line.u) < 1e-9 * max(1.0, np.linalg.norm(p))
        # the input point lies on the line
        rel = np.asarray(p, dtype=float) - line.q
        off = rel - (rel @ line.u) * line.u
        assert np.linalg.norm(off) < 1e-9 * max(1.0, np.linalg.norm(p))


class TestCharts:
    def test_chart_for_picks_far_pole(self):
        assert rs.chart_for([0, 0, 1]) == rs.SOUTH
        assert rs.chart_for([0, 0, -1]) == rs.NORTH
        assert rs.chart_for([1, 0, 0]) == rs.SOUTH

    def test_roundtrip_both_charts(self):
        line = rs.line_through([1.0, -2.0, 0.5], [0.3, 0.2, 0.4])
        for chart_id in (rs.NORTH, rs.SOUTH):
            back = rs.line_from_coords(*rs.chart_coords(line, chart_id))
            assert np.allclose(back.u, line.u, atol=1e-12)
            assert np.allclose(back.q, line.q, atol=1e-12)

    @given(vec3, direction3)
    def test_roundtrip_default_chart(self, p, d):
        line = rs.line_through(p, d)
        back = rs.line_from_coords(*rs.chart_coords(line))
        assert np.allclose(back.u, line.u, atol=1e-9)
        assert np.allclose(back.q, line.q, atol=1e-8 * max(1.0, np.linalg.norm(p)))

    def test_pole_is_outside_chart_domain(self):
        line = rs.line_through([0, 0, 0], [0, 0, 1])
        with pytest.raises(ChartDomainError):
            rs.chart_coords(line, rs.NORTH)
        near = rs.line_through([0, 0, 0], unit([2e-3, 0.0, 1.0]))
        rs.chart_coords(near, rs.NORTH)  # close but allowed

    def test_unproject_jacobian_matches_fd(self, rng):
        for chart_id in (rs.NORTH, rs.SOUTH):
            a = rng.uniform(-1.5, 1.5, (1, 2))  # a batch of one
            u, jac = _unproject(chart_id, a)
            h = 1e-7
            for i in range(2):
                da = np.zeros(2)
                da[i] = h
                fd = (_unproject(chart_id, a + da)[0] - _unproject(chart_id, a - da)[0]) / (2 * h)
                assert np.allclose(jac[0, :, i], fd[0], atol=1e-7)

    def test_coords_roundtrip(self):
        line = rs.line_through([0.4, 1.0, -2.0], [1.0, -0.5, 0.25])
        x, chart_id = rs.chart_coords(line)
        assert x.shape == (4,)
        back = rs.line_from_coords(x, chart_id)
        assert np.allclose(back.u, line.u, atol=1e-12)
        assert np.allclose(back.q, line.q, atol=1e-12)


class TestSymplecticPairing:
    """lines._omega, the package's one two-form, on tangent vectors (du, dq)."""

    def test_antisymmetry_and_bilinearity(self, rng):
        line = rs.line_through(rng.normal(size=3), random_unit(rng))
        # three tangent vectors at the line: u . du = 0, q . du + u . dq = 0
        du = rng.normal(size=(3, 3))
        du -= np.outer(du @ line.u, line.u)
        dq = rng.normal(size=(3, 3))
        dq -= np.outer(dq @ line.u + du @ line.q, line.u)
        w12 = _omega(du[0], dq[0], du[1], dq[1])
        assert abs(w12 + _omega(du[1], dq[1], du[0], dq[0])) < 1e-12
        assert abs(_omega(2.0 * du[0], 2.0 * dq[0], du[1], dq[1]) - 2.0 * w12) < 1e-12
        w32 = _omega(du[2], dq[2], du[1], dq[1])
        assert abs(_omega(du[0] + du[2], dq[0] + dq[2], du[1], dq[1]) - (w12 + w32)) < 1e-12
        # row by row over a stack, each row bit for bit alone
        rows = _omega(du, dq, du[[1, 2, 0]], dq[[1, 2, 0]])
        assert rows[0] == w12

    def test_pairing_ignores_representative_point(self, rng):
        """Sliding the varied points along the lines leaves omega unchanged."""
        apex = np.array([0.0, 0.0, 3.0])
        fam = rs.point_source(apex, [0.1, 0.2, -1.0])

        def curve1(s):
            return fam.eval(s, 0.0)

        def curve2(s):
            return fam.eval(0.0, s)

        du1, dq1 = line_tangent(curve1)
        du2, dq2 = line_tangent(curve2)
        base = _omega(du1, dq1, du2, dq2)

        # same curves tracked through a non-foot representative point:
        # P(s) = point of the line at a fixed distance from the apex
        def rep(curve):
            def _var(s):
                ln = curve(s)
                t = float((apex - ln.q) @ ln.u)
                return ln.point_at(t + 2.5)

            h = 1e-6
            return (_var(h) - _var(-h)) / (2 * h)

        shifted = _omega(du1, rep(curve1), du2, rep(curve2))
        assert abs(shifted - base) < 1e-6

    def test_chart_pairing_matches_direct_formula(self, rng):
        """The chart two-form Omega reproduces omega = dq . du' - dq' . du."""
        for _ in range(10):
            line = rs.line_through(rng.normal(size=3), random_unit(rng))
            x0, chart_id = rs.chart_coords(line)
            omega = rs.chart_symplectic_matrix()
            d1 = rng.normal(size=4)
            d2 = rng.normal(size=4)

            def curve(d):
                def _c(s):
                    return rs.line_from_coords(x0 + s * d, chart_id)

                return _c

            direct = _omega(*line_tangent(curve(d1)), *line_tangent(curve(d2)))
            via_chart = float(d1 @ omega @ d2)
            assert abs(direct - via_chart) < 1e-6 * max(1.0, abs(via_chart))

    def test_chart_transition_is_symplectic(self, rng):
        """Changing stereographic chart preserves the pairing matrix."""
        for _ in range(10):
            u = unit([rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7), rng.uniform(-0.5, 0.5)])
            line = rs.line_through(rng.normal(size=3), u)
            jac, chart_in, chart_out = rs.chart_jacobian(
                lambda l: l, line, chart_in=rs.NORTH, chart_out=rs.SOUTH
            )
            assert (chart_in, chart_out) == (rs.NORTH, rs.SOUTH)
            assert rs.symplectic_residual(jac) < 1e-6

    def test_translation_is_symplectic(self, rng):
        """Moving the origin (translating every line) preserves omega."""
        shift = np.array([0.7, -1.3, 2.1])
        for _ in range(10):
            line = rs.line_through(rng.normal(size=3), random_unit(rng))
            jac, _, _ = rs.chart_jacobian(
                lambda l: rs.line_through(l.q + shift, l.u), line
            )
            assert rs.symplectic_residual(jac) < 1e-6

    def test_chart_symplectic_matrix_shape(self):
        omega = rs.chart_symplectic_matrix()
        assert omega.shape == (4, 4)
        assert np.allclose(omega, -omega.T)
        assert np.allclose(omega @ omega, -np.eye(4))


def numpy_calls(name):
    """(module, innermost function) of every use of np.<name> in
    src/rayspace, from the syntax trees, so docstrings and comments do not
    count; the function is None at module level."""
    found = []

    class Uses(ast.NodeVisitor):
        scope = None

        def visit_FunctionDef(self, node):
            outer, self.scope = self.scope, node.name
            self.generic_visit(node)
            self.scope = outer

        def visit_Attribute(self, node):
            if ast.unparse(node) in (f"np.{name}", f"numpy.{name}"):
                found.append((path.stem, self.scope))
            self.generic_visit(node)

    for path in sorted(PACKAGE.rglob("*.py")):
        Uses().visit(ast.parse(path.read_text(encoding="utf-8")))
    return found


class TestCross:
    """lines._cross is np.cross over the last axis, byte for byte."""

    @staticmethod
    def assert_same_bytes(a, b):
        with warnings.catch_warnings():  # inf - inf and 0 * inf warn in both alike
            warnings.simplefilter("ignore", RuntimeWarning)
            got, want = _cross(a, b), np.cross(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(st.lists(any_float, min_size=6, max_size=6))
    def test_single_vectors(self, values):
        self.assert_same_bytes(np.array(values[:3]), np.array(values[3:]))

    @given(st.integers(0, 6).flatmap(lambda n: st.lists(any_float, min_size=6 * n, max_size=6 * n)))
    def test_batches(self, values):
        a, b = np.array(values, dtype=float).reshape(2, -1, 3)
        self.assert_same_bytes(a, b)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(any_float, min_size=3 * n + 3, max_size=3 * n + 3)))
    def test_one_vector_against_a_batch(self, values):
        one, many = np.array(values[:3])[None], np.array(values[3:]).reshape(-1, 3)
        self.assert_same_bytes(one, many)
        self.assert_same_bytes(many, one)

    def test_every_triple_of_special_values(self):
        grid = np.array(np.meshgrid(SPECIAL, SPECIAL, SPECIAL, indexing="ij")).reshape(3, -1).T
        rng = np.random.default_rng(7)
        self.assert_same_bytes(grid, grid[rng.permutation(len(grid))])

    def test_package_calls_no_np_cross(self):
        assert numpy_calls("cross") == []

    def test_only_svd_is_the_mirror_fit(self):
        assert numpy_calls("linalg.svd") == [("variational", "_verify_focus")]
