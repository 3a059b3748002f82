"""The mirror design solves the level equation of all its grid nodes at once,
in closed form.

`design_focusing_mirror` must have the outcome of the design that solves
node by node with a bracket and a Newton–bisection
(`design_focusing_mirror_oracle`): the same error, with the same `k`, as the
first failing node in (i, j) order, or mirror points whose level-equation
residuals are within 16 eps of the terms that make them up, and no larger
than the oracle's by more than that.  `verify_focus` fits the quadrics of all
interior nodes in one stacked SVD and must agree with the node-by-node lstsq
fits (`verify_focus_oracle`) on every design checked here.  The `mirror`
command writes the pinned bytes.
"""

import dataclasses
import pathlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import rayspace as rs
from rayspace.cli import main
from rayspace.errors import GrazingError, IllConditionedFitError, NoIntersectionError, RaySpaceError
from rayspace.families import _grid_lines
from rayspace.lines import _first, _frame, _norm
from rayspace.scene import load_scene
from rayspace.surfaces import _newton_bisect

from helpers import design_focusing_mirror_oracle, flat_for_negative_k1, newton_bisect, verify_focus_oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = pathlib.Path(__file__).resolve().parent / "data" / "mirror_design"

NARROW = ((-0.002, 0.002), (-0.002, 0.002))
WIDE = ((-0.2, 0.2), (-0.2, 0.2))


def outcome(fn):
    try:
        return fn()
    except (RaySpaceError, ValueError) as exc:
        return exc


def assert_same_design(family, **kw):
    """The batched design against the oracle: the same error type, message
    and k, or level residuals of at most 16 eps (relative to each node's
    scale) at every node and at most 16 eps above the oracle's; and
    verify_focus of the design against its oracle.  Returns the outcome."""
    got = outcome(lambda: rs.design_focusing_mirror(family, **kw))
    want = outcome(lambda: design_focusing_mirror_oracle(family, **kw))
    if isinstance(want, Exception) or isinstance(got, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "k", None) == getattr(want, "k", None)
        return got
    assert np.array_equal(got.k1, want.k1) and np.array_equal(got.k2, want.k2)
    residual = level_residuals(got, family, **kw)
    assert (residual <= 16.0).all()
    assert (residual <= level_residuals(want, family, **kw) + 16.0).all()
    assert_same_focus(got, family)
    return got


def level_residuals(design, family, k0, grid=9, h=None, **_):
    """|g(t)| / (eps * scale) at every node of a design, for the node's
    mirror point X at ray parameter t = u . (X - q):

        g(t) = (t - t_front) + epsilon * |X - focus| - level
        scale = 1 + |t| + |t_front| + |level| + |X - focus|
    """
    wf = rs.reconstruct_wavefront(family, k0, c=design.wavefront_c, grid=grid, h=h)
    _, u, q, _ = _grid_lines(family, design.k1, design.k2)
    t_front = -(wf.values + design.wavefront_c)
    t = np.vecdot(u, design.points - q)
    dist = _norm(design.points - design.focus)
    g = (t - t_front) + design.epsilon * dist - design.level
    scale = 1.0 + abs(t) + abs(t_front) + abs(design.level) + dist
    return abs(g) / (np.finfo(float).eps * scale)


def assert_same_focus(design, family):
    """The stacked fit against the node-by-node lstsq fits: the same verdict
    and worst within 1e-9 relative, or the same error type, message and row.
    Returns the outcome.

    The two fits round differently, and a miss is only as precise as the
    slopes of its fit: their round-off grows with the stencils' extent over
    their shortest central difference, and the distance to the focus carries
    it into the miss.  A difference within 16 eps times both (16 bounds the
    condition of a 9x6 fit on a 3x3 stencil) also passes; a worst near
    round-off, or on a stretched design, has no relative digits to compare.
    """
    got = outcome(lambda: rs.verify_focus(design, family))
    want = outcome(lambda: verify_focus_oracle(design, family))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert getattr(got, "row", None) == getattr(want, "row", None)
        return got
    assert got[0] == want[0]
    p = design.points
    spans = np.append(_norm(p[2:, 1:-1] - p[:-2, 1:-1]), _norm(p[1:-1, 2:] - p[1:-1, :-2]))
    stretch = _norm(np.ptp(p.reshape(-1, 3), axis=0)) / spans.min()
    roundoff = 16.0 * np.finfo(float).eps * np.max(_norm(p - design.focus)) * stretch
    assert abs(got[1] - want[1]) <= max(1e-9 * want[1], roundoff)
    return got


class TestAgainstOracle:
    def test_bundled_scene(self):
        scene = load_scene(ROOT / "scenes" / "mirror_design.scene")
        family = rs.transform_family(scene.family, scene.system)
        opts = scene.options
        design = assert_same_design(
            family,
            k0=opts["k0"],
            focus=opts["focus"],
            epsilon=opts["epsilon"],
            level=opts["level"],
            grid=opts["grid"],
            wavefront_c=opts["wavefront_c"],
        )
        assert design.points.shape == (13, 13, 3)

    @pytest.mark.parametrize(
        "family, kw",
        [
            (rs.point_source([0, 0, 0], [0, 0, 1], domain=WIDE),
             dict(focus=[0.3, 0.2, 1.2], epsilon=1, level=3.2, grid=9, wavefront_c=-1.0)),
            (rs.point_source([0, 0, 0], [0, 0, 1], domain=NARROW),
             dict(focus=[0.3, 0.2, 1.2], epsilon=1, level=3.2, grid=13, wavefront_c=-1.0)),
            (rs.collimated([0, 0, 1], domain=WIDE),
             dict(focus=[0.1, -0.2, 1.5], epsilon=1, level=2.5, grid=9)),
            (rs.collimated([0, 0, 1], domain=NARROW),
             dict(focus=[0.1, -0.2, 1.5], epsilon=1, level=2.5, grid=13)),
            (rs.point_source([0, 0, 0], [0, 0, 1], domain=NARROW),
             dict(focus=[0, 0, 2.0], epsilon=1, level=0.5, grid=5, wavefront_c=-1.0)),
            (rs.point_source([0, 0, 0], [0, 0, 1], domain=NARROW),
             dict(focus=[0, 0, 2.0], epsilon=-1, level=0.5, grid=13, wavefront_c=-1.0)),
        ],
    )
    def test_criterion_6_designs(self, family, kw):
        assert_same_design(family, k0=(0, 0), **kw)

    @given(
        collimated=st.booleans(),
        half_width=st.floats(0.001, 0.2),
        focus=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
        epsilon=st.sampled_from([-1, 1]),
        level=st.floats(-3.0, 5.0),
        wavefront_c=st.floats(-2.0, 2.0),
        grid=st.integers(3, 11),
    )
    # g = (t - t_front) - |X - focus| rounds to 0 at t = 2**28 - 1, far
    # short of its roots (4.5e8 to 5.5e8); node (2, 0) is the first whose
    # root lies beyond the reach 2**29 - 1
    @example(
        collimated=True, half_width=0.125, focus=[1.0, 3.0, 1e-08], epsilon=-1, level=0.0,
        wavefront_c=0.0, grid=3,
    )
    # near the axis: the squared equation's root alone leaves 20.2 eps at
    # the edge midpoints, one Newton step on g at most 0.37 eps
    @example(
        collimated=False, half_width=0.0014017007569947807, focus=[0.0, 0.0, -0.7960822774141949],
        epsilon=-1, level=0.0, wavefront_c=0.8125, grid=3,
    )
    # the centre node's mirror point is the focus itself: the Newton step
    # meets |X - focus| = 0
    @example(
        collimated=True, half_width=0.015625, focus=[0.0, 0.0, 0.0], epsilon=-1, level=0.0,
        wavefront_c=1e-12, grid=3,
    )
    def test_random_designs(self, collimated, half_width, focus, epsilon, level, wavefront_c, grid):
        domain = ((-half_width, half_width), (-half_width, half_width))
        if collimated:
            family = rs.collimated([0, 0, 1], domain=domain)
        else:
            family = rs.point_source([0, 0, 0], [0, 0, 1], domain=domain)
        assert_same_design(
            family, k0=(0, 0), focus=focus, epsilon=epsilon, level=level,
            grid=grid, wavefront_c=wavefront_c,
        )


def _missing_between(family, lo, hi):
    """The family whose rays with lo < k1 < hi fail to trace."""

    def _eval(k1, k2):
        bad = _first((lo < np.asarray(k1)) & (np.asarray(k1) < hi))
        if bad is not None:
            raise NoIntersectionError(f"ray misses at k1={float(np.asarray(k1)[bad])}").at(bad)
        return family.eval(k1, k2)

    return dataclasses.replace(family, eval=_eval)


class TestFailingFamilies:
    """The design raises the error of its wavefront's batch, then of its
    one-form levels, then tests immersion and rectangularity on the node
    tangents of those levels, and then fails as the wavefront does: as the
    oracle, which evaluates the batch's lines and integrals, then tests
    the tangents of each segment alone."""

    SOURCE = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))
    MISSED = rs.OpticalSystem((rs.Interface(rs.Sphere([0.3, 0, 3.0], 0.5), rs.REFLECT, 1.0),))

    @pytest.mark.parametrize(
        "family, error",
        [
            # the node tangents fail the immersion test
            (flat_for_negative_k1(SOURCE), rs.ImmersionError),
            (rs.two_skew_lines([1, 0, 0], [1, 0, 0], [0, 1, 1], [0, 1, 0]), rs.NotRectangularError),
            # a grid line misses the mirror
            (rs.transform_family(SOURCE, MISSED), rs.FamilyTraceError),
            # only one-form nodes between grid lines fail
            (_missing_between(SOURCE, 0.05, 0.09), NoIntersectionError),
        ],
    )
    def test_same_error(self, family, error):
        err = assert_same_design(family, k0=(0, 0), focus=[0.3, 0.2, 1.2], epsilon=1, level=3.2, grid=3)
        assert isinstance(err, error)

    def test_failing_grid_line_after_the_rectangularity_test(self):
        # only the ray of the centre node of the 3x3 grid fails, and the
        # family is rectangular: the batch fails at that node, and the
        # design raises the batch's error at once
        calls = []

        def _eval(k1, k2):
            calls.append(len(k1))
            centre = _first((np.asarray(k1) == 0.0) & (np.asarray(k2) == 0.0))
            if centre is not None:
                raise NoIntersectionError("ray misses at the centre node").at(centre)
            return self.SOURCE.eval(k1, k2)

        family = dataclasses.replace(self.SOURCE, eval=_eval)
        with pytest.raises(NoIntersectionError) as err:
            rs.design_focusing_mirror(family, (0, 0), [0.3, 0.2, 1.2], 1, 3.2, grid=3)
        # the wavefront's batch: 9 grid lines and 7 level-8 nodes on each of
        # 12 segments, and no line again
        assert calls == [9 + 7 * 12]
        assert rs.is_rectangular(family, grid=3)[0]
        with pytest.raises(NoIntersectionError) as want:
            rs.reconstruct_wavefront(family, (0, 0), grid=3)
        assert str(err.value) == str(want.value) and err.value.row == want.value.row == 4


class TestMissedSphere:
    """The family of the CI step "CLI mirror whose rays miss a sphere": a
    point source over a small reflecting sphere."""

    SOURCE = rs.point_source([0, 0, 0], [0, 0, -1], domain=((-0.16, 0.16), (-0.16, 0.16)))
    BALL = rs.OpticalSystem((rs.Interface(rs.Sphere([0, 0, -3.0], 0.5), rs.REFLECT, 1.0),))

    def test_one_batch_and_no_line_again(self):
        family = rs.transform_family(self.SOURCE, self.BALL)
        calls = []

        def counted(k1, k2):
            calls.append(np.size(k1))
            return family.eval(k1, k2)

        with pytest.raises(rs.FamilyTraceError) as err:
            rs.design_focusing_mirror(
                dataclasses.replace(family, eval=counted), (0, 0), [0, 0, -1], 1, 3.0
            )
        # the wavefront's one batch of 81 + 7 * 144 rows, and no line again
        assert calls == [1089]
        k = -0.1599954745166004
        assert str(err.value) == f"at k=({k}, {k}): interface 0: ray misses Sphere in (0, 1e+06]"
        with pytest.raises(rs.FamilyTraceError) as wavefront:
            rs.reconstruct_wavefront(family, (0, 0))
        assert (str(wavefront.value), wavefront.value.row) == (str(err.value), err.value.row)


class TestRootRules:
    BEAM = rs.collimated([0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))

    @pytest.mark.parametrize(
        "focus, level, root",
        [
            ([3, 0, 4], 5.0, 0.0),  # C^2 - |r|^2 = 25 - 25 = 0
            ([3, 0, 3], 4.0, -1.0),  # (16 - 18) / (2 (4 - 3))
            ([3, 0, -3], 6.0, 1.0),  # (36 - 18) / (2 (6 + 3))
        ],
    )
    def test_exact_root_on_the_central_ray(self, focus, level, root):
        # the central ray is the z axis and t_front = 0 there, so C = level
        # and r = -focus: the closed form gives the ray parameter `root`
        # without rounding
        design = assert_same_design(self.BEAM, k0=(0, 0), focus=focus, epsilon=1, level=level, grid=3)
        assert (design.points[1, 1] == [0.0, 0.0, root]).all()

    @pytest.mark.parametrize("offset, reached", [(3.0e4, True), (3.5e4, False)])
    def test_reach(self, offset, reached):
        # focus (offset, 0, 0) and level 1: the central root is at about
        # -offset^2 / 2, i.e. -4.5e8 (within 2**29 - 1 = 5.4e8 of the
        # wavefront) or -6.1e8 (beyond it)
        beam = rs.collimated([0, 0, 1], domain=((-1e-3, 1e-3), (-1e-3, 1e-3)))
        got = assert_same_design(
            beam, k0=(0, 0), focus=[offset, 0, 0], epsilon=1, level=1.0, grid=3
        )
        assert isinstance(got, rs.MirrorDesign) is reached

    def test_limit_within_round_off_of_zero(self):
        # the finite limit is 1.4e-45 > 0, but g rounds to 0 far out on its
        # asymptote: a bracket search stopped there, at edge points
        # z ~ 3.4e7, and verify_focus called that design focused
        beam = rs.collimated([0, 0, 1], domain=((-0.125, 0.125), (-0.125, 0.125)))
        err = assert_same_design(
            beam, k0=(0, 0), focus=[0, 0, 1.4e-45], epsilon=-1, level=0.0, grid=3
        )
        assert isinstance(err, rs.NoRootError)
        assert err.k == (-0.12499646446609407, -0.12499646446609407)  # the first node

    def test_subnormal_limit(self):
        # a finite limit of 1e-320 fails the round-off test, and dividing by
        # it overflows: NoRootError, not a RuntimeWarning
        beam = rs.collimated([0, 0, 1], domain=((-0.125, 0.125), (-0.125, 0.125)))
        err = assert_same_design(
            beam, k0=(0, 0), focus=[0, 0, 1e-320], epsilon=-1, level=0.0, grid=3
        )
        assert isinstance(err, rs.NoRootError)

    def test_first_failing_node_is_named(self):
        # two nodes without a root: node (2, 1) passes the finite-limit check
        # by 1e-5 and fails only as its root, near -5e9, lies beyond the
        # reach 2**29 - 1; node (2, 2) fails the finite-limit check; the
        # earlier node is named
        src = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))
        wf = rs.reconstruct_wavefront(src, (0, 0), c=-1.0, grid=3)
        us, qs = wf.u, wf.q
        a, e1, e2 = _frame([0, 0, 1])
        focus = 300.0 * e1 + 100.0 * e2 + 0.5 * a
        limit = (wf.values - 1.0) + np.vecdot(us, focus - qs)
        level = float(limit[2, 1]) + 1e-5
        failing = limit - level >= 0.0
        assert not failing[:2].any() and not failing[2, :2].any() and failing[2, 2]
        err = assert_same_design(
            src, k0=(0, 0), focus=focus, epsilon=1, level=level, grid=3, wavefront_c=-1.0
        )
        assert isinstance(err, rs.NoRootError)
        assert err.k == (float(wf.k1[2]), float(wf.k2[1]))


class TestStackedFit:
    K = np.array([-0.1, -0.05, 0.0, 0.05, 0.1])
    BEAM = rs.collimated([0, 0, 1], domain=((-0.1, 0.1), (-0.1, 0.1)))

    def plane_design(self):
        """A flat 5x5 mirror grid under the beam, focus above it."""
        points = np.zeros((5, 5, 3))
        points[..., 0], points[..., 1] = np.meshgrid(self.K, self.K, indexing="ij")
        points[..., 2] = -1.0
        return rs.MirrorDesign(
            k1=self.K, k2=self.K, points=points, focus=np.array([0.0, 0.0, 1.0]),
            epsilon=1, level=1.0, wavefront_c=0.0,
        )

    def rank_deficient_at_node_3(self, design):
        """Move the four corners of the stencil of interior node 3, (2, 1),
        onto the axes through it: the x*y column of its fit vanishes."""
        corners = {(1, 0): (-1, 0), (1, 2): (0, 1), (3, 0): (0, -1), (3, 2): (1, 0)}
        for (a, b), offset in corners.items():
            design.points[a, b] = design.points[2, 1] + 0.025 * np.array([*offset, 0.0])

    def test_rank_deficient_fit_before_a_degenerate_stencil(self):
        design = self.plane_design()
        # interior node 5, (2, 3): t1 = 0, a degenerate stencil
        design.points[3, 3] = design.points[1, 3]
        err = assert_same_focus(design, self.BEAM)
        assert isinstance(err, IllConditionedFitError) and err.row == 5
        assert str(err) == "degenerate stencil around a mirror node at k=(0.0, 0.05)"
        self.rank_deficient_at_node_3(design)
        err = assert_same_focus(design, self.BEAM)
        assert isinstance(err, IllConditionedFitError) and err.row == 3
        assert str(err) == "rank-deficient quadratic fit at k=(0.0, -0.05)"
        # one corner 1e-13 off its axis: a poorly conditioned fit, but of rank 6
        design.points[1, 0, 1] += 1e-13
        err = assert_same_focus(design, self.BEAM)
        assert isinstance(err, IllConditionedFitError) and err.row == 5

    def test_stencil_along_the_normal_is_degenerate(self):
        # all nine points on the normal line through the centre: t1 x t2 = 0,
        # so the degenerate check catches what a collapsed check would
        k = np.array([-0.1, 0.0, 0.1])
        points = np.zeros((3, 3, 3))
        points[..., 2] = -1.0 + 0.01 * np.arange(9.0).reshape(3, 3)
        design = rs.MirrorDesign(
            k1=k, k2=k, points=points, focus=np.array([0.0, 0.0, 1.0]),
            epsilon=1, level=1.0, wavefront_c=0.0,
        )
        err = assert_same_focus(design, self.BEAM)
        assert isinstance(err, IllConditionedFitError) and err.row == 0
        assert str(err) == "degenerate stencil around a mirror node at k=(0.0, 0.0)"

    def test_lines_in_one_eval_call(self):
        design = rs.design_focusing_mirror(
            self.BEAM, k0=(0, 0), focus=[0.1, -0.2, 1.5], epsilon=1, level=2.5
        )
        sizes = []

        def counted(k1, k2):
            sizes.append(np.size(k1))
            return self.BEAM.eval(k1, k2)

        rs.verify_focus(design, dataclasses.replace(self.BEAM, eval=counted))
        assert sizes == [49]  # the 7x7 interior nodes of the 9x9 grid

    def test_fit_error_comes_before_a_grazing_reflection(self):
        # the fits are a stage before the reflections: the degenerate
        # stencil of interior node 5 wins over the grazing ray of node 0
        def grazing_at_node_0(k1, k2):
            line = self.BEAM.eval(k1, k2)
            graze = (np.asarray(k1) == -0.05) & (np.asarray(k2) == -0.05)
            return rs.line_through(line.q, np.where(graze[..., None], [1.0, 0.0, 1e-8], line.u))

        family = dataclasses.replace(self.BEAM, eval=grazing_at_node_0)
        design = self.plane_design()
        err = assert_same_focus(design, family)
        assert isinstance(err, GrazingError) and err.row == 0
        design.points[3, 3] = design.points[1, 3]  # node 5, (2, 3): t1 = 0
        err = assert_same_focus(design, family)
        assert isinstance(err, IllConditionedFitError) and err.row == 5
        assert str(err) == "degenerate stencil around a mirror node at k=(0.0, 0.05)"

    def test_family_error_comes_before_fit_errors(self):
        # the lines are evaluated first: a line failing at interior node 6
        # is raised before the rank-deficient fit of node 3
        def eval_up_to(k1, k2):
            row = _first(np.asarray(k1) > 0.01)
            if row is not None:
                raise NoIntersectionError("ray lost").at(row)
            return self.BEAM.eval(k1, k2)

        design = self.plane_design()
        self.rank_deficient_at_node_3(design)
        family = dataclasses.replace(self.BEAM, eval=eval_up_to)
        err = outcome(lambda: rs.verify_focus(design, family))
        assert isinstance(err, NoIntersectionError) and err.row == 6


class TestNewtonBisect:
    def test_rows_converge_at_different_iterations(self):
        # a*t + b*t^3 - c on [lo, hi]: the linear row converges after one
        # Newton step, the cubic rows later; the last starts where dg = 0
        a = np.array([1.0, 0.0, 1.0, 0.0])
        b = np.array([0.0, 1.0, 1.0, 1.0])
        c = np.array([0.3, 2.0, 0.7, 0.125])
        lo = np.array([-1.0, 0.0, 0.0, -1.0])
        hi = np.array([1.0, 2.0, 3.0, 1.0])
        sizes = []

        def g(t, rows):
            sizes.append(len(rows))
            return a[rows] * t + b[rows] * t**3 - c[rows]

        def dg(t, rows):
            return a[rows] + 3.0 * b[rows] * t**2

        roots = _newton_bisect(g, dg, lo, hi, g(lo, np.arange(4)))
        sizes = sizes[1:]
        assert sizes[0] == 4 and sizes[-1] == 1
        assert all(x >= y for x, y in zip(sizes, sizes[1:]))
        for i in range(4):

            def g1(t, i=i):
                return a[i] * t + b[i] * t**3 - c[i]

            def dg1(t, i=i):
                return a[i] + 3.0 * b[i] * t**2

            assert roots[i] == newton_bisect(g1, dg1, lo[i], hi[i], g1(lo[i]), g1(hi[i]))
        assert roots[3] == 0.5


class TestPinnedOutput:
    def test_mirror_command(self, tmp_path, monkeypatch):
        """`mirror` on the bundled scene writes the pinned bytes."""
        monkeypatch.chdir(ROOT)
        assert main(["mirror", "--scene", "scenes/mirror_design.scene", "--out", str(tmp_path)]) == 0
        for name in ("report.txt", "mirror.csv"):
            assert (tmp_path / name).read_bytes() == (EXPECTED / name).read_bytes()
