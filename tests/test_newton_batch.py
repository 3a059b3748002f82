"""Batched chart points and the batched Newton solve of the characteristic
function against one configuration at a time.

A chart's `embed` and `jacobian` on (N, 2) coordinates give, row by row, bit
for bit what the rows give alone, and `evaluate` gives both at once.  A
path's charts are evaluated as one stack per chart kind, bit for bit what
the charts give one at a time (`polylines_oracle`), or raising the same
error for the same row.  `characteristic_function` takes one gradient batch
per point it tries, the Hessian stencil around the point included, and must
give bit for bit the V and path of the solve that takes one gradient per
configuration (`characteristic_function_oracle`), or raise the same error.
V, the law check and the result come from the last batch, with no further
chart evaluation.
"""

import pathlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rayspace as rs
import rayspace.optics as optics
import rayspace.surfaces as surfaces
import rayspace.variational as variational
from rayspace.cli import main
from rayspace.errors import (
    DegenerateGradientError,
    GrazingError,
    IllConditionedFitError,
    NoRootError,
    RaySpaceError,
    TotalInternalReflectionError,
)

from helpers import (
    aimed_line,
    characteristic_function_oracle,
    gradients_oracle,
    law_residual_oracle,
    nested_sphere_system,
    path_length,
    polylines_oracle,
    random_surface,
    staged_oracle,
    stationarity_residual_oracle,
)

KINDS = ("plane", "sphere", "quadric", "sinusoid")
BOWL = rs.Quadric(np.diag([0.1, 0.15, 0.0]), [0, 0, 1], -0.5)
SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"


def outcome(fn):
    try:
        return fn()
    except (RaySpaceError, ValueError) as exc:
        return exc


def assert_same_solve(m1, m2, system, initial=None):
    """The batched solve against the oracle: V and path bit for bit, or the
    same error type and message, and the configuration it returns within
    the law tolerance.  Returns the outcome of characteristic_function."""
    got = outcome(lambda: rs.characteristic_function(m1, m2, system, initial=initial))
    want = outcome(lambda: characteristic_function_oracle(m1, m2, system, initial=initial))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return got
    v, pc = got
    v_ref, pc_ref = want
    assert v == v_ref
    assert pc.flat().tobytes() == pc_ref.flat().tobytes()
    assert rs.optical_length(pc) == path_length(pc)
    assert rs.stationarity_residual(pc) == stationarity_residual_oracle(pc)
    assert rs.law_residual(pc) <= variational._LAW_TOL
    return v, pc


def design_library_inputs(seed=0, count=60):
    """(m1, m2, system, initial, traced V) of the library solves of the
    benchmark's `design` workload: a traced path through 1-3 sphere shells,
    perturbed."""
    rng = np.random.default_rng([seed, 3])
    out = []
    for i in range(count):
        system = nested_sphere_system(rng, 1 + i % 3)
        start = rng.uniform(-0.3, 0.3, 3)
        trace = rs.propagate_system(rs.line_through(start, rng.normal(size=3)), system, start=start)
        m2 = trace.hits[-1].point + trace.line_out.u
        traced = rs.path_through(start, m2, system, [h.point for h in trace.hits])
        initial = traced.with_coords(traced.flat() + rng.uniform(-0.01, 0.01, traced.flat().size))
        out.append((start, m2, system, initial, trace.optical_length + system.exit_index))
    return out


def ball_mirror():
    """The unit sphere as a Quadric mirror: its charts are graphs over a
    coordinate plane, which a Newton step can leave."""
    ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
    return rs.OpticalSystem((rs.Interface(ball, rs.REFLECT, 1.0),))


def counting_gradients(monkeypatch):
    """Record the rows of every gradient batch, and the row a failing one
    fails at."""
    batches = []
    real = variational._gradients

    def counting(pc, xs):
        try:
            out = real(pc, xs)
        except (RaySpaceError, ValueError) as exc:
            batches.append((xs.copy(), getattr(exc, "row", 0)))
            raise
        batches.append((xs.copy(), None))
        return out

    monkeypatch.setattr(variational, "_gradients", counting)
    return batches


def counting_evaluations(monkeypatch):
    """Record the kind and coordinate shape, (rows, charts, 2), of every
    chart evaluation, stacked or of a single chart."""
    evaluations = []
    real = surfaces._ChartKind.evaluate

    def counting(kind, params, xi, **asked):
        evaluations.append((kind, xi.shape))
        return real(kind, params, xi, **asked)

    monkeypatch.setattr(surfaces._ChartKind, "evaluate", counting)
    return evaluations


def counting_polylines(monkeypatch):
    """Record the row count and Jacobian flag of every _polylines call."""
    calls = []
    real = variational._polylines

    def counting(pc, xs, jacobians=False):
        calls.append((len(xs), jacobians))
        return real(pc, xs, jacobians)

    monkeypatch.setattr(variational, "_polylines", counting)
    return calls


def random_chart(rng, kind):
    """A surface of the kind, one of KINDS or "flat quadric", charted at a
    point of it, and that point's coordinates."""
    if kind == "flat quadric":  # z = 0.5 - 0.1 x^2 - 0.15 y^2, linear in its height z
        surface, point = BOWL, np.array([*rng.uniform(-1, 1, 2), 0.0])
        point[2] = -BOWL.value(point)
    else:
        surface = random_surface(rng, kind)
        point = aimed_line(rng, surface)[1].point
    chart = surface.chart(reference_point=point)
    return surface, chart, chart.invert(point)


def assert_same_outcome(got, want):
    """Bit for bit the same arrays, or the same error for the same row."""
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        assert got.row == want.row
        return
    for a, b in zip(got, want, strict=True):
        if isinstance(b, tuple):
            assert_same_outcome(a, b)
        elif b is None:
            assert a is None
        else:
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchedCharts:
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(KINDS),
        st.integers(1, 12),
        st.floats(0.01, 1.5),
    )
    def test_batch_equals_its_points(self, seed, kind, count, spread):
        rng = np.random.default_rng(seed)
        surface = random_surface(rng, kind)
        _, hit, _ = aimed_line(rng, surface)
        chart = surface.chart(reference_point=hit.point)
        xs = chart.invert(hit.point) + rng.uniform(-spread, spread, (count, 2))
        alone = [outcome(lambda xi=xi: chart.embed(xi)) for xi in xs]
        failing = [i for i, p in enumerate(alone) if isinstance(p, Exception)]
        if failing:  # a quadric chart leaving its sheet
            first = alone[failing[0]]
            for fn in (chart.embed, chart.jacobian, chart.evaluate):
                with pytest.raises(RaySpaceError) as err:
                    fn(xs)
                assert type(err.value) is type(first) and str(err.value) == str(first)
                assert err.value.row == failing[0]
            return
        points = chart.embed(xs)
        jacobians = chart.jacobian(xs)
        assert points.shape == (count, 3) and jacobians.shape == (count, 3, 2)
        both = chart.evaluate(xs)
        assert both[0].tobytes() == points.tobytes()
        assert both[1].tobytes() == jacobians.tobytes()
        for i, xi in enumerate(xs):
            assert points[i].tobytes() == alone[i].tobytes()
            assert jacobians[i].tobytes() == chart.jacobian(xi).tobytes()
            point, jacobian = chart.evaluate(xi)
            assert point.shape == (3,) and jacobian.shape == (3, 2)
            assert point.tobytes() == alone[i].tobytes()
            assert jacobian.tobytes() == jacobians[i].tobytes()

    def test_quadric_batch_leaving_the_sheet_names_its_first_point(self):
        ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        chart = ball.chart(reference_point=[0, 0, 1])
        xs = np.array([[0.1, 0.2], [0.6, 0.6], [1.2, 0.0], [0.2, -0.3], [0.0, 2.0]])
        for fn in (chart.embed, chart.jacobian, chart.evaluate):
            with pytest.raises(NoRootError, match="quadric chart left the surface sheet") as err:
                fn(xs)
            assert err.value.row == 2
        assert chart.embed(xs[:2]).shape == (2, 3)


class TestStackedPaths:
    """_polylines and _gradients evaluate one stack per chart kind, and
    equal the chart-by-chart oracles bit for bit."""

    @staticmethod
    def assert_same_as_the_oracles(pc, xs):
        for jacobians in (False, True):
            want = outcome(lambda: polylines_oracle(pc, xs, jacobians))
            if jacobians and not isinstance(want, Exception):
                want = (*want[:3], np.stack(want[3], axis=1))
            assert_same_outcome(outcome(lambda: variational._polylines(pc, xs, jacobians)), want)
        got = outcome(lambda: variational._gradients(pc, xs))
        assert_same_outcome(got, outcome(lambda: gradients_oracle(pc, xs)))
        return got

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(KINDS + ("flat quadric",)), min_size=1, max_size=4),
        st.integers(1, 9),
        st.floats(0.01, 1.5),
    )
    def test_random_paths_match_the_oracles(self, seed, kinds, count, spread):
        rng = np.random.default_rng(seed)
        surfaces_, charts, coords = zip(*(random_chart(rng, kind) for kind in kinds))
        system = rs.OpticalSystem(tuple(rs.Interface(s, rs.REFLECT, 1.0) for s in surfaces_))
        m1, m2 = rng.uniform(-4, 4, (2, 3))
        pc = variational.PathConfiguration._unchecked(m1, m2, system, coords, charts)
        xs = np.concatenate(coords) + rng.uniform(-spread, spread, (count, 2 * len(kinds)))
        self.assert_same_as_the_oracles(pc, xs)

    def test_quadrics_charted_over_different_axes(self):
        ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        system = rs.OpticalSystem((rs.Interface(ball, rs.REFLECT, 1.0),) * 3)
        pc = rs.path_through([0, 0, 3], [3, 0, 0], system, [[0, 0, 1], [1, 0, 0], [0, 0, -1]])
        # both caps are graphs over the xy-plane: one stack, not adjacent
        north, east, south = (chart.kind for chart in pc.charts)
        assert north is south and east is not north
        xs = pc.flat() + np.random.default_rng(7).uniform(-0.5, 0.5, (6, 6))
        assert not isinstance(self.assert_same_as_the_oracles(pc, xs), Exception)

    @pytest.mark.parametrize("saddle_first", [False, True])
    def test_two_quadric_stacks_failing_on_the_same_row(self, saddle_first):
        # a ball charted over its north cap fails off its sheet; the saddle
        # 2 x z = 1, a graph z = 1 / (2 x), is degenerate along its axis at x = 0
        ball = rs.Quadric(np.eye(3), [0, 0, 0], -1.0)
        saddle = rs.Quadric([[0, 0, 1], [0, 0, 0], [1, 0, 0]], [0, 0, 0], -1.0)
        # (surface, reference point, coordinates on it, coordinates failing)
        pairs = [
            (ball, [0, 0, 1], [0.1, 0.2], [1.5, 0.0]),
            (saddle, [1, 0, 0.5], [1.0, 0.3], [0.0, 0.3]),
        ]
        if saddle_first:
            pairs.reverse()
        (first, ref0, ok0, bad0), (second, ref1, ok1, bad1) = pairs
        system = rs.OpticalSystem(
            (rs.Interface(first, rs.REFLECT, 1.0), rs.Interface(second, rs.REFLECT, 1.0))
        )
        pc = rs.path_through([0, 3, 3], [0, -3, 3], system, [ref0, ref1])
        assert pc.charts[0].kind is not pc.charts[1].kind
        xs = np.array([ok0 + ok1, bad0 + bad1, ok0 + bad1])
        err = self.assert_same_as_the_oracles(pc, xs)
        assert type(err) is (IllConditionedFitError if saddle_first else NoRootError)
        assert err.row == 1


class TestBatchedNewton:
    def test_no_interfaces(self):
        v, pc = assert_same_solve(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 1.0]), rs.OpticalSystem(()))
        assert v == 1.0 and pc.coords == ()

    def test_design_library_inputs_match_the_oracle(self):
        for m1, m2, system, initial, expected in design_library_inputs():
            v, _ = assert_same_solve(m1, m2, system, initial)
            assert abs(v - expected) <= 1e-9

    @pytest.mark.parametrize(
        "constant, keyword, value",
        [("_GRAD_TOL", "grad_tol", 1e-4), ("_LAW_TOL", "law_tol", 0.0)],
    )
    def test_constants_are_read_at_the_call(self, constant, keyword, value, monkeypatch):
        # the solve reads its stopping rule and law check from the module
        # at each call: patched, it gives what the oracle gives with that
        # value, and not what it gives at the default for every input
        def key(result):
            if isinstance(result, Exception):
                return type(result), str(result)
            return result[0], result[1].flat().tobytes()

        defaults, changed = [], 0
        inputs = design_library_inputs(count=12)
        for m1, m2, system, initial, _ in inputs:
            defaults.append(key(outcome(lambda: rs.characteristic_function(m1, m2, system, initial=initial))))
        monkeypatch.setattr(variational, constant, value)
        for (m1, m2, system, initial, _), default in zip(inputs, defaults):
            got = key(outcome(lambda: rs.characteristic_function(m1, m2, system, initial=initial)))
            want = outcome(lambda: characteristic_function_oracle(m1, m2, system, initial, **{keyword: value}))
            assert got == key(want)
            changed += got != default
        assert changed

    @pytest.mark.parametrize(
        "m1, m2, surface, action",
        [
            ([0, 0, 1], [1, 0, 1], rs.Plane([0, 0, 1], 0.0), rs.REFLECT),
            ([0, 0, 1], [1.2, 0, -1], rs.Plane([0, 0, 1], 0.0), rs.REFRACT),
            ([0.3, -0.2, 3], [-0.4, 0.5, -2], BOWL, rs.REFRACT),
            ([0.3, -0.2, 3], [-0.4, 0.5, 2], rs.Sinusoid(0.15, [0.9, 0.7]), rs.REFLECT),
        ],
        ids=["plane-mirror", "plane-refraction", "quadric", "sinusoid"],
    )
    def test_single_interfaces_match_the_oracle(self, m1, m2, surface, action):
        n_out = 1.5 if action == rs.REFRACT else None
        system = rs.OpticalSystem((rs.Interface(surface, action, 1.0, n_out),))
        v, pc = assert_same_solve(np.array(m1, float), np.array(m2, float), system)
        assert rs.law_residual(pc) < 1e-8

    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_quadric_rim_solves_match_the_oracle(self, seed, inside):
        # seeds on the cap of a ball chart: Newton steps and Hessian stencils
        # may leave the sheet, or fail to converge
        rng = np.random.default_rng(seed)
        if inside:
            m1, m2 = rng.uniform(-0.6, 0.6, (2, 3))
        else:
            m1, m2 = rng.uniform(-3, 3, (2, 3))
            m1[2], m2[2] = abs(m1[2]) + 0.2, abs(m2[2]) + 0.2
        r, a = rng.uniform(0.3, 0.7), rng.uniform(0, 2 * np.pi)
        seed_point = [r * np.cos(a), r * np.sin(a), np.sqrt(1 - r * r)]
        system = ball_mirror()
        initial = outcome(lambda: rs.path_through(m1, m2, system, [seed_point]))
        if not isinstance(initial, Exception):
            assert_same_solve(m1, m2, system, initial)

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.tuples(st.sampled_from(KINDS), st.booleans()), min_size=1, max_size=3),
    )
    def test_drawn_systems_match_the_oracle(self, seed, stages):
        # 1-3 interfaces of every kind, each reflecting or refracting, seeded
        # with a traced path perturbed as design_library_inputs perturbs
        # it; where the ray misses a later interface, from the chord seed
        rng = np.random.default_rng(seed)
        interfaces, n = [], 1.0
        for kind, reflect in stages:
            surface = random_surface(rng, kind)
            if reflect:
                interfaces.append(rs.Interface(surface, rs.REFLECT, n))
            else:
                n_out = float(rng.choice([x for x in (1.0, 1.33, 1.5, 1.9) if x != n]))
                interfaces.append(rs.Interface(surface, rs.REFRACT, n, n_out))
                n = n_out
        system = rs.OpticalSystem(tuple(interfaces))
        line, _, t0 = aimed_line(rng, interfaces[0].surface)
        start = line.q + t0 * line.u

        def traced():
            trace = rs.propagate_system(line, system, start=start)
            m2 = trace.hits[-1].point + trace.line_out.u
            pc = rs.path_through(start, m2, system, [h.point for h in trace.hits])
            return m2, pc.with_coords(pc.flat() + rng.uniform(-0.01, 0.01, pc.flat().size))

        seed_path = outcome(traced)
        if isinstance(seed_path, Exception):
            assert_same_solve(start, rng.uniform(-3, 3, 3), system)
        else:
            assert_same_solve(start, seed_path[0], system, seed_path[1])

    @pytest.mark.parametrize(
        "surface, v, hit",
        [(rs.Plane([0, 0, 1], 0.0), 2.0, [0, 0, 0]), (rs.Sphere([0, 0, -2], 1.0), 4.0, [0, 0, -1])],
        ids=["plane", "sphere"],
    )
    def test_coincident_endpoints(self, surface, v, hit):
        # no chord: the interface is seeded with its point nearest M1
        m1 = np.array([0.0, 0.0, 1.0])
        system = rs.OpticalSystem((rs.Interface(surface, rs.REFLECT, 1.0),))
        got, pc = assert_same_solve(m1, m1.copy(), system)
        assert abs(got - v) <= 1e-12
        assert np.allclose(pc.points()[0], hit, rtol=0.0, atol=1e-12)

    def test_failing_trial_halves_alpha_for_that_trial_only(self, monkeypatch):
        m1 = np.array([1.311805303129697, 1.8277685995083175, 1.7624938437210627])
        m2 = np.array([-1.3964545382238158, 1.738443086961067, 1.7049761244775616])
        seed_point = [-0.27420806177376894, 0.22571504074087798, 0.9348062148069068]
        system = ball_mirror()
        initial = rs.path_through(m1, m2, system, [seed_point])
        batches = counting_gradients(monkeypatch)
        assert_same_solve(m1, m2, system, initial)
        failed = [i for i, (_, row) in enumerate(batches) if row is not None]
        # the full step leaves the sheet at its first row; half of it is taken
        assert len(failed) == 1 and batches[failed[0]][1] == 0
        seed, full, half = (xs[0] for xs, _ in batches[failed[0] - 1 : failed[0] + 2])
        assert np.allclose(half - seed, 0.5 * (full - seed), rtol=1e-9, atol=1e-15)
        assert all(len(xs) == 5 for xs, _ in batches)

    def test_failing_stencil_row_raises_like_the_oracle(self, monkeypatch):
        # an accepted trial whose Hessian stencil leaves the sheet: the solve
        # has not converged there, so the next Newton step raises
        m1 = np.array([0.3773508398670935, -0.1925637890408316, 0.32153231580013875])
        m2 = np.array([0.10155496582340251, 0.3212531272330834, -0.32409325404573985])
        seed_point = [0.4888260342301876, 0.42906403333641707, 0.7595743305008887]
        system = ball_mirror()
        initial = rs.path_through(m1, m2, system, [seed_point])
        batches = counting_gradients(monkeypatch)
        err = assert_same_solve(m1, m2, system, initial)
        assert isinstance(err, NoRootError) and err.row == 0
        _, row = batches[-2]
        assert row > 0  # a stencil row failed; the trial was then taken alone
        assert len(batches[-1][0]) == 1 and batches[-1][1] is None

    def test_coincident_stencil_row_raises_like_the_oracle(self):
        # the seed lies 1e-6 + 5e-10 from m1; its -h stencil point 5e-10
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        pc = rs.path_through([0, 0, 0], [1, 0, 1], mirror, [[0.5, 0, 0]])
        initial = pc.with_coords(np.array([1e-6 + 5e-10, 0.0]))
        err = assert_same_solve(np.zeros(3), np.array([1.0, 0, 1]), mirror, initial)
        assert type(err) is ValueError and str(err) == "consecutive path points coincide"

    def test_batch_raises_for_its_lowest_failing_row(self):
        # two ball mirrors, charted over their north caps; m1 on the inner one
        inner, outer = (rs.Quadric(np.eye(3) / r**2, [0, 0, 0], -1.0) for r in (1.0, 2.0))
        system = rs.OpticalSystem(
            (rs.Interface(inner, rs.REFLECT, 1.0), rs.Interface(outer, rs.REFLECT, 1.0))
        )
        pc = rs.path_through([0, 0, 1], [0, 3, 3], system, [[0.6, 0, 0.8], [0, 0, 2]])
        ok = [0.6, 0.0, 0.1, 0.2]
        off_inner = [1.5, 0.0, 0.1, 0.2]  # fails at the first chart
        off_outer = [0.6, 0.0, 2.5, 0.0]  # passes it, fails at the second
        at_m1 = [0.0, 0.0, 0.1, 0.2]  # the inner point is m1 itself
        # the stages: the charts, then the coincidence check, which a
        # lower row failing it loses to a chart's failure
        for rows, error, row in (
            ([ok, off_outer, ok, off_inner], NoRootError, 1),
            ([ok, ok, at_m1, off_inner, off_outer], NoRootError, 3),
            ([ok, ok, at_m1, ok], ValueError, 2),
            ([ok, off_inner, off_outer], NoRootError, 1),
        ):
            xs = np.array(rows)
            alone, first = staged_oracle(
                len(xs),
                lambda i: variational._gradients(pc, xs[i : i + 1]),
                lambda i, error: int(type(error) is ValueError),
            )
            assert first == row and type(alone[row]) is error
            with pytest.raises(error) as err:
                variational._gradients(pc, xs)
            assert str(err.value) == str(alone[row]) and err.value.row == row

    def test_one_gradient_batch_per_trial_point(self, monkeypatch):
        # every solve of the benchmark's design inputs, against the oracle's
        # count of the points it tries; no chart is embedded apart from
        # the batches
        for m1, m2, system, initial, _ in design_library_inputs():
            dim = 2 * len(system.interfaces)
            oracle_calls = []
            real = variational.PathConfiguration.with_coords
            monkeypatch.setattr(
                variational.PathConfiguration,
                "with_coords",
                lambda pc, xs: oracle_calls.append(xs.copy()) or real(pc, xs),
            )
            characteristic_function_oracle(m1, m2, system, initial=initial)
            monkeypatch.undo()
            evaluations = counting_evaluations(monkeypatch)
            batches = counting_gradients(monkeypatch)
            solves = []
            real_solve = np.linalg.solve
            monkeypatch.setattr(
                np.linalg, "solve", lambda a, b: solves.append(1) or real_solve(a, b)
            )
            rs.characteristic_function(m1, m2, system, initial=initial)
            monkeypatch.undo()
            # the oracle builds one configuration per gradient, 2 dim of them
            # per Hessian (one per Newton step), and one for the final path
            points = len(oracle_calls) - 1 - 2 * dim * len(solves)
            assert len(batches) == points
            assert all(len(xs) == 1 + 2 * dim and row is None for xs, row in batches)
            # the shells form one sphere stack, evaluated once per batch
            sphere = system.interfaces[0].surface.chart().kind
            shape = (1 + 2 * dim, len(system.interfaces), 2)
            assert evaluations == [(sphere, shape)] * points


class TestPerSolveWork:
    """What does not depend on the trial point is built once per solve."""

    def test_charts_and_media_are_not_rebuilt_per_batch(self, monkeypatch):
        # a seeded solve keeps its seed's chart stacks, and reads the media
        # of its system as often whatever its number of gradient batches
        inputs = design_library_inputs(count=12)
        stackings, media = [], []
        real_stack, real_media = variational._stack_charts, rs.OpticalSystem.media
        monkeypatch.setattr(variational, "_stack_charts", lambda charts: stackings.append(1) or real_stack(charts))
        monkeypatch.setattr(rs.OpticalSystem, "media", lambda system: media.append(1) or real_media(system))
        batches = counting_gradients(monkeypatch)
        counts = []
        for m1, m2, system, initial, _ in inputs:
            del stackings[:], media[:], batches[:]
            rs.characteristic_function(m1, m2, system, initial=initial)
            assert stackings == []
            counts.append((len(batches), len(media)))
        batch_counts, media_counts = map(set, zip(*counts))
        assert len(batch_counts) > 1 and len(media_counts) == 1


class TestChartEvaluations:
    def test_one_per_chart_stack_from_a_stationary_seed(self, monkeypatch):
        # three sphere shells, one stack; a sphere and a plane, two stacks
        lens_and_floor = rs.OpticalSystem(
            (
                rs.Interface(rs.Sphere([0, 0, 0], 2.0), rs.REFRACT, 1.0, 1.5),
                rs.Interface(rs.Plane([0, 0, 1], -1.0), rs.REFLECT, 1.5),
            )
        )
        ends = np.array([[0.3, -0.2, 5], [-0.4, 0.5, 0.5]])
        cases = [design_library_inputs(count=3)[2][:4], (*ends, lens_and_floor, None)]
        for m1, m2, system, initial in cases:
            _, pc = rs.characteristic_function(m1, m2, system, initial=initial)
            evaluations = counting_evaluations(monkeypatch)
            v, again = rs.characteristic_function(m1, m2, system, initial=pc)
            monkeypatch.undo()
            assert again.flat().tobytes() == pc.flat().tobytes()
            # the gradient batch with its stencil evaluates each stack once;
            # V, the law check and the result take their path from it
            kinds = [itf.surface.chart().kind for itf in system.interfaces]
            stacks = {kind: kinds.count(kind) for kind in kinds}
            rows = 1 + 4 * len(kinds)
            assert evaluations == [(kind, (rows, m, 2)) for kind, m in stacks.items()]
            assert v == rs.optical_length(pc)
            assert rs.law_residual(again) == rs.law_residual(pc)

    def test_default_seed_is_checked_by_the_first_batch_alone(self, monkeypatch, tmp_path):
        calls = counting_polylines(monkeypatch)
        scene = str(SCENES / "characteristic.scene")
        assert main(["characteristic", "--scene", scene, "--out", str(tmp_path)]) == 0
        # the gradient batch, stationarity_residual, then law_residual of
        # the configuration the solve returns
        assert calls == [(5, True), (4, False), (1, False)]


class TestBadSeeds:
    """The seed's path is checked by the first gradient batch alone: a bad
    seed fails there, at row 0, as the oracle's seed check fails."""

    @staticmethod
    def assert_first_batch_fails(monkeypatch, m1, m2, system, seed, error):
        batches = counting_gradients(monkeypatch)
        err = assert_same_solve(m1, m2, system, seed)
        assert type(err) is error and err.row == 0
        assert len(batches) == 1 and batches[0][1] == 0

    def test_coincident_surface_points(self, monkeypatch):
        # a zero-thickness film: both interfaces on the plane z = 0
        floor = rs.Plane([0, 0, 1], 0.0)
        system = rs.OpticalSystem(
            (rs.Interface(floor, rs.REFRACT, 1.0, 1.5), rs.Interface(floor, rs.REFRACT, 1.5, 1.0))
        )
        m1, m2 = np.array([0.0, 0, 1]), np.array([1.0, 0, -1])
        chart = floor.chart()
        seed = variational.PathConfiguration._unchecked(
            m1, m2, system, ([0.5, 0.0], [0.5, 0.0]), (chart, chart)
        )
        self.assert_first_batch_fails(monkeypatch, m1, m2, system, seed, ValueError)

    def test_seed_point_on_m1(self, monkeypatch):
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        seed = rs.path_through([0, 0, 1], [1, 0, 1], mirror, [[0.5, 0, 0]])
        m1, m2 = np.array([0.5, 0, 0]), np.array([1.0, 0, 1])
        self.assert_first_batch_fails(monkeypatch, m1, m2, mirror, seed, ValueError)

    def test_quadric_seed_off_its_sheet(self, monkeypatch):
        system = ball_mirror()
        chart = system.interfaces[0].surface.chart(reference_point=[0, 0, 1])
        m1, m2 = np.array([0.2, 0, 2]), np.array([-0.2, 0.1, 2])
        seed = variational.PathConfiguration._unchecked(m1, m2, system, ([1.2, 0.0],), (chart,))
        self.assert_first_batch_fails(monkeypatch, m1, m2, system, seed, NoRootError)

    def test_default_seed_with_coincident_points(self, monkeypatch):
        # the chord meets the film at one point; the second interface,
        # missed beyond it, falls back to the chord midpoint, the same point
        floor = rs.Plane([0, 0, 1], 0.0)
        system = rs.OpticalSystem(
            (rs.Interface(floor, rs.REFRACT, 1.0, 1.5), rs.Interface(floor, rs.REFRACT, 1.5, 1.0))
        )
        m1, m2 = np.array([0.0, 0, 1]), np.array([1.0, 0, -1])
        self.assert_first_batch_fails(monkeypatch, m1, m2, system, None, ValueError)
        assert str(outcome(lambda: rs.characteristic_function(m1, m2, system))) == (
            "consecutive path points coincide"
        )

    def test_wrong_interface_count(self, monkeypatch):
        m1, m2, system, initial, _ = design_library_inputs(count=2)[1]
        assert len(system.interfaces) == 2
        one_shell = rs.OpticalSystem(system.interfaces[:1])
        batches = counting_gradients(monkeypatch)
        for fn in (rs.characteristic_function, characteristic_function_oracle):
            with pytest.raises(ValueError, match="^need exactly one chart point per interface$"):
                fn(m1, m2, one_shell, initial=initial)
        assert batches == []


class TestLawResidual:
    """The law check bends all interfaces of a path as one batch, bit for bit
    what one gradient and one Interface.bend per interface give
    (`law_residual_oracle`), and fails at the same interface with row 0."""

    @staticmethod
    def assert_same_as_the_oracle(system, points, units):
        got = outcome(lambda: variational._law_residual(system, points, units))
        want = outcome(lambda: law_residual_oracle(system, points, units))
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            assert got.row == 0
        else:
            assert got.dtype == float and got.tobytes() == np.array(want, dtype=float).tobytes()
        return got

    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        st.floats(0.0, 0.5),
    )
    def test_random_paths_match_the_oracle(self, seed, kinds, spread):
        # reflections and refractions into denser or rarer media, so that
        # total internal reflection and grazing bends occur among the draws
        rng = np.random.default_rng(seed)
        surfaces_, charts, coords = zip(*(random_chart(rng, kind) for kind in kinds))
        interfaces, n = [], 1.0
        for surface in surfaces_:
            if rng.random() < 0.4:
                interfaces.append(rs.Interface(surface, rs.REFLECT, n))
            else:
                n_out = float(rng.choice([x for x in (1.0, 1.33, 1.5, 1.9) if x != n]))
                interfaces.append(rs.Interface(surface, rs.REFRACT, n, n_out))
                n = n_out
        system = rs.OpticalSystem(tuple(interfaces))
        m1, m2 = rng.uniform(-4, 4, (2, 3))
        pc = variational.PathConfiguration._unchecked(m1, m2, system, coords, charts)
        xs = np.concatenate(coords) + rng.uniform(-spread, spread, 2 * len(kinds))
        path = outcome(lambda: variational._polylines(pc, xs[None]))
        if isinstance(path, Exception):  # a chart leaves its sheet or points coincide
            return
        paths, segments, lengths, _ = path
        self.assert_same_as_the_oracle(system, paths[0], segments[0] / lengths[0, :, None])

    def test_design_library_paths_match_the_oracle(self):
        for m1, m2, system, initial, _ in design_library_inputs(count=12):
            for pc in (initial, rs.characteristic_function(m1, m2, system, initial=initial)[1]):
                paths, segments, lengths, _ = variational._polylines(pc, pc.flat()[None])
                laws = self.assert_same_as_the_oracle(system, paths[0], segments[0] / lengths[0, :, None])
                assert rs.law_residual(pc) == np.max(laws, initial=0.0)

    def test_first_failing_interface_wins(self):
        # interface 0 refracts out of glass past its critical angle, and
        # interface 1 is a sphere whose path point is its centre, where
        # the gradient vanishes: whichever comes first is raised
        glass_out = rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFRACT, 1.5, 1.0)
        centred = rs.Interface(rs.Sphere([0, 0, -2], 1.0), rs.REFLECT, 1.0)
        centred_in_glass = rs.Interface(rs.Sphere([0, 0, -2], 1.0), rs.REFLECT, 1.5)
        steep = np.array([np.sqrt(0.75), 0.0, 0.5])  # sin 60 deg, 1.5 sin > 1
        down = np.array([0.0, 0.0, -1.0])
        cases = [
            ((glass_out, centred), [[0, 0, 3], [0, 0, 0], [0, 0, -2], [0, 0, -5]], [-steep, down, down],
             TotalInternalReflectionError),
            ((centred_in_glass, glass_out), [[0, 0, 3], [0, 0, -2], [0, 0, 0], [0, 0, -5]], [down, -steep, down],
             DegenerateGradientError),
            ((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),), [[0, 0, 3], [0, 0, 0], [0, 0, 3]],
             [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]], GrazingError),
        ]
        for interfaces, points, units, error in cases:
            system = object.__new__(rs.OpticalSystem)  # the media need not chain here
            object.__setattr__(system, "interfaces", interfaces)
            got = self.assert_same_as_the_oracle(system, np.array(points, float), np.array(units, float))
            assert type(got) is error

    def test_no_single_vector_calls(self, monkeypatch):
        m1, m2, system, initial, _ = design_library_inputs(count=3)[2]
        want = rs.law_residual(initial)

        def single(*args, **kwargs):
            raise AssertionError("a public single-vector call")

        for owner, name in [
            (rs.Interface, "bend"),
            (surfaces._LevelFunction, "gradient"),
            (optics, "reflect_direction"),
            (optics, "refract_direction"),
        ]:
            monkeypatch.setattr(owner, name, single)
        assert rs.law_residual(initial) == want


class TestStationarityResidual:
    def test_one_batch_of_lengths(self, monkeypatch):
        m1, m2, system, initial, _ = design_library_inputs(count=3)[2]
        calls = []
        real = variational._lengths
        monkeypatch.setattr(
            variational, "_lengths", lambda pc, xs: calls.append(len(xs)) or real(pc, xs)
        )
        res = rs.stationarity_residual(initial)
        assert calls == [12]
        assert res == stationarity_residual_oracle(initial)

    def test_coincident_stencil_point(self):
        mirror = rs.OpticalSystem((rs.Interface(rs.Plane([0, 0, 1], 0.0), rs.REFLECT, 1.0),))
        pc = rs.path_through([0, 0, 0], [1, 0, 1], mirror, [[0.5, 0, 0]])
        pc = pc.with_coords(np.array([1e-6 + 5e-10, 0.0]))
        for fn in (rs.stationarity_residual, stationarity_residual_oracle):
            with pytest.raises(ValueError, match="consecutive path points coincide"):
                fn(pc)


CHARACTERISTIC_REPORT = """\
command: characteristic
scene: {scene}
m1: 0 0 1
m2: 1 0 1
step: 9.9999999999999995e-07
tolerance: 1e-10
law_tolerance: 1e-08
optical_length: 2.2360679774997898
stationarity_residual: 0
law_residual: 1.1102230246251565e-16
hits: 1
hit_0: 0.5 0 0
"""

LENS_AND_FLOOR = """\
[surface lens]
kind = sphere
center = 0 0 0
radius = 2

[surface floor]
kind = plane
normal = 0 0 1
offset = -1

[system]
ambient_index = 1
interface = lens refract 1 1.5
interface = floor reflect

[options]
m1 = 0.3 -0.2 5
m2 = -0.4 0.5 0.5
"""

LENS_AND_FLOOR_REPORT = """\
command: characteristic
scene: {scene}
m1: 0.29999999999999999 -0.20000000000000001 5
m2: -0.40000000000000002 0.5 0.5
step: 9.9999999999999995e-07
tolerance: 1e-10
law_tolerance: 1e-08
optical_length: 9.8258090787795478
stationarity_residual: 8.8817841970012523e-10
law_residual: 1.1102230246251565e-16
hits: 2
hit_0: -0.08981630910344357 0.25468039084074545 1.9816838620577808
hit_1: -0.29618287441381425 0.41789259906210274 -1
"""


class TestPinnedReports:
    """`characteristic` reports as the one-gradient-per-configuration solve
    wrote them."""

    def test_bundled_scene(self, tmp_path):
        scene = str(SCENES / "characteristic.scene")
        assert main(["characteristic", "--scene", scene, "--out", str(tmp_path)]) == 0
        assert (tmp_path / "report.txt").read_text() == CHARACTERISTIC_REPORT.format(scene=scene)

    def test_refraction_then_mirror(self, tmp_path):
        scene = tmp_path / "lens.scene"
        scene.write_text(LENS_AND_FLOOR)
        out = tmp_path / "out"
        assert main(["characteristic", "--scene", str(scene), "--out", str(out)]) == 0
        assert (out / "report.txt").read_text() == LENS_AND_FLOOR_REPORT.format(scene=scene)
