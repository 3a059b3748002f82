import argparse
import contextlib
import dataclasses
import io
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rayspace as rs
from rayspace import cli, families, variational
from rayspace.cli import main
from rayspace.errors import (
    BadMediaChainError,
    ChartDomainError,
    FamilyTraceError,
    NoRootError,
    RaySpaceError,
    SceneSyntaxError,
    UnknownSurfaceError,
)
from rayspace.lines import _norm, _ray
from rayspace.scene import load_scene, parse_scene

from helpers import (
    characteristic_function_oracle,
    parse_scene_oracle,
    check_symplectic_oracle,
    flat_for_negative_k1,
    grid_csv_oracle,
    nested_sphere_system,
    random_rotation,
)

MINIMAL = """\
[surface m]
kind = plane
normal = 0 0 1

[system]
interface = m reflect

[family]
kind = point_source
apex = 0 0 5
axis = 0 0 -1
"""

SCENES = pathlib.Path(__file__).resolve().parent.parent / "scenes"

# a zero-thickness film: two refracting interfaces on the plane z = -1
FILM = """\
[surface a]
kind = plane
normal = 0 0 1
offset = -1

[surface b]
kind = plane
normal = 0 0 1
offset = -1

[system]
interface = a refract 1 1.5
interface = b refract 1.5 1

[options]
m1 = 0 0 0
m2 = 0 0 -2
"""

POINT_SOURCE_ONLY = """\
[family]
kind = point_source
apex = 0 0 0
axis = 0 0 1
domain = -0.2 0.2 -0.2 0.2
"""


def read_report(path):
    out = {}
    for raw in path.read_text().splitlines():
        key, _, value = raw.partition(": ")
        out[key] = value
    return out


class TestParseScene:
    def test_minimal_scene(self):
        scene = parse_scene(MINIMAL)
        assert len(scene.system.interfaces) == 1
        assert scene.system.interfaces[0].action == rs.REFLECT
        assert scene.system.ambient_index == 1.0
        assert scene.family.kind == "point_source"
        assert isinstance(scene.system.interfaces[0].surface, rs.Plane)

    def test_refract_indices(self):
        scene = parse_scene(
            "[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = 2\n"
            "[system]\ninterface = s refract 1 1.5\n"
        )
        itf = scene.system.interfaces[0]
        assert itf.action == rs.REFRACT
        assert itf.n_in == 1.0 and itf.n_out == 1.5

    def test_unknown_surface_reference(self):
        text = "[system]\ninterface = m2 reflect\n"
        with pytest.raises(UnknownSurfaceError) as err:
            parse_scene(text)
        assert err.value.name == "m2"

    def test_equal_refraction_indices_rejected(self):
        text = (
            "[surface m]\nkind = plane\nnormal = 0 0 1\n"
            "[system]\ninterface = m refract 1.5 1.5\n"
        )
        with pytest.raises(BadMediaChainError):
            parse_scene(text)

    def test_unknown_key_fatal(self):
        text = "[surface m]\nkind = plane\nnormal = 0 0 1\nfrobnicate = 3\n"
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene(text)
        assert err.value.line == 4

    def test_bad_header(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene("[banana split]\n")

    def test_duplicate_key(self):
        text = "[surface m]\nkind = plane\nnormal = 0 0 1\nnormal = 0 1 0\n"
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene(text)
        assert err.value.line == 4

    def test_bad_number(self):
        text = "[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = huge\n"
        with pytest.raises(SceneSyntaxError):
            parse_scene(text)

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("[family]\nkind = point_source\napex = 0 0 inf\naxis = 0 0 -1\n", 3, 7),
            ("[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = nan\n", 4, 9),
            ("[options]\ntol = -inf\n", 2, 6),
        ],
    )
    def test_non_finite_number(self, text, line, col):
        with pytest.raises(SceneSyntaxError, match="non-finite number") as err:
            parse_scene(text)
        assert (err.value.line, err.value.col) == (line, col)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[surface m]\nkind = plane\nnormal = 0 0 0\n", "plane normal must be nonzero"),
            (
                "[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = 0\n",
                "sphere radius must be positive",
            ),
        ],
    )
    def test_constructor_error_at_the_section_line(self, text, message):
        with pytest.raises(SceneSyntaxError, match=message) as err:
            parse_scene("# a comment\n" + text)
        assert (err.value.line, err.value.col) == (2, 1)

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("[surface m]\nkind = plane\nnormal = 1e300 0 0\n", 3, 9),
            ("[family]\nkind = point_source\napex = 0 0 1e300\naxis = 0 0 -1\n", 3, 7),
            ("[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = -1e150\n", 4, 9),
            ("[options]\nlevel = 1e200\n", 2, 8),
        ],
    )
    def test_huge_number(self, text, line, col):
        # from 1e150 up a squared norm overflows: the parser stops it at the
        # value, before a builder or a trace meets it
        with pytest.raises(SceneSyntaxError, match="magnitude 1e150 or more") as err:
            parse_scene(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_large_numbers_below_1e150_parse(self):
        scene = parse_scene("[surface m]\nkind = plane\nnormal = 9.9e149 0 0\noffset = -9.9e149\n")
        assert scene.surfaces["m"].normal.tolist() == [1.0, 0.0, 0.0]

    def test_missing_required_key(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene("[surface s]\nkind = sphere\ncenter = 0 0 0\n")

    def test_domain_must_increase(self):
        text = (
            "[family]\nkind = point_source\napex = 0 0 0\naxis = 0 0 1\n"
            "domain = 0.2 -0.2 -0.2 0.2\n"
        )
        with pytest.raises(SceneSyntaxError):
            parse_scene(text)

    def test_option_validation(self):
        with pytest.raises(SceneSyntaxError):
            parse_scene("[options]\ngrid = 2\n")
        with pytest.raises(SceneSyntaxError):
            parse_scene("[options]\nepsilon = 2\n")

    @pytest.mark.parametrize(
        "option, message",
        [
            ("step = 0", "step must be positive"),
            ("step = -1e-3", "step must be positive"),
            ("seed = -1", "seed must be at least 0"),
            ("tol = 0", "tol must be positive"),
            ("tol = -1", "tol must be positive"),
            ("tol = nan", "non-finite number 'nan'"),
        ],
    )
    def test_options_that_break_the_checks(self, option, message):
        # a step of 0 makes every difference quotient NaN; numpy refuses a
        # negative seed; no residual is below a tolerance of 0 or less
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene("[options]\n" + option + "\n")
        assert (err.value.line, err.value.col, err.value.message) == (2, option.index("=") + 2, message)

    def test_seed_0_parses(self):
        assert parse_scene("[options]\nseed = 0\n").options == {"seed": 0}

    @pytest.mark.parametrize(
        "options, message",
        [
            ("grid = 2\nbogus = 1\n", "line 7, col 7: grid must be at least 3"),
            ("bogus = 1\ngrid = 2\n", "line 7, col 8: unknown key 'bogus'"),
        ],
    )
    def test_first_bad_option_in_file_order_wins(self, options, message):
        text = "[surface m]\nkind = plane\nnormal = 0 0 1\n[system]\ninterface = m reflect\n"
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene(text + "[options]\n" + options)
        assert str(err.value) == message

    def test_comments_and_inline_comments(self):
        text = (
            "# leading comment\n"
            "[surface m]\n"
            "kind = plane\n"
            "normal = 0 0 1  # unit, but any scale parses\n"
            "\n"
            "[options]\n"
            "grid = 11\n"
        )
        scene = parse_scene(text)
        assert scene.options["grid"] == 11
        assert np.allclose(scene.surfaces["m"].normal, [0, 0, 1])

    def test_duplicate_surface_section(self):
        text = (
            "[surface m]\nkind = plane\nnormal = 0 0 1\n"
            "[surface m]\nkind = plane\nnormal = 0 1 0\n"
        )
        with pytest.raises(SceneSyntaxError):
            parse_scene(text)

    @pytest.mark.parametrize("header", ["system", "family", "options"])
    def test_duplicate_single_section(self, header):
        # the second header is reported, at its line and column 1
        text = f"[surface m]\nkind = plane\nnormal = 0 0 1\n[{header}]\n\n  [{header}]\n"
        with pytest.raises(SceneSyntaxError) as err:
            parse_scene(text)
        assert (err.value.line, err.value.col) == (6, 1)
        assert str(err.value) == f"line 6, col 1: duplicate [{header}] section"

    def test_normal_congruence_family(self):
        text = (
            "[surface ball]\nkind = sphere\ncenter = 0 0 0\nradius = 2\n"
            "[family]\nkind = normal_congruence\nsurface = ball\n"
            "domain = -0.3 0.3 -0.3 0.3\n"
        )
        scene = parse_scene(text)
        assert scene.family.kind == "normal_congruence"
        assert abs(rs.defect(scene.family, (0.0, 0.0))) < 1e-8

    def test_normal_congruences_of_successive_scenes(self):
        # the family table is built once, and each parse resolves the
        # surface of a normal congruence against its own scene's surfaces
        def scene(name, center, radius, surface=None):
            return parse_scene(
                f"[surface {name}]\nkind = sphere\ncenter = {center}\nradius = {radius}\n"
                f"[family]\nkind = normal_congruence\nsurface = {surface or name}\n"
                "domain = -0.3 0.3 -0.3 0.3\n"
            )

        def on_its_sphere(parsed, center, radius):
            start = parsed.family.start_point(0.1, -0.2)
            return abs(_norm(start - np.array(center)) - radius) < 1e-12

        for _ in range(2):
            ball = scene("ball", "0 0 0", 2)
            dome = scene("dome", "1 0 -4", 3)
            assert on_its_sphere(ball, [0, 0, 0], 2) and not on_its_sphere(ball, [1, 0, -4], 3)
            assert on_its_sphere(dome, [1, 0, -4], 3) and not on_its_sphere(dome, [0, 0, 0], 2)
            with pytest.raises(UnknownSurfaceError) as err:
                scene("dome", "1 0 -4", 3, surface="ball")
            assert err.value.name == "ball"

    @pytest.mark.parametrize(
        "kind", ["point_source", "collimated", "two_skew_lines", "normal_congruence"]
    )
    def test_family_kind_is_the_kind_line(self, kind):
        # a plane's normal congruence is a beam, and still reports the kind
        # that the scene names
        keys = {
            "point_source": "apex = 0 0 5\naxis = 0 0 -1\n",
            "collimated": "direction = 0 0 -1\n",
            "two_skew_lines": "point1 = 1 0 0\ndir1 = 1 0 0\npoint2 = 0 1 1\ndir2 = 0 1 0\n",
            "normal_congruence": "surface = m\ndomain = -0.3 0.3 -0.3 0.3\n",
        }[kind]
        text = f"[surface m]\nkind = plane\nnormal = 0 0 1\n[family]\nkind = {kind}\n{keys}"
        assert parse_scene(text).family.kind == kind

    def test_load_scene_from_file(self, tmp_path):
        path = tmp_path / "scene.scene"
        path.write_text(MINIMAL)
        scene = load_scene(str(path))
        assert len(scene.system.interfaces) == 1


class TestCliCommands:
    def run(self, tmp_path, scene_text, command, extra=()):
        scene_path = tmp_path / "scene.scene"
        scene_path.write_text(scene_text)
        out_dir = tmp_path / "out"
        code = main([command, "--scene", str(scene_path), "--out", str(out_dir), *extra])
        return code, out_dir

    def test_defect_point_source_empty_system(self, tmp_path):
        code, out = self.run(tmp_path, POINT_SOURCE_ONLY, "defect")
        assert code == 0
        report = read_report(out / "report.txt")
        assert float(report["max_defect_before"]) < 1e-8
        assert report["verdict"] == "RECTANGULAR"
        assert "tolerance" in report and "step" in report
        assert (out / "defect_before.csv").read_text().startswith("k1,k2,value\n")

    def test_defect_two_skew_flags_not_rectangular(self, tmp_path):
        text = (
            "[family]\nkind = two_skew_lines\npoint1 = 1 0 0\ndir1 = 1 0 0\n"
            "point2 = 0 1 1\ndir2 = 0 1 0\ndomain = -0.25 0.25 -0.25 0.25\n"
        )
        code, out = self.run(tmp_path, text, "defect")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["verdict"] == "NOT RECTANGULAR"
        assert float(report["max_defect_after"]) > 0.1

    def test_check_symplectic_refraction_scale(self, tmp_path):
        text = (
            "[surface lens]\nkind = sphere\ncenter = 0 0 0\nradius = 2\n"
            "[system]\ninterface = lens refract 1 1.5\n"
            "[family]\nkind = point_source\napex = 0 0 5\naxis = 0 0 -1\n"
            "domain = -0.15 0.15 -0.15 0.15\n"
        )
        code, out = self.run(tmp_path, text, "check-symplectic")
        assert code == 0
        report = read_report(out / "report.txt")
        assert abs(float(report["interface_0_scale"]) - 1 / 1.5) < 1e-15
        assert float(report["interface_0_residual"]) < 1e-6
        assert report["symplectic"] == "true"

    @pytest.mark.parametrize("seed", [2, 3, 4])
    def test_check_symplectic_mixed_device(self, tmp_path, seed):
        out = tmp_path / "out"
        scene = str(SCENES / "mixed_device.scene")
        code = main(["check-symplectic", "--scene", scene, "--out", str(out), "--seed", str(seed)])
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["symplectic"] == "true"
        scales = [float(report[f"interface_{i}_scale"]) for i in range(4)]
        assert scales == [1 / 1.5, 1.0, 1.0, 1.5 / 1.33]

    @pytest.mark.parametrize("step", [1e-5, 5e-6, 2.6e-6, 2.5e-6, 1.25e-6, 6.25e-7, 2e-7])
    def test_check_symplectic_sinusoid_residual_falls_with_the_step(self, tmp_path, step):
        # the sinusoid mirror's roots are polished to round-off, so what is
        # left of its residual is round-off over h: at most 1.9 eps/h over
        # --seed 0-39 at these steps; roots left at the 1e-12 tolerance of
        # the Newton-bisection read 640-1,600 eps/h on seed 22
        out = tmp_path / "out"
        scene = str(SCENES / "mixed_device.scene")
        args = ["--scene", scene, "--out", str(out), "--seed", "22", "--step", repr(step)]
        assert main(["check-symplectic", *args]) == 0
        residual = float(read_report(out / "report.txt")["interface_1_residual"])
        assert residual <= 16.0 * np.finfo(float).eps / step

    @pytest.mark.parametrize("step", ["1e80", "1e100"])
    def test_check_symplectic_huge_step_names_k_and_interface(self, tmp_path, capsys, step):
        # stencil lines that far out in the chart are not finite
        scene = str(SCENES / "sphere_refract.scene")
        args = ["check-symplectic", "--scene", scene, "--out", str(tmp_path / "out"), "--step", step]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: at k=\(\S+, \S+\): interface 0: chart coordinates too far out: no finite line\n", err
        )

    def test_defect_step_wider_than_half_the_domain(self, tmp_path, capsys):
        # the grid nodes inset by the step would lie outside the domain
        scene = str(SCENES / "sphere_refract.scene")
        args = ["defect", "--scene", scene, "--out", str(tmp_path / "out"), "--step", "1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: stencil of half-width 1 at k=(0.85, 0.85) leaves the domain\n"

    def test_check_symplectic_names_missed_interface(self, tmp_path, capsys):
        # the mirror at z = 0 sends every ray up, away from the plane z = -1
        text = (
            "[surface m]\nkind = plane\nnormal = 0 0 1\n"
            "[surface below]\nkind = plane\nnormal = 0 0 1\noffset = -1\n"
            "[system]\ninterface = m reflect\ninterface = below reflect\n"
            "[family]\nkind = point_source\napex = 0 0 5\naxis = 0 0 -1\n"
            "domain = -0.1 0.1 -0.1 0.1\n"
        )
        code, _ = self.run(tmp_path, text, "check-symplectic")
        assert code == 2
        err = capsys.readouterr().err
        assert "k=" in err and "interface 1" in err

    def test_trace_writes_lines(self, tmp_path):
        code, out = self.run(tmp_path, MINIMAL + "domain = -0.2 0.2 -0.2 0.2\n", "trace", ("--grid", "3"))
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert rows[0] == "k1,k2,ux,uy,uz,qx,qy,qz"
        assert len(rows) == 1 + 9
        report = read_report(out / "report.txt")
        assert float(report["max_line_residual"]) < 1e-12

    def test_wavefront_not_rectangular_exits_2(self, tmp_path):
        text = (
            "[family]\nkind = two_skew_lines\npoint1 = 1 0 0\ndir1 = 1 0 0\n"
            "point2 = 0 1 1\ndir2 = 0 1 0\ndomain = -0.25 0.25 -0.25 0.25\n"
        )
        code, _ = self.run(tmp_path, text, "wavefront")
        assert code == 2

    def test_scene_error_exits_1(self, tmp_path):
        code, _ = self.run(tmp_path, "[surface m]\nkind = plane\n", "defect")
        assert code == 1

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[options]\n", "[options]\nstep = 0\n", "line 20, col 7: step must be positive"),
            ("[options]\n", "[options]\ntol = -1\n", "line 20, col 6: tol must be positive"),
            ("seed = 7", "seed = -1", "line 21, col 7: seed must be at least 0"),
        ],
    )
    def test_option_that_breaks_the_check_exits_1(self, tmp_path, capsys, old, new, message):
        text = (SCENES / "sphere_refract.scene").read_text()
        assert old in text
        code, _ = self.run(tmp_path, text.replace(old, new), "check-symplectic")
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_step_auto_is_refused(self, tmp_path, capsys):
        # a scene gives a step, or leaves it out for the command's default
        text = (SCENES / "sphere_refract.scene").read_text().replace("[options]\n", "[options]\nstep = auto\n")
        line = text.splitlines().index("step = auto") + 1
        code, out = self.run(tmp_path, text, "check-symplectic")
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == f"error: line {line}, col 7: bad number 'auto'\n"

    @pytest.mark.parametrize(
        "name, old, new",
        [
            ("point_plane", "apex = 0 0 5", "apex = 0 0 inf"),
            ("point_plane", "apex = 0 0 5", "apex = 0 0 1e300"),
            ("two_skew", "dir1 = 1 0 0", "dir1 = 0 0 0"),
        ],
    )
    def test_malformed_scene_numbers_exit_1(self, tmp_path, capsys, name, old, new):
        text = (SCENES / f"{name}.scene").read_text()
        assert old in text
        code, _ = self.run(tmp_path, text.replace(old, new), "defect")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line ")

    @pytest.mark.parametrize("command", ["trace", "defect", "wavefront", "check-symplectic"])
    def test_failing_k_printed_as_floats(self, tmp_path, capsys, command):
        # a point source aimed past a radius-0.5 sphere mirror: wide rays miss
        text = (
            "[surface ball]\nkind = sphere\ncenter = 0 0 -3\nradius = 0.5\n"
            "[system]\ninterface = ball reflect\n"
            "[family]\nkind = point_source\napex = 0 0 0\naxis = 0 0 -1\n"
            "domain = -0.3 0.3 -0.3 0.3\n"
        )
        code, _ = self.run(tmp_path, text, command)
        assert code == 2
        err = capsys.readouterr().err
        number = r"-?[0-9.e-]+"
        assert re.fullmatch(
            rf"error: at k=\({number}, {number}\): interface 0: "
            r"ray misses Sphere in \(0, 1e\+06\]\n",
            err,
        ), err

    def test_normal_congruence_of_a_quadric_exits_1(self, tmp_path, capsys):
        text = (
            "[surface bowl]\nkind = quadric\nmatrix = 1 0 0 0 1 0 0 0 1\n"
            "linear = 0 0 0\nconstant = -1\n\n"
            "[family]\nkind = normal_congruence\nsurface = bowl\ndomain = -0.1 0.1 -0.1 0.1\n"
        )
        code, out = self.run(tmp_path, text, "defect")
        assert code == 1 and not out.exists()
        assert capsys.readouterr().err == (
            "error: line 7, col 1: normal congruence not supported for Quadric\n"
        )

    def test_missing_scene_file_exits_1(self, tmp_path):
        code = main(["defect", "--scene", str(tmp_path / "nope.scene"), "--out", str(tmp_path)])
        assert code == 1

    def test_mirror_requires_focus_option(self, tmp_path):
        code, _ = self.run(tmp_path, POINT_SOURCE_ONLY, "mirror")
        assert code == 1

    def test_characteristic_plane_mirror(self, tmp_path):
        text = (
            "[surface m]\nkind = plane\nnormal = 0 0 1\n"
            "[system]\ninterface = m reflect\n"
            "[options]\nm1 = 0 0 1\nm2 = 1 0 1\n"
        )
        code, out = self.run(tmp_path, text, "characteristic")
        assert code == 0
        report = read_report(out / "report.txt")
        assert abs(float(report["optical_length"]) - np.sqrt(5.0)) < 1e-9
        assert report["hit_0"].split() == ["0.5", "0", "0"] or float(
            report["hit_0"].split()[0]
        ) == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize(
        "text, message",
        [
            (  # the stationary path refracts at the top plane as the law
                # says, and runs straight through the mirror below it
                "[surface top]\nkind = plane\nnormal = 0 0 1\noffset = 1\n"
                "[surface floor]\nkind = plane\nnormal = 0 0 1\n"
                "[system]\ninterface = top refract 1 1.5\ninterface = floor reflect\n"
                "[options]\nm1 = 0 0 2\nm2 = 1 0 -2\n",
                "interface 1: stationary point violates the local laws: residual 1.953e+00",
            ),
            (  # the chord crosses the wall, then runs between the sheets
                # z = +-sqrt(1 + x^2 + y^2), and so does the gradient line
                # through its midpoint
                "[surface wall]\nkind = plane\nnormal = 1 0 0\n"
                "[surface sheets]\nkind = quadric\nmatrix = 1 0 0 0 1 0 0 0 -1\nlinear = 0 0 0\nconstant = 1\n"
                "[system]\ninterface = wall refract 1 1.5\ninterface = sheets refract 1.5 1\n"
                "[options]\nm1 = -1 0 0\nm2 = 2 0 0\n",
                "interface 1: no surface point near the chord midpoint",
            ),
        ],
        ids=["laws", "seed"],
    )
    def test_characteristic_failure_names_the_interface(self, tmp_path, capsys, text, message):
        code, out = self.run(tmp_path, text, "characteristic")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"
        scene = parse_scene(text)
        m1, m2 = scene.options["m1"], scene.options["m2"]
        with pytest.raises(RaySpaceError) as err:
            characteristic_function_oracle(m1, m2, scene.system)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "surface, report",
        [
            ("kind = plane\nnormal = 0 0 1\n", {"optical_length": "2", "hits": "1", "hit_0": "0 0 0"}),
            ("kind = sphere\ncenter = 0 0 -2\nradius = 1\n", {"optical_length": "4", "hits": "1"}),
        ],
        ids=["plane", "sphere"],
    )
    def test_characteristic_with_m1_equal_to_m2(self, tmp_path, capsys, surface, report):
        # no chord: the mirror is seeded with its point nearest M1
        text = f"[surface m]\n{surface}[system]\ninterface = m reflect\n[options]\nm1 = 0 0 1\nm2 = 0 0 1\n"
        code, out = self.run(tmp_path, text, "characteristic")
        assert code == 0 and capsys.readouterr().err == ""
        got = read_report(out / "report.txt")
        assert {key: got[key] for key in report} == report

    def test_characteristic_chart_failure_names_the_interface(self, tmp_path, capsys):
        # a Hessian stencil row leaves the quadric's sheet at a Newton step
        text = random_scene(np.random.default_rng(43), "quadric", True, 3) + (
            "[options]\nm1 = -0.7616589513562826 -0.3171498279551235 2.009103498306295\n"
            "m2 = -0.3920697788552232 -0.16432732969374375 1.8291220032922257\n"
        )
        message = "interface 0: quadric chart left the surface sheet"
        code, out = self.run(tmp_path, text, "characteristic")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == f"error: {message}\n"
        scene = parse_scene(text)
        for solve in (rs.characteristic_function, characteristic_function_oracle):
            with pytest.raises(NoRootError) as err:
                solve(scene.options["m1"], scene.options["m2"], scene.system)
            assert str(err.value) == message and err.value.row == 0

    def test_characteristic_on_a_zero_thickness_film(self, tmp_path, capsys):
        # the chord meets a, misses b beyond that hit, and b's seed point,
        # the chord midpoint, is the same point
        code, out = self.run(tmp_path, FILM, "characteristic")
        assert code == 2 and not out.exists()
        assert capsys.readouterr().err == "error: interface 0 and interface 1: consecutive path points coincide\n"
        scene = parse_scene(FILM)
        with pytest.raises(ValueError) as err:  # the library's error is the path check's
            rs.characteristic_function(scene.options["m1"], scene.options["m2"], scene.system)
        assert type(err.value) is ValueError and str(err.value) == "consecutive path points coincide"

    def test_characteristic_reports_the_solver_constants(self, tmp_path, monkeypatch):
        # the command solves with, and reports, the module's values
        text = (SCENES / "characteristic.scene").read_text()
        monkeypatch.setattr(variational, "_GRAD_TOL", 1e-4)
        monkeypatch.setattr(variational, "_LAW_TOL", 1e-6)
        code, out = self.run(tmp_path, text, "characteristic")
        report = read_report(out / "report.txt")
        assert code == 0 and (report["tolerance"], report["law_tolerance"]) == ("0.0001", "9.9999999999999995e-07")

    def test_mirror_command(self, tmp_path):
        text = (
            "[family]\nkind = point_source\napex = 0 0 0\naxis = 0 0 1\n"
            "domain = -0.002 0.002 -0.002 0.002\n"
            "[options]\nfocus = 0.3 0.2 1.2\nepsilon = 1\nlevel = 3.2\nwavefront_c = -1\n"
        )
        code, out = self.run(tmp_path, text, "mirror")
        assert code == 0
        report = read_report(out / "report.txt")
        assert report["focused"] == "true"
        assert float(report["max_miss"]) < 1e-6
        assert (out / "mirror.csv").read_text().startswith("k1,k2,x,y,z\n")

    def test_deterministic_reruns(self, tmp_path):
        text = (
            "[surface lens]\nkind = sphere\ncenter = 0 0 0\nradius = 2\n"
            "[system]\ninterface = lens refract 1 1.5\n"
            "[family]\nkind = point_source\napex = 0 0 5\naxis = 0 0 -1\n"
            "domain = -0.15 0.15 -0.15 0.15\n[options]\nseed = 7\n"
        )
        scene_path = tmp_path / "scene.scene"
        scene_path.write_text(text)
        outputs = []
        for sub in ("a", "b"):
            out_dir = tmp_path / sub
            code = main(
                ["check-symplectic", "--scene", str(scene_path), "--out", str(out_dir)]
            )
            assert code == 0
            blob = b"".join(
                p.read_bytes() for p in sorted(out_dir.iterdir()) if p.is_file()
            )
            outputs.append(blob)
        assert outputs[0] == outputs[1]


# tokens that random edits put into the bundled scenes: numbers of every
# class (tiny, huge, non-finite), names, keywords and pieces of the syntax
_TOKENS = (
    "0", "-1", "2.5", "1e-320", "1e300", "-1e308", "nan", "inf", "-inf", "x", "true",
    "kind", "sphere", "reflect", "refract", "lens", "mirror", "=", "#", "[family]",
    "[system]", "[surface m]", "]", "0 0 0", "1 2", "",
)
_SCENE_TEXTS = tuple(path.read_text() for path in sorted(SCENES.glob("*.scene")))


def edited_scene(data):
    """A bundled scene after one to three random edits of its lines: a token
    replaced or inserted, a line deleted, duplicated or cut short."""
    lines = data.draw(st.sampled_from(_SCENE_TEXTS)).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        words = lines[i].split(" ")
        j = data.draw(st.integers(0, len(words) - 1))
        edit = data.draw(st.sampled_from(("replace", "insert", "delete", "duplicate", "cut")))
        if edit in ("replace", "insert"):
            words[j : j + (edit == "replace")] = [data.draw(st.sampled_from(_TOKENS))]
            lines[i] = " ".join(words)
        elif edit == "delete":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(data.draw(st.integers(0, len(lines))), lines[i])
        else:
            lines[i] = lines[i][: data.draw(st.integers(0, len(lines[i])))]
    return "\n".join(lines) + "\n"


class TestWavefrontRayBudget:
    """The rays CLI `wavefront` and `mirror` evaluate on bundled jobs: grid
    lines and one-form refinement nodes; the optical lengths ride on the
    grid lines, and the node tangents come from the one-form levels."""

    @staticmethod
    def counted_rays(tmp_path, argv):
        """The rays of each evaluation of the scene's family that `argv`
        makes, and of each trace through the system."""
        rays, real_load = [], cli.load_scene

        def load(path):
            scene = real_load(path)
            family = scene.family

            def counting(k1, k2):
                rays.append(np.size(k1))
                return family.eval(k1, k2)

            return dataclasses.replace(scene, family=dataclasses.replace(family, eval=counting))

        traces, real = [], families.propagate_system

        def propagate(line, system, start=None):
            traces.append(np.size(line.u) // 3)
            return real(line, system, start=start)

        with mock.patch.object(cli, "load_scene", load):
            with mock.patch.object(families, "propagate_system", propagate):
                assert main([*argv, "--out", str(tmp_path)]) == 0
        # every ray is traced by an evaluation of the family, once
        assert traces == rays
        return rays

    @pytest.mark.parametrize("name", ["point_plane", "sphere_refract"])
    def test_rays_per_job(self, tmp_path, name):
        argv = ["wavefront", "--scene", str(SCENES / f"{name}.scene"), "--grid", "9"]
        rays = self.counted_rays(tmp_path, argv)
        # 81 grid lines and the 7 interior nodes of the 144 segments' second
        # Clenshaw-Curtis level (the first level's 3 among them), where all
        # converge: 1,089 rays in one call, and no stencil line
        assert rays == [81 + 7 * 144]
        report = read_report(tmp_path / "report.txt")
        assert float(report["path_discrepancy"]) <= 1e-7
        assert float(report["orthogonality_residual"]) <= 1e-6

    def test_mirror_job(self, tmp_path):
        rays = self.counted_rays(tmp_path, ["mirror", "--scene", str(SCENES / "mirror_design.scene")])
        # on the 13x13 grid: the wavefront's one batch of 169 + 7 * 312 =
        # 2,353 rays in calls of at most _CHUNK, whose one-form levels give
        # the tangents the rectangularity test reads, and verify_focus's 121
        # interior grid lines
        assert rays == [families._CHUNK, 2353 - families._CHUNK, 121]
        assert sum(rays) == 2474
        assert read_report(tmp_path / "report.txt")["focused"] == "true"


class TestDefectRayBudget:
    """The rays a CLI `defect` job evaluates: the stencil lines of its grid,
    once for both defect grids, traced through the system once."""

    @pytest.mark.parametrize("name", ["sphere_refract", "mixed_device", "two_skew"])
    def test_rays_per_job(self, tmp_path, name):
        argv = ["defect", "--scene", str(SCENES / f"{name}.scene"), "--grid", "9"]
        rays = TestWavefrontRayBudget.counted_rays(tmp_path, argv)
        # 4 stencil lines per node of the 9x9 grid, in one call
        assert rays == [4 * 81]


class TestSceneFuzz:
    @settings(max_examples=150)
    @given(st.data())
    def test_edited_scenes_give_a_scene_or_a_scene_error(self, data):
        # a ValueError or a RuntimeWarning (an error under pytest) fails the test
        try:
            parse_scene(edited_scene(data))
        except SceneSyntaxError as exc:
            assert exc.line >= 1 and exc.col >= 1
        except RaySpaceError:
            pass


# the edits of TestParserOracle: each takes the lines of a scene and a
# Hypothesis `data`, and rewrites them; `numbers` are the replacements of
# one number, `headers` of one section header
_NUMBERS = ("nan", "-inf", "inf", "1e150", "-1e150", "9.9e149", "1e-320", "-0.0", "0", "1e", "1..2", "0x10", "1_0", "e3")
_HEADERS = ("[surface]", "[lens m]", "[system", "[surface 9a]", " [family] x", "[Options]", "[surface a b]")
_FAMILIES = (
    "kind = collimated\ndirection = 0 -0.0 -1\norigin = 0.1 0 2",
    "kind = two_skew_lines\npoint1 = 0 0 2\ndir1 = 1 0 0\npoint2 = 0 0 1\ndir2 = 0 1 -0.0",
    "kind = normal_congruence\nsurface = extra\noutward = false\naxis = 0 0 -1\ndomain = -0.1 0.1 -0.1 0.1",
    "kind = point_source\napex = 0 0 2\naxis = -0.0 0 -1e-11",
)
_OPTION_LINES = (
    "grid = 5", "tol = 1e-6", "step = 1e-4", "seed = 3", "m1 = 0 0 1", "m2 = 0.5 0 1",
    "focus = 0 0 -1", "epsilon = -1", "level = 3", "wavefront_c = -0.0", "k0 = 0 -0.0",
)


def _key_lines(lines):
    return [i for i, line in enumerate(lines) if "=" in line and not line.lstrip().startswith(("#", "["))]


def _pick(data, indices):
    return data.draw(st.sampled_from(indices)) if indices else None


def _edit_spacing(lines, data):
    i = _pick(data, _key_lines(lines))
    if i is not None:
        key, _, value = lines[i].partition("=")
        ws = st.sampled_from(("", " ", "\t", " \t ", "  "))
        lines[i] = data.draw(ws) + key.strip() + data.draw(ws) + "=" + data.draw(ws) + value.strip() + data.draw(ws)


def _edit_comment(lines, data):
    i = data.draw(st.integers(0, len(lines)))
    if data.draw(st.booleans()) and i < len(lines):
        lines[i] += data.draw(st.sampled_from(("  # note", "# a = b", "\t#")))
    else:
        lines.insert(i, data.draw(st.sampled_from(("# comment", "   # kind = plane", "#[system]"))))


def _edit_blank(lines, data):
    lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(("", "   ", "\t"))))


def _edit_no_equals(lines, data):
    i = _pick(data, _key_lines(lines))
    if i is not None:
        lines[i] = lines[i].replace("=", " ", 1)


def _edit_empty_key(lines, data):
    i = _pick(data, _key_lines(lines))
    if i is not None:
        lines[i] = data.draw(st.sampled_from(("", " ", "\t"))) + "=" + lines[i].partition("=")[2]


def _edit_empty_value(lines, data):
    i = _pick(data, _key_lines(lines))
    if i is not None:
        lines[i] = lines[i].partition("=")[0] + "=" + data.draw(st.sampled_from(("", "  ", " # gone")))


def _edit_duplicate(lines, data):
    # a key line again in its section, or a header line again further down
    i = _pick(data, [i for i, line in enumerate(lines) if line.strip()])
    if i is not None:
        at = i + 1 if "=" in lines[i] else data.draw(st.integers(i + 1, len(lines)))
        lines.insert(at, "  " + lines[i] if data.draw(st.booleans()) else lines[i])


def _edit_number(lines, data):
    i = _pick(data, [i for i in _key_lines(lines) if re.search(r"=\s*-?[0-9]", lines[i])])
    if i is not None:
        key, _, value = lines[i].partition("=")
        words = value.split()
        j = data.draw(st.integers(0, max(len(words) - 1, 0)))
        words[j : j + 1] = [data.draw(st.sampled_from(_NUMBERS))]
        lines[i] = key + "= " + " ".join(words)


def _edit_header(lines, data):
    i = _pick(data, [i for i, line in enumerate(lines) if line.startswith("[")])
    if i is not None:
        lines[i] = data.draw(st.sampled_from(_HEADERS))


def _edit_key_first(lines, data):
    lines.insert(0, data.draw(st.sampled_from(("kind = plane", "  grid = 3", "[", "x"))))


def _edit_unknown_key(lines, data):
    lines.insert(data.draw(st.integers(1, len(lines))), data.draw(st.sampled_from(("colour = red", "radius = 1", "offset = x"))))


def _edit_family(lines, data):
    if "[family]" in lines:
        i = lines.index("[family]") + 1
        end = next((j for j in range(i, len(lines)) if lines[j].startswith("[")), len(lines))
        lines[i:end] = data.draw(st.sampled_from(_FAMILIES)).split("\n")


def _edit_options(lines, data):
    chosen = data.draw(st.lists(st.sampled_from(_OPTION_LINES), max_size=4, unique=True))
    lines.extend(["[options]", *chosen])


_EDITS = (
    _edit_spacing, _edit_comment, _edit_blank, _edit_no_equals, _edit_empty_key, _edit_empty_value,
    _edit_duplicate, _edit_number, _edit_header, _edit_key_first, _edit_unknown_key, _edit_family,
    _edit_options,
)


def _result(parse, text):
    try:
        return parse(text)
    except RaySpaceError as exc:
        return exc


def _assert_same_error(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, SceneSyntaxError):
        assert (got.line, got.col, got.message) == (want.line, want.col, want.message)
    assert str(got) == str(want)


def assert_same_value(got, want):
    """got is want's type and value, bit for bit: arrays and floats by their
    bytes (so signed zeros too), containers item by item."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.tobytes() == want.tobytes(), (got, want)
    elif isinstance(want, (tuple, list)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_value(g, w)
    elif isinstance(want, float):
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)
    else:
        assert got == want


def assert_same_scene(got, want):
    """The scenes of parse_scene and parse_scene_oracle hold the same
    surfaces, system and options bit for bit, and the same family: its lines,
    starts and lengths at the corners and centre of the domain and at two
    inner points, or the same error there."""
    assert list(got.surfaces) == list(want.surfaces)
    for name, surface in got.surfaces.items():
        assert type(surface) is type(want.surfaces[name])
        for f in dataclasses.fields(surface):
            assert_same_value(getattr(surface, f.name), getattr(want.surfaces[name], f.name))
    names = {id(surface): name for name, surface in got.surfaces.items()}
    oracle_names = {id(surface): name for name, surface in want.surfaces.items()}
    assert_same_value(got.system.ambient_index, want.system.ambient_index)
    assert len(got.system.interfaces) == len(want.system.interfaces)
    for mine, theirs in zip(got.system.interfaces, want.system.interfaces):
        assert names[id(mine.surface)] == oracle_names[id(theirs.surface)]
        assert mine.action == theirs.action
        assert_same_value((mine.n_in, mine.n_out), (theirs.n_in, theirs.n_out))
    assert list(got.options) == list(want.options)
    for key, value in got.options.items():
        assert_same_value(value, want.options[key])
    assert (got.family is None) == (want.family is None)
    if got.family is None:
        return
    assert got.family.kind == want.family.kind
    assert_same_value(got.family.domain, want.family.domain)
    (a1, b1), (a2, b2) = got.family.domain
    k1 = np.array([a1, b1, a1, b1, 0.5 * (a1 + b1), 0.3 * a1 + 0.7 * b1, 0.9 * a1 + 0.1 * b1])
    k2 = np.array([a2, a2, b2, b2, 0.5 * (a2 + b2), 0.6 * a2 + 0.4 * b2, 0.2 * a2 + 0.8 * b2])
    lines = _result(lambda ks: got.family.eval(*ks), (k1, k2))
    oracle = _result(lambda ks: want.family.traced(*ks), (k1, k2))
    if isinstance(oracle, RaySpaceError):
        _assert_same_error(lines, oracle)
        return
    for field in ("u", "q", "start", "length"):
        assert_same_value(getattr(lines, field), getattr(oracle, field))


def assert_same_parse(text):
    """parse_scene gives what the parser gave before its scalar rewrite: the
    same scene, or the same error (type, line, column and message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _result(parse_scene, text)
        want = _result(parse_scene_oracle, text)
    if isinstance(want, RaySpaceError):
        _assert_same_error(got, want)
    else:
        assert not isinstance(got, RaySpaceError), got
        assert_same_scene(got, want)
    return want


class TestParserOracle:
    """parse_scene against parse_scene_oracle, the parser as it was before
    values were checked and frames built on Python floats."""

    @settings(max_examples=300)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["plane", "quadric", "sinusoid"]),
        st.booleans(),
        st.integers(0, 2),
        st.data(),
    )
    def test_edited_random_scenes(self, seed, kind, refract, shells, data):
        lines = random_scene(np.random.default_rng(seed), kind, refract, shells).splitlines()
        for edit in data.draw(st.lists(st.sampled_from(_EDITS), min_size=1, max_size=3)):
            edit(lines, data)
        end = data.draw(st.sampled_from(("\n", "\r\n")))
        assert_same_parse(end.join(lines) + end)

    @pytest.mark.parametrize("text", _SCENE_TEXTS)
    def test_bundled_scenes(self, text):
        assert not isinstance(assert_same_parse(text), RaySpaceError)

    @pytest.mark.parametrize(
        "text",
        [
            "[surface m]\nkind = plane\nnormal = 0 0 0\n",
            "[surface m]\nkind = plane\nnormal = -0.0 1e-320 -1e-13\n",
            "[surface m]\nkind = plane\nnormal = 6e-13 -6e-13 6e-13\noffset = -0.0\n",
            "[surface m]\nkind = plane\nnormal = 9e149 -9e149 1\n",
            "[family]\nkind = point_source\napex = 0 0 0\naxis = 1e-13 0 0\n",
            "[family]\nkind = collimated\ndirection = -0.0 -0.0 -2\n",
            "[family]\nkind = two_skew_lines\npoint1 = 0 0 0\ndir1 = 0 0 0\npoint2 = 0 0 1\ndir2 = 0 1 0\n",
            "[surface q]\nkind = quadric\nmatrix = 1 2 3 4 5 6 7 8 9\nlinear = 0 0 0\nconstant = -1\n"
            "[family]\nkind = normal_congruence\nsurface = q\ndomain = -1 1 -1 1\n",
            "[family]\nkind = normal_congruence\nsurface = nowhere\naxis = 0 0 nan\ndomain = -1 1 -1 1\n",
            "[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = 1\nkind = plane\n",
            "[system]\ninterface = s\n",
            "[surface s]\nkind = sphere\ncenter = 0 0 0\nradius = 1\n[system]\ninterface = s refract 1 1\n",
            "[options]\nbogus = 1\ngrid = 2\n",
            # the keys every kind takes are parsed before the unknown-key check
            "[family]\nkind = point_source\napex = 0 0 0\naxis = 0 0 1\ncolour = red\ndomain = 1 0 0 1\n",
            "[surface m]\nkind = plane\ncolour = red\nnormal = 0 0 1\nincoming_sign = 2\n",
        ],
    )
    def test_edge_cases(self, text):
        assert_same_parse(text)


def _floats(values):
    return " ".join(repr(float(x)) for x in np.ravel(values))


def extra_stage(rng, kind):
    """The [surface extra] section of a plane, quadric or sinusoid under the
    source at (0, 0, 2): a tilted plane or a sinusoid near z = 0, or an
    ellipsoid of semi-axes 0.5-1.2 around the origin."""
    if kind == "plane":
        normal = [*rng.uniform(-0.3, 0.3, 2), 1.0]
        offset = rng.uniform(-0.5, 0.5)
        return f"kind = plane\nnormal = {_floats(normal)}\noffset = {_floats(offset)}\n"
    if kind == "sinusoid":
        return (
            f"kind = sinusoid\namplitude = {_floats(rng.uniform(0.05, 0.25))}\n"
            f"wavevector = {_floats(rng.uniform(-1.2, 1.2, 2))}\n"
        )
    rot = random_rotation(rng)
    matrix = rot @ np.diag(1.0 / rng.uniform(0.5, 1.2, 3) ** 2) @ rot.T
    center = rng.uniform(-0.3, 0.3, 3)
    return (
        f"kind = quadric\nmatrix = {_floats(matrix)}\nlinear = {_floats(-2.0 * matrix @ center)}\n"
        f"constant = {_floats(center @ matrix @ center - 1.0)}\n"
    )


def random_scene(rng, kind, refract, shells, width=0.15):
    """A point source aimed down at the extra stage, then 0-3 sphere shells;
    every refraction enters a denser medium.  The family's domain is
    [-width, width] on both axes."""
    n_extra = 1.0 + rng.uniform(0.2, 0.8) if refract else 1.0
    text = f"[surface extra]\n{extra_stage(rng, kind)}"
    system = ["[system]", "ambient_index = 1"]
    system.append(
        f"interface = extra refract 1 {_floats(n_extra)}" if refract else "interface = extra reflect"
    )
    for i, itf in enumerate(nested_sphere_system(rng, shells).interfaces):
        shell = itf.surface
        text += (
            f"[surface shell{i}]\nkind = sphere\n"
            f"center = {_floats(shell.center)}\nradius = {_floats(shell.radius)}\n"
        )
        if itf.action == rs.REFLECT:
            system.append(f"interface = shell{i} reflect")
        else:  # the shells' media, raised by the extra stage's index step
            n_in, n_out = n_extra - 1.0 + itf.n_in, n_extra - 1.0 + itf.n_out
            system.append(f"interface = shell{i} refract {_floats(n_in)} {_floats(n_out)}")
    domain = _floats([-width, width, -width, width])
    family = f"kind = point_source\napex = 0 0 2\naxis = 0 0 -1\ndomain = {domain}\n"
    return text + "\n".join(system) + "\n[family]\n" + family


def scene_with_options(seed, kind, refract, shells, width, focus, epsilon, level, m1, m2):
    """random_scene with the [options] that every command needs."""
    text = random_scene(np.random.default_rng(seed), kind, refract, shells, width)
    return text + (
        f"[options]\nfocus = {_floats(focus)}\nepsilon = {epsilon}\nlevel = {_floats(level)}\n"
        f"m1 = {_floats(m1)}\nm2 = {_floats(m2)}\n"
    )


def _points(lo, hi):
    """Points of the box [lo, hi] (corners given as 3-vectors)."""
    return st.tuples(*(st.floats(a, b) for a, b in zip(lo, hi)))


class TestFailureContract:
    """Every command, in-process, on random scenes: exit 0 with an empty
    stderr, or exit 2 with a single `error:` line, which names k for the
    five family commands.  An exception out of `main`, a traceback or a
    RuntimeWarning fails the test."""

    # the film under a point source, which every family command traces
    FILM_SCENE = FILM + (
        "focus = 0 0 1\nepsilon = 1\nlevel = 3\n"
        "[family]\nkind = point_source\napex = 0 0 2\naxis = 0 0 -1\ndomain = -0.15 0.15 -0.15 0.15\n"
    )

    @settings(max_examples=120)
    @given(
        text=st.builds(
            scene_with_options,
            seed=st.integers(0, 2**32 - 1),
            kind=st.sampled_from(["plane", "quadric", "sinusoid"]),
            refract=st.booleans(),
            shells=st.integers(0, 3),
            width=st.sampled_from([0.15, 0.6, 1.5]),
            focus=_points((-1, -1, -1), (1, 1, 3)),
            epsilon=st.sampled_from([-1, 1]),
            level=st.floats(-5, 5),
            m1=_points((-1.5, -1.5, -1), (1.5, 1.5, 3)),
            m2=_points((-1.5, -1.5, -1), (1.5, 1.5, 3)),
        )
    )
    @example(text=FILM_SCENE)
    def test_exit_codes_and_messages(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            scene = pathlib.Path(tmp, "scene.scene")
            scene.write_text(text)
            for command in cli._COMMANDS:
                stderr = io.StringIO()
                with warnings.catch_warnings(), contextlib.redirect_stderr(stderr):
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main([command, "--scene", str(scene), "--out", tmp])
                lines = stderr.getvalue().splitlines()
                if code == 0:
                    assert lines == []
                    continue
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error: "), (command, lines)
                assert command == "characteristic" or "k=(" in lines[0], (command, lines)


# Runs every command in-process on each scene of a directory and prints the
# exit codes, then one digest of each run's exit code, stdout, stderr and
# output files: argv is the scene directory and an output directory.
_DIGEST_RUNS = """
import contextlib, hashlib, io, pathlib, sys, warnings
from rayspace import cli
scenes, out = map(pathlib.Path, sys.argv[1:])
digest, codes = hashlib.sha256(), []
for scene in sorted(scenes.glob("*.scene")):
    for command in cli._COMMANDS:
        where = out / f"{scene.stem}-{command}"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main([command, "--scene", str(scene), "--out", str(where)])
        codes.append(code)
        digest.update(f"{scene.name} {command} {code}\\0{stdout.getvalue()}\\0{stderr.getvalue()}\\0".encode())
        for path in sorted(where.iterdir()) if where.is_dir() else []:
            digest.update(path.name.encode() + b"\\0" + path.read_bytes() + b"\\0")
print(*codes)
print(digest.hexdigest())
"""


class TestHashSeedIndependence:
    """Criterion 9 on random scenes: every command on 20 fixed scenes of
    TestFailureContract's generator, passing and failing ones, gives the
    same exit codes, stdout, stderr and output bytes in two interpreters
    with different hash seeds."""

    @staticmethod
    def scenes():
        rng = np.random.default_rng(20261021)
        for i in range(20):
            yield scene_with_options(
                seed=i,
                kind=("plane", "quadric", "sinusoid")[i % 3],
                refract=bool(i % 2),
                shells=i % 4,
                width=(0.15, 0.6, 1.5)[i % 3],
                focus=rng.uniform([-1, -1, -1], [1, 1, 3]),
                epsilon=(-1, 1)[i % 2],
                level=rng.uniform(-5, 5),
                m1=rng.uniform([-1.5, -1.5, -1], [1.5, 1.5, 3]),
                m2=rng.uniform([-1.5, -1.5, -1], [1.5, 1.5, 3]),
            )

    def test_two_hash_seeds_give_the_same_bytes(self, tmp_path):
        for i, text in enumerate(self.scenes()):
            (tmp_path / f"{i:02d}.scene").write_text(text)
        path = os.pathsep.join(filter(None, [str(SCENES.parent / "src"), os.environ.get("PYTHONPATH")]))
        runs = [
            subprocess.Popen(
                [sys.executable, "-c", _DIGEST_RUNS, str(tmp_path), str(tmp_path / f"out-{seed}")],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=str(seed)),
            )
            for seed in (1, 2)
        ]
        outputs = []
        for run in runs:
            stdout, stderr = run.communicate(timeout=120)
            assert run.returncode == 0, stderr
            outputs.append(stdout.splitlines())
        assert outputs[0] == outputs[1]
        codes = outputs[0][0].split()
        assert len(codes) == 20 * len(cli._COMMANDS)
        assert {"0", "2"} <= set(codes)  # both passing and failing runs


class TestSymplecticProperty:
    """check-symplectic on random systems of 1-4 interfaces: a plane,
    quadric or sinusoid stage followed by sphere shells."""

    @settings(max_examples=25)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["plane", "quadric", "sinusoid"]),
        refract=st.booleans(),
        shells=st.integers(0, 3),
    )
    # a strongly curved quadric mirror: its residual is 1.193e-6 at a step
    # of 1e-5, and falls as the step squared
    @example(seed=1168145601, kind="quadric", refract=False, shells=0)
    def test_random_systems(self, seed, kind, refract, shells):
        text = random_scene(np.random.default_rng(seed), kind, refract, shells)
        scene = parse_scene(text)
        family, system = scene.family, scene.system
        # the rays check-symplectic samples at seed 0 must trace, well away
        # from grazing incidence
        k1, k2 = np.random.default_rng(0).uniform(-0.15, 0.15, (2, 5))
        try:
            lines, start = family.eval(k1, k2), family.start_point(k1, k2)
            result = rs.propagate_system(lines, system, start=start)
        except RaySpaceError:
            assume(False)
        assume(all(np.min(abs(hit.cos_incidence)) > 0.2 for hit in result.hits))

        got = []

        def counted(mapper, lines, h):
            got.append(rs.chart_jacobian(mapper, lines, h=h))
            return got[-1]

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "random.scene"
            path.write_text(text)
            with mock.patch.object(cli, "chart_jacobian", counted):
                code = main(["check-symplectic", "--scene", str(path), "--out", tmp, "--seed", "0"])
            report = read_report(pathlib.Path(tmp) / "report.txt")
        assert code == 0
        # one batch of the five samples per interface, equal to the
        # column-by-column Jacobians of each sample and interface
        want, charts, worst = check_symplectic_oracle(
            family, system, np.column_stack([k1, k2]), 2.5e-6
        )
        assert len(got) == len(system.interfaces)
        assert [jac.tobytes() for jac, _, _ in got] == [jac.tobytes() for jac in want]
        assert [list(zip(*pair)) for _, *pair in got] == charts
        for i, itf in enumerate(system.interfaces):
            scale = 1.0 if itf.action == rs.REFLECT else itf.n_in / itf.n_out
            assert float(report[f"interface_{i}_scale"]) == scale
            assert report[f"interface_{i}_residual"] == cli._fmt(worst[i])
            assert float(report[f"interface_{i}_residual"]) < 1e-6


def symplectic_samples(family, seed):
    """The five (k1, k2) that check-symplectic samples at `seed`."""
    rng = np.random.default_rng(seed)
    (lo1, hi1), (lo2, hi2) = family.domain
    return np.column_stack([rng.uniform(lo1, hi1, 5), rng.uniform(lo2, hi2, 5)])


def assert_same_check(scene, seed, step):
    """cmd_check_symplectic against check_symplectic_oracle: the same
    residual lines, or the same error type, message, row, k and interface.
    Returns the oracle's outcome."""
    args = argparse.Namespace(tol=None, step=step, seed=seed)
    ks = symplectic_samples(scene.family, seed)
    try:
        _, _, worst = check_symplectic_oracle(scene.family, scene.system, ks, step)
    except RaySpaceError as exc:
        want = exc
    else:
        want = worst
    try:
        _, pairs, _ = cli.cmd_check_symplectic(scene, args)
    except RaySpaceError as exc:
        assert isinstance(want, Exception), exc
        assert type(exc) is type(want) and str(exc) == str(want) and exc.row == want.row
        if isinstance(want, FamilyTraceError):
            assert exc.k == want.k
            assert exc.cause.interface_index == want.cause.interface_index
        return want
    assert not isinstance(want, Exception), want
    report = dict(pairs)
    got = [report[f"interface_{i}_residual"] for i in range(len(worst))]
    assert got == list(map(cli._fmt, worst))
    return want


class TestCheckSymplecticBatch:
    """check-symplectic maps all five samples through an interface in one
    chart_jacobian batch, and reports or raises what the sample-by-sample
    loop (check_symplectic_oracle) does: of the samples failing at the
    first failing stage, interface by interface, the first's error."""

    @pytest.mark.parametrize("name", ["sphere_refract", "mixed_device", "point_plane"])
    def test_bundled_scenes(self, name):
        scene = load_scene(SCENES / f"{name}.scene")
        for seed in range(40):
            assert not isinstance(assert_same_check(scene, seed, 2.5e-6), Exception)

    @settings(max_examples=40)
    @given(
        seed=st.integers(0, 2**32 - 1),
        kind=st.sampled_from(["plane", "quadric", "sinusoid"]),
        refract=st.booleans(),
        shells=st.integers(0, 3),
        width=st.sampled_from([0.15, 0.6, 2.0]),
        step=st.sampled_from([2.5e-6, 0.05]),
    )
    def test_random_scenes(self, seed, kind, refract, shells, width, step):
        # wide domains send rays past the stages, long steps send stencil
        # lines past them
        scene = parse_scene(random_scene(np.random.default_rng(seed), kind, refract, shells))
        family = dataclasses.replace(scene.family, domain=((-width, width), (-width, width)))
        assert_same_check(dataclasses.replace(scene, family=family), seed % 7, step)

    def test_an_earlier_sample_failing_later_wins(self):
        # sample 0 enters the outer sphere and passes 1.0 from the centre,
        # missing the inner one (interface 1); sample 1 misses the outer
        # sphere (interface 0), the first failing stage, and its error wins
        scene = parse_scene(
            "[surface outer]\nkind = sphere\ncenter = 0 0 0\nradius = 2\n"
            "[surface inner]\nkind = sphere\ncenter = 0 0 0\nradius = 0.8\n"
            "[system]\nambient_index = 1\n"
            "interface = outer refract 1 1.5\ninterface = inner refract 1.5 1.7\n"
            "[family]\nkind = collimated\ndirection = 0 0 -1\norigin = 0 0 5\n"
            "domain = -3 3 -3 3\n"
        )
        ks = np.array([[1.5, 0.0], [2.5, 0.0], [0.5, 0.0]])
        family, interfaces = scene.family, scene.system.interfaces

        def jacobians(ks):
            lines, starts = family.eval(*ks.T), family.start_point(*ks.T)
            return cli._interface_jacobians(ks, lines, starts, interfaces, 2.5e-6)

        with pytest.raises(FamilyTraceError) as want:
            check_symplectic_oracle(family, scene.system, ks, 2.5e-6)
        with pytest.raises(FamilyTraceError) as got:
            jacobians(ks)
        assert want.value.k == got.value.k == (2.5, 0.0)
        assert want.value.cause.interface_index == got.value.cause.interface_index == 0
        assert str(got.value) == str(want.value)
        assert got.value.row == want.value.row == 1  # `row` names the sample
        with pytest.raises(FamilyTraceError) as alone:
            jacobians(ks[:1])
        assert alone.value.k == (1.5, 0.0) and alone.value.cause.interface_index == 1
        with pytest.raises(FamilyTraceError) as later:
            jacobians(ks[[2, 1]])
        assert later.value.k == (2.5, 0.0) and later.value.cause.interface_index == 0
        assert later.value.row == 1

    @staticmethod
    def pole_mirror(family, k, step):
        """A sphere mirror about the source of `family` whose normal at the
        hit of the +step e_0 stencil line of the line at k reflects that
        stencil line straight down, onto the pole of the chart of the
        image of the line at k."""
        line = family.eval(*k)
        chart = rs.chart_for(line.u)
        x0, _ = rs.chart_coords(line, chart)
        stencil = rs.line_from_coords(x0 + [step, 0.0, 0.0, 0.0], chart)
        hit = stencil.point_at(np.dot(-stencil.q, stencil.u) + 1.0)
        normal = (stencil.u + [0.0, 0.0, 1.0]) / np.linalg.norm(stencil.u + [0.0, 0.0, 1.0])
        return rs.Interface(rs.Sphere(hit - 30.0 * normal, 30.0), rs.REFLECT, n_in=1.0)

    def test_an_earlier_sample_failing_later_wins_over_an_output_chart(self):
        # sample 1 fails at the output charts of interface 0, the pole
        # mirror of sample 1; sample 0 passes interface 0 and misses
        # interface 1, a later stage: the output chart's error wins
        family = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-1, 1), (-1, 1)))
        ks, step = np.array([[0.0, 0.0], [-0.3, 0.0], [0.3, 0.0]]), 1.2
        system = rs.OpticalSystem(
            (
                self.pole_mirror(family, ks[1], step),
                rs.Interface(rs.Sphere([100.0, 100.0, 100.0], 0.1), rs.REFLECT, n_in=1.0),
            ),
            ambient_index=1.0,
        )

        def jacobians(ks, interfaces=system.interfaces):
            lines, starts = family.eval(*ks.T), family.start_point(*ks.T)
            return cli._interface_jacobians(ks, lines, starts, interfaces, step)

        with pytest.raises(ChartDomainError) as alone:
            jacobians(ks[1:2], system.interfaces[:1])
        assert "south pole" in str(alone.value)
        with pytest.raises(FamilyTraceError) as sample_0:
            jacobians(ks[:1])
        assert sample_0.value.k == (0.0, 0.0) and sample_0.value.cause.interface_index == 1
        with pytest.raises(ChartDomainError) as want:
            check_symplectic_oracle(family, system, ks, step)
        with pytest.raises(ChartDomainError) as got:
            jacobians(ks)
        assert str(got.value) == str(want.value) == str(alone.value)
        assert got.value.row == want.value.row == 1

    def test_an_earlier_sample_failing_at_a_later_stage_of_the_same_interface_wins(self):
        # sample 0 passes the map of its pole mirror and fails at the output
        # charts; sample 1 starts past the mirror, so its rays miss it and
        # it fails at the map, the earlier stage: the batch raises for
        # sample 1
        source = rs.point_source([0, 0, 0], [0, 0, 1], domain=((-1, 1), (-1, 1)))

        def _eval(k1, k2):
            line = source.eval(k1, k2)
            return rs.TracedLine._of(line, line.length, line.point_at(100.0 * (np.asarray(k1) > 0.5)))

        family = dataclasses.replace(source, eval=_eval)
        ks, step = np.array([[-0.3, 0.0], [0.9, 0.0]]), 1.2
        system = rs.OpticalSystem((self.pole_mirror(family, ks[0], step),), ambient_index=1.0)
        lines, starts = family.eval(*ks.T), family.start_point(*ks.T)
        with pytest.raises(FamilyTraceError) as alone:
            cli._interface_jacobians(ks[1:], _ray(lines, slice(1, None)), starts[1:], system.interfaces, step)
        assert "misses" in str(alone.value)
        with pytest.raises(ChartDomainError) as first:
            cli._interface_jacobians(ks[:1], _ray(lines, slice(1)), starts[:1], system.interfaces, step)
        assert "south pole" in str(first.value)
        with pytest.raises(FamilyTraceError) as want:
            check_symplectic_oracle(family, system, ks, step)
        with pytest.raises(FamilyTraceError) as got:
            cli._interface_jacobians(ks, lines, starts, system.interfaces, step)
        assert str(got.value) == str(want.value) == str(alone.value)
        assert got.value.k == want.value.k == (0.9, 0.0)
        assert got.value.row == want.value.row == 1

    def test_one_map_call_per_interface(self, tmp_path):
        calls = []
        real = cli.propagate_system

        def counted(lines, system, start=None):
            calls.append(lines.u.shape)
            return real(lines, system, start=start)

        scene = str(SCENES / "mixed_device.scene")
        with mock.patch.object(cli, "propagate_system", counted):
            assert main(["check-symplectic", "--scene", scene, "--out", str(tmp_path)]) == 0
        # five samples of nine rows each, through each of four interfaces
        assert calls == [(45, 3)] * 4


class TestCommandLine:
    """The one parser every `main` call shares: bad command lines, reuse
    across calls, and the help text."""

    POINT_PLANE = str(SCENES / "point_plane.scene")
    SPHERE = str(SCENES / "sphere_refract.scene")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["frobnicate", "--scene", POINT_PLANE], "argument command: invalid choice: 'frobnicate'"),
            (["trace"], "the following arguments are required: --scene"),
            (["trace", "--scene", POINT_PLANE, "--grid", "x"], "argument --grid: invalid int value: 'x'"),
            (["trace", "--scene", POINT_PLANE, "--grid", "2"], "argument --grid: grid must be at least 3"),
            (["check-symplectic", "--scene", SPHERE, "--step", "0"], "argument --step: step must be positive"),
            (["defect", "--scene", POINT_PLANE, "--step", "0"], "argument --step: step must be positive"),
            (["defect", "--scene", POINT_PLANE, "--step", "inf"], "argument --step: non-finite number 'inf'"),
            (["check-symplectic", "--scene", SPHERE, "--seed", "-1"], "argument --seed: seed must be at least 0"),
            (["wavefront", "--scene", POINT_PLANE, "--tol", "0"], "argument --tol: tol must be positive"),
            (["trace", "--scene", POINT_PLANE, "--tol", "nan"], "argument --tol: non-finite number 'nan'"),
            (["trace", "--scene", POINT_PLANE, "--step", "nan"], "argument --step: non-finite number 'nan'"),
            (["trace", "--scene", POINT_PLANE, "--step", "auto"], "argument --step: invalid float value: 'auto'"),
        ],
    )
    def test_bad_command_line_exits_1(self, capsys, argv, message):
        # exit 2 means a numerical failure
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rayspace ")
        assert err.splitlines()[-1].startswith(f"rayspace: error: {message}")

    def test_options_do_not_leak_between_calls(self, tmp_path):
        sphere = str(SCENES / "sphere_refract.scene")
        runs = [
            (["trace", "--scene", self.POINT_PLANE, "--grid", "5"], "grid", "5"),
            (["trace", "--scene", self.POINT_PLANE], "grid", "9"),
            (["check-symplectic", "--scene", sphere, "--seed", "2"], "seed", "2"),
            (["check-symplectic", "--scene", sphere], "seed", "7"),
        ]
        for n, (argv, key, value) in enumerate(runs):
            out = tmp_path / str(n)
            assert main([*argv, "--out", str(out)]) == 0
            report = read_report(out / "report.txt")
            assert report["command"] == argv[0]
            assert report[key] == value

    def test_help_lists_commands_and_options(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        for name in [*cli._COMMANDS, "--scene", "--out", "--grid", "--tol", "--step", "--seed"]:
            assert name in text


class TestGridCsv:
    """families._grid_csv against grid_csv_oracle, which formats value by value."""

    def test_special_values(self):
        special = [
            np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
            2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
            0.1, 1 / 3, -1e-7, 123456789.0,
        ]
        k1 = np.array([-0.0, 5e-324, np.nan])
        k2 = np.array([np.inf, 0.1, -1.7976931348623157e308, 1e-310, 1.0])
        nodes = np.resize(np.array(special), (3, 5, 4))
        text = families._grid_csv("k1,k2,a,b,c,d", k1, k2, nodes)
        assert text == grid_csv_oracle("k1,k2,a,b,c,d", k1, k2, nodes)
        assert text.splitlines()[1:3] == [
            "-0,inf,nan,inf,-inf,0",
            "-0,0.10000000000000001,-0,4.9406564584124654e-324,-4.9406564584124654e-324,2.2250738585072009e-308",
        ]

    @staticmethod
    @st.composite
    def grids(draw):
        """k1 (n1,), k2 (n2,) and nodes (n1, n2, columns) of any doubles: 0-5
        nodes along each axis, drawn apart, and 1-6 value columns."""
        n1, n2, columns = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 6))
        k1, k2, values = (
            np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=float)
            for size in (n1, n2, n1 * n2 * columns)
        )
        return k1, k2, values.reshape(n1, n2, columns)

    @given(grids())
    @example((np.zeros(0), np.zeros(0), np.zeros((0, 0, 3))))
    @example((np.zeros(0), np.array([0.5, -0.0]), np.zeros((0, 2, 1))))
    @example((np.array([0.1, 0.2, 0.3]), np.array([-1.0, 1e-310]), np.arange(36.0).reshape(3, 2, 6)))
    def test_any_doubles(self, grid):
        k1, k2, nodes = grid
        header = ",".join(["k1", "k2", *(f"v{i}" for i in range(nodes.shape[-1]))])
        text = families._grid_csv(header, k1, k2, nodes)
        assert text == grid_csv_oracle(header, k1, k2, nodes)
        assert text.count("\n") == 1 + len(k1) * len(k2)

    def test_bundled_scenes(self, tmp_path):
        real = families._grid_csv
        headers = set()

        def checked(header, k1, k2, nodes):
            text = real(header, k1, k2, nodes)
            assert text == grid_csv_oracle(header, k1, k2, nodes)
            headers.add(header)
            return text

        with (
            mock.patch.object(families, "_grid_csv", checked),
            mock.patch.object(variational, "_grid_csv", checked),
            mock.patch.object(cli, "_grid_csv", checked),
        ):
            for scene in sorted(SCENES.glob("*.scene")):
                for command in ("trace", "defect", "wavefront", "mirror"):
                    main([command, "--scene", str(scene), "--out", str(tmp_path)])
        # trace.csv, DefectGrid, Wavefront and MirrorDesign
        assert headers == {"k1,k2,ux,uy,uz,qx,qy,qz", "k1,k2,value", "k1,k2,qx,qy,qz,F", "k1,k2,x,y,z"}


# a point source over a small sphere mirror off its axis, which the rays of
# the third node of the first grid row miss (as in CI's "CLI defect whose
# traced stencil misses a sphere")
OFF_AXIS_SPHERE = """\
[surface ball]
kind = sphere
center = -0.45 0 -3
radius = 0.5

[system]
ambient_index = 1
interface = ball reflect

[family]
kind = point_source
apex = 0 0 0
axis = 0 0 -1
domain = -0.16 0.16 -0.16 0.16
"""


def _family_and_system(text):
    scene = parse_scene(text)
    return scene.family, scene.system


def _random_family_and_system(seed, kind, refract, shells):
    return _family_and_system(random_scene(np.random.default_rng(seed), kind, refract, shells))


_BUNDLED = {path.stem: _family_and_system(path.read_text()) for path in sorted(SCENES.glob("*.scene"))}
_BUNDLED = {name: case for name, case in _BUNDLED.items() if case[0] is not None}  # the family scenes


def _flat_off_axis_sphere():
    family, system = _family_and_system(OFF_AXIS_SPHERE)
    return flat_for_negative_k1(family), system


def _outcome(fn):
    try:
        return fn()
    except RaySpaceError as exc:
        return exc


class TestDefectGrids:
    """The two grids of the `defect` command, from one evaluation of the
    stencil lines (families._defect_grids), are is_rectangular's grids of the
    family and of its transform, bit for bit, or the same first error."""

    @settings(max_examples=30, deadline=None)
    @given(
        case=st.one_of(
            st.sampled_from(list(_BUNDLED.values())),
            st.builds(
                _random_family_and_system,
                st.integers(0, 2**32 - 1),
                st.sampled_from(["plane", "quadric", "sinusoid"]),
                st.booleans(),
                st.integers(0, 3),
            ),
        ),
        grid=st.integers(3, 9),
        step=st.one_of(st.none(), st.floats(1e-6, 1e-3)),
    )
    # a stencil that leaves the domain
    @example(case=_BUNDLED["sphere_refract"], grid=9, step=1.0)
    # the traced stencil of a later node misses the sphere
    @example(case=_family_and_system(OFF_AXIS_SPHERE), grid=9, step=None)
    # not an immersion where k1 < 0: the grid before the system fails first,
    # though the traced stencil lines miss the sphere
    @example(case=_flat_off_axis_sphere(), grid=9, step=None)
    def test_grids_are_is_rectangulars(self, case, grid, step):
        family, system = case
        got = _outcome(lambda: families._defect_grids(family, system, grid=grid, h=step))
        want = _outcome(
            lambda: (
                rs.is_rectangular(family, grid=grid, h=step)[1],
                rs.is_rectangular(rs.transform_family(family, system), grid=grid, h=step)[1],
            )
        )
        if isinstance(want, RaySpaceError):
            assert type(got) is type(want)
            assert str(got) == str(want) and got.row == want.row
            assert getattr(got, "k", None) == getattr(want, "k", None)
            return
        assert not isinstance(got, RaySpaceError), got
        for mine, theirs in zip(got, want, strict=True):
            assert np.array_equal(mine.k1, theirs.k1) and np.array_equal(mine.k2, theirs.k2)
            assert mine.step == theirs.step
            assert np.array_equal(mine.values, theirs.values)

    @pytest.mark.parametrize(
        "case, step, error, row",
        [
            (_BUNDLED["sphere_refract"], 1.0, rs.DomainBoundaryError, 0),
            (_family_and_system(OFF_AXIS_SPHERE), None, FamilyTraceError, 2),
            (_flat_off_axis_sphere(), None, rs.ImmersionError, 0),
        ],
    )
    def test_the_examples_fail(self, case, step, error, row):
        # the examples above, and which stage fails
        with pytest.raises(error) as err:
            families._defect_grids(*case, h=step)
        assert err.value.row == row
        if error is FamilyTraceError:  # the first grid row's third node, after two that trace
            assert str(err.value) == (
                "at k=(-0.1599909490332008, -0.0799977372583002): interface 0: "
                "ray misses Sphere in (0, 1e+06]"
            )
