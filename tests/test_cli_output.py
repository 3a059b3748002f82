"""Every CLI command on every bundled scene, at default options, pinned,
and `wavefront --grid 3` on three scenes, whose segments refine past
level 8 of the one-form integral.

Each run's exit code, stderr and `report.txt` are compared verbatim, and
each CSV it writes by sha256, against `data/cli_outputs.json`.  The floats
in these bytes may depend on the platform's libm, as in
`test_mirror_batch.TestPinnedOutput`.  After a change that is meant to alter
an output, regenerate the data with

    PYTHONPATH=src python tests/test_cli_output.py

and review the diff of the JSON file.

The tests after the pins check how `main` writes those bytes: over stale
files of another length, with the mode a new file gets, and what is left
when a write or the --out directory fails.
"""

import contextlib
import errno
import hashlib
import io
import json
import os
import pathlib
import re
import stat
import tempfile

import numpy as np
import pytest

from rayspace.cli import _COMMANDS, main
from rayspace.lines import _norm

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).resolve().parent / "data" / "cli_outputs.json"
SCENES = sorted(p.name for p in (ROOT / "scenes").glob("*.scene"))
RUNS = [(scene, command) for scene in SCENES for command in _COMMANDS]
COARSE = [f"{scene}.scene" for scene in ("point_plane", "sphere_refract", "mixed_device")]


def run(scene, command, out, *extra):
    """(exit code, stderr, report.txt text or None, {csv name: sha256}) of
    one `main` call, with the scene given relative to the repository root."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--scene", f"scenes/{scene}", "--out", str(out), *extra])
    finally:
        os.chdir(cwd)
    report = out / "report.txt"
    csvs = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "report.txt"
    }
    return {
        "exit": code,
        "stderr": stderr.getvalue(),
        "report": report.read_text(encoding="utf-8") if report.exists() else None,
        "csv": csvs,
    }


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("scene, command", RUNS, ids=[f"{s[:-6]}-{c}" for s, c in RUNS])
def test_command_output(scene, command, pins, tmp_path):
    assert run(scene, command, tmp_path) == pins[f"{scene} {command}"]


@pytest.mark.parametrize("scene", COARSE, ids=[s[:-6] for s in COARSE])
def test_coarse_wavefront_output(scene, pins, tmp_path):
    # on a 3x3 grid the segments are long enough to refine past level 8
    assert run(scene, "wavefront", tmp_path, "--grid", "3") == pins[f"{scene} wavefront --grid 3"]


@pytest.mark.parametrize(
    "scene, command, files, verdict, message",
    [
        ("sphere_refract.scene", "check-symplectic", [], "symplectic: false", "symplectic residual "),
        ("mirror_design.scene", "mirror", ["mirror.csv"], "focused: false", "focus missed by "),
        ("point_plane.scene", "trace", ["trace.csv"], r"max_line_residual: \S+", "line residual "),
    ],
)
def test_failed_check_writes_its_files_and_exits_2(scene, command, files, verdict, message, tmp_path):
    # mirror and trace name the node k of the largest miss or residual
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--scene", str(ROOT / "scenes" / scene), "--out", str(tmp_path), "--tol", "1e-30"])
    assert code == 2
    at_k = r" at k=\(-?\d\S*, -?\d\S*\)" if command != "check-symplectic" else ""
    assert re.fullmatch(rf"error: {message}\d\.\d{{3}}e-\d\d{at_k} \D*1e-30\)?\n", stderr.getvalue())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["report.txt"])
    report = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0] == f"command: {command}" and re.fullmatch(verdict, report[-1])


FAMILY_SCENES = [s for s in SCENES if "[family]" in (ROOT / "scenes" / s).read_text(encoding="utf-8")]


@pytest.mark.parametrize("scene", FAMILY_SCENES, ids=[s[:-6] for s in FAMILY_SCENES])
def test_trace_names_the_node_of_its_largest_line_residual(scene, tmp_path):
    # the residual max(| |u| - 1 |, |q . u|) of each line of trace.csv,
    # read back bit for bit from its %.17g fields: past --tol, trace names
    # the first node where it peaks; at the default tolerance it passes
    code, err = call(scene, "trace", tmp_path / "tight", "--tol", "1e-300")
    table = np.loadtxt(tmp_path / "tight" / "trace.csv", delimiter=",", skiprows=1)
    k, u, q = table[:, :2], table[:, 2:5], table[:, 5:]
    residuals = np.maximum(abs(_norm(u) - 1.0), abs(np.vecdot(q, u)))
    worst = residuals.max()
    assert code == 2 and worst > 1e-300
    at = tuple(map(float, k[np.argmax(residuals)]))
    assert err == f"error: line residual {worst:.3e} at k={at} exceeds 1e-300\n"
    report = (tmp_path / "tight" / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[-1] == "max_line_residual: %.17g" % worst
    assert call(scene, "trace", tmp_path / "default") == (0, "")


# one scene per command, each run exiting 0
RERUNS = [
    ("mixed_device.scene", "trace"),
    ("mixed_device.scene", "defect"),
    ("sphere_refract.scene", "check-symplectic"),
    ("point_plane.scene", "wavefront"),
    ("mirror_design.scene", "mirror"),
    ("characteristic.scene", "characteristic"),
]


def call(scene, command, out, *extra):
    """(exit code, stderr) of one `main` call."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--scene", str(ROOT / "scenes" / scene), "--out", str(out), *extra])
    return code, stderr.getvalue()


def contents(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("scene, command", RERUNS, ids=[f"{s[:-6]}-{c}" for s, c in RERUNS])
def test_rerun_over_stale_files_gives_the_fresh_bytes(scene, command, tmp_path):
    assert call(scene, command, tmp_path / "fresh") == (0, "")
    fresh = contents(tmp_path / "fresh")
    for name, size in (("longer", lambda n: n + 100), ("shorter", lambda n: n // 2)):
        out = tmp_path / name
        out.mkdir()
        for file, data in fresh.items():
            (out / file).write_bytes(b"#" * size(len(data)))
        assert call(scene, command, out) == (0, "")
        assert contents(out) == fresh, name


def test_new_output_gets_the_mode_of_open_w(tmp_path):
    umask = os.umask(0o027)
    try:
        with open(tmp_path / "reference", "w"):
            pass
        code, _ = call("characteristic.scene", "characteristic", tmp_path / "out")
    finally:
        os.umask(umask)
    assert code == 0
    mode = stat.S_IMODE((tmp_path / "out" / "report.txt").stat().st_mode)
    assert mode == stat.S_IMODE((tmp_path / "reference").stat().st_mode)


def test_write_failing_part_way_leaves_an_empty_file(tmp_path, monkeypatch):
    (tmp_path / "report.txt").write_bytes(b"#" * 10_000)
    write, calls = os.write, []
    full = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def failing_write(fd, data):
        # the first call writes a few bytes, the next one finds the disk full
        calls.append(fd)
        if len(calls) > 1:
            raise full
        return write(fd, data[:10])

    monkeypatch.setattr(os, "write", failing_write)
    code, err = call("characteristic.scene", "characteristic", tmp_path)
    monkeypatch.undo()
    assert len(calls) == 2
    # the error names the file that could not be written
    named = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), os.path.join(tmp_path, "report.txt"))
    assert (code, err) == (1, f"error: {named}\n")
    assert (tmp_path / "report.txt").read_bytes() == b""


def test_out_naming_a_file_exits_1(tmp_path):
    (tmp_path / "taken").write_bytes(b"kept")
    code, err = call("characteristic.scene", "characteristic", tmp_path / "taken")
    assert code == 1
    assert re.fullmatch(r"error: \[Errno \d+\] .*taken'\n", err), err
    assert (tmp_path / "taken").read_bytes() == b"kept"


def test_output_name_that_is_a_directory_exits_1(tmp_path):
    (tmp_path / "report.txt").mkdir()
    code, err = call("characteristic.scene", "characteristic", tmp_path)
    assert code == 1
    assert re.fullmatch(r"error: \[Errno \d+\] .*report\.txt'\n", err), err
    assert (tmp_path / "report.txt").is_dir()


def test_numerical_failure_writes_nothing(tmp_path):
    # the grid inset by a step wider than half the domain leaves it: exit 2
    failing = ("--step", "1")
    assert call("sphere_refract.scene", "defect", tmp_path / "new", *failing)[0] == 2
    assert not (tmp_path / "new").exists()
    assert call("sphere_refract.scene", "defect", tmp_path / "earlier") == (0, "")
    earlier = contents(tmp_path / "earlier")
    assert call("sphere_refract.scene", "defect", tmp_path / "earlier", *failing)[0] == 2
    assert contents(tmp_path / "earlier") == earlier


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {}
        for scene, command in RUNS:
            out = pathlib.Path(tmp) / f"{scene}-{command}"
            out.mkdir()
            data[f"{scene} {command}"] = run(scene, command, out)
        for scene in COARSE:
            out = pathlib.Path(tmp) / f"{scene}-wavefront-grid-3"
            out.mkdir()
            data[f"{scene} wavefront --grid 3"] = run(scene, "wavefront", out, "--grid", "3")
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
