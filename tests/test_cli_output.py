"""Every CLI command on every bundled scene, at default options, pinned.

Each run's exit code, stderr and `report.txt` are compared verbatim, and
each CSV it writes by sha256, against `data/cli_outputs.json`.  The floats
in these bytes may depend on the platform's libm, as in
`test_mirror_batch.TestPinnedOutput`.  After a change that is meant to alter
an output, regenerate the data with

    PYTHONPATH=src python tests/test_cli_output.py

and review the diff of the JSON file.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import tempfile

import pytest

from rayspace.cli import _COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PINS = pathlib.Path(__file__).resolve().parent / "data" / "cli_outputs.json"
SCENES = sorted(p.name for p in (ROOT / "scenes").glob("*.scene"))
RUNS = [(scene, command) for scene in SCENES for command in _COMMANDS]


def run(scene, command, out):
    """(exit code, stderr, report.txt text or None, {csv name: sha256}) of
    one `main` call, with the scene given relative to the repository root."""
    stderr = io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        with contextlib.redirect_stderr(stderr):
            code = main([command, "--scene", f"scenes/{scene}", "--out", str(out)])
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


@pytest.mark.parametrize(
    "scene, command, files, verdict, message",
    [
        ("sphere_refract.scene", "check-symplectic", [], "symplectic: false", "symplectic residual "),
        ("mirror_design.scene", "mirror", ["mirror.csv"], "focused: false", "focus missed by "),
    ],
)
def test_failed_check_writes_its_files_and_exits_2(scene, command, files, verdict, message, tmp_path):
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = main([command, "--scene", str(ROOT / "scenes" / scene), "--out", str(tmp_path), "--tol", "1e-30"])
    assert code == 2
    assert re.fullmatch(rf"error: {message}\d\.\d{{3}}e-\d\d \D*1e-30\)?\n", stderr.getvalue())
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files + ["report.txt"])
    report = (tmp_path / "report.txt").read_text(encoding="utf-8").splitlines()
    assert report[0] == f"command: {command}" and report[-1] == verdict


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        data = {}
        for scene, command in RUNS:
            out = pathlib.Path(tmp) / f"{scene}-{command}"
            out.mkdir()
            data[f"{scene} {command}"] = run(scene, command, out)
    PINS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
