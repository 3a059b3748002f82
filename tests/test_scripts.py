"""The demo scripts under scripts/ and the README's examples run to
completion and print their verdicts.  Each runs in a fresh interpreter that
fails on any RuntimeWarning, as the test suite does."""

import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_python(*args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def run_script(name):
    return run_python(str(ROOT / "scripts" / name))


def test_defect_scan():
    lines = run_script("defect_scan.py")
    assert len(lines) == 4
    assert re.fullmatch(r"point source +max \|defect\| = \S+ +-> rectangular", lines[0])
    assert re.fullmatch(r"two skew lines +max \|defect\| = \S+ +-> not rectangular", lines[1])
    before, after = re.fullmatch(r"through lens\+mirror: (\S+) -> (\S+)", lines[2]).groups()
    assert float(before) < 1e-9 and float(after) < 1e-9
    drift = re.fullmatch(r"index-weighted drift \|n_out\*after - n_in\*before\| = (\S+)", lines[3])
    assert float(drift.group(1)) < 1e-9


def test_fermat_path():
    lines = run_script("fermat_path.py")
    assert len(lines) == 3
    v, root5 = re.match(r"plane mirror: V = (\S+) \(sqrt\(5\) = (\S+)\)", lines[0]).groups()
    assert v == root5
    assert lines[0].endswith("bounce at [0.5 0.  0. ]")
    assert float(re.fullmatch(r"traced path: stationarity residual (\S+)", lines[1]).group(1)) < 1e-8
    solved, traced, law = re.fullmatch(
        r"solver from noisy seed: V = (\S+), traced length (\S+), law residual (\S+)", lines[2]
    ).groups()
    assert solved == traced and float(law) < 1e-8


def test_mirror_from_wavefront():
    lines = run_script("mirror_from_wavefront.py")
    assert len(lines) == 3
    assert lines[0].startswith("focal sum spread: ")
    assert lines[1].endswith("-> focused=True")
    assert lines[2].startswith("virtual branch: ") and lines[2].endswith("focused=True")


def test_readme_examples():
    """The README's python blocks, in order, run as one program."""
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    lines = run_python("-c", "".join(blocks))
    assert len(lines) == 2
    flat, max_abs = lines[0].split()
    assert flat == "True" and float(max_abs) < 1e-8
    assert float(lines[1]) < 1e-7
