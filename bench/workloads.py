"""Workload definitions: seeded inputs, the job list of one pass, and the
output check of every job.

A job is one call of `rayspace.cli.main(argv)`, or one public library call
where the command line cannot express the job.  Each job names the command
whose per-pass seconds it adds to, and a check that compares its output
with a reference taken from the paper (or, where the paper gives none, with
an independent computation).  Every job is expected to exit 0: one that
does not is a failed job, and one whose check finds a wrong value is a
failed job with a wrong output.

Seed 0 runs the bundled scenes unchanged.  Other seeds rewrite the
`[options]` of the wavefront scenes, pass the seed to `--seed` of the
device commands, and draw the library solves of the design workload.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import rayspace as rs
from rayspace import cli

# exit code a library job reports for a RaySpaceError, as the CLI does
_LIBRARY_ERROR_EXIT = 2
_LIBRARY_SOLVES = 60


@dataclass
class Job:
    """One timed unit of work and the check of what it produced."""

    name: str
    command: str
    run: Callable[[Path, bool], int]  # (output dir, warm-up) -> exit code
    check: Callable[[Path], str | None]  # output dir -> None, or what is wrong


# ---------------------------------------------------------------------------
# reading command outputs


def read_report(out: Path) -> dict:
    pairs = {}
    for line in (out / "report.txt").read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(": ")
        pairs[key] = value
    return pairs


def read_csv(out: Path, name: str) -> list[dict]:
    with open(out / name, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _first_failure(*conditions) -> str | None:
    for ok, what in conditions:
        if not ok:
            return what
    return None


# ---------------------------------------------------------------------------
# seeded scene variants


def grid_nodes(family, grid: int):
    """Parameter values of the wavefront grid, as `reconstruct_wavefront` lays them out."""
    h = family.default_step()
    (a1, b1), (a2, b2) = family.domain
    return np.linspace(a1 + h, b1 - h, grid), np.linspace(a2 + h, b2 - h, grid)


def with_options(text: str, options: dict) -> str:
    """Scene text with `options` replacing those keys in its final [options] section."""
    headers = re.findall(r"^\[([^\]]+)\]\s*$", text, flags=re.M)
    if not headers or headers[-1] != "options":
        raise ValueError("scene must end with its [options] section")
    pattern = r"^\s*(%s)\s*=.*\n?" % "|".join(map(re.escape, options))
    text = re.sub(pattern, "", text, flags=re.M).rstrip("\n") + "\n"
    return text + "".join(f"{k} = {v}\n" for k, v in options.items())


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------------------
# job builders


def _cli_job(name, command, argv, check, warm_argv=None) -> Job:
    """A CLI job; its warm-up runs `warm_argv`, by default `argv` at grid 3."""
    warm_argv = warm_argv or [*argv, "--grid", "3"]

    def run(out: Path, warm: bool) -> int:
        return cli.main([*(warm_argv if warm else argv), "--out", str(out)])

    return Job(name, command, run, check)


def _wavefront_jobs(scenes: Path, work: Path, seed: int) -> list[Job]:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for name, c_range in (("point_plane", (1.0, 3.0)), ("sphere_refract", (-1.0, 1.0))):
        path = scenes / f"{name}.scene"
        scene = rs.load_scene(path)
        grid = scene.options.get("grid", 9)
        k1s, k2s = grid_nodes(scene.family, grid)
        if seed == 0:
            k0 = scene.options.get("k0", (0.5 * (k1s[0] + k1s[-1]), 0.5 * (k2s[0] + k2s[-1])))
            i0 = int(np.argmin(np.abs(k1s - k0[0])))
            j0 = int(np.argmin(np.abs(k2s - k0[1])))
        else:
            # the pencil constant c and the base node move the wavefront and
            # its integration paths but not the number of rays evaluated
            i0, j0 = (int(v) for v in rng.integers(0, grid, 2))
            c = rng.uniform(*c_range)
            text = with_options(
                path.read_text(encoding="utf-8"),
                {"k0": f"{_fmt(k1s[i0])} {_fmt(k2s[j0])}", "wavefront_c": _fmt(c)},
            )
            path = work / f"{name}.scene"
            path.write_text(text, encoding="utf-8")
        jobs.append(
            _cli_job(
                f"wavefront/{name}",
                "wavefront",
                ["wavefront", "--scene", str(path)],
                _wavefront_check(name, grid, (k1s[i0], k2s[j0])),
                # at grid 3 the segments are four times longer and refine
                # deeper: a wavefront warm-up would cost half a pass
                warm_argv=["trace", "--scene", str(path), "--grid", "3"],
            )
        )
    return jobs


def _wavefront_check(name, grid, k0_node):
    image = np.array([0.0, 0.0, -5.0])  # mirror image of the point_plane apex

    def check(out: Path):
        rep = read_report(out)
        rows = read_csv(out, "wavefront.csv")
        k0_used = [float(v) for v in rep["k0_used"].split()]
        failure = _first_failure(
            (len(rows) == grid * grid, f"wavefront.csv has {len(rows)} rows"),
            (float(rep["path_discrepancy"]) <= 1e-7, "path_discrepancy above 1e-7"),
            (float(rep["orthogonality_residual"]) <= 1e-6, "orthogonality_residual above 1e-6"),
            (np.allclose(k0_used, k0_node, rtol=0, atol=1e-15), "k0_used is not the drawn grid node"),
        )
        if failure or name != "point_plane":
            return failure
        pts = np.array([[r["qx"], r["qy"], r["qz"]] for r in rows])
        dist = np.linalg.norm(pts - image, axis=1)
        spread = 0.5 * float(dist.max() - dist.min())
        return None if spread <= 1e-7 else f"points leave the sphere about the image by {spread:.3e}"

    return check


def _device_jobs(scenes: Path, seed: int) -> list[Job]:
    # seed 0 keeps each scene's own sampling seed
    seed_args = ["--seed", str(seed)] if seed else []
    jobs = []
    for name in ("mixed_device", "sphere_refract"):
        path = str(scenes / f"{name}.scene")
        jobs.append(_cli_job(f"trace/{name}", "trace", ["trace", "--scene", path], _trace_check(path)))
        jobs.append(
            _cli_job(f"defect/{name}", "defect", ["defect", "--scene", path], _verdict_check("RECTANGULAR"))
        )
    # check-symplectic on mixed_device is a known defect, not a job: see known_defects
    path = str(scenes / "sphere_refract.scene")
    jobs.append(
        _cli_job(
            "check-symplectic/sphere_refract",
            "symplectic",
            ["check-symplectic", "--scene", path, *seed_args],
            _symplectic_check(path),
        )
    )
    path = str(scenes / "two_skew.scene")
    jobs.append(
        _cli_job("defect/two_skew", "defect", ["defect", "--scene", path], _two_skew_check)
    )
    return jobs


def _trace_check(scene_path):
    scene = rs.load_scene(scene_path)
    interfaces = scene.system.interfaces
    single_sphere = len(interfaces) == 1 and isinstance(interfaces[0].surface, rs.Sphere)

    def check(out: Path):
        rows = read_csv(out, "trace.csv")
        grid = scene.options.get("grid", 9)
        if len(rows) != grid * grid:
            return f"trace.csv has {len(rows)} rows"
        if float(read_report(out)["max_line_residual"]) > 1e-12:
            return "max_line_residual above 1e-12"
        worst = 0.0
        for r in rows:
            u = np.array([r["ux"], r["uy"], r["uz"]])
            q = np.array([r["qx"], r["qy"], r["qz"]])
            if single_sphere:
                worst = max(worst, _snell_miss(scene, u, q))
            else:
                ref = rs.propagate_system(
                    scene.family.eval(r["k1"], r["k2"]),
                    scene.system,
                    start=scene.family.start_point(r["k1"], r["k2"]),
                ).line_out
                worst = max(worst, float(np.max(np.abs(ref.u - u))), float(np.max(np.abs(ref.q - q))))
        return None if worst <= 1e-9 else f"traced rays off the reference by {worst:.3e}"

    return check


def _snell_miss(scene, u, q) -> float:
    """Snell's law residual of an output ray refracted once at a sphere.

    The hit is recovered by walking the output line back to the sphere; the
    incident ray joins the point-source apex to that hit.
    """
    itf = scene.system.interfaces[0]
    sphere = itf.surface
    rel = q - sphere.center
    b = float(rel @ u)
    disc = b * b - (float(rel @ rel) - sphere.radius**2)
    if disc < 0.0:
        return math.inf
    hit = q + (-b - math.sqrt(disc)) * u  # the entry point: the upstream root
    apex = scene.family.start_point(0.0, 0.0)
    u_in = (hit - apex) / np.linalg.norm(hit - apex)
    normal = (hit - sphere.center) / sphere.radius
    return float(np.max(np.abs(itf.n_in * np.cross(u_in, normal) - itf.n_out * np.cross(u, normal))))


def _verdict_check(verdict):
    def check(out: Path):
        rep = read_report(out)
        return _first_failure(
            (rep["verdict"] == verdict, f"verdict {rep['verdict']!r}, expected {verdict!r}"),
            (rep["rectangular_before"] == "true", "input family not rectangular"),
        )

    return check


def _two_skew_check(out: Path):
    rep = read_report(out)
    centre = [r for r in read_csv(out, "defect_before.csv") if r["k1"] == 0.0 and r["k2"] == 0.0]
    expected = 1.0 / (3.0 * math.sqrt(3.0))
    return _first_failure(
        (rep["verdict"] == "NOT RECTANGULAR", f"verdict {rep['verdict']!r}"),
        (len(centre) == 1, "no defect sample at the domain centre"),
        (bool(centre) and abs(centre[0]["value"] - expected) <= 1e-9, "centre defect is not 1/(3 sqrt 3)"),
    )


def _symplectic_check(scene_path):
    scene = rs.load_scene(scene_path)
    scales = [1.0 if itf.action == rs.REFLECT else itf.n_in / itf.n_out for itf in scene.system.interfaces]

    def check(out: Path):
        rep = read_report(out)
        return _first_failure(
            (rep["symplectic"] == "true", "map not symplectic"),
            (float(rep["max_residual"]) < float(rep["tolerance"]), "residual above tolerance"),
            (
                all(abs(float(rep[f"interface_{i}_scale"]) - s) <= 1e-15 for i, s in enumerate(scales)),
                "interface scales are not the index ratios",
            ),
        )

    return check


def _design_jobs(scenes: Path, seed: int) -> list[Job]:
    mirror = str(scenes / "mirror_design.scene")
    jobs = [
        _cli_job("mirror/mirror_design", "mirror", ["mirror", "--scene", mirror], _mirror_check(mirror)),
        _cli_job(
            "characteristic/characteristic",
            "characteristic",
            ["characteristic", "--scene", str(scenes / "characteristic.scene")],
            _characteristic_check,
        ),
    ]
    rng = np.random.default_rng([seed, 3])
    for i in range(_LIBRARY_SOLVES):
        jobs.append(_library_solve(rng, i))
    return jobs


def _mirror_check(scene_path):
    scene = rs.load_scene(scene_path)
    focus = np.asarray(scene.options["focus"])
    apex = scene.family.start_point(0.0, 0.0)
    focal_sum = scene.options["level"] - scene.options["wavefront_c"]

    def check(out: Path):
        rep = read_report(out)
        pts = np.array([[r["x"], r["y"], r["z"]] for r in read_csv(out, "mirror.csv")])
        grid = scene.options.get("grid", 9)
        err = np.abs(np.linalg.norm(pts - apex, axis=1) + np.linalg.norm(pts - focus, axis=1) - focal_sum)
        return _first_failure(
            (len(pts) == grid * grid, f"mirror.csv has {len(pts)} rows"),
            (rep["focused"] == "true", "mirror does not focus"),
            (float(err.max()) <= 1e-7, f"points leave the confocal spheroid by {float(err.max()):.3e}"),
        )

    return check


def _characteristic_check(out: Path):
    rep = read_report(out)
    return _first_failure(
        (abs(float(rep["optical_length"]) - math.sqrt(5.0)) <= 1e-9, "V is not sqrt(5)"),
        (float(rep["law_residual"]) <= 1e-8, "law_residual above 1e-8"),
    )


def nested_sphere_system(rng, n_interfaces):
    """Sphere shells around the origin with random reflect/refract actions.

    Rays from near the origin cross every shell transversally, and each
    refraction enters a denser medium, so tracing never fails.
    """
    interfaces = []
    n_current = 1.0
    for i in range(n_interfaces):
        shell = rs.Sphere(rng.uniform(-0.3, 0.3, 3), 3.0 + 2.0 * i)
        if rng.random() < 0.5:
            interfaces.append(rs.Interface(shell, rs.REFLECT, n_in=n_current))
        else:
            n_next = n_current + rng.uniform(0.2, 0.8)
            interfaces.append(rs.Interface(shell, rs.REFRACT, n_in=n_current, n_out=n_next))
            n_current = n_next
    return rs.OpticalSystem(tuple(interfaces))


def _library_solve(rng, i) -> Job:
    """characteristic_function from a perturbed traced path.

    The traced ray is a stationary path, so the solve must return to it:
    the reference value is the traced optical length, extended one unit
    past the last hit to the end point.
    """
    system = nested_sphere_system(rng, 1 + i % 3)
    start = rng.uniform(-0.3, 0.3, 3)
    trace = rs.propagate_system(rs.line_through(start, rng.normal(size=3)), system, start=start)
    m2 = trace.hits[-1].point + trace.line_out.u
    traced = rs.path_through(start, m2, system, [h.point for h in trace.hits])
    initial = traced.with_coords(traced.flat() + rng.uniform(-0.01, 0.01, traced.flat().size))
    expected = trace.optical_length + system.exit_index
    result = {}

    def run(out: Path, warm: bool) -> int:
        result.clear()
        try:
            result["value"], result["path"] = rs.characteristic_function(start, m2, system, initial=initial)
        except rs.RaySpaceError:
            return _LIBRARY_ERROR_EXIT
        return 0

    def check(out: Path):
        law = rs.law_residual(result["path"])
        return _first_failure(
            (law < 1e-8, f"law_residual {law:.3e}"),
            (abs(result["value"] - expected) <= 1e-9, "V differs from the traced optical length"),
        )

    return Job(f"characteristic/library_{i:02d}", "characteristic", run, check)


def known_defects(workload: str, seed: int, scenes: Path) -> list[Job]:
    """Jobs that a known defect of the program makes fail on some seeds.

    They run once per run, untimed and outside the job counts, so that the
    defect stays in view without making the number of failed jobs depend
    on the seed and on how many passes fit in a run.
    """
    if workload != "device":
        return []
    # exits 2 ("ray misses Sinusoid") on about half of the seeds: the command
    # traces the wrong rays on multi-interface scenes
    seed_args = ["--seed", str(seed)] if seed else []
    path = str(scenes / "mixed_device.scene")
    return [
        _cli_job(
            "check-symplectic/mixed_device",
            "symplectic",
            ["check-symplectic", "--scene", path, *seed_args],
            _symplectic_check(path),
        )
    ]


def build(workload: str, seed: int, scenes: Path, work: Path) -> list[Job]:
    """Parse the workload's scenes, generate its seeded inputs and return its jobs."""
    if workload == "wavefront":
        return _wavefront_jobs(scenes, work, seed)
    if workload == "device":
        return _device_jobs(scenes, seed)
    if workload == "design":
        return _design_jobs(scenes, seed)
    raise ValueError(f"unknown workload {workload!r}")
