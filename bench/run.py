"""rayspace benchmark: three workloads of CLI jobs, timed in one process.

    python3 bench/run.py --workload {wavefront,device,design} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from `src/` and the scenes are
read from `scenes/` next to this directory.  One closed-loop client runs
the workload's job list pass after pass (a job starts when the previous one
has finished; no threads) until `--seconds` have passed, after an untimed
warm-up pass at grid 3 that finishes imports.  Every job's output is checked
after its timer stops (see workloads.py).  The jobs of known defects
(`workloads.known_defects`) run once after the timed passes; their outcome
is printed but neither timed nor counted in `attempted` and `failed`.

While the passes run, calibration.Sampler times a fixed kernel ten times
a second; each pass's times are scaled by the reference kernel time over
the mean kernel time during that pass, and the sampling time is subtracted
from every job.  Times are therefore seconds at the reference speed, which
stay put while a shared host slows down or speeds up; `*_wall_s` figures
are the unscaled wall seconds.

`--trace 0` reports the end-to-end metrics; `--trace 1` alternates untraced
and traced passes and reports the per-layer metrics of tracer.py, writing
the spans to `.bench_out/`.  Readable lines, then a `detail:` JSON line
with provenance and every figure, precede the final JSON result line.
"""

from __future__ import annotations

import os

# one thread for every numerical library, before numpy is first imported
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
from calibration import REFERENCE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENES = ROOT / "scenes"
SETUP_REPEATS = 5
WORKLOADS = ("wavefront", "device", "design")
COMMAND_METRICS = {
    "trace": "trace_s",
    "defect": "defect_s",
    "symplectic": "symplectic_s",
    "wavefront": "wavefront_s",
    "mirror": "mirror_s",
    "characteristic": "characteristic_s",
}
TAIL_MIN_BEYOND = 10
GATED = ("pass_s", "setup_s", "peak_rss_mb")  # the metrics of the result line
TIME_UNITS = {"s", "ms", "us"}

# Runs in a fresh interpreter: import rayspace, parse the scenes and
# generate the seeded inputs, then print the seconds that took and a
# calibration sample taken right after.
_SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
bench, src, workload, seed, scenes, work = sys.argv[1:]
sys.path[:0] = [bench, src]
from pathlib import Path
import workloads
workloads.build(workload, int(seed), Path(scenes), Path(work))
seconds = time.perf_counter() - t0
import calibration
print(seconds, calibration.mean_sample())
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload: str, seed: int, work: Path) -> list[tuple[float, float]]:
    """(wall seconds, calibration sample) of SETUP_REPEATS fresh set-ups."""
    times = []
    for i in range(SETUP_REPEATS):
        child_work = work / f"setup-{i}"
        child_work.mkdir(parents=True, exist_ok=True)
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(BENCH), str(SRC), workload, str(seed), str(SCENES), str(child_work)],
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{done.stderr}")
        seconds, sample = done.stdout.split()
        times.append((float(seconds), float(sample)))
    return times


# ---------------------------------------------------------------------------
# passes


def run_pass(jobs, work: Path, tracer=None, warm=False, reports=None, sampler=None):
    """Run every job once; returns one record per job.

    A job's seconds exclude the time `sampler` spent sampling during it.

    `reports` maps job name to the report.txt bytes of an untraced pass; a
    traced pass must reproduce them byte for byte.
    """
    records = []
    for job in jobs:
        out = work / job.name.replace("/", "__")
        out.mkdir(parents=True, exist_ok=True)
        evals0 = tracer.ray_evals if tracer else 0
        spans0 = len(tracer.spans) if tracer else 0
        if tracer:
            tracer.install()
        error = None
        messages = io.StringIO()
        stolen = sampler.stolen if sampler else 0.0
        try:
            with contextlib.redirect_stderr(messages):
                start = time.perf_counter()
                try:
                    code = job.run(out, warm)
                except Exception:  # a crash is a failed job, not a failed benchmark
                    code = None
                    error = traceback.format_exc(limit=3)
                seconds = time.perf_counter() - start
            if sampler:
                seconds -= sampler.stolen - stolen
        finally:
            if tracer:
                tracer.restore()
        record = {"name": job.name, "command": job.command, "seconds": seconds, "exit": code}
        if warm:
            records.append(record)
            continue
        problem = None
        if code != 0:
            error = error or f"exit code {code}: {messages.getvalue().strip()}"
        else:
            try:
                problem = job.check(out)
            except Exception as exc:  # a missing or malformed output is a wrong output
                problem = f"check raised {exc!r}"
            report = out / "report.txt"
            if problem is None and reports is not None and report.exists():
                data = report.read_bytes()
                if tracer is None:
                    reports.setdefault(job.name, data)
                elif reports.get(job.name) != data:
                    problem = "traced report.txt differs from the untraced one"
        record.update(ok=error is None and problem is None, error=error, wrong=problem)
        if tracer:
            ofi = [s for s in tracer.spans[spans0:] if s[0] == "families.one_form_integral"]
            record.update(
                ray_evals=tracer.ray_evals - evals0,
                one_form_integral_calls=len(ofi),
                one_form_integral_evals=sum(s[5]["evals"] for s in ofi),
            )
        records.append(record)
    return records


def pass_seconds(records) -> float:
    """Wall seconds of a pass: every job's timed run, failed ones included."""
    return sum(r["seconds"] for r in records)


def tail(values):
    """(percentile, value) with at least TAIL_MIN_BEYOND samples above it, or None."""
    n = len(values)
    if n < 2 * TAIL_MIN_BEYOND:
        return None
    pct = math.floor(100 * (n - TAIL_MIN_BEYOND) / n)
    rank = math.ceil(pct / 100 * n)
    return pct, sorted(values)[rank - 1]


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
            env=env,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(args, numpy_version) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "clients": 1,
        "loop": "closed",
    }


# ---------------------------------------------------------------------------
# main


def _summaries(passes):
    """Per-job median wall seconds and failure counts over the given passes."""
    jobs = {}
    for records in passes:
        for r in records:
            entry = jobs.setdefault(r["name"], {"seconds": [], "failed": 0, "errors": set()})
            if r["ok"]:
                entry["seconds"].append(r["seconds"])
            else:
                entry["failed"] += 1
                entry["errors"].add(r["wrong"] or r["error"].strip().splitlines()[-1])
    return {
        name: {
            "median_wall_s": statistics.median(e["seconds"]) if e["seconds"] else None,
            "failed": e["failed"],
            "errors": sorted(e["errors"]),
        }
        for name, e in jobs.items()
    }


def end_to_end(passes, scales, setup, commands) -> dict:
    """name -> (value, unit); `scales[i]` turns pass i's wall seconds into reference seconds."""
    walls = [pass_seconds(p) for p in passes]
    ref = [w * f for w, f in zip(walls, scales)]
    metrics = {
        "pass_s": (statistics.median(ref), "s"),
        "setup_s": (statistics.median(s * REFERENCE_S / c for s, c in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "pass_wall_s": (statistics.median(walls), "s"),
        "setup_wall_s": (statistics.median(s for s, _ in setup), "s"),
    }
    for command in commands:
        per_pass = [
            f * sum(r["seconds"] for r in p if r["ok"] and r["command"] == command)
            for p, f in zip(passes, scales)
        ]
        metrics[COMMAND_METRICS[command]] = (statistics.median(per_pass), "s")
    found = tail(ref)
    if found:
        pct, value = found
        metrics[f"pass_s_tail (p{pct} of {len(ref)} passes)"] = (value, "s")
    return metrics


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "rayspace" / "__init__.py").is_file() or not SCENES.is_dir():
        print(f"error: no rayspace sources and scenes under {ROOT}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = measure_setup(args.workload, args.seed, work)

        import numpy
        import workloads
        from tracer import LAYER_METRICS, Tracer, layer_metrics

        jobs = workloads.build(args.workload, args.seed, SCENES, work)
        commands = sorted({job.command for job in jobs}, key=list(COMMAND_METRICS).index)
        run_pass(jobs, work, warm=True)

        runs, reports = [], {}  # runs: (records, tracer or None, scale)
        with calibration.Sampler() as sampler:
            started = time.perf_counter()
            # at least one pass (one untraced and one traced when tracing), then until time is up
            while (
                not runs
                or (args.trace and len(runs) < 2)
                or time.perf_counter() - started < args.seconds
            ):
                tracer = Tracer() if args.trace and len(runs) % 2 else None
                begin = time.perf_counter()
                records = run_pass(jobs, work, tracer=tracer, reports=reports, sampler=sampler)
                runs.append((records, tracer, sampler.scale(begin, time.perf_counter())))
        defects = run_pass(workloads.known_defects(args.workload, args.seed, SCENES), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still be using it
            work.parent.rmdir()

    passes = [r for r, t, _ in runs if t is None]
    scales = [f for _, t, f in runs if t is None]
    traced = [(r, t, f) for r, t, f in runs if t is not None]
    every_pass = [r for r, _, _ in runs]
    attempted = sum(len(p) for p in every_pass)
    failed = sum(not r["ok"] for p in every_pass for r in p)
    correct = not any(r["wrong"] for p in [*every_pass, defects] for r in p)
    detail = {
        "provenance": provenance(args, numpy.__version__),
        "passes": len(passes),
        "traced_passes": len(traced),
        "pass_wall_seconds": [pass_seconds(p) for p in passes],
        "pass_scales": scales,
        "calibration": {
            "reference_s": REFERENCE_S,
            "samples": len(sampler.samples),
            "median_s": statistics.median(s for _, s in sampler.samples),
            "min_s": min(s for _, s in sampler.samples),
            "sampling_s": sampler.stolen,
        },
        "setup": setup,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "jobs": _summaries(every_pass),
        "known_defects": {r["name"]: {k: r[k] for k in ("exit", "error", "wrong")} for r in defects},
    }
    lines = [f"rayspace benchmark  workload={args.workload} seed={args.seed} trace={args.trace}"]
    if args.trace:
        untraced = statistics.median(pass_seconds(p) * f for p, f in zip(passes, scales))
        overhead = statistics.median(pass_seconds(r) * f for r, _, f in traced) / untraced
        per_pass = []
        for _, tracer, scale in traced:
            m = layer_metrics(tracer, overhead)
            per_pass.append(
                {k: v * scale if LAYER_METRICS[k][0] in TIME_UNITS else v for k, v in m.items()}
            )
        shown = metrics = {
            name: (statistics.median(m[name] for m in per_pass), unit)
            for name, (unit, _) in LAYER_METRICS.items()
        }
        first = traced[0][0]
        detail["traced_jobs"] = [
            {k: r[k] for k in ("name", "ray_evals", "one_form_integral_calls", "one_form_integral_evals")}
            for r in first
            if r["ray_evals"]
        ]
        lines += [
            f"  job {r['name']}: {r['ray_evals']} ray evaluations, {r['one_form_integral_calls']}"
            f" one_form_integral calls ({r['one_form_integral_evals']} evaluations)"
            for r in first
            if r["ray_evals"]
        ]
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        dumps = [t.dump() for _, t, _ in traced]
        trace_file.write_text(json.dumps({"provenance": detail["provenance"], "passes": dumps}), encoding="utf-8")
        lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    else:
        shown = end_to_end(passes, scales, setup, commands)
        metrics = {k: shown[k] for k in GATED}
    lines.append(f"  {'fail_ratio':<46} {failed / attempted:>14.6g} {'ratio':<6} ({failed} failed of {attempted} jobs)")
    lines += [f"  {name:<46} {value:>14.6g} {unit}" for name, (value, unit) in shown.items()]
    detail["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in shown.items()}
    for name, job in detail["jobs"].items():
        if job["failed"]:
            lines.append(f"  FAILED {name} x{job['failed']}: {'; '.join(job['errors'])}")
    for r in defects:
        outcome = "passes" if r["ok"] else "fails: " + (r["wrong"] or r["error"].strip().splitlines()[-1])
        lines.append(f"  known defect, untimed and not counted: {r['name']} {outcome}")
    print("\n".join(lines))
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
