"""Smoke test of the benchmark itself: one pass of every workload.

    python3 bench/smoke.py

For each workload it builds the job lists of two seeds and runs
`run.py --seed 0 --seconds 1` once untraced and once traced (one pass
each), printing every metric by name and unit.  It exits 1 if any job lacks an output check, if a run exits
non-zero or reports a wrong output, if a result line does not carry exactly
the metrics and units that BENCHMARK.json names, or if the two ray counters
of the traced wavefront run disagree.  Takes about two minutes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _result(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=300,
        check=False,
    )
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")), flush=True)
    return json.loads(lines[-1])


def _check_result(result: dict, expected: list, where: str) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: a job produced a wrong output")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted is {result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    names = [m["name"] for m in expected]
    missing = [n for n in names if n not in metrics]
    extra = [n for n in metrics if n not in names]
    if missing or extra:
        problems.append(f"{where}: missing metrics {missing}, unexpected metrics {extra}")
    for m in expected:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} in {got.get('unit')!r}, expected {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {m['name']} = {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import workloads

    problems = []
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="smoke-", dir=ROOT / ".bench_work"))
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            for seed in (0, 1):
                jobs = workloads.build(workload, seed, ROOT / "scenes", work)
                problems += [f"{workload}: job {j.name} has no output check" for j in jobs if not callable(j.check)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _result(workload, trace)
            problems += _check_result(result, expected, f"{workload} trace={trace}")
            if workload == "wavefront" and trace == 1:
                m = result["metrics"]
                evals = m["families.ray_evals"]["value"]
                traced = m["optics.propagate_system.calls"]["value"]
                if evals != traced:
                    problems.append(f"wavefront: {evals} ray evaluations but {traced} propagate_system calls")

    for problem in problems:
        print("FAIL " + problem)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
