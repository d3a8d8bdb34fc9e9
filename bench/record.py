"""Record one point of the benchmark trajectory.

    python3 bench/record.py

Runs the command of BENCHMARK.json for ``run_seconds`` once per workload and
seed 1..10 with tracing off, then once per workload with tracing on, and
writes ``bench/trajectory/BENCH_<commit>.json``, or ``BENCH_<commit>-2.json``
and so on when the commit already has a point: the environment, each
end-to-end metric's median, quartiles and spread over the seeds (quartiles
as ``statistics.quantiles(values, n=4)`` gives them, spread = (q3 - q1) /
median), the same for the unscaled wall time and the machine speed, the
failure fraction, each op's unscaled median time next to the ROADMAP
baseline row it reproduces, and the per-layer metrics of the traced run.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import BENCH_DIR, ROOT, quartiles, speed

SEEDS = list(range(1, 11))


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "commit": commit,
    }


def run(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    rounds = json.loads((BENCH_DIR / "_out" / ("%s-seed%d-rounds.json" % (workload, seed))).read_text())
    result["rounds"] = rounds["plain"]
    return result


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "n": len(values), "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import BASELINE_S, WORKLOADS

    env = environment()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": bench["command"],
        "run_seconds": seconds,
        "seeds": SEEDS,
        "environment": env,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        results = [run(bench["command"], workload, seed, seconds, 0) for seed in SEEDS]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        end_to_end = {
            name: dict(summary([r["metrics"][name]["value"] for r in results]), unit=spec["unit"])
            for name, spec in bounds.items()
        }
        rounds = [rnd for r in results for rnd in r["rounds"]]
        unscaled = {
            "wall_s": summary([statistics.mean(rnd["wall_s"] for rnd in r["rounds"]) for r in results]),
            "machine_speed": summary([speed(r["rounds"]) for r in results]),
        }
        with tempfile.TemporaryDirectory() as scratch:
            ops = {
                op.label: {
                    "median_unscaled_s": statistics.median(rnd["ops"][op.label] for rnd in rounds),
                    "rounds": len(rounds),
                    "baseline_row": op.baseline,
                    "baseline_s": BASELINE_S.get(op.baseline),
                    "stand_in": op.stand_in,
                }
                for op in WORKLOADS[workload](Path(scratch), SEEDS[0])
            }
        traced = run(bench["command"], workload, SEEDS[0], seconds, 1)
        record["workloads"][workload] = {
            "attempted": attempted,
            "failed": failed,
            "fail_frac": failed / attempted,
            "end_to_end": end_to_end,
            "unscaled": unscaled,
            "ops": ops,
            "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
            "per_layer_seed": SEEDS[0],
        }
        for name, s in end_to_end.items():
            print("%-13s %-12s median %10.4f %-4s q1 %10.4f q3 %10.4f spread %.4f (bound %.2f, %s)"
                  % (workload, name, s["median"], s["unit"], s["q1"], s["q3"], s["spread"], bounds[name]["bound"],
                     "ok" if name == "setup_s" or s["spread"] < bounds[name]["bound"] / 3 else "WIDE"), flush=True)
        print("%-13s unscaled wall_s spread %.4f, machine speed %.3f to %.3f; fail_frac %d/%d"
              % (workload, unscaled["wall_s"]["spread"], min(unscaled["machine_speed"]["values"]),
                 max(unscaled["machine_speed"]["values"]), failed, attempted), flush=True)

    stem = BENCH_DIR / "trajectory" / ("BENCH_%s" % (env["commit"] or "unknown")[:7])
    out, count = stem.with_suffix(".json"), 1
    while out.exists():
        count += 1
        out = stem.with_name("%s-%d.json" % (stem.name, count))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print("wrote", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
