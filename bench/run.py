"""cwg benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Each round is a fresh process (``worker.py``): interpreter start, ``import
cwg``, the workload's inputs, then every op in turn (single client, closed
loop, ``--threads 1``).  Rounds run one at a time until ``--seconds`` have
passed.  The run's times are scaled to the reference machine's speed by
the calibration blocks between the ops (``calibrate.py``).  With
``--trace 0`` the last stdout line carries the end-to-end metrics (means
over the rounds, scaled); with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics.  Earlier stdout lines
are a human-readable summary.  Exits non-zero, without a result line, when
the checkout has no cwg sources or a round cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REF_BLOCK_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Every run must end within 180 s; a round that would push past this is an error.
RUN_LIMIT_S = 170
# Rounds of one op sequence vary by 10 to 30% on a shared 2-core machine, so
# a run measures at least three.
MIN_ROUNDS = 3
# Launches per round that only set up, for more set-up samples than rounds.
EXTRA_SETUPS = 2


def launch(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run worker.py with args; return its report and its set-up time."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "worker.py")] + args,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - spawned),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["setup_end"] - spawned


def run_round(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    """One round, then (untraced) EXTRA_SETUPS launches that only set up."""
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    report, setup_s = launch(args, deadline)
    report["setup_s"] = [setup_s]
    for _ in range(0 if traced else EXTRA_SETUPS):
        report["setup_s"].append(launch(args + ["--setup-only"], deadline)[1])
    return report


def speed(rounds: list[dict]) -> float:
    """The machine's speed over these rounds relative to the reference
    machine: the reference block time over the mean block time.  The blocks
    come at even intervals while the ops run, so their mean weighs each
    moment of the run as the ops' total time does."""
    return REF_BLOCK_S / statistics.mean(b for r in rounds for b in r["blocks"])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cwg" / "__init__.py").is_file():
        print("error: no cwg sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy
    from tracing import PER_LAYER
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print("error: unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    try:
        while True:
            take_traced = bool(args.trace) and len(traced) < len(plain)
            (traced if take_traced else plain).append(
                run_round(args.workload, args.seed, take_traced, deadline)
            )
            done = time.monotonic() - start >= args.seconds
            if done and (traced if args.trace else len(plain) >= MIN_ROUNDS):
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1

    rounds = plain + traced
    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    walls = [r["wall_s"] for r in plain]
    q1, median_wall, q3 = quartiles(walls)
    scale = speed(plain)
    wall_s = statistics.mean(walls) * scale

    print("env: python %s, numpy %s, nproc %d" % (platform.python_version(), numpy.__version__, os.cpu_count() or 0))
    print("workload %s seed %d: %d untraced and %d traced rounds in %.1f s"
          % (args.workload, args.seed, len(plain), len(traced), time.monotonic() - start))
    print("unscaled wall time per round: median %.4f s (q1 %.4f, q3 %.4f, n=%d); fail_frac %d/%d"
          % (median_wall, q1, q3, len(walls), failed, attempted))
    print("machine speed %.3f of the reference (%d calibration blocks); wall_s %.4f at the reference speed"
          % (scale, sum(len(r["blocks"]) for r in plain), wall_s))
    setups = [s for r in plain for s in r["setup_s"]]
    print("unscaled set-up time: median %.4f s over %d launches" % (statistics.median(setups), len(setups)))
    for label in plain[0]["ops"]:
        print("  op %-34s median %.4f s unscaled" % (label, statistics.median(r["ops"][label] for r in plain)))
    for r in rounds:
        for label, reason in r["failures"].items():
            print("  FAILED %s: %s" % (label, reason))

    out_dir = BENCH_DIR / "_out"
    out_dir.mkdir(exist_ok=True)
    stem = "%s-seed%d" % (args.workload, args.seed)
    (out_dir / (stem + "-rounds.json")).write_text(json.dumps({"plain": plain, "traced": traced}) + "\n")
    if args.trace:
        layers = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in PER_LAYER if name in traced[0]["layers"]
        }
        layers["process.cpu_s"] = statistics.median(r["cpu_s"] for r in plain)
        layers["calibration.block_s"] = statistics.median(b for r in plain for b in r["blocks"])
        # Traced over untraced wall time, unscaled: traced rounds run no
        # calibration blocks, whose handler would land inside the spans.
        layers["trace.overhead_ratio"] = statistics.mean(r["wall_s"] for r in traced) / statistics.mean(walls)
        metrics = {name: {"value": layers[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        (out_dir / (stem + "-layers.json")).write_text(json.dumps(metrics, indent=1, sort_keys=True) + "\n")
        print("per-layer summary and spans: %s/%s-{layers.json,spans.tsv.gz}" % (out_dir.relative_to(ROOT), stem))
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MiB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
