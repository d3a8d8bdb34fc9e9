"""One round of one workload in a fresh process.

Set-up (import cwg, write the workload's inputs), then every op of the
workload one after the other, with calibration blocks (``calibrate.py``)
interleaved when untraced, then the correctness checks outside the timed
region.  Prints one JSON object on stdout.  ``run.py`` starts this script
once per round; run it by hand to inspect a single round:

    python3 bench/worker.py --workload ex_bnb --seed 1 --trace 0

With ``--setup-only`` it stops after the set-up and prints only when the
set-up ended; ``run.py`` adds such launches to have more set-up samples.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    # cwg makes no BLAS calls, but numpy's OpenBLAS starts a thread per core
    # at import; on a shared 2-core machine that start-up moved set-up time by
    # about 25% from one period to the next.  The benchmark runs cwg on one
    # thread, so the pool gets one too.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import cwg

    if Path(cwg.__file__).resolve().parent != ROOT / "src" / "cwg":
        raise SystemExit("cwg imported from %s, not from this checkout" % cwg.__file__)
    from calibrate import Sampler
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    work_root = BENCH_DIR / "_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work_root))
    try:
        ops = WORKLOADS[args.workload](workdir, args.seed)

        setup_end = time.monotonic()
        if args.setup_only:
            print(json.dumps({"setup_end": setup_end}))
            return 0
        # Untraced rounds interleave calibration blocks with the ops; the
        # blocks' time is taken out of the ops' times.
        sampler = Sampler()
        results, seconds, cpu_s = [], [], 0.0
        if tracer is None:
            sampler.start()
        try:
            for index, op in enumerate(ops):
                if tracer is not None:
                    tracer.op = index
                spent0, spent_cpu0 = sampler.spent, sampler.spent_cpu
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                try:
                    results.append((True, op.run()))
                except Exception:
                    results.append((False, traceback.format_exc(limit=3)))
                seconds.append(time.perf_counter() - t0 - (sampler.spent - spent0))
                cpu_s += time.process_time() - cpu0 - (sampler.spent_cpu - spent_cpu0)
        finally:
            if tracer is None:
                sampler.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        if tracer is not None:
            tracer.uninstall()
        failures = {}
        for op, (ran, outcome) in zip(ops, results):
            reason = op.check(outcome) if ran else "raised: " + outcome.strip().splitlines()[-1]
            if reason is not None:
                failures[op.label] = reason

        report = {
            "setup_end": setup_end,
            "wall_s": sum(seconds),
            "blocks": sampler.times,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "ops": {op.label: s for op, s in zip(ops, seconds)},
            "failures": failures,
        }
        if tracer is not None:
            labels = [op.label for op in ops]
            out_dir = BENCH_DIR / "_out"
            out_dir.mkdir(exist_ok=True)
            stem = "%s-seed%d" % (args.workload, args.seed)
            tracer.write_spans(out_dir / (stem + "-spans.tsv.gz"), labels)
            report["layers"] = layer_metrics(tracer, sum(seconds))
            report["spans"] = len(tracer.col_start)
        print(json.dumps(report))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
