"""The benchmark's contract with the package, as a test.

``bench/tracing.py`` wraps functions and methods by name and reads some of
their parameters (``search._scan_raw``'s ``lo``, ``hi`` and ``chunk``), and
``bench/workloads.py`` drives the CLI and checks every result.  Running every
op of every workload under the tracer fails here when a name the benchmark
relies on goes away, instead of in the benchmark run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a fresh process so that the tracer's wrappers never reach the
# other tests' imports; writes nothing under bench/ (no bytecode, no spans).
SCRIPT = """
import json, sys
from pathlib import Path
root, work = Path(sys.argv[1]), Path(sys.argv[2])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import tracing
from workloads import WORKLOADS

failures = {}
for name, build in WORKLOADS.items():
    tracer = tracing.Tracer()
    tracer.install()
    outcomes = []
    try:
        workdir = work / name
        workdir.mkdir()
        ops = build(workdir, 1)
        for op in ops:
            try:
                outcomes.append((True, op.run()))
            except Exception as exc:
                outcomes.append((False, "raised %r" % exc))
    finally:
        tracer.uninstall()
    for op, (ran, outcome) in zip(ops, outcomes):
        reason = op.check(outcome) if ran else outcome
        if reason is not None:
            failures["%s/%s" % (name, op.label)] = reason
print(json.dumps(failures))
"""


def test_every_bench_op_passes_under_the_tracer(tmp_path):
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT), str(tmp_path)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == {}
