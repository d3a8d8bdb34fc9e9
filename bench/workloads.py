"""The benchmark's workloads: inputs, operations and the correctness table.

Every operation goes through a public entry point: ``cwg.cli.main(argv)``
in-process with ``--json``, or ``cwg.enumerate_graphs`` where no subcommand
exists.  ``run`` executes the timed call and returns its raw outcome;
``check`` runs afterwards, outside the timed region, and returns None when the
outcome matches the table or a one-line reason when it does not.

The workload seed reaches the program only as the ``--seed`` of the
``complete`` operations.  The ``hom`` and ``analyze`` hosts stay in generator
layout: a random relabelling lets the rk-minus search finish in a few dozen
nodes instead of hundreds of thousands, which would hide the work the search
is measured on.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import cwg
from cwg import cli, constructions
from cwg.core import ColoredGraph, edge_weight_sum, pair_list, read_cwg, write_cwg
from cwg.homomorphism import HomCertificate, verify_certificate
from cwg.search import FamilyChecker

RAW_CODES_N6 = 3 ** 15


# ROADMAP item-1 baseline rows: seconds of one run on the 2-core reference
# machine (Python 3.11.7, numpy 2.4.6) at the commit the benchmark was added.
BASELINE_S = {
    "verify odd r=2 n=6": 2.2,
    "verify even r=3 n=6": 1.7,
    "threshold even r=3 n=6": 3.3,
    "ex n=6 F:5": 8.1,
    "iso enumeration n=5": 1.3,
    "check F:9 on odd-extremal(4,3)": 20.0,
    "hom rkminus:4 on even-extremal(4,2)": 287.0,
    "decompose (analyze --r 4) on even-extremal(4,2)": 80.0,
}


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # The BASELINE_S row this op reproduces, or stands in for when that row
    # takes minutes (then on a smaller host of the same construction).
    baseline: Optional[str] = None
    stand_in: bool = False


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


_MISSING = "missing"


def _field(doc: dict, path: str):
    value = doc
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return _MISSING
        value = value[key]
    return value


def cli_op(
    label: str,
    argv: list[str],
    expect: dict,
    baseline: Optional[str] = None,
    stand_in: bool = False,
    recheck: Optional[Callable[[dict], Optional[str]]] = None,
) -> Op:
    """A CLI operation that must exit 0, print exactly one JSON document and
    carry the expected value at every dotted path of ``expect``."""

    def check(result: CliResult) -> Optional[str]:
        if result.code != 0:
            return "exit code %d: %s" % (result.code, result.stderr.strip()[:200])
        try:
            doc = json.loads(result.stdout)
        except json.JSONDecodeError as exc:
            return "stdout is not exactly one JSON document: %s" % exc
        if not isinstance(doc, dict):
            return "stdout JSON is not an object"
        for path, want in expect.items():
            got = _field(doc, path)
            if got != want:
                return "%s = %r, expected %r" % (path, got, want)
        return recheck(doc) if recheck is not None else None

    return Op(label, lambda: run_cli(argv + ["--json"]), check, baseline, stand_in)


# -- independent re-checks ------------------------------------------------------


def _family(t: int) -> FamilyChecker:
    return FamilyChecker(constructions.gen_family(t))


def _graph_of(blob: dict) -> ColoredGraph:
    weights = blob["weights"]
    return ColoredGraph.from_digits(blob["n"], [int(c) for c in weights])


def _ex_witness(t: int, n: int):
    def recheck(doc: dict) -> Optional[str]:
        witness = _graph_of(doc["witness"])
        if witness.n != n:
            return "witness has order %d, expected %d" % (witness.n, n)
        if edge_weight_sum(witness) != doc["value"]:
            return "witness weight sum %d differs from value %d" % (edge_weight_sum(witness), doc["value"])
        if not _family(t).is_free_graph(witness):
            return "witness is not F:%d-free" % t
        return None

    return recheck


def _certificate_ok(graph_path: Path):
    def recheck(doc: dict) -> Optional[str]:
        blob = doc["decomposition"]["certificate"]
        cert = HomCertificate(
            kind=blob["kind"],
            classes=tuple(frozenset(c) for c in blob["classes"]),
            designated=tuple(blob["designated"]) if "designated" in blob else None,
        )
        try:
            ok = verify_certificate(read_cwg(graph_path), cert)
        except ValueError as exc:
            return "certificate is malformed: %s" % exc
        return None if ok else "certificate fails verify_certificate"

    return recheck


def _completion_ok(t: int, source: Path, output: Path):
    """The output dominates the input, is F:t-free, and every single +1
    raise creates a member (pointwise maximality)."""

    def recheck(doc: dict) -> Optional[str]:
        before, after = read_cwg(source), read_cwg(output)
        if after.n != before.n:
            return "completion changed the order"
        if any(b > a for b, a in zip(before.digits(), after.digits())):
            return "completion lowered a weight"
        checker = _family(t)
        if not checker.is_free_graph(after):
            return "completion is not F:%d-free" % t
        for x, y in pair_list(after.n):
            w = after.weight(x, y)
            if w < 2 and checker.is_free_graph(after.with_weight(x, y, w + 1)):
                return "raising pair (%d, %d) keeps the completion free" % (x, y)
        changed = sum(1 for b, a in zip(before.digits(), after.digits()) if b != a)
        if doc["changed_pairs"] != changed:
            return "changed_pairs = %r, files differ in %d pairs" % (doc["changed_pairs"], changed)
        return None

    return recheck


# -- workloads --------------------------------------------------------------------


def _raw_scan_ops() -> list[Op]:
    verified_n6 = {"outcome": "verified", "statistics.enumerated": RAW_CODES_N6}
    return [
        cli_op(
            "verify-odd-r2-n6",
            ["verify", "--theorem", "odd", "--r", "2", "--n", "6", "--threads", "1"],
            dict(verified_n6, **{"statistics.hypothesis_passed": 340}),
            baseline="verify odd r=2 n=6",
        ),
        cli_op(
            "verify-even-r3-n6",
            ["verify", "--theorem", "even", "--r", "3", "--n", "6", "--threads", "1"],
            dict(verified_n6, **{"statistics.hypothesis_passed": 0}),
            baseline="verify even r=3 n=6",
        ),
        cli_op(
            "threshold-even-r3-n6",
            ["threshold", "--kind", "even", "--r", "3", "--n", "6"],
            {"outcome": "value", "value": 6, "statistics.enumerated": RAW_CODES_N6},
            baseline="threshold even r=3 n=6",
        ),
    ]


def _enumerate_iso_n5() -> tuple[int, int]:
    visited = 0

    def visit(g) -> None:
        nonlocal visited
        visited += 1

    stats = cwg.enumerate_graphs(5, "isomorph_free", visit)
    return stats.count, visited


def _iso_enum_ops() -> list[Op]:
    verified_n5 = {
        "outcome": "verified",
        "statistics.enumerated": 792,
        "statistics.hypothesis_passed": 0,
    }
    return [
        cli_op(
            "verify-odd-r2-n5-iso",
            ["verify", "--theorem", "odd", "--r", "2", "--n", "5", "--mode", "iso"],
            verified_n5,
        ),
        cli_op(
            "verify-even-r3-n5-iso",
            ["verify", "--theorem", "even", "--r", "3", "--n", "5", "--mode", "iso"],
            verified_n5,
        ),
        Op(
            "enumerate-iso-n5",
            _enumerate_iso_n5,
            lambda got: None if got == (792, 792) else "(count, visited) = %r, expected (792, 792)" % (got,),
            baseline="iso enumeration n=5",
        ),
    ]


def exhaustive(workdir: Path, seed: int) -> list[Op]:
    """Both exhaustive modes: the raw labelled scan at n = 6, then canonical
    augmentation at n = 5.  They were separate workloads, but on a shared
    2-core machine a run of the canonical-augmentation ops alone (about 3.5 s
    per round) spread by up to 0.24 of its median over ten seeds; behind the
    steadier numpy scan its noise is diluted."""
    return _raw_scan_ops() + _iso_enum_ops()


def ex_bnb(workdir: Path, seed: int) -> list[Op]:
    return [
        cli_op(
            "ex-n6-F5",
            ["ex", "--n", "6", "--family", "F:5"],
            {"outcome": "value", "value": 18},
            baseline="ex n=6 F:5",
            recheck=_ex_witness(5, 6),
        ),
        cli_op(
            "ex-n6-F4",
            ["ex", "--n", "6", "--family", "F:4"],
            {"outcome": "value", "value": 9},
            recheck=_ex_witness(4, 6),
        ),
        cli_op(
            "ex-n6-F5-cap1",
            ["ex", "--n", "6", "--family", "F:5", "--cap", "1"],
            {"outcome": "value", "value": 12},
            recheck=_ex_witness(5, 6),
        ),
    ]


def host_queries(workdir: Path, seed: int) -> list[Op]:
    """Writes the hosts in generator layout, then one op per query."""
    hosts = {
        "odd-extremal-4-2": constructions.gen_odd_extremal(4, 2).graph,
        "even-extremal-4-1": constructions.gen_even_extremal(4, 1).graph,
        "odd-extremal-4-3": constructions.gen_odd_extremal(4, 3).graph,
        "even-extremal-3-2": constructions.gen_even_extremal(3, 2).graph,
        "even-extremal-5-1": constructions.gen_even_extremal(5, 1).graph,
        "ehss-blowup-4": constructions.gen_ehss_blowup(4).graph,
        "green-16": ColoredGraph.uniform(16, 0),
        "green-12": ColoredGraph.uniform(12, 0),
    }
    path = {}
    for name, graph in hosts.items():
        path[name] = workdir / (name + ".cwg")
        write_cwg(path[name], graph)
    out16, out12 = workdir / "complete-F6-green-16.cwg", workdir / "complete-F8-green-12.cwg"
    return [
        cli_op(
            "check-F9-odd-extremal-4-2",
            ["check", "--family", "F:9", str(path["odd-extremal-4-2"])],
            {"free": True},
            baseline="check F:9 on odd-extremal(4,3)",
            stand_in=True,
        ),
        cli_op(
            "check-F8-even-extremal-4-1",
            ["check", "--family", "F:8", str(path["even-extremal-4-1"])],
            {"free": True},
        ),
        cli_op(
            "hom-rk4-odd-extremal-4-3",
            ["hom", "--target", "rk:4", str(path["odd-extremal-4-3"])],
            {"exists": False},
        ),
        cli_op(
            "hom-rkminus3-even-extremal-3-2",
            ["hom", "--target", "rkminus:3", str(path["even-extremal-3-2"])],
            {"exists": False},
            baseline="hom rkminus:4 on even-extremal(4,2)",
            stand_in=True,
        ),
        cli_op(
            "hom-rkminus5-even-extremal-5-1",
            ["hom", "--target", "rkminus:5", str(path["even-extremal-5-1"])],
            {"exists": False},
            baseline="hom rkminus:4 on even-extremal(4,2)",
            stand_in=True,
        ),
        cli_op(
            "analyze-r3-even-extremal-3-2",
            ["analyze", "--r", "3", str(path["even-extremal-3-2"])],
            {"decomposition.ok": False, "decomposition.step": "wicked_triangle"},
            baseline="decompose (analyze --r 4) on even-extremal(4,2)",
            stand_in=True,
        ),
        cli_op(
            "analyze-r4-ehss-blowup-4",
            ["analyze", "--r", "4", str(path["ehss-blowup-4"])],
            {"decomposition.ok": True, "decomposition.certificate.kind": "rk_minus"},
            recheck=_certificate_ok(path["ehss-blowup-4"]),
        ),
        cli_op(
            "complete-F6-green-16",
            ["complete", "--family", "F:6", "--policy", "random", "--seed", str(seed),
             str(path["green-16"]), "-o", str(out16)],
            {"family": "F:6", "seed": seed},
            recheck=_completion_ok(6, path["green-16"], out16),
        ),
        cli_op(
            "complete-F8-green-12",
            ["complete", "--family", "F:8", "--policy", "random", "--seed", str(seed),
             str(path["green-12"]), "-o", str(out12)],
            {"family": "F:8", "seed": seed},
            recheck=_completion_ok(8, path["green-12"], out12),
        ),
    ]


WORKLOADS: dict[str, Callable[[Path, int], list[Op]]] = {
    "exhaustive": exhaustive,
    "ex_bnb": ex_bnb,
    "host_queries": host_queries,
}
