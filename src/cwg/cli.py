"""Command-line front end.

Subcommands: gen, check, hom, analyze, complete, verify, ex, threshold,
density.  Every subcommand has a machine-readable JSON mode (--json); JSON
envelopes carry schema_version 1 and validate against report_schema.json
shipped with the package.

Exit codes: 0 success / verified, 2 counterexample or violation found,
1 usage or I/O error, 3 unknown because the search budget ran out.

Internals: every _cmd_* function returns (payload, text, exit code) and
prints nothing itself.  main prints once: the payload in its JSON envelope
under --json, otherwise the text line unless it is None.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import __version__
from .core import (
    ColoredGraph,
    parse_cwg_family,
    read_cwg,
    to_cwg,
    write_cwg,
)
from .constructions import (
    PartitionedConstruction,
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_family,
    gen_gab,
    gen_hk,
    gen_j,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)
from .embedding import is_free
from .homomorphism import (
    DEFAULT_NODE_BUDGET,
    HomCertificate,
    SearchBudgetExceeded,
    search_hom_general,
    search_hom_rk,
    search_hom_rk_minus,
)
from .analysis import (
    FailureDiagnosis,
    build_structure_report,
    decompose,
    extremal_completion,
)
from .search import (
    compute_ex,
    density_report,
    empirical_threshold,
    verify_theorem_even,
    verify_theorem_odd,
)

SCHEMA_VERSION = 1


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_family(selector: str) -> tuple[str, list[ColoredGraph]]:
    if selector.startswith("F:"):
        try:
            t = int(selector[2:])
        except ValueError:
            raise UsageError("family selector %r: expected F:<t>" % selector)
        return selector, gen_family(t)
    if selector.startswith("file:"):
        path = selector[5:]
        with open(path, "r", encoding="ascii") as fh:
            family = parse_cwg_family(fh.read())
        if not family:
            raise UsageError("family file %r contains no graphs" % path)
        return selector, family
    raise UsageError("family selector %r: expected F:<t> or file:<path>" % selector)


def _graph_json(g: ColoredGraph) -> dict:
    return {"n": g.n, "weights": g.upper_string()}


def _cwg_text(g: ColoredGraph) -> str:
    # The .cwg form without its final newline, which main's print adds back.
    return to_cwg(g).removesuffix("\n")


def _certificate_json(cert: Optional[HomCertificate]) -> Optional[dict]:
    if cert is None:
        return None
    out = {"kind": cert.kind, "classes": cert.class_lists()}
    if cert.designated is not None:
        out["designated"] = list(cert.designated)
    if cert.target is not None:
        out["target"] = _graph_json(cert.target)
    return out


# -- subcommand implementations ----------------------------------------------


def _blow_up_flags(pattern: str, sizes: str) -> PartitionedConstruction:
    graph = read_cwg(pattern)
    try:
        counts = [int(s) for s in sizes.split(",")]
    except ValueError:
        raise UsageError("--sizes %r: expected comma-separated integers" % sizes)
    return blow_up(graph, counts)


def _constructions() -> dict:
    """gen's constructions: name -> (generator, its flags in argument order).

    Built on each call, not at import, because the benchmark tracer rebinds
    this module's generator names after import to wrap them."""
    return {
        "rk": (gen_rk, ("n",)),
        "bk": (gen_bk, ("n",)),
        "rk-minus": (gen_rk_minus, ("n",)),
        "gab": (gen_gab, ("t", "i")),
        "hk": (gen_hk, ("q", "b", "k")),
        "j": (gen_j, ("r",)),
        "odd-extremal": (gen_odd_extremal, ("r", "scale")),
        "even-extremal": (gen_even_extremal, ("r", "scale")),
        "ehss-blowup": (gen_ehss_blowup, ("r",)),
        "blowup": (_blow_up_flags, ("pattern", "sizes")),
    }


def _cmd_gen(args):
    name = args.construction
    generator, flags = _constructions()[name]
    for flag in flags:
        if getattr(args, flag) is None:
            raise UsageError("construction %r requires --%s" % (name, flag))
    result = generator(*(getattr(args, flag) for flag in flags))

    graph = result.graph if isinstance(result, PartitionedConstruction) else result
    parts = result.parts_json() if isinstance(result, PartitionedConstruction) else None
    if args.parts and parts is None:
        raise UsageError("construction %r has no parts for --parts" % name)
    if args.output:
        write_cwg(args.output, graph)
    if args.parts:
        with open(args.parts, "w", encoding="ascii") as fh:
            json.dump(parts, fh, indent=2, sort_keys=True)
            fh.write("\n")
    payload = {
        "construction": name,
        "n": graph.n,
        "graph": _graph_json(graph),
        "output": args.output,
        "parts": parts,
    }
    text = "wrote %s (n=%d)" % (args.output, graph.n) if args.output else _cwg_text(graph)
    return payload, text, 0


def _cmd_check(args):
    host = read_cwg(args.graph)
    label, family = _load_family(args.family)
    free, witness = is_free(host, family)
    payload = {"family": label, "free": free}
    if witness is not None:
        payload["witness"] = {"member": witness[0], "map": list(witness[1].map)}
    text = "free" if free else "not free: member %r embeds" % (witness[0],)
    return payload, text, 0 if free else 2


def _cmd_hom(args):
    if args.budget < 0:
        raise UsageError("--budget must be at least 0, got %d" % args.budget)
    g = read_cwg(args.graph)
    target = args.target
    kind, sep, value = target.partition(":")
    if sep and kind == "file":
        search, goal = search_hom_general, read_cwg(value)
    else:
        try:
            search, goal = {"rk": search_hom_rk, "rkminus": search_hom_rk_minus}[kind], int(value)
        except (KeyError, ValueError):
            raise UsageError("target %r: expected rk:<r>, rkminus:<r> or file:<path>" % target)
    try:
        result = search(g, goal, budget=args.budget)
    except SearchBudgetExceeded as exc:
        payload = {
            "target": target,
            "exists": None,
            "reason": "budget",
            "nodes_explored": exc.nodes,
            "certificate": None,
        }
        return payload, "unknown: %s" % exc, 3
    payload = {
        "target": target,
        "exists": result.exists,
        "nodes_explored": result.nodes,
        "certificate": _certificate_json(result.certificate),
    }
    return payload, "exists" if result.exists else "none", 0


def _cmd_analyze(args):
    g = read_cwg(args.graph)
    report = build_structure_report(g, args.r)
    outcome = decompose(g, args.r)
    if isinstance(outcome, FailureDiagnosis):
        decomposition = {"ok": False, **vars(outcome)}
    else:
        decomposition = {"ok": True, "certificate": _certificate_json(outcome)}
    payload = {
        **vars(report),
        "r": args.r,
        "j_embedding": report.j_embedding.map if report.j_embedding else None,
        "decomposition": decomposition,
    }
    text = "m=%d s=%d wicked=%d insecure=%d decompose=%s" % (
        report.m,
        report.s,
        len(report.wicked_triangles),
        len(report.insecure_blue_edges) + len(report.insecure_green_edges),
        "ok" if decomposition["ok"] else outcome.step,
    )
    return payload, text, 0


def _cmd_complete(args):
    g = read_cwg(args.graph)
    label, family = _load_family(args.family)
    completed = extremal_completion(g, family, policy=args.policy, seed=args.seed)
    if args.output:
        write_cwg(args.output, completed)
    payload = {
        "family": label,
        "graph": _graph_json(completed),
        "policy": args.policy,
        "seed": args.seed,
        "changed_pairs": sum(
            1 for d1, d2 in zip(g.digits(), completed.digits()) if d1 != d2
        ),
        "output": args.output,
    }
    text = "wrote %s" % args.output if args.output else _cwg_text(completed)
    return payload, text, 0


def _cmd_verify(args):
    if args.threads != 1:
        raise UsageError("verify scans in one process; --threads accepts only 1")
    fn = verify_theorem_odd if args.theorem == "odd" else verify_theorem_even
    report = fn(args.r, args.n, mode=args.mode)
    text = "%s (%d enumerated, %d passed hypothesis)" % (
        report.outcome,
        report.statistics.get("enumerated", 0),
        report.statistics.get("hypothesis_passed", 0),
    )
    return report.to_json_dict(), text, 0 if report.outcome == "verified" else 2


def _cmd_ex(args):
    label, family = _load_family(args.family)
    report = compute_ex(args.n, family, weight_cap=args.cap)
    payload = report.to_json_dict()
    payload["parameters"]["family"] = label
    return payload, "ex = %s" % (report.value,), 0


def _cmd_threshold(args):
    report = empirical_threshold(args.n, args.r, args.kind)
    return report.to_json_dict(), "max qualifying min degree = %s" % (report.value,), 0


def _cmd_density(args):
    label, family = _load_family(args.family)
    graphs = [read_cwg(path) for path in args.graphs]
    rows = density_report(family, graphs)
    for row, path in zip(rows, args.graphs):
        row["source"] = path
    text = "\n".join(
        "%s: n=%d density=%s reference=%s"
        % (row["source"], row["n"], row["density"], row["reference"])
        for row in rows
    )
    return {"family": label, "rows": rows}, text, 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cwg", description=__doc__.split("\n\nInternals:")[0])
    parser.add_argument("--version", action="version", version="cwg %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named construction")
    p.add_argument("--construction", required=True, choices=list(_constructions()))
    p.add_argument("--n", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--scale", type=int, default=1)
    p.add_argument("--t", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--pattern")
    p.add_argument("--sizes")
    p.add_argument("-o", "--output")
    p.add_argument("--parts", help="write the part map as JSON to this path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="test family-freeness of a graph")
    p.add_argument("--family", required=True, help="F:<t> or file:<path>")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hom", help="search a homomorphism into a target")
    p.add_argument("--target", required=True, help="rk:<r>, rkminus:<r> or file:<path>")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("analyze", help="structure report and decomposition")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("graph")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("complete", help="extremal completion of a family-free graph")
    p.add_argument("--family", required=True)
    p.add_argument("--policy", choices=["lex", "random"], default="lex")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("verify", help="exhaustive theorem verification")
    p.add_argument("--theorem", choices=["odd", "even"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["raw", "iso"], default="raw")
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ex", help="exact extremal edge-weight maximum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--cap", type=int, choices=[1, 2], default=2)
    p.set_defaults(func=_cmd_ex)

    p = sub.add_parser("threshold", help="empirical degree threshold probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=["odd", "even"], required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("density", help="scaled densities against reference limits")
    p.add_argument("--family", required=True)
    p.add_argument("graphs", nargs="*")
    p.set_defaults(func=_cmd_density)

    # Last, so it closes each subcommand's --help as it always has.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload, text, code = args.func(args)
        if args.json:
            envelope = {"schema_version": SCHEMA_VERSION, "command": args.command, **payload}
            print(json.dumps(envelope, indent=2, sort_keys=True))
        elif text is not None:
            print(text)
        return code
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
