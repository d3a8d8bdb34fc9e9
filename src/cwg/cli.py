"""Command-line front end.

Subcommands: gen, check, hom, analyze, complete, verify, ex, threshold,
density.  Every subcommand has a machine-readable JSON mode (--json); JSON
envelopes carry schema_version 1 and validate against report_schema.json
shipped with the package.

Exit codes: 0 success / verified, 2 counterexample or violation found,
1 usage or I/O error, 3 unknown because the search budget ran out.
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


def _emit(payload: dict, command: str, as_json: bool, text: Optional[str] = None) -> None:
    if as_json:
        envelope = {"schema_version": SCHEMA_VERSION, "command": command}
        envelope.update(payload)
        print(json.dumps(envelope, indent=2, sort_keys=True))
    elif text is not None:
        print(text)


def _graph_json(g: ColoredGraph) -> dict:
    return {"n": g.n, "weights": g.upper_string()}


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


def _cmd_gen(args) -> int:
    name = args.construction

    def need(attr, flag):
        value = getattr(args, attr)
        if value is None:
            raise UsageError("construction %r requires %s" % (name, flag))
        return value

    result: PartitionedConstruction | ColoredGraph
    if name == "rk":
        result = gen_rk(need("n", "--n"))
    elif name == "bk":
        result = gen_bk(need("n", "--n"))
    elif name == "rk-minus":
        result = gen_rk_minus(need("n", "--n"))
    elif name == "gab":
        result = gen_gab(need("t", "--t"), need("i", "--i"))
    elif name == "hk":
        result = gen_hk(need("q", "--q"), need("b", "--b"), need("k", "--k"))
    elif name == "j":
        result = gen_j(need("r", "--r"))
    elif name == "odd-extremal":
        result = gen_odd_extremal(need("r", "--r"), args.scale)
    elif name == "even-extremal":
        result = gen_even_extremal(need("r", "--r"), args.scale)
    elif name == "ehss-blowup":
        result = gen_ehss_blowup(need("r", "--r"))
    elif name == "blowup":
        pattern = read_cwg(need("pattern", "--pattern"))
        sizes = [int(s) for s in need("sizes", "--sizes").split(",")]
        result = blow_up(pattern, sizes)
    else:
        raise UsageError("unknown construction %r" % name)

    graph = result.graph if isinstance(result, PartitionedConstruction) else result
    parts = result.parts_json() if isinstance(result, PartitionedConstruction) else None
    if args.parts and parts is None:
        raise UsageError("construction %r has no parts for --parts" % name)
    if args.output:
        write_cwg(args.output, graph)
    elif not args.json:
        sys.stdout.write(to_cwg(graph))
    if args.parts:
        with open(args.parts, "w", encoding="ascii") as fh:
            json.dump(parts, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(
        {
            "construction": name,
            "n": graph.n,
            "graph": _graph_json(graph),
            "output": args.output,
            "parts": parts,
        },
        "gen",
        args.json,
        text="wrote %s (n=%d)" % (args.output, graph.n) if args.output else None,
    )
    return 0


def _cmd_check(args) -> int:
    host = read_cwg(args.graph)
    label, family = _load_family(args.family)
    free, witness = is_free(host, family)
    payload = {"family": label, "free": free}
    if witness is not None:
        payload["witness"] = {"member": witness[0], "map": list(witness[1].map)}
    _emit(payload, "check", args.json, text="free" if free else "not free: member %r embeds" % (witness[0],))
    return 0 if free else 2


def _cmd_hom(args) -> int:
    if args.budget < 0:
        raise UsageError("--budget must be at least 0, got %d" % args.budget)
    g = read_cwg(args.graph)
    target = args.target
    if target.startswith("rk:"):
        search, goal = search_hom_rk, int(target[3:])
    elif target.startswith("rkminus:"):
        search, goal = search_hom_rk_minus, int(target[8:])
    elif target.startswith("file:"):
        search, goal = search_hom_general, read_cwg(target[5:])
    else:
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
        _emit(payload, "hom", args.json, text="unknown: %s" % exc)
        return 3
    payload = {
        "target": target,
        "exists": result.exists,
        "nodes_explored": result.nodes,
        "certificate": _certificate_json(result.certificate),
    }
    _emit(payload, "hom", args.json, text="exists" if result.exists else "none")
    return 0


def _cmd_analyze(args) -> int:
    g = read_cwg(args.graph)
    report = build_structure_report(g, args.r)
    outcome = decompose(g, args.r)
    if isinstance(outcome, FailureDiagnosis):
        decomposition = {
            "ok": False,
            "step": outcome.step,
            "message": outcome.message,
            "witness": _jsonable(outcome.witness),
            "hypothesis_free": outcome.hypothesis_free,
            "hypothesis_degree": outcome.hypothesis_degree,
        }
    else:
        decomposition = {"ok": True, "certificate": _certificate_json(outcome)}
    payload = {
        "r": args.r,
        "wicked_triangles": [list(t) for t in report.wicked_triangles],
        "blue_wicked": [list(t) for t in report.blue_wicked],
        "insecure_blue_edges": [list(e) for e in report.insecure_blue_edges],
        "insecure_green_edges": [list(e) for e in report.insecure_green_edges],
        "j_embedding": list(report.j_embedding.map) if report.j_embedding else None,
        "equivalence_ok": report.equivalence_ok,
        "classes": report.classes,
        "s": report.s,
        "m": report.m,
        "decomposition": decomposition,
    }
    _emit(
        payload,
        "analyze",
        args.json,
        text="m=%d s=%d wicked=%d insecure=%d decompose=%s"
        % (
            report.m,
            report.s,
            len(report.wicked_triangles),
            len(report.insecure_blue_edges) + len(report.insecure_green_edges),
            "ok" if decomposition["ok"] else decomposition["step"],
        ),
    )
    return 0


def _jsonable(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _cmd_complete(args) -> int:
    g = read_cwg(args.graph)
    label, family = _load_family(args.family)
    completed = extremal_completion(g, family, policy=args.policy, seed=args.seed)
    if args.output:
        write_cwg(args.output, completed)
    elif not args.json:
        sys.stdout.write(to_cwg(completed))
    _emit(
        {
            "family": label,
            "graph": _graph_json(completed),
            "policy": args.policy,
            "seed": args.seed,
            "changed_pairs": sum(
                1 for d1, d2 in zip(g.digits(), completed.digits()) if d1 != d2
            ),
            "output": args.output,
        },
        "complete",
        args.json,
        text="wrote %s" % args.output if args.output else None,
    )
    return 0


def _cmd_verify(args) -> int:
    if args.threads != 1:
        raise UsageError("verify scans in one process; --threads accepts only 1")
    fn = verify_theorem_odd if args.theorem == "odd" else verify_theorem_even
    report = fn(args.r, args.n, mode=args.mode)
    _emit(
        report.to_json_dict(),
        "verify",
        args.json,
        text="%s (%d enumerated, %d passed hypothesis)"
        % (
            report.outcome,
            report.statistics.get("enumerated", 0),
            report.statistics.get("hypothesis_passed", 0),
        ),
    )
    return 0 if report.outcome == "verified" else 2


def _cmd_ex(args) -> int:
    label, family = _load_family(args.family)
    report = compute_ex(args.n, family, weight_cap=args.cap)
    payload = report.to_json_dict()
    payload["parameters"]["family"] = label
    _emit(payload, "ex", args.json, text="ex = %s" % (report.value,))
    return 0


def _cmd_threshold(args) -> int:
    report = empirical_threshold(args.n, args.r, args.kind)
    _emit(report.to_json_dict(), "threshold", args.json, text="max qualifying min degree = %s" % (report.value,))
    return 0


def _cmd_density(args) -> int:
    label, family = _load_family(args.family)
    graphs = [read_cwg(path) for path in args.graphs]
    rows = density_report(family, graphs)
    for row, path in zip(rows, args.graphs):
        row["source"] = path
    _emit(
        {"family": label, "rows": rows},
        "density",
        args.json,
        text="\n".join(
            "%s: n=%d density=%s reference=%s"
            % (row["source"], row["n"], row["density"], row["reference"])
            for row in rows
        ),
    )
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="cwg", description=__doc__)
    parser.add_argument("--version", action="version", version="cwg %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named construction")
    p.add_argument("--construction", required=True,
                   choices=["rk", "bk", "rk-minus", "gab", "hk", "j",
                            "odd-extremal", "even-extremal", "ehss-blowup", "blowup"])
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
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="test family-freeness of a graph")
    p.add_argument("--family", required=True, help="F:<t> or file:<path>")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("hom", help="search a homomorphism into a target")
    p.add_argument("--target", required=True, help="rk:<r>, rkminus:<r> or file:<path>")
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("analyze", help="structure report and decomposition")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("complete", help="extremal completion of a family-free graph")
    p.add_argument("--family", required=True)
    p.add_argument("--policy", choices=["lex", "random"], default="lex")
    p.add_argument("--seed", type=int)
    p.add_argument("-o", "--output")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("verify", help="exhaustive theorem verification")
    p.add_argument("--theorem", choices=["odd", "even"], required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["raw", "iso"], default="raw")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("ex", help="exact extremal edge-weight maximum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--cap", type=int, choices=[1, 2], default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_ex)

    p = sub.add_parser("threshold", help="empirical degree threshold probe")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--kind", choices=["odd", "even"], required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("density", help="scaled densities against reference limits")
    p.add_argument("--family", required=True)
    p.add_argument("graphs", nargs="*")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_density)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
