import argparse
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import cwg
from cwg import cli
from cwg.cli import build_parser, main
from cwg.core import ColoredGraph, parse_cwg, read_cwg, to_cwg, write_cwg
from cwg.constructions import (
    PartitionedConstruction,
    blow_up,
    gen_bk,
    gen_ehss_blowup,
    gen_even_extremal,
    gen_gab,
    gen_hk,
    gen_j,
    gen_odd_extremal,
    gen_rk,
    gen_rk_minus,
)

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


@pytest.fixture(scope="module")
def schema():
    with resources.files("cwg").joinpath("report_schema.json").open("r") as fh:
        return json.load(fh)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def validate(schema, payload):
    jsonschema.validate(payload, schema)


def subcommands():
    """The parser's subcommands, name -> subparser, in declaration order."""
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def construction_choices():
    return next(a for a in subcommands()["gen"]._actions if a.dest == "construction").choices


# gen's constructions: name, valid flags ("{pattern}" is a pattern file), the
# generator called directly with those parameters, and the first required flag.
CONSTRUCTIONS = [
    ("rk", ["--n", "3"], lambda: gen_rk(3), "--n"),
    ("bk", ["--n", "4"], lambda: gen_bk(4), "--n"),
    ("rk-minus", ["--n", "4"], lambda: gen_rk_minus(4), "--n"),
    ("gab", ["--t", "5", "--i", "2"], lambda: gen_gab(5, 2), "--t"),
    ("hk", ["--q", "6", "--b", "4", "--k", "2"], lambda: gen_hk(6, 4, 2), "--q"),
    ("j", ["--r", "4"], lambda: gen_j(4), "--r"),
    ("odd-extremal", ["--r", "3", "--scale", "2"], lambda: gen_odd_extremal(3, 2), "--r"),
    ("even-extremal", ["--r", "4"], lambda: gen_even_extremal(4, 1), "--r"),
    ("ehss-blowup", ["--r", "3"], lambda: gen_ehss_blowup(3), "--r"),
    ("blowup", ["--pattern", "{pattern}", "--sizes", "2,2,3"],
     lambda: blow_up(gen_rk_minus(3), [2, 2, 3]), "--pattern"),
]
CONSTRUCTION_IDS = [name for name, *_ in CONSTRUCTIONS]


class TestGen:
    def test_even_extremal_round_trips(self, tmp_path, capsys, schema):
        out = tmp_path / "g.cwg"
        parts = tmp_path / "parts.json"
        code, payload = run_json(
            capsys,
            [
                "gen", "--construction", "even-extremal", "--r", "3",
                "--scale", "1", "-o", str(out), "--parts", str(parts), "--json",
            ],
        )
        assert code == 0
        validate(schema, payload)
        g = read_cwg(out)
        assert g == gen_even_extremal(3, 1).graph
        assert json.loads(parts.read_text())["B'"] == [0, 6]

    def test_stdout_when_no_output(self, capsys):
        code = main(["gen", "--construction", "rk", "--n", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert parse_cwg(out) == gen_rk(3)

    def test_json_without_output_is_one_document(self, capsys, schema):
        code, payload = run_json(capsys, ["gen", "--construction", "rk", "--n", "3", "--json"])
        assert code == 0
        assert payload["graph"] == {"n": 3, "weights": "222"}
        assert payload["output"] is None
        validate(schema, payload)

    def test_missing_parameter(self, capsys):
        assert main(["gen", "--construction", "rk"]) == 1
        assert "requires" in capsys.readouterr().err

    def test_construction_choices(self):
        assert construction_choices() == [
            "rk", "bk", "rk-minus", "gab", "hk", "j",
            "odd-extremal", "even-extremal", "ehss-blowup", "blowup",
        ]
        assert construction_choices() == CONSTRUCTION_IDS

    @pytest.mark.parametrize("name, flags, direct, first_flag", CONSTRUCTIONS, ids=CONSTRUCTION_IDS)
    def test_construction_without_parameters(self, capsys, name, flags, direct, first_flag):
        assert main(["gen", "--construction", name]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: construction %r requires %s" % (name, first_flag)]

    @pytest.mark.parametrize("name, flags, direct, first_flag", CONSTRUCTIONS, ids=CONSTRUCTION_IDS)
    def test_construction_matches_generator(self, tmp_path, capsys, schema, name, flags, direct, first_flag):
        pattern = tmp_path / "p.cwg"
        write_cwg(pattern, gen_rk_minus(3))
        argv = ["gen", "--construction", name] + [f.format(pattern=pattern) for f in flags]
        code, payload = run_json(capsys, argv + ["--json"])
        assert code == 0
        validate(schema, payload)
        result = direct()
        if isinstance(result, PartitionedConstruction):
            graph, parts = result.graph, result.parts_json()
        else:
            graph, parts = result, None
        assert payload["construction"] == name
        assert payload["graph"] == {"n": graph.n, "weights": graph.upper_string()}
        assert payload["parts"] == parts

    @pytest.mark.parametrize("sizes", ["2,,3", "2,x,3", ""])
    def test_non_integer_sizes_is_usage_error(self, tmp_path, capsys, sizes):
        pattern = tmp_path / "p.cwg"
        write_cwg(pattern, gen_rk_minus(3))
        argv = ["gen", "--construction", "blowup", "--pattern", str(pattern), "--sizes", sizes]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --sizes %r: expected comma-separated integers" % sizes]

    @pytest.mark.parametrize(
        "construction, params",
        [("rk", ["--n", "3"]), ("bk", ["--n", "3"]), ("rk-minus", ["--n", "3"]),
         ("gab", ["--t", "5", "--i", "2"])],
    )
    def test_parts_without_parts_is_usage_error(self, tmp_path, capsys, construction, params):
        parts = tmp_path / "p.json"
        argv = ["gen", "--construction", construction, *params, "--parts", str(parts), "--json"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert repr(construction) in lines[0]
        assert not parts.exists()

    def test_blowup(self, tmp_path, capsys):
        pattern = tmp_path / "p.cwg"
        write_cwg(pattern, gen_rk_minus(3))
        out = tmp_path / "b.cwg"
        code = main(
            [
                "gen", "--construction", "blowup", "--pattern", str(pattern),
                "--sizes", "2,2,3", "-o", str(out),
            ]
        )
        assert code == 0
        assert read_cwg(out).n == 7


class TestCheck:
    def test_free_graph(self, tmp_path, capsys, schema):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_even_extremal(3, 1).graph)
        code, payload = run_json(capsys, ["check", "--family", "F:6", str(path), "--json"])
        assert code == 0
        assert payload["free"] is True
        validate(schema, payload)

    def test_violation_exits_2(self, tmp_path, capsys, schema):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(3))
        code, payload = run_json(capsys, ["check", "--family", "F:6", str(path), "--json"])
        assert code == 2
        assert payload["free"] is False
        assert payload["witness"]["member"] == 2
        validate(schema, payload)

    def test_family_file_selector(self, tmp_path, capsys):
        fam = tmp_path / "fam.cwg"
        fam.write_text(to_cwg(gen_rk(2)) + "\n" + to_cwg(gen_rk(3)))
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(2))
        code, payload = run_json(
            capsys, ["check", "--family", "file:%s" % fam, str(path), "--json"]
        )
        assert code == 2 and payload["witness"]["member"] == 0


class TestHom:
    def test_rkminus_none(self, tmp_path, capsys, schema):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_even_extremal(3, 1).graph)
        code, payload = run_json(
            capsys, ["hom", "--target", "rkminus:3", str(path), "--json"]
        )
        assert code == 0
        assert payload["exists"] is False
        assert payload["nodes_explored"] > 0
        validate(schema, payload)

    def test_rk_exists_with_certificate(self, tmp_path, capsys, schema):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(3))
        code, payload = run_json(capsys, ["hom", "--target", "rk:3", str(path), "--json"])
        assert code == 0 and payload["exists"] is True
        assert len(payload["certificate"]["classes"]) == 3
        validate(schema, payload)

    def test_file_target(self, tmp_path, capsys, schema):
        gpath = tmp_path / "g.cwg"
        tpath = tmp_path / "t.cwg"
        write_cwg(gpath, gen_rk(2))
        write_cwg(tpath, gen_rk(2))
        code, payload = run_json(
            capsys, ["hom", "--target", "file:%s" % tpath, str(gpath), "--json"]
        )
        assert code == 0 and payload["exists"] is True
        validate(schema, payload)

    def test_bad_target(self, tmp_path, capsys):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(2))
        assert main(["hom", "--target", "nope:3", str(path)]) == 1

    @pytest.mark.parametrize("target", ["rk:x", "rkminus:x", "rk:", "rkminus:3.5"])
    def test_non_integer_target_is_usage_error(self, tmp_path, capsys, target):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(2))
        assert main(["hom", "--target", target, str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: target %r: expected rk:<r>, rkminus:<r> or file:<path>" % target
        ]

    def test_budget_exhausted_is_unknown(self, tmp_path, capsys, schema):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_even_extremal(3, 2).graph)
        argv = ["hom", "--budget", "10", "--target", "rkminus:3", str(path)]
        code, payload = run_json(capsys, argv + ["--json"])
        assert code == 3
        assert payload["exists"] is None and payload["reason"] == "budget"
        assert payload["nodes_explored"] == 11
        assert payload["certificate"] is None
        validate(schema, payload)
        assert main(argv) == 3
        assert capsys.readouterr().out.startswith("unknown")

    def test_negative_budget_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_even_extremal(3, 2).graph)
        assert main(["hom", "--budget", "-1", "--target", "rkminus:3", str(path), "--json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: --budget must be at least 0, got -1"]


class TestAnalyze:
    def test_j4(self, tmp_path, capsys, schema):
        path = tmp_path / "j.cwg"
        write_cwg(path, gen_j(4).graph)
        code, payload = run_json(capsys, ["analyze", "--r", "4", str(path), "--json"])
        assert code == 0
        assert payload["insecure_green_edges"] == [[3, 4]]
        assert payload["equivalence_ok"] is False
        assert payload["decomposition"]["ok"] is False
        validate(schema, payload)


class TestComplete:
    def test_completion(self, tmp_path, capsys, schema):
        src = tmp_path / "g.cwg"
        out = tmp_path / "done.cwg"
        src.write_text("cwg 3\n000\n")
        fam = tmp_path / "fam.cwg"
        fam.write_text(to_cwg(gen_rk(2)))
        code, payload = run_json(
            capsys,
            [
                "complete", "--family", "file:%s" % fam,
                "-o", str(out), str(src), "--json",
            ],
        )
        assert code == 0
        assert payload["changed_pairs"] == 3
        assert read_cwg(out).upper_string() == "111"
        validate(schema, payload)

    def test_json_without_output_is_one_document(self, tmp_path, capsys, schema):
        src = tmp_path / "g.cwg"
        src.write_text("cwg 3\n000\n")
        code, payload = run_json(capsys, ["complete", "--family", "F:4", str(src), "--json"])
        assert code == 0
        assert payload["graph"] == {"n": 3, "weights": "110"}
        validate(schema, payload)


class TestVerify:
    def test_verified(self, capsys, schema):
        code, payload = run_json(
            capsys,
            ["verify", "--theorem", "odd", "--r", "2", "--n", "4", "--json"],
        )
        assert code == 0
        assert payload["outcome"] == "verified"
        validate(schema, payload)

    @pytest.mark.parametrize("threads", ["0", "-3", "2"])
    def test_threads_below_one_is_a_usage_error(self, capsys, threads):
        argv = ["verify", "--theorem", "odd", "--r", "2", "--n", "3", "--threads", threads]
        assert main(argv + ["--json"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "verify scans in one process; --threads accepts only 1" in err

    def test_single_thread_flag_is_accepted(self, capsys, schema):
        code, payload = run_json(
            capsys,
            ["verify", "--theorem", "odd", "--r", "2", "--n", "4", "--threads", "1", "--json"],
        )
        assert code == 0
        assert payload["outcome"] == "verified"
        validate(schema, payload)


class TestEx:
    def test_value(self, capsys, schema):
        code, payload = run_json(
            capsys, ["ex", "--n", "4", "--family", "F:4", "--json"]
        )
        assert code == 0
        assert payload["value"] == 4
        assert payload["parameters"]["family"] == "F:4"
        validate(schema, payload)

    def test_reach_n7(self, capsys, schema):
        # One order above the benchmark's ex ops; about 1.6 s on a 2-core Xeon.
        code, payload = run_json(capsys, ["ex", "--n", "7", "--family", "F:4", "--json"])
        assert code == 0
        assert payload["value"] == 12
        assert payload["statistics"]["nodes"] == 249507
        validate(schema, payload)

    def test_edgeless_member_has_no_value(self, tmp_path, capsys, schema):
        path = tmp_path / "f.cwg"
        path.write_text("cwg 2\n0\n", encoding="ascii")
        code, payload = run_json(
            capsys, ["ex", "--n", "3", "--family", "file:%s" % path, "--json"]
        )
        assert code == 0
        assert payload["outcome"] == "value"
        assert "value" not in payload and "witness" not in payload
        validate(schema, payload)


class TestThreshold:
    def test_probe(self, capsys, schema):
        code, payload = run_json(
            capsys, ["threshold", "--n", "4", "--r", "2", "--kind", "odd", "--json"]
        )
        assert code == 0
        assert payload["value"] == 2
        validate(schema, payload)

    def test_order_zero_names_the_lower_bound(self, capsys):
        assert main(["threshold", "--n", "0", "--r", "2", "--kind", "odd"]) == 1
        err = capsys.readouterr().err
        assert "need n >= 1" in err and "bound" not in err


class TestDensity:
    def test_rows(self, tmp_path, capsys, schema):
        path = tmp_path / "e.cwg"
        from cwg.constructions import gen_ehss_blowup

        write_cwg(path, gen_ehss_blowup(3).graph)
        code, payload = run_json(
            capsys, ["density", "--family", "F:6", str(path), "--json"]
        )
        assert code == 0
        assert payload["rows"][0]["density"] == "8/7"
        validate(schema, payload)

    def test_single_vertex_family_has_no_reference(self, tmp_path, capsys, schema):
        # F:2 is the single vertex: no graph of order >= 1 avoids it.
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(3))
        code, payload = run_json(capsys, ["density", "--family", "F:2", str(path), "--json"])
        assert code == 0
        assert payload["rows"][0]["reference"] is None
        assert payload["rows"][0]["reference_float"] is None
        validate(schema, payload)


class TestErrorsAndDeterminism:
    def test_malformed_cwg_reports_position(self, tmp_path, capsys):
        path = tmp_path / "bad.cwg"
        path.write_text("cwg 3\n01x\n")
        assert main(["check", "--family", "F:4", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 2" in err and "column 3" in err

    def test_order_above_limit_names_it(self, tmp_path, capsys):
        path = tmp_path / "big.cwg"
        path.write_text("cwg 70\n%s\n" % ("0" * 2415))
        assert main(["check", "--family", "F:4", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err and "maximum order 64" in err

    def test_missing_file(self, capsys):
        assert main(["check", "--family", "F:4", "/nonexistent.cwg"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["check", "--familee", "F:4", "x.cwg"]) == 1

    def test_bad_family_selector(self, tmp_path, capsys):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_rk(2))
        assert main(["check", "--family", "G:4", str(path)]) == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "cwg" in capsys.readouterr().out

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(cwg.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run(
            [sys.executable, "-m", "cwg", "--version"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "cwg %s" % cwg.__version__

    def test_byte_identical_repeat(self, tmp_path, capsys):
        path = tmp_path / "g.cwg"
        write_cwg(path, gen_even_extremal(3, 1).graph)
        green = tmp_path / "green.cwg"
        write_cwg(green, ColoredGraph.uniform(10, 0))
        parts = tmp_path / "parts.json"
        for argv in (
            ["hom", "--target", "rkminus:3", str(path), "--json"],
            ["check", "--family", "F:6", str(path), "--json"],
            ["analyze", "--r", "3", str(path), "--json"],
            ["complete", "--family", "F:6", "--policy", "lex", str(green), "--json"],
            ["complete", "--family", "F:6", "--policy", "random", "--seed", "3", str(green), "--json"],
            ["gen", "--construction", "even-extremal", "--r", "3", "--parts", str(parts), "--json"],
            ["density", "--family", "F:6", str(path), "--json"],
            ["hom", "--target", "rkminus:3", str(path)],
            ["check", "--family", "F:6", str(path)],
            ["analyze", "--r", "3", str(path)],
        ):
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second

    @pytest.mark.parametrize("extra", [[], ["--json"]])
    def test_stdout_write_error_exits_1(self, monkeypatch, capsys, extra):
        class ClosedStdout(io.StringIO):
            def write(self, text):
                raise BrokenPipeError("stdout is closed")

        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main(["gen", "--construction", "rk", "--n", "3", *extra]) == 1
        assert capsys.readouterr().err == "error: stdout is closed\n"

    def test_unseeded_random_completion_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "green.cwg"
        write_cwg(path, ColoredGraph.uniform(10, 0))
        argv = ["complete", "--family", "F:6", "--policy", "random", str(path), "--json"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err


def _json_argv(command, tmp_path):
    path = tmp_path / "g.cwg"
    write_cwg(path, gen_even_extremal(3, 1).graph)
    green = tmp_path / "green.cwg"
    write_cwg(green, ColoredGraph.uniform(6, 0))
    return {
        "gen": ["gen", "--construction", "hk", "--q", "6", "--b", "4", "--k", "2"],
        "check": ["check", "--family", "F:6", str(path)],
        "hom": ["hom", "--target", "rkminus:3", str(path)],
        "analyze": ["analyze", "--r", "3", str(path)],
        "complete": ["complete", "--family", "F:4", str(green)],
        "verify": ["verify", "--theorem", "odd", "--r", "2", "--n", "4"],
        "ex": ["ex", "--n", "4", "--family", "F:4"],
        "threshold": ["threshold", "--n", "4", "--r", "2", "--kind", "odd"],
        "density": ["density", "--family", "F:6", str(path)],
    }[command]


@pytest.mark.parametrize("command", list(subcommands()))
def test_json_is_one_schema_valid_document(tmp_path, capsys, schema, command):
    assert main(_json_argv(command, tmp_path) + ["--json"]) in (0, 2)
    payload = json.loads(capsys.readouterr().out)
    assert isinstance(payload, dict)
    validate(schema, payload)
    assert payload["command"] == command


def test_subcommand_list_is_the_same_in_all_homes(schema):
    parser = list(subcommands())
    docstring = re.search(r"Subcommands:([^.]*)\.", cli.__doc__).group(1)
    with open(README, encoding="utf-8") as fh:
        section = fh.read().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```", 2)[1]
    readme = [line.split()[1] for line in block.splitlines() if line.startswith("cwg ")]
    assert parser == ["gen", "check", "hom", "analyze", "complete", "verify", "ex", "threshold", "density"]
    assert schema["properties"]["command"]["enum"] == parser
    assert [name.strip() for name in docstring.split(",")] == parser
    assert readme == parser
