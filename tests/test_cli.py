import json
import os
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

import cwg
from cwg.cli import main
from cwg.core import ColoredGraph, parse_cwg, read_cwg, to_cwg, write_cwg
from cwg.constructions import gen_even_extremal, gen_j, gen_rk, gen_rk_minus


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
        for argv in (
            ["hom", "--target", "rkminus:3", str(path), "--json"],
            ["check", "--family", "F:6", str(path), "--json"],
            ["analyze", "--r", "3", str(path), "--json"],
            ["complete", "--family", "F:6", "--policy", "lex", str(green), "--json"],
            ["complete", "--family", "F:6", "--policy", "random", "--seed", "3", str(green), "--json"],
        ):
            assert main(argv) == 0
            first = capsys.readouterr().out
            assert main(argv) == 0
            second = capsys.readouterr().out
            assert first == second

    def test_unseeded_random_completion_is_a_usage_error(self, tmp_path, capsys):
        path = tmp_path / "green.cwg"
        write_cwg(path, ColoredGraph.uniform(10, 0))
        argv = ["complete", "--family", "F:6", "--policy", "random", str(path), "--json"]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "--seed" in err
