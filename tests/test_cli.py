import argparse
import json

import pytest

from qmcut.cli import EXIT_AUDIT, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, build_parser, main
from qmcut.sdp import SolverError


def run(args):
    return main(args)


def test_pipeline_writes_versioned_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["pipeline", "--generate", "complete:n=2", "--rounds", "50",
                "--seed", "7", "--deterministic", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema"] == "qmc-report/2"
    assert report["status"] == "ok"
    assert report["sdp"]["objective"] == pytest.approx(1.0, abs=1e-5)
    assert report["opt"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert report["samples"]["count"] == 50
    assert len(report["samples"]["seeds"]) == 50
    assert report["best"]["energy"] <= report["opt"]["value"] + 1e-6
    assert set(report["best"]) == {"index", "seed", "z", "energy"}
    assert report["timings"] is None


def test_pipeline_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pipeline", "--generate", "complete:n=3", "--rounds", "60",
            "--seed", "3", "--deterministic"]
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_from_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1 1.0\n")
    assert run(["solve", "--input", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["objective"] == pytest.approx(1.0, abs=1e-5)
    assert payload["edge_share"]["0-1"] == pytest.approx(1.0, abs=1e-5)


def test_solve_dump_model(tmp_path):
    dump = tmp_path / "model.json"
    out = tmp_path / "sol.json"
    assert run(["solve", "--generate", "complete:n=2", "--dump-model", str(dump),
                "--out", str(out)]) == EXIT_OK
    model = json.loads(dump.read_text())
    # Unit+Pair model of K2: unit_norm 1, pair_norm 3, pair_product 3
    assert len(model["labels"]) == 4
    assert len(model["constraints"]) == 7


def test_round_outputs_outcome(tmp_path, capsys):
    assert run(["round", "--generate", "complete:n=2", "--seed", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"z", "gamma", "theta", "alpha0", "seed"}
    assert payload["seed"] == 5
    assert sorted(payload["z"]) == ["0", "1"]  # K2 optimum always cuts


def test_energy_outputs_report(capsys):
    assert run(["energy", "--generate", "complete:n=2", "--seed", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["mode"] == "exact_where_cut"
    assert payload["exact_total"] >= payload["bound_total"] - 1e-12


def test_exact_subcommand(capsys):
    assert run(["exact", "--generate", "path:n=3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["lambda_max"] == pytest.approx(1.5, abs=1e-9)


def test_missing_input_is_input_error(capsys):
    assert run(["pipeline"]) == EXIT_INPUT
    assert run(["pipeline", "--input", "/nonexistent/file.txt"]) == EXIT_INPUT
    assert run(["pipeline", "--generate", "frobnicate:n=2"]) == EXIT_INPUT
    assert run(["pipeline", "--generate", "erdos_renyi:n=4,p=7"]) == EXIT_INPUT
    assert run(["exact", "--generate", "complete:n=3,wmin=0,wmax=inf"]) == EXIT_INPUT


def test_solver_failure_exit_code(tmp_path):
    out = tmp_path / "r.json"
    code = run(["pipeline", "--generate", "cycle:n=5", "--max-iterations", "10",
                "--out", str(out)])
    assert code == EXIT_SOLVER
    report = json.loads(out.read_text())
    assert report["status"] == "solver_failure"
    assert report["stage"] == "sdp"
    assert report["sdp"]["residuals"]["converged"] is False


def test_certify_constants_only(capsys):
    assert run(["certify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha_gw = 0.8786" in out or "alpha_gw = 0.878567" in out
    assert "minimizer_consistency: PASS" in out


def test_certify_instance(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--generate", "star:d=3", "--samples", "4000",
                "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    names = {a["name"] for a in payload["audits"]}
    assert "monogamy" in names and "cut_probability" in names
    assert all(a["passed"] for a in payload["audits"])


def test_bench_empty_suite(capsys):
    assert run(["bench", "--suite", ""]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "instance,n,edges,opt_sdp,opt,mean_ratio,best_ratio,solve_s,total_s,status"]


def test_bench_small_suite(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--suite", "complete:n=2;path:n=3", "--rounds", "120",
                "--seed", "2", "--deterministic", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["status"] == "ok"
        assert 0.0 < float(row["mean_ratio"]) <= 1.0 + 1e-9
        assert float(row["solve_s"]) == 0.0  # deterministic mode zeroes timings

    # deterministic rerun is byte identical
    out2 = tmp_path / "bench2.csv"
    assert run(["bench", "--suite", "complete:n=2;path:n=3", "--rounds", "120",
                "--seed", "2", "--deterministic", "--out", str(out2)]) == EXIT_OK
    assert out.read_bytes() == out2.read_bytes()


def test_bench_json_format(capsys):
    assert run(["bench", "--suite", "complete:n=2", "--rounds", "40",
                "--deterministic", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["instance"] == "complete:n=2"
    assert rows[0]["status"] == "ok"
    for key in ("n", "edges"):
        assert type(rows[0][key]) is int
    for key in ("opt_sdp", "opt", "mean_ratio", "best_ratio", "solve_s", "total_s"):
        assert type(rows[0][key]) is float


def _failing_extract(gram, cfg=None):
    raise SolverError("injected extraction failure", gram.residuals)


def test_extraction_failure_is_a_bench_row(monkeypatch, capsys):
    monkeypatch.setattr("qmcut.cli.extract_vectors", _failing_extract)
    assert run(["bench", "--suite", "complete:n=2;path:n=3", "--rounds", "10",
                "--deterministic", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert [row["status"] for row in rows] == ["error:extract", "error:extract"]


def test_extraction_failure_writes_pipeline_report(monkeypatch, tmp_path):
    monkeypatch.setattr("qmcut.cli.extract_vectors", _failing_extract)
    out = tmp_path / "r.json"
    assert run(["pipeline", "--generate", "complete:n=2", "--out", str(out)]) == EXIT_SOLVER
    report = json.loads(out.read_text())
    assert report["status"] == "solver_failure"
    assert report["stage"] == "extract"
    assert report["sdp"]["residuals"]["converged"] is True


@pytest.mark.parametrize("spec", ["complete:n=inf", "complete:n=2,seed=inf",
                                  "complete:n=2,seed=1.7"])
def test_non_integer_generator_parameter_is_input_error(spec, capsys):
    assert run(["exact", "--generate", spec]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_directory_input_is_input_error(tmp_path, capsys):
    assert run(["exact", "--input", str(tmp_path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_non_utf8_input_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_bytes(b"\xff\xfe\n")
    assert run(["exact", "--input", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_zero_vertex_graph_is_input_error(tmp_path, capsys):
    # the relaxation needs a vertex: build_index(0) rejects it as input
    path = tmp_path / "g.json"
    path.write_text('{"n": 0, "edges": []}')
    assert run(["pipeline", "--input", str(path), "--rounds", "2"]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["round", "pipeline", "certify", "bench"])
def test_negative_seed_is_input_error(command, capsys):
    instance = ["--suite" if command == "bench" else "--generate", "complete:n=2"]
    assert run([command, *instance, "--seed", "-1"]) == EXIT_INPUT
    assert "seed must be >= 0" in capsys.readouterr().err


def test_internal_value_error_is_not_input_error(monkeypatch):
    # only InputError and OSError are bad input; any other ValueError is a bug
    # and must not be reported as exit 4
    def broken_solve(model, cfg=None):
        raise ValueError("internal failure")

    monkeypatch.setattr("qmcut.cli.solve", broken_solve)
    with pytest.raises(ValueError, match="internal failure"):
        run(["solve", "--generate", "complete:n=2"])


def test_json_weight_too_large_for_float_is_input_error(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"edges": [[0, 1, 1' + "0" * 400 + ']]}')
    assert run(["exact", "--input", str(path)]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-iterations", "0")])
def test_invalid_solver_setting_is_input_error(flag, value, capsys):
    assert run(["solve", "--generate", "complete:n=2", flag, value]) == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


ER8C = "erdos_renyi:n=8,p=0.4,seed=3"


@pytest.mark.parametrize("argv", [
    ["pipeline", "--generate", ER8C, "--alpha0=-1"],
    ["pipeline", "--generate", ER8C, "--rounds", "100000000000000000000"],
    ["bench", "--suite", ER8C, "--rounds", "100000000000000000000"],
    ["bench", "--suite", ER8C, "--alpha0", "nan"],
    ["round", "--generate", ER8C, "--alpha0", "-1"],
    ["energy", "--generate", ER8C, "--alpha0", "inf"],
    ["certify", "--generate", ER8C, "--alpha0", "nan"],
    ["solve", "--generate", "complete:n=2", "--tol-feas", "1e-6"],
], ids=["pipeline-alpha0", "pipeline-rounds", "bench-rounds", "bench-alpha0", "round-alpha0",
        "energy-alpha0", "certify-alpha0", "solve-tol-feas"])
def test_bad_setting_is_rejected_before_the_solve(argv, monkeypatch, capsys):
    def no_solve(model, cfg=None):
        raise AssertionError("solve called for a run that should be rejected")

    monkeypatch.setattr("qmcut.cli.solve", no_solve)
    assert run(argv) == EXIT_INPUT


@pytest.mark.parametrize("spec", ["complete:n=2", "path:n=1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, extra", [("round", []), ("energy", []),
                                            ("pipeline", ["--rounds", "5"]),
                                            ("certify", ["--samples", "100"])],
                         ids=["round", "energy", "pipeline", "certify"])
def test_invalid_alpha0_is_input_error(command, extra, value, spec, tmp_path, capsys):
    # path:n=1 has no edge, so no rotation angle is computed from alpha0
    out = tmp_path / "out.json"
    code = run([command, "--generate", spec, "--alpha0", value, *extra,
                "--out", str(out)])
    assert code == EXIT_INPUT
    written = capsys.readouterr().out + (out.read_text() if out.exists() else "")
    assert "NaN" not in written and "Infinity" not in written


# Each subcommand's flags, a value for each, and one flag it must reject.
PARSER_TABLE = {
    "solve": ({"--input": "g.txt", "--generate": "path:n=3", "--max-iterations": "10",
               "--out": "o.json", "--dump-model": "m.json"}, ["--seed", "1"]),
    "round": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1",
               "--alpha0": "0.05", "--max-iterations": "10", "--out": "o.json"},
              ["--rounds", "5"]),
    "energy": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1",
                "--alpha0": "0.05", "--max-iterations": "10", "--out": "o.json"},
               ["--sim-limit", "4"]),
    "exact": ({"--input": "g.txt", "--generate": "path:n=3", "--sim-limit": "4",
               "--out": "o.json"}, ["--rounds", "5"]),
    "certify": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1",
                 "--alpha0": "0.05", "--samples": "100", "--sim-limit": "4",
                 "--max-iterations": "10", "--out": "o.json", "--sweep": None},
                ["--deterministic"]),
    "bench": ({"--suite": "path:n=3", "--rounds": "5", "--seed": "1", "--alpha0": "0.05",
               "--sim-limit": "4", "--max-iterations": "10", "--deterministic": None,
               "--format": "json", "--out": "o.csv"}, ["--input", "x"]),
    "pipeline": ({"--input": "g.txt", "--generate": "path:n=3", "--rounds": "5",
                  "--seed": "1", "--alpha0": "0.05", "--sim-limit": "4",
                  "--max-iterations": "10", "--deterministic": None, "--certify": None,
                  "--out": "o.json"}, ["--format", "csv"]),
}


@pytest.mark.parametrize("command", sorted(PARSER_TABLE))
def test_parser_accepts_exactly_the_flags_its_handler_reads(command, capsys):
    flags, outside = PARSER_TABLE[command]
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    registered = {o for a in sub.choices[command]._actions for o in a.option_strings}
    assert registered - {"-h", "--help"} == set(flags)

    argv = [command]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    args = parser.parse_args(argv)
    assert args.func.__name__ == f"cmd_{command}"

    required = ["--suite", ""] if command == "bench" else []
    assert run([command, *required, *outside]) == EXIT_INPUT
    assert run([command, "--help"]) == EXIT_OK


def test_usage_errors_are_input_errors(capsys):
    assert run(["pipeline", "--rounds", "many"]) == EXIT_INPUT
    assert run(["bench"]) == EXIT_INPUT
    assert run(["frobnicate"]) == EXIT_INPUT
    assert run([]) == EXIT_INPUT
