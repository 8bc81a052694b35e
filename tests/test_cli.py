import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import reference_bound_energies, reference_oracle_energies
from qmcut import cli
from qmcut.cli import EXIT_AUDIT, EXIT_INPUT, EXIT_OK, EXIT_SOLVER, build_parser, main
from qmcut.energy import cut_energies, edge_closed_forms
from qmcut.oracle import expectation, simulate
from qmcut.rounding import EdgeParameters, build_circuit, sample_assignment, sample_cuts
from qmcut.sdp import SolverError


def run(args):
    return main(args)


def test_pipeline_writes_versioned_report(tmp_path):
    out = tmp_path / "report.json"
    code = run(["pipeline", "--generate", "complete:n=2", "--rounds", "50",
                "--seed", "7", "--deterministic", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["schema"] == "qmc-report/4"
    assert report["status"] == "ok"
    assert report["sdp"]["objective"] == pytest.approx(1.0, abs=1e-5)
    assert report["opt"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert report["samples"]["count"] == 50
    assert report["best"]["energy"] <= report["opt"]["value"] + 1e-6
    assert set(report["best"]) == {"index", "z", "energy"}
    assert report["timings"] is None


def test_pipeline_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["pipeline", "--generate", "complete:n=3", "--rounds", "60",
            "--seed", "3", "--deterministic"]
    assert run(args + ["--out", str(out1)]) == EXIT_OK
    assert run(args + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_best_is_the_earliest_of_tied_samples(monkeypatch, tmp_path):
    # energies one ulp apart stand for cuts that tie in exact arithmetic; the
    # statevector oracle, which checks the best sample, agrees with the first
    energies = np.array([1.0, 1.0 + 2.2e-16])
    monkeypatch.setattr("qmcut.cli.cut_energies", lambda Z, g, cut, uncut: energies)
    monkeypatch.setattr("qmcut.cli.expectation", lambda psi, g: 1.0)
    out = tmp_path / "report.json"
    assert run(["pipeline", "--generate", "complete:n=2", "--rounds", "2",
                "--deterministic", "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["best"]["index"] == 0


@pytest.mark.parametrize("name", ["C5", "K13", "ER8a", "ER8c"])
def test_bound_energies_equal_the_per_sample_totals(name, solved, monkeypatch):
    # Above the simulator limit the pipeline scores the bit matrix once per edge;
    # every energy, and so mean, stderr and best, must equal the per-sample loop.
    inst = solved(name)
    g, vs, rounds = inst.graph, inst.vectors, 400
    monkeypatch.setattr(cli, "solve", lambda model, cfg: inst.gram)
    Z = sample_cuts(vs, 3, rounds)
    params = EdgeParameters.from_solution(vs, g)
    ref = reference_bound_energies(g, params, Z)
    cut, _ = edge_closed_forms(params, g)
    assert cut_energies(Z, g, cut, np.zeros_like(cut)).tobytes() == ref.tobytes()

    top = float(ref.max())
    best = int(np.argmax(ref >= top - cli.BEST_TIE_TOL * max(1.0, abs(top))))
    report = cli.run_pipeline(cli.RunConfig(graph=g, source=name, rounds=rounds, seed=3,
                                            sim_limit=g.n - 1, deterministic=True))
    assert report["samples"]["energy_kind"] == "bound"
    assert report["samples"]["mean"] == float(np.mean(ref))
    assert report["samples"]["stderr"] == float(np.std(ref, ddof=1) / math.sqrt(rounds))
    assert report["best"] == {"index": best, "z": sample_assignment(vs, 3, best).z_string(),
                              "energy": float(ref[best])}
    # The statevector path reads best.z from the same bit matrix.
    report = cli.run_pipeline(cli.RunConfig(graph=g, source=name, rounds=50, seed=3,
                                            sim_limit=g.n, deterministic=True))
    assert report["best"]["z"] == sample_assignment(vs, 3, report["best"]["index"]).z_string()


@pytest.mark.parametrize("name", ["K2", "P3", "K3", "K13", "C5", "ER8a", "ER8b", "ER8c"])
def test_statevector_energies_match_the_per_sample_oracle(name, solved, monkeypatch):
    # Within sim_limit the pipeline scores the bit matrix from each edge's cut and
    # uncut closed forms; every energy must match the simulated state, and best
    # may move only between samples that tie within BEST_TIE_TOL.
    inst = solved(name)
    g, vs, rounds = inst.graph, inst.vectors, 400
    monkeypatch.setattr(cli, "solve", lambda model, cfg: inst.gram)
    scored = []

    def spy(*args):
        scored.append(cut_energies(*args))
        return scored[-1]

    monkeypatch.setattr(cli, "cut_energies", spy)
    ref = reference_oracle_energies(g, EdgeParameters.from_solution(vs, g),
                                    sample_cuts(vs, 3, rounds))
    report = cli.run_pipeline(cli.RunConfig(graph=g, source=name, rounds=rounds, seed=3,
                                            deterministic=True))
    assert report["samples"]["energy_kind"] == "oracle"
    assert len(scored) == 1 and np.abs(scored[0] - ref).max() <= 1e-12

    top = float(ref.max())
    tie = cli.BEST_TIE_TOL * max(1.0, abs(top))
    want = int(np.argmax(ref >= top - tie))
    got = report["best"]["index"]
    assert got == want or abs(ref[got] - ref[want]) <= tie
    assert report["best"] == {"index": got, "z": sample_assignment(vs, 3, got).z_string(),
                              "energy": float(ref[got])}


def test_best_sample_disagreeing_with_the_oracle_raises(monkeypatch):
    monkeypatch.setattr("qmcut.cli.expectation", lambda psi, g: 0.5 + 1e-9)
    cfg = cli.RunConfig(graph=cli.parse_generator_spec("complete:n=2"), source="K2",
                        rounds=5, deterministic=True)
    with pytest.raises(AssertionError, match="statevector energy"):
        cli.run_pipeline(cfg)


def test_report_size_does_not_grow_with_rounds(tmp_path):
    rounds = 2000
    out = tmp_path / "report.json"
    assert run(["pipeline", "--generate", "cycle:n=5", "--rounds", str(rounds),
                "--deterministic", "--out", str(out)]) == EXIT_OK

    def lists(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from lists(value)
        elif isinstance(node, list):
            yield node
            for value in node:
                yield from lists(value)

    assert all(len(found) < rounds for found in lists(json.loads(out.read_text())))


# The deterministic report of RECORDED_ARGS.  A change that moves a report field
# re-records it with `qmcut <RECORDED_ARGS> --out tests/data/pipeline_cycle5.json`
# and states the diff.
RECORDED_ARGS = ["pipeline", "--generate", "cycle:n=5", "--rounds", "200", "--seed", "7",
                 "--deterministic"]
RECORDED_REPORT = Path(__file__).parent / "data" / "pipeline_cycle5.json"


def assert_report_matches(got, want, path="report"):
    """Equal keys, strings, ints, bools and None; floats within 1e-9."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for key in want:
            assert_report_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for k, (a, b) in enumerate(zip(got, want)):
            assert_report_matches(a, b, f"{path}[{k}]")
    elif isinstance(want, float):
        assert abs(got - want) <= 1e-9, path
    else:
        assert got == want, path


def test_pipeline_report_matches_recorded(tmp_path):
    out = tmp_path / "report.json"
    assert run(RECORDED_ARGS + ["--out", str(out)]) == EXIT_OK
    assert_report_matches(json.loads(out.read_text()), json.loads(RECORDED_REPORT.read_text()))


def test_solve_from_edge_list_file(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("2\n0 1 1.0\n")
    assert run(["solve", "--input", str(path)]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "qmc-solve/1"
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
    assert set(payload) == {"z", "gamma", "theta", "alpha0", "seed", "index"}
    assert (payload["seed"], payload["index"]) == (5, 0)
    assert sorted(payload["z"]) == ["0", "1"]  # K2 optimum always cuts


def test_round_replays_the_pipeline_best(solved, monkeypatch, capsys):
    # A pipeline sample is addressed by (seed, index): round --index replays it.
    inst = solved("ER8c")
    monkeypatch.setattr(cli, "solve", lambda model, cfg: inst.gram)
    spec = "erdos_renyi:n=8,p=0.4,seed=3"
    assert run(["pipeline", "--generate", spec, "--rounds", "300", "--seed", "9",
                "--deterministic"]) == EXIT_OK
    best = json.loads(capsys.readouterr().out)["best"]
    assert best["index"] > 0
    assert run(["round", "--generate", spec, "--seed", "9",
                "--index", str(best["index"])]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["z"], payload["index"]) == (best["z"], best["index"])


def test_energy_outputs_report(solved, monkeypatch, capsys):
    # Every sample leaves an edge of C5 uncut, and exact_total counts it too.
    inst = solved("C5")
    monkeypatch.setattr(cli, "solve", lambda model, cfg: inst.gram)
    assert run(["energy", "--generate", "cycle:n=5", "--seed", "5"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    params = EdgeParameters.from_solution(inst.vectors, inst.graph)
    psi = simulate(build_circuit(sample_assignment(inst.vectors, 5), params, inst.graph))
    assert abs(payload["exact_total"] - expectation(psi, inst.graph)) <= 1e-12
    assert payload["exact_total"] >= payload["bound_total"] - 1e-12


def test_exact_subcommand(capsys):
    assert run(["exact", "--generate", "path:n=3"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "qmc-exact/1"
    assert payload["lambda_max"] == pytest.approx(1.5, abs=1e-9)
    assert (payload["kind"], payload["residual"]) == ("dense", None)


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


def test_solver_failure_reports_the_solvers_work(tmp_path):
    out = tmp_path / "r.json"
    assert run(["pipeline", "--generate", "cycle:n=5", "--max-iterations", "10",
                "--out", str(out)]) == EXIT_SOLVER
    residuals = json.loads(out.read_text())["sdp"]["residuals"]
    assert residuals["map_evaluations"] == 11 + residuals["safeguard_rejections"]
    assert {"memory_restarts", "identity_step"} <= set(residuals)


def test_total_weight_overflow_is_input_error(capsys):
    assert run(["pipeline", "--generate", "complete:n=5,wmin=1.7e308,wmax=1.7e308"]) == EXIT_INPUT
    assert "total edge weight" in capsys.readouterr().err


def strict_json(text: str):
    def reject(token):
        raise AssertionError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("weight, rounds", [(1e300, 10), (1e307, 100)])
def test_huge_weights_give_finite_sample_moments(weight, rounds, tmp_path):
    # squares of energies near 1e300 and sums of 100 energies near 1e307
    # overflow; RuntimeWarnings are errors under pytest
    out = tmp_path / "r.json"
    assert run(["pipeline", "--generate", f"complete:n=3,wmin={weight},wmax={weight}",
                "--rounds", str(rounds), "--out", str(out)]) == EXIT_OK
    samples = strict_json(out.read_text())["samples"]
    assert 0.0 < samples["stderr"] < samples["mean"] <= 3.0 * weight


def test_non_finite_report_value_is_input_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_pipeline",
                        lambda cfg: {"status": "ok", "samples": {"mean": math.inf},
                                     "gamma": [0.5, math.nan]})
    assert run(["pipeline", "--generate", "path:n=3"]) == EXIT_INPUT
    captured = capsys.readouterr()
    assert "report.samples.mean is not finite" in captured.err
    assert captured.out == ""
    with pytest.raises(cli.InputError, match=r"report\.gamma\.1 is not finite"):
        cli.report_to_json({"gamma": [0.5, math.nan]})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(-60, 1000), st.sampled_from(["complete:n=2", "complete:n=3", "cycle:n=5",
                                                 "erdos_renyi:n=6,p=0.5,seed=2"]))
@example(1000, "erdos_renyi:n=6,p=0.5,seed=2")
@example(-60, "cycle:n=5")
@example(1023, "complete:n=2")   # one edge of weight 2^1023, total weight in range
def test_reports_are_strict_json_at_every_weight_scale(tmp_path, k, spec):
    # weights 2^k: every run exits 0 or 4, and every report parses strictly
    out = tmp_path / "r.json"
    out.unlink(missing_ok=True)
    weight = repr(2.0 ** k)
    code = run(["pipeline", "--generate", f"{spec},wmin={weight},wmax={weight}",
                "--rounds", "10", "--certify", "--deterministic", "--out", str(out)])
    assert code in (EXIT_OK, EXIT_INPUT)
    if code == EXIT_OK:
        assert strict_json(out.read_text())["status"] == "ok"


def test_certify_constants_only(capsys):
    assert run(["certify"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "alpha_gw = 0.8786" in out or "alpha_gw = 0.878567" in out
    assert "minimizer_consistency: PASS" in out


def test_certify_instance(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--generate", "star:d=3", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    names = {a["name"] for a in payload["audits"]}
    assert "monogamy" in names and "cut_probability" in names
    assert all(a["passed"] for a in payload["audits"])


def test_certify_passes_at_alpha0_zero(capsys):
    # The per-edge audit tests each alpha0 against its own certified constant
    # (0.439284 at alpha0 = 0), not against 0.562, the constant of alpha0 = 0.041.
    assert run(["certify", "--generate", "complete:n=2", "--alpha0", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ratio constant(0.0) = 0.439284" in out
    assert "audit per_edge_ratio: PASS" in out


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
    # only InputError, OSError and MemoryError are bad input; any other ValueError is a bug
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


def test_unallocatable_request_is_input_error(capsys):
    # 10**17 rounds of complete:n=2 ask for a 2e17-byte bit matrix, which no host
    # can grant, so the allocation fails at once instead of being attempted.  At
    # n = 10, 10**18 rounds need 1e19 bytes, more than numpy can size.
    for argv in (["pipeline", "--generate", "complete:n=2", "--rounds", str(10**17)],
                 ["pipeline", "--generate", "complete:n=10", "--rounds", str(10**18)]):
        assert run(argv) == EXIT_INPUT
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
    ["pipeline", "--generate", ER8C, "--rounds", "1"],
    ["bench", "--suite", ER8C, "--rounds", "1"],
    ["round", "--generate", ER8C, "--index", "-1"],
    ["energy", "--generate", "complete:n=10", "--index", str(10**18)],
    ["bench", "--suite", ER8C, "--alpha0", "nan"],
    ["round", "--generate", ER8C, "--alpha0", "-1"],
    ["energy", "--generate", ER8C, "--alpha0", "inf"],
    ["certify", "--generate", ER8C, "--alpha0", "nan"],
    ["pipeline", "--generate", "complete:n=2", "--rounds", str(2**60)],
    ["solve", "--generate", "complete:n=2", "--tol-feas", "1e-6"],
    ["pipeline", "--generate", "complete:n=3,n=4"],
    ["exact", "--generate", "complete:n=3,seed=1,seed=2"],
    ["pipeline", "--generate", "path:n=3", "--rounds", "2", "--sim-limit", "-1"],
    ["certify", "--generate", ER8C, "--sim-limit", "-1"],
    ["exact", "--generate", "complete:n=3", "--sim-limit", "-1"],
    ["bench", "--suite", ER8C, "--sim-limit", "-1"],
], ids=["pipeline-alpha0", "pipeline-rounds", "bench-rounds", "pipeline-rounds-1",
        "bench-rounds-1", "round-index-negative", "energy-index-1e18", "bench-alpha0", "round-alpha0",
        "energy-alpha0", "certify-alpha0", "pipeline-rounds-2to60", "solve-tol-feas",
        "pipeline-repeated-key", "exact-repeated-seed", "pipeline-sim-limit",
        "certify-sim-limit", "exact-sim-limit", "bench-sim-limit"])
def test_bad_setting_is_rejected_before_the_solve(argv, monkeypatch, capsys):
    def no_solve(model, cfg=None):
        raise AssertionError("solve called for a run that should be rejected")

    monkeypatch.setattr("qmcut.cli.solve", no_solve)
    assert run(argv) == EXIT_INPUT


@pytest.mark.parametrize("spec", ["complete:n=2", "path:n=1"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command, extra", [("round", []), ("energy", []),
                                            ("pipeline", ["--rounds", "5"]),
                                            ("certify", [])],
                         ids=["round", "energy", "pipeline", "certify"])
def test_invalid_alpha0_is_input_error(command, extra, value, spec, tmp_path, capsys):
    # path:n=1 has no edge, so no rotation angle is computed from alpha0
    out = tmp_path / "out.json"
    code = run([command, "--generate", spec, "--alpha0", value, *extra,
                "--out", str(out)])
    assert code == EXIT_INPUT
    written = capsys.readouterr().out + (out.read_text() if out.exists() else "")
    assert "NaN" not in written and "Infinity" not in written


@pytest.mark.parametrize("command, extra", [("certify", []),
                                            ("pipeline", ["--generate", "complete:n=2",
                                                          "--rounds", "5"])],
                         ids=["certify", "pipeline"])
def test_huge_alpha0_writes_no_nan(command, extra, tmp_path, capsys):
    # 2 * alpha0 overflows; the guarantee ratio must stay finite.  The
    # minimizer audit may fail on this input, which is a labelled outcome.
    out = tmp_path / "out.json"
    code = run([command, "--alpha0", "1e308", *extra, "--out", str(out)])
    assert code in (EXIT_OK, EXIT_AUDIT)
    strict_json(out.read_text())
    assert "nan" not in capsys.readouterr().out


# Each subcommand's flags, a value for each, and one flag it must reject.
PARSER_TABLE = {
    "solve": ({"--input": "g.txt", "--generate": "path:n=3", "--max-iterations": "10",
               "--out": "o.json", "--dump-model": "m.json"}, ["--seed", "1"]),
    "round": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1", "--index": "2",
               "--alpha0": "0.05", "--max-iterations": "10", "--out": "o.json"},
              ["--rounds", "5"]),
    "energy": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1", "--index": "2",
                "--alpha0": "0.05", "--max-iterations": "10", "--out": "o.json"},
               ["--sim-limit", "4"]),
    "exact": ({"--input": "g.txt", "--generate": "path:n=3", "--sim-limit": "4",
               "--out": "o.json"}, ["--rounds", "5"]),
    "certify": ({"--input": "g.txt", "--generate": "path:n=3", "--seed": "1",
                 "--alpha0": "0.05", "--sim-limit": "4",
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
