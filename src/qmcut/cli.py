"""Command-line pipeline: ingest a graph, solve, round, evaluate, certify, bench.

Reports are JSON with a versioned schema; bench emits CSV or typed JSON rows.  In
deterministic mode wall-clock timings are zeroed so identical configurations
produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import certify as certify_mod
from .energy import total_energy
from .graph import Graph, GraphError, parse_generator_spec, parse_graph
from .oracle import QubitLimitError, exact_opt, expectation, simulate
from .rounding import EdgeParameters, build_circuit, outcome_json_dict, sample_assignment
from .sdp import SolverConfig, SolverError, build_model, extract_vectors, model_to_json, solve

SCHEMA = "qmc-report/1"
EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_INPUT = 4


@dataclass
class RunConfig:
    graph: Graph
    source: str
    rounds: int = 1000
    seed: int = 0
    alpha0: float = 0.041
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim_limit: int = 16
    deterministic: bool = False
    audits: bool = False

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


def sample_seeds(master_seed: int, rounds: int) -> list[int]:
    """Counter-split per-sample seeds: any single sample is reproducible alone."""
    state = np.random.SeedSequence(master_seed).generate_state(rounds, dtype=np.uint64)
    return [int(s) for s in state]


def run_pipeline(cfg: RunConfig) -> dict:
    """Solve, round cfg.rounds times, evaluate each sample, and assemble a report.

    Per-sample energies use the statevector oracle when the instance fits the
    simulator and the certified lower bound otherwise; the report records which.
    Solver failure yields a report with status "solver_failure" and residuals.
    """
    g = cfg.graph
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    report: dict = {
        "schema": SCHEMA,
        "status": "ok",
        "instance": cfg.source,
        "n": g.n,
        "edges": g.num_edges,
        "config": {
            "rounds": cfg.rounds,
            "seed": cfg.seed,
            "alpha0": cfg.alpha0,
            "sim_limit": cfg.sim_limit,
            "deterministic": cfg.deterministic,
            "eps_feas": cfg.solver.eps_feas,
            "eps_psd": cfg.solver.eps_psd,
        },
    }

    t0 = time.perf_counter()
    model = build_model(g)
    try:
        gram = solve(model, cfg.solver)
    except SolverError as exc:
        report["status"] = "solver_failure"
        report["stage"] = "sdp"
        report["sdp"] = {"residuals": exc.residuals.to_json_dict()}
        report["timings"] = None if cfg.deterministic else {
            "solve_s": time.perf_counter() - t0,
            "total_s": time.perf_counter() - t_start,
        }
        return report
    vs = extract_vectors(gram, cfg.solver)
    timings["solve_s"] = time.perf_counter() - t0
    report["sdp"] = {
        "objective": gram.objective,
        **gram.residuals.to_json_dict(),
        "extraction_error": vs.extraction_error,
    }

    params = EdgeParameters.from_solution(vs, g, cfg.alpha0)
    report["gamma"] = {f"{i}-{j}": v for (i, j), v in sorted(params.gamma.items())}
    report["theta"] = {f"{i}-{j}": v for (i, j), v in sorted(params.theta.items())}

    t0 = time.perf_counter()
    opt = None
    if g.n <= cfg.sim_limit:
        spectrum = exact_opt(g, limit=cfg.sim_limit)
        opt = spectrum.lambda_max
        report["opt"] = {"value": spectrum.lambda_max, "sector": spectrum.sector,
                         "dimension": spectrum.dimension}
    else:
        report["opt"] = None
    timings["exact_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    exact_mode = g.n <= cfg.sim_limit
    seeds = sample_seeds(cfg.seed, cfg.rounds)
    energies = np.empty(cfg.rounds)
    best_idx = 0
    best_assign = None
    for k, seed in enumerate(seeds):
        assign = sample_assignment(vs, seed)
        if exact_mode:
            psi = simulate(build_circuit(assign, params, g), limit=cfg.sim_limit)
            energies[k] = expectation(psi, g)
        else:
            energies[k] = total_energy(params, assign, g).exact_total
        if energies[k] > energies[best_idx] or best_assign is None:
            best_idx = k
            best_assign = assign
    timings["round_s"] = time.perf_counter() - t0

    mean = float(np.mean(energies))
    stderr = float(np.std(energies, ddof=1) / math.sqrt(cfg.rounds)) if cfg.rounds > 1 else 0.0
    report["samples"] = {
        "count": cfg.rounds,
        "mean": mean,
        "stderr": stderr,
        "energy_kind": "oracle" if exact_mode else "bound",
        "seeds": seeds,
    }
    report["best"] = {
        "index": best_idx,
        "seed": seeds[best_idx],
        "z": best_assign.z_string(),
        "a": best_assign.a,
        "energy": float(energies[best_idx]),
    }

    def ratio(num, den):
        return None if (den is None or den <= 0.0) else num / den

    report["ratios"] = {
        "mean_vs_sdp": ratio(mean, gram.objective),
        "best_vs_sdp": ratio(float(energies[best_idx]), gram.objective),
        "mean_vs_opt": ratio(mean, opt),
        "best_vs_opt": ratio(float(energies[best_idx]), opt),
    }

    t0 = time.perf_counter()
    if cfg.audits:
        cert = certify_mod.build_certificate(vs, g, alpha0=cfg.alpha0, seed=cfg.seed,
                                             sim_limit=cfg.sim_limit)
    else:
        cert = certify_mod.build_certificate(alpha0=cfg.alpha0)
        cert = dataclasses.replace(cert, audits=cert.audits + (certify_mod.monogamy_audit(vs, g),))
    report["certificate"] = cert.to_json_dict()
    timings["certify_s"] = time.perf_counter() - t0
    timings["total_s"] = time.perf_counter() - t_start

    report["timings"] = None if cfg.deterministic else timings
    return report


def report_to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


BENCH_COLUMNS = ("instance", "n", "edges", "opt_sdp", "opt",
                 "mean_ratio", "best_ratio", "solve_s", "total_s", "status")


def bench(entries: list[tuple[str, Graph]], rounds: int = 1000, seed: int = 0,
          alpha0: float = 0.041, solver: SolverConfig | None = None,
          sim_limit: int = 16, deterministic: bool = False) -> list[dict]:
    """One row per instance, keyed by BENCH_COLUMNS; failures become rows and the run
    continues.  Values are typed, and None marks a field the run did not produce."""
    rows = []
    for name, g in entries:
        cfg = RunConfig(graph=g, source=name, rounds=rounds, seed=seed, alpha0=alpha0,
                        solver=solver or SolverConfig(), sim_limit=sim_limit,
                        deterministic=deterministic)
        report = run_pipeline(cfg)
        row = {**dict.fromkeys(BENCH_COLUMNS), "instance": name, "n": g.n, "edges": g.num_edges}
        if report["status"] != "ok":
            rows.append({**row, "status": f"error:{report['stage']}"})
            continue
        timings = report["timings"] or {"solve_s": 0.0, "total_s": 0.0}
        rows.append({
            **row,
            "opt_sdp": report["sdp"]["objective"],
            "opt": report["opt"]["value"] if report["opt"] else None,
            "mean_ratio": report["ratios"]["mean_vs_sdp"],
            "best_ratio": report["ratios"]["best_vs_sdp"],
            "solve_s": timings["solve_s"],
            "total_s": timings["total_s"],
            "status": "ok",
        })
    return rows


def bench_csv(rows: list[dict]) -> str:
    """Bench rows as CSV: a header of BENCH_COLUMNS, empty cells for None."""
    lines = [",".join(BENCH_COLUMNS)]
    lines.extend(",".join("" if row[c] is None else str(row[c]) for c in BENCH_COLUMNS)
                 for row in rows)
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------- #
# Argument handling
# --------------------------------------------------------------------------- #

def _add_common(p: argparse.ArgumentParser, rounds_default: int = 1000) -> None:
    p.add_argument("--input", help="graph file (.json or edge-list)")
    p.add_argument("--generate", metavar="KIND:PARAMS",
                   help="generator spec, e.g. erdos_renyi:n=8,p=0.4,seed=3")
    p.add_argument("--rounds", type=int, default=rounds_default)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha0", type=float, default=0.041)
    p.add_argument("--tol-feas", type=float, default=1e-6)
    p.add_argument("--tol-psd", type=float, default=1e-8)
    p.add_argument("--max-iterations", type=int, default=200_000)
    p.add_argument("--sim-limit", type=int, default=16)
    p.add_argument("--out", help="output path (default: print to stdout)")
    p.add_argument("--format", choices=("json", "csv"), default=None,
                   help="bench output format (default csv)")
    p.add_argument("--deterministic", action="store_true",
                   help="zero wall-clock timings for byte-identical outputs")


def _load_graph(args) -> tuple[str, Graph]:
    if args.input and args.generate:
        raise GraphError("give either --input or --generate, not both")
    if args.input:
        path = Path(args.input)
        text = path.read_text(encoding="utf-8")
        fmt = "json" if path.suffix == ".json" else "edge-list"
        return str(path), parse_graph(text, fmt)
    if args.generate:
        return args.generate, parse_generator_spec(args.generate)
    raise GraphError("an instance is required: --input or --generate")


def _solver_config(args) -> SolverConfig:
    return SolverConfig(eps_feas=args.tol_feas, eps_psd=args.tol_psd,
                        max_iterations=args.max_iterations, seed=args.seed)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_config(args, audits: bool = False) -> RunConfig:
    source, g = _load_graph(args)
    return RunConfig(graph=g, source=source, rounds=args.rounds, seed=args.seed,
                     alpha0=args.alpha0, solver=_solver_config(args),
                     sim_limit=args.sim_limit, deterministic=args.deterministic,
                     audits=audits)


def _solved_vectors(args):
    source, g = _load_graph(args)
    cfg = _solver_config(args)
    model = build_model(g)
    gram = solve(model, cfg)
    return source, g, model, gram, extract_vectors(gram, cfg)


def cmd_solve(args) -> int:
    source, g, model, gram, vs = _solved_vectors(args)
    if args.dump_model:
        Path(args.dump_model).write_text(model_to_json(model) + "\n", encoding="utf-8")
    payload = {
        "schema": SCHEMA,
        "instance": source,
        "objective": gram.objective,
        **gram.residuals.to_json_dict(),
        "extraction_error": vs.extraction_error,
        "edge_share": {f"{i}-{j}": w / 4.0 * (1.0 - vs.pair_sum_dot_unit(i, j))
                       for i, j, w in g.edges},
    }
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_round(args) -> int:
    _, g, _, _, vs = _solved_vectors(args)
    params = EdgeParameters.from_solution(vs, g, args.alpha0)
    assign = sample_assignment(vs, args.seed)
    _emit(report_to_json(outcome_json_dict(assign, params)), args.out)
    return EXIT_OK


def cmd_energy(args) -> int:
    _, g, _, _, vs = _solved_vectors(args)
    params = EdgeParameters.from_solution(vs, g, args.alpha0)
    assign = sample_assignment(vs, args.seed)
    report = total_energy(params, assign, g)
    _emit(report_to_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    source, g = _load_graph(args)
    spectrum = exact_opt(g, limit=args.sim_limit)
    payload = {"schema": SCHEMA, "instance": source, "lambda_max": spectrum.lambda_max,
               "sector": spectrum.sector, "dimension": spectrum.dimension}
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.input or args.generate:
        _, g, _, _, vs = _solved_vectors(args)
        cert = certify_mod.build_certificate(vs, g, alpha0=args.alpha0,
                                             cut_samples=args.samples,
                                             ratio_samples=min(args.samples, 20_000),
                                             seed=args.seed, sim_limit=args.sim_limit)
    else:
        cert = certify_mod.build_certificate(alpha0=args.alpha0)
    payload = cert.to_json_dict()
    if args.sweep:
        best_alpha0, table = certify_mod.sweep_alpha0()
        payload["sweep"] = {"argmax_alpha0": best_alpha0,
                            "table": [[a, v] for a, v in table]}
        print(f"sweep argmax alpha0: {best_alpha0:.3f}")
    print(f"alpha_gw = {cert.alpha_gw:.6f} (argmin t = {cert.alpha_gw_argmin_t:.6f})")
    print(f"ratio constant({cert.alpha0_used}) = {cert.ratio_constant:.6f} "
          f"(argmin gamma = {cert.ratio_argmin_gamma:.6f})")
    for audit in cert.audits:
        print(f"audit {audit.name}: {'PASS' if audit.passed else 'FAIL'} "
              f"(margin {audit.margin:.3e})")
    if args.out:
        Path(args.out).write_text(report_to_json(payload), encoding="utf-8")
    return EXIT_OK if cert.all_passed() else EXIT_AUDIT


def cmd_bench(args) -> int:
    entries = []
    for spec in (s for s in args.suite.split(";") if s.strip()):
        entries.append((spec.strip(), parse_generator_spec(spec.strip())))
    rows = bench(entries, rounds=args.rounds, seed=args.seed, alpha0=args.alpha0,
                 solver=_solver_config(args), sim_limit=args.sim_limit,
                 deterministic=args.deterministic)
    _emit(report_to_json(rows) if args.format == "json" else bench_csv(rows), args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    report = run_pipeline(_run_config(args, audits=args.certify))
    _emit(report_to_json(report), args.out)
    return EXIT_OK if report["status"] == "ok" else EXIT_SOLVER


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qmcut",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the relaxation and report the objective")
    _add_common(p)
    p.add_argument("--dump-model", help="write the model (labels, constraints) as JSON")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("round", help="solve and draw one rounding sample")
    _add_common(p)
    p.set_defaults(func=cmd_round)

    p = sub.add_parser("energy", help="solve, round once, and report edge energies")
    _add_common(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("exact", help="exact largest eigenvalue by sector diagonalization")
    _add_common(p)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("certify", help="constants and instance audits")
    _add_common(p)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--sweep", action="store_true", help="also sweep alpha0")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bench", help="run a suite of instances and emit CSV or JSON rows")
    _add_common(p)
    p.add_argument("--suite", required=True,
                   help="';'-separated generator specs, e.g. 'complete:n=2;path:n=3'")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("pipeline", help="full run: solve, round, evaluate, report")
    _add_common(p)
    p.add_argument("--certify", action="store_true", help="include the full audit set")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, FileNotFoundError, QubitLimitError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
