"""Command-line pipeline: ingest a graph, solve, round, evaluate, certify, bench.

Pipeline reports are JSON of schema qmc-report/4; a run's rounds are the rows of one
random stream of --seed, which `round` and `energy` replay by --index.  bench emits
CSV or typed JSON rows.  In deterministic mode wall-clock timings are zeroed so
identical configurations produce byte-identical outputs.

Every JSON output is strict: a non-finite value (inf or nan) is an input error,
not a non-standard token.  Exit codes: 0 ok, 2 solver failure, 3 an audit
failed, 4 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import certify as certify_mod
from .energy import cut_energies, edge_closed_forms, total_energy
from .graph import Graph, GraphError, InputError, parse_generator_spec, parse_graph
from .oracle import DEFAULT_QUBIT_LIMIT, exact_opt, expectation, simulate
from .rounding import (ALPHA0_DEFAULT, Assignment, EdgeParameters, build_circuit, check_alpha0,
                       max_cut_samples, outcome_json_dict, sample_assignment, sample_cuts)
from .sdp import (EPS_FEAS, EPS_PSD, SolverConfig, SolverError, build_model, extract_vectors,
                  model_to_json, solve)

PIPELINE_SCHEMA = "qmc-report/4"
SOLVE_SCHEMA = "qmc-solve/1"
EXACT_SCHEMA = "qmc-exact/1"
EXIT_OK = 0
EXIT_SOLVER = 2
EXIT_AUDIT = 3
EXIT_INPUT = 4
# Cuts that tie in exact arithmetic (rotations of a cut on a cycle, complementary
# cuts on a star) differ in the last bits of their energies, so best is the
# earliest sample within this relative distance of the top, and a rounding-level
# change in the solution cannot move it between tied cuts.
BEST_TIE_TOL = 1e-12


@dataclass
class RunConfig:
    graph: Graph
    source: str
    rounds: int = 1000
    seed: int = 0
    alpha0: float = ALPHA0_DEFAULT
    solver: SolverConfig = field(default_factory=SolverConfig)
    sim_limit: int = DEFAULT_QUBIT_LIMIT
    deterministic: bool = False
    audits: bool = False

    def __post_init__(self):
        # Checked here, before the solve; run_pipeline first uses them after it.
        # stderr is a sample standard deviation, which one round does not define.
        most = max_cut_samples(self.graph.n)
        if not 2 <= self.rounds <= most:
            raise InputError(f"rounds must be between 2 and {most} at n = {self.graph.n}")
        check_alpha0(self.alpha0)


def run_pipeline(cfg: RunConfig) -> dict:
    """Solve, round cfg.rounds times, evaluate each sample, and assemble a report.

    Each round is one hyperplane cut on the n x n singles Gram G that
    extraction reads from the solution: round k is row k of the (rounds, n) bit
    matrix sample_cuts(vs, config.seed, rounds), which also gives best.z, and
    `qmcut round --seed S --index <best.index>` replays the best cut.  One
    scorer, energy.cut_energies, gives every sample's energy from that matrix
    and the per-edge closed forms, formed once per run.  When the instance fits the
    simulator the energies are exact (cut and uncut values; energy_kind
    "oracle"), and the statevector oracle evaluates the best sample once: its
    value is best.energy, and a gap from the closed form above 1e-12 of the
    energy raises AssertionError.  Otherwise uncut edges score 0, so each
    energy is the sum of its sample's cut edges' exact values, a lower bound
    on the state energy because every edge term is >= 0 (energy_kind "bound").
    A solve or extraction failure yields a report with status "solver_failure",
    the failing stage ("sdp" or "extract") and the residuals.
    """
    g = cfg.graph
    timings: dict[str, float] = {}
    t_start = time.perf_counter()
    report: dict = {
        "schema": PIPELINE_SCHEMA,
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
            "eps_feas": EPS_FEAS,
            "eps_psd": EPS_PSD,
        },
    }

    t0 = time.perf_counter()
    model = build_model(g)
    stage = "sdp"
    try:
        gram = solve(model, cfg.solver)
        stage = "extract"
        vs = extract_vectors(gram)
    except SolverError as exc:
        report["status"] = "solver_failure"
        report["stage"] = stage
        report["sdp"] = {"residuals": asdict(exc.residuals)}
        report["timings"] = None if cfg.deterministic else {
            "solve_s": time.perf_counter() - t0,
            "total_s": time.perf_counter() - t_start,
        }
        return report
    timings["solve_s"] = time.perf_counter() - t0
    report["sdp"] = {
        "objective": gram.objective,
        **asdict(gram.residuals),
        "extraction_error": vs.extraction_error,
    }

    params = EdgeParameters.from_solution(vs, g, cfg.alpha0)
    report["gamma"] = {f"{i}-{j}": v for (i, j), v in sorted(params.gamma.items())}
    report["theta"] = {f"{i}-{j}": v for (i, j), v in sorted(params.theta.items())}

    t0 = time.perf_counter()
    exact_mode = g.n <= cfg.sim_limit
    opt = report["opt"] = None
    if exact_mode:
        spectrum = exact_opt(g, limit=cfg.sim_limit)
        opt = spectrum.lambda_max
        report["opt"] = {"value": spectrum.lambda_max, "sector": spectrum.sector,
                         "dimension": spectrum.dimension}
    timings["exact_s"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    Z = sample_cuts(vs, cfg.seed, cfg.rounds)
    cut, uncut = edge_closed_forms(params, g)
    energies = cut_energies(Z, g, cut, uncut if exact_mode else np.zeros_like(uncut))
    top = float(energies.max())
    best_idx = int(np.argmax(energies >= top - BEST_TIE_TOL * max(1.0, abs(top))))
    best_energy = float(energies[best_idx])
    best = Assignment(z=tuple(Z[best_idx].astype(int).tolist()))
    if exact_mode:
        psi = simulate(build_circuit(best, params, g), limit=cfg.sim_limit)
        oracle = expectation(psi, g)
        if not abs(oracle - best_energy) <= 1e-12 * max(1.0, abs(oracle)):
            raise AssertionError(f"best sample: statevector energy {oracle} and closed form "
                                 f"{best_energy} differ by more than 1e-12")
        best_energy = oracle
    timings["round_s"] = time.perf_counter() - t0

    # The moments are formed on the energies over a power of 2 near their largest
    # magnitude, which is exact and keeps sums and squares of energies near the
    # float limit in range.
    exponent = math.frexp(float(np.abs(energies).max()))[1]
    scaled = np.ldexp(energies, -exponent)
    mean = math.ldexp(float(np.mean(scaled)), exponent)
    report["samples"] = {
        "count": cfg.rounds,
        "mean": mean,
        "stderr": math.ldexp(float(np.std(scaled, ddof=1)), exponent) / math.sqrt(cfg.rounds),
        "energy_kind": "oracle" if exact_mode else "bound",
    }
    report["best"] = {"index": best_idx, "z": best.z_string(), "energy": best_energy}

    def ratio(num, den):
        return None if (den is None or den <= 0.0) else num / den

    report["ratios"] = {
        "mean_vs_sdp": ratio(mean, gram.objective),
        "best_vs_sdp": ratio(best_energy, gram.objective),
        "mean_vs_opt": ratio(mean, opt),
        "best_vs_opt": ratio(best_energy, opt),
    }

    t0 = time.perf_counter()
    if cfg.audits:
        cert = certify_mod.build_certificate(vs, g, alpha0=cfg.alpha0, seed=cfg.seed,
                                             sim_limit=cfg.sim_limit)
    else:
        cert = certify_mod.build_certificate(alpha0=cfg.alpha0)
        cert = dataclasses.replace(cert, audits=cert.audits + (certify_mod.monogamy_audit(vs, g),))
    report["certificate"] = asdict(cert)
    timings["certify_s"] = time.perf_counter() - t0
    timings["total_s"] = time.perf_counter() - t_start

    report["timings"] = None if cfg.deterministic else timings
    return report


def report_to_json(report) -> str:
    """Strict JSON: a non-finite float raises an InputError naming its field."""
    try:
        return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise InputError(f"{_non_finite_field(report, 'report')} is not finite; the input's "
                         f"weights are too close to the float range") from None


def _non_finite_field(value, path: str) -> str | None:
    """The path of the first non-finite float in a JSON-like value, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, (list, tuple)) else ())
    for key, item in items:
        found = _non_finite_field(item, f"{path}.{key}")
        if found:
            return found
    return None


BENCH_COLUMNS = ("instance", "n", "edges", "opt_sdp", "opt",
                 "mean_ratio", "best_ratio", "solve_s", "total_s", "status")


def bench(configs: list[RunConfig]) -> list[dict]:
    """One row per run, keyed by BENCH_COLUMNS; failures become rows and the run
    continues.  Values are typed, and None marks a field the run did not produce."""
    rows = []
    for cfg in configs:
        report = run_pipeline(cfg)
        row = {**dict.fromkeys(BENCH_COLUMNS), "instance": cfg.source, "n": cfg.graph.n,
               "edges": cfg.graph.num_edges}
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

def _load_graph(args) -> tuple[str, Graph]:
    if args.input and args.generate:
        raise GraphError("give either --input or --generate, not both")
    if args.input:
        path = Path(args.input)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise GraphError(f"cannot read {path}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise GraphError(f"cannot read {path}: {exc}") from None
        fmt = "json" if path.suffix == ".json" else "edge-list"
        return str(path), parse_graph(text, fmt)
    if args.generate:
        return args.generate, parse_generator_spec(args.generate)
    raise GraphError("an instance is required: --input or --generate")


def _at_least(name: str, least: int):
    """An integer flag's type, rejecting values below least before any solve;
    _solved_vectors checks the upper end of --index per graph."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"{name} must be >= {least}, got {value}")
        return value
    return integer


def _alpha0(text: str) -> float:
    """--alpha0 value: checked before any solve, as check_alpha0 does."""
    alpha0 = float(text)
    try:
        check_alpha0(alpha0)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return alpha0


def _solver_config(args) -> SolverConfig:
    return SolverConfig(max_iterations=args.max_iterations)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _run_config(args, source: str, g: Graph, audits: bool = False) -> RunConfig:
    return RunConfig(graph=g, source=source, rounds=args.rounds, seed=args.seed,
                     alpha0=args.alpha0, solver=_solver_config(args),
                     sim_limit=args.sim_limit, deterministic=args.deterministic,
                     audits=audits)


def _solved_vectors(args, cuts: int = 0):
    """Load, solve and extract, checking first the count of cuts to be drawn."""
    source, g = _load_graph(args)
    if cuts > max_cut_samples(g.n):
        raise InputError(f"cannot draw {cuts} cuts at n = {g.n}; at most {max_cut_samples(g.n)}")
    model = build_model(g)
    gram = solve(model, _solver_config(args))
    return source, g, model, gram, extract_vectors(gram)


def cmd_solve(args) -> int:
    source, g, model, gram, vs = _solved_vectors(args)
    if args.dump_model:
        Path(args.dump_model).write_text(model_to_json(model) + "\n", encoding="utf-8")
    payload = {
        "schema": SOLVE_SCHEMA,
        "instance": source,
        "objective": gram.objective,
        **asdict(gram.residuals),
        "extraction_error": vs.extraction_error,
        "edge_share": {f"{i}-{j}": w / 4.0 * (1.0 - vs.pair_sum_dot_unit(i, j))
                       for i, j, w in g.edges},
    }
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_round(args) -> int:
    _, g, _, _, vs = _solved_vectors(args, args.index + 1)
    params = EdgeParameters.from_solution(vs, g, args.alpha0)
    assign = sample_assignment(vs, args.seed, args.index)
    payload = {**outcome_json_dict(assign, params), "seed": args.seed, "index": args.index}
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_energy(args) -> int:
    _, g, _, _, vs = _solved_vectors(args, args.index + 1)
    params = EdgeParameters.from_solution(vs, g, args.alpha0)
    assign = sample_assignment(vs, args.seed, args.index)
    report = total_energy(params, assign, g)
    _emit(report_to_json(report.to_json_dict()), args.out)
    return EXIT_OK


def cmd_exact(args) -> int:
    source, g = _load_graph(args)
    spectrum = exact_opt(g, limit=args.sim_limit)
    payload = {"schema": EXACT_SCHEMA, "instance": source, "lambda_max": spectrum.lambda_max,
               "sector": spectrum.sector, "dimension": spectrum.dimension}
    _emit(report_to_json(payload), args.out)
    return EXIT_OK


def cmd_certify(args) -> int:
    if args.input or args.generate:
        _, g, _, _, vs = _solved_vectors(args)
        cert = certify_mod.build_certificate(vs, g, alpha0=args.alpha0, seed=args.seed,
                                             sim_limit=args.sim_limit)
    else:
        cert = certify_mod.build_certificate(alpha0=args.alpha0)
    payload = asdict(cert)
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
    specs = [s.strip() for s in args.suite.split(";") if s.strip()]
    rows = bench([_run_config(args, spec, parse_generator_spec(spec)) for spec in specs])
    _emit(report_to_json(rows) if args.format == "json" else bench_csv(rows), args.out)
    return EXIT_OK


def cmd_pipeline(args) -> int:
    report = run_pipeline(_run_config(args, *_load_graph(args), audits=args.certify))
    _emit(report_to_json(report), args.out)
    return EXIT_OK if report["status"] == "ok" else EXIT_SOLVER


# Every flag, with its one default taken from where the value is defined.  Plain
# dataclass defaults are readable as class attributes (RunConfig.rounds).
_FLAGS: dict[str, dict] = {
    "--input": {"help": "graph file (.json or edge-list)"},
    "--generate": {"metavar": "KIND:PARAMS",
                   "help": "generator spec, e.g. erdos_renyi:n=8,p=0.4,seed=3"},
    "--suite": {"required": True,
                "help": "';'-separated generator specs, e.g. 'complete:n=2;path:n=3'"},
    "--rounds": {"type": int, "default": RunConfig.rounds},
    "--seed": {"type": _at_least("seed", 0), "default": RunConfig.seed,
               "help": "seed of the run's one random stream"},
    "--index": {"type": _at_least("index", 0), "default": 0,
                "help": "the sample to replay: row of the --seed stream"},
    "--alpha0": {"type": _alpha0, "default": ALPHA0_DEFAULT},
    "--sim-limit": {"type": int, "default": DEFAULT_QUBIT_LIMIT},
    "--max-iterations": {"type": int, "default": SolverConfig.max_iterations},
    "--deterministic": {"action": "store_true",
                        "help": "zero wall-clock timings for byte-identical outputs"},
    "--format": {"choices": ("csv", "json"), "default": "csv", "help": "bench output format"},
    "--certify": {"action": "store_true", "help": "include the full audit set"},
    "--sweep": {"action": "store_true", "help": "also sweep alpha0"},
    "--dump-model": {"help": "write the model (labels, constraints) as JSON"},
    "--out": {"help": "output path (default: print to stdout)"},
}

_INSTANCE = ("--input", "--generate")
_SOLVER = ("--max-iterations",)

# Subcommand -> (handler, help, the flags the handler reads).
_SUBCOMMANDS = {
    "solve": (cmd_solve, "solve the relaxation and report the objective",
              (*_INSTANCE, *_SOLVER, "--out", "--dump-model")),
    "round": (cmd_round, "solve and draw one rounding sample",
              (*_INSTANCE, "--seed", "--index", "--alpha0", *_SOLVER, "--out")),
    "energy": (cmd_energy, "solve, round once, and report edge energies",
               (*_INSTANCE, "--seed", "--index", "--alpha0", *_SOLVER, "--out")),
    "exact": (cmd_exact, "exact largest eigenvalue by sector diagonalization",
              (*_INSTANCE, "--sim-limit", "--out")),
    "certify": (cmd_certify, "constants and instance audits",
                (*_INSTANCE, "--seed", "--alpha0", "--sim-limit", *_SOLVER,
                 "--out", "--sweep")),
    "bench": (cmd_bench, "run a suite of instances and emit CSV or JSON rows",
              ("--suite", "--rounds", "--seed", "--alpha0", "--sim-limit", *_SOLVER,
               "--deterministic", "--format", "--out")),
    "pipeline": (cmd_pipeline, "full run: solve, round, evaluate, report",
                 (*_INSTANCE, "--rounds", "--seed", "--alpha0", "--sim-limit", *_SOLVER,
                  "--deterministic", "--certify", "--out")),
}


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a usage error (unknown flag, bad value, missing flag) as an input error."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="qmcut", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (EXIT_INPUT)
        return exc.code
    try:
        return args.func(args)
    # A MemoryError is a request sized past what the host can allocate.
    except (OSError, InputError, MemoryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
