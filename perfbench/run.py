"""qmcut benchmark: runs fixed Quantum Max Cut instances through qmcut.cli.run_pipeline.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 40 --trace 0

Run from the root of a qmcut checkout; the program is imported from its src/
tree.  The seed sets RunConfig.seed (rounding and audit sampling); the
instances are fixed.  Instance runs go one at a time in one process, a closed
loop, and the instance set is repeated while the time left holds another pass.
With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics of a traced run.  wall_s and setup_s are
scaled by a host-speed probe (probe.py), because the shared host's speed
drifts more than any useful bound.  See perfbench/README.md for why the
workloads are what they are.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "qmcut" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no qmcut source tree at {SRC}; run from a qmcut checkout")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from qmcut import cli  # noqa: E402
from qmcut.graph import parse_generator_spec  # noqa: E402
from qmcut.sdp import SolverConfig  # noqa: E402

from probe import PYTHON_PROBE_NOMINAL_S, python_probe_s  # noqa: E402
from tracing import LAYERS, ROOT_LAYER, Tracer, per_call_overhead_s  # noqa: E402

# Instance objectives are SDP values recorded with the solver at its default
# tolerances.  The solver lands within ~1e-7 of the true optimum (star:d=11 has
# optimum 6), so 1e-5 admits any correct solver change and still rejects a
# wrong relaxation.
OBJECTIVE_TOL = 1e-5


@dataclass(frozen=True)
class Instance:
    spec: str
    objective: float        # reference SDP objective
    max_iterations: int = 200_000


ER8A = Instance("erdos_renyi:n=8,p=0.4,seed=1", 6.0811391431443305)
ER8C = Instance("erdos_renyi:n=8,p=0.4,seed=3", 6.121849847467887)


@dataclass(frozen=True)
class Workload:
    instances: tuple[Instance, ...]
    rounds: int
    sim_limit: int = 16
    audits: bool = False
    energy_kind: str = "oracle"
    blas_share: float = 0.0   # share of wall time in dense linear algebra (the SDP solve)


WORKLOADS = {
    # SDP-bound: the iteration count varies at fixed Gram size d = 109 (ER8a
    # 10 325 iterations, ER8c 1 025), and d varies with star:d=11 (d = 235).
    "solve": Workload((ER8A, ER8C, Instance("star:d=11", 5.999999985783141)), rounds=100,
                      blas_share=0.97),
    # Rounding and statevector-bound: every sample is simulated.
    "round_sv": Workload((Instance("star:d=3", 1.9999998850484844),
                          Instance("cycle:n=5", 3.259720183432991),
                          ER8C), rounds=3000, blas_share=0.22),
    # Energy and certify-bound: sim_limit below n sends every sample through the
    # closed-form energy, the path of every instance above the simulator limit.
    "audit_cf": Workload((ER8C,), rounds=20_000, sim_limit=7, audits=True, energy_kind="bound",
                         blas_share=0.15),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "completed_frac": "fraction",
    "ratio_mean_vs_sdp": "fraction",
}

CALL_COUNTED = ("rounding.sample_assignment", "oracle.simulate", "energy.total_energy",
                "energy.edge_energy_bound")
COUNT_METRICS = ("sdp.admm_iters", "sdp.failed", "sdp.gram_d_max", "sdp.constraints",
                 *(f"{layer}_calls" for layer in CALL_COUNTED), "certify.audits_failed")
PER_LAYER_UNITS = {
    **{f"{layer}_s": "s" for layer in LAYERS},
    **dict.fromkeys(COUNT_METRICS, "count"),
    "sdp.solve_ms_per_iter": "ms",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
}

SETUP_REPEATS = 5
PROBE_REPEATS = 3   # before each instance run and in each set-up process
SETUP_CODE = """\
import sys
from time import perf_counter
t0 = perf_counter()
import qmcut
from qmcut.graph import parse_generator_spec
graphs = [parse_generator_spec(spec) for spec in sys.argv[1:]]
elapsed = perf_counter() - t0
from probe import python_probe_s
print(elapsed, sorted(python_probe_s() for _ in range(3))[1])
"""


@dataclass
class Outcome:
    spec: str
    wall_s: float
    report: dict | None
    error: str | None      # exception, solver failure or failed check
    incorrect: bool        # an output failed a correctness check, or the call raised
    python_probe_s: float  # median of the host-speed probes taken just before the run


def measure_setup(specs, repeats: int) -> list[tuple[float, float]]:
    """(seconds to import qmcut and generate the graphs, Python probe seconds), each
    pair from a fresh process."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), str(Path(__file__).resolve().parent),
                    os.environ.get("PYTHONPATH")) if p)}
    runs = []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, *specs], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        setup, probe = map(float, done.stdout.split())
        runs.append((setup, probe))
    return runs


def check_report(report: dict, wl: Workload, inst: Instance) -> str | None:
    """Why a completed report is wrong, or None when every check holds."""
    sdp, conf = report["sdp"], report["config"]
    problems = []
    if abs(sdp["objective"] - inst.objective) > OBJECTIVE_TOL:
        problems.append(f"objective {sdp['objective']!r} differs from reference "
                        f"{inst.objective!r}")
    if sdp["max_constraint"] > conf["eps_feas"]:
        problems.append(f"max_constraint {sdp['max_constraint']:.3e} > eps_feas")
    if sdp["min_eigenvalue"] < -conf["eps_psd"]:
        problems.append(f"min_eigenvalue {sdp['min_eigenvalue']:.3e} < -eps_psd")
    failed = [a["name"] for a in report["certificate"]["audits"] if not a["passed"]]
    if failed:
        problems.append(f"audits failed: {failed}")
    if report["samples"]["energy_kind"] != wl.energy_kind:
        problems.append(f"energy_kind {report['samples']['energy_kind']!r}, "
                        f"expected {wl.energy_kind!r}")
    opt = report["opt"]
    if opt is not None:
        # No state beats the true optimum, and the relaxation bounds it above.
        if report["best"]["energy"] > opt["value"] + 1e-9:
            problems.append("best sampled energy exceeds the exact optimum")
        if opt["value"] > sdp["objective"] + OBJECTIVE_TOL:
            problems.append("exact optimum exceeds the SDP objective")
    return "; ".join(problems) or None


def without_timings(report: dict | None) -> dict | None:
    return None if report is None else {k: v for k, v in report.items() if k != "timings"}


def run_instance(pipeline, wl: Workload, inst: Instance, graph, seed: int) -> Outcome:
    cfg = cli.RunConfig(graph=graph, source=inst.spec, rounds=wl.rounds, seed=seed,
                        solver=SolverConfig(max_iterations=inst.max_iterations, seed=seed),
                        sim_limit=wl.sim_limit, audits=wl.audits)
    probe = statistics.median(python_probe_s() for _ in range(PROBE_REPEATS))
    t0 = perf_counter()
    try:
        report = pipeline(cfg)
    except Exception as exc:  # one instance's failure is counted, never fatal to the run
        return Outcome(inst.spec, perf_counter() - t0, None, f"{type(exc).__name__}: {exc}",
                       True, probe)
    wall = perf_counter() - t0
    if report["status"] != "ok":
        return Outcome(inst.spec, wall, report, f"{report['status']} at {report['stage']}",
                       False, probe)
    problem = check_report(report, wl, inst)
    return Outcome(inst.spec, wall, report, problem, problem is not None, probe)


def run_passes(wl: Workload, graphs, seed: int, seconds: float, tracer: Tracer | None = None):
    """Closed loop over the instance set; returns one (outcomes, layer metrics) per pass.

    A pass starts only while the time left is at least the median pass so far,
    so one pass always runs and a run overshoots --seconds by at most one pass.
    A report that differs from the same instance's report in the first pass
    counts as incorrect: every pass must reproduce the first exactly.
    """
    pipeline = cli.run_pipeline
    if tracer is not None:
        pipeline = tracer.wrap(cli.run_pipeline, ROOT_LAYER)
        per_call_s = per_call_overhead_s()
    passes = []
    first: dict[str, dict | None] = {}
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        outcomes = []
        for inst, graph in zip(wl.instances, graphs):
            out = run_instance(pipeline, wl, inst, graph, seed)
            if out.report is not None:
                stripped = without_timings(out.report)
                if first.setdefault(inst.spec, stripped) != stripped:
                    out.error, out.incorrect = "report differs from the first pass", True
            outcomes.append(out)
        layers = None if tracer is None else layer_metrics(tracer, outcomes, per_call_s)
        passes.append((outcomes, layers))
        median_pass = statistics.median(sum(o.wall_s for o in p) for p, _ in passes)
        if seconds - (perf_counter() - start) < median_pass:
            return passes


def admm_iterations(report: dict) -> int:
    sdp = report["sdp"]
    return (sdp["residuals"] if report["status"] != "ok" else sdp)["iterations"]


def layer_metrics(tracer: Tracer, outcomes: list[Outcome], per_call_s: float) -> dict[str, float]:
    reports = [o.report for o in outcomes if o.report is not None]
    m: dict[str, float] = {f"{layer}_s": tracer.self_s[layer] for layer in LAYERS}
    iters = sum(admm_iterations(r) for r in reports)
    m["sdp.admm_iters"] = iters
    m["sdp.solve_ms_per_iter"] = 1000.0 * m["sdp.solve_s"] / iters if iters else 0.0
    m["sdp.failed"] = sum(r["status"] == "solver_failure" for r in reports)
    m["sdp.gram_d_max"] = tracer.gram_d_max
    m["sdp.constraints"] = tracer.constraints
    for layer in CALL_COUNTED:
        m[f"{layer}_calls"] = tracer.calls[layer]
    m["certify.audits_failed"] = sum(not a["passed"] for r in reports if r["status"] == "ok"
                                     for a in r["certificate"]["audits"])
    wall = sum(o.wall_s for o in outcomes)
    m["trace.wall_s"] = wall
    m["trace.overhead_frac"] = tracer.total_calls() * per_call_s / wall
    return m


def host_factor(wl: Workload, outcomes: list[Outcome]) -> float:
    """The host's current slowness against its nominal speed, for this workload's mix.

    Raw times are divided by it.  Only the interpreter-bound share is scaled:
    dense linear algebra drifts far less with the host, and a BLAS probe
    (threaded eigh) proved noisier than the drift it was to cancel.
    """
    py = statistics.median(o.python_probe_s for o in outcomes) / PYTHON_PROBE_NOMINAL_S
    return wl.blas_share + (1.0 - wl.blas_share) * py


def machine_note() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    thread_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model or platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {var: os.environ.get(var) for var in thread_vars},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def benchmark(wl: Workload, seed: int, seconds: float, trace: bool,
              setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object plus a typed detail block."""
    specs = [inst.spec for inst in wl.instances]
    setup = [] if trace else measure_setup(specs, setup_repeats)
    graphs = [parse_generator_spec(spec) for spec in specs]
    tracer = Tracer() if trace else None
    if tracer is None:
        passes = run_passes(wl, graphs, seed, seconds)
    else:
        with tracer.installed():
            passes = run_passes(wl, graphs, seed, seconds, tracer)
    outcomes = [o for p, _ in passes for o in p]
    completed = [o for o in outcomes if o.error is None]
    raw_wall = statistics.median(sum(o.wall_s for o in p) for p, _ in passes)

    if trace:
        layer_runs = [layers for _, layers in passes]
        metrics = {name: (statistics.median_low if unit == "count" else statistics.median)(
                       run[name] for run in layer_runs) for name, unit in PER_LAYER_UNITS.items()}
        units = PER_LAYER_UNITS
    else:
        ratios = [o.report["ratios"]["mean_vs_sdp"] for o in completed]
        metrics = {
            "setup_s": statistics.median(t * PYTHON_PROBE_NOMINAL_S / probe for t, probe in setup),
            "wall_s": raw_wall / host_factor(wl, outcomes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "completed_frac": len(completed) / len(outcomes),
            "ratio_mean_vs_sdp": statistics.fmean(ratios) if ratios else 0.0,
        }
        units = END_TO_END_UNITS
    return {
        "correct": not any(o.incorrect for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(outcomes) - len(completed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "detail": {
            "machine": machine_note(),
            "setup_runs": [{"setup_s": t, "python_probe_s": probe} for t, probe in setup],
            "wall_raw_s": raw_wall,
            "host_factor": host_factor(wl, outcomes),
            "passes": [
                [{"instance": o.spec, "wall_s": o.wall_s, "error": o.error,
                  "python_probe_s": o.python_probe_s,
                  "admm_iters": None if o.report is None else admm_iterations(o.report),
                  "ratio_mean_vs_sdp": (o.report["ratios"]["mean_vs_sdp"]
                                        if o.error is None else None)}
                 for o in p]
                for p, _ in passes
            ],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    for p in detail["passes"]:
        for row in p:
            if row["error"] is not None:
                print(f"perfbench: {row['instance']}: {row['error']}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      **detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
