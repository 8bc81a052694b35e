"""Fast self-test of the benchmark: python3 -m pytest perfbench"""

import json

from run import (END_TO_END_UNITS, PER_LAYER_UNITS, ROOT, Instance, Workload, benchmark,
                 run_passes, without_timings)
from tracing import Tracer

from qmcut.graph import parse_generator_spec

K2 = Instance("complete:n=2", 1.0000000005094025)
K3 = Instance("complete:n=3", 1.500000000619707)
# path:n=8 does not converge within the solver's default 200 000 iterations.
PATH8_CAPPED = Instance("path:n=8", 0.0, max_iterations=100)

TINY = Workload((K2, K3), rounds=20)
# sim_limit below n routes every sample, and the per-edge audit, through the
# closed-form energy, so all wrapped layers run.
TINY_AUDIT = Workload((K3,), rounds=20, sim_limit=2, audits=True, energy_kind="bound")


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_every_declared_metric_is_emitted_with_its_unit():
    assert END_TO_END_UNITS == declared("end_to_end")
    assert PER_LAYER_UNITS == declared("per_layer")
    for trace, units in ((False, END_TO_END_UNITS), (True, PER_LAYER_UNITS)):
        result = benchmark(TINY, seed=3, seconds=0, trace=trace, setup_repeats=1)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 2
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_capped_nonconverging_instance_is_a_failure_not_a_crash():
    result = benchmark(Workload((K2, PATH8_CAPPED), rounds=5), seed=0, seconds=0, trace=False,
                       setup_repeats=1)
    assert result["attempted"] == 2 and result["failed"] == 1
    assert result["correct"]
    assert result["metrics"]["completed_frac"]["value"] == 0.5
    errors = [row["error"] for row in result["detail"]["passes"][0]]
    assert errors == [None, "solver_failure at sdp"]


def test_wrong_reference_objective_is_incorrect():
    result = benchmark(Workload((Instance(K2.spec, 2.0),), rounds=5), seed=0, seconds=0,
                       trace=False, setup_repeats=1)
    assert result["failed"] == 1 and not result["correct"]


def test_traced_and_untraced_runs_produce_the_same_reports():
    for wl in (TINY, TINY_AUDIT):
        graphs = [parse_generator_spec(inst.spec) for inst in wl.instances]
        plain = run_passes(wl, graphs, seed=5, seconds=0)
        tracer = Tracer()
        with tracer.installed():
            traced = run_passes(wl, graphs, seed=5, seconds=0, tracer=tracer)
        assert ([without_timings(o.report) for o in plain[0][0]]
                == [without_timings(o.report) for o in traced[0][0]])
        layers = traced[0][1]
        assert layers["trace.wall_s"] > 0 and layers["sdp.solve_s"] > 0
    assert layers["energy.edge_energy_bound_calls"] > 0
    assert layers["certify.per_edge_ratio_audit_s"] > 0
