from dataclasses import dataclass

import pytest

from qmcut import (
    Graph,
    GramSolution,
    SdpModel,
    SolverConfig,
    VectorSolution,
    build_model,
    extract_vectors,
    generate,
    solve,
)

# The benchmark suite: two vertices through three random n=8 instances.
BENCH_SPECS = {
    "K2": ("complete", {"n": 2}, 0),
    "P3": ("path", {"n": 3}, 0),
    "K3": ("complete", {"n": 3}, 0),
    "K13": ("star", {"d": 3}, 0),
    "C5": ("cycle", {"n": 5}, 0),
    "ER8a": ("erdos_renyi", {"n": 8, "p": 0.4}, 1),
    "ER8b": ("erdos_renyi", {"n": 8, "p": 0.4}, 2),
    "ER8c": ("erdos_renyi", {"n": 8, "p": 0.4}, 3),
}
BENCH_NAMES = tuple(BENCH_SPECS)


def bench_graph(name: str) -> Graph:
    kind, params, seed = BENCH_SPECS[name]
    return generate(kind, dict(params), seed=seed)


@dataclass(frozen=True)
class SolvedInstance:
    name: str
    graph: Graph
    model: SdpModel
    gram: GramSolution
    vectors: VectorSolution
    config: SolverConfig


_SOLVED: dict[str, SolvedInstance] = {}


@pytest.fixture(scope="session")
def solved():
    """Memoized solver access: each bench instance is solved at most once per run."""

    def get(name: str) -> SolvedInstance:
        if name not in _SOLVED:
            g = bench_graph(name)
            cfg = SolverConfig()
            model = build_model(g)
            gram = solve(model, cfg)
            _SOLVED[name] = SolvedInstance(
                name=name, graph=g, model=model, gram=gram,
                vectors=extract_vectors(gram), config=cfg,
            )
        return _SOLVED[name]

    return get
