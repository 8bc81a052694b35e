"""Weighted interaction graphs: data model, file formats, and instance generators.

Graphs are undirected with nonnegative edge weights.  Edges are stored once in
canonical orientation (i < j); zero-weight edges are kept because they still
count as structural neighbors downstream.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Edge = tuple[int, int, float]


class InputError(ValueError):
    """Bad input or setting: the command-line tool reports it and exits 4."""


class GraphError(InputError):
    """Malformed graph data or generator parameters."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Undirected weighted graph on vertices 0..n-1.

    Invariants (checked on construction): every edge satisfies 0 <= i < j < n,
    no duplicate pairs, weights are finite and nonnegative, and so is their
    sum, which the SDP objective's constant term is formed from.  Instances are
    immutable and safe for concurrent reads.
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise GraphError("vertex count must be a nonnegative integer")
        seen: set[tuple[int, int]] = set()
        for i, j, w in self.edges:
            if i == j:
                raise GraphError(f"self-loop on vertex {i}")
            if not (0 <= i < j < self.n):
                raise GraphError(f"edge ({i},{j}) out of range for n={self.n} (need i < j < n)")
            if (i, j) in seen:
                raise GraphError(f"duplicate edge ({i},{j})")
            if not math.isfinite(w) or w < 0:
                raise GraphError(f"edge ({i},{j}) has invalid weight {w}")
            seen.add((i, j))
        try:
            math.fsum(w for _, _, w in self.edges)
        except OverflowError:
            raise GraphError("total edge weight exceeds the float range") from None

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (i, j, w) triples in any orientation or order."""
        canon = []
        for i, j, w in edges:
            i, j = int(i), int(j)
            if i > j:
                i, j = j, i
            canon.append((i, j, float(w)))
        canon.sort(key=lambda e: (e[0], e[1]))
        return cls(n=int(n), edges=tuple(canon))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbour ids of each vertex, zero-weight edges included; built once."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(ids)) for ids in adj)

    def relabeled(self, perm) -> "Graph":
        """Graph with vertex i renamed to perm[i]."""
        return Graph.from_edges(self.n, ((perm[i], perm[j], w) for i, j, w in self.edges))

    def to_json_dict(self) -> dict:
        return {"n": self.n, "edges": [[i, j, w] for i, j, w in self.edges]}


def parse_graph(text: str, fmt: str = "edge-list") -> Graph:
    """Parse a graph from text in 'edge-list' or 'json' format.

    Edge-list: first significant line is the vertex count, each following line
    is "i j w"; '#' starts a comment.  JSON: {"n": int, "edges": [[i,j,w],...]}
    with "n" defaulting to 1 + max vertex id when omitted.
    """
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "json":
        return _parse_json(text)
    raise GraphError(f"unknown graph format {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
    n: int | None = None
    raw_edges: list[tuple[int, int, float, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphError("expected vertex count on first line", line=lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphError(f"invalid vertex count {fields[0]!r}", line=lineno) from None
            continue
        if len(fields) != 3:
            raise GraphError(f"expected 'i j w', got {line!r}", line=lineno)
        try:
            i, j, w = int(fields[0]), int(fields[1]), float(fields[2])
        except ValueError:
            raise GraphError(f"could not parse edge {line!r}", line=lineno) from None
        raw_edges.append((i, j, w, lineno))
    if n is None:
        raise GraphError("empty input: missing vertex count")
    edges = []
    for i, j, w, lineno in raw_edges:
        try:
            _check_edge(i, j, w, n)
        except GraphError as exc:
            raise GraphError(str(exc), line=lineno) from None
        edges.append((i, j, w))
    return Graph.from_edges(n, edges)


def _parse_json(text: str) -> Graph:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("edges"), list):
        raise GraphError("JSON graph must be an object with an 'edges' list")
    edges = data["edges"]
    # Exact types, not isinstance: JSON true and false are bools, which Python counts as ints.
    for e in edges:
        if not (isinstance(e, list) and len(e) == 3 and type(e[0]) is int
                and type(e[1]) is int and type(e[2]) in (int, float)):
            raise GraphError(f"edge entries must be [int i, int j, number w], got {e!r}")
    if "n" in data:
        n = data["n"]
        if type(n) is not int:
            raise GraphError("'n' must be an integer")
    else:
        n = 1 + max((max(e[0], e[1]) for e in edges), default=-1)
    for i, j, w in edges:
        try:
            w = float(w)
        except OverflowError:
            raise GraphError(f"edge ({i},{j}) has a weight too large for a float") from None
        _check_edge(i, j, w, n)
    return Graph.from_edges(n, edges)


def _check_edge(i: int, j: int, w: float, n: int) -> None:
    if i == j:
        raise GraphError(f"self-loop on vertex {i}")
    if not (0 <= i < n and 0 <= j < n):
        raise GraphError(f"edge ({i},{j}) references a vertex >= n={n}")
    if not math.isfinite(w) or w < 0:
        raise GraphError(f"edge ({i},{j}) has invalid weight {w}")


def serialize_graph(g: Graph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        lines = [str(g.n)]
        lines.extend(f"{i} {j} {w!r}" for i, j, w in g.edges)
        return "\n".join(lines) + "\n"
    if fmt == "json":
        return json.dumps(g.to_json_dict()) + "\n"
    raise GraphError(f"unknown graph format {fmt!r}")


def generate(kind: str, params: dict, seed: int = 0) -> Graph:
    """Deterministic benchmark instances; pure function of (kind, params, seed).

    Kinds: complete(n), cycle(n), star(d), path(n), erdos_renyi(n, p).
    Weights default to 1.0; pass wmin/wmax for uniform random weights.
    """
    params = dict(params)
    wmin = params.pop("wmin", None)
    wmax = params.pop("wmax", None)
    if (wmin is None) != (wmax is None):
        raise GraphError("wmin and wmax must be given together")
    rng = np.random.default_rng(seed)

    if kind == "complete":
        n = _int_param(params, "n", low=1)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    elif kind == "cycle":
        n = _int_param(params, "n", low=3)
        pairs = [(i, (i + 1) % n) for i in range(n)]
    elif kind == "star":
        d = _int_param(params, "d", low=1)
        n = d + 1
        pairs = [(0, k) for k in range(1, n)]
    elif kind == "path":
        n = _int_param(params, "n", low=1)
        pairs = [(i, i + 1) for i in range(n - 1)]
    elif kind == "erdos_renyi":
        n = _int_param(params, "n", low=1)
        p = float(params.pop("p", -1.0))
        if not (0.0 <= p <= 1.0):
            raise GraphError(f"erdos_renyi needs 0 <= p <= 1, got {p}")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    else:
        raise GraphError(f"unknown generator kind {kind!r}")

    if params:
        raise GraphError(f"unexpected parameters for {kind}: {sorted(params)}")

    if wmin is None:
        weights = [1.0] * len(pairs)
    else:
        wmin, wmax = float(wmin), float(wmax)
        if not (0.0 <= wmin <= wmax < math.inf):
            raise GraphError(f"need 0 <= wmin <= wmax < inf, got ({wmin}, {wmax})")
        weights = [float(rng.uniform(wmin, wmax)) for _ in pairs]
    return Graph.from_edges(n, [(i, j, w) for (i, j), w in zip(pairs, weights)])


def _int_param(params: dict, name: str, low: int) -> int:
    if name not in params:
        raise GraphError(f"missing parameter {name!r}")
    return _int_value(name, params.pop(name), low)


def _int_value(name: str, value, low: int) -> int:
    """value as an int when it is a whole number >= low; inf, nan and fractions fail."""
    whole = isinstance(value, numbers.Integral) or (isinstance(value, float)
                                                   and value.is_integer())
    if not whole or value < low:
        raise GraphError(f"parameter {name}={value} must be an integer >= {low}")
    return int(value)


def parse_generator_spec(spec: str) -> Graph:
    """Parse "kind:key=value,key=value" (e.g. "erdos_renyi:n=8,p=0.4,seed=3")."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip()
    params: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if not _:
                raise GraphError(f"bad generator parameter {item!r} (expected key=value)")
            if key in params:
                raise GraphError(f"repeated generator parameter {key!r}")
            try:
                params[key] = float(value)
            except ValueError:
                raise GraphError(f"bad numeric value in {item!r}") from None
    seed = _int_value("seed", params.pop("seed", 0), low=0)
    return generate(kind, params, seed=seed)
