import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcut import Graph, GraphError, generate, parse_graph, serialize_graph
from qmcut.graph import parse_generator_spec


def test_parse_single_edge():
    g = parse_graph("2\n0 1 1.0")
    assert g.n == 2
    assert g.edges == ((0, 1, 1.0),)


def test_parse_triangle():
    g = parse_graph("3\n0 1 1\n1 2 1\n0 2 1")
    assert g.n == 3
    assert g.num_edges == 3
    assert all(w == 1.0 for _, _, w in g.edges)


def test_parse_rejects_self_loop():
    with pytest.raises(GraphError):
        parse_graph("2\n0 0 1.0")


def test_parse_rejects_negative_weight():
    with pytest.raises(GraphError, match="weight"):
        parse_graph("2\n0 1 -1.0")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(GraphError, match="duplicate"):
        parse_graph("3\n0 1 1\n1 0 2")


def test_parse_reports_line_numbers():
    with pytest.raises(GraphError, match="line 3"):
        parse_graph("3\n0 1 1\n0 2\n")


def test_parse_rejects_out_of_range_vertex():
    with pytest.raises(GraphError):
        parse_graph("2\n0 5 1.0")


def test_parse_comments_and_blank_lines():
    g = parse_graph("# header\n\n3  # count\n0 1 1.5 # edge\n\n# done\n")
    assert g.n == 3
    assert g.edges == ((0, 1, 1.5),)


def test_parse_reorders_edges_canonically():
    g = parse_graph("3\n2 1 1\n1 0 2")
    assert g.edges == ((0, 1, 2.0), (1, 2, 1.0))


def test_parse_json():
    g = parse_graph('{"n": 4, "edges": [[2, 0, 1.5], [1, 3, 2.0]]}', fmt="json")
    assert g.n == 4
    assert g.edges == ((0, 2, 1.5), (1, 3, 2.0))


def test_parse_json_infers_vertex_count():
    g = parse_graph('{"edges": [[0, 6, 1.0]]}', fmt="json")
    assert g.n == 7


def test_parse_json_rejects_garbage():
    with pytest.raises(GraphError):
        parse_graph("{not json", fmt="json")


def test_parse_json_rejects_non_list_edge_entry():
    with pytest.raises(GraphError, match="edge entries"):
        parse_graph('{"edges": [5]}', fmt="json")


def test_parse_json_rejects_bool_vertex_count():
    with pytest.raises(GraphError, match="'n'"):
        parse_graph('{"n": true, "edges": []}', fmt="json")


def test_parse_json_rejects_fractional_vertex_id():
    with pytest.raises(GraphError, match="int i, int j"):
        parse_graph('{"edges": [[0.5, 1, 1]]}', fmt="json")


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 8))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    weights = draw(st.lists(st.floats(0.0, 10.0, allow_nan=False),
                            min_size=len(chosen), max_size=len(chosen)))
    return Graph.from_edges(n, [(i, j, w) for (i, j), w in zip(chosen, weights)])


@settings(max_examples=60, deadline=None)
@given(graphs(), st.sampled_from(["edge-list", "json"]))
def test_round_trip_identity(g, fmt):
    assert parse_graph(serialize_graph(g, fmt), fmt) == g


def test_generate_complete():
    g = generate("complete", {"n": 3})
    assert g.num_edges == 3


def test_generate_star():
    g = generate("star", {"d": 4})
    assert g.n == 5
    assert g.num_edges == 4
    assert all(i == 0 for i, _, _ in g.edges)


def test_generate_path_and_cycle():
    assert generate("path", {"n": 3}).edges == ((0, 1, 1.0), (1, 2, 1.0))
    assert generate("cycle", {"n": 5}).num_edges == 5
    with pytest.raises(GraphError):
        generate("cycle", {"n": 2})


def test_generate_erdos_renyi_deterministic():
    a = generate("erdos_renyi", {"n": 8, "p": 0.5}, seed=7)
    b = generate("erdos_renyi", {"n": 8, "p": 0.5}, seed=7)
    assert a == b
    assert generate("erdos_renyi", {"n": 8, "p": 0.5}, seed=8) != a


def test_generate_rejects_bad_params():
    with pytest.raises(GraphError):
        generate("erdos_renyi", {"n": 4, "p": 1.5})
    with pytest.raises(GraphError):
        generate("complete", {"n": 0})
    with pytest.raises(GraphError):
        generate("complete", {"n": 3, "bogus": 1})
    with pytest.raises(GraphError):
        generate("frobnicate", {"n": 3})
    # an infinite weight range is rejected before any draw
    for wmin, wmax in ((0.0, math.inf), (math.inf, math.inf)):
        with pytest.raises(GraphError):
            generate("complete", {"n": 3, "wmin": wmin, "wmax": wmax})


def test_generate_weight_range_deterministic():
    g = generate("complete", {"n": 4, "wmin": 0.5, "wmax": 2.0}, seed=3)
    assert g == generate("complete", {"n": 4, "wmin": 0.5, "wmax": 2.0}, seed=3)
    assert all(0.5 <= w <= 2.0 for _, _, w in g.edges)


def test_neighbor_index_symmetry_and_degrees():
    g = Graph.from_edges(4, [(0, 1, 1.0), (1, 2, 0.0), (0, 3, 2.0)])
    nbrs = g.neighbors
    for i in range(4):
        assert list(nbrs[i]) == sorted(nbrs[i])
        for j in nbrs[i]:
            assert i in nbrs[j]
    assert tuple(len(ids) for ids in nbrs) == (2, 2, 1, 1)
    # zero-weight edges are structural neighbors
    assert 2 in nbrs[1]


def test_neighbor_index_is_built_once():
    g = generate("cycle", {"n": 5})
    assert g.neighbors is g.neighbors


def test_graph_rejects_bad_edges_directly():
    with pytest.raises(GraphError):
        Graph(n=2, edges=((1, 0, 1.0),))  # wrong orientation
    with pytest.raises(GraphError):
        Graph(n=2, edges=((0, 1, float("nan")),))


def test_generator_spec_parsing():
    g = parse_generator_spec("erdos_renyi:n=8,p=0.5,seed=7")
    assert g == generate("erdos_renyi", {"n": 8, "p": 0.5}, seed=7)
    assert parse_generator_spec("complete:n=2").num_edges == 1
    with pytest.raises(GraphError):
        parse_generator_spec("complete:n")
