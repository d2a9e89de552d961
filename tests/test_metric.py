import json
import re
import tracemalloc

import numpy as np
import pytest
from conftest import uniform_metric

from revgreedy import metric
from revgreedy.lowerbound import build_lower_bound_instance
from revgreedy.metric import (DisconnectedGraphError, MetricSpace,
                              WeightedGraph, load_instance, metric_from_graph,
                              random_metric, save_instance, validate_metric)


def test_path_graph_distances():
    g = WeightedGraph(3, ((0, 1, 1), (1, 2, 2)))
    m = metric_from_graph(g)
    assert m.dist[0, 2] == 3
    assert m.dist[0, 1] == 1
    assert m.mode == "int"


def test_star_graph_leaf_pairs_at_two():
    g = WeightedGraph(4, ((0, 1, 1), (0, 2, 1), (0, 3, 1)))
    m = metric_from_graph(g)
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            assert m.dist[a, b] == (0 if a == b else 2)


def test_lower_bound_k2_center_distance():
    inst = build_lower_bound_instance(2)
    c0, c1 = inst.stars[0].center, inst.stars[1].center
    assert inst.metric.dist[c0, c1] == 1


def test_disconnected_graph_names_pair():
    g = WeightedGraph(4, ((0, 1, 1), (2, 3, 1)))
    with pytest.raises(DisconnectedGraphError, match=r"\d+ and \d+"):
        metric_from_graph(g)


def test_graph_rejects_self_loop_and_bad_weight():
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 0, 1),))
    with pytest.raises(ValueError):
        WeightedGraph(3, ((0, 1, 0),))


def test_metric_from_graph_output_is_valid():
    g = WeightedGraph(5, ((0, 1, 2), (1, 2, 1), (2, 3, 4), (3, 4, 1), (0, 4, 9)))
    assert validate_metric(metric_from_graph(g)).ok


def test_validate_symmetry_violation():
    d = np.array([[0, 1], [2, 0]])
    report = validate_metric(MetricSpace(dist=d))
    assert not report.ok
    assert ("symmetry", (0, 1)) in report.violations


def test_validate_triangle_violation():
    d = np.array([[0, 1, 10], [1, 0, 1], [10, 1, 0]])
    report = validate_metric(MetricSpace(dist=d))
    axioms = [axiom for axiom, _ in report.violations]
    assert "triangle" in axioms
    witness = dict(report.violations)["triangle"]
    a, b, c = witness
    assert d[a][c] > d[a][b] + d[b][c]


def test_validate_triangle_without_int64_wrap():
    # 2^62 + 2^62 wraps to -2^63 in int64; the metric is still valid.
    big = 2**62
    d = np.array([[0, big, big], [big, 0, big], [big, big, 0]])
    assert validate_metric(MetricSpace(dist=d)).ok
    d = np.array([[0, 2**61, big + 1], [2**61, 0, 2**61], [big + 1, 2**61, 0]])
    assert validate_metric(MetricSpace(dist=d)).violations == [("triangle", (0, 1, 2))]
    # Two entries below -2^62 sum past -2^63: 0 > d01 + d10 is a violation.
    d = np.array([[0, -big - 1], [-big - 1, 0]])
    assert validate_metric(MetricSpace(dist=d)).violations == [
        ("positivity", (0, 1)), ("triangle", (1, 0, 1))]


def test_validate_identity_and_positivity():
    d = np.array([[1, 1], [1, 0]])
    assert ("identity", (0, 0)) in validate_metric(MetricSpace(dist=d)).violations
    d = np.array([[0, 0], [0, 0]])
    assert ("positivity", (0, 1)) in validate_metric(MetricSpace(dist=d)).violations


def test_validate_reports_valid():
    assert str(validate_metric(uniform_metric(4))) == "valid"


@pytest.mark.parametrize("kind", ["euclidean", "random-graph"])
def test_random_metric_deterministic(kind):
    a = random_metric(kind, 9, 7)
    b = random_metric(kind, 9, 7)
    assert np.array_equal(a.dist, b.dist)


def test_random_metric_modes():
    assert random_metric("euclidean", 5, 1).mode == "float"
    assert random_metric("random-graph", 5, 1).mode == "int"


def test_random_graph_metric_is_valid():
    assert validate_metric(random_metric("random-graph", 8, 7)).ok


def test_random_metric_single_point():
    m = random_metric("euclidean", 1, 3)
    assert m.n == 1
    assert m.dist[0, 0] == 0


@pytest.mark.parametrize("kind, flags", [
    ("euclidean", dict(dim=0)),
    ("random-graph", dict(edge_prob=float("nan"))),
    ("random-graph", dict(edge_prob=-0.5)),
    ("random-graph", dict(edge_prob=1.5)),
], ids=str)
def test_random_metric_rejects_flags_that_make_no_instance(kind, flags):
    with pytest.raises(ValueError, match="dim|edge_prob"):
        random_metric(kind, 3, 0, **flags)


def test_random_metric_rejects_empty():
    with pytest.raises(ValueError):
        random_metric("euclidean", 0, 1)


def test_single_edge_weight_increase_never_shrinks_distances():
    # Recomputation oracle on a fixed small graph.
    edges = [(0, 1, 2), (1, 2, 3), (2, 3, 1), (0, 3, 4), (1, 3, 2)]
    base = metric_from_graph(WeightedGraph(4, tuple(edges)))
    for i in range(len(edges)):
        bumped = list(edges)
        u, v, w = bumped[i]
        bumped[i] = (u, v, w + 3)
        heavier = metric_from_graph(WeightedGraph(4, tuple(bumped)))
        assert (heavier.dist >= base.dist).all()


def test_instance_roundtrip_graph(tmp_path):
    inst = build_lower_bound_instance(3)
    path = tmp_path / "inst.json"
    save_instance(path, inst.metric, k=3, graph=inst.graph)
    m, k = load_instance(path)
    assert k == 3
    assert np.array_equal(m.dist, inst.metric.dist)
    assert m.labels == inst.metric.labels


def test_instance_roundtrip_matrix_float(tmp_path):
    m = random_metric("euclidean", 6, 11)
    path = tmp_path / "inst.json"
    save_instance(path, m, k=2)
    loaded, k = load_instance(path)
    assert k == 2
    assert np.array_equal(loaded.dist, m.dist)
    assert loaded.mode == "float"


def test_instance_rejects_graph_and_matrix(tmp_path):
    doc = {"version": 1, "mode": "int", "n": 2, "k": 1,
           "graph": {"edges": [[0, 1, 1]]}, "matrix": [[0, 1], [1, 0]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="both"):
        load_instance(path)


@pytest.mark.parametrize("mode", ["int", "float"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_metric_rejects_non_finite(mode, bad):
    d = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="finite"):
        MetricSpace(dist=d, mode=mode)


def test_graph_instance_with_too_few_edges_rejected_before_apsp(tmp_path):
    # A million vertices would need an n x n table; one edge cannot connect them.
    path = tmp_path / "sparse.json"
    path.write_text(json.dumps({"version": 1, "mode": "int", "n": 10**6,
                                "graph": {"edges": [[0, 1, 1]]}}))
    with pytest.raises(DisconnectedGraphError, match="1 edges cannot connect"):
        load_instance(path)


def test_float_graph_instance_rejected_before_apsp(tmp_path, monkeypatch):
    def no_apsp(graph):
        raise AssertionError("shortest paths computed for a rejected instance")

    monkeypatch.setattr(metric, "metric_from_graph", no_apsp)
    path = tmp_path / "path.json"
    path.write_text(json.dumps({"version": 1, "mode": "float", "n": 700, "graph": {
        "edges": [[v, v + 1, 1] for v in range(699)]}}))
    with pytest.raises(ValueError, match="graph instances must be integer mode"):
        load_instance(path)


@pytest.mark.parametrize("dist", [
    np.array([[False, True], [True, False]]),
    np.array([[0, True], [True, 0]], dtype=object),
    [[0, True], [True, 0]],
    [(0, True), (True, 0)],
    ((0, True), (True, 0)),
    [[0.0, True], [True, 0.0]],
], ids=["bool-dtype", "bool-entries", "list-of-lists", "list-of-tuples",
        "tuple-of-tuples", "among-floats"])
def test_metric_rejects_booleans(dist):
    with pytest.raises(ValueError, match="^distances must be numbers, not booleans$"):
        MetricSpace(dist=dist)


@pytest.mark.parametrize("mode, scale", [("int", 1), ("float", 7), ("float", 1)],
                         ids=["int", "float", "float-of-ints"])
def test_metric_adopts_the_table_it_builds_from_a_list(mode, scale):
    # A list of floats becomes one float64 table, which is kept, beside the
    # n x n booleans of its finiteness check.  A list of ints passes through
    # an int64 array on its way to the table's type.
    rows = np.random.default_rng(0).integers(1, 100, (300, 300))
    np.fill_diagonal(rows, 0)
    rows = (rows if scale == 1 else rows / scale).tolist()
    tracemalloc.start()
    try:
        m = MetricSpace(dist=rows, mode=mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if scale != 1:
        assert peak < 1.25 * 8 * m.n ** 2
    assert m.dist.dtype == (np.uint8 if mode == "int" else np.float64)
    assert m.dist.tolist() == rows and not m.dist.flags.writeable


@pytest.mark.parametrize("as_list", [True, False])
def test_float_metric_stores_zeros_as_positive_zero(as_list):
    # -0.0 equals 0.0 but prints as "-0.0"; a shared read-only table that
    # holds one is copied, not changed.
    d = np.array([[-0.0, -0.0, 1.5], [-0.0, 0.0, 1.5], [1.5, 1.5, -0.0]])
    d.setflags(write=False)
    m = MetricSpace(dist=d.tolist() if as_list else d, mode="float")
    assert m.dist.tolist() == d.tolist() and not np.signbit(m.dist).any()
    assert np.signbit(d).sum() == 4


def test_float_metric_rejects_ints_beyond_float_range():
    rows = [[0, 10**400], [10**400, 0]]
    for d in (np.array(rows, dtype=object), rows):
        with pytest.raises(ValueError, match="finite"):
            MetricSpace(dist=d, mode="float")


@pytest.mark.parametrize("key", ["version", "mode", "n"])
def test_instance_missing_schema_key(tmp_path, key):
    doc = {"version": 1, "mode": "int", "n": 2, "matrix": [[0, 1], [1, 0]]}
    del doc[key]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"lacks '{key}'"):
        load_instance(path)


def test_int_mode_rejects_uint64_entries_beyond_int64():
    # A uint64 array keeps 2**63 exactly; converting it to int64 would wrap.
    for top in (2**63, 2**64 - 1):
        d = np.array([[0, top], [top, 0]], np.uint64)
        with pytest.raises(ValueError, match="within the int64 range"):
            MetricSpace(dist=d, mode="int")
    fits = MetricSpace(dist=np.array([[0, 2**63 - 1], [2**63 - 1, 0]], np.uint64))
    assert fits.dist.dtype == np.int64 and fits.dist[0, 1] == 2**63 - 1


@pytest.mark.parametrize("matrix, axiom, witness", [
    ([[0, 2**62], [-2**62, 0]], "symmetry", (0, 1)),
    ([[-2**63, 1], [1, 0]], "identity", (0, 0)),
    ([[0, 32767], [-1, 0]], "symmetry", (0, 1)),
    ([[-32768, 1], [1, 0]], "identity", (0, 0)),
], ids=["int64-symmetry", "int64-identity", "int16-symmetry", "int16-identity"])
def test_axiom_checks_do_not_wrap(matrix, axiom, witness):
    # The difference d - d.T, or the absolute value of a diagonal entry,
    # leaves the table's type (int64, or int16 for the last two, held in
    # their narrowest type): the checks compare entries exactly instead.
    m = MetricSpace(dist=matrix)
    assert dict(validate_metric(m).violations)[axiom] == witness


@pytest.mark.parametrize("big", [2**63, 1e30, -1e30, 10**30])
def test_int_mode_rejects_values_outside_int64(big):
    with pytest.raises(ValueError, match="int64"):
        MetricSpace(dist=[[0, big], [big, 0]], mode="int")
    # The largest int64 still fits.
    top = np.iinfo(np.int64).max
    assert MetricSpace(dist=[[0, top], [top, 0]], mode="int").dist[0, 1] == top


def test_graph_rejects_weights_whose_paths_reach_the_sentinel():
    # Floyd-Warshall adds two entries up to its "no path" sentinel
    # 2 * ecc + 1, ecc the largest distance from vertex 0, so the largest
    # accepted ecc has 2 * (2 * ecc + 1) <= 2**63 - 1.
    top = 2**61 - 1
    edges = ((0, 1, 1), (1, 2, 1), (2, 3, top - 2))
    ok = metric_from_graph(WeightedGraph(4, edges))
    assert [ok.dist[a, 3] for a in range(4)] == [top, top - 1, top - 2, 0]
    assert ok.dist[0, 2] == 2
    with pytest.raises(ValueError, match="too large") as err:
        metric_from_graph(WeightedGraph(4, edges[:2] + ((2, 3, top - 1),)))
    assert not isinstance(err.value, DisconnectedGraphError)


@pytest.mark.parametrize("matrix, witness", [
    ([[1, 1, 1], [1, 0, 1], [1, 1, 0]], "identity violation at (0, 0)"),
    ([[0, 1, 2], [1, 0, 1], [1, 1, 0]], "symmetry violation at (0, 2)"),
    ([[0, -5, 1], [-5, 0, 1], [1, 1, 0]], "positivity violation at (0, 1)"),
    ([[0, 0, 1], [0, 0, 1], [1, 1, 0]], "positivity violation at (0, 1)"),
    ([[0, 1, 5], [1, 0, 1], [5, 1, 0]], "triangle violation at (0, 1, 2)"),
    ([[0, 1, 5], [1, 0, 1], [9, 1, 0]], "symmetry violation at (0, 2)"),
    ([[0, 2**40, 1], [2**40, 0, 1], [1, 1, 0]], "triangle violation at (0, 2, 1)"),
    ([[0, 2**62, 1], [2**62, 0, 2**61], [1, 2**61, 0]], "triangle violation at (0, 2, 1)"),
])
def test_instance_rejects_non_metric_matrix(tmp_path, matrix, witness):
    doc = {"version": 1, "mode": "int", "n": 3, "matrix": matrix}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(witness) + "$"):
        load_instance(path)
    m = MetricSpace(dist=matrix)
    assert str(validate_metric(m)).startswith(witness)


@pytest.mark.parametrize("big", [1, 2**14, 2**30, 2**62])
def test_instance_loads_int_metrics_of_every_scale(tmp_path, big):
    # Scaled uniform metrics pass the triangle check in every table type,
    # up to entries whose sums leave int64.
    matrix = [[0 if a == b else big for b in range(4)] for a in range(4)]
    path = tmp_path / "ok.json"
    path.write_text(json.dumps({"version": 1, "mode": "int", "n": 4, "matrix": matrix}))
    m, _ = load_instance(path)
    assert m.dist[0, 3] == big


def test_instance_checks_pairwise_axioms_once(tmp_path, monkeypatch):
    calls = []
    pairwise = metric._pairwise_axioms
    monkeypatch.setattr(metric, "_pairwise_axioms",
                        lambda m: calls.append(m.n) or pairwise(m))
    matrix = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": 1, "mode": "int", "n": 3, "matrix": matrix}))
    with pytest.raises(ValueError, match=re.escape("triangle violation at (0, 1, 2)")):
        load_instance(path)
    assert calls == [3]


def test_float_matrix_triangle_is_left_to_validate_metric(tmp_path):
    matrix = [[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]]
    path = tmp_path / "float.json"
    path.write_text(json.dumps({"version": 1, "mode": "float", "n": 3, "matrix": matrix}))
    m, _ = load_instance(path)
    assert validate_metric(m).violations == [("triangle", (0, 1, 2))]


@pytest.mark.parametrize("extra, message", [
    ({"graph": {}}, "instance graph lacks 'edges'"),
    ({"graph": {"edges": [3]}}, "lists"),
    ({"graph": {"edges": [[0, 1]]}}, "edge 0 [0, 1] must be [u, v, weight]"),
    ({"graph": {"edges": [[0, "1", 2]]}}, "edge (0,1) out of range"),
    ({"matrix": [[0, "a"], ["a", 0]]}, "numbers"),
    ({"matrix": [[0, None], [None, 0]]}, "numbers"),
    ({"matrix": [[0, 1], [1, 0]], "k": "1"}, "k='1'"),
    ({"matrix": [[0, 1], [1, 0]], "k": True}, "k=True"),
    ({"matrix": [[0, True], [True, 0]]}, "not booleans"),
    ({"matrix": [[0.0, True], [True, 0.0]], "mode": "float"}, "not booleans"),
    ({"graph": {"edges": [[True, 1, 1]]}}, "edge (True,1) out of range"),
    ({"graph": {"edges": [[0, 1, True]]}}, "weight True must be an integer"),
])
def test_instance_rejects_malformed_content(tmp_path, extra, message):
    doc = {"version": 1, "mode": "int", "n": 2, **extra}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_instance(path)
