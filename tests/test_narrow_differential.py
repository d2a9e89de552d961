"""The narrow-type loops of revgreedy.metric against plain int64 references.

`metric_from_graph` runs Floyd-Warshall in the first of uint8, int16, int32
and int64 that one Dijkstra pass proves safe, with the pivots in degree
order and, on large graphs, only the block a pivot reaches updated, and
the metric keeps the result in the narrowest type of its entries.  Its
reference is the straightforward int64 loop in index order with a fixed
sentinel; the two must give identical matrices, under the shipped block
rule and under rules that send more pivots through the block at any size,
and the same unreachable pair when the graph is disconnected.  The
triangle check runs in the first of those types that holds every sum of
two entries (uint8 only when no entry is negative); its reference is the
wrap-safe int64 loop, and the two must give the same witness.  A float
table shares that loop, in float64 with the mode's slack; its reference is
a plain loop over the entries.
"""

import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revgreedy import metric
from revgreedy.lowerbound import build_lower_bound_instance, size_formula
from revgreedy.metric import (DisconnectedGraphError, MetricSpace,
                              WeightedGraph, metric_from_graph)

COMMON = dict(deadline=None, derandomize=True)

# Above every distance metric_from_graph accepts (at most 2**62 - 2), and
# twice it still fits int64.
_REF_INF = 2**62 - 1


def reference_apsp(g: WeightedGraph):
    """The int64 matrix, or the first unreachable pair in row order."""
    n = g.vertex_count
    d = np.full((n, n), _REF_INF, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for u, v, w in g.edges:
        w = min(int(w), _REF_INF)
        if w < d[u, v]:
            d[u, v] = w
            d[v, u] = w
    for k in range(n):
        np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :], out=d)
    unreachable = np.argwhere(d >= _REF_INF)
    if unreachable.size:
        return tuple(int(x) for x in unreachable[0])
    return d


# (_BLOCK_MIN_N, _BLOCK_SHARE): the shipped rule; one that blocks every
# pivot short of reaching all vertices, at any size; and one that mixes
# block and whole-table pivots in either order.
RULES = [(metric._BLOCK_MIN_N, metric._BLOCK_SHARE), (0, 1), (0, 4)]


def assert_matches_reference(g: WeightedGraph):
    expected = reference_apsp(g)
    for least, share in RULES:
        with mock.patch.multiple(metric, _BLOCK_MIN_N=least, _BLOCK_SHARE=share):
            if isinstance(expected, tuple):
                a, b = expected
                with pytest.raises(DisconnectedGraphError,
                                   match=f"^no path between vertices {a} and {b}$"):
                    metric_from_graph(g)
                continue
            m = metric_from_graph(g)
        stored = metric._narrowest(int(expected.max()), int(expected.min()))
        assert m.dist.dtype == stored and m.mode == "int"
        assert not m.dist.flags.writeable
        assert np.array_equal(m.dist, expected)
    return expected


# Weight scales: the family's small weights, ones near the uint8/int16
# edge, and ones that force int32 and int64 tables.  A path of 39 edges at
# the top scale stays below the largest accepted eccentricity, 2**61 - 1.
scales = st.sampled_from([1, 9, 13, 1000, 2**14, 2**20, 2**29, 2**40, 2**55])


@st.composite
def graphs(draw, connected=True):
    n = draw(st.integers(1, 12))
    top = draw(scales)
    weight = st.integers(1, top)
    edges = []
    if connected:
        edges += [(draw(st.integers(0, v - 1)), v, draw(weight))
                  for v in range(1, n)]
    if n > 1:
        pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
            lambda p: p[0] != p[1])
        extra = draw(st.lists(st.tuples(pair, weight), max_size=2 * n))
        edges += [(u, v, w) for (u, v), w in extra]
    return WeightedGraph(n, tuple(draw(st.permutations(edges))))


@settings(max_examples=200, **COMMON)
@given(g=graphs())
def test_random_connected_graphs(g):
    assert_matches_reference(g)


@settings(max_examples=200, **COMMON)
@given(g=graphs(connected=False))
def test_random_graphs_disconnected_or_not(g):
    assert_matches_reference(g)


@settings(max_examples=100, **COMMON)
@given(n=st.integers(1, 40), top=scales, data=st.data())
def test_paths(n, top, data):
    order = data.draw(st.permutations(range(n)))
    weights = data.draw(st.lists(st.integers(1, top), min_size=n - 1,
                                 max_size=n - 1))
    g = WeightedGraph(n, tuple(zip(order, order[1:], weights)))
    assert_matches_reference(g)


@settings(max_examples=100, **COMMON)
@given(g=graphs(), data=st.data())
def test_parallel_edges_heavier_than_the_sentinel(g, data):
    edges = tuple(map(tuple, g.edges.tolist()))
    if not edges:
        return
    ecc = int(reference_apsp(g)[0].max())
    sentinel = 2 * ecc + 1
    copies = data.draw(st.lists(st.sampled_from(edges), min_size=1, max_size=4))
    extra = tuple((u, v, data.draw(st.integers(1, 4 * sentinel)))
                  for u, v, _ in copies)
    heavy = tuple((u, v, sentinel + data.draw(st.integers(0, 10**30)))
                  for u, v, _ in copies)
    assert_matches_reference(WeightedGraph(g.vertex_count, edges + extra + heavy))


@pytest.mark.parametrize("k", range(2, 13))
def test_family(k):
    assert_matches_reference(build_lower_bound_instance(k).graph)


@pytest.mark.parametrize("k", range(13, 21))
@pytest.mark.parametrize("pad", [0, 40])
def test_family_at_block_sizes(k, pad):
    n = size_formula(k) + pad
    assert n >= metric._BLOCK_MIN_N
    assert_matches_reference(build_lower_bound_instance(k, n).graph)


def _shape(kind: str, n: int, top: int, seed: int) -> WeightedGraph:
    """A path, tree, cycle with chords or near-square grid on n vertices,
    relabelled at random, with weights drawn from 1..top."""
    rng = np.random.default_rng(seed)
    if kind == "path":
        pairs = [(v - 1, v) for v in range(1, n)]
    elif kind == "tree":
        pairs = [(int(rng.integers(v)), v) for v in range(1, n)]
    elif kind == "cycle":
        pairs = [(v, (v + 1) % n) for v in range(n)]
        pairs += [tuple(int(x) for x in rng.choice(n, 2, replace=False))
                  for _ in range(n // 16)]
    else:
        width = int(n ** 0.5)
        pairs = [(v, v + 1) for v in range(n) if (v + 1) % width and v + 1 < n]
        pairs += [(v, v + width) for v in range(n - width)]
    label = rng.permutation(n).tolist()
    return WeightedGraph(n, tuple((label[u], label[v], int(rng.integers(1, top + 1)))
                                  for u, v in pairs))


@pytest.mark.parametrize("kind, n, top, table", [
    ("tree", 256, 1, np.uint8), ("grid", 289, 1, np.uint8),
    ("cycle", 300, 1, np.uint8),
    ("path", 256, 9, np.int16), ("tree", 420, 300, np.int16),
    ("cycle", 333, 30, np.int16), ("grid", 400, 100, np.int16),
    ("path", 301, 2**20, np.int32), ("tree", 380, 2**24, np.int32),
    ("cycle", 420, 2**20, np.int32), ("grid", 256, 2**22, np.int32),
    ("path", 420, 2**40, np.int64), ("tree", 333, 2**50, np.int64),
    ("cycle", 256, 2**52, np.int64), ("grid", 324, 2**54, np.int64),
])
def test_sparse_shapes_at_block_sizes(kind, n, top, table):
    expected = assert_matches_reference(_shape(kind, n, top, seed=n + top))
    assert metric._narrowest(2 * (2 * int(expected[0].max()) + 1)) is table


def test_block_path_keeps_the_result_the_only_table():
    # Floyd-Warshall runs in uint8 (sums up to 2 * 77) beside a uint8
    # temporary, and the metric keeps its table: two bytes an entry and a
    # little for the blocks, where the int64 table held before took eight.
    g = build_lower_bound_instance(20).graph
    tracemalloc.start()
    try:
        m = metric_from_graph(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.dist.dtype == np.uint8
    assert peak < 2.5 * m.dist.nbytes, peak / m.dist.nbytes


@pytest.mark.parametrize("g", [
    WeightedGraph(1, ()),
    WeightedGraph(2, ((0, 1, 7),)),
    WeightedGraph(2, ((1, 0, 3), (0, 1, 2), (0, 1, 10**40))),
    WeightedGraph(2, ()),
], ids=["n=1", "n=2", "n=2-parallel", "n=2-disconnected"])
def test_one_and_two_vertices(g):
    assert_matches_reference(g)


# (weight, Floyd-Warshall's type, the metric's type), named by the first two.
WEIGHT_TYPES = [
    (61, np.uint8, np.uint8), (62, np.int16, np.uint8),
    (253, np.int16, np.uint8), (254, np.int16, np.int16),
    (8189, np.int16, np.int16), (8190, np.int32, np.int16),
    (2**29 - 3, np.int32, np.int32), (2**29 - 2, np.int64, np.int32),
    (2**31 - 3, np.int64, np.int32), (2**31 - 2, np.int64, np.int64),
    (2**61 - 3, np.int64, np.int64),
]


@pytest.mark.parametrize("weight, kind, stored", WEIGHT_TYPES,
                         ids=[f"{w}-{k.__name__}" for w, k, _ in WEIGHT_TYPES])
def test_weights_choose_the_table_type(weight, kind, stored):
    # A path 0-1-2-3 with ecc = weight + 2, so Floyd-Warshall's table must
    # hold 2 * (2 * ecc + 1) = 4 * weight + 10 and the metric's the largest
    # distance, ecc; the chord 0-3 is never shortest.
    g = WeightedGraph(4, ((1, 0, 1), (1, 2, 1), (2, 3, weight), (0, 3, 4 * weight)))
    assert metric._narrowest(4 * weight + 10) is kind
    assert metric_from_graph(g).dist.dtype == stored
    assert_matches_reference(g)


def test_disconnection_names_the_first_unreachable_pair():
    g = WeightedGraph(6, ((0, 2, 1), (2, 4, 1), (1, 3, 1), (3, 5, 1)))
    assert reference_apsp(g) == (0, 1)
    with pytest.raises(DisconnectedGraphError,
                       match=re.escape("no path between vertices 0 and 1")):
        metric_from_graph(g)


def test_metric_shares_read_only_owned_tables_and_copies_the_rest():
    owned = np.array([[0, 2], [2, 0]], dtype=np.uint8)
    owned.setflags(write=False)
    assert np.shares_memory(MetricSpace(dist=owned).dist, owned)
    # A table wider than its entries need is copied into the narrowest type.
    wide = np.array([[0, 2], [2, 0]], dtype=np.int64)
    wide.setflags(write=False)
    m = MetricSpace(dist=wide)
    assert m.dist.dtype == np.uint8 and not np.shares_memory(m.dist, wide)
    floats = np.array([[0.0, 2.5], [2.5, 0.0]])
    floats.setflags(write=False)
    assert np.shares_memory(MetricSpace(dist=floats, mode="float").dist, floats)

    writable = np.array([[0, 2], [2, 0]], dtype=np.int64)
    m = MetricSpace(dist=writable)
    assert not np.shares_memory(m.dist, writable)
    writable[0, 1] = writable[1, 0] = 5
    assert m.dist[0, 1] == 2

    base = np.array([[0, 2], [2, 0]], dtype=np.int64)
    borrowed = base[:]
    borrowed.setflags(write=False)
    m = MetricSpace(dist=borrowed)
    assert not np.shares_memory(m.dist, base)
    base[0, 1] = 5
    assert m.dist[0, 1] == 2

    # An integer table read in floating mode is converted, not shared.
    assert MetricSpace(dist=owned, mode="float").dist.dtype == np.float64


def reference_triangle(d: np.ndarray):
    """First (a, b, c) with d[a, c] > d[a, b] + d[b, c], for the smallest b,
    in int64 with wrapped sums detected."""
    for b in range(d.shape[0]):
        ab, bc = d[:, b : b + 1], d[b : b + 1, :]
        s = ab + bc
        wrapped = ((ab < 0) == (bc < 0)) & ((s < 0) != (ab < 0))
        viol = np.argwhere(np.where(wrapped, ab < 0, d > s))
        if viol.size:
            a, c = (int(x) for x in viol[0])
            return (a, b, c)
    return None


@st.composite
def matrices(draw):
    n = draw(st.integers(1, 8))
    top = draw(st.sampled_from([3, 127, 128, 2**14 - 1, 2**14, 2**30 - 1, 2**30, 2**62, 2**63 - 1]))
    low = draw(st.sampled_from([1, 0, -top]))
    cells = draw(st.lists(st.integers(low, top), min_size=n * n, max_size=n * n))
    d = np.array(cells, dtype=np.int64).reshape(n, n)
    if draw(st.booleans()):
        d = np.triu(d, 1) + np.triu(d, 1).T
    return d


@settings(max_examples=250, **COMMON)
@given(d=matrices())
def test_triangle_check_matches_the_wrap_safe_reference(d):
    found = dict(metric.validate_metric(MetricSpace(dist=d)).violations)
    assert found.get("triangle") == reference_triangle(d)


@settings(max_examples=250, **COMMON)
@given(d=matrices())
def test_triangle_check_type_is_no_wider_than_the_magnitude_rule(d):
    # The rule before uint8 took the first of int16 and int32 holding twice
    # the largest magnitude; a matrix it checked narrow stays narrow.
    hi = max(int(d.max()), -int(d.min()))
    old = next((t for t in (np.int16, np.int32) if 2 * hi <= np.iinfo(t).max), None)
    new = metric._narrowest(2 * int(d.max()), 2 * int(d.min()))
    if old is not None:
        assert np.dtype(new).itemsize <= np.dtype(old).itemsize


def reference_float_triangle(d: np.ndarray, eps: float):
    """First (a, b, c) with d[a, c] > d[a, b] + d[b, c] + eps, for the
    smallest b, entry by entry."""
    n = d.shape[0]
    for b in range(n):
        for a in range(n):
            for c in range(n):
                if d[a, c] > d[a, b] + d[b, c] + eps:
                    return (a, b, c)
    return None


@st.composite
def float_matrices(draw):
    # Small whole numbers make exact triangle ties, and offsets of eps/2 and
    # 2*eps turn them into near-ties on both sides of the slack.
    eps = MetricSpace.eps
    n = draw(st.integers(1, 6))
    base = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0, 0.5, 2.5]),
                         min_size=n * n, max_size=n * n))
    offset = draw(st.lists(st.sampled_from([0.0, eps / 2, -eps / 2, 2 * eps, -2 * eps]),
                           min_size=n * n, max_size=n * n))
    d = (np.array(base) + np.array(offset)).reshape(n, n)
    if draw(st.booleans()):
        d = np.triu(d, 1) + np.triu(d, 1).T
    return d


@settings(max_examples=400, **COMMON)
@given(d=float_matrices())
def test_float_triangle_check_matches_the_plain_reference(d):
    m = MetricSpace(dist=d, mode="float")
    found = dict(metric.validate_metric(m).violations)
    assert found.get("triangle") == reference_float_triangle(m.dist, m.eps)


def test_float_triangle_check_keeps_the_slack():
    eps = MetricSpace.eps
    tie = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    for over, witness in ((eps / 2, None), (2 * eps, (0, 1, 2))):
        d = tie.copy()
        d[0, 2] = d[2, 0] = 2.0 + over
        found = dict(metric.validate_metric(MetricSpace(dist=d, mode="float")).violations)
        assert found.get("triangle") == witness
