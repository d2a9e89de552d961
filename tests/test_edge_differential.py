"""The vectorized edge check of `WeightedGraph` against the per-edge loop.

`WeightedGraph` checks all edges at once, as one int64 array.  Its
reference is the loop that checks one edge at a time and stops at the
first fault: range or type, then self-loop, then weight.  Both must accept
the same edge lists, and raise the same message for the same edge, except
that an edge of the wrong arity is named by its index and content instead
of failing to unpack.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revgreedy.metric import WeightedGraph, is_int, metric_from_graph

COMMON = dict(deadline=None, derandomize=True)


def reference_check(vertex_count, edges):
    """The per-edge loop: raises the first edge's first fault."""
    for u, v, w in tuple(tuple(e) for e in edges):
        if not (is_int(u) and is_int(v)
                and 0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge ({u},{v}) out of range or not integers")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not is_int(w) or w < 1:
            raise ValueError(f"edge ({u},{v}) weight {w} must be an integer >= 1")


def expected_error(vertex_count, edges):
    """The message WeightedGraph must raise, or None if it must accept."""
    try:
        reference_check(vertex_count, edges)
    except ValueError as exc:
        if "values to unpack" not in str(exc):
            return str(exc)
        # The loop stopped at the first edge it could not unpack.
        i = next(i for i, e in enumerate(edges) if len(e) != 3)
        return f"edge {i} {list(edges[i])} must be [u, v, weight]"
    return None


DEFECTS = ("float", "bool", "negative", "out-of-range", "huge", "self-loop",
           "zero-weight", "short", "long")


def plant(edge, defect, n, at):
    """Put one defect into the [u, v, w] list `edge`, at entry `at` where
    the defect has a choice of entry."""
    if defect == "float":
        edge[at] = float(edge[at]) + (0.5 if at == 2 else 0.0)
    elif defect == "bool":
        edge[at] = True
    elif defect == "negative":
        edge[at] = -1 - int(edge[at])
    elif defect == "out-of-range":
        edge[at % 2] = n + at
    elif defect == "huge":
        edge[at] = 2**70
    elif defect == "self-loop":
        edge[1] = edge[0]
    elif defect == "zero-weight":
        edge[2] = 0
    elif defect == "short":
        edge.pop()
    else:  # long
        edge.append(1)


INTEGER_TYPES = (int, np.int64, np.int32, np.uint16)


@st.composite
def edge_lists(draw, min_size=0):
    """A good edge list, entries a mix of Python and numpy integers."""
    n = draw(st.integers(2, 20))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    edges = []
    for u, v in draw(st.lists(pairs, min_size=min_size, max_size=30)):
        kind = draw(st.sampled_from(INTEGER_TYPES))
        edges.append([kind(u), kind(v), kind(draw(st.integers(1, 9)))])
    return n, edges


def assert_matches_reference(n, edges):
    message = expected_error(n, edges)
    if message is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            WeightedGraph(n, edges)
        return
    g = WeightedGraph(n, edges)
    expected = [[int(u), int(v), min(int(w), 2**62)] for u, v, w in edges]
    assert g.edges.dtype == np.int64
    assert g.edges.tolist() == expected


@settings(max_examples=300, **COMMON)
@given(case=edge_lists(min_size=1), data=st.data())
def test_one_planted_defect_raises_like_the_loop(case, data):
    n, edges = case
    i = data.draw(st.integers(0, len(edges) - 1))
    plant(edges[i], data.draw(st.sampled_from(DEFECTS)), n,
          data.draw(st.integers(0, 2)))
    assert_matches_reference(n, edges)


@settings(max_examples=200, **COMMON)
@given(case=edge_lists(min_size=1), data=st.data())
def test_several_defects_report_the_first_faulty_edge(case, data):
    n, edges = case
    for _ in range(data.draw(st.integers(2, 4))):
        whole = [i for i, e in enumerate(edges) if len(e) == 3]
        if not whole:
            break
        i = data.draw(st.sampled_from(whole))
        plant(edges[i], data.draw(st.sampled_from(DEFECTS)), n,
              data.draw(st.integers(0, 2)))
    assert_matches_reference(n, edges)


@settings(max_examples=100, **COMMON)
@given(case=edge_lists())
def test_good_edge_lists_are_accepted(case):
    assert_matches_reference(*case)


def test_huge_weights_clamp_and_keep_distances():
    g = WeightedGraph(3, ((0, 1, 1), (1, 2, 2), (0, 2, 2**70),
                          (0, 2, np.uint64(2**64 - 1))))
    assert g.edges[2:, 2].tolist() == [2**62, 2**62]
    assert metric_from_graph(g).dist.tolist() == [[0, 1, 3], [1, 0, 2], [3, 2, 0]]


def test_edges_from_an_iterator_are_checked_like_a_list():
    with pytest.raises(ValueError, match=re.escape("edge 0 [0, 1] must be")):
        WeightedGraph(3, iter([(0, 1), (1, 2, 1, 1)]))
    g = WeightedGraph(3, (e for e in [(0, 1, 1), (1, 2, 3)]))
    assert g.edges.tolist() == [[0, 1, 1], [1, 2, 3]]


def test_wrong_arity_after_a_faulty_edge_reports_the_fault():
    with pytest.raises(ValueError, match=r"^self-loop at vertex 0$"):
        WeightedGraph(3, ((0, 1, 1), (0, 0, 1), (0, 1)))
    with pytest.raises(ValueError, match=re.escape("edge 1 [0, 1] must be")):
        WeightedGraph(3, ((0, 1, 1), (0, 1), (0, 0, 1)))
