"""Differential tests of the threshold graph that the exact oracle and the
consolidation number share: the bitmask cover sets, the bitmask
Bron-Kerbosch, and gamma built on them, each against a slow reference."""

from itertools import combinations

import numpy as np
from conftest import cover_masks_reference, gamma_unrestricted, maximal_cliques_brute
from hypothesis import given, settings, strategies as st

from revgreedy.consolidation import _maximal_cliques, gamma
from revgreedy.exact import _cover_masks, exact_opt
from revgreedy.metric import FLOAT_EPS, MetricSpace, random_metric


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 10))
    pairs = list(combinations(range(n), 2))
    edges = [pair for pair, on in zip(pairs, draw(st.lists(
        st.booleans(), min_size=len(pairs), max_size=len(pairs)))) if on]
    return n, edges


@settings(max_examples=200, deadline=None, derandomize=True)
@given(graphs(), st.data())
def test_maximal_cliques_match_brute_force(graph, data):
    n, edges = graph
    neighbours = [set() for _ in range(n)]
    for a, b in edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    masks = [sum(1 << v for v in nbrs) for nbrs in neighbours]
    subset = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1)))
    induced = [{subset.index(u) for u in neighbours[v] if u in subset}
               for v in subset]
    # Brute force numbers the vertices 0, 1, ... in `vertices` order.
    for vertices, adjacency in ((range(n), neighbours), (subset, induced)):
        cliques = _maximal_cliques(masks, sum(1 << v for v in vertices))
        found = [frozenset(i for i, v in enumerate(vertices) if clique >> v & 1)
                 for clique in cliques]
        assert len(set(found)) == len(found)
        assert set(found) == maximal_cliques_brute(adjacency)


@st.composite
def near_radius_metrics(draw):
    """A symmetric matrix whose off-diagonal distances sit at the radius or
    just inside or outside its slack: +-1 in integer mode, +-eps/2 and
    +-2 eps in floating mode.  Up to 20 points, so masks span three bytes."""
    mode = draw(st.sampled_from(["int", "float"]))
    n = draw(st.integers(1, 20))
    if mode == "int":
        radius = draw(st.integers(1, 2**40))
        offsets = [-1, 0, 1, -radius // 2, radius]
    else:
        radius = draw(st.floats(0.01, 1e3))
        offsets = [-2 * FLOAT_EPS, -FLOAT_EPS / 2, 0.0, FLOAT_EPS / 2,
                   FLOAT_EPS, 2 * FLOAT_EPS]
    picks = draw(st.lists(st.sampled_from(offsets), min_size=n * n, max_size=n * n))
    d = np.array([radius + o for o in picks], dtype=object).reshape(n, n)
    d = np.triu(d, 1)
    d = d + d.T
    return MetricSpace(dist=d.tolist(), mode=mode), radius


@settings(max_examples=200, deadline=None, derandomize=True)
@given(near_radius_metrics())
def test_cover_masks_match_per_point_reference(case):
    m, radius = case
    assert _cover_masks(m, radius) == cover_masks_reference(m, radius)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["euclidean", "random-graph"]), n=st.integers(4, 9),
       seed=st.integers(0, 10**6), k=st.integers(2, 3), data=st.data())
def test_gamma_matches_unrestricted_search_on_drawn_instances(kind, n, seed, k, data):
    m = random_metric(kind, n, seed)
    opt = exact_opt(m, k)
    facilities = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    assert gamma(m, opt, facilities) == gamma_unrestricted(m, opt, facilities)
