"""Differential tests of the threshold graph that the exact oracle and the
consolidation number share: the bitmask cover sets, the bitmask
Bron-Kerbosch, and gamma built on them, each against a slow reference;
and the clique cap, which must stop Bron-Kerbosch early."""

from itertools import combinations

import numpy as np
import pytest
from conftest import cover_masks_reference, gamma_unrestricted, maximal_cliques_brute
from hypothesis import given, settings, strategies as st

from revgreedy import consolidation
from revgreedy.consolidation import GammaCapError, _maximal_cliques, gamma
from revgreedy.exact import _cover_masks, exact_opt, optimal_solution
from revgreedy.metric import FLOAT_EPS, MetricSpace, random_metric, validate_metric


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
    just inside or outside it: +-1 in integer mode, +-eps/2 and +-2 eps in
    floating mode, which the masks compare exactly.  Up to 20 points, so
    masks span three bytes."""
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
    d = np.triu(np.array([radius + o for o in picks], dtype=object).reshape(n, n), 1)
    return MetricSpace(dist=(d + d.T).tolist(), mode=mode), radius


@settings(max_examples=200, deadline=None, derandomize=True)
@given(near_radius_metrics())
def test_cover_masks_match_per_point_reference(case):
    m, radius = case
    assert _cover_masks(m, radius) == cover_masks_reference(m, radius)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(near_radius_metrics(), st.data())
def test_cover_masks_of_a_subset_match_the_reference_restricted(case, data):
    m, radius = case
    points = sorted(data.draw(st.sets(st.integers(0, m.n - 1), min_size=1)))
    every = cover_masks_reference(m, radius)
    # Entry i and bit j stand for points[i] and points[j].
    assert _cover_masks(m, radius, points) == [
        sum(1 << j for j, q in enumerate(points) if every[p] >> q & 1) for p in points]


def cocktail_party_metric(pairs):
    """Hubs 0 and 1, and pairs (2 + 2i, 3 + 2i) at distance 3; hub 0 lies at
    1 from the first point of every pair, hub 1 at 1 from the second, and
    every other two points are 2 apart.  With the hubs as centres the
    optimum for k=2 is 1, and the threshold graph at 2 lacks only the pairs'
    own edges: a cocktail-party graph plus two hubs, whose maximal cliques
    take one point of each pair, 2**pairs of them."""
    n = 2 + 2 * pairs
    d = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(d, 0)
    for a in range(2, n, 2):
        d[a, a + 1] = d[a + 1, a] = 3
        d[0, a] = d[a, 0] = d[1, a + 1] = d[a + 1, 1] = 1
    return MetricSpace(dist=d, mode="int")


def test_cocktail_party_cliques_and_the_cap_as_a_prefix():
    m = cocktail_party_metric(4)
    assert validate_metric(m).ok
    masks = [mask & ~(1 << p) for p, mask in enumerate(_cover_masks(m, 2))]
    every = _maximal_cliques(masks, (1 << m.n) - 1)
    assert len(every) == len(set(every)) == 2**4
    assert all(clique & 0b11 == 0b11 for clique in every)
    for cap in (0, 1, 5, 15):
        assert _maximal_cliques(masks, (1 << m.n) - 1, cap) == every[:cap + 1]
    assert _maximal_cliques(masks, (1 << m.n) - 1, 16) == every


@pytest.mark.parametrize("pairs", [16, 24, 40])
@pytest.mark.parametrize("cap", [10, 2000])
def test_clique_cap_stops_bron_kerbosch(pairs, cap, monkeypatch):
    """n = 34 already has 65,536 maximal cliques; each further pair doubles
    that, but the calls stay near the cap whatever n is."""
    m = cocktail_party_metric(pairs)
    opt = optimal_solution(m, 1, {0, 1})
    calls = 0
    expand = consolidation._expand

    def counting_expand(*args):
        nonlocal calls
        calls += 1
        return expand(*args)

    monkeypatch.setattr(consolidation, "_expand", counting_expand)
    with pytest.raises(GammaCapError) as err:
        gamma(m, opt, range(m.n), clique_cap=cap)
    assert str(err.value) == (f"gamma brute force infeasible: more than {cap} "
                              f"maximal cliques")
    assert cap + 1 <= calls <= 2 * (cap + 1) + m.n


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(["euclidean", "random-graph"]), n=st.integers(4, 9),
       seed=st.integers(0, 10**6), k=st.integers(2, 3), data=st.data())
def test_gamma_matches_unrestricted_search_on_drawn_instances(kind, n, seed, k, data):
    m = random_metric(kind, n, seed)
    opt = exact_opt(m, k)
    facilities = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    assert gamma(m, opt, facilities) == gamma_unrestricted(m, opt, facilities)
