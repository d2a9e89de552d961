"""Random graphs replayed from the raw PCG64 stream against the draws they replay.

`metric._random_edges` reads `default_rng(seed)`'s bit generator word by
word (`metric._RawDraws`).  Its reference is the double loop it replaced,
one `rng.integers` or `rng.random()` call per draw: both must give the same
edges, in the same order, over a grid of sizes, seeds, weight spans and edge
probabilities.  `_RawDraws` itself is checked call by call against numpy's
Generator on spans where Lemire's rejection is frequent and on blocks so
short that it refills mid-draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from revgreedy import cli
from revgreedy.metric import _random_edges, _RawDraws, random_metric


def edges_by_generator(n, seed, edge_prob, max_weight):
    """The random graph's edges drawn through the Generator, one call a draw."""
    rng = np.random.default_rng(seed)
    edges = []
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.append((u, v, int(rng.integers(1, max_weight + 1))))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_prob:
                edges.append((u, v, int(rng.integers(1, max_weight + 1))))
    return tuple(edges)


@pytest.mark.parametrize("n", [1, 2, 5, 18, 32, 96])
def test_replayed_edges_match_the_generator(n):
    for seed in range(40):
        for max_weight in (1, 2, 9, 2**32 - 1, 2**32, 2**32 + 1):
            for edge_prob in (0, 0.3, 0.5, 1):
                assert (_random_edges(n, seed, edge_prob, max_weight)
                        == edges_by_generator(n, seed, edge_prob, max_weight)), \
                    (seed, max_weight, edge_prob)


def test_replayed_weights_with_frequent_rejections_match_the_generator():
    # Spans of 3 * 2**30 and 3 * 2**61 reject a quarter of their draws.
    for max_weight in (3 * 2**30, 3 * 2**61, 2**63 - 1):
        for seed in range(10):
            assert (_random_edges(12, seed, 0.5, max_weight)
                    == edges_by_generator(12, seed, 0.5, max_weight))


SPANS = [1, 2, 7, 3 * 2**30, 2**32 - 1, 2**32, 2**32 + 1, 3 * 2**61, 2**63]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32), block=st.integers(1, 5),
       calls=st.lists(st.sampled_from([None, *SPANS]), max_size=40))
def test_raw_draws_replay_the_generator_call_by_call(seed, block, calls):
    rng, draws = np.random.default_rng(seed), _RawDraws(seed, block)
    for span in calls:
        if span is None:
            assert draws.random() == rng.random()
        else:
            assert draws.integer(span) == int(rng.integers(0, span)), span


def test_weight_range_is_refused_only_where_an_edge_is_drawn():
    for bad in (0, -3, 2**63):
        with pytest.raises(ValueError, match="max_weight"):
            random_metric("random-graph", 4, 1, max_weight=bad)
        assert random_metric("random-graph", 1, 1, max_weight=bad).n == 1
    assert random_metric("random-graph", 4, 1, max_weight=2**32).n == 4


@pytest.mark.parametrize("n, max_weight, status", [
    (4, 0, 2), (1, 0, 0), (4, 2**32, 0), (3, 2**63, 2)])
def test_gen_random_weight_range_exit_codes(n, max_weight, status, tmp_path, capsys):
    assert cli.main(["gen", "random", "--kind", "random-graph", "--n", str(n),
                     "--seed", "1", "--max-weight", str(max_weight),
                     "--out", str(tmp_path / "g.json")]) == status
