"""Shared test oracles, deliberately independent of the library internals."""

import json
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np

from revgreedy import metric
from revgreedy.consolidation import required_pairs
from revgreedy.exact import optimal_solution
from revgreedy.kcenter import cost
from revgreedy.metric import MetricSpace, random_metric


def uniform_metric(n: int) -> MetricSpace:
    """All pairwise distances equal to 1."""
    d = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(d, 0)
    return MetricSpace(dist=d, mode="int")


def exact_opt_enumeration(m, k):
    """Optimal by trying every k-subset; keeps the lexicographically first."""
    best_value = best_set = None
    for combo in combinations(range(m.n), k):
        value = cost(m, combo)
        if best_value is None or value < best_value:
            best_value, best_set = value, combo
    return optimal_solution(m, best_value, best_set)


def greedy_farthest_first(m, k, first=0):
    """Gonzalez's farthest-first traversal: pick `first`, then repeatedly
    the point farthest from the chosen set (lowest index on ties)."""
    chosen = [first]
    nearest = m.dist[:, first].copy()
    for _ in range(k - 1):
        farthest = nearest.max()
        nxt = int(np.flatnonzero(nearest >= farthest)[0])
        chosen.append(nxt)
        np.minimum(nearest, m.dist[:, nxt], out=nearest)
    return frozenset(chosen)


def facility_sets(trace):
    """Yield every intermediate facility set of a trace, largest first."""
    current = set(range(trace.n))
    yield frozenset(current)
    for s in trace.steps:
        current.discard(s.removed)
        yield frozenset(current)


def phase_sizes(sched) -> dict[int, int]:
    """The number of scheduled removals in each phase."""
    sizes: dict[int, int] = {}
    for s in sched.steps:
        sizes[s.phase] = sizes.get(s.phase, 0) + 1
    return sizes


def gamma_unrestricted(m, opt, facilities):
    """Minimum consolidation size by exhausting every diameter-feasible
    subset of points, with no maximal-clique shortcut (n <= 10 territory)."""
    facilities = frozenset(facilities)
    limit = 2 * opt.opt_value + m.tol()
    feasible = []
    for size in range(1, m.n + 1):
        for combo in combinations(range(m.n), size):
            if all(m.dist[a, b] <= limit for a, b in combinations(combo, 2)):
                feasible.append(frozenset(combo))
    needed = required_pairs(opt, facilities)
    # Only (facility cover, pairs satisfied) matters to validity.
    signatures = set()
    for part in feasible:
        cover = part & facilities
        if cover:
            pairs = frozenset(p for p in needed
                              if p[0] in part and p[1] in part)
            signatures.add((cover, pairs))
    signatures = sorted(signatures, key=lambda s: (sorted(s[0]), sorted(s[1])))
    for size in range(1, len(opt.balls) + 1):
        for combo in combinations(signatures, size):
            cover = frozenset().union(*(c for c, _ in combo))
            pairs = frozenset().union(*(p for _, p in combo))
            if facilities <= cover and needed <= pairs:
                return size
    raise AssertionError("no consolidation found up to size k")


def maximal_cliques_brute(adjacency):
    """Every maximal clique of the graph whose neighbour sets are given,
    by testing every vertex subset (n <= 10 territory)."""
    n = len(adjacency)
    cliques = [frozenset(c) for size in range(1, n + 1)
               for c in combinations(range(n), size)
               if all(b in adjacency[a] for a, b in combinations(c, 2))]
    return {c for c in cliques if not any(c < d for d in cliques)}


def cover_masks_reference(m, radius):
    """Per point, the bitmask of the points within radius of it, one
    exact comparison and one bit at a time."""
    return [sum(1 << q for q in range(m.n) if m.dist[p, q] <= radius)
            for p in range(m.n)]


def battery_instance(trial: int, *, n_span=(6, 12), k_span=(2, 4), seed_base=1000):
    """Deterministic mixed-kind random instance for ratio batteries."""
    kind = "euclidean" if trial % 2 == 0 else "random-graph"
    n = n_span[0] + trial % (n_span[1] - n_span[0] + 1)
    k = k_span[0] + trial % (k_span[1] - k_span[0] + 1)
    return random_metric(kind, n, seed_base + trial), k


def separated_pairs_metric(gap: float = 10.0) -> MetricSpace:
    """Two tight point pairs far apart; optimal balls never interact."""
    pts = np.array([[0.0, 0.0], [0.3, 0.0], [gap, 0.0], [gap + 0.3, 0.0]])
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return MetricSpace(dist=d, mode="float")


def reference_load_instance(path):
    """load_instance with the document parsed by json.loads, its matrix
    read by MetricSpace and its edges by WeightedGraph from the nested
    lists."""
    with mock.patch.object(metric, "_read_json",
                           lambda path: json.loads(Path(path).read_text())):
        return metric.load_instance(path)


def load_outcome(load, path):
    """What load(path) returns, as the table's dtype and bytes, the mode,
    the labels and k; or what it raises, as the exception's type and text."""
    try:
        m, k = load(path)
    except Exception as err:  # every outcome is compared, errors included
        return type(err), str(err)
    return m.dist.dtype.str, m.dist.shape, m.dist.tobytes(), m.mode, m.labels, k


def near_tied_table(n, seed):
    """Small integer distances plus a symmetric float jitter of up to three
    times the float slack: many distances within the slack of each other,
    which every decision compares exactly; exactly symmetric."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) * 3 * MetricSpace.eps, 1)
    d = random_metric("random-graph", n, seed, max_weight=2).dist + upper + upper.T
    return MetricSpace(dist=d, mode="float")
