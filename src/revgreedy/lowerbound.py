"""Adversarial k-center family on which reverse greedy is forced to a
(2k-2) ratio.

The instance is the shortest-path metric of k stars C_0..C_{k-1} of sizes
2k-1, 2k-1, 2k-2, ..., k+1 (vertex counts), cross-linked by matchings:
C_0/C_1 are matched center-to-center and leaf-to-leaf with weight-1 edges,
and each later C_i is matched leaf-to-leaf into C_0, with its center tied to
C_0's (2k-i)th leaf, all at weight 2i-1.  Picking the k star centers costs 1,
so the optimum is 1, while a particular tie-respecting removal order walks
reverse greedy into keeping k leaves of C_0 at final cost 2k-2.

The removal order is organized in phases: phase r is the block of removals
after which the solution costs exactly r.  Everything here is exact integer
arithmetic; a single wrongly broken tie invalidates the schedule, so the
verifier re-derives argmin membership at every step instead of trusting the
script.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import OptimalSolution, optimal_solution
from .kcenter import ScriptedStepError, TiePolicy, Trace, reverse_greedy, serves
from .metric import (MetricSpace, WeightedGraph, check_object, metric_from_graph,
                     read_document, write_document)


def size_formula(k: int) -> int:
    """Vertex count of the unpadded instance: (3k-2)(k+1)/2."""
    return (3 * k - 2) * (k + 1) // 2


@dataclass(frozen=True)
class Star:
    """One star: a center vertex and its leaves in canonical order 1..len."""

    center: int
    leaves: tuple[int, ...]

    def leaf(self, j: int) -> int:
        """1-based canonical leaf index."""
        return self.leaves[j - 1]

    @property
    def vertices(self) -> frozenset[int]:
        return frozenset((self.center, *self.leaves))


@dataclass(frozen=True)
class LowerBoundInstance:
    k: int
    n: int
    stars: tuple[Star, ...]
    padding: tuple[int, ...]
    graph: WeightedGraph
    metric: MetricSpace


@dataclass(frozen=True)
class ScheduledStep:
    point: int
    phase: int


@dataclass(frozen=True)
class PhaseSchedule:
    """Removal order tagged with the phase (= expected cost) of each step."""

    k: int
    n: int
    steps: tuple[ScheduledStep, ...]

    def script(self) -> tuple[int, ...]:
        return tuple(s.point for s in self.steps)


def build_lower_bound_instance(k: int, n: int | None = None) -> LowerBoundInstance:
    """Construct the instance for a given k; extra points pad C_0 with leaves.

    Vertex layout: each star contiguously (center first, then leaves in
    canonical order), padding leaves last, so padded and unpadded instances
    agree on the base indices.
    """
    if k <= 1:
        raise ValueError("construction requires k >= 2")
    base = size_formula(k)
    if n is None:
        n = base
    if n < base:
        raise ValueError(f"n={n} below the minimum {base} for k={k}")

    leaf_counts = [2 * k - 2, 2 * k - 2] + [2 * k - i - 1 for i in range(2, k)]
    stars = []
    labels = []
    nxt = 0
    for i, count in enumerate(leaf_counts):
        center = nxt
        leaves = tuple(range(nxt + 1, nxt + 1 + count))
        stars.append(Star(center, leaves))
        labels.append(f"C{i}.center")
        labels.extend(f"C{i}.leaf{j}" for j in range(1, count + 1))
        nxt += 1 + count
    padding = tuple(range(base, n))
    labels.extend(f"C0.pad{j}" for j in range(1, len(padding) + 1))

    edges = []
    for star in stars:
        edges.extend((star.center, leaf, 1) for leaf in star.leaves)
    for pad in padding:
        edges.append((stars[0].center, pad, 1))
    c0, c1 = stars[0], stars[1]
    edges.append((c0.center, c1.center, 1))
    edges.extend((c0.leaf(j), c1.leaf(j), 1) for j in range(1, 2 * k - 1))
    for i in range(2, k):
        ci = stars[i]
        w = 2 * i - 1
        edges.extend((ci.leaf(j), c0.leaf(j), w) for j in range(1, len(ci.leaves) + 1))
        edges.append((ci.center, c0.leaf(2 * k - i), w))

    graph = WeightedGraph(n, tuple(edges))
    bare = metric_from_graph(graph)
    metric = MetricSpace(dist=bare.dist, mode="int", labels=tuple(labels))
    return LowerBoundInstance(k=k, n=n, stars=tuple(stars), padding=padding,
                              graph=graph, metric=metric)


def known_opt(inst: LowerBoundInstance) -> OptimalSolution:
    """The k star centers at value 1, with balls computed from the metric.

    Value 1 is optimal: all pairwise distances are >= 1 (integer weights),
    so any solution missing some point costs at least 1, and the centers
    achieve exactly 1.
    """
    return optimal_solution(inst.metric, 1, (s.center for s in inst.stars))


def scripted_schedule(inst: LowerBoundInstance) -> PhaseSchedule:
    """The adversarial removal order, phase by phase.

    Phase 1: padding, then all of C_1 (leaves ascending, center last), then
    the centers of C_2..C_{k-1}.  Phase 2: the center of C_0, then every
    leaf but leaf 1 of each C_i (i >= 2), descending within each star.
    Then alternately, for i = 2..k-1: phase 2i-1 removes leaf 1 of C_i and
    phase 2i removes C_0's leaf 2k-i (the one tied to C_i's center).  The
    survivors are leaves 1..k of C_0.
    """
    k = inst.k
    c0 = inst.stars[0]
    steps: list[ScheduledStep] = []

    for pad in inst.padding:
        steps.append(ScheduledStep(pad, 1))
    c1 = inst.stars[1]
    for leaf in c1.leaves:
        steps.append(ScheduledStep(leaf, 1))
    steps.append(ScheduledStep(c1.center, 1))
    for i in range(2, k):
        steps.append(ScheduledStep(inst.stars[i].center, 1))

    steps.append(ScheduledStep(c0.center, 2))
    for i in range(2, k):
        ci = inst.stars[i]
        for j in range(len(ci.leaves), 1, -1):
            steps.append(ScheduledStep(ci.leaf(j), 2))

    for i in range(2, k):
        steps.append(ScheduledStep(inst.stars[i].leaf(1), 2 * i - 1))
        steps.append(ScheduledStep(c0.leaf(2 * k - i), 2 * i))

    assert len(steps) == inst.n - k
    return PhaseSchedule(k=k, n=inst.n, steps=tuple(steps))


def expected_survivors(inst: LowerBoundInstance) -> frozenset[int]:
    """Leaves 1..k of C_0: the ones never tied to a later star's center."""
    c0 = inst.stars[0]
    return frozenset(c0.leaf(j) for j in range(1, inst.k + 1))


@dataclass
class ScheduleReport:
    """Verification outcome for a scripted run against its phase labels."""

    k: int
    n: int
    ok: bool
    final_cost: int | None
    expected_final_cost: int
    survivors: frozenset[int] | None
    expected: frozenset[int]
    failures: list[dict]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "ok": self.ok,
            "final_cost": self.final_cost,
            "expected_final_cost": self.expected_final_cost,
            "survivors": sorted(self.survivors) if self.survivors is not None else None,
            "expected_survivors": sorted(self.expected),
            "failures": self.failures,
        }


def verify_schedule(inst: LowerBoundInstance, sched: PhaseSchedule) -> ScheduleReport:
    """Run the schedule under full argmin verification and check the outcome.

    Checks, in order: every scripted removal is greedy-legal, the cost after
    each step equals its phase label, the final cost is 2k-2, the survivors
    are the designated leaves of C_0, and the last star's center is served
    at distance exactly 2k-2.
    """
    k, m = inst.k, inst.metric
    expected_cost = 2 * k - 2
    expected = expected_survivors(inst)
    failures: list[dict] = []

    if len(sched.steps) != inst.n - k:
        failures.append({"step": None, "kind": "length",
                         "message": f"schedule has {len(sched.steps)} steps, "
                                    f"need {inst.n - k}"})
        return ScheduleReport(k, inst.n, False, None, expected_cost, None,
                              expected, failures)

    try:
        trace = reverse_greedy(m, k, TiePolicy.scripted(sched.script()))
    except ScriptedStepError as err:
        failures.append({"step": None, "kind": "legality", "message": str(err)})
        return ScheduleReport(k, inst.n, False, None, expected_cost, None,
                              expected, failures)

    for idx, (step, planned) in enumerate(zip(trace.steps, sched.steps), start=1):
        if step.cost != planned.phase:
            failures.append({
                "step": idx, "kind": "cost-profile",
                "message": f"step {idx} (remove {planned.point}) cost "
                           f"{step.cost} != phase label {planned.phase}",
            })

    if trace.final_cost != expected_cost:
        failures.append({"step": None, "kind": "final-cost",
                         "message": f"final cost {trace.final_cost} != "
                                    f"{expected_cost}"})
    if trace.final != expected:
        failures.append({"step": None, "kind": "survivors",
                         "message": f"final set {sorted(trace.final)} != "
                                    f"{sorted(expected)}"})
    else:
        last_center = inst.stars[-1].center
        witness = serves(m, trace.final, last_center)
        served_at = int(m.dist[last_center, witness])
        if served_at != expected_cost:
            failures.append({"step": None, "kind": "witness",
                             "message": f"last star center served at {served_at}, "
                                        f"expected {expected_cost}"})

    return ScheduleReport(k, inst.n, not failures, trace.final_cost, expected_cost,
                          trace.final, expected, failures)


def rebuild_if_lower_bound(m: MetricSpace, k: int) -> LowerBoundInstance | None:
    """Reconstruct the family member matching this metric, if it is one."""
    if m.mode != "int" or k is None or k <= 1 or m.n < size_formula(k):
        return None
    # Distance-1 pairs are exactly the weight-1 edges: the star and padding
    # leaves, the C_0-C_1 center edge and the 2k-2 C_0-C_1 leaf matchings,
    # n + k - 1 edges in all.  Cheap to count, costly to build and compare.
    if np.count_nonzero(m.dist == 1) != 2 * (m.n + k - 1):
        return None
    inst = build_lower_bound_instance(k, m.n)
    if np.array_equal(inst.metric.dist, m.dist):
        return inst
    return None


_PHASE_COLORS = (
    "#4363d8", "#00e6e6", "#fbbc05", "#ff8000",
    "#34a853", "#b12dd2", "#ea4335", "#800000",
)


def export_dot(inst: LowerBoundInstance, trace: Trace | None = None) -> str:
    """DOT rendering: one cluster per star, matching edges carry weights.

    With a trace, removed vertices get a phase attribute (the cost level at
    removal) and a fill color; survivors carry no phase attribute.
    """
    if trace is not None and trace.n != inst.n:
        raise ValueError(f"trace has {trace.n} points, the instance {inst.n}")
    phase_of = {} if trace is None else {s.removed: int(s.cost) for s in trace.steps}

    labels = inst.metric.labels or tuple(str(p) for p in range(inst.n))

    def node_line(p: int) -> str:
        attrs = [f'label="{labels[p]}"']
        if p in phase_of:
            r = phase_of[p]
            color = _PHASE_COLORS[(r - 1) % len(_PHASE_COLORS)]
            attrs.append(f'phase="{r}"')
            attrs.append(f'style=filled fillcolor="{color}"')
        return f"    v{p} [{' '.join(attrs)}];"

    # C_0's padding is drawn as its leaves: in its cluster, tied to its center.
    members = [inst.stars[0].leaves + inst.padding,
               *(star.leaves for star in inst.stars[1:])]
    lines = ["graph lower_bound {", "  node [shape=circle];"]
    cluster = {}  # edges inside a cluster are drawn with it
    for i, (star, leaves) in enumerate(zip(inst.stars, members)):
        cluster.update(dict.fromkeys((star.center, *leaves), i))
        lines += [f"  subgraph cluster_{i} {{", f'    label="C_{i}";',
                  *map(node_line, (star.center, *leaves)),
                  *(f"    v{star.center} -- v{p};" for p in leaves), "  }"]
    for u, v, w in inst.graph.edges.tolist():
        if cluster[u] != cluster[v]:
            lines.append(f'  v{u} -- v{v} [label="{w}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def save_schedule(path, sched: PhaseSchedule) -> None:
    doc = {
        "version": 1,
        "k": sched.k,
        "n": sched.n,
        "steps": [{"point": s.point, "phase": s.phase} for s in sched.steps],
    }
    write_document(path, doc)


def load_schedule(path) -> PhaseSchedule:
    doc = read_document(path, "schedule", {"k": int, "n": int, "steps": list})
    for i, s in enumerate(doc["steps"]):
        check_object(s, f"schedule step {i}", {"point": int, "phase": int})
        if not 0 <= s["point"] < doc["n"]:
            raise ValueError(f"schedule step {i} removes {s['point']}, not a "
                             f"point of 0..{doc['n'] - 1}")
    steps = tuple(ScheduledStep(s["point"], s["phase"]) for s in doc["steps"])
    return PhaseSchedule(k=doc["k"], n=doc["n"], steps=steps)
