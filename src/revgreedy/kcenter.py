"""The k-center cost model and the greedy engines.

Facility sets are plain frozensets of point indices.  The reverse greedy
engine re-derives, at every step, the exact marginal cost of deleting each
remaining facility, so every recorded step is argmin-verified.  It sorts
each client's distance row once (O(n^2 log n), the one n x n table it keeps
is the sorted indices) and keeps per client its nearest and second-nearest
live facility.  A removal re-points only the clients that named the removed
facility; second-nearest pointers only move forward, so all advances
together cost O(n^2), and each step's advance takes O(log longest skip)
vectorized rounds.  The marginal costs then come from per-facility maxima
over the clients, O(n) work per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable

import numpy as np

from .metric import MetricSpace, check_object, is_int, read_document, write_document


class ScriptedStepError(ValueError):
    """A scripted removal did not lie in the argmin set at its step."""


@dataclass(frozen=True)
class TiePolicy:
    """How reverse greedy picks among facilities tied for minimum marginal cost.

    kind is one of "lowest-index", "seeded-random", or "scripted".  Scripted
    policies name the removal at every step and are validated against the
    argmin set during execution.
    """

    kind: str
    seed: int | None = None
    script: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("lowest-index", "seeded-random", "scripted"):
            raise ValueError(f"unknown tie policy {self.kind!r}")
        if self.kind == "seeded-random" and self.seed is None:
            raise ValueError("seeded-random policy needs a seed")
        if self.kind == "scripted":
            if not self.script:
                raise ValueError("scripted policy needs a removal sequence")
            if len(set(self.script)) != len(self.script):
                raise ValueError("scripted removals must be distinct")

    @classmethod
    def lowest_index(cls) -> "TiePolicy":
        return cls("lowest-index")

    @classmethod
    def seeded_random(cls, seed: int) -> "TiePolicy":
        return cls("seeded-random", seed=seed)

    @classmethod
    def scripted(cls, script: Iterable[int]) -> "TiePolicy":
        return cls("scripted", script=tuple(int(p) for p in script))

    def describe(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.seed is not None:
            out["seed"] = self.seed
        return out


@dataclass(frozen=True)
class TraceStep:
    removed: int
    cost: int | float
    argmin: tuple[int, ...] | None = None


@dataclass
class Trace:
    """A full reverse greedy run: removal order, per-step costs, final set."""

    k: int
    policy: dict
    steps: list[TraceStep]
    final: frozenset[int]

    @property
    def n(self) -> int:
        return self.k + len(self.steps)

    @property
    def final_cost(self) -> int | float:
        """Cost of the final set: the last step's, 0 when nothing was removed."""
        return self.steps[-1].cost if self.steps else 0

    def cost_sequence(self) -> list:
        """Costs of the shrinking facility sets, starting from the full set."""
        return [0] + [s.cost for s in self.steps]

    def facility_sets(self):
        """Yield every intermediate facility set, largest first."""
        current = set(range(self.n))
        yield frozenset(current)
        for s in self.steps:
            current.discard(s.removed)
            yield frozenset(current)

    def facilities_at(self, i: int) -> frozenset[int]:
        """Facility set after the first i removals."""
        removed = {s.removed for s in self.steps[:i]}
        return frozenset(p for p in range(self.n) if p not in removed)


def cost(m: MetricSpace, facilities) -> int | float:
    """Max over all clients of the distance to the nearest facility."""
    fac = sorted(facilities)
    if not fac:
        raise ValueError("cost undefined for empty facility set")
    value = m.dist[:, fac].min(axis=1).max()
    return int(value) if m.mode == "int" else float(value)


def serves(m: MetricSpace, facilities, client: int) -> int:
    """The facility nearest to the client; lowest index on ties."""
    fac = sorted(facilities)
    if not fac:
        raise ValueError("serves undefined for empty facility set")
    row = m.dist[client, fac]
    best = row.min()
    for j, g in enumerate(fac):
        if row[j] <= best + m.tol():
            return g
    raise AssertionError("unreachable")


def _group_margins(groups: np.ndarray, val1: np.ndarray, val2: np.ndarray,
                   size: int) -> np.ndarray:
    """Cost after removing each group's facility, from per-client service.

    Client c is served at val1[c] by facility group groups[c] (in 0..size-1)
    and at val2[c] >= val1[c] without that facility.  Removing group j's
    facility costs the max of val2 over group j and of val1 over the other
    groups; as val2 >= val1, the latter may run over every client.
    """
    margins = np.full(size, val1.max())
    np.maximum.at(margins, groups, val2)
    return margins


def _above_all(m: MetricSpace):
    """A value above every distance, masking facilities out of a minimum."""
    return np.iinfo(np.int64).max if m.mode == "int" else np.inf


def marginal_costs(m: MetricSpace, facilities) -> dict[int, int | float]:
    """Exact k-center cost after removing each facility in turn.

    Built from nearest/second-nearest tables: removing facility g re-serves
    exactly the clients whose nearest facility was g, at their second-nearest
    distance.  O(n * |facilities|) overall.
    """
    fac = sorted(facilities)
    if len(fac) < 2:
        raise ValueError("marginal costs need at least two facilities")
    d = m.dist[:, fac]
    rows = np.arange(m.n)
    nearest = d.argmin(axis=1)
    val1 = d[rows, nearest]
    masked = d.copy()
    masked[rows, nearest] = _above_all(m)
    margins = _group_margins(nearest, val1, masked.min(axis=1), len(fac))
    scalar = int if m.mode == "int" else float
    return {g: scalar(v) for g, v in zip(fac, margins)}


def reverse_greedy(m: MetricSpace, k: int, policy: TiePolicy | None = None,
                   *, record_argmin: bool = False) -> Trace:
    """Delete the cheapest facility until k remain, under the given tie policy.

    Every step records the removed facility and the exact cost of the
    shrunken set, and every scripted removal is checked for membership in
    the step's argmin set.  Each client keeps its nearest and second-nearest
    live facility, the latter as a pointer into the client's distance row
    sorted once up front; a removal advances only the pointers that named it.
    """
    n = m.n
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    policy = policy or TiePolicy.lowest_index()
    if policy.kind == "scripted" and len(policy.script) != n - k:
        raise ValueError(
            f"scripted policy names {len(policy.script)} removals, need {n - k}")

    rng = Random(policy.seed) if policy.kind == "seeded-random" else None
    scalar = int if m.mode == "int" else float
    tol = m.tol()
    above_all = _above_all(m)
    live = np.ones(n, dtype=bool)
    steps: list[TraceStep] = []

    if n > k:
        # Stable: equidistant facilities stay in index order on any platform.
        order = np.argsort(m.dist, axis=1, kind="stable")
        rows = np.arange(n)
        second = np.ones(n, dtype=np.intp)  # position of f2 in each sorted row
        f1, f2 = order[:, 0].copy(), order[:, 1].copy()
        d1, d2 = m.dist[rows, f1], m.dist[rows, f2]

    for i in range(1, n - k + 1):
        margins = _group_margins(f1, d1, d2, n)
        margins[~live] = above_all
        minimum = margins.min()
        argmin = (margins <= minimum + tol).nonzero()[0].tolist()
        if policy.kind == "lowest-index":
            removed = argmin[0]
        elif policy.kind == "seeded-random":
            removed = rng.choice(argmin)
        else:
            removed = policy.script[i - 1]
            if not (0 <= removed < n and live[removed]):
                raise ScriptedStepError(
                    f"illegal scripted step {i}: facility {removed} already removed")
            if margins[removed] > minimum + tol:
                raise ScriptedStepError(
                    f"illegal scripted step {i}: facility {removed} has marginal "
                    f"cost {scalar(margins[removed])} > minimum {scalar(minimum)}")
        live[removed] = False
        steps.append(TraceStep(removed, scalar(margins[removed]),
                               tuple(argmin) if record_argmin else None))
        if i == n - k:
            break

        # Clients served by `removed` fall back to their second-nearest; they
        # and the clients whose second-nearest it was advance to the next
        # live facility in their row.  Each pointer only moves forward.
        lost = f1 == removed
        stale = (lost | (f2 == removed)).nonzero()[0]
        f1[lost], d1[lost] = f2[lost], d2[lost]
        # Two single-position rounds settle almost every pointer in the
        # fewest numpy calls.  The rest read a window of positions ahead,
        # 8 at first and doubling while it holds no live facility, so a
        # step takes O(log longest skip) rounds.  A live facility lies past
        # every moving pointer, so a window clamped at n - 1 still finds it.
        moving, width = stale, 8
        for _ in range(2):
            if moving.size:
                second[moving] += 1
                moving = moving[~live[order[moving, second[moving]]]]
        while moving.size:
            ahead = np.minimum(second[moving, None] + np.arange(1, width + 1), n - 1)
            window = live[order[moving[:, None], ahead]]
            hit = window.any(axis=1)
            second[moving] += np.where(hit, window.argmax(axis=1) + 1, width)
            moving, width = moving[~hit], 2 * width
        f2[stale] = order[stale, second[stale]]
        d2[stale] = m.dist[stale, f2[stale]]

    return Trace(k=k, policy=policy.describe(), steps=steps,
                 final=frozenset(np.flatnonzero(live).tolist()))


def greedy_farthest_first(m: MetricSpace, k: int, first: int = 0) -> frozenset[int]:
    """Pick `first`, then repeatedly the point farthest from the chosen set."""
    n = m.n
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if not (0 <= first < n):
        raise ValueError(f"first point {first} out of range")
    chosen = [first]
    nearest = m.dist[:, first].copy()
    for _ in range(k - 1):
        farthest = nearest.max()
        nxt = int(np.flatnonzero(nearest >= farthest - m.tol())[0])
        chosen.append(nxt)
        np.minimum(nearest, m.dist[:, nxt], out=nearest)
    return frozenset(chosen)


def save_trace(path, trace: Trace) -> None:
    """Trace JSON: integer costs as ints, floating costs as decimal strings."""
    mode_int = all(isinstance(s.cost, int) for s in trace.steps)
    doc = {
        "version": 1,
        "k": trace.k,
        "policy": trace.policy,
        "steps": [
            {"removed": s.removed, "cost": s.cost if mode_int else repr(s.cost)}
            for s in trace.steps
        ],
        "final": sorted(trace.final),
    }
    write_document(path, doc)


def load_trace(path) -> Trace:
    doc = read_document(path, "trace", {"k": int, "policy": dict,
                                        "steps": list, "final": list})
    if not all(is_int(p) for p in doc["final"]):
        raise ValueError("trace file final must list integer points")
    if doc["k"] < 1:
        raise ValueError(f"trace file has k={doc['k']}, need k >= 1")
    n = doc["k"] + len(doc["steps"])
    steps, removed = [], set()
    for i, s in enumerate(doc["steps"]):
        check_object(s, f"trace step {i}", {"removed": int, "cost": (int, str)})
        if not 0 <= s["removed"] < n or s["removed"] in removed:
            raise ValueError(f"trace step {i} removes {s['removed']}, not a "
                             f"remaining point of 0..{n - 1}")
        removed.add(s["removed"])
        cost = s["cost"]
        if isinstance(cost, str):
            cost = float(cost)
            if not np.isfinite(cost):
                raise ValueError(f"trace step {i} has non-finite cost {s['cost']!r}")
        steps.append(TraceStep(s["removed"], cost))
    # k distinct points of 0..n-1 outside the removals are exactly their
    # complement; checked without building anything of length n.
    final = set(doc["final"])
    if (len(doc["final"]) != doc["k"] or len(final) != doc["k"]
            or not all(0 <= p < n and p not in removed for p in final)):
        raise ValueError("trace file final is not the complement of its removals")
    return Trace(k=doc["k"], policy=doc["policy"], steps=steps,
                 final=frozenset(final))
