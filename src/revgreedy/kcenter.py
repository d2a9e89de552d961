"""The k-center cost model and the reverse greedy engine.

Facility sets are plain frozensets of point indices.  The reverse greedy
engine re-derives, at every step, the exact marginal cost of deleting each
remaining facility, so every recorded step is argmin-verified; the argmin
set is the facilities whose cost equals the minimum, in both modes.  It sorts
each client's distance row once (O(n^2 log n); a table of 1- or 2-byte
integers by radix sort), and the one n x n table it keeps is the
sorted indices, in the narrowest integer type that holds n - 1.  Per client
it keeps the nearest and second-nearest live facility.  A removal re-points
only the stale clients, those that named the removed facility;
second-nearest pointers only move forward, so all advances together cost
O(n^2).  A single run finds them in per-facility client lists, each the
clients whose nearest or second-nearest that facility is: as pointers only
move forward, the lists only grow, and a removed facility's list is its
stale set.  A step with at most _FEW_STALE stale clients re-points them one
by one in Python, through memoryviews of the same arrays; any other step
takes O(log longest skip) vectorized rounds.  The marginal costs then come
from per-facility running maxima, updated over the re-pointed clients only,
and a floor per run: the cost of its current set, which is its last
removal's.  No removal costs less than the floor, so a scripted removal that
costs no more is legal without reading the minimum.
`reverse_greedy_runs` steps many runs side by side, one set of numpy calls
per step for all of them (a batch scans its arrays for stale clients):
several tie policies on one metric, or on several metrics of one n and mode,
each metric's sorted rows held once.  `reverse_greedy` is its batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Iterable, Sequence

import numpy as np

from .metric import (MetricSpace, _narrowest, check_object, is_int, read_document,
                     write_document)


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
            if not all(is_int(p) for p in self.script):
                raise ValueError("scripted removals must be integers")
            object.__setattr__(self, "script", tuple(map(int, self.script)))
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
        return cls("scripted", script=tuple(script))

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
    return fac[int(np.argmin(m.dist[client, fac]))]


def _above_all(m: MetricSpace):
    """A value above every distance, masking facilities out of a minimum;
    an array that holds it takes its type, wider than a narrow table's."""
    return np.int64(np.iinfo(np.int64).max) if m.mode == "int" else np.float64(np.inf)


def marginal_costs(m: MetricSpace, facilities) -> dict[int, int | float]:
    """Exact k-center cost after removing each facility in turn.

    Built from nearest/second-nearest tables: removing facility g re-serves
    exactly the clients whose nearest facility was g, at their second-nearest
    distance.  As that is never below the nearest distance, the cost is the
    max of the second-nearest distances over g's clients and of the nearest
    distances over all clients.  O(n * |facilities|) overall.
    """
    fac = sorted(facilities)
    if len(fac) < 2:
        raise ValueError("marginal costs need at least two facilities")
    d = m.dist[:, fac]
    rows = np.arange(m.n)
    nearest = d.argmin(axis=1)
    val1 = d[rows, nearest]
    above = _above_all(m)
    masked = d.astype(above.dtype)
    masked[rows, nearest] = above
    margins = np.full(len(fac), val1.max())
    np.maximum.at(margins, nearest, masked.min(axis=1))
    scalar = int if m.mode == "int" else float
    return {g: scalar(v) for g, v in zip(fac, margins)}


def reverse_greedy(m: MetricSpace, k: int, policy: TiePolicy | None = None,
                   *, record_argmin: bool = False) -> Trace:
    """Delete the cheapest facility until k remain, under the given tie policy.

    Every step records the removed facility and the exact cost of the
    shrunken set, and every scripted removal is checked for membership in
    the step's argmin set.  A batch of one in `reverse_greedy_runs`.
    """
    return reverse_greedy_runs(m, k, [policy or TiePolicy.lowest_index()],
                               record_argmin=record_argmin)[0]


# Table entries the engine sorts at once (see _ranked_rows).
_SORT_BLOCK = 1 << 14

# Stale clients a step re-points one by one in Python; with more, numpy calls
# over all of them at once cost less than a Python loop (see
# reverse_greedy_runs).
_FEW_STALE = 32


def _stable_argsort(rows: np.ndarray) -> np.ndarray:
    """np.argsort(rows, axis=1, kind="stable"), with fewer stable sorts for
    floats.  A float row with no two equal values (NaN never occurs) has one
    ascending order, which numpy's default, faster sort finds as well; only
    the rows where that sort puts equal values side by side are re-sorted
    stably.  An integer block sorts stably (radix sort if 1 or 2 bytes)."""
    if rows.dtype.kind != "f":
        return np.argsort(rows, axis=1, kind="stable")
    order = np.argsort(rows, axis=1)
    values = np.take_along_axis(rows, order, axis=1)
    tied = (values[:, 1:] == values[:, :-1]).any(axis=1)
    if tied.any():
        order[tied] = np.argsort(rows[tied], axis=1, kind="stable")
    return order


def _ranked_rows(rows: np.ndarray) -> np.ndarray:
    """Each row's column indices, nearest first, as one flat array of the
    narrowest integer type that holds them.  Rows go to _stable_argsort in
    blocks, so its output and the float sort's temporaries stay small."""
    n = rows.shape[1]
    ranked = np.empty(rows.shape, _narrowest(n - 1))
    block = max(1, _SORT_BLOCK // n)
    for lo in range(0, len(rows), block):
        ranked[lo:lo + block] = _stable_argsort(rows[lo:lo + block])
    return ranked.reshape(-1)


def reverse_greedy_runs(m: MetricSpace | Sequence[MetricSpace], k: int,
                        policies: list[TiePolicy], *,
                        record_argmin: bool = False) -> list[Trace]:
    """One reverse greedy run per tie policy, side by side.

    `m` is one metric shared by every run, or one metric per run; all must
    have the same n and mode.  Each step makes one set of numpy calls for
    all runs; only the pick from each run's argmin set is made per run, and
    a seeded run draws from its own Random(seed) as it would alone.  Entry
    r*n + c of the per-client arrays is client c of run r, and r*n + g is
    facility g of run r.  Each distinct table is sorted once, and its sorted
    rows are held once however many runs read them.  Each client keeps its
    nearest and second-nearest live facility, the latter as a pointer into
    its sorted row; a removal advances only the pointers that named it.
    """
    metrics = [m] * len(policies) if isinstance(m, MetricSpace) else list(m)
    if len(metrics) != len(policies):
        raise ValueError(f"{len(metrics)} metrics for {len(policies)} tie policies")
    if not policies:
        return []
    first = metrics[0]
    n, mode, runs = first.n, first.mode, len(policies)
    odd = next((x for x in metrics if (x.n, x.mode) != (n, mode)), None)
    if odd is not None:
        raise ValueError(f"batched metrics must share n and mode: n={n} "
                         f"{mode} and n={odd.n} {odd.mode}")
    if not (1 <= k <= n):
        raise ValueError(f"k must satisfy 1 <= k <= {n}, got {k}")
    for policy in policies:
        if policy.kind == "scripted" and len(policy.script) != n - k:
            raise ValueError(f"scripted policy names {len(policy.script)} "
                             f"removals, need {n - k}")

    rngs = [Random(p.seed) if p.kind == "seeded-random" else None for p in policies]
    # Scripted runs know their margins in the loop; only runs that pick from
    # their argmin sets, or record them, list them.
    listed = record_argmin or any(p.kind != "scripted" for p in policies)
    scalar = int if mode == "int" else float
    above_all = _above_all(first)
    top = above_all.item()
    size = runs * n
    live = np.ones(size, dtype=bool)
    steps: list[list[TraceStep]] = [[] for _ in policies]

    if n > k:
        # Runs read the distinct tables, stacked (one table as it is).
        distinct = list({id(x): x for x in metrics}.values())
        table = first.dist if len(distinct) == 1 else np.stack([x.dist for x in distinct])
        # Row t*n + c of ranked is client c's row of table t, nearest first,
        # at flat positions (t*n + c)*n ... + n - 1; second holds the flat
        # position of each entry's second-nearest.  Stable, so equidistant
        # facilities stay in index order on any platform.  An integer table
        # is held in its narrowest type, where the stable sort of a 1- or
        # 2-byte type is a radix sort, and a float table sorts as
        # _stable_argsort says.
        ranked = _ranked_rows(table.reshape(-1, n))
        # Entry r*n + c reads row t*n + c of ranked, for run r's table t.
        rows = np.arange(size) % n
        offset = np.arange(size) - rows if runs > 1 else 0  # r*n: run r's facilities
        if len(distinct) > 1:
            place = {id(x): t * n for t, x in enumerate(distinct)}
            rows += np.repeat([place[id(x)] for x in metrics], n)
        second = rows * n + 1
        # ranked holds facilities g of a table; entry i reads g as facility
        # offset[i] + g of its own run (offset 0 for one run, whose adds
        # below are skipped).  The adds widen: ranked's type holds n - 1.
        f1, f2 = ranked[second - 1] + offset, ranked[second] + offset
        # Client c of run r lies table[c, g] from facility r*n + g, which is
        # flat entry rows*n + g of the stacked tables: base + (r*n + g).
        dist = table.reshape(-1)
        base = rows * n - offset
        d1, d2 = dist[base + f1], dist[base + f2]
        # worst[g] is the largest d2 over g's clients.  A live facility only
        # gains clients and a client's d2 only grows, so it is a running max
        # kept over the clients that moved.  Removing g costs max(worst[g],
        # floor of g's run), where the floor is the run's largest d1, the
        # cost of its set; a facility without clients starts at the smallest
        # d1, below that; a removed one holds above_all.  A removal's cost is
        # that of the set it leaves, so it is the run's next floor, and d1 is
        # not kept past here.
        worst = np.full(size, d1.min(), above_all.dtype)
        np.maximum.at(worst, f1, d2)
        floor = d1.reshape(runs, n).max(axis=1)
        f1v, f2v, worstv = (a.reshape(runs, n) for a in (f1, f2, worst))
        # The same arrays, item by item, for picks and for a step with few
        # stale clients.
        (rankedm, secondm, f1m, f2m, d2m, distm, basem, livem, worstm,
         floorm) = map(memoryview, (ranked, second, f1, f2, d2, dist, base, live, worst,
                                    floor))
        if runs == 1:
            # A single run lists, per facility, the clients whose nearest
            # or second-nearest it is.  Pointers only move forward, so a
            # live facility never leaves a client's pair: the lists only
            # grow, and a removed facility's list is its stale clients.
            clients = [[] for _ in range(n)]
            for c, (g, h) in enumerate(zip(f1.tolist(), f2.tolist())):
                clients[g].append(c)
                clients[h].append(c)

    for i in range(1, n - k + 1):
        minima = None
        if listed:
            minima = np.maximum(worstv.min(axis=1), floor)
            # margin <= minimum exactly when worst is, as floor <= minimum.
            ties = worstv <= minima[:, None]
            # Each run's argmin set in turn, as facilities r*n + g: run r's
            # is tied[bounds[r]:bounds[r + 1]].
            tied = ties.ravel().nonzero()[0]
            bounds = ([0, *np.count_nonzero(ties, axis=1).cumsum().tolist()]
                      if runs > 1 else [0, tied.size])
        picks = []
        for r, policy in enumerate(policies):
            if policy.kind == "lowest-index":
                pick = int(tied[bounds[r]])
            elif policy.kind == "seeded-random":
                # choice draws an index below the set's size, as from the set.
                drawn = rngs[r].choice(range(bounds[r + 1] - bounds[r]))
                pick = int(tied[bounds[r] + drawn])
            else:
                removed = policy.script[i - 1]
                pick = r * n + removed
                if not 0 <= removed < n:
                    raise ScriptedStepError(f"illegal scripted step {i}: facility "
                                            f"{removed} is not a point of 0..{n - 1}")
                if not livem[pick]:
                    raise ScriptedStepError(f"illegal scripted step {i}: "
                                            f"facility {removed} already removed")
            margin = max(worstm[pick], floorm[r])
            # Only a scripted removal can lie outside the argmin set, and
            # one that costs no more than the floor lies inside it; the
            # minimum is read only for the others.
            if policy.kind == "scripted" and margin > floorm[r]:
                if minima is None:
                    minima = np.maximum(worstv.min(axis=1), floor)
                if margin > minima[r]:
                    raise ScriptedStepError(
                        f"illegal scripted step {i}: facility {removed} has "
                        f"marginal cost {margin} > minimum {scalar(minima[r])}")
            argmin = (tuple((tied[bounds[r]:bounds[r + 1]] - r * n).tolist())
                      if record_argmin else None)
            steps[r].append(TraceStep(pick - r * n, margin, argmin))
            picks.append(pick)
            floorm[r] = margin
        for pick in picks:
            livem[pick] = False
            worstm[pick] = top
        if i == n - k:
            break

        # Clients served by a removed facility fall back to their
        # second-nearest; they and the clients whose second-nearest it was
        # advance to the next live facility in their row.  Each pointer only
        # moves forward.  A single run reads its stale clients from the
        # removed facility's list, a batch scans for them.  A few stale
        # clients (a family step has about 5) cost less re-pointed one by one
        # in Python than through the numpy calls below.
        if runs == 1:
            stale, clients[pick] = clients[pick], None
        else:
            column = np.array(picks)[:, None]
            stale = ((f1v == column) | (f2v == column)).reshape(-1).nonzero()[0]
        if len(stale) <= _FEW_STALE:
            for c in (stale if runs == 1 else stale.tolist()):
                if not livem[f1m[c]]:
                    f1m[c] = f2m[c]
                at, row0 = secondm[c] + 1, c - c % n  # row0 = offset[c]
                while not livem[rankedm[at] + row0]:
                    at += 1
                secondm[c] = at
                f2m[c] = g = rankedm[at] + row0
                d2m[c] = reach = distm[basem[c] + g]
                if reach > worstm[f1m[c]]:
                    worstm[f1m[c]] = reach
                if runs == 1:
                    clients[g].append(c)
            continue
        stale = np.asarray(stale)
        fell = stale[~live[f1[stale]]]
        f1[fell] = f2[fell]
        # Two single-position rounds settle almost every pointer in the
        # fewest numpy calls.  The rest read a window of positions ahead,
        # 8 at first and doubling while it holds no live facility, so a
        # step takes O(log longest skip) rounds.  A live facility lies past
        # every moving pointer in its own row, so the first live one in a
        # window that runs into the next row, or is clamped at the end of
        # the last, is still the row's own.
        moving, width = stale, 8
        for _ in range(2):
            if moving.size:
                second[moving] += 1
                found = ranked[second[moving]]
                if runs > 1:
                    found = found + offset[moving]
                moving = moving[~live[found]]
        while moving.size:
            ahead = np.minimum(second[moving, None] + np.arange(1, width + 1),
                               ranked.size - 1)
            found = ranked[ahead]
            if runs > 1:
                found = found + offset[moving, None]
            window = live[found]
            hit = window.any(axis=1)
            second[moving] += np.where(hit, window.argmax(axis=1) + 1, width)
            moving, width = moving[~hit], 2 * width
        moved = ranked[second[stale]]
        if runs > 1:
            moved = moved + offset[stale]
        else:
            for c, g in zip(stale.tolist(), moved.tolist()):
                clients[g].append(c)
        f2[stale] = moved
        d2[stale] = reach = dist[base[stale] + moved]
        np.maximum.at(worst, f1[stale], reach)

    return [Trace(k=k, policy=policy.describe(), steps=run,
                  final=frozenset(np.flatnonzero(live[r * n:(r + 1) * n]).tolist()))
            for r, (policy, run) in enumerate(zip(policies, steps))]


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
