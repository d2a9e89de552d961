"""Consolidations: the potential function behind the 2k upper bound.

A consolidation of a facility set F is a family of point sets that covers F,
where every set has diameter at most twice the optimum, and every pair of
facilities sharing an optimal ball lands together in some set.  The
consolidation number is the least possible family size; along a reverse
greedy trace it drops by at least one between consecutive critical states,
which is what `verify_gamma_decrement` checks empirically.  Diameters are
checked at 2*OPT plus the float slack, since the optimal balls meet that
bound by the triangle inequality; critical levels compare costs exactly.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import combinations, islice

from .exact import (OptimalSolution, _BudgetExhausted, _bits, _branch, _columns,
                    _cover_masks)
from .kcenter import Trace
from .metric import MetricSpace


class GammaCapError(RuntimeError):
    """The consolidation number was not settled: its search ran past a cap,
    or no family of at most k sets exists; the message says which."""


@dataclass
class ConsolidationReport:
    valid: bool
    violated: str | None = None
    witness: tuple | None = None

    def __str__(self) -> str:
        if self.valid:
            return "valid"
        return f"{self.violated} violation at {self.witness}"


def is_consolidation(m: MetricSpace, opt: OptimalSolution, facilities,
                     sets) -> ConsolidationReport:
    """Check that `sets` is a consolidation of `facilities` against `opt`:
    covering, diameter, and optimal pairs; report the first failure."""
    facilities = frozenset(facilities)
    sets = [frozenset(part) for part in sets]
    limit = 2 * opt.opt_value + m.tol()
    union = frozenset().union(*sets)

    for f in sorted(facilities):
        if f not in union:
            return ConsolidationReport(False, "covering", (f,))

    for s, part in enumerate(sets):
        members = sorted(part)
        for x, y in combinations(members, 2):
            if max(m.dist[x, y], m.dist[y, x]) > limit:
                return ConsolidationReport(False, "diameter", (s, x, y))

    for t, ball_t in enumerate(opt.balls):
        shared = sorted(facilities & ball_t)
        for f, g in combinations(shared, 2):
            if not any(f in part and g in part for part in sets):
                return ConsolidationReport(False, "optimal-pairs", (t, f, g))

    return ConsolidationReport(True)


def _maximal_cliques(adjacency: list[int], vertices: int,
                     cap: int | None = None) -> list[int]:
    """Bron-Kerbosch with pivoting over bitmask neighbourhoods (no vertex is
    its own neighbour); returns every maximal clique of the subgraph induced
    on the bitmask `vertices` once, as a bitmask, or just the first `cap` + 1."""
    stop = None if cap is None else cap + 1
    return list(islice(_expand(adjacency, 0, vertices, 0), stop))


def _expand(adjacency: list[int], clique: int, candidates: int, excluded: int):
    """One Bron-Kerbosch call of _maximal_cliques, yielding its cliques."""
    pool = candidates | excluded
    if not pool:
        yield clique
        return
    pivot = max(_bits(pool), key=lambda v: (adjacency[v] & candidates).bit_count())
    for v in _bits(candidates & ~adjacency[pivot]):
        near = adjacency[v]
        yield from _expand(adjacency, clique | 1 << v, candidates & near, excluded & near)
        candidates &= ~(1 << v)
        excluded |= 1 << v


def required_pairs(opt: OptimalSolution, facilities: frozenset[int]) -> frozenset:
    """Facility pairs that share an optimal ball and must be co-resident."""
    pairs = set()
    for ball_t in opt.balls:
        shared = sorted(facilities & ball_t)
        pairs.update(combinations(shared, 2))
    return frozenset(pairs)


def gamma(m: MetricSpace, opt: OptimalSolution, facilities, *,
          clique_cap: int = 2000) -> int:
    """Exact consolidation number by a set-cover search over maximal cliques.

    The search space is restricted to maximal cliques of the threshold
    graph induced on the facilities: the pairs within 2*OPT plus the
    mode's slack, as the cover masks of the facilities alone hold them
    (bit i is the i-th smallest), without self-loops; listing stops past
    `clique_cap` cliques.
    This is lossless: a set passes is_consolidation's diameter test exactly
    when it is a clique there; dropping the non-facilities from every member of a valid
    family keeps it valid (they only add diameter constraints), and so does
    replacing a member by a maximal clique containing it (covering and
    optimal pairs survive under supersets).  So some minimum-size family
    consists of maximal cliques of that induced graph only.  Each facility
    and each required pair becomes one column, the set of cliques holding
    it, and the least number of cliques hitting every column is found size
    by size.  The optimal balls give such a family of k sets on any table
    that keeps the triangle inequality within the slack; on one that does
    not, no family of at most k sets may exist, and GammaCapError says so.
    """
    facilities = frozenset(facilities)
    if not facilities:
        raise ValueError("consolidation number undefined for empty facility set")

    order = sorted(facilities)
    full = (1 << len(order)) - 1
    masks = _cover_masks(m, 2 * opt.opt_value + m.tol(), order)
    cliques = _maximal_cliques([mask & ~(1 << i) for i, mask in enumerate(masks)],
                               full, clique_cap)
    if len(cliques) > clique_cap:
        raise GammaCapError(f"gamma brute force infeasible: more than "
                            f"{clique_cap} maximal cliques")

    # Per facility, then per required pair: the cliques holding it.
    column = dict(zip(order, _columns(cliques, full)))
    pairs = [column[f] & column[g] for f, g in sorted(required_pairs(opt, facilities))]
    columns = list(dict.fromkeys([*column.values(), *pairs]))

    # Distinct maximal cliques never contain one another, so the oracle's
    # reduction (exact._can_cover) would drop none of them.
    k = len(opt.balls)
    for size in range(1, k + 1):
        try:
            if _branch(columns, size, [0]):
                return size
        except _BudgetExhausted as err:
            raise GammaCapError(
                f"gamma brute force infeasible: more than {err.args[0]} "
                f"backtrack nodes at size {size}") from None
    raise GammaCapError(f"gamma not settled: no consolidation of at most {k} sets within "
                        f"2*OPT (the table breaks the triangle inequality)")


def critical_indices(trace: Trace, opt_value) -> dict[int, int]:
    """Map each threshold level l to the last step index still within 2l*OPT.

    Level l is present exactly when the trace's cost eventually exceeds
    2*l*opt_value; by monotonicity the crossing index is unique.
    """
    if opt_value <= 0:
        raise ValueError("critical indices need a positive optimum value")
    costs = trace.cost_sequence()
    if any(b < a for a, b in zip(costs, costs[1:])):
        raise ValueError("trace cost sequence must be nondecreasing")
    entries: dict[int, int] = {}
    level = 0
    while costs[-1] > 2 * level * opt_value:
        entries[level] = bisect_right(costs, 2 * level * opt_value) - 1
        level += 1
    return entries


@dataclass
class GammaDecrementReport:
    """Empirical check that the consolidation number steps down between
    consecutive critical states, plus the closing accounting bound."""

    status: str
    premise_holds: bool
    critical: dict[int, int] = field(default_factory=dict)
    gamma_values: dict[int, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    accounting_ok: bool | None = None
    complete: bool = True
    note: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "premise not applicable", "no critical states")

    def to_json(self) -> dict:
        return {
            "status": self.status,
            "premise_holds": self.premise_holds,
            "critical_indices": {str(l): i for l, i in sorted(self.critical.items())},
            "gamma": {str(l): g for l, g in sorted(self.gamma_values.items())},
            "violations": self.violations,
            "accounting_ok": self.accounting_ok,
            "complete": self.complete,
            "note": self.note,
        }


def verify_gamma_decrement(m: MetricSpace, trace: Trace, opt: OptimalSolution,
                           *, clique_cap: int = 2000) -> GammaDecrementReport:
    """Check the potential drop along a trace, against a supplied optimum.

    Applies only when the final facilities have a required pair (two of
    them share an optimal ball); results are reported for the given
    optimum, not quantified over all optima.
    """
    if not required_pairs(opt, trace.final):
        return GammaDecrementReport(status="premise not applicable",
                                    premise_holds=False)

    critical = critical_indices(trace, opt.opt_value)
    if not critical:
        return GammaDecrementReport(status="no critical states",
                                    premise_holds=True,
                                    note="trace cost never exceeds 0")

    gamma_values: dict[int, int] = {}
    note = None
    # One walk down the removals; the critical indices never decrease.
    facilities, walked = set(range(trace.n)), 0
    for level, index in sorted(critical.items()):
        facilities.difference_update(s.removed for s in trace.steps[walked:index])
        walked = index
        try:
            gamma_values[level] = gamma(m, opt, facilities, clique_cap=clique_cap)
        except GammaCapError as err:
            note = str(err)
            break
    complete = note is None

    violations = []
    levels = sorted(gamma_values)
    for a, b in zip(levels, levels[1:]):
        if gamma_values[b] >= gamma_values[a]:
            violations.append(
                f"gamma did not decrease from level {a} ({gamma_values[a]}) "
                f"to level {b} ({gamma_values[b]})")

    accounting_ok = None
    if complete and gamma_values:
        l_bar = max(critical)
        drop = gamma_values[0] - gamma_values[l_bar]
        accounting_ok = l_bar <= drop <= len(opt.balls) - 1
        if not accounting_ok:
            violations.append(
                f"accounting failed: l_bar={l_bar}, gamma drop={drop}, "
                f"k-1={len(opt.balls) - 1}")

    if not complete:
        status = "incomplete"
    elif violations:
        status = "violated"
    else:
        status = "ok"
    return GammaDecrementReport(status=status, premise_holds=True,
                                critical=critical, gamma_values=gamma_values,
                                violations=violations, accounting_ok=accounting_ok,
                                complete=complete, note=note)
