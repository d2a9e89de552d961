"""Differential test of the incremental reverse greedy engine against a
per-step reference loop that rebuilds `marginal_costs` from scratch and
takes its argmin.  For small n the reference is itself checked against one
direct `cost()` evaluation per removal, so the margin formula the two share
is not its own oracle."""

import sys
import tracemalloc
from itertools import permutations
from random import Random
from unittest import mock

import numpy as np
import pytest
from conftest import uniform_metric
from hypothesis import example, given, settings, strategies as st

from revgreedy import kcenter
from revgreedy.kcenter import (ScriptedStepError, TiePolicy, TraceStep, _ranked_rows,
                               _stable_argsort, cost, marginal_costs, reverse_greedy,
                               reverse_greedy_runs)
from revgreedy.lowerbound import (build_lower_bound_instance, scripted_schedule,
                                  size_formula)
from revgreedy.metric import MetricSpace, random_metric

COMMON = dict(deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """Int and float metrics, with and without exact ties."""
    source = draw(st.sampled_from(
        ["euclidean", "random-graph", "graph-as-float", "family", "uniform"]))
    if source == "family":
        k = draw(st.integers(2, 4))
        m = build_lower_bound_instance(k, size_formula(k) + draw(st.integers(0, 3))).metric
    elif source == "uniform":
        m = uniform_metric(draw(st.integers(2, 12)))
    else:
        n, seed = draw(st.integers(2, 16)), draw(st.integers(0, 10_000))
        m = random_metric("euclidean" if source == "euclidean" else "random-graph",
                          n, seed)
        if source == "graph-as-float":
            # Float mode with ties, exact or off by less than the float
            # slack, which the argmin must tell apart.
            rng = np.random.default_rng(seed)
            noise = np.triu(rng.integers(0, 3, (n, n)) * 3e-10, 1)
            m = MetricSpace(dist=m.dist + noise + noise.T, mode="float")
    return m, draw(st.integers(1, m.n))


def reference_argmin(m, current, step):
    """Marginal costs, minimum and argmin set of one step, from scratch."""
    margins = marginal_costs(m, current)
    if m.n <= 10:
        assert margins == {g: cost(m, current - {g}) for g in current}, step
    minimum = min(margins.values())
    argmin = tuple(sorted(g for g, v in margins.items() if v == minimum))
    return margins, minimum, argmin


def reference_run(m, k, choose):
    """Reverse greedy one step at a time; `choose(argmin)` picks the removal."""
    current = set(range(m.n))
    steps = []
    for i in range(1, m.n - k + 1):
        margins, _, argmin = reference_argmin(m, current, i)
        removed = choose(argmin)
        current.discard(removed)
        steps.append(TraceStep(removed, margins[removed], argmin))
    return steps, frozenset(current)


def as_rows(steps):
    # repr pins the cost's type as well as its value: int or float, never numpy.
    return [(s.removed, repr(s.cost), s.argmin) for s in steps]


@pytest.mark.parametrize("kind", ["lowest-index", "seeded-random", "scripted"])
@settings(max_examples=120, **COMMON)
@given(case=instances(), seed=st.integers(0, 10_000), data=st.data())
def test_engine_matches_reference_loop(kind, case, seed, data):
    m, k = case
    if kind == "lowest-index":
        steps, final = reference_run(m, k, lambda argmin: argmin[0])
        policy = TiePolicy.lowest_index()
    elif kind == "seeded-random":
        rng = Random(seed)
        steps, final = reference_run(m, k, lambda argmin: rng.choice(argmin))
        policy = TiePolicy.seeded_random(seed)
    else:
        steps, final = reference_run(
            m, k, lambda argmin: data.draw(st.sampled_from(argmin)))
        policy = (TiePolicy.scripted([s.removed for s in steps])
                  if steps else None)
    trace = reverse_greedy(m, k, policy, record_argmin=True)
    assert as_rows(trace.steps) == as_rows(steps)
    assert trace.final == final


def reference_policy_run(m, k, policy):
    """The reference run under a known policy."""
    if policy.kind == "lowest-index":
        return reference_run(m, k, lambda argmin: argmin[0])
    if policy.kind == "seeded-random":
        rng = Random(policy.seed)
        return reference_run(m, k, lambda argmin: rng.choice(argmin))
    script = iter(policy.script)

    def choose(argmin):
        removed = next(script)
        assert removed in argmin
        return removed

    return reference_run(m, k, choose)


def assert_policy_matches_reference(m, k, policy):
    """The engine's trace is the reference run's under a known policy."""
    steps, final = reference_policy_run(m, k, policy)
    trace = reverse_greedy(m, k, policy, record_argmin=True)
    assert as_rows(trace.steps) == as_rows(steps)
    assert trace.final == final


# Instances whose removals skip many dead positions in a sorted row, so the
# engine's pointers reach its doubling windows and the clamp at n - 1.
@settings(max_examples=30, **COMMON)
@given(n=st.integers(40, 120), seed=st.integers(0, 10_000),
       edge_prob=st.sampled_from([0.3, 0.6, 0.9]), k=st.integers(1, 4))
def test_dense_small_weight_graphs_match_reference(n, seed, edge_prob, k):
    m = random_metric("random-graph", n, seed, edge_prob=edge_prob, max_weight=3)
    assert_policy_matches_reference(m, k, TiePolicy.lowest_index())


@settings(max_examples=30, **COMMON)
@given(n=st.integers(2, 200), seed=st.integers(0, 10_000), k=st.integers(1, 3))
@example(n=200, seed=0, k=1)
def test_uniform_metric_matches_reference(n, seed, k):
    assert_policy_matches_reference(uniform_metric(n), min(k, n),
                                    TiePolicy.seeded_random(seed))


@pytest.mark.parametrize("k", range(2, 9))
def test_family_matches_reference(k):
    inst = build_lower_bound_instance(k)
    script = TiePolicy.scripted(scripted_schedule(inst).script())
    for policy in (TiePolicy.lowest_index(), script):
        assert_policy_matches_reference(inst.metric, k, policy)


@settings(max_examples=150, **COMMON)
@given(case=instances(), data=st.data())
def test_illegal_script_rejected_like_reference(case, data):
    m, k = case
    current = set(range(m.n))
    script = []
    for i in range(1, m.n - k + 1):
        margins, minimum, argmin = reference_argmin(m, current, i)
        outside = sorted(current - set(argmin))
        if outside and data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(outside))
            rest = sorted(current - {bad})
            script += [bad] + rest[:m.n - k - len(script) - 1]
            with pytest.raises(ScriptedStepError) as err:
                reverse_greedy(m, k, TiePolicy.scripted(script))
            assert str(err.value) == (
                f"illegal scripted step {i}: facility {bad} has marginal "
                f"cost {margins[bad]} > minimum {minimum}")
            return
        removed = data.draw(st.sampled_from(argmin))
        script.append(removed)
        current.discard(removed)


@pytest.mark.parametrize("point", [7, -1])
def test_out_of_range_scripted_removal_rejected(point):
    with pytest.raises(ScriptedStepError,
                       match=rf"^illegal scripted step 2: facility {point} "
                             r"is not a point of 0\.\.4$"):
        reverse_greedy(uniform_metric(5), 2, TiePolicy.scripted((0, point, 1)))


def test_engine_keeps_zero_distance_duplicates_apart():
    # Points 0 and 2 coincide: client 2 is served by facility 0 (lowest
    # index among equidistant facilities), so facility 2 serves no client.
    d = np.array([[0, 3, 0], [3, 0, 3], [0, 3, 0]])
    m = MetricSpace(dist=d)
    steps, final = reference_run(m, 1, lambda argmin: argmin[0])
    trace = reverse_greedy(m, 1, record_argmin=True)
    assert as_rows(trace.steps) == as_rows(steps)
    assert trace.final == final


@st.composite
def boundary_metrics(draw):
    """Line and Manhattan metrics whose largest entry is the top of uint8 or
    int16, or one past it, so the table is stored at the edge of its type."""
    top = draw(st.sampled_from([255, 256, 32767, 32768]))
    n = draw(st.integers(2, 12))
    # Coordinates from a few values, so distances tie; the first and last
    # points lie top apart, and no two points lie farther apart.
    values = st.sampled_from([0, 1, top // 2, top // 3, top - 1, top])
    if draw(st.booleans()):
        xs = [0, top] + draw(st.lists(values, min_size=n - 2, max_size=n - 2))
        d = np.abs(np.subtract.outer(xs, xs))
    else:
        cut = draw(st.integers(0, top))
        pts = [(0, 0), (cut, top - cut)] + [
            (x * cut // top, y * (top - cut) // top)
            for x, y in draw(st.lists(st.tuples(values, values),
                                      min_size=n - 2, max_size=n - 2))]
        xy = np.array(pts)
        d = np.abs(xy[:, None, :] - xy[None, :, :]).sum(axis=2)
    assert d.max() == top
    return MetricSpace(dist=d), draw(st.integers(1, n))


@settings(max_examples=120, **COMMON)
@given(case=boundary_metrics(), data=st.data())
def test_engine_matches_reference_at_the_type_boundaries(case, data):
    # Removed facilities and masked nearest entries take a value above
    # every distance, which a table whose largest entry is its type's
    # largest cannot hold; the engine and marginal_costs hold it wider.
    m, k = case
    stored = {255: np.uint8, 256: np.int16, 32767: np.int16, 32768: np.int32}
    assert m.dist.dtype == stored[int(m.dist.max())]
    assert_batch_is_single_runs(m, k, [draw_policy(data, m, k) for _ in range(3)])


def float_tables_with_ties():
    """Float tables whose rows hold exact ties, duplicate points, -0.0
    beside 0.0, one value throughout, and no tie at all; small rows and
    rows long enough for numpy's vectorized sort."""
    for n in (5, 17, 64, 300, 560):
        m = random_metric("euclidean", n, n)
        yield f"euclidean-{n}", m.dist
        d = m.dist.copy()
        twins = np.arange(0, n - 1, 3)  # each point 3i + 1 doubles point 3i
        d[twins + 1] = d[twins]
        d[:, twins + 1] = d[:, twins]
        yield f"duplicates-{n}", d
        yield f"graph-{n}", random_metric("random-graph", n, n, max_weight=3).dist * 1.0
        signed = np.where(np.random.default_rng(n).random((n, n)) < 0.5, -0.0, 0.0)
        signed[:, ::4] = np.round(m.dist[:, ::4], 1)
        yield f"signed-zeros-{n}", signed
        yield f"uniform-{n}", np.full((n, n), 0.25)
        yield f"one-tie-{n}", np.where(np.arange(n) == n - 1, m.dist[:, :1], m.dist)


@pytest.mark.parametrize("name, rows", list(float_tables_with_ties()),
                         ids=lambda x: x if isinstance(x, str) else "")
def test_float_sort_is_the_stable_sort(name, rows):
    expected = np.argsort(rows, axis=1, kind="stable")
    assert np.array_equal(_stable_argsort(rows), expected)
    # Rounded to float32, near distances tie as well.
    assert np.array_equal(_stable_argsort(rows.astype(np.float32)),
                          np.argsort(rows.astype(np.float32), axis=1, kind="stable"))


# --- batches: several policies run side by side on one metric ---

@st.composite
def batch_instances(draw):
    """The instances above, plus n = 1, n = 2 and zero-distance duplicates
    (points sharing a location, so equidistant facilities abound)."""
    source = draw(st.sampled_from(["instances", "tiny", "duplicates"]))
    if source == "instances":
        return draw(instances())
    if source == "tiny":
        d = draw(st.integers(0, 3))
        m = MetricSpace(dist=draw(st.sampled_from([[[0]], [[0, d], [d, 0]]])))
        return m, draw(st.integers(1, m.n))
    base = random_metric("random-graph", draw(st.integers(2, 8)),
                         draw(st.integers(0, 10_000)), max_weight=3)
    where = draw(st.lists(st.integers(0, base.n - 1), min_size=2, max_size=14))
    m = MetricSpace(dist=base.dist[np.ix_(where, where)])
    return m, draw(st.integers(1, m.n))


def draw_policy(data, m, k):
    """A lowest-index, seeded-random or (legal) scripted policy."""
    kind = data.draw(st.sampled_from(["lowest-index", "seeded-random", "scripted"]))
    if kind == "seeded-random":
        return TiePolicy.seeded_random(data.draw(st.integers(0, 10_000)))
    if kind == "scripted" and m.n > k:
        steps, _ = reference_run(m, k, lambda argmin: data.draw(st.sampled_from(argmin)))
        return TiePolicy.scripted([s.removed for s in steps])
    return TiePolicy.lowest_index()


def assert_batch_is_single_runs(m, k, policies):
    """Each run of the batch is the engine's single run and the reference's."""
    traces = reverse_greedy_runs(m, k, policies, record_argmin=True)
    assert len(traces) == len(policies)
    for policy, trace in zip(policies, traces):
        single = reverse_greedy(m, k, policy, record_argmin=True)
        steps, final = reference_policy_run(m, k, policy)
        assert as_rows(trace.steps) == as_rows(single.steps) == as_rows(steps)
        assert trace.final == single.final == final
        assert (trace.k, trace.policy) == (k, policy.describe())


@settings(max_examples=150, **COMMON)
@given(case=batch_instances(), data=st.data())
def test_every_run_of_a_batch_is_the_single_run(case, data):
    m, k = case
    policies = [draw_policy(data, m, k) for _ in range(data.draw(st.integers(1, 6)))]
    assert_batch_is_single_runs(m, k, policies)


@pytest.mark.parametrize("k", range(2, 6))
def test_family_batch_runs_apart(k):
    # For k >= 3 the scripted run ends at cost 2k - 2 and the other two
    # lower, so the runs' nearest distances, and their cost floors, part ways.
    inst = build_lower_bound_instance(k)
    script = TiePolicy.scripted(scripted_schedule(inst).script())
    assert_batch_is_single_runs(inst.metric, k, [
        TiePolicy.lowest_index(), script, TiePolicy.seeded_random(k), script])


@pytest.mark.parametrize("dist, k", [([[0]], 1), ([[0, 2], [2, 0]], 1),
                                     ([[0, 0], [0, 0]], 1), ([[0, 2], [2, 0]], 2)])
def test_tiny_batches_are_single_runs(dist, k):
    m = MetricSpace(dist=dist)
    policies = [TiePolicy.lowest_index(), TiePolicy.seeded_random(5)]
    if m.n > k:
        policies.append(TiePolicy.scripted([1]))
    assert_batch_is_single_runs(m, k, policies)


@settings(max_examples=100, **COMMON)
@given(case=instances(), data=st.data())
def test_illegal_script_in_a_batch_fails_like_the_single_run(case, data):
    m, k = case
    current = set(range(m.n))
    script = []
    for i in range(1, m.n - k + 1):
        _, _, argmin = reference_argmin(m, current, i)
        outside = sorted(current - set(argmin))
        if outside and data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(outside))
            script += [bad] + sorted(current - {bad})[:m.n - k - len(script) - 1]
            break
        removed = data.draw(st.sampled_from(argmin))
        script.append(removed)
        current.discard(removed)
    else:
        return
    illegal = TiePolicy.scripted(script)
    with pytest.raises(ScriptedStepError) as alone:
        reverse_greedy(m, k, illegal)
    policies = [draw_policy(data, m, k) for _ in range(data.draw(st.integers(0, 5)))]
    policies.insert(data.draw(st.integers(0, len(policies))), illegal)
    with pytest.raises(ScriptedStepError) as batched:
        reverse_greedy_runs(m, k, policies)
    assert str(batched.value) == str(alone.value)


def test_out_of_range_removal_in_a_batch_fails_like_the_single_run():
    m = uniform_metric(5)
    policies = [TiePolicy.lowest_index(), TiePolicy.scripted((0, 7, 1)),
                TiePolicy.seeded_random(2)]
    with pytest.raises(ScriptedStepError,
                       match=r"^illegal scripted step 2: facility 7 is not a point of 0\.\.4$"):
        reverse_greedy_runs(m, 2, policies)


def test_batch_checks_every_script_length_first():
    with pytest.raises(ValueError, match="names 1 removals, need 3"):
        reverse_greedy_runs(uniform_metric(5), 2,
                            [TiePolicy.lowest_index(), TiePolicy.scripted((0,))])


# --- batches over several metrics of one n and mode ---

@st.composite
def metric_batches(draw):
    """A few metrics of one n and mode, some held by several runs, with
    integer tables whose narrowest types differ."""
    n = draw(st.integers(2, 12))
    mode = draw(st.sampled_from(["int", "float"]))
    metrics = []
    for _ in range(draw(st.integers(1, 4))):
        seed = draw(st.integers(0, 10_000))
        source = draw(st.sampled_from(["random", "uniform", "duplicates"]))
        if source == "uniform":
            m = uniform_metric(n)
        elif source == "duplicates":
            base = random_metric("random-graph", draw(st.integers(1, n)), seed,
                                 max_weight=3)
            where = draw(st.lists(st.integers(0, base.n - 1), min_size=n, max_size=n))
            m = MetricSpace(dist=base.dist[np.ix_(where, where)])
        elif mode == "float":
            m = random_metric("euclidean", n, seed)
        else:
            m = random_metric("random-graph", n, seed)
        if mode == "float" and m.mode == "int":
            m = MetricSpace(dist=m.dist * 0.5, mode="float")
        elif draw(st.booleans()):  # int16 distances, or doubled float ones
            wide = np.int64 if m.mode == "int" else np.float64  # before scaling
            m = MetricSpace(dist=m.dist.astype(wide) * 300, mode=m.mode)
        metrics.append(m)
    return metrics, draw(st.integers(1, n))


@settings(max_examples=150, **COMMON)
@given(case=metric_batches(), data=st.data())
def test_every_run_of_a_multi_metric_batch_is_the_single_run(case, data):
    metrics, k = case
    runs = data.draw(st.integers(1, 8))
    which = [data.draw(st.sampled_from(metrics)) for _ in range(runs)]
    policies = [draw_policy(data, m, k) for m in which]
    traces = reverse_greedy_runs(which, k, policies, record_argmin=True)
    assert len(traces) == len(policies)
    for m, policy, trace in zip(which, policies, traces):
        single = reverse_greedy(m, k, policy, record_argmin=True)
        steps, final = reference_policy_run(m, k, policy)
        assert as_rows(trace.steps) == as_rows(single.steps) == as_rows(steps)
        assert trace.final == single.final == final
        assert (trace.k, trace.policy) == (k, policy.describe())


@settings(max_examples=100, **COMMON)
@given(case=metric_batches(), data=st.data())
def test_illegal_script_in_a_multi_metric_batch_fails_like_the_single_run(case, data):
    metrics, k = case
    m = data.draw(st.sampled_from(metrics))
    current = set(range(m.n))
    script = []
    for i in range(1, m.n - k + 1):
        _, _, argmin = reference_argmin(m, current, i)
        outside = sorted(current - set(argmin))
        if outside and data.draw(st.booleans()):
            bad = data.draw(st.sampled_from(outside))
            script += [bad] + sorted(current - {bad})[:m.n - k - len(script) - 1]
            break
        removed = data.draw(st.sampled_from(argmin))
        script.append(removed)
        current.discard(removed)
    else:
        return
    illegal = TiePolicy.scripted(script)
    with pytest.raises(ScriptedStepError) as alone:
        reverse_greedy(m, k, illegal)
    runs = data.draw(st.integers(0, 5))
    which = [data.draw(st.sampled_from(metrics)) for _ in range(runs)]
    policies = [TiePolicy.lowest_index() if data.draw(st.booleans())
                else TiePolicy.seeded_random(data.draw(st.integers(0, 10_000)))
                for _ in which]
    at = data.draw(st.integers(0, len(which)))
    which.insert(at, m)
    policies.insert(at, illegal)
    with pytest.raises(ScriptedStepError) as batched:
        reverse_greedy_runs(which, k, policies)
    assert str(batched.value) == str(alone.value)


@pytest.mark.parametrize("second, message", [
    (uniform_metric(4), "batched metrics must share n and mode: n=3 int and n=4 int"),
    (MetricSpace(dist=uniform_metric(3).dist, mode="float"),
     "batched metrics must share n and mode: n=3 int and n=3 float"),
])
def test_multi_metric_batch_rejects_mixed_n_or_mode(second, message):
    policies = [TiePolicy.lowest_index()] * 2
    with pytest.raises(ValueError, match=f"^{message}$"):
        reverse_greedy_runs([uniform_metric(3), second], 1, policies)


def test_multi_metric_batch_needs_one_metric_per_run():
    with pytest.raises(ValueError, match="^1 metrics for 2 tie policies$"):
        reverse_greedy_runs([uniform_metric(3)], 1, [TiePolicy.lowest_index()] * 2)


def test_batch_holds_one_sorted_order_per_metric():
    # Five metrics, six runs each.  A sorted order per run would alone take
    # 30 n x n index tables, one byte an entry at n = 256; one per metric
    # takes 5, beside the 5 stacked float tables, and the per-run arrays and
    # the sort's blocks stay under 3 float tables more.  Two steps keep the
    # traces and pointer windows small.
    n = 256
    metrics = [random_metric("euclidean", n, seed) for seed in range(5)]
    policies = [TiePolicy.lowest_index()] + [TiePolicy.seeded_random(j) for j in range(5)]
    index, table = n * n, n * n * 8
    tracemalloc.start()
    try:
        reverse_greedy_runs([m for m in metrics for _ in policies], n - 2, policies * 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * table + 5 * index, peak / index


@pytest.mark.parametrize("n, kind", [(256, np.uint8), (257, np.int16)])
def test_sorted_rows_take_the_narrowest_type(n, kind):
    # Facilities 0..n - 1: one byte holds 255 at most.
    rows = np.random.default_rng(n).integers(0, 3, (4, n))
    ranked = _ranked_rows(rows)
    assert ranked.dtype == kind
    assert (ranked == np.argsort(rows, axis=1, kind="stable").reshape(-1)).all()


# --- a step's stale clients, re-pointed one by one or in numpy rounds ---

def runs_both_ways(m, k, policies, record_argmin=True):
    """The traces, or the ScriptedStepError text, with every step's stale
    clients re-pointed in numpy rounds and then all in the Python loop."""
    results = []
    for few in (0, sys.maxsize):
        with mock.patch.object(kcenter, "_FEW_STALE", few):
            try:
                traces = reverse_greedy_runs(m, k, policies, record_argmin=record_argmin)
                results.append([(as_rows(t.steps), t.final) for t in traces])
            except ScriptedStepError as err:
                results.append(str(err))
    return results


def few_stale_cases():
    for k in range(3, 13):
        inst = build_lower_bound_instance(k)
        script = TiePolicy.scripted(scripted_schedule(inst).script())
        yield pytest.param(inst.metric, k, [script, TiePolicy.lowest_index(),
                                            TiePolicy.seeded_random(k)], id=f"family-{k}")
    mixed = [TiePolicy.lowest_index(), TiePolicy.seeded_random(1)]
    yield pytest.param(uniform_metric(150), 2, mixed, id="uniform")
    yield pytest.param(random_metric("random-graph", 150, 3, edge_prob=0.5, max_weight=2),
                       3, mixed, id="ties")
    yield pytest.param(random_metric("euclidean", 150, 4), 3, mixed, id="euclidean")
    # A verify upper pass: 30 runs on 5 metrics, 960 entries, so facility
    # ids outgrow the one-byte type of ranked.
    metrics = [random_metric("random-graph", 32, seed) for seed in range(5)]
    yield pytest.param([metrics[j % 5] for j in range(30)], 5, [
        TiePolicy.seeded_random(j) if j % 3 else TiePolicy.lowest_index()
        for j in range(30)], id="battery")


@pytest.mark.parametrize("m, k, policies", few_stale_cases())
def test_few_stale_loop_matches_numpy_rounds(m, k, policies):
    rounds, loop = runs_both_ways(m, k, policies)
    assert not isinstance(rounds, str)
    assert loop == rounds


@pytest.mark.parametrize("k", [4, 6])
def test_few_stale_loop_rejects_scripts_like_numpy_rounds(k):
    inst = build_lower_bound_instance(k)
    script = list(scripted_schedule(inst).script())
    rejected = 0
    for at in range(0, len(script), 5):
        # The last removal moved to step at + 1, where it is mostly illegal.
        bad = script[:at] + script[-1:] + script[at:-1]
        rounds, loop = runs_both_ways(inst.metric, k, [TiePolicy.scripted(bad)],
                                      record_argmin=False)
        assert loop == rounds
        rejected += isinstance(rounds, str)
    assert rejected >= 4


@settings(max_examples=100, **COMMON)
@given(case=batch_instances(), data=st.data())
def test_few_stale_loop_matches_numpy_rounds_on_small_batches(case, data):
    m, k = case
    policies = [draw_policy(data, m, k) for _ in range(data.draw(st.integers(1, 4)))]
    rounds, loop = runs_both_ways(m, k, policies)
    assert loop == rounds


# --- single runs: stale clients from per-facility lists, and a running floor ---

def near_tied_floats(n, seed):
    """A small-weight random graph in float mode, its entries nudged by 0,
    3e-10 or 6e-10: ties exact or broken by less than 1e-9."""
    m = random_metric("random-graph", n, seed, edge_prob=0.5, max_weight=2)
    noise = np.triu(np.random.default_rng(seed).integers(0, 3, (n, n)) * 3e-10, 1)
    return MetricSpace(dist=m.dist + noise + noise.T, mode="float")


def single_run_cases():
    # Padding by 40 leaves gives the family one step of more than 32 stale
    # clients, and the lowest-index runs on the integer random graphs take
    # 3 or 4 such steps.
    for k in range(3, 9):
        for pad in (0, 40):
            inst = build_lower_bound_instance(k, size_formula(k) + pad)
            script = TiePolicy.scripted(scripted_schedule(inst).script())
            yield pytest.param(inst.metric, k, [script, TiePolicy.lowest_index()],
                               id=f"family-{k}+{pad}")
    for seed in range(3):
        yield pytest.param(random_metric("random-graph", 60, seed, edge_prob=0.5,
                                         max_weight=2),
                           3, [TiePolicy.lowest_index(), TiePolicy.seeded_random(seed)],
                           id=f"ties-{seed}")
        yield pytest.param(near_tied_floats(60, seed), 3,
                           [TiePolicy.lowest_index(), TiePolicy.seeded_random(seed)],
                           id=f"near-tied-{seed}")


@pytest.mark.parametrize("m, k, policies", single_run_cases())
def test_single_runs_match_reference_at_any_stale_threshold(m, k, policies):
    # With no stale client re-pointed in Python, with the default split and
    # with every one re-pointed in Python, a single run reads its stale
    # clients from its lists and a batch scans for them; both must give the
    # reference's steps.
    expected = [as_rows(reference_policy_run(m, k, p)[0]) for p in policies]
    for few in (0, kcenter._FEW_STALE, 10**9):
        with mock.patch.object(kcenter, "_FEW_STALE", few):
            single = [reverse_greedy(m, k, p, record_argmin=True) for p in policies]
            batch = reverse_greedy_runs(m, k, policies, record_argmin=True)
            plain = [reverse_greedy(m, k, p) for p in policies]
        assert [as_rows(t.steps) for t in single] == expected, few
        assert [as_rows(t.steps) for t in batch] == expected, few
        assert ([[(s.removed, repr(s.cost)) for s in t.steps] for t in plain]
                == [[row[:2] for row in rows] for rows in expected]), few


def legality_cases():
    for k in (3, 4, 5):
        yield pytest.param(build_lower_bound_instance(k).metric, k, id=f"family-{k}")
    yield pytest.param(random_metric("random-graph", 30, 2, edge_prob=0.4, max_weight=3),
                       3, id="graph")
    # Unique Euclidean distances never cost the floor; near ties do.
    yield pytest.param(near_tied_floats(30, 1), 2, id="near-tied")


def completed_script(m, k, prefix):
    """prefix, then the reference's lowest-index removals to k facilities."""
    current = set(range(m.n)) - set(prefix)
    script = list(prefix)
    for i in range(len(script) + 1, m.n - k + 1):
        _, _, argmin = reference_argmin(m, current, i)
        script.append(argmin[0])
        current.discard(argmin[0])
    return script


@pytest.mark.parametrize("m, k", legality_cases())
def test_scripted_legality_branches(m, k):
    # A scripted removal whose cost is the floor (the cost of the set it
    # leaves, as no client is nearer) is legal without the minimum; one
    # above the floor is legal exactly at the minimum and otherwise fails
    # with the reference's cost and minimum.  The first step of a lowest-
    # index walk to hold each case tries it.
    current, prefix, seen = set(range(m.n)), [], set()
    for i in range(1, m.n - k + 1):
        margins, minimum, argmin = reference_argmin(m, current, i)
        floor = cost(m, current)
        for g in sorted(current):
            case = ("floor" if margins[g] == floor else
                    "minimum" if margins[g] == minimum else "above")
            if case in seen:
                continue
            seen.add(case)
            if case == "above":
                script = [*prefix, g, *sorted(current - {g})][:m.n - k]
                with pytest.raises(ScriptedStepError) as err:
                    reverse_greedy(m, k, TiePolicy.scripted(script))
                assert str(err.value) == (
                    f"illegal scripted step {i}: facility {g} has marginal "
                    f"cost {margins[g]} > minimum {minimum}")
                continue
            policy = TiePolicy.scripted(completed_script(m, k, [*prefix, g]))
            steps, _ = reference_policy_run(m, k, policy)
            assert steps[i - 1].cost == margins[g]
            trace = reverse_greedy(m, k, policy)
            assert [(s.removed, repr(s.cost)) for s in trace.steps] == [
                (s.removed, repr(s.cost)) for s in steps]
        prefix.append(argmin[0])
        current.discard(argmin[0])
    assert seen == {"floor", "minimum", "above"}


@pytest.mark.parametrize("record_argmin", [False, True])
@pytest.mark.parametrize("k", [4, 5])
def test_batch_of_scripted_and_listed_runs(k, record_argmin):
    # A batch lists every run's argmin set at every step, scripted runs
    # alone or beside listed ones, while a scripted run alone reads the
    # minimum only past the floor.  A scripted-only batch holds a run that
    # follows the family for k steps and then the lowest-index walk.
    inst = build_lower_bound_instance(k)
    m = inst.metric
    family = TiePolicy.scripted(scripted_schedule(inst).script())
    walk = TiePolicy.scripted(completed_script(m, k, []))
    branch = TiePolicy.scripted(completed_script(m, k, family.script[:k]))
    for policies in ([family, walk], [walk, branch, family],
                     [family, TiePolicy.seeded_random(k), walk, TiePolicy.lowest_index()]):
        traces = reverse_greedy_runs(m, k, policies, record_argmin=record_argmin)
        for policy, trace in zip(policies, traces):
            single = reverse_greedy(m, k, policy, record_argmin=record_argmin)
            steps, final = reference_policy_run(m, k, policy)
            if not record_argmin:
                steps = [TraceStep(s.removed, s.cost) for s in steps]
            assert as_rows(trace.steps) == as_rows(single.steps) == as_rows(steps)
            assert trace.final == single.final == final


def test_signed_zeros_give_the_unsigned_trace():
    # Points repeat, so early steps cost zero; every zero of the table is
    # -0.0, which the metric stores as 0.0.
    base = random_metric("random-graph", 6, 1, max_weight=3)
    where = [0, 0, 1, 2, 2, 2, 3, 4, 5, 5, 1, 3]
    d = base.dist[np.ix_(where, where)] * 1.0
    m = MetricSpace(dist=np.where(d == 0, -0.0, d), mode="float")
    for policy in (TiePolicy.lowest_index(), TiePolicy.seeded_random(4)):
        assert_policy_matches_reference(m, 1, policy)
        trace = reverse_greedy(m, 1, policy)
        assert [repr(s.cost) for s in trace.steps][:5] == ["0.0"] * 5


# --- several illegal scripted runs in one batch ---

def illegal_scripts(m, k):
    """Scripts that follow a highest-index walk to a step i >= 2 and are
    illegal there, by name: out of range, a facility already removed, or
    above the minimum; and one legal at step i but above the minimum at
    step i + 1 ("later").  Facility 0 is
    live and at the minimum at step i, so that a removal outside 0..n - 1
    fails by its range alone, whatever in-range facility stands in for it."""
    current, walk, above, zero_tied = set(range(m.n)), [], [], []
    for i in range(1, m.n - k + 1):
        margins, minimum, argmin = reference_argmin(m, current, i)
        above.append(next((g for g in sorted(current) if margins[g] > minimum), None))
        zero_tied.append(argmin[0] == 0)
        walk.append(argmin[-1])
        current.discard(argmin[-1])
    i = next(i for i in range(2, m.n - k) if above[i - 1] is not None
             and above[i] is not None and zero_tied[i - 1] and 0 not in walk[:i - 1])

    def script(step, removal):
        # The walk to step, the removal, then points the walk has not
        # removed by then, to n - k removals in all.
        rest = [g for g in range(m.n) if g not in walk[:step - 1] and g != removal]
        return [*walk[:step - 1], removal, *rest][:m.n - k]

    # TiePolicy refuses a repeated removal, so only a script changed after
    # validation removes a facility twice; the run then reads its cost as the
    # value that masks removed facilities.
    removed = TiePolicy.scripted(script(i, walk[i - 1]))
    object.__setattr__(removed, "script", (*walk[:i - 1], walk[0], *removed.script[i:]))
    return i, {"range": TiePolicy.scripted(script(i, m.n + 4)),
               "removed": removed,
               "above": TiePolicy.scripted(script(i, above[i - 1])),
               "later": TiePolicy.scripted(script(i + 1, above[i]))}


@pytest.mark.parametrize("listed", [False, True])
@pytest.mark.parametrize("m, k", [
    pytest.param(build_lower_bound_instance(4).metric, 4, id="family-4"),
    pytest.param(random_metric("random-graph", 12, 2, max_weight=3), 3, id="graph"),
    pytest.param(near_tied_floats(12, 1), 2, id="near-tied")])
def test_several_illegal_scripts_fail_like_the_lowest_numbered_alone(m, k, listed):
    # Two or three scripted runs illegal at the same step, each in its own
    # way, in every order; a run illegal only at the next step comes first,
    # and (if listed) listed runs lie between them.  The batch raises what
    # its lowest-numbered run illegal at the earliest step raises alone.
    i, scripts = illegal_scripts(m, k)
    alone = {}
    for name, policy in scripts.items():
        with pytest.raises(ScriptedStepError) as err:
            reverse_greedy(m, k, policy)
        alone[name] = str(err.value)
    assert alone["range"] == (f"illegal scripted step {i}: facility {m.n + 4} "
                              f"is not a point of 0..{m.n - 1}")
    assert alone["removed"].startswith(
        f"illegal scripted step {i}: facility {scripts['removed'].script[i - 1]} "
        f"has marginal cost {kcenter._above_all(m).item()} > minimum ")
    assert alone["above"].startswith(f"illegal scripted step {i}: facility "
                                     f"{scripts['above'].script[i - 1]} has marginal cost ")
    assert alone["later"].startswith(f"illegal scripted step {i + 1}: ")
    between = ([TiePolicy.lowest_index(), TiePolicy.seeded_random(i)] if listed
               else [])
    for size in (2, 3):
        for order in permutations(["range", "removed", "above"], size):
            policies = [scripts["later"]]
            for j, name in enumerate(order):
                policies += between[j % 2:j % 2 + 1] + [scripts[name]]
            with pytest.raises(ScriptedStepError) as batched:
                reverse_greedy_runs(m, k, policies)
            assert str(batched.value) == alone[order[0]], order
