import json
import re

import numpy as np
import pytest
from conftest import phase_sizes

from revgreedy import lowerbound
from revgreedy.exact import exact_opt
from revgreedy.kcenter import TiePolicy, cost, reverse_greedy
from revgreedy.lowerbound import (build_lower_bound_instance, expected_survivors,
                                  export_dot, known_opt, load_schedule,
                                  rebuild_if_lower_bound, save_schedule,
                                  scripted_schedule, size_formula,
                                  verify_schedule)
from revgreedy.metric import random_metric, validate_metric


# --- construction ---

@pytest.mark.parametrize("k,n", [(2, 6), (3, 14), (5, 39), (10, 154)])
def test_size_formula(k, n):
    assert size_formula(k) == n
    assert build_lower_bound_instance(k).n == n


def test_star_sizes_descend():
    inst = build_lower_bound_instance(5)
    sizes = [1 + len(s.leaves) for s in inst.stars]
    assert sizes == [9, 9, 8, 7, 6]
    assert sum(sizes) == size_formula(5)


def test_k3_star_sizes():
    inst = build_lower_bound_instance(3)
    assert [1 + len(s.leaves) for s in inst.stars] == [5, 5, 4]


def test_requires_k_at_least_two():
    with pytest.raises(ValueError, match="k >= 2"):
        build_lower_bound_instance(1)


def test_n_below_formula_rejected():
    with pytest.raises(ValueError, match="below"):
        build_lower_bound_instance(3, 13)


def test_edge_weights_are_the_odd_ladder():
    inst = build_lower_bound_instance(5)
    weights = {w for _, _, w in inst.graph.edges}
    assert weights == {1, 3, 5, 7}


def test_metric_is_valid_and_exact():
    inst = build_lower_bound_instance(4)
    assert inst.metric.mode == "int"
    assert validate_metric(inst.metric).ok


def test_padding_layout():
    inst = build_lower_bound_instance(3, 18)
    assert inst.n == 18
    assert len(inst.padding) == 4
    assert min(inst.padding) == size_formula(3)
    labels = inst.metric.labels
    assert labels[inst.padding[0]] == "C0.pad1"
    # Base indices unchanged by padding.
    bare = build_lower_bound_instance(3)
    m = size_formula(3)
    assert np.array_equal(inst.metric.dist[:m, :m], bare.metric.dist)


# --- known optimum ---

@pytest.mark.parametrize("k", [2, 4, 6])
def test_known_opt_centers_cost_one(k):
    inst = build_lower_bound_instance(k)
    opt = known_opt(inst)
    assert opt.opt_value == 1
    assert cost(inst.metric, opt.facilities) == 1
    assert frozenset().union(*opt.balls) >= frozenset(range(inst.n)) - set(inst.padding)


def test_known_opt_agrees_with_exact_oracle():
    for k in (2, 3):
        inst = build_lower_bound_instance(k)
        sol = exact_opt(inst.metric, k)
        assert sol.opt_value == known_opt(inst).opt_value


# --- schedule ---

def test_schedule_k5_shape():
    inst = build_lower_bound_instance(5)
    sched = scripted_schedule(inst)
    assert len(sched.steps) == 34
    assert phase_sizes(sched) == {1: 12, 2: 16, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1}


def test_schedule_k2_order():
    inst = build_lower_bound_instance(2)
    sched = scripted_schedule(inst)
    c0, c1 = inst.stars
    assert sched.script() == (c1.leaf(1), c1.leaf(2), c1.center, c0.center)
    assert [s.phase for s in sched.steps] == [1, 1, 1, 2]
    assert expected_survivors(inst) == {c0.leaf(1), c0.leaf(2)}


@pytest.mark.parametrize("k", [3, 5, 8])
def test_last_removal_is_the_kplus1_leaf(k):
    inst = build_lower_bound_instance(k)
    sched = scripted_schedule(inst)
    assert sched.steps[-1].point == inst.stars[0].leaf(k + 1)
    assert sched.steps[-1].phase == 2 * k - 2


def test_padding_removed_first():
    inst = build_lower_bound_instance(3, 17)
    sched = scripted_schedule(inst)
    head = sched.script()[: len(inst.padding)]
    assert set(head) == set(inst.padding)
    assert all(s.phase == 1 for s in sched.steps[: len(inst.padding)])


# --- verification ---

@pytest.mark.parametrize("k", range(2, 11))
def test_schedule_verifies(k):
    inst = build_lower_bound_instance(k)
    report = verify_schedule(inst, scripted_schedule(inst))
    assert report.ok, report.failures
    assert report.final_cost == 2 * k - 2
    assert report.survivors == expected_survivors(inst)


def test_cost_profile_matches_phases():
    inst = build_lower_bound_instance(6)
    sched = scripted_schedule(inst)
    trace = reverse_greedy(inst.metric, 6, TiePolicy.scripted(sched.script()))
    for step, planned in zip(trace.steps, sched.steps):
        assert step.cost == planned.phase
    costs = [s.cost for s in trace.steps]
    assert costs == sorted(costs)
    assert set(costs) == set(range(1, 2 * 6 - 1))


def test_padded_instance_verifies_identically():
    inst = build_lower_bound_instance(4, 30)
    report = verify_schedule(inst, scripted_schedule(inst))
    assert report.ok, report.failures
    assert report.final_cost == 2 * 4 - 2
    assert report.survivors == expected_survivors(inst)


def test_ratio_identity():
    for k in range(2, 8):
        inst = build_lower_bound_instance(k)
        report = verify_schedule(inst, scripted_schedule(inst))
        assert report.final_cost / known_opt(inst).opt_value == 2 * k - 2


def test_tampered_schedule_is_flagged():
    inst = build_lower_bound_instance(3)
    sched = scripted_schedule(inst)
    steps = list(sched.steps)
    # Pull the removal of C_0's highest matched leaf ahead of the cost-2 block.
    moved = next(s for s in steps if s.point == inst.stars[0].leaf(4))
    steps.remove(moved)
    steps.insert([s.point for s in steps].index(inst.stars[0].center) + 1, moved)
    tampered = type(sched)(k=sched.k, n=sched.n, steps=tuple(steps))
    report = verify_schedule(inst, tampered)
    assert not report.ok
    assert report.failures[0]["kind"] == "legality"
    assert "marginal cost 3 > minimum 2" in report.failures[0]["message"]


def test_wrong_length_schedule_reported():
    inst = build_lower_bound_instance(2)
    sched = scripted_schedule(inst)
    short = type(sched)(k=2, n=inst.n, steps=sched.steps[:-1])
    report = verify_schedule(inst, short)
    assert not report.ok
    assert report.failures[0]["kind"] == "length"


# --- recognition and files ---

def test_rebuild_recognizes_generated_metric():
    for k in range(2, 11):
        for pad in (0, 3):
            inst = build_lower_bound_instance(k, size_formula(k) + pad)
            again = rebuild_if_lower_bound(inst.metric, k)
            assert again is not None, (k, pad)
            assert again.n == inst.n


def test_rebuild_rejects_other_metrics(monkeypatch):
    assert rebuild_if_lower_bound(random_metric("random-graph", 14, 3), 3) is None
    # The distance-1 pair count turns non-members away before any build.
    monkeypatch.setattr(lowerbound, "build_lower_bound_instance", None)
    assert rebuild_if_lower_bound(random_metric("random-graph", 40, 1), 5) is None
    wrong_k = build_lower_bound_instance(4, size_formula(5))
    assert rebuild_if_lower_bound(wrong_k.metric, 5) is None


def test_schedule_roundtrip(tmp_path):
    inst = build_lower_bound_instance(4)
    sched = scripted_schedule(inst)
    path = tmp_path / "sched.json"
    save_schedule(path, sched)
    loaded = load_schedule(path)
    assert loaded == sched


@pytest.mark.parametrize("doc, message", [
    ("not an object", "JSON object"),
    ({"version": 1}, "lacks 'k', 'n', 'steps'"),
    ({"version": 1, "k": 2, "n": 6, "steps": {}}, "steps={}"),
    ({"version": 1, "k": 2, "n": 6, "steps": [[0, 1]]}, "schedule step 0 must"),
    ({"version": 1, "k": 2, "n": 6, "steps": [{"point": 1.5, "phase": 1}]},
     "point=1.5"),
])
def test_schedule_file_schema_checked(tmp_path, doc, message):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_schedule(path)


# --- DOT export ---

def test_dot_counts_k5():
    inst = build_lower_bound_instance(5)
    dot = export_dot(inst)
    assert len(re.findall(r"^\s*v\d+ \[", dot, re.M)) == 39
    assert len(re.findall(r"subgraph cluster_", dot)) == 5
    for w in (3, 5, 7):
        assert f'label="{w}"' in dot


def test_dot_counts_k2():
    dot = export_dot(build_lower_bound_instance(2))
    assert len(re.findall(r"^\s*v\d+ \[", dot, re.M)) == 6
    assert len(re.findall(r"subgraph cluster_", dot)) == 2


def test_dot_trace_marks_removals_not_survivors():
    inst = build_lower_bound_instance(5)
    trace = reverse_greedy(inst.metric, 5,
                           TiePolicy.scripted(scripted_schedule(inst).script()))
    dot = export_dot(inst, trace)
    marked = set(re.findall(r"^\s*v(\d+) \[[^\]]*phase=", dot, re.M))
    assert marked == {str(s.removed) for s in trace.steps}
    for survivor in trace.final:
        line = next(l for l in dot.splitlines() if l.strip().startswith(f"v{survivor} ["))
        assert "phase=" not in line


def test_dot_rejects_trace_of_another_instance():
    small = build_lower_bound_instance(2)
    trace = reverse_greedy(small.metric, 2,
                           TiePolicy.scripted(scripted_schedule(small).script()))
    with pytest.raises(ValueError, match="trace has 6 points, the instance 14"):
        export_dot(build_lower_bound_instance(3), trace)
