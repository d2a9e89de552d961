import csv
import dataclasses
import hashlib
import json
import re
import tracemalloc

import pytest
from conftest import uniform_metric

from revgreedy import cli, exact, lowerbound
from revgreedy.metric import random_metric, save_instance


def run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


# --- gen ---

def test_gen_lowerbound_k5(tmp_path, capsys):
    out = tmp_path / "inst.json"
    assert run_cli(["gen", "lowerbound", "--k", "5", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n"] == 39 and doc["k"] == 5
    assert "formula_n=39" in capsys.readouterr().out


def test_gen_lowerbound_k1_exits_2(tmp_path):
    out = tmp_path / "inst.json"
    assert run_cli(["gen", "lowerbound", "--k", "1", "--out", str(out)]) == 2


def test_gen_random_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["gen", "random", "--kind", "euclidean", "--n", "10", "--seed", "1"]
    assert run_cli(argv + ["--out", str(a)]) == 0
    assert run_cli(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("kind, flags, unread", [
    ("euclidean", ["--edge-prob", "5", "--max-weight", "0"], "--edge-prob, --max-weight"),
    ("euclidean", ["--dim", "3", "--max-weight", "9"], "--max-weight"),
    ("random-graph", ["--dim", "0"], "--dim"),
    ("random-graph", ["--edge-prob", "0.5", "--dim", "2"], "--dim"),
])
def test_gen_random_rejects_flags_its_kind_does_not_read(tmp_path, capsys, kind,
                                                         flags, unread):
    out = tmp_path / "r.json"
    assert run_cli(["gen", "random", "--kind", kind, "--n", "3", "--out", str(out)]
                   + flags) == 2
    assert capsys.readouterr().err == f"error: --kind {kind} does not read {unread}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, flags, given", [
    ("euclidean", [], {}),
    ("euclidean", ["--dim", "3"], {"dim": 3}),
    ("random-graph", [], {}),
    ("random-graph", ["--edge-prob", "0.6", "--max-weight", "2"],
     {"edge_prob": 0.6, "max_weight": 2}),
])
def test_gen_random_passes_the_flags_given(tmp_path, kind, flags, given):
    out = tmp_path / "r.json"
    assert run_cli(["gen", "random", "--kind", kind, "--n", "7", "--seed", "3",
                    "--out", str(out)] + flags) == 0
    expected = tmp_path / "expected.json"
    save_instance(expected, random_metric(kind, 7, 3, **given))
    assert out.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("command, flags, unread", [
    (["run"], ["--lowerbound", "3", "--k", "7"], "--lowerbound does not read --k"),
    (["run"], ["--lowerbound", "3", "--k", "3"], "--lowerbound does not read --k"),
    (["run"], ["--instance", "INST", "--n", "5"], "--instance does not read --n"),
    (["export-dot"], ["--lowerbound", "2", "--k", "3"], "--lowerbound does not read --k"),
    (["export-dot"], ["--instance", "INST", "--n", "14"], "--instance does not read --n"),
])
def test_instance_sources_reject_flags_they_do_not_read(tmp_path, capsys, command,
                                                        flags, unread):
    # The family member is fixed by --lowerbound and read from --n; a file
    # names its size, and k unless --k gives it.
    inst = tmp_path / "inst.json"
    lb = lowerbound.build_lower_bound_instance(2)
    save_instance(inst, lb.metric, k=2, graph=lb.graph)
    out = tmp_path / "out"
    argv = command + [str(inst) if f == "INST" else f for f in flags] + ["--out", str(out)]
    assert run_cli(argv) == 2
    assert capsys.readouterr() == ("", f"error: {unread}\n")
    assert not out.exists()


def test_gen_without_out_is_usage_error(tmp_path):
    assert run_cli(["gen", "lowerbound", "--k", "3"]) == 2


# --- run ---

def test_run_lowerbound_scripted_summary(capsys):
    assert run_cli(["run", "--lowerbound", "5", "--policy", "scripted"]) == 0
    assert capsys.readouterr().out.strip() == "final_cost=8 opt=1 ratio=8"


def test_run_uniform_instance_any_policy(tmp_path, capsys):
    inst = tmp_path / "uniform.json"
    save_instance(inst, uniform_metric(6), k=3)
    for policy in ("lowest-index", "seeded-random"):
        assert run_cli(["run", "--instance", str(inst), "--policy", policy,
                        "--seed", "4"]) == 0
        assert "final_cost=1 " in capsys.readouterr().out


def test_run_random_ratio_within_bound(tmp_path, capsys):
    inst = tmp_path / "rand.json"
    assert run_cli(["gen", "random", "--kind", "random-graph", "--n", "12",
                    "--seed", "3", "--k", "3", "--out", str(inst)]) == 0
    capsys.readouterr()
    assert run_cli(["run", "--instance", str(inst),
                    "--policy", "lowest-index"]) == 0
    summary = capsys.readouterr().out
    ratio = float(re.search(r"ratio=([\d.]+)", summary).group(1))
    assert ratio <= 6.0


def test_run_cap_exceeded_omits_ratio(tmp_path, capsys):
    inst = tmp_path / "rand.json"
    run_cli(["gen", "random", "--kind", "random-graph", "--n", "12",
             "--seed", "3", "--k", "3", "--out", str(inst)])
    capsys.readouterr()
    assert run_cli(["run", "--instance", str(inst), "--exact-cap", "5"]) == 0
    out = capsys.readouterr().out
    assert "ratio omitted" in out and "ratio=" not in out


def test_run_malformed_instance_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["run", "--instance", str(bad), "--k", "2"]) == 2


def test_run_nan_matrix_exits_2(tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text('{"version": 1, "mode": "float", "n": 2, "k": 1, '
                   '"matrix": [[0, NaN], [NaN, 0]]}')
    assert run_cli(["run", "--instance", str(bad)]) == 2
    assert "finite" in capsys.readouterr().err


def test_instance_without_mode_exits_2(tmp_path, capsys):
    bad = tmp_path / "nomode.json"
    save_instance(bad, uniform_metric(4), k=2)
    doc = json.loads(bad.read_text())
    del doc["mode"]
    bad.write_text(json.dumps(doc))
    for argv in (["verify", "gamma", "--instance", str(bad)],
                 ["export-dot", "--instance", str(bad)]):
        assert run_cli(argv) == 2
        assert "lacks 'mode'" in capsys.readouterr().err


@pytest.mark.parametrize("name, text, message", [
    ("big.json", '{"version": 1, "mode": "int", "n": 2, "k": 1, '
                 '"matrix": [[0, 1e30], [1e30, 0]]}', "int64"),
    ("neg.json", '{"version": 1, "mode": "int", "n": 3, "k": 1, '
                 '"matrix": [[0, -5, 1], [-5, 0, 1], [1, 1, 0]]}',
     "positivity violation at (0, 1)"),
    ("triangle.json", '{"version": 1, "mode": "int", "n": 3, "k": 1, '
                      '"matrix": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}',
     "triangle violation at (0, 1, 2)"),
    ("long.json", '{"version": 1, "mode": "int", "n": 3, "k": 1, "graph": '
                  '{"edges": [[0, 1, 2305843009213693951], [1, 2, 1]]}}', "too large"),
])
def test_run_bad_matrix_exits_2(tmp_path, capsys, name, text, message):
    bad = tmp_path / name
    bad.write_text(text)
    assert run_cli(["run", "--instance", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("mode, matrix", [
    ("float", "[[0.0, 1.0], [1.0]]"),
    ("int", "[[0, 1], [1]]"),
    ("int", "[[0, 1], 5]"),
], ids=["float-ragged", "int-ragged", "int-scalar-row"])
def test_run_non_square_rows_exit_2(tmp_path, capsys, mode, matrix):
    # A short row, or a number in place of a row, is a matrix that is not
    # square, not numpy's text on an inhomogeneous list.
    bad = tmp_path / "rows.json"
    bad.write_text(f'{{"version": 1, "mode": "{mode}", "n": 2, "k": 1, '
                   f'"matrix": {matrix}}}')
    assert run_cli(["run", "--instance", str(bad)]) == 2
    assert capsys.readouterr() == ("", "error: distance matrix must be square\n")


def test_schemaless_schedule_and_trace_exit_2(tmp_path, capsys):
    bad = tmp_path / "s.json"
    bad.write_text('{"version": 1}')
    assert run_cli(["run", "--lowerbound", "2", "--policy", "scripted",
                    "--schedule", str(bad)]) == 2
    assert capsys.readouterr().err == "error: schedule file lacks 'k', 'n', 'steps'\n"
    assert run_cli(["export-dot", "--lowerbound", "2", "--trace", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: trace file lacks 'k'")


@pytest.mark.parametrize("what, edit, message", [
    ("instance", lambda doc: doc.update(labels=5), "labels must be a list of strings"),
    ("trace", lambda doc: doc["steps"][0].update(cost="nan"), "non-finite cost 'nan'"),
    ("trace", lambda doc: doc["steps"][0].update(cost="1e400"), "non-finite cost '1e400'"),
    ("trace", lambda doc: doc["final"].__setitem__(0, True), "final must list integer points"),
    ("trace", lambda doc: doc["steps"][0].update(removed=1000000),
     "step 0 removes 1000000, not a remaining point of 0..5"),
    ("trace", lambda doc: doc["steps"][0].update(removed=-1),
     "step 0 removes -1, not a remaining point of 0..5"),
    ("trace", lambda doc: doc["steps"][1].update(removed=doc["steps"][0]["removed"]),
     "step 1 removes 4, not a remaining point of 0..5"),
    ("trace", lambda doc: doc.update(final=[0, 1]),
     "final is not the complement of its removals"),
    ("trace", lambda doc: doc.update(final=[doc["final"][0]] * 2),
     "final is not the complement of its removals"),
    ("trace", lambda doc: doc.update(k=10**12, final=doc["final"][:1]),
     "final is not the complement of its removals"),
    ("trace", lambda doc: doc.update(k=0, final=[], steps=doc["steps"] + [
        {"removed": 1, "cost": 2}, {"removed": 2, "cost": 2}]), "k=0, need k >= 1"),
], ids=["labels=5", "cost=nan", "cost=1e400", "final=true", "removed=1000000",
        "removed=-1", "removed-twice", "final=[0,1]", "final-repeated", "k=1e12",
        "k=0"])
def test_loader_holes_exit_2(tmp_path, capsys, what, edit, message):
    inst, trace = tmp_path / "i.json", tmp_path / "t.json"
    assert run_cli(["gen", "lowerbound", "--k", "2", "--out", str(inst)]) == 0
    assert run_cli(["run", "--instance", str(inst), "--policy", "scripted",
                    "--out", str(trace)]) == 0
    capsys.readouterr()
    path = inst if what == "instance" else trace
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run_cli(["export-dot", "--instance", str(inst), "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_export_dot_rejects_trace_of_another_family_member(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert run_cli(["run", "--lowerbound", "2", "--policy", "scripted",
                    "--out", str(trace)]) == 0
    capsys.readouterr()
    assert run_cli(["export-dot", "--lowerbound", "3", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == "error: trace has 6 points, the instance 14\n"


SQUARE3 = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]


@pytest.mark.parametrize("doc, message", [
    ({"version": True, "mode": "int", "n": 3, "k": True, "matrix": SQUARE3},
     "version=True of the wrong type"),
    ({"version": 1, "mode": "int", "n": 2, "k": 1,
      "matrix": [[False, True], [True, False]]}, "not booleans"),
    ({"version": 1, "mode": "int", "n": 2, "k": 1,
      "graph": {"edges": [[0, True, 1]]}}, "edge (0,True) out of range"),
], ids=["version-k", "matrix", "graph-edge"])
def test_run_rejects_boolean_instance_values(tmp_path, capsys, doc, message):
    # JSON true/false load as Python bools, which subclass int.
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    assert run_cli(["run", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_run_rejects_boolean_schedule_point(tmp_path, capsys):
    inst, sched = tmp_path / "i.json", tmp_path / "s.json"
    assert run_cli(["gen", "lowerbound", "--k", "2", "--out", str(inst),
                    "--schedule-out", str(sched)]) == 0
    doc = json.loads(sched.read_text())
    doc["steps"][0]["point"] = True
    sched.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["run", "--instance", str(inst), "--policy", "scripted",
                    "--schedule", str(sched)]) == 2
    assert "schedule step 0 has point=True of the wrong type" in capsys.readouterr().err


def test_run_writes_trace(tmp_path):
    out = tmp_path / "trace.json"
    assert run_cli(["run", "--lowerbound", "3", "--policy", "scripted",
                    "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["k"] == 3 and len(doc["steps"]) == 11


def test_run_scripted_needs_schedule_for_plain_instances(tmp_path):
    inst = tmp_path / "uniform.json"
    save_instance(inst, uniform_metric(5), k=2)
    assert run_cli(["run", "--instance", str(inst), "--policy", "scripted"]) == 2


def _family_schedule(tmp_path, k, n=None):
    """The scripted schedule file of family member k (n points)."""
    sched = tmp_path / f"s{k}.json"
    assert run_cli(["gen", "lowerbound", "--k", str(k), *(["--n", str(n)] if n else []),
                    "--out", str(tmp_path / f"i{k}.json"),
                    "--schedule-out", str(sched)]) == 0
    return sched


@pytest.mark.parametrize("policy", ["lowest-index", "seeded-random"])
def test_run_refuses_a_schedule_its_policy_does_not_read(tmp_path, capsys, policy):
    sched = _family_schedule(tmp_path, 3)
    capsys.readouterr()
    assert run_cli(["run", "--lowerbound", "3", "--policy", policy,
                    "--schedule", str(sched)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: --policy {policy} does not read --schedule\n"
    assert captured.out == ""


@pytest.mark.parametrize("run, schedule, pairs", [
    (["--lowerbound", "3"], (7, 99), "7/99 is not the run's 3/14"),
    (["--lowerbound", "3", "--n", "15"], (3, None), "3/14 is not the run's 3/15"),
], ids=["k-and-n", "n-alone"])
def test_run_refuses_a_schedule_of_another_instance(tmp_path, capsys, run, schedule,
                                                    pairs):
    sched = _family_schedule(tmp_path, *schedule)
    capsys.readouterr()
    assert run_cli(["run", *run, "--policy", "scripted", "--schedule", str(sched)]) == 2
    assert capsys.readouterr().err == f"error: schedule k/n {pairs}\n"


@pytest.mark.parametrize("point", [1000, 14, -1])
def test_run_names_a_scheduled_point_outside_the_instance(tmp_path, capsys, point):
    sched = _family_schedule(tmp_path, 3)
    doc = json.loads(sched.read_text())
    doc["steps"][0]["point"] = point
    sched.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli(["run", "--lowerbound", "3", "--policy", "scripted",
                    "--schedule", str(sched)]) == 2
    assert capsys.readouterr().err == (f"error: schedule step 0 removes {point}, "
                                       f"not a point of 0..13\n")


# --- verify ---

def test_verify_lower_range(tmp_path, capsys):
    report = tmp_path / "lower.json"
    assert run_cli(["verify", "lower", "--k", "2..6", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert [r["final_cost"] for r in doc["runs"]] == [2, 4, 6, 8, 10]
    assert "pass" in capsys.readouterr().out


def test_verify_lower_holds_one_table_at_a_time(tmp_path, monkeypatch):
    # Memory held when the k=13 build starts, beyond that at the k=12 one:
    # the k=12 table (49 KB in uint8, 390 KB in the int64 held before) must
    # be gone by then.  About 28 KB of first-run caches stays when the test
    # runs alone.
    build = lowerbound.build_lower_bound_instance
    held = []

    def spy(k):
        held.append(tracemalloc.get_traced_memory()[0])
        return build(k)

    monkeypatch.setattr(lowerbound, "build_lower_bound_instance", spy)
    tracemalloc.start()
    try:
        assert run_cli(["verify", "lower", "--k", "12,13",
                        "--out", str(tmp_path / "lower.json")]) == 0
    finally:
        tracemalloc.stop()
    assert held[1] - held[0] < build(12).metric.dist.nbytes


def test_verify_upper_small_battery(tmp_path):
    report = tmp_path / "upper.json"
    assert run_cli(["verify", "upper", "--trials", "6", "--n", "8", "--k", "2",
                    "--seed", "0", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True
    assert doc["max_ratio"] <= doc["bound"]


def test_verify_upper_k_equals_n_has_ratio_zero(tmp_path):
    # With k = n the optimum is 0; the ratio is then reported as 0, as in run.
    report = tmp_path / "upper.json"
    assert run_cli(["verify", "upper", "--n", "5", "--k", "5", "--trials", "1",
                    "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["passed"] is True and doc["max_ratio"] == 0


def test_verify_upper_cap_incomplete():
    assert run_cli(["verify", "upper", "--trials", "1", "--n", "30",
                    "--k", "2"]) == 3


def test_verify_gamma_lower_bound(tmp_path, capsys):
    report = tmp_path / "gamma.json"
    assert run_cli(["verify", "gamma", "--k", "3", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["status"] == "ok"
    assert doc["gamma"] == {"0": 3, "1": 2}
    assert "sequence [3, 2]" in capsys.readouterr().out


def test_verify_gamma_family_up_to_k10(capsys):
    for k in range(6, 11):
        assert run_cli(["verify", "gamma", "--k", str(k)]) == 0
        seq = list(range(k, 1, -1))
        assert f"gamma check: ok; sequence {seq}" in capsys.readouterr().out


def test_verify_gamma_on_instance_file(tmp_path):
    inst = tmp_path / "rand.json"
    run_cli(["gen", "random", "--kind", "random-graph", "--n", "9",
             "--seed", "5", "--k", "2", "--out", str(inst)])
    code = run_cli(["verify", "gamma", "--instance", str(inst)])
    assert code == 0


@pytest.mark.parametrize("table, code, out, err", [
    # Distances tied within the float slack, which no comparison reads.
    ([[0.0, 0.4999999991, 1.0, 2.5], [0.4999999991, 0.0, 0.5, 2.0],
      [1.0, 0.5, 0.0, 1.4999999994], [2.5, 2.0, 1.4999999994, 0.0]],
     0, "gamma check: premise not applicable; sequence []\n", ""),
    ([[0.0, 0.4999999994, 1.0, 2.0], [0.4999999996, 0.0, 0.5, 1.5000000009],
      [1.0, 0.4999999996, 0.0, 1.0000000006], [2.0000000004, 1.5, 1.0, 0.0]],
     2, "", "error: matrix is not a metric: symmetry violation at (0, 1)\n"),
    # d(0, 2) = 4 > d(0, 1) + d(1, 2) = 2, which loading does not check.
    ([[0.0, 1.0, 4.0, 2.0], [1.0, 0.0, 1.0, 3.0], [4.0, 1.0, 0.0, 4.0],
      [2.0, 3.0, 4.0, 0.0]],
     3, "gamma check: incomplete; sequence []\n",
     "verification incomplete: gamma not settled: no consolidation of at most 3 "
     "sets within 2*OPT (the table breaks the triangle inequality)\n"),
], ids=["symmetric", "asymmetric", "triangle"])
def test_verify_gamma_on_hand_made_float_tables(tmp_path, capsys, table, code, out, err):
    inst = tmp_path / "slack.json"
    inst.write_text(json.dumps({"version": 1, "mode": "float", "n": 4, "k": 3,
                                "matrix": table}))
    assert run_cli(["verify", "gamma", "--instance", str(inst)]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("argv, budget, note", [
    (["--gamma-cap", "1"], exact._SEARCH_BUDGET, "more than 1 maximal cliques"),
    ([], 1, "more than 1 backtrack nodes at size 2"),
], ids=["clique-cap", "node-budget"])
def test_verify_gamma_says_why_it_is_incomplete(tmp_path, capsys, monkeypatch,
                                                argv, budget, note):
    monkeypatch.setattr(exact, "_SEARCH_BUDGET", budget)
    report = tmp_path / "gamma.json"
    assert run_cli(["verify", "gamma", "--k", "4", "--out", str(report)] + argv) == 3
    out, err = capsys.readouterr()
    assert out == "gamma check: incomplete; sequence []\n"
    assert err == f"verification incomplete: gamma brute force infeasible: {note}\n"
    doc = json.loads(report.read_text())
    assert (doc["status"], doc["note"]) == ("incomplete",
                                            f"gamma brute force infeasible: {note}")


def test_verify_separation_is_advisory(tmp_path, capsys):
    report = tmp_path / "sep.json"
    assert run_cli(["verify", "separation", "--trials", "3", "--k", "3",
                    "--seed", "2", "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["separated_trials"] == 3
    assert doc["max_ratio"] <= 2 + 1e-9
    assert "advisory" in capsys.readouterr().out


# --- sweep ---

def test_sweep_ratios(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--k", "2..6", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [r["ratio"] for r in rows] == ["2", "4", "6", "8", "10"]
    assert all(r["legality"] == "verified" for r in rows)


def _rescheduled(monkeypatch, change):
    """Give every scripted schedule the steps `change(steps)`."""
    scripted = lowerbound.scripted_schedule

    def rescheduled(inst):
        sched = scripted(inst)
        return dataclasses.replace(sched, steps=change(sched.steps))
    monkeypatch.setattr(lowerbound, "scripted_schedule", rescheduled)


def test_sweep_fails_rows_off_their_phase_labels(tmp_path, monkeypatch):
    # Each run still ends at 2k - 2, but no step costs its phase label.
    _rescheduled(monkeypatch, lambda steps: tuple(
        dataclasses.replace(s, phase=s.phase + 1) for s in steps))
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--k", "2..4", "--out", str(out)]) == 1
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [(r["ratio"], r["legality"]) for r in rows] == [
        ("2", "FAIL"), ("4", "FAIL"), ("6", "FAIL")]


def test_sweep_leaves_a_stopped_run_without_cost(tmp_path, monkeypatch):
    # Reversed, the script's first removal is no greedy choice.
    _rescheduled(monkeypatch, lambda steps: steps[::-1])
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--k", "3", "--out", str(out)]) == 1
    row = out.read_text().splitlines()[1].split(",")
    assert row[:5] == ["3", "14", "", "1", ""] and row[6] == "FAIL"


def test_sweep_ends_its_lines_with_newlines_alone(tmp_path, capsys):
    # A carriage return would stick to the last field `cut` keeps.
    assert run_cli(["sweep", "--k", "2..3"]) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--k", "2..3", "--out", str(out)]) == 0
    for text in (printed, out.read_text()):
        assert "\r" not in text and text.count("\n") == 3


def test_sweep_empty_range_is_header_only(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines == ["k,n,final_cost,opt,ratio,runtime_s,legality"]


def test_fast_flag_rejected():
    # Every run is argmin-verified; there is no unverified mode to select.
    assert run_cli(["sweep", "--k", "3", "--fast"]) == 2
    assert run_cli(["run", "--lowerbound", "3", "--policy", "scripted",
                    "--fast"]) == 2


# --- export-dot ---

def test_export_dot_direct(tmp_path):
    out = tmp_path / "g.dot"
    assert run_cli(["export-dot", "--lowerbound", "5", "--out", str(out)]) == 0
    dot = out.read_text()
    assert len(re.findall(r"^\s*v\d+ \[", dot, re.M)) == 39
    assert len(re.findall(r"subgraph cluster_", dot)) == 5


def test_export_dot_from_files_with_trace(tmp_path):
    inst, trace, out = (tmp_path / f for f in ("i.json", "t.json", "g.dot"))
    run_cli(["gen", "lowerbound", "--k", "2", "--out", str(inst)])
    run_cli(["run", "--instance", str(inst), "--policy", "scripted",
             "--out", str(trace)])
    assert run_cli(["export-dot", "--instance", str(inst),
                    "--trace", str(trace), "--out", str(out)]) == 0
    dot = out.read_text()
    assert len(re.findall(r"^\s*v\d+ \[", dot, re.M)) == 6
    assert len(re.findall(r"phase=", dot)) == 4


@pytest.mark.parametrize("traced, digest", [
    (False, "ad0d1c42cdc1e5313a84219520dc7b800dedbeacd6a4fcb612eded4c166d47e1"),
    (True, "e390f56bdb1fde1fc77edc2a09ec0deb55e92e6e92b20f6c3405c0f7a4bcf47b"),
], ids=["plain", "traced"])
def test_export_dot_of_a_padded_member_keeps_its_bytes(tmp_path, traced, digest):
    # k=4 has 25 points; the 5 padding points are drawn as C_0's leaves.
    out, trace = tmp_path / "g.dot", tmp_path / "t.json"
    flags = ["--trace", str(trace)] if traced else []
    if traced:
        assert run_cli(["run", "--lowerbound", "4", "--n", "30", "--policy", "scripted",
                        "--out", str(trace)]) == 0
    assert run_cli(["export-dot", "--lowerbound", "4", "--n", "30", *flags,
                    "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_export_dot_rejects_non_lowerbound(tmp_path):
    inst = tmp_path / "u.json"
    save_instance(inst, uniform_metric(6), k=2)
    assert run_cli(["export-dot", "--instance", str(inst)]) == 2


# --- misc ---

def test_round_trip_gen_run_verify(tmp_path, capsys):
    inst, sched, trace = (tmp_path / f for f in ("i.json", "s.json", "t.json"))
    assert run_cli(["gen", "lowerbound", "--k", "4", "--out", str(inst),
                    "--schedule-out", str(sched)]) == 0
    assert run_cli(["run", "--instance", str(inst), "--policy", "scripted",
                    "--schedule", str(sched), "--out", str(trace)]) == 0
    assert "ratio=6" in capsys.readouterr().out
    doc = json.loads(trace.read_text())
    assert doc["steps"][-1]["cost"] == 6


def test_bad_subcommand_usage_error():
    assert run_cli(["frobnicate"]) == 2


def test_nonpositive_cap_rejected():
    assert run_cli(["verify", "upper", "--exact-cap", "0"]) == 2


@pytest.mark.parametrize("argv, code", [
    (["verify", "gamma", "--k", "1"], 2),
    (["sweep", "--k", "1"], 2),
    (["verify", "lower", "--k", "x"], 2),
    (["verify", "lower", "--k", "5..2"], 2),
    (["sweep", "--k", "5..2"], 2),
    (["verify", "upper", "--n", "5", "--k", "7"], 2),
    (["verify", "separation", "--k", "0"], 2),
    (["verify", "separation", "--k", "17"], 3),
    (["verify", "gamma", "--instance", "K0"], 2),
    (["verify", "gamma", "--instance", "K7"], 2),
    (["verify", "upper", "--trials", "0"], 2),
    (["sweep", "--k", "2", "--jobs", "0"], 2),
    (["verify", "separation", "--jobs", "2"], 2),
    # Flags a command does not read are not accepted.
    (["gen", "lowerbound", "--k", "3", "--seed", "1", "--out", "OUT"], 2),
    (["run", "--lowerbound", "3", "--gamma-cap", "5"], 2),
    (["verify", "lower", "--k", "2", "--exact-cap", "5"], 2),
    (["export-dot", "--lowerbound", "3", "--jobs", "1"], 2),
    # Flags that would make no instance, or an all-zero one.
    (["gen", "random", "--kind", "euclidean", "--n", "3", "--dim", "0", "--out", "OUT"], 2),
    (["gen", "random", "--kind", "random-graph", "--n", "3", "--edge-prob", "nan",
      "--out", "OUT"], 2),
], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_input_exit_code_without_traceback(tmp_path, capsys, argv, code):
    # K0 and K7: a 5-point instance file whose k is 0 or above n.
    for k in (0, 7):
        save_instance(tmp_path / f"K{k}.json", uniform_metric(5), k=k)
    argv = [str(tmp_path / f"{a}.json") if a in ("K0", "K7", "OUT") else a
            for a in argv]
    assert run_cli(argv) == code
    assert "Traceback" not in capsys.readouterr().err


def test_parse_k_range():
    assert cli.parse_k_range("5") == [5]
    assert cli.parse_k_range("2..4") == [2, 3, 4]
    assert cli.parse_k_range("2,9") == [2, 9]


def test_format_flag_rejected():
    # Each command has one output format; there is nothing to select.
    assert run_cli(["sweep", "--k", "2", "--format", "csv"]) == 2


def test_sweep_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(["sweep", "--k", "2..4", "--out", str(serial)]) == 0
    assert run_cli(["sweep", "--k", "2..4", "--jobs", "2",
                    "--out", str(parallel)]) == 0
    # Every column but runtime_s, the sixth.
    strip = lambda path: [r[:5] + r[6:]
                          for r in csv.reader(path.read_text().splitlines())]
    assert strip(serial) == strip(parallel)
