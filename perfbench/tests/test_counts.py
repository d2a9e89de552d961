"""The traced job's counts repeat exactly, so a later change may cite them,
and its outputs at seed 0 match the digests stored in `digests.json`.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import revgreedy.kcenter  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Counts a later change may cite as evidence; they must never vary.
NAMED = ("cli.commands", "metric.apsp_calls", "exact.opt_calls",
         "consolidation.gamma_calls", "lowerbound.rebuild_calls",
         "metric.apsp_n3", "kcenter.steps", "kcenter.facility_evals",
         "kcenter.tie_mult_mean", "consolidation.premise_ratio",
         "lowerbound.rebuild_hit_ratio")


STORED = json.loads((BENCH / "digests.json").read_text())


def traced_job(commands):
    with tracing.Tracer() as tracer:
        wall, results = workloads.run_job(commands)
    digests = {}
    for cmd, result in zip(commands, results):
        problems, signature = workloads.check(cmd, result)
        assert problems == []
        digests[cmd.label] = workloads.digest(signature)
    return tracer.spans, wall, digests


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_counts_repeat(name, tmp_path):
    original = revgreedy.kcenter.marginal_costs
    commands = workloads.prepare(name, 0, tmp_path)
    jobs = [traced_job(commands) for _ in range(2)]
    assert all(digests == STORED[name] for *_, digests in jobs)
    runs = [tracing.layer_metrics(spans, wall) for spans, wall, _ in jobs]
    counts = [{k: v for k, v in run.items() if not tracing.timed(k)}
              for run in runs]
    assert set(NAMED) <= set(counts[0])
    assert counts[0] == counts[1]
    assert counts[0]["cli.commands"] == len(commands)
    assert revgreedy.kcenter.marginal_costs is original


def test_self_times_cover_each_command(tmp_path):
    spans, *_ = traced_job(workloads.prepare("gamma-potential", 0, tmp_path))
    commands = [s for s in spans if s.name == "cli.main"]
    assert all(s.parent is None for s in commands)
    assert sum(s.self_s for s in spans) == pytest.approx(
        sum(s.duration for s in commands), rel=1e-9)
