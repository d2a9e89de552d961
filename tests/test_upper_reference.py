"""`verify upper` against the per-trial battery it replaced: each trial
built, solved and run on its own (one engine pass per trial).  Reports and
stdout must be byte-identical, under --jobs 1 and 2 alike: `verify upper`
accepts the flag and reads it no more."""

import json

import pytest

from revgreedy import cli, exact, kcenter, metric


def reference_trial(params: tuple) -> dict:
    """One battery trial, all on its own."""
    trial, n, k, seed, exact_cap = params
    kind = "euclidean" if trial % 2 == 0 else "random-graph"
    m = metric.random_metric(kind, n, seed)
    opt = exact.exact_opt(m, k, cap=exact_cap)
    policies = [kcenter.TiePolicy.lowest_index()]
    policies += [kcenter.TiePolicy.seeded_random(seed * 31 + j) for j in range(5)]
    worst = 0.0
    violations = []
    for policy, trace in zip(policies, kcenter.reverse_greedy_runs(m, k, policies)):
        final = trace.final_cost
        ratio = final / opt.opt_value if opt.opt_value else 0.0
        worst = max(worst, ratio)
        if final > 2 * k * opt.opt_value + m.tol():
            violations.append({"trial": trial, "kind": kind,
                               "policy": policy.describe(), "ratio": ratio})
    return {"trial": trial, "kind": kind, "max_ratio": worst,
            "violations": violations}


def reference_verify_upper(out, *, n=12, k=3, trials=100, seed=0, exact_cap=20):
    """The report written to `out` and the line printed, trial by trial."""
    results = [reference_trial((t, n, k, seed + t, exact_cap)) for t in range(trials)]
    violations = [v for r in results for v in r["violations"]]
    max_ratio = max((r["max_ratio"] for r in results), default=0.0)
    passed = not violations
    metric.write_document(out, {"target": "upper", "trials": trials, "n": n,
                                "k": k, "bound": 2 * k, "max_ratio": max_ratio,
                                "violations": violations, "passed": passed})
    return (f"upper-bound battery: {trials} trials, max ratio {max_ratio:.4f} "
            f"vs bound {2 * k}: {'pass' if passed else 'FAIL'}\n")


CASES = [
    dict(n=12, k=3, trials=20),
    dict(n=32, k=5, trials=10, exact_cap=40, seed=0),
    dict(n=32, k=5, trials=10, exact_cap=40, seed=17),
    dict(n=32, k=5, trials=10, exact_cap=40, seed=50),
    dict(n=5, k=5, trials=1),  # n = k: no steps
    dict(trials=1),  # one Euclidean trial: the integer mode's batch is empty
]


def check_against_reference(case, jobs, tmp_path, capsys, code=0):
    expected = reference_verify_upper(tmp_path / "ref.json", **case)
    argv = ["verify", "upper", "--jobs", str(jobs), "--out", str(tmp_path / "out.json")]
    for flag, value in case.items():
        argv += [f"--{flag.replace('_', '-')}", str(value)]
    capsys.readouterr()
    assert cli.main(argv) == code
    assert capsys.readouterr().out == expected
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(
    f"{flag}={value}" for flag, value in case.items()))
def test_verify_upper_matches_per_trial_reference(case, jobs, tmp_path, capsys):
    check_against_reference(case, jobs, tmp_path, capsys)


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_upper_chunks_match_per_trial_reference(jobs, tmp_path, capsys,
                                                       monkeypatch):
    # Three n = 12 trials per chunk: seven chunks, the last of two trials.
    monkeypatch.setattr(cli, "_UPPER_CHUNK_ENTRIES", 3 * 12 * 12 + 5)
    check_against_reference(dict(n=12, k=3, trials=20), jobs, tmp_path, capsys)


@pytest.mark.parametrize("jobs", [1, 2])
def test_verify_upper_violations_match_per_trial_reference(jobs, tmp_path, capsys,
                                                           monkeypatch):
    # Every run past the bound, three trials a chunk: a chunk's Euclidean and
    # random-graph trials both add violations, listed by trial and policy.
    final_cost = kcenter.Trace.final_cost.fget
    monkeypatch.setattr(kcenter.Trace, "final_cost",
                        property(lambda trace: 100 * final_cost(trace) + 1))
    monkeypatch.setattr(cli, "_UPPER_CHUNK_ENTRIES", 3 * 12 * 12 + 5)
    check_against_reference(dict(n=12, k=3, trials=8), jobs, tmp_path, capsys, code=1)
    report = json.loads((tmp_path / "out.json").read_text())
    assert [v["trial"] for v in report["violations"]] == [t for t in range(8)
                                                          for _ in range(6)]


@pytest.mark.parametrize("flags, code", [
    (["--n", "5", "--k", "7", "--trials", "3"], 2),  # k > n
    (["--n", "30", "--k", "2", "--trials", "3"], 3),  # over the oracle's cap
])
def test_verify_upper_failures_same_with_a_pool(flags, code, capsys):
    seen = []
    for jobs in ("1", "2"):
        assert cli.main(["verify", "upper", "--jobs", jobs, *flags]) == code
        seen.append(capsys.readouterr())
    assert seen[0] == seen[1]
