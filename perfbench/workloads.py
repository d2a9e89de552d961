"""The benchmark's workloads: their inputs, the CLI commands they run, and
the checks on every command's exit code and output.

`prepare(name, seed, work)` writes a workload's input files into `work` and
returns its commands.  `run_job` runs the commands in this process through
`revgreedy.cli.main`, which is looked up at call time so that tracing
wrappers see it.  `check` re-derives what each command must have produced;
it runs outside the timed job.  Every check returns a list of problems and
a signature: the outcome in a form that must repeat exactly between jobs,
and whose digest at seed 0 is stored in `digests.json`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import time
from dataclasses import dataclass
from functools import cache, partial
from pathlib import Path
from typing import Callable

import numpy as np

import revgreedy.cli
from revgreedy import kcenter, metric

# lower-family: near the top of the range where `verify lower`
# argmin-verifies every step in seconds (n = 550 and 609).  A job of about
# three seconds leaves room for several jobs in one run.
LOWER_KS = (19, 20)

# oracle-battery: the 2k upper-bound battery at a size where the exact
# oracle dominates; each trial is six reverse-greedy runs on n = 32.  The
# oracle's cost differs by instance: with the battery's generator seeds
# drawn from the workload seed, 60 trials cost from 0.85x to 1.15x their
# mean.  So the trials are a fixed pool (generator seeds 0..59, in six
# commands of ten) and the seed orders the commands.
ORACLE_COMMANDS, ORACLE_TRIALS, ORACLE_N, ORACLE_K, ORACLE_EXACT_CAP = 6, 10, 32, 5, 40

# gamma-potential: a fixed pool of random instances.  The gamma search's
# cost is heavy-tailed over random instances (one n=30 Euclidean instance
# in seven costs over 3x the median, the costliest of 400 18x), so a pool
# drawn afresh for each seed moves the job's time by more than any bound;
# the seed orders the commands.
# No instance of the pool, and none of seeds 0..399 at these sizes, hits a
# cap (exit 3).  Random graphs stay at n = 18: at n = 20..30 about one seed
# in a hundred is capped.
GAMMA_POOL = {"euclidean": (30, range(12)), "random-graph": (18, range(12))}
GAMMA_K = 5
GAMMA_EXACT_CAP = 40
GAMMA_FAMILY_KS = (3, 4, 5)

# large-random: sizes where one `run` takes about a second.
LARGE_K = 5
LARGE_EUCLID_N, LARGE_DENSE_N, LARGE_PATH_N = 560, 500, 500
LARGE_EDGE_PROB, LARGE_MAX_WEIGHT = 0.3, 9


@dataclass
class Command:
    label: str
    argv: list[str]
    out: Path
    check: Callable[[str, Path], tuple[list[str], object]]


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str


# --- checks ---------------------------------------------------------------

def _load(out: Path) -> dict:
    return json.loads(out.read_text())


def check_lower(k: int, stdout: str, out: Path):
    doc = _load(out)
    problems = []
    runs = doc["runs"]
    if doc["passed"] is not True:
        problems.append(f"passed={doc['passed']}")
    if [r["k"] for r in runs] != [k]:
        problems.append(f"report covers k={[r['k'] for r in runs]}")
    for r in runs:
        if not (r["ok"] and r["final_cost"] == r["expected_final_cost"] == 2 * k - 2
                and r["survivors"] == r["expected_survivors"]):
            problems.append(f"k={r['k']}: final_cost={r['final_cost']} "
                            f"survivors={r['survivors']}")
    return problems, [[r["k"], r["n"], r["final_cost"], r["survivors"]]
                      for r in runs]


def check_upper(stdout: str, out: Path):
    doc = _load(out)
    problems = []
    if not (doc["passed"] is True and doc["violations"] == []
            and doc["max_ratio"] <= doc["bound"] == 2 * ORACLE_K):
        problems.append(f"passed={doc['passed']} max_ratio={doc['max_ratio']} "
                        f"bound={doc['bound']}")
    if (doc["trials"], doc["n"], doc["k"]) != (ORACLE_TRIALS, ORACLE_N, ORACLE_K):
        problems.append(f"report covers trials={doc['trials']} n={doc['n']} "
                        f"k={doc['k']}")
    return problems, [repr(doc["max_ratio"]), doc["passed"]]


def check_gamma(stdout: str, out: Path):
    doc = _load(out)
    problems = []
    status = doc["status"]
    seq = [doc["gamma"][level] for level in sorted(doc["gamma"], key=int)]
    if status not in ("ok", "premise not applicable"):
        problems.append(f"status {status!r}")
    if status == "ok" and not (doc["complete"] and doc["accounting_ok"]
                               and all(a > b for a, b in zip(seq, seq[1:]))):
        problems.append(f"gamma sequence {seq} not strictly decreasing "
                        f"or accounting failed")
    return problems, [status, doc["critical_indices"], seq]


def check_run(reference: Callable[[], metric.MetricSpace], k: int,
              stdout: str, out: Path):
    """Re-derive a `run` trace against an independently computed metric."""
    doc = _load(out)
    m = reference()
    problems = []
    if not stdout.startswith("final_cost="):
        problems.append(f"stdout {stdout[:60]!r}")
    removed = [s["removed"] for s in doc["steps"]]
    costs = [s["cost"] if isinstance(s["cost"], int) else float(s["cost"])
             for s in doc["steps"]]
    final = doc["final"]
    if len(final) != k or doc["k"] != k:
        problems.append(f"|final| = {len(final)}, k = {doc['k']}, want {k}")
    if sorted(removed + final) != list(range(m.n)):
        problems.append("removals and final set do not partition the points")
    if any(b < a for a, b in zip(costs, costs[1:])):
        problems.append("costs decrease along the trace")
    if not costs or costs[-1] != kcenter.cost(m, final):
        problems.append(f"final cost {costs[-1:]} != cost(m, final) "
                        f"{kcenter.cost(m, final)}")
    digest = hashlib.sha256(json.dumps([removed, [repr(c) for c in costs]])
                            .encode()).hexdigest()
    return problems, [final, digest]


# --- inputs ---------------------------------------------------------------

def _lower_family(seed: int, work: Path) -> list[Command]:
    ks = np.random.default_rng(seed).permutation(LOWER_KS)
    commands = []
    for k in (int(k) for k in ks):
        out = work / f"lower-k{k}.json"
        commands.append(Command(f"lower-k{k}",
                                ["verify", "lower", "--k", str(k), "--jobs", "1",
                                 "--out", str(out)],
                                out, partial(check_lower, k)))
    return commands


def _oracle_battery(seed: int, work: Path) -> list[Command]:
    # Trial t of a command draws its instance from --seed + t.
    commands = []
    for first in range(0, ORACLE_COMMANDS * ORACLE_TRIALS, ORACLE_TRIALS):
        out = work / f"upper-{first}.json"
        commands.append(Command(f"upper-{first}",
                                ["verify", "upper", "--trials", str(ORACLE_TRIALS),
                                 "--n", str(ORACLE_N), "--k", str(ORACLE_K),
                                 "--exact-cap", str(ORACLE_EXACT_CAP),
                                 "--seed", str(first), "--jobs", "1",
                                 "--out", str(out)],
                                out, check_upper))
    order = np.random.default_rng(seed).permutation(len(commands))
    return [commands[i] for i in order]


def _gamma_potential(seed: int, work: Path) -> list[Command]:
    commands = []
    for kind, (n, pool) in GAMMA_POOL.items():
        for s in pool:
            path = work / f"{kind}-{s}.json"
            metric.save_instance(path, metric.random_metric(kind, n, s), k=GAMMA_K)
            out = work / f"gamma-{kind}-{s}.json"
            commands.append(Command(f"gamma-{kind}-{s}",
                                    ["verify", "gamma", "--instance", str(path),
                                     "--exact-cap", str(GAMMA_EXACT_CAP), "--jobs", "1",
                                     "--out", str(out)],
                                    out, check_gamma))
    for k in GAMMA_FAMILY_KS:
        out = work / f"gamma-family-k{k}.json"
        commands.append(Command(f"gamma-family-k{k}",
                                ["verify", "gamma", "--k", str(k), "--jobs", "1",
                                 "--out", str(out)],
                                out, check_gamma))
    order = np.random.default_rng(seed).permutation(len(commands))
    return [commands[i] for i in order]


def _floyd_warshall(n: int, edges: np.ndarray) -> np.ndarray:
    """Reference all-pairs shortest paths, independent of revgreedy.metric."""
    d = np.full((n, n), np.iinfo(np.int64).max // 4, dtype=np.int64)
    np.minimum.at(d, (edges[:, 0], edges[:, 1]), edges[:, 2])
    np.minimum.at(d, (edges[:, 1], edges[:, 0]), edges[:, 2])
    np.fill_diagonal(d, 0)
    for via in range(n):
        np.minimum(d, d[:, via, None] + d[None, via, :], out=d)
    return d


def _large_random(seed: int, work: Path) -> list[Command]:
    rng = np.random.default_rng(seed)
    commands = []

    def add(label, doc, policy, reference):
        path = work / f"{label}.json"
        path.write_text(json.dumps(doc))
        out = work / f"trace-{label}.json"
        commands.append(Command(f"run-{label}",
                                ["run", "--instance", str(path), *policy,
                                 "--jobs", "1", "--out", str(out)],
                                out, partial(check_run, cache(reference),
                                             LARGE_K)))

    # Euclidean points in the unit square, float mode, stored as a matrix.
    coords = rng.random((LARGE_EUCLID_N, 2))
    diff = coords[:, None, :] - coords[None, :, :]
    euclid = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(euclid, 0.0)
    add("euclid", {"version": 1, "mode": "float", "n": LARGE_EUCLID_N,
                   "k": LARGE_K, "matrix": euclid.tolist()},
        ["--policy", "seeded-random", "--seed", str(seed)],
        lambda: metric.MetricSpace(dist=euclid, mode="float"))

    # Dense random graph: a random spanning tree plus each pair with
    # probability LARGE_EDGE_PROB, integer weights 1..LARGE_MAX_WEIGHT.
    tree = np.column_stack([rng.integers(0, np.arange(1, LARGE_DENSE_N)),
                            np.arange(1, LARGE_DENSE_N)])
    iu, ju = np.triu_indices(LARGE_DENSE_N, k=1)
    pick = rng.random(iu.size) < LARGE_EDGE_PROB
    pairs = np.vstack([tree, np.column_stack([iu[pick], ju[pick]])])
    dense = np.column_stack([pairs, rng.integers(1, LARGE_MAX_WEIGHT + 1,
                                                 len(pairs))])
    add("dense", {"version": 1, "mode": "int", "n": LARGE_DENSE_N, "k": LARGE_K,
                  "graph": {"edges": dense.tolist()}},
        ["--policy", "lowest-index"],
        lambda: metric.MetricSpace(dist=_floyd_warshall(LARGE_DENSE_N, dense),
                                   mode="int"))

    # A weighted path over a random vertex order: hop diameter n - 1.
    n = LARGE_PATH_N
    order = rng.permutation(n)
    weights = rng.integers(1, LARGE_MAX_WEIGHT + 1, n - 1)
    path = np.column_stack([order[:-1], order[1:], weights])
    position = np.empty(n, dtype=np.int64)
    position[order] = np.concatenate([[0], np.cumsum(weights)])
    add("path", {"version": 1, "mode": "int", "n": n, "k": LARGE_K,
                 "graph": {"edges": path.tolist()}},
        ["--policy", "seeded-random", "--seed", str(seed + 1)],
        lambda: metric.MetricSpace(
            dist=np.abs(position[:, None] - position[None, :]), mode="int"))
    return commands


# Workloads whose outputs do not depend on the seed (it only orders their
# commands), so their digests are checked at every seed.
SEED_FREE_OUTPUTS = ("lower-family", "oracle-battery", "gamma-potential")

_PREPARE = {
    "lower-family": _lower_family,
    "oracle-battery": _oracle_battery,
    "gamma-potential": _gamma_potential,
    "large-random": _large_random,
}
WORKLOADS = tuple(_PREPARE)


def prepare(name: str, seed: int, work: Path) -> list[Command]:
    """Write the workload's input files into `work`; return its commands."""
    work.mkdir(parents=True, exist_ok=True)
    return _PREPARE[name](seed, work)


# --- running and checking -------------------------------------------------

def run_argv(argv: list[str]) -> Result:
    """Run one command through the CLI in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = revgreedy.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return Result(code, out.getvalue(), err.getvalue())


def run_job(commands: list[Command]) -> tuple[float, list[Result]]:
    """Run every command through the CLI; return wall time and results."""
    for cmd in commands:
        cmd.out.unlink(missing_ok=True)
    start = time.perf_counter()
    results = [run_argv(cmd.argv) for cmd in commands]
    return time.perf_counter() - start, results


def check(cmd: Command, result: Result) -> tuple[list[str], object]:
    """Problems with one command's outcome, and its signature."""
    if result.code != 0:
        return [f"exit {result.code}: {result.stderr.strip()[-200:]}"], None
    try:
        return cmd.check(result.stdout, cmd.out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as err:
        return [f"unreadable output {cmd.out.name}: {err!r}"], None


def digest(signature) -> str:
    return hashlib.sha256(json.dumps(signature, sort_keys=True)
                          .encode()).hexdigest()[:16]
