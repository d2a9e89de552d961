"""Command-line front end: generate instances, run the algorithms, verify
the ratio claims, sweep the adversarial family, and export DOT drawings.

Every command is deterministic given its flags (all randomness is seeded).
Reports go to --out as JSON/CSV; a human summary is printed on stdout.
`verify upper` solves its trials' instances first, then runs every trial's
tie policies in one engine pass per arithmetic mode, a bounded chunk of
trials at a time.  Ties and radii compare the stored distances exactly; the
float slack enters only the 2k bound check and the separation gap, which
lean on the triangle inequality.  `sweep --jobs` runs a worker pool.
Exit codes: 0 pass, 1 verification failure, 2 usage/input error, 3 incomplete.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from itertools import combinations
from pathlib import Path

import numpy as np

from . import consolidation, exact, kcenter, lowerbound, metric


def parse_k_range(text: str) -> list[int]:
    """Accept "5", "2..10", or "2,3,5"; a range must name some k."""
    if ".." not in text:
        return [int(part) for part in text.split(",")]
    lo, hi = text.split("..", 1)
    if int(hi) < int(lo):
        raise argparse.ArgumentTypeError(f"{text} names no k")
    return list(range(int(lo), int(hi) + 1))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _write_report(out: str | None, doc: dict) -> None:
    if out:
        metric.write_document(out, doc)


def _load_source(instance, family_k, k=None, n=None):
    """Resolve the single instance source, an instance file or the family
    member for family_k: (metric, k, lower-bound instance or None); the
    family reads n, not k, and a file k, not n."""
    if (instance is None) == (family_k is None):
        raise ValueError("exactly one instance source is required: "
                         "--instance or the family's k")
    if instance is not None and n is not None:
        raise ValueError("--instance does not read --n")
    if family_k is not None and k is not None:
        raise ValueError("--lowerbound does not read --k")
    if family_k is not None:
        inst = lowerbound.build_lower_bound_instance(family_k, n)
        return inst.metric, inst.k, inst
    m, file_k = metric.load_instance(instance)
    k = k if k is not None else file_k
    if k is None:
        raise ValueError("no k given (flag or instance file)")
    return m, k, lowerbound.rebuild_if_lower_bound(m, k)


def cmd_gen_lowerbound(args) -> int:
    inst = lowerbound.build_lower_bound_instance(args.k, args.n)
    metric.save_instance(args.out, inst.metric, k=args.k, graph=inst.graph)
    print(f"n={inst.n} k={args.k} formula_n={lowerbound.size_formula(args.k)} "
          f"-> {args.out}")
    if args.schedule_out:
        lowerbound.save_schedule(args.schedule_out,
                                 lowerbound.scripted_schedule(inst))
        print(f"schedule -> {args.schedule_out}")
    return 0


# The kind of random instance that reads each kind-specific `gen random` flag.
_READ_BY = {"dim": "euclidean", "edge_prob": "random-graph", "max_weight": "random-graph"}


def cmd_gen_random(args) -> int:
    given = {name: getattr(args, name) for name in _READ_BY
             if getattr(args, name) is not None}
    unread = [f"--{name.replace('_', '-')}" for name in given
              if _READ_BY[name] != args.kind]
    if unread:
        raise ValueError(f"--kind {args.kind} does not read {', '.join(unread)}")
    m = metric.random_metric(args.kind, args.n, args.seed, **given)
    metric.save_instance(args.out, m, k=args.k)
    print(f"n={m.n} k={args.k} mode={m.mode} -> {args.out}")
    return 0


def cmd_run(args) -> int:
    if args.schedule and args.policy != "scripted":
        raise ValueError(f"--policy {args.policy} does not read --schedule")
    m, k, lb = _load_source(args.instance, args.lowerbound, args.k, args.n)
    if args.policy == "lowest-index":
        policy = kcenter.TiePolicy.lowest_index()
    elif args.policy == "seeded-random":
        policy = kcenter.TiePolicy.seeded_random(args.seed)
    else:
        if args.schedule:
            sched = lowerbound.load_schedule(args.schedule)
            if (sched.k, sched.n) != (k, m.n):
                raise ValueError(f"schedule k/n {sched.k}/{sched.n} is not "
                                 f"the run's {k}/{m.n}")
        elif lb is not None:
            sched = lowerbound.scripted_schedule(lb)
        else:
            raise ValueError("scripted policy requires --schedule or a "
                             "lower-bound instance")
        policy = kcenter.TiePolicy.scripted(sched.script())
    trace = kcenter.reverse_greedy(m, k, policy)

    if args.out:
        kcenter.save_trace(args.out, trace)
    try:
        opt_value = (lowerbound.known_opt(lb).opt_value if lb is not None
                     else exact.opt_value(m, k, cap=args.exact_cap))
    except exact.OracleCapError as err:
        print(f"final_cost={trace.final_cost:g} (ratio omitted: {err})")
        return 0
    ratio = trace.final_cost / opt_value if opt_value else 0.0
    print(f"final_cost={trace.final_cost:g} opt={opt_value:g} ratio={ratio:g}")
    return 0


def _family_row(k: int) -> tuple:
    """`verify_schedule`'s report on family member k and that run's wall time;
    module-level so worker pools can pickle it (the n x n table is freed)."""
    inst = lowerbound.build_lower_bound_instance(k)
    sched = lowerbound.scripted_schedule(inst)
    start = time.perf_counter()
    report = lowerbound.verify_schedule(inst, sched)
    return report, time.perf_counter() - start


def _verify_lower(args) -> int:
    rows = []
    for k in args.k:
        report, _ = _family_row(k)
        print(f"k={k} n={report.n} final={report.final_cost} "
              f"expected={report.expected_final_cost} "
              f"{'ok' if report.ok else 'FAIL'}")
        rows.append(report.to_json())
    all_ok = all(row["ok"] for row in rows)
    _write_report(args.out, {"target": "lower", "passed": all_ok, "runs": rows})
    print(f"lower-bound verification: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _upper_instance(trial: int, args):
    """One battery trial's instance and optimum value."""
    m = metric.random_metric("euclidean" if trial % 2 == 0 else "random-graph",
                             args.n, args.seed + trial)
    return m, exact.opt_value(m, args.k, cap=args.exact_cap)


def _upper_policies(seed: int) -> list:
    return ([kcenter.TiePolicy.lowest_index()]
            + [kcenter.TiePolicy.seeded_random(seed * 31 + j) for j in range(5)])


# Table entries (n*n per trial) of the battery held at once: a chunk of
# trials' tables, then the engine's stacked copy and sorted order of one
# mode's share of them.
_UPPER_CHUNK_ENTRIES = 1 << 16


def _verify_upper(args) -> int:
    per_chunk = max(1, _UPPER_CHUNK_ENTRIES // max(args.n, 1) ** 2)
    max_ratio, violations = 0.0, []
    for start in range(0, args.trials, per_chunk):
        chunk = range(start, min(start + per_chunk, args.trials))
        solved = [_upper_instance(trial, args) for trial in chunk]
        # Even trials are Euclidean (float), odd ones random graphs (int):
        # one engine pass each over all six tie policies of every trial.
        for parity, kind in enumerate(("euclidean", "random-graph")):
            runs = [(t, m, opt, policy) for t, (m, opt) in zip(chunk, solved)
                    if t % 2 == parity for policy in _upper_policies(args.seed + t)]
            traces = kcenter.reverse_greedy_runs([run[1] for run in runs], args.k,
                                                 [run[3] for run in runs])
            for (trial, m, opt, policy), trace in zip(runs, traces):
                final = trace.final_cost
                ratio = final / opt if opt else 0.0
                max_ratio = max(max_ratio, ratio)
                if final > 2 * args.k * opt + m.tol():
                    violations.append({"trial": trial, "kind": kind,
                                       "policy": policy.describe(),
                                       "ratio": ratio})
            del traces  # freed before the next pass
    violations.sort(key=lambda v: v["trial"])
    passed = not violations
    doc = {"target": "upper", "trials": args.trials, "n": args.n, "k": args.k,
           "bound": 2 * args.k, "max_ratio": max_ratio,
           "violations": violations, "passed": passed}
    _write_report(args.out, doc)
    print(f"upper-bound battery: {args.trials} trials, max ratio "
          f"{max_ratio:.4f} vs bound {2 * args.k}: "
          f"{'pass' if passed else 'FAIL'}")
    return 0 if passed else 1


def _verify_gamma(args) -> int:
    # --k names the family member, or k for --instance.
    family_k, k = (args.k, None) if args.instance is None else (None, args.k)
    m, k, lb = _load_source(args.instance, family_k, k)
    opt = (lowerbound.known_opt(lb) if lb is not None
           else exact.exact_opt(m, k, cap=args.exact_cap))
    if lb is not None:
        policy = kcenter.TiePolicy.scripted(lowerbound.scripted_schedule(lb).script())
    else:
        policy = kcenter.TiePolicy.lowest_index()
    trace = kcenter.reverse_greedy(m, k, policy)

    report = consolidation.verify_gamma_decrement(m, trace, opt,
                                                  clique_cap=args.gamma_cap)
    _write_report(args.out, {"target": "gamma", **report.to_json()})
    seq = [report.gamma_values[l] for l in sorted(report.gamma_values)]
    print(f"gamma check: {report.status}; sequence {seq}")
    if report.status == "incomplete":
        print(f"verification incomplete: {report.note}", file=sys.stderr)
        return 3
    return 0 if report.ok else 1


def _separated_instance(k: int, seed: int):
    """Euclidean clusters far enough apart that optimal balls never touch."""
    per_cluster, radius, spacing = 4, 0.5, 10.0
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(k)))
    centers = [(spacing * (i % side), spacing * (i // side)) for i in range(k)]
    coords = []
    for cx, cy in centers:
        angles = rng.random(per_cluster) * 2 * np.pi
        radii = radius * np.sqrt(rng.random(per_cluster))
        coords.extend((cx + r * np.cos(a), cy + r * np.sin(a))
                      for a, r in zip(angles, radii))
    return metric.euclidean_metric(np.array(coords))


def _separation_trial(trial: int, k: int, seed: int) -> dict:
    m = _separated_instance(k, seed)
    opt = exact.exact_opt(m, k, cap=64)
    gap = min((float(m.dist[x, y])
               for a, b in combinations(range(len(opt.balls)), 2)
               for x in opt.balls[a] for y in opt.balls[b]),
              default=float("inf"))
    separated = gap >= 2 * opt.opt_value - m.eps
    final = kcenter.reverse_greedy(m, k).final_cost
    return {"trial": trial, "separated": separated,
            "ratio": final / opt.opt_value}


def _verify_separation(args) -> int:
    results = [_separation_trial(t, args.k, args.seed + t) for t in range(args.trials)]
    used = [r for r in results if r["separated"]]
    above = [r for r in used if r["ratio"] > 2 + 1e-9]
    max_ratio = max((r["ratio"] for r in used), default=0.0)
    doc = {"target": "separation", "trials": args.trials,
           "separated_trials": len(used), "max_ratio": max_ratio,
           "ratios_above_2": above}
    _write_report(args.out, doc)
    print(f"separation battery: {len(used)}/{args.trials} separated trials, "
          f"max ratio {max_ratio:.4f}; {len(above)} above 2 (advisory)")
    return 0


def cmd_sweep(args) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "n", "final_cost", "opt", "ratio", "runtime_s", "legality"])
    if args.jobs == 1:
        rows = list(map(_family_row, args.k))
    else:
        from concurrent.futures import ProcessPoolExecutor  # not on every CLI start
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_family_row, args.k))
    for k, (report, elapsed) in zip(args.k, rows):
        final = report.final_cost  # None, an empty cell, when the run stopped
        writer.writerow([k, report.n, final, 1, "" if final is None else f"{final:g}",
                         f"{elapsed:.4f}", "verified" if report.ok else "FAIL"])
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(args.k)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0 if all(report.ok for report, _ in rows) else 1


def cmd_export_dot(args) -> int:
    m, k, lb = _load_source(args.instance, args.lowerbound, args.k, args.n)
    trace = kcenter.load_trace(args.trace) if args.trace else None
    if lb is None:
        raise ValueError("DOT export needs a lower-bound instance")
    text = lowerbound.export_dot(lb, trace)
    if args.out:
        Path(args.out).write_text(text)
        print(f"dot -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# Flags that several commands take; each command declares the ones it reads.
_SHARED = {
    "--out": dict(help="output file"),
    "--seed": dict(type=int, default=0),
    "--exact-cap": dict(type=positive_int, default=20,
                        help="largest n the exact oracle will attempt"),
    "--jobs": dict(type=positive_int, default=1),
    "--trials": dict(type=positive_int, default=100),
    "--instance": dict(),
    "--lowerbound": dict(type=int, metavar="K"),
}


def _command(sub, name, func, *shared, help=None) -> argparse.ArgumentParser:
    parser = sub.add_parser(name, help=help)
    for flag in shared:
        parser.add_argument(flag, **_SHARED[flag])
    parser.set_defaults(func=func)
    return parser


# Built once per process: in-process callers run many commands, and building
# the parser for each of them costs a sizeable share of a small verify target.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revgreedy",
        description="Reverse greedy for k-center: instances, runs, and "
                    "ratio verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gen_lb = _command(gen_sub, "lowerbound", cmd_gen_lowerbound)
    gen_lb.add_argument("--k", type=int, required=True)
    gen_lb.add_argument("--n", type=int)
    gen_lb.add_argument("--out", required=True)
    gen_lb.add_argument("--schedule-out")
    gen_rand = _command(gen_sub, "random", cmd_gen_random, "--seed")
    gen_rand.add_argument("--kind", choices=["euclidean", "random-graph"],
                          required=True)
    gen_rand.add_argument("--n", type=int, required=True)
    gen_rand.add_argument("--k", type=int)
    gen_rand.add_argument("--out", required=True)
    gen_rand.add_argument("--dim", type=int, help="euclidean only")
    gen_rand.add_argument("--edge-prob", type=float, help="random-graph only")
    gen_rand.add_argument("--max-weight", type=int, help="random-graph only")

    # run and every verify target but separation take --jobs unread:
    # perfbench passes it.
    run = _command(sub, "run", cmd_run, "--instance", "--lowerbound", "--seed",
                   "--exact-cap", "--out", "--jobs", help="run reverse greedy")
    run.add_argument("--n", type=int)
    run.add_argument("--k", type=int)
    run.add_argument("--policy", default="lowest-index",
                     choices=["lowest-index", "seeded-random", "scripted"])
    run.add_argument("--schedule")

    verify = sub.add_parser("verify", help="check one of the ratio claims")
    targets = verify.add_subparsers(dest="target", required=True)
    lower = _command(targets, "lower", _verify_lower, "--out", "--jobs")
    lower.add_argument("--k", type=parse_k_range, default="2..10",
                       help="k range, e.g. 2..10 or 2,3,5")
    upper = _command(targets, "upper", _verify_upper, "--trials", "--seed",
                     "--exact-cap", "--out", "--jobs")
    upper.add_argument("--n", type=int, default=12)
    upper.add_argument("--k", type=int, default=3)
    gamma = _command(targets, "gamma", _verify_gamma, "--instance",
                     "--exact-cap", "--out", "--jobs")
    gamma.add_argument("--k", type=int,
                       help="the family member, or k for --instance")
    gamma.add_argument("--gamma-cap", type=positive_int, default=2000,
                       help="largest maximal-clique count for gamma")
    separation = _command(targets, "separation", _verify_separation,
                          "--trials", "--seed", "--out")
    separation.add_argument("--k", type=positive_int, default=3)

    sweep = _command(sub, "sweep", cmd_sweep, "--out", "--jobs",
                     help="ratio table over the adversarial family")
    sweep.add_argument("--k", type=parse_k_range, default=(),
                       help="k range, e.g. 2..10 or 2,3,5")

    dot = _command(sub, "export-dot", cmd_export_dot, "--instance",
                   "--lowerbound", "--out",
                   help="DOT drawing of a lower-bound instance")
    dot.add_argument("--n", type=int)
    dot.add_argument("--k", type=int)
    dot.add_argument("--trace")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except exact.OracleCapError as err:
        print(f"verification incomplete: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
