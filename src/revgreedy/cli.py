"""Command-line front end: generate instances, run the algorithms, verify
the ratio claims, sweep the adversarial family, and export DOT drawings.

Every command is deterministic given its flags (all randomness is seeded).
Reports go to --out as JSON/CSV; a human summary is printed on stdout.
Exit codes: 0 pass, 1 verification failure, 2 usage/input error, 3 incomplete.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations
from pathlib import Path

import numpy as np

from . import consolidation, exact, kcenter, lowerbound, metric


def parse_k_range(text: str) -> list[int]:
    """Accept "5", "2..10", or "2,3,5"."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(part) for part in text.split(",")]
    return [int(text)]


def _write_report(out: str | None, doc: dict) -> None:
    if out:
        Path(out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def _load_source(args):
    """Resolve the single instance source: (metric, k, lower-bound or None)."""
    sources = [s for s in (args.instance, args.lowerbound) if s is not None]
    if len(sources) != 1:
        raise ValueError("exactly one of --instance/--lowerbound is required")
    if args.lowerbound is not None:
        inst = lowerbound.build_lower_bound_instance(args.lowerbound,
                                                     getattr(args, "n", None))
        return inst.metric, inst.k, inst
    m, file_k = metric.load_instance(args.instance)
    k = args.k if getattr(args, "k", None) is not None else file_k
    inst = lowerbound.rebuild_if_lower_bound(m, k) if k else None
    return m, k, inst


def cmd_gen(args) -> int:
    if args.family == "lowerbound":
        try:
            inst = lowerbound.build_lower_bound_instance(args.k, args.n)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        metric.save_instance(args.out, inst.metric, k=args.k, graph=inst.graph)
        print(f"n={inst.n} k={args.k} formula_n={lowerbound.size_formula(args.k)} "
              f"-> {args.out}")
        if args.schedule_out:
            lowerbound.save_schedule(args.schedule_out,
                                     lowerbound.scripted_schedule(inst))
            print(f"schedule -> {args.schedule_out}")
        return 0

    try:
        m = metric.random_metric(args.kind, args.n, args.seed, dim=args.dim,
                                 edge_prob=args.edge_prob,
                                 max_weight=args.max_weight)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    metric.save_instance(args.out, m, k=args.k)
    print(f"n={m.n} k={args.k} mode={m.mode} -> {args.out}")
    return 0


def cmd_run(args) -> int:
    try:
        m, k, lb = _load_source(args)
    except (ValueError, OSError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if k is None:
        print("error: no k given (flag or instance file)", file=sys.stderr)
        return 2

    try:
        if args.policy == "lowest-index":
            policy = kcenter.TiePolicy.lowest_index()
        elif args.policy == "seeded-random":
            policy = kcenter.TiePolicy.seeded_random(args.seed)
        else:
            if args.schedule:
                sched = lowerbound.load_schedule(args.schedule)
            elif lb is not None:
                sched = lowerbound.scripted_schedule(lb)
            else:
                raise ValueError("scripted policy requires --schedule or a "
                                 "lower-bound instance")
            policy = kcenter.TiePolicy.scripted(sched.script())
        trace = kcenter.reverse_greedy(m, k, policy)
    except (ValueError, OSError, kcenter.ScriptedStepError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    if args.out:
        kcenter.save_trace(args.out, trace)
    final_cost = trace.steps[-1].cost if trace.steps else 0

    if lb is not None:
        opt_value = lowerbound.known_opt(lb).opt_value
    else:
        try:
            opt_value = exact.exact_opt(m, k, cap=args.exact_cap).opt_value
        except exact.OracleCapError as err:
            print(f"final_cost={final_cost:g} (ratio omitted: {err})")
            return 0
    ratio = final_cost / opt_value if opt_value else 0.0
    print(f"final_cost={final_cost:g} opt={opt_value:g} ratio={ratio:g}")
    return 0


def _verify_lower(args) -> int:
    rows = []
    all_ok = True
    for k in parse_k_range(args.k):
        inst = lowerbound.build_lower_bound_instance(k)
        report = lowerbound.verify_schedule(inst, lowerbound.scripted_schedule(inst))
        rows.append(report.to_json())
        all_ok &= report.ok
        print(f"k={k} n={inst.n} final={report.final_cost} "
              f"expected={report.expected_final_cost} "
              f"{'ok' if report.ok else 'FAIL'}")
    _write_report(args.out, {"target": "lower", "passed": all_ok, "runs": rows})
    print(f"lower-bound verification: {'pass' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


def _upper_trial(params: tuple) -> dict:
    """One battery trial; module-level so worker pools can pickle it."""
    trial, n, k, seed, exact_cap = params
    kind = "euclidean" if trial % 2 == 0 else "random-graph"
    m = metric.random_metric(kind, n, seed)
    opt = exact.exact_opt(m, k, cap=exact_cap)
    policies = [kcenter.TiePolicy.lowest_index()]
    policies += [kcenter.TiePolicy.seeded_random(seed * 31 + j) for j in range(5)]
    worst = 0.0
    violations = []
    for policy in policies:
        trace = kcenter.reverse_greedy(m, k, policy)
        final = trace.steps[-1].cost if trace.steps else 0
        ratio = final / opt.opt_value
        worst = max(worst, ratio)
        if final > 2 * k * opt.opt_value + m.tol():
            violations.append({"trial": trial, "kind": kind,
                               "policy": policy.describe(), "ratio": ratio})
    return {"trial": trial, "kind": kind, "max_ratio": worst,
            "violations": violations}


def _run_pool(worker, params, jobs: int) -> list:
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, params))
    return [worker(p) for p in params]


def _verify_upper(args) -> int:
    if args.n > args.exact_cap:
        print(f"verification incomplete: n={args.n} exceeds exact oracle "
              f"cap {args.exact_cap}", file=sys.stderr)
        return 3
    params = [(t, args.n, args.k, args.seed + t, args.exact_cap)
              for t in range(args.trials)]
    results = _run_pool(_upper_trial, params, args.jobs)
    violations = [v for r in results for v in r["violations"]]
    max_ratio = max((r["max_ratio"] for r in results), default=0.0)
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
    if args.instance:
        try:
            m, file_k = metric.load_instance(args.instance)
        except (ValueError, OSError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        k = args.k if args.k is not None else file_k
        if k is None:
            print("error: no k given", file=sys.stderr)
            return 2
        lb = lowerbound.rebuild_if_lower_bound(m, k)
    else:
        if args.k is None:
            print("error: verify gamma needs --k or --instance", file=sys.stderr)
            return 2
        lb = lowerbound.build_lower_bound_instance(args.k)
        m, k = lb.metric, lb.k

    if lb is not None:
        opt = lowerbound.known_opt(lb)
        policy = kcenter.TiePolicy.scripted(lowerbound.scripted_schedule(lb).script())
    else:
        try:
            opt = exact.exact_opt(m, k, cap=args.exact_cap)
        except exact.OracleCapError as err:
            print(f"verification incomplete: {err}", file=sys.stderr)
            return 3
        policy = kcenter.TiePolicy.lowest_index()
    trace = kcenter.reverse_greedy(m, k, policy)

    report = consolidation.verify_gamma_decrement(m, trace, opt,
                                                  clique_cap=args.gamma_cap)
    _write_report(args.out, {"target": "gamma", **report.to_json()})
    seq = [report.gamma_values[l] for l in sorted(report.gamma_values)]
    print(f"gamma check: {report.status}; sequence {seq}")
    if report.status == "incomplete":
        return 3
    return 0 if report.ok else 1


def _separated_instance(k: int, seed: int, per_cluster: int = 4,
                        radius: float = 0.5, spacing: float = 10.0):
    """Euclidean clusters far enough apart that optimal balls never touch."""
    rng = np.random.default_rng(seed)
    side = int(np.ceil(np.sqrt(k)))
    centers = [(spacing * (i % side), spacing * (i // side)) for i in range(k)]
    coords = []
    for cx, cy in centers:
        angles = rng.random(per_cluster) * 2 * np.pi
        radii = radius * np.sqrt(rng.random(per_cluster))
        coords.extend((cx + r * np.cos(a), cy + r * np.sin(a))
                      for a, r in zip(angles, radii))
    pts = np.array(coords)
    diff = pts[:, None, :] - pts[None, :, :]
    d = np.sqrt((diff * diff).sum(axis=2))
    np.fill_diagonal(d, 0.0)
    return metric.MetricSpace(dist=d, mode="float")


def _separation_trial(params: tuple) -> dict:
    trial, k, seed, exact_cap = params
    m = _separated_instance(k, seed)
    opt = exact.exact_opt(m, k, cap=exact_cap)
    gap = min((float(m.dist[x, y])
               for a, b in combinations(range(len(opt.balls)), 2)
               for x in opt.balls[a] for y in opt.balls[b]),
              default=float("inf"))
    separated = gap >= 2 * opt.opt_value - m.eps
    trace = kcenter.reverse_greedy(m, k)
    final = trace.steps[-1].cost if trace.steps else 0.0
    return {"trial": trial, "separated": separated,
            "ratio": final / opt.opt_value}


def _verify_separation(args) -> int:
    params = [(t, args.k, args.seed + t, 64) for t in range(args.trials)]
    results = _run_pool(_separation_trial, params, args.jobs)
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


def cmd_verify(args) -> int:
    handler = {
        "lower": _verify_lower,
        "upper": _verify_upper,
        "gamma": _verify_gamma,
        "separation": _verify_separation,
    }[args.target]
    return handler(args)


def _sweep_row(k: int) -> list:
    inst = lowerbound.build_lower_bound_instance(k)
    sched = lowerbound.scripted_schedule(inst)
    start = time.perf_counter()
    trace = kcenter.reverse_greedy(inst.metric, k,
                                   kcenter.TiePolicy.scripted(sched.script()))
    elapsed = time.perf_counter() - start
    final = trace.steps[-1].cost if trace.steps else 0
    return [k, inst.n, final, 1, f"{final:g}", f"{elapsed:.4f}", "verified"]


def cmd_sweep(args) -> int:
    ks = parse_k_range(args.k) if args.k else []
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["k", "n", "final_cost", "opt", "ratio", "runtime_s", "legality"])
    rows = _run_pool(_sweep_row, ks, args.jobs)
    writer.writerows(rows)
    text = buf.getvalue()
    if args.out:
        Path(args.out).write_text(text)
        print(f"{len(ks)} rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_export_dot(args) -> int:
    try:
        m, k, lb = _load_source(args)
        trace = kcenter.load_trace(args.trace) if args.trace else None
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if lb is None:
        print("error: DOT export needs a lower-bound instance", file=sys.stderr)
        return 2
    text = lowerbound.export_dot(lb, trace)
    if args.out:
        Path(args.out).write_text(text)
        print(f"dot -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revgreedy",
        description="Reverse greedy for k-center: instances, runs, and "
                    "ratio verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--exact-cap", type=int, default=20,
                        help="largest n the exact oracle will attempt")
    common.add_argument("--gamma-cap", type=int, default=2000,
                        help="largest maximal-clique count for gamma")
    common.add_argument("--jobs", type=int, default=1)

    gen = sub.add_parser("gen", help="generate an instance file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    gen_lb = gen_sub.add_parser("lowerbound", parents=[common])
    gen_lb.add_argument("--k", type=int, required=True)
    gen_lb.add_argument("--n", type=int, default=None)
    gen_lb.add_argument("--schedule-out", default=None)
    gen_rand = gen_sub.add_parser("random", parents=[common])
    gen_rand.add_argument("--kind", choices=["euclidean", "random-graph"],
                          required=True)
    gen_rand.add_argument("--n", type=int, required=True)
    gen_rand.add_argument("--k", type=int, default=None)
    gen_rand.add_argument("--dim", type=int, default=2)
    gen_rand.add_argument("--edge-prob", type=float, default=0.3)
    gen_rand.add_argument("--max-weight", type=int, default=9)

    run = sub.add_parser("run", parents=[common], help="run reverse greedy")
    run.add_argument("--instance", default=None)
    run.add_argument("--lowerbound", type=int, default=None, metavar="K")
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--k", type=int, default=None)
    run.add_argument("--policy", default="lowest-index",
                     choices=["lowest-index", "seeded-random", "scripted"])
    run.add_argument("--schedule", default=None)

    verify = sub.add_parser("verify", parents=[common],
                            help="check one of the ratio claims")
    verify.add_argument("target", choices=["lower", "upper", "gamma", "separation"])
    verify.add_argument("--k", default=None,
                        help="k range for lower (e.g. 2..10), integer otherwise")
    verify.add_argument("--n", type=int, default=12)
    verify.add_argument("--trials", type=int, default=100)
    verify.add_argument("--instance", default=None)

    sweep = sub.add_parser("sweep", parents=[common],
                           help="ratio table over the adversarial family")
    sweep.add_argument("--k", default="")

    dot = sub.add_parser("export-dot", parents=[common],
                         help="DOT drawing of a lower-bound instance")
    dot.add_argument("--instance", default=None)
    dot.add_argument("--lowerbound", type=int, default=None, metavar="K")
    dot.add_argument("--n", type=int, default=None)
    dot.add_argument("--k", type=int, default=None)
    dot.add_argument("--trace", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for cap in ("exact_cap", "gamma_cap"):
        if getattr(args, cap, 1) <= 0:
            parser.error(f"--{cap.replace('_', '-')} must be positive")

    if args.command == "gen":
        if not args.out:
            parser.error("gen requires --out")
        return cmd_gen(args)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "verify":
        if args.target == "lower":
            args.k = args.k or "2..10"
        elif args.k is None:
            if args.target in ("upper", "separation"):
                args.k = 3
        else:
            try:
                args.k = int(args.k)
            except ValueError:
                parser.error(f"verify {args.target} needs an integer --k")
        return cmd_verify(args)
    if args.command == "sweep":
        return cmd_sweep(args)
    if args.command == "export-dot":
        return cmd_export_dot(args)
    parser.error(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
