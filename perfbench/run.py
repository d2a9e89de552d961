"""Benchmark of the revgreedy CLI, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/` directory.  The workload's inputs are made from --seed and written
under `.perfbench/` in the checkout.  The workload's job (its CLI commands,
run in this process through `revgreedy.cli.main`) then runs back to back
for --seconds, as one closed-loop client, and every command's output is
checked after each job, outside the timed part.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With --trace 0 the metrics
are the end-to-end ones, their times scaled to a reference speed of the
machine (see `speed.py`); with --trace 1 untraced and traced jobs
alternate, and the metrics are the per-layer ones (see `tracing.py`), in
wall time.  The line before it records the environment, the samples (wall
times too) and the problems found.
"""

import os

# One thread per library pool: the machine's cores are shared, and the
# benchmark measures one single-threaded process.
THREAD_CAPS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_CAPS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DIGEST_SEED = 0
SETUP_REPS = 7
MIN_JOBS = 3

# Runs one job in a fresh interpreter and prints its exit codes and its
# /proc/self/status memory lines (kB), so that no work of the benchmark's
# own sets the peak.
JOB_CHILD = """\
import json, sys
import workloads
codes = [workloads.run_argv(argv).code for argv in json.load(sys.stdin)]
with open("/proc/self/status") as fh:
    status = dict(line.split(":", 1) for line in fh)
print(json.dumps([codes, {key: int(status[key].split()[0])
                          for key in ("VmHWM", "RssFile", "RssShmem")}]))
"""


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), "unknown")
    return {"nproc": os.cpu_count(), "cpu": model,
            "l3": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
            "python": platform.python_version(), "numpy": np.__version__,
            "seed": seed, "thread_caps": THREAD_CAPS}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))


def time_import() -> float:
    """Wall time of a fresh interpreter that imports the CLI."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import revgreedy.cli"],
                   env=_child_env(), check=True)
    return time.perf_counter() - start


def job_peak_rss(commands) -> tuple[list[int], float]:
    """Exit codes and peak resident MB of a fresh process running the job,
    less its file-backed pages.

    The file-backed part is the mapped shared libraries (numpy, OpenBLAS):
    how many of their pages a process maps depends on the host's page
    cache, not on the program.  It is taken at the end of the job; the
    libraries are mapped on import, before the peak.
    """
    proc = subprocess.run([sys.executable, "-c", JOB_CHILD],
                          input=json.dumps([cmd.argv for cmd in commands]),
                          capture_output=True, text=True, env=_child_env(),
                          check=True)
    codes, kb = json.loads(proc.stdout.splitlines()[-1])
    return codes, (kb["VmHWM"] - kb["RssFile"] - kb["RssShmem"]) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "revgreedy" / "__init__.py").is_file():
        print(f"error: no revgreedy sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import speed
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    setup, setup_kernel = [], []
    for _ in range(SETUP_REPS):
        import_s = time_import()
        start = time.perf_counter()
        commands = workloads.prepare(args.workload, args.seed, work)
        setup.append(import_s + time.perf_counter() - start)
        setup_kernel.append(speed.kernel())

    stored = {}
    if (args.seed == DIGEST_SEED
            or args.workload in workloads.SEED_FREE_OUTPUTS):
        stored = json.loads(DIGESTS.read_text())[args.workload]
    signatures: dict[str, object] = {}
    problems: list[str] = []
    attempted = failed = 0

    kernel = []

    def run_and_check(tracer=None):
        nonlocal attempted, failed
        gc.collect()
        with tracer or contextlib.nullcontext():
            elapsed, results = workloads.run_job(commands)
        if tracer is None:
            kernel.append(speed.kernel())
        for cmd, result in zip(commands, results):
            attempted += 1
            found, signature = workloads.check(cmd, result)
            if signature is not None:
                first = signatures.setdefault(cmd.label, signature)
                if signature != first:
                    found.append("output differs from the first job's")
                got = workloads.digest(signature)
                if stored and got != stored.get(cmd.label):
                    found.append(f"digest {got} != stored "
                                 f"{stored.get(cmd.label)}")
            if found:
                failed += 1
                problems.extend(f"{cmd.label}: {p}" for p in found)
        return elapsed

    peak_rss_mb = None
    if args.trace == 0:
        codes, peak_rss_mb = job_peak_rss(commands)
        problems.extend(f"{cmd.label}: exit {code} in the memory run"
                        for cmd, code in zip(commands, codes) if code != 0)

    def another(samples: list[float], until: float) -> bool:
        """Start another round until MIN_JOBS, then while one still fits."""
        return (len(samples) < MIN_JOBS
                or time.perf_counter() + statistics.median(samples) <= until)

    # With --trace 1 each untraced job is followed by a traced one, so that
    # the machine's drift in speed falls on both alike.
    verdict, traced, layers, tracers = [], [], [], []

    def rounds() -> list[float]:
        return [a + b for a, b in zip(verdict, traced)] if args.trace else verdict

    until = time.perf_counter() + args.seconds
    while another(rounds(), until):
        verdict.append(run_and_check())
        if args.trace:
            tracer = tracing.Tracer()
            wall = run_and_check(tracer)
            traced.append(wall)
            layers.append(tracing.layer_metrics(tracer.spans, wall))
            tracers.append(tracer)

    if args.trace == 0:
        # Times at the reference speed (see speed.py): each set-up and
        # job is paired with the kernel timed right after it.
        metrics = {
            "setup_s": (statistics.median(
                speed.scaled([s], [k]) for s, k in zip(setup, setup_kernel)), "s"),
            "verdict_s": (speed.scaled(verdict, kernel), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        with open(work / "spans.jsonl", "w") as fh:
            for job, tracer in enumerate(tracers):
                tracer.write(fh, job)
        layer = tracing.median_metrics(layers)
        layer["trace_overhead_frac"] = (statistics.fmean(traced)
                                        / statistics.fmean(verdict) - 1)
        problems.extend(f"count {name} differs between traced jobs"
                        for counts in layers[1:] for name, value in counts.items()
                        if not tracing.timed(name) and value != layers[0][name])
        metrics = {name: (value, tracing.unit(name))
                   for name, value in layer.items()}

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed),
              "setup_wall_s": setup, "setup_kernel_s": setup_kernel,
              "verdict_wall_s": verdict, "kernel_s": kernel,
              "traced_wall_s": traced,
              "peak_rss_mb": peak_rss_mb,
              "fail_frac": failed / attempted, "problems": problems[:50]}
    (work / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
