"""End-to-end benchmark of the evnets command line.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload verify|roundtrip|certify --seed N \
        --seconds S --trace 0|1

One client runs a closed loop: each job (one CLI process, or a pipeline of
them) starts after the previous one ended. A run builds the workload's input
files (set-up, repeated ``SETUP_REPS`` times), then repeats passes over the
workload's fixed job list until ``--seconds`` have elapsed. Every job's exit
code and output are checked against ``goldens.json`` (or, for the inputs the
seed picks, against goldens derived in ``workloads.py``); each mismatch is
printed to standard error with the job's name.

With ``--trace 0`` the last line reports the end-to-end metrics: ``setup_s``
(median over set-ups), ``pass_s`` (median over passes), ``job_s.p50`` and
``job_s.p90`` (percentiles over the job list of each job's median wall time,
launch of its first process to exit of its last) and ``peak_rss_mb`` (largest
max-RSS of any CLI process). Taking each job's median first keeps the
percentiles from resting on one sample of a single job. With
``--trace 1`` untraced and traced passes alternate, the traced ones record
spans around each layer's public functions (``spans.py``), and the last line
reports the per-layer metrics of ``layers.py``. The line before it is a JSON
record of the run: seed, environment, inputs, per-job times and failures.

The CLI runs with its default flags, so each process uses its default worker
count (``os.cpu_count()``).
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import layers
from pipeline import run_pipeline
from workloads import SEEDED_JOBS, WORKLOADS, check, make_seeded, sha256

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDENS = os.path.join(HERE, "goldens.json")
SETUP_REPS = 3
JOB_TIMEOUT_S = 60.0
# A set-up build writes its file (checked against goldens.json) and prints nothing.
BUILD_GOLDEN = {"exit": 0, "stdout": "", "stderr": ""}
END_TO_END = {"setup_s": "s", "pass_s": "s", "job_s.p50": "s", "job_s.p90": "s",
              "peak_rss_mb": "MB"}


class Harness:
    """Runs jobs of one workload in a scratch directory and tallies failures."""

    def __init__(self, workdir: str, goldens: dict):
        self.workdir = workdir
        self.goldens = goldens
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.max_rss_kb = 0
        self.span_files: list[str] = []

    def _fail(self, name: str, problems: list[str]) -> None:
        self.failed += 1
        message = f"{name}: " + "; ".join(problems)
        self.failures.append(message)
        print(f"MISMATCH {message}", file=sys.stderr)

    def job(self, job, golden: dict, span_tag: str | None = None):
        """Run one job; with ``span_tag`` its processes record spans."""
        stage_env = None
        if span_tag is not None:
            def stage_env(k):
                path = os.path.join(self.workdir, "spans", f"{span_tag}-{k}.json")
                self.span_files.append(path)
                return {"EVNETS_BENCH_SPANS": path, "EVNETS_BENCH_JOB": f"{span_tag}-{k}"}
        result = run_pipeline(job.stages, self.workdir, JOB_TIMEOUT_S, stage_env=stage_env)
        self.attempted += 1
        self.max_rss_kb = max(self.max_rss_kb, result.max_rss_kb)
        if result.timed_out:
            problems = [f"timed out after {JOB_TIMEOUT_S:.0f} s"]
        else:
            problems = check(golden, result.codes, result.stdout, result.stderr)
        if job.name in self.goldens["inputs"]:
            want = self.goldens["inputs"][job.name]["sha256"]
            try:
                with open(os.path.join(self.workdir, job.name), "rb") as fh:
                    digest = sha256(fh.read())
            except FileNotFoundError:
                digest = "missing"
            if digest != want:
                problems.append(f"built file sha256 {digest}, golden {want}")
        if problems:
            self._fail(job.name, problems)
        return result

    def take_span_files(self) -> list[str]:
        files, self.span_files = self.span_files, []
        return files


def run_setup(harness: Harness, workload, span_tag: str | None = None) -> float:
    start = time.perf_counter()
    for k, build in enumerate(workload.builds):
        harness.job(build, BUILD_GOLDEN, None if span_tag is None else f"{span_tag}-b{k}")
    return time.perf_counter() - start


def run_pass(harness: Harness, workload, goldens: dict, span_tag: str | None = None):
    """One pass over the job list: (window, per-job seconds by job name)."""
    times = {}
    start = time.perf_counter()
    for k, job in enumerate(workload.jobs):
        result = harness.job(job, goldens[job.name],
                             None if span_tag is None else f"{span_tag}-j{k}")
        times[job.name] = result.seconds
    return (start, time.perf_counter()), times


def environment() -> dict:
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
        git_head = head.stdout.strip() if head.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_head = None
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    affinity = sorted(os.sched_getaffinity(0))
    return {"nproc": len(affinity), "cpu_affinity": affinity, "os_cpu_count": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "machine": platform.machine(), "git_head": git_head}


def describe_inputs(workdir: str) -> dict:
    out = {}
    for name in sorted(os.listdir(workdir)):
        if not name.endswith((".net", ".mooa")):
            continue
        with open(os.path.join(workdir, name), "rb") as fh:
            data = fh.read()
        header_lines = 3 if name.endswith(".net") else 4
        out[name] = {"points": data.count(b"\n") - header_lines, "bytes": len(data),
                     "sha256": sha256(data)}
    return out


def _median_metrics(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(args, harness: Harness, workload) -> tuple[dict, dict]:
    """Set up, run the passes, and return (metrics, details for the record)."""
    goldens = dict(harness.goldens["jobs"])
    if args.trace:
        setup_times = [run_setup(harness, workload, "setup")]
        records, _ = layers.read_span_files(harness.take_span_files())
        construct_setup_s = layers.construct_s(records)
    else:
        setup_times = [run_setup(harness, workload) for _ in range(SETUP_REPS)]
    seeded_goldens, seed_choices = make_seeded(args.workload, harness.workdir, args.seed)
    goldens.update(seeded_goldens)
    details = {"inputs": describe_inputs(harness.workdir), "seed_choices": seed_choices,
               "setup_s": setup_times}

    deadline = time.perf_counter() + args.seconds
    plain, traced, job_times = [], [], {}
    absent, hook_errors = set(), set()
    while not plain or time.perf_counter() < deadline:
        window, times = run_pass(harness, workload, goldens)
        plain.append(window[1] - window[0])
        for name, t in times.items():
            job_times.setdefault(name, []).append(t)
        if not args.trace:
            continue
        tag = f"p{len(traced)}"
        window, _ = run_pass(harness, workload, goldens, tag)
        records, problems = layers.read_span_files(harness.take_span_files())
        for problem in problems:
            print(f"TRACE {problem}", file=sys.stderr)
        for rec in records:
            absent.update(rec["absent"])
            hook_errors.update(rec["hook_errors"])
        row = layers.aggregate(records, window)
        row["pass_s"] = window[1] - window[0]
        traced.append(row)

    per_job = {name: statistics.median(ts) for name, ts in job_times.items()}
    details.update({
        "passes": len(plain), "pass_s": plain,
        "job_s_samples": sum(len(ts) for ts in job_times.values()),
        "job_s_median_by_job": per_job,
        "fail_ratio": {"value": harness.failed / max(harness.attempted, 1), "unit": "ratio"},
    })
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "pass_s": statistics.median(plain),
            "job_s.p50": statistics.median(per_job.values()),
            "job_s.p90": statistics.quantiles(per_job.values(), n=10, method="inclusive")[8],
            "peak_rss_mb": harness.max_rss_kb / 1024,
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, details

    repeated = {key: len({row[key] for row in traced}) == 1 for key in layers.EXACT_COUNTS}
    if not all(repeated.values()):
        print(f"TRACE counts differ between traced passes: {repeated}", file=sys.stderr)
    median = _median_metrics(traced)
    median["trace.overhead"] = median.pop("pass_s") / statistics.median(plain) - 1
    median["corpus.construct.setup_s"] = construct_setup_s
    details.update({"traced_passes": len(traced), "counts_repeat": repeated,
                    "absent": sorted(absent), "hook_errors": sorted(hook_errors)})
    if absent or hook_errors:
        print(f"TRACE absent {sorted(absent)} hook errors {sorted(hook_errors)}",
              file=sys.stderr)
    return ({k: {"value": median[k], "unit": unit} for k, (unit, _) in layers.METRICS.items()},
            details)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "evnets", "cli.py")):
        print(f"error: no evnets sources under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    missing = [job.name for w in WORKLOADS.values() for job in w.jobs
               if job.name not in goldens["jobs"] and job.name not in SEEDED_JOBS]
    if missing:
        print(f"error: goldens.json has no golden for {missing}", file=sys.stderr)
        return 2

    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(os.path.join(workdir, "spans"))
    try:
        harness = Harness(workdir, goldens)
        metrics, details = measure(args, harness, WORKLOADS[args.workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(), **details,
              "failures": harness.failures, "metrics": metrics}
    print(json.dumps(record))
    print(json.dumps({"correct": harness.failed == 0, "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
