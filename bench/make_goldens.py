"""Record ``goldens.json`` from the current CLI, after independent cross-checks.

Usage (from the root of a checkout): python3 bench/make_goldens.py

Runs every set-up build and every job whose input does not depend on the
seed once, and records each job's exit code, standard error and standard output
(exact, as a sha256, or as the stable dual-cert verdict prefix; see
``workloads.Job.match``), plus the sha256, point count and size of every
built input. Before writing, it checks that

* each round trip reproduces the bytes of its ``gen`` stage run alone, and
* the small certify verdicts agree with the brute-force routes in
  ``tests/oracles.py`` (scalar character sums and subset-enumeration Rao
  sums).

Run it again only when a change is meant to alter CLI output, and say so.
"""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys

from pipeline import run_pipeline
from run import BUILD_GOLDEN, GOLDENS, JOB_TIMEOUT_S, ROOT, describe_inputs
from workloads import SEEDED_JOBS, WORKLOADS, golden_of, sha256

sys.path.insert(0, os.path.join(ROOT, "tests"))
import oracles  # noqa: E402


def run_once(job, workdir):
    result = run_pipeline(job.stages, workdir, JOB_TIMEOUT_S)
    if result.timed_out or any(result.codes[:-1]):
        raise SystemExit(f"{job.name}: exit codes {result.codes}, timed out {result.timed_out}")
    return result


def read_mooa(path):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    toks = lines[1].split()
    base, m = int(toks[1]), int(toks[3])
    e = [int(v) for v in lines[2].split()[1:]]
    beta = [int(v) for v in lines[3].split()[1:]]
    rows = [[int(v) for v in line.split()] for line in lines[4:4 + base ** m]]
    return base, m, e, beta, rows


def oracle_dual_cert(path, kappa) -> bool:
    """Gram identity of the kappa block family by scalar cmath sums."""
    base, m, e, beta, rows = read_mooa(path)
    ranges = [range(base ** ei) for ki, ei in zip(kappa, e) for _ in range(ki)]
    vectors = []
    for combo in itertools.product(*ranges):
        values, pos = [], 0
        for ki, bi in zip(kappa, beta):
            values.append(tuple(combo[pos:pos + ki]) + (0,) * (bi - ki))
            pos += ki
        vectors.append(oracles.brute_char_vector(rows, base, e, beta, values))
    gram = oracles.brute_gram(vectors)
    n = base ** m
    return all(abs(gram[a][c] - (n if a == c else 0)) < 1e-6 * n
               for a in range(len(gram)) for c in range(len(gram)))


def cross_check(name, golden, workdir):
    """Compare a certify golden with the oracles; return a problem or None."""
    if name.startswith("dual-cert "):
        _, path, kappa = name.split(" ")
        passes = oracle_dual_cert(os.path.join(workdir, path),
                                  [int(k) for k in kappa.split(",")])
        if passes != (golden["exit"] == 0):
            return f"oracle says pass={passes}, CLI exit {golden['exit']}"
    elif name == "rao":
        lhs = oracles.brute_net_rao_lhs(2, (1,) * 5, 2, "even")
        if f"LHS {lhs} <= RHS {2 ** 10 - 1}" not in golden["stdout"]:
            return f"oracle LHS {lhs}, CLI {golden['stdout']!r}"
    return None


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_work", f"goldens-{os.getpid()}")
    os.makedirs(workdir)
    out = {"jobs": {}, "inputs": {}}
    problems = []
    try:
        for wname, workload in WORKLOADS.items():
            for build in workload.builds:
                r = run_once(build, workdir)
                if golden_of(build, r.codes[-1], r.stdout, r.stderr) != BUILD_GOLDEN:
                    problems.append(f"{build.name}: exit {r.codes[-1]}, output {r.stdout!r}, "
                                    f"{r.stderr!r}")
            inputs = describe_inputs(workdir)
            out["inputs"].update({b.name: inputs[b.name] for b in workload.builds})
            for job in workload.jobs:
                if job.name in SEEDED_JOBS:
                    continue
                r = run_once(job, workdir)
                golden = golden_of(job, r.codes[-1], r.stdout, r.stderr)
                out["jobs"][job.name] = golden
                print(f"{wname}: {job.name}: exit {golden['exit']}", file=sys.stderr)
                if job.match == "sha256":
                    gen = run_once(type(job)(job.name, job.stages[:1]), workdir)
                    if sha256(gen.stdout) != golden["stdout_sha256"]:
                        problems.append(f"{job.name}: round trip differs from its gen bytes")
                if wname == "certify":
                    problem = cross_check(job.name, golden, workdir)
                    if problem:
                        problems.append(f"{job.name}: {problem}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("not written:\n  " + "\n  ".join(problems), file=sys.stderr)
        return 1
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
