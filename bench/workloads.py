"""Workloads: the input files each one builds in set-up and its fixed job list.

Inputs that do not depend on the seed are built by the CLI and checked
against ``goldens.json``. Two inputs are made by the benchmark from the seed:
a copy of faure(7,6,7) with one digit flipped, and a random base-2 MOOA
array. Their expected verdicts are derived here, independently of evnets.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

DIGITS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"


@dataclass(frozen=True)
class Job:
    name: str
    stages: tuple[tuple[str, ...], ...]  # one argument list per pipeline stage
    match: str = "exact"  # stdout golden: "exact", "sha256" or "dual-cert" (verdict prefix)


@dataclass(frozen=True)
class Workload:
    why: str
    builds: tuple[Job, ...]   # CLI set-up jobs; each writes the file its name gives
    jobs: tuple[Job, ...]


def _gen(*args: str) -> tuple[str, ...]:
    return ("gen", *args)


def _roundtrip(name: str, gen: tuple[str, ...]) -> Job:
    return Job(name, (gen, ("to-mooa", "-"), ("from-mooa", "-")), "sha256")


def _dual_cert(file: str, kappa: str) -> Job:
    return Job(f"dual-cert {file} {kappa}", (("dual-cert", file, "--kappa", kappa),),
               "dual-cert")


WORKLOADS = {
    "verify": Workload(
        "Seven coordinates share digit prefixes across 924 shapes: prefix caching, "
        "u_star reuse and first-failure exit show here; inputs are only read.",
        builds=(
            Job("faure-7-6-7.net", (_gen("faure", "--base", "7", "--m", "6", "--s", "7",
                                         "--out", "faure-7-6-7.net"),)),
            Job("faure-5-7-5.net", (_gen("faure", "--base", "5", "--m", "7", "--s", "5",
                                         "--out", "faure-5-7-5.net"),)),
        ),
        jobs=(
            Job("verify-net faure-7-6-7.net", (("verify-net", "faure-7-6-7.net"),)),
            Job("verify-net faure-7-6-7-defect.net", (("verify-net", "faure-7-6-7-defect.net"),)),
            Job("report faure-5-7-5.net", (("report", "faure-5-7-5.net"),)),
        ),
    ),
    "roundtrip": Workload(
        "Text parse and serialize dominate with few shapes (17-19): vectorised I/O "
        "shows here and the prefix cache should not.",
        builds=(
            Job("hammersley-2-17.net", (_gen("hammersley", "--base", "2", "--m", "17",
                                             "--out", "hammersley-2-17.net"),)),
        ),
        jobs=(
            _roundtrip("roundtrip hammersley-2-17",
                       _gen("hammersley", "--base", "2", "--m", "17")),
            _roundtrip("roundtrip faure-3-10-3",
                       _gen("faure", "--base", "3", "--m", "10", "--s", "3")),
            Job("to-moa hammersley-2-17.net | verify-moa",
                (("to-moa", "hammersley-2-17.net"), ("verify-moa", "-"))),
        ),
    ),
    "certify": Workload(
        "Small exact decisions: the O(F^2) certificate precondition, search nodes/s "
        "and per-call start-up dominate; kernels and I/O do almost nothing.",
        builds=(
            Job("ham-2-8.mooa", (_gen("hammersley", "--base", "2", "--m", "8"),
                                 ("to-mooa", "-", "--out", "ham-2-8.mooa"))),
            Job("ham-3-5.mooa", (_gen("hammersley", "--base", "3", "--m", "5"),
                                 ("to-mooa", "-", "--out", "ham-3-5.mooa"))),
        ),
        jobs=(
            _dual_cert("ham-2-8.mooa", "0,8"),
            _dual_cert("ham-2-8.mooa", "4,4"),
            _dual_cert("ham-2-8.mooa", "8,0"),
            _dual_cert("ham-3-5.mooa", "3,2"),
            _dual_cert("random-2-8.mooa", "4,4"),
            Job("gen search u=0", (_gen("search", "--base", "2", "--m", "2", "--s", "4",
                                        "--e", "1x4", "--u", "0"),)),
            Job("gen search u=1 limit", (_gen("search", "--base", "2", "--m", "3", "--s", "4",
                                              "--e", "1x4", "--u", "1",
                                              "--node-limit", "40000"),)),
            Job("feasible net", (("feasible", "--base", "3", "--m", "12",
                                  "--e", "1x10,2x5"),)),
            Job("feasible sequence", (("feasible", "--base", "2", "--m", "20", "--e", "1x8",
                                       "--target", "sequence"),)),
            Job("rao", (("rao", "--base", "2", "--m", "10", "--e", "1x5", "--t", "4"),)),
        ),
    ),
}

# Jobs whose input and expected verdict depend on the seed; make_seeded()
# writes their goldens.
SEEDED_JOBS = ("verify-net faure-7-6-7-defect.net", "dual-cert random-2-8.mooa 4,4")

# (coordinate, digit) pairs the seed may flip in faure(7,6,7). The first
# maximal shape that sees each flip sits at 44-50% of the 924, so the work a
# verifier with early exit does on the defect stays alike across seeds.
DEFECT_DIGITS = ((0, 0), (1, 2), (1, 3), (1, 4), (1, 5))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dual_cert_prefix(stdout: str) -> str:
    """The stable part of a dual-cert verdict: up to the family size on PASS."""
    line = stdout.split("\n", 1)[0]
    if line.startswith("dual-cert: PASS"):
        return line.split(" <=", 1)[0]
    return "dual-cert: FAIL " if line.startswith("dual-cert: FAIL ") else line


def _has_prefix(stdout: str, prefix: str) -> bool:
    """Whether the first line starts with ``prefix`` and no digit continues it,
    so that 'family=25' does not match 'family=256'."""
    line = stdout.split("\n", 1)[0]
    return line.startswith(prefix) and not line[len(prefix):len(prefix) + 1].isdigit()


def check(golden: dict, codes, stdout: bytes, stderr: bytes) -> list[str]:
    """Mismatches between one job run and its golden (empty when it matches)."""
    problems = []
    if any(codes[:-1]):
        problems.append(f"pipeline stage exit codes {list(codes)}")
    if codes[-1] != golden["exit"]:
        problems.append(f"exit {codes[-1]}, golden {golden['exit']}")
    text = stdout.decode("utf-8", "replace")
    if "stdout" in golden and text != golden["stdout"]:
        problems.append(f"stdout {text[:200]!r}, golden {golden['stdout'][:200]!r}")
    if "stdout_sha256" in golden and sha256(stdout) != golden["stdout_sha256"]:
        problems.append(f"stdout sha256 {sha256(stdout)}, golden {golden['stdout_sha256']}")
    if "stdout_prefix" in golden and not _has_prefix(text, golden["stdout_prefix"]):
        problems.append(f"verdict {text[:200]!r}, golden prefix {golden['stdout_prefix']!r}")
    if "stderr" in golden and stderr.decode("utf-8", "replace") != golden["stderr"]:
        problems.append(f"stderr {stderr[:200]!r}, golden {golden['stderr'][:200]!r}")
    return problems


def golden_of(job: Job, code: int, stdout: bytes, stderr: bytes) -> dict:
    """Record one run of ``job`` as its golden, in the form ``job.match`` asks for."""
    golden = {"exit": code, "stderr": stderr.decode()}
    if job.match == "sha256":
        golden["stdout_sha256"] = sha256(stdout)
    elif job.match == "dual-cert":
        golden["stdout_prefix"] = dual_cert_prefix(stdout.decode())
    else:
        golden["stdout"] = stdout.decode()
    return golden


# ------------------------------------------------------------ seeded inputs

def _net_header(lines: list[str]) -> tuple[int, int, int]:
    toks = lines[1].split()
    return int(toks[1]), int(toks[3]), int(toks[5])


def maximal_shapes(m: int, s: int) -> list[tuple[int, ...]]:
    """Depth shapes summing to m over s coordinates (u = 0, unit e), in
    lexicographic order: the budget-maximal shapes verify-net checks."""
    return sorted(d for d in itertools.product(range(m + 1), repeat=s) if sum(d) == m)


def box_count(body: list[str], shape, box, base: int) -> int:
    """Points whose coordinate-i digits start with box[i] written in shape[i] digits."""
    prefixes = []
    for d, a in zip(shape, box):
        digits = ""
        for _ in range(d):
            a, r = divmod(a, base)
            digits = DIGITS[r] + digits
        prefixes.append(digits)
    return sum(all(tok.startswith(p) for tok, p in zip(line.split(), prefixes))
               for line in body)


def make_defect(clean: str, rng: random.Random) -> tuple[str, dict, dict]:
    """Flip one seeded digit of a quality-0 NET file.

    Returns the defective text, the flipped digit, and the golden of
    verify-net on it: the first maximal shape deep enough in the flipped
    coordinate to see the flip, and of its two boxes whose counts changed,
    the one of lower rank. The witness count comes from a digit-prefix box
    count over the defective text.
    """
    lines = clean.rstrip("\n").split("\n")
    base, m, s = _net_header(lines)
    body = lines[3:]
    n = rng.randrange(len(body))
    i, l = rng.choice(DEFECT_DIGITS)
    toks = body[n].split(" ")
    old = toks[i]
    new = old[:l] + DIGITS[(DIGITS.index(old[l]) + 1) % base] + old[l + 1:]
    toks[i] = new
    body[n] = " ".join(toks)
    shape = next(d for d in maximal_shapes(m, s) if d[i] > l)
    boxes = []
    for point in (old, new):
        coords = list(body[n].split(" "))
        coords[i] = point
        boxes.append(tuple(int(c[:d], base) if d else 0 for c, d in zip(coords, shape)))
    box = min(boxes)  # lexicographic order is rank order: each entry < its radix
    expected = base ** (m - sum(shape))
    observed = box_count(body, shape, box, base)
    if observed == expected:
        raise AssertionError(f"flip at {(n, i, l)} left box {box} uniform")
    fmt = lambda v: "(" + ", ".join(map(str, v)) + ")"  # noqa: E731
    verdict = (f"verify-net: FAIL shape={fmt(shape)} box={fmt(box)} observed={observed} "
               f"expected={expected} (variant=narrow, mode=maximal, u=0)\n")
    text = "\n".join(lines[:3] + body) + "\n"
    return text, {"n": n, "i": i, "l": l}, {"exit": 1, "stdout": verdict, "stderr": ""}


def make_random_mooa(rng: random.Random) -> tuple[str, dict]:
    """A random 256-row base-2 MOOA claiming u=0, and the dual-cert golden at
    kappa (4, 4): the block family's Gram identity holds exactly when the
    eight selected columns carry every 0/1 tuple once."""
    rows = [[rng.randrange(2) for _ in range(16)] for _ in range(256)]
    text = ("MOOA v1\nbase 2 m 8 s 2 u 0\ne 1 1\nbeta 8 8\n"
            + "".join(" ".join(map(str, r)) + "\n" for r in rows))
    uniform = len({tuple(r[0:4] + r[8:12]) for r in rows}) == 256
    prefix = ("dual-cert: PASS (kappa=(4, 4), family=256" if uniform
              else "dual-cert: FAIL ")
    return text, {"exit": 0 if uniform else 1, "stdout_prefix": prefix, "stderr": ""}


def make_seeded(workload: str, workdir: str, seed: int) -> tuple[dict, dict]:
    """Write the seeded inputs of ``workload``; return their goldens and what
    the seed chose."""
    rng = random.Random(seed)
    if workload == "verify":
        with open(f"{workdir}/faure-7-6-7.net", encoding="utf-8") as fh:
            text, flip, golden = make_defect(fh.read(), rng)
        with open(f"{workdir}/faure-7-6-7-defect.net", "w", encoding="utf-8") as fh:
            fh.write(text)
        return {SEEDED_JOBS[0]: golden}, {"flipped_digit": flip}
    if workload == "certify":
        text, golden = make_random_mooa(rng)
        with open(f"{workdir}/random-2-8.mooa", "w", encoding="utf-8") as fh:
            fh.write(text)
        return {SEEDED_JOBS[1]: golden}, {"random_2_8_uniform": golden["exit"] == 0}
    return {}, {}
