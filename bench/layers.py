"""Per-layer metrics of one traced pass, from the span files its processes wrote.

A span's self time is its duration minus that of its direct children. Times
are self seconds summed over calls, except ``netverify.fail.s`` and the
rates, which use whole-call (inclusive) time. ``cli`` self time is the import
of ``evnets.cli`` plus ``main`` outside any wrapped call; the time spent in
``cli._read_input`` (in a pipeline stage, mostly waiting for the stage
before it) is reported on its own and left out of ``cli.share``.
"""

from __future__ import annotations

import json
import os
from collections import defaultdict

from spans import WRAPPED

MODULES = tuple(WRAPPED)
CONSTRUCT = ("corpus.faure", "corpus.hammersley", "corpus.random_pointset")

# name -> (unit, better)
METRICS = {
    "cli.import_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.read_input_s": ("s", "lower"),
    **{f"io.{n}.s": ("s", "lower") for n in WRAPPED["io"]},
    "io.parsed_bytes": ("B", "lower"),
    "io.serialized_bytes": ("B", "lower"),
    "io.parse_MBps": ("MB/s", "higher"),
    "io.serialize_MBps": ("MB/s", "higher"),
    "netverify.verify_net.s": ("s", "lower"),
    "netverify.verify_net.calls": ("count", "lower"),
    "netverify.u_star.s": ("s", "lower"),
    "netverify.check_shapes.s": ("s", "lower"),
    "netverify.row_shapes": ("count", "lower"),
    "netverify.row_shapes_per_s": ("1/s", "higher"),
    "netverify.fail.s": ("s", "lower"),
    "netverify.witness_pos": ("ratio", "lower"),
    "oa.net_to_moa.s": ("s", "lower"),
    "oa.max_strength.s": ("s", "lower"),
    "oa.verify_moa.s": ("s", "lower"),
    "oa.row_subsets": ("count", "lower"),
    "ooa.net_to_mooa.s": ("s", "lower"),
    "ooa.verify_mooa.s": ("s", "lower"),
    "ooa.mooa_to_net.s": ("s", "lower"),
    "ooa.enumerate_profiles.s": ("s", "lower"),
    "ooa.row_profiles": ("count", "lower"),
    "ooa.row_profiles_per_s": ("1/s", "higher"),
    "dualcert.build_block_family.s": ("s", "lower"),
    "dualcert.gram_certificate.s": ("s", "lower"),
    "dualcert.members": ("count", "lower"),
    "dualcert.pairs": ("count", "lower"),
    "dualcert.pairs_per_s": ("1/s", "higher"),
    "bounds.feasibility_report.s": ("s", "lower"),
    "bounds.net_rao_check.s": ("s", "lower"),
    "corpus.construct.s": ("s", "lower"),
    "corpus.construct.setup_s": ("s", "lower"),
    "corpus.search_net.s": ("s", "lower"),
    "corpus.search_nodes": ("count", "lower"),
    "corpus.search_nodes_per_s": ("1/s", "higher"),
    **{f"{m}.share": ("ratio", "lower") for m in MODULES},
    "trace.overhead": ("ratio", "lower"),
    "trace.unaccounted_s": ("s", "lower"),
}

# Counts that must repeat exactly between traced passes of one seed.
EXACT_COUNTS = ("netverify.row_shapes", "dualcert.pairs", "corpus.search_nodes",
                "io.parsed_bytes")


def read_span_files(paths) -> tuple[list[dict], list[str]]:
    """Load span files; a missing file (a killed process) is reported."""
    records, problems = [], []
    for path in paths:
        try:
            with open(path, encoding="utf-8") as fh:
                records.append(json.load(fh))
        except (OSError, ValueError) as exc:
            problems.append(f"no spans from {os.path.basename(path)}: {exc}")
    return records, problems


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(records: list[dict], window: tuple[float, float]) -> dict[str, float]:
    """Per-layer metrics of one pass over ``window`` (its start and end),
    without ``trace.overhead``, which needs the untraced passes."""
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    fail_s = 0.0
    positions: list[float] = []
    roots = []
    for rec in records:
        # A span left open (its process failed before main returned) is dropped.
        closed = [(i, s) for i, s in enumerate(rec["spans"]) if s[2] is not None]
        child_s = defaultdict(float)
        for _, (_, start, end, parent) in closed:
            if parent is not None:
                child_s[parent] += end - start
        failed = set(rec["failed_verify_spans"])
        for i, (name, start, end, parent) in closed:
            self_s[name] += end - start - child_s[i]
            incl_s[name] += end - start
            calls[name] += 1
            if parent is None:
                roots.append((start, end))
            if i in failed:
                fail_s += end - start
        for key, value in rec["counts"].items():
            counts[key] += value
        positions.extend(rec["witness_positions"])
    pass_s = window[1] - window[0]
    out = {
        "cli.import_s": self_s["cli.import"],
        "cli.self_s": self_s["cli.main"],
        "cli.read_input_s": self_s["cli._read_input"],
    }
    for module, names in WRAPPED.items():
        if module != "cli":
            out.update({f"{module}.{n}.s": self_s[f"{module}.{n}"] for n in names})
    parse_s = sum(incl_s[f"io.{n}"] for n in WRAPPED["io"] if n.startswith("parse_"))
    ser_s = sum(incl_s[f"io.{n}"] for n in WRAPPED["io"] if n.startswith("serialize_"))
    out.update({
        "io.parsed_bytes": counts["io.parsed_bytes"],
        "io.serialized_bytes": counts["io.serialized_bytes"],
        "io.parse_MBps": _ratio(counts["io.parsed_bytes"] / 1e6, parse_s),
        "io.serialize_MBps": _ratio(counts["io.serialized_bytes"] / 1e6, ser_s),
        "netverify.verify_net.calls": calls["netverify.verify_net"],
        "netverify.row_shapes": counts["netverify.row_shapes"],
        "netverify.row_shapes_per_s": _ratio(counts["netverify.row_shapes"],
                                             incl_s["netverify.verify_net"]),
        "netverify.fail.s": fail_s,
        "netverify.witness_pos": _ratio(sum(positions), len(positions)),
        "oa.row_subsets": counts["oa.row_subsets"],
        "ooa.row_profiles": counts["ooa.row_profiles"],
        "ooa.row_profiles_per_s": _ratio(counts["ooa.row_profiles"], incl_s["ooa.verify_mooa"]),
        "dualcert.members": counts["dualcert.members"],
        "dualcert.pairs": counts["dualcert.pairs"],
        "dualcert.pairs_per_s": _ratio(counts["dualcert.pairs"],
                                       incl_s["dualcert.gram_certificate"]),
        "corpus.construct.s": sum(self_s[n] for n in CONSTRUCT),
        "corpus.search_nodes": counts["corpus.search_nodes"],
        "corpus.search_nodes_per_s": _ratio(counts["corpus.search_nodes"],
                                            incl_s["corpus.search_net"]),
    })
    for module in MODULES:
        own = sum(v for k, v in self_s.items()
                  if k.startswith(module + ".") and k != "cli._read_input")
        out[f"{module}.share"] = _ratio(own, pass_s)
    out["trace.unaccounted_s"] = pass_s - _union_length(roots, *window)
    return out


def construct_s(records: list[dict]) -> float:
    """Self time in the point-set constructors over a set of span files."""
    return aggregate(records, (0.0, 0.0))["corpus.construct.s"]
