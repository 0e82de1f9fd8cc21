"""Span recorder that runs inside one traced CLI process.

The recorder replaces the public functions listed in ``WRAPPED`` with
wrappers that record a span (name, start, end, parent) per call, keeps the
spans in memory and writes them, with the counts derived from the calls, to
one JSON file when the process's ``main`` returns. Nothing in ``src/`` is
changed: the wrappers are installed by rebinding module attributes in the
child process only. A listed name that no longer exists is reported as
absent instead of failing the job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
import threading
import time

# Entry points per layer, as the per-layer metrics name them: each layer's
# public functions, plus the CLI's input reader, whose span in a pipeline
# stage is mostly the wait for the stage before it.
WRAPPED = {
    "cli": ("_read_input",),
    "io": ("parse_net", "serialize_net", "parse_mooa", "serialize_mooa",
           "parse_moa", "serialize_moa"),
    "netverify": ("verify_net", "u_star", "check_shapes"),
    "oa": ("net_to_moa", "max_strength", "verify_moa"),
    "ooa": ("net_to_mooa", "verify_mooa", "mooa_to_net", "enumerate_profiles"),
    "dualcert": ("build_block_family", "gram_certificate"),
    "bounds": ("feasibility_report", "net_rao_check"),
    "corpus": ("faure", "hammersley", "random_pointset", "search_net"),
}


def _evector(e) -> list[int]:
    return [int(v) for v in e]


def _parse_info(args, result):
    return {"bytes": len(args["text"])}


def _serialize_info(args, result):
    return {"bytes": len(result)}


def _verify_net_info(args, result):
    points = args["points"]
    return {"n": points.count, "m": points.precision, "u": int(args["u"]),
            "e": _evector(args["e"]), "variant": args["variant"], "mode": args["mode"],
            "witness_shape": None if result else [int(d) for d in result.witness["shape"]]}


def _verify_mooa_info(args, result):
    array = args["array"]
    return {"runs": array.runs, "m": array.m, "u": array.u, "e": _evector(array.e),
            "beta": list(array.beta), "mode": args["mode"]}


def _verify_moa_info(args, result):
    array, t = args["array"], int(args["t"])
    return {"row_subsets": array.runs * math.comb(array.k, t) if t else 0}


def _gram_info(args, result):
    return {"members": len(args["family"])}


def _search_info(args, result):
    return {"nodes": int(result.nodes)}


# What each wrapped call contributes to the counts, read after its span ends.
HOOKS = {
    **{f"io.parse_{f}": _parse_info for f in ("net", "moa", "mooa")},
    **{f"io.serialize_{f}": _serialize_info for f in ("net", "moa", "mooa")},
    "netverify.verify_net": _verify_net_info,
    "ooa.verify_mooa": _verify_mooa_info,
    "oa.verify_moa": _verify_moa_info,
    "dualcert.gram_certificate": _gram_info,
    "corpus.search_net": _search_info,
}


class Recorder:
    """Spans of one process; span 0 covers the import of ``evnets.cli``."""

    def __init__(self, job: str, start: float):
        self.job = job
        self.spans: list[list] = [["cli.import", start, None, None]]
        self.infos: dict[int, dict] = {}
        self.absent: list[str] = []
        self.hook_errors: list[str] = []
        self.originals: dict[str, object] = {}
        self._local = threading.local()

    def imported(self) -> None:
        self.spans[0][2] = time.perf_counter()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                try:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    self.infos[idx] = hook(bound.arguments, result)
                except Exception as exc:  # a changed signature must not fail the job
                    self.hook_errors.append(f"{name}: {exc!r}")
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every listed function and rebind each evnets reference to it."""
        replace = {}
        for module_name, names in WRAPPED.items():
            try:
                module = importlib.import_module(f"evnets.{module_name}")
            except ImportError:
                self.absent.extend(f"{module_name}.{n}" for n in names)
                continue
            for n in names:
                fn = getattr(module, n, None)
                if not callable(fn):
                    self.absent.append(f"{module_name}.{n}")
                    continue
                self.originals[f"{module_name}.{n}"] = fn
                replace[id(fn)] = (fn, self._wrap(f"{module_name}.{n}", fn))
        # Modules that did `from .netverify import verify_net` hold their own
        # reference, so rebind by identity in every loaded evnets module.
        for module_name, module in list(sys.modules.items()):
            if module_name != "evnets" and not module_name.startswith("evnets."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def call_main(self, main, argv):
        return self._wrap("cli.main", main)(argv)

    def _counts(self) -> tuple[dict[str, int], list[float], list[int]]:
        """Counts over all calls, the witness position of each failing
        verify_net call, and the spans of those calls."""
        counts: dict[str, int] = {}
        positions: list[float] = []
        failed: list[int] = []

        def add(key, value):
            counts[key] = counts.get(key, 0) + int(value)

        for idx, info in self.infos.items():
            name = self.spans[idx][0]
            if name.startswith("io.parse_"):
                add("io.parsed_bytes", info["bytes"])
            elif name.startswith("io.serialize_"):
                add("io.serialized_bytes", info["bytes"])
            elif name == "netverify.verify_net":
                if info["witness_shape"] is not None:
                    failed.append(idx)
                if "netverify.check_shapes" not in self.originals:
                    continue
                shapes = self.originals["netverify.check_shapes"](
                    info["m"], info["u"], info["e"], info["variant"], info["mode"])
                add("netverify.row_shapes", info["n"] * len(shapes))
                if info["witness_shape"] is not None:
                    positions.append(shapes.index(tuple(info["witness_shape"])) / len(shapes))
            elif name == "ooa.verify_mooa" and "ooa.enumerate_profiles" in self.originals:
                profiles = self.originals["ooa.enumerate_profiles"](
                    info["m"], info["u"], info["e"], info["beta"], info["mode"])
                add("ooa.row_profiles", info["runs"] * len(profiles))
            elif name == "oa.verify_moa":
                add("oa.row_subsets", info["row_subsets"])
            elif name == "dualcert.gram_certificate":
                add("dualcert.members", info["members"])
                add("dualcert.pairs", math.comb(info["members"], 2))
            elif name == "corpus.search_net":
                add("corpus.search_nodes", info["nodes"])
        return counts, positions, failed

    def dump(self, path: str) -> None:
        try:
            counts, positions, failed = self._counts()
        except Exception as exc:
            counts, positions, failed = {}, [], []
            self.hook_errors.append(f"counts: {exc!r}")
        record = {"job": self.job, "absent": self.absent, "hook_errors": self.hook_errors,
                  "spans": self.spans, "counts": counts, "witness_positions": positions,
                  "failed_verify_spans": failed}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
