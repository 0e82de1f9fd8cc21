"""Command-line interface.

Exit codes: 0 pass/success, 1 verification failed (witness printed),
2 usage error, 3 file format error, 4 search inconclusive.

Each subcommand imports the modules it uses when it runs, so a process loads
only those: ``rao``, ``feasible`` and ``--help`` never load numpy, and a run
without ``--json`` never loads ``json``. A ``gen search`` loads the writer
and the verifier only for a net it found.

A subcommand that reads or writes a text file imports ``io``, the largest
module, before any module that loads numpy. Without cached bytecode a module
is compiled as it is imported, and the heap its compile used stays resident
once numpy's allocations sit above it; compiled first, ``io`` leaves that
heap for numpy to reuse: up to 1.1 MB of peak RSS per process (Python 3.11).

``main`` pins OpenBLAS to one thread (``OPENBLAS_NUM_THREADS=1``) unless the
variable is already set. Every matrix product here is on integer arrays,
which numpy multiplies in its own loop, so BLAS never gets work; a one-thread
pool makes importing numpy faster. A program that imports evnets as a library
keeps its own BLAS settings.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import FormatError, ParamError, VerificationError
from .evector import EVector

__all__ = ["main", "entry"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INCONCLUSIVE = 4


# The most entries an --e argument expands to: a report's at most 4095 row-count
# conditions. ``feasible`` at the cap takes 0.3-0.8 s as a process on 2 vCPUs.
_E_ENTRIES = 1 << 12


class _Refused(Exception):
    """A usage error that ``main`` prints as one line: argparse would reword a
    ValueError from an argument's type as its usage message."""


def evector_arg(text: str) -> tuple[int, ...]:
    """Parse an e-vector argument: '1,1,2' or the shorthand '1x2,2' (value x
    repeat), of at most ``_E_ENTRIES`` entries, counted before any is built."""
    parts: list[tuple[int, int]] = []
    for part in text.split(","):
        value, x, repeat = part.strip().partition("x")
        count = int(repeat) if x else 1
        if count < 1:
            raise ValueError(f"repeat count must be >= 1, got {repeat!r}")
        parts.append((int(value), count))
    if sum(count for _, count in parts) > _E_ENTRIES:
        raise _Refused(f"argument --e: expands to more than {_E_ENTRIES} entries")
    return tuple(value for value, count in parts for _ in range(count))


def int_list_arg(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(","))


def _parse(parse, path: str, *args):
    """``parse(stream, *args)`` on the binary stream of a file ('-': standard
    input), line ends untranslated: the parsers read UTF-8 whatever the
    locale, and name a byte that is not UTF-8 in a format error. Standard
    input is read to its end even then, so a stage piping into it finishes."""
    if path != "-":
        with open(path, "rb") as fh:
            return parse(fh, *args)
    try:
        return parse(sys.stdin.buffer, *args)
    except FormatError:
        while sys.stdin.buffer.read(1 << 16):
            pass
        raise


def _write_output(args, chunks) -> None:
    """Write byte chunks to --out or, after any text printed, to standard
    output. A call that raises before its chunks exist opens no file."""
    out = getattr(args, "out", "-") or "-"
    if out == "-":
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        with open(out, "wb") as fh:
            fh.writelines(chunks)


def _emit_json(obj) -> None:
    import json  # here, so a run without --json never loads it
    print(json.dumps(obj, indent=2))


def _fmt_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return "(" + ", ".join(str(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + _fmt_witness(value) + "}"
    return str(value)


def _fmt_witness(witness: dict) -> str:
    return " ".join(f"{k}={_fmt_value(v)}" for k, v in witness.items())


def _verdict(args, name: str, verdict, fields: dict, context: str, extra: str) -> int:
    """Print a verdict and return its exit code.

    With --json: ``{"pass", **fields, "witness"}``. Otherwise one line,
    ``NAME: PASS (context, extra)`` or ``NAME: FAIL <witness> (context)``.
    """
    witness = dict(verdict.witness) if verdict.witness else None
    if args.json:
        _emit_json({"pass": verdict.passed, **fields, "witness": witness})
    elif verdict:
        print(f"{name}: PASS ({context}, {extra})")
    else:
        print(f"{name}: FAIL {_fmt_witness(witness)} ({context})")
    return EXIT_PASS if verdict else EXIT_FAIL


# ---------------------------------------------------------------- generators

# The flags each generator reads besides --base, --m and --out; gen refuses
# the others rather than write a file that ignored them.
_GEN_FLAGS = {"grid": (), "hammersley": (), "faure": ("s",), "random": ("s", "seed"),
              "search": ("s", "e", "u", "node_limit")}


def cmd_gen(args) -> int:
    kind = args.kind
    for flag in ("s", "seed", "e", "u", "node_limit"):
        if getattr(args, flag) is not None and flag not in _GEN_FLAGS[kind]:
            raise ParamError(f"gen {kind} does not take --{flag.replace('_', '-')}")
    if kind != "search":
        from . import io as formats  # before corpus loads numpy: see the docstring
    from . import corpus

    if kind == "grid":
        points = corpus.grid_1d(args.base, args.m)
        u, e = 0, (1,)
    elif kind == "hammersley":
        points = corpus.hammersley(args.base, args.m)
        u, e = 0, (1, 1)
    elif kind == "faure":
        if args.s is None:
            raise ParamError("gen faure needs --s")
        points = corpus.faure(args.base, args.m, args.s)
        u, e = 0, (1,) * args.s
    elif kind == "random":
        if args.s is None:
            raise ParamError("gen random needs --s")
        points = corpus.random_pointset(args.base, args.m, args.s,
                                        0 if args.seed is None else args.seed)
        u, e = args.m, (1,) * args.s
    elif kind == "search":
        if args.s is None or args.e is None or args.u is None:
            raise ParamError("gen search needs --s, --e and --u")
        result = corpus.search_net(args.base, args.m, args.e, args.s, args.u,
                                   args.node_limit)
        if result.status == "inconclusive":
            print(f"search: INCONCLUSIVE after {result.nodes} nodes", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        if result.status == "nonexistent":
            print(f"search: NONEXISTENT (space exhausted after {result.nodes} nodes)",
                  file=sys.stderr)
            return EXIT_FAIL
        points, u, e = result.net, args.u, args.e
    else:  # pragma: no cover - argparse restricts choices
        raise ParamError(f"unknown generator {kind!r}")
    from . import io as formats

    _write_output(args, formats.net_chunks(points, u, e))
    return EXIT_PASS


# -------------------------------------------------------------- net checking

def _load_net(args) -> tuple:
    from . import io as formats

    net = _parse(formats.parse_net, args.file)
    u = args.u if args.u is not None else net.u
    e = EVector.coerce(args.e) if args.e is not None else net.e
    return net.points, u, e


def cmd_verify_net(args) -> int:
    points, u, e = _load_net(args)
    from . import netverify

    verdict = netverify.verify_net(points, u, e, args.variant)
    n_shapes = len(netverify.check_shapes(points.precision, u, e, args.variant))
    # "mode=maximal" states which shapes were checked; the output format keeps it
    return _verdict(args, "verify-net", verdict,
                    {"variant": args.variant, "checked_shapes": n_shapes},
                    f"variant={args.variant}, mode=maximal, u={u}", f"shapes={n_shapes}")


def cmd_verify_seq(args) -> int:
    points, u, e = _load_net(args)
    from . import netverify

    m_max = args.m_max if args.m_max is not None else points.precision
    verdict = netverify.verify_sequence_prefix(points, u, e, m_max)
    return _verdict(args, "verify-seq", verdict,
                    {"u": u, "m_max": m_max, "points": points.count},
                    f"u={u}, m_max={m_max}", f"points={points.count}")


# --------------------------------------------------------------- array views

def cmd_to_moa(args) -> int:
    from . import io as formats, oa
    from .core import MixedOA

    net = _parse(formats.parse_net, args.file)
    e = EVector.coerce(args.e) if args.e is not None else net.e
    array = oa.net_to_moa(net.points, e)
    _write_output(args, formats.moa_chunks(MixedOA(array.alphabets, array.rows,
                                                   strength=oa.max_strength(array))))
    return EXIT_PASS


def cmd_verify_moa(args) -> int:
    from . import io as formats, oa

    array = _parse(formats.parse_moa, args.file)
    t = args.t if args.t is not None else array.strength
    verdict = oa.verify_moa(array, t)
    return _verdict(args, "verify-moa", verdict, {"t": t},
                    f"t={t}", f"runs={array.runs}, k={array.k}")


def cmd_to_mooa(args) -> int:
    from . import io as formats, ooa

    points, u, e = _load_net(args)
    array = ooa.net_to_mooa(points, u, e, args.beta)
    _write_output(args, formats.mooa_chunks(array))
    return EXIT_PASS


def cmd_verify_mooa(args) -> int:
    from . import io as formats, ooa
    from ._util import maximal_depths

    array = _parse(formats.parse_mooa, args.file)
    verdict = ooa.verify_mooa(array)
    n_profiles = len(maximal_depths(array.m - array.u, array.e.e, array.beta))
    return _verdict(args, "verify-mooa", verdict,
                    {"mode": "maximal", "checked_profiles": n_profiles},
                    "mode=maximal", f"profiles={n_profiles}, strength={array.m - array.u}")


def cmd_from_mooa(args) -> int:
    from . import io as formats, ooa

    array = _parse(formats.parse_mooa, args.file)
    points = ooa.mooa_to_net(array)
    _write_output(args, formats.net_chunks(points, array.u, array.e))
    return EXIT_PASS


# ------------------------------------------------------------------- bounds

def cmd_rao(args) -> int:
    from . import bounds

    condition = bounds.net_rao_check(args.base, args.m, args.e, args.t)
    out = condition.to_json()
    if args.json:
        out["pass"] = condition.satisfied
        _emit_json(out)
    else:
        status = ("VIOLATED" if not condition.satisfied
                  else ("SATISFIED" if condition.applicable else "NOT APPLICABLE"))
        rel = ">" if condition.lhs > condition.rhs else "<="
        print(f"rao: {status} {condition.name} LHS {out['lhs']} {rel} "
              f"RHS {out['rhs']} (base={args.base}, m={args.m}, "
              f"e={_fmt_value(args.e)}, threshold m>={out['detail']['m_threshold']})")
    return EXIT_PASS if condition.satisfied else EXIT_FAIL


def cmd_feasible(args) -> int:
    from . import bounds

    report = bounds.feasibility_report(args.base, args.m, args.e, args.target)
    out = report.to_json()  # before any output: it refuses integers too long to write
    if args.json:
        _emit_json(out)
    else:
        for c, written in zip(report.conditions, out["conditions"]):
            status = ("satisfied" if c.satisfied else "VIOLATED") if c.applicable \
                else "not applicable"
            print(f"  {c.name}: {status} (LHS {written['lhs']}, RHS {written['rhs']})")
        verdict = "FEASIBLE" if report.feasible else "INFEASIBLE"
        print(f"feasible: {verdict} (base={args.base}, m={args.m}, "
              f"e={_fmt_value(report.e)}, target={args.target}, "
              f"conditions={len(report.conditions)})")
    return EXIT_PASS if report.feasible else EXIT_FAIL


# ------------------------------------------------------------- dual witness

def cmd_dual_cert(args) -> int:
    if (args.kappa is None) == (args.tuples is None):
        raise ParamError("dual-cert needs exactly one of --kappa or --tuples")
    if args.tuples == "-" == args.file:
        raise ParamError("dual-cert cannot read both the array and --tuples "
                         "from standard input")
    from . import io as formats, dualcert

    array = _parse(formats.parse_mooa, args.file)
    if args.kappa is not None:
        family = dualcert.build_block_family(array, args.kappa)
        source = f"kappa={_fmt_value(args.kappa)}"
    else:
        family = _parse(formats.parse_function_tuples, args.tuples, array)
        source = f"tuples={len(family)}"
    verdict = dualcert.gram_certificate(array, family)
    bound = array.base ** array.m
    return _verdict(args, "dual-cert", verdict, {"family_size": len(family), "row_bound": bound},
                    source, f"family={len(family)} <= b^m={bound}")


# -------------------------------------------------------------------- report

def cmd_report(args) -> int:
    from . import bounds, io as formats, netverify, oa, ooa
    from .core import Verdict

    net = _parse(formats.parse_net, args.file)
    points, u, e = net.points, net.u, net.e
    b, m, s = points.base, points.precision, points.dim
    star = netverify.u_star(points, e, args.variant)
    # a narrow pass at u_star holds at every larger u; tezuka is not monotone in u
    verdict = (Verdict(True) if args.variant == "narrow" and u >= star
               else netverify.verify_net(points, u, e, args.variant))
    array = oa.net_to_moa(points, e) if m >= max(e) else None
    strength = oa.max_strength(array) if array is not None else None
    mooa_ok = beta = None
    if m >= star + max(e):
        # verify-mooa's verdict on the canonical array: the narrow check at
        # u_star, which a narrow u_star passes by definition
        beta = ooa.canonical_beta(m, star, e)
        mooa_ok = args.variant == "narrow" or bool(netverify.verify_net(points, star, e))
    feas = bounds.feasibility_report(b, m, e, "net")
    if args.json:
        _emit_json({
            "base": b, "m": m, "s": s, "points": points.count,
            "claimed_u": u, "e": list(e.e), "variant": args.variant,
            "verify_at_claimed_u": verdict.passed,
            "witness": dict(verdict.witness) if verdict.witness else None,
            "u_star": star,
            "moa": None if array is None else
                {"alphabets": list(array.alphabets), "max_strength": strength},
            "mooa_at_u_star": None if mooa_ok is None else
                {"pass": mooa_ok, "beta": list(beta)},
            "feasibility": feas.to_json(),
        })
    else:
        print(f"report: base={b} m={m} s={s} points={points.count}")
        print(f"  claimed: u={u} e={_fmt_value(e.e)}")
        print(f"  verify-net({args.variant}) at claimed u: "
              f"{'PASS' if verdict else 'FAIL ' + _fmt_witness(dict(verdict.witness))}")
        print(f"  u_star({args.variant}): {star}")
        if array is not None:
            print(f"  moa: alphabets={_fmt_value(array.alphabets)} "
                  f"max_strength={strength}")
        if mooa_ok is not None:
            print(f"  mooa at u={star}: beta={_fmt_value(beta)} "
                  f"{'PASS' if mooa_ok else 'FAIL'}")
        print(f"  feasibility(net): "
              f"{'feasible' if feas.feasible else 'INFEASIBLE'} "
              f"({len(feas.conditions)} conditions)")
    return EXIT_PASS


# -------------------------------------------------------------------- parser

def _add_io_flags(p: argparse.ArgumentParser, output: bool = False) -> None:
    p.add_argument("file", nargs="?", default="-",
                   help="input file ('-' or omitted reads standard input)")
    if output:
        p.add_argument("--out", default="-",
                       help="output file ('-' or omitted writes standard output)")


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", action="store_true", help="machine-readable report")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evnets",
        description="Digit-exact nets, mixed (ordered) orthogonal arrays, and bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a point set as a NET file")
    p.add_argument("kind", choices=["grid", "hammersley", "faure", "random", "search"])
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, help="random only (default: 0)")
    p.add_argument("--e", type=evector_arg, default=None)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("verify-net", help="check the quality-u box property")
    _add_io_flags(p)
    p.add_argument("--u", type=int, default=None, help="override the file's claimed u")
    p.add_argument("--e", type=evector_arg, default=None,
                   help="override the file's e-vector (supports 1x3,2x2 shorthand)")
    p.add_argument("--variant", choices=["narrow", "tezuka"], default="narrow")
    _add_json(p)
    p.set_defaults(func=cmd_verify_net)

    p = sub.add_parser("verify-seq", help="check all complete blocks of a prefix")
    _add_io_flags(p)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--e", type=evector_arg, default=None)
    p.add_argument("--m-max", type=int, default=None)
    _add_json(p)
    p.set_defaults(func=cmd_verify_seq)

    p = sub.add_parser("to-moa", help="leading-digit columns as a MOA file")
    _add_io_flags(p, output=True)
    p.add_argument("--e", type=evector_arg, default=None)
    p.set_defaults(func=cmd_to_moa)

    p = sub.add_parser("verify-moa", help="check mixed-array strength")
    _add_io_flags(p)
    p.add_argument("--t", type=int, default=None, help="strength (default: file header)")
    _add_json(p)
    p.set_defaults(func=cmd_verify_moa)

    p = sub.add_parser("to-mooa", help="digit blocks as a MOOA file")
    _add_io_flags(p, output=True)
    p.add_argument("--u", type=int, default=None)
    p.add_argument("--e", type=evector_arg, default=None)
    p.add_argument("--beta", type=int_list_arg, default=None,
                   help="columns per block (default: canonical)")
    p.set_defaults(func=cmd_to_mooa)

    p = sub.add_parser("verify-mooa", help="check ordered-array strength profiles")
    _add_io_flags(p)
    _add_json(p)
    p.set_defaults(func=cmd_verify_mooa)

    p = sub.add_parser("from-mooa", help="rebuild the NET file of a canonical MOOA")
    _add_io_flags(p, output=True)
    p.set_defaults(func=cmd_from_mooa)

    p = sub.add_parser("rao", help="row-count bound for net parameters")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=evector_arg, required=True)
    p.add_argument("--t", type=int, required=True, help="strength, 2 <= T <= s")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_rao)

    p = sub.add_parser("feasible", help="all necessary conditions for parameters")
    p.add_argument("--base", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--e", type=evector_arg, required=True)
    p.add_argument("--target", choices=["net", "sequence"], default="net")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("dual-cert", help="Gram identity for a character family")
    _add_io_flags(p)
    p.add_argument("--kappa", type=int_list_arg, default=None,
                   help="depth profile generating the block family")
    p.add_argument("--tuples", default=None,
                   help="file of residue tuples, one per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dual_cert)

    p = sub.add_parser("report", help="full diagnostic for a NET file")
    _add_io_flags(p)
    p.add_argument("--variant", choices=["narrow", "tezuka"], default="narrow")
    _add_json(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    # Safe while no matrix product reaches BLAS (all are on integer arrays);
    # early enough because numpy reads it on import and no subcommand has
    # imported numpy yet.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except (ParamError, _Refused, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:  # pragma: no cover - thin console-script wrapper
    sys.exit(main())
