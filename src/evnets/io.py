"""Canonical text formats for point sets and mixed (ordered) arrays.

All three formats are line-oriented, UTF-8, LF-terminated, and are read
and written as bytes. Parsing then writing normalizes whitespace; writing
then parsing is the identity.

NET v1 ::

    NET v1
    base <b> m <m> s <s> u <u>
    e <e1> ... <es>
    <one point per line: s digit strings of length m>

MOA v1 ::

    MOA v1
    N <N> k <k> t <t>
    l <l1> ... <lk>
    <N rows of k integers>

MOOA v1 ::

    MOOA v1
    base <b> m <m> s <s> u <u>
    e <e1> ... <es>
    beta <b1> ... <bs>
    <b**m rows of sum(beta) integers>

Digit characters are 0-9 then A-Z, so NET files support bases up to 36.

Body grammar (every line after the header, and residue-tuple files): a line
ends at LF; its tokens are separated by runs of the ASCII whitespace
characters TAB, LF, VT, FF, CR, 0x1C-0x1F and space. A NET token is exactly
m characters from 0-9A-Z, each below the base. A MOA/MOOA entry is 1 to 19
ASCII digits 0-9 (leading zeros allowed) below its column's alphabet, and
MOA alphabets are below 2**63. Signs, underscores, non-ASCII digits and
non-ASCII whitespace are errors in a body. Header lines are split on any
whitespace and their integers read by ``int``. A byte that is not UTF-8
is decoded as the lone surrogate ``surrogateescape`` makes of it, and an
error message names it as the byte ``\\xNN``.

The parsers read a binary stream (or bytes, as ``BytesIO``) a chunk of
whole lines of about ``_CHUNK_BYTES`` at a time, never the whole file. A
chunk in the layout the serialisers write is read by reshaping its bytes
(``_canonical``): NET lines of s*(m+1) bytes (m-digit strings, single
spaces, a final LF), and integer lines of 2k bytes, every entry one digit.
Any other chunk is tokenised by the grammar above, with the same values. A wrong row count,
then the first rejected line, is explained by its number and the same
message a line-by-line reading would give.

Bodies are written in such chunks too: ``net_chunks``, ``moa_chunks`` and
``mooa_chunks`` yield the header and then the body's chunks, as bytes, so a
writer holds one chunk of text and not the file.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from io import BytesIO, TextIOBase
from typing import BinaryIO, Iterator

import numpy as np

from ._util import digit_dtype
from .core import EVector, MixedOA, MixedOOA, PointSet
from .errors import FormatError, ParamError

__all__ = [
    "DIGIT_CHARS", "NetFile",
    "parse_net", "net_chunks",
    "parse_moa", "moa_chunks",
    "parse_mooa", "mooa_chunks",
    "parse_function_tuples",
]

DIGIT_CHARS = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZ"
_DIGIT_CODES = np.frombuffer(DIGIT_CHARS.encode(), dtype=np.uint8)
_DIGIT_OF_BYTE = np.full(256, 255, dtype=np.uint8)
_DIGIT_OF_BYTE[_DIGIT_CODES] = np.arange(len(DIGIT_CHARS))

# Whitespace is the ASCII characters str.split() treats as whitespace.
_IN_TOKEN = np.ones(256, dtype=bool)
_IN_TOKEN[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = False
_IS_OTHER = _IN_TOKEN.copy()  # neither whitespace nor a decimal digit
_IS_OTHER[48:58] = False
_TOKEN = re.compile(r"[^\t\n\v\f\r\x1c-\x1f ]+")
_ENTRY_DIGITS = 19  # any 19-digit value fits in uint64
_ENTRY = re.compile(f"[0-9]{{1,{_ENTRY_DIGITS}}}")
_CHUNK_BYTES = 1 << 18
# repr() writes a backslash as two and U+DCxx as \udcxx, so matching its
# escapes left to right never starts inside another escape.
_SURROGATE_ESCAPE = re.compile(r"\\(?:\\|udc([89a-f][0-9a-f]))")


@dataclass(frozen=True)
class NetFile:
    """A parsed NET file: the points plus the claimed quality parameters."""

    points: PointSet
    u: int
    e: EVector


def _quote(text: str) -> str:
    """``repr(text)``, except that a byte that was not UTF-8, which
    ``surrogateescape`` decoding holds as U+DC80-U+DCFF, is shown as the byte
    ``\\xNN`` the input held."""
    return _SURROGATE_ESCAPE.sub(lambda mt: "\\x" + mt[1] if mt[1] else mt[0], repr(text))


def _head(data: bytes | BinaryIO, count: int, reader: str) -> tuple[list[str], BinaryIO]:
    """The first ``count`` lines of a binary stream or of bytes (fewer if it
    has fewer) as text, and the stream at the body. ``reader`` names the
    parser in the error for input that is neither."""
    if isinstance(data, (bytes, bytearray)):
        data = BytesIO(data)
    elif isinstance(data, (str, TextIOBase)) or not hasattr(data, "readline"):
        raise TypeError(f"{reader} reads bytes, got {type(data).__name__}")
    lines = [data.readline() for _ in range(count)]  # b"" once past the end
    return [l.removesuffix(b"\n").decode("utf-8", "surrogateescape") for l in lines if l], data


def _need_line(lines: list[str], idx: int, what: str) -> str:
    if idx >= len(lines):
        raise FormatError(f"missing {what}", line=idx + 1)
    return lines[idx]


def _int_token(tok: str, what: str, line: int) -> int:
    try:
        return int(tok, 10)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {_quote(tok)}", line=line) from None


def _keyword_header(line: str, keys: tuple[str, ...], lineno: int) -> list[int]:
    toks = line.split()
    if len(toks) != 2 * len(keys) or tuple(toks[0::2]) != keys:
        raise FormatError(
            f"expected header '{' '.join(k + ' <' + k + '>' for k in keys)}', "
            f"got {_quote(line)}",
            line=lineno)
    return [_int_token(toks[2 * j + 1], keys[j], lineno) for j in range(len(keys))]


def _vector_line(line: str, key: str, count: int, lineno: int) -> list[int]:
    toks = line.split()
    if not toks or toks[0] != key:
        raise FormatError(f"expected '{key} ...' line, got {_quote(line)}", line=lineno)
    if len(toks) != count + 1:
        raise FormatError(f"expected {count} values after '{key}', got {len(toks) - 1}",
                          line=lineno)
    return [_int_token(t, key, lineno) for t in toks[1:]]


@dataclass(frozen=True)
class _Chunk:
    """Whole body lines, tokenised: byte offsets are relative to ``buf``."""

    buf: np.ndarray       # uint8 bytes, ending in LF
    in_token: np.ndarray  # bool per byte
    starts: np.ndarray    # token start offsets
    ends: np.ndarray      # token end offsets (exclusive)
    newlines: np.ndarray  # LF offsets, one per line
    counts: np.ndarray    # tokens per line

    def first_bad_line(self, lines: np.ndarray, tokens: np.ndarray,
                       bytes_: np.ndarray) -> int | None:
        """Smallest line index flagged by a bool mask per line, token or byte."""
        if not (lines.any() or tokens.any() or bytes_.any()):
            return None
        offsets = np.concatenate([self.starts[tokens][:1], np.flatnonzero(bytes_)[:1]])
        return min(np.flatnonzero(lines)[:1].tolist()
                   + np.searchsorted(self.newlines, offsets).tolist())

    def text(self, i: int) -> str:
        lo = int(self.newlines[i - 1]) + 1 if i else 0
        return self.buf[lo : self.newlines[i]].tobytes().decode("utf-8", "surrogateescape")


def _body(stream: BinaryIO) -> Iterator[bytes]:
    """The rest of ``stream`` in runs of whole lines: ``_CHUNK_BYTES`` bytes
    and the rest of the line they end in. A last line without an LF gets one."""
    while block := stream.read(_CHUNK_BYTES):
        if not block.endswith(b"\n"):
            block += stream.readline()
        yield block if block.endswith(b"\n") else block + b"\n"


def _store(out: np.ndarray, at: int, values: np.ndarray, cap: int | float) -> None:
    """Write ``values`` to rows ``at:`` of ``out``, first doubling its rows in
    place as they need, to no more than ``cap`` rows while ``cap`` holds them."""
    need = at + len(values)
    if need > len(out):
        rows = max(need, 2 * len(out))
        out.resize((rows if need > cap else min(rows, cap),) + out.shape[1:], refcheck=False)
    out[at:need] = values


def _tokenise(buf: np.ndarray) -> _Chunk:
    """The tokens and lines of a run of whole lines."""
    in_token = _IN_TOKEN[buf]
    edges = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    newlines = np.flatnonzero(buf == 10)
    counts = np.diff(np.searchsorted(starts, newlines), prepend=0)
    return _Chunk(buf, in_token, starts, ends, newlines, counts)


def _canonical(buf: np.ndarray, count: int, width: int,
               limits: int | np.ndarray) -> np.ndarray | None:
    """The (lines, count, width) values of a run of whole lines in the
    canonical layout the serialisers write, or None if any line is not in it:
    every line is ``count`` fields of ``width`` digit bytes, each followed by
    one space, the last by the LF, and every digit is below ``limits``, which
    broadcasts against the fields (a NET base, or an integer body's per-column
    limits of at most 10)."""
    if not count or not width or buf.size % (count * (width + 1)):
        return None
    lines = buf.reshape(-1, count, width + 1)
    gaps = lines[:, :, width]  # a space after each field, an LF after the last
    if (gaps[:, :-1] != ord(" ")).any() or (gaps[:, -1] != ord("\n")).any():
        return None
    fields = lines[:, :, :width]
    # a byte below '0' wraps high, so it is no digit below a limit <= 10 either
    values = fields - np.uint8(ord("0")) if np.max(limits) <= 10 else _DIGIT_OF_BYTE[fields]
    return values if (values < limits).all() else None


def _net_line_error(line: str, b: int, m: int, s: int) -> str:
    """Why a NET body line is rejected (the line must be bad)."""
    if m == 0:
        return f"expected blank point line for m=0, got {_quote(line)}"
    toks = _TOKEN.findall(line)
    if len(toks) != s:
        return f"expected {s} digit strings, got {len(toks)}"
    for tok in toks:
        if len(tok) != m:
            return f"digit string {_quote(tok)} has length {len(tok)}, expected {m}"
        for c in tok:
            if not 0 <= DIGIT_CHARS.find(c) < b:
                return f"character {_quote(c)} is not a base-{b} digit"
    raise AssertionError(f"NET line {line!r} has no error")


def _parse_digit_body(stream: BinaryIO, b: int, m: int, s: int) -> np.ndarray:
    """(N, s, m) digits of a NET body, one point per line."""
    k = s if m else 0  # points of m = 0 are blank lines
    cap = b ** min(m, 64)  # b**m points, or more than any body holds
    # The first good chunk shapes the array: no line of an m too large for
    # np.empty((0, s, m)) is good.
    digits, line = None, 0
    for block in _body(stream):
        buf = np.frombuffer(block, np.uint8)
        points = _canonical(buf, s, m, b)
        if points is None:
            c = _tokenise(buf)
            values = _DIGIT_OF_BYTE[c.buf]
            bad = c.first_bad_line(c.counts != k, c.ends - c.starts != m,
                                   c.in_token & (values >= b))
            if bad is not None:
                raise FormatError(_net_line_error(c.text(bad), b, m, s), line=4 + line + bad)
            points = values[c.in_token].reshape(c.newlines.size, s, m)
        if digits is None:
            digits = points.copy()  # owned, so it can grow in place
        else:
            _store(digits, line, points, cap)
        line += len(points)
    if digits is None:  # no point: the array is (0, s, m), if numpy can shape it
        if s * m > np.iinfo(np.intp).max:
            raise FormatError(f"s*m = {s * m} digits a point, more than an array holds", line=2)
        return np.empty((0, s, m), dtype=np.uint8)  # base <= 36
    digits.resize((line, s, m), refcheck=False)
    return digits


def _decimal_values(buf: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """uint64 value of each run of 1 to 19 ASCII digits ending before ``ends``."""
    values = (np.take(buf, ends - 1) - ord("0")).astype(np.uint64)
    for p in range(1, int(lengths.max(initial=0))):
        longer = np.flatnonzero(lengths > p)
        digit = buf[ends[longer] - 1 - p] - ord("0")
        values[longer] += digit.astype(np.uint64) * np.uint64(10 ** p)
    return values


def _int_line_error(line: str, widths: list[int], noun: str, nouns: str) -> str:
    """Why an integer body line is rejected (the line must be bad)."""
    toks = _TOKEN.findall(line)
    if len(toks) != len(widths):
        if not widths:
            return f"expected blank row for zero columns, got {_quote(line)}"
        return f"expected {len(widths)} {nouns}, got {len(toks)}"
    for j, (tok, width) in enumerate(zip(toks, widths)):
        if not _ENTRY.fullmatch(tok):
            return f"{noun} must be 1 to {_ENTRY_DIGITS} digits 0-9, got {_quote(tok)}"
        if int(tok) >= width:
            return f"{noun} {int(tok)} outside [0, {width}) in column {j}"
    raise AssertionError(f"integer line {line!r} has no error")


def _parse_int_body(stream: BinaryIO, widths: list[int], first_lineno: int,
                    n_rows: int | None = None, noun: str = "entry",
                    nouns: str = "entries") -> np.ndarray:
    """(rows, len(widths)) entries of an integer body, exactly ``n_rows`` rows
    unless None; column j lies in [0, widths[j]). A wrong row count comes
    before any bad line: after the first, the rest is only counted."""
    k = len(widths)
    rows = np.empty((0, k), dtype=digit_dtype(max(widths, default=0)))
    # no entry reaches 10**19, so a wider column is as good as unbounded
    limits = np.array([min(w, 10 ** _ENTRY_DIGITS) for w in widths], dtype=np.uint64)
    digit_limits = np.array([min(w, 10) for w in widths], dtype=np.uint8).reshape(k, 1)
    cap = float("inf") if n_rows is None else n_rows
    line, error = 0, None
    for block in _body(stream):
        lines = block.count(b"\n")
        if error is None and line + lines <= cap:
            buf = np.frombuffer(block, np.uint8)
            values = _canonical(buf, k, 1, digit_limits)
            if values is None:
                c = _tokenise(buf)
                lengths = c.ends - c.starts
                bad = c.first_bad_line(c.counts != k, lengths > _ENTRY_DIGITS, _IS_OTHER[c.buf])
                good = lines if bad is None else bad  # lines of k well-formed tokens
                values = _decimal_values(c.buf, c.ends[: good * k], lengths[: good * k])
                values = values.reshape(good, k)
                over = values >= limits
                if over.any():
                    bad = int(np.flatnonzero(over.any(axis=1))[0])
                if bad is not None:
                    error = FormatError(_int_line_error(c.text(bad), widths, noun, nouns),
                                        line=first_lineno + line + bad)
            if error is None:  # canonical values are (lines, k, 1)
                _store(rows, line, values.reshape(len(values), k), cap)
        line += lines
    if n_rows is not None and line != n_rows:
        raise FormatError(f"expected {n_rows} array rows, got {line}",
                          line=first_lineno + min(line, n_rows))
    if error is not None:
        raise error
    rows.resize((line, k), refcheck=False)
    return rows


def parse_net(data: bytes | BinaryIO) -> NetFile:
    """Parse a NET v1 file, as a binary stream or bytes. The number of points
    is the number of body lines."""
    lines, stream = _head(data, 3, "parse_net")
    if _need_line(lines, 0, "NET v1 magic line") != "NET v1":
        raise FormatError(f"expected 'NET v1', got {_quote(lines[0])}", line=1)
    b, m, s, u = _keyword_header(_need_line(lines, 1, "parameter header"),
                                 ("base", "m", "s", "u"), 2)
    if b < 2:
        raise FormatError(f"base must be >= 2, got {b}", line=2)
    if b > 36:
        raise FormatError(f"base {b} exceeds 36, not representable with digit characters",
                          line=2)
    if m < 0 or s < 1 or not 0 <= u <= m:
        raise FormatError(f"invalid parameters base={b} m={m} s={s} u={u}", line=2)
    evals = _vector_line(_need_line(lines, 2, "e-vector line"), "e", s, 3)
    if any(v < 1 for v in evals):
        raise FormatError(f"e-vector entries must be >= 1, got {evals}", line=3)
    digits = _parse_digit_body(stream, b, m, s)
    return NetFile(PointSet(b, digits), u, EVector(tuple(evals)))


def net_chunks(points: PointSet, u: int, e: EVector | tuple[int, ...]) -> Iterator[bytes]:
    """Canonical NET v1 bytes of a point set with its claimed (u, e), in
    chunks; the claims are checked before the iterator is returned."""
    e = EVector.coerce(e)
    b, m, s = points.base, points.precision, points.dim
    if b > 36:
        raise ParamError(f"base {b} exceeds 36, not representable with digit characters")
    if e.s != s:
        raise ParamError(f"e-vector has {e.s} entries, point set has {s} coordinates")
    if not 0 <= u <= m:
        raise ParamError(f"claimed u={u} outside [0, {m}]")
    return _digit_lines(f"NET v1\nbase {b} m {m} s {s} u {u}\n"
                        f"e {' '.join(str(v) for v in e)}\n", points.digits)


def _digit_lines(header: str, digits: np.ndarray) -> Iterator[bytes]:
    """The header, then one line per point: each coordinate's m digit
    characters plus its separator, a space or the LF ending the point. Only a
    chunk holding a letter digit is looked up (widening to intp); others add '0'."""
    yield header.encode("ascii")
    n, s, m = digits.shape
    step = max(1, _CHUNK_BYTES // (s * (m + 1)))
    for r in range(0, n, step):
        block = digits[r : r + step]
        text = np.empty(block.shape[:2] + (m + 1,), dtype=np.uint8)
        letters = block.max(initial=0) >= 10
        text[:, :, :m] = _DIGIT_CODES[block] if letters else block + np.uint8(ord("0"))
        text[:, :, m] = ord(" ")
        text[:, -1, m] = ord("\n")
        yield text.tobytes()


def _int_lines(header: str, rows: np.ndarray) -> Iterator[bytes]:
    """The header, then an integer array's rows: decimal entries, single
    spaces, LF. Every entry gets a slot as wide as the largest entry, and
    the leading zeros are dropped, a chunk of rows at a time; uint8 rows are
    split into digits in uint8, and one-digit slots are the text itself."""
    yield header.encode("ascii")
    n, k = rows.shape
    width = len(str(int(rows.max()))) if rows.size else 1
    powers = (10 ** np.arange(width - 1, -1, -1, dtype=np.int64)).astype(rows.dtype)
    step = max(1, _CHUNK_BYTES // (k * (width + 1) or 1))
    for r in range(0, n, step):
        block = rows[r : r + step, :, None]
        if not k:
            yield b"\n" * len(block)
            continue
        slots = np.empty(block.shape[:2] + (width + 1,), dtype=np.uint8)
        slots[:, :, :width] = block // powers % 10 if width > 1 else block
        slots[:, :, :width] += ord("0")
        slots[:, :, :width - 1][block < powers[:-1]] = 0  # leading zeros
        slots[:, :, width] = ord(" ")
        slots[:, -1, width] = ord("\n")
        yield (slots[slots != 0] if width > 1 else slots).tobytes()


def parse_moa(data: bytes | BinaryIO) -> MixedOA:
    """Parse a MOA v1 file, as a binary stream or bytes; the header's t
    becomes the claimed strength."""
    lines, stream = _head(data, 3, "parse_moa")
    if _need_line(lines, 0, "MOA v1 magic line") != "MOA v1":
        raise FormatError(f"expected 'MOA v1', got {_quote(lines[0])}", line=1)
    n, k, t = _keyword_header(_need_line(lines, 1, "parameter header"), ("N", "k", "t"), 2)
    if n < 1 or k < 1 or not 0 <= t <= k:
        raise FormatError(f"invalid parameters N={n} k={k} t={t}", line=2)
    alphabets = _vector_line(_need_line(lines, 2, "alphabet line"), "l", k, 3)
    if any(l < 2 for l in alphabets):
        raise FormatError(f"alphabet sizes must be >= 2, got {alphabets}", line=3)
    if any(l >= 2 ** 63 for l in alphabets):
        raise FormatError(f"alphabet sizes must be below 2**63, got {alphabets}", line=3)
    rows = _parse_int_body(stream, alphabets, 4, n)
    return MixedOA(tuple(alphabets), rows, strength=t)


def moa_chunks(array: MixedOA) -> Iterator[bytes]:
    """Canonical MOA v1 bytes of a mixed array, in chunks."""
    return _int_lines(f"MOA v1\nN {array.runs} k {array.k} t {array.strength}\n"
                      f"l {' '.join(str(l) for l in array.alphabets)}\n", array.rows)


def parse_mooa(data: bytes | BinaryIO) -> MixedOOA:
    """Parse a MOOA v1 file, as a binary stream or bytes (base**m body rows)."""
    lines, stream = _head(data, 4, "parse_mooa")
    if _need_line(lines, 0, "MOOA v1 magic line") != "MOOA v1":
        raise FormatError(f"expected 'MOOA v1', got {_quote(lines[0])}", line=1)
    b, m, s, u = _keyword_header(_need_line(lines, 1, "parameter header"),
                                 ("base", "m", "s", "u"), 2)
    if b < 2 or m < 0 or s < 1 or not 0 <= u <= m:
        raise FormatError(f"invalid parameters base={b} m={m} s={s} u={u}", line=2)
    evals = _vector_line(_need_line(lines, 2, "e-vector line"), "e", s, 3)
    if any(v < 1 for v in evals):
        raise FormatError(f"e-vector entries must be >= 1, got {evals}", line=3)
    beta = _vector_line(_need_line(lines, 3, "beta line"), "beta", s, 4)
    for i, (bi, ei) in enumerate(zip(beta, evals)):
        cap = (m - u) // ei
        if not 0 <= bi <= cap:
            raise FormatError(f"beta[{i}]={bi} outside [0, {cap}] allowed by (m-u)/e_i",
                              line=4)
    if m * (b.bit_length() - 1) >= 64:  # b**m >= 2**64: no body holds that many rows
        n = sum(block.count(b"\n") for block in _body(stream))
        raise FormatError(f"expected {b}**{m} array rows, got {n}", line=5 + n)
    # b**m rows bound every width b**e_i (e_i <= m) below 2**63.
    widths = [b ** ei for bi, ei in zip(beta, evals) for _ in range(bi)]
    rows = _parse_int_body(stream, widths, 5, b ** m)
    return MixedOOA(b, m, u, EVector(tuple(evals)), tuple(beta), rows)


def mooa_chunks(array: MixedOOA) -> Iterator[bytes]:
    """Canonical MOOA v1 bytes of an ordered mixed array, in chunks."""
    return _int_lines(f"MOOA v1\nbase {array.base} m {array.m} s {array.dim} u {array.u}\n"
                      f"e {' '.join(str(v) for v in array.e)}\n"
                      f"beta {' '.join(str(v) for v in array.beta)}\n", array.rows)


def parse_function_tuples(data: bytes | BinaryIO, array: MixedOOA) -> np.ndarray:
    """Parse residue-function tuples, one per line, in stored column order,
    as a binary stream or bytes.

    Each line holds sum(beta) integers; entry (i, rho) must lie in
    [0, base**e_i). Returns the (lines, sum(beta)) matrix of residues, in
    the dtype an array body of those widths is read in.
    """
    widths = [array.base ** ei for bi, ei in zip(array.beta, array.e) for _ in range(bi)]
    _, stream = _head(data, 0, "parse_function_tuples")
    return _parse_int_body(stream, widths, 1, None, "residue", "residues")
