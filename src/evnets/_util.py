"""Small internal helpers: mixed-radix ranking, digit windows, the one walk
whose cached array is every checked shape list (``maximal_depths``), and the
one uniformity kernel every verifier shares."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import ParamError
from .evector import EVector

# Largest array of order b**m (a digit tensor, an exponent matrix) the
# package will allocate, in bytes; a digit tensor of a base <= 256 takes one
# byte per digit, so its cap admits 8 times the points of an int64 one.
_BYTES_CAP = 1 << 30

# Work one chunk of rows may take, in bytes: kernels that widen compact digits
# or sum them do it a chunk at a time, so no wide copy of a whole tensor exists.
_CHUNK_BYTES = 1 << 20


def digit_dtype(limit: int) -> type:
    """Storage dtype for values in [0, limit): uint8 when limit <= 256, else int64.

    Never uint64, which numpy promotes with int64 to float64. uint8 arithmetic
    with a Python int wraps silently, so kernels widen before they compute.
    """
    return np.uint8 if limit <= 256 else np.int64


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def is_power(n: int, b: int, m: int) -> bool:
    """Whether n == b**m; b**m >= 2**(m * (b.bit_length() - 1)), so b**m is
    built only when it may equal n, and a huge m costs nothing."""
    return m * (b.bit_length() - 1) < n.bit_length() and n == b ** m


def row_chunks(n: int, row_items: int) -> list[slice]:
    """Slices covering range(n) whose rows of ``row_items`` int64 values take
    about ``_CHUNK_BYTES`` each."""
    step = max(1, _CHUNK_BYTES // (8 * max(row_items, 1)))
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def digit_window(digits: np.ndarray, coord: int, start: int, width: int, base: int,
                 out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the integer that digit positions [start, start+width)
    of one coordinate encode, by Horner's rule in ``out``'s dtype; return ``out``.

    ``digits`` has shape (N, s, m) with the most significant digit first, so
    the value for width w lies in {0, ..., base**w - 1}, and ``out`` (N
    entries, any strides) must hold it.
    """
    if width == 0:
        out[...] = 0
        return out
    out[...] = digits[:, coord, start]
    if width > 1:
        radix = out.dtype.type(base)  # base**width fits, so base does
        for l in range(start + 1, start + width):
            out *= radix
            # unsafe casting admits int64 digits into a narrower out; the sum fits
            np.add(out, digits[:, coord, l], out=out, casting="unsafe")
    return out


def rank_rows(rows: np.ndarray, radices: Sequence[int]) -> np.ndarray:
    """Mixed-radix rank of each row of a 2-D array, first column most
    significant: int64 while the radices' product is at most 2**63, else
    Python ints in an object array. An (n, 0) array ranks as n zeros."""
    radices = [int(r) for r in radices]
    dtype = np.int64 if math.prod(radices) <= 2 ** 63 else object
    keys = np.zeros(rows.shape[0], dtype=dtype)
    for col, radix in zip(rows.T, radices):
        keys *= radix
        keys += col
    return keys


def unrank(rank: int | np.ndarray, radices: Sequence[int]) -> list:
    """Inverse of :func:`rank_rows`: the digits of a rank, first most
    significant; of an array of ranks, one array per radix (by ``divmod``)."""
    out = [0] * len(radices)
    for j in range(len(radices) - 1, -1, -1):
        rank, out[j] = divmod(rank, int(radices[j]))
    return out


def digit_matrix(values: np.ndarray | Sequence[int], width: int, base: int) -> np.ndarray:
    """Base-``base`` digits (most significant first) of each value, of shape
    ``values.shape + (width,)``, in ``digit_dtype(base)``.

    uint8 values are divided in uint8 when the base fits in uint8; other
    values are widened to int64, a chunk of rows at a time.
    """
    if not isinstance(values, np.ndarray):
        values = np.array(values, dtype=np.int64)
    out = np.empty(values.shape + (width,), dtype=digit_dtype(base))
    # uint8 arithmetic takes the base as a uint8, so at most 255; quotient * base
    # never exceeds the value, so nothing wraps under either promotion rule
    narrow = values.dtype == np.uint8 and base <= 255
    dtype, radix = (np.uint8, np.uint8(base)) if narrow else (np.int64, base)
    for rows in row_chunks(values.shape[0], math.prod(values.shape[1:]) * width):
        # a copy: a strided column divides several times slower
        vals = np.array(values[rows], dtype=dtype)
        for j in range(width - 1, -1, -1):
            quotient = vals // radix  # much faster than %
            out[rows, ..., j] = vals - quotient * radix
            vals = quotient
    return out


def span(rows: np.ndarray, b: int) -> np.ndarray:
    """All b**k combinations over Z_b of the k rows of ``rows``, in
    ``digit_dtype(b)``: row n of the result has the base-b digits of n as
    coefficients, row 0's most significant.

    Filled in place, least significant coefficient first: rows a*b**j to
    (a+1)*b**j are the first b**j rows plus a times the next row, mod b. A
    sum is taken in the narrowest unsigned type holding 2b - 1 (for b <= 128
    the output's own uint8), where x mod b is min(x, x - b), as x - b wraps
    above x when x < b. Temporaries stay within ``_CHUNK_BYTES``.
    """
    k, width = rows.shape
    work = np.min_scalar_type(2 * b - 1)
    out = np.empty((b ** k, width), dtype=digit_dtype(b))
    out[0] = 0
    temporaries = 1 if work == out.dtype else 2  # x - b, and x unless in the output
    step = max(1, _CHUNK_BYTES // max(1, width * work.itemsize * temporaries))  # rows a chunk
    size = 1
    for row in np.asarray(rows, dtype=np.int64)[::-1]:
        per = max(1, step // size)  # coefficients a chunk
        for a in range(1, b, per):
            coeffs = np.arange(a, min(a + per, b))
            multiples = (coeffs[:, None, None] * row % b).astype(work)
            block = out[a * size : (a + len(coeffs)) * size].reshape(len(coeffs), size, width)
            for lo in range(0, size, step):
                dst = block[:, lo : lo + step]
                total = dst if dst.dtype == work else np.empty(dst.shape, work)
                np.add(out[lo : lo + dst.shape[1]], multiples, out=total, casting="unsafe")
                np.minimum(total, total - work.type(b), out=total)
                if total is not dst:
                    dst[...] = total
        size *= b
    return out


def canonical_beta(m: int, u: int, e: EVector | Sequence[int]) -> tuple[int, ...]:
    """Largest usable column count per block: floor((m - u) / e_i)."""
    e = EVector.coerce(e)
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    return tuple((m - u) // ei for ei in e)


@lru_cache(maxsize=1)
def maximal_depths(budget: int, e: tuple[int, ...], caps: tuple[int, ...]) -> np.ndarray:
    """Depths d_i = k_i * e_i, k_i <= caps_i, sum d_i <= budget, where no k_i under its cap
    fits another e_i: the read-only rows every check reads, in lexicographic order (int64
    below 2**62), walked a coordinate at a time keeping each prefix's parent and depth."""
    rest = np.array([budget], np.int64 if max(budget, *e) < 2 ** 62 else object)  # per prefix
    least, levels, listed = rest + 1, [], 0.0  # listed: prefixes so far, a float never wraps
    for i, (ei, cap) in enumerate(zip(e, caps)):
        children = np.minimum(rest // ei, min(cap, budget // ei)) + 1
        listed += (count := children.sum(dtype=np.float64))
        if 48 * listed + 8 * len(e) * count > _BYTES_CAP:  # 6 int64 a prefix; these as rows
            raise ParamError(f"listing depths within budget {budget} takes {int(listed)} "
                             f"prefixes by coordinate {i + 1}, above {_BYTES_CAP} bytes")
        parent = np.repeat(np.arange(len(rest)), children.astype(np.int64))
        k = np.arange(len(parent)) - (np.cumsum(children) - children)[parent]
        levels.append((parent, np.multiply(k, ei, dtype=rest.dtype)))  # depth k * e_i
        rest = rest[parent] - levels[-1][1]  # the budget left
        least = least[parent]  # the least e_i under its cap
        np.minimum(least, ei, out=least, where=k < cap)
    leaf = np.flatnonzero(rest < least)  # maximal: no e_i under its cap fits
    rows = np.empty((len(leaf), len(e)), dtype=rest.dtype)
    for i, (parent, depth) in reversed(list(enumerate(levels))):
        rows[:, i], leaf = depth[leaf], parent[leaf]
    rows.flags.writeable = False
    return rows


def _first_nonuniform(keys: np.ndarray, cells: int, expected: int) -> tuple[int, int] | None:
    """First cell in [0, cells) whose key count is not ``expected``, with that
    count; None when every cell holds exactly ``expected`` keys."""
    counts = np.bincount(keys, minlength=cells)
    bad = np.flatnonzero(counts != expected)
    if bad.size == 0:
        return None
    return int(bad[0]), int(counts[bad[0]])


@dataclass(eq=False)
class PrefixTable:
    """Prefix values of every coordinate of a digit tensor by depth, built
    once per input by :meth:`of_digits`.

    Coordinate i's prefix of depth d = k*e_i is P[i][k] = P[i][k-1] * b**e_i
    + (its k-th width-e_i digit window), so a row's box of shape d is the
    mixed-radix rank of (P[i][d_i / e_i])_i, first coordinate most
    significant. Stored as int32 while b**depth < 2**31, which halves its
    memory against int64.
    """

    n: int
    base: int
    e: Sequence[int]
    dtype: type
    levels: list[list[np.ndarray]]  # levels[i][k-1] is P[i][k]

    @classmethod
    def of_digits(cls, digits: np.ndarray, base: int, e: Sequence[int],
                  depth: int) -> "PrefixTable":
        """Table of an (N, s, m) digit tensor: width-e_i windows of coordinate
        i, as many as fit in the first ``depth`` digits."""
        n, dtype = digits.shape[0], np.int32 if base ** depth < 2 ** 31 else np.int64
        levels: list[list[np.ndarray]] = []
        for i, ei in enumerate(e):
            level: list[np.ndarray] = []
            for k in range(depth // ei):
                value = digit_window(digits, i, k * ei, ei, base, np.empty(n, dtype))
                if level:
                    value += level[-1] * base ** ei
                level.append(value)
            levels.append(level)
        return cls(n, base, e, dtype, levels)

    def keys(self, shape: Sequence[int]) -> np.ndarray:
        """Box index of every row at ``shape`` (each d_i a multiple of e_i).

        Keys share the table's dtype unless the shape has more cells than the
        table's depth bounds; then they widen to int64 rather than wrap.
        """
        dtype = self.dtype if self.base ** sum(shape) < 2 ** 31 else np.int64
        keys = np.zeros(self.n, dtype=dtype)
        for level, d, ei in zip(self.levels, shape, self.e):
            if d:
                keys *= self.base ** d
                keys += level[d // ei - 1]
        return keys

    def first_failure(self, shapes: np.ndarray) -> tuple[tuple[int, ...], int, int, int] | None:
        """First row of a (k, s) shape array whose boxes are not uniformly filled:
        (shape in Python ints, box index, observed, expected), or None if all are.

        Expected counts assume the row count is a multiple of every shape's
        cell count, as it is for b**m rows and cells b**depth with depth <= m.
        """
        for row in shapes:
            shape = tuple(row.tolist())  # Python ints: base ** depth must not wrap
            cells = self.base ** sum(shape)
            expected = self.n // cells
            hit = _first_nonuniform(self.keys(shape), cells, expected)
            if hit is not None:
                return shape, hit[0], hit[1], expected
        return None
