"""Small internal helpers: mixed-radix ranking, digit windows, and the one
uniformity kernel every verifier shares."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

# Largest array of order b**m (a digit tensor, an exponent matrix) the
# package will allocate, in bytes; a digit tensor of a base <= 256 takes one
# byte per digit, so its cap admits 8 times the points of an int64 one.
_BYTES_CAP = 1 << 30

# int64 work one chunk of rows may take, in bytes: kernels that widen compact
# digits do it a chunk at a time, so no int64 copy of a whole tensor exists.
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


def unrank(rank: int, radices: Sequence[int]) -> list[int]:
    """Inverse of :func:`rank_rows` for a single rank value."""
    out = [0] * len(radices)
    for j in range(len(radices) - 1, -1, -1):
        rank, out[j] = divmod(rank, int(radices[j]))
    return out


def digit_matrix(values: np.ndarray | range | Sequence[int], width: int,
                 base: int) -> np.ndarray:
    """Base-``base`` digits (most significant first) of each value, of shape
    ``values.shape + (width,)``, in ``digit_dtype(base)``.

    uint8 values are divided in uint8 when the base fits in uint8; other
    values are widened to int64, a chunk of rows at a time.
    """
    if not isinstance(values, (range, np.ndarray)):
        values = np.array(values, dtype=np.int64)
    shape = (len(values),) if isinstance(values, range) else values.shape
    out = np.empty(shape + (width,), dtype=digit_dtype(base))
    # uint8 arithmetic takes the base as a uint8, so at most 255; quotient * base
    # never exceeds the value, so nothing wraps under either promotion rule
    narrow = isinstance(values, np.ndarray) and values.dtype == np.uint8 and base <= 255
    dtype, radix = (np.uint8, np.uint8(base)) if narrow else (np.int64, base)
    for rows in row_chunks(shape[0], math.prod(shape[1:]) * width):
        chunk = values[rows]
        if isinstance(chunk, range):
            vals = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64)
        else:  # a copy: a strided column divides several times slower
            vals = np.array(chunk, dtype=dtype)
        for j in range(width - 1, -1, -1):
            quotient = vals // radix  # much faster than %
            out[rows, ..., j] = vals - quotient * radix
            vals = quotient
    return out


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

    def first_failure(self, shapes: Iterable[Sequence[int]]
                      ) -> tuple[Sequence[int], int, int, int] | None:
        """First shape, in the given order, whose boxes are not uniformly
        filled: (shape, box index, observed, expected), or None if all are.

        Expected counts assume the row count is a multiple of every shape's
        cell count, as it is for b**m rows and cells b**depth with depth <= m.
        """
        for shape in shapes:
            cells = self.base ** sum(shape)
            expected = self.n // cells
            hit = _first_nonuniform(self.keys(shape), cells, expected)
            if hit is not None:
                return shape, hit[0], hit[1], expected
        return None
