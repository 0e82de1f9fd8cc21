"""Small internal helpers: mixed-radix ranking, digit windows, and the one
uniformity kernel every verifier shares."""

from __future__ import annotations

import math
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
    """Base-``base`` digit rows (most significant first) for each value, in
    ``digit_dtype(base)``; the values are widened to int64 a chunk at a time."""
    n = len(values)
    out = np.empty((n, width), dtype=digit_dtype(base))
    for rows in row_chunks(n, width):
        chunk = values[rows]
        if isinstance(chunk, range):
            vals = np.arange(chunk.start, chunk.stop, chunk.step, dtype=np.int64)
        else:  # a copy: a strided column divides several times slower
            vals = np.array(chunk, dtype=np.int64)
        for j in range(width - 1, -1, -1):
            quotient = vals // base  # much faster than % on int64
            out[rows, j] = vals - quotient * base
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


class PrefixTable:
    """Prefix values of every coordinate by depth, built once per input.

    Coordinate i reads a sequence of blocks (symbols below ``radices[i]``);
    its prefix of depth k is P[i][k] = P[i][k-1] * radices[i] + block_k, so
    the key of a depth profile kappa is the mixed-radix rank of
    (P[0][kappa_0], ..., P[s-1][kappa_{s-1}]), first coordinate most
    significant. A net's blocks are its width-e_i digit windows; an ordered
    array's blocks are its columns.

    ``cells`` bounds every prefix and key the table holds (b**(m-u) for a
    quality-u check). The table is stored as int32 whenever cells < 2**31,
    which halves its memory against int64.
    """

    def __init__(self, blocks: Iterable[Iterable[np.ndarray]], radices: Sequence[int],
                 n: int, cells: int):
        self.n = n
        self.radices = [int(r) for r in radices]
        self.dtype = self.dtype_for(cells)
        self.levels: list[list[np.ndarray]] = []  # levels[i][k-1] is P[i][k]
        for coord_blocks, radix in zip(blocks, self.radices):
            level: list[np.ndarray] = []
            for block in coord_blocks:
                if level:
                    value = level[-1] * radix
                    value += block
                else:  # levels are never written, so this may be the block itself
                    value = block.astype(self.dtype, copy=False)
                level.append(value)
            self.levels.append(level)

    @staticmethod
    def dtype_for(cells: int) -> type:
        return np.int32 if cells < 2 ** 31 else np.int64

    @classmethod
    def of_digits(cls, digits: np.ndarray, base: int, e: Sequence[int],
                  depth: int) -> "PrefixTable":
        """Table of an (N, s, m) digit tensor: width-e_i windows of coordinate
        i, as many as fit in the first ``depth`` digits."""
        n, dtype = digits.shape[0], cls.dtype_for(base ** depth)
        blocks = ((digit_window(digits, i, k * ei, ei, base, np.empty(n, dtype))
                   for k in range(depth // ei))
                  for i, ei in enumerate(e))
        return cls(blocks, [base ** ei for ei in e], n, base ** depth)

    def keys(self, kappa: Sequence[int]) -> np.ndarray:
        """Rank of every row's prefix tuple at depth profile ``kappa``."""
        keys = np.zeros(self.n, dtype=self.dtype)
        for level, k, radix in zip(self.levels, kappa, self.radices):
            if k:
                keys *= radix ** k
                keys += level[k - 1]
        return keys

    def first_failure(self, profiles: Iterable[Sequence[int]]
                      ) -> tuple[Sequence[int], int, int, int] | None:
        """First profile, in the given order, whose cells are not uniformly
        filled: (kappa, cell, observed, expected), or None if all are.

        Expected counts assume the row count is a multiple of every profile's
        cell count, as it is for b**m rows and cells b**depth with depth <= m.
        """
        for kappa in profiles:
            cells = 1
            for k, radix in zip(kappa, self.radices):
                cells *= radix ** k
            expected = self.n // cells
            hit = _first_nonuniform(self.keys(kappa), cells, expected)
            if hit is not None:
                return kappa, hit[0], hit[1], expected
        return None
