"""Digit-exact data model: point sets, e-vectors, mixed arrays, verdicts.

Points are stored as base-b digit tensors, never as floats, so every
verification below is exact integer counting. ``digits[n, i, l]`` is the
coefficient of b**-(l+1) in coordinate i of point n (most significant digit
first).

Storage: ``PointSet.digits``, ``MixedOA.rows`` and ``MixedOOA.rows`` are
read-only C-contiguous arrays, uint8 when the base (for rows, the largest
column alphabet) is at most 256 and int64 otherwise. Each constructor checks
the range of what it is given, then narrows or widens it to that dtype.
Code that computes with stored entries widens them first, since uint8
arithmetic with a Python int wraps silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._util import digit_dtype, is_power
from .errors import ParamError, PrecisionError
from .evector import EVector

__all__ = ["EVector", "PointSet", "MixedOA", "MixedOOA", "Verdict"]


def _int_array(a, shape_name: str, ndim: int) -> np.ndarray:
    """``a`` as an array of ``ndim`` dimensions, uint8 if it is, else int64."""
    arr = np.asarray(a)
    if arr.dtype != np.uint8:
        arr = arr.astype(np.int64, copy=False)
    if arr.ndim != ndim:
        raise ParamError(f"{shape_name} must be {ndim}-dimensional, got shape {arr.shape}")
    return arr


def _stored(arr: np.ndarray, limit: int) -> np.ndarray:
    """Read-only C-contiguous ``arr`` in ``digit_dtype(limit)``; its entries
    must already be checked to lie in [0, limit)."""
    arr = np.ascontiguousarray(arr, dtype=digit_dtype(limit))
    arr.setflags(write=False)
    return arr


def _out_of_range(a: np.ndarray, limit: int) -> bool:
    """Whether an entry of ``a`` lies outside [0, limit); uint8 is never negative."""
    if not a.size:
        return False
    return (a.dtype != np.uint8 and int(a.min()) < 0) or int(a.max()) >= limit


@dataclass(frozen=True, eq=False)
class PointSet:
    """N points of [0,1)^s held as an (N, s, m) tensor of base-b digits,
    uint8 for b <= 256 and int64 otherwise."""

    base: int
    digits: np.ndarray

    def __post_init__(self):
        if int(self.base) < 2:
            raise ParamError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "base", int(self.base))
        arr = _int_array(self.digits, "digits", 3)
        if arr.shape[1] < 1:
            raise ParamError("point sets need at least one coordinate")
        if _out_of_range(arr, self.base):
            raise ParamError(f"digits must lie in [0, {self.base}), got range "
                             f"[{arr.min()}, {arr.max()}]")
        object.__setattr__(self, "digits", _stored(arr, self.base))

    @property
    def count(self) -> int:
        """Number of points N."""
        return self.digits.shape[0]

    @property
    def dim(self) -> int:
        """Number of coordinates s."""
        return self.digits.shape[1]

    @property
    def precision(self) -> int:
        """Digits carried per coordinate."""
        return self.digits.shape[2]

    def truncate(self, precision: int) -> "PointSet":
        """Keep only the first ``precision`` digits of every coordinate."""
        if precision < 0:
            raise ParamError(f"precision must be >= 0, got {precision}")
        if precision > self.precision:
            raise PrecisionError(
                f"cannot truncate to {precision} digits, only {self.precision} carried")
        if precision == self.precision:
            return self
        return PointSet(self.base, self.digits[:, :, :precision])

    def coordinate_value(self, n: int, i: int) -> Fraction:
        """Exact value of coordinate i of point n, a rational with denominator b**m."""
        if not (0 <= n < self.count and 0 <= i < self.dim):
            raise IndexError(f"point {n}, coordinate {i} out of range "
                             f"({self.count} points, {self.dim} coordinates)")
        from fractions import Fraction  # here, so a process that never asks loads no fractions

        num = 0
        for d in self.digits[n, i, :]:
            num = num * self.base + int(d)
        return Fraction(num, self.base ** self.precision)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.base == other.base
                and self.digits.shape == other.digits.shape
                and bool(np.array_equal(self.digits, other.digits)))

    def __repr__(self) -> str:
        return (f"PointSet(base={self.base}, count={self.count}, "
                f"dim={self.dim}, precision={self.precision})")


@dataclass(frozen=True, eq=False)
class MixedOA:
    """N x k integer array; column j takes values in {0, ..., alphabets[j]-1}.

    The rows are uint8 when every alphabet is at most 256, else int64.

    ``strength`` is the claimed strength carried alongside the data (0 when
    nothing has been verified); checking it is a separate operation.
    """

    alphabets: tuple[int, ...]
    rows: np.ndarray
    strength: int = 0

    def __post_init__(self):
        alph = tuple(int(l) for l in self.alphabets)
        if len(alph) == 0:
            raise ParamError("mixed arrays need at least one column")
        if any(l < 2 for l in alph):
            raise ParamError(f"alphabet sizes must be >= 2, got {alph}")
        object.__setattr__(self, "alphabets", alph)
        arr = _int_array(self.rows, "rows", 2)
        if arr.shape[0] < 1:
            raise ParamError("mixed arrays need at least one row")
        if arr.shape[1] != len(alph):
            raise ParamError(f"rows have {arr.shape[1]} columns, expected {len(alph)}")
        for j, l in enumerate(alph):
            if _out_of_range(arr[:, j], l):
                raise ParamError(f"column {j} must lie in [0, {l})")
        object.__setattr__(self, "rows", _stored(arr, max(alph)))
        st = int(self.strength)
        if not 0 <= st <= len(alph):
            raise ParamError(f"claimed strength must lie in [0, {len(alph)}], got {st}")
        object.__setattr__(self, "strength", st)

    @property
    def runs(self) -> int:
        return self.rows.shape[0]

    @property
    def k(self) -> int:
        return self.rows.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedOA):
            return NotImplemented
        return (self.alphabets == other.alphabets
                and self.strength == other.strength
                and bool(np.array_equal(self.rows, other.rows)))

    def __repr__(self) -> str:
        return (f"MixedOA(runs={self.runs}, alphabets={self.alphabets}, "
                f"strength={self.strength})")


@dataclass(frozen=True, eq=False)
class MixedOOA:
    """Ordered mixed array: b**m rows, beta_i columns per coordinate block.

    Column (i, rho) takes values in {0, ..., b**e_i - 1} and is stored in
    coordinate-major order (all columns of block 0 first). The claimed
    strength is m - u. ``beta_i = 0`` blocks carry no columns, which keeps
    strength-0 arrays (u = m) representable. The rows are uint8 when every
    column's alphabet is at most 256, else int64.
    """

    base: int
    m: int
    u: int
    e: EVector
    beta: tuple[int, ...]
    rows: np.ndarray

    def __post_init__(self):
        if int(self.base) < 2:
            raise ParamError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "base", int(self.base))
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "u", int(self.u))
        if self.m < 0 or not 0 <= self.u <= self.m:
            raise ParamError(f"need 0 <= u <= m, got u={self.u}, m={self.m}")
        e = EVector.coerce(self.e)
        object.__setattr__(self, "e", e)
        beta = tuple(int(v) for v in self.beta)
        if len(beta) != e.s:
            raise ParamError(f"beta has {len(beta)} entries, e-vector has {e.s}")
        for i, (bi, ei) in enumerate(zip(beta, e)):
            cap = (self.m - self.u) // ei
            if not 0 <= bi <= cap:
                raise ParamError(
                    f"beta[{i}]={bi} outside [0, {cap}] allowed by (m-u)/e_i")
        object.__setattr__(self, "beta", beta)
        arr = _int_array(self.rows, "rows", 2)
        if not is_power(arr.shape[0], self.base, self.m):
            raise ParamError(f"expected base**m = {self.base}**{self.m} rows, "
                             f"got {arr.shape[0]}")
        if arr.shape[1] != sum(beta):
            raise ParamError(f"expected sum(beta) = {sum(beta)} columns, got {arr.shape[1]}")
        # one reduction a block; a failed block is searched for its first column
        start = 0
        for i, (bi, ei) in enumerate(zip(beta, e)):
            alph = self.base ** ei
            block = arr[:, start:start + bi]
            if _out_of_range(block, alph):
                col = start + next(j for j in range(bi) if _out_of_range(block[:, j], alph))
                raise ParamError(f"column {col} (block {i}) must lie in [0, {alph})")
            start += bi
        widest = max((ei for bi, ei in zip(beta, e) if bi), default=0)
        object.__setattr__(self, "rows", _stored(arr, self.base ** widest))

    @property
    def runs(self) -> int:
        return self.rows.shape[0]

    @property
    def dim(self) -> int:
        return self.e.s

    def block_start(self, i: int) -> int:
        """Index of the first stored column of coordinate block i."""
        return sum(self.beta[:i])

    def column(self, i: int, rho: int) -> np.ndarray:
        """Stored column rho (0-based) of coordinate block i."""
        if not (0 <= i < self.dim and 0 <= rho < self.beta[i]):
            raise IndexError(f"block {i}, column {rho} out of range")
        return self.rows[:, self.block_start(i) + rho]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MixedOOA):
            return NotImplemented
        return (self.base == other.base and self.m == other.m and self.u == other.u
                and self.e == other.e and self.beta == other.beta
                and bool(np.array_equal(self.rows, other.rows)))

    def __repr__(self) -> str:
        return (f"MixedOOA(base={self.base}, m={self.m}, u={self.u}, "
                f"e={self.e.e}, beta={self.beta})")


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive check: pass, or fail with a witness record.

    The witness is present exactly when the check failed; it names the first
    violation in the check's deterministic enumeration order.
    """

    passed: bool
    witness: Mapping | None = None

    def __post_init__(self):
        if self.passed and self.witness is not None:
            raise ParamError("passing verdicts carry no witness")
        if not self.passed and self.witness is None:
            raise ParamError("failing verdicts must carry a witness")

    def __bool__(self) -> bool:
        return self.passed
