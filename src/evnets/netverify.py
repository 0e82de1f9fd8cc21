"""Exhaustive equidistribution checks for digital point sets.

A point set with b**m points is checked against elementary boxes: for a shape
d = (d_1, ..., d_s) with every d_i a multiple of e_i, the box with index
vector a contains the points whose coordinate-i digits start with the base-b
expansion of a_i. A net of quality u places exactly b**(m - sum d) points in
every box of every admissible shape (sum d <= m - u for the narrow reading,
sum d = m - u exactly for the tezuka reading).

Checking only budget-maximal shapes suffices for the narrow reading: a box of
a refinable shape is the disjoint union of the b**e_i boxes obtained by
deepening coordinate i, so uniform counts at the refined shape force uniform
counts at the coarser one, and every admissible shape refines to a maximal
one, so maximal shapes are the only ones checked. The exhaustive check over
every admissible shape lives in ``tests/oracles.py`` as the reference.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Literal, Sequence

import numpy as np

from ._util import PrefixTable, digit_matrix, digit_window, unrank
from .core import EVector, PointSet, Verdict
from .errors import ParamError, PrecisionError
from .ooa import canonical_beta, enumerate_profiles

__all__ = [
    "Shape",
    "check_shapes", "count_box", "verify_net", "u_star",
    "verify_sequence_prefix", "project", "rebase_compress", "rebase_expand",
]

Shape = tuple[int, ...]

Variant = Literal["narrow", "tezuka"]


def _check_variant(variant: str) -> None:
    if variant not in ("narrow", "tezuka"):
        raise ParamError(f"variant must be 'narrow' or 'tezuka', got {variant!r}")


def count_box(points: PointSet, shape: Sequence[int], index: Sequence[int]) -> int:
    """Number of points in the elementary box of the given shape and index."""
    shape = tuple(int(d) for d in shape)
    index = tuple(int(a) for a in index)
    if len(shape) != points.dim or len(index) != points.dim:
        raise ParamError(f"shape and index must have {points.dim} entries")
    if any(d < 0 for d in shape):
        raise ParamError(f"shape depths must be >= 0, got {shape}")
    depth = max(shape, default=0)
    if depth > points.precision:
        raise PrecisionError(f"shape {shape} needs more digits than the "
                             f"{points.precision} carried")
    b = points.base
    if b ** depth >= 2 ** 63:
        raise ParamError(f"shape {shape} needs digit windows wider than 64-bit integers hold")
    for d, a in zip(shape, index):
        if not 0 <= a < b ** d:
            raise ParamError(f"box index {a} outside [0, {b ** d}) for depth {d}")
    inside = np.ones(points.count, dtype=bool)
    window = np.empty(points.count, np.int64)
    for i, (d, a) in enumerate(zip(shape, index)):
        inside &= digit_window(points.digits, i, 0, d, b, window) == a
    return int(np.count_nonzero(inside))


def check_shapes(m: int, u: int, e: EVector | Sequence[int],
                 variant: Variant = "narrow") -> list[Shape]:
    """The shapes a verification run examines, in lexicographic order.

    A shape assigns each coordinate a depth d_i in {0, e_i, 2*e_i, ...}. The
    narrow reading checks the budget-maximal shapes: sum d_i <= m - u and no
    coordinate can take another e_i step within the budget. These are the
    depth profiles of the canonical ordered array, scaled by e. The tezuka
    reading checks the maximal shapes whose depths sum to exactly m - u.
    """
    _check_variant(variant)
    e = EVector.coerce(e)
    shapes = [tuple(k * ei for k, ei in zip(kappa, e))
              for kappa in enumerate_profiles(m, u, e, canonical_beta(m, u, e))]
    if variant == "narrow":
        return shapes
    return [d for d in shapes if sum(d) == m - u]


def _check_net(points: PointSet, e: EVector | Sequence[int], variant: str) -> EVector:
    """Check the arguments every quality check shares; return e coerced."""
    e = EVector.coerce(e)
    _check_variant(variant)
    if e.s != points.dim:
        raise ParamError(f"e-vector has {e.s} entries, point set has {points.dim}")
    if points.count != points.base ** points.precision:
        raise ParamError(f"net candidates need base**m = {points.base ** points.precision} "
                         f"points, got {points.count}")
    return e


def verify_net(points: PointSet, u: int, e: EVector | Sequence[int],
               variant: Variant = "narrow") -> Verdict:
    """Check the quality-u equidistribution property on the checked shapes.

    Requires exactly base**precision points. The verdict's witness (on
    failure) names the first offending shape and box in lexicographic
    enumeration order; no later shape is examined.
    """
    e = _check_net(points, e, variant)
    b, m = points.base, points.precision
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    shapes = check_shapes(m, u, e, variant)
    table = PrefixTable.of_digits(points.digits, b, e, m - u)
    failure = table.first_failure([d // ei for d, ei in zip(shape, e)] for shape in shapes)
    if failure is None:
        return Verdict(True)
    kappa, cell, observed, expected = failure
    shape = [k * ei for k, ei in zip(kappa, e)]
    return Verdict(False, {"shape": shape, "box": unrank(cell, [b ** d for d in shape]),
                           "observed": observed, "expected": expected})


def u_star(points: PointSet, e: EVector | Sequence[int], variant: Variant = "narrow") -> int:
    """Smallest u at which the point set verifies; u = m always passes.

    The narrow reading is bisected: raising u only shrinks the set of checked
    shapes, so passing at u implies passing at every v >= u. The tezuka
    reading replaces the shape set rather than shrinking it, so it tries
    u = 0, 1, ... in turn and stops at the first pass.
    """
    _check_net(points, e, variant)
    lo, hi = 0, points.precision
    while lo < hi:
        mid = (lo + hi) // 2 if variant == "narrow" else lo
        if verify_net(points, mid, e, variant):
            hi = mid
        else:
            lo = mid + 1
    return lo


def verify_sequence_prefix(prefix: PointSet, u: int, e: EVector | Sequence[int],
                           m_max: int) -> Verdict:
    """Check every complete digit-truncated block of a sequence prefix.

    For every m with u < m <= m_max and every g >= 0 such that the block of
    points g*b**m, ..., (g+1)*b**m - 1 lies inside the prefix, that block,
    truncated to m digits, must verify as a quality-u net (narrow reading).
    Blocks are visited with m ascending, then g ascending; the witness names
    the first failing (g, m) and embeds the net witness.
    """
    e = EVector.coerce(e)
    if u < 0:
        raise ParamError(f"u must be >= 0, got {u}")
    if m_max < 0:
        raise ParamError(f"m_max must be >= 0, got {m_max}")
    if m_max > prefix.precision:
        raise PrecisionError(f"m_max={m_max} exceeds the {prefix.precision} digits carried")
    b = prefix.base
    for m in range(u + 1, m_max + 1):
        block_len = b ** m
        g = 0
        while (g + 1) * block_len <= prefix.count:
            block = PointSet(b, prefix.digits[g * block_len : (g + 1) * block_len, :, :m])
            v = verify_net(block, u, e, "narrow")
            if not v:
                return Verdict(False, {"g": g, "m": m, "net_witness": dict(v.witness)})
            g += 1
    return Verdict(True)


def project(points: PointSet, coords: Iterable[int]) -> PointSet:
    """Restrict every point to the selected coordinates (0-based, distinct)."""
    sel = tuple(int(i) for i in coords)
    if not sel:
        raise ParamError("projection needs at least one coordinate")
    if len(set(sel)) != len(sel):
        raise ParamError(f"projection coordinates must be distinct, got {sel}")
    for i in sel:
        if not 0 <= i < points.dim:
            raise ParamError(f"coordinate {i} outside [0, {points.dim})")
    return PointSet(points.base, points.digits[:, sel, :])


def rebase_compress(points: PointSet, r: int) -> PointSet:
    """Group each run of r base-b digits into one base-b**r digit."""
    if r < 1:
        raise ParamError(f"group size must be >= 1, got {r}")
    if points.precision % r:
        raise ParamError(f"precision {points.precision} is not a multiple of {r}")
    if r == 1:
        return points
    n, s, m = points.digits.shape
    grouped = points.digits.reshape(n, s, m // r, r)
    powers = points.base ** np.arange(r - 1, -1, -1, dtype=np.int64)
    return PointSet(points.base ** r, grouped @ powers)


def rebase_expand(points: PointSet, r: int) -> PointSet:
    """Split each base-(b**r) digit into r base-b digits (inverse of compress)."""
    if r < 1:
        raise ParamError(f"group size must be >= 1, got {r}")
    if r == 1:
        return points
    # once r reaches the bit length of base, 2**r > base and no c >= 2 is a
    # root; checking that first keeps every power c**r tried below small
    if r >= points.base.bit_length():
        raise ParamError(f"base {points.base} is not a perfect {r}-th power")
    roots = range(2, points.base + 1)
    i = bisect.bisect_left(roots, points.base, key=lambda c: c ** r)
    if roots[i] ** r != points.base:
        raise ParamError(f"base {points.base} is not a perfect {r}-th power")
    base = roots[i]
    n, s, m = points.digits.shape
    flat = points.digits.reshape(n * s * m) if m else points.digits.reshape(0)
    expanded = digit_matrix(flat, r, base).reshape(n, s, m * r)
    return PointSet(base, expanded)
