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

Two routes decide the same shapes with the same verdict and witness, for a
point set and, through ``first_failure``, for the ordered array that encodes
one (``ooa``). Counting bincounts every point's box for each shape through
``_util.PrefixTable``. A point set P that equals an F_b-subspace S up to a
sparse correction P - S (a digital net over a prime base, in any order,
perhaps with a few wrong, missing or repeated points) is decided by ranks
instead. Where the basis columns of the first d_i digits of every coordinate
i are independent, S fills every cell of shape d evenly, so the failing cells
are those where the correction's weights do not cancel. Where their rank r
falls short of sum d, the zero cell holds the b**(m - r) points of the kernel
plus the correction there, and is the first cell counting would report; only
when that sum is the expected count after all is the shape counted. The rank
route is taken only where counting would touch more digits than recovering
the basis from the points does, and only while placing the correction costs
less than counting.
"""

from __future__ import annotations

import bisect
import random
from functools import lru_cache
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from ._util import (PrefixTable, digit_matrix, digit_window, is_prime, rank_rows,
                    row_chunks, unrank)
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
    return list(_shapes(m, u, EVector.coerce(e).e, variant))


@lru_cache(maxsize=32)
def _shapes(m: int, u: int, e: tuple[int, ...], variant: Variant) -> tuple[Shape, ...]:
    """The checked shapes, computed once per parameter set: a verification
    and its report both ask for them."""
    shapes = [tuple(k * ei for k, ei in zip(kappa, e))
              for kappa in enumerate_profiles(m, u, e, canonical_beta(m, u, e))]
    if variant == "narrow":
        return tuple(shapes)
    return tuple(d for d in shapes if sum(d) == m - u)


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


# Rows drawn beyond m for the sample whose rank must be m: the members of a
# subspace among them span it except with probability about
# b**-_SAMPLE_EXTRA, and a sampled point off the subspace lifts the rank above
# m; either way counting decides the input.
_SAMPLE_EXTRA = 32

# Fixed cost of recovering a basis, in digits counting could scan meanwhile.
_RANK_OVERHEAD = 1 << 17


def _rank_pays(points: PointSet, shapes: int) -> bool:
    """Whether counting ``shapes`` shapes over every point touches more digits
    than recovering a basis: one pass over the digits, plus a fixed cost."""
    n, s, m = points.digits.shape
    return n * shapes > n * s * m + _RANK_OVERHEAD


def _correction_pays(points: PointSet, size: int) -> bool:
    """Whether placing ``size`` correction entries in a shape's cells touches
    fewer digits than counting the shape: s*m digits an entry, one a point."""
    n, s, m = points.digits.shape
    return size * s * m < n


def _sample_rows(n: int, m: int) -> list[int]:
    """The fixed rows whose reduction gives the basis."""
    return random.Random(0).sample(range(n), min(n, m + _SAMPLE_EXTRA))


# (basis, correction vectors, their weights), as ``_row_space`` recovers them
Space = tuple[np.ndarray, np.ndarray, np.ndarray]

# (shape, cell, observed, expected): the first non-uniform cell of a shape
Failure = tuple[Shape, int, int, int]


def _row_space(points: PointSet) -> Space | None:
    """An F_b-subspace S that the point set P equals up to a sparse
    correction: (basis, vectors, weights), or None when there is none.

    The basis is a reduced m x (s*m) one whose row space is S. The correction
    P - S lists distinct digit vectors with nonzero weights: its multiplicity
    in P for a vector off S, and multiplicity - 1 for each member of S that P
    misses or repeats; it is empty exactly when P is S. None when b is not
    prime, when a fixed sample of rows has rank other than m, or when the
    correction grows too large to pay (``_correction_pays``). A point is a
    member when ``V == (V[:, pivots] @ B) % b``, checked a chunk of points
    at a time.
    """
    b = points.base
    n, s, m = points.digits.shape
    if not is_prime(b):
        return None
    flat = points.digits.reshape(n, s * m)
    basis, pivots = _reduce(flat[_sample_rows(n, m)].astype(np.int64), b, m)
    if basis is None:
        return None
    # a point's pivot digits are its coefficients in the basis, so their
    # base-b rank names its combination; the high and low parts of the rank
    # index two tables, the spans of the first h basis rows and of the rest,
    # whose entries sum to the combination
    h = m // 2
    dtype = np.min_scalar_type(2 * b - 1)  # unsigned; a sum of two entries fits
    high, low = _span(basis[:h], b, dtype), _span(basis[h:], b, dtype)
    low_cells = b ** (m - h)
    seen = np.zeros(n, dtype=bool)
    outside = [flat[:0]]  # points off the span
    again: list[np.ndarray] = []  # keys of members met before, once per repeat
    # each point off the span or repeated leaves one member missing, so the
    # correction holds at least as many entries as there are such points
    leaving = 0
    for rows in row_chunks(n, s * m):
        v = flat[rows]
        key = rank_rows(v[:, pivots], [b] * m)
        total = high[key // low_cells]
        total += low[key % low_cells]
        # a sum below b wraps above it when b is subtracted, so the smaller is the sum mod b
        np.minimum(total, total - dtype.type(b), out=total)
        if not np.array_equal(total, v):
            member = (total == v).all(axis=1)
            outside.append(v[~member])
            key = key[member]
        key.sort()
        repeat = seen[key]
        repeat[1:] |= key[1:] == key[:-1]
        seen[key] = True
        again.append(key[repeat])
        leaving += rows.stop - rows.start - len(key) + len(again[-1])
        if not _correction_pays(points, leaving):
            return None
    missing = np.flatnonzero(~seen)
    repeated, extra = np.unique(np.concatenate(again), return_counts=True)
    strays, copies = np.unique(np.concatenate(outside), axis=0, return_counts=True)
    if not _correction_pays(points, len(missing) + len(repeated) + len(strays)):
        return None
    members = digit_matrix(np.concatenate([missing, repeated]), m, b).astype(np.int64) @ basis % b
    vectors = np.concatenate([members, strays.astype(np.int64)])
    weights = np.concatenate([np.full(len(missing), -1), extra, copies])
    return basis, vectors, weights


def _reduce(rows: np.ndarray, b: int, m: int) -> tuple[np.ndarray | None, list[int]]:
    """Reduced row echelon form over F_b of ``rows`` (entries in [0, b)),
    stopping once m pivots are found: (the m pivot rows, their pivot columns),
    or (None, []) when the rank is not m."""
    r, pivots = 0, []
    for c in range(rows.shape[1]):
        if r == m:
            break
        below = np.flatnonzero(rows[r:, c])
        if below.size == 0:
            continue
        p = r + int(below[0])
        rows[[r, p]] = rows[[p, r]]
        rows[r] = rows[r] * pow(int(rows[r, c]), -1, b) % b
        factors = rows[:, c].copy()
        factors[r] = 0
        rows -= np.outer(factors, rows[r])
        rows %= b
        pivots.append(c)
        r += 1
    if r < m or rows[m:].any():
        return None, []
    return rows[:m], pivots


def _span(rows: np.ndarray, b: int, dtype: type) -> np.ndarray:
    """Every combination of ``rows`` over F_b, the first row's coefficient
    most significant: entry k holds the combination whose coefficients are
    the base-b digits of k."""
    span = np.zeros((1, rows.shape[1]), dtype=np.int64)
    for row in rows:
        span = (span[:, None, :] + np.arange(b)[None, :, None] * row) % b
        span = span.reshape(-1, rows.shape[1])
    return span.astype(dtype)


def _ranks(columns: np.ndarray, b: int, depths: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Rank over F_b of each shape's basis columns, for a chunk of shapes
    given as a (shapes, s) array of depths and their sums.

    Shape d takes columns i*m + l, l < d_i, of the m x (s*m) basis, which
    are the rows of ``columns``. The chunk packs them as the rows of a
    (shapes, sum d, m) stack and eliminates over F_b all at once: each step
    takes, per shape, a row not yet used with a nonzero entry in the step's
    position, scales it to 1 there and clears that position in every row.
    The rank is the count of steps that found a row.
    """
    k, s = depths.shape
    m = columns.shape[1]
    width = int(sums.max())
    if width == 0:  # only the empty shape, which takes no column
        return np.zeros(k, dtype=np.int64)
    taken = (np.arange(m) < depths[:, :, None]).reshape(k, s * m)
    # the taken columns first, in order; rows past sum d zeroed
    order = np.argsort(~taken, axis=1, kind="stable")[:, :width]
    stack = columns[order]
    stack[np.arange(width) >= sums[:, None]] = 0
    inverse = np.array([0] + [pow(x, -1, b) for x in range(1, b)], dtype=np.int64)
    used = np.zeros(stack.shape[:2], dtype=bool)
    every = np.arange(k)
    for c in range(m):
        live = (stack[:, :, c] != 0) & ~used
        row = live.argmax(axis=1)
        pivot = stack[every, row]
        pivot = pivot * inverse[pivot[:, c]][:, None] % b  # zero where none is live
        stack -= stack[:, :, c, None] * pivot[:, None, :]
        stack %= b
        used[every, row] |= live[every, row]
    return used.sum(axis=1)


def _cells(vectors: np.ndarray, b: int, depths: np.ndarray) -> np.ndarray:
    """The cell of every digit vector in every shape of a chunk, as the
    (shapes, vectors) array of the mixed-radix ranks counting uses: digit l
    of coordinate i, l < d_i, weighs b**(d_i - 1 - l + the sum of d_j, j > i)."""
    k, s = depths.shape
    m = vectors.shape[1] // s
    later = depths[:, ::-1].cumsum(axis=1)[:, ::-1] - depths
    power = (depths + later - 1)[:, :, None] - np.arange(m)
    place = np.where(power >= later[:, :, None], b ** np.maximum(power, 0), 0)
    return place.reshape(k, s * m) @ vectors.T


def _net_weights(cells: np.ndarray, weights: np.ndarray, bound: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of ``cells`` (each entry's cell under one shape, all below
    ``bound``), summing ``weights`` by cell: the lowest cell whose sum is
    nonzero, or -1; that sum, or 0; and the sum at cell 0."""
    k = cells.shape[0]
    lowest, excess, at_zero = np.full(k, -1), np.zeros(k, np.int64), np.zeros(k, np.int64)
    if not weights.size:
        return lowest, excess, at_zero
    # one key per (shape, cell), so one sort groups every shape's cells in order
    keys = (cells + bound * np.arange(k)[:, None]).ravel()
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    sums = np.add.reduceat(np.tile(weights, k)[order], starts)
    row, cell = np.divmod(keys[starts], bound)
    zero = cell == 0
    at_zero[row[zero]] = sums[zero]
    bad = np.flatnonzero(sums)
    rows, first = np.unique(row[bad], return_index=True)
    lowest[rows], excess[rows] = cell[bad[first]], sums[bad[first]]
    return lowest, excess, at_zero


def _ranked_failure(points: PointSet, shapes: Sequence[Shape], space: Space,
                    count: Callable[[Sequence[Shape]], Failure | None]) -> Failure | None:
    """The first failing shape, decided by ranks of the recovered subspace S
    and its correction; None on a pass.

    Where shape d's columns have full rank, S puts ``expected`` points in
    every cell, so the failing cells are those where the correction's net
    weight is nonzero. Where the rank r falls short of sum d, S puts b**(m -
    r) points in cell 0, the first cell; when the correction there makes
    that ``expected`` after all, ``count`` decides the shape.
    """
    basis, vectors, weights = space
    b = points.base
    n, s, m = points.digits.shape
    columns = basis.T.astype(np.int64)  # row i*m + l: basis column i*m + l
    # the rank stack and a few int64 arrays of the correction's cells per shape
    for chunk in row_chunks(len(shapes), m * max(m, s) + 4 * len(weights)):
        depths = np.array(shapes[chunk], dtype=np.int64).reshape(-1, s)
        sums = depths.sum(axis=1)
        ranks = _ranks(columns, b, depths, sums)
        lowest, excess, at_zero = _net_weights(_cells(vectors, b, depths), weights, n)
        for k in np.flatnonzero((ranks < sums) | (lowest >= 0)):
            shape, expected = shapes[chunk.start + k], b ** (m - int(sums[k]))
            if ranks[k] == sums[k]:
                return shape, int(lowest[k]), expected + int(excess[k]), expected
            observed = b ** (m - int(ranks[k])) + int(at_zero[k])
            if observed != expected:
                return shape, 0, observed, expected
            failure = count([shape])
            if failure is not None:
                return failure
    return None


def _decide(points: PointSet, u: int, e: EVector, shapes: Sequence[Shape],
            space: Space | None) -> Failure | None:
    """The first failure among the quality-u ``shapes``: by ranks of a
    subspace and its correction when ``space`` gives them, else by counting
    every point's box."""
    table = None

    def count(some: Sequence[Shape]) -> Failure | None:
        nonlocal table
        if table is None:
            table = PrefixTable.of_digits(points.digits, points.base, e, points.precision - u)
        return table.first_failure(some)

    return count(shapes) if space is None else _ranked_failure(points, shapes, space, count)


def first_failure(points: PointSet, u: int, e: EVector,
                  shapes: Sequence[Shape]) -> Failure | None:
    """The first of the quality-u ``shapes`` with a box not holding b**(m - sum d)
    points, as (shape, box index rank, observed, expected), or None: by ranks
    when counting would pay for the recovery, else by counting."""
    space = _row_space(points) if _rank_pays(points, len(shapes)) else None
    return _decide(points, u, e, shapes, space)


def verify_net(points: PointSet, u: int, e: EVector | Sequence[int],
               variant: Variant = "narrow") -> Verdict:
    """Check the quality-u equidistribution property on the checked shapes.

    Requires exactly base**precision points. The verdict's witness (on
    failure) names the first offending shape and box in lexicographic
    enumeration order; no later shape is examined.
    """
    e = _check_net(points, e, variant)
    m = points.precision
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    failure = first_failure(points, u, e, check_shapes(m, u, e, variant))
    if failure is None:
        return Verdict(True)
    shape, cell, observed, expected = failure
    box = unrank(cell, [points.base ** d for d in shape])
    return Verdict(False, {"shape": list(shape), "box": box,
                           "observed": observed, "expected": expected})


def u_star(points: PointSet, e: EVector | Sequence[int], variant: Variant = "narrow") -> int:
    """Smallest u at which the point set verifies; u = m always passes.

    The narrow reading is bisected: raising u only shrinks the set of checked
    shapes, so passing at u implies passing at every v >= u. The tezuka
    reading replaces the shape set rather than shrinking it, so it tries
    u = 0, 1, ... in turn and stops at the first pass. A subspace and its
    correction are recovered once for the rank route, when counting the
    u = 0 shapes would pay for it.
    """
    e = _check_net(points, e, variant)
    m = points.precision
    pays = m > 0 and _rank_pays(points, len(check_shapes(m, 0, e)))
    space = _row_space(points) if pays else None
    lo, hi = 0, m
    while lo < hi:
        mid = (lo + hi) // 2 if variant == "narrow" else lo
        if _decide(points, mid, e, check_shapes(m, mid, e, variant), space) is None:
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
    if e.s != prefix.dim:
        raise ParamError(f"e-vector has {e.s} entries, point set has {prefix.dim}")
    if u < 0:
        raise ParamError(f"u must be >= 0, got {u}")
    if m_max < 0:
        raise ParamError(f"m_max must be >= 0, got {m_max}")
    if m_max > prefix.precision:
        raise PrecisionError(f"m_max={m_max} exceeds the {prefix.precision} digits carried")
    b = prefix.base
    for m in range(u + 1, m_max + 1):
        block_len = b ** m
        for g in range(prefix.count // block_len):
            block = PointSet(b, prefix.digits[g * block_len : (g + 1) * block_len, :, :m])
            v = verify_net(block, u, e, "narrow")
            if not v:
                return Verdict(False, {"g": g, "m": m, "net_witness": dict(v.witness)})
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
