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
one (``ooa``). Counting, whose one entry is ``_count``, bincounts every
point's box for each shape through ``_util.PrefixTable``. A point set P that
equals an F_b-subspace S up to a sparse correction P - S (a digital net over
a prime base, in any order, perhaps with a few wrong, missing or repeated
points) is decided by ranks instead. Where the basis columns of the first d_i
digits of every coordinate i are independent, S fills every cell of shape d
evenly, so the failing cells are those where the correction's weights do not
cancel. Where their rank r falls short of sum d, the zero cell holds the
b**(m - r) points of the kernel plus the correction there, and is the first
cell counting would report; only when that sum is the expected count after
all is that one shape counted. ``first_failure`` alone gates ranks by size.
"""

from __future__ import annotations

import bisect
import random
from typing import Literal, Sequence

import numpy as np

from ._util import (PrefixTable, canonical_beta, digit_matrix, is_power, is_prime,
                    maximal_depths, rank_rows, row_chunks, span, unrank)
from .core import EVector, PointSet, Verdict
from .errors import ParamError, PrecisionError

__all__ = [
    "check_shapes", "verify_net", "u_star",
    "verify_sequence_prefix", "rebase_compress", "rebase_expand",
]

Variant = Literal["narrow", "tezuka"]


def _check_variant(variant: str) -> None:
    if variant not in ("narrow", "tezuka"):
        raise ParamError(f"variant must be 'narrow' or 'tezuka', got {variant!r}")


def check_shapes(m: int, u: int, e: EVector | Sequence[int],
                 variant: Variant = "narrow") -> np.ndarray:
    """The shapes a verification run examines: the rows of a read-only (k, s)
    integer array in lexicographic order.

    A shape assigns each coordinate a depth d_i in {0, e_i, 2*e_i, ...}. The
    narrow reading checks the budget-maximal shapes, the walk's cached array:
    sum d_i <= m - u and no coordinate can take another e_i step within the
    budget, the depth profiles of the canonical ordered array scaled by e. The
    tezuka reading checks its rows whose depths sum to exactly m - u.
    """
    _check_variant(variant)
    e = EVector.coerce(e)
    shapes = maximal_depths(m - u, e.e, canonical_beta(m, u, e))
    if variant == "tezuka":
        shapes = shapes[shapes.sum(axis=1) == m - u]
        shapes.flags.writeable = False
    return shapes


def _check_net(points: PointSet, e: EVector | Sequence[int], variant: str) -> EVector:
    """Check the arguments every quality check shares; return e coerced."""
    e = EVector.coerce(e)
    _check_variant(variant)
    if e.s != points.dim:
        raise ParamError(f"e-vector has {e.s} entries, point set has {points.dim}")
    if not is_power(points.count, points.base, points.precision):
        raise ParamError(f"net candidates need base**m = {points.base}**{points.precision} "
                         f"points, got {points.count}")
    return e


# Rows drawn beyond m for the sample whose rank must be m: the members of a
# subspace among them span it except with probability about
# b**-_SAMPLE_EXTRA, and a sampled point off the subspace lifts the rank above
# m; either way counting decides the input.
_SAMPLE_EXTRA = 32

# Fixed cost of recovering a basis, in point-shapes counting decides meanwhile.
_RANK_OVERHEAD = 1 << 17


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
Failure = tuple[tuple[int, ...], int, int, int]


def _row_space(points: PointSet) -> Space | None:
    """An F_b-subspace S that the point set P equals up to a sparse
    correction: (basis, vectors, weights), or None when counting is to
    decide instead.

    The basis is a reduced m x (s*m) one whose row space is S. The correction
    P - S lists distinct digit vectors with nonzero weights: its multiplicity
    in P for a vector off S, and multiplicity - 1 for each member of S that P
    misses or repeats; it is empty exactly when P is S. None when b is not
    prime, when a fixed sample of rows has rank other than m, or when the
    correction grows too large to pay (``_correction_pays``). A point is a
    member when ``V == (V[:, pivots] @ B) % b``, checked a chunk of points at
    a time.
    """
    b = points.base
    n, s, m = points.digits.shape
    if not is_prime(b):
        return None
    flat = points.digits.reshape(n, s * m)
    sample = flat[_sample_rows(n, m)][None].astype(np.int64)
    where = _eliminate(sample, b)[0]
    pivots = np.flatnonzero(where >= 0)
    if len(pivots) != m:
        return None
    basis = sample[0, where[pivots]]
    # a point's pivot digits are its coefficients in the basis, so their
    # base-b rank names its combination; the high and low parts of the rank
    # index two tables, the spans of the first h basis rows and of the rest,
    # whose entries sum to the combination
    h = m // 2
    dtype = np.min_scalar_type(2 * b - 1)  # unsigned; a sum of two entries fits
    high, low = (span(part, b).astype(dtype, copy=False) for part in (basis[:h], basis[h:]))
    low_cells = b ** (m - h)

    def combination(key: np.ndarray) -> np.ndarray:
        total = high[key // low_cells]
        total += low[key % low_cells]
        # a sum below b wraps above it when b is subtracted, so the smaller is the sum mod b
        return np.minimum(total, total - dtype.type(b), out=total)

    seen = np.zeros(n, dtype=bool)
    outside = [flat[:0]]  # points off the span
    again: list[np.ndarray] = []  # keys of members met before, once per repeat
    # each point off the span or repeated leaves one member missing, so the
    # correction holds at least as many entries as there are such points
    leaving = 0
    for rows in row_chunks(n, s * m):
        v = flat[rows]
        key = rank_rows(v[:, pivots], [b] * m)
        total = combination(key)
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
    vectors = np.concatenate([combination(np.concatenate([missing, repeated])),
                              strays]).astype(np.int64)
    weights = np.concatenate([np.full(len(missing), -1), extra, copies])
    return basis, vectors, weights


def _eliminate(stack: np.ndarray, b: int) -> np.ndarray:
    """Gauss-Jordan elimination over F_b, in place, of each matrix of a
    (k, rows, cols) stack with entries in [0, b): column by column, the first
    unused row with a nonzero entry there is scaled to 1 there and clears the
    column in every other row, until no unused row is nonzero. Returns each
    column's pivot row, -1 where none, as a (k, cols) array: a matrix's rank
    is its count of pivots, and its pivot rows in column order are its
    reduced row echelon form."""
    k, r, cols = stack.shape
    inverse = np.array([0] + [pow(x, -1, b) for x in range(1, b)], dtype=np.int64)
    used = np.zeros((k, r), dtype=bool)
    where = np.full((k, cols), -1)
    every = np.arange(k)
    for c in range(cols):
        live = (stack[:, :, c] != 0) & ~used
        row = live.argmax(axis=1)
        found = live[every, row]
        if not found.any():
            if not stack[~used].any():
                break
            continue
        pivot = stack[every, row]
        pivot = pivot * inverse[pivot[:, c]][:, None] % b  # zero where none is live
        stack -= stack[:, :, c, None] * pivot[:, None, :]
        stack %= b
        stack[every[found], row[found]] = pivot[found]
        used[every, row] |= found
        where[found, c] = row[found]
    return where


def _ranks(basis: np.ndarray, b: int, depths: np.ndarray, sums: np.ndarray) -> np.ndarray:
    """Rank over F_b of each shape's basis columns, for a chunk of shapes
    given as a (shapes, s) array of depths and their sums.

    Shape d takes columns i*m + l, l < d_i, of the m x (s*m) basis. The
    chunk packs them as the rows of a (shapes, sum d, m) stack and
    eliminates it.
    """
    k, s = depths.shape
    m = basis.shape[0]
    width = int(sums.max())
    if width == 0:  # only the empty shape, which takes no column
        return np.zeros(k, dtype=np.int64)
    taken = (np.arange(m) < depths[:, :, None]).reshape(k, s * m)
    # the taken columns first, in order; rows past sum d zeroed
    order = np.argsort(~taken, axis=1, kind="stable")[:, :width]
    stack = basis.T[order]
    stack[np.arange(width) >= sums[:, None]] = 0
    return (_eliminate(stack, b) >= 0).sum(axis=1)


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


def _count(points: PointSet, e: EVector, shapes: np.ndarray) -> Failure | None:
    """The first failure among ``shapes``, by counting every point's box in a
    table as deep as the deepest coordinate of any of them."""
    depth = int(shapes.max(initial=0))
    return PrefixTable.of_digits(points.digits, points.base, e, depth).first_failure(shapes)


def _ranked_failure(points: PointSet, e: EVector, shapes: np.ndarray,
                    space: Space) -> Failure | None:
    """The first failing shape, decided by ranks of the recovered subspace S
    and its correction; None on a pass.

    Where shape d's columns have full rank, S puts ``expected`` points in
    every cell, so the failing cells are those where the correction's net
    weight is nonzero. Where the rank r falls short of sum d, S puts b**(m -
    r) points in cell 0, the first cell; when the correction there makes
    that ``expected`` after all, ``_count`` decides the shape.
    """
    basis, vectors, weights = space
    b = points.base
    n, s, m = points.digits.shape
    # the rank stack and a few int64 arrays of the correction's cells per shape
    for chunk in row_chunks(len(shapes), m * max(m, s) + 4 * len(weights)):
        depths = shapes[chunk].astype(np.int64, copy=False)  # each d_i <= m
        sums = depths.sum(axis=1)
        ranks = _ranks(basis, b, depths, sums)
        lowest, excess, at_zero = _net_weights(_cells(vectors, b, depths), weights, n)
        for k in np.flatnonzero((ranks < sums) | (lowest >= 0)):
            shape, expected = tuple(depths[k].tolist()), b ** (m - int(sums[k]))
            if ranks[k] == sums[k]:
                return shape, int(lowest[k]), expected + int(excess[k]), expected
            observed = b ** (m - int(ranks[k])) + int(at_zero[k])
            if observed != expected:
                return shape, 0, observed, expected
            failure = _count(points, e, depths[k : k + 1])
            if failure is not None:
                return failure
    return None


def _decide(points: PointSet, e: EVector, shapes: np.ndarray,
            space: Space | None) -> Failure | None:
    """The first failure among ``shapes``: by ranks of a subspace and its
    correction when ``space`` gives them, else by counting."""
    return (_count(points, e, shapes) if space is None
            else _ranked_failure(points, e, shapes, space))


def first_failure(points: PointSet, e: EVector, shapes: np.ndarray) -> Failure | None:
    """The first row of a (k, s) shape array with a box not holding b**(m - sum d)
    points, as (shape in Python ints, box index rank, observed, expected), or None:
    by ranks where n * k point-shapes cost more to count than a recovery
    (``_RANK_OVERHEAD``) and ``_row_space`` recovers a subspace, else by counting."""
    gate = points.count * len(shapes) > _RANK_OVERHEAD
    return _decide(points, e, shapes, _row_space(points) if gate else None)


def verify_net(points: PointSet, u: int, e: EVector | Sequence[int],
               variant: Variant = "narrow") -> Verdict:
    """Check the quality-u equidistribution property on the checked shapes.

    Requires exactly base**precision points. The verdict's witness (on
    failure) names the first offending shape and box in lexicographic
    enumeration order; no later shape is examined.
    """
    e = _check_net(points, e, variant)
    failure = first_failure(points, e, check_shapes(points.precision, u, e, variant))
    if failure is None:
        return Verdict(True)
    shape, cell, observed, expected = failure
    box = unrank(cell, [points.base ** d for d in shape])
    return Verdict(False, {"shape": list(shape), "box": box,
                           "observed": observed, "expected": expected})


def u_star(points: PointSet, e: EVector | Sequence[int], variant: Variant = "narrow") -> int:
    """Smallest u at which the point set verifies; u = m always passes.

    Raising u only drops narrow shapes, so a narrow pass at u holds at every
    v >= u. The narrow search reads the cheapest lists first: it tries
    u = m - 1, m - 3, m - 7, ..., each pass doubling the m - u + 1 values it
    settles, until a list fails or u = 0 passes, then bisects. The tezuka
    reading replaces its shapes as u grows, so it tries u = 0, 1, ... in
    turn. ``_row_space`` recovers a subspace once, before the first list.
    """
    e = _check_net(points, e, variant)
    m = points.precision
    space = _row_space(points)
    lo, hi = 0, m  # the least pass lies in [lo, hi]; lo > 0 once a list failed
    while lo < hi:  # until then each narrow pass doubles the m - hi + 1 values settled
        u = lo if variant == "tezuka" else (lo + hi) // 2 if lo else max(0, 2 * hi - m - 1)
        if _decide(points, e, check_shapes(m, u, e, variant), space) is None:
            hi = u
        else:
            lo = u + 1
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
        if block_len > prefix.count:  # no block is complete at this m or a larger one
            break
        for g in range(prefix.count // block_len):
            block = PointSet(b, prefix.digits[g * block_len : (g + 1) * block_len, :, :m])
            v = verify_net(block, u, e, "narrow")
            if not v:
                return Verdict(False, {"g": g, "m": m, "net_witness": dict(v.witness)})
    return Verdict(True)


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
        raise ParamError(f"base {points.base} is not an integer raised to the power {r}")
    roots = range(2, points.base + 1)
    i = bisect.bisect_left(roots, points.base, key=lambda c: c ** r)
    if roots[i] ** r != points.base:
        raise ParamError(f"base {points.base} is not an integer raised to the power {r}")
    base = roots[i]
    n, s, m = points.digits.shape
    flat = points.digits.reshape(n * s * m) if m else points.digits.reshape(0)
    expanded = digit_matrix(flat, r, base).reshape(n, s, m * r)
    return PointSet(base, expanded)
