"""Deterministic point-set generators and a desk-scale existence search."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Sequence

import numpy as np

from ._util import (_BYTES_CAP, PrefixTable, canonical_beta, digit_dtype, is_prime,
                    maximal_depths, row_chunks, span)
from .core import EVector, PointSet
from .errors import ParamError

__all__ = [
    "grid_1d", "hammersley", "faure", "digital_net",
    "random_pointset", "flip_digit", "SearchResult", "search_net",
]

# Keep exhaustive searches at desk scale: candidate points per placement.
_SEARCH_CANDIDATE_CAP = 1 << 16


def _check_bm(b: int, m: int, s: int) -> None:
    """Reject a bad base or precision, and b**m points of s coordinates whose
    digit tensor would pass the byte cap, before anything is allocated."""
    if b < 2:
        raise ParamError(f"base must be >= 2, got {b}")
    if m < 0:
        raise ParamError(f"m must be >= 0, got {m}")
    b, m, s = int(b), int(m), int(s)
    if m * (b.bit_length() - 1) > 64:  # b**m >= 2**64: skip the huge power
        size = f"over 2**{m * (b.bit_length() - 1)}"
    else:
        size = b ** m * s * m * np.dtype(digit_dtype(b)).itemsize
        if size <= _BYTES_CAP:
            return
    raise ParamError(f"{b}**{m} points with s={s}, m={m} need {size} bytes of digits, "
                     f"above the cap of {_BYTES_CAP} bytes")


def _digital(b: int, matrices: Sequence[np.ndarray]) -> PointSet:
    """The b**m points whose coordinate i has the digits C_i @ (digits of n)
    mod b: the span of the rows of [C_1^T | ... | C_s^T], in the order of n."""
    rows = np.concatenate([c.T for c in matrices], axis=1)  # m of them
    return PointSet(b, span(rows, b).reshape(b ** len(rows), len(matrices), len(rows)))


def grid_1d(b: int, m: int) -> PointSet:
    """The one-dimensional grid n / b**m for n = 0, ..., b**m - 1."""
    _check_bm(b, m, 1)
    return _digital(b, [np.eye(m, dtype=np.int64)])


def hammersley(b: int, m: int) -> PointSet:
    """Two dimensions: digit-reversed n paired with n / b**m."""
    _check_bm(b, m, 2)
    identity = np.eye(m, dtype=np.int64)
    return _digital(b, [identity[::-1], identity])


def digital_net(b: int, matrices: Sequence[np.ndarray]) -> PointSet:
    """Point set generated by one m x m matrix over Z_b per coordinate.

    Coordinate i of point n carries the digits C_i @ (digits of n, most
    significant first) mod b. The identity matrix in one dimension yields the
    plain grid; the anti-diagonal matrix yields the digit-reversed (radical
    inverse) ordering.
    """
    if not is_prime(b):
        raise ParamError(f"digital construction needs a prime base, got {b}")
    mats = [np.asarray(c, dtype=np.int64) for c in matrices]
    if not mats:
        raise ParamError("need at least one generating matrix")
    m = mats[0].shape[0]
    for i, c in enumerate(mats):
        if c.shape != (m, m):
            raise ParamError(f"matrix {i} has shape {c.shape}, expected {(m, m)}")
        if c.size and (c.min() < 0 or c.max() >= b):
            raise ParamError(f"matrix {i} entries must lie in [0, {b})")
    _check_bm(b, m, len(mats))
    return _digital(b, mats)


def faure(b: int, m: int, s: int) -> PointSet:
    """Pascal-matrix digital construction: coordinate i uses P**i mod b.

    Needs a prime base with s <= b. One dimension reduces to a reordered
    grid; the full construction has quality u = 0 at unit resolution.
    """
    _check_bm(b, m, s)
    if not is_prime(b):
        raise ParamError(f"Pascal construction needs a prime base, got {b}")
    if not 1 <= s <= b:
        raise ParamError(f"need 1 <= s <= base, got s={s}, base={b}")
    pascal = np.array([[comb(c, r) % b for c in range(m)] for r in range(m)], dtype=np.int64)
    mats = [np.eye(m, dtype=np.int64)]
    while len(mats) < s:
        mats.append(mats[-1] @ pascal.reshape(m, m) % b)
    return _digital(b, mats)


def random_pointset(b: int, m: int, s: int, seed: int) -> PointSet:
    """b**m points with independently uniform digits, reproducible from a seed
    >= 0."""
    _check_bm(b, m, s)
    if s < 1:
        raise ParamError(f"need at least one coordinate, got s={s}")
    if seed < 0:
        raise ParamError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    digits = np.empty((b ** m, s, m), dtype=digit_dtype(b))
    # int64 draws, chunk after chunk, continue one stream: every seed gives
    # the digits one (b**m, s, m) draw gave
    for rows in row_chunks(b ** m, s * m):
        digits[rows] = rng.integers(0, b, size=digits[rows].shape, dtype=np.int64)
    return PointSet(b, digits)


def flip_digit(points: PointSet, n: int, i: int, l: int) -> PointSet:
    """Copy with digit (n, i, l) incremented by 1 modulo the base."""
    if not (0 <= n < points.count and 0 <= i < points.dim
            and 0 <= l < points.precision):
        raise IndexError(f"digit ({n}, {i}, {l}) out of range")
    digits = points.digits.copy()
    digits[n, i, l] = (int(digits[n, i, l]) + 1) % points.base
    return PointSet(points.base, digits)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an existence search.

    ``status`` is 'found' (with a verified net), 'nonexistent' (the canonical
    search space was exhausted), or 'inconclusive' (the node limit was hit).
    """

    status: str
    net: PointSet | None
    nodes: int

    def __bool__(self) -> bool:
        return self.status == "found"


def _verified(found: PointSet, u: int, e: EVector) -> PointSet:
    """``found``, re-verified as a quality-u net; raised rather than asserted,
    so that ``python -O`` keeps the check."""
    from .netverify import verify_net  # only a found net loads the verifier
    verdict = verify_net(found, u, e)
    if not verdict:
        raise AssertionError(f"search found a set that is not a net: {verdict.witness}")
    return found


def search_net(b: int, m: int, e: EVector | Sequence[int], s: int, u: int,
               node_limit: int | None = None) -> SearchResult:
    """Backtracking existence search for a quality-u net, desk scale only.

    Candidate points are ranked by their concatenated digit string. Two
    soundness-preserving symmetry reductions shrink the space: the box
    structure is invariant under digit-wise translation, so the first point
    can be fixed to the origin, and the property only concerns the point
    multiset, so placements are forced nondecreasing. Exhausting the reduced
    space therefore proves nonexistence. Any returned net is re-verified
    before being reported.

    Each placement takes one unit of room from its box of every
    budget-maximal shape. A box left without room blocks its members: a
    bitset holds the free candidates (those in no full box), and the members
    a placement blocks are logged with it, so that removing the point
    restores the bitset exactly. Since placements are nondecreasing, a
    placement blocks only the members from its own rank on. A frame of the
    depth-first search is one cursor, and its next placement is the lowest
    free candidate at or past the cursor. Every box fills at most once along
    a path, so the log never holds more than one member set per box, and the
    memory does not grow with the depth of the search.
    """
    e = EVector.coerce(e)
    if e.s != s:
        raise ParamError(f"e-vector has {e.s} entries, expected s={s}")
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    _check_bm(b, m, s)
    if node_limit is not None and node_limit < 0:
        raise ParamError(f"node limit must be >= 0, got {node_limit}")
    if u == m:  # the first b**m candidates, the span of the last m unit vectors
        grid = span(np.eye(m * s, dtype=np.int64)[m * s - m :], b).reshape(b ** m, s, m)
        return SearchResult("found", _verified(PointSet(b, grid), u, e), 0)

    # b**(m*s) >= 2**(m*s*(bit length - 1)), so a huge space is refused unbuilt
    if (m * s * (b.bit_length() - 1) >= _SEARCH_CANDIDATE_CAP.bit_length()
            or b ** (m * s) > _SEARCH_CANDIDATE_CAP):
        raise ParamError(f"search space of {b}**{m * s} candidate points exceeds "
                         f"the desk-scale cap of {_SEARCH_CANDIDATE_CAP}")
    n_candidates = b ** (m * s)
    n_points = b ** m
    shapes = maximal_depths(m - u, e.e, canonical_beta(m, u, e))  # check_shapes's list
    cand_digits = span(np.eye(m * s, dtype=np.int64), b).reshape(n_candidates, s, m)

    # box_key[c, j]: flattened box index of candidate c under shape j, with
    # per-shape offsets so one room list serves all shapes.
    offsets = []
    room: list[int] = []  # per box, how many more points it takes
    for depth in shapes.sum(axis=1).tolist():  # Python ints: b ** depth must not wrap
        offsets.append(len(room))
        room += [b ** (m - depth)] * b ** depth
    table = PrefixTable.of_digits(cand_digits, b, e, m - u)
    # the narrowest unsigned dtype that holds every box index
    box_key = np.zeros((n_candidates, len(shapes)), dtype=np.min_scalar_type(len(room) - 1))
    for j, d in enumerate(shapes):
        box_key[:, j] = table.keys(d.tolist())
        box_key[:, j] += offsets[j]  # below len(room), so it fits
    # A box of shape j fixes the same leading digits as the origin's box,
    # which holds the candidates with those digits zero; adding a box's
    # fixed digits carries nowhere, so every box is the origin's box shifted
    # by its lowest member. members[j] is the origin's box as a bitset and
    # lowest[k] the shift of box k.
    members = [int.from_bytes(np.packbits(box_key[:, j] == offsets[j],
                                          bitorder="little").tobytes(), "little")
               for j in range(len(shapes))]
    lowest = np.concatenate([np.unique(box_key[:, j], return_index=True)[1]
                             for j in range(len(shapes))]).tolist()
    free = (1 << n_candidates) - 1
    # Per placed point c, the candidates from c on that its full boxes took
    # from free, shifted down by c.
    cleared: list[int] = []
    chosen: list[int] = []
    # One cursor per frame, in a list so deep searches cannot hit the
    # interpreter recursion limit. Removing a child restores its frame's state
    # exactly, so a frame visits, in order, the candidates free when it opened.
    cursors: list[int] = []
    nodes = 0
    c = 0  # canonical origin; every box has room for at least one point
    while True:
        if node_limit is not None and nodes >= node_limit:
            return SearchResult("inconclusive", None, nodes)
        nodes += 1
        rest = high = free >> c  # the candidates from c on
        for k, bits in zip(box_key[c].tolist(), members):
            room[k] -= 1
            if not room[k]:  # box k holds c, so lowest[k] <= c
                rest &= ~(bits >> (c - lowest[k]))
        taken = high ^ rest
        free ^= taken << c
        cleared.append(taken)
        chosen.append(c)
        if len(chosen) == n_points:
            found = PointSet(b, cand_digits[np.asarray(chosen, dtype=np.int64)])
            return SearchResult("found", _verified(found, u, e), nodes)
        cursors.append(c)
        while not rest:
            cursors.pop()
            c = chosen.pop()
            free |= cleared.pop() << c
            for k in box_key[c].tolist():
                room[k] += 1
            if not cursors:
                return SearchResult("nonexistent", None, nodes)
            rest = free >> cursors[-1]
        c = cursors[-1] + (rest & -rest).bit_length() - 1
        cursors[-1] = c + 1
