"""Bridge from digital point sets to mixed orthogonal arrays.

Truncating coordinate i of a point to its first e_i digits yields a symbol in
an alphabet of size b**e_i. Collecting these symbols row by row turns a point
set into a mixed-level array; a quality-u net with enough digit budget
(m >= u + sum of the t largest e_i, here used with u = 0) yields strength t
with every t-tuple appearing exactly b**(m - sum of the selected e_i) times.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

import numpy as np

from ._util import _first_nonuniform, digit_dtype, digit_window, rank_rows, unrank
from .core import EVector, MixedOA, PointSet, Verdict
from .errors import ParamError, PrecisionError

__all__ = ["net_to_moa", "verify_moa", "max_strength"]


def net_to_moa(points: PointSet, e: EVector | Sequence[int]) -> MixedOA:
    """Extract the leading e_i digits of each coordinate as array columns.

    Pure digit extraction: the input need not satisfy any net property (the
    claimed strength of the result is left at 0; verify separately).
    """
    e = EVector.coerce(e)
    if e.s != points.dim:
        raise ParamError(f"e-vector has {e.s} entries, point set has {points.dim}")
    if points.precision < max(e):
        raise PrecisionError(f"need at least {max(e)} digits, point set carries "
                             f"{points.precision}")
    b = points.base
    alphabets = tuple(b ** ei for ei in e)
    rows = np.empty((points.count, e.s), dtype=digit_dtype(max(alphabets)))
    for i, ei in enumerate(e):
        digit_window(points.digits, i, 0, ei, b, rows[:, i])
    return MixedOA(alphabets, rows, strength=0)


def _subset_witness(array: MixedOA, columns: tuple[int, ...]) -> dict | None:
    """First non-uniform tuple on one column subset, or None."""
    n = array.runs
    radices = [array.alphabets[j] for j in columns]
    prod = math.prod(radices)
    if n % prod:
        return {"kind": "NonIntegerIndex", "columns": [int(j) for j in columns],
                "alphabet_product": int(prod), "rows": int(n)}
    expected = n // prod
    keys = rank_rows(array.rows[:, list(columns)], radices)
    hit = _first_nonuniform(keys, prod, expected)
    if hit is None:
        return None
    return {"columns": [int(j) for j in columns], "tuple": unrank(hit[0], radices),
            "observed": hit[1], "expected": expected}


def verify_moa(array: MixedOA, t: int) -> Verdict:
    """Check strength t: every t-column choice carries every tuple equally often.

    Column subsets are visited in lexicographic order; the witness names the
    first subset whose tuple counts are not uniform (or whose alphabet product
    does not divide the number of rows, making uniformity impossible).
    Strength 0 is vacuously true.
    """
    if not 0 <= t <= array.k:
        raise ParamError(f"strength must lie in [0, {array.k}], got {t}")
    if t == 0:
        return Verdict(True)
    for columns in itertools.combinations(range(array.k), t):
        witness = _subset_witness(array, columns)
        if witness is not None:
            return Verdict(False, witness)
    return Verdict(True)


def max_strength(array: MixedOA) -> int:
    """Largest t at which the array verifies (monotone, so a scan from 0 up)."""
    best = 0
    for t in range(1, array.k + 1):
        if not verify_moa(array, t):
            break
        best = t
    return best
