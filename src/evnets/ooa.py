"""Bridge between digital point sets and ordered mixed arrays.

Coordinate i of a point decomposes into consecutive digit blocks of width
e_i; block rho (1-based) encodes digits (rho-1)*e_i + 1 through rho*e_i as
one symbol in an alphabet of size b**e_i. Keeping beta_i blocks per
coordinate turns b**m points into a b**m x sum(beta) block array whose
claimed strength is m - u.

The strength contract is expressed through depth profiles: a profile kappa
with kappa_i <= beta_i and sum kappa_i * e_i <= m - u selects the left-most
kappa_i columns of every block, and each tuple on those columns must appear
exactly b**(m - sum kappa_i e_i) times. As with box shapes, uniformity at
budget-maximal profiles forces uniformity at every admissible one, so only
those are checked; the exhaustive check over every admissible profile lives
in ``tests/oracles.py`` as the reference.

With the canonical column counts beta_i = floor((m - u) / e_i) the rows
reproduce the point digits up to position beta_i * e_i, and zero-filling the
rest gives a point set of the same quality. Any array is decided on the points
it encodes so, by ``netverify.first_failure``: profile kappa's tuples are the
boxes of shape kappa * e, ranked alike; only the witness reads differently.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._util import (canonical_beta, digit_dtype, digit_matrix, digit_window, is_power,
                    maximal_depths, unrank)
from .core import EVector, MixedOOA, PointSet, Verdict
from .errors import ParamError, VerificationError

__all__ = ["canonical_beta", "net_to_mooa", "enumerate_profiles", "verify_mooa", "mooa_to_net"]


def net_to_mooa(points: PointSet, u: int, e: EVector | Sequence[int],
                beta: Sequence[int] | None = None) -> MixedOOA:
    """Slice coordinate digits into width-e_i blocks and stack them as columns.

    Pure digit extraction over exactly base**m points; requires
    m >= u + max(e) so that every block contributes at least one column
    (beta defaults to the canonical counts). Verify separately.
    """
    e = EVector.coerce(e)
    if e.s != points.dim:
        raise ParamError(f"e-vector has {e.s} entries, point set has {points.dim}")
    b, m = points.base, points.precision
    if not is_power(points.count, b, m):
        raise ParamError(f"need base**m = {b}**{m} points, got {points.count}")
    caps = canonical_beta(m, u, e)  # checks 0 <= u <= m
    if m < u + max(e):
        raise ParamError(f"need m >= u + max(e) = {u + max(e)}, got m={m}")
    beta = caps if beta is None else tuple(int(v) for v in beta)
    if len(beta) != e.s:
        raise ParamError(f"beta has {len(beta)} entries, e-vector has {e.s}")
    for i, (bi, cap) in enumerate(zip(beta, caps)):
        if not 1 <= bi <= cap:
            raise ParamError(f"beta[{i}]={bi} outside [1, {cap}]")
    if sum(beta) == e.s * m:  # every beta_i = m, so e_i = 1: the rows are the digits
        return MixedOOA(b, m, u, e, beta, points.digits.reshape(points.count, e.s * m))
    rows = np.empty((points.count, sum(beta)), dtype=digit_dtype(b ** max(e)))
    windows = [(i, rho * ei, ei) for i, (ei, bi) in enumerate(zip(e, beta)) for rho in range(bi)]
    for col, (i, start, ei) in enumerate(windows):
        digit_window(points.digits, i, start, ei, b, rows[:, col])
    return MixedOOA(b, m, u, e, beta, rows)


def enumerate_profiles(m: int, u: int, e: EVector | Sequence[int],
                       beta: Sequence[int]) -> np.ndarray:
    """Budget-maximal depth profiles: a read-only (k, s) array's rows, in lexicographic order.

    A profile kappa is admissible if 0 <= kappa_i <= beta_i and sum kappa_i * e_i <= m - u,
    and maximal if no block can take another column within the budget. Only maximal
    profiles are returned: the cached shapes kappa * e, divided by e.
    """
    e = EVector.coerce(e)
    canonical_beta(m, u, e)  # checks 0 <= u <= m
    beta = tuple(int(v) for v in beta)
    if len(beta) != e.s:
        raise ParamError(f"beta has {len(beta)} entries, e-vector has {e.s}")
    if any(v < 0 for v in beta):
        raise ParamError(f"beta entries must be >= 0, got {beta}")
    shapes = maximal_depths(m - u, e.e, beta)
    profiles = shapes // np.array(e.e, dtype=shapes.dtype)  # exact: object past 2**62
    profiles.flags.writeable = False
    return profiles


def _points(array: MixedOOA) -> PointSet:
    """The b**m points the array encodes: block i's columns split into the
    first beta_i * e_i digits of coordinate i, the rest zero. When every
    beta_i = m (so e_i = 1 and u = 0) the rows are those digits, viewed."""
    b, n, s = array.base, array.runs, array.dim
    if array.rows.shape[1] == s * array.m:
        return PointSet(b, array.rows.reshape(n, s, array.m))
    digits = np.zeros((n, s, array.m), dtype=digit_dtype(b))
    for i, (ei, bi) in enumerate(zip(array.e, array.beta)):
        start = array.block_start(i)
        block = digit_matrix(array.rows[:, start : start + bi], ei, b)
        digits[:, i, : bi * ei] = block.reshape(n, bi * ei)
    return PointSet(b, digits)


def _decide(array: MixedOOA) -> tuple[PointSet, Verdict]:
    """The points the array encodes, and the strength verdict on its maximal
    profiles decided on them; the witness's cell is read column by column."""
    from .netverify import first_failure  # here, so to-mooa never loads netverify

    points, shapes = _points(array), maximal_depths(array.m - array.u, array.e.e, array.beta)
    failure = first_failure(points, array.e, shapes)
    if failure is None:
        return points, Verdict(True)
    shape, cell, observed, expected = failure
    kappa = [d // ei for d, ei in zip(shape, array.e)]
    radices = [array.base ** ei for k, ei in zip(kappa, array.e) for _ in range(k)]
    return points, Verdict(False, {"profile": kappa, "tuple": unrank(cell, radices),
                                   "observed": observed, "expected": expected})


def verify_mooa(array: MixedOOA) -> Verdict:
    """Check the strength-(m-u) contract over the maximal depth profiles.

    Profiles are visited in lexicographic order; the witness names the first
    profile with a non-uniform tuple count, and no later profile is examined.
    With u = m only the empty profile exists and the check passes vacuously.
    """
    return _decide(array)[1]


def mooa_to_net(array: MixedOOA) -> PointSet:
    """Reassemble points from a canonical-width ordered array.

    Requires beta_i = floor((m - u) / e_i) for every block (the widths at
    which array rows determine the leading digits completely). Digit
    positions beyond beta_i * e_i are zero-filled. Those points are the ones
    the array is verified on, and are returned when it passes; a failing
    verdict is raised as :class:`VerificationError`.
    """
    caps = canonical_beta(array.m, array.u, array.e)
    if array.beta != caps:
        raise ParamError(f"canonical beta {caps} required, got {array.beta}")
    points, verdict = _decide(array)
    if not verdict:
        raise VerificationError("array fails its strength contract", verdict)
    return points
