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

With the canonical column counts beta_i = floor((m - u) / e_i) the two views
carry the same information: the array rows reproduce the point digits up to
position beta_i * e_i, and zero-filling the remaining digits recovers a point
set with the same quality parameter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ._util import PrefixTable, digit_dtype, digit_matrix, digit_window, unrank
from .core import EVector, MixedOOA, PointSet, Verdict
from .errors import ParamError, VerificationError

__all__ = [
    "Profile", "canonical_beta", "net_to_mooa", "enumerate_profiles",
    "verify_mooa", "mooa_to_net",
]

Profile = tuple[int, ...]


def canonical_beta(m: int, u: int, e: EVector | Sequence[int]) -> tuple[int, ...]:
    """Largest usable column count per block: floor((m - u) / e_i)."""
    e = EVector.coerce(e)
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    return tuple((m - u) // ei for ei in e)


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
    if points.count != b ** m:
        raise ParamError(f"need base**m = {b ** m} points, got {points.count}")
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    if m < u + max(e):
        raise ParamError(f"need m >= u + max(e) = {u + max(e)}, got m={m}")
    caps = canonical_beta(m, u, e)
    beta = caps if beta is None else tuple(int(v) for v in beta)
    if len(beta) != e.s:
        raise ParamError(f"beta has {len(beta)} entries, e-vector has {e.s}")
    for i, (bi, cap) in enumerate(zip(beta, caps)):
        if not 1 <= bi <= cap:
            raise ParamError(f"beta[{i}]={bi} outside [1, {cap}]")
    rows = np.empty((points.count, sum(beta)), dtype=digit_dtype(b ** max(e)))
    col = 0
    for i, (ei, bi) in enumerate(zip(e, beta)):
        for rho in range(bi):
            digit_window(points.digits, i, rho * ei, ei, b, rows[:, col])
            col += 1
    return MixedOOA(b, m, u, e, beta, rows)


def enumerate_profiles(m: int, u: int, e: EVector | Sequence[int],
                       beta: Sequence[int]) -> list[Profile]:
    """Budget-maximal depth profiles in lexicographic order.

    A profile kappa is admissible if 0 <= kappa_i <= beta_i and
    sum kappa_i * e_i <= m - u, and maximal if no block can take another
    column within the budget. Only maximal profiles are returned.
    """
    e = EVector.coerce(e)
    if not 0 <= u <= m:
        raise ParamError(f"need 0 <= u <= m, got u={u}, m={m}")
    beta = tuple(int(v) for v in beta)
    if len(beta) != e.s:
        raise ParamError(f"beta has {len(beta)} entries, e-vector has {e.s}")
    if any(v < 0 for v in beta):
        raise ParamError(f"beta entries must be >= 0, got {beta}")
    budget = m - u
    out: list[Profile] = []
    prefix: list[int] = []

    def rec(i: int, remaining: int) -> None:
        if i == e.s:
            if all(prefix[j] == beta[j] or e[j] > remaining for j in range(e.s)):
                out.append(tuple(prefix))
            return
        for k in range(0, min(beta[i], remaining // e[i]) + 1):
            prefix.append(k)
            rec(i + 1, remaining - k * e[i])
            prefix.pop()

    rec(0, budget)
    return out


def verify_mooa(array: MixedOOA) -> Verdict:
    """Check the strength-(m-u) contract over the maximal depth profiles.

    Profiles are visited in lexicographic order; the witness names the first
    profile with a non-uniform tuple count, and no later profile is examined.
    With u = m only the empty profile exists and the check passes vacuously.
    """
    profiles = enumerate_profiles(array.m, array.u, array.e, array.beta)
    b, budget = array.base, array.m - array.u
    blocks = ((array.rows[:, array.block_start(i) + rho] for rho in range(bi))
              for i, bi in enumerate(array.beta))
    table = PrefixTable(blocks, [b ** ei for ei in array.e], array.runs, b ** budget)
    failure = table.first_failure(profiles)
    if failure is None:
        return Verdict(True)
    kappa, cell, observed, expected = failure
    radices = [b ** ei for ki, ei in zip(kappa, array.e) for _ in range(ki)]
    return Verdict(False, {"profile": [int(k) for k in kappa],
                           "tuple": unrank(cell, radices),
                           "observed": observed, "expected": expected})


def mooa_to_net(array: MixedOOA) -> PointSet:
    """Reassemble points from a canonical-width ordered array.

    Requires beta_i = floor((m - u) / e_i) for every block (the widths at
    which array rows determine the leading digits completely). Digit
    positions beyond beta_i * e_i are zero-filled. The array is verified
    first and a failing verdict is raised as :class:`VerificationError`.
    """
    caps = canonical_beta(array.m, array.u, array.e)
    if array.beta != caps:
        raise ParamError(f"canonical beta {caps} required, got {array.beta}")
    verdict = verify_mooa(array)
    if not verdict:
        raise VerificationError("array fails its strength contract", verdict)
    b, m = array.base, array.m
    digits = np.zeros((array.runs, array.dim, m), dtype=digit_dtype(b))
    for i, (ei, bi) in enumerate(zip(array.e, array.beta)):
        start = array.block_start(i)
        for rho in range(bi):
            digits[:, i, rho * ei : (rho + 1) * ei] = digit_matrix(
                array.rows[:, start + rho], ei, b)
    return PointSet(b, digits)
