"""Character-sum certificates for ordered mixed arrays, decided exactly.

A residue-function tuple D assigns to every stored column (i, rho) a residue
D_i(rho) modulo the block alphabet b**e_i, and is stored as the row of those
residues; a family is a matrix of rows. Its character on array row n is

    chi_D(n) = prod_{i, rho} omega_i ** (z_{i,rho}(n) * D_i(rho)),

with omega_i a primitive (b**e_i)-th root of unity. Each omega_i is a power of
one primitive q-th root zeta, q = b**max(e_i) over the blocks that carry
columns, so chi_D(n) = zeta ** E_D(n) for an integer exponent E_D(n) mod q
(:func:`char_exponents`). Rows of a strength-(m-u) array make the characters
of two tuples orthogonal whenever the depth profile of their difference fits
the strength budget, because the inner product then factors into full
geometric sums of roots of unity, each of which vanishes. A verified Gram
identity over a family therefore certifies, constructively, that the family
cannot exceed b**m members.

A Gram entry sum_n zeta ** (E_k(n) - E_j(n)) equals c(zeta) for the integer
polynomial c(x) = sum_t c_t x**t, where c_t counts the rows whose exponent
difference is t mod q. It is zero exactly when the cyclotomic polynomial
Phi_q divides c(x), so the identity is decided over the integers, with no
tolerance. With r = rad(q) (the product of its distinct primes) and
s = q // r, Phi_q(x) = Phi_r(x**s); hence c(zeta) = 0 exactly when, for every
t < s, Phi_r(y) divides sum_j c_{t + j*s} y**j.

The counts c depend only on the difference of the two tuples, an element of
the group G = prod_j Z_{w_j} spanned by the columns where the members differ
(w_j the alphabet of column j), so a family and its translates get one
certificate. One exact transform over G, in integers, gives the counts of
every element at once (:func:`_group_tallies`); few distinct differences over
a group far larger than they are can each be counted over the rows instead,
whichever of the two :func:`_routes` fits the cap with less work.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from ._util import _BYTES_CAP, _CHUNK_BYTES, rank_rows, unrank
from .core import MixedOOA, Verdict
from .errors import ParamError

__all__ = ["char_exponents", "gram_certificate", "build_block_family"]

# Bytes the byte cap charges per member beyond its residues (its rank, and its
# entry in one row's list of ranks), and per distinct difference (its rank and
# first pair, kept and stacked, and its entry in the set of differences seen:
# a hash-table slot and a Python int, about 74 bytes).
_MEMBER_BYTES = 64
_DIFFERENCE_BYTES = 128


def _order(array: MixedOOA) -> int:
    """q = b**max(e_i) over the blocks that carry columns (1 if none do)."""
    return array.base ** max((ei for ei, bi in zip(array.e, array.beta) if bi), default=0)


def _widths(array: MixedOOA) -> np.ndarray:
    """Per stored column (i, rho), its alphabet b**e_i; q // b**e_i is the
    power of zeta_q that is omega_i."""
    return np.array([array.base ** ei for ei, bi in zip(array.e, array.beta)
                     for _ in range(bi)], dtype=np.int64)


def _residue_rows(array: MixedOOA, rows) -> np.ndarray:
    """``rows`` as an (F, sum(beta)) int64 matrix, checked once: one row per
    tuple, in stored column order, of an integer dtype, with entry (i, rho)
    in [0, b**e_i). ``[]`` is the empty family."""
    try:
        rows = np.asarray(rows)
    except ValueError:  # numpy refuses rows of unequal lengths
        raise ParamError("residue rows have unequal lengths") from None
    if rows.shape == (0,):
        return np.zeros((0, sum(array.beta)), dtype=np.int64)
    if rows.ndim != 2 or rows.shape[1] != sum(array.beta):
        raise ParamError(f"residue rows must be a matrix of {sum(array.beta)} columns "
                         f"(sum of beta), got shape {rows.shape}")
    if rows.size and rows.dtype.kind not in "iu":
        raise ParamError(f"residues must be integers, got dtype {rows.dtype}")
    residues, widths = rows.astype(np.int64, copy=False), _widths(array)
    bad = np.argwhere((residues < 0) | (residues >= widths))  # uint64 wraps below 0
    if len(bad):
        r, j = bad[0]
        raise ParamError(f"residue {rows[r, j]} outside [0, {widths[j]}) in column {j}")
    return residues


def char_exponents(array: MixedOOA, residues) -> np.ndarray:
    """Exponent of zeta_q in the character of one residue row (sum(beta)
    residues in stored column order) on each array row.

    Block i adds z_{i,rho} * D_i(rho) * (q // b**e_i); the sum is reduced
    mod q = b**max(e_i) over the blocks that carry columns, so the result is
    an int64 vector with entries in [0, q).
    """
    q = _order(array)
    return (_residue_rows(array, [residues])[0] * (q // _widths(array))) @ array.rows.T % q


def _radical(n: int) -> int:
    """Product of the distinct primes dividing n (1 for n = 1); the search
    stops at the largest prime factor, at most b for n = b**k."""
    rad, p = 1, 2
    while n > 1:
        if n % p == 0:
            rad *= p
            while n % p == 0:
                n //= p
        p += 1
    return rad


def _divide_exact(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """Quotient of integer polynomials (lowest coefficient first) by a monic
    divisor that divides exactly."""
    num = list(num)
    k = len(den) - 1
    quot = [0] * (len(num) - k)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = c = num[i + k]
        for j, dj in enumerate(den):
            num[i + j] -= c * dj
    return quot


@functools.lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n, lowest coefficient first: y**n - 1 divided exactly by Phi_d for
    every proper divisor d of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            poly = _divide_exact(poly, _cyclotomic(d))
    return tuple(poly)


@functools.lru_cache(maxsize=None)
def _power_table(r: int) -> np.ndarray:
    """Read-only r x phi(r) int64 table whose row j is y**j mod Phi_r(y)."""
    phi = _cyclotomic(r)
    deg = len(phi) - 1
    table = np.zeros((r, deg), dtype=np.int64)
    power = [1] + [0] * (deg - 1)
    for j in range(r):
        table[j] = power
        top = power[-1]  # y * power, with y**deg replaced by y**deg - Phi_r
        power = [c - top * p for c, p in zip([0] + power[:-1], phi)]
    table.setflags(write=False)
    return table


def _vanishes(counts: np.ndarray, q: int) -> np.ndarray:
    """Whether sum_t c_t zeta_q**t == 0 for each count vector c (rows of an
    (n, q) int array), decided exactly.

    With r = rad(q) and s = q // r, folding the counts to (n, s, r) and
    multiplying by :func:`_power_table` reduces every polynomial
    sum_j c_{t + j*s} y**j mod Phi_r at once; the table has at most b rows
    whatever q is.
    """
    r = _radical(q)
    folded = np.asarray(counts, dtype=np.int64).reshape(-1, r, q // r)
    return ~(folded.transpose(0, 2, 1) @ _power_table(r)).any(axis=(1, 2))


def _heights(delta: np.ndarray, weight: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Height of each difference row: per block, the weight (depth times
    e_i) of its last nonzero column, summed over the blocks."""
    return np.maximum.reduceat((delta != 0) * weight, starts, axis=1).sum(axis=1)


def _new_differences(residues: np.ndarray, widths: np.ndarray, group: int):
    """Walk the pairs j < k of the residue rows in combinations order and
    yield, per row j that has any, ``(j, ks, delta, keys)``: the members k
    whose difference d_k - d_j is nonzero and new to the walk, in order,
    those differences (mod ``widths``) and their mixed-radix ranks. The walk
    stops once all ``group - 1`` nonzero elements of the group the columns
    span have been seen."""
    seen: set = set()
    for j in range(len(residues) - 1):
        if len(seen) == group - 1:
            return
        delta = (residues[j + 1:] - residues[j]) % widths
        ranks = rank_rows(delta, widths)
        fresh = []
        for k, key in enumerate(ranks.tolist()):
            if key and key not in seen:
                seen.add(key)
                fresh.append(k)
        if fresh:
            yield j, [j + 1 + k for k in fresh], delta[fresh], ranks[fresh]


def _first_duplicate(keys: np.ndarray) -> tuple[int, int] | None:
    """First pair j < k (combinations order) of equal keys, or None."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    earlier = first[inverse.ravel()]  # each member's first equal member
    dup = np.flatnonzero(earlier != np.arange(len(keys)))
    if not dup.size:
        return None
    j = earlier[dup].min()
    return int(j), int(dup[earlier[dup] == j][0])


def _group_tallies(rows: np.ndarray, widths: np.ndarray, q: int) -> np.ndarray:
    """Tally of exponents mod q of every element delta of the group G the
    columns span, as a (|G|, q) int64 array indexed by delta's mixed-radix
    rank: entry (delta, t) counts the rows on which sum_j delta_j * g_j *
    (q // w_j) is t mod q, g_j being the row's value in column j.

    The rows are counted once by their rank over G, every count at t = 0.
    Then one column at a time, of alphabet w, value g gives way to character
    index d: the counts of the rows with value g, rolled by d * g * (q // w)
    along t, are added up for each d, in place. Two (|G|, q) arrays are held,
    the tallies before and after the column.
    """
    group = math.prod(widths.tolist())
    tallies = np.zeros((group, q), dtype=np.int64)
    tallies[:, 0] = np.bincount(rank_rows(rows, widths), minlength=group)
    lead = 1
    for w in widths.tolist():
        view = tallies.reshape(lead, w, -1, q)
        out = np.zeros_like(view)
        for d in range(w):
            for g in range(w):
                k = d * g * (q // w) % q
                out[:, d, :, k:] += view[:, g, :, :q - k]
                out[:, d, :, :k] += view[:, g, :, q - k:]
        tallies, lead = out.reshape(group, q), lead * w
    return tallies


def _exponent_tallies(keys: np.ndarray, rows: np.ndarray, widths: np.ndarray, q: int):
    """Yield the tallies of exponents mod q of the differences ranked ``keys``
    (int64, or Python ints past it), one (D', q) block at a time: each block
    is unranked key by key, and its exponent rows, about ``_CHUNK_BYTES`` of
    int64, are formed by a matmul over the rows and counted by one ``bincount``."""
    scales = q // widths
    cols = np.ascontiguousarray(rows.T, dtype=np.int64)
    block = _block_rows(len(rows), len(keys))
    for lo in range(0, len(keys), block):
        part = keys[lo:lo + block]
        deltas = np.fromiter((d for key in part for d in unrank(key, widths)), np.int64,
                             len(part) * len(widths)).reshape(len(part), -1)
        exps = (deltas * scales) @ cols
        exps %= q
        exps += np.arange(0, len(exps) * q, q)[:, None]
        yield np.bincount(exps.ravel(), minlength=len(exps) * q).reshape(-1, q)


def _first_nonvanishing(blocks, q: int) -> tuple[int, list[int]] | None:
    """First difference whose character sum does not vanish, with its tally
    of exponents mod q, or None. ``blocks`` yields the differences' tallies,
    in order, as (D', q) arrays."""
    lo = 0
    for counts in blocks:
        bad = np.flatnonzero(~_vanishes(counts, q))
        if bad.size:
            return lo + int(bad[0]), counts[bad[0]].tolist()
        lo += len(counts)
    return None


def _block_rows(runs: int, differences: int) -> int:
    """Differences per block of exponent rows: about ``_CHUNK_BYTES`` of int64."""
    return min(differences, max(1, _CHUNK_BYTES // (8 * runs)))


def _routes(array: MixedOOA, members: int, widths: list[int], differences: int
            ) -> dict[str, tuple[int, int]]:
    """Each route's (work, bytes) for a family of ``members`` tuples whose
    ``differences`` distinct nonzero differences span columns of alphabets
    ``widths``, the group transform first. Its work is |G| * q * sum(w_j)
    tally additions; the per-difference tally's is one exponent row of N
    entries, each a sum over those columns, per difference.

    Bytes, at most: both routes hold the stacked residues, their columns in
    G and one row's differences, with a rank per member, and each
    difference seen with its rank, its first pair and its entry in the set
    of differences. The transform adds the rows' columns in G and ranks,
    and at most five (|G|, q) int64 arrays at once: the tallies before and
    after a column with the row counts and numpy's buffers for the rolled
    adds, or the tallies, the kept differences' tallies and the copy the
    vanishing test multiplies. The per-difference tally adds the rows'
    columns in G in int64, and one block of differences unranked and scaled
    with its exponent rows, their tally and that copy."""
    group, q, touched, runs = math.prod(widths), _order(array), len(widths), array.runs
    walk = (8 * members * (sum(array.beta) + 2 * touched) + members * _MEMBER_BYTES
            + differences * _DIFFERENCE_BYTES)
    block = _block_rows(runs, differences)
    return {"transform": (group * q * sum(widths),
                          walk + 8 * runs * (touched + 1) + 40 * group * q),
            "per-difference": (differences * runs * touched, walk + 16 * block * touched
                               + 8 * runs * (touched + 3 * block))}


def _route(array: MixedOOA, members: int, widths: np.ndarray, differences: int) -> str:
    """Of the :func:`_routes` whose bytes fit the package's byte cap, the one
    that does less work, the transform on a tie; a family neither route fits
    is refused with the smaller byte count (before the walk, at the bound)."""
    routes = _routes(array, members, widths.tolist(), differences)
    fits = [name for name, (_, size) in routes.items() if size <= _BYTES_CAP]
    if not fits:
        raise ParamError(f"a family of {members} tuples on {array.runs} rows needs "
                         f"{min(size for _, size in routes.values())} bytes of residues, "
                         f"differences and tallies, above the cap of {_BYTES_CAP} bytes")
    return min(fits, key=lambda name: routes[name][0])  # the first listed on a tie


def gram_certificate(array: MixedOOA, family) -> Verdict:
    """Decide pairwise orthogonality of a family's characters exactly.

    ``family`` is an (F, sum(beta)) integer matrix of residue rows, or a
    list of rows. Another width, a dtype that is not an integer one, or a
    residue outside its column's [0, b**e_i) is a ``ParamError``.

    Precondition (checked): the difference of every pair of tuples must have
    height at most m - u; the first violating pair, in
    ``itertools.combinations`` order, fails with a distinct witness kind
    before any character sum is formed. Then every off-diagonal Gram entry
    must vanish (the diagonal is exactly b**m). The first pair j < k whose
    sum does not fails with witness ``{"kind": "gram", "pair": [j, k],
    "order": q, "counts": c}``: c[t] rows have E_k - E_j = t mod q, and
    sum_t c[t] zeta_q**t != 0. A passing verdict certifies the family has
    at most b**m members; the defensive check at the end cannot fire for a
    true Gram identity.

    E_D is additive mod q, so entry (j, k) depends only on the difference
    d_k - d_j. Pairs are walked in combinations order, each difference keyed
    by its mixed-radix rank over the columns where the members differ, and
    the height is taken only of a difference not seen before. The walk stops
    once every nonzero element of the group G those columns span has been
    seen: a family closed under subtraction (any ``build_block_family``,
    in any order) stops after its first member, with F - 1 differences.
    Then each distinct difference's tally is decided, in the order first
    seen, so the first failing difference names the first failing pair.
    Equal members fail at their first pair, through the zero difference
    (all b**m rows at exponent 0).

    The tallies come from one of two exact routes, chosen by one table
    (:func:`_routes`) from the D distinct differences the walk kept. The
    group transform (:func:`_group_tallies`) tallies every element of G at
    once, in O(|G| * q * sum(w_j)) work and |G| * q int64 tallies, and looks
    each difference up by its rank. The per-difference tally forms each
    difference's exponent row over the N rows, in O(D * N * columns). Of
    the routes whose bytes fit the package's byte cap, the one that does
    less work runs, the transform on a tie. A ``build_block_family`` family
    has |G| = F <= b**m, so it takes the transform unless q * w_j comes near
    N; few distinct differences over a group far larger than they are take
    the per-difference tally. A family that neither route fits at the bound
    min(pairs, |G| - 1) on D is refused with ``ParamError`` before the walk.
    """
    residues = _residue_rows(array, family)
    members = len(residues)
    cols = np.flatnonzero((residues != residues[:1]).any(axis=0))
    widths = _widths(array)[cols]
    group = math.prod(widths.tolist())
    _route(array, members, widths, min(group - 1, members * (members - 1) // 2))
    residues = residues[:, cols]
    weight = np.concatenate([np.arange(1, bi + 1) * ei
                             for ei, bi in zip(array.e, array.beta)])[cols]
    starts = np.flatnonzero(np.diff(np.repeat(np.arange(array.dim), array.beta)[cols],
                                    prepend=-1))
    budget = array.m - array.u
    firsts = []  # each new difference's first pair (j, k), ranked j * F + k
    kept = []  # and its rank
    for j, ks, delta, keys in _new_differences(residues, widths, group):
        heights = _heights(delta, weight, starts)
        tall = np.flatnonzero(heights > budget)
        if tall.size:
            return Verdict(False, {
                "kind": "height-precondition", "pair": [j, ks[tall[0]]],
                "height": int(heights[tall[0]]), "budget": budget})
        firsts.append(j * members + np.asarray(ks, dtype=np.int64))
        kept.append(keys)
    q = _order(array)
    dup = _first_duplicate(rank_rows(residues, widths))
    firsts = np.concatenate(firsts) if firsts else np.zeros(0, dtype=np.int64)
    if dup is not None:  # only differences first seen before the equal pair matter
        firsts = firsts[:np.searchsorted(firsts, dup[0] * members + dup[1])]
    if len(firsts):
        kept, rows = np.concatenate(kept)[:len(firsts)], array.rows[:, cols]
        transform = _route(array, members, widths, len(kept)) == "transform"
        bad = _first_nonvanishing([_group_tallies(rows, widths, q)[kept]] if transform
                                  else _exponent_tallies(kept, rows, widths, q), q)
        if bad is not None:
            pair = divmod(int(firsts[bad[0]]), members)
            return Verdict(False, {"kind": "gram", "pair": list(pair), "order": q,
                                   "counts": bad[1]})
    if dup is not None:
        return Verdict(False, {"kind": "gram", "pair": list(dup), "order": q,
                               "counts": [array.runs] + [0] * (q - 1)})
    if members > array.base ** array.m:
        raise AssertionError("orthogonal family larger than the row count")
    return Verdict(True)


def build_block_family(array: MixedOOA, kappa: Sequence[int]) -> np.ndarray:
    """All residue rows supported on a profile's leading columns, as an
    (F, sum(beta)) int64 matrix.

    ``kappa`` must be an admissible depth profile (kappa_i <= beta_i and
    sum kappa_i * e_i <= m - u). The family has exactly
    F = b**(sum kappa_i * e_i) members: member r is the mixed-radix digits of
    r on the first kappa_i columns of each block i, so the last selected
    column varies fastest, and zero elsewhere. A family
    :func:`gram_certificate` would refuse for its size is refused with
    ``ParamError`` before it is built.
    """
    kappa = tuple(int(v) for v in kappa)
    if len(kappa) != array.dim:
        raise ParamError(f"profile has {len(kappa)} entries, array has {array.dim} blocks")
    depth = 0
    for i, (ki, bi, ei) in enumerate(zip(kappa, array.beta, array.e)):
        if not 0 <= ki <= bi:
            raise ParamError(f"kappa[{i}]={ki} outside [0, {bi}]")
        depth += ki * ei
    if depth > array.m - array.u:
        raise ParamError(f"profile depth {depth} exceeds the budget {array.m - array.u}")
    members = array.base ** depth
    cols = np.flatnonzero(np.concatenate([np.arange(bi) < ki
                                          for ki, bi in zip(kappa, array.beta)]))
    widths = _widths(array)[cols]
    _route(array, members, widths, members - 1)
    out = np.zeros((members, sum(array.beta)), dtype=np.int64)
    for col, digits in zip(cols, unrank(np.arange(members), widths)):
        out[:, col] = digits
    return out
