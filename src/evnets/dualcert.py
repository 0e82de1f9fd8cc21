"""Character-sum certificates for ordered mixed arrays, decided exactly.

A residue-function tuple D assigns to every stored column (i, rho) a residue
D_i(rho) modulo the block alphabet b**e_i. Its character on array row n is

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
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import _BYTES_CAP
from .core import EVector, MixedOOA, Verdict
from .errors import ParamError

__all__ = [
    "FunctionTuple", "profile", "height", "diff",
    "char_exponents", "gram_certificate", "build_block_family",
]


@dataclass(frozen=True)
class FunctionTuple:
    """Residues assigned to block columns: values[i][rho] modulo base**e_i."""

    base: int
    e: EVector
    values: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if int(self.base) < 2:
            raise ParamError(f"base must be >= 2, got {self.base}")
        object.__setattr__(self, "base", int(self.base))
        e = EVector.coerce(self.e)
        object.__setattr__(self, "e", e)
        vals = tuple(tuple(int(v) for v in block) for block in self.values)
        if len(vals) != e.s:
            raise ParamError(f"{len(vals)} blocks given, e-vector has {e.s}")
        for i, block in enumerate(vals):
            alph = self.base ** e[i]
            for v in block:
                if not 0 <= v < alph:
                    raise ParamError(f"residue {v} outside [0, {alph}) in block {i}")
        object.__setattr__(self, "values", vals)


def _check_same_frame(a: FunctionTuple, b: FunctionTuple) -> None:
    if a.base != b.base or a.e != b.e or tuple(map(len, a.values)) != tuple(
            map(len, b.values)):
        raise ParamError("function tuples live on different column layouts")


def profile(d: FunctionTuple) -> tuple[int, ...]:
    """Per-block depth: the number of leading columns through the last nonzero
    residue (0 for an all-zero block)."""
    out = []
    for block in d.values:
        depth = 0
        for rho, v in enumerate(block):
            if v:
                depth = rho + 1
        out.append(depth)
    return tuple(out)


def height(d: FunctionTuple) -> int:
    """Digit weight of the profile: sum of depth_i * e_i."""
    return sum(k * ei for k, ei in zip(profile(d), d.e))


def diff(d1: FunctionTuple, d2: FunctionTuple) -> FunctionTuple:
    """Columnwise difference modulo each block alphabet."""
    _check_same_frame(d1, d2)
    vals = tuple(
        tuple((a - b) % (d1.base ** ei) for a, b in zip(b1, b2))
        for b1, b2, ei in zip(d1.values, d2.values, d1.e))
    return FunctionTuple(d1.base, d1.e, vals)


def _check_array_frame(array: MixedOOA, d: FunctionTuple) -> None:
    if d.base != array.base or d.e != array.e:
        raise ParamError("function tuple and array disagree on base or e-vector")
    if tuple(map(len, d.values)) != array.beta:
        raise ParamError(f"function tuple has block sizes {tuple(map(len, d.values))}, "
                         f"array has beta {array.beta}")


def _order(array: MixedOOA) -> int:
    """q = b**max(e_i) over the blocks that carry columns (1 if none do)."""
    return array.base ** max((ei for ei, bi in zip(array.e, array.beta) if bi), default=0)


def _stack(array: MixedOOA, family: Sequence[FunctionTuple]) -> np.ndarray:
    """A family's residues as an (F, sum(beta)) matrix in column order."""
    return np.array([[v for block in d.values for v in block] for d in family],
                    dtype=np.int64).reshape(len(family), sum(array.beta))


def _exponents(array: MixedOOA, residues: np.ndarray, q: int) -> np.ndarray:
    """(F, N) exponents of zeta_q for the stacked residues (F, sum(beta))."""
    scale = np.repeat([q // array.base ** ei for ei in array.e], array.beta)
    return (residues * scale) @ array.rows.T % q


def char_exponents(array: MixedOOA, d: FunctionTuple) -> np.ndarray:
    """Exponent of zeta_q in the character of ``d`` on each array row.

    Block i adds z_{i,rho} * D_i(rho) * (q // b**e_i); the sum is reduced
    mod q = b**max(e_i) over the blocks that carry columns, so the result is
    an int64 vector with entries in [0, q).
    """
    _check_array_frame(array, d)
    return _exponents(array, _stack(array, [d]), _order(array))[0]


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


def _first_tall_pair(array: MixedOOA, residues: np.ndarray) -> tuple[int, int, int] | None:
    """First pair j < k (combinations order) whose difference has height above
    m - u, with that height; None if every pair fits."""
    starts = [array.block_start(i) for i, bi in enumerate(array.beta) if bi]
    if not starts:  # no columns: every difference has height 0
        return None
    weight = np.concatenate([np.arange(1, bi + 1) * ei for ei, bi in zip(array.e, array.beta)])
    for j in range(len(residues) - 1):
        moved = (residues[j + 1:] != residues[j]) * weight
        heights = np.maximum.reduceat(moved, starts, axis=1).sum(axis=1)
        tall = np.flatnonzero(heights > array.m - array.u)
        if tall.size:
            return j, j + 1 + int(tall[0]), int(heights[tall[0]])
    return None


def _check_family_size(array: MixedOOA, members: int) -> None:
    """Refuse a family whose int64 exponent matrix (one row per member, one
    column per array row) and same-sized difference buffer would together
    pass the package's byte cap."""
    size = 2 * members * array.runs * 8
    if size > _BYTES_CAP:
        raise ParamError(f"a family of {members} tuples on {array.runs} rows needs "
                         f"{size} bytes of exponents and differences, above the cap of "
                         f"{_BYTES_CAP} bytes")


def gram_certificate(array: MixedOOA, family: Sequence[FunctionTuple]) -> Verdict:
    """Decide pairwise orthogonality of a family's characters exactly.

    Precondition (checked): the difference of every pair of tuples must have
    height at most m - u; the first violating pair, in
    ``itertools.combinations`` order, fails with a distinct witness kind
    before any character sum is formed. Then every off-diagonal Gram entry
    must vanish (the diagonal is exactly b**m). The first pair j < k whose
    sum does not fails with witness ``{"kind": "gram", "pair": [j, k],
    "order": q, "counts": c}``: c[t] rows have E_k - E_j = t mod q, and
    sum_t c[t] zeta_q**t != 0. A passing verdict certifies the family has
    at most b**m members; the defensive check at the end cannot fire for a
    true Gram identity. A family whose int64 exponent matrix (one row per
    member, one column per array row) and same-sized difference buffer
    would together pass the package's byte cap is refused with
    ``ParamError`` before either pass.
    """
    family = list(family)
    for d in family:
        _check_array_frame(array, d)
    _check_family_size(array, len(family))
    residues = _stack(array, family)
    tall = _first_tall_pair(array, residues)
    if tall is not None:
        return Verdict(False, {
            "kind": "height-precondition", "pair": [tall[0], tall[1]],
            "height": tall[2], "budget": array.m - array.u})
    q = _order(array)
    exps = _exponents(array, residues, q)
    # pair (j, k) tallies E_k - E_j + q, in (0, 2q), into its own 2q bins;
    # folding the two halves of each run of bins reduces the tally mod q.
    # Every row's differences go into one buffer, so the peak is the two
    # (F, N) arrays the cap counts.
    offsets = (np.arange(len(family), dtype=np.int64) * 2 * q + q)[:, None]
    buf = np.empty_like(exps)
    for j in range(len(family) - 1):
        rest = len(family) - 1 - j
        cells = np.subtract(exps[j + 1:], exps[j], out=buf[:rest])
        cells += offsets[:rest]
        counts = np.bincount(cells.ravel(), minlength=rest * 2 * q)
        counts = counts.reshape(rest, 2, q).sum(axis=1)
        bad = np.flatnonzero(~_vanishes(counts, q))
        if bad.size:
            return Verdict(False, {
                "kind": "gram", "pair": [j, j + 1 + int(bad[0])], "order": q,
                "counts": counts[bad[0]].tolist()})
    if len(family) > array.base ** array.m:
        raise AssertionError("orthogonal family larger than the row count")
    return Verdict(True)


def build_block_family(array: MixedOOA, kappa: Sequence[int]) -> list[FunctionTuple]:
    """All function tuples supported on a profile's leading columns.

    ``kappa`` must be an admissible depth profile (kappa_i <= beta_i and
    sum kappa_i * e_i <= m - u). The family has exactly
    b**(sum kappa_i * e_i) members and is enumerated with the last selected
    column varying fastest. A family :func:`gram_certificate` would refuse
    for its size is refused with ``ParamError`` before it is built.
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
    _check_family_size(array, array.base ** depth)
    ranges = [range(array.base ** ei) for ki, ei in zip(kappa, array.e)
              for _ in range(ki)]
    out = []
    for combo in itertools.product(*ranges):
        blocks = []
        pos = 0
        for i, (ki, bi) in enumerate(zip(kappa, array.beta)):
            blocks.append(tuple(combo[pos : pos + ki]) + (0,) * (bi - ki))
            pos += ki
        out.append(FunctionTuple(array.base, array.e, tuple(blocks)))
    return out
