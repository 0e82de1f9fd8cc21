"""Character-sum certificates for ordered mixed arrays.

A residue-function tuple D assigns to every stored column (i, rho) a residue
D_i(rho) modulo the block alphabet b**e_i. Its character vector has one entry
per array row:

    v_D[n] = prod_{i, rho} omega_i ** (z_{i,rho}(n) * D_i(rho)),

with omega_i = exp(2*pi*1j / b**e_i). Rows of a strength-(m-u) array make
character vectors of two tuples orthogonal whenever the depth profile of
their difference fits the strength budget, because the inner product then
factors into full geometric sums of roots of unity, each of which vanishes.
A verified Gram identity over a family therefore certifies, constructively,
that the family cannot exceed b**m members.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import EVector, MixedOOA, Verdict
from .errors import ParamError

__all__ = [
    "FunctionTuple", "profile", "height", "diff",
    "char_vector", "gram_certificate", "build_block_family",
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


def char_vector(array: MixedOOA, d: FunctionTuple) -> np.ndarray:
    """Complex character vector of a function tuple over the array rows.

    Exponents are reduced modulo each block alphabet before indexing a
    precomputed table of roots of unity, so magnitude-1 entries are exact up
    to one complex exponential evaluation each.
    """
    _check_array_frame(array, d)
    b = array.base
    out = np.ones(array.runs, dtype=np.complex128)
    for i, (ei, block) in enumerate(zip(array.e, d.values)):
        if not any(block):
            continue
        alph = b ** ei
        start = array.block_start(i)
        width = len(block)
        expo = (array.rows[:, start : start + width] @ np.asarray(block, dtype=np.int64)
                ) % alph
        roots = np.exp((2j * np.pi / alph) * np.arange(alph))
        out *= roots[expo]
    return out


def gram_certificate(array: MixedOOA, family: Sequence[FunctionTuple],
                     tol: float | None = None) -> Verdict:
    """Verify pairwise orthogonality of a family's character vectors.

    Precondition (checked): the difference of every pair of tuples must have
    height at most m - u; a violating pair fails with a distinct witness kind
    before any numerics run. The Gram matrix must then equal b**m times the
    identity entrywise within ``tol`` (default 1e-6 * b**m). A negative or
    non-finite ``tol`` raises :class:`ParamError`, because NaN or infinity
    would pass every Gram matrix. A passing verdict certifies the family has
    at most b**m members; the defensive check at the end cannot fire for a
    true Gram identity.
    """
    budget = array.m - array.u
    n_rows = array.base ** array.m
    if tol is None:
        tol = 1e-6 * n_rows
    if not math.isfinite(tol) or tol < 0:
        raise ParamError(f"tol must be finite and >= 0, got {tol}")
    family = list(family)
    for d in family:
        _check_array_frame(array, d)
    for j, k in itertools.combinations(range(len(family)), 2):
        h = height(diff(family[j], family[k]))
        if h > budget:
            return Verdict(False, {
                "kind": "height-precondition", "pair": [j, k],
                "height": int(h), "budget": int(budget)})
    if not family:
        return Verdict(True)
    vectors = np.stack([char_vector(array, d) for d in family], axis=1)
    gram = vectors.conj().T @ vectors
    target = n_rows * np.eye(len(family))
    deviation = np.abs(gram - target)
    flat = int(np.argmax(deviation))
    j, k = divmod(flat, len(family))
    if deviation[j, k] > tol:
        value = gram[j, k]
        return Verdict(False, {
            "kind": "gram", "pair": [int(j), int(k)],
            "value": [float(value.real), float(value.imag)],
            "expected": float(target[j, k]),
            "deviation": float(deviation[j, k]),
            "tol": float(tol)})
    if len(family) > n_rows:
        raise AssertionError("orthogonal family larger than the row count")
    return Verdict(True)


def build_block_family(array: MixedOOA, kappa: Sequence[int]) -> list[FunctionTuple]:
    """All function tuples supported on a profile's leading columns.

    ``kappa`` must be an admissible depth profile (kappa_i <= beta_i and
    sum kappa_i * e_i <= m - u). The family has exactly
    b**(sum kappa_i * e_i) members and is enumerated with the last selected
    column varying fastest.
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
