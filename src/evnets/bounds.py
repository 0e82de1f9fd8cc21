"""Necessary-condition calculators: Rao-type bounds and sequence conditions.

Every verdict here is exact integer arithmetic (Python integers, no floats),
so the verdicts are decisions, not estimates. A violated condition proves the
corresponding design cannot exist; a satisfied report is necessary evidence
only, never a construction.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import comb, lcm, log10
from typing import Literal, Sequence

from .evector import EVector
from .errors import ParamError

__all__ = [
    "Condition", "FeasibilityReport",
    "rao_rhs", "net_rao_check",
    "seq_budget_check", "feasibility_report",
]

Pairs = Sequence[tuple[int, int]]

# The most coordinate budgets one report lists: every e-vector with at most
# 16 distinct values fits, since w values give 2**w - 1 budgets.
_BUDGET_CAP = 1 << 16


def _as_pairs(pairs: Pairs) -> list[tuple[int, int]]:
    pairs = [(int(l), int(k)) for l, k in pairs]
    if any(l < 2 for l, _ in pairs) or any(k < 1 for _, k in pairs):
        raise ParamError(f"need sizes >= 2 and multiplicities >= 1, got {pairs}")
    if any(a > b for (a, _), (b, _) in zip(pairs, pairs[1:])):
        raise ParamError(f"sizes must be nondecreasing, got {pairs}")
    return pairs


def _esym(pairs: Pairs, g: int) -> list[int]:
    """Elementary symmetric sums e_0, ..., e_g of the multiset holding k copies
    of l - 1 for each (l, k): the coefficients of prod (1 + (l-1)X)**k up to
    X**g."""
    coeffs = [1] + [0] * g
    for l, k in pairs:
        factor = [comb(k, r) * (l - 1) ** r for r in range(g + 1)]
        coeffs = [sum(coeffs[i] * factor[j - i] for i in range(j + 1)) for j in range(g + 1)]
    return coeffs


def _rao_sums(pairs: Pairs, t_max: int) -> list[int]:
    """:func:`rao_rhs` at strengths 0, ..., t_max, from one product. The odd
    term of 2g + 1 is coefficient g of the product divided exactly by
    1 + (l-1)X for the largest size l: rest_j = e_j - (l-1) * rest_{j-1}."""
    coeffs = _esym(pairs, t_max // 2)
    l = pairs[-1][0] if pairs else 1
    out, even, rest = [], 0, 0
    for c in coeffs:
        even += c
        rest = c - (l - 1) * rest
        out += [even, even + (l - 1) * rest]
    return out[:t_max + 1]


def rao_rhs(pairs: Pairs, t: int) -> int:
    """Minimum admissible row count for strength t over (size, multiplicity)
    pairs.

    For t = 2g the bound is the number of column tuples of weight at most g
    counted with alphabet weights (l - 1); for t = 2g + 1 an extra term runs
    over weight-g tuples avoiding one column of the largest alphabet, scaled
    by (l_v - 1). Sizes must be supplied in nondecreasing order so that the
    odd-case correction attaches to the largest alphabet; repeated sizes may
    be lumped into one pair or listed one column at a time, with the same
    result. Exact integers.
    """
    pairs = _as_pairs(pairs)
    if t < 0:
        raise ParamError(f"strength must be >= 0, got {t}")
    if t % 2 and not pairs:
        raise ParamError("odd strength needs at least one column")
    return _rao_sums(pairs, t)[t]


def _digit_limit() -> int:
    """The most decimal digits Python writes for an int (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _unwritable(n: int, limit: int) -> bool:
    """Whether n has more than ``limit`` decimal digits (never, for limit 0).

    Below 2**(3 * limit) an int has at most ``limit`` digits, so the bit
    length settles all but the longest without computing 10**limit.
    """
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


@cache
def _first_unwritable_exponent(b: int, limit: int) -> int:
    """The least k for which b**k has more than ``limit`` > 0 digits, found
    by applying the rule to powers of about ``limit`` digits only."""
    k = int(limit / log10(b))  # within one or two of the answer
    while k and _unwritable(b ** (k - 1), limit):
        k -= 1
    while not _unwritable(b ** k, limit):
        k += 1
    return k


def _power_unwritable(b: int, k: int, limit: int) -> bool:
    """Whether b**k has more than ``limit`` decimal digits (never for limit 0),
    decided from k alone: below 2**(3 * limit) it has at most ``limit``."""
    return (bool(limit) and k * b.bit_length() > 3 * limit
            and k >= _first_unwritable_exponent(b, limit))


def _too_long(name: str, what: str, limit: int) -> ParamError:
    return ParamError(f"{name}: {what} has more than {limit} decimal digits, "
                      f"too many to write")


@dataclass(frozen=True)
class Condition:
    """One evaluated necessary condition; lhs/rhs are reported whether or not
    it applies."""

    name: str
    applicable: bool
    lhs: int
    rhs: int
    detail: dict | None = None

    @property
    def satisfied(self) -> bool:
        """True unless the condition applies and lhs exceeds rhs: an
        inapplicable condition (its hypothesis fails) constrains nothing."""
        return not self.applicable or self.lhs <= self.rhs

    def _decimal(self, what: str, n: int) -> str:
        limit = _digit_limit()
        if _unwritable(n, limit):
            raise _too_long(self.name, what, limit)
        return str(n)

    def to_json(self) -> dict:
        """The condition with its integers as decimal strings; ParamError when
        one is too long for Python to write. Text output reads these strings
        too."""
        out = {
            "condition": self.name,
            "applicable": self.applicable,
            "satisfied": self.satisfied,
            "lhs": self._decimal("LHS", self.lhs),
            "rhs": self._decimal("RHS", self.rhs),
        }
        if self.detail is not None:
            out["detail"] = {key: self._decimal(key, v) if isinstance(v, int) else v
                             for key, v in self.detail.items()}
        return out


def net_rao_check(b: int, m: int, e: EVector | Sequence[int], t: int) -> Condition:
    """Strength-t row-count bound specialized to net parameters, with alphabet
    sizes b**e_i; 2 <= t <= s.

    It applies when m covers the t largest entries of e. For t = 2g it
    requires

        sum_{j=1..g} sum_{i_1<...<i_j} prod (b**e_i - 1)  <=  b**m - 1;

    for t = 2g + 1 the left-hand side adds (b**e_s - 1) times the weight-g sum
    over the first s - 1 coordinates. Requires e sorted ascending. The
    condition is named ``rao-even-g{g}`` or ``rao-odd-g{g}``.
    """
    e = EVector.coerce(e)
    if b < 2:
        raise ParamError(f"base must be >= 2, got {b}")
    if m < 0:
        raise ParamError(f"m must be >= 0, got {m}")
    if not e.is_sorted:
        raise ParamError(f"e-vector must be sorted ascending, got {e.e}")
    if not 2 <= t <= e.s:
        raise ParamError(f"strength must satisfy 2 <= t <= s, got t={t}, s={e.s}")
    return _net_rao_conditions(b, m, e, [t])[0]


def _net_rao_conditions(b: int, m: int, e: EVector, strengths: Sequence[int]
                        ) -> list[Condition]:
    """:func:`net_rao_check` at each strength in turn, from one product
    (``e`` sorted ascending)."""
    if not strengths:
        return []
    names = [f"rao-{'odd' if t % 2 else 'even'}-g{t // 2}" for t in strengths]
    # A power too long to write is refused unbuilt, naming what to_json names
    # first: the first LHS, at least every b**e_i - 1, if it too is; else RHS.
    limit = _digit_limit()
    if _power_unwritable(b, max(e) - 1, limit):
        raise _too_long(names[0], "LHS", limit)
    # lumped equal sizes, so _esym runs once per distinct size, not per coordinate
    sums = _rao_sums(sorted(Counter(b ** ei for ei in e).items()), max(strengths))
    if _power_unwritable(b, m - 1, limit):
        lhs_too_long = _unwritable(sums[strengths[0]] - 1, limit)
        raise _too_long(names[0], "LHS" if lhs_too_long else "RHS", limit)
    rhs = b ** m - 1
    thresholds = [sum(e.e[e.s - t :]) for t in strengths]
    return [Condition(name, m >= threshold, sums[t] - 1, rhs, {"m_threshold": threshold})
            for name, t, threshold in zip(names, strengths, thresholds)]


def seq_budget_check(b: int, e: EVector | Sequence[int]) -> list[Condition]:
    """Coordinate budgets of a sequence: for every nonempty set of distinct
    e-values with L = lcm of the set, the coordinates carrying those values
    must number at most b**L.

    Sets are listed by size, then lexicographically. A single value r is
    ``kr-r{r}``, a set of two or more is ``lcm-{r_1,...,r_w}``. A budget too
    long for Python to write is refused (ParamError) before b**L is built, and
    so is the budget that would pass ``_BUDGET_CAP`` in number.
    """
    e = EVector.coerce(e)
    if b < 2:
        raise ParamError(f"base must be >= 2, got {b}")
    counts = Counter(e.e)
    values = sorted(counts)
    limit = _digit_limit()
    out = []
    for w in range(1, len(values) + 1):
        for sub in itertools.combinations(values, w):
            big_l = lcm(*sub)
            if w == 1:
                name, detail = f"kr-r{big_l}", {"value": big_l, "multiplicity": counts[big_l]}
            else:
                name = "lcm-{" + ",".join(str(r) for r in sub) + "}"
                detail = {"values": list(sub), "lcm": big_l}
            if _power_unwritable(b, big_l, limit):
                raise _too_long(name, "RHS", limit)
            if len(out) == _BUDGET_CAP:
                raise ParamError(f"{len(values)} distinct e-values give {2 ** len(values) - 1} "
                                 f"coordinate budgets, more than the {_BUDGET_CAP} "
                                 f"a report lists")
            out.append(Condition(name, True, sum(counts[r] for r in sub), b ** big_l, detail))
    return out


@dataclass(frozen=True)
class FeasibilityReport:
    """All necessary conditions evaluated for one parameter tuple."""

    base: int
    m: int
    e: tuple[int, ...]
    target: str
    conditions: tuple[Condition, ...]

    @property
    def feasible(self) -> bool:
        """False exactly when some applicable condition is violated."""
        return all(c.satisfied for c in self.conditions)

    @property
    def violations(self) -> tuple[Condition, ...]:
        return tuple(c for c in self.conditions if not c.satisfied)

    def to_json(self) -> dict:
        return {
            "base": self.base,
            "m": self.m,
            "e": list(self.e),
            "target": self.target,
            "feasible": self.feasible,
            "conditions": [c.to_json() for c in self.conditions],
        }


def feasibility_report(b: int, m: int, e: EVector | Sequence[int],
                       target: Literal["net", "sequence"] = "net") -> FeasibilityReport:
    """Evaluate every applicable necessary condition for quality-0 parameters.

    target='net' runs the row-count checks for every strength 2 <= t <= s,
    even strengths first (none exist for s = 1, so the report is vacuously
    feasible there).
    target='sequence' adds the coordinate budgets of :func:`seq_budget_check`; the
    net checks still run at the given m because every sequence yields nets of
    that order.
    """
    e = EVector.coerce(e)
    if target not in ("net", "sequence"):
        raise ParamError(f"target must be 'net' or 'sequence', got {target!r}")
    if b < 2:
        raise ParamError(f"base must be >= 2, got {b}")
    if m < 0:
        raise ParamError(f"m must be >= 0, got {m}")
    e_sorted, _ = e.sorted()
    s = e_sorted.s
    conditions = _net_rao_conditions(b, m, e_sorted,
                                     [*range(2, s + 1, 2), *range(3, s + 1, 2)])
    if target == "sequence":
        try:
            conditions.extend(seq_budget_check(b, e_sorted))
        except ParamError:
            for c in conditions:  # a row-count number too long to write is named first
                c.to_json()
            raise
    return FeasibilityReport(b, m, tuple(e_sorted.e), target, tuple(conditions))
