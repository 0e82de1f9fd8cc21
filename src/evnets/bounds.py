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
from math import lcm
from typing import Iterator, Literal, Sequence

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


def _rao_sums(pairs: Pairs) -> Iterator[tuple[int, int]]:
    """:func:`rao_rhs` at strengths 2g and 2g + 1, as (even, odd), for
    g = 0, 1, ....

    With y = l - 1 for each (l, k), e_j is coefficient j of P = prod (1 + yX)**k
    and r_j that of the exact quotient P / (1 + yX): r_j = e_j - y * r_{j-1}.
    Since P'/P = sum k * y / (1 + yX), j * e_j = sum k * y * r_{j-1}, exactly.
    The even sum is e_0 + ... + e_g; the odd one adds y * r_g for the last,
    largest, size. Each coefficient costs one step per pair.
    """
    ys = [l - 1 for l, _ in pairs]
    weights = [k * y for y, (_, k) in zip(ys, pairs)]
    rests = [0] * len(pairs)
    even, coeff = 0, 1
    for j in itertools.count(1):
        even += coeff
        rests = [coeff - y * r for y, r in zip(ys, rests)]
        yield even, even + (ys[-1] * rests[-1] if pairs else 0)
        coeff = sum(w * r for w, r in zip(weights, rests)) // j


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
    return next(itertools.islice(_rao_sums(pairs), t // 2, None))[t % 2]


def _digit_limit() -> int:
    """The most decimal digits Python writes for an int (0: no limit)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _unwritable(n: int, limit: int) -> bool:
    """Whether n has more than ``limit`` decimal digits (never, for limit 0).

    Below 2**(3 * limit) an int has at most ``limit`` digits, so the bit
    length settles all but the longest without computing 10**limit.
    """
    return bool(limit) and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit


def _power_unwritable(b: int, k: int, limit: int) -> bool:
    """Whether b**k has more than ``limit`` decimal digits (never for limit 0
    or k <= 0), decided exactly. As b < 2**n for n its bit length, k * n <= 3 * limit
    gives b**k < 8**limit, writable unbuilt; k * (n - 1) >= 4 * limit gives b**k
    >= 16**limit, refused unbuilt; between the two b**k is built (< 8 * limit bits)."""
    if not limit or k * b.bit_length() <= 3 * limit:
        return False
    return k * (b.bit_length() - 1) >= 4 * limit or _unwritable(b ** k, limit)


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
    (``e`` sorted ascending). A number too long to write is refused where it
    is made, naming what to_json names first, so every condition returned is
    writable."""
    if not strengths:
        return []
    names = [f"rao-{'odd' if t % 2 else 'even'}-g{t // 2}" for t in strengths]
    limit = _digit_limit()
    # the first LHS holds every b**e_i - 1: a power too long to write is refused unbuilt
    if _power_unwritable(b, max(e) - 1, limit):
        raise _too_long(names[0], "LHS", limit)
    # lumped equal sizes: each coefficient costs one step per distinct size
    pairs, sums = sorted(Counter(b ** ei for ei in e).items()), []
    for even, odd in itertools.islice(_rao_sums(pairs), max(strengths) // 2 + 1):
        if _unwritable(even - 1, limit):  # so is every sum past it: they never decrease
            break
        sums += [even, odd]
    too_long = [t >= len(sums) or _unwritable(sums[t] - 1, limit) for t in strengths]
    if not too_long[0] and (_power_unwritable(b, m - 1, limit)
                            or _unwritable(rhs := b ** m - 1, limit)):
        raise _too_long(names[0], "RHS", limit)
    if any(too_long):  # the first LHS, else one after the RHS every condition shares
        raise _too_long(names[too_long.index(True)], "LHS", limit)
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
        conditions.extend(seq_budget_check(b, e_sorted))
    return FeasibilityReport(b, m, tuple(e_sorted.e), target, tuple(conditions))
