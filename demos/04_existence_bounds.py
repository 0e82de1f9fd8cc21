"""
Row-count bounds and parameter feasibility
==========================================

"""

# rao_rhs computes the minimum row count a mixed-alphabet array of
# strength t must have, from (alphabet size, column count) pairs with
# sizes ascending.  Everything is exact integer arithmetic.
from collections import Counter

from evnets import rao_rhs, net_rao_check, feasibility_report

pairs = [(2, 3), (4, 1)]                   # three binary columns, one 4-ary
print("strength-2 minimum rows:", rao_rhs(pairs, 2))
print("strength-3 minimum rows:", rao_rhs(pairs, 3))

# The bound only sees alphabet sizes, so lumping equal sizes together
# or listing them one by one gives the same number.
alphabets = [4, 2, 2, 4, 2]
lumped = sorted(Counter(alphabets).items())
unlumped = [(l, 1) for l in sorted(alphabets)]
print("lumped", lumped, "== unlumped:",
      rao_rhs(lumped, 3) == rao_rhs(unlumped, 3))

# An array with N rows is only possible when N >= rao_rhs.
print("8 rows, four binary columns, strength 3 possible:",
      8 >= rao_rhs([(2, 4)], 3))

# net_rao_check specializes the bound to net parameters (b, m, e): the
# alphabets are b**e_i and the rows b**m, at one strength t.
cond = net_rao_check(2, 3, (1, 1, 1), 3)
print(cond.name, "satisfied" if cond.satisfied else "violated",
      f"(LHS {cond.lhs}, RHS {cond.rhs})")

# feasibility_report runs that check at every strength 2 <= t <= s and
# reports every applicable necessary condition by name.
report = feasibility_report(2, 2, (1, 1, 1, 1), "net")
print("b=2 m=2 s=4:", "feasible" if report.feasible else "infeasible")
for cond in report.conditions:
    mark = "ok" if cond.satisfied else f"VIOLATED ({cond.lhs} > {cond.rhs})"
    print(" ", cond.name, mark)

# The classical threshold: unit resolution, order 2 -> at most b + 1
# coordinates.
for s in range(2, 6):
    print("b=2 s=%d:" % s,
          feasibility_report(2, 2, (1,) * s, "net").feasible)

# Sequence targets add per-resolution coordinate budgets: at most b**r
# coordinates of resolution r, and joint budgets over mixed subsets.
seq = feasibility_report(2, 6, (1, 1, 2, 2, 2), "sequence")
print("sequence (1,1,2,2,2):",
      "feasible" if seq.feasible else "infeasible",
      [c.name for c in seq.violations])
