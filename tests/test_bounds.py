"""Row-count bounds and coordinate-budget conditions, exact-integer oracles."""

import math
import re
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import evnets
from evnets import (
    Condition, FeasibilityReport,
    feasibility_report, net_rao_check, rao_rhs, seq_budget_check,
)
from evnets import bounds
from evnets.errors import ParamError

import oracles


@pytest.fixture
def digit_limit(request):
    """Pin Python's decimal-digit limit for writing ints at its default, 4300,
    or at the value an indirect parametrization gives."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python writes ints of any length")
    limit = getattr(request, "param", 4300)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    yield limit
    sys.set_int_max_str_digits(saved)


class TestRaoRhs:
    # frozen by the generating-polynomial oracle
    FROZEN = [
        ([(2, 1), (4, 1)], 2, 5),
        ([(2, 2), (4, 1)], 2, 6),
        ([(2, 4)], 2, 5),
        ([(2, 4)], 3, 8),        # classical: met by the fold-over construction
        ([(3, 4)], 2, 9),        # classical: met by the 9-run strength-2 array
        ([(2, 2), (3, 1), (4, 1)], 3, 20),
        ([(2, 3), (9, 2)], 4, 135),
        ([(4, 2)], 2, 7),
        ([(4, 2)], 3, 16),
    ]

    @pytest.mark.parametrize("pairs,t,expected", FROZEN)
    def test_frozen_values(self, pairs, t, expected):
        assert rao_rhs(pairs, t) == expected
        assert oracles.poly_rao_rhs(pairs, t) == expected

    def test_strength_zero_and_one(self):
        assert rao_rhs([(7, 3)], 0) == 1
        # t=1 needs at least l rows for a single column of size l
        assert rao_rhs([(2, 1)], 1) == 2
        assert rao_rhs([(5, 1)], 1) == 5

    def test_monotone_in_strength(self):
        pairs = [(2, 2), (3, 2)]
        values = [rao_rhs(pairs, t) for t in range(0, 6)]
        assert values == sorted(values)

    @pytest.mark.parametrize("pairs, t, message", [
        ([(4, 1), (2, 1)], 2, "sizes must be nondecreasing, got [(4, 1), (2, 1)]"),
        ([(2, 1)], -1, "strength must be >= 0, got -1"),
        ([(1, 2)], 2, "need sizes >= 2 and multiplicities >= 1, got [(1, 2)]"),
        ([(2, 0)], 2, "need sizes >= 2 and multiplicities >= 1, got [(2, 0)]"),
        ([], 1, "odd strength needs at least one column"),
    ])
    def test_input_validation(self, pairs, t, message):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            rao_rhs(pairs, t)

    def test_nondecreasing_duplicates_allowed(self):
        # unlumped input with repeated sizes is legal and equals the lumped form
        assert rao_rhs([(2, 1), (2, 1), (4, 1)], 2) == rao_rhs([(2, 2), (4, 1)], 2)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(st.integers(2, 200), st.integers(1, 40)),
                    min_size=1, max_size=8),
           st.integers(0, 60))
    def test_matches_polynomial_oracle(self, raw, t):
        pairs = sorted(raw)
        assert rao_rhs(pairs, t) == oracles.poly_rao_rhs(pairs, t)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(2, 6), min_size=1, max_size=6), st.integers(0, 5))
    def test_lumping_invariance_both_parities(self, alphabets, t):
        # exact equality between Counter-lumped pairs and one pair per
        # column, for even and odd strengths alike (sizes sorted ascending)
        lumped = sorted(Counter(alphabets).items())
        unlumped = [(l, 1) for l in sorted(alphabets)]
        assert rao_rhs(lumped, t) == rao_rhs(unlumped, t)

    def test_removed_names_are_absent(self):
        for name in ("Signature", "rao_feasible", "Parity", "seq_kr_check", "seq_lcm_check"):
            assert not hasattr(bounds, name) and not hasattr(evnets, name)
            assert name not in bounds.__all__ and name not in evnets.__all__


class TestNetRaoCheck:
    def test_frozen_violation(self):
        # four binary coordinates, 4 rows: 4 > 3, so no strength-2 array
        c = net_rao_check(2, 2, (1, 1, 1, 1), 2)
        assert c.name == "rao-even-g1"
        assert c.applicable and not c.satisfied
        assert (c.lhs, c.rhs) == (4, 3)
        assert c.detail == {"m_threshold": 2}

    def test_inapplicable_is_vacuously_satisfied(self):
        c = net_rao_check(2, 1, (1, 1, 1, 1), 2)
        assert not c.applicable and c.satisfied
        assert c.detail == {"m_threshold": 2}

    def test_odd_strength(self):
        c = net_rao_check(2, 3, (1, 1, 1), 3)
        assert c.name == "rao-odd-g1"
        assert c.applicable
        assert c.lhs == oracles.brute_net_rao_lhs(2, (1, 1, 1), 1, "odd") == 5
        assert c.rhs == 7

    @pytest.mark.parametrize("s", range(2, 9))
    def test_every_strength_names_its_condition(self, s):
        for t in range(2, s + 1):
            c = net_rao_check(2, 40, (1,) * s, t)
            assert c.name == ("rao-odd-g" if t % 2 else "rao-even-g") + str(t // 2)
            assert c.detail == {"m_threshold": t}

    def test_lhs_matches_subset_oracle(self):
        cases = [
            (2, 6, (1, 1, 2, 2), 1, "even"),
            (2, 6, (1, 1, 2, 2), 2, "even"),
            (2, 6, (1, 1, 2, 2), 1, "odd"),
            (3, 5, (1, 2, 2), 1, "even"),
            (3, 5, (1, 2, 2), 1, "odd"),
            (2, 8, (1, 1, 1, 2, 3), 2, "odd"),
        ]
        for b, m, e, g, parity in cases:
            c = net_rao_check(b, m, e, 2 * g + (parity == "odd"))
            assert c.lhs == oracles.brute_net_rao_lhs(b, e, g, parity)
            assert c.rhs == b ** m - 1

    def test_specializes_the_general_bound(self):
        # satisfied (when applicable) iff b**m rows clear the unlumped bound
        for b, m, e, t in [
            (2, 2, (1, 1, 1, 1), 2),
            (2, 6, (1, 1, 2, 2), 4),
            (2, 4, (1, 1, 1), 3),
            (3, 4, (1, 2, 2), 2),
        ]:
            c = net_rao_check(b, m, e, t)
            if not c.applicable:
                continue
            pairs = [(b ** ei, 1) for ei in sorted(e)]
            assert c.satisfied == (b ** m >= rao_rhs(pairs, t))
            assert rao_rhs(pairs, t) == c.lhs + 1

    def test_requires_sorted_e(self):
        with pytest.raises(ParamError):
            net_rao_check(2, 3, (2, 1), 2)

    @pytest.mark.parametrize("t", [-1, 0, 1, 4, 5])
    def test_strength_outside_two_to_s_is_rejected(self, t):
        with pytest.raises(ParamError, match=f"2 <= t <= s, got t={t}, s=3"):
            net_rao_check(2, 3, (1, 1, 1), t)

    def test_strength_is_one_integer_argument(self):
        with pytest.raises(TypeError):
            net_rao_check(2, 3, (1, 1), 1, "even")


class TestSequenceConditions:
    def test_kr_names_and_values(self):
        conds = seq_budget_check(2, (1, 1, 1, 2))
        by_name = {c.name: c for c in conds}
        assert set(by_name) == {"kr-r1", "kr-r2", "lcm-{1,2}"}
        assert (by_name["kr-r1"].lhs, by_name["kr-r1"].rhs) == (3, 2)
        assert not by_name["kr-r1"].satisfied
        assert (by_name["kr-r2"].lhs, by_name["kr-r2"].rhs) == (1, 4)
        assert by_name["kr-r2"].satisfied
        assert by_name["kr-r2"].detail == {"value": 2, "multiplicity": 1}

    def test_lcm_subsets(self):
        conds = seq_budget_check(2, (1, 1, 2, 2))
        by_name = {c.name: c for c in conds}
        assert set(by_name) == {"kr-r1", "kr-r2", "lcm-{1,2}"}
        joint = by_name["lcm-{1,2}"]
        assert (joint.lhs, joint.rhs) == (4, 4)
        assert joint.satisfied
        assert joint.detail == {"values": [1, 2], "lcm": 2}

    def test_lcm_violation(self):
        conds = seq_budget_check(2, (1, 1, 2, 2, 2))
        joint = next(c for c in conds if c.name == "lcm-{1,2}")
        assert (joint.lhs, joint.rhs) == (5, 4)
        assert not joint.satisfied

    def test_lcm_matches_manual_computation(self):
        # distinct values {2, 3}: lcm 6, so up to 2**6 coordinates jointly
        conds = seq_budget_check(2, (2, 2, 3))
        joint = next(c for c in conds if c.name == "lcm-{2,3}")
        assert joint.rhs == 64 and joint.lhs == 3 and joint.satisfied

    def test_each_single_value_reported_once(self):
        # a single value's budget is kr-r{r}, never also an lcm-{r}
        assert [c.name for c in seq_budget_check(2, (1, 1, 3, 3, 3))] == [
            "kr-r1", "kr-r3", "lcm-{1,3}"]
        assert [c.name for c in seq_budget_check(2, (2, 2, 2))] == ["kr-r2"]
        names = [c.name for c in seq_budget_check(3, (1, 2, 3, 3))]
        assert names == ["kr-r1", "kr-r2", "kr-r3",
                         "lcm-{1,2}", "lcm-{1,3}", "lcm-{2,3}", "lcm-{1,2,3}"]

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from([2, 3, 5]),
           st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=7))
    def test_matches_subset_oracle(self, b, e):
        # e is drawn unsorted as often as sorted
        conds = seq_budget_check(b, e)
        want = oracles.brute_budgets(b, e)
        assert [(c.lhs, c.rhs) for c in conds] == [(k, rhs) for _, k, rhs in want]
        for c, (sub, k, _) in zip(conds, want):
            assert c.applicable
            if len(sub) == 1:
                assert c.name == f"kr-r{sub[0]}"
                assert c.detail == {"value": sub[0], "multiplicity": k}
            else:
                assert c.name == "lcm-{" + ",".join(map(str, sub)) + "}"
                assert c.detail == {"values": list(sub), "lcm": math.lcm(*sub)}

    def test_unwritable_budget_is_refused_unbuilt(self, digit_limit):
        # 2**24 - 1 budgets; no set of three has an lcm of 14285 or more, the
        # least exponent at which 2**L has 4301 digits. Building all would not finish
        with pytest.raises(ParamError, match=r"^lcm-\{2,17,19,23\}: RHS has more than "
                                             r"4300 decimal digits, too many to write$"):
            seq_budget_check(2, range(1, 25))

    def test_budget_count_is_capped_as_the_walk_goes(self, monkeypatch):
        # the 48 divisors of 2520 give 2**48 - 1 budgets, every one writable
        divisors = [d for d in range(1, 2521) if 2520 % d == 0]
        with pytest.raises(ParamError, match=r"^48 distinct e-values give 281474976710655 "
                                             r"coordinate budgets, more than the 65536 "
                                             r"a report lists$"):
            seq_budget_check(10, divisors)
        monkeypatch.setattr(bounds, "_BUDGET_CAP", 7)
        assert len(seq_budget_check(2, (1, 2, 3))) == 7  # exactly at the cap
        with pytest.raises(ParamError, match=r"^4 distinct e-values give 15 "):
            seq_budget_check(2, (1, 2, 3, 4))

    def test_writability_follows_the_interpreter_limit(self, digit_limit):
        with pytest.raises(ParamError, match=r"^kr-r15015: RHS has more"):
            seq_budget_check(2, (15015,))
        # 10**4299 has 4300 digits, the most Python writes; 10**4300 has one more
        assert seq_budget_check(10, (4299,))[0].to_json()["rhs"] == "1" + "0" * 4299
        with pytest.raises(ParamError, match=r"^kr-r4300: RHS has more"):
            seq_budget_check(10, (4300,))
        sys.set_int_max_str_digits(0)  # no limit: the budget is built
        assert seq_budget_check(2, (15015,))[0].rhs == 2 ** 15015

    def test_a_condition_made_elsewhere_too_long_to_write_is_a_value_error(self, digit_limit):
        # bounds refuses an unwritable number where it makes it; to_json only writes
        with pytest.raises(ValueError, match="4300") as err:
            bounds.Condition("made-elsewhere", True, 10 ** 4300, 0).to_json()
        assert not isinstance(err.value, ParamError)

    @pytest.mark.parametrize("b", [2, 3, 10, 100, 1023, 1024, 1025])
    def test_power_writability_is_exact(self, digit_limit, b):
        # either side of the least unwritable exponent and of the two k the
        # bit-length tests settle unbuilt: the most with k * n <= 3 * limit
        # and the least with k * (n - 1) >= 4 * limit, for n the bit length
        built = []

        class Base(int):
            def __pow__(self, j):
                built.append(j)
                return int(self) ** j

        k = _first_unwritable_exponent(b, digit_limit)
        low = 3 * digit_limit // b.bit_length()
        cut = -(-4 * digit_limit // (b.bit_length() - 1))
        for j in (-1, 0, 1, low, low + 1, k - 1, k, k + 1, cut - 1, cut):
            built.clear()
            assert bounds._power_unwritable(Base(b), j, digit_limit) == (j >= k), j
            assert built == ([j] if low < j < cut else []), j
        assert not bounds._power_unwritable(b, 10 ** 6, 0)  # no limit


def _first_unwritable_exponent(b, limit):
    """The least k with b**k >= 10**limit, that is of more than ``limit``
    decimal digits, found by multiplying up."""
    k, power, bound = 0, 1, 10 ** limit
    while power < bound:
        k, power = k + 1, power * b
    return k


def _refusal(make):
    """The ParamError's message when ``make()``'s conditions are made and
    written in order, or None."""
    try:
        for c in make():
            c.to_json()
    except ParamError as exc:
        return str(exc)
    return None


def _unbounded_refusal(make, limit):
    """The same, found by making every condition with no digit limit and
    then looking for the first integer of more than ``limit`` digits."""
    sys.set_int_max_str_digits(0)
    try:
        for c in make():
            for side, n in (("LHS", c.lhs), ("RHS", c.rhs)):
                if len(str(n)) > limit:
                    return (f"{c.name}: {side} has more than {limit} decimal digits, "
                            f"too many to write")
        return None
    finally:
        sys.set_int_max_str_digits(limit)


class TestFeasibilityReport:
    def test_net_target_runs_all_g(self):
        rep = feasibility_report(2, 6, (1, 1, 2, 2), "net")
        names = [c.name for c in rep.conditions]
        assert names == ["rao-even-g1", "rao-even-g2", "rao-odd-g1"]
        assert rep.feasible

    def test_frozen_condition_order(self):
        # even strengths first, then odd, then the sequence budgets
        rep = feasibility_report(2, 30, (1, 1, 1, 2, 2, 3, 3), "sequence")
        assert [c.name for c in rep.conditions] == [
            "rao-even-g1", "rao-even-g2", "rao-even-g3",
            "rao-odd-g1", "rao-odd-g2", "rao-odd-g3",
            "kr-r1", "kr-r2", "kr-r3",
            "lcm-{1,2}", "lcm-{1,3}", "lcm-{2,3}", "lcm-{1,2,3}"]
        assert [c.detail["m_threshold"] for c in rep.conditions[:6]] == [
            6, 10, 12, 8, 11, 13]

    @pytest.mark.parametrize("b", [2, 3, 5])
    @pytest.mark.parametrize("m", [2, 5, 9])
    @pytest.mark.parametrize("e", [(1, 1), (1, 1, 1), (1, 2, 2), (1, 1, 1, 2, 3),
                                   (2, 2, 2, 2, 2, 2), (1, 1, 2, 2, 3, 3, 4)])
    def test_each_strength_matches_its_own_check(self, b, m, e):
        # one product serves every strength: each condition is the one
        # net_rao_check builds alone, and its LHS the polynomial oracle's
        rep = feasibility_report(b, m, e, "net")
        pairs = sorted(Counter(b ** ei for ei in e).items())
        strengths = [*range(2, len(e) + 1, 2), *range(3, len(e) + 1, 2)]
        assert len(rep.conditions) == len(strengths)
        for c, t in zip(rep.conditions, strengths):
            assert c == net_rao_check(b, m, e, t)
            assert c.lhs == oracles.poly_rao_rhs(pairs, t) - 1

    def test_single_coordinate_is_vacuous(self):
        rep = feasibility_report(2, 3, (2,), "net")
        assert rep.conditions == () and rep.feasible

    def test_classical_net_threshold(self):
        # m=2, unit entries: feasible iff s <= b + 1
        for b in (2, 3, 5):
            for s in range(2, 2 * b + 3):
                rep = feasibility_report(b, 2, (1,) * s, "net")
                assert rep.feasible == (s <= b + 1), (b, s)

    def test_sequence_target_adds_budget_conditions(self):
        rep = feasibility_report(2, 6, (1, 1, 2, 2), "sequence")
        names = [c.name for c in rep.conditions]
        assert names == ["rao-even-g1", "rao-even-g2", "rao-odd-g1",
                         "kr-r1", "kr-r2", "lcm-{1,2}"]
        assert rep.feasible

    def test_sequence_rejections(self):
        assert not feasibility_report(2, 6, (1, 1, 1), "sequence").feasible
        assert not feasibility_report(2, 6, (1, 1, 2, 2, 2), "sequence").feasible

    def test_unsorted_input_is_normalized(self):
        rep = feasibility_report(2, 6, (2, 1, 2, 1), "net")
        assert rep.e == (1, 1, 2, 2)

    def test_violations_listed(self):
        rep = feasibility_report(2, 2, (1, 1, 1, 1), "net")
        assert not rep.feasible
        assert [c.name for c in rep.violations] == ["rao-even-g1"]

    def test_json_rendering_uses_strings_for_big_integers(self):
        rep = feasibility_report(2, 6, (1, 1, 2, 2), "sequence")
        js = rep.to_json()
        assert js["feasible"] is True
        assert js["base"] == 2 and js["e"] == [1, 1, 2, 2]
        for cond in js["conditions"]:
            assert isinstance(cond["lhs"], str) and isinstance(cond["rhs"], str)
        joint = next(c for c in js["conditions"] if c["condition"] == "lcm-{1,2}")
        assert joint["detail"]["lcm"] == "2"

    def test_target_validation(self):
        with pytest.raises(ParamError):
            feasibility_report(2, 3, (1, 1), "lattice")

    @settings(deadline=None, max_examples=80)
    @given(st.sampled_from([2, 3, 5]), st.integers(0, 12),
           st.lists(st.sampled_from([1, 2, 3, 4, 6]), min_size=1, max_size=6),
           st.sampled_from(["net", "sequence"]))
    def test_satisfied_is_derived(self, b, m, e, target):
        rep = feasibility_report(b, m, e, target)
        for c in rep.conditions:
            assert c.satisfied == (not c.applicable or c.lhs <= c.rhs)
        assert rep.feasible == all(c.satisfied for c in rep.conditions)

    def test_first_unwritable_number_in_report_order_is_named(self, digit_limit):
        # both rao-even-g1's RHS 2**20000 - 1 and several lcm budgets are too
        # long to write; the row-count condition comes first in the report
        with pytest.raises(ParamError, match=r"^rao-even-g1: RHS has more than 4300"):
            feasibility_report(2, 20000, range(1, 13), "sequence")
        with pytest.raises(ParamError, match=r"^lcm-\{7,11,13,15\}: RHS"):
            feasibility_report(2, 3, range(1, 17), "sequence")

    @pytest.mark.parametrize("b", [2, 3, 10, 100])
    def test_powers_past_the_limit_are_refused_as_to_json_would(self, digit_limit, b):
        # around the least k with b**k unwritable, the report refuses what
        # writing it would refuse first, in report order, LHS before RHS; at
        # m = 0 the RHS b**m - 1 is checked as the power b**-1
        k = _first_unwritable_exponent(b, digit_limit)
        for m in (0, 3, k - 1, k, k + 1, k + 2):
            for e in ((1, 1), (1, 1, 2), (2, 3, 4, 5), (1, k - 1), (1, k), (1, k + 1),
                      (k, k), (k - 1, k, k + 1), (k + 1, k + 1)):
                for make in [lambda: feasibility_report(b, m, e).conditions,
                             *(lambda t=t: [net_rao_check(b, m, e, t)]  # as rao --t
                               for t in range(2, len(e) + 1))]:
                    assert _refusal(make) == _unbounded_refusal(make, digit_limit), (m, e)

    @pytest.mark.parametrize("digit_limit", [640], indirect=True)
    @pytest.mark.parametrize("b", [2, 7])
    @pytest.mark.parametrize("e", [range(1, 13), range(1, 61), range(1, 82),
                                   *((1,) * k + (2,) * k + (3,) * k for k in (10, 61, 250))])
    def test_long_sums_are_refused_as_to_json_would(self, digit_limit, b, e):
        # many distinct sizes and long repeated blocks: the first sum too long
        # to write ends the walk, and is the one writing the report would name
        k = _first_unwritable_exponent(b, digit_limit)
        s = len(e)
        for m in (3, k - 1, k, k + 1):
            net = lambda: feasibility_report(b, m, e).conditions
            want = _unbounded_refusal(net, digit_limit)
            assert _refusal(net) == want, (m, e)
            # a sequence report names its net conditions' numbers before its budgets'
            want = want or _refusal(lambda: seq_budget_check(b, e))
            assert _refusal(lambda: feasibility_report(b, m, e, "sequence").conditions) == want
            for t in {*range(2, min(s, 200) + 1), s}:  # as rao --t, each parity
                make = lambda: [net_rao_check(b, m, e, t)]
                assert _refusal(make) == _unbounded_refusal(make, digit_limit), (m, e, t)

    def test_no_sum_is_drawn_past_the_first_too_long_to_write(self, digit_limit, monkeypatch):
        drawn, sums = [], bounds._rao_sums

        def counted(pairs):
            for pair in sums(pairs):
                drawn.append(pair)
                yield pair
        monkeypatch.setattr(bounds, "_rao_sums", counted)
        with pytest.raises(ParamError, match=r"^rao-even-g15: LHS has more than 4300 "):
            feasibility_report(2, 3, range(1, 1001))
        assert len(drawn) <= 16

    def test_powers_past_the_limit_are_never_built(self, digit_limit):
        # each of these powers has about 3 * 10**11 digits
        with pytest.raises(ParamError, match=r"^rao-even-g1: RHS has more than 4300 "):
            feasibility_report(2, 10 ** 12, (1, 1))
        with pytest.raises(ParamError, match=r"^rao-odd-g1: RHS has more than 4300 "):
            net_rao_check(2, 10 ** 12, (1, 1, 1), 3)
        with pytest.raises(ParamError, match=r"^rao-even-g1: LHS has more than 4300 "):
            feasibility_report(2, 3, (1, 10 ** 12), "sequence")
        # a report too long to write is refused as it is made, not when written
        with pytest.raises(ParamError, match=r"^rao-even-g1: RHS has more than 4300 "):
            feasibility_report(2, 20000, (1, 1))
        sys.set_int_max_str_digits(0)  # no limit: the powers are built
        assert feasibility_report(2, 20000, (1, 1)).conditions[0].rhs == 2 ** 20000 - 1

    @pytest.mark.parametrize("check", ["net", "sequence", "rao", "budgets"])
    @pytest.mark.parametrize("e", [(1,), (1, 1, 2)])
    def test_base_and_m_validated_for_every_s(self, check, e):
        # with s = 1 no row-count check runs, so these are checked up front;
        # rao --t checks them before its strength, and the budgets take no m
        make = {"net": lambda b, m: feasibility_report(b, m, e),
                "sequence": lambda b, m: feasibility_report(b, m, e, "sequence"),
                "rao": lambda b, m: net_rao_check(b, m, e, 2),
                "budgets": lambda b, m: seq_budget_check(b, e)}[check]
        with pytest.raises(ParamError, match="^base must be >= 2, got 1$"):
            make(1, 3)
        if check != "budgets":
            with pytest.raises(ParamError, match="^m must be >= 0, got -5$"):
                make(2, -5)
