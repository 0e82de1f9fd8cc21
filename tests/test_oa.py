"""Mixed-array bridge: digit extraction and strength checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evnets import MixedOA, max_strength, net_to_moa, verify_moa
from evnets import corpus
from evnets.errors import ParamError, PrecisionError

import oracles
from storage import storage


class TestNetToMoa:
    def test_columns_are_leading_digit_blocks(self, ham23):
        a = net_to_moa(ham23, (1, 2))
        assert a.alphabets == (2, 4)
        assert a.runs == 8 and a.strength == 0
        # row n: first digit of coordinate 0, first two digits of coordinate 1
        for n in range(8):
            d = ham23.digits[n]
            assert a.rows[n, 0] == d[0, 0]
            assert a.rows[n, 1] == 2 * d[1, 0] + d[1, 1]

    def test_extraction_ignores_net_property(self):
        p = corpus.random_pointset(2, 2, 2, 9)
        a = net_to_moa(p, (1, 1))
        assert a.alphabets == (2, 2) and a.runs == 4

    def test_requires_enough_digits(self, ham23):
        with pytest.raises(PrecisionError):
            net_to_moa(ham23, (1, 4))
        with pytest.raises(ParamError):
            net_to_moa(ham23, (1, 1, 1))


class TestVerifyMoa:
    def test_reference_strength_two(self, ham23):
        a = net_to_moa(ham23, (1, 2))
        v = verify_moa(a, 2)
        assert v
        # frequency: 8 / (2*4) = 1, every pair exactly once
        pairs = {tuple(r) for r in a.rows}
        assert len(pairs) == 8

    def test_strength_zero_is_vacuous(self):
        # its one column subset, the empty one, holds every row in one cell,
        # whatever the rows, alphabets and storage
        for a in (MixedOA((2,), np.zeros((3, 1), dtype=np.int64)),
                  MixedOA((2, 3), np.array([[0, 0], [0, 1], [0, 2]])),
                  MixedOA((300,), np.array([[299]]))):
            assert verify_moa(a, 0)

    def test_non_integer_index_witness(self):
        rows = np.array([[0, 0], [1, 1], [0, 2], [1, 0]], dtype=np.int64)
        a = MixedOA((2, 3), rows)
        v = verify_moa(a, 2)
        assert not v
        assert v.witness == {"kind": "NonIntegerIndex", "columns": [0, 1],
                             "alphabet_product": 6, "rows": 4}

    def test_tuple_witness_names_first_subset(self):
        rows = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.int64)
        a = MixedOA((2, 2), rows)
        v = verify_moa(a, 2)
        assert not v
        assert v.witness["columns"] == [0, 1]
        assert v.witness["tuple"] == [0, 0]  # first tuple in rank order
        assert (v.witness["observed"], v.witness["expected"]) == (2, 1)

    def test_strength_bounds_checked(self, ham23):
        a = net_to_moa(ham23, (1, 1))
        with pytest.raises(ParamError):
            verify_moa(a, 3)
        with pytest.raises(ParamError):
            verify_moa(a, -1)

    def test_agrees_with_oracle(self, ham23, ham32, faure333):
        arrays = [
            net_to_moa(ham23, (1, 2)),
            net_to_moa(ham23, (1, 1)),
            net_to_moa(ham32, (1, 1)),
            net_to_moa(faure333, (1, 1, 1)),
            net_to_moa(corpus.random_pointset(2, 3, 2, 1), (1, 2)),
            net_to_moa(corpus.random_pointset(3, 2, 3, 2), (1, 1, 1)),
        ]
        for a in arrays:
            for t in range(0, a.k + 1):
                assert bool(verify_moa(a, t)) == \
                    oracles.brute_verify_moa(a.rows, a.alphabets, t), (a, t)

    def test_column_permutation_invariance(self, ham23):
        a = net_to_moa(ham23, (1, 2))
        perm = MixedOA((4, 2), a.rows[:, [1, 0]])
        for t in (1, 2):
            assert bool(verify_moa(a, t)) == bool(verify_moa(perm, t))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(2, 3), st.integers(1, 3), st.data())
    def test_oracle_agreement_property(self, base, k, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            alphabets = tuple(data.draw(st.sampled_from([2, 3, 4])) for _ in range(k))
            n = data.draw(st.sampled_from([2, 4, 6, 8, 12]))
            rows = np.array(
                [[data.draw(st.integers(0, l - 1)) for l in alphabets] for _ in range(n)],
                dtype=np.int64)
            a = MixedOA(alphabets, rows)
            t = data.draw(st.integers(0, k))
            assert bool(verify_moa(a, t)) == oracles.brute_verify_moa(rows, alphabets, t)


class TestMaxStrength:
    def test_reference_values(self, ham23, ham32, faure333):
        assert max_strength(net_to_moa(ham23, (1, 2))) == 2
        assert max_strength(net_to_moa(ham23, (1, 1))) == 2
        assert max_strength(net_to_moa(ham32, (1, 1))) == 2
        assert max_strength(net_to_moa(faure333, (1, 1, 1))) == 3

    def test_degrades_with_defects(self, ham23):
        bad = corpus.flip_digit(ham23, 0, 1, 0)  # break the leading digit
        assert max_strength(net_to_moa(bad, (1, 1))) < 2

    def test_matches_oracle(self, ham23, faure333):
        for a in (net_to_moa(ham23, (1, 2)), net_to_moa(faure333, (1, 1, 1)),
                  net_to_moa(corpus.random_pointset(2, 2, 2, 4), (1, 1))):
            assert max_strength(a) == oracles.brute_max_strength(a.rows, a.alphabets)

    def test_every_lower_strength_passes(self, faure333):
        a = net_to_moa(faure333, (1, 1, 1))
        best = max_strength(a)
        for t in range(best + 1):
            assert verify_moa(a, t)
