"""Data-model invariants: validation, exact values, immutability, equality."""

import re

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from evnets import EVector, MixedOA, MixedOOA, PointSet, Verdict
from evnets.errors import ParamError, PrecisionError

from storage import storage


# ---------------------------------------------------------------------------
# EVector

class TestEVector:
    def test_coerce_accepts_sequences_and_instances(self):
        e = EVector.coerce([1, 2, 1])
        assert e.e == (1, 2, 1)
        assert EVector.coerce(e) is e

    def test_length_and_indexing(self):
        e = EVector((3, 1, 2))
        assert len(e) == 3 and e.s == 3
        assert e[0] == 3 and e[-1] == 2
        assert list(e) == [3, 1, 2]

    @pytest.mark.parametrize("bad", [(), (0,), (1, -2), (1, 0, 3)])
    def test_rejects_empty_and_nonpositive(self, bad):
        with pytest.raises(ParamError):
            EVector(bad)

    def test_sorted_returns_copy_and_permutation(self):
        e = EVector((2, 1, 3, 1))
        es, perm = e.sorted()
        assert es.e == (1, 1, 2, 3)
        assert perm == (1, 3, 0, 2)  # stable: first 1 keeps its order
        assert tuple(e[i] for i in perm) == es.e
        assert not e.is_sorted and es.is_sorted

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    def test_sorted_permutation_is_consistent(self, entries):
        e = EVector(tuple(entries))
        es, perm = e.sorted()
        assert sorted(perm) == list(range(len(entries)))
        assert tuple(entries[i] for i in perm) == es.e
        assert es.is_sorted


# ---------------------------------------------------------------------------
# PointSet

def _ps(base, digit_rows):
    return PointSet(base, np.array(digit_rows, dtype=np.int64))


class TestPointSet:
    def test_shape_properties(self):
        p = _ps(2, [[[0, 1], [1, 0]], [[1, 1], [0, 0]]])
        assert (p.count, p.dim, p.precision) == (2, 2, 2)

    def test_rejects_digit_out_of_range(self):
        with pytest.raises(ParamError):
            _ps(2, [[[0, 2]]])
        with pytest.raises(ParamError):
            _ps(2, [[[0, -1]]])

    @pytest.mark.parametrize("make, message", [
        (lambda: _ps(1, [[[0]]]), "base must be >= 2, got 1"),
        (lambda: PointSet(2, np.zeros((2, 3), dtype=np.int64)),
         "digits must be 3-dimensional, got shape (2, 3)"),
        (lambda: PointSet(2, np.zeros((2, 0, 3), dtype=np.int64)),
         "point sets need at least one coordinate"),
    ])
    def test_rejects_bad_base_and_rank(self, make, message):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            make()

    def test_digits_are_read_only(self):
        p = _ps(2, [[[0, 1]]])
        with pytest.raises(ValueError):
            p.digits[0, 0, 0] = 1

    def test_coordinate_value_is_exact(self):
        # digits (1, 0, 1) base 2 -> 1/2 + 1/8 = 5/8
        p = _ps(2, [[[1, 0, 1]]])
        assert p.coordinate_value(0, 0) == Fraction(5, 8)
        with pytest.raises(IndexError):
            p.coordinate_value(1, 0)
        with pytest.raises(IndexError):
            p.coordinate_value(0, 1)

    def test_truncate_keeps_leading_digits(self):
        p = _ps(3, [[[2, 1, 0]], [[0, 2, 2]]])
        q = p.truncate(2)
        assert q.precision == 2
        assert q.coordinate_value(0, 0) == Fraction(7, 9)   # 2/3 + 1/9
        assert p.truncate(3) is p
        with pytest.raises(PrecisionError):
            p.truncate(4)
        with pytest.raises(ParamError):
            p.truncate(-1)

    def test_zero_precision_points(self):
        p = _ps(2, np.zeros((4, 2, 0), dtype=np.int64))
        assert p.precision == 0
        assert p.coordinate_value(3, 1) == 0

    def test_equality_is_digitwise(self):
        a = _ps(2, [[[0, 1]]])
        b = _ps(2, [[[0, 1]]])
        c = _ps(2, [[[1, 1]]])
        assert a == b and a != c
        assert a != "not a point set"

    @given(st.integers(min_value=2, max_value=5), st.integers(min_value=0, max_value=4),
           st.integers(min_value=1, max_value=3), st.data())
    def test_values_lie_in_unit_interval(self, base, m, s, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            digits = data.draw(st.lists(
                st.lists(st.lists(st.integers(0, base - 1), min_size=m, max_size=m),
                         min_size=s, max_size=s),
                min_size=1, max_size=4))
            p = PointSet(base, np.array(digits, dtype=np.int64).reshape(len(digits), s, m))
            for n in range(p.count):
                for i in range(p.dim):
                    v = p.coordinate_value(n, i)
                    assert 0 <= v < 1
                    assert (base ** m) % v.denominator == 0


# ---------------------------------------------------------------------------
# MixedOA

_OA_ROWS = np.array([[0, 2], [1, 0]], dtype=np.int64)


class TestMixedOA:
    def test_counts(self):
        a = MixedOA((2, 3), _OA_ROWS)
        assert a.runs == 2 and a.k == 2 and a.strength == 0

    @pytest.mark.parametrize("alphabets, rows, strength, message", [
        ((2, 2), _OA_ROWS, 0, "column 1 must lie in [0, 2)"),
        ((2,), _OA_ROWS, 0, "rows have 2 columns, expected 1"),
        ((2, 3), _OA_ROWS, 3, "claimed strength must lie in [0, 2], got 3"),
        ((1, 3), _OA_ROWS, 0, "alphabet sizes must be >= 2, got (1, 3)"),
        ((), np.zeros((2, 0), dtype=np.int64), 0, "mixed arrays need at least one column"),
        ((2,), np.zeros((0, 1), dtype=np.int64), 0, "mixed arrays need at least one row"),
    ])
    def test_validation(self, alphabets, rows, strength, message):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            MixedOA(alphabets, rows, strength=strength)

    def test_equality_includes_strength(self):
        rows = np.zeros((2, 1), dtype=np.int64)
        assert MixedOA((2,), rows) == MixedOA((2,), rows)
        assert MixedOA((2,), rows, strength=1) != MixedOA((2,), rows, strength=0)


# ---------------------------------------------------------------------------
# MixedOOA

class TestMixedOOA:
    def test_validation_and_block_access(self):
        rows = np.array([[0, 0, 0], [1, 0, 1], [0, 1, 2], [1, 1, 3]], dtype=np.int64)
        a = MixedOOA(2, 2, 0, EVector((1, 2)), (2, 1), rows)
        assert a.runs == 4 and a.dim == 2
        assert a.block_start(0) == 0 and a.block_start(1) == 2
        assert list(a.column(1, 0)) == [0, 1, 2, 3]
        with pytest.raises(IndexError):
            a.column(1, 1)

    @pytest.mark.parametrize("base, m, u, e, beta, columns, message", [
        (2, 2, 1, (1, 2), (2, 1), 3, "beta[0]=2 outside [0, 1] allowed by (m-u)/e_i"),
        (2, 2, 0, (1,), (3,), 3, "beta[0]=3 outside [0, 2] allowed by (m-u)/e_i"),
        (1, 2, 0, (1,), (2,), 2, "base must be >= 2, got 1"),
        (2, 2, 3, (1,), (2,), 2, "need 0 <= u <= m, got u=3, m=2"),
        (2, -1, 0, (1,), (2,), 2, "need 0 <= u <= m, got u=0, m=-1"),
        (2, 2, 0, (1,), (2, 0), 2, "beta has 2 entries, e-vector has 1"),
        (2, 2, 0, (1,), (2,), 3, "expected sum(beta) = 2 columns, got 3"),
    ])
    def test_parameters_are_validated(self, base, m, u, e, beta, columns, message):
        rows = np.zeros((4, columns), dtype=np.int64)
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            MixedOOA(base, m, u, EVector(e), beta, rows)

    def test_zero_beta_blocks_allowed(self):
        a = MixedOOA(2, 1, 1, EVector((1, 1)), (0, 0), np.zeros((2, 0), dtype=np.int64))
        assert a.runs == 2 and sum(a.beta) == 0

    def test_row_count_must_match_base_power(self):
        with pytest.raises(ParamError, match=r"^expected base\*\*m = 2\*\*2 rows, got 3$"):
            MixedOOA(2, 2, 0, EVector((1,)), (2,), np.zeros((3, 2), dtype=np.int64))
        # a power that cannot equal the row count is never built
        with pytest.raises(ParamError, match=r"^expected base\*\*m = 2\*\*1000000000000 rows, "
                                             r"got 1$"):
            MixedOOA(2, 10 ** 12, 0, EVector((1,)), (0,), np.zeros((1, 0), dtype=np.int64))

    def test_column_value_range_uses_block_alphabet(self):
        rows = np.array([[0, 3], [0, 0], [1, 1], [1, 2]], dtype=np.int64)
        a = MixedOOA(2, 2, 0, EVector((1, 2)), (1, 1), rows)   # block 1 alphabet 4
        assert a.column(1, 0).max() == 3
        bad = np.array([[0, 4], [0, 0], [1, 1], [1, 2]], dtype=np.int64)
        with pytest.raises(ParamError):
            MixedOOA(2, 2, 0, EVector((1, 2)), (1, 1), bad)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("block", [0, 1, 2])
    @pytest.mark.parametrize("where", [(0,), (1,), (2,), (1, 2), (2, 0)],
                             ids=["first", "middle", "last", "middle+last", "last+first"])
    def test_out_of_range_names_the_first_bad_column(self, dtype, block, where):
        # blocks of three columns with alphabets 2, 4, 2: columns 0-2, 3-5, 6-8
        e, beta = EVector((1, 2, 1)), (3, 3, 3)
        alphabets = [2] * 3 + [4] * 3 + [2] * 3
        rows = np.random.default_rng(block).integers(0, 2, (64, 9)).astype(dtype)
        for k, j in enumerate(where):
            col = 3 * block + j
            rows[5 + k, col] = -1 if dtype == np.int64 and k else alphabets[col] + k
        rows[60, 8] = 7  # the last column is bad too, and never the first bad one
        # the reference: columns in order, each checked on its own
        first = next(j for j in range(9) if not 0 <= rows[:, j].astype(int).min()
                     or rows[:, j].max() >= alphabets[j])
        want = f"column {first} (block {first // 3}) must lie in [0, {alphabets[first]})"
        assert first == 3 * block + min(where)
        with pytest.raises(ParamError) as err:
            MixedOOA(2, 6, 0, e, beta, rows)
        assert str(err.value) == want


# ---------------------------------------------------------------------------
# Verdict

class TestVerdict:
    def test_truthiness(self):
        assert Verdict(True)
        assert not Verdict(False, {"why": "x"})

    def test_witness_present_iff_failed(self):
        with pytest.raises(ParamError):
            Verdict(True, {"impossible": 1})
        with pytest.raises(ParamError):
            Verdict(False)


# ---------------------------------------------------------------------------
# package namespace

class TestPublicNames:
    def test_every_public_name_is_its_module_attribute(self):
        import importlib

        import evnets

        assert len(set(evnets.__all__)) == len(evnets.__all__)
        for name in evnets.__all__:
            module = importlib.import_module(f"evnets.{evnets._MODULE_OF[name]}")
            assert name in module.__all__, name
            assert getattr(evnets, name) is getattr(module, name), name

    def test_every_module_export_is_a_package_name(self):
        import importlib

        import evnets

        # a constant, used through its module
        not_reexported = {"DIGIT_CHARS"}
        for module_name in evnets._SOURCES:
            module = importlib.import_module(f"evnets.{module_name}")
            for name in set(module.__all__) - not_reexported:
                assert getattr(evnets, name) is getattr(module, name), name
