"""Internal helpers: ranking round trips, digit encoding, the uniformity kernel."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from evnets import _util
from evnets._util import (PrefixTable, _first_nonuniform, digit_matrix, digit_window,
                          rank_rows, unrank)


def window(digits, coord, start, width, base):
    return digit_window(digits, coord, start, width, base,
                        np.empty(digits.shape[0], dtype=np.int64))


class TestFirstNonuniform:
    def test_uniform_counts_pass(self):
        assert _first_nonuniform(np.array([0, 1, 2, 2, 1, 0]), 3, 2) is None

    def test_first_bad_cell_and_its_count(self):
        # cell 1 is over-full, cell 2 empty: the lower cell is reported
        assert _first_nonuniform(np.array([0, 1, 1, 3]), 4, 1) == (1, 2)

    def test_cells_no_key_reaches_are_counted_empty(self):
        assert _first_nonuniform(np.array([0, 1]), 3, 1) == (2, 0)


class TestPrefixTable:
    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 9), st.lists(st.integers(1, 3), min_size=1, max_size=4),
           st.integers(0, 4), st.integers(1, 12), st.data())
    def test_keys_rank_the_shape_windows(self, base, e, depth, n, data):
        # a shape's key is the mixed-radix rank of coordinate i's leading
        # d_i / e_i width-e_i windows, first coordinate first
        m = depth + data.draw(st.integers(0, 2))
        digits = np.array(data.draw(st.lists(st.integers(0, base - 1), min_size=n * len(e) * m,
                                             max_size=n * len(e) * m)),
                          dtype=np.int64).reshape(n, len(e), m)
        table = PrefixTable.of_digits(digits, base, e, depth)
        shape = [ei * data.draw(st.integers(0, depth // ei)) for ei in e]
        cols = [window(digits, i, l, ei, base)
                for i, (d, ei) in enumerate(zip(shape, e)) for l in range(0, d, ei)]
        rads = [base ** ei for d, ei in zip(shape, e) for _ in range(d // ei)]
        want = rank_rows(np.array(cols, dtype=np.int64).reshape(len(cols), n).T, rads)
        assert np.array_equal(table.keys(shape), want)

    def test_digit_windows_are_width_e_blocks(self):
        digits = np.array([[[1, 0, 1, 1], [0, 1, 2, 2]],
                           [[0, 1, 1, 0], [2, 2, 0, 1]]], dtype=np.int64)
        table = PrefixTable.of_digits(digits, 3, (1, 2), 4)
        for i, ei in enumerate((1, 2)):
            for k in range(1, 4 // ei + 1):
                assert np.array_equal(table.levels[i][k - 1],
                                      window(digits, i, 0, k * ei, 3))

    def test_dtype_follows_the_cell_count(self):
        # fewer than 2**31 cells fit int32, 2**31 do not; keys and levels
        # share the dtype, and the largest key survives it
        cases = [(2 ** 31 - 1, 1, np.int32), (2 ** 31, 1, np.int64),
                 (2, 30, np.int32), (2, 31, np.int64)]
        for base, depth, dtype in cases:
            digits = np.full((2, 1, depth), base - 1, dtype=np.int64)
            table = PrefixTable.of_digits(digits, base, (1,), depth)
            assert table.dtype == dtype and table.levels[0][-1].dtype == dtype
            keys = table.keys((depth,))
            assert keys.dtype == dtype and int(keys[0]) == base ** depth - 1

    def test_keys_past_the_depth_widen(self):
        # an int32 table (9**4 cells) asked for a 9**13-cell shape ranks it in
        # int64 instead of wrapping
        digits = np.full((1, 4, 4), 8, dtype=np.int64)
        table = PrefixTable.of_digits(digits, 9, (1, 3, 3, 3), 4)
        assert table.dtype == np.int32
        keys = table.keys((4, 3, 3, 3))
        assert keys.dtype == np.int64 and int(keys[0]) == 9 ** 13 - 1

    def test_first_failure_names_shape_and_box(self):
        # four points of one binary coordinate: depth 1 is uniform, but the
        # second digit repeats the first, so at depth 2 box 0 holds two points
        digits = np.array([[[0, 0]], [[1, 1]], [[0, 0]], [[1, 1]]], dtype=np.uint8)
        table = PrefixTable.of_digits(digits, 2, (1,), 2)
        assert table.first_failure([(1,)]) is None
        assert table.first_failure([(0,), (1,), (2,)]) == ((2,), 0, 2, 1)


def horner(row, radices):
    key = 0
    for v, r in zip(row, radices):
        key = key * r + int(v)
    return key


class TestRanking:
    @given(st.lists(st.integers(2, 5), min_size=1, max_size=4), st.data())
    def test_unrank_inverts_rank(self, radices, data):
        row = [data.draw(st.integers(0, r - 1)) for r in radices]
        rank = int(rank_rows(np.array([row]), radices)[0])
        assert unrank(rank, radices) == row

    def test_rank_covers_the_full_product(self):
        radices = [2, 3, 2]
        rows = np.array(list(itertools.product(*(range(r) for r in radices))))
        keys = rank_rows(rows, radices)
        assert sorted(keys) == list(range(12))  # bijective and dense

    def test_first_column_most_significant(self):
        keys = rank_rows(np.array([[0, 0], [1, 0]]), [2, 3])
        assert list(keys) == [0, 3]

    def test_no_columns_rank_every_row_as_zero(self):
        keys = rank_rows(np.zeros((5, 0), dtype=np.uint8), [])
        assert keys.dtype == np.int64 and keys.tolist() == [0] * 5

    def test_product_of_two_to_the_63_stays_int64(self):
        rows = np.array([[1] * 63, [0] * 62 + [1]], dtype=np.uint8)
        keys = rank_rows(rows, [2] * 63)
        assert keys.dtype == np.int64 and keys.tolist() == [2 ** 63 - 1, 1]

    def test_keys_past_int64_are_python_ints(self):
        # the radices multiply to 2**63 + 1, so the largest key is 2**63
        radices = [27, 19, 43, 5419, 77158673929]
        rng = np.random.default_rng(3)
        rows = np.array([[r - 1 for r in radices], [0] * 5]
                        + [[int(rng.integers(r)) for r in radices] for _ in range(6)],
                        dtype=np.int64)
        keys = rank_rows(rows, radices)
        assert keys.dtype == object and all(type(k) is int for k in keys)
        assert keys.tolist() == [horner(row, radices) for row in rows.tolist()]
        assert keys[0] == 2 ** 63

    def test_compact_digits_rank_as_int64(self):
        rows = np.array([[255, 255], [1, 2]], dtype=np.uint8)
        keys = rank_rows(rows, [256, 256])
        assert keys.dtype == np.int64 and keys.tolist() == [65535, 258]


class TestDigits:
    @given(st.integers(2, 6), st.integers(1, 6), st.data())
    def test_digit_matrix_round_trip(self, base, width, data):
        values = data.draw(st.lists(st.integers(0, base ** width - 1),
                                    min_size=1, max_size=8))
        mat = digit_matrix(values, width, base)
        powers = base ** np.arange(width - 1, -1, -1)
        assert list(mat @ powers) == values
        assert mat.min() >= 0 and mat.max() < base

    def test_digit_matrix_takes_ranges_and_array_columns(self):
        want = digit_matrix(list(range(3, 50, 4)), 4, 3)
        assert np.array_equal(digit_matrix(range(3, 50, 4), 4, 3), want)
        table = np.array(list(range(3, 50, 4)) * 2, dtype=np.int64).reshape(2, -1).T
        column = table[:, 1]  # a strided view
        assert np.array_equal(digit_matrix(column, 4, 3), want)
        assert np.array_equal(table[:, 1], list(range(3, 50, 4)))  # input untouched

    def test_digit_matrix_chunks_join_seamlessly(self, monkeypatch):
        values = range(5, 2000, 3)
        want = [[v // 7 ** (3 - j) % 7 for j in range(4)] for v in values]
        monkeypatch.setattr(_util, "_CHUNK_BYTES", 8 * 4 * 5)  # five rows per chunk
        got = digit_matrix(values, 4, 7)
        assert got.dtype == np.uint8 and got.tolist() == want
        assert digit_matrix(np.array(values), 4, 7).tolist() == want

    def test_uint8_values_split_as_int64_values(self):
        # uint8 values divide in uint8 for bases up to 255: the same digits
        # as the int64 route, under value-based promotion as under NEP 50
        values = np.arange(256, dtype=np.uint8)
        for base in range(2, 257):
            for width in (1, 2, 3):
                got = digit_matrix(values, width, base)
                want = digit_matrix(values.astype(np.int64), width, base)
                assert got.dtype == want.dtype == np.uint8
                assert np.array_equal(got, want), (base, width)
        assert digit_matrix(values, 2, 16).tolist() == [[v // 16, v % 16] for v in range(256)]

    def test_digit_matrix_splits_a_block_of_columns(self, monkeypatch):
        monkeypatch.setattr(_util, "_CHUNK_BYTES", 8 * 3 * 2 * 2)  # two rows per chunk
        rows = np.arange(48, dtype=np.uint8).reshape(8, 6)  # below 7**2
        block = rows[:, 1:4]  # a strided view
        got = digit_matrix(block, 2, 7)
        assert got.shape == (8, 3, 2)
        assert got.tolist() == [[[v // 7, v % 7] for v in row] for row in block.tolist()]

    def test_digit_window_reads_digit_windows(self):
        digits = np.array([[[1, 0, 1, 1]], [[0, 1, 1, 0]]], dtype=np.int64)
        assert list(window(digits, 0, 0, 2, 2)) == [2, 1]
        assert list(window(digits, 0, 2, 2, 2)) == [3, 2]
        assert list(window(digits, 0, 0, 0, 2)) == [0, 0]
