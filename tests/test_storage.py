"""Compact storage: uint8 digits and rows for alphabets up to 256, int64 above,
the wrap edges at 255, and memory peaks near the compact tensor."""

import hashlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from evnets import (
    MixedOA, MixedOOA, PointSet, moa_chunks, mooa_chunks, mooa_to_net, net_chunks, net_to_moa,
    net_to_mooa, parse_moa, parse_mooa, parse_net, rebase_compress, rebase_expand, verify_moa,
    verify_mooa, verify_net,
)
from evnets import _util, io
from evnets.corpus import digital_net, faure, flip_digit, grid_1d, hammersley, random_pointset
from evnets.errors import ParamError

import oracles


def _stored_as(arr, dtype):
    assert arr.dtype == dtype
    assert arr.flags.c_contiguous and not arr.flags.writeable


class TestDtypeBoundaries:
    def test_point_set_digits_narrow_up_to_base_256(self):
        _stored_as(PointSet(256, np.array([[[255, 0]]], dtype=np.int64)).digits, np.uint8)
        _stored_as(PointSet(257, np.array([[[256, 0]]], dtype=np.int64)).digits, np.int64)
        _stored_as(grid_1d(256, 1).digits, np.uint8)
        _stored_as(grid_1d(257, 1).digits, np.int64)

    def test_range_is_checked_before_narrowing(self):
        # 256 and -1 would wrap to valid uint8 digits if narrowed first
        for bad in (256, -1):
            with pytest.raises(ParamError, match=r"digits must lie in \[0, 256\)"):
                PointSet(256, np.array([[[bad]]], dtype=np.int64))
        with pytest.raises(ParamError, match=r"column 0 must lie in \[0, 256\)"):
            MixedOA((256,), np.array([[256]]))

    def test_strided_input_is_stored_contiguous(self):
        wide = np.zeros((4, 2, 6), dtype=np.int64)
        wide[:, :, ::2] = [[1, 2, 3], [4, 5, 6]]
        p = PointSet(7, wide[:, :, ::2])
        _stored_as(p.digits, np.uint8)
        assert p.digits.tolist() == wide[:, :, ::2].tolist()

    def test_moa_rows_follow_the_largest_alphabet(self):
        _stored_as(MixedOA((256, 2), np.array([[255, 1], [0, 0]])).rows, np.uint8)
        _stored_as(MixedOA((2, 257), np.array([[1, 256], [0, 0]])).rows, np.int64)
        rows = np.array([[2 ** 40 - 1, 0], [5, 1]], dtype=np.int64)
        a = MixedOA((2 ** 40, 2), rows)
        _stored_as(a.rows, np.int64)
        assert a.rows.tolist() == rows.tolist()
        back = parse_moa(b"".join(moa_chunks(a)))
        assert back == a and back.rows.dtype == np.int64
        assert bool(verify_moa(a, 1)) == oracles.brute_verify_moa(rows, (2 ** 40, 2), 1)

    @pytest.mark.parametrize("b, e, dtype", [
        (2, 8, np.uint8), (16, 2, np.uint8), (256, 1, np.uint8),
        (2, 9, np.int64), (17, 2, np.int64), (257, 1, np.int64)])
    def test_mooa_rows_follow_the_largest_column_alphabet(self, b, e, dtype):
        arr = net_to_mooa(grid_1d(b, e), 0, (e,))
        _stored_as(arr.rows, dtype)
        assert arr.rows[:, 0].tolist() == list(range(b ** e))
        back = parse_mooa(b"".join(mooa_chunks(arr)))
        assert back == arr and back.rows.dtype == dtype

    def test_mooa_without_wide_columns_stays_compact(self):
        # block 1 (alphabet 2**9) carries no column, so only 2**1 counts
        arr = MixedOOA(2, 1, 0, (1, 9), (1, 0), np.array([[0], [1]]))
        _stored_as(arr.rows, np.uint8)

    def test_rebase_crosses_the_boundary_both_ways(self):
        grid = grid_1d(2, 9)
        for r, dtype in ((3, np.uint8), (9, np.int64)):
            packed = rebase_compress(grid, r)
            _stored_as(packed.digits, dtype)
            assert oracles.coord_fractions(packed) == oracles.coord_fractions(grid)
            assert rebase_expand(packed, r) == grid
        top = rebase_compress(grid_1d(2, 8), 8)
        _stored_as(top.digits, np.uint8)
        assert top.digits[:, 0, 0].tolist() == list(range(256))


class TestWrapEdges:
    """Digits and columns holding 255, where uint8 arithmetic would wrap."""

    def test_flip_digit_wraps_modulo_base_256(self):
        p = hammersley(256, 1)
        high = flip_digit(p, 255, 0, 0)
        assert int(high.digits[255, 0, 0]) == 0
        assert int(flip_digit(p, 254, 1, 0).digits[254, 1, 0]) == 255
        assert int(flip_digit(high, 255, 0, 0).digits[255, 0, 0]) == 1
        assert (high.digits != p.digits).sum() == 1

    def test_coordinate_value_of_digit_255(self):
        p = grid_1d(256, 2)
        assert p.coordinate_value(256 ** 2 - 1, 0) == Fraction(256 ** 2 - 1, 256 ** 2)

    def test_box_counts_agree_with_oracle_at_base_256(self):
        p = flip_digit(hammersley(256, 1), 255, 0, 0)  # point 255 moves to (0, 255)
        table = _util.PrefixTable.of_digits(p.digits, 256, (1, 1), 1)
        for shape, index in [((1, 0), (0, 0)), ((1, 0), (255, 0)), ((0, 1), (0, 255)),
                             ((1, 1), (255, 255)), ((1, 1), (0, 255)), ((1, 1), (0, 0))]:
            key = np.ravel_multi_index(index, [256 ** d for d in shape])
            assert np.count_nonzero(table.keys(shape) == key) == \
                oracles.brute_count_box(p, shape, index)

    def test_box_count_of_a_window_above_255(self):
        p = grid_1d(16, 3)  # windows of two base-16 digits reach 255
        keys = _util.PrefixTable.of_digits(p.digits, 16, (2,), 2).keys((2,))
        for index in (0, 254, 255):
            assert np.count_nonzero(keys == index) == \
                oracles.brute_count_box(p, (2,), (index,)) == 16

    @pytest.mark.parametrize("b", [256, 257])
    def test_verify_net_agrees_with_oracle(self, b):
        good = grid_1d(b, 1)
        bad = flip_digit(good, b - 1, 0, 0)
        for p in (good, bad):
            assert bool(verify_net(p, 0, (1,))) == oracles.brute_verify_net(p, 0, (1,))
        witness = verify_net(bad, 0, (1,)).witness
        assert witness == {"shape": [1], "box": [0], "observed": 2, "expected": 1}

    @pytest.mark.parametrize("b, m, e", [(2, 8, (8,)), (16, 2, (2,)), (16, 2, (2, 2)),
                                         (2, 8, (8, 8))])
    def test_mooa_columns_holding_255(self, b, m, e):
        points = grid_1d(b, m) if len(e) == 1 else hammersley(b, m)
        arr = net_to_mooa(points, 0, e)
        assert arr.rows.dtype == np.uint8 and int(arr.rows.max()) == 255
        assert verify_mooa(arr)
        assert oracles.brute_verify_mooa(arr.rows, b, m, 0, e, arr.beta, "all")
        assert mooa_to_net(arr) == points
        bad = flip_digit(points, 255, 0, m - 1)
        bad_arr = net_to_mooa(bad, 0, e)
        assert not verify_mooa(bad_arr) and not verify_net(bad, 0, e)
        assert not oracles.brute_verify_mooa(bad_arr.rows, b, m, 0, e, bad_arr.beta, "all")

    def test_moa_of_leading_windows_up_to_255(self):
        a = net_to_moa(hammersley(16, 2), (2, 1))
        assert a.alphabets == (256, 16) and a.rows.dtype == np.uint8
        assert int(a.rows[:, 0].max()) == 255
        assert bool(verify_moa(a, 2)) == oracles.brute_verify_moa(a.rows, a.alphabets, 2)


def _peak(make):
    tracemalloc.start()
    try:
        result = make()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestPeakMemory:
    """Generators keep only the compact tensor plus a chunk of work;
    parsing holds the text's bytes and the tensor plus one tokenised chunk."""

    @pytest.mark.parametrize("make", [
        lambda: faure(3, 10, 3),
        lambda: faure(7, 5, 7),
        lambda: hammersley(2, 17),
        lambda: hammersley(131, 3),  # sums widened to uint16
        lambda: grid_1d(2, 18),
        lambda: digital_net(2, [np.eye(16, dtype=np.int64)] * 3),
        lambda: random_pointset(2, 16, 3, 0),
    ])
    def test_generator_peak_is_about_the_tensor(self, make):
        make()  # what a first call imports is not the generator's
        points, peak = _peak(make)
        assert points.digits.dtype == np.uint8
        # the generating matrices, and a chunk of sums or draws
        assert peak <= points.digits.nbytes + _util._CHUNK_BYTES + (1 << 16)

    @pytest.mark.parametrize("points", [hammersley(2, 17), faure(3, 10, 3)])
    def test_parse_net_peak_is_about_the_tensor(self, points):
        data = b"".join(net_chunks(points, 0, (1,) * points.dim))
        # one chunk of text is tokenised at once: a byte-to-digit lookup that
        # widens to intp, token offsets and masks, at most 16 bytes per byte;
        # the bytes of the file are parsed as they are, with no copy
        chunk = 16 * io._CHUNK_BYTES
        net, peak = _peak(lambda: parse_net(data))
        assert net.points == points and net.points.digits.dtype == np.uint8
        assert peak <= points.digits.nbytes + chunk


def test_generators_do_not_depend_on_the_chunk_size(monkeypatch):
    make = [lambda: faure(3, 4, 3), lambda: hammersley(2, 6), lambda: grid_1d(5, 3),
            lambda: random_pointset(3, 4, 2, 9)]
    whole = [f() for f in make]
    monkeypatch.setattr(_util, "_CHUNK_BYTES", 8)  # one point per chunk
    assert [f() for f in make] == whole


class TestRandomStream:
    """Drawing the digits a chunk at a time keeps every seed's stream; the
    digests were taken from one (b**m, s, m) int64 draw."""

    @pytest.mark.parametrize("b, m, s, seed, digest", [
        (2, 16, 3, 0, "acfb6afcdb9bfe0e9bdf85ceba5edcc42d1947cc76b6e601d485fe5faa0d0411"),
        (2, 16, 3, 7, "ef1f3c1745017babf93f2abcf730b9fc883196d29e25d6e98ec3965daf43830e"),
        (5, 6, 4, 0, "2d286c5b1312d0cc6f7559219558c2822a203f77df15ea6aeed9e05489dbab92"),
        (5, 6, 4, 7, "be4c904183216fa53b9306c6f29823dd767ecddb8d193d70646b5bd08a443be5"),
    ])
    def test_gen_random_text_is_pinned(self, b, m, s, seed, digest):
        points = random_pointset(b, m, s, seed)
        assert len(_util.row_chunks(points.count, s * m)) > 1  # drawn in chunks
        text = b"".join(net_chunks(points, m, (1,) * s))
        assert hashlib.sha256(text).hexdigest() == digest
