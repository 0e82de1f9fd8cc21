"""Text-format contracts: round trips, canonicalization, line-numbered errors."""

import io as stdio
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from storage import storage

from evnets import (
    EVector, MixedOA, MixedOOA, PointSet,
    moa_chunks, mooa_chunks, net_chunks, parse_moa, parse_mooa, parse_net,
)
from evnets.errors import FormatError, ParamError
from evnets.io import DIGIT_CHARS, parse_function_tuples
from evnets import corpus, io, net_to_mooa
from evnets.cli import EXIT_FORMAT, main


HAM_23_TEXT = (
    b"NET v1\n"
    b"base 2 m 3 s 2 u 0\n"
    b"e 1 1\n"
    b"000 000\n"
    b"100 001\n"
    b"010 010\n"
    b"110 011\n"
    b"001 100\n"
    b"101 101\n"
    b"011 110\n"
    b"111 111\n"
)


def _net_bytes(points, u, e) -> bytes:
    return b"".join(net_chunks(points, u, e))


def _assert_cli_and_oracle_agree(tmp_path, capsys, command, data, oracle, message):
    """A command reading ``data`` exits 3 with ``message``, and the line-by-line
    oracle parser refuses it with the same message."""
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([command, str(path)]) == EXIT_FORMAT
    assert capsys.readouterr() == ("", f"error: {message}\n")
    with pytest.raises(oracles.OracleFormatError) as err:
        oracle(data.decode())
    assert str(err.value) == message


class TestNetFormat:
    def test_serialize_matches_frozen_text(self, ham23):
        assert _net_bytes(ham23, 0, EVector((1, 1))) == HAM_23_TEXT

    def test_parse_recovers_points_and_parameters(self, ham23):
        nf = parse_net(HAM_23_TEXT)
        assert nf.points == ham23
        assert nf.u == 0 and nf.e.e == (1, 1)

    def test_parse_then_serialize_is_identity_on_canonical_text(self):
        assert _net_bytes(*_unpack(parse_net(HAM_23_TEXT))) == HAM_23_TEXT

    def test_whitespace_is_normalized(self):
        messy = HAM_23_TEXT.replace(b"base 2", b"base   2").replace(b"000 000", b"  000\t000")
        assert _net_bytes(*_unpack(parse_net(messy))) == HAM_23_TEXT

    def test_final_newline_optional(self):
        assert parse_net(HAM_23_TEXT.rstrip(b"\n")).points == parse_net(HAM_23_TEXT).points

    def test_point_count_is_body_line_count(self):
        nf = parse_net(HAM_23_TEXT.replace(b"111 111\n", b""))
        assert nf.points.count == 7

    def test_m_zero_round_trip(self):
        p = PointSet(2, np.zeros((2, 1, 0), dtype=np.int64))
        text = _net_bytes(p, 0, EVector((1,)))
        assert text == b"NET v1\nbase 2 m 0 s 1 u 0\ne 1\n\n\n"
        nf = parse_net(text)
        assert nf.points == p

    def test_digit_characters_above_nine(self):
        p = PointSet(12, np.array([[[10, 11]]], dtype=np.int64))
        text = _net_bytes(p, 0, EVector((1,)))
        assert b"AB" in text
        assert parse_net(text).points == p

    def test_base_36_limit(self):
        p36 = PointSet(36, np.array([[[35]]], dtype=np.int64))
        assert DIGIT_CHARS[35] == "Z"
        assert parse_net(_net_bytes(p36, 0, EVector((1,)))).points == p36
        p37 = PointSet(37, np.array([[[36]]], dtype=np.int64))
        with pytest.raises(ParamError, match="base 37 exceeds 36"):
            net_chunks(p37, 0, EVector((1,)))

    @pytest.mark.parametrize("mutate, lineno, message", [
        (lambda t: t.replace(b"NET v1", b"NET v2"), 1, "expected 'NET v1', got 'NET v2'"),
        (lambda t: t.replace(b"base 2 m 3 s 2 u 0", b"base 2 m 3 s 2"), 2,
         "expected header 'base <base> m <m> s <s> u <u>', got 'base 2 m 3 s 2'"),
        (lambda t: t.replace(b"base 2 m 3 s 2 u 0", b"base 2 m 3 s 2 u 9"), 2,
         "invalid parameters base=2 m=3 s=2 u=9"),
        (lambda t: t.replace(b"base 2", b"base 1"), 2, "base must be >= 2, got 1"),
        (lambda t: t.replace(b"base 2", b"base 37"), 2,
         "base 37 exceeds 36, not representable with digit characters"),
        (lambda t: t.replace(b"e 1 1", b"e 1"), 3, "expected 2 values after 'e', got 1"),
        (lambda t: t.replace(b"e 1 1", b"e 0 1"), 3, "e-vector entries must be >= 1, got [0, 1]"),
        (lambda t: t.replace(b"100 001", b"100 01"), 5,
         "digit string '01' has length 2, expected 3"),
        (lambda t: t.replace(b"100 001", b"100 002"), 5, "character '2' is not a base-2 digit"),
        (lambda t: t.replace(b"100 001", b"100"), 5, "expected 2 digit strings, got 1"),
        (lambda t: b"NET v1\nbase 2 m 0 s 1 u 0\ne 1\n\n0\n", 5,
         "expected blank point line for m=0, got '0'"),
    ])
    def test_error_carries_line_number(self, mutate, lineno, message, tmp_path, capsys):
        with pytest.raises(FormatError) as err:
            parse_net(mutate(HAM_23_TEXT))
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"
        _assert_cli_and_oracle_agree(tmp_path, capsys, "verify-net", mutate(HAM_23_TEXT),
                                     oracles.oracle_parse_net, str(err.value))

    def test_truncated_header_reports_missing_line(self):
        with pytest.raises(FormatError) as err:
            parse_net(b"NET v1\n")
        assert err.value.line == 2

    def test_serialize_validates_claims(self, ham23):
        with pytest.raises(ParamError, match="claimed u=4 outside"):
            net_chunks(ham23, 4, EVector((1, 1)))
        with pytest.raises(ParamError, match="e-vector has 3 entries"):
            net_chunks(ham23, 0, EVector((1, 1, 1)))

    @given(st.integers(2, 5), st.integers(0, 3), st.integers(1, 3),
           st.integers(1, 6), st.data())
    def test_round_trip_random_point_sets(self, b, m, s, n, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            flat = data.draw(st.lists(st.integers(0, b - 1), min_size=n * s * m,
                                      max_size=n * s * m))
            p = PointSet(b, np.array(flat, dtype=np.int64).reshape(n, s, m))
            u = data.draw(st.integers(0, m))
            e = EVector(tuple(data.draw(st.integers(1, 3)) for _ in range(s)))
            text = _net_bytes(p, u, e)
            nf = parse_net(text)
            assert nf.points == p and nf.u == u and nf.e == e
            assert _net_bytes(nf.points, nf.u, nf.e) == text


def _unpack(nf):
    return nf.points, nf.u, nf.e


MOA_TEXT = (
    b"MOA v1\n"
    b"N 4 k 2 t 1\n"
    b"l 2 4\n"
    b"0 0\n"
    b"1 1\n"
    b"0 2\n"
    b"1 3\n"
)


class TestMoaFormat:
    def test_round_trip(self):
        a = parse_moa(MOA_TEXT)
        assert a.alphabets == (2, 4) and a.runs == 4 and a.strength == 1
        assert b"".join(moa_chunks(a)) == MOA_TEXT

    def test_row_count_enforced(self):
        with pytest.raises(FormatError) as err:
            parse_moa(MOA_TEXT + b"0 0\n")
        assert err.value.line == 8  # first extra row
        with pytest.raises(FormatError):
            parse_moa(MOA_TEXT.replace(b"1 3\n", b""))

    def test_entry_range_enforced(self):
        with pytest.raises(FormatError) as err:
            parse_moa(MOA_TEXT.replace(b"0 2", b"2 2"))
        assert err.value.line == 6

    @pytest.mark.parametrize("mutate, lineno", [
        (lambda t: t.replace(b"MOA v1", b"MOAv1"), 1),
        (lambda t: t.replace(b"N 4 k 2 t 1", b"N 4 k 2 t 3"), 2),
        (lambda t: t.replace(b"l 2 4", b"l 1 4"), 3),
    ])
    def test_header_errors(self, mutate, lineno):
        with pytest.raises(FormatError) as err:
            parse_moa(mutate(MOA_TEXT))
        assert err.value.line == lineno


class TestMooaFormat:
    def test_round_trip_from_construction(self, ham23):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        text = b"".join(mooa_chunks(arr))
        assert text.startswith(b"MOOA v1\nbase 2 m 3 s 2 u 0\ne 1 2\nbeta 3 1\n")
        back = parse_mooa(text)
        assert back == arr
        assert b"".join(mooa_chunks(back)) == text

    @pytest.mark.parametrize("u, e, lineno, message", [
        (b"1", b"1", 4, "beta[0]=2 outside [0, 1] allowed by (m-u)/e_i"),
        (b"1", b"0", 3, "e-vector entries must be >= 1, got [0]"),
        (b"3", b"1", 2, "invalid parameters base=2 m=2 s=1 u=3"),
    ])
    def test_header_vectors_enforced(self, u, e, lineno, message, tmp_path, capsys):
        bad = (b"MOOA v1\nbase 2 m 2 s 1 u " + u + b"\ne " + e + b"\nbeta 2\n"
               + b"0 0\n" * 4)
        with pytest.raises(FormatError) as err:
            parse_mooa(bad)
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"
        _assert_cli_and_oracle_agree(tmp_path, capsys, "verify-mooa", bad,
                                     oracles.oracle_parse_mooa, str(err.value))

    def test_zero_column_rows_are_blank(self):
        text = b"MOOA v1\nbase 2 m 1 s 1 u 1\ne 1\nbeta 0\n\n\n"
        arr = parse_mooa(text)
        assert arr.runs == 2 and arr.rows.shape == (2, 0)
        assert b"".join(mooa_chunks(arr)) == text
        with pytest.raises(FormatError) as err:
            parse_mooa(text.replace(b"\n\n\n", b"\n0\n\n"))
        assert err.value.line == 5

    def test_row_count_is_base_power(self):
        text = b"MOOA v1\nbase 2 m 2 s 1 u 0\ne 1\nbeta 2\n" + b"0 0\n" * 3
        with pytest.raises(FormatError):
            parse_mooa(text)

    def test_entry_range_uses_block_alphabet(self, ham23):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        lines = b"".join(mooa_chunks(arr)).split(b"\n")
        lines[4] = lines[4].rsplit(b" ", 1)[0] + b" 4"  # block-1 alphabet is 4
        with pytest.raises(FormatError) as err:
            parse_mooa(b"\n".join(lines))
        assert err.value.line == 5


class TestFunctionTupleParsing:
    def test_parse_returns_the_residue_matrix(self, ham23):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))  # beta (3, 1), widths 2,2,2,4
        tuples = parse_function_tuples(b"1 0 1 3\n0 0 0 0\n", arr)
        assert isinstance(tuples, np.ndarray) and tuples.shape == (2, 4)
        assert tuples.tolist() == [[1, 0, 1, 3], [0, 0, 0, 0]]
        assert parse_function_tuples(b"", arr).shape == (0, 4)

    def test_residue_count_and_range_errors(self, ham23):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        with pytest.raises(FormatError) as err:
            parse_function_tuples(b"1 0 1\n", arr)
        assert err.value.line == 1
        with pytest.raises(FormatError) as err:
            parse_function_tuples(b"1 0 1 3\n0 0 2 0\n", arr)
        assert err.value.line == 2


# ---------------------------------------------------------------------------
# body grammar, overflow, chunking and the line-by-line oracle

MOA_ROW = 6  # line of MOA_TEXT's "0 2" row


class TestBodyGrammar:
    @pytest.mark.parametrize("spelling", ["+0", "0_1", "-1", "\u0663", "1\u00b2", "0x1"])
    def test_entry_spelling_is_rejected(self, spelling):
        with pytest.raises(FormatError) as err:
            parse_moa(MOA_TEXT.replace(b"0 2", f"0 {spelling}".encode()))
        assert err.value.line == MOA_ROW
        assert str(err.value) == (f"line {MOA_ROW}: entry must be 1 to 19 digits 0-9, "
                                  f"got {spelling!r}")

    @pytest.mark.parametrize("space", ["\xa0", "\u2003", "\u3000", "\x85"])
    def test_non_ascii_whitespace_does_not_separate_entries(self, space):
        with pytest.raises(FormatError) as err:
            parse_moa(MOA_TEXT.replace(b"0 2", f"0{space}2".encode()))
        assert err.value.line == MOA_ROW
        assert "expected 2 entries, got 1" in str(err.value)

    @pytest.mark.parametrize("space", ["\xa0", "\u2003"])
    def test_non_ascii_whitespace_does_not_separate_digit_strings(self, space):
        with pytest.raises(FormatError) as err:
            parse_net(HAM_23_TEXT.replace(b"100 001", f"100{space}001".encode()))
        assert err.value.line == 5
        assert "expected 2 digit strings, got 1" in str(err.value)

    @pytest.mark.parametrize("space", [b"\t", b"\v", b"\f", b"\r", b"\x1c", b"\x1f", b"  "])
    def test_ascii_whitespace_separates(self, space):
        assert parse_moa(MOA_TEXT.replace(b"0 2", b"0" + space + b"2")) == parse_moa(MOA_TEXT)
        assert parse_net(HAM_23_TEXT.replace(b"100 001", b"100" + space + b"001")).points == \
            parse_net(HAM_23_TEXT).points

    def test_leading_zeros_are_accepted(self):
        assert parse_moa(MOA_TEXT.replace(b"0 2", b"000 0002")) == parse_moa(MOA_TEXT)

    def test_entry_of_twenty_digits_is_rejected_even_when_small(self):
        with pytest.raises(FormatError) as err:
            parse_moa(MOA_TEXT.replace(b"0 2", b"0 " + b"0" * 19 + b"2"))
        assert err.value.line == MOA_ROW

    def test_residue_spelling_is_rejected(self, ham23):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        with pytest.raises(FormatError) as err:
            parse_function_tuples(b"1 0 1 3\n0 0 +0 0\n", arr)
        assert err.value.line == 2
        assert str(err.value) == "line 2: residue must be 1 to 19 digits 0-9, got '+0'"


class TestFirstBadLine:
    @pytest.mark.parametrize("rows, lineno", [
        (["0 0", "1 7", "0 2", "1 9"], 5),    # two range errors
        (["0 0", "1 7", "0 +2", "1 3"], 5),   # range error before a spelling error
        (["0 0", "1 +1", "0 9", "1 3"], 5),   # spelling error before a range error
        (["0 0", "1 1", "0 9", "1"], 6),      # range error before a short row
        (["0 0", "1 1 1", "0 9", "1 3"], 5),  # long row before a range error
    ])
    def test_moa(self, rows, lineno):
        text = "MOA v1\nN 4 k 2 t 1\nl 2 4\n" + "\n".join(rows) + "\n"
        with pytest.raises(FormatError) as err:
            parse_moa(text.encode())
        assert err.value.line == lineno
        with pytest.raises(oracles.OracleFormatError) as oracle_err:
            oracles.oracle_parse_moa(text)
        assert str(err.value) == str(oracle_err.value)

    @pytest.mark.parametrize("old, new, lineno", [
        ((b"100 001", b"110 011"), (b"100 002", b"11 011"), 5),
        ((b"100 001", b"110 011"), (b"10 001", b"110 012"), 5),
        ((b"010 010", b"110 011"), (b"010 01A", b"110 0110"), 6),
    ])
    def test_net(self, old, new, lineno):
        text = HAM_23_TEXT.replace(old[0], new[0]).replace(old[1], new[1])
        with pytest.raises(FormatError) as err:
            parse_net(text)
        assert err.value.line == lineno


class TestIntegerRange:
    def test_alphabet_beyond_int64_is_a_format_error(self):
        text = b"MOA v1\nN 1 k 1 t 0\nl 100000000000000000000000\n99999999999999999999\n"
        with pytest.raises(FormatError) as err:
            parse_moa(text)
        assert err.value.line == 3

    def test_largest_alphabet_round_trips(self):
        top = 2 ** 63 - 1
        text = f"MOA v1\nN 2 k 2 t 0\nl 2 {top}\n0 {top - 1}\n1 9999999999999999999\n".encode()
        with pytest.raises(FormatError) as err:  # 19 digits, above the alphabet
            parse_moa(text)
        assert err.value.line == 5
        assert "entry 9999999999999999999 outside" in str(err.value)
        good = text.replace(b"9999999999999999999", b"0")
        arr = parse_moa(good)
        assert int(arr.rows[0, 1]) == top - 1
        assert b"".join(moa_chunks(arr)) == good

    @pytest.mark.parametrize("b, m, want", [
        (3, 100000, "3**100000"), (10 ** 30, 3, f"{10 ** 30}**3"), (2, 63, str(2 ** 63))])
    def test_huge_mooa_row_count_is_named_not_computed(self, b, m, want):
        text = f"MOOA v1\nbase {b} m {m} s 1 u {m}\ne 1\nbeta 0\n\n".encode()
        with pytest.raises(FormatError) as err:
            parse_mooa(text)
        assert str(err.value) == f"line 6: expected {want} array rows, got 1"

    def test_header_claiming_huge_m_allocates_nothing(self):
        import tracemalloc
        text = b"NET v1\nbase 2 m 1000000000 s 2 u 0\ne 1 1\n0 0\n1 1\n"
        tracemalloc.start()
        try:
            with pytest.raises(FormatError) as err:
                parse_net(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert err.value.line == 4
        assert "has length 1, expected 1000000000" in str(err.value)
        assert peak < 1 << 20


def _mutate(text: str, data) -> str:
    """Insert, delete or replace characters, or respell a whitespace run."""
    alphabet = "0123456789AZaz+-_x \t\n\r\v\f\x1c\x1f\x00\xa0\u2003\u0663\xe9"
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(["insert", "delete", "replace", "space"]))
        pos = data.draw(st.integers(0, len(text)))
        ch = data.draw(st.sampled_from(alphabet))
        if kind == "insert":
            text = text[:pos] + ch + text[pos:]
        elif kind == "delete":
            text = text[:pos] + text[pos + 1:]
        elif kind == "replace":
            text = text[:pos] + ch + text[pos + 1:]
        else:
            spaces = data.draw(st.sampled_from(["  ", "\t", " \r", "\x1c", "\xa0", ""]))
            text = text.replace(" ", spaces, data.draw(st.integers(1, 3)))
    return text


def _outcome(parse, data):
    """(True, result) for a parse, (False, (line, str(error))) for a rejection."""
    try:
        return True, parse(data)
    except (FormatError, oracles.OracleFormatError) as err:
        return False, (err.line, str(err))


def _valid_net(data) -> str:
    b, m, s = data.draw(st.integers(2, 36)), data.draw(st.integers(0, 3)), data.draw(
        st.integers(1, 3))
    n = data.draw(st.integers(0, 5))
    digits = np.array(data.draw(st.lists(st.integers(0, b - 1), min_size=n * s * m,
                                         max_size=n * s * m)), dtype=np.int64)
    return _net_bytes(PointSet(b, digits.reshape(n, s, m)), data.draw(st.integers(0, m)),
                      EVector(tuple(data.draw(st.integers(1, 3)) for _ in range(s)))).decode()


def _valid_moa(data) -> str:
    k, n = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 5))
    alphabets = [data.draw(st.sampled_from([2, 3, 10, 11, 1000, 2 ** 63 - 1]))
                 for _ in range(k)]
    rows = [[data.draw(st.integers(0, l - 1)) for l in alphabets] for _ in range(n)]
    return b"".join(moa_chunks(MixedOA(tuple(alphabets), np.array(rows, dtype=np.int64),
                                       data.draw(st.integers(0, k))))).decode()


def _valid_mooa(data):
    b, m = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 3))
    s = data.draw(st.integers(1, 2))
    u = data.draw(st.integers(0, m))
    e = tuple(data.draw(st.integers(1, 2)) for _ in range(s))
    beta = tuple(data.draw(st.integers(0, (m - u) // ei)) for ei in e)
    widths = [b ** ei for bi, ei in zip(beta, e) for _ in range(bi)]
    rows = np.array([[data.draw(st.integers(0, w - 1)) for w in widths]
                     for _ in range(b ** m)], dtype=np.int64).reshape(b ** m, len(widths))
    return b"".join(mooa_chunks(MixedOOA(b, m, u, EVector(e), beta, rows))).decode()


def _agree(parse, oracle, same, text):
    ok, got = _outcome(parse, text.encode())
    oracle_ok, want = _outcome(oracle, text)
    assert ok == oracle_ok, (text, got, want)
    if ok:
        assert same(got, want), text
    else:
        assert got == want


def _same_net(nf, want):
    return (nf.points.base == want["base"] and nf.u == want["u"] and nf.e.e == want["e"]
            and nf.points.digits.shape[1:] == (want["s"], want["m"])
            and nf.points.digits.tolist() == want["digits"])


def _same_moa(arr, want):
    return (arr.alphabets == want["alphabets"] and arr.strength == want["t"]
            and arr.rows.tolist() == want["rows"])


def _same_mooa(arr, want):
    return ((arr.base, arr.m, arr.u, arr.e.e, arr.beta) == (
        want["base"], want["m"], want["u"], want["e"], want["beta"])
        and arr.rows.tolist() == [list(r) for r in want["rows"]]
        and arr.rows.shape[0] == len(want["rows"]))


class TestParsersAgreeWithLineOracle:
    """Mutated valid texts parse as the line-by-line oracle parses them, or
    fail at the oracle's line with its message, at any chunk size."""

    chunk = st.sampled_from([1, 3, 16, 64, 1 << 18])

    @settings(deadline=None, max_examples=150)
    @given(chunk, st.data())
    def test_net(self, chunk, data):
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            _agree(parse_net, oracles.oracle_parse_net, _same_net,
                   _mutate(_valid_net(data), data))

    @settings(deadline=None, max_examples=150)
    @given(chunk, st.data())
    def test_moa(self, chunk, data):
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            _agree(parse_moa, oracles.oracle_parse_moa, _same_moa,
                   _mutate(_valid_moa(data), data))

    @settings(deadline=None, max_examples=150)
    @given(chunk, st.data())
    def test_mooa(self, chunk, data):
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            _agree(parse_mooa, oracles.oracle_parse_mooa, _same_mooa,
                   _mutate(_valid_mooa(data), data))

    @settings(deadline=None, max_examples=80)
    @given(chunk, st.data())
    def test_function_tuples(self, ham23, chunk, data):
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))  # widths 2, 2, 2, 4
        rows = data.draw(st.lists(st.tuples(*(st.integers(0, w - 1) for w in (2, 2, 2, 4))),
                                  max_size=4))
        text = _mutate("".join(" ".join(map(str, r)) + "\n" for r in rows), data)
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            _agree(lambda t: parse_function_tuples(t, arr).tolist(),
                   lambda t: oracles.oracle_parse_function_tuples(t, 2, (1, 2), (3, 1)),
                   lambda got, want: got == want, text)


def _canonical_cases():
    """(name, canonical bytes, header lines, parse, oracle, same) per case."""
    rng = np.random.default_rng(14)
    tuples_frame = net_to_mooa(corpus.hammersley(2, 3), 0, EVector((1, 2)))  # widths 2, 2, 2, 4
    cases = []
    for b in (2, 10, 11, 36):
        points = PointSet(b, rng.integers(0, b, size=(9, 2, 3)))
        cases.append((f"net-b{b}", _net_bytes(points, 0, (1, 1)), 3, parse_net,
                      oracles.oracle_parse_net, _same_net))
    # single-digit entries in columns of alphabets 2, 11, 256 and 1000
    rows = rng.integers(0, [2, 10, 10, 10], size=(9, 4))
    cases.append(("moa", b"".join(moa_chunks(MixedOA((2, 11, 256, 1000), rows, 1))), 3,
                  parse_moa, oracles.oracle_parse_moa, _same_moa))
    for b, m, e in ((2, 4, (1, 2)), (3, 2, (1, 1))):
        arr = net_to_mooa(corpus.hammersley(b, m), 0, EVector(e))
        cases.append((f"mooa-b{b}", b"".join(mooa_chunks(arr)), 4, parse_mooa,
                      oracles.oracle_parse_mooa, _same_mooa))
    cases.append(("tuples", b"1 0 1 3\n0 0 0 0\n1 1 0 2\n", 0,
                  lambda t: parse_function_tuples(t, tuples_frame).tolist(),
                  lambda t: oracles.oracle_parse_function_tuples(t, 2, (1, 2), (3, 1)),
                  lambda got, want: got == want))
    return cases


CANONICAL_CASES = _canonical_cases()


def _same_read_cases():
    """The canonical cases, and a NET and a MOOA of 64 lines each."""
    points = corpus.hammersley(2, 6)
    mooa = b"".join(mooa_chunks(net_to_mooa(points, 0, EVector((1, 1)))))
    return CANONICAL_CASES + [
        ("net-h6", _net_bytes(points, 0, (1, 1)), 3, parse_net, oracles.oracle_parse_net,
         _same_net),
        ("mooa-h6", mooa, 4, parse_mooa, oracles.oracle_parse_mooa, _same_mooa)]


SAME_READ_CASES = _same_read_cases()


def _oracle_error(oracle, text):
    with pytest.raises(oracles.OracleFormatError) as err:
        oracle(text)
    return err.value.line, str(err.value)


class TestCanonicalLayout:
    """Bodies in the layout the serialisers write are read by reshaping their
    bytes. One replaced byte at an entry or separator sends its chunk to the
    tokeniser: the parse is the line oracle's, or fails at the oracle's line
    with its message."""

    @pytest.mark.parametrize("case", CANONICAL_CASES, ids=[c[0] for c in CANONICAL_CASES])
    def test_canonical_bodies_are_never_tokenised(self, case):
        _, raw, _, parse, oracle, same = case
        with mock.patch.object(io, "_tokenise", wraps=io._tokenise) as tokenise:
            assert same(parse(raw), oracle(raw.decode()))
        assert tokenise.call_count == 0

    @settings(deadline=None, max_examples=400)
    @given(st.sampled_from(CANONICAL_CASES), st.integers(0, 1 << 20),
           st.sampled_from([b"\t", b" ", b"\r", b"\x00", b"\n", b"x", b"A", b"a", b"9",
                            b"/", b":", b"\xff"]),
           st.sampled_from([1, 5, 16, 1 << 18]))
    def test_one_replaced_byte(self, case, pos, byte, chunk):
        _, raw, header, parse, oracle, same = case
        body = len(b"".join(raw.splitlines(keepends=True)[:header]))
        pos = body + pos % (len(raw) - body)
        raw = raw[:pos] + byte + raw[pos + 1:]
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            ok, got = _outcome(parse, raw)
        oracle_ok, want = _outcome(oracle, raw.decode("utf-8", "surrogateescape"))
        assert ok == oracle_ok, (raw, got, want)
        if ok:
            assert same(got, want), raw
        else:  # the parser names a byte that is not UTF-8 as the byte
            assert got == (want[0], want[1].replace("\\udcff", "\\xff"))

    @pytest.mark.parametrize("alphabet, byte", [
        (256, "\t"), (256, "/"), (256, "\x00"), (11, ":"), (1000, ":"), (1000, "\r"),
    ])
    def test_a_byte_that_wraps_into_the_alphabet_is_no_entry(self, alphabet, byte):
        # the byte less '0' wraps to 217, 255, 208, 10, 10 and 221 in uint8
        text = b"".join(moa_chunks(MixedOA((2, alphabet), np.array([[0, 1], [1, 5]]), 1)))
        bad = text.replace(b"1 5\n", f"1 {byte}\n".encode())
        with pytest.raises(FormatError) as err:
            parse_moa(bad)
        assert (err.value.line, str(err.value)) == _oracle_error(oracles.oracle_parse_moa,
                                                                 bad.decode())

    def test_only_the_respaced_chunk_is_tokenised(self):
        arr = net_to_mooa(corpus.hammersley(2, 8), 0, EVector((1, 1)))  # 32-byte lines
        lines = b"".join(mooa_chunks(arr)).split(b"\n")
        lines[203] = lines[203].replace(b" ", b"\t", 1)  # body line 200
        with mock.patch.object(io, "_CHUNK_BYTES", 100), \
                mock.patch.object(io, "_tokenise", wraps=io._tokenise) as tokenise:
            assert parse_mooa(b"\n".join(lines)) == arr
            assert tokenise.call_count == 1  # of 64 chunks of 4 lines
            lines[203] = lines[203][:-1] + b"2"
            with pytest.raises(FormatError) as err:
                parse_mooa(b"\n".join(lines))
        assert err.value.line == 204
        assert str(err.value) == "line 204: entry 2 outside [0, 2) in column 15"

    @pytest.mark.parametrize("case", SAME_READ_CASES, ids=[c[0] for c in SAME_READ_CASES])
    @pytest.mark.parametrize("chunk", [1, 7, 64, 1000, io._CHUNK_BYTES])
    def test_canonical_and_respaced_files_read_the_same(self, case, chunk):
        # every chunk is offered to the canonical reader once, and a respaced
        # one is then tokenised to the same values
        _, raw, header, parse, oracle, same = case
        lines = raw.split(b"\n")
        respaced = b"\n".join(lines[:header] + [line.replace(b" ", b"\t")
                                                for line in lines[header:]])
        want = oracle(raw.decode())
        with mock.patch.object(io, "_CHUNK_BYTES", chunk), \
                mock.patch.object(io, "_canonical", wraps=io._canonical) as canonical, \
                mock.patch.object(io, "_tokenise", wraps=io._tokenise) as tokenise:
            assert same(parse(raw), want)
            assert canonical.call_count > 0 and tokenise.call_count == 0
            chunks = canonical.call_count
            assert same(parse(respaced), want)
            assert canonical.call_count == 2 * chunks and tokenise.call_count == chunks


class TestSerializersMatchLineOracle:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(2, 36), st.integers(0, 4), st.integers(1, 3), st.integers(0, 6),
           st.sampled_from([1, 5, 1 << 18]), st.data())
    def test_net(self, b, m, s, n, chunk, data):
        flat = data.draw(st.lists(st.integers(0, b - 1), min_size=n * s * m,
                                  max_size=n * s * m))
        digits = np.array(flat, dtype=np.int64).reshape(n, s, m)
        e = (1,) * s
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            text = _net_bytes(PointSet(b, digits), 0, e)
        assert text == oracles.oracle_net_text(b, 0, e, digits).encode()

    @pytest.mark.parametrize("b", [2, 10, 11, 36])
    @pytest.mark.parametrize("m, n", [(3, 40), (0, 4), (3, 0)])
    @pytest.mark.parametrize("chunk", [1, 8 * 3, 1 << 18])
    def test_net_digits_and_letters(self, b, m, n, chunk):
        # the first half of the points is decimal, the rest spells every
        # digit of the base: past base 10, a chunk of 3 points (24 bytes)
        # meets chunks of either kind and one that mixes them
        count = n * 2 * m
        flat = np.arange(count) % np.where(np.arange(count) < count // 2, min(b, 10), b)
        digits = flat.reshape(n, 2, m)
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            text = _net_bytes(PointSet(b, digits), 0, (1, 1))
        assert text == oracles.oracle_net_text(b, 0, (1, 1), digits).encode()

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.sampled_from([2, 9, 10, 11, 101, 10 ** 6, 2 ** 63 - 1]),
                    min_size=1, max_size=5),
           st.integers(1, 12), st.sampled_from([1, 7, 1 << 18]), st.data())
    def test_moa(self, alphabets, n, chunk, data):
        rows = np.array([[data.draw(st.integers(0, l - 1)) for l in alphabets]
                         for _ in range(n)], dtype=np.int64)
        arr = MixedOA(tuple(alphabets), rows, 0)
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            text = b"".join(moa_chunks(arr))
        header = ["MOA v1", f"N {n} k {len(alphabets)} t 0",
                  "l " + " ".join(map(str, alphabets))]
        assert text == oracles.oracle_rows_text(header, rows).encode()

    @pytest.mark.parametrize("chunk", [1, 64, 1 << 18])
    def test_mooa_corpus(self, faure333, chunk):
        arr = net_to_mooa(faure333, 0, EVector((1, 2, 1)))
        with mock.patch.object(io, "_CHUNK_BYTES", chunk):
            text = b"".join(mooa_chunks(arr))
        header = ["MOOA v1", "base 3 m 3 s 3 u 0", "e 1 2 1", "beta 3 1 3"]
        assert text == oracles.oracle_rows_text(header, arr.rows).encode()

    def test_error_line_in_a_later_chunk(self):
        lines = _net_bytes(corpus.hammersley(2, 8), 0, EVector((1, 1))).split(b"\n")
        lines[200] = lines[200][:-1] + b"2"
        with mock.patch.object(io, "_CHUNK_BYTES", 100):
            with pytest.raises(FormatError) as err:
                parse_net(b"\n".join(lines))
        assert err.value.line == 201


def _chunk_cases():
    """(name, chunk iterator, bytes per body line) per case."""
    rng = np.random.default_rng(20)
    cases = [(f"net-b{p.base}", lambda p=p: io.net_chunks(p, 0, (1,) * p.dim),
              p.dim * (p.precision + 1))
             for p in (corpus.hammersley(2, 5), corpus.faure(7, 2, 3),
                       PointSet(36, rng.integers(0, 36, size=(20, 2, 3))))]
    arr = net_to_mooa(corpus.hammersley(2, 8), 0, (4, 4))  # entries 0-15, two digits
    cases.append(("mooa-e4", lambda: io.mooa_chunks(arr), 4 * 3))
    # multi-digit entries: uint8 rows split in uint8, and int64 rows
    for alphabets in ((2, 11, 256), (2, 11, 256, 1000)):
        moa = MixedOA(alphabets, rng.integers(0, alphabets, (23, len(alphabets))), 1)
        assert moa.rows.dtype == (np.int64 if 1000 in alphabets else np.uint8)
        cases.append((f"moa-{moa.rows.dtype}", lambda moa=moa: io.moa_chunks(moa),
                      4 * len(alphabets)))
    return cases


CHUNK_CASES = _chunk_cases()


class TestChunkBoundaries:
    """Bodies are written a run of whole lines at a time; where the runs
    end changes no byte."""

    @pytest.mark.parametrize("rows", [1, 7])
    @pytest.mark.parametrize("case", CHUNK_CASES, ids=[c[0] for c in CHUNK_CASES])
    def test_chunk_size_changes_no_byte(self, case, rows):
        _, chunks, line_bytes = case
        whole = list(chunks())
        assert len(whole) == 2  # the header and one body chunk
        with mock.patch.object(io, "_CHUNK_BYTES", rows * line_bytes):
            parts = list(chunks())
        lines = b"".join(whole).count(b"\n") - len(whole[0].splitlines())
        assert len(parts) == 1 + -(-lines // rows)
        assert b"".join(parts) == b"".join(whole)

    def test_bad_claims_raise_before_any_chunk(self, ham23):
        with pytest.raises(ParamError, match="claimed u=4 outside"):
            io.net_chunks(ham23, 4, (1, 1))


class TestUndecodableBytes:
    """A byte that is not UTF-8 is decoded as the lone surrogate that
    ``surrogateescape`` makes of it; messages name the byte."""

    @staticmethod
    def _message(parse, raw):
        with pytest.raises(FormatError) as err:
            parse(raw)
        return str(err.value)

    def test_net_body_and_header(self):
        raw = HAM_23_TEXT.replace(b"100 001\n", b"100 001\xff\n")
        assert self._message(parse_net, raw) == (
            "line 5: digit string '001\\xff' has length 4, expected 3")
        raw = HAM_23_TEXT.replace(b"100 001\n", b"100 0\x8f1\n")
        assert self._message(parse_net, raw) == (
            "line 5: character '\\x8f' is not a base-2 digit")
        assert self._message(parse_net, b"NET v1\xff\n") == (
            "line 1: expected 'NET v1', got 'NET v1\\xff'")
        assert self._message(parse_net, b"NET v1\nbase 2 m \xc3 s 1 u 0\n") == (
            "line 2: m must be an integer, got '\\xc3'")

    def test_integer_bodies(self, ham23):
        raw = b"".join(moa_chunks(MixedOA((2, 2), np.array([[0, 1], [1, 0]]), 1)))
        assert self._message(parse_moa, raw.replace(b"1 0\n", b"1 0\xff\n")) == (
            "line 5: entry must be 1 to 19 digits 0-9, got '0\\xff'")
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        assert self._message(lambda t: parse_function_tuples(t, arr), b"1 0 1 \xff\n") == (
            "line 1: residue must be 1 to 19 digits 0-9, got '\\xff'")

    @pytest.mark.parametrize("token, shown", [
        ("0\u00e9".encode(), "'0\u00e9'"),     # valid UTF-8: repr, unchanged
        (b"0\\udcff", "'0\\\\udcff'"),          # a backslash the file holds
        (b"0\\\xff0", "'0\\\\\\xff0'"),         # a backslash, then the byte
        (b"0\xed\xa0\x80", "'0\\xed\\xa0\\x80'"),  # UTF-8 has no surrogates
        (b"'\xff", "\"'\\xff\""),               # repr's choice of quotes is kept
    ])
    def test_only_escaped_bytes_are_respelled(self, token, shown):
        raw = HAM_23_TEXT.replace(b"100 001\n", b"100 " + token + b"\n")
        assert self._message(parse_net, raw).startswith(f"line 5: digit string {shown} ")

    @staticmethod
    def _case(ham23, kind):
        """A good input of one format and its parser."""
        arr = net_to_mooa(ham23, 0, EVector((1, 2)))
        return {
            "net": (HAM_23_TEXT, parse_net),
            "moa": (MOA_TEXT, parse_moa),
            "mooa": (b"".join(mooa_chunks(arr)), parse_mooa),
            "tuples": (b"1 0 1 3\n0 0 0 0\n", lambda t: parse_function_tuples(t, arr)),
        }[kind]

    @pytest.mark.parametrize("kind, name", [
        ("net", "parse_net"), ("moa", "parse_moa"), ("mooa", "parse_mooa"),
        ("tuples", "parse_function_tuples")])
    def test_str_is_refused_naming_the_bytes_contract(self, ham23, kind, name):
        raw, parse = self._case(ham23, kind)
        for text in ("", raw.decode().splitlines()[0] + "\n"):
            with pytest.raises(TypeError, match=f"^{name} reads bytes, got str$"):
                parse(text)
        with pytest.raises(TypeError, match=f"^{name} reads bytes, got TextIOWrapper$"):
            parse(stdio.TextIOWrapper(stdio.BytesIO(raw)))
        # a readable binary stream is read to its end, as its bytes are
        stream = stdio.BytesIO(raw.rstrip(b"\n"))
        got = parse(stream)
        assert stream.read() == b""
        want = parse(raw)
        assert (got.tolist() == want.tolist()) if kind == "tuples" else got == want
        # bytearray is bytes too, and is not extended by the LF a parse adds
        held = bytearray(raw.rstrip(b"\n"))
        got = parse(held)
        assert held == raw.rstrip(b"\n")
        want = parse(raw)
        assert (got.tolist() == want.tolist()) if kind == "tuples" else got == want

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from(["net", "moa", "mooa", "tuples"]), st.integers(0, 200),
           st.text(st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), min_size=1,
                   max_size=3))
    def test_no_unicode_error_for_any_lone_surrogate(self, ham23, kind, pos, junk):
        # UTF-8 has no surrogates: the three bytes that would spell one are
        # undecodable, so each is escaped and the input is a format error
        raw, parse = self._case(ham23, kind)
        pos %= len(raw) + 1
        with pytest.raises(FormatError):
            parse(raw[:pos] + junk.encode("utf-8", "surrogatepass") + raw[pos:])

    @settings(deadline=None, max_examples=150)
    @given(st.sampled_from(["net", "moa", "mooa", "tuples"]), st.integers(0, 200),
           st.binary(min_size=1, max_size=4), st.booleans())
    def test_inserted_bytes_parse_or_are_a_format_error(self, ham23, kind, pos, junk, cut):
        raw, parse = self._case(ham23, kind)
        pos %= len(raw) + 1
        raw = raw[:pos] + junk + raw[pos:]
        if cut:  # no LF at the end
            raw = raw.rstrip(b"\n")
        try:
            parse(raw)
        except FormatError:
            pass
