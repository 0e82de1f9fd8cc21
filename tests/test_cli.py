"""Command-line behavior: exit codes, output text, format errors, determinism."""

import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import evnets
from evnets import EVector, corpus, dualcert, serialize_net
from evnets.cli import EXIT_FAIL, EXIT_FORMAT, EXIT_INCONCLUSIVE, EXIT_PASS, \
    EXIT_USAGE, build_parser, evector_arg, int_list_arg, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, data):
    """Make ``data`` (bytes, or text taken as UTF-8) the process's stdin."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


@pytest.fixture()
def ham_net(tmp_path):
    path = tmp_path / "h.net"
    path.write_text(serialize_net(corpus.hammersley(2, 3), 0, EVector((1, 1))))
    return str(path)


@pytest.fixture()
def bad_net(tmp_path):
    bad = corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2)
    path = tmp_path / "bad.net"
    path.write_text(serialize_net(bad, 0, EVector((1, 1))))
    return str(path)


class TestArgParsing:
    def test_evector_shorthand(self):
        assert evector_arg("1,1,2") == (1, 1, 2)
        assert evector_arg("1x3,2x2") == (1, 1, 1, 2, 2)
        assert evector_arg("2") == (2,)
        with pytest.raises(ValueError):
            evector_arg("a")

    @pytest.mark.parametrize("text", ["3x0", "3x-5", "1x2,3x0", "1x2,3x-5"])
    def test_evector_repeat_below_one_is_rejected(self, capsys, text):
        with pytest.raises(ValueError, match="repeat count must be >= 1"):
            evector_arg(text)
        with pytest.raises(SystemExit) as err:
            main(["feasible", "--base", "2", "--m", "4", "--e", text])
        assert err.value.code == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", ["verify-net", "verify-seq", "verify-mooa"])
    @pytest.mark.parametrize("mode", ["all", "maximal"])
    def test_mode_flag_is_rejected(self, capsys, ham_net, command, mode):
        # every verifier checks the maximal shapes or profiles only
        with pytest.raises(SystemExit) as err:
            main([command, ham_net, "--mode", mode])
        assert err.value.code == EXIT_USAGE
        out, err_text = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --mode" in err_text

    def test_int_list(self):
        assert int_list_arg("3,1") == (3, 1)

    def test_bad_flag_value_exits_with_usage_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["verify-net", "--e", "nope", "x"])
        assert err.value.code == EXIT_USAGE


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self, capsys):
        argv = ["rao", "--base", "2", "--m", "10", "--e", "1x5", "--t", "4"]
        want_code, want_out, _ = run(capsys, *argv)
        src = os.path.dirname(os.path.dirname(os.path.abspath(evnets.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-m", "evnets", *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == want_code
        assert proc.stdout == want_out and want_out.startswith("rao: ")


class TestGen:
    def test_hammersley_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "hammersley", "--base", "2", "--m", "3")
        assert code == EXIT_PASS
        assert out == serialize_net(corpus.hammersley(2, 3), 0, EVector((1, 1)))

    def test_grid_header_claims(self, capsys):
        code, out, _ = run(capsys, "gen", "grid", "--base", "3", "--m", "2")
        assert code == EXIT_PASS
        assert out.splitlines()[1] == "base 3 m 2 s 1 u 0"

    def test_faure_needs_s(self, capsys):
        code, _, err = run(capsys, "gen", "faure", "--base", "3", "--m", "2")
        assert code == EXIT_USAGE and "needs --s" in err
        code, out, _ = run(capsys, "gen", "faure", "--base", "3", "--m", "2",
                           "--s", "3")
        assert code == EXIT_PASS and out.splitlines()[2] == "e 1 1 1"

    def test_random_claims_trivial_quality(self, capsys):
        code, out, _ = run(capsys, "gen", "random", "--base", "2", "--m", "2",
                           "--s", "2", "--seed", "5")
        assert code == EXIT_PASS
        assert out.splitlines()[1] == "base 2 m 2 s 2 u 2"
        code2, out2, _ = run(capsys, "gen", "random", "--base", "2", "--m", "2",
                             "--s", "2", "--seed", "5")
        assert out2 == out  # seeded determinism

    def test_random_negative_seed_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "random", "--base", "2", "--m", "2",
                             "--s", "2", "--seed", "-1")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: seed must be >= 0, got -1\n"

    def test_gen_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.net"
        code, out, _ = run(capsys, "gen", "grid", "--base", "2", "--m", "2",
                           "--out", str(target))
        assert code == EXIT_PASS and out == ""
        assert target.read_text().startswith("NET v1\n")

    def test_search_found(self, capsys):
        code, out, _ = run(capsys, "gen", "search", "--base", "2", "--m", "2",
                           "--s", "2", "--e", "1,1", "--u", "0")
        assert code == EXIT_PASS
        assert out.splitlines()[1] == "base 2 m 2 s 2 u 0"

    def test_search_nonexistent(self, capsys):
        code, out, err = run(capsys, "gen", "search", "--base", "2", "--m", "2",
                             "--s", "4", "--e", "1x4", "--u", "0")
        assert code == EXIT_FAIL and out == ""
        assert "NONEXISTENT" in err

    def test_oversized_digit_tensor_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "faure", "--base", "3", "--m", "30", "--s", "2")
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: 3**30 points with s=2, m=30 need 12353467925678940 bytes "
                       "of digits, above the cap of 1073741824 bytes\n")

    def test_base_above_36_is_usage_error(self, capsys):
        code, out, err = run(capsys, "gen", "grid", "--base", "37", "--m", "1")
        assert code == EXIT_USAGE and out == ""
        assert err == "error: base 37 exceeds 36, not representable with digit characters\n"

    def test_search_inconclusive(self, capsys):
        code, _, err = run(capsys, "gen", "search", "--base", "2", "--m", "2",
                           "--s", "4", "--e", "1x4", "--u", "0",
                           "--node-limit", "1")
        assert code == EXIT_INCONCLUSIVE
        assert "INCONCLUSIVE" in err


class TestVerifyNet:
    def test_pass_text(self, capsys, ham_net):
        code, out, _ = run(capsys, "verify-net", ham_net)
        assert code == EXIT_PASS
        assert out == "verify-net: PASS (variant=narrow, mode=maximal, u=0, shapes=4)\n"

    def test_shapes_are_enumerated_once(self, capsys, ham_net):
        from evnets import netverify
        netverify._shapes.cache_clear()
        run(capsys, "verify-net", ham_net)
        info = netverify._shapes.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # the verdict, then shapes=4

    def test_pass_json(self, capsys, ham_net):
        code, out, _ = run(capsys, "verify-net", ham_net, "--json")
        assert code == EXIT_PASS
        assert json.loads(out) == {"pass": True, "variant": "narrow",
                                   "checked_shapes": 4, "witness": None}

    def test_fail_text_and_witness(self, capsys, bad_net):
        code, out, _ = run(capsys, "verify-net", bad_net)
        assert code == EXIT_FAIL
        assert out == ("verify-net: FAIL shape=(0, 3) box=(0, 0) observed=0 "
                       "expected=1 (variant=narrow, mode=maximal, u=0)\n")

    def test_fail_json_witness(self, capsys, bad_net):
        code, out, _ = run(capsys, "verify-net", bad_net, "--json")
        assert code == EXIT_FAIL
        assert json.loads(out)["witness"] == {
            "shape": [0, 3], "box": [0, 0], "observed": 0, "expected": 1}

    def test_u_and_e_overrides(self, capsys, bad_net):
        code, _, _ = run(capsys, "verify-net", bad_net, "--u", "1")
        assert code == EXIT_PASS
        code, _, _ = run(capsys, "verify-net", bad_net, "--e", "1,2")
        assert code == EXIT_PASS

    def test_stdin_input(self, capsys, monkeypatch):
        text = serialize_net(corpus.hammersley(2, 2), 0, EVector((1, 1)))
        feed_stdin(monkeypatch, text)
        code, out, _ = run(capsys, "verify-net", "-")
        assert code == EXIT_PASS and "PASS" in out

    def test_jobs_flag_is_rejected(self, capsys, bad_net):
        with pytest.raises(SystemExit) as err:
            main(["verify-net", bad_net, "--jobs", "2"])
        assert err.value.code == EXIT_USAGE

    def test_format_error_exit(self, capsys, tmp_path):
        p = tmp_path / "x.net"
        p.write_text("NET v2\n")
        code, _, err = run(capsys, "verify-net", str(p))
        assert code == EXIT_FORMAT and err.startswith("error: line 1:")

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-net", "/nonexistent/path.net")
        assert code == EXIT_USAGE and err.startswith("error:")


class TestInputReader:
    """A FILE argument and '-' read the same bytes the same way: UTF-8
    whatever the locale, line ends untranslated, and a byte that is not
    UTF-8 a format error on its line."""

    @staticmethod
    def _verify(capsys, monkeypatch, tmp_path, source, data):
        if source == "stdin":
            feed_stdin(monkeypatch, data)
            return run(capsys, "verify-net", "-")
        path = tmp_path / "in.net"
        path.write_bytes(data)
        return run(capsys, "verify-net", str(path))

    @staticmethod
    def _net_lines():
        return serialize_net(corpus.hammersley(2, 3), 0, EVector((1, 1))).encode().split(b"\n")

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_lone_cr_is_body_whitespace(self, capsys, monkeypatch, tmp_path, source):
        lines = self._net_lines()
        assert lines[4] == b"100 001"
        lines[4] = b"100\r001"
        code, out, err = self._verify(capsys, monkeypatch, tmp_path, source,
                                      b"\n".join(lines))
        assert (code, err) == (EXIT_PASS, "")
        assert out == "verify-net: PASS (variant=narrow, mode=maximal, u=0, shapes=4)\n"

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_crlf_line_ends_are_a_format_error(self, capsys, monkeypatch, tmp_path, source):
        data = b"\r\n".join(self._net_lines())
        code, out, err = self._verify(capsys, monkeypatch, tmp_path, source, data)
        assert (code, out) == (EXIT_FORMAT, "")
        assert err == "error: line 1: expected 'NET v1', got 'NET v1\\r'\n"

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_non_utf8_byte_is_a_format_error(self, capsys, monkeypatch, tmp_path, source):
        lines = self._net_lines()
        lines[4] += b"\xff"
        code, out, err = self._verify(capsys, monkeypatch, tmp_path, source,
                                      b"\n".join(lines))
        assert (code, out) == (EXIT_FORMAT, "")
        # the message names the byte the file holds, not its surrogate escape
        assert err == "error: line 5: digit string '001\\xff' has length 4, expected 3\n"

    @pytest.fixture()
    def mooa(self, capsys, ham_net, tmp_path):
        _, text, _ = run(capsys, "to-mooa", ham_net)
        path = tmp_path / "a.mooa"
        path.write_text(text)
        return str(path)

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_tuples_are_read_the_same_way(self, capsys, monkeypatch, tmp_path, mooa, source):
        data = b"1 0 0 0 0 0\n0 0 0 0 0 \xff\n"
        if source == "stdin":
            feed_stdin(monkeypatch, data)
            tuples = "-"
        else:
            tuples = tmp_path / "fam.txt"
            tuples.write_bytes(data)
        code, out, err = run(capsys, "dual-cert", mooa, "--tuples", str(tuples))
        assert (code, out) == (EXIT_FORMAT, "")
        assert err == "error: line 2: residue must be 1 to 19 digits 0-9, got '\\xff'\n"

    def test_tuples_on_stdin_pass(self, capsys, monkeypatch, mooa):
        feed_stdin(monkeypatch, "0 0 0 0 0 0\n1 0 0 0 0 0\n")
        code, out, _ = run(capsys, "dual-cert", mooa, "--tuples", "-")
        assert code == EXIT_PASS and "tuples=2" in out

    def test_stdin_is_read_once(self, capsys, monkeypatch, mooa):
        feed_stdin(monkeypatch, open(mooa, "rb").read())
        code, out, err = run(capsys, "dual-cert", "-", "--tuples", "-")
        assert (code, out) == (EXIT_USAGE, "")
        assert "standard input" in err


class TestVerifySeq:
    def test_pass_and_fail(self, capsys, tmp_path):
        from evnets import PointSet, project
        vdc = PointSet(2, project(corpus.hammersley(2, 4), [0]).digits)
        good = tmp_path / "seq.net"
        good.write_text(serialize_net(vdc, 0, EVector((1,))))
        code, out, _ = run(capsys, "verify-seq", str(good), "--m-max", "4")
        assert code == EXIT_PASS
        assert out == "verify-seq: PASS (u=0, m_max=4, points=16)\n"

        digits = vdc.digits.copy()
        digits[[4, 8]] = digits[[8, 4]]
        badp = tmp_path / "swapped.net"
        badp.write_text(serialize_net(PointSet(2, digits), 0, EVector((1,))))
        code, out, _ = run(capsys, "verify-seq", str(badp), "--m-max", "4")
        assert code == EXIT_FAIL
        assert out == ("verify-seq: FAIL g=0 m=3 net_witness={shape=(3) box=(0) "
                       "observed=2 expected=1} (u=0, m_max=4)\n")
        code, out, _ = run(capsys, "verify-seq", str(badp), "--m-max", "4", "--json")
        assert code == EXIT_FAIL
        assert list(json.loads(out)) == ["pass", "u", "m_max", "points", "witness"]
        assert json.loads(out) == {
            "pass": False, "u": 0, "m_max": 4, "points": 16,
            "witness": {"g": 0, "m": 3, "net_witness": {
                "shape": [3], "box": [0], "observed": 2, "expected": 1}}}
        code, out, _ = run(capsys, "verify-seq", str(good), "--m-max", "4", "--json")
        assert code == EXIT_PASS
        assert out == json.dumps({"pass": True, "u": 0, "m_max": 4, "points": 16,
                                  "witness": None}, indent=2) + "\n"

    @pytest.mark.parametrize("m_max", ["-1", "-3"])
    def test_negative_m_max_is_usage_error(self, capsys, ham_net, m_max):
        code, out, err = run(capsys, "verify-seq", ham_net, "--m-max", m_max)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: m_max must be >= 0, got {m_max}\n"

    @pytest.mark.parametrize("flags", [("--u", "3"), ("--m-max", "0"), ("--u", "2")])
    def test_e_vector_of_the_wrong_length_is_usage_error(self, capsys, ham_net, flags):
        # whether or not any block is checked: m_max <= u leaves none
        code, out, err = run(capsys, "verify-seq", ham_net, "--e", "1,1,1", *flags)
        assert code == EXIT_USAGE and out == ""
        assert err == "error: e-vector has 3 entries, point set has 2\n"


class TestMoaCommands:
    def test_to_moa_records_verified_strength(self, capsys, ham_net):
        code, out, _ = run(capsys, "to-moa", ham_net)
        assert code == EXIT_PASS
        assert out.splitlines()[1] == "N 8 k 2 t 2"
        assert out.splitlines()[2] == "l 2 2"

    def test_to_moa_no_verify_is_usage_error(self, capsys, ham_net):
        with pytest.raises(SystemExit) as err:
            main(["to-moa", ham_net, "--no-verify"])
        assert err.value.code == EXIT_USAGE
        assert "unrecognized arguments: --no-verify" in capsys.readouterr().err

    def test_to_moa_e_override(self, capsys, ham_net):
        code, out, _ = run(capsys, "to-moa", ham_net, "--e", "1,2")
        assert out.splitlines()[2] == "l 2 4"

    def test_verify_moa_round(self, capsys, ham_net, tmp_path):
        _, moa_text, _ = run(capsys, "to-moa", ham_net)
        moa = tmp_path / "a.moa"
        moa.write_text(moa_text)
        code, out, _ = run(capsys, "verify-moa", str(moa))
        assert code == EXIT_PASS
        assert out == "verify-moa: PASS (t=2, runs=8, k=2)\n"

    def test_verify_moa_failure(self, capsys, tmp_path):
        text = "MOA v1\nN 4 k 2 t 2\nl 2 2\n0 0\n0 0\n1 1\n1 1\n"
        moa = tmp_path / "b.moa"
        moa.write_text(text)
        code, out, _ = run(capsys, "verify-moa", str(moa))
        assert code == EXIT_FAIL
        assert out == ("verify-moa: FAIL columns=(0, 1) tuple=(0, 0) observed=2 "
                       "expected=1 (t=2)\n")
        code, out, _ = run(capsys, "verify-moa", str(moa), "--json")
        assert code == EXIT_FAIL
        assert list(json.loads(out)) == ["pass", "t", "witness"]
        assert json.loads(out) == {"pass": False, "t": 2, "witness": {
            "columns": [0, 1], "tuple": [0, 0], "observed": 2, "expected": 1}}
        code, out, _ = run(capsys, "verify-moa", str(moa), "--t", "1")
        assert code == EXIT_PASS
        assert out == "verify-moa: PASS (t=1, runs=4, k=2)\n"
        code, out, _ = run(capsys, "verify-moa", str(moa), "--t", "1", "--json")
        assert out == json.dumps({"pass": True, "t": 1, "witness": None}, indent=2) + "\n"


class TestFormatErrorsExitThree:
    def _stdin(self, capsys, monkeypatch, text, *argv):
        feed_stdin(monkeypatch, text)
        return run(capsys, *argv, "-")

    def test_entry_and_alphabet_beyond_int64(self, capsys, monkeypatch):
        text = "MOA v1\nN 1 k 1 t 0\nl 100000000000000000000000\n99999999999999999999\n"
        code, out, err = self._stdin(capsys, monkeypatch, text, "verify-moa")
        assert code == EXIT_FORMAT and out == ""
        assert err.startswith("error: line 3: alphabet sizes must be below 2**63")
        text = "MOA v1\nN 1 k 1 t 0\nl 4\n99999999999999999999\n"
        code, _, err = self._stdin(capsys, monkeypatch, text, "verify-moa")
        assert code == EXIT_FORMAT
        assert err == ("error: line 4: entry must be 1 to 19 digits 0-9, "
                       "got '99999999999999999999'\n")

    @pytest.mark.parametrize("spelling", ["+0", "0_1", "\u0663", "0\xa01"])
    def test_entry_spellings_int_accepted(self, capsys, monkeypatch, spelling):
        text = f"MOA v1\nN 2 k 2 t 0\nl 2 2\n0 0\n1 {spelling}\n"
        code, out, err = self._stdin(capsys, monkeypatch, text, "verify-moa")
        assert code == EXIT_FORMAT and out == ""
        assert err.startswith("error: line 5: ")


class TestMooaCommands:
    def test_round_trip_is_byte_identical(self, capsys, ham_net, tmp_path):
        code, mooa_text, _ = run(capsys, "to-mooa", ham_net)
        assert code == EXIT_PASS
        assert mooa_text.splitlines()[1] == "base 2 m 3 s 2 u 0"
        mooa = tmp_path / "a.mooa"
        mooa.write_text(mooa_text)
        code, net_text, _ = run(capsys, "from-mooa", str(mooa))
        assert code == EXIT_PASS
        with open(ham_net, "r", encoding="utf-8") as fh:
            assert net_text == fh.read()

    def test_verify_mooa_pass(self, capsys, ham_net, tmp_path):
        _, mooa_text, _ = run(capsys, "to-mooa", ham_net)
        mooa = tmp_path / "a.mooa"
        mooa.write_text(mooa_text)
        code, out, _ = run(capsys, "verify-mooa", str(mooa))
        assert code == EXIT_PASS
        # maximal profiles at budget 3 with beta=(3,3): all splits of 3
        assert out == "verify-mooa: PASS (mode=maximal, profiles=4, strength=3)\n"

    def test_verify_mooa_enumerates_profiles_once(self, capsys, ham_net, tmp_path):
        from evnets import ooa
        _, mooa_text, _ = run(capsys, "to-mooa", ham_net)
        mooa = tmp_path / "a.mooa"
        mooa.write_text(mooa_text)
        ooa._maximal_profiles.cache_clear()
        run(capsys, "verify-mooa", str(mooa))
        info = ooa._maximal_profiles.cache_info()
        assert (info.misses, info.hits) == (1, 1)  # the verdict, then profiles=4

    def test_verify_mooa_failure_forms(self, capsys, bad_net, tmp_path):
        _, mooa_text, _ = run(capsys, "to-mooa", bad_net)
        mooa = tmp_path / "bad.mooa"
        mooa.write_text(mooa_text)
        code, out, _ = run(capsys, "verify-mooa", str(mooa))
        assert code == EXIT_FAIL
        assert out == ("verify-mooa: FAIL profile=(0, 3) tuple=(0, 0, 0) observed=0 "
                       "expected=1 (mode=maximal)\n")
        code, out, _ = run(capsys, "verify-mooa", str(mooa), "--json")
        assert code == EXIT_FAIL
        assert list(json.loads(out)) == ["pass", "mode", "checked_profiles", "witness"]
        assert json.loads(out) == {
            "pass": False, "mode": "maximal", "checked_profiles": 4,
            "witness": {"profile": [0, 3], "tuple": [0, 0, 0], "observed": 0,
                        "expected": 1}}

    def test_from_mooa_base_above_36_is_usage_error(self, capsys, tmp_path):
        mooa = tmp_path / "b37.mooa"
        mooa.write_text("MOOA v1\nbase 37 m 1 s 1 u 0\ne 1\nbeta 1\n"
                        + "".join(f"{i}\n" for i in range(37)))
        code, out, err = run(capsys, "from-mooa", str(mooa))
        assert code == EXIT_USAGE and out == ""
        assert err == "error: base 37 exceeds 36, not representable with digit characters\n"

    def test_from_mooa_refuses_failing_array(self, capsys, bad_net, tmp_path):
        _, mooa_text, _ = run(capsys, "to-mooa", bad_net)
        mooa = tmp_path / "bad.mooa"
        mooa.write_text(mooa_text)
        code, out, err = run(capsys, "from-mooa", str(mooa))
        assert code == EXIT_FAIL and out == ""
        assert err == ("error: array fails its strength contract: {'profile': [0, 3], "
                       "'tuple': [0, 0, 0], 'observed': 0, 'expected': 1}\n")
        with pytest.raises(SystemExit) as exc:
            main(["from-mooa", str(mooa), "--no-verify"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --no-verify" in capsys.readouterr().err

    def test_custom_beta(self, capsys, ham_net):
        code, out, _ = run(capsys, "to-mooa", ham_net, "--e", "1,2",
                           "--beta", "2,1")
        assert code == EXIT_PASS
        assert out.splitlines()[3] == "beta 2 1"


class TestBoundsCommands:
    def test_rao_violation_text(self, capsys):
        code, out, _ = run(capsys, "rao", "--base", "2", "--m", "2",
                           "--e", "1,1,1,1", "--t", "2")
        assert code == EXIT_FAIL
        assert out == ("rao: VIOLATED rao-even-g1 LHS 4 > RHS 3 "
                       "(base=2, m=2, e=(1, 1, 1, 1), threshold m>=2)\n")

    def test_rao_satisfied(self, capsys):
        code, out, _ = run(capsys, "rao", "--base", "2", "--m", "3",
                           "--e", "1x4", "--t", "2")
        assert code == EXIT_PASS and out.startswith("rao: SATISFIED")

    def test_rao_not_applicable_passes(self, capsys):
        code, out, _ = run(capsys, "rao", "--base", "2", "--m", "1",
                           "--e", "1x4", "--t", "2")
        assert code == EXIT_PASS and out.startswith("rao: NOT APPLICABLE")

    def test_rao_json(self, capsys):
        code, out, _ = run(capsys, "rao", "--base", "2", "--m", "2",
                           "--e", "1x4", "--t", "2", "--json")
        data = json.loads(out)
        assert code == EXIT_FAIL
        assert data["pass"] is False and data["condition"] == "rao-even-g1"
        assert data["lhs"] == "4" and data["rhs"] == "3"

    def test_rao_odd_strength(self, capsys):
        code, out, _ = run(capsys, "rao", "--base", "2", "--m", "3",
                           "--e", "1,1,1", "--t", "3")
        assert code == EXIT_PASS
        assert "rao-odd-g1 LHS 5 <= RHS 7" in out

    @pytest.mark.parametrize("t", ["-1", "0", "1", "4"])
    def test_rao_strength_outside_two_to_s_is_usage_error(self, capsys, t):
        code, out, err = run(capsys, "rao", "--base", "2", "--m", "3",
                             "--e", "1,1,1", "--t", t)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == f"error: strength must satisfy 2 <= t <= s, got t={t}, s=3\n"

    def test_feasible_infeasible_text(self, capsys):
        code, out, _ = run(capsys, "feasible", "--base", "2", "--m", "2",
                           "--e", "1x4")
        assert code == EXIT_FAIL
        lines = out.splitlines()
        assert "  rao-even-g1: VIOLATED (LHS 4, RHS 3)" in lines
        assert lines[-1].startswith("feasible: INFEASIBLE")

    def test_feasible_sequence_target(self, capsys):
        code, out, _ = run(capsys, "feasible", "--base", "2", "--m", "6",
                           "--e", "1x2,2x2", "--target", "sequence")
        assert code == EXIT_PASS
        assert out.splitlines()[-1].startswith("feasible: FEASIBLE")
        assert any("lcm-{1,2}" in line for line in out.splitlines())

    @pytest.mark.parametrize("argv, message", [
        (("--base", "1", "--m", "3", "--e", "1"), "base must be >= 2, got 1"),
        (("--base", "2", "--m", "-5", "--e", "1"), "m must be >= 0, got -5"),
        (("--base", "1", "--m", "3", "--e", "1", "--target", "sequence"),
         "base must be >= 2, got 1"),
    ])
    def test_feasible_nonsense_parameters_are_usage_errors(self, capsys, argv, message):
        code, out, err = run(capsys, "feasible", *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    def test_feasible_json(self, capsys):
        code, out, _ = run(capsys, "feasible", "--base", "2", "--m", "2",
                           "--e", "1x4", "--json")
        data = json.loads(out)
        assert data["feasible"] is False
        assert [c["condition"] for c in data["conditions"]] == [
            "rao-even-g1", "rao-even-g2", "rao-odd-g1"]
        # only g1 has enough digit budget to apply at m=2
        assert [c["applicable"] for c in data["conditions"]] == [True, False, False]

    @pytest.mark.parametrize("argv", [
        ("feasible", "--base", "2", "--m", "20000", "--e", "1,1"),
        ("feasible", "--base", "2", "--m", "20000", "--e", "1,1", "--json"),
        ("feasible", "--base", "10", "--m", "4301", "--e", "1,1", "--target", "sequence"),
        ("rao", "--base", "2", "--m", "20000", "--e", "1,1", "--t", "2"),
        ("rao", "--base", "2", "--m", "20000", "--e", "1,1", "--t", "2", "--json"),
    ])
    def test_integer_too_long_to_write_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE and out == ""
        assert err == ("error: rao-even-g1: RHS has more than 4300 decimal digits, "
                       "too many to write\n")

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    def test_longest_writable_integer_is_written(self, capsys, json_flag):
        # 10**4300 - 1 has 4300 digits, the most Python writes by default
        code, out, _ = run(capsys, "rao", "--base", "10", "--m", "4300", "--e", "1,1",
                           "--t", "2", *json_flag)
        assert code == EXIT_PASS
        assert "9" * 4300 in out and "9" * 4301 not in out


class TestDualCert:
    def _mooa(self, capsys, ham_net, tmp_path, e="1,2"):
        _, text, _ = run(capsys, "to-mooa", ham_net, "--e", e)
        p = tmp_path / "a.mooa"
        p.write_text(text)
        return str(p)

    def test_kappa_family_passes(self, capsys, ham_net, tmp_path):
        mooa = self._mooa(capsys, ham_net, tmp_path)
        code, out, _ = run(capsys, "dual-cert", mooa, "--kappa", "3,0")
        assert code == EXIT_PASS
        assert out == "dual-cert: PASS (kappa=(3, 0), family=8 <= b^m=8)\n"

    def test_tuples_file(self, capsys, ham_net, tmp_path):
        mooa = self._mooa(capsys, ham_net, tmp_path)
        tuples = tmp_path / "fam.txt"
        tuples.write_text("0 0 0 0\n1 0 0 0\n0 0 0 1\n")
        code, out, _ = run(capsys, "dual-cert", mooa, "--tuples", str(tuples))
        assert code == EXIT_PASS and "tuples=3" in out

    def test_exactly_one_source_required(self, capsys, ham_net, tmp_path):
        mooa = self._mooa(capsys, ham_net, tmp_path)
        code, _, err = run(capsys, "dual-cert", mooa)
        assert code == EXIT_USAGE and "exactly one" in err
        tuples = tmp_path / "fam.txt"
        tuples.write_text("0 0 0 0\n")
        code, _, err = run(capsys, "dual-cert", mooa, "--kappa", "1,0",
                           "--tuples", str(tuples))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("flags", [(), ("--kappa", "1,1", "--tuples", "fam.txt")])
    def test_source_flags_checked_before_any_read(self, capsys, monkeypatch, ham_net, flags):
        # a NET file is not a MOOA file, but the usage error comes first
        code, out, err = run(capsys, "dual-cert", ham_net, *flags)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "error: dual-cert needs exactly one of --kappa or --tuples\n"

        class Unread:
            @property
            def buffer(self):
                raise AssertionError("stdin was read")

        monkeypatch.setattr(sys, "stdin", Unread())
        code, _, err = run(capsys, "dual-cert", "-", *flags)
        assert code == EXIT_USAGE and "exactly one" in err
        code, _, err = run(capsys, "dual-cert", "-", "--tuples", "-")
        assert code == EXIT_USAGE and "standard input" in err

    def test_oversized_kappa_family_is_refused_before_it_is_built(self, capsys, ham_net,
                                                                   tmp_path, monkeypatch):
        mooa = self._mooa(capsys, ham_net, tmp_path)

        def no_tuples(*args):
            raise AssertionError("family member built")

        monkeypatch.setattr(dualcert, "FunctionTuple", no_tuples)
        need = dualcert._route_bytes(8, 4, 3, 8, 7)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        code, out, err = run(capsys, "dual-cert", mooa, "--kappa", "3,0")
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: a family of 8 tuples on 8 rows needs {need} bytes of "
                       f"residues, exponent rows and differences, above the cap of "
                       f"{need - 1} bytes\n")
        # a bad profile is still named first
        code, _, err = run(capsys, "dual-cert", mooa, "--kappa", "4,0")
        assert code == EXIT_USAGE and err == "error: kappa[0]=4 outside [0, 3]\n"

    def test_failing_certificate(self, capsys, bad_net, tmp_path):
        _, text, _ = run(capsys, "to-mooa", bad_net)
        p = tmp_path / "bad.mooa"
        p.write_text(text)
        code, out, _ = run(capsys, "dual-cert", str(p), "--kappa", "0,3")
        assert code == EXIT_FAIL
        assert out == ("dual-cert: FAIL kind=gram pair=(0, 1) order=2 counts=(3, 5) "
                       "(kappa=(0, 3))\n")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "1"])
    def test_unusable_tolerance_is_usage_error(self, capsys, bad_net, tmp_path, tol):
        # the certificate is exact: --tol is no longer an option at all
        _, text, _ = run(capsys, "to-mooa", bad_net)
        p = tmp_path / "bad.mooa"
        p.write_text(text)
        with pytest.raises(SystemExit) as err:
            main(["dual-cert", str(p), "--kappa", "0,3", f"--tol={tol}"])
        assert err.value.code == EXIT_USAGE
        out, err_text = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --tol" in err_text

    def test_json_report(self, capsys, ham_net, tmp_path):
        mooa = self._mooa(capsys, ham_net, tmp_path)
        code, out, _ = run(capsys, "dual-cert", mooa, "--kappa", "1,1", "--json")
        data = json.loads(out)
        assert code == EXIT_PASS
        assert data["pass"] is True and data["family_size"] == 8
        assert data["row_bound"] == 8 and data["witness"] is None
        assert set(data) == {"pass", "family_size", "row_bound", "witness"}

    def test_route_above_the_cap_is_usage_error(self, capsys, ham_net, tmp_path,
                                                 monkeypatch):
        # the real cap is 1 GiB, which hammersley(2,14) at kappa (7,7) fits
        # in about 14 MB; a lowered cap refuses this family of 8
        mooa = self._mooa(capsys, ham_net, tmp_path)
        need = dualcert._route_bytes(8, 4, 3, 8, 7)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        code, out, err = run(capsys, "dual-cert", mooa, "--kappa", "3,0")
        assert code == EXIT_USAGE and out == ""
        assert err == (f"error: a family of 8 tuples on 8 rows needs {need} bytes of "
                       f"residues, exponent rows and differences, above the cap of "
                       f"{need - 1} bytes\n")

    @pytest.mark.parametrize("net", ["ham_net", "bad_net"])
    def test_tuples_and_kappa_give_one_verdict(self, capsys, request, tmp_path, net):
        # the block family written out as --tuples takes the same route
        mooa = self._mooa(capsys, request.getfixturevalue(net), tmp_path, e="1,1")
        array = evnets.parse_mooa(Path(mooa).read_bytes())
        tuples = tmp_path / "fam.txt"
        tuples.write_text("".join(
            " ".join(str(v) for block in d.values for v in block) + "\n"
            for d in dualcert.build_block_family(array, (0, 3))))
        by_kappa = run(capsys, "dual-cert", mooa, "--kappa", "0,3", "--json")
        by_tuples = run(capsys, "dual-cert", mooa, "--tuples", str(tuples), "--json")
        assert by_kappa == by_tuples
        assert by_kappa[0] == (EXIT_PASS if net == "ham_net" else EXIT_FAIL)

    def test_json_failure_witness(self, capsys, bad_net, tmp_path):
        _, text, _ = run(capsys, "to-mooa", bad_net)
        p = tmp_path / "bad.mooa"
        p.write_text(text)
        code, out, _ = run(capsys, "dual-cert", str(p), "--kappa", "0,3", "--json")
        data = json.loads(out)
        assert code == EXIT_FAIL and data["pass"] is False
        assert set(data) == {"pass", "family_size", "row_bound", "witness"}
        assert data["witness"] == {"kind": "gram", "pair": [0, 1], "order": 2,
                                   "counts": [3, 5]}


class TestReport:
    def test_text_report(self, capsys, ham_net):
        code, out, _ = run(capsys, "report", ham_net)
        assert code == EXIT_PASS
        lines = out.splitlines()
        assert lines[0] == "report: base=2 m=3 s=2 points=8"
        assert "  verify-net(narrow) at claimed u: PASS" in lines
        assert "  u_star(narrow): 0" in lines
        assert "  moa: alphabets=(2, 2) max_strength=2" in lines
        assert "  mooa at u=0: beta=(3, 3) PASS" in lines
        assert lines[-1] == "  feasibility(net): feasible (1 conditions)"

    def test_defective_report(self, capsys, bad_net):
        code, out, _ = run(capsys, "report", bad_net)
        assert code == EXIT_PASS  # a report is produced either way
        assert "FAIL" in out and "u_star(narrow): 1" in out

    def test_json_report(self, capsys, ham_net):
        code, out, _ = run(capsys, "report", ham_net, "--json")
        data = json.loads(out)
        assert data["verify_at_claimed_u"] is True
        assert data["u_star"] == 0
        assert data["moa"] == {"alphabets": [2, 2], "max_strength": 2}
        assert data["mooa_at_u_star"] == {"pass": True, "beta": [3, 3]}
        assert data["feasibility"]["feasible"] is True

    @pytest.mark.parametrize("variant", ["narrow", "tezuka"])
    @pytest.mark.parametrize("name, points, e", [
        ("ham23", corpus.hammersley(2, 3), (1, 1)),
        ("faure333", corpus.faure(3, 3, 3), (1, 1, 1)),
        ("faure333-flipped", corpus.flip_digit(corpus.faure(3, 3, 3), 5, 1, 0), (1, 1, 1)),
        ("random", corpus.random_pointset(3, 3, 2, 7), (1, 1)),
        ("ham25-mixed-e", corpus.hammersley(2, 5), (1, 2)),
        # tezuka: no shape sums to m - u = 3, so u_star = 1, where the line fails
        ("random-e22", corpus.random_pointset(2, 4, 2, 0), (2, 2)),
    ])
    def test_mooa_line_matches_the_array_route(self, capsys, tmp_path, variant, name,
                                               points, e):
        # the line is decided on the net; the canonical array's own check
        # at u_star is the reference
        path = tmp_path / f"{name}.net"
        path.write_text(serialize_net(points, 0, EVector(e)))
        code, out, _ = run(capsys, "report", str(path), "--variant", variant, "--json")
        data = json.loads(out)
        star = data["u_star"]
        assert star == evnets.u_star(points, e, variant)
        if points.precision < star + max(e):
            want = None
        else:
            array = evnets.net_to_mooa(points, star, e)
            want = {"pass": bool(evnets.verify_mooa(array)), "beta": list(array.beta)}
        assert data["mooa_at_u_star"] == want
        _, text, _ = run(capsys, "report", str(path), "--variant", variant)
        lines = [line for line in text.splitlines() if line.startswith("  mooa at")]
        assert lines == ([] if want is None else [
            f"  mooa at u={star}: beta=({', '.join(map(str, want['beta']))}) "
            f"{'PASS' if want['pass'] else 'FAIL'}"])


# Runs main on the arguments, then writes the loaded evnets and numpy
# modules as the last line of stderr.
_FRESH_MAIN = """import sys
from evnets.cli import main
try:
    code = main(sys.argv[1:])
finally:
    sys.stdout.flush()
    sys.stderr.write("\\n" + " ".join(m for m in sys.modules
                                     if m == "numpy" or m.startswith("evnets")))
sys.exit(code)
"""


class TestReadmeSynopsis:
    @staticmethod
    def _synopsis():
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```", 2)[1]
        return [line.split() for line in block.splitlines() if line.startswith("evnets ")]

    @staticmethod
    def _subparsers():
        parser = build_parser()
        return next(a for a in parser._actions if hasattr(a, "choices") and a.choices).choices

    def test_every_subcommand_is_listed(self):
        assert sorted(words[1] for words in self._synopsis()) == sorted(self._subparsers())

    def test_every_synopsis_flag_is_accepted(self):
        subparsers = self._subparsers()
        for words in self._synopsis():
            options = subparsers[words[1]]._option_string_actions
            for flag in re.findall(r"--[a-z][a-z-]*", " ".join(words[2:])):
                assert flag in options, (words[1], flag)

    @staticmethod
    def _fresh(argv, cwd):
        """Exit code, stdout bytes and loaded modules of ``main(argv)`` in a
        new interpreter, which imports only what the subcommand uses."""
        src = os.path.dirname(os.path.dirname(os.path.abspath(evnets.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", _FRESH_MAIN, *argv], env=env, cwd=cwd,
                              capture_output=True, timeout=60)
        return proc.returncode, proc.stdout, set(proc.stderr.decode().split("\n")[-1].split())

    def test_every_subcommand_prints_the_same_in_a_fresh_process(self, capsys, tmp_path,
                                                                 monkeypatch):
        # here the whole package is loaded; there only what each handler imports
        net = corpus.hammersley(2, 3)
        (tmp_path / "h.net").write_text(serialize_net(net, 0, EVector((1, 1))))
        (tmp_path / "h.moa").write_text(evnets.serialize_moa(evnets.net_to_moa(net, (1, 1))))
        (tmp_path / "h.mooa").write_text(evnets.serialize_mooa(evnets.net_to_mooa(net, 0, (1, 1))))
        examples = {
            "gen": ["hammersley", "--base", "2", "--m", "3"],
            "verify-net": ["h.net"], "verify-seq": ["h.net", "--json"],
            "to-moa": ["h.net"], "verify-moa": ["h.moa", "--t", "2"],
            "to-mooa": ["h.net"], "from-mooa": ["h.mooa"], "verify-mooa": ["h.mooa"],
            "rao": ["--base", "2", "--m", "10", "--e", "1x5", "--t", "4"],
            "feasible": ["--base", "2", "--m", "20", "--e", "1x8", "--target", "sequence"],
            "dual-cert": ["h.mooa", "--kappa", "1,2"], "report": ["h.net"],
        }
        assert sorted(examples) == sorted(words[1] for words in self._synopsis())
        monkeypatch.chdir(tmp_path)
        for command, args in examples.items():
            code, out, _ = run(capsys, command, *args)
            fresh = self._fresh([command, *args], tmp_path)
            assert fresh[:2] == (code, out.encode()), command
        assert run(capsys, "feasible", *examples["feasible"])[0] == EXIT_FAIL

    @pytest.mark.parametrize("argv", [
        ["rao", "--base", "2", "--m", "10", "--e", "1x5", "--t", "4"],
        ["feasible", "--base", "3", "--m", "12", "--e", "1x10,2x5"],
        ["feasible", "--base", "2", "--m", "20", "--e", "1x8", "--target", "sequence"],
        ["--help"], ["dual-cert", "--help"]])
    def test_bounds_and_help_run_without_numpy(self, capsys, tmp_path, argv):
        code, out, modules = self._fresh(argv, tmp_path)
        assert "evnets.cli" in modules and "numpy" not in modules
        if argv[-1] == "--help":
            assert code == EXIT_PASS and out.startswith(b"usage: evnets")
        else:
            want_code, want_out, _ = run(capsys, *argv)
            assert (code, out) == (want_code, want_out.encode())

    def test_every_flag_is_in_the_synopsis(self):
        # gen's line elides its generator-specific flags with "..."
        subparsers = self._subparsers()
        for words in self._synopsis():
            if words[1] == "gen":
                continue
            shown = set(re.findall(r"--[a-z][a-z-]*", " ".join(words[2:])))
            flags = {f for f in subparsers[words[1]]._option_string_actions
                     if f.startswith("--") and f != "--help"}
            assert flags <= shown, (words[1], flags - shown)
