"""Reference constructions, perturbations, and the existence search."""

import os
import subprocess
import sys
import tracemalloc
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from evnets import PointSet, _util, u_star, verify_net
from evnets.cli import EXIT_INCONCLUSIVE, EXIT_PASS, main
from evnets.corpus import (
    digital_net, faure, flip_digit, grid_1d, hammersley, random_pointset,
    search_net,
)
from evnets.errors import ParamError

import oracles
from storage import storage


class TestGenerators:
    @pytest.mark.parametrize("b,m", [(2, 1), (2, 4), (3, 2), (5, 1)])
    def test_grid_is_the_ordered_lattice(self, b, m):
        p = grid_1d(b, m)
        assert p.count == b ** m and p.dim == 1
        for n in range(p.count):
            assert p.coordinate_value(n, 0) * b ** m == n
        assert verify_net(p, 0, (1,))

    @pytest.mark.parametrize("b,m", [(2, 1), (2, 3), (2, 4), (3, 1), (3, 2)])
    def test_two_dim_reference_has_quality_zero(self, b, m):
        p = hammersley(b, m)
        assert verify_net(p, 0, (1, 1))
        assert u_star(p, (1, 1)) == 0

    def test_reference_coordinates(self, ham23):
        # coordinate 1 of row n is n / 8; coordinate 0 reverses the digits
        for n in range(8):
            assert ham23.coordinate_value(n, 1) * 8 == n
            bits = [(n >> j) & 1 for j in range(3)]  # least significant first
            assert list(ham23.digits[n, 0]) == bits

    def test_digital_identity_is_the_grid(self):
        eye = np.eye(3, dtype=np.int64)
        p = digital_net(2, [eye])
        assert p == PointSet(2, hammersley(2, 3).digits[:, [1]])

    def test_digital_antidiagonal_reverses_digits(self):
        anti = np.eye(3, dtype=np.int64)[::-1]
        p = digital_net(2, [anti])
        assert p == PointSet(2, hammersley(2, 3).digits[:, [0]])

    def test_digital_validation(self):
        eye = np.eye(2, dtype=np.int64)
        with pytest.raises(ParamError):
            digital_net(4, [eye])            # base must be prime
        with pytest.raises(ParamError):
            digital_net(2, [])
        with pytest.raises(ParamError):
            digital_net(2, [eye, np.eye(3, dtype=np.int64)])
        with pytest.raises(ParamError):
            digital_net(2, [2 * eye])

    @pytest.mark.parametrize("b,m,s", [(2, 1, 2), (2, 3, 2), (3, 2, 3), (3, 3, 3),
                                       (5, 2, 4)])
    def test_pascal_construction_has_quality_zero(self, b, m, s):
        p = faure(b, m, s)
        assert p.count == b ** m and p.dim == s
        assert verify_net(p, 0, (1,) * s)

    def test_pascal_first_coordinate_is_the_grid(self):
        p = faure(3, 2, 3)
        assert PointSet(3, p.digits[:, [0]]) == grid_1d(3, 2)

    def test_pascal_validation(self):
        with pytest.raises(ParamError):
            faure(4, 2, 2)    # non-prime base
        with pytest.raises(ParamError):
            faure(3, 2, 4)    # s > base
        with pytest.raises(ParamError):
            faure(3, 2, 0)

    @pytest.mark.parametrize("make", [
        lambda: faure(3, 30, 2),
        lambda: hammersley(2, 40),
        lambda: grid_1d(7, 10 ** 6),
        lambda: random_pointset(2, 20, 10 ** 4, 0),
        lambda: digital_net(2, [np.zeros((40, 40), dtype=np.int64)]),
        lambda: search_net(2, 200, (1,), 1, 200),
    ])
    def test_oversized_digit_tensor_is_refused_before_allocation(self, make):
        import tracemalloc
        tracemalloc.start()
        try:
            with pytest.raises(ParamError, match="bytes of digits, above the cap"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_digit_tensor_at_the_cap_is_built(self, monkeypatch):
        import evnets.corpus as corpus
        # one byte per digit for a base <= 256, eight above it
        monkeypatch.setattr(corpus, "_BYTES_CAP", 2 ** 4 * 2 * 4)
        assert hammersley(2, 4).count == 16
        with pytest.raises(ParamError):
            hammersley(2, 5)
        monkeypatch.setattr(corpus, "_BYTES_CAP", 257 * 8)
        assert grid_1d(257, 1).count == 257
        monkeypatch.setattr(corpus, "_BYTES_CAP", 257 * 8 - 1)
        with pytest.raises(ParamError, match="need 2056 bytes"):
            grid_1d(257, 1)

    def test_random_pointset_reproducible(self):
        a = random_pointset(2, 3, 2, 42)
        b = random_pointset(2, 3, 2, 42)
        c = random_pointset(2, 3, 2, 43)
        assert a == b and a != c
        assert a.count == 8 and a.digits.max() <= 1

    @pytest.mark.parametrize("make, message", [
        (lambda: random_pointset(2, 3, 2, -1), "seed must be >= 0, got -1"),
        (lambda: random_pointset(2, 3, 0, 1), "need at least one coordinate, got s=0"),
        (lambda: hammersley(1, 3), "base must be >= 2, got 1"),
        (lambda: grid_1d(2, -1), "m must be >= 0, got -1"),
        (lambda: search_net(2, 2, (1, 1), 3, 0), "e-vector has 2 entries, expected s=3"),
        (lambda: search_net(2, 2, (1, 1), 2, 3), "need 0 <= u <= m, got u=3, m=2"),
        (lambda: search_net(2, 2, (1, 1), 2, 0, node_limit=-1),
         "node limit must be >= 0, got -1"),
    ])
    def test_nonsense_parameters_are_param_errors(self, make, message):
        with pytest.raises(ParamError, match=f"^{message}$"):
            make()


def _brute_equal(make, b, matrices):
    want = oracles.brute_digital_points(b, matrices)
    # a seam between almost every pair of rows, a few dozen rows a chunk
    # (which crosses seams in every level at bases past 100), and none
    for chunk in ([1, 7] if b < 100 else [256]) + [1 << 20]:
        with mock.patch.object(_util, "_CHUNK_BYTES", chunk):
            points = make()
        assert points.digits.dtype == (np.uint8 if b <= 256 else np.int64)
        assert points.digits.tolist() == want, chunk


class TestAgainstBruteDigitalPoints:
    """Every digital generator against Python-int digits of n times each C_i."""

    @settings(deadline=None, max_examples=40)
    @given(b=st.sampled_from([2, 3, 5, 7]), m=st.integers(0, 4), s=st.integers(1, 3),
           data=st.data())
    def test_digital_net(self, b, m, s, data):
        assume(b ** m <= 2401)
        entries = st.lists(st.integers(0, b - 1), min_size=m * m, max_size=m * m)
        mats = [np.array(data.draw(entries), dtype=np.int64).reshape(m, m) for _ in range(s)]
        _brute_equal(lambda: digital_net(b, mats), b, mats)

    @pytest.mark.parametrize("b", [131, 257])
    def test_digital_net_whose_sums_pass_a_byte(self, b):
        rng = np.random.default_rng(b)
        mats = [rng.integers(0, b, (2, 2)) for _ in range(3)]
        _brute_equal(lambda: digital_net(b, mats), b, mats)

    @pytest.mark.parametrize("b, m, s", [(2, 0, 2), (2, 6, 2), (3, 4, 3), (5, 3, 5), (7, 2, 7)])
    def test_faure(self, b, m, s):
        pascal = np.array([[comb(c, r) % b for c in range(m)] for r in range(m)],
                          dtype=np.int64).reshape(m, m)
        mats = [np.linalg.matrix_power(pascal, i) % b for i in range(s)]
        _brute_equal(lambda: faure(b, m, s), b, mats)

    @pytest.mark.parametrize("b, m", [(2, 0), (2, 5), (4, 3), (6, 3), (10, 2), (131, 0),
                                      (131, 2), (256, 2), (257, 0), (257, 2)])
    def test_hammersley_and_grid(self, b, m):
        identity = np.eye(m, dtype=np.int64)
        _brute_equal(lambda: hammersley(b, m), b, [identity[::-1], identity])
        _brute_equal(lambda: grid_1d(b, m), b, [identity])


class TestFlipDigit:
    def test_exact_single_digit_change(self, ham23):
        bad = flip_digit(ham23, 0, 1, 2)
        delta = bad.digits != ham23.digits
        assert delta.sum() == 1 and delta[0, 1, 2]
        assert bad.digits[0, 1, 2] == (ham23.digits[0, 1, 2] + 1) % 2

    def test_wraps_modulo_base(self):
        p = PointSet(3, np.array([[[2]]], dtype=np.int64))
        assert flip_digit(p, 0, 0, 0).digits[0, 0, 0] == 0

    def test_original_unchanged(self, ham23):
        before = ham23.digits.copy()
        flip_digit(ham23, 1, 0, 1)
        assert np.array_equal(ham23.digits, before)

    def test_out_of_range(self, ham23):
        for args in [(8, 0, 0), (0, 2, 0), (0, 0, 3), (-1, 0, 0)]:
            with pytest.raises(IndexError):
                flip_digit(ham23, *args)


@st.composite
def _search_params(draw):
    """(b, m, s, e, u, node limit) with at most 4096 candidate points."""
    b = draw(st.sampled_from([2, 3]))
    s = draw(st.integers(1, 6))
    m = draw(st.integers(0, {2: 12, 3: 7}[b] // s))
    e = tuple(draw(st.lists(st.integers(1, m + 1), min_size=s, max_size=s)))
    u = draw(st.integers(0, m))
    limit = draw(st.sampled_from([0, 1, None]) | st.integers(2, 3000))
    return b, m, s, e, u, limit


class TestSearchNet:
    def test_finds_a_two_dim_net(self):
        res = search_net(2, 2, (1, 1), 2, 0)
        assert res and res.status == "found"
        assert res.net.count == 4
        assert verify_net(res.net, 0, (1, 1))
        assert oracles.brute_verify_net(res.net, 0, (1, 1))
        # canonicalization places the origin first
        assert not res.net.digits[0].any()

    def test_finds_mixed_resolution_net(self):
        res = search_net(2, 3, (1, 2), 2, 0)
        assert res.status == "found"
        assert verify_net(res.net, 0, (1, 2))

    def test_trivial_quality_returns_immediately(self):
        res = search_net(2, 2, (1, 1, 1), 3, 2)
        assert res.status == "found" and res.nodes == 0
        assert verify_net(res.net, 2, (1, 1, 1))

    def test_impossible_parameters_exhaust(self):
        # four binary coordinates at strength 2 violate the row-count bound
        res = search_net(2, 2, (1, 1, 1, 1), 4, 0)
        assert res.status == "nonexistent" and res.net is None
        assert res.nodes == 49  # deterministic canonical tree, regression pin

    @pytest.mark.parametrize("b, m, s, u, limit, status, nodes", [
        (2, 2, 8, 0, None, "nonexistent", 1281),
        (3, 2, 3, 0, None, "found", 251),
        (2, 4, 4, 0, 20000, "inconclusive", 20000),
    ])
    def test_node_counts_are_pinned(self, b, m, s, u, limit, status, nodes):
        res = search_net(b, m, (1,) * s, s, u, limit)
        assert (res.status, res.nodes) == (status, nodes)

    @pytest.mark.parametrize("limit", [0, 40000])
    def test_cli_search_at_its_node_limit(self, capsys, limit):
        code = main(["gen", "search", "--base", "2", "--m", "3", "--s", "4",
                     "--e", "1x4", "--u", "1", "--node-limit", str(limit)])
        out, err = capsys.readouterr()
        assert (code, out, err) == (EXIT_INCONCLUSIVE, "",
                                    f"search: INCONCLUSIVE after {limit} nodes\n")

    def test_deep_search_memory_does_not_grow_with_depth(self):
        # 8192 placements deep; a snapshot of the free candidates per frame
        # would take hundreds of MB
        tracemalloc.start()
        try:
            res = search_net(2, 13, (1,), 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "found" and res.nodes == 8192
        assert peak < 16 << 20

    def test_box_indices_take_the_narrowest_dtype(self):
        # 2**16 candidates under 35 shapes: 560 boxes, so two bytes an index
        # (4.6 MB) where int64 took 18.4 MB of a 25.5 MB peak
        tracemalloc.start()
        try:
            res = search_net(2, 4, (1,) * 4, 4, 0, node_limit=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "inconclusive" and res.nodes == 1
        assert peak < 14 << 20

    def test_cli_writes_a_deep_search(self, capsys):
        code = main(["gen", "search", "--base", "2", "--m", "16", "--s", "1",
                     "--e", "1", "--u", "0"])
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert (code, err) == (EXIT_PASS, "")
        assert lines[:3] == ["NET v1", "base 2 m 16 s 1 u 0", "e 1"]
        assert len(set(lines[3:])) == len(lines) - 3 == 1 << 16

    @settings(deadline=None, max_examples=60)
    @given(params=_search_params(), int64=st.booleans())
    @example(params=(2, 2, 4, (1, 1, 1, 1), 0, None), int64=False)   # nonexistent
    @example(params=(3, 2, 2, (1, 1), 0, 1), int64=True)             # inconclusive
    @example(params=(2, 3, 2, (1, 2), 0, None), int64=True)          # found
    def test_matches_the_rescan_search(self, params, int64):
        b, m, s, e, u, limit = params
        if limit is None:  # keep the reference search to a few thousand nodes
            bounded = search_net(b, m, e, s, u, 5000)
            assume(bounded.status != "inconclusive")
        with storage(int64):
            res = search_net(b, m, e, s, u, limit)
            status, nodes, digits = oracles.brute_search_net(b, m, e, s, u, limit)
            assert (res.status, res.nodes) == (status, nodes)
            if digits is None:
                assert res.net is None
            else:
                assert np.array_equal(res.net.digits, digits)

    @pytest.mark.parametrize("args", [(2, 2, (1, 1), 2, 2), (2, 2, (1, 1), 2, 0)],
                             ids=["u=m", "search"])
    def test_found_net_is_reverified_under_optimisation(self, args):
        # python -O strips assert statements; the re-verification must stay
        import evnets
        src = os.path.dirname(os.path.dirname(os.path.abspath(evnets.__file__)))
        script = f"""from evnets import Verdict, corpus, netverify
netverify.verify_net = lambda *args: Verdict(False, {{"shape": [0, 0]}})
try:
    corpus.search_net(*{args!r})
except AssertionError as exc:
    print("raised:", exc)
"""
        proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("raised: search found a set that is not a net: "
                               "{'shape': [0, 0]}\n")

    def test_gen_loads_no_verifier(self):
        # corpus imports netverify (and with it ooa) only where a search uses it
        import evnets
        src = os.path.dirname(os.path.dirname(os.path.abspath(evnets.__file__)))
        script = """import sys
from evnets.cli import main
main(["gen", "faure", "--base", "3", "--m", "2", "--s", "2", "--out", sys.argv[1]])
print(sorted(m for m in sys.modules if m in ("evnets.netverify", "evnets.ooa")))
"""
        proc = subprocess.run([sys.executable, "-c", script, os.devnull], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr

    @pytest.mark.parametrize("limit", [0, 1])
    def test_node_limit_gives_inconclusive(self, limit):
        res = search_net(2, 2, (1, 1, 1, 1), 4, 0, node_limit=limit)
        assert res.status == "inconclusive" and res.net is None
        assert res.nodes == limit
        assert not res

    def test_node_limit_larger_than_tree_still_concludes(self):
        res = search_net(2, 2, (1, 1, 1, 1), 4, 0, node_limit=10_000)
        assert res.status == "nonexistent"

    def test_three_mols_like_case_found(self):
        res = search_net(3, 2, (1, 1), 2, 0)
        assert res.status == "found"
        assert verify_net(res.net, 0, (1, 1))

    def test_desk_scale_cap(self):
        with pytest.raises(ParamError):
            search_net(2, 9, (1,) * 2, 2, 0)   # 2**18 candidate points
        # refused from the exponent, so a space too long to write is named by it
        with pytest.raises(ParamError, match=r"search space of 2\*\*32768 candidate points"):
            search_net(2, 8, (1,) * 4096, 4096, 0)
        with pytest.raises(ParamError, match=r"search space of 3\*\*8192 candidate points"):
            search_net(3, 2, (1,) * 4096, 4096, 1)

    def test_found_at_higher_quality_budget(self):
        res = search_net(2, 3, (1, 1), 2, 1)
        assert res.status == "found"
        assert verify_net(res.net, 1, (1, 1))
