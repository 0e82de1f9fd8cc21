"""Ordered-array bridge: profiles, strength contract, exact reconstruction."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evnets import (
    EVector, MixedOOA, PointSet,
    canonical_beta, enumerate_profiles, mooa_chunks, mooa_to_net, net_to_mooa, verify_mooa,
    verify_net,
)
from evnets import _util, corpus, netverify
from evnets.errors import ParamError, VerificationError

import oracles
from storage import storage

first_nonuniform = _util._first_nonuniform


def _rows(profiles):
    """The rows of a profile array as tuples of Python ints."""
    return [tuple(row) for row in profiles.tolist()]


class TestCanonicalBeta:
    def test_values(self):
        assert canonical_beta(3, 0, (1, 2)) == (3, 1)
        assert canonical_beta(3, 1, (1, 2)) == (2, 1)
        assert canonical_beta(3, 3, (1, 2)) == (0, 0)
        assert canonical_beta(5, 1, (1, 2, 3)) == (4, 2, 1)

    def test_validation(self):
        with pytest.raises(ParamError):
            canonical_beta(2, 3, (1,))


class TestEnumerateProfiles:
    def test_frozen_example_maximal(self):
        # m=3, u=0, e=(1,2), beta=(3,1): of (0,0) (0,1) (1,0) (1,1) (2,0)
        # (3,0) only two take no further column
        assert _rows(enumerate_profiles(3, 0, (1, 2), (3, 1))) == [(1, 1), (3, 0)]

    def test_block_caps_bind(self):
        # beta caps block 0 at 1 column even though the budget allows 3;
        # (1, 0) is not maximal: budget 3 - 1 = 2 >= e_1 = 2, so only (1, 1) is
        assert _rows(enumerate_profiles(3, 0, (1, 2), (1, 1))) == [(1, 1)]

    def test_zero_budget_only_zero_profile(self):
        assert _rows(enumerate_profiles(2, 2, (1, 1), (0, 0))) == [(0, 0)]

    @pytest.mark.parametrize("m,u,e,beta", [
        (3, 0, (1, 2), (3, 1)),
        (3, 1, (1, 2), (2, 1)),
        (4, 0, (1, 1, 2), (2, 1, 1)),
        (5, 2, (2, 3), (1, 1)),
    ])
    def test_matches_brute_enumeration(self, m, u, e, beta):
        assert _rows(enumerate_profiles(m, u, e, beta)) == \
            oracles.brute_profiles(m, u, e, beta, "maximal")

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_matches_brute_enumeration_on_draws(self, data):
        m = data.draw(st.integers(0, 7), label="m")
        u = data.draw(st.integers(0, m), label="u")
        e = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="e"))
        beta = tuple(data.draw(st.integers(0, (m - u) // ei), label=f"beta_{i}")
                     for i, ei in enumerate(e))
        assert _rows(enumerate_profiles(m, u, e, beta)) == \
            oracles.brute_profiles(m, u, e, beta, "maximal")

    def test_every_profile_refines_to_a_maximal_one(self):
        m, u, e, beta = 5, 1, (1, 2), (3, 2)
        maximal = _rows(enumerate_profiles(m, u, e, beta))
        for kappa in oracles.brute_profiles(m, u, e, beta, "all"):
            assert any(all(km >= k for k, km in zip(kappa, mx)) for mx in maximal)

    def test_one_enumeration_serves_every_call_read_only(self):
        _util.maximal_depths.cache_clear()
        first = enumerate_profiles(5, 1, (1, 2), (3, 2))
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 1
        again = enumerate_profiles(6, 2, EVector((1, 2)), [3, 2])  # the same budget
        assert _rows(again) == oracles.brute_profiles(5, 1, (1, 2), (3, 2), "maximal")
        assert _util.maximal_depths.cache_info().misses == 1


class TestNetToMooa:
    def test_reference_layout(self, ham23):
        arr = net_to_mooa(ham23, 0, (1, 2))
        assert (arr.base, arr.m, arr.u) == (2, 3, 0)
        assert arr.beta == (3, 1)
        assert arr.rows.shape == (8, 4)
        # block 0: the three single digits of coordinate 0, in depth order
        for n in range(8):
            assert list(arr.rows[n, :3]) == list(ham23.digits[n, 0, :])
            d = ham23.digits[n, 1]
            assert arr.rows[n, 3] == 2 * d[0] + d[1]

    def test_explicit_beta(self, ham23):
        arr = net_to_mooa(ham23, 0, (1, 2), beta=(2, 1))
        assert arr.beta == (2, 1) and arr.rows.shape == (8, 3)

    @pytest.mark.parametrize("make, message", [
        (lambda p: net_to_mooa(p, 2, (1, 2)), "need m >= u + max(e) = 4, got m=3"),
        (lambda p: net_to_mooa(p, 0, (1, 2), beta=(4, 1)), "beta[0]=4 outside [1, 3]"),
        (lambda p: net_to_mooa(p, 0, (1, 2), beta=(0, 1)), "beta[0]=0 outside [1, 3]"),
        (lambda p: net_to_mooa(PointSet(2, p.digits[:4]), 0, (1, 1)),
         "need base**m = 2**3 points, got 4"),
        (lambda p: net_to_mooa(p, 0, (1, 1, 1)), "e-vector has 3 entries, point set has 2"),
        (lambda p: net_to_mooa(p, 0, (1, 2), beta=(3,)), "beta has 1 entries, e-vector has 2"),
        (lambda p: enumerate_profiles(3, 0, (1, 2), (3,)), "beta has 1 entries, e-vector has 2"),
        (lambda p: enumerate_profiles(3, 0, (1, 2), (3, -1)),
         "beta entries must be >= 0, got (3, -1)"),
    ])
    def test_validation(self, ham23, make, message):
        with pytest.raises(ParamError, match=f"^{re.escape(message)}$"):
            make(ham23)

    @pytest.mark.parametrize("int64", [False, True])
    def test_unit_e_at_u0_views_the_digits(self, int64):
        with storage(int64):
            points = corpus.faure(3, 3, 3)
            arr = net_to_mooa(points, 0, (1, 1, 1))
        assert arr.beta == (3, 3, 3) and np.shares_memory(arr.rows, points.digits)
        header = ["MOOA v1", "base 3 m 3 s 3 u 0", "e 1 1 1", "beta 3 3 3"]
        rows = [[points.digits[n, i, l] for i in range(3) for l in range(3)] for n in range(27)]
        assert b"".join(mooa_chunks(arr)) == oracles.oracle_rows_text(header, rows).encode()
        assert not np.shares_memory(net_to_mooa(points, 1, (1, 1, 1)).rows, points.digits)

    def test_peak_memory_is_about_the_rows(self):
        import tracemalloc
        points = corpus.hammersley(2, 14)
        tracemalloc.start()
        try:
            arr = net_to_mooa(points, 0, (1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert arr.rows.shape == (2 ** 14, 28)
        assert peak <= 1.25 * arr.rows.nbytes


class TestVerifyMooa:
    def test_reference_array_passes(self, ham23):
        arr = net_to_mooa(ham23, 0, (1, 2))
        assert verify_mooa(arr)

    def test_vacuous_at_zero_strength(self):
        arr = MixedOOA(2, 1, 1, EVector((1,)), (0,),
                       np.zeros((2, 0), dtype=np.int64))
        assert verify_mooa(arr)

    def test_failure_witness(self, ham23):
        bad = corpus.flip_digit(ham23, 0, 1, 0)
        arr = net_to_mooa(bad, 0, (1, 2))
        v = verify_mooa(arr)
        assert not v
        assert set(v.witness) == {"profile", "tuple", "observed", "expected"}

    def test_maximal_equals_all(self, ham23, ham32):
        candidates = [ham23, ham32, corpus.flip_digit(ham23, 0, 1, 0),
                      corpus.random_pointset(2, 3, 2, 13)]
        for p in candidates:
            for u in range(0, p.precision - 1):
                e = (1, 2) if p.dim == 2 else (1,) * p.dim
                if p.precision < u + max(e):
                    continue
                arr = net_to_mooa(p, u, e)
                assert bool(verify_mooa(arr)) == oracles.brute_verify_mooa(
                    arr.rows, arr.base, arr.m, arr.u, tuple(arr.e), arr.beta, "all")

    def test_agrees_with_oracle(self, ham23, ham32):
        arrays = [
            net_to_mooa(ham23, 0, (1, 2)),
            net_to_mooa(ham23, 1, (1, 2)),
            net_to_mooa(ham32, 0, (1, 1)),
            net_to_mooa(corpus.flip_digit(ham23, 0, 1, 2), 0, (1, 1)),
            net_to_mooa(corpus.random_pointset(2, 3, 2, 17), 0, (1, 1)),
        ]
        for arr in arrays:
            assert bool(verify_mooa(arr)) == oracles.brute_verify_mooa(
                arr.rows, arr.base, arr.m, arr.u, tuple(arr.e), arr.beta, "all")

    def test_net_property_transfers(self, ham23):
        # a passing quality-0 point set yields a passing strength-m array and
        # the defective set yields a failing one at the resolution that sees it
        assert verify_mooa(net_to_mooa(ham23, 0, (1, 1)))
        bad = corpus.flip_digit(ham23, 0, 1, 2)
        assert not verify_mooa(net_to_mooa(bad, 0, (1, 1)))
        assert verify_mooa(net_to_mooa(bad, 1, (1, 1)))

    def test_stops_at_the_first_failing_profile(self, ham23, monkeypatch):
        calls = []

        def counting(keys, cells, expected):
            calls.append(cells)
            return first_nonuniform(keys, cells, expected)

        monkeypatch.setattr(_util, "_first_nonuniform", counting)
        bad = net_to_mooa(corpus.flip_digit(ham23, 0, 1, 0), 0, (1, 1))
        v = verify_mooa(bad)
        profiles = enumerate_profiles(3, 0, (1, 1), bad.beta)
        # one kernel call per profile up to and including the witness
        assert len(calls) == _rows(profiles).index(tuple(v.witness["profile"])) + 1
        assert len(calls) < len(profiles)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(2, 3), st.data())
    def test_oracle_agreement_property(self, b, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            m = data.draw(st.integers(1, 3))
            u = data.draw(st.integers(0, m))
            s = data.draw(st.integers(1, 2))
            e = tuple(data.draw(st.integers(1, 2)) for _ in range(s))
            caps = tuple((m - u) // ei for ei in e)
            beta = tuple(data.draw(st.integers(0, c)) for c in caps)
            n = b ** m
            rows = np.array(
                [[data.draw(st.integers(0, b ** ei - 1))
                  for ei, bi in zip(e, beta) for _ in range(bi)]
                 for _ in range(n)], dtype=np.int64).reshape(n, sum(beta))
            arr = MixedOOA(b, m, u, EVector(e), beta, rows)
            assert bool(verify_mooa(arr)) == \
                oracles.brute_verify_mooa(rows, b, m, u, e, beta, "all")


class TestNetAndArrayWitnessesAgree:
    """A net of quality u and its canonical array are one object, so both
    verifiers must fail at the same place: shape = kappa * e, and box
    coordinate i is block i of the tuple read in base b**e_i."""

    @staticmethod
    def _check(points, u, e):
        b = points.base
        net = verify_net(points, u, e)
        arr = verify_mooa(net_to_mooa(points, u, e))
        assert bool(net) == bool(arr)
        if net:
            return
        nw, aw = net.witness, arr.witness
        assert nw["shape"] == [k * ei for k, ei in zip(aw["profile"], e)]
        assert (nw["observed"], nw["expected"]) == (aw["observed"], aw["expected"])
        entries = iter(aw["tuple"])
        for box_i, k, ei in zip(nw["box"], aw["profile"], e):
            value = 0
            for _ in range(k):
                value = value * b ** ei + next(entries)
            assert box_i == value

    @staticmethod
    def _evectors(s):
        return [(1,) * s, (2,) + (1,) * (s - 1), (1,) * (s - 1) + (2,)]

    @pytest.mark.parametrize("points", [
        pytest.param(corpus.hammersley(2, 3), id="ham-2-3"),
        pytest.param(corpus.hammersley(3, 2), id="ham-3-2"),
        pytest.param(corpus.hammersley(2, 5), id="ham-2-5"),
        pytest.param(corpus.faure(3, 3, 3), id="faure-3-3-3"),
        pytest.param(corpus.faure(2, 4, 2), id="faure-2-4-2"),
        pytest.param(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2), id="ham-2-3-flip"),
        pytest.param(corpus.flip_digit(corpus.faure(3, 3, 3), 5, 2, 1), id="faure-3-3-3-flip"),
        pytest.param(corpus.random_pointset(2, 4, 3, 0), id="random-2-4-3"),
        pytest.param(corpus.random_pointset(3, 2, 2, 1), id="random-3-2-2"),
    ])
    def test_corpus_and_defective_sets(self, points):
        for e in self._evectors(points.dim):
            for u in range(points.precision - max(e) + 1):
                self._check(points, u, e)

    @settings(deadline=None, max_examples=30)
    @given(st.sampled_from([(2, 4, 2), (3, 3, 3), (2, 3, 3)]), st.data())
    def test_random_defects(self, params, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            b, m, s = params
            points = corpus.faure(b, m, s) if s <= b else corpus.random_pointset(b, m, s, 3)
            for _ in range(data.draw(st.integers(1, 3))):
                points = corpus.flip_digit(
                    points, data.draw(st.integers(0, points.count - 1)),
                    data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, m - 1)))
            e = data.draw(st.sampled_from(self._evectors(s)))
            self._check(points, data.draw(st.integers(0, m - max(e))), e)


def _as_tuple(v):
    return bool(v), None if v.witness is None else dict(v.witness)


# net sizes b**m per base, small enough for the dictionary oracle
_ROUTE_SIZES = {2: (4, 6), 3: (3, 4), 5: (2, 3), 7: (2, 3)}


@st.composite
def _arrays(draw):
    """An ordered array of a digital net over F_b (identity first matrix,
    points in a random order) at any u, e_i in {1, 2} and any beta, with 0-3
    entries altered."""
    b = draw(st.sampled_from(sorted(_ROUTE_SIZES)), label="b")
    m = draw(st.sampled_from(_ROUTE_SIZES[b]), label="m")
    s = draw(st.integers(1, 3), label="s")
    e = tuple(draw(st.integers(1, 2), label="e_i") for _ in range(s))
    u = draw(st.integers(0, m - max(e)), label="u")
    beta = tuple(draw(st.integers(1, (m - u) // ei), label="beta_i") for ei in e)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    mats = [np.eye(m, dtype=np.int64)] + [rng.integers(0, b, (m, m)) for _ in range(s - 1)]
    net = corpus.digital_net(b, mats)
    arr = net_to_mooa(PointSet(b, net.digits[rng.permutation(net.count)]), u, e, beta)
    rows = arr.rows.astype(np.int64)
    alphabets = [b ** ei for ei, bi in zip(e, beta) for _ in range(bi)]
    for _ in range(draw(st.integers(0, 3), label="altered")):
        r = draw(st.integers(0, arr.runs - 1))
        c = draw(st.integers(0, rows.shape[1] - 1))
        rows[r, c] = (rows[r, c] + draw(st.integers(1, alphabets[c] - 1))) % alphabets[c]
    return MixedOOA(b, m, u, EVector(e), beta, rows)


class TestDecidedOnItsPoints:
    """verify_mooa decides on the zero-filled points the array encodes, by
    the one decider verify_net uses, whichever route it takes."""

    @settings(deadline=None, max_examples=80)
    @given(st.data())
    def test_both_routes_agree_with_the_oracle(self, data):
        int64 = data.draw(st.booleans(), label="int64 storage")
        with storage(int64), pytest.MonkeyPatch.context() as mp:
            arr = data.draw(_arrays())
            assert arr.rows.dtype == (np.int64 if int64 else np.uint8)
            want = oracles.brute_mooa_witness(arr.rows, arr.base, arr.m, arr.u,
                                              tuple(arr.e), arr.beta)
            assert (want is None) == oracles.brute_verify_mooa(
                arr.rows, arr.base, arr.m, arr.u, tuple(arr.e), arr.beta, "all")
            real = netverify._row_space
            mp.setattr(netverify, "_row_space", lambda points: None)
            assert _as_tuple(verify_mooa(arr)) == (want is None, want)
            mp.setattr(netverify, "_row_space", real)
            mp.setattr(netverify, "_RANK_OVERHEAD", -1)
            mp.setattr(netverify, "_correction_pays", lambda points, size: True)
            assert _as_tuple(verify_mooa(arr)) == (want is None, want)
            if arr.beta == canonical_beta(arr.m, arr.u, arr.e):
                if want is None:
                    # the points it decided, which encode the array again
                    back = mooa_to_net(arr)
                    assert back.digits.dtype == arr.rows.dtype
                    assert net_to_mooa(back, arr.u, arr.e) == arr
                else:
                    with pytest.raises(VerificationError):
                        mooa_to_net(arr)

    @pytest.mark.parametrize("e", [(1,) * 5, (2, 1, 1, 1, 1)], ids=["e1", "e21111"])
    def test_canonical_faure_array_is_decided_by_ranks(self, monkeypatch, e):
        net = corpus.faure(5, 5, 5)
        arr = net_to_mooa(net, 0, e)
        free = sorted(set(range(net.count)) - set(netverify._sample_rows(net.count, 5)))
        bad = net_to_mooa(corpus.flip_digit(net, free[0], 3, 1), 0, e)
        monkeypatch.setattr(netverify, "_row_space", lambda points: None)
        counted = _as_tuple(verify_mooa(bad))
        monkeypatch.undo()
        calls = []
        monkeypatch.setattr(_util, "_first_nonuniform",
                            lambda *args: calls.append(args) or first_nonuniform(*args))
        assert verify_mooa(arr)
        back = mooa_to_net(arr)
        assert _as_tuple(verify_mooa(bad)) == counted and not counted[0]
        assert calls == []  # no tuple was counted
        if e == (1,) * 5:  # the rows are the digit tensor, decided in place
            assert back == net and np.shares_memory(back.digits, arr.rows)

    def test_slicing_an_array_loads_no_decider(self):
        # netverify imports ooa's profiles as it loads; ooa imports the
        # decider only when it decides, so to-mooa never loads netverify
        import os
        import subprocess
        import sys

        import evnets
        src = os.path.dirname(os.path.dirname(os.path.abspath(evnets.__file__)))
        script = """import sys
import numpy as np
from evnets import core, ooa
loaded = lambda: ' '.join(sorted(m for m in sys.modules if m.startswith('evnets.')))
grid = np.array([[[n >> 2 & 1, n >> 1 & 1, n & 1]] for n in range(8)])
arr = ooa.net_to_mooa(core.PointSet(2, grid), 0, (1,))
print(loaded())
print(bool(ooa.verify_mooa(arr)), loaded())
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        sliced, decided = proc.stdout.splitlines()
        assert "evnets.netverify" not in sliced.split()
        assert decided.split()[0] == "True" and "evnets.netverify" in decided.split()

    def test_the_witness_cell_is_read_per_column(self, monkeypatch):
        # profile (1, 2) is shape (1, 4); its cell 5 is box (0, 5) read per
        # coordinate, and tuple (0, 1, 1) read per column in radices (2, 4, 4)
        p = corpus.flip_digit(corpus.hammersley(2, 5), 10, 0, 0)
        arr = net_to_mooa(p, 0, (1, 2))
        want = {"profile": [1, 2], "tuple": [0, 1, 1], "observed": 0, "expected": 1}
        assert oracles.brute_mooa_witness(arr.rows, 2, 5, 0, (1, 2), arr.beta) == want
        assert _as_tuple(verify_mooa(arr)) == (False, want)
        assert verify_net(p, 0, (1, 2)).witness == {"shape": [1, 4], "box": [0, 5],
                                                    "observed": 0, "expected": 1}
        monkeypatch.setattr(netverify, "_RANK_OVERHEAD", -1)
        monkeypatch.setattr(netverify, "_correction_pays", lambda points, size: True)
        assert _as_tuple(verify_mooa(arr)) == (False, want)


class TestMooaToNet:
    def test_full_resolution_round_trip(self, ham23):
        # u=0, e=(1,1): beta=(3,3) covers every digit, reconstruction is exact
        arr = net_to_mooa(ham23, 0, (1, 1))
        assert mooa_to_net(arr) == ham23

    def test_partial_resolution_round_trip(self, ham23):
        # u=1, e=(1,2): beta=(2,1); kept digits match, the rest zero-fill
        arr = net_to_mooa(ham23, 1, (1, 2))
        back = mooa_to_net(arr)
        assert np.array_equal(back.digits[:, 0, :2], ham23.digits[:, 0, :2])
        assert np.array_equal(back.digits[:, 1, :2], ham23.digits[:, 1, :2])
        assert np.all(back.digits[:, 0, 2:] == 0)
        assert np.all(back.digits[:, 1, 2:] == 0)

    def test_round_trip_preserves_quality(self, ham23):
        arr = net_to_mooa(ham23, 1, (1, 2))
        back = mooa_to_net(arr)
        assert verify_net(back, 1, (1, 2))

    def test_requires_canonical_beta(self, ham23):
        arr = net_to_mooa(ham23, 0, (1, 2), beta=(2, 1))
        with pytest.raises(ParamError):
            mooa_to_net(arr)

    def test_check_failure_raises(self, ham23):
        bad = net_to_mooa(corpus.flip_digit(ham23, 0, 1, 0), 0, (1, 1))
        with pytest.raises(VerificationError) as err:
            mooa_to_net(bad)
        assert err.value.verdict == verify_mooa(bad)
        assert not err.value.verdict
        with pytest.raises(TypeError):  # no unchecked path
            mooa_to_net(bad, check=False)

    @pytest.mark.parametrize("points, e", [
        (corpus.hammersley(16, 2), (2, 2)),  # alphabet 256 in uint8, base 16
        (corpus.hammersley(2, 4), (2, 1)),
        (corpus.grid_1d(300, 1), (1,)),      # int64 rows and digits
    ], ids=["b16-e22", "b2-e21", "b300"])
    def test_blocks_split_back_into_digits(self, points, e):
        arr = net_to_mooa(points, 0, e)
        back = mooa_to_net(arr)
        assert back == points and back.digits.dtype == points.digits.dtype

    def test_base3_round_trip(self, ham32):
        arr = net_to_mooa(ham32, 0, (1, 1))
        assert mooa_to_net(arr) == ham32
