"""Character exponents and exact Gram certificates against scalar oracles."""

import cmath
import itertools

import numpy as np
import pytest

from evnets import (
    EVector, FunctionTuple, MixedOOA,
    build_block_family, char_exponents, diff, enumerate_profiles,
    gram_certificate, height, net_to_mooa, profile,
)
from evnets import corpus, dualcert
from evnets.dualcert import _vanishes
from evnets.errors import ParamError

import oracles


@pytest.fixture(scope="module")
def arr12(request):
    return net_to_mooa(corpus.hammersley(2, 3), 0, (1, 2))  # beta (3, 1)


@pytest.fixture(scope="module")
def arr11():
    return net_to_mooa(corpus.hammersley(2, 3), 0, (1, 1))  # beta (3, 3)


class TestFunctionTuple:
    def test_validation(self):
        d = FunctionTuple(2, EVector((1, 2)), ((1, 0, 1), (3,)))
        assert d.values == ((1, 0, 1), (3,))
        with pytest.raises(ParamError):
            FunctionTuple(2, EVector((1, 2)), ((1, 0, 2), (3,)))  # block-0 mod 2
        with pytest.raises(ParamError):
            FunctionTuple(2, EVector((1, 2)), ((1, 0, 1),))       # block count

    def test_profile_and_height(self):
        e = EVector((1, 2))
        assert profile(FunctionTuple(2, e, ((1, 0, 1), (0,)))) == (3, 0)
        assert profile(FunctionTuple(2, e, ((0, 1, 0), (2,)))) == (2, 1)
        assert profile(FunctionTuple(2, e, ((0, 0, 0), (0,)))) == (0, 0)
        # height weights block depth by e_i
        assert height(FunctionTuple(2, e, ((0, 1, 0), (2,)))) == 2 * 1 + 1 * 2
        assert height(FunctionTuple(2, e, ((0, 0, 0), (0,)))) == 0

    def test_diff_is_mod_alphabet(self):
        e = EVector((1, 2))
        a = FunctionTuple(2, e, ((1, 0, 0), (1,)))
        b = FunctionTuple(2, e, ((0, 1, 0), (3,)))
        d = diff(a, b)
        assert d.values == ((1, 1, 0), (2,))  # (1-3) mod 4 = 2
        assert diff(a, a).values == ((0, 0, 0), (0,))
        with pytest.raises(ParamError):
            diff(a, FunctionTuple(2, EVector((1, 1)), ((1,), (0,))))


class TestCharVector:
    """Character vectors, stored as exponents of one root of unity."""

    def test_zero_tuple_is_all_ones(self, arr12):
        # exponent 0 on every row: every character value is 1
        d = FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (0,)))
        got = char_exponents(arr12, d)
        assert got.dtype == np.int64 and not got.any()

    def test_matches_scalar_oracle(self, arr12):
        cases = [((1, 0, 0), (0,)), ((0, 1, 1), (2,)), ((1, 1, 1), (3,)),
                 ((0, 0, 0), (1,))]
        for values in cases:
            d = FunctionTuple(2, EVector((1, 2)), values)
            got = char_exponents(arr12, d)
            want, big = oracles.brute_char_exponents(
                arr12.rows, 2, (1, 2), (3, 1), values)
            assert big == 4 and got.tolist() == want, values
            roots = [cmath.exp(2j * cmath.pi * t / 4) for t in got.tolist()]
            assert np.allclose(roots, oracles.brute_char_vector(
                arr12.rows, 2, (1, 2), (3, 1), values)), values

    def test_base3_matches_oracle(self):
        arr = net_to_mooa(corpus.hammersley(3, 2), 0, (1, 1))
        d = FunctionTuple(3, EVector((1, 1)), ((1, 2), (2, 0)))
        want, big = oracles.brute_char_exponents(arr.rows, 3, (1, 1), (2, 2),
                                                 ((1, 2), (2, 0)))
        assert big == 3 and char_exponents(arr, d).tolist() == want

    def test_entries_have_unit_magnitude(self, arr11):
        # every entry is zeta_q**t for an integer t in [0, q)
        d = FunctionTuple(2, EVector((1, 1)), ((1, 0, 1), (1, 1, 0)))
        got = char_exponents(arr11, d)
        assert got.dtype == np.int64 and got.min() >= 0 and got.max() < 2
        assert set(got.tolist()) == {0, 1}

    def test_order_ignores_blocks_without_columns(self):
        # u = m leaves no columns: the exponents live mod 1, not mod 2**40
        arr = MixedOOA(2, 2, 2, (1, 40), (0, 0), np.zeros((4, 0), dtype=np.int64))
        d = FunctionTuple(2, EVector((1, 40)), ((), ()))
        assert char_exponents(arr, d).tolist() == [0, 0, 0, 0]
        assert not gram_certificate(arr, [d, d])
        assert gram_certificate(arr, [d])

    def test_frame_mismatch_rejected(self, arr12):
        with pytest.raises(ParamError):
            char_exponents(arr12, FunctionTuple(2, EVector((1, 1)), ((1,), (1,))))
        with pytest.raises(ParamError):
            char_exponents(arr12, FunctionTuple(3, EVector((1, 2)), ((1, 0, 0), (0,))))

    def test_character_sum_vanishes_on_strength_profiles(self, arr12):
        # a nonzero tuple whose height fits the budget sums to zero over rows
        for values in [((1, 0, 0), (0,)), ((1, 1, 1), (0,)), ((1, 0, 0), (2,)),
                       ((0, 0, 0), (3,))]:
            d = FunctionTuple(2, EVector((1, 2)), values)
            if 0 < height(d) <= arr12.m - arr12.u:
                counts = np.bincount(char_exponents(arr12, d), minlength=4)
                assert _vanishes(counts[None, :], 4)[0], values


def _vanishing_sum(rng, q):
    """Nonnegative counts whose sum of q-th roots is 0: a few full p-cycles
    zeta**t * (1 + zeta**(q/p) + ... ) for primes p dividing q, rotated."""
    counts = np.zeros(q, dtype=np.int64)
    primes = [p for p in range(2, q + 1) if q % p == 0
              and all(p % f for f in range(2, p))]
    for p in primes:
        for _ in range(int(rng.integers(1, 4))):
            t = int(rng.integers(0, q))
            counts[(t + np.arange(p) * (q // p)) % q] += 1
    return counts


class TestVanishes:
    @pytest.mark.parametrize("q", range(1, 65))
    def test_agrees_with_moebius_long_division(self, q):
        rng = np.random.default_rng(q)
        built = [_vanishing_sum(rng, q) for _ in range(6)] if q > 1 else []
        bumped = [c.copy() for c in built]
        for c in bumped:  # a vanishing sum plus or minus one root is not 0
            c[int(rng.integers(0, q))] += int(rng.choice([-1, 1]))
        other = [rng.integers(0, 4, size=q) for _ in range(6)]
        other += [np.full(q, 3), np.zeros(q, dtype=np.int64)]
        for cases, want in ((built, True), (bumped, False), (other, None)):
            if not cases:
                continue
            got = _vanishes(np.stack(cases), q).tolist()
            assert got == [oracles.oracle_vanishes(c.tolist(), q) for c in cases]
            if want is not None:
                assert got == [want] * len(cases)

    def test_full_cycle_of_every_order(self):
        # 1 + zeta + ... + zeta**(q-1) = 0 for q >= 2; a lone term never is
        for q in range(2, 65):
            assert _vanishes(np.ones((1, q), dtype=np.int64), q)[0]
            lone = np.zeros((1, q), dtype=np.int64)
            lone[0, q - 1] = 1
            assert not _vanishes(lone, q)[0]


class TestGramCertificate:
    def test_reference_block_family_passes(self, arr12):
        fam = build_block_family(arr12, (3, 0))
        assert len(fam) == 8
        assert gram_certificate(arr12, fam)

    def test_gram_matches_scalar_oracle(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        vectors = [oracles.brute_char_vector(arr12.rows, 2, (1, 2), (3, 1), d.values)
                   for d in fam]
        gram = oracles.brute_gram(vectors)
        for a in range(len(fam)):
            for c in range(len(fam)):
                want = 8.0 if a == c else 0.0
                assert abs(gram[a][c] - want) < 1e-9
        assert oracles.brute_first_gram_failure(
            arr12.rows, 2, (1, 2), (3, 1), [d.values for d in fam]) is None
        assert gram_certificate(arr12, fam)

    def test_every_maximal_profile_certifies(self, arr12, arr11):
        for arr in (arr12, arr11):
            for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
                fam = build_block_family(arr, kappa)
                assert len(fam) == arr.base ** sum(
                    k * ei for k, ei in zip(kappa, arr.e))
                assert gram_certificate(arr, fam), kappa

    def test_height_precondition_witness(self, arr12):
        # the full-depth tuple on block 0 plus a block-1 tuple: difference
        # height 3 + 2 exceeds the budget 3
        a = FunctionTuple(2, EVector((1, 2)), ((1, 1, 1), (0,)))
        b = FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (1,)))
        v = gram_certificate(arr12, [a, b])
        assert not v
        assert v.witness["kind"] == "height-precondition"
        assert v.witness["pair"] == [0, 1]
        assert v.witness["height"] == 5 and v.witness["budget"] == 3

    def test_gram_failure_on_defective_array(self):
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        fam = build_block_family(bad, (0, 3))
        v = gram_certificate(bad, fam)
        assert not v
        # rows 0..7 of the tuples (0,0,0) and (0,0,1): one flipped digit
        # leaves 3 rows at exponent 0 and 5 at exponent 1, and 3 - 5 != 0
        assert v.witness == {"kind": "gram", "pair": [0, 1], "order": 2,
                             "counts": [3, 5]}
        vectors = [oracles.brute_char_vector(bad.rows, 2, (1, 1), (3, 3), fam[k].values)
                   for k in (0, 1)]
        assert abs(oracles.brute_gram(vectors)[0][1] - (3 - 5)) < 1e-9

    def test_empty_family_passes(self, arr12):
        assert gram_certificate(arr12, [])

    def test_exponent_matrix_above_the_cap_is_refused(self, arr12, monkeypatch):
        # F = 8 tuples on N = 8 rows: the (F, N) int64 exponents plus the
        # difference buffer are counted as 2 * F * N * 8 bytes
        fam = build_block_family(arr12, (3, 0))
        monkeypatch.setattr(dualcert, "_BYTES_CAP", 2 * 8 * 8 * 8)
        assert gram_certificate(arr12, fam)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", 2 * 8 * 8 * 8 - 1)
        with pytest.raises(ParamError, match="a family of 8 tuples on 8 rows needs 1024 "
                                             "bytes of exponents and differences, above "
                                             "the cap of 1023"):
            gram_certificate(arr12, fam)
        # refused before the height precondition could fail the family
        tall = [FunctionTuple(2, EVector((1, 2)), ((1, 1, 1), (0,))),
                FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (1,)))]
        monkeypatch.setattr(dualcert, "_BYTES_CAP", 2 * 2 * 8 * 8 - 1)
        with pytest.raises(ParamError, match="above the cap"):
            gram_certificate(arr12, tall)

    def test_peak_memory_is_about_two_exponent_matrices(self):
        # the (F, N) exponents and one (F, N) buffer that every pair row is
        # subtracted into: what the cap counts
        import tracemalloc
        arr = net_to_mooa(corpus.hammersley(2, 10), 0, (1, 1))
        fam = build_block_family(arr, (5, 5))  # F = N = 1024, an 8 MB matrix
        tracemalloc.start()
        try:
            assert gram_certificate(arr, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * len(fam) * arr.runs * 8

    def test_family_members_must_match_frame(self, arr12):
        with pytest.raises(ParamError):
            gram_certificate(arr12, [FunctionTuple(2, EVector((1, 1)),
                                                   ((1,), (1,)))])

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_unusable_tolerance_is_rejected(self, tol):
        # the certificate is exact and takes no tolerance at all
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        with pytest.raises(TypeError):
            gram_certificate(bad, build_block_family(bad, (0, 3)), tol=tol)


def _cross_check_arrays():
    """(label, array) pairs: clean, digit-flipped and random arrays for every
    base and e-vector of the cross-check set, at the smallest useful m."""
    for b in (2, 3, 4, 5, 6, 10, 12):
        for e in ((1, 1), (1, 2), (2, 1)):
            m = max(e) + (1 if b <= 3 else 0)
            ham = corpus.hammersley(b, m)
            yield f"clean b={b} e={e}", net_to_mooa(ham, 0, e)
            for n, i, l in ((0, 0, 0), (b ** m // 2, 1, m - 1)):
                yield (f"flip b={b} e={e} at {(n, i, l)}",
                       net_to_mooa(corpus.flip_digit(ham, n, i, l), 0, e))
            yield (f"random b={b} e={e}",
                   net_to_mooa(corpus.random_pointset(b, m, 2, 97 * b + m), 0, e))


CROSS_CHECK = list(_cross_check_arrays())


class TestExactCertificateCrossCheck:
    """Verdicts and first failing pairs against the Moebius/long-division
    oracle over bases 2, 3, 4, 5, 6, 10 and 12 with e in (1,1), (1,2), (2,1)."""

    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_matches_oracle(self, label, arr):
        rng = np.random.default_rng(len(label))
        for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
            fam = build_block_family(arr, kappa)
            if len(fam) > 16:  # a random ordered subfamily keeps the oracle fast
                fam = [fam[k] for k in rng.choice(len(fam), size=16, replace=False)]
            for order in (fam, fam[::-1]):
                v = gram_certificate(arr, order)
                want = oracles.brute_first_gram_failure(
                    arr.rows, arr.base, arr.e, arr.beta, [d.values for d in order])
                assert bool(v) == (want is None), (label, kappa)
                if want is not None:
                    assert v.witness["kind"] == "gram"
                    assert tuple(v.witness["pair"]) == want, (label, kappa)
                    counts = v.witness["counts"]
                    assert len(counts) == v.witness["order"] == arr.base ** max(arr.e)
                    assert not oracles.oracle_vanishes(counts, v.witness["order"])

    @pytest.mark.parametrize("label,arr", CROSS_CHECK[::4], ids=[c[0] for c in CROSS_CHECK[::4]])
    def test_height_witness_matches_scalar_route(self, label, arr):
        maximal = enumerate_profiles(arr.m, arr.u, arr.e, arr.beta)
        budget = arr.m - arr.u
        for a, b in zip(maximal, maximal[1:]):
            fam = build_block_family(arr, a)[:6] + build_block_family(arr, b)[:6]
            for order in (fam, fam[::-1]):
                want = next((j, k) for j, k in itertools.combinations(range(len(order)), 2)
                            if height(diff(order[j], order[k])) > budget)
                v = gram_certificate(arr, order)
                assert v.witness == {
                    "kind": "height-precondition", "pair": list(want),
                    "height": height(diff(order[want[0]], order[want[1]])),
                    "budget": budget}, (label, a, b)


class TestBuildBlockFamily:
    def test_enumeration_order_and_padding(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        assert len(fam) == 8  # 2 * 4 residue choices
        assert fam[0].values == ((0, 0, 0), (0,))
        assert fam[1].values == ((0, 0, 0), (1,))   # last column fastest
        assert fam[4].values == ((1, 0, 0), (0,))
        # unused columns stay zero
        assert all(d.values[0][1:] == (0, 0) for d in fam)

    def test_profile_validation(self, arr12):
        with pytest.raises(ParamError):
            build_block_family(arr12, (4, 0))   # kappa_0 > beta_0
        with pytest.raises(ParamError):
            build_block_family(arr12, (3, 1))   # depth 5 > budget 3
        with pytest.raises(ParamError):
            build_block_family(arr12, (1,))     # wrong block count

    def test_oversized_family_is_refused_before_it_is_built(self, arr12, monkeypatch):
        # the cap gram_certificate applies, checked from b**depth members
        monkeypatch.setattr(dualcert, "_BYTES_CAP", 2 * 8 * 8 * 8)
        assert len(build_block_family(arr12, (1, 1))) == 8

        def no_tuples(*args):
            raise AssertionError("family member built")

        monkeypatch.setattr(dualcert, "FunctionTuple", no_tuples)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", 2 * 8 * 8 * 8 - 1)
        with pytest.raises(ParamError, match="a family of 8 tuples on 8 rows needs 1024 "
                                             "bytes of exponents and differences"):
            build_block_family(arr12, (1, 1))
        with pytest.raises(ParamError, match="profile depth 5 exceeds the budget 3"):
            build_block_family(arr12, (3, 1))

    def test_zero_profile_gives_singleton(self, arr12):
        fam = build_block_family(arr12, (0, 0))
        assert fam == [FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (0,)))]
