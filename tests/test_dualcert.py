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

    def test_route_above_the_cap_is_refused(self, arr12, monkeypatch):
        # F = 8 tuples touching 3 of the 4 columns, N = 8 rows, 7 distinct
        # differences: residues, their touched columns and one row's
        # differences 8*8*(4 + 2*3), member ranks 8*64, the touched rows and
        # one block of 7 exponent rows with its tally 8*8*(3 + 2*7), and per
        # difference its residues twice, its pair and its set entry 16*3 + 128
        need = 8 * 8 * (4 + 2 * 3) + 8 * 64 + 8 * 8 * (3 + 2 * 7) + 7 * (16 * 3 + 128)
        assert dualcert._route_bytes(8, 4, 3, 8, 7) == need == 3472
        fam = build_block_family(arr12, (3, 0))
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert gram_certificate(arr12, fam)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match="a family of 8 tuples on 8 rows needs 3472 "
                                             "bytes of residues, exponent rows and "
                                             "differences, above the cap of 3471"):
            gram_certificate(arr12, fam)
        # two tuples touching all 4 columns have one difference; refused
        # before the height precondition could fail the family
        tall = [FunctionTuple(2, EVector((1, 2)), ((1, 1, 1), (0,))),
                FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (1,)))]
        need = dualcert._route_bytes(2, 4, 4, 8, 1)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert gram_certificate(arr12, tall).witness["kind"] == "height-precondition"
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match="above the cap"):
            gram_certificate(arr12, tall)

    def test_differences_counted_are_bounded_by_pairs_and_group(self, arr12, monkeypatch):
        # a family of 3 tuples has at most 3 differences however many columns
        # it touches; a block family of 8 has exactly its 7 nonzero members
        calls = []
        monkeypatch.setattr(dualcert, "_route_bytes",
                            lambda *args: calls.append(args) or 0)
        e = EVector((1, 2))
        gram_certificate(arr12, [FunctionTuple(2, e, ((1, 0, 0), (0,))),
                                 FunctionTuple(2, e, ((0, 1, 0), (0,))),
                                 FunctionTuple(2, e, ((0, 0, 0), (3,)))])
        gram_certificate(arr12, build_block_family(arr12, (1, 1)))
        assert calls == [(3, 4, 3, 8, 3), (8, 4, 2, 8, 7), (8, 4, 2, 8, 7)]

    def test_peak_memory_is_within_what_the_cap_counts(self):
        # no (F, N) array is formed: the peak stays within the route's count,
        # a third of one (F, N) int64 exponent matrix here
        import tracemalloc
        arr = net_to_mooa(corpus.hammersley(2, 10), 0, (1, 1))
        fam = build_block_family(arr, (5, 5))  # F = N = 1024, an 8 MB matrix
        counted = dualcert._route_bytes(len(fam), 20, 10, arr.runs, len(fam) - 1)
        assert counted <= len(fam) * arr.runs * 8 / 2.9
        tracemalloc.start()
        try:
            assert gram_certificate(arr, fam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= counted

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


def _oracle_verdict(arr, family):
    """The witness :func:`gram_certificate` must give, from the scalar
    oracles: None for a pass, else the first failing pair with its tally of
    exponent differences mod q (the oracle's exponents live mod the largest
    b**e_i, a multiple of q)."""
    values = [d.values for d in family]
    want = oracles.brute_first_gram_failure(arr.rows, arr.base, arr.e, arr.beta, values)
    if want is None:
        return None
    j, k = want
    (ej, big), (ek, _) = (oracles.brute_char_exponents(arr.rows, arr.base, arr.e, arr.beta,
                                                       values[i]) for i in want)
    q = arr.base ** max((ei for ei, bi in zip(arr.e, arr.beta) if bi), default=0)
    counts = [0] * q
    for a, c in zip(ej, ek):
        counts[(c - a) % big // (big // q)] += 1
    return {"kind": "gram", "pair": [j, k], "order": q, "counts": counts}


def _assert_matches_oracle(arr, family, label):
    v = gram_certificate(arr, family)
    want = _oracle_verdict(arr, family)
    assert bool(v) == (want is None), label
    assert v.witness == want, label


class TestDistinctDifferenceRoute:
    """The route keys pairs by difference and stops once the touched group is
    seen; these families exercise each way that could go wrong."""

    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_shuffled_block_families(self, label, arr):
        # a group in any order: row 0 is not the zero tuple, yet it still
        # sees every nonzero difference
        rng = np.random.default_rng(len(label) + 1)
        for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
            fam = build_block_family(arr, kappa)
            if len(fam) > 64:  # keeps the pairwise oracle fast
                continue
            _assert_matches_oracle(arr, [fam[k] for k in rng.permutation(len(fam))],
                                   (label, kappa))

    @pytest.mark.parametrize("label,arr", CROSS_CHECK[::3], ids=[c[0] for c in CROSS_CHECK[::3]])
    def test_families_with_repeated_members(self, label, arr):
        rng = np.random.default_rng(len(label) + 2)
        for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
            fam = build_block_family(arr, kappa)
            picked = [fam[k] for k in rng.choice(len(fam), size=10, replace=True)]
            _assert_matches_oracle(arr, picked, (label, kappa))
            # the whole group, then a repeat: the walk has stopped by then
            _assert_matches_oracle(arr, fam + [fam[len(fam) // 2]], (label, kappa, "tail"))

    def test_duplicate_is_the_zero_difference(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        for family, pair in (([fam[3], fam[3]], [0, 1]), (fam + [fam[5]], [5, 8])):
            v = gram_certificate(arr12, family)
            assert v.witness == {"kind": "gram", "pair": pair, "order": 4,
                                 "counts": [8, 0, 0, 0]}
            assert v.witness == _oracle_verdict(arr12, family)

    def test_failing_difference_first_seen_after_row_zero(self):
        # both members pass against the zero tuple, but not against each
        # other: their difference is new in row 1
        arr = dict(CROSS_CHECK)["random b=2 e=(1, 1)"]
        e = EVector((1, 1))
        zero = FunctionTuple(2, e, ((0, 0), (0, 0)))
        a = FunctionTuple(2, e, ((0, 0), (1, 0)))
        b = FunctionTuple(2, e, ((1, 0), (0, 0)))
        assert gram_certificate(arr, [zero, a]) and gram_certificate(arr, [zero, b])
        v = gram_certificate(arr, [zero, a, b])
        assert v.witness["pair"] == [1, 2]
        assert v.witness == _oracle_verdict(arr, [zero, a, b])

    def test_tall_pair_after_a_gram_failure_still_wins(self):
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        fam = build_block_family(bad, (0, 3))
        assert not gram_certificate(bad, fam[:2])  # pair (0, 1) fails
        tall = FunctionTuple(2, EVector((1, 1)), ((1, 1, 1), (1, 0, 0)))
        for family in (fam[:2] + [tall], fam[:1] * 2 + [tall]):
            v = gram_certificate(bad, family)
            assert v.witness == {"kind": "height-precondition", "pair": [0, 2],
                                 "height": 4, "budget": 3}
        # row 0 meets the zero difference and both short elements of the
        # group spanned, but the tall one, (1, 1), only in row 2
        e = EVector((1, 1))
        zero = FunctionTuple(2, e, ((0, 0, 0), (0, 0, 0)))
        a = FunctionTuple(2, e, ((0, 0, 1), (0, 0, 0)))
        b = FunctionTuple(2, e, ((0, 0, 0), (1, 0, 0)))
        assert gram_certificate(bad, [zero, zero, a, b]).witness == {
            "kind": "height-precondition", "pair": [2, 3], "height": 4, "budget": 3}

    def test_group_family_takes_one_sum_per_nonzero_member(self, monkeypatch):
        # F - 1 character sums however the group is ordered
        arr = net_to_mooa(corpus.hammersley(2, 8), 0, (1, 1))
        fam = build_block_family(arr, (4, 4))
        rng = np.random.default_rng(5)
        sums = []
        vanishes = dualcert._vanishes
        monkeypatch.setattr(dualcert, "_vanishes",
                            lambda counts, q: sums.append(len(counts)) or vanishes(counts, q))
        walked = []
        rank = dualcert.rank_rows
        monkeypatch.setattr(dualcert, "rank_rows",
                            lambda *args: walked.append(len(args[0])) or rank(*args))
        for family in (fam, [fam[k] for k in rng.permutation(len(fam))]):
            sums.clear()
            walked.clear()
            assert gram_certificate(arr, family)
            assert sum(sums) == len(fam) - 1
            # row 0's differences, then the members for the duplicate check
            assert walked == [len(fam) - 1, len(fam)]

    def test_keys_past_int64_match_oracle(self):
        # 40 blocks of one base-4 column span a group of 4**40 = 2**80
        # elements, so differences are ranked as Python ints; in int64 the
        # first block's residues would rank as multiples of 2**64, as 0
        rng = np.random.default_rng(9)
        s = 40
        e = EVector((2,) * s)
        arr = MixedOOA(2, 4, 0, e, (1,) * s, rng.integers(0, 4, size=(16, s)))
        family = [FunctionTuple(2, e, ((0,),) * s)]
        for i in range(s):
            values = [(0,)] * s
            values[i] = (int(rng.integers(1, 4)),)
            family.append(FunctionTuple(2, e, tuple(values)))
        for order in (family, family[::-1], family + [family[7]], family[1:2] + family[:1]):
            _assert_matches_oracle(arr, order, "object keys")
        assert dualcert.rank_rows(np.array([[3] * s]), [4] * s)[0] == 4 ** s - 1


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
        # the cap gram_certificate applies, counted from b**depth members on
        # sum(kappa) touched columns with b**depth - 1 differences
        need = dualcert._route_bytes(8, 4, 2, 8, 7)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert len(build_block_family(arr12, (1, 1))) == 8

        def no_tuples(*args):
            raise AssertionError("family member built")

        monkeypatch.setattr(dualcert, "FunctionTuple", no_tuples)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match=f"a family of 8 tuples on 8 rows needs {need} "
                                             "bytes of residues, exponent rows and "
                                             "differences"):
            build_block_family(arr12, (1, 1))
        with pytest.raises(ParamError, match="profile depth 5 exceeds the budget 3"):
            build_block_family(arr12, (3, 1))

    def test_zero_profile_gives_singleton(self, arr12):
        fam = build_block_family(arr12, (0, 0))
        assert fam == [FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (0,)))]
