"""Character exponents and exact Gram certificates against scalar oracles."""

import cmath
import itertools
import re

import numpy as np
import pytest

from evnets import (
    EVector, MixedOOA,
    build_block_family, char_exponents, enumerate_profiles, gram_certificate, net_to_mooa,
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


class TestResidueRows:
    """A family is a matrix of residue rows, checked once: sum(beta) columns
    in stored column order, an integer dtype, entry (i, rho) in [0, b**e_i)."""

    def test_out_of_range_residue_names_its_column(self, arr12):
        # arr12 has widths 2, 2, 2, 4
        for row, message in (([1, 0, 2, 3], "residue 2 outside [0, 2) in column 2"),
                             ([0, 0, 0, 4], "residue 4 outside [0, 4) in column 3"),
                             ([-1, 0, 0, 0], "residue -1 outside [0, 2) in column 0")):
            for family in ([[0, 0, 0, 0], row], np.array([row] * 3)):
                with pytest.raises(ParamError, match=rf"^{re.escape(message)}$"):
                    gram_certificate(arr12, family)
            with pytest.raises(ParamError, match=rf"^{re.escape(message)}$"):
                char_exponents(arr12, row)
        # a uint64 residue past int64 is named as given, not as its int64 wrap
        with pytest.raises(ParamError, match="residue 18446744073709551615 outside "
                                             r"\[0, 2\) in column 1"):
            gram_certificate(arr12, np.array([[0, 2 ** 64 - 1, 0, 0]], dtype=np.uint64))

    def test_row_width_and_shape_are_not_reshaped(self, arr12):
        for family in ([[1, 0, 1]], [[1, 0, 1, 3, 0]], np.zeros((2, 5), dtype=np.int64),
                       np.zeros((0, 3), dtype=np.int64), np.zeros(4, dtype=np.int64),
                       np.zeros((2, 2, 2), dtype=np.int64), 7):
            with pytest.raises(ParamError, match="matrix of 4 columns"):
                gram_certificate(arr12, family)
        with pytest.raises(ParamError, match="unequal lengths"):
            gram_certificate(arr12, [[1, 0, 1, 3], [1, 0]])
        for row in ([1, 1], [1, 0, 1, 3, 0], [[1, 0, 1, 3]]):
            with pytest.raises(ParamError, match="matrix of 4 columns"):
                char_exponents(arr12, row)

    def test_dtype_must_be_integer(self, arr12):
        for family in (np.zeros((2, 4)), np.zeros((2, 4), dtype=bool), [[0, 0, 0, 2 ** 70]],
                       [["0", "0", "0", "0"]]):
            with pytest.raises(ParamError, match="residues must be integers"):
                gram_certificate(arr12, family)
        with pytest.raises(ParamError, match="residues must be integers"):
            char_exponents(arr12, [0.0, 0.0, 0.0, 1.0])

    def test_every_integer_dtype_gives_one_verdict(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        assert fam.dtype == np.int64 and fam.shape == (8, 4)
        want = gram_certificate(arr12, fam)
        for dtype in (np.uint8, np.int16, np.uint64):
            assert gram_certificate(arr12, fam.astype(dtype)) == want
        assert gram_certificate(arr12, fam.tolist()) == want
        assert char_exponents(arr12, fam[5].astype(np.uint8)).tolist() == \
            char_exponents(arr12, fam[5].tolist()).tolist()

    def test_height_counts_each_blocks_last_nonzero_column(self, arr12):
        # budget 3; block 0 weighs its depth by e_0 = 1, block 1 by e_1 = 2,
        # and a difference is taken mod each block alphabet
        zero = [0, 0, 0, 0]
        for row, height in (([1, 0, 1, 0], 3), ([0, 1, 0, 2], 4), ([0, 0, 1, 1], 5),
                            ([1, 0, 0, 1], 3), ([0, 0, 0, 3], 2), (zero, 0)):
            assert oracles.brute_difference_height(row, zero, 2, (1, 2), (3, 1)) == height
            v = gram_certificate(arr12, [zero, row])
            if height <= 3:
                assert v.witness is None or v.witness["kind"] == "gram", row
            else:
                assert v.witness == {"kind": "height-precondition", "pair": [0, 1],
                                     "height": height, "budget": 3}, row
        # (0,1,0,3) - (1,0,0,1) is (1,1,0,2) mod (2,2,2,4): height 2 + 2
        v = gram_certificate(arr12, [[1, 0, 0, 1], [0, 1, 0, 3]])
        assert v.witness["height"] == 4 == oracles.brute_difference_height(
            [0, 1, 0, 3], [1, 0, 0, 1], 2, (1, 2), (3, 1))


class TestCharVector:
    """Character vectors, stored as exponents of one root of unity."""

    def test_zero_tuple_is_all_ones(self, arr12):
        # exponent 0 on every row: every character value is 1
        got = char_exponents(arr12, [0, 0, 0, 0])
        assert got.dtype == np.int64 and not got.any()

    def test_matches_scalar_oracle(self, arr12):
        cases = [[1, 0, 0, 0], [0, 1, 1, 2], [1, 1, 1, 3], [0, 0, 0, 1]]
        for values in cases:
            got = char_exponents(arr12, np.array(values))
            want, big = oracles.brute_char_exponents(
                arr12.rows, 2, (1, 2), (3, 1), values)
            assert big == 4 and got.tolist() == want, values
            roots = [cmath.exp(2j * cmath.pi * t / 4) for t in got.tolist()]
            assert np.allclose(roots, oracles.brute_char_vector(
                arr12.rows, 2, (1, 2), (3, 1), values)), values

    def test_base3_matches_oracle(self):
        arr = net_to_mooa(corpus.hammersley(3, 2), 0, (1, 1))
        want, big = oracles.brute_char_exponents(arr.rows, 3, (1, 1), (2, 2), [1, 2, 2, 0])
        assert big == 3 and char_exponents(arr, [1, 2, 2, 0]).tolist() == want

    def test_entries_have_unit_magnitude(self, arr11):
        # every entry is zeta_q**t for an integer t in [0, q)
        got = char_exponents(arr11, [1, 0, 1, 1, 1, 0])
        assert got.dtype == np.int64 and got.min() >= 0 and got.max() < 2
        assert set(got.tolist()) == {0, 1}

    def test_order_ignores_blocks_without_columns(self):
        # u = m leaves no columns: the exponents live mod 1, not mod 2**40
        arr = MixedOOA(2, 2, 2, (1, 40), (0, 0), np.zeros((4, 0), dtype=np.int64))
        d = np.zeros(0, dtype=np.int64)
        assert char_exponents(arr, d).tolist() == [0, 0, 0, 0]
        assert not gram_certificate(arr, [d, d])
        assert gram_certificate(arr, [d])
        assert not gram_certificate(arr, [[], []])

    def test_frame_mismatch_rejected(self, arr12):
        with pytest.raises(ParamError):
            char_exponents(arr12, [1, 1])            # the columns of e = (1, 1), beta (1, 1)
        with pytest.raises(ParamError):
            char_exponents(arr12, [2, 0, 0, 0])      # a residue mod 3, not mod 2

    def test_character_sum_vanishes_on_strength_profiles(self, arr12):
        # a nonzero tuple whose height fits the budget sums to zero over rows
        for d in ([1, 0, 0, 0], [1, 1, 1, 0], [1, 0, 0, 2], [0, 0, 0, 3]):
            if 0 < oracles.brute_difference_height(d, [0] * 4, 2, (1, 2), (3, 1)) <= 3:
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


def _no_transform(*args):
    raise AssertionError("group transform run")


class TestGramCertificate:
    def test_reference_block_family_passes(self, arr12):
        fam = build_block_family(arr12, (3, 0))
        assert len(fam) == 8
        assert gram_certificate(arr12, fam)

    def test_gram_matches_scalar_oracle(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        vectors = [oracles.brute_char_vector(arr12.rows, 2, (1, 2), (3, 1), d) for d in fam]
        gram = oracles.brute_gram(vectors)
        for a in range(len(fam)):
            for c in range(len(fam)):
                want = 8.0 if a == c else 0.0
                assert abs(gram[a][c] - want) < 1e-9
        assert oracles.brute_first_gram_failure(
            arr12.rows, 2, (1, 2), (3, 1), fam) is None
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
        v = gram_certificate(arr12, [[1, 1, 1, 0], [0, 0, 0, 1]])
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
        vectors = [oracles.brute_char_vector(bad.rows, 2, (1, 1), (3, 3), fam[k])
                   for k in (0, 1)]
        assert abs(oracles.brute_gram(vectors)[0][1] - (3 - 5)) < 1e-9

    def test_empty_family_passes(self, arr12):
        assert gram_certificate(arr12, [])
        assert gram_certificate(arr12, np.zeros((0, 4), dtype=np.int64))

    def test_route_above_the_cap_is_refused(self, arr12, monkeypatch):
        # F = 8 tuples touching 3 of the 4 columns, N = 8 rows, 7 distinct
        # differences; their group of 8 at q = 4 costs more than 7 exponent
        # rows, so the per-difference tally runs: residues, their touched
        # columns and one row's differences 8*8*(4 + 2*3), member ranks 8*64,
        # per difference its pair and set entry 7*128 and its residues twice
        # 16*7*3, the touched rows and one block of 7 exponent rows with its
        # tally and the vanishing test's copy 8*8*(3 + 3*7)
        need = 8 * 8 * (4 + 2 * 3) + 8 * 64 + 7 * 128 + 16 * 7 * 3 + 8 * 8 * (3 + 3 * 7)
        # below that the transform runs if it fits: the walk's bytes, the
        # rows' touched columns and ranks 8*8*(3 + 1), and five arrays of
        # |G| * q = 32 tallies 40*32
        other = 8 * 8 * (4 + 2 * 3) + 8 * 64 + 7 * 128 + 8 * 8 * (3 + 1) + 40 * 32
        # work: |G| * q * sum(w_j) = 8*4*6 additions against 7 exponent rows of
        # 8 entries on 3 columns
        assert dualcert._routes(arr12, 8, [2, 2, 2], 7) == {
            "transform": (8 * 4 * 6, other), "per-difference": (7 * 8 * 3, need)}
        assert (need, other) == (3920, 3584)
        fam = build_block_family(arr12, (3, 0))
        transforms = []
        group_tallies = dualcert._group_tallies
        monkeypatch.setattr(dualcert, "_group_tallies",
                            lambda *args: transforms.append(1) or group_tallies(*args))
        for cap, runs in ((need, 0), (need - 1, 1), (other, 1)):
            monkeypatch.setattr(dualcert, "_BYTES_CAP", cap)
            transforms.clear()
            assert gram_certificate(arr12, fam)
            assert len(transforms) == runs, cap
        # a family neither route fits is refused with the smaller count
        monkeypatch.setattr(dualcert, "_BYTES_CAP", other - 1)
        with pytest.raises(ParamError, match="a family of 8 tuples on 8 rows needs 3584 "
                                             "bytes of residues, differences and "
                                             "tallies, above the cap of 3583"):
            gram_certificate(arr12, fam)
        # two tuples touching all 4 columns have one difference; refused
        # before the height precondition could fail the family
        tall = [[1, 1, 1, 0], [0, 0, 0, 1]]
        need = dualcert._routes(arr12, 2, [2, 2, 2, 4], 1)["per-difference"][1]
        assert need == 960
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert gram_certificate(arr12, tall).witness["kind"] == "height-precondition"
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match="above the cap"):
            gram_certificate(arr12, tall)

    def test_transform_route_above_the_cap_is_refused(self, arr11, monkeypatch):
        # the same family at q = 2 takes the group transform: the walk's
        # 8*8*(6 + 2*3) + 8*64 + 7*128, the rows' touched columns and ranks
        # 8*8*(3 + 1), and five arrays of |G| * q = 16 tallies 40*16
        need = 8 * 8 * (6 + 2 * 3) + 8 * 64 + 7 * 128 + 8 * 8 * (3 + 1) + 40 * 16
        routes = dualcert._routes(arr11, 8, [2, 2, 2], 7)
        assert routes["transform"] == (8 * 2 * 6, need) and need == 3072
        assert routes["transform"][0] < routes["per-difference"][0] == 7 * 8 * 3
        fam = build_block_family(arr11, (3, 0))
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert gram_certificate(arr11, fam)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match="a family of 8 tuples on 8 rows needs 3072 "):
            gram_certificate(arr11, fam)

    def test_a_tie_in_work_takes_the_transform(self, arr11, monkeypatch):
        # two tuples apart on one column of alphabet 2 at q = 2: |G| * q * w =
        # 2*2*2 additions, and one exponent row of 8 entries on 1 column
        routes = dualcert._routes(arr11, 2, [2], 1)
        assert routes["transform"][0] == routes["per-difference"][0] == 8
        transforms, group_tallies = [], dualcert._group_tallies
        monkeypatch.setattr(dualcert, "_group_tallies",
                            lambda *args: transforms.append(1) or group_tallies(*args))
        assert gram_certificate(arr11, [[0] * 6, [1] + [0] * 5])
        assert transforms == [1]

    def test_a_family_on_a_base_row_takes_the_transform_over_its_differences(
            self, monkeypatch):
        # 100 tuples share a base on 24 of hammersley(2,14)'s 28 columns and
        # differ from member 0 on block 0's first 7 only: their differences
        # span a group of 2**7, which one transform tallies. Each certificate
        # reads the table with the bound and with the count kept, both 127
        ham = corpus.hammersley(2, 14)
        base = np.zeros(28, dtype=np.int64)
        base[list(range(12)) + list(range(14, 26))] = 1
        fam = np.tile(base, (100, 1))
        fam[:, :7] ^= (np.arange(100)[:, None] >> np.arange(6, -1, -1)) & 1
        calls, routes = [], dualcert._routes
        monkeypatch.setattr(dualcert, "_routes",
                            lambda *args: calls.append(args[1:]) or routes(*args))
        transforms, group_tallies = [], dualcert._group_tallies
        monkeypatch.setattr(dualcert, "_group_tallies",
                            lambda *args: transforms.append(1) or group_tallies(*args))
        assert gram_certificate(net_to_mooa(ham, 0, (1, 1)), fam)
        bad = net_to_mooa(corpus.flip_digit(ham, 0, 0, 0), 0, (1, 1))
        assert gram_certificate(bad, fam).witness == {
            "kind": "gram", "pair": [0, 64], "order": 2, "counts": [8191, 8193]}
        assert calls == [(100, [2] * 7, 127)] * 4 and transforms == [1, 1]

    def test_few_differences_over_a_large_group_take_the_per_difference_tally(
            self, monkeypatch):
        # 3 tuples apart on 14 of hammersley(2,14)'s columns: 3 exponent rows
        # of 16384 entries cost less than a transform over |G| = 2**14
        arr = net_to_mooa(corpus.hammersley(2, 14), 0, (1, 1))
        fam = np.array([[0] * 7 + [1] * 7 + [0] * 7 + [1] * 7,
                        [1] + [0] * 6 + [1] * 7 + [0] * 6 + [1] * 8,
                        [1] * 28])
        routes = dualcert._routes(arr, 3, [2] * 14, 3)
        assert routes["per-difference"][0] == 3 * 2 ** 14 * 14 < routes["transform"][0]
        monkeypatch.setattr(dualcert, "_group_tallies", _no_transform)
        assert gram_certificate(arr, fam)

    @pytest.mark.parametrize("h", [
        [a << 4 for a in range(1, 8)] + list(range(1, 16)) + [0x11, 0x22],
        [a << 4 for a in range(1, 8)] + list(range(1, 16))], ids=["s=24", "s=22"])
    def test_codewords_take_the_route_of_the_differences_the_walk_keeps(
            self, h, monkeypatch):
        # one binary column per coordinate of an s-dimensional digital net,
        # column c reading digit c mod 14 of n. The 128 tuples are a base row
        # plus the codewords of an [s, 7] code: bit c of codeword x is the
        # parity of x & h_c, with 7 columns on x's top 3 bits, 15 on its low
        # 4 and, at s = 24, 2 on both, so every difference has height
        # (weight) at most 4 + 8 + 2 = m - u. The differences span all s
        # columns: at the bound of 8128 of them the transform over |G| = 2**s
        # does less work, but the walk keeps the 127 nonzero codewords, and
        # their exponent rows take the per-difference tally
        s = len(h)
        net = corpus.digital_net(2, [np.roll(np.eye(14, dtype=np.int64), c, axis=1)
                                     for c in range(s)])
        arr = net_to_mooa(net, 0, (1,) * s, (1,) * s)
        code = np.array([[bin(x & hc).count("1") % 2 for hc in h] for x in range(128)])
        assert code.sum(axis=1).max() <= 14 and code.any(axis=0).all()
        fam = code ^ np.arange(s) % 2
        bound = dualcert._routes(arr, 128, [2] * s, 8128)
        assert bound["transform"][0] == 2 ** (s + 1) * 2 * s < bound["per-difference"][0]
        kept = dualcert._routes(arr, 128, [2] * s, 127)
        assert kept["per-difference"][0] == 127 * 2 ** 14 * s < kept["transform"][0]
        # a flipped first digit of coordinate 7 (h_7 = 1) fails the first
        # member whose bit 0 is set; no pair before (0, 1) involves a later one
        bad = net_to_mooa(corpus.flip_digit(net, 0, 7, 0), 0, (1,) * s, (1,) * s)
        with monkeypatch.context() as patch:
            patch.setattr(dualcert, "_group_tallies", _no_transform)
            assert gram_certificate(arr, fam)
            v = gram_certificate(bad, fam)
        assert v.witness == {"kind": "gram", "pair": [0, 1], "order": 2,
                             "counts": [8191, 8193]}
        assert oracles.brute_first_gram_failure(bad.rows, 2, bad.e, bad.beta, fam[:2]) == (0, 1)
        if s == 22:  # the transform fits the cap, and forced it gives the same witness
            _force_route(monkeypatch, "transform")
            assert gram_certificate(bad, fam) == v

    def test_a_transform_past_the_cap_falls_back_to_the_per_difference_tally(
            self, monkeypatch):
        # one binary column per coordinate of a 16-dimensional digital net,
        # column c reading digit c mod 10 of n. The 32 tuples are words of
        # weight at most 5, so every difference has height (weight) at most
        # m - u = 10: taken in the order of x * 0x9E3779B1 mod 2**16, each is
        # kept if the digits it reads, summed mod 2, are new. Then every
        # difference reads a nonzero sum and its character sum vanishes. Not
        # closed under subtraction, the family has 478 distinct differences
        # over all 16 columns, whose exponent rows are more work than a
        # transform over |G| = 2**16; under a cap of 4 MiB the transform's
        # 40 * 2**17 bytes of tallies do not fit, and the per-difference
        # tally runs
        net = corpus.digital_net(2, [np.roll(np.eye(10, dtype=np.int64), c, axis=1)
                                     for c in range(16)])
        arr = net_to_mooa(net, 0, (1,) * 16, (1,) * 16)
        words, sums, x = [], set(), 0
        while len(words) < 32:
            x += 1
            w = x * 0x9E3779B1 % 2 ** 16
            if bin(w).count("1") <= 5 and (w ^ w >> 10) % 2 ** 10 not in sums:
                sums.add((w ^ w >> 10) % 2 ** 10)
                words.append(w)
        fam = np.array([[w >> c & 1 for c in range(16)] for w in words])
        kept = dualcert._routes(arr, 32, [2] * 16, 478)
        assert kept["transform"][0] == 2 ** 17 * 32 < kept["per-difference"][0]
        assert kept["per-difference"][1] <= 2 ** 22 < kept["transform"][1]
        # a flipped first digit of coordinate 1 fails the first pair whose
        # difference reads digit 1 an odd number of times
        bad = net_to_mooa(corpus.flip_digit(net, 0, 1, 0), 0, (1,) * 16, (1,) * 16)
        calls, routes = [], dualcert._routes
        with monkeypatch.context() as patch:
            patch.setattr(dualcert, "_BYTES_CAP", 2 ** 22)
            patch.setattr(dualcert, "_group_tallies", _no_transform)
            patch.setattr(dualcert, "_routes",
                          lambda *args: calls.append(args[3]) or routes(*args))
            assert gram_certificate(arr, fam)
            v = gram_certificate(bad, fam)
        assert calls == [496, 478] * 2
        assert v.witness == {"kind": "gram", "pair": [0, 1], "order": 2,
                             "counts": [511, 513]}
        assert oracles.brute_first_gram_failure(bad.rows, 2, bad.e, bad.beta, fam[:2]) == (0, 1)
        # at the real cap the transform runs, with the same witness
        assert gram_certificate(bad, fam) == v

    def test_differences_counted_are_bounded_by_pairs_and_group(self, arr12, monkeypatch):
        # before the walk the table reads the bound: a family of 3 tuples has
        # at most 3 differences however many columns it touches (this one is
        # too tall, so no count follows). After it, the count kept: 4 tuples
        # have 6 pairs but 3 differences, and a block family of 8 (read once
        # more to build it) exactly its 7 nonzero members
        calls, routes = [], dualcert._routes
        monkeypatch.setattr(dualcert, "_routes",
                            lambda *args: calls.append(args[1:]) or routes(*args))
        assert not gram_certificate(arr12, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 3]])
        assert gram_certificate(arr12, [[0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1],
                                        [1, 0, 0, 1]])
        assert gram_certificate(arr12, build_block_family(arr12, (1, 1)))
        assert calls == [(3, [2, 2, 4], 3), (4, [2, 4], 6), (4, [2, 4], 3)] + [(8, [2, 4], 7)] * 3

    def test_peak_memory_is_within_what_the_cap_counts(self, monkeypatch):
        # no (F, N) array is formed: on either route the peak stays within
        # the route's count, well under one (F, N) int64 exponent matrix
        import tracemalloc
        arr = net_to_mooa(corpus.hammersley(2, 10), 0, (1, 1))
        fam = build_block_family(arr, (5, 5))  # F = N = 1024, an 8 MB matrix
        routes = dualcert._routes(arr, len(fam), [2] * 10, len(fam) - 1)
        assert routes["transform"][0] < routes["per-difference"][0]
        for route, want, share in (("transform", 696192, 12),
                                   ("per-difference", 3772288, 2)):
            _force_route(monkeypatch, route)
            counted = routes[route][1]
            assert counted == want and counted <= len(fam) * arr.runs * 8 / share
            tracemalloc.start()
            try:
                assert gram_certificate(arr, fam)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= counted, route

    def test_family_members_must_match_frame(self, arr12):
        with pytest.raises(ParamError):
            gram_certificate(arr12, [[1, 1]])

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


ROUTES = ["transform", "per-difference"]


def _force_route(monkeypatch, route):
    """Make every certificate take ``route`` whenever its bytes fit the cap:
    the route table gives it the least work and keeps every byte count."""
    routes = dualcert._routes
    monkeypatch.setattr(dualcert, "_routes", lambda *args: {
        name: (int(name != route), size) for name, (_, size) in routes(*args).items()})


class TestExactCertificateCrossCheck:
    """Verdicts and first failing pairs against the Moebius/long-division
    oracle over bases 2, 3, 4, 5, 6, 10 and 12 with e in (1,1), (1,2), (2,1),
    on each route."""

    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_matches_oracle(self, label, arr, monkeypatch):
        for route in ROUTES:
            _force_route(monkeypatch, route)
            rng = np.random.default_rng(len(label))
            for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
                fam = build_block_family(arr, kappa)
                if len(fam) > 16:  # a random ordered subfamily keeps the oracle fast
                    fam = fam[rng.choice(len(fam), size=16, replace=False)]
                for order in (fam, fam[::-1]):
                    v = gram_certificate(arr, order)
                    want = oracles.brute_first_gram_failure(
                        arr.rows, arr.base, arr.e, arr.beta, order)
                    assert bool(v) == (want is None), (label, kappa, route)
                    if want is not None:
                        assert v.witness["kind"] == "gram"
                        assert tuple(v.witness["pair"]) == want, (label, kappa, route)
                        counts = v.witness["counts"]
                        assert len(counts) == v.witness["order"] == arr.base ** max(arr.e)
                        assert not oracles.oracle_vanishes(counts, v.witness["order"])

    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_group_tallies_match_char_exponents(self, label, arr):
        # every delta's row of the transform is the bincount of its exponents
        rng = np.random.default_rng(len(label) + 4)
        widths = dualcert._widths(arr)
        cols = np.arange(len(widths))[np.cumprod(widths) <= 512]
        q = dualcert._order(arr)
        tallies = dualcert._group_tallies(arr.rows[:, cols], widths[cols], q)
        assert tallies.shape == (np.prod(widths[cols]), q)
        for key in rng.choice(len(tallies), size=min(24, len(tallies)), replace=False):
            delta = np.zeros(len(widths), dtype=np.int64)
            delta[cols] = dualcert.unrank(int(key), widths[cols])
            want = np.bincount(char_exponents(arr, delta), minlength=q)
            assert tallies[key].tolist() == want.tolist(), (label, delta)

    def test_large_failing_family_gives_one_witness_on_both_routes(self, monkeypatch):
        # one flipped digit of hammersley(2,12): the kappa (6,6) family of
        # 4096 tuples first fails at pair (0, 2048), in the 64th block of 32
        # exponent rows of the per-difference tally
        arr = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 12), 0, 0, 0), 0, (1, 1))
        fam = build_block_family(arr, (6, 6))
        routes = dualcert._routes(arr, 4096, [2] * 12, 4095)
        assert routes["transform"][0] < routes["per-difference"][0]
        witnesses = []
        for route in ROUTES:
            _force_route(monkeypatch, route)
            witnesses.append(gram_certificate(arr, fam).witness)
        assert witnesses[0] == witnesses[1] == {"kind": "gram", "pair": [0, 2048],
                                                "order": 2, "counts": [2047, 2049]}
        j, k = witnesses[0]["pair"]
        diff = (char_exponents(arr, fam[k]) - char_exponents(arr, fam[j])) % 2
        assert np.bincount(diff, minlength=2).tolist() == [2047, 2049]

    @pytest.mark.parametrize("label,arr", CROSS_CHECK[::4], ids=[c[0] for c in CROSS_CHECK[::4]])
    def test_height_witness_matches_scalar_route(self, label, arr):
        maximal = enumerate_profiles(arr.m, arr.u, arr.e, arr.beta)
        budget = arr.m - arr.u
        for a, b in zip(maximal, maximal[1:]):
            fam = np.concatenate([build_block_family(arr, a)[:6],
                                  build_block_family(arr, b)[:6]])
            for order in (fam, fam[::-1]):
                want = _first_tall_pair(arr, order)
                assert want is not None
                v = gram_certificate(arr, order)
                assert v.witness == want, (label, a, b)


def _first_tall_pair(arr, family):
    """The height-precondition witness of the first pair, in combinations
    order, whose difference is taller than the budget, or None."""
    budget = arr.m - arr.u
    for j, k in itertools.combinations(range(len(family)), 2):
        h = oracles.brute_difference_height(family[k], family[j], arr.base, arr.e, arr.beta)
        if h > budget:
            return {"kind": "height-precondition", "pair": [j, k], "height": h,
                    "budget": budget}
    return None


def _oracle_verdict(arr, family):
    """The witness :func:`gram_certificate` must give, from the scalar
    oracles: None for a pass, else the first pair taller than the budget,
    else the first failing pair with its tally of exponent differences mod q
    (the oracle's exponents live mod the largest b**e_i, a multiple of q)."""
    tall = _first_tall_pair(arr, family)
    if tall is not None:
        return tall
    want = oracles.brute_first_gram_failure(arr.rows, arr.base, arr.e, arr.beta, family)
    if want is None:
        return None
    j, k = want
    (ej, big), (ek, _) = (oracles.brute_char_exponents(arr.rows, arr.base, arr.e, arr.beta,
                                                       family[i]) for i in want)
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


def _random_family(arr, rng, trial):
    """1 to 12 random residue rows, most on the leading columns of a random
    admissible profile (so the sums are reached); every third trial repeats
    an earlier row, every fourth puts a row on any columns (often over the
    budget)."""
    widths = dualcert._widths(arr)
    starts = np.cumsum((0,) + arr.beta[:-1])
    profiles = enumerate_profiles(arr.m, arr.u, arr.e, arr.beta)
    kappa = profiles[rng.integers(len(profiles))]
    kappa = [int(rng.integers(k + 1)) for k in kappa]
    support = np.zeros(len(widths), dtype=bool)
    for lo, k in zip(starts, kappa):
        support[lo:lo + k] = True
    family = rng.integers(0, widths, size=(int(rng.integers(1, 13)), len(widths)))
    family *= support
    if trial % 3 == 1:  # a repeat of an earlier row
        j = int(rng.integers(len(family)))
        family[rng.integers(j, len(family))] = family[j]
    if trial % 4 == 3:  # a row on any columns
        family[rng.integers(len(family))] = rng.integers(0, widths)
    return family


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
            _assert_matches_oracle(arr, fam[rng.permutation(len(fam))], (label, kappa))

    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_random_residue_matrices(self, label, arr, monkeypatch):
        # the families of _random_family, on each route
        for route in ROUTES:
            _force_route(monkeypatch, route)
            rng = np.random.default_rng(len(label) + 3)
            seen = set()
            for trial in range(24):
                family = _random_family(arr, rng, trial)
                v = gram_certificate(arr, family)
                want = _oracle_verdict(arr, family)
                assert v.witness == want, (label, trial, route)
                seen.add(None if want is None else want["kind"])
            # every outcome the route has shows up on some array; none is skipped
            assert seen & {None, "gram"}, (label, route)

    @pytest.mark.parametrize("label,arr", CROSS_CHECK[::3], ids=[c[0] for c in CROSS_CHECK[::3]])
    def test_families_with_repeated_members(self, label, arr):
        rng = np.random.default_rng(len(label) + 2)
        for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
            fam = build_block_family(arr, kappa)
            picked = fam[rng.choice(len(fam), size=10, replace=True)]
            _assert_matches_oracle(arr, picked, (label, kappa))
            # the whole group, then a repeat: the walk has stopped by then
            _assert_matches_oracle(arr, np.vstack([fam, fam[len(fam) // 2]]),
                                   (label, kappa, "tail"))

    def test_duplicate_is_the_zero_difference(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        for family, pair in (([fam[3], fam[3]], [0, 1]), (np.vstack([fam, fam[5]]), [5, 8])):
            v = gram_certificate(arr12, family)
            assert v.witness == {"kind": "gram", "pair": pair, "order": 4,
                                 "counts": [8, 0, 0, 0]}
            assert v.witness == _oracle_verdict(arr12, family)

    def test_failing_difference_first_seen_after_row_zero(self):
        # both members pass against the zero tuple, but not against each
        # other: their difference is new in row 1
        arr = dict(CROSS_CHECK)["random b=2 e=(1, 1)"]
        zero, a, b = [0, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]
        assert gram_certificate(arr, [zero, a]) and gram_certificate(arr, [zero, b])
        v = gram_certificate(arr, [zero, a, b])
        assert v.witness["pair"] == [1, 2]
        assert v.witness == _oracle_verdict(arr, [zero, a, b])

    def test_tall_pair_after_a_gram_failure_still_wins(self):
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        fam = build_block_family(bad, (0, 3))
        assert not gram_certificate(bad, fam[:2])  # pair (0, 1) fails
        tall = [1, 1, 1, 1, 0, 0]
        for family in ([fam[0], fam[1], tall], [fam[0], fam[0], tall]):
            v = gram_certificate(bad, family)
            assert v.witness == {"kind": "height-precondition", "pair": [0, 2],
                                 "height": 4, "budget": 3}
        # row 0 meets the zero difference and both short elements of the
        # group spanned, but the tall one, (1, 1), only in row 2
        zero, a, b = [0] * 6, [0, 0, 1, 0, 0, 0], [0, 0, 0, 1, 0, 0]
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
        for family in (fam, fam[rng.permutation(len(fam))]):
            sums.clear()
            walked.clear()
            assert gram_certificate(arr, family)
            assert sum(sums) == len(fam) - 1
            # row 0's differences, the members for the duplicate check, then
            # the array's rows, counted once over the group
            assert walked == [len(fam) - 1, len(fam), arr.runs]

    def test_keys_past_int64_match_oracle(self):
        # 40 blocks of one base-4 column span a group of 4**40 = 2**80
        # elements, so differences are ranked as Python ints; in int64 the
        # first block's residues would rank as multiples of 2**64, as 0
        rng = np.random.default_rng(9)
        s = 40
        e = EVector((2,) * s)
        arr = MixedOOA(2, 4, 0, e, (1,) * s, rng.integers(0, 4, size=(16, s)))
        family = np.zeros((s + 1, s), dtype=np.int64)
        family[np.arange(1, s + 1), np.arange(s)] = rng.integers(1, 4, size=s)
        for order in (family, family[::-1], np.vstack([family, family[7]]), family[1::-1]):
            _assert_matches_oracle(arr, order, "object keys")
        assert dualcert.rank_rows(np.array([[3] * s]), [4] * s)[0] == 4 ** s - 1


def _assert_translate_agrees(monkeypatch, arr, family, shift):
    """``family`` and its translate by the residue row ``shift`` (reduced mod
    each column's alphabet) get one verdict and witness, and call the route
    table with the same members, widths and differences, before the walk and
    after it. The translate's verdict is returned."""
    calls, routes = [], dualcert._routes
    with monkeypatch.context() as patch:
        patch.setattr(dualcert, "_routes",
                      lambda *args: calls.append(args[1:]) or routes(*args))
        want = gram_certificate(arr, family)
        half = len(calls)
        got = gram_certificate(arr, (family + shift) % dualcert._widths(arr))
    assert got == want and calls[:half] == calls[half:]
    return got


class TestTranslates:
    """A certificate reads its family only through the differences of its
    members, so a family shifted by one constant residue row has the same
    group, route, verdict and witness."""

    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("label,arr", CROSS_CHECK, ids=[c[0] for c in CROSS_CHECK])
    def test_oracle_families(self, label, arr, route, monkeypatch):
        # an ordered subfamily, the shuffled whole and a sample with repeats
        # of each maximal block family, and random residue matrices
        _force_route(monkeypatch, route)
        rng = np.random.default_rng(len(label) + 6)
        widths = dualcert._widths(arr)
        families = []
        for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
            fam = build_block_family(arr, kappa)
            families += [fam[rng.choice(len(fam), size=min(16, len(fam)), replace=False)],
                         fam[rng.permutation(len(fam))],
                         fam[rng.choice(len(fam), size=10, replace=True)]]
        families += [_random_family(arr, rng, trial) for trial in range(12)]
        for family in families:
            _assert_translate_agrees(monkeypatch, arr, family, rng.integers(0, widths))

    def test_block_families(self, arr12, arr11, monkeypatch):
        rng = np.random.default_rng(11)
        for arr in (arr12, arr11):
            for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
                assert _assert_translate_agrees(monkeypatch, arr, build_block_family(arr, kappa),
                                                rng.integers(0, dualcert._widths(arr)))

    @pytest.mark.parametrize("m, flip, witness", [
        (10, False, None), (12, False, None),
        (12, True, {"kind": "gram", "pair": [0, 2048], "order": 2, "counts": [2047, 2049]})])
    def test_hammersley_block_families(self, m, flip, witness, monkeypatch):
        # an all-ones translate is nonzero on all 2m columns, but its members
        # differ on m of them: one transform over 2**m decides it
        ham = corpus.hammersley(2, m)
        arr = net_to_mooa(corpus.flip_digit(ham, 0, 0, 0) if flip else ham, 0, (1, 1))
        fam = build_block_family(arr, (m // 2, m // 2))
        rng = np.random.default_rng(m)
        for shift in (rng.integers(0, 2, size=2 * m), np.ones(2 * m, dtype=np.int64)):
            v = _assert_translate_agrees(monkeypatch, arr, fam, shift)
            assert v.witness == witness


class TestBuildBlockFamily:
    def test_enumeration_order_and_padding(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        assert fam.shape == (8, 4) and fam.dtype == np.int64  # 2 * 4 residue choices
        assert fam[0].tolist() == [0, 0, 0, 0]
        assert fam[1].tolist() == [0, 0, 0, 1]   # last column fastest
        assert fam[4].tolist() == [1, 0, 0, 0]
        assert not fam[:, 1:3].any()             # unused columns stay zero

    def test_profile_validation(self, arr12):
        with pytest.raises(ParamError):
            build_block_family(arr12, (4, 0))   # kappa_0 > beta_0
        with pytest.raises(ParamError):
            build_block_family(arr12, (3, 1))   # depth 5 > budget 3
        with pytest.raises(ParamError):
            build_block_family(arr12, (1,))     # wrong block count

    def test_oversized_family_is_refused_before_it_is_built(self, arr12, monkeypatch):
        # the cap gram_certificate applies, counted from b**depth members on
        # sum(kappa) touched columns with b**depth - 1 differences: refused
        # once neither route fits, the transform's 32 tallies being smaller
        routes = dualcert._routes(arr12, 8, [2, 4], 7)
        need = routes["transform"][1]
        assert need == 3392 < routes["per-difference"][1] == 3616
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need)
        assert len(build_block_family(arr12, (1, 1))) == 8

        def no_members(*args):
            raise AssertionError("family members built")

        monkeypatch.setattr(dualcert, "unrank", no_members)
        monkeypatch.setattr(dualcert, "_BYTES_CAP", need - 1)
        with pytest.raises(ParamError, match=f"a family of 8 tuples on 8 rows needs {need} "
                                             "bytes of residues, differences and "
                                             "tallies"):
            build_block_family(arr12, (1, 1))
        with pytest.raises(ParamError, match="profile depth 5 exceeds the budget 3"):
            build_block_family(arr12, (3, 1))

    def test_zero_profile_gives_singleton(self, arr12):
        fam = build_block_family(arr12, (0, 0))
        assert fam.dtype == np.int64 and fam.tolist() == [[0, 0, 0, 0]]
