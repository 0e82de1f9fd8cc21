"""Character vectors and Gram certificates against scalar-arithmetic oracles."""

import numpy as np
import pytest

from evnets import (
    EVector, FunctionTuple, MixedOOA,
    build_block_family, char_vector, diff, gram_certificate, height,
    net_to_mooa, profile,
)
from evnets import corpus
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
    def test_zero_tuple_is_all_ones(self, arr12):
        d = FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (0,)))
        assert np.allclose(char_vector(arr12, d), 1.0)

    def test_matches_scalar_oracle(self, arr12):
        cases = [((1, 0, 0), (0,)), ((0, 1, 1), (2,)), ((1, 1, 1), (3,)),
                 ((0, 0, 0), (1,))]
        for values in cases:
            d = FunctionTuple(2, EVector((1, 2)), values)
            got = char_vector(arr12, d)
            want = oracles.brute_char_vector(
                arr12.rows, 2, (1, 2), (3, 1), values)
            assert np.allclose(got, np.array(want)), values

    def test_base3_matches_oracle(self):
        arr = net_to_mooa(corpus.hammersley(3, 2), 0, (1, 1))
        d = FunctionTuple(3, EVector((1, 1)), ((1, 2), (2, 0)))
        got = char_vector(arr, d)
        want = oracles.brute_char_vector(arr.rows, 3, (1, 1), (2, 2),
                                         ((1, 2), (2, 0)))
        assert np.allclose(got, np.array(want))

    def test_entries_have_unit_magnitude(self, arr11):
        d = FunctionTuple(2, EVector((1, 1)), ((1, 0, 1), (1, 1, 0)))
        assert np.allclose(np.abs(char_vector(arr11, d)), 1.0)

    def test_frame_mismatch_rejected(self, arr12):
        with pytest.raises(ParamError):
            char_vector(arr12, FunctionTuple(2, EVector((1, 1)), ((1,), (1,))))
        with pytest.raises(ParamError):
            char_vector(arr12, FunctionTuple(3, EVector((1, 2)), ((1, 0, 0), (0,))))

    def test_character_sum_vanishes_on_strength_profiles(self, arr12):
        # a nonzero tuple whose height fits the budget sums to zero over rows
        for values in [((1, 0, 0), (0,)), ((1, 1, 1), (0,)), ((1, 0, 0), (2,)),
                       ((0, 0, 0), (3,))]:
            d = FunctionTuple(2, EVector((1, 2)), values)
            if 0 < height(d) <= arr12.m - arr12.u:
                assert abs(char_vector(arr12, d).sum()) < 1e-9, values


class TestGramCertificate:
    def test_reference_block_family_passes(self, arr12):
        fam = build_block_family(arr12, (3, 0))
        assert len(fam) == 8
        assert gram_certificate(arr12, fam)

    def test_gram_matches_scalar_oracle(self, arr12):
        fam = build_block_family(arr12, (1, 1))
        vectors = [char_vector(arr12, d) for d in fam]
        gram = oracles.brute_gram(vectors)
        for a in range(len(fam)):
            for c in range(len(fam)):
                want = 8.0 if a == c else 0.0
                assert abs(gram[a][c] - want) < 1e-9

    def test_every_maximal_profile_certifies(self, arr12, arr11):
        from evnets import enumerate_profiles
        for arr in (arr12, arr11):
            for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta,
                                            "maximal"):
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
        assert v.witness["kind"] == "gram"
        assert v.witness["deviation"] > v.witness["tol"]
        assert {"pair", "value", "expected"} <= set(v.witness)

    def test_custom_tolerance(self, arr12):
        fam = build_block_family(arr12, (3, 0))
        assert gram_certificate(arr12, fam, tol=1e-12)
        # an absurdly loose tolerance accepts even the defective array
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        assert gram_certificate(bad, build_block_family(bad, (0, 3)), tol=1e9)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-9])
    def test_unusable_tolerance_is_rejected(self, tol):
        bad = net_to_mooa(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2),
                          0, (1, 1))
        with pytest.raises(ParamError):
            gram_certificate(bad, build_block_family(bad, (0, 3)), tol=tol)

    def test_empty_family_passes(self, arr12):
        assert gram_certificate(arr12, [])

    def test_family_members_must_match_frame(self, arr12):
        with pytest.raises(ParamError):
            gram_certificate(arr12, [FunctionTuple(2, EVector((1, 1)),
                                                   ((1,), (1,)))])


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

    def test_zero_profile_gives_singleton(self, arr12):
        fam = build_block_family(arr12, (0, 0))
        assert fam == [FunctionTuple(2, EVector((1, 2)), ((0, 0, 0), (0,)))]
