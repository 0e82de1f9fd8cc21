"""Equidistribution checks against exact-rational brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evnets import (
    EVector, PointSet, Verdict,
    check_shapes, enumerate_profiles, net_to_mooa,
    rebase_compress, rebase_expand, u_star, verify_mooa, verify_net,
    verify_sequence_prefix,
)
from evnets import _util, corpus, netverify, ooa
from evnets.errors import ParamError, PrecisionError

import oracles
from storage import storage

first_nonuniform = _util._first_nonuniform


def _rows(shapes):
    """The rows of a shape or profile array as tuples of Python ints."""
    return [tuple(row) for row in shapes.tolist()]


# ---------------------------------------------------------------------------
# shape enumeration

class TestShapes:
    def test_frozen_example_maximal(self):
        # m=3, u=0, e=(1,2): depth menus {0,1,2,3} x {0,2}, total <= 3; of
        # (0,0) (0,2) (1,0) (1,2) (2,0) (3,0) only two take no further step
        assert _rows(check_shapes(3, 0, (1, 2))) == [(1, 2), (3, 0)]

    def test_budget_zero_has_only_zero_shape(self):
        assert _rows(check_shapes(2, 2, (1, 1))) == [(0, 0)]
        assert _rows(check_shapes(2, 2, (1, 1), "tezuka")) == [(0, 0)]

    def test_tezuka_set_is_exact_budget_slice(self):
        tez = _rows(check_shapes(4, 1, (1, 2), "tezuka"))
        every = oracles.brute_shapes(4, 1, (1, 2), "narrow", "all")
        assert tez == [d for d in every if sum(d) == 3]
        # every exact-budget shape is maximal, so it is also a slice of those
        assert tez == [d for d in _rows(check_shapes(4, 1, (1, 2))) if sum(d) == 3]

    def test_tezuka_can_be_empty(self):
        # no multiple of 2 sums to 3
        assert _rows(check_shapes(3, 0, (2,), "tezuka")) == []

    @pytest.mark.parametrize("m", range(5))
    @pytest.mark.parametrize("e", [(1,), (2,), (1, 1), (1, 2), (2, 3), (1, 2, 2)])
    def test_matches_brute_enumeration(self, m, e):
        # the oracle lists shapes sorted, i.e. in the lexicographic order the
        # verifier must visit them in
        for u in range(m + 1):
            assert _rows(check_shapes(m, u, e)) == \
                oracles.brute_shapes(m, u, e, "narrow", "maximal")
            assert _rows(check_shapes(m, u, e, "tezuka")) == \
                oracles.brute_shapes(m, u, e, "tezuka", "all")

    @settings(deadline=None, max_examples=200)
    @given(st.data())
    def test_matches_brute_enumeration_on_draws(self, data):
        m = data.draw(st.integers(0, 7), label="m")
        u = data.draw(st.integers(0, m), label="u")
        e = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4), label="e"))
        assert _rows(check_shapes(m, u, e)) == oracles.brute_shapes(m, u, e, "narrow", "maximal")
        assert _rows(check_shapes(m, u, e, "tezuka")) == \
            oracles.brute_shapes(m, u, e, "tezuka", "all")

    def test_maximal_shapes_cannot_be_extended(self):
        for shape in _rows(check_shapes(5, 1, (1, 2, 3))):
            rem = 4 - sum(shape)
            assert all(rem < ei for ei in (1, 2, 3))

    def test_every_shape_refines_to_a_maximal_one(self):
        m, u, e = 5, 1, (1, 2, 3)
        maximal = _rows(check_shapes(m, u, e))
        for shape in oracles.brute_shapes(m, u, e, "narrow", "all"):
            assert any(all(dm >= d and (dm - d) % ei == 0
                           for d, dm, ei in zip(shape, mx, e))
                       for mx in maximal)

    def test_narrow_shapes_are_the_cached_read_only_walk(self):
        shapes = check_shapes(5, 1, (1, 2, 3))
        assert check_shapes(5, 1, (1, 2, 3)) is shapes
        assert _util.maximal_depths(4, (1, 2, 3), (4, 2, 1)) is shapes
        for rows in (shapes, check_shapes(5, 1, (1, 2, 3), "tezuka")):
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1

    def test_parameter_validation(self):
        with pytest.raises(ParamError):
            check_shapes(2, 3, (1,))
        with pytest.raises(ParamError):
            check_shapes(2, -1, (1,))
        with pytest.raises(ParamError, match="variant must be"):
            check_shapes(2, 0, (1,), "most")


_HAM23 = corpus.hammersley(2, 3)


class TestNoModeKnob:
    """Every verifier checks the maximal shapes or profiles and nothing else;
    the exhaustive reading lives only in the oracles."""

    @pytest.mark.parametrize("fn, args", [
        pytest.param(verify_net, (_HAM23, 0, (1, 1)), id="verify_net"),
        pytest.param(u_star, (_HAM23, (1, 1)), id="u_star"),
        pytest.param(check_shapes, (3, 0, (1, 1)), id="check_shapes"),
        pytest.param(verify_sequence_prefix, (_HAM23, 0, (1, 1), 3),
                     id="verify_sequence_prefix"),
        pytest.param(verify_mooa, (net_to_mooa(_HAM23, 0, (1, 1)),), id="verify_mooa"),
        pytest.param(enumerate_profiles, (3, 0, (1, 1), (3, 3)), id="enumerate_profiles"),
    ])
    @pytest.mark.parametrize("mode", ["all", "maximal"])
    def test_mode_keyword_is_a_type_error(self, fn, args, mode):
        fn(*args)  # the same call without mode= is valid
        with pytest.raises(TypeError):
            fn(*args, mode=mode)

    def test_second_enumerator_and_mode_names_are_gone(self):
        for module in (netverify, ooa):
            for name in ("enumerate_shapes", "_check_mode", "Mode"):
                assert not hasattr(module, name), (module.__name__, name)


# ---------------------------------------------------------------------------
# box counting

def _box_counts(points, shape):
    """Points in each elementary box of ``shape``, indexed by box index,
    counted from the prefix keys that verify_net ranks boxes by."""
    dims = tuple(points.base ** d for d in shape)
    table = _util.PrefixTable.of_digits(points.digits, points.base, (1,) * points.dim,
                                        max(shape, default=0))
    return np.bincount(table.keys(shape), minlength=math.prod(dims)).reshape(dims)


class TestBoxCounts:
    def test_frozen_value(self, ham23):
        assert _box_counts(ham23, (1, 1))[0, 0] == 2

    @staticmethod
    def _check(points, shapes):
        # the net fills its boxes evenly; moving point 0 in coordinate 1 does not
        for p in (points, corpus.flip_digit(points, 0, 1, 0)):
            for shape in shapes:
                counts = _box_counts(p, shape)
                for index in np.ndindex(*counts.shape):
                    assert counts[index] == oracles.brute_count_box(p, shape, index)

    def test_matches_rational_membership(self, ham23):
        self._check(ham23, [(0, 0), (1, 1), (2, 1), (0, 3), (3, 0), (1, 2)])

    def test_base_three(self, ham32):
        self._check(ham32, [(1, 1), (2, 0), (0, 2)])


# ---------------------------------------------------------------------------
# net verification

def _flip012(ham):
    """The reference defect: bump the leading digit of the second coordinate
    of point 0 at depth 3 (all indices 0-based)."""
    return corpus.flip_digit(ham, 0, 1, 2)


def _shifted(points):
    """Every point with the leading digit of its first coordinate bumped by 1
    mod b: a digital shift, so a net stays a net with the same quality, but
    the zero vector leaves the set and an F_b-subspace becomes a coset."""
    digits = points.digits.astype(np.int64)
    digits[:, 0, 0] = (digits[:, 0, 0] + 1) % points.base
    return PointSet(points.base, digits)


class TestVerifyNet:
    def test_reference_set_passes_every_reading(self, ham23):
        for variant in ("narrow", "tezuka"):
            assert verify_net(ham23, 0, (1, 1), variant)

    def test_frozen_failure_witness(self, ham23):
        bad = _flip012(ham23)
        v = verify_net(bad, 0, (1, 1))
        assert not v
        assert v.witness == {"shape": [0, 3], "box": [0, 0],
                             "observed": 0, "expected": 1}

    def test_witness_is_lexicographically_first(self, ham23):
        bad = _flip012(ham23)
        shapes = _rows(check_shapes(3, 0, (1, 1)))
        first_failing = next(
            d for d in shapes
            if not all(oracles.brute_count_box(bad, d, ix) == 8 // 2 ** sum(d)
                       for ix in np.ndindex(*(2 ** di for di in d))))
        assert tuple(verify_net(bad, 0, (1, 1)).witness["shape"]) == first_failing

    def test_coarser_resolution_forgives_the_defect(self, ham23):
        bad = _flip012(ham23)
        assert verify_net(bad, 0, (1, 2))
        assert u_star(bad, (1, 1)) == 1
        assert u_star(bad, (1, 2)) == 0

    def test_agrees_with_oracle_on_corpus(self, ham23, ham32):
        sets = [ham23, ham32, corpus.grid_1d(2, 3), corpus.faure(3, 2, 3),
                _flip012(ham23), corpus.flip_digit(ham32, 3, 0, 1)]
        for p in sets:
            evecs = [(1,) * p.dim, (1, 2)[: p.dim] if p.dim <= 2 else (1, 2, 2)]
            for e in evecs:
                for u in range(p.precision + 1):
                    for variant in ("narrow", "tezuka"):
                        got = bool(verify_net(p, u, e, variant))
                        want = oracles.brute_verify_net(p, u, e, variant, "all")
                        assert got == want, (p, e, u, variant)

    def test_agrees_with_oracle_on_random_sets(self):
        rng_sets = [corpus.random_pointset(2, m, s, seed)
                    for m in (2, 3) for s in (1, 2) for seed in range(5)]
        for p in rng_sets:
            e = (1,) * p.dim
            for u in range(p.precision + 1):
                got = bool(verify_net(p, u, e))
                assert got == oracles.brute_verify_net(p, u, e, "narrow", "all")

    def test_maximal_equals_all_for_narrow(self, ham23, ham32):
        sets = [ham23, ham32, _flip012(ham23),
                corpus.random_pointset(2, 3, 2, 7),
                corpus.random_pointset(3, 2, 2, 11)]
        for p in sets:
            for e in [(1,) * p.dim, (1, 2)[: p.dim]]:
                for u in range(p.precision + 1):
                    assert bool(verify_net(p, u, e)) == \
                        oracles.brute_verify_net(p, u, e, "narrow", "all")

    def test_narrow_pass_implies_tezuka_pass(self, ham23, ham32, faure333):
        for p in (ham23, ham32, faure333):
            for u in range(p.precision + 1):
                e = (1,) * p.dim
                if verify_net(p, u, e, "narrow"):
                    assert verify_net(p, u, e, "tezuka")

    def test_tezuka_pass_without_narrow_pass(self):
        # all-zero 1D set, e=(2,), m=3: the exact-budget reading checks no
        # shape at u=0 (no multiple of 2 sums to 3) while the narrow reading
        # checks depth 2 and fails.
        p = PointSet(2, np.zeros((8, 1, 3), dtype=np.int64))
        assert verify_net(p, 0, (2,), "tezuka")
        assert not verify_net(p, 0, (2,), "narrow")
        assert oracles.brute_verify_net(p, 0, (2,), "tezuka") is True
        assert oracles.brute_verify_net(p, 0, (2,), "narrow") is False

    def test_tezuka_quality_is_not_monotone(self):
        # same set: u=0 passes vacuously, u=1 checks depth 2 and fails
        p = PointSet(2, np.zeros((8, 1, 3), dtype=np.int64))
        assert verify_net(p, 0, (2,), "tezuka")
        assert not verify_net(p, 1, (2,), "tezuka")

    def test_stops_at_the_first_failing_shape(self, ham23, monkeypatch):
        calls = _count_kernel_calls(monkeypatch)
        bad = _flip012(ham23)
        v = verify_net(bad, 0, (1, 1))
        shapes = check_shapes(3, 0, (1, 1))
        # one kernel call per shape up to and including the witness
        assert len(calls) == _rows(shapes).index(tuple(v.witness["shape"])) + 1
        assert len(calls) < len(shapes)
        calls.clear()
        # a shifted net passes without being a subspace: counting, every shape
        assert verify_net(_shifted(ham23), 0, (1, 1))
        assert len(calls) == len(shapes)

    def test_requires_full_period_count(self, ham23):
        short = PointSet(2, ham23.digits[:7])
        with pytest.raises(ParamError):
            verify_net(short, 0, (1, 1))

    def test_e_dimension_mismatch(self, ham23):
        with pytest.raises(ParamError):
            verify_net(ham23, 0, (1, 1, 1))

    @settings(deadline=None, max_examples=40)
    @given(st.integers(2, 3), st.integers(1, 2), st.integers(1, 2), st.data())
    def test_oracle_agreement_property(self, b, m, s, data):
        with storage(data.draw(st.booleans(), label="int64 storage")):
            n = b ** m
            flat = data.draw(st.lists(st.integers(0, b - 1), min_size=n * s * m,
                                      max_size=n * s * m))
            p = PointSet(b, np.array(flat, dtype=np.int64).reshape(n, s, m))
            u = data.draw(st.integers(0, m))
            e = tuple(data.draw(st.integers(1, 2)) for _ in range(s))
            variant = data.draw(st.sampled_from(["narrow", "tezuka"]))
            assert bool(verify_net(p, u, e, variant)) == \
                oracles.brute_verify_net(p, u, e, variant, "all")


def _count_kernel_calls(monkeypatch):
    """The cell count of every counting-kernel call, in order."""
    calls = []

    def counting(keys, cells, expected):
        calls.append(cells)
        return first_nonuniform(keys, cells, expected)

    monkeypatch.setattr(_util, "_first_nonuniform", counting)
    return calls


def _count_eliminations(monkeypatch):
    """The shape of every stack ``netverify._eliminate`` reduces, in order."""
    calls = []
    real = netverify._eliminate
    monkeypatch.setattr(netverify, "_eliminate",
                        lambda stack, b: calls.append(stack.shape) or real(stack, b))
    return calls


# ---------------------------------------------------------------------------
# the rank route for F_b-subspaces

def _decided(p, e, shapes, space):
    """``netverify._decide``'s first failure as the verdict ``verify_net``
    reports: the box unranked one coordinate at a time."""
    failure = netverify._decide(p, e, shapes, space)
    if failure is None:
        return Verdict(True)
    shape, cell, observed, expected = failure
    return Verdict(False, {"shape": list(shape),
                           "box": _util.unrank(cell, [p.base ** d for d in shape]),
                           "observed": observed, "expected": expected})


def _recover(p):
    """``netverify._row_space``: the subspace and correction recovered from
    the input's structure alone, or None."""
    return netverify._row_space(p)


def _both_routes(p, u, e, variant):
    """(counting verdict, rank verdict or None when no basis is recovered),
    each forced whatever the size gate says."""
    e = EVector.coerce(e)
    shapes = check_shapes(p.precision, u, e, variant)
    basis = _recover(p)
    counted = _decided(p, e, shapes, None)
    ranked = None if basis is None else _decided(p, e, shapes, basis)
    return counted, ranked


def _as_tuple(v):
    return bool(v), None if v.witness is None else dict(v.witness)


def _module_set(b, m, s, seed):
    """b**m points whose coordinate i carries C_i a mod b for the digit
    vector a of every n < b**m, C_0 the identity and the others random: a
    Z_b-module for any b, and an F_b-subspace only for a prime b."""
    rng = np.random.default_rng(seed)
    a = _util.digit_matrix(np.arange(b ** m), m, b).astype(np.int64)
    mats = [np.eye(m, dtype=np.int64)] + [rng.integers(0, b, (m, m)) for _ in range(s - 1)]
    return PointSet(b, np.stack([a @ c.T % b for c in mats], axis=1))


class TestEliminate:
    @pytest.mark.parametrize("b", [2, 3, 5, 7])
    def test_ranks_match_the_oracle(self, b):
        rng = np.random.default_rng(b)
        ranks = set()
        for rows, cols in [(1, 1), (1, 4), (3, 5), (4, 4), (5, 3), (6, 8)]:
            stack = rng.integers(0, b, (16, rows, cols))
            stack[0] = 0
            stack[1, -1] = 0  # a zero row
            stack[2, -1] = stack[2, 0]  # a repeated row
            stack[3, -1] = (stack[3, 0] + (b - 1) * stack[3, rows // 2]) % b  # a combination
            stack[4] = np.eye(rows, cols, dtype=np.int64)  # full rank
            stack[5, :, 0] = 0  # a column without a pivot
            want = [oracles.rank_mod_p(matrix.tolist(), b) for matrix in stack]
            where = netverify._eliminate(stack, b)
            assert (where >= 0).sum(axis=1).tolist() == want
            ranks |= {(r == min(rows, cols)) for r in want}
        assert ranks == {True, False}  # full and deficient ranks both occur

    @pytest.mark.parametrize("b", [2, 3, 5, 7])
    def test_pivot_rows_of_one_matrix_are_its_reduced_form(self, b):
        rng = np.random.default_rng(10 + b)
        for rows, cols in [(1, 3), (3, 6), (5, 4), (4, 7)]:
            for trial in range(6):
                matrix = rng.integers(0, b, (rows, cols))
                if trial % 2:  # rank deficient
                    matrix[-1] = (2 * matrix[0] + matrix[rows // 2]) % b
                if trial == 4:
                    matrix[:] = 0
                stack = matrix[None].copy()
                where = netverify._eliminate(stack, b)[0]
                assert stack[0, where[where >= 0]].tolist() == \
                    oracles.brute_rref(matrix.tolist(), b)


class TestRankRoute:
    @pytest.mark.parametrize("p", [
        corpus.faure(2, 6, 2), corpus.faure(3, 4, 3), corpus.faure(5, 3, 5),
        corpus.faure(7, 3, 7), corpus.hammersley(2, 6), corpus.hammersley(3, 4),
        corpus.hammersley(5, 3), corpus.hammersley(7, 2), corpus.grid_1d(5, 3),
    ], ids=lambda p: f"b{p.base}m{p.precision}s{p.dim}")
    def test_corpus_nets_agree_with_counting(self, p):
        for e in {(1,) * p.dim, (1, 2, 2, 1, 3, 1, 2)[:p.dim], (2,) * p.dim}:
            for variant in ("narrow", "tezuka"):
                for u in range(p.precision + 1):
                    counted, ranked = _both_routes(p, u, e, variant)
                    assert ranked is not None
                    assert _as_tuple(ranked) == _as_tuple(counted), (e, variant, u)
                star = u_star(p, e, variant)
                assert star == next(u for u in range(p.precision + 1)
                                    if _both_routes(p, u, e, variant)[0])

    @pytest.mark.parametrize("b", [2, 3, 5])
    def test_random_matrices_agree_with_counting_and_oracle(self, b):
        rng = np.random.default_rng(b)
        recovered = failed = 0
        for m in range(1, 5):
            for s in range(1, 4):
                if b ** m > 150:
                    continue
                for _ in range(3):
                    mats = [rng.integers(0, b, (m, m)) for _ in range(s)]
                    net = corpus.digital_net(b, mats)
                    # the points in a random order: a subspace whatever the order
                    p = PointSet(b, net.digits[rng.permutation(net.count)])
                    for e in {(1,) * s, tuple(int(x) for x in rng.integers(1, 3, s))}:
                        for variant in ("narrow", "tezuka"):
                            for u in range(m + 1):
                                want = oracles.digital_witness(b, mats, u, e, variant)
                                counted, ranked = _both_routes(p, u, e, variant)
                                assert _as_tuple(counted) == (want is None, want)
                                if ranked is not None:
                                    recovered += 1
                                    assert _as_tuple(ranked) == (want is None, want)
                                failed += want is not None
                            assert u_star(p, e, variant) == next(
                                u for u in range(m + 1)
                                if oracles.digital_witness(b, mats, u, e, variant) is None)
        # invertible and singular maps both occur, and so do failing witnesses
        assert recovered and failed

    @pytest.mark.parametrize("b", [131, 257])  # span tables of uint16; int64 digits at 257
    def test_bases_whose_sums_pass_a_byte_agree(self, b):
        rng = np.random.default_rng(b)
        mats = [np.eye(2, dtype=np.int64)] + [rng.integers(0, b, (2, 2)) for _ in range(2)]
        for repeat in (False, True):
            if repeat:  # the last two coordinates equal: shape (0, 1, 1) has rank 1
                mats[2] = mats[1]
            counted, ranked = _both_routes(corpus.digital_net(b, mats), 0, (1, 1, 1), "narrow")
            assert _as_tuple(ranked) == _as_tuple(counted)
            assert _as_tuple(counted) == (not repeat, oracles.digital_witness(b, mats, 0, (1, 1, 1)))

    def test_frozen_rank_witness(self):
        # both coordinates carry a: shape (1, 2) reads digit 0 twice, so its
        # three columns have rank 2 and the zero box holds 2**(3-2) points
        net = corpus.digital_net(2, [np.eye(3, dtype=np.int64)] * 2)
        counted, ranked = _both_routes(net, 0, (1, 1), "narrow")
        want = {"shape": [1, 2], "box": [0, 0], "observed": 2, "expected": 1}
        assert _as_tuple(ranked) == _as_tuple(counted) == (False, want)

    @pytest.mark.parametrize("int64", [False, True])
    def test_large_linear_input_takes_ranks(self, monkeypatch, int64):
        with storage(int64):
            p = corpus.faure(5, 5, 5)
            bad = corpus.digital_net(3, [np.random.default_rng(0).integers(0, 3, (8, 8))
                                         for _ in range(4)])
        e = (1,) * 5
        tezuka_star = next(u for u in range(6) if _both_routes(p, u, e, "tezuka")[0])
        bad_star = next(u for u in range(9) if _both_routes(bad, u, (1,) * 4, "narrow")[0])
        counted, _ = _both_routes(bad, 0, (1,) * 4, "narrow")
        for q, shapes in ((p, check_shapes(5, 0, e)), (bad, check_shapes(8, 0, (1,) * 4))):
            assert q.count * len(shapes) > netverify._RANK_OVERHEAD
            assert _recover(q) is not None
        calls = _count_kernel_calls(monkeypatch)
        assert verify_net(p, 0, e)
        assert u_star(p, e) == 0
        assert u_star(p, e, "tezuka") == tezuka_star
        assert u_star(bad, (1,) * 4) == bad_star
        v = verify_net(bad, 0, (1,) * 4)
        assert calls == []  # no point was counted
        assert not v
        assert _as_tuple(v) == _as_tuple(counted)

    @pytest.mark.parametrize("p, under_gate", [(corpus.faure(5, 5, 5), False),
                                               (corpus.faure(3, 3, 3), True)],
                             ids=["faure555", "faure333"])
    def test_u_star_recovers_the_basis_once(self, monkeypatch, p, under_gate):
        recoveries = []
        real = netverify._row_space
        steps = TestUStar._count_calls(monkeypatch)
        monkeypatch.setattr(netverify, "_row_space",
                            lambda q: recoveries.append(len(steps)) or real(q))
        for variant in ("narrow", "tezuka"):
            recoveries.clear()
            first = len(steps)
            u_star(p, (1,) * p.dim, variant)
            # once, before the first list, however small the lists it decides
            assert recoveries == [first]
        assert len(steps) > 2
        assert all(p.count * len(s) <= netverify._RANK_OVERHEAD for s in steps) == under_gate

    @pytest.mark.parametrize("p", [
        pytest.param(_shifted(corpus.faure(5, 5, 5)), id="shifted"),
        pytest.param(corpus.random_pointset(5, 5, 5, 0), id="random"),
        pytest.param(corpus.random_pointset(2, 12, 4, 1), id="random-b2"),
        pytest.param(_module_set(4, 7, 4, 0), id="base4"),
        pytest.param(_module_set(9, 5, 4, 0), id="base9"),
        pytest.param(_module_set(6, 6, 4, 0), id="base6"),
    ])
    def test_non_linear_inputs_take_counting(self, monkeypatch, p):
        e = (1,) * p.dim
        shapes = check_shapes(p.precision, 0, e)
        # large enough for ranks, so only the input's structure keeps it off them
        assert p.count * len(shapes) > netverify._RANK_OVERHEAD
        assert netverify._row_space(p) is None
        calls = _count_kernel_calls(monkeypatch)
        v = verify_net(p, 0, e)
        stop = len(shapes) if v else _rows(shapes).index(tuple(v.witness["shape"])) + 1
        assert len(calls) == stop

    def test_shifted_net_keeps_its_verdicts(self):
        p = corpus.faure(5, 5, 5)
        assert verify_net(_shifted(p), 0, (1,) * 5)
        assert u_star(_shifted(p), (1,) * 5) == u_star(p, (1,) * 5) == 0

    @pytest.mark.parametrize("p", [corpus.faure(3, 3, 3), corpus.hammersley(2, 12),
                                   corpus.faure(7, 3, 7)],
                             ids=["faure333", "ham2-12", "faure737"])
    def test_small_inputs_take_counting(self, monkeypatch, p):
        e = (1,) * p.dim
        shapes = check_shapes(p.precision, 0, e)
        assert _recover(p) is not None
        assert p.count * len(shapes) <= netverify._RANK_OVERHEAD
        eliminations = _count_eliminations(monkeypatch)
        calls = _count_kernel_calls(monkeypatch)
        assert verify_net(p, 0, e)
        assert eliminations == []  # refused before any sample is drawn
        assert len(calls) == len(shapes)

    def test_large_two_dimensional_net_takes_ranks(self, monkeypatch):
        # 2**17 points and 18 shapes: counting them measured more than twice
        # the time of the recovery and decision together
        p = corpus.hammersley(2, 17)
        calls = _count_kernel_calls(monkeypatch)
        assert verify_net(p, 0, (1, 1))
        assert calls == []  # no point was counted

    @pytest.mark.parametrize("above", [False, True])
    def test_route_turns_at_the_fixed_cost(self, monkeypatch, above):
        p = corpus.faure(5, 5, 5)
        e = (1,) * 5
        shapes = check_shapes(5, 0, e)
        work = p.count * len(shapes)
        monkeypatch.setattr(netverify, "_RANK_OVERHEAD", work - 1 if above else work)
        eliminations = _count_eliminations(monkeypatch)
        calls = _count_kernel_calls(monkeypatch)
        assert verify_net(p, 0, e)
        assert bool(eliminations) == above
        assert len(calls) == (0 if above else len(shapes))

    def test_recovered_basis_spans_the_points(self):
        p = corpus.faure(3, 4, 3)
        basis, vectors, weights = _recover(p)
        assert basis.shape == (4, 12)
        assert vectors.shape == (0, 12) and weights.shape == (0,)  # no correction
        n, s, m = p.digits.shape
        coeffs = _util.digit_matrix(np.arange(3 ** 4), 4, 3).astype(np.int64)
        span = {tuple(row) for row in coeffs @ basis % 3}
        assert span == {tuple(row) for row in p.digits.reshape(n, s * m).tolist()}

    def test_scan_stops_once_the_correction_cannot_pay(self, monkeypatch):
        # faure(5,5,5) with every row outside the sample altered: the sample
        # has rank m, and the first chunk already holds more points off S
        # than a correction may, so no later chunk is scanned
        net = corpus.faure(5, 5, 5)
        digits = net.digits.astype(np.int64)
        sample = netverify._sample_rows(net.count, 5)
        free = sorted(set(range(net.count)) - set(sample))
        digits[free, 0, 4] = (digits[free, 0, 4] + 1) % 5
        p = PointSet(5, digits)
        monkeypatch.setattr(_util, "_CHUNK_BYTES", 8 * 25 * 200)  # 200 rows a chunk
        chunks = len(_util.row_chunks(p.count, 25))
        assert chunks == 16 and not netverify._correction_pays(p, 200 - len(sample))
        scanned = []
        monkeypatch.setattr(netverify, "rank_rows",
                            lambda *args: scanned.append(1) or _util.rank_rows(*args))
        assert _recover(p) is None
        assert len(scanned) == 1

    @pytest.mark.parametrize("b", [4, 6, 9])
    def test_composite_bases_have_no_basis(self, b):
        assert _recover(_module_set(b, 2, 2, 0)) is None


# ---------------------------------------------------------------------------
# the rank route for a subspace with a few wrong points

def _correction(points, net):
    """P - S by plain multiset difference: {digit vector: weight} over the
    vectors whose multiplicities differ between ``points`` and ``net``."""
    counts = {}
    for sign, q in ((1, points), (-1, net)):
        for row in q.digits.reshape(q.count, -1).tolist():
            counts[tuple(row)] = counts.get(tuple(row), 0) + sign
    return {row: w for row, w in counts.items() if w}


def _recovered(space):
    """The correction ``_row_space`` found, as {digit vector: weight}; each
    vector listed once."""
    _, vectors, weights = space
    recovered = {tuple(row): w for row, w in zip(vectors.tolist(), weights.tolist())}
    assert len(recovered) == len(weights)
    return recovered


# one or two sizes per base, each with rows outside the recovery's sample
_ALTERED_SIZES = {2: (6, 7), 3: (4,), 5: (3,), 7: (2, 3)}


@st.composite
def _altered_nets(draw):
    """(altered point set, the digital net it came from): a net over F_b
    with an identity first matrix, in a random order, then 1-3 changes to
    rows outside the sample: a digit bumped, a point copied over another,
    or one coordinate swapped between two points."""
    b = draw(st.sampled_from(sorted(_ALTERED_SIZES)), label="b")
    m = draw(st.sampled_from(_ALTERED_SIZES[b]), label="m")
    s = draw(st.integers(1, 3), label="s")
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    mats = [np.eye(m, dtype=np.int64)] + [rng.integers(0, b, (m, m)) for _ in range(s - 1)]
    net = corpus.digital_net(b, mats)
    n = net.count
    digits = net.digits[rng.permutation(n)].astype(np.int64)
    free = st.sampled_from(sorted(set(range(n)) - set(netverify._sample_rows(n, m))))
    for _ in range(draw(st.integers(1, 3), label="changes")):
        kind = draw(st.sampled_from(["flip", "duplicate", "swap"]))
        i, c = draw(free), draw(st.integers(0, s - 1))
        if kind == "flip":
            l, step = draw(st.integers(0, m - 1)), draw(st.integers(1, b - 1))
            digits[i, c, l] = (digits[i, c, l] + step) % b
        elif kind == "duplicate":
            digits[i] = digits[draw(st.integers(0, n - 1))]
        else:
            j = draw(free)
            digits[[i, j], c] = digits[[j, i], c]
    return PointSet(b, digits), net


class TestCorrectedRankRoute:
    def test_flipped_digit_is_one_point_off_and_one_missing(self, monkeypatch):
        # faure(5,5,5) with one flipped digit: formerly counted in full
        net = corpus.faure(5, 5, 5)
        p = corpus.flip_digit(net, 1234, 2, 3)
        e = EVector.coerce((1,) * 5)
        shapes = check_shapes(5, 0, e)
        space = netverify._row_space(p)
        assert _recovered(space) == {tuple(p.digits[1234].reshape(-1).tolist()): 1,
                                     tuple(net.digits[1234].reshape(-1).tolist()): -1}
        counted = _decided(p, e, shapes, None)
        star, tezuka_star = (next(u for u in range(6)
                                  if _decided(p, e, check_shapes(5, u, e, variant), None))
                             for variant in ("narrow", "tezuka"))
        calls = _count_kernel_calls(monkeypatch)
        # a (0,5,5)-net: every shape has full rank, so no fallback counts anything
        assert _as_tuple(verify_net(p, 0, e)) == _as_tuple(counted)
        assert not counted
        assert u_star(p, e) == star
        assert u_star(p, e, "tezuka") == tezuka_star
        assert calls == []

    def test_cancelling_cell_zero_counts_that_shape(self, monkeypatch):
        # C_1 = anti-identity with rows 2 and 3 swapped: shapes (0,6), (1,5)
        # and (2,4) have full rank, (3,3) reads a_2 twice and has rank 5, so
        # S puts the kernel {0, x = e_3} in its cell 0
        b, m = 2, 6
        c1 = np.eye(m, dtype=np.int64)[[5, 4, 2, 3, 1, 0]]
        net = corpus.digital_net(b, [np.eye(m, dtype=np.int64), c1])
        digits = net.digits.astype(np.int64)
        flat = digits.reshape(net.count, -1)
        x = next(n for n in range(net.count)
                 if not flat[n, :3].any() and not flat[n, 6:9].any() and flat[n].any())
        free = sorted(set(range(net.count)) - set(netverify._sample_rows(net.count, m)))
        digits[[x, free[0]]] = digits[[free[0], x]]  # x onto a row outside the sample
        # x leaves cell 0 of (3,3) by a digit no earlier shape reads, so that
        # cell holds the expected single point and the shape must be counted
        digits[free[0], 0, 2] ^= 1
        p = PointSet(b, digits)
        e = EVector.coerce((1, 1))
        shapes = check_shapes(m, 0, e)
        space = _recover(p)
        assert _recovered(space) == _correction(p, net) and len(_recovered(space)) == 2
        want = {"shape": [3, 3], "box": [0, 1], "observed": 0, "expected": 1}
        assert oracles.brute_net_witness(p, 0, e) == want
        assert _as_tuple(_decided(p, e, shapes, None)) == (False, want)
        calls = _count_kernel_calls(monkeypatch)
        assert _as_tuple(_decided(p, e, shapes, space)) == (False, want)
        assert calls == [b ** 6]  # that one shape, and nothing else

    def test_a_sampled_point_off_the_subspace_takes_counting(self, monkeypatch):
        net = corpus.faure(5, 5, 5)
        row = netverify._sample_rows(net.count, 5)[0]
        p = corpus.flip_digit(net, row, 2, 3)
        e = (1,) * 5
        shapes = check_shapes(5, 0, e)
        assert p.count * len(shapes) > netverify._RANK_OVERHEAD
        assert netverify._row_space(p) is None
        calls = _count_kernel_calls(monkeypatch)
        v = verify_net(p, 0, e)
        assert len(calls) == _rows(shapes).index(tuple(v.witness["shape"])) + 1

    def test_a_correction_past_the_limit_takes_counting(self, monkeypatch):
        net = corpus.faure(5, 5, 5)
        free = sorted(set(range(net.count)) - set(netverify._sample_rows(net.count, 5)))
        # each flip of a distinct point adds one point off S and one missing member
        flips = max(k for k in range(net.count) if netverify._correction_pays(net, 2 * k))
        e = (1,) * 5
        shapes = check_shapes(5, 0, e)
        assert net.count * len(shapes) > netverify._RANK_OVERHEAD
        for k in (flips, flips + 1):
            p = net
            for row in free[:k]:
                p = corpus.flip_digit(p, row, row % 5, row % 3)
            space = netverify._row_space(p)
            calls = _count_kernel_calls(monkeypatch)
            v = verify_net(p, 0, e)
            if k == flips:
                assert len(_recovered(space)) == 2 * k
                assert _recovered(space) == _correction(p, net)
                assert calls == []
            else:
                assert space is None
                assert len(calls) == _rows(shapes).index(tuple(v.witness["shape"])) + 1
            monkeypatch.undo()

    @settings(deadline=None, max_examples=60)
    @given(_altered_nets(), st.data())
    def test_agrees_with_counting_and_oracle(self, altered, data):
        p, net = altered
        m, s = p.precision, p.dim
        e = EVector.coerce(tuple(data.draw(st.integers(1, 2), label="e_i") for _ in range(s)))
        u = data.draw(st.integers(0, m), label="u")
        variant = data.draw(st.sampled_from(["narrow", "tezuka"]), label="variant")
        want = oracles.brute_net_witness(p, u, e, variant)
        shapes = check_shapes(m, u, e, variant)
        assert _as_tuple(_decided(p, e, shapes, None)) == (want is None, want)
        correction = _correction(p, net)
        space = _recover(p)
        # the sample holds no altered row, so only the size limit refuses
        assert (space is None) == (not netverify._correction_pays(p, len(correction)))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(netverify, "_correction_pays", lambda points, size: True)
            space = _recover(p)
            assert _recovered(space) == correction
            assert _as_tuple(_decided(p, e, shapes, space)) == (want is None, want)
            # and through the public entries, with the rank route forced
            mp.setattr(netverify, "_RANK_OVERHEAD", -1)
            assert _as_tuple(verify_net(p, u, e, variant)) == (want is None, want)
            assert u_star(p, e, variant) == next(
                v for v in range(m + 1) if oracles.brute_net_witness(p, v, e, variant) is None)


# ---------------------------------------------------------------------------
# minimal quality search

class TestUStar:
    def test_matches_linear_oracle(self, ham23, ham32):
        sets = [ham23, ham32, _flip012(ham23), corpus.hammersley(2, 4),
                PointSet(2, np.zeros((8, 1, 3), dtype=np.int64))]
        sets += [corpus.random_pointset(2, 3, 2, seed) for seed in range(6)]
        for p in sets:
            for e in {(1,) * p.dim, (2,) * p.dim, (1, 2)[:p.dim]}:
                for variant in ("narrow", "tezuka"):
                    assert u_star(p, e, variant) == oracles.brute_u_star(p, e, variant)

    @pytest.mark.parametrize("variant", ["narrow", "tezuka"])
    def test_arguments_checked_without_any_search(self, variant):
        one_point = PointSet(2, np.zeros((1, 2, 0), dtype=np.int64))  # m = 0
        assert u_star(one_point, (1, 1), variant) == 0
        with pytest.raises(ParamError, match="e-vector has 3 entries"):
            u_star(one_point, (1, 1, 1), variant)
        with pytest.raises(ParamError, match="net candidates need"):
            u_star(PointSet(2, np.zeros((3, 2, 1), dtype=np.int64)), (1, 1), variant)

    @staticmethod
    def _count_calls(monkeypatch):
        """The shapes of every decision u_star takes, one per search step."""
        calls = []
        real = netverify._decide

        def counting(points, e, shapes, space):
            calls.append(_rows(shapes))
            return real(points, e, shapes, space)

        monkeypatch.setattr(netverify, "_decide", counting)
        return calls

    @pytest.mark.parametrize("m", range(0, 9))
    def test_narrow_reads_the_cheapest_list_first(self, monkeypatch, m):
        calls = self._count_calls(monkeypatch)
        for p in (corpus.random_pointset(2, m, 2, m), corpus.hammersley(2, m)):
            calls.clear()
            star = u_star(p, (1, 1))
            assert len(calls) <= math.ceil(math.log2(m + 1))
            assert calls[:1] == ([_rows(check_shapes(m, m - 1, (1, 1)))] if m else [])
            assert verify_net(p, star, (1, 1))
            assert star == 0 or not verify_net(p, star - 1, (1, 1))

    def test_tezuka_linear_returns_first_pass(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        p = PointSet(2, np.zeros((8, 1, 3), dtype=np.int64))
        assert u_star(p, (2,), variant="tezuka") == 0  # despite failing at u=1
        assert calls == [_rows(check_shapes(3, 0, (2,), "tezuka"))]
        calls.clear()
        assert u_star(_flip012(corpus.hammersley(2, 3)), (1, 1), variant="tezuka") == 1
        assert calls == [_rows(check_shapes(3, u, (1, 1), "tezuka")) for u in (0, 1)]


# ---------------------------------------------------------------------------
# sequence prefixes

def _vdc_prefix(m_digits, n_points):
    """First points of the base-2 digit-reversal sequence, m_digits carried."""
    return PointSet(2, corpus.hammersley(2, m_digits).digits[:n_points, [0]])


def _faure_prefix(b, m, s):
    """The first b**m points of the (s - 1)-dimensional Faure sequence in
    base b, m digits carried: faure(b, m, s) less its first coordinate, which
    is n / b**m rather than a sequence coordinate."""
    return PointSet(b, corpus.faure(b, m, s).digits[:, 1:])


def _brute_prefix_witness(prefix, u, e, m_max):
    """``verify_sequence_prefix``'s witness, None on a pass: every complete
    block in (m, g) order, each truncated to m digits and checked by
    ``oracles.brute_net_witness``."""
    b = prefix.base
    for m in range(u + 1, m_max + 1):
        for g in range(prefix.count // b ** m):
            block = PointSet(b, prefix.digits[g * b ** m:(g + 1) * b ** m, :, :m])
            witness = oracles.brute_net_witness(block, u, e)
            if witness is not None:
                return {"g": g, "m": m, "net_witness": witness}
    return None


class TestSequencePrefix:
    def test_reference_sequence_passes(self):
        p = _vdc_prefix(4, 16)
        assert verify_sequence_prefix(p, 0, (1,), 4)

    def test_partial_blocks_are_skipped(self):
        p = _vdc_prefix(4, 12)  # 12 points: one complete m=3 block, no m=4 block
        assert verify_sequence_prefix(p, 0, (1,), 4)

    def test_frozen_swap_witness(self):
        digits = _vdc_prefix(4, 16).digits.copy()
        digits[[4, 8]] = digits[[8, 4]]
        swapped = PointSet(2, digits)
        v = verify_sequence_prefix(swapped, 0, (1,), 4)
        assert not v
        assert (v.witness["g"], v.witness["m"]) == (0, 3)
        assert v.witness["net_witness"]["observed"] == 2
        # the swap is invisible at 2 digits and as a whole 16-point multiset
        assert verify_sequence_prefix(swapped, 0, (1,), 2)
        block = PointSet(2, swapped.digits)
        assert verify_net(block, 0, (1,))

    def test_second_block_failures_are_located(self):
        digits = _vdc_prefix(4, 16).truncate(3).digits.copy()
        digits[9] = digits[8]  # duplicate a point inside the fifth m=1 block
        broken = PointSet(2, digits)
        v = verify_sequence_prefix(broken, 0, (1,), 3)
        assert not v
        assert (v.witness["g"], v.witness["m"]) == (4, 1)

    @pytest.mark.parametrize("b,m,s", [(3, 4, 3), (5, 3, 5)])
    def test_faure_prefixes_agree_with_the_oracle(self, b, m, s):
        failed = 0
        for flip in (None, (40, 0, 1), (b ** m - 1, s - 2, 0), (b + 1, s - 2, m - 1)):
            full = _faure_prefix(b, m, s)
            if flip is not None:
                full = corpus.flip_digit(full, *flip)
            for n_points in (b ** m, 2 * b ** (m - 1) + 1):
                prefix = PointSet(b, full.digits[:n_points])
                for e in ((1,) * (s - 1), (2,) + (1,) * (s - 2)):
                    for u in (0, 1):
                        want = _brute_prefix_witness(prefix, u, e, m)
                        v = verify_sequence_prefix(prefix, u, e, m)
                        assert _as_tuple(v) == (want is None, want), (flip, n_points, e, u)
                        assert want is None or flip is not None  # the sequence passes
                        failed += want is not None
        assert failed > 4  # and flipped digits are seen

    def test_small_blocks_are_counted_without_a_sample(self, monkeypatch):
        # the largest block holds 3**8 points and has 9 shapes: 59049
        # point-shapes, below the recovery's fixed cost, so no block pays for
        # a sample elimination
        eliminations = _count_eliminations(monkeypatch)
        assert verify_sequence_prefix(_faure_prefix(3, 8, 3), 0, (1, 1), 8)
        assert 3 ** 8 * len(check_shapes(8, 0, (1, 1))) <= netverify._RANK_OVERHEAD
        assert eliminations == []

    def test_m_max_beyond_precision(self):
        p = _vdc_prefix(3, 8)
        with pytest.raises(PrecisionError):
            verify_sequence_prefix(p, 0, (1,), 4)

    @pytest.mark.parametrize("u,m_max", [(0, 0), (3, 3), (0, 3)])
    def test_e_vector_length_is_checked_before_any_block(self, u, m_max):
        with pytest.raises(ParamError, match="e-vector has 2 entries, point set has 1"):
            verify_sequence_prefix(_vdc_prefix(3, 8), u, (1, 1), m_max)

    @pytest.mark.parametrize("u, m_max, message", [
        (0, -1, "m_max must be >= 0, got -1"),
        (0, -3, "m_max must be >= 0, got -3"),
        (-1, 3, "u must be >= 0, got -1"),
    ])
    def test_negative_u_or_m_max_is_rejected(self, u, m_max, message):
        with pytest.raises(ParamError, match=f"^{message}$"):
            verify_sequence_prefix(_vdc_prefix(3, 8), u, (1,), m_max)


# ---------------------------------------------------------------------------
# projections and base changes

class TestProjectAndRebase:
    def test_projection_keeps_the_property(self, ham23, faure333):
        # a projection keeps each point's digits at the selected coordinates
        assert verify_net(PointSet(2, ham23.digits[:, [0]]), 0, (1,))
        assert verify_net(PointSet(2, ham23.digits[:, [1]]), 0, (1,))
        for coords in ([0, 1], [1, 2], [0, 2], [2, 0]):
            assert verify_net(PointSet(3, faure333.digits[:, coords]), 0, (1, 1))

    def test_rebase_round_trip(self, ham23):
        p4 = rebase_compress(corpus.hammersley(2, 4), 2)
        assert p4.base == 4 and p4.precision == 2
        back = rebase_expand(p4, 2)
        assert back == corpus.hammersley(2, 4)

    def test_rebase_preserves_values(self):
        p = corpus.hammersley(2, 4)
        q = rebase_compress(p, 2)
        for n in range(p.count):
            for i in range(p.dim):
                assert p.coordinate_value(n, i) == q.coordinate_value(n, i)

    def test_rebase_compress_keeps_net_property_classically(self):
        # base-2 m=4 reference net -> base-4 m=2 net at e=(1,1)
        q = rebase_compress(corpus.hammersley(2, 4), 2)
        assert verify_net(q, 0, (1, 1))

    @pytest.mark.parametrize("rebase, r, message", [
        (rebase_compress, 2, "precision 3 is not a multiple of 2"),
        (rebase_expand, 2, "base 2 is not an integer raised to the power 2"),
        (rebase_compress, 0, "group size must be >= 1, got 0"),
        (rebase_expand, -1, "group size must be >= 1, got -1"),
    ])
    def test_rebase_validation(self, ham23, rebase, r, message):
        with pytest.raises(ParamError, match=f"^{message}$"):
            rebase(ham23, r)
        assert rebase(ham23, 1) is ham23

    def test_rebase_expand_refuses_huge_group_at_once(self):
        import time
        p4 = rebase_compress(corpus.hammersley(2, 4), 2)
        start = time.perf_counter()
        with pytest.raises(ParamError, match="raised to the power 1000000000000$"):
            rebase_expand(p4, 10 ** 12)
        assert time.perf_counter() - start < 1.0
        for r in (3, 4):  # 2**r > 4: refused before any root is tried
            with pytest.raises(ParamError):
                rebase_expand(p4, r)
        with pytest.raises(ParamError, match="base 8 is not an integer raised to the power 2"):
            rebase_expand(rebase_compress(corpus.hammersley(2, 3), 3), 2)

    @settings(deadline=None, max_examples=60)
    @given(st.sampled_from([(2, 2), (2, 3), (3, 2)]), st.data())
    def test_base_change_rule(self, br, data):
        # P in base b**r at quality t and e = 1 is, digit for digit, the
        # expanded set in base b at quality r*t and e = r: the same boxes,
        # each shape's depths multiplied by r
        b, r = br
        m = data.draw(st.integers(1, 3), label="m")
        s = data.draw(st.integers(1, 3), label="s")
        kind = data.draw(st.sampled_from(["compressed", "random", "hammersley"]), label="kind")
        if kind == "compressed":  # a base-b net, its digits grouped r at a time
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
            mats = [np.eye(r * m, dtype=np.int64)] + [rng.integers(0, b, (r * m, r * m))
                                                      for _ in range(s - 1)]
            q = corpus.digital_net(b, mats)
            p = rebase_compress(q, r)
            assert rebase_expand(p, r) == q
        elif kind == "random":
            p = corpus.random_pointset(b ** r, m, s, data.draw(st.integers(0, 99), label="seed"))
        else:
            p = PointSet(b ** r, corpus.hammersley(b ** r, m).digits[:, [0, 1, 0][:s]])
        for _ in range(data.draw(st.integers(0, 2), label="flips")):
            p = corpus.flip_digit(p, data.draw(st.integers(0, p.count - 1)),
                                  data.draw(st.integers(0, s - 1)),
                                  data.draw(st.integers(0, m - 1)))
        q = rebase_expand(p, r)
        for variant in ("narrow", "tezuka"):
            for t in range(m + 1):
                coarse, fine = verify_net(p, t, (1,) * s, variant), \
                    verify_net(q, r * t, (r,) * s, variant)
                assert bool(coarse) == bool(fine)
                if not coarse:
                    want = dict(coarse.witness, shape=[r * d for d in coarse.witness["shape"]])
                    assert fine.witness == want
        star = u_star(p, (1,) * s)
        assert u_star(q, (r,) * s) == max(0, r * (star - 1) + 1)

    @pytest.mark.parametrize("base,r", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (6, 2), (7, 3)])
    def test_rebase_expand_finds_integer_root(self, base, r):
        p = corpus.hammersley(base, r)
        assert rebase_expand(rebase_compress(p, r), r) == p
