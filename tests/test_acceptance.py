"""Acceptance gate: one test per criterion, one printed verdict line each.

Every criterion is decided in exact arithmetic (criterion 7 decides its Gram
identities over the integers, with no tolerance; criterion 3 carries a
60-second wall-clock budget). Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from evnets import (
    EVector, PointSet,
    build_block_family, enumerate_profiles, feasibility_report,
    gram_certificate, max_strength, mooa_to_net, net_to_moa, net_to_mooa,
    net_chunks, rao_rhs, u_star, verify_moa, verify_mooa, verify_net,
)
from evnets import corpus
from evnets.cli import main as cli_main

import oracles


@contextmanager
def criterion(n, label, budget_s=60.0):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {n}: FAIL — {label}")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, \
        f"criterion {n} exceeded its {budget_s:.0f}s budget ({elapsed:.1f}s)"
    print(f"\nACCEPTANCE {n}: PASS — {label} ({elapsed:.2f}s)")


def _corpus_nets():
    sets = []
    for b in (2, 3):
        for m in range(1, 7):
            sets.append((corpus.grid_1d(b, m), (1,)))
    for b in (2, 3):
        for m in range(1, 6):
            sets.append((corpus.hammersley(b, m), (1, 1)))
    for m in range(3, 6):
        sets.append((corpus.hammersley(2, m), (1, 2)))
    for m in range(1, 5):
        sets.append((corpus.faure(3, m, 3), (1, 1, 1)))
    return sets


def test_criterion_1_ordered_array_round_trip():
    with criterion(1, "net -> ordered array -> net round trip, digit-exact"):
        checked = 0
        for points, e in _corpus_nets():
            for u in (0, 1):
                if points.precision < u + max(e):
                    continue
                arr = net_to_mooa(points, u, e)
                assert verify_mooa(arr), (points, u, e)
                back = mooa_to_net(arr)
                for i, (ei, bi) in enumerate(zip(e, arr.beta)):
                    keep = bi * ei
                    assert np.array_equal(back.digits[:, i, :keep],
                                          points.digits[:, i, :keep])
                    assert not back.digits[:, i, keep:].any()
                checked += 1
        assert checked >= 30


def test_criterion_2_mixed_array_strength():
    with criterion(2, "leading-digit arrays reach the guaranteed strength"):
        cases = (
            [(corpus.hammersley(2, m), (1, 1)) for m in range(2, 6)]
            + [(corpus.hammersley(2, m), (1, 2)) for m in range(3, 6)]
            + [(corpus.hammersley(3, m), (1, 1)) for m in range(2, 5)]
            + [(corpus.faure(3, m, 3), (1, 1, 1)) for m in range(2, 5)]
            + [(corpus.faure(5, 2, 4), (1, 1, 1, 1))]
        )
        checked = 0
        for points, e in cases:
            array = net_to_moa(points, e)
            m = points.precision
            budgets = sorted(e, reverse=True)
            for t in range(2, len(e) + 1):
                if sum(budgets[:t]) > m:
                    continue
                assert verify_moa(array, t), (points, e, t)
                checked += 1
            assert max_strength(array) >= max(
                (t for t in range(2, len(e) + 1) if sum(budgets[:t]) <= m),
                default=0)
        assert checked >= 12


def test_criterion_3_mode_agreement_and_u_star():
    with criterion(3, "maximal-shape pruning matches exhaustive checking",
                   budget_s=60.0):
        pool = []
        for seed in range(200):
            m = 1 + seed % 4
            s = 1 + seed % 3
            pool.append(corpus.random_pointset(2, m, s, seed))
        pool += [p for p, _ in _corpus_nets() if p.base == 2]
        pool.append(corpus.flip_digit(corpus.hammersley(2, 3), 0, 1, 2))
        pool.append(corpus.flip_digit(corpus.hammersley(2, 4), 3, 0, 1))
        for points in pool:
            e = (1,) * points.dim
            for variant in ("narrow", "tezuka"):
                exhaustive = [oracles.brute_verify_net(points, u, e, variant, "all")
                              for u in range(points.precision + 1)]
                for u, want in enumerate(exhaustive):
                    assert bool(verify_net(points, u, e, variant)) == want, \
                        (points, u, variant)
                # the oracle's u_star is the first passing u of this scan
                assert u_star(points, e, variant) == exhaustive.index(True)


def test_criterion_4_lumping_invariance():
    with criterion(4, "row bound is invariant under alphabet lumping"):
        rng = np.random.default_rng(0)
        sizes = np.array([2, 3, 4, 9])  # b**e for b in {2, 3}, e in {1, 2}
        for trial in range(200):
            s = int(rng.integers(1, 7))
            alphabets = [int(x) for x in rng.choice(sizes, size=s)]
            for t in (2, 4):
                lumped = rao_rhs(sorted(Counter(alphabets).items()), t)
                unlumped = rao_rhs([(l, 1) for l in sorted(alphabets)], t)
                assert lumped == unlumped, (alphabets, t)


def test_criterion_5_classical_feasibility_threshold():
    with criterion(5, "order-2 unit-resolution nets: feasible iff s <= b + 1"):
        for b in (2, 3, 5):
            for s in range(2, 2 * b + 3):
                report = feasibility_report(b, 2, (1,) * s, "net")
                assert report.feasible == (s <= b + 1), (b, s)


def test_criterion_6_sequence_budget_conditions():
    with criterion(6, "sequence coordinate budgets accept/reject correctly"):
        reject_k1 = feasibility_report(2, 6, (1, 1, 1), "sequence")
        assert not reject_k1.feasible
        assert any(c.name == "kr-r1" for c in reject_k1.violations)

        reject_joint = feasibility_report(2, 6, (1, 1, 2, 2, 2), "sequence")
        assert not reject_joint.feasible
        assert any(c.name == "lcm-{1,2}" for c in reject_joint.violations)

        accept = feasibility_report(2, 6, (1, 1, 2, 2), "sequence")
        assert accept.feasible
        assert all(c.satisfied for c in accept.conditions)


def test_criterion_7_character_certificates():
    with criterion(7, "Gram identity holds exactly for every maximal block "
                      "family"):
        cases = (
            [(corpus.hammersley(2, m), (1, 1)) for m in range(2, 9)]
            + [(corpus.hammersley(2, m), (1, 2)) for m in range(3, 9)]
            + [(corpus.hammersley(3, m), (1, 1)) for m in range(2, 6)]
            + [(corpus.faure(3, m, 3), (1, 1, 1)) for m in range(2, 5)]
        )
        families = 0
        for points, e in cases:
            assert points.count <= 256
            arr = net_to_mooa(points, 0, e)
            for kappa in enumerate_profiles(arr.m, arr.u, arr.e, arr.beta):
                family = build_block_family(arr, kappa)
                assert len(family) == arr.base ** sum(
                    k * ei for k, ei in zip(kappa, arr.e))
                assert gram_certificate(arr, family), (points.base, arr.m, e,
                                                       kappa)
                families += 1
        assert families >= 50


def test_criterion_8_defect_detection_and_search():
    with criterion(8, "single-digit defects located; impossible parameters "
                      "refuted by search"):
        defective = corpus.flip_digit(corpus.hammersley(2, 3), 1, 1, 2)
        assert u_star(defective, (1, 1)) == 1
        assert u_star(defective, (1, 2)) == 0
        assert not verify_net(defective, 0, (1, 1))
        assert verify_net(defective, 0, (1, 2))

        result = corpus.search_net(2, 2, (1, 1, 1, 1), 4, 0)
        assert result.status == "nonexistent"
        assert result.net is None

        found = corpus.search_net(2, 2, (1, 1), 2, 0)
        assert found.status == "found"
        assert verify_net(found.net, 0, (1, 1))


def test_criterion_9_cli_pipelines(capsys, tmp_path, monkeypatch):
    with criterion(9, "command pipelines: exit codes and byte-stable output"):
        def run(*argv):
            code = cli_main(list(argv))
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        # generate -> verify: exit 0
        net_path = tmp_path / "h.net"
        code, _, _ = run("gen", "hammersley", "--base", "2", "--m", "4",
                         "--out", str(net_path))
        assert code == 0
        code, out_pass, _ = run("verify-net", str(net_path), "--json")
        assert code == 0 and '"pass": true' in out_pass

        # corrupted input: exit 1 with a witness
        bad = corpus.flip_digit(corpus.hammersley(2, 4), 1, 1, 3)
        bad_path = tmp_path / "bad.net"
        bad_path.write_bytes(b"".join(net_chunks(bad, 0, EVector((1, 1)))))
        code, out_fail, _ = run("verify-net", str(bad_path), "--json")
        assert code == 1 and '"witness"' in out_fail

        # necessary-condition violation: exit 1 and the exact comparison
        code, out_rao, _ = run("rao", "--base", "2", "--m", "2",
                               "--e", "1,1,1,1", "--t", "2")
        assert code == 1 and "LHS 4 > RHS 3" in out_rao

        # ordered-array round trip is byte-identical
        code, mooa_text, _ = run("to-mooa", str(net_path))
        assert code == 0
        mooa_path = tmp_path / "h.mooa"
        mooa_path.write_text(mooa_text)
        code, rebuilt, _ = run("from-mooa", str(mooa_path))
        assert code == 0 and rebuilt == net_path.read_text()

        # malformed file: exit 3
        broken = tmp_path / "broken.net"
        broken.write_text("NET v1\nbase 2 m 2 s 1\ne 1\n00\n")
        code, _, err = run("verify-net", str(broken))
        assert code == 3 and err.startswith("error: line 2")

        # capped search: exit 4
        code, _, err = run("gen", "search", "--base", "2", "--m", "2",
                           "--s", "4", "--e", "1x4", "--u", "0",
                           "--node-limit", "1")
        assert code == 4 and "INCONCLUSIVE" in err

        # byte-identical across repeat runs
        repeats = [run("verify-net", str(bad_path), "--json")[1] for _ in range(3)]
        assert repeats[0] == repeats[1] == repeats[2] == out_fail
        mooa_again = run("to-mooa", str(net_path))[1]
        assert mooa_again == mooa_text
        code, report_a, _ = run("report", str(net_path), "--json")
        _, report_b, _ = run("report", str(net_path), "--json")
        assert code == 0 and report_a == report_b
