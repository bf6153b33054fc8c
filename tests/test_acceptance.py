"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Each criterion body raises on the first violation; the wrapper prints the
line either way so a scan of the output shows the full scoreboard. Timed
criteria measure wall-clock and fail when over budget.
"""

import random
import time
from fractions import Fraction

from bsmg import tree
from bsmg.cocycle.levelmodel import BSLevelModel
from bsmg.cocycle.mackey import TypeLabel, classify_type, one_loop_model
from bsmg.dynamics import ThetaValue, rotation_model_orbit
from bsmg.groupoid.randomgen import partition_groupoid
from bsmg.profinite import verify_limit_shadow
from bsmg.suite import (check_beta_laws, check_cesaro_mixing,
                        check_component_counts, check_flow_types,
                        check_index_laws, check_local_index_group,
                        check_local_index_laws, check_mackey_laws,
                        check_modular_transfers, check_quotient_contract,
                        check_trivial_words)
from bsmg.words import BSParams, GroupWord, classify_isomorphism, normalize

from oracles import (ball, enumerate_levels, iso_orbit, oracle_normal_form,
                     smallest_power_index)

PARAM_PAIRS = ((2, 3), (2, 5), (4, 6), (6, 9), (2, -3))


def run_criterion(number, text, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {text}")
        raise
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _rng(number):
    return random.Random(f"acceptance:{number}")


def test_criterion_01_level_model_identity():
    def body():
        t0 = time.monotonic()
        arrows = 0
        for p, q in PARAM_PAIRS:
            params = BSParams(p, q)
            for k in (1, 2):
                for l in (0, 1, 2):
                    model = BSLevelModel(params, k, l)
                    arrows += model.check_modular_identity()
        elapsed = time.monotonic() - t0
        assert arrows > 0
        assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"

    run_criterion(1, "thirty level models multiply D*K to |q/p| exactly",
                  body)


def test_criterion_02_index_laws():
    def body():
        t0 = time.monotonic()
        check_index_laws(_rng(2), 500)
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0, f"took {elapsed:.2f}s, budget 30s"

    run_criterion(2, "index laws hold on 500 random groupoids", body)


def test_criterion_03_local_index():
    def body():
        check_local_index_laws(_rng(3), 200)
        check_local_index_group(_rng(3), 50)

    run_criterion(3, "local index towers (200) and group values (50)", body)


def test_criterion_04_quotients():
    def body():
        check_quotient_contract(_rng(4), 100)

    run_criterion(4, "quotient contract on 100 normal pairs", body)


def test_criterion_05_cohomology():
    def body():
        check_modular_transfers(_rng(5), 100)

    run_criterion(5, "explicit transfer potentials on 100 cases, "
                     "never falling back to None", body)


def test_criterion_06_mackey_roundtrip():
    def body():
        check_flow_types(_rng(6), 7)
        check_mackey_laws(_rng(6), 50)

    run_criterion(6, "scaled products classify as the n-th power and "
                     "Mackey ranges are invariant on 50 cocycles", body)


def test_criterion_07_type_classification():
    def body():
        got = classify_type(one_loop_model([Fraction(3, 2)]))
        assert got == TypeLabel("III_lambda", Fraction(2, 3)), str(got)
        got = classify_type(one_loop_model([Fraction(2), Fraction(3)]))
        assert got.kind == "III_1", str(got)
        uniform = partition_groupoid([Fraction(1, 4)] * 4, [[0, 1], [2, 3]])
        assert classify_type(uniform).kind == "II"

    run_criterion(7, "one-loop models classify as III_2/3, III_1, and II",
                  body)


def test_criterion_08_stabilizer_index():
    def body():
        t0 = time.monotonic()
        expected_max = {(2, 3): 81, (4, 6): 162}
        expected_size = {(2, 3): 426, (4, 6): 8201}
        for p, q in ((2, 3), (4, 6)):
            params = BSParams(p, q)
            vertices = ball(params, 4)
            assert len(vertices) == expected_size[(p, q)]
            v0 = tree.base_vertex(params)
            top = 0
            for v in vertices:
                got = tree.stabilizer_index(v0, v)
                assert got == smallest_power_index(v0, v), v.to_text()
                top = max(top, got)
            assert top == expected_max[(p, q)]
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"

    run_criterion(8, "stabilizer index matches smallest-power search on "
                     "radius-4 balls of BS(2,3) and BS(4,6)", body)


def test_criterion_09_profinite_exhaustive():
    def body():
        levels = 0
        for p, q in PARAM_PAIRS:
            params = BSParams(p, q)
            for K, L in enumerate_levels(params, 10_000):
                counts = verify_limit_shadow(params, K, L)
                assert counts["sigma_kernel"] > 0
                levels += 1
        assert levels > 0

    run_criterion(9, "scaling laws pass exhaustively at every level with "
                     "modulus at most 10000", body)


def test_criterion_10_dynamics():
    def body():
        check_beta_laws(_rng(10), 3)
        check_trivial_words(_rng(10), 4)
        rep = rotation_model_orbit(ThetaValue.golden(), 1, steps=100_000)
        assert rep.discrepancy < Fraction(1, 1000), str(rep.discrepancy)
        check_cesaro_mixing(_rng(10), 1)
        check_component_counts(_rng(10), 50)

    run_criterion(10, "return times monotone and unbounded, kernel words "
                      "act trivially, discrepancy and Cesaro gaps in "
                      "bounds, 50 divisibility tables", body)


def test_criterion_11_word_algebra():
    def body():
        rng = _rng(11)
        params_pool = [BSParams(p, q) for p, q in PARAM_PAIRS]
        for i in range(100_000):
            params = params_pool[i % len(params_pool)]
            runs = []
            for _ in range(rng.randint(1, 7)):
                letter = rng.choice("at")
                top = 8 if letter == "a" else 2
                runs.append((letter, rng.choice((-1, 1)) * rng.randint(1, top)))
            word = GroupWord(runs)
            nf = normalize(word, params)
            assert (nf.k0, nf.syllables) == oracle_normal_form(word, params)
            again = normalize(nf.to_word(), params)
            assert (again.k0, again.syllables) == (nf.k0, nf.syllables)

        values = [v for v in range(-6, 7) if v != 0]
        orbits = {}
        for p in values:
            for q in values:
                orbits[(p, q)] = iso_orbit(p, q)
        for p in values:
            for q in values:
                for r in values:
                    for s in values:
                        got = classify_isomorphism(p, q, r, s)
                        assert got == ((r, s) in orbits[(p, q)]), (p, q, r, s)

    run_criterion(11, "100000 normal forms match the rescan oracle and the "
                      "parameter classifier is exhaustive to 6", body)
