"""The one certified law: every certificate states its spanning arrows and
its sufficient pairs, and GroupoidCocycle.check, validate and
measure_preserving answer from them through law_holds, with the verdict and
message of the fiber scan."""

import ast
import copy
import random
from fractions import Fraction
from pathlib import Path

import pytest

import bsmg
from bsmg.cocycle.values import (GroupoidCocycle, QPos, ZAdd, ZModAdd,
                                 coboundary)
from bsmg.groupoid.core import certificate, law_holds, validate
from test_cocycles import TARGETS, action_samples
from test_groupoid_core import pair_samples, scanned

PACKAGE = Path(bsmg.__file__).parent

# names of the per-kind answers that the law replaced
RETIRED = {"potential_holds", "axioms_hold", "preserves_masses",
           "generator_pairs", "_generator_law", "_reciprocal"}


def samples():
    return pair_samples() + action_samples()


def verdict(run):
    """("ok", None) when run() returns, else the error's type and message."""
    try:
        run()
    except Exception as exc:  # the scan's own errors are compared as well
        return type(exc).__name__, str(exc)
    return "ok", None


def corrupted(G, target, draw, values, rng):
    """values with one to three arrows moved off by a draw other than the
    identity; a unit arrow is among them half of the time."""
    out = list(values)
    arrows = rng.sample(range(G.n_arrows), rng.randint(1, 3))
    if rng.random() < 0.5:
        arrows.append(rng.randrange(G.n_units))
    for g in arrows:
        bump = target.identity
        while bump == target.identity:
            bump = draw(rng)
        out[g] = target.op(out[g], bump)
    return out


def with_rn(G, rn):
    """G with the RN values rn attached, certificate and product kept."""
    H = copy.copy(G)
    H.rn_values = tuple(rn)
    return H


class TestTheCertificateFacts:
    def test_spanning_arrows_and_pairs_are_arrows_of_g(self):
        for G in samples():
            cert = certificate(G)
            if cert.kind == "pair":
                # one arrow into every unit, from the lowest unit of its
                # component
                assert [G.rng[h] for h in cert.spanning] == list(
                    range(G.n_units))
                assert all(G.src[h] == min(
                    x for x in range(G.n_units)
                    if cert.component_of[x] == cert.component_of[y])
                    for y, h in enumerate(cert.spanning))
            else:
                assert len(cert.spanning) == len(cert.generators) * G.n_units
            pairs = list(cert.pairs(G))
            # each arrow is the product of some pair
            assert {k for _, _, k in pairs} == set(range(G.n_arrows))
            for g, h, k in pairs:
                assert G.product(g, h) == k

    def test_every_cocycle_obeys_the_law(self):
        rng = random.Random("certified-law:cocycles")
        for G in samples():
            for target, draw, _ in TARGETS:
                c = coboundary(G, target, [draw(rng) for _ in
                                           range(G.n_units)])
                assert law_holds(G, c.values, certificate(G).pairs(G),
                                 None if target is QPos else target.op,
                                 target.identity)


class TestAgainstTheScan:
    @pytest.mark.parametrize("target,draw,bump", TARGETS)
    def test_check_gives_the_scan_verdict(self, target, draw, bump):
        rng = random.Random(f"certified-law:check:{target.name}")
        for G in samples():
            c = coboundary(G, target, [draw(rng) for _ in range(G.n_units)])
            trials = [list(c.values)] + [
                corrupted(G, target, draw, c.values, rng) for _ in range(4)]
            if target is QPos:
                # a value that is not positive, which the law refuses
                negative = list(c.values)
                g = rng.choice([g for g in range(G.n_units, G.n_arrows)
                                if G.inv[g] != g])
                negative[g] = -negative[g]
                trials.append(negative)
            for values in trials:
                values = tuple(values)
                fast = verdict(GroupoidCocycle(G, target, values).check)
                assert fast == verdict(
                    GroupoidCocycle(scanned(G), target, values).check)
            assert fast[0] == "NotACocycle" or target is not QPos

    def test_validate_gives_the_scan_verdict(self):
        rng = random.Random("certified-law:validate")
        _, draw, _ = TARGETS[0]
        for G in samples():
            # the big level models cost n^4 scan triples per corruption
            tries = 1 if G.n_arrows > 200 else 4
            c = coboundary(G, QPos, [draw(rng) for _ in range(G.n_units)])
            trials = [list(c.values)] + [
                corrupted(G, QPos, draw, c.values, rng) for _ in range(tries)]
            zero = list(c.values)
            zero[rng.randrange(G.n_units, G.n_arrows)] = Fraction(0)
            trials.append(zero)
            for rn in trials:
                H = with_rn(G, rn)
                assert validate(H) == validate(scanned(H))
            assert validate(with_rn(G, c.values)) == []

    def test_measure_preserving_gives_the_scan_verdict(self):
        for G in samples():
            assert G.measure_preserving == scanned(G).measure_preserving
            masses = list(G.masses)
            masses[-1] += 1
            H = copy.copy(G)
            H.masses = tuple(masses)
            assert H.measure_preserving == scanned(H).measure_preserving

    def test_a_value_mod_n_outside_the_range_fails_as_in_the_scan(self):
        # 7 and 1 are one class mod 6, but the scan compares 7 with a
        # product reduced mod 6; every arrow is the product of a pair, so
        # the law compares it too
        target = ZModAdd(6)
        for G in samples():
            values = list(coboundary(G, target, [0] * G.n_units).values)
            spanning = certificate(G).spanning
            g = max(g for g in range(G.n_units, G.n_arrows)
                    if G.inv[g] != g and g not in spanning)
            values[g] += 6
            want = verdict(GroupoidCocycle(scanned(G), target,
                                           tuple(values)).check)
            assert want[0] == "NotACocycle"
            assert verdict(GroupoidCocycle(G, target,
                                           tuple(values)).check) == want

    def test_units_off_the_identity_fail_as_in_the_scan(self):
        # c(g) = psi(r(g)) / phi(s(g)) multiplies on every pair (h_r, h_s^-1,
        # g) of a pair groupoid, but sends 1_x to psi(x) / phi(x): only the
        # law's unit test refuses it
        rng = random.Random("certified-law:units")
        for G in pair_samples():
            if G.n_units < 2:
                continue
            psi = [Fraction(rng.randint(1, 9)) for _ in range(G.n_units)]
            phi = list(psi)
            phi[-1] += 1
            values = tuple(psi[r] / phi[s] for s, r in zip(G.src, G.rng))
            assert not law_holds(G, values, certificate(G).pairs(G))
            want = verdict(GroupoidCocycle(scanned(G), QPos, values).check)
            assert want == ("NotACocycle", f"unit arrow at {G.n_units - 1} "
                            "is not sent to identity")
            assert verdict(GroupoidCocycle(G, QPos, values).check) == want

    def test_int_values_in_q_plus_are_exact_in_both(self):
        # the scan once compared 1/3 with QPos.inverse(3) == 1 / 3, a float,
        # and refused this cocycle
        for G in samples():
            y = next(G.rng[g] for g in range(G.n_arrows)
                     if G.src[g] != G.rng[g])
            c = coboundary(G, QPos, [3 if x == y else 1
                                     for x in range(G.n_units)])
            values = tuple(int(v) if v.denominator == 1 else v
                           for v in c.values)
            assert 3 in values and Fraction(1, 3) in values
            assert verdict(GroupoidCocycle(G, QPos, values).check) \
                == verdict(GroupoidCocycle(scanned(G), QPos,
                                           values).check) == ("ok", None)

    def test_short_inexact_or_nonpositive_values_fail_the_law(self):
        G = pair_samples()[1]
        pairs = list(certificate(G).pairs(G))
        ones = [Fraction(1)] * G.n_arrows
        assert law_holds(G, ones, pairs)
        assert law_holds(G, [0] * G.n_arrows, pairs, ZAdd.op, 0)
        assert not law_holds(G, ones[:-1], pairs)
        assert not law_holds(G, [1.0] * G.n_arrows, pairs)
        # -1 off the units is not positive; read with a plain product it
        # still fails, since an arrow between two units off the lowest one
        # holds -1 and the product of its pair through the lowest unit 1
        signs = ones[:G.n_units] + [Fraction(-1)] * (G.n_arrows - G.n_units)
        assert not law_holds(G, signs, pairs)
        assert not law_holds(G, signs, pairs, QPos.op, QPos.identity)


def _named(path):
    """Every name path defines or reads: function and class names, plain
    names and attribute names."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_the_guard_reads_every_form(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("class A:\n    def f(self):\n        return g.h(x)\n")
    assert set(_named(sample)) == {"A", "f", "g", "h", "x"}


def test_no_per_kind_answer_is_left():
    found = {(path.name, name) for path in sorted(PACKAGE.rglob("*.py"))
             for name in _named(path) if name in RETIRED}
    assert sorted(found) == []
