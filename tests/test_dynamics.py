"""Return-time cocycle, coupling action, rotation orbits, and the counters."""

import dataclasses
import functools
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsmg.dynamics as dynamics
from bsmg.dynamics import (
    BernoulliBase,
    CesaroReport,
    CouplingPoint,
    CylinderSet,
    ThetaAffine,
    ThetaValue,
    ZCycleModel,
    _affine_product,
    affine_floor,
    affine_sign,
    beta_cocycle,
    cesaro_mixing_test,
    component_counts,
    coupling_action,
    coupling_point,
    div_by_theta,
    l_theta,
    n_element_words,
    periodic_model,
    periodicity_check,
    rotation_model_orbit,
)
from bsmg.errors import (
    InvalidLevel,
    LevelBudgetExceeded,
    NotAnInteger,
    NotErgodic,
    ParamMismatch,
)
from bsmg.profinite import TruncatedProfiniteInt
from bsmg.words import BSParams, GroupWord, commutator, is_identity, modular_hom

from oracles import cesaro_reference, is_rational, sqrt5_sign, theta_bounds

P23 = BSParams(2, 3)
THETA32 = ThetaValue.from_rational(Fraction(3, 2))
GOLDEN = ThetaValue.golden()


class TestTheta:
    def test_rational(self):
        t = ThetaValue.from_rational(Fraction(3, 2))
        assert is_rational(t)
        assert float(t) == 1.5
        assert theta_bounds(t) == (Fraction(3, 2), Fraction(3, 2))
        with pytest.raises(ValueError):
            ThetaValue.from_rational(0)

    def test_golden_bounds_are_convergents(self):
        lo, hi = theta_bounds(GOLDEN, 10)
        assert (lo, hi) == (Fraction(144, 89), Fraction(89, 55))
        assert float(lo) < float(GOLDEN) < float(hi)
        assert not is_rational(GOLDEN)


# numerators up to 10^400; denominators that share factors (powers of 2, 3
# and 5, and their products) and that do not (primes, 10^k + 1), plus any
BIG = 10 ** 400
DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12, 25, 2 ** 100, 3 ** 60, 6 ** 50,
                     7, 101, 10 ** 30 + 1, 2 ** 127 - 1]),
    st.integers(1, BIG))
FRACTIONS = st.builds(Fraction, st.integers(-BIG, BIG), DENOMINATORS)
AFFINES = st.builds(ThetaAffine, FRACTIONS, FRACTIONS)
RATIONAL_THETAS = FRACTIONS.filter(bool).map(ThetaValue.from_rational)
THETAS = st.one_of(st.just(GOLDEN), RATIONAL_THETAS)


def _golden_sign(a, b):
    """Sign of a + b*phi: 2(a + b*phi) = (2a + b) + b*sqrt(5)."""
    return sqrt5_sign(2 * a + b, b)


class TestIntegerArithmetic:
    """ThetaAffine and its exact operations against Fraction arithmetic
    (rational theta) and sign tests in Z[sqrt5] (golden theta)."""

    @staticmethod
    def _stored(value):
        assert value.d > 0
        assert math.gcd(value.p, value.q, value.d) == 1
        return value.a, value.b

    @settings(max_examples=150, deadline=None)
    @given(AFFINES, AFFINES, FRACTIONS)
    def test_ring_operations(self, x, y, c):
        (a1, b1), (a2, b2) = self._stored(x), self._stored(y)
        assert self._stored(x + y) == (a1 + a2, b1 + b2)
        assert self._stored(x - y) == (a1 - a2, b1 - b2)
        assert self._stored(x.scale(c)) == (a1 * c, b1 * c)
        assert self._stored(x.scale(3)) == (3 * a1, 3 * b1)
        assert self._stored(x - 7) == (a1 - 7, b1)
        assert self._stored(x + c) == (a1 + c, b1)
        assert self._stored(_affine_product(x, y)) == (
            a1 * a2 + b1 * b2, a1 * b2 + b1 * a2 + b1 * b2)
        assert x - y + y == x and hash(x - y + y) == hash(x)

    @settings(max_examples=150, deadline=None)
    @given(RATIONAL_THETAS, AFFINES)
    def test_rational_theta(self, theta, x):
        t = theta.frac
        value = x.a + x.b * t
        assert affine_sign(theta, x) == (value > 0) - (value < 0)
        assert affine_floor(theta, x) == math.floor(value)
        assert self._stored(div_by_theta(theta, x)) == (value / t, 0)

    @settings(max_examples=150, deadline=None)
    @given(AFFINES)
    def test_golden_theta(self, x):
        a, b = x.a, x.b
        assert affine_sign(GOLDEN, x) == _golden_sign(a, b)
        n = affine_floor(GOLDEN, x)
        assert _golden_sign(a - n, b) >= 0 and _golden_sign(a - n - 1, b) < 0
        # (a + b phi)/phi = (b - a) + a phi, since phi^2 = phi + 1
        assert self._stored(div_by_theta(GOLDEN, x)) == (b - a, a)

    @settings(max_examples=60, deadline=None)
    @given(THETAS, FRACTIONS)
    def test_near_zero_and_integers(self, theta, c):
        # values a whisker either side of an integer or of zero
        k = c.numerator // c.denominator
        for x in (ThetaAffine(k, 0), ThetaAffine(Fraction(k * BIG - 1, BIG), 0),
                  ThetaAffine(Fraction(k * BIG + 1, BIG), 0)):
            assert affine_floor(theta, x) == math.floor(x.a)
            assert affine_sign(theta, x) == (x.a > 0) - (x.a < 0)
        assert affine_sign(theta, ThetaAffine(0, 0)) == 0

    def test_equal_values_are_equal(self):
        one = ThetaAffine(Fraction(2, 4), 1)
        two = ThetaAffine(Fraction(1, 2), Fraction(2, 2))
        assert one == two and hash(one) == hash(two)
        assert (one.p, one.q, one.d) == (1, 2, 2)
        assert one != ThetaAffine(Fraction(1, 2), 0)
        assert (one == Fraction(1, 2)) is False

    def test_repr(self):
        assert repr(ThetaAffine(Fraction(2, 4), 1)) == "(1/2 + 1*theta)"
        assert repr(ThetaAffine(Fraction(-3, 7), 0)) == "(-3/7 + 0*theta)"
        assert repr(ThetaAffine(0, Fraction(-6, 4))) == "(0 + -3/2*theta)"

    @pytest.mark.parametrize("theta,want", [
        (GOLDEN, "(-1309/4000 + 809/4000*theta)"),
        (THETA32, "(1/36000 + 0*theta)"),
    ])
    def test_cesaro_gap_exact_at_1000(self, theta, want):
        rep = cesaro_mixing_test(
            BernoulliBase(), theta,
            [(Fraction(0), Fraction(1, 2))], CylinderSet.of({0: 1}),
            [(Fraction(1, 4), Fraction(5, 4))], CylinderSet.of({2: 0}), 1000)
        assert rep.gap_exact == want


class TestBetaCocycle:
    def test_defining_window(self):
        theta = Fraction(3, 2)
        for n in range(-12, 13):
            for x in (Fraction(0), Fraction(1, 3), Fraction(7, 5)):
                m = beta_cocycle(n, x, THETA32)
                landed = x - n + theta * m
                assert 0 <= landed < theta
                # the window has width theta, so m is unique
                assert not 0 <= landed - theta
                assert not landed + theta < theta

    def test_frozen_values(self):
        assert beta_cocycle(1, 0, THETA32) == 1
        assert beta_cocycle(-2, 1, THETA32) == -2
        assert beta_cocycle(1, Fraction(3, 2) - Fraction(1, 10), THETA32) == 0
        neg = ThetaValue.from_rational(Fraction(-3, 2))
        assert beta_cocycle(1, 0, neg) == -1

    def test_golden_values(self):
        assert [beta_cocycle(n, 0, GOLDEN) for n in (1, 2, 3, 5)] == [1, 2, 2, 4]

    def test_monotone_and_unbounded(self):
        for theta in (THETA32, GOLDEN):
            ms = [beta_cocycle(n, 0, theta) for n in range(-40, 41)]
            assert all(a <= b for a, b in zip(ms, ms[1:]))
            assert ms[0] <= -24 and ms[-1] >= 24

    def test_domain_is_checked(self):
        with pytest.raises(ValueError):
            beta_cocycle(1, Fraction(3, 2), THETA32)
        with pytest.raises(ValueError):
            beta_cocycle(1, -1, THETA32)

    def test_integral_fraction_n_is_accepted(self):
        assert beta_cocycle(Fraction(6, 2), 0, THETA32) == beta_cocycle(3, 0, THETA32)
        assert beta_cocycle(Fraction(-4), 0, GOLDEN) == beta_cocycle(-4, 0, GOLDEN)

    @pytest.mark.parametrize("n", [Fraction(7, 2), 3.9, Fraction(1, 2), "3"])
    def test_non_integer_n_is_rejected(self, n):
        # int(n) would answer for a truncated n
        with pytest.raises(NotAnInteger, match="integer n"):
            beta_cocycle(n, 0, THETA32)

    @pytest.mark.parametrize("n", [10 ** 20, -10 ** 20, 10 ** 27, -10 ** 27,
                                   10 ** 400, -10 ** 400])
    def test_golden_at_huge_n(self, n):
        # far beyond float range and precision; the landing point
        # x - n + phi*m = (u + m sqrt5)/2 is checked in Z[sqrt5]
        x = Fraction(1, 2)
        m = beta_cocycle(n, x, GOLDEN)
        u = 2 * (x - n) + m
        assert sqrt5_sign(u, m) >= 0
        assert sqrt5_sign(u - 1, m - 1) < 0    # landed < phi

    def test_beta_reads_the_theta_part_of_x(self):
        # x = phi/2 has no rational part: an answer read off that part alone
        # is beta_cocycle(n, 0), which differs at the first four n
        x = ThetaAffine(0, Fraction(1, 2))
        ns = (-3, -1, 2, 4, 10 ** 20, -10 ** 20)
        ms = [beta_cocycle(n, x, GOLDEN) for n in ns]
        assert ms[:4] == [-2, -1, 1, 2]
        assert [beta_cocycle(n, 0, GOLDEN) for n in ns[:4]] == [-1, 0, 2, 3]
        for n, m in zip(ns, ms):
            # the landing point x - n + phi*m = -n + (m + 1/2)*phi is
            # (u + w sqrt5)/4, checked in Z[sqrt5]
            u, w = 2 * m + 1 - 4 * n, 2 * m + 1
            assert sqrt5_sign(u, w) >= 0
            assert sqrt5_sign(u - 2, w - 2) < 0    # landed < phi


class TestLineCoordinate:
    def test_heights_weight_the_ratio(self):
        lt = l_theta(GroupWord.parse("a"), P23)
        assert (lt.coefficient, lt.breakdown, lt.in_hom_domain) == (
            1, ((0, 1),), True)
        lt = l_theta(GroupWord.parse("t a T"), P23)
        assert (lt.coefficient, lt.breakdown) == (Fraction(3, 2), ((1, 1),))
        lt = l_theta(GroupWord.parse("t^2 a"), P23)
        assert lt.coefficient == Fraction(9, 4)
        assert not lt.in_hom_domain

    def test_kernel_words(self):
        words = n_element_words(P23, count=10)
        assert len(words) == 10
        for w in words:
            assert modular_hom(w, P23) == 1
            assert l_theta(w, P23).coefficient == 0
            assert not is_identity(w, P23)
        with pytest.raises(ValueError):
            n_element_words(P23, count=16)

    def test_coefficient_adds_on_the_kernel(self):
        w1, w2 = n_element_words(P23, count=2)
        assert l_theta(w1 * w2, P23).coefficient == 0

    def test_a_t_sum_past_the_modular_cap_still_answers(self):
        # the modular value of t^10000 is refused (over 4300 digits); its
        # line coordinate is not, and it is off the kernel
        lt = l_theta(GroupWord.parse("t^10000 a T^10000 t^10000"), P23)
        assert lt.coefficient == Fraction(3, 2) ** 10000
        assert not lt.in_hom_domain
        assert l_theta(GroupWord.t(10 ** 9), BSParams(3, -3)).in_hom_domain
        assert l_theta(GroupWord.parse("t^20000 T^20000"), P23).in_hom_domain


class TestCouplingAction:
    def test_translation_letter(self):
        pt = coupling_point(P23, Fraction(0), 0, (2, 0))
        got = coupling_action(GroupWord.a(), pt, THETA32)
        assert got == coupling_point(P23, Fraction(1, 2), 0, (2, 0))

    def test_scaling_letter_moves_a_level(self):
        pt = coupling_point(P23, Fraction(1, 3), 6, (2, 1))
        got = coupling_action(GroupWord.t(), pt, THETA32)
        assert got == coupling_point(P23, Fraction(1, 2), 9, (1, 2))
        back = coupling_action(GroupWord.t(-1), got, THETA32)
        assert back == pt

    def test_golden_line_coordinate_stays_affine(self):
        pt = coupling_point(P23, Fraction(0), 0, (1, 1))
        got = coupling_action(GroupWord.a(), pt, GOLDEN)
        want = CouplingPoint(ThetaAffine(Fraction(-1), Fraction(1)),
                             TruncatedProfiniteInt(P23, 0, (1, 1)))
        assert got == want

    def test_kernel_words_fix_points(self):
        a, t = GroupWord.a(), GroupWord.t()
        words = [commutator(a, t * a * t.inverse()),
                 commutator(a, t ** 2 * a * t.inverse() ** 2)]
        pt = coupling_point(P23, Fraction(1, 3), 5, (3, 3))
        for w in words:
            assert coupling_action(w, pt, THETA32) == pt

    def test_budget_and_levels(self):
        pt = coupling_point(P23, Fraction(0), 0, (2, 0))
        with pytest.raises(LevelBudgetExceeded):
            coupling_action(GroupWord.t(-1), pt, THETA32)

    def test_domain_and_params(self):
        bad = coupling_point(P23, Fraction(3, 2), 0, (1, 1))
        with pytest.raises(ValueError):
            coupling_action(GroupWord.a(), bad, THETA32)
        pt = coupling_point(P23, Fraction(0), 0, (1, 1))
        with pytest.raises(ParamMismatch):
            coupling_action(GroupWord.a(), pt, THETA32, BSParams(2, 5))

    def test_point_identity(self):
        pt = coupling_point(P23, Fraction(1, 3), 5, (1, 1))
        same = coupling_point(P23, Fraction(1, 3), 5, (1, 1))
        assert pt == same and hash(pt) == hash(same)
        assert (pt == "x") is False


class TestRotationModel:
    def test_rational_periods(self):
        r = rotation_model_orbit(ThetaValue.from_rational(2), 1)
        assert (r.kind, r.period, r.degenerate, r.grid_points) == (
            "rational", 1, True, 1)
        r = rotation_model_orbit(THETA32, 6)
        assert (r.period, r.degenerate, r.grid_points) == (12, False, 12)
        r = rotation_model_orbit(ThetaValue.from_rational(1), 5)
        assert (r.period, r.degenerate) == (1, True)
        r = rotation_model_orbit(ThetaValue.from_rational(Fraction(5, 3)), 2)
        assert r.period == 3

    def test_golden_discrepancy(self):
        r = rotation_model_orbit(GOLDEN, 1, steps=100)
        assert r.kind == "irrational"
        assert r.period is None and r.grid_points is None
        assert 0 < r.discrepancy < Fraction(1, 10)
        assert r.steps == 100

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            rotation_model_orbit(THETA32, 0)
        with pytest.raises(ValueError):
            rotation_model_orbit(GOLDEN, 1)


class TestBernoulli:
    def test_cylinder_measures(self):
        base = BernoulliBase()
        c = CylinderSet.of({0: 1, 3: 0})
        assert c.fixed == ((0, 1), (3, 0))
        assert base.measure(c) == Fraction(1, 4)
        assert c.shifted(2).fixed == ((2, 1), (5, 0))

    def test_meets(self):
        base = BernoulliBase()
        c1 = CylinderSet.of({0: 1})
        assert base.meet_measure(c1, CylinderSet.of({1: 1})) == Fraction(1, 4)
        assert base.meet_measure(c1, CylinderSet.of({0: 0})) == 0
        assert base.meet_measure(c1, c1) == Fraction(1, 2)

    def test_bad_cylinders(self):
        with pytest.raises(ValueError):
            CylinderSet.of({0: 2})
        base = BernoulliBase(window=4)
        with pytest.raises(ValueError):
            base.measure(CylinderSet.of({5: 1}))


class TestCesaro:
    def test_rational_target_is_exact(self):
        base = BernoulliBase()
        rep = cesaro_mixing_test(
            base, THETA32,
            [(0, Fraction(1, 2))], CylinderSet.of({0: 1}),
            [(0, Fraction(3, 4))], CylinderSet.of({2: 0}),
            horizon=30)
        assert rep.horizon == 30
        assert abs(rep.target - 1 / 24) < 1e-12
        assert rep.independent_from == 1
        assert rep.samples and rep.samples[-1][0] == 30
        assert rep.gap >= 0 and rep.burn_in_bound > 0

    def test_golden_run_reports_samples(self):
        base = BernoulliBase()
        rep = cesaro_mixing_test(
            base, GOLDEN,
            [(0, Fraction(1, 2))], CylinderSet.of({0: 1}),
            [(0, 1)], CylinderSet.of({0: 0}),
            horizon=60, sample_every=20)
        assert [k for k, _, _ in rep.samples] == [20, 40, 60]
        assert rep.independent_from == 2
        assert rep.gap < 0.5
        assert isinstance(rep.gap_exact, str)

    def test_theta_restrictions(self):
        base = BernoulliBase()
        c = CylinderSet.of({0: 1})
        neg = ThetaValue.from_rational(-2)
        with pytest.raises(ValueError):
            cesaro_mixing_test(base, neg, [(0, 1)], c, [(0, 1)], c, 5)

    @pytest.mark.parametrize("horizon", [0, -3])
    def test_horizon_must_be_positive(self, horizon):
        theta = ThetaValue.from_rational(Fraction(3, 2))
        c = CylinderSet.of({0: 1})
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            cesaro_mixing_test(BernoulliBase(), theta, [(0, 1)], c,
                               [(0, 1)], c, horizon)


# the intervals and cylinders of `bsmg dynamics cesaro` and the suite check
CLI_A1 = [(Fraction(0), Fraction(1, 2))]
CLI_A2 = [(Fraction(1, 4), Fraction(5, 4))]
CLI_B1 = CylinderSet.of({0: 1})
CLI_B2 = CylinderSet.of({2: 0})
RATIONAL_THETAS = [Fraction(3, 2), Fraction(2), Fraction(7, 5),
                   Fraction(29, 15), Fraction(5, 2)]
THETAS = [GOLDEN] + [ThetaValue.from_rational(t) for t in RATIONAL_THETAS]


def assert_same_report(got, want):
    """Field by field, floats by ==."""
    for field in dataclasses.fields(CesaroReport):
        assert getattr(got, field.name) == getattr(want, field.name), \
            field.name


def random_intervals(rng, theta, count):
    """Up to count disjoint intervals inside [0, theta], in random order:
    affine endpoints for the golden ratio, rational ones otherwise."""
    if theta.kind == "golden":
        points = [ThetaAffine(Fraction(rng.randint(-6, 12), rng.randint(1, 6)),
                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                  for _ in range(6 * count)]
        points += [ThetaAffine(0, 0), ThetaAffine(0, 1)]
    else:
        top = theta.frac
        points = [top * Fraction(rng.randint(0, 24), 24)
                  for _ in range(4 * count)]
    inside = [x for x in points if affine_sign(theta, x) >= 0
              and affine_sign(theta, ThetaAffine(0, 1) - x) >= 0]
    distinct = list({dynamics.as_affine(x): x for x in inside}.values())
    distinct.sort(key=functools.cmp_to_key(
        lambda x, y: affine_sign(theta, dynamics.as_affine(x)
                                 - dynamics.as_affine(y))))
    picked = sorted(rng.sample(range(len(distinct)),
                               min(len(distinct), 2 * count) // 2 * 2))
    # consecutive picks may share an endpoint: touching is not overlapping
    ends = [distinct[i] for i in picked]
    intervals = [(ends[i], ends[i + 1]) for i in range(0, len(ends), 2)]
    rng.shuffle(intervals)
    return intervals


def random_cylinder(rng):
    return CylinderSet.of({c: rng.randrange(2)
                           for c in rng.sample(range(-3, 4),
                                               rng.randint(0, 3))})


class TestCesaroAgainstTheReference:
    """The integer-pair loop against the ThetaAffine step loop it replaced."""

    @pytest.mark.parametrize("theta", THETAS, ids=repr)
    @pytest.mark.parametrize("horizon", [1, 2, 3, 10, 57, 200])
    def test_cli_intervals(self, theta, horizon):
        for every in (None, 1, 4, 25):
            args = (BernoulliBase(), theta, CLI_A1, CLI_B1, CLI_A2, CLI_B2,
                    horizon)
            assert_same_report(
                cesaro_mixing_test(*args, sample_every=every),
                cesaro_reference(*args, sample_every=every))

    @pytest.mark.parametrize("theta", THETAS, ids=repr)
    def test_random_interval_lists(self, theta):
        rng = random.Random(f"cesaro {theta!r}")
        for _ in range(12):
            A1 = random_intervals(rng, theta, rng.randint(1, 3))
            A2 = random_intervals(rng, theta, rng.randint(1, 3))
            if not A1 or not A2:
                continue
            args = (BernoulliBase(), theta, A1, random_cylinder(rng), A2,
                    random_cylinder(rng), rng.randint(1, 200))
            every = rng.choice((None, 1, 3, 10))
            assert_same_report(
                cesaro_mixing_test(*args, sample_every=every),
                cesaro_reference(*args, sample_every=every))

    @pytest.mark.parametrize("theta", [GOLDEN, THETA32], ids=repr)
    def test_the_window_check_fails_at_the_same_step(self, theta):
        # a shifted cylinder leaves a window of 6 after a few steps
        errors = []
        for run in (cesaro_mixing_test, cesaro_reference):
            with pytest.raises(ValueError) as info:
                run(BernoulliBase(window=6), theta, CLI_A1, CLI_B1, CLI_A2,
                    CLI_B2, 40)
            errors.append(str(info.value))
        assert errors[0] == errors[1] == "coordinate -7 leaves the window"

    # sha256 of repr(report), recorded before the step loop moved to
    # integer pairs; golden at 10,000 is the suite's cesaro-mixing report
    REPORT_DIGESTS = {
        ("golden", 1000):
            "408d2d0669e05c9d019242a59ea5f787542b5adbc060935b156f8bbba346ba40",
        ("golden", 10000):
            "97a609ae08c0c50b0418eb6f39583e799e96886b6252bd394a42b5a03dc97d10",
        ("3/2", 1000):
            "80ca5d32fea7e934146284efe87a9144877cba0b46b846fb07430f971b7c1a91",
        ("3/2", 10000):
            "b17805fb01f5f8b8b095a35c309b4424c18a2d5d464c845329051879fcf2560e",
        ("2", 1000):
            "7a3e4852aec734f2b8107653b0adaab67bfa4687ed1bfd405e770d2feb292900",
        ("2", 10000):
            "698484bce3f2bfb25c0778e6608d8d4ee5213d7cd15feee09b1f96e0706ae066",
    }

    @pytest.mark.parametrize("theta_text, horizon", sorted(REPORT_DIGESTS))
    def test_reports_are_pinned(self, theta_text, horizon):
        theta = GOLDEN if theta_text == "golden" else \
            ThetaValue.from_rational(Fraction(theta_text))
        rep = cesaro_mixing_test(BernoulliBase(), theta, CLI_A1, CLI_B1,
                                 CLI_A2, CLI_B2, horizon)
        assert hashlib.sha256(repr(rep).encode()).hexdigest() == \
            self.REPORT_DIGESTS[(theta_text, horizon)]

    @pytest.mark.parametrize("theta", [GOLDEN, THETA32], ids=repr)
    def test_step_loop_makes_no_affine_call(self, monkeypatch, theta):
        calls = []
        real = dynamics._affine

        def counted(p, q, d):
            calls.append(1)
            return real(p, q, d)

        monkeypatch.setattr(dynamics, "_affine", counted)

        def count(horizon, every):
            calls.clear()
            cesaro_mixing_test(BernoulliBase(), theta, CLI_A1, CLI_B1,
                               CLI_A2, CLI_B2, horizon, sample_every=every)
            return len(calls)

        # two samples each: the count cannot grow with the horizon
        assert count(20, 10) == count(2000, 1000) == count(6000, 3000)
        # each further sample costs the same fixed number of calls
        three, four = count(30, 10), count(40, 10)
        assert four - three == three - count(20, 10) > 0


class TestCesaroDomain:
    """Intervals must be nonempty, inside [0, |theta|] and disjoint."""

    def run(self, A1, A2, theta=THETA32, horizon=5):
        return cesaro_mixing_test(BernoulliBase(), theta, A1, CLI_B1, A2,
                                  CLI_B2, horizon)

    def test_the_whole_circle_and_touching_intervals_are_accepted(self):
        self.run([(0, Fraction(3, 2))], [(0, 1), (1, Fraction(3, 2))])
        self.run([(0, ThetaAffine(0, 1))], [(ThetaAffine(-1, 1), 1)],
                 theta=GOLDEN)

    @pytest.mark.parametrize("A1, A2, message", [
        ([(1, 1)], [(0, 1)], r"the interval \[1, 1\) of A1 is empty"),
        ([(0, 1)], [(1, Fraction(1, 2))],
         r"the interval \[1, 1/2\) of A2 is empty"),
        ([(0, 2)], [(0, 1)],
         r"the interval \[0, 2\) of A1 is not inside \[0, \|theta\|\] "
         r"for theta = 3/2"),
        ([(0, 1)], [(Fraction(-1, 4), 1)],
         r"the interval \[-1/4, 1\) of A2 is not inside"),
        ([(0, 1), (Fraction(1, 2), Fraction(3, 2))], [(0, 1)],
         r"the intervals \[0, 1\) and \[1/2, 3/2\) of A1 overlap"),
        ([(0, 1)], [(1, Fraction(3, 2)), (0, Fraction(5, 4))],
         r"the intervals \[1, 3/2\) and \[0, 5/4\) of A2 overlap"),
    ])
    def test_refused(self, A1, A2, message):
        with pytest.raises(ValueError, match=message):
            self.run(A1, A2)

    def test_golden_bounds_are_exact(self):
        # 1.618 < phi: a rational bound just above phi leaves the circle
        with pytest.raises(ValueError, match="for theta = golden"):
            self.run([(0, Fraction(1619, 1000))], [(0, 1)], theta=GOLDEN)
        self.run([(0, Fraction(1618, 1000))], [(0, 1)], theta=GOLDEN)

    def test_earlier_checks_come_first(self):
        bad = [(1, 0)]
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            self.run(bad, bad, horizon=0)
        with pytest.raises(ValueError, match="expects a positive theta"):
            self.run(bad, bad, theta=ThetaValue.from_rational(-2))


class TestComponentCounts:
    def test_frozen_table(self):
        got = component_counts(1, 12, 2, 3, 3, 1)
        assert got == {(0, 0): 1, (1, 0): 2, (2, 0): 4, (3, 0): 4,
                       (0, 1): 3, (1, 1): 6, (2, 1): 12, (3, 1): 12}
        assert component_counts(5, 9, 3, 3, 2, 0) == {
            (0, 0): 1, (1, 0): 3, (2, 0): 9}

    def test_requires_an_ergodic_step(self):
        with pytest.raises(NotErgodic):
            component_counts(2, 12, 2, 3, 1, 1)
        with pytest.raises(ValueError):
            component_counts(1, 0, 2, 3, 1, 1)


class TestCycleModels:
    def test_orbits(self):
        assert ZCycleModel(12, 1).orbits() == [(0, 12)]
        assert ZCycleModel(12, 8).orbits() == [(0, 3), (1, 3), (2, 3), (3, 3)]

    def test_periodicity(self):
        model = ZCycleModel(12, 1)
        assert periodicity_check(model, 1, 2, 3, 2, 1) is True
        assert periodicity_check(model, 1, 2, 3, 3, 1) is False

    def test_periodic_model_carries_its_own_grid(self):
        model = periodic_model(P23, 2, 1)
        assert model == ZCycleModel(12, 1)
        assert periodicity_check(model, 1, 2, 3, 2, 1) is True
        assert periodic_model(BSParams(4, 6), 1, 1) == ZCycleModel(12, 1)

    @pytest.mark.parametrize("level", [(-1, 0), (0, -1), (-2, 3)])
    def test_periodic_model_refuses_a_negative_level(self, level):
        # (-1, 0) once built a cycle of size 1/2
        with pytest.raises(InvalidLevel, match="^levels must be nonnegative$"):
            periodic_model(P23, *level)
