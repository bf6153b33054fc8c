"""Truncated ring arithmetic, scaling maps, and the unit shadow checks."""

import hashlib
import random

import pytest

from bsmg.cocycle.levelmodel import level_sizes
from bsmg.dynamics import periodic_model
from bsmg.errors import (
    InvalidLevel,
    LevelBudgetExceeded,
    NotAUnit,
    ParamMismatch,
    VerificationFailure,
)
from bsmg.profinite import (
    TruncatedProfiniteInt,
    check_unit_fixes_level,
    sigma_inverse,
    sigma_map,
    u0_membership,
    verify_limit_shadow,
)
from bsmg.words import BSParams, generalized_valuation
from oracles import (enumerate_levels, torsion_shadow_valuation,
                     torsion_vanishing_modulus)

P23 = BSParams(2, 3)
P46 = BSParams(4, 6)
P2M3 = BSParams(2, -3)
P49 = BSParams(4, 9)

T = TruncatedProfiniteInt


class TestLevels:
    def test_modulus(self):
        assert P23.level_modulus(2, 1) == 12
        assert P46.level_modulus(1, 1) == 12
        assert P2M3.level_modulus(3, 2) == 72
        with pytest.raises(ValueError):
            P23.level_modulus(-1, 0)

    def test_one_modulus_for_every_model(self):
        # the profinite ring, the two floors of a level model and the
        # periodic model all read BSParams.level_modulus
        for params in (P23, P46, P2M3, P49):
            for k in range(4):
                for l in range(3):
                    want = params.d0 * abs(params.p0) ** k \
                        * abs(params.q0) ** l
                    assert params.level_modulus(k, l) == want
                    assert periodic_model(params, k, l).size == want
                    if k:
                        assert level_sizes(params, k, l) == (
                            want, params.level_modulus(k - 1, l + 1))
        with pytest.raises(InvalidLevel, match="^levels must be nonnegative$"):
            P23.level_modulus(0, -1)

    def test_enumerate_sorted_by_modulus(self):
        got = enumerate_levels(P23, 12)
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0),
                       (1, 1), (3, 0), (0, 2), (2, 1)]
        assert all(P23.level_modulus(*kl) <= 12 for kl in got)

    def test_enumerate_needs_growing_factors(self):
        # p0 collapses to 1 when p divides q
        with pytest.raises(ValueError):
            enumerate_levels(BSParams(4, 8), 100)


class TestRing:
    def test_residue_is_reduced(self):
        assert T(P23, 14, (2, 1)).residue == 2
        assert T(P23, -1, (1, 1)).residue == 5

    def test_equality_is_level_strict(self):
        assert T(P23, 2, (2, 1)) == T(P23, 14, (2, 1))
        assert T(P23, 2, (2, 1)) != T(P23, 2, (2, 0))
        assert (T(P23, 2, (2, 1)) == 2) is False
        assert len({T(P23, 2, (2, 1)), T(P23, 14, (2, 1))}) == 1

    def test_reduce_moves_down_only(self):
        x = T(P23, 7, (2, 1))
        assert x.reduce(1, 1) == T(P23, 1, (1, 1))
        assert x.reduce(2, 1) == x
        with pytest.raises(ValueError):
            x.reduce(2, 2)

    def test_arithmetic_aligns_to_the_coarser_level(self):
        a = T(P23, 7, (2, 1))
        b = T(P23, 5, (1, 1))
        assert a + b == T(P23, 0, (1, 1))
        assert a - b == T(P23, 2, (1, 1))
        assert a * b == T(P23, 5, (1, 1))
        assert -a == T(P23, 5, (2, 1))

    def test_plain_ints_coerce_at_own_level(self):
        x = T(P23, 7, (2, 1))
        assert x + 10 == T(P23, 5, (2, 1))
        assert 10 + x == T(P23, 5, (2, 1))
        assert 3 * x == T(P23, 9, (2, 1))

    def test_mixing_params_is_refused(self):
        with pytest.raises(ParamMismatch):
            T(P23, 1, (1, 1)) + T(P46, 1, (1, 1))

    def test_text_round_trip(self):
        x = T(P46, 7, (1, 1))
        assert x.to_text() == "7@(1,1)"
        assert T.parse(x.to_text(), P46) == x
        with pytest.raises(ValueError):
            T.parse("7@(1;1)", P46)

    def test_base_submodule(self):
        assert T(P46, 6, (1, 1)).in_base_submodule()
        assert not T(P46, 7, (1, 1)).in_base_submodule()
        # d0 = 1 puts everything in the base submodule
        assert T(P23, 5, (1, 1)).in_base_submodule()


class TestSigma:
    def test_scaling_values(self):
        x = T(P23, 2, (2, 1))
        assert sigma_map(x, 1, 0) == T(P23, 4, (2, 1))
        assert sigma_map(x, 1, 1) == T(P23, 0, (2, 1))
        assert sigma_map(x, 0, 0) == x

    def test_budget_and_domain(self):
        x = T(P23, 2, (2, 1))
        with pytest.raises(LevelBudgetExceeded):
            sigma_map(x, 3, 0)
        with pytest.raises(ValueError):
            sigma_map(x, -1, 0)
        with pytest.raises(ValueError):
            sigma_map(T(P46, 7, (1, 1)), 1, 0)

    def test_inverse_recovers_the_reduction(self):
        x = T(P23, 2, (2, 1))
        y = sigma_map(x, 1, 0)
        assert sigma_inverse(y, 1, 0) == x.reduce(1, 1)
        with pytest.raises(ValueError):
            sigma_inverse(T(P23, 3, (2, 1)), 1, 0)
        with pytest.raises(LevelBudgetExceeded):
            sigma_inverse(y, 3, 0)

    def test_negative_q_keeps_divisions_exact(self):
        x = T(P2M3, 1, (0, 2))
        y = sigma_map(x, 0, 1)
        assert y == T(P2M3, 6, (0, 2))
        assert sigma_inverse(y, 0, 1) == T(P2M3, 1, (0, 1))


class TestUnits:
    def test_unit_criterion(self):
        assert T(P23, 5, (1, 1)).is_unit()
        assert not T(P23, 3, (1, 1)).is_unit()
        with pytest.raises(NotAUnit):
            u0_membership(T(P23, 3, (1, 1)))

    def test_fixing_sweep_agrees_with_congruence(self):
        r = T(P23, 5, (1, 1))
        assert check_unit_fixes_level(r, 1, 1) is True
        assert check_unit_fixes_level(r, 0, 0) is False
        assert check_unit_fixes_level(T(P23, 1, (1, 1)), 0, 0) is True
        with pytest.raises(LevelBudgetExceeded):
            check_unit_fixes_level(r, 2, 0)

    def test_u0_is_not_just_the_identity(self):
        # d0 = 2 for (4, 6): the unit 7 satisfies 2(7-1) = 0 mod 12
        assert u0_membership(T(P46, 7, (1, 1))) is True
        assert u0_membership(T(P46, 5, (1, 1))) is False
        assert check_unit_fixes_level(T(P46, 7, (1, 1)), 0, 0) is True


class TestTorsion:
    def test_valuation(self):
        assert generalized_valuation(24, 2) == 3
        assert generalized_valuation(24, -2) == 3
        assert generalized_valuation(-12, 2) == 2
        assert generalized_valuation(5, 3) == 0
        with pytest.raises(ValueError):
            generalized_valuation(0, 2)
        with pytest.raises(ValueError):
            generalized_valuation(8, 1)

    def test_vanishing_modulus(self):
        assert torsion_vanishing_modulus(T(P23, 4, (2, 1)), 3) == 4
        assert torsion_vanishing_modulus(T(P23, 6, (2, 1)), 2) == 6
        with pytest.raises(ValueError):
            torsion_vanishing_modulus(T(P23, 1, (2, 1)), 5)
        with pytest.raises(ValueError):
            torsion_vanishing_modulus(T(P23, 0, (2, 1)), 0)

    def test_shadow_valuation_prime_factors(self):
        assert torsion_shadow_valuation(T(P23, 4, (2, 1)), 3) is True

    def test_shadow_valuation_composite_gap(self):
        # p0 = 4: the gcd form is sharp but the valuation form undershoots
        x = T(P49, 2, (1, 0))
        assert torsion_vanishing_modulus(x, 2) == 2
        assert torsion_shadow_valuation(x, 2) is False


class TestLimitShadow:
    def test_counts_at_one_level(self):
        want = {"sigma_kernel": 24, "sigma_roundtrip": 24,
                "sigma_composition": 20, "fix_implies_u0": 6,
                "u0_implies_fix": 1}
        assert verify_limit_shadow(P23, 1, 1) == want
        assert verify_limit_shadow(P2M3, 1, 1) == want

    def test_rng_only_picks_samples(self):
        a = verify_limit_shadow(P46, 1, 0, rng=random.Random(7))
        b = verify_limit_shadow(P46, 1, 0, rng=random.Random(11))
        assert a == b == {"sigma_kernel": 4, "sigma_roundtrip": 4,
                          "sigma_composition": 20, "fix_implies_u0": 2,
                          "u0_implies_fix": 1}

    # (sigma_kernel, sigma_roundtrip, sigma_composition, fix_implies_u0,
    # u0_implies_fix), recorded before the sweeps were hoisted, at the
    # levels the bs-dynamics benchmark verifies
    BENCHMARK_COUNTS = {
        ((2, 3), (1, 1)): (24, 24, 20, 6, 1),
        ((2, 3), (3, 3)): (3456, 3456, 20, 341, 1),
        ((2, 3), (5, 5)): (279936, 279936, 20, 13301, 1),
        ((4, 6), (1, 1)): (24, 24, 20, 12, 2),
        ((4, 6), (4, 4)): (32400, 32400, 20, 4324, 2),
        ((2, -3), (2, 2)): (324, 324, 20, 50, 1),
        ((2, -3), (4, 4)): (32400, 32400, 20, 2162, 1),
    }

    @pytest.mark.parametrize("pq, level", sorted(BENCHMARK_COUNTS))
    def test_counts_are_pinned_at_the_benchmark_levels(self, pq, level):
        counts = verify_limit_shadow(BSParams(*pq), *level)
        assert list(counts) == ["sigma_kernel", "sigma_roundtrip",
                                "sigma_composition", "fix_implies_u0",
                                "u0_implies_fix"]
        assert tuple(counts.values()) == self.BENCHMARK_COUNTS[(pq, level)]

    def test_counts_are_pinned_at_every_level_up_to_10000(self):
        # sha256 of repr([((p, q), (K, L), counts as a tuple), ...]) over
        # the levels of acceptance criterion 09, recorded before the sweeps
        # were hoisted
        rows = []
        for p, q in ((2, 3), (2, 5), (4, 6), (6, 9), (2, -3)):
            params = BSParams(p, q)
            for K, L in enumerate_levels(params, 10_000):
                counts = verify_limit_shadow(params, K, L)
                rows.append(((p, q), (K, L), tuple(counts.values())))
        assert len(rows) == 293
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "3b3934c09d1a0386eedfa20b8d995f331e8c621ea90c73ac0d10d9f9bc4767c7")

    @pytest.mark.parametrize("pq, bad, message", [
        ((2, 3), (0, 0), "sigma(2,2) kernel wrong at 1@(2,2)"),
        ((2, 3), (1, 1), "sigma(1,1) kernel wrong at 6@(2,2)"),
        ((4, 6), (2, 1), "sigma(0,1) kernel wrong at 24@(2,2)"),
        ((2, -3), (0, 1), "sigma(2,1) round trip wrong at 1@(2,2)"),
    ])
    def test_the_first_failure_is_reported(self, monkeypatch, pq, bad,
                                           message):
        # one reduced modulus doubled: the sweep fails at the first residue
        # it reaches there, with the message recorded before the sweeps
        # were hoisted
        real = BSParams.level_modulus

        def doubled(params, K, L):
            return real(params, K, L) * (2 if (K, L) == bad else 1)

        monkeypatch.setattr(BSParams, "level_modulus", doubled)
        with pytest.raises(VerificationFailure) as info:
            verify_limit_shadow(BSParams(*pq), 2, 2)
        assert str(info.value) == message
