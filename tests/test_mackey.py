"""Type labels, Mackey ranges, and the finite flow classifiers."""

import random
from fractions import Fraction

import pytest

from bsmg.cocycle import (
    QPos,
    TypeLabel,
    ZAdd,
    coboundary,
    classify_type,
    flow_type,
    mackey_range,
    mackey_range_int,
    one_loop_model,
    power_exponents,
    ranges_isomorphic,
    scaled_product_model,
)
from bsmg.cocycle.mackey import _int_defect_period
from bsmg.errors import InfiniteComponents, NotPowerValued
from bsmg.groupoid.core import forest_potential, validate
from bsmg.groupoid.randomgen import partition_groupoid
from test_groupoid_core import sampled_groupoids

HALF = Fraction(1, 2)


class TestModels:
    def test_one_loop_shape(self):
        G = one_loop_model([Fraction(3, 2)])
        assert G.n_units == 1
        assert G.n_arrows == 3
        assert validate(G) == []
        assert G.rn_values == (1, Fraction(3, 2), Fraction(2, 3))

    def test_scaled_product_shape(self):
        G = scaled_product_model(Fraction(3, 2), 3)
        assert G.n_units == 3
        assert G.n_arrows == 9
        assert validate(G) == []
        assert set(G.masses) == {Fraction(1, 3)}

    @pytest.mark.parametrize("ratio, n, message", [
        (Fraction(2, 3), 0, "n >= 1"), (Fraction(2, 3), -2, "n >= 1"),
        (0, 3, "positive"), (-2, 3, "positive")])
    def test_scaled_product_refuses_bad_input(self, ratio, n, message):
        with pytest.raises(ValueError, match=message):
            scaled_product_model(ratio, n)

    @pytest.mark.parametrize("loops", [[0], [2, -1]])
    def test_one_loop_refuses_non_positive_values(self, loops):
        with pytest.raises(ValueError, match="must be positive"):
            one_loop_model(loops)


class TestClassifyType:
    def test_preserved_masses_are_type_two(self):
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        assert classify_type(G) == TypeLabel("II")

    def test_single_defect_is_lambda(self):
        G = one_loop_model([Fraction(3, 2)])
        assert classify_type(G) == TypeLabel("III_lambda", Fraction(2, 3))

    def test_independent_defects_are_dense(self):
        G = one_loop_model([Fraction(2), Fraction(3)])
        assert classify_type(G) == TypeLabel("III_1")

    def test_same_prime_defects_collapse(self):
        # powers 2 and 3 of the same prime generate the power-1 subgroup
        G = one_loop_model([Fraction(4), Fraction(8)])
        assert classify_type(G) == TypeLabel("III_lambda", HALF)

    def test_parallel_mixed_defect(self):
        G = one_loop_model([Fraction(4, 9)])
        assert classify_type(G) == TypeLabel("III_lambda", Fraction(4, 9))

    def test_cycle_defect_is_the_full_loop(self):
        G = scaled_product_model(Fraction(3, 2), 2)
        assert classify_type(G) == TypeLabel("III_lambda", Fraction(4, 9))

    def test_labels_print_compactly(self):
        assert str(TypeLabel("III_lambda", Fraction(2, 3))) == "III_2/3"
        assert str(TypeLabel("III_1")) == "III-1"
        assert str(TypeLabel("II")) == "II"


def potential(G, values, target):
    return forest_potential(G, values, target.op, target.inverse,
                            target.identity)


class TestForestPotential:
    def test_coboundaries_have_identity_defects(self):
        rng = random.Random("forest-potential")
        draws = ((QPos, lambda: Fraction(rng.randint(1, 9), rng.randint(1, 9))),
                 (ZAdd, lambda: rng.randint(-9, 9)))
        for G in sampled_groupoids(4) + [scaled_product_model(3, 4)]:
            for target, draw in draws:
                psi = [draw() for _ in range(G.n_units)]
                values = coboundary(G, target, psi).values
                dec, pot, defects = potential(G, values, target)
                assert defects == [target.identity] * G.n_arrows
                # the potential is psi moved to identity at each root
                for comp in dec.components:
                    root = target.inverse(psi[min(comp)])
                    assert all(pot[x] == target.op(psi[x], root)
                               for x in comp)

    @pytest.mark.parametrize("ratio, n", [
        (Fraction(2, 3), 1), (Fraction(3, 2), 2), (Fraction(5), 4)])
    def test_scaled_product_defect_is_the_full_loop(self, ratio, n):
        G = scaled_product_model(ratio, n)
        defects = potential(G, G.rn_values, QPos)[2]
        # one arrow closes the loop; its inverse carries the inverse defect
        assert sorted(d for d in defects if d != 1) == \
            sorted([ratio ** n, ratio ** -n])
        exps = power_exponents(G.rn_values, ratio)
        assert sorted(d for d in potential(G, exps, ZAdd)[2] if d) == [-n, n]

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_exponent_period_of_scaled_product_is_n(self, n):
        G = scaled_product_model(Fraction(3, 2), n)
        exps = power_exponents(G.rn_values, Fraction(3, 2))
        periods, dec = _int_defect_period(G, exps)
        assert periods == [n]
        assert dec.n_components == 1


class TestPowerExponents:
    def test_exact_exponents(self):
        base = Fraction(3, 2)
        vals = [Fraction(9, 4), Fraction(1), Fraction(4, 9), base]
        assert power_exponents(vals, base) == [2, 0, -2, 1]

    def test_rejects_non_powers(self):
        with pytest.raises(NotPowerValued):
            power_exponents([Fraction(5)], 2)
        with pytest.raises(NotPowerValued):
            power_exponents([Fraction(6)], 2)
        with pytest.raises(ValueError):
            power_exponents([Fraction(2)], 1)

    def test_large_exponents(self):
        # no search bound: the exponent is read off the valuation
        assert power_exponents([Fraction(2) ** 129], 2) == [129]
        assert power_exponents([Fraction(2) ** -300], 2) == [-300]
        assert power_exponents([Fraction(2, 3) ** 150], Fraction(2, 3)) == [150]
        assert power_exponents([Fraction(2, 3) ** 150], Fraction(3, 2)) == [-150]
        with pytest.raises(NotPowerValued):
            power_exponents([Fraction(2) ** 129 * 3], 2)


class TestMackeyRange:
    def test_generating_residue_is_transitive(self):
        G = one_loop_model([Fraction(2)])
        r = mackey_range(G, [0, 1, 3], 4)
        assert r.n_components == 1
        assert r.orbit_sizes == (1,)
        assert r.modulus == 4

    def test_even_residue_splits_the_fiber(self):
        G = one_loop_model([Fraction(2)])
        r = mackey_range(G, [0, 2, 2], 4)
        assert r.n_components == 2
        assert r.action == (1, 0)
        assert r.orbit_sizes == (2,)

    def test_staircase_over_two_units(self):
        G = partition_groupoid([HALF, HALF], [(0, 1)])
        r = mackey_range(G, [0, 0, 1, 3], 4)
        assert r.n_components == 4
        assert r.orbit_sizes == (4,)
        assert r.component_of[(0, 0)] == r.component_of[(1, 1)]

    def test_isomorphism_ignores_the_model(self):
        r1 = mackey_range(one_loop_model([Fraction(5)]), [0, 2, 2], 4)
        r2 = mackey_range(one_loop_model([Fraction(7)]), [0, 2, 2], 4)
        r3 = mackey_range(one_loop_model([Fraction(5)]), [0, 1, 3], 4)
        assert ranges_isomorphic(r1, r2)
        assert not ranges_isomorphic(r1, r3)


class TestIntegerRange:
    def test_cycle_returns_its_length(self):
        G = scaled_product_model(Fraction(2), 3)
        tau = [0, 0, 0, 1, -1, 1, -1, 1, -1]
        assert mackey_range_int(G, tau) == [3]

    def test_coboundary_translation_is_free(self):
        G = partition_groupoid([HALF, HALF], [(0, 1)])
        assert mackey_range_int(G, [0, 0, 1, -1]) == [0]

    def test_flow_type_of_scaled_products(self):
        base = Fraction(3, 2)
        for n in (1, 2, 3):
            G = scaled_product_model(base, n)
            assert flow_type(G, base) == [
                TypeLabel("III_lambda", Fraction(2, 3) ** n)]

    def test_flow_type_preserved_case(self):
        G = partition_groupoid([HALF, HALF], [(0, 1)])
        assert flow_type(G, Fraction(3, 2)) == [TypeLabel("II")]


class TestIntegerRangeCap:
    """The partition must read the same on two doubled windows after the
    first (4, 8, 16): a cap below that refuses instead of answering."""

    @pytest.mark.parametrize("cap", [4, 8, 15])
    def test_a_cap_below_two_stable_windows_refuses(self, cap):
        cycle = scaled_product_model(Fraction(2), 3)
        pair = partition_groupoid([HALF, HALF], [(0, 1)])
        for G, tau in ((cycle, [0, 0, 0, 1, -1, 1, -1, 1, -1]),
                       (pair, [0, 0, 1, -1])):
            with pytest.raises(InfiniteComponents,
                               match=f"^no stabilization within window "
                                     f"{cap}$"):
                mackey_range_int(G, tau, cap=cap)

    def test_the_smallest_cap_that_answers(self):
        cycle = scaled_product_model(Fraction(2), 3)
        assert mackey_range_int(
            cycle, [0, 0, 0, 1, -1, 1, -1, 1, -1], cap=16) == [3]
