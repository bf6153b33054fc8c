"""Cocycle layer: value groups, modular pairs, transfer, and level models."""

import random
from fractions import Fraction

import pytest

from bsmg.cocycle import (
    BSLevelModel,
    GroupoidCocycle,
    QPos,
    ZAdd,
    ZModAdd,
    coboundary,
    cohomologous,
    level_label_normalizer,
    level_sizes,
    modular_pair,
    one_loop_model,
    radon_nikodym,
    seed_maps,
    transfer_matches,
)
from bsmg.errors import (
    InvalidLevel,
    NotACocycle,
    NotMeasurePreserving,
    TargetMismatch,
)
from bsmg.groupoid.core import (
    ErgodicDecomposition,
    FiniteMeasuredGroupoid,
    Subgroupoid,
    validate,
)
from bsmg.groupoid.pseudogroup import PartialIso
from bsmg.groupoid.randomgen import partition_groupoid
from bsmg.words import BSParams
from test_groupoid_core import (element_arrows, s3_action, scanned,
                                swap_window, z3_action)

HALF = Fraction(1, 2)


class TestTargets:
    def test_qpos_rejects_nonpositive(self):
        assert QPos.coerce("3/4") == Fraction(3, 4)
        with pytest.raises(TargetMismatch):
            QPos.coerce(0)
        with pytest.raises(TargetMismatch):
            QPos.coerce(-2)

    def test_zadd_wants_real_ints(self):
        assert ZAdd.coerce(-5) == -5
        assert ZAdd.inverse(3) == -3
        with pytest.raises(TargetMismatch):
            ZAdd.coerce(True)
        with pytest.raises(TargetMismatch):
            ZAdd.coerce(Fraction(1))

    def test_zmod_wraps(self):
        t = ZModAdd(4)
        assert t.coerce(-1) == 3
        assert t.op(3, 2) == 1
        assert t.inverse(1) == 3
        with pytest.raises(ValueError):
            ZModAdd(0)


class TestGroupoidCocycle:
    def test_dict_and_sequence_forms_agree(self):
        G = swap_window()
        c1 = GroupoidCocycle.from_values(
            G, QPos, {0: 1, 1: 1, 2: 3, 3: Fraction(1, 3)})
        c2 = GroupoidCocycle.from_values(G, QPos, [1, 1, 3, Fraction(1, 3)])
        assert c1.values == c2.values == (1, 1, 3, Fraction(1, 3))
        assert c1(2) == 3

    def test_one_value_per_arrow(self):
        G = swap_window()
        with pytest.raises(TargetMismatch):
            GroupoidCocycle.from_values(G, QPos, [1, 1, 3])

    def test_units_map_to_identity(self):
        G = swap_window()
        with pytest.raises(NotACocycle, match="unit arrow"):
            GroupoidCocycle.from_values(G, QPos, [2, 1, 3, Fraction(1, 3)])

    def test_inverse_values_must_invert(self):
        G = swap_window()
        with pytest.raises(NotACocycle, match="inverse"):
            GroupoidCocycle.from_values(G, QPos, [1, 1, 3, 3])

    def test_multiplicativity_is_checked(self):
        G = z3_action()
        sigma = G.group_elements.index((1, 2, 0))
        sigma2 = G.group_elements.index((2, 0, 1))
        values = [Fraction(1)] * G.n_arrows
        for g in element_arrows(G, [sigma]):
            values[g] = Fraction(2)
        for g in element_arrows(G, [sigma2]):
            values[g] = HALF
        # inverses pair up, but sigma.sigma lands on a sigma^2 germ: 4 != 1/2
        with pytest.raises(NotACocycle, match="multiplicative"):
            GroupoidCocycle.from_values(G, QPos, values)

    def test_coboundary_is_a_cocycle(self):
        G = z3_action()
        psi = {0: Fraction(1), 1: Fraction(2), 2: Fraction(5)}
        c = coboundary(G, QPos, psi)
        c.check()
        for g in range(G.n_arrows):
            assert c(g) == psi[G.rng[g]] / psi[G.src[g]]
        assert not c.is_identity()


class TestRadonNikodym:
    def test_preserved_masses_give_the_identity(self):
        assert radon_nikodym(z3_action()).is_identity()

    def test_attached_values_win_over_masses(self):
        G = one_loop_model([Fraction(3, 2)])
        # a single unit would force mass ratio 1 on the loops
        assert radon_nikodym(G).values == (1, Fraction(3, 2), Fraction(2, 3))


def lam_pair():
    """S3 acting on 3 points against the order-two point stabilizer of 2."""
    G = s3_action()
    swap = G.group_elements.index((1, 0, 2))
    return G, Subgroupoid(G, element_arrows(G, [0, swap]))


class TestModularPair:
    def test_values_follow_the_component_split(self):
        G, S = lam_pair()
        D, K = modular_pair(G, S)
        cm = {0: HALF, 1: HALF, 2: Fraction(1)}
        for g in range(G.n_arrows):
            assert D(g) == cm[G.src[g]] / cm[G.rng[g]]
            assert K(g) == cm[G.rng[g]] / cm[G.src[g]]
        assert sorted(set(D.values)) == [HALF, 1, 2]
        assert set(K.values) != {1}

    def test_trivial_on_the_subgroupoid(self):
        G, S = lam_pair()
        D, K = modular_pair(G, S)
        for g in sorted(S.ids):
            assert D(g) == 1 and K(g) == 1

    def test_product_balances_out(self):
        # measure preserving and principal, so the mass defect carried by
        # D is undone exactly by the index side
        G, S = lam_pair()
        D, K = modular_pair(G, S)
        assert all(D(g) * K(g) == 1 for g in range(G.n_arrows))

    def test_needs_preserved_masses(self):
        G = partition_groupoid(
            [HALF, Fraction(1, 4), Fraction(1, 4)], [(0, 1), (2,)])
        with pytest.raises(NotMeasurePreserving):
            modular_pair(G, range(G.n_units))

    def test_witness_family_must_cover(self):
        G, S = lam_pair()
        with pytest.raises(ValueError, match="cover"):
            modular_pair(G, S, witnesses=[PartialIso.identity_on(G, range(3))])


class TestCohomologous:
    def test_recovers_the_mass_potential(self):
        G = partition_groupoid(
            [Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)], [(0, 1, 2)])
        trivial = [Fraction(1)] * G.n_arrows
        rn = radon_nikodym(G)
        psi = cohomologous(G, trivial, rn)
        assert psi == {0: 1, 1: 2, 2: 3}
        for g in range(G.n_arrows):
            assert rn(g) == psi[G.rng[g]] / psi[G.src[g]]
        assert transfer_matches(G, psi, dict(enumerate(G.masses)))
        assert not transfer_matches(G, psi, {0: 1, 1: 2, 2: 5})

    def test_normalizes_per_component(self):
        G = partition_groupoid([Fraction(1, 4)] * 4, [(0, 1), (2, 3)])
        pot = {0: Fraction(2), 1: Fraction(6), 2: Fraction(5), 3: Fraction(35)}
        c2 = coboundary(G, QPos, pot)
        trivial = [Fraction(1)] * G.n_arrows
        psi = cohomologous(G, trivial, c2)
        assert psi == {0: 1, 1: 3, 2: 1, 3: 7}
        assert transfer_matches(G, psi, pot)

    def test_loop_defect_has_no_potential(self):
        G = one_loop_model([Fraction(2)])
        trivial = [Fraction(1)] * G.n_arrows
        assert cohomologous(G, trivial, radon_nikodym(G)) is None

    def test_int_values_give_fractions(self):
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        psi = cohomologous(G, [1] * G.n_arrows, [1] * G.n_arrows)
        assert psi == {0: 1, 1: 1, 2: 1}
        assert all(type(v) is Fraction for v in psi.values())

    @pytest.mark.parametrize("bad", [0, -1])
    def test_a_non_positive_value_is_refused(self, bad):
        G = partition_groupoid([Fraction(1, 3)] * 3, [(0, 1, 2)])
        ones = [1] * G.n_arrows
        for c1, c2 in (([bad] * G.n_arrows, ones), (ones, [bad] * G.n_arrows)):
            with pytest.raises(TargetMismatch,
                               match=f"{bad} is not a positive rational"):
                cohomologous(G, c1, c2)


class TestLevelModel:
    def test_floor_sizes(self):
        assert level_sizes(BSParams(2, 3), 1, 0) == (2, 3)
        assert level_sizes(BSParams(4, 6), 1, 1) == (12, 18)
        assert level_sizes(BSParams(2, -3), 2, 0) == (4, 6)
        with pytest.raises(InvalidLevel):
            level_sizes(BSParams(2, 3), 0, 1)

    def test_smallest_model_shape(self):
        m = BSLevelModel(BSParams(2, 3), 1, 0)
        G = m.groupoid
        assert (m.N, m.Nprime) == (2, 3)
        assert G.n_units == 5
        assert G.n_arrows == 25
        assert validate(G) == []
        assert len(m.S) == 13
        assert list(m.t_arrow_ids) == list(range(13, 19))
        assert m.expected_ratio == Fraction(3, 2)
        assert len(m.witnesses) == 1 + 2 * abs(m.params.p)
        assert G.labels[m.pair_to_id(0, 2)] == ("t", 0, 0)
        dec = ErgodicDecomposition(G, sorted(m.S.ids))
        assert dec.components == ((0, 1), (2, 3, 4))

    def test_modular_identity_small_grid(self):
        grid = [(2, 3, 1, 0), (2, 3, 1, 1), (2, -3, 2, 0), (4, 6, 1, 0)]
        for p, q, k, l in grid:
            m = BSLevelModel(BSParams(p, q), k, l)
            assert m.check_modular_identity() == m.groupoid.n_arrows

    def test_generic_growth_matches_the_direct_model(self):
        params = BSParams(2, 3)
        m = BSLevelModel(params, 1, 0)
        G2 = FiniteMeasuredGroupoid.from_partial_isos(
            5, seed_maps(params, 1, 0),
            label_normalizer=level_label_normalizer(params, 1, 0))
        assert G2.n_arrows == m.groupoid.n_arrows
        assert validate(G2) == []
        assert (sorted(zip(G2.src, G2.rng))
                == sorted(zip(m.groupoid.src, m.groupoid.rng)))


def scan_error(G, target, values):
    """The NotACocycle message of the fiber scan on these values, or None."""
    try:
        GroupoidCocycle(scanned(G), target, values).check()
    except NotACocycle as exc:
        return str(exc)
    return None


class TestPairFastPathCheck:
    """GroupoidCocycle.check on certified pair groupoids against the scan."""

    # (target, a random value, a value that is not the identity)
    TARGETS = [
        (QPos, lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
         Fraction(2)),
        (ZAdd, lambda rng: rng.randint(-9, 9), 1),
        (ZModAdd(6), lambda rng: rng.randrange(6), 1),
    ]

    @staticmethod
    def groupoids():
        G = BSLevelModel(BSParams(2, 3), 1, 1).groupoid
        return [G, BSLevelModel(BSParams(2, -3), 2, 1).groupoid,
                partition_groupoid([Fraction(1, 7)] * 7, [[0, 3, 5], [1, 2, 4, 6]])]

    @pytest.mark.parametrize("target,draw,bump", TARGETS)
    def test_coboundaries_pass_and_corruptions_fail_alike(self, target, draw,
                                                          bump):
        rng = random.Random(f"pair-check:{target.name}")
        for G in self.groupoids():
            psi = [draw(rng) for _ in range(G.n_units)]
            c = coboundary(G, target, psi)
            assert c.check() is c
            assert scan_error(G, target, c.values) is None
            g = G._principal(1, 2)
            h = G.inv[g]
            # one value off with its inverse matching it (a product fails),
            # then one value off alone (its inverse fails)
            for bad in ({g: target.op(c(g), bump),
                         h: target.op(c(h), target.inverse(bump))},
                        {g: target.op(c(g), bump)}):
                values = list(c.values)
                for arrow, v in bad.items():
                    values[arrow] = v
                want = scan_error(G, target, values)
                assert ("multiplicative" if len(bad) == 2 else "inverse") \
                    in want
                with pytest.raises(NotACocycle) as err:
                    GroupoidCocycle(G, target, tuple(values)).check()
                assert str(err.value) == want

    def test_level_model_pair_checks_by_the_fast_path(self):
        model = BSLevelModel(BSParams(2, 3), 2, 1)
        D, K = model.modular_cocycles()
        assert model.modular_cocycles() is model.modular_cocycles()
        assert D.check() is D and K.check() is K
        assert scan_error(model.groupoid, QPos, D.values) is None
        assert scan_error(model.groupoid, QPos, K.values) is None

    def test_a_short_value_tuple_takes_the_scan(self):
        # the star from unit 0 uses arrows below 16 of the 25, so only the
        # count of values tells the fast path that five are missing
        G = BSLevelModel(BSParams(2, 3), 1, 0).groupoid
        short = (Fraction(1),) * 20
        for H in (G, scanned(G)):
            with pytest.raises(IndexError):
                GroupoidCocycle(H, QPos, short).check()
