"""Cocycle layer: value groups, modular pairs, transfer, and level models."""

import random
from fractions import Fraction

import pytest

import bsmg.cocycle.values as values_mod
from bsmg.cocycle import (
    BSLevelModel,
    GroupoidCocycle,
    QPos,
    ZAdd,
    ZModAdd,
    coboundary,
    cohomologous,
    level_sizes,
    modular_pair,
    one_loop_model,
    radon_nikodym,
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
    certificate,
    composable_pairs,
    validate,
)
from bsmg.groupoid.pseudogroup import PartialIso
from bsmg.groupoid.randomgen import partition_groupoid, random_action_instance
from bsmg.words import BSParams
from oracles import (endpoint_map, label_product, level_label_normalizer,
                     seed_maps)
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


# (target, a random value, a value that is not the identity)
TARGETS = [
    (QPos, lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 9)),
     Fraction(2)),
    (ZAdd, lambda rng: rng.randint(-9, 9), 1),
    (ZModAdd(6), lambda rng: rng.randrange(6), 1),
]


def corruptions(G, target, c, g, bump):
    """c with the value at g moved by bump: first with its inverse's value
    moved to match (a product fails), then alone (its inverse fails)."""
    h = G.inv[g]
    for bad in ({g: target.op(c(g), bump),
                 h: target.op(c(h), target.inverse(bump))},
                {g: target.op(c(g), bump)}):
        values = list(c.values)
        for arrow, v in bad.items():
            values[arrow] = v
        yield ("multiplicative" if len(bad) == 2 else "inverse"), values


class TestPairFastPathCheck:
    """GroupoidCocycle.check on certified pair groupoids against the scan."""

    TARGETS = TARGETS

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
            one_two = endpoint_map(G)(1, 2)
            for kind, values in corruptions(G, target, c, one_two, bump):
                want = scan_error(G, target, values)
                assert kind in want
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


def action_samples():
    """random_action_instance samples, two of each style: one generator
    (cyclic), two commuting ones (bicyclic), two that do not commute
    (dihedral). Half of them preserve the masses."""
    found = {"cyclic": [], "bicyclic": [], "dihedral": []}
    i = 0
    while any(len(v) < 2 for v in found.values()):
        G = random_action_instance(random.Random(f"action-check:{i}"),
                                   max_units=7, max_arrows=200,
                                   preserve_masses=i % 2 == 0)
        i += 1
        gens = [G.action_perms[s] for s in certificate(G).generators]
        if len(gens) == 1:
            style = "cyclic"
        else:
            a, b = gens
            commute = tuple(a[x] for x in b) == tuple(b[x] for x in a)
            style = "bicyclic" if commute else "dihedral"
        if len(found[style]) < 2:
            found[style].append(G)
    return [G for v in found.values() for G in v]


def tampered(G, *, inverse=None, label=None):
    """G rebuilt through the constructor with the inverses, or the labels,
    of two arrows swapped: same group, products composed from the labels
    (label_product), no certificate."""
    inv, labels = list(G.inv), list(G.labels)
    if inverse is not None:
        a, b = inverse
        inv[a], inv[b] = inv[b], inv[a]
    if label is not None:
        a, b = label
        labels[a], labels[b] = labels[b], labels[a]
    H = FiniteMeasuredGroupoid(G.unit_names, G.masses, G.src, G.rng, inv,
                               labels, None)
    H._compose = label_product(H, G.group_elements)
    H.group_elements = H.action_perms = G.group_elements
    return H


class TestActionFastPathCheck:
    """GroupoidCocycle.check, product, validate and measure_preserving on
    certified action groupoids against the scan."""

    def test_every_action_sample_is_certified(self):
        samples = action_samples()
        assert len(samples) == 6
        for G in samples:
            cert = certificate(G)
            assert cert.kind == "action"
            assert cert.order == len(G.group_elements)
            assert (G.src, G.rng, G.inv, G.labels) == cert.layout
            assert G.measure_preserving == scanned(G).measure_preserving

    @pytest.mark.parametrize("target,draw,bump", TARGETS)
    def test_coboundaries_pass_and_corruptions_fail_alike(self, target, draw,
                                                          bump, monkeypatch):
        rng = random.Random(f"action-check:{target.name}")
        for G in action_samples():
            psi = [draw(rng) for _ in range(G.n_units)]
            c = coboundary(G, target, psi)
            assert scan_error(G, target, c.values) is None
            with monkeypatch.context() as m:
                # the generator law answers without walking any pair
                m.setattr(values_mod, "composable_pairs", None)
                assert c.check() is c
            g = next(g for g in range(G.n_units, G.n_arrows)
                     if G.inv[g] != g)
            for kind, values in corruptions(G, target, c, g, bump):
                want = scan_error(G, target, values)
                assert kind in want
                with pytest.raises(NotACocycle) as err:
                    GroupoidCocycle(G, target, tuple(values)).check()
                assert str(err.value) == want
            values = list(c.values)
            values[1] = target.op(values[1], bump)
            want = scan_error(G, target, values)
            assert want == "unit arrow at 1 is not sent to identity"
            with pytest.raises(NotACocycle, match=want):
                GroupoidCocycle(G, target, tuple(values)).check()

    def test_every_generator_is_checked(self):
        # values 1 on the subgroup of the first generator and 2 off it obey
        # the law for the first generator alone, c(es, x) = c(e, s.x) c(s, x)
        # with e and es in one coset, and break it for the second
        checked = 0
        for G in action_samples():
            gens = certificate(G).generators
            if len(gens) < 2:
                continue
            first, e = {0}, gens[0]
            while e not in first:
                first.add(e)
                e = certificate(G).multiply(e, gens[0])
            values = tuple(Fraction(1) if G.labels[g][1] in first
                           else Fraction(2) for g in range(G.n_arrows))
            want = scan_error(G, QPos, values)
            assert want is not None
            with pytest.raises(NotACocycle) as err:
                GroupoidCocycle(G, QPos, values).check()
            assert str(err.value) == want
            checked += 1
        assert checked == 4

    @pytest.mark.parametrize("swap", ["inverse", "label"])
    def test_a_swapped_layout_is_not_certified(self, swap):
        for G in action_samples():
            n = G.n_units
            a = next(g for g in range(n, G.n_arrows) if G.src[g] != G.rng[g])
            if swap == "inverse":
                # a and its inverse each claim to be their own inverse
                H = tampered(G, inverse=(a, G.inv[a]))
            else:
                # a and the unit arrow at its source trade labels
                H = tampered(G, label=(G.src[a], a))
            assert (H.src, H.rng, H.inv, H.labels) != certificate(G).layout
            assert certificate(H) is None
            problems = validate(H)
            assert problems and problems == validate(scanned(H))
            # G's coboundary passes G's generator law; the scan on H
            # refuses it
            c = coboundary(G, QPos, [Fraction(x + 1) for x in range(n)])
            with pytest.raises(NotACocycle) as err:
                GroupoidCocycle(H, QPos, c.values).check()
            if swap == "inverse":
                assert f"inverse of arrow {a} does not swap endpoints" \
                    in problems
                assert str(err.value) \
                    == f"value at the inverse of {a} does not invert"
            else:
                assert str(err.value).startswith("not multiplicative at")

    def test_products_are_the_label_products(self):
        for G in action_samples():
            want = label_product(G, G.group_elements)
            twin = scanned(G)
            for g, h, k in composable_pairs(G):
                assert k == want(g, h) == twin.product(g, h)

    def test_validate_matches_the_scan(self):
        for G in action_samples():
            assert validate(G) == validate(scanned(G)) == []
            # attached RN values are not the certificate's to answer
            rn = [Fraction(1)] * G.n_arrows
            rn[G.n_units] = Fraction(2)
            rn[G.inv[G.n_units]] = Fraction(1, 2)
            H = FiniteMeasuredGroupoid(G.unit_names, G.masses, G.src, G.rng,
                                       G.inv, G.labels,
                                       label_product(G, G.group_elements),
                                       rn_values=rn)
            H.group_elements = G.group_elements
            H._certificate = certificate(G)
            problems = validate(H)
            assert problems and problems == validate(scanned(H))
