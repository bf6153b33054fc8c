import random

import pytest

from bsmg.errors import NotInFullGroup
from bsmg.groupoid.core import FiniteMeasuredGroupoid, Subgroupoid, index
from bsmg.groupoid.pseudogroup import (
    PartialIso,
    QNClass,
    arrows_within,
    coset_classes,
    qn_membership,
    witness_family,
)
from bsmg.groupoid.randomgen import (random_action_instance, random_groupoid,
                                     random_wide_subgroupoid)
from oracles import iso_preserves_masses, partial_iso_from_arrows, preimage
from test_groupoid_core import element_arrows, s3_action


def perm_index(G, perm):
    return G.action_perms.index(perm)


def perm_iso(G, perm):
    """The full-group partial isomorphism acting by one group element."""
    ei = perm_index(G, perm)
    return partial_iso_from_arrows(
        G, [ei * G.n_units + x for x in range(G.n_units)]
    )


def lam_subgroupoid(G):
    return Subgroupoid(G, element_arrows(G, [0, perm_index(G, (1, 0, 2))]))


class TestPartialIso:
    def test_source_mismatch(self):
        G = s3_action()
        with pytest.raises(NotInFullGroup):
            PartialIso(G, {1: G.unit_arrow(0)})

    def test_range_collision(self):
        G = s3_action()
        swap = perm_index(G, (1, 0, 2))
        # unit 1 -> 1 and the swap arrow 0 -> 1 collide in range
        with pytest.raises(NotInFullGroup):
            PartialIso(G, {1: G.unit_arrow(1), 0: swap * 3 + 0})

    def test_identity(self):
        G = s3_action()
        one = PartialIso.identity_on(G, range(3))
        assert one.domain == (0, 1, 2)
        assert one.range == (0, 1, 2)
        assert all(one.target(x) == x for x in range(3))
        assert iso_preserves_masses(one)

    def test_inverse_round_trip(self):
        G = s3_action()
        phi = perm_iso(G, (1, 2, 0))
        back = phi.inverse()
        assert back.domain == tuple(sorted(phi.range))
        both = back.compose(phi)
        assert both.domain == (0, 1, 2)
        assert all(both.target(x) == x for x in both.domain)

    def test_compose_chains_targets(self):
        G = s3_action()
        phi = perm_iso(G, (1, 0, 2))
        psi = perm_iso(G, (1, 2, 0))
        chained = psi.compose(phi)
        for x in range(3):
            assert chained.target(x) == psi.target(phi.target(x))

    def test_restricted(self):
        G = s3_action()
        phi = perm_iso(G, (1, 2, 0)).restricted([0, 2])
        assert phi.domain == (0, 2)
        assert preimage(phi, phi.target(0)) == 0

    def test_conjugate_arrow_outside_domain(self):
        G = s3_action()
        phi = PartialIso.identity_on(G, [0, 1])
        cycle = perm_index(G, (1, 2, 0))
        # 1 -> 2 leaves the domain
        assert phi.conjugate_arrow(cycle * 3 + 1) is None
        # 0 -> 1 stays inside and identity conjugation fixes it
        assert phi.conjugate_arrow(cycle * 3 + 0) == cycle * 3 + 0

    def test_conjugate_endpoints(self):
        G = s3_action()
        phi = perm_iso(G, (0, 2, 1))
        for g in range(G.n_arrows):
            k = phi.conjugate_arrow(g)
            assert k is not None
            assert G.src[k] == phi.target(G.src[g])
            assert G.rng[k] == phi.target(G.rng[g])


class TestArrowsWithin:
    def test_filters_endpoints(self):
        G = s3_action()
        inside = arrows_within(G, range(G.n_arrows), [0, 1])
        assert all(G.src[g] in (0, 1) and G.rng[g] in (0, 1) for g in inside)
        assert G.unit_arrow(2) not in inside

    def test_a_subgroupoid_reads_as_its_ids(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        for units in ([], [0], [0, 1], [1, 2], [0, 1, 2]):
            want = arrows_within(G, sorted(S.ids), units)
            assert arrows_within(G, S, units) == want
            assert want == {g for g in S.ids
                            if G.src[g] in units and G.rng[g] in units}
        # a Subgroupoid of another groupoid is read by its ids
        other = Subgroupoid(s3_action(), S.ids)
        assert arrows_within(G, other, [0, 1]) == arrows_within(
            G, S, [0, 1])


class TestQNMembership:
    def test_identity_normalizes(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        report = qn_membership(G, S, PartialIso.identity_on(G, range(3)))
        assert report.qn_class is QNClass.NORMALIZING

    def test_member_normalizes(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        report = qn_membership(G, S, perm_iso(G, (1, 0, 2)))
        assert report.qn_class is QNClass.NORMALIZING

    def test_outside_element_quasi_normalizes(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        report = qn_membership(G, S, perm_iso(G, (0, 2, 1)))
        assert report.qn_class is QNClass.QUASI_NORMALIZING
        assert report.s_image != report.s_range
        assert report.indices_in_range
        for value in report.indices_in_range.values():
            assert value >= 1

    def test_singleton_domain_indices(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        swap12 = perm_index(G, (0, 2, 1))
        phi = PartialIso(G, {1: swap12 * 3 + 1})
        report = qn_membership(G, S, phi)
        # domain side sees only the unit loop at 1; range side also has the
        # transposition loop at 2, so the intersection has index 2 there
        assert report.qn_class is QNClass.QUASI_NORMALIZING
        assert report.indices_in_range == {2: 2}
        assert report.indices_in_image == {2: 1}


class TestCosetClasses:
    def test_counts_match_index(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        for x in range(3):
            classes = coset_classes(G, S, x)
            assert len(classes) == index(G, S, x) == 3
            covered = sorted(g for cls in classes for g in cls)
            assert covered == sorted(g for g in range(G.n_arrows) if G.src[g] == x)


class TestWitnessFamily:
    def test_covers_and_classifies(self):
        G = s3_action()
        S = lam_subgroupoid(G)
        reports = witness_family(G, S)
        assert reports
        for report in reports:
            assert report.qn_class in (QNClass.NORMALIZING, QNClass.QUASI_NORMALIZING)

    def test_every_round_covers_its_first_pending_class(self):
        # replays the rounds: each witness covers, among the classes still
        # pending, the first one and one class per unit of its domain
        rng = random.Random("witness-rounds")
        for i in range(40):
            G = (random_groupoid if i % 2 else random_action_instance)(rng)
            S = random_wide_subgroupoid(rng, G)
            pending = [(x, cls) for x in range(G.n_units)
                       for cls in coset_classes(G, S, x)]
            reports = witness_family(G, S)
            assert len(reports) <= len(pending)
            for report in reports:
                phi = report.phi
                covered = [(x, cls) for x, cls in pending
                           if x in phi.arrows and phi.arrow(x) in cls]
                assert covered[:1] == pending[:1]
                assert len(covered) == len(phi)
                pending = [p for p in pending if p not in covered]
            assert pending == []
