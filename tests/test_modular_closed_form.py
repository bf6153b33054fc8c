"""modular_pair's closed form: with no witnesses and S known to be a
subgroupoid of a G with every product, (D, K) is read off S's component
masses and isotropy orders. Each sample is compared with the witness walk
over an explicit family, which never takes the closed form."""

import random

import pytest

import bsmg.cocycle.core as cocycle_core
from bsmg.cocycle.core import modular_pair
from bsmg.cocycle.levelmodel import BSLevelModel
from bsmg.groupoid.core import (ErgodicDecomposition, FiniteMeasuredGroupoid,
                                Subgroupoid, id_set, restrict)
from bsmg.groupoid.pseudogroup import witness_family
from bsmg.groupoid.randomgen import (
    random_action_instance,
    random_partition_tower,
    random_subgroup,
    random_wide_subgroupoid,
    subgroup_arrow_ids,
)
from bsmg.words import BSParams
from oracles import restricted_ids
from test_modular_pair import (LEVELS, corrupted_subs, outcome, uniform,
                               with_units)


def walked(G, S):
    """The outcome of the walk over an explicit witness_family, the family
    the default path walks when the closed form does not apply."""
    sub = S if isinstance(S, Subgroupoid) else Subgroupoid(G, S, check=False)
    try:
        family = [r.phi for r in witness_family(G, sub)]
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return outcome(G, S, witnesses=family)


def takes_closed_form(G, S):
    ids = id_set(S)
    return cocycle_core._closed_form(
        G, ids, ErgodicDecomposition(G, sorted(ids))) is not None


def is_subgroupoid(G, S):
    """Subgroupoid's own closure check, on every composable pair."""
    try:
        Subgroupoid(G, id_set(S))
    except ValueError:
        return False
    return True


def action_pairs(cases):
    """An action groupoid against the arrows of a subgroup, the same on a
    restriction to a unit subset, a random wide subgroupoid, and the
    subgroup's arrows with one more arrow added."""
    for i in range(cases):
        rng = random.Random(f"closed-form:action:{i}")
        G = random_action_instance(rng, max_units=7, max_arrows=200,
                                   preserve_masses=True)
        s_ids = with_units(G, subgroup_arrow_ids(G, random_subgroup(rng, G)))
        yield G, Subgroupoid(G, s_ids, check=False)
        A = sorted(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
        inc = restrict(G, A)
        yield inc.source, Subgroupoid(inc.source, restricted_ids(inc, s_ids),
                                      check=False)
        yield G, random_wide_subgroupoid(rng, G)
        outside = [g for g in range(G.n_arrows) if g not in s_ids]
        if outside:
            yield G, Subgroupoid(G, s_ids | {rng.choice(outside)},
                                 check=False)


def tower_pairs(cases):
    """Partition towers made measure preserving (uniform), against each of
    their two nested relations."""
    for i in range(cases):
        rng = random.Random(f"closed-form:tower:{i}")
        G, k_ids, h_ids = random_partition_tower(rng)
        G = uniform(G)
        for ids in (k_ids, h_ids):
            yield G, Subgroupoid(G, ids, check=False)


SAMPLES = list(action_pairs(150)) + list(tower_pairs(80))


class TestAgainstTheWalk:
    def test_samples_match_the_walk_of_the_default_family(self):
        nontrivial = {"D": 0, "K": 0}
        for G, S in SAMPLES:
            # an added arrow may close up: the gate is exact, not the label
            closed = takes_closed_form(G, S)
            assert closed == is_subgroupoid(G, S)
            assert outcome(G, S) == walked(G, S)
            if closed:
                D, K = modular_pair(G, S)
                nontrivial["D"] += any(v != 1 for v in D.values)
                nontrivial["K"] += any(v != 1 for v in K.values)
        # both halves of the value table are exercised
        assert nontrivial["D"] >= 1 and nontrivial["K"] >= 1

    @pytest.mark.parametrize("pq,kl", LEVELS)
    def test_level_models_match_their_own_witnesses(self, pq, kl):
        model = BSLevelModel(BSParams(*pq), *kl)
        G, S = model.groupoid, model.S
        assert takes_closed_form(G, S)
        assert outcome(G, S) == outcome(G, S, witnesses=model.witnesses)
        assert model.modular_cocycles() == modular_pair(
            G, S, witnesses=model.witnesses)


class TestNoWalk:
    def test_level_model_makes_no_product_and_no_family(self, monkeypatch):
        calls = {"product": 0}
        product = FiniteMeasuredGroupoid.product

        def counted(self, g, h):
            calls["product"] += 1
            return product(self, g, h)

        def refused(*args, **kwargs):
            raise AssertionError("witness_family was called")

        monkeypatch.setattr(FiniteMeasuredGroupoid, "product", counted)
        monkeypatch.setattr(cocycle_core, "witness_family", refused)
        model = BSLevelModel(BSParams(2, 3), 2, 1)
        model.modular_cocycles()
        assert calls["product"] == 0
        assert model.check_modular_identity() == model.groupoid.n_arrows


class TestCorruptedS:
    """An S that is not a subgroupoid reaches the walk, with the outcome of
    an explicit default family, refusals included."""

    @pytest.mark.parametrize("pq,kl", LEVELS[:6])
    def test_level_model_corruptions_walk(self, pq, kl):
        model = BSLevelModel(BSParams(*pq), *kl)
        G = model.groupoid
        for S in corrupted_subs(model):
            # at N = 2 the dropped arrow 0 -> 2 % N is a unit arrow, which
            # Subgroupoid puts back
            if isinstance(S, Subgroupoid) and S.ids != model.S.ids:
                assert not is_subgroupoid(G, S)
                assert not takes_closed_form(G, S)
            assert outcome(G, S) == walked(G, S)

    def test_an_added_arrow_and_a_dropped_inverse_walk(self):
        rng = random.Random("closed-form:corrupted")
        seen = 0
        while seen < 12:
            G = random_action_instance(rng, max_units=6, max_arrows=150,
                                       preserve_masses=True)
            s_ids = with_units(G, subgroup_arrow_ids(
                G, random_subgroup(rng, G)))
            extra = [g for g in range(G.n_arrows) if g not in s_ids]
            inner = [g for g in s_ids if g >= G.n_units and G.inv[g] != g]
            if not (extra and inner):
                continue
            seen += 1
            for ids in (s_ids | {rng.choice(extra)},
                        s_ids - {G.inv[rng.choice(inner)]}):
                S = Subgroupoid(G, ids, check=False)
                assert takes_closed_form(G, S) == is_subgroupoid(G, S)
                assert outcome(G, S) == walked(G, S)
