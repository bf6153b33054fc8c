"""modular_pair: the left-class walk, the pair-groupoid local index and the
refusals. The digests pin (D, K), or the error raised, on level models,
random action and random groupoid samples and corrupted subgroupoids; they
were recorded from the fiber scan that the walk replaced."""

import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from bsmg.cocycle.core import modular_pair
from bsmg.cocycle.levelmodel import BSLevelModel
from bsmg.cocycle.values import GroupoidCocycle, QPos
from bsmg.errors import BsmgError, MissingUnitArrow, VerificationFailure
from bsmg.groupoid.core import (FiniteMeasuredGroupoid, Subgroupoid,
                                certificate, restrict)
from bsmg.groupoid.randomgen import (
    random_action_instance,
    random_groupoid,
    random_subgroup,
    random_wide_subgroupoid,
    subgroup_arrow_ids,
    subgroup_closure,
)
from bsmg.words import BSParams
from oracles import label_product, restricted_ids
from test_groupoid_core import pair_window, scanned

THIRD = Fraction(1, 3)

LEVELS = [
    ((2, 3), (1, 0)), ((2, 3), (1, 1)), ((2, 3), (2, 0)),
    ((2, -3), (1, 0)), ((2, -3), (1, 1)), ((2, -3), (2, 0)),
    ((4, 6), (1, 0)), ((4, 6), (1, 1)),
    ((-2, 3), (1, 0)), ((-2, 3), (1, 1)),
    ((3, 5), (1, 0)), ((3, 5), (1, 1)),
]
CORRUPTED_LEVELS = [((2, 3), (1, 1)), ((2, 3), (2, 0)), ((2, -3), (2, 0)),
                    ((3, 5), (1, 0))]


def outcome(G, S, **kw):
    """(repr of D, repr of K), or (error type, message): every outcome is
    pinned, refusals included."""
    try:
        D, K = modular_pair(G, S, **kw)
    except Exception as exc:
        return (type(exc).__name__, str(exc))
    return (repr(D.values), repr(K.values))


def digest(outcomes):
    return hashlib.sha256(repr(list(outcomes)).encode()).hexdigest()


def level_outcomes():
    for (p, q), (k, l) in LEVELS:
        model = BSLevelModel(BSParams(p, q), k, l)
        yield outcome(model.groupoid, model.S, witnesses=model.witnesses)
        yield outcome(model.groupoid, model.S)


def corrupted_subs(model):
    """S with one floor-0 arrow dropped, with one inverse pair dropped, with
    one raise arrow added, and as a bare arrow set of floor 0 alone (no
    unit arrows on floor 1)."""
    G, ids, N = model.groupoid, model.S.ids, model.N
    g = model.pair_to_id(0, 2 % N)
    yield Subgroupoid(G, ids - {g}, check=False)
    yield Subgroupoid(G, ids - {g, G.inv[g]}, check=False)
    yield Subgroupoid(G, ids | {model.pair_to_id(0, N)}, check=False)
    yield frozenset(h for h in ids if G.src[h] < N and G.rng[h] < N)


def corrupted_outcomes():
    for (p, q), (k, l) in CORRUPTED_LEVELS:
        model = BSLevelModel(BSParams(p, q), k, l)
        for S in corrupted_subs(model):
            yield outcome(model.groupoid, S, witnesses=model.witnesses)
            yield outcome(model.groupoid, S)


def with_units(G, ids):
    return frozenset(ids) | frozenset(range(G.n_units))


def action_outcomes(cases=12):
    """The pairs of the modular-transfer check: an action groupoid against
    the arrows of a subgroup, its restriction to a unit subset, and the
    arrows of an intermediate subgroup."""
    for i in range(cases):
        rng = random.Random(f"modular-digest:action:{i}")
        G = random_action_instance(rng, max_units=7, max_arrows=200,
                                   preserve_masses=True)
        lam = random_subgroup(rng, G)
        s_ids = with_units(G, subgroup_arrow_ids(G, lam))
        yield outcome(G, Subgroupoid(G, s_ids, check=False))
        A = sorted(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
        inc = restrict(G, A)
        yield outcome(inc.source, Subgroupoid(
            inc.source, restricted_ids(inc, s_ids), check=False))
        mid = subgroup_closure(
            G, sorted(lam) + [rng.randrange(len(G.group_elements))])
        yield outcome(G, Subgroupoid(
            G, with_units(G, subgroup_arrow_ids(G, mid)), check=False))


def uniform(G):
    """G with uniform masses, which every arrow preserves, and the reference
    product composed from its labels (label_product). It keeps G's closure,
    and G's certificate when it is of pair kind (an action certificate would
    also change the product), so modular_pair takes the path on it that it
    takes on G."""
    H = FiniteMeasuredGroupoid(
        G.unit_names, [Fraction(1, G.n_units)] * G.n_units, G.src, G.rng,
        G.inv, G.labels, label_product(G, getattr(G, "group_elements", None)))
    H._closed = G._closed
    cert = certificate(G)
    if cert is not None and cert.kind == "pair":
        H._certificate = cert
    return H


def random_outcomes(cases=16):
    """random_groupoid samples, made uniform, against a random wide
    subgroupoid, each also on its restriction to the even units and on a
    document round trip, whose products come from the explicit table
    alone."""
    for i in range(cases):
        rng = random.Random(f"modular-digest:random:{i}")
        G = uniform(random_groupoid(rng))
        H = random_wide_subgroupoid(rng, G)
        yield outcome(G, H)
        inc = restrict(G, range(0, G.n_units, 2))
        yield outcome(inc.source, Subgroupoid(
            inc.source, restricted_ids(inc, H.ids), check=False))
        E = FiniteMeasuredGroupoid.from_doc(G.to_doc())
        yield outcome(E, Subgroupoid(E, H.ids, check=False))


def answered(outcomes):
    return sum(1 for o in outcomes if o[0].startswith("("))


class TestDigests:
    def test_level_models(self):
        outcomes = list(level_outcomes())
        assert answered(outcomes) == len(outcomes) == 24
        assert digest(outcomes) == (
            "1d946a97fe54dd6a4e3ac9bcc5aed03a70403280c50ef96c1372ef40f88bca89")

    def test_corrupted_subgroupoids(self):
        outcomes = list(corrupted_outcomes())
        assert len(outcomes) == 32
        assert digest(outcomes) == (
            "12263b581417e2d6b1b0a8deef819fb6aa6de5a30b990d22d88802a340a7d754")

    def test_action_instances_and_restrictions(self):
        outcomes = list(action_outcomes())
        assert answered(outcomes) == len(outcomes) == 36
        assert digest(outcomes) == (
            "062559907040cfe9b9b95f15cabf1cba0185e3bc743213c9c81aa59a8399a9b4")

    def test_random_groupoids(self):
        outcomes = list(random_outcomes())
        assert answered(outcomes) == len(outcomes) == 48
        assert digest(outcomes) == (
            "2f166af7f0a4d288795f4c09b597ad075ff9e46d44614bea8aa47176478e0901")


def path_window():
    """Units 0 - 1 - 2 joined by a and b and their inverses; b . a lies
    outside the window."""
    return FiniteMeasuredGroupoid.window(
        [THIRD] * 3, [(0, 1, "a"), (1, 0, "a'"), (1, 2, "b"), (2, 1, "b'")],
        [(0, 1), (2, 3)])


class TestRefusals:
    @pytest.mark.parametrize("make", [
        path_window,
        lambda: pair_window(3, [(0, 1), (1, 0), (1, 2), (2, 1)]),
    ])
    def test_a_path_needs_a_complete_product(self, make):
        # the left S-class of every arrow is the arrow alone, so a walk of
        # the classes never composes b with a; the fiber scan does
        G = make()
        with pytest.raises(ValueError,
                           match="modular cocycle needs a complete product"):
            modular_pair(G, Subgroupoid(G, (), check=False))

    def test_a_unit_outside_s_is_named(self):
        # floor 0 of BS(2,3) at level (1,1) has 6 units, so unit 6 is the
        # first floor-1 unit, whose unit arrow the bare floor-0 set lacks
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        S = next(sub for sub in corrupted_subs(model)
                 if isinstance(sub, frozenset))
        with pytest.raises(MissingUnitArrow) as err:
            modular_pair(model.groupoid, S, witnesses=model.witnesses)
        assert isinstance(err.value, BsmgError)
        assert isinstance(err.value, ValueError)
        assert str(err.value).startswith("S lacks the unit arrow of unit 6;")


class TestWalk:
    @pytest.mark.parametrize("pq,kl", LEVELS[:6])
    def test_walk_agrees_with_the_scan(self, pq, kl):
        # scanned(G) is not certified, so its classes and local indices are
        # read off the fiber scan and index_within
        model = BSLevelModel(BSParams(*pq), *kl)
        G = model.groupoid
        for S in [model.S, *corrupted_subs(model)]:
            assert outcome(G, S, witnesses=model.witnesses) == outcome(
                scanned(G), S, witnesses=model.witnesses)

    def test_level_model_walks_without_a_fiber_scan(self):
        """modular_cocycles on BS(2,3) at level (2,1) makes at most three
        products per arrow and reads no fiber."""
        model = BSLevelModel(BSParams(2, 3), 2, 1)
        G = model.groupoid
        calls = Counter()
        for name in ("product", "source_fiber", "range_fiber"):
            method = getattr(G, name)

            def counted(*args, _name=name, _method=method):
                calls[_name] += 1
                return _method(*args)

            setattr(G, name, counted)
        model.modular_cocycles()
        assert model.check_modular_identity() == G.n_arrows == 900
        assert calls["product"] <= 3 * G.n_arrows
        assert (calls["source_fiber"], calls["range_fiber"]) == (0, 0)


class TestModularIdentity:
    @staticmethod
    def corrupted(model, arrow, d_scale, k_scale=1):
        """The model with D and K at one arrow scaled."""
        D, K = model.modular_cocycles()
        d, k = list(D.values), list(K.values)
        d[arrow] *= d_scale
        k[arrow] *= k_scale
        model._modular_pair = (GroupoidCocycle(model.groupoid, QPos, tuple(d)),
                               GroupoidCocycle(model.groupoid, QPos, tuple(k)))
        return model

    @pytest.mark.parametrize("pq", [(2, 3), (2, -3), (4, 6)])
    def test_each_kind_of_arrow_reports_its_defect(self, pq):
        model = BSLevelModel(BSParams(*pq), 1, 1)
        raise_g = model.t_arrow_ids[5]
        lower_g = model.lower_arrow_ids[7]
        s_g = model.pair_to_id(1, 2)
        ratio = model.expected_ratio
        cases = [
            (raise_g, 2, 1,
             f"raise arrow {raise_g}: D*K = {2 * ratio} != {ratio}"),
            (lower_g, 1, Fraction(1, 3),
             f"lower arrow {lower_g}: D*K = {1 / (3 * ratio)} != {1 / ratio}"),
            (s_g, 1, 5, f"arrow {s_g} of S has nontrivial D or K: D = 1, "
             f"K = 5"),
        ]
        for arrow, d_scale, k_scale, message in cases:
            model = self.corrupted(BSLevelModel(BSParams(*pq), 1, 1), arrow,
                                   d_scale, k_scale)
            with pytest.raises(VerificationFailure) as err:
                model.check_modular_identity()
            assert str(err.value) == message

    def test_only_the_product_is_checked_off_s(self):
        model = BSLevelModel(BSParams(2, 3), 1, 1)
        self.corrupted(model, model.t_arrow_ids[0], 4, Fraction(1, 4))
        assert model.check_modular_identity() == model.groupoid.n_arrows
