"""One product per groupoid: whatever constructor built G, G.product agrees
with a reference computed apart from it, on G, on a restriction of G and on
a restriction of that restriction; and the choice of product stays inside
groupoid/core.py."""

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest

import bsmg
from bsmg.cocycle.levelmodel import BSLevelModel, level_sizes
from bsmg.cocycle.mackey import one_loop_model, scaled_product_model
from bsmg.errors import BsmgError, InvalidDocument
from bsmg.groupoid.core import (FiniteMeasuredGroupoid, Subgroupoid,
                                certificate, composable_pairs,
                                products_defined, restrict, validate)
from bsmg.groupoid.quotient import quotient
from bsmg.groupoid.randomgen import (is_normal_subgroup, partition_groupoid,
                                     random_action_instance, random_groupoid,
                                     random_masses, random_partition,
                                     random_subgroup, subgroup_arrow_ids)
from bsmg.words import BSParams
from oracles import (label_product, level_label_normalizer,
                     product_violations, seed_maps)
from test_cocycles import action_samples

PACKAGE = Path(bsmg.__file__).parent


def chain(G):
    """G, its restriction R to the units x with x % 3 != 1, and R's
    restriction to its even units, each with the arrows it keeps of the
    groupoid before it (None for G)."""
    R = restrict(G, [x for x in range(G.n_units) if x % 3 != 1])
    RR = restrict(R.source, range(0, R.source.n_units, 2))
    return [(G, None), (R.source, R.arrows), (RR.source, RR.arrows)]


def through(kept, parent_reference):
    """The reference on a restriction: the parent's reference on the kept
    arrows, mapped back to the restriction's ids."""
    local = {g: i for i, g in enumerate(kept)}
    return lambda i, j: local.get(parent_reference(kept[i], kept[j]))


def assert_agrees(G, reference, labels=None):
    """G.product is reference on every composable pair of G, and likewise on
    the two restrictions of chain(G): there the reference is labels(K) when
    the labels compose on their own, else G's reference mapped through the
    arrow maps. Returns the number of pairs compared."""
    pairs = 0
    for K, kept in chain(G):
        if kept is not None:
            reference = labels(K) if labels else through(kept, reference)
        # product is the class method, never an instance attribute
        assert "product" not in vars(K)
        for g, h, k in composable_pairs(K):
            assert k == reference(g, h), (K, g, h)
            pairs += 1
    return pairs


def window_reference(G, products):
    """The product a window is given: units absorb, g . g^-1 is the unit at
    r(g), and any other pair is the listed product of arrows (indices into
    the window's arrow list, shifted past the units) or undefined."""
    n = G.n_units
    listed = {(n + g, n + h): n + k for (g, h), k in (products or {}).items()}

    def reference(g, h):
        if G.is_unit_arrow(g):
            return h
        if G.is_unit_arrow(h):
            return g
        if G.inv[g] == h:
            return G.rng[g]
        return listed.get((g, h))

    return reference


def quotient_reference(G, theta, Q):
    """The class product of a quotient, read off G: alpha . beta is the
    class of g . h for the first composable lifts g of alpha and h of
    beta."""
    classes = [[] for _ in range(Q.n_arrows)]
    for g, c in enumerate(theta):
        classes[c].append(g)

    def reference(a, b):
        for h in classes[b]:
            for g in classes[a]:
                if G.src[g] == G.rng[h]:
                    return theta[G.product(g, h)]
        return None

    return reference


class TestEveryConstructorAgreesWithTheReference:
    def test_action_groupoids(self):
        for G in action_samples():
            elements = G.group_elements
            assert assert_agrees(G, label_product(G, elements),
                                 lambda K: label_product(K, elements)) > 0

    def test_partial_isomorphism_closures(self):
        G = FiniteMeasuredGroupoid.from_partial_isos(4, [{0: 1}, {1: 2, 2: 3}])
        assert assert_agrees(G, label_product(G), label_product) > 0

        def mod2(word):
            return (1,) * (sum(word) % 2)

        G = FiniteMeasuredGroupoid.from_partial_isos(
            2, [{0: 1, 1: 0}], label_normalizer=mod2)
        assert assert_agrees(G, label_product(G, normalizer=mod2),
                             lambda K: label_product(K, normalizer=mod2)) > 0

    @pytest.mark.parametrize("p,q,k,l", [(2, 3, 1, 0), (2, -3, 1, 1)])
    def test_level_model_grown_from_its_seed_maps(self, p, q, k, l):
        params = BSParams(p, q)
        norm = level_label_normalizer(params, k, l)
        G = FiniteMeasuredGroupoid.from_partial_isos(
            sum(level_sizes(params, k, l)), seed_maps(params, k, l),
            label_normalizer=norm)
        assert assert_agrees(G, label_product(G, normalizer=norm),
                             lambda K: label_product(K, normalizer=norm)) > 0

    @pytest.mark.parametrize("p,q,k,l", [(2, 3, 1, 1), (2, -3, 2, 0),
                                         (4, 6, 1, 0)])
    def test_level_models(self, p, q, k, l):
        G = BSLevelModel(BSParams(p, q), k, l).groupoid
        assert assert_agrees(G, label_product(G), label_product) > 0

    def test_partition_groupoids(self):
        rng = random.Random("one-product:partition")
        for _ in range(12):
            n = rng.randint(1, 9)
            G = partition_groupoid(random_masses(rng, n),
                                   random_partition(rng, range(n)))
            assert assert_agrees(G, label_product(G), label_product) > 0

    def test_windows(self):
        products = {(0, 0): 2, (1, 1): 3, (2, 1): 0, (1, 2): 0, (3, 0): 1,
                    (0, 3): 1}
        G = FiniteMeasuredGroupoid.window(
            [1], [(0, 0, "d"), (0, 0, "d'"), (0, 0, "d2"), (0, 0, "d2'")],
            [(0, 1), (2, 3)], products=products)
        assert assert_agrees(G, window_reference(G, products)) > 0
        for G in (one_loop_model([Fraction(3, 2), Fraction(2)]),
                  scaled_product_model(Fraction(2, 3), 5),
                  FiniteMeasuredGroupoid.window(
                      [Fraction(1, 3)] * 3,
                      [(0, 1, "a"), (1, 0, "a'"), (1, 2, "b"), (2, 1, "b'")],
                      [(0, 1), (2, 3)])):
            assert assert_agrees(G, window_reference(G, None)) > 0

    def test_documents(self):
        # a copy read back from JSON composes from its products table, which
        # lists the products of the groupoid it was written from
        for i in range(12):
            G = random_groupoid(random.Random(f"one-product:doc:{i}"),
                                max_units=7, max_arrows=150)
            E = FiniteMeasuredGroupoid.from_doc(G.to_doc())
            assert assert_agrees(E, G.product) > 0
            assert [K.to_json() for K, _ in chain(E)] == [
                K.to_json() for K, _ in chain(G)]

    def test_quotients(self):
        rng = random.Random("one-product:quotient")
        done = 0
        while done < 8:
            G = random_action_instance(rng, max_units=6, max_arrows=200)
            lam = random_subgroup(rng, G)
            if not is_normal_subgroup(G, lam):
                continue
            _, Q, _, theta = quotient(
                G, Subgroupoid(G, subgroup_arrow_ids(G, lam), check=False))
            assert assert_agrees(Q, quotient_reference(G, theta, Q)) > 0
            done += 1


class TestRestrictionsComposeThroughTheParent:
    def test_each_product_call_counts_once(self, monkeypatch):
        # the restriction calls its parent's compose, not its product, so a
        # class-level counter sees one call per product asked for
        calls = []
        method = FiniteMeasuredGroupoid.product

        def counted(self, g, h):
            calls.append(self)
            return method(self, g, h)

        monkeypatch.setattr(FiniteMeasuredGroupoid, "product", counted)
        for G in action_samples()[:2] + [
                BSLevelModel(BSParams(2, 3), 1, 1).groupoid]:
            for K, _ in chain(G):
                calls.clear()
                pairs = list(composable_pairs(K))
                assert len(calls) == len(pairs) > 0
                assert set(map(id, calls)) == {id(K)}

    def test_restrictions_keep_what_makes_the_walk_and_the_certificate(self):
        # modular_pair walks the left classes on exactly the groupoids whose
        # products are all defined: certified ones and those closed by
        # construction, restrictions included; a document copy is neither
        level = BSLevelModel(BSParams(2, 3), 1, 1).groupoid
        for K, _ in chain(level):
            assert certificate(K).kind == "pair" and products_defined(K)
            assert validate(K) == []
        grown = FiniteMeasuredGroupoid.from_partial_isos(
            4, [{0: 1}, {1: 2, 2: 3}])
        for G in action_samples()[:2] + [grown]:
            for K, kept in chain(G):
                assert products_defined(K)
                assert certificate(K) is None or kept is None
                assert validate(K) == [] == product_violations(K)
            for K, _ in chain(FiniteMeasuredGroupoid.from_doc(G.to_doc())):
                assert not products_defined(K)
                assert validate(K) == []


class TestDocumentRefusals:
    def test_the_error_is_typed_and_a_usage_error(self):
        with pytest.raises(InvalidDocument) as err:
            FiniteMeasuredGroupoid.from_doc([])
        assert isinstance(err.value, BsmgError)
        assert isinstance(err.value, ValueError)

    def test_data_in_range_still_reaches_validate(self):
        # swapped inverses and a product row with the wrong result are the
        # validate scan's to explain, as before
        G = random_action_instance(random.Random(11), max_units=5)
        doc = G.to_doc()
        doc["arrows"][7]["inverse"], doc["arrows"][8]["inverse"] = (
            doc["arrows"][8]["inverse"], doc["arrows"][7]["inverse"])
        doc["products"][40][2] = 0
        H = FiniteMeasuredGroupoid.from_doc(doc)
        problems = validate(H)
        assert "inverse of arrow 7 is not an involution" in problems
        assert any(line.endswith("has wrong endpoints")
                   or line.startswith("associativity fails")
                   for line in problems)

    def test_positive_rn_values_that_do_not_multiply_reach_validate(self):
        G = random_action_instance(random.Random(11), max_units=5)
        doc = G.to_doc()
        doc["rn"] = ["2"] * G.n_arrows
        problems = validate(FiniteMeasuredGroupoid.from_doc(doc))
        assert "attached RN values not multiplicative at (0,0)" in problems
        for bad in ("0", "-1"):
            doc["rn"] = ["1"] * (G.n_arrows - 1) + [bad]
            with pytest.raises(InvalidDocument,
                               match="Radon-Nikodym values must be positive"):
                FiniteMeasuredGroupoid.from_doc(doc)


# -- the choice of product stays in groupoid/core.py ----------------------

# read only by groupoid/core.py
PRIVATE = {"_compose", "_principal", "_certificate", "_closed"}
# the names of the label composer, its index and the products cache
DELETED = {"_composer", "_by_src_label", "_prod"}


def reads(path):
    """'name:line: attribute', by line, for every attribute of PRIVATE or
    DELETED that the module at path reads or writes, PRIVATE ones outside
    groupoid/core.py only."""
    in_core = path.parts[-2:] == ("groupoid", "core.py")
    found = [node for node in ast.walk(ast.parse(path.read_text("utf-8")))
             if isinstance(node, ast.Attribute) and (
                 node.attr in DELETED
                 or (node.attr in PRIVATE and not in_core))]
    return [f"{path.name}:{node.lineno}: {node.attr}"
            for node in sorted(found, key=lambda node: node.lineno)]


def test_the_scan_finds_private_and_deleted_names(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("G._compose(1, 2)\nG._prod = {}\nG.product(1, 2)\n"
                      "G._composer.mul(a, b)\n")
    assert reads(sample) == ["sample.py:1: _compose",
                                   "sample.py:2: _prod",
                                   "sample.py:4: _composer"]
    core = tmp_path / "groupoid" / "core.py"
    core.parent.mkdir()
    core.write_text("G._compose(1, 2)\nG._by_src_label = {}\n")
    assert reads(core) == ["core.py:2: _by_src_label"]


def test_only_core_reads_how_a_groupoid_multiplies():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in reads(path)] == []
