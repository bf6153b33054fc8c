"""restrict and quotient return one map type, GroupoidMap.

A restriction is the inclusion G_A -> G and a quotient the projection
G -> Q. Both are checked here as homomorphisms by a scan of every
composable pair (oracles.map_violations), and pull and preimage against
the dict forms that callers wrote out before the map existed. The names
the map replaced stay gone, and the traced benchmark run, which reads the
return value of restrict, still works on this checkout.
"""

import ast
import importlib.util
import inspect
import random
from pathlib import Path

import bsmg
from bsmg.dynamics import coupling_action
from bsmg.groupoid.core import GroupoidMap, restrict
from bsmg.groupoid.quotient import _class_partition, quotient
from bsmg.groupoid.randomgen import (random_action_instance, random_groupoid,
                                     random_wide_subgroupoid)
from bsmg.suite import run_suite
from oracles import map_violations, restricted_ids, restricted_values
from test_quotient import normal_pairs

PACKAGE = Path(bsmg.__file__).parent
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


def test_the_fields_are_pinned():
    # source first: a reader of restrict(...)[0] still gets the groupoid
    assert GroupoidMap._fields == ("source", "target", "units", "arrows")


def inclusions(cases=24):
    """Restrictions of random_groupoid and random_action_instance samples to
    random unit subsets, and restrictions of those restrictions."""
    for i in range(cases):
        rng = random.Random(f"groupoid-map:{i}")
        G = (random_groupoid if i % 2 else random_action_instance)(rng)
        A = rng.sample(range(G.n_units), rng.randint(1, G.n_units))
        inc = restrict(G, A)
        yield rng, inc
        GA = inc.source
        yield rng, restrict(GA, rng.sample(range(GA.n_units),
                                           rng.randint(1, GA.n_units)))


class TestInclusions:
    def test_each_is_a_homomorphism_into_its_parent(self):
        count = 0
        for _, inc in inclusions():
            assert map_violations(inc) == []
            assert list(inc.units) == sorted(inc.units)
            count += 1
        assert count == 48

    def test_preimage_and_pull_are_the_dict_forms(self):
        for rng, inc in inclusions():
            G = inc.target
            H = random_wide_subgroupoid(rng, G)
            ids = {g for g in range(G.n_arrows) if rng.random() < 0.5}
            for given in (H, H.ids, ids, range(G.n_arrows)):
                got = inc.preimage(given)
                assert isinstance(got, frozenset)
                assert got == restricted_ids(
                    inc, given.ids if given is H else given)
            values = [rng.randrange(-9, 10) for _ in range(G.n_arrows)]
            for given in (values, G.labels):
                assert inc.pull(given) == restricted_values(inc, given)

    def test_a_restriction_to_every_unit_is_the_identity(self):
        G = random_groupoid(random.Random("groupoid-map:all"))
        inc = restrict(G, range(G.n_units))
        assert inc.units == tuple(range(G.n_units))
        assert inc.arrows == tuple(range(G.n_arrows))
        assert inc.preimage(range(G.n_arrows)) == frozenset(inc.arrows)


class TestProjections:
    def test_each_is_a_homomorphism_onto_the_quotient(self):
        count = 0
        for G, s_ids in normal_pairs("groupoid-map:quotient", 8):
            proj = quotient(G, s_ids)
            Q = proj.target
            assert proj.source is G
            assert map_violations(proj) == []
            # the kernel is S, with its unit loops
            assert proj.preimage(range(Q.n_units)) == \
                frozenset(s_ids) | frozenset(range(G.n_units))
            _, classes = _class_partition(G, s_ids)
            for alpha in range(Q.n_arrows):
                assert proj.preimage([alpha]) == frozenset(classes[alpha])
            values = [f"v{alpha}" for alpha in range(Q.n_arrows)]
            assert proj.pull(values) == [
                values[next(c for c, members in enumerate(classes)
                            if g in members)]
                for g in range(G.n_arrows)]
            count += 1
        assert count == 24


def test_map_violations_sees_a_broken_map():
    G = random_action_instance(random.Random("groupoid-map:broken"))
    inc = restrict(G, range(G.n_units))
    arrows = list(inc.arrows)
    # swap two non-unit arrows leaving the same unit
    fiber = [g for g in G.source_fiber(0) if not G.is_unit_arrow(g)]
    arrows[fiber[0]], arrows[fiber[1]] = arrows[fiber[1]], arrows[fiber[0]]
    assert map_violations(inc._replace(arrows=tuple(arrows))) != []
    units = list(inc.units)
    units[0], units[1] = units[1], units[0]
    assert map_violations(inc._replace(units=tuple(units))) != []


# -- the names the map replaced stay gone ----------------------------------

# names that no code under src/bsmg may define, read or list
GONE = {"_restrict_ids", "base_components", "quotient_modulus"}


def leftovers(path):
    """Definitions and reads of the GONE names in one file, a bare
    level_modulus in profinite.py (its old wrapper), and a name pi in the
    body of quotient."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            if node.name in GONE or (path.name == "profinite.py"
                                     and node.name == "level_modulus"):
                found.append((node.lineno, f"defines {node.name}"))
            if node.name == "quotient":
                found += [(n.lineno, "quotient names pi")
                          for n in ast.walk(node)
                          if isinstance(n, ast.Name) and n.id == "pi"]
        elif isinstance(node, ast.Name) and (
                node.id in GONE or (path.name == "profinite.py"
                                    and node.id == "level_modulus")):
            found.append((node.lineno, f"reads {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, f"reads {node.attr}"))
        elif isinstance(node, ast.Constant) and node.value in GONE:
            found.append((node.lineno, f"names {node.value}"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_leftovers(tmp_path):
    sample = tmp_path / "profinite.py"
    sample.write_text(
        "def level_modulus(params, K, L):\n    return 1\n"
        "def quotient(G, S):\n    pi = list(G)\n    return pi\n"
        "Q.base_components = 1\n"
        "x = _restrict_ids({}, ())\n"
        "SOURCE = {'quotient_modulus': 'quotient'}\n")
    assert leftovers(sample) == [
        "profinite.py:1: defines level_modulus",
        "profinite.py:4: quotient names pi",
        "profinite.py:5: quotient names pi",
        "profinite.py:6: reads base_components",
        "profinite.py:7: reads _restrict_ids",
        "profinite.py:8: names quotient_modulus"]


def test_the_replaced_names_are_gone_from_src():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in leftovers(path)] == []
    assert "budget" not in inspect.signature(coupling_action).parameters


def test_restrict_and_quotient_return_the_map():
    G = random_action_instance(random.Random("groupoid-map:types"))
    assert type(restrict(G, [0])) is GroupoidMap
    assert type(quotient(G, range(G.n_arrows))) is GroupoidMap


# -- the traced benchmark run ----------------------------------------------


def test_the_traced_lemma_run_passes_and_sizes_its_restrictions():
    # perfbench/tracing.py is loaded from this checkout and only read: its
    # span readers and name lookups must fit the package as it is now
    spec = importlib.util.spec_from_file_location("bsmg_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer().install()
    try:
        rows = run_suite("lemmas", max_cases=1)
    finally:
        tracer.uninstall()
    assert rows and all(row.passed for row in rows), rows
    figures = tracer.aggregate((0, {}))
    assert figures["groupoid.restrict.calls"] > 0
    assert figures["groupoid.quotient.s"] > 0
    sizes = [span[4] for span in tracer.spans if span[0] == "groupoid.restrict"]
    assert sizes and min(sizes) > 0
    assert restrict.__module__ == "bsmg.groupoid.core"
    assert bsmg.suite.restrict is restrict
