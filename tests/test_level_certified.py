"""Level models, partition groupoids and their restrictions are built
certified.

A level model's id layout is a bijection onto its unit pairs, and a
partition groupoid's blocks are its components, so both state their
PairCertificate when they are made instead of rediscovering it; restrict
states the certificate of a pair groupoid's restriction from its parent's.
The level model writes its arrays block by block along that layout. Here
the arrays are compared with the per-arrow construction they replaced
(oracles.level_arrays_by_pairs), and the stated certificates with the one
oracles.certify_pair derives; no derivation is left under src/bsmg. A
subgroupoid labels its components once (Subgroupoid.component_of), and the
decompositions read those labels.
"""

import ast
import hashlib
import random
from pathlib import Path

import pytest

import bsmg
import bsmg.groupoid.core as gcore
from bsmg._kernels import component_labels
from bsmg.cocycle.levelmodel import BSLevelModel, level_sizes
from bsmg.groupoid.core import (ErgodicDecomposition, FiniteMeasuredGroupoid,
                                Subgroupoid, certificate, index,
                                index_of_pair, restrict, validate)
from bsmg.groupoid.randomgen import (partition_groupoid,
                                     random_action_instance, random_masses,
                                     random_partition, random_subgroup,
                                     random_wide_subgroupoid,
                                     relation_arrow_ids, subgroup_arrow_ids)
from bsmg.words import BSParams
from oracles import certify_pair, endpoint_map, level_arrays_by_pairs
from test_modular_pair import LEVELS

SRC = Path(bsmg.__file__).parent
WORKLOADS = SRC.parent.parent / "perfbench" / "workloads.py"


def ladder():
    """The (p, q), (k, l) of every LADDER rung, read from the benchmark's
    workloads file without importing it."""
    tree = ast.parse(WORKLOADS.read_text("utf-8"))
    node = next(node for node in tree.body if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["LADDER"])
    return [(pq, kl) for pq, kl, _, _ in ast.literal_eval(node.value)]


SIGNS = [((-2, 3), (2, 1)), ((3, -6), (1, 1)), ((3, -6), (2, 0)),
         ((-2, -3), (1, 1)), ((-2, -3), (2, 1))]
ALL_LEVELS = sorted(set(LEVELS) | set(ladder()) | set(SIGNS))
# the levels of at most 900 arrows, (N + N')^2
SMALL_LEVELS = [(pq, kl) for pq, kl in ALL_LEVELS
                if sum(level_sizes(BSParams(*pq), *kl)) ** 2 <= 900]


def arrays_digest(src, rng, inv, labels):
    text = repr((tuple(src), tuple(rng), tuple(inv), tuple(labels)))
    return hashlib.sha256(text.encode()).hexdigest()


def test_the_ladder_is_read():
    rungs = ladder()
    assert len(rungs) == 11 and ((2, 3), (3, 2)) in rungs
    assert len(ALL_LEVELS) == 24 and len(SMALL_LEVELS) >= 10


@pytest.mark.parametrize("pq,kl", ALL_LEVELS)
def test_floor_blocks_write_the_per_arrow_arrays(pq, kl):
    G = BSLevelModel(BSParams(*pq), *kl).groupoid
    assert arrays_digest(G.src, G.rng, G.inv, G.labels) == arrays_digest(
        *level_arrays_by_pairs(BSParams(*pq), *kl))


def test_labels_are_shared_tuples():
    G = BSLevelModel(BSParams(2, 3), 2, 1).groupoid
    assert len({id(lab) for lab in G.labels}) == len(set(G.labels))


@pytest.mark.parametrize("pq,kl", ALL_LEVELS)
def test_the_stated_certificate_is_the_derived_one(pq, kl):
    model = BSLevelModel(BSParams(*pq), *kl)
    G = model.groupoid
    stated, derived = certificate(G), certify_pair(G, model.pair_to_id)
    assert stated.kind == derived.kind == "pair"
    assert stated.component_of == derived.component_of == (0,) * G.n_units
    assert stated.spanning == derived.spanning


def test_partition_groupoids_state_the_derived_certificate():
    rng = random.Random("stated-certificate:partition")
    split = 0
    for _ in range(200):
        n = rng.randint(1, 12)
        G = partition_groupoid(random_masses(rng, n),
                               random_partition(rng, range(n)))
        stated, derived = certificate(G), certify_pair(G, endpoint_map(G))
        assert stated.component_of == derived.component_of \
            == ErgodicDecomposition(G).component_of
        assert stated.spanning == derived.spanning
        split += max(stated.component_of) > 0
    assert split > 100


def test_partition_blocks_in_any_order_and_units_in_none():
    # blocks out of order and unsorted, units 5 and 7 in no block: the
    # labels are still numbered by lowest unit
    G = partition_groupoid([1] * 8, [[6, 3], [4, 0, 2], [1]])
    assert certificate(G).component_of == (0, 1, 0, 2, 0, 3, 2, 4)
    derived = certify_pair(G, endpoint_map(G))
    assert certificate(G).component_of == derived.component_of
    assert certificate(G).spanning == derived.spanning


def test_overlapping_blocks_are_refused():
    with pytest.raises(ValueError, match="partition blocks must be disjoint"):
        partition_groupoid([1] * 4, [[0, 1], [1, 2, 3]])
    with pytest.raises(ValueError, match="partition blocks must be disjoint"):
        partition_groupoid([1] * 3, [[0, 0, 1]])


@pytest.mark.parametrize("pq,kl", [((2, 3), (2, 1)), ((4, 6), (2, 0)),
                                   ((2, -3), (2, 2)), ((3, -6), (1, 1))])
def test_certified_answers_need_no_derivation(pq, kl):
    # the answers of the certificate the model states; no code under src/
    # can derive one (test_no_pair_derivation_under_src)
    model = BSLevelModel(BSParams(*pq), *kl)
    G = model.groupoid
    D, K = model.modular_cocycles()
    assert model.check_modular_identity() == G.n_arrows
    assert [index(G, model.S, x) for x in range(G.n_units)] \
        == [2] * G.n_units
    assert validate(G) == []
    if G.n_arrows <= 900:
        D.check()
        K.check()


@pytest.mark.parametrize("pq,kl", SMALL_LEVELS)
def test_the_full_scan_passes_a_document_copy(pq, kl):
    G = BSLevelModel(BSParams(*pq), *kl).groupoid
    copy = FiniteMeasuredGroupoid.from_doc(G.to_doc())
    assert certificate(copy) is None
    assert validate(copy) == []


def subgroupoid_samples():
    """Wide subgroupoids of partition groupoids, action groupoids and level
    models, some of them not closed under products, with their parent."""
    rng = random.Random("component-of")
    out = []
    for _ in range(30):
        n = rng.randint(2, 10)
        blocks = random_partition(rng, range(n))
        G = partition_groupoid(random_masses(rng, n), blocks)
        finer = [part for block in blocks
                 for part in random_partition(rng, block)]
        out.append(Subgroupoid(G, relation_arrow_ids(G, finer)))
        out.append(random_wide_subgroupoid(rng, G))
        out.append(Subgroupoid(G, rng.sample(range(G.n_arrows),
                                             G.n_arrows // 3), check=False))
    for _ in range(10):
        G = random_action_instance(rng, max_units=6)
        out.append(Subgroupoid(G, subgroup_arrow_ids(G, random_subgroup(rng, G))))
    model = BSLevelModel(BSParams(2, 3), 1, 1)
    out += [model.S, random_wide_subgroupoid(rng, model.groupoid)]
    return out


def test_component_of_is_the_union_find_of_the_arrows():
    samples = subgroupoid_samples()
    assert len(samples) == 102
    for S in samples:
        G = S.parent
        ids = S.sorted_ids()
        want = tuple(component_labels(G.n_units, [G.src[g] for g in ids],
                                      [G.rng[g] for g in ids]))
        assert S.component_of == want
        assert S.component_of is S.component_of
        dec = ErgodicDecomposition(S)
        other = ErgodicDecomposition(G, ids)
        assert dec.component_of == other.component_of == want
        assert dec.components == other.components
        assert dec.masses == other.masses


def test_the_components_of_s_are_labelled_once(monkeypatch):
    # a level-ladder rung: modular_cocycles, the decomposition of S and the
    # index sweep share one union-find of S's arrows
    calls = []
    kernel = gcore.component_labels

    def counted(n, sources, ranges):
        calls.append(n)
        return kernel(n, sources, ranges)

    monkeypatch.setattr(gcore, "component_labels", counted)
    model = BSLevelModel(BSParams(2, 3), 2, 1)
    G, S = model.groupoid, model.S
    model.modular_cocycles()
    ErgodicDecomposition(S)
    assert [index(G, S, x) for x in range(G.n_units)] == [
        index_of_pair(G, range(G.n_arrows), S, x) for x in range(G.n_units)]
    assert calls == [G.n_units]


# -- stated, never derived ------------------------------------------------

# the derivation of a pair certificate and the principal map it read, gone
# from src/bsmg; oracles.certify_pair is the reference
DERIVATION = {"_certify_pair", "_principal"}


def derivation_reads(path):
    """'name:line: identifier' for every definition, name or attribute of
    DERIVATION in the module at path."""
    found = []
    for node in ast.walk(ast.parse(path.read_text("utf-8"))):
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in DERIVATION:
            found.append((node.lineno, f"{path.name}:{node.lineno}: {name}"))
    return [line for _, line in sorted(found)]


def test_the_guard_finds_a_derivation(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("def _certify_pair(G):\n    return G._principal\n"
                      "cert = _certify_pair(G)\nG.principal(1)\n")
    assert derivation_reads(sample) == ["sample.py:1: _certify_pair",
                                        "sample.py:2: _principal",
                                        "sample.py:3: _certify_pair"]


def test_no_pair_derivation_under_src():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 15
    assert [line for path in modules for line in derivation_reads(path)] == []


def test_principal_requires_its_components():
    with pytest.raises(TypeError, match="components"):
        FiniteMeasuredGroupoid.principal(
            [0, 1], [1, 1], [0, 1], [0, 1], [0, 1], ["e", "e"],
            lambda s, r: s if s == r else None)


def restriction_samples():
    """Restrictions to random unit sets of the small level models and of
    300 partition groupoids, and of each such restriction: restrictions of
    restrictions."""
    rng = random.Random("stated-restriction")
    parents = [(BSLevelModel(BSParams(*pq), *kl).groupoid, 12)
               for pq, kl in SMALL_LEVELS]
    for _ in range(300):
        n = rng.randint(1, 12)
        parents.append((partition_groupoid(random_masses(rng, n),
                                           random_partition(rng, range(n))), 3))
    for G, tries in parents:
        for _ in range(tries):
            R = restrict(G, rng.sample(range(G.n_units),
                                       rng.randint(1, G.n_units))).source
            yield R
            yield restrict(R, rng.sample(range(R.n_units),
                                         rng.randint(1, R.n_units))).source


def test_stated_restriction_certificates_are_the_derived_ones():
    count = split = 0
    for R in restriction_samples():
        stated, derived = certificate(R), certify_pair(R, endpoint_map(R))
        assert stated.kind == derived.kind == "pair"
        assert stated.component_of == derived.component_of \
            == ErgodicDecomposition(R).component_of
        assert stated.spanning == derived.spanning
        count += 1
        split += max(stated.component_of) > 0
    assert count >= 2000 and split > 500
