"""Orbit counts, the vertex-map tree, the valuation and the type classifier
each have one implementation, checked here against slow oracles.

Orbit counts go through component_labels, the invariant vertex map through
spanning_forest, every valuation through words.generalized_valuation, and
classify_type splits numbers over a coprime base instead of factoring them.
"""

import ast
import math
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import bsmg
from bsmg import tree
from bsmg.cocycle import (classify_type, mackey_range, one_loop_model,
                          scaled_product_model)
from bsmg.cocycle.mackey import _coprime_base
from bsmg.dynamics import ThetaValue, _pair_floor, _pair_sign, component_counts
from bsmg.groupoid.core import Subgroupoid, spanning_forest, whole
from bsmg.groupoid.quotient import find_invariant_vertex_map
from bsmg.groupoid.randomgen import partition_groupoid, relation_arrow_ids
from bsmg.words import BSParams, GroupWord, generalized_valuation
from oracles import (bfs_vertex_map, cycle_lengths, orbit_count, sqrt5_sign,
                     trial_division_type)
from test_quotient import chain_rho, parallel_pair_window

PACKAGE = Path(bsmg.__file__).parent
HALF = Fraction(1, 2)


class TestOrbitCounts:
    def test_component_counts_match_the_orbit_walk(self):
        rng = random.Random(20)
        tables = 0
        while tables < 60:
            n = rng.randint(1, 90)
            c = rng.randint(1, max(1, n))
            if math.gcd(c, n) != 1:
                continue
            r, s = rng.randint(1, 9), rng.randint(1, 9)
            kmax, lmax = rng.randint(0, 3), rng.randint(0, 3)
            table = component_counts(c, n, r, s, kmax, lmax)
            assert sorted(table) == [(k, l) for k in range(kmax + 1)
                                     for l in range(lmax + 1)]
            for (k, l), count in table.items():
                assert count == orbit_count(r ** k * s ** l * c % n, n)
            tables += 1

    @pytest.mark.parametrize("kmax, lmax", [(-1, 1), (1, -1), (-2, -2)])
    def test_negative_bounds_are_refused(self, kmax, lmax):
        with pytest.raises(ValueError,
                           match=r"need kmax >= 0 and lmax >= 0, got "
                                 rf"\({kmax},{lmax}\)"):
            component_counts(1, 12, 2, 3, kmax, lmax)

    def test_zero_bounds_give_one_row(self):
        assert component_counts(5, 12, 2, 3, 0, 0) == {(0, 0): 1}


def _cycle_cocycle(rng, n, m):
    """A Z/m cocycle on scaled_product_model(2, n): any value on the arrow
    i -> i+1 and its negative on the inverse, as the window composes no
    other pair."""
    G = scaled_product_model(2, n)
    tau = [0] * G.n_arrows
    for g in range(G.n_units, G.n_arrows, 2):
        tau[g] = rng.randrange(m)
        tau[g + 1] = (-tau[g]) % m
    return G, tau


class TestMackeyOrbits:
    def test_orbit_sizes_are_the_cycles_of_the_action(self):
        rng = random.Random(7)
        for _ in range(40):
            m = rng.randint(1, 12)
            if rng.random() < 0.5:
                G, tau = _cycle_cocycle(rng, rng.randint(1, 6), m)
            else:
                loops = rng.randint(1, 3)
                G = one_loop_model([Fraction(2)] * loops)
                tau = [0]
                for _ in range(loops):
                    a = rng.randrange(m)
                    tau += [a, (-a) % m]
            got = mackey_range(G, tau, m)
            assert list(got.orbit_sizes) == cycle_lengths(got.action)
            assert sum(got.orbit_sizes) == got.n_components


def _random_word(rng):
    word = GroupWord.identity()
    for _ in range(rng.randint(0, 3)):
        word = word * (GroupWord.a(rng.choice((-2, -1, 1, 2)))
                       if rng.random() < 0.5
                       else GroupWord.t(rng.choice((-1, 1))))
    return word


def _random_blocks(rng, units):
    """A random partition, each block in shuffled order: partition_groupoid
    numbers arrows by the block order, so a unit's incoming arrow can come
    before its outgoing one and the spanning forest then steps backwards."""
    pts = list(units)
    rng.shuffle(pts)
    blocks = []
    while pts:
        size = rng.randint(1, len(pts))
        blocks.append(tuple(pts[:size]))
        pts = pts[size:]
    return blocks


class TestVertexMapTree:
    def test_spanning_forest_of_a_subgroupoid_uses_its_arrows(self):
        G = partition_groupoid([Fraction(1, 4)] * 4, [(0, 1, 2, 3)])
        S = Subgroupoid(G, relation_arrow_ids(G, [(0, 2), (1, 3)]))
        dec, steps = spanning_forest(S)
        assert dec.components == ((0, 2), (1, 3))
        assert [x for x, _, _ in steps] == [0, 2, 1, 3]
        assert all(g is None or g in S for _, g, _ in steps)

    def test_random_coboundaries_match_the_forward_tree(self):
        rng = random.Random(3)
        params = BSParams(2, 3)
        backward = 0
        for _ in range(25):
            n = rng.randint(2, 5)
            G = partition_groupoid([Fraction(1, n)] * n,
                                   _random_blocks(rng, range(n)))
            words = [_random_word(rng) for _ in range(n)]
            rho = chain_rho(G, words)
            S = (whole(G) if rng.random() < 0.3 else
                 Subgroupoid(G, relation_arrow_ids(
                     G, _random_blocks(rng, range(n)))))
            _, steps = spanning_forest(S)
            backward += sum(back for _, _, back in steps)
            radius = rng.randint(1, 3)
            for S_as in (S, sorted(S.ids)):
                got = find_invariant_vertex_map(G, S_as, rho, params,
                                                radius=radius)
                assert got == bfs_vertex_map(G, sorted(S.ids), rho, params,
                                             radius=radius)
        # spanning_forest steps backwards here, which the oracle never does
        assert backward > 0

    def test_an_arrow_set_open_under_inverse_still_covers_its_units(self):
        # S holds only 1 -> 0, so unit 1 is reached backwards; the map must
        # still cover it and hold on arrow 3
        params = BSParams(2, 3)
        G = partition_groupoid([HALF, HALF], [(0, 1)])
        assert (G.src[3], G.rng[3]) == (1, 0)
        rho = {0: GroupWord.identity(), 1: GroupWord.identity(),
               2: GroupWord.t(-1), 3: GroupWord.t()}
        psi = find_invariant_vertex_map(G, [0, 1, 3], rho, params)
        assert sorted(psi) == [0, 1]
        assert psi[0] == tree.base_vertex(params)
        assert tree.canonical_vertex(GroupWord.t() * psi[1].rep_word(),
                                     params) == psi[0]

    @pytest.mark.parametrize("radius", [1, 2, 3, 4])
    def test_holonomy_windows_match_the_forward_tree(self, radius):
        params = BSParams(2, 3)
        G = parallel_pair_window()
        for loop in (GroupWord.t(),
                     GroupWord.t(4) * GroupWord.a() * GroupWord.t(-4),
                     GroupWord.a(3)):
            rho = {0: GroupWord.identity(), 1: GroupWord.identity(),
                   2: GroupWord.identity(), 3: GroupWord.identity(),
                   4: loop, 5: loop.inverse(), 6: loop.inverse(), 7: loop,
                   8: loop.inverse(), 9: loop}
            s_ids = [0, 1, 2, 3, 4, 5]
            assert find_invariant_vertex_map(
                G, s_ids, rho, params, radius=radius) == bfs_vertex_map(
                    G, s_ids, rho, params, radius=radius)


def _random_loops(rng):
    def number():
        return math.prod(rng.choice((2, 3, 5, 7, 11, 13, 97))
                         for _ in range(rng.randint(0, 4)))
    return [Fraction(number(), number()) for _ in range(rng.randint(1, 4))]


class TestClassifier:
    def test_coprime_base_splits_by_gcds(self):
        assert _coprime_base([12, 18]) == [2, 3]
        assert _coprime_base([4, 2, 1]) == [2]
        assert _coprime_base([6, 35, 1000000000000037]) == [
            6, 35, 1000000000000037]
        for numbers in ([360, 84, 1001], [2 ** 40, 6 ** 7], [99, 121]):
            base = _coprime_base(numbers)
            assert all(math.gcd(a, b) == 1 for a in base for b in base
                       if a != b)
            for a in numbers:
                rest = a
                for b in base:
                    rest //= b ** generalized_valuation(rest, b)
                assert rest == 1

    def test_matches_trial_division_on_random_loop_sets(self):
        rng = random.Random(68)
        for _ in range(400):
            loops = _random_loops(rng)
            got = classify_type(one_loop_model(loops))
            assert (got.kind, got.lam) == trial_division_type(loops)

    @pytest.mark.parametrize("loops, want", [
        ([Fraction(1000000000000037, 3)], Fraction(3, 1000000000000037)),
        ([Fraction(10 ** 25 + 13, 7)], Fraction(7, 10 ** 25 + 13)),
        ([Fraction(3, 2), Fraction(9, 4)], Fraction(2, 3)),
    ])
    def test_long_primes_return_at_once(self, loops, want):
        start = time.perf_counter()
        got = classify_type(one_loop_model(loops))
        assert time.perf_counter() - start < 1.0
        assert (got.kind, got.lam) == ("III_lambda", want)

    def test_long_independent_primes_are_dense(self):
        got = classify_type(one_loop_model(
            [Fraction(3, 2), Fraction(1000000000000037)]))
        assert got.kind == "III_1"


class TestExactTheta:
    def test_theta_carries_its_three_integers(self):
        golden = ThetaValue.golden()
        assert (golden.u, golden.w, golden.v) == (1, 1, 2)
        third = ThetaValue.from_rational(Fraction(-5, 3))
        assert (third.u, third.w, third.v) == (-5, 0, 3)

    def test_sign_and_floor_match_the_sqrt5_oracle(self):
        rng = random.Random(5)
        golden = ThetaValue.golden()
        phi = Fraction(1, 2), Fraction(1, 2)  # phi = 1/2 + sqrt5/2
        for _ in range(2000):
            p, q = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
            d = rng.randint(1, 1000)
            assert _pair_sign(golden, p, q) == sqrt5_sign(
                p + q * phi[0], q * phi[1])
            n = _pair_floor(golden, p, q, d)
            # n <= (p + q phi)/d < n + 1, both decided by the oracle
            assert sqrt5_sign(p + q * phi[0] - n * d, q * phi[1]) >= 0
            assert sqrt5_sign(p + q * phi[0] - (n + 1) * d, q * phi[1]) < 0
        for _ in range(500):
            theta = Fraction(rng.randint(-50, 50) or 1, rng.randint(1, 50))
            t = ThetaValue.from_rational(theta)
            p, q, d = rng.randint(-999, 999), rng.randint(-999, 999), \
                rng.randint(1, 99)
            value = p + q * theta
            assert _pair_sign(t, p, q) == (value > 0) - (value < 0)
            assert _pair_floor(t, p, q, d) == math.floor(value / d)


# -- no second copy comes back ---------------------------------------------

GONE = {"_factor", "_multiplicity"}


def copies(path):
    """'name:line: what' for every definition or read of a GONE name in the
    module at path, and every call of products_defined inside a function
    named _witness_walk."""
    found = []
    module = ast.parse(path.read_text("utf-8"))
    for node in ast.walk(module):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in GONE:
                found.append((node.lineno, f"defines {node.name}"))
            if node.name == "_witness_walk":
                found.extend(
                    (call.lineno, "_witness_walk calls products_defined")
                    for call in ast.walk(node)
                    if isinstance(call, ast.Call)
                    and getattr(call.func, "id", getattr(
                        call.func, "attr", None)) == "products_defined")
        elif isinstance(node, ast.Name) and node.id in GONE:
            found.append((node.lineno, f"reads {node.id}"))
        elif isinstance(node, ast.Attribute) and node.attr in GONE:
            found.append((node.lineno, f"reads {node.attr}"))
        elif isinstance(node, ast.alias) and node.name in GONE:
            found.append((node.lineno, f"imports {node.name}"))
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


def test_the_scan_finds_copies(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from m import _factor\n"
        "def _multiplicity(n, m):\n    return m._factor(n)\n"
        "def _witness_walk(G):\n    return core.products_defined(G)\n"
        "def other(G):\n    return products_defined(G)\n")
    assert copies(sample) == [
        "sample.py:1: imports _factor",
        "sample.py:2: defines _multiplicity",
        "sample.py:3: reads _factor",
        "sample.py:5: _witness_walk calls products_defined"]


def test_no_second_valuation_factoring_or_class_walk_under_src():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) > 10
    assert [hit for path in paths for hit in copies(path)] == []
