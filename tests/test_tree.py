import random

import pytest

from bsmg import tree
from bsmg.errors import RadiusExceeded
from bsmg.words import BSParams, GroupWord
from oracles import (ball, bfs_distance, scratch_geodesic, scratch_neighbors,
                     smallest_power_index, tau_via_tree)
from test_words import PARAMS_POOL, random_word


def random_vertex(rng, params, max_runs=8):
    return tree.canonical_vertex(random_word(rng, max_runs=max_runs, max_exp=5), params)


class TestCanonical:
    def test_a_powers_collapse(self):
        params = BSParams(2, 3)
        v0 = tree.base_vertex(params)
        for k in range(-6, 7):
            assert tree.canonical_vertex(GroupWord.a(k), params) == v0

    def test_right_a_invariance(self):
        rng = random.Random(1)
        for _ in range(200):
            params = rng.choice(PARAMS_POOL)
            w = random_word(rng)
            j = rng.randrange(-5, 6)
            assert tree.canonical_vertex(w * GroupWord.a(j), params) == (
                tree.canonical_vertex(w, params)
            )

    def test_edge_coset_invariance(self):
        params = BSParams(2, 3)
        w = GroupWord.parse("t a^2 t")
        assert tree.canonical_edge(w * GroupWord.a(3), params) == tree.canonical_edge(
            w, params
        )
        assert tree.canonical_edge(w * GroupWord.a(2), params) != tree.canonical_edge(
            w, params
        )


class TestNeighbors:
    def test_degree(self):
        for params in PARAMS_POOL:
            v = tree.base_vertex(params)
            nbrs = tree.neighbors(v)
            assert len(nbrs) == abs(params.p) + abs(params.q)
            assert len({w for _, w in nbrs}) == len(nbrs)

    def test_edges_touch_both_ends(self):
        rng = random.Random(2)
        for _ in range(40):
            params = rng.choice(PARAMS_POOL)
            v = random_vertex(rng, params, max_runs=4)
            for edge, w in tree.neighbors(v):
                ends = {edge.origin(), edge.terminal()}
                assert ends == {v, w}
                assert tree.distance(v, w) == 1

    def test_symmetric(self):
        rng = random.Random(3)
        params = BSParams(2, 3)
        for _ in range(25):
            v = random_vertex(rng, params, max_runs=4)
            for _, w in tree.neighbors(v):
                assert v in {u for _, u in tree.neighbors(w)}

    def test_outgoing_signs(self):
        params = BSParams(2, -3)
        signs = [edge.sign for edge, _ in tree.neighbors(tree.base_vertex(params))]
        assert signs == [1] * abs(params.q) + [-1] * abs(params.p)


class TestDistance:
    def test_matches_bfs(self):
        rng = random.Random(4)
        for params in [BSParams(2, 3), BSParams(2, -3), BSParams(4, 6)]:
            verts = sorted(ball(params, 2), key=lambda v: v.to_text())
            for _ in range(60):
                u = rng.choice(verts)
                v = rng.choice(verts)
                assert tree.distance(u, v) == bfs_distance(u, v)

    def test_metric_axioms(self):
        rng = random.Random(5)
        params = BSParams(2, 3)
        verts = [random_vertex(rng, params, max_runs=5) for _ in range(12)]
        for u in verts:
            for v in verts:
                d = tree.distance(u, v)
                assert d == tree.distance(v, u)
                assert (d == 0) == (u == v)
                for w in verts:
                    assert d <= tree.distance(u, w) + tree.distance(w, v)


class TestGeodesic:
    def test_spelling(self):
        rng = random.Random(6)
        for _ in range(80):
            params = rng.choice(PARAMS_POOL)
            u = random_vertex(rng, params, max_runs=5)
            v = random_vertex(rng, params, max_runs=5)
            path = tree.geodesic(u, v, radius=128)
            assert path.vertices[0] == u
            assert path.vertices[-1] == v
            assert path.length == tree.distance(u, v)
            assert len(path.vertices) == path.length + 1
            for i, edge in enumerate(path.edges):
                a, b = path.vertices[i], path.vertices[i + 1]
                assert {edge.origin(), edge.terminal()} == {a, b}

    def test_radius_guard(self):
        params = BSParams(2, 3)
        v0 = tree.base_vertex(params)
        far = tree.canonical_vertex(GroupWord.t(40), params)
        with pytest.raises(RadiusExceeded):
            tree.geodesic(v0, far)


class TestResumedSteps:
    """Tree steps fold onto the vertex's form; each must equal the step
    normalized from the whole word."""

    BALL_PARAMS = [BSParams(2, 3), BSParams(2, -3), BSParams(4, 6)]

    @pytest.mark.parametrize("params", BALL_PARAMS, ids=str)
    def test_neighbors_and_edge_ends_on_a_radius_3_ball(self, params):
        for v in ball(params, 3):
            steps = tree.neighbors(v)
            assert steps == scratch_neighbors(v)
            for edge, w in steps:
                word = edge.form.to_word()
                assert edge.form == tree.canonical_edge(word, params)
                assert edge.origin() == tree.canonical_vertex(word, params)
                assert edge.terminal() == tree.canonical_vertex(
                    word * GroupWord.t(), params)
                assert {edge.origin(), edge.terminal()} == {v, w}

    @pytest.mark.parametrize("params", BALL_PARAMS, ids=str)
    def test_geodesics_on_a_radius_3_ball(self, params):
        rng = random.Random(f"geodesic {params}")
        verts = sorted(ball(params, 3), key=lambda v: v.to_text())
        for _ in range(150):
            u, v = rng.choice(verts), rng.choice(verts)
            assert tree.geodesic(u, v) == scratch_geodesic(u, v)


class TestTau:
    def test_agrees_with_word_sum(self):
        rng = random.Random(7)
        for _ in range(100):
            params = rng.choice(PARAMS_POOL)
            w = random_word(rng, max_runs=6, max_exp=4)
            assert tree.tau(w, params) == w.t_exponent_sum()
            assert tau_via_tree(w, params, radius=64) == tree.tau(w, params)


class TestStabilizerIndex:
    def test_same_vertex(self):
        params = BSParams(2, 3)
        v = tree.base_vertex(params)
        assert tree.stabilizer_index(v, v) == 1

    def test_one_step(self):
        # one ascending step multiplies by |q0|, one descending by |p0|
        params = BSParams(4, 6)
        v0 = tree.base_vertex(params)
        up = tree.canonical_vertex(GroupWord.t(), params)
        down = tree.canonical_vertex(GroupWord.t(-1), params)
        assert tree.stabilizer_index(v0, up) == params.d0 * abs(params.q0)
        assert tree.stabilizer_index(v0, down) == params.d0 * abs(params.p0)

    def test_matches_power_search(self):
        rng = random.Random(8)
        for params in [BSParams(2, 3), BSParams(2, -3), BSParams(4, 6)]:
            verts = sorted(ball(params, 2), key=lambda v: v.to_text())
            v0 = tree.base_vertex(params)
            sample = rng.sample(verts, min(12, len(verts)))
            for v in sample:
                assert tree.stabilizer_index(v0, v) == smallest_power_index(v0, v)

    def test_away_from_base(self):
        params = BSParams(2, 3)
        u = tree.canonical_vertex(GroupWord.parse("t a t"), params)
        v = tree.canonical_vertex(GroupWord.parse("t a T a"), params)
        assert tree.stabilizer_index(u, v) == smallest_power_index(u, v)


class TestFixedVertex:
    def test_a_power_fixes_base(self):
        params = BSParams(2, 3)
        assert tree.fixed_vertex(GroupWord.a(5), params) == tree.base_vertex(params)

    def test_translation_has_none(self):
        params = BSParams(2, 3)
        assert tree.fixed_vertex(GroupWord.t(), params) is None
        assert tree.fixed_vertex(GroupWord.parse("a t"), params) is None

    def test_conjugate_fixes_shifted_vertex(self):
        params = BSParams(2, 3)
        v = tree.fixed_vertex(GroupWord.parse("t a T"), params)
        assert v == tree.canonical_vertex(GroupWord.t(), params)

    def test_fixed_point_is_fixed(self):
        rng = random.Random(9)
        params = BSParams(2, 3)
        for _ in range(100):
            g = random_word(rng, max_runs=4, max_exp=3)
            w = g * GroupWord.a(rng.randrange(1, 4)) * g.inverse()
            v = tree.fixed_vertex(w, params, radius=64)
            assert v is not None
            assert tree.canonical_vertex(w * v.rep_word(), params) == v
