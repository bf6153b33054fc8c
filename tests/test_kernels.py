"""Kernel semantics against brute force and frozen examples."""

import random

from bsmg import _kernels as kernels


def brute_labels(n, sources, ranges):
    adj = {i: set() for i in range(n)}
    for a, b in zip(sources, ranges):
        adj[a].add(b)
        adj[b].add(a)
    labels = [None] * n
    next_label = 0
    for start in range(n):
        if labels[start] is not None:
            continue
        stack = [start]
        while stack:
            i = stack.pop()
            if labels[i] is not None:
                continue
            labels[i] = next_label
            stack.extend(adj[i])
        next_label += 1
    return labels


class TestComponentLabels:
    def test_frozen_example(self):
        got = kernels.component_labels(5, [0, 3], [1, 4])
        assert got == [0, 0, 1, 2, 2]

    def test_first_occurrence_order(self):
        got = kernels.component_labels(4, [3, 1], [2, 0])
        # node 0 always carries label 0 even though its edge comes second
        assert got == [0, 0, 1, 1]
        assert max(got) == len(set(got)) - 1

    def test_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 12)
            m = rng.randint(0, 20)
            src = [rng.randrange(n) for _ in range(m)]
            dst = [rng.randrange(n) for _ in range(m)]
            assert kernels.component_labels(n, src, dst) == \
                brute_labels(n, src, dst)


def brute_closure(gens, n):
    """Every product of generators, grown until no new element appears."""
    group = {tuple(range(n))}
    while True:
        grown = group | {tuple(e[g[i]] for i in range(n))
                         for e in group for g in gens}
        if grown == group:
            return group
        group = grown


class TestPermClosure:
    def test_identity_first(self):
        got = kernels.perm_closure([(1, 0, 2)], 10)
        assert got == [(0, 1, 2), (1, 0, 2)]

    def test_s3(self):
        got = kernels.perm_closure([(1, 0, 2), (1, 2, 0)], 10)
        assert len(got) == 6
        assert got[0] == (0, 1, 2)
        assert len(set(got)) == 6

    def test_bound(self):
        five = tuple((i + 1) % 5 for i in range(5))
        assert kernels.perm_closure([five], 3) is None
        assert len(kernels.perm_closure([five], 5)) == 5

    def test_against_brute_force(self):
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 6)
            gens = []
            for _ in range(rng.randint(1, 3)):
                perm = list(range(n))
                rng.shuffle(perm)
                gens.append(tuple(perm))
            group = brute_closure(gens, n)
            got = kernels.perm_closure(gens, len(group))
            assert got[0] == tuple(range(n))
            assert len(got) == len(group) and set(got) == group
            assert kernels.perm_closure(gens, len(group) - 1) is None

    def test_empty(self):
        assert kernels.perm_closure([], 10) == [()]

    def test_a_bound_below_one_refuses_every_closure(self):
        # every closure holds the identity, so it has at least one element
        for gens in ([], [(0, 1)], [(1, 0)], [(0, 1, 2), (1, 2, 0)]):
            for bound in (0, -1):
                assert kernels.perm_closure(gens, bound) is None
        assert kernels.perm_closure([(0, 1)], 1) == [(0, 1)]
        assert kernels.perm_closure([], 1) == [()]
