"""Seeded random groupoid instances for randomized law checks.

Two instance families cover complementary ground:

  * partition groupoids: principal, products by endpoint lookup, towers of
    sub-relations from partition refinement. Cheap, and plain index counts
    classes, so the index laws get exercised with nontrivial values.
  * action groupoids of small permutation groups: parallel arrows and point
    stabilizers, so local index and the modular cocycles see multiplicity.

Everything is driven by a caller-supplied random.Random so runs with the
same seed produce the same instances.
"""

from fractions import Fraction
from math import isqrt

from .._kernels import component_labels
from ..errors import GroupTooLarge
from .core import FiniteMeasuredGroupoid, Subgroupoid, certificate


def random_masses(rng, n):
    """Positive masses summing to 1, uniform on purpose three times in ten."""
    if rng.random() < 0.3:
        return [Fraction(1, n)] * n
    weights = [rng.randint(1, 6) for _ in range(n)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_partition(rng, items, *, max_blocks=None):
    items = list(items)
    rng.shuffle(items)
    k = rng.randint(1, max_blocks or len(items))
    blocks = [[] for _ in range(k)]
    for i, x in enumerate(items):
        blocks[i % k].append(x)
    blocks = [sorted(b) for b in blocks if b]
    blocks.sort()
    return blocks


def refine_blocks(rng, blocks):
    """Random refinement: each block splits into one or more sub-blocks."""
    out = []
    for block in blocks:
        out.extend(random_partition(rng, block))
    out.sort()
    return out


def partition_groupoid(masses, blocks):
    """Principal groupoid whose classes are the given partition blocks,
    which must be disjoint (ValueError); a unit in no block is a class of
    its own. The classes are the components, so the pair certificate is
    stated with the groupoid."""
    n = len(masses)
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    if len(block_of) != sum(map(len, blocks)):
        raise ValueError("partition blocks must be disjoint")
    # classes numbered by lowest unit; -1 - x keys the class of a unit x in
    # no block
    numbered = {}
    components = [numbered.setdefault(block_of.get(x, -1 - x), len(numbered))
                  for x in range(n)]
    names = [f"x{i}" for i in range(n)]
    src = list(range(n))
    rng_ = list(range(n))
    labels = [f"u{i}" for i in range(n)]
    pair_id = {}
    for block in blocks:
        for s in block:
            for r in block:
                if s != r:
                    pair_id[(s, r)] = len(src)
                    src.append(s)
                    rng_.append(r)
                    labels.append(f"{s}>{r}")
    inv = list(range(n)) + [0] * (len(src) - n)
    for (s, r), gid in pair_id.items():
        inv[gid] = pair_id[(r, s)]

    def pmap(s, r):
        return s if s == r else pair_id.get((s, r))

    return FiniteMeasuredGroupoid.principal(names, masses, src, rng_, inv,
                                            labels, pmap, components=components)


def relation_arrow_ids(G, blocks):
    """Arrow ids of the sub-relation induced by a refinement partition."""
    ids = set(range(G.n_units))
    where = {}
    for bi, block in enumerate(blocks):
        for x in block:
            where[x] = bi
    for g in range(G.n_units, G.n_arrows):
        if where[G.src[g]] == where[G.rng[g]]:
            ids.add(g)
    return frozenset(ids)


def random_partition_tower(rng, *, max_units=12):
    """(G, K_ids, H_ids) with H <= K <= G principal, from nested partitions."""
    n = rng.randint(2, max_units)
    blocks_g = random_partition(rng, range(n), max_blocks=max(1, n // 2))
    blocks_k = refine_blocks(rng, blocks_g)
    blocks_h = refine_blocks(rng, blocks_k)
    G = partition_groupoid(random_masses(rng, n), blocks_g)
    return G, relation_arrow_ids(G, blocks_k), relation_arrow_ids(G, blocks_h)


def cycle_on(support, n):
    """Permutation of range(n) cycling the listed points, fixing the rest."""
    perm = list(range(n))
    for i, x in enumerate(support):
        perm[x] = support[(i + 1) % len(support)]
    return tuple(perm)


def invariant_masses(rng, gens, n):
    """Random masses constant on the orbits of the generators, so every
    arrow of the action groupoid preserves the point mass."""
    srcs, rngs = [], []
    for gen in gens:
        srcs.extend(range(n))
        rngs.extend(gen)
    labels = component_labels(n, srcs, rngs)
    weight = {c: rng.randint(1, 6) for c in set(labels)}
    total = sum(weight[c] for c in labels)
    return [Fraction(weight[c], total) for c in labels]


def random_action_instance(rng, *, max_units=10, max_arrows=400,
                           preserve_masses=False):
    """Action groupoid of a small permutation group, abelian or dihedral.

    Normal subgroups of these groups are easy to pick, which the quotient
    and modular checks rely on. preserve_masses draws masses constant on
    orbits, which the modular cocycles require. The smallest instance is Z/2
    on 2 units, 4 arrows, so max_units below 2 or max_arrows below 4 raise
    ValueError (before any draw from rng).
    """
    if max_units < 2 or max_arrows < 4:
        raise ValueError(
            f"an action instance needs at least 2 units and 4 arrows, got "
            f"max_units={max_units} and max_arrows={max_arrows}")
    while True:
        n = rng.randint(2, max_units)
        style = rng.choice(("cyclic", "bicyclic", "dihedral"))
        if style == "dihedral" and n >= 3:
            rot = tuple((i + 1) % n for i in range(n))
            ref = tuple((-i) % n for i in range(n))
            gens = [rot, ref]
        elif style == "bicyclic" and n >= 4:
            pts = list(range(n))
            rng.shuffle(pts)
            cut = rng.randint(2, n - 2)
            gens = [cycle_on(pts[:cut], n), cycle_on(pts[cut:], n)]
        else:
            pts = list(range(n))
            rng.shuffle(pts)
            gens = [cycle_on(pts, n)]
        if preserve_masses:
            masses = invariant_masses(rng, gens, n)
        else:
            masses = random_masses(rng, n)
        try:
            G = FiniteMeasuredGroupoid.from_group_action(
                gens, masses, bound=max_arrows // n)
        except GroupTooLarge:
            continue
        if G.n_arrows <= max_arrows:
            return G


def identity_index(G):
    n = len(G.group_elements[0])
    return G.group_elements.index(tuple(range(n)))


def subgroup_closure(G, gen_indices):
    """Subgroup of G.group_elements (as an index set) generated by gens.

    The set grows from the identity by right multiplication with the
    generators only: in a finite group the monoid they generate is the
    subgroup, so each element costs one product per generator."""
    multiply = certificate(G).multiply
    gens = set(gen_indices)
    seen = {identity_index(G)}
    work = list(seen)
    while work:
        i = work.pop()
        for j in gens:
            k = multiply(i, j)
            if k not in seen:
                seen.add(k)
                work.append(k)
    return frozenset(seen)


def random_subgroup(rng, G):
    """Random subgroup as an element-index set, generated by up to two random
    elements; sometimes trivial or full."""
    order = len(G.group_elements)
    gens = [rng.randrange(order) for _ in range(rng.randint(0, 2))]
    return subgroup_closure(G, gens)


def subgroup_arrow_ids(G, elem_indices):
    """Arrows whose group element lies in the given element-index set."""
    members = set(elem_indices)
    element = certificate(G).element
    return frozenset(g for g in range(G.n_arrows) if element(g) in members)


def is_normal_subgroup(G, elem_indices):
    group, members = certificate(G), set(elem_indices)
    multiply = group.multiply
    return all(multiply(multiply(gi, li), group.inverse(gi)) in members
               for gi in range(group.order) for li in members)


def random_wide_subgroupoid(rng, G):
    """Wide subgroupoid generated by up to four random arrows."""
    seeds = [rng.randrange(G.n_arrows) for _ in range(rng.randint(0, 4))]
    return Subgroupoid.generated_by(G, seeds)


def random_groupoid(rng, *, max_units=12, max_arrows=400):
    """A random instance from either family, for the broad law checks, with
    at most max_arrows arrows: a partition tower is drawn on at most
    isqrt(max_arrows) units, since n units carry at most n^2 arrows. The
    smallest instance has 4 arrows, so max_arrows below 4 raises ValueError
    (before any draw from rng)."""
    if max_arrows < 4:
        raise ValueError(
            f"a random groupoid needs at least 4 arrows, got "
            f"max_arrows={max_arrows}")
    if rng.random() < 0.5:
        G, _, _ = random_partition_tower(
            rng, max_units=min(max_units, isqrt(max_arrows)))
        return G
    return random_action_instance(rng, max_units=min(max_units, 10),
                                  max_arrows=max_arrows)
