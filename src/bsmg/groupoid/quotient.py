"""Quotients of finite measured groupoids and tree-valued invariant maps.

The quotient of G by a subgroupoid S collapses each two-sided class S.g.S to
one arrow over the S-components of the unit space. The construction never
assumes S sits normally: it builds the classes first and then checks, in
order, that the unit classes recover exactly S (kernel), that every quotient
arrow lifts from every fiber point of its source component, and that the
class product is well defined. Any failure raises NotNormal with a witness.

Class endpoints need no check: a class joins g only to s.g and g.s for s in
S, which keep the S-components of both ends of g. So the unit loops of one
S-component share a class (s = s.1_x = 1_y.s) and those of two do not; as
classes are numbered by their first arrow and arrows 0..n_units-1 are the
unit loops, the unit class at x is numbered as x's S-component is.

The second half realizes cocycle-invariant assignments into the acting tree
of a two-generator one-relator presentation: equivariant vertex maps found by
bounded search, and induced finite vertex sets for finite-index subgroupoids.
"""

from __future__ import annotations

from fractions import Fraction

from .._kernels import component_labels
from ..errors import IndexNotConstant, NotACocycle, NotNormal, VerificationFailure
from ..tree import base_vertex, canonical_vertex, neighbors
from ..words import GroupWord, same_element
from .core import (ErgodicDecomposition, FiniteMeasuredGroupoid, GroupoidMap,
                   Subgroupoid, arrows_by, certificate, composable_pairs,
                   id_set, spanning_forest, table_product)


def _class_partition(G, s_ids):
    """Partition of the arrows into two-sided classes S.g.S: the components
    of the graph joining g to s.g and to g.s for s in S, labeled by the
    union-find of component_labels (the one the ergodic decomposition uses).
    Returns (class label per arrow, classes as ascending id tuples)."""
    ends, joined = [], []
    by_src = arrows_by(G.src, s_ids)
    for g in range(G.n_arrows):
        for s in by_src.get(G.rng[g], ()):
            ends.append(g)
            joined.append(G.product(s, g))
    by_rng = arrows_by(G.rng, s_ids)
    for g in range(G.n_arrows):
        for s in by_rng.get(G.src[g], ()):
            ends.append(g)
            joined.append(G.product(g, s))
    if None in joined:
        raise ValueError("quotient needs a complete product")
    labels = component_labels(G.n_arrows, ends, joined)
    classes = [[] for _ in range(max(labels, default=-1) + 1)]
    for g, c in enumerate(labels):
        classes[c].append(g)
    return labels, [tuple(c) for c in classes]


def quotient(G, S):
    """The projection GroupoidMap G -> Q onto the quotient groupoid: units[x]
    is the S-component of x and arrows[g] the class of g. Raises NotNormal
    when S does not sit normally enough for the quotient to exist.
    """
    s_ids = id_set(S)
    dec = ErgodicDecomposition(G, sorted(s_ids))
    # the unit classes come first, in component order (see above)
    theta, classes = _class_partition(G, s_ids)

    # kernel: the classes of the unit arrows must union to exactly S
    kernel = set()
    for x in range(G.n_units):
        kernel.update(classes[theta[G.unit_arrow(x)]])
    if kernel != s_ids:
        extra = sorted(kernel - s_ids)[:4]
        missing = sorted(s_ids - kernel)[:4]
        raise NotNormal(
            "unit classes do not recover the subgroupoid "
            f"(extra arrows {extra}, unreached {missing})")

    n_comp = dec.n_components
    q_src = [dec.component_of[G.src[members[0]]] for members in classes]
    q_rng = [dec.component_of[G.rng[members[0]]] for members in classes]
    q_inv = [theta[G.inv[members[0]]] for members in classes]

    # lifting: every class must contain an arrow out of every source point
    for c, members in enumerate(classes):
        sources = {G.src[g] for g in members}
        needed = set(dec.components[q_src[c]])
        if sources != needed:
            raise NotNormal(
                f"class {c} does not lift from every fiber point "
                f"(misses units {sorted(needed - sources)[:4]})")

    # product: class of g.h must not depend on the representatives. Every
    # composable pair of classes has a lift: h ends in the source component
    # of a, and a lifts from r(h)
    q_prod = {}
    for g, h, k in composable_pairs(G):
        if k is None:
            raise ValueError("quotient needs a complete product")
        a, b = theta[g], theta[h]
        if q_prod.setdefault((a, b), theta[k]) != theta[k]:
            raise NotNormal(
                f"product of classes ({a},{b}) is not well defined "
                f"(witness arrows {g},{h})")

    q_labels = ["e"] * n_comp + [f"c{c}" for c in range(n_comp, len(classes))]
    Q = FiniteMeasuredGroupoid(
        [f"z{z}" for z in range(n_comp)], dec.masses,
        q_src, q_rng, q_inv, q_labels, table_product(q_prod))
    return GroupoidMap(G, Q, dec.component_of, tuple(theta))


def check_group_action_quotient(S, proj):
    """For an action groupoid G, S the arrows of a normal subgroup and proj
    = quotient(G, S), verify that Q is the action groupoid of the quotient
    group: (coset, component) -> class is well defined, bijective on fibers
    and multiplicative. Raises VerificationFailure at the first discrepancy."""
    G, Q, comp_of, theta = proj
    group = certificate(G)
    multiply, arrow_id = group.multiply, group.arrow
    lam = sorted({group.element(g) for g in id_set(S)})
    # right cosets e.Lam as frozensets of element indices
    coset_of = {}
    cosets = []
    for ei in range(group.order):
        if ei in coset_of:
            continue
        members = frozenset(multiply(ei, li) for li in lam)
        cid = len(cosets)
        cosets.append(members)
        for m in members:
            coset_of[m] = cid
    components = arrows_by(comp_of, range(G.n_units))

    # well defined: theta constant over the coset and over the component
    table = {}
    for cid, members in enumerate(cosets):
        for z, comp in sorted(components.items()):
            seen = {theta[arrow_id(ei, x)] for ei in members for x in comp}
            if len(seen) != 1:
                raise VerificationFailure(
                    f"coset {cid} over component {z} maps to classes {sorted(seen)}")
            table[(cid, z)] = seen.pop()
    # bijective on each fiber
    for z in range(Q.n_units):
        image = {table[(cid, z)] for cid in range(len(cosets))}
        fiber = {alpha for alpha in range(Q.n_arrows) if Q.src[alpha] == z}
        if image != fiber:
            raise VerificationFailure(
                f"coset map is not a bijection on the fiber of component {z}")
    # multiplicative
    for cid1 in range(len(cosets)):
        for cid2 in range(len(cosets)):
            e1 = min(cosets[cid1])
            e2 = min(cosets[cid2])
            for z in range(Q.n_units):
                x = components[z][0]
                mid = comp_of[G.rng[arrow_id(e2, x)]]
                left = Q.product(table[(cid1, mid)], table[(cid2, z)])
                right = table[(coset_of[multiply(e1, e2)], z)]
                if left != right:
                    raise VerificationFailure(
                        f"coset map not multiplicative at ({cid1},{cid2},{z})")
    return True


# -- tree-valued invariant maps ---------------------------------------------


def check_word_cocycle(G, arrow_ids, rho, params):
    """rho maps arrow ids to group words; verify multiplicativity over every
    composable pair inside arrow_ids (composable_pairs) and compatibility
    with inverses."""
    ids = set(arrow_ids)
    for g in sorted(ids):
        gi = G.inv[g]
        if gi in rho and not same_element(
                rho[g] * rho[gi], GroupWord.identity(), params):
            raise NotACocycle(f"rho breaks at the inverse of arrow {g}")
    for g, h, k in composable_pairs(G, ids):
        if k is None:
            raise ValueError("cocycle check needs a complete product")
        if k not in rho:
            raise NotACocycle(f"rho undefined on composite arrow {k}")
        if not same_element(rho[g] * rho[h], rho[k], params):
            raise NotACocycle(f"rho breaks at the pair ({g},{h})")


def _translate(word, vertex):
    return canonical_vertex(word * vertex.rep_word(), vertex.params)


def _vertex_ball(params, radius):
    center = base_vertex(params)
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for _, w in neighbors(v):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return sorted(seen, key=lambda v: (len(v.form.syllables), str(v)))


def find_invariant_vertex_map(G, S, rho, params, *, radius=3):
    """Search for a vertex assignment x -> psi(x) with
    rho(g) . psi(s(g)) == psi(r(g)) for every arrow g of S.

    rho is a dict {arrow id: GroupWord} and is validated as a cocycle first.
    Candidate base vertices v are drawn from the ball of the given radius
    around the standard base vertex, per S-component; returns the assignment
    dict or None when no candidate in the ball works.

    A candidate v at the lowest unit x0 of a component is spread along the
    spanning_forest of S (a backward step through g applies rho(g)^-1) and
    passes when every arrow of S inside the component then holds. After
    check_word_cocycle, two paths from x0 to a unit differ by an S-loop l at
    x0, so v passes on one tree exactly when every rho(l) fixes v, and then
    every tree gives the same map: an invariant map is fixed along any tree
    by its value at x0.
    """
    s_ids = sorted(id_set(S))
    check_word_cocycle(G, s_ids, rho, params)
    if not isinstance(S, Subgroupoid):
        S = Subgroupoid(G, s_ids, check=False)
    _, steps = spanning_forest(S)
    trees = []
    for x, g, backwards in steps:
        if g is None:
            trees.append((x, []))
        else:
            trees[-1][1].append((g, backwards))
    ball = _vertex_ball(params, radius)
    psi = {}
    for x0, tree_steps in trees:
        for cand in ball:
            trial = {x0: cand}
            for g, backwards in tree_steps:
                if backwards:
                    trial[G.src[g]] = _translate(rho[g].inverse(),
                                                 trial[G.rng[g]])
                else:
                    trial[G.rng[g]] = _translate(rho[g], trial[G.src[g]])
            if all(_translate(rho[g], trial[G.src[g]]) == trial[G.rng[g]]
                   for g in s_ids if G.src[g] in trial and G.rng[g] in trial):
                psi.update(trial)
                break
        else:
            return None
    return psi


def induce_finite_invariant_set(G, H, rho, psi, params):
    """From an H-invariant vertex map psi, build the induced finite-set map
    Psi(x) = { rho(g)^-1 . psi(r(g)) : g over the H-classes of s^-1(x) }.

    H must have constant index in G over the units (IndexNotConstant
    otherwise) and psi must be H-invariant (ValueError). The result is
    checked to be invariant under every arrow of G and to contain psi
    pointwise; both checks are structural identities, verified anyway."""
    from .pseudogroup import coset_classes

    h_ids = id_set(H)
    for g in sorted(h_ids):
        if _translate(rho[g], psi[G.src[g]]) != psi[G.rng[g]]:
            raise ValueError(f"psi is not invariant under arrow {g} of H")
    counts = set()
    reps_at = {}
    for x in range(G.n_units):
        classes = coset_classes(G, h_ids, x)
        counts.add(len(classes))
        reps_at[x] = [cls[0] for cls in classes]
    if len(counts) != 1:
        raise IndexNotConstant(f"fiber class counts vary: {sorted(counts)}")
    big = {}
    for x in range(G.n_units):
        vals = set()
        for g in reps_at[x]:
            vals.add(_translate(rho[g].inverse(), psi[G.rng[g]]))
        big[x] = frozenset(vals)
    for g in range(G.n_arrows):
        moved = frozenset(_translate(rho[g], v) for v in big[G.src[g]])
        if moved != big[G.rng[g]]:
            raise VerificationFailure(
                f"induced set map fails invariance at arrow {g}")
    for x in range(G.n_units):
        if psi[x] not in big[x]:
            raise VerificationFailure(f"psi({x}) missing from the induced set")
    return big
