"""Independent slow-path oracles the tests compare the library against.

Everything here is written for obviousness, not speed: whole-word rescans,
breadth-first walks, smallest-power searches, whole-word tree steps, a
Cesaro loop on ThetaAffine values, bound arithmetic on interval thetas, and
groupoid products composed from the arrow labels. None of it shares code
with the implementations under test beyond the public data types and the
exact ThetaAffine sign, floor and division.
"""

import math
from fractions import Fraction

from bsmg import tree
from bsmg.dynamics import (
    _ZERO,
    CesaroReport,
    _abs_theta,
    _affine_product,
    _to_float,
    affine_floor,
    affine_sign,
    as_affine,
    div_by_theta,
)
from bsmg.errors import PrecisionError
from bsmg.words import GroupWord, normalize


def oracle_normal_form(word, params):
    """Normal form computed by repeated whole-word pinch scans followed by a
    left-to-right remainder push. Returns (k0, ((e, k), ...)) as plain
    tuples for comparison against the incremental folder."""
    p, q = params.p, params.q
    k0, syls = _to_syllables(word)
    # phase 1: remove pinches, rescanning from scratch after every hit
    while True:
        hit = None
        for i in range(len(syls) - 1):
            e, k = syls[i]
            e2, _ = syls[i + 1]
            if e == 1 and e2 == -1 and k % p == 0:
                hit = (i, q * (k // p))
                break
            if e == -1 and e2 == 1 and k % q == 0:
                hit = (i, p * (k // q))
                break
        if hit is None:
            break
        i, merged = hit
        merged += syls[i + 1][1]
        del syls[i:i + 2]
        if i == 0:
            k0 += merged
        else:
            e, k = syls[i - 1]
            syls[i - 1] = (e, k + merged)
    # phase 2: push transversal remainders to the right
    for i in range(len(syls)):
        e, _ = syls[i]
        prev = k0 if i == 0 else syls[i - 1][1]
        if e == 1:
            r = prev % abs(q)
            carry = p * ((prev - r) // q)
        else:
            r = prev % abs(p)
            carry = q * ((prev - r) // p)
        if i == 0:
            k0 = r
        else:
            syls[i - 1] = (syls[i - 1][0], r)
        syls[i] = (e, syls[i][1] + carry)
    return k0, tuple(syls)


def _to_syllables(word):
    k0 = 0
    syls = []
    for letter, exp in word.runs:
        if letter == "a":
            if syls:
                e, k = syls[-1]
                syls[-1] = (e, k + exp)
            else:
                k0 += exp
        else:
            step = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                syls.append((step, 0))
    return k0, syls


def oracle_is_identity(word, params):
    k0, syls = oracle_normal_form(word, params)
    return k0 == 0 and not syls


def bfs_distance(u, v, limit=8):
    """Tree distance by breadth-first search over neighbor lists; None when
    v is farther than limit."""
    if u == v:
        return 0
    seen = {u}
    frontier = [u]
    for depth in range(1, limit + 1):
        nxt = []
        for vertex in frontier:
            for _, w in tree.neighbors(vertex):
                if w == v:
                    return depth
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def smallest_power_index(u, v, bound=400):
    """Order of the stabilizer of v inside the stabilizer of u, found by
    trying powers of the generator one by one."""
    params = u.params
    if u == v:
        return 1
    g = u.rep_word()
    x = g * GroupWord.a() * g.inverse()
    # walk x^n * v_rep incrementally, renormalizing to keep words short
    cur = v.rep_word()
    for n in range(1, bound + 1):
        cur = normalize(x * cur, params).to_word()
        if tree.canonical_vertex(cur, params) == v:
            return n
    raise AssertionError(f"no power up to {bound} stabilizes {v.to_text()}")


def ball(params, radius):
    """All vertices within the given tree radius of the base vertex."""
    v0 = tree.base_vertex(params)
    seen = {v0}
    frontier = [v0]
    for _ in range(radius):
        nxt = []
        for vertex in frontier:
            for _, w in tree.neighbors(vertex):
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def orbit_count(step, modulus):
    """Orbits of x -> x + step on Z/modulus, by explicit enumeration."""
    seen = [False] * modulus
    count = 0
    for start in range(modulus):
        if seen[start]:
            continue
        count += 1
        x = start
        while not seen[x]:
            seen[x] = True
            x = (x + step) % modulus
    return count


def iso_orbit(p, q):
    """The set of parameter pairs defining the same group, generated by the
    two obvious moves (swap the pair, negate both entries)."""
    out = set()
    work = [(p, q)]
    while work:
        pair = work.pop()
        if pair in out:
            continue
        out.add(pair)
        a, b = pair
        work.extend([(b, a), (-a, -b)])
    return out


def mass_transport_sum(G, values):
    """Sum of f(g) m(s(g)) minus sum of f(g^-1) m(s(g)); zero when the
    values come from a measure-preserving symmetry."""
    total = Fraction(0)
    for g in range(G.n_arrows):
        total += values[g] * G.masses[G.src[g]]
        total -= values[G.inv[g]] * G.masses[G.src[g]]
    return total


def sqrt5_sign(u, w):
    """Sign of u + w*sqrt(5) for rationals u, w: compare the squares u^2 and
    5 w^2 when the two terms have opposite signs."""
    if w == 0 or u * w >= 0:
        total = u if u != 0 else w
        return (total > 0) - (total < 0)
    dominant = u if u * u > 5 * w * w else w
    return 1 if dominant > 0 else -1


def interval_sign(theta, value):
    """Sign of a + b*theta on an interval theta [lo, hi] by bound
    arithmetic: the least and greatest values over the interval, read at the
    end that minimizes or maximizes b*theta. PrecisionError when they do
    not share a sign (or both vanish)."""
    a, b = value.a, value.b
    vlo = a + b * (theta.lo if b >= 0 else theta.hi)
    vhi = a + b * (theta.hi if b >= 0 else theta.lo)
    if vlo > 0:
        return 1
    if vhi < 0:
        return -1
    if vlo == vhi == 0:
        return 0
    raise PrecisionError(f"cannot decide the sign of {value} on {theta!r}")


def interval_floor(theta, value):
    """Floor of a + b*theta on an interval theta: a candidate from the
    midpoint, then the fencepost settled by interval_sign of value - n and
    value - (n + 1), which raises PrecisionError where either straddles 0,
    an exact-integer end included."""
    n = math.floor(value.a + value.b * (theta.lo + theta.hi) / 2)
    while interval_sign(theta, value - n) < 0:
        n -= 1
    while interval_sign(theta, value - (n + 1)) >= 0:
        n += 1
    return n


def arrows_from(G, x):
    """s^-1(x) by a scan of every arrow."""
    return [g for g in range(G.n_arrows) if G.src[g] == x]


def arrows_into(G, x):
    """r^-1(x) by a scan of every arrow."""
    return [g for g in range(G.n_arrows) if G.rng[g] == x]


def left_class_count(G, sub_ids, x, ambient_ids=None):
    """[ambient : sub]_x straight from the definition (ambient is all of G
    when ambient_ids is None): g ~ h in s^-1(x) iff g h^-1 lies in sub; one
    class per distinct set of partners."""
    fiber = arrows_from(G, x)
    if ambient_ids is not None:
        ambient = set(ambient_ids)
        fiber = [g for g in fiber if g in ambient]
    sub = set(sub_ids)
    return len({frozenset(h for h in fiber if G.product(g, G.inv[h]) in sub)
                for g in fiber})


def two_sided_classes(G, s_ids):
    """The classes S.g.S of the arrows, by a fixpoint: every arrow starts
    with its own id as label, and each pass gives g, s.g and g.s (s in S,
    composable) the least label among them until nothing changes. Returns
    (label per arrow, numbered by first occurrence; classes as ascending id
    tuples), the shape quotient's class partition has."""
    sub = sorted(set(s_ids))
    label = list(range(G.n_arrows))
    changed = True
    while changed:
        changed = False
        for g in range(G.n_arrows):
            for s in sub:
                for k in (G.product(s, g), G.product(g, s)):
                    if k is not None and label[k] != label[g]:
                        label[g] = label[k] = min(label[g], label[k])
                        changed = True
    number = {}
    for g in range(G.n_arrows):
        number.setdefault(label[g], len(number))
    labels = [number[label[g]] for g in range(G.n_arrows)]
    classes = [tuple(g for g in range(G.n_arrows) if labels[g] == c)
               for c in range(len(number))]
    return labels, classes


def label_product(G, elements=None, normalizer=None):
    """The reference product of G, composed from its labels: compose(g, h)
    for s(g) = r(h) is the arrow leaving s(h) whose label is the product of
    the labels of g and h, None when G has no such arrow.

    - Given elements, the permutations of an action groupoid (of G or of
      the groupoid G is a restriction of): labels ("g", e) multiply as the
      permutations, elements[e_g] after elements[e_h].
    - Labels that are words, tuples of signed seed indices (a partial
      isomorphism closure): the free reduction of the concatenation g h,
      then normalizer when one is given.
    - Any other labels (a principal groupoid): the arrow from s(h) to r(g),
      one per unit pair (ValueError when two arrows join the same pair).
    """
    src, rng, labels = G.src, G.rng, G.labels
    by_label = {(src[g], labels[g]): g for g in range(G.n_arrows)}
    if elements is not None:
        index_of = {perm: e for e, perm in enumerate(elements)}

        def mul(a, b):
            first, then = elements[b[1]], elements[a[1]]
            return ("g", index_of[tuple(then[x] for x in first)])
    elif all(isinstance(lab, tuple) and all(type(s) is int for s in lab)
             for lab in labels):
        def mul(a, b):
            word = []
            for s in a + b:
                if word and word[-1] == -s:
                    word.pop()
                else:
                    word.append(s)
            word = tuple(word)
            return normalizer(word) if normalizer else word
    else:
        by_ends = {}
        for g in range(G.n_arrows):
            if by_ends.setdefault((src[g], rng[g]), g) != g:
                raise ValueError(f"arrows {by_ends[(src[g], rng[g])]} and "
                                 f"{g} join the same unit pair")
        return lambda g, h: by_ends.get((src[h], rng[g]))
    return lambda g, h: by_label.get((src[h], mul(labels[g], labels[h])))


def product_violations(G):
    """The lines validate reports about the product and the attached RN
    values, in its order, found by trying every pair and triple of arrows."""
    n = G.n_arrows
    prod = {(g, h): G.product(g, h) for g in range(n) for h in range(n)}
    lines = []
    for g in range(n):
        for h in range(n):
            if G.src[g] != G.rng[h]:
                continue
            k = prod[(g, h)]
            if k is None:
                if G.product_complete:
                    lines.append(f"missing product ({g},{h})")
            elif (G.src[k], G.rng[k]) != (G.src[h], G.rng[g]):
                lines.append(f"product ({g},{h}) has wrong endpoints")
    for g in range(n):
        for h in range(n):
            for f in range(n):
                gh, hf = prod[(g, h)], prod[(h, f)]
                if gh is None or hf is None:
                    continue
                left, right = prod[(gh, f)], prod[(g, hf)]
                if left is not None and right is not None and left != right:
                    lines.append(f"associativity fails at ({g},{h},{f})")
    if G.rn_values is not None:
        rn = G.rn_values
        for (g, h), k in prod.items():
            if k is not None and rn[g] * rn[h] != rn[k]:
                lines.append(f"attached RN values not multiplicative at ({g},{h})")
    return lines


def scratch_neighbors(vertex):
    """tree.neighbors with every neighbour normalized from the whole word
    rep * a^i (* t or * t^-1)."""
    params = vertex.params
    rep = vertex.rep_word()
    result = []
    for i in range(abs(params.q)):
        shifted = rep * GroupWord.a(i)
        edge = tree.TreeEdge(params, tree.canonical_edge(shifted, params), 1)
        result.append((edge, tree.canonical_vertex(shifted * GroupWord.t(),
                                                   params)))
    for j in range(abs(params.p)):
        shifted = rep * GroupWord.a(j) * GroupWord.t(-1)
        edge = tree.TreeEdge(params, tree.canonical_edge(shifted, params), -1)
        result.append((edge, tree.canonical_vertex(shifted, params)))
    return result


def scratch_geodesic(u, v):
    """tree.geodesic with every prefix renormalized from its whole word."""
    params = u.params
    diff = normalize(u.rep_word().inverse() * v.rep_word(), params)
    vertices = [u]
    edges = []
    prefix = u.rep_word() * GroupWord.a(diff.k0)
    for e, k in diff.syllables:
        if e == 1:
            edges.append(tree.TreeEdge(
                params, tree.canonical_edge(prefix, params), 1))
        else:
            edges.append(tree.TreeEdge(
                params, tree.canonical_edge(prefix * GroupWord.t(-1), params),
                -1))
        prefix = prefix * GroupWord.t(e) * GroupWord.a(k)
        vertices.append(tree.canonical_vertex(prefix, params))
    return tree.Geodesic(tuple(vertices), tuple(edges))


def _intervals_mod(theta, lo, hi):
    """The set [lo, hi) pushed into the circle [0, |theta|): 1 or 2 pieces."""
    width = _abs_theta(theta)
    q = div_by_theta(theta, lo)
    shift = width.scale(affine_floor(theta, q))
    lo = lo - shift
    hi = hi - shift
    if affine_sign(theta, width - hi) >= 0:
        return [(lo, hi)]
    return [(lo, width), (_ZERO, hi - width)]


def _meet(theta, one, two):
    """Intersection of two disjoint-interval lists; endpoints affine."""
    out = []
    for lo1, hi1 in one:
        for lo2, hi2 in two:
            lo = lo1 if affine_sign(theta, lo1 - lo2) >= 0 else lo2
            hi = hi1 if affine_sign(theta, hi1 - hi2) <= 0 else hi2
            if affine_sign(theta, hi - lo) > 0:
                out.append((lo, hi))
    return out


def _total_length(pieces):
    total = _ZERO
    for lo, hi in pieces:
        total = total + (hi - lo)
    return total


def cesaro_reference(base, theta, A1, B1, A2, B2, horizon, *,
                     sample_every=None):
    """dynamics.cesaro_mixing_test step by step on ThetaAffine values: at
    every step the return-time pieces, the shifted A1 and their meets with
    A2 are built as intervals, and the step's term is divided by theta and
    added to the running total. Takes a positive rational or golden theta
    and valid interval lists; the library checks those."""
    width = _abs_theta(theta)
    A1 = [(as_affine(lo), as_affine(hi)) for lo, hi in A1]
    A2 = [(as_affine(lo), as_affine(hi)) for lo, hi in A2]
    muB1, muB2 = base.measure(B1), base.measure(B2)
    t1 = div_by_theta(theta, _total_length(A1))
    t2 = div_by_theta(theta, _total_length(A2))
    product = muB1 * muB2
    target_affine = _affine_product(t1, t2).scale(product)
    total = _ZERO
    samples = []
    independent_from = None
    sample_every = sample_every or max(1, horizon // 50)
    span1 = [c for c, _ in B1.fixed]
    span2 = [c for c, _ in B2.fixed]
    indep_dist = max(0, max(span1) - min(span2) + 1) if span1 and span2 else 0
    for k in range(1, horizon + 1):
        m0 = affine_floor(theta, div_by_theta(theta, k))
        cut = width.scale(m0 + 1) - k
        cut_sign = affine_sign(theta, cut)
        if cut_sign > 0 and affine_sign(theta, width - cut) > 0:
            pieces = [((_ZERO, cut), m0), ((cut, width), m0 + 1)]
        elif cut_sign <= 0:
            pieces = [((_ZERO, width), m0 + 1)]
        else:
            pieces = [((_ZERO, width), m0)]
        shiftA1 = []
        for lo, hi in A1:
            shiftA1.extend(_intervals_mod(theta, lo - k, hi - k))
        term = _ZERO
        all_factors_product = True
        for (plo, phi_), m in pieces:
            cell = _meet(theta, [(plo, phi_)], shiftA1)
            cell = _meet(theta, cell, A2)
            if not cell:
                continue
            factor = base.meet_measure(B1.shifted(-m), B2)
            if factor != product:
                all_factors_product = False
            term = term + _total_length(cell).scale(factor)
        if independent_from is None and all_factors_product \
                and m0 >= indep_dist:
            independent_from = k
        total = total + div_by_theta(theta, term)
        if k % sample_every == 0 or k == horizon:
            avg = total.scale(Fraction(1, k))
            gap = avg - target_affine
            samples.append((k, _to_float(theta, avg), _to_float(theta, gap)))
    avg = total.scale(Fraction(1, horizon))
    gap = avg - target_affine
    burn = independent_from or horizon
    burn_in_bound = (burn / horizon) * (1.0 + float(product))
    return CesaroReport(horizon, _to_float(theta, avg),
                        _to_float(theta, target_affine),
                        abs(_to_float(theta, gap)), repr(gap), gap,
                        independent_from, samples, burn_in_bound)
