"""Independent slow-path oracles the tests compare the library against.

Everything here is written for obviousness, not speed: whole-word rescans,
breadth-first walks, smallest-power searches, whole-word tree steps, orbit
and cycle walks, trial-division factoring, a Cesaro loop on ThetaAffine
values, groupoid products composed from the arrow labels, a scan of the
laws a groupoid map must keep, the pair certificate derived from a
principal map, and the small readers of thetas, partial isomorphisms,
restrictions, components, tree edges, groupoid documents and truncated
ring levels that only tests need, the level model grown from its seed
maps or written one arrow at a time, and words and normal forms held as
fresh tuples. None of it shares code with the implementations under test
beyond the public data types, the exact ThetaAffine sign, floor and
division, the composable-pairs walk, the tree's edge-coset reduction and
the words valuation.
"""

import json
import math
from fractions import Fraction

from bsmg import tree
from bsmg.cocycle.levelmodel import level_sizes
from bsmg.dynamics import (
    _ZERO,
    CesaroReport,
    _abs_theta,
    _affine_product,
    _fib,
    _to_float,
    affine_floor,
    affine_sign,
    as_affine,
    div_by_theta,
)
from bsmg.errors import VerificationFailure
from bsmg.groupoid.core import PairCertificate, composable_pairs
from bsmg.groupoid.pseudogroup import PartialIso
from bsmg.words import (BrittonNormalForm, GroupWord, generalized_valuation,
                        normalize)


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


def fresh_word(runs):
    """The free reduction of runs as a GroupWord of fresh tuples, one
    allocated per run, with no pair shared with the words module's table."""
    reduced = []
    for letter, exp in runs:
        if exp == 0:
            continue
        if reduced and reduced[-1][0] == letter:
            merged = reduced.pop()[1] + exp
            if merged:
                reduced.append((letter, merged))
        else:
            reduced.append((letter, exp))
    return GroupWord._reduced(tuple(reduced))


def fresh_form(word, params):
    """The normal form of word as a BrittonNormalForm whose syllables are
    the fresh tuples of the pinch-scan oracle."""
    return BrittonNormalForm(*oracle_normal_form(word, params))


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


def cycle_lengths(perm):
    """Sorted cycle lengths of a permutation given as a list, by walking
    each cycle from its lowest point."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            seen[x] = True
            size += 1
            x = perm[x]
        lengths.append(size)
    return sorted(lengths)


def trial_division_type(loop_values):
    """(kind, lambda) of the one-unit model with these loop values: the
    defects are the values other than 1, factored into primes by trial
    division; rank 0 is II, rank 1 III_lambda with its generator mapped
    below 1, rank 2 or more III_1. Slow on a long prime."""
    defects = [Fraction(v) for v in loop_values if Fraction(v) != 1]
    if not defects:
        return "II", None

    def factor(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    def exponents(v):
        num, den = factor(v.numerator), factor(v.denominator)
        return [num.get(p, 0) - den.get(p, 0) for p in primes]

    primes = sorted({p for v in defects
                     for n in (v.numerator, v.denominator) for p in factor(n)})
    vectors = [exponents(v) for v in defects]
    first = vectors[0]
    for v in vectors[1:]:
        if any(first[i] * v[j] != first[j] * v[i]
               for i in range(len(primes)) for j in range(len(primes))):
            return "III_1", None
    content = math.gcd(*first)
    direction = [c // content for c in first]
    j0 = next(i for i, c in enumerate(direction) if c)
    g0 = math.gcd(*(v[j0] // direction[j0] for v in vectors))
    lam = Fraction(1)
    for p, c in zip(primes, direction):
        lam *= Fraction(p) ** (g0 * c)
    return "III_lambda", min(lam, 1 / lam)


def bfs_vertex_map(G, s_ids, rho, params, radius=3):
    """A vertex map x -> psi(x) with rho(g) . psi(s(g)) == psi(r(g)) on every
    arrow g of s_ids (closed under inverse), or None: per component, from
    its lowest unit, a breadth-first tree along outgoing arrows in id
    order, and the first vertex of the radius ball, taken in (syllable
    count, text) order, that the tree spreads to an invariant map."""
    def act(word, vertex):
        return tree.canonical_vertex(word * vertex.rep_word(), params)

    candidates = sorted(ball(params, radius),
                        key=lambda v: (len(v.form.syllables), str(v)))
    psi = {}
    for x0 in range(G.n_units):
        if x0 in psi:
            continue
        tree_arrows = []
        seen = {x0}
        frontier = [x0]
        while frontier:
            nxt = []
            for u in frontier:
                for g in sorted(s_ids):
                    if G.src[g] == u and G.rng[g] not in seen:
                        seen.add(G.rng[g])
                        tree_arrows.append(g)
                        nxt.append(G.rng[g])
            frontier = nxt
        for cand in candidates:
            trial = {x0: cand}
            for g in tree_arrows:
                trial[G.rng[g]] = act(rho[g], trial[G.src[g]])
            if all(act(rho[g], trial[G.src[g]]) == trial[G.rng[g]]
                   for g in s_ids if G.src[g] in seen):
                psi.update(trial)
                break
        else:
            return None
    return psi


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


def is_rational(theta):
    """True for a rational ThetaValue."""
    return theta.kind == "rational"


def theta_bounds(theta, depth=40):
    """Exact rational bounds lo <= theta <= hi. For the golden ratio these
    are consecutive Fibonacci convergents at the given depth."""
    if theta.kind == "rational":
        return theta.frac, theta.frac
    a, b = _fib(depth), _fib(depth + 1)
    c, d = b, a + b
    lo, hi = Fraction(b, a), Fraction(d, c)
    return (lo, hi) if lo <= hi else (hi, lo)


def tau_via_tree(word, params, radius=tree.DEFAULT_RADIUS):
    """tau computed the slow way, by summing geodesic edge signs."""
    v0 = tree.base_vertex(params)
    path = tree.geodesic(v0, tree.canonical_vertex(word, params), radius)
    return sum(path.signs())


def partial_iso_from_arrows(G, arrow_ids):
    """The PartialIso choosing each given arrow at its source."""
    return PartialIso(G, {G.src[g]: g for g in arrow_ids})


def preimage(phi, y):
    """The domain unit that phi sends to y, by a scan of the domain."""
    return next(x for x in phi.domain if phi.target(x) == y)


def iso_preserves_masses(phi):
    """True when phi sends every domain unit to a unit of equal mass."""
    G = phi.G
    return all(G.masses[x] == G.masses[phi.target(x)] for x in phi.domain)


def conditional_mass(dec, x):
    """The mass of x under the normalized measure of its component, summed
    afresh from the component's units."""
    G = dec.parent
    return G.masses[x] / sum(G.masses[y] for y in dec.component(x))


def doc_json(G):
    """G's document as compact JSON with sorted keys: one string per
    groupoid, for hashing and round-trip comparisons."""
    return json.dumps(G.to_doc(), sort_keys=True, separators=(",", ":"))


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


def restricted_ids(inc, ids):
    """The ids of a restriction kept from ids of its parent, in the dict form
    callers wrote out before restrict returned a map: {amap[g] for g in ids
    if g in amap}, amap the parent id -> restricted id dict of the inclusion
    inc."""
    amap = {g: i for i, g in enumerate(inc.arrows)}
    return {amap[g] for g in ids if g in amap}


def restricted_values(inc, values):
    """A parent's per-arrow values copied onto a restriction one arrow at a
    time through the same dict, as the value-copy loops did."""
    amap = {g: i for i, g in enumerate(inc.arrows)}
    out = [None] * inc.source.n_arrows
    for g, i in amap.items():
        out[i] = values[g]
    return out


def map_violations(m):
    """What keeps the GroupoidMap m from being a homomorphism: an arrow whose
    image has the wrong ends, an inverse not sent to the inverse, a unit
    arrow not sent to a unit arrow, and a composable pair of the source
    whose product is not sent to the product of the images."""
    G, H, units, arrows = m.source, m.target, m.units, m.arrows
    lines = []
    if (len(units), len(arrows)) != (G.n_units, G.n_arrows):
        return [f"map sizes {len(units)},{len(arrows)} for "
                f"{G.n_units},{G.n_arrows}"]
    for g in range(G.n_arrows):
        a = arrows[g]
        if (H.src[a], H.rng[a]) != (units[G.src[g]], units[G.rng[g]]):
            lines.append(f"arrow {g} has the wrong ends")
        if arrows[G.inv[g]] != H.inv[a]:
            lines.append(f"inverse of arrow {g} is not kept")
    for x in range(G.n_units):
        if arrows[G.unit_arrow(x)] != H.unit_arrow(units[x]):
            lines.append(f"unit arrow {x} does not go to a unit arrow")
    for g, h, k in composable_pairs(G):
        if k is not None and H.product(arrows[g], arrows[h]) != arrows[k]:
            lines.append(f"product ({g},{h}) is not kept")
    return lines


def certify_pair(G, pair_map):
    """A PairCertificate for G, or None, derived in one arrow pass from
    pair_map(s, r), the id of the arrow s -> r (None where there is none):
    the reference the certificates that principal and restrict state are
    compared with.

    Every arrow g has pair_map(s(g), r(g)) == g, so arrows are determined by
    their endpoints; inv[g] has the swapped endpoints, so it is
    pair_map(r(g), s(g)); and the units grouped by the lowest unit an arrow
    from them reaches form blocks B that no arrow leaves, with sum |B|^2 ==
    n_arrows, so the blocks are the components and every unit pair of a
    component carries an arrow. The spanning arrows are then
    pair_map(root, x), n more calls."""
    n, m = G.n_units, G.n_arrows
    src, rng, inv = G.src, G.rng, G.inv
    if n == 0 or min(min(src), min(rng)) < 0 or max(max(src), max(rng)) >= n \
            or min(inv) < 0 or max(inv) >= m:
        return None
    # root[x]: the lowest unit an arrow from x reaches, the lowest unit of
    # x's component once the pass below succeeds
    root = list(range(n))
    try:
        for g, (s, r) in enumerate(zip(src, rng)):
            if pair_map(s, r) != g:
                return None
            if r < root[s]:
                root[s] = r
    except LookupError:
        # a map that fails on an arrow's own endpoints certifies nothing
        return None
    if any(src[i] != r or rng[i] != s for i, s, r in zip(inv, src, rng)) \
            or any(root[s] != root[r] for s, r in zip(src, rng)):
        return None
    # the arrows are distinct unit pairs inside the blocks of equal root, so
    # sum |block|^2 == n_arrows makes every block one component with every
    # pair present (a split block would hold fewer arrows)
    compact = {}
    labels = tuple(compact.setdefault(v, len(compact)) for v in root)
    sizes = [0] * len(compact)
    for c in labels:
        sizes[c] += 1
    if sum(k * k for k in sizes) != m:
        return None
    return PairCertificate(labels, tuple(map(pair_map, root, range(n))))


def endpoint_map(G):
    """pair_map(s, r) of a groupoid with at most one arrow per unit pair:
    the lowest arrow id s -> r, None where there is none."""
    ids = {}
    for g, ends in enumerate(zip(G.src, G.rng)):
        ids.setdefault(ends, g)
    return lambda s, r: ids.get((s, r))


def canonical_edge(word, params):
    """Canonical form of the edge coset word<a^q>."""
    return tree._edge_form(normalize(word, params), params)


def scratch_neighbors(vertex):
    """tree.neighbors with every neighbour normalized from the whole word
    rep * a^i (* t or * t^-1)."""
    params = vertex.params
    rep = vertex.rep_word()
    result = []
    for i in range(abs(params.q)):
        shifted = rep * GroupWord.a(i)
        edge = tree.TreeEdge(params, canonical_edge(shifted, params), 1)
        result.append((edge, tree.canonical_vertex(shifted * GroupWord.t(),
                                                   params)))
    for j in range(abs(params.p)):
        shifted = rep * GroupWord.a(j) * GroupWord.t(-1)
        edge = tree.TreeEdge(params, canonical_edge(shifted, params), -1)
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
                params, canonical_edge(prefix, params), 1))
        else:
            edges.append(tree.TreeEdge(
                params, canonical_edge(prefix * GroupWord.t(-1), params),
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


# -- the level model, grown from seed maps and written arrow by arrow -------


def level_label_normalizer(params, k, l):
    """Word normalizer for growing the same model from seed maps.

    Seed alphabet: 1 = floor-0 rotation, 2 = floor-1 rotation, 3 = floor
    raise; negatives are inverses. Words are read left to right with the
    rightmost letter acting first. The normal form keeps rotation runs
    reduced modulo the floor size, the run to the right of a raise reduced
    into [0, |p|) with the carry pushed left across it as a floor-1 rotation
    (and symmetrically for lowers, modulo |q| with a floor-0 carry), and
    cancels adjacent raise/lower pairs. Maintaining those run bounds makes
    every pinch surface as a bare cancellation, so no other rule is needed.
    """
    N, Np = level_sizes(params, k, l)
    p, q = params.p, params.q
    ap, aq = abs(p), abs(q)

    def normalize(word):
        out = []  # syllables ("a", floor, exp in [1, size)) and ("t", +-1)

        def push_a(floor, delta):
            size = N if floor == 0 else Np
            if out and out[-1][0] == "a" and out[-1][1] == floor:
                delta = (out[-1][2] + delta) % size
                out.pop()
            else:
                delta %= size
            if delta == 0:
                return
            out.append(("a", floor, delta))
            if len(out) < 2 or out[-2][0] != "t":
                return
            e = out[-2][1]
            if e == 1 and floor == 0 and delta >= ap:
                r = delta % ap
                s = (delta - r) // p  # exact: |p| divides delta - r
                carry = (q * s) % Np
                out.pop()
                out.pop()
                push_a(1, carry)
                push_t(1)
                if r:
                    # through push_a: the re-pushed raise may have canceled,
                    # leaving a floor-0 run to merge with
                    push_a(0, r)
            elif e == -1 and floor == 1 and delta >= aq:
                r = delta % aq
                s = (delta - r) // q
                carry = (p * s) % N
                out.pop()
                out.pop()
                push_a(0, carry)
                push_t(-1)
                if r:
                    push_a(1, r)

        def push_t(e):
            if out and out[-1] == ("t", -e):
                out.pop()
            else:
                out.append(("t", e))

        for sym in word:
            if sym in (1, -1):
                push_a(0, 1 if sym > 0 else -1)
            elif sym in (2, -2):
                push_a(1, 1 if sym > 0 else -1)
            elif sym == 3:
                push_t(1)
            elif sym == -3:
                push_t(-1)
            else:
                raise ValueError(f"unknown letter {sym}")
        flat = []
        for syll in out:
            if syll[0] == "a":
                flat.extend([1 if syll[1] == 0 else 2] * syll[2])
            else:
                flat.append(3 * syll[1])
        return tuple(flat)

    return normalize


def seed_maps(params, k, l):
    """The three partial maps that generate the level model generically:
    the two floor rotations and the floor raise, on global unit indices."""
    N, Np = level_sizes(params, k, l)
    p, q = params.p, params.q
    ap = abs(p)
    rot0 = {x: (x + 1) % N for x in range(N)}
    rot1 = {N + j: N + (j + 1) % Np for j in range(Np)}
    raise_map = {z: N + (q * (z // p)) % Np for z in range(0, N, ap)}
    return [rot0, rot1, raise_map]


def level_arrays_by_pairs(params, k, l):
    """(src, rng, inv, labels) of the level model at (k, l), written one
    arrow at a time through the pair-to-id map of its id layout, with a new
    label tuple per arrow: the per-arrow construction the floor blocks of
    BSLevelModel replaced."""
    N, Np = level_sizes(params, k, l)
    p, q = params.p, params.q
    total = N + Np
    ap = abs(p)
    base0 = total
    base1 = base0 + N * (N - 1)
    base_t = base1 + Np * (Np - 1)
    base_tt = base_t + N * Np
    n_arrows = base_tt + N * Np

    def pair_to_id(s, r):
        if s == r:
            return s
        if s < N and r < N:
            return base0 + s * (N - 1) + (r if r < s else r - 1)
        if s >= N and r >= N:
            sj, rj = s - N, r - N
            return base1 + sj * (Np - 1) + (rj if rj < sj else rj - 1)
        if s < N:
            return base_t + s * Np + (r - N)
        return base_tt + (s - N) * N + r

    src = [0] * n_arrows
    rng = [0] * n_arrows
    inv = [0] * n_arrows
    labels = [None] * n_arrows
    for x in range(total):
        src[x] = rng[x] = inv[x] = x
        labels[x] = ("a", 0)
    for off, size in ((0, N), (N, Np)):
        for x in range(size):
            for y in range(size):
                if x != y:
                    gid = pair_to_id(off + x, off + y)
                    src[gid], rng[gid] = off + x, off + y
                    inv[gid] = pair_to_id(off + y, off + x)
                    labels[gid] = ("a", (y - x) % size)
    for x in range(N):
        i = (-x) % ap
        fx = (q * ((x + i) % N // p)) % Np
        for yj in range(Np):
            j = (yj - fx) % Np
            gid = pair_to_id(x, N + yj)
            tid = pair_to_id(N + yj, x)
            src[gid], rng[gid], inv[gid] = x, N + yj, tid
            src[tid], rng[tid], inv[tid] = N + yj, x, gid
            labels[gid], labels[tid] = ("t", j, i), ("T", j, i)
    return src, rng, inv, labels


# -- the truncated ring's torsion shadow and its levels ----------------------

def torsion_vanishing_modulus(x, m):
    """Given m . x = 0 at x's level, the modulus at which x itself must
    vanish: M / gcd(M, m). This is an exact consequence of the ring
    structure and is asserted, not just reported."""
    if m == 0:
        raise ValueError("m must be nonzero")
    M = x.modulus
    if (m * x.residue) % M:
        raise ValueError(f"{m} * {x.to_text()} is not 0")
    out = M // math.gcd(M, abs(m))
    if x.residue % out:
        raise VerificationFailure(
            f"torsion shadow violated: {m} * {x.to_text()} = 0 but "
            f"{x.to_text()} is not 0 modulo {out}")
    return out


def torsion_shadow_valuation(x, m):
    """The valuation form of the torsion shadow: m . x = 0 at level (K, L)
    forces x = 0 at level (K - v_p0(m), L - v_q0(m)).

    True whenever |p0| and |q0| are prime and m is coprime to d0; can fail
    for composite p0 or q0 (the gcd form above is the sharp statement).
    Returns the honest boolean.
    """
    if m == 0:
        raise ValueError("m must be nonzero")
    M = x.modulus
    if (m * x.residue) % M:
        raise ValueError(f"{m} * {x.to_text()} is not 0")
    K, L = x.level
    vp = min(generalized_valuation(m, x.params.p0), K)
    vq = min(generalized_valuation(m, x.params.q0), L)
    target = x.params.level_modulus(K - vp, L - vq)
    return x.residue % target == 0


def enumerate_levels(params, max_modulus):
    """All levels (K, L) with modulus at most max_modulus, largest last.
    Needs |p0|, |q0| >= 2 so that the enumeration is finite."""
    if abs(params.p0) < 2 or abs(params.q0) < 2:
        raise ValueError("level enumeration needs |p0|, |q0| >= 2")
    out = []
    K = 0
    while params.level_modulus(K, 0) <= max_modulus:
        L = 0
        while params.level_modulus(K, L) <= max_modulus:
            out.append((K, L))
            L += 1
        K += 1
    return sorted(out, key=lambda kl: params.level_modulus(*kl))
