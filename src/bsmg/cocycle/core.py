"""Radon-Nikodym, modular, and index cocycles of a measured groupoid pair.

The modular cocycle of a pair (G, S) measures how the normalized conditional
masses of the S-components transform along arrows of G; the companion index
cocycle compares local indices across a witness. Both restrict to the
identity on S. The witness realization defines them; when S is known to be
a subgroupoid of a G with every product, they have closed forms, the ratios
of S's component masses and of its isotropy orders (_closed_form), which
modular_pair computes without a witness. An explicit witness family is
always walked, and every value it writes is cross-checked whenever several
witnesses realize the same arrow."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from ..errors import (MissingUnitArrow, NotMeasurePreserving,
                      VerificationFailure)
from ..groupoid.core import (
    ErgodicDecomposition,
    Subgroupoid,
    arrows_by,
    certificate,
    closure_failure,
    forest_potential,
    id_set,
    local_counts,
    products_defined,
)
from ..groupoid.pseudogroup import arrows_within, witness_family
from .values import GroupoidCocycle, QPos


def radon_nikodym(G):
    """The Radon-Nikodym cocycle: attached values when the groupoid carries
    them (nonsingular windows), otherwise point mass ratios range/source."""
    if G.rn_values is not None:
        values = list(G.rn_values)
    else:
        values = [G.masses[G.rng[g]] / G.masses[G.src[g]]
                  for g in range(G.n_arrows)]
    return GroupoidCocycle.from_values(G, QPos, values, check=False)


def _closed_form(G, s_ids, dec):
    """(D values, K values) of (G, S), or None unless G has every product
    (products_defined) and S, a set of arrow ids of G, is known to be a
    subgroupoid: on a certified pair groupoid, |S| = sum |C|^2 over its
    components C (distinct arrows of G join distinct unit pairs, so S is the
    pair relation on its components); otherwise S passes Subgroupoid's
    closure test (closure_failure). Then, for every arrow g,

        D(g) = M(C_S(r(g))) / M(C_S(s(g))),  K(g) = |S_r^r| / |S_s^s|

    for r = r(g), s = s(g), each read off a table keyed by the pair of
    S-components of s and r.
    - D. The walk writes cond(x) / cond(y) on the left S-class of
      g0 = phi(x), y = r(g0), whose arrows leave x and end in C_S(y); cond
      is m / M(C_S) with m constant on G-components.
    - K. With every product, [[A : B]]_x = |A_x^x| / |B_x^x| for nested
      subgroupoids B of A: the |A_x^x| |C_B(x)| arrows of s_A^-1(x) ending
      in C_B(x) fall into left B-classes of |B_x^x| |C_B(x)| arrows each.
      Conjugation by g0 maps S_x^x meet g0^-1 S_y^y g0 onto S_y^y meet
      g0 S_x^x g0^-1, so li_plus[y] / li_minus[x] = |S_y^y| / |S_x^x| for
      every witness; isotropy orders are constant on S-components, and 1
      on a pair groupoid.
    """
    if not products_defined(G):
        return None
    cert = certificate(G)
    if cert is not None and cert.kind == "pair":
        if len(s_ids) != sum(len(c) ** 2 for c in dec.components):
            return None
    elif closure_failure(G, s_ids) is not None:
        return None
    loops = Counter(G.src[g] for g in s_ids if G.src[g] == G.rng[g])
    mass, iso = dec.masses, [loops[c[0]] for c in dec.components]
    comp, width = dec.component_of, dec.n_components
    keys = [comp[s] * width + comp[r] for s, r in zip(G.src, G.rng)]
    d_of = {key: mass[key % width] / mass[key // width] for key in set(keys)}
    k_of = {key: Fraction(iso[key % width], iso[key // width]) for key in d_of}
    return (tuple(map(d_of.__getitem__, keys)),
            tuple(map(k_of.__getitem__, keys)))


def modular_pair(G, S, *, witnesses=None):
    """The modular cocycle D and the index cocycle K of the pair (G, S), as
    QPos cocycles. G must be measure preserving (NotMeasurePreserving), and
    S must hold the unit arrow of every unit (MissingUnitArrow) and name
    only arrows of G (UnknownArrow).

    With no witnesses, (D, K) is read off S's component masses and isotropy
    orders when _closed_form applies: O(arrows), plus S's composable pairs
    off a pair groupoid, and no witness. Otherwise _witness_walk realizes
    them through the witnesses given, or through witness_family.
    """
    if not G.measure_preserving:
        raise NotMeasurePreserving("modular cocycle needs preserved masses")
    s_ids = id_set(S)
    # a unit outside S has no S-class, so its local indices would be 0 / 0
    lacking = next((x for x in range(G.n_units)
                    if G.unit_arrow(x) not in s_ids), None)
    if lacking is not None:
        raise MissingUnitArrow(
            f"S lacks the unit arrow of unit {lacking}; a subgroupoid holds "
            "the unit arrow of every unit")
    if not (isinstance(S, Subgroupoid) and S.parent is G):
        S = Subgroupoid(G, s_ids, check=False)
    dec = ErgodicDecomposition(S)
    values = None if witnesses is not None else _closed_form(G, s_ids, dec)
    if values is None:
        values = _witness_walk(G, S, s_ids, dec, witnesses)
    # both paths write exact positive Fractions, so no value is coerced
    return tuple(GroupoidCocycle(G, QPos, tuple(v)) for v in values)


def _witness_walk(G, S, s_ids, dec, witnesses):
    """(D values, K values) of (G, S) through a family of PartialIso
    witnesses (witness_family when None), which must cover every arrow.

    Each witness phi conjugates the S arrows inside its domain once (two
    products each) and writes its values at x on the left S-class of
    g0 = phi(x), cross-checked against every earlier value; a clash names
    the lowest arrow, D before K. The class is read off a scan of s^-1(x):
    the arrows g with g g0^-1 in S, a missing product refused. Where every
    product is defined this is {s . g0 : s in S leaving r(g0)}, as
    g = (g g0^-1) . g0. The local indices are counted by local_counts.
    """
    cond = dec.conditional_masses

    if witnesses is None:
        family = [r.phi for r in witness_family(G, S)]
    else:
        family = list(witnesses)

    d_values = [None] * G.n_arrows
    k_values = [None] * G.n_arrows

    for phi in family:
        dom = set(phi.domain)
        s_dom = arrows_within(G, S, dom)
        s_rng = arrows_within(G, S, phi.range)
        s_minus, s_plus = set(), set()
        for g in s_dom:
            k = phi.conjugate_arrow(g)
            if k in s_ids:
                s_minus.add(g)
                s_plus.add(k)
        # both lie in S, so one as large as S is S, whose components are known
        minus, plus = (S if len(sub) == len(s_ids)
                       else Subgroupoid(G, sub, check=False)
                       for sub in (s_minus, s_plus))
        minus_dec, plus_dec = (dec if H is S else ErgodicDecomposition(H)
                               for H in (minus, plus))

        # pushforward scalar per s_minus component, constant by the measure
        # preserving assumption; asserted because it is the defining identity
        scalar_of = {}
        cond_minus = minus_dec.conditional_masses
        cond_plus = plus_dec.conditional_masses
        for x in dom:
            c = minus_dec.component_of[x]
            val = cond_minus[x] / cond_plus[phi.target(x)]
            if c in scalar_of:
                if scalar_of[c] != val:
                    raise VerificationFailure(
                        f"pushforward scalar not constant at unit {x}: "
                        f"{val} != {scalar_of[c]}")
            else:
                scalar_of[c] = val

        li_minus = local_counts(G, s_dom, minus, dom)
        li_plus = local_counts(G, s_rng, plus, phi.range)

        for x in sorted(dom):
            g0 = phi.arrow(x)
            y = G.rng[g0]
            d_val = cond[x] / cond[y]
            k_val = li_plus[y] / li_minus[x]
            # every arrow in the left S-class of g0 carries the same values;
            # a hole is the first arrow of s^-1(x) whose g g0^-1 is undefined
            hole = None
            members = []
            g0_inv = G.inv[g0]
            for g in G.source_fiber(x):
                w = G.product(g, g0_inv)
                if w is None:
                    hole = g
                    break
                if w in s_ids:
                    members.append(g)
            # ascending (source_fiber is), so a clash names the lowest
            # arrow, D before K
            for g in members:
                if d_values[g] is None:
                    d_values[g] = d_val
                    k_values[g] = k_val
                elif d_values[g] != d_val or k_values[g] != k_val:
                    name, val, old = (("D", d_val, d_values[g])
                                      if d_values[g] != d_val
                                      else ("K", k_val, k_values[g]))
                    raise VerificationFailure(
                        f"witnesses disagree on {name} at arrow {g}: "
                        f"{val} != {old}")
            if hole is not None:
                raise ValueError("modular cocycle needs a complete product")

    # right translation by an S arrow fixes both values (each cocycle is
    # the identity on S), so witnessed values spread across source classes;
    # the S arrows ending at each unit are walked in ascending order
    missing = [g for g, v in enumerate(d_values) if v is None]
    if missing:
        sub_by_rng = arrows_by(G.rng, sorted(s_ids))
        changed = True
        while changed:
            changed = False
            for g in range(G.n_arrows):
                if d_values[g] is not None:
                    continue
                for s in sub_by_rng.get(G.src[g], ()):
                    k = G.product(g, s)
                    if k is None or k == g or d_values[k] is None:
                        continue
                    d_values[g] = d_values[k]
                    k_values[g] = k_values[k]
                    changed = True
                    break
        missing = [g for g, v in enumerate(d_values) if v is None]
    if missing:
        raise ValueError(
            f"witness family does not cover arrows {missing[:6]} "
            f"({len(missing)} total)")
    return d_values, k_values


def _as_values(c, G):
    if isinstance(c, GroupoidCocycle):
        return c.values
    if isinstance(c, dict):
        return tuple(c[g] for g in range(G.n_arrows))
    return tuple(c)


def cohomologous(G, c1, c2):
    """Transfer potential between two QPos cocycles, or None.

    Searches for psi with c2(g) = psi(r(g)) c1(g) psi(s(g))^-1 for every
    arrow: the forest potential (forest_potential) of the ratio c2/c1, which
    solves it exactly when every defect is 1. psi is 1 at the lowest unit
    of each arrow-connected component; any other solution differs by a
    constant per component. Returned as {unit: psi(unit)}. Both value
    lists go through QPos.coerce first, so ints give Fractions and a value
    that is not a positive rational raises TargetMismatch.
    """
    coerce = QPos.coerce
    ratio = [coerce(b) / coerce(a)
             for a, b in zip(_as_values(c1, G), _as_values(c2, G))]
    _, psi, defects = forest_potential(G, ratio, QPos.op, QPos.inverse,
                                       QPos.identity)
    if any(d != 1 for d in defects):
        return None
    return dict(enumerate(psi))


def transfer_matches(G, psi, predicted):
    """True when two positive potentials agree up to one constant per
    arrow-connected component, i.e. define the same transfer."""
    dec = ErgodicDecomposition(G)
    for comp in dec.components:
        scale = None
        for x in comp:
            r = Fraction(predicted[x]) / Fraction(psi[x])
            if scale is None:
                scale = r
            elif scale != r:
                return False
    return True
