"""Radon-Nikodym, modular, and index cocycles of a measured groupoid pair.

The modular cocycle of a pair (G, S) measures how the normalized conditional
masses of the S-components transform along arrows of G; the companion index
cocycle compares local indices across a witness. Both restrict to the
identity on S. At this finite scale the modular values reduce to conditional
mass ratios, and the witness computation is kept as the defining procedure:
every value is produced through a witness realization and cross-checked for
consistency whenever several witnesses realize the same arrow.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import (MissingUnitArrow, NotMeasurePreserving,
                      VerificationFailure)
from ..groupoid.core import (
    ErgodicDecomposition,
    Subgroupoid,
    arrows_by,
    certificate,
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


def _per_unit_local_index(G, ambient_ids, sub_ids, units, sub_dec):
    """[[ambient : sub]]_x for each x in units, as a Fraction, for a sub
    arrow set inside the ambient one.

    1 at every unit, with no count, under a certificate: G is a certified
    pair groupoid (certificate), sub holds the unit arrow of every unit
    in units, and sub has exactly sum |C|^2 arrows over the components C its
    arrows span. Distinct arrows of such a G join distinct unit pairs, so
    sub is then the whole pair relation on each C, and every ambient arrow
    from x into C lies in the left class of the unit arrow at x. Otherwise
    local_counts counts the classes once per sub-component (constant along
    it: right multiplication by a sub arrow bijects the left classes of the
    two fibers), through one arrows-by-source map of sub.
    """
    cert = certificate(G)
    if cert is not None and cert.kind == "pair" \
            and all(G.unit_arrow(x) in sub_ids for x in units):
        spanned = {sub_dec.component_of[G.src[g]] for g in sub_ids}
        if len(sub_ids) == sum(len(sub_dec.components[c]) ** 2
                               for c in spanned):
            return dict.fromkeys(units, Fraction(1))
    return local_counts(G, ambient_ids, Subgroupoid(G, sub_ids, check=False),
                        sub_dec.component_of, units)


def modular_pair(G, S, *, witnesses=None):
    """The modular cocycle D and the index cocycle K of the pair (G, S).

    G must be measure preserving (NotMeasurePreserving), and S must hold
    the unit arrow of every unit (MissingUnitArrow). Witnesses default to
    a covering family; a caller with structural knowledge may pass its own
    family of PartialIso objects, which is then verified to cover every
    arrow. Returns (D, K) as QPos cocycles.

    Each witness phi conjugates the S arrows inside its domain once (two
    products each), found through S's arrows-by-source map, and writes its
    values at x on the left S-class of g0 = phi(x), cross-checked against
    every earlier value; a clash names the lowest arrow, D before K.

    - The class walk. When every composable product is defined
      (products_defined: G is certified or closed by construction) the
      class is {s . g0 : s in S leaving r(g0)}, since g g0^-1 = s exactly
      when g = s g0: one product per S arrow leaving r(g0). Otherwise (a
      products table, or a principal map that is not certified) the class
      is read off a scan of s^-1(x) computing g g0^-1 for every g, which
      refuses a missing product.
    - The local indices. On a certified pair groupoid a sub that is the
      whole pair relation on its components has local index 1 at every
      unit (_per_unit_local_index), found in one pass over the sub arrows
      and no product; any other sub is counted by local_counts.

    So a level model with its own witnesses costs O(arrows) products, at
    most three per arrow, and reads no fiber.
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
    walk = products_defined(G)
    dec = ErgodicDecomposition(G, sorted(s_ids))
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
        minus_dec, plus_dec = (
            dec if len(sub) == len(s_ids)
            else ErgodicDecomposition(G, sorted(sub))
            for sub in (s_minus, s_plus))

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

        li_minus = _per_unit_local_index(G, s_dom, s_minus, dom, minus_dec)
        li_plus = _per_unit_local_index(G, s_rng, s_plus, phi.range, plus_dec)

        for x in sorted(dom):
            g0 = phi.arrow(x)
            y = G.rng[g0]
            d_val = cond[x] / cond[y]
            k_val = li_plus[y] / li_minus[x]
            # every arrow in the left S-class of g0 carries the same values;
            # a hole is the first arrow of s^-1(x) whose g g0^-1 is undefined
            hole = None
            if walk:
                members = [G.product(s, g0) for s in S.by_src.get(y, ())]
            else:
                members = []
                g0_inv = G.inv[g0]
                for g in G.source_fiber(x):
                    w = G.product(g, g0_inv)
                    if w is None:
                        hole = g
                        break
                    if w in s_ids:
                        members.append(g)
            # ascending, so a clash names the lowest arrow, D before K
            for g in sorted(members):
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
    D = GroupoidCocycle.from_values(G, QPos, d_values, check=False)
    K = GroupoidCocycle.from_values(G, QPos, k_values, check=False)
    return D, K


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
