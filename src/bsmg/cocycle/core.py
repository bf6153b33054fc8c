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

from ..errors import NotMeasurePreserving, VerificationFailure
from ..groupoid.core import (
    ErgodicDecomposition,
    Subgroupoid,
    forest_potential,
    index_within,
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


def _sub_ids(S):
    return S.ids if isinstance(S, Subgroupoid) else frozenset(S)


def _per_unit_local_index(G, ambient_ids, sub_ids, units, sub_dec):
    """[[ambient : sub]]_x for each x in units, exploiting constancy along
    sub-components (right multiplication by a sub arrow bijects the left
    classes of the two fibers)."""
    out = {}
    per_comp = {}
    for x in units:
        c = sub_dec.component_of[x]
        if c not in per_comp:
            per_comp[c] = Fraction(index_within(
                G, ambient_ids, sub_ids, sub_dec.components[c], x))
        out[x] = per_comp[c]
    return out


def modular_pair(G, S, *, witnesses=None):
    """The modular cocycle D and the index cocycle K of the pair (G, S).

    G must be measure preserving. Witnesses default to a covering family;
    a caller with structural knowledge may pass its own family of
    PartialIso objects, which is then verified to cover every arrow.
    Returns (D, K) as QPos cocycles.
    """
    if not G.measure_preserving:
        raise NotMeasurePreserving("modular cocycle needs preserved masses")
    s_ids = _sub_ids(S)
    dec = ErgodicDecomposition(G, sorted(s_ids))

    if witnesses is None:
        reports = witness_family(G, S if isinstance(S, Subgroupoid)
                                 else Subgroupoid(G, s_ids, check=False))
        family = [r.phi for r in reports]
    else:
        family = list(witnesses)

    d_values = [None] * G.n_arrows
    k_values = [None] * G.n_arrows

    for phi in family:
        dom = set(phi.domain)
        s_dom = arrows_within(G, s_ids, dom)
        s_rng = arrows_within(G, s_ids, phi.range)
        s_minus = frozenset(g for g in s_dom
                            if phi.conjugate_arrow(g) in s_ids)
        s_plus = phi.conjugate_set(s_minus)
        minus_dec = ErgodicDecomposition(G, sorted(s_minus))
        plus_dec = ErgodicDecomposition(G, sorted(s_plus))

        # pushforward scalar per s_minus component, constant by the measure
        # preserving assumption; asserted because it is the defining identity
        scalar_of = {}
        for x in dom:
            c = minus_dec.component_of[x]
            num = G.masses[x] / minus_dec.masses[c]
            y = phi.target(x)
            den = G.masses[y] / plus_dec.masses[plus_dec.component_of[y]]
            val = num / den
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
            g0_inv = G.inv[g0]
            y = G.rng[g0]
            d_val = (dec.conditional_mass(x)) / (dec.conditional_mass(y))
            k_val = li_plus[y] / li_minus[x]
            # every arrow in the left S-class of g0 carries the same values
            for g in G.source_fiber(x):
                w = G.product(g, g0_inv)
                if w is None:
                    raise ValueError("modular cocycle needs a complete product")
                if w not in s_ids:
                    continue
                for store, val, name in ((d_values, d_val, "D"),
                                         (k_values, k_val, "K")):
                    if store[g] is None:
                        store[g] = val
                    elif store[g] != val:
                        raise VerificationFailure(
                            f"witnesses disagree on {name} at arrow {g}: "
                            f"{val} != {store[g]}")

    # right translation by an S arrow fixes both values (each cocycle is
    # the identity on S), so witnessed values spread across source classes
    changed = True
    while changed:
        changed = False
        for g in range(G.n_arrows):
            if d_values[g] is not None:
                continue
            for s in G.range_fiber(G.src[g]):
                if s not in s_ids:
                    continue
                k = G.product(g, s)
                if k is None or k == g or d_values[k] is None:
                    continue
                d_values[g] = d_values[k]
                k_values[g] = k_values[k]
                changed = True
                break

    missing = [g for g in range(G.n_arrows) if d_values[g] is None]
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
    constant per component. Returned as {unit: psi(unit)}.
    """
    ratio = [b / a for a, b in zip(_as_values(c1, G), _as_values(c2, G))]
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
