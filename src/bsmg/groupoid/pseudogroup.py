"""Partial isomorphisms realized inside a finite measured groupoid.

A partial isomorphism picks one arrow phi(x) per domain unit x with injective
ranges; it is the atomic-scale analogue of an element of the full pseudogroup.
Conjugation moves arrows and subgroupoids across phi, and the witness
machinery classifies how a subgroupoid sits inside its ambient groupoid:
every subgroupoid admits a covering family of witnesses, and each witness is
tagged Normalizing or QuasiNormalizing according to how it carries the
subgroupoid's restriction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..errors import NotInFullGroup
from .core import (Subgroupoid, arrows_by, id_set, index_of_pair,
                   left_classes, require_arrows, require_unit)


class QNClass(enum.Enum):
    NORMALIZING = "normalizing"
    QUASI_NORMALIZING = "quasi-normalizing"


class PartialIso:
    """A choice of arrows phi(x), one per domain unit, with injective ranges."""

    def __init__(self, G, arrows):
        """arrows: dict {x: arrow id} with s(arrow) == x; ranges must differ."""
        self.G = G
        self.arrows = dict(arrows)
        for x, g in self.arrows.items():
            if G.src[g] != x:
                raise NotInFullGroup(f"arrow {g} does not start at unit {x}")
        self.domain = tuple(sorted(self.arrows))
        ranges = [G.rng[self.arrows[x]] for x in self.domain]
        if len(set(ranges)) != len(ranges):
            raise NotInFullGroup("ranges collide; not a partial isomorphism")
        self.range = tuple(sorted(ranges))

    @classmethod
    def identity_on(cls, G, units):
        return cls(G, {x: G.unit_arrow(x) for x in units})

    def __len__(self):
        return len(self.arrows)

    def arrow(self, x):
        return self.arrows[x]

    def target(self, x):
        return self.G.rng[self.arrows[x]]

    def inverse(self):
        G = self.G
        return PartialIso(G, {G.rng[g]: G.inv[g] for g in self.arrows.values()})

    def compose(self, other):
        """self after other, on the units where the chain is defined."""
        G = self.G
        arrows = {}
        for x, g in other.arrows.items():
            mid = G.rng[g]
            top = self.arrows.get(mid)
            if top is None:
                continue
            k = G.product(top, g)
            if k is None:
                raise ValueError("composition needs a complete product")
            arrows[x] = k
        return PartialIso(G, arrows)

    def restricted(self, units):
        keep = set(units) & set(self.domain)
        return PartialIso(self.G, {x: self.arrows[x] for x in keep})

    def conjugate_arrow(self, g):
        """U_phi(g) = phi(r(g)) . g . phi(s(g))^-1 when both endpoints sit in
        the domain; None otherwise."""
        G = self.G
        s, r = G.src[g], G.rng[g]
        if s not in self.arrows or r not in self.arrows:
            return None
        left = G.product(self.arrows[r], g)
        if left is None:
            return None
        out = G.product(left, G.inv[self.arrows[s]])
        return out

    def conjugate_set(self, arrow_ids):
        """Image of the arrows supported on the domain, as a frozenset."""
        out = set()
        for g in arrow_ids:
            k = self.conjugate_arrow(g)
            if k is not None:
                out.add(k)
        return frozenset(out)

    def __repr__(self):
        pairs = ", ".join(f"{x}->{self.target(x)}" for x in self.domain)
        return f"PartialIso({pairs})"


def arrows_within(G, arrow_ids, units):
    """The arrows among arrow_ids with both endpoints in units. A
    Subgroupoid of G is read through its cached arrows-by-source map; other
    ids must be arrows of G (UnknownArrow)."""
    inside = set(units)
    if isinstance(arrow_ids, Subgroupoid) and arrow_ids.parent is G:
        by_src = arrow_ids.by_src
    else:
        ids = id_set(arrow_ids)
        require_arrows(G, ids)
        by_src = arrows_by(G.src, ids)
    return frozenset(g for x in inside for g in by_src.get(x, ())
                     if G.rng[g] in inside)


@dataclass
class WitnessReport:
    phi: PartialIso
    qn_class: QNClass
    # arrows of S inside the witness range, and the conjugated copy
    s_range: frozenset = field(default=frozenset())
    s_image: frozenset = field(default=frozenset())
    # per-unit indices of the intersection in each, on the witness range
    indices_in_range: dict = field(default_factory=dict)
    indices_in_image: dict = field(default_factory=dict)


def qn_membership(G, S, phi):
    """Classify a partial isomorphism against a subgroupoid S.

    Normalizing: conjugation carries the S-arrows of the domain exactly onto
    the S-arrows of the range. QuasiNormalizing: it does so up to finite
    index on both sides, which at this finite scale every other phi does;
    the report then carries the indices of the intersection at each unit of
    the range.
    """
    s_dom = arrows_within(G, S, phi.domain)
    s_rng = arrows_within(G, S, phi.range)
    s_img = phi.conjugate_set(s_dom)
    if s_img == s_rng:
        return WitnessReport(phi=phi, qn_class=QNClass.NORMALIZING,
                             s_range=s_rng, s_image=s_img)
    report = WitnessReport(phi=phi, qn_class=QNClass.QUASI_NORMALIZING,
                           s_range=s_rng, s_image=s_img)
    inter = s_rng & s_img
    for x in phi.range:
        report.indices_in_range[x] = index_of_pair(G, s_rng, inter, x)
        report.indices_in_image[x] = index_of_pair(G, s_img, inter, x)
    return report


def coset_classes(G, S, x):
    """Left S-classes of the source fiber at x, each sorted by id: the
    left-class walk of index_of_pair (left_classes), kept whole. Raises
    UnknownUnit when x is not a unit of G."""
    require_unit(G, x)
    return [tuple(sorted(members)) for members in left_classes(
        G, G.source_fiber(x), S, "coset classes need a complete product")]


def witness_family(G, S):
    """A covering family of witnesses for S inside G.

    Returns a list of WitnessReports whose partial isomorphisms jointly cover
    every left S-class of every source fiber (each class contains phi(x) for
    some witness phi and unit x). Witnesses are assembled greedily: each round
    walks the uncovered classes in (unit, class representative) order and
    picks the lowest-id arrow whose range is still free in that round. At the
    start of a round its unit and every range are free, so each round covers
    its first pending class and the loop ends.
    """
    pending = []
    for x in range(G.n_units):
        for cls_arrows in coset_classes(G, S, x):
            pending.append((x, cls_arrows))
    reports = []
    while pending:
        chosen = {}
        used_ranges = set()
        still = []
        for x, cls_arrows in pending:
            if x in chosen:
                still.append((x, cls_arrows))
                continue
            pick = None
            for g in cls_arrows:
                if G.rng[g] not in used_ranges:
                    pick = g
                    break
            if pick is None:
                still.append((x, cls_arrows))
                continue
            chosen[x] = pick
            used_ranges.add(G.rng[pick])
        phi = PartialIso(G, chosen)
        reports.append(qn_membership(G, S, phi))
        pending = still
    return reports
