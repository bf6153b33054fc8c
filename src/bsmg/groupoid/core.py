"""Finite discrete measured groupoids with exact rational masses.

An instance is a finite window of a discrete measured groupoid: finitely many
units with positive rational masses, finitely many arrows with source, range,
inverse, and a label, and a partial product, fixed by the constructor: by
endpoints, group elements, label words or a table; a restriction composes
through its parent. Constructors that close their input (group actions,
partial isomorphism closures) produce a complete product; hand-built windows
may leave products undefined beyond the modeled region, and operations that
need closure refuse such windows.

Arrows are identified by dense integer ids assigned in construction order;
ties everywhere break toward the lowest id, which keeps every computation
deterministic. Arrows 0..n_units-1 are always the unit loops.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .._kernels import component_labels, perm_closure
from ..errors import (ClosureTooLarge, EmptySet, GroupTooLarge,
                      InvalidDocument, ParamMismatch, UnknownArrow, UnknownUnit,
                      VerificationFailure)


# marks Subgroupoid._indices not yet counted (None is a counted "no")
_UNCHECKED = object()


def arrows_by(ends, arrow_ids):
    """{unit: [arrow ids]} grouping arrow_ids by ends[g] (pass G.src or
    G.rng), each list in the order of arrow_ids."""
    out = {}
    for g in arrow_ids:
        out.setdefault(ends[g], []).append(g)
    return out


def composable_pairs(G, ids=None):
    """Yield (g, h, G.product(g, h)) for every pair with s(g) = r(h) and both
    arrows in ids (every arrow when ids is None): g ascending, then h
    ascending. The product is None where a window leaves it undefined.

    This is the one walk over composable pairs behind validate, the cocycle
    checks, the subgroupoid check and the products table of to_doc: sum over
    units x of |r^-1(x)|.|s^-1(x)| pairs when ids is None.
    """
    product, src, range_fiber = G.product, G.src, G.range_fiber
    if ids is None:
        for g in range(G.n_arrows):
            for h in range_fiber(src[g]):
                yield g, h, product(g, h)
        return
    members = ids if isinstance(ids, (set, frozenset)) else set(ids)
    for g in sorted(members):
        for h in range_fiber(src[g]):
            if h in members:
                yield g, h, product(g, h)


def _inverse_perm(perm):
    inverse = [0] * len(perm)
    for i, v in enumerate(perm):
        inverse[v] = i
    return tuple(inverse)


def _doc_id(value, bound, what):
    """value when it is an int in [0, bound); InvalidDocument otherwise."""
    if type(value) is not int or not 0 <= value < bound:
        raise InvalidDocument(f"{what} is {value!r}, not in [0, {bound})")
    return value


def _doc_fraction(value, what, at):
    """Fraction(value) when value is an int (not a bool) or a string such as
    "3/4"; InvalidDocument naming what and at otherwise, a float included
    (its binary expansion is not the number it was written as) and a string
    in exponent notation (Fraction would expand "1e999999999" digit by
    digit)."""
    if type(value) is int or isinstance(value, str) and not (
            "e" in value or "E" in value):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise InvalidDocument(f"{what} {at} is {value!r}, not a rational number")


def _doc_list(doc, key, fields=()):
    """doc[key] when it is a list, of objects holding every one of fields
    when fields are given; InvalidDocument naming what is amiss otherwise."""
    value = doc.get(key)
    if not isinstance(value, list):
        raise InvalidDocument(
            f"{key!r} must be a list, got {type(value).__name__}"
            if key in doc else f"the document has no field {key!r}")
    for i, entry in enumerate(value if fields else ()):
        if not isinstance(entry, dict):
            raise InvalidDocument(f"entry {i} of {key!r} must be an object, "
                                  f"got {type(entry).__name__}")
        for field in fields:
            if field not in entry:
                raise InvalidDocument(
                    f"entry {i} of {key!r} has no field {field!r}")
    return value


def table_product(table):
    """The compose of a products table {(g, h): g . h}: a pair off the table
    has no product (None), as beyond a window."""
    return lambda g, h: table.get((g, h))


class FiniteMeasuredGroupoid:
    """See module docstring. Build through the class methods, not __init__:
    each passes its own compose(g, h), the product of a composable pair."""

    def __init__(self, unit_names, masses, src, rng, inv, labels, compose, *,
                 product_complete=True, rn_values=None):
        self.unit_names = tuple(unit_names)
        self.n_units = len(self.unit_names)
        self.masses = tuple(Fraction(m) for m in masses)
        if any(m <= 0 for m in self.masses):
            raise ValueError("all point masses must be positive")
        self.src = tuple(src)
        self.rng = tuple(rng)
        self.inv = tuple(inv)
        self.labels = tuple(labels)
        self._compose = compose
        # every composable pair has a product by construction; set by the
        # closing constructors (products_defined), inherited by restrict
        self._closed = False
        # the fiber index, each half built on first use (src and rng never
        # change). Declared here: writing a new key into the instance dict
        # later, as functools.cached_property does, slowed every attribute
        # read of the instance (products included) by about 40% on CPython
        # 3.11.
        self._src_fibers = None
        self._rng_fibers = None
        # certificate(G): stated by principal, from_group_action and the
        # restriction of a pair groupoid, else None
        self._certificate = None
        self.product_complete = product_complete
        self.rn_values = tuple(rn_values) if rn_values is not None else None
        for x in range(self.n_units):
            if not (self.src[x] == self.rng[x] == x and self.inv[x] == x):
                raise ValueError("arrows 0..n_units-1 must be the unit loops")

    def __repr__(self):
        return (f"FiniteMeasuredGroupoid(units={self.n_units}, "
                f"arrows={self.n_arrows})")

    # -- basic structure --------------------------------------------------

    @property
    def n_arrows(self):
        return len(self.src)

    def unit_arrow(self, x):
        return x

    def is_unit_arrow(self, g):
        return g < self.n_units

    def source_fiber(self, x):
        """The arrows g with s(g) = x, in ascending id order. Shared with the
        fiber index; do not mutate."""
        if self._src_fibers is None:
            self._src_fibers = arrows_by(self.src, range(self.n_arrows))
        return self._src_fibers.get(x, ())

    def range_fiber(self, x):
        """The arrows g with r(g) = x, in ascending id order. Shared with the
        fiber index; do not mutate."""
        if self._rng_fibers is None:
            self._rng_fibers = arrows_by(self.rng, range(self.n_arrows))
        return self._rng_fibers.get(x, ())

    def product(self, g, h):
        """g . h for s(g) = r(h); None when not composable or outside a
        window. The compose that answers was fixed by the constructor."""
        if self.src[g] != self.rng[h]:
            return None
        return self._compose(g, h)

    @property
    def measure_preserving(self):
        """The masses agree at both ends of every arrow of the certificate's
        spanning set (certificate), or of every arrow without one."""
        cert = certificate(self)
        masses, src, rng = self.masses, self.src, self.rng
        return all(masses[src[g]] == masses[rng[g]] for g in (
            cert.spanning if cert is not None else range(self.n_arrows)))

    def mass_of(self, units):
        return sum((self.masses[x] for x in units), Fraction(0))

    def label_text(self, g):
        if self.is_unit_arrow(g):
            return "e"
        lab = self.labels[g]
        if isinstance(lab, str):
            return lab
        if lab and isinstance(lab[0], str):
            # a tagged label such as ("g", 3) or the level-model germs
            # ("a", m), ("t", j, i), ("T", j, i): the tag, then its indices
            return lab[0] + ",".join(str(v) for v in lab[1:])
        return ".".join(f"s{abs(s) - 1}" + ("'" if s < 0 else "") for s in lab)

    # -- constructors ------------------------------------------------------

    @classmethod
    def principal(cls, unit_names, masses, src, rng, inv, labels, pair_map, *,
                  components, rn_values=None):
        """The pair groupoid of its components: pair_map(s, r) is the id of
        the one arrow s -> r, and g . h is pair_map(s(h), r(g)).

        components labels each unit with its component, numbered by lowest
        unit as component_labels numbers them, and the caller vouches that
        the arrows are exactly the unit pairs of each component. So the
        PairCertificate is stated at once, its spanning arrows
        pair_map(root, x), n calls, and every product is defined."""
        src, rng = tuple(src), tuple(rng)
        G = cls(unit_names, masses, src, rng, inv, labels,
                lambda g, h: pair_map(src[h], rng[g]), rn_values=rn_values)
        G._closed = True
        roots = {}
        G._certificate = PairCertificate(tuple(components), tuple(
            pair_map(roots.setdefault(c, x), x)
            for x, c in enumerate(components)))
        return G

    @classmethod
    def from_group_action(cls, action_gens, masses=None, *, bound=5000):
        """Action groupoid of a finite group acting on the unit set.

        action_gens are permutations of the units; the group is the
        transformation group they generate, with at most bound elements
        (GroupTooLarge otherwise). Arrow e.n + x is element e acting at unit
        x. The result is certified as an action groupoid (certificate), with
        the generators' element indices recorded: products multiply group
        elements, validate answers [] while no RN values are attached, and
        GroupoidCocycle.check tests the cocycle law on generators only.
        """
        if not action_gens:
            raise ValueError("need at least one generator")
        n = len(action_gens[0])
        action_gens = [tuple(g) for g in action_gens]
        for g in action_gens:
            if sorted(g) != list(range(n)):
                raise ValueError("generators must be permutations of the unit set")
        group_elements = perm_closure(action_gens, bound)
        if group_elements is None:
            raise GroupTooLarge(f"group closure exceeds {bound} elements")
        if masses is None:
            masses = [Fraction(1, n)] * n
        group = ActionCertificate(group_elements, action_gens)
        products, multiply, order = group._products, group.multiply, group.order

        def compose(g, h):
            # (e_g, x) . (e_h, y) = (e_g e_h, y), read off the element-pair
            # cache before calling multiply
            i, j = g // n, h // n
            k = products.get(i * order + j)
            if k is None:
                k = multiply(i, j)
            return k * n + h % n

        G = cls(range(n), masses, *group.layout, compose)
        G._closed = True
        # the group is its own transformation group: each element is the
        # permutation it acts by
        G.group_elements = G.action_perms = group.elements
        G._certificate = group
        return G

    @classmethod
    def from_partial_isos(cls, n_units, seeds, masses=None, *,
                          label_normalizer=None, bound=4000):
        """Groupoid generated by partial injections of the unit set.

        Each seed is a dict {x: y}, injective. Arrows are identified by
        (source, normalized label word); distinct normalized labels give
        distinct parallel arrows even when they agree pointwise, so without a
        label_normalizer collapsing relations the closure of any recurrent
        seed is infinite and raises ClosureTooLarge. g . h is the arrow
        leaving s(h) labeled by the normalized free reduction of g h.
        """
        seeds = [dict(s) for s in seeds]
        for s in seeds:
            if len(set(s.values())) != len(s):
                raise ValueError("seeds must be injective")
        if masses is None:
            masses = [Fraction(1, n_units)] * n_units

        def mul(u, v):
            word = []
            for s in u + v:
                if word and word[-1] == -s:
                    word.pop()
                else:
                    word.append(s)
            word = tuple(word)
            return word if label_normalizer is None else label_normalizer(word)

        src, rng, labs = [], [], []
        by_key = {}
        # the fiber index of the arrows so far, each list ascending
        out_of, into = {}, {}

        def add_arrow(s, r, label):
            key = (s, label)
            existing = by_key.get(key)
            if existing is not None:
                if rng[existing] != r:
                    raise ValueError("label normalizer conflicts with the action")
                return None
            gid = len(src)
            src.append(s)
            rng.append(r)
            labs.append(label)
            by_key[key] = gid
            out_of.setdefault(s, []).append(gid)
            into.setdefault(r, []).append(gid)
            return gid

        for x in range(n_units):
            add_arrow(x, x, ())
        worklist = []
        for i, seed in enumerate(seeds):
            for x in sorted(seed):
                gid = add_arrow(x, seed[x], mul((i + 1,), ()))
                if gid is not None:
                    worklist.append(gid)
            inv_seed = {y: x for x, y in seed.items()}
            for y in sorted(inv_seed):
                gid = add_arrow(y, inv_seed[y], mul((-(i + 1),), ()))
                if gid is not None:
                    worklist.append(gid)
        cursor = 0
        while cursor < len(worklist):
            g = worklist[cursor]
            cursor += 1
            # the arrows h composable with g on either side, in ascending id
            # order, which fixes the ids the new composites get
            partners = sorted(set(into.get(src[g], ())).union(
                out_of.get(rng[g], ())))
            for h in partners:
                for left, right in ((g, h), (h, g)):
                    if src[left] == rng[right]:
                        label = mul(labs[left], labs[right])
                        gid = add_arrow(src[right], rng[left], label)
                        if gid is not None:
                            worklist.append(gid)
                            if len(src) > bound:
                                raise ClosureTooLarge(
                                    f"closure exceeds {bound} arrows")
        inv = [0] * len(src)
        for g in range(len(src)):
            ilabel = mul(tuple(-s for s in reversed(labs[g])), ())
            partner = by_key.get((rng[g], ilabel))
            if partner is None:
                raise VerificationFailure(
                    f"closure is missing the inverse of arrow {g}")
            inv[g] = partner

        def compose(g, h):
            k = by_key.get((src[h], mul(labs[g], labs[h])))
            if k is None:
                raise VerificationFailure(
                    f"closed groupoid is missing the composite of ({g},{h})")
            return k

        G = cls(range(n_units), masses, src, rng, inv, labs, compose)
        G._closed = True
        return G

    @classmethod
    def window(cls, masses, arrows, inverse_pairs, *, products=None,
               rn_values=None):
        """A finite window with explicit arrows and a possibly partial product.

        arrows: list of (source, range, label_text) for the non-unit arrows.
        inverse_pairs: list of (i, j) indices into arrows with arrow j the
        inverse of arrow i (i == j marks a self-inverse loop). Unit arrows,
        unit absorption, and g . g^-1 are filled in automatically; any other
        products must be passed explicitly (indices into arrows) and beyond
        that the product is undefined. rn_values, if given, lists the
        Radon-Nikodym value of each arrows[i]; inverses get reciprocals.
        """
        n = len(masses)
        src = list(range(n))
        rng = list(range(n))
        labs = ["e"] * n
        inv = list(range(n))
        for s, r, lab in arrows:
            src.append(s)
            rng.append(r)
            labs.append(lab)
            inv.append(-1)
        paired = set()
        for i, j in inverse_pairs:
            if src[n + i] != rng[n + j] or rng[n + i] != src[n + j]:
                raise ValueError(f"arrows {i} and {j} cannot be inverses")
            inv[n + i] = n + j
            inv[n + j] = n + i
            paired.add(i)
            paired.add(j)
        if len(paired) != len(arrows):
            raise ValueError("every arrow needs an inverse pairing")
        prod = {}
        for g in range(len(src)):
            prod[(rng[g], g)] = g
            prod[(g, src[g])] = g
            prod[(g, inv[g])] = rng[g]
            prod[(inv[g], g)] = src[g]
        if products:
            for (g, h), k in products.items():
                if src[n + g] != rng[n + h]:
                    raise ValueError(f"product ({g},{h}) is not composable")
                if k is not None:
                    # None marks a composable pair whose composite lies
                    # outside the window
                    prod[(n + g, n + h)] = n + k
        rn = None
        if rn_values is not None:
            rn = [None] * len(src)
            for x in range(n):
                rn[x] = Fraction(1)
            for i, value in enumerate(rn_values):
                value = Fraction(value)
                if value <= 0:
                    raise ValueError("Radon-Nikodym values must be positive")
                if rn[n + i] not in (None, value):
                    raise ValueError("inverse pair got conflicting RN values")
                rn[n + i] = value
                partner = inv[n + i]
                if rn[partner] not in (None, 1 / value):
                    raise ValueError("inverse pair got conflicting RN values")
                rn[partner] = 1 / value
            if None in rn:
                raise ValueError("rn_values must cover every arrow")
        return cls(range(n), masses, src, rng, inv, labs, table_product(prod),
                   product_complete=False, rn_values=rn)

    # -- serialization -----------------------------------------------------

    def to_doc(self):
        """The JSON-ready document from_doc reads back. The products table
        lists [g, h, g.h] for every defined composable pair, in the order of
        composable_pairs."""
        doc = {
            "units": [
                {"name": str(self.unit_names[x]),
                 "mass": str(self.masses[x])}
                for x in range(self.n_units)
            ],
            "arrows": [
                {"id": g, "source": self.src[g], "range": self.rng[g],
                 "inverse": self.inv[g], "label": self.label_text(g)}
                for g in range(self.n_arrows)
            ],
            "product_complete": self.product_complete,
            "products": [[g, h, k] for g, h, k in composable_pairs(self)
                         if k is not None],
        }
        if self.rn_values is not None:
            doc["rn"] = [str(v) for v in self.rn_values]
        return doc

    @classmethod
    def from_doc(cls, doc):
        """The groupoid of a to_doc document. InvalidDocument refuses, in
        O(arrows + products), a document that is not an object or not of its
        shape (_doc_list), a mass or an RN value that is not a rational number
        (_doc_fraction), an RN value that is not positive, and ids that
        name no arrow or unit: arrow ids other than 0..m-1, endpoints,
        inverses, product rows (which must pair composable arrows), and an
        rn list whose length is not m. Data in range is validate's to
        explain."""
        if not isinstance(doc, dict):
            raise InvalidDocument("a groupoid document is a JSON object, "
                                  f"got a {type(doc).__name__}")
        units = _doc_list(doc, "units", ("name", "mass"))
        arrows = _doc_list(doc, "arrows",
                           ("id", "source", "range", "inverse", "label"))
        masses = [_doc_fraction(u["mass"], "the mass of unit", x)
                  for x, u in enumerate(units)]
        names = [u["name"] for u in units]
        n, m = len(names), len(arrows)
        by_id = [None] * m
        for a in arrows:
            g = _doc_id(a["id"], m, "an arrow id")
            if by_id[g] is not None:
                raise InvalidDocument(f"arrow id {g} appears twice")
            by_id[g] = a
        src, rng, inv = ([_doc_id(a[key], bound, f"the {key} of arrow {g}")
                          for g, a in enumerate(by_id)]
                         for key, bound in (("source", n), ("range", n),
                                            ("inverse", m)))
        labs = [a["label"] for a in by_id]
        prod = {}
        rows = _doc_list(doc, "products") if "products" in doc else []
        for i, row in enumerate(rows):
            if not (isinstance(row, list) and len(row) == 3):
                raise InvalidDocument(f"product row {i} is not [g, h, g.h]")
            g, h, k = (_doc_id(v, m, f"an arrow of product row {i}")
                       for v in row)
            if src[g] != rng[h]:
                raise InvalidDocument(f"product row {i}: arrows {g} and {h} "
                                      "are not composable")
            prod[(g, h)] = k
        rn = ([_doc_fraction(v, "the RN value of arrow", g)
               for g, v in enumerate(_doc_list(doc, "rn"))]
              if "rn" in doc else None)
        if rn is not None and len(rn) != m:
            raise InvalidDocument(
                f"the document has {len(rn)} RN values for {m} arrows")
        if rn is not None and any(v <= 0 for v in rn):
            raise InvalidDocument("Radon-Nikodym values must be positive")
        return cls(names, masses, src, rng, inv, labs, table_product(prod),
                   product_complete=bool(doc.get("product_complete")),
                   rn_values=rn)


class Subgroupoid:
    """A wide subgroupoid: an arrow subset containing the units and closed
    under inverse and products, sharing units and masses with the parent.
    An id that is not a parent arrow raises UnknownArrow; with check, an
    open set raises ValueError naming its first failure (closure_failure)."""

    def __init__(self, parent, arrow_ids, check=True):
        self.parent = parent
        ids = set(arrow_ids)
        ids.update(range(parent.n_units))
        require_arrows(parent, ids)
        self.ids = frozenset(ids)
        self._by_src = None
        self._component_of = None
        # [parent : self] at every unit when the parent is a certified pair
        # groupoid and this arrow set is closed under inverse; see index
        self._indices = _UNCHECKED
        failure = closure_failure(parent, self.ids) if check else None
        if failure is not None:
            raise ValueError(failure)

    @property
    def by_src(self):
        """{unit: [arrows of this subgroupoid leaving it]}, ascending ids;
        built once, on first use."""
        if self._by_src is None:
            self._by_src = arrows_by(self.parent.src, sorted(self.ids))
        return self._by_src

    @property
    def component_of(self):
        """The component label of every unit under this subgroupoid's
        arrows (component_labels: numbered by lowest unit), a tuple; the
        one union-find of a subgroupoid, run once, on first use."""
        if self._component_of is None:
            src, rng = self.parent.src, self.parent.rng
            self._component_of = tuple(component_labels(
                self.parent.n_units, [src[g] for g in self.ids],
                [rng[g] for g in self.ids]))
        return self._component_of

    @classmethod
    def generated_by(cls, parent, arrow_ids):
        """Closure of the given arrows inside the parent."""
        arrow_ids = list(arrow_ids)
        require_arrows(parent, arrow_ids)
        ids = set(range(parent.n_units))
        work = []

        def add(k):
            if k is not None and k not in ids:
                ids.add(k)
                work.append(k)

        for g in arrow_ids:
            add(g)
            add(parent.inv[g])
        cursor = 0
        while cursor < len(work):
            g = work[cursor]
            cursor += 1
            for h in parent.range_fiber(parent.src[g]):
                if h in ids:
                    add(parent.product(g, h))
            for h in parent.source_fiber(parent.rng[g]):
                if h in ids:
                    add(parent.product(h, g))
        return cls(parent, ids, check=False)

    def __contains__(self, g):
        return g in self.ids

    def __len__(self):
        return len(self.ids)

    def sorted_ids(self):
        return sorted(self.ids)

    def full(self):
        return len(self.ids) == self.parent.n_arrows


def require_arrows(G, ids):
    """Raise UnknownArrow, naming the first of ids outside [0, n_arrows),
    unless every one is an arrow id of G."""
    if ids and (min(ids) < 0 or max(ids) >= G.n_arrows):
        g = next(g for g in ids if not 0 <= g < G.n_arrows)
        raise UnknownArrow(f"arrow {g} is not one of the {G.n_arrows} "
                           "arrows of the groupoid")


def closure_failure(G, ids):
    """None when the set ids of arrows of G is closed under inverse and under
    the product of every composable pair in it (composable_pairs); otherwise
    Subgroupoid's message for the first failure, inverse before product."""
    for g in ids:
        if G.inv[g] not in ids:
            return f"subgroupoid not closed under inverse at {g}"
    for g, h, k in composable_pairs(G, ids):
        if k is None:
            return "subgroupoid needs a complete ambient product"
        if k not in ids:
            return f"subgroupoid not closed under product ({g},{h})"
    return None


def id_set(S):
    """The arrow ids of S, a Subgroupoid or an id collection, a frozenset."""
    return S.ids if isinstance(S, Subgroupoid) else frozenset(S)


def whole(G):
    """The full groupoid viewed as a subgroupoid of itself."""
    return Subgroupoid(G, range(G.n_arrows), check=False)


class ErgodicDecomposition:
    """Partition of the units into the components of a groupoid, a
    subgroupoid, or an explicit arrow subset, whose ids must be arrows of
    the groupoid (UnknownArrow)."""

    def __init__(self, G, arrow_ids=None):
        if isinstance(G, Subgroupoid):
            self.parent = G.parent
            labels = G.component_of
        else:
            self.parent, ids = G, range(G.n_arrows)
            if arrow_ids is not None:
                ids = list(arrow_ids)
                require_arrows(G, ids)
            labels = component_labels(G.n_units, [G.src[g] for g in ids],
                                      [G.rng[g] for g in ids])
        self.component_of = tuple(labels)
        n_comp = max(labels) + 1 if labels else 0
        comps = [[] for _ in range(n_comp)]
        for x, c in enumerate(labels):
            comps[c].append(x)
        self.components = tuple(tuple(c) for c in comps)
        self._masses = None
        self._conditional = None

    @property
    def masses(self):
        """The mass of each component, summed on first read."""
        if self._masses is None:
            self._masses = tuple(self.parent.mass_of(c)
                                 for c in self.components)
        return self._masses

    @property
    def n_components(self):
        return len(self.components)

    def component(self, x):
        return self.components[self.component_of[x]]

    @property
    def conditional_masses(self):
        """The mass of every unit under the normalized measure of its
        component, computed on first read."""
        if self._conditional is None:
            masses = self.masses
            self._conditional = tuple(
                m / masses[c]
                for m, c in zip(self.parent.masses, self.component_of))
        return self._conditional

    def is_ergodic(self):
        return self.n_components == 1


def spanning_forest(G):
    """Breadth-first spanning forest of the arrow-connected components of a
    groupoid or, for a Subgroupoid, of the components of its arrows alone.

    Returns (dec, steps): dec is the ErgodicDecomposition of G and steps
    lists (x, g, backwards) for every unit in the order it is reached. Each
    component starts at its lowest unit x with g None; every other x is
    reached through the arrow g, x = s(g) when backwards and x = r(g)
    otherwise. At each unit the arrows are tried in sorted (arrow,
    backwards) order, so a potential built along the steps depends only on
    G and the arrow values.
    """
    dec = ErgodicDecomposition(G)
    if isinstance(G, Subgroupoid):
        leaving, entering = G.by_src, arrows_by(G.parent.rng, G.sorted_ids())
        G = G.parent
        source_fiber = lambda x: leaving.get(x, ())
        range_fiber = lambda x: entering.get(x, ())
    else:
        source_fiber, range_fiber = G.source_fiber, G.range_fiber
    steps = []
    reached = set()
    for comp in dec.components:
        root = min(comp)
        reached.add(root)
        steps.append((root, None, False))
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                edges = sorted([(g, False) for g in source_fiber(u)]
                               + [(g, True) for g in range_fiber(u)])
                for g, backwards in edges:
                    other = G.src[g] if backwards else G.rng[g]
                    if other not in reached:
                        reached.add(other)
                        steps.append((other, g, backwards))
                        nxt.append(other)
            frontier = nxt
    return dec, steps


def forest_potential(G, values, op, inverse, identity):
    """The potential of one value per arrow along spanning_forest, and the
    defect of every arrow against it.

    Returns (dec, psi, defects): dec is the ErgodicDecomposition of G;
    psi[x] is identity at the root of each component and op(psi(s(g)),
    values[g]) or op(psi(r(g)), inverse(values[g])) at a unit x reached
    through g forwards or backwards; defects[g] is op(op(values[g],
    psi(s(g))), inverse(psi(r(g)))). For an abelian target the defects are
    all identity exactly when values is the coboundary of psi, and they
    generate the same subgroup whichever forest is used.
    """
    dec, steps = spanning_forest(G)
    psi = [None] * G.n_units
    for x, g, backwards in steps:
        if g is None:
            psi[x] = identity
        elif backwards:
            psi[x] = op(psi[G.rng[g]], inverse(values[g]))
        else:
            psi[x] = op(psi[G.src[g]], values[g])
    psi_inv = [inverse(p) for p in psi]
    defects = [op(op(v, psi[s]), psi_inv[r])
               for v, s, r in zip(values, G.src, G.rng)]
    return dec, psi, defects


def certificate(G):
    """What G is known to be exactly, or None, as stated when G was built.

    - A PairCertificate (kind "pair"): G is the pair groupoid of its
      components. Stated by principal (level models, partition groupoids)
      and by restrict on a pair groupoid's restriction, in O(|A|).
    - An ActionCertificate (kind "action"): G is the action groupoid of a
      finite permutation group, the group object from_group_action built G
      from and composes G's products with.

    Each kind states two facts, read by code shared by both kinds: spanning,
    arrow ids along which equal masses make every arrow preserve them
    (measure_preserving), and pairs(G), composable pairs (g, h, g.h) on
    which multiplicativity implies the cocycle law (law_holds, asked of RN
    values by validate and of a value list by GroupoidCocycle.check).
    The pair kind also gives the index of a subgroupoid at every unit. A
    restriction of an action groupoid, a groupoid read back from JSON and a
    hand-built window get no certificate. No certificate changes a product.
    Without one, or when a fast test fails, every caller runs its fiber
    scan, so messages never depend on the certificate.
    """
    return G._certificate


def products_defined(G):
    """True when every composable pair of G has a product by construction:
    G is a pair groupoid (principal), a group action, a partial isomorphism
    closure, or a restriction of one of these."""
    return G._closed


def law_holds(G, values, pairs, op=None, identity=1):
    """True when values holds one exact value (an int or a Fraction) per
    arrow of G, sends every unit arrow to identity, and has values[k] ==
    op(values[g], values[h]) on every (g, h, k) of pairs; False otherwise,
    and the caller's fiber scan then explains the failure.

    op None stands for the positive rationals under multiplication: a value
    that is not positive fails, and a product is compared by integer
    cross-multiplication, which for fractions in lowest terms is equality.
    On a certificate's pairs(G), and for an abelian target, the law is the
    cocycle law on every composable pair of G.
    """
    if len(values) != G.n_arrows or not all(
            type(v) is int or type(v) is Fraction for v in values) or any(
            values[G.unit_arrow(x)] != identity for x in range(G.n_units)):
        return False
    if op is not None:
        return all(values[k] == op(values[g], values[h]) for g, h, k in pairs)
    nums = [v.numerator for v in values]
    if any(a <= 0 for a in nums):
        return False
    dens = [v.denominator for v in values]
    return all(nums[k] * dens[g] * dens[h] == nums[g] * nums[h] * dens[k]
               for g, h, k in pairs)


class PairCertificate:
    """G is exactly the pair groupoid of its components: component_of is
    ErgodicDecomposition(G).component_of, and every unit pair of a component
    carries exactly one arrow. The product of
    a composable pair is the arrow between its outer endpoints, so the
    groupoid axioms hold and every product on G is forced. spanning[x] is
    h_x, the arrow from the lowest unit of x's component to x."""

    kind = "pair"

    def __init__(self, component_of, spanning):
        self.component_of = component_of
        self.spanning = spanning

    def pairs(self, G):
        """(h_r, h_s^-1, g) for every arrow g, with s = s(g) and r = r(g):
        both factors pass through the lowest unit of the component, and
        their product is g, the one arrow s -> r.

        The law on these pairs is the cocycle law. With the unit arrows sent
        to the identity, the pair of g = 1_x gives c(h_x^-1) = c(h_x)^-1, so
        every c(g) is psi(r(g)) psi(s(g))^-1 with psi = c o h: a coboundary,
        so a cocycle in any abelian target. Conversely every cocycle obeys
        the law on every composable pair. Each arrow is the product of one
        pair, so every value is compared with a product, as in the scan: a
        Z/n value outside [0, n) fails both.
        """
        star, inv = self.spanning, G.inv
        back = [inv[h] for h in star]
        return zip(map(star.__getitem__, G.rng), map(back.__getitem__, G.src),
                   range(G.n_arrows))

    def indices(self, H):
        """[H.parent : H]_x for every unit x, or None unless H is closed
        under inverse. Cached on H.

        On a pair groupoid the left H-class of the arrow x -> y is reached
        from it by H arrows leaving y, so with H closed under inverse the
        classes of s^-1(x) are the H-components inside the component of x.
        """
        counts = H._indices
        if counts is _UNCHECKED:
            counts = H._indices = self._count_indices(H)
        return counts

    def _count_indices(self, H):
        G = H.parent
        ids = H.ids
        if any(G.inv[g] not in ids for g in ids):
            return None
        inner = {}
        for c, h in zip(self.component_of, H.component_of):
            inner.setdefault(c, set()).add(h)
        return tuple(len(inner[c]) for c in self.component_of)


class ActionCertificate:
    """A permutation group on n units, and the certificate that G is exactly
    its action groupoid. perm_closure built the elements, so they are closed
    and each is a positive word in the generators (element indices). layout
    is the (src, rng, inv, labels) of arrow(e, x) = e.n + x, element e at
    unit x with label ("g", e): every product is defined, the arrow
    arrow(multiply(e_g, e_h), s(h)), and the axioms hold. spanning holds
    each generator acting at each unit, generator by generator: a mass
    invariant under every generator is invariant under the group."""

    kind = "action"

    def __init__(self, elements, generators):
        self.elements = tuple(elements)
        self.order = len(self.elements)
        n = self.n = len(self.elements[0])
        index_of = self._index_of = {e: i for i, e in enumerate(self.elements)}
        self.generators = tuple(index_of[g] for g in generators)
        self.spanning = tuple(s * n + x for s in self.generators
                              for x in range(n))
        # i * order + j -> the index of elements[i] o elements[j], filled on
        # first use: at most one int per element pair
        self._products = {}
        self._inverses = tuple(index_of[_inverse_perm(p)]
                               for p in self.elements)
        self.layout = (
            tuple(range(n)) * self.order,
            tuple(y for perm in self.elements for y in perm),
            tuple(i * n + y for i, perm in zip(self._inverses, self.elements)
                  for y in perm),
            tuple(label for e in range(self.order)
                  for label in [("g", e)] * n))

    def multiply(self, i, j):
        """The index of elements[i] o elements[j] (j acts first)."""
        key = i * self.order + j
        k = self._products.get(key)
        if k is None:
            pi = self.elements[i]
            k = self._products[key] = self._index_of[
                tuple(map(pi.__getitem__, self.elements[j]))]
        return k

    def inverse(self, e):
        """The index of the inverse of elements[e]."""
        return self._inverses[e]

    def arrow(self, e, x):
        """The arrow of element e acting at unit x."""
        return e * self.n + x

    def element(self, g):
        """The element index of arrow g."""
        return g // self.n

    def pairs(self, G):
        """Yield (g, h, g . h) for every composable pair whose right factor
        h is a generator acting at some unit: |group| x |generators| x
        |units| pairs, generator by generator, then element by element.

        A value list that sends the unit arrows to the identity of an
        abelian group and multiplies on these pairs, c(es, x) = c(e, s.x)
        c(s, x), multiplies on every composable pair: every element d is a
        positive word in the generators, and induction on its length gives
        c(ed, x) = c(e, d.x) c(d, x). Each arrow is the product of a pair
        for every generator.
        """
        n = self.n
        for s in self.generators:
            perm = self.elements[s]
            for e in range(self.order):
                g0, k0 = e * n, self.multiply(e, s) * n
                for x in range(n):
                    yield g0 + perm[x], s * n + x, k0 + x


class GroupoidMap(NamedTuple):
    """A homomorphism source -> target: units[x] is the target unit of the
    source unit x and arrows[g] the target arrow of the source arrow g."""

    source: FiniteMeasuredGroupoid
    target: FiniteMeasuredGroupoid
    units: tuple
    arrows: tuple

    def pull(self, values):
        """Values indexed by target arrow, read back onto the source."""
        return [values[a] for a in self.arrows]

    def preimage(self, ids):
        """The source arrows sent into ids (a Subgroupoid of the target or
        target arrow ids), a frozenset."""
        inside = id_set(ids)
        return frozenset(g for g, a in enumerate(self.arrows) if a in inside)


def restrict(G, units):
    """(G)_A as the inclusion GroupoidMap G_A -> G, A a nonempty unit set:
    unit i is A[i], A sorted, and the kept arrows are A's unit loops, then
    G's other arrows with both ends in A, ascending. Masses are restricted,
    not renormalized; the product is G's mapped back to the kept ids.

    When G is the pair groupoid of its components (a PairCertificate), so
    is G_A, of the parts of its components in A: the kept arrows are every
    unit pair inside each part, and no other. So its certificate is stated,
    in O(|A|): the label of A[i] is G's label renumbered by lowest unit,
    and its spanning arrow is h_x . h_r^-1 in G, the one arrow r -> x, with
    x = A[i] and r the lowest unit of x's part, mapped to the kept ids."""
    A = sorted(set(units))
    if not A:
        raise EmptySet("restriction to the empty set")
    if isinstance(G, Subgroupoid):
        raise TypeError("restrict expects a groupoid; restrict the parent")
    unit_map = {x: i for i, x in enumerate(A)}
    kept = [G.unit_arrow(x) for x in A]
    kept += [g for g in range(G.n_arrows)
             if not G.is_unit_arrow(g)
             and G.src[g] in unit_map and G.rng[g] in unit_map]
    arrow_map = {g: i for i, g in enumerate(kept)}
    parent_compose, local = G._compose, arrow_map.get

    def compose(i, j):
        return local(parent_compose(kept[i], kept[j]))

    sub = FiniteMeasuredGroupoid(
        [G.unit_names[x] for x in A], [G.masses[x] for x in A],
        [unit_map[G.src[g]] for g in kept], [unit_map[G.rng[g]] for g in kept],
        [arrow_map[G.inv[g]] for g in kept], [G.labels[g] for g in kept],
        compose, product_complete=G.product_complete,
        rn_values=None if G.rn_values is None
        else [G.rn_values[g] for g in kept])
    sub._closed = G._closed
    cert = G._certificate
    if cert is not None and cert.kind == "pair":
        # G's label -> (the part's label, its lowest unit), as A ascends
        parts, star = {}, cert.spanning
        own = [parts.setdefault(cert.component_of[x], (len(parts), x))
               for x in A]
        sub._certificate = PairCertificate(tuple(c for c, _ in own), tuple(
            arrow_map[G.product(star[x], G.inv[star[r]])]
            for x, (_, r) in zip(A, own)))
    return GroupoidMap(sub, G, tuple(A), tuple(kept))


def require_unit(G, x):
    """Raise UnknownUnit unless x is a unit index of G."""
    if not (isinstance(x, int) and 0 <= x < G.n_units):
        raise UnknownUnit(
            f"unit {x!r} is not one of the {G.n_units} units of the groupoid")


def _require_parent(G, H):
    if H.parent is not G:
        raise ParamMismatch(
            "the subgroupoid belongs to another groupoid than the one the "
            "index is taken in")


def left_classes(G, fiber, sub_ids, incomplete):
    """The left sub-classes of fiber, a list of arrows leaving one unit:
    g ~ h iff g h^-1 in sub, walked as orbits of left multiplication by sub
    (g h^-1 = s in sub iff g = s h). Yields each class as a list of its
    arrows, the first one the lowest id not in an earlier class. This is
    the one walk behind index_of_pair, which counts the classes, and
    coset_classes, which sorts them.

    sub_ids may be a Subgroupoid of G, whose cached arrows-by-source map is
    then used instead of one built for this call; plain ids are checked
    first (UnknownArrow). A missing product raises ValueError(incomplete).
    """
    if isinstance(sub_ids, Subgroupoid):
        sub_by_src = sub_ids.by_src
    else:
        require_arrows(G, sub_ids)
        sub_by_src = arrows_by(G.src, sub_ids)
    unseen = set(fiber)
    for g in fiber:
        if g not in unseen:
            continue
        unseen.discard(g)
        members = [g]
        # members grows while it is walked: each arrow is expanded once
        for h in members:
            for s in sub_by_src.get(G.rng[h], ()):
                k = G.product(s, h)
                if k is None:
                    raise ValueError(incomplete)
                if k in unseen:
                    unseen.discard(k)
                    members.append(k)
        yield members


def index_of_pair(G, ambient_ids, sub_ids, x):
    """Classes of {g in ambient : s(g) = x} under g ~ h iff g h^-1 in sub,
    counted by the left-class walk (left_classes). ambient_ids is tested for
    membership once per arrow of s^-1(x), so pass a range or a set. sub_ids
    may be a Subgroupoid of G. This is the general fiber scan, one product
    per pair (h, s) with h in the fiber and s in sub leaving r(h); index()
    answers a certified pair groupoid without it. Raises UnknownUnit when x
    is not a unit of G.
    """
    require_unit(G, x)
    fiber = [g for g in G.source_fiber(x) if g in ambient_ids]
    return sum(1 for _ in left_classes(G, fiber, sub_ids,
                                       "index needs a complete product"))


def index(G, H, x):
    """[G : H]_x = the number of left H-classes of s^-1(x), a positive int.

    H is a Subgroupoid of G (ParamMismatch when its parent is another
    groupoid) or a collection of arrow ids of G; x must be a unit of G
    (UnknownUnit otherwise). When H is a Subgroupoid closed under inverse
    and G a certified pair groupoid (certificate), the index is the
    number of H-components inside the component of x: one O(arrows) pass
    computes it for every unit and caches it on H, and each call is then
    O(1). Otherwise the fiber scan of index_of_pair walks s^-1(x) and, from
    each of its arrows h, the arrows of H leaving r(h): sum over y of
    |H-arrows leaving y| products. A Subgroupoid H builds its
    arrows-by-source map once, so a sweep over every unit x does not
    rebuild it."""
    if isinstance(H, Subgroupoid):
        _require_parent(G, H)
        cert = certificate(G)
        counts = cert.indices(H) if cert is not None \
            and cert.kind == "pair" else None
        if counts is not None:
            require_unit(G, x)
            return counts[x]
    return index_of_pair(G, range(G.n_arrows), H, x)


def local_index(G, H, x):
    """[[G : H]]_x: the index taken after restricting both groupoids to the
    H-component of x. Returned as an exact Fraction. H and x are checked as
    in index."""
    if isinstance(H, Subgroupoid):
        _require_parent(G, H)
    return local_index_of_pair(G, range(G.n_arrows), id_set(H), x)


def local_index_of_pair(G, ambient_ids, sub_ids, x):
    """[[ambient : sub]]_x for two nested wide arrow subsets of G.

    Both restricted to the sub-component of x before counting, so the value
    only changes when the restriction severs genuine structure; counted by
    local_counts. Raises UnknownUnit when x is not a unit of G."""
    require_unit(G, x)
    sub = Subgroupoid(G, sub_ids, check=False)
    return local_counts(G, set(ambient_ids), sub, [x])[x]


def local_counts(G, ambient_ids, sub, units):
    """{x: [[ambient : sub]]_x as a Fraction} for x in units, counted once
    per component of the Subgroupoid sub (sub.component_of): the count in
    G's restriction to it is index_of_pair over the ambient arrows of
    s^-1(x) ending in it, since s.h ends where s ends. ambient_ids is
    tested for membership: pass a set or a range."""
    component_of = sub.component_of
    per_comp = {}
    for x in units:
        c = component_of[x]
        if c not in per_comp:
            fiber = {g for g in G.source_fiber(x)
                     if g in ambient_ids and component_of[G.rng[g]] == c}
            per_comp[c] = Fraction(index_of_pair(G, fiber, sub, x))
    return {x: per_comp[component_of[x]] for x in units}


def validate(G):
    """Axiom check; returns a list of human-readable violations.

    [] at once, when every mass is positive, on a certified groupoid
    (certificate) with no RN values, or whose RN values obey law_holds on
    the certificate's pairs(G): O(arrows) on a pair groupoid, |group| x
    |generators| x |units| steps on an action groupoid. Otherwise, and so
    to explain any defect, the fiber scan is exhaustive
    over the composable pairs (g, h) of composable_pairs and over the
    triples (g, h, f) with (g, h) defined and f in r^-1(s(h)): a principal
    groupoid on n units costs n^3 pairs and n^4 triples, an action groupoid
    of a group of order m on n units m^2 n pairs and m^3 n triples."""
    cert = certificate(G)
    if cert is not None and all(m > 0 for m in G.masses) and (
            G.rn_values is None
            or law_holds(G, G.rn_values, cert.pairs(G))):
        return []
    problems = []
    for x in range(G.n_units):
        if G.masses[x] <= 0:
            problems.append(f"unit {x} has non-positive mass")
    for g in range(G.n_arrows):
        gi = G.inv[g]
        if not (0 <= gi < G.n_arrows) or G.inv[gi] != g:
            problems.append(f"inverse of arrow {g} is not an involution")
            continue
        if G.src[g] != G.rng[gi] or G.rng[g] != G.src[gi]:
            problems.append(f"inverse of arrow {g} does not swap endpoints")
        k = G.product(g, gi)
        if k is not None and k != G.unit_arrow(G.rng[g]):
            problems.append(f"arrow {g} times its inverse is not the unit")
    defined = []
    for g, h, k in composable_pairs(G):
        if k is None:
            if G.product_complete:
                problems.append(f"missing product ({g},{h})")
            continue
        if G.src[k] != G.src[h] or G.rng[k] != G.rng[g]:
            problems.append(f"product ({g},{h}) has wrong endpoints")
        defined.append((g, h, k))
    # rows[g]: {h: g.h} over the defined pairs, each h in range-fiber order
    rows = {}
    for g, h, k in defined:
        rows.setdefault(g, {})[h] = k
    empty = {}
    for g, h, k in defined:
        row_g, row_k = rows[g], rows.get(k, empty)
        for f, hf in rows.get(h, empty).items():
            left = row_k.get(f)
            right = row_g.get(hf)
            if left is not None and right is not None and left != right:
                problems.append(f"associativity fails at ({g},{h},{f})")
    if G.rn_values is not None:
        for g, h, k in defined:
            if G.rn_values[g] * G.rn_values[h] != G.rn_values[k]:
                problems.append(
                    f"attached RN values not multiplicative at ({g},{h})")
    return problems
