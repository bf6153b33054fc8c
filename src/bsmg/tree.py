"""The Bass-Serre tree of BS(p, q).

Vertices are cosets g<a>, positively oriented edges are cosets g<a^q>; the
edge g<a^q> joins g<a> to gt<a>. Every vertex has |q| outgoing and |p|
incoming edges. Cosets canonicalize through the push-right normal form: right
multiplication by a-powers only changes the trailing exponent, so a vertex is
the normal form with trailing exponent zeroed and an edge is the normal form
with trailing exponent reduced mod |q|.

Geodesics are computed algebraically: the prefix walk of the canonical coset
form of u^-1 v is the reduced edge path, hence the geodesic. Breadth-first
search over neighbors exists in the test suite as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import RadiusExceeded
from .words import BrittonNormalForm, BSParams, GroupWord, fold, normalize

DEFAULT_RADIUS = 32


@dataclass(frozen=True)
class TreeVertex:
    """A vertex g<a>, canonical: normal form with trailing exponent zero."""

    params: BSParams
    form: BrittonNormalForm

    def rep_word(self) -> GroupWord:
        return self.form.to_word()

    def to_text(self) -> str:
        return str(self.form)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class TreeEdge:
    """An edge g<a^q> with the sign it was traversed with.

    form is canonical for the coset (trailing exponent in [0, |q|)); sign is
    +1 when traversed origin to terminal (g<a> to gt<a>), else -1. Identity
    of the underlying edge is identity of form.
    """

    params: BSParams
    form: BrittonNormalForm
    sign: int

    def origin(self) -> TreeVertex:
        return TreeVertex(self.params, _strip_trailing(self.form))

    def terminal(self) -> TreeVertex:
        return TreeVertex(self.params,
                          _strip_trailing(fold(self.form, _T, self.params)))

    def to_text(self) -> str:
        return str(self.form)

    def __str__(self):
        return self.to_text()


@dataclass(frozen=True)
class Geodesic:
    vertices: tuple
    edges: tuple

    @property
    def length(self) -> int:
        return len(self.edges)

    def signs(self) -> tuple:
        return tuple(edge.sign for edge in self.edges)


def base_vertex(params: BSParams) -> TreeVertex:
    return TreeVertex(params, BrittonNormalForm(0, ()))


_T = (("t", 1),)
_T_INV = (("t", -1),)


def _strip_trailing(form: BrittonNormalForm) -> BrittonNormalForm:
    if form.syllables:
        e, _ = form.syllables[-1]
        return BrittonNormalForm(form.k0, form.syllables[:-1] + ((e, 0),))
    return BrittonNormalForm(0, ())


def _edge_form(form: BrittonNormalForm, params: BSParams) -> BrittonNormalForm:
    """The edge coset form<a^q>: trailing exponent reduced mod |q|."""
    if form.syllables:
        e, k = form.syllables[-1]
        return BrittonNormalForm(form.k0, form.syllables[:-1] + ((e, k % abs(params.q)),))
    return BrittonNormalForm(form.k0 % abs(params.q), ())


def canonical_vertex(word: GroupWord, params: BSParams) -> TreeVertex:
    """The vertex word<a>."""
    return TreeVertex(params, _strip_trailing(normalize(word, params)))


def canonical_edge(word: GroupWord, params: BSParams) -> BrittonNormalForm:
    """Canonical form of the edge coset word<a^q>."""
    return _edge_form(normalize(word, params), params)


def neighbors(vertex: TreeVertex) -> list:
    """All |q| + |p| neighbors as (edge, vertex) pairs, outgoing first.

    Each is one step from the vertex's own form: a^i t folded onto it for
    the outgoing edges, a^j t^-1 for the incoming ones."""
    params = vertex.params
    form = vertex.form
    result = []
    for i in range(abs(params.q)):
        shifted = fold(form, (("a", i),), params)
        edge = TreeEdge(params, _edge_form(shifted, params), 1)
        result.append((edge, TreeVertex(
            params, _strip_trailing(fold(shifted, _T, params)))))
    for j in range(abs(params.p)):
        shifted = fold(form, (("a", j), ("t", -1)), params)
        edge = TreeEdge(params, _edge_form(shifted, params), -1)
        result.append((edge, TreeVertex(params, _strip_trailing(shifted))))
    return result


def distance(u: TreeVertex, v: TreeVertex) -> int:
    diff = u.rep_word().inverse() * v.rep_word()
    return normalize(diff, u.params).t_length


def geodesic(u: TreeVertex, v: TreeVertex, radius: int = DEFAULT_RADIUS) -> Geodesic:
    """The unique reduced path from u to v.

    The canonical coset form of u^-1 v spells the path: each syllable is one
    edge traversal, ascending (+1) or descending (-1).
    """
    params = u.params
    diff = _strip_trailing(normalize(u.rep_word().inverse() * v.rep_word(), params))
    if diff.t_length > radius:
        raise RadiusExceeded(f"distance {diff.t_length} exceeds radius {radius}")
    vertices = [u]
    edges = []
    # the prefix walk extends u's form one syllable at a time
    prefix = fold(u.form, (("a", diff.k0),), params)
    for e, k in diff.syllables:
        if e == 1:
            edges.append(TreeEdge(params, _edge_form(prefix, params), 1))
        else:
            edges.append(TreeEdge(
                params, _edge_form(fold(prefix, _T_INV, params), params), -1))
        prefix = fold(prefix, (("t", e), ("a", k)), params)
        vertices.append(TreeVertex(params, _strip_trailing(prefix)))
    return Geodesic(tuple(vertices), tuple(edges))


def tau(word: GroupWord, params: BSParams) -> int:
    """Signed edge-traversal count of the orbit path; equals the t-exponent sum."""
    return word.t_exponent_sum()


def stabilizer_index(u: TreeVertex, v: TreeVertex, radius: int = DEFAULT_RADIUS) -> int:
    """Index in the stabilizer of u of the subgroup also stabilizing v.

    Computed as d0 * |p0|^(-m) * |q0|^M where M = max(0, partial sign sums)
    and m = min(0, partial sign sums) along the geodesic from u to v, with
    value 1 when u = v. The exponent convention (-m, which is >= 0) is the one
    validated against brute-force smallest-power search.
    """
    if u == v:
        return 1
    params = u.params
    path = geodesic(u, v, radius)
    running = 0
    high = 0
    low = 0
    for sign in path.signs():
        running += sign
        high = max(high, running)
        low = min(low, running)
    return params.d0 * abs(params.p0) ** (-low) * abs(params.q0) ** high


def fixed_vertex(word: GroupWord, params: BSParams, radius: int = DEFAULT_RADIUS):
    """A vertex fixed by the word, or None if the word is hyperbolic.

    Without inversions an elliptic isometry fixes the midpoint of any segment
    [v, w v]; odd displacement therefore means hyperbolic.
    """
    v0 = base_vertex(params)
    target = canonical_vertex(word, params)
    d = distance(v0, target)
    if d == 0:
        return v0
    if d % 2 == 1:
        return None
    path = geodesic(v0, target, radius)
    mid = path.vertices[d // 2]
    moved = canonical_vertex(word * mid.rep_word(), params)
    return mid if moved == mid else None
