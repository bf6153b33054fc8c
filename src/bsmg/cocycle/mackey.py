"""Type classification and Mackey ranges at finite scale.

The type of a nonsingular finite groupoid is read off the subgroup of
positive rationals generated by the Radon-Nikodym defects against a spanning
forest: trivial subgroup means a measure preserving model (type II after a
potential change), a cyclic subgroup generated by lambda < 1 means type
III_lambda, a rank-two subgroup is dense and means type III_1.

The Mackey range of an integer-group valued cocycle is the translation
action on the components of the skew product. For Z/m the skew product is
finite and exact; for Z the components are computed on doubling windows
until they stabilize and cross-checked against the defect subgroup.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .._kernels import component_labels
from ..errors import (InfiniteComponents, NotPowerValued,
                      VerificationFailure, require_under_cap)
from ..groupoid.core import forest_potential
from ..words import generalized_valuation
from .core import radon_nikodym
from .values import GroupoidCocycle, QPos, ZAdd, ZModAdd

# the most units scaled_product_model may give its cycle
MAX_CYCLE = 2 ** 14


@dataclass(frozen=True)
class TypeLabel:
    kind: str  # "II", "III_lambda" or "III_1"
    lam: Fraction | None = None

    def __str__(self):
        if self.kind == "III_lambda":
            return f"III_{self.lam}"
        return self.kind.replace("_", "-") if self.kind == "III_1" else self.kind


def _coprime_base(numbers):
    """Sorted pairwise coprime integers > 1 whose powers multiply to each
    given positive integer, by gcds alone: a number a joins the base, or,
    sharing g > 1 with a member b, b is replaced by g, a/g and b/g (1s
    dropped) on the work list. Each split divides the product of all
    numbers held by g, so the loop ends; nothing is factored into primes."""
    base = []
    work = [a for a in numbers if a > 1]
    while work:
        a = work.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                work.extend(c for c in (g, a // g, b // g) if c > 1)
                break
        else:
            base.append(a)
    return sorted(base)


def _exponent_vector(value, base):
    """Exponents of a positive rational over a coprime base of its parts."""
    return tuple(generalized_valuation(value.numerator, b)
                 - generalized_valuation(value.denominator, b) for b in base)


def _defects(G, rn_values):
    """Multiset of nontrivial spanning-forest defect values of a positive
    cocycle (forest_potential), pooled across all arrow-connected
    components."""
    defects = forest_potential(G, rn_values, QPos.op, QPos.inverse,
                               QPos.identity)[2]
    return [d for d in defects if d != 1]


def classify_type(G):
    """TypeLabel of a finite nonsingular groupoid or window; see module
    docstring. Exact rational arithmetic throughout."""
    rn = radon_nikodym(G).values
    defects = _defects(G, rn)
    if not defects:
        return TypeLabel("II")
    # coprime members are multiplicatively independent, so rank and
    # generator read the same over them as over the primes
    coprime = _coprime_base([n for d in defects
                            for n in (d.numerator, d.denominator)])
    vectors = [_exponent_vector(d, coprime) for d in defects]
    base = vectors[0]
    for v in vectors[1:]:
        # parallel iff all 2x2 minors with the base vanish
        if any(base[i] * v[j] - base[j] * v[i]
               for i in range(len(coprime))
               for j in range(i + 1, len(coprime))):
            return TypeLabel("III_1")
    content = gcd(*base) if len(base) > 1 else abs(base[0])
    direction = tuple(c // content for c in base)
    j0 = next(i for i, c in enumerate(direction) if c)
    mults = [v[j0] // direction[j0] for v in vectors]
    g0 = 0
    for m in mults:
        g0 = gcd(g0, m)
    gen = [g0 * c for c in direction]
    lam = Fraction(1)
    for p, e in zip(coprime, gen):
        lam *= Fraction(p) ** e
    if lam > 1:
        lam = 1 / lam
    return TypeLabel("III_lambda", lam)


@dataclass(frozen=True)
class MackeyRange:
    """Translation action of the target group on skew-product components."""

    n_components: int
    component_of: dict      # (unit, h) -> component id
    action: tuple           # component permutation of the +1 translation
    orbit_sizes: tuple      # sorted cycle lengths of the action
    modulus: int            # m for Z/m targets


def mackey_range(G, tau, m):
    """Exact Mackey range of a Z/m valued cocycle (tau: one int per arrow)."""
    target = ZModAdd(m)
    taus = GroupoidCocycle.from_values(G, target, tau)
    n = G.n_units
    srcs, rngs = [], []
    for g in range(G.n_arrows):
        for h in range(m):
            srcs.append(G.src[g] * m + h)
            rngs.append(G.rng[g] * m + (h + taus(g)) % m)
    labels = component_labels(n * m, srcs, rngs)
    comp_of = {(x, h): labels[x * m + h] for x in range(n) for h in range(m)}
    n_comp = max(labels) + 1
    action = [None] * n_comp
    for x in range(n):
        for h in range(m):
            c1 = labels[x * m + h]
            c2 = labels[x * m + (h + 1) % m]
            if action[c1] is None:
                action[c1] = c2
            elif action[c1] != c2:
                raise VerificationFailure(
                    f"translation is not well defined at ({x},{h})")
    # m steps of the translation return every (x, h), so action is a
    # permutation and its cycles are the components of c -- action[c]
    orbits = Counter(component_labels(n_comp, range(n_comp), action))
    return MackeyRange(n_comp, comp_of, tuple(action),
                       tuple(sorted(orbits.values())), m)


def ranges_isomorphic(r1, r2):
    """Isomorphism of two Mackey ranges as cyclic-group actions: same
    modulus and the same multiset of translation orbit sizes."""
    return (r1.modulus == r2.modulus
            and r1.n_components == r2.n_components
            and r1.orbit_sizes == r2.orbit_sizes)


def _int_defect_period(G, tau_values):
    """gcd of the spanning-forest defects (forest_potential) of an integer
    cocycle, per arrow-connected component of G; 0 means the defect
    subgroup is trivial."""
    dec, _, defects = forest_potential(G, tau_values, ZAdd.op, ZAdd.inverse,
                                       ZAdd.identity)
    periods = [0] * dec.n_components
    for s, d in zip(G.src, defects):
        c = dec.component_of[s]
        periods[c] = gcd(periods[c], d)
    return periods, dec


def mackey_range_int(G, tau, *, cap=512):
    """Mackey data of a Z valued cocycle: per-component translation period
    (0 = the flow is a free Z translation). Computed on doubling windows
    [-B, B] until the component partition over the h = 0 slab stabilizes
    twice, then cross-checked against the defect subgroup.
    Raises InfiniteComponents when the cap is hit before stabilization."""
    tau_values = tau.values if isinstance(tau, GroupoidCocycle) else (
        tuple(tau[g] for g in range(G.n_arrows)))
    n = G.n_units
    last = None
    stable = 0
    B = 4
    result = None
    while B <= cap:
        offsets = range(-B, B + 1)
        idx = {(x, h): i for i, (x, h) in enumerate(
            (x, h) for x in range(n) for h in offsets)}
        srcs, rngs = [], []
        for g in range(G.n_arrows):
            for h in offsets:
                h2 = h + tau_values[g]
                if -B <= h2 <= B:
                    srcs.append(idx[(G.src[g], h)])
                    rngs.append(idx[(G.rng[g], h2)])
        labels = component_labels(len(idx), srcs, rngs)
        # canonical partition of the central slab |h| <= 2; raw component
        # labels renumber between windows, first-occurrence ids do not
        canon = {}
        signature = tuple(
            canon.setdefault(labels[idx[(x, j)]], len(canon))
            for x in range(n) for j in range(-2, 3))
        if signature == last:
            stable += 1
            if stable >= 2:
                result = labels, idx
                break
        else:
            stable = 0
            last = signature
        B *= 2
    if result is None:
        raise InfiniteComponents(f"no stabilization within window {cap}")
    labels, idx = result
    periods, dec = _int_defect_period(G, tau_values)
    # first return time seen in the window must be consistent with the
    # defect subgroup: zero subgroup allows no return at all, period d
    # allows first returns only at multiples of d
    for ci, comp in enumerate(dec.components):
        x = min(comp)
        observed = 0
        for j in range(1, 5):
            if labels[idx[(x, j)]] == labels[idx[(x, 0)]]:
                observed = j
                break
        expected = periods[ci]
        if observed and (not expected or observed % expected):
            raise VerificationFailure(
                f"windowed period {observed} at unit {x} disagrees with the "
                f"defect period {expected}")
    return periods


def power_exponents(values, base):
    """Write each positive rational as an integer power of base, or raise
    NotPowerValued. base must be a positive rational other than 1."""
    base = Fraction(base)
    if base <= 0 or base == 1:
        raise ValueError("base must be positive and not 1")
    # base = n/d in lowest terms, so base^k is n^k/d^k for k >= 0 and
    # d^-k/n^-k for k < 0, both in lowest terms. With n >= 2 the only
    # candidate k is the n-adic valuation of v (with d >= 2 instead, minus
    # the d-adic one), and one exact power confirms or refutes it.
    n, sign = ((base.numerator, 1) if base.numerator > 1
               else (base.denominator, -1))
    out = []
    for v in values:
        v = Fraction(v)
        if v <= 0:
            raise NotPowerValued(f"{v} is not positive")
        k = sign * (generalized_valuation(v.numerator, n)
                    - generalized_valuation(v.denominator, n))
        if base ** k != v:
            raise NotPowerValued(f"{v} is not a power of {base}")
        out.append(k)
    return out


def flow_type(G, base):
    """Type of a model whose Radon-Nikodym values are integer powers of
    base: the translation period n of the Mackey range of the exponent
    cocycle gives III_{base^n} (n > 0) or II (free translation).
    Returns one TypeLabel per arrow-connected component of G."""
    rn = radon_nikodym(G).values
    exps = power_exponents(rn, base)
    periods = mackey_range_int(G, exps)
    base = Fraction(base)
    labels = []
    for n in periods:
        if n == 0:
            labels.append(TypeLabel("II"))
        else:
            lam = base ** n
            if lam > 1:
                lam = 1 / lam
            labels.append(TypeLabel("III_lambda", lam))
    return labels


def one_loop_model(loop_values):
    """A single-unit window of mass 1 carrying one loop per given
    Radon-Nikodym value (with its inverse); the minimal nonsingular test
    pattern. The values must be positive (ValueError otherwise)."""
    from ..groupoid.core import FiniteMeasuredGroupoid

    arrows = []
    pairs = []
    rn = []
    for i, v in enumerate(loop_values):
        v = Fraction(v)
        if v <= 0:
            raise ValueError("Radon-Nikodym values must be positive")
        arrows.append((0, 0, f"u{i}"))
        arrows.append((0, 0, f"u{i}'"))
        pairs.append((2 * i, 2 * i + 1))
        rn.extend([v, 1 / v])
    return FiniteMeasuredGroupoid.window(
        [1], arrows, pairs, rn_values=rn)


def scaled_product_model(ratio, n):
    """An n-cycle window of masses 1/n whose single defect is ratio**n:
    arrows i -> i+1 each carry Radon-Nikodym value ratio. Its type is
    III_{ratio**n} (mapped below 1) and the exponent flow has translation
    period n.
    ratio must be positive and n at least 1 (ValueError otherwise), and n
    at most MAX_CYCLE (SizeCapExceeded)."""
    from ..groupoid.core import FiniteMeasuredGroupoid

    ratio = Fraction(ratio)
    if n < 1:
        raise ValueError(f"the cycle needs n >= 1 units, got {n}")
    if ratio <= 0:
        raise ValueError("Radon-Nikodym values must be positive")
    require_under_cap(n, MAX_CYCLE, "the cycle has", "units")
    arrows = []
    pairs = []
    rn = []
    for i in range(n):
        arrows.append((i, (i + 1) % n, f"s{i}"))
        arrows.append(((i + 1) % n, i, f"s{i}'"))
        pairs.append((2 * i, 2 * i + 1))
        rn.extend([ratio, 1 / ratio])
    return FiniteMeasuredGroupoid.window([Fraction(1, n)] * n, arrows, pairs,
                                         rn_values=rn)
