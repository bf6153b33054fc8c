"""Exact simulation of the coupling dynamics on [0,1) x (truncated ring).

The continuous picture is the group generated by a line translation, a
compact ring shift, and a scaling letter. A run can only hold a finite
shadow: the line coordinate is kept as an exact affine expression a + b*theta
(so irrational theta still compares decidably), the ring coordinate is a
TruncatedProfiniteInt with explicit level, and every scaling letter consumes
or produces one level on the ring side.

theta itself is exact: a rational or the golden ratio, so every sign test
is decidable (a golden one reduces to comparing u^2 against 5 w^2).

An affine value is three integers (p, q, d) meaning (p + q*theta)/d, in
lowest terms with d > 0. An exact theta is (u + w*sqrt(5))/v, w = 0 for a
rational, so one formula serves both: the sign and the floor come from
A = p*v + q*u and B = q*w through math.isqrt. Sums, scalings and the
products the Cesaro average needs stay on integers with one gcd per result;
a Fraction is built only where a caller reads a or b. The Cesaro step loop
goes one level lower still, and so does beta_cocycle: bare integers over
one common denominator, decided by _pair_sign and _pair_floor, the same two
helpers affine_sign and affine_floor call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ._kernels import component_labels
from .errors import (
    LevelBudgetExceeded,
    NotAnInteger,
    NotErgodic,
    ParamMismatch,
    VerificationFailure,
    require_under_cap,
)
from .profinite import TruncatedProfiniteInt
from .words import GroupWord, commutator, is_identity, same_element

# the most orbit points rotation_model_orbit may sort on the golden path
MAX_STEPS = 2 ** 20
# the largest circumference of the golden path, whose cost grows with the
# digits of N at every step
MAX_CIRCUMFERENCE = 2 ** 64
# the most units component_counts may label, n (kmax + 1)(lmax + 1)
MAX_TABLE_UNITS = 2 ** 20


# -- theta ------------------------------------------------------------------

class ThetaValue:
    """A nonzero translation length: a rational or the golden ratio, held
    as (u + w*sqrt(5))/v with v > 0 in u, w, v."""

    __slots__ = ("kind", "frac", "u", "w", "v")

    def __init__(self, kind, frac=None):
        self.kind = kind
        self.frac = frac
        self.u, self.w, self.v = ((1, 1, 2) if kind == "golden" else
                                  (frac.numerator, 0, frac.denominator))

    @classmethod
    def from_rational(cls, value):
        value = Fraction(value)
        if value == 0:
            raise ValueError("theta must be nonzero")
        return cls("rational", frac=value)

    @classmethod
    def golden(cls):
        return cls("golden")

    def __float__(self):
        if self.kind == "rational":
            return float(self.frac)
        return (1 + math.sqrt(5)) / 2

    def __repr__(self):
        if self.kind == "rational":
            return f"ThetaValue({self.frac})"
        return "ThetaValue(golden)"


def _fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


class ThetaAffine:
    """The exact value a + b*theta for whichever theta is in play.

    Stored as three integers: the value is (p + q*theta)/d with d > 0 and
    gcd(p, q, d) == 1, so equal values have equal fields and sign, floor
    and the arithmetic below work on integers. a = p/d and b = q/d are
    read-only Fraction views. Values are immutable by convention: every
    operation returns a new one.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, a, b):
        a, b = Fraction(a), Fraction(b)
        # over the lcm of the reduced denominators the three integers are
        # already coprime: a prime dividing d divides one of the two
        # denominators to the full power, and so not that numerator
        d = math.lcm(a.denominator, b.denominator)
        self.p = a.numerator * (d // a.denominator)
        self.q = b.numerator * (d // b.denominator)
        self.d = d

    @property
    def a(self):
        return Fraction(self.p, self.d)

    @property
    def b(self):
        return Fraction(self.q, self.d)

    def __add__(self, other):
        o = as_affine(other)
        if self.d == o.d:
            return _affine(self.p + o.p, self.q + o.q, self.d)
        return _affine(self.p * o.d + o.p * self.d,
                       self.q * o.d + o.q * self.d, self.d * o.d)

    def __sub__(self, other):
        if type(other) is int:
            # (p - k d, q, d) keeps gcd(p, q, d) == 1
            return _raw(self.p - other * self.d, self.q, self.d)
        o = as_affine(other)
        if self.d == o.d:
            return _affine(self.p - o.p, self.q - o.q, self.d)
        return _affine(self.p * o.d - o.p * self.d,
                       self.q * o.d - o.q * self.d, self.d * o.d)

    def scale(self, c):
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return _affine(self.p * c.numerator, self.q * c.numerator,
                       self.d * c.denominator)

    def __eq__(self, other):
        if type(other) is not ThetaAffine:
            return NotImplemented
        return self.p == other.p and self.q == other.q and self.d == other.d

    def __hash__(self):
        return hash((self.p, self.q, self.d))

    def __repr__(self):
        return f"({self.a} + {self.b}*theta)"


def _raw(p, q, d):
    """(p + q*theta)/d from integers already in lowest terms, d > 0."""
    value = object.__new__(ThetaAffine)
    value.p = p
    value.q = q
    value.d = d
    return value


def _affine(p, q, d):
    """(p + q*theta)/d reduced to lowest terms; d > 0."""
    g = gcd(p, q, d)
    if g != 1:
        return _raw(p // g, q // g, d // g)
    return _raw(p, q, d)


_ZERO = _raw(0, 0, 1)


def as_affine(x):
    if type(x) is ThetaAffine:
        return x
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return _raw(x.numerator, 0, x.denominator)


def _pair_sign(theta, p, q):
    """Exact sign of p + q*theta: -1, 0, +1.
    (p + q*theta)/d has the same sign for any d > 0, and v*(p + q*theta) =
    A + B*sqrt(5) for A = p*v + q*u, B = q*w, the sign of A|A| + 5B|B|:
    A and B agree, or A^2 != 5B^2 decides (5 is not a square)."""
    A = p * theta.v + q * theta.u
    B = q * theta.w
    t = A * abs(A) + 5 * B * abs(B)
    return (t > 0) - (t < 0)


def _pair_floor(theta, p, q, d):
    """Largest integer n with n <= (p + q*theta)/d, d > 0:
    (A + floor(B*sqrt(5))) // (d*v), A and B as in _pair_sign.
    floor(B*sqrt(5)) is isqrt(5 B^2), or -isqrt(5 B^2) - 1 for B < 0
    (5 B^2 is a square only at B = 0)."""
    A = p * theta.v + q * theta.u
    B = q * theta.w
    root = math.isqrt(5 * B * B)
    return (A + (root if B >= 0 else -root - 1)) // (d * theta.v)


def affine_sign(theta, value):
    """Exact sign of a + b*theta: -1, 0, or +1."""
    value = as_affine(value)
    return _pair_sign(theta, value.p, value.q)


def affine_floor(theta, value):
    """Largest integer n with n <= a + b*theta, decided exactly."""
    value = as_affine(value)
    return _pair_floor(theta, value.p, value.q, value.d)


def theta_is_positive(theta):
    return theta.kind == "golden" or theta.frac > 0


def _inverse_pair(theta):
    """(ip, iq, idd) with 1/theta = (ip + iq*theta)/idd and idd > 0."""
    if theta.kind == "rational":
        u, v = theta.frac.numerator, theta.frac.denominator
        return (v, 0, u) if u > 0 else (-v, 0, -u)
    # 1/phi = phi - 1
    return -1, 1, 1


def div_by_theta(theta, value):
    """(a + b*theta) / theta as an exact affine value."""
    value = as_affine(value)
    # (p + q theta)/theta = ((p ip + q idd) + p iq theta)/idd
    ip, iq, idd = _inverse_pair(theta)
    return _affine(value.p * ip + value.q * idd, value.p * iq,
                   value.d * idd)


# -- the return-time cocycle -------------------------------------------------

def _abs_theta(theta):
    if theta.kind == "rational":
        return _raw(abs(theta.frac.numerator), 0, theta.frac.denominator)
    return _raw(0, 1, 1)


def _window(theta, p, q, d):
    """-1, 0 or 1 as (p + q*theta)/d lies below [0, |theta|), inside it, or
    at |theta| or above."""
    if _pair_sign(theta, p, q) < 0:
        return -1
    # |theta| - (p + q*theta)/d = (-p + (s d - q)*theta)/d, |theta| = s*theta
    s = 1 if theta_is_positive(theta) else -1
    return 1 if _pair_sign(theta, -p, s * d - q) <= 0 else 0


def _return_time(theta, p, q, d):
    """The m with y + theta*m in [0, |theta|) for y = (p + q*theta)/d,
    -s*floor(s*y/theta) for s the sign of theta; VerificationFailure unless
    the landing point is in the window."""
    # y/theta = ((p ip + q idd) + p iq*theta)/(d idd)
    ip, iq, idd = _inverse_pair(theta)
    s = 1 if theta_is_positive(theta) else -1
    m = -s * _pair_floor(theta, s * (p * ip + q * idd), s * p * iq, d * idd)
    if _window(theta, p, q + m * d, d):
        raise VerificationFailure(f"return time {m} left the fundamental window")
    return m


def beta_cocycle(n, x, theta):
    """The unique integer m with x - n + theta*m in [0, |theta|).

    n must be an int or an integral Fraction (NotAnInteger), x must lie in
    [0, |theta|) (ValueError). Decided exactly on the integers of x - n,
    and the landing point is checked to lie in the window.
    """
    if not isinstance(n, int) and not (isinstance(n, Fraction)
                                       and n.denominator == 1):
        raise NotAnInteger(f"beta_cocycle needs an integer n, got {n!r}")
    if type(x) is ThetaAffine:
        p, q, d = x.p, x.q, x.d
    else:
        value = x if isinstance(x, (int, Fraction)) else Fraction(x)
        p, q, d = value.numerator, 0, value.denominator
    where = _window(theta, p, q, d)
    if where:
        raise ValueError(f"{x} is negative" if where < 0 else
                         f"{x} is not below {_abs_theta(theta)}")
    return _return_time(theta, p - int(n) * d, q, d)


def _theta_times(theta, m):
    if theta.kind == "rational":
        return _affine(theta.frac.numerator * m, 0, theta.frac.denominator)
    return _raw(0, m, 1)


# -- the scaling homomorphism on the line coordinate -------------------------

@dataclass(frozen=True)
class LTheta:
    """l(w) = coefficient * theta; breakdown maps scaling height to the
    signed count of translation letters applied at that height."""

    coefficient: Fraction
    breakdown: tuple
    in_hom_domain: bool


def l_theta(word, params):
    """Line coordinate of the embedded word, as a multiple of theta.

    The translation letter contributes theta scaled by (q/p)^height, where
    height is the running scaling-letter exponent sum to its left; the value
    is theta-linear, so one rational coefficient captures every theta at
    once and l_theta = theta * l_1 holds identically. On the kernel of the
    modular homomorphism the coefficient is additive.
    """
    height = 0
    acc = {}
    for letter, exp in word.runs:
        if letter == "t":
            height += exp
        else:
            acc[height] = acc.get(height, 0) + exp
    ratio = Fraction(params.q, params.p)
    coefficient = sum((c * ratio ** h for h, c in acc.items()), Fraction(0))
    breakdown = tuple(sorted((h, c) for h, c in acc.items() if c))
    # the modular value |q/p|^(t-sum) is 1, decided without the power
    return LTheta(coefficient, breakdown,
                  word.t_exponent_sum() == 0 or abs(ratio) == 1)


def n_element_words(params, count=10):
    """Distinct nontrivial words with trivial modular value and zero line
    coordinate: commutator-built elements of the kernel of both maps. A
    count below 1 raises ValueError before the search."""
    if count < 1:
        raise ValueError(f"the word count must be at least 1, got {count}")
    a = GroupWord.a()
    t = GroupWord.t()

    def conj(g, w):
        return g * w * g.inverse()

    c1 = commutator(a, conj(t, a))
    c2 = commutator(a, conj(t ** 2, a))
    c3 = commutator(a ** 2, conj(t, a))
    pool = [c1, c2, c3,
            commutator(a, conj(t, a ** 2)),
            commutator(a ** 3, conj(t, a)),
            c1 * c1, c1 * c2, c2 * c1, c1 * c3,
            conj(a, c1), conj(a ** 2, c1), conj(t, c1),
            conj(t.inverse(), c1), c1.inverse(), c1 * c1 * c1]
    out = []
    for w in pool:
        lt = l_theta(w, params)
        if not lt.in_hom_domain or lt.coefficient != 0:
            continue
        if is_identity(w, params):
            continue
        if any(same_element(w, seen, params) for seen in out):
            continue
        out.append(w)
        if len(out) == count:
            return out
    raise ValueError(f"only found {len(out)} kernel elements, wanted {count}")


# -- the coupling action ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CouplingPoint:
    """Line coordinate in [0, 1) plus a truncated ring coordinate."""

    x: object               # Fraction or ThetaAffine
    kappa: TruncatedProfiniteInt

    def _key(self):
        xa = as_affine(self.x)
        return (xa.a, xa.b, self.kappa)

    def __eq__(self, other):
        if not isinstance(other, CouplingPoint):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def coupling_point(params, x, kappa_residue, level):
    return CouplingPoint(x, TruncatedProfiniteInt(params, kappa_residue, level))


def _wrap_x(theta, x):
    j = affine_floor(theta, x)
    return x - j, j


def coupling_action(word, pt, theta, params=None):
    """Image of pt under the embedded word, reduced to [0,1) x ring.

    The rightmost letter acts first. The translation letter adds theta to x
    and 1 to kappa, then both are shifted back by the integer part of x.
    The scaling letter divides kappa by p with remainder r (consuming one
    p0-level, gaining one q0-level), sends x to (q/p)(x - r), multiplies
    the quotient by q, and wraps; its inverse mirrors with p and q swapped.
    """
    params = params or pt.kappa.params
    if pt.kappa.params != params:
        raise ParamMismatch(f"{pt.kappa.params} vs {params}")
    x = as_affine(pt.x)
    if affine_sign(theta, x) < 0 or \
            affine_sign(theta, as_affine(1) - x) <= 0:
        raise ValueError("point is outside the fundamental domain")
    kappa = pt.kappa
    ap, aq = abs(params.p), abs(params.q)
    up, down = Fraction(params.q, params.p), Fraction(params.p, params.q)
    for letter, exp in reversed(word.runs):
        if letter == "a":
            x = x + _theta_times(theta, exp)
            x, j = _wrap_x(theta, x)
            kappa = kappa + (exp - j)
            continue
        step = 1 if exp > 0 else -1
        for _ in range(abs(exp)):
            K, L = kappa.level
            if step == 1:
                if K < 1:
                    raise LevelBudgetExceeded(
                        f"scaling letter needs a p0-level, at {kappa.to_text()}")
                r = kappa.residue % ap
                quo = (kappa.residue - r) // params.p
                x = (x - r).scale(up)
                x, j = _wrap_x(theta, x)
                kappa = TruncatedProfiniteInt(
                    params, params.q * quo - j, (K - 1, L + 1))
            else:
                if L < 1:
                    raise LevelBudgetExceeded(
                        f"inverse scaling needs a q0-level, at {kappa.to_text()}")
                r = kappa.residue % aq
                quo = (kappa.residue - r) // params.q
                x = (x - r).scale(down)
                x, j = _wrap_x(theta, x)
                kappa = TruncatedProfiniteInt(
                    params, params.p * quo - j, (K + 1, L - 1))
    if theta.kind == "rational":
        x = x.a + x.b * theta.frac
    return CouplingPoint(x, kappa)


# -- rotation model -----------------------------------------------------------

@dataclass(frozen=True)
class OrbitReport:
    kind: str               # "rational" or "irrational"
    period: int | None
    degenerate: bool
    grid_points: int | None
    discrepancy: Fraction | None
    steps: int


def rotation_model_orbit(theta, N, steps=0):
    """Orbit of the rotation by theta - 1 on a circle of circumference N.

    Rational theta = u/v lives on the grid (1/v)Z / NZ: the exact minimal
    period is returned, flagged degenerate when the rotation is trivial on
    the circle. The golden ratio returns the exact star discrepancy of the
    first `steps` points, computed on a Fibonacci convergent grid fine
    enough that the convergent and the true orbit cannot differ at the
    reported scale. More than MAX_STEPS steps, or a circumference over
    MAX_CIRCUMFERENCE, raise SizeCapExceeded there; the rational path is
    O(1) in N.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if theta.kind == "rational":
        u, v = theta.frac.numerator, theta.frac.denominator
        s = u - v
        grid = N * v
        period = 1 if s == 0 else grid // gcd(abs(s), grid)
        return OrbitReport("rational", period, s % grid == 0, grid, None, 0)
    if steps < 1:
        raise ValueError("steps must be positive for the irrational path")
    require_under_cap(steps, MAX_STEPS, "the orbit has", "steps")
    require_under_cap(N, MAX_CIRCUMFERENCE, "the golden orbit's circle is",
                      "long")
    m = 2
    while _fib(m + 1) < steps * steps:
        m += 1
    F, F1 = _fib(m), _fib(m + 1)
    denom = F1 * N
    positions = sorted((i * F) % denom for i in range(steps))
    # star discrepancy of s_i/denom: max_i max(i/n - s_i, s_i - (i-1)/n)
    best = 0
    n = steps
    for i, s in enumerate(positions, start=1):
        best = max(best, i * denom - s * n, s * n - (i - 1) * denom)
    return OrbitReport("irrational", None, False, None,
                       Fraction(best, n * denom), steps)


# -- Cesaro mixing diagnostics ------------------------------------------------

@dataclass(frozen=True)
class CylinderSet:
    """A cylinder on the two-sided Bernoulli(1/2) shift: coordinate -> bit."""

    fixed: tuple

    @staticmethod
    def of(mapping):
        items = tuple(sorted((int(c), int(b)) for c, b in mapping.items()))
        if any(b not in (0, 1) for _, b in items):
            raise ValueError("bits must be 0 or 1")
        if len({c for c, _ in items}) != len(items):
            raise ValueError("repeated coordinate")
        return CylinderSet(items)

    def shifted(self, m):
        return CylinderSet(tuple((c + m, b) for c, b in self.fixed))


class BernoulliBase:
    """Finite shadow of the Bernoulli(1/2) full shift: coordinates are
    confined to [-window, window], measures are exact dyadic rationals."""

    def __init__(self, window=2 ** 15):
        self.window = window

    def _check(self, cyl):
        for c, _ in cyl.fixed:
            if abs(c) > self.window:
                raise ValueError(f"coordinate {c} leaves the window")

    def measure(self, cyl):
        self._check(cyl)
        return Fraction(1, 2 ** len(cyl.fixed))

    def meet_measure(self, c1, c2):
        self._check(c1)
        self._check(c2)
        merged = dict(c1.fixed)
        for c, b in c2.fixed:
            if merged.setdefault(c, b) != b:
                return Fraction(0)
        return Fraction(1, 2 ** len(merged))


def _interval_list(theta, intervals, name):
    """The intervals [lo, hi) of one list as ThetaAffine pairs. Each must be
    nonempty and lie inside [0, |theta|], and no two may overlap; all three
    are decided exactly, and a violation raises ValueError."""
    width = _abs_theta(theta)
    out = []
    for lo, hi in intervals:
        shown = f"[{lo}, {hi})"
        lo, hi = as_affine(lo), as_affine(hi)
        if affine_sign(theta, hi - lo) <= 0:
            raise ValueError(f"the interval {shown} of {name} is empty")
        if affine_sign(theta, lo) < 0 or affine_sign(theta, width - hi) < 0:
            shown_theta = theta.frac if theta.kind == "rational" else "golden"
            raise ValueError(
                f"the interval {shown} of {name} is not inside [0, |theta|] "
                f"for theta = {shown_theta}")
        for lo2, hi2, shown2 in out:
            if affine_sign(theta, hi2 - lo) > 0 and \
                    affine_sign(theta, hi - lo2) > 0:
                raise ValueError(
                    f"the intervals {shown2} and {shown} of {name} overlap")
        out.append((lo, hi, shown))
    return [(lo, hi) for lo, hi, _ in out]


@dataclass
class CesaroReport:
    horizon: int
    average: float
    target: float
    gap: float
    gap_exact: str
    gap_affine: ThetaAffine
    independent_from: int | None
    samples: list
    burn_in_bound: float


def _affine_product(t1, t2):
    # (a1 + b1 phi)(a2 + b2 phi) with phi^2 = phi + 1; exact for rational
    # theta too, where the b parts are zero
    p1, q1, p2, q2 = t1.p, t1.q, t2.p, t2.q
    return _affine(p1 * p2 + q1 * q2, p1 * q2 + q1 * p2 + q1 * q2,
                   t1.d * t2.d)


def cesaro_mixing_test(base, theta, A1, B1, A2, B2, horizon, *,
                       sample_every=None):
    """Cesaro averages of nu(b^k(A1 x B1) cap (A2 x B2)) against the product
    value, for the skew step b(x, y) = (x - 1 + theta*m, shift^m y) on
    [0, theta) x base, m the return time of x.

    A1, A2 are lists of intervals [lo, hi) (affine endpoints allowed); B1,
    B2 are cylinders. Every interval must be nonempty and lie inside the
    circle [0, |theta|], and the intervals of one list must not overlap;
    anything else raises ValueError, after the horizon and theta checks.
    Every term is exact; the report carries floats for reading plus the
    exact final gap (average - target), as text in gap_exact and as a value
    in gap_affine. independent_from records the first step from which the
    base factor equals the product exactly, and the burn-in contribution of
    the steps before it is bounded in the report.
    The horizon must be a positive integer (ValueError otherwise).

    Cost: every endpoint is an integer pair (P, Q) meaning (P + Q*theta)/D
    over one common denominator D, so a step is O(1) integer operations
    per pair of intervals. The steps' lengths are summed as pairs, one sum
    per base factor, and divided by theta only where a sample is taken.
    """
    if horizon < 1:
        raise ValueError(f"the horizon must be at least 1, got {horizon}")
    if not theta_is_positive(theta):
        raise ValueError("the mixing diagnostic expects a positive theta")
    A1 = _interval_list(theta, A1, "A1")
    A2 = _interval_list(theta, A2, "A2")
    D = math.lcm(*(v.d for lo, hi in A1 + A2 for v in (lo, hi)))

    def pairs(intervals):
        return [(lo.p * (D // lo.d), lo.q * (D // lo.d),
                 hi.p * (D // hi.d), hi.q * (D // hi.d))
                for lo, hi in intervals]

    def length(intervals):
        return _affine(sum(hp - lp for lp, _, hp, _ in intervals),
                       sum(hq - lq for _, lq, _, hq in intervals), D)

    A1, A2 = pairs(A1), pairs(A2)
    muB1, muB2 = base.measure(B1), base.measure(B2)
    t1 = div_by_theta(theta, length(A1))
    t2 = div_by_theta(theta, length(A2))
    product = muB1 * muB2
    target_affine = _affine_product(t1, t2).scale(product)
    samples = []
    independent_from = None
    sample_every = sample_every or max(1, horizon // 50)
    # the k-th base factor is mu(shift^m B1 cap B2) with the cylinder
    # pulled back to coordinates c - m; past this distance no coordinates
    # can collide and the factor is exactly mu(B1) mu(B2)
    span1 = [c for c, _ in B1.fixed]
    span2 = [c for c, _ in B2.fixed]
    indep_dist = max(0, max(span1) - min(span2) + 1) if span1 and span2 else 0
    # 1/theta = (ip + iq*theta)/idd, so x/theta for x = (P + Q*theta)/D is
    # ((P ip + Q idd) + P iq*theta)/(D idd)
    ip, iq, idd = _inverse_pair(theta)
    sign, floor = _pair_sign, _pair_floor
    # each return time m seen -> (the length sum of its base factor, whether
    # that factor is the product); a sum [P, Q] means (P + Q*theta)/D
    factor_of = {}
    sums = {}
    for k in range(1, horizon + 1):
        m0 = floor(theta, k * ip, k * iq, idd)
        kD = k * D
        # on the circle the return time is m0 before cut, m0 + 1 from it
        cut_p, cut_q = -kD, (m0 + 1) * D
        below_p = below_q = above_p = above_q = 0
        below = above = False
        for lp, lq, hp, hq in A1:
            # [lo - k, hi - k) moved into [0, theta) by whole turns
            lp -= kD
            hp -= kD
            turns = floor(theta, lp * ip + lq * idd, lp * iq, D * idd) * D
            lq -= turns
            hq -= turns
            if sign(theta, -hp, D - hq) >= 0:
                shifted = ((lp, lq, hp, hq),)
            else:
                shifted = ((lp, lq, 0, D), (0, 0, hp, hq - D))
            for sp, sq, tp, tq in shifted:
                for ap, aq, bp, bq in A2:
                    # the cell [lo, hi) of the piece and the A2 interval
                    if sign(theta, sp - ap, sq - aq) >= 0:
                        lo_p, lo_q = sp, sq
                    else:
                        lo_p, lo_q = ap, aq
                    if sign(theta, tp - bp, tq - bq) <= 0:
                        hi_p, hi_q = tp, tq
                    else:
                        hi_p, hi_q = bp, bq
                    if sign(theta, hi_p - lo_p, hi_q - lo_q) <= 0:
                        continue
                    if sign(theta, hi_p - cut_p, hi_q - cut_q) <= 0:
                        below = True
                        below_p += hi_p - lo_p
                        below_q += hi_q - lo_q
                    else:
                        above = True
                        above_p += hi_p - lo_p
                        above_q += hi_q - lo_q
        all_factors_product = True
        for used, m, add_p, add_q in ((below, m0, below_p, below_q),
                                      (above, m0 + 1, above_p, above_q)):
            if not used:
                continue
            known = factor_of.get(m)
            if known is None:
                factor = base.meet_measure(B1.shifted(-m), B2)
                known = factor_of[m] = (sums.setdefault(factor, [0, 0]),
                                        factor == product)
            acc, same = known
            acc[0] += add_p
            acc[1] += add_q
            if not same:
                all_factors_product = False
        if independent_from is None and all_factors_product \
                and m0 >= indep_dist:
            independent_from = k
        if k % sample_every == 0 or k == horizon:
            total = _ZERO
            for factor, (p, q) in sums.items():
                total = total + div_by_theta(
                    theta, _affine(p, q, D)).scale(factor)
            avg = total.scale(Fraction(1, k))
            gap = avg - target_affine
            samples.append((k, _to_float(theta, avg), _to_float(theta, gap)))
    # the last step is always a sample, so avg and gap are the final ones
    gap_float = abs(_to_float(theta, gap))
    burn = independent_from or horizon
    # each term and the target both lie in [0, 1], so the steps before
    # independence contribute at most this much to the final average
    burn_in_bound = (burn / horizon) * (1.0 + float(product))
    return CesaroReport(horizon, _to_float(theta, avg),
                        _to_float(theta, target_affine), gap_float,
                        repr(gap), gap, independent_from, samples,
                        burn_in_bound)


def _to_float(theta, value):
    value = as_affine(value)
    return float(value.a) + float(value.b) * float(theta)


# -- component counting and periodicity --------------------------------------

def component_counts(c, n, r, s, kmax, lmax):
    """|W_{k,l}| = orbit count of the subgroup step r^k s^l c on Z/n,
    0 <= k <= kmax, 0 <= l <= lmax: the components of x -- x + step
    (component_labels), cross-checked against the gcd closed form; the two
    ladder divisibility laws are asserted over the table. A negative bound
    raises ValueError, a table of over MAX_TABLE_UNITS units SizeCapExceeded
    and a step c that is not a unit mod n NotErgodic (a ValueError), before
    any orbit is counted."""
    if n < 1 or r < 1 or s < 1:
        raise ValueError("moduli and scaling steps must be positive")
    if kmax < 0 or lmax < 0:
        raise ValueError(
            f"need kmax >= 0 and lmax >= 0, got ({kmax},{lmax})")
    require_under_cap(n * (kmax + 1) * (lmax + 1), MAX_TABLE_UNITS,
                      "the table has", "units")
    if gcd(c, n) != 1:
        raise NotErgodic(
            f"the step must be a unit mod {n}, got {c} (gcd {gcd(c, n)})")
    table = {}
    units = range(n)
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            # r^k reduced as it is raised; gcd(step, n) = gcd(r^k s^l c, n)
            step = pow(r, k, n) * pow(s, l, n) * c % n
            labels = component_labels(n, units,
                                      [(x + step) % n for x in units])
            orbits = max(labels) + 1
            if orbits != gcd(step, n):
                raise VerificationFailure(
                    f"orbit count at ({k},{l}) disagrees with the gcd form")
            table[(k, l)] = orbits
    for k in range(kmax):
        for l in range(lmax + 1):
            hi, lo = table[(k + 1, l)], table[(k, l)]
            if hi % lo or r % (hi // lo):
                raise VerificationFailure(
                    f"|W_{k+1},{l}| / |W_{k},{l}| = {hi}/{lo} violates the ladder")
    for k in range(kmax + 1):
        for l in range(lmax):
            hi, lo = table[(k, l + 1)], table[(k, l)]
            if hi % lo or s % (hi // lo):
                raise VerificationFailure(
                    f"|W_{k},{l+1}| / |W_{k},{l}| = {hi}/{lo} violates the ladder")
    return table


@dataclass(frozen=True)
class ZCycleModel:
    """The +step action on Z/size: every orbit has the same length."""

    size: int
    step: int = 1

    def orbits(self):
        g = gcd(self.step, self.size) or self.size
        length = self.size // g
        reps = range(g)
        return [(x0, length) for x0 in reps]


def periodicity_check(model, d, m, n, kmax, lmax):
    """Whether an equivariant map onto the +1 cycle Z/(d m^k n^l) exists for
    every k <= kmax, l <= lmax. The map is built by orbit labeling and
    verified; a wrap mismatch refutes it (and nothing else can)."""
    for k in range(kmax + 1):
        for l in range(lmax + 1):
            modulus = d * m ** k * n ** l
            for x0, length in model.orbits():
                if length % modulus:
                    return False
                # build the labeling on one orbit and verify the wrap
                x, label = x0, 0
                for _ in range(length):
                    x = (x + model.step) % model.size
                    label = (label + 1) % modulus
                if x != x0 or label != 0:
                    raise VerificationFailure(
                        f"orbit walk from {x0} failed to close modulo {modulus}")
    return True


def periodic_model(params, kmax, lmax):
    """The odometer truncation certified to carry every equivariant quotient
    up to (kmax, lmax) for these parameters; a negative level raises
    InvalidLevel."""
    return ZCycleModel(params.level_modulus(kmax, lmax), 1)
