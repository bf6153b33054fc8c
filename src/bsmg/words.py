"""Words and normal forms in BS(p, q) = <a, t | t a^p t^-1 = a^q>.

Words are run-length sequences over the letters a and t. The normal form used
everywhere is the push-right transversal form

    a^{k0} t^{e1} a^{k1} ... t^{en} a^{kn}

where every exponent immediately followed by t lies in [0, |q|) and every
exponent immediately followed by t^-1 lies in [0, |p|); the trailing exponent
is unrestricted. Such a word is pinch-free, the form is unique per group
element, and right multiplication by a-powers only changes the trailing
exponent. Element equality is equality of normal forms; the empty form is the
identity (Britton's lemma).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import (BoundExceeded, InvalidLevel, NotAnInteger,
                     VerificationFailure, require_under_cap)

_TOKEN = re.compile(r"([aAtT])(?:\^(-?\d+))?")

# the most t letters fold takes in one call: each is one step of its loop
MAX_T_LETTERS = 2 ** 20
# the most digits of a modular value's numerator or denominator: str
# refuses ints of more (Python's default int_max_str_digits)
MAX_VALUE_DIGITS = 4300
_VALUE_CAP = 10 ** MAX_VALUE_DIGITS

# One tuple per small pair, built once: the runs ("a", e) and ("t", e) for
# 0 < |e| <= 64 and the syllables (+-1, k) for 0 <= k <= 64. A word or form
# holds a pointer to the table's tuple instead of a fresh 56-byte tuple per
# run; larger pairs stay fresh, so the table never grows.
_SHARED_BOUND = 64
_SHARED = {pair: pair for pair in
           [(letter, e) for letter in "at"
            for e in range(-_SHARED_BOUND, _SHARED_BOUND + 1) if e]
           + [(e, k) for e in (1, -1) for k in range(_SHARED_BOUND + 1)]}


def _pairs(firsts, seconds) -> tuple:
    """The pairs zip(firsts, seconds) as a tuple, each pair of the table
    stored as the table's tuple; the lookup runs in C, one per pair."""
    return tuple(map(_SHARED.get, zip(firsts, seconds), zip(firsts, seconds)))


@dataclass(frozen=True)
class BSParams:
    """Parameters (p, q) with 2 <= |p| <= |q|.

    |p| = 1 or |q| = 1 gives an amenable group that this toolkit reports on
    (see is_amenable) but does not model.
    """

    p: int
    q: int
    # d0 = gcd(|p|, |q|), p0 = p / d0 and q0 = q / d0, set once here; they
    # take no part in equality, hashing or repr
    d0: int = field(init=False, repr=False, compare=False)
    p0: int = field(init=False, repr=False, compare=False)
    q0: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.p == 0 or self.q == 0:
            zero = "p" if self.p == 0 else "q"
            raise ValueError(
                f"BS({self.p},{self.q}) has {zero} = 0; supported parameters "
                "have 2 <= |p| <= |q|"
            )
        if abs(self.p) < 2 or abs(self.q) < 2:
            raise ValueError(
                f"BS({self.p},{self.q}) is amenable (|p| = 1 or |q| = 1); "
                "supported parameters have 2 <= |p| <= |q|"
            )
        if abs(self.p) > abs(self.q):
            raise ValueError(
                f"need |p| <= |q|; BS({self.p},{self.q}) is isomorphic to "
                f"BS({self.q},{self.p}) via t -> t^-1"
            )
        d0 = gcd(abs(self.p), abs(self.q))
        object.__setattr__(self, "d0", d0)
        object.__setattr__(self, "p0", self.p // d0)
        object.__setattr__(self, "q0", self.q // d0)

    def __str__(self):
        return f"BS({self.p},{self.q})"

    def level_modulus(self, k, l):
        """d0 |p0|^k |q0|^l, the modulus of every model at level (k, l); a
        negative k or l raises InvalidLevel."""
        if k < 0 or l < 0:
            raise InvalidLevel("levels must be nonnegative")
        return self.d0 * abs(self.p0) ** k * abs(self.q0) ** l


def generalized_valuation(m, b):
    """Largest e >= 0 with b^e dividing m. Needs |b| >= 2 and m != 0.
    The package's one valuation loop; profinite re-exports it."""
    if m == 0:
        raise ValueError("valuation of zero")
    b = abs(b)
    if b < 2:
        raise ValueError("valuation base must have absolute value >= 2")
    e = 0
    m = abs(m)
    while m % b == 0:
        m //= b
        e += 1
    return e


class GroupWord:
    """A word over {a, t}, stored run-length and freely reduced as written.

    runs is a tuple of (letter, exponent) pairs, each exponent an int (any
    other type raises NotAnInteger); a run with |exponent| <= 64
    is the shared tuple of the module's pair table, so a long word costs one
    pointer per run. Equality and hashing are syntactic (same written
    word). Group equality is same_element / is_identity, which go through
    the normal form.
    """

    __slots__ = ("runs",)

    def __init__(self, runs=()):
        letters, exps = [], []
        for letter, exp in runs:
            if letter not in ("a", "t"):
                raise ValueError(f"unknown letter {letter!r}")
            if type(exp) is not int:
                raise NotAnInteger(
                    f"the exponent of {letter} must be an int, got {exp!r}")
            if exp == 0:
                continue
            if letters and letters[-1] == letter:
                letters.pop()
                exp += exps.pop()
                if exp == 0:
                    continue
            letters.append(letter)
            exps.append(exp)
        self.runs = _pairs(letters, exps)

    @classmethod
    def _reduced(cls, runs: tuple) -> "GroupWord":
        """A word from runs that are already freely reduced: nonzero
        exponents, no two neighbours with one letter. Nothing is checked;
        input from outside goes through the constructor."""
        word = object.__new__(cls)
        word.runs = runs
        return word

    @staticmethod
    def identity() -> "GroupWord":
        return GroupWord()

    @staticmethod
    def a(exp: int = 1) -> "GroupWord":
        return GroupWord((("a", exp),))

    @staticmethod
    def t(exp: int = 1) -> "GroupWord":
        return GroupWord((("t", exp),))

    @staticmethod
    def parse(text: str) -> "GroupWord":
        """Parse `a A t T` tokens with optional ^exponent; `e` is the identity."""
        stripped = text.strip()
        if stripped in ("", "e"):
            return GroupWord()
        pos = 0
        runs = []
        for match in _TOKEN.finditer(stripped):
            gap = stripped[pos : match.start()]
            if gap.strip():
                raise ValueError(f"unparsable word fragment {gap!r}")
            letter, exp_text = match.group(1), match.group(2)
            exp = 1 if exp_text is None else int(exp_text)
            if letter in ("A", "T"):
                exp = -exp
            runs.append((letter.lower(), exp))
            pos = match.end()
        if stripped[pos:].strip():
            raise ValueError(f"unparsable word fragment {stripped[pos:]!r}")
        return GroupWord(runs)

    def to_text(self) -> str:
        if not self.runs:
            return "e"
        parts = []
        for letter, exp in self.runs:
            shown = letter if exp > 0 else letter.upper()
            mag = abs(exp)
            parts.append(shown if mag == 1 else f"{shown}^{mag}")
        return " ".join(parts)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        return GroupWord(self.runs + other.runs)

    def inverse(self) -> "GroupWord":
        return GroupWord(tuple((letter, -exp) for letter, exp in reversed(self.runs)))

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        result = GroupWord()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        return isinstance(other, GroupWord) and self.runs == other.runs

    def __hash__(self):
        return hash(self.runs)

    def __len__(self):
        return sum(abs(exp) for _, exp in self.runs)

    def __repr__(self):
        return f"GroupWord({self.to_text()!r})"

    def t_exponent_sum(self) -> int:
        return sum(exp for letter, exp in self.runs if letter == "t")


def commutator(x: GroupWord, y: GroupWord) -> GroupWord:
    return x * y * x.inverse() * y.inverse()


@dataclass(frozen=True)
class BrittonNormalForm:
    """Normal form a^{k0} t^{e1} a^{k1} ... t^{en} a^{kn}.

    syllables is the tuple ((e1, k1), ..., (en, kn)) with each e = +1 or -1.
    fold stores a syllable with k <= 64 as the shared tuple of the module's
    pair table, as GroupWord does its runs.
    """

    k0: int
    syllables: tuple

    @property
    def t_length(self) -> int:
        return len(self.syllables)

    def is_trivial(self) -> bool:
        return self.k0 == 0 and not self.syllables

    def is_a_power(self) -> bool:
        return not self.syllables

    def to_word(self) -> GroupWord:
        """The word a^k0 t^e1 a^k1 ... t^en a^kn. It is built as already
        reduced: a normal form has no pinch, so t letters with a zero
        exponent between them share one sign and make one run. A form with
        a t^e t^-e seam is not normal and goes through the checked
        constructor instead."""
        letters, exps = (["a"], [self.k0]) if self.k0 else ([], [])
        for e, k in self.syllables:
            if letters and letters[-1] == "t":
                if exps[-1] * e < 0:
                    return GroupWord([("a", self.k0)] + [
                        run for e, k in self.syllables
                        for run in (("t", e), ("a", k))])
                exps[-1] += e
            else:
                letters.append("t")
                exps.append(e)
            if k:
                letters.append("a")
                exps.append(k)
        return GroupWord._reduced(_pairs(letters, exps))

    def __str__(self):
        return self.to_word().to_text()


_EMPTY_FORM = BrittonNormalForm(0, ())


def fold(form: BrittonNormalForm, runs, params: BSParams) -> BrittonNormalForm:
    """Normal form of form's element followed by the runs, resumed from form.

    The trailing exponent is a local int and the rest of the form two
    lists, t-signs and exponents. An a-run adds to the trailing exponent; a
    stable letter reduces it to the transversal [0,|q|) or [0,|p|), pushes
    the quotient through as a carry, and cancels a t^-1 t or t t^-1 seam
    with zero exponent between. So a tree step folds a^i t^+-1 onto a
    vertex's form instead of normalizing the whole word again. Runs of over
    MAX_T_LETTERS t letters in all raise SizeCapExceeded.
    """
    p, q = params.p, params.q
    ap, aq = abs(p), abs(q)
    if form.syllables:
        signs, exps = map(list, zip(*form.syllables))
        exps.insert(0, form.k0)
        trail = exps.pop()
    else:
        signs, exps, trail = [], [], form.k0
    runs = iter(runs)
    t_letters = 0
    for letter, exp in runs:
        if letter == "a":
            trail += exp
            continue
        t_letters += abs(exp)
        if t_letters > MAX_T_LETTERS:
            # the rest of the runs only completes the count it names
            require_under_cap(
                t_letters + sum(abs(e) for x, e in runs if x == "t"),
                MAX_T_LETTERS, "the word has", "t letters")
        if exp > 0:
            for _ in range(exp):
                r = trail % aq
                carry = p * ((trail - r) // q)
                if r == 0 and signs and signs[-1] == -1:
                    signs.pop()
                    trail = exps.pop() + carry
                else:
                    signs.append(1)
                    exps.append(r)
                    trail = carry
        else:
            for _ in range(-exp):
                r = trail % ap
                carry = q * ((trail - r) // p)
                if r == 0 and signs and signs[-1] == 1:
                    signs.pop()
                    trail = exps.pop() + carry
                else:
                    signs.append(-1)
                    exps.append(r)
                    trail = carry
    exps.append(trail)
    return BrittonNormalForm(exps[0], _pairs(signs, exps[1:]))


def normalize(word: GroupWord, params: BSParams) -> BrittonNormalForm:
    """Normal form of a word: its runs folded onto the empty form.
    Idempotent and pinch-free; fold resumes from any other form."""
    return fold(_EMPTY_FORM, word.runs, params)


def is_identity(word: GroupWord, params: BSParams) -> bool:
    return normalize(word, params).is_trivial()


def same_element(w1: GroupWord, w2: GroupWord, params: BSParams) -> bool:
    return normalize(w1, params) == normalize(w2, params)


def modular_hom(word: GroupWord, params: BSParams) -> Fraction:
    """|q/p| raised to the t-exponent sum, in lowest terms. A sum that would
    give the value's numerator or denominator over MAX_VALUE_DIGITS digits
    raises SizeCapExceeded before the power is taken."""
    s = word.t_exponent_sum()
    ratio = Fraction(abs(params.q), abs(params.p))
    base = ratio.numerator
    # base = |q0| >= |p0| and base^|s| < 2^(|s| b), b its bit length: only
    # a sum past the bound can reach the digit cap
    if base > 1 and abs(s) * base.bit_length() >= _VALUE_CAP.bit_length():
        require_under_cap(abs(s), _largest_power(base),
                          "the modular value takes", f"powers of {ratio}")
    return ratio ** s


def _largest_power(base: int) -> int:
    """The largest n with base^n under 10^MAX_VALUE_DIGITS, for base >= 2:
    a bisection below n = c // (b - 1) + 1, where base^n >= 2^(c + 1) with c
    the bit length of the cap and b that of base."""
    low, high = 0, _VALUE_CAP.bit_length() // (base.bit_length() - 1) + 1
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if base ** mid < _VALUE_CAP else (low, mid)
    return low


def is_elliptic(word: GroupWord, params: BSParams) -> bool:
    """True when the word fixes a vertex of the Bass-Serre tree."""
    from . import tree

    return tree.fixed_vertex(word, params) is not None


def conjugation_exponents(
    g: GroupWord, x: GroupWord, params: BSParams, bound: int = 64
) -> tuple:
    """Smallest n >= 1 with g x^n g^-1 = x^m; returns (n, m).

    Requires x elliptic and nontrivial. Conjugating x to a^s at a fixed
    vertex turns the problem into one stabilizer index N along the geodesic
    moved by g: the exponents carried into the base stabilizer are exactly
    N Z, and a gcd adjustment restores divisibility by s on both sides. The
    answer is exact however large n is; bound caps the tree radius only.
    |m/n| = modular_hom(g) and the conjugation identity itself are checked
    on the result. A negative bound raises ValueError before any search.
    """
    from . import tree
    from .errors import RadiusExceeded

    if bound < 0:
        raise ValueError(f"the search bound must be at least 0, got {bound}")
    try:
        vertex = tree.fixed_vertex(x, params, radius=bound)
        if vertex is None:
            raise ValueError("x is not elliptic")
        delta = vertex.rep_word()
        core = normalize(delta.inverse() * x * delta, params)
        if not core.is_a_power() or core.k0 == 0:
            raise ValueError("x must be a nontrivial elliptic element")
        s = core.k0
        h = delta.inverse() * g * delta
        base = tree.base_vertex(params)
        moved = tree.canonical_vertex(h.inverse(), params)
        index = tree.stabilizer_index(base, moved, radius=bound)
    except RadiusExceeded as exc:
        raise BoundExceeded(str(exc)) from exc
    image = normalize(h * GroupWord.a(index) * h.inverse(), params)
    if not image.is_a_power() or image.k0 == 0:
        raise VerificationFailure(
            f"stabilizer index {index} did not conjugate into <a> "
            f"for g = {g.to_text()}, x = {x.to_text()}")
    k = image.k0
    shared = gcd(gcd(index, abs(s)), abs(k))
    n = index // shared
    m = k // shared
    check = normalize(h * GroupWord.a(s * n) * h.inverse(), params)
    if not check.is_a_power() or check.k0 != s * m:
        raise VerificationFailure(
            f"conjugation pair ({n}, {m}) fails for g = {g.to_text()}"
        )
    if Fraction(abs(m), n) != modular_hom(g, params):
        raise VerificationFailure(
            f"conjugation pair ({n}, {m}) contradicts the modular "
            f"value {modular_hom(g, params)} for g = {g.to_text()}"
        )
    return (n, m)


def classify_isomorphism(p: int, q: int, r: int, s: int) -> bool:
    """Whether BS(p,q) and BS(r,s) are isomorphic (Moldavanskii criterion)."""
    for eps in (1, -1):
        if (p, q) == (eps * r, eps * s) or (p, q) == (eps * s, eps * r):
            return True
    return False


def is_amenable(p: int, q: int) -> bool:
    """BS(p,q) is amenable exactly when |p| = 1 or |q| = 1."""
    if p == 0 or q == 0:
        raise ValueError("parameters must be nonzero")
    return abs(p) == 1 or abs(q) == 1
