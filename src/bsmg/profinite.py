"""Truncated arithmetic in the inverse limit of the rings Z/(d0 p0^K q0^L).

An inverse limit is infinite; what a finite run can hold is one member ring
together with the reduction maps downward. Every value here carries its
level (K, L) explicitly and every operation states where it lands: silently
dropping to a coarser ring would fake exactness, so nothing does.

Level conventions. The modulus of level (K, L) is M = d0 |p0|^K |q0|^L.
The base congruence submodule at a level is d0 . Z/M (written E00 below):
the scaling endomorphism sigma_{k,l} multiplies it by p0^k q0^l. Units are
tested against d0 p0 q0, the coarsest criterion every level agrees on; a
residue passing it is a unit as far as the truncation sees.
"""

from __future__ import annotations

import re
from math import gcd

from .errors import (
    InvalidLevel,
    LevelBudgetExceeded,
    NotAUnit,
    ParamMismatch,
    SizeCapExceeded,
    VerificationFailure,
    require_under_cap,
)

# the most residues verify_limit_shadow may sweep, (K + 1)(L + 1) M: every
# scaling (k, l) visits the base submodule and every unit of Z/M
MAX_RESIDUES = 2 ** 22


class TruncatedProfiniteInt:
    """A residue at an explicit level (K, L), modulus d0 |p0|^K |q0|^L."""

    __slots__ = ("params", "level", "residue")

    def __init__(self, params, residue, level):
        K, L = level
        self.params = params
        self.level = (int(K), int(L))
        self.residue = int(residue) % params.level_modulus(K, L)

    @property
    def modulus(self):
        return self.params.level_modulus(*self.level)

    def reduce(self, K, L):
        """The image at a coarser level (componentwise smaller or equal)."""
        if K > self.level[0] or L > self.level[1]:
            raise ValueError("can only reduce to a smaller level")
        return TruncatedProfiniteInt(self.params, self.residue, (K, L))

    def _align(self, other):
        if not isinstance(other, TruncatedProfiniteInt):
            other = TruncatedProfiniteInt(self.params, other, self.level)
        if other.params != self.params:
            raise ParamMismatch(f"{self.params} vs {other.params}")
        K = min(self.level[0], other.level[0])
        L = min(self.level[1], other.level[1])
        return self.reduce(K, L), other.reduce(K, L)

    def __add__(self, other):
        a, b = self._align(other)
        return TruncatedProfiniteInt(a.params, a.residue + b.residue, a.level)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedProfiniteInt(self.params, -self.residue, self.level)

    def __sub__(self, other):
        a, b = self._align(other)
        return TruncatedProfiniteInt(a.params, a.residue - b.residue, a.level)

    def __mul__(self, other):
        a, b = self._align(other)
        return TruncatedProfiniteInt(a.params, a.residue * b.residue, a.level)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, TruncatedProfiniteInt):
            return NotImplemented
        return (self.params == other.params and self.level == other.level
                and self.residue == other.residue)

    def __hash__(self):
        return hash((self.params, self.level, self.residue))

    def is_unit(self):
        crit = abs(self.params.d0 * self.params.p0 * self.params.q0)
        return gcd(self.residue, crit) == 1

    def in_base_submodule(self):
        return self.residue % self.params.d0 == 0

    def to_text(self):
        return f"{self.residue}@({self.level[0]},{self.level[1]})"

    _TEXT = re.compile(r"^\s*(-?\d+)@\((\d+),(\d+)\)\s*$")

    @classmethod
    def parse(cls, text, params):
        m = cls._TEXT.match(text)
        if not m:
            raise ValueError(f"cannot parse {text!r}")
        return cls(params, int(m.group(1)), (int(m.group(2)), int(m.group(3))))

    def __repr__(self):
        return f"TruncatedProfiniteInt({self.params.p},{self.params.q}: {self.to_text()})"


def sigma_map(x, k, l):
    """Multiplication by p0^k q0^l on the base submodule, at x's own level.

    Injective on residues taken modulo the level-(K-k, L-l) modulus, which
    is exactly what sigma_inverse recovers. k > K or l > L would scale past
    what the modulus can hold and raises LevelBudgetExceeded.
    """
    K, L = x.level
    if k < 0 or l < 0:
        raise ValueError("negative scaling exponents")
    if k > K or l > L:
        raise LevelBudgetExceeded(f"sigma({k},{l}) at level ({K},{L})")
    if not x.in_base_submodule():
        raise ValueError("sigma_map is defined on the base submodule only")
    f = x.params.p0 ** k * x.params.q0 ** l
    return TruncatedProfiniteInt(x.params, f * x.residue, x.level)


def sigma_inverse(y, k, l):
    """Exact division by p0^k q0^l, landing at level (K-k, L-l).

    Defined on the image of sigma_map, i.e. residues divisible by
    d0 p0^k q0^l; sigma_inverse(sigma_map(x)) is x reduced to (K-k, L-l).
    """
    K, L = y.level
    if k < 0 or l < 0:
        raise ValueError("negative scaling exponents")
    if k > K or l > L:
        raise LevelBudgetExceeded(f"sigma_inverse({k},{l}) at level ({K},{L})")
    f = y.params.p0 ** k * y.params.q0 ** l
    if y.residue % abs(f * y.params.d0):
        raise ValueError(f"{y.to_text()} is not in the sigma({k},{l}) image")
    return TruncatedProfiniteInt(y.params, y.residue // f, (K - k, L - l))


def _require_unit(r):
    if not r.is_unit():
        raise NotAUnit(r.to_text())


def check_unit_fixes_level(r, k, l):
    """Does multiplication by the unit r fix d0 p0^k q0^l . Z/M pointwise?

    Checked two ways, by sweeping the submodule and by the congruence
    d0 p0^k q0^l (r - 1) = 0 mod M; they must agree. A negative k or l
    raises InvalidLevel.
    """
    if k < 0 or l < 0:
        raise InvalidLevel(f"need k >= 0 and l >= 0, got ({k},{l})")
    _require_unit(r)
    K, L = r.level
    if k > K or l > L:
        raise LevelBudgetExceeded(f"submodule ({k},{l}) at level ({K},{L})")
    M = r.modulus
    step = abs(r.params.d0 * r.params.p0 ** k * r.params.q0 ** l)
    direct = all((r.residue * x) % M == x for x in range(0, M, step))
    congruence = (step * (r.residue - 1)) % M == 0
    if direct != congruence:
        raise VerificationFailure(
            f"submodule ({k},{l}) sweep disagrees with the congruence "
            f"for {r.to_text()}")
    return direct


def u0_membership(r):
    """Whether d0 (r - 1) = 0 at r's level: the units acting trivially on
    the base submodule."""
    _require_unit(r)
    return (r.params.d0 * (r.residue - 1)) % r.modulus == 0


def verify_limit_shadow(params, K, L, *, rng=None):
    """Exhaustive finite-level checks of the scaling and unit laws at one
    level (K, L), modulus M. Returns check counts; raises
    VerificationFailure on any violation.

    - sigma kernel and round trip: for every (k, l) <= (K, L) and every x
      in the base submodule, sigma(k,l) x = 0 exactly when x = 0 at the
      reduced level (K - k, L - l), and dividing by p0^k q0^l gives x back
      there;
    - sigma composition: 20 random samples through the object API;
    - fix_implies_u0: for every unit r and every (k, l), r fixing
      d0 p0^k q0^l . Z/M pointwise forces d0 (r - 1) = 0 at the reduced
      level; counted once per (r, k, l) where r fixes the submodule;
    - u0_implies_fix: every unit with d0 (r - 1) = 0 fixes the whole base
      submodule, checked at every x;
    - the public check_unit_fixes_level and u0_membership on up to 30
      random units.

    Every residue is checked, and a failure is reported at the first
    residue that breaks a law, in the sweep order above; a level that
    sweeps over MAX_RESIDUES residues raises SizeCapExceeded first.
    """
    import random

    rng = rng or random.Random(0)
    # M >= 2^K if |p0| > 1 and M >= 2^L if |q0| > 1: refused before powers
    if K >= 0 and L >= 0 and (K >= 22 and abs(params.p0) > 1
                              or L >= 22 and abs(params.q0) > 1):
        raise SizeCapExceeded(
            f"level ({K},{L}) sweeps over {MAX_RESIDUES} residues")
    M = params.level_modulus(K, L)
    require_under_cap((K + 1) * (L + 1) * M, MAX_RESIDUES,
                      f"level ({K},{L}) sweeps", "residues")
    d0 = params.d0
    # per (k, l): f = p0^k q0^l, the submodule step d0 |f| and the
    # reduced modulus
    scalings = []
    for k in range(K + 1):
        for l in range(L + 1):
            f = params.p0 ** k * params.q0 ** l
            scalings.append((k, l, f, d0 * abs(f),
                             params.level_modulus(K - k, L - l)))
    # raw-integer sweeps for the exhaustive part; the object API is
    # exercised on samples below so both paths stay honest
    submodule = range(0, M, d0)
    for k, l, f, _, reduced_mod in scalings:
        for x in submodule:
            y = (f * x) % M
            xr = x % reduced_mod
            if (y == 0) != (xr == 0):
                raise VerificationFailure(
                    f"sigma({k},{l}) kernel wrong at {x}@({K},{L})")
            if (y // f) % reduced_mod != xr:
                raise VerificationFailure(
                    f"sigma({k},{l}) round trip wrong at {x}@({K},{L})")
    swept = len(scalings) * len(submodule)
    counts = {"sigma_kernel": swept, "sigma_roundtrip": swept,
              "sigma_composition": 0, "fix_implies_u0": 0,
              "u0_implies_fix": 0}
    for _ in range(20):
        x = TruncatedProfiniteInt(params, d0 * rng.randrange(M // d0), (K, L))
        k1 = rng.randint(0, K)
        l1 = rng.randint(0, L)
        k2 = rng.randint(0, K - k1)
        l2 = rng.randint(0, L - l1)
        if sigma_map(sigma_map(x, k1, l1), k2, l2) != sigma_map(x, k1 + k2, l1 + l2):
            raise VerificationFailure("sigma maps do not compose additively")
        if sigma_inverse(sigma_map(x, k1, l1), k1, l1) != x.reduce(K - k1, L - l1):
            raise VerificationFailure("sigma_inverse does not invert sigma_map")
        counts["sigma_composition"] += 1
    crit = abs(params.d0 * params.p0 * params.q0)
    unit_residues = [r for r in range(M) if gcd(r, crit) == 1]
    fixes = u0 = 0
    for r in unit_residues:
        shift = d0 * (r - 1)
        for k, l, _, step, reduced_mod in scalings:
            if (step * (r - 1)) % M == 0:
                if shift % reduced_mod:
                    raise VerificationFailure(
                        f"unit {r}@({K},{L}) fixes level ({k},{l}) but "
                        f"d0(r-1) != 0 at the reduced level")
                fixes += 1
        if shift % M == 0:
            for x in submodule:
                if (r * x) % M != x:
                    raise VerificationFailure(
                        f"unit {r}@({K},{L}) is in U0 but moves {x}")
            u0 += 1
    counts["fix_implies_u0"] = fixes
    counts["u0_implies_fix"] = u0
    for _ in range(min(30, len(unit_residues))):
        r = TruncatedProfiniteInt(params, rng.choice(unit_residues), (K, L))
        k = rng.randint(0, K)
        l = rng.randint(0, L)
        # the double-checked public path (sweep vs congruence) on samples
        check_unit_fixes_level(r, k, l)
        u0_membership(r)
    return counts
