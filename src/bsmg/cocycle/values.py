"""Value groups for groupoid cocycles and the cocycle wrapper.

Cocycles here are total assignments of one value per arrow, multiplicative
over every defined product. On windows with a partial product the check runs
over exactly the defined part, which is the strongest statement a window can
support.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import NotACocycle, TargetMismatch
from ..groupoid.core import certificate, composable_pairs, law_holds


class QPos:
    """Positive rationals under multiplication."""

    name = "Q+"
    identity = Fraction(1)

    @staticmethod
    def op(a, b):
        return a * b

    @staticmethod
    def inverse(a):
        # exact for an int value too, where 1 / a would be a float
        return Fraction(1) / a

    @staticmethod
    def coerce(v):
        # an exact Fraction is kept as it is, and its sign is its numerator's
        f = v if type(v) is Fraction else Fraction(v)
        if f.numerator <= 0:
            raise TargetMismatch(f"{v!r} is not a positive rational")
        return f


class ZAdd:
    """Integers under addition."""

    name = "Z"
    identity = 0

    @staticmethod
    def op(a, b):
        return a + b

    @staticmethod
    def inverse(a):
        return -a

    @staticmethod
    def coerce(v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TargetMismatch(f"{v!r} is not an integer")
        return v


class ZModAdd:
    """Integers mod n under addition."""

    def __init__(self, n):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n
        self.name = f"Z/{n}"
        self.identity = 0

    def op(self, a, b):
        return (a + b) % self.n

    def inverse(self, a):
        return (-a) % self.n

    def coerce(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise TargetMismatch(f"{v!r} is not an integer")
        return v % self.n


@dataclass(frozen=True)
class GroupoidCocycle:
    """One value per arrow, checked multiplicative where the product exists."""

    G: object
    target: object
    values: tuple

    @classmethod
    def from_values(cls, G, target, values, *, check=True):
        if isinstance(values, dict):
            vals = tuple(target.coerce(values[g]) for g in range(G.n_arrows))
        else:
            vals = tuple(target.coerce(v) for v in values)
        if len(vals) != G.n_arrows:
            raise TargetMismatch("need one value per arrow")
        c = cls(G, target, vals)
        if check:
            c.check()
        return c

    def __call__(self, g):
        return self.values[g]

    def check(self):
        """Units go to the identity, inverses to inverses, and every defined
        product multiplies. Returns self, or raises NotACocycle at the first
        failure.

        For exact values (ints or Fractions) in one of the three abelian
        targets, a certified groupoid (certificate) is tested first: the
        values must send the unit arrows to the identity and multiply on the
        certificate's pairs(G) (law_holds), on which multiplicativity is the
        cocycle law of an abelian target. That is O(arrows) on a pair
        groupoid and |group| x |generators| x |units| steps on an action
        groupoid. When that test fails, or there is no certificate, the
        fiber scan walks every composable pair (composable_pairs), so a
        failure names the same unit, inverse or pair whether or not G is
        certified."""
        G, t, values = self.G, self.target, self.values
        cert = certificate(G)
        if cert is not None and (t is QPos or t is ZAdd or type(t) is ZModAdd) \
                and law_holds(G, values, cert.pairs(G),
                              None if t is QPos else t.op, t.identity):
            return self
        for x in range(G.n_units):
            if values[G.unit_arrow(x)] != t.identity:
                raise NotACocycle(f"unit arrow at {x} is not sent to identity")
        for g in range(G.n_arrows):
            if values[G.inv[g]] != t.inverse(values[g]):
                raise NotACocycle(f"value at the inverse of {g} does not invert")
        for g, h, k in composable_pairs(G):
            if k is not None and values[k] != t.op(values[g], values[h]):
                raise NotACocycle(f"not multiplicative at ({g},{h})")
        return self

    def is_identity(self):
        return all(v == self.target.identity for v in self.values)


def coboundary(G, target, psi):
    """The cocycle g -> psi(r(g)) op psi(s(g))^-1 of a unit potential."""
    values = [
        target.op(target.coerce(psi[G.rng[g]]),
                  target.inverse(target.coerce(psi[G.src[g]])))
        for g in range(G.n_arrows)
    ]
    return GroupoidCocycle.from_values(G, target, values, check=False)
