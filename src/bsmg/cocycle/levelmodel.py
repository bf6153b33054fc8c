"""Two-floor finite models for the modular machinery of BS(p, q).

A model at level (k, l) with k >= 1, l >= 0 has two floors of units,

    floor 0: Z/N   with N  = d0 |p0|^k     |q0|^l
    floor 1: Z/N'  with N' = d0 |p0|^(k-1) |q0|^(l+1)

carrying the uniform measure, the full principal groupoid on all unit pairs,
and the within-floor subgroupoid S (whose two ergodic components are the
floors). The floor raise realizes the map sending p.j on floor 0 to q.j on
floor 1, and the modular/index cocycle pair of (G, S) multiplies to |q/p| on
every raise arrow.

Arrow labels name the partial map whose germ the arrow is: ("a", m) for a
rotation within a floor, ("t", j, i) for the raise a^j t a^i with
0 <= i < |p|, and ("T", j, i) for its inverse.

The model is the pair groupoid on its units by construction: its id layout
is a bijection onto the unit pairs, which pair_to_id inverts. So the arrays
are written block by block along that layout, and the groupoid carries its
PairCertificate from the start (one component) instead of rediscovering it.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import (InvalidLevel, SizeCapExceeded, VerificationFailure,
                      require_under_cap)
from ..groupoid.core import FiniteMeasuredGroupoid, Subgroupoid
from ..groupoid.pseudogroup import PartialIso
from .core import modular_pair

# the most arrows, (N + N')^2, a model may have; checked before allocating
MAX_ARROWS = 2 ** 20


def level_sizes(params, k, l):
    if k < 1 or l < 0:
        raise InvalidLevel(f"need k >= 1 and l >= 0, got ({k},{l})")
    return params.level_modulus(k, l), params.level_modulus(k - 1, l + 1)


class BSLevelModel:
    """Direct construction; see the module docstring."""

    def __init__(self, params, k, l):
        self.params = params
        self.k = k
        self.l = l
        # N >= 2^k if |p0| > 1 and N' >= 2^l if |q0| > 1: refused before powers
        over = k > 20 and abs(params.p0) > 1 or l > 20 and abs(params.q0) > 1
        if over and k >= 1 and l >= 0:
            raise SizeCapExceeded(
                f"level ({k},{l}) has over {MAX_ARROWS} arrows")
        self.N, self.Nprime = level_sizes(params, k, l)
        p, q = params.p, params.q
        N, Np = self.N, self.Nprime
        total = N + Np
        ap = abs(p)

        def phi_t(z):
            if z % ap:
                raise ValueError(f"{z} is not in the raise domain")
            # z in [0, N) divisible by |p|; floor division is exact here
            return (q * (z // p)) % Np

        self._phi_t = phi_t

        # id layout: units | floor0 pairs | floor1 pairs | raises | lowers
        base0 = total
        base1 = base0 + N * (N - 1)
        base_t = base1 + Np * (Np - 1)
        base_tt = base_t + N * Np
        n_arrows = base_tt + N * Np
        require_under_cap(n_arrows, MAX_ARROWS, f"level ({k},{l}) has",
                          "arrows")

        def pair_to_id(s, r):
            if s == r:
                return s
            if s < N and r < N:
                return base0 + s * (N - 1) + (r if r < s else r - 1)
            if s >= N and r >= N:
                sj, rj = s - N, r - N
                return base1 + sj * (Np - 1) + (rj if rj < sj else rj - 1)
            if s < N:
                return base_t + s * Np + (r - N)
            return base_tt + (s - N) * N + r

        self.pair_to_id = pair_to_id
        # the arrays follow the id layout block by block: arrow ids ascend
        # along each row of a block, so every row is a run of ranges that
        # pair_to_id inverts; a label is read off a table of shared tuples
        # (one for the rotations of both floors: N <= N' as |p| <= |q|)
        turns = [("a", d) for d in range(Np)]
        src = list(range(total))
        rng = list(range(total))
        inv = list(range(total))
        labels = turns[:1] * total
        for base, off, size in ((base0, 0, N), (base1, N, Np)):
            # the arrow s -> r within a floor, s != r, and its inverse
            # r -> s, whose id is base + r (size - 1) + s - (s > r)
            for s in range(size):
                src += [off + s] * (size - 1)
                rng += range(off, off + s)
                rng += range(off + s + 1, off + size)
                inv += range(base + s - 1, base + s * size - 1, size - 1)
                inv += range(base + (s + 1) * (size - 1) + s,
                             base + size * (size - 1), size - 1)
                labels += turns[size - s:size]
                labels += turns[1:size - s]
        # the raise x -> N + y is a^j t a^i with i = -x mod |p| and
        # j = y - phi_t(x + i) mod N'; its inverse N + y -> x is labelled
        # ("T", j, i)
        tables = {}
        lower_rows = []  # the "T" table of each x and its shift, j - y
        for x in range(N):
            i = (-x) % ap
            if i not in tables:
                tables[i] = ([("t", j, i) for j in range(Np)],
                             [("T", j, i) for j in range(Np)])
            raises, lowers = tables[i]
            shift = (-phi_t((x + i) % N)) % Np
            lower_rows.append((lowers, shift))
            src += [x] * Np
            rng += range(N, total)
            inv += range(base_tt + x, n_arrows, N)
            labels += raises[shift:]
            labels += raises[:shift]
        for y in range(Np):
            src += [N + y] * N
            rng += range(N)
            inv += range(base_t + y, base_tt, Np)
            labels += [lowers[(y + shift) % Np] for lowers, shift in lower_rows]

        masses = [Fraction(1, total)] * total
        names = [f"0:{x}" for x in range(N)] + [f"1:{j}" for j in range(Np)]
        # every unit pair carries one arrow: one component
        self.groupoid = FiniteMeasuredGroupoid.principal(
            names, masses, src, rng, inv, labels, pair_to_id,
            components=(0,) * total)
        self.S = Subgroupoid(self.groupoid, range(base_t), check=False)
        self.t_arrow_ids = range(base_t, base_tt)
        self.lower_arrow_ids = range(base_tt, n_arrows)

        witnesses = [PartialIso.identity_on(self.groupoid, range(total))]
        for i in range(ap):
            chosen = {x: pair_to_id(x, N + phi_t((x + i) % N))
                      for x in range(N) if (x + i) % ap == 0}
            phi = PartialIso(self.groupoid, chosen)
            witnesses.append(phi)
            witnesses.append(phi.inverse())
        self.witnesses = witnesses
        self._modular_pair = None

    @property
    def expected_ratio(self):
        return Fraction(abs(self.params.q), abs(self.params.p))

    def modular_cocycles(self):
        """(D, K) in closed form (modular_pair), once per model: D is
        |floor of r(g)| / |floor of s(g)| and K is 1. self.witnesses, the
        paper's realization, gives the same pair through the witness
        walk."""
        if self._modular_pair is None:
            self._modular_pair = modular_pair(self.groupoid, self.S)
        return self._modular_pair

    def check_modular_identity(self):
        """D(g).K(g) == |q/p| on every floor raise, the reciprocal on every
        floor lower, and 1 on S, each decided by integer cross-multiplication
        of numerators and denominators. Returns the number of arrows
        checked."""
        D, K = self.modular_cocycles()
        d_values, k_values = D.values, K.values
        want = self.expected_ratio
        checked = 0
        for kind, arrows, ratio in (("raise", self.t_arrow_ids, want),
                                    ("lower", self.lower_arrow_ids, 1 / want)):
            num, den = ratio.numerator, ratio.denominator
            for g in arrows:
                d, k = d_values[g], k_values[g]
                if d.numerator * k.numerator * den \
                        != d.denominator * k.denominator * num:
                    raise VerificationFailure(
                        f"{kind} arrow {g}: D*K = {d * k} != {ratio}")
            checked += len(arrows)
        for g in self.S.sorted_ids():
            d, k = d_values[g], k_values[g]
            # a Fraction in lowest terms is 1 exactly when its numerator
            # equals its denominator
            if d.numerator != d.denominator or k.numerator != k.denominator:
                raise VerificationFailure(
                    f"arrow {g} of S has nontrivial D or K: "
                    f"D = {d}, K = {k}")
            checked += 1
        return checked

