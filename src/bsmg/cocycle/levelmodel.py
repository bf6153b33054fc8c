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
0 <= i < |p|, and ("T", j, i) for its inverse. A matching label normalizer
is provided so the same model can be grown generically from seed maps; the
direct construction is the fast path.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import InvalidLevel, VerificationFailure
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
            raise InvalidLevel(f"level ({k},{l}) has over {MAX_ARROWS} arrows")
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
        if n_arrows > MAX_ARROWS:
            raise InvalidLevel(f"level ({k},{l}) has {n_arrows} arrows, over "
                               f"the cap of {MAX_ARROWS}")

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
        src = [0] * n_arrows
        rng = [0] * n_arrows
        inv = [0] * n_arrows
        labels = [None] * n_arrows
        for x in range(total):
            src[x] = rng[x] = inv[x] = x
            labels[x] = ("a", 0)
        for x in range(N):
            for y in range(N):
                if x == y:
                    continue
                gid = pair_to_id(x, y)
                src[gid], rng[gid] = x, y
                inv[gid] = pair_to_id(y, x)
                labels[gid] = ("a", (y - x) % N)
        for xj in range(Np):
            for yj in range(Np):
                if xj == yj:
                    continue
                gid = pair_to_id(N + xj, N + yj)
                src[gid], rng[gid] = N + xj, N + yj
                inv[gid] = pair_to_id(N + yj, N + xj)
                labels[gid] = ("a", (yj - xj) % Np)
        for x in range(N):
            i = (-x) % ap
            fx = phi_t((x + i) % N)
            for yj in range(Np):
                j = (yj - fx) % Np
                gid = pair_to_id(x, N + yj)
                src[gid], rng[gid] = x, N + yj
                inv[gid] = pair_to_id(N + yj, x)
                labels[gid] = ("t", j, i)
                tid = inv[gid]
                src[tid], rng[tid] = N + yj, x
                inv[tid] = gid
                labels[tid] = ("T", j, i)

        masses = [Fraction(1, total)] * total
        names = [f"0:{x}" for x in range(N)] + [f"1:{j}" for j in range(Np)]
        self.groupoid = FiniteMeasuredGroupoid.principal(
            names, masses, src, rng, inv, labels, pair_to_id)
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


def level_label_normalizer(params, k, l):
    """Word normalizer for growing the same model from seed maps.

    Seed alphabet: 1 = floor-0 rotation, 2 = floor-1 rotation, 3 = floor
    raise; negatives are inverses. Words are read left to right with the
    rightmost letter acting first. The normal form keeps rotation runs
    reduced modulo the floor size, the run to the right of a raise reduced
    into [0, |p|) with the carry pushed left across it as a floor-1 rotation
    (and symmetrically for lowers, modulo |q| with a floor-0 carry), and
    cancels adjacent raise/lower pairs. Maintaining those run bounds makes
    every pinch surface as a bare cancellation, so no other rule is needed.
    """
    N, Np = level_sizes(params, k, l)
    p, q = params.p, params.q
    ap, aq = abs(p), abs(q)

    def normalize(word):
        out = []  # syllables ("a", floor, exp in [1, size)) and ("t", +-1)

        def push_a(floor, delta):
            size = N if floor == 0 else Np
            if out and out[-1][0] == "a" and out[-1][1] == floor:
                delta = (out[-1][2] + delta) % size
                out.pop()
            else:
                delta %= size
            if delta == 0:
                return
            out.append(("a", floor, delta))
            if len(out) < 2 or out[-2][0] != "t":
                return
            e = out[-2][1]
            if e == 1 and floor == 0 and delta >= ap:
                r = delta % ap
                s = (delta - r) // p  # exact: |p| divides delta - r
                carry = (q * s) % Np
                out.pop()
                out.pop()
                push_a(1, carry)
                push_t(1)
                if r:
                    # through push_a: the re-pushed raise may have canceled,
                    # leaving a floor-0 run to merge with
                    push_a(0, r)
            elif e == -1 and floor == 1 and delta >= aq:
                r = delta % aq
                s = (delta - r) // q
                carry = (p * s) % N
                out.pop()
                out.pop()
                push_a(0, carry)
                push_t(-1)
                if r:
                    push_a(1, r)

        def push_t(e):
            if out and out[-1] == ("t", -e):
                out.pop()
            else:
                out.append(("t", e))

        for sym in word:
            if sym in (1, -1):
                push_a(0, 1 if sym > 0 else -1)
            elif sym in (2, -2):
                push_a(1, 1 if sym > 0 else -1)
            elif sym == 3:
                push_t(1)
            elif sym == -3:
                push_t(-1)
            else:
                raise ValueError(f"unknown letter {sym}")
        flat = []
        for syll in out:
            if syll[0] == "a":
                flat.extend([1 if syll[1] == 0 else 2] * syll[2])
            else:
                flat.append(3 * syll[1])
        return tuple(flat)

    return normalize


def seed_maps(params, k, l):
    """The three partial maps that generate the level model generically:
    the two floor rotations and the floor raise, on global unit indices."""
    N, Np = level_sizes(params, k, l)
    p, q = params.p, params.q
    ap = abs(p)
    rot0 = {x: (x + 1) % N for x in range(N)}
    rot1 = {N + j: N + (j + 1) % Np for j in range(Np)}
    raise_map = {z: N + (q * (z // p)) % Np for z in range(0, N, ap)}
    return [rot0, rot1, raise_map]
