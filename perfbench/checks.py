"""Output checks for the benchmark, computed apart from bsmg.

Every check takes plain values (ints, Fractions, lists, parsed JSON) that
the workloads read off the program's results, and compares them with a
closed form or a property the method must have. Nothing here imports bsmg
or stores a copy of earlier output. A failed check raises CheckFailed, never
`assert`, so `python -O` cannot switch the checks off.

SELF_TESTS feeds each check a corrupted value; `self_test()` runs them all
and raises CheckFailed if any check lets its corrupted value through.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from math import gcd


class CheckFailed(Exception):
    """A program output disagreed with its independent check."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# -- level-ladder --------------------------------------------------------------


def floor_sizes(p, q, k, l):
    """(N, N') of the two-floor level model, from p and q alone."""
    d0 = gcd(abs(p), abs(q))
    p0, q0 = abs(p) // d0, abs(q) // d0
    return d0 * p0 ** k * q0 ** l, d0 * p0 ** (k - 1) * q0 ** (l + 1)


def check_arrow_count(p, q, k, l, n_arrows):
    n, n1 = floor_sizes(p, q, k, l)
    require(n_arrows == (n + n1) ** 2,
            f"BS({p},{q}) level ({k},{l}): {n_arrows} arrows, "
            f"want (N+N')^2 = {(n + n1) ** 2}")


def check_identity_count(p, q, k, l, checked):
    n, n1 = floor_sizes(p, q, k, l)
    require(checked == (n + n1) ** 2,
            f"BS({p},{q}) level ({k},{l}): check_modular_identity checked "
            f"{checked} arrows, want {(n + n1) ** 2}")


def check_modular_values(p, q, n, n1, src, rng, d_values, k_values):
    """D = |q/p| and K = 1 on every floor-0 to floor-1 arrow, D = K = 1 on
    every arrow that stays on its floor. Arrows are told apart by their
    endpoints."""
    ratio = Fraction(abs(q), abs(p))
    raises = 0
    for g, (s, r) in enumerate(zip(src, rng)):
        if s < n <= r:
            raises += 1
            require(d_values[g] == ratio and k_values[g] == 1,
                    f"raise arrow {g}: (D, K) = ({d_values[g]}, {k_values[g]}),"
                    f" want ({ratio}, 1)")
        elif (s < n) == (r < n):
            require(d_values[g] == 1 and k_values[g] == 1,
                    f"floor arrow {g}: (D, K) = ({d_values[g]}, {k_values[g]}),"
                    f" want (1, 1)")
    require(raises == n * n1, f"{raises} raise arrows, want N N' = {n * n1}")


def check_no_violations(problems):
    require(list(problems) == [], f"validate reported {list(problems)[:3]}")


def check_floor_components(n, n1, components, masses):
    """S has exactly the two floors as components, with masses N/(N+N')
    and N'/(N+N')."""
    floors = [tuple(range(n)), tuple(range(n, n + n1))]
    want = [Fraction(n, n + n1), Fraction(n1, n + n1)]
    got = sorted(zip([tuple(sorted(c)) for c in components], masses))
    require([c for c, _ in got] == floors,
            f"components of S are not the two floors: {len(got)} components")
    require([m for _, m in got] == want,
            f"floor masses {[m for _, m in got]}, want {want}")


def check_all_equal(values, want, what):
    bad = [v for v in values if v != want]
    require(not bad and len(values) > 0, f"{what}: got {bad[:3]}, want {want}")


# -- lemma-bundle -----------------------------------------------------------------


def check_suite_rows(rows, registry):
    """rows: (name, passed, cases, detail); registry: (name, cases) pairs."""
    require([r[0] for r in rows] == [name for name, _ in registry],
            f"suite rows {[r[0] for r in rows]} do not match the registry")
    for (name, passed, cases, detail), (_, want) in zip(rows, registry):
        require(passed, f"suite check {name} failed: {detail}")
        require(cases == want, f"suite check {name} ran {cases} cases, "
                               f"registry says {want}")


def union_find_partition(n, src, rng):
    """Connected components of the unit graph, as a set of frozensets."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for s, r in zip(src, rng):
        a, b = find(s), find(r)
        if a != b:
            parent[max(a, b)] = min(a, b)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), set()).add(x)
    return {frozenset(b) for b in blocks.values()}


def check_partition(n, src, rng, component_of):
    got = {}
    for x, c in enumerate(component_of):
        got.setdefault(c, set()).add(x)
    got = {frozenset(b) for b in got.values()}
    require(got == union_find_partition(n, src, rng),
            "ergodic decomposition disagrees with union-find")


def check_unit_indices(src, n_units, indices):
    """[G : units]_x equals the size of the source fiber at x."""
    fiber = [0] * n_units
    for s in src:
        fiber[s] += 1
    require(list(indices) == fiber,
            f"units-only index {list(indices)[:5]} != fiber sizes {fiber[:5]}")


def check_scaled_product_type(ratio, n, labels):
    """The n-cycle with every step scaled by ratio has one component, of
    type III_lambda with lambda = ratio^n taken below 1."""
    lam = ratio ** n
    lam = min(lam, 1 / lam)
    require(labels == [("III_lambda", lam)],
            f"scaled product {ratio}^{n}: type {labels}, want III_{lam}")


# -- bs-dynamics --------------------------------------------------------------------


def sign_sqrt5(u, w):
    """Sign of u + w sqrt(5) for integers u, w."""
    def sign(v):
        return (v > 0) - (v < 0)

    if u == 0 or w == 0 or sign(u) == sign(w):
        return sign(u) or sign(w)
    # opposite signs: the larger of u^2 and 5 w^2 wins (never equal)
    return sign(u) if u * u > 5 * w * w else sign(w)


def check_landing_golden(n, x, m):
    """0 <= x - n + phi m < phi, decided in Z[sqrt 5]. With x = a/b and
    phi = (1 + sqrt 5)/2, 2b (x - n + phi m) = (2a - 2bn + bm) + bm sqrt 5."""
    a, b = x.numerator, x.denominator
    low = sign_sqrt5(2 * a - 2 * b * n + b * m, b * m)
    high = sign_sqrt5(2 * b * n - 2 * a + b * (1 - m), b * (1 - m))
    require(low >= 0 and high > 0,
            f"golden beta({n}, {x}) = {m} lands outside [0, phi)")


def check_landing_rational(n, x, theta, m):
    landed = x - n + theta * m
    require(0 <= landed < abs(theta),
            f"beta({n}, {x}) = {m} lands at {landed}, outside [0, {abs(theta)})")


def check_monotone(ms, sign):
    for prev, cur in zip(ms, ms[1:]):
        require(sign * (cur - prev) >= 0, f"beta not monotone: {prev} then {cur}")


GOLDEN = (1 + math.sqrt(5)) / 2


def check_cesaro(target, gap):
    want = 1 / (8 * GOLDEN ** 2)
    require(abs(target - want) <= 1e-12 * want,
            f"Cesaro target {target}, want 1/(8 phi^2) = {want}")
    require(0 <= gap < 0.05, f"Cesaro gap {gap} is not below 0.05")


def check_fixed_point(x, kappa, out_x, out_kappa):
    """x, out_x as (a, b) pairs of a + b theta; kappa as (residue, level)."""
    require(out_x == x and out_kappa == kappa,
            f"kernel word moved {x}, {kappa} to {out_x}, {out_kappa}")


def check_rational_period(theta, n_circ, period):
    u, v = theta.numerator, theta.denominator
    grid = n_circ * v
    want = grid // gcd(abs(u - v), grid)
    require(period == want, f"period of {theta} on circumference {n_circ}: "
                            f"{period}, want {want}")


def star_discrepancy_golden(steps):
    """Float star discrepancy of frac(i phi), i < steps."""
    pts = sorted((i * GOLDEN) % 1.0 for i in range(steps))
    return max(max((i + 1) / steps - s, s - i / steps)
               for i, s in enumerate(pts))


def check_golden_discrepancy(steps, discrepancy, bound=None):
    require(discrepancy > 0, f"discrepancy {discrepancy} is not positive")
    if bound is not None:
        require(discrepancy < bound,
                f"discrepancy {discrepancy} at {steps} steps is not below {bound}")
    approx = star_discrepancy_golden(steps)
    require(abs(float(discrepancy) - approx) < 1e-6,
            f"discrepancy {discrepancy} at {steps} steps, float says {approx}")


def check_trivial(trivial, want, what):
    require(trivial is want, f"{what}: trivial = {trivial}, want {want}")


def check_stabilizer(p, q, r, up, down):
    d0 = gcd(abs(p), abs(q))
    p0, q0 = abs(p) // d0, abs(q) // d0
    require(up == d0 * q0 ** r, f"BS({p},{q}) index of t^{r}: {up}, "
                                f"want {d0 * q0 ** r}")
    require(down == d0 * p0 ** r, f"BS({p},{q}) index of t^-{r}: {down}, "
                                  f"want {d0 * p0 ** r}")


def level_modulus(p, q, big_k, big_l):
    d0 = gcd(abs(p), abs(q))
    return d0 * (abs(p) // d0) ** big_k * (abs(q) // d0) ** big_l


def check_limit_shadow(p, q, big_k, big_l, counts):
    d0 = gcd(abs(p), abs(q))
    want = (big_k + 1) * (big_l + 1) * level_modulus(p, q, big_k, big_l) // d0
    require(counts.get("sigma_kernel") == want
            and counts.get("sigma_roundtrip") == want,
            f"BS({p},{q}) level ({big_k},{big_l}): sigma counts "
            f"{counts.get('sigma_kernel')}, {counts.get('sigma_roundtrip')}, "
            f"want {want}")
    require(counts.get("sigma_composition") == 20,
            f"sigma_composition {counts.get('sigma_composition')}, want 20")


# -- cli-readme -------------------------------------------------------------------


def check_json_fields(stdout, want, what):
    """The last stdout line parsed as JSON must hold every (key, value) in
    want."""
    lines = stdout.strip().splitlines()
    require(lines, f"{what}: no output")
    try:
        doc = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"{what}: output is not JSON: {exc}") from exc
    for key, value in want.items():
        require(doc.get(key) == value,
                f"{what}: {key} = {doc.get(key)!r}, want {value!r}")
    return doc


def check_rotation_output(stdout, steps):
    doc = check_json_fields(stdout, {"kind": "irrational", "steps": steps},
                            "dynamics rotation")
    check_golden_discrepancy(steps, Fraction(doc["discrepancy"]))


def check_suite_text(stdout, names):
    lines = stdout.strip().splitlines()
    marks = [line.split()[:2] for line in lines[:-1]]
    require(marks == [["PASS", name] for name in names],
            f"suite lemmas rows {marks}")
    summary = check_json_fields(stdout, {"failed": 0, "passed": len(names)},
                                "suite lemmas summary")
    return summary


# -- self-tests -------------------------------------------------------------------

_LEMMA_NAMES = ["index-laws", "local-index-tower"]

SELF_TESTS = (
    ("arrow count", lambda: check_arrow_count(2, 3, 1, 0, 24)),
    ("identity count", lambda: check_identity_count(4, 6, 1, 1, 899)),
    # one unit per floor: arrows are the two units, the raise, the lower
    ("raise value", lambda: check_modular_values(
        2, 3, 1, 1, [0, 1, 0, 1], [0, 1, 1, 0],
        [1, 1, Fraction(2, 3), Fraction(2, 3)], [1, 1, 1, 1])),
    ("floor value", lambda: check_modular_values(
        2, 3, 1, 1, [0, 1, 0, 1], [0, 1, 1, 0],
        [2, 1, Fraction(3, 2), Fraction(2, 3)], [1, 1, 1, 1])),
    ("validate", lambda: check_no_violations(["missing product (1,2)"])),
    ("floor components", lambda: check_floor_components(
        2, 3, [(0, 1, 2), (3, 4)], [Fraction(3, 5), Fraction(2, 5)])),
    ("floor masses", lambda: check_floor_components(
        2, 3, [(0, 1), (2, 3, 4)], [Fraction(1, 2), Fraction(1, 2)])),
    ("index", lambda: check_all_equal([2, 2, 1], 2, "index")),
    ("suite row", lambda: check_suite_rows(
        [("index-laws", True, 120, ""), ("local-index-tower", False, 60, "")],
        [("index-laws", 120), ("local-index-tower", 60)])),
    ("suite count", lambda: check_suite_rows(
        [("index-laws", True, 119, "")], [("index-laws", 120)])),
    ("partition", lambda: check_partition(3, [0, 1], [1, 1], [0, 0, 0])),
    ("unit index", lambda: check_unit_indices([0, 1, 0], 2, [1, 1])),
    ("flow type", lambda: check_scaled_product_type(
        Fraction(3, 2), 2, [("III_lambda", Fraction(2, 3))])),
    ("golden landing", lambda: check_landing_golden(3, Fraction(1, 2), 3)),
    ("rational landing", lambda: check_landing_rational(
        5, Fraction(1, 2), Fraction(3, 2), 5)),
    ("monotone", lambda: check_monotone([1, 2, 1], 1)),
    ("cesaro target", lambda: check_cesaro(0.05, 0.001)),
    ("cesaro gap", lambda: check_cesaro(1 / (8 * GOLDEN ** 2), 0.06)),
    ("fixed point", lambda: check_fixed_point(
        (Fraction(2, 7), 0), (5, (6, 6)), (Fraction(2, 7), 0), (6, (6, 6)))),
    ("period", lambda: check_rational_period(Fraction(3, 2), 6, 6)),
    ("discrepancy", lambda: check_golden_discrepancy(
        1000, Fraction(453519, 336567250) + Fraction(1, 10 ** 5))),
    ("discrepancy bound", lambda: check_golden_discrepancy(
        1000, Fraction(453519, 336567250), Fraction(1, 1000))),
    ("trivial", lambda: check_trivial(False, True, "relator product")),
    ("stabilizer", lambda: check_stabilizer(4, 6, 2, 18, 9)),
    ("limit shadow", lambda: check_limit_shadow(
        2, 3, 1, 1, {"sigma_kernel": 24, "sigma_roundtrip": 23,
                     "sigma_composition": 20})),
    ("json field", lambda: check_json_fields('{"value":"9/4"}',
                                             {"value": "3/2"}, "bs modular")),
    ("rotation output", lambda: check_rotation_output(
        '{"discrepancy":"1/1000","kind":"irrational","steps":1000}', 1000)),
    ("suite text", lambda: check_suite_text(
        'PASS index-laws (2 cases): x\nFAIL local-index-tower (2 cases): y\n'
        '{"failed":1,"passed":1}', _LEMMA_NAMES)),
)


def self_test():
    """Run every self-test; each must raise CheckFailed on its corrupted
    value. Returns the number of self-tests run."""
    for name, corrupted in SELF_TESTS:
        try:
            corrupted()
        except CheckFailed:
            continue
        raise CheckFailed(f"self-test {name!r}: check accepted a corrupted value")
    return len(SELF_TESTS)
