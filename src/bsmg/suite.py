"""Randomized verification bundles shared by the CLI and the test suite.

Each check runs seeded random cases against an exact law and raises on the
first violation, so a check is a pass/fail unit. run_suite turns the
registry into result rows; the command line prints them and the acceptance
tests call the check functions directly with their own case counts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .cocycle.core import cohomologous, modular_pair, transfer_matches
from .cocycle.levelmodel import BSLevelModel
from .cocycle.mackey import (TypeLabel, classify_type, mackey_range,
                             one_loop_model, ranges_isomorphic,
                             scaled_product_model)
from .dynamics import (BernoulliBase, CylinderSet, ThetaValue, ZCycleModel,
                       affine_floor, affine_sign, beta_cocycle,
                       cesaro_mixing_test, component_counts, coupling_action,
                       coupling_point, div_by_theta, n_element_words,
                       periodic_model, periodicity_check,
                       rotation_model_orbit)
from .errors import VerificationFailure
from .groupoid.core import (ErgodicDecomposition, FiniteMeasuredGroupoid,
                            Subgroupoid, certificate, index, index_of_pair,
                            local_index_of_pair, restrict, validate)
from .groupoid.pseudogroup import QNClass, qn_membership, witness_family
from .groupoid.quotient import check_group_action_quotient, quotient
from .groupoid.randomgen import (cycle_on, identity_index, is_normal_subgroup,
                                 partition_groupoid, random_action_instance,
                                 random_groupoid, random_partition_tower,
                                 random_subgroup, random_wide_subgroupoid,
                                 subgroup_arrow_ids, subgroup_closure)
from .words import BSParams


QN_CLASSES = (QNClass.NORMALIZING, QNClass.QUASI_NORMALIZING)


def _require(ok, message, **instance):
    """Raise VerificationFailure unless ok, naming the failing instance; a
    bare assert would vanish under python -O."""
    if not ok:
        if instance:
            message += " at " + ", ".join(f"{key} {value}"
                                          for key, value in instance.items())
        raise VerificationFailure(message)


def _sample(rng, pool, k):
    pool = list(pool)
    if len(pool) <= k:
        return pool
    return rng.sample(pool, k)


def _with_units(G, ids):
    return frozenset(ids) | frozenset(range(G.n_units))


# -- index laws ----------------------------------------------------------------


def check_index_laws(rng, cases):
    """Constancy along arrows, restriction bound (equality for an ergodic
    sub), intersection and sandwich bounds, the tower law over an ergodic
    middle, the labeled-quotient bound, and the component count bound."""
    towers = 0
    for _ in range(cases):
        G = random_groupoid(rng)
        H = random_wide_subgroupoid(rng, G)
        idx = [index(G, H, x) for x in range(G.n_units)]
        varies = next((g for g in range(G.n_arrows)
                       if idx[G.src[g]] != idx[G.rng[g]]), None)
        _require(varies is None, "index varies along an arrow", groupoid=G,
                 arrow=varies)

        dec_g = ErgodicDecomposition(G)
        dec_h = ErgodicDecomposition(H)
        for comp in dec_g.components:
            inner = {dec_h.component_of[x] for x in comp}
            _require(len(inner) <= idx[comp[0]],
                     "component count beats the index", groupoid=G,
                     unit=comp[0])

        A = sorted(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
        inc = restrict(G, A)
        GA = inc.source
        HA = Subgroupoid(GA, inc.preimage(H), check=False)
        for x in _sample(rng, A, 3):
            ia = index(GA, HA, A.index(x))
            _require(ia <= idx[x], "restriction raised the index",
                     groupoid=G, unit=x, subset=A)
            if dec_h.is_ergodic():
                _require(ia == idx[x],
                         "ergodic sub lost index under restriction",
                         groupoid=G, unit=x, subset=A)

        K = random_wide_subgroupoid(rng, G)
        meet = _with_units(G, H.ids & K.ids)
        for x in _sample(rng, range(G.n_units), 2):
            lhs = index_of_pair(G, range(G.n_arrows), meet, x)
            _require(lhs <= idx[x] * index(G, K, x),
                     "intersection bound broke", groupoid=G, unit=x)

        K2 = random_wide_subgroupoid(rng, G)
        H2 = Subgroupoid.generated_by(
            G, [g for g in K2.sorted_ids() if rng.random() < 0.4])
        L = random_wide_subgroupoid(rng, G)
        kl = _with_units(G, K2.ids & L.ids)
        hl = _with_units(G, H2.ids & L.ids)
        dec_k2 = ErgodicDecomposition(K2)
        for x in _sample(rng, range(G.n_units), 2):
            lhs = index_of_pair(G, kl, hl, x)
            rhs = index_of_pair(G, K2.ids, H2.ids, x)
            _require(lhs <= rhs, "sandwich bound broke", groupoid=G, unit=x)
            if len({dec_k2.component_of[u] for u in dec_g.component(x)}) == 1:
                whole = index_of_pair(G, range(G.n_arrows), H2.ids, x)
                step1 = index_of_pair(G, range(G.n_arrows), K2.ids, x)
                step2 = index_of_pair(G, K2.ids, H2.ids, x)
                _require(whole == step1 * step2, "tower law broke",
                         groupoid=G, unit=x)
                towers += 1

        if hasattr(G, "group_elements"):
            lam = random_subgroup(rng, G)
            hl_ids = _with_units(G, subgroup_arrow_ids(G, lam))
            want = len(G.group_elements) // len(lam)
            for x in _sample(rng, range(G.n_units), 2):
                got = index_of_pair(G, range(G.n_arrows), hl_ids, x)
                _require(got == want, "group index value broke",
                         groupoid=G, unit=x)
            cut = _with_units(GA, inc.preimage(hl_ids))
            for x in _sample(rng, A, 2):
                got = index_of_pair(GA, range(GA.n_arrows), cut, A.index(x))
                _require(got <= want, "labeled quotient bound broke",
                         groupoid=G, unit=x, subset=A)
    return cases, f"{cases} instances, {towers} ergodic towers"


def check_local_index_laws(rng, cases):
    """Tower multiplicativity and restriction invariance of the local index."""
    for _ in range(cases):
        if rng.random() < 0.35:
            G, k_ids, h_ids = random_partition_tower(rng)
        else:
            G = random_action_instance(rng, max_units=8, max_arrows=240)
            lam = random_subgroup(rng, G)
            mid = subgroup_closure(
                G, sorted(lam) + [rng.randrange(len(G.group_elements))])
            h_ids = subgroup_arrow_ids(G, lam)
            k_ids = subgroup_arrow_ids(G, mid)
        everything = range(G.n_arrows)
        for x in _sample(rng, range(G.n_units), 2):
            li_gh = local_index_of_pair(G, everything, h_ids, x)
            li_gk = local_index_of_pair(G, everything, k_ids, x)
            li_kh = local_index_of_pair(G, k_ids, h_ids, x)
            _require(li_gh == li_gk * li_kh, "local index tower broke",
                     groupoid=G, unit=x)

            A = set(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
            A.add(x)
            inc = restrict(G, A)
            ha = _with_units(inc.source, inc.preimage(h_ids))
            got = local_index_of_pair(inc.source, range(len(inc.arrows)), ha,
                                      inc.units.index(x))
            _require(got == li_gh, "local index moved under restriction",
                     groupoid=G, unit=x, subset=sorted(A))
    return cases, f"{cases} towers"


def check_local_index_group(rng, cases):
    """Local index of a subgroup action against the orbit-ratio value."""
    for _ in range(cases):
        G = random_action_instance(rng, max_units=8, max_arrows=240)
        lam = random_subgroup(rng, G)
        h_ids = subgroup_arrow_ids(G, lam)
        dec_g = ErgodicDecomposition(G)
        dec_h = ErgodicDecomposition(G, sorted(_with_units(G, h_ids)))
        ratio = Fraction(len(G.group_elements), len(lam))
        for x in _sample(rng, range(G.n_units), 3):
            want = ratio * Fraction(len(dec_h.component(x)),
                                    len(dec_g.component(x)))
            got = local_index_of_pair(G, range(G.n_arrows), h_ids, x)
            _require(got == want, "group-action local index broke",
                     groupoid=G, unit=x)
    return cases, f"{cases} group instances"


# -- quotients ------------------------------------------------------------------


def check_quotient_contract(rng, cases):
    """Kernel recovery, fiberwise lifting, projection multiplicativity, and
    group recovery of the quotient of an action groupoid by a normal
    subgroup's arrows."""
    done = 0
    while done < cases:
        G = random_action_instance(rng, max_units=8, max_arrows=240)
        lam = random_subgroup(rng, G)
        if not is_normal_subgroup(G, lam):
            continue
        S = Subgroupoid(G, subgroup_arrow_ids(G, lam), check=False)
        proj = quotient(G, S)
        Q, theta = proj.target, proj.arrows

        kernel = {g for g in range(G.n_arrows) if theta[g] < Q.n_units}
        _require(kernel == S.ids, "projection kernel is not the subgroupoid",
                 groupoid=G)

        fibers = {}
        for g in range(G.n_arrows):
            fibers.setdefault(theta[g], set()).add(G.src[g])
        for alpha, sources in fibers.items():
            needed = {x for x, z in enumerate(proj.units) if z == Q.src[alpha]}
            _require(sources == needed,
                     "class does not lift from every point", groupoid=G,
                     quotient_arrow=alpha)

        for _ in range(40):
            g = rng.randrange(G.n_arrows)
            h = rng.choice(G.range_fiber(G.src[g]))
            k = G.product(g, h)
            _require(theta[k] == Q.product(theta[g], theta[h]),
                     "projection is not multiplicative", groupoid=G,
                     pair=(g, h))

        _require(validate(Q) == [], "quotient fails the axiom check",
                 groupoid=G)
        check_group_action_quotient(S, proj)
        _require(list(proj.units) == [Q.src[theta[G.unit_arrow(x)]]
                                      for x in range(G.n_units)],
                 "unit projection mismatch", groupoid=G)
        done += 1
    return cases, f"{cases} normal pairs"


# -- modular cocycle transfers ---------------------------------------------------


def check_modular_transfers(rng, cases):
    """The three transfer laws for the modular pair, each with its explicit
    potential: restriction (conditional mass of the subset), sub-to-over
    tower for the modular part (component mass ratio), and the same tower
    for the index part (local index of the over in the sub... of the pair)."""
    for i in range(cases):
        G = random_action_instance(rng, max_units=7, max_arrows=200,
                                   preserve_masses=True)
        lam = random_subgroup(rng, G)
        s_ids = _with_units(G, subgroup_arrow_ids(G, lam))
        S = Subgroupoid(G, s_ids, check=False)
        D_S, K_S = modular_pair(G, S)
        D_S.check()
        K_S.check()
        mode = i % 3
        if mode == 0:
            A = sorted(rng.sample(range(G.n_units),
                                  rng.randint(1, G.n_units)))
            inc = restrict(G, A)
            GA = inc.source
            SA = Subgroupoid(GA, inc.preimage(s_ids), check=False)
            D_A, _ = modular_pair(GA, SA)
            dec = ErgodicDecomposition(G, sorted(s_ids))
            in_a = set(A)
            psi = {}
            for x in A:
                comp = dec.component(x)
                cut = sum((G.masses[u] for u in comp if u in in_a),
                          Fraction(0))
                psi[x] = cut / dec.masses[dec.component_of[x]]
            c1 = inc.pull(D_S.values)
            for ga, g in enumerate(inc.arrows):
                want = psi[G.rng[g]] * D_S(g) / psi[G.src[g]]
                _require(D_A(ga) == want, "restriction transfer broke",
                         groupoid=G, arrow=g, subset=A)
            found = cohomologous(GA, c1, D_A)
            _require(found is not None,
                     "restriction transfer not cohomologous", groupoid=G,
                     subset=A)
            _require(transfer_matches(GA, found, [psi[x] for x in A]),
                     "recovered potential differs from the conditional mass",
                     groupoid=G, subset=A)
        else:
            mid = subgroup_closure(
                G, sorted(lam) + [rng.randrange(len(G.group_elements))])
            t_ids = _with_units(G, subgroup_arrow_ids(G, mid))
            T = Subgroupoid(G, t_ids, check=False)
            D_T, K_T = modular_pair(G, T)
            if mode == 1:
                dec_s = ErgodicDecomposition(G, sorted(s_ids))
                dec_t = ErgodicDecomposition(G, sorted(t_ids))
                psi = [dec_t.masses[dec_t.component_of[x]]
                       / dec_s.masses[dec_s.component_of[x]]
                       for x in range(G.n_units)]
                one, two = D_S, D_T
            else:
                psi = [local_index_of_pair(G, t_ids, s_ids, x)
                       for x in range(G.n_units)]
                one, two = K_S, K_T
            for g in range(G.n_arrows):
                want = psi[G.rng[g]] * one(g) / psi[G.src[g]]
                _require(two(g) == want, "tower transfer broke",
                         groupoid=G, arrow=g)
            found = cohomologous(G, one, two)
            _require(found is not None, "tower transfer not cohomologous",
                     groupoid=G)
            _require(transfer_matches(G, found, psi),
                     "recovered potential differs from the predicted one",
                     groupoid=G)
    return cases, f"{cases} transfer cases"


def check_modular_identity(rng, cases):
    """Product of the modular pair on level-model floor moves, whose closed
    form must match the walk of the model's own witnesses."""
    combos = [((2, 3), 1, 0), ((2, 3), 1, 1), ((2, -3), 1, 0), ((4, 6), 1, 1)]
    arrows = 0
    for (p, q), k, l in combos[:max(1, cases)]:
        model = BSLevelModel(BSParams(p, q), k, l)
        walked = modular_pair(model.groupoid, model.S,
                              witnesses=model.witnesses)
        _require(walked == model.modular_cocycles(),
                 "the witness walk differs from the closed form",
                 model=f"BS({p},{q}) level ({k},{l})")
        arrows += model.check_modular_identity()
    return min(len(combos), max(1, cases)), f"{arrows} arrows checked"


# -- Mackey ranges and flow types -----------------------------------------------


def _cyclic_instance(rng):
    n = rng.randint(2, 8)
    pts = list(range(n))
    rng.shuffle(pts)
    gen = tuple(cycle_on(pts, n))
    G = FiniteMeasuredGroupoid.from_group_action([gen], bound=600)
    group = certificate(G)
    gi = G.group_elements.index(gen)
    power_of = {identity_index(G): 0}
    cur = identity_index(G)
    for i in range(1, group.order):
        cur = group.multiply(gi, cur)
        power_of[cur] = i
    return G, power_of


def check_mackey_laws(rng, cases):
    """Invariance of the Mackey range under coboundary shifts, inner
    automorphisms, and saturating restrictions."""
    for _ in range(cases):
        G, power_of = _cyclic_instance(rng)
        group = certificate(G)
        order = group.order
        m = rng.choice((2, 3, 4, 6))
        c = (m // gcd(m, order)) * rng.randrange(gcd(m, order))
        beta = [rng.randrange(m) for _ in range(G.n_units)]
        tau = [(c * power_of[group.element(g)]
                + beta[G.rng[g]] - beta[G.src[g]]) % m
               for g in range(G.n_arrows)]
        base = mackey_range(G, tau, m)

        beta2 = [rng.randrange(m) for _ in range(G.n_units)]
        tau2 = [(tau[g] + beta2[G.rng[g]] - beta2[G.src[g]]) % m
                for g in range(G.n_arrows)]
        _require(ranges_isomorphic(base, mackey_range(G, tau2, m)),
                 "coboundary shift changed the Mackey range", groupoid=G,
                 modulus=m)

        di = rng.randrange(order)
        tau3 = [None] * G.n_arrows
        for g in range(G.n_arrows):
            a1 = group.arrow(di, G.rng[g])
            a0 = group.arrow(di, G.src[g])
            tau3[g] = tau[G.product(a1, G.product(g, G.inv[a0]))]
        _require(ranges_isomorphic(base, mackey_range(G, tau3, m)),
                 "inner automorphism changed the Mackey range", groupoid=G,
                 modulus=m, element=di)

        dec = ErgodicDecomposition(G)
        A = set(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
        for comp in dec.components:
            if not A & set(comp):
                A.add(comp[0])
        inc = restrict(G, A)
        _require(ranges_isomorphic(base, mackey_range(inc.source,
                                                      inc.pull(tau), m)),
                 "saturating restriction changed the Mackey range",
                 groupoid=G, modulus=m, subset=sorted(A))
    return cases, f"{cases} cocycles"


def check_flow_types(rng, cases):
    """Type classification of the standard small models."""
    for n in (1, 2, 3, 5):
        label = classify_type(scaled_product_model(Fraction(2, 3), n))
        _require(label == TypeLabel("III_lambda", Fraction(2, 3) ** n),
                 "scaled product misclassified", length=n, type=label)
    got = classify_type(one_loop_model([Fraction(3, 2)]))
    _require(got == TypeLabel("III_lambda", Fraction(2, 3)),
             "one loop of ratio 3/2 misclassified", type=got)
    got = classify_type(one_loop_model([Fraction(2), Fraction(3)]))
    _require(got.kind == "III_1", "loops of ratios 2 and 3 misclassified",
             type=got)
    uniform = partition_groupoid([Fraction(1, 6)] * 6, [[0, 1, 2], [3, 4, 5]])
    got = classify_type(uniform)
    _require(got.kind == "II", "uniform partition groupoid misclassified",
             type=got)
    return 7, "4 scaled products, 2 loop models, 1 uniform model"


def check_qn_stability(rng, cases):
    """Witness families classify, compose, and survive restriction."""
    for _ in range(cases):
        G = random_groupoid(rng, max_units=8, max_arrows=240)
        S = random_wide_subgroupoid(rng, G)
        reports = witness_family(G, S)
        _require(all(r.qn_class in QN_CLASSES for r in reports),
                 "witness family left the class", groupoid=G)
        covered = {G.rng[r.phi.arrow(x)]
                   for r in reports for x in r.phi.domain}
        _require(covered, "witness family is empty", groupoid=G)

        phis = [r.phi for r in reports]
        one, two = rng.choice(phis), rng.choice(phis)
        composed = one.compose(two)
        if len(composed) > 0:
            rep = qn_membership(G, S, composed)
            _require(rep.qn_class in QN_CLASSES,
                     "composition left the class", groupoid=G,
                     witness=composed)

        A = sorted(rng.sample(range(G.n_units), rng.randint(1, G.n_units)))
        inc = restrict(G, A)
        SA = Subgroupoid(inc.source, inc.preimage(S), check=False)
        for rep in witness_family(inc.source, SA):
            _require(rep.qn_class in QN_CLASSES,
                     "restriction broke the witness family", groupoid=G,
                     subset=A)
    return cases, f"{cases} witness families"


# -- dynamics -------------------------------------------------------------------


def check_beta_laws(rng, cases):
    """Monotonicity and unboundedness of the return-time cocycle."""
    thetas = [ThetaValue.from_rational(Fraction(3, 2)),
              ThetaValue.from_rational(Fraction(-5, 3)),
              ThetaValue.golden()]
    while len(thetas) < cases:
        f = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40),
                     rng.randint(1, 40))
        thetas.append(ThetaValue.from_rational(f))
    span = 1000
    for theta in thetas[:cases]:
        if theta.kind == "rational":
            width = abs(theta.frac)
            x = width * Fraction(rng.randrange(8), 8)
            sign = 1 if theta.frac > 0 else -1
        else:
            x = Fraction(1, 2)
            sign = 1
        # floor(2 span / |theta|), exact for golden theta too
        least = affine_floor(theta, div_by_theta(theta, sign * 2 * span))
        prev = None
        first = last = None
        for n in range(-span, span + 1):
            m = beta_cocycle(n, x, theta)
            if prev is not None:
                _require(sign * (m - prev) >= 0, "return time not monotone",
                         theta=theta, n=n, x=x)
            if first is None:
                first = m
            prev = m
            last = m
        spread = abs(last - first)
        _require(spread >= least - 3,
                 "return time bounded", theta=theta, x=x, spread=spread)
    return cases, f"{cases} translation lengths, n in [-{span}, {span}]"


def check_trivial_words(rng, cases):
    """Ten kernel words per parameter pair act trivially on coupling points."""
    pool = [BSParams(2, 3), BSParams(2, 5), BSParams(4, 6), BSParams(2, -3)]
    pool = pool[:max(1, cases)]
    moved = 0
    for params in pool:
        words = n_element_words(params, 10)
        _require(len(words) == 10, "not ten kernel words", params=params,
                 words=len(words))
        for theta in (ThetaValue.from_rational(Fraction(3, 2)),
                      ThetaValue.golden()):
            for w in words:
                for xj in (0, 2, 5):
                    pt = coupling_point(params, Fraction(xj, 7),
                                        rng.randrange(10 ** 6), (6, 6))
                    out = coupling_action(w, pt, theta, params)
                    _require(out == pt, "kernel word moved a point",
                             word=w.to_text(), params=params, theta=theta,
                             point=pt)
                    moved += 1
    return len(pool), f"{moved} point checks"


def check_rotation_orbits(rng, cases):
    """Rotation orbit periods and the golden-ratio discrepancy bound."""
    rep = rotation_model_orbit(ThetaValue.golden(), 1, steps=100_000)
    _require(rep.discrepancy is not None and
             rep.discrepancy < Fraction(1, 1000),
             "golden discrepancy missing or too large",
             discrepancy=rep.discrepancy)
    r2 = rotation_model_orbit(ThetaValue.from_rational(Fraction(2)), 1)
    _require(r2.period == 1 and r2.degenerate, "integer translation orbit",
             theta=2, period=r2.period)
    r3 = rotation_model_orbit(ThetaValue.from_rational(Fraction(3, 2)), 6)
    _require(r3.period == 12 and not r3.degenerate,
             "3/2 on circumference 6", period=r3.period)
    for _ in range(max(0, cases - 3)):
        u = rng.randint(1, 30)
        v = rng.randint(1, 30)
        N = rng.randint(1, 6)
        r = rotation_model_orbit(
            ThetaValue.from_rational(Fraction(u, v)), N)
        s = u - v
        grid = N * v
        want = 1 if s == 0 else grid // gcd(abs(s), grid)
        _require(r.period == want, "rational period formula broke",
                 theta=Fraction(u, v), circumference=N, period=r.period,
                 want=want)
    return cases, f"golden discrepancy {float(rep.discrepancy):.2e}"


def check_cesaro_mixing(rng, cases):
    """Cesaro averages of the skew product approach the product value."""
    base = BernoulliBase()
    theta = ThetaValue.golden()
    A1 = [(Fraction(0), Fraction(1, 2))]
    A2 = [(Fraction(1, 4), Fraction(5, 4))]
    B1 = CylinderSet.of({0: 1})
    B2 = CylinderSet.of({2: 0})
    rep = cesaro_mixing_test(base, theta, A1, B1, A2, B2, 10_000)
    # |gap| < 1/20, decided on the exact gap
    bound = Fraction(1, 20)
    _require(affine_sign(theta, rep.gap_affine - bound) < 0
             and affine_sign(theta, rep.gap_affine + bound) > 0,
             "Cesaro gap too large", gap=rep.gap, horizon=rep.horizon)
    return 1, f"gap {rep.gap:.4f} at horizon 10000"


def check_component_counts(rng, cases):
    """Orbit-count table: frozen example plus randomized ladder checks."""
    table = component_counts(1, 12, 2, 3, 3, 1)
    want = {(0, 0): 1, (1, 0): 2, (2, 0): 4, (3, 0): 4, (0, 1): 3, (1, 1): 6}
    for key, value in want.items():
        _require(table[key] == value, "frozen component count table broke",
                 key=key, got=table[key], want=value)
    done = 0
    while done < cases:
        n = rng.randint(2, 80)
        r = rng.randint(2, 9)
        s = rng.randint(2, 9)
        c = rng.randint(1, n)
        if gcd(c, n) != 1:
            continue
        component_counts(c, n, r, s, rng.randint(1, 3), rng.randint(1, 3))
        done += 1
    return cases, f"{cases} random tables plus the frozen one"


def check_periodicity(rng, cases):
    """Odometer truncations are exactly as periodic as their size allows."""
    params = BSParams(2, 3)
    model = periodic_model(params, 2, 1)
    _require(periodicity_check(model, params.d0, abs(params.p0),
                               abs(params.q0), 2, 1),
             "certified model failed", params=params, level=(2, 1))
    seven = periodic_model(BSParams(7, 7), 1, 0)
    _require(seven.size == 7, "BS(7,7) model at (1,0) is not Z/7",
             size=seven.size)
    _require(not periodicity_check(seven, 2, 2, 3, 1, 0),
             "Z/7 cannot be (2;2,3)-periodic")
    for _ in range(cases):
        d = rng.randint(1, 4)
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        kmax = rng.randint(0, 2)
        lmax = rng.randint(0, 2)
        size = d * m ** kmax * n ** lmax
        mult = rng.randint(1, 3)
        ok = periodicity_check(ZCycleModel(size * mult, 1), d, m, n,
                               kmax, lmax)
        _require(ok, "multiple of the certified size must stay periodic",
                 size=size * mult, shape=(d, m, n, kmax, lmax))
        if size > 1:
            bad = periodicity_check(ZCycleModel(size * mult, 1), d, m, n,
                                    kmax + 1, lmax + 1)
            expected = (size * mult) % (d * m ** (kmax + 1)
                                        * n ** (lmax + 1)) == 0
            _require(bad == expected, "periodicity verdict out of line",
                     size=size * mult, shape=(d, m, n, kmax + 1, lmax + 1))
    return cases, f"{cases} cycle models"


# -- registry -------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    detail: str


LEMMA_CHECKS = (
    ("index-laws", check_index_laws, 120),
    ("local-index-tower", check_local_index_laws, 60),
    ("local-index-group-value", check_local_index_group, 30),
    ("quotient-contract", check_quotient_contract, 40),
    ("modular-transfer", check_modular_transfers, 45),
    ("level-model-identity", check_modular_identity, 4),
    ("mackey-invariance", check_mackey_laws, 30),
    ("flow-classification", check_flow_types, 7),
    ("witness-stability", check_qn_stability, 25),
)

DYNAMICS_CHECKS = (
    ("beta-cocycle", check_beta_laws, 10),
    ("kernel-words-fix-coupling", check_trivial_words, 4),
    ("rotation-orbits", check_rotation_orbits, 12),
    ("cesaro-mixing", check_cesaro_mixing, 1),
    ("component-counts", check_component_counts, 50),
    ("cycle-periodicity", check_periodicity, 20),
)

BUNDLES = {
    "lemmas": LEMMA_CHECKS,
    "dynamics": DYNAMICS_CHECKS,
    "all": LEMMA_CHECKS + DYNAMICS_CHECKS,
}


def run_suite(bundle="all", seed=0, max_cases=None):
    """Run a named bundle; returns CheckResult rows in registry order.

    Every check gets its own generator seeded from (seed, name), so results
    are reproducible per check and independent of bundle composition. A
    check that raises anything becomes a FAIL row naming the exception
    type, and the rows after it still run. max_cases caps every check's
    case count and must be at least 1 (ValueError otherwise).
    """
    if bundle not in BUNDLES:
        raise KeyError(f"unknown bundle {bundle!r}")
    if max_cases is not None and max_cases < 1:
        raise ValueError(f"the case cap must be at least 1, got {max_cases}")
    results = []
    for name, fn, cases in BUNDLES[bundle]:
        n = cases if max_cases is None else min(cases, max_cases)
        rng = random.Random(f"{seed}:{name}")
        try:
            ran, detail = fn(rng, n)
            results.append(CheckResult(name, True, ran, detail))
        except Exception as exc:
            results.append(CheckResult(
                name, False, 0, f"{type(exc).__name__}: {exc}"))
    return results
