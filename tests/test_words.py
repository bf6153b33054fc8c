import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsmg import words
from bsmg.errors import BsmgError, NotAnInteger, SizeCapExceeded
from bsmg.words import (
    BrittonNormalForm,
    BSParams,
    GroupWord,
    classify_isomorphism,
    commutator,
    conjugation_exponents,
    fold,
    is_amenable,
    is_elliptic,
    is_identity,
    modular_hom,
    normalize,
    same_element,
)
from oracles import (fresh_form, fresh_word, oracle_is_identity,
                     oracle_normal_form)

PARAMS_POOL = [
    BSParams(2, 3),
    BSParams(2, 5),
    BSParams(4, 6),
    BSParams(6, 9),
    BSParams(2, -3),
    BSParams(3, 3),
    BSParams(-2, 4),
]


def random_word(rng, max_runs=12, max_exp=9):
    runs = []
    for _ in range(rng.randrange(max_runs + 1)):
        letter = rng.choice("at")
        exp = rng.choice([e for e in range(-max_exp, max_exp + 1) if e])
        runs.append((letter, exp))
    word = GroupWord.identity()
    for letter, exp in runs:
        word = word * (GroupWord.a() if letter == "a" else GroupWord.t()) ** exp
    return word


class TestParams:
    def test_valid(self):
        params = BSParams(2, -3)
        assert params.d0 == 1
        assert (params.p0, params.q0) == (2, -3)

    def test_common_factor(self):
        params = BSParams(4, 6)
        assert params.d0 == 2
        assert (params.p0, params.q0) == (2, 3)

    def test_reduced_parts_stay_out_of_equality_hash_and_repr(self):
        # d0, p0 and q0 are set once at construction
        params = BSParams(-4, 6)
        assert (params.d0, params.p0, params.q0) == (2, -2, 3)
        assert params == BSParams(-4, 6) and params != BSParams(4, 6)
        assert hash(params) == hash((-4, 6))
        assert repr(params) == "BSParams(p=-4, q=6)"
        with pytest.raises(AttributeError):
            BSParams(2, 3).d0 = 5

    @pytest.mark.parametrize("p,q", [(0, 3), (2, 0), (1, 5), (-1, 2), (3, 2), (5, -4)])
    def test_rejects(self, p, q):
        with pytest.raises(ValueError):
            BSParams(p, q)


class TestParsing:
    @pytest.mark.parametrize(
        "text,expect",
        [
            ("a", (("a", 1),)),
            ("A", (("a", -1),)),
            ("t^3 a^-2", (("t", 3), ("a", -2))),
            ("T^2", (("t", -2),)),
            ("e", ()),
            ("", ()),
        ],
    )
    def test_parse(self, text, expect):
        assert GroupWord.parse(text).runs == expect

    def test_round_trip(self):
        rng = random.Random(11)
        for _ in range(200):
            w = random_word(rng)
            assert GroupWord.parse(w.to_text()) == w

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            GroupWord.parse("a^2 b")


class TestGroupWord:
    def test_mul_merges_runs(self):
        w = GroupWord.a() * GroupWord.a()
        assert w.runs == (("a", 2),)

    def test_inverse(self):
        rng = random.Random(5)
        for _ in range(100):
            w = random_word(rng)
            assert w * w.inverse() == GroupWord.identity()
            assert w.inverse().inverse() == w

    def test_pow(self):
        w = GroupWord.parse("a t")
        assert w ** 0 == GroupWord.identity()
        assert w ** -2 == (w * w).inverse()

    def test_len_counts_letters(self):
        assert len(GroupWord.parse("a^3 T^2 a")) == 6

    def test_t_exponent_sum(self):
        assert GroupWord.parse("t a t^-3 a t").t_exponent_sum() == -1

    @pytest.mark.parametrize("exp", [2.5, Fraction(5, 2), "2", 2.0, 1.5],
                             ids=repr)
    @pytest.mark.parametrize("letter", ["a", "t"])
    def test_an_exponent_that_is_not_an_int_is_refused(self, letter, exp):
        # a float was folded into a form that is no group element (a^2.5 t),
        # or ended in an untyped TypeError from range
        with pytest.raises(NotAnInteger, match=f"exponent of {letter}"):
            normalize(GroupWord([("a", 1), (letter, exp), ("t", 1)]),
                      BSParams(2, 3))
        with pytest.raises(NotAnInteger):
            GroupWord(((letter, exp),))
        assert issubclass(NotAnInteger, BsmgError)
        assert issubclass(NotAnInteger, ValueError)

    def test_a_thousand_digit_exponent_is_an_int(self):
        big = 10 ** 999 + 7
        w = GroupWord([("a", big), ("t", 1), ("a", -big), ("a", 2)])
        assert w.runs == (("a", big), ("t", 1), ("a", 2 - big))
        assert GroupWord([("a", big), ("a", -big)]) == GroupWord.identity()
        assert is_identity(w * w.inverse(), BSParams(2, 3))
        form = normalize(w, BSParams(2, 3))
        assert (form.k0, form.syllables) == oracle_normal_form(
            w, BSParams(2, 3))


class TestNormalize:
    def test_matches_oracle_random(self):
        rng = random.Random(20260818)
        for _ in range(3000):
            params = rng.choice(PARAMS_POOL)
            w = random_word(rng)
            form = normalize(w, params)
            assert (form.k0, form.syllables) == oracle_normal_form(w, params)

    def test_defining_relation(self):
        for params in PARAMS_POOL:
            rel = GroupWord.parse(f"t a^{params.p} T a^{-params.q}")
            assert oracle_is_identity(rel, params)
            assert normalize(rel, params).is_trivial()

    def test_transversal_ranges(self):
        rng = random.Random(7)
        for _ in range(500):
            params = rng.choice(PARAMS_POOL)
            form = normalize(random_word(rng), params)
            syls = form.syllables
            for i, (sign, _) in enumerate(syls):
                before = form.k0 if i == 0 else syls[i - 1][1]
                bound = abs(params.q) if sign == 1 else abs(params.p)
                assert 0 <= before < bound
            if syls:
                # no pinches survive
                for i in range(len(syls) - 1):
                    sign, k = syls[i]
                    if sign == 1 and syls[i + 1][0] == -1:
                        assert k % params.p != 0
                    if sign == -1 and syls[i + 1][0] == 1:
                        assert k % params.q != 0

    def test_round_trip_word(self):
        rng = random.Random(13)
        for _ in range(500):
            params = rng.choice(PARAMS_POOL)
            w = random_word(rng)
            form = normalize(w, params)
            assert same_element(w, form.to_word(), params)

    def test_same_element(self):
        params = BSParams(2, 3)
        # a^3 t = t a^2 since a^3 t = a^{q} t = t a^{p} here
        assert same_element(GroupWord.parse("a^3 t"), GroupWord.parse("t a^2"), params)
        assert not same_element(GroupWord.a(), GroupWord.t(), params)


class TestModular:
    def test_values(self):
        params = BSParams(2, 3)
        assert modular_hom(GroupWord.parse("t^2 a^5"), params) == Fraction(9, 4)
        assert modular_hom(GroupWord.parse("T"), params) == Fraction(2, 3)
        assert modular_hom(GroupWord.a(), params) == 1

    def test_homomorphism(self):
        rng = random.Random(3)
        params = BSParams(2, -3)
        for _ in range(200):
            u, v = random_word(rng), random_word(rng)
            assert modular_hom(u * v, params) == modular_hom(u, params) * modular_hom(
                v, params
            )

    def test_absolute_value(self):
        params = BSParams(4, 6)
        assert modular_hom(GroupWord.t(), params) == Fraction(6, 4)


class TestConjugation:
    def test_defining(self):
        n, m = conjugation_exponents(
            GroupWord.t(), GroupWord.a(), BSParams(2, 3)
        )
        assert (n, m) == (2, 3)

    def test_inverse_direction(self):
        n, m = conjugation_exponents(
            GroupWord.t() ** -1, GroupWord.a(), BSParams(2, 3)
        )
        assert (n, m) == (3, 2)

    def test_ratio_matches_modular(self):
        rng = random.Random(9)
        params = BSParams(2, 3)
        for _ in range(20):
            g = random_word(rng, max_runs=4, max_exp=3)
            try:
                n, m = conjugation_exponents(g, GroupWord.a(), params, bound=256)
            except ValueError:
                continue
            assert abs(Fraction(m, n)) == modular_hom(g, params)


class TestClassifier:
    def test_exhaustive_consistency(self):
        from oracles import iso_orbit

        grid = [
            (p, q)
            for p in range(-6, 7)
            for q in range(-6, 7)
            if 2 <= abs(p) <= abs(q)
        ]
        for p, q in grid:
            orbit = iso_orbit(p, q)
            for r, s in grid:
                assert classify_isomorphism(p, q, r, s) == ((r, s) in orbit)

    def test_examples(self):
        assert classify_isomorphism(2, 3, 3, 2)
        assert classify_isomorphism(2, 3, -2, -3)
        assert not classify_isomorphism(2, 3, 2, 5)
        assert not classify_isomorphism(2, 4, 2, -4)


class TestEllipticAmenable:
    def test_a_powers_elliptic(self):
        params = BSParams(2, 3)
        assert is_elliptic(GroupWord.parse("a^5"), params)
        assert not is_elliptic(GroupWord.t(), params)

    def test_amenable(self):
        assert is_amenable(1, 5)
        assert is_amenable(-3, -1)
        assert not is_amenable(2, 3)
        with pytest.raises(ValueError):
            is_amenable(0, 2)


class TestCommutator:
    def test_identity_when_commuting(self):
        params = BSParams(2, 3)
        w = commutator(GroupWord.a(), GroupWord.a() ** 3)
        assert normalize(w, params).is_trivial()


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_a_powers_multiply(i, j):
    params = BSParams(2, 3)
    w = (GroupWord.a() ** i) * (GroupWord.a() ** j)
    form = normalize(w, params)
    assert form.is_a_power()
    assert form.k0 == i + j


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("at"), st.integers(-6, 6)), max_size=8))
def test_inverse_cancels(runs):
    params = BSParams(2, -3)
    w = GroupWord.identity()
    for letter, exp in runs:
        w = w * (GroupWord.a() if letter == "a" else GroupWord.t()) ** exp
    assert normalize(w * w.inverse(), params).is_trivial()
    assert normalize(w.inverse() * w, params).is_trivial()


# negative p or q, and pairs with a common factor, beside the pool
SIGNED_PARAMS = PARAMS_POOL + [BSParams(-2, 3), BSParams(-3, -5),
                               BSParams(2, -4), BSParams(-4, -6)]
RUNS = st.lists(st.one_of(
    st.tuples(st.just("a"), st.integers(-10 ** 6, 10 ** 6)),
    st.tuples(st.just("t"), st.integers(-3, 3))), max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIGNED_PARAMS), RUNS)
def test_normalize_matches_the_oracle_on_large_exponents(params, runs):
    word = GroupWord(runs)
    form = normalize(word, params)
    assert (form.k0, form.syllables) == oracle_normal_form(word, params)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SIGNED_PARAMS), RUNS, RUNS)
def test_a_fold_resumed_from_a_form_equals_normalizing_from_scratch(
        params, left, right):
    u, v = GroupWord(left), GroupWord(right)
    assert fold(normalize(u, params), v.runs, params) == \
        normalize(u * v, params)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SIGNED_PARAMS), RUNS)
def test_to_word_is_already_reduced(params, runs):
    form = normalize(GroupWord(runs), params)
    word = form.to_word()
    assert GroupWord(word.runs).runs == word.runs
    assert normalize(word, params) == form


def test_to_word_of_a_form_with_a_seam_still_reduces():
    # not a normal form: t a^0 T is a pinch, so the word reduces to a^2
    form = BrittonNormalForm(2, ((1, 0), (-1, 0)))
    assert form.to_word() == GroupWord.a(2)


# Shared pairs: a run or syllable with |exponent| <= 64 is the pair table's
# own tuple; what a word or form holds is equal to fresh tuples.
SHARED_PARAMS = SIGNED_PARAMS + [BSParams(3, 130), BSParams(-70, 140)]
WIDE_RUNS = st.lists(st.one_of(
    st.tuples(st.just("a"), st.integers(-200, 200)),
    st.tuples(st.just("a"), st.integers(-10 ** 40, 10 ** 40)),
    st.tuples(st.just("t"), st.integers(-70, 70))), max_size=8)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(SHARED_PARAMS), WIDE_RUNS, st.integers(-10 ** 60, 10 ** 60))
def test_shared_pairs_equal_fresh_tuples(params, runs, k0):
    runs = [("a", k0)] + runs
    word, fresh = GroupWord(runs), fresh_word(runs)
    assert word.runs == fresh.runs
    assert word.to_text() == fresh.to_text()
    assert hash(word) == hash(fresh) and word == fresh
    form, oracle = normalize(word, params), fresh_form(fresh, params)
    assert form == normalize(fresh, params) == oracle
    assert form.syllables == oracle.syllables
    assert str(form) == str(oracle) and hash(form) == hash(oracle)
    assert form.to_word().runs == fresh_word(form.to_word().runs).runs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(SHARED_PARAMS), WIDE_RUNS)
def test_every_small_pair_is_the_tables_tuple(params, runs):
    table = words._SHARED
    size = len(table)
    word = GroupWord(runs)
    form = normalize(word, params)
    runs = (word.runs + word.inverse().runs + (word * word).runs
            + form.to_word().runs)
    for pair in runs:
        assert pair is table[pair] if abs(pair[1]) <= 64 else \
            pair not in table
    for pair in form.syllables:
        assert pair is table[pair] if 0 <= pair[1] <= 64 else \
            pair not in table
    # big exponents are stored fresh: the table does not grow
    assert len(table) == size == 4 * 64 + 2 * 65


def test_the_constructors_share_their_pairs():
    table = words._SHARED
    for word in (GroupWord.a(5), GroupWord.t(-64), GroupWord.parse("t^3 A^2"),
                 GroupWord.a(3) * GroupWord.t(), GroupWord.t(7).inverse()):
        assert all(run is table[run] for run in word.runs)
    assert GroupWord.a(65).runs[0] not in table


def _traced_bytes(build):
    import tracemalloc

    tracemalloc.start()
    try:
        built = build()
        return built, tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_a_long_word_and_its_form_hold_one_pointer_per_pair():
    # 10^5 letters in 66,624 runs and a form of 39,750 syllables: fresh
    # tuples of 56 bytes each trace 4.3 MB for the word and 2.5 MB for the
    # form; shared pairs leave the pointers, 0.5 and 0.3 MB
    rng = random.Random(27)
    pairs, letters = [], 0
    while letters < 10 ** 5:
        exp = rng.choice((-2, -1, 1, 2))
        pairs.append(("at"[len(pairs) % 2], exp))
        letters += abs(exp)
    word, word_bytes = _traced_bytes(lambda: GroupWord(pairs))
    form, form_bytes = _traced_bytes(lambda: normalize(word, BSParams(2, 3)))
    assert len(word.runs) > 60_000 and form.t_length > 10_000
    assert word_bytes < 2 ** 20 and form_bytes < 2 ** 20, (
        word_bytes, form_bytes)


class TestWordCaps:
    def test_the_t_letter_cap_counts_across_runs(self):
        params = BSParams(2, 3)
        half = GroupWord.t(words.MAX_T_LETTERS // 2 + 1)
        with pytest.raises(SizeCapExceeded, match=(
                f"the word has {words.MAX_T_LETTERS + 3} t letters, over "
                f"the cap of {words.MAX_T_LETTERS}")):
            normalize(half * GroupWord.a() * half * GroupWord.a(-5)
                      * GroupWord.t(), params)
        long = GroupWord.t(words.MAX_T_LETTERS + 1)
        with pytest.raises(SizeCapExceeded):
            is_identity(long, params)
        with pytest.raises(SizeCapExceeded):
            same_element(GroupWord(), long, params)

    def test_the_largest_t_letter_count_answers(self):
        form = normalize(GroupWord.t(words.MAX_T_LETTERS), BSParams(2, 3))
        assert form.t_length == words.MAX_T_LETTERS and form.k0 == 0
        assert str(form) == f"t^{words.MAX_T_LETTERS}"

    @pytest.mark.parametrize("params, largest", [
        (BSParams(2, 3), 9012), (BSParams(2, -3), 9012),
        (BSParams(4, 6), 9012), (BSParams(2, 5), 6151),
        (BSParams(2, 10 ** 2200 + 1), 1)])
    def test_the_modular_cap_is_the_digit_limit(self, params, largest):
        base = abs(params.q0)
        assert base ** largest < 10 ** 4300 <= base ** (largest + 1)
        for sign in (1, -1):
            value = modular_hom(GroupWord.t(sign * largest), params)
            assert len(str(value.numerator)) <= 4300
            assert len(str(value.denominator)) <= 4300
            with pytest.raises(SizeCapExceeded, match=(
                    f"takes {largest + 1} powers of .*, over the cap of "
                    f"{largest}$")):
                modular_hom(GroupWord.t(sign * (largest + 1)), params)

    def test_a_modular_value_of_one_has_no_cap(self):
        assert modular_hom(GroupWord.t(10 ** 9), BSParams(3, -3)) == 1
        assert modular_hom(GroupWord.t(10 ** 9), BSParams(2, 2)) == 1
