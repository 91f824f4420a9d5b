"""Words, substitutions and certified factor sets."""

import copy
import re
from itertools import chain, repeat

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from minishift.bifix import (
    BifixCode,
    GroupCodeSpec,
    f_degree,
    group_code_intersection,
    minimal_automaton_of_star,
)
from minishift.episturmian import episturmian_factor_set
from minishift.errors import (
    BudgetExceeded,
    InputError,
    InsufficientHorizon,
    NotPrimitive,
    ParseError,
)
from minishift.extension import classify, extension_graph, multiplicity
from minishift.monoid import f_group, f_min_rank_data
from minishift.returns import (
    check_gamma_identity,
    gamma,
    left_return_words,
    right_return_words,
)
from minishift.shadow import connective_code
from minishift.words import (
    DEFAULT_MAX_PREFIX,
    Alphabet,
    FactorSet,
    Substitution,
    factors_of,
    occurrences,
)


words_ab = st.text(alphabet="ab", max_size=12)


@st.composite
def primitive_substitutions(draw):
    """Random primitive substitutions: 2-3 letters, images of length <= 4."""
    letters = "abc"[: draw(st.integers(2, 3))]
    image = st.text(alphabet=letters, min_size=1, max_size=4)
    rules = ";".join(f"{c}->{draw(image)}" for c in letters)
    sigma = Substitution.parse(rules)
    assume(sigma.is_primitive())
    return sigma


def long_iterate(images: dict[str, str], start: str) -> str:
    """The images applied by hand until the word is 20000 letters long, or 40 times."""
    w = start
    for _ in range(40):
        if len(w) >= 20000:
            break
        w = "".join(images[c] for c in w)
    return w


def brute_factors(images: dict[str, str], start: str, horizon: int) -> set[str]:
    """Every factor of length <= horizon of a long iterate of ``start``.

    Reads every substring of the iterate's windows of length ``horizon``.
    """
    w = long_iterate(images, start)
    windows = {w[i : i + horizon] for i in range(max(1, len(w) - horizon + 1))}
    return {u[a:b] for u in windows for a in range(len(u) + 1) for b in range(a, len(u) + 1)}


def is_factorial(F: FactorSet) -> bool:
    """Every factor of a member is a member."""
    return all(w[1:] in F and w[:-1] in F for w in F.factors if w)


def matrix_power_is_primitive(sigma: Substitution) -> bool:
    """Oracle: the Wielandt power (k-1)^2 + 1 of the incidence matrix, entry [i][j]
    the count of letter i in the image of letter j, is positive, by repeated products."""
    letters = sigma.alphabet.letters
    k = len(letters)
    acc = m = [[sigma.images[b].count(a) for b in letters] for a in letters]
    for _ in range((k - 1) ** 2):
        acc = [[int(any(acc[i][t] and m[t][j] for t in range(k))) for j in range(k)]
               for i in range(k)]
    return all(all(row) for row in acc)


@st.composite
def substitutions(draw):
    """Random substitutions, primitive or not: 1-4 letters, images of length <= 4."""
    letters = "abcd"[: draw(st.integers(1, 4))]
    image = st.text(alphabet=letters, min_size=1, max_size=4)
    return Substitution.parse(";".join(f"{c}->{draw(image)}" for c in letters))


def prefix_chain_levels(F: FactorSet) -> dict[int, tuple[str, ...]]:
    """Oracle: each level below the top as ``dict.fromkeys`` of the prefixes of the
    level above, with the empty word at length 0, from ``F``'s top level."""
    levels, level = {0: ("",)}, F.words_of_length(F.horizon)
    for n in range(F.horizon, 0, -1):
        levels[n] = level
        level = tuple(dict.fromkeys(u[:-1] for u in level))
    return levels


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Alphabet.of("")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alphabet.of("aba")

    def test_key_orders_by_length_then_position(self):
        ab = Alphabet.of("ab")
        words = ["ba", "a", "", "ab", "b"]
        assert sorted(words, key=ab.key) == ["", "a", "b", "ab", "ba"]


class TestSubstitution:
    def test_parse_serialize_roundtrip(self):
        text = "a->ab;b->a"
        assert Substitution.parse(text).serialize() == text

    def test_parse_rejects_garbage(self):
        for bad in ["", "a->", "->ab", "a->ab;a->b", "noarrow"]:
            with pytest.raises(ParseError):
                Substitution.parse(bad)

    def test_parse_rejects_a_letter_without_rule(self):
        with pytest.raises(ParseError):
            Substitution.parse("a->ab")

    def test_apply(self, fib, tm):
        assert fib.apply("ab") == "aba"
        assert fib.apply("") == ""
        assert tm.apply("ba") == "baab"

    def test_iterate(self, fib):
        assert fib.iterate("a", 0) == "a"
        assert fib.iterate("a", 3) == "abaab"
        assert fib.iterate("a", 4) == "abaababa"

    def test_iterate_budget(self, fib):
        with pytest.raises(BudgetExceeded):
            fib.iterate("a", 200)

    def test_primitive(self, fib, quad):
        assert fib.is_primitive()
        assert quad.is_primitive()
        identity = Substitution.parse("a->a;b->b")
        assert not identity.is_primitive()
        assert not Substitution.parse("a->b;b->c;c->a").is_primitive()
        # the Wielandt matrix: its power (k-1)^2 + 1 = 5 is the first positive one
        assert Substitution.parse("a->b;b->c;c->ab").is_primitive()

    @settings(max_examples=300)
    @given(substitutions())
    def test_primitive_against_the_matrix_power(self, sigma):
        assert sigma.is_primitive() == matrix_power_is_primitive(sigma)

    @given(words_ab, st.integers(0, 3), st.integers(0, 3))
    def test_iterate_composes(self, w, m, n):
        fib = Substitution.parse("a->ab;b->a")
        one = "".join(fib.iterate(c, m + n) for c in w)
        step = "".join(fib.iterate(c, n) for c in w)
        two = "".join(fib.iterate(c, m) for c in step)
        assert one == two


class TestHelpers:
    def test_factors_of(self):
        assert factors_of("aba", 2) == {"", "a", "b", "ab", "ba"}
        assert factors_of("", 3) == {""}

    def test_occurrences_overlapping(self):
        assert occurrences("aa", "aaaa") == 3
        assert occurrences("", "abc") == 4
        assert occurrences("x", "abc") == 0


class TestFactorSet:
    def test_fibonacci_small(self, fib):
        F = FactorSet.from_substitution(fib, "a", 2)
        assert F.factors == {"", "a", "b", "aa", "ab", "ba"}

    def test_horizon_zero(self, fib):
        F = FactorSet.from_substitution(fib, "a", 0)
        assert F.factors == {""}

    def test_thue_morse_has_all_squares_of_letters(self, tm):
        F = FactorSet.from_substitution(tm, "a", 2)
        assert F.factors == {"", "a", "b", "aa", "ab", "ba", "bb"}

    def test_not_primitive_rejected(self):
        sigma = Substitution.parse("a->ab;b->b")
        with pytest.raises(NotPrimitive):
            FactorSet.from_substitution(sigma, "a", 4)

    def test_complexity(self, fib_set, trib_set):
        assert fib_set.complexity(0) == 1
        assert fib_set.complexity(4) == 5
        assert trib_set.complexity(3) == 7
        assert [fib_set.complexity(n) for n in range(1, 10)] == [
            n + 1 for n in range(1, 10)
        ]

    def test_complexity_beyond_horizon(self, fib_set):
        with pytest.raises(InsufficientHorizon):
            fib_set.complexity(17)

    def test_complexity_of_a_negative_length(self, fib_set):
        with pytest.raises(ValueError):
            fib_set.complexity(-1)

    def test_witness(self, fib_set):
        assert fib_set.uniform_recurrence_witness("") == 0
        assert fib_set.uniform_recurrence_witness("b") == 3
        assert fib_set.uniform_recurrence_witness("aa") <= 8

    def test_witness_unknown_factor(self, fib_set):
        with pytest.raises(ValueError):
            fib_set.uniform_recurrence_witness("bb")

    def test_factorial_closure(self, fib_set, tm_set, trib_set):
        for F in (fib_set, tm_set, trib_set):
            assert is_factorial(F)

    def test_start_letter_irrelevant(self, fib):
        Fa = FactorSet.from_substitution(fib, "a", 10)
        Fb = FactorSet.from_substitution(fib, "b", 10)
        assert Fa.factors == Fb.factors

    def test_biextendable(self, fib_set):
        for w in fib_set.factors:
            if len(w) < fib_set.horizon:
                assert any(a + w in fib_set for a in fib_set.alphabet)
                assert any(w + a in fib_set for a in fib_set.alphabet)

    def test_periodic(self):
        F = FactorSet.from_periodic("abc", 6)
        assert F.complexity(4) == 3
        assert "abca" in F and "acbc" not in F

    def test_periodic_negative_horizon(self):
        with pytest.raises(ValueError, match="horizon must be nonnegative, got -1"):
            FactorSet.from_periodic("abc", -1)


CODE = BifixCode.of(["aa", "ab", "ba"])
QUERIES = {
    "complexity": lambda F: F.complexity(3),
    "first_returns": lambda F: F.first_returns("a"),
    "uniform_recurrence_witness": lambda F: F.uniform_recurrence_witness("a"),
    "right_return_words": lambda F: right_return_words(F, "a"),
    "left_return_words": lambda F: left_return_words(F, "a"),
    "gamma": lambda F: gamma(F, "a", 3),
    "check_gamma_identity": lambda F: check_gamma_identity(F, "a", 3),
    "connective_code": lambda F: connective_code(F, "a", "b"),
    "extension_graph": lambda F: extension_graph(F, "a"),
    "multiplicity": lambda F: multiplicity(F, "a"),
    "classify": lambda F: classify(F, 3),
    "f_degree": lambda F: f_degree(CODE, F),
    "group_code_intersection": lambda F: group_code_intersection(
        GroupCodeSpec.cyclic(2, {"a": 1, "b": 1}), F),
    "f_min_rank_data": lambda F: f_min_rank_data(minimal_automaton_of_star(CODE), F),
    "f_group": lambda F: f_group(minimal_automaton_of_star(CODE), F),
}


class TestCertify:
    """``FactorSet.certify``, the one gate every query on a factor set passes."""

    @pytest.mark.parametrize("query", sorted(QUERIES))
    def test_every_query_refuses_an_uncertified_set(self, query):
        F = FactorSet.from_words(Alphabet.of("ab"), ["abaab"], 5)
        with pytest.raises(InsufficientHorizon, match="not certified complete"):
            QUERIES[query](F)

    def test_checks_in_order(self, fib_set):
        uncertified = FactorSet.from_words(Alphabet.of("ab"), ["abaab"], 5)
        with pytest.raises(InsufficientHorizon, match="not certified complete"):
            uncertified.certify(99, "too short", "bb")
        with pytest.raises(InsufficientHorizon, match="too short"):
            fib_set.certify(99, "too short", "bb")
        with pytest.raises(ValueError, match="'bb' is not a factor"):
            fib_set.certify(16, "too short", "bb")
        fib_set.certify(16, "too short", "abaab")

    @pytest.mark.parametrize("query", [right_return_words, left_return_words,
                                       FactorSet.uniform_recurrence_witness],
                             ids=lambda f: f.__name__)
    def test_a_word_past_the_horizon_is_refused_as_a_horizon(self, fib, query):
        F = FactorSet.from_substitution(fib, "a", 8)
        assert "abaababaa" in FactorSet.from_substitution(fib, "a", 9)
        with pytest.raises(InsufficientHorizon, match="'abaababaa' is longer than horizon 8"):
            query(F, "abaababaa")
        with pytest.raises(ValueError, match="'bb' is not a factor"):
            query(F, "bb")

    @pytest.mark.parametrize("query, word", [
        (right_return_words, "c" * 10),
        (left_return_words, "c" * 10),
        (FactorSet.uniform_recurrence_witness, "c" * 10),
        (extension_graph, "c" * 7),
        (lambda F, x: gamma(F, x, 20), "c"),
        (lambda F, x: FactorSet.from_words(F.alphabet, ["ab"], 2).certify(99, "", x), "c"),
    ], ids=["right_return_words", "left_return_words", "witness", "extension_graph", "gamma",
            "uncertified"])
    def test_a_stray_letter_is_refused_before_any_horizon(self, fib, query, word):
        F = FactorSet.from_substitution(fib, "a", 8)
        with pytest.raises(InputError, match="letter 'c' not in alphabet"):
            query(F, word)


class TestFactorSetBuilder:
    """The L2-seeded builder: edge cases and a brute-force differential test."""

    @settings(max_examples=60, deadline=None)
    @given(primitive_substitutions(), st.integers(0, 12), st.data())
    def test_matches_brute_force_scan(self, sigma, horizon, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        F = FactorSet.from_substitution(sigma, start, horizon)
        assert F.factors == brute_factors(sigma.images, start, horizon)
        letters = sigma.alphabet.letters
        for n in range(horizon + 2):
            members = [w for w in F.factors if len(w) == n]
            expect = sorted(members, key=lambda w: [letters.index(c) for c in w])
            assert list(F.words_of_length(n)) == expect

    @pytest.mark.parametrize("horizon, expect", [
        (0, {""}),
        (1, {"", "a", "b"}),
        (2, {"", "a", "b", "aa", "ab", "ba"}),
    ])
    def test_small_horizons(self, fib, horizon, expect):
        F = FactorSet.from_substitution(fib, "b", horizon)
        assert F.factors == expect
        assert F.horizon == horizon and F.complete

    def test_one_letter_doubling(self):
        F = FactorSet.from_substitution(Substitution.parse("a->aa"), "a", 5)
        assert F.factors == {"a" * n for n in range(6)}

    def test_one_letter_identity_terminates(self):
        # the shift of a->a is the constant word, so every a^n is a factor
        F = FactorSet.from_substitution(Substitution.parse("a->a"), "a", 50)
        assert F.factors == {"a" * n for n in range(51)}

    def test_every_start_letter_of_tribonacci(self, trib):
        sets = {c: FactorSet.from_substitution(trib, c, 24).factors for c in "abc"}
        assert sets["a"] == sets["b"] == sets["c"]
        assert len([w for w in sets["a"] if len(w) == 24]) == 2 * 24 + 1

    def test_tiny_prefix_budget(self, tm):
        with pytest.raises(BudgetExceeded):
            FactorSet.from_substitution(tm, "a", DEFAULT_MAX_PREFIX + 1)

    def test_letter_swap_not_primitive(self):
        # no image ever grows, so only the primitivity check stops this input
        with pytest.raises(NotPrimitive):
            FactorSet.from_substitution(Substitution.parse("a->b;b->a"), "a", 8)

    def test_negative_horizon_rejected(self, fib):
        with pytest.raises(ValueError):
            FactorSet.from_substitution(fib, "a", -1)

    def test_empty_start_rejected(self, fib):
        with pytest.raises(ValueError):
            FactorSet.from_substitution(fib, "", 4)

    def test_source_records_certificate(self, tm):
        F = FactorSet.from_substitution(tm, "a", 16)
        assert F.source.endswith("tau_[0,4)(ab) for ab in L2 = {aa,ab,ba,bb}")


def assert_levels_sorted(F: FactorSet) -> None:
    """Each level strictly increases under the alphabet's key and is the set of
    prefixes of the top level; ``sorted_words`` is the whole set in that order."""
    key = F.alphabet.key
    top = F.words_of_length(F.horizon)
    for n in range(F.horizon + 1):
        level = F.words_of_length(n)
        assert all(key(u) < key(v) for u, v in zip(level, level[1:]))
        assert level == tuple(sorted({w[:n] for w in top}, key=key))
    assert F.sorted_words() == sorted(F.factors, key=key)


class TestLengthIndex:
    """``words_of_length`` reads the sorted tuple per length that every constructor keeps."""

    @settings(max_examples=80)
    @given(primitive_substitutions(), st.integers(2, 24), st.data())
    def test_every_level_is_sorted_where_built(self, sigma, L, data):
        order = data.draw(st.permutations(sigma.alphabet.letters))
        permuted = Substitution(Alphabet.of(order), sigma.images)
        start = data.draw(st.sampled_from(order))
        word = data.draw(st.text(alphabet="abc", min_size=1, max_size=6))
        for horizon in (0, 1, L):
            assert_levels_sorted(FactorSet.from_substitution(sigma, start, horizon))
            assert_levels_sorted(FactorSet.from_substitution(permuted, start, horizon))
            assert_levels_sorted(FactorSet.from_periodic(word, horizon))

    def test_order_on_an_alphabet_not_in_code_point_order(self):
        ba = Alphabet.of("ba")
        fib_ba = Substitution(ba, {"a": "ab", "b": "a"})
        sets = [
            FactorSet.from_directive(ba, repeat(fib_ba), lambda k: {"aa", "ab", "ba"}, 12, "fib"),
            FactorSet.from_words(Alphabet.of("cab"), ["abcab", "ccab", "bacca"], 5),
        ]
        for F in sets:
            for n in range(-1, F.horizon + 2):
                members = [w for w in F.factors if len(w) == n]
                assert F.words_of_length(n) == tuple(sorted(members, key=F.alphabet.key))
        assert sets[0].words_of_length(2) == ("ba", "ab", "aa")
        assert sets[1].words_of_length(1) == ("c", "a", "b")

    def test_the_flat_constructor_buckets_suffixes(self):
        # b is a factor of ab but no prefix of a longer factor
        F = FactorSet.from_words(Alphabet.of("ab"), ["ab"], 3)
        assert F.factors == {"", "a", "b", "ab"}
        assert [F.words_of_length(n) for n in range(4)] == [("",), ("a", "b"), ("ab",), ()]


class TestLazyMembership:
    """Builders keep the levels only; ``factors`` is built from them when first read."""

    @staticmethod
    def built_sets(sigma, L, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        unit = data.draw(st.text(alphabet="abc", min_size=1, max_size=4))
        word = data.draw(st.text(alphabet="abc", min_size=1, max_size=6))
        return [
            FactorSet.from_substitution(sigma, start, L),
            episturmian_factor_set(unit * 64, min(L, 32)),
            FactorSet.from_periodic(word, L),
        ]

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.integers(0, 64), st.data())
    def test_levels_and_factors_follow_the_prefix_chain(self, sigma, L, data):
        for F in self.built_sets(sigma, L, data):
            levels = prefix_chain_levels(F)
            assert [F.words_of_length(n) for n in range(F.horizon + 2)] == [
                *(levels[n] for n in range(F.horizon + 1)), ()]
            assert F.factors == frozenset(chain.from_iterable(levels.values()))
            assert len(F) == len(F.factors)

    @settings(max_examples=30)
    @given(primitive_substitutions(), st.integers(0, 24), st.data())
    def test_reading_levels_builds_no_set(self, sigma, L, data):
        for F in self.built_sets(sigma, L, data):
            F.words_of_length(F.horizon)
            F.complexity(F.horizon)
            F.sorted_words()
            len(F)
            assert "factors" not in vars(F)

    def test_the_first_membership_read_builds_the_set_once(self, fib):
        F = FactorSet.from_substitution(fib, "a", 12)
        assert "factors" not in vars(F)
        assert "aab" in F and "bb" not in F
        built = vars(F)["factors"]
        assert built == frozenset(F.sorted_words())
        F.certify(word="abaab")
        assert F.first_returns("b") == {"ab", "aab"}
        assert F.factors is built

    def test_a_deep_copy_carries_the_built_set(self, fib):
        F = FactorSet.from_substitution(fib, "a", 12)
        before = copy.deepcopy(F)
        assert "factors" not in vars(before)
        assert "aa" in F
        after = copy.deepcopy(F)
        assert vars(after)["factors"] == F.factors
        assert before.factors == F.factors
        assert [after.words_of_length(n) for n in range(13)] == [
            F.words_of_length(n) for n in range(13)]

    def test_the_positional_constructor_keeps_its_set(self):
        members = frozenset({"", "a", "b", "ab", "ba", "aba"})
        F = FactorSet(Alphabet.of("ab"), 3, members, True, "explicit")
        assert vars(F)["factors"] is members
        assert [F.words_of_length(n) for n in range(4)] == [("",), ("a", "b"), ("ab", "ba"),
                                                            ("aba",)]
        assert len(F) == 6 and F.sorted_words() == sorted(members, key=F.alphabet.key)

    def test_an_empty_positional_set(self):
        F = FactorSet(Alphabet.of("ab"), 2, [], True, "nothing")
        assert F.factors == frozenset() and len(F) == 0 and "" not in F
        assert F.words_of_length(0) == () and F.sorted_words() == []

    def test_from_words_keeps_its_set(self):
        F = FactorSet.from_words(Alphabet.of("ab"), ["abba", "bab"], 3)
        assert "factors" in vars(F)
        assert F.factors == factors_of("abba", 3) | factors_of("bab", 3)
        assert [F.words_of_length(n) for n in range(4)] == [
            tuple(sorted(w for w in F.factors if len(w) == n)) for n in range(4)]
        assert len(F) == len(F.factors) == 9


class TestPositionalChecks:
    """The positional constructor and ``from_words`` refuse what no factor set can hold."""

    def test_from_words_refuses_a_negative_horizon(self):
        with pytest.raises(InputError, match="horizon must be nonnegative, got -1"):
            FactorSet.from_words(Alphabet.of("ab"), ["ab"], -1)
        with pytest.raises(InputError, match="horizon must be nonnegative, got -2"):
            FactorSet.from_words(Alphabet.of("ab"), [], -2)

    def test_a_negative_horizon(self):
        with pytest.raises(InputError, match="horizon must be nonnegative, got -1"):
            FactorSet(Alphabet.of("ab"), -1, [""], True, "hand")
        with pytest.raises(InputError, match="horizon must be nonnegative, got -1"):
            FactorSet(Alphabet.of("ab"), -1, (), True, "hand")

    def test_a_letter_outside_the_alphabet(self):
        with pytest.raises(InputError, match="letter 'x' not in alphabet"):
            FactorSet(Alphabet.of("ab"), 1, ["", "a", "b", "x"], True, "hand")
        with pytest.raises(InputError, match="letter 'c' not in alphabet"):
            FactorSet(Alphabet.of("ab"), 3, ["", "a", "b", "abc"], False, "hand")
        with pytest.raises(InputError, match="letter 'x' not in alphabet"):
            FactorSet.from_words(Alphabet.of("ab"), ["ab", "abx"], 3)

    def test_a_member_longer_than_the_horizon(self):
        with pytest.raises(InputError, match="member 'abc' is longer than horizon 1"):
            FactorSet(Alphabet.of("abc"), 1, ["", "a", "b", "c", "abc"], True, "hand")
        with pytest.raises(InputError, match="member 'ab' is longer than horizon 1"):
            FactorSet(Alphabet.of("ab"), 1, ["", "a", "b", "ab"], False, "hand")

    def test_valid_sets_are_kept(self, fib_set):
        F = FactorSet(fib_set.alphabet, fib_set.horizon, fib_set.factors, True, "copy")
        assert F.factors == fib_set.factors and F.complexity(5) == 6
        G = FactorSet(Alphabet.of("ab"), 0, [""], True, "empty word")
        assert G.words_of_length(0) == ("",) and len(G) == 1


class TestDifferentialOracles:
    """Certified queries against direct scans of a long iterate."""

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.data())
    def test_return_words_are_gaps_between_occurrences(self, sigma, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        F = FactorSet.from_substitution(sigma, start, 20)
        w = long_iterate(sigma.images, start)
        # the prefix holding a first occurrence of every factor of F shows
        # every complete return, which is a factor of length <= horizon
        first = {u: w.find(u) for u in F.factors}
        assert min(first.values()) >= 0
        w = w[: max(i + len(u) for u, i in first.items())]
        for x in [u for n in range(4) for u in F.words_of_length(n)]:
            try:
                right = right_return_words(F, x).words
            except InsufficientHorizon:
                continue
            at = [m.start() for m in re.finditer(f"(?={re.escape(x)})", w)]
            k = len(x)
            assert right == {w[p + k : q + k] for p, q in zip(at, at[1:])}
            assert left_return_words(F, x).words == {w[p:q] for p, q in zip(at, at[1:])}

    @settings(max_examples=40)
    @given(primitive_substitutions())
    def test_neutral_sets_follow_the_complexity_law(self, sigma):
        F = FactorSet.from_substitution(sigma, sigma.alphabet.letters[0], 14)
        if classify(F, F.horizon - 2).neutral:
            k = len(F.alphabet)
            assert [F.complexity(m) for m in range(F.horizon + 1)] == [
                (k - 1) * m + 1 for m in range(F.horizon + 1)
            ]
