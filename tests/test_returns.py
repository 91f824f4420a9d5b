"""Return words, the Gamma submonoid identity, and limit truncations."""

import copy
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.episturmian import episturmian_factor_set
from minishift.errors import InsufficientHorizon, InternalInvariantError
import minishift.returns as returns_mod
from minishift.returns import (
    ReturnSet,
    check_gamma_identity,
    conjugate,
    gamma,
    left_return_words,
    limit_return_truncation,
    right_return_words,
)
from minishift.words import Alphabet, FactorSet, occurrences, shortlex, star_factorization
from test_words import primitive_substitutions


def scanned_witness(F, x):
    """Oracle: the least n <= L with x in every factor of length n."""
    if x not in F:
        raise ValueError(f"{x!r} is not a factor")
    if not F.complete:
        raise InsufficientHorizon("factor set is not certified complete")
    if x == "":
        return 0
    for n in range(len(x), F.horizon + 1):
        if all(x in w for w in F.words_of_length(n)):
            return n
    raise InsufficientHorizon(
        f"no uniform recurrence witness for {x!r} within horizon {F.horizon}"
    )


def scanned_return_words(F, x):
    """Oracle: every factor of each length up to witness + 1 that starts and
    ends with x and holds exactly two occurrences of it."""
    if x not in F:
        raise ValueError(f"{x!r} is not a factor")
    n = scanned_witness(F, x)
    if n + 1 > F.horizon:
        raise InsufficientHorizon(
            f"return words to {x!r} may have complete-return length {n + 1}, "
            f"beyond horizon {F.horizon}"
        )
    out = set()
    for length in range(len(x) + 1, n + 2):
        for z in F.words_of_length(length):
            if z.startswith(x) and z.endswith(x) and occurrences(x, z) == 2:
                out.add(z[len(x):])
    return frozenset(out)


def outcome(f, *args):
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def assert_walk_matches_scan(F, maxlen=4):
    for n in range(min(maxlen, F.horizon) + 1):
        for x in F.words_of_length(n):
            right = outcome(scanned_return_words, F, x)
            left = right if isinstance(right, tuple) else conjugate(right, x)
            assert outcome(lambda: right_return_words(F, x).words) == right
            assert outcome(lambda: left_return_words(F, x).words) == left
            witness = outcome(scanned_witness, F, x)
            assert outcome(F.uniform_recurrence_witness, x) == witness


def two_scan_gamma_identity(F, x, maxlen):
    """Oracle: Gamma against the factors x w with w a product of return words, scanned apart."""
    left_side = gamma(F, x, maxlen)
    returns = returns_mod.right_return_words(F, x).words
    right_side = {
        z[len(x):]
        for n in range(len(x), len(x) + maxlen + 1)
        for z in F.words_of_length(n)
        if z.startswith(x) and n in star_factorization(z, len(x), returns)
    }
    return left_side == right_side


def count_walks(F):
    """Record each x that ``F`` walks from now on; answers read from its store are not walks."""
    walks = []
    walk = F._walk

    def counted(x):
        walks.append(x)
        return walk(x)

    F._walk = counted
    return walks


class TestRightReturns:
    def test_fibonacci_letters(self, fib_set):
        assert right_return_words(fib_set, "a").sorted_words() == ["a", "ba"]
        assert right_return_words(fib_set, "b").sorted_words() == ["ab", "aab"]

    def test_thue_morse(self, tm_set):
        assert right_return_words(tm_set, "a").sorted_words() == ["a", "ba", "bba"]
        assert right_return_words(tm_set, "aa").sorted_words() == [
            "bbaa", "babbaa", "bbabaa", "babbabaa",
        ]

    def test_cardinality_on_tree_sets(self, fib_set, trib_set):
        # tree sets have exactly |A| return words to every base
        for F, top in ((fib_set, 3), (trib_set, 2)):
            for n in range(1, top + 1):
                for x in F.words_of_length(n):
                    assert len(right_return_words(F, x).words) == len(F.alphabet)

    def test_each_return_concatenation_is_factor(self, fib_set):
        for x in ["a", "b", "ab", "aba"]:
            for w in right_return_words(fib_set, x).words:
                z = x + w
                assert z in fib_set
                assert z.endswith(x)
                assert sum(
                    z.startswith(x, i) for i in range(len(z))
                ) == 2

    def test_unknown_factor(self, fib_set):
        with pytest.raises(ValueError):
            right_return_words(fib_set, "bb")

    def test_horizon_guard(self, fib):
        from minishift.words import FactorSet

        small = FactorSet.from_substitution(fib, "a", 3)
        with pytest.raises(InsufficientHorizon):
            right_return_words(small, "aa")

    def test_fields(self, fib_set):
        R = right_return_words(fib_set, "a")
        assert (R.base, R.side, R.sorted_words()) == ("a", "right", ["a", "ba"])


class TestWalkAgainstScan:
    """The right-extension walk against the scan over every length."""

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.integers(0, 24), st.data())
    def test_primitive_substitutions(self, sigma, horizon, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        assert_walk_matches_scan(FactorSet.from_substitution(sigma, start, horizon))

    @pytest.mark.parametrize("word", ["a", "ab", "aab", "abcabba"])
    def test_periodic(self, word):
        assert_walk_matches_scan(FactorSet.from_periodic(word, 24))

    def test_episturmian(self):
        assert_walk_matches_scan(episturmian_factor_set("bca" * 12, 32))

    def test_fixtures(self, fib_set, tm_set, trib_set, quad_set):
        for F in (fib_set, tm_set, trib_set, quad_set):
            assert_walk_matches_scan(F, maxlen=6)

    def test_empty_base_returns_the_letters(self, trib_set):
        assert right_return_words(trib_set, "").words == {"a", "b", "c"}
        assert left_return_words(trib_set, "").words == {"a", "b", "c"}

    def test_empty_base_at_horizon_zero(self, fib):
        with pytest.raises(InsufficientHorizon):
            right_return_words(FactorSet.from_substitution(fib, "a", 0), "")

    def test_horizon_at_the_witness(self, fib, fib_set_64):
        n = fib_set_64.uniform_recurrence_witness("aba")
        short = FactorSet.from_substitution(fib, "a", n)
        with pytest.raises(InsufficientHorizon, match=f"length {n + 1}"):
            right_return_words(short, "aba")
        enough = FactorSet.from_substitution(fib, "a", n + 1)
        assert right_return_words(enough, "aba") == right_return_words(fib_set_64, "aba")

    def test_dead_end_below_the_horizon(self):
        # not extendable: "ab" has no right extension, yet it is shorter
        # than the horizon, so the set cannot be a certified one
        F = FactorSet(Alphabet.of("ab"), 3, ["", "a", "b", "ab", "ba"], True, "bad")
        with pytest.raises(InternalInvariantError):
            right_return_words(F, "a")
        with pytest.raises(InternalInvariantError):
            F.uniform_recurrence_witness("a")

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.integers(0, 24), st.data())
    def test_stored_walks_in_the_other_order(self, sigma, horizon, data):
        # left, then witness, then right, twice: the walk is stored by the
        # first query, and every later answer read from the store is the scan's
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        F = FactorSet.from_substitution(sigma, start, horizon)
        xs = [x for n in range(min(4, horizon) + 1) for x in F.words_of_length(n)]
        scans = {}
        for x in xs:
            right = outcome(scanned_return_words, F, x)
            left = right if isinstance(right, tuple) else conjugate(right, x)
            scans[x] = left, outcome(scanned_witness, F, x), right
        for _ in range(2):
            for x in xs:
                left, witness, right = scans[x]
                assert outcome(lambda: left_return_words(F, x).words) == left
                assert outcome(F.uniform_recurrence_witness, x) == witness
                assert outcome(lambda: right_return_words(F, x).words) == right

    @pytest.mark.parametrize("x", ["a", "b", "aba"])
    def test_answered_without_the_length_index(self, fib_set_64, monkeypatch, x):
        # the walk alone certifies: no scan over the factors of a length
        expected = right_return_words(fib_set_64, x).words

        def refuse(self, n):
            raise AssertionError(f"words_of_length({n}) read on the answered path")

        monkeypatch.setattr(FactorSet, "words_of_length", refuse)
        assert right_return_words(fib_set_64, x).words == expected
        assert fib_set_64.uniform_recurrence_witness(x) == len(x) + max(map(len, expected)) - 1

    @pytest.mark.parametrize("horizon, x, message", [
        (3, "a", "return words to 'a' may have complete-return length 4, beyond horizon 3"),
        (8, "aa", "no uniform recurrence witness for 'aa' within horizon 8"),
    ], ids=["witness-at-the-horizon", "no-witness"])
    def test_refused_query_walks_once(self, tm, horizon, x, message):
        # a cut walk is worded from the stored walk and the length-L words, not a second walk
        F = FactorSet.from_substitution(tm, "a", horizon)
        walks = count_walks(F)
        with pytest.raises(InsufficientHorizon) as refused:
            right_return_words(F, x)
        assert walks == [x]
        assert str(refused.value) == message


class TestStoredWalks:
    """Each x is walked once per set; only a finished or a cut walk is stored."""

    @pytest.mark.parametrize("name, horizon", [("fib", 16), ("tm", 24), ("trib", 32), ("quad", 32)])
    def test_right_then_left_walks_once(self, request, name, horizon):
        F = FactorSet.from_substitution(request.getfixturevalue(name), "a", horizon)
        walks = count_walks(F)
        xs = [x for n in range(4) for x in F.words_of_length(n)]
        for x in xs:
            right = right_return_words(F, x).words
            assert left_return_words(F, x).words == conjugate(right, x)
        assert walks == xs

    def test_witness_and_gamma_after_a_right_query(self, fib):
        F = FactorSet.from_substitution(fib, "a", 16)
        walks = count_walks(F)
        for x in ["a", "b", "ab"]:
            returns = right_return_words(F, x).words
            assert F.uniform_recurrence_witness(x) == len(x) + max(map(len, returns)) - 1
            assert check_gamma_identity(F, x, 10)
        assert walks == ["a", "b", "ab"]

    @pytest.mark.parametrize("horizon, x", [(3, "a"), (8, "aa")])
    def test_cut_walk_is_stored_as_none(self, tm, horizon, x):
        F = FactorSet.from_substitution(tm, "a", horizon)
        walks = count_walks(F)
        assert F.first_returns(x) is None
        assert F.first_returns(x) is None
        assert walks == [x]
        assert F._returns == {x: None}

    @pytest.mark.parametrize("order", list(itertools.permutations(["right", "left", "witness"])))
    @pytest.mark.parametrize("horizon, x", [(3, "a"), (8, "aa")])
    def test_refusal_in_any_order(self, tm, horizon, x, order):
        # the stored None is worded as the walk's own refusal, whichever query comes first
        F = FactorSet.from_substitution(tm, "a", horizon)
        right = outcome(scanned_return_words, F, x)
        expected = {"right": right, "left": right, "witness": outcome(scanned_witness, F, x)}
        assert right[0] is InsufficientHorizon
        queries = {
            "right": lambda: right_return_words(F, x).words,
            "left": lambda: left_return_words(F, x).words,
            "witness": lambda: F.uniform_recurrence_witness(x),
        }
        walks = count_walks(F)
        for query in order + order:
            assert outcome(queries[query]) == expected[query]
        assert walks == [x]

    def test_non_factor_raises_on_every_call(self, fib):
        F = FactorSet.from_substitution(fib, "a", 16)
        walks = count_walks(F)
        for _ in range(2):
            for query in (right_return_words, left_return_words, FactorSet.uniform_recurrence_witness):
                with pytest.raises(ValueError, match="'bb' is not a factor"):
                    query(F, "bb")
        assert walks == []
        assert F._returns == {}

    def test_uncertified_set_raises_on_every_call(self):
        F = FactorSet(Alphabet.of("ab"), 3, ["", "a", "b", "ab", "ba"], False, "bad")
        for _ in range(2):
            with pytest.raises(InsufficientHorizon, match="not certified complete"):
                right_return_words(F, "a")
        assert F._returns == {}

    def test_dead_end_raises_on_both_calls(self):
        F = FactorSet(Alphabet.of("ab"), 3, ["", "a", "b", "ab", "ba"], True, "bad")
        walks = count_walks(F)
        for _ in range(2):
            with pytest.raises(InternalInvariantError,
                               match="'ab' has no right extension below horizon 3"):
                right_return_words(F, "a")
        with pytest.raises(InternalInvariantError):
            F.uniform_recurrence_witness("a")
        assert walks == ["a", "a", "a"]
        assert F._returns == {}

    def test_deep_copies_keep_their_own_walks(self, fib):
        F = FactorSet.from_substitution(fib, "a", 16)
        right_return_words(F, "a")
        G = copy.deepcopy(F)
        copied, own = count_walks(G), count_walks(F)
        assert right_return_words(G, "a") == right_return_words(F, "a")
        assert right_return_words(G, "b").words == {"ab", "aab"}
        assert copied == ["b"] and own == []
        assert "b" not in F._returns
        right_return_words(F, "b")
        assert own == ["b"] and copied == ["b"]


class TestConjugate:
    def test_conjugates_by_the_suffix(self):
        assert conjugate({"ba", "a"}, "a") == {"ab", "a"}
        assert conjugate({"ba", "a"}, "") == {"ba", "a"}

    def test_word_not_ending_with_the_suffix(self):
        with pytest.raises(InternalInvariantError):
            conjugate({"ab"}, "a")


class TestLeftReturns:
    def test_fibonacci(self, fib_set):
        assert left_return_words(fib_set, "a").sorted_words() == ["a", "ab"]
        assert left_return_words(fib_set, "ab").sorted_words() == ["ab", "aba"]

    def test_conjugate_of_right(self, fib_set, tm_set):
        for F, bases in ((fib_set, ["a", "ab", "aba"]), (tm_set, ["a", "aa"])):
            for x in bases:
                right = right_return_words(F, x).words
                left = left_return_words(F, x).words
                assert left == {(x + w)[: len(w)] for w in right}

    def test_left_returns_start_with_base(self, fib_set):
        for x in ["a", "ab", "aba"]:
            for w in left_return_words(fib_set, x).words:
                assert (w + x).startswith(x)
                assert w + x in fib_set


class TestGamma:
    def test_small_fibonacci(self, fib_set):
        got = sorted(gamma(fib_set, "a", 3), key=lambda w: (len(w), w))
        assert got == ["", "a", "ba", "aba", "baa"]

    def test_contains_all_short_returns(self, fib_set):
        g = gamma(fib_set, "b", 8)
        for w in right_return_words(fib_set, "b").words:
            assert w in g

    def test_identity_fibonacci(self, fib_set):
        for x in ["a", "b", "ab"]:
            assert check_gamma_identity(fib_set, x, 10)

    def test_identity_thue_morse(self, tm_set):
        assert check_gamma_identity(tm_set, "a", 12)
        assert check_gamma_identity(tm_set, "aa", 12)

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.integers(0, 24), st.data())
    def test_identity_against_two_scans(self, sigma, horizon, data):
        """Also with the shortlex-last return word dropped, where the identity can fail."""

        def drop_last(F, x):
            words = sorted(right_return_words(F, x).words, key=shortlex)
            return ReturnSet(x, "right", frozenset(words[:-1]))

        F = FactorSet.from_substitution(sigma, "a", horizon)
        maxlen = data.draw(st.integers(-1, horizon + 1))
        for n in range(min(3, horizon) + 1):
            for x in [*F.words_of_length(n), "cc"]:
                assert outcome(check_gamma_identity, F, x, maxlen) == \
                    outcome(two_scan_gamma_identity, F, x, maxlen)
                with mock.patch.object(returns_mod, "right_return_words", drop_last):
                    assert outcome(check_gamma_identity, F, x, maxlen) == \
                        outcome(two_scan_gamma_identity, F, x, maxlen)

    def test_identity_fails_without_a_return_word(self, fib_set):
        def without_ba(F, x):
            return ReturnSet(x, "right", right_return_words(F, x).words - {"ba"})

        with mock.patch.object(returns_mod, "right_return_words", without_ba):
            assert not check_gamma_identity(fib_set, "a", 3)
            assert not two_scan_gamma_identity(fib_set, "a", 3)

    def test_horizon_guard(self, fib_set):
        with pytest.raises(InsufficientHorizon):
            gamma(fib_set, "a", 20)

    def test_negative_length(self, fib_set):
        assert gamma(fib_set, "a", 0) == {""}
        with pytest.raises(ValueError):
            gamma(fib_set, "a", -2)


def substitution_seeds(subst, letter, depth):
    """Default seeds (sigma^(2n)(a), sigma^(2n)(a)) for n = 1..depth."""
    return [
        (subst.iterate(letter, 2 * n), subst.iterate(letter, 2 * n))
        for n in range(1, depth + 1)
    ]


class TestTruncation:
    def test_fibonacci_two_stages(self, fib, fib_set_64):
        seeds = substitution_seeds(fib, "a", 2)
        assert seeds[0] == ("aba", "aba")
        tr = limit_return_truncation(fib_set_64, seeds, 2)
        words = [sorted(s.words, key=lambda w: (len(w), w)) for s in tr]
        assert words[0] == ["aba", "ababa"]
        assert words[1] == ["abaababa", "abaababaababa"]

    def test_stage_words_are_substitution_images(self, fib, fib_set_64):
        tr = limit_return_truncation(
            fib_set_64, substitution_seeds(fib, "a", 2), 2
        )
        for n, stage in enumerate(tr, start=1):
            images = {fib.iterate(w, 2 * n) for w in ["a", "ba"]}
            assert stage.words == images

    def test_nesting_is_verified(self, fib, fib_set_64):
        # each later stage decomposes over the earlier one; no error raised
        tr = limit_return_truncation(
            fib_set_64, substitution_seeds(fib, "a", 2), 2
        )
        assert len(tr) == 2

    def test_stage_that_does_not_nest_is_refused(self, fib_set_64):
        # b R(ab) b^-1 holds baa, which is no product of aba and ababa
        with pytest.raises(InternalInvariantError):
            limit_return_truncation(fib_set_64, [("aba", "aba"), ("a", "b")], 2)

    def test_depth_exceeds_seeds(self, fib, fib_set_64):
        with pytest.raises(ValueError):
            limit_return_truncation(fib_set_64, substitution_seeds(fib, "a", 1), 2)

    def test_negative_depth(self, fib, fib_set_64):
        with pytest.raises(ValueError, match="depth must be nonnegative"):
            limit_return_truncation(fib_set_64, substitution_seeds(fib, "a", 2), -1)
