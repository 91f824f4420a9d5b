"""Return words, the Gamma submonoid identity, and limit truncations."""

import json

import pytest

from minishift.errors import InsufficientHorizon, InternalInvariantError
from minishift.returns import (
    check_gamma_identity,
    conjugate,
    gamma,
    left_return_words,
    limit_return_truncation,
    right_return_words,
    substitution_seeds,
)


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

    def test_json(self, fib_set):
        payload = json.loads(right_return_words(fib_set, "a").to_json())
        assert payload == {"base": "a", "side": "right", "words": ["a", "ba"]}


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

    def test_horizon_guard(self, fib_set):
        with pytest.raises(InsufficientHorizon):
            gamma(fib_set, "a", 20)


class TestTruncation:
    def test_fibonacci_two_stages(self, fib, fib_set_64):
        seeds = substitution_seeds(fib, "a", 2)
        assert seeds[0] == ("aba", "aba")
        tr = limit_return_truncation(fib_set_64, seeds, 2)
        words = [sorted(s.words, key=lambda w: (len(w), w)) for s in tr.stages]
        assert words[0] == ["aba", "ababa"]
        assert words[1] == ["abaababa", "abaababaababa"]

    def test_stage_words_are_substitution_images(self, fib, fib_set_64):
        tr = limit_return_truncation(
            fib_set_64, substitution_seeds(fib, "a", 2), 2
        )
        for n, stage in enumerate(tr.stages, start=1):
            images = {fib.iterate(w, 2 * n) for w in ["a", "ba"]}
            assert stage.words == images

    def test_nesting_is_verified(self, fib, fib_set_64):
        # each later stage decomposes over the earlier one; no error raised
        tr = limit_return_truncation(
            fib_set_64, substitution_seeds(fib, "a", 2), 2
        )
        assert len(tr.stages) == 2

    def test_depth_exceeds_seeds(self, fib, fib_set_64):
        with pytest.raises(ValueError):
            limit_return_truncation(fib_set_64, substitution_seeds(fib, "a", 1), 2)

    def test_json_deterministic(self, fib, fib_set_64):
        seeds = substitution_seeds(fib, "a", 1)
        one = limit_return_truncation(fib_set_64, seeds, 1).to_json()
        two = limit_return_truncation(fib_set_64, seeds, 1).to_json()
        assert one == two
