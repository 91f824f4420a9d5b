"""Palindromic closure, elementary morphisms, directed words and left returns."""

from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.episturmian import (
    episturmian_factor_set,
    episturmian_left_returns,
    is_palindrome,
    justin_check,
    pal,
    palindromic_closure,
    psi,
)
from minishift.errors import BudgetExceeded, InsufficientHorizon
from minishift.returns import left_return_words
from minishift.words import Alphabet, FactorSet


AB = Alphabet.of("ab")
words_ab = st.text(alphabet="ab", max_size=10)


def palindromic_closure_bruteforce(w: str) -> str:
    """Oracle: scan extensions of ``w`` by increasing length."""
    candidate = w
    while not is_palindrome(candidate):
        candidate = w + candidate[: len(candidate) - len(w) + 1][::-1]
        # the closure never exceeds 2|w|
        assert len(candidate) <= 2 * len(w), "palindromic closure overran 2|w|"
    return candidate


def justin_prefix(unit: str, length: int) -> str:
    """Prefix of the standard word directed by ``unit`` repeated, by Justin's recurrence.

    Pal(wa) = Pal(w) a Pal(w) if a does not occur in w, else
    Pal(w) Pal(w1)^-1 Pal(w) with w1 the prefix of w before its last a.
    """
    s, lengths, last, i = "", [0], {}, 0
    while len(s) < length:
        a = unit[i % len(unit)]
        s = s + s[lengths[last[a]] :] if a in last else s + a + s
        last[a] = i
        lengths.append(len(s))
        i += 1
    return s[:length]


# every directive unit of length 3 to 5 over ab or abc that uses each letter
UNITS = [
    "".join(p)
    for letters in ("ab", "abc")
    for n in range(3, 6)
    for p in product(letters, repeat=n)
    if set(p) == set(letters)
]


@lru_cache(maxsize=None)
def directed_prefix(unit: str) -> str:
    """2^13 letters of the word directed by ``unit`` repeated: every factor up to
    length 16 occurs in it (``test_every_unit_matches_the_directed_word``)."""
    return justin_prefix(unit, 2**13)


@st.composite
def infinite_words(draw):
    """A certified set at a horizon L <= 16, and a prefix of its infinite word that
    holds every factor of length <= L: a periodic word or a directed word."""
    horizon = draw(st.integers(0, 16))
    if draw(st.booleans()):
        word = draw(st.text(alphabet="abc", min_size=1, max_size=6))
        return FactorSet.from_periodic(word, horizon), word * (horizon + 2)
    unit = draw(st.sampled_from(UNITS))
    return episturmian_factor_set(unit * 20, horizon), directed_prefix(unit)


class TestClosure:
    def test_examples(self):
        assert palindromic_closure("ab") == "aba"
        assert palindromic_closure("abaa") == "abaaba"

    def test_palindrome_fixed(self):
        for w in ["", "a", "aba", "abba", "aabaa"]:
            assert palindromic_closure(w) == w

    @given(words_ab)
    def test_matches_bruteforce_oracle(self, w):
        assert palindromic_closure(w) == palindromic_closure_bruteforce(w)

    @given(words_ab)
    def test_output_shape(self, w):
        out = palindromic_closure(w)
        assert out.startswith(w)
        assert is_palindrome(out)
        assert len(out) <= 2 * len(w)


class TestPal:
    def test_examples(self):
        assert pal("") == ""
        assert pal("ab") == "aba"
        assert pal("aba") == "abaaba"

    @given(words_ab)
    def test_always_palindrome_prefix_closed(self, u):
        out = pal(u)
        assert is_palindrome(out)
        for i in range(1, len(u) + 1):
            assert out.startswith(pal(u[:i])) or pal(u[:i]).startswith(out)

    def test_tower_growth_bound(self):
        d = "abababab"
        u = [pal(d[:n]) for n in range(len(d) + 1)]
        for n in range(1, len(u) - 1):
            assert len(u[n + 1]) <= 2 * (len(u[n]) + 1)
            assert u[n + 1].startswith(u[n])

    def test_fibonacci_tower_recursion(self, fib):
        # the n+1-st palindromic prefix extends by the n-th iterate
        d = "ababababab"
        u = [pal(d[:n]) for n in range(len(d) + 1)]
        for n in range(len(u) - 1):
            assert u[n + 1] == fib.iterate("a", n) + u[n]
            assert len(u[n]) < len(fib.iterate("a", n + 1))


class TestPsi:
    def test_elementary(self):
        m = psi("a", AB)
        assert m.apply("b") == "ab"
        assert m.apply("a") == "a"

    def test_identity(self):
        m = psi("", AB)
        assert m.apply("abba") == "abba"

    def test_psi_ab_is_fibonacci_squared(self, fib):
        m = psi("ab", AB)
        for letter in "ab":
            assert m.apply(letter) == fib.apply(fib.apply(letter))


class TestJustin:
    def test_examples(self):
        assert justin_check("a", "b")
        assert justin_check("", "bb")
        assert justin_check("ab", "a")

    def test_exhaustive_up_to_total_length_8(self):
        all_words = [
            "".join(p) for n in range(0, 9) for p in product("ab", repeat=n)
        ]
        for u in all_words:
            for v in all_words:
                if len(u) + len(v) <= 8:
                    assert justin_check(u, v, AB)


class TestFactorSet:
    def test_fibonacci_directive(self, fib):
        F = episturmian_factor_set("ab" * 6, 4)
        G = FactorSet.from_substitution(fib, "a", 4)
        assert F.factors == G.factors

    def test_tribonacci_directive(self, trib):
        F = episturmian_factor_set("abc" * 6, 2)
        G = FactorSet.from_substitution(trib, "a", 2)
        assert F.factors == G.factors

    def test_degenerate_single_letter(self):
        F = episturmian_factor_set("aaaa", 2)
        assert F.factors == {"", "a", "aa"}

    def test_prefix_too_short(self):
        with pytest.raises(InsufficientHorizon):
            episturmian_factor_set("ab", 10)

    def test_justin_oracle_matches_pal(self):
        for unit in ("ab", "abc", "aab", "baaa"):
            d = unit * 4
            assert justin_prefix(unit, len(pal(d))) == pal(d)

    @pytest.mark.parametrize("horizon, length", [(16, 2**13), (32, 2**14)])
    def test_every_unit_matches_the_directed_word(self, horizon, length):
        for unit in UNITS:
            w = justin_prefix(unit, length)
            windows = {w[i : i + horizon] for i in range(length - horizon + 1)}
            F = episturmian_factor_set(unit * 20, horizon)
            assert set(F.words_of_length(horizon)) == windows, unit

    def test_repeated_orderings_match_fibonacci_and_tribonacci(self, fib, trib):
        for sigma, unit in ((fib, "ab"), (trib, "abc")):
            G = FactorSet.from_substitution(sigma, "a", 24)
            for horizon in range(25):
                F = episturmian_factor_set(unit * 12, horizon)
                assert F.factors == {w for w in G.factors if len(w) <= horizon}

    def test_long_run_of_one_letter_keeps_the_other(self):
        assert episturmian_factor_set("aaab", 1).factors == {"", "a", "b"}

    def test_tail_missing_a_letter(self):
        with pytest.raises(InsufficientHorizon, match="lacks the letters 'b'"):
            episturmian_factor_set("baaa", 2)


class TestPrefixChain:
    """Sets built from their widest windows by prefixes alone, against a scan."""

    @settings(max_examples=80)
    @given(infinite_words())
    def test_matches_the_factors_of_a_long_prefix(self, built):
        F, w = built
        L, letters = F.horizon, F.alphabet.letters
        assert F.factors == {w[i:j] for i in range(len(w)) for j in range(i, min(i + L, len(w)) + 1)}
        for n in range(L + 2):
            members = [u for u in F.factors if len(u) == n]
            assert F.words_of_length(n) == tuple(
                sorted(members, key=lambda u: [letters.index(c) for c in u]))


class TestLeftReturns:
    def test_single_letter(self):
        assert episturmian_left_returns("ab" * 6, "a") == {"a", "ab"}

    def test_aa(self):
        assert episturmian_left_returns("ab" * 6, "aa") == {"aab", "aabab"}

    def test_image_of_aa(self, fib):
        target = fib.apply(fib.apply("aa"))
        assert target == "abaaba"
        assert episturmian_left_returns("ab" * 8, target) == {"aba", "abaab"}

    def test_missing_factor(self):
        with pytest.raises(InsufficientHorizon):
            episturmian_left_returns("abab", "bb")

    def test_prefixes_past_the_budget_are_refused(self, monkeypatch):
        # Pal((ab)^8) has 4179 letters, and aaa is a factor of none of its prefixes
        monkeypatch.setattr("minishift.episturmian.DEFAULT_PAL_BUDGET", 1000)
        with pytest.raises(BudgetExceeded, match="longer than 1000"):
            pal("ab" * 8)
        with pytest.raises(BudgetExceeded, match="longer than 1000"):
            episturmian_left_returns("ab" * 8, "aaa")
        assert episturmian_left_returns("ab" * 8, "aa") == {"aab", "aabab"}

    @pytest.mark.parametrize("directive, missing", [("abbbbb", "a"), ("ab", "ab")])
    def test_tail_missing_a_letter(self, directive, missing):
        # b first occurs in Pal(ab) = aba, and the letters after ab fix its returns
        with pytest.raises(InsufficientHorizon, match=f"lacks the letters '{missing}'"):
            episturmian_left_returns(directive, "b")

    def test_agrees_with_factor_set_returns(self, fib_set_64):
        for u in ["a", "b", "aa", "ab", "ba", "aba", "aab", "abaab"]:
            direct = left_return_words(fib_set_64, u).words
            recipe = episturmian_left_returns("ab" * 12, u)
            assert recipe == set(direct)
