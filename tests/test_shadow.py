"""Limit expressions over finite monoids, decoders and separation witnesses."""

import math
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.errors import (
    BudgetExceeded,
    InputError,
    NotACode,
    NothingToSeparate,
    NotPrimitive,
    ParseError,
)
from minishift.monoid import (
    cyclic_monoid,
    monoid_from_permutations,
    parse_permutation,
)
from minishift.shadow import (
    Concat,
    Letter,
    MorphismToFinite,
    OmegaPower,
    SubstOmega,
    connective_code,
    evaluate,
    h_order,
    is_code,
    parse_expression,
    separation_witness,
)
from minishift.words import Substitution

from test_words import primitive_substitutions


def eval_by_iteration(subst: Substitution, letter: str, morphism: MorphismToFinite, n: int):
    """Oracle: image of the n!-th iterate, computed by n! update steps."""
    letters = subst.alphabet.letters
    M = morphism.target
    vector = {a: morphism.images[a] for a in letters}
    for _ in range(math.factorial(n)):
        vector = {a: M.product(vector[b] for b in subst.images[a]) for a in letters}
    return vector[letter]


@pytest.fixture(scope="module")
def mod2():
    M = cyclic_monoid(2)
    return MorphismToFinite(M, {"a": 1, "b": 1})


@pytest.fixture(scope="module")
def mod3():
    M = cyclic_monoid(3)
    return MorphismToFinite(M, {"a": 1, "b": 1})


@pytest.fixture(scope="module")
def a_only():
    """A morphism with an image for a only."""
    return MorphismToFinite(cyclic_monoid(3), {"a": 1})


@pytest.fixture(scope="module")
def alt5():
    dom = (1, 2, 3, 4, 5)
    M = monoid_from_permutations(
        {
            "a": parse_permutation("(1 2 3 4 5)", dom),
            "b": parse_permutation("(1 2 3)", dom),
        },
        dom,
    )
    return MorphismToFinite(M, {a: M.image_of_word(a) for a in "ab"})


class TestEvaluate:
    def test_letters_and_concat(self, mod3):
        expr = Concat(Letter("a"), Concat(Letter("b"), Letter("a")))
        assert evaluate(expr, mod3) == 0

    def test_omega_power_is_idempotent(self, mod3, alt5):
        for psi in (mod3, alt5):
            M = psi.target
            val = evaluate(OmegaPower(Letter("a")), psi)
            assert M.mul(val, val) == val

    def test_subst_omega_fibonacci_mod3(self, fib, mod3):
        assert evaluate(SubstOmega(fib, "a"), mod3) == 1

    def test_subst_omega_matches_iteration_oracle(self, fib, mod3, alt5):
        # orbit periods are 8 and 14, both dividing n! from n = 7 on
        for psi in (mod3, alt5):
            want = evaluate(SubstOmega(fib, "a"), psi)
            for n in (7, 8):
                assert eval_by_iteration(fib, "a", psi, n) == want

    @settings(max_examples=40)
    @given(primitive_substitutions(), st.data())
    def test_subst_omega_matches_iteration_on_random_substitutions(self, sigma, data):
        # Z/m images with every orbit period dividing 7!: on three letters
        # Z/3 and Z/5 allow periods such as 13 and 31, so only Z/2 and Z/4
        letters = sigma.alphabet.letters
        m = data.draw(st.sampled_from((2, 3, 4, 5, 6) if len(letters) == 2 else (2, 4)))
        weights = {a: data.draw(st.integers(0, m - 1)) for a in letters}
        psi = MorphismToFinite(cyclic_monoid(m), weights)
        a = data.draw(st.sampled_from(letters))
        assert evaluate(SubstOmega(sigma, a), psi) == eval_by_iteration(sigma, a, psi, 7)

    def test_subst_omega_requires_primitive(self, mod2):
        sigma = Substitution.parse("a->ab;b->b")
        with pytest.raises(NotPrimitive):
            evaluate(SubstOmega(sigma, "a"), mod2)

    def test_a_letter_without_an_image_is_refused(self, a_only):
        with pytest.raises(InputError, match="morphism has no image for 'b'"):
            evaluate(parse_expression("ab"), a_only)

    def test_a_letter_outside_the_substitution_is_refused(self, fib):
        # refused when the expression is built, before any orbit is computed
        with pytest.raises(InputError, match=r"^'c' is not a letter of 'a->ab;b->a'$"):
            SubstOmega(fib, "c")
        with pytest.raises(InputError, match=r"^'c' is not a letter of 'a->ab;b->a'$"):
            parse_expression("subst^w(phi, c)", substitutions={"phi": fib})


class TestHOrder:
    def test_fibonacci_small_moduli(self, fib, mod2, mod3):
        assert h_order(fib, mod2) == 3
        assert h_order(fib, mod3) == 8

    def test_fibonacci_alt5(self, fib, alt5):
        assert h_order(fib, alt5) == 14

    def test_thue_morse_never_returns(self, tm, mod2):
        assert h_order(tm, mod2) == (None, 1, 1)

    def test_order_really_is_a_return(self, fib, mod3):
        n = h_order(fib, mod3)
        start = {a: mod3.images[a] for a in "ab"}
        vec = dict(start)
        M = mod3.target
        for _ in range(n):
            vec = {
                a: M.product(vec[b] for b in fib.images[a]) for a in "ab"
            }
        assert vec == start

    def test_a_letter_without_an_image_is_refused(self, fib, a_only):
        with pytest.raises(InputError, match="morphism has no image for 'b'"):
            h_order(fib, a_only)


def reference_parse_expression(text, substitutions=None):
    """Oracle: the recursive-descent reader (concatenation of postfix atoms) that stood
    before the one-pass token reader, with the same refusal messages."""
    substitutions = substitutions or {}
    pos = 0

    def peek() -> str:
        return text[pos] if pos < len(text) else ""

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_atom():
        nonlocal pos
        skip_ws()
        if text.startswith("subst^w(", pos):
            pos += len("subst^w(")
            close = text.find(")", pos)
            if close < 0:
                raise ParseError("missing ')' in subst^w(...)")
            inner = text[pos:close]
            pos = close + 1
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 2:
                raise ParseError(f"subst^w needs (name, letter), got {inner!r}")
            name, a = parts
            if name not in substitutions:
                raise ParseError(f"unknown substitution {name!r}")
            return SubstOmega(substitutions[name], a)
        if peek() == "(":
            pos += 1
            node = parse_concat()
            skip_ws()
            if peek() != ")":
                raise ParseError("missing ')'")
            pos += 1
            return node
        c = peek()
        if c.isalpha() and c.islower():
            pos += 1
            return Letter(c)
        raise ParseError(f"unexpected {c!r} at position {pos}")

    def parse_postfix():
        nonlocal pos
        node = parse_atom()
        skip_ws()
        while text.startswith("^w", pos):
            pos += 2
            node = OmegaPower(node)
            skip_ws()
        return node

    def parse_concat():
        nonlocal pos
        node = parse_postfix()
        skip_ws()
        while pos < len(text) and peek() not in ")":
            node = Concat(node, parse_postfix())
            skip_ws()
        return node

    node = parse_concat()
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}")
    return node


def tree_or_refusal(read, text, substitutions):
    """The tree ``read`` builds, with each ``SubstOmega`` as (its substitution's id, its
    letter), or the class and message of its refusal."""

    def shape(e):
        if isinstance(e, SubstOmega):
            return "subst", id(e.subst), e.letter
        return e if isinstance(e, Letter) else (type(e).__name__, *map(shape, e))

    try:
        return shape(read(text, substitutions))
    except Exception as exc:
        return type(exc), str(exc)


# text of the expression notation: well-formed expressions, spaced or not, and free
# runs of its tokens
SPACE = st.sampled_from(["", "", " "])
WELL_FORMED = st.recursive(
    st.sampled_from(["a", "b", "subst^w(phi, a)", "subst^w( phi ,b )"]),
    lambda inner: st.one_of(
        st.tuples(inner, SPACE, inner).map("".join),
        st.tuples(SPACE, inner, SPACE).map(lambda t: "(" + "".join(t) + ")"),
        st.tuples(inner, SPACE).map(lambda t: "".join(t) + "^w"),
    ),
    max_leaves=6,
)
EXPRESSION_TEXT = WELL_FORMED | st.lists(st.sampled_from(
    ["a", "b", "c", "ab", "A", "1", "(", ")", "^w", "^", "w", " ", ",", "subst^w(phi, a)",
     "subst^w(psi, a)", "subst^w(phi, c)", "subst^w(", "subst^w(phi)", "phi", "s"]
), max_size=10).map("".join)


class TestParser:
    @settings(max_examples=3000)
    @given(EXPRESSION_TEXT)
    def test_parse_agrees_with_the_reference(self, fib, text):
        named = {"phi": fib}
        assert tree_or_refusal(parse_expression, text, named) == \
            tree_or_refusal(reference_parse_expression, text, named)

    def test_letters(self, mod3):
        assert evaluate(parse_expression("aba"), mod3) == 0

    def test_omega_postfix(self, mod3):
        assert evaluate(parse_expression("(ab)^w"), mod3) == 0
        assert evaluate(parse_expression("a (ba)^w b"), mod3) == 2

    def test_subst_omega_syntax(self, fib, mod3):
        expr = parse_expression(
            "subst^w(phi, a)", substitutions={"phi": fib}
        )
        assert evaluate(expr, mod3) == 1

    def test_parse_errors(self):
        for bad in ["(ab", "a^", "^w", "subst^w(phi a)", "subst^w(nope, a)"]:
            with pytest.raises(ParseError):
                parse_expression(bad, substitutions={})


def brute_force_is_code(X: set[str], maxlen: int = 9) -> bool:
    """No product of at most ``maxlen`` letters spells two different tuples of X."""
    if "" in X:
        return False  # ("",) and () spell the same word
    ways = [Counter({"": 1})]  # ways[n][w]: the number of tuples of X with product w, |w| = n
    for n in range(1, maxlen + 1):
        level = Counter()
        for x in X:
            if len(x) <= n:
                for p, k in ways[n - len(x)].items():
                    level[p + x] += k
        ways.append(level)
    return all(k == 1 for level in ways for k in level.values())


class TestIsCode:
    def test_examples(self):
        assert is_code({"aa", "ab", "ba"})
        assert is_code({"ab", "ba", "abb"})
        assert not is_code({"a", "ab", "b"})
        assert not is_code({"a", "aa"})

    def test_singletons_and_letters(self):
        assert is_code({"abab"})
        assert is_code({"a", "b"})

    def test_against_two_factorizations_by_brute_force(self):
        words = ["".join(p) for n in (1, 2, 3) for p in product("ab", repeat=n)]
        family = [set(X) for k in (1, 2, 3) for X in combinations(words, k)]
        assert len(family) == 469
        for X in family + [{"", "a"}]:
            assert is_code(X) == brute_force_is_code(X), sorted(X)


class TestSeparation:
    def test_fibonacci_connective_code(self, fib_set):
        assert connective_code(fib_set, "a", "b") == {"ab", "aab"}

    def test_separates_parity(self, fib_set, mod2):
        X = connective_code(fib_set, "a", "b")
        beta = {"a": "ab", "b": "aab"}
        rep = separation_witness(X, beta, mod2, "a", "ab")
        assert rep.separated
        assert rep.prefixes == ("", "a", "aa")
        assert rep.decode_checks == 102
        assert rep.matrix_monoid_size == 21
        assert rep.alpha_u != rep.alpha_v

    def test_nothing_to_separate(self, fib_set, mod2):
        X = connective_code(fib_set, "a", "b")
        beta = {"a": "ab", "b": "aab"}
        with pytest.raises(NothingToSeparate):
            separation_witness(X, beta, mod2, "ab", "ba")

    def test_not_a_code(self, mod2):
        with pytest.raises(NotACode):
            separation_witness({"a", "ab", "b"}, {"a": "a", "b": "ab", "c": "b"}, mod2, "a", "aa")

    def test_matrix_monoid_budget(self, fib_set, mod2, monkeypatch):
        monkeypatch.setattr("minishift.shadow.DEFAULT_MONOID_BUDGET", 2)
        X = connective_code(fib_set, "a", "b")
        with pytest.raises(BudgetExceeded):
            separation_witness(X, {"a": "ab", "b": "aab"}, mod2, "a", "ab")

    @pytest.mark.parametrize("u, v", [("a", "c"), ("ac", "b")])
    def test_a_letter_without_a_beta_image(self, fib_set, mod2, u, v):
        X = connective_code(fib_set, "a", "b")
        with pytest.raises(InputError, match="letter 'c' of u or v has no image under beta"):
            separation_witness(X, {"a": "ab", "b": "aab"}, mod2, u, v)

    def test_a_beta_letter_without_a_psi_image(self, a_only):
        with pytest.raises(InputError, match="morphism has no image for 'b'"):
            separation_witness({"ab", "aab"}, {"a": "ab", "b": "aab"}, a_only, "a", "ab")

    def test_bad_bijection(self, mod2):
        with pytest.raises(ValueError):
            separation_witness({"aa", "ab"}, {"a": "aa"}, mod2, "a", "aa")
