"""Bifix codes, parse degrees, group code intersections and star automata."""

import tracemalloc
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.bifix import (
    BifixCode,
    GroupCodeSpec,
    f_degree,
    g_x_f,
    group_code_intersection,
    is_bifix,
    is_prefix_free,
    is_suffix_free,
    minimal_automaton_of_star,
    parses,
)
from minishift.errors import InputError, InsufficientHorizon
from minishift.monoid import Automaton, parse_permutation, transition_monoid
from minishift.words import Alphabet, FactorSet, shortlex
from test_words import primitive_substitutions


def moore_automaton_of_star(X: BifixCode) -> Automaton:
    """Oracle: the literal trie of X minimized by Moore refinement.

    The root is the only terminal state; a missing transition goes to an
    explicit sink.  The classes are numbered breadth-first from the root.
    """
    alphabet = Alphabet.of(sorted({c for w in X.words for c in w}))
    states = sorted({w[:i] for w in X.words for i in range(len(w))}, key=shortlex)
    trans = {}
    for p in states:
        for a in alphabet:
            q = p + a
            trans[(p, a)] = "" if q in X.words else q if q in states else None
    sink = object()
    everything = states + [sink]
    block = {s: 0 if s == "" else 1 if s is not sink else 2 for s in everything}
    while True:
        signature = {
            s: (block[s], tuple(
                block[sink if s is sink or trans[(s, a)] is None else trans[(s, a)]]
                for a in alphabet
            ))
            for s in everything
        }
        relabel = {}
        for s in everything:
            relabel.setdefault(signature[s], len(relabel))
        new_block = {s: relabel[signature[s]] for s in everything}
        if new_block == block:
            break
        block = new_block
    number = {block[""]: 1}
    queue = [""]
    for s in queue:
        for a in alphabet:
            t = trans[(s, a)]
            if t is not None and block[t] not in number:
                number[block[t]] = len(number) + 1
                queue.append(t)
    transitions = {
        (number[block[s]], a): number[block[trans[(s, a)]]]
        for s in states
        for a in alphabet
        if trans[(s, a)] is not None
    }
    return Automaton(alphabet, tuple(number.values()), 1, frozenset({1}), transitions)


@st.composite
def bifix_codes(draw):
    """Random bifix codes over ab or abc: each drawn word is kept unless it
    is a prefix or a suffix of a kept word, or has one as a prefix or suffix."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    drawn = draw(st.lists(st.text(alphabet=letters, min_size=1, max_size=8), min_size=1, max_size=8))
    kept: list[str] = []
    for w in drawn:
        if not any(u.startswith(w) or w.startswith(u) or u.endswith(w) or w.endswith(u)
                   for u in kept):
            kept.append(w)
    return BifixCode.of(kept)


def searched_orbit_size(spec: GroupCodeSpec) -> int:
    """Oracle: the base point's orbit under the letter images, by a search of its own."""
    orbit = {spec.base_point}
    queue = [spec.base_point]
    while queue:
        p = queue.pop()
        for g in spec.images.values():
            if g[p] not in orbit:
                orbit.add(g[p])
                queue.append(g[p])
    return len(orbit)


def first_return_intersection(spec: GroupCodeSpec, F: FactorSet) -> BifixCode:
    """Oracle: ``group_code_intersection`` as a walk from the base point for every factor."""
    F.certify()
    base = spec.base_point

    def first_return(w: str) -> int | None:
        p = base
        for i, a in enumerate(w, 1):
            p = spec.images[a][p]
            if p == base:
                return i
        return None

    out = {w for w in F.factors if w and first_return(w) == len(w)}
    for w in F.words_of_length(F.horizon):
        if first_return(w) is None:
            raise InsufficientHorizon(f"factor {w!r} has no code-word prefix; horizon too small")
    return BifixCode.of(out)


def code_or_refusal(intersection, spec: GroupCodeSpec, F: FactorSet):
    """The sorted code words, or the message of the ``InsufficientHorizon`` raised."""
    try:
        return intersection(spec, F).sorted_words()
    except InsufficientHorizon as exc:
        return str(exc)


@st.composite
def specs_on(draw, letters: str):
    """A cyclic spec Z/m with m <= 6, or one to five points permuted at random,
    with an image for each of ``letters``."""
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        return GroupCodeSpec.cyclic(m, {a: draw(st.integers(-m, m)) for a in letters})
    dom = tuple(range(1, draw(st.integers(1, 5)) + 1))
    images = {a: dict(zip(dom, draw(st.permutations(dom)))) for a in letters}
    return GroupCodeSpec(dom, images, draw(st.sampled_from(dom)))


@st.composite
def group_code_specs(draw):
    """One to three letters acting on up to seven points, named by ints or by text."""
    n = draw(st.integers(1, 7))
    dom = draw(st.sampled_from([tuple(range(n)), tuple("pqrstuv"[:n])]))
    letters = "abc"[: draw(st.integers(1, 3))]
    images = {a: dict(zip(dom, draw(st.permutations(dom)))) for a in letters}
    return GroupCodeSpec(dom, images, draw(st.sampled_from(dom)))


class TestFreeness:
    def test_prefix_free(self):
        assert is_prefix_free(["aa", "ab", "ba"])
        assert not is_prefix_free(["a", "ab"])

    def test_suffix_free(self):
        assert is_suffix_free(["aa", "ab", "ba"])
        assert not is_suffix_free(["b", "ab"])

    def test_bifix(self):
        assert is_bifix(["ab", "ba", "aa", "bb"])
        assert not is_bifix(["ab", "b"])
        assert not is_bifix(["ba", "a"])

    def test_code_constructor_validates(self):
        with pytest.raises(ValueError):
            BifixCode.of(["a", "ab"])
        X = BifixCode.of(["ba", "ab"])
        assert X.sorted_words() == ["ab", "ba"]
        assert X.max_length() == 2

    def test_empty_code_is_refused(self):
        # no root prefix for the automaton and no max_length: refused up front
        with pytest.raises(ValueError, match="at least one word"):
            BifixCode.of([])


class TestParses:
    def test_example(self):
        X = BifixCode.of(["aa", "ab", "ba"])
        got = {(p.prefix, p.blocks, p.suffix) for p in parses("aab", X)}
        assert got == {("", ("aa",), "b"), ("a", ("ab",), "")}

    def test_whole_word_in_star(self):
        X = BifixCode.of(["aa", "ab", "ba"])
        assert ("", ("ab", "ba"), "") in {
            (p.prefix, p.blocks, p.suffix) for p in parses("abba", X)
        }

    def test_word_recomposes(self):
        X = BifixCode.of(["aa", "ab", "ba"])
        for w in ["aab", "abba", "baab", "a"]:
            for p in parses(w, X):
                assert p.word() == w

    def test_internal_factor_all_splits(self):
        # no block fits and no split is blocked, so every cut point parses
        X = BifixCode.of(["aabaa"])
        assert len(parses("ab", X)) == 3
        assert all(p.blocks == () for p in parses("ab", X))


class TestDegree:
    def test_fibonacci_z2(self, fib_set):
        X = BifixCode.of(["aa", "ab", "ba"])
        assert f_degree(X, fib_set) == 2

    def test_thue_morse_z3(self, tm_set):
        X = BifixCode.of(["aab", "aba", "abb", "baa", "bab", "bba"])
        assert f_degree(X, tm_set) == 3

    def test_alphabet_itself_degree_one(self, fib_set):
        assert f_degree(BifixCode.of(["a", "b"]), fib_set) == 1

    def test_requires_complete_set(self, fib):
        X = BifixCode.of(["a" * 20])
        with pytest.raises(InsufficientHorizon):
            f_degree(X, FactorSet.from_substitution(fib, "a", 16))


def max_parse_count(X: BifixCode, F: FactorSet) -> int:
    """Oracle for ``f_degree``: the most parses that ``parses`` lists on a factor of length max |x|."""
    return max(len(parses(w, X)) for w in F.words_of_length(X.max_length()))


# Generating pairs of A5 and S5 as cycles of 1..5, and relabellings of the points.
PERMUTATION_PAIRS = {"A5": ("(1 2 3)", "(3 4 5)"), "S5": ("(1 2 3 4 5)", "(1 2)")}
RELABELLINGS = [(1, 2, 3, 4, 5), (2, 3, 1, 4, 5), (5, 4, 3, 2, 1), (3, 1, 5, 2, 4)]


def relabelled_spec(pair: str, pi: tuple, letters: list[str]) -> GroupCodeSpec:
    """The pair's action with point p renamed pi[p - 1], base point 1; a third
    letter acts as the first then the second."""
    dom = (1, 2, 3, 4, 5)
    a, b = (parse_permutation(text, dom) for text in PERMUTATION_PAIRS[pair])
    perms = [a, b, {p: b[a[p]] for p in dom}]
    images = {x: {pi[p - 1]: pi[g[p] - 1] for p in dom} for x, g in zip(letters, perms)}
    return GroupCodeSpec(dom, images, 1)


class TestDegreeByCuts:
    """``f_degree`` counts cuts; ``parses`` lists every parse: the two must agree."""

    @pytest.mark.parametrize(
        "fixture, answered",
        [("fib_set_64", 55), ("tm_set_64", 55), ("trib_set_64", 221), ("quad_set", 55)],
    )
    def test_cyclic_group_codes(self, request, fixture, answered):
        F = request.getfixturevalue(fixture)
        letters = F.words_of_length(1)
        seen = 0
        for m in range(1, 6):
            for weights in product(range(m), repeat=len(letters)):
                spec = GroupCodeSpec.cyclic(m, dict(zip(letters, weights)))
                try:
                    X = group_code_intersection(spec, F)
                except InsufficientHorizon:
                    continue
                assert f_degree(X, F) == max_parse_count(X, F), (m, weights)
                seen += 1
        assert seen == answered

    @pytest.mark.parametrize("pair", sorted(PERMUTATION_PAIRS))
    @pytest.mark.parametrize("fixture", ["fib_set_64", "tm_set_64", "trib_set_64", "quad_set"])
    def test_relabelled_permutation_codes(self, request, fixture, pair):
        F = request.getfixturevalue(fixture)
        for pi in RELABELLINGS:
            X = group_code_intersection(relabelled_spec(pair, pi, F.words_of_length(1)), F)
            assert f_degree(X, F) == max_parse_count(X, F) == 5, pi

    @pytest.mark.parametrize(
        "words, degree",
        [
            (["a", "b"], 1),
            (["aa", "ab", "ba"], 2),
            (["aab", "aba", "abb", "baa", "bab", "bba"], 3),
            (["aba"], 4),
            (["aa", "bab", "baab"], 4),
            (["aabaa"], 6),
        ],
    )
    def test_hand_written_codes(self, fib_set_64, words, degree):
        X = BifixCode.of(words)
        assert f_degree(X, fib_set_64) == max_parse_count(X, fib_set_64) == degree


class TestGroupCodes:
    def test_cyclic_spec_degree(self):
        assert GroupCodeSpec.cyclic(5, {"a": 1, "b": 1}).degree() == 5
        assert GroupCodeSpec.cyclic(3, {"a": 0, "b": 1}).degree() == 3

    def test_cyclic_spec_of_modulus_zero(self):
        with pytest.raises(ValueError, match="modulus must be positive"):
            GroupCodeSpec.cyclic(0, {"a": 1, "b": 1})

    def test_from_cycles(self):
        spec = GroupCodeSpec.from_cycles(
            (1, 2, 3), {"a": "(1 2 3)", "b": "(1 2)"}
        )
        assert spec.degree() == 3
        assert spec.base_point == 1

    def test_an_empty_domain_without_a_base_point_is_refused(self):
        with pytest.raises(InputError, match="an empty domain has no base point"):
            GroupCodeSpec.from_cycles((), {})

    @pytest.mark.parametrize("base_point", ["1", 0, 6])
    def test_base_point_outside_the_domain_is_refused(self, base_point):
        # refused where it is given, not as a KeyError in the intersection's point walk
        with pytest.raises(InputError, match=r"base point .* not in domain \(1, 2, 3\)"):
            GroupCodeSpec.from_cycles((1, 2, 3), {"a": "(1 2 3)", "b": "(1 2)"}, base_point)

    def test_a_letter_without_an_image_is_refused(self, fib_set):
        spec = GroupCodeSpec.from_cycles((1, 2, 3), {"a": "(1 2 3)"})
        with pytest.raises(InputError, match="group code has no image for 'b'"):
            group_code_intersection(spec, fib_set)

    def test_fibonacci_meets_z2(self, fib_set):
        spec = GroupCodeSpec.cyclic(2, {"a": 1, "b": 1})
        X = group_code_intersection(spec, fib_set)
        assert X.sorted_words() == ["aa", "ab", "ba"]

    def test_thue_morse_meets_z3(self, tm_set):
        spec = GroupCodeSpec.cyclic(3, {"a": 1, "b": 1})
        X = group_code_intersection(spec, tm_set)
        assert X.sorted_words() == ["aab", "aba", "abb", "baa", "bab", "bba"]

    @settings(max_examples=150)
    @given(group_code_specs())
    def test_degree_against_a_search(self, spec):
        assert spec.degree() == searched_orbit_size(spec)

    @settings(max_examples=150)
    @given(st.integers(1, 40), st.lists(st.integers(-50, 50) | st.just(0), max_size=3))
    def test_degree_of_a_cyclic_spec_against_a_search(self, m, weights):
        spec = GroupCodeSpec.cyclic(m, dict(zip("abc", weights)))
        assert spec.degree() == searched_orbit_size(spec)

    def test_degree_of_a_large_cyclic_spec_needs_no_closure(self):
        tracemalloc.start()
        try:
            degrees = [GroupCodeSpec.cyclic(300_000, weights).degree()
                       for weights in ({"a": 1, "b": 1}, {"a": 4, "b": 6}, {"a": 0})]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert degrees == [300_000, 150_000, 1]
        assert peak < 100_000

    def test_degree_of_an_intransitive_action(self):
        spec = GroupCodeSpec.from_cycles((1, 2, 3, 4, 5), {"a": "(1 2)", "b": "(3 4 5)"})
        assert spec.degree() == searched_orbit_size(spec) == 2
        assert GroupCodeSpec(spec.domain, spec.images, 4).degree() == 3

    def test_degree_matches_spec(self, fib_set, tm_set):
        for F, m in ((fib_set, 2), (tm_set, 3)):
            spec = GroupCodeSpec.cyclic(m, {"a": 1, "b": 1})
            X = group_code_intersection(spec, F)
            assert f_degree(X, F) == spec.degree() == m

    def test_intersection_horizon_guard(self, fib):
        small = FactorSet.from_substitution(fib, "a", 2)
        spec = GroupCodeSpec.cyclic(7, {"a": 1, "b": 1})
        with pytest.raises(InsufficientHorizon):
            group_code_intersection(spec, small)

    @settings(max_examples=200)
    @given(primitive_substitutions(), st.sampled_from([0, 1, 3, 8, 16, 24]), st.data())
    def test_intersection_against_a_walk_per_factor(self, sigma, horizon, data):
        F = FactorSet.from_substitution(sigma, sigma.alphabet.letters[0], horizon)
        spec = data.draw(specs_on("".join(sigma.alphabet.letters)))
        assert code_or_refusal(group_code_intersection, spec, F) == \
            code_or_refusal(first_return_intersection, spec, F)

    def test_cyclic_spec_keeps_no_table_per_point(self, fib_set):
        """Z/300000 and its refused intersection take a few kilobytes, not a dict per letter."""
        tracemalloc.start()
        try:
            spec = GroupCodeSpec.cyclic(300_000, {"a": 1, "b": 1})
            with pytest.raises(InsufficientHorizon, match="factor 'aabaababaabaabab' has no"):
                group_code_intersection(spec, fib_set)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000
        assert spec.images["a"][299_999] == 0 and len(spec.domain) == 300_000


class TestStarAutomaton:
    def test_fibonacci_z2_shape(self, fib_set):
        X = group_code_intersection(
            GroupCodeSpec.cyclic(2, {"a": 1, "b": 1}), fib_set
        )
        A = minimal_automaton_of_star(X)
        assert A.states == (1, 2, 3)
        assert A.initial == 1
        assert A.terminals == frozenset({1})
        assert A.transitions == {
            (1, "a"): 2,
            (1, "b"): 3,
            (2, "a"): 1,
            (2, "b"): 1,
            (3, "a"): 1,
        }

    def test_accepts_exactly_star(self, fib_set):
        X = BifixCode.of(["aa", "ab", "ba"])
        A = minimal_automaton_of_star(X)
        star = {""}
        for _ in range(3):
            star |= {u + x for u in star for x in X.words}
        for n in range(0, 7):
            for w in ("".join(p) for p in product("ab", repeat=n)):
                in_star = w in star
                if len(w) <= 6:
                    assert A.accepts(w) == in_star

    def test_transition_monoid_size(self, fib_set):
        X = BifixCode.of(["aa", "ab", "ba"])
        assert len(transition_monoid(minimal_automaton_of_star(X))) == 19

    @settings(max_examples=300)
    @given(bifix_codes())
    def test_equals_moore_refinement(self, X):
        A, B = minimal_automaton_of_star(X), moore_automaton_of_star(X)
        assert (A.states, A.transitions) == (B.states, B.transitions)
        assert A.to_dot() == B.to_dot()

    @pytest.mark.parametrize("letters, n", [("ab", 1), ("ab", 4), ("abc", 3)])
    def test_full_code_equals_moore_refinement(self, letters, n):
        X = BifixCode.of("".join(p) for p in product(letters, repeat=n))
        assert minimal_automaton_of_star(X).to_dot() == moore_automaton_of_star(X).to_dot()
        assert len(minimal_automaton_of_star(X).states) == n

    @pytest.mark.parametrize("fixture", ["fib_set_64", "tm_set_64", "quad_set", "trib_set_64"])
    def test_group_codes_equal_moore_refinement(self, request, fixture):
        F = request.getfixturevalue(fixture)
        letters = F.alphabet.letters
        specs = [GroupCodeSpec.cyclic(m, dict(zip(letters, w)))
                 for m in (2, 3) for w in product(range(m), repeat=len(letters))]
        specs.append(GroupCodeSpec.from_cycles(
            (1, 2, 3, 4, 5), dict(zip(letters, ["(1 2 3 4 5)", "(1 2 3)", "(1 2)(3 4)"]))
        ))
        for spec in specs:
            X = group_code_intersection(spec, F)
            if X.words:
                assert minimal_automaton_of_star(X).to_dot() == \
                    moore_automaton_of_star(X).to_dot(), X.sorted_words()

    def test_thue_morse_z3_size(self, tm_set):
        X = group_code_intersection(
            GroupCodeSpec.cyclic(3, {"a": 1, "b": 1}), tm_set
        )
        A = minimal_automaton_of_star(X)
        assert len(A.states) == 6
        assert A.initial == 1


class TestInducedGroup:
    def test_fibonacci_z2(self, fib_set):
        X = BifixCode.of(["aa", "ab", "ba"])
        G, word, names = g_x_f(X, fib_set)
        assert G.order() == 2
        assert word == "a"
        assert names == (1, 2)

    def test_alphabet_code_trivial_group(self, fib_set):
        G, _, names = g_x_f(BifixCode.of(["a", "b"]), fib_set)
        assert G.order() == 1
        assert len(names) == 1
