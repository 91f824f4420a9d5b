"""Extension graphs and tree/neutral classification."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.episturmian import episturmian_factor_set
from minishift.errors import InputError, InsufficientHorizon
from minishift.extension import (
    Classification,
    ExtensionGraph,
    WordRecord,
    classify,
    extension_graph,
    multiplicity,
)
from minishift.words import Alphabet, FactorSet
from test_words import primitive_substitutions


def every_pair_graph(F, w):
    """Oracle: the extension graph with an edge test for every pair of letters."""
    letters = F.alphabet.letters
    return ExtensionGraph(
        w,
        tuple(a for a in letters if a + w in F),
        tuple(b for b in letters if w + b in F),
        tuple((a, b) for a in letters for b in letters if a + w + b in F),
    )


def assert_edges_match_every_pair(F):
    for n in range(F.horizon - 1):
        for w in F.words_of_length(n):
            assert extension_graph(F, w) == every_pair_graph(F, w)


def per_word_classify(F, max_length):
    """Oracle: an extension graph for every word, as classify built them before."""
    if max_length < 0:
        raise InputError(f"classify({max_length}) of a negative length")
    if max_length > F.horizon - 2:
        raise InsufficientHorizon(
            f"classification up to length {max_length} needs horizon {max_length + 2}"
        )
    records = []
    for n in range(max_length + 1):
        for w in F.words_of_length(n):
            g = extension_graph(F, w)
            records.append(
                WordRecord(w, g.multiplicity(), g.is_connected(), g.is_acyclic())
            )
    return Classification(max_length, tuple(records))


def reference_verdicts(g):
    """Oracle: (connected, acyclic) from a component count by an adjacency map and a
    depth-first search, independent of the library's union-find."""
    nodes = [("L", a) for a in g.left] + [("R", b) for b in g.right]
    adj = {v: [] for v in nodes}
    for a, b in g.edges:
        adj[("L", a)].append(("R", b))
        adj[("R", b)].append(("L", a))
    seen, components = set(), 0
    for v in nodes:
        if v in seen:
            continue
        components += 1
        seen.add(v)
        stack = [v]
        while stack:
            for u in adj[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return components <= 1, len(g.edges) == len(nodes) - components


def assert_verdicts_match_reference(F):
    """Every word up to length L - 2: the graph's verdicts and its classify record
    against the reference, and the one-sided rule that classify reads off the counts."""
    records = {r.word: r for r in classify(F, F.horizon - 2).records}
    for n in range(F.horizon - 1):
        for w in F.words_of_length(n):
            g = extension_graph(F, w)
            verdicts = reference_verdicts(g)
            assert (g.is_connected(), g.is_acyclic()) == verdicts
            assert records[w] == WordRecord(w, g.multiplicity(), *verdicts)
            if len(g.left) == 1 or len(g.right) == 1:
                assert g.is_acyclic()
                assert g.is_connected() == (g.multiplicity() == 0)


def probing_extensions(factors, letters, w):
    """Reference: the left letters, right letters and edges of ``w`` by membership
    probes of concatenated words, in alphabet order."""
    left = [a for a in letters if a + w in factors]
    right = [b for b in letters if w + b in factors]
    return left, right, [(a, b) for a in left for b in right if a + w + b in factors]


def probing_graph(F, w):
    """Reference: the extension graph of ``w`` from the probing scan."""
    return ExtensionGraph(w, *map(tuple, probing_extensions(F.factors, F.alphabet.letters, w)))


def probing_classify(F, max_length):
    """Reference: classify by one probing scan per word, records read off its counts
    where a side has a single letter."""
    if max_length < 0:
        raise InputError(f"classify({max_length}) of a negative length")
    needed = max_length + 2
    F.certify(needed, f"classification up to length {max_length} needs horizon {needed}")
    factors, letters = F.factors, F.alphabet.letters
    records = []
    for n in range(max_length + 1):
        for w in F.words_of_length(n):
            left, right, edges = probing_extensions(factors, letters, w)
            if len(left) == 1 or len(right) == 1:
                m = len(edges) - len(left) - len(right) + 1
                records.append(WordRecord(w, m, m == 0, True))
                continue
            g = ExtensionGraph(w, tuple(left), tuple(right), tuple(edges))
            records.append(WordRecord(w, g.multiplicity(), g.is_connected(), g.is_acyclic()))
    return Classification(max_length, tuple(records))


def non_extendable_sets():
    """Complete sets, built by hand, with words that extend to one side only or to none."""
    return [
        FactorSet(Alphabet.of("abc"), 4, ["", "a", "b", "c", "ab", "bc"], True, "hand"),
        FactorSet(Alphabet.of("abc"), 5, ["", "a", "b", "c", "ab", "cb", "ba", "aba"],
                  True, "hand"),
    ]


@st.composite
def classified_sets(draw):
    """Complete sets of every kind: a primitive substitution, an Arnoux-Rauzy
    directive (every letter in a repeated unit), a periodic word or a hand-built
    set, kept as built or given again positionally with the alphabet reversed, so
    its levels are sorted by ``Alphabet.key``."""
    kind = draw(st.sampled_from(["substitution", "arnoux-rauzy", "periodic", "hand"]))
    horizon = draw(st.integers(2, 24))
    if kind == "substitution":
        sigma = draw(primitive_substitutions())
        F = FactorSet.from_substitution(sigma, draw(st.sampled_from(sigma.alphabet.letters)),
                                        horizon)
    elif kind == "arnoux-rauzy":
        letters = "abc"[: draw(st.integers(2, 3))]
        unit = draw(st.permutations(letters)) + draw(st.lists(st.sampled_from(letters),
                                                              max_size=4))
        F = episturmian_factor_set("".join(unit) * 24, horizon)
    elif kind == "periodic":
        F = FactorSet.from_periodic(draw(st.text(alphabet="abc", min_size=1, max_size=7)),
                                    horizon)
    else:
        F = draw(st.sampled_from(non_extendable_sets()))
    if draw(st.booleans()):
        F = FactorSet(Alphabet.of(F.alphabet.letters[::-1]), F.horizon, F.sorted_words(),
                      True, "positional")
    return F


def refusal(f, *args):
    try:
        return f(*args)
    except (InsufficientHorizon, ValueError) as e:
        return f"{type(e).__name__}: {e}"


class TestExtensionGraph:
    def test_tribonacci_empty_word(self, trib_set):
        g = extension_graph(trib_set, "")
        assert set(g.edges) == {
            ("a", "a"), ("a", "b"), ("a", "c"), ("b", "a"), ("c", "a"),
        }
        assert g.is_connected() and g.is_acyclic()

    def test_thue_morse_empty_word_complete_bipartite(self, tm_set):
        g = extension_graph(tm_set, "")
        assert set(g.edges) == {(x, y) for x in "ab" for y in "ab"}
        assert g.multiplicity() == 1
        assert not g.is_acyclic()

    @pytest.mark.parametrize("left, right", [((), ()), (("a",), ()), ((), ("b",))])
    def test_at_most_one_vertex_is_connected(self, left, right):
        assert ExtensionGraph("w", left, right, ()).is_connected()

    def test_two_isolated_vertices_are_not_connected(self):
        assert not ExtensionGraph("w", ("a",), ("b",), ()).is_connected()

    def test_quad_aa_two_disjoint_edges(self, quad_set):
        g = extension_graph(quad_set, "aa")
        assert set(g.edges) == {("a", "b"), ("b", "a")}
        assert not g.is_connected()
        assert g.is_acyclic()

    def test_quad_a_four_cycle(self, quad_set):
        g = extension_graph(quad_set, "a")
        assert g.multiplicity() == 1
        assert g.is_connected()
        assert not g.is_acyclic()

    def test_no_isolated_vertices(self, fib_set, tm_set, quad_set):
        for F in (fib_set, tm_set, quad_set):
            for n in range(F.horizon - 1):
                for w in F.words_of_length(n):
                    g = extension_graph(F, w)
                    degree = {("L", a): 0 for a in g.left}
                    degree.update({("R", b): 0 for b in g.right})
                    for a, b in g.edges:
                        degree[("L", a)] += 1
                        degree[("R", b)] += 1
                    assert all(d >= 1 for d in degree.values())

    def test_horizon_guard(self, fib_set):
        with pytest.raises(InsufficientHorizon):
            extension_graph(fib_set, "a" * 15)

    def test_dot_output(self, fib_set):
        dot = extension_graph(fib_set, "a").to_dot()
        assert dot.startswith("graph extension {")
        assert '"L_a" -- "R_b"' in dot or '"L_b" -- "R_a"' in dot


class TestEdgesAgainstEveryPair:
    """Edges tested only between left and right extensions, against every pair of letters."""

    @pytest.mark.parametrize("name", ["fib", "tm", "trib", "quad"])
    def test_fixtures(self, request, name):
        assert_edges_match_every_pair(
            FactorSet.from_substitution(request.getfixturevalue(name), "a", 32))

    @settings(max_examples=40)
    @given(primitive_substitutions(), st.integers(2, 24), st.data())
    def test_primitive_substitutions(self, sigma, horizon, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        assert_edges_match_every_pair(FactorSet.from_substitution(sigma, start, horizon))


class TestMultiplicity:
    def test_fibonacci_all_zero(self, fib_set):
        for n in range(9):
            for w in fib_set.words_of_length(n):
                assert multiplicity(fib_set, w) == 0

    def test_quad_values(self, quad_set):
        assert multiplicity(quad_set, "a") == 1
        assert multiplicity(quad_set, "aa") == -1


class TestClassify:
    def test_fibonacci_tree(self, fib_set):
        cl = classify(fib_set, 8)
        assert cl.tree and cl.neutral and cl.connected and cl.acyclic

    def test_tribonacci_tree(self, trib_set):
        assert classify(trib_set, 8).tree

    def test_negative_length(self, fib_set):
        assert [r.word for r in classify(fib_set, 0).records] == [""]
        with pytest.raises(ValueError, match=r"classify\(-1\) of a negative length"):
            classify(fib_set, -1)

    def test_thue_morse_not_neutral_at_empty_word(self, tm_set):
        cl = classify(tm_set, 4)
        assert not cl.neutral
        assert cl.record_for("").multiplicity == 1

    def test_quad_neither(self, quad_set):
        cl = classify(quad_set, 4)
        assert not cl.acyclic
        assert not cl.connected
        assert not cl.tree

    def test_tree_iff_edge_count_and_connected(self, fib_set, tm_set, quad_set):
        for F in (fib_set, tm_set, quad_set):
            for n in range(6):
                for w in F.words_of_length(n):
                    g = extension_graph(F, w)
                    balanced = len(g.edges) == len(g.left) + len(g.right) - 1
                    tree = g.is_connected() and g.is_acyclic()
                    assert tree == (balanced and g.is_connected())

    def test_neutral_implies_complexity_law(self, fib_set, trib_set):
        for F in (fib_set, trib_set):
            cl = classify(F, F.horizon - 2)
            assert cl.neutral
            k = len(F.alphabet) - 1
            for n in range(1, F.horizon - 2):
                assert F.complexity(n) == k * n + 1


class TestClassifyAgainstEveryGraph:
    """classify, which builds graphs only where a side has no single letter, record for record."""

    @pytest.mark.parametrize("horizon", [32, 64, 96])
    @pytest.mark.parametrize("name", ["fib", "tm", "trib", "quad"])
    def test_fixtures(self, request, name, horizon):
        F = FactorSet.from_substitution(request.getfixturevalue(name), "a", horizon)
        for max_length in (horizon - 2, horizon // 2):
            assert classify(F, max_length) == per_word_classify(F, max_length)

    @settings(max_examples=60)
    @given(primitive_substitutions(), st.integers(2, 40), st.data())
    def test_primitive_substitutions(self, sigma, horizon, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        F = FactorSet.from_substitution(sigma, start, horizon)
        max_length = data.draw(st.integers(-1, horizon - 1))
        assert refusal(classify, F, max_length) == refusal(per_word_classify, F, max_length)

    def test_a_complete_set_with_words_that_do_not_extend(self):
        # b has the single left letter a and the single right letter c, but abc
        # is not a factor; a extends only to the right, c only to the left, and
        # ab and bc to neither side
        F = FactorSet(Alphabet.of("abc"), 4, ["", "a", "b", "c", "ab", "bc"], True, "hand")
        cl = classify(F, 2)
        assert cl == per_word_classify(F, 2)
        assert cl.record_for("b") == WordRecord("b", -1, False, True)
        assert cl.record_for("a") == WordRecord("a", 0, True, True)
        assert cl.record_for("c") == WordRecord("c", 0, True, True)
        assert cl.record_for("ab") == WordRecord("ab", 1, True, True)
        assert cl.record_for("bc") == WordRecord("bc", 1, True, True)
        # the mirror: b has left letters a and c and the single right letter a,
        # but cba is not a factor
        F = FactorSet(Alphabet.of("abc"), 5, ["", "a", "b", "c", "ab", "cb", "ba", "aba"],
                      True, "hand")
        cl = classify(F, 3)
        assert cl == per_word_classify(F, 3)
        assert cl.record_for("b") == WordRecord("b", -1, False, True)

    def test_an_uncertified_set_is_refused(self, fib_set):
        F = FactorSet(fib_set.alphabet, fib_set.horizon, fib_set.factors, False, "hand")
        with pytest.raises(InsufficientHorizon, match="factor set is not certified complete"):
            classify(F, 4)
        assert refusal(classify, F, 4) == refusal(per_word_classify, F, 4)


class TestVerdictsAgainstReference:
    """Union-find verdicts against a depth-first component count, word by word."""

    @pytest.mark.parametrize("horizon", [32, 64])
    @pytest.mark.parametrize("name", ["fib", "tm", "trib", "quad"])
    def test_fixtures(self, request, name, horizon):
        assert_verdicts_match_reference(
            FactorSet.from_substitution(request.getfixturevalue(name), "a", horizon))

    @settings(max_examples=40)
    @given(primitive_substitutions(), st.integers(2, 24), st.data())
    def test_primitive_substitutions(self, sigma, horizon, data):
        start = data.draw(st.sampled_from(sigma.alphabet.letters))
        assert_verdicts_match_reference(FactorSet.from_substitution(sigma, start, horizon))

    @pytest.mark.parametrize("index", [0, 1])
    def test_non_extendable_sets(self, index):
        assert_verdicts_match_reference(non_extendable_sets()[index])


class TestAgainstProbingReference:
    """The level reads against the membership probes they replace: equal records, and
    equal graphs with ``left``, ``right`` and ``edges`` in the same order."""

    def assert_same_as_probing(self, F, max_length):
        assert refusal(classify, F, max_length) == refusal(probing_classify, F, max_length)
        assert classify(F, F.horizon - 2) == probing_classify(F, F.horizon - 2)
        for n in range(F.horizon - 1):
            for w in F.words_of_length(n):
                assert extension_graph(F, w) == probing_graph(F, w)

    @settings(max_examples=150)
    @given(classified_sets(), st.data())
    def test_every_kind_of_set(self, F, data):
        self.assert_same_as_probing(F, data.draw(st.integers(-1, F.horizon - 1)))

    @pytest.mark.parametrize("name", ["fib", "tm", "quad"])
    def test_a_positional_set_over_ba(self, request, name):
        built = FactorSet.from_substitution(request.getfixturevalue(name), "a", 32)
        F = FactorSet(Alphabet.of("ba"), 32, built.sorted_words(), True, "positional")
        assert F.words_of_length(1) == ("b", "a")
        self.assert_same_as_probing(F, 30)
        assert extension_graph(F, "").left == ("b", "a")

    def test_classify_reads_no_membership_set(self, fib, tm, trib, quad):
        builds = [FactorSet.from_substitution(sigma, "a", 64) for sigma in (fib, tm, trib, quad)]
        builds += [episturmian_factor_set("abc" * 20, 64), FactorSet.from_periodic("abcabba", 64)]
        for F in builds:
            classify(F, 62)
            assert "factors" not in F.__dict__
