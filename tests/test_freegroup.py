"""Free group words, folded subgroup graphs, and separating subgroups."""

from bisect import insort

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift import freegroup
from minishift.episturmian import episturmian_factor_set
from minishift.errors import InputError, NotSeparable
from minishift.freegroup import (
    SubgroupGraph,
    generates,
    invert,
    is_basis_of_free_group,
    reduce,
    separating_subgroup,
    subgroup,
)
from minishift.returns import left_return_words, right_return_words
from minishift.words import Alphabet, FactorSet, Substitution


AB = Alphabet.of("ab")
group_words = st.text(alphabet="abAB", max_size=12)


def parent_reduce(w: str) -> str:
    """Oracle: free reduction one letter at a time."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase() and out[-1] != c:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class ParentGraph:
    """Oracle: the triple-set subgroup graph, folded only when asked.

    Paths are attached unfolded, one new vertex per letter (the last letter
    of a loop ends at the base), so the vertex numbers are those of the
    unfolded petal graph; ``fold`` is the union-find fold, each class named
    by its least vertex.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.base = 0
        self.vertices: set[int] = {0}
        self.triples: set[tuple[int, str, int]] = set()
        self._next = 1

    def add_path(self, word: str, close: bool) -> int:
        current = self.base
        word = parent_reduce(word)
        for i, c in enumerate(word):
            if close and i == len(word) - 1:
                target = self.base
            else:
                target = self._next
                self._next += 1
                self.vertices.add(target)
            if c.islower():
                self.triples.add((current, c, target))
            else:
                self.triples.add((target, c.lower(), current))
            current = target
        return current

    def fold(self) -> None:
        parent = list(range(self._next))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        out: list[dict[str, int]] = [{} for _ in parent]
        inc: list[dict[str, int]] = [{} for _ in parent]
        pending: list[tuple[int, int]] = []
        for v, a, w in self.triples:
            t = out[v].setdefault(a, w)
            if t != w:
                pending.append((t, w))
            t = inc[w].setdefault(a, v)
            if t != v:
                pending.append((t, v))
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            keep, drop = (x, y) if x < y else (y, x)
            parent[drop] = keep
            for maps in (out, inc):
                kept = maps[keep]
                for a, w in maps[drop].items():
                    t = kept.setdefault(a, w)
                    if t != w:
                        pending.append((t, w))
        self.vertices = {v for v in self.vertices if parent[v] == v}
        self.triples = {(find(v), a, find(w)) for v, a, w in self.triples}

    def maps(self) -> tuple[dict, dict]:
        out = {(v, a): w for v, a, w in self.triples}
        inc = {(w, a): v for v, a, w in self.triples}
        return out, inc

    def rank(self) -> int:
        return len(self.triples) - len(self.vertices) + 1

    def index(self) -> int | None:
        out, inc = self.maps()
        complete = all(
            (v, a) in out and (v, a) in inc for v in self.vertices for a in self.alphabet
        )
        return len(self.vertices) if complete else None

    def trace(self, word: str) -> int | None:
        out, inc = self.maps()
        v = self.base
        for c in parent_reduce(word):
            v = out.get((v, c)) if c.islower() else inc.get((v, c.lower()))
            if v is None:
                return None
        return v

    def membership(self, word: str) -> bool:
        return self.trace(word) == self.base

    def to_dot(self) -> str:
        lines = ["digraph subgroup {", f"  {self.base} [shape=doublecircle];"]
        for v, a, w in sorted(self.triples):
            lines.append(f'  {v} -> {w} [label="{a}"];')
        lines.append("}")
        return "\n".join(lines)

    def copy(self) -> "ParentGraph":
        g = ParentGraph(self.alphabet)
        g.vertices = set(self.vertices)
        g.triples = set(self.triples)
        g._next = max(self.vertices) + 1
        return g


def quadratic_fold(g: ParentGraph) -> None:
    """Oracle: merge one clash at a time, rescanning every edge after each."""

    def find_conflict():
        out, inc = {}, {}
        for v, a, w in g.triples:
            if (v, a) in out and out[(v, a)] != w:
                return w, out[(v, a)]
            out[(v, a)] = w
            if (w, a) in inc and inc[(w, a)] != v:
                return v, inc[(w, a)]
            inc[(w, a)] = v
        return None

    while (pair := find_conflict()) is not None:
        x, y = pair
        keep, drop = (x, y) if (x == g.base or (y != g.base and x < y)) else (y, x)
        sub = lambda v: keep if v == drop else v
        g.triples = {(sub(v), a, sub(w)) for v, a, w in g.triples}
        g.vertices.discard(drop)


def parent_subgroup(gens, alphabet: Alphabet, fold=ParentGraph.fold) -> ParentGraph:
    """Oracle: the unfolded petal graph of the reduced words, then ``fold``."""
    g = ParentGraph(alphabet)
    for w in sorted({parent_reduce(w) for w in gens} - {""}):
        for c in w:
            if c.lower() not in alphabet:
                raise ValueError(f"letter {c!r} outside alphabet")
        g.add_path(w, close=True)
    fold(g)
    return g


def parent_separating_subgroup(H: ParentGraph, x: str, fold=ParentGraph.fold) -> ParentGraph:
    """Oracle: the x-path on a copy of H, folded, then each letter completed."""
    x = parent_reduce(x)
    if H.membership(x):
        raise NotSeparable(f"{x!r} belongs to the subgroup")
    g = H.copy()
    g.add_path(x, close=False)
    fold(g)
    end = g.trace(x)
    if end == g.base or end is None:
        raise NotSeparable(f"{x!r} folds into the subgroup")
    order = sorted(g.vertices)
    out, inc = g.maps()
    for a in g.alphabet:
        missing_out = [v for v in order if (v, a) not in out]
        missing_in = [v for v in order if (v, a) not in inc]
        for v, w in zip(missing_out, missing_in):
            g.triples.add((v, a, w))
    return g


@st.composite
def generator_lists(draw):
    """An alphabet ab or abc, group words over it (capitals are inverses), one target."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    word = st.text(alphabet=letters + letters.upper(), max_size=10)
    return Alphabet.of(letters), draw(st.lists(word, max_size=5)), draw(word)


def separation(H, x: str, separate=separating_subgroup):
    """The separating graph's dot, index and rank, or the refusal."""
    try:
        K = separate(H, x)
    except NotSeparable as e:
        return f"NotSeparable: {e}"
    return K.to_dot(), K.vertices, K.index(), K.rank(), K.membership(x)


def assert_same_graph(H: SubgroupGraph, K: ParentGraph, gens, x, separate_K) -> None:
    """H, kept folded, against the oracle graph K of the same words."""
    assert H.to_dot() == K.to_dot()
    assert H.vertices == K.vertices
    assert H.triples == K.triples
    assert (H.rank(), H.index()) == (K.rank(), K.index())
    probes = [*gens, x, invert(x), *(g + x for g in gens), *(x + invert(g) for g in gens)]
    assert [H.membership(w) for w in probes] == [K.membership(w) for w in probes]
    assert separation(H, x) == separation(K, x, separate_K)


def is_deterministic(g: SubgroupGraph) -> bool:
    return len({(v, a) for v, a, _ in g.triples}) == len(g.triples) == len(
        {(w, a) for _, a, w in g.triples}
    )


class TestReduce:
    def test_examples(self):
        assert reduce("aA") == ""
        assert reduce("abBA") == ""
        assert reduce("abAB") == "abAB"
        assert reduce("aabBAb") == "ab"

    def test_invert(self):
        assert invert("ab") == "BA"
        assert invert("aB") == "bA"

    @given(group_words)
    def test_reduce_idempotent(self, w):
        assert reduce(reduce(w)) == reduce(w)

    @given(group_words)
    def test_inverse_cancels(self, w):
        assert reduce(w + invert(w)) == ""

    @given(group_words, group_words)
    def test_invert_antihomomorphism(self, u, v):
        assert invert(u + v) == invert(v) + invert(u)


class TestSubgroupGraph:
    def test_whole_group(self):
        H = subgroup(["a", "b"], AB)
        assert H.rank() == 2
        assert H.index() == 1

    def test_two_generators_recover_whole_group(self):
        # aab (ab)^-1 reduces to a, so these two generate everything
        H = subgroup(["ab", "aab"], AB)
        assert H.rank() == 2
        assert H.index() == 1
        assert H.membership("a") and H.membership("b")

    def test_proper_rank_two_subgroup(self):
        H = subgroup(["aa", "bb"], AB)
        assert H.rank() == 2
        assert H.index() is None
        assert H.membership(reduce("aa" + "bb"))
        assert not H.membership("a")
        assert not H.membership("ab")

    def test_index_two_subgroup(self):
        H = subgroup(["aa", "ab", "ba"], AB)
        assert H.index() == 2
        assert H.rank() == 3
        assert H.membership("aa") and H.membership("abba")
        assert not H.membership("a")

    def test_infinite_index(self):
        H = subgroup(["aa"], AB)
        assert H.index() is None
        assert H.rank() == 1

    def test_membership_closed_under_products(self):
        H = subgroup(["aa", "ab", "ba"], AB)
        words = ["aa", "ab", "ba", invert("ab")]
        for u in words:
            for v in words:
                assert H.membership(reduce(u + v))

    def test_nielsen_schreier_rank(self):
        # finite index d in free group of rank r: rank = 1 + d (r - 1)
        H = subgroup(["aa", "ab", "ba"], AB)
        assert H.rank() == 1 + H.index() * (len(AB) - 1)

    def test_dot_output(self):
        dot = subgroup(["ab"], AB).to_dot()
        assert dot.startswith("digraph subgroup {")


class TestGenerates:
    def test_positive(self):
        assert generates(["a", "b"], AB)
        assert generates(["ab", "b"], AB)
        assert is_basis_of_free_group(["ab", "b"], AB)

    def test_redundant_generators_not_basis(self):
        assert generates(["a", "b", "ab"], AB)
        assert not is_basis_of_free_group(["a", "b", "ab"], AB)

    def test_proper_subgroup(self):
        assert not generates(["aa", "ab", "ba"], AB)
        assert not is_basis_of_free_group(["aa"], AB)

    def test_fibonacci_returns_generate(self, fib_set):
        for x in ["a", "b", "ab"]:
            R = right_return_words(fib_set, x).sorted_words()
            assert is_basis_of_free_group(R, AB)

    def test_thue_morse_returns_do_not_generate(self, tm_set):
        R = right_return_words(tm_set, "aa").sorted_words()
        H = subgroup(R, AB)
        assert not generates(R, AB)
        assert H.rank() == 2
        assert H.index() is None


class TestSeparation:
    def test_separates_a_from_square_subgroup(self):
        H = subgroup(["aa"], AB)
        K = separating_subgroup(H, "a")
        assert K.index() is not None
        assert K.membership("aa")
        assert not K.membership("a")

    def test_rejects_member(self):
        H = subgroup(["aa"], AB)
        with pytest.raises(NotSeparable):
            separating_subgroup(H, "aaaa")

    def test_contains_original_generators(self):
        gens = ["ab", "bba"]
        H = subgroup(gens, AB)
        K = separating_subgroup(H, "ba")
        assert K.index() is not None
        for g in gens:
            assert K.membership(g)
        assert not K.membership("ba")

    def test_separation_for_several_targets(self):
        H = subgroup(["aabb"], AB)
        for x in ["a", "b", "ab", "aab"]:
            K = separating_subgroup(H, x)
            assert K.membership("aabb")
            assert not K.membership(x)
            assert K.index() is not None


class TestFoldOracle:
    """The graph kept folded against the unfolded petal graph folded by an oracle."""

    @given(generator_lists())
    def test_same_graph_as_quadratic_fold(self, case):
        A, gens, x = case
        K = parent_subgroup(gens, A, quadratic_fold)
        assert_same_graph(subgroup(gens, A), K, gens, x,
                          lambda H, x: parent_separating_subgroup(H, x, quadratic_fold))

    @settings(max_examples=300)
    @given(generator_lists())
    def test_same_graph_as_the_union_find_fold(self, case):
        A, gens, x = case
        assert_same_graph(subgroup(gens, A), parent_subgroup(gens, A), gens, x,
                          parent_separating_subgroup)

    @given(generator_lists())
    def test_folded_graph_holds_every_generator(self, case):
        A, gens, x = case
        H = subgroup(gens, A)
        assert is_deterministic(H)
        assert all(H.membership(g) for g in gens)
        try:
            K = separating_subgroup(H, x)
        except NotSeparable:
            return
        assert is_deterministic(K)
        assert not K.membership(x)

    @settings(max_examples=300)
    @given(generator_lists())
    def test_no_vertex_but_the_base_has_degree_below_two(self, case):
        """Folding reduced loops leaves a core graph away from the base: nothing to prune."""
        A, gens, _ = case
        H = subgroup(gens, A)
        degree = dict.fromkeys(H.vertices, 0)
        for v, _, w in H.triples:
            degree[v] += 1
            degree[w] += 1
        assert all(d >= 2 for v, d in degree.items() if v != H.base)

    def test_classes_are_named_by_their_least_vertex(self):
        g = SubgroupGraph(AB)
        g.add_path("ab", close=True)  # 0 -a-> 1 -b-> 0
        g.add_path("aa", close=True)  # 0 -a-> 2 -a-> 0, so 2 joins 1
        assert g.vertices == {0, 1}
        assert g.triples == {(0, "a", 1), (1, "b", 0), (1, "a", 0)}

    def test_a_loop_reads_its_prefix_and_suffix(self):
        g = SubgroupGraph(AB)
        g.add_path("aab", close=True)  # 0 -a-> 1 -a-> 2 -b-> 0
        g.add_path("abb", close=True)  # reserves 3 and 4: 3 reads as 1, 4 (read back from 0) as 2
        assert g.vertices == {0, 1, 2}
        assert g.triples == {(0, "a", 1), (1, "a", 2), (2, "b", 0), (1, "b", 2)}
        assert g.add_path("aa", close=False) == 2

    def test_a_path_validates_its_letters(self):
        g = SubgroupGraph(AB)
        with pytest.raises(ValueError, match="letter 'c' outside alphabet"):
            g.add_path("abc", close=True)
        with pytest.raises(ValueError, match="letter 'C' outside alphabet"):
            subgroup(["ab", "bC"], AB)
        with pytest.raises(ValueError, match="letter 'c' outside alphabet"):
            separating_subgroup(subgroup(["aa"], AB), "ac")
        assert not subgroup(["aa"], AB).membership("c")

    def test_letters_are_checked_before_reduction(self):
        # "cC" reduces to the empty word, so the letters are checked before reduction
        with pytest.raises(InputError, match="letter 'c' outside alphabet"):
            subgroup(["a", "cC"], AB)
        with pytest.raises(InputError, match="letter 'c' outside alphabet"):
            SubgroupGraph(AB).add_path("acCb", close=True)
        with pytest.raises(InputError, match="letter 'c' outside alphabet"):
            separating_subgroup(subgroup(["aa"], AB), "cC")
        with pytest.raises(InputError, match="letter 'c' outside alphabet"):
            is_basis_of_free_group(["a", "b", "cC"], AB)
        assert subgroup(["aa"], AB).check_word("aB") == "aB"
        assert is_basis_of_free_group(["a", "bB", "b"], AB)

    @pytest.mark.parametrize("letters", ["a1", "aB"])
    def test_letters_that_are_not_lowercase_are_refused(self, letters):
        # a caseless letter would step backwards, and a capital is an inverse
        alphabet = Alphabet.of(letters)
        bad = letters[1]
        with pytest.raises(InputError, match=f"letter {bad!r} is not lowercase"):
            SubgroupGraph(alphabet)
        with pytest.raises(InputError, match=f"letter {bad!r} is not lowercase"):
            subgroup(["a"], alphabet)
        with pytest.raises(InputError, match=f"letter {bad!r} is not lowercase"):
            is_basis_of_free_group(["a", bad], alphabet)

    def test_base_survives_a_merge(self):
        g = SubgroupGraph(AB)
        g.add_path("aa", close=True)  # 0 -a-> 1 -a-> 0
        g.add_path("a", close=True)  # 0 -a-> 0, so 1 joins the base
        assert g.vertices == {0}
        assert g.triples == {(0, "a", 0)}


def fold_basis(gens, alphabet: Alphabet) -> bool:
    """Oracle: |A| distinct reduced words that the fold alone finds generating."""
    distinct = {reduce(w) for w in gens} - {""}
    return len(distinct) == len(alphabet) and generates(distinct, alphabet)


@st.composite
def word_lists(draw):
    """1-4 words of length 0-8 over ab or abc, positive or with inverse letters."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    pool = letters + letters.upper() if draw(st.booleans()) else letters
    words = draw(st.lists(st.text(alphabet=pool, max_size=8), min_size=1, max_size=4))
    return Alphabet.of(letters), words


@st.composite
def positive_bases(draw):
    """The letters of ab or abc under random positive Nielsen moves w_i <- w_i w_j or w_j w_i."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    words = list(letters)
    for _ in range(draw(st.integers(0, 12))):
        i, j = draw(st.permutations(range(len(words))))[:2]
        words[i] = words[i] + words[j] if draw(st.booleans()) else words[j] + words[i]
    return Alphabet.of(letters), words


LONG_POWERS = [
    (("a" * 200 + "b", "a"), True),
    (("b" + "a" * 200, "a"), True),
    (("a" * 150 + "b" + "a" * 150, "a"), True),
    (("ab" * 100 + "a", "ab"), True),
    (("a" * 200, "b"), False),
    (("a" * 200 + "b", "a" * 199 + "b"), True),
    (("a" * 200 + "b", "a" * 100 + "b"), False),
    (("a" * 200 + "b", "a", "c"), True),
    (("c" * 100 + "ab", "c" * 100 + "a", "c"), True),
]


def assert_decided_by_moves(F: FactorSet, maxlen: int, monkeypatch) -> int:
    """Every return set of every factor up to ``maxlen`` answers True with the fold refused."""

    def no_fold(*args):
        raise AssertionError("the Nielsen moves left a set to fold")

    monkeypatch.setattr(freegroup, "generates", no_fold)
    count = 0
    for n in range(1, maxlen + 1):
        for x in F.words_of_length(n):
            for R in (right_return_words(F, x), left_return_words(F, x)):
                assert len(R.words) == len(F.alphabet)
                assert is_basis_of_free_group(sorted(R.words), F.alphabet), (x, R.words)
                count += 1
    return count


class TestNielsenBasis:
    """The basis test shortens positive words by Nielsen moves before any fold."""

    @settings(max_examples=400)
    @given(word_lists())
    def test_agrees_with_the_fold(self, case):
        A, words = case
        assert is_basis_of_free_group(words, A) == fold_basis(words, A)

    @settings(max_examples=200)
    @given(positive_bases())
    def test_positive_bases_are_bases(self, case):
        A, words = case
        assert is_basis_of_free_group(words, A) and fold_basis(words, A)

    @pytest.mark.parametrize("words, expected", LONG_POWERS)
    def test_long_powers(self, words, expected):
        A = Alphabet.of("abc" if any("c" in w for w in words) else "ab")
        assert is_basis_of_free_group(list(words), A) is expected
        assert fold_basis(words, A) is expected

    @pytest.mark.parametrize("words", [w for w, expected in LONG_POWERS if expected])
    def test_long_powers_need_no_fold(self, words, monkeypatch):
        A = Alphabet.of("abc" if any("c" in w for w in words) else "ab")
        monkeypatch.setattr(freegroup, "generates", None)
        assert is_basis_of_free_group(list(words), A)

    def test_a_power_is_stripped_in_one_move(self, monkeypatch):
        moves = []

        def insort_counted(ws, w, key):
            moves.append(w)
            insort(ws, w, key=key)

        monkeypatch.setattr(freegroup, "insort", insort_counted)
        assert is_basis_of_free_group(["a" * 150 + "b" + "a" * 150, "a"], AB)
        assert moves == ["b"]
        moves.clear()
        assert is_basis_of_free_group(["ab" * 100 + "a", "ab"], AB)
        assert moves == ["a", "b"]

    def test_a_repeat_is_not_a_basis(self, monkeypatch):
        monkeypatch.setattr(freegroup, "generates", None)
        assert not is_basis_of_free_group(["ab", "abab"], AB)  # abab = (ab)^2
        assert not is_basis_of_free_group(["a", "aba", "b"], Alphabet.of("abc"))
        assert not is_basis_of_free_group(["ab", "aab", "b"], Alphabet.of("abc"))

    def test_a_stall_and_an_inverse_letter_go_to_the_fold(self):
        # neither word is a prefix or suffix of the other, so the moves stall
        assert not is_basis_of_free_group(["ab", "ba"], AB)
        assert is_basis_of_free_group(["aB", "b"], AB)
        assert not is_basis_of_free_group(["aB", "bA"], AB)

    def test_return_theorem_by_moves_alone(self, fib_set_64, monkeypatch):
        """Return sets of uniformly recurrent tree sets are bases: no set is left to fold."""
        trib_96 = FactorSet.from_substitution(Substitution.parse("a->ab;b->ac;c->a"), "a", 96)
        arnoux_rauzy = episturmian_factor_set("aabcbacbbc" * 10, 96)
        counts = [assert_decided_by_moves(F, 12, monkeypatch)
                  for F in (fib_set_64, trib_96, arnoux_rauzy)]
        assert counts == [2 * 90, 2 * 168, 2 * 168]

    def test_thue_morse_and_quad_answer_as_the_fold(self, tm_set_64, quad_set):
        verdicts = {}
        for name, F, maxlen in (("tm", tm_set_64, 8), ("quad", quad_set, 6)):
            for n in range(1, maxlen + 1):
                for x in F.words_of_length(n):
                    R = sorted(right_return_words(F, x).words)
                    got = is_basis_of_free_group(R, F.alphabet)
                    assert got == fold_basis(R, F.alphabet), (name, x, R)
                    verdicts[name, x] = got
        assert not any(v for (name, _), v in verdicts.items() if name == "tm")
        quad_bases = sorted(x for (name, x), v in verdicts.items() if name == "quad" and v)
        assert quad_bases == ["a"]
