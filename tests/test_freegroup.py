"""Free group words, folded subgroup graphs, and separating subgroups."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from minishift.returns import right_return_words
from minishift.words import Alphabet


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
        g.add_loop("ab")  # 0 -a-> 1 -b-> 0
        g.add_loop("aa")  # 0 -a-> 2 -a-> 0, so 2 joins 1
        assert g.vertices == {0, 1}
        assert g.triples == {(0, "a", 1), (1, "b", 0), (1, "a", 0)}

    def test_a_loop_reads_its_prefix_and_suffix(self):
        g = SubgroupGraph(AB)
        g.add_loop("aab")  # 0 -a-> 1 -a-> 2 -b-> 0
        g.add_loop("abb")  # reserves 3 and 4: 3 reads as 1, 4 (read back from 0) as 2
        assert g.vertices == {0, 1, 2}
        assert g.triples == {(0, "a", 1), (1, "a", 2), (2, "b", 0), (1, "b", 2)}
        assert g.add_path("aa", close=False) == 2

    def test_a_path_validates_its_letters(self):
        g = SubgroupGraph(AB)
        with pytest.raises(ValueError, match="letter 'c' outside alphabet"):
            g.add_loop("abc")
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
            SubgroupGraph(AB).add_loop("acCb")
        with pytest.raises(InputError, match="letter 'c' outside alphabet"):
            separating_subgroup(subgroup(["aa"], AB), "cC")
        assert subgroup(["aa"], AB).check_word("aB") == "aB"

    def test_base_survives_a_merge(self):
        g = SubgroupGraph(AB)
        g.add_loop("aa")  # 0 -a-> 1 -a-> 0
        g.add_loop("a")  # 0 -a-> 0, so 1 joins the base
        assert g.vertices == {0}
        assert g.triples == {(0, "a", 0)}
