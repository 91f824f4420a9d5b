"""Free group words, folded subgroup graphs, and separating subgroups."""

from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minishift.errors import NotSeparable
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


def quadratic_fold(g: SubgroupGraph) -> None:
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


@st.composite
def generator_lists(draw):
    """An alphabet ab or abc, group words over it (capitals are inverses), one target."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    word = st.text(alphabet=letters + letters.upper(), max_size=10)
    return Alphabet.of(letters), draw(st.lists(word, max_size=5)), draw(word)


def separation(H: SubgroupGraph, x: str) -> str:
    try:
        return separating_subgroup(H, x).to_dot()
    except NotSeparable as e:
        return f"NotSeparable: {e}"


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
    """The union-find fold against the one-clash-at-a-time fold."""

    @given(generator_lists())
    def test_same_graph_as_quadratic_fold(self, case):
        A, gens, x = case
        H = subgroup(gens, A)
        with mock.patch.object(SubgroupGraph, "fold", quadratic_fold):
            K = subgroup(gens, A)
            expected_separation = separation(K, x)
        assert H.to_dot() == K.to_dot()
        assert H.vertices == K.vertices
        assert (H.rank(), H.index()) == (K.rank(), K.index())
        assert separation(H, x) == expected_separation

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

    def test_classes_are_named_by_their_least_vertex(self):
        g = SubgroupGraph(AB)
        g.add_loop("ab")  # 0 -a-> 1 -b-> 0
        g.add_loop("aa")  # 0 -a-> 2 -a-> 0, so 2 joins 1
        g.fold()
        assert g.vertices == {0, 1}
        assert g.triples == {(0, "a", 1), (1, "b", 0), (1, "a", 0)}

    def test_base_survives_a_merge(self):
        g = SubgroupGraph(AB)
        g.add_loop("aa")  # 0 -a-> 1 -a-> 0
        g.add_loop("a")  # 0 -a-> 0, so 1 joins the base
        g.fold()
        assert g.vertices == {0}
        assert g.triples == {(0, "a", 0)}
