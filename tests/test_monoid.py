"""Transformation monoids, Green's relations and induced permutation groups."""

import pytest

from minishift.bifix import BifixCode, minimal_automaton_of_star
from minishift.errors import BudgetExceeded, InternalInvariantError, ParseError
from minishift.monoid import (
    Automaton,
    FiniteMonoid,
    PermGroup,
    compose,
    cycle_notation,
    cyclic_monoid,
    f_group,
    f_min_rank,
    f_min_rank_data,
    green,
    is_isomorphic_small,
    monoid_from_permutations,
    parse_permutation,
    schutzenberger_group,
    transformation_image,
    transformation_rank,
    transition_monoid,
)
from minishift.words import Alphabet


AB = Alphabet.of("ab")


@pytest.fixture(scope="module")
def three_state():
    # accepts the submonoid generated by {aa, ab, ba} inside {a,b}*
    return Automaton(
        AB,
        (1, 2, 3),
        1,
        frozenset({1}),
        {(1, "a"): 2, (1, "b"): 3, (2, "a"): 1, (2, "b"): 1, (3, "a"): 1},
    )


@pytest.fixture(scope="module")
def three_state_monoid(three_state):
    return transition_monoid(three_state)


class TestTransformations:
    def test_compose_order(self):
        x = (1, 2, 0)
        y = (2, 2, 2)
        assert compose(x, y) == (2, 2, 2)
        assert compose(y, x) == (0, 0, 0)

    def test_partial(self):
        t = (1, None, 0)
        assert transformation_rank(t) == 2
        assert transformation_image(t) == frozenset({0, 1})
        assert compose(t, (None, 2, 1)) == (2, None, None)


class TestAutomaton:
    def test_validation(self):
        with pytest.raises(ValueError):
            Automaton(AB, (1,), 2, frozenset(), {})
        with pytest.raises(ValueError):
            Automaton(AB, (1,), 1, frozenset(), {(1, "c"): 1})

    def test_run_and_accepts(self, three_state):
        assert three_state.run("ab") == 1
        assert three_state.run("a") == 2
        assert three_state.run("bb") is None
        assert three_state.accepts("")
        assert three_state.accepts("abba")
        assert not three_state.accepts("a")

    def test_transformation(self, three_state):
        assert three_state.transformation("a") == (1, 0, 0)
        assert three_state.transformation("b") == (2, 0, None)

    def test_dot(self, three_state):
        dot = three_state.to_dot()
        assert dot.startswith("digraph automaton {")
        assert '[label="a"]' in dot


class TestFiniteMonoid:
    def test_transition_monoid_size(self, three_state_monoid):
        assert len(three_state_monoid) == 19

    def test_not_a_group(self, three_state_monoid):
        assert not three_state_monoid.is_group()

    def test_image_of_word(self, three_state, three_state_monoid):
        for w in ["", "a", "ab", "baab"]:
            assert three_state_monoid.image_of_word(w) == three_state.transformation(w)

    def test_index_period_and_omega(self, three_state_monoid):
        M = three_state_monoid
        t = M.image_of_word("ab")
        assert M.index_period(t) == (1, 1)
        assert M.is_idempotent(M.omega_power(t))
        s = M.image_of_word("a")
        assert M.is_idempotent(M.omega_power(s))

    def test_cyclic(self):
        C = cyclic_monoid(6)
        assert C.is_group()
        assert C.index_period(1) == (1, 6)
        assert C.omega_power(1) == 0
        assert C.image_of_word("ggg") == 3

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            transition_monoid(
                Automaton(
                    AB,
                    tuple(range(30)),
                    0,
                    frozenset({0}),
                    {
                        **{(q, "a"): (q + 1) % 30 for q in range(30)},
                        **{(q, "b"): (q * 7 + 3) % 30 for q in range(30)},
                    },
                ),
                budget=50,
            )

    def test_witnesses_evaluate_back(self, three_state_monoid):
        M = three_state_monoid
        for e in M.elements:
            assert M.image_of_word(M.witness[e]) == e


class TestGreen:
    def test_j_class_count(self, three_state_monoid):
        assert len(green(three_state_monoid).classes("J")) == 4

    def test_eggbox_of_rank_two_class(self, three_state_monoid):
        M = three_state_monoid
        G = green(M)
        i = M.pos[M.image_of_word("aa")]
        box = G.eggbox(G.j_class[i])
        assert "aa*" in box and "ab*" in box and "ba*" in box
        assert box.count("|") > 0

    def test_h_is_r_meet_l(self, three_state_monoid):
        G = green(three_state_monoid)
        n = len(three_state_monoid)
        for i in range(n):
            for j in range(n):
                same_h = G.h_class[i] == G.h_class[j]
                assert same_h == (
                    G.r_class[i] == G.r_class[j] and G.l_class[i] == G.l_class[j]
                )

    def test_regularity(self, three_state_monoid):
        M = three_state_monoid
        G = green(M)
        cid = G.j_class[M.pos[M.image_of_word("aa")]]
        assert G.is_regular_j(cid)

    def test_json(self, three_state_monoid):
        import json

        payload = json.loads(green(three_state_monoid).to_json())
        assert payload["size"] == 19
        assert len(payload["j_classes"]) == 4

    def test_schutzenberger_of_rank_two_class(self, three_state_monoid):
        M = three_state_monoid
        G = green(M)
        i = M.pos[M.image_of_word("aa")]
        h = [M.elements[j] for j in G.h_class_of(i)]
        assert schutzenberger_group(M, h).order() == 2


class TestPermutations:
    def test_parse_and_format(self):
        dom = (1, 2, 3, 4, 5)
        m = parse_permutation("(1 2 3)(4 5)", dom)
        assert m == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
        assert cycle_notation(m) == "(1 2 3)(4 5)"
        assert parse_permutation("()", dom) == {p: p for p in dom}

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_permutation("(1 2", (1, 2))
        with pytest.raises(ParseError):
            parse_permutation("(1 9)", (1, 2))
        with pytest.raises(ParseError):
            parse_permutation("(1 1)", (1, 2))

    def test_alternating_group_order(self):
        dom = (1, 2, 3, 4, 5)
        G = PermGroup(
            dom,
            [
                parse_permutation("(1 2 3 4 5)", dom),
                parse_permutation("(1 2 3)", dom),
            ],
        )
        assert G.order() == 60

    def test_contains(self):
        dom = (1, 2, 3)
        G = PermGroup(dom, [parse_permutation("(1 2 3)", dom)])
        assert G.order() == 3
        assert G.contains(parse_permutation("(1 3 2)", dom))
        assert not G.contains(parse_permutation("(1 2)", dom))

    def test_elements_are_position_tuples(self):
        dom = ("p", "q", "r")
        G = PermGroup(dom, [parse_permutation("(p q r)", dom)])
        assert G.elements() == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
        assert G.generators[0]["p"] == "q"

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            PermGroup((1, 2), [{1: 1, 2: 1}])

    def test_budget(self):
        dom = tuple(range(1, 9))
        G = PermGroup(
            dom,
            [
                parse_permutation("(1 2 3 4 5 6 7 8)", dom),
                parse_permutation("(1 2)", dom),
            ],
        )
        with pytest.raises(BudgetExceeded):
            G.order(budget=100)

    def test_budget_of_a_later_call(self):
        dom = (1, 2, 3, 4, 5)
        A5 = [parse_permutation("(1 2 3)", dom), parse_permutation("(3 4 5)", dom)]
        G = PermGroup(dom, A5)
        assert G.order() == 60
        with pytest.raises(BudgetExceeded) as cached:
            G.order(budget=10)
        with pytest.raises(BudgetExceeded) as fresh:
            PermGroup(dom, A5).order(budget=10)
        assert str(cached.value) == str(fresh.value)
        assert G.order(budget=60) == 60

    def test_contains_reads_the_closure_built(self):
        # S8 has 40320 elements, above the default budget of elements()
        dom = tuple(range(1, 9))
        G = PermGroup(
            dom,
            [
                parse_permutation("(1 2 3 4 5 6 7 8)", dom),
                parse_permutation("(1 2)", dom),
            ],
        )
        assert G.order(budget=40320) == 40320
        assert G.contains(parse_permutation("(1 8)(2 7)", dom))


class TestIsomorphism:
    def dom_group(self, text, dom):
        return PermGroup(dom, [parse_permutation(t, dom) for t in text])

    def test_cyclic_matches_itself(self):
        G = self.dom_group(["(1 2 3 4)"], (1, 2, 3, 4))
        H = self.dom_group(["(5 6 7 8)"], (5, 6, 7, 8))
        assert is_isomorphic_small(G, H)

    def test_cyclic_vs_klein(self):
        G = self.dom_group(["(1 2 3 4)"], (1, 2, 3, 4))
        V = self.dom_group(["(1 2)(3 4)", "(1 3)(2 4)"], (1, 2, 3, 4))
        assert not is_isomorphic_small(G, V)

    def test_symmetric_vs_cyclic_six(self):
        S3 = self.dom_group(["(1 2 3)", "(1 2)"], (1, 2, 3))
        Z6 = self.dom_group(["(1 2 3 4 5 6)"], (1, 2, 3, 4, 5, 6))
        assert not is_isomorphic_small(S3, Z6)
        assert is_isomorphic_small(S3, self.dom_group(["(4 5 6)", "(4 5)"], (4, 5, 6)))


class TestFMinimal:
    def test_rank_and_witness(self, three_state, fib_set):
        rank, word, images = f_min_rank_data(three_state, fib_set)
        assert rank == 2
        assert transformation_rank(three_state.transformation(word)) == 2
        assert images == {frozenset({0, 1}), frozenset({0, 2})}
        assert f_min_rank(three_state, fib_set) == 2

    def test_group_is_cyclic_of_order_two(self, three_state, fib_set):
        G, word, names = f_group(three_state, fib_set)
        assert G.order() == 2
        assert set(names) <= {1, 2, 3}
        assert len(names) == 2

    def test_explicit_base(self, three_state, fib_set):
        G, word, names = f_group(three_state, fib_set, base="a")
        assert word == "a"
        assert G.order() == 2

    def test_bad_base_rejected(self, three_state, fib_set):
        with pytest.raises(InternalInvariantError):
            f_group(three_state, fib_set, base="")

    def test_letter_missing_from_the_automaton(self, fib_set):
        only_a = minimal_automaton_of_star(BifixCode.of(["a"]))
        with pytest.raises(ValueError, match="'b'"):
            f_min_rank_data(only_a, fib_set)


class TestMonoidFromPermutations:
    def test_symmetric_group(self):
        dom = (1, 2, 3)
        M = monoid_from_permutations(
            {
                "a": parse_permutation("(1 2 3)", dom),
                "b": parse_permutation("(1 2)", dom),
            },
            dom,
        )
        assert len(M) == 6
        assert M.is_group()
