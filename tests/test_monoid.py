"""Transformation monoids, Green's relations and induced permutation groups."""

import itertools
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import minishift.monoid as monoid_mod
from minishift.bifix import (
    BifixCode,
    GroupCodeSpec,
    group_code_intersection,
    minimal_automaton_of_star,
)
from minishift.errors import (
    DEFAULT_MONOID_BUDGET,
    BudgetExceeded,
    InputError,
    InsufficientHorizon,
    InternalInvariantError,
    ParseError,
)
from minishift.monoid import (
    Automaton,
    FiniteMonoid,
    PermGroup,
    compose,
    cycle_notation,
    cycles,
    cyclic_monoid,
    f_group,
    f_min_rank,
    f_min_rank_data,
    green,
    is_isomorphic_small,
    monoid_from_permutations,
    omega_index,
    orbit,
    parse_permutation,
    transformation_image,
    transition_monoid,
)
from minishift.monoid import _left_graph, _right_action, _sccs
from minishift.returns import right_return_words
from minishift.shadow import MorphismToFinite, separation_witness
from minishift.words import Alphabet, FactorSet, shortlex
from test_bifix import bifix_codes
from test_returns import count_walks
from test_words import primitive_substitutions


AB = Alphabet.of("ab")


@st.composite
def small_automata(draw, max_states=3):
    """Partial deterministic automata on at most three states over ab or abc."""
    letters = draw(st.sampled_from(["ab", "abc"]))
    states = tuple(range(draw(st.integers(1, max_states))))
    targets = st.one_of(st.none(), st.sampled_from(states))
    transitions = {}
    for q in states:
        for a in letters:
            r = draw(targets)
            if r is not None:
                transitions[(q, a)] = r
    return Automaton(Alphabet.of(letters), states, 0, frozenset({0}), transitions)


@st.composite
def byte_automata(draw):
    """Partial automata on fewer than 256 states: small random ones, or two
    letters acting as q -> k*q + c mod n on six to 255 states, each with up
    to three states that have no transition on it."""
    if draw(st.booleans()):
        return draw(small_automata(max_states=5))
    n = draw(st.integers(6, 255))
    transitions = {}
    for a in "ab":
        k, c = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        holes = draw(st.sets(st.integers(0, n - 1), max_size=3))
        transitions.update({(q, a): (k * q + c) % n for q in range(n) if q not in holes})
    return Automaton(AB, tuple(range(n)), 0, frozenset({0}), transitions)


@st.composite
def permutation_monoids(draw):
    """Groups generated by one to three permutations of at most four points."""
    dom = tuple(range(1, draw(st.integers(1, 4)) + 1))
    images = {
        a: dict(zip(dom, draw(st.permutations(dom))))
        for a in "abc"[: draw(st.integers(1, 3))]
    }
    return monoid_from_permutations(images, dom)


def parent_sccs(n, edges):
    """Tarjan resuming each node at an edge index, as ``_sccs`` was before edge iterators."""
    ids = [-1] * n
    low = [0] * n
    num = [0] * n
    on = [False] * n
    stack = []
    comp = [0]
    counter = [0]

    for root in range(n):
        if ids[root] != -1 or num[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ei = work.pop()
            if ei == 0:
                counter[0] += 1
                num[v] = counter[0]
                low[v] = num[v]
                stack.append(v)
                on[v] = True
            advanced = False
            for j in range(ei, len(edges[v])):
                w = edges[v][j]
                if num[w] == 0:
                    work.append((v, j + 1))
                    work.append((w, 0))
                    advanced = True
                    break
                if on[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            if low[v] == num[v]:
                while True:
                    w = stack.pop()
                    on[w] = False
                    ids[w] = comp[0]
                    if w == v:
                        break
                comp[0] += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return ids


def brute_green(M):
    """Green's relations straight from their definitions, as partitions of the positions.

    x R y iff xM = yM, x L y iff Mx = My, x J y iff MxM = MyM, and H = R meet L;
    M is a monoid, so M stands for M^1.
    """
    els, pos, mul = M.elements, M.pos, M.mul
    right = [frozenset(pos[mul(x, m)] for m in els) for x in els]
    left = [frozenset(pos[mul(m, x)] for m in els) for x in els]
    both = [frozenset().union(*(left[y] for y in right[i])) for i in range(len(els))]
    return {
        "R": right,
        "L": left,
        "J": both,
        "H": [(r, l) for r, l in zip(right, left)],
    }


def partition(keys):
    """Each position labelled by the first position with the same key."""
    first = {}
    return [first.setdefault(k, i) for i, k in enumerate(keys)]


def assert_green_matches_definitions(M):
    G = green(M)
    oracle = brute_green(M)
    ids = {"R": G.r_class, "L": G.l_class, "J": G.j_class, "H": G.h_class}
    for kind, keys in oracle.items():
        assert partition(ids[kind]) == partition(keys), kind
    assert G.idempotent == [M.mul(x, x) == x for x in M.elements]


def assert_cayley_graphs(M):
    gens = list(M.generators.values())
    d = len(gens)
    left = _left_graph(M)
    assert len(M.right) == len(left) == len(M) * d
    for i, x in enumerate(M.elements):
        for j, g in enumerate(gens):
            assert M.right[i * d + j] == M.pos[M.mul(x, g)]
            assert left[i * d + j] == M.pos[M.mul(g, x)]
    assert M.found_at[0] == -1
    for k in range(1, len(M)):
        slot = M.found_at[k]
        assert M.right[slot] == k and slot // d < k


def schutzenberger_group(M, h_members):
    """Right-translation group of an H-class (members given as elements)."""
    hset = set(h_members)
    domain = tuple(range(len(h_members)))
    order = list(h_members)
    pos = {e: i for i, e in enumerate(order)}
    gens = []
    seen = set()
    for m in M.elements:
        translated = [M.mul(x, m) for x in order]
        if set(translated) != hset:
            continue
        key = tuple(pos[t] for t in translated)
        if key not in seen:
            seen.add(key)
            gens.append(dict(enumerate(key)))
    return PermGroup(domain, gens)


def scanned_min_rank(A, F):
    """Oracle: the least rank over every factor of F, its shortlex-least word and its images."""
    letter_maps = A.letter_maps
    current = {"": A.transformation("")}
    rank, word, images = len(A.states) + 1, None, set()
    for n in range(F.horizon + 1):
        if n:
            current = {
                w: compose(current[w[:-1]], letter_maps[w[-1]]) for w in F.words_of_length(n)
            }
        for w, t in current.items():
            r = len(transformation_image(t))
            if r < rank:
                rank, word, images = r, w, set()
            if r == rank:
                images.add(transformation_image(t))
    return rank, word, images


def assert_certified_or_refused(A, sigma, horizon):
    """``f_min_rank_data`` at ``horizon`` refuses, or agrees with a scan at horizon 80.

    A certified answer reads only factors within ``horizon``, so the longer
    scan holds its witness and every image of the least rank.
    """
    try:
        answer = f_min_rank_data(A, FactorSet.from_substitution(sigma, "a", horizon))
    except InsufficientHorizon:
        return
    assert answer == scanned_min_rank(A, FactorSet.from_substitution(sigma, "a", 80))


def per_state_transformation(A, word):
    """Oracle: ``run`` from each state on its own, as ``transformation`` was before letter maps.

    Encoded as the automaton's maps are: bytes with n for no state on n < 256
    states, a tuple with None on more.
    """
    pos = {q: i for i, q in enumerate(A.states)}
    out = []
    for q in A.states:
        r = A.run(word, start=q)
        out.append(None if r is None else pos[r])
    n = len(A.states)
    return bytes(n if q is None else q for q in out) if n < 256 else tuple(out)


def words_up_to(letters, n):
    return ["".join(w) for k in range(n + 1) for w in itertools.product(letters, repeat=k)]


def searched_is_group(M):
    """Oracle: every element has a right inverse, found among all n^2 products."""
    return all(any(M.mul(x, y) == M.identity for y in M.elements) for x in M.elements)


def searched_order(t):
    """Oracle: the least k >= 1 with t^k the identity, by repeated products."""
    k, power = 1, t
    while power != tuple(range(len(t))):
        k, power = k + 1, compose(power, t)
    return k


def position_tuples(G):
    return [tuple(G.domain.index(g[p]) for p in G.domain) for g in G.generators]


def searched_isomorphic(G, H):
    """Oracle: each assignment of H's elements to G's generators, of equal orders,
    closed by a breadth-first search over generator words that stops at a clash."""
    gel, hel = G.elements(), H.elements()
    if len(gel) != len(hel):
        return False
    gens = position_tuples(G)
    for images in itertools.product(*([h for h in hel if searched_order(h) == searched_order(g)]
                                      for g in gens)):
        table = {gel[0]: hel[0]}
        queue = [(gel[0], hel[0])]
        clash = False
        while queue and not clash:
            gx, hx = queue.pop()
            for g, h in zip(gens, images):
                gy, hy = compose(gx, g), compose(hx, h)
                if gy not in table:
                    table[gy] = hy
                    queue.append((gy, hy))
                elif table[gy] != hy:
                    clash = True
        if not clash and len(table) == len(gel) and len(set(table.values())) == len(hel):
            return True
    return False


def looped_cycle_notation(mapping):
    """Oracle: cycle notation by following each cycle in a loop."""
    seen = set()
    cycles = []
    for p in sorted(mapping):
        if p in seen or mapping[p] == p:
            seen.add(p)
            continue
        cycle = [p]
        seen.add(p)
        q = mapping[p]
        while q != p:
            cycle.append(q)
            seen.add(q)
            q = mapping[q]
        cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) or "()"


@st.composite
def perm_groups(draw, max_points=4):
    """Groups generated by zero to three permutations of at most ``max_points`` points."""
    dom = tuple(range(1, draw(st.integers(1, max_points)) + 1))
    gens = [dict(zip(dom, draw(st.permutations(dom)))) for _ in range(draw(st.integers(0, 3)))]
    return PermGroup(dom, gens)


def other_presentation(G, data):
    """G on renamed points, generated by its generators and up to two more of
    its elements, in a random order."""
    n = len(G.domain)
    gens = position_tuples(G) + data.draw(st.lists(st.sampled_from(G.elements()), max_size=2))
    names = [f"p{i}" for i in data.draw(st.permutations(range(n)))]
    return PermGroup(names, [{names[i]: names[t[i]] for i in range(n)}
                             for t in data.draw(st.permutations(gens))])


# ---- the tuple-based monoid code that the bytes state maps replaced, kept as an oracle


def tuple_letter_maps(A):
    """Each letter's state map as a tuple over state positions, None for no state."""
    pos = {q: i for i, q in enumerate(A.states)}
    return {a: tuple(pos.get(A.transitions.get((q, a))) for q in A.states) for a in A.alphabet}


def tuple_compose(x, y):
    return tuple([None if q is None else y[q] for q in x])


def tuple_rank(t):
    return len({q for q in t if q is not None})


def tuple_image(t):
    return frozenset(q for q in t if q is not None)


def tuple_transition_monoid(A, budget=DEFAULT_MONOID_BUDGET):
    identity = tuple(range(len(A.states)))
    return FiniteMonoid.from_generators(tuple_letter_maps(A), tuple_compose, identity, budget)


def tuple_green(M):
    """(R, L, J, H ids, idempotent flags), each node's edges sliced into its own list.

    J is found on its own, by Tarjan on the union of the two graphs, and then
    each J-class is relabelled by the least R id among its members.
    """
    n = len(M)
    d = len(M.generators)
    right = M.right
    left = _left_graph(M)
    both = [0] * (2 * n * d)
    both[0::2] = right
    both[1::2] = left
    r_class = parent_sccs(n, [right[i * d : i * d + d] for i in range(n)])
    l_class = parent_sccs(n, [left[i * d : i * d + d] for i in range(n)])
    j_sccs = parent_sccs(n, [both[2 * i * d : 2 * i * d + 2 * d] for i in range(n)])
    least_r = {}
    for j, r in zip(j_sccs, r_class):
        least_r[j] = min(least_r.get(j, r), r)
    j_class = [least_r[j] for j in j_sccs]
    pair_ids = {}
    h_class = [pair_ids.setdefault(key, len(pair_ids)) for key in zip(r_class, l_class)]
    return r_class, l_class, j_class, h_class, [M.is_idempotent(x) for x in M.elements]


def tuple_f_min_rank_data(A, F):
    if not F.complete:
        raise InsufficientHorizon("factor set is not certified complete")
    letter_maps = tuple_letter_maps(A)
    missing = [a for a in F.words_of_length(1) if a not in letter_maps]
    if missing:
        raise ValueError(f"automaton has no letter {''.join(missing)!r} of the factor set")
    current = {"": tuple(range(len(A.states)))}
    best_rank = len(A.states) + 1
    refusal = None
    for n in range(F.horizon + 1):
        if n:
            current = {
                w: tuple_compose(current[w[:-1]], letter_maps[w[-1]])
                for w in F.words_of_length(n)
            }
        for word, t in current.items():
            rank = tuple_rank(t)
            if rank >= best_rank:
                continue
            best_rank = rank
            if rank == 0:
                return 0, word, {frozenset()}
            try:
                returns = right_return_words(F, word).words
            except InsufficientHorizon as exc:
                refusal = refusal or exc
                continue
            images = {tuple_image(t)}
            for u in returns:
                s = t
                for a in u:
                    s = tuple_compose(s, letter_maps[a])
                    images.add(tuple_image(s))
                if tuple_rank(s) < rank:
                    break
            else:
                return rank, word, images
    raise refusal


def tuple_f_group(A, F, base=None):
    rank, word, _ = tuple_f_min_rank_data(A, F)
    if base is not None:
        word = base
    letter_maps = tuple_letter_maps(A)
    n = len(A.states)

    def act(w):
        return reduce(tuple_compose, [letter_maps.get(a, (None,) * n) for a in w],
                      tuple(range(n)))

    t = act(word)
    if tuple_rank(t) != rank:
        raise InternalInvariantError(f"base word {word!r} does not reach minimal rank")
    image = sorted(tuple_image(t))
    gens = []
    for r in sorted(right_return_words(F, word).words if rank else (), key=shortlex):
        action = act(r)
        if any(action[q] not in image for q in image):
            raise InternalInvariantError(f"return word {r!r} does not permute the minimal image")
        gens.append({A.states[q]: A.states[action[q]] for q in image})
    names = tuple(A.states[q] for q in image)
    return PermGroup(names, gens), word, names


def as_tuple(t):
    """A state map as the tuple code wrote it: the byte n of a bytes map becomes None."""
    return tuple(None if q == len(t) else q for q in t) if isinstance(t, bytes) else t


def assert_monoid_as_the_tuple_code(A, budget=DEFAULT_MONOID_BUDGET):
    try:
        T = tuple_transition_monoid(A, budget)
    except BudgetExceeded as cut:
        with pytest.raises(BudgetExceeded) as same:
            transition_monoid(A, budget)
        assert str(same.value) == str(cut)
        return
    M = transition_monoid(A, budget)
    assert [as_tuple(x) for x in M.elements] == T.elements
    assert {type(x) for x in M.elements} == {bytes if len(A.states) < 256 else tuple}
    assert M.right == T.right and M.found_at == T.found_at
    assert list(M.witness.values()) == list(T.witness.values())
    G = green(M)
    assert (G.r_class, G.l_class, G.j_class, G.h_class, G.idempotent) == tuple_green(T)


def outcome(f, *args):
    """The value of ``f(*args)``, or the type and message of the refusal it raised."""
    try:
        return f(*args)
    except (InsufficientHorizon, InternalInvariantError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def group_outcome(f, A, F):
    out = outcome(f, A, F)
    if isinstance(out[0], PermGroup):
        G, word, names = out
        return G.order(), G.generator_cycles(), word, names
    return out


def assert_f_minimal_as_the_tuple_code(A, F):
    assert outcome(f_min_rank_data, A, F) == outcome(tuple_f_min_rank_data, A, F)
    assert group_outcome(f_group, A, F) == group_outcome(tuple_f_group, A, F)


GROUP_SPECS = {
    "A5": GroupCodeSpec.from_cycles((1, 2, 3, 4, 5), {"a": "(1 2 3)", "b": "(3 4 5)"}, 1),
    "Z2": GroupCodeSpec.cyclic(2, {"a": 1, "b": 1}),
    "Z3": GroupCodeSpec.cyclic(3, {"a": 1, "b": 2}),
}


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


@pytest.fixture
def separation_matrices(monkeypatch):
    """The monoid of decoder matrices that ``separation_witness`` builds for {ab, aab} over Z/2."""
    psi = MorphismToFinite(cyclic_monoid(2), {"a": 1, "b": 1})
    built = []
    closure = FiniteMonoid.from_generators.__func__

    def kept(cls, *args):
        built.append(closure(cls, *args))
        return built[-1]

    monkeypatch.setattr(FiniteMonoid, "from_generators", classmethod(kept))
    separation_witness({"ab", "aab"}, {"a": "ab", "b": "aab"}, psi, "a", "ab")
    (matrices,) = built
    return matrices


@pytest.fixture
def cyclic_five():
    return cyclic_monoid(5)


class TestTransformations:
    def test_compose_order(self):
        x = bytes((1, 2, 0))
        y = bytes((2, 2, 2))
        assert compose(x, y) == bytes((2, 2, 2))
        assert compose(y, x) == bytes((0, 0, 0))
        assert compose((1, 2, 0), (2, 2, 2)) == (2, 2, 2)

    def test_partial(self):
        t = bytes((1, 3, 0))  # on three states the byte 3 is no state
        assert len(transformation_image(t)) == 2
        assert transformation_image(t) == frozenset({0, 1})
        assert compose(t, bytes((3, 2, 1))) == bytes((2, 3, 3))
        assert compose(bytes((3, 3, 3)), t) == bytes((3, 3, 3))
        u = (1, None, 0)  # tuples, with None for no state, serve 256 states and more
        assert len(transformation_image(u)) == 2
        assert transformation_image(u) == frozenset({0, 1})
        assert compose(u, (None, 2, 1)) == (2, None, None)


class TestAutomaton:
    @pytest.mark.parametrize("states, initial, terminals, transitions, message", [
        ((1,), 2, frozenset(), {}, "initial state unknown"),
        ((1,), 1, frozenset(), {(1, "c"): 1}, "transition letter 'c' outside alphabet"),
        # a repeated state would leave letter maps shorter than the identity
        ((0, 0), 0, frozenset({0}), {(0, "a"): 0}, "repeated state"),
        ((1,), 1, frozenset({2}), {}, "terminal state unknown"),
        ((1,), 1, frozenset(), {(2, "a"): 1}, "transition (2,'a')->1 uses unknown state"),
        ((1,), 1, frozenset(), {(1, "a"): 2}, "transition (1,'a')->2 uses unknown state"),
    ], ids=["initial", "letter", "repeated-state", "terminal", "source", "target"])
    def test_validation(self, states, initial, terminals, transitions, message):
        with pytest.raises(InputError) as refused:
            Automaton(AB, states, initial, terminals, transitions)
        assert str(refused.value) == message

    def test_run_and_accepts(self, three_state):
        assert three_state.run("ab") == 1
        assert three_state.run("a") == 2
        assert three_state.run("bb") is None
        assert three_state.accepts("")
        assert three_state.accepts("abba")
        assert not three_state.accepts("a")

    def test_transformation(self, three_state):
        assert three_state.transformation("a") == bytes((1, 0, 0))
        assert three_state.transformation("b") == bytes((2, 0, 3))
        assert three_state.transformation("") == bytes((0, 1, 2))
        assert three_state.transformation("ac") == bytes((3, 3, 3))

    def test_dot(self, three_state):
        dot = three_state.to_dot()
        assert dot.startswith("digraph automaton {")
        assert '[label="a"]' in dot


class TestWordAction:
    """``transformation`` composes letter maps; ``run`` from each state is its oracle."""

    def test_three_state_every_short_word(self, three_state):
        for w in words_up_to("abc", 6):  # c is outside the alphabet
            assert three_state.transformation(w) == per_state_transformation(three_state, w)

    @settings(max_examples=30)
    @given(small_automata())
    def test_random_automata_every_short_word(self, A):
        maps = A.letter_maps
        assert list(maps) == list(A.alphabet)
        assert all(maps[a] == per_state_transformation(A, a) for a in A.alphabet)
        for w in words_up_to("".join(A.alphabet) + "x", 6):
            assert A.transformation(w) == per_state_transformation(A, w)


class TestOrbit:
    def test_purely_periodic(self):
        assert orbit(1, lambda x: (x + 1) % 6) == ([1, 2, 3, 4, 5, 0], 0, 6)
        assert orbit(0, lambda x: 0) == ([0], 0, 1)

    def test_preperiod(self):
        collatz = orbit(6, lambda n: n // 2 if n % 2 == 0 else 3 * n + 1)
        assert collatz == ([6, 3, 10, 5, 16, 8, 4, 2, 1], 6, 3)
        assert orbit(2, lambda x: x * x % 10) == ([2, 4, 6], 2, 1)

    def test_omega_index(self):
        assert [omega_index(start, 3) for start in range(8)] == [0, 3, 3, 3, 6, 6, 6, 9]
        assert omega_index(0, 1) == 0
        assert omega_index(5, 1) == 5
        assert omega_index(5, 6) == 6

    def test_index_period_and_omega_of_transformations(self):
        M = FiniteMonoid.from_generators(
            {"s": (1, 2, 2), "t": (1, 0, 0)}, compose, (0, 1, 2)
        )
        # orbit(s, t -> t s) gives the powers s, s^2, ... and (index - 1, period)
        assert orbit((1, 2, 2), lambda t: M.mul(t, (1, 2, 2)))[1:] == (1, 1)
        assert M.omega_power((1, 2, 2)) == (2, 2, 2)
        assert orbit((1, 0, 0), lambda t: M.mul(t, (1, 0, 0)))[1:] == (0, 2)
        assert M.omega_power((1, 0, 0)) == (0, 1, 1)


class TestFiniteMonoid:
    def test_transition_monoid_size(self, three_state_monoid):
        assert len(three_state_monoid) == 19

    def test_not_a_group(self, three_state_monoid):
        assert not three_state_monoid.is_group()

    @pytest.mark.parametrize("name", ["three_state_monoid", "separation_matrices", "cyclic_five"])
    def test_image_of_word(self, request, name):
        # the walk along the right Cayley graph against multiplying the generators
        M = request.getfixturevalue(name)
        for w in words_up_to(list(M.generators), 6):
            assert M.image_of_word(w) == M.product(M.generators[a] for a in w)

    def test_index_period_and_omega(self, three_state_monoid):
        M = three_state_monoid
        t = M.image_of_word("ab")
        assert orbit(t, lambda u: M.mul(u, t))[1:] == (0, 1)
        assert M.is_idempotent(M.omega_power(t))
        s = M.image_of_word("a")
        assert M.is_idempotent(M.omega_power(s))

    def test_cyclic(self):
        C = cyclic_monoid(6)
        assert C.is_group()
        assert orbit(1, lambda t: C.mul(t, 1))[1:] == (0, 6)
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
        assert any(G.idempotent[i] for i in G.j_class_members(cid))

    def test_j_classes(self, three_state_monoid):
        # by J id: member witnesses, R-class count, L-class count, regular
        M = three_state_monoid
        G = green(M)
        assert len(M) == 19
        assert [
            (sorted(M.witness[M.elements[i]] for i in members),
             len({G.r_class[i] for i in members}), len({G.l_class[i] for i in members}),
             any(G.idempotent[i] for i in members))
            for cid, members in sorted(G.classes("J").items())
        ] == [
            (["bbb"], 1, 1, True),
            (["aabb", "aabba", "aabbaa", "abb", "abba", "abbaa", "bb", "bba", "bbaa"], 3, 3, True),
            (["a", "aa", "aab", "ab", "b", "ba", "baa", "baab"], 2, 2, True),
            ([""], 1, 1, True),
        ]

    def test_j_id_is_the_least_r_id_of_the_class(self, three_state_monoid):
        G = green(three_state_monoid)
        for cid, members in G.classes("J").items():
            assert cid == min(G.r_class[i] for i in members)

    def test_schutzenberger_of_rank_two_class(self, three_state_monoid):
        M = three_state_monoid
        G = green(M)
        i = M.pos[M.image_of_word("aa")]
        h = [M.elements[j] for j in G.classes("H")[G.h_class[i]]]
        assert schutzenberger_group(M, h).order() == 2


    def test_grouped_reads_match_scans(self, three_state_monoid):
        G = green(three_state_monoid)
        n = len(three_state_monoid)
        for cid in set(G.j_class):
            members = [i for i in range(n) if G.j_class[i] == cid]
            assert G.j_class_members(cid) == members
        for i in range(n):
            members = [j for j in range(n) if G.h_class[j] == G.h_class[i]]
            assert G.classes("H")[G.h_class[i]] == members
        assert G.j_class_members(max(G.j_class) + 1) == []

    def test_j_and_idempotents_build_no_left_graph(self, three_state_monoid, left_graph_calls):
        M = three_state_monoid
        G = green(M)
        assert len(G.classes("J")) == 4 and len(G.classes("R")) == 7
        assert G.idempotent == [M.is_idempotent(x) for x in M.elements]
        assert left_graph_calls == []

    @pytest.mark.parametrize("first", ["l_class", "h_class", "eggbox", "L", "H"])
    def test_left_graph_built_once_on_first_read(self, three_state_monoid, left_graph_calls,
                                                 first):
        M = three_state_monoid
        G = green(M)
        reads = {
            "l_class": lambda: G.l_class,
            "h_class": lambda: G.h_class,
            "eggbox": lambda: G.eggbox(G.j_class[M.pos[M.image_of_word("aa")]]),
            "L": lambda: G.classes("L"),
            "H": lambda: G.classes("H"),
            "idempotent": lambda: G.idempotent,
        }
        reads[first]()
        assert left_graph_calls == [M]
        for read in reads.values():
            read()
        assert left_graph_calls == [M]


@pytest.fixture
def left_graph_calls(monkeypatch):
    """The monoids whose left Cayley graph is built while the test runs."""
    calls = []

    def counted(M):
        calls.append(M)
        return _left_graph(M)

    monkeypatch.setattr(monoid_mod, "_left_graph", counted)
    return calls


class TestCayleyGraph:
    def test_three_state(self, three_state_monoid):
        assert_cayley_graphs(three_state_monoid)

    @settings(max_examples=150)
    @given(small_automata())
    def test_transition_monoids(self, A):
        assert_cayley_graphs(transition_monoid(A))

    @settings(max_examples=60)
    @given(permutation_monoids())
    def test_permutation_monoids(self, M):
        assert_cayley_graphs(M)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12])
    def test_cyclic(self, m):
        assert_cayley_graphs(cyclic_monoid(m))

    @pytest.mark.parametrize("m", range(1, 30))
    def test_cyclic_elements_and_witnesses(self, m):
        C = cyclic_monoid(m)
        assert C.elements == list(range(m))
        assert C.witness == {i: "g" * i for i in range(m)}
        assert list(C.witness) == C.elements

    def test_closure_spells_no_witness(self):
        """The words g^0 ... g^3999 would hold 8 million characters; the closure keeps ints."""
        tracemalloc.start()
        try:
            cyclic_monoid(4000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    @settings(max_examples=100)
    @given(small_automata())
    def test_budget_of_exactly_the_size(self, A):
        M = transition_monoid(A)
        identity = A.transformation("")
        gens = A.letter_maps
        same = FiniteMonoid.from_generators(gens, compose, identity, budget=len(M))
        assert same.elements == M.elements and same.witness == M.witness
        if len(M) == 1:
            return
        with pytest.raises(BudgetExceeded) as cut:
            FiniteMonoid.from_generators(gens, compose, identity, budget=len(M) - 1)
        assert str(cut.value) == f"monoid larger than budget {len(M) - 1}"

    @pytest.mark.parametrize("gens", [{"a": (0, 1)}, {"a": (1, 0)}], ids=["identity", "swap"])
    def test_budget_below_one_is_refused(self, gens):
        # refused before closing: the identity's closure never meets the size check
        with pytest.raises(InputError, match="budget must be at least 1, got 0"):
            FiniteMonoid.from_generators(gens, compose, (0, 1), budget=0)


def generic_compose(x, y):
    """``compose`` under another name: the closure then calls it for every product."""
    return compose(x, y)


def green_lists(M):
    G = green(M)
    return G.r_class, G.l_class, G.j_class, G.h_class, G.idempotent


def assert_closures_agree(gens, identity, budget):
    """The closure under ``compose`` and under ``generic_compose`` agree, or
    both stop with the same refusal; returns the first, or None if cut."""
    try:
        slow = FiniteMonoid.from_generators(gens, generic_compose, identity, budget)
    except BudgetExceeded as cut:
        with pytest.raises(BudgetExceeded) as same:
            FiniteMonoid.from_generators(gens, compose, identity, budget)
        assert str(same.value) == str(cut)
        return None
    fast = FiniteMonoid.from_generators(gens, compose, identity, budget)
    assert fast.elements == slow.elements
    assert fast.right == slow.right and fast.found_at == slow.found_at
    assert green_lists(fast) == green_lists(slow)
    return fast


class TestTableClosure:
    """The closure by per-generator ``bytes.translate`` tables against the generic one."""

    @settings(max_examples=120)
    @given(byte_automata(), st.integers(1, 3000))
    def test_same_closure_as_the_generic_path(self, A, budget):
        gens = A.letter_maps
        identity = A.transformation("")
        assert _right_action(compose, list(gens.values()))[0] is bytes.translate
        M = assert_closures_agree(gens, identity, budget)
        if M is not None and len(M) > 1:
            assert assert_closures_agree(gens, identity, len(M)) is not None
            assert assert_closures_agree(gens, identity, len(M) - 1) is None

    def test_256_states_or_more_close_on_the_tuple_path(self):
        n = 300
        A = Automaton(
            AB,
            tuple(range(n)),
            0,
            frozenset({0}),
            {**{(q, "a"): (q + 1) % n for q in range(n)}, **{(q, "b"): 0 for q in range(n)}},
        )
        gens = A.letter_maps
        assert _right_action(compose, list(gens.values()))[0] is compose
        M = assert_closures_agree(gens, A.transformation(""), DEFAULT_MONOID_BUDGET)
        assert len(M) == 2 * n  # the n rotations and the n constant maps
        assert {type(x) for x in M.elements} == {tuple}

    def test_other_multiplications_are_kept(self):
        gens = [(1, 0), (0, 1)]
        assert _right_action(compose, gens) == (compose, gens)
        assert _right_action(generic_compose, [b"\x01\x00"]) == (generic_compose, [b"\x01\x00"])


class TestGreenOracle:
    """``green`` against the definitions of Green's relations by ideals."""

    def test_three_state(self, three_state_monoid):
        assert_green_matches_definitions(three_state_monoid)

    @settings(max_examples=150)
    @given(small_automata())
    def test_transition_monoids(self, A):
        assert_green_matches_definitions(transition_monoid(A))

    @settings(max_examples=60)
    @given(permutation_monoids())
    def test_permutation_monoids(self, M):
        assert_green_matches_definitions(M)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_cyclic(self, m):
        assert_green_matches_definitions(cyclic_monoid(m))

    def test_rank_two_code_monoid(self):
        A = minimal_automaton_of_star(BifixCode.of(["aa", "ab", "ba"]))
        assert_green_matches_definitions(transition_monoid(A))

    def test_a5_code_of_quad_against_the_union_graph(self, quad_set):
        """J read off the R-classes against Tarjan on the union of both Cayley graphs
        (``tuple_green``), on the monoid of the A5 group code of quad at L = 32."""
        X = group_code_intersection(GROUP_SPECS["A5"], quad_set)
        M = transition_monoid(minimal_automaton_of_star(X), budget=30000)
        G = green(M)
        assert (len(M), len(G.classes("J"))) == (25768, 12)
        assert G.j_class == tuple_green(M)[2]


class TestSccs:
    @settings(max_examples=300)
    @given(
        st.integers(1, 30).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(0, n - 1), max_size=4), min_size=n, max_size=n
            )
        )
    )
    def test_same_ids_as_the_parent_tarjan(self, edges):
        # each node's edges padded with self-loops to degree 4, which change no Tarjan id
        graph = [w for v, out in enumerate(edges) for w in out + [v] * (4 - len(out))]
        assert _sccs(len(edges), 4, graph) == parent_sccs(len(edges), edges)

    def test_empty_graph(self):
        assert _sccs(0, 2, []) == []


def reference_cycle_tokens(text: str) -> list:
    """Oracle: cycle notation as "(", ")" and points, the tokens of the walk below."""
    body = text.strip()
    if body in ("e", "id"):
        return []
    return [
        tok if tok in ("(", ")") else int(tok) if tok.removeprefix("-").isdecimal() else tok
        for tok in body.replace("(", " ( ").replace(")", " ) ").replace(",", " ").split()
    ]


def reference_parse_permutation(text: str, domain: tuple) -> dict:
    """Oracle: the token walk that read cycle notation before ``cycles`` checked the
    whole text against one pattern."""
    mapping = {p: p for p in domain}
    tokens = reference_cycle_tokens(text)
    if tokens.count("(") != tokens.count(")"):
        raise ParseError(f"unbalanced cycles in {text!r}")
    moved: set = set()
    i = 0
    while i < len(tokens):
        if tokens[i] != "(":
            raise ParseError(f"expected '(' in {text!r}")
        j = tokens.index(")", i)
        points = tokens[i + 1 : j]
        for point in points:
            if point not in mapping:
                raise ParseError(f"point {point!r} outside domain {domain}")
            if point in moved:
                raise ParseError(f"point {point!r} appears twice in {text!r}")
            moved.add(point)
        for k, p in enumerate(points):
            mapping[p] = points[(k + 1) % len(points)]
        i = j + 1
    return mapping


def value_or_class(read, *args):
    """("value", what ``read(*args)`` gives) or ("raises", the class it raises)."""
    try:
        return "value", read(*args)
    except Exception as exc:
        return "raises", type(exc)


# text of cycle notation: runs of cycles, mostly well formed, over numbered and named
# points (a point may repeat or lie outside DOMAIN), and free runs of its tokens
DOMAIN = (-1, 1, 2, 3, 4, "x", "e")
POINTS = st.lists(st.sampled_from(["1", "2", "3", "4", "-1", "x", "e", "9", "(", "1,2"]),
                  max_size=3)
CYCLE = st.tuples(st.sampled_from(["(", "(", "( ", " ("]), POINTS,
                  st.sampled_from([" ", " ", ",", ", "]), st.sampled_from([")", ")", " )", ""]))
CYCLE_TEXT = st.one_of(
    st.lists(CYCLE.map(lambda c: c[0] + c[2].join(c[1]) + c[3]), max_size=3).map("".join),
    st.lists(st.sampled_from(["(", ")", "1", "2", "-", "x", ",", " ", "e", "id", ":", ";"]),
             max_size=10).map("".join),
)


class TestPermutations:
    @settings(max_examples=2000)
    @given(CYCLE_TEXT)
    def test_parse_agrees_with_the_reference(self, text):
        assert value_or_class(parse_permutation, text, DOMAIN) == \
            value_or_class(reference_parse_permutation, text, DOMAIN)

    @settings(max_examples=2000)
    @given(CYCLE_TEXT)
    def test_cycles_are_the_reference_tokens(self, text):
        # where the reader accepts the text, its cycles are the walk's tokens grouped
        kind, read = value_or_class(cycles, text)
        if kind == "value":
            assert [t for c in read for t in ("(", *c, ")")] == reference_cycle_tokens(text)

    def test_parse_and_format(self):
        dom = (1, 2, 3, 4, 5)
        m = parse_permutation("(1 2 3)(4 5)", dom)
        assert m == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}
        assert cycle_notation(m) == "(1 2 3)(4 5)"
        assert parse_permutation("()", dom) == {p: p for p in dom}

    @pytest.mark.parametrize("text", ["(1 2 3)(4 5)", "(1,2,3)(4,5)", "(1, 2, 3)(4, 5)"])
    def test_commas_separate_points_like_spaces(self, text):
        assert parse_permutation(text, (1, 2, 3, 4, 5)) == {1: 2, 2: 3, 3: 1, 4: 5, 5: 4}

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_permutation("(1 2", (1, 2))
        with pytest.raises(ParseError):
            parse_permutation("(1 9)", (1, 2))
        with pytest.raises(ParseError):
            parse_permutation("(1 1)", (1, 2))
        with pytest.raises(ParseError, match="point 2 appears twice"):
            parse_permutation("(1 2)(2 3)", (1, 2, 3))

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
        assert len(transformation_image(three_state.transformation(word))) == 2
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
        with pytest.raises(ValueError, match="base word '' has rank 3, above the minimal rank 2"):
            f_group(three_state, fib_set, base="")

    @pytest.mark.parametrize("base", ["bb", "zz"])
    def test_non_factor_base_rejected(self, fib, base):
        F = FactorSet.from_substitution(fib, "a", 24)
        X = group_code_intersection(GroupCodeSpec.cyclic(2, {"a": 1, "b": 1}), F)
        # a letter outside the alphabet is refused before the factor test
        refusal = {"bb": "'bb' is not a factor", "zz": "letter 'z'"}[base]
        with pytest.raises(InputError, match=refusal):
            f_group(minimal_automaton_of_star(X), F, base=base)

    def test_letter_missing_from_the_automaton(self, fib_set):
        only_a = minimal_automaton_of_star(BifixCode.of(["a"]))
        with pytest.raises(ValueError, match="'b'"):
            f_min_rank_data(only_a, fib_set)

    def test_letter_missing_from_the_automaton_at_horizon_zero(self, fib):
        # no factor of length 1 is known there: the letters are the set's alphabet
        only_a = minimal_automaton_of_star(BifixCode.of(["a"]))
        with pytest.raises(InputError, match="automaton has no letter 'b'"):
            f_min_rank_data(only_a, FactorSet.from_substitution(fib, "a", 0))

    def test_rank_zero_past_two_lengths_of_rank_one(self, fib):
        # rank 1 from length 5 on, rank 0 only from length 20 on
        A = minimal_automaton_of_star(BifixCode.of(["aabbbb", "abbbbaab", "baababaa", "babaaba"]))
        F = FactorSet.from_substitution(fib, "a", 48)
        assert f_min_rank_data(A, F) == (0, "aabaababaababaabaaba", {frozenset()}) \
            == scanned_min_rank(A, F)

    def test_return_walk_past_the_horizon_is_refused(self, tm, tm_set_64):
        F = FactorSet.from_substitution(tm, "a", 32)
        spec = GroupCodeSpec.from_cycles((1, 2, 3, 4, 5), {"a": "(1 2 3)", "b": "(3 4 5)"})
        A = minimal_automaton_of_star(group_code_intersection(spec, F))
        with pytest.raises(InsufficientHorizon):
            f_min_rank_data(A, F)
        rank, word, images = f_min_rank_data(A, tm_set_64)
        assert (rank, word) == (5, "aabbaa")
        assert (rank, word, images) == scanned_min_rank(A, tm_set_64)

    def test_group_after_the_rank_walks_no_further(self, three_state, fib, tm):
        A5 = GroupCodeSpec.from_cycles((1, 2, 3, 4, 5), {"a": "(1 2 3)", "b": "(3 4 5)"})
        tm_64 = FactorSet.from_substitution(tm, "a", 64)
        cases = [
            (three_state, FactorSet.from_substitution(fib, "a", 16), 2),
            (minimal_automaton_of_star(group_code_intersection(A5, tm_64)), tm_64, 60),
        ]
        for A, F, order in cases:
            walks = count_walks(F)
            rank, word, _ = f_min_rank_data(A, F)
            assert rank > 0 and walks[-1] == word
            walked = list(walks)
            G, base, _ = f_group(A, F)
            assert base == word and G.order() == order
            assert walks == walked

    def test_group_at_rank_zero_walks_nothing(self, fib):
        A = minimal_automaton_of_star(BifixCode.of(["aa", "ab", "babaaba"]))
        F = FactorSet.from_substitution(fib, "a", 48)
        rank, word, _ = f_min_rank_data(A, F)
        walks = count_walks(F)
        G, base, names = f_group(A, F)
        assert (rank, base) == (0, word) and walks == []
        assert (G.order(), G.generator_cycles(), names) == (1, [], ())

    @settings(max_examples=60)
    @given(primitive_substitutions(), bifix_codes(), st.sampled_from([8, 16, 24, 32]))
    def test_random_bifix_codes_against_a_long_scan(self, sigma, X, horizon):
        letters = set(sigma.alphabet) | {c for w in X.words for c in w}
        assert_certified_or_refused(minimal_automaton_of_star(X, Alphabet.of(sorted(letters))),
                                    sigma, horizon)

    @settings(max_examples=40)
    @given(primitive_substitutions(), st.integers(2, 4), st.sampled_from([16, 24, 32]), st.data())
    def test_group_codes_against_a_long_scan(self, sigma, degree, horizon, data):
        """Codes of permutation groups: their least ranks are positive, so return words decide them."""
        points = tuple(range(degree))
        spec = GroupCodeSpec(points, {
            a: dict(zip(points, data.draw(st.permutations(points)))) for a in sigma.alphabet
        }, 0)
        try:
            X = group_code_intersection(spec, FactorSet.from_substitution(sigma, "a", horizon))
        except InsufficientHorizon:
            return
        assert_certified_or_refused(minimal_automaton_of_star(X, sigma.alphabet), sigma, horizon)


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

    def test_mixed_domain(self):
        # a number and a name do not compare, so the points are sorted by their text
        swap = {1: "x", "x": 1}
        G = PermGroup(("x", 1), [swap])
        assert G.domain == (1, "x")
        assert G.elements() == [(0, 1), (1, 0)]
        assert G.contains(swap) and G.contains({1: 1, "x": "x"})
        assert G.generator_cycles() == ["(1 x)"]
        M = monoid_from_permutations({"a": swap}, ("x", 1))
        assert M.elements == G.elements()
        assert M.generators == {"a": (1, 0)}


class TestOracles:
    """Each question about a recorded closure against a search of its own."""

    @settings(max_examples=150)
    @given(small_automata())
    def test_is_group_of_transition_monoids(self, A):
        M = transition_monoid(A)
        assert M.is_group() == searched_is_group(M)

    @settings(max_examples=60)
    @given(permutation_monoids())
    def test_is_group_of_permutation_groups(self, M):
        assert M.is_group() and searched_is_group(M)

    def test_is_group_of_fixed_monoids(self, three_state_monoid):
        idempotent = FiniteMonoid.from_generators({"e": (0, 0)}, compose, (0, 1))
        trivial = FiniteMonoid.from_generators({}, compose, (0, 1))
        for M, answer in [(three_state_monoid, False), (idempotent, False), (trivial, True),
                          *((cyclic_monoid(m), True) for m in (1, 2, 7))]:
            assert M.is_group() == searched_is_group(M) == answer

    @settings(max_examples=80)
    @given(perm_groups(), perm_groups(), st.data())
    def test_is_isomorphic_small_against_a_search(self, G, H, data):
        K = other_presentation(G, data)
        assert is_isomorphic_small(G, K) and searched_isomorphic(G, K)
        for X, Y in ((G, H), (H, G), (K, H)):
            assert is_isomorphic_small(X, Y) == searched_isomorphic(X, Y)

    @pytest.mark.parametrize("g_cycles, g_dom, h_cycles, h_dom, answer", [
        (["(1 2 3 4)"], 4, ["(1 2)(3 4)", "(1 3)(2 4)"], 4, False),
        (["(1 2 3 4)"], 4, ["(1 3 2 4)", "(1 2)(3 4)"], 4, True),
        (["(1 2 3 4 5)", "(1 2 3)"], 5, ["(1 2 3)", "(3 4 5)"], 5, True),
        (["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"], 6, ["(1 2 3)", "(1 2)(3 4)"], 4, False),
        (["(1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"], 6, ["(1 2 3)", "(1 2)", "(4 5)"], 5, True),
        (["(1 2)", "(3 4 5 6)"], 6, ["(1 2 3 4)", "(1 3)"], 4, False),
        ([], 1, ["()"], 3, True),
    ], ids=["Z4-V4", "Z4-Z4", "A5-A5", "D6-A4", "D6-S3xZ2", "Z2xZ4-D4", "trivial"])
    def test_is_isomorphic_small_on_fixed_groups(self, g_cycles, g_dom, h_cycles, h_dom, answer):
        groups = []
        for cycles, n in ((g_cycles, g_dom), (h_cycles, h_dom)):
            dom = tuple(range(1, n + 1))
            groups.append(PermGroup(dom, [parse_permutation(c, dom) for c in cycles]))
        G, H = groups
        assert is_isomorphic_small(G, H) == searched_isomorphic(G, H) == answer
        assert is_isomorphic_small(H, G) == answer

    @settings(max_examples=100)
    @given(st.integers(1, 7).flatmap(lambda n: st.permutations(range(n))))
    def test_cycle_notation_against_a_loop(self, image):
        mapping = dict(enumerate(image))
        assert cycle_notation(mapping) == looped_cycle_notation(mapping)


class TestAgainstTheTupleCode:
    """Bytes state maps give what the tuple code gave: elements, Cayley graph,
    witnesses, Green's classes, idempotents, least ranks and groups."""

    @settings(max_examples=150)
    @given(small_automata(max_states=5))
    def test_transition_monoids_of_random_automata(self, A):
        assert_monoid_as_the_tuple_code(A)

    def test_three_state(self, three_state):
        assert_monoid_as_the_tuple_code(three_state)

    @pytest.mark.parametrize("spec", sorted(GROUP_SPECS))
    @pytest.mark.parametrize("name, horizon", [("fib", 24), ("tm", 40), ("quad", 32),
                                               ("fib", 40)])
    def test_group_codes_of_the_fixtures(self, name, horizon, spec, request):
        F = FactorSet.from_substitution(request.getfixturevalue(name), "a", horizon)
        A = minimal_automaton_of_star(group_code_intersection(GROUP_SPECS[spec], F))
        assert_monoid_as_the_tuple_code(A, budget=30000)  # A5 on fib and tm@40: cut, as before
        assert_f_minimal_as_the_tuple_code(A, F)

    @settings(max_examples=60)
    @given(primitive_substitutions(), bifix_codes(), st.sampled_from([8, 16, 24]))
    def test_f_minimal_of_random_bifix_codes(self, sigma, X, horizon):
        letters = set(sigma.alphabet) | {c for w in X.words for c in w}
        A = minimal_automaton_of_star(X, Alphabet.of(sorted(letters)))
        assert_f_minimal_as_the_tuple_code(A, FactorSet.from_substitution(sigma, "a", horizon))


def ring_automaton(n):
    """a turns n states one step round; b has no transition from any state."""
    transitions = {(q, "a"): (q + 1) % n for q in range(n)}
    return Automaton(AB, tuple(range(n)), 0, frozenset({0}), transitions)


class TestManyStates:
    """Automata of 256 states or more keep tuples with None for no state."""

    def test_kind_changes_at_256_states(self):
        assert type(ring_automaton(255).transformation("a")) is bytes
        assert type(ring_automaton(256).transformation("a")) is tuple

    def test_three_hundred_states(self):
        A = ring_automaton(300)
        M = transition_monoid(A)
        assert len(M) == 301  # a^0 .. a^299 and the empty map of b
        for w in ["", "a", "aa", "a" * 299, "a" * 300, "b", "ab", "aba", "a" * 301]:
            t = A.transformation(w)
            assert t == M.image_of_word(w) == per_state_transformation(A, w)
            assert type(t) is tuple
        assert A.transformation("b") == (None,) * 300
        assert len(transformation_image(A.transformation("ab"))) == 0
        assert transformation_image(A.transformation("aa")) == frozenset(range(300))
        assert_monoid_as_the_tuple_code(A)
        assert len(green(M).classes("J")) == 2


class TestIsomorphismClosures:
    """``is_isomorphic_small`` closes each group only as far as its answer needs."""

    def group(self, cycles, n):
        dom = tuple(range(1, n + 1))
        return PermGroup(dom, [parse_permutation(c, dom) for c in cycles])

    def s7(self):
        return self.group(["(1 2 3 4 5 6 7)", "(1 2)"], 7)

    def test_large_g_against_a_small_h(self):
        G, H = self.s7(), self.group(["(1 2 3)"], 3)
        assert not is_isomorphic_small(G, H)
        assert len(H._closure) == 3 and G._closure is None  # G cut at |H| = 3

    def test_small_g_against_a_large_h(self):
        G, H = self.group(["(1 2 3)"], 3), self.s7()
        assert not is_isomorphic_small(G, H)
        assert len(G._closure) == 3 and H._closure is None  # H cut at the cap

    def test_both_over_the_cap(self):
        G, H = self.s7(), self.s7()
        with pytest.raises(BudgetExceeded, match="isomorphism search capped at order 240"):
            is_isomorphic_small(G, H)
        assert len(G._closure) == len(H._closure) == 5040
        A6 = self.group(["(1 2 3)", "(2 3 4 5 6)"], 6)
        assert not is_isomorphic_small(self.s7(), A6)  # orders 5040 and 360
        assert len(A6._closure) == 360

    def test_g_over_the_order_budget_against_a_small_h(self):
        # S8 has 40320 elements, past the order budget 10080 of ``elements``
        S8 = self.group(["(1 2 3 4 5 6 7 8)", "(1 2)"], 8)
        assert not is_isomorphic_small(S8, self.group(["(1 2)"], 2))
        assert S8._closure is None
        with pytest.raises(BudgetExceeded, match="monoid larger than budget 10080"):
            is_isomorphic_small(S8, self.s7())

    def test_equal_orders_under_the_cap(self):
        G, H = self.group(["(1 2 3 4)"], 4), self.group(["(1 2)(3 4)", "(1 3)(2 4)"], 4)
        assert not is_isomorphic_small(G, H)
        assert len(G._closure) == len(H._closure) == 4
        assert is_isomorphic_small(G, self.group(["(1 3 2 4)"], 4))
