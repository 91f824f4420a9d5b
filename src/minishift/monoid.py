"""Finite monoids from automata, Green's relations, eggboxes, permutation groups."""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import product
from typing import Callable, Hashable, Iterable

from .errors import (
    DEFAULT_MONOID_BUDGET,
    BudgetExceeded,
    InputError,
    InsufficientHorizon,
    InternalInvariantError,
    ParseError,
)
from .words import Alphabet, FactorSet, shortlex

DEFAULT_ORDER_BUDGET = 10080
StateMap = bytes | tuple[int | None, ...]  # see _state_map
_TAILS = [bytes(range(n, 256)) for n in range(257)]  # y + _TAILS[len(y)] sends len(y) to itself


# ---------------------------------------------------------------- automata


@dataclass(eq=False)
class Automaton:
    """Deterministic partial automaton."""

    alphabet: Alphabet
    states: tuple[Hashable, ...]
    initial: Hashable
    terminals: frozenset
    transitions: dict[tuple[Hashable, str], Hashable]

    def __post_init__(self) -> None:
        pool = set(self.states)
        if self.initial not in pool:
            raise InputError("initial state unknown")
        if not self.terminals <= pool:
            raise InputError("terminal state unknown")
        for (q, a), r in self.transitions.items():
            if q not in pool or r not in pool:
                raise InputError(f"transition ({q!r},{a!r})->{r!r} uses unknown state")
            if a not in self.alphabet:
                raise InputError(f"transition letter {a!r} outside alphabet")

    def run(self, word: str, start: Hashable | None = None) -> Hashable | None:
        q = self.initial if start is None else start
        for a in word:
            q = self.transitions.get((q, a))
            if q is None:
                return None
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.terminals

    def transformation(self, word: str) -> StateMap:
        """State map of ``word``: ``bytes`` (n for no state) on n < 256 states, else a tuple."""
        return _word_action(self.letter_transformations(), word, len(self.states))

    def letter_transformations(self) -> dict[str, StateMap]:
        """Each letter's state map, read off ``transitions``, encoded as by ``transformation``."""
        pos = {q: i for i, q in enumerate(self.states)}
        return {
            a: _state_map([pos.get(self.transitions.get((q, a))) for q in self.states], len(pos))
            for a in self.alphabet
        }

    def to_dot(self) -> str:
        pos = {q: i for i, q in enumerate(self.states)}
        lines = ["digraph automaton {", f'  {pos[self.initial]} [shape=diamond];']
        for t in sorted(pos[q] for q in self.terminals):
            lines.append(f"  {t} [peripheries=2];")
        for (q, a), r in sorted(
            self.transitions.items(), key=lambda kv: (pos[kv[0][0]], kv[0][1])
        ):
            lines.append(f'  {pos[q]} -> {pos[r]} [label="{a}"];')
        lines.append("}")
        return "\n".join(lines)


def _state_map(targets: Iterable[int | None], n: int) -> StateMap:
    """Entry q is the position state q goes to, None for no state: stored as
    ``bytes`` with the byte n for None when n < 256, as a tuple past that."""
    return bytes(n if q is None else q for q in targets) if n < 256 else tuple(targets)


def compose(x: StateMap, y: StateMap) -> StateMap:
    """Apply x first, then y (action written on the right).

    ``bytes`` maps on n states (``_state_map``) compose in C: ``translate``
    sends byte q of x to y[q] and the byte n (no state) to n.  Tuples, with
    None for no state, hold permutations and maps on 256 or more states.
    """
    if type(x) is bytes:
        return x.translate(y + _TAILS[len(y)])
    return tuple([None if q is None else y[q] for q in x])


def _word_action(letter_maps: dict, word: str, n: int) -> StateMap:
    """The letter maps of ``word`` composed from the identity; a letter without one maps to none."""
    dead = _state_map([None] * n, n)
    return reduce(compose, [letter_maps.get(a, dead) for a in word], _state_map(range(n), n))


def transformation_rank(t: StateMap) -> int:
    """Number of positions reached, for either encoding (see ``transformation_image``)."""
    return len(transformation_image(t))


def transformation_image(t: StateMap) -> frozenset[int]:
    """Positions reached by a ``_state_map`` of either kind: the byte n and None are no state."""
    return frozenset(t) - {None, len(t)}


# ---------------------------------------------------------------- orbits


def orbit(x, step: Callable) -> tuple[list, int, int]:
    """The iterates x, step(x), step(step(x)), ... up to the first repeat.

    Returns (iterates, preperiod, period): the iterates are distinct and
    step(iterates[-1]) == iterates[preperiod], so from ``preperiod`` on the
    n-th iterate is iterates[preperiod + (n - preperiod) % period].
    """
    iterates: list = []
    seen: dict = {}
    while x not in seen:
        seen[x] = len(iterates)
        iterates.append(x)
        x = step(x)
    preperiod = seen[x]
    return iterates, preperiod, len(iterates) - preperiod


def omega_index(start: int, period: int) -> int:
    """The least multiple of ``period`` that is >= ``start``."""
    return period * -(-start // period)


# ---------------------------------------------------------------- monoids


@dataclass(eq=False, repr=False)
class FiniteMonoid:
    """Finite monoid with explicit elements, generator witnesses and Cayley graph.

    Built by ``from_generators``: ``right[i * len(generators) + j]`` is the
    position of ``elements[i]`` times the j-th generator, and ``found_at[i]``
    is the slot of ``right`` where ``elements[i]`` was first reached (-1 for
    the identity).
    """

    elements: list
    pos: dict
    mul: Callable
    identity: Hashable
    generators: dict[str, Hashable]
    right: list[int]
    found_at: list[int]

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def witness(self) -> dict:
        """Each element's shortlex-least generator word, in element order.

        Spelled out on first use from ``found_at``: the element first found
        at slot s is the one at s // |gens| times generator s % |gens|.
        """
        names = list(self.generators)
        d = len(names)
        words = [""]
        for slot in self.found_at[1:]:
            p, b = divmod(slot, d)
            words.append(words[p] + names[b])
        return dict(zip(self.elements, words))

    def product(self, xs: Iterable):
        acc = self.identity
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def image_of_word(self, word: str):
        return self.product(self.generators[a] for a in word)

    def is_idempotent(self, x) -> bool:
        return self.mul(x, x) == x

    def index_period(self, s) -> tuple[int, int]:
        """Least (i, p) with s^(i+p) = s^i, i >= 1, p >= 1."""
        _, preperiod, period = orbit(s, lambda t: self.mul(t, s))
        return preperiod + 1, period

    def omega_power(self, s):
        """The unique idempotent power of ``s``."""
        powers, preperiod, period = orbit(s, lambda t: self.mul(t, s))
        power = powers[omega_index(preperiod + 1, period) - 1]  # powers[n] is s^(n+1)
        if not self.is_idempotent(power):
            raise InternalInvariantError("omega power not idempotent")
        return power

    def is_group(self) -> bool:
        """Right multiplication by each generator permutes the elements (so each is a unit)."""
        d = len(self.generators)
        return all(len(set(self.right[j::d])) == len(self) for j in range(d))

    @classmethod
    def from_generators(
        cls,
        generators: dict[str, Hashable],
        mul: Callable,
        identity,
        budget: int = DEFAULT_MONOID_BUDGET,
    ) -> "FiniteMonoid":
        """Closure of the generators under multiplication, with word witnesses.

        Elements are numbered in breadth-first order from the identity, each
        witnessed by its shortlex-least word in the generator order.  Every
        product x * g_b is recorded as an int in the right Cayley graph
        ``right``, and ``found_at`` keeps the product that first reached
        each element.  That is all the left graph needs: if x = y * g_b was
        first found from y, then g_a * x = (g_a * y) * g_b, a lookup in
        ``right`` at the left neighbour of the earlier y (Froidure & Pin,
        "Algorithms for computing finite semigroups", Foundations of
        Computational Mathematics, 1997).  ``mul`` may also be a right
        action of the generators on points: the closure is then the orbit of
        ``identity``.  ``bytes`` state maps under ``compose`` are multiplied
        by one ``bytes.translate`` with a table built once per generator
        (``_right_action``); ``mul`` is still what the monoid keeps.
        """
        if budget < 1:
            raise InputError(f"budget must be at least 1, got {budget}")
        act, operands = _right_action(mul, list(generators.values()))
        elements = [identity]
        pos = {identity: 0}
        right: list[int] = []
        found_at = [-1]
        setdefault = pos.setdefault
        record = right.append
        size = 1
        for x in elements:  # grows as it is read: breadth-first
            for g in operands:
                y = act(x, g)
                k = setdefault(y, size)
                if k == size:
                    if size >= budget:
                        raise BudgetExceeded(f"monoid larger than budget {budget}")
                    elements.append(y)
                    found_at.append(len(right))
                    size += 1
                record(k)
        return cls(elements, pos, mul, identity, generators, right, found_at)


def _right_action(mul: Callable, gens: list) -> tuple[Callable, list]:
    """``(act, operands)`` with act(x, operands[j]) == mul(x, gens[j]).

    ``bytes`` maps under ``compose`` act by ``bytes.translate`` alone, each
    generator's 256-byte table built once; any other ``mul`` is kept.
    """
    if mul is compose and all(type(g) is bytes for g in gens):
        return bytes.translate, [g + _TAILS[len(g)] for g in gens]
    return mul, gens


def transition_monoid(
    A: Automaton, budget: int = DEFAULT_MONOID_BUDGET
) -> FiniteMonoid:
    """Monoid of state transformations generated by the letter actions."""
    identity = _state_map(range(len(A.states)), len(A.states))
    return FiniteMonoid.from_generators(
        A.letter_transformations(), compose, identity, budget
    )


# ---------------------------------------------------------------- Green


def _sccs(n: int, d: int, graph: list[int]) -> list[int]:
    """Iterative Tarjan; returns a component id per node (reverse topological).

    Node v's successors are graph[v * d : v * d + d] (as in ``FiniteMonoid.right``), read in place.
    """
    ids = [-1] * n
    low = [0] * n
    num = [0] * n
    stack: list[int] = []
    comp = 0
    counter = 0
    for root in range(n):
        if num[root]:
            continue
        counter += 1
        num[root] = low[root] = counter
        stack.append(root)
        work = [(root, iter(range(root * d, root * d + d)))]
        while work:
            v, succ = work[-1]
            for k in succ:
                w = graph[k]
                if not num[w]:
                    counter += 1
                    num[w] = low[w] = counter
                    stack.append(w)
                    work.append((w, iter(range(w * d, w * d + d))))
                    break
                if ids[w] < 0 and num[w] < low[v]:  # w is still on the stack
                    low[v] = num[w]
            else:
                work.pop()
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        ids[w] = comp
                        if w == v:
                            break
                    comp += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return ids


@dataclass
class GreenStructure:
    monoid: FiniteMonoid
    r_class: list[int]
    l_class: list[int]
    j_class: list[int]
    h_class: list[int]
    idempotent: list[bool]
    _groups: dict[str, dict[int, list[int]]] = field(default_factory=dict, init=False, repr=False)

    def classes(self, kind: str) -> dict[int, list[int]]:
        """Member indices of each class of kind R, L, J or H.

        Grouped on the first call and kept: later calls, ``j_class_members``
        and ``h_class_of`` return the same lists, which callers must not change.
        """
        if kind not in self._groups:
            ids = {"R": self.r_class, "L": self.l_class, "J": self.j_class, "H": self.h_class}[kind]
            out: dict[int, list[int]] = {}
            for i, c in enumerate(ids):
                out.setdefault(c, []).append(i)
            self._groups[kind] = out
        return self._groups[kind]

    def j_class_members(self, cid: int) -> list[int]:
        return self.classes("J").get(cid, [])

    def is_regular_j(self, cid: int) -> bool:
        return any(self.idempotent[i] for i in self.j_class_members(cid))

    def h_class_of(self, i: int) -> list[int]:
        return self.classes("H")[self.h_class[i]]

    def eggbox(self, cid: int) -> str:
        """ASCII grid of the J-class: rows R-classes, columns L-classes."""
        members = self.j_class_members(cid)
        rows = sorted({self.r_class[i] for i in members})
        cols = sorted({self.l_class[i] for i in members})
        wit = self.monoid.witness
        els = self.monoid.elements

        def label(i: int) -> str:
            return (wit[els[i]] or "1") + ("*" if self.idempotent[i] else "")

        cells: dict[tuple[int, int], list[str]] = {}
        for i in members:
            cells.setdefault((self.r_class[i], self.l_class[i]), []).append(label(i))
        grid = [[" ".join(sorted(cells.get((r, l), []))) for l in cols] for r in rows]
        width = max((len(c) for row in grid for c in row), default=1)
        sep = "+" + "+".join(["-" * (width + 2)] * len(cols)) + "+"
        lines = [sep]
        for row in grid:
            lines.append("| " + " | ".join(c.ljust(width) for c in row) + " |")
            lines.append(sep)
        return "\n".join(lines)


def _left_graph(M: FiniteMonoid) -> list[int]:
    """Left Cayley graph, laid out like ``M.right``: slot k * |gens| + a holds g_a * x_k."""
    d = len(M.generators)
    right = M.right
    left = right[:d]  # g_a * 1 = 1 * g_a
    for slot in M.found_at[1:]:
        p, b = divmod(slot, d)
        for a in range(p * d, p * d + d):
            left.append(right[left[a] * d + b])
    return left


def green(M: FiniteMonoid) -> GreenStructure:
    """Green's relations as strongly connected components of the Cayley graphs.

    x R y iff each is reachable from the other in the right Cayley graph
    that ``from_generators`` recorded, L likewise in the left one, and
    H = R meet L.  In a finite monoid J = D = R o L, and each R-class of a
    D-class meets each L-class of it, so a J-class is named by the least L
    id over any one of its R-classes.  The left graph takes no
    multiplication: if x_k was first found as x_p * g_b, then g_a * x_k =
    (g_a * x_p) * g_b, so left[k][a] = right[left[p][a]][b] with p < k
    (Froidure & Pin, "Algorithms for computing finite semigroups",
    Foundations of Computational Mathematics, 1997).
    """
    n = len(M)
    d = len(M.generators)
    r_class = _sccs(n, d, M.right)
    l_class = _sccs(n, d, _left_graph(M))
    least_l = [n] * n
    for r, l in zip(r_class, l_class):
        least_l[r] = min(least_l[r], l)
    j_class = [least_l[r] for r in r_class]
    pair_ids: dict[tuple[int, int], int] = {}
    h_class = [pair_ids.setdefault(key, len(pair_ids)) for key in zip(r_class, l_class)]
    mul = M.mul
    idem = [mul(x, x) == x for x in M.elements]
    return GreenStructure(M, r_class, l_class, j_class, h_class, idem)


# ---------------------------------------------------------------- permutations


def cycle_tokens(text: str) -> list:
    """Cycle notation "(1 2 3)(4 5)" as "(", ")" and points, the one reader of it.

    Commas separate points like spaces, a point that reads as an integer is
    one, and "e" or "id" alone is the identity, with no token.
    """
    body = text.strip()
    if body in ("e", "id"):
        return []
    return [
        tok if tok in ("(", ")") else int(tok) if tok.removeprefix("-").isdecimal() else tok
        for tok in body.replace("(", " ( ").replace(")", " ) ").replace(",", " ").split()
    ]


def parse_permutation(text: str, domain: tuple) -> dict:
    """Cycle notation "(1 2 3)(4 5)" over the given domain points (see ``cycle_tokens``)."""
    mapping = {p: p for p in domain}
    tokens = cycle_tokens(text)
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


def cycle_notation(mapping: dict) -> str:
    seen = set()
    cycles = []
    for p in _sorted_points(mapping):
        if p not in seen and mapping[p] != p:
            cycle = orbit(p, mapping.__getitem__)[0]
            seen.update(cycle)
            cycles.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(cycles) or "()"


def _sorted_points(domain: Iterable) -> tuple:
    """The points in sorted order, or by their text if they do not compare."""
    try:
        return tuple(sorted(domain))
    except TypeError:
        return tuple(sorted(domain, key=str))


class PermGroup:
    """Permutation group given by generator mappings on a finite domain.

    The mappings are kept for display; the group itself is their closure by
    ``monoid_from_permutations``, on position tuples over the sorted domain.
    """

    def __init__(self, domain: tuple, generators: list[dict]) -> None:
        self.domain = _sorted_points(domain)
        self._pos = {p: i for i, p in enumerate(self.domain)}
        self.generators = []
        for g in generators:
            if sorted(g, key=str) != sorted(self.domain, key=str):
                raise InputError("generator domain mismatch")
            if set(g.values()) != set(self.domain):
                raise InputError(f"not a permutation: {g}")
            self.generators.append(dict(g))
        self._closure: FiniteMonoid | None = None

    def elements(self, budget: int = DEFAULT_ORDER_BUDGET) -> list[tuple[int, ...]]:
        """Every group element, as the positions of the images of ``domain``."""
        if self._closure is None:
            gens = {str(i): g for i, g in enumerate(self.generators)}
            self._closure = monoid_from_permutations(gens, self.domain, budget)
        elif len(self._closure) > budget:
            raise BudgetExceeded(f"monoid larger than budget {budget}")
        return self._closure.elements

    def order(self, budget: int = DEFAULT_ORDER_BUDGET) -> int:
        return len(self.elements(budget))

    def contains(self, mapping: dict) -> bool:
        if self._closure is None:
            self.elements()
        return tuple(self._pos[mapping[p]] for p in self.domain) in self._closure.pos

    def generator_cycles(self) -> list[str]:
        return [cycle_notation(g) for g in self.generators]


def _element_order(t: tuple[int, ...]) -> int:
    return len(orbit(t, lambda u: compose(u, t))[0])


def is_isomorphic_small(G: PermGroup, H: PermGroup, budget: int = 240) -> bool:
    """Brute-force isomorphism test for groups of small order.

    Images h_b of G's generators g_b are extended along G's closure: the
    element first found as x * g_b maps to image(x) * h_b.  They give an
    isomorphism iff that map is a bijection that sends every edge x * g_b of
    the right Cayley graph to image(x) * h_b.  H is closed up to ``budget``
    and G up to |H| (or ``budget``); both in full only if both exceed it.
    """
    h_order = g_order = None
    with suppress(BudgetExceeded):
        h_order = H.order(budget)
    with suppress(BudgetExceeded):
        g_order = G.order(h_order or budget)
    if h_order is None and g_order is None and H.order() == G.order():
        raise BudgetExceeded(f"isomorphism search capped at order {budget}")
    if h_order is None or g_order != h_order:
        return False
    hel = H.elements()
    M = G._closure
    d = len(M.generators)
    horders: dict[int, list[tuple[int, ...]]] = {}
    for h in hel:
        horders.setdefault(_element_order(h), []).append(h)

    def extends(images: tuple) -> bool:
        image = [hel[0]]
        for slot in M.found_at[1:]:
            image.append(compose(image[slot // d], images[slot % d]))
        return len(set(image)) == len(hel) and all(
            image[k] == compose(image[slot // d], images[slot % d])
            for slot, k in enumerate(M.right)
        )

    choices = [horders.get(_element_order(g), []) for g in M.generators.values()]
    return any(extends(images) for images in product(*choices))


# ---------------------------------------------------------------- F-minimal


def f_min_rank_data(
    A: Automaton, F: FactorSet
) -> tuple[int, str, set[frozenset[int]]]:
    """Minimal rank over transformations of factors, a witness and the minimal images.

    Scans factors in shortlex order, composing each transformation from its
    prefix's, and certifies each new least rank at its first word w, of
    image I, by the right return words u to w.  Every factor z lies in a
    factor w u_1 ... u_k, since F is recurrent, and the image of w u is
    u(I), a subset of I because w u ends with w.  So if every u maps I onto
    itself, no factor has rank below |I|, and the images of rank |I| are
    those of w p for p a prefix of a return word.  If some u shrinks I, then
    w u is a factor of smaller rank within the horizon, which the scan
    meets later.  A refused return walk does not stop the scan; the first
    refusal is raised only if no later rank certifies.  Assumes F is
    uniformly recurrent, as the substitution, episturmian and periodic sets
    are (Berstel, De Felice, Perrin, Reutenauer, Rindone, "Bifix codes and
    Sturmian words", J. Algebra 369, 2012).
    """
    from .returns import right_return_words

    F.certify()
    letter_maps = A.letter_transformations()
    missing = [a for a in F.alphabet if a not in letter_maps]  # not level 1: empty at L = 0
    if missing:
        raise InputError(f"automaton has no letter {''.join(missing)!r} of the factor set")
    current = {"": _state_map(range(len(A.states)), len(A.states))}
    best_rank = len(A.states) + 1
    refusal = None
    for n in range(F.horizon + 1):
        if n:
            current = {
                w: compose(current[w[:-1]], letter_maps[w[-1]]) for w in F.words_of_length(n)
            }
        for word, t in current.items():
            rank = transformation_rank(t)
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
            images = {transformation_image(t)}
            for u in returns:
                s = t
                for a in u:
                    s = compose(s, letter_maps[a])
                    images.add(transformation_image(s))
                if transformation_rank(s) < rank:
                    break
            else:
                return rank, word, images
    raise refusal


def f_min_rank(A: Automaton, F: FactorSet) -> int:
    return f_min_rank_data(A, F)[0]


def f_group(
    A: Automaton, F: FactorSet, base: str | None = None
) -> tuple[PermGroup, str, tuple]:
    """Permutation group induced by return words on a minimal image.

    Returns (group, base word, image as a tuple of original state names).
    A given ``base`` must be a factor of minimal rank.
    At rank 0 the image is empty and the group trivial: no return word is walked.
    """
    from .returns import right_return_words

    rank, word, _ = f_min_rank_data(A, F)
    if base is not None:
        F.certify(word=base)
        word = base
    letter_maps = A.letter_transformations()
    t = _word_action(letter_maps, word, len(A.states))
    if base is not None and (base_rank := transformation_rank(t)) != rank:
        raise InputError(f"base word {base!r} has rank {base_rank}, above the minimal rank {rank}")
    image = sorted(transformation_image(t))
    gens = []
    for r in sorted(right_return_words(F, word).words if rank else (), key=shortlex):
        action = _word_action(letter_maps, r, len(A.states))
        if any(action[q] not in image for q in image):
            raise InternalInvariantError(
                f"return word {r!r} does not permute the minimal image"
            )
        gens.append({A.states[q]: A.states[action[q]] for q in image})
    names = tuple(A.states[q] for q in image)
    return PermGroup(names, gens), word, names


# ---------------------------------------------------------------- constructors


def cyclic_monoid(m: int) -> FiniteMonoid:
    """The additive group of integers modulo m, generated by 1."""
    if m < 1:
        raise InputError("modulus must be positive")
    return FiniteMonoid.from_generators({"g": 1 % m}, lambda x, y: (x + y) % m, 0, m)


def monoid_from_permutations(
    images: dict[str, dict], domain: tuple, budget: int = DEFAULT_MONOID_BUDGET
) -> FiniteMonoid:
    """Permutation group generated by letter images, as a finite monoid.

    Elements are tuples listing the image of each domain point in sorted
    order (by their text if the points do not compare), multiplied left to right.
    """
    dom = _sorted_points(domain)
    pos = {p: i for i, p in enumerate(dom)}
    gens = {a: tuple(pos[m[p]] for p in dom) for a, m in images.items()}
    return FiniteMonoid.from_generators(gens, compose, tuple(range(len(dom))), budget)
