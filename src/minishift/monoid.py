"""Finite monoids from automata, Green's relations, eggboxes, permutation groups."""

from __future__ import annotations

import re
from contextlib import suppress
from functools import cached_property, reduce
from itertools import chain, product
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
ISOMORPHISM_CAP = 240  # order past which is_isomorphic_small refuses two groups
StateMap = bytes | tuple[int | None, ...]  # see _state_map
_TAILS = [bytes(range(n, 256)) for n in range(257)]  # y + _TAILS[len(y)] sends len(y) to itself


# ---------------------------------------------------------------- automata


class Automaton:
    """Deterministic partial automaton.  The pass that checks the transitions builds ``pos``
    (state to position) and ``letter_maps`` (see ``_state_map``); nothing changes them after."""

    def __init__(
        self,
        alphabet: Alphabet,
        states: tuple[Hashable, ...],
        initial: Hashable,
        terminals: frozenset,
        transitions: dict[tuple[Hashable, str], Hashable],
    ) -> None:
        pos = self.pos = {q: i for i, q in enumerate(states)}
        if len(pos) != len(states):
            raise InputError("repeated state")
        if initial not in pos:
            raise InputError("initial state unknown")
        if not terminals <= pos.keys():
            raise InputError("terminal state unknown")
        self.alphabet, self.states, self.initial = alphabet, states, initial
        self.terminals, self.transitions = terminals, transitions
        targets: dict[str, list] = {a: [None] * len(pos) for a in alphabet}
        for (q, a), r in transitions.items():
            if q not in pos or r not in pos:
                raise InputError(f"transition ({q!r},{a!r})->{r!r} uses unknown state")
            if a not in targets:
                raise InputError(f"transition letter {a!r} outside alphabet")
            targets[a][pos[q]] = pos[r]
        self.letter_maps = {a: _state_map(t, len(pos)) for a, t in targets.items()}

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
        """State map of ``word``: ``bytes`` (n for no state) on n < 256 states, else a tuple;
        a letter without a map sends every state to none.  The empty word gives the identity."""
        n = len(self.states)
        maps, dead = self.letter_maps, _state_map([None] * n, n)
        return reduce(compose, [maps.get(a, dead) for a in word], _state_map(range(n), n))

    def to_dot(self) -> str:
        pos = self.pos
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


class FiniteMonoid:
    """Finite monoid with explicit elements, generator witnesses and Cayley graph.

    Built by ``from_generators``: ``right[i * len(generators) + j]`` is the
    position of ``elements[i]`` times the j-th generator, and ``found_at[i]``
    is the slot of ``right`` where ``elements[i]`` was first reached (-1 for
    the identity): a spanning tree, read by ``unwind``.
    """

    def __init__(
        self,
        elements: list,
        pos: dict,
        mul: Callable,
        identity: Hashable,
        generators: dict[str, Hashable],
        right: list[int],
        found_at: list[int],
    ) -> None:
        self.elements, self.pos, self.mul, self.identity = elements, pos, mul, identity
        self.generators, self.right, self.found_at = generators, right, found_at

    def __len__(self) -> int:
        return len(self.elements)

    def unwind(self, first, step: Callable) -> list:
        """A value per element along the spanning tree ``found_at``: entry 0 is ``first``, and
        entry k is step(entry[p], b) when elements[k] was first found as elements[p] * g_b.

        That tree is all the left Cayley graph needs: if x = y * g_b was first found from y,
        then g_a * x = (g_a * y) * g_b, a lookup in ``right`` at the left neighbour of the
        earlier y (Froidure & Pin, "Algorithms for computing finite semigroups", Foundations
        of Computational Mathematics, 1997).
        """
        d = len(self.generators)
        out = [first]
        for slot in self.found_at[1:]:
            p, b = divmod(slot, d)
            out.append(step(out[p], b))
        return out

    @cached_property
    def witness(self) -> dict:
        """Each element's shortlex-least generator word, in element order."""
        names = list(self.generators)
        return dict(zip(self.elements, self.unwind("", lambda word, b: word + names[b])))

    def product(self, xs: Iterable):
        acc = self.identity
        for x in xs:
            acc = self.mul(acc, x)
        return acc

    def image_of_word(self, word: str):
        """The element ``word`` names, read off the right Cayley graph from the identity."""
        right, d, k = self.right, len(self.generators), 0
        index = {a: j for j, a in enumerate(self.generators)}
        for a in word:
            k = right[k * d + index[a]]
        return self.elements[k]

    def is_idempotent(self, x) -> bool:
        return self.mul(x, x) == x

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
        each element (see ``unwind``).  ``mul`` may also be a right
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
    return FiniteMonoid.from_generators(A.letter_maps, compose, A.transformation(""), budget)


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


class GreenStructure:
    """Green's relations on ``monoid``, as a class id per element position.

    R and J are found by ``green``; L, H and the idempotent flags are built
    on first read and kept.
    """

    def __init__(self, monoid: FiniteMonoid, r_class: list[int], j_class: list[int]) -> None:
        self.monoid, self.r_class, self.j_class = monoid, r_class, j_class
        self._groups: dict[str, dict[int, list[int]]] = {}

    @cached_property
    def l_class(self) -> list[int]:
        M = self.monoid
        return _sccs(len(M), len(M.generators), _left_graph(M))

    @cached_property
    def h_class(self) -> list[int]:
        """H = R meet L: one id per (R id, L id) pair, numbered as first met."""
        pair_ids: dict[tuple[int, int], int] = {}
        return [pair_ids.setdefault(key, len(pair_ids)) for key in zip(self.r_class, self.l_class)]

    @cached_property
    def idempotent(self) -> list[bool]:
        return list(map(self.monoid.is_idempotent, self.monoid.elements))

    def classes(self, kind: str) -> dict[int, list[int]]:
        """Member indices of each class of kind R, L, J or H.

        Grouped on the first call and kept: later calls and ``j_class_members``
        return the same lists, which callers must not change.  Only the ids
        of ``kind`` are read, so J builds no L.
        """
        if kind not in self._groups:
            ids = getattr(self, {"R": "r_class", "L": "l_class", "J": "j_class", "H": "h_class"}[kind])
            out: dict[int, list[int]] = {}
            for i, c in enumerate(ids):
                out.setdefault(c, []).append(i)
            self._groups[kind] = out
        return self._groups[kind]

    def j_class_members(self, cid: int) -> list[int]:
        return self.classes("J").get(cid, [])

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
    """Left Cayley graph, laid out like ``M.right``: slot k * |gens| + a holds g_a * x_k,
    column a unwound from g_a * 1 = right[a] (``FiniteMonoid.unwind``)."""
    d, right = len(M.generators), M.right
    columns = [M.unwind(right[a], lambda x, b: right[x * d + b]) for a in range(d)]
    return list(chain.from_iterable(zip(*columns)))


def green(M: FiniteMonoid) -> GreenStructure:
    """Green's R and J as strongly connected components; L, H and idempotents on first read.

    x R y iff each is reachable from the other in the right Cayley graph
    that ``from_generators`` recorded, and L likewise in the left one
    (``GreenStructure.l_class``).  R is a left congruence, so each generator
    acts on the R-classes through any one member of a class.  In a finite
    monoid J = D, and two R-classes lie in one J-class iff each reaches the
    other under that action: if y = u x v and y J x, then u x J y, and a
    finite monoid is stable, so u x R y.  J is therefore found on a graph
    with one node per R-class, with one multiplication per node and
    generator, and a J-class is named by the least R id among its members.
    """
    n = len(M)
    d = len(M.generators)
    r_class = _sccs(n, d, M.right)
    rep = [0] * (max(r_class) + 1)
    for i in reversed(range(n)):
        rep[r_class[i]] = i  # ends at the least member of each R-class
    els, pos, mul = M.elements, M.pos, M.mul
    gens = list(M.generators.values())
    on_r = _sccs(len(rep), d, [r_class[pos[mul(g, els[i])]] for i in rep for g in gens])
    least_r: dict[int, int] = {}
    for r, c in enumerate(on_r):
        least_r.setdefault(c, r)
    return GreenStructure(M, r_class, [least_r[on_r[r]] for r in r_class])


# ---------------------------------------------------------------- permutations


def cycles(text: str) -> list[list]:
    """Cycle notation "(1 2 3)(4 5)" as its cycles of points, the one reader of it.

    Commas separate points like spaces, a point that reads as an integer is
    one, and "e" or "id" alone is the identity, with no cycle.
    """
    body = text.strip()
    if body in ("e", "id"):
        return []
    body = body.replace(",", " ")
    if not re.fullmatch(r"(\s*\([^()]*\))*\s*", body):
        raise ParseError(f"malformed cycles in {text!r}")
    return [
        [int(p) if p.removeprefix("-").isdecimal() else p for p in cycle.split()]
        for cycle in re.findall(r"\(([^()]*)\)", body)
    ]


def parse_permutation(text: str, domain: tuple) -> dict:
    """Cycle notation "(1 2 3)(4 5)" over the given domain points (see ``cycles``);
    the cycles must be disjoint, since they are not read as a product."""
    mapping = {p: p for p in domain}
    moved: set = set()
    for cycle in cycles(text):
        for point in cycle:
            if point not in mapping:
                raise ParseError(f"point {point!r} outside domain {domain}")
            if point in moved:
                raise ParseError(f"point {point!r} appears twice in {text!r}")
            moved.add(point)
        mapping.update(zip(cycle, cycle[1:] + cycle[:1]))
    return mapping


def cycle_notation(mapping: dict) -> str:
    seen = set()
    shown = []
    for p in _sorted_points(mapping):
        if p not in seen and mapping[p] != p:
            cycle = orbit(p, mapping.__getitem__)[0]
            seen.update(cycle)
            shown.append("(" + " ".join(str(x) for x in cycle) + ")")
    return "".join(shown) or "()"


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


def is_isomorphic_small(G: PermGroup, H: PermGroup) -> bool:
    """Brute-force isomorphism test for groups of small order.

    Images h_b of G's generators g_b are extended along G's closure: the
    element first found as x * g_b maps to image(x) * h_b.  They give an
    isomorphism iff that map is a bijection that sends every edge x * g_b of
    the right Cayley graph to image(x) * h_b.  H is closed up to
    ``ISOMORPHISM_CAP`` and G up to |H| (or the cap); both in full only if
    both exceed it.
    """
    h_order = g_order = None
    with suppress(BudgetExceeded):
        h_order = H.order(ISOMORPHISM_CAP)
    with suppress(BudgetExceeded):
        g_order = G.order(h_order or ISOMORPHISM_CAP)
    if h_order is None and g_order is None and H.order() == G.order():
        raise BudgetExceeded(f"isomorphism search capped at order {ISOMORPHISM_CAP}")
    if h_order is None or g_order != h_order:
        return False
    hel = H.elements()
    M = G._closure
    d = len(M.generators)
    horders: dict[int, list[tuple[int, ...]]] = {}
    for h in hel:
        horders.setdefault(_element_order(h), []).append(h)

    def extends(images: tuple) -> bool:
        image = M.unwind(hel[0], lambda x, b: compose(x, images[b]))
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
    letter_maps = A.letter_maps
    missing = [a for a in F.alphabet if a not in letter_maps]  # not level 1: empty at L = 0
    if missing:
        raise InputError(f"automaton has no letter {''.join(missing)!r} of the factor set")
    current = {"": A.transformation("")}
    best_rank = len(A.states) + 1
    refusal = None
    for n in range(F.horizon + 1):
        if n:
            current = {
                w: compose(current[w[:-1]], letter_maps[w[-1]]) for w in F.words_of_length(n)
            }
        for word, t in current.items():
            rank = len(transformation_image(t))
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
                    images.add(image := transformation_image(s))
                if len(image) < rank:
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
    t = A.transformation(word)
    if base is not None and (base_rank := len(transformation_image(t))) != rank:
        raise InputError(f"base word {base!r} has rank {base_rank}, above the minimal rank {rank}")
    image = sorted(transformation_image(t))
    gens = []
    for r in sorted(right_return_words(F, word).words if rank else (), key=shortlex):
        action = A.transformation(r)
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
