"""Finite monoids from automata, Green's relations, eggboxes, permutation groups."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .errors import BudgetExceeded, InsufficientHorizon, InternalInvariantError, ParseError
from .words import Alphabet, FactorSet, shortlex

DEFAULT_MONOID_BUDGET = 20000
DEFAULT_ORDER_BUDGET = 10080


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
            raise ValueError("initial state unknown")
        if not self.terminals <= pool:
            raise ValueError("terminal state unknown")
        for (q, a), r in self.transitions.items():
            if q not in pool or r not in pool:
                raise ValueError(f"transition ({q!r},{a!r})->{r!r} uses unknown state")
            if a not in self.alphabet:
                raise ValueError(f"transition letter {a!r} outside alphabet")

    def run(self, word: str, start: Hashable | None = None) -> Hashable | None:
        q = self.initial if start is None else start
        for a in word:
            q = self.transitions.get((q, a))
            if q is None:
                return None
        return q

    def accepts(self, word: str) -> bool:
        return self.run(word) in self.terminals

    def transformation(self, word: str) -> tuple[int | None, ...]:
        """State transformation of ``word`` as a tuple over state positions."""
        pos = {q: i for i, q in enumerate(self.states)}
        out = []
        for q in self.states:
            r = self.run(word, start=q)
            out.append(None if r is None else pos[r])
        return tuple(out)

    def letter_transformations(self) -> dict[str, tuple[int | None, ...]]:
        return {a: self.transformation(a) for a in self.alphabet}

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


def compose(
    x: tuple[int | None, ...], y: tuple[int | None, ...]
) -> tuple[int | None, ...]:
    """Apply x first, then y (action written on the right)."""
    return tuple(None if q is None else y[q] for q in x)


def transformation_rank(t: tuple[int | None, ...]) -> int:
    return len({q for q in t if q is not None})


def transformation_image(t: tuple[int | None, ...]) -> frozenset[int]:
    return frozenset(q for q in t if q is not None)


# ---------------------------------------------------------------- monoids


class FiniteMonoid:
    """Finite monoid with explicit elements and generator witnesses."""

    def __init__(
        self,
        elements: list,
        mul: Callable,
        identity,
        generators: dict[str, Hashable],
        witness: dict | None = None,
    ) -> None:
        self.elements = elements
        self.pos = {e: i for i, e in enumerate(elements)}
        self._mul = mul
        self.identity = identity
        self.generators = generators
        self.witness = witness or {}

    def __len__(self) -> int:
        return len(self.elements)

    def mul(self, x, y):
        return self._mul(x, y)

    def product(self, xs: Iterable):
        acc = self.identity
        for x in xs:
            acc = self._mul(acc, x)
        return acc

    def image_of_word(self, word: str):
        return self.product(self.generators[a] for a in word)

    def is_idempotent(self, x) -> bool:
        return self._mul(x, x) == x

    def index_period(self, s) -> tuple[int, int]:
        """Least (i, p) with s^(i+p) = s^i, i >= 1, p >= 1."""
        seen = {}
        power = s
        k = 1
        while power not in seen:
            seen[power] = k
            power = self._mul(power, s)
            k += 1
        i = seen[power]
        return i, k - i

    def omega_power(self, s):
        """The unique idempotent power of ``s``."""
        i, p = self.index_period(s)
        m = p * ((i + p - 1) // p)  # smallest multiple of p that is >= i
        power = s
        for _ in range(m - 1):
            power = self._mul(power, s)
        if not self.is_idempotent(power):
            raise InternalInvariantError("omega power not idempotent")
        return power

    def is_group(self) -> bool:
        e = self.identity
        return all(
            any(self._mul(x, y) == e for y in self.elements) for x in self.elements
        )

    @classmethod
    def from_generators(
        cls,
        generators: dict[str, Hashable],
        mul: Callable,
        identity,
        budget: int = DEFAULT_MONOID_BUDGET,
    ) -> "FiniteMonoid":
        """Closure of the generators under multiplication, with word witnesses."""
        elements = [identity]
        witness = {identity: ""}
        queue = [identity]
        while queue:
            nxt = []
            for x in queue:
                for a, g in generators.items():
                    y = mul(x, g)
                    if y not in witness:
                        witness[y] = witness[x] + a
                        elements.append(y)
                        nxt.append(y)
                        if len(elements) > budget:
                            raise BudgetExceeded(
                                f"monoid larger than budget {budget}"
                            )
            queue = nxt
        return cls(elements, mul, identity, generators, witness)


def transition_monoid(
    A: Automaton, budget: int = DEFAULT_MONOID_BUDGET
) -> FiniteMonoid:
    """Monoid of state transformations generated by the letter actions."""
    identity = tuple(range(len(A.states)))
    return FiniteMonoid.from_generators(
        A.letter_transformations(), compose, identity, budget
    )


# ---------------------------------------------------------------- Green


def _sccs(n: int, edges: list[list[int]]) -> list[int]:
    """Iterative Tarjan; returns a component id per node (reverse topological)."""
    ids = [-1] * n
    low = [0] * n
    num = [0] * n
    on = [False] * n
    stack: list[int] = []
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


@dataclass
class GreenStructure:
    monoid: FiniteMonoid
    r_class: list[int]
    l_class: list[int]
    j_class: list[int]
    h_class: list[int]
    idempotent: list[bool]

    def classes(self, kind: str) -> dict[int, list[int]]:
        ids = {"R": self.r_class, "L": self.l_class, "J": self.j_class, "H": self.h_class}[kind]
        out: dict[int, list[int]] = {}
        for i, c in enumerate(ids):
            out.setdefault(c, []).append(i)
        return out

    def j_class_members(self, cid: int) -> list[int]:
        return [i for i, c in enumerate(self.j_class) if c == cid]

    def is_regular_j(self, cid: int) -> bool:
        return any(self.idempotent[i] for i in self.j_class_members(cid))

    def h_class_of(self, i: int) -> list[int]:
        return [j for j, c in enumerate(self.h_class) if c == self.h_class[i]]

    def eggbox(self, cid: int) -> str:
        """ASCII grid of the J-class: rows R-classes, columns L-classes."""
        members = self.j_class_members(cid)
        rows = sorted({self.r_class[i] for i in members})
        cols = sorted({self.l_class[i] for i in members})
        wit = self.monoid.witness
        els = self.monoid.elements

        def label(i: int) -> str:
            w = wit.get(els[i], f"#{i}")
            text = w if w else "1"
            return text + ("*" if self.idempotent[i] else "")

        grid = []
        for r in rows:
            row = []
            for l in cols:
                cell = sorted(
                    label(i)
                    for i in members
                    if self.r_class[i] == r and self.l_class[i] == l
                )
                row.append(" ".join(cell))
            grid.append(row)
        width = max((len(c) for row in grid for c in row), default=1)
        sep = "+" + "+".join(["-" * (width + 2)] * len(cols)) + "+"
        lines = [sep]
        for row in grid:
            lines.append("| " + " | ".join(c.ljust(width) for c in row) + " |")
            lines.append(sep)
        return "\n".join(lines)

    def to_json(self) -> str:
        wit = self.monoid.witness
        els = self.monoid.elements
        return json.dumps(
            {
                "size": len(els),
                "j_classes": [
                    {
                        "members": sorted(
                            wit.get(els[i], f"#{i}") for i in members
                        ),
                        "regular": self.is_regular_j(cid),
                        "r_classes": len({self.r_class[i] for i in members}),
                        "l_classes": len({self.l_class[i] for i in members}),
                    }
                    for cid, members in sorted(self.classes("J").items())
                ],
            },
            sort_keys=True,
        )


def green(M: FiniteMonoid) -> GreenStructure:
    n = len(M)
    gens = list(M.generators.values())
    right = [[] for _ in range(n)]
    left = [[] for _ in range(n)]
    both = [[] for _ in range(n)]
    for i, x in enumerate(M.elements):
        for g in gens:
            r = M.pos[M.mul(x, g)]
            l = M.pos[M.mul(g, x)]
            right[i].append(r)
            left[i].append(l)
            both[i].append(r)
            both[i].append(l)
    r_class = _sccs(n, right)
    l_class = _sccs(n, left)
    j_class = _sccs(n, both)
    pair_ids: dict[tuple[int, int], int] = {}
    h_class = []
    for i in range(n):
        key = (r_class[i], l_class[i])
        h_class.append(pair_ids.setdefault(key, len(pair_ids)))
    idem = [M.is_idempotent(x) for x in M.elements]
    return GreenStructure(M, r_class, l_class, j_class, h_class, idem)


# ---------------------------------------------------------------- permutations


def parse_permutation(text: str, domain: tuple) -> dict:
    """Cycle notation "(1 2 3)(4 5)" over the given domain points."""
    mapping = {p: p for p in domain}
    body = text.strip()
    if body in ("", "()", "e", "id"):
        return mapping
    if body.count("(") != body.count(")"):
        raise ParseError(f"unbalanced cycles in {text!r}")
    chunks = [c for c in body.replace("(", " ( ").replace(")", " ) ").split() if c]
    i = 0
    while i < len(chunks):
        if chunks[i] != "(":
            raise ParseError(f"expected '(' in {text!r}")
        j = chunks.index(")", i)
        cycle = chunks[i + 1 : j]
        points = []
        for tok in cycle:
            tok = tok.strip(",")
            point: Hashable = int(tok) if tok.lstrip("-").isdigit() else tok
            if point not in mapping:
                raise ParseError(f"point {point!r} outside domain {domain}")
            points.append(point)
        if len(set(points)) != len(points):
            raise ParseError(f"repeated point in cycle {cycle}")
        for k, p in enumerate(points):
            mapping[p] = points[(k + 1) % len(points)]
        i = j + 1
    return mapping


def cycle_notation(mapping: dict) -> str:
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


class PermGroup:
    """Permutation group given by generator mappings on a finite domain.

    The mappings are kept for display; the group itself is computed on
    position tuples over the sorted domain, composed by ``compose``.
    """

    def __init__(self, domain: tuple, generators: list[dict]) -> None:
        try:
            self.domain = tuple(sorted(domain))
        except TypeError:
            self.domain = tuple(sorted(domain, key=str))
        self._pos = {p: i for i, p in enumerate(self.domain)}
        self.generators = []
        for g in generators:
            if sorted(g, key=str) != sorted(self.domain, key=str):
                raise ValueError("generator domain mismatch")
            if set(g.values()) != set(self.domain):
                raise ValueError(f"not a permutation: {g}")
            self.generators.append(dict(g))
        self._perms = [tuple(self._pos[g[p]] for p in self.domain) for g in self.generators]
        self._closure: FiniteMonoid | None = None

    def elements(self, budget: int = DEFAULT_ORDER_BUDGET) -> list[tuple[int, ...]]:
        """Every group element, as the positions of the images of ``domain``."""
        if self._closure is None:
            gens = {str(i): t for i, t in enumerate(self._perms)}
            identity = tuple(range(len(self.domain)))
            self._closure = FiniteMonoid.from_generators(gens, compose, identity, budget)
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
    identity = tuple(range(len(t)))
    acc, n = t, 1
    while acc != identity:
        acc = compose(acc, t)
        n += 1
    return n


def is_isomorphic_small(G: PermGroup, H: PermGroup, budget: int = 240) -> bool:
    """Brute-force isomorphism test for groups of small order."""
    gel = G.elements()
    hel = H.elements()
    if len(gel) != len(hel):
        return False
    if len(gel) > budget:
        raise BudgetExceeded(f"isomorphism search capped at order {budget}")

    gens = G._perms
    horders: dict[int, list[tuple[int, ...]]] = {}
    for h in hel:
        horders.setdefault(_element_order(h), []).append(h)

    def search(i: int, images: list[tuple[int, ...]]) -> bool:
        if i == len(gens):
            # closure of the partial map over generator words
            table = {gel[0]: hel[0]}
            queue = [(gel[0], hel[0])]
            while queue:
                gx, hx = queue.pop()
                for g, h in zip(gens, images):
                    gy, hy = compose(gx, g), compose(hx, h)
                    if gy in table:
                        if table[gy] != hy:
                            return False
                    else:
                        table[gy] = hy
                        queue.append((gy, hy))
            return len(table) == len(gel) and len(set(table.values())) == len(hel)
        for h in horders.get(_element_order(gens[i]), []):
            if search(i + 1, images + [h]):
                return True
        return False

    return search(0, [])


def schutzenberger_group(M: FiniteMonoid, h_members: list) -> PermGroup:
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


# ---------------------------------------------------------------- F-minimal


def f_min_rank_data(
    A: Automaton, F: FactorSet
) -> tuple[int, str, set[frozenset[int]]]:
    """Minimal rank over transformations of factors, with a witness word.

    Scans factors by increasing length; stops once two further lengths
    produce no smaller rank and no new minimal-rank image set.
    """
    if not F.complete:
        raise InsufficientHorizon("factor set is not certified complete")
    letter_maps = A.letter_transformations()
    missing = [a for a in F.words_of_length(1) if a not in letter_maps]
    if missing:
        raise ValueError(f"automaton has no letter {''.join(missing)!r} of the factor set")
    identity = tuple(range(len(A.states)))
    current: dict[str, tuple[int | None, ...]] = {"": identity}
    best_rank = transformation_rank(identity)
    best_word = ""
    images: set[frozenset[int]] = {transformation_image(identity)}
    stable = 0
    for n in range(1, F.horizon + 1):
        nxt: dict[str, tuple[int | None, ...]] = {}
        for w in F.words_of_length(n):
            prev = current.get(w[:-1])
            if prev is None:
                continue
            nxt[w] = compose(prev, letter_maps[w[-1]])
        current = nxt
        changed = False
        for w, t in nxt.items():
            r = transformation_rank(t)
            img = transformation_image(t)
            if r < best_rank:
                best_rank, best_word = r, w
                images = {img}
                changed = True
            elif r == best_rank and img not in images:
                images.add(img)
                changed = True
        stable = 0 if changed else stable + 1
        if stable >= 2:
            return best_rank, best_word, images
    raise InsufficientHorizon(
        f"minimal rank not stabilized within horizon {F.horizon}"
    )


def f_min_rank(A: Automaton, F: FactorSet) -> int:
    return f_min_rank_data(A, F)[0]


def f_group(
    A: Automaton, F: FactorSet, base: str | None = None
) -> tuple[PermGroup, str, tuple]:
    """Permutation group induced by return words on a minimal image.

    Returns (group, base word, image as a tuple of original state names).
    """
    from .returns import right_return_words

    rank, word, _ = f_min_rank_data(A, F)
    if base is not None:
        word = base
    t = A.transformation(word)
    if transformation_rank(t) != rank:
        raise InternalInvariantError(f"base word {word!r} does not reach minimal rank")
    image = sorted(transformation_image(t))
    gens = []
    for r in sorted(right_return_words(F, word).words, key=shortlex):
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
        raise ValueError("modulus must be positive")
    return FiniteMonoid(
        list(range(m)),
        lambda x, y: (x + y) % m,
        0,
        {"g": 1 % m},
        {i: "g" * i for i in range(m)},
    )


def monoid_from_permutations(
    images: dict[str, dict], domain: tuple, budget: int = DEFAULT_MONOID_BUDGET
) -> FiniteMonoid:
    """Permutation group generated by letter images, as a finite monoid.

    Elements are tuples listing the image of each domain point in sorted
    order, multiplied left to right.
    """
    dom = tuple(sorted(domain))
    pos = {p: i for i, p in enumerate(dom)}
    gens = {
        a: tuple(pos[m[p]] for p in dom) for a, m in images.items()
    }
    identity = tuple(range(len(dom)))
    return FiniteMonoid.from_generators(gens, compose, identity, budget)
