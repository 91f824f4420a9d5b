"""Free-group words, folded subgroup graphs, index/basis tests, separation.

Group words are strings where a lowercase letter is a generator and the
corresponding uppercase letter is its inverse ("aB" means a b^{-1}).
"""

from __future__ import annotations

from .errors import InputError, NotSeparable
from .words import Alphabet


def invert(w: str) -> str:
    return w[::-1].swapcase()


def reduce(w: str) -> str:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    if w.islower():  # no capitals, so nothing cancels
        return w
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase() and out[-1] != c:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class SubgroupGraph:
    """Folded labeled graph of a finitely generated free-group subgroup.

    The graph is kept folded (deterministic) after every path it is given.
    For each alphabet letter a, ``_out[a][v]`` is the vertex the a-edge from
    v reaches and ``_inc[a][w]`` the vertex whose a-edge reaches w, or -1;
    stored vertices are read through the union-find ``_parent``, whose roots
    are the live vertices, and ``_live`` and ``_edges`` count them and the
    edges.  A path first reads the longest prefix of its reduced word along
    existing edges (a loop also its longest suffix, back from the base),
    attaches the rest, and folds each label clash at once (Kapovich &
    Myasnikov, "Stallings foldings and subgroups of free groups", J. Algebra
    248, 2002).

    Numbering: each path reserves the vertex numbers its unfolded path would
    take (one per letter, the last letter of a loop ending at the base), and
    a merge keeps the lesser vertex.  So every vertex is named by the least
    vertex of its class in the unfolded graph, the base 0 survives, and the
    names do not depend on the order of the folds.  ``vertices`` and
    ``triples`` (v, a, w), with a positive letter, are views of the arrays.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.base = 0
        self._parent = [0]
        self._out: dict[str, list[int]] = {a: [-1] for a in alphabet}
        self._inc: dict[str, list[int]] = {a: [-1] for a in alphabet}
        self._live = 1
        self._edges = 0
        # a letter c of a word steps along (forward, backward) arrays: c's
        # label is c.lower(), read backwards when c is not lowercase
        self._steps: dict[str, tuple[list[int], list[int]]] = {}
        self._slots = [(out, True) for out in self._out.values()]
        self._slots += [(inc, False) for inc in self._inc.values()]
        for c in {*alphabet, *(a.upper() for a in alphabet)}:
            a = c.lower()
            if a in self._out:
                out, inc = self._out[a], self._inc[a]
                self._steps[c] = (out, inc) if c.islower() else (inc, out)

    # -- construction -------------------------------------------------

    def _find(self, v: int) -> int:
        parent = self._parent
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def add_loop(self, word: str) -> None:
        """Attach a base-to-base path spelling the reduced word."""
        self.add_path(word, close=True)

    def check_word(self, word: str) -> str:
        """``word`` if each letter or its inverse is in the alphabet, checked before reduction."""
        if not self._steps.keys() >= set(word):
            bad = next(c for c in word if c not in self._steps)
            raise InputError(f"letter {bad!r} outside alphabet")
        return word

    def add_path(self, word: str, close: bool) -> int:
        """Attach a path from the base spelling ``word``; returns its endpoint."""
        return self._attach(reduce(self.check_word(word)), close)

    def _attach(self, word: str, close: bool) -> int:
        """``add_path`` for a reduced word over the alphabet."""
        steps = self._steps
        n = len(word)
        parent, find = self._parent, self._find
        start = len(parent)  # the path's vertex after letter j is numbered start + j
        reserved = n - 1 if close else n
        parent.extend(range(start, start + reserved))
        for array, _ in self._slots:
            array.extend([-1] * reserved)
        # read the longest prefix along existing edges: its vertices fold away
        v, i = self.base, 0
        while i < n and (t := steps[word[i]][0][v]) >= 0:
            v = find(t)
            if i < reserved:
                parent[start + i] = v
            i += 1
        if close and i == n:
            self._merge(v, self.base)
            return self.base
        # a loop also reads its longest suffix back from the base, up to letter i
        u, m = self.base, n
        while close and m > i + 1 and (t := steps[word[m - 1]][1][u]) >= 0:
            u = find(t)
            m -= 1
            parent[start + m - 1] = u
        stop = m - 1 if close else n
        for j in range(i, stop):
            w = start + j
            forward, backward = steps[word[j]]
            forward[v] = w
            backward[w] = v
            v = w
        self._live += stop - i
        self._edges += stop - i
        if not close:
            return v
        forward, backward = steps[word[m - 1]]
        t = backward[u]
        if t < 0:
            forward[v] = u
            backward[u] = v
            self._edges += 1
        else:  # u already has this letter's edge in: fold v onto its source
            self._merge(t, v)
        return self.base

    def _merge(self, x: int, y: int) -> None:
        """Identify x and y, then every pair of vertices that forces."""
        parent, find = self._parent, self._find
        pending = [(x, y)]
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            keep, drop = (x, y) if x < y else (y, x)
            parent[drop] = keep
            self._live -= 1
            for array, is_out in self._slots:
                t = array[drop]
                if t < 0:
                    continue
                k = array[keep]
                if k < 0:
                    array[keep] = t
                else:
                    pending.append((k, t))
                    if is_out:  # two edges out of one vertex become one
                        self._edges -= 1

    # -- queries -------------------------------------------------------

    @property
    def vertices(self) -> set[int]:
        return {v for v, p in enumerate(self._parent) if v == p}

    @property
    def triples(self) -> set[tuple[int, str, int]]:
        find, vertices = self._find, self.vertices
        return {
            (v, a, find(out[v])) for a, out in self._out.items() for v in vertices if out[v] >= 0
        }

    def rank(self) -> int:
        return self._edges - self._live + 1

    def is_complete(self) -> bool:
        """Every vertex has an edge out, and so (folded) one in, for every letter."""
        return self._edges == len(self.alphabet) * self._live

    def index(self) -> int | None:
        """Subgroup index: the vertex count if complete, else None (infinite)."""
        return self._live if self.is_complete() else None

    def trace(self, word: str) -> int | None:
        find, steps = self._find, self._steps
        v = find(self.base)
        for c in reduce(word):
            step = steps.get(c)
            t = -1 if step is None else step[0][v]
            if t < 0:
                return None
            v = find(t)
        return v

    def membership(self, word: str) -> bool:
        return self.trace(word) == self.base

    def to_dot(self) -> str:
        lines = ["digraph subgroup {", f"  {self.base} [shape=doublecircle];"]
        for v, a, w in sorted(self.triples):
            lines.append(f'  {v} -> {w} [label="{a}"];')
        lines.append("}")
        return "\n".join(lines)

    def copy(self) -> "SubgroupGraph":
        """The same graph; its next path numbers from one past its greatest vertex."""
        g = SubgroupGraph(self.alphabet)
        find = self._find
        size = max(self.vertices) + 1
        g._parent[:] = [find(v) for v in range(size)]
        for a in self.alphabet:
            for mine, theirs in ((self._out[a], g._out[a]), (self._inc[a], g._inc[a])):
                theirs[:] = [-1 if t < 0 else find(t) for t in mine[:size]]
        g._live, g._edges = self._live, self._edges
        return g


def subgroup(generators: list[str] | set[str], alphabet: Alphabet) -> SubgroupGraph:
    """Folded graph of the subgroup generated by the given words.

    Each vertex but the base lies on a reduced loop, so it keeps degree >= 2.
    """
    g = SubgroupGraph(alphabet)
    for w in sorted({reduce(g.check_word(w)) for w in generators} - {""}):
        g._attach(w, close=True)
    return g


def generates(generators: list[str] | set[str], alphabet: Alphabet) -> bool:
    """True iff the words generate the whole free group."""
    return subgroup(generators, alphabet).index() == 1


def is_basis_of_free_group(generators: list[str] | set[str], alphabet: Alphabet) -> bool:
    """A generating set whose cardinality (after reduction) equals the rank."""
    distinct = {reduce(w) for w in generators} - {""}
    return len(distinct) == len(alphabet) and generates(distinct, alphabet)


def separating_subgroup(H: SubgroupGraph, x: str) -> SubgroupGraph:
    """A finite-index overgroup of H avoiding x.

    Attaches the x-path to a copy of H's graph, then completes every
    letter's partial injection on vertices into a permutation (smallest free
    slot).  The path ends away from the base, so x is excluded.
    """
    x = reduce(H.check_word(x))
    if H.membership(x):
        raise NotSeparable(f"{x!r} belongs to the subgroup")
    g = H.copy()
    g._attach(x, close=False)
    order = sorted(g.vertices)
    for a in g.alphabet:
        out, inc = g._out[a], g._inc[a]
        missing_out = [v for v in order if out[v] < 0]
        missing_in = [v for v in order if inc[v] < 0]
        for v, w in zip(missing_out, missing_in):
            out[v], inc[w] = w, v
        g._edges += len(missing_out)
    return g
