"""Free-group words, folded subgroup graphs, index/basis tests, separation.

Group words are strings where a lowercase letter is a generator and the
corresponding uppercase letter is its inverse ("aB" means a b^{-1}).
"""

from __future__ import annotations

from .errors import NotSeparable
from .words import Alphabet


def invert(w: str) -> str:
    return w[::-1].swapcase()


def reduce(w: str) -> str:
    """Free reduction: cancel adjacent inverse pairs until none remain."""
    out: list[str] = []
    for c in w:
        if out and out[-1] == c.swapcase() and out[-1] != c:
            out.pop()
        else:
            out.append(c)
    return "".join(out)


class SubgroupGraph:
    """Labeled graph of a finitely generated free-group subgroup.

    Edges are triples (v, a, w) with a a positive letter, read backwards
    for inverse letters.  Parallel edges may exist until fold() runs; the
    graph is deterministic afterwards.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.base = 0
        self.vertices: set[int] = {0}
        self.triples: set[tuple[int, str, int]] = set()
        self._next = 1

    # -- construction -------------------------------------------------

    def _new_vertex(self) -> int:
        v = self._next
        self._next += 1
        self.vertices.add(v)
        return v

    def add_loop(self, word: str) -> None:
        """Attach a base-to-base path spelling the reduced word."""
        self.add_path(word, close=True)

    def add_path(self, word: str, close: bool) -> int:
        """Attach a path from the base spelling ``word``; returns its endpoint."""
        word = reduce(word)
        current = self.base
        for i, c in enumerate(word):
            last = i == len(word) - 1
            target = self.base if (close and last) else self._new_vertex()
            if c.islower():
                self.triples.add((current, c, target))
            else:
                self.triples.add((target, c.lower(), current))
            current = target
        return current

    def fold(self) -> None:
        """Merge endpoints of equally labeled edges until deterministic.

        One worklist pass with union-find (path halving): a merge moves the
        dropped vertex's out/in label maps to the kept one and queues every
        label clash.  Each class is named by its least vertex, so the base
        (vertex 0) survives; the folded quotient is unique (Stallings,
        "Topology of finite graphs", Invent. Math. 71, 1983).
        """
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

    # -- queries (graph assumed folded) -------------------------------

    def _maps(self) -> tuple[dict, dict]:
        out = {(v, a): w for v, a, w in self.triples}
        inc = {(w, a): v for v, a, w in self.triples}
        return out, inc

    def rank(self) -> int:
        return len(self.triples) - len(self.vertices) + 1

    def is_complete(self) -> bool:
        out, inc = self._maps()
        return all(
            (v, a) in out and (v, a) in inc
            for v in self.vertices
            for a in self.alphabet
        )

    def index(self) -> int | None:
        """Subgroup index: the vertex count if complete, else None (infinite)."""
        return len(self.vertices) if self.is_complete() else None

    def trace(self, word: str, start: int | None = None) -> int | None:
        out, inc = self._maps()
        v = self.base if start is None else start
        for c in reduce(word):
            nxt = out.get((v, c)) if c.islower() else inc.get((v, c.lower()))
            if nxt is None:
                return None
            v = nxt
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
        g = SubgroupGraph(self.alphabet)
        g.vertices = set(self.vertices)
        g.triples = set(self.triples)
        g._next = max(self.vertices) + 1
        return g


def subgroup(generators: list[str] | set[str], alphabet: Alphabet) -> SubgroupGraph:
    """Folded graph of the subgroup generated by the given words.

    Each vertex but the base lies on a reduced loop, so it keeps degree >= 2.
    """
    g = SubgroupGraph(alphabet)
    for w in sorted({reduce(w) for w in generators} - {""}):
        for c in w:
            if c.lower() not in alphabet:
                raise ValueError(f"letter {c!r} outside alphabet")
        g.add_loop(w)
    g.fold()
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

    Attaches the x-path to H's graph, folds, then completes every letter's
    partial injection on vertices into a permutation (smallest free slot).
    The path endpoint stays distinct from the base, so x is excluded.
    """
    x = reduce(x)
    if H.membership(x):
        raise NotSeparable(f"{x!r} belongs to the subgroup")
    g = H.copy()
    g.add_path(x, close=False)
    g.fold()
    # the endpoint survives folding; re-trace since vertex ids moved
    end = g.trace(x)
    if end == g.base or end is None:
        raise NotSeparable(f"{x!r} folds into the subgroup")
    order = sorted(g.vertices)
    out, inc = g._maps()
    for a in g.alphabet:
        missing_out = [v for v in order if (v, a) not in out]
        missing_in = [v for v in order if (v, a) not in inc]
        for v, w in zip(missing_out, missing_in):
            g.triples.add((v, a, w))
    return g
