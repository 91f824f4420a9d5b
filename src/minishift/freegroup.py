"""Free-group words, folded subgroup graphs, index/basis tests, separation.

Group words are strings where a lowercase letter is a generator and the
corresponding uppercase letter is its inverse ("aB" means a b^{-1}).  A
subgroup graph lays its paths down unfolded and folds them in one union-find
pass.  The basis test runs Nielsen moves on positive words first, refuses a
letter-count determinant other than +-1, and folds only the words left.
"""

from __future__ import annotations

from bisect import insort
from functools import lru_cache

from .errors import InputError, NotSeparable
from .words import Alphabet, shortlex


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


@lru_cache(maxsize=64)  # kept per alphabet: a graph and each basis test read it
def _letters(alphabet: Alphabet) -> frozenset[str]:
    """The letters of group words over ``alphabet``: each letter and its inverse (upper case).
    A letter that is not lowercase is refused: it would have no inverse, or be one."""
    letters = alphabet.letters
    if bad := [a for a in letters if not a.islower()]:
        raise InputError(f"letter {bad[0]!r} is not lowercase (capitals are inverses)")
    return frozenset(c for a in letters for c in (a, a.upper()) if c.lower() in letters)


def _check_letters(word: str, letters) -> str:
    """``word`` if each of its letters is one of ``letters`` (see ``_letters``)."""
    if not letters >= set(word):
        raise InputError(f"letter {next(c for c in word if c not in letters)!r} outside alphabet")
    return word


class SubgroupGraph:
    """Folded labeled graph of a finitely generated free-group subgroup.

    Each path is laid down unfolded, one new vertex per letter (the last
    letter of a loop ends at the base), and the graph is then folded by one
    worklist union-find pass: the ends of two equally labeled edges out of,
    or into, one vertex are identified until none remain (Kapovich &
    Myasnikov, "Stallings foldings and subgroups of free groups", J. Algebra
    248, 2002).  A merge keeps the lesser vertex, so every vertex is named by
    the least vertex of its class in the unfolded graph, the base 0 survives,
    and the names do not depend on the order of the folds.  ``vertices`` and
    ``triples`` (v, a, w), with a positive letter, are the folded graph, and
    ``_step`` maps (v, c) to the vertex the letter c leads to from v, a
    capital read backwards.
    """

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.base = 0
        self.vertices = {0}
        self.triples: set[tuple[int, str, int]] = set()
        self._letters = _letters(alphabet)
        self._step: dict[tuple[int, str], int] = {}
        self._next = 1  # the number of the next vertex a path lays down

    # -- construction -------------------------------------------------

    def check_word(self, word: str) -> str:
        """``word`` if each letter or its inverse is in the alphabet, checked before reduction."""
        return _check_letters(word, self._letters)

    def add_path(self, word: str, close: bool) -> int:
        """Attach a path from the base spelling ``word`` and fold; returns its endpoint."""
        word = reduce(self.check_word(word))
        self._attach(word, close)
        self._fold()
        return self.trace(word)

    def _attach(self, word: str, close: bool) -> None:
        """Lay a reduced word over the alphabet down from the base, unfolded."""
        v, last = self.base, len(word) - 1
        for i, c in enumerate(word):
            if close and i == last:
                w = self.base
            else:
                w, self._next = self._next, self._next + 1
            self.triples.add((v, c, w) if c.islower() else (w, c.lower(), v))
            v = w

    def _fold(self) -> None:
        """Identify the ends of equally labeled edges at one vertex until none remain."""
        parent = list(range(self._next))

        def find(v: int) -> int:
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        step: dict[tuple[int, str], int] = {}
        pending = []
        for v, a, w in self.triples:
            for key, t in (((v, a), w), ((w, a.upper()), v)):
                if (s := step.setdefault(key, t)) != t:
                    pending.append((s, t))
        while pending:
            x, y = map(find, pending.pop())
            if x == y:
                continue
            keep, drop = (x, y) if x < y else (y, x)
            parent[drop] = keep
            for c in self._letters:  # drop's edges become keep's
                if (t := step.pop((drop, c), None)) is not None:
                    if (s := step.setdefault((keep, c), t)) != t:
                        pending.append((s, t))
        self._step = {key: find(t) for key, t in step.items()}
        self.vertices = {self.base, *(v for v, _ in self._step)}
        self.triples = {(v, c, w) for (v, c), w in self._step.items() if c.islower()}

    # -- queries -------------------------------------------------------

    def rank(self) -> int:
        return len(self.triples) - len(self.vertices) + 1

    def index(self) -> int | None:
        """Subgroup index: the vertex count if the graph is complete, with an edge out of
        (and so, folded, one into) every vertex for every letter, else None (infinite)."""
        n = len(self.vertices)
        return n if len(self.triples) == len(self.alphabet) * n else None

    def trace(self, word: str) -> int | None:
        v: int | None = self.base
        for c in reduce(word):
            if (v := self._step.get((v, c))) is None:
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

    def copy(self) -> "SubgroupGraph":
        """The same graph; its next path numbers from one past its greatest vertex."""
        g = SubgroupGraph(self.alphabet)
        g.vertices, g.triples, g._step = set(self.vertices), set(self.triples), dict(self._step)
        g._next = max(self.vertices) + 1
        return g


def subgroup(generators: list[str] | set[str], alphabet: Alphabet) -> SubgroupGraph:
    """Folded graph of the subgroup generated by the given words.

    Each vertex but the base lies on a reduced loop, so it keeps degree >= 2.
    """
    g = SubgroupGraph(alphabet)
    for w in sorted({reduce(g.check_word(w)) for w in generators} - {""}):
        g._attach(w, close=True)
    g._fold()
    return g


def generates(generators: list[str] | set[str], alphabet: Alphabet) -> bool:
    """True iff the words generate the whole free group."""
    return subgroup(generators, alphabet).index() == 1


def _nielsen_shorten(words: set[str]) -> list[str] | None:
    """Distinct positive words shortened by Nielsen moves, or None if a move repeats a word.

    Longest word first, a shorter member u that is a prefix or suffix of a word w
    replaces w by u^-i w u^-j, i and j maximal, so every move keeps the generated
    subgroup and the word count and shortens the total length.  A repeat (or the
    empty word) means fewer words generate that subgroup.  The moves stop when no
    member is a prefix or suffix of a longer one.
    """
    ws = sorted(words, key=shortlex)
    i = len(ws) - 1
    while i:
        w = ws[i]
        for u in ws[:i]:
            if w.startswith(u) or w.endswith(u):
                break
        else:  # no move shortens w: try the next longest
            i -= 1
            continue
        k, start, end = len(u), 0, len(w)
        while w.startswith(u, start):
            start += k
        while end - start >= k and w.endswith(u, start, end):
            end -= k
        w = w[start:end]
        del ws[i]
        if not w or w in ws:
            return None
        insort(ws, w, key=len)
        i = len(ws) - 1
    return ws


def _abelian_determinant(words: list[str] | set[str], alphabet: Alphabet) -> int:
    """Determinant of the |A| words' letter counts (a capital counts -1), by Bareiss elimination."""
    m = [[w.count(a) - w.count(a.upper()) for a in alphabet] for w in words]
    sign, previous = 1, 1
    for k in range(len(m) - 1):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, len(m)) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // previous
        previous = m[k][k]
    return sign * m[-1][-1] if m else 1


def is_basis_of_free_group(generators: list[str] | set[str], alphabet: Alphabet) -> bool:
    """A generating set whose cardinality (after reduction) equals the rank.

    Positive words are first shortened by Nielsen moves (``_nielsen_shorten``):
    words that reach the letters are a basis, and a repeat is not.  Words with
    an inverse letter, and what the moves leave, must have a letter-count
    determinant of +-1 (a basis of F(A) maps to a basis of Z^|A|), and are
    then folded by ``generates``.
    """
    _check_letters("".join(generators), _letters(alphabet))
    distinct = {reduce(w) for w in generators} - {""}
    if len(distinct) != len(alphabet):
        return False
    if "".join(distinct).islower():
        shortened = _nielsen_shorten(distinct)
        if shortened is None:
            return False
        if len(shortened[-1]) == 1:  # |A| distinct letters: the alphabet itself
            return True
        distinct = shortened
    if abs(_abelian_determinant(distinct, alphabet)) != 1:
        return False
    return generates(distinct, alphabet)


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
    g.add_path(x, close=False)
    order = sorted(g.vertices)
    for a in g.alphabet:
        missing_out = [v for v in order if (v, a) not in g._step]
        missing_in = [v for v in order if (v, a.upper()) not in g._step]
        g.triples |= {(v, a, w) for v, w in zip(missing_out, missing_in)}
    g._fold()  # the new edges complete each letter's injection: nothing folds
    return g
