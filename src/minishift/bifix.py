"""Bifix codes, parses, F-degree, group-code intersections and their groups."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import TYPE_CHECKING, Iterable

from .errors import InputError, InsufficientHorizon
from .words import Alphabet, FactorSet, shortlex, star_factorization

if TYPE_CHECKING:
    from .monoid import Automaton


def is_prefix_free(words: Iterable[str]) -> bool:
    ws = set(words)
    return not any(
        u != v and v.startswith(u) for u in ws for v in ws
    )


def is_suffix_free(words: Iterable[str]) -> bool:
    return is_prefix_free(w[::-1] for w in words)


def is_bifix(words: Iterable[str]) -> bool:
    ws = set(words)
    if "" in ws:
        return False
    return is_prefix_free(ws) and is_suffix_free(ws)


@dataclass(frozen=True)
class BifixCode:
    words: frozenset[str]

    def __post_init__(self) -> None:
        if not self.words:
            raise InputError("a bifix code needs at least one word")
        if not is_bifix(self.words):
            raise InputError("word set is not bifix")

    @classmethod
    def of(cls, words: Iterable[str]) -> "BifixCode":
        return cls(frozenset(words))

    def sorted_words(self) -> list[str]:
        return sorted(self.words, key=shortlex)

    def max_length(self) -> int:
        return max(len(w) for w in self.words)


@dataclass(frozen=True)
class Parse:
    prefix: str
    blocks: tuple[str, ...]
    suffix: str

    def word(self) -> str:
        return self.prefix + "".join(self.blocks) + self.suffix


def parses(w: str, X: BifixCode) -> list[Parse]:
    """All parses (p, x-blocks, q) with p suffixless and q prefixless in X."""
    out = []
    for i in range(len(w) + 1):
        p = w[:i]
        if any(p.endswith(x) for x in X.words):
            continue
        for j, blocks in sorted(star_factorization(w, i, X.words).items()):
            q = w[j:]
            if any(q.startswith(x) for x in X.words):
                continue
            out.append(Parse(p, blocks, q))
    return out


def f_degree(X: BifixCode, F: FactorSet) -> int:
    """Maximal parse count over factors; attained on non-internal factors.

    A factor at least as long as the longest code word cannot be internal
    to a code word, so its parse count realizes the maximum.  X is a prefix
    code, so from a cut i of w the blocks are forced up to a remainder that
    no code word prefixes: each cut whose prefix w[:i] has no code-word
    suffix starts exactly one parse, and no other cut starts one.
    """
    n = X.max_length()
    F.certify(n, f"degree needs factors of length {n}")
    witnesses = F.words_of_length(n)
    if not witnesses:
        raise InputError("factor set has no word of the required length")
    words = X.words
    lengths = {len(x) for x in words}

    def blocked(w: str) -> set[int]:
        """The cuts i where a code word is a suffix of w[:i]."""
        return {i for k in lengths for i in range(k, n + 1) if w[i - k : i] in words}

    return max(n + 1 - len(blocked(w)) for w in witnesses)


# ------------------------------------------------------------ group codes


@dataclass(frozen=True)
class _Shift:
    """The permutation p -> (p + k) mod m of 0..m-1, read as ``shift[p]``
    like a permutation dict, and kept in two ints whatever m is."""

    k: int
    m: int

    def __getitem__(self, p: int) -> int:
        return (p + self.k) % self.m


@dataclass(frozen=True)
class GroupCodeSpec:
    """Transitive permutation morphism with a distinguished stabilized point.

    The group code is the set of words whose image stabilizes ``base_point``
    along a path that first returns to it exactly at the end.
    """

    domain: tuple | range
    images: dict  # letter -> point permutation, read as images[letter][point]
    base_point: object

    def __post_init__(self) -> None:
        if self.base_point not in self.domain:
            raise InputError(f"base point {self.base_point!r} not in domain {self.domain}")

    @classmethod
    def from_cycles(
        cls, domain: Iterable, cycles: dict[str, str], base_point=None
    ) -> "GroupCodeSpec":
        from .monoid import parse_permutation

        dom = tuple(domain)
        images = {a: parse_permutation(text, dom) for a, text in cycles.items()}
        return cls(dom, images, dom[0] if base_point is None else base_point)

    @classmethod
    def cyclic(cls, m: int, weights: dict[str, int]) -> "GroupCodeSpec":
        """Regular representation of Z/m with letter a adding weights[a].

        The points are ``range(m)`` and each letter acts by a ``_Shift``, so
        the spec takes the same memory for every m.
        """
        if m < 1:
            raise InputError("modulus must be positive")
        return cls(range(m), {a: _Shift(k, m) for a, k in weights.items()}, 0)

    def degree(self) -> int:
        """Index of the stabilizer = orbit size of the base point; m / gcd(m, k_i) for shifts."""
        if all(isinstance(g, _Shift) for g in self.images.values()):
            return len(self.domain) // gcd(len(self.domain), *(g.k for g in self.images.values()))
        from .monoid import FiniteMonoid

        orbit = FiniteMonoid.from_generators(
            self.images, lambda p, g: g[p], self.base_point, len(self.domain) + 1
        )
        return len(orbit)


def group_code_intersection(spec: GroupCodeSpec, F: FactorSet) -> BifixCode:
    """The code words of the group code that are factors.

    A factor belongs iff its point walk from the base returns to the base
    exactly at the end.  F is factorial, so each factor's walk is its
    longest proper prefix's walk one letter on: the walks are kept level by
    level, for the factors with no nonempty prefix back at the base.  If
    some maximal-length factor has no such prefix, longer code words may
    have been cut off, and the shortlex-first one is named.
    """
    F.certify()
    base, images = spec.base_point, spec.images
    out = []
    walks = {"": base}  # each open factor of the last level -> the point its walk reached
    for n in range(1, F.horizon + 1):
        if not walks:
            break
        reached = {}
        for w in F.words_of_length(n):
            prefix = w[:-1]
            if prefix in walks:
                p = images[w[-1]][walks[prefix]]
                if p == base:
                    out.append(w)
                else:
                    reached[w] = p
        walks = reached
    if walks:
        raise InsufficientHorizon(
            f"factor {next(iter(walks))!r} has no code-word prefix; horizon too small"
        )
    return BifixCode.of(out)


# ------------------------------------------------------------ automata


def minimal_automaton_of_star(X: BifixCode, alphabet: Alphabet | None = None) -> Automaton:
    """Minimal deterministic automaton of the submonoid generated by X.

    The states of the literal trie are the proper prefixes p of X, with code
    words looping back to the root.  Two of them are merged exactly when
    their residuals p^-1 X = {w : pw in X} are equal, and the root stays in
    a class of its own.  This is the partition by the residuals p^-1 X*:
    X is a prefix code, so p^-1 X* = (p^-1 X) X* for every proper prefix
    p != ""; for prefix codes U and V, U X* = V X* implies U = V; and only
    the root's residual X* contains the empty word (Berstel, Perrin,
    Reutenauer, *Codes and Automata*, CUP 2010, ch. 4 and 6).
    """
    from .monoid import Automaton

    if alphabet is None:
        alphabet = Alphabet.of(sorted({c for w in X.words for c in w}))
    residuals: dict[str, set[str]] = {}
    for w in X.words:
        for i in range(len(w)):
            residuals.setdefault(w[:i], set()).add(w[i:])
    class_of = {p: frozenset(r) if p else None for p, r in residuals.items()}

    def target(p: str, a: str) -> str | None:
        q = p + a
        if q in X.words:
            return ""
        return q if q in residuals else None

    # breadth-first numbering of the classes from the root, states named 1..n;
    # equal residuals move alike, so the prefix that first reached a class
    # (queue[i - 1] for state i) writes that class's transitions
    number = {class_of[""]: 1}
    queue = [""]
    transitions = {}
    for i, p in enumerate(queue, 1):
        for a in alphabet:
            q = target(p, a)
            if q is None:
                continue
            if class_of[q] not in number:
                number[class_of[q]] = len(number) + 1
                queue.append(q)
            transitions[(i, a)] = number[class_of[q]]
    return Automaton(
        alphabet,
        tuple(number.values()),
        initial=1,
        terminals=frozenset({1}),
        transitions=transitions,
    )


def g_x_f(X: BifixCode, F: FactorSet, base: str | None = None):
    """The permutation group of the code on its minimal images in F."""
    from .monoid import f_group

    A = minimal_automaton_of_star(X)
    return f_group(A, F, base=base)
