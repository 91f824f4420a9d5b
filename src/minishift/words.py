"""Alphabets, words, substitutions and certified truncated factor sets.

Words are plain Python strings whose characters all belong to an ordered
alphabet.  A :class:`FactorSet` holds every factor of a subshift up to a
horizon ``L`` together with a completeness certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, compress, groupby, repeat
from operator import itemgetter, ne, or_
from typing import Callable, Iterable, Iterator

from .errors import (
    BudgetExceeded,
    InputError,
    InsufficientHorizon,
    InternalInvariantError,
    NotPrimitive,
    ParseError,
)

DEFAULT_MAX_PREFIX = 10**6


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of single-character letters."""

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.letters:
            raise InputError("alphabet must be nonempty")
        if len(set(self.letters)) != len(self.letters):
            raise InputError("alphabet has duplicate letters")
        for c in self.letters:
            if len(c) != 1:
                raise InputError(f"letters must be single characters, got {c!r}")

    @classmethod
    def of(cls, letters: Iterable[str]) -> "Alphabet":
        return cls(tuple(letters))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.letters)}

    def __contains__(self, letter: str) -> bool:
        return letter in self._index

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    @cached_property
    def _rank(self) -> dict[int, str]:
        return {ord(c): chr(i) for c, i in self._index.items()}

    def key(self, word: str) -> tuple[int, str]:
        """Shortlex sort key: length, then letters by their alphabet position."""
        return (len(word), word.translate(self._rank))

    def check_word(self, word: str) -> str:
        for c in word:
            if c not in self._index:
                raise InputError(f"letter {c!r} not in alphabet {self.letters}")
        return word


def shortlex(word: str) -> tuple[int, str]:
    """Shortlex sort key in code-point order; ``Alphabet.key`` orders by letter position."""
    return (len(word), word)


def _level_key(alphabet: Alphabet) -> Callable[[str], tuple[int, str]] | None:
    """Sort key within one length: ``Alphabet.key`` only renames letters there, so
    letters in code-point order (every library constructor sorts them) need no key."""
    return None if list(alphabet) == sorted(alphabet) else alphabet.key


def factors_of(word: str, maxlen: int) -> set[str]:
    """All factors of ``word`` of length at most ``maxlen`` (including '')."""
    out = {""}
    n = len(word)
    for i in range(n):
        top = min(maxlen, n - i)
        for j in range(1, top + 1):
            out.add(word[i : i + j])
    return out


def occurrences(pattern: str, text: str) -> int:
    """Number of (possibly overlapping) occurrences of ``pattern``."""
    if not pattern:
        return len(text) + 1
    count = 0
    start = 0
    while True:
        pos = text.find(pattern, start)
        if pos < 0:
            return count
        count += 1
        start = pos + 1


def star_factorization(w: str, start: int, X: frozenset[str]) -> dict[int, tuple[str, ...]]:
    """One X-factorization of w[start:j] per reachable endpoint j (X a code)."""
    out: dict[int, tuple[str, ...]] = {start: ()}
    for i in range(start, len(w) + 1):
        if i not in out:
            continue
        for x in X:
            j = i + len(x)
            if j <= len(w) and w.startswith(x, i) and j not in out:
                out[j] = out[i] + (x,)
    return out


@dataclass(frozen=True)
class Substitution:
    """A letter-to-word morphism with nonempty images."""

    alphabet: Alphabet
    images: dict[str, str]

    def __post_init__(self) -> None:
        for a in self.alphabet:
            img = self.images.get(a)
            if not img:
                raise InputError(f"image of {a!r} missing or empty")
            self.alphabet.check_word(img)
        extra = set(self.images) - set(self.alphabet.letters)
        if extra:
            raise InputError(f"images given for unknown letters {sorted(extra)}")

    @classmethod
    def parse(cls, text: str) -> "Substitution":
        """Parse the ``"a->ab;b->a"`` serialization."""
        images: dict[str, str] = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            if "->" not in part:
                raise ParseError(f"missing '->' in {part!r}")
            left, _, right = part.partition("->")
            left, right = left.strip(), right.strip()
            if len(left) != 1 or not right:
                raise ParseError(f"bad rule {part!r}")
            if left in images:
                raise ParseError(f"duplicate rule for {left!r}")
            images[left] = right
        if not images:
            raise ParseError("no rules given")
        try:
            return cls(Alphabet.of(sorted(images)), images)
        except InputError as exc:
            raise ParseError(str(exc)) from None

    def serialize(self) -> str:
        return ";".join(f"{a}->{self.images[a]}" for a in self.alphabet)

    def apply(self, word: str) -> str:
        """Homomorphic extension: concatenation of letter images."""
        return "".join(self.images[self.alphabet.check_word(c)] for c in word)

    def iterate(self, letter: str, k: int) -> str:
        """The word obtained by applying the substitution ``k`` times to a letter."""
        if k < 0:
            raise InputError("iteration count must be nonnegative")
        w = self.alphabet.check_word(letter)
        for _ in range(k):
            w = self.apply(w)
            if len(w) > DEFAULT_MAX_PREFIX:
                raise BudgetExceeded(f"iterate longer than budget {DEFAULT_MAX_PREFIX}")
        return w

    def is_primitive(self) -> bool:
        """True iff some power of the incidence matrix is entrywise positive.

        Row i marks the letters whose image holds letter i, a product row ORs the rows its
        bits pick, and the power (|A|-1)^2 + 1 suffices (Wielandt's bound).
        """
        letters, images = self.alphabet.letters, self.images
        k = len(letters)
        acc = rows = [sum(1 << j for j, b in enumerate(letters) if a in images[b]) for a in letters]
        for _ in range((k - 1) ** 2):
            acc = [reduce(or_, (rows[t] for t in range(k) if r >> t & 1), 0) for r in acc]
        return all(r == (1 << k) - 1 for r in acc)


class FactorSet:
    """All factors of a subshift up to a horizon, with provenance.

    ``complete`` asserts that ``factors`` equals the set of all factors of
    the underlying subshift of length <= ``horizon``.  Its members are kept
    in one shortlex-sorted tuple per length: a builder's prefix levels, or
    the given ``factors`` bucketed and sorted.  A builder keeps only its
    levels, and ``factors`` is built from them when first read.  A negative
    horizon, and a given member with a letter outside the alphabet or longer
    than the horizon, raise ``InputError``; builders give no members, so no
    build pays for that check.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        horizon: int,
        factors: Iterable[str],
        complete: bool,
        source: str,
    ) -> None:
        if horizon < 0:
            raise InputError(f"horizon must be nonnegative, got {horizon}")
        self.alphabet = alphabet
        self.horizon = horizon
        if factors := frozenset(factors):  # else left to be read off the levels a builder sets
            alphabet.check_word("".join(factors))
            if len(longest := max(factors, key=len)) > horizon:
                raise InputError(f"member {longest!r} is longer than horizon {horizon}")
            self.factors = factors
        self.complete = complete
        self.source = source
        key = _level_key(alphabet)
        by_length = groupby(sorted(factors, key=len), len)
        self._levels = {n: tuple(sorted(ws, key=key)) for n, ws in by_length}
        self._returns: dict[str, frozenset[str] | None] = {}

    @classmethod
    def _of_windows(cls, alphabet: Alphabet, horizon: int, windows: set[str], source: str):
        """Certified set of an infinite word whose factors of length L are ``windows``: each
        shorter factor extends to the right, so level n is the prefixes of level n + 1.  The
        windows are sorted once: prefixes of a sorted level are sorted, each repeat next to
        its first, so a prefix is kept where it differs from the one before."""
        levels, level = {0: ("",)}, tuple(sorted(windows, key=_level_key(alphabet)))
        for n in range(horizon, 0, -1):
            levels[n] = level
            prefixes = list(map(itemgetter(slice(None, -1)), level))
            level = tuple(compress(prefixes, map(ne, prefixes, [None, *prefixes])))
        F = cls(alphabet, horizon, (), True, source)
        F._levels = dict(sorted(levels.items()))
        return F

    @cached_property
    def factors(self) -> frozenset[str]:
        return frozenset(chain.from_iterable(self._levels.values()))

    def __contains__(self, word: str) -> bool:
        return word in self.factors

    def __len__(self) -> int:
        return sum(map(len, self._levels.values()))

    def words_of_length(self, n: int) -> tuple[str, ...]:
        """Members of length ``n`` in shortlex order."""
        return self._levels.get(n, ())

    def sorted_words(self) -> list[str]:
        return list(chain.from_iterable(self._levels.values()))

    def certify(self, needed: int = 0, refusal: str = "", word: str | None = None) -> None:
        """The gate of every query: refuse unless ``word`` is over the alphabet, the set is
        certified complete, reaches horizon ``needed`` (else ``refusal``) and holds ``word``;
        a word longer than the horizon is refused as a horizon, not as a non-factor."""
        if stray := word is not None and word not in self.factors:
            self.alphabet.check_word(word)
        if not self.complete:
            raise InsufficientHorizon("factor set is not certified complete")
        if needed > self.horizon:
            raise InsufficientHorizon(refusal)
        if stray:
            if len(word) > self.horizon:
                raise InsufficientHorizon(f"{word!r} is longer than horizon {self.horizon}")
            raise InputError(f"{word!r} is not a factor")

    def complexity(self, n: int) -> int:
        """Number of factors of length exactly ``n``."""
        if n < 0:
            raise InputError(f"complexity({n}) of a negative length")
        self.certify(n, f"complexity({n}) beyond horizon {self.horizon}")
        return len(self.words_of_length(n))

    def first_returns(self, x: str) -> frozenset[str] | None:
        """First returns to ``x``: the w with x only as prefix and suffix of the factor xw.

        Every prefix of a first return is a factor, so extending x by letters
        until a branch ends with x finds them all, unless a branch reaches the
        horizon L holding x only at its start: then the walk gives None.  A
        shorter branch with no right extension cannot occur in a certified set
        and raises.  The witness of x is max |xw| - 1: xw without its end
        letters holds no x, and any longer window holds a whole first return
        (Durand, "A characterization of substitutive sequences using return
        words", Discrete Math. 179, 1998).

        The result, the set or None, is stored keyed by x, so each x is walked
        once and the store is bounded by |F|.  Errors are not stored: a
        non-factor, an uncertified set or a dead end raises on every call.
        """
        self.certify(word=x)
        if x not in self._returns:
            self._returns[x] = self._walk(x)
        return self._returns[x]

    def _walk(self, x: str) -> frozenset[str] | None:
        factors, letters = self.factors, self.alphabet.letters
        out = set()
        branches = [x]
        while branches:
            z = branches.pop()
            if len(z) >= self.horizon:
                return None
            extensions = [y for a in letters if (y := z + a) in factors]
            if not extensions:
                raise InternalInvariantError(
                    f"{z!r} has no right extension below horizon {self.horizon}"
                )
            for y in extensions:
                if y.endswith(x):
                    out.add(y[len(x):])
                else:
                    branches.append(y)
        return frozenset(out)

    def uniform_recurrence_witness(self, x: str) -> int:
        """Least n such that ``x`` occurs in every factor of length n.

        Read off ``first_returns``; past a cut walk, L if every length-L factor holds x.
        """
        returns = self.first_returns(x)
        if returns is not None:
            return len(x) + max(map(len, returns)) - 1
        if all(x in w for w in self.words_of_length(self.horizon)):
            return self.horizon
        raise InsufficientHorizon(
            f"no uniform recurrence witness for {x!r} within horizon {self.horizon}"
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def from_directive(
        cls,
        alphabet: Alphabet,
        morphisms: Iterable[Substitution],
        tail_pairs: Callable[[int], set[str]],
        horizon: int,
        source: str,
    ) -> "FactorSet":
        """Certified factor set of the S-adic word s = tau_0 tau_1 ... tau_{k-1}(s_k).

        Certificate: once every image of tau_[0,k) = tau_0 ... tau_{k-1} has
        length >= L, the factors of s of length <= L are those of
        tau_[0,k)(cd) for cd in L2(s_k), the length-2 factors of the tail
        (Fogg, Substitutions in Dynamics, Arithmetics and Combinatorics,
        LNM 1794, ch. 1; Droubay, Justin, Pirillo, TCS 255, 2001).
        ``tail_pairs(k)`` gives L2(s_k) for the depth k reached, and raises
        ``InsufficientHorizon`` past the end of a finite directive; horizon 0
        does not ask it.  A one-letter shift is the constant word.
        """
        if horizon < 0:
            raise InputError(f"horizon must be nonnegative, got {horizon}")
        if len(alphabet) == 1:
            return cls.from_periodic(alphabet.letters[0], horizon)
        power, k = {c: c for c in alphabet}, 0
        for tau in morphisms:
            if min(map(len, power.values())) >= horizon:
                break
            power = {c: "".join(power[d] for d in tau.images[c]) for c in power}
            k += 1
            if max(map(len, power.values())) > DEFAULT_MAX_PREFIX:
                raise BudgetExceeded("fixed-point prefix budget exceeded")

        pairs = sorted(tail_pairs(k), key=alphabet.key) if horizon else []
        words = [power[ab[0]] + power[ab[1]] for ab in pairs]
        windows = {w[i : i + horizon] for w in words for i in range(len(w) - horizon + 1)}
        source = f"{source}: factors of tau_[0,{k})(ab) for ab in L2 = {{{','.join(pairs)}}}"
        return cls._of_windows(alphabet, horizon, windows, source)

    @classmethod
    def from_substitution(
        cls,
        subst: Substitution,
        letter: str,
        horizon: int,
    ) -> "FactorSet":
        """Certified factor set of the fixed point of a primitive substitution.

        The directive sigma, sigma, ... of ``from_directive``, whose tail has
        the length-2 factors L2 of the shift: the least set holding the
        2-letter factors of every sigma(c) and of sigma(ab) for each member
        ab (Queffélec, Substitution Dynamical Systems, LNM 1294).  The start
        word is checked and recorded in ``source`` but not read: a start
        that is not a factor would add non-factors.
        """
        if not subst.is_primitive():
            raise NotPrimitive(f"{subst.serialize()} is not primitive")
        if not letter:
            raise InputError("start word must be nonempty")
        subst.alphabet.check_word(letter)
        images = subst.images

        pairs: set[str] = set()
        todo = list(images.values())
        while todo:
            w = todo.pop()
            for ab in {w[i : i + 2] for i in range(len(w) - 1)} - pairs:
                pairs.add(ab)
                todo.append(images[ab[0]] + images[ab[1]])
        source = f"substitution {subst.serialize()} from {letter}"
        return cls.from_directive(subst.alphabet, repeat(subst), lambda k: pairs, horizon, source)

    @classmethod
    def from_periodic(cls, word: str, horizon: int) -> "FactorSet":
        """Factors of the periodic word ``word^infinity``."""
        if not word:
            raise InputError("periodic word must be nonempty")
        if horizon < 0:
            raise InputError(f"horizon must be nonnegative, got {horizon}")
        text = word * (horizon // len(word) + 2)
        windows = {text[i : i + horizon] for i in range(len(word))}
        return cls._of_windows(Alphabet.of(sorted(set(word))), horizon, windows, f"periodic {word}")

    @classmethod
    def from_words(cls, alphabet: Alphabet, words: Iterable[str], horizon: int) -> "FactorSet":
        """Factorial closure of an explicit word list, truncated at the horizon; never certified."""
        factors: set[str] = set()
        for w in words:
            alphabet.check_word(w)
            factors |= factors_of(w, horizon)
        return cls(alphabet, horizon, factors, complete=False, source="explicit list")
