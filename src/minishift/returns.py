"""Right and left return words, the Gamma submonoid, and limit truncations."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .errors import InsufficientHorizon, InternalInvariantError
from .words import FactorSet, Substitution, shortlex


@dataclass(frozen=True)
class ReturnSet:
    """Return words to a base factor, right or left variant."""

    base: str
    side: str  # "right" or "left"
    words: frozenset[str]

    def sorted_words(self) -> list[str]:
        return sorted(self.words, key=shortlex)

    def to_json(self) -> str:
        return json.dumps(
            {"base": self.base, "side": self.side, "words": self.sorted_words()},
            sort_keys=True,
        )


def right_return_words(F: FactorSet, x: str) -> ReturnSet:
    """Complete set of right return words to ``x``.

    A return word w satisfies: xw is a factor ending with x whose only
    occurrences of x are the prefix and the suffix.  Any such xw has length
    at most witness(x) + 1, which bounds the search and certifies
    completeness: every factor of length witness(x) contains x.

    The search walks right extensions from x in the (factorial) set: an
    extension y that ends with x is a complete first return and yields
    y[len(x):]; any other is extended again.  So it visits only the
    prefixes of complete first returns, and no branch can pass length
    witness(x) + 1 while the certificate holds.
    """
    if x not in F:
        raise ValueError(f"{x!r} is not a factor")
    n = F.uniform_recurrence_witness(x)
    if n + 1 > F.horizon:
        raise InsufficientHorizon(
            f"return words to {x!r} may have complete-return length {n + 1}, "
            f"beyond horizon {F.horizon}"
        )
    factors, letters = F.factors, tuple(F.alphabet)
    out = set()
    branches = [x]
    while branches:
        z = branches.pop()
        if len(z) > n:
            raise InternalInvariantError(
                f"{z!r} has no second occurrence of {x!r} within witness {n}"
            )
        for a in letters:
            y = z + a
            if y in factors:
                if y.endswith(x):
                    out.add(y[len(x):])
                else:
                    branches.append(y)
    return ReturnSet(x, "right", frozenset(out))


def conjugate(words: Iterable[str], c: str) -> frozenset[str]:
    """The conjugates c w c^{-1}; each c + w must end with ``c``."""
    out = set()
    for w in words:
        z = c + w
        if not z.endswith(c):
            raise InternalInvariantError(f"{z!r} does not end with {c!r}")
        out.add(z[: len(z) - len(c)])
    return frozenset(out)


def left_return_words(F: FactorSet, x: str) -> ReturnSet:
    """Left return words: the right set conjugated, x w x^{-1}."""
    return ReturnSet(x, "left", conjugate(right_return_words(F, x).words, x))


def gamma(F: FactorSet, x: str, maxlen: int) -> set[str]:
    """Words w of length <= maxlen with xw a factor ending with x."""
    if x not in F:
        raise ValueError(f"{x!r} is not a factor")
    if len(x) + maxlen > F.horizon:
        raise InsufficientHorizon(
            f"gamma({x!r}, {maxlen}) needs horizon {len(x) + maxlen}"
        )
    out = set()
    for length in range(len(x), len(x) + maxlen + 1):
        for z in F.words_of_length(length):
            if z.startswith(x) and z.endswith(x):
                out.add(z[len(x):])
    return out


def _star_up_to(words: frozenset[str], maxlen: int) -> set[str]:
    """All concatenations of ``words`` of length <= maxlen."""
    out = {""}
    frontier = {""}
    while frontier:
        nxt = set()
        for u in frontier:
            for w in words:
                v = u + w
                if len(v) <= maxlen and v not in out:
                    out.add(v)
                    nxt.add(v)
        frontier = nxt
    return out


def check_gamma_identity(F: FactorSet, x: str, maxlen: int) -> bool:
    """Gamma equals (return words)* intersected with left-quotient factors."""
    left_side = gamma(F, x, maxlen)
    returns = right_return_words(F, x).words
    star = _star_up_to(returns, maxlen)
    right_side = {
        w for w in star if len(x + w) <= F.horizon and (x + w) in F
    }
    return left_side == right_side


def _decomposes(word: str, parts: frozenset[str]) -> bool:
    ok = [False] * (len(word) + 1)
    ok[0] = True
    for i in range(1, len(word) + 1):
        for p in parts:
            if p and i >= len(p) and ok[i - len(p)] and word.endswith(p, 0, i):
                ok[i] = True
                break
    return ok[len(word)]


@dataclass(frozen=True)
class TruncationStage:
    left_part: str
    right_part: str
    words: frozenset[str]


@dataclass(frozen=True)
class LimitReturnTruncation:
    stages: tuple[TruncationStage, ...]

    def to_json(self) -> str:
        return json.dumps(
            [
                {
                    "left": s.left_part,
                    "right": s.right_part,
                    "words": sorted(s.words, key=shortlex),
                }
                for s in self.stages
            ],
            sort_keys=True,
        )


def limit_return_truncation(
    F: FactorSet,
    seeds: list[tuple[str, str]],
    depth: int,
) -> LimitReturnTruncation:
    """Stages R_n = r_n * R_F(l_n r_n) * r_n^{-1} with nesting verified.

    ``seeds`` lists the (l_n, r_n) pairs; each l_n r_n must be a factor.
    Each stage must decompose into products of the previous stage's words.
    """
    if depth > len(seeds):
        raise ValueError("not enough seeds for requested depth")
    stages: list[TruncationStage] = []
    for l_part, r_part in seeds[:depth]:
        returns = right_return_words(F, l_part + r_part).words
        stage = TruncationStage(l_part, r_part, conjugate(returns, r_part))
        if stages:
            prev = stages[-1].words
            for w in stage.words:
                if not _decomposes(w, prev):
                    raise InternalInvariantError(
                        f"stage word {w!r} not a product of previous stage"
                    )
        stages.append(stage)
    return LimitReturnTruncation(tuple(stages))


def substitution_seeds(
    subst: Substitution, letter: str, depth: int
) -> list[tuple[str, str]]:
    """Default seeds (sigma^(2n)(a), sigma^(2n)(a)) for n = 1..depth."""
    return [
        (subst.iterate(letter, 2 * n), subst.iterate(letter, 2 * n))
        for n in range(1, depth + 1)
    ]
