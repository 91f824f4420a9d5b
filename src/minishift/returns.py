"""Right and left return words, the Gamma submonoid, and limit truncations."""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import InputError, InsufficientHorizon, InternalInvariantError
from .words import FactorSet, shortlex, star_factorization


class ReturnSet(NamedTuple):
    """Return words to a base factor, right or left variant."""

    base: str
    side: str  # "right" or "left"
    words: frozenset[str]

    def sorted_words(self) -> list[str]:
        return sorted(self.words, key=shortlex)


def right_return_words(F: FactorSet, x: str) -> ReturnSet:
    """Complete set of right return words to ``x``, by ``FactorSet.first_returns``."""
    words = F.first_returns(x)
    if words is None:
        n = F.uniform_recurrence_witness(x)
        raise InsufficientHorizon(
            f"return words to {x!r} may have complete-return length {n + 1}, "
            f"beyond horizon {F.horizon}"
        )
    return ReturnSet(x, "right", words)


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
    if maxlen < 0:
        raise InputError(f"gamma({x!r}, {maxlen}) of a negative length")
    needed = len(x) + maxlen
    F.certify(needed, f"gamma({x!r}, {maxlen}) needs horizon {needed}", x)
    out = set()
    for length in range(len(x), len(x) + maxlen + 1):
        for z in F.words_of_length(length):
            if z.startswith(x) and z.endswith(x):
                out.add(z[len(x):])
    return out


def check_gamma_identity(F: FactorSet, x: str, maxlen: int) -> bool:
    """Gamma equals (return words)* intersected with left-quotient factors.

    That intersection lies in Gamma, since x r ends with x for each return
    word r, so the identity holds iff every word of Gamma factors over them.
    """
    words = gamma(F, x, maxlen)
    returns = right_return_words(F, x).words
    return all(len(w) in star_factorization(w, 0, returns) for w in words)


class TruncationStage(NamedTuple):
    left_part: str
    right_part: str
    words: frozenset[str]


def limit_return_truncation(
    F: FactorSet,
    seeds: list[tuple[str, str]],
    depth: int,
) -> tuple[TruncationStage, ...]:
    """Stages R_n = r_n * R_F(l_n r_n) * r_n^{-1} with nesting verified.

    ``seeds`` lists the (l_n, r_n) pairs; each l_n r_n must be a factor.
    Each stage must decompose into products of the previous stage's words.
    """
    if depth < 0:
        raise InputError(f"truncation depth must be nonnegative, got {depth}")
    if depth > len(seeds):
        raise InputError("not enough seeds for requested depth")
    stages: list[TruncationStage] = []
    for l_part, r_part in seeds[:depth]:
        returns = right_return_words(F, l_part + r_part).words
        stage = TruncationStage(l_part, r_part, conjugate(returns, r_part))
        if stages:
            prev = stages[-1].words
            for w in stage.words:
                if len(w) not in star_factorization(w, 0, prev):
                    raise InternalInvariantError(
                        f"stage word {w!r} not a product of previous stage"
                    )
        stages.append(stage)
    return tuple(stages)
