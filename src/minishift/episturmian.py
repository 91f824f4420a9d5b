"""Palindromic closure, directive words and episturmian return-word recipes."""

from __future__ import annotations

from typing import Iterator

from .errors import BudgetExceeded, InputError, InsufficientHorizon, InternalInvariantError
from .words import Alphabet, FactorSet, Substitution, occurrences

DEFAULT_PAL_BUDGET = 10**6


def is_palindrome(w: str) -> bool:
    return w == w[::-1]


def palindromic_closure(w: str) -> str:
    """Shortest palindrome having ``w`` as a prefix.

    If w = vq with q the longest palindromic suffix of w, the closure is
    v q reversed(v).
    """
    n = len(w)
    for i in range(n):
        if is_palindrome(w[i:]):
            return w + w[:i][::-1]
    return w  # n == 0


def palindromic_prefixes(u: str) -> Iterator[str]:
    """Pal(u[:1]), Pal(u[:2]), ...: Pal(ua) = (Pal(u)a)^(+), refused past the budget."""
    out = ""
    for a in u:
        out = palindromic_closure(out + a)
        if len(out) > DEFAULT_PAL_BUDGET:
            raise BudgetExceeded(f"palindromic prefix longer than {DEFAULT_PAL_BUDGET}")
        yield out


def pal(u: str) -> str:
    """Iterated palindromic closure, Pal('') = ''."""
    out = ""
    for out in palindromic_prefixes(u):
        pass
    return out


def elementary_morphism(a: str, alphabet: Alphabet) -> Substitution:
    """The morphism sending a to a and every other letter b to ab."""
    images = {b: (a if b == a else a + b) for b in alphabet}
    return Substitution(alphabet, images)


def psi(u: str, alphabet: Alphabet) -> Substitution:
    """Composition of elementary morphisms along ``u`` (left factor outermost): composing
    on the right with psi_a keeps the image of a and puts it in front of every other image."""
    images = {b: b for b in alphabet}
    for a in alphabet.check_word(u):
        images = {b: image if b == a else images[a] + image for b, image in images.items()}
    return Substitution(alphabet, images)


def justin_check(u: str, v: str, alphabet: Alphabet | None = None) -> bool:
    """Pal(uv) == psi_u(Pal(v)) + Pal(u); holds for all u, v."""
    if alphabet is None:
        alphabet = Alphabet.of(sorted(set(u + v)) or ["a"])
    return pal(u + v) == psi(u, alphabet).apply(pal(v)) + pal(u)


def episturmian_factor_set(directive: str, horizon: int) -> FactorSet:
    """Certified factor set of the standard word directed by ``directive``.

    The directive of elementary morphisms psi_x for x in ``directive``
    (``FactorSet.from_directive``).  The tail s_k is psi_x(s_{k+1}) with
    x = directive[k], so its length-2 factors are xc and cx for every letter
    c of s_{k+1}; the finite directive fixes those letters only when every
    letter occurs in directive[k+1:].
    """
    alphabet = Alphabet.of(sorted(set(directive)))

    def tail_pairs(k: int) -> set[str]:
        missing = set(alphabet) - set(directive[k + 1 :])
        if missing:
            raise InsufficientHorizon(
                f"horizon {horizon} needs depth {k} of directive {directive!r}, whose "
                f"tail {directive[k + 1 :]!r} lacks the letters {''.join(sorted(missing))!r}"
            )
        x = directive[k]
        return {x + c for c in alphabet} | {c + x for c in alphabet}

    morphisms = (elementary_morphism(x, alphabet) for x in directive)
    source = f"episturmian directive {directive}"
    return FactorSet.from_directive(alphabet, morphisms, tail_pairs, horizon, source)


def episturmian_left_returns(directive: str, u: str) -> set[str]:
    """Left return words to the factor ``u`` of the directed word.

    Recipe: take the minimal n with u a factor of the n-th palindromic
    prefix u_n, the unique z with z+u a prefix of u_n, and conjugate the
    images psi(directive[:n])(a) by z.  The letters a are those of the tail
    word directed by directive[n:], so every letter must occur there.
    """
    if not u:
        raise InputError("factor must be nonempty")
    alphabet = Alphabet.of(sorted(set(directive)))
    alphabet.check_word(u)

    for n, prefix in enumerate(palindromic_prefixes(directive), start=1):
        if u in prefix:
            break
    else:
        raise InsufficientHorizon(
            f"{u!r} not a factor of the prefix directed by {directive!r}"
        )
    missing = set(alphabet) - set(directive[n:])
    if missing:
        raise InsufficientHorizon(
            f"{u!r} needs depth {n} of directive {directive!r}, whose tail "
            f"{directive[n:]!r} lacks the letters {''.join(sorted(missing))!r}"
        )
    count = occurrences(u, prefix)
    if count != 1:
        raise InternalInvariantError(
            f"{u!r} occurs {count} times in the minimal tower stage, expected once"
        )
    z = prefix[: prefix.index(u)]

    morphism = psi(directive[:n], alphabet)
    out = set()
    for a in alphabet:
        y = morphism.apply(a)
        yz = y + z
        if not yz.startswith(z):
            raise InternalInvariantError(
                f"conjugation failed: {y!r} does not commute past {z!r}"
            )
        out.add(yz[len(z) :])
    return out
