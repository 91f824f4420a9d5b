"""Pseudoword expressions evaluated in finite monoids, h-orders, separation.

Expressions are finite trees built from letters, concatenation, the
omega-power of a subexpression, and the omega-iterate of a substitution
applied to a letter.  They are evaluated through a morphism into a finite
monoid, where every such limit exists.
"""

from __future__ import annotations

import re
from functools import reduce
from typing import Hashable, NamedTuple

from .errors import (
    InputError,
    InternalInvariantError,
    NotACode,
    NothingToSeparate,
    NotPrimitive,
    ParseError,
)
from .monoid import DEFAULT_MONOID_BUDGET, FiniteMonoid, omega_index, orbit
from .returns import conjugate, right_return_words
from .words import FactorSet, Substitution, shortlex


# ------------------------------------------------------------ expressions


class Letter(NamedTuple):
    letter: str


class Concat(NamedTuple):
    left: PseudowordExpr
    right: PseudowordExpr


class OmegaPower(NamedTuple):
    body: PseudowordExpr


class SubstOmega:
    def __init__(self, subst: Substitution, letter: str) -> None:
        if letter not in subst.alphabet:
            raise InputError(f"{letter!r} is not a letter of {subst.serialize()!r}")
        self.subst, self.letter = subst, letter


PseudowordExpr = Letter | Concat | OmegaPower | SubstOmega


class MorphismToFinite(NamedTuple):
    target: FiniteMonoid
    images: dict[str, Hashable]

    def of_word(self, word: str):
        return self.target.product(self.images[a] for a in word)

    def check_letters(self, letters) -> None:
        """Refuse the letters among ``letters`` that have no image."""
        if missing := [a for a in letters if a not in self.images]:
            raise InputError(f"morphism has no image for {''.join(missing)!r}")


def _assignment_orbit(
    subst: Substitution, morphism: MorphismToFinite
) -> tuple[list[tuple], int, int]:
    """Iterates of the induced update on letter assignments.

    Returns (orbit, preperiod, period) where orbit[n][i] is the image of the
    n-th iterate of the i-th letter.
    """
    letters = subst.alphabet.letters
    morphism.check_letters(letters)
    M = morphism.target
    images = [[letters.index(b) for b in subst.images[a]] for a in letters]
    return orbit(
        tuple(morphism.images[a] for a in letters),
        lambda vector: tuple(M.product(vector[i] for i in image) for image in images),
    )


def evaluate(expr: PseudowordExpr, morphism: MorphismToFinite):
    """Value of the expression under the morphism."""
    M = morphism.target
    if isinstance(expr, Letter):
        morphism.check_letters(expr.letter)
        return morphism.images[expr.letter]
    if isinstance(expr, Concat):
        return M.mul(evaluate(expr.left, morphism), evaluate(expr.right, morphism))
    if isinstance(expr, OmegaPower):
        return M.omega_power(evaluate(expr.body, morphism))
    if isinstance(expr, SubstOmega):
        if not expr.subst.is_primitive():
            raise NotPrimitive("omega iterate requires a primitive substitution")
        iterates, start, period = _assignment_orbit(expr.subst, morphism)
        # factorials are eventually multiples of the period past the preperiod
        vector = iterates[omega_index(start, period)]
        return vector[expr.subst.alphabet.letters.index(expr.letter)]
    raise TypeError(f"not an expression: {expr!r}")


def expression_letters(expr: PseudowordExpr) -> set[str]:
    """The letters whose images ``evaluate`` reads."""
    if isinstance(expr, Letter):
        return {expr.letter}
    if isinstance(expr, Concat):
        return expression_letters(expr.left) | expression_letters(expr.right)
    if isinstance(expr, OmegaPower):
        return expression_letters(expr.body)
    return set(expr.subst.alphabet)


def h_order(
    subst: Substitution, morphism: MorphismToFinite
) -> int | tuple[None, int, int]:
    """Least n >= 1 with the n-th assignment iterate back at the start.

    If the orbit never returns, yields (None, preperiod, period) instead.
    """
    _, start, period = _assignment_orbit(subst, morphism)
    if start == 0:
        return period
    return None, start, period


# ------------------------------------------------------------ parsing


_TOKEN = re.compile(r"subst\^w\(([^)]*)(\)?)|\^w|\S")  # whitespace between tokens is skipped


def parse_expression(
    text: str, substitutions: dict[str, Substitution] | None = None
) -> PseudowordExpr:
    """Grammar: letters, juxtaposition, "^w" postfix, "subst^w(name, a)", parentheses.

    One left-to-right pass over the tokens keeps a list of juxtaposed factors
    for the whole text and one for each open "(": "^w" wraps the last factor,
    and ")" joins its list into a ``Concat`` chain, nested to the left, that
    ends the list below.  A refusal at a token names the token's position.
    """
    substitutions = substitutions or {}
    open_lists: list[list] = [[]]
    for m in _TOKEN.finditer(text):
        token, factors = m[0], open_lists[-1]
        if token == "^w" and factors:
            factors[-1] = OmegaPower(factors[-1])
        elif token == "(":
            open_lists.append([])
        elif token == ")" and factors:
            if len(open_lists) == 1:
                raise ParseError(f"trailing input {text[m.start():]!r}")
            open_lists.pop()
            open_lists[-1].append(reduce(Concat, factors))
        elif m[1] is not None:
            if not m[2]:
                raise ParseError("missing ')' in subst^w(...)")
            parts = [p.strip() for p in m[1].split(",")]
            if len(parts) != 2:
                raise ParseError(f"subst^w needs (name, letter), got {m[1]!r}")
            name, a = parts
            if name not in substitutions:
                raise ParseError(f"unknown substitution {name!r}")
            factors.append(SubstOmega(substitutions[name], a))
        elif token.isalpha() and token.islower():
            factors.append(Letter(token))
        else:
            raise ParseError(f"unexpected {token[0]!r} at position {m.start()}")
    if not open_lists[-1]:
        raise ParseError(f"unexpected '' at position {len(text)}")
    if len(open_lists) > 1:
        raise ParseError("missing ')'")
    return reduce(Concat, open_lists[0])


# ------------------------------------------------------------ codes


def is_code(words: set[str] | frozenset[str]) -> bool:
    """Sardinas-Patterson: X is a code iff no U_n holds the empty word, where
    U_1 = X^-1 X minus {''} and U_n+1 = X^-1 U_n | U_n^-1 X (Berstel, Perrin,
    Reutenauer, Codes and Automata, CUP 2010, ch. 2).  The U_n are sets of
    suffixes of X, so the sequence repeats within finitely many steps (``monoid.orbit``)."""
    X = frozenset(w for w in words if w)
    if len(X) != len(words):
        return False  # the empty word is never part of a code

    def quotient(P, Q) -> frozenset[str]:
        """P^-1 Q: the words s with p s in Q for some p in P."""
        return frozenset(q[len(p):] for p in P for q in Q if q.startswith(p))

    sequence = orbit(quotient(X, X) - {""}, lambda U: quotient(X, U) | quotient(U, X))[0]
    return not any("" in U for U in sequence)


# ------------------------------------------------------------ separation


def _matrix_mul(A, B, mul):
    n = len(A)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            term = None
            terms = [
                mul(A[i][k], B[k][j])
                for k in range(n)
                if A[i][k] is not None and B[k][j] is not None
            ]
            if terms:
                term = terms[0]
                for t in terms[1:]:
                    if t != term:
                        raise InternalInvariantError(
                            "ambiguous matrix entry: decoding not unambiguous"
                        )
            row.append(term)
        out.append(tuple(row))
    return tuple(out)


class SeparationReport(NamedTuple):
    prefixes: tuple[str, ...]
    alpha_u: tuple
    alpha_v: tuple
    separated: bool
    decode_checks: int
    matrix_monoid_size: int


def separation_witness(
    X: set[str],
    beta: dict[str, str],
    psi: MorphismToFinite,
    u: str,
    v: str,
) -> SeparationReport:
    """Matrix morphism realizing the decoder of X, separating u from v.

    States are the proper prefixes of X; the letter matrix records, for each
    prefix pair, the image under ``psi`` of whatever the decoder emits on
    that move (the identity while inside a code word).  The base entry of
    the matrix of an encoded word equals its image under ``psi``, so words
    with distinct images get distinct matrices.
    """
    import random

    X = frozenset(X)
    if not is_code(X):
        raise NotACode(f"{sorted(X)} is not a code")
    if set(beta.values()) != set(X) or len(beta) != len(X):
        raise InputError("beta must be a bijection onto the code")
    if stray := sorted(set(u + v) - beta.keys()):
        raise InputError(f"letter {stray[0]!r} of u or v has no image under beta")
    psi.check_letters(beta)
    M = psi.target
    if psi.of_word(u) == psi.of_word(v):
        raise NothingToSeparate("the two words have equal images already")

    decode = {x: y for y, x in beta.items()}
    prefixes = sorted({x[:i] for x in X for i in range(len(x))}, key=shortlex)
    index = {p: i for i, p in enumerate(prefixes)}
    n = len(prefixes)
    alphabet = sorted({c for x in X for c in x})

    letter_matrix = {}
    for a in alphabet:
        rows = []
        for p in prefixes:
            row = [None] * n
            q = p + a
            if q in index:
                row[index[q]] = M.identity
            if q in X:
                row[index[""]] = psi.images[decode[q]]
            rows.append(tuple(row))
        letter_matrix[a] = tuple(rows)

    ident = tuple(
        tuple(M.identity if i == j else None for j in range(n)) for i in range(n)
    )
    matrices = FiniteMonoid.from_generators(
        letter_matrix, lambda A, B: _matrix_mul(A, B, M.mul), ident, DEFAULT_MONOID_BUDGET
    )
    alpha = matrices.image_of_word

    def encode(word: str) -> str:
        return "".join(beta[y] for y in word)

    e = index[""]
    letters_b = sorted(beta)
    rng = random.Random(0)
    checks = 0
    for y in letters_b:
        if alpha(encode(y))[e][e] != psi.images[y]:
            raise InternalInvariantError(f"decoder identity fails on letter {y!r}")
        checks += 1
    for _ in range(100):
        w = "".join(rng.choice(letters_b) for _ in range(rng.randint(0, 8)))
        if alpha(encode(w))[e][e] != psi.of_word(w):
            raise InternalInvariantError(f"decoder identity fails on {w!r}")
        checks += 1

    au, av = alpha(encode(u)), alpha(encode(v))
    return SeparationReport(tuple(prefixes), au, av, au != av, checks, len(matrices))


# ------------------------------------------------------------ convenience


def connective_code(F: FactorSet, a: str, b: str) -> set[str]:
    """The conjugated return-word code: a-conjugates of returns to ba."""
    return set(conjugate(right_return_words(F, b + a).words, a))
