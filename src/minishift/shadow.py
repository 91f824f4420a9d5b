"""Pseudoword expressions evaluated in finite monoids, h-orders, separation.

Expressions are finite trees built from letters, concatenation, the
omega-power of a subexpression, and the omega-iterate of a substitution
applied to a letter.  They are evaluated through a morphism into a finite
monoid, where every such limit exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

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


class PseudowordExpr:
    pass


@dataclass(frozen=True)
class Letter(PseudowordExpr):
    letter: str


@dataclass(frozen=True)
class Concat(PseudowordExpr):
    left: PseudowordExpr
    right: PseudowordExpr


@dataclass(frozen=True)
class OmegaPower(PseudowordExpr):
    body: PseudowordExpr


@dataclass(frozen=True)
class SubstOmega(PseudowordExpr):
    subst: Substitution
    letter: str


@dataclass(frozen=True)
class MorphismToFinite:
    target: FiniteMonoid
    images: dict[str, Hashable]

    def of_word(self, word: str):
        return self.target.product(self.images[a] for a in word)


def _assignment_orbit(
    subst: Substitution, morphism: MorphismToFinite
) -> tuple[list[tuple], int, int]:
    """Iterates of the induced update on letter assignments.

    Returns (orbit, preperiod, period) where orbit[n][i] is the image of the
    n-th iterate of the i-th letter.
    """
    letters = subst.alphabet.letters
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


def parse_expression(
    text: str, substitutions: dict[str, Substitution] | None = None
) -> PseudowordExpr:
    """Grammar: letters, juxtaposition, "^w" postfix, "subst^w(name, a)"."""
    substitutions = substitutions or {}
    pos = 0

    def peek() -> str:
        return text[pos] if pos < len(text) else ""

    def skip_ws() -> None:
        nonlocal pos
        while pos < len(text) and text[pos].isspace():
            pos += 1

    def parse_atom() -> PseudowordExpr:
        nonlocal pos
        skip_ws()
        if text.startswith("subst^w(", pos):
            pos += len("subst^w(")
            close = text.find(")", pos)
            if close < 0:
                raise ParseError("missing ')' in subst^w(...)")
            inner = text[pos:close]
            pos = close + 1
            parts = [p.strip() for p in inner.split(",")]
            if len(parts) != 2:
                raise ParseError(f"subst^w needs (name, letter), got {inner!r}")
            name, a = parts
            if name not in substitutions:
                raise ParseError(f"unknown substitution {name!r}")
            if a not in substitutions[name].alphabet:
                raise ParseError(f"{a!r} is not a letter of {name!r}")
            return SubstOmega(substitutions[name], a)
        if peek() == "(":
            pos += 1
            node = parse_concat()
            skip_ws()
            if peek() != ")":
                raise ParseError("missing ')'")
            pos += 1
            return node
        c = peek()
        if c.isalpha() and c.islower():
            pos += 1
            return Letter(c)
        raise ParseError(f"unexpected {c!r} at position {pos}")

    def parse_postfix() -> PseudowordExpr:
        nonlocal pos
        node = parse_atom()
        skip_ws()
        while text.startswith("^w", pos):
            pos += 2
            node = OmegaPower(node)
            skip_ws()
        return node

    def parse_concat() -> PseudowordExpr:
        nonlocal pos
        node = parse_postfix()
        skip_ws()
        while pos < len(text) and peek() not in ")":
            right = parse_postfix()
            node = Concat(node, right)
            skip_ws()
        return node

    node = parse_concat()
    skip_ws()
    if pos != len(text):
        raise ParseError(f"trailing input {text[pos:]!r}")
    return node


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


@dataclass(frozen=True)
class SeparationReport:
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
                entry = psi.images[decode[q]]
                if row[index[""]] is not None and row[index[""]] != entry:
                    raise InternalInvariantError("conflicting decoder moves")
                row[index[""]] = entry
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
