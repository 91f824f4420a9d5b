"""Finite, checkable computations on substitution shifts and their codes.

Submodules: words (alphabets, substitutions, factor sets), arith (factorial
digits, modular Fibonacci), episturmian (palindromic closure machinery),
extension (extension graphs), returns (return words), freegroup (Stallings
graphs), monoid (transition monoids, Green's relations, permutation groups),
bifix (bifix codes, group codes), shadow (pseudoword evaluation, h-orders,
separation witnesses), cli (command-line interface).
"""

from .errors import (
    BudgetExceeded,
    InputError,
    InsufficientHorizon,
    InternalInvariantError,
    MinishiftError,
    NotACode,
    NothingToSeparate,
    NotPrimitive,
    NotSeparable,
    ParseError,
)
from .words import Alphabet, FactorSet, Substitution

__all__ = [
    "Alphabet",
    "FactorSet",
    "Substitution",
    "MinishiftError",
    "ParseError",
    "InputError",
    "BudgetExceeded",
    "NotPrimitive",
    "InsufficientHorizon",
    "NotSeparable",
    "NotACode",
    "NothingToSeparate",
    "InternalInvariantError",
]

__version__ = "0.1.0"
