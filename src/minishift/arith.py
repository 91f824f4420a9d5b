"""Factorial number system residues and modular Fibonacci limits.

A residue modulo (k+1)! is stored as its factorial digits c_1..c_k with
0 <= c_i <= i, so that the value is sum(c_i * i!).
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InputError


class FactorialDigits:
    """Residue modulo (k+1)! in the factorial number system; equal digits make equal residues."""

    def __init__(self, digits: tuple[int, ...]) -> None:  # little-endian: digits[i-1] = c_i
        if not digits:
            raise InputError("need at least one digit")
        for i, c in enumerate(digits, start=1):
            if not 0 <= c <= i:
                raise InputError(f"digit c_{i}={c} out of range 0..{i}")
        self.digits = digits

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FactorialDigits) and self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)

    @property
    def precision(self) -> int:
        return len(self.digits)

    @property
    def modulus(self) -> int:
        return math.factorial(self.precision + 1)

    def to_int(self) -> int:
        return sum(c * math.factorial(i) for i, c in enumerate(self.digits, start=1))

    def __str__(self) -> str:
        body = " ".join(str(c) for c in reversed(self.digits))
        return f"({body})_!"


def to_factorial(x: int, k: int) -> FactorialDigits:
    """Residue of ``x`` modulo (k+1)! as factorial digits c_1..c_k.

    Floor ``%`` and ``//`` read the digits of that residue off x itself,
    since x = c_1 1! + ... + c_k k! + (k+1)! q, so (k+1)! is never built.
    """
    if k < 1:
        raise InputError("precision must be at least 1")
    digits = []
    for i in range(1, k + 1):
        digits.append(x % (i + 1))
        x //= i + 1
    return FactorialDigits(tuple(digits))


def add(x: FactorialDigits, y: FactorialDigits) -> FactorialDigits:
    """Digitwise sum with carries; digit i wraps at i+1."""
    if x.precision != y.precision:
        raise InputError("precision mismatch")
    digits = []
    carry = 0
    for i, (a, b) in enumerate(zip(x.digits, y.digits), start=1):
        s = a + b + carry
        digits.append(s % (i + 1))
        carry = s // (i + 1)
    return FactorialDigits(tuple(digits))


@lru_cache(maxsize=None)
def pisano_period(m: int) -> int:
    """Period of the Fibonacci sequence modulo m."""
    if m < 2:
        raise InputError(f"modulus must be at least 2, got {m}")
    a, b = 0, 1
    for n in range(1, 6 * m * m + 1):
        a, b = b, (a + b) % m
        if (a, b) == (0, 1):
            return n
    raise RuntimeError(f"pisano period not found for modulus {m}")


def _fib_pair(n: int, m: int) -> tuple[int, int]:
    # fast doubling: returns (F_n mod m, F_{n+1} mod m)
    if n == 0:
        return 0, 1 % m
    a, b = _fib_pair(n >> 1, m)
    c = (a * ((2 * b - a) % m)) % m
    d = (a * a + b * b) % m
    if n & 1:
        return d, (c + d) % m
    return c, d


def fib_mod(n: int | FactorialDigits, m: int) -> int:
    """F_n modulo m, with the index reduced by the Pisano period.

    Negative indices use F_{-n} = (-1)^(n-1) F_n.  A FactorialDigits index
    stands for its residue class; the result is well defined whenever the
    Pisano period divides the digits' modulus.
    """
    period = pisano_period(m)  # refuses m < 2
    if isinstance(n, FactorialDigits):
        if n.modulus % period != 0:
            raise InputError(
                f"digit precision too low: modulus {n.modulus} does not "
                f"determine the index modulo the Pisano period {period}"
            )
        n = n.to_int()
    if n < 0:
        sign = 1 if (-n) % 2 == 1 else -1
        return (sign * fib_mod(-n, m)) % m
    return _fib_pair(n % period, m)[0]


def fib_factorial_limit(m: int, offset: int = 0, start: int = 1, end: int = 30) -> list[int]:
    """The sequence F_{n!+offset} mod m for n in [start, end]."""
    return [fib_mod(math.factorial(n) + offset, m) for n in range(start, end + 1)]
