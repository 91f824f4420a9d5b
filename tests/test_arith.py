"""Factorial digits, p-adic valuations and modular Fibonacci limits."""

import math
from dataclasses import dataclass

import pytest
from hypothesis import given
from hypothesis import strategies as st

from minishift.arith import (
    FactorialDigits,
    add,
    fib_factorial_limit,
    fib_mod,
    pisano_period,
    to_factorial,
)


class TestFactorialDigits:
    def test_digit_bounds_enforced(self):
        with pytest.raises(ValueError):
            FactorialDigits((2,))
        with pytest.raises(ValueError):
            FactorialDigits(())

    def test_minus_one_is_all_maximal_digits(self):
        assert to_factorial(-1, 4).digits == (1, 2, 3, 4)

    def test_zero(self):
        assert to_factorial(0, 5).digits == (0, 0, 0, 0, 0)

    def test_seven(self):
        assert to_factorial(7, 3).digits == (1, 0, 1)

    def test_display(self):
        assert str(to_factorial(7, 3)) == "(1 0 1)_!"

    @given(st.integers(-1000, 1000), st.integers(1, 6))
    def test_roundtrip_mod(self, x, k):
        d = to_factorial(x, k)
        assert d.to_int() % math.factorial(k + 1) == x % math.factorial(k + 1)

    @given(st.integers(-(10**20), 10**20), st.integers(1, 30))
    def test_digits_of_the_residue_without_it(self, x, k):
        """Oracle: the digits of x reduced modulo (k+1)! first."""
        r = x % math.factorial(k + 1)
        digits = []
        for i in range(1, k + 1):
            digits.append(r % (i + 1))
            r //= i + 1
        assert to_factorial(x, k).digits == tuple(digits)

    def test_maximal_digit_identity(self):
        # sum of i * i! for i <= n equals (n+1)! - 1
        for n in range(1, 8):
            assert sum(i * math.factorial(i) for i in range(1, n + 1)) == (
                math.factorial(n + 1) - 1
            )


class TestAdd:
    def test_identity(self):
        x = to_factorial(37, 4)
        assert add(x, to_factorial(0, 4)) == x

    def test_inverse(self):
        k = 4
        assert add(to_factorial(-1, k), to_factorial(1, k)).to_int() == 0

    def test_example(self):
        assert add(to_factorial(5, 3), to_factorial(9, 3)) == to_factorial(14, 3)

    def test_precision_mismatch(self):
        with pytest.raises(ValueError):
            add(to_factorial(1, 2), to_factorial(1, 3))

    @given(st.integers(-500, 500), st.integers(-500, 500), st.integers(1, 6))
    def test_ring_morphism(self, x, y, k):
        assert add(to_factorial(x, k), to_factorial(y, k)) == to_factorial(x + y, k)


@dataclass(frozen=True)
class PadicValuation:
    p: int
    value: int | None  # None marks +infinity (valuation of 0)

    @property
    def infinite(self) -> bool:
        return self.value is None

    def norm(self) -> float:
        if self.value is None:
            return 0.0
        return float(self.p) ** (-self.value)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    for d in range(2, int(math.isqrt(p)) + 1):
        if p % d == 0:
            return False
    return True


def padic_valuation(x: int, p: int) -> PadicValuation:
    """Largest n with p**n dividing x; infinite for x = 0."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x == 0:
        return PadicValuation(p, None)
    x = abs(x)
    n = 0
    while x % p == 0:
        x //= p
        n += 1
    return PadicValuation(p, n)


class TestPadic:
    def test_examples(self):
        assert padic_valuation(12, 2).value == 2
        assert padic_valuation(1, 7).value == 0
        assert padic_valuation(8, 2).value == 3

    def test_zero_is_infinite(self):
        v = padic_valuation(0, 3)
        assert v.infinite
        assert v.norm() == 0.0

    def test_norm(self):
        assert padic_valuation(12, 2).norm() == 0.25

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            padic_valuation(10, 4)


class TestFibMod:
    def test_f0(self):
        for m in (2, 10, 24):
            assert fib_mod(0, m) == 0

    def test_small_values(self):
        fibs = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55]
        for n, f in enumerate(fibs):
            assert fib_mod(n, 1000) == f

    def test_negative_index(self):
        # F_{-n} = (-1)^(n-1) F_n
        for n in range(1, 10):
            expected = (((-1) ** (n - 1)) * fib_mod(n, 1009)) % 1009
            assert fib_mod(-n, 1009) == expected

    def test_pisano_small(self):
        assert pisano_period(2) == 3
        assert pisano_period(10) == 60

    def test_factorial_digit_index(self):
        # index given modulo 5! determines F mod 24 (pisano period 24 | 120)
        d = to_factorial(7, 4)
        assert fib_mod(d, 24) == fib_mod(7, 24)

    def test_factorial_digit_index_insufficient(self):
        with pytest.raises(ValueError):
            fib_mod(to_factorial(7, 1), 1009)

    def test_fib_factorial_limit_zero(self):
        # stabilization kicks in once the Pisano period divides n!
        for m, start in ((24, 4), (120, 5), (720, 6)):
            tail = fib_factorial_limit(m, 0, start, 10)
            assert all(v == 0 for v in tail)

    def test_fib_factorial_plus_two_limit_one(self):
        for m, start in ((24, 4), (120, 5), (720, 6)):
            tail = fib_factorial_limit(m, 2, start, 10)
            assert all(v == 1 for v in tail)
