"""Shared fixtures: the recurring substitutions and their factor sets."""

import pytest
from hypothesis import settings

from minishift.words import FactorSet, Substitution

# The same examples on every run (no example database, no deadline), so two
# runs of the suite on two versions of the code are a fixed comparison.
settings.register_profile("minishift", derandomize=True, deadline=None)
settings.load_profile("minishift")


@pytest.fixture(scope="session")
def fib():
    return Substitution.parse("a->ab;b->a")


@pytest.fixture(scope="session")
def tm():
    return Substitution.parse("a->ab;b->ba")


@pytest.fixture(scope="session")
def trib():
    return Substitution.parse("a->ab;b->ac;c->a")


@pytest.fixture(scope="session")
def quad():
    # two-letter substitution with three return words to aa
    return Substitution.parse("a->ab;b->aaab")


@pytest.fixture(scope="session")
def fib_set(fib):
    return FactorSet.from_substitution(fib, "a", 16)


@pytest.fixture(scope="session")
def fib_set_64(fib):
    return FactorSet.from_substitution(fib, "a", 64)


@pytest.fixture(scope="session")
def tm_set(tm):
    return FactorSet.from_substitution(tm, "a", 24)


@pytest.fixture(scope="session")
def tm_set_40(tm):
    return FactorSet.from_substitution(tm, "a", 40)


@pytest.fixture(scope="session")
def tm_set_64(tm):
    return FactorSet.from_substitution(tm, "a", 64)


@pytest.fixture(scope="session")
def trib_set(trib):
    return FactorSet.from_substitution(trib, "a", 16)


@pytest.fixture(scope="session")
def trib_set_64(trib):
    return FactorSet.from_substitution(trib, "a", 64)


@pytest.fixture(scope="session")
def quad_set(quad):
    return FactorSet.from_substitution(quad, "a", 32)
