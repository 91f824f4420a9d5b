"""Every module imports on its own, so no import cycle hides behind an order."""

import pkgutil
import subprocess
import sys

import pytest

import minishift

MODULES = sorted(m.name for m in pkgutil.iter_modules(minishift.__path__))


def test_every_module_is_listed():
    assert {"bifix", "monoid", "returns", "shadow", "words", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    r = subprocess.run(
        [sys.executable, "-c", f"import minishift.{module}"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
