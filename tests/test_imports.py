"""Every module imports on its own, so no import cycle hides behind an order."""

import ast
import json
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import minishift

MODULES = sorted(m.name for m in pkgutil.iter_modules(minishift.__path__))


def test_every_module_is_listed():
    assert {"bifix", "monoid", "returns", "shadow", "words", "cli"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    # and only the CLI loads json: the layers return plain values, which it renders
    r = subprocess.run(
        [sys.executable, "-c", f"import sys, minishift.{module}\nprint('json' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    if module != "cli":
        assert r.stdout == "False\n"


@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli"])
def test_the_library_refuses_input_as_input_error(module):
    # an InputError is a ValueError that main maps to exit 2; a bare one is a traceback
    tree = ast.parse(Path(minishift.__path__[0], f"{module}.py").read_text())
    raised = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc
              for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert [n.lineno for n in raised if getattr(n, "id", None) == "ValueError"] == []


CLI_BASE = {"minishift", "minishift.cli", "minishift.errors", "minishift.words"}

RUN_MAIN = """
from minishift.cli import main
sys.argv = ["minishift", *json.loads(sys.argv[1])]
try:
    main()
except SystemExit as exc:
    assert not exc.code, exc.code
"""


def loaded_after(code, *args):
    """The minishift modules, and click if any, a fresh interpreter holds after
    running ``code``: no third-party parser may come back onto the start-up path."""
    r = subprocess.run(
        [sys.executable, "-c", f"import json, sys\n{code}\n"
         "print(json.dumps(sorted(m for m in sys.modules"
         " if m.partition('.')[0] in ('minishift', 'click'))))",
         *args],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def test_cli_module_loads_no_layer():
    assert loaded_after("import minishift.cli") == CLI_BASE


def test_monoid_loads_no_returns():
    # the F-minimal certificate and f_group import the return walk when they run
    assert "minishift.returns" not in loaded_after("import minishift.monoid")


def test_bifix_loads_no_monoid():
    # group codes, parses and degrees run without the monoid layer
    assert "minishift.monoid" not in loaded_after("import minishift.bifix")


FIB = ["--subst", "a->ab;b->a", "--start", "a"]
SHADOW = {"returns", "monoid", "shadow"}


@pytest.mark.parametrize("argv, layers", [
    (["subst", "--subst", "a->ab;b->a", "--apply", "ab", "--primitive"], set()),
    (["factors", *FIB, "--horizon", "6", "--complexity", "3", "--witness", "b"], set()),
    (["classify", *FIB, "--maxlen", "4", "--word", "a"], {"extension"}),
    (["returns", *FIB, "--word", "aba", "--left", "--gamma", "3"], {"returns"}),
    (["episturmian", "--directive", "abcabcabc", "--word", "a", "--pal", "ab", "--horizon", "4"],
     {"episturmian"}),
    (["freegroup", "--alphabet", "ab", "--generators", "aa,b,abA", "--member", "ab"],
     {"freegroup"}),
    (["monoid", "--code", "aa,ab,ba"], {"bifix", "monoid"}),
    # the F-group is generated by return words
    (["monoid", "--code", "aa,ab,ba", *FIB, "--horizon", "16", "--eggbox"],
     {"bifix", "monoid", "returns"}),
    (["bifix", "--group", "A5", "--images", "a:(1 2 3);b:(3 4 5)", *FIB, "--horizon", "16"],
     {"bifix", "monoid"}),
    (["bifix", "--group", "cyclic:2", "--images", "a=1,b=1", *FIB, "--horizon", "16"], {"bifix"}),
    (["shadow", "eval", "--expr", "(ab)^w", "--group", "cyclic:3", "--images", "a=1,b=1"],
     SHADOW),
    (["shadow", "horder", "--subst", "a->ab;b->a", "--group", "cyclic:2", "--images", "a=1,b=1"],
     SHADOW),
    (["shadow", "separate", "--code", "ab,aab", "--beta", "a=ab,b=aab", "--group", "cyclic:2",
      "--images", "a=1,b=1", "-u", "a", "-v", "ab"], SHADOW),
    (["horder", "--subst", "a->ab;b->a", "--group", "A5", "--images", "a:(1 2 3);b:(3 4 5)"],
     SHADOW),
    (["arith", "--to-factorial", "23", "--fib-mod", "10", "7", "--fib-limit", "24"], {"arith"}),
], ids=["subst", "factors", "classify", "returns", "episturmian", "freegroup", "monoid",
        "monoid-f-group", "bifix", "bifix-cyclic", "shadow-eval", "shadow-horder",
        "shadow-separate", "horder", "arith"])
def test_each_command_loads_only_its_layer(argv, layers):
    assert loaded_after(RUN_MAIN, json.dumps(argv)) == CLI_BASE | {f"minishift.{m}" for m in layers}
