"""Command-line interface: golden outputs, determinism and exit codes."""

import ast
import io
import itertools
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minishift.cli import COMMANDS, DOCS, dispatch, main
from minishift.errors import InputError, InsufficientHorizon, ParseError


def invoke(*args):
    """In-process ``main`` on ``args``: (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with patch.object(sys, "argv", ["minishift", *args]), \
            redirect_stdout(stdout), redirect_stderr(stderr):
        try:
            main()
            code = 0
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run(*args):
    code, stdout, stderr = invoke(*args)
    assert code == 0, stderr
    return stdout


class TestSubst:
    def test_apply_and_iterate(self):
        out = run(
            "subst", "--subst", "a->ab;b->a",
            "--apply", "ab", "--iterate", "a", "-k", "3", "--primitive",
        )
        assert json.loads(out) == {
            "substitution": "a->ab;b->a",
            "apply": "aba",
            "iterate": "abaab",
            "primitive": True,
        }


class TestFactors:
    def test_substitution(self):
        out = json.loads(run(
            "factors", "--subst", "a->ab;b->a", "--start", "a",
            "--horizon", "4", "--complexity", "3", "--witness", "b",
        ))
        assert out["complexity"] == 4
        assert out["witness"] == 3
        assert out["complete"] is True

    def test_start_word_that_is_not_a_factor(self):
        # aa is no factor of this shift, whose length-2 factors are ab and ba
        out = run(
            "factors", "--subst", "a->bab;b->a", "--start", "aa",
            "--horizon", "2",
        )
        assert out == '{"complete": true, "factors": ["", "a", "b", "ab", "ba"], "horizon": 2}\n'

    def test_periodic(self):
        out = json.loads(run(
            "factors", "--periodic", "abc", "--horizon", "3",
            "--complexity", "2",
        ))
        assert out["complexity"] == 3

    def test_needs_a_source(self):
        code, _, _ = invoke("factors", "--horizon", "3")
        assert code != 0


class TestClassify:
    def test_golden(self):
        out = run(
            "classify", "--subst", "a->ab;b->a", "--start", "a",
            "--maxlen", "6",
        )
        assert out.strip() == (
            '{"acyclic": true, "connected": true, "max_length": 6, '
            '"neutral": true, "tree": true}'
        )

    def test_word_multiplicity(self):
        out = json.loads(run(
            "classify", "--subst", "a->ab;b->ba", "--start", "a",
            "--maxlen", "4", "--word", "",
        ))
        assert out["multiplicity"] == 1
        assert out["neutral"] is False


class TestReturns:
    def test_golden_right(self):
        out = run(
            "returns", "--subst", "a->ab;b->a", "--start", "a",
            "--word", "b",
        )
        assert out.strip() == '{"right": ["ab", "aab"]}'

    def test_left_and_gamma(self):
        out = json.loads(run(
            "returns", "--subst", "a->ab;b->a", "--start", "a",
            "--word", "a", "--left", "--gamma", "3",
        ))
        assert out["left"] == ["a", "ab"]
        assert out["gamma"] == ["", "a", "ba", "aba", "baa"]


class TestEpisturmian:
    def test_pal_and_returns(self):
        out = json.loads(run(
            "episturmian", "--directive", "abababababab",
            "--pal", "ab", "--word", "aa",
        ))
        assert out["pal"] == "aba"
        assert out["left"] == ["aab", "aabab"]


class TestFreegroup:
    def test_index_two(self):
        out = json.loads(run(
            "freegroup", "--alphabet", "ab",
            "--generators", "aa,ab,ba", "--member", "abba",
        ))
        assert out == {
            "basis": False,
            "generates": False,
            "index": 2,
            "member": True,
            "rank": 3,
        }

    def test_separation(self):
        out = json.loads(run(
            "freegroup", "--alphabet", "ab",
            "--generators", "aa", "--separate", "a",
        ))
        assert out["separated"] is True
        assert out["separating_index"] is not None


class TestMonoid:
    def test_three_state_code(self):
        out = json.loads(run(
            "monoid", "--code", "aa,ab,ba",
            "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16",
        ))
        assert out["states"] == 3
        assert out["monoid_size"] == 19
        assert out["f_min_rank"] == 2
        assert out["f_group_order"] == 2

    def test_eggbox_text(self):
        out = run(
            "monoid", "--code", "aa,ab,ba",
            "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16",
            "--eggbox",
        )
        assert "aa*" in out and "+" in out

    def test_rank_zero_found_past_a_stretch_of_rank_one(self):
        # the least rank is 1 over lengths 5..19; a stopping rule read 1 and failed in f_group
        out = run(
            "monoid", "--code", "aabbbb,abbbbaab,baababaa,babaaba",
            "--subst", "a->ab;b->a", "--start", "a", "--horizon", "48",
        )
        assert out == (
            '{"f_group_generators": [], "f_group_order": 1, "f_min_rank": 0, '
            '"j_classes": 120, "minimal_image": [], "monoid_size": 662, "states": 21}\n'
        )

    def test_rank_zero_walks_no_return_words(self):
        # the return walk of the rank-0 base 'babaabaababaabaa' is cut at horizon 48
        out = json.loads(run(
            "monoid", "--code", "aa,ab,babaaba",
            "--subst", "a->ab;b->a", "--start", "a", "--horizon", "48",
        ))
        assert out["f_min_rank"] == 0 and out["f_group_order"] == 1
        assert out["f_group_generators"] == [] and out["minimal_image"] == []

    def test_code_with_three_hundred_states(self):
        # 256 states or more keep their state maps as tuples
        out = run("monoid", "--code", "a" * 300)
        assert out == '{"j_classes": 1, "monoid_size": 300, "states": 300}\n'


class TestBifix:
    def test_cyclic_intersection(self):
        out = json.loads(run(
            "bifix", "--group", "cyclic:2", "--images", "a=1,b=1",
            "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16",
        ))
        assert out == {"code": ["aa", "ab", "ba"], "degree": 2, "size": 3}


class TestShadow:
    def test_golden_horder(self):
        out = run(
            "horder", "--subst", "a->ab;b->a",
            "--group", "A5", "--images", "a:(1 2 3 4 5);b:(1 2 3)",
        )
        assert json.loads(out) == {"h_order": 14}

    def test_horder_alias_matches_subcommand(self):
        args = ["--subst", "a->ab;b->a", "--group", "cyclic:3", "--images", "a=1,b=1"]
        top = run("horder", *args)
        sub = run("shadow", "horder", *args)
        assert top == sub
        assert json.loads(top) == {"h_order": 8}

    def test_horder_no_return(self):
        out = json.loads(run(
            "horder", "--subst", "a->ab;b->ba",
            "--group", "cyclic:2", "--images", "a=1,b=1",
        ))
        assert out == {"h_order": None, "preperiod": 1, "period": 1}

    def test_eval(self):
        out = json.loads(run(
            "shadow", "eval", "--expr", "subst^w(phi, a)",
            "--subst-def", "phi=a->ab;b->a",
            "--group", "cyclic:3", "--images", "a=1,b=1",
        ))
        assert out["value"] == "1"

    def test_separate(self):
        out = json.loads(run(
            "shadow", "separate", "--code", "ab,aab",
            "--beta", "a=ab,b=aab",
            "--group", "cyclic:2", "--images", "a=1,b=1",
            "-u", "a", "-v", "ab",
        ))
        assert out["separated"] is True
        assert out["prefixes"] == ["", "a", "aa"]
        assert any("." in row for row in out["alpha_u"])  # a missing entry reads "."


class TestImages:
    SPELLINGS = ["a:(1 2 3);b:(3 4 5)", "a:(1,2,3);b:(3,4,5)", "a:(1, 2, 3);b:(3, 4, 5)"]

    @pytest.mark.parametrize("argv", [
        ["horder", "--subst", "a->ab;b->aaab", "--group", "A5"],
        ["bifix", "--group", "A5", "--subst", "a->ab;b->a", "--start", "a"],
    ], ids=["horder", "bifix"])
    def test_commas_separate_points_like_spaces(self, argv):
        assert len({run(*argv, "--images", images) for images in self.SPELLINGS}) == 1

    def test_points_that_mix_numbers_and_names_exit_2(self):
        code, _, stderr = invoke("horder", "--subst", "a->ab;b->aaab", "--group", "A5",
                                 "--images", "a:(1 x)")
        assert code == 2
        assert "mix numbers and names" in stderr


class TestArith:
    def test_factorial_digits(self):
        out = json.loads(run("arith", "--to-factorial", "7", "-k", "3"))
        assert out == {"digits": [1, 0, 1], "display": "(1 0 1)_!"}

    def test_fib(self):
        out = json.loads(run(
            "arith", "--fib-mod", "10", "7", "--fib-limit", "24",
            "--offset", "2",
        ))
        assert out["fib_mod"] == 55 % 7
        assert out["fib_factorial_sequence"][-3:] == [1, 1, 1]


class TestDeterminism:
    def test_repeated_runs_identical(self):
        args = [
            "classify", "--subst", "a->ab;b->a", "--start", "a", "--maxlen", "5",
        ]
        assert run(*args) == run(*args)


class TestExitCodes:
    def invoke(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "minishift.cli", *args],
            capture_output=True, text=True,
        )

    def test_parse_error_is_2(self):
        r = self.invoke("subst", "--subst", "not a substitution")
        assert r.returncode == 2

    def test_usage_error_is_2(self):
        r = self.invoke("factors")
        assert r.returncode == 2

    def test_insufficient_horizon_is_3(self):
        r = self.invoke(
            "returns", "--subst", "a->ab;b->a", "--start", "a",
            "--word", "b", "--horizon", "3",
        )
        assert r.returncode == 3

    def test_success_is_0(self):
        r = self.invoke("arith", "--to-factorial", "0")
        assert r.returncode == 0
        assert json.loads(r.stdout)["digits"] == [0, 0, 0, 0]

    @pytest.mark.parametrize("argv", [
        ["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "c"],
        ["returns", "--subst", "a->ab;b->a", "--start", "c", "--word", "a"],
        ["subst", "--subst", "a->ab;b->a", "--apply", "abc"],
        ["freegroup", "--alphabet", "ab", "--generators", "ac"],
        ["freegroup", "--alphabet", "aB", "--generators", "B,a"],
        ["freegroup", "--alphabet", "Ab", "--generators", "A,b"],
        ["bifix", "--group", "cyclic:x", "--images", "a=1,b=1",
         "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16"],
        ["factors", "--subst", "a->ab;b->a", "--start", "a", "--horizon", "-3"],
        ["horder", "--subst", "a->ab;b->aaab", "--group", "", "--images",
         "a:(1 2 3);b:(3 4 5)"],
        ["horder", "--subst", "a->ab;b->a", "--group", "G", "--images",
         "a:(1 2)(2 3);b:(1 3)"],
        ["horder", "--subst", "a->ab;b->a", "--group", "cyclic:3", "--images", "a=1,a=2,b=1"],
        ["horder", "--subst", "a->ab;b->a", "--group", "G", "--images",
         "a:(1 2);a:(1 2 3);b:(1 3)"],
        ["monoid", "--code", "aa,ab,ba", "--budget", "0"],
        ["monoid", "--code", "aa,ab,ba", "--budget", "-1"],
        ["monoid", "--code", "aa,ab,ba", "--eggbox"],
        ["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->a"],
        ["monoid", "--code", "aa,ab,ba", "--start", "a"],
        ["subst", "--sub", "a->ab;b->a"],
        ["subst", "-h"],
        [],
        ["nosuchcommand"],
    ], ids=["word-letter", "start-letter", "apply-letter", "generator-letter",
            "alphabet-capital", "alphabet-capital-first", "cyclic-modulus", "negative-horizon",
            "empty-group", "point-in-two-cycles", "repeated-weight", "repeated-image",
            "zero-budget", "negative-budget", "eggbox-alone", "subst-alone", "start-alone",
            "abbreviated-option", "short-help", "no-command", "unknown-command"])
    def test_malformed_input_is_2(self, argv):
        r = self.invoke(*argv)
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.startswith("error: ")
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("argv, error", [
        (["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "b",
          "--horizon", "-1"], ParseError),
        (["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->a", "--start", "a",
          "--horizon", "-1"], ParseError),
        (["bifix", "--group", "cyclic:2", "--images", "a=1,b=1",
          "--subst", "a->ab;b->a", "--start", "a", "--horizon", "-1"], ParseError),
        (["episturmian", "--directive", "abab", "--horizon", "-1"], ParseError),
        (["classify", "--subst", "a->ab;b->a", "--start", "a", "--maxlen", "-3"], ParseError),
        (["subst", "--subst", "a->ab;b->a", "--iterate", "a", "-k", "-1"], ParseError),
        (["subst", "--subst", "a->ab;b->a", "--iterate", "c"], InputError),
        (["factors", "--subst", "a->ab;b->a", "--start", "a", "--witness", "bb"], InputError),
        (["classify", "--subst", "a->ab;b->a", "--start", "a", "--word", "c"], InputError),
        (["classify", "--subst", "a->ab;b->a", "--start", "a", "--maxlen", "6",
          "--word", "bbbbbbb"], InputError),
        (["freegroup", "--alphabet", "ab", "--generators", "a,cC"], InputError),
        (["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->ac;c->a", "--start", "a",
          "--horizon", "0"], InputError),
        (["freegroup", "--alphabet", "ab", "--generators", "ab", "--member", "ac"], InputError),
        (["horder", "--subst", "a->ab;b->a", "--group", "cyclic:0", "--images", "a=1,b=1"],
         InputError),
        (["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "abaababaa",
          "--horizon", "8"], InsufficientHorizon),
        (["horder", "--subst", "a->ab;b->aaab", "--group", "A5", "--images", "a:(1 x)"],
         ParseError),
        (["bifix", "--group", "cyclic:2", "--images", "a=1", "--subst", "a->ab;b->a",
          "--start", "a", "--horizon", "16"], ParseError),
        (["bifix", "--group", "A5", "--images", "a:();b:()", "--subst", "a->ab;b->a",
          "--start", "a", "--horizon", "16"], ParseError),
        (["horder", "--subst", "a->ab;b->a", "--group", "cyclic:3", "--images", "a=1"],
         ParseError),
        (["shadow", "eval", "--expr", "subst^w(phi, a)", "--subst-def", "phi=a->ab;b->a",
          "--group", "cyclic:3", "--images", "a=1,c=1"], ParseError),
        (["shadow", "horder", "--subst", "a->ab;b->a", "--group", "cyclic:3",
          "--images", "a=1,c=1"], ParseError),
        (["shadow", "separate", "--code", "ab,aab", "--beta", "a=ab,b=aab",
          "--group", "cyclic:2", "--images", "a=1,b=1", "-u", "a", "-v", "c"], InputError),
        (["freegroup", "--alphabet", "aab", "--generators", "ab"], InputError),
        (["arith", "--to-factorial", "5", "-k", "0"], ParseError),
        (["arith", "--fib-mod", "10", "0"], InputError),
        (["arith", "--fib-limit", "0"], ParseError),
        (["factors", "--periodic", ""], ParseError),
        (["returns", "--subst", "a->ab;b->a", "--start", "", "--word", ""], InputError),
        (["subst", "--subst", "a->ab"], ParseError),
        (["monoid", "--code", "a,ab"], InputError),
        (["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->ac;c->a", "--start", "a"],
         InputError),
        (["episturmian", "--directive", "abab", "--word", ""], ParseError),
        (["episturmian", "--directive", "abab", "--word", "c"], InputError),
        (["factors", "--subst", "a->ab;b->a", "--start", "a", "--horizon", "6",
          "--complexity", "-1"], ParseError),
        (["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "a",
          "--gamma", "-2"], ParseError),
        (["bifix", "--group", "", "--images", "a=1,b=1", "--subst", "a->ab;b->a",
          "--start", "a", "--horizon", "16"], ParseError),
        (["shadow", "eval", "--expr", "a", "--group", "", "--images", "a:(1 2)"],
         ParseError),
        (["shadow", "separate", "--code", "ab,aab", "--beta", "a=ab,b=aab",
          "--group", "", "--images", "a:(1 2);b:(1 2)", "-u", "a", "-v", "b"], ParseError),
    ], ids=["returns-horizon", "monoid-horizon", "bifix-horizon", "episturmian-horizon",
            "classify-maxlen", "subst-power", "iterate-letter", "witness-not-factor",
            "classify-word-letter", "classify-word-not-factor", "generator-cancelling-letters",
            "code-letters-at-horizon-0", "member-letter", "cyclic-zero", "word-beyond-horizon",
            "mixed-points", "bifix-missing-image", "no-points", "horder-missing-image",
            "eval-missing-image", "shadow-horder-missing-image", "separate-letter",
            "duplicate-alphabet", "factorial-precision", "fib-modulus", "fib-limit-modulus",
            "empty-periodic", "empty-start", "rule-missing", "not-bifix", "code-letters",
            "empty-episturmian-word", "episturmian-word-letter", "negative-complexity",
            "negative-gamma", "bifix-empty-group", "eval-empty-group",
            "separate-empty-group"])
    def test_refused_as_input(self, argv, error):
        with pytest.raises(error):
            dispatch(argv)


# Values for the property test below: well-formed ones, and malformed ones of
# every kind the option parsers reject.  --dot is left out (it writes files).
# --base-point is read as text: against the numbered points of these images it
# lies outside the domain, which the group code refuses (exit 2).
SUBSTS = st.sampled_from(["a->ab;b->a", "a->ab;b->ba", "a->ab;b->ac;c->a", "a->ab;b->aaab",
                          "a->b;b->a", "a->ab", "a->", "x", ""])
WORDS = st.sampled_from(["", "a", "b", "c", "ab", "ba", "aa", "abaab", "aB", "x y"])
SMALL = st.integers(-2, 12).map(str) | st.sampled_from(["x", ""])
GROUPS = st.sampled_from(["cyclic:2", "cyclic:3", "cyclic:0", "cyclic:x", "A5", ""])
IMAGES = st.sampled_from(["a=1,b=1", "a=1,b=2,c=1", "a=1", "a=1,c=1", "a=x", "a",
                          "a:(1 2 3);b:(3 4 5)", "a:(1 2);b:(2 3);c:(1 3)", "a:(1 x)",
                          "a:();b:()", "a:(1 2", "a:(1 1)", ""])
OPTIONS = {
    ("subst",): {"--subst": SUBSTS, "--apply": WORDS, "--iterate": WORDS, "-k": SMALL,
                 "--primitive": None},
    ("factors",): {"--subst": SUBSTS, "--start": WORDS, "--periodic": WORDS,
                   "--horizon": SMALL, "--complexity": SMALL, "--witness": WORDS},
    ("classify",): {"--subst": SUBSTS, "--start": WORDS, "--maxlen": SMALL, "--word": WORDS},
    ("returns",): {"--subst": SUBSTS, "--start": WORDS, "--word": WORDS, "--horizon": SMALL,
                   "--left": None, "--gamma": SMALL},
    ("episturmian",): {"--directive": st.sampled_from(["abab", "abcabc", "aab", ""]),
                       "--word": WORDS, "--pal": WORDS, "--horizon": SMALL},
    ("freegroup",): {"--alphabet": st.sampled_from(["ab", "abc", "aab", "aB", ""]),
                     "--generators": st.sampled_from(["aa,ab,ba", "a,b", "ac", "aB,b", ""]),
                     "--member": WORDS, "--separate": WORDS},
    ("monoid",): {"--code": st.sampled_from(["aa,ab,ba", "a,ab", "ab,ba", "a", ""]),
                  "--subst": SUBSTS, "--start": WORDS, "--horizon": SMALL, "--eggbox": None,
                  "--budget": st.sampled_from(["5", "20000"])},
    ("bifix",): {"--group": GROUPS, "--images": IMAGES, "--subst": SUBSTS, "--start": WORDS,
                 "--horizon": SMALL, "--no-degree": None, "--base-point": SMALL},
    ("horder",): {"--subst": SUBSTS, "--group": GROUPS, "--images": IMAGES},
    ("shadow", "horder"): {"--subst": SUBSTS, "--group": GROUPS, "--images": IMAGES},
    ("shadow", "eval"): {"--expr": st.sampled_from(["a", "(ab)^w", "subst^w(phi, a)",
                                                    "subst^w(phi, c)", "subst^w(psi, a)",
                                                    "a^w b", "(a", "A", ""]),
                         "--subst-def": st.sampled_from(["phi=a->ab;b->a", "phi=", "phi=a->a",
                                                         "phi=a->b;b->a"]),
                         "--group": GROUPS, "--images": IMAGES},
    ("shadow", "separate"): {"--code": st.sampled_from(["ab,aab", "a,ab,b", "aa,ab", ""]),
                             "--beta": st.sampled_from(["a=ab,b=aab", "a=aa,b=ab", "a", ""]),
                             "--group": GROUPS, "--images": IMAGES, "-u": WORDS, "-v": WORDS},
    ("arith",): {"--to-factorial": SMALL, "-k": SMALL, "--fib-limit": SMALL, "--offset": SMALL,
                 "--fib-mod": st.tuples(SMALL, SMALL)},
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = list(command)
    for option, values in OPTIONS[command].items():
        if not draw(st.booleans()):
            continue
        argv.append(option)
        if values is not None:
            value = draw(values)
            argv.extend(value if isinstance(value, tuple) else [value])
    return argv


@settings(max_examples=300)
@given(argvs())
def test_every_argv_keeps_the_exit_contract(argv):
    """In-process ``main``: exit 0, 2, 3 or 4, and no exception escapes."""
    code, _, _ = invoke(*argv)
    assert code in {0, 2, 3, 4}, argv


# The argvs of the cli-session benchmark (CLI_MIX in perfbench/workloads.py)
# and the stdout each gave when recorded (perfbench/goldens.json), read as data.
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
EXPECTED_EXIT = {"ok": 0, "usage": 2, "horizon": 3}


def cli_mix():
    """CLI_MIX, read with ``ast``: nothing of the benchmark runs or is compiled."""
    for node in ast.parse((PERFBENCH / "workloads.py").read_text()).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "CLI_MIX":
            return ast.literal_eval(node.value)
    raise LookupError("no CLI_MIX in perfbench/workloads.py")


def golden_argvs():
    """Each argv any seed can draw from CLI_MIX, with its kind."""
    out = []
    for kind, template in cli_mix():
        choices = [tok if isinstance(tok, list) else [tok] for tok in template]
        out.extend((kind, list(argv)) for argv in itertools.product(*choices))
    return out


GOLDENS = json.loads((PERFBENCH / "goldens.json").read_text())["cli"]


def test_goldens_hold_every_argv_of_the_mix():
    assert sorted(json.dumps(argv) for _, argv in golden_argvs()) == sorted(GOLDENS)


@pytest.mark.parametrize("kind, argv", golden_argvs(),
                         ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_cli_contract_on_the_benchmark_goldens(kind, argv):
    """In-process ``main``: "ok" prints the golden stdout, the others exit 2 or 3."""
    code, stdout, stderr = invoke(*argv)
    assert code == EXPECTED_EXIT[kind], stderr
    if kind == "ok":
        assert stdout == GOLDENS[json.dumps(argv)]["stdout"]


# `--help` of every command and group, byte for byte, at an 80-column terminal
HELP = {
    (): """\
usage: minishift [--help] COMMAND ...

Finite computations on substitution shifts, return words and codes.

options:
  --help       Show this message and exit.

commands:
  COMMAND
    arith      Factorial digits and modular Fibonacci limits.
    bifix      Group code intersected with a factor set; F-degree and F-group.
    classify   Tree/neutral classification of the factor set up to a length.
    episturmian
               Palindromic closures and left return words of a directed word.
    factors    Certified factor set of a substitution fixed point or periodic
               word.
    freegroup  Folded subgroup graph: rank, index, membership, Hall
               separation.
    horder     Shortcut for 'shadow horder'.
    monoid     Transition monoid of the minimal automaton of a code's
               submonoid.
    returns    Return words to a factor.
    shadow     Pseudoword evaluation, h-orders and separation witnesses.
    subst      Apply or iterate a substitution, or test primitivity.
""",
    ("subst",): """\
usage: minishift subst --subst TEXT [--apply TEXT] [--iterate TEXT]
                       [-k INTEGER] [--primitive] [--help]

Apply or iterate a substitution, or test primitivity.

options:
  --subst TEXT
  --apply TEXT
  --iterate TEXT
  -k INTEGER, --power INTEGER
                        [default: 1]
  --primitive
  --help                Show this message and exit.
""",
    ("factors",): """\
usage: minishift factors [--subst TEXT] [--start TEXT] [--periodic TEXT]
                         [--horizon INTEGER] [--complexity INTEGER]
                         [--witness TEXT] [--help]

Certified factor set of a substitution fixed point or periodic word.

options:
  --subst TEXT
  --start TEXT
  --periodic TEXT
  --horizon INTEGER     [default: 8]
  --complexity INTEGER
  --witness TEXT
  --help                Show this message and exit.
""",
    ("classify",): """\
usage: minishift classify --subst TEXT --start TEXT [--maxlen INTEGER]
                          [--word TEXT] [--dot PATH] [--help]

Tree/neutral classification of the factor set up to a length.

options:
  --subst TEXT
  --start TEXT
  --maxlen INTEGER  [default: 6]
  --word TEXT
  --dot PATH
  --help            Show this message and exit.
""",
    ("returns",): """\
usage: minishift returns --subst TEXT --start TEXT --word TEXT
                         [--horizon INTEGER] [--left] [--gamma INTEGER]
                         [--help]

Return words to a factor.

options:
  --subst TEXT
  --start TEXT
  --word TEXT
  --horizon INTEGER  [default: 32]
  --left
  --gamma INTEGER
  --help             Show this message and exit.
""",
    ("episturmian",): """\
usage: minishift episturmian --directive TEXT [--word TEXT] [--pal TEXT]
                             [--horizon INTEGER] [--help]

Palindromic closures and left return words of a directed word.

options:
  --directive TEXT
  --word TEXT
  --pal TEXT
  --horizon INTEGER
  --help             Show this message and exit.
""",
    ("freegroup",): """\
usage: minishift freegroup --alphabet TEXT --generators TEXT [--member TEXT]
                           [--separate TEXT] [--dot PATH] [--help]

Folded subgroup graph: rank, index, membership, Hall separation.

options:
  --alphabet TEXT
  --generators TEXT  comma-separated group words
  --member TEXT
  --separate TEXT
  --dot PATH
  --help             Show this message and exit.
""",
    ("monoid",): """\
usage: minishift monoid --code TEXT [--subst TEXT] [--start TEXT]
                        [--horizon INTEGER] [--eggbox] [--budget INTEGER]
                        [--help]

Transition monoid of the minimal automaton of a code's submonoid.

options:
  --code TEXT        comma-separated code words
  --subst TEXT
  --start TEXT
  --horizon INTEGER  [default: 24]
  --eggbox           print the F-minimal eggbox as text
  --budget INTEGER   [default: 20000]
  --help             Show this message and exit.
""",
    ("bifix",): """\
usage: minishift bifix --group TEXT --images TEXT [--base-point TEXT] --subst
                       TEXT --start TEXT [--horizon INTEGER]
                       [--degree | --no-degree] [--help]

Group code intersected with a factor set; F-degree and F-group.

options:
  --group TEXT          cyclic:M, or a name that is only a label: the --images
                        define the group
  --images TEXT         "a=1,b=1" or "a:(1 2 3);b:(3 4 5)"
  --base-point TEXT
  --subst TEXT
  --start TEXT
  --horizon INTEGER     [default: 24]
  --degree, --no-degree
                        [default: degree]
  --help                Show this message and exit.
""",
    ("shadow",): """\
usage: minishift shadow [--help] COMMAND ...

Pseudoword evaluation, h-orders and separation witnesses.

options:
  --help    Show this message and exit.

commands:
  COMMAND
    eval    Evaluate a pseudoword expression under a morphism.
    horder  Least n with the substitution's action on letter images returning.
    separate
            Matrix decoding morphism separating two differently valued words.
""",
    ("shadow", "eval"): """\
usage: minishift shadow eval --expr TEXT [--subst-def TEXT] --group TEXT
                             --images TEXT [--help]

Evaluate a pseudoword expression under a morphism.

options:
  --expr TEXT
  --subst-def TEXT  "phi=a->ab;b->a"
  --group TEXT      cyclic:M, or a name that is only a label: the --images
                    define the group
  --images TEXT
  --help            Show this message and exit.
""",
    ("shadow", "horder"): """\
usage: minishift shadow horder --subst TEXT --group TEXT --images TEXT
                               [--help]

Least n with the substitution's action on letter images returning.

options:
  --subst TEXT
  --group TEXT   cyclic:M, or a name that is only a label: the --images define
                 the group
  --images TEXT
  --help         Show this message and exit.
""",
    ("shadow", "separate"): """\
usage: minishift shadow separate --code TEXT --beta TEXT --group TEXT --images
                                 TEXT -u TEXT -v TEXT [--help]

Matrix decoding morphism separating two differently valued words.

options:
  --code TEXT    comma-separated code words
  --beta TEXT    "x=a,y=ab,z=bb"
  --group TEXT   cyclic:M, or a name that is only a label: the --images define
                 the group
  --images TEXT
  -u TEXT
  -v TEXT
  --help         Show this message and exit.
""",
    ("horder",): """\
usage: minishift horder --subst TEXT --group TEXT --images TEXT [--help]

Shortcut for 'shadow horder'.

options:
  --subst TEXT
  --group TEXT   cyclic:M, or a name that is only a label: the --images define
                 the group
  --images TEXT
  --help         Show this message and exit.
""",
    ("arith",): """\
usage: minishift arith [--to-factorial INTEGER] [-k INTEGER]
                       [--fib-mod INTEGER INTEGER] [--fib-limit INTEGER]
                       [--offset INTEGER] [--help]

Factorial digits and modular Fibonacci limits.

options:
  --to-factorial INTEGER
  -k INTEGER, --precision INTEGER
                        [default: 4]
  --fib-mod INTEGER INTEGER
  --fib-limit INTEGER
  --offset INTEGER      [default: 0]
  --help                Show this message and exit.
""",
}


@pytest.mark.parametrize("path", list(HELP), ids=lambda p: " ".join(p) or "minishift")
def test_help_text(monkeypatch, path):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, _ = invoke(*path, "--help")
    assert code == 0
    assert stdout == HELP[path]


def test_help_covers_every_command():
    assert set(DOCS) == set(COMMANDS) | {(), ("shadow",)} == set(HELP)
