"""Command-line surface: one-shot deterministic computations, JSON output.
It parses text and maps errors to exit codes; the library checks each value it
reads and refuses it as ``InputError``, which exits 2, so no check is written twice.

Each process runs one command, and start-up is most of its time, so ``main``
builds an ``argparse`` parser for the invoked command alone, and the module
imports only ``errors`` and ``words`` at the top.  Every command and helper
imports the layer modules it runs where it runs them: ``arith`` never compiles
``monoid``, and ``returns`` never compiles ``bifix``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import (
    DEFAULT_MONOID_BUDGET,
    BudgetExceeded,
    InsufficientHorizon,
    InternalInvariantError,
    MinishiftError,
    ParseError,
)
from .words import Alphabet, FactorSet, Substitution, shortlex

if TYPE_CHECKING:
    from . import bifix as bifix_mod
    from . import shadow as shadow_mod

EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def at_least(low: int):
    """Option check: an integer option may not be below ``low``."""

    def check(flag, value):
        if value < low:
            raise ParseError(f"{flag} must be at least {low}, got {value}")
        return value

    return check


nonnegative = at_least(0)  # horizons, lengths and powers


def nonempty(flag, value):
    """Option check: a word option may not be empty."""
    if value == "":
        raise ParseError(f"{flag} must be nonempty")
    return value


def parse_cyclic(group: str) -> int | None:
    """The modulus M of ``cyclic:M``, or None for a permutation group."""
    if not group.startswith("cyclic:"):
        return None
    text = group.split(":", 1)[1]
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"--group: modulus in {group!r} must be a positive integer")
    return int(text)


def build_factor_set(subst: str, start: str, horizon: int) -> FactorSet:
    return FactorSet.from_substitution(Substitution.parse(subst), start, horizon)


def parse_assignments(text: str, sep: str, eq: str, what: str) -> dict[str, str]:
    """Parse "a=1,b=1" (``sep`` ",", ``eq`` "=") into letter -> value text."""
    out = {}
    for part in text.split(sep):
        part = part.strip()
        if not part:
            continue
        if eq not in part:
            raise ParseError(f"missing {eq!r} in {what} {part!r}")
        letter, _, value = part.partition(eq)
        letter = letter.strip()
        if letter in out:
            raise ParseError(f"{what} of {letter!r} given twice")
        out[letter] = value.strip()
    if not out:
        raise ParseError(f"no {what}s given")
    return out


def parse_weights(text: str) -> dict[str, int]:
    """Parse "a=1,b=1" into letter -> integer."""
    out = parse_assignments(text, ",", "=", "weight")
    try:
        return {a: int(value) for a, value in out.items()}
    except ValueError:
        raise ParseError(f"bad integer in weights {text!r}") from None


def parse_images(group: str, images: str, letters) -> tuple[int | None, tuple, dict]:
    """``--images`` under ``--group``: (M, (), weights) for cyclic:M, else
    (None, domain, permutations).  Each of ``letters`` needs an image."""
    m = parse_cyclic(group)
    if m is not None:
        domain, out = (), parse_weights(images)
    else:
        from . import monoid as monoid_mod

        # permutation images define the group; its name is only a label
        cycles = parse_assignments(images, ";", ":", "image")
        points = {p for text in cycles.values() for p in monoid_mod.cycle_tokens(text)}
        points -= {"(", ")"}
        try:
            domain = tuple(sorted(points))
        except TypeError:
            raise ParseError(f"--images: points {images!r} mix numbers and names") from None
        out = {a: monoid_mod.parse_permutation(text, domain) for a, text in cycles.items()}
    missing = sorted(a for a in letters if a not in out)
    if missing:
        raise ParseError(f"--images: no image for {''.join(missing)!r}")
    return m, domain, out


def group_spec_from_options(
    group: str, images: str, base_point, letters
) -> bifix_mod.GroupCodeSpec:
    from . import bifix as bifix_mod

    m, domain, out = parse_images(group, images, letters)
    if m is not None:
        return bifix_mod.GroupCodeSpec.cyclic(m, out)
    if not domain:
        raise ParseError(f"--images: {images!r} moves no point")
    base = domain[0] if base_point is None else base_point
    return bifix_mod.GroupCodeSpec(domain, out, base)


def morphism_from_options(group: str, images: str, letters) -> shadow_mod.MorphismToFinite:
    from . import monoid as monoid_mod
    from . import shadow as shadow_mod

    m, domain, out = parse_images(group, images, letters)
    if m is not None:
        return shadow_mod.MorphismToFinite(monoid_mod.cyclic_monoid(m), out)
    M = monoid_mod.monoid_from_permutations(out, domain)
    return shadow_mod.MorphismToFinite(M, M.generators)


# command path -> (the options main declares on its parser, the function that runs it)
COMMANDS: dict[tuple[str, ...], tuple] = {}
DOCS = {  # command path -> its help line; a command's is its function's docstring
    (): "Finite computations on substitution shifts, return words and codes.",
    ("shadow",): "Pseudoword evaluation, h-orders and separation witnesses.",
    ("horder",): "Shortcut for 'shadow horder'.",
}


def option(*flags: str, check=None, **kw):
    """``add_argument``'s arguments; a value has its default's type unless ``type`` is
    given.  ``check(flag, value)`` raises ``ParseError``, which argparse lets through."""
    if "action" not in kw:
        convert = kw.setdefault("type", type(kw.get("default", "")))
        kw.setdefault("metavar", "INTEGER" if convert is int else "TEXT")
        if check is not None:
            kw["type"] = lambda text: check(flags[-1], convert(text))
            kw["type"].__name__ = convert.__name__  # argparse's "invalid int value"
    if type(kw.get("default")) is int:
        kw["help"] = "[default: %(default)s]"
    return flags, kw


SUBST, START = option("--subst", required=True), option("--start", required=True)
GROUP = option("--group", required=True, check=nonempty,
               help="cyclic:M, or a name that is only a label: the --images define the group")
IMAGES = option("--images", required=True)


def command(path: str, *options):
    """Register the decorated function as the command ``path`` ("shadow eval")."""

    def register(run):
        key = tuple(path.split())
        COMMANDS[key], DOCS[key] = (options, run), run.__doc__
        return run

    return register


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)  # main prints "error: ..." and exits 2


def new_parser(path: tuple[str, ...], options=()) -> Parser:
    parser = Parser(prog=" ".join(("minishift", *path)), description=DOCS[path],
                    add_help=False, allow_abbrev=False)
    for flags, kw in options:
        parser.add_argument(*flags, **kw)
    parser.add_argument("--help", action="help", help="Show this message and exit.")
    return parser


@command("subst", SUBST, option("--apply"), option("--iterate"),
         option("-k", "--power", default=1, check=nonnegative),
         option("--primitive", action="store_true"))
def subst_cmd(subst, apply, iterate, power, primitive):
    """Apply or iterate a substitution, or test primitivity."""
    sigma = Substitution.parse(subst)
    out = {"substitution": sigma.serialize()}
    if apply is not None:
        out["apply"] = sigma.apply(apply)
    if iterate is not None:
        out["iterate"] = sigma.iterate(iterate, power)
    if primitive:
        out["primitive"] = sigma.is_primitive()
    emit(out)


@command("factors", option("--subst"), option("--start"), option("--periodic", check=nonempty),
         option("--horizon", default=8, check=nonnegative),
         option("--complexity", type=int, check=nonnegative), option("--witness"))
def factors_cmd(subst, start, periodic, horizon, complexity, witness):
    """Certified factor set of a substitution fixed point or periodic word."""
    if periodic is not None:
        F = FactorSet.from_periodic(periodic, horizon)
    elif subst is not None and start is not None:
        F = build_factor_set(subst, start, horizon)
    else:
        raise ParseError("need --periodic or both --subst and --start")
    out = {"complete": F.complete, "factors": F.sorted_words(), "horizon": F.horizon}
    if complexity is not None:
        out["complexity"] = F.complexity(complexity)
    if witness is not None:
        out["witness"] = F.uniform_recurrence_witness(witness)
    emit(out)


@command("classify", SUBST, START, option("--maxlen", default=6, check=nonnegative),
         option("--word"), option("--dot", metavar="PATH"))
def classify_cmd(subst, start, maxlen, word, dot):
    """Tree/neutral classification of the factor set up to a length."""
    from . import extension as ext_mod

    F = build_factor_set(subst, start, maxlen + 2)
    cl = ext_mod.classify(F, maxlen)
    out = {"acyclic": cl.acyclic, "connected": cl.connected, "neutral": cl.neutral,
           "tree": cl.tree, "max_length": maxlen}
    if word is not None:
        F.certify(word=word)  # a non-factor is refused before extension_graph's horizon
        g = ext_mod.extension_graph(F, word)
        out["word"] = word
        out["multiplicity"] = g.multiplicity()
        if dot:
            with open(dot, "w") as fh:
                fh.write(g.to_dot())
    emit(out)


@command("returns", SUBST, START, option("--word", required=True),
         option("--horizon", default=32, check=nonnegative),
         option("--left", action="store_true"), option("--gamma", type=int, check=nonnegative))
def returns_cmd(subst, start, word, horizon, left, gamma):
    """Return words to a factor."""
    from . import returns as ret_mod

    F = build_factor_set(subst, start, horizon)
    out = {}
    if left:
        out["left"] = ret_mod.left_return_words(F, word).sorted_words()
    else:
        out["right"] = ret_mod.right_return_words(F, word).sorted_words()
    if gamma is not None:
        out["gamma"] = sorted(ret_mod.gamma(F, word, gamma), key=shortlex)
    emit(out)


@command("episturmian", option("--directive", required=True, check=nonempty),
         option("--word", check=nonempty), option("--pal"),
         option("--horizon", type=int, check=nonnegative))
def episturmian_cmd(directive, word, pal, horizon):
    """Palindromic closures and left return words of a directed word."""
    from . import episturmian as epi_mod

    out = {"directive": directive}
    if pal is not None:
        out["pal"] = epi_mod.pal(pal)
    if word is not None:
        out["left"] = sorted(epi_mod.episturmian_left_returns(directive, word), key=shortlex)
    if horizon is not None:
        F = epi_mod.episturmian_factor_set(directive, horizon)
        out["factors"] = F.sorted_words()
    emit(out)


@command("freegroup", option("--alphabet", dest="alphabet_text", required=True),
         option("--generators", required=True, help="comma-separated group words"),
         option("--member"), option("--separate"), option("--dot", metavar="PATH"))
def freegroup_cmd(alphabet_text, generators, member, separate, dot):
    """Folded subgroup graph: rank, index, membership, Hall separation."""
    from . import freegroup as fg_mod

    alphabet = Alphabet.of(alphabet_text)
    gens = [g for g in map(str.strip, generators.split(",")) if g]
    H = fg_mod.subgroup(gens, alphabet)
    out = {
        "rank": H.rank(),
        "index": H.index(),
        "generates": H.index() == 1,
        "basis": fg_mod.is_basis_of_free_group(gens, alphabet),
    }
    if member is not None:
        out["member"] = H.membership(H.check_word(member))  # membership("c") is False, no refusal
    if separate is not None:
        K = fg_mod.separating_subgroup(H, separate)
        out["separating_index"] = K.index()
        out["separated"] = not K.membership(separate)
        if dot:
            with open(dot, "w") as fh:
                fh.write(K.to_dot())
    elif dot:
        with open(dot, "w") as fh:
            fh.write(H.to_dot())
    emit(out)


@command("monoid", option("--code", required=True, help="comma-separated code words"),
         option("--subst"), option("--start"), option("--horizon", default=24, check=nonnegative),
         option("--eggbox", action="store_true", help="print the F-minimal eggbox as text"),
         option("--budget", default=DEFAULT_MONOID_BUDGET, check=at_least(1)))
def monoid_cmd(code, subst, start, horizon, eggbox, budget):
    """Transition monoid of the minimal automaton of a code's submonoid."""
    from . import bifix as bifix_mod
    from . import monoid as monoid_mod

    if (subst is None) != (start is None):
        raise ParseError("need both --subst and --start, or neither")
    if eggbox and subst is None:
        raise ParseError("--eggbox needs --subst and --start")
    words = {w.strip() for w in code.split(",") if w.strip()}
    A = bifix_mod.minimal_automaton_of_star(bifix_mod.BifixCode.of(words))
    M = monoid_mod.transition_monoid(A, budget)
    structure = monoid_mod.green(M)
    out = {"states": len(A.states), "monoid_size": len(M),
           "j_classes": len(structure.classes("J"))}
    if subst is not None:
        F = build_factor_set(subst, start, horizon)
        if eggbox:
            base = monoid_mod.f_min_rank_data(A, F)[1]
            print(structure.eggbox(structure.j_class[M.pos[A.transformation(base)]]))
            return
        G, base, image = monoid_mod.f_group(A, F)
        out["f_min_rank"] = len(image)
        out["f_group_order"] = G.order()
        out["f_group_generators"] = G.generator_cycles()
        out["minimal_image"] = list(image)
    emit(out)


@command("bifix", GROUP, option("--images", required=True,
                                help='"a=1,b=1" or "a:(1 2 3);b:(3 4 5)"'),
         option("--base-point"), SUBST, START, option("--horizon", default=24, check=nonnegative),
         option("--degree", action=argparse.BooleanOptionalAction, default=True,
                help="[default: degree]"))
def bifix_cmd(group, images, base_point, subst, start, horizon, degree):
    """Group code intersected with a factor set; F-degree and F-group."""
    from . import bifix as bifix_mod

    letters = Substitution.parse(subst).alphabet
    spec = group_spec_from_options(group, images, base_point, letters)
    F = build_factor_set(subst, start, horizon)
    X = bifix_mod.group_code_intersection(spec, F)
    out = {"code": X.sorted_words(), "size": len(X.words)}
    if degree:
        out["degree"] = bifix_mod.f_degree(X, F)
    emit(out)


@command("shadow eval", option("--expr", required=True),
         option("--subst-def", action="append", default=[], metavar="TEXT",
                help='"phi=a->ab;b->a"'), GROUP, IMAGES)
def shadow_eval_cmd(expr, subst_def, group, images):
    """Evaluate a pseudoword expression under a morphism."""
    from . import shadow as shadow_mod

    named = {}
    for d in subst_def:
        name, _, body = d.partition("=")
        if not name or not body:
            raise ParseError(f"bad substitution definition {d!r}")
        named[name.strip()] = Substitution.parse(body)
    tree = shadow_mod.parse_expression(expr, named)
    morphism = morphism_from_options(group, images, shadow_mod.expression_letters(tree))
    value = shadow_mod.evaluate(tree, morphism)
    emit({"expr": expr, "value": str(value)})


@command("shadow horder", SUBST, GROUP, IMAGES)
def shadow_horder_cmd(subst, group, images):
    """Least n with the substitution's action on letter images returning."""
    from . import shadow as shadow_mod

    sigma = Substitution.parse(subst)
    morphism = morphism_from_options(group, images, sigma.alphabet)
    result = shadow_mod.h_order(sigma, morphism)
    if isinstance(result, int):
        emit({"h_order": result})
    else:
        _, preperiod, period = result
        emit({"h_order": None, "preperiod": preperiod, "period": period})


COMMANDS["horder",] = COMMANDS["shadow", "horder"]


@command("shadow separate", option("--code", required=True, help="comma-separated code words"),
         option("--beta", required=True, help='"x=a,y=ab,z=bb"'), GROUP, IMAGES,
         option("-u", required=True), option("-v", required=True))
def shadow_separate_cmd(code, beta, group, images, u, v):
    """Matrix decoding morphism separating two differently valued words."""
    from . import shadow as shadow_mod

    X = {w.strip() for w in code.split(",") if w.strip()}
    bmap = parse_assignments(beta, ",", "=", "--beta entry")
    psi = morphism_from_options(group, images, bmap)
    report = shadow_mod.separation_witness(X, bmap, psi, u, v)

    def show(matrix):
        return [["." if e is None else str(e) for e in row] for row in matrix]

    emit({"prefixes": list(report.prefixes), "alpha_u": show(report.alpha_u),
          "alpha_v": show(report.alpha_v), "separated": report.separated,
          "decode_checks": report.decode_checks,
          "matrix_monoid_size": report.matrix_monoid_size})


@command("arith", option("--to-factorial", type=int),
         option("-k", "--precision", default=4, check=at_least(1)),
         option("--fib-mod", nargs=2, type=int), option("--fib-limit", type=int, check=at_least(2)),
         option("--offset", default=0))
def arith_cmd(to_factorial, precision, fib_mod, fib_limit, offset):
    """Factorial digits and modular Fibonacci limits."""
    from . import arith as arith_mod

    out = {}
    if to_factorial is not None:
        d = arith_mod.to_factorial(to_factorial, precision)
        out["digits"] = list(d.digits)
        out["display"] = str(d)
    if fib_mod:
        out["fib_mod"] = arith_mod.fib_mod(*fib_mod)
    if fib_limit is not None:
        out["fib_factorial_sequence"] = arith_mod.fib_factorial_limit(fib_limit, offset, 1, 12)
    if not out:
        raise ParseError("nothing to compute")
    emit(out)


def dispatch(argv: list[str]) -> None:
    """Run the command ``argv`` names; short of one, print a group's help or fail."""
    group = ("shadow",) if argv[:1] == ["shadow"] else ()
    path = tuple(argv[: len(group) + 1])
    if path in COMMANDS:
        options, run = COMMANDS[path]
        run(**vars(new_parser(path, options).parse_args(argv[len(path):])))
        return
    parser = new_parser(group)
    listing = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for sub in sorted(p for p in DOCS if p and p[:-1] == group):
        listing.add_parser(sub[-1], add_help=False, help=DOCS[sub])
    parser.parse_args(argv[len(group):])
    raise ParseError(f"no command in {' '.join(argv)!r}")  # a "--" before the command


def main() -> None:
    try:
        dispatch(sys.argv[1:])
    except (InsufficientHorizon, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_BUDGET)
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        sys.exit(EXIT_INTERNAL)
    except MinishiftError as exc:  # ParseError, usage errors and the other input errors
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(EXIT_PARSE)


if __name__ == "__main__":
    main()
