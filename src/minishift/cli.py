"""Command-line surface: one-shot deterministic computations, JSON output.

Each process runs one command, and start-up is most of its time, so the
module imports only ``errors`` and ``words`` at the top.  Every command and
helper imports the layer modules it runs where it runs them: ``arith`` never
compiles ``monoid``, and ``returns`` never compiles ``bifix``.
"""

from __future__ import annotations

import json
import sys
from typing import TYPE_CHECKING

import click

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
    click.echo(json.dumps(payload, sort_keys=True))


def at_least(low: int):
    """Click callback: an integer option may not be below ``low``."""

    def check(ctx, param, value):
        if value is not None and value < low:
            raise ParseError(f"{param.opts[-1]} must be at least {low}, got {value}")
        return value

    return check


nonnegative = at_least(0)  # horizons, lengths and powers


def nonempty(ctx, param, value):
    """Click callback: a word option that may not be empty."""
    if value == "":
        raise ParseError(f"{param.opts[-1]} must be nonempty")
    return value


def parse_word(text: str, letters, option: str) -> str:
    """``text`` if every letter of it is in ``letters``."""
    for c in text:
        if c not in letters:
            raise ParseError(f"{option}: letter {c!r} not in {''.join(letters)!r}")
    return text


def parse_factor(F: FactorSet, text: str, option: str) -> str:
    """``text`` if it is a factor of ``F``; too long for the horizon exits 3."""
    parse_word(text, F.alphabet, option)
    if len(text) > F.horizon:
        raise InsufficientHorizon(f"{option} {text!r} is longer than horizon {F.horizon}")
    if text not in F:
        raise ParseError(f"{option}: {text!r} is not a factor")
    return text


GROUP_HELP = "cyclic:M, or a name that is only a label: the --images define the group"


def parse_cyclic(group: str) -> int | None:
    """The modulus M of ``cyclic:M``, or None for a permutation group."""
    if not group.startswith("cyclic:"):
        return None
    text = group.split(":", 1)[1]
    if not (text.isascii() and text.isdigit() and int(text) >= 1):
        raise ParseError(f"--group: modulus in {group!r} must be a positive integer")
    return int(text)


def build_factor_set(subst: str, start: str, horizon: int) -> FactorSet:
    sigma = Substitution.parse(subst)
    if not start:
        raise ParseError("--start must be nonempty")
    return FactorSet.from_substitution(
        sigma, parse_word(start, sigma.alphabet, "--start"), horizon
    )


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
        points = {
            int(tok) if tok.lstrip("-").isdigit() else tok
            for text in cycles.values()
            for tok in text.replace("(", " ").replace(")", " ").split()
        }
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


@click.group()
def cli() -> None:
    """Finite computations on substitution shifts, return words and codes."""


@cli.command("subst")
@click.option("--subst", "subst_text", required=True)
@click.option("--apply", "apply_word", default=None)
@click.option("--iterate", "iterate_letter", default=None)
@click.option("-k", "--power", default=1, show_default=True, callback=nonnegative)
@click.option("--primitive", is_flag=True)
def subst_cmd(subst_text, apply_word, iterate_letter, power, primitive):
    """Apply or iterate a substitution, or test primitivity."""
    sigma = Substitution.parse(subst_text)
    out = {"substitution": sigma.serialize()}
    if apply_word is not None:
        out["apply"] = sigma.apply(parse_word(apply_word, sigma.alphabet, "--apply"))
    if iterate_letter is not None:
        word = parse_word(iterate_letter, sigma.alphabet, "--iterate")
        out["iterate"] = sigma.iterate(word, power)
    if primitive:
        out["primitive"] = sigma.is_primitive()
    emit(out)


@cli.command("factors")
@click.option("--subst", "subst_text", default=None)
@click.option("--start", default=None)
@click.option("--periodic", default=None, callback=nonempty)
@click.option("--horizon", default=8, show_default=True, callback=nonnegative)
@click.option("--complexity", "complexity_n", default=None, type=int, callback=nonnegative)
@click.option("--witness", "witness_word", default=None)
def factors_cmd(subst_text, start, periodic, horizon, complexity_n, witness_word):
    """Certified factor set of a substitution fixed point or periodic word."""
    if periodic is not None:
        F = FactorSet.from_periodic(periodic, horizon)
    elif subst_text is not None and start is not None:
        F = build_factor_set(subst_text, start, horizon)
    else:
        raise click.UsageError("need --periodic or both --subst and --start")
    out = json.loads(F.to_json())
    if complexity_n is not None:
        out["complexity"] = F.complexity(complexity_n)
    if witness_word is not None:
        word = parse_factor(F, witness_word, "--witness")
        out["witness"] = F.uniform_recurrence_witness(word)
    emit(out)


@cli.command("classify")
@click.option("--subst", "subst_text", required=True)
@click.option("--start", required=True)
@click.option("--maxlen", default=6, show_default=True, callback=nonnegative)
@click.option("--word", "graph_word", default=None)
@click.option("--dot", "dot_path", default=None, type=click.Path())
def classify_cmd(subst_text, start, maxlen, graph_word, dot_path):
    """Tree/neutral classification of the factor set up to a length."""
    from . import extension as ext_mod

    F = build_factor_set(subst_text, start, maxlen + 2)
    cl = ext_mod.classify(F, maxlen)
    out = {
        "acyclic": cl.acyclic,
        "connected": cl.connected,
        "neutral": cl.neutral,
        "tree": cl.tree,
        "max_length": maxlen,
    }
    if graph_word is not None:
        g = ext_mod.extension_graph(F, parse_factor(F, graph_word, "--word"))
        out["word"] = graph_word
        out["multiplicity"] = g.multiplicity()
        if dot_path:
            with open(dot_path, "w") as fh:
                fh.write(g.to_dot())
    emit(out)


@cli.command("returns")
@click.option("--subst", "subst_text", required=True)
@click.option("--start", required=True)
@click.option("--word", required=True)
@click.option("--horizon", default=32, show_default=True, callback=nonnegative)
@click.option("--left", is_flag=True)
@click.option("--gamma", "gamma_maxlen", default=None, type=int, callback=nonnegative)
def returns_cmd(subst_text, start, word, horizon, left, gamma_maxlen):
    """Return words to a factor."""
    from . import returns as ret_mod

    F = build_factor_set(subst_text, start, horizon)
    word = parse_factor(F, word, "--word")
    out = {}
    if left:
        out["left"] = ret_mod.left_return_words(F, word).sorted_words()
    else:
        out["right"] = ret_mod.right_return_words(F, word).sorted_words()
    if gamma_maxlen is not None:
        out["gamma"] = sorted(ret_mod.gamma(F, word, gamma_maxlen), key=shortlex)
    emit(out)


@cli.command("episturmian")
@click.option("--directive", required=True, callback=nonempty)
@click.option("--word", default=None, callback=nonempty)
@click.option("--pal", "pal_word", default=None)
@click.option("--horizon", default=None, type=int, callback=nonnegative)
def episturmian_cmd(directive, word, pal_word, horizon):
    """Palindromic closures and left return words of a directed word."""
    from . import episturmian as epi_mod

    out = {"directive": directive}
    if pal_word is not None:
        out["pal"] = epi_mod.pal(pal_word)
    if word is not None:
        word = parse_word(word, directive, "--word")
        out["left"] = sorted(epi_mod.episturmian_left_returns(directive, word), key=shortlex)
    if horizon is not None:
        F = epi_mod.episturmian_factor_set(directive, horizon)
        out["factors"] = F.sorted_words()
    emit(out)


@cli.command("freegroup")
@click.option("--alphabet", "alphabet_text", required=True)
@click.option("--generators", required=True, help="comma-separated group words")
@click.option("--member", default=None)
@click.option("--separate", default=None)
@click.option("--dot", "dot_path", default=None, type=click.Path())
def freegroup_cmd(alphabet_text, generators, member, separate, dot_path):
    """Folded subgroup graph: rank, index, membership, Hall separation."""
    from . import freegroup as fg_mod

    try:
        alphabet = Alphabet.of(alphabet_text)
    except ValueError as exc:
        raise ParseError(f"--alphabet: {exc}") from None
    for c in alphabet_text:
        if not c.islower():
            raise ParseError(f"--alphabet: letter {c!r} is not lowercase (capitals are inverses)")
    letters = alphabet_text + alphabet_text.upper()  # capitals are inverses
    gens = [parse_word(g.strip(), letters, "--generators") for g in generators.split(",")]
    gens = [g for g in gens if g]
    H = fg_mod.subgroup(gens, alphabet)
    out = {
        "rank": H.rank(),
        "index": H.index(),
        "generates": H.index() == 1,
        "basis": fg_mod.is_basis_of_free_group(gens, alphabet),
    }
    if member is not None:
        out["member"] = H.membership(parse_word(member, letters, "--member"))
    if separate is not None:
        K = fg_mod.separating_subgroup(H, parse_word(separate, letters, "--separate"))
        out["separating_index"] = K.index()
        out["separated"] = not K.membership(separate)
        if dot_path:
            with open(dot_path, "w") as fh:
                fh.write(K.to_dot())
    elif dot_path:
        with open(dot_path, "w") as fh:
            fh.write(H.to_dot())
    emit(out)


@cli.command("monoid")
@click.option("--code", required=True, help="comma-separated code words")
@click.option("--subst", "subst_text", default=None)
@click.option("--start", default=None)
@click.option("--horizon", default=24, show_default=True, callback=nonnegative)
@click.option("--eggbox", is_flag=True, help="print the F-minimal eggbox as text")
@click.option("--budget", default=DEFAULT_MONOID_BUDGET, show_default=True, callback=at_least(1))
def monoid_cmd(code, subst_text, start, horizon, eggbox, budget):
    """Transition monoid of the minimal automaton of a code's submonoid."""
    from . import bifix as bifix_mod
    from . import monoid as monoid_mod

    if (subst_text is None) != (start is None):
        raise click.UsageError("need both --subst and --start, or neither")
    if eggbox and subst_text is None:
        raise click.UsageError("--eggbox needs --subst and --start")
    words = {w.strip() for w in code.split(",") if w.strip()}
    if not words or not bifix_mod.is_bifix(words):
        raise ParseError(f"--code: {code!r} is not a nonempty bifix code")
    A = bifix_mod.minimal_automaton_of_star(bifix_mod.BifixCode.of(words))
    M = monoid_mod.transition_monoid(A, budget)
    structure = monoid_mod.green(M)
    out = {
        "states": len(A.states),
        "monoid_size": len(M),
        "j_classes": len(structure.classes("J")),
    }
    if subst_text is not None:
        F = build_factor_set(subst_text, start, horizon)
        parse_word("".join(F.alphabet), A.alphabet, "--subst")  # the code's letters
        G, base, image = monoid_mod.f_group(A, F)
        out["f_min_rank"] = len(image)
        out["f_group_order"] = G.order()
        out["f_group_generators"] = G.generator_cycles()
        out["minimal_image"] = list(image)
        if eggbox:
            t = A.transformation(base)
            cid = structure.j_class[M.pos[t]]
            click.echo(structure.eggbox(cid))
            return
    emit(out)


@cli.command("bifix")
@click.option("--group", required=True, callback=nonempty, help=GROUP_HELP)
@click.option("--images", required=True, help='"a=1,b=1" or "a:(1 2 3);b:(3 4 5)"')
@click.option("--base-point", default=None)
@click.option("--subst", "subst_text", required=True)
@click.option("--start", required=True)
@click.option("--horizon", default=24, show_default=True, callback=nonnegative)
@click.option("--degree/--no-degree", default=True, show_default=True)
def bifix_cmd(group, images, base_point, subst_text, start, horizon, degree):
    """Group code intersected with a factor set; F-degree and F-group."""
    from . import bifix as bifix_mod

    letters = Substitution.parse(subst_text).alphabet
    spec = group_spec_from_options(group, images, base_point, letters)
    F = build_factor_set(subst_text, start, horizon)
    X = bifix_mod.group_code_intersection(spec, F)
    out = {"code": X.sorted_words(), "size": len(X.words)}
    if degree:
        out["degree"] = bifix_mod.f_degree(X, F)
    emit(out)


@cli.group("shadow")
def shadow_group() -> None:
    """Pseudoword evaluation, h-orders and separation witnesses."""


@shadow_group.command("eval")
@click.option("--expr", required=True)
@click.option("--subst-def", "subst_defs", multiple=True, help='"phi=a->ab;b->a"')
@click.option("--group", required=True, callback=nonempty, help=GROUP_HELP)
@click.option("--images", required=True)
def shadow_eval_cmd(expr, subst_defs, group, images):
    """Evaluate a pseudoword expression under a morphism."""
    from . import shadow as shadow_mod

    named = {}
    for d in subst_defs:
        name, _, body = d.partition("=")
        if not name or not body:
            raise ParseError(f"bad substitution definition {d!r}")
        named[name.strip()] = Substitution.parse(body)
    tree = shadow_mod.parse_expression(expr, named)
    morphism = morphism_from_options(group, images, shadow_mod.expression_letters(tree))
    value = shadow_mod.evaluate(tree, morphism)
    emit({"expr": expr, "value": str(value)})


@shadow_group.command("horder")
@click.option("--subst", "subst_text", required=True)
@click.option("--group", required=True, callback=nonempty, help=GROUP_HELP)
@click.option("--images", required=True)
def shadow_horder_cmd(subst_text, group, images):
    """Least n with the substitution's action on letter images returning."""
    from . import shadow as shadow_mod

    sigma = Substitution.parse(subst_text)
    morphism = morphism_from_options(group, images, sigma.alphabet)
    result = shadow_mod.h_order(sigma, morphism)
    if isinstance(result, int):
        emit({"h_order": result})
    else:
        _, preperiod, period = result
        emit({"h_order": None, "preperiod": preperiod, "period": period})


cli.add_command(click.Command("horder", help="Shortcut for 'shadow horder'.",
                              callback=shadow_horder_cmd.callback, params=shadow_horder_cmd.params))


@shadow_group.command("separate")
@click.option("--code", required=True, help="comma-separated code words")
@click.option("--beta", required=True, help='"x=a,y=ab,z=bb"')
@click.option("--group", required=True, callback=nonempty, help=GROUP_HELP)
@click.option("--images", required=True)
@click.option("-u", required=True)
@click.option("-v", required=True)
def shadow_separate_cmd(code, beta, group, images, u, v):
    """Matrix decoding morphism separating two differently valued words."""
    from . import shadow as shadow_mod

    X = {w.strip() for w in code.split(",") if w.strip()}
    bmap = parse_assignments(beta, ",", "=", "--beta entry")
    if sorted(bmap.values()) != sorted(X):
        raise ParseError("--beta must map its letters one-to-one onto --code")
    psi = morphism_from_options(group, images, bmap)
    report = shadow_mod.separation_witness(
        X, bmap, psi, parse_word(u, bmap, "-u"), parse_word(v, bmap, "-v")
    )
    click.echo(report.to_json())


@cli.command("arith")
@click.option("--to-factorial", "to_fact", default=None, type=int)
@click.option("-k", "--precision", default=4, show_default=True, callback=at_least(1))
@click.option("--fib-mod", "fib_args", default=None, nargs=2, type=int)
@click.option("--fib-limit", "fib_limit_mod", default=None, type=int, callback=at_least(2))
@click.option("--offset", default=0, show_default=True)
def arith_cmd(to_fact, precision, fib_args, fib_limit_mod, offset):
    """Factorial digits and modular Fibonacci limits."""
    from . import arith as arith_mod

    out = {}
    if to_fact is not None:
        d = arith_mod.to_factorial(to_fact, precision)
        out["digits"] = list(d.digits)
        out["display"] = str(d)
    if fib_args:
        n, m = fib_args
        if m < 2:
            raise ParseError(f"--fib-mod: modulus must be at least 2, got {m}")
        out["fib_mod"] = arith_mod.fib_mod(n, m)
    if fib_limit_mod is not None:
        out["fib_factorial_sequence"] = arith_mod.fib_factorial_limit(
            fib_limit_mod, offset, 1, 12
        )
    if not out:
        raise click.UsageError("nothing to compute")
    emit(out)


def main() -> None:
    try:
        cli.main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(EXIT_PARSE)
    except click.ClickException as exc:
        exc.show()
        sys.exit(EXIT_PARSE)
    except click.exceptions.Abort:
        sys.exit(EXIT_PARSE)
    except (InsufficientHorizon, BudgetExceeded) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_BUDGET)
    except InternalInvariantError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(EXIT_INTERNAL)
    except MinishiftError as exc:  # ParseError and the other input errors
        click.echo(f"error: {exc}", err=True)
        sys.exit(EXIT_PARSE)


if __name__ == "__main__":
    main()
