"""The four workloads: seeded inputs, set-up, timed operations and their oracles.

Each workload object is built from a seed and offers:

- ``setup()``: the timed set-up (parsing, building the certified sets an
  operation reads); it returns a context;
- ``prepare(ctx)``: untimed, returns the list of :class:`Op` and computes
  what the oracles need;
- ``fresh(ctx)``: untimed, the per-pass environment.  Sets are deep-copied
  from pristine ones so that every pass starts from the state a user gets
  right after building, and lazily built indexes are paid inside the pass.

An op's ``check`` returns ``"ok"``, ``"escape"`` (output equal to the one
recorded at the seed commit for a known defect: a CLI contract escape or an
incomplete episturmian set) or ``"fail: why"``.
"""

from __future__ import annotations

import copy
import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

FIXTURES = {
    "fib": "a->ab;b->a",
    "tm": "a->ab;b->ba",
    "trib": "a->ab;b->ac;c->a",
    "quad": "a->ab;b->aaab",
}


def images_of(text: str) -> dict[str, str]:
    return dict(part.split("->") for part in text.split(";"))


def shortlex_sorted(words) -> list[str]:
    return sorted(words, key=lambda w: (len(w), w))


@dataclass
class Op:
    key: str
    layer: str
    fn: Callable[[dict], Any]
    check: Callable[[tuple], str]
    canon: Callable[[Any], Any] = repr

    def canonical(self, outcome: tuple):
        if outcome[0] == "ok":
            return ("ok", self.canon(outcome[1]))
        return outcome[:2]


def expect_ok(outcome: tuple) -> str | None:
    """A failure verdict for an unexpected exception, else None."""
    if outcome[0] != "ok":
        return f"fail: raised {outcome[1]}: {outcome[2][:200]}"
    return None


def random_primitive(rng: random.Random, Substitution, Alphabet) -> str:
    """A primitive substitution on 2-3 letters with images of length <= 4."""
    while True:
        letters = "abc"[: rng.choice((2, 3))]
        images = {
            c: "".join(rng.choice(letters) for _ in range(rng.randint(1, 4)))
            for c in letters
        }
        if Substitution(Alphabet.of(letters), images).is_primitive():
            return ";".join(f"{c}->{images[c]}" for c in letters)


def random_directive(rng: random.Random) -> str:
    """A directive unit of length 3-5 over ab or abc using every letter."""
    letters = rng.choice(("ab", "abc"))
    while True:
        unit = "".join(rng.choice(letters) for _ in range(rng.randint(3, 5)))
        if set(unit) == set(letters):
            return unit


EPI_BUILD_HORIZON = {False: 16, True: 8}


def epi_build_op(unit: str, L: int, goldens: dict) -> "Op":
    """Time ``episturmian_factor_set(unit * 20, L)`` and check it against the word.

    At the seed commit the set misses factors for some units with a run of
    one letter longer than the alphabet, e.g. baaa, while claiming to be
    complete.  Output equal to the recorded seed-commit digest is that
    known defect ("escape"); any other incomplete set is a failure.
    """
    from minishift import episturmian

    key = f"{unit}:{L}"

    def fn(env):
        F = episturmian.episturmian_factor_set(unit * 20, L)
        return F, [F.words_of_length(n) for n in range(L + 1)]

    def check(outcome):
        bad = expect_ok(outcome)
        if bad:
            return bad
        F, words = outcome[1]
        prefix = oracle.palindromic_prefix(unit, 8 * L + 64)
        problems, counts = oracle.check_factor_set(
            F.factors, words, prefix, L, "".join(sorted(set(unit))))
        if not problems:
            return "ok"
        if goldens.get("episturmian", {}).get(key) == oracle.complexity_digest(counts):
            return "escape"
        return "fail: " + "; ".join(problems)

    return Op(f"epibuild:{key}", "episturmian", fn, check,
              canon=lambda r: (len(r[0]), hash(tuple(r[1]))))


class Workload:
    name = ""

    def __init__(self, seed: int, tiny: bool, goldens: dict) -> None:
        self.seed = seed
        self.tiny = tiny
        self.goldens = goldens
        self.tracer = None

    def fresh(self, ctx) -> dict:
        return {}


# ---------------------------------------------------------------- factor-ladder


class FactorLadder(Workload):
    name = "factor-ladder"
    # Every start letter at the dense low horizons, so op costs form a
    # continuum around the median; start "a" alone climbs to the expensive ones.
    DENSE = (16, 20, 24, 28, 32)
    HIGH = {"fib": (48, 64, 96, 128), "tm": (40, 48, 64),
            "trib": (40, 48, 64), "quad": (40, 48, 64)}
    # Seeded random substitutions are built at a small horizon: their cost
    # then stays below the ladder's median, so the seed does not move p50.
    RANDOM = (12, 8)  # count, horizon

    def setup(self):
        from minishift.words import Alphabet, FactorSet, Substitution

        rng = random.Random(self.seed)
        dense, high = (self.DENSE[:2], {"fib": (12,)}) if self.tiny else (self.DENSE, self.HIGH)
        count, horizon = (2, 6) if self.tiny else self.RANDOM
        entries = []
        for name, text in FIXTURES.items():
            sigma = Substitution.parse(text)
            for start in sigma.alphabet:
                for L in dense:
                    entries.append((f"{name}:{start}:{L}", text, sigma, start, L))
            for L in high.get(name, ()):
                entries.append((f"{name}:a:{L}", text, sigma, "a", L))
        for _ in range(count):
            text = random_primitive(rng, Substitution, Alphabet)
            sigma = Substitution.parse(text)
            start = rng.choice(sigma.alphabet.letters)
            entries.append((f"{text}:{start}:{horizon}", text, sigma, start, horizon))
        # warm the interpreter's specialised bytecode on one small build per fixture
        warm = 8 if self.tiny else 24
        for name, text in FIXTURES.items():
            FactorSet.from_substitution(Substitution.parse(text), "a", warm).words_of_length(warm)
        return entries

    def prepare(self, entries):
        from minishift.words import FactorSet

        digests = self.goldens.get("complexity", {})
        ops = []
        for key, text, sigma, start, L in entries:
            def fn(env, sigma=sigma, start=start, L=L):
                F = FactorSet.from_substitution(sigma, start, L)
                return F, [F.words_of_length(n) for n in range(L + 1)]

            def check(outcome, key=key, text=text, start=start, L=L):
                bad = expect_ok(outcome)
                if bad:
                    return bad
                F, words = outcome[1]
                images = images_of(text)
                prefix = oracle.iterate_to_length(images, start, 8 * L + 64)
                problems, counts = oracle.check_factor_set(
                    F.factors, words, prefix, L, "".join(sorted(images)))
                if F.horizon != L or not F.complete:
                    problems.append("horizon or certificate wrong")
                want = digests.get(key)
                if want is not None and want != oracle.complexity_digest(counts):
                    problems.append("complexity differs from the seed commit")
                return "fail: " + "; ".join(problems) if problems else "ok"

            ops.append(Op(f"build:{key}", "words", fn, check,
                          canon=lambda r: (len(r[0]), hash(tuple(r[1])))))
        return ops


# ---------------------------------------------------------------- query-sweep


class QuerySweep(Workload):
    name = "query-sweep"

    def __init__(self, seed, tiny, goldens):
        super().__init__(seed, tiny, goldens)
        rng = random.Random(self.seed)
        # The set read by the queries is directed by an ordering of its
        # alphabet, repeated; the timed episturmian builds take any unit.
        # Sizes are fixed so that the seed changes the words, not the op count.
        letters = list("abc")
        rng.shuffle(letters)
        self.directive = "".join(letters)
        self.epi_units = [random_directive(rng) for _ in range(2 if tiny else 4)]
        while True:
            word = "".join(rng.choice("abc") for _ in range(7))
            if set(word) == set("abc"):
                break
        self.periodic = word
        if tiny:
            self.horizons, self.maxlen, self.classify_len = (12, 20), 4, 4
            self.gamma, self.epi_len, self.prefix = (1, 3), 3, 2000
        else:
            self.horizons, self.maxlen, self.classify_len = (64, 96), 16, 30
            self.gamma, self.epi_len, self.prefix = (2, 8), 8, 16384
        self.epi_horizon = EPI_BUILD_HORIZON[tiny]

    def setup(self):
        from minishift import episturmian
        from minishift.words import FactorSet, Substitution

        sets = {}
        for name, text in FIXTURES.items():
            sigma = Substitution.parse(text)
            for L in self.horizons:
                sets[(name, L)] = FactorSet.from_substitution(sigma, "a", L)
        L = self.horizons[0]
        sets[("epi", L)] = episturmian.episturmian_factor_set(self.directive * 20, L)
        sets[("per", L)] = FactorSet.from_periodic(self.periodic, L)
        return sets

    def fresh(self, sets):
        return {k: copy.deepcopy(F) for k, F in sets.items()}

    def _prefix(self, name: str) -> str:
        if name == "epi":
            return oracle.palindromic_prefix(self.directive, self.prefix)
        if name == "per":
            return (self.periodic * (self.prefix // len(self.periodic) + 1))[: self.prefix]
        return oracle.iterate_to_length(images_of(FIXTURES[name]), "a", self.prefix)

    def prepare(self, sets):
        # library calls go through the modules, so installed span wrappers see them
        from minishift import episturmian, extension, freegroup, returns

        prefixes = {name: self._prefix(name) for name in {name for name, _ in sets}}
        scans = {name: oracle.return_scan(prefix, max(self.maxlen, self.epi_len))
                 for name, prefix in prefixes.items()}
        ops = []
        for (name, L), F in sets.items():
            label = f"{name}@{L}"
            letters = "".join(F.alphabet.letters)
            scan = scans[name]
            # the set itself is checked once, on a copy so its lazy index stays cold
            probe = copy.deepcopy(F)
            problems, _ = oracle.check_factor_set(
                F.factors, [probe.words_of_length(n) for n in range(L + 1)],
                prefixes[name], L, letters)
            if problems:
                raise RuntimeError(f"set-up built a wrong factor set {label}: {problems}")
            xs = shortlex_sorted(w for w in F.factors if 1 <= len(w) <= self.maxlen)
            for x in xs:
                if x not in scan:
                    raise RuntimeError(f"oracle prefix too short for {x!r} in {label}")
                right, left, witness = scan[x]
                answerable = witness + 1 <= L

                def judge(outcome, want, answerable=answerable, x=x):
                    if outcome[0] == "raise":
                        if outcome[1] == "InsufficientHorizon" and not answerable:
                            return "ok"
                        return f"fail: raised {outcome[1]} for {x!r}"
                    if not answerable:
                        return f"fail: answered {x!r} beyond the certified horizon"
                    got = outcome[1]
                    if got.base != x or set(got.words) != want:
                        return f"fail: return words of {x!r} differ from the prefix scan"
                    return "ok"

                ops.append(Op(f"right:{label}:{x}", "returns",
                              lambda env, k=(name, L), x=x: returns.right_return_words(env[k], x),
                              lambda o, j=judge, w=right: j(o, w),
                              canon=lambda r: r.words))
                ops.append(Op(f"left:{label}:{x}", "returns",
                              lambda env, k=(name, L), x=x: returns.left_return_words(env[k], x),
                              lambda o, j=judge, w=left: j(o, w),
                              canon=lambda r: r.words))
                if answerable:
                    gens = shortlex_sorted(right)
                    want = oracle.is_free_basis(gens, letters)
                    ops.append(Op(f"basis:{label}:{x}", "freegroup",
                                  lambda env, g=gens, A=F.alphabet: freegroup.is_basis_of_free_group(g, A),
                                  lambda o, w=want: expect_ok(o) or (
                                      "ok" if o[1] == w else "fail: basis verdict differs"),
                                  canon=bool))
            if self.classify_len <= L - 2:
                flags = oracle.classify_flags(F.factors, letters, self.classify_len)
                count = sum(1 for w in F.factors if len(w) <= self.classify_len)

                def check_classify(o, flags=flags, count=count):
                    bad = expect_ok(o)
                    if bad:
                        return bad
                    cl = o[1]
                    got = (cl.neutral, cl.connected, cl.acyclic)
                    if got != flags or len(cl.records) != count:
                        return f"fail: classification {got} differs from {flags}"
                    return "ok"

                ops.append(Op(f"classify:{label}", "extension",
                              lambda env, k=(name, L): extension.classify(env[k], self.classify_len),
                              check_classify,
                              canon=lambda c: (c.neutral, c.connected, c.acyclic, len(c.records))))
            for x in xs:
                if len(x) > self.gamma[0]:
                    break
                ops.append(Op(f"gamma:{label}:{x}", "returns",
                              lambda env, k=(name, L), x=x: returns.check_gamma_identity(
                                  env[k], x, self.gamma[1]),
                              lambda o: expect_ok(o) or (
                                  "ok" if o[1] is True else "fail: gamma identity false"),
                              canon=bool))
            if name == "epi":
                directive = self.directive * 20
                for u in xs:
                    if len(u) > self.epi_len:
                        break
                    ops.append(Op(f"epileft:{label}:{u}", "episturmian",
                                  lambda env, u=u: episturmian.episturmian_left_returns(directive, u),
                                  lambda o, w=scan[u][1]: expect_ok(o) or (
                                      "ok" if o[1] == w else "fail: left returns differ"),
                                  canon=frozenset))
        ops += [epi_build_op(unit, self.epi_horizon, self.goldens) for unit in self.epi_units]
        return ops


# ---------------------------------------------------------------- code-algebra

SPECS = {
    "A5": ((1, 2, 3, 4, 5), {"a": "(1 2 3)", "b": "(3 4 5)"}, 1),
    "c2": (2, {"a": 1, "b": 1}),
    "c3": (3, {"a": 1, "b": 2}),
}
# (fixture, horizon, group specs, specs whose transition monoid is built)
PAIRS = [
    ("fib", 24, ("A5", "c2", "c3"), ("c2", "c3")),
    ("fib", 40, ("A5", "c2", "c3"), ("A5",)),
    ("tm", 24, ("c2", "c3"), ("c2", "c3")),
    ("tm", 40, ("A5", "c2", "c3"), ("c3",)),
    ("tm", 64, ("A5", "c2", "c3"), ("A5",)),
    ("quad", 32, ("A5", "c2", "c3"), ("A5", "c2", "c3")),
    ("quad", 64, ("A5", "c2", "c3"), ("A5",)),
]
TINY_PAIRS = [("fib", 16, ("c2",), ("c2",)), ("quad", 24, ("A5",), ())]
MONOID_BUDGET = 30000
# Values pinned by the acceptance tests, by op key.
PINNED = {
    "fdeg:fib@24:c2": 2, "fdeg:quad@32:A5": 5, "fdeg:quad@64:A5": 5,
    "gci:fib@24:c2": ["aa", "ab", "ba"],
    "mina:tm@40:c3": 11, "fmin:tm@40:c3": 3,
    "fgroup:quad@32:A5@aaa": 60, "fgroup:tm@40:c3@aa": 1,
    "fgroup:tm@64:A5@abbabaabbaababba": 60, "fgroup:fib@24:c2": 2,
    "monoid:quad@32:A5": 25768,
    "horder:fib:c2": 3, "horder:tm:A5": 6, "horder:quad:A5": 12,
    "horder:quad:c2": [None, 1, 1],
}
BASES = {("quad", 32, "A5"): "aaa", ("tm", 40, "c3"): "aa",
         ("tm", 64, "A5"): "abbabaabbaababba"}
# Generating pairs as images of 1..5: a=(1 2 3), b=(3 4 5) generate A5;
# a=(1 2 3 4 5), b=(1 2) generate S5.  Seeds relabel their points.
RELABELED_PAIRS = [((2, 3, 1, 4, 5), (1, 2, 4, 5, 3)), ((2, 3, 4, 5, 1), (2, 1, 3, 4, 5))]
# Pseudoword trees ('L', a) | ('C', x, y) | ('W', x) | ('S', name, a) with letters x, y.
EXPRESSION_SHAPES = (
    lambda x, y: ("W", ("L", x)),
    lambda x, y: ("C", ("L", x), ("W", ("L", y))),
    lambda x, y: ("W", ("C", ("L", x), ("L", y))),
    lambda x, y: ("C", ("S", "fib", x), ("L", y)),
    lambda x, y: ("W", ("C", ("S", "tm", x), ("W", ("L", y)))),
    lambda x, y: ("C", ("W", ("S", "quad", x)), ("C", ("L", y), ("L", x))),
)


class CodeAlgebra(Workload):
    name = "code-algebra"

    def __init__(self, seed, tiny, goldens):
        super().__init__(seed, tiny, goldens)
        rng = random.Random(self.seed)
        # The seed relabels the points of fixed generating pairs and picks
        # the letters of fixed expression shapes: each seeded op then costs
        # the same on every seed, so the seed cannot move op_p50_ms by
        # carrying ops across the median (random permutations and trees
        # moved it by up to half).
        self.random_perms = []
        for pair in RELABELED_PAIRS[: 1 if tiny else 2]:
            pts = [1, 2, 3, 4, 5]
            rng.shuffle(pts)
            # the conjugate p' = pi p pi^-1 with pi(i) = pts[i - 1], as images of 1..5
            self.random_perms.append([tuple(pts[p[pts.index(j)] - 1] for j in range(1, 6))
                                      for p in pair])
        self.expressions = [shape(rng.choice("ab"), rng.choice("ab"))
                            for shape in EXPRESSION_SHAPES[: 2 if tiny else 6]]
        self.fib_params = [
            (rng.choice((6, 24, 120, 720, rng.randint(2, 400))), rng.randint(0, 3),
             1, rng.randint(8, 16))
            for _ in range(2 if tiny else 8)
        ]

    @staticmethod
    def _render(e) -> str:
        if e[0] == "L":
            return e[1]
        if e[0] == "S":
            return f"subst^w({e[1]}, {e[2]})"
        if e[0] == "C":
            return f"({CodeAlgebra._render(e[1])} {CodeAlgebra._render(e[2])})"
        return f"({CodeAlgebra._render(e[1])})^w"

    def setup(self):
        from minishift.bifix import GroupCodeSpec
        from minishift.monoid import cyclic_monoid, monoid_from_permutations, parse_permutation
        from minishift.shadow import MorphismToFinite
        from minishift.words import FactorSet, Substitution

        substs = {name: Substitution.parse(text) for name, text in FIXTURES.items()}
        sets, specs = {}, {}
        for name, L, spec_names, _ in (TINY_PAIRS if self.tiny else PAIRS):
            sets[(name, L)] = FactorSet.from_substitution(substs[name], "a", L)
        for key, spec in SPECS.items():
            if key == "A5":
                specs[key] = GroupCodeSpec.from_cycles(spec[0], spec[1], base_point=spec[2])
            else:
                specs[key] = GroupCodeSpec.cyclic(spec[0], spec[1])
        dom = (1, 2, 3, 4, 5)
        morphisms = {}
        perm_sets = {"A5": {a: parse_permutation(t, dom) for a, t in SPECS["A5"][1].items()}}
        for i, (pa, pb) in enumerate(self.random_perms):
            perm_sets[f"r{i}"] = {"a": dict(zip(dom, pa)), "b": dict(zip(dom, pb))}
        for key, perms in perm_sets.items():
            M = monoid_from_permutations(perms, dom)
            morphisms[key] = MorphismToFinite(M, {a: M.image_of_word(a) for a in "ab"})
        for key in ("c2", "c3"):
            m, weights = SPECS[key]
            morphisms[key] = MorphismToFinite(cyclic_monoid(m), dict(weights))
        for k in (3, 4, 5):
            morphisms[f"z{k}!"] = MorphismToFinite(cyclic_monoid(math.factorial(k)),
                                                   {"a": 1, "b": 1})
        return {"substs": substs, "sets": sets, "specs": specs, "morphisms": morphisms}

    def fresh(self, ctx):
        return {k: copy.deepcopy(F) for k, F in ctx["sets"].items()}

    # -- oracles over plain tuples -----------------------------------------

    @staticmethod
    def _oracle_images(spec_key):
        if spec_key == "A5":
            dom, cycles, base = SPECS["A5"]
            return {a: oracle.parse_cycles(t, dom) for a, t in cycles.items()}, dom.index(base)
        m, weights = SPECS[spec_key]
        return {a: tuple((p + k) % m for p in range(m)) for a, k in weights.items()}, 0

    def _oracle_morphism(self, key):
        """(letter images, multiplication) with the monoid written by hand."""
        if key in ("c2", "c3"):
            m, weights = SPECS[key]
            return dict(weights), lambda x, y: (x + y) % m
        if key.startswith("z"):
            m = math.factorial(int(key[1]))
            return {"a": 1, "b": 1}, lambda x, y: (x + y) % m
        if key == "A5":
            imgs = {a: oracle.parse_cycles(t, (1, 2, 3, 4, 5)) for a, t in SPECS["A5"][1].items()}
        else:
            pa, pb = self.random_perms[int(key[1:])]
            imgs = {"a": tuple(p - 1 for p in pa), "b": tuple(p - 1 for p in pb)}
        return imgs, lambda x, y: tuple(y[i] for i in x)

    def _oracle_value(self, e, imgs, mul):
        if e[0] == "L":
            return imgs[e[1]]
        if e[0] == "C":
            return mul(self._oracle_value(e[1], imgs, mul), self._oracle_value(e[2], imgs, mul))
        if e[0] == "W":
            s = self._oracle_value(e[1], imgs, mul)
            p = s
            while mul(p, p) != p:
                p = mul(p, s)
            return p
        # the n!-th iterate for n large enough that n! is past the preperiod
        # and a multiple of the period of the letter-image orbit
        orbit, pre, period = oracle.image_orbit(images_of(FIXTURES[e[1]]), imgs, mul)
        big = math.factorial(max(pre, period, 1))
        return orbit[pre + (big - pre) % period][e[2]]

    def _golden(self, key, got):
        """Compare with the acceptance-test pin, and with the seed-commit golden."""
        got = json.loads(json.dumps(got))
        pinned = PINNED.get(key)
        golden = self.goldens.get("code_algebra", {}).get(key)
        if pinned is None and golden is None:
            return "fail: no recorded value for this op"
        head = got[0] if key.startswith(("fgroup:", "monoid:", "fmin:")) and isinstance(got, list) else got
        if pinned is not None and head != pinned:
            return f"fail: {head!r} != pinned {pinned!r}"
        if golden is not None and got != golden:
            return f"fail: {got!r} != recorded {golden!r}"
        return "ok"

    def prepare(self, ctx):
        # library calls go through the modules, so installed span wrappers see them
        from minishift import arith, bifix, monoid, shadow

        ops = []
        summary = self.golden_summary
        for name, L, spec_names, monoid_specs in (TINY_PAIRS if self.tiny else PAIRS):
            F = ctx["sets"][(name, L)]
            letters = "".join(F.alphabet.letters)
            probe = copy.deepcopy(F)  # keeps the pristine set's lazy index cold
            problems, _ = oracle.check_factor_set(
                F.factors, [probe.words_of_length(n) for n in range(L + 1)],
                oracle.iterate_to_length(images_of(FIXTURES[name]), "a", 8 * L + 64),
                L, letters)
            if problems:
                raise RuntimeError(f"set-up built a wrong factor set {name}@{L}: {problems}")
            short = [w for w in F.factors if len(w) <= 12]
            for sk in spec_names:
                label = f"{name}@{L}:{sk}"
                imgs, base = self._oracle_images(sk)
                want_code = oracle.group_code_words(F.factors, imgs, base)
                Xk, Ak = ("X", label), ("A", label)

                def gci(env, k=(name, L), sk=sk, Xk=Xk):
                    env[Xk] = bifix.group_code_intersection(ctx["specs"][sk], env[k])
                    return env[Xk]

                def check_gci(o, want=want_code, key=f"gci:{label}"):
                    bad = expect_ok(o)
                    if bad:
                        return bad
                    if set(o[1].words) != want:
                        return "fail: group code words differ from the walk oracle"
                    return self._golden(key, summary("gci", o[1])) if key in PINNED else "ok"

                ops.append(Op(f"gci:{label}", "bifix", gci, check_gci, canon=lambda X: X.words))

                def mina(env, Xk=Xk, Ak=Ak):
                    env[Ak] = bifix.minimal_automaton_of_star(env[Xk])
                    return env[Ak]

                def check_mina(o, short=short, want=want_code, key=f"mina:{label}"):
                    bad = expect_ok(o)
                    if bad:
                        return bad
                    A = o[1]
                    for w in short:
                        if A.accepts(w) != oracle.in_star(w, want):
                            return f"fail: automaton disagrees with X* on {w!r}"
                    return self._golden(key, summary("mina", A))

                ops.append(Op(f"mina:{label}", "bifix", mina, check_mina,
                              canon=lambda A: (len(A.states), tuple(sorted(A.transitions.items())))))
                ops.append(Op(f"fdeg:{label}", "bifix",
                              lambda env, k=(name, L), Xk=Xk: bifix.f_degree(env[Xk], env[k]),
                              lambda o, key=f"fdeg:{label}": expect_ok(o) or self._golden(key, o[1]),
                              canon=int))
                ops.append(Op(f"fmin:{label}", "monoid",
                              lambda env, k=(name, L), Ak=Ak: monoid.f_min_rank_data(env[Ak], env[k]),
                              lambda o, key=f"fmin:{label}": expect_ok(o) or self._golden(
                                  key, summary("fmin", o[1])),
                              canon=lambda r: (r[0], r[1], frozenset(r[2]))))
                base_word = BASES.get((name, L, sk))
                fkey = f"fgroup:{label}" + (f"@{base_word}" if base_word else "")

                def fgroup(env, k=(name, L), Ak=Ak, base_word=base_word):
                    G, word, image = monoid.f_group(env[Ak], env[k], base=base_word)
                    return G.order(), G.generator_cycles(), word, list(image)

                ops.append(Op(fkey, "monoid", fgroup,
                              lambda o, key=fkey: expect_ok(o) or self._golden(key, list(o[1])),
                              canon=repr))
                if sk in monoid_specs:
                    def monoid_op(env, Ak=Ak):
                        M = monoid.transition_monoid(env[Ak], MONOID_BUDGET)
                        S = monoid.green(M)
                        return len(M), len(S.classes("J"))

                    def check_monoid(o, key=f"monoid:{label}"):
                        if o[0] == "raise":
                            if o[1] != "BudgetExceeded":
                                return f"fail: raised {o[1]}"
                            return self._golden(key, "BudgetExceeded")
                        return self._golden(key, list(o[1]))

                    ops.append(Op(f"monoid:{label}", "monoid", monoid_op, check_monoid, canon=repr))

        morphisms, substs = ctx["morphisms"], ctx["substs"]
        horder_keys = ["A5", "c2", "c3"] + [f"r{i}" for i in range(len(self.random_perms))]
        for sname in ("fib", "tm", "quad"):
            for mk in horder_keys:
                imgs, mul = self._oracle_morphism(mk)
                want = oracle.h_order(images_of(FIXTURES[sname]), imgs, mul)
                key = f"horder:{sname}:{mk}"

                def check_h(o, want=want, key=key):
                    bad = expect_ok(o)
                    if bad:
                        return bad
                    got = list(o[1]) if isinstance(o[1], tuple) else o[1]
                    want_j = list(want) if isinstance(want, tuple) else want
                    if got != want_j:
                        return f"fail: h_order {got} != {want_j}"
                    return self._golden(key, got) if key in PINNED else "ok"

                ops.append(Op(key, "shadow",
                              lambda env, s=substs[sname], m=morphisms[mk]: shadow.h_order(s, m),
                              check_h))
        named = {k: substs[k] for k in ("fib", "tm", "quad")}
        exprs = [(f"expr:{i}:{mk}", self._render(e), e, mk)
                 for i, e in enumerate(self.expressions)
                 for mk in ("A5", "c3", "r0")]
        exprs += [(f"expr:pinned:z{k}!", "subst^w(fib, a)", ("S", "fib", "a"), f"z{k}!")
                  for k in (3, 4, 5)]
        for key, text, tree, mk in exprs:
            imgs, mul = self._oracle_morphism(mk)
            want = self._oracle_value(tree, imgs, mul)
            if key.startswith("expr:pinned"):
                want_check = lambda got, want=want: got == want == 1
            else:
                want_check = lambda got, want=want: got == want
            ops.append(Op(key, "shadow",
                          lambda env, t=text, m=morphisms[mk]: shadow.evaluate(shadow.parse_expression(t, named), m),
                          lambda o, c=want_check: expect_ok(o) or (
                              "ok" if c(o[1]) else "fail: omega value differs")))
        for key, X, beta, weights, u, v, prefixes in (
            ("separate:criterion15", {"a", "ab", "bb"}, {"x": "a", "y": "ab", "z": "bb"},
             {"x": 1, "y": 0, "z": 0}, "x", "y", ("", "a", "b")),
            ("separate:cli", {"ab", "aab"}, {"a": "ab", "b": "aab"}, {"a": 1, "b": 1},
             "a", "ab", ("", "a", "aa")),
        ):
            def sep(env, X=X, beta=beta, weights=weights, u=u, v=v):
                psi = shadow.MorphismToFinite(monoid.cyclic_monoid(2), weights)
                return shadow.separation_witness(X, beta, psi, u, v)

            def check_sep(o, beta=beta, prefixes=prefixes):
                bad = expect_ok(o)
                if bad:
                    return bad
                r = o[1]
                if not r.separated or r.alpha_u == r.alpha_v:
                    return "fail: not separated"
                if r.decode_checks != len(beta) + 100 or r.prefixes != prefixes:
                    return "fail: decoder report differs"
                return "ok"

            ops.append(Op(key, "shadow", sep, check_sep))
        for i, (m, offset, start, end) in enumerate(self.fib_params):
            want = oracle.fib_factorial(m, offset, start, end)
            ops.append(Op(f"fib:{m}:{offset}:{end}", "arith",
                          lambda env, a=(m, offset, start, end): arith.fib_factorial_limit(*a),
                          lambda o, w=want: expect_ok(o) or (
                              "ok" if o[1] == w else "fail: Fibonacci residues differ")))
        for k in (3, 4, 5):
            m = math.factorial(k)
            for offset, limit in ((0, 0), (2, 1)):
                want = oracle.fib_factorial(m, offset, k, 10)
                ops.append(Op(f"fib:pinned:{m}:{offset}", "arith",
                              lambda env, a=(m, offset, k, 10): arith.fib_factorial_limit(*a),
                              lambda o, w=want, lim=limit: expect_ok(o) or (
                                  "ok" if o[1] == w and w[-1] == lim else "fail: limit differs")))
        return ops

    @staticmethod
    def golden_summary(kind, result):
        if kind == "gci":
            return shortlex_sorted(result.words)
        if kind == "mina":
            return len(result.states)
        if kind == "fmin":
            return [result[0], result[1]]
        return result


# ---------------------------------------------------------------- cli-session

# (kind, argv); kind "ok" must exit 0 with the recorded stdout, "usage" is
# malformed input (documented: exit 2, no traceback), "horizon" exits 3.
# Entries with a list of choices take one per seed.
CLI_MIX = [
    ("ok", ["subst", "--subst", "a->ab;b->a", "--apply", "ab", "--iterate", "a", "-k", "3", "--primitive"]),
    ("ok", ["factors", "--subst", ["a->ab;b->a", "a->ab;b->ba", "a->ab;b->ac;c->a", "a->ab;b->aaab"],
            "--start", "a", "--horizon", ["16", "20", "24"], "--complexity", "12", "--witness", "b"]),
    ("ok", ["factors", "--periodic", ["abc", "aab", "abaab", "abbc"], "--horizon", "12", "--complexity", "5"]),
    ("ok", ["classify", "--subst", "a->ab;b->a", "--start", "a", "--maxlen", "6"]),
    ("ok", ["classify", "--subst", ["a->ab;b->ba", "a->ab;b->ac;c->a", "a->ab;b->aaab"],
            "--start", "a", "--maxlen", ["6", "8"], "--word", ""]),
    ("ok", ["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "b"]),
    ("ok", ["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "a", "--left", "--gamma", "3"]),
    ("ok", ["returns", "--subst", ["a->ab;b->a", "a->ab;b->ac;c->a"], "--start", "a",
            "--word", ["ab", "aba", "ba"], "--horizon", "40"]),
    ("ok", ["episturmian", "--directive", "abababababab", "--pal", "ab", "--word", "aa"]),
    ("ok", ["episturmian", "--directive", ["abcabcabcabc", "aabaabaabaab", "abacabacabac"],
            "--word", ["a", "ab"], "--horizon", "12"]),
    ("ok", ["freegroup", "--alphabet", "ab", "--generators", "aa,ab,ba", "--member", ["abba", "ab", "aB"]]),
    ("ok", ["freegroup", "--alphabet", "ab", "--generators", "aa", "--separate", ["a", "b", "ab"]]),
    ("ok", ["freegroup", "--alphabet", "abc", "--generators", ["a,ba,ca", "ab,ba,c", "a,b,cab"]]),
    ("ok", ["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16"]),
    ("ok", ["monoid", "--code", "aa,ab,ba", "--subst", "a->ab;b->a", "--start", "a", "--horizon", "16", "--eggbox"]),
    ("ok", ["bifix", "--group", "cyclic:2", "--images", "a=1,b=1", "--subst", "a->ab;b->a",
            "--start", "a", "--horizon", ["16", "24"]]),
    ("ok", ["bifix", "--group", "cyclic:3", "--images", "a=1,b=2", "--subst", "a->ab;b->ba",
            "--start", "a", "--horizon", "40"]),
    ("ok", ["horder", "--subst", "a->ab;b->aaab", "--group", "A5", "--images", "a:(1 2 3);b:(3 4 5)"]),
    ("ok", ["shadow", "horder", "--subst", ["a->ab;b->a", "a->ab;b->ba"], "--group", "cyclic:3",
            "--images", ["a=1,b=1", "a=1,b=2"]]),
    ("ok", ["horder", "--subst", "a->ab;b->ba", "--group", "cyclic:2", "--images", "a=1,b=1"]),
    ("ok", ["shadow", "eval", "--expr", ["subst^w(phi, a)", "(ab)^w", "a subst^w(phi, b)"],
            "--subst-def", "phi=a->ab;b->a", "--group", "cyclic:3", "--images", "a=1,b=1"]),
    ("ok", ["shadow", "separate", "--code", "ab,aab", "--beta", "a=ab,b=aab", "--group", "cyclic:2",
            "--images", "a=1,b=1", "-u", "a", "-v", "ab"]),
    ("ok", ["arith", "--to-factorial", ["7", "23", "100", "719"], "-k", "3"]),
    ("ok", ["arith", "--fib-mod", "10", "7", "--fib-limit", ["24", "120"], "--offset", ["0", "2"]]),
    ("horizon", ["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "b", "--horizon", "3"]),
    ("usage", ["subst", "--subst", "not a substitution"]),
    ("usage", ["factors", "--horizon", "3"]),
    ("usage", ["arith"]),
    # known escapes at the seed commit
    ("usage", ["returns", "--subst", "a->ab;b->a", "--start", "a", "--word", "c"]),
    ("usage", ["returns", "--subst", "a->ab;b->a", "--start", "c", "--word", "a"]),
    ("usage", ["subst", "--subst", "a->ab;b->a", "--apply", "abc"]),
    ("usage", ["freegroup", "--alphabet", "ab", "--generators", "ac"]),
    ("usage", ["bifix", "--group", "cyclic:x", "--images", "a=1,b=1", "--subst", "a->ab;b->a",
               "--start", "a", "--horizon", "16"]),
    ("usage", ["factors", "--subst", "a->ab;b->a", "--start", "a", "--horizon", "-3"]),
    ("usage", ["bifix", "--group", "A5", "--images", "a:(1 2 3);b:(3 4 5)", "--base-point", "1",
               "--subst", "a->ab;b->aaab", "--start", "a", "--horizon", "32"]),
]
CONTRACT_EXITS = {0, 2, 3, 4}
EXPECTED_EXIT = {"ok": 0, "usage": 2, "horizon": 3}


def all_cli_argvs() -> list[list[str]]:
    """Every argv any seed can produce, for recording goldens."""
    out = []
    for _, argv in CLI_MIX:
        variants = [[]]
        for tok in argv:
            choices = tok if isinstance(tok, list) else [tok]
            variants = [v + [c] for v in variants for c in choices]
        out.extend(variants)
    return out


def cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli(argv: list[str], launcher_record: str | None = None):
    """One CLI invocation; returns (exit code, stdout, stderr)."""
    if launcher_record is None:
        cmd = [sys.executable, "-m", "minishift.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "cli_launcher.py"), launcher_record, *argv]
    p = subprocess.run(cmd, capture_output=True, text=True, env=cli_env(), timeout=120)
    return p.returncode, p.stdout, p.stderr


def has_traceback(stderr: str) -> bool:
    return "Traceback (most recent call last)" in stderr


class CliSession(Workload):
    name = "cli-session"

    def setup(self):
        rng = random.Random(self.seed)
        mix = []
        for kind, argv in (CLI_MIX[:2] + CLI_MIX[-2:] if self.tiny else CLI_MIX):
            mix.append((kind, [rng.choice(t) if isinstance(t, list) else t for t in argv]))
        rng.shuffle(mix)
        run_cli(["--help"])  # warm the page cache and bytecode before timing
        return mix

    def prepare(self, mix):
        goldens = self.goldens.get("cli", {})
        record = str(HERE / "results" / f"cli-spans-{os.getpid()}.json")
        ops = []
        for i, (kind, argv) in enumerate(mix):
            def fn(env, argv=argv):
                if self.tracer is None:
                    return run_cli(argv)
                t0 = time.perf_counter()
                out = run_cli(argv, record)
                root = self.tracer.span("cli.process", t0, time.perf_counter())
                with open(record) as fh:
                    self.tracer.absorb(json.load(fh), root)
                os.unlink(record)
                return out

            def check(o, argv=argv, kind=kind):
                bad = expect_ok(o)
                if bad:
                    return bad
                rc, stdout, stderr = o[1]
                tb = has_traceback(stderr)
                golden = goldens.get(json.dumps(argv))
                if golden is None:
                    return "fail: no golden recorded for this argv"
                if kind == "ok":
                    if rc == 0 and not tb and stdout == golden["stdout"]:
                        return "ok"
                elif rc == EXPECTED_EXIT[kind] and not tb:
                    return "ok"
                seed_like = (rc, stdout, tb) == (golden["rc"], golden["stdout"], golden["traceback"])
                if seed_like and kind != "ok":
                    return "escape"
                return f"fail: exit {rc}, traceback {tb}, stdout {stdout[:80]!r}"

            ops.append(Op(f"cli:{i}:{' '.join(argv)}", "cli", fn, check,
                          canon=lambda r: (r[0], r[1], has_traceback(r[2]))))
        return ops


WORKLOADS = {w.name: w for w in (FactorLadder, QuerySweep, CodeAlgebra, CliSession)}
