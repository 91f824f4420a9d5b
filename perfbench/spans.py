"""Span tracing around the public functions of each minishift layer.

The wrappers live here, in the benchmark, not in the library: installing
them rebinds each listed function (or method) in every loaded minishift
module, so calls between modules are traced too.  A span is a tuple
(name, start, end, parent index, op id); spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
import weakref
from collections import defaultdict

# (module, attribute path, span name, counter name or None, counter of result)
TARGETS = [
    ("words", "FactorSet.from_substitution", "words.build", "words.factors_built", lambda r, a: len(r)),
    ("words", "FactorSet.from_periodic", "words.build", "words.factors_built", lambda r, a: len(r)),
    ("words", "FactorSet.from_words", "words.build", "words.factors_built", lambda r, a: len(r)),
    ("words", "FactorSet.words_of_length", "words.index", "words.index.distinct", None),
    ("words", "FactorSet.uniform_recurrence_witness", "words.query", None, None),
    ("words", "FactorSet.complexity", "words.query", None, None),
    ("words", "FactorSet.sorted_words", "words.query", None, None),
    ("words", "Substitution.parse", "words.query", None, None),
    ("words", "Substitution.iterate", "words.query", None, None),
    ("words", "Substitution.is_primitive", "words.query", None, None),
    ("returns", "right_return_words", "returns", "returns.words_out", lambda r, a: len(r.words)),
    ("returns", "left_return_words", "returns", "returns.words_out", lambda r, a: len(r.words)),
    ("returns", "gamma", "returns", None, None),
    ("returns", "check_gamma_identity", "returns", None, None),
    ("returns", "limit_return_truncation", "returns", None, None),
    ("extension", "extension_graph", "extension", "extension.graphs", lambda r, a: 1),
    ("extension", "classify", "extension", None, None),
    ("extension", "multiplicity", "extension", None, None),
    ("episturmian", "episturmian_factor_set", "episturmian", None, None),
    ("episturmian", "episturmian_left_returns", "episturmian", None, None),
    ("episturmian", "pal", "episturmian", None, None),
    ("episturmian", "justin_check", "episturmian", None, None),
    ("freegroup", "subgroup", "freegroup", None, None),
    ("freegroup", "generates", "freegroup", None, None),
    ("freegroup", "is_basis_of_free_group", "freegroup", None, None),
    ("freegroup", "separating_subgroup", "freegroup", None, None),
    ("monoid", "FiniteMonoid.from_generators", "monoid.closure", "monoid.elements", lambda r, a: len(r)),
    ("monoid", "transition_monoid", "monoid.other", None, None),
    ("monoid", "green", "monoid.green", None, None),
    ("monoid", "f_min_rank_data", "monoid.fmin", None, None),
    ("monoid", "f_min_rank", "monoid.fmin", None, None),
    ("monoid", "f_group", "monoid.fmin", None, None),
    ("monoid", "PermGroup.elements", "monoid.other", None, None),
    ("monoid", "PermGroup.order", "monoid.other", None, None),
    ("monoid", "is_isomorphic_small", "monoid.other", None, None),
    ("monoid", "monoid_from_permutations", "monoid.other", None, None),
    ("monoid", "cyclic_monoid", "monoid.other", None, None),
    ("bifix", "group_code_intersection", "bifix", "bifix.code_words", lambda r, a: len(r.words)),
    ("bifix", "minimal_automaton_of_star", "bifix", "bifix.states", lambda r, a: len(r.states)),
    ("bifix", "f_degree", "bifix", None, None),
    ("bifix", "g_x_f", "bifix", None, None),
    ("shadow", "evaluate", "shadow", None, None),
    ("shadow", "h_order", "shadow", None, None),
    ("shadow", "parse_expression", "shadow", None, None),
    ("shadow", "separation_witness", "shadow", None, None),
    ("shadow", "connective_code", "shadow", None, None),
    ("arith", "to_factorial", "arith", None, None),
    ("arith", "fib_mod", "arith", None, None),
    ("arith", "fib_factorial_limit", "arith", None, None),
    ("arith", "pisano_period", "arith", None, None),
]

class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[int] = []
        self._indexed: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def wrap(self, fn, name, counter=None, measure=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.errors[f"{name}:{type(exc).__name__}"] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if counter is not None:
                self.counters[counter] += (measure or self._distinct)(result, args)
            return result

        return traced

    def _distinct(self, result, args) -> int:
        """1 the first time a (factor set, length) pair is indexed, else 0."""
        seen = self._indexed.setdefault(args[0], set())
        if args[1] in seen:
            return 0
        seen.add(args[1])
        return 1

    def span(self, name: str, t0: float, t1: float) -> int:
        """Record a top-level span measured outside a wrapper; returns its index."""
        self.spans.append((name, t0, t1, -1, self.op))
        return len(self.spans) - 1

    def absorb(self, record: dict, root: int) -> None:
        """Merge a child process's record (see ``to_record``) under span ``root``.

        perf_counter reads the system-wide monotonic clock on Linux, so the
        child's timestamps line up with the parent's.
        """
        base = len(self.spans)
        for name, t0, t1, parent in record["spans"]:
            self.spans.append(
                (name, t0, t1, root if parent < 0 else base + parent, self.op))
        for key, value in record["counters"].items():
            self.counters[key] += value
        for key, value in record["errors"].items():
            self.errors[key] += value

    def to_record(self) -> dict:
        return {
            "spans": [s[:4] for s in self.spans],
            "counters": dict(self.counters),
            "errors": dict(self.errors),
        }

    # -- installing ---------------------------------------------------

    def install(self) -> None:
        """Rebind every target in all loaded minishift modules."""
        import importlib

        for mod_name in {t[0] for t in TARGETS}:
            importlib.import_module(f"minishift.{mod_name}")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "minishift" or n.startswith("minishift.")]
        for mod_name, path, name, counter, measure in TARGETS:
            mod = sys.modules[f"minishift.{mod_name}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, counter, measure))
                else:
                    new = self.wrap(raw, name, counter, measure)
                self._undo.append((cls, attr, raw))
                setattr(cls, attr, new)
                continue
            orig = getattr(mod, path)
            new = self.wrap(orig, name, counter, measure)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- analysis -----------------------------------------------------

    def totals(self, group=lambda name: name) -> dict[str, dict[str, float]]:
        """Per group of span names: calls, busy and self time.

        Busy time sums the spans with no ancestor in the same group, so
        nested calls inside a group are not counted twice; self time is a
        span's duration minus that of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            key = group(name)
            rec = out[key]
            rec["calls"] += 1
            rec["self_s"] += (t1 - t0) - child_time[i]
            p = parent
            while p >= 0 and group(spans[p][0]) != key:
                p = spans[p][3]
            if p < 0:
                rec["busy_s"] += t1 - t0
        return out

    def covered(self) -> float:
        """Time covered by top-level spans."""
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def dump(self, path) -> None:
        """Write the spans, gzipped, as tab-separated lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as fh:
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\t{op}\n")
