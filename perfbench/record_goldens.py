"""Record the goldens the oracles compare against, from the current source.

    python3 perfbench/record_goldens.py

Run it at the commit whose behaviour is the reference (the committed
goldens were recorded at the seed commit).  It writes perfbench/goldens.json:

- ``complexity``: digests of the complexity list of every factor-ladder
  build for seeds 0-31;
- ``episturmian``: digests of the episturmian sets every directive unit
  of the query-sweep builds gives;
- ``code_algebra``: automaton sizes, F-degrees, F-minimal data, F-groups
  and monoid sizes of the code-algebra operations;
- ``cli``: exit code, stdout and whether a traceback was printed, for
  every argv the cli-session mix can produce.
"""

import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from workloads import (  # noqa: E402
    EPI_BUILD_HORIZON, CodeAlgebra, FactorLadder, all_cli_argvs, epi_build_op, has_traceback,
    run_cli)

RECORDED = ("mina", "fdeg", "fmin", "fgroup", "monoid")


def record_code_algebra(out: dict, tiny: bool) -> None:
    wl = CodeAlgebra(0, tiny, {})
    ctx = wl.setup()
    env = wl.fresh(ctx)
    for op in wl.prepare(ctx):
        kind = op.key.split(":")[0]
        try:
            result = op.fn(env)
        except Exception as exc:  # refusals are recorded as the exception name
            result = type(exc).__name__
        if kind not in RECORDED:
            continue
        if not isinstance(result, str):
            if kind in ("fgroup", "monoid"):
                result = list(result)
            result = json.loads(json.dumps(CodeAlgebra.golden_summary(kind, result)))
        out[op.key] = result


def main() -> None:
    goldens = {"complexity": {}, "code_algebra": {}, "cli": {}, "episturmian": {}}
    for seed in range(32):
        wl = FactorLadder(seed, False, {})
        entries = [e for e in wl.setup() if e[0] not in goldens["complexity"]]
        for op, entry in zip(wl.prepare(entries), entries):
            _, words = op.fn({})
            goldens["complexity"][entry[0]] = oracle.complexity_digest([len(w) for w in words])
    for tiny in (False, True):
        record_code_algebra(goldens["code_algebra"], tiny)
    for letters in ("ab", "abc"):
        for n in (3, 4, 5):
            for unit in map("".join, itertools.product(letters, repeat=n)):
                if set(unit) != set(letters):
                    continue
                for L in EPI_BUILD_HORIZON.values():
                    _, words = epi_build_op(unit, L, {}).fn({})
                    goldens["episturmian"][f"{unit}:{L}"] = oracle.complexity_digest(
                        [len(w) for w in words])
    for argv in all_cli_argvs():
        rc, stdout, stderr = run_cli(argv)
        goldens["cli"][json.dumps(argv)] = {
            "rc": rc, "stdout": stdout, "traceback": has_traceback(stderr)}
    (HERE / "goldens.json").write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
