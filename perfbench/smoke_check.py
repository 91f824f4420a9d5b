"""Smoke check of the benchmark at tiny sizes.

    python3 perfbench/smoke_check.py          # or: python -m pytest perfbench/smoke_check.py

The file name keeps it out of the repository's default test collection.
It checks that every metric named in BENCHMARK.json is emitted, that the
oracles flag deliberately corrupted outputs as failed ops, and that the
benchmark refuses to run without the library's source.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_all(trace: int) -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--tiny",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted():
    names = {w["name"] for w in SPEC["workloads"]}
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rows = run_all(trace)
        assert set(rows) == names
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        for name, res in rows.items():
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            assert res["failed"] == 0 and res["correct"], (name, trace)


def first_op(cls, prefix: str, part: str = ""):
    wl = cls(0, True, json.loads((HERE / "goldens.json").read_text()))
    ctx = wl.setup()
    ops = [op for op in wl.prepare(ctx) if op.key.startswith(prefix) and part in op.key]
    return ops[0], wl.fresh(ctx)


def test_oracle_flags_a_dropped_factor():
    from minishift.words import FactorSet

    op, env = first_op(workloads.FactorLadder, "build:")
    F, words = op.fn(env)
    assert op.check(("ok", (F, words))) == "ok"
    dropped = words[-1][0]
    G = FactorSet(F.alphabet, F.horizon, F.factors - {dropped}, F.complete, F.source)
    assert op.check(("ok", (G, [G.words_of_length(n) for n in range(G.horizon + 1)]))).startswith("fail")


def test_oracle_flags_a_dropped_return_word():
    from minishift.returns import ReturnSet

    op, env = first_op(workloads.QuerySweep, "right:")
    got = op.fn(env)
    assert op.check(("ok", got)) == "ok"
    smaller = ReturnSet(got.base, got.side, frozenset(sorted(got.words)[1:]))
    assert op.check(("ok", smaller)).startswith("fail")


def test_oracle_flags_changed_cli_output():
    op, env = first_op(workloads.CliSession, "cli:", "--primitive")
    rc, stdout, stderr = op.fn(env)
    assert op.check(("ok", (rc, stdout, stderr))) == "ok"
    assert op.check(("ok", (rc, stdout + " ", stderr))).startswith("fail")
    assert op.check(("ok", (1, stdout, "Traceback (most recent call last):\n"))).startswith("fail")


def test_refuses_without_source():
    (HERE / "results").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "results") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
        p = subprocess.run(SPEC["command"] + ["--workload", "cli-session", "--seed", "1",
                                              "--seconds", "1", "--trace", "0"],
                           capture_output=True, text=True, timeout=180, cwd=bare)
        assert p.returncode != 0
        assert not p.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
