"""Benchmark runner for minishift.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  [--seed N --seconds S --trace 0|1]

Runs one workload (see ``workloads.py``) against the library in ``src/``:
set-up three times (the median is ``setup_s``), then full passes over the
workload's operation list, one operation at a time.  The first pass warms
up and sends every output to the oracles, outside the timed region; timed
passes follow while they fit in ``--seconds`` of measured time, and must
reproduce the first pass's outputs.  Each pass starts from fresh copies of
the built sets.  Reported times are at the reference speed of ``speed.py``.

With ``--trace 0`` the last stdout line is the JSON result carrying the
end-to-end metrics.  With ``--trace 1`` half the time runs untraced and
half with span wrappers installed, and the result carries the per-layer
metrics and the tracing overhead.  ``all`` runs every workload, each in a
fresh process, and prints a table.  A result file with the environment
goes to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
SETUP_SAMPLES = 3  # reference samples before and after each set-up
MIN_PASSES = 3
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)

E2E_UNITS = {
    "setup_s": "s", "run_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
    "op_tail_ms": "ms", "ops_ok_frac": "frac", "peak_rss_mb": "MB",
}


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the smoke check only")
    return ap.parse_args()


# ---------------------------------------------------------------- statistics


def tail(samples: list[float], ops_per_pass: int) -> tuple[float, float]:
    """(percentile, value) of the op latencies.

    The percentile is the highest on the ladder with at least 10 samples
    beyond it in MIN_PASSES passes, so it depends on the workload's op
    count only, not on how many passes the machine's speed allowed.
    """
    floor = ops_per_pass * MIN_PASSES
    p = next((p for p in TAIL_LADDER if floor * (100 - p) >= 1000), 50.0)
    xs = sorted(samples)
    rank = max(1, -(-round(p * len(xs)) // 100))  # nearest rank
    return p, xs[rank - 1]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "python": platform.python_version(), "cpu": cpu,
        "commit": commit, "source_sha256": digest.hexdigest(), "seed": seed,
    }


# ---------------------------------------------------------------- passes


class Passes:
    """Op latencies and verdicts of a series of full passes."""

    def __init__(self) -> None:
        self.times: list[float] = []      # per pass: sum of op latencies
        self.latencies: list[float] = []  # every op, pass after pass
        self.scales: list[float] = []     # per pass, to the reference speed
        self.ok_per_pass: list[int] = []
        self.verdicts: dict[str, int] = {}
        self.failures: list[str] = []
        self.escapes: list[str] = []      # known seed-commit defects met, first pass
        self.refused = 0                  # confirmed refusals, per pass summed

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(v for k, v in self.verdicts.items() if k.startswith("fail"))


def run_passes(wl, ctx, ops, seconds: float, first: list | None, tracer=None,
               min_passes: int = 1, speedo=None) -> tuple[Passes, list]:
    """Closed loop, one op at a time, whole passes while they fit in ``seconds``.

    A pass starts only if a pass of the median length so far still fits,
    so the measured time, and with it the run's length, stays near
    ``seconds`` instead of overshooting by up to a pass.
    """
    # The benchmark's own long-lived data (op list, oracle tables, goldens)
    # goes to the permanent generation so collections in the timed region
    # do not rescan it; a user's process would not hold it.
    gc.collect()
    gc.freeze()
    out = Passes()
    spent = 0.0
    lengths: list[float] = []
    clock = time.perf_counter
    while len(lengths) < min_passes or spent + statistics.median(lengths) <= seconds:
        env = wl.fresh(ctx)
        gc.collect()
        pass_time = 0.0
        ok = 0
        t_pass = clock()
        checking = 0.0
        record = []
        since = len(speedo.samples) if speedo is not None else 0
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = clock()
            try:
                outcome = ("ok", op.fn(env))
            except Exception as exc:  # every raise is an outcome for the oracle
                outcome = ("raise", type(exc).__name__, str(exc))
            t1 = clock()
            pass_time += t1 - t0
            out.latencies.append(t1 - t0)
            canon = op.canonical(outcome)
            if first is None:
                try:
                    verdict = op.check(outcome)
                except Exception as exc:  # a crashing check is a failed op, not a crash
                    verdict = f"fail: oracle raised {type(exc).__name__}: {exc}"
            elif canon == first[i][0]:
                verdict = first[i][1]
            else:
                verdict = "fail: output differs from the first pass"
            record.append((canon, verdict))
            kind = verdict.split(":")[0]
            out.verdicts[kind] = out.verdicts.get(kind, 0) + 1
            if kind == "ok":
                ok += 1
                if outcome[0] == "raise" and op.layer == "returns":
                    out.refused += 1
            elif kind == "fail" and len(out.failures) < 20:
                out.failures.append(f"{op.key}: {verdict}")
            elif kind == "escape" and first is None:
                out.escapes.append(op.key)
            if speedo is not None:
                speedo.maybe_sample()
            checking += clock() - t1
        if speedo is not None:
            if len(speedo.samples) == since:  # no op ended EVERY_S after the last sample
                speedo.sample()
            out.scales.append(speedo.scale(since))
        lengths.append(clock() - t_pass - checking)
        spent += lengths[-1]
        out.times.append(pass_time)
        out.ok_per_pass.append(ok)
        if first is None:
            first = record
        del env
    return out, first


# ---------------------------------------------------------------- metrics


def timing(latencies: list[float], ok_per_pass: list[int], per_pass: int) -> tuple[float, dict]:
    """(tail percentile, the four timing metrics) of a series of passes."""
    pct, tail_s = tail(latencies, per_pass)
    # one pass with every op at its median latency over the passes: a slow
    # stretch of the machine touches some ops of some passes, not the median
    run_s = sum(statistics.median(latencies[i::per_pass]) for i in range(per_pass))
    return pct, {
        "run_s": run_s,
        "ops_per_s": statistics.median(ok_per_pass) / run_s,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_s * 1e3,
    }


def end_to_end(setups: list[float], setup_scales: list[float], p: Passes,
               peak_mb: float, samples: list[float]) -> tuple[dict, dict]:
    """The metrics, with times at the reference speed (see ``speed.py``).

    Each set-up is scaled by the reference samples taken around it, each
    pass by those taken between its ops.
    """
    per_pass = len(p.latencies) // len(p.times)
    scaled = [t * p.scales[k // per_pass] for k, t in enumerate(p.latencies)]
    pct, values = timing(scaled, p.ok_per_pass, per_pass)
    _, measured = timing(p.latencies, p.ok_per_pass, per_pass)
    values["setup_s"] = statistics.median(t * c for t, c in zip(setups, setup_scales))
    measured["setup_s"] = statistics.median(setups)
    ok_total = p.verdicts.get("ok", 0)
    values["ops_ok_frac"] = ok_total / p.attempted
    values["peak_rss_mb"] = peak_mb
    detail = {
        "measured": measured, "pass_speed_scales": p.scales, "setup_speed_scales": setup_scales,
        "reference_samples_s": samples,
        "op_tail_percentile": pct, "op_samples": p.attempted, "passes": len(p.times),
        "ops_per_pass": per_pass, "ops_ok": ok_total,
        "ops_failed_frac": 1 - ok_total / p.attempted,
        "verdicts": p.verdicts, "setup_runs_s": setups, "pass_run_s": p.times,
    }
    return values, detail


def per_layer(tracer, setup_tracer, traced: Passes, untraced: Passes, extra: dict) -> dict:
    n = len(traced.times)
    by_name = tracer.totals()
    by_layer = tracer.totals(lambda name: name.split(".")[0])
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    m: dict[str, float] = {}

    def put(prefix, rec, keys=("calls", "busy_s", "self_s")):
        for k in keys:
            m[f"{prefix}.{k}"] = rec[k] / n

    put("words.build", by_name.get("words.build", zero))
    put("words.index", by_name.get("words.index", zero), ("calls", "busy_s"))
    m["words.self_s"] = by_layer.get("words", zero)["self_s"] / n
    built = tracer.counters.get("words.factors_built", 0)
    busy = by_name.get("words.build", zero)["busy_s"]
    m["words.factors_built"] = built / n
    m["words.factors_per_s"] = built / busy if busy else 0.0
    calls = by_name.get("words.index", zero)["calls"]
    distinct = tracer.counters.get("words.index.distinct", 0)
    m["words.index.hit_ratio"] = (calls - distinct) / calls if calls else 0.0
    for layer in ("returns", "extension", "freegroup", "episturmian", "bifix", "shadow", "arith"):
        put(layer, by_layer.get(layer, zero))
    m["returns.words_out"] = tracer.counters.get("returns.words_out", 0) / n
    m["returns.refused"] = traced.refused / n
    m["extension.graphs"] = tracer.counters.get("extension.graphs", 0) / n
    put("monoid.closure", by_name.get("monoid.closure", zero))
    m["monoid.self_s"] = by_layer.get("monoid", zero)["self_s"] / n
    elements = tracer.counters.get("monoid.elements", 0)
    busy = by_name.get("monoid.closure", zero)["busy_s"]
    m["monoid.elements"] = elements / n
    m["monoid.elements_per_s"] = elements / busy if busy else 0.0
    m["monoid.green.busy_s"] = by_name.get("monoid.green", zero)["busy_s"] / n
    m["monoid.fmin.busy_s"] = by_name.get("monoid.fmin", zero)["busy_s"] / n
    m["monoid.budget_exceeded"] = tracer.errors.get("monoid.closure:BudgetExceeded", 0) / n
    m["bifix.code_words"] = tracer.counters.get("bifix.code_words", 0) / n
    m["bifix.states"] = tracer.counters.get("bifix.states", 0) / n
    m["cli.self_s"] = by_layer.get("cli", zero)["self_s"] / n
    m.update(extra)
    setup_name = setup_tracer.totals()
    setup_layer = setup_tracer.totals(lambda name: name.split(".")[0])
    m["setup.words.build.busy_s"] = setup_name.get("words.build", zero)["busy_s"]
    m["setup.episturmian.busy_s"] = setup_layer.get("episturmian", zero)["busy_s"]
    traced_run = sum(traced.times) / n
    covered = tracer.covered() / n
    m["trace.run_s"] = traced_run
    m["trace.untraced_run_s"] = sum(untraced.times) / len(untraced.times)
    # both sides at the reference speed, so a slow stretch of the host
    # during one half does not pass for tracing cost
    at_ref = [statistics.mean(t * c for t, c in zip(q.times, q.scales)) for q in (traced, untraced)]
    m["trace.overhead"] = at_ref[0] / at_ref[1]
    m["trace.self_sum_s"] = sum(r["self_s"] for r in by_layer.values()) / n
    m["trace.bench_s"] = traced_run - covered
    m["trace.spans"] = len(tracer.spans) / n
    return m


LAYER_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "import_s": "s",
               "invocation_ms": "ms", "hit_ratio": "ratio", "overhead": "ratio",
               "factors_per_s": "1/s", "elements_per_s": "1/s", "run_s": "s",
               "untraced_run_s": "s", "self_sum_s": "s", "bench_s": "s"}


def unit_of(name: str) -> str:
    return LAYER_UNITS.get(name.rsplit(".", 1)[1], "count")


def cli_import_seconds(repeats: int = 5) -> float:
    """Median of ``import minishift.cli`` minus a bare interpreter start."""
    from workloads import cli_env

    env = cli_env()
    bare, full = [], []
    for _ in range(repeats):
        for code, bucket in (("pass", bare), ("import minishift.cli", full)):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
            bucket.append(time.perf_counter() - t0)
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------- main


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    goldens = json.loads((HERE / "goldens.json").read_text())
    wl = WORKLOADS[args.workload](args.seed, args.tiny, goldens)
    info = environment(args.seed)
    result: dict = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds,
                    "environment": info}
    cli = wl.name == "cli-session"

    if args.trace == 0:
        speedo = Speedometer()
        setups, setup_scales = [], []
        for _ in range(SETUP_REPEATS):
            ctx = None  # the previous set-up's objects are freed before the next
            gc.collect()
            since = len(speedo.samples)
            speedo.sample(SETUP_SAMPLES)
            t0 = time.perf_counter()
            ctx = wl.setup()
            setups.append(time.perf_counter() - t0)
            speedo.sample(SETUP_SAMPLES)
            setup_scales.append(speedo.scale(since))
        ops = wl.prepare(ctx)
        checked, first = run_passes(wl, ctx, ops, 0, None)
        passes, _ = run_passes(wl, ctx, ops, args.seconds, first, min_passes=MIN_PASSES,
                               speedo=speedo)
        usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)
        values, detail = end_to_end(setups, setup_scales, passes, usage.ru_maxrss / 1024,
                                    speedo.samples)
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
        result.update(detail=detail, failures=checked.failures + passes.failures,
                      escapes=checked.escapes)
        attempted = checked.attempted + passes.attempted
        failed = checked.failed + passes.failed
    else:
        setup_tracer = Tracer()
        setup_tracer.install()
        try:
            ctx = wl.setup()
        finally:
            setup_tracer.uninstall()
        ops = wl.prepare(ctx)
        extra = {"cli.import_s": 0.0, "cli.invocation_ms": 0.0, "cli.bad_exit": 0.0}
        if cli:
            extra["cli.import_s"] = cli_import_seconds()
        checked, first = run_passes(wl, ctx, ops, 0, None)
        speedo = Speedometer()
        untraced, _ = run_passes(wl, ctx, ops, args.seconds / 2, first, speedo=speedo)
        tracer = Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            traced, _ = run_passes(wl, ctx, ops, args.seconds / 2, first, tracer, speedo=speedo)
        finally:
            tracer.uninstall()
            wl.tracer = None
        if cli:
            bad = 0
            for canon, _ in first:
                if canon[0] == "ok":
                    rc, _, tb = canon[1]
                    bad += rc not in (0, 2, 3, 4) or tb
            extra["cli.invocation_ms"] = statistics.median(traced.latencies) * 1e3
            extra["cli.bad_exit"] = float(bad)
        layer = per_layer(tracer, setup_tracer, traced, untraced, extra)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layer.items())}
        result["failures"] = checked.failures + untraced.failures + traced.failures
        result["escapes"] = checked.escapes
        tracer.dump(RESULTS / f"spans-{wl.name}-seed{args.seed}.tsv.gz")
        attempted = checked.attempted + untraced.attempted + traced.attempted
        failed = checked.failed + untraced.failed + traced.failed

    out = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    result.update(out)
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for key in result["escapes"]:
        print(f"KNOWN DEFECT (as at the seed commit) {key}", file=sys.stderr)
    if args.trace == 0:
        d = result["detail"]
        print(f"# {wl.name} seed={args.seed}: {d['passes']} passes of {d['ops_per_pass']} ops, "
              f"tail is p{d['op_tail_percentile']:g} of {d['op_samples']} samples, "
              f"ops_failed_frac={d['ops_failed_frac']:.4f} "
              f"({d['op_samples'] - d['ops_ok']} of {d['op_samples']} timed), "
              f"pass times x{statistics.median(d['pass_speed_scales']):.3f} to the reference speed")
    for key, m in metrics.items():
        print(f"# {key} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(out))
    return 0


def run_all(args) -> int:
    from workloads import WORKLOADS

    rows = {}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(p.stderr)
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or not lines:
            print(f"{name}: exit {p.returncode}", file=sys.stderr)
            code = 1
            continue
        rows[name] = json.loads(lines[-1])
    for name, res in rows.items():
        print(f"== {name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for key, m in res["metrics"].items():
            print(f"   {key:28s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(rows))
    return code


def main() -> int:
    args = parse_args()
    if not (ROOT / "src" / "minishift" / "__init__.py").is_file():
        print("error: src/minishift is missing; run from a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # one string-hash seed for every run, so set iteration order is not noise
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]], env)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
