"""Benchmark for the hppk KEM, its CLI and its ring-search oracle.

    python3 perfbench/run.py --workload static-key --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ./src.
Workloads: static-key, ephemeral-key, cli-kat, ring-search (see
workloads.py for what each op does and why it was chosen); `all` runs
each of them in turn.

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
first times the traced op form untraced for half of --seconds, then runs
the same ops traced for three passes and reports the per-layer metrics,
including the tracing overhead.  Both print human-readable `metric` lines, the environment and
the failure census, then one JSON result object as the last line.  The
result lists exactly the metrics BENCHMARK.json declares for the mode.
"""

import argparse
import importlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
TRACED_PASSES = 3  # the traced op time, like the untraced, is a fastest-of-passes
SETUP_BURST = 3  # back-to-back set-ups per setup_s sample

UNITS = {
    "ops_per_s": "1/s",
    "search_work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def unit_of(name):
    """Unit of a metric, from its name."""
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_us") or name.endswith("_us_per_op"):
        return "us"
    if name.endswith((".share", "_ratio", "_per_work")):
        return "ratio"
    if name.endswith("_per_call"):
        return "1/call"
    if name.startswith("rng.bytes"):
        return "B/op"
    if name.endswith("_per_op"):
        return "1/op"
    return "count"


def declared(kind):
    """Metric names BENCHMARK.json declares under `kind`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def emit(name, value, note=""):
    print(f"metric {name} {value!r} {unit_of(name)}{' ' + note if note else ''}")


# -- failures


def failure_report(workload, state, run):
    """Print the census by cause next to its prediction; True when plausible.

    Causes are 'Name@where' (a block index or a CLI step).  A cause
    nobody predicted, or a count far above its prediction, makes the run
    incorrect.  Later passes must repeat the census exactly.
    """
    predicted = workload.predicted(state, run.census)
    by_cause = {}
    for cause in run.census.values():
        if cause is not None:
            name, _, where = cause.partition("@")
            at = by_cause.setdefault(name, {})
            at[where] = at.get(where, 0) + 1
    ok = run.mismatches == 0
    for cause in sorted(set(by_cause) | set(predicted)):
        at = by_cause.get(cause, {})
        hits = sum(at.values())
        expected = predicted.get(cause, 0.0)
        where = ",".join(f"{w}:{n}" for w, n in sorted(at.items()))
        print(f"failure {cause} count={hits} attempted={run.attempted} "
              f"predicted={expected:.4g}{' at=' + where if where else ''}")
        if expected < 1e-6:
            ok &= not hits
        else:
            ok &= hits <= expected + 6 * expected**0.5 + 3
    if run.mismatches:
        print(f"failure CensusMismatch count={run.mismatches}")
    return ok


# -- modes


def run_untraced(workload, args, workdir, measure):
    setup_s = []

    def setup():
        times = []
        for _ in range(SETUP_BURST):
            t = time.perf_counter()
            state = workload.setup(args.seed, workdir)
            times.append(time.perf_counter() - t)
        setup_s.append(min(times))
        return state

    def again():
        if len(setup_s) < workload.setup_reps:
            setup()

    # One set-up sample is the fastest of a short burst; samples are spread
    # evenly through the run, so their median sees the same swings in
    # machine speed as the ops do.
    state = setup()
    run = measure.run_passes(
        workload, state, list(range(workload.pool_size)), args.seconds, workload.op,
        every=[(args.seconds / workload.setup_reps, again)],
    )
    m = {
        "ops_per_s": measure.rate_per_s(run.best_ns),
        "op_p50_us": measure.p50_us(run.best_ns),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mib": run.census_rss_mib,
    }
    for call in workload.calls:
        m[f"{call}_p50_us"] = measure.p50_us(run.best_calls[call])
    if "work" in run.counters:
        work = run.counters["work"]
        m["search_work_per_s"] = measure.rate_per_s(run.best_ns, work)
        m["search_work"] = sum(work.values())
        m["analysis.accepted_per_work"] = sum(run.counters["accepted"].values()) / m["search_work"]
    m["fail_ratio"] = run.failed / run.attempted
    for name, value in m.items():
        note = ""
        if name == "fail_ratio":
            note = f"failed={run.failed} attempted={run.attempted}"
        emit(name, value, note)
    tail = measure.tail_us(run.op_ns)
    if tail:
        emit("op_p99_us", tail[0], f"samples={tail[1]} beyond={tail[2]}")
    else:
        print(f"metric op_p99_us n/a samples={len(run.op_ns)} (fewer than 10 beyond p99)")
    print(f"passes {run.passes} ops {len(run.op_ns)} setups {len(setup_s)}")
    ok = failure_report(workload, state, run)
    return ok, run, m


def cli_import_costs(reps=3):
    """Interpreter start and `import hppk.cli` cost, from child processes.

    Import costs are the cumulative microseconds `-X importtime` reports;
    the direct imports of hppk.cli are printed as the breakdown.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls, totals, numpy_us = [], [], []
    breakdown = {}
    for _ in range(reps):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        walls.append((time.perf_counter() - t) * 1e6)
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hppk.cli"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        # Entries are printed after their own imports, two spaces per level.
        cumulative, children = {}, {}
        for line in proc.stderr.splitlines():
            found = re.match(r"import time:\s+\d+ \|\s+(\d+) \|( +)(\S+)", line)
            if found:
                name, depth = found.group(3), (len(found.group(2)) - 1) // 2
                cumulative.setdefault(name, int(found.group(1)))
                if depth == 1:
                    children[name] = int(found.group(1))
                elif depth == 0:
                    if name == "hppk.cli":
                        breakdown = children
                    children = {}
        totals.append(cumulative.get("hppk.cli", 0))
        numpy_us.append(cumulative.get("numpy", 0))
    print("cli_import_breakdown_us " + json.dumps(breakdown))
    return {
        "cli.interpreter_us": statistics.median(walls),
        "cli.import_us": statistics.median(totals),
        "cli.import.numpy_us": statistics.median(numpy_us),
    }


def run_traced(workload, args, workdir, measure):
    tracer_mod = importlib.import_module("tracer")
    state = workload.setup(args.seed, workdir)
    positions = list(range(workload.trace_ops))
    base = measure.run_passes(workload, state, positions, args.seconds / 2, workload.op)
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        tracer.op = tracer_mod.SETUP
        state = workload.setup(args.seed, workdir)
        tracer.op = None
        traced = measure.run_passes(
            workload, state, positions, 0, workload.op,
            hooks=(tracer.begin_op, tracer.end_op), min_passes=TRACED_PASSES,
        )
    m = tracer_mod.layer_metrics(tracer, workload.pool_size)
    counters = traced.counters
    m["analysis.accepted_per_work"] = (
        sum(counters["accepted"].values()) / sum(counters["work"].values())
        if "work" in counters else 0.0
    )
    for cause in ("ZeroDenominator", "NoValidRoot", "DegenerateEquation"):
        m[f"kem.decaps.failures.{cause}"] = sum(
            1 for c in traced.census.values() if c and c.startswith(cause + "@")
        )
    if workload.name == "cli-kat":
        m.update(cli_import_costs())
    else:
        m.update({"cli.interpreter_us": 0.0, "cli.import_us": 0.0, "cli.import.numpy_us": 0.0})
    m["trace.overhead_ratio"] = measure.p50_us(traced.best_ns) / measure.p50_us(base.best_ns)
    for name, value in sorted(m.items()):
        emit(name, value)
    spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    ok = failure_report(workload, state, traced) and base.mismatches == 0
    return ok, traced, m


def run_all(args, names):
    """Run each workload in its own process, then print one summary line.

    The summary has the shape of a single result, with metric names
    prefixed by their workload.
    """
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hppk" / "__init__.py").is_file():
        print(f"perfbench: no hppk sources in {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    measure = importlib.import_module("measure")
    workloads = importlib.import_module("workloads")
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()

    print(f"perfbench {workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = measure.environment(ROOT, workload.name, args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    try:
        run = run_traced if args.trace else run_untraced
        ok, passes, metrics = run(workload, args, workdir, measure)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env["loadavg_end"] = os.getloadavg()
    ref = passes.reference_ns
    env["reference_loop_ns"] = {
        "min": min(ref), "median": statistics.median(ref), "max": max(ref), "n": len(ref),
    }
    print("env " + json.dumps(env))

    kind = "per_layer" if args.trace else "end_to_end"
    result = {
        "correct": bool(ok),
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit_of(name)}
            for name in declared(kind)
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
