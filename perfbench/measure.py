"""Closed-loop pass runner, the estimators built on it, and the run's environment.

A workload owns a pool of ops made from the seed.  The runner walks the
pool in passes, one op at a time (a single caller that starts the next op
only when the previous one has returned), until --seconds is used up.
The first complete pass is the census: its failure counts depend on the
seed alone, never on how fast the machine is.  Later passes repeat the
same ops; every op must reproduce its census outcome.

Latencies are taken per pool position as the fastest of its passes, then
summarised over the pool.  On a shared machine whose speed swings by
tens of percent within a second, the fastest repeat of an op is the
figure that repeats from run to run, and it needs dozens of repeats; the
pool, kept small enough for that, fixes the input mix.
"""

import math
import os
import platform
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field

# Pure-Python reference loop: the same work on every run, timed between
# ops, so a run taken on a slow moment of a shared machine can be seen.
_REF_ITERATIONS = 20000
_REF_EVERY_NS = 500_000_000


def reference_loop_ns():
    """Nanoseconds per iteration of a fixed integer loop."""
    acc = 0
    start = time.perf_counter_ns()
    for k in range(_REF_ITERATIONS):
        acc = (acc * 31 + k) & 0xFFFFFFFF
    return (time.perf_counter_ns() - start) / _REF_ITERATIONS


@dataclass
class Passes:
    """Everything one closed-loop phase measured."""

    op_ns: list = field(default_factory=list)  # every op, in run order
    best_ns: dict = field(default_factory=dict)  # position -> fastest op
    best_calls: dict = field(default_factory=dict)  # call -> {position -> fastest}
    census: dict = field(default_factory=dict)  # position -> cause or None
    counters: dict = field(default_factory=dict)  # name -> {position -> census value}
    mismatches: int = 0  # later ops that disagreed with the census
    passes: int = 0  # complete passes
    reference_ns: list = field(default_factory=list)
    census_rss_mib: float = 0.0  # peak RSS when the census pass ended

    @property
    def attempted(self):
        return len(self.census)

    @property
    def failed(self):
        return sum(1 for cause in self.census.values() if cause is not None)


def _keep_min(best, key, value):
    if value < best.get(key, value + 1):
        best[key] = value


def run_passes(workload, state, positions, seconds, op, hooks=None, min_passes=1,
               every=()):
    """Run passes over `positions` until `seconds` have gone by.

    Makes at least `min_passes` complete passes; the last pass may be
    partial.  `op(state, i, calls)` runs one op and returns what
    `workload.check` needs; `calls` collects per-call nanoseconds.
    `hooks` (begin, end) bracket each op for the tracer.  `every` holds
    (interval_s, task) pairs run between ops, besides the reference loop.
    """
    out = Passes(reference_ns=[reference_loop_ns()])
    now = time.perf_counter_ns()
    deadline = now + int(seconds * 1e9)
    tasks = [[_REF_EVERY_NS, lambda: out.reference_ns.append(reference_loop_ns()), now]]
    tasks += [[int(interval * 1e9), task, now] for interval, task in every]
    while True:
        for i in positions:
            calls = {}
            if hooks:
                hooks[0](i)
            t0 = time.perf_counter_ns()
            result = op(state, i, calls)
            t1 = time.perf_counter_ns()
            if hooks:
                hooks[1]()
            out.op_ns.append(t1 - t0)
            _keep_min(out.best_ns, i, t1 - t0)
            for name, ns in calls.items():
                _keep_min(out.best_calls.setdefault(name, {}), i, ns)
            counters = {}
            cause = workload.check(state, i, result, counters)
            if out.passes == 0:
                out.census[i] = cause
                for name, value in counters.items():
                    out.counters.setdefault(name, {})[i] = value
            elif out.census[i] != cause:
                out.mismatches += 1
            now = time.perf_counter_ns()
            for task in tasks:
                if now - task[2] >= task[0]:
                    task[1]()
                    task[2] = now = time.perf_counter_ns()
            if out.passes >= min_passes and now >= deadline:
                break
        else:
            if out.passes == 0:
                # read before the sample list grows with the machine's speed
                out.census_rss_mib = peak_rss_mib()
            out.passes += 1
            if out.passes < min_passes or time.perf_counter_ns() < deadline:
                continue
        out.reference_ns.append(reference_loop_ns())
        return out


def p50_us(best):
    """Median over pool positions of their fastest time, in microseconds."""
    return statistics.median(best.values()) / 1000


def rate_per_s(best, counts=None):
    """Ops (or summed per-position counts) per second of fastest op time."""
    done = len(best) if counts is None else sum(counts.values())
    return done / sum(best.values()) * 1e9


def tail_us(samples_ns, q=0.99):
    """(percentile in us, sample count, samples beyond it); None below 10 beyond."""
    n = len(samples_ns)
    rank = math.ceil(q * n)
    beyond = n - rank
    if beyond < 10:
        return None
    return sorted(samples_ns)[rank - 1] / 1000, n, beyond


def peak_rss_mib():
    """Peak resident set of this process, or of its largest child if larger."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024


def _git(root, *args):
    if not (root / ".git").exists():
        return None  # an exported checkout: no revision to report
    try:
        proc = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(root, workload, seed):
    """Facts about the machine and checkout that a result depends on."""
    revision = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if revision else None
    return {
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "git_revision": revision,
        "git_dirty": bool(status) if revision else None,
    }
