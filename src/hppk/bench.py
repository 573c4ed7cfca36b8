"""Latency measurement for keygen, encaps, and decaps.

Reports the median and quartiles in nanoseconds over at least 1000
timed iterations preceded by 200 warm-up iterations (WARMUP).
Comparisons are made as ratios between configurations, never against
absolute figures from other machines.  Configurations to be compared are
timed in one run, one call of each in turn, so that a slow phase of a
shared host lands on all of them alike.
"""

import time
from dataclasses import dataclass

from . import kem
from .block import keygen

MIN_ITERATIONS = 1000
WARMUP = 200  # untimed calls of each configuration before the timed ones

OPERATIONS = ("keygen", "encaps", "decaps")


@dataclass(frozen=True)
class BenchReport:
    operation: str
    label: str
    iterations: int
    median_ns: int
    q1_ns: int
    q3_ns: int

    def format_line(self):
        return (
            f"{self.operation:8s} {self.label:12s} iterations={self.iterations} "
            f"median={self.median_ns}ns q1={self.q1_ns}ns q3={self.q3_ns}ns"
        )


def _make_callable(operation, params, rng):
    if operation == "keygen":
        return lambda: keygen(params, rng)
    sk, pk = keygen(params, rng)
    if operation == "encaps":
        return lambda: kem.encaps(pk, params, rng)
    if operation == "decaps":
        ct, _ = kem.encaps(pk, params, rng)
        return lambda: kem.decaps(sk, params, ct)
    raise ValueError(f"unknown operation {operation!r}")


def run_bench(operation, profiles, rng, iterations):
    """Time one operation under each profile, calls interleaved across them.

    Returns one BenchReport per profile, in order; raises ValueError
    below the iteration floor.
    """
    import statistics  # imported here, so that importing the CLI does not load it
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"need at least {MIN_ITERATIONS} iterations")
    calls = [_make_callable(operation, params, rng) for params in profiles]
    for _ in range(WARMUP):
        for call in calls:
            call()
    samples = [[] for _ in calls]
    for _ in range(iterations):
        for call, out in zip(calls, samples):
            start = time.perf_counter_ns()
            call()
            out.append(time.perf_counter_ns() - start)
    reports = []
    for params, times in zip(profiles, samples):
        q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
        reports.append(BenchReport(
            operation=operation,
            label=params.label,
            iterations=iterations,
            median_ns=int(median),
            q1_ns=int(q1),
            q3_ns=int(q3),
        ))
    return reports
