"""Latency measurement for keygen, encaps, and decaps.

Reports the median and quartiles in nanoseconds over at least 1000
timed iterations preceded by at least 100 warm-up iterations.
Comparisons are made as ratios between configurations, never against
absolute figures from other machines.
"""

import statistics
import time
from dataclasses import dataclass

from . import kem
from .block import keygen

MIN_ITERATIONS = 1000
MIN_WARMUP = 100

OPERATIONS = ("keygen", "encaps", "decaps")


@dataclass(frozen=True)
class BenchReport:
    operation: str
    label: str
    iterations: int
    warmup: int
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


def run_bench(operation, params, rng, iterations=2000, warmup=200):
    """Time one operation; raises ValueError below the iteration floor."""
    if iterations < MIN_ITERATIONS:
        raise ValueError(f"need at least {MIN_ITERATIONS} iterations")
    if warmup < MIN_WARMUP:
        raise ValueError(f"need at least {MIN_WARMUP} warm-up iterations")
    call = _make_callable(operation, params, rng)
    for _ in range(warmup):
        call()
    samples = []
    for _ in range(iterations):
        start = time.perf_counter_ns()
        call()
        samples.append(time.perf_counter_ns() - start)
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return BenchReport(
        operation=operation,
        label=params.label,
        iterations=iterations,
        warmup=warmup,
        median_ns=int(median),
        q1_ns=int(q1),
        q3_ns=int(q3),
    )
