import pytest

from hppk import bench
from hppk.params import PARAMETER_SETS
from hppk.rng import DeterministicStream


def test_run_bench_reports_each_profile_in_order():
    profiles = [PARAMETER_SETS["toy"], PARAMETER_SETS["level1-nb1"]]
    reports = bench.run_bench("encaps", profiles, DeterministicStream(b"bench"),
                              iterations=1000)
    assert [r.label for r in reports] == ["toy", "level1-nb1"]
    for r in reports:
        assert (r.operation, r.iterations) == ("encaps", 1000)
        assert 0 < r.q1_ns <= r.median_ns <= r.q3_ns


def test_run_bench_enforces_its_iteration_floor():
    with pytest.raises(ValueError):
        bench.run_bench("keygen", [PARAMETER_SETS["toy"]], DeterministicStream(b"floor"),
                        iterations=999)
