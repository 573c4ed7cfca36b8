"""Minimal-size runs of every workload, and the tracer's bookkeeping.

Run with: python3 -m pytest perfbench/tests
"""

import functools
import importlib
import json

import pytest

import run
import tracer
import workloads

SMALL = {
    "static-key": dict(pool_size=32, trace_ops=16, setup_reps=1),
    "ephemeral-key": dict(pool_size=32, trace_ops=16, setup_reps=1),
    "cli-kat": dict(pool_size=3, setup_reps=1, kat_per_profile=1),
    "ring-search": dict(pool_size=4, trace_ops=2, setup_reps=1),
}

HPPK_MODULES = ["hppk"] + [f"hppk.{layer}" for layer in tracer.LAYERS]


def small_run(name, trace, monkeypatch, capsys, seed=7):
    cls = workloads.WORKLOADS[name]
    monkeypatch.setitem(workloads.WORKLOADS, name, functools.partial(cls, **SMALL[name]))
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    metrics = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric" and parts[2] != "n/a":
            metrics[parts[1]] = float(parts[2])
    return json.loads(lines[-1]), metrics


def declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(SMALL))
def test_minimal_run_reports_every_declared_metric(name, trace, monkeypatch, capsys):
    result, printed = small_run(name, trace, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    if trace:
        layers = sum(printed[f"{layer}.share"] for layer in tracer.LAYERS)
        rest = printed["untraced.self_us_per_op"] / printed["trace.op_us_per_op"]
        assert layers + rest == pytest.approx(1.0, abs=1e-9)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_counts_repeat_for_a_seed(monkeypatch, capsys):
    first = small_run("ring-search", 0, monkeypatch, capsys)[1]
    second = small_run("ring-search", 0, monkeypatch, capsys)[1]
    for name in ("search_work", "analysis.accepted_per_work", "fail_ratio"):
        assert first[name] == second[name]


def test_tracer_wraps_import_sites_and_restores_them():
    modules = [importlib.import_module(m) for m in HPPK_MODULES]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original = importlib.import_module("hppk.modmath").mod_inverse
    t = tracer.Tracer()
    with t.installed():
        for name in ("modmath", "block", "kem", "analysis"):
            module = importlib.import_module(f"hppk.{name}")
            assert module.mod_inverse is not original
            assert module.mod_inverse.__wrapped__ is original
        stream = importlib.import_module("hppk.cli").DeterministicStream
        assert stream is not before[("hppk.cli", "DeterministicStream")]
        assert len(t.patches) > len(tracer.LAYERS)
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_rng_retries_are_counted():
    t = tracer.Tracer()
    with t.installed():
        rng = importlib.import_module("hppk.rng").DeterministicStream(b"seed")
        t.begin_op(0)
        for _ in range(200):
            rng.below(129)  # 8-bit draws accept 129/256 of the time
        t.end_op()
    m = tracer.layer_metrics(t, setup_items=1)
    assert m["rng.calls_per_op"] == 200
    assert m["rng.below_draws_per_call"] > 1.5
    assert m["rng.bytes_per_op"] == m["rng.below_draws_per_call"] * 200
