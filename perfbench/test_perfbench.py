"""Self-tests for the benchmark's own code.

    PYTHONPATH=src python -m pytest perfbench -q

Tiny-size runs of each workload (the real classes with small sizes), the
traced run's per-layer metrics and counts cross-check, and the
percentile, self-time, window and generator-lateness arithmetic.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from perfbench import run as runner
from perfbench.stats import (
    beyond,
    covered,
    lateness,
    median,
    percentile,
    self_time,
    windowed_percentile,
    windows,
)
from perfbench.workloads import Burst, Serve, Train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = np.random.default_rng(3).exponential(1.0, 1234).tolist()
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_median_and_beyond():
    assert median([3.0, 1.0, 2.0]) == 2.0
    values = list(range(1000))
    # p99 of 0..999 is 989.01: exactly ten samples lie beyond it.
    assert beyond(values, 99) == 10


def test_lateness_clamps_early_sends_to_zero():
    assert lateness([1.0, 2.0, 3.0], [1.5, 1.9, 3.25]) == [0.5, 0.0, 0.25]
    with pytest.raises(ValueError):
        lateness([1.0], [])


def test_covered_merges_overlaps():
    assert covered([(0, 2), (1, 3), (5, 6), (6, 7), (4, 4)]) == 5


def test_self_time_subtracts_clipped_child_cover():
    # Parent [0, 10); children overlap each other and spill past the end.
    assert self_time(0, 10, [(1, 3), (2, 4), (9, 12)]) == 10 - 3 - 1
    assert self_time(0, 10, []) == 10


def test_windows_fold_short_tail_into_last():
    chunks = windows(range(2500), 1000)
    assert [len(c) for c in chunks] == [1000, 1500]
    assert [len(c) for c in windows(range(10), 1000)] == [10]


def test_windowed_percentile_resists_one_stalled_window():
    values = [1.0] * 3000 + [100.0] * 1000 + [1.0] * 1000
    assert windowed_percentile(values, 99, 1000) == 1.0
    assert percentile(values, 99) == 100.0


# ----------------------------------------------------------------------
# Tiny runs of each workload
# ----------------------------------------------------------------------
class TinyServe(Serve):
    REFERENCE_RATE = 200.0
    LADDER = (100.0, 200.0)
    BLOCK_S = 0.1
    BACKLOG_CALLS = 60
    PROBE_CALLS = 30
    WARMUP_CALLS = 20


class TinyTrain(Train):
    N = 4000
    D = 8
    WARMUP_EXAMPLES = 40


class TinyBurst(Burst):
    FUNCTIONS = 2
    CALLS_PER_FUNCTION = 4
    PROBE_ROUNDS = 1


@pytest.mark.parametrize("workload", [TinyServe, TinyTrain, TinyBurst])
def test_tiny_end_to_end_run(workload):
    res, metrics, lines, consistent = runner.end_to_end(workload, seed=5, seconds=0.5)
    assert consistent
    assert res.attempted >= 1 and 0 <= res.failed <= res.attempted
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["end_to_end"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    for name, (value, unit) in metrics.items():
        assert value > 0, name
    for name in ("failed_share", "call_p50_ms", "call_p99_ms"):
        assert any(line.startswith(name) for line in lines), name


def test_tiny_train_and_burst_replies_are_all_correct():
    # Neither workload reaches the allocator defect at these sizes, so
    # every operation must verify.
    for workload in (TinyTrain, TinyBurst):
        res, _, _, _ = runner.end_to_end(workload, seed=6, seconds=0.3)
        assert res.failed == 0, res.failures


def test_serve_makes_the_same_calls_on_every_run_of_a_seed():
    # The number of serve rounds follows --seconds, not the clock, so
    # attempted (and, with it, failed) cannot drift with machine speed.
    runs = [runner.end_to_end(TinyServe, seed=8, seconds=2.0)[0] for _ in range(2)]
    assert runs[0].attempted == runs[1].attempted
    assert runs[0].failed == runs[1].failed
    assert runs[0].extra["backlog_drains"][0] == round(0.8 * 2.0 * Serve.ROUNDS_PER_S)


def test_serve_counts_a_wrong_reply_as_failed():
    wl = TinyServe(7)
    ctx = wl.setup()
    try:
        cluster = ctx["cluster"]
        fn, data, expect = wl._calls(1, ["lookup"])[0]
        call_id, _ = cluster.submit(fn, data)
        cluster.calls.wait(call_id, 10)
        record = cluster.calls.get(call_id)
        assert wl._check(record, expect) == (True, "")
        record.output_data = b"not the row"
        assert wl._check(record, expect) == (False, "wrong lookup")
    finally:
        ctx["cluster"].shutdown()


@pytest.mark.parametrize("workload", [TinyServe, TinyTrain, TinyBurst])
def test_tiny_traced_run_reports_every_layer_and_cross_checks(workload, tmp_path, monkeypatch):
    monkeypatch.setattr(runner, "OUT_DIR", str(tmp_path))
    res, metrics, lines, consistent = runner.traced(workload, seed=5, seconds=0.3)
    assert consistent, lines
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"]: m["unit"] for m in json.load(f)["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()} == declared
    assert metrics["trace.overhead"][0] > 0
    assert metrics["wasm.instructions"][0] > 0
    assert metrics["host.calls"][0] > 0
    assert list(tmp_path.iterdir())


def test_cli_refuses_without_program_source(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "perfbench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "perfbench", name)) as src:
                (bench / name).write_text(src.read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
