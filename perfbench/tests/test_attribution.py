"""Attribution tests for the benchmark's layer tracing.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
The end-to-end tests run the real workloads on a 200 kb input.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

import inputs
import run
import spans

SMALL = inputs.InputSpec("attr-test", genome_length=20_000, coverage=10, error_rate=0.01)
DELAY_S = 0.1
RANKS = 24  # 4 summit-gpu nodes: one minimizer pass per rank


def _bench(name: str, env: dict[str, str] | None = None) -> run.Bench:
    return run.Bench(dataclasses.replace(run.WORKLOADS[name], input=SMALL), seed=7, env=env)


def _rows_total(trace: dict[str, float]) -> float:
    return sum(trace[row] for row in spans.SELF_ROWS) + trace["unattributed_s"]


def test_attribute_splits_pool_waits_among_busy_workers():
    # main: driver [0,10] > minimizers [1,3] > window_values [1.5,2]; process map [4,8]
    main = [
        [0, "stages.driver_self_s", 0.0, 10.0, None],
        [1, "kmers.minimizers_s", 1.0, 3.0, {"windows": 30}],
        [2, "kmers.window_values_s", 1.5, 2.0, None],
        [3, "parallel.map_s", 4.0, 8.0, {"maps": 1}],
    ]
    workers = {
        3: {
            10: [[-1, "parallel.chunk", 4.5, 7.5, None], [5, "gpu.insert_s", 5.0, 6.0, None]],
            11: [[-1, "parallel.chunk", 5.0, 7.0, None], [5, "kmers.supermers_s", 5.0, 7.0, None]],
        }
    }
    out = spans.attribute(main, workers, t_start=-1.0, t_end=11.0)
    assert out["kmers.minimizers_s"] == pytest.approx(1.5)
    assert out["kmers.window_values_s"] == pytest.approx(0.5)
    assert out["parallel.map_s"] == pytest.approx(1.0)  # [4,4.5] and [7.5,8]: no worker busy
    assert out["gpu.insert_s"] == pytest.approx(0.5)  # [5,6] shared with the other worker
    assert out["kmers.supermers_s"] == pytest.approx(1.0)
    assert out["stages.driver_self_s"] == pytest.approx(4.0 + 1.5)  # main self + worker chunk self
    assert out["unattributed_s"] == pytest.approx(2.0)
    assert out["parallel.worker_busy_s"] == pytest.approx(5.0)
    assert out["parallel.idle_s"] == pytest.approx(2 * 4.0 - 5.0)
    assert out["kmers.windows_per_s"] == pytest.approx(30 / 2.0)
    assert _rows_total(out) == pytest.approx(out["trace.wall_s"]) == pytest.approx(12.0)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_layer_self_times_sum_to_traced_wall(name):
    bench = _bench(name)
    try:
        traced = bench.execute(traced=True)
    finally:
        bench.close()
    assert traced.failures == []
    trace = traced.trace
    assert all(trace[row] >= 0.0 for row in spans.SELF_ROWS)
    assert trace["unattributed_s"] >= 0.0
    assert trace["trace.wall_s"] == pytest.approx(traced.wall_s, abs=1e-9)
    assert _rows_total(trace) == pytest.approx(trace["trace.wall_s"], abs=1e-9)
    if name == "supermer-proc2":
        assert trace["parallel.worker_busy_s"] > 0.0
        assert trace["kmers.minimizers_s"] > 0.0  # ran only in forked workers
    else:
        assert trace["spill.write_s"] > 0.0


def test_slowed_minimizers_show_where_they_run():
    slow_env = {"PERFBENCH_DELAY": f"kmers.minimizers_s={DELAY_S}"}
    found = {}
    for name in ("supermer-proc2", "kmer-spill"):
        plain, slow = _bench(name), _bench(name, slow_env)
        try:
            plain.execute()  # warm-up
            base = plain.execute()
            slowed = slow.execute()
            traced = slow.execute(traced=True)
        finally:
            plain.close()
            slow.close()
        assert [r.failures for r in plain.runs + slow.runs] == [[]] * 4
        found[name] = (slowed.wall_s - base.wall_s, traced.trace["kmers.minimizers_s"])
    injected = RANKS * DELAY_S
    wall_gain, minimizers_s = found["supermer-proc2"]
    # Two workers share the rank parses, so the wall gains about half the delay.
    assert wall_gain > 0.3 * injected
    assert minimizers_s > 0.4 * injected
    wall_gain, minimizers_s = found["kmer-spill"]
    assert abs(wall_gain) < 0.25 * injected
    assert minimizers_s == 0.0


def test_reported_metrics_match_benchmark_json():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == dict(spans.METRICS)
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
