"""Smoke tests of the benchmark: every workload at a tiny population.

Run with ``python3 -m pytest perfbench`` from the root of a checkout.
"""

import json
import re

import pytest

import bench
import spans

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload, trace):
    return bench.run(workload, seed=7, seconds=0, trace=trace, smoke=True)


@pytest.fixture(scope="module")
def traced():
    return {w: smoke(w, trace=True) for w in bench.WORKLOADS}


def test_spec_names_the_benchmark_workloads_and_metrics():
    assert {w["name"] for w in SPEC["workloads"]} == set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER_UNITS
    for name in [*bench.END_TO_END_UNITS, *bench.PER_LAYER_UNITS]:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_traced_run_is_correct_and_complete(traced, workload):
    result = traced[workload]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == bench.PER_LAYER_UNITS
    # Spans nest inside cli.main, so self times cover the traced sample.
    assert 0.9 < metrics["trace.self_cover"]["value"] <= 1.0
    assert metrics["cli.self_s"]["value"] > 0


def test_layers_each_workload_touches(traced):
    def value(workload, name):
        return traced[workload]["metrics"][name]["value"]

    assert value("mc-all", "sd.integrate.steps") == 20 * 1050
    assert value("mc-all", "network.build_small_world.calls") == 0
    assert value("abm-fresh", "network.build_small_world.calls") == 4
    assert value("abm-fresh", "abm.pool.job_bytes") == 0
    assert value("abm-shared", "network.build_small_world.calls") == 1
    assert value("abm-shared", "abm.run_abm.calls") == 6
    assert value("abm-shared", "abm.pool.job_bytes") > 0
    assert value("mc-all", "network.rewired_edges") == 0
    assert 0 < value("abm-shared", "network.rewired_edges") < 2000 * 10 // 2
    for workload in bench.WORKLOADS:
        assert value(workload, "io.bytes_written") > 0


def test_exact_counts_repeat_between_runs(traced):
    again = smoke("abm-shared", trace=True)["metrics"]
    for key in bench.EXACT_COUNTS:
        assert again[key]["value"] == traced["abm-shared"]["metrics"][key]["value"], key


def test_end_to_end_run_reports_every_metric():
    result = smoke("mc-all", trace=False)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == bench.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in metrics.values())


def test_self_times_subtract_direct_children():
    tree = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["d", 5.0, 9.0, 0]]
    assert spans.self_times(tree).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert spans.nesting_errors(tree, 0.0, 10.0) == []


def test_nesting_errors_catch_bad_spans():
    overlap = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 4.0, 6.0, 0]]
    outside = [["a", 0.0, 10.0, -1], ["b", 9.0, 11.0, 0]]
    assert spans.nesting_errors(overlap, 0.0, 10.0)
    assert spans.nesting_errors(outside, 0.0, 10.0)
    assert spans.nesting_errors([["a", 0.0, 10.0, -1]], 1.0, 10.0)


def test_times_are_scaled_by_the_kernel_probe():
    ref = bench.REFERENCE_KERNEL_S
    # A sample 40 kernel-times long reads 40 reference kernel-times, however
    # fast the CPU ran; the median is taken over the pairs.
    assert bench.at_reference_speed([(0.8, 0.02), (0.4, 0.01), (9.0, 0.01)]) == 40 * ref
    assert bench.kernel_seconds() > 0
    assert bench.kernel_seconds(sorted(bench.os.sched_getaffinity(0))) > 0
