"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import re
from pathlib import Path

import pytest

import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json")
                       .read_text(encoding="utf-8"))

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _shape(ops):
    """Everything about a pass that must not depend on the seed."""
    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items()}
        if isinstance(node, list):
            return len(node)
        return type(node).__name__
    return [(op.name, op.dim, op.scenario["kind"], strip(op.scenario)) for op in ops]


@pytest.mark.parametrize("workload", ["dense64", "qubit_batch", "oneshot_types"])
def test_generator_is_deterministic_and_seed_changes_only_contents(workload):
    first = workloads.generate(workload, 11)
    again = workloads.generate(workload, 11)
    other = workloads.generate(workload, 12)
    assert [json.dumps(op.scenario) for op in first] == \
        [json.dumps(op.scenario) for op in again]
    assert [op.scenario for op in first] != [op.scenario for op in other]
    assert _shape(first) == _shape(other)


def test_selftest_has_no_generated_inputs():
    assert workloads.generate("selftest", 3) == []


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(100, 0, -1)]
    assert run.tail(values) == (90.0, 90.0)
    assert run.tail(values[:11]) == (90.0, 100.0 / 11)
    assert run.tail(values[:10]) is None
    value, _ = run.tail(values)
    assert sum(v > value for v in values) == 10


def _pass(seconds):
    p = run.Pass()
    p.op_seconds = list(seconds)
    return p


def test_op_times_are_each_ops_best_over_passes():
    passes = [_pass([1.0 + k, 5.0 - k, 2.0]) for k in range(3)]
    assert run.best_times(passes) == [1.0, 3.0, 2.0]


def test_tail_is_taken_over_best_times_and_falls_back_to_the_slowest():
    passes = [_pass([0.001 * i + k for i in range(1, 41)]) for k in (1, 0, 2)]
    e2e, detail = run.end_to_end_metrics(passes, 40, [0.3])
    # 40 best times 1..40 ms: rank 30 has ten beyond it
    assert e2e["op_ms_tail"][0] == pytest.approx(30.0)
    assert detail["tail"] == {"percentile": 75.0, "samples": 40}
    e2e, detail = run.end_to_end_metrics([_pass([0.001 * i for i in range(1, 11)])],
                                         10, [0.3])
    assert e2e["op_ms_tail"][0] == pytest.approx(10.0)
    assert detail["tail"] == {"percentile": 100.0, "samples": 10}


def test_metric_names_match_pattern_and_benchmark_json():
    for section in ("end_to_end", "per_layer"):
        names = [m["name"] for m in BENCHMARK[section]]
        assert len(names) == len(set(names))
        for name in names:
            assert NAME.fullmatch(name), name

    plain = [_pass([0.01] * 40)]
    e2e, _ = run.end_to_end_metrics(plain, 40, [0.3, 0.31, 0.29])
    assert sorted(e2e) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(e2e[m["name"]][1] == m["unit"] for m in BENCHMARK["end_to_end"])

    snap = {"calls": {}, "self_s": {}, "incl_s": {}, "counts": {}, "errors": {}}
    layers = run.layer_metrics(plain, [(_pass([0.02] * 40), snap)], {})
    assert sorted(layers) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert all(layers[m["name"]][1] == m["unit"] for m in BENCHMARK["per_layer"])


def test_declared_workloads_are_runnable_and_cover_the_acceptance_layer():
    declared = [w["name"] for w in BENCHMARK["workloads"]]
    assert [w for w in workloads.WORKLOADS if w in declared] == declared
    # oneshot_types is left out of the declared set (see README.md); selftest
    # is the only workload that runs the acceptance module
    assert set(workloads.WORKLOADS) - set(declared) == {"oneshot_types"}


def test_self_time_is_duration_minus_direct_children():
    import spans
    recorded = [("a", None, 0.0, 10.0), ("b", 0, 1.0, 4.0), ("c", 1, 2.0, 3.0),
                ("b", 0, 5.0, 7.0)]
    calls, self_s, incl_s = spans.aggregate(recorded)
    assert calls == {"a": 1, "b": 2, "c": 1}
    assert self_s == {"a": 5.0, "b": 4.0, "c": 1.0}
    assert incl_s == {"a": 10.0, "b": 5.0, "c": 1.0}


def test_p50_and_rate_use_each_ops_best_time():
    passes = [_pass([1.0, 2.0, 3.0 + k, 10.0 * k + 4.0]) for k in (2, 0, 1)]
    e2e, _ = run.end_to_end_metrics(passes, 4, [0.3])
    # best times 1, 2, 3, 4 (seconds)
    assert e2e["op_ms_p50"][0] == pytest.approx(2500.0)
    assert e2e["ops_per_s"][0] == pytest.approx(4 / 10.0)
