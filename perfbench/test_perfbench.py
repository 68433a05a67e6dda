"""Self tests of the benchmark: python3 -m pytest perfbench/test_perfbench.py

They check that inputs are a function of the seed alone, that a seed changes
the inputs but not the class weights, and that the counts a run reports (rung
counts, the binary64 miss ratio, fail and wrong counts) repeat exactly.
"""

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def _inputs(op):
    return [np.asarray(a).tolist() if isinstance(a, np.ndarray) else repr(a) for a in op.args]


def _shape(ops):
    return [(op.cls, op.rank, op.fn, op.known_defect) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_not_class_weights(workload):
    a = workloads.cycle_ops(workload, 7, 0)
    b = workloads.cycle_ops(workload, 7, 0)
    c = workloads.cycle_ops(workload, 8, 0)
    d = workloads.cycle_ops(workload, 7, 1)
    assert [_inputs(op) for op in a] == [_inputs(op) for op in b]
    assert _shape(a) == _shape(c) == _shape(d)
    assert Counter(op.cls for op in a) == Counter(op.cls for op in c)
    assert [_inputs(op) for op in a] != [_inputs(op) for op in c]
    assert [_inputs(op) for op in a] != [_inputs(op) for op in d]


def _counts(workload, seed):
    runner = workloads.Runner(workload)
    runner.warm()
    tracer = Tracer()
    tracer.install()
    try:
        res = run.run_stream(runner, workload, seed, 1, tracer)
    finally:
        tracer.uninstall()
    tally, problems, ops, fails = run.check_window(res.window, runner.contexts)
    return {
        "rungs": dict(tracer.rung_counts),
        "b53_miss": (tracer.b53_miss, tracer.planned53),
        "fails": (fails, ops, res.failed_known, res.failed_unexpected),
        "wrong": (tally.wrong, tally.checked, tally.no_reference, tally.known_wrong,
                  tally.heat_flat_wrong),
        "problems": problems,
    }


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_counts_repeat_for_a_seed(workload):
    first = _counts(workload, 3)
    assert first == _counts(workload, 3)
    assert sum(first["rungs"].values()) > 0


def test_point_eval_keeps_the_known_defects_visible():
    counts = _counts("point_eval", 3)
    fails, _ops, known, unexpected = counts["fails"]
    assert 1 <= known == fails <= 8  # the eight two-sided confluent slots
    assert unexpected == 0
    assert counts["wrong"][3] >= 2  # at least the two heat_flat sentinels
    assert counts["problems"] == []


def test_memory_guard_refuses_large_heat_ranks():
    with pytest.raises(ValueError, match="memory guard"):
        workloads.heat_context(workloads.MAX_HEAT_RANK + 1)
    ranks = [op.rank for w in workloads.WORKLOADS for op in workloads.cycle_ops(w, 0, 0)]
    assert max(ranks) <= workloads.MAX_PSI_RANK
    heat_ranks = [op.rank for w in workloads.WORKLOADS for op in workloads.cycle_ops(w, 0, 0)
                  if op.fn.startswith("ht.") or op.cls == "sweep_heat"]
    assert max(heat_ranks) <= workloads.MAX_HEAT_RANK


def test_tail_is_the_sample_with_ten_beyond():
    assert run.tail([float(v) for v in range(100, 0, -1)]) == (90.0, 90.0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0 * 2 / 3)
    assert run.p50([4.0, 1.0, 3.0, 2.0]) == 2.0
    assert run.p50([3.0, 1.0, 2.0]) == 2.0


def test_sweep_records_are_timed_one_by_one():
    runner = workloads.Runner("sweep_grid")
    op = workloads.cycle_ops("sweep_grid", 5, 0)[0]
    o = runner.run(op)
    assert len(o.record_cpu_seconds) == o.records > 1
    assert sum(o.record_cpu_seconds) == pytest.approx(o.cpu_seconds)
    assert len(set(o.record_cpu_seconds)) > 1


def _outcome(op, exc):
    return workloads.Outcome(op, 0.0, 0.0, error=f"{exc.__name__}: x", exc_type=exc)


def test_only_the_listed_raise_is_a_known_failure():
    from weylheat.errors import DegenerateInput, ToleranceUnachievable

    ops = {op.cls: op for op in workloads.cycle_ops("point_eval", 2, 0)}
    assert _outcome(ops["two_sided"], ToleranceUnachievable).known_failure
    assert not _outcome(ops["two_sided"], DegenerateInput).known_failure
    assert not _outcome(ops["two_sided"], ZeroDivisionError).known_failure
    assert not _outcome(ops["constant_side"], ToleranceUnachievable).known_failure
    assert not _outcome(ops["heat"], DegenerateInput).known_failure


def test_known_wrongs_need_the_defect_signature():
    import checks

    heat = checks.heat_known(1e-6, [1.0, 0.0], [1.0, 0.0])  # g = 5e5
    assert heat("miss", 1e-11, -1.0)  # within the rounding of the cancelled terms
    assert not heat("miss", 1e-6, -1.0)
    assert not checks.heat_known(1.0, [1.0, 0.0], [1.0, 0.0])("overclaim", 1e-12, -1.0)
    const = checks.closed_form_known(np.full(3, 2.0), [3.0, 1.0, 0.0])
    assert const("miss", 1e-15, 8.0)
    assert not const("miss", 1e-12, 8.0)
    assert not const("overclaim", 1e-15, 8.0)


def test_csv_repr_fields_are_counted():
    from collections import Counter

    bad = Counter()
    assert workloads._csv_number("np.float64(1.5)", bad) == 1.5
    assert workloads._csv_number("2.5", bad) == 2.5
    assert np.isnan(workloads._csv_number("oops", bad))
    assert bad == Counter(np_repr=1, garbled=1)


def test_refuses_to_run_without_the_library_sources():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "point_eval", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_a_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        run.per_layer_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb"}
