"""Fast self-test of the benchmark.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ledger  # noqa: E402
import run  # noqa: E402


def _last_json_line(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def test_tail_percentile_keeps_ten_ops_beyond_it():
    for count in (11, 13, 20, 90, 1800):
        q = run.tail_percentile(count)
        rank = max(1, math.ceil(q / 100 * count))
        assert count - rank >= 10
        # The next whole percentile would leave fewer than ten beyond.
        assert count - math.ceil((q + 1) / 100 * count) < 10
    assert run.tail_percentile(10) == 0


def test_nearest_rank():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert run.nearest_rank(values, 50) == 3.0
    assert run.nearest_rank(values, 0) == 1.0
    assert run.nearest_rank(values, 100) == 5.0


def test_ledger_self_time_excludes_wrapped_children():
    book = ledger.Ledger(side="load")

    def inner():
        time.sleep(0.02)

    timed_inner = book.wrap(inner, "inner")

    def outer():
        timed_inner()
        time.sleep(0.01)
        return 7

    timed_outer = book.wrap(outer, "outer",
                            lambda args, result, children: len(children))
    assert timed_outer() == 7
    records = {record[0]: record for record in book.records}
    _, _, inner_total, inner_self, _, _ = records["inner"]
    _, _, outer_total, outer_self, side, children = records["outer"]
    assert inner_self == inner_total
    assert math.isclose(outer_self, outer_total - inner_total)
    assert outer_self < outer_total and side == "load" and children == 1


def test_layer_metrics_are_per_op_and_windowed():
    records = [
        ("client.optimize", 1.0, 0.010, 0.010, "load", 0.0),
        ("codec.encode", 1.0, 0.001, 0.001, "load", 300.0),
        ("codec.decode", 1.0, 0.001, 0.001, "server", 300.0),
        ("server.optimize", 1.0, 0.004, 0.004, "server", 0.0),
        ("client.optimize", 9.0, 5.0, 5.0, "load", 0.0),  # outside
    ]
    metrics = ledger.layer_metrics(records, (0.5, 5.0), ops=2)
    assert math.isclose(metrics["client.optimize_s"], 0.005)
    assert math.isclose(metrics["broker.overhead_s"], 0.002)
    assert metrics["codec.bytes_out"] == 150.0
    assert metrics["codec.bytes_in"] == 0.0
    assert set(metrics) | {"trace.op_s_p50", "trace.overhead_frac"} == set(
        ledger.PER_LAYER)


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".perfbench" / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "cluster_cap",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_traced_cluster_run_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cluster_cap",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == list(ledger.PER_LAYER)
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert metrics["coordinator.epochs"] > 0
    assert metrics["machine.run_for_calls"] > 0
    assert metrics["client.optimize_s"] == 0.0


def test_recorded_seeds_have_every_quality_value():
    expected = json.loads((HERE / "expected.json").read_text())
    for name in ("leo_paper", "service_paper", "cluster_cap"):
        for seed in run.RECORDED_SEEDS:
            assert set(expected[name][str(seed)]) == set(run.QUALITY), (
                name, seed)


def test_unrecorded_committed_seed_fails_the_quality_check():
    quality = {metric: 1.0 for metric in run.QUALITY}
    assert run.check_quality("no_such_workload", 1, quality)
    assert not run.check_quality("no_such_workload", 12345, quality)


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(
        run.END_TO_END.values())
    assert [m["name"] for m in spec["per_layer"]] == list(ledger.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == list(
        ledger.PER_LAYER.values())
    assert [w["name"] for w in spec["workloads"]] == [
        "leo_paper", "service_paper", "cluster_cap"]
