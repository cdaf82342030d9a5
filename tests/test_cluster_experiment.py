"""Tests for the cluster co-scheduling experiment and its CLI surface.

The sweep itself is exercised on a reduced grid (``small_grid`` in
conftest.py); the full acceptance story (joint beats the equal split at
a loose cap, meets deadlines the split misses at a tight one) is the CI
gate in benchmarks/cluster_smoke.py.
"""

import pytest

from repro.cli import main
from repro.experiments.cluster_energy import (
    ClusterRun,
    cluster_energy_experiment,
    summarize_runs,
    tenant_workloads,
)


class TestSweep:
    def test_serial_sweep_invariants(self, small_grid):
        runs = cluster_energy_experiment(**small_grid)
        assert len(runs) == 2
        assert {r.policy for r in runs} == {"joint", "static"}
        for run in runs:
            assert run.cap_respected
            assert run.max_peak_watts <= run.cap_watts * (1.0 + 1e-6)
            assert run.total_energy > 0
            assert run.work_done > 0
            assert set(run.tenant_energy) == {"kmeans", "blackscholes"}


class TestWorkloadSizing:
    def test_work_scales_with_utilization(self, cores_context):
        low = tenant_workloads(cores_context, ("kmeans", "blackscholes"),
                               (0.2, 0.2), 15.0)
        high = tenant_workloads(cores_context, ("kmeans", "blackscholes"),
                                (0.4, 0.4), 15.0)
        for (name_l, work_l), (name_h, work_h) in zip(low, high):
            assert name_l == name_h
            assert work_h == pytest.approx(2.0 * work_l)

    def test_mismatched_lengths_rejected(self, cores_context):
        with pytest.raises(ValueError, match="utilizations"):
            tenant_workloads(cores_context, ("kmeans",), (0.5, 0.5),
                             10.0)


def fake_run(cap, policy, energy, missed=()):
    return ClusterRun(cap_watts=cap, policy=policy, total_energy=energy,
                      work_done=100.0, work_target=100.0,
                      max_peak_watts=cap - 10.0, cap_respected=True,
                      reallocations=1, missed=list(missed),
                      tenant_energy={"a": energy})


class TestReporting:
    def test_energy_per_work(self):
        run = fake_run(200.0, "joint", 500.0)
        assert run.energy_per_work == pytest.approx(5.0)

    def test_summarize_runs_rows(self):
        rows = summarize_runs([fake_run(200.0, "joint", 500.0),
                               fake_run(200.0, "static", 600.0,
                                        missed=("a",))])
        assert len(rows) == 2
        assert rows[0][1] == "joint"
        assert rows[1][6] == "a"


class TestCli:
    def test_cluster_command_smoke(self, capsys):
        code = main(["cluster", "--benchmarks", "kmeans,blackscholes",
                     "--utilizations", "0.3,0.4", "--caps", "220",
                     "--deadline", "15", "--space", "cores"])
        assert code == 0
        out = capsys.readouterr().out
        assert "joint" in out and "static" in out and "race" in out
        assert "cap ok" in out

    def test_cluster_rejects_mismatched_lists(self, capsys):
        code = main(["cluster", "--benchmarks", "kmeans",
                     "--utilizations", "0.3,0.4", "--space", "cores"])
        assert code == 1
        assert "utilizations" in capsys.readouterr().err
