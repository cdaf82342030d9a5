"""End-to-end distributed observability.

The acceptance surface: spans recorded in the estimation service merge
with the originating tracer's spans into one orphan-free tree; a traced
experiment sweep hangs under one ``experiment.run`` root; and none of it
changes experiment results — tracing on and off are bit-identical.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterCoordinator, Tenant
from repro.cluster.partition import PartitionedMachine
from repro.experiments.cluster_energy import cluster_energy_experiment
from repro.obs import (
    Observability,
    Span,
    merge_spans,
    orphan_spans,
    use,
)
from repro.reporting import critical_path, render_span_tree
from repro.service import (
    EstimationService,
    RemoteEstimator,
    RequestRejected,
    ServerThread,
    ServiceClient,
)
from repro.workloads.suite import get_benchmark

TRACE_ID = "feedbeefcafe0123"


def _span(name, span_id, parent_id=None, start=0.0, end=1.0,
          trace_id=None):
    return Span(name=name, span_id=span_id, parent_id=parent_id,
                start=start, end=end, trace_id=trace_id)


# ----------------------------------------------------------------------
# Experiment sweeps: one root, and tracing changes no result
# ----------------------------------------------------------------------
class TestSweepTracing:
    def test_tracing_does_not_change_results(self, small_grid):
        baseline = cluster_energy_experiment(**small_grid)
        with use(Observability.recording()):
            traced = cluster_energy_experiment(**small_grid)
        # Bit-identical, not approx.
        assert ([dataclasses.asdict(run) for run in traced]
                == [dataclasses.asdict(run) for run in baseline])

    def test_sweep_has_one_experiment_root(self, small_grid):
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            cluster_energy_experiment(**small_grid)
        spans = ob.tracer.spans
        assert orphan_spans(spans) == []
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["experiment.run"]
        assert roots[0].attributes["experiment"] == "cluster"
        names = [s.name for s in spans]
        assert "estimator.fit" in names and "em.fit" in names


# ----------------------------------------------------------------------
# Service: client and server shards stitch into one tree
# ----------------------------------------------------------------------
@pytest.fixture()
def server():
    with ServerThread(EstimationService(), max_pending=4,
                      max_workers=1) as thread:
        yield thread


@pytest.fixture()
def client(server):
    with ServiceClient(server.bound_address, timeout=30.0) as c:
        yield c


#: A 1024-config optimize: small enough to run on the broker's loop.
OPTIMIZE = {"rates": np.linspace(1.0, 40.0, 1024),
            "powers": np.linspace(80.0, 250.0, 1024),
            "idle_power": 50.0, "work": 100.0, "deadline": 10.0}


class TestServicePropagation:
    @pytest.mark.parametrize("op, payload", [
        ("sleep", {"seconds": 0.0}), ("optimize", OPTIMIZE)],
        ids=["sleep", "optimize"])
    def test_request_span_parents_under_client_span(self, server, client,
                                                    op, payload):
        # "sleep" runs on a worker like a real fit, and a bounded
        # "optimize" on the broker's loop; both record the handler span
        # (inline ops such as ping never reach it).
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            client.call(op, payload)
        merged = merge_spans(ob.tracer.spans, server.server.request_spans)
        assert orphan_spans(merged) == []
        call = next(s for s in merged if s.name == "client.call")
        request = next(s for s in merged if s.name == "service.request")
        assert request.parent_id == call.span_id
        assert request.trace_id == TRACE_ID
        # The stitched tree renders as one hierarchy.
        tree = render_span_tree(merged)
        assert tree.index("client.call") < tree.index("service.request")

    def test_warm_read_miss_records_one_request_span(self, server, client):
        # This server has no registry: the loop's warm read misses, and
        # only the worker's calibration keeps a service.request span.
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            reply = client.calibrate_report("kmeans", space="cores",
                                            samples=6, estimator="offline")
        assert reply["source"] == "calibration"
        spans = server.server.request_spans
        assert [s.name for s in spans].count("service.request") == 1
        assert orphan_spans(merge_spans(ob.tracer.spans, spans)) == []

    def test_server_traces_only_when_asked(self, server, client):
        client.call("sleep", {"seconds": 0.0})
        assert server.server.request_spans == []

    def test_error_details_carry_trace_id(self, server, client):
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            with pytest.raises(RequestRejected) as excinfo:
                client.call("frobnicate")
        assert excinfo.value.details.get("trace_id") == TRACE_ID

    def test_untraced_errors_carry_no_trace_id(self, server, client):
        with pytest.raises(RequestRejected) as excinfo:
            client.call("frobnicate")
        assert "trace_id" not in (excinfo.value.details or {})

    def test_distinct_requests_get_distinct_span_blocks(self, server,
                                                        client):
        ob = Observability.recording(trace_id=TRACE_ID)
        with use(ob):
            client.call("sleep", {"seconds": 0.0})
            client.call("sleep", {"seconds": 0.0})
        spans = server.server.request_spans
        roots = [s for s in spans if s.name == "service.request"]
        assert len(roots) == 2
        assert roots[0].span_id != roots[1].span_id
        merged = merge_spans(ob.tracer.spans, spans)
        assert orphan_spans(merged) == []


# ----------------------------------------------------------------------
# The acceptance run: cluster + remote estimator
# ----------------------------------------------------------------------
DEADLINE = 15.0
CAP = 220.0


def _tenant_work(cores_space, name, utilization):
    share = cores_space.topology.total_cores
    node = PartitionedMachine(cores_space, [(name, share)])
    node.set_profile(name, get_benchmark(name))
    view = node.view(name)
    profile = get_benchmark(name)
    max_rate = max(view.true_rate(profile, c)
                   for c in node.space_for(name).space)
    return utilization * max_rate * DEADLINE


class TestDistributedAcceptance:
    def test_one_trace_across_cluster_and_service(self, cores_space,
                                                  cores_dataset):
        """A cluster tenant calibrating through a RemoteEstimator: one
        orphan-free tree across the client and the server."""
        work = _tenant_work(cores_space, "kmeans", 0.3)
        view = cores_dataset.leave_one_out("kmeans")
        ob = Observability.recording(trace_id=TRACE_ID)
        with ServerThread(EstimationService(), max_pending=4,
                          max_workers=1) as thread:
            with ServiceClient(thread.bound_address,
                               timeout=120.0) as remote_client:
                with use(ob):
                    with ob.tracer.span("acceptance.run"):
                        coordinator = ClusterCoordinator(
                            cores_space, cap_watts=CAP, seed=3)
                        coordinator.admit(Tenant(
                            name="kmeans",
                            workload=get_benchmark("kmeans"),
                            work=work, deadline=DEADLINE,
                            estimator=RemoteEstimator(remote_client,
                                                      estimator="leo"),
                            prior_rates=view.prior_rates,
                            prior_powers=view.prior_powers))
                        report = coordinator.run()
            server_spans = thread.server.request_spans

        assert report.all_deadlines_met

        merged = merge_spans(ob.tracer.spans, server_spans)
        assert orphan_spans(merged) == [], \
            "every cross-process edge must resolve in the merged tree"
        names = {s.name for s in merged}
        assert "service.request" in names, "service shard missing"
        assert {s.trace_id for s in merged} == {TRACE_ID}

        counters = ob.metrics.snapshot()["counters"]
        assert counters["cluster_deadline_met_total{tenant=kmeans}"] == 1

        # The merged tree is coherent enough to analyze: the critical
        # path starts at the root span recorded above.
        path = critical_path(merged)
        assert path and path[0].name == "acceptance.run"


# ----------------------------------------------------------------------
# Renderer robustness on merged (possibly damaged) distributed traces
# ----------------------------------------------------------------------
class TestSpanTreeRobustness:
    def test_orphan_promoted_to_root(self):
        spans = [_span("root", 1, start=0.0),
                 _span("lost", 7, parent_id=99, start=0.5)]
        tree = render_span_tree(spans)
        lines = tree.splitlines()
        assert len(lines) == 2
        assert all(not line.startswith(" ") for line in lines), \
            "an orphan renders as a root, not a child"

    def test_self_parent_terminates(self):
        tree = render_span_tree([_span("loop", 3, parent_id=3)])
        assert tree.count("loop") == 1

    def test_duplicate_span_ids_render_once_each(self):
        spans = [_span("parent", 1, start=0.0),
                 _span("twin", 2, parent_id=1, start=0.1),
                 _span("twin", 2, parent_id=1, start=0.2)]
        tree = render_span_tree(spans)
        assert tree.count("twin") == 2  # both objects, each exactly once

    def test_cycle_between_spans_terminates(self):
        spans = [_span("a", 1, parent_id=2, start=0.0),
                 _span("b", 2, parent_id=1, start=0.1)]
        tree = render_span_tree(spans)
        assert tree.count("a") >= 1 and tree.count("b") >= 1

    def test_interleaved_shards_render_as_one_tree(self, tmp_path):
        # Two shards whose spans interleave in time; after merging the
        # renderer nests the remote child under its cross-process
        # parent despite the shard boundary.
        local = [_span("root", 1, start=0.0, end=4.0,
                       trace_id=TRACE_ID),
                 _span("late", 2, parent_id=1, start=3.0, end=3.5,
                       trace_id=TRACE_ID)]
        remote = [_span("remote.op", 2 ** 32 + 1, parent_id=1,
                        start=1.0, end=2.0, trace_id=TRACE_ID)]
        tree = render_span_tree(merge_spans(local, remote))
        lines = tree.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  remote.op")
        assert lines[2].startswith("  late")


class TestCriticalPath:
    def test_walks_heaviest_chain(self):
        spans = [_span("root", 1, start=0.0, end=10.0),
                 _span("light", 2, parent_id=1, start=0.0, end=3.0),
                 _span("heavy", 3, parent_id=1, start=3.0, end=9.0),
                 _span("leaf", 4, parent_id=3, start=4.0, end=6.0)]
        assert [s.name for s in critical_path(spans)] \
            == ["root", "heavy", "leaf"]

    def test_empty_trace(self):
        assert critical_path([]) == []

    def test_crosses_process_boundaries(self):
        base = 2 ** 32
        spans = [_span("harness", 1, start=0.0, end=5.0),
                 _span("cell", base + 1, parent_id=1,
                       start=0.5, end=4.5),
                 _span("service.request", 2 * base + 1,
                       parent_id=base + 1, start=1.0, end=4.0)]
        assert [s.name for s in critical_path(spans)] \
            == ["harness", "cell", "service.request"]

    def test_cycle_terminates(self):
        spans = [_span("a", 1, parent_id=2, start=0.0, end=2.0),
                 _span("b", 2, parent_id=1, start=0.0, end=1.0)]
        path = critical_path(spans)
        assert 1 <= len(path) <= 2
