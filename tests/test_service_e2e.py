"""End-to-end acceptance: a RemoteEstimator-backed RuntimeController.

The ISSUE 3 acceptance criterion: pointing the controller at a service
instead of an in-process estimator must not change a single bit of the
result — same seed, same samples, same curves, same schedule, same
energy.  This holds because the wire protocol round-trips IEEE doubles
exactly and the estimators are deterministic functions of the problem.
"""

import numpy as np
import pytest

from repro.estimators.leo import LEOEstimator
from repro.platform.machine import Machine
from repro.runtime.controller import RuntimeController
from repro.runtime.sampling import RandomSampler
from repro.service import (
    EstimationService,
    ModelRegistry,
    RemoteEstimator,
    ServerThread,
    ServiceClient,
)
from repro.workloads.suite import get_benchmark


@pytest.fixture(scope="module")
def service_thread():
    with ServerThread(EstimationService(), max_pending=8,
                      max_workers=2) as thread:
        yield thread


def _controller(cores_space, view, estimator, machine_seed=77):
    return RuntimeController(
        machine=Machine(seed=machine_seed), space=cores_space,
        estimator=estimator,
        prior_rates=view.prior_rates, prior_powers=view.prior_powers,
        sampler=RandomSampler(seed=5), sample_count=6)


class TestControllerParity:
    def test_calibration_bit_equal(self, service_thread, cores_space,
                                   cores_dataset):
        view = cores_dataset.leave_one_out("kmeans")
        kmeans = get_benchmark("kmeans")

        local = _controller(cores_space, view, LEOEstimator())
        local_estimate = local.calibrate(kmeans)

        with ServiceClient(service_thread.bound_address,
                           timeout=120.0) as client:
            remote = _controller(
                cores_space, view,
                RemoteEstimator(client, estimator="leo"))
            remote_estimate = remote.calibrate(kmeans)

        # Bit equality, not allclose: the service changes nothing.
        assert np.array_equal(remote_estimate.rates, local_estimate.rates)
        assert np.array_equal(remote_estimate.powers,
                              local_estimate.powers)
        assert remote_estimate.estimator_name == "leo"

    def test_full_run_bit_equal(self, service_thread, cores_space,
                                cores_dataset):
        view = cores_dataset.leave_one_out("swish")
        swish = get_benchmark("swish")

        local = _controller(cores_space, view, LEOEstimator())
        local_estimate = local.calibrate(swish)
        work = 0.6 * float(local_estimate.rates.max()) * 20.0
        local_report = local.run(swish, work=work, deadline=20.0,
                                 estimate=local_estimate)

        with ServiceClient(service_thread.bound_address,
                           timeout=120.0) as client:
            remote = _controller(
                cores_space, view,
                RemoteEstimator(client, estimator="leo"))
            remote_estimate = remote.calibrate(swish)
            remote_report = remote.run(swish, work=work, deadline=20.0,
                                       estimate=remote_estimate)

        assert remote_report.energy == local_report.energy
        assert remote_report.work_done == local_report.work_done
        assert remote_report.met_target == local_report.met_target
        assert remote_report.power_trace == local_report.power_trace
        assert remote_report.rate_trace == local_report.rate_trace


class TestWarmStartAcrossTenants:
    def test_second_tenant_skips_sampling(self, tmp_path):
        """The examples/service_demo.py scenario as a test: tenant A
        calibrates and publishes; tenant B gets the same curves with
        zero samples."""
        service = EstimationService(
            registry=ModelRegistry(tmp_path / "registry"))
        with ServerThread(service, max_pending=8,
                          max_workers=2) as thread:
            with ServiceClient(thread.bound_address,
                               timeout=300.0) as tenant_a:
                cold = tenant_a.calibrate_report(
                    "kmeans", space="cores", samples=6, estimator="leo",
                    deadline_s=240.0)
            with ServiceClient(thread.bound_address,
                               timeout=300.0) as tenant_b:
                warm = tenant_b.calibrate_report(
                    "kmeans", space="cores", samples=6, estimator="leo",
                    deadline_s=240.0)
        assert cold["source"] == "calibration"
        assert cold["samples_used"] == 6
        assert cold["version"] == 1
        assert warm["source"] == "registry"
        assert warm["samples_used"] == 0
        # Identical curves, bit for bit — the registry serves exactly
        # what was published.
        for key in ("rates", "powers"):
            assert (np.asarray(warm[key]).tobytes()
                    == np.asarray(cold[key]).tobytes())
