"""A checkpoint resumes only on the configuration space it was taken on.

The payload's curves and the machine's applied configuration are
indexed by the taking controller's space.  Resuming them over another
space would apply configurations by indices that mean something else
there, so :meth:`RuntimeController.resume` refuses with
:class:`CheckpointError` before it restores any of them.
"""

import pytest

from repro.errors import CheckpointError
from repro.estimators.offline import OfflineEstimator
from repro.platform.machine import Machine
from repro.platform.topology import PAPER_TOPOLOGY
from repro.runtime.controller import RuntimeController
from repro.runtime.sampling import RandomSampler

from golden.generate_golden import CaptureAt

DEADLINE = 20.0


def offline_controller(space, dataset=None, app="kmeans"):
    view = dataset.leave_one_out(app) if dataset is not None else None
    return RuntimeController(
        machine=Machine(PAPER_TOPOLOGY, seed=11), space=space,
        estimator=OfflineEstimator(),
        prior_rates=view.prior_rates if view else None,
        prior_powers=view.prior_powers if view else None,
        sampler=RandomSampler(seed=0), sample_count=6)


@pytest.fixture(scope="module")
def cores_payload(cores_space, cores_dataset, kmeans):
    """A mid-run checkpoint of a 32-configuration run."""
    controller = offline_controller(cores_space, cores_dataset)
    estimate = controller.calibrate(kmeans)
    capture = CaptureAt(5)
    controller.run(kmeans, 0.4 * estimate.rates.max() * DEADLINE, DEADLINE,
                   estimate, checkpointer=capture)
    assert capture.payload is not None
    return capture.payload


def test_resume_rejects_a_checkpoint_of_a_smaller_space(
        cores_payload, paper_space, kmeans):
    controller = offline_controller(paper_space)
    with pytest.raises(CheckpointError, match="1024"):
        controller.resume(cores_payload, kmeans)
    # Refused before the machine was loaded or restored.
    assert controller.machine.clock == 0.0
    assert controller.machine.profile is None


def test_resume_rejects_any_mismatched_curve(cores_payload, cores_space,
                                             cores_dataset, kmeans):
    for key in ("rates", "powers"):
        payload = dict(cores_payload, **{key: cores_payload[key][:-1]})
        with pytest.raises(CheckpointError):
            offline_controller(cores_space, cores_dataset).resume(
                payload, kmeans)
        estimate = dict(cores_payload["estimate"],
                        **{key: cores_payload["estimate"][key] * 2})
        payload = dict(cores_payload, estimate=estimate)
        with pytest.raises(CheckpointError):
            offline_controller(cores_space, cores_dataset).resume(
                payload, kmeans)


def test_resume_rejects_an_out_of_range_configuration(
        cores_payload, cores_space, cores_dataset, kmeans):
    machine = dict(cores_payload["machine"], config_index=len(cores_space))
    payload = dict(cores_payload, machine=machine)
    with pytest.raises(CheckpointError, match="outside"):
        offline_controller(cores_space, cores_dataset).resume(payload, kmeans)
