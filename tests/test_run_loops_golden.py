"""Golden pin of the five runtime loops and the controller checkpoint.

``tests/golden/run_loops.json`` holds, captured before the loops shared
one run-state: the :class:`RunReport` of the LEO controller (with and
without phase adaptation), race-to-idle, the ondemand governor (also on
the paper space) and the hull rate controller on three cores-space
applications; the cluster coordinator's outcome under each policy; and
two mid-run controller checkpoint payloads with the reports of the same
runs.  Every loop is driven by ``offline`` estimates, so no EM enters
the fixture.

Floats must match to ``rtol=1e-12``; integers, flags, strings, keys and
trace lengths exactly.  Regenerate with ``PYTHONPATH=src python
tests/golden/generate_golden.py run_loops`` only when the loops'
intended behaviour changes.
"""

from __future__ import annotations

import json
import math
import pathlib

import pytest

from repro.workloads.suite import get_benchmark

from golden.generate_golden import (
    run_loop_controller,
    run_loop_dataset,
    run_loop_space,
    run_loops_outcome,
)

FIXTURE = pathlib.Path(__file__).parent / "golden" / "run_loops.json"
RTOL = 1e-12
#: Wall-clock bookkeeping (the estimate's fit time) differs run to run.
WALL_CLOCK_KEYS = frozenset({"fit_seconds"})


def assert_matches(actual, expected, path="$"):
    """Recursive comparison: floats at ``RTOL``, everything else exact."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), path
        assert sorted(actual) == sorted(expected), path
        for key, value in expected.items():
            if key not in WALL_CLOCK_KEYS:
                assert_matches(actual[key], value, f"{path}.{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, (list, tuple)), path
        assert len(actual) == len(expected), f"{path}: length"
        for i, (a, e) in enumerate(zip(actual, expected)):
            assert_matches(a, e, f"{path}[{i}]")
    elif isinstance(expected, bool) or expected is None:
        assert actual == expected and type(actual) is not float, path
    elif isinstance(expected, float):
        assert isinstance(actual, float), path
        assert math.isclose(actual, expected, rel_tol=RTOL, abs_tol=0.0), \
            f"{path}: {actual!r} != {expected!r}"
    else:
        assert type(actual) is type(expected) and actual == expected, \
            f"{path}: {actual!r} != {expected!r}"


@pytest.fixture(scope="module")
def golden():
    if not FIXTURE.exists():
        pytest.fail(f"missing golden fixture {FIXTURE}; regenerate with "
                    f"PYTHONPATH=src python tests/golden/generate_golden.py "
                    f"run_loops")
    return json.loads(FIXTURE.read_text())


@pytest.fixture(scope="module")
def outcome():
    # One JSON round trip, as the fixture went through: numpy scalars
    # become plain values and tuples become lists.
    return json.loads(json.dumps(run_loops_outcome(),
                                 default=lambda value: value.item()))


@pytest.mark.parametrize("section", ["reports", "cluster", "checkpoints"])
def test_loops_match_golden(golden, outcome, section):
    assert_matches(outcome[section], golden[section], f"$.{section}")


def test_golden_covers_every_loop(golden):
    loops = {key.split("/")[0] for key in golden["reports"]}
    assert loops == {"controller", "controller_adapt", "race_to_idle",
                     "governor", "governor_paper", "hull"}
    assert set(golden["cluster"]) == {"joint", "static", "race"}
    # The adaptive runs exercised inline re-calibration, and the
    # checkpoints carry detector progress and visited configurations.
    assert any(report["reestimations"]
               for key, report in golden["reports"].items()
               if key.startswith("controller_adapt/"))
    payloads = [case["payload"] for case in golden["checkpoints"].values()]
    assert any(payload["detector"]["streak"] for payload in payloads)
    assert any(payload["visited"] for payload in payloads)


@pytest.mark.parametrize("app", ["kmeans", "x264"])
def test_stored_checkpoint_resumes_to_stored_report(golden, app):
    """A checkpoint in the stored (schema 1) format resumes to the
    report of the run it was taken from."""
    case = golden["checkpoints"][app]
    space = run_loop_space()
    controller = run_loop_controller(space, run_loop_dataset(space), app,
                                     seed=case["seed"])
    report = controller.resume(case["payload"], get_benchmark(app))
    resumed = json.loads(json.dumps(vars(report),
                                    default=lambda value: value.item()))
    assert_matches(resumed, case["report"], "$.resumed")
