"""Application substrate: profiles, the 25-benchmark suite, phases, traces."""

from repro.workloads.generator import ProfileGenerator
from repro.workloads.inputs import REFERENCE_INPUT, InputSpec, input_sweep
from repro.workloads.phases import Phase, PhasedWorkload, fluidanimate_two_phase
from repro.workloads.profile import ApplicationProfile
from repro.workloads.suite import (
    SUITE_MEMBERSHIP,
    benchmark_names,
    get_benchmark,
    paper_suite,
)
from repro.workloads.traces import LeaveOneOut, OfflineDataset

__all__ = [
    "ApplicationProfile",
    "REFERENCE_INPUT",
    "InputSpec",
    "input_sweep",
    "ProfileGenerator",
    "Phase",
    "PhasedWorkload",
    "fluidanimate_two_phase",
    "SUITE_MEMBERSHIP",
    "benchmark_names",
    "get_benchmark",
    "paper_suite",
    "LeaveOneOut",
    "OfflineDataset",
]
