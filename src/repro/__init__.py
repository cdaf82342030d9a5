"""LEO: probabilistic graphical model-based energy minimization.

A full reproduction of Mishra, Zhang, Lafferty & Hoffmann, "A
Probabilistic Graphical Model-based Approach for Minimizing Energy Under
Performance Constraints" (ASPLOS 2015), including the simulated test
platform, the 25-benchmark workload suite, all comparison estimators, the
energy-minimization runtime, and one experiment module per paper figure
and table.

Quickstart::

    from repro import EnergyManager, get_benchmark

    manager = EnergyManager(estimator="leo")
    report = manager.optimize(get_benchmark("kmeans"), utilization=0.5)
    print(report.energy, report.met_target)

See README.md for the architecture overview and DESIGN.md for the
system inventory and per-experiment index.
"""

from repro.clock import (
    Clock,
    VirtualClock,
    WallClock,
    get_clock,
)
from repro.clock import use as use_clock
from repro.cluster import (
    ClusterCoordinator,
    ClusterReport,
    PartitionedMachine,
    PowerCapAllocator,
    Tenant,
)
from repro.core import (
    EMConfig,
    HierarchicalBayesianModel,
    NIWPrior,
    ObservationSet,
    accuracy,
)
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    default_plan,
    get_plan,
)
from repro.faults import use as use_faults
from repro.obs import (
    MetricsRegistry,
    Observability,
    Span,
    Tracer,
    logging_setup,
)
from repro.obs import use as use_observability
from repro.estimators import (
    EstimationProblem,
    Estimator,
    InsufficientSamplesError,
    LEOEstimator,
    OfflineEstimator,
    OnlineEstimator,
    available_estimators,
    create_estimator,
    register_estimator,
)
from repro.optimize import EnergyMinimizer, Schedule, Slot, TradeoffFrontier
from repro.platform import Configuration, ConfigurationSpace, Machine, Topology
from repro.runtime import (
    ActiveCalibrator,
    CheckpointManager,
    EnergyManager,
    RaceToIdleController,
    RunReport,
    RuntimeController,
    TradeoffEstimate,
)
from repro.workloads import (
    ApplicationProfile,
    OfflineDataset,
    PhasedWorkload,
    ProfileGenerator,
    benchmark_names,
    get_benchmark,
    paper_suite,
)

__version__ = "1.0.0"

__all__ = [
    "Clock",
    "VirtualClock",
    "WallClock",
    "get_clock",
    "use_clock",
    "ClusterCoordinator",
    "ClusterReport",
    "PartitionedMachine",
    "PowerCapAllocator",
    "Tenant",
    "EMConfig",
    "HierarchicalBayesianModel",
    "NIWPrior",
    "ObservationSet",
    "accuracy",
    "EstimationProblem",
    "Estimator",
    "InsufficientSamplesError",
    "LEOEstimator",
    "OfflineEstimator",
    "OnlineEstimator",
    "available_estimators",
    "create_estimator",
    "register_estimator",
    "EnergyMinimizer",
    "Schedule",
    "Slot",
    "TradeoffFrontier",
    "Configuration",
    "ConfigurationSpace",
    "Machine",
    "Topology",
    "MetricsRegistry",
    "Observability",
    "Span",
    "Tracer",
    "logging_setup",
    "use_observability",
    "ReproError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "default_plan",
    "get_plan",
    "use_faults",
    "ActiveCalibrator",
    "CheckpointManager",
    "EnergyManager",
    "RaceToIdleController",
    "RunReport",
    "RuntimeController",
    "TradeoffEstimate",
    "ApplicationProfile",
    "OfflineDataset",
    "PhasedWorkload",
    "ProfileGenerator",
    "benchmark_names",
    "get_benchmark",
    "paper_suite",
    "__version__",
]
