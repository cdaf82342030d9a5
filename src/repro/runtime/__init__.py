"""The LEO runtime: sampling, control loop, heuristics, facade."""

from repro.runtime.active_sampling import ActiveCalibration, ActiveCalibrator
from repro.runtime.controller import RunReport, RuntimeController, TradeoffEstimate
from repro.runtime.energy_manager import EnergyManager
from repro.runtime.feedback import HullRateController
from repro.runtime.governor import OndemandGovernor
from repro.runtime.persistence import CheckpointManager
from repro.runtime.phase_detector import PhaseDetector
from repro.runtime.resilience import CircuitBreaker, DegradationLadder
from repro.runtime.race_to_idle import (
    RaceToIdleController,
    all_resources_config,
    race_to_idle_energy,
)
from repro.runtime.sampling import (
    GridSampler,
    RandomSampler,
    Sampler,
    StratifiedSampler,
)

__all__ = [
    "ActiveCalibration",
    "ActiveCalibrator",
    "RunReport",
    "RuntimeController",
    "TradeoffEstimate",
    "CheckpointManager",
    "CircuitBreaker",
    "DegradationLadder",
    "EnergyManager",
    "HullRateController",
    "OndemandGovernor",
    "PhaseDetector",
    "RaceToIdleController",
    "all_resources_config",
    "race_to_idle_energy",
    "GridSampler",
    "RandomSampler",
    "Sampler",
    "StratifiedSampler",
]
