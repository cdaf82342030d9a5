"""Offline profiling traces: the "previously observed applications".

LEO's prior knowledge is a table of power and performance for M-1
applications measured offline in every configuration (Section 5.2).  On
the authors' testbed this table took days of exhaustive search to collect
(Section 6.7); here :class:`OfflineDataset` produces it from the simulated
machine, deterministically for a given seed, and supports the
leave-one-out protocol the evaluation uses (the target application's own
trace is withheld and kept only as ground truth).
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Sequence, Tuple

import numpy as np

from repro.platform.config_space import ConfigurationSpace
from repro.workloads.profile import ApplicationProfile

if TYPE_CHECKING:  # avoid a circular import with repro.platform.machine
    from repro.platform.machine import Machine


@dataclasses.dataclass(frozen=True)
class LeaveOneOut:
    """The view of an :class:`OfflineDataset` for one target application.

    Attributes:
        target: Name of the held-out application.
        prior_names: Names of the M-1 applications whose traces LEO sees.
        prior_rates: ``(M-1, n)`` heartbeat-rate table of the priors.
        prior_powers: ``(M-1, n)`` system-power table of the priors.
        true_rates: ``(n,)`` ground-truth rates of the target (withheld
            from estimators; used only for evaluation and for simulating
            the target's online samples).
        true_powers: ``(n,)`` ground-truth powers of the target.
    """

    target: str
    prior_names: Tuple[str, ...]
    prior_rates: np.ndarray
    prior_powers: np.ndarray
    true_rates: np.ndarray
    true_powers: np.ndarray


class OfflineDataset:
    """Full profiling tables for a set of applications on one space."""

    def __init__(self, space: ConfigurationSpace, names: Sequence[str],
                 rates: np.ndarray, powers: np.ndarray) -> None:
        rates = np.asarray(rates, dtype=float)
        powers = np.asarray(powers, dtype=float)
        if rates.shape != (len(names), len(space)):
            raise ValueError(
                f"rates shape {rates.shape} != ({len(names)}, {len(space)})"
            )
        if powers.shape != rates.shape:
            raise ValueError(
                f"powers shape {powers.shape} != rates shape {rates.shape}"
            )
        if len(set(names)) != len(names):
            raise ValueError("application names must be unique")
        if np.any(rates <= 0) or np.any(powers <= 0):
            raise ValueError("rates and powers must be strictly positive")
        self.space = space
        self.names: List[str] = list(names)
        self.rates = rates
        self.powers = powers

    def __len__(self) -> int:
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Row index of application ``name``; KeyError if absent."""
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown application {name!r}") from None

    def row(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """``(rates, powers)`` of one application, each shape ``(n,)``."""
        i = self.index_of(name)
        return self.rates[i], self.powers[i]

    def leave_one_out(self, target: str) -> LeaveOneOut:
        """Withhold ``target`` and expose the remaining traces as priors."""
        i = self.index_of(target)
        keep = [j for j in range(len(self.names)) if j != i]
        return LeaveOneOut(
            target=target,
            prior_names=tuple(self.names[j] for j in keep),
            prior_rates=self.rates[keep],
            prior_powers=self.powers[keep],
            true_rates=self.rates[i].copy(),
            true_powers=self.powers[i].copy(),
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def collect(cls, machine: "Machine", profiles: Sequence[ApplicationProfile],
                space: ConfigurationSpace, noisy: bool = True,
                window: float = 1.0) -> "OfflineDataset":
        """Run the offline profiling campaign on ``machine``.

        With ``noisy=False`` this is the exhaustive-search ground truth;
        with ``noisy=True`` it is the realistic offline dataset whose
        entries carry single-window measurement noise.
        """
        if not profiles:
            raise ValueError("need at least one profile")
        names = [p.name for p in profiles]
        rates = np.empty((len(profiles), len(space)))
        powers = np.empty_like(rates)
        for i, profile in enumerate(profiles):
            rates[i], powers[i] = machine.sweep(
                profile, space, window=window, noisy=noisy)
        return cls(space, names, rates, powers)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize the tables (not the space) to an ``.npz`` file."""
        np.savez_compressed(
            path, names=np.array(self.names), rates=self.rates,
            powers=self.powers,
        )

    @classmethod
    def load(cls, path: str, space: ConfigurationSpace) -> "OfflineDataset":
        """Load tables saved by :meth:`save`, rebinding them to ``space``."""
        with np.load(path, allow_pickle=False) as data:
            names = [str(n) for n in data["names"]]
            return cls(space, names, data["rates"], data["powers"])
