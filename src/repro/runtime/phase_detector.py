"""Detecting application phase changes from heartbeat feedback.

Section 6.6 shows LEO adapting when fluidanimate's input moves to a
lighter phase.  The runtime cannot see the input; it can only see that
the heartbeat rate at the current configuration no longer matches what
the model predicts.  :class:`PhaseDetector` encodes that test: a phase
change is flagged when the observed rate deviates relative to the
expected rate by more than a threshold for several consecutive windows
(consecutiveness filters measurement noise spikes).
"""

from __future__ import annotations

from typing import Optional


class PhaseDetector:
    """Flags sustained deviations of observed rate from expected rate.

    Args:
        threshold: Relative deviation that counts as anomalous
            (0.15 = 15 %).
        patience: Consecutive anomalous windows required to flag a
            phase change.
    """

    def __init__(self, threshold: float = 0.15, patience: int = 3) -> None:
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        if patience < 1:
            raise ValueError(f"patience must be >= 1, got {patience}")
        self.threshold = threshold
        self.patience = patience
        self._streak = 0
        self.detections = 0

    def update(self, expected_rate: float, observed_rate: float,
               threshold: Optional[float] = None) -> bool:
        """Feed one window; returns True when a phase change is flagged.

        After flagging, the detector resets its streak so the caller can
        re-estimate and resume monitoring against the new model.

        ``threshold`` overrides the detector's default for this window —
        callers use a looser bound when the expectation itself is less
        trustworthy (e.g. a configuration the model has never seen
        measured, where estimation error is easily mistaken for a phase
        change).
        """
        if expected_rate <= 0:
            raise ValueError(f"expected_rate must be positive, got {expected_rate}")
        if observed_rate < 0:
            raise ValueError(f"observed_rate must be >= 0, got {observed_rate}")
        limit = self.threshold if threshold is None else threshold
        if limit <= 0:
            raise ValueError(f"threshold must be positive, got {limit}")
        deviation = abs(observed_rate - expected_rate) / expected_rate
        if deviation > limit:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.patience:
            self._streak = 0
            self.detections += 1
            return True
        return False

    def reset(self) -> None:
        """Clear the anomaly streak (e.g. after re-estimation)."""
        self._streak = 0

    def snapshot(self) -> dict:
        """Settings and progress, as plain JSON."""
        return {"threshold": self.threshold, "patience": self.patience,
                "streak": self._streak, "detections": self.detections}

    def restore(self, snapshot: dict) -> None:
        """Resume a :meth:`snapshot`'s streak and detection count."""
        self._streak = int(snapshot["streak"])
        self.detections = int(snapshot["detections"])
