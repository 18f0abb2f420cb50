"""Online failure/cost statistics feeding adaptive checkpoint policies.

One :class:`FailureFeed` is shared per cluster: the Spawner's failure
detector records every heartbeat eviction into it, each task's checkpoint
path records the bytes it ships, and every bound
:class:`~repro.checkpoint.policy.AdaptivePolicy` state reads the resulting
EWMA estimates when re-tuning its interval and replica count (the
adaptive-checkpointing cost model of arXiv:0711.3949).

Everything here is driven exclusively by simulated time and protocol
events, so the adaptation trajectory is a pure function of the run — the
same seed replays the same estimates bit-for-bit.
"""

from __future__ import annotations

__all__ = ["FailureFeed"]


#: EWMA smoothing factor of the inter-arrival and checkpoint-size estimates
#: (higher = more reactive)
ALPHA = 0.3


class FailureFeed:
    """EWMA estimator of Daemon failure inter-arrival time and checkpoint
    cost, both smoothed by :data:`ALPHA`."""

    __slots__ = ("failures", "last_failure_at", "interval_ewma",
                 "bytes_ewma", "checkpoints_seen")

    def __init__(self):
        #: total failures observed (heartbeat evictions)
        self.failures = 0
        #: sim-time of the most recent failure (None until the first)
        self.last_failure_at: float | None = None
        #: EWMA of failure inter-arrival times (None until two failures)
        self.interval_ewma: float | None = None
        #: EWMA of checkpoint payload bytes (None until the first)
        self.bytes_ewma: float | None = None
        #: total checkpoints whose size was recorded
        self.checkpoints_seen = 0

    # -- recording ----------------------------------------------------------

    def record_failure(self, now: float) -> None:
        """One detected Daemon failure at sim-time ``now``."""
        last = self.last_failure_at
        if last is not None:
            gap = now - last
            if gap >= 0.0:
                if self.interval_ewma is None:
                    self.interval_ewma = gap
                else:
                    a = ALPHA
                    self.interval_ewma = (1.0 - a) * self.interval_ewma + a * gap
        self.failures += 1
        self.last_failure_at = now

    def record_checkpoint(self, nbytes: int) -> None:
        """One checkpoint of ``nbytes`` payload shipped to a guardian."""
        if self.bytes_ewma is None:
            self.bytes_ewma = float(nbytes)
        else:
            a = ALPHA
            self.bytes_ewma = (1.0 - a) * self.bytes_ewma + a * float(nbytes)
        self.checkpoints_seen += 1

    # -- estimates ----------------------------------------------------------

    def mtbf(self, now: float) -> float | None:
        """Current mean-time-between-failures estimate, or None while no
        failure has been observed.

        The EWMA alone would stay pinned to a storm's short gaps forever;
        stretching the estimate with the silence since the last failure
        (``now - last_failure_at``) lets a cluster that has gone quiet
        earn back a long interval — deterministically, since ``now`` is
        sim-time."""
        last = self.last_failure_at
        if last is None:
            return None
        silence = now - last
        if self.interval_ewma is None:
            # exactly one failure so far: its arrival time is the only
            # inter-arrival sample we have
            estimate = max(last, silence)
        else:
            estimate = max(self.interval_ewma, silence)
        return estimate if estimate > 0.0 else None

    def checkpoint_cost(self, bandwidth: float, overhead: float) -> float:
        """Estimated seconds one checkpoint costs: fixed overhead plus the
        EWMA payload over the modelled link bandwidth."""
        nbytes = self.bytes_ewma or 0.0
        return overhead + nbytes / bandwidth

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<FailureFeed failures={self.failures} "
                f"interval={self.interval_ewma} bytes={self.bytes_ewma}>")
