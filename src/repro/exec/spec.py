"""Content-addressed run specifications.

A :class:`RunSpec` freezes one run of the paper's experiment — every input
of :func:`~repro.experiments.driver.execute_spec` — and is how a run is
launched: ``RunSpec(...).run()``.  Two things make it more than a kwargs
bundle:

* :meth:`RunSpec.normalized` resolves every derived default (optimal
  overlap, daemon population, the experiment config), so specs that *mean*
  the same run *are* the same record;
* :meth:`RunSpec.key` is a stable SHA-256 content address over the
  normalized fields plus :func:`code_fingerprint` — a digest of the
  ``repro`` source tree — so results cached on disk are never served
  across a code change.

``tracer`` deliberately has no field: a live :class:`~repro.obs.Tracer`
cannot cross a process boundary.  ``traced=True`` instead makes the worker
build its own tracer and ship the condensed
:class:`~repro.obs.RunReport` back inside the :class:`RunResult`.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib
from dataclasses import asdict, dataclass, fields, replace

from repro.checkpoint.policy import FixedPolicy
from repro.faults.plan import FaultPlan
from repro.p2p.config import P2PConfig

# NOTE: repro.experiments.config is imported lazily (inside normalized())
# because the experiments package itself imports repro.exec — the None
# sentinels below mean "the driver's default", resolved at normalization.

__all__ = ["RunSpec", "code_fingerprint"]


@functools.lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 digest (16 hex chars) of every ``.py`` file under ``repro``.

    Computed once per process; baked into every :meth:`RunSpec.key` so a
    source change silently invalidates all previously cached results.
    """
    import repro

    root = pathlib.Path(repro.__file__).parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunSpec:
    """Every input of one experiment run, as a frozen value object."""

    n: int
    peers: int = 8
    disconnections: int = 0
    seed: int = 0
    overlap: int | None = None
    config: P2PConfig | None = None
    n_daemons: int | None = None
    n_superpeers: int = 3
    churn_window: float | None = None
    reconnect_delay: float | None = None
    link_scale: float | None = None
    horizon: float = 900.0
    convergence_threshold: float = 1e-6
    collect: bool = True
    warm_start: bool = False
    inner_tol: float = 1e-10
    inner_max_iter: int | None = None
    #: scheduled fault scenario (:class:`repro.faults.FaultPlan`) executed
    #: alongside the run; seeded from ``seed`` like everything else
    faults: FaultPlan | None = None
    #: checkpoint strategy (:class:`repro.checkpoint.FixedPolicy`);
    #: None resolves to the paper's :class:`~repro.checkpoint.FixedPolicy`
    #: (20 guardians, every 5 iterations) at normalization
    checkpoint: FixedPolicy | None = None
    #: screen incoming boundary components (and restored Backups) with the
    #: contraction-bound corruption filter (arXiv:2206.08479)
    reject_corruption: bool = False
    #: switch on the epidemic control plane (``repro.gossip``): membership
    #: discovery, decentralized convergence cross-check, gossip traces
    gossip: bool = False
    #: run a warm-standby Spawner shadowing the primary (implies gossip);
    #: the ``spawner-down`` scenario needs this
    standby: bool = False
    #: run with a worker-local tracer and ship the RunReport back
    traced: bool = False

    # -- normalization --------------------------------------------------------

    def normalized(self) -> "RunSpec":
        """Resolve derived defaults: ``config or EXPERIMENT_CONFIG``,
        ``checkpoint or FixedPolicy()``, half-width optimal overlap,
        ``peers + max(3, peers // 2)`` daemons.  Normalizing is what makes
        the churn-free calibration spec of every churn level collide on
        the same cache key.
        """
        from repro.experiments.config import (
            EXPERIMENT_CONFIG,
            EXPERIMENT_LINK_SCALE,
            RECONNECT_DELAY,
            optimal_overlap,
        )

        changes: dict = {}
        if self.config is None:
            changes["config"] = EXPERIMENT_CONFIG
        if self.checkpoint is None:
            changes["checkpoint"] = FixedPolicy()
        if self.overlap is None:
            changes["overlap"] = optimal_overlap(self.n, self.peers)
        if self.n_daemons is None:
            changes["n_daemons"] = self.peers + max(3, self.peers // 2)
        if self.reconnect_delay is None:
            changes["reconnect_delay"] = RECONNECT_DELAY
        if self.link_scale is None:
            changes["link_scale"] = EXPERIMENT_LINK_SCALE
        return replace(self, **changes) if changes else self

    def needs_calibration(self) -> bool:
        """True when the driver would do a churn-free pre-run to size the
        churn window."""
        return self.disconnections > 0 and self.churn_window is None

    def calibration_spec(self) -> "RunSpec":
        """The fault-free pre-run the driver performs for this spec.

        Strips churn *and* the fault plan: the calibration measures the
        undisturbed convergence time that sizes the churn window.
        """
        return replace(
            self, disconnections=0, collect=False, traced=False, faults=None
        ).normalized()

    # -- content address ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready field dump (``config`` flattened to its fields)."""
        out = asdict(self)
        # asdict() loses the actions' class identity (their ``kind`` tag is
        # a ClassVar); FaultPlan.to_dict keeps it.
        out["faults"] = self.faults.to_dict() if self.faults is not None else None
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        data = dict(data)
        if data.get("config") is not None:
            data["config"] = P2PConfig(**data["config"])
        if data.get("faults") is not None:
            data["faults"] = FaultPlan.from_dict(data["faults"])
        if data.get("checkpoint") is not None:
            data["checkpoint"] = FixedPolicy(**data["checkpoint"])
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def key(self) -> str:
        """Stable 32-hex-char content address of the *normalized* spec.

        Covers every field and the :func:`code_fingerprint`; computed via
        canonical JSON so it is identical across processes and sessions
        (no reliance on ``hash()``).
        """
        payload = self.normalized().to_dict()
        payload["__fingerprint__"] = code_fingerprint()
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:32]

    # -- execution ------------------------------------------------------------

    def run(self, tracer=None):
        """Execute this spec in the current process — THE run entrypoint.

        Everything that executes a run goes through here: the sweep
        engine's workers (via :meth:`execute`), the CLI and the experiment
        harnesses.  ``tracer`` is a live :class:`~repro.obs.Tracer` for
        in-process observation (the calibration pre-run stays untraced, so
        the trace describes exactly one execution) and populates
        :attr:`RunResult.run_report`; use ``traced=True`` instead when the
        run crosses a process boundary.
        """
        from repro.experiments.driver import execute_spec

        return execute_spec(self, tracer=tracer)

    def execute(self):
        """Run this spec honouring ``traced`` (the engine's unit of work):
        a traced run records into the bounded in-memory :class:`Tracer`
        ring."""
        tracer = None
        if self.traced:
            from repro.obs import Tracer

            tracer = Tracer()
        return self.run(tracer=tracer)
