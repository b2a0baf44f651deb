"""The replicating autoscale policies: replica selectors with a controller.

``ClusterParams.autoscale`` names a policy.  ``static`` and
``heat-replicate`` are :class:`~repro.parallel.engine.replicas.ReplicaSelector`
subclasses: the request pipeline installs the policy as its one selector
in place of ``replica_policy``.  ``null`` resolves to no policy at all, so
the pipeline keeps its plain selector and the run is byte-for-byte
identical to one without ``autoscale`` (``tests/test_autoscale_neutrality.py``
pins this against the engine goldens).

A replicating policy sends every bucket read to one of the bucket's live
copies — primary or autoscaler-created replica — in per-bucket round-robin
order, and fails over around suspected nodes using the surviving copies.
Every block a controller action physically copies is charged to the
simulated resources it would occupy (source disk read, NIC transfer,
destination disk write; :meth:`~repro.parallel.engine.pipeline.RequestPipeline.ship_block`),
so the latency benefit of replication and the cost of making the copies
meet in the same simulated clock.

Observability: ``autoscale.*`` counters/gauges land in the run's
:class:`~repro.obs.MetricsRegistry` and the controller work is profiled
under the ``autoscale.control`` / ``autoscale.membership`` phases (see
``docs/observability.md``).
"""

from __future__ import annotations

import numpy as np

from repro.obs import PROFILER
from repro.parallel.autoscale.controller import AutoscaleController
from repro.parallel.autoscale.params import AutoscaleParams
from repro.parallel.engine.replicas import ReplicaSelector

__all__ = [
    "StaticReplicate",
    "HeatReplicate",
    "AUTOSCALE_POLICIES",
    "make_autoscale_policy",
]


class _ReplicatedAutoscale(ReplicaSelector):
    """Shared machinery of the replicating policies.

    Owns an :class:`AutoscaleController`, routes reads across its copies,
    charges the cost of every copied block, and keeps the movement /
    replica counters the report and bench gates read.
    """

    #: Whether the policy runs the closed control loop on query completions.
    adaptive = False

    def __init__(self, params: AutoscaleParams):
        self.p = params
        self.replicas_created = 0
        self.replicas_evicted = 0
        self.promotions = 0
        self.moves = 0
        self.control_steps = 0
        self.joins = 0
        self.leaves = 0
        self.peak_replicas = 0
        self._completed = 0

    def bind(self, pipeline) -> None:
        super().bind(pipeline)
        store = pipeline.owner.store
        sizes = store.page_sizes().tolist()
        self._build_controller(
            active=pipeline.n_disks, expand_fn=None, sizes=sizes
        )
        self._rr: dict[int, int] = {}

    def _build_controller(self, active: int, expand_fn, sizes=None) -> None:
        if sizes is None:
            sizes = self.ctl.sizes if hasattr(self, "ctl") else None
        self.ctl = AutoscaleController(
            [int(d) for d in self.pipe.coordinator.assignment],
            active_disks=active,
            pool_disks=self.pipe.n_disks,
            params=self.p,
            sizes=sizes,
            expand_fn=expand_fn,
        )
        self._bootstrap()

    def configure(self, active: int, expand_fn=None) -> None:
        """Driver hook: shrink the live prefix below the provisioned pool
        and install the join-time rebalancer (before any query runs)."""
        self._build_controller(active=active, expand_fn=expand_fn)
        self._sync_assignment()

    def _bootstrap(self) -> None:
        """Pre-run replica provisioning (free — it predates the workload)."""

    # -- routing -------------------------------------------------------------

    def _choose(self, b: int, failed: set) -> "int | None":
        # Per-bucket round-robin over the live copies.  A cumulative
        # per-disk counter would dump the whole stream onto a freshly
        # created replica until it "caught up" with the primary's history;
        # alternating per bucket splits the load 50/50 from the first
        # request after the copy lands.
        cands = [d for d in self.ctl.copies(b) if d not in failed]
        if not cands:
            return None
        i = self._rr.get(b, 0)
        self._rr[b] = i + 1
        return cands[i % len(cands)]

    # -- control loop ---------------------------------------------------------

    def query_complete(self, qid: int) -> None:
        plan = self.pipe.plans[qid]
        if plan is None:
            return
        bids = [int(b) for r in plan.requests for b in r.bucket_ids]
        if bids:
            self.ctl.observe(bids)
        self._completed += 1
        if self.adaptive and self._completed % self.p.interval == 0:
            with PROFILER.phase("autoscale.control"):
                actions = self.ctl.control_step()
            self.control_steps += 1
            self.pipe.metrics.counter("autoscale.control_steps").inc()
            self._apply(actions)

    def apply_event(self, event) -> None:
        """Driver hook: one membership/budget event fires on the sim clock."""
        with PROFILER.phase("autoscale.membership"):
            if event.kind == "join":
                actions = self.ctl.join(event.count)
                self.joins += 1
                self.pipe.metrics.counter("autoscale.joins").inc()
            elif event.kind == "leave":
                actions = self.ctl.leave(event.count)
                self.leaves += 1
                self.pipe.metrics.counter("autoscale.leaves").inc()
            elif event.kind == "budget":
                actions = self.ctl.set_budget(event.budget)
            else:  # pragma: no cover - ScalePlan validates kinds
                raise ValueError(f"unknown scale event kind {event.kind!r}")
        self._apply(actions)
        self._sync_assignment()
        self.pipe.metrics.gauge("autoscale.active_disks").set(self.ctl.active)

    # -- action application ----------------------------------------------------

    def _apply(self, actions) -> None:
        metrics = self.pipe.metrics
        for a in actions:
            if a.copies_block:
                self.pipe.ship_block(a.dst, self.pipe.sim.now, src=a.src)
            if a.kind == "replicate":
                self.replicas_created += 1
                metrics.counter("autoscale.replicas.created").inc()
            elif a.kind == "evict":
                self.replicas_evicted += 1
                metrics.counter("autoscale.replicas.evicted").inc()
            elif a.kind == "promote":
                self.promotions += 1
                metrics.counter("autoscale.promotions").inc()
            elif a.kind == "move":
                self.moves += 1
                metrics.counter("autoscale.moves").inc()
        self.peak_replicas = max(self.peak_replicas, self.ctl.n_replicas)
        metrics.gauge("autoscale.replica_count").set(self.ctl.n_replicas)

    def _sync_assignment(self) -> None:
        """Publish the controller's primary map to the coordinator (primaries
        only change on membership events; online primary moves flow the
        other way, driver -> controller)."""
        self.pipe.coordinator.assignment = np.asarray(
            self.ctl.assignment, dtype=np.int64
        )

    def ledger(self) -> dict:
        """The run's control ledger, by
        :class:`~repro.parallel.autoscale.driver.AutoscaleReport` field."""
        return {
            "replicas_created": self.replicas_created,
            "replicas_evicted": self.replicas_evicted,
            "promotions": self.promotions,
            "moves": self.moves,
            "control_steps": self.control_steps,
            "joins": self.joins,
            "leaves": self.leaves,
            "final_replicas": self.ctl.n_replicas,
            "peak_replicas": self.peak_replicas,
        }

    # -- online-engine coherence ----------------------------------------------

    def bucket_added(self, disk: int) -> None:
        self.ctl.add_bucket(disk)

    def bucket_dirty(self, bucket_id: int) -> None:
        self._apply(self.ctl.drop_replicas(bucket_id))

    def bucket_removed(self, bucket_id: int, moved_id: "int | None") -> None:
        self.ctl.remove_bucket(bucket_id, moved_id)

    def primary_moved(self, bucket_id: int, disk: int) -> None:
        self.ctl.set_primary(bucket_id, disk)


class StaticReplicate(_ReplicatedAutoscale):
    """The equal-storage, heat-oblivious baseline.

    Spends the same replica budget as ``heat-replicate``, but picks the
    buckets by *size* (largest first — the best guess available without
    popularity data) once, before the run, and never adapts.  The bench's
    trade-off curves measure exactly what closing the loop buys over this.
    """

    name = "static"

    def _bootstrap(self) -> None:
        order = sorted(
            range(len(self.ctl.assignment)), key=lambda b: (-self.ctl.sizes[b], b)
        )
        for b in order:
            if self.ctl.n_replicas >= self.ctl.budget:
                break
            self.ctl.replicate(b)
        self.peak_replicas = max(self.peak_replicas, self.ctl.n_replicas)


class HeatReplicate(_ReplicatedAutoscale):
    """The closed loop: EWMA heat in, budgeted greedy replication out."""

    name = "heat-replicate"
    adaptive = True


#: Registered autoscale policies, by name; ``"null"`` installs no policy.
AUTOSCALE_POLICIES = {
    "null": None,
    StaticReplicate.name: StaticReplicate,
    HeatReplicate.name: HeatReplicate,
}


def make_autoscale_policy(spec) -> "ReplicaSelector | None":
    """Resolve a policy name or :class:`AutoscaleParams` to a fresh selector.

    The ``null`` policy resolves to ``None``: no selector of its own.
    Raises ``ValueError`` listing the registered names for unknown ones.
    """
    if isinstance(spec, str):
        params = AutoscaleParams(policy=spec)
    elif isinstance(spec, AutoscaleParams):
        params = spec
    else:
        raise TypeError(
            f"autoscale spec must be a policy name or AutoscaleParams, "
            f"got {type(spec).__name__}"
        )
    try:
        cls = AUTOSCALE_POLICIES[params.policy]
    except KeyError:
        raise ValueError(
            f"unknown autoscale policy {params.policy!r}; "
            f"choose from {sorted(AUTOSCALE_POLICIES)}"
        ) from None
    return None if cls is None else cls(params)
