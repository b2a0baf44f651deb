"""Pluggable replica-selection policies for the request router.

When :attr:`~repro.parallel.engine.params.ClusterParams.replication` places
a backup copy of every bucket (chained or mirrored), the router has a
choice on every read: serve it from the primary copy or from the replica.
The policies here make that seam explicit — the metrics framing follows
*Replication in Data Grids: Metrics and Strategies* (see PAPERS.md):

``primary-only``
    The legacy behaviour: healthy reads always hit the primary disk;
    replicas serve *failover* traffic only (suspected/crashed targets).
    Works with or without replication and is byte-for-byte identical to
    the pre-refactor engine.
``least-loaded-alive``
    Every bucket read goes to whichever live copy (primary or backup) has
    been handed the fewest blocks so far this run — cumulative
    load-balancing that also absorbs a dead node's traffic without
    timeouts ever firing.
``fastest-estimated``
    Every bucket read goes to the live copy whose disk is estimated to
    free up first (current reservation horizon plus queued service) —
    instantaneous load-balancing keyed to the scheduling state.

The replicating autoscale policies (``static``, ``heat-replicate``; see
:mod:`repro.parallel.autoscale.policy`) are selectors too: when
``ClusterParams.autoscale`` names one, the pipeline installs it in place
of ``replica_policy``, so every run has exactly one selector.

Use :func:`make_replica_policy` to resolve a name (raises ``ValueError``
with the available names for unknown ones).
"""

from __future__ import annotations

import numpy as np

from repro.parallel.message import BlockRequest
from repro.parallel.replication import effective_disk

__all__ = [
    "ReplicaSelector",
    "PrimaryOnlySelector",
    "LeastLoadedSelector",
    "FastestEstimatedSelector",
    "REPLICA_POLICIES",
    "make_replica_policy",
]


class ReplicaSelector:
    """Chooses the disk serving each bucket read (one instance per run).

    A selector picks one disk per bucket in :meth:`_choose`; the default
    :meth:`route` and :meth:`failover` regroup those picks into per-node
    requests.  The autoscale policies
    (:mod:`repro.parallel.autoscale.policy`) are selectors too: they also
    observe query completions and the online driver's structure changes
    through the no-op hooks below.
    """

    name = "base"

    def bind(self, pipeline) -> None:
        """Attach to a pipeline run (called once, before any routing)."""
        self.pipe = pipeline

    def _choose(self, bucket: int, failed: set) -> "int | None":
        """The global disk serving ``bucket`` while the disks in ``failed``
        are suspected; ``None`` when no live copy remains."""
        raise NotImplementedError

    def _regroup(self, plan, bucket_ids) -> "list | None":
        """Choose a disk per bucket and group the choices into per-node
        block requests; ``None`` when some bucket has no live copy.

        The one regrouping path of every route and failover.  Requests
        carry ``target_disks`` (so workers read the chosen copies) and a
        fresh retry budget (``attempt=0``).
        """
        coordinator = self.pipe.coordinator
        failed = self.pipe.suspected_disks()
        by_node: dict[int, list] = {}
        for b in bucket_ids:
            b = int(b)
            disk = self._choose(b, failed)
            if disk is None:
                return None
            by_node.setdefault(coordinator.node_of_disk(disk), []).append((b, disk))
        qid = plan.query_id
        out = []
        for node in sorted(by_node):
            pairs = by_node[node]
            out.append(
                BlockRequest(
                    query_id=qid,
                    node_id=node,
                    bucket_ids=np.array([b for b, _ in pairs], dtype=np.int64),
                    candidates=sum(plan.candidates_per_bucket[b] for b, _ in pairs),
                    qualified=sum(plan.qualified_per_bucket[b] for b, _ in pairs),
                    attempt=0,
                    target_disks=np.array([d for _, d in pairs], dtype=np.int64),
                )
            )
        return out

    def route(self, plan, requests) -> "list | None":
        """Map a plan's primary-grouped requests to the requests actually
        sent; ``None`` means some bucket is unreachable (abort)."""
        bids = [int(b) for req in requests for b in req.bucket_ids]
        return self._regroup(plan, bids)

    def failover(self, plan, req) -> "list | None":
        """Re-route one timed-out request's buckets after its target node
        was suspected; ``None`` means no live copy remains (abort)."""
        return self._regroup(plan, req.bucket_ids)

    # -- observation hooks (no-ops unless the selector keeps its own copies) --

    def query_complete(self, qid: int) -> None:
        """Query ``qid`` finished (or aborted)."""

    def bucket_added(self, disk: int) -> None:
        """A grid-file split created a bucket on ``disk``."""

    def bucket_dirty(self, bucket_id: int) -> None:
        """A write changed the bucket; copies of it are stale."""

    def bucket_removed(self, bucket_id: int, moved_id: "int | None") -> None:
        """Swap-removal renumbering (mirror of the online driver's
        bookkeeping)."""

    def primary_moved(self, bucket_id: int, disk: int) -> None:
        """The online driver shipped the primary copy to ``disk``."""


class PrimaryOnlySelector(ReplicaSelector):
    """Reads hit the primary; replicas serve failover traffic only."""

    name = "primary-only"

    def _choose(self, bucket, failed):
        # Walk to the effective replica disk (§3.5, degraded; cascaded for
        # chained).
        coord = self.pipe.coordinator
        return effective_disk(
            int(coord.assignment[bucket]),
            coord.n_disks,
            failed,
            self.pipe.params.replication,
        )

    def route(self, plan, requests):
        pipe = self.pipe
        if not pipe.suspected:
            return requests
        out = []
        for req in requests:
            if req.node_id not in pipe.suspected:
                out.append(req)
                continue
            rerouted = self.failover(plan, req)
            if rerouted is None:
                return None
            pipe.stats.n_failovers += 1
            out.extend(rerouted)
        return out

    def failover(self, plan, req):
        if self.pipe.params.replication is None:
            return None
        return self._regroup(plan, req.bucket_ids)


class _BalancingSelector(ReplicaSelector):
    """Shared routing for policies that spread reads over live copies
    (they require ``ClusterParams.replication``)."""

    def _choose(self, bucket, failed):
        pipe = self.pipe
        primary = int(pipe.coordinator.assignment[bucket])
        backup = effective_disk(
            primary, pipe.n_disks, failed | {primary}, pipe.params.replication
        )
        candidates = [d for d in (primary, backup) if d is not None and d not in failed]
        if not candidates:
            return None
        if len(candidates) == 1:
            return candidates[0]
        return self._pick(candidates, primary)

    def _pick(self, candidates: list, primary: int) -> int:
        raise NotImplementedError


class LeastLoadedSelector(_BalancingSelector):
    """Pick the live copy handed the fewest blocks so far (ties: primary)."""

    name = "least-loaded-alive"

    def bind(self, pipeline):
        super().bind(pipeline)
        self._load = [0] * pipeline.n_disks

    def _pick(self, candidates, primary):
        best = min(candidates, key=lambda d: (self._load[d], d != primary, d))
        self._load[best] += 1
        return best


class FastestEstimatedSelector(_BalancingSelector):
    """Pick the live copy whose disk frees up first (ties: primary)."""

    name = "fastest-estimated"

    def _pick(self, candidates, primary):
        pipe = self.pipe
        now = pipe.sim.now
        return min(
            candidates,
            key=lambda d: (pipe.disk_queue_of(d).estimated_free(now), d != primary, d),
        )


#: Registered replica-selection policies, by name.
REPLICA_POLICIES = {
    PrimaryOnlySelector.name: PrimaryOnlySelector,
    LeastLoadedSelector.name: LeastLoadedSelector,
    FastestEstimatedSelector.name: FastestEstimatedSelector,
}


def make_replica_policy(name: str) -> ReplicaSelector:
    """A fresh selector instance for the policy registered under ``name``.

    Raises ``ValueError`` listing the known policies otherwise.
    """
    try:
        cls = REPLICA_POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown replica policy {name!r}; choose from {sorted(REPLICA_POLICIES)}"
        ) from None
    return cls()
