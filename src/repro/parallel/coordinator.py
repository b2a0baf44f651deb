"""The coordinator: query translation against the storage structure.

The coordinator node stores the access structure's directory (grid-file
scales + directory, or the R-tree's internal levels); for each incoming
query it resolves the touched pages, groups them by owning node, and issues
the block requests.  Its CPU cost model charges a fixed lookup plus a small
per-page planning cost.

Any :class:`repro.parallel.stores.PageStore` works — the coordinator is the
point where the cluster simulator became storage-structure agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.base import validate_assignment
from repro.gridfile.query import RangeQuery
from repro.parallel.message import BlockRequest
from repro.parallel.stores import PageStore, as_page_store

__all__ = ["Coordinator", "QueryPlan"]


@dataclass(frozen=True)
class QueryPlan:
    """The per-node work breakdown of one query."""

    query_id: int
    requests: list[BlockRequest]
    #: Per-disk block counts (the §2.2 response-time ingredients).
    blocks_per_disk: np.ndarray
    #: Candidate (stored) records per node.
    candidates_per_node: dict[int, int]
    #: Qualified records per node.
    qualified_per_node: dict[int, int]
    #: Candidate records per touched bucket (failover re-aggregation).
    candidates_per_bucket: dict[int, int] = None  # type: ignore[assignment]
    #: Qualified records per touched bucket (failover re-aggregation).
    qualified_per_bucket: dict[int, int] = None  # type: ignore[assignment]

    @property
    def response_by_definition(self) -> int:
        """``max_i N_i(q)`` over *disks* — the paper's response time."""
        return int(self.blocks_per_disk.max()) if self.blocks_per_disk.size else 0

    @property
    def total_qualified(self) -> int:
        """Answer-set size of the query."""
        return sum(self.qualified_per_node.values())


class Coordinator:
    """Query planner over a declustered page store.

    Parameters
    ----------
    store:
        A :class:`~repro.parallel.stores.PageStore`, or a ``GridFile`` /
        ``RTree`` (coerced automatically).
    assignment:
        ``(n_pages,)`` *disk* ids.
    n_disks:
        Total number of disks.
    disks_per_node:
        Disks owned by each node; ``node = disk // disks_per_node``.
    lookup_time:
        Fixed directory-lookup CPU cost per query (seconds).
    plan_time_per_bucket:
        Additional CPU cost per touched page.
    """

    def __init__(
        self,
        store,
        assignment: np.ndarray,
        n_disks: int,
        disks_per_node: int = 1,
        lookup_time: float = 0.2e-3,
        plan_time_per_bucket: float = 2e-6,
    ):
        self.store: PageStore = as_page_store(store)
        self.n_disks = int(n_disks)
        self.disks_per_node = int(disks_per_node)
        if self.n_disks % self.disks_per_node:
            raise ValueError("n_disks must be a multiple of disks_per_node")
        self.n_nodes = self.n_disks // self.disks_per_node
        self.assignment = validate_assignment(assignment, self.store.n_pages, n_disks)
        self.lookup_time = float(lookup_time)
        self.plan_time_per_bucket = float(plan_time_per_bucket)

    def node_of_bucket(self, bucket_id: int) -> int:
        """Owning node of a page."""
        return int(self.assignment[bucket_id]) // self.disks_per_node

    def local_disk_of_bucket(self, bucket_id: int) -> int:
        """Local disk index (within the owning node) of a page."""
        return int(self.assignment[bucket_id]) % self.disks_per_node

    def node_of_disk(self, disk: int) -> int:
        """Owning node of a disk."""
        return int(disk) // self.disks_per_node

    def disks_of_node(self, node: int) -> range:
        """Global disk ids owned by ``node``."""
        return range(node * self.disks_per_node, (node + 1) * self.disks_per_node)

    def plan(self, query_id: int, query: RangeQuery) -> QueryPlan:
        """Translate a query into per-node block requests.

        Queries that already carry a resolved page set (the SQL planner's
        :class:`repro.sql.plan.RoutedQuery` — e.g. the R-tree access path
        fetches only match-holding buckets) are honoured as-is; plain
        queries resolve against the store, the legacy behaviour.

        One vectorised pass per query: the touched pages' cached coordinate
        arrays are concatenated and filtered by a single containment test;
        requests list each node's pages in resolution order, nodes
        ascending.
        """
        page_ids = getattr(query, "page_ids", None)
        if page_ids is not None:
            bids = np.asarray(page_ids, dtype=np.int64)
        else:
            bids = self.store.query_pages(query.lo, query.hi)
        disks = self.assignment[bids]
        blocks_per_disk = np.bincount(disks, minlength=self.n_disks)
        if bids.size == 0:
            return QueryPlan(query_id, [], blocks_per_disk, {}, {}, {}, {})

        # One containment test over every candidate record of the query.
        coords = [self.store.page_coords(b) for b in bids.tolist()]
        sizes = np.fromiter(map(len, coords), dtype=np.int64, count=len(coords))
        inside = query.contains(np.concatenate(coords))
        # Qualified records per page: differences of the running count at
        # the page boundaries (empty pages, e.g. R-tree leaves, give 0).
        ends = np.cumsum(sizes)
        hits = np.concatenate(([0], np.cumsum(inside)))
        quals = hits[ends] - hits[ends - sizes]

        # Group pages by node, keeping each node's pages in query order.
        nodes = disks // self.disks_per_node
        order = np.argsort(nodes, kind="stable")
        nodes, bids, sizes, quals = nodes[order], bids[order], sizes[order], quals[order]
        starts = np.concatenate(([0], np.flatnonzero(nodes[1:] != nodes[:-1]) + 1))
        node_ids = nodes[starts].tolist()
        node_cand = np.add.reduceat(sizes, starts).tolist()
        node_qual = np.add.reduceat(quals, starts).tolist()
        bounds = starts.tolist() + [bids.size]
        requests = [
            BlockRequest(query_id, node, bids[s:e], candidates=cand, qualified=qual)
            for node, s, e, cand, qual in zip(
                node_ids, bounds[:-1], bounds[1:], node_cand, node_qual
            )
        ]
        bid_list = bids.tolist()
        return QueryPlan(
            query_id=query_id,
            requests=requests,
            blocks_per_disk=blocks_per_disk,
            candidates_per_node=dict(zip(node_ids, node_cand)),
            qualified_per_node=dict(zip(node_ids, node_qual)),
            candidates_per_bucket=dict(zip(bid_list, sizes.tolist())),
            qualified_per_bucket=dict(zip(bid_list, quals.tolist())),
        )

    def plan_cpu_time(self, plan: QueryPlan) -> float:
        """CPU time the coordinator spends producing ``plan``."""
        n_buckets = int(plan.blocks_per_disk.sum())
        return self.lookup_time + self.plan_time_per_bucket * n_buckets
