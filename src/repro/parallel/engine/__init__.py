"""The composable cluster engine: an explicit request pipeline.

This package is the carved-up successor of the monolithic
``repro.parallel.cluster`` engine.  One query flows through explicit
stages — admission → plan/route → cache probe → replica selection → disk
service → filter/aggregate → reply — each owned by a small object, with
three pluggable seams:

* **disk scheduling** (:mod:`~repro.parallel.engine.scheduling`):
  ``fifo`` / ``sjf`` / ``fair`` per-disk queue disciplines;
* **replica selection** (:mod:`~repro.parallel.engine.replicas`):
  ``primary-only`` / ``least-loaded-alive`` / ``fastest-estimated``, or a
  replicating autoscale policy in their place;
* **admission control** (:mod:`~repro.parallel.engine.admission`):
  unbounded (legacy), ``max_inflight`` bounding and ``deadline`` shedding
  for open-system runs.

Degraded mode (timeout → retry → suspect → failover → abort) is its own
stage (:mod:`~repro.parallel.engine.degraded`); shared per-run bookkeeping
lives in :mod:`~repro.parallel.engine.stats`.

The default configuration reproduces the legacy engine byte for byte
(``tests/test_engine_neutrality.py``).  The public entry points re-export
through :mod:`repro.parallel.cluster` and :mod:`repro.parallel` unchanged.
"""

from repro.parallel.engine.admission import (
    AdmissionController,
    BoundedAdmission,
    UnboundedAdmission,
    make_admission,
)
from repro.parallel.engine.degraded import DegradedMode
from repro.parallel.engine.params import (
    DEFAULT_REQUEST_TIMEOUT,
    ClusterParams,
    validate_params,
)
from repro.parallel.engine.pipeline import RequestPipeline
from repro.parallel.engine.replicas import (
    REPLICA_POLICIES,
    ReplicaSelector,
    make_replica_policy,
)
from repro.parallel.engine.runners import LoadReport, ParallelGridFile
from repro.parallel.engine.scheduling import SCHEDULERS, DiskQueue, make_scheduler
from repro.parallel.engine.stats import PerfReport, StatsCollector

__all__ = [
    "AdmissionController",
    "BoundedAdmission",
    "ClusterParams",
    "DEFAULT_REQUEST_TIMEOUT",
    "DegradedMode",
    "DiskQueue",
    "LoadReport",
    "ParallelGridFile",
    "PerfReport",
    "REPLICA_POLICIES",
    "ReplicaSelector",
    "RequestPipeline",
    "SCHEDULERS",
    "StatsCollector",
    "UnboundedAdmission",
    "make_admission",
    "make_replica_policy",
    "make_scheduler",
    "validate_params",
]
