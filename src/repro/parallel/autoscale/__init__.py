"""Popularity-driven dynamic replication with elastic scale-out.

The paper's declustering schemes fix the disk count up front and treat all
buckets as equally popular; a production farm faces neither assumption.
This package closes the loop the ROADMAP's north star needs:

* :class:`~repro.parallel.autoscale.controller.HeatTracker` — per-bucket
  EWMA popularity fed from completed queries;
* :class:`~repro.parallel.autoscale.controller.AutoscaleController` — the
  pure decision core: budgeted greedy replication (heat-per-byte, with
  hysteresis), elastic membership (join via ``minimax_expand``-style
  bounded movement, drain via replica promotion — the failover path
  reused), all exercisable without a simulator;
* :class:`~repro.parallel.autoscale.policy.StaticReplicate` and
  :class:`~repro.parallel.autoscale.policy.HeatReplicate` — replica
  selectors the pipeline installs for ``ClusterParams.autoscale`` (off by
  default; ``null`` installs nothing and is byte-neutral);
* :class:`~repro.parallel.autoscale.driver.AutoscaleCluster` — the elastic
  run driver executing a :class:`~repro.parallel.autoscale.driver.ScalePlan`
  on the simulated clock.

See ``docs/autoscale.md`` for the control loop, knobs and invariants.
"""

from repro.parallel.autoscale.controller import Action, AutoscaleController, HeatTracker
from repro.parallel.autoscale.driver import (
    AutoscaleCluster,
    AutoscaleReport,
    ScaleEvent,
    ScalePlan,
)
from repro.parallel.autoscale.params import AutoscaleParams
from repro.parallel.autoscale.policy import (
    AUTOSCALE_POLICIES,
    HeatReplicate,
    StaticReplicate,
    make_autoscale_policy,
)

__all__ = [
    "Action",
    "AutoscaleController",
    "HeatTracker",
    "AutoscaleParams",
    "StaticReplicate",
    "HeatReplicate",
    "AUTOSCALE_POLICIES",
    "make_autoscale_policy",
    "AutoscaleCluster",
    "AutoscaleReport",
    "ScaleEvent",
    "ScalePlan",
]
