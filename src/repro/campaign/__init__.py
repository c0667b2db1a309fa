"""Experiment campaigns: durable DAGs of content-keyed cells.

A campaign declares *what the paper needs computed* — Gram matrices,
CV evaluations, timing probes — as a DAG of :class:`CampaignNode` cells,
each keyed by exactly the inputs that determine its values
(:func:`node_key`: kernel fingerprint + dataset digest + the
value-relevant context record). The :class:`CampaignRunner` picks each
ready node straight from the sqlite :class:`CampaignDB`, records every
outcome there, skips any node whose key already has a recorded result,
and survives SIGKILL at any instant: ``python -m repro.campaign resume``
recomputes only the unfinished remainder and renders the identical
report. One runner drives a database at a time.
"""

from repro.campaign.db import NODE_STATUSES, CampaignDB, NodeState
from repro.campaign.nodes import (
    Campaign,
    CampaignNode,
    CampaignPlan,
    context_cache_record,
    node_key,
)
from repro.campaign.registry import (
    build_campaign,
    campaign_builder,
    register_campaign,
    register_executor,
    registered_campaigns,
)
from repro.campaign.runner import (
    CampaignRun,
    CampaignRunner,
    default_db_path,
    run_campaign_plan,
)

__all__ = [
    "NODE_STATUSES",
    "Campaign",
    "CampaignDB",
    "CampaignNode",
    "CampaignPlan",
    "CampaignRun",
    "CampaignRunner",
    "NodeState",
    "build_campaign",
    "campaign_builder",
    "context_cache_record",
    "default_db_path",
    "node_key",
    "register_campaign",
    "register_executor",
    "registered_campaigns",
    "run_campaign_plan",
]
