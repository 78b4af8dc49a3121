"""Campaign orchestration: sharded, resumable full-grid experiment runs.

The layer above single experiments, and the one every future scenario
PR plugs into:

* :class:`CampaignSpec` — a grid of experiment ids × scales × engines ×
  seed banks, compiled to a deterministic :class:`Shard` list;
* :class:`CampaignRunner` — runs pending shards over the existing
  :class:`~repro.api.executor.TrialExecutor` machinery, checkpointing
  each completed shard so a killed campaign resumes exactly where it
  stopped (seed-for-seed identical aggregates);
* :class:`ResultStore` — the persistent JSONL store of shard records;
* :func:`render_results_markdown` — the generator behind
  ``docs/results.md`` and the CI staleness check.

CLI: ``repro campaign run | status | report``. See
``docs/architecture.md`` ("Campaigns") for the shard lifecycle and the
store schema.
"""

from repro.campaign.report import (
    GENERATED_MARKER,
    is_stale,
    normalize,
    render_results_markdown,
    write_report,
)
from repro.campaign.runner import (
    CampaignRunner,
    CampaignStatus,
    ShardOutcome,
    shard_record,
)
from repro.campaign.spec import CampaignSpec, Shard, load_campaign
from repro.campaign.store import (
    SCHEMA_VERSION,
    ResultStore,
    StoreCompatWarning,
    StoreError,
)

__all__ = [
    "CampaignSpec",
    "Shard",
    "load_campaign",
    "ResultStore",
    "StoreError",
    "StoreCompatWarning",
    "SCHEMA_VERSION",
    "CampaignRunner",
    "CampaignStatus",
    "ShardOutcome",
    "shard_record",
    "render_results_markdown",
    "write_report",
    "normalize",
    "is_stale",
    "GENERATED_MARKER",
]
