"""The resume contract: a killed campaign finishes exactly the same.

The acceptance-level guarantee of the campaign layer: kill a campaign
mid-shard (here: an executor that raises ``KeyboardInterrupt`` partway
through a sweep, and separately a hard-kill-style truncated
checkpoint line), run it again, and the merged store's seed-determined
aggregates are *byte-identical* to an uninterrupted run's.
"""

from __future__ import annotations

import json

import pytest

from repro.api.executor import SerialExecutor
from repro.campaign import CampaignRunner, CampaignSpec, ResultStore

#: Reference-engine grid over two fast experiments; E1b tiny = 2 series
#: × 2 sweep points = 4 executor batches, E2a tiny = 3 × 2 = 6.
SPEC = CampaignSpec(name="resume", experiments=("E1b", "E2a"), scales=("tiny",))


class KilledMidShard(KeyboardInterrupt):
    pass


class InterruptingExecutor(SerialExecutor):
    """Serial executor that dies on its Nth trial batch."""

    def __init__(self, explode_at: int) -> None:
        self.calls = 0
        self.explode_at = explode_at

    def run_trials(self, scenario, seeds):
        self.calls += 1
        if self.calls >= self.explode_at:
            raise KilledMidShard()
        return super().run_trials(scenario, seeds)


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("baseline"))
    outcomes = CampaignRunner(SPEC, store).run()
    assert [o.status for o in outcomes] == ["done", "done"]
    return store


def test_kill_mid_shard_then_resume_is_byte_identical(tmp_path, uninterrupted):
    store = ResultStore(tmp_path / "store")
    # First invocation: dies inside the second shard (batch 6 of 10).
    runner = CampaignRunner(SPEC, store, executor=InterruptingExecutor(explode_at=6))
    with pytest.raises(KilledMidShard):
        runner.run()
    # Only the first shard survived as a checkpoint.
    assert store.completed_ids("resume") == {"E1b@tiny/reference/seed2013"}

    # Second invocation, same spec and store: resumes, re-running only
    # the killed shard.
    outcomes = CampaignRunner(SPEC, store).run()
    assert [o.status for o in outcomes] == ["resumed", "done"]

    assert store.aggregates_json() == uninterrupted.aggregates_json()


def test_hard_kill_during_checkpoint_write_then_resume(tmp_path, uninterrupted):
    """A checkpoint line truncated mid-write re-runs just that shard."""
    store = ResultStore(tmp_path / "store")
    CampaignRunner(SPEC, store).run()
    path = store.shard_path("resume")
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(lines[0] + lines[1][: len(lines[1]) // 2], encoding="utf-8")
    assert store.completed_ids("resume") == {"E1b@tiny/reference/seed2013"}

    outcomes = CampaignRunner(SPEC, store).run()
    assert [o.status for o in outcomes] == ["resumed", "done"]
    assert store.aggregates_json() == uninterrupted.aggregates_json()


def test_resumed_records_match_uninterrupted_except_meta(tmp_path, uninterrupted):
    """Stronger than the aggregate surface: whole records agree."""
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(SPEC, store, executor=InterruptingExecutor(explode_at=2))
    with pytest.raises(KilledMidShard):
        runner.run()
    assert store.completed_ids("resume") == set()  # died in shard one
    CampaignRunner(SPEC, store).run()

    def strip_meta(records):
        return sorted(
            (json.dumps({k: v for k, v in r.items() if k != "meta"}, sort_keys=True)
             for r in records),
        )

    assert strip_meta(store.shard_records()) == strip_meta(
        uninterrupted.shard_records()
    )


def test_fresh_discards_checkpoints_and_rebuilds_identically(tmp_path, uninterrupted):
    store = ResultStore(tmp_path / "store")
    runner = CampaignRunner(SPEC, store)
    runner.run()
    first = store.aggregates_json()
    outcomes = runner.run(resume=False)
    assert [o.status for o in outcomes] == ["done", "done"]
    assert store.aggregates_json() == first == uninterrupted.aggregates_json()


def test_parallel_executor_shard_matches_serial(tmp_path, uninterrupted):
    """Fanning a shard's trials across processes changes nothing."""
    from repro.api import ParallelExecutor

    store = ResultStore(tmp_path / "store")
    with ParallelExecutor(max_workers=2) as executor:
        CampaignRunner(SPEC, store, executor=executor).run()
    assert store.aggregates_json() == uninterrupted.aggregates_json()
