"""ResultStore: checkpoint durability, merge semantics, queries."""

from __future__ import annotations

import pytest

from repro.campaign import ResultStore, Shard, StoreError, shard_record


def _record(campaign="c", experiment="E1b", scale="tiny", engine="reference", seed=1,
            aggregate=None, seconds=0.5):
    shard = Shard(campaign, experiment, scale, engine, seed)
    return shard_record(
        shard, aggregate if aggregate is not None else {"experiment": experiment},
        seconds=seconds,
    )


def test_append_then_read_back(tmp_path):
    store = ResultStore(tmp_path / "store")
    record = _record()
    store.append(record)
    (read,) = store.shard_records()
    assert read == record
    assert store.campaigns() == ["c"]
    assert store.completed_ids("c") == {"E1b@tiny/reference/seed1"}
    assert store.completed_ids("other") == set()


def test_append_rejects_malformed_records(tmp_path):
    store = ResultStore(tmp_path)
    with pytest.raises(StoreError, match="missing keys"):
        store.append({"kind": "shard"})
    bad = _record()
    bad["kind"] = "bench"
    with pytest.raises(StoreError, match="expected kind 'shard'"):
        store.append(bad)


def test_truncated_final_line_is_skipped(tmp_path):
    """A hard kill mid-write leaves a partial line; reads must survive it."""
    store = ResultStore(tmp_path)
    store.append(_record(seed=1))
    store.append(_record(seed=2))
    path = store.shard_path("c")
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2 + len(text) // 4], encoding="utf-8")
    records = store.shard_records("c")
    assert [r["master_seed"] for r in records] == [1]
    # The surviving shard stays checkpointed; the truncated one re-runs.
    assert store.completed_ids("c") == {"E1b@tiny/reference/seed1"}


def test_duplicate_shard_ids_last_record_wins(tmp_path):
    store = ResultStore(tmp_path)
    store.append(_record(aggregate={"v": 1}))
    store.append(_record(aggregate={"v": 2}))
    (read,) = store.shard_records("c")
    assert read["aggregate"] == {"v": 2}


def test_cells_filter_by_grid_axes(tmp_path):
    store = ResultStore(tmp_path)
    store.append(_record(experiment="E1b", engine="reference"))
    store.append(_record(experiment="E1b", engine="bitset"))
    store.append(_record(experiment="E2a", scale="tiny"))
    assert len(store.cells(experiment="E1b")) == 2
    assert len(store.cells(experiment="E1b", engine="bitset")) == 1
    assert len(store.cells(campaign="nope")) == 0
    assert store.measured_experiments() == {"E1b", "E2a"}


def test_aggregates_json_is_sorted_and_meta_free(tmp_path):
    store_a = ResultStore(tmp_path / "a")
    store_b = ResultStore(tmp_path / "b")
    one = _record(seed=1, aggregate={"medians": [3.0, 5.0]}, seconds=0.1)
    two = _record(seed=2, aggregate={"medians": [4.0, 8.0]}, seconds=0.2)
    store_a.append(one)
    store_a.append(two)
    # Same shards, different insertion order and different wall times.
    slow_two = _record(seed=2, aggregate={"medians": [4.0, 8.0]}, seconds=99.9)
    store_b.append(slow_two)
    store_b.append(_record(seed=1, aggregate={"medians": [3.0, 5.0]}, seconds=42.0))
    assert store_a.aggregates_json() == store_b.aggregates_json()
    assert "seconds" not in store_a.aggregates_json()


def test_shard_for_rebuilds_the_key(tmp_path):
    store = ResultStore(tmp_path)
    record = _record(experiment="E2a", engine="bitset", seed=9)
    assert store.shard_for(record) == Shard("c", "E2a", "tiny", "bitset", 9)
