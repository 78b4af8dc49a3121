"""ResultStore.find: the (spec_hash, seed) lookup index.

Covers the dedup queries the serve layer depends on — stamped records,
pre-stamp history (hash derived on read), seed filtering, index
invalidation after appends — plus concurrent appends from two real
processes (the store's line-atomicity claim under actual parallelism).
"""

import multiprocessing

from repro.campaign.runner import shard_record
from repro.campaign.spec import Shard
from repro.campaign.store import ResultStore


def _shard(exp="E1b", scale="tiny", engine="reference", seed=2013, campaign="t"):
    return Shard(campaign=campaign, experiment=exp, scale=scale,
                 engine=engine, master_seed=seed)


def _record(shard, payload=None):
    return shard_record(shard, payload or {"rows": [shard.master_seed]}, seconds=0.5)


class TestFind:
    def test_finds_stamped_record(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = _shard()
        store.append(_record(shard))
        matches = store.find(shard.spec_hash(), 2013)
        assert len(matches) == 1
        assert matches[0]["shard_id"] == shard.shard_id

    def test_seed_filter(self, tmp_path):
        store = ResultStore(tmp_path)
        store.append(_record(_shard(seed=1)))
        store.append(_record(_shard(seed=2)))
        spec_hash = _shard(seed=1).spec_hash()
        assert len(store.find(spec_hash)) == 2
        assert len(store.find(spec_hash, 1)) == 1
        assert store.find(spec_hash, 3) == []

    def test_miss_returns_empty(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.find("0" * 64) == []

    def test_pre_stamp_history_is_derivable(self, tmp_path):
        # Records written before the spec_hash stamp existed must still
        # be findable: the index derives the hash from the cell axes.
        store = ResultStore(tmp_path)
        shard = _shard()
        record = _record(shard)
        del record["spec_hash"]
        store.append(record)
        assert len(store.find(shard.spec_hash(), 2013)) == 1

    def test_cross_campaign_hits(self, tmp_path):
        # The cache key deliberately ignores the campaign name: the
        # same cell measured under two campaigns is one cache entry.
        store = ResultStore(tmp_path)
        store.append(_record(_shard(campaign="a")))
        store.append(_record(_shard(campaign="b")))
        assert len(store.find(_shard().spec_hash(), 2013)) == 2

    def test_index_invalidated_by_append(self, tmp_path):
        store = ResultStore(tmp_path)
        shard = _shard()
        assert store.find(shard.spec_hash(), 2013) == []  # builds index
        store.append(_record(shard))  # must drop it
        assert len(store.find(shard.spec_hash(), 2013)) == 1

    def test_invalidate_sees_out_of_process_writes(self, tmp_path):
        writer = ResultStore(tmp_path)
        reader = ResultStore(tmp_path)
        shard = _shard()
        assert reader.find(shard.spec_hash(), 2013) == []
        writer.append(_record(shard))
        reader.invalidate()
        assert len(reader.find(shard.spec_hash(), 2013)) == 1


def _append_batch(root, campaign, start, count):
    """Child-process body for the concurrency test (spawn-picklable)."""
    store = ResultStore(root)
    for index in range(start, start + count):
        store.append(_record(_shard(seed=index, campaign=campaign)))


class TestConcurrentAppend:
    def test_two_processes_one_file(self, tmp_path):
        # Both writers target the SAME campaign file; every line must
        # survive intact (append is write+flush+fsync of one line).
        ctx = multiprocessing.get_context("spawn")
        procs = [
            ctx.Process(target=_append_batch, args=(str(tmp_path), "shared", base, 20))
            for base in (0, 1000)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert p.exitcode == 0
        store = ResultStore(tmp_path)
        records = store.shard_records("shared")
        assert len(records) == 40
        seeds = {r["master_seed"] for r in records}
        assert seeds == set(range(0, 20)) | set(range(1000, 1020))
        # And the find index sees all of them.
        spec_hash = _shard().spec_hash()
        assert len(store.find(spec_hash)) == 40
