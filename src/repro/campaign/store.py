"""The persistent result store: shard checkpoints.

One directory holds everything a campaign ever measured:
``<name>.jsonl``, one file per campaign, one JSON record per
*completed* shard. This is the checkpoint: records are appended
(write + flush + fsync) only after a shard finishes, so a campaign
killed mid-shard simply lacks that shard's line and re-runs it on
resume. A line truncated by a hard kill is skipped on read.

Shard records split into a seed-determined ``aggregate`` (the
:meth:`~repro.experiments.registry.ExperimentResult.to_record` payload)
and a volatile ``meta`` (wall-clock seconds, python version).
:meth:`ResultStore.aggregates_json` serializes only the former, which
is why a killed-and-resumed campaign can be asserted *byte-identical*
to an uninterrupted one.
"""

from __future__ import annotations

import json
import os
import warnings
from pathlib import Path
from typing import Iterator, Optional, Union

from repro.campaign.spec import Shard
from repro.core.errors import ReproError

__all__ = ["ResultStore", "StoreError", "StoreCompatWarning", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

#: Keys every shard record must carry to be checkpoint-usable.
_REQUIRED_SHARD_KEYS = (
    "schema",
    "kind",
    "campaign",
    "shard_id",
    "experiment",
    "scale",
    "engine",
    "master_seed",
    "aggregate",
    "meta",
)


class StoreError(ReproError):
    """A result store directory or record is unusable."""


class StoreCompatWarning(RuntimeWarning):
    """The store skipped records it does not understand.

    Emitted (once per merge) when a checkpoint file contains records
    with an unknown ``schema`` version or ``kind`` — e.g. a store
    written by a newer release introducing a new record kind. Skipping
    keeps the merge usable for every record this release *does*
    understand instead of failing the whole read; the skipped shards
    simply count as not-yet-measured (and re-run on resume).
    """


class ResultStore:
    """Append-only store of campaign shard records.

    Parameters
    ----------
    root:
        Directory for the per-campaign ``*.jsonl`` checkpoint files
        (created on first write).
    bench_dir:
        Accepted and ignored: the benchmark harness
        (``perfbench/workloads.py``) still passes ``bench_dir=""``.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        bench_dir: object = None,
    ) -> None:
        self.root = Path(root)
        #: Lazy ``spec_hash -> [records]`` index behind :meth:`find`;
        #: built on first lookup, dropped by :meth:`append` (and by
        #: :meth:`~ResultStore.invalidate` for out-of-process writers).
        self._spec_index: Optional[dict[str, list[dict]]] = None

    # ------------------------------------------------------------------
    # Shard checkpoints
    # ------------------------------------------------------------------
    def shard_path(self, campaign: str) -> Path:
        return self.root / f"{campaign}.jsonl"

    def append(self, record: dict) -> None:
        """Checkpoint one completed shard (atomic at line granularity).

        The line is flushed and fsynced before returning: once
        ``append`` returns, a later resume *will* see the shard as done
        even across a hard kill.
        """
        missing = [key for key in _REQUIRED_SHARD_KEYS if key not in record]
        if missing:
            raise StoreError(f"shard record is missing keys {missing}")
        if record["kind"] != "shard":
            raise StoreError(f"expected kind 'shard', got {record['kind']!r}")
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(record["campaign"])
        line = json.dumps(record, sort_keys=True) + "\n"
        # Self-heal after a hard kill: if the previous write was cut off
        # mid-line (no trailing newline), terminate the fragment first so
        # this record does not merge into it and get skipped on read.
        if path.exists() and path.stat().st_size > 0:
            with open(path, "rb") as peek:
                peek.seek(-1, os.SEEK_END)
                if peek.read(1) != b"\n":
                    line = "\n" + line
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
            fh.flush()
            os.fsync(fh.fileno())
        self._spec_index = None

    def _iter_lines(self, path: Path) -> Iterator[dict]:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                # A hard kill can truncate the final line mid-write;
                # the shard it described simply re-runs on resume.
                continue
            if isinstance(record, dict):
                yield record

    def campaigns(self) -> list[str]:
        """Campaign names with a checkpoint file, sorted."""
        if not self.root.is_dir():
            return []
        return sorted(path.stem for path in self.root.glob("*.jsonl"))

    def shard_records(self, campaign: Optional[str] = None) -> list[dict]:
        """All shard records (optionally of one campaign), replay order.

        If a shard id was recorded twice (e.g. ``--fresh`` semantics
        implemented by re-running), the *last* record wins.

        Forward compatibility: records with an unknown ``schema``
        version or ``kind``, or missing required shard keys, are
        skipped — with a single :class:`StoreCompatWarning` per merge —
        so a store touched by a newer release stays readable for
        everything this release understands.
        """
        names = [campaign] if campaign is not None else self.campaigns()
        merged: dict[tuple[str, str], dict] = {}
        skipped = 0
        for name in names:
            for record in self._iter_lines(self.shard_path(name)):
                if (
                    record.get("kind") != "shard"
                    or record.get("schema") != SCHEMA_VERSION
                    or any(key not in record for key in _REQUIRED_SHARD_KEYS)
                ):
                    skipped += 1
                    continue
                key = (str(record.get("campaign")), str(record.get("shard_id")))
                merged[key] = record
        if skipped:
            warnings.warn(
                f"result store {self.root} skipped {skipped} record(s) with an "
                f"unknown schema/kind (this release reads schema "
                f"{SCHEMA_VERSION} 'shard' records)",
                StoreCompatWarning,
                stacklevel=2,
            )
        return list(merged.values())

    def completed_ids(self, campaign: str) -> set[str]:
        """Shard ids of the campaign that already have a checkpoint."""
        return {
            str(record["shard_id"])
            for record in self.shard_records(campaign)
            if "shard_id" in record and "aggregate" in record
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def cells(
        self,
        *,
        campaign: Optional[str] = None,
        experiment: Optional[str] = None,
        scale: Optional[str] = None,
        engine: Optional[str] = None,
    ) -> list[dict]:
        """Shard records filtered by any subset of the grid axes."""
        out = []
        for record in self.shard_records(campaign):
            if experiment is not None and record.get("experiment") != experiment:
                continue
            if scale is not None and record.get("scale") != scale:
                continue
            if engine is not None and record.get("engine") != engine:
                continue
            out.append(record)
        return out

    def invalidate(self) -> None:
        """Drop the lookup index (call after another process appended).

        :meth:`append` invalidates automatically; a long-lived reader
        sharing the directory with out-of-process writers calls this to
        see their lines.
        """
        self._spec_index = None

    def _record_spec_hash(self, record: dict) -> Optional[str]:
        """The record's dedup hash, derived for pre-stamp history.

        New records carry ``spec_hash`` explicitly (stamped by
        :func:`~repro.campaign.runner.shard_record` and the serve
        layer). Records written before the stamp existed are campaign
        shards, whose hash is a pure function of their grid fields — so
        dedup works against the whole history, not just post-stamp
        lines.
        """
        stamped = record.get("spec_hash")
        if stamped is not None:
            return str(stamped)
        try:
            return Shard.from_dict(record).spec_hash()
        except ReproError:
            return None

    def find(self, spec_hash: str, seed: Optional[int] = None) -> list[dict]:
        """Shard records matching a dedup key, oldest first.

        ``(spec_hash, seed)`` is the serve layer's cache key: a match
        means the exact aggregate for that submission already exists
        and must not be recomputed. ``seed=None`` returns every seed's
        records for the hash. Backed by a lazy index over
        :meth:`shard_records`, rebuilt after every :meth:`append` (the
        per-record hash derivation for pre-stamp history happens once
        per build, not once per lookup).
        """
        if self._spec_index is None:
            index: dict[str, list[dict]] = {}
            for record in self.shard_records():
                key = self._record_spec_hash(record)
                if key is not None:
                    index.setdefault(key, []).append(record)
            self._spec_index = index
        records = self._spec_index.get(str(spec_hash), [])
        if seed is None:
            return list(records)
        return [
            record
            for record in records
            if int(record.get("master_seed", 0)) == int(seed)
        ]

    def measured_experiments(self) -> set[str]:
        """Experiment ids with at least one shard record."""
        return {
            str(record["experiment"])
            for record in self.shard_records()
            if "experiment" in record
        }

    # ------------------------------------------------------------------
    # Determinism surface
    # ------------------------------------------------------------------
    def aggregates_json(self, campaign: Optional[str] = None) -> str:
        """Canonical JSON of all seed-determined aggregates.

        Sorted by shard id, stripped of volatile ``meta``: two stores
        that measured the same grid from the same seeds — no matter how
        many kills and resumes happened in between — serialize to the
        same bytes. The resume tests assert exactly this.
        """
        rows = sorted(
            (
                {
                    "campaign": record["campaign"],
                    "shard_id": record["shard_id"],
                    "aggregate": record["aggregate"],
                }
                for record in self.shard_records(campaign)
            ),
            key=lambda row: (row["campaign"], row["shard_id"]),
        )
        return json.dumps(rows, sort_keys=True, indent=1)

    def shard_for(self, record: dict) -> Shard:
        """Rebuild the :class:`Shard` key of a stored record."""
        return Shard.from_dict(record)

    def describe(self) -> str:
        shard_count = len(self.shard_records())
        return (
            f"ResultStore({self.root}): {shard_count} shard records across "
            f"{len(self.campaigns())} campaigns"
        )
