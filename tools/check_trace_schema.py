#!/usr/bin/env python3
"""Trace schema checker: validates JSONL traces from ``repro.obs``.

Validates the committed sample trace (``docs/samples/trace_sample.jsonl``
by default, any trace file by argument) against the record schema
documented in ``src/repro/obs/report.py``:

* every line is a JSON object with ``kind`` ``"trial"`` or ``"shard"``;
* ``trial`` records carry ``engine`` (a registered engine name),
  integer ``seed``/``n``/``rounds``, boolean ``solved``, ``phases``
  (known phase name → positive integer nanoseconds), and ``counters``
  (name → number);
* ``shard`` records carry ``shard_id``, non-negative ``seconds``, and
  the same ``phases``/``counters`` shapes.

For the committed sample the checker additionally requires coverage:
both engine implementations (``reference`` and ``bank``; ``bitset`` is
an alias for bank) must appear among the trial records, and at least
one shard rollup must be present — that is the acceptance bar for "the
sample shows a per-phase breakdown for every engine".

``--regenerate`` rebuilds the sample deterministically (a tiny E1b
campaign cell per engine, traced) before validating it. Run it after
changing the record schema or the phase taxonomy.

Exit status 0 when clean; 1 with a per-problem report otherwise.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

SAMPLE = REPO_ROOT / "docs" / "samples" / "trace_sample.jsonl"

_NUMBER = (int, float)


def _check_phases(record: dict, where: str, phases_taxonomy: tuple) -> list[str]:
    problems = []
    phases = record.get("phases")
    if not isinstance(phases, dict):
        return [f"{where}: 'phases' must be an object, got {type(phases).__name__}"]
    for name, ns in phases.items():
        if name not in phases_taxonomy:
            problems.append(f"{where}: unknown phase {name!r}")
        if not isinstance(ns, int) or isinstance(ns, bool) or ns <= 0:
            problems.append(
                f"{where}: phase {name!r} must be positive integer "
                f"nanoseconds, got {ns!r}"
            )
    return problems


def _check_counters(record: dict, where: str) -> list[str]:
    counters = record.get("counters")
    if not isinstance(counters, dict):
        return [
            f"{where}: 'counters' must be an object, got {type(counters).__name__}"
        ]
    return [
        f"{where}: counter {name!r} must be a number, got {value!r}"
        for name, value in counters.items()
        if not isinstance(value, _NUMBER) or isinstance(value, bool)
    ]


def _implementations() -> tuple[str, ...]:
    """The engine implementations behind the registered engine names."""
    from repro.core.engine import ENGINE_NAMES, canonical_engine

    return tuple(dict.fromkeys(canonical_engine(name) for name in ENGINE_NAMES))


def check_trace(path: Path, *, require_coverage: bool = False) -> list[str]:
    from repro.core.engine import ENGINE_NAMES
    from repro.obs.report import PHASES, read_trace

    try:
        records = read_trace(str(path))
    except (OSError, ValueError) as exc:
        return [str(exc)]
    if not records:
        return [f"{path}: empty trace"]

    problems: list[str] = []
    engines_seen: set[str] = set()
    shards_seen = 0
    for index, record in enumerate(records, start=1):
        where = f"{path}:{index}"
        kind = record.get("kind")
        if kind == "trial":
            engine = record.get("engine")
            if engine not in ENGINE_NAMES:
                problems.append(f"{where}: unknown engine {engine!r}")
            else:
                engines_seen.add(engine)
            for key in ("seed", "n", "rounds"):
                value = record.get(key)
                if not isinstance(value, int) or isinstance(value, bool):
                    problems.append(f"{where}: {key!r} must be an int, got {value!r}")
            if not isinstance(record.get("solved"), bool):
                problems.append(f"{where}: 'solved' must be a bool")
            problems.extend(_check_phases(record, where, PHASES))
            problems.extend(_check_counters(record, where))
        elif kind == "shard":
            shards_seen += 1
            if not isinstance(record.get("shard_id"), str):
                problems.append(f"{where}: 'shard_id' must be a string")
            seconds = record.get("seconds")
            if not isinstance(seconds, _NUMBER) or isinstance(seconds, bool) or seconds < 0:
                problems.append(
                    f"{where}: 'seconds' must be a non-negative number, got {seconds!r}"
                )
            problems.extend(_check_phases(record, where, PHASES))
            problems.extend(_check_counters(record, where))
        else:
            problems.append(f"{where}: unknown record kind {kind!r}")

    if require_coverage:
        missing = set(_implementations()) - engines_seen
        if missing:
            problems.append(
                f"{path}: sample must cover every engine; missing {sorted(missing)}"
            )
        if not shards_seen:
            problems.append(f"{path}: sample must include a shard rollup record")
    return problems


def regenerate_sample() -> None:
    """Rebuild the committed sample: one tiny E1b cell per engine, traced."""
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.spec import CampaignSpec
    from repro.campaign.store import ResultStore
    from repro.obs.recorder import disable, enable

    SAMPLE.parent.mkdir(parents=True, exist_ok=True)
    spec = CampaignSpec(
        name="trace-sample",
        experiments=("E1b",),
        scales=("tiny",),
        engines=_implementations(),
        seeds=(2013,),
    )
    with tempfile.TemporaryDirectory() as scratch:
        enable(str(SAMPLE))
        try:
            CampaignRunner(spec, ResultStore(scratch, bench_dir="")).run()
        finally:
            disable()
    print(f"regenerated {SAMPLE.relative_to(REPO_ROOT)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "trace",
        nargs="?",
        default=str(SAMPLE),
        help="trace file to validate (default: the committed sample)",
    )
    parser.add_argument(
        "--regenerate",
        action="store_true",
        help="rebuild the committed sample before validating",
    )
    args = parser.parse_args(argv)
    if args.regenerate:
        regenerate_sample()
    path = Path(args.trace)
    is_sample = path.resolve() == SAMPLE.resolve()
    problems = check_trace(path, require_coverage=is_sample)
    if problems:
        print(f"trace schema check: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print(f"trace schema check: {path} clean")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
