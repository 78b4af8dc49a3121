"""The repository benchmark: per-engine run time on three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload mac_load --seed 2013 --seconds 30 --trace 0

Workloads (see ``workloads.py``; the reasons are recorded in
``BENCHMARK.json``):

* ``catalogue_tiny`` — all 19 registry experiments at ``tiny`` through
  ``CampaignRunner``, on all three engines;
* ``mac_load`` — experiment M1 at ``tiny`` through ``CampaignRunner``,
  on all three engines;
* ``ring_large`` — E1b_large's two ring series at n = 10⁴, 2·10⁴ and
  4·10⁴ through ``repro.api.sweep``; the reference engine runs only the
  static-local-decay series at the two smaller sizes.

Every measurement runs in a fresh interpreter (``worker.py``), one at a
time, so the benchmark keeps one core busy. A run first times the
set-up ``SETUP_REPEATS`` times, then runs rounds of one pass per engine,
rotating the engine order with the seed and from round to round. It
starts another round only while the last round's duration still fits
in ``--seconds``, so a run measures at least one round.

Set-up and engine times are wall times rescaled to the host's full
speed (``hostspeed.py``): the shared host this benchmark was tuned on
runs everything up to 1.9 times slower for spells of up to a minute,
which moved whole runs' wall times by more than any useful bound. The
wall time of each pass is printed beside its scaled time.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one
untraced and one traced round and prints the per-layer metrics of the
traced round, plus the tracing overhead between the two.

Every pass's records are checked: each (cell, engine) operation fails
if its process fails or if its record differs from the reference
engine's record of the same cell in the same round. ``ring_large``'s
cells, most of which the reference engine does not run, are held to
the digests in ``digests.json`` (written by ``record_digests.py``).
The last line of output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import ENGINES, SCRATCH_PREFIX, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
#: A run must end within this many seconds; children get what is left.
RUN_LIMIT_S = 170.0
#: Digests of the cells the reference engine does not run (``ring_large``).
DIGESTS_PATH = HERE / "digests.json"


class BenchError(RuntimeError):
    """The benchmark cannot run here (no checkout, a worker crashed…)."""


def load_declared() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def engine_order(seed: int, round_index: int) -> list[str]:
    """The engines rotated by seed and round, so none always runs first."""
    shift = (seed + round_index) % len(ENGINES)
    return list(ENGINES[shift:] + ENGINES[:shift])


def spawn(args: list[str], deadline: float) -> dict:
    """Run ``worker.py`` with ``args``; return its last output line as JSON."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"worker {args} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def run_pass(workload: str, engine: str, trace: bool, deadline: float) -> dict:
    """One engine pass; a failed worker yields a pass with no records."""
    args = ["pass", "--workload", workload, "--engine", engine, "--trace", "1" if trace else "0"]
    started = time.monotonic()
    try:
        return spawn(args, deadline)
    except BenchError as exc:
        print(f"FAILED {engine} pass: {exc}", file=sys.stderr)
        elapsed = time.monotonic() - started
        return {"wall_s": elapsed, "scaled_s": elapsed, "peak_rss_mb": 0.0,
                "fallbacks": 0, "digests": {}, "layers": None}


def check_round(cells: dict, passes: dict, recorded: dict) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one round.

    ``cells`` maps each engine to the cells it was planned to run,
    ``passes`` each engine to its ``{cell: digest}``, and ``recorded``
    cell to the digest recorded at an earlier commit (may be empty).
    An operation fails when its digest is missing or differs from the
    cell's expected digest: the recorded one if there is one, else the
    reference engine's (the reference engine is the oracle), else that
    of every other engine that ran the cell.
    """
    reference_cells = set(cells.get("reference", ()))
    attempted = failed = 0
    for engine, engine_cells in cells.items():
        for cell in engine_cells:
            attempted += 1
            got = passes.get(engine, {}).get(cell)
            if cell in recorded:
                wants = [recorded[cell]]
            elif engine == "reference":
                wants = []
            elif cell in reference_cells:
                wants = [passes.get("reference", {}).get(cell)]
            else:
                wants = [digests[cell] for other, digests in passes.items()
                         if other != engine and cell in digests]
            if got is None or any(want is not None and want != got for want in wants):
                failed += 1
    return attempted, failed


def metric_block(values: dict, units: dict) -> dict:
    """Attach units; the names must be exactly the declared ones."""
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise BenchError(f"metric names differ from BENCHMARK.json: missing {missing}, extra {extra}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report_lines(metrics: dict, attempted: int, failed: int) -> list[str]:
    """One ``name = value unit`` line per metric, then the result JSON."""
    lines = [f"{name:>40} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines.append(json.dumps({"correct": failed == 0, "attempted": attempted,
                             "failed": failed, "metrics": metrics}))
    return lines


def end_to_end(setup_times: list[float], rounds: list[dict]) -> dict:
    """Median set-up, median scaled time per engine, highest peak RSS."""
    values = {"setup_s": statistics.median(setup_times)}
    for engine in ENGINES:
        values[f"{engine}_s"] = statistics.median(r[engine]["scaled_s"] for r in rounds)
    values["peak_rss_mb"] = max(r[e]["peak_rss_mb"] for r in rounds for e in ENGINES)
    return values


def per_layer(untraced: dict, traced: dict) -> dict:
    """Traced-round layer values with engine suffixes, plus trace overhead."""
    values = {}
    for engine in ENGINES:
        layers = traced[engine]["layers"] or {}
        for name, value in layers.items():
            values[f"{name}.{engine}"] = value
    traced_wall = sum(traced[e]["wall_s"] for e in ENGINES)
    untraced_wall = sum(untraced[e]["wall_s"] for e in ENGINES)
    values["obs.trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2013)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    declared = load_declared()
    recorded = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setups = [
            spawn(["setup", "--workload", args.workload], deadline)
            for _ in range(SETUP_REPEATS)
        ]
        cells = setups[0]["cells"]

        def one_round(index: int, trace: bool) -> dict:
            return {
                engine: run_pass(args.workload, engine, trace, deadline)
                for engine in engine_order(args.seed, index)
            }

        rounds = []
        started = time.monotonic()
        if args.trace:
            # The same engine order twice: untraced, then traced.
            rounds = [one_round(0, False), one_round(0, True)]
        else:
            while True:
                round_started = time.monotonic()
                rounds.append(one_round(len(rounds), False))
                now = time.monotonic()
                if now - started + (now - round_started) > args.seconds:
                    break
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        # A worker killed at the deadline leaves its store behind.
        for leftover in ROOT.glob(SCRATCH_PREFIX + "*"):
            shutil.rmtree(leftover, ignore_errors=True)

    recorded = {cell: recorded[cell] for engine_cells in cells.values()
                for cell in engine_cells if cell in recorded}
    attempted = failed = fallbacks = 0
    for passes in rounds:
        a, f = check_round(cells, {e: p["digests"] for e, p in passes.items()}, recorded)
        attempted += a
        failed += f
        fallbacks += sum(p["fallbacks"] for p in passes.values())
    for index, passes in enumerate(rounds):
        label = "traced" if args.trace and index == 1 else f"round {index}"
        for engine, p in passes.items():
            print(f"{label:>8} {engine:>9}: {p['scaled_s']:8.3f} s scaled  "
                  f"{p['wall_s']:8.3f} s wall  "
                  f"{p['peak_rss_mb']:7.1f} MB  {len(p['digests'])} cells  "
                  f"{p['fallbacks']} fallback warnings")
    print(f"operations: {attempted} attempted, {failed} failed; "
          f"engine fallback warnings: {fallbacks}; recorded digests: {len(recorded)}")
    try:
        if args.trace:
            metrics = metric_block(per_layer(*rounds), declared["per_layer"])
        else:
            times = [s["setup_s"] for s in setups]
            metrics = metric_block(end_to_end(times, rounds), declared["end_to_end"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print("\n".join(report_lines(metrics, attempted, failed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
