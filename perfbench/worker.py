"""One set-up or one engine pass of a workload, in a fresh interpreter.

``run.py`` starts this script once per measurement, so no engine sees
caches warmed by another: the deterministic-network cache in
``repro.api.spec`` and the memoized masks of each ``DualGraph`` are
built by the pass that uses them, as they are for a user's first run.

Usage (from the root of a checkout)::

    python3 perfbench/worker.py setup --workload mac_load
    python3 perfbench/worker.py pass --workload mac_load --engine bitset --trace 0

It prints one JSON object on its last line of output.
"""

import time

from hostspeed import ScaledClock

_SETUP_CLOCK = ScaledClock()
if __name__ == "__main__":
    _SETUP_CLOCK.start()  # before repro is imported: set-up time counts it

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import repro.obs as obs  # noqa: E402
from layers import LayerClock, layer_metrics  # noqa: E402
from workloads import ENGINES, SCRATCH_PREFIX, WORKLOADS, digest  # noqa: E402


def setup(workload) -> dict:
    """Import repro, load the registries and build every engine's plan."""
    import repro.api  # noqa: F401  (the import is what is measured)

    return {engine: workload.cells(workload.plan(engine)) for engine in ENGINES}


def engine_pass(workload, engine: str, trace: bool) -> dict:
    """Run the workload's cells on one engine, optionally traced."""
    plan = workload.plan(engine)
    scratch = Path(tempfile.mkdtemp(prefix=SCRATCH_PREFIX, dir=ROOT))
    try:
        if trace:
            recorder = obs.enable()
            mark = recorder.checkpoint()
            with LayerClock() as clock:
                started = time.perf_counter()
                records, fallbacks = workload.run(plan, scratch)
                wall = scaled = time.perf_counter() - started
            layers = layer_metrics(clock, recorder.delta(mark), engine)
        else:
            with ScaledClock() as clock:
                records, fallbacks = workload.run(plan, scratch)
            wall, scaled, layers = clock.wall_s, clock.scaled_s, None
    finally:
        if trace:
            obs.disable()
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "wall_s": wall,
        "scaled_s": scaled,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fallbacks": fallbacks,
        "digests": {cell: digest(record) for cell, record in records.items()},
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "pass"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--engine", choices=ENGINES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.mode == "setup":
        cells = setup(workload)
        _SETUP_CLOCK.stop()
        out = {"setup_s": _SETUP_CLOCK.scaled_s, "cells": cells}
    else:
        _SETUP_CLOCK.stop()
        if args.engine is None:
            parser.error("pass needs --engine")
        out = engine_pass(workload, args.engine, bool(args.trace))
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
