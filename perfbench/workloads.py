"""The benchmark's workloads: what one engine pass builds and runs.

Each workload is a closed loop in one process: a
:class:`~repro.api.SerialExecutor` runs one trial at a time (the bank
engine batches a seed bank inside that call, as it does for any
caller). A workload is built in two steps so ``run.py`` can time them
apart:

* ``plan(engine)`` builds one engine's spec or campaign list. This is
  the work ``setup_s`` measures, together with importing ``repro``; it
  stops before the first graph build.
* ``run(plan, scratch)`` executes the plan and returns one
  seed-determined record per cell, from ``ScenarioSpec`` to aggregate
  record, plus the number of engine fallback warnings. This is the
  work ``reference_s``/``bitset_s``/``bank_s`` measure.

Cells are the unit the output check compares: a campaign shard
(one experiment at one scale) for the campaign workloads, one sweep
point for ``ring_large``.

Every trial runs from :data:`MASTER_SEED`; the workload seed only
rotates the order in which ``run.py`` runs the engines. At these sizes
the master seed moves the work itself (M1 at ``tiny`` executes 5.6 to
9.2 thousand rounds over master seeds 1–9) and so does the order of a
campaign's experiments (they share cached graphs), which would widen
the run-to-run spread past any useful regression bound. The engines
are seed-for-seed identical, so one master seed leaves no engine an
input to overfit.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from pathlib import Path
from typing import Iterable

ENGINES = ("reference", "bitset", "bank")
#: The master seed of every trial (the repository's default seed).
MASTER_SEED = 2013
#: Each pass keeps its campaign store in a directory of the checkout
#: named with this prefix, and removes it when the pass ends.
SCRATCH_PREFIX = ".perfbench_store-"


def digest(record: dict) -> str:
    """Short content hash of one seed-determined record."""
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class CampaignWorkload:
    """Registry experiments at one scale, run through ``CampaignRunner``."""

    def __init__(self, name: str, experiments: Iterable[str] | None, scale: str):
        self.name = name
        self.experiments = None if experiments is None else tuple(experiments)
        self.scale = scale

    def plan(self, engine: str):
        from repro.api import CampaignSpec
        from repro.experiments import ALL_EXPERIMENTS

        spec = CampaignSpec(
            name=f"{self.name}-{engine}",
            experiments=self.experiments or tuple(ALL_EXPERIMENTS),
            scales=(self.scale,),
            engines=(engine,),
            seeds=(MASTER_SEED,),
        )
        spec.validate()
        return spec

    def cells(self, spec) -> list[str]:
        return [shard.experiment for shard in spec.shards()]

    def run(self, spec, scratch: Path) -> tuple[dict, int]:
        """``({cell: aggregate record}, fallback warnings)`` for one engine."""
        from repro.api import CampaignRunner, ResultStore, SerialExecutor

        # bench_dir="" keeps committed BENCH_*.json out of the store.
        store = ResultStore(scratch, bench_dir="")
        CampaignRunner(spec, store, executor=SerialExecutor()).run(resume=False)
        records, fallbacks = {}, 0
        for record in store.shard_records(spec.name):
            records[record["experiment"]] = record["aggregate"]
            fallbacks += len(record["meta"].get("fallbacks", ()))
        return records, fallbacks


class RingWorkload:
    """E1b_large's two ring series, swept with ``repro.api.sweep``.

    The reference engine runs only the static-local-decay series at the
    two smaller sizes: its round-robin cells take minutes (92s for two
    trials at n = 10⁴), and its decay cell at 4·10⁴ takes 12s.
    """

    experiment = "E1b_large"
    sizes = (10_000, 20_000, 40_000)
    trials = 2
    reference_algorithm = "static-local-decay"
    reference_sizes = sizes[:2]

    def plan(self, engine: str) -> list:
        """``[(sweep name, spec, sizes)]``, one entry per series."""
        from repro.experiments import ALL_EXPERIMENTS

        plans = []
        for series in ALL_EXPERIMENTS[self.experiment].series:
            spec = series.scenario_for(self.sizes[0]).with_param("engine", engine)
            sizes = self.sizes
            if engine == "reference":
                if spec.algorithm.name != self.reference_algorithm:
                    continue
                sizes = self.reference_sizes
            plans.append((f"{self.experiment}:{series.label}", spec, sizes))
        return plans

    def cells(self, plans) -> list[str]:
        return [f"{name}@n={n}" for name, _, sizes in plans for n in sizes]

    def run(self, plans, scratch: Path) -> tuple[dict, int]:
        from repro.api import SerialExecutor, sweep
        from repro.core.errors import EngineFallbackWarning

        records = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EngineFallbackWarning)
            for name, spec, sizes in plans:
                # The sweep name matches E1b_large's, so trial seeds do too.
                result = sweep(
                    spec,
                    "graph.n",
                    sizes,
                    trials=self.trials,
                    master_seed=MASTER_SEED,
                    executor=SerialExecutor(),
                    name=name,
                )
                for point in result.points:
                    records[f"{name}@n={point.parameter}"] = point.stats.to_record()
        fallbacks = sum(
            1 for w in caught if issubclass(w.category, EngineFallbackWarning)
        )
        return records, fallbacks


WORKLOADS = {
    "catalogue_tiny": CampaignWorkload("catalogue_tiny", None, "tiny"),
    "mac_load": CampaignWorkload("mac_load", ("M1",), "tiny"),
    "ring_large": RingWorkload(),
}
