"""Shared bench harness.

Every bench runs one registry experiment (timed through
``benchmark.pedantic``), prints the full report — the regenerated
Figure-1 row — and asserts the robust facts (success rates, growth
classes, contrast claims) that the paper's table rests on.

One knob: ``REPRO_BENCH_SCALE=tiny|small|full`` (default ``small``)
sizes the sweeps. ``full`` reproduces the EXPERIMENTS.md numbers;
``small`` keeps the suite in the minutes range.

Experiments run on the fast ``bank`` engine. Results are seed-for-seed
identical across engines, so the claims do not depend on the choice.
Wall time is measured fresh by the repo benchmark, ``perfbench/``, not
here, and a bench run writes no files.
"""

from __future__ import annotations

import os

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.registry import ExperimentResult

__all__ = [
    "BENCH_SCALE",
    "run_experiment",
    "assert_success",
    "assert_contrasts",
    "assert_growth",
]

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")

#: Master seed shared by all benches (the paper year).
MASTER_SEED = 2013


def run_experiment(benchmark, exp_id: str) -> ExperimentResult:
    """Run experiment ``exp_id`` once on bank under the benchmark timer."""
    experiment = ALL_EXPERIMENTS[exp_id]

    def run() -> ExperimentResult:
        return experiment.run(scale=BENCH_SCALE, master_seed=MASTER_SEED, engine="bank")

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(result.render())
    return result


def assert_success(result: ExperimentResult, *, skip_labels: tuple[str, ...] = ()) -> None:
    """Every (non-skipped) series solved every trial within its cap."""
    for sr in result.series_results:
        if any(skip in sr.series.label for skip in skip_labels):
            continue
        rate = min(sr.sweep.success_rates())
        assert rate == 1.0, f"{sr.series.label}: min success {rate:.0%}"


def assert_contrasts(result: ExperimentResult) -> None:
    """All of the experiment's contrast claims hold."""
    for claim, ratio, holds in result.contrast_outcomes():
        assert holds, (
            f"contrast {claim.slow_label!r} / {claim.fast_label!r}: measured "
            f"{ratio:.2f}x, claimed ≥ {claim.min_ratio:g}x"
        )


def assert_growth(result: ExperimentResult, label: str, expected: str) -> None:
    """One series' coarse growth class matches."""
    sr = result.series_by_label(label)
    assert sr.growth_class == expected, (
        f"{label}: measured growth {sr.growth_class}, expected {expected} "
        f"(medians {sr.sweep.medians()})"
    )
