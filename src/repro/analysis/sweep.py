"""Parameter sweeps: one scenario family across a parameter range.

A sweep is how every Figure-1 cell becomes an empirical claim: fix a
scenario family (algorithm + adversary + network family + problem),
vary one parameter (usually ``n``, sometimes ``D`` or ``Δ``), run
independent trials per point, and hand the medians to the model fitter
to recover the growth shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Generic, Optional, Sequence, TypeVar

if TYPE_CHECKING:  # executors live above this layer; type-only import
    from repro.api.executor import TrialExecutor

from repro.analysis.runner import Scenario, TrialStats, run_broadcast_trials
from repro.core.rng import derive_seed

__all__ = ["SweepPoint", "SweepResult", "run_sweep"]

P = TypeVar("P")


@dataclass
class SweepPoint(Generic[P]):
    """One parameter value's aggregated trials."""

    parameter: P
    stats: TrialStats

    @property
    def median_rounds(self) -> float:
        return self.stats.median_rounds

    @property
    def mean_rounds(self) -> float:
        return self.stats.mean_rounds


@dataclass
class SweepResult(Generic[P]):
    """All points of one sweep, in parameter order."""

    name: str
    points: list[SweepPoint[P]] = field(default_factory=list)

    def parameters(self) -> list[P]:
        return [point.parameter for point in self.points]

    def medians(self) -> list[float]:
        return [point.median_rounds for point in self.points]

    def means(self) -> list[float]:
        return [point.mean_rounds for point in self.points]

    def success_rates(self) -> list[float]:
        return [point.stats.success_rate for point in self.points]

    def growth_ratios(self) -> list[float]:
        """Successive median ratios — the quick-look scaling signal.

        For a parameter doubling sweep, ratios ≈ 2 mean linear growth,
        ≈ 1 mean polylog, ≈ √2 mean square-root.
        """
        medians = self.medians()
        return [
            medians[i + 1] / medians[i] if medians[i] > 0 else float("nan")
            for i in range(len(medians) - 1)
        ]

    def as_rows(self) -> list[dict]:
        """Table rows (parameter + the stats summary)."""
        rows = []
        for point in self.points:
            row = {"param": point.parameter}
            row.update(point.stats.summary_row())
            rows.append(row)
        return rows

    def to_dict(self) -> dict:
        """JSON-safe summary of the sweep.

        Only seed-determined aggregates are included (no wall-clock or
        host details), so two runs of the same sweep serialize to
        byte-identical JSON — the property the campaign
        :class:`~repro.campaign.store.ResultStore` checkpoints rely on.
        """
        return {
            "name": self.name,
            "parameters": list(self.parameters()),
            "medians": self.medians(),
            "means": self.means(),
            "success_rates": self.success_rates(),
        }


def run_sweep(
    name: str,
    parameters: Sequence[P],
    scenario_for: Callable[[P], Scenario],
    *,
    trials: int,
    master_seed: int,
    progress: Optional[Callable[[P, TrialStats], None]] = None,
    executor: Optional["TrialExecutor"] = None,
) -> SweepResult[P]:
    """Run ``trials`` executions of ``scenario_for(p)`` at every ``p``.

    Seeds are derived per ``(master_seed, name, parameter)`` so points
    are independent and the whole sweep is reproducible from one seed —
    including under a parallel ``executor``, which changes only *where*
    trials run, never their results.
    """
    result: SweepResult[P] = SweepResult(name=name)
    for parameter in parameters:
        stats = run_broadcast_trials(
            scenario_for(parameter),
            trials=trials,
            master_seed=derive_seed(master_seed, name, repr(parameter)),
            label=(name, repr(parameter)),
            executor=executor,
        )
        result.points.append(SweepPoint(parameter=parameter, stats=stats))
        if progress is not None:
            progress(parameter, stats)
    return result
