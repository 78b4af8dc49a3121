"""Experiment registry framework.

Every Figure-1 cell (and each ablation) is an :class:`Experiment`: a
swept parameter, one or more :class:`Series` (algorithm × adversary
combinations — lower-bound victims, upper-bound algorithms, baselines),
per-scale sweep plans, and the paper's bound string for the report.

Benches call :meth:`Experiment.run` at bench scale and print
:meth:`ExperimentResult.render`; integration tests run the ``tiny``
scale and assert the per-series shape/success expectations encoded in
the series definitions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Sequence

from repro.analysis.fitting import (
    STANDARD_MODELS,
    ModelFit,
    classify_growth,
    select_model,
)
from repro.analysis.runner import Scenario
from repro.analysis.sweep import SweepResult, run_sweep
from repro.analysis.tables import render_table
from repro.core.errors import ExperimentError

__all__ = [
    "Series",
    "ScalePlan",
    "Experiment",
    "ExperimentResult",
    "SeriesResult",
    "ContrastClaim",
]


@dataclass(frozen=True)
class ContrastClaim:
    """A within-experiment separation: one series slower than another.

    The lower-bound cells' real content is a *contrast* — the proof's
    adversary makes the victim measurably slower than a control on the
    same workload. ``slow_label`` / ``fast_label`` name the two series;
    the claim holds when ``median(slow) ≥ min_ratio · median(fast)`` at
    the largest swept parameter (censored medians included — a series
    that stops solving at all counts as maximally slow).

    ``max_ratio`` (optional) additionally bounds the ratio from above —
    the "this attack does *not* hurt" direction, e.g. permuted decay
    under the schedule attacker staying within a constant of its
    unattacked control.
    """

    slow_label: str
    fast_label: str
    min_ratio: float
    max_ratio: Optional[float] = None
    description: str = ""

    def holds(self, ratio: float) -> bool:
        if ratio < self.min_ratio:
            return False
        if self.max_ratio is not None and ratio > self.max_ratio:
            return False
        return True


@dataclass(frozen=True)
class Series:
    """One measured line of an experiment.

    ``scenario_for(parameter)`` returns the per-trial scenario factory.
    ``expected_growth`` is the coarse growth class
    (:data:`~repro.analysis.fitting.GROWTH_CLASSES`) the measured
    medians should land in — the robust, verdict-bearing claim.
    ``expected_models`` lists fine-grained candidate shapes for the
    report (informational; neighbouring shapes are indistinguishable at
    laptop scale). ``role`` labels the series in reports.
    """

    label: str
    scenario_for: Callable[[int], Scenario]
    role: str = "measurement"
    expected_models: tuple[str, ...] = ()
    expected_growth: Optional[str] = None


@dataclass(frozen=True)
class ScalePlan:
    """Sweep sizing for one scale tier."""

    parameters: tuple[int, ...]
    trials: int


@dataclass
class SeriesResult:
    """One series' sweep plus its shape analysis."""

    series: Series
    sweep: SweepResult[int]
    model_fits: list[ModelFit] = field(default_factory=list)
    growth_class: Optional[str] = None

    @property
    def best_model(self) -> Optional[str]:
        return self.model_fits[0].model_name if self.model_fits else None

    def shape_matches_expectation(self) -> Optional[bool]:
        """True/False when the series carries a growth claim, else None."""
        if self.series.expected_growth is None:
            return None
        return self.growth_class == self.series.expected_growth

    def to_record(self) -> dict:
        """JSON-safe, seed-determined summary (no timings, no host info)."""
        return {
            "label": self.series.label,
            "role": self.series.role,
            "sweep": self.sweep.to_dict(),
            "growth_class": self.growth_class,
            "best_model": self.best_model,
            "expected_growth": self.series.expected_growth,
            "growth_ok": self.shape_matches_expectation(),
        }


@dataclass
class ExperimentResult:
    """All series of one experiment at one scale."""

    experiment: "Experiment"
    scale: str
    series_results: list[SeriesResult]

    def series_by_label(self, label: str) -> SeriesResult:
        for result in self.series_results:
            if result.series.label == label:
                return result
        raise ExperimentError(f"no series labelled {label!r}")

    def contrast_outcomes(self) -> list[tuple[ContrastClaim, float, bool]]:
        """Evaluate each contrast claim at the largest swept parameter.

        Returns ``(claim, measured_ratio, holds)`` triples; the ratio is
        ``median(slow) / median(fast)`` at the final sweep point.
        """
        outcomes = []
        for claim in self.experiment.contrasts:
            slow = self.series_by_label(claim.slow_label).sweep.medians()[-1]
            fast = self.series_by_label(claim.fast_label).sweep.medians()[-1]
            ratio = slow / fast if fast > 0 else float("inf")
            outcomes.append((claim, ratio, claim.holds(ratio)))
        return outcomes

    def to_record(self) -> dict:
        """The experiment outcome as one JSON-safe aggregate record.

        This is the payload the campaign layer checkpoints: a pure
        function of ``(experiment, scale, master_seed)``, so an
        interrupted-and-resumed campaign reproduces it byte for byte.
        Wall-clock time and host details deliberately live *outside*
        this dict (in the shard record's ``meta``).
        """

        def json_safe_ratio(ratio: float):
            # A fast series whose censored median is 0 yields inf, which
            # json.dumps would emit as the non-RFC token ``Infinity``.
            return ratio if math.isfinite(ratio) else "inf"

        return {
            "experiment": self.experiment.exp_id,
            "figure_cell": self.experiment.figure_cell,
            "paper_bound": self.experiment.paper_bound,
            "parameter_name": self.experiment.parameter_name,
            "scale": self.scale,
            "series": [r.to_record() for r in self.series_results],
            "contrasts": [
                {
                    "slow": claim.slow_label,
                    "fast": claim.fast_label,
                    "min_ratio": claim.min_ratio,
                    "max_ratio": claim.max_ratio,
                    "description": claim.description,
                    "ratio": json_safe_ratio(ratio),
                    "holds": holds,
                }
                for claim, ratio, holds in self.contrast_outcomes()
            ],
        }

    def render(self) -> str:
        """Human-readable report: per-series medians, ratios, and fits."""
        exp = self.experiment
        lines = [
            f"== {exp.exp_id}: {exp.figure_cell} ==",
            f"paper bound : {exp.paper_bound}",
            f"sweep       : {exp.parameter_name} = "
            f"{list(self.series_results[0].sweep.parameters()) if self.series_results else []}"
            f" (scale={self.scale})",
        ]
        if exp.notes:
            lines.append(f"notes       : {exp.notes}")
        headers = [exp.parameter_name] + [
            f"{r.series.label}" for r in self.series_results
        ]
        params = self.series_results[0].sweep.parameters() if self.series_results else []
        rows = []
        for i, p in enumerate(params):
            row = [p]
            for r in self.series_results:
                row.append(r.sweep.medians()[i])
            rows.append(row)
        lines.append(render_table(headers, rows, title="median rounds:"))
        for r in self.series_results:
            ratios = ", ".join(f"{x:.2f}" for x in r.sweep.growth_ratios())
            fit = r.best_model or "-"
            growth = r.growth_class or "-"
            verdict = ""
            if r.series.expected_growth is not None:
                verdict = (
                    "  [growth OK]"
                    if r.shape_matches_expectation()
                    else f"  [expected {r.series.expected_growth}]"
                )
            success = min(r.sweep.success_rates()) if r.sweep.points else 0.0
            lines.append(
                f"  {r.series.label} ({r.series.role}): growth {growth} "
                f"(ratios [{ratios}]), best-fit {fit}, "
                f"min success {success:.0%}{verdict}"
            )
        for claim, ratio, holds in self.contrast_outcomes():
            bound = f"≥ {claim.min_ratio:g}"
            if claim.max_ratio is not None:
                bound += f", ≤ {claim.max_ratio:g}"
            status = "OK" if holds else f"FAILED (need {bound})"
            lines.append(
                f"  contrast: {claim.slow_label!r} / {claim.fast_label!r} = "
                f"{ratio:.1f}x at max {exp.parameter_name} — {status}"
                + (f" ({claim.description})" if claim.description else "")
            )
        return "\n".join(lines)


def _with_overrides(
    scenario_for: Callable[[int], Scenario], overrides: Mapping[str, object]
) -> Callable[[int], Scenario]:
    """Wrap a series factory so every derived spec carries ``overrides``.

    ``overrides`` maps spec field paths (``"engine"``, ``"skip"``) to
    values. Relies on the scenario being a
    :class:`~repro.api.spec.ScenarioSpec` (anything exposing
    ``with_param``); raises a clear error otherwise — closure-based
    scenarios predate these knobs.
    """

    def scenario_with_overrides(parameter: int) -> Scenario:
        spec = scenario_for(parameter)
        for path, value in overrides.items():
            with_param = getattr(spec, "with_param", None)
            if with_param is None:
                raise ExperimentError(
                    f"{path} override requires spec-based series; "
                    f"{spec!r} has no with_param"
                )
            spec = with_param(path, value)
        return spec

    return scenario_with_overrides


@dataclass(frozen=True)
class Experiment:
    """A Figure-1 cell or ablation as a runnable sweep bundle."""

    exp_id: str
    figure_cell: str
    paper_bound: str
    parameter_name: str
    series: tuple[Series, ...]
    scales: Mapping[str, ScalePlan]
    notes: str = ""
    #: Restrict model selection to these candidates (None = all standard).
    candidate_models: Optional[tuple[str, ...]] = None
    #: Within-experiment separation claims, checked at the largest parameter.
    contrasts: tuple[ContrastClaim, ...] = ()

    def plan(self, scale: str) -> ScalePlan:
        if scale not in self.scales:
            raise ExperimentError(
                f"{self.exp_id} has no scale {scale!r}; choose from {sorted(self.scales)}"
            )
        return self.scales[scale]

    def run(
        self,
        *,
        scale: str = "small",
        master_seed: int = 2013,
        progress: Optional[Callable[[str, int], None]] = None,
        executor=None,
        engine: Optional[str] = None,
        skip: Optional[bool] = None,
    ) -> ExperimentResult:
        """Run every series' sweep at the given scale.

        ``executor`` (a :class:`repro.api.executor.TrialExecutor`) fans
        each series' trials out — results are identical to serial runs
        because trials are pure functions of their derived seeds.

        ``engine`` (optional) overrides every series spec's round-loop
        implementation (``"reference"`` / ``"bank"``; ``"bitset"`` is a
        deprecated alias for ``"bank"``),
        and ``skip`` (optional) overrides event-driven round skipping;
        round counts are independent of both, so these only change
        wall-clock time.
        Requires spec-based series (all registry experiments are).
        """
        plan = self.plan(scale)
        models = (
            {name: STANDARD_MODELS[name] for name in self.candidate_models}
            if self.candidate_models
            else None
        )
        series_results = []
        for series in self.series:
            if progress is not None:
                progress(series.label, 0)
            scenario_for = series.scenario_for
            overrides: dict[str, object] = {}
            if engine is not None:
                overrides["engine"] = engine
            if skip is not None:
                overrides["skip"] = skip
            if overrides:
                scenario_for = _with_overrides(scenario_for, overrides)
            sweep = run_sweep(
                f"{self.exp_id}:{series.label}",
                list(plan.parameters),
                scenario_for,
                trials=plan.trials,
                master_seed=master_seed,
                executor=executor,
            )
            fits: list[ModelFit] = []
            growth_class: Optional[str] = None
            medians = sweep.medians()
            if len(medians) >= 2 and all(m > 0 for m in medians):
                params = [float(p) for p in sweep.parameters()]
                fits = select_model(params, medians, models=models)
                growth_class = classify_growth(params, medians)
            series_results.append(
                SeriesResult(
                    series=series,
                    sweep=sweep,
                    model_fits=fits,
                    growth_class=growth_class,
                )
            )
        return ExperimentResult(
            experiment=self, scale=scale, series_results=series_results
        )
