"""Shared bench harness.

Every bench runs one registry experiment (timed through
``benchmark.pedantic``), prints the full report — the regenerated
Figure-1 row — and asserts the robust facts (success rates, growth
classes, contrast claims) that the paper's table rests on.

Knobs (environment variables):

* ``REPRO_BENCH_SCALE=tiny|small|full`` (default ``small``) — sweep
  sizing. ``full`` reproduces the EXPERIMENTS.md numbers; ``small``
  keeps the suite in the minutes range.
* ``REPRO_BENCH_ENGINE=reference|bank`` (default ``reference``) — the
  round-loop implementation: the ``reference`` oracle or the one fast
  engine, ``bank`` (:data:`repro.core.engine.ENGINE_NAMES` also
  accepts ``bitset``, a deprecated alias for bank). Results are
  seed-for-seed identical across engines, so switching only moves
  wall-clock time; run a bench once per engine to measure the bank
  engine's speedup.
* ``REPRO_BENCH_SKIP=1|0`` (default unset) — force event-driven round
  skipping on or off for every trial; unset leaves each engine's own
  default (on for bank, off for reference). Results are identical
  either way (tests/test_skip_properties.py pins this), so the knob
  exists purely to measure the skip win: artifacts from an explicit
  setting carry an engine label suffix (``bank-noskip``,
  ``reference-skip``) so both sides of the comparison can be
  committed side by side.
* ``REPRO_BENCH_REPEATS`` (default 1) — timing repeats per experiment;
  with ≥ 2 the JSON artifact gains a spread and a 95% CI.
* ``REPRO_BENCH_RESULTS`` — directory for the machine-readable
  ``BENCH_<experiment>_<scale>_<engine>.json`` artifacts (default
  ``benchmarks/results/``). Set it empty to disable writing.
* ``REPRO_BENCH_PROFILE=1`` — run the experiment under ``cProfile``
  (via :func:`repro.obs.profile.profiled`, the same helper behind
  ``repro trace --profile``) and write the top-20 cumulative-time
  functions to ``BENCH_<experiment>_<scale>_<engine>.profile.txt``
  beside the JSON artifact. This is the first tool to reach for when a
  bench number moves: the profile names the Python-level hotspot (plan
  loops, mask minting, observer dispatch) that the timings alone only
  hint at. Profiling overhead inflates wall times, so profiled runs
  still write the JSON artifact but should not be committed as timing
  artifacts.
* ``REPRO_BENCH_TRACE=0`` — disable the per-phase breakdown. By
  default each bench also runs under a timing-only
  :mod:`repro.obs.recorder` and writes the engine-phase nanoseconds
  plus semantic counters to ``TRACE_<experiment>_<scale>_<engine>.json``
  beside the timing artifact (the ``TRACE_`` prefix keeps it out of the
  store's ``BENCH_*.json`` merge glob). Tracing overhead is pinned at
  ≤ 3% by ``tests/test_obs.py``, and it is applied uniformly, so
  committed artifacts stay comparable.

The JSON artifacts are how the perf trajectory is tracked across PRs:
each file records the experiment, scale, engine, per-repeat wall
times, and summary statistics, so ``git log -p benchmarks/results``
reads as a performance history. See ``docs/architecture.md``
("Engines") for how to read them. The campaign layer's
:class:`repro.campaign.store.ResultStore` merges these artifacts with
campaign shard records into one queryable history, and
``repro campaign report`` renders them into ``docs/results.md``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Optional

from repro.experiments import ALL_EXPERIMENTS
from repro.experiments.registry import ExperimentResult

__all__ = [
    "BENCH_SCALE",
    "BENCH_ENGINE",
    "BENCH_REPEATS",
    "BENCH_SKIP",
    "ENGINE_LABEL",
    "run_experiment",
    "assert_success",
    "assert_contrasts",
    "assert_growth",
    "assert_not_slower_than_reference",
    "assert_skip_speedup",
]

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "small")
BENCH_ENGINE = os.environ.get("REPRO_BENCH_ENGINE", "reference")
BENCH_REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "1")))

_SKIP_ENV = os.environ.get("REPRO_BENCH_SKIP", "").strip().lower()
#: None = each engine's default; True/False = forced for every trial.
BENCH_SKIP: Optional[bool] = (
    None if _SKIP_ENV in ("", "default") else _SKIP_ENV in ("1", "true", "on", "yes")
)

#: Engine label used in artifact names: the engine itself under default
#: skip semantics, suffixed when skip is forced so that e.g. ``bank``
#: and ``bank-noskip`` artifacts coexist for the speedup comparison.
ENGINE_LABEL = BENCH_ENGINE + {True: "-skip", False: "-noskip", None: ""}[BENCH_SKIP]

#: When truthy, run each experiment under cProfile and dump the top-20
#: cumulative functions beside the JSON artifact.
BENCH_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "").strip().lower() in (
    "1",
    "true",
    "on",
    "yes",
)

#: Phase breakdown: on unless REPRO_BENCH_TRACE explicitly disables it.
BENCH_TRACE = os.environ.get("REPRO_BENCH_TRACE", "1").strip().lower() not in (
    "0",
    "false",
    "off",
    "no",
)

#: Master seed shared by all benches (the paper year).
MASTER_SEED = 2013


def _results_dir() -> Optional[Path]:
    configured = os.environ.get("REPRO_BENCH_RESULTS")
    if configured is not None:
        return Path(configured) if configured else None
    return Path(__file__).resolve().parent / "results"


def _summarize(seconds: list[float]) -> dict:
    """Median/CI summary of repeat wall times (normal-approximation CI)."""
    summary = {
        "all": [round(s, 6) for s in seconds],
        "median": round(statistics.median(seconds), 6),
        "mean": round(statistics.fmean(seconds), 6),
        "min": round(min(seconds), 6),
        "max": round(max(seconds), 6),
    }
    if len(seconds) >= 2:
        stdev = statistics.stdev(seconds)
        half_width = 1.96 * stdev / math.sqrt(len(seconds))
        mean = statistics.fmean(seconds)
        summary["stdev"] = round(stdev, 6)
        summary["ci95"] = [round(mean - half_width, 6), round(mean + half_width, 6)]
    else:
        summary["stdev"] = None
        summary["ci95"] = None
    return summary


def write_bench_artifact(
    exp_id: str, seconds: list[float], cells: Optional[list[dict]] = None
) -> Optional[Path]:
    """Persist ``BENCH_<exp>_<scale>_<engine>.json`` (returns its path).

    ``cells`` (optional) attributes wall time per sweep cell — one
    ``{"series", "parameter", "seconds"}`` entry per (series, swept
    parameter) pair, min across repeats. Cell timings are what the
    skip-speedup guard reads: whole-experiment seconds mix every
    series, while the skip win lives in specific large-n cells.
    """
    directory = _results_dir()
    if directory is None:
        return None
    from repro.campaign.spec import Shard

    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        # schema/kind let the campaign ResultStore merge bench artifacts
        # with shard records into one queryable history.
        "schema": 1,
        "kind": "bench",
        "experiment": exp_id,
        "scale": BENCH_SCALE,
        "engine": BENCH_ENGINE,
        "skip": BENCH_SKIP,
        "master_seed": MASTER_SEED,
        # The same dedup key campaign shard records carry: a bench and
        # a shard of the same (experiment, scale, engine) cell share a
        # spec_hash, so store queries can join timing to verdicts.
        "spec_hash": Shard(
            campaign="bench",
            experiment=exp_id,
            scale=BENCH_SCALE,
            engine=BENCH_ENGINE,
            master_seed=MASTER_SEED,
        ).spec_hash(),
        "repeats": len(seconds),
        "seconds": _summarize(seconds),
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    if cells is not None:
        payload["cells"] = cells
    path = directory / f"BENCH_{exp_id}_{BENCH_SCALE}_{ENGINE_LABEL}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_profile(exp_id: str, profiler) -> Optional[Path]:
    """Dump the top-20 cumulative-time rows of a finished profiler."""
    directory = _results_dir()
    if directory is None:
        return None
    from repro.obs.profile import profile_text

    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"BENCH_{exp_id}_{BENCH_SCALE}_{ENGINE_LABEL}.profile.txt"
    path.write_text(profile_text(profiler))
    return path


def _write_phases(exp_id: str, delta: dict, repeats: int) -> Optional[Path]:
    """Persist the phase/counter breakdown beside the timing artifact.

    ``delta`` is a recorder counter delta spanning every repeat;
    ``phase.*`` keys become the nanosecond phase map, the rest stay
    semantic counters. The ``TRACE_`` filename prefix keeps the file
    out of the store's ``BENCH_*.json`` merge glob.
    """
    directory = _results_dir()
    if directory is None:
        return None
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": 1,
        "kind": "bench-phases",
        "experiment": exp_id,
        "scale": BENCH_SCALE,
        "engine": BENCH_ENGINE,
        "skip": BENCH_SKIP,
        "repeats": repeats,
        "phases_ns": {
            name[len("phase."):]: value
            for name, value in sorted(delta.items())
            if name.startswith("phase.")
        },
        "counters": {
            name: value
            for name, value in sorted(delta.items())
            if not name.startswith("phase.")
        },
    }
    path = directory / f"TRACE_{exp_id}_{BENCH_SCALE}_{ENGINE_LABEL}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def run_experiment(benchmark, exp_id: str) -> ExperimentResult:
    """Run experiment ``exp_id`` under the benchmark timer.

    The experiment executes ``BENCH_REPEATS`` times with the engine
    selected by ``REPRO_BENCH_ENGINE``; wall times are recorded both in
    pytest-benchmark's own stats and in the committed JSON artifact.
    """
    experiment = ALL_EXPERIMENTS[exp_id]
    seconds: list[float] = []
    cell_seconds: dict[tuple[str, object], float] = {}
    profiler = None
    if BENCH_PROFILE:
        import cProfile

        profiler = cProfile.Profile()
    obs = None
    obs_mark: Optional[dict] = None
    if BENCH_TRACE:
        from repro.obs.recorder import enable as _obs_enable
        from repro.obs.recorder import recorder as _obs_recorder

        # Respect an externally-enabled recorder; otherwise own a
        # timing-only one for the span of this experiment.
        obs = _obs_recorder()
        owns_obs = obs is None
        if owns_obs:
            obs = _obs_enable(None)
        obs_mark = obs.checkpoint()
    else:
        owns_obs = False

    def timed_run() -> ExperimentResult:
        started = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            outcome = experiment.run(
                scale=BENCH_SCALE,
                master_seed=MASTER_SEED,
                engine=BENCH_ENGINE,
                skip=BENCH_SKIP,
            )
        finally:
            if profiler is not None:
                profiler.disable()
        seconds.append(time.perf_counter() - started)
        for sr in outcome.series_results:
            for point in sr.sweep.points:
                if point.seconds is None:
                    continue
                key = (sr.series.label, point.parameter)
                best = cell_seconds.get(key)
                if best is None or point.seconds < best:
                    cell_seconds[key] = point.seconds
        return outcome

    result = benchmark.pedantic(timed_run, rounds=BENCH_REPEATS, iterations=1)
    phases_path = None
    if obs is not None and obs_mark is not None:
        delta = obs.delta(obs_mark)
        if owns_obs:
            from repro.obs.recorder import disable as _obs_disable

            _obs_disable()
        if delta:
            phases_path = _write_phases(exp_id, delta, len(seconds))
    cells = [
        {"series": label, "parameter": parameter, "seconds": round(value, 6)}
        for (label, parameter), value in sorted(
            cell_seconds.items(), key=lambda kv: (kv[0][0], repr(kv[0][1]))
        )
    ]
    artifact = write_bench_artifact(exp_id, seconds, cells or None)
    print()
    print(result.render())
    print(
        f"[engine={ENGINE_LABEL}, repeats={len(seconds)}, "
        f"median={statistics.median(seconds):.2f}s"
        + (f", artifact={artifact}]" if artifact else "]")
    )
    if phases_path is not None:
        print(f"[phases={phases_path}]")
    if profiler is not None:
        profile_path = _write_profile(exp_id, profiler)
        if profile_path is not None:
            print(f"[profile={profile_path}]")
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


def assert_not_slower_than_reference(exp_id: str) -> None:
    """Fail loudly (nonzero pytest exit) when the fast engine loses.

    Compares the artifact this run just wrote against the committed
    ``reference``-engine artifact for the same (experiment, scale)
    cell. This is the regression tripwire for a fast path that loses:
    an earlier fast engine once shipped *losing* 2x on every M
    experiment while the equivalence suite stayed green, because
    nothing asserted wall time. Min-of-repeats is compared (the
    noise-robust statistic).

    A no-op for the reference engine itself, and when either artifact
    is missing (fresh checkout, artifacts disabled) — the guard bites
    exactly when someone regenerates a fast-engine artifact. The 10%
    allowance absorbs machine noise between the two runs (the original
    regression was a 2x loss, not a rounding error); artifacts
    committed together should still show the fast engine strictly
    ahead.
    """
    if BENCH_ENGINE == "reference":
        return
    directory = _results_dir()
    if directory is None:
        return
    baseline_path = directory / f"BENCH_{exp_id}_{BENCH_SCALE}_reference.json"
    mine_path = directory / f"BENCH_{exp_id}_{BENCH_SCALE}_{ENGINE_LABEL}.json"
    if not baseline_path.exists() or not mine_path.exists():
        return
    baseline = json.loads(baseline_path.read_text())["seconds"]["min"]
    mine = json.loads(mine_path.read_text())["seconds"]["min"]
    assert mine <= baseline * 1.10, (
        f"{exp_id}/{BENCH_SCALE}: engine {ENGINE_LABEL!r} took {mine:.3f}s "
        f"vs reference {baseline:.3f}s — the fast engine is slower than "
        "the loop it is supposed to beat"
    )


def assert_skip_speedup(
    exp_id: str,
    *,
    series_contains: str,
    min_ratio: float,
    engine: str = "bank",
) -> None:
    """The committed skip-on artifact beats skip-off by ``min_ratio``.

    Compares the largest-parameter cell of the matching series between
    ``BENCH_<exp>_<scale>_<engine>.json`` (skip on by default for the
    bank engine) and ``BENCH_<exp>_<scale>_<engine>-noskip.json``
    (``REPRO_BENCH_SKIP=0``). Cell-level comparison is deliberate: the
    whole-experiment total mixes in series and build work that skipping
    cannot touch, while the claim — event-driven skipping pays at
    scale — lives in the silence-heavy series' biggest cell.

    A no-op when either artifact is missing or lacks cells (fresh
    checkout, artifacts disabled); like the reference guard, it bites
    when artifacts are regenerated.
    """
    directory = _results_dir()
    if directory is None:
        return
    pair = {}
    for label in (engine, f"{engine}-noskip"):
        path = directory / f"BENCH_{exp_id}_{BENCH_SCALE}_{label}.json"
        if not path.exists():
            return
        cells = [
            cell
            for cell in json.loads(path.read_text()).get("cells", [])
            if series_contains in cell["series"]
        ]
        if not cells:
            return
        pair[label] = max(cells, key=lambda cell: cell["parameter"])
    skipping = pair[engine]
    full = pair[f"{engine}-noskip"]
    assert skipping["parameter"] == full["parameter"], (
        f"{exp_id}/{BENCH_SCALE}: artifacts disagree on the largest "
        f"parameter ({skipping['parameter']} vs {full['parameter']}) — "
        "regenerate both sides at the same scale"
    )
    ratio = full["seconds"] / skipping["seconds"]
    assert ratio >= min_ratio, (
        f"{exp_id}/{BENCH_SCALE}: round skipping bought only {ratio:.2f}x "
        f"on {skipping['series']!r} at parameter {skipping['parameter']} "
        f"({full['seconds']:.3f}s -> {skipping['seconds']:.3f}s), "
        f"claimed >= {min_ratio:g}x"
    )


def assert_growth(result: ExperimentResult, label: str, expected: str) -> None:
    """One series' coarse growth class matches."""
    sr = result.series_by_label(label)
    assert sr.growth_class == expected, (
        f"{label}: measured growth {sr.growth_class}, expected {expected} "
        f"(medians {sr.sweep.medians()})"
    )
