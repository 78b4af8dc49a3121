"""Per-layer timing for the traced run.

The traced run wraps each layer's public entry point in a timer, at the
attribute its caller looks the name up through, and reads the phase
and counter deltas that :mod:`repro.obs` already records inside the
engines. Every wrapper is removed again when the :class:`LayerClock`
context exits, so nothing of the benchmark stays patched into
``repro``.

Timers keep a span stack, so each layer is charged its *self* time:
a span's duration minus the part its nested spans cover (graph builds
inside ``build_prepared_trial``, engine construction inside
``create_engine``, …). Self times therefore never overlap and sum to at
most the pass's wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

#: Layers whose self time the traced run reports, each with its
#: per-layer metric name.
LAYER_METRICS = {
    "api": "api.build_s",
    "graphs": "graphs.build_s",
    "algorithms": "algorithms.build_processes_s",
    "core.init": "core.init_s",
    "core.loop": "core.loop_s",
    "mac": "mac.oracle_s",
    "analysis": "analysis.fit_s",
    "campaign": "campaign.store_s",
}

#: Engine phases from ``repro.obs.report.PHASES``, booked under
#: ``phase.<name>`` in nanoseconds.
PHASES = ("plan", "coins", "adversary", "reception", "feedback", "observers", "skip")

_MISSING = object()


def _one_call(*args, **kwargs) -> int:
    return 1


def _nodes_built(_spec, n, *args, **kwargs) -> int:
    return n


def entry_points():
    """``(owner, attribute, layer, counter, work)`` for every wrapped entry.

    Each owner is the object the caller resolves the name through: a
    module global for functions called by module lookup, a class for
    methods, the ``GRAPHS`` registry instance for graph builds.
    ``work(*args, **kwargs)`` is what one call adds to ``counter``.
    """
    import repro.analysis.runner as runner
    import repro.api.spec as api_spec
    import repro.core.bankpath as bankpath
    import repro.experiments.registry as experiments
    import repro.mac.oracle as oracle
    from repro.algorithms.base import AlgorithmSpec
    from repro.campaign.store import ResultStore
    from repro.core.engine import RadioNetworkEngine
    from repro.registry import GRAPHS

    return [
        (api_spec, "build_prepared_trial", "api", None, None),
        (GRAPHS, "build", "graphs", "graphs.builds", _one_call),
        (AlgorithmSpec, "build_processes", "algorithms", "algorithms.processes", _nodes_built),
        (runner, "create_engine", "core.init", None, None),
        (bankpath, "build_bank_kernel", "core.init", None, None),
        (bankpath.BankRadioNetworkEngine, "__init__", "core.init", None, None),
        (RadioNetworkEngine, "run", "core.loop", None, None),
        (bankpath, "run_bank_batch", "core.loop", None, None),
        (oracle, "run_oracle_trial", "mac", None, None),
        (experiments, "select_model", "analysis", None, None),
        (experiments, "classify_growth", "analysis", None, None),
        (ResultStore, "append", "campaign", "campaign.shards", _one_call),
    ]


class LayerClock:
    """Context manager: wrap every entry point, charge self times, unwrap."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, counter, work):
        stack = self._stack
        self_s = self.self_s
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if counter is not None:
                    counts[counter] += work(*args, **kwargs)

        return timed

    def __enter__(self) -> "LayerClock":
        try:
            for owner, name, layer, counter, work in entry_points():
                self._saved.append((owner, name, vars(owner).get(name, _MISSING)))
                setattr(owner, name, self._wrap(getattr(owner, name), layer, counter, work))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original attribute back (delete added instance ones)."""
        while self._saved:
            owner, name, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, name)
            else:
                setattr(owner, name, original)


def layer_metrics(clock: LayerClock, obs: dict, engine: str) -> dict:
    """One engine's per-layer values from the clock and the obs delta.

    ``obs`` is the :meth:`repro.obs.recorder.Recorder.delta` of the
    traced pass. Keys carry no engine suffix; rows that exist only for
    the fast engines (or only for bank) are left out for the others.
    """
    out = {metric: clock.self_s.get(layer, 0.0) for layer, metric in LAYER_METRICS.items()}
    for counter in ("graphs.builds", "algorithms.processes", "campaign.shards"):
        out[counter] = clock.counts.get(counter, 0)
    phase_total = 0.0
    for phase in PHASES:
        seconds = obs.get(f"phase.{phase}", 0) / 1e9
        out[f"core.{phase}_s"] = seconds
        phase_total += seconds
    out["core.unattributed_s"] = out["core.loop_s"] - phase_total
    out["core.rounds_executed"] = obs.get("rounds.executed", 0)
    out["core.rounds_skipped"] = obs.get("rounds.skipped", 0)
    out["core.skip_spans"] = obs.get("skip.spans", 0)
    if engine != "reference":
        out["core.engine_fallbacks"] = obs.get("engine.fallback", 0)
        hits = obs.get("cache.matrix.hit", 0)
        lookups = hits + obs.get("cache.matrix.miss", 0)
        out["core.matrix_cache_hit_ratio"] = hits / lookups if lookups else 0.0
    if engine == "bank":
        out["core.kernel_hits"] = obs.get("bank.kernel.hit", 0)
        out["core.kernel_fallbacks"] = obs.get("bank.kernel.fallback", 0)
    return out
