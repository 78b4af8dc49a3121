"""The multi-message experiment family (``M1``–``M3``).

Where ``E1``–``E9`` regenerate the paper's Figure-1 cells, the ``M*``
experiments measure the *new workload axis* the dual-graph model was
designed to host: multi-message broadcast over abstract MAC layers
(Ghaffari–Kantor–Lynch–Newport) with simple back-off contention
resolution (Gilbert–Lynch–Newport–Pajak) as the counterpoint.

* ``M1`` — message-load sweep: completion rounds versus ``k`` at fixed
  ``n``, GKLN's ack-paced queueing against simple back-off, under
  bursty link fading. The GKLN discipline serializes ``k`` ack windows
  through every relay, so its completion grows near-linearly in ``k``.
* ``M2`` — link-model sweep: the same GKLN protocol versus ``n``
  across three link regimes — no dynamic links, stochastic fading, and
  the offline adaptive solo blocker ([11]'s attacker, here throttling
  a node cut). The offline attacker is the only regime that changes
  the *shape*, not just the constant.
* ``M3`` — ack/progress constants: the simulated MAC realization
  versus the oracle MAC that samples the same ``f_ack``/``f_prog``
  envelopes directly. The oracle is the idealized baseline; the
  measured ratio between the curves is the realization overhead of the
  decay-window resolver.

Like every registry experiment, each series is a declarative
:class:`~repro.api.spec.ScenarioSpec` — here exercising the spec's
``mac=`` and ``messages=`` sections — so the whole family runs through
``repro run``, the campaign layer, and both engines unchanged.
"""

from __future__ import annotations

from typing import Callable

from repro.api.spec import ScenarioSpec
from repro.experiments.registry import ContrastClaim, Experiment, ScalePlan, Series

__all__ = [
    "M1_MESSAGE_LOAD",
    "M2_LINK_MODELS",
    "M3_MAC_CONSTANTS",
    "MULTI_MESSAGE_EXPERIMENTS",
]


# ----------------------------------------------------------------------
# M1 — completion vs message load k
# ----------------------------------------------------------------------
_M1_TOTAL_NODES = 64

_M1_ALGORITHMS = {
    "gkln": ("gkln-multi-message", {}),
    "backoff": ("backoff-multi-message", {}),
}


def _m1_series(algorithm: str) -> Callable[[int], ScenarioSpec]:
    def scenario_for(k: int) -> ScenarioSpec:
        return ScenarioSpec(
            graph=("geographic", {"n": _M1_TOTAL_NODES, "grey_ratio": 2.0}),
            problem=("multi-message", {}),
            algorithm=_M1_ALGORITHMS[algorithm],
            adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
            mac=("simulated", {}),
            messages={"k": k, "sources": "random"},
        )

    return scenario_for


M1_MESSAGE_LOAD = Experiment(
    exp_id="M1",
    figure_cell="Multi-message broadcast — message-load sweep (GKLN vs back-off)",
    paper_bound="GKLN BMMB: O((D + k)·f_ack) ⇒ linear in k at fixed n",
    parameter_name="k",
    series=(
        Series(
            "gkln-queued vs GE-fade",
            _m1_series("gkln"),
            role="GKLN ack-paced queueing (simulated MAC)",
            expected_models=("n", "n log n"),
        ),
        Series(
            "backoff-concurrent vs GE-fade",
            _m1_series("backoff"),
            role="GLNP simple back-off (no ack pacing)",
            expected_models=("n", "n log n", "sqrt(n) log n"),
            expected_growth="near-linear",
        ),
    ),
    scales={
        "tiny": ScalePlan(parameters=(4, 8), trials=3),
        "small": ScalePlan(parameters=(2, 4, 8, 16), trials=5),
        "full": ScalePlan(parameters=(2, 4, 8, 16, 32), trials=8),
    },
    notes=(
        f"Random geographic graphs (n fixed at {_M1_TOTAL_NODES}), k messages at "
        "random sources, bursty GE node fading. The measured crossover is "
        "the family's finding: ack-paced queueing wins at moderate load "
        "(~4x faster at k ≤ 8) but collapses superlinearly once per-node "
        "queues and window failures compound (k ≥ 16), while GLNP simple "
        "back-off degrades gracefully — near-linear in k across the whole "
        "range, exactly its robustness pitch."
    ),
)


# ----------------------------------------------------------------------
# M2 — completion vs n across link models
# ----------------------------------------------------------------------
_M2_ADVERSARIES = {
    "G-only": ("none", {}),
    "GE-fade": ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    "offline-solo-blocker": ("offline-solo-blocker", {"side": "first-half"}),
}

_M2_MESSAGES = 4


def _m2_series(adversary: str) -> Callable[[int], ScenarioSpec]:
    def scenario_for(n: int) -> ScenarioSpec:
        return ScenarioSpec(
            graph=("geographic", {"n": n, "grey_ratio": 2.0}),
            problem=("multi-message", {}),
            algorithm=("gkln-multi-message", {}),
            adversary=_M2_ADVERSARIES[adversary],
            mac=("simulated", {}),
            messages={"k": _M2_MESSAGES, "sources": "random"},
        )

    return scenario_for


M2_LINK_MODELS = Experiment(
    exp_id="M2",
    figure_cell="Multi-message broadcast — link-model sweep (GKLN vs adversaries)",
    paper_bound="abstract-MAC completion under unreliable links (GKLN §5)",
    parameter_name="n",
    series=tuple(
        Series(
            f"gkln-queued vs {name}",
            _m2_series(name),
            role=(
                "offline adaptive victim"
                if name == "offline-solo-blocker"
                else "oblivious link model"
            ),
            expected_models=(),
        )
        for name in _M2_ADVERSARIES
    ),
    scales={
        "tiny": ScalePlan(parameters=(32, 64), trials=3),
        "small": ScalePlan(parameters=(64, 128, 256), trials=5),
        "full": ScalePlan(parameters=(64, 128, 256, 512), trials=8),
    },
    notes=(
        f"k = {_M2_MESSAGES} messages at random sources on random "
        "geographic graphs. The oblivious regimes (static G, GE fading) "
        "only move constants; the offline solo blocker throttles the "
        "first-half cut whenever a lone transmitter could cross it — the "
        "adaptive-adversary tax, now on a multi-message workload. The "
        "offline series runs on the reference engine (the bank engine "
        "declines adaptive adversaries with a warning)."
    ),
    contrasts=(
        ContrastClaim(
            slow_label="gkln-queued vs offline-solo-blocker",
            fast_label="gkln-queued vs G-only",
            min_ratio=1.2,
            description="the offline adaptive attacker measurably slows multi-message completion",
        ),
    ),
)


# ----------------------------------------------------------------------
# M3 — simulated realization vs oracle envelope
# ----------------------------------------------------------------------
_M3_MESSAGES = 4

_M3_MACS = {
    "simulated": ("simulated", {}),
    "oracle": ("oracle", {}),
}


def _m3_series(mac: str) -> Callable[[int], ScenarioSpec]:
    def scenario_for(n: int) -> ScenarioSpec:
        return ScenarioSpec(
            graph=("geographic", {"n": n, "grey_ratio": 2.0}),
            problem=("multi-message", {}),
            algorithm=("gkln-multi-message", {}),
            adversary=("none", {}),
            mac=_M3_MACS[mac],
            messages={"k": _M3_MESSAGES, "sources": "random"},
        )

    return scenario_for


M3_MAC_CONSTANTS = Experiment(
    exp_id="M3",
    figure_cell="Multi-message broadcast — ack/progress constants (simulated vs oracle MAC)",
    paper_bound="f_ack = Θ(log n log Δ), f_prog ≤ f_ack (abstract MAC envelopes)",
    parameter_name="n",
    series=(
        Series(
            "gkln on simulated MAC",
            _m3_series("simulated"),
            role="realized layer (decay-window resolver on the engine)",
            expected_models=(),
        ),
        Series(
            "gkln on oracle MAC",
            _m3_series("oracle"),
            role="idealized layer (delays sampled from the envelopes)",
            expected_models=(),
            expected_growth="sublinear",
        ),
    ),
    scales={
        "tiny": ScalePlan(parameters=(32, 64), trials=3),
        "small": ScalePlan(parameters=(64, 128, 256), trials=5),
        "full": ScalePlan(parameters=(128, 256, 512, 1024), trials=8),
    },
    notes=(
        f"k = {_M3_MESSAGES} messages, no link adversary, matched "
        "f_ack/f_prog formulas on both layers. The oracle ignores the "
        "radio engine entirely (event-driven delay sampling), so its "
        "series is cheap even at the full scale; the gap between the "
        "curves is the simulated resolver's realization overhead."
    ),
    contrasts=(
        ContrastClaim(
            slow_label="gkln on simulated MAC",
            fast_label="gkln on oracle MAC",
            min_ratio=1.0,
            description="the realized layer is never faster than its idealized envelope",
        ),
    ),
)


#: The multi-message registry: experiment id → definition.
MULTI_MESSAGE_EXPERIMENTS: dict[str, Experiment] = {
    exp.exp_id: exp
    for exp in (M1_MESSAGE_LOAD, M2_LINK_MODELS, M3_MAC_CONSTANTS)
}
