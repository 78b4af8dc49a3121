"""Engine-scale benchmark experiments.

Unlike the Figure-1 cells (whose job is reproducing the paper's
bounds at laptop scale), these experiments exist to exercise the
engines where their implementation choices matter: n in the tens of
thousands, where round skipping, the bank kernels, and sparse
graph validation each move wall-clock time by integer factors while
results stay bit-identical.

``E1b_large`` extends the static-graph story of ``E1b``/``E2a`` to
n ≥ 10⁴ on rings — the cheapest graphs to build (O(E) construction and
validation), so that measured time is engine time, not setup time. The
round-robin series is the round-skipping showcase: with a 1/64
broadcaster fraction, ~63/64 of its rounds are provably silent, which
a skipping engine fast-forwards through. The decay series pins the
paper's polylog bound at the same scale; the contrast claim between
them is Figure 1's static-row separation, two decades of n further out
than ``E2a`` measures it.
"""

from __future__ import annotations

from typing import Callable

from repro.api.spec import ScenarioSpec
from repro.experiments.registry import ContrastClaim, Experiment, ScalePlan, Series

__all__ = ["E1B_LARGE_STATIC_SCALE", "ENGINE_BENCH_EXPERIMENTS"]

#: 1/64 of the ring broadcasts: silence dominates (the skip showcase)
#: while every pass still makes progress on some receiver.
_BROADCAST_FRACTION = 1.0 / 64.0


def _e1b_large_series(algorithm: str) -> Callable[[int], ScenarioSpec]:
    algorithms = {
        "round-robin": ("round-robin-local", {}),
        "static-decay": ("static-local-decay", {}),
    }

    def scenario_for(n: int) -> ScenarioSpec:
        return ScenarioSpec(
            graph=("ring", {"n": n}),
            problem=("local-broadcast", {"fraction": _BROADCAST_FRACTION}),
            algorithm=algorithms[algorithm],
            adversary=("none", {}),
            max_rounds=4 * n + 4096,
        )

    return scenario_for


E1B_LARGE_STATIC_SCALE = Experiment(
    exp_id="E1b_large",
    figure_cell="No dynamic links — local broadcast at engine scale (n ≥ 10⁴)",
    paper_bound="Θ(log n log Δ) [2, 8] vs O(n) round robin, at n = 10⁴",
    parameter_name="n",
    series=(
        Series(
            "round-robin (1/64 broadcasters)",
            _e1b_large_series("round-robin"),
            role="skip showcase (O(n), ~63/64 of rounds provably silent)",
            expected_models=("n", "n log n"),
            expected_growth="near-linear",
        ),
        Series(
            "static-local-decay [8]",
            _e1b_large_series("static-decay"),
            role="paper upper bound (polylog at every n)",
            expected_models=("constant", "log n", "log^2 n"),
            expected_growth="sublinear",
        ),
    ),
    scales={
        "tiny": ScalePlan(parameters=(256, 512), trials=2),
        "small": ScalePlan(parameters=(2500, 5000, 10000), trials=2),
        "full": ScalePlan(parameters=(2500, 5000, 10000, 20000), trials=3),
    },
    notes=(
        "Ring graphs, G = G', broadcasters a random 1/64 of the nodes. "
        "Rings keep construction O(E), so at n = 10⁴ the benches time the "
        "round loop itself; the round-robin series is ~63/64 silent rounds, "
        "the regime where event-driven round skipping pays. Round counts "
        "are engine- and skip-independent (see tests/test_skip_properties)."
    ),
    contrasts=(
        ContrastClaim(
            slow_label="round-robin (1/64 broadcasters)",
            fast_label="static-local-decay [8]",
            min_ratio=5.0,
            description="decay's polylog beats the linear slot schedule at 10⁴",
        ),
    ),
)


#: Engine-benchmark registry: experiment id → definition.
ENGINE_BENCH_EXPERIMENTS: dict[str, Experiment] = {
    exp.exp_id: exp for exp in (E1B_LARGE_STATIC_SCALE,)
}
