"""Multi-message broadcast over abstract MAC layers (``M1``–``M3``).

The new workload axis: k-message dissemination through the simulated
MAC's decay-window contention resolution (GKLN queueing vs GLNP simple
back-off), the link-model tax on a multi-message workload, and the
simulated realization measured against the oracle envelope.
"""

from __future__ import annotations

from benchmarks._common import (
    assert_contrasts,
    assert_growth,
    assert_success,
    run_experiment,
)


def test_m1_message_load(benchmark):
    result = run_experiment(benchmark, "M1")
    assert_success(result)
    # Back-off's robustness claim: near-linear in k at every scale.
    assert_growth(result, "backoff-concurrent vs GE-fade", "near-linear")
    # The crossover: ack-paced queueing wins at moderate load (k ≤ 8).
    gkln = result.series_by_label("gkln-queued vs GE-fade").sweep
    backoff = result.series_by_label("backoff-concurrent vs GE-fade").sweep
    for parameter, g, b in zip(
        gkln.parameters(), gkln.medians(), backoff.medians()
    ):
        if parameter <= 8:
            assert g < b, (
                f"k={parameter}: gkln {g} should beat backoff {b} at moderate load"
            )


def test_m2_link_models(benchmark):
    result = run_experiment(benchmark, "M2")
    assert_success(result)
    # The offline adaptive attacker is the regime that hurts.
    assert_contrasts(result)


def test_m3_mac_constants(benchmark):
    result = run_experiment(benchmark, "M3")
    assert_success(result)
    # The realized layer is never faster than its idealized envelope.
    assert_contrasts(result)
    assert_growth(result, "gkln on oracle MAC", "sublinear")
