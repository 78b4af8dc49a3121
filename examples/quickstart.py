#!/usr/bin/env python3
"""Quickstart: broadcast over an unreliable radio network, declaratively.

Describes a whole trial — graph family, problem, algorithm, adversary —
as a :class:`repro.api.ScenarioSpec`: a 128-node random geographic
deployment (close pairs reliable, grey-zone pairs adversarial), running
the paper's oblivious-model global broadcast (Section 4.1 permuted
decay) against bursty Gilbert–Elliott link fading. The spec is plain
JSON-able data — print it, save it, run it from the CLI with
``repro run-spec spec.json``, or fan it out across cores.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro.api import ScenarioSpec, Simulation

SPEC = ScenarioSpec(
    name="quickstart",
    # Pairs within distance 1 are reliable (G); pairs in the grey zone
    # (1, 2] exist only when the adversary lets them (G' \ G).
    graph=("geographic", {"n": 128, "grey_ratio": 2.0}),
    problem=("global-broadcast", {"source": 0}),
    # Section 4.1: the source appends fresh random bits to its message;
    # receivers use them to permute their decay schedules, so an
    # oblivious adversary cannot predict any round's behavior.
    algorithm=("permuted-decay", {}),
    # Bursty node-level fading fit to the β-factor view of real links:
    # flaky links fail in bursts (mean burst length 1/p_recover rounds).
    adversary=("ge-fade", {"p_fail": 0.25, "p_recover": 0.35}),
)


def main() -> None:
    print("scenario (JSON round-trippable):")
    print(SPEC.to_json())

    simulation = Simulation.from_spec(SPEC)

    # Peek at one built trial: the spec redraws the deployment from
    # each trial seed, so networks are fresh per trial.
    trial = simulation.prepared_trial(seed=2013)
    print(f"\nnetwork : {trial.network.summary()}")
    print(f"diameter: {trial.network.g_diameter()} hops (over reliable links)")

    result = simulation.run_trial(seed=2013)
    print(f"solved  : {result.solved}")
    print(f"rounds  : {result.rounds_to_solve()}")

    # Many independent trials aggregate into stats; add
    # executor=repro.api.ParallelExecutor() to fan them across cores.
    stats = simulation.run(trials=10, master_seed=2013)
    print(f"\n10 trials: median {stats.median_rounds:.0f} rounds, "
          f"success {stats.success_rate:.0%}")

    # The bank fast engine is seed-for-seed identical to the reference
    # engine — only faster (docs/architecture.md, "Engines").
    fast = Simulation.from_spec(SPEC, engine="bank").run_trial(seed=2013)
    assert fast == result
    print(f"bank engine: identical result in {fast.rounds} rounds")


if __name__ == "__main__":
    main()
