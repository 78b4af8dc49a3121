"""Reproduction of Ghaffari, Lynch, Newport (PODC 2013):
*The Cost of Radio Network Broadcast for Different Models of Unreliable Links.*

A dual-graph radio network simulator plus every algorithm, adversary,
lower-bound construction, and experiment the paper defines. See
README.md for the user guide, DESIGN.md for the system inventory, and
EXPERIMENTS.md for the paper-vs-measured record.

Quickstart (the declarative :mod:`repro.api` facade)::

    from repro.api import ScenarioSpec, Simulation

    spec = ScenarioSpec(
        graph=("geographic", {"n": 128, "grey_ratio": 1.6}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {}),
        adversary=("ge-fade", {"p_fail": 0.2, "p_recover": 0.4}),
    )
    result = Simulation.from_spec(spec).run_trial(seed=7)
    print(result.rounds_to_solve())

Specs serialize to JSON (``spec.to_json()``), run from the CLI
(``repro run-spec spec.json``), and fan out across cores
(``executor=repro.api.ParallelExecutor()``). The lower-level building
blocks — :mod:`repro.graphs`, :mod:`repro.algorithms`,
:mod:`repro.adversaries`, :mod:`repro.analysis` — remain public for
imperative use.
"""

from repro.core import (
    ENGINE_NAMES,
    BitCursor,
    BitStream,
    ExecutionResult,
    Message,
    MessageKind,
    Process,
    ProcessContext,
    RadioNetworkEngine,
    RoundPlan,
    create_engine,
)

__version__ = "1.0.0"

__all__ = [
    "BitCursor",
    "BitStream",
    "ENGINE_NAMES",
    "ExecutionResult",
    "Message",
    "MessageKind",
    "Process",
    "ProcessContext",
    "RadioNetworkEngine",
    "RoundPlan",
    "create_engine",
    "__version__",
]
