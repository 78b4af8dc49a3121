"""Core simulation substrate: bits, messages, processes, engine, traces.

This package knows nothing about specific algorithms, adversaries, or
graph families — it implements the dual graph model's execution
semantics (Section 2 of the paper) and the deterministic-randomness
plumbing everything else builds on.
"""

from repro.core.bits import BitCursor, BitStream, bits_for_uniform
from repro.core.canonical import canonical_json, stable_hash
from repro.core.engine import (
    ENGINE_NAMES,
    ExecutionResult,
    RadioNetworkEngine,
    create_engine,
)
from repro.core.errors import (
    AdversaryUsageError,
    BitStreamError,
    EngineError,
    EngineFallbackWarning,
    ExperimentError,
    GraphValidationError,
    PlanError,
    ReproError,
    ServeError,
    TopologyViolationError,
)
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan, SilentProcess
from repro.core.rng import derive_seed, spawn_numpy_rng, spawn_rng
from repro.core.trace import (
    Delivery,
    DeliveryCounter,
    RoundRecord,
    TraceCollector,
    iter_bits,
    popcount,
)

__all__ = [
    "BitCursor",
    "BitStream",
    "bits_for_uniform",
    "ENGINE_NAMES",
    "ExecutionResult",
    "RadioNetworkEngine",
    "create_engine",
    "EngineError",
    "EngineFallbackWarning",
    "Message",
    "MessageKind",
    "Process",
    "ProcessContext",
    "RoundPlan",
    "SilentProcess",
    "derive_seed",
    "spawn_numpy_rng",
    "spawn_rng",
    "Delivery",
    "DeliveryCounter",
    "RoundRecord",
    "TraceCollector",
    "iter_bits",
    "popcount",
    "ReproError",
    "GraphValidationError",
    "TopologyViolationError",
    "PlanError",
    "BitStreamError",
    "AdversaryUsageError",
    "ExperimentError",
    "ServeError",
    "canonical_json",
    "stable_hash",
]
