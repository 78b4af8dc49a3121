"""The abstract MAC layer: ack/progress guarantees as an interface.

Ghaffari–Kantor–Lynch–Newport (*Multi-Message Broadcast with Abstract
MAC Layers and Unreliable Links*) decouple multi-message dissemination
from contention resolution through an **abstract MAC layer**: a node
hands the layer a message to ``bcast``; the layer delivers it to the
node's reliable (``G``) neighbors and eventually *acknowledges* the
broadcast. Two delay functions summarize the layer's quality:

* ``f_ack`` — an upper bound on the rounds between a ``bcast`` and its
  acknowledgment (by then every ``G``-neighbor has the message);
* ``f_prog`` — an upper bound on the rounds a listening node waits
  before receiving *some* pending neighbor's message (``f_prog ≤
  f_ack``: making one message land somewhere is easier than landing a
  specific message everywhere).

:class:`AbstractMACLayer` captures exactly this contract, plus a
``mode`` telling the trial runner how the layer is realized:

* ``mode="engine"`` (:class:`~repro.mac.simulated.SimulatedMACLayer`)
  — the layer compiles into per-node contention resolution executed by
  the real radio engines (reference or bank), under any registered
  adversary: the guarantees are *targets* the decay-style resolver is
  engineered to meet, and experiments measure how the realization
  actually behaves.
* ``mode="oracle"`` (:class:`~repro.mac.oracle.OracleMACLayer`) — the
  layer is *assumed*: ack/progress delays are sampled directly from
  the guarantee envelopes in an event-driven simulation, skipping the
  radio engine entirely. Orders of magnitude faster at large ``n``,
  and the idealized baseline the simulated realization is compared
  against (experiment ``M3``).

The module also defines :class:`MessageAssignment` — the resolved
``messages=`` workload of a :class:`~repro.api.spec.ScenarioSpec`:
``k`` messages at explicit, evenly spread, or per-trial random source
nodes.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Hashable, Optional

from repro.core.errors import SpecError
from repro.registry import ScenarioContext

__all__ = [
    "AbstractMACLayer",
    "MessageAssignment",
    "resolve_messages",
    "spec_messages",
    "default_f_ack",
    "default_f_prog",
]


def _log2_ceil(value: int) -> int:
    """``max(1, ⌈log2 value⌉)`` — duplicated from ``repro.algorithms.base``
    to keep this module importable by the algorithm package (the MAC
    layer sits *below* the algorithms that consume its guarantees)."""
    return max(1, math.ceil(math.log2(value))) if value > 1 else 1


def default_f_ack(n: int, max_degree: int) -> int:
    """The default acknowledgment bound: ``Θ(log n · log Δ)`` rounds.

    One decay phase over the ladder ``1/2 … 2^{-⌈log(Δ+1)⌉}`` delivers
    to each listener with constant probability; ``Θ(log n)`` phases
    drive the failure probability below ``1/n`` — the static local
    broadcast bound the simulated resolver inherits from [8].
    """
    return max(1, _log2_ceil(max(n, 2)) * _log2_ceil(max_degree + 1))


def default_f_prog(n: int, max_degree: int) -> int:
    """The default progress bound: one ladder sweep plus slack.

    Progress needs only one lucky rung (*some* neighbor landing *some*
    message), which a single ``Θ(log Δ)`` ladder sweep repeated
    ``O(log n)``-independently supplies; the default keeps the paper's
    ``f_prog ≤ f_ack`` ordering by construction.
    """
    return max(1, default_f_ack(n, max_degree) // 2)


class AbstractMACLayer(abc.ABC):
    """Ack/progress guarantees plus a realization mode.

    Subclasses declare :attr:`mode` (``"engine"`` or ``"oracle"``) and
    implement the two guarantee functions. Layers are plain data bound
    at spec-build time — one instance serves a whole trial and must not
    carry per-execution state (the executors may build trials in any
    order across processes).
    """

    #: How the layer is realized: ``"engine"`` layers compile into
    #: radio-engine processes; ``"oracle"`` layers replace the engine
    #: with direct delay sampling (see ``repro.mac.oracle``).
    mode: str = "engine"

    @abc.abstractmethod
    def f_ack(self, n: int, max_degree: int) -> int:
        """Rounds within which a ``bcast`` is acknowledged."""

    @abc.abstractmethod
    def f_prog(self, n: int, max_degree: int) -> int:
        """Rounds within which a pending neighbor makes progress."""

    def describe(self) -> str:
        return f"{type(self).__name__}(mode={self.mode})"


@dataclass(frozen=True)
class MessageAssignment:
    """The resolved multi-message workload: ``k`` messages at sources.

    ``sources[i]`` is the node originating message ``i``. Sources need
    not be distinct (one node may originate several messages — GKLN
    place no restriction), but every id must be a valid node. Message
    *identity* is positional: payload ``("mm", i)`` tags message ``i``
    everywhere (processes, observers, the oracle), so the engine-side
    and oracle-side views of "who knows what" agree by construction.
    """

    k: int
    sources: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise SpecError(f"messages.k must be ≥ 1, got {self.k}")
        if len(self.sources) != self.k:
            raise SpecError(
                f"messages: {self.k} messages but {len(self.sources)} sources"
            )

    def payload(self, index: int) -> Hashable:
        """The canonical payload tagging message ``index``."""
        return ("mm", index)

    def index_of(self, payload: object) -> Optional[int]:
        """Message index of a payload, or ``None`` for foreign payloads."""
        if (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] == "mm"
            and isinstance(payload[1], int)
            and 0 <= payload[1] < self.k
        ):
            return payload[1]
        return None

    def indices_at(self, node: int) -> tuple[int, ...]:
        """Message indices originating at ``node``, ascending."""
        return tuple(i for i, src in enumerate(self.sources) if src == node)

    def describe(self) -> str:
        return f"k={self.k} messages at sources {list(self.sources)}"


def resolve_messages(ctx: ScenarioContext, config: Optional[dict]) -> Optional[MessageAssignment]:
    """Resolve a spec's ``messages`` section against the built graph.

    Accepted shapes (all JSON-safe)::

        {"k": 4}                          # k random sources per trial
        {"k": 4, "sources": "random"}     # same, explicit
        {"k": 4, "sources": "spread"}     # evenly spaced node ids
        {"sources": [0, 5, 9, 13]}        # explicit (k inferred)

    ``"random"`` draws ``k`` *distinct* nodes from the trial seed's
    ``"messages"`` stream — the same labelled-stream discipline every
    other per-trial secret uses, so serial and parallel executions
    agree. ``"spread"`` is deterministic: sources ``⌊i·n/k⌋``.
    """
    if config is None:
        return None
    n = ctx.graph.n
    sources = config.get("sources", "random")
    k = config.get("k")
    if isinstance(sources, str):
        if k is None:
            raise SpecError("messages: 'k' is required unless 'sources' is a list")
        k = int(k)
        if k < 1:
            raise SpecError(f"messages.k must be ≥ 1, got {k}")
        if sources == "random":
            if k > n:
                raise SpecError(
                    f"messages: k={k} distinct random sources exceed n={n} nodes"
                )
            chosen = tuple(ctx.rng("messages").sample(range(n), k))
        elif sources == "spread":
            chosen = tuple((i * n) // k for i in range(k))
        else:
            raise SpecError(
                f"messages: unknown source selector {sources!r}; "
                "use 'random', 'spread', or an explicit node list"
            )
    else:
        chosen = tuple(int(u) for u in sources)
        if k is not None and int(k) != len(chosen):
            raise SpecError(
                f"messages: k={k} disagrees with {len(chosen)} explicit sources"
            )
        k = len(chosen)
    for u in chosen:
        if not 0 <= u < n:
            raise SpecError(f"messages: source {u} outside [0, {n})")
    return MessageAssignment(k=k, sources=chosen)


def spec_messages(ctx: ScenarioContext) -> MessageAssignment:
    """The context's resolved message workload, or a clear spec error."""
    if ctx.messages is None:
        raise SpecError(
            "multi-message components need a message workload: set "
            'messages={"k": ..., "sources": ...} on the ScenarioSpec'
        )
    return ctx.messages
