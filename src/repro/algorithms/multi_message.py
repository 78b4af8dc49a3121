"""MAC-level multi-message protocols: GKLN queueing and simple back-off.

Two dissemination strategies for the multi-message broadcast problem,
both executed as ordinary :class:`~repro.core.process.Process` state
machines on the radio engines (the *simulated* MAC realization — see
:mod:`repro.mac.simulated`):

* :class:`GklnMultiMessageProcess` (``"gkln-multi-message"``) — the
  GKLN Basic Multi-Message Broadcast discipline: relay every newly
  learned message exactly once, FIFO, one ``bcast`` at a time; a
  bcast occupies one MAC **ack window** (``f_ack`` rounds of decay
  ladder contention resolution), and the next queued message starts
  when the previous window's local acknowledgment fires. Its oracle
  counterpart serializes service slots the same way
  (``mac_discipline: "queued"``).
* :class:`BackoffMultiMessageProcess` (``"backoff-multi-message"``) —
  the Gilbert–Lynch–Newport–Pajak style *simple back-off*: no ack
  pacing at all; every node holding messages transmits each round with
  a back-off probability (fixed, or halving per quiet epoch) and
  rotates deterministically through its whole knowledge set. All
  messages share the channel concurrently
  (``mac_discipline: "concurrent"``).

Both processes keep their transition rule a pure function of
``(feedback history, round index)``: time-driven transitions (window
expiry, back-off epochs) are *derived* lazily instead of being pushed
by per-round feedback, which is what licenses ``idle_feedback_noop``.
Each is one module-level rule — :func:`ack_windows_elapsed` and
:func:`backoff_rate` — that the process calls on its own ints and the
bank kernels beside it (``_GklnBankKernel``, ``_BackoffBankKernel``)
call on (trials × nodes) grids (``tests/test_engine_equivalence.py``
holds both protocols to full-trace identity across engines).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.algorithms.base import AlgorithmSpec, clamp_probability, log2_ceil
from repro.algorithms.decay import decay_ladder
from repro.core.kernels import _lane_column, _MultiMessageKernelBase, at_least, pow2
from repro.core.messages import Message, MessageKind
from repro.core.process import Process, ProcessContext, RoundPlan
from repro.core.trace import Delivery
from repro.mac.base import MessageAssignment, spec_messages
from repro.mac.simulated import SimulatedMACLayer
from repro.registry import register_algorithm

__all__ = [
    "GklnMultiMessageProcess",
    "BackoffMultiMessageProcess",
    "ack_windows_elapsed",
    "backoff_rate",
    "make_gkln_multi_message",
    "make_backoff_multi_message",
]


def ack_windows_elapsed(round_index, window_start, window):
    """Full ack windows from ``window_start`` to round ``r`` (negative
    before it): GKLN's time-driven ack pops one queue head per window."""
    return (round_index - window_start) // window


def backoff_rate(round_index, last_new, window, base, floor):
    """Exponential back-off: ``base`` halved (exactly) per quiet
    ``window`` since the last new message, floored at ``floor``."""
    epoch = at_least(round_index - last_new, 0) // window
    return at_least(base * pow2(-epoch), floor)


def _initial_messages(ctx: ProcessContext, assignment: MessageAssignment) -> list[Message]:
    """The messages this node originates, as fresh DATA messages."""
    return [
        Message(
            MessageKind.DATA,
            origin=ctx.node_id,
            payload=assignment.payload(index),
            tag=index,
        )
        for index in assignment.indices_at(ctx.node_id)
    ]


class GklnMultiMessageProcess(Process):
    """One node of the GKLN queued multi-message discipline.

    State: the set of known message payloads, a FIFO of messages not
    yet acknowledged, and the round the head's ack window opened.
    Window expiry (the local MAC acknowledgment) is time-driven, so
    :meth:`_advance` folds any number of elapsed windows into the
    queue before every state read — idempotent, monotone in ``r``, and
    therefore safe to call from ``plan`` and ``next_state_change``.

    The abstract MAC contract acks a ``bcast`` only once every
    ``G``-neighbor holds it; the simulated realization's time-based
    ack is *optimistic* — a window can elapse without reaching a faded
    neighbor, and a one-shot relay would then strand the message
    forever. The realization therefore keeps acknowledged messages
    available at a low background duty cycle
    (``persist_probability``, default ``1/(2(Δ+1))``): once the queue
    drains, the node rotates through everything it knows at that rate,
    which restores the layer's eventual-delivery guarantee without
    materially changing the ack-paced completion times the ``M*``
    experiments measure.
    """

    idle_feedback_noop = True

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        assignment: MessageAssignment,
        window: int,
        rungs: int,
        persist_probability: Optional[float] = None,
    ) -> None:
        super().__init__(ctx)
        if window < 1 or rungs < 1:
            raise ValueError(f"need window ≥ 1 and rungs ≥ 1, got {window}, {rungs}")
        self.assignment = assignment
        self.window = window
        self.rungs = rungs
        self.persist_probability = clamp_probability(
            persist_probability
            if persist_probability is not None
            else 1.0 / (2.0 * (ctx.max_degree + 1))
        )
        # Relay-once queues every learned message once, in learn order,
        # so the pending FIFO is the suffix ``_all_known[_qhead:]``.
        self._all_known: list[Message] = _initial_messages(ctx, assignment)
        self._known = {message.payload for message in self._all_known}
        self._qhead = 0
        self._head_start: Optional[int] = 0 if self._all_known else None

    def _advance(self, round_index: int) -> None:
        """Fold elapsed ack windows: every full window pops its head."""
        start = self._head_start
        if start is None:
            return
        pops = ack_windows_elapsed(round_index, start, self.window)
        if pops > 0:
            pending = len(self._all_known) - self._qhead
            pops = min(pops, pending)
            self._qhead += pops
            self._head_start = start + pops * self.window if pops < pending else None

    def _background(self, round_index: int) -> Optional[Message]:
        """The persistence rotation's message for this round, if any."""
        if not self._all_known or self.persist_probability <= 0.0:
            return None
        return self._all_known[(round_index + self.node_id) % len(self._all_known)]

    def plan(self, round_index: int) -> RoundPlan:
        self._advance(round_index)
        start = self._head_start
        if start is None:
            message = self._background(round_index)
            if message is None:
                return RoundPlan.silence()
            return RoundPlan(probability=self.persist_probability, message=message)
        probability = decay_ladder(round_index - start, self.rungs)
        return RoundPlan(probability=probability, message=self._all_known[self._qhead])

    def next_state_change(self, round_index: int) -> Optional[int]:
        # Serving and persisting plans move every round (ladder slot /
        # rotation index); an empty node stays silent until reception.
        self._advance(round_index)
        if self._head_start is not None or self._all_known:
            return round_index + 1
        return None

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        self._advance(round_index)
        if received is None or not received.is_data():
            return
        if self.assignment.index_of(received.payload) is None:
            return
        if received.payload in self._known:
            return
        self._known.add(received.payload)
        self._all_known.append(received)
        if self._head_start is None:
            # The queue was idle: the new message's window opens next round.
            self._head_start = round_index + 1

    def describe_state(self) -> str:
        return (
            f"gkln(node={self.node_id}, known={len(self._known)}, "
            f"pending={len(self._all_known) - self._qhead})"
        )


class _GklnBankKernel(_MultiMessageKernelBase):
    """All trials of a GKLN bank: ``qhead`` and ``head_start`` are each
    node's ``_qhead`` and ``_head_start`` (−1 = idle) over the
    append-order log ``order``."""

    mirrors = GklnMultiMessageProcess
    lane_params = ("assignment", "window", "rungs", "persist_probability")

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.window = _lane_column(banks, "window", np.int64)
        self.rungs = _lane_column(banks, "rungs", np.int64)
        self.persist = _lane_column(banks, "persist_probability", np.float64)
        self.qhead = np.zeros((self.trials, self.n), dtype=np.int64)
        self.head_start = np.full((self.trials, self.n), -1, dtype=np.int64)
        for t, bank in enumerate(banks):
            for u, process in enumerate(bank):
                self._ingest_knowledge(t, u, list(process._all_known))
                self.qhead[t, u] = process._qhead
                if process._head_start is not None:
                    self.head_start[t, u] = process._head_start

    def _plan(self, r: int) -> np.ndarray:
        head_start, qhead, klen = self.head_start, self.qhead, self.klen
        # Fold elapsed ack windows, at most the pending heads; an idle
        # node has none pending and so pops nothing.
        pops = np.minimum(ack_windows_elapsed(r, head_start, self.window), klen - qhead)
        np.maximum(pops, 0, out=pops)
        qhead += pops
        head_start += pops * self.window
        head_start[qhead >= klen] = -1
        serving = head_start >= 0
        # Serving nodes climb the decay ladder; idle nodes with
        # knowledge persist at the background duty cycle; everyone else
        # is silent.
        ladder = decay_ladder(r - head_start, self.rungs)
        background = np.where((klen > 0) & (self.persist > 0.0), self.persist, 0.0)
        return np.where(serving, ladder, background)

    def message_for(self, t: int, u: int) -> Message:
        """The queue head while serving, the rotation while idle."""
        if self.head_start[t, u] >= 0:
            return self.messages[t][int(self.order[t, u, self.qhead[t, u]])]
        return super().message_for(t, u)

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        for u in self._learners(t, deliveries):
            if self.head_start[t, u] < 0:
                # The queue was idle: the window opens next round.
                self.head_start[t, u] = r + 1


class BackoffMultiMessageProcess(Process):
    """One node of the simple back-off multi-message protocol.

    Every node holding at least one message transmits each round with
    the regime's probability, rotating deterministically through its
    knowledge list (offset by its node id so neighbors holding the
    same set do not always push the same message). ``"fixed"`` uses a
    constant rate; ``"exponential"`` halves the rate every
    ``backoff_window`` rounds without new knowledge — GLNP's back-off
    shape — and resets on every fresh reception.
    """

    idle_feedback_noop = True

    def __init__(
        self,
        ctx: ProcessContext,
        *,
        assignment: MessageAssignment,
        probability: Optional[float],
        regime: str,
        backoff_window: int,
    ) -> None:
        super().__init__(ctx)
        if regime not in ("fixed", "exponential"):
            raise ValueError(f"unknown back-off regime {regime!r}")
        if backoff_window < 1:
            raise ValueError(f"backoff_window must be ≥ 1, got {backoff_window}")
        self.assignment = assignment
        self.regime = regime
        self.backoff_window = backoff_window
        if probability is not None:
            self.base_probability = clamp_probability(float(probability))
        elif regime == "fixed":
            self.base_probability = 1.0 / (ctx.max_degree + 1)
        else:
            self.base_probability = 0.5
        self.min_probability = 1.0 / (2.0 * ctx.n)
        self._known: list[Message] = _initial_messages(ctx, assignment)
        self._known_payloads = {message.payload for message in self._known}
        self._last_new = 0  # round of the most recent knowledge gain

    def _probability(self, round_index: int) -> float:
        if self.regime == "fixed":
            return self.base_probability
        return backoff_rate(
            round_index, self._last_new, self.backoff_window,
            self.base_probability, self.min_probability,
        )

    def _current(self, round_index: int) -> Message:
        return self._known[(round_index + self.node_id) % len(self._known)]

    def plan(self, round_index: int) -> RoundPlan:
        if not self._known:
            return RoundPlan.silence()
        return RoundPlan(
            probability=self._probability(round_index),
            message=self._current(round_index),
        )

    def next_state_change(self, round_index: int) -> Optional[int]:
        return round_index + 1 if self._known else None

    def on_feedback(self, round_index: int, sent: bool, received: Optional[Message]) -> None:
        if received is None or not received.is_data():
            return
        if self.assignment.index_of(received.payload) is None:
            return
        if received.payload in self._known_payloads:
            return
        self._known_payloads.add(received.payload)
        self._known.append(received)
        # New knowledge resets the back-off clock from the next round.
        self._last_new = round_index + 1

    def describe_state(self) -> str:
        return f"backoff(node={self.node_id}, known={len(self._known)})"


class _BackoffBankKernel(_MultiMessageKernelBase):
    """All trials of a simple back-off bank, as arrays: nodes holding
    messages transmit at the regime's rate and rotate through their
    knowledge log offset by node id."""

    mirrors = BackoffMultiMessageProcess
    lane_params = (
        "assignment",
        "regime",
        "backoff_window",
        "base_probability",
        "min_probability",
    )

    def __init__(self, banks: Sequence[Sequence]) -> None:
        super().__init__(banks)
        self.exponential = _lane_column(banks, "regime") == "exponential"
        self.backoff_window = _lane_column(banks, "backoff_window", np.int64)
        self.base = _lane_column(banks, "base_probability", np.float64)
        self.floor = _lane_column(banks, "min_probability", np.float64)
        self.last_new = np.zeros((self.trials, self.n), dtype=np.int64)
        for t, bank in enumerate(banks):
            for u, process in enumerate(bank):
                self._ingest_knowledge(t, u, list(process._known))

    def _plan(self, r: int) -> np.ndarray:
        backed = backoff_rate(r, self.last_new, self.backoff_window, self.base, self.floor)
        rate = np.where(self.exponential, backed, self.base)
        return np.where(self.klen > 0, rate, 0.0)

    def apply_feedback(self, t: int, r: int, deliveries: Sequence[Delivery]) -> None:
        """Sparse reception feedback (idle/transmit feedback are no-ops)."""
        for u in self._learners(t, deliveries):
            # New knowledge resets the back-off clock from next round.
            self.last_new[t, u] = r + 1


# ----------------------------------------------------------------------
# Spec builders
# ----------------------------------------------------------------------
def make_gkln_multi_message(
    n: int,
    max_degree: int,
    assignment: MessageAssignment,
    mac: SimulatedMACLayer,
    *,
    window: Optional[int] = None,
    persist_probability: Optional[float] = None,
) -> AlgorithmSpec:
    """Spec for the GKLN queued protocol over a simulated MAC layer."""
    rungs = (
        mac.ladder_rungs(max_degree)
        if hasattr(mac, "ladder_rungs")
        else log2_ceil(max_degree + 1)
    )
    resolved_window = window if window is not None else mac.f_ack(n, max_degree)

    def factory(ctx: ProcessContext) -> GklnMultiMessageProcess:
        return GklnMultiMessageProcess(
            ctx,
            assignment=assignment,
            window=resolved_window,
            rungs=rungs,
            persist_probability=persist_probability,
        )

    return AlgorithmSpec(
        name=f"gkln-multi-message(k={assignment.k}, W={resolved_window})",
        factory=factory,
        metadata={
            "family": "mac-multi-message",
            "problem": "multi-message",
            "mac_discipline": "queued",
            "k": assignment.k,
            "sources": sorted(assignment.sources),
            "ack_window": resolved_window,
            "rungs": rungs,
        },
    )


def make_backoff_multi_message(
    n: int,
    assignment: MessageAssignment,
    *,
    probability: Optional[float] = None,
    regime: str = "fixed",
    backoff_window: Optional[int] = None,
) -> AlgorithmSpec:
    """Spec for the simple back-off protocol (no ack pacing)."""
    resolved_window = backoff_window if backoff_window is not None else log2_ceil(n)

    def factory(ctx: ProcessContext) -> BackoffMultiMessageProcess:
        return BackoffMultiMessageProcess(
            ctx,
            assignment=assignment,
            probability=probability,
            regime=regime,
            backoff_window=resolved_window,
        )

    label = regime if probability is None else f"{regime}, p={probability:g}"
    return AlgorithmSpec(
        name=f"backoff-multi-message(k={assignment.k}, {label})",
        factory=factory,
        metadata={
            "family": "mac-multi-message",
            "problem": "multi-message",
            "mac_discipline": "concurrent",
            "k": assignment.k,
            "sources": sorted(assignment.sources),
            "regime": regime,
            "backoff_window": resolved_window,
        },
    )


def _context_mac(ctx) -> SimulatedMACLayer:
    """The spec's MAC layer, defaulting to the simulated realization.

    Oracle-mode MACs are accepted too: their guarantee functions size
    the ack window identically, and when the trial actually runs in
    oracle mode the per-node processes built here are never invoked.
    """
    return ctx.mac if ctx.mac is not None else SimulatedMACLayer()


@register_algorithm("gkln-multi-message")
def _spec_gkln_multi_message(
    ctx,
    *,
    ack_window: Optional[int] = None,
    persist_probability: Optional[float] = None,
) -> AlgorithmSpec:
    return make_gkln_multi_message(
        ctx.graph.n,
        ctx.graph.max_degree,
        spec_messages(ctx),
        _context_mac(ctx),
        window=None if ack_window is None else int(ack_window),
        persist_probability=(
            None if persist_probability is None else float(persist_probability)
        ),
    )


@register_algorithm("backoff-multi-message")
def _spec_backoff_multi_message(
    ctx,
    *,
    probability: Optional[float] = None,
    regime: str = "fixed",
    backoff_window: Optional[int] = None,
) -> AlgorithmSpec:
    return make_backoff_multi_message(
        ctx.graph.n,
        spec_messages(ctx),
        probability=None if probability is None else float(probability),
        regime=str(regime),
        backoff_window=None if backoff_window is None else int(backoff_window),
    )
