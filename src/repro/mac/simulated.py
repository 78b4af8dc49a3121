"""The simulated MAC layer: contention resolution on the real engines.

This layer realizes the abstract MAC contract *inside* the dual-graph
radio model: a ``bcast`` becomes an **ack window** of ``f_ack(n, Δ)``
rounds during which the sender runs decay-style contention resolution
(cycle the ladder ``1/2, 1/4, …, 2^{-⌈log(Δ+1)⌉}``), after which the
layer acknowledges locally and the next queued message may start. This
is the standard time-bounded MAC realization: the guarantee is
probabilistic ("by the window's end every ``G``-neighbor heard the
message w.h.p."), and because the execution happens on the real
engines, experiments measure how the realized layer behaves under
every registered link adversary — including ones the guarantee
analysis never promised anything about.

The layer itself stays plain data (window sizing + ladder geometry);
the per-node state machines that consume it live in
:mod:`repro.algorithms.multi_message`. Both registered multi-message
protocols work on the ``reference`` and ``bank`` engines (the bank
engine runs them as struct-of-arrays kernels) — adaptive
adversaries fall back to the reference engine with the usual
:class:`~repro.core.errors.EngineFallbackWarning`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import SpecError
from repro.obs.recorder import observe as _obs_observe
from repro.mac.base import (
    AbstractMACLayer,
    _log2_ceil,
    default_f_ack,
    default_f_prog,
)
from repro.registry import register_mac

__all__ = ["SimulatedMACLayer"]


@dataclass(frozen=True)
class SimulatedMACLayer(AbstractMACLayer):
    """Decay-window contention resolution over the radio engines.

    Parameters
    ----------
    ack_window_factor:
        Multiplies the default ``Θ(log n log Δ)`` ack window. Raising
        it trades completion time for delivery confidence (more decay
        phases per bcast); lowering it below 1 makes the realized layer
        *violate* its nominal guarantee measurably — a knob experiment
        ``M3`` exists to explore.
    ack_window:
        Explicit window in rounds; overrides the factor entirely.
    """

    ack_window_factor: float = 1.0
    ack_window: int | None = None

    mode = "engine"

    def __post_init__(self) -> None:
        if self.ack_window_factor <= 0:
            raise SpecError(
                f"ack_window_factor must be positive, got {self.ack_window_factor}"
            )
        if self.ack_window is not None and self.ack_window < 1:
            raise SpecError(f"ack_window must be ≥ 1, got {self.ack_window}")

    # ------------------------------------------------------------------
    # Guarantees
    # ------------------------------------------------------------------
    def ladder_rungs(self, max_degree: int) -> int:
        """Rungs of the contention ladder: ``⌈log2(Δ+1)⌉``."""
        return _log2_ceil(max_degree + 1)

    def f_ack(self, n: int, max_degree: int) -> int:
        if self.ack_window is not None:
            value = int(self.ack_window)
        else:
            window = round(self.ack_window_factor * default_f_ack(n, max_degree))
            # Never shorter than one full ladder sweep: an ack window
            # that skips rungs would leave some contention level
            # untried.
            value = max(self.ladder_rungs(max_degree), int(window))
        _obs_observe("mac.f_ack_window", value)
        return value

    def f_prog(self, n: int, max_degree: int) -> int:
        if self.ack_window is not None:
            value = max(1, int(self.ack_window) // 2)
        else:
            window = round(self.ack_window_factor * default_f_prog(n, max_degree))
            value = max(1, int(window))
        _obs_observe("mac.f_prog_window", value)
        return value

    def contention_probability(self, slot: int, max_degree: int) -> float:
        """The ladder probability for slot ``slot`` of an ack window.

        Slots cycle through the decay ladder: slot ``j`` transmits with
        probability ``2^{-(j mod rungs) - 1}`` — rung 0 is ``1/2``, the
        deepest rung ``≈ 1/(Δ+1)``, then the cycle restarts. For any
        actual contender count some rung is within a factor of two of
        its inverse, which is the constant-probability-per-phase fact
        the ``f_ack`` sizing rests on.
        """
        rungs = self.ladder_rungs(max_degree)
        return 2.0 ** (-(slot % rungs) - 1)

    def describe(self) -> str:
        if self.ack_window is not None:
            return f"simulated-mac(window={self.ack_window})"
        return f"simulated-mac(factor={self.ack_window_factor:g})"


@register_mac("simulated")
def _spec_simulated(
    ctx, *, ack_window_factor: float = 1.0, ack_window: int | None = None
) -> SimulatedMACLayer:
    return SimulatedMACLayer(
        ack_window_factor=float(ack_window_factor),
        ack_window=None if ack_window is None else int(ack_window),
    )
