"""Per-node message-set state for multi-message workloads.

The multi-message broadcast problem (Ghaffari–Kantor–Lynch–Newport,
*Multi-Message Broadcast with Abstract MAC Layers and Unreliable
Links*) starts ``k`` messages at arbitrary sources and is solved when
every node holds every message. Everything that tracks that state —
the problem observer, the oracle MAC's event simulation, diagnostics —
shares this module's :class:`KnowledgeVector`: one ``k``-bit knowledge
mask per node, with per-message holder counts maintained incrementally
so "is message ``i`` everywhere yet?" is O(1) per delivery rather than
an O(n·k) rescan.

Kept in :mod:`repro.core` (not the problem module) deliberately: the
MAC layer's oracle runs *without* the radio engine and must agree with
the engine-side observer about what "node ``u`` knows message ``i``"
means; a single shared structure keeps the two execution paths honest
against each other.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from repro.core.trace import popcount

__all__ = ["KnowledgeVector"]


class KnowledgeVector:
    """Which of ``k`` messages each of ``n`` nodes currently holds.

    ``masks[u]`` is an int bitmask over message indices; bit ``i`` set
    means node ``u`` holds message ``i``. ``holders(i)`` counts the
    nodes holding message ``i``; :attr:`complete` is true once every
    node holds every message.
    """

    __slots__ = ("n", "k", "masks", "_holders", "_full", "_complete_count")

    def __init__(self, n: int, k: int) -> None:
        if n < 1 or k < 1:
            raise ValueError(f"need n ≥ 1 and k ≥ 1, got n={n}, k={k}")
        self.n = n
        self.k = k
        self.masks: List[int] = [0] * n
        self._holders: List[int] = [0] * k
        self._full = (1 << k) - 1
        self._complete_count = 0  # nodes already holding every message

    def add(self, node: int, index: int) -> bool:
        """Record that ``node`` holds message ``index``.

        Returns ``True`` iff this was new knowledge.
        """
        bit = 1 << index
        mask = self.masks[node]
        if mask & bit:
            return False
        mask |= bit
        self.masks[node] = mask
        self._holders[index] += 1
        if mask == self._full:
            self._complete_count += 1
        return True

    def knows(self, node: int, index: int) -> bool:
        return bool((self.masks[node] >> index) & 1)

    def holders(self, index: int) -> int:
        """How many nodes currently hold message ``index``."""
        return self._holders[index]

    def message_complete(self, index: int) -> bool:
        """Does every node hold message ``index``?"""
        return self._holders[index] == self.n

    @property
    def complete(self) -> bool:
        """Does every node hold every message?"""
        return self._complete_count == self.n

    def known_count(self, node: int) -> int:
        return popcount(self.masks[node])

    def known_indices(self, node: int) -> Iterator[int]:
        """Message indices held by ``node``, ascending."""
        mask = self.masks[node]
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    def missing_nodes(self, index: int) -> list[int]:
        """Nodes not yet holding message ``index`` (diagnostics)."""
        return [u for u in range(self.n) if not self.knows(u, index)]

    def progress(self) -> float:
        """Share of the ``n·k`` knowledge facts established."""
        return sum(self._holders) / (self.n * self.k)

    def first_incomplete(self) -> Optional[int]:
        """Lowest message index not yet known everywhere, if any."""
        for index, count in enumerate(self._holders):
            if count != self.n:
                return index
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"KnowledgeVector(n={self.n}, k={self.k}, "
            f"progress={self.progress():.2f})"
        )
