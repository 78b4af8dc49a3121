"""Problem definitions: what "solved" means, as engine observers.

Section 2 defines the two problems:

* **Global broadcast** — a designated source holds a message; solved
  when every node has received (or originated) it.
* **Local broadcast** — a subset ``B`` of nodes hold messages; with
  ``R`` the set of nodes having at least one ``G``-neighbor in ``B``,
  solved when every node of ``R`` has received at least one message
  originating in ``B``. (The paper studies the *receiver-side* time
  bound; sender-side completion is out of scope per its footnote 2.)

A :class:`Problem` builds a per-execution :class:`ProblemObserver` that
watches deliveries and exposes ``solved``; the experiment runner wires
the observer into the engine and uses ``solved`` as the stop condition.
Both problems require ``G`` connected — the constructors check it.
"""

from __future__ import annotations

import abc

from repro.core.trace import RoundRecord
from repro.graphs.dual_graph import DualGraph

__all__ = ["ProblemObserver", "Problem"]


class ProblemObserver(abc.ABC):
    """An engine observer tracking progress toward a problem's goal."""

    @property
    @abc.abstractmethod
    def solved(self) -> bool:
        """Whether the problem's completion condition holds."""

    @abc.abstractmethod
    def on_round(self, record: RoundRecord) -> None:
        """Consume one round's record."""

    @abc.abstractmethod
    def progress(self) -> float:
        """Share of the goal achieved, in ``[0, 1]`` (diagnostics)."""


class Problem(abc.ABC):
    """A problem instance bound to a network (roles fixed)."""

    def __init__(self, network: DualGraph) -> None:
        if not network.is_g_connected():
            raise ValueError(
                "broadcast problems assume G is connected (Section 2); "
                f"{network.name} is not"
            )
        self.network = network

    @abc.abstractmethod
    def make_observer(self) -> ProblemObserver:
        """Fresh observer for one execution."""

    @abc.abstractmethod
    def describe(self) -> str:
        """Human-readable instance summary for tables."""
