"""A task-payload value that holds a pool worker until a test opens a gate.

``WorkerPool`` pickles payloads to its spawn workers, which import this
module by name to unpickle a :class:`GatedCount`. The worker reads the
value with ``int()`` inside the task, so the task cannot finish before
the gate file exists.
"""

from __future__ import annotations

import os
import time


class GatedCount:
    """``int(self)`` waits for ``gate`` to exist, then returns ``value``."""

    def __init__(self, value: int, gate: str, timeout: float = 180.0) -> None:
        self.value = value
        self.gate = gate
        self.timeout = timeout

    def __int__(self) -> int:
        deadline = time.monotonic() + self.timeout
        while not os.path.exists(self.gate):
            if time.monotonic() > deadline:
                raise TimeoutError(f"gate {self.gate} was never opened")
            time.sleep(0.01)
        return self.value
