"""One cProfile helper for ``repro trace --profile``.

Build a profiler, run, sort by cumulative time, print 20 rows: the
sequence ``repro trace --profile`` needs, and anyone chasing a hotspot
interactively. :func:`profiled` is the context manager and
:func:`profile_text` the formatter.
"""

from __future__ import annotations

import cProfile
import contextlib
import io
import pstats
from typing import Iterator

__all__ = ["profiled", "profile_text"]

#: Rows of the cumulative-time table.
DEFAULT_LIMIT = 20


@contextlib.contextmanager
def profiled() -> Iterator[cProfile.Profile]:
    """Run the ``with`` body under cProfile; yields the profiler.

    The profiler is enabled on entry and disabled on exit (including
    exceptional exits), ready for :func:`profile_text`.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()


def profile_text(
    profiler: cProfile.Profile,
    *,
    limit: int = DEFAULT_LIMIT,
    sort: str = "cumulative",
) -> str:
    """The top-``limit`` rows of a finished profiler, as text."""
    buffer = io.StringIO()
    pstats.Stats(profiler, stream=buffer).sort_stats(sort).print_stats(limit)
    return buffer.getvalue()
