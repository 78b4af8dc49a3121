"""Each protocol rule is one function, called on ints and on grids.

The per-node processes (what the reference engine runs) call a rule on
Python ints; the bank kernels call the same function on (trials ×
nodes) numpy grids. These tests pin that the two calls agree element
for element — bit for bit on floats — and that the scalar call never
returns a numpy value, i.e. the per-node path does not go through
numpy. Rounds run from 0 through three full periods, so every rule is
seen at round 0, on and off each period boundary, and with ``n == 1``
or a one-rung ladder where the rule has a period.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.decay import (
    decay_join_round,
    decay_ladder,
    decay_probability,
    next_ladder_round,
)
from repro.algorithms.global_broadcast import permuted_join_epoch, permuted_position
from repro.algorithms.multi_message import ack_windows_elapsed, backoff_rate
from repro.algorithms.round_robin import on_slot, slot_gap
from repro.core.kernels import _NEVER, at_least, pow2

#: Ladder lengths, epoch lengths, slot counts, windows: 1 is the
#: degenerate period (``n == 1``, a one-rung ladder).
PERIODS = [1, 2, 3, 5, 8]


def three_periods(period: int) -> list[int]:
    """Round 0 through the end of the third period."""
    return list(range(3 * period + 1))


def _same(scalar, element) -> bool:
    if isinstance(scalar, float):
        return float(element).hex() == scalar.hex()
    return scalar == element.item()


def assert_agrees(rule, *args):
    """``rule`` on grids equals ``rule`` on each element's Python ints.

    ``args`` are broadcast like the kernels' (T, 1) lane columns against
    (T, n) node grids; a tuple result is compared component-wise.
    """
    grids = [np.asarray(arg) for arg in args]
    shape = np.broadcast_shapes(*(grid.shape for grid in grids))
    expanded = [np.broadcast_to(grid, shape) for grid in grids]
    batched = rule(*grids)
    batched_parts = batched if isinstance(batched, tuple) else (batched,)
    for index in np.ndindex(shape):
        scalar = rule(*(grid[index].item() for grid in expanded))
        scalar_parts = scalar if isinstance(scalar, tuple) else (scalar,)
        assert len(scalar_parts) == len(batched_parts)
        for part, grid in zip(scalar_parts, batched_parts):
            assert not isinstance(part, np.generic), (rule.__name__, index, type(part))
            element = np.broadcast_to(grid, shape)[index]
            assert _same(part, element), (rule.__name__, index, part, element)


def column(values) -> np.ndarray:
    return np.array(values, dtype=np.int64)[:, None]


class TestPrimitives:
    def test_pow2_is_exact_on_both_paths(self):
        assert_agrees(pow2, np.arange(-70, 1, dtype=np.int64))
        assert pow2(-3) == 0.125 and type(pow2(-3)) is float

    def test_at_least_on_ints_and_floats(self):
        assert_agrees(at_least, column(range(-4, 5)), np.arange(-2, 3, dtype=np.int64))
        assert_agrees(
            at_least,
            np.array([[0.0], [0.125], [0.3], [1.0]]),
            np.array([0.0, 0.1, 0.125, 0.5]),
        )


class TestDecayRules:
    @pytest.mark.parametrize("phase", PERIODS)
    def test_ladder(self, phase):
        # Negative offsets too: GKLN reads the ladder at r - head_start.
        offsets = list(range(-phase, 3 * phase + 1))
        assert_agrees(decay_ladder, column(offsets), phase)
        for j in range(phase):
            assert decay_probability(j, phase) == decay_ladder(j, phase) == 2.0 ** -(j + 1)

    @pytest.mark.parametrize("phase", PERIODS)
    def test_join_round(self, phase):
        rounds = three_periods(phase)
        assert_agrees(decay_join_round, column(rounds), phase)
        for r in rounds:
            join = decay_join_round(r, phase)
            # The next round, pushed to the phase clock's boundary
            # (offset 1): a join on a boundary waits no extra round.
            assert join % phase == 1 % phase
            assert r < join <= r + phase
            if r % phase == 0:
                assert join == r + 1

    @pytest.mark.parametrize("phase", PERIODS)
    def test_next_ladder_round(self, phase):
        rounds = three_periods(phase)
        starts = [1, phase + 1, 2 * phase + 1, 3 * phase + 1, _NEVER]
        assert_agrees(next_ladder_round, column(rounds), np.array(starts, dtype=np.int64))
        for r in rounds:
            assert next_ladder_round(r, 1) == r + 1
            assert next_ladder_round(r, _NEVER) == _NEVER


class TestPermutedDecayRules:
    @pytest.mark.parametrize("epoch_length", PERIODS)
    def test_join_epoch(self, epoch_length):
        rounds = three_periods(epoch_length)
        assert_agrees(permuted_join_epoch, column(rounds), epoch_length)
        for r in rounds:
            # The first epoch boundary strictly after r.
            boundary = permuted_join_epoch(r, epoch_length) * epoch_length
            assert r < boundary <= r + epoch_length

    @pytest.mark.parametrize("epoch_length", PERIODS)
    @pytest.mark.parametrize("num_chunks", [1, 2, 3])
    def test_position(self, epoch_length, num_chunks):
        rounds = three_periods(epoch_length)
        bits = np.array([1, 8, 40], dtype=np.int64)
        assert_agrees(permuted_position, column(rounds), epoch_length, num_chunks, bits)
        for r in rounds:
            epoch, offset, position = permuted_position(r, epoch_length, num_chunks, 8)
            assert epoch * epoch_length + position == r
            assert offset == (epoch % num_chunks) * 8


class TestRoundRobinRules:
    @pytest.mark.parametrize("n", PERIODS)
    def test_slot_rules(self, n):
        rounds = column(three_periods(n))
        slots = np.arange(n, dtype=np.int64)
        assert_agrees(on_slot, rounds, slots, n)
        assert_agrees(slot_gap, rounds, slots, n)

    @pytest.mark.parametrize("n", PERIODS)
    def test_standing_on_the_slot(self, n):
        for slot in range(n):
            for r in three_periods(n):
                gap = slot_gap(r, slot, n)
                assert on_slot(r, slot, n) == (gap == 0)
                assert on_slot(r + gap, slot, n)
                # The kernel's licence: the next firing strictly after
                # r, a whole cycle on from a node standing on its slot.
                nxt = r + 1 + slot_gap(r + 1, slot, n)
                assert on_slot(nxt, slot, n)
                assert nxt == (r + n if gap == 0 else r + gap)


class TestMacRules:
    @pytest.mark.parametrize("window", PERIODS)
    def test_ack_windows_elapsed(self, window):
        rounds = three_periods(window)
        # Window openings before, at and one round after each r (a
        # reception opens the window next round).
        starts = np.array([0, 1, window, 2 * window + 1, 3 * window + 1], dtype=np.int64)
        assert_agrees(ack_windows_elapsed, column(rounds), starts, window)
        for r in rounds:
            assert ack_windows_elapsed(r, r + 1, window) < 0
            assert ack_windows_elapsed(r, 0, window) == r // window

    @pytest.mark.parametrize("window", PERIODS)
    def test_backoff_rate(self, window):
        rounds = three_periods(window)
        last_new = np.array([0, 1, window, 3 * window + 1], dtype=np.int64)
        for base, floor in [(0.5, 1 / 64), (1 / 3, 1 / 10), (1.0, 0.25)]:
            assert_agrees(backoff_rate, column(rounds), last_new, window, base, floor)
        for r in rounds:
            assert backoff_rate(r, 0, window, 0.5, 0.0) == 0.5 * 2.0 ** -(r // window)
            assert backoff_rate(r, r + 1, window, 0.5, 0.0) == 0.5  # no quiet time yet
