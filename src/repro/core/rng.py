"""Deterministic seed-tree utilities.

Every source of randomness in a simulation — per-node process RNGs, the
engine's transmission coins, adversary randomness, workload generators —
is derived from one master seed through *labelled* derivation. Labels
are arbitrary strings/ints that name the consumer (for example
``("node", 17)`` or ``("adversary", "gilbert-elliott")``). Derivation is
stable across platforms and Python versions because it uses SHA-256
rather than Python's salted ``hash``.

This matters for the paper's constructions in two ways:

* *Reproducibility*: a trial is exactly re-runnable from its seed, which
  the analysis harness relies on when re-examining outlier executions.
* *Independence*: the oblivious attackers of Section 4 must draw
  "support sequences ... with uniform and independent randomness"
  (Lemma 4.5) that are independent from the execution's own coins.
  Giving each consumer its own labelled child stream provides exactly
  that independence structure.
"""

from __future__ import annotations

import hashlib
import random
from typing import Iterable

import numpy as np

__all__ = [
    "derive_seed",
    "spawn_rng",
    "spawn_lazy_rng",
    "spawn_numpy_rng",
    "fresh_seed_sequence",
    "transmission_coins",
]

_SEED_BYTES = 8


def derive_seed(master_seed: int, *labels: object) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label path.

    The same ``(master_seed, labels)`` pair always yields the same child
    seed; distinct label paths yield (cryptographically) independent
    seeds.

    Parameters
    ----------
    master_seed:
        Root seed of the simulation.
    labels:
        Path of labels naming the consumer, e.g. ``("node", 3, "coins")``.
        Labels are stringified, so any ``repr``-stable object works.
    """
    hasher = hashlib.sha256()
    hasher.update(str(int(master_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")  # unit separator: avoids label-concat collisions
        hasher.update(repr(label).encode("utf-8"))
    return int.from_bytes(hasher.digest()[:_SEED_BYTES], "big")


def spawn_rng(master_seed: int, *labels: object) -> random.Random:
    """Return a :class:`random.Random` seeded from the labelled child seed."""
    return random.Random(derive_seed(master_seed, *labels))


class LazyRng:
    """A :class:`random.Random` stand-in that defers seeding to first use.

    Seeding a Mersenne Twister costs ~8µs and the SHA-256 label
    derivation another ~3µs — per *node*, per trial. Most processes
    never touch their private stream (decay ladders and round robin
    are coin-free outside the engine's own transmission coins), so
    :meth:`~repro.algorithms.base.AlgorithmSpec.build_processes` hands
    out these proxies instead. The first attribute access materializes
    the underlying generator with the same ``(master_seed, labels)``
    derivation, so every draw is bit-identical to an eager
    :func:`spawn_rng` stream; consumers that draw often should hold
    the bound method (``draw = ctx.rng.random``) as usual, which
    skips the proxy after the first hop.
    """

    __slots__ = ("_master_seed", "_labels", "_rng")

    def __init__(self, master_seed: int, labels: tuple) -> None:
        self._master_seed = master_seed
        self._labels = labels
        self._rng: "random.Random | None" = None

    def __getattr__(self, name: str):
        rng = self._rng
        if rng is None:
            rng = random.Random(derive_seed(self._master_seed, *self._labels))
            self._rng = rng
        return getattr(rng, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "seeded" if self._rng is not None else "unseeded"
        return f"LazyRng({self._labels!r}, {state})"


def spawn_lazy_rng(master_seed: int, *labels: object) -> LazyRng:
    """Like :func:`spawn_rng` but seeds on first draw (see :class:`LazyRng`)."""
    return LazyRng(master_seed, labels)


def spawn_numpy_rng(master_seed: int, *labels: object) -> np.random.Generator:
    """Return a NumPy :class:`~numpy.random.Generator` for vectorized draws.

    The engine uses one of these for per-round Bernoulli transmission
    coins; stochastic link processes use their own for edge fading.
    """
    return np.random.default_rng(derive_seed(master_seed, *labels))


def transmission_coins(
    coin_rng: np.random.Generator, probabilities: "np.ndarray"
) -> tuple["np.ndarray", int]:
    """One round of Bernoulli transmission coins, as a batch.

    Draws exactly ``len(probabilities)`` uniforms from ``coin_rng`` —
    one per node, in node order — and returns ``(transmit, mask)``
    where ``transmit[u]`` is the realized coin of node ``u`` and
    ``mask`` is the same set packed as a Python int bitset (bit ``u``
    set iff node ``u`` transmits).

    The reference engine realizes its coins here from the
    ``("engine", "coins")`` child stream. The bank engine's round (its
    ``step`` and its scheduler alike) draws the identical ``n``
    uniforms per lane row with ``Generator.random(out=row)`` on the
    same stream and applies the same comparison, which is what makes
    the two engines seed-for-seed identical by construction.

    The single comparison is exhaustive because plans clamp
    ``p ∈ [0, 1]`` and the uniforms live in ``[0, 1)``: ``p = 0``
    never transmits (no uniform is below 0), ``p = 1`` always does
    (every uniform is below 1), and the open interval means no
    tie-breaking case exists.
    """
    coins = coin_rng.random(len(probabilities))
    transmit = coins < probabilities
    mask = int.from_bytes(np.packbits(transmit, bitorder="little").tobytes(), "little")
    return transmit, mask


def fresh_seed_sequence(rng: random.Random, count: int) -> list[int]:
    """Draw ``count`` independent 63-bit seeds from ``rng``.

    Useful when an already-derived RNG must fan out into further
    independent streams (for example one seed per trial of a sweep).
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    return [rng.getrandbits(63) for _ in range(count)]


def interleave_labels(base: Iterable[object], extra: Iterable[object]) -> tuple[object, ...]:
    """Concatenate two label paths into one tuple (helper for wrappers)."""
    return tuple(base) + tuple(extra)
