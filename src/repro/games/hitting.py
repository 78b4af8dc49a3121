"""The β-hitting game (Section 3) and its players.

"The game is defined for integer β > 0. There is a player represented
by a probabilistic automaton P. At the beginning of the game, an
adversary chooses a target value t ∈ [β], which it keeps secret from
the player. The P automaton executes in rounds. In each round, it can
output a guess from [β]. The player wins the game when P outputs t.
The only information it learns in other rounds is that it has not yet
won the game."

Lemma 3.2 (adapted from [11]): for β > 3 and 1 ≤ k ≤ β − 2, no player
wins in ``k`` rounds with probability greater than ``k/(β − 1)``.

The lemma is information-theoretic and holds against a *uniformly
random* secret target (the average case lower-bounds the worst case),
so the empirical check draws ``t`` uniformly and verifies no player's
win rate beats the envelope. The near-optimal players —
:class:`SequentialPlayer` and :class:`NoRepeatRandomPlayer` — achieve
``k/β``, pinning the envelope from below; both broadcast reductions
(Theorems 3.1 and 4.3) plug in as :class:`Player` implementations via
:mod:`repro.games.reduction_clique` / ``reduction_bracelet``.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "Player",
    "SequentialPlayer",
    "UniformRandomPlayer",
    "NoRepeatRandomPlayer",
    "HittingGame",
    "GameOutcome",
    "play_hitting_game",
    "empirical_win_rate",
    "lemma_3_2_envelope",
]


class Player(abc.ABC):
    """A hitting-game player: emits one guess per game round."""

    @abc.abstractmethod
    def next_guess(self) -> Optional[int]:
        """The next guess in ``[1, β]``, or ``None`` to pass this round.

        Passing models reduction players mid-simulation (a simulated
        round that generates no guesses still consumes no game rounds —
        the game clock in Lemma 3.2 counts *guesses*).
        """

    def on_miss(self, guess: int) -> None:  # noqa: B027 - optional hook
        """Feedback: the guess did not hit (the only signal the game leaks)."""


class SequentialPlayer(Player):
    """Guess ``1, 2, 3, …`` — deterministic, wins by round ``t``.

    Against a uniform target its win probability in ``k`` rounds is
    exactly ``k/β``, matching the Lemma 3.2 envelope up to the
    ``β/(β−1)`` factor.
    """

    def __init__(self, beta: int) -> None:
        self.beta = beta
        self._next = 1

    def next_guess(self) -> Optional[int]:
        guess = self._next
        self._next = self._next % self.beta + 1
        return guess


class UniformRandomPlayer(Player):
    """Guess uniformly with replacement: win rate ``1 − (1 − 1/β)^k``.

    Strictly below the no-repeat players — included as the memoryless
    baseline.
    """

    def __init__(self, beta: int, rng: random.Random) -> None:
        self.beta = beta
        self.rng = rng

    def next_guess(self) -> Optional[int]:
        return self.rng.randrange(1, self.beta + 1)


class NoRepeatRandomPlayer(Player):
    """Uniform guessing without replacement — the optimal strategy.

    Win probability in ``k`` rounds is exactly ``k/β`` for a uniform
    target, which Lemma 3.2 says cannot be improved beyond
    ``k/(β−1)``.
    """

    def __init__(self, beta: int, rng: random.Random) -> None:
        self.beta = beta
        self._remaining = list(range(1, beta + 1))
        rng.shuffle(self._remaining)

    def next_guess(self) -> Optional[int]:
        if not self._remaining:
            return None
        return self._remaining.pop()


@dataclass(frozen=True)
class GameOutcome:
    """Result of one game: whether/when the player hit the target."""

    won: bool
    guesses_used: int
    target: int

    def rounds_to_win(self) -> int:
        if not self.won:
            raise ValueError("player did not win the game")
        return self.guesses_used


class HittingGame:
    """One β-hitting game instance with a fixed secret target."""

    def __init__(self, beta: int, target: int) -> None:
        if beta < 1:
            raise ValueError(f"beta must be >= 1, got {beta}")
        if not 1 <= target <= beta:
            raise ValueError(f"target {target} outside [1, {beta}]")
        self.beta = beta
        self.target = target

    def play(self, player: Player, *, max_guesses: int) -> GameOutcome:
        """Drive the player until it hits, passes forever, or exhausts guesses."""
        guesses = 0
        passes_in_a_row = 0
        while guesses < max_guesses:
            guess = player.next_guess()
            if guess is None:
                passes_in_a_row += 1
                if passes_in_a_row > max_guesses:
                    break  # player is stuck; treat as loss
                continue
            passes_in_a_row = 0
            guesses += 1
            if guess == self.target:
                return GameOutcome(won=True, guesses_used=guesses, target=self.target)
            player.on_miss(guess)
        return GameOutcome(won=False, guesses_used=guesses, target=self.target)


def play_hitting_game(
    beta: int,
    player: Player,
    rng: random.Random,
    *,
    max_guesses: Optional[int] = None,
) -> GameOutcome:
    """Play one game against a uniformly random secret target."""
    target = rng.randrange(1, beta + 1)
    cap = max_guesses if max_guesses is not None else 4 * beta * beta
    return HittingGame(beta, target).play(player, max_guesses=cap)


def empirical_win_rate(
    beta: int,
    k: int,
    player_factory,
    *,
    trials: int,
    rng: random.Random,
) -> float:
    """Share of games a fresh player wins within ``k`` guesses.

    ``player_factory(rng) -> Player`` builds an independent player per
    game (players are stateful).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    wins = 0
    for _ in range(trials):
        player = player_factory(rng)
        outcome = play_hitting_game(beta, player, rng, max_guesses=k)
        if outcome.won:
            wins += 1
    return wins / trials


def lemma_3_2_envelope(beta: int, k: int) -> float:
    """The Lemma 3.2 bound: max win probability ``k/(β − 1)``."""
    if beta <= 3:
        raise ValueError("Lemma 3.2 requires beta > 3")
    if not 1 <= k <= beta - 2:
        raise ValueError(f"Lemma 3.2 requires 1 <= k <= beta - 2, got k={k}")
    return k / (beta - 1)
