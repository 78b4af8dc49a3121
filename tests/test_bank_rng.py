"""RNG stream discipline of the bank engine.

The bank scheduler's whole correctness story rests on one claim: the
(trials × nodes) coin batch is *assembled from* the per-trial
``("engine", "coins")`` streams, never drawn from a shared or merged
stream — each lane calls ``Generator.random(out=row)`` on its own
generator, one row per round, which consumes the stream exactly like
the serial engines' ``rng.random(n)``. These tests pin that claim
directly (post-run stream positions, not just trace equality), pin the
absence of cross-trial leakage (a trial's trace cannot depend on which
other trials share its bank, including lanes that retire early), and
cover the ``LazyRng`` deferred-seeding path for per-node streams.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis.runner import run_bank_trials, run_prepared_trial
from repro.api.spec import ScenarioSpec
from repro.core import rng as rng_mod
from repro.core.bankpath import (
    _KERNELS,
    BankLane,
    BankRadioNetworkEngine,
    build_bank_kernel,
    run_bank_batch,
)
from repro.core.engine import create_engine
from repro.core.messages import Message, MessageKind
from repro.core.process import ProcessContext, SilentProcess
from repro.core.rng import LazyRng, derive_seed
from repro.core.trace import TraceCollector

MASTER_SEED = 414213562

#: One workload per bank kernel (both MAC kernels and all seven
#: single-message kernels), two generic-lane workloads (plain-decay with
#: a finite active_phases window and permuted-decay with a finite
#: epochs_per_node budget, which opt out of their kernels), and the two
#: kernel-less algorithms, whose lanes run the reference
#: per-node stages and draw from their per-node LazyRngs (uncoordinated
#: decay redraws its rung, geo-local flips election coins).
SPECS = {
    "gkln-kernel": ScenarioSpec(
        graph=("ring", {"n": 12}),
        problem=("multi-message", {}),
        algorithm=("gkln-multi-message", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        mac=("simulated", {}),
        messages={"k": 3, "sources": "spread"},
        engine="bank",
    ),
    "backoff-kernel": ScenarioSpec(
        graph=("ring", {"n": 12}),
        problem=("multi-message", {}),
        algorithm=("backoff-multi-message", {"regime": "exponential"}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        mac=("simulated", {}),
        messages={"k": 3, "sources": "spread"},
        engine="bank",
    ),
    "decay-kernel": ScenarioSpec(
        graph=("line", {"n": 12, "extra_flaky_skips": 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("plain-decay", {}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        engine="bank",
    ),
    "permuted-kernel": ScenarioSpec(
        graph=("funnel", {"n": 14}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {}),
        adversary=("cut-jammer", {"period": 4, "dense_rounds": 1, "side": "first-half"}),
        engine="bank",
    ),
    "static-decay-kernel": ScenarioSpec(
        graph=("ring", {"n": 16}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("static-local-decay", {}),
        adversary=("cut-jammer", {"period": 5, "dense_rounds": 2, "side": "first-half"}),
        engine="bank",
    ),
    "rr-local-kernel": ScenarioSpec(
        graph=("ring", {"n": 16}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {"random_slots": True}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        engine="bank",
    ),
    "rr-global-kernel": ScenarioSpec(
        graph=("binary-tree", {"depth": 3}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("round-robin-global", {"random_slots": True}),
        adversary=("fixed-flaky", {"edges": []}),
        engine="bank",
    ),
    "uniform-local-kernel": ScenarioSpec(
        graph=("star", {"n": 12, "flaky_rim": True}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("uniform-local", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.4}),
        engine="bank",
    ),
    "uniform-global-kernel": ScenarioSpec(
        graph=("er", {"n": 16, "g_edge_probability": 0.3, "flaky_edge_probability": 0.2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("uniform-global", {"probability": 0.1}),
        adversary=("bernoulli-edge", {"p_up": 0.5}),
        engine="bank",
    ),
    "generic-lane": ScenarioSpec(
        graph=("line", {"n": 12, "extra_flaky_skips": 2}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("plain-decay", {"active_phases": 3}),
        adversary=("alternating", {"phase_lengths": [2, 3]}),
        engine="bank",
    ),
    "generic-lane-permuted": ScenarioSpec(
        graph=("funnel", {"n": 14}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("permuted-decay", {"epochs_per_node": 2}),
        adversary=("cut-jammer", {"period": 4, "dense_rounds": 1, "side": "first-half"}),
        engine="bank",
    ),
    "lazy-node-rng": ScenarioSpec(
        graph=("grid", {"rows": 3, "cols": 4}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("uncoordinated-decay", {}),
        adversary=("bernoulli-edge", {"p_up": 0.6}),
        engine="bank",
    ),
    "geo-local": ScenarioSpec(
        graph=("geographic", {"n": 24}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("geo-local", {}),
        adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
        engine="bank",
    ),
}

#: Which kernel class (by name) each spec's bank must select; ``None``
#: pins the generic per-process lane. Rotting expectations here would
#: silently turn the kernel rows above into generic-lane rows — a
#: kernel-selection regression the equivalence suites cannot see
#: (the generic lane is byte-identical, just slower).
EXPECTED_KERNEL = {
    "gkln-kernel": "_GklnBankKernel",
    "backoff-kernel": "_BackoffBankKernel",
    "decay-kernel": "_PlainDecayBankKernel",
    "permuted-kernel": "_PermutedDecayBankKernel",
    "static-decay-kernel": "_StaticDecayBankKernel",
    "rr-local-kernel": "_RoundRobinLocalBankKernel",
    "rr-global-kernel": "_RoundRobinGlobalBankKernel",
    "uniform-local-kernel": "_UniformLocalBankKernel",
    "uniform-global-kernel": "_UniformGlobalBankKernel",
    "generic-lane": None,
    "generic-lane-permuted": None,
    "lazy-node-rng": None,
    "geo-local": None,
}

MAX_ROUNDS = 600


def _seeds(count: int) -> list[int]:
    return [derive_seed(MASTER_SEED, "trial", index) for index in range(count)]


def _banks(spec: ScenarioSpec, seeds):
    """The built trials and their per-node process banks, built the way
    :func:`run_bank_trials` builds them."""
    trials = [spec.build(seed) for seed in seeds]
    banks = [
        trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=seed
        )
        for trial, seed in zip(trials, seeds)
    ]
    return trials, banks


def _bank_lanes(spec: ScenarioSpec, seeds):
    """Build the bank exactly the way :func:`run_bank_trials` does,
    keeping the engines accessible for stream inspection."""
    trials, banks = _banks(spec, seeds)
    kernel = build_bank_kernel(banks)
    lanes = []
    for lane_index, (trial, seed) in enumerate(zip(trials, seeds)):
        observer = trial.problem.make_observer()
        collector = TraceCollector()
        engine = BankRadioNetworkEngine(
            trial.network,
            banks[lane_index],
            trial.link_process,
            seed=seed,
            algorithm_info=trial.algorithm.info(),
            validate_topologies=True,
            observers=[observer, collector],
            kernel=kernel,
            lane=lane_index,
        )
        lanes.append(
            (BankLane(engine=engine, stop=(lambda obs=observer: obs.solved)), collector)
        )
    return trials, lanes


def _standalone_engine(
    spec: ScenarioSpec, seed: int, engine_name: str, *, skip=None
):
    """One engine built the way create_engine builds it for a trial,
    with its solve observer and a full trace collector attached."""
    trial = spec.build(seed)
    processes = trial.algorithm.build_processes(
        trial.network.n, trial.network.max_degree, seed=seed
    )
    observer = trial.problem.make_observer()
    collector = TraceCollector()
    engine = create_engine(
        trial.network,
        processes,
        trial.link_process,
        engine=engine_name,
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        validate_topologies=True,
        observers=[observer, collector],
        skip=skip,
    )
    return engine, observer, collector


def _serial_engine(spec: ScenarioSpec, seed: int, engine_name: str, *, steps: int = 0):
    """A standalone run, after ``steps`` public single-round steps."""
    engine, observer, collector = _standalone_engine(spec, seed, engine_name)
    for _ in range(steps):
        engine.step()
    result = engine.run(max_rounds=MAX_ROUNDS, stop=lambda: observer.solved)
    return engine, result, collector


class TestKernelSelection:
    """Each spec engages exactly the kernel (or generic lane) it pins."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_expected_kernel_engages(self, name):
        _, lanes = _bank_lanes(SPECS[name], _seeds(2))
        expected = EXPECTED_KERNEL[name]
        for lane, _ in lanes:
            kernel = lane.engine._kernel
            if expected is None:
                assert kernel is None
            else:
                assert type(kernel).__name__ == expected

    def test_kernel_table_is_the_pinned_nine(self):
        assert {kernel.__name__ for kernel in _KERNELS.values()} == {
            name for name in EXPECTED_KERNEL.values() if name is not None
        }


def _foreign_node(bank, u):
    """Swap node ``u`` for a process of another class."""
    process = bank[u]
    bank[u] = SilentProcess(
        ProcessContext(process.node_id, process.ctx.n, process.ctx.max_degree, process.ctx.rng)
    )


def _lane_param(bank, u):
    """Give node ``u`` its own value of the kernel's first lane parameter."""
    name = _KERNELS[type(bank[0])].lane_params[0]
    value = getattr(bank[u], name)
    if isinstance(value, (int, float)):
        changed = value + 1
    else:  # the MAC kernels' MessageAssignment
        changed = replace(value, sources=value.sources[1:] + value.sources[:1])
    assert changed != value
    setattr(bank[u], name, changed)


def _role(bank, u):
    """Break the role rule: take node ``u``'s message, or hand it one."""
    process = bank[u]
    if process.message is None:
        process.message = Message(MessageKind.DATA, origin=u, payload="intruder")
    else:
        process.message = None


KERNEL_SPECS = sorted(name for name, kernel in EXPECTED_KERNEL.items() if kernel)
#: One mutation per eligibility rule. Round-robin-local keeps no lane
#: parameter and the MAC kernels have no role rule.
REJECTIONS = [
    (name, mutation)
    for name in KERNEL_SPECS
    for mutation in (_foreign_node, _lane_param, _role)
    if not (mutation is _lane_param and name == "rr-local-kernel")
    and not (mutation is _role and name in ("gkln-kernel", "backoff-kernel"))
]


class TestKernelRejection:
    """Each eligibility rule, broken on one non-first node of one lane,
    sends the whole bank to the generic lanes."""

    @pytest.mark.parametrize(
        "name, mutation",
        REJECTIONS,
        ids=[f"{name}-{mutation.__name__.strip('_')}" for name, mutation in REJECTIONS],
    )
    def test_broken_rule_rejects_the_bank(self, name, mutation):
        _, banks = _banks(SPECS[name], _seeds(3))
        assert _KERNELS[type(banks[0][0])].eligible(banks)
        bank = banks[-1]
        mutation(bank, len(bank) - 1)
        assert build_bank_kernel(banks) is None


class TestPerTrialStreamIdentity:
    """The batch consumes each trial's coin stream exactly like serial."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_stream_positions_match_serial(self, name):
        """After the run, each lane's coin generator must sit at the
        *same stream position* as its serial counterpart: the next 8
        uniforms agree. Trace equality alone wouldn't catch a lane that
        drew extra coins after its trial solved."""
        spec = SPECS[name]
        seeds = _seeds(5)
        _, lanes = _bank_lanes(spec, seeds)
        results = run_bank_batch(
            [lane for lane, _ in lanes], max_rounds=MAX_ROUNDS
        )
        for (lane, collector), seed, result in zip(lanes, seeds, results):
            serial_engine, serial_result, serial_collector = _serial_engine(
                spec, seed, "reference"
            )
            assert result == serial_result
            assert collector.records == serial_collector.records
            lane_next = lane.engine._coin_rng.random(8)
            serial_next = serial_engine._coin_rng.random(8)
            assert np.array_equal(lane_next, serial_next)

    def test_coin_rows_equal_fresh_stream(self):
        """The per-lane ``random(out=row)`` draws are bit-identical to
        ``rng.random(n)`` on a fresh generator with the same labels —
        the exact identity the scheduler's batching relies on."""
        seed = _seeds(1)[0]
        n = 12
        engine_stream = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        fresh_stream = rng_mod.spawn_numpy_rng(seed, "engine", "coins")
        row = np.empty(n, dtype=np.float64)
        for _ in range(50):
            engine_stream.random(out=row)
            assert np.array_equal(row, fresh_stream.random(n))


class TestStandaloneEngine:
    """A standalone bank engine is a bank of one under run_bank_batch."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_step_then_run_stream_positions(self, name):
        """Public step() calls followed by run() consume the coin stream
        exactly like the reference engine doing the same: the batch loop
        starts the lane at the round the steps left it on."""
        spec = SPECS[name]
        seed = _seeds(1)[0]
        bank_engine, bank_result, bank_collector = _serial_engine(
            spec, seed, "bank", steps=7
        )
        assert type(bank_engine) is BankRadioNetworkEngine
        assert (bank_engine._kernel is None) == (EXPECTED_KERNEL[name] is None)
        ref_engine, ref_result, ref_collector = _serial_engine(
            spec, seed, "reference", steps=7
        )
        assert bank_result == ref_result
        assert bank_collector.records == ref_collector.records
        assert np.array_equal(
            bank_engine._coin_rng.random(8), ref_engine._coin_rng.random(8)
        )

    def test_lanes_at_different_rounds_rejected(self):
        """Lockstep lanes share one round index; a bank whose engines
        stepped unequally is refused before any round runs."""
        spec = SPECS["geo-local"]
        first, second = (
            _standalone_engine(spec, seed, "bank")[0] for seed in _seeds(2)
        )
        first.step()
        with pytest.raises(ValueError, match="same round index"):
            run_bank_batch(
                [BankLane(engine=first), BankLane(engine=second)],
                max_rounds=MAX_ROUNDS,
            )
        assert (first.round_index, second.round_index) == (1, 0)


class TestSkipLicence:
    """``next_active_round`` is each kernel's only skip licence, so it is
    checked after every executed round, not just where a skip fires."""

    @pytest.mark.parametrize(
        "name", sorted(name for name, kernel in EXPECTED_KERNEL.items() if kernel)
    )
    def test_next_active_round_is_sound(self, name):
        """After round ``r``, every round before ``next_active_round``
        must be provably silent (exact zero expected transmitters)."""
        spec, seed = SPECS[name], _seeds(1)[0]
        engine, _, _ = _standalone_engine(spec, seed, "bank", skip=False)
        kernel = engine._kernel
        if not kernel.supports_skip:
            # The MAC kernels carry no licence: their lanes never skip,
            # even when asked to.
            assert not _standalone_engine(spec, seed, "bank", skip=True)[0].skip
            return
        rounds = 300
        records = []
        horizons = []
        for _ in range(rounds):
            records.append(engine.step())
            horizons.append(kernel.next_active_round(0, records[-1].round_index))
        licensed = 0
        for r, h in enumerate(horizons):
            for quiet in range(r + 1, rounds if h is None else min(h, rounds)):
                assert records[quiet].expected_transmitters == 0.0, (r, h, quiet)
                assert records[quiet].transmitter_mask == 0
                licensed += 1
        if name in ("permuted-kernel", "rr-local-kernel", "rr-global-kernel"):
            # Slot gaps and pending epoch boundaries: the licence must
            # actually cover rounds here, or the check above is vacuous.
            assert licensed > 0


class TestNoCrossTrialLeakage:
    """A trial's execution is independent of its bank-mates."""

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_bank_composition_is_invisible(self, name):
        """Trial X must produce the same trace alone, in a small bank,
        and in a larger bank — even though bank-mates retire at
        different rounds (retired lanes stop drawing; live lanes must
        not absorb their draws)."""
        spec = SPECS[name]
        seeds = _seeds(6)
        target = seeds[2]
        alone = run_bank_trials(spec.build, [target])
        small = run_bank_trials(spec.build, seeds[1:4])
        full = run_bank_trials(spec.build, seeds)
        assert alone[0] == small[1] == full[2]
        serial = run_prepared_trial(spec.build(target), target)
        assert alone[0] == serial

    def test_reordering_seeds_reorders_nothing_else(self):
        """Permuting the seed bank permutes the results and nothing
        else — draw order within each trial is unaffected."""
        spec = SPECS["gkln-kernel"]
        seeds = _seeds(4)
        forward = run_bank_trials(spec.build, seeds)
        backward = run_bank_trials(spec.build, list(reversed(seeds)))
        assert forward == list(reversed(backward))


class TestLazyRngPath:
    """Per-node LazyRng streams under the bank scheduler."""

    def test_lazy_rng_seeds_on_first_draw_only(self):
        lazy = LazyRng(MASTER_SEED, ("node", 7))
        assert lazy._rng is None
        first = lazy.random()
        assert lazy._rng is not None
        import random as _random

        eager = _random.Random(derive_seed(MASTER_SEED, "node", 7))
        assert first == eager.random()

    def test_kernel_lanes_never_touch_node_streams(self):
        """The MAC kernels replace the per-node state machines, so the
        per-node LazyRngs must stay unseeded — seeding them would mean
        the kernel consumed streams the serial run leaves untouched."""
        spec = SPECS["gkln-kernel"]
        seeds = _seeds(3)
        _, lanes = _bank_lanes(spec, seeds)
        assert all(lane.engine._kernel is not None for lane, _ in lanes)
        run_bank_batch([lane for lane, _ in lanes], max_rounds=MAX_ROUNDS)
        for lane, _ in lanes:
            for process in lane.engine.processes:
                rng = process.ctx.rng
                assert isinstance(rng, LazyRng)
                assert rng._rng is None

    @pytest.mark.parametrize("name", ("lazy-node-rng", "geo-local"))
    def test_lazy_node_streams_match_serial(self, name):
        """Generic lanes do run the per-node plan and feedback stages;
        processes that draw from their LazyRng (uncoordinated decay's
        rung redraws, geo-local's election coins) must land on the
        same stream position as a serial run."""
        spec = SPECS[name]
        seeds = _seeds(4)
        _, lanes = _bank_lanes(spec, seeds)
        results = run_bank_batch(
            [lane for lane, _ in lanes], max_rounds=MAX_ROUNDS
        )
        for (lane, collector), seed, result in zip(lanes, seeds, results):
            serial_engine, serial_result, serial_collector = _serial_engine(
                spec, seed, "reference"
            )
            assert result == serial_result
            assert collector.records == serial_collector.records
            seeded_count = 0
            for bank_process, serial_process in zip(
                lane.engine.processes, serial_engine.processes
            ):
                bank_rng = bank_process.ctx.rng
                serial_rng = serial_process.ctx.rng
                assert isinstance(bank_rng, LazyRng)
                assert isinstance(serial_rng, LazyRng)
                seeded = bank_rng._rng is not None
                assert seeded == (serial_rng._rng is not None)
                if seeded:
                    seeded_count += 1
                    assert [bank_rng.random() for _ in range(4)] == [
                        serial_rng.random() for _ in range(4)
                    ]
            # The workload was chosen because it *does* draw from the
            # node streams — a zero count would make this test vacuous.
            assert seeded_count > 0
