"""Property-based skip-safety suite.

Round skipping (``skip=True``) rewrites the engines' run loops to
fast-forward through provably inert spans. The license for that
rewrite is *exact observational equivalence*: a skip-enabled run must
be indistinguishable from a skip-disabled run by any measurement the
stack exposes. This suite pins the strongest checkable form of that
claim, per engine, across a scenario corpus chosen to exercise every
skip decision point (long silent prefixes, interleaved silent gaps,
silent tails cut by ``max_rounds``, adversary epoch boundaries, and
scenarios with nothing to skip at all):

* **full-trace byte equality** — the byte serialization of the
  ``(ExecutionResult, [RoundRecord...])`` pair is identical, so record
  streams agree bit for bit (masks, deliveries, expected-transmitter
  floats included);
* **RNG stream position probes** — after the run, the coin
  generator's full bit-generator state dict is identical, and the
  *next* uniforms drawn from both generators agree, so every skipped
  round advanced the stream by exactly the draws it would have made;
* **skipping actually engages** — on the silence-heavy rows the
  skip-enabled run executes strictly fewer full rounds, so the suite
  cannot rot into vacuously comparing two non-skipping loops.

Boundary behaviour rides along: ``max_rounds`` landing mid-skip-span,
bank batches of zero/one seed, heterogeneous per-trial round caps
through the lockstep bank, and the k = 63/64/65 knowledge word
boundary (one uint64 word vs two). Fallback-warning dedup (one
``EngineFallbackWarning`` per scenario batch, naming the component and
the scenario) is pinned for both executors at the bottom.
"""

from __future__ import annotations

import os
import warnings

import numpy as np
import pytest

from repro.adversaries.static import NoFlakyLinks
from repro.algorithms.base import make_spec
from repro.analysis.runner import PreparedTrial, run_bank_trials, run_prepared_trial
from repro.analysis.sweep import run_sweep
from repro.api.executor import ParallelExecutor, SerialExecutor
from repro.api.spec import ScenarioSpec
from repro.core.engine import ENGINE_NAMES, create_engine
from repro.core.errors import EngineFallbackWarning
from repro.core.trace import TraceCollector
from repro.experiments.engine_bench import E1B_LARGE_STATIC_SCALE
from repro.graphs.builders import line_dual
from repro.obs.recorder import disable, enable
from repro.problems.global_broadcast import GlobalBroadcastProblem
from tests.conftest import ScriptedProcess

#: Scenario corpus: (id, spec kwargs, max_rounds, expect_skip) rows.
#: ``expect_skip`` marks the silence-heavy rows on which a skip-enabled
#: run must demonstrably elide rounds (engagement property); the other
#: rows exist to prove equivalence also holds when there is little or
#: nothing to skip.
CORPUS = [
    (
        "rr-local-geo",  # slot schedule: ~75% of rounds provably silent
        dict(
            graph=("geographic", {"n": 48}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("round-robin-local", {}),
            adversary=("none", {}),
        ),
        400,
        True,
    ),
    (
        "permuted-decay-funnel",  # long silent prefix before epoch one
        dict(
            graph=("funnel", {"n": 64}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("permuted-decay", {}),
            adversary=("none", {}),
        ),
        600,
        True,
    ),
    (
        "rr-global-alternating",  # adversary phase boundaries cut spans
        dict(
            # Mid-line source: slot owners below the source stay
            # uninformed for whole passes, so silent spans interleave
            # with the adversary's phase boundaries.
            graph=("line", {"n": 24}),
            problem=("global-broadcast", {"source": 12}),
            algorithm=("round-robin-global", {}),
            adversary=("alternating", {"phase_lengths": [3, 2]}),
        ),
        600,
        True,
    ),
    (
        "rr-local-cut-jammer",  # square-wave boundary arithmetic
        dict(
            graph=("ring", {"n": 32}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("round-robin-local", {}),
            adversary=("cut-jammer", {"period": 5, "dense_rounds": 2, "side": "first-half"}),
        ),
        400,
        True,
    ),
    (
        "plain-decay-dense",  # every round active: nothing to skip
        dict(
            graph=("clique", {"n": 16}),
            problem=("global-broadcast", {"source": 0}),
            algorithm=("plain-decay", {}),
            adversary=("bernoulli-edge", {"p_up": 0.7}),
        ),
        400,
        False,
    ),
    (
        "plain-decay-kernel-line",  # decay bank kernel: ladder always live
        dict(
            # Mid-line source under an alternating adversary: the bank
            # engine serves this from _PlainDecayBankKernel, whose
            # exact expected-count answers feed the skip probe (which
            # must never fire — informed nodes ride the ladder with
            # positive probability every round).
            graph=("line", {"n": 20, "extra_flaky_skips": 2}),
            problem=("global-broadcast", {"source": 10}),
            algorithm=("plain-decay", {}),
            adversary=("alternating", {"phase_lengths": [2, 3]}),
        ),
        400,
        False,
    ),
    (
        "static-local-decay-ring",  # static decay kernel, constant churn
        dict(
            graph=("ring", {"n": 24}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("static-local-decay", {}),
            adversary=("cut-jammer", {"period": 5, "dense_rounds": 2, "side": "first-half"}),
        ),
        300,
        False,
    ),
    (
        "uniform-stochastic",  # stochastic adversary, constant plans
        dict(
            graph=("star", {"n": 12, "flaky_rim": True}),
            problem=("local-broadcast", {"fraction": 0.25}),
            algorithm=("uniform-local", {}),
            adversary=("ge-fade", {"p_fail": 0.3, "p_recover": 0.4}),
        ),
        300,
        False,
    ),
]

SEEDS = (3, 2013)


def _spec(kwargs) -> ScenarioSpec:
    return ScenarioSpec(**kwargs)


def _run_probed(spec: ScenarioSpec, seed: int, engine: str, skip: bool, max_rounds: int):
    """One execution returning every observable the suite compares.

    Returns ``(trace_bytes, rng_state, next_draws, full_rounds)``:
    the byte serialization of (result, records), the coin generator's
    bit-generator state dict, the next 8 uniforms the stream would
    produce, and the number of rounds that executed in full (i.e. were
    not emitted by the skip fast-forward).
    """
    trial = spec.build(seed)
    processes = trial.algorithm.build_processes(
        trial.network.n, trial.network.max_degree, seed=seed
    )
    observer = trial.problem.make_observer()
    collector = TraceCollector()
    eng = create_engine(
        trial.network,
        processes,
        trial.link_process,
        engine=engine,
        seed=seed,
        algorithm_info=trial.algorithm.info(),
        validate_topologies=True,
        observers=[observer, collector],
        skip=skip,
    )
    emitted = 0
    original_emit = eng._emit_quiet_round

    def counting_emit(i):
        nonlocal emitted
        emitted += 1
        return original_emit(i)

    eng._emit_quiet_round = counting_emit
    result = eng.run(max_rounds=max_rounds, stop=lambda: observer.solved)
    trace_bytes = repr((result, collector.records)).encode()
    rng_state = eng._coin_rng.bit_generator.state
    next_draws = eng._coin_rng.random(8).tolist()
    return trace_bytes, rng_state, next_draws, len(collector.records) - emitted


def _corpus_id(row) -> str:
    return row[0]


class TestSkipTraceByteEquality:
    """skip=True vs skip=False: byte-identical traces, per engine."""

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("row", CORPUS, ids=_corpus_id)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_full_trace_and_rng_stream_identical(self, row, seed, engine):
        _, kwargs, max_rounds, expect_skip = row
        spec = _spec(kwargs)
        base_bytes, base_state, base_draws, base_full = _run_probed(
            spec, seed, engine, False, max_rounds
        )
        skip_bytes, skip_state, skip_draws, skip_full = _run_probed(
            spec, seed, engine, True, max_rounds
        )
        assert skip_bytes == base_bytes
        # Position probe: the skip run's coin stream sits at exactly
        # the offset the full run reached...
        assert skip_state == base_state
        # ...and keeps producing the same values from there.
        assert skip_draws == base_draws
        if expect_skip:
            assert skip_full < base_full, (
                "skip run executed every round in full — skipping never "
                "engaged on a silence-heavy scenario"
            )

    @pytest.mark.parametrize("row", CORPUS[:2], ids=_corpus_id)
    def test_spec_level_skip_equality(self, row):
        """The spec flag routes all the way through run_prepared_trial."""
        _, kwargs, max_rounds, _ = row
        spec = _spec(kwargs).with_param("max_rounds", max_rounds)
        results = {
            skip: run_prepared_trial(
                spec.with_param("skip", skip).build(SEEDS[0]), SEEDS[0]
            )
            for skip in (False, True)
        }
        assert results[True] == results[False]


class TestMaxRoundsMidSpan:
    """``max_rounds`` landing inside a skip span must cut it exactly."""

    #: rr-local on a geographic graph: after the last broadcaster's
    #: slot, the schedule is silent until the next pass — caps placed
    #: below force the cut mid-span.
    SPEC_KWARGS = CORPUS[0][1]

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    @pytest.mark.parametrize("cap", (7, 23, 48))
    def test_cap_mid_span_is_exact(self, engine, cap):
        spec = _spec(self.SPEC_KWARGS)
        base = _run_probed(spec, SEEDS[0], engine, False, cap)
        skip = _run_probed(spec, SEEDS[0], engine, True, cap)
        assert skip[0] == base[0]  # same records, same (censored) result
        assert skip[1] == base[1]  # RNG parked at the same position
        assert skip[2] == base[2]

    def test_caps_actually_land_mid_span(self):
        """At least one cap above cuts a span (the test's own license)."""
        spec = _spec(self.SPEC_KWARGS)
        _, _, _, full = _run_probed(spec, SEEDS[0], "bitset", True, 48)
        assert full < 48


class TestBankBoundaries:
    """Seed-bank edge shapes through the lockstep bank skip."""

    SPEC = dict(
        graph=("geographic", {"n": 32}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {}),
        adversary=("none", {}),
    )

    def _scenario(self):
        return _spec(self.SPEC).with_param("engine", "bank").build

    def test_empty_seed_bank(self):
        assert run_bank_trials(self._scenario(), []) == []

    def test_singleton_seed_bank(self):
        scenario = self._scenario()
        [banked] = run_bank_trials(scenario, [SEEDS[0]])
        solo = run_prepared_trial(scenario(SEEDS[0]), SEEDS[0])
        assert banked == solo

    def test_bank_batch_matches_solo_runs_with_skip(self):
        """Lockstep bank skipping: each lane identical to its solo run."""
        scenario = self._scenario()
        seeds = [11, 12, 13, 14]
        banked = run_bank_trials(scenario, seeds)
        solos = [run_prepared_trial(scenario(s), s) for s in seeds]
        assert banked == solos

    @pytest.mark.parametrize("k", (63, 64, 65))
    def test_knowledge_word_boundary(self, k):
        """The kernel's knowledge tensor is (trials, nodes, words)
        uint64: k = 63/64 fill a single word (top bits 62/63), k = 65
        spills into a second. The kernel must engage on all three —
        message counts above one word used to force the generic lane —
        and match the reference engine exactly."""
        spec = ScenarioSpec(
            graph=("clique", {"n": k}),
            problem=("multi-message", {}),
            algorithm=("gkln-multi-message", {}),
            adversary=("none", {}),
            mac=("simulated", {}),
            messages={"k": k, "sources": "spread"},
            max_rounds=4000,
        )
        trial = spec.build(SEEDS[0])
        processes = trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=SEEDS[0]
        )
        observer = trial.problem.make_observer()
        engine = create_engine(
            trial.network,
            processes,
            trial.link_process,
            engine="bank",
            seed=SEEDS[0],
            algorithm_info=trial.algorithm.info(),
            observers=[observer],
        )
        kernel = engine._kernel
        assert kernel is not None
        assert kernel.known.shape[2] == (k + 63) // 64
        result = engine.run(max_rounds=4000, stop=lambda: observer.solved)
        reference = run_prepared_trial(spec.build(SEEDS[0]), SEEDS[0])
        assert (result.solved, result.rounds) == (
            reference.solved,
            reference.rounds,
        )


class TestBankHeterogeneousRounds:
    """Banks whose trials carry different round caps stay batched."""

    SPEC = dict(
        graph=("geographic", {"n": 32}),
        problem=("local-broadcast", {"fraction": 0.25}),
        algorithm=("round-robin-local", {}),
        adversary=("none", {}),
    )
    #: seed → cap; 9 censors mid-span, 400 lets the trial solve.
    CAPS = {11: 9, 12: 400, 13: 37, 14: 123}

    def _scenario(self):
        spec = _spec(self.SPEC).with_param("engine", "bank")
        caps = self.CAPS

        def build(seed):
            trial = spec.build(seed)
            trial.max_rounds = caps[seed]
            return trial

        return build

    def test_heterogeneous_caps_match_solo_runs(self):
        scenario = self._scenario()
        seeds = sorted(self.CAPS)
        banked = run_bank_trials(scenario, seeds)
        solos = [run_prepared_trial(scenario(s), s) for s in seeds]
        assert banked == solos

    def test_heterogeneous_caps_stay_on_batch_path(self, monkeypatch):
        """Regression: trials disagreeing on ``max_rounds`` used to hit
        the silent per-trial fallback; now each lane carries its own
        cap and retires from the lockstep batch when it reaches it."""
        import repro.core.bankpath as bankpath

        calls = []
        original = bankpath.run_bank_batch

        def spy(lanes, *, max_rounds):
            calls.append((len(lanes), max_rounds))
            return original(lanes, max_rounds=max_rounds)

        monkeypatch.setattr(bankpath, "run_bank_batch", spy)
        scenario = self._scenario()
        seeds = sorted(self.CAPS)
        run_bank_trials(scenario, seeds)
        assert calls == [(len(seeds), max(self.CAPS.values()))]


class TestE1bLargeSkipCount:
    """E1b_large's skip win, pinned as a count of rounds, not a timing.

    The round-robin series (1/64 broadcasters) is ~63/64 provably silent
    rounds, so bank with skip on must skip at least 90% of them. The
    static-local-decay series has no silent span and skips none. With
    skip off nothing is skipped and the stats are identical.
    """

    SERIES = {series.label: series for series in E1B_LARGE_STATIC_SCALE.series}
    ROUND_ROBIN = "round-robin (1/64 broadcasters)"
    STATIC_DECAY = "static-local-decay [8]"

    def _run(self, label, n, skip):
        """``(stats record, rounds executed, rounds skipped)`` on bank.

        Seeds are derived exactly as ``E1b_large`` at ``tiny`` scale
        derives them, so this is the experiment's own cell.
        """
        scenario_for = self.SERIES[label].scenario_for

        def bank_spec(size):
            return scenario_for(size).with_param("engine", "bank").with_param("skip", skip)

        rec = enable()
        try:
            sweep = run_sweep(
                f"E1b_large:{label}", [n], bank_spec, trials=2, master_seed=2013
            )
        finally:
            disable()
        return (
            sweep.points[0].stats.to_record(),
            rec.counters.get("rounds.executed", 0),
            rec.counters.get("rounds.skipped", 0),
        )

    @pytest.mark.parametrize("n", [256, 512])
    def test_round_robin_skips_nine_tenths_of_its_rounds(self, n):
        _, executed, skipped = self._run(self.ROUND_ROBIN, n, True)
        assert skipped >= 0.9 * (executed + skipped), (executed, skipped)

    @pytest.mark.parametrize("n", [256, 512])
    def test_static_decay_has_no_silent_span(self, n):
        _, executed, skipped = self._run(self.STATIC_DECAY, n, True)
        assert executed > 0 and skipped == 0

    @pytest.mark.parametrize("n", [256, 512])
    @pytest.mark.parametrize("label", [ROUND_ROBIN, STATIC_DECAY])
    def test_skip_off_skips_nothing_and_matches(self, label, n):
        record_on, _, _ = self._run(label, n, True)
        record_off, executed, skipped = self._run(label, n, False)
        assert executed > 0 and skipped == 0
        assert record_off == record_on


class TestFallbackWarningDedup:
    """One EngineFallbackWarning per scenario batch, fully labelled."""

    #: Adaptive adversary + fast engine: the canonical fallback.
    SPEC = ScenarioSpec(
        graph=("dual-clique", {"half": 6}),
        problem=("global-broadcast", {"source": 0}),
        algorithm=("uniform-global", {"probability": 0.1}),
        adversary=("online-dense-sparse", {"side": "A"}),
        engine="bitset",
        name="dedup-probe",
        max_rounds=300,
    )

    def _collect(self, executor, seeds):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor.run_trials(self.SPEC.build, list(seeds))
        return [w for w in caught if issubclass(w.category, EngineFallbackWarning)]

    def test_serial_executor_warns_once_per_batch(self):
        fallback = self._collect(SerialExecutor(), range(5))
        assert len(fallback) == 1
        message = str(fallback[0].message)
        # Component name and scenario name both present.
        assert "OnlineDenseSparseAttacker" in message
        assert "dedup-probe" in message

    def test_parallel_executor_warns_once_per_batch(self):
        with ParallelExecutor(max_workers=2, chunksize=1) as pool:
            fallback = self._collect(pool, range(5))
        assert len(fallback) == 1
        message = str(fallback[0].message)
        assert "OnlineDenseSparseAttacker" in message
        assert "dedup-probe" in message

    def test_silenced_serial_executor_stays_silent(self):
        assert self._collect(SerialExecutor(warn_fallback=False), range(3)) == []


class TestSkipContractFallback:
    """A process class that keeps the base ``next_state_change`` turns a
    skip request off with one labelled warning, on both warning paths:
    the bank batch (``run_bank_trials``) and the per-trial engine
    (``create_engine``)."""

    @staticmethod
    def _scenario(engine, skip):
        def scenario(seed):
            network = line_dual(6)
            return PreparedTrial(
                network=network,
                algorithm=make_spec(
                    "scripted", lambda ctx: ScriptedProcess(ctx, {0: 1.0})
                ),
                link_process=NoFlakyLinks(),
                problem=GlobalBroadcastProblem(network, 0),
                max_rounds=20,
                engine=engine,
                skip=skip,
                label="contractless-probe",
            )

        return scenario

    @pytest.mark.parametrize(
        "engine, skip, caller",
        [
            ("bank", None, os.path.join("repro", "api", "executor.py")),
            ("reference", True, os.path.join("repro", "analysis", "runner.py")),
        ],
    )
    def test_one_labelled_warning_per_batch(self, engine, skip, caller):
        rec = enable()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                SerialExecutor().run_trials(self._scenario(engine, skip), range(3))
        finally:
            disable()
        fallback = [w for w in caught if issubclass(w.category, EngineFallbackWarning)]
        assert len(fallback) == 1
        message = str(fallback[0].message)
        assert "ScriptedProcess.next_state_change" in message
        assert "contractless-probe" in message
        # The warning points at the code that asked for the engine.
        assert fallback[0].filename.endswith(caller)
        assert rec.counters.get("engine.fallback.warned") == 1
