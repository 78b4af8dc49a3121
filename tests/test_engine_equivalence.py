"""Seed-for-seed equivalence of both engines × round skipping: a
full-trace four-way differential harness.

The bank engine (:mod:`repro.core.bankpath`) restructures the round
pipeline — trial-batched struct-of-arrays protocol kernels, batched
coins, matvec/bitset reception — and runs the reference engine's own
per-node plan and feedback stages for algorithms without a kernel.
Every restructuring is licensed by a documented contract, so the
observable execution must be *identical*: same
:class:`~repro.core.engine.ExecutionResult`, same
:class:`~repro.core.trace.RoundRecord` stream (transmitter masks,
delivery tuples, expected transmitter counts), for every seed, against
the reference engine. The deprecated ``"bitset"`` engine name is an
alias for bank and is held to the same traces.

The matrix below covers **every registered component at least once**:
all 14 graph families, all 11 algorithms (including both multi-message
MAC protocols), and all 13 oblivious adversaries exercise the bank
engine directly; the 2 adaptive adversaries exercise the automatic
fallback (and its warning) instead. The M-experiment cells (M1–M3) are
checked against the *actual registered experiment specs* on top of the
synthetic matrix.

Each engine additionally runs with event-driven round skipping forced
on and forced off — the four-way matrix. Skipping elides provably
silent rounds but must replay them into the trace and advance the coin
RNG exactly as if they had run, so all four variants compare against
one baseline: the reference engine with skipping off.
"""

from __future__ import annotations

import functools
import warnings

import pytest

from repro.api.spec import ScenarioSpec
from repro.core.bankpath import BankRadioNetworkEngine
from repro.core.engine import (
    ENGINE_NAMES,
    canonical_engine,
    create_engine,
    resolve_engine_choice,
)
from repro.core.errors import EngineError, EngineFallbackWarning
from repro.core.trace import TraceCollector
from repro.registry import ADVERSARIES, ALGORITHMS, GRAPHS

#: The full four-way grid: both engines with skipping forced on and
#: forced off. The (reference, skip=False) cell is the baseline the
#: other three compare against.
BASELINE = ("reference", False)
FOUR_WAY_MATRIX = [
    (engine, skip)
    for engine in ("reference", "bank")
    for skip in (False, True)
]
VARIANTS = [cell for cell in FOUR_WAY_MATRIX if cell != BASELINE]

#: (graph, problem, algorithm, adversary) — one spec per row; together
#: the rows cover the full registered component sets (asserted below).
EQUIVALENCE_MATRIX = [
    (
        ("line", {"n": 16, "extra_flaky_skips": 2}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        ("none", {}),
    ),
    (
        ("ring", {"n": 16}),
        ("local-broadcast", {"fraction": 0.25}),
        ("round-robin-local", {"random_slots": True}),
        ("alternating", {"phase_lengths": [2, 3]}),
    ),
    (
        ("grid", {"rows": 4, "cols": 4, "flaky_diagonals": True}),
        ("global-broadcast", {"source": 0}),
        ("uncoordinated-decay", {}),
        ("bernoulli-node-fade", {"p_clear": 0.7}),
    ),
    (
        ("binary-tree", {"depth": 3}),
        ("global-broadcast", {"source": 0}),
        ("round-robin-global", {"random_slots": True}),
        ("fixed-flaky", {"edges": []}),
    ),
    (
        ("star", {"n": 12, "flaky_rim": True}),
        ("local-broadcast", {"fraction": 0.25}),
        ("uniform-local", {}),
        ("all", {}),
    ),
    (
        ("clique", {"n": 16}),
        ("local-broadcast", {"fraction": 0.25}),
        ("static-local-decay", {}),
        ("none", {}),
    ),
    (
        ("funnel", {"n": 24}),
        ("global-broadcast", {"source": 0}),
        ("permuted-decay", {}),
        ("cut-jammer", {"period": 4, "dense_rounds": 2, "side": "first-half"}),
    ),
    (
        ("line-of-cliques", {"num_cliques": 3, "clique_size": 4}),
        ("global-broadcast", {"source": 0}),
        ("plain-decay", {}),
        ("predicted-dense-sparse", {"side": "first-half"}),
    ),
    (
        ("er", {"n": 16, "g_edge_probability": 0.3, "flaky_edge_probability": 0.2}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.1}),
        ("bernoulli-edge", {"p_up": 0.5}),
    ),
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        (
            "precomputed-dense-sparse",
            {"labels": [True, False, True, False], "side": "A"},
        ),
    ),
    (
        ("geographic", {"n": 32}),
        ("local-broadcast", {"fraction": 0.25}),
        ("geo-local", {}),
        ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    ),
    (
        ("grid-geographic", {"rows": 4, "cols": 4}),
        ("local-broadcast", {"fraction": 0.25}),
        ("static-local-decay", {}),
        ("moving-fade", {"fade_radius": 1.0, "speed": 0.3}),
    ),
    (
        ("cluster-chain", {"num_clusters": 3, "cluster_size": 5}),
        ("local-broadcast", {"fraction": 0.25}),
        ("uniform-local", {}),
        ("ge-edge", {"p_fail": 0.3, "p_recover": 0.4}),
    ),
    (
        ("bracelet", {"band_length": 3}),
        ("local-broadcast", {"side": "A"}),
        ("static-local-decay", {}),
        ("bracelet-attacker", {"threshold_factor": 1.0}),
    ),
    # Multi-message MAC protocols: the spec helper below attaches the
    # simulated MAC layer and a 3-message workload for these rows.
    (
        ("grid", {"rows": 4, "cols": 4, "flaky_diagonals": True}),
        ("multi-message", {}),
        ("gkln-multi-message", {}),
        ("ge-fade", {"p_fail": 0.3, "p_recover": 0.3}),
    ),
    (
        ("ring", {"n": 16}),
        ("multi-message", {}),
        ("backoff-multi-message", {"regime": "exponential"}),
        ("alternating", {"phase_lengths": [2, 3]}),
    ),
]

#: Adaptive adversaries: the fast path must *refuse* them (fallback).
FALLBACK_MATRIX = [
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        ("online-dense-sparse", {"side": "A"}),
    ),
    (
        ("dual-clique", {"half": 8}),
        ("global-broadcast", {"source": 0}),
        ("uniform-global", {"probability": 0.08}),
        ("offline-solo-blocker", {"side": "A"}),
    ),
]

SEEDS = (1, 2013)

#: Round cap for the comparison runs: enough for most rows to solve,
#: small enough to keep the matrix fast even when they do not.
MAX_ROUNDS = 1500


def _spec(row) -> ScenarioSpec:
    graph, problem, algorithm, adversary = row
    if problem[0] == "multi-message":
        return ScenarioSpec(
            graph=graph,
            problem=problem,
            algorithm=algorithm,
            adversary=adversary,
            mac=("simulated", {}),
            messages={"k": 3, "sources": "spread"},
        )
    return ScenarioSpec(
        graph=graph, problem=problem, algorithm=algorithm, adversary=adversary
    )


def _run_traced(spec: ScenarioSpec, seed: int, engine: str, skip=None):
    """One execution with full round records collected."""
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
    result = eng.run(max_rounds=MAX_ROUNDS, stop=lambda: observer.solved)
    return eng, result, collector.records


@functools.lru_cache(maxsize=None)
def _baseline(row_index: int, seed: int):
    """Cached (reference, skip=False) run for one matrix cell.

    The three variants all diff against the same baseline; caching it
    keeps the four-way grid from re-running the reference engine three
    times per (row, seed).
    """
    spec = _spec(EQUIVALENCE_MATRIX[row_index])
    _, result, records = _run_traced(spec, seed, *BASELINE)
    return result, records


def _row_id(row) -> str:
    graph, _, algorithm, adversary = row
    return f"{graph[0]}/{algorithm[0]}/{adversary[0]}"


class TestComponentCoverage:
    """The matrix really does cover every registered component."""

    def test_every_graph_covered(self):
        covered = {row[0][0] for row in EQUIVALENCE_MATRIX + FALLBACK_MATRIX}
        assert covered == set(GRAPHS.names())

    def test_every_algorithm_covered(self):
        covered = {row[2][0] for row in EQUIVALENCE_MATRIX + FALLBACK_MATRIX}
        assert covered == set(ALGORITHMS.names())

    def test_every_adversary_covered(self):
        covered = {row[3][0] for row in EQUIVALENCE_MATRIX + FALLBACK_MATRIX}
        assert covered == set(ADVERSARIES.names())


class TestFastEngineEquivalence:
    @pytest.mark.parametrize(
        "variant", VARIANTS, ids=lambda v: f"{v[0]}-{'skip' if v[1] else 'noskip'}"
    )
    @pytest.mark.parametrize(
        "row_index",
        range(len(EQUIVALENCE_MATRIX)),
        ids=lambda i: _row_id(EQUIVALENCE_MATRIX[i]),
    )
    @pytest.mark.parametrize("seed", SEEDS)
    def test_traces_identical(self, row_index, seed, variant):
        engine, skip = variant
        spec = _spec(EQUIVALENCE_MATRIX[row_index])
        ref_result, ref_records = _baseline(row_index, seed)
        fast_engine, fast_result, fast_records = _run_traced(
            spec, seed, engine, skip=skip
        )
        if engine == "bank":
            assert type(fast_engine) is BankRadioNetworkEngine
        expected_skip = skip
        kernel = getattr(fast_engine, "_kernel", None)
        if kernel is not None and not kernel.supports_skip:
            # Multi-message kernel lanes replace the plan stage
            # wholesale and force skipping off regardless of the
            # request; the single-message kernels answer the skip
            # probe themselves and honor it.
            expected_skip = False
        assert fast_engine.skip is expected_skip
        assert fast_result == ref_result
        assert len(fast_records) == len(ref_records)
        for ref_record, fast_record in zip(ref_records, fast_records):
            assert fast_record == ref_record

    @pytest.mark.parametrize(
        "row_index",
        range(len(EQUIVALENCE_MATRIX)),
        ids=lambda i: _row_id(EQUIVALENCE_MATRIX[i]),
    )
    def test_bitset_alias_builds_bank(self, row_index):
        """``engine="bitset"`` is a name only: it builds the bank engine
        and reproduces the reference trace exactly."""
        spec = _spec(EQUIVALENCE_MATRIX[row_index])
        ref_result, ref_records = _baseline(row_index, SEEDS[0])
        alias_engine, alias_result, alias_records = _run_traced(
            spec, SEEDS[0], "bitset"
        )
        assert type(alias_engine) is BankRadioNetworkEngine
        assert alias_result == ref_result
        assert alias_records == ref_records

    @pytest.mark.parametrize("row", EQUIVALENCE_MATRIX, ids=_row_id)
    def test_run_continues_after_single_steps(self, row):
        """run() after public step() calls resumes at the engine's round,
        on every row: kernel lanes and kernel-less (per-node stage)
        lanes alike."""
        spec = _spec(row)
        traces = {}
        for engine in ("reference", "bank"):
            trial = spec.build(SEEDS[0])
            processes = trial.algorithm.build_processes(
                trial.network.n, trial.network.max_degree, seed=SEEDS[0]
            )
            observer = trial.problem.make_observer()
            collector = TraceCollector()
            eng = create_engine(
                trial.network,
                processes,
                trial.link_process,
                engine=engine,
                seed=SEEDS[0],
                algorithm_info=trial.algorithm.info(),
                observers=[observer, collector],
            )
            for _ in range(5):
                eng.step()
            result = eng.run(max_rounds=MAX_ROUNDS, stop=lambda: observer.solved)
            traces[engine] = (result, collector.records)
        assert traces["bank"] == traces["reference"]

    @pytest.mark.parametrize("row", EQUIVALENCE_MATRIX[-2:], ids=_row_id)
    def test_bank_kernel_engages_on_mac_rows(self, row):
        """The MAC rows must exercise the vectorized kernels, not the
        generic (per-node stage) lane path — otherwise the matrix
        would silently stop covering the struct-of-arrays code."""
        engine, _, _ = _run_traced(_spec(row), SEEDS[0], "bank")
        assert engine._kernel is not None

    @pytest.mark.parametrize("engine", ("bitset", "bank"))
    @pytest.mark.parametrize("row", EQUIVALENCE_MATRIX[:2], ids=_row_id)
    def test_run_trial_results_identical(self, row, engine):
        """The spec-level entry point agrees too (engine rides the spec)."""
        from repro.api import Simulation

        spec = _spec(row)
        reference = Simulation.from_spec(spec).run_trial(SEEDS[0])
        fast = Simulation.from_spec(spec, engine=engine).run_trial(SEEDS[0])
        assert fast == reference


#: (experiment id, series label, smallest tiny-scale parameter) — the
#: registered M-experiment cells the harness replays. The
#: oracle-MAC and adaptive-adversary series are exercised elsewhere
#: (they bypass or refuse the fast engines by design).
M_EXPERIMENT_CELLS = [
    ("M1", "gkln-queued vs GE-fade", 4),
    ("M1", "backoff-concurrent vs GE-fade", 4),
    ("M2", "gkln-queued vs G-only", 32),
    ("M2", "gkln-queued vs GE-fade", 32),
    ("M3", "gkln on simulated MAC", 32),
]


class TestMExperimentCells:
    """Bank-vs-reference equivalence on the registered M1–M3 specs."""

    @pytest.mark.parametrize("engine", ("bitset", "bank"))
    @pytest.mark.parametrize(
        "cell", M_EXPERIMENT_CELLS, ids=lambda c: f"{c[0]}/{c[1]}/{c[2]}"
    )
    def test_experiment_cell_traces_identical(self, cell, engine):
        from repro.experiments import ALL_EXPERIMENTS

        exp_id, series_label, parameter = cell
        experiment = ALL_EXPERIMENTS[exp_id]
        series = next(s for s in experiment.series if s.label == series_label)
        spec = series.scenario_for(parameter)
        _, ref_result, ref_records = _run_traced(spec, SEEDS[1], "reference")
        _, fast_result, fast_records = _run_traced(spec, SEEDS[1], engine)
        assert fast_result == ref_result
        assert fast_records == ref_records


class TestAdaptiveFallback:
    @pytest.mark.parametrize("engine", ("bitset", "bank"))
    @pytest.mark.parametrize("row", FALLBACK_MATRIX, ids=_row_id)
    def test_fallback_warns_and_matches(self, row, engine):
        spec = _spec(row)
        _, ref_result, ref_records = _run_traced(spec, SEEDS[0], "reference")
        with pytest.warns(EngineFallbackWarning, match="reference engine"):
            fallback, fast_result, fast_records = _run_traced(spec, SEEDS[0], engine)
        # The fallback *is* the reference engine, so equality is exact.
        assert type(fallback) is not BankRadioNetworkEngine
        assert fast_result == ref_result
        assert fast_records == ref_records

    @pytest.mark.parametrize("row", FALLBACK_MATRIX[:1], ids=_row_id)
    def test_direct_construction_rejected(self, row):
        """Bypassing create_engine must fail loudly, not silently degrade."""
        spec = _spec(row)
        trial = spec.build(SEEDS[0])
        processes = trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=SEEDS[0]
        )
        with pytest.raises(EngineError, match="oblivious"):
            BankRadioNetworkEngine(
                trial.network, processes, trial.link_process, seed=SEEDS[0]
            )


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        spec = _spec(EQUIVALENCE_MATRIX[0])
        trial = spec.build(SEEDS[0])
        processes = trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=SEEDS[0]
        )
        with pytest.raises(EngineError, match="unknown engine"):
            create_engine(
                trial.network,
                processes,
                trial.link_process,
                engine="warp",
                seed=SEEDS[0],
            )

    def test_spec_validates_engine_name(self):
        from repro.core.errors import SpecError

        with pytest.raises(SpecError, match="unknown engine"):
            _spec(EQUIVALENCE_MATRIX[0]).with_param("engine", "warp")

    @pytest.mark.parametrize("name", ENGINE_NAMES)
    def test_resolution_names_the_implementation(self, name):
        """Every accepted name resolves to the code that runs it:
        ``"bitset"`` is an alias that selects bank, and the resolved
        name agrees with the engine create_engine builds."""
        expected = {"reference": "reference", "bitset": "bank", "bank": "bank"}
        assert canonical_engine(name) == expected[name]
        spec = _spec(EQUIVALENCE_MATRIX[0])
        trial = spec.build(SEEDS[0])
        processes = trial.algorithm.build_processes(
            trial.network.n, trial.network.max_degree, seed=SEEDS[0]
        )
        resolved, _, notes = resolve_engine_choice(
            name, processes, trial.link_process
        )
        assert (resolved, notes) == (expected[name], [])
        engine = create_engine(
            trial.network, processes, trial.link_process, engine=name, seed=SEEDS[0]
        )
        assert (type(engine) is BankRadioNetworkEngine) == (expected[name] == "bank")

    def test_engine_round_trips_through_json(self):
        spec = _spec(EQUIVALENCE_MATRIX[0]).with_param("engine", "bitset")
        assert ScenarioSpec.from_json(spec.to_json()).engine == "bitset"
        assert "reference" in ENGINE_NAMES and "bitset" in ENGINE_NAMES

    def test_oblivious_request_makes_no_warning(self):
        spec = _spec(EQUIVALENCE_MATRIX[0])
        with warnings.catch_warnings():
            warnings.simplefilter("error", EngineFallbackWarning)
            _run_traced(spec, SEEDS[0], "bitset")
