"""Tests of the benchmark itself: reporting, output check, traced run.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

import json
import signal

import pytest

import run
from hostspeed import NOMINAL_PROBE_S, ScaledClock
from layers import LAYER_METRICS, LayerClock, entry_points, layer_metrics
from worker import engine_pass
from workloads import ENGINES, CampaignWorkload


def _passes(cells):
    return {engine: {cell: f"digest-{cell}" for cell in engine_cells}
            for engine, engine_cells in cells.items()}


def test_every_metric_is_printed_with_its_unit():
    declared = run.load_declared()
    rounds = [{engine: {"wall_s": 1.0 + i, "scaled_s": 0.9 + i, "peak_rss_mb": 40.0} for i, engine in enumerate(ENGINES)}]
    traced = {engine: {"wall_s": 1.1, "layers": layer_metrics(LayerClock(), {}, engine)}
              for engine in ENGINES}
    blocks = [
        (run.metric_block(run.end_to_end([0.4, 0.5, 0.6], rounds), declared["end_to_end"]),
         declared["end_to_end"]),
        (run.metric_block(run.per_layer(rounds[0], traced), declared["per_layer"]),
         declared["per_layer"]),
    ]
    for metrics, units in blocks:
        lines = run.report_lines(metrics, attempted=3, failed=0)
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert set(result["metrics"]) == set(units)
        for name, unit in units.items():
            assert result["metrics"][name]["unit"] == unit
            assert isinstance(result["metrics"][name]["value"], (int, float))
            assert any(line.split() == [name, "=", line.split()[2], unit] for line in lines[:-1])


def test_undeclared_or_missing_metric_is_refused():
    with pytest.raises(run.BenchError):
        run.metric_block({"setup_s": 1.0}, {"setup_s": "s", "bank_s": "s"})
    with pytest.raises(run.BenchError):
        run.metric_block({"setup_s": 1.0, "extra": 2.0}, {"setup_s": "s"})


@pytest.mark.parametrize("engine", ["bitset", "bank"])
def test_one_perturbed_record_is_one_failed_operation(engine):
    cells = {e: ["A1", "E5", "M3"] for e in ENGINES}
    passes = _passes(cells)
    assert run.check_round(cells, passes, {}) == (9, 0)
    passes[engine]["E5"] = "perturbed"
    assert run.check_round(cells, passes, {}) == (9, 1)


@pytest.mark.parametrize("engine", ENGINES)
def test_perturbed_record_without_reference_run_fails_against_digest(engine):
    # ring_large's shape: reference runs only some cells; the rest are
    # held to the recorded digests.
    cells = {"reference": ["decay@1"], "bitset": ["decay@1", "rr@1"], "bank": ["decay@1", "rr@1"]}
    passes = _passes(cells)
    recorded = {"decay@1": "digest-decay@1", "rr@1": "digest-rr@1"}
    assert run.check_round(cells, passes, recorded) == (5, 0)
    cell = "decay@1" if engine == "reference" else "rr@1"
    passes[engine][cell] = "perturbed"
    assert run.check_round(cells, passes, recorded) == (5, 1)


def test_missing_pass_fails_each_of_its_operations():
    cells = {e: ["A1", "E5"] for e in ENGINES}
    passes = _passes(cells)
    passes["bank"] = {}
    assert run.check_round(cells, passes, {}) == (6, 2)


def test_engine_order_rotates_with_seed_and_round():
    firsts = {run.engine_order(seed, 0)[0] for seed in range(3)}
    assert firsts == set(ENGINES)
    assert run.engine_order(0, 1) == run.engine_order(1, 0)


def _attributes():
    return [(owner, name, vars(owner).get(name)) for owner, name, *_ in entry_points()]


def test_no_wrapper_is_left_patched_after_the_traced_run():
    before = _attributes()
    with LayerClock():
        during = _attributes()
    assert all(a[2] is not b[2] for a, b in zip(before, during))
    assert all(a[2] is b[2] for a, b in zip(before, _attributes()))
    with pytest.raises(RuntimeError):
        with LayerClock():
            raise RuntimeError("a pass that fails")
    assert all(a[2] is b[2] for a, b in zip(before, _attributes()))


@pytest.mark.parametrize("engine", ENGINES)
def test_layer_self_times_sum_to_no_more_than_engine_wall(engine):
    # E5 has an adaptive adversary (a fast-engine fallback), M3 runs the
    # oracle MAC, A1 runs plain decay sweeps.
    workload = CampaignWorkload("selftest", ("A1", "E5", "M3"), "tiny")
    out = engine_pass(workload, engine, trace=True)
    layers = out["layers"]
    self_total = sum(layers[metric] for metric in LAYER_METRICS.values())
    assert 0 < self_total <= out["wall_s"]
    assert layers["campaign.shards"] == 3
    assert layers["mac.oracle_s"] > 0
    assert layers["core.loop_s"] > 0 and layers["core.rounds_executed"] > 0
    if engine != "reference":
        assert layers["core.engine_fallbacks"] > 0
    assert len(out["digests"]) == 3


def test_scaled_clock_rescales_each_stretch_by_its_probes():
    clock = ScaledClock()
    fast, slow = NOMINAL_PROBE_S, 2 * NOMINAL_PROBE_S
    # 1 s of work at full speed, then 2 s of the same work at half speed;
    # one probe in the first stretch is slowed, and the median drops it.
    clock.samples = [(0.0, fast), (1.0, 9 * fast), (1.1, fast), (2.1, fast),
                     (3.0, slow), (4.0, slow), (5.0, slow)]
    assert clock.wall_s == pytest.approx(5.0 - 12 * fast - 2 * slow, rel=1e-9)
    stretches = list(clock._stretches())
    assert [took for _, took in stretches][:3] == pytest.approx([fast] * 3)
    assert clock.scaled_s < clock.wall_s


def test_scaled_clock_times_work_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    # An interval shorter than a probe: the timer fires during probes.
    with ScaledClock(interval=0.002) as clock:
        sum(i * i for i in range(2_000_000))
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 3
    starts = [start for start, _ in clock.samples]
    assert starts == sorted(starts)
    assert 0 < clock.wall_s and 0 < clock.scaled_s
