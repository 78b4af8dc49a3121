"""WorkerPool: dispatch, kill detection, requeue, result identity.

The acceptance bar for the serve layer's resilience story: SIGKILL a
worker mid-task and the job must still complete — with results
byte-identical to an uninterrupted run. These tests drive the pool
directly (no HTTP) so the kill window is controllable.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.campaign.store import ResultStore
from repro.core.errors import ServeError
from repro.serve.jobs import JobManager
from repro.serve.pool import WorkerPool
from tests.pool_gate import GatedCount

pytestmark = pytest.mark.slow  # spawn workers take seconds to warm

#: A cheap grid cell for the fast-path identity check (~50 ms warm).
CELL = {"experiment": "E1b", "scale": "tiny", "engine": "reference",
        "master_seed": 2013}

#: A spec-run batch slow enough (~4 s) to reliably SIGKILL mid-compute.
SLOW_SPEC_DOC = {
    "graph": ["line-of-cliques", {"num_cliques": 6, "clique_size": 8}],
    "algorithm": ["permuted-decay", {}],
    "adversary": ["ge-fade", {"p_fail": 0.3, "p_recover": 0.3}],
    "problem": ["global-broadcast", {"source": 0}],
}
SLOW_SEED = 7
SLOW_TRIALS = 120


class Events:
    """Thread-safe event recorder for pool callbacks."""

    def __init__(self):
        self.lock = threading.Lock()
        self.items = []
        self.terminal = threading.Event()
        self.started = threading.Event()

    def __call__(self, event, info):
        with self.lock:
            self.items.append((event, info))
        if event == "started":
            self.started.set()
        if event in ("done", "error"):
            self.terminal.set()

    def names(self):
        with self.lock:
            return [name for name, _ in self.items]

    def info(self, name):
        with self.lock:
            return next(info for event, info in self.items if event == name)


def wait(flag, timeout=180):
    assert flag.wait(timeout), "timed out waiting for pool event"


@pytest.fixture(scope="module")
def pool():
    with WorkerPool(workers=2) as pool:
        yield pool


def direct_record():
    from repro.experiments import ALL_EXPERIMENTS

    return ALL_EXPERIMENTS[CELL["experiment"]].run(
        scale=CELL["scale"],
        master_seed=CELL["master_seed"],
        engine=CELL["engine"],
    ).to_record()


def slow_spec():
    from repro.api.spec import ScenarioSpec

    return ScenarioSpec.from_dict(SLOW_SPEC_DOC)


def slow_payload():
    spec = slow_spec()
    return {
        "spec": spec.canonical_dict(),
        "spec_hash": spec.spec_hash(),
        "master_seed": SLOW_SEED,
        "trials": SLOW_TRIALS,
    }


def slow_direct_record():
    from repro.analysis.runner import run_broadcast_trials

    return run_broadcast_trials(
        slow_spec(), trials=SLOW_TRIALS, master_seed=SLOW_SEED
    ).to_record()


class TestPoolBasics:
    def test_rejects_empty_pool(self):
        with pytest.raises(ServeError):
            WorkerPool(workers=0)

    def test_task_matches_direct_run(self, pool):
        events = Events()
        pool.submit("campaign-shard", dict(CELL), events)
        wait(events.terminal)
        assert events.names()[-1] == "done"
        record = events.info("done")["record"]
        assert json.dumps(record, sort_keys=True) == json.dumps(
            direct_record(), sort_keys=True
        )

    def test_unknown_kind_is_an_error_event(self, pool):
        events = Events()
        pool.submit("no-such-kind", {}, events)
        wait(events.terminal)
        assert events.names()[-1] == "error"
        assert "no-such-kind" in events.info("error")["message"]

    def test_describe_reports_pool_shape(self, pool):
        health = pool.describe()
        assert health["size"] == 2
        assert health["alive"] == 2


class TestKillAndRequeue:
    def test_sigkill_mid_task_requeues_and_completes(self, pool, tmp_path):
        # The task blocks reading its trial count until the gate file
        # exists, and the gate opens only after the kill: the first run
        # cannot finish before it is killed.
        gate = tmp_path / "gate"
        payload = slow_payload()
        payload["trials"] = GatedCount(SLOW_TRIALS, str(gate))
        events = Events()
        pool.submit("scenario", payload, events)
        wait(events.started)
        victims = pool.busy_pids()
        assert victims, "a worker should be busy right after 'started'"
        os.kill(victims[0], signal.SIGKILL)
        gate.touch()
        wait(events.terminal)
        names = events.names()
        assert names[-1] == "done"
        assert "requeued" in names, f"kill was not observed: {names}"
        # The re-run's record is byte-identical to an uninterrupted run.
        record = events.info("done")["record"]
        assert json.dumps(record, sort_keys=True) == json.dumps(
            slow_direct_record(), sort_keys=True
        )

    def test_dead_worker_is_replaced(self, pool):
        deadline = time.time() + 60
        while time.time() < deadline:
            health = pool.describe()
            if health["alive"] == 2 and health["busy"] == 0:
                break
            time.sleep(0.1)
        health = pool.describe()
        assert health["alive"] == 2


class GateFirstTask:
    """The pool as ``JobManager`` sees it, with the first task held.

    ``JobManager`` builds its task payloads itself, so the gate goes in
    on the way to the pool: the first ``submit`` carries a
    :class:`GatedCount` trial count, which the worker cannot read until
    the test opens ``gate``. Everything else is the wrapped pool's.
    """

    def __init__(self, pool, gate):
        self._pool = pool
        self._gate = gate
        self._gated = False

    def __getattr__(self, name):
        return getattr(self._pool, name)

    def submit(self, kind, payload, callback):
        if not self._gated:
            self._gated = True
            payload = dict(payload, trials=GatedCount(payload["trials"], self._gate))
        return self._pool.submit(kind, payload, callback)


class TestJobLevelKill:
    def test_killed_worker_job_matches_uninterrupted_run(self, tmp_path):
        """The acceptance scenario, end to end at the job layer:
        SIGKILL one pool worker mid-job; the job completes anyway and
        the store it checkpointed is byte-identical (aggregates_json)
        to a store fed by an uninterrupted direct run."""
        from repro.serve.jobs import scenario_record

        # The first run blocks reading its trial count until the gate
        # opens, and the gate opens only after the kill: it cannot
        # finish before it is killed.
        gate = tmp_path / "gate"
        served = ResultStore(tmp_path / "served")
        with WorkerPool(workers=2) as pool:
            manager = JobManager(served, GateFirstTask(pool, str(gate)))
            job = manager.submit(
                {"scenario": SLOW_SPEC_DOC, "seed": SLOW_SEED,
                 "trials": SLOW_TRIALS}
            )
            deadline = time.time() + 60
            while time.time() < deadline and not pool.busy_pids():
                time.sleep(0.02)
            victims = pool.busy_pids()
            assert victims
            os.kill(victims[0], signal.SIGKILL)
            gate.touch()
            deadline = time.time() + 300
            while time.time() < deadline and not job.terminal:
                time.sleep(0.05)
            assert job.state == "done"
            assert job.shard_summary()["requeues"] >= 1
            statuses = [e.get("status") for e in job.events]
            assert "requeued" in statuses

        # An uninterrupted run, checkpointed the same way, byte-matches.
        direct = ResultStore(tmp_path / "direct")
        direct.append(
            scenario_record(
                slow_spec(), SLOW_SEED, SLOW_TRIALS, slow_direct_record(),
                seconds=0.0,
            )
        )
        assert served.aggregates_json() == direct.aggregates_json()
