"""End-to-end serve API tests: one live server, real HTTP clients.

The contract under test is the ISSUE's acceptance bar:

* submitting a spec runs it; resubmitting the identical spec+seed is a
  pure cache hit (zero shards executed) returning the same aggregate;
* results are byte-identical whether computed via the service, via
  ``repro campaign run``, or via a direct in-process trial run;
* the event stream replays and follows the campaign shard lifecycle;
* ``/v1/components`` equals ``repro components --json``;
* the CLI verbs (``submit``, ``jobs``, ``campaign status --json``)
  speak the same payloads.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.campaign.runner import CampaignRunner
from repro.campaign.spec import CampaignSpec
from repro.campaign.store import ResultStore
from repro.cli import components_payload, main
from repro.core.errors import ServeError
from repro.serve import ReproServer, SimulationClient

pytestmark = pytest.mark.slow  # spawn workers take seconds to warm

SPEC_DOC = {
    "graph": ["line-of-cliques", {"num_cliques": 3, "clique_size": 4}],
    "algorithm": ["permuted-decay", {}],
    "adversary": ["none", {}],
    "problem": ["global-broadcast", {"source": 0}],
}
SEED = 7
TRIALS = 5

CELL_DOC = {"experiment": "E1b", "scale": "tiny", "engine": "reference",
            "seed": 2013}


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = ResultStore(tmp_path_factory.mktemp("serve") / "store")
    with ReproServer(store, port=0, workers=2) as server:
        yield server


@pytest.fixture(scope="module")
def client(server):
    return SimulationClient(server.url)


def direct_scenario_record():
    from repro.analysis.runner import run_broadcast_trials
    from repro.api.spec import ScenarioSpec

    spec = ScenarioSpec.from_dict(SPEC_DOC)
    return run_broadcast_trials(spec, trials=TRIALS, master_seed=SEED).to_record()


class TestCampaignSubmission:
    def test_first_run_executes_then_resubmit_is_pure_cache_hit(self, client):
        first = client.run(CELL_DOC)
        assert first["state"] == "done"
        assert first["shards"] == {
            "total": 1, "executed": 1, "cached": 0, "completed": 1,
            "pending": 0, "running": 0, "failed": 0, "requeues": 0,
            "finished": True,
        }
        second = client.run(CELL_DOC)
        assert second["state"] == "done"
        assert second["shards"]["executed"] == 0
        assert second["shards"]["cached"] == 1
        assert second["aggregates"] == first["aggregates"]
        # The cache hit is visible in the event log as "resumed".
        statuses = [e.get("status") for e in client.events(second["id"])]
        assert "resumed" in statuses and "start" not in statuses

    def test_service_matches_campaign_runner_byte_for_byte(self, server, client, tmp_path):
        client.run(CELL_DOC)  # cached from the previous test or runs now
        direct_store = ResultStore(tmp_path / "direct")
        CampaignRunner(
            CampaignSpec(
                name=f"api-{CELL_DOC['experiment']}",
                experiments=(CELL_DOC["experiment"],),
                scales=(CELL_DOC["scale"],),
                engines=(CELL_DOC["engine"],),
                seeds=(CELL_DOC["seed"],),
            ),
            direct_store,
        ).run()
        served = server.store.aggregates_json(f"api-{CELL_DOC['experiment']}")
        assert served == direct_store.aggregates_json()


class TestScenarioSubmission:
    def test_result_matches_direct_trial_run(self, client):
        payload = client.run({"scenario": SPEC_DOC, "seed": SEED, "trials": TRIALS})
        assert payload["state"] == "done"
        assert json.dumps(payload["result"], sort_keys=True) == json.dumps(
            direct_scenario_record(), sort_keys=True
        )

    def test_resubmit_is_cached(self, client):
        payload = client.run({"scenario": SPEC_DOC, "seed": SEED, "trials": TRIALS})
        assert payload["shards"]["executed"] == 0
        assert payload["shards"]["cached"] == 1

    def test_different_trials_is_a_different_key(self, client):
        payload = client.run({"scenario": SPEC_DOC, "seed": SEED,
                              "trials": TRIALS + 1})
        assert payload["shards"]["cached"] == 0
        assert payload["result"]["trials"] == TRIALS + 1

    def test_bare_spec_defaults(self, client):
        payload = client.run(SPEC_DOC)
        assert payload["state"] == "done"
        assert payload["master_seed"] == 2013
        assert payload["trials"] == 1


class TestEventsAndIntrospection:
    def test_event_stream_replays_with_offset(self, client):
        job_id = client.run(CELL_DOC)["id"]
        events = list(client.events(job_id))
        assert events, "a finished job must replay its history"
        assert [e["seq"] for e in events] == list(range(len(events)))
        tail = list(client.events(job_id, from_seq=len(events) - 1))
        assert tail == events[-1:]

    def test_components_matches_cli_payload(self, client):
        assert client.components() == json.loads(
            json.dumps(components_payload())
        )

    def test_results_endpoint_queries_the_store(self, server, client):
        out = client.results()
        assert out["aggregates"], "completed jobs should have store rows"
        from repro.api.spec import ScenarioSpec

        spec_hash = ScenarioSpec.from_dict(SPEC_DOC).spec_hash()
        found = client.results(spec_hash, SEED)
        assert found["records"]
        assert all(r["spec_hash"] == spec_hash for r in found["records"])

    def test_health_reports_pool(self, client):
        health = client.health()
        assert health["pool"]["size"] == 2
        assert health["jobs"]["total"] >= 1

    def test_jobs_listing(self, client):
        jobs = client.jobs()
        assert jobs
        assert {"id", "state", "kind", "shards"} <= set(jobs[0])


class TestErrorPaths:
    def test_unknown_endpoint_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client._request("GET", "/v1/nope")

    def test_unknown_job_404(self, client):
        with pytest.raises(ServeError, match="404"):
            client.job("job-999999")

    def test_unclassifiable_submission_400(self, client):
        with pytest.raises(ServeError, match="cannot classify"):
            client.submit({"something": "else"})

    def test_bad_component_ref_400(self, client):
        bad = {**SPEC_DOC, "graph": ["no-such-family", {}]}
        with pytest.raises(ServeError, match="400"):
            client.submit(bad)

    def test_malformed_json_body_400(self, server):
        request = urllib.request.Request(
            f"{server.url}/v1/runs", data=b"not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 400


class TestMetrics:
    def _scrape(self, server):
        with urllib.request.urlopen(f"{server.url}/v1/metrics") as response:
            return response.headers.get("Content-Type"), response.read().decode(
                "utf-8"
            )

    def test_metrics_endpoint_is_prometheus_text(self, server, client):
        from repro.obs import parse_prometheus

        client.run(CELL_DOC)  # ensure at least one job has completed
        content_type, text = self._scrape(server)
        assert content_type == "text/plain; version=0.0.4; charset=utf-8"
        samples = parse_prometheus(text)  # raises on malformed lines
        # Pool worker lifecycle + warm/alive gauges.
        assert samples["repro_pool_workers_spawned_total"] >= 2
        assert samples["repro_pool_workers_alive"] == 2
        assert samples["repro_pool_tasks_done_total"] >= 1
        assert samples["repro_pool_tasks_requeued_total"] == 0
        # Job lifecycle counters and duration histograms.
        assert samples["repro_jobs_submitted_total"] >= 1
        assert samples["repro_jobs_done_total"] >= 1
        assert samples["repro_jobs_failed_total"] == 0
        assert (
            samples['repro_job_seconds_bucket{le="+Inf"}']
            == samples["repro_job_seconds_count"]
            >= 1
        )
        assert samples["repro_pool_task_seconds_count"] >= 1

    def test_dedup_hits_are_counted(self, server, client):
        client.run(CELL_DOC)
        before = server.metrics.counter_value("repro_jobs_dedup_store_total")
        client.run(CELL_DOC)  # identical resubmit → store-level dedup
        after = server.metrics.counter_value("repro_jobs_dedup_store_total")
        assert after == before + 1

    def test_done_events_carry_phase_timings(self, client):
        job_id = client.run(
            {"scenario": SPEC_DOC, "seed": SEED + 100, "trials": 2}
        )["id"]
        done = [e for e in client.events(job_id) if e.get("status") == "done"]
        assert done, "an executed job must log a done event"
        phases = done[0].get("phases")
        assert phases, "done events carry the worker's per-phase breakdown"
        from repro.obs import PHASES

        assert set(phases) <= set(PHASES)
        assert sum(phases.values()) > 0


class TestCliVerbs:
    def test_submit_json_reports_cache_hit(self, server, client, tmp_path, capsys):
        client.run(CELL_DOC)  # warm the cache
        doc = tmp_path / "cell.json"
        doc.write_text(json.dumps(CELL_DOC))
        status = main(["submit", str(doc), "--url", server.url, "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["state"] == "done"
        assert payload["shards"]["executed"] == 0
        assert payload["shards"]["cached"] == 1

    def test_jobs_lists_the_submissions(self, server, capsys):
        status = main(["jobs", "--url", server.url, "--json"])
        assert status == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["jobs"]
        assert all("spec_hash" in job for job in payload["jobs"])

    def test_campaign_status_json(self, tmp_path, capsys):
        status = main([
            "campaign", "status", "--json", "E1b",
            "--scale", "tiny", "--store", str(tmp_path / "store"),
        ])
        assert status == 1  # nothing measured yet → pending
        payload = json.loads(capsys.readouterr().out)
        assert payload["total"] == 1 and payload["pending"] == 1
        (shard,) = payload["shards"]
        assert shard["state"] == "pending"
        assert len(shard["spec_hash"]) == 64
        assert shard["shard_id"] == "E1b@tiny/reference/seed2013"
