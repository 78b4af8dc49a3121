"""Tests for local broadcast algorithms: static decay, geographic two-stage,
round robin, and uniform baselines."""

from __future__ import annotations

import pytest

from repro.adversaries.static import AllFlakyLinks, NoFlakyLinks
from repro.algorithms.local_geographic import (
    GeoLocalBroadcastParams,
    GeoLocalBroadcastProcess,
    make_geographic_local_broadcast,
)
from repro.algorithms.local_static import (
    StaticLocalDecayProcess,
    make_static_local_broadcast,
)
from repro.algorithms.round_robin import (
    RoundRobinGlobalProcess,
    RoundRobinLocalProcess,
    make_round_robin_global_broadcast,
    make_round_robin_local_broadcast,
)
from repro.algorithms.uniform import (
    UniformGlobalProcess,
    UniformLocalProcess,
    make_uniform_global_broadcast,
    make_uniform_local_broadcast,
)
from repro.analysis.runner import run_broadcast_trial
from repro.core.messages import Message, MessageKind
from repro.graphs.builders import clique_dual, line_dual
from repro.graphs.dual_clique import dual_clique
from repro.graphs.geographic import random_geographic
from tests.conftest import make_context


class TestStaticLocalDecay:
    def test_broadcaster_follows_ladder(self):
        p = StaticLocalDecayProcess(
            make_context(1, 16, max_degree=7), broadcasters={1}, phase_length=3
        )
        assert p.plan(0).probability == 0.5
        assert p.plan(1).probability == 0.25
        assert p.plan(2).probability == 0.125
        assert p.plan(3).probability == 0.5

    def test_non_broadcaster_silent(self):
        p = StaticLocalDecayProcess(make_context(2, 16), broadcasters={1})
        assert all(p.plan(r).probability == 0.0 for r in range(8))

    def test_message_origin_is_self(self):
        p = StaticLocalDecayProcess(make_context(1, 16), broadcasters={1})
        assert p.plan(0).message.origin == 1

    def test_default_phase_from_delta(self):
        p = StaticLocalDecayProcess(
            make_context(1, 64, max_degree=15), broadcasters={1}
        )
        assert p.phase_length == 4  # log2_ceil(16)

    def test_solves_clique_all_broadcasters(self):
        net = clique_dual(16)
        spec = make_static_local_broadcast(net.n, set(range(net.n)), net.max_degree)
        result = run_broadcast_trial(
            network=net, algorithm=spec, link_process=NoFlakyLinks(), seed=1
        )
        assert result.solved

    def test_broadcaster_validation(self):
        with pytest.raises(ValueError):
            make_static_local_broadcast(8, {9}, 7)


class TestGeoLocalParams:
    def test_resolution_shapes(self):
        params = GeoLocalBroadcastParams.resolve(256, 31, gamma=4)
        assert params.log_n == 8
        assert params.num_phases == 5  # log2_ceil(32)
        assert params.schedule.num_probabilities == 5
        assert params.init_stage_rounds == params.num_phases * params.phase_rounds
        assert params.total_rounds == (
            params.init_stage_rounds + params.broadcast_stage_rounds
        )

    def test_leader_probability_ladder(self):
        params = GeoLocalBroadcastParams.resolve(64, 15)
        probs = [params.leader_probability(i) for i in range(params.num_phases)]
        assert probs[-1] == 0.5
        assert probs[0] == 2.0 ** (-params.num_phases)
        assert all(b == 2 * a for a, b in zip(probs, probs[1:]))

    def test_leader_probability_range_checked(self):
        params = GeoLocalBroadcastParams.resolve(64, 15)
        with pytest.raises(ValueError):
            params.leader_probability(params.num_phases)

    def test_locate_stages(self):
        params = GeoLocalBroadcastParams.resolve(64, 15, gamma=2)
        assert params.locate(0) == ("init", 0, 0)
        last_init = params.init_stage_rounds - 1
        stage, phase, offset = params.locate(last_init)
        assert stage == "init" and phase == params.num_phases - 1
        stage, iteration, offset = params.locate(params.init_stage_rounds)
        assert stage == "broadcast" and iteration == 0 and offset == 0

    def test_locate_cycles_broadcast_stage(self):
        params = GeoLocalBroadcastParams.resolve(64, 15, gamma=2)
        r = params.init_stage_rounds + params.broadcast_stage_rounds
        assert params.locate(r) == ("broadcast", 0, 0)

    def test_locate_is_computed_once_per_round(self):
        params = GeoLocalBroadcastParams.resolve(64, 15, gamma=2)
        fresh = GeoLocalBroadcastParams.resolve(64, 15, gamma=2)
        rounds = [0, 0, 5, 5, params.init_stage_rounds, 3, params.total_rounds + 7]
        for r in rounds:
            first = params.locate(r)
            assert params.locate(r) is first
            assert first == fresh.locate(r)
        assert params == fresh  # the memo is not part of the value

    def test_paper_constants(self):
        params = GeoLocalBroadcastParams.resolve(64, 15, paper_constants=True)
        assert params.schedule.gamma == 16

    def test_seed_budget_covers_iterations(self):
        params = GeoLocalBroadcastParams.resolve(128, 20)
        assert params.seed_total_bits == (
            params.seed_iteration_bits * params.num_iterations
        )


class TestGeoLocalProcess:
    def make_process(self, node_id=0, broadcaster=True, n=64, delta=15):
        params = GeoLocalBroadcastParams.resolve(n, delta, gamma=2)
        return (
            GeoLocalBroadcastProcess(
                make_context(node_id, n, max_degree=delta, seed=node_id),
                params=params,
                broadcasters={0} if broadcaster else set(),
            ),
            params,
        )

    def test_everyone_silent_in_election_round(self):
        p, params = self.make_process()
        assert p.plan(0).probability == 0.0

    def test_all_nodes_commit_by_stage_end(self):
        p, params = self.make_process()
        # Drive through the whole init stage with no receptions.
        for r in range(params.init_stage_rounds):
            p.plan(r)
            p.on_feedback(r, sent=False, received=None)
        assert p.seed is not None
        assert not p.active

    def test_seed_adoption_from_leader(self):
        p, params = self.make_process(node_id=3)
        leader_seed = GeoLocalBroadcastProcess(
            make_context(9, 64, max_degree=15, seed=9),
            params=params,
            broadcasters=set(),
        )
        leader_seed._generate_own_seed()
        seed_msg = Message(
            MessageKind.SEED, origin=9, shared_bits=leader_seed.seed, tag=0
        )
        p.plan(0)
        p.on_feedback(0, sent=False, received=None)
        p.plan(1)
        p.on_feedback(1, sent=False, received=seed_msg)
        # Finish the phase.
        for r in range(2, params.phase_rounds):
            p.plan(r)
            p.on_feedback(r, sent=False, received=None)
        assert p.seed is leader_seed.seed
        assert not p.active
        assert not p.seed_is_own

    def test_same_seed_nodes_agree_in_broadcast_stage(self):
        params = GeoLocalBroadcastParams.resolve(64, 15, gamma=2)
        shared_params = params
        a = GeoLocalBroadcastProcess(
            make_context(1, 64, max_degree=15, seed=1),
            params=shared_params,
            broadcasters={1, 2},
        )
        b = GeoLocalBroadcastProcess(
            make_context(2, 64, max_degree=15, seed=2),
            params=shared_params,
            broadcasters={1, 2},
        )
        a._generate_own_seed()
        b._commit(a.seed)
        a.active = False
        start = params.init_stage_rounds
        for r in range(start, start + 3 * params.schedule.rounds_per_call):
            assert a.plan(r).probability == b.plan(r).probability

    def test_non_broadcaster_silent_in_broadcast_stage(self):
        p, params = self.make_process(broadcaster=False)
        p._generate_own_seed()
        start = params.init_stage_rounds
        for r in range(start, start + params.schedule.rounds_per_call):
            assert p.plan(r).probability == 0.0

    def test_solves_geographic_network(self):
        net = random_geographic(48, seed=2)
        broadcasters = frozenset(range(0, net.n, 3))
        spec = make_geographic_local_broadcast(
            net.n, broadcasters, net.max_degree, gamma=2
        )
        result = run_broadcast_trial(
            network=net, algorithm=spec, link_process=AllFlakyLinks(), seed=7
        )
        assert result.solved

    def test_unshared_variant_self_seeds(self):
        net = random_geographic(32, seed=3)
        spec = make_geographic_local_broadcast(
            net.n, {0, 1}, net.max_degree, share_seeds=False
        )
        processes = spec.build_processes(net.n, net.max_degree, seed=1)
        assert all(p.seed is not None and p.seed_is_own for p in processes)

    def test_describe_state(self):
        p, _ = self.make_process()
        assert "GeoLocal" in p.describe_state()


class TestRoundRobin:
    def test_local_slot_schedule(self):
        p = RoundRobinLocalProcess(make_context(3, 8), broadcasters={3})
        assert p.plan(3).probability == 1.0
        assert p.plan(11).probability == 1.0
        assert p.plan(4).probability == 0.0

    def test_local_non_broadcaster_never_transmits(self):
        p = RoundRobinLocalProcess(make_context(3, 8), broadcasters={2})
        assert all(p.plan(r).probability == 0.0 for r in range(16))

    def test_local_solves_within_n_rounds_under_any_adversary(self):
        dc = dual_clique(8, bridge_a=1, bridge_b=9)
        spec = make_round_robin_local_broadcast(dc.n, set(dc.side_a()))
        from repro.adversaries.offline import OfflineSoloBlockerAttacker

        result = run_broadcast_trial(
            network=dc.graph,
            algorithm=spec,
            link_process=OfflineSoloBlockerAttacker(dc.side_a_mask),
            seed=5,
            max_rounds=dc.n,
        )
        assert result.solved
        assert result.rounds <= dc.n

    def test_global_informed_gating(self):
        p = RoundRobinGlobalProcess(make_context(2, 4), source=0)
        assert p.plan(2).probability == 0.0  # uninformed: silent in own slot
        p.on_feedback(
            0, sent=False, received=Message(MessageKind.DATA, origin=0, payload="m")
        )
        assert p.plan(6).probability == 1.0

    def test_global_solves_line(self):
        net = line_dual(6)
        spec = make_round_robin_global_broadcast(net.n, 0)
        result = run_broadcast_trial(
            network=net, algorithm=spec, link_process=NoFlakyLinks(), seed=1
        )
        assert result.solved
        assert result.rounds <= net.n * net.n

    def test_factory_validation(self):
        with pytest.raises(ValueError):
            make_round_robin_local_broadcast(4, {4})
        with pytest.raises(ValueError):
            make_round_robin_global_broadcast(4, -1)


class TestUniform:
    def test_local_constant_rate(self):
        p = UniformLocalProcess(
            make_context(1, 8, max_degree=3), broadcasters={1}, probability=0.25
        )
        assert all(p.plan(r).probability == 0.25 for r in range(5))

    def test_local_default_rate_from_delta(self):
        p = UniformLocalProcess(make_context(1, 8, max_degree=3), broadcasters={1})
        assert p.plan(0).probability == pytest.approx(0.25)

    def test_global_announcement_then_rate(self):
        p = UniformGlobalProcess(
            make_context(0, 8), source=0, probability=0.125
        )
        assert p.plan(0).probability == 1.0
        assert p.plan(1).probability == 0.125

    def test_global_uninformed_silent_until_reception(self):
        p = UniformGlobalProcess(make_context(3, 8), source=0, probability=0.2)
        assert p.plan(0).probability == 0.0
        p.on_feedback(
            0, sent=False, received=Message(MessageKind.DATA, origin=0, payload="m")
        )
        assert p.plan(1).probability == 0.2

    def test_probability_clamped(self):
        p = UniformGlobalProcess(make_context(0, 8), source=0, probability=3.0)
        assert p.probability == 1.0

    def test_solves_clique(self):
        net = clique_dual(8)
        spec = make_uniform_local_broadcast(
            net.n, set(range(net.n)), net.max_degree
        )
        result = run_broadcast_trial(
            network=net, algorithm=spec, link_process=NoFlakyLinks(), seed=2
        )
        assert result.solved

    def test_global_factory_metadata(self):
        spec = make_uniform_global_broadcast(16, 0, probability=0.1)
        assert spec.metadata["probability"] == 0.1
        assert spec.metadata["problem"] == "global-broadcast"
