"""One coordinator: a fleet's every entry point reaches its real verifiers.

A :class:`~repro.keylime.fleet.Fleet` always holds exactly one
:class:`~repro.keylime.fleet.VerifierFleet`.  Unsharded it has one
member; sharding replaces it and discards the enrolment verifier.  A
verifier left behind would be the paper's P2 built into the fleet
layer: it goes quiet while ``status()``, the audit log, the state
gauges or the polling timers keep reporting on it.  These tests hold
the fleet-level entry points to the shards that actually attest.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.common.errors import StateError
from repro.common.rng import SeededRng
from repro.experiments.shardfleet import build_shard_fleet, build_shard_rig
from repro.keylime.fleet import VerifierFleet
from repro.keylime.verifier import KeylimeVerifier
from repro.obs import runtime as obs_runtime

INTERVAL = 1800.0


@pytest.fixture()
def telemetry():
    previous = obs_runtime.get()
    active = obs_runtime.activate(clock=None)
    yield active
    if previous.enabled:
        obs_runtime.activate(previous)
    else:
        obs_runtime.deactivate()


def _rogue_exec(fleet, name: str) -> None:
    machine = fleet.node(name).machine
    machine.install_file("/usr/bin/implant", b"x", executable=True)
    machine.exec_file("/usr/bin/implant")


class TestShardingReplacesTheCoordinator:
    def test_exactly_n_verifiers_hold_slots(self):
        fleet = build_shard_rig("coordinator", 6)
        agent_ids = {node.agent.agent_id for node in fleet.nodes}
        enrolment = weakref.ref(fleet.verifier)

        vfleet = VerifierFleet(fleet, 3, SeededRng("coordinator").fork("shards"))

        assert fleet.verifiers is vfleet
        gc.collect()
        assert enrolment() is None
        verifiers = [
            obj for obj in gc.get_objects()
            if isinstance(obj, KeylimeVerifier) and obj.registrar is fleet.registrar
        ]
        assert len(verifiers) == 3
        assert {id(v) for v in verifiers} == {
            id(host.verifier) for host in vfleet.shards.values()
        }
        slots = [agent_id for v in verifiers for agent_id in v._slots]
        assert sorted(slots) == sorted(agent_ids)
        with pytest.raises(StateError):
            fleet.verifier
        with pytest.raises(StateError):
            fleet.audit
        with pytest.raises(StateError):
            fleet.poll_scheduler

    def test_resharding_starts_from_the_current_shards(self):
        fleet, old = build_shard_fleet("coordinator", 4, 2)
        fleet.poll_all()
        new = VerifierFleet(fleet, 3, SeededRng("coordinator").fork("again"))
        assert fleet.verifiers is new
        results = new.poll_all()
        assert sorted(results) == sorted(old.agent_ids)
        assert all(result.ok for result in results.values())

    def test_unsharded_fleet_has_one_member_and_no_ring(self):
        fleet = build_shard_rig("coordinator", 2)
        coordinator = fleet.verifiers
        assert len(coordinator.shards) == 1
        assert coordinator.ring is None
        assert fleet.registrar.shard_ring is None
        (host,) = coordinator.shards.values()
        assert fleet.verifier is host.verifier
        assert fleet.audit is host.audit
        assert fleet.poll_scheduler is host.batch
        assert host.checkpoint is None
        fleet.poll_all()
        assert host.checkpoint is None  # nobody could adopt it


class TestShardedFleetReportsRealState:
    def test_status_audit_and_gauges_follow_the_shards(self, telemetry):
        fleet, vfleet = build_shard_fleet("coordinator", 6, 2)
        _rogue_exec(fleet, "node-000")
        fleet.scheduler.clock.advance_by(INTERVAL)
        fleet.poll_all()

        assert fleet.status() == vfleet.status()
        assert fleet.status()["node-000"] == "failed"
        assert fleet.healthy_count() == 5
        audited = sum(len(vfleet.shards[s].audit) for s in vfleet.shard_ids)
        assert audited == 6

        fleet.run_update_cycle(reboot_on_new_kernel=False)
        nodes = telemetry.registry.get("fleet_nodes")
        assert nodes.labels(state="failed").value == 1.0
        assert nodes.labels(state="attesting").value == 5.0

    def test_polled_event_reports_healthy_count_in_both_modes(self):
        unsharded = build_shard_rig("coordinator", 3)
        sharded, vfleet = build_shard_fleet("coordinator", 3, 2)
        for fleet in (unsharded, sharded):
            _rogue_exec(fleet, "node-001")
            fleet.scheduler.clock.advance_by(INTERVAL)
            fleet.poll_all()
            polled = [r for r in fleet.events if r.kind == "fleet.polled"]
            assert len(polled) == 1
            assert polled[-1].details["healthy"] == fleet.healthy_count() == 2


class TestStartPollingDrivesTheShards:
    @pytest.mark.parametrize("push_mode", [False, True], ids=["pull", "push"])
    def test_every_agent_gains_one_round_per_interval(self, push_mode):
        fleet, vfleet = build_shard_fleet(
            "coordinator", 6, 3, push_mode=push_mode
        )
        scheduler = fleet.scheduler
        start = scheduler.clock.now
        fleet.start_polling(INTERVAL)
        scheduler.run_until(start + INTERVAL)
        # Failover between two ticks replaces the victim's verifier
        # object; the timers must find the adopter, not the corpse.
        victim = vfleet.shard_of("agent-node-000")
        vfleet.kill(victim)
        scheduler.run_until(start + 4 * INTERVAL)
        fleet.stop_polling()

        assert vfleet.shards[victim].host != victim
        for agent_id in vfleet.agent_ids:
            history = vfleet.verifier_for(agent_id).results_of(agent_id)
            assert len(history) == 4
            assert all(result.ok for result in history)
        heartbeats = [r for r in fleet.events if r.kind == "fleet.heartbeat"]
        assert len(heartbeats) == 4
        assert heartbeats[-1].details["attesting"] == 6
