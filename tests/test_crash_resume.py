"""Crash-resume property: kill the verifier anywhere, lose nothing.

The tentpole guarantee of the durable state store, exercised at fleet
scale: snapshot a seeded 10-node push-mode run at *every* round
boundary, rebuild the rig from scratch, restore, run the remainder --
and the verdict history and hash-chained audit trail must be
bit-identical to the uninterrupted run.  The restart must also be
invisible to the anti-P2 machinery: no coverage-gap alert, no
re-enrollment, every agent resuming at its exact replay offset.

The multi-verifier handoff suite extends the same property to shard
adoption: a failover restore must carry the departed host's RNG stream
positions and open push sessions onto the adopter byte-exactly, so the
adopter is indistinguishable from a verifier that never died.
"""

import os
import sys

import pytest

from repro.cli import _build_state_fleet, _drive_state_rounds
from repro.common.errors import IntegrityError
from repro.keylime.statestore import restore_from_file, write_snapshot
from repro.obs.health import HealthWatch

sys.path.insert(0, os.path.dirname(__file__))

from resume_helpers import fleet_fingerprint as _fingerprint  # noqa: E402

N_NODES = 10
N_ROUNDS = 5
INTERVAL = 1800.0
FILLERS = 4
SEED = "crash-resume"


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """One uninterrupted run, snapshotted at every round boundary."""
    directory = tmp_path_factory.mktemp("snapshots")
    fleet = _build_state_fleet(SEED, N_NODES, FILLERS, push_mode=True)
    snapshots = {}
    for boundary in range(1, N_ROUNDS):
        _drive_state_rounds(fleet, 1, INTERVAL)
        snapshots[boundary] = directory / f"round-{boundary}.snap"
        write_snapshot(snapshots[boundary], fleet.verifier)
    _drive_state_rounds(fleet, 1, INTERVAL)
    return {"fingerprint": _fingerprint(fleet), "snapshots": snapshots}


def _resume(
    snapshot_path, rounds_remaining, push_mode=True, watch=None,
    n_nodes=N_NODES,
):
    fleet = _build_state_fleet(SEED, n_nodes, FILLERS, push_mode=push_mode)
    events_before = len(fleet.events)
    restore_from_file(fleet.verifier, snapshot_path)
    # A restore is bookkeeping, not attestation: it emits no events and
    # touches no registrar record (no re-enrollment).
    assert len(fleet.events) == events_before
    from repro.keylime.statestore import read_snapshot

    fleet.scheduler.clock.advance_to(
        float(read_snapshot(snapshot_path)["created_at"])
    )
    if watch is not None:
        fleet.watch_health(watch, INTERVAL)
    for _ in range(rounds_remaining):
        fleet.scheduler.clock.advance_by(INTERVAL)
        fleet.poll_scheduler.poll_batch()
        if watch is not None:
            watch.tick(fleet.scheduler.clock.now)
    if watch is not None:
        watch.finalize(fleet.scheduler.clock.now)
    return fleet


class TestEveryRoundBoundary:
    @pytest.mark.parametrize("boundary", range(1, N_ROUNDS))
    def test_resume_is_bit_identical(self, baseline, boundary):
        resumed = _resume(
            baseline["snapshots"][boundary], N_ROUNDS - boundary
        )
        fingerprint = _fingerprint(resumed)
        assert fingerprint["results"] == baseline["fingerprint"]["results"]
        assert fingerprint["offsets"] == baseline["fingerprint"]["offsets"]
        assert fingerprint["status"] == baseline["fingerprint"]["status"]
        assert fingerprint["audit"] == baseline["fingerprint"]["audit"]
        assert (
            fingerprint["audit_head"] == baseline["fingerprint"]["audit_head"]
        )
        resumed.verifier.audit.verify_chain()

    def test_restart_is_invisible_to_the_gap_detector(self, baseline):
        """Anti-P2: the kill/restore opens no coverage gap -- the watch
        attached to the resumed run stays silent."""
        watch = HealthWatch(tick_interval=INTERVAL)
        _resume(baseline["snapshots"][2], N_ROUNDS - 2, watch=watch)
        gap_alerts = [
            alert for alert in watch.engine.history
            if alert.rule == "health.coverage_gap"
        ]
        assert gap_alerts == []
        assert watch.incidents == []

    def test_corrupted_snapshot_fails_loudly_not_quietly(
        self, baseline, tmp_path
    ):
        source = baseline["snapshots"][1]
        raw = source.read_bytes()
        corrupt = tmp_path / "corrupt.snap"
        mutated = bytearray(raw)
        mutated[len(raw) // 2] ^= 0xFF
        corrupt.write_bytes(bytes(mutated))
        fleet = _build_state_fleet(SEED, N_NODES, FILLERS, push_mode=True)
        with pytest.raises(IntegrityError):
            restore_from_file(fleet.verifier, corrupt)
        # The rejected restore left the fresh verifier untouched.
        for node in fleet.nodes:
            assert fleet.verifier.results_of(node.agent.agent_id) == []

    def test_pull_mode_resumes_identically_too(self, tmp_path):
        """The state store is mode-blind: a pull fleet killed at round 2
        resumes bit-identical as well."""
        uninterrupted = _build_state_fleet(
            SEED, 3, FILLERS, push_mode=False
        )
        _drive_state_rounds(uninterrupted, N_ROUNDS, INTERVAL)
        expected = _fingerprint(uninterrupted)

        crashed = _build_state_fleet(SEED, 3, FILLERS, push_mode=False)
        _drive_state_rounds(crashed, 2, INTERVAL)
        snapshot = tmp_path / "pull.snap"
        write_snapshot(snapshot, crashed.verifier)
        resumed = _resume(snapshot, N_ROUNDS - 2, push_mode=False, n_nodes=3)
        assert _fingerprint(resumed) == expected


class TestMultiVerifierHandoff:
    """Failover must hand the adopter the dead host's *exact* state:
    RNG stream positions and open push sessions included."""

    SEED = "handoff"
    NODES = 6
    VERIFIERS = 2

    def _sharded(self, push_mode=False):
        from repro.experiments.shardfleet import build_shard_fleet

        return build_shard_fleet(
            self.SEED, self.NODES, self.VERIFIERS,
            fillers=2, push_mode=push_mode,
        )

    @staticmethod
    def _drive(fleet, vfleet, rounds):
        for _ in range(rounds):
            fleet.scheduler.clock.advance_by(INTERVAL)
            vfleet.poll_all()

    def test_failover_restores_rng_stream_positions(self):
        """The adopter's three RNG streams resume exactly where the
        dead host's left off -- nonces after the failover match a twin
        that never saw a failure, draw for draw."""
        from resume_helpers import assert_fingerprints_equal, vfleet_fingerprint

        twin_fleet, twin = self._sharded()
        self._drive(twin_fleet, twin, 4)

        fleet, vfleet = self._sharded()
        self._drive(fleet, vfleet, 2)
        victim = vfleet.shard_of("agent-node-000")
        vfleet.kill(victim)
        self._drive(fleet, vfleet, 2)

        assert vfleet.shards[victim].host != victim
        for shard_id in vfleet.shard_ids:
            survivor = vfleet.shards[shard_id].verifier
            reference = twin.shards[shard_id].verifier
            assert survivor.rng.getstate() == reference.rng.getstate()
            assert (
                survivor._retry_rng.getstate()
                == reference._retry_rng.getstate()
            )
            assert (
                survivor._session_rng.getstate()
                == reference._session_rng.getstate()
            )
        assert_fingerprints_equal(
            vfleet_fingerprint(vfleet), vfleet_fingerprint(twin)
        )

    def test_failover_preserves_open_push_sessions(self):
        """A session negotiated before the crash is still open on the
        adopter, nonce and all -- the submission lands there and
        verifies (contrast: *migration* discards open sessions)."""
        from repro.keylime.transport import (
            negotiation_reply_from_json,
            negotiation_to_json,
            submission_to_json,
        )

        fleet, vfleet = self._sharded(push_mode=True)
        self._drive(fleet, vfleet, 1)

        agent_id = "agent-node-000"
        victim = vfleet.shard_of(agent_id)
        host = vfleet.shards[victim]
        agent = host.verifier._slots[agent_id].agent
        reply = negotiation_reply_from_json(
            host.verifier.negotiate_push(
                negotiation_to_json(agent_id, agent.capabilities())
            )
        )
        assert host.verifier.open_push_session_of(agent_id) is not None

        vfleet.checkpoint()
        vfleet.kill(victim)
        adopted = vfleet.probe()
        assert victim in adopted

        adopter = vfleet.shards[victim].verifier
        assert adopter is not host.verifier
        session = adopter.open_push_session_of(agent_id)
        assert session is not None
        assert session.session_id == reply.session_id
        assert session.nonce == reply.nonce

        evidence = agent.attest(
            reply.nonce,
            offset=reply.offset,
            pcr_selection=list(reply.pcr_selection),
        )
        verdict_blob = adopter.submit_push(
            submission_to_json(reply.session_id, agent_id, evidence)
        )
        assert verdict_blob
        assert adopter.open_push_session_of(agent_id) is None

    def test_migration_discards_open_push_sessions(self):
        """The rebalancing contrast case: a session open at migration
        time is closed at the source and absent at the target, so the
        pre-move evidence verifies on *neither* verifier."""
        from repro.keylime.transport import (
            negotiation_reply_from_json,
            negotiation_to_json,
            submission_to_json,
        )

        fleet, vfleet = self._sharded(push_mode=True)
        self._drive(fleet, vfleet, 1)

        joiner = f"verifier-{self.VERIFIERS}"
        # Find an agent that WILL move when the joiner arrives, without
        # mutating the live ring: probe a scratch copy.
        from repro.keylime.sharding import ConsistentHashRing

        scratch = ConsistentHashRing(vfleet.ring.seed, vnodes=vfleet.ring.vnodes)
        for member in vfleet.ring.members:
            scratch.add(member)
        moving = scratch.plan_join(vfleet.agent_ids, joiner).moved_keys
        assert moving, "seed must move at least one agent on join"
        agent_id = moving[0]

        source = vfleet.shards[vfleet.shard_of(agent_id)]
        agent = source.verifier._slots[agent_id].agent
        reply = negotiation_reply_from_json(
            source.verifier.negotiate_push(
                negotiation_to_json(agent_id, agent.capabilities())
            )
        )
        evidence = agent.attest(
            reply.nonce,
            offset=reply.offset,
            pcr_selection=list(reply.pcr_selection),
        )

        vfleet.join(joiner)
        target = vfleet.shards[vfleet.shard_of(agent_id)]
        assert target.shard_id == joiner
        assert target.verifier.open_push_session_of(agent_id) is None
        blob = submission_to_json(reply.session_id, agent_id, evidence)
        with pytest.raises(IntegrityError):
            target.verifier.submit_push(blob)
        with pytest.raises(IntegrityError):
            source.verifier.submit_push(blob)
