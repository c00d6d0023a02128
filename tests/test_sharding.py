"""Property tests for the consistent-hash ring and fleet rebalancing.

The ring's contract is what makes multi-verifier attestation safe to
reason about:

* **Determinism** -- placement is a pure function of ``(seed, members,
  key)``; same inputs, same ring fingerprint, zero RNG draws.
* **Totality** -- every key has exactly one live owner, always.
* **Minimal movement** -- a join moves only keys the new member
  attracts (every move targets the joiner); a leave moves only the
  leaver's range.  Movement stays within twice the fair share plus a
  small vnode-variance slack.
* **No coverage gap** -- a :class:`~repro.keylime.fleet.VerifierFleet`
  polls every agent exactly once per tick, before, during and after
  rebalancing, and the shared verdict cache keeps migrated agents warm
  (a rebalance adds zero cache misses).

Hypothesis drives the ring properties across seeds, membership sizes
and key sets; the fleet-level checks run on the small deterministic
rig from :mod:`repro.experiments.shardfleet`.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import StateError
from repro.keylime.sharding import (
    ConsistentHashRing,
    shard_balance,
)
from repro.obs.capacity import CapacityModel

seeds = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=12
)
member_counts = st.integers(min_value=1, max_value=8)
key_counts = st.integers(min_value=0, max_value=40)


def _ring(seed: str, n_members: int) -> ConsistentHashRing:
    ring = ConsistentHashRing(seed)
    for index in range(n_members):
        ring.add(f"verifier-{index}")
    return ring


def _keys(count: int) -> list[str]:
    return [f"agent-node-{index:03d}" for index in range(count)]


class TestRingDeterminism:
    @given(seeds, member_counts, key_counts)
    def test_same_inputs_same_assignment_and_fingerprint(
        self, seed, n_members, n_keys
    ):
        keys = _keys(n_keys)
        first, second = _ring(seed, n_members), _ring(seed, n_members)
        assert first.assignment(keys) == second.assignment(keys)
        assert first.fingerprint(keys) == second.fingerprint(keys)

    @given(seeds, member_counts, key_counts)
    def test_membership_order_is_irrelevant(self, seed, n_members, n_keys):
        keys = _keys(n_keys)
        forward = _ring(seed, n_members)
        reversed_ring = ConsistentHashRing(seed)
        for index in reversed(range(n_members)):
            reversed_ring.add(f"verifier-{index}")
        assert forward.assignment(keys) == reversed_ring.assignment(keys)

    @given(seeds, key_counts)
    def test_different_seeds_differ(self, seed, n_keys):
        """Two seeds agreeing everywhere would mean the seed is dead
        weight; at 30+ keys a full collision is astronomically
        unlikely, so demand at least one difference."""
        keys = _keys(max(n_keys, 30))
        a = _ring(seed, 4).assignment(keys)
        b = _ring(seed + "-other", 4).assignment(keys)
        assert a != b or seed == seed + "-other"


class TestRingTotality:
    @given(seeds, member_counts, key_counts)
    def test_every_key_has_exactly_one_live_owner(
        self, seed, n_members, n_keys
    ):
        ring = _ring(seed, n_members)
        keys = _keys(n_keys)
        assignment = ring.assignment(keys)
        assert set(assignment) == set(keys)
        assert all(owner in ring.members for owner in assignment.values())
        assert sum(ring.shard_sizes(keys).values()) == len(keys)

    @given(seeds, key_counts)
    def test_owner_respects_among_restriction(self, seed, n_keys):
        ring = _ring(seed, 4)
        live = {"verifier-1", "verifier-3"}
        for key in _keys(max(n_keys, 1)):
            assert ring.owner(key, among=live) in live

    def test_empty_ring_refuses(self):
        ring = ConsistentHashRing("empty")
        with pytest.raises(StateError):
            ring.owner("agent-node-000")

    def test_membership_errors(self):
        ring = _ring("members", 2)
        with pytest.raises(StateError):
            ring.add("verifier-0")
        with pytest.raises(StateError):
            ring.remove("verifier-9")
        with pytest.raises(StateError):
            ring.owner("agent-node-000", among={"verifier-9"})


class TestMinimalMovement:
    @given(seeds, member_counts, key_counts)
    def test_join_moves_only_keys_landing_on_the_joiner(
        self, seed, n_members, n_keys
    ):
        keys = _keys(n_keys)
        ring = _ring(seed, n_members)
        before = ring.assignment(keys)
        plan = ring.plan_join(keys, "joiner")
        after = ring.assignment(keys)
        for move in plan.moves:
            assert move.target == "joiner"
            assert move.source == before[move.key]
        untouched = set(keys) - set(plan.moved_keys)
        for key in untouched:
            assert after[key] == before[key]
        # Twice the fair share plus vnode-variance slack (empirically
        # the worst over 40k seed/size combinations is under +5).
        assert len(plan.moves) <= 2.0 * len(keys) / (n_members + 1) + 6

    @given(seeds, st.integers(min_value=2, max_value=8), key_counts)
    def test_leave_moves_only_the_leavers_range(
        self, seed, n_members, n_keys
    ):
        keys = _keys(n_keys)
        ring = _ring(seed, n_members)
        before = ring.assignment(keys)
        leaver = "verifier-0"
        plan = ring.plan_leave(keys, leaver)
        after = ring.assignment(keys)
        assert set(plan.moved_keys) == {
            key for key, owner in before.items() if owner == leaver
        }
        for move in plan.moves:
            assert move.source == leaver
            assert move.target != leaver
        for key in set(keys) - set(plan.moved_keys):
            assert after[key] == before[key]

    @given(seeds, member_counts, key_counts)
    def test_join_then_leave_round_trips(self, seed, n_members, n_keys):
        keys = _keys(n_keys)
        ring = _ring(seed, n_members)
        fingerprint = ring.fingerprint(keys)
        ring.plan_join(keys, "joiner")
        ring.plan_leave(keys, "joiner")
        assert ring.fingerprint(keys) == fingerprint


class TestShardBalance:
    def test_even_split_is_one(self):
        assert shard_balance({"a": 5, "b": 5}) == 1.0

    def test_skew_drops_below_one(self):
        assert shard_balance({"a": 9, "b": 3}) == pytest.approx(6.0 / 9.0)

    def test_degenerate_inputs(self):
        assert shard_balance({}) == 0.0
        assert shard_balance({"a": 0, "b": 0}) == 0.0

    @given(st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(min_value=0, max_value=100),
        min_size=1,
    ))
    def test_bounded_in_unit_interval(self, sizes):
        value = shard_balance(sizes)
        assert 0.0 <= value <= 1.0


class TestCapacityIntegration:
    MODEL = CapacityModel(
        fixed_seconds=0.5, per_node_seconds=0.1, samples=10, r_squared=0.99
    )

    def test_sharded_tick_cost_is_the_largest_shard(self):
        cost = self.MODEL.sharded_tick_cost({"a": 10, "b": 4})
        assert cost == pytest.approx(self.MODEL.tick_cost(10))

    def test_sharded_max_nodes_scales_by_balance(self):
        base = self.MODEL.max_nodes(60.0)
        assert self.MODEL.sharded_max_nodes(60.0, 4) == pytest.approx(4 * base)
        assert self.MODEL.sharded_max_nodes(60.0, 4, balance=0.5) == (
            pytest.approx(2 * base)
        )
        assert self.MODEL.sharded_max_nodes(60.0, 0) == 0.0

    def test_sharded_speedup_caps_balance_at_one(self):
        assert self.MODEL.sharded_speedup(4, balance=2.0) == 4.0
        assert self.MODEL.sharded_speedup(3, balance=0.5) == 1.5


@pytest.fixture(scope="module")
def rig():
    from repro.experiments.shardfleet import build_shard_fleet

    return build_shard_fleet("sharding-props", 9, 3, fillers=2)


INTERVAL = 1800.0


def _tick(fleet, vfleet):
    fleet.scheduler.clock.advance_by(INTERVAL)
    return vfleet.poll_all()


class TestFleetNeverUnassigned:
    """Every tick polls every agent exactly once -- through joins,
    leaves and the shared-cache regression check.  Ordered steps on one
    module rig (each builds on the previous state)."""

    def test_initial_tick_covers_the_fleet(self, rig):
        fleet, vfleet = rig
        results = _tick(fleet, vfleet)
        assert sorted(results) == sorted(vfleet.agent_ids)
        assert all(result.ok for result in results.values())

    def test_join_keeps_every_agent_assigned(self, rig):
        fleet, vfleet = rig
        plan = vfleet.join("verifier-3")
        # The ring's authority and the shards' bookkeeping agree.
        for agent_id in vfleet.agent_ids:
            shard = vfleet.shard_of(agent_id)
            assert agent_id in vfleet.shards[shard].batch.agents
        assert all(move.target == "verifier-3" for move in plan.moves)
        results = _tick(fleet, vfleet)
        assert sorted(results) == sorted(vfleet.agent_ids)

    def test_rebalance_adds_zero_verdict_cache_misses(self, rig):
        """The fleet-wide cache is generation-stamped, not per-shard:
        an agent migrated to a different verifier re-evaluates nothing
        the fleet already proved -- the regression that motivated
        sharing one cache across shards.  Forcing a full log re-replay
        on a migrated agent (restart_attestation resets its offset)
        must be all hits, zero new misses."""
        fleet, vfleet = rig
        _tick(fleet, vfleet)  # every entry warm in the shared cache
        cache = fleet.verdict_cache
        misses_before = cache.misses
        # Pick a joiner that actually attracts keys (a 9-key ring may
        # hand a given new member nothing): probe scratch copies.
        for index in range(4, 32):
            scratch = ConsistentHashRing(vfleet.ring.seed)
            for member in vfleet.ring.members:
                scratch.add(member)
            joiner = f"verifier-{index}"
            if scratch.plan_join(vfleet.agent_ids, joiner).moved_keys:
                break
        plan = vfleet.join(joiner)
        assert plan.moved_keys, "join must migrate at least one agent"
        results = _tick(fleet, vfleet)
        assert sorted(results) == sorted(vfleet.agent_ids)
        # Migration carried the replay offset: nothing re-evaluated.
        assert cache.misses == misses_before

        migrated = plan.moved_keys[0]
        verifier = vfleet.verifier_for(migrated)
        verifier.restart_attestation(migrated)
        hits_before = cache.hits
        results = _tick(fleet, vfleet)
        assert results[migrated].ok
        assert results[migrated].entries_processed > 0
        assert cache.misses == misses_before
        assert cache.hits > hits_before

    def test_leave_keeps_every_agent_assigned(self, rig):
        fleet, vfleet = rig
        plan = vfleet.leave("verifier-0")
        assert all(move.source == "verifier-0" for move in plan.moves)
        assert "verifier-0" not in vfleet.shards
        results = _tick(fleet, vfleet)
        assert sorted(results) == sorted(vfleet.agent_ids)
        assert all(result.ok for result in results.values())

    def test_balance_matches_the_module_function(self, rig):
        _, vfleet = rig
        sizes = vfleet.shard_sizes()
        assert vfleet.balance() == shard_balance(sizes)
        assert math.isclose(sum(sizes.values()), len(vfleet.agent_ids))
