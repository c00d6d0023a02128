"""Golden pins: fixed digests of seeded fleet runs.

The failover, crash-resume and determinism suites compare two runs of
the *same* code, so a refactor that moves bytes on both sides passes
them.  These pins compare against values recorded once and committed:
any change to a verdict, a nonce, an audit record, a checkpoint or an
event of these runs fails here, whichever layer caused it.

* **Unsharded** (pull and push): a 4-node ``build_shard_rig`` fleet, 3
  ``poll_all`` ticks and one ``run_update_cycle``; pinned are the
  canonical event-log dump, the audit head and every node's verdict
  stream.
* **Sharded**: a 6-node, 3-verifier ``build_shard_fleet`` whose
  ``verifier-1`` is killed at round 2; pinned are every shard's audit
  head, the verdict streams and each shard's canonical checkpoint.
* **Health watch**: a 3-node, 2-day fleet with node 0 under the
  ``partition`` chaos profile, observed by one ``HealthWatch``; pinned
  are the alert history, every SLO's window counts at the end of the
  run and the number of incidents.  ``health.poll_latency_anomaly`` is
  left out: it is driven by wall-clock poll latency, so it differs
  between runs of the same seed.

If a change is *meant* to move these bytes, re-record the values and
say why in the change description.
"""

from __future__ import annotations

import copy
import hashlib
import json

import pytest

from repro.common.clock import Scheduler, days, hours
from repro.common.events import EventLog
from repro.common.rng import SeededRng
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import (
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
)
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.experiments.fleet_run import DEFAULT_KERNEL, ChaosInjection
from repro.experiments.shardfleet import build_shard_fleet, build_shard_rig
from repro.keylime.fleet import Fleet
from repro.keylime.policy import IBM_STYLE_EXCLUDES
from repro.obs import runtime as obs_runtime
from repro.obs.health import HealthWatch
from repro.tpm.device import TpmManufacturer

INTERVAL = 1800.0


def _sha256(value) -> str:
    blob = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _event_dump(events) -> list:
    """The event log in the canonical shape of ``test_determinism``."""
    return [
        [record.time, record.source, record.kind, dict(record.details)]
        for record in events
    ]


def _canonical_checkpoint(checkpoint: dict) -> dict:
    """A checkpoint without each policy's ``uid``: that is a counter of
    the policies this interpreter built before, not seeded state."""
    body = copy.deepcopy(checkpoint)
    for agent in body["agents"]:
        del agent["policy"]["uid"]
    return body


def _verdicts(results) -> list:
    return [
        (r.time, r.ok, r.transient, r.entries_processed, r.entries_skipped,
         r.retry_attempts, [failure.kind.value for failure in r.failures])
        for r in results
    ]


def _unsharded_run(push_mode: bool) -> dict:
    fleet = build_shard_rig("golden-pins", 4, push_mode=push_mode)
    for _ in range(3):
        fleet.scheduler.clock.advance_by(INTERVAL)
        fleet.poll_all()
    fleet.run_update_cycle()
    return {
        "events": _sha256(_event_dump(fleet.events)),
        "audit_head": fleet.audit.head_hash,
        "verdicts": _sha256({
            node.name: _verdicts(fleet.verifier.results_of(node.agent.agent_id))
            for node in fleet.nodes
        }),
    }


def _sharded_run() -> dict:
    fleet, vfleet = build_shard_fleet("golden-pins", 6, 3)
    for round_index in range(4):
        if round_index == 2:
            vfleet.kill("verifier-1")
        fleet.scheduler.clock.advance_by(INTERVAL)
        vfleet.poll_all()
    return {
        "audit_heads": {
            shard_id: vfleet.shards[shard_id].audit.head_hash
            for shard_id in vfleet.shard_ids
        },
        "verdicts": _sha256({
            agent_id: _verdicts(vfleet.verifier_for(agent_id).results_of(agent_id))
            for agent_id in vfleet.agent_ids
        }),
        "checkpoints": {
            shard_id: _sha256(
                _canonical_checkpoint(vfleet.shards[shard_id].checkpoint)
            )
            for shard_id in vfleet.shard_ids
        },
    }


UNSHARDED_PINS = {
    False: {
        "events": (
            "20151bd020cd2f45ef818b3390a458044cfb82c6913a05b80bf028fe28ff4f12"
        ),
        "audit_head": (
            "104c26eaeb78ba0354c847fb592636d337a001085e6cabc0d45714a299218821"
        ),
        "verdicts": (
            "ef6c845ae7a670fa03585e3aa8038b77e9a6978224142ee71a21c25f6912605b"
        ),
    },
    True: {
        "events": (
            "0815509fbba7e77e6b8b14d1abe4c4e8ade94b2a0dc2facaab4a7f198e2549b8"
        ),
        "audit_head": (
            "104c26eaeb78ba0354c847fb592636d337a001085e6cabc0d45714a299218821"
        ),
        "verdicts": (
            "ef6c845ae7a670fa03585e3aa8038b77e9a6978224142ee71a21c25f6912605b"
        ),
    },
}

SHARDED_PINS = {
    "audit_heads": {
        "verifier-0": (
            "cdb8fb4bbdc634c9adf4214ad507ab7183f3524824007d9066779f1ada54fffa"
        ),
        "verifier-1": (
            "40ebdd0348a96c59d77549afe1d2bd199bd86a7f65ec77334ec4a48b76758ea6"
        ),
        "verifier-2": (
            "ad4f54f1286cb6e7649f87ddd554ab1b13e1dc53a540adff6eeae7b6e57915e5"
        ),
    },
    "verdicts": (
        "e900312838444bed58d93e8bd8a081471fc0d471e8c132e4623383ed4a1f2fd8"
    ),
    "checkpoints": {
        "verifier-0": (
            "c03551e942821129f5ecfeac20e56e3b74637a3bd834dd335a228dc9cd476663"
        ),
        "verifier-1": (
            "09e80b731f0e7c6f552e987d0b3d250543d071b2ff9550fcf8e998af10409ae2"
        ),
        "verifier-2": (
            "6fa6b7a2df49bd4ca3e11ab1d673cd9544f9283c30304beb36fb919f250acd8c"
        ),
    },
}


@pytest.mark.parametrize("push_mode", [False, True], ids=["pull", "push"])
def test_unsharded_fleet_matches_pins(push_mode):
    assert _unsharded_run(push_mode) == UNSHARDED_PINS[push_mode]


def test_sharded_failover_matches_pins():
    assert _sharded_run() == SHARDED_PINS


#: Wall-clock driven, so not reproducible from the seed alone.
LATENCY_RULE = "health.poll_latency_anomaly"


def _health_watch_run(n_nodes: int = 3, n_days: int = 2) -> dict:
    """A partition-chaos fleet run observed by one ``HealthWatch``."""
    previous = obs_runtime.get()
    try:
        rng = SeededRng("equivalence")
        scheduler = Scheduler()
        events = EventLog()
        telemetry = obs_runtime.activate(clock=None)
        telemetry.bind_clock(scheduler.clock)

        archive = UbuntuArchive()
        base = build_base_system(
            rng.fork("base"), n_filler_packages=8, mean_exec_files=4.0,
            kernel_version=DEFAULT_KERNEL,
        )
        archive.seed(base)
        stream = SyntheticReleaseStream(
            archive, base, rng.fork("stream"),
            ReleaseStreamConfig(
                mean_packages_per_day=2.0, sd_packages_per_day=1.0,
                mean_exec_files_per_package=4.0, kernel_release_every_days=0,
            ),
        )
        mirror = LocalMirror(archive, events=events)
        mirror.sync(0.0)
        generator = DynamicPolicyGenerator(
            mirror, events=events, rng=rng.fork("gen")
        )
        policy, _ = generator.generate_full(
            list(IBM_STYLE_EXCLUDES), {DEFAULT_KERNEL}
        )

        chaos = ChaosInjection(
            profile="partition", chaos_seed="eq-chaos", node_indices=(0,),
        )
        fleet = Fleet(
            n_nodes, mirror, TpmManufacturer("Infineon", rng.fork("tpm")),
            scheduler, rng.fork("fleet"), policy,
            events=events, kernel_version=DEFAULT_KERNEL,
            fault_plan=chaos.build_plan(
                [f"agent-node-{i:03d}" for i in range(n_nodes)]
            ),
            retry_policy=chaos.build_retry_policy(),
            quarantine_after=chaos.quarantine_after,
        )
        watch = HealthWatch(tick_interval=INTERVAL)
        fleet.start_polling(INTERVAL)
        fleet.watch_health(watch, INTERVAL)
        for day in range(1, n_days + 1):
            stream.generate_day(day - 1)
            scheduler.call_at(
                days(day) + hours(5.0),
                lambda: fleet.run_update_cycle(),
                label=f"update-day{day}",
            )
        scheduler.run_until(days(n_days + 1))
        end = scheduler.clock.now
        watch.finalize(end)
    finally:
        if previous.enabled:
            obs_runtime.activate(previous)
        else:
            obs_runtime.deactivate()

    alerts = [
        alert.to_record() for alert in watch.engine.history
        if alert.rule != LATENCY_RULE
    ]
    return {
        "alerts": _sha256(alerts),
        "alert_rules": sorted({record["rule"] for record in alerts}),
        "window_counts": {
            tracker.name: [
                list(tracker.window_counts(window, end))
                for window in (INTERVAL, 6 * INTERVAL, 86400.0, 7 * 86400.0)
            ]
            for tracker in watch.monitor.slos.all()
        },
        "incidents": sum(
            1 for incident in watch.incidents
            if incident.alert["rule"] != LATENCY_RULE
        ),
    }


HEALTH_WATCH_PINS = {
    "alerts": (
        "0747e7b5c72704be19fddd1a64e80d31ae64eed188a5708660cab9dcf3364139"
    ),
    "alert_rules": [
        "health.coverage_gap",
        "slo.freshness.fast_burn",
        "slo.freshness.slow_burn",
        "slo.poll_success.fast_burn",
        "slo.poll_success.slow_burn",
    ],
    # [total, bad] at POLL, 6 POLL, 1 day and 7 days before the end.
    "window_counts": {
        "attestation_freshness": [[6, 2], [21, 7], [147, 49], [432, 142]],
        "poll_success": [[6, 2], [21, 7], [147, 49], [432, 144]],
        "detection_latency": [[0, 0], [0, 0], [0, 0], [1, 0]],
        "freshness_headroom": [[2, 0], [7, 0], [49, 0], [144, 0]],
    },
    "incidents": 5,
}


def test_health_watch_matches_pins():
    assert _health_watch_run() == HEALTH_WATCH_PINS
