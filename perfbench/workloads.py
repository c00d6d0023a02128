"""The three seeded workloads, driven only through public entry points.

Every workload is a closed loop in one thread: :meth:`Rig.step` runs
the next unit of work only after the previous one returned, and the
simulated clock advances one 2 s quote interval per polling tick.  The
seed fixes every generated input (base system, TPM keys, which files
run where, the release stream); the program receives only those
inputs and is otherwise left alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter

from repro.common.clock import Scheduler, days, hours
from repro.common.rng import SeededRng
from repro.distro.archive import UbuntuArchive
from repro.distro.mirror import LocalMirror
from repro.distro.workload import (
    ReleaseStreamConfig,
    SyntheticReleaseStream,
    build_base_system,
)
from repro.dynpolicy.generator import DynamicPolicyGenerator
from repro.keylime.fleet import Fleet, VerifierFleet
from repro.keylime.policy import IBM_STYLE_EXCLUDES
from repro.tpm.device import TpmManufacturer

KERNEL = "5.15.0-91-generic"
#: Keylime's default quote interval, in simulated seconds.
QUOTE_INTERVAL = 2.0
#: Executables each node runs at boot in the short-log workloads.
BOOT_SESSION = 64
#: Entries in each node's measurement list in ``long_log_push``.
LONG_LOG_ENTRIES = 10_000
#: Polling ticks after each simulated day in ``update_day``.
TICKS_PER_DAY = 2
#: In the workloads without a release stream, the update cron fires
#: every this many quote intervals and finds no release.
QUIET_CYCLE_EVERY = 2
#: Simulated hour of the daily mirror sync (the paper's 05:00 cron).
SYNC_HOUR = 5.0


@dataclass
class StepOutcome:
    """What one closed-loop step did and how long its parts took."""

    #: (agent, ok, entries processed) per round, in poll order.
    results: list[tuple[str, bool, int]] = field(default_factory=list)
    #: Rounds the step expected to complete (one per attesting node).
    attempted: int = 0
    #: Transport retries the rounds needed.
    retries: int = 0
    #: Policy entries each update cycle added.
    entries_added: list[int] = field(default_factory=list)
    tick_seconds: list[float] = field(default_factory=list)
    cycle_seconds: list[float] = field(default_factory=list)
    #: Time spent generating inputs (file runs, release days), which
    #: is the simulated world, not the system under test.
    input_seconds: float = 0.0


class Rig:
    """One provisioned workload plus its seeded input generator."""

    name = ""
    n_nodes = 0
    n_filler_packages = 60
    mean_exec_files = 5.0
    push_mode = False

    def __init__(self, seed: int) -> None:
        self.rng = SeededRng(f"{self.name}/{seed}")
        self.inputs = random.Random(f"{self.name}/{seed}/inputs")
        #: Set-up phase -> wall seconds.
        self.phases: dict[str, float] = {}
        self.first_tick: StepOutcome | None = None
        self.steps = 0

    # -- set-up ------------------------------------------------------------

    def setup(self) -> None:
        """Provision the fleet, build the logs, run the first full-log tick."""
        start = perf_counter()
        archive = UbuntuArchive()
        base = build_base_system(
            self.rng.fork("base"),
            n_filler_packages=self.n_filler_packages,
            mean_exec_files=self.mean_exec_files,
            kernel_version=KERNEL,
        )
        archive.seed(base)
        self.stream = self.release_stream(archive, base)
        mirror = LocalMirror(archive)
        mirror.sync(0.0)
        generator = DynamicPolicyGenerator(mirror, rng=self.rng.fork("gen"))
        policy, _ = generator.generate_full(list(IBM_STYLE_EXCLUDES), {KERNEL})
        provision = perf_counter()
        self.phases["base_policy"] = provision - start

        self.scheduler = Scheduler()
        self.fleet = Fleet(
            self.n_nodes, mirror, TpmManufacturer("Bench", self.rng.fork("tpm")),
            self.scheduler, self.rng.fork("fleet"), policy,
            kernel_version=KERNEL, push_mode=self.push_mode,
        )
        self.coordinator = self.coordinate(self.fleet)
        log_build = perf_counter()
        self.phases["provision"] = log_build - provision

        #: Per node: files not yet run, and files already run.
        self.pools: list[list[str]] = []
        self.ran: list[list[str]] = []
        for node in self.fleet.nodes:
            paths = sorted(
                stat.path
                for prefix in ("/bin", "/usr")
                for stat in node.machine.vfs.walk(prefix)
                if stat.executable
            )
            self.inputs.shuffle(paths)
            boot_runs = self.boot_runs(len(paths))
            for path in paths[:boot_runs]:
                node.machine.exec_file(path)
            # The rest stays unmeasured: the trickle draws from it.
            self.pools.append(paths[boot_runs:])
            self.ran.append(paths[:boot_runs])
        first_tick = perf_counter()
        self.phases["log_build"] = first_tick - log_build

        self.first_tick = self.tick(StepOutcome())
        self.phases["first_tick"] = perf_counter() - first_tick

    def release_stream(self, archive, base) -> SyntheticReleaseStream | None:
        return None

    def coordinate(self, fleet: Fleet):
        """The object whose ``poll_all`` is one fleet tick."""
        return fleet

    def boot_runs(self, available: int) -> int:
        return min(BOOT_SESSION, available)

    # -- the closed loop ---------------------------------------------------

    def tick(self, outcome: StepOutcome) -> StepOutcome:
        """One timed whole-fleet tick; results appended to *outcome*."""
        start = perf_counter()
        results = self.coordinator.poll_all()
        outcome.tick_seconds.append(perf_counter() - start)
        outcome.attempted += len(self.fleet.nodes)
        for key, result in results.items():
            outcome.results.append((key, result.ok, result.entries_processed))
            outcome.retries += result.retry_attempts
        return outcome

    def trickle(self) -> None:
        """0-2 not-yet-measured, policy-covered files run somewhere.

        Once a node's pool is used up it re-runs a measured file, which
        IMA's cache absorbs without a new entry.
        """
        for _ in range(self.inputs.randint(0, 2)):
            index = self.inputs.randrange(len(self.fleet.nodes))
            if self.pools[index]:
                path = self.pools[index].pop()
                self.ran[index].append(path)
            else:
                path = self.inputs.choice(self.ran[index])
            self.fleet.nodes[index].machine.exec_file(path)

    def step(self) -> StepOutcome:
        """One quote interval: the trickle, then one fleet tick.

        Every :data:`QUIET_CYCLE_EVERY`-th interval a quiet-day update
        cycle follows the tick: the sync finds no release, the delta is
        empty, the policy is pushed to every slot and every upgrade is a
        no-op.  Spreading these cycles over the run, rather than timing
        them in one burst, keeps their median from hanging on a single
        moment of a shared machine.
        """
        outcome = StepOutcome()
        start = perf_counter()
        self.scheduler.clock.advance_by(QUOTE_INTERVAL)
        self.trickle()
        outcome.input_seconds = perf_counter() - start
        self.tick(outcome)
        self.steps += 1
        if self.steps % QUIET_CYCLE_EVERY == 0:
            self.update_cycle(outcome)
        return outcome

    def update_cycle(self, outcome: StepOutcome) -> None:
        """One timed ``Fleet.run_update_cycle``; results into *outcome*.

        Nodes are not rebooted inside the cycle; see :meth:`UpdateDay.step`.
        """
        start = perf_counter()
        report = self.fleet.run_update_cycle(reboot_on_new_kernel=False)
        outcome.cycle_seconds.append(perf_counter() - start)
        outcome.entries_added.append(report.policy_report.entries_added)

    # -- output checks -----------------------------------------------------

    def verifier_for(self, agent_id: str):
        return self.fleet.verifier

    def audit_logs(self) -> list:
        return [self.fleet.audit]

    def coverage_gaps(self) -> list[str]:
        """Agents whose verified replay offset lags their measurement list."""
        return [
            node.agent.agent_id
            for node in self.fleet.nodes
            if self.verifier_for(node.agent.agent_id).verified_entries_of(
                node.agent.agent_id
            ) != len(node.machine.require_booted().log)
        ]

    def snapshots(self) -> list[dict]:
        """The last checkpoint of every shard (none without sharding)."""
        return []


class SteadyPull(Rig):
    """16 short-log agents on two checkpointing verifier shards."""

    name = "steady_pull"
    n_nodes = 16

    def coordinate(self, fleet: Fleet) -> VerifierFleet:
        return VerifierFleet(fleet, 2, self.rng.fork("shards"))

    def verifier_for(self, agent_id: str):
        return self.coordinator.verifier_for(agent_id)

    def audit_logs(self) -> list:
        return [
            self.coordinator.shards[shard].audit
            for shard in self.coordinator.shard_ids
        ]

    def snapshots(self) -> list[dict]:
        return [
            self.coordinator.shards[shard].checkpoint
            for shard in self.coordinator.shard_ids
        ]


class LongLogPush(Rig):
    """4 push-mode agents whose measurement lists hold 10k entries."""

    name = "long_log_push"
    n_nodes = 4
    n_filler_packages = 420
    mean_exec_files = 30.0
    push_mode = True

    def boot_runs(self, available: int) -> int:
        if available < LONG_LOG_ENTRIES + 200:
            raise RuntimeError(
                f"base system has {available} executables; "
                f"{LONG_LOG_ENTRIES} + 200 are needed"
            )
        return LONG_LOG_ENTRIES


class UpdateDay(Rig):
    """8 pull-mode agents living through daily distribution updates."""

    name = "update_day"
    n_nodes = 8
    # A larger package population keeps the median day's cost from
    # depending on which few packages one seed happens to make large.
    n_filler_packages = 240

    def release_stream(self, archive, base) -> SyntheticReleaseStream:
        self.day = 0
        return SyntheticReleaseStream(
            archive, base, self.rng.fork("stream"),
            # The paper's mean of 16.5 packages a day, with a narrow
            # spread instead of its heavy tail, so that the median
            # and p90 day are alike from seed to seed.
            ReleaseStreamConfig(
                mean_packages_per_day=16.5,
                sd_packages_per_day=4.0,
                mean_exec_files_per_package=6.0,
                kernel_release_every_days=7,
            ),
        )

    def step(self) -> StepOutcome:
        """One simulated day: release, update cycle, reboots, then polls.

        The nodes that installed a new kernel reboot right after the
        cycle rather than inside it, so the cycle's time is the same
        kind of work every day and the reboot is timed on its own.
        """
        outcome = StepOutcome()
        start = perf_counter()
        self.stream.generate_day(self.day)
        self.day += 1
        outcome.input_seconds = perf_counter() - start
        self.scheduler.clock.advance_to(days(self.day) + hours(SYNC_HOUR))
        self.update_cycle(outcome)
        for node in self.fleet.nodes:
            if node.machine.pending_kernel is not None:
                node.machine.reboot()
        for _ in range(TICKS_PER_DAY):
            self.scheduler.clock.advance_by(QUOTE_INTERVAL)
            self.tick(outcome)
        return outcome


WORKLOADS = {rig.name: rig for rig in (SteadyPull, LongLogPush, UpdateDay)}
