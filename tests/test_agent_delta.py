"""The agent's O(new entries) evidence contract, and its correctness oracle.

The IMA engine stores its measurement list as rendered ascii lines, so
the agent ships a suffix by slicing, never by re-rendering.  The first
half of this file pins that contract: which lines a challenge ships,
how stale offsets fall back, that the parsed ``.log`` view round-trips,
and that a round renders no line at all.

The second half is a differential oracle for the whole delta path
(agent suffix, verifier offset bookkeeping, incremental replay, verdict
cache).  Hypothesis drives a testbed through executions, violations,
P4 renames and reboots, polling at random points; every poll's verdict
must equal that of :class:`ReferenceAppraiser`, which re-renders and
re-replays the *whole* log every round and applies the paper's Fig. 1
semantics directly.  Any later optimisation of the round must keep
this test passing.
"""

from __future__ import annotations

import hashlib
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.testbed import TestbedConfig, build_testbed
from repro.kernelsim.ima import ImaEngine, ImaLogEntry, ImaPolicy
from repro.keylime.agent import KeylimeAgent
from repro.keylime.verifier import AgentState
from repro.tpm.pcr import IMA_PCR_INDEX

from tests.conftest import small_config


@pytest.fixture()
def agent(machine) -> KeylimeAgent:
    agent = KeylimeAgent("agent-delta", machine)
    agent.provision_ak()
    return agent


def _run_files(machine, count: int) -> None:
    for index in range(count):
        path = f"/usr/bin/tool{index}"
        machine.install_file(path, f"tool {index}".encode(), executable=True)
        machine.exec_file(path)


class TestSuffixContract:
    def test_ships_exactly_the_suffix(self, agent, machine):
        _run_files(machine, 5)
        engine = machine.require_booted()
        rendered = [entry.to_line() for entry in engine.log]
        for offset in (0, 1, 3, 5, 6):
            evidence = agent.attest(f"nonce-{offset}", offset=offset)
            assert list(evidence.ima_log_lines) == rendered[offset:]
            assert evidence.offset == offset
            assert evidence.total_entries == len(engine.log) == 6

    def test_out_of_range_offset_ships_everything(self, agent, machine):
        _run_files(machine, 2)
        machine.reboot()
        machine.install_file("/usr/bin/after", b"after", executable=True)
        machine.exec_file("/usr/bin/after")
        engine = machine.require_booted()
        rendered = [entry.to_line() for entry in engine.log]
        for offset in (-1, 3, 10_000):
            evidence = agent.attest(f"nonce{offset}", offset=offset)
            assert evidence.offset == 0
            assert list(evidence.ima_log_lines) == rendered
            assert evidence.total_entries == 2

    def test_capabilities_report_log_length(self, agent, machine):
        _run_files(machine, 4)
        engine = machine.require_booted()
        assert agent.capabilities().log_length == len(engine.log) == 5
        assert engine.entry_count == 5

    def test_empty_engine_is_not_falsy(self, tpm):
        engine = ImaEngine(ImaPolicy(), tpm)
        assert engine.entry_count == 0
        assert engine  # a length accessor, not __len__
        assert engine.log_lines() == []

    def test_violation_and_spaced_paths_round_trip(self, machine):
        machine.install_file("/usr/share/my app/run tool", b"spaced", executable=True)
        machine.exec_file("/usr/share/my app/run tool")
        assert machine.open_for_write("/usr/share/my app/run tool", b"rewritten")
        engine = machine.require_booted()
        spaced, violation = engine.log[-2:]
        assert spaced.path == "/usr/share/my app/run tool"
        assert violation.path == "/usr/share/my app/run tool (ToMToU)"
        for line, entry in zip(engine.log_lines(), engine.log):
            assert ImaLogEntry.from_line(line) == entry
            assert entry.to_line() == line

    def test_round_renders_no_line(self, agent, machine, monkeypatch):
        _run_files(machine, 2_000)
        engine = machine.require_booted()
        assert engine.entry_count == 2_001
        rendered = []
        original = ImaLogEntry.to_line

        def counting_to_line(entry):
            rendered.append(entry)
            return original(entry)

        monkeypatch.setattr(ImaLogEntry, "to_line", counting_to_line)
        capabilities = agent.capabilities()
        evidence = agent.attest("nonce", offset=capabilities.log_length - 1)
        full = agent.attest("nonce-2", offset=0)
        assert rendered == []
        assert len(evidence.ima_log_lines) == 1
        assert len(full.ima_log_lines) == 2_001


# -- differential oracle ------------------------------------------------

_ZERO_DIGEST = "0" * 64
_VIOLATION_EXTEND = "f" * 64


def _extend(aggregate: str, value: str) -> str:
    return hashlib.sha256(bytes.fromhex(aggregate) + bytes.fromhex(value)).hexdigest()


def _template_hash(filedata_hash: str, path: str) -> str:
    return hashlib.sha256(f"ima-ng|{filedata_hash}|{path}".encode()).hexdigest()


class ReferenceAppraiser:
    """A deliberately naive verifier: the whole log, every round.

    It keeps only two numbers between rounds: how many entries of the
    current boot it has already appraised, and the boot (TPM reset)
    count they belong to.  Each round re-renders the entire list from
    ``engine.log``, recomputes every template hash, replays everything
    from the zero PCR against the machine's PCR 10, then appraises the
    not-yet-seen entries against the policy's raw digests and exclude
    regexes -- halting at the first failure (stock Keylime, P2) or
    evaluating all of them (M2).  Under P2 a failed round also halts
    polling for good.
    """

    def __init__(self, continue_on_failure: bool) -> None:
        self.continue_on_failure = continue_on_failure
        self.seen = 0
        self.boot: int | None = None
        self.halted = False

    def round(self, machine, policy) -> tuple[bool, list[str]]:
        lines = [entry.to_line() for entry in machine.require_booted().log]
        entries = [ImaLogEntry.from_line(line) for line in lines]
        if machine.tpm.reset_count != self.boot:
            self.boot = machine.tpm.reset_count
            self.seen = 0

        aggregate = _ZERO_DIGEST
        for entry in entries:
            violation = entry.filedata_hash == "sha256:" + _ZERO_DIGEST
            if violation:
                aggregate = _extend(aggregate, _VIOLATION_EXTEND)
                continue
            if entry.template_hash != _template_hash(entry.filedata_hash, entry.path):
                return False, ["log_tampered"]
            aggregate = _extend(aggregate, entry.template_hash)
        if aggregate != machine.tpm.read_pcr(IMA_PCR_INDEX):
            return False, ["pcr_mismatch"]

        digests, excludes = policy.digests, list(policy.excludes)
        failing: list[str] = []
        for entry in entries[self.seen:]:
            if self._fails(entry, digests, excludes):
                failing.append(entry.path)
                if not self.continue_on_failure:
                    break
        self.seen = len(entries)
        self.halted = bool(failing) and not self.continue_on_failure
        return not failing, failing

    @staticmethod
    def _fails(entry: ImaLogEntry, digests: dict, excludes: list[str]) -> bool:
        if entry.path == "boot_aggregate":
            return False
        measured = entry.filedata_hash.split(":", 1)[1]
        violation = measured == _ZERO_DIGEST
        path = entry.path.split(" (", 1)[0] if violation else entry.path
        if any(re.match(pattern, path) for pattern in excludes):
            return False
        return violation or measured not in digests.get(path, ())


_PAYLOAD = st.binary(min_size=1, max_size=8)
_POLL = st.tuples(st.just("poll"), st.booleans())
_STEP = st.one_of(
    st.tuples(
        st.just("exec_in_policy"), st.lists(st.integers(0, 63), min_size=1, max_size=6)
    ),
    st.tuples(st.just("exec_out_of_policy"), _PAYLOAD),
    st.tuples(st.just("replace_in_policy"), st.integers(0, 63), _PAYLOAD),
    st.tuples(st.just("exec_tmp"), _PAYLOAD),
    st.tuples(st.just("write_violation"), st.integers(0, 63), _PAYLOAD),
    st.tuples(st.just("p4_move"), _PAYLOAD),
    st.tuples(st.just("reboot")),
    _POLL,
    _POLL,  # twice: polls are drawn twice as often as any other step
)


def _config(continue_on_failure: bool) -> TestbedConfig:
    config = small_config("delta-1")
    config.continue_on_failure = continue_on_failure
    return config


def _pipeline_verdict(result) -> tuple[bool, list[str]]:
    return result.ok, [
        failure.policy_failure.path if failure.policy_failure is not None
        else failure.kind.value
        for failure in result.failures
    ]


@settings(max_examples=15, deadline=None)
@given(
    continue_on_failure=st.booleans(),
    steps=st.lists(_STEP, min_size=4, max_size=24),
)
# Every step kind, in both failure modes, whatever the random draw.
@example(continue_on_failure=True, steps=[
    ("exec_in_policy", [0, 1, 2, 3]), ("poll", False),
    ("write_violation", 4, b"a"), ("write_violation", 5, b"b"),
    ("exec_tmp", b"t"), ("poll", True),
    ("p4_move", b"m"), ("exec_out_of_policy", b"r"),
    ("replace_in_policy", 6, b"x"), ("poll", False),
    ("reboot",), ("exec_in_policy", [7, 8]), ("write_violation", 9, b"c"),
    ("poll", True),
])
@example(continue_on_failure=False, steps=[
    ("exec_in_policy", [0, 1, 2]), ("poll", True),
    ("reboot",), ("exec_in_policy", [3, 4]), ("poll", False),
    ("p4_move", b"m"), ("exec_tmp", b"t"), ("poll", True),
    ("exec_out_of_policy", b"r"), ("write_violation", 5, b"v"),
    ("poll", True), ("exec_in_policy", [6]), ("poll", False),
])
def test_pipeline_matches_reference_appraiser(continue_on_failure, steps):
    testbed = build_testbed(_config(continue_on_failure))
    machine = testbed.machine
    known = sorted(
        path for path in testbed.policy.digests
        if machine.vfs.exists(path) and machine.vfs.stat(path).executable
    )
    reference = ReferenceAppraiser(continue_on_failure)
    fresh = iter(range(10_000))

    for step in steps + [("poll", False)]:
        kind = step[0]
        if kind == "exec_in_policy":
            for index in step[1]:
                machine.exec_file(known[index % len(known)])
        elif kind == "exec_out_of_policy":
            path = f"/usr/bin/rogue{next(fresh)}"
            machine.install_file(path, step[1], executable=True)
            machine.exec_file(path)
        elif kind == "replace_in_policy":
            path = known[step[1] % len(known)]
            machine.install_file(path, b"replaced " + step[2], executable=True)
            machine.exec_file(path)
        elif kind == "exec_tmp":
            path = f"/tmp/stage{next(fresh)}"
            machine.install_file(path, step[1], executable=True)
            machine.exec_file(path)
        elif kind == "write_violation":
            path = known[step[1] % len(known)]
            machine.exec_file(path)
            machine.open_for_write(path, b"in place " + step[2])
        elif kind == "p4_move":
            # P1 + P4: run from the excluded /tmp, rename within the
            # root filesystem, run again -- the inode is not re-measured.
            name = next(fresh)
            staged, moved = f"/tmp/drop{name}", f"/usr/bin/moved{name}"
            machine.install_file(staged, step[1], executable=True)
            machine.exec_file(staged)
            machine.move_file(staged, moved)
            machine.exec_file(moved)
        elif kind == "reboot":
            machine.reboot()
        elif not reference.halted:
            result = testbed.push_round() if step[1] else testbed.poll()
            assert result is not None
            assert _pipeline_verdict(result) == reference.round(
                machine, testbed.policy
            ), steps
            verifier = testbed.verifier
            assert verifier.verified_entries_of(testbed.agent_id) == reference.seen
            halted = verifier.state_of(testbed.agent_id) is AgentState.FAILED
            assert halted == reference.halted
