"""The Integrity Measurement Architecture (IMA).

IMA hooks file events (here: executions and kernel-module loads),
hashes the file content, appends an entry to the measurement list, and
extends the entry's template hash into TPM PCR 10.  The verifier later
replays the list against the quoted PCR value.

The behaviours the paper's findings hinge on are modelled exactly:

* ``dont_measure fsmagic=...`` **policy rules** exclude whole
  filesystems (tmpfs, procfs, debugfs, ramfs, securityfs, overlayfs in
  the Keylime-documented policy) -- the paper's **P3**.
* **Measure-once-per-inode caching.**  IMA keys its cache on the inode
  identity and re-measures only when the content (``iversion``)
  changes.  A rename within the same filesystem keeps the inode, so the
  file is *not* re-measured under its new path -- the paper's **P4**.
  The optional ``re_evaluate_on_path_change`` flag implements the
  paper's proposed IMA fix (**M3**).
* **Recorded path is the path as seen by the measuring context.**  A
  process executing inside a chroot (SNAP confinement) causes IMA to
  record the truncated path -- the paper's SNAP false-positive cause.
* **The boot aggregate.**  The first list entry after boot is
  ``boot_aggregate``, a digest over the boot PCRs, which anchors the
  runtime list to measured boot.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from enum import Enum

from repro.common.hexutil import sha256_hex
from repro.kernelsim.vfs import FilesystemType, FileStat
from repro.obs import runtime as obs
from repro.tpm.device import Tpm
from repro.tpm.pcr import IMA_PCR_INDEX


def _count_decision(decision: str) -> None:
    """Record one measurement decision (no-op while telemetry is off).

    The ``cache_hit`` series is the directly observable evidence for the
    paper's P4: executions suppressed by the once-per-inode rule.
    """
    obs.get().registry.counter(
        "ima_events_total", "IMA measurement decisions by outcome", ("decision",),
    ).labels(decision=decision).inc()

#: Filesystems excluded by the IMA policy in Keylime's documentation;
#: the exclusions behind the paper's P3.
DEFAULT_EXCLUDED_FSTYPES = (
    FilesystemType.TMPFS,
    FilesystemType.PROC,
    FilesystemType.SYSFS,
    FilesystemType.DEBUGFS,
    FilesystemType.RAMFS,
    FilesystemType.SECURITYFS,
    FilesystemType.DEVTMPFS,
    FilesystemType.OVERLAYFS,
)


class ImaHook(Enum):
    """The measurement hooks we model (subset of the kernel's)."""

    BPRM_CHECK = "BPRM_CHECK"  # direct execve of a file
    MMAP_EXEC = "FILE_MMAP"  # mapping a file with PROT_EXEC (shared libs)
    MODULE_CHECK = "MODULE_CHECK"  # kernel module load


@dataclass(frozen=True)
class ImaLogEntry:
    """One line of the ascii measurement list (ima-ng template).

    ``template_hash`` is what gets extended into PCR 10; it covers the
    file digest *and* the recorded path, so the verifier's replay breaks
    if either is tampered with in transit.
    """

    pcr: int
    template_hash: str
    template: str
    filedata_hash: str  # "sha256:<hex>"
    path: str

    def to_line(self) -> str:
        """Serialise like ``/sys/kernel/security/ima/ascii_runtime_measurements``."""
        return f"{self.pcr} {self.template_hash} {self.template} {self.filedata_hash} {self.path}"

    @classmethod
    def from_line(cls, line: str) -> "ImaLogEntry":
        """Parse a serialised entry (the verifier-side operation)."""
        parts = line.split(" ", 4)
        if len(parts) != 5:
            raise ValueError(f"malformed IMA log line: {line!r}")
        pcr, template_hash, template, filedata_hash, path = parts
        return cls(
            pcr=int(pcr),
            template_hash=template_hash,
            template=template,
            filedata_hash=filedata_hash,
            path=path,
        )


def template_hash(filedata_hash: str, path: str) -> str:
    """Template hash over (file digest, recorded path).

    Real IMA hashes the packed ima-ng template data; the reproduction
    hashes a canonical string with the same two fields, preserving the
    tamper-evidence property.
    """
    return sha256_hex(f"ima-ng|{filedata_hash}|{path}".encode("utf-8"))


#: Template hash recorded for a measurement *violation* (ToMToU /
#: open-writers): the log line carries all-zero digests, but the PCR is
#: extended with all-0xFF -- the kernel deliberately poisons the
#: aggregate so a violation can never be hidden by replaying zeros.
#: Verifiers must know this rule to replay logs containing violations.
VIOLATION_TEMPLATE_HASH = "0" * 64
VIOLATION_EXTEND_VALUE = "f" * 64
VIOLATION_FILEDATA_HASH = "sha256:" + "0" * 64


@dataclass
class ImaPolicy:
    """The kernel-side IMA policy.

    Attributes:
        excluded_fstypes: filesystems skipped entirely
            (``dont_measure fsmagic=...``).  The default matches the
            policy in Keylime's documentation -- the source of P3.
        measure_hooks: which hooks produce measurements.
        re_evaluate_on_path_change: the paper's proposed M3 fix -- when
            true, a cached inode is re-measured if it is executed under
            a different path than the one recorded.
    """

    excluded_fstypes: tuple[FilesystemType, ...] = DEFAULT_EXCLUDED_FSTYPES
    measure_hooks: tuple[ImaHook, ...] = (
        ImaHook.BPRM_CHECK,
        ImaHook.MMAP_EXEC,
        ImaHook.MODULE_CHECK,
    )
    re_evaluate_on_path_change: bool = False

    def excludes_fstype(self, fstype: FilesystemType) -> bool:
        """True when the policy's fsmagic rules skip *fstype*."""
        return any(fstype.magic == excluded.magic for excluded in self.excluded_fstypes)

    def measures_hook(self, hook: ImaHook) -> bool:
        """True when *hook* is covered by a measure rule."""
        return hook in self.measure_hooks


@dataclass
class _CacheRecord:
    iversion: int
    recorded_path: str


class ImaEngine:
    """The per-boot measurement engine.

    One instance exists per booted kernel; a reboot builds a fresh
    engine (empty list, empty cache) and the machine re-extends the
    boot aggregate.

    The measurement list is stored once, as the ascii lines the kernel
    exposes: each entry is rendered when it is measured and appended.
    Reading a suffix (:meth:`log_lines`) or the length
    (:attr:`entry_count`) therefore never re-renders earlier entries,
    so an agent round costs O(new entries), not O(log).
    """

    def __init__(self, policy: ImaPolicy, tpm: Tpm) -> None:
        self.policy = policy
        self._tpm = tpm
        self._lines: list[str] = []
        self._cache: dict[tuple[str, int], _CacheRecord] = {}

    # -- introspection ---------------------------------------------------

    @property
    def entry_count(self) -> int:
        """Number of entries in the measurement list."""
        return len(self._lines)

    @property
    def log(self) -> list[ImaLogEntry]:
        """The measurement list, parsed from its lines (a fresh copy)."""
        return [ImaLogEntry.from_line(line) for line in self._lines]

    def log_lines(self, offset: int = 0) -> list[str]:
        """Serialised measurement list from entry *offset* on, as shipped."""
        return self._lines[offset:]

    def measured_paths(self) -> set[str]:
        """All recorded paths (test helper)."""
        return {entry.path for entry in self.log}

    # -- measurement -----------------------------------------------------

    def record_boot_aggregate(self) -> ImaLogEntry:
        """Record the ``boot_aggregate`` entry (first entry after boot)."""
        blob = b"".join(
            bytes.fromhex(self._tpm.read_pcr(index)) for index in range(8)
        )
        digest = "sha256:" + hashlib.sha256(blob).hexdigest()
        return self._append("boot_aggregate", digest)

    def process_event(
        self, recorded_path: str, stat: FileStat, content: bytes, hook: ImaHook
    ) -> ImaLogEntry | None:
        """Run the measurement decision for one file event.

        Args:
            recorded_path: the path *as seen by the executing context*
                (truncated inside a chroot -- the SNAP case).
            stat: VFS metadata for the file (identity + iversion).
            content: file bytes, hashed if the decision is "measure".
            hook: which kernel hook fired.

        Returns the new log entry, or ``None`` when the policy or the
        cache suppressed measurement.
        """
        if not self.policy.measures_hook(hook):
            _count_decision("unhooked")
            return None
        if self.policy.excludes_fstype(stat.fstype):
            _count_decision("excluded_fstype")
            return None  # P3: whole filesystem excluded by fsmagic

        decision = "measured"
        cache_key = stat.file_key
        cached = self._cache.get(cache_key)
        if cached is not None and cached.iversion == stat.iversion:
            if (
                self.policy.re_evaluate_on_path_change
                and cached.recorded_path != recorded_path
            ):
                decision = "remeasured_path_change"  # M3: fall through, re-measure
            else:
                # P4: same inode, unchanged content -> no re-measurement
                _count_decision("cache_hit")
                return None

        digest = "sha256:" + sha256_hex(content)
        entry = self._append(recorded_path, digest)
        _count_decision(decision)
        self._cache[cache_key] = _CacheRecord(
            iversion=stat.iversion, recorded_path=recorded_path
        )
        return entry

    def note_write(self, recorded_path: str, stat: FileStat) -> bool:
        """A write hit a file already measured this boot -> violation.

        Returns True when a violation was recorded (the file was in the
        measurement cache); writes to never-measured files are silent.
        """
        if stat.file_key not in self._cache:
            return False
        self.record_violation(recorded_path, kind="ToMToU")
        return True

    def record_violation(self, recorded_path: str, kind: str = "ToMToU") -> ImaLogEntry:
        """Record a measurement violation for *recorded_path*.

        Linux IMA emits a violation when measurement cannot be
        trustworthy: ``ToMToU`` (time-of-measure / time-of-use -- the
        file is open for write while being measured) and
        ``open_writers`` (measured while writers exist).  The log line
        carries zero digests, but the PCR is extended with 0xFF --
        replaying zeros would hide the violation, so the kernel poisons
        the aggregate instead.
        """
        entry = ImaLogEntry(
            pcr=IMA_PCR_INDEX,
            template_hash=VIOLATION_TEMPLATE_HASH,
            template="ima-ng",
            filedata_hash=VIOLATION_FILEDATA_HASH,
            path=f"{recorded_path} ({kind})" if kind else recorded_path,
        )
        self._lines.append(entry.to_line())
        self._tpm.extend(IMA_PCR_INDEX, VIOLATION_EXTEND_VALUE, algorithm="sha256")
        obs.get().registry.counter(
            "ima_violations_total", "IMA measurement violations recorded", ("kind",),
        ).labels(kind=kind or "unknown").inc()
        return entry

    def _append(self, path: str, filedata_hash: str) -> ImaLogEntry:
        entry = ImaLogEntry(
            pcr=IMA_PCR_INDEX,
            template_hash=template_hash(filedata_hash, path),
            template="ima-ng",
            filedata_hash=filedata_hash,
            path=path,
        )
        self._lines.append(entry.to_line())
        self._tpm.extend(IMA_PCR_INDEX, entry.template_hash, algorithm="sha256")
        obs.get().registry.counter(
            "ima_measurements_total", "Entries appended to the measurement list",
        ).inc()
        return entry
