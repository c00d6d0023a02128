"""The Keylime agent: the only component on the untrusted machine.

The agent's job is deliberately small -- and that smallness is the
security story: it gathers a TPM quote (whose integrity the TPM
guarantees) and ships the IMA measurement list (whose integrity the
quote's PCR 10 value anchors).  A compromised agent can lie about the
log, but the lie will not replay to the quoted PCR value.

``attest`` supports the offset-based incremental fetch the real agent
implements: the verifier tells the agent how many entries it has
already verified and receives only the suffix.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from repro.common.errors import StateError
from repro.kernelsim.kernel import Machine
from repro.obs import runtime as obs
from repro.obs.tracing import exemplar_of
from repro.tpm.device import AttestationKey
from repro.tpm.pcr import IMA_PCR_INDEX
from repro.tpm.quote import Quote


@dataclass(frozen=True)
class PushCapabilities:
    """What the agent announces when it opens a push exchange.

    The negotiation step of the push protocol starts with the agent
    describing itself: which hash algorithms its TPM banks support,
    how long its IMA measurement list currently is, and its TPM reset
    (boot) counter.  The verifier picks the delta offset from its own
    record (entries already verified, and the boot count it last saw)
    -- a changed boot count means the log restarted and the whole list
    must be re-shipped.  ``log_length`` is reported but not used to
    pick the offset.

    The capabilities are *hints*, not security inputs: the quote's own
    reset counter is what actually resets the verifier's replay state,
    so a lying agent gains nothing beyond an extra exchange.
    """

    hash_algorithms: tuple[str, ...]
    log_length: int
    boot_count: int


@dataclass(frozen=True)
class AttestationEvidence:
    """What the agent returns for one challenge.

    Attributes:
        quote: TPM quote over PCR 10 bound to the challenge nonce.
        ima_log_lines: serialised measurement list entries starting at
            ``offset``.
        offset: index of the first shipped entry in the full list.
        total_entries: length of the full list at quote time.
    """

    quote: Quote
    ima_log_lines: tuple[str, ...]
    offset: int
    total_entries: int


class KeylimeAgent:
    """Agent daemon bound to one machine and its TPM.

    Neither :meth:`capabilities` nor :meth:`attest` renders the
    measurement list: they read the engine's entry count and the
    already-rendered suffix, so their cost does not grow with the log.
    """

    def __init__(self, agent_id: str, machine: Machine) -> None:
        self.agent_id = agent_id
        self.machine = machine
        self._ak: AttestationKey | None = None
        self._last_quote_time: float | None = None

    @property
    def attestation_key(self) -> AttestationKey:
        """The AK created during registration."""
        if self._ak is None:
            raise StateError(f"agent {self.agent_id} is not registered (no AK)")
        return self._ak

    def provision_ak(self) -> AttestationKey:
        """Create the attestation key inside the machine's TPM.

        Called once during registration; subsequent calls return the
        existing key (the real agent persists its AK).
        """
        if self._ak is None:
            self._ak = self.machine.tpm.create_ak()
        return self._ak

    def capabilities(self) -> PushCapabilities:
        """The agent's push-negotiation announcement.

        Read fresh on every negotiation: the log length and boot count
        describe the machine *now*, which is what lets the verifier pick
        the right delta offset before any evidence is produced.
        """
        ima = self.machine.require_booted()
        return PushCapabilities(
            hash_algorithms=tuple(sorted(self.machine.tpm.banks)),
            log_length=ima.entry_count,
            boot_count=self.machine.tpm.reset_count,
        )

    def attest(
        self, nonce: str, offset: int = 0, pcr_selection: list[int] | None = None
    ) -> AttestationEvidence:
        """Answer a challenge: quote the selected PCRs, ship the log suffix.

        The selection defaults to PCR 10 (the IMA aggregate); a verifier
        enforcing measured-boot golden values widens it to the boot
        PCRs.  Only the entries from *offset* on are shipped; an offset
        outside the list (a rebooted machine has a shorter log than the
        verifier's offset, or a negative one) ships the whole list.

        The quote is taken *after* the log snapshot; taking them the
        other way round would let a measurement land between the two
        and spuriously fail the replay check.  (Entries appended after
        the quote are shipped on the next poll.)
        """
        if self._ak is None:
            raise StateError(f"agent {self.agent_id} cannot attest before registration")
        telemetry = obs.get()
        wall_start = perf_counter()
        with telemetry.tracer.span(
            "agent.attest", agent=self.agent_id, offset=offset
        ) as span:
            ima = self.machine.require_booted()
            total = ima.entry_count
            if offset < 0 or offset > total:
                # A rebooted machine has a shorter log than the verifier's
                # offset; ship everything and let the verifier notice the
                # reset counter change.
                offset = 0
            suffix = ima.log_lines(offset)

            # Advance the TPM's internal clock to the machine's present.
            now = self.machine.clock.now
            if self._last_quote_time is not None and now > self._last_quote_time:
                self.machine.tpm.tick(int((now - self._last_quote_time) * 1000))
            self._last_quote_time = now

            selection = pcr_selection if pcr_selection else [IMA_PCR_INDEX]
            if IMA_PCR_INDEX not in selection:
                selection = sorted(set(selection) | {IMA_PCR_INDEX})
            with telemetry.tracer.span("agent.quote"):
                quote_wall_start = perf_counter()
                quote = self.machine.tpm.quote(
                    self._ak.public.fingerprint(), nonce, selection, algorithm="sha256"
                )
                telemetry.registry.histogram(
                    "tpm_quote_wall_seconds", "Wall-clock time to produce a TPM quote",
                ).observe(perf_counter() - quote_wall_start)
            span.set_attribute("shipped", len(suffix))

        registry = telemetry.registry
        registry.histogram(
            "agent_attest_wall_seconds",
            "Wall-clock time for the agent to answer one challenge",
        ).observe(perf_counter() - wall_start, exemplar=exemplar_of(span))
        registry.counter(
            "agent_attestations_total", "Challenges answered", ("agent",),
        ).labels(agent=self.agent_id).inc()
        registry.counter(
            "agent_log_lines_shipped_total", "IMA log lines shipped to the verifier",
        ).inc(len(suffix))
        return AttestationEvidence(
            quote=quote,
            ima_log_lines=tuple(suffix),
            offset=offset,
            total_entries=total,
        )
