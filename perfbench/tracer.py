"""Span recording around the program's public layer functions.

The benchmark times each layer from outside the program: it replaces
selected functions and methods with wrappers that record one span per
call.  A span is ``(name, start, end, parent, round)``: ``parent`` is
the index of the span that was open when the call began (``-1`` at top
level) and ``round`` is the id of the enclosing attestation round
(``-1`` outside any round).  Spans are kept in memory and written out
once, when the run ends.

Every wrapper checks :attr:`SpanRecorder.enabled` first and, while it
is off, only forwards the call.  That lets the traced run install the
wrappers once, before the fleet exists (some callers capture bound
methods at construction), and switch recording on and off per step.

The round functions are special: their wall time is always recorded
into :attr:`SpanRecorder.round_seconds`, because the end-to-end
``round_ms`` metrics come from them in the untraced run too.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

#: Each entry: (span name, module, owner, attribute).  ``owner`` is a
#: class name, or ``None`` for a module-level function, which is then
#: replaced in every loaded ``repro`` module that imported it by name.
LAYER_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("crypto.keygen", "repro.crypto.rsa", None, "generate_keypair"),
    ("crypto.sign", "repro.crypto.rsa", "RsaKeyPair", "sign"),
    ("crypto.verify", "repro.crypto.rsa", "RsaPublicKey", "verify"),
    ("tpm.quote", "repro.tpm.device", "Tpm", "quote"),
    ("kernelsim.log_lines", "repro.kernelsim.ima", "ImaEngine", "log_lines"),
    ("kernelsim.exec", "repro.kernelsim.kernel", "Machine", "exec_file"),
    ("kernelsim.reboot", "repro.kernelsim.kernel", "Machine", "reboot"),
    ("agent.attest", "repro.keylime.agent", "KeylimeAgent", "attest"),
    ("agent.capabilities", "repro.keylime.agent", "KeylimeAgent", "capabilities"),
    ("transport.encode", "repro.keylime.transport", None, "challenge_to_json"),
    ("transport.encode", "repro.keylime.transport", None, "evidence_to_json"),
    ("transport.encode", "repro.keylime.transport", None, "negotiation_to_json"),
    ("transport.encode", "repro.keylime.transport", None, "negotiation_reply_to_json"),
    ("transport.encode", "repro.keylime.transport", None, "submission_to_json"),
    ("transport.encode", "repro.keylime.transport", None, "verdict_to_json"),
    ("transport.decode", "repro.keylime.transport", None, "challenge_from_json"),
    ("transport.decode", "repro.keylime.transport", None, "evidence_from_json"),
    ("transport.decode", "repro.keylime.transport", None, "negotiation_from_json"),
    ("transport.decode", "repro.keylime.transport", None, "negotiation_reply_from_json"),
    ("transport.decode", "repro.keylime.transport", None, "submission_from_json"),
    ("transport.decode", "repro.keylime.transport", None, "verdict_from_json"),
    ("pipeline.challenge", "repro.keylime.pipeline", "ChallengeStage", "run"),
    ("pipeline.submit", "repro.keylime.pipeline", "SubmittedEvidenceStage", "run"),
    ("pipeline.quote_verify", "repro.keylime.pipeline", "QuoteVerifyStage", "run"),
    ("pipeline.log_replay", "repro.keylime.pipeline", "LogReplayStage", "run"),
    ("pipeline.policy_eval", "repro.keylime.pipeline", "PolicyEvalStage", "run"),
    ("verifier.negotiate_push", "repro.keylime.verifier", "KeylimeVerifier", "negotiate_push"),
    ("verifier.submit_push", "repro.keylime.verifier", "KeylimeVerifier", "submit_push"),
    ("verifier.update_policy", "repro.keylime.verifier", "KeylimeVerifier", "update_policy"),
    ("audit.append", "repro.keylime.audit", "AuditLog", "append"),
    ("statestore.snapshot", "repro.keylime.statestore", None, "snapshot_verifier"),
    ("fleet.tick", "repro.keylime.fleet", "Fleet", "poll_all"),
    ("fleet.tick", "repro.keylime.fleet", "VerifierFleet", "poll_all"),
    ("fleet.update_cycle", "repro.keylime.fleet", "Fleet", "run_update_cycle"),
    ("dynpolicy.generate_update", "repro.dynpolicy.generator",
     "DynamicPolicyGenerator", "generate_update"),
    ("distro.mirror_sync", "repro.distro.mirror", "LocalMirror", "sync"),
    ("distro.apt_upgrade", "repro.distro.apt", "AptInstaller", "upgrade_from"),
)

#: The two round entry points; each call is one attestation round.
ROUND_TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("verifier.poll", "repro.keylime.verifier", "KeylimeVerifier", "poll"),
    ("verifier.push_round", "repro.keylime.verifier", "KeylimeVerifier", "push_round"),
)
ROUND_NAMES = tuple(target[0] for target in ROUND_TARGETS)

#: Spans whose result has a size worth counting: lines rendered,
#: bytes encoded, lines shipped.
_SIZE_OF = {
    "kernelsim.log_lines": len,
    "transport.encode": len,
    "agent.attest": lambda evidence: len(evidence.ima_log_lines),
}


class SpanRecorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        #: (name, start, end, parent, round) per finished or open span.
        self.spans: list[tuple | None] = []
        #: Size of the sized spans' results, by span index.
        self.sizes: dict[int, int] = {}
        #: Wall seconds of every round call, recorded or not.
        self.round_seconds: list[float] = []
        self._stack: list[int] = []
        self._round = -1
        self._next_round = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self, layers: bool) -> None:
        """Wrap the round functions, and every layer target if *layers*."""
        targets = ROUND_TARGETS + (LAYER_TARGETS if layers else ())
        for name, module_name, owner, attr in targets:
            module = sys.modules[module_name]
            if owner is not None:
                cls = getattr(module, owner)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(original, name))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(original, name)
            for loaded_name, loaded in list(sys.modules.items()):
                if loaded_name.split(".")[0] != "repro" or loaded is None:
                    continue
                if getattr(loaded, attr, None) is original:
                    self._patch(loaded, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _wrap(self, fn, name: str):
        recorder = self
        is_round = name in ROUND_NAMES
        size_of = _SIZE_OF.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.enabled:
                if not is_round:
                    return fn(*args, **kwargs)
                start = perf_counter()
                result = fn(*args, **kwargs)
                recorder.round_seconds.append(perf_counter() - start)
                return result
            spans = recorder.spans
            stack = recorder._stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            outer_round = recorder._round
            if is_round:
                recorder._round = recorder._next_round
                recorder._next_round += 1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, recorder._round)
                recorder._round = outer_round
            if is_round:
                recorder.round_seconds.append(end - start)
            elif size_of is not None:
                recorder.sizes[index] = size_of(result)
            return result

        return wrapper

    # -- analysis ------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time of each span: its duration minus the durations of
        its direct children (single-threaded, so the children never
        overlap and their sum is the time they cover)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, begin, end, parent, _round in spans:
            if parent >= 0:
                child[parent] += end - begin
        return [
            (span[2] - span[1]) - child[index]
            for index, span in enumerate(spans)
        ]

    def write(self, path) -> None:
        """Write every span as one JSON array per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                name, start, end, parent, round_id = span
                handle.write(json.dumps(
                    [index, name, round(start, 9), round(end, 9), parent, round_id]
                ))
                handle.write("\n")
