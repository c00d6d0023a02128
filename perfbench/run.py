"""Layered attestation-round benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady_pull --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer wrappers.
``--trace 1`` is the separate traced run: it wraps each layer's public
functions, records spans, and reports the per-layer metrics, the set-up
split and the tracing overhead.  Both print a readable report and then,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run checks its own outputs: every round is ok, every audit chain
verifies, every agent's verified replay offset has caught up with its
measurement list, and a verdict digest over the first steps equals the
digest of fresh set-ups of the same seed run in child processes (which
are untraced, so the traced run is compared with an untraced one).  A
failed check prints ``"correct": false`` and exits with code 1.

See ``perfbench/README.md`` for the workloads and the metric table.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from tracer import ROUND_NAMES, SpanRecorder

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

#: Closed-loop steps whose verdicts and audit heads form the digest.
DIGEST_STEPS = 8
#: Steps after which the peak resident set is read.  A fixed count, so
#: that a faster program, which runs more steps in the same time and
#: keeps more history, is not charged for the extra memory.
RSS_STEPS = 48
#: Child-process set-ups per run (the untraced run also times them).
SETUP_REPS = {0: 2, 1: 1}
#: Traced-run step modes, rotated one step at a time so each mode sees
#: the same mix of state growth: layer spans on; telemetry alone; and
#: telemetry deactivated (the obs layer's own cost).
MODES = ("traced", "plain", "null")

#: The bounded end-to-end metrics.  Timings are p90s: on a shared
#: machine whose speed switches between a fast and a slow state for
#: seconds at a time, a run's median lands in either state, while its
#: p90 stays in the slow one (see README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("round_ms_p90", "ms"),
    ("tick_ms_p90", "ms"),
    ("update_cycle_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)

LAYERS = (
    "crypto", "tpm", "kernelsim", "agent", "transport", "pipeline",
    "verifier", "audit", "statestore", "fleet", "dynpolicy", "distro",
)
STAGES = ("challenge", "submit", "quote_verify", "log_replay", "policy_eval")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile *q* (0-100); 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class Digest:
    """Verdict digest: ordered (agent, ok, entries) tuples + audit heads."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()

    def add_results(self, results) -> None:
        for agent, ok, entries in results:
            self._hash.update(f"{agent}|{int(ok)}|{entries};".encode())

    def add_heads(self, audits) -> None:
        for audit in audits:
            self._hash.update(f"head|{audit.head_hash};".encode())

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def run_setup_rep(workload: str, seed: int) -> dict:
    """Child-process body: set up once, run the digest steps, report."""
    from repro.obs import runtime as obs
    from workloads import WORKLOADS

    obs.activate()
    rig = WORKLOADS[workload](seed)
    start = perf_counter()
    rig.setup()
    setup_s = perf_counter() - start
    digest = Digest()
    digest.add_results(rig.first_tick.results)
    for _ in range(DIGEST_STEPS):
        digest.add_results(rig.step().results)
    digest.add_heads(rig.audit_logs())
    return {"setup_s": setup_s, "digest": digest.hexdigest()}


def spawn_setup_reps(workload: str, seed: int, count: int) -> list[dict]:
    """Run *count* fresh set-ups, one child process after another."""
    reps = []
    for _ in range(count):
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--setup-rep"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up child failed:\n{child.stderr}")
        reps.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return reps


class Phase:
    """Accumulates the closed-loop steps of one measured mode."""

    def __init__(self) -> None:
        self.steps = 0
        self.busy = 0.0
        self.attempted = 0
        self.ok = 0
        self.results: list[tuple[str, bool, int]] = []
        self.retries = 0
        self.round_seconds: list[float] = []
        self.tick_seconds: list[float] = []
        self.cycle_seconds: list[float] = []
        self.entries_added: list[int] = []
        self.cache_hits = 0
        self.cache_misses = 0

    def add(self, outcome, busy: float, round_seconds) -> None:
        self.steps += 1
        self.busy += busy
        self.attempted += outcome.attempted
        self.ok += sum(1 for _agent, ok, _entries in outcome.results if ok)
        self.results.extend(outcome.results)
        self.retries += outcome.retries
        self.round_seconds.extend(round_seconds)
        self.tick_seconds.extend(outcome.tick_seconds)
        self.cycle_seconds.extend(outcome.cycle_seconds)
        self.entries_added.extend(outcome.entries_added)

    @property
    def rounds_per_s(self) -> float:
        return len(self.round_seconds) / self.busy if self.busy else 0.0


def measure(rig, recorder, seconds: float, traced: bool):
    """The measured closed loop; returns (phases by mode, digest, peak
    resident set in MB after :data:`RSS_STEPS` steps)."""
    from repro.obs import runtime as obs

    telemetry = obs.get()
    cache = rig.fleet.verdict_cache
    phases = defaultdict(Phase)
    digest = Digest()
    digest.add_results(rig.first_tick.results)
    steps = 0
    deadline = perf_counter() + seconds
    while steps < max(DIGEST_STEPS, RSS_STEPS) or perf_counter() < deadline:
        mode = MODES[steps % len(MODES)] if traced else "plain"
        recorder.enabled = mode == "traced"
        if mode == "null":
            obs.deactivate()
        hits, misses = cache.hits, cache.misses
        first_round = len(recorder.round_seconds)
        start = perf_counter()
        outcome = rig.step()
        busy = perf_counter() - start - outcome.input_seconds
        recorder.enabled = False
        obs.activate(telemetry)
        phase = phases[mode]
        phase.add(outcome, busy, recorder.round_seconds[first_round:])
        phase.cache_hits += cache.hits - hits
        phase.cache_misses += cache.misses - misses
        steps += 1
        if steps <= DIGEST_STEPS:
            digest.add_results(outcome.results)
        if steps == DIGEST_STEPS:
            digest.add_heads(rig.audit_logs())
        if steps == RSS_STEPS:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return phases, digest.hexdigest(), peak_rss_mb


def check_outputs(rig, phases, digest: str, reps) -> list[str]:
    """Every failed output check, as one line each."""
    from repro.common.errors import IntegrityError

    problems = []
    for mode, phase in phases.items():
        if phase.ok != phase.attempted:
            problems.append(
                f"{mode}: {phase.attempted - phase.ok} of {phase.attempted} "
                "rounds were not ok"
            )
    for audit in rig.audit_logs():
        try:
            audit.verify_chain()
        except IntegrityError as exc:
            problems.append(f"audit chain does not verify: {exc}")
    gaps = rig.coverage_gaps()
    if gaps:
        problems.append(f"replay offset behind the log for {', '.join(gaps)}")
    for rep in reps:
        if rep["digest"] != digest:
            problems.append(
                f"verdict digest {digest[:16]} differs from a fresh set-up's "
                f"{rep['digest'][:16]}"
            )
    return problems


# -- metrics -----------------------------------------------------------------

def unit_of(name: str) -> str:
    """The unit a per-layer metric's name implies."""
    if "rounds_per_s" in name:
        return "1/s"
    if "ms_p50" in name or name.endswith("ms_per_round"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio", "growth")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def end_to_end_metrics(setup_times, phase: Phase, peak_rss_mb: float):
    """(bounded metrics, reported-only metrics) of the untraced run."""
    rounds = [value * 1000.0 for value in phase.round_seconds]
    ticks = [value * 1000.0 for value in phase.tick_seconds]
    cycles = [value * 1000.0 for value in phase.cycle_seconds]
    bounded = {
        "setup_s": statistics.median(setup_times),
        "round_ms_p90": percentile(rounds, 90),
        "tick_ms_p90": percentile(ticks, 90),
        "update_cycle_ms_p90": percentile(cycles, 90),
        "peak_rss_mb": peak_rss_mb,
    }
    reported = {
        "rounds_per_s": (phase.rounds_per_s, "1/s"),
        "round_ms_p50": (percentile(rounds, 50), "ms"),
        "round_ms_p99": (percentile(rounds, 99), "ms"),
        "tick_ms_p50": (percentile(ticks, 50), "ms"),
        "update_cycle_ms_p50": (percentile(cycles, 50), "ms"),
    }
    return bounded, reported


def layer_metrics(rig, recorder, setup_spans: int, phases) -> dict:
    """Per-layer metrics from the spans recorded after set-up."""
    spans = recorder.spans
    selfs = recorder.self_seconds()
    traced = phases["traced"]
    by_name = defaultdict(list)       # name -> [(duration, self, index)]
    per_round = defaultdict(lambda: defaultdict(float))  # name -> round -> self
    layer_self = defaultdict(float)
    for index in range(setup_spans, len(spans)):
        name, start, end, parent, round_id = spans[index]
        by_name[name].append((end - start, selfs[index], index))
        layer_self[name.split(".")[0]] += selfs[index]
        if round_id >= 0:
            per_round[name][round_id] += selfs[index]
    rounds = [
        (spans[index][4], duration)
        for name in ROUND_NAMES
        for duration, _self, index in by_name[name]
    ]
    n_rounds = len(rounds)
    round_total = sum(duration for _round_id, duration in rounds)

    def p50_ms(name: str, use_self: bool = False) -> float:
        return 1000.0 * percentile(
            [item[1] if use_self else item[0] for item in by_name[name]], 50
        )

    def round_p50_ms(name: str) -> float:
        totals = per_round[name]
        return 1000.0 * percentile(
            [totals.get(round_id, 0.0) for round_id, _duration in rounds], 50
        )

    def round_sum(name: str, value) -> float:
        return sum(
            value(item) for item in by_name[name] if spans[item[2]][4] >= 0
        )

    def size(item) -> int:
        return recorder.sizes.get(item[2], 0)

    def top_level_encode(item) -> int:
        parent = spans[item[2]][3]
        return 0 if parent >= 0 and spans[parent][0] == "transport.encode" else size(item)

    rendered = round_sum("kernelsim.log_lines", size)
    shipped = round_sum("agent.attest", size)
    keygens = [
        (index, span[2] - span[1]) for index, span in enumerate(spans)
        if span[0] == "crypto.keygen"
    ]
    setup_keygen_s = sum(
        seconds for index, seconds in keygens if index < setup_spans
    )
    snapshots = [item[0] for item in by_name["statestore.snapshot"]]
    tenth = len(snapshots) // 10
    growth = (
        mean(snapshots[-tenth:]) / mean(snapshots[:tenth]) if tenth else 0.0
    )
    snapshot_bytes = sum(
        len(json.dumps(body, sort_keys=True, separators=(",", ":")))
        for body in rig.snapshots()
    )
    lookups = traced.cache_hits + traced.cache_misses
    plain, null = phases["plain"], phases["null"]
    busy_total = sum(layer_self.values())

    metrics = {
        "crypto.keygen.calls": len(keygens),
        "crypto.keygen.busy_s": sum(seconds for _index, seconds in keygens),
        "crypto.sign.ms_p50": p50_ms("crypto.sign"),
        "crypto.sign.share": (
            round_sum("crypto.sign", lambda item: item[0]) / round_total
            if round_total else 0.0
        ),
        "crypto.verify.ms_p50": p50_ms("crypto.verify"),
        "tpm.quote.self_ms_p50": p50_ms("tpm.quote", use_self=True),
        "kernelsim.log_lines.ms_p50": p50_ms("kernelsim.log_lines"),
        "kernelsim.lines_rendered_per_round": rendered / n_rounds if n_rounds else 0.0,
        "kernelsim.render_waste_ratio": rendered / max(shipped, 1),
        "kernelsim.exec.ms_p50": p50_ms("kernelsim.exec"),
        "kernelsim.reboot.ms_p50": p50_ms("kernelsim.reboot"),
        "agent.attest.self_ms_p50": p50_ms("agent.attest", use_self=True),
        "agent.capabilities.ms_p50": p50_ms("agent.capabilities"),
        "transport.encode.ms_p50": round_p50_ms("transport.encode"),
        "transport.decode.ms_p50": round_p50_ms("transport.decode"),
        "transport.bytes_per_round": (
            round_sum("transport.encode", top_level_encode) / n_rounds
            if n_rounds else 0.0
        ),
        "transport.retries": traced.retries,
    }
    for stage in STAGES:
        metrics[f"pipeline.{stage}.self_ms_p50"] = p50_ms(
            f"pipeline.{stage}", use_self=True
        )
    metrics.update({
        "pipeline.entries_per_round": mean(
            [entries for _agent, _ok, entries in traced.results]
        ),
        "pipeline.cache_hit_ratio": traced.cache_hits / lookups if lookups else 0.0,
        "pipeline.rounds_failed": traced.attempted - traced.ok,
        "verifier.negotiate_push.self_ms_p50": p50_ms(
            "verifier.negotiate_push", use_self=True
        ),
        "verifier.submit_push.self_ms_p50": p50_ms(
            "verifier.submit_push", use_self=True
        ),
        "verifier.update_policy.ms_p50": p50_ms("verifier.update_policy"),
        "audit.append.ms_p50": p50_ms("audit.append"),
        "audit.records_last": sum(len(audit) for audit in rig.audit_logs()),
        "statestore.snapshot.ms_p50": p50_ms("statestore.snapshot"),
        "statestore.snapshot.growth": growth,
        "statestore.snapshot_bytes_last": snapshot_bytes,
        # A tick's direct children are its rounds and checkpoints, so
        # its self time is the tick minus rounds minus checkpoint.
        "fleet.tick_overhead_ms_p50": p50_ms("fleet.tick", use_self=True),
        "dynpolicy.generate_update.ms_p50": p50_ms("dynpolicy.generate_update"),
        "dynpolicy.entries_added_per_day": mean(traced.entries_added),
        "distro.mirror_sync.ms_p50": p50_ms("distro.mirror_sync"),
        "distro.apt_upgrade.ms_p50": p50_ms("distro.apt_upgrade"),
        "obs.self_ms_per_round": 1000.0 * (
            percentile(plain.round_seconds, 50) - percentile(null.round_seconds, 50)
        ),
        "obs.rounds_per_s_untraced": plain.rounds_per_s,
        "obs.rounds_per_s_traced": traced.rounds_per_s,
        "obs.tracing_overhead_ratio": (
            plain.rounds_per_s / traced.rounds_per_s if traced.rounds_per_s else 0.0
        ),
        "setup.base_policy_s": rig.phases["base_policy"],
        "setup.provision_s": rig.phases["provision"] - setup_keygen_s,
        "setup.log_build_s": rig.phases["log_build"],
        "setup.first_tick_s": rig.phases["first_tick"],
        "samples.rounds": n_rounds,
        "samples.ticks": len(traced.tick_seconds),
        "samples.update_cycles": len(by_name["fleet.update_cycle"]),
    })
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (
            layer_self[layer] / busy_total if busy_total else 0.0
        )
    return metrics


# -- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady_pull", "long_log_push", "update_day"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-rep", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_rep:
        print(json.dumps(run_setup_rep(args.workload, args.seed)))
        return 0

    from repro.obs import runtime as obs
    from workloads import WORKLOADS

    traced = args.trace == 1
    obs.activate()
    recorder = SpanRecorder()
    recorder.install(layers=traced)
    rig = WORKLOADS[args.workload](args.seed)
    recorder.enabled = traced
    start = perf_counter()
    rig.setup()
    setup_s = perf_counter() - start
    recorder.enabled = False
    setup_spans = len(recorder.spans)
    gc.collect()

    phases, digest, peak_rss_mb = measure(rig, recorder, args.seconds, traced)
    reps = spawn_setup_reps(args.workload, args.seed, SETUP_REPS[args.trace])
    problems = check_outputs(rig, phases, digest, reps)
    main_phase = phases["traced" if traced else "plain"]
    recorder.uninstall()

    attempted = sum(phase.attempted for phase in phases.values())
    failed = attempted - sum(phase.ok for phase in phases.values())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"steps {sum(phase.steps for phase in phases.values())}  "
          f"digest {digest[:16]}")
    if traced:
        metrics = layer_metrics(rig, recorder, setup_spans, phases)
        units = {name: unit_of(name) for name in metrics}
        RESULTS.mkdir(exist_ok=True)
        spans_path = RESULTS / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        print(f"spans: {len(recorder.spans)} written to "
              f"{spans_path.relative_to(ROOT)}")
    else:
        setup_times = [setup_s] + [rep["setup_s"] for rep in reps]
        metrics, reported = end_to_end_metrics(
            setup_times, main_phase, peak_rss_mb
        )
        units = dict(END_TO_END)
        print(f"samples: {len(main_phase.round_seconds)} rounds, "
              f"{len(main_phase.tick_seconds)} ticks, "
              f"{len(main_phase.cycle_seconds)} update cycles, "
              f"{len(setup_times)} set-ups")
        print("reported, not bounded:")
        for name, (value, unit) in reported.items():
            print(f"  {name:40s} {value:14.6f} {unit}")
        print("bounded:")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6f} {units[name]}")
    print(f"fail_ratio {failed / attempted if attempted else 0.0} "
          f"({failed} of {attempted} rounds)")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
