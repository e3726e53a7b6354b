"""Closed-loop sessions: set up, warm up, time, check every output.

A run is ``SEGMENTS`` segments.  Each segment provisions a fresh
deployment and service (timed: that is ``setup_s``), runs one warm-up
session per client thread so lazy comb and window tables are filled, then
runs the closed loop for its share of the run's seconds.  Setting up
several times gives ``setup_s`` a median, and spreads the run's Bloom
punctures over several fleets.

Every recovery is checked byte-for-byte against the payload it backed up.
A failed operation — exception, refusal, below-threshold result or wrong
plaintext — counts against ``success_rate`` and as +inf latency.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import threading
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional

from repro.chaos.entropy import DeterministicEntropy
from repro.core.params import SystemParams
from repro.core.protocol import Deployment
from repro.sim.workload import percentile
from repro.storage.blockstore import InMemoryBlockStore

from workloads import CLUSTER_SIZE, MAX_PUNCTURES, NUM_HSMS, SessionInput, Workload, session_inputs

SEGMENTS = 3
#: A thread that has not returned this long after the deadline is hung.
JOIN_GRACE_S = 120.0


@dataclasses.dataclass
class SessionRecord:
    index: int
    backup_s: float  # inf when the backup failed
    recover_s: Optional[float]  # None when not attempted; inf on failure
    ok: bool
    wrong_output: bool = False
    error: str = ""

    @property
    def session_s(self) -> float:
        return self.backup_s + (self.recover_s or 0.0)

    @property
    def attempted(self) -> int:
        return 1 + (self.recover_s is not None)

    @property
    def failed(self) -> int:
        return (self.backup_s == float("inf")) + (self.recover_s == float("inf"))


@dataclasses.dataclass
class SegmentResult:
    setup_s: float
    elapsed_s: float
    records: List[SessionRecord]
    stopped_at_rotation: bool
    stats_delta: Dict[str, float]
    wire_delta: Dict[str, int]
    device_ops: Counter
    client_ops: Counter
    setup_spans: list = dataclasses.field(default_factory=list)
    spans: list = dataclasses.field(default_factory=list)


def params(max_punctures: int = MAX_PUNCTURES) -> SystemParams:
    return SystemParams.for_testing(
        num_hsms=NUM_HSMS, cluster_size=CLUSTER_SIZE, max_punctures=max_punctures
    )


def _deploy(workload: Workload, params_: SystemParams, rng: random.Random):
    deployment = Deployment.create(
        params_,
        rng=rng,
        shards=workload.shards,
        store=InMemoryBlockStore() if workload.durable else None,
    )
    service = deployment.recovery_service(
        shards=workload.shards if workload.shards > 1 else None
    )
    return deployment, service


def run_session(service, workload: Workload, inp: SessionInput, tracer=None) -> SessionRecord:
    """One backup (+ recovery), timed per operation and checked."""
    if tracer is not None:
        tracer.set_session(inp.username)
    client = service.new_client(inp.username)
    clock = time.perf_counter
    record = SessionRecord(inp.index, float("inf"), None, False)
    start = clock()
    try:
        index = client.backup(inp.payload, pin=inp.pin)
        if not isinstance(index, int) or index < 0:
            raise ValueError(f"backup returned {index!r}")
        record.backup_s = clock() - start
        if workload.recover:
            record.recover_s = float("inf")
            start = clock()
            recovered = client.recover(inp.pin)
            if recovered != inp.payload:
                record.wrong_output = True
                raise ValueError("recovered plaintext differs from the backed-up payload")
            record.recover_s = clock() - start
        record.ok = True
    except Exception as exc:  # every failure is counted, none is fatal to the run
        record.error = f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.set_session(None)
    return record


def _total_ops(meters) -> Counter:
    total: Counter = Counter()
    for meter in meters:
        total.update(meter.counts)
    return total


def _closed_loop(service, workload, inputs: Iterator[SessionInput], deadline: float,
                 exhausted, tracer) -> List[SessionRecord]:
    records: List[SessionRecord] = []
    lock = threading.Lock()
    crashed: List[BaseException] = []

    def client_thread() -> None:
        try:
            while time.perf_counter() < deadline and not exhausted():
                with lock:
                    inp = next(inputs, None)
                if inp is None:
                    return
                record = run_session(service, workload, inp, tracer)
                with lock:
                    records.append(record)
        except BaseException as exc:  # a benchmark bug: surface it on the main thread
            crashed.append(exc)

    threads = [threading.Thread(target=client_thread, name=f"bench-client-{i}", daemon=True)
               for i in range(workload.threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()) + JOIN_GRACE_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a client thread did not finish its last session in time")
    if crashed:
        raise crashed[0]
    return records


def run_segment(workload: Workload, seed: int, segment: int, seconds: float,
                probe=None) -> SegmentResult:
    """Provision, warm up and time one deployment.

    ``probe`` is a :class:`layers.LayerProbe` already installed for a
    traced segment, or ``None``."""
    tracer = probe.tracer if probe is not None else None
    start = time.perf_counter()
    deployment, service = _deploy(
        workload, params(), random.Random(f"perfbench-fleet|{seed}|{segment}")
    )
    service.start()
    setup_s = time.perf_counter() - start
    try:
        setup_spans = tracer.take() if tracer is not None else []
        if probe is not None:
            probe.attach(service)
        warm = session_inputs(workload, seed, "warm")
        warm_deadline = time.perf_counter() + JOIN_GRACE_S
        for record in _closed_loop(service, workload, itertools.islice(warm, workload.threads),
                                   warm_deadline, lambda: False, tracer):
            if not record.ok:
                raise RuntimeError(f"warm-up session failed: {record.error}")
        if tracer is not None:
            tracer.take()

        hsms = deployment.fleet.hsms
        threshold = deployment.params.rotation_threshold
        rotation = threading.Event()

        def exhausted() -> bool:
            # The paper rotates an HSM's keys once half its Bloom slots are
            # deleted; rotation is maintenance, not a session, so the
            # segment ends there instead.
            if any(h.needs_rotation(threshold) for h in hsms):
                rotation.set()
            return rotation.is_set()

        device_before = _total_ops(h.meter for h in hsms)
        stats_before = service.stats()
        first_client = len(service.clients)
        t0 = time.perf_counter()
        records = _closed_loop(service, workload, session_inputs(workload, seed, "timed"),
                               t0 + seconds, exhausted, tracer)
        elapsed = time.perf_counter() - t0
        stats_after = service.stats()
        spans = tracer.take() if tracer is not None else []
        device_ops = _total_ops(h.meter for h in hsms)
        device_ops.subtract(device_before)
        client_ops = _total_ops(c.meter for c in service.clients[first_client:])
    finally:
        service.stop()
    keys = ("epochs_run", "sessions_served", "lease_timeouts", "epoch_failures")
    wire_before = stats_before.get("provider_wire", {})
    return SegmentResult(
        setup_s=setup_s,
        elapsed_s=elapsed,
        records=records,
        stopped_at_rotation=rotation.is_set(),
        stats_delta={k: stats_after[k] - stats_before[k] for k in keys},
        wire_delta={k: v - wire_before.get(k, 0)
                    for k, v in stats_after.get("provider_wire", {}).items()},
        device_ops=device_ops,
        client_ops=client_ops,
        setup_spans=setup_spans,
        spans=spans,
    )


def op_counts_probe(workload: Workload, seed: int, probe=None) -> Dict[str, float]:
    """Metered ops (devices + client) of one session on a small fleet with
    every entropy source pinned to ``seed``: two calls with the same seed
    must agree exactly, traced (``probe`` installed) or not."""
    with DeterministicEntropy(seed):
        deployment, service = _deploy(workload, params(max_punctures=2), random.Random(seed))
        with service:
            if probe is not None:
                probe.attach(service)
            inp = next(session_inputs(workload, seed, "probe"))
            record = run_session(service, workload, inp, probe.tracer if probe else None)
        if not record.ok:
            raise RuntimeError(f"op-count probe session failed: {record.error}")
        counts = _total_ops(h.meter for h in deployment.fleet.hsms)
        counts.update(_total_ops(c.meter for c in service.clients))
    if probe is not None:
        probe.tracer.take()
    return dict(counts)


# -- end-to-end metrics ------------------------------------------------------------
#: name -> (unit, better): every metric an untraced run reports.  A
#: session is backup + recovery, or one backup on backup-only workloads.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sessions_per_s": ("1/s", "higher"),
    "session_p50_ms": ("ms", "lower"),
    "session_p90_ms": ("ms", "lower"),
    "success_rate": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
INF_MS = 1e9  #: a failed operation's latency as printed (JSON has no infinity)


def _ms(samples: List[float], p: float) -> float:
    value = percentile(samples, p) * 1000.0
    return value if value < INF_MS else INF_MS


def end_to_end(segments: List[SegmentResult], peak_rss_mb: float) -> Dict[str, float]:
    records = [r for s in segments for r in s.records]
    attempted = sum(r.attempted for r in records)
    failed = sum(r.failed for r in records)
    elapsed = sum(s.elapsed_s for s in segments)
    sessions = [r.session_s for r in records]
    return {
        "setup_s": percentile([s.setup_s for s in segments], 0.5),
        "sessions_per_s": sum(r.ok for r in records) / elapsed,
        "session_p50_ms": _ms(sessions, 0.5),
        "session_p90_ms": _ms(sessions, 0.9),
        "success_rate": 1.0 - failed / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def operation_percentiles(segments: List[SegmentResult]) -> Dict[str, float]:
    """Backup and (where they run) recovery latency, printed but not gated.

    On backup_burst a backup is the whole session, so the session metrics
    already gate it; on the recovery workloads a backup is a few percent
    of a session, and with two clients its latency mostly measures which
    of the other client's steps it happened to overlap."""
    records = [r for s in segments for r in s.records]
    result = {}
    for op, samples in (
        ("backup", [r.backup_s for r in records]),
        ("recover", [r.recover_s for r in records if r.recover_s is not None]),
    ):
        if samples:
            result[f"{op}_p50_ms"] = _ms(samples, 0.5)
            result[f"{op}_p90_ms"] = _ms(samples, 0.9)
    return result
